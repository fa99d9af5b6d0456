//! The RDMA fabric: hosts, regions, permissions, and one-sided operations.

use std::collections::BTreeMap;

use ubft_sim::net::{HopOutcome, NetworkModel};
use ubft_sim::{HostId, SimRng};
use ubft_types::{Duration, Time};

use crate::region::Region;

/// Globally unique identifier of a registered memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u64);

/// Capability granting write access to one region (the RDMA rkey with
/// remote-write permission). Readers do not need a token: every region is
/// world-readable, matching the paper's chunk model (§2.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct AccessToken(u64);

/// Why an RDMA operation could not be issued or will not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RdmaError {
    /// The issuer presented the wrong write token.
    PermissionDenied,
    /// Offset/length exceed the region bounds.
    OutOfBounds,
    /// The target host has crashed; the operation will never complete.
    TargetUnavailable,
    /// The issuing host has crashed.
    IssuerUnavailable,
    /// The region id is unknown.
    UnknownRegion,
}

impl core::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            RdmaError::PermissionDenied => "write permission denied",
            RdmaError::OutOfBounds => "region access out of bounds",
            RdmaError::TargetUnavailable => "target host unavailable",
            RdmaError::IssuerUnavailable => "issuing host unavailable",
            RdmaError::UnknownRegion => "unknown region",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RdmaError {}

/// Completion information for a WRITE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteTicket {
    /// When the data lands in the target's memory (start of the torn
    /// application window).
    pub arrival: Time,
    /// When the issuer learns of completion. Includes the read-after-write
    /// PCIe-fence round trip the paper issues to guarantee visibility
    /// (§6.2 footnote 4).
    pub completion: Time,
}

/// Completion information for a READ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadTicket {
    /// When the issuer receives the data.
    pub completion: Time,
    /// The bytes observed (possibly torn if concurrent with a write).
    pub data: Vec<u8>,
}

struct RegionEntry {
    host: HostId,
    writer: AccessToken,
    region: Region,
}

/// The simulated RDMA fabric. One instance models the whole cluster's
/// NICs, switch, and exposed memory.
pub struct Fabric {
    net: NetworkModel,
    rng: SimRng,
    regions: BTreeMap<RegionId, RegionEntry>,
    next_region: u64,
    next_token: u64,
    /// FIFO enforcement per (issuer, target) ordered channel, like a
    /// reliable-connection queue pair: ops between the same pair of hosts
    /// arrive in issue order.
    last_arrival: BTreeMap<(HostId, HostId), Time>,
    /// Total region bytes registered per host (Table 2 accounting).
    bytes_per_host: BTreeMap<HostId, usize>,
}

impl Fabric {
    /// Creates a fabric over `net` with randomness from `rng`.
    pub fn new(net: NetworkModel, rng: SimRng) -> Self {
        Fabric {
            net,
            rng,
            regions: BTreeMap::new(),
            next_region: 0,
            next_token: 0xF00D,
            last_arrival: BTreeMap::new(),
            bytes_per_host: BTreeMap::new(),
        }
    }

    /// Registers a `size`-byte region on `host`, returning its id and the
    /// unique write capability.
    pub fn create_region(&mut self, host: HostId, size: usize) -> (RegionId, AccessToken) {
        let id = RegionId(self.next_region);
        self.next_region += 1;
        let token = AccessToken(self.next_token);
        self.next_token = self.next_token.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        self.regions.insert(id, RegionEntry { host, writer: token, region: Region::new(size) });
        *self.bytes_per_host.entry(host).or_insert(0) += size;
        (id, token)
    }

    /// The host a region lives on.
    pub fn region_host(&self, region: RegionId) -> Option<HostId> {
        self.regions.get(&region).map(|e| e.host)
    }

    /// Total registered region bytes on `host` (disaggregated-memory
    /// accounting for Table 2).
    pub fn host_bytes(&self, host: HostId) -> usize {
        self.bytes_per_host.get(&host).copied().unwrap_or(0)
    }

    /// Mutable access to the network model (crash/partition injection).
    pub fn net_mut(&mut self) -> &mut NetworkModel {
        &mut self.net
    }

    /// The network model.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    fn fifo_arrival(&mut self, src: HostId, dst: HostId, proposed: Time) -> Time {
        let key = (src, dst);
        let last = self.last_arrival.get(&key).copied().unwrap_or(Time::ZERO);
        let arrival = if proposed <= last { last + Duration::from_nanos(1) } else { proposed };
        self.last_arrival.insert(key, arrival);
        arrival
    }

    /// Issues a one-sided WRITE of `data` into `region` at `offset`.
    ///
    /// # Errors
    ///
    /// As for [`Fabric::write_owned`], which this copies `data` for.
    pub fn write(
        &mut self,
        issuer: HostId,
        token: AccessToken,
        region: RegionId,
        offset: usize,
        data: &[u8],
        now: Time,
    ) -> Result<WriteTicket, RdmaError> {
        self.write_owned(issuer, token, region, offset, data.to_vec(), now)
    }

    /// Issues a one-sided WRITE of `data` into `region` at `offset`, taking
    /// the buffer: it becomes the in-flight image of the write, so a caller
    /// that built the bytes for this write (a channel's slot frame) pays no
    /// second copy.
    ///
    /// # Errors
    ///
    /// Returns an [`RdmaError`] if permissions, bounds, or host liveness
    /// checks fail. A `TargetUnavailable` error means the op will never
    /// complete; callers model this as a lost completion.
    pub fn write_owned(
        &mut self,
        issuer: HostId,
        token: AccessToken,
        region: RegionId,
        offset: usize,
        data: Vec<u8>,
        now: Time,
    ) -> Result<WriteTicket, RdmaError> {
        let entry = self.regions.get(&region).ok_or(RdmaError::UnknownRegion)?;
        if entry.writer != token {
            return Err(RdmaError::PermissionDenied);
        }
        if offset + data.len() > entry.region.len() {
            return Err(RdmaError::OutOfBounds);
        }
        if self.net.is_crashed(issuer, now) {
            return Err(RdmaError::IssuerUnavailable);
        }
        let target = entry.host;
        let outcome = self.net.hop(&mut self.rng, issuer, target, data.len(), now);
        let delay = match outcome {
            HopOutcome::Delivered(d) => d,
            HopOutcome::Dropped => return Err(RdmaError::TargetUnavailable),
        };
        let arrival = self.fifo_arrival(issuer, target, now + delay);
        // Data streams into memory at wire rate; this is the torn window.
        let spread =
            Duration::from_nanos((data.len() as u64 * self.net.latency().picos_per_byte) / 1000);
        let entry = self.regions.get_mut(&region).expect("checked above");
        entry.region.begin_write(offset, data, arrival, spread);
        // Completion: ack hop back, plus the read-after-write fence RTT the
        // register layer relies on for visibility ordering.
        let ack = match self.net.hop(&mut self.rng, target, issuer, 16, arrival) {
            HopOutcome::Delivered(d) => d,
            // If the issuer crashed mid-flight the completion is lost, but
            // the data still landed; report the arrival as completion so the
            // simulation bookkeeping stays consistent.
            HopOutcome::Dropped => Duration::ZERO,
        };
        Ok(WriteTicket { arrival, completion: arrival + ack })
    }

    /// Issues a one-sided READ of `len` bytes from `region` at `offset`.
    ///
    /// The returned data is sampled when the read arrives at the target, so
    /// it may be torn with respect to concurrent writes.
    ///
    /// # Errors
    ///
    /// Returns an [`RdmaError`] if bounds or host liveness checks fail.
    pub fn read(
        &mut self,
        issuer: HostId,
        region: RegionId,
        offset: usize,
        len: usize,
        now: Time,
    ) -> Result<ReadTicket, RdmaError> {
        let mut data = vec![0u8; len];
        let completion = self.read_into(issuer, region, offset, &mut data, now)?;
        Ok(ReadTicket { completion, data })
    }

    /// [`Fabric::read`] of `out.len()` bytes into a buffer the caller
    /// keeps; returns when the issuer receives the data.
    ///
    /// # Errors
    ///
    /// As for [`Fabric::read`].
    pub fn read_into(
        &mut self,
        issuer: HostId,
        region: RegionId,
        offset: usize,
        out: &mut [u8],
        now: Time,
    ) -> Result<Time, RdmaError> {
        let len = out.len();
        let entry = self.regions.get(&region).ok_or(RdmaError::UnknownRegion)?;
        if offset + len > entry.region.len() {
            return Err(RdmaError::OutOfBounds);
        }
        if self.net.is_crashed(issuer, now) {
            return Err(RdmaError::IssuerUnavailable);
        }
        let target = entry.host;
        // Request hop (small), then response hop carrying `len` bytes.
        let req = match self.net.hop(&mut self.rng, issuer, target, 32, now) {
            HopOutcome::Delivered(d) => d,
            HopOutcome::Dropped => return Err(RdmaError::TargetUnavailable),
        };
        let sample_at = self.fifo_arrival(issuer, target, now + req);
        let entry = self.regions.get_mut(&region).expect("checked above");
        entry.region.sample_into(offset, out, sample_at);
        let resp = match self.net.hop(&mut self.rng, target, issuer, len, sample_at) {
            HopOutcome::Delivered(d) => d,
            HopOutcome::Dropped => return Err(RdmaError::TargetUnavailable),
        };
        Ok(sample_at + resp)
    }

    /// Reads a region that lives on the issuer's own host into `out`
    /// (`out.len()` bytes at `offset`): no network hops, no allocation, the
    /// bytes are sampled as they appear at `now`. This is how a receiver
    /// polls its RDMA-exposed circular buffer (§6.2) — local RAM access,
    /// with any CPU cost charged by the caller's cost model.
    ///
    /// # Errors
    ///
    /// Returns an [`RdmaError`] if the region is unknown, not local to
    /// `issuer`, out of bounds, or the host has crashed.
    pub fn local_read_into(
        &mut self,
        issuer: HostId,
        region: RegionId,
        offset: usize,
        out: &mut [u8],
        now: Time,
    ) -> Result<(), RdmaError> {
        let entry = self.regions.get_mut(&region).ok_or(RdmaError::UnknownRegion)?;
        if entry.host != issuer {
            return Err(RdmaError::PermissionDenied);
        }
        if offset + out.len() > entry.region.len() {
            return Err(RdmaError::OutOfBounds);
        }
        if self.net.is_crashed(issuer, now) {
            return Err(RdmaError::IssuerUnavailable);
        }
        entry.region.sample_into(offset, out, now);
        Ok(())
    }

    /// Test helper: the settled contents of a region (all writes applied).
    pub fn settled_region(&mut self, region: RegionId) -> Option<Vec<u8>> {
        self.regions.get_mut(&region).map(|e| e.region.settled())
    }
}

impl core::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Fabric")
            .field("regions", &self.regions.len())
            .field("hosts_with_memory", &self.bytes_per_host.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_sim::net::LatencyModel;

    fn fabric() -> Fabric {
        let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 4);
        Fabric::new(net, SimRng::new(42))
    }

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut f = fabric();
        let (r, tok) = f.create_region(HostId(1), 64);
        let w = f.write(HostId(0), tok, r, 0, &[0xAA; 64], t(0)).unwrap();
        assert!(w.arrival > t(0));
        assert!(w.completion > w.arrival);
        // Read well after the write settled.
        let rd = f.read(HostId(2), r, 0, 64, w.completion + Duration::from_micros(1)).unwrap();
        assert_eq!(rd.data, vec![0xAA; 64]);
        assert!(rd.completion > w.completion);
    }

    #[test]
    fn wrong_token_rejected() {
        let mut f = fabric();
        let (r, _tok) = f.create_region(HostId(1), 8);
        let (_r2, other_tok) = f.create_region(HostId(1), 8);
        assert_eq!(
            f.write(HostId(0), other_tok, r, 0, &[1], t(0)),
            Err(RdmaError::PermissionDenied)
        );
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut f = fabric();
        let (r, tok) = f.create_region(HostId(1), 8);
        assert_eq!(f.write(HostId(0), tok, r, 4, &[0; 8], t(0)), Err(RdmaError::OutOfBounds));
        assert_eq!(f.read(HostId(0), r, 0, 9, t(0)).unwrap_err(), RdmaError::OutOfBounds);
    }

    #[test]
    fn unknown_region_rejected() {
        let mut f = fabric();
        assert_eq!(
            f.read(HostId(0), RegionId(99), 0, 1, t(0)).unwrap_err(),
            RdmaError::UnknownRegion
        );
    }

    #[test]
    fn crashed_target_never_completes() {
        let mut f = fabric();
        let (r, tok) = f.create_region(HostId(1), 8);
        f.net_mut().crash_host(HostId(1), t(100));
        assert!(f.write(HostId(0), tok, r, 0, &[1; 8], t(50)).is_ok());
        assert_eq!(
            f.write(HostId(0), tok, r, 0, &[1; 8], t(100)),
            Err(RdmaError::TargetUnavailable)
        );
        assert_eq!(f.read(HostId(2), r, 0, 8, t(100)).unwrap_err(), RdmaError::TargetUnavailable);
    }

    #[test]
    fn crashed_issuer_cannot_issue() {
        let mut f = fabric();
        let (r, tok) = f.create_region(HostId(1), 8);
        f.net_mut().crash_host(HostId(0), t(10));
        assert_eq!(
            f.write(HostId(0), tok, r, 0, &[1; 8], t(10)),
            Err(RdmaError::IssuerUnavailable)
        );
    }

    #[test]
    fn same_pair_ops_arrive_fifo() {
        let mut f = fabric();
        let (r, tok) = f.create_region(HostId(1), 8);
        let mut prev = Time::ZERO;
        for i in 0..20 {
            let w = f.write(HostId(0), tok, r, 0, &[i as u8; 8], t(i)).unwrap();
            assert!(w.arrival > prev, "op {i} arrived out of order");
            prev = w.arrival;
        }
        // Last writer wins.
        assert_eq!(f.settled_region(r).unwrap(), vec![19u8; 8]);
    }

    #[test]
    fn concurrent_read_can_tear() {
        // A read arriving mid-write of a large buffer observes a torn mix.
        let mut f = fabric();
        let (r, tok) = f.create_region(HostId(1), 4096);
        let w = f.write(HostId(0), tok, r, 0, &[0x11; 4096], t(0)).unwrap();
        // Wait for first write to settle, then start a second write and read
        // during its application window.
        let start2 = w.completion + Duration::from_micros(5);
        let _w2 = f.write(HostId(0), tok, r, 0, &[0x22; 4096], start2).unwrap();
        // 4096 B at 80 ps/B ≈ 327 ns application window. A read issued at the
        // same instant from a distinct host arrives ~1 µs later, i.e. in the
        // vicinity of the window; either way the result must be consistent.
        let rd = f.read(HostId(2), r, 0, 4096, start2).unwrap();
        let saw_new = rd.data.contains(&0x22);
        let saw_old = rd.data.contains(&0x11);
        // Timing depends on latency sampling, so just require the read to be
        // *consistent with the model*: all-old, all-new, or a torn mix where
        // new data forms a prefix.
        if saw_new && saw_old {
            let first_old = rd.data.iter().position(|&b| b == 0x11).unwrap();
            assert!(rd.data[first_old..].iter().all(|&b| b == 0x11));
            assert!(rd.data[..first_old].iter().all(|&b| b == 0x22));
        }
    }

    #[test]
    fn host_byte_accounting() {
        let mut f = fabric();
        f.create_region(HostId(3), 100);
        f.create_region(HostId(3), 28);
        f.create_region(HostId(1), 7);
        assert_eq!(f.host_bytes(HostId(3)), 128);
        assert_eq!(f.host_bytes(HostId(1)), 7);
        assert_eq!(f.host_bytes(HostId(0)), 0);
    }
}
