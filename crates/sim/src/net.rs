//! Network latency modelling between simulated hosts.
//!
//! Calibrated to the paper's testbed (Table 1: ConnectX-6 NICs, one EDR
//! 100 Gbps switch): a one-way message or one-sided RDMA op costs
//! `base + size/bandwidth + jitter`. Eventual synchrony (§2.4) is modelled
//! with an *asynchronous phase*: before the Global Stabilization Time every
//! hop may suffer a large random extra delay; after GST all delays respect
//! the bound `δ`.

use ubft_types::{Duration, Time};

use crate::rng::SimRng;

/// Identifier of a physical host in the fabric (replica, client, or memory
/// node — the runtime assigns the mapping).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl core::fmt::Display for HostId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Per-hop latency model: `base + bytes * per_byte + U(0, jitter)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-hop cost (NIC + switch + propagation).
    pub base: Duration,
    /// Serialization cost in picoseconds per byte (100 Gbps = 80 ps/byte).
    pub picos_per_byte: u64,
    /// Upper bound of the uniform jitter term.
    pub jitter: Duration,
}

impl LatencyModel {
    /// The calibrated testbed model: 850 ns base + 100 Gbps wire + 200 ns
    /// jitter (`crates/runtime/src/calibration.rs`; EXPERIMENTS.md,
    /// "Calibration").
    pub fn paper_testbed() -> Self {
        LatencyModel {
            base: Duration::from_nanos(850),
            picos_per_byte: 80,
            jitter: Duration::from_nanos(200),
        }
    }

    /// A zero-latency model for logic-only unit tests.
    pub fn instant() -> Self {
        LatencyModel { base: Duration::ZERO, picos_per_byte: 0, jitter: Duration::ZERO }
    }

    /// Samples the one-way delay for a payload of `bytes`.
    pub fn sample(&self, rng: &mut SimRng, bytes: usize) -> Duration {
        let wire = Duration::from_nanos((bytes as u64 * self.picos_per_byte) / 1000);
        self.base + wire + rng.jitter(self.jitter)
    }

    /// The deterministic worst-case delay for `bytes` (used for `δ` checks).
    pub fn worst_case(&self, bytes: usize) -> Duration {
        let wire = Duration::from_nanos((bytes as u64 * self.picos_per_byte) / 1000);
        self.base + wire + self.jitter
    }
}

/// Cluster-wide network model: per-hop latency, GST, partitions, and host
/// crashes.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    latency: LatencyModel,
    /// Global stabilization time; before it, hops suffer `async_extra`.
    gst: Time,
    /// Maximum extra delay injected per hop before GST.
    async_extra: Duration,
    /// Severed host pairs: messages between them are dropped entirely while
    /// the partition interval is active.
    partitions: Vec<Partition>,
    /// Crash times per host (index = HostId.0). `Time::MAX` = never.
    crash_at: Vec<Time>,
}

#[derive(Clone, Debug)]
struct Partition {
    a: HostId,
    b: HostId,
    from: Time,
    until: Time,
}

/// The outcome of attempting a network hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HopOutcome {
    /// Delivered after the contained one-way delay.
    Delivered(Duration),
    /// Dropped (partition or crashed endpoint).
    Dropped,
}

impl NetworkModel {
    /// A fully synchronous network (GST = 0) with the given latency model
    /// and `n_hosts` hosts, none of which ever crash.
    pub fn synchronous(latency: LatencyModel, n_hosts: usize) -> Self {
        NetworkModel {
            latency,
            gst: Time::ZERO,
            async_extra: Duration::ZERO,
            partitions: Vec::new(),
            crash_at: vec![Time::MAX; n_hosts],
        }
    }

    /// Sets the Global Stabilization Time and the pre-GST extra delay bound.
    #[must_use]
    pub fn with_gst(mut self, gst: Time, async_extra: Duration) -> Self {
        self.gst = gst;
        self.async_extra = async_extra;
        self
    }

    /// Schedules a bidirectional partition between `a` and `b` during
    /// `[from, until)`.
    pub fn add_partition(&mut self, a: HostId, b: HostId, from: Time, until: Time) {
        self.partitions.push(Partition { a, b, from, until });
    }

    /// Schedules a crash of `host` at `t`.
    pub fn crash_host(&mut self, host: HostId, t: Time) {
        self.crash_at[host.0 as usize] = t;
    }

    /// Whether `host` has crashed by time `t`.
    pub fn is_crashed(&self, host: HostId, t: Time) -> bool {
        self.crash_at.get(host.0 as usize).is_some_and(|&c| t >= c)
    }

    /// The latency model in force.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Samples the outcome of sending `bytes` from `src` to `dst` at `now`.
    pub fn hop(
        &self,
        rng: &mut SimRng,
        src: HostId,
        dst: HostId,
        bytes: usize,
        now: Time,
    ) -> HopOutcome {
        if self.is_crashed(src, now) || self.is_crashed(dst, now) {
            return HopOutcome::Dropped;
        }
        for p in &self.partitions {
            let cut = (p.a == src && p.b == dst) || (p.a == dst && p.b == src);
            if cut && now >= p.from && now < p.until {
                return HopOutcome::Dropped;
            }
        }
        let mut d = self.latency.sample(rng, bytes);
        if now < self.gst && self.async_extra > Duration::ZERO {
            d += rng.jitter(self.async_extra);
        }
        HopOutcome::Delivered(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(77)
    }

    #[test]
    fn latency_scales_with_size() {
        let m = LatencyModel::paper_testbed();
        let mut r = rng();
        let small = m.sample(&mut r, 32);
        let big = m.sample(&mut r, 64 * 1024);
        assert!(big > small);
        // 64 KiB at 80 ps/B ≈ 5.2 µs of wire time.
        assert!(big.as_nanos() > 5_000);
    }

    #[test]
    fn worst_case_dominates_samples() {
        let m = LatencyModel::paper_testbed();
        let mut r = rng();
        for _ in 0..1000 {
            assert!(m.sample(&mut r, 256) <= m.worst_case(256));
        }
    }

    #[test]
    fn instant_model_is_zero() {
        let m = LatencyModel::instant();
        assert_eq!(m.sample(&mut rng(), 1 << 20), Duration::ZERO);
    }

    #[test]
    fn partition_drops_both_directions() {
        let mut net = NetworkModel::synchronous(LatencyModel::instant(), 3);
        let t0 = Time::ZERO;
        let t5 = Time::from_nanos(5_000);
        net.add_partition(HostId(0), HostId(1), t0, t5);
        let mut r = rng();
        assert_eq!(net.hop(&mut r, HostId(0), HostId(1), 8, t0), HopOutcome::Dropped);
        assert_eq!(net.hop(&mut r, HostId(1), HostId(0), 8, t0), HopOutcome::Dropped);
        // Unrelated pair unaffected.
        assert!(matches!(net.hop(&mut r, HostId(0), HostId(2), 8, t0), HopOutcome::Delivered(_)));
        // Partition heals.
        assert!(matches!(net.hop(&mut r, HostId(0), HostId(1), 8, t5), HopOutcome::Delivered(_)));
    }

    #[test]
    fn crashed_hosts_drop_traffic() {
        let mut net = NetworkModel::synchronous(LatencyModel::instant(), 2);
        net.crash_host(HostId(1), Time::from_nanos(100));
        let mut r = rng();
        assert!(matches!(
            net.hop(&mut r, HostId(0), HostId(1), 8, Time::from_nanos(99)),
            HopOutcome::Delivered(_)
        ));
        assert_eq!(
            net.hop(&mut r, HostId(0), HostId(1), 8, Time::from_nanos(100)),
            HopOutcome::Dropped
        );
        assert!(net.is_crashed(HostId(1), Time::from_nanos(100)));
        assert!(!net.is_crashed(HostId(0), Time::from_nanos(100)));
    }

    #[test]
    fn pre_gst_adds_delay() {
        let lat = LatencyModel::instant();
        let net = NetworkModel::synchronous(lat, 2)
            .with_gst(Time::from_nanos(1_000_000), Duration::from_micros(500));
        let mut r = rng();
        let mut saw_extra = false;
        for _ in 0..100 {
            if let HopOutcome::Delivered(d) = net.hop(&mut r, HostId(0), HostId(1), 8, Time::ZERO) {
                if d > Duration::from_micros(1) {
                    saw_extra = true;
                }
            }
        }
        assert!(saw_extra, "pre-GST hops should sometimes be slow");
        // Post-GST: instant again.
        if let HopOutcome::Delivered(d) =
            net.hop(&mut r, HostId(0), HostId(1), 8, Time::from_nanos(1_000_000))
        {
            assert_eq!(d, Duration::ZERO);
        }
    }
}
