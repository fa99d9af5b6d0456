//! The memory a register lives in: the one-sided operations the SWMR
//! registers of `ubft-dmem` issue, on the simulated [`Fabric`](crate::Fabric) or on
//! passive memory in the process ([`InProcMemory`]).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use ubft_sim::HostId;
use ubft_types::Time;

use crate::fabric::{AccessToken, RdmaError, ReadPost, RegionId, WriteTicket};

/// Memory nodes exposing regions to one-sided writes and reads: the
/// simulated [`Fabric`](crate::Fabric), or [`InProcMemory`].
pub trait Memory {
    /// Registers a `size`-byte region on memory node `host`, returning its
    /// id and the unique write capability.
    fn create_region(&mut self, host: HostId, size: usize) -> (RegionId, AccessToken);

    /// Issues a one-sided WRITE of `data` into `region` at `offset`; the
    /// issuer keeps its buffer.
    ///
    /// # Errors
    ///
    /// Returns an [`RdmaError`] if the region is unknown, `token` is not
    /// its write capability, the bytes are out of its bounds, or a host is
    /// down. `TargetUnavailable` means the write will never complete.
    fn write(
        &mut self,
        issuer: HostId,
        token: AccessToken,
        region: RegionId,
        offset: usize,
        data: &[u8],
        now: Time,
    ) -> Result<WriteTicket, RdmaError>;

    /// Posts a one-sided READ of `len` bytes of `region` at `offset`; what
    /// it finds is sampled at its arrival ([`Memory::sample_into`]).
    ///
    /// # Errors
    ///
    /// Returns an [`RdmaError`] if the region is unknown, the bytes are out
    /// of its bounds, or a host is down. `TargetUnavailable` means the read
    /// will never complete.
    fn post_read(
        &mut self,
        issuer: HostId,
        region: RegionId,
        offset: usize,
        len: usize,
        now: Time,
    ) -> Result<ReadPost, RdmaError>;

    /// Copies `out.len()` bytes of `region` at `offset` as they are at `at`.
    ///
    /// # Errors
    ///
    /// Returns an [`RdmaError`] if the region is unknown or the bytes are
    /// out of its bounds.
    fn sample_into(
        &mut self,
        region: RegionId,
        offset: usize,
        out: &mut [u8],
        at: Time,
    ) -> Result<(), RdmaError>;

    /// Whether `host` is down at `at`.
    fn is_crashed(&self, host: HostId, at: Time) -> bool;
}

/// Passive memory in the process, which a clone shares, across threads too:
/// one zeroed byte arena per memory node behind a lock, a region being an
/// offset range in it. A write copies its bytes under the node's lock and
/// a read's sample copies them out under it, so nothing tears. Both
/// complete at the time they are given, and no host is ever down. Memory
/// node `i` is `HostId(i)`; the issuer of an operation is not looked at.
/// Making a region only reserves its range: the arena grows to cover
/// every range reserved on its node at the first operation that needs it.
#[derive(Clone, Debug)]
pub struct InProcMemory {
    nodes: Arc<[Node]>,
}

/// One memory node.
#[derive(Debug, Default)]
struct Node {
    /// Bytes reserved for regions so far. `Relaxed` is enough: a region's
    /// id reaches the thread that uses it only through something that
    /// orders the region's creation before the use (a spawn, a channel),
    /// and coherence then shows that thread this reservation or a later
    /// one.
    reserved: AtomicUsize,
    arena: Mutex<Vec<u8>>,
}

/// A region's id holds where it is: its node in the top 8 bits, its
/// length in the next 16 and its offset in the low 40.
const LEN_SHIFT: u32 = 40;
const NODE_SHIFT: u32 = 56;

impl InProcMemory {
    /// `nodes` memory nodes, holding no region.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes <= 1 << (64 - NODE_SHIFT), "{nodes} memory nodes");
        InProcMemory { nodes: (0..nodes).map(|_| Node::default()).collect() }
    }

    /// The arena of the node holding `region`, locked and covering it, and
    /// `len` bytes of the region at `offset` as a range of the arena.
    fn bytes(
        &self,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> Result<(MutexGuard<'_, Vec<u8>>, Range<usize>), RdmaError> {
        let node = self.nodes.get((region.0 >> NODE_SHIFT) as usize);
        let node = node.ok_or(RdmaError::UnknownRegion)?;
        let start = (region.0 & ((1 << LEN_SHIFT) - 1)) as usize;
        let size = (region.0 >> LEN_SHIFT & 0xFFFF) as usize;
        if start + size > node.reserved.load(Ordering::Relaxed) {
            return Err(RdmaError::UnknownRegion);
        }
        if offset + len > size {
            return Err(RdmaError::OutOfBounds);
        }
        let mut arena = node.arena.lock().expect("a thread panicked holding a memory node");
        if arena.len() < start + size {
            arena.resize(node.reserved.load(Ordering::Relaxed), 0);
        }
        Ok((arena, start + offset..start + offset + len))
    }
}

impl Memory for &InProcMemory {
    fn create_region(&mut self, host: HostId, size: usize) -> (RegionId, AccessToken) {
        assert!(size <= 0xFFFF, "a {size}-byte region");
        let start = self.nodes[host.0 as usize].reserved.fetch_add(size, Ordering::Relaxed);
        assert!(start + size < 1 << LEN_SHIFT, "memory node {} is full", host.0);
        let id = u64::from(host.0) << NODE_SHIFT | (size as u64) << LEN_SHIFT | start as u64;
        (RegionId(id), AccessToken(id))
    }

    fn write(
        &mut self,
        _issuer: HostId,
        token: AccessToken,
        region: RegionId,
        offset: usize,
        data: &[u8],
        now: Time,
    ) -> Result<WriteTicket, RdmaError> {
        let (mut arena, range) = self.bytes(region, offset, data.len())?;
        if token.0 != region.0 {
            return Err(RdmaError::PermissionDenied);
        }
        arena[range].copy_from_slice(data);
        Ok(WriteTicket { arrival: now, completion: now })
    }

    fn post_read(
        &mut self,
        _issuer: HostId,
        region: RegionId,
        offset: usize,
        len: usize,
        now: Time,
    ) -> Result<ReadPost, RdmaError> {
        drop(self.bytes(region, offset, len)?);
        Ok(ReadPost { arrival: now, completion: now })
    }

    fn sample_into(
        &mut self,
        region: RegionId,
        offset: usize,
        out: &mut [u8],
        _at: Time,
    ) -> Result<(), RdmaError> {
        let (arena, range) = self.bytes(region, offset, out.len())?;
        out.copy_from_slice(&arena[range]);
        Ok(())
    }

    fn is_crashed(&self, _host: HostId, _at: Time) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regions on two nodes: what a write puts in one region reads back
    /// from it at once, and from no other; a foreign token, a range past
    /// the region and an unknown region are refused as on the fabric.
    #[test]
    fn in_process_regions_are_disjoint_ranges_of_their_nodes() {
        let mem = InProcMemory::new(2);
        let mut m = &mem;
        let (a, tok_a) = m.create_region(HostId(0), 8);
        let (b, _) = m.create_region(HostId(0), 8);
        let (c, _) = m.create_region(HostId(1), 8);
        let w = m.write(HostId(9), tok_a, a, 4, &[7; 4], Time::from_nanos(5)).unwrap();
        assert_eq!((w.arrival, w.completion), (Time::from_nanos(5), Time::from_nanos(5)));
        let mut out = [1u8; 8];
        for (region, expect) in [(a, [0, 0, 0, 0, 7, 7, 7, 7]), (b, [0; 8]), (c, [0; 8])] {
            let post = m.post_read(HostId(9), region, 0, 8, Time::ZERO).unwrap();
            m.sample_into(region, 0, &mut out, post.arrival).unwrap();
            assert_eq!(out, expect);
        }
        assert_eq!(
            m.write(HostId(9), tok_a, b, 0, &[1], Time::ZERO),
            Err(RdmaError::PermissionDenied)
        );
        assert_eq!(
            m.write(HostId(9), tok_a, a, 4, &[0; 5], Time::ZERO),
            Err(RdmaError::OutOfBounds)
        );
        // On a node that does not exist, and past what node 0 reserved.
        for region in [RegionId(2 << NODE_SHIFT | 8 << LEN_SHIFT), RegionId(8 << LEN_SHIFT | 16)] {
            let post = m.post_read(HostId(9), region, 0, 1, Time::ZERO);
            assert_eq!(post, Err(RdmaError::UnknownRegion));
            let sample = m.sample_into(region, 0, &mut out, Time::ZERO);
            assert_eq!(sample, Err(RdmaError::UnknownRegion));
        }
        assert!(!m.is_crashed(HostId(0), Time::MAX));
    }
}
