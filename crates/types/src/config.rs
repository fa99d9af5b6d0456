//! Cluster-level parameters shared by every protocol layer.

use crate::ids::{MemNodeId, ReplicaId};
use crate::time::Duration;

/// Static configuration of a uBFT deployment (the paper's model, §2.4).
///
/// A deployment has `2f + 1` compute replicas of which up to `f` may be
/// Byzantine, and `2f_m + 1` passive memory nodes of which up to `f_m` may
/// crash. `tail` is CTBcast's `t` parameter and `window` is the consensus
/// checkpoint interval (the paper uses `t = 128`, `window = 256`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterParams {
    /// Maximum number of Byzantine compute replicas tolerated.
    pub f: usize,
    /// Maximum number of crashed memory nodes tolerated.
    pub f_m: usize,
    /// CTBcast tail parameter `t`: only the last `t` broadcasts are
    /// guaranteed to be delivered.
    pub tail: usize,
    /// Consensus checkpoint interval: a checkpoint is taken every `window`
    /// executed slots, and slots `[base, base + 2·window)` past the last
    /// stable one are open — the leader fills the second window while the
    /// checkpoint between the two certifies, so at most two windows of
    /// slot state are ever held.
    pub window: usize,
    /// Known post-GST communication bound `δ`, used by the SWMR register
    /// write cooldown and read-retry logic.
    pub delta: Duration,
    /// Largest request payload the transport must accommodate, in bytes.
    /// Circular-buffer slots are sized from this.
    pub max_request_bytes: usize,
}

impl ClusterParams {
    /// The paper's default configuration: `f = 1` (3 replicas), `f_m = 1`
    /// (3 memory nodes), `t = 128`, window 256, `δ = 10 µs`, 2 KiB requests.
    pub fn paper_default() -> Self {
        ClusterParams {
            f: 1,
            f_m: 1,
            tail: 128,
            window: 256,
            delta: Duration::from_micros(10),
            max_request_bytes: 2048,
        }
    }

    /// Number of compute replicas (`2f + 1`).
    pub fn n(&self) -> usize {
        2 * self.f + 1
    }

    /// Number of memory nodes (`2f_m + 1`).
    pub fn n_mem(&self) -> usize {
        2 * self.f_m + 1
    }

    /// Size of a replica quorum (`f + 1`): enough to include one correct
    /// replica and to survive a view change.
    pub fn quorum(&self) -> usize {
        self.f + 1
    }

    /// Iterator over all replica ids.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> {
        (0..self.n() as u32).map(ReplicaId)
    }

    /// Iterator over all memory-node ids.
    pub fn mem_nodes(&self) -> impl Iterator<Item = MemNodeId> {
        (0..self.n_mem() as u32).map(MemNodeId)
    }

    /// Returns a copy with a different CTBcast tail (builder-style helper for
    /// the Figure 11 / Table 2 sweeps).
    #[must_use]
    pub fn with_tail(mut self, tail: usize) -> Self {
        assert!(tail >= 2, "tail must be at least 2 (double buffering)");
        self.tail = tail;
        self
    }

    /// Returns a copy with a different consensus window (smaller windows
    /// checkpoint more often, which is what bounds how far a replacement
    /// node must catch up by replay).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one open slot");
        self.window = window;
        self
    }

    /// Returns a copy with a different maximum request size.
    #[must_use]
    pub fn with_max_request_bytes(mut self, bytes: usize) -> Self {
        self.max_request_bytes = bytes;
        self
    }

    /// Returns a copy tolerating `f` Byzantine replicas.
    #[must_use]
    pub fn with_f(mut self, f: usize) -> Self {
        self.f = f;
        self
    }

    /// Returns a copy tolerating `f_m` crashed memory nodes (the register
    /// replication-factor ablation: `f_m = 0` means a single, unreplicated
    /// memory node).
    #[must_use]
    pub fn with_f_m(mut self, f_m: usize) -> Self {
        self.f_m = f_m;
        self
    }
}

impl Default for ClusterParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = ClusterParams::paper_default();
        assert_eq!(p.n(), 3);
        assert_eq!(p.n_mem(), 3);
        assert_eq!(p.quorum(), 2);
        assert_eq!(p.tail, 128);
        assert_eq!(p.window, 256);
    }

    #[test]
    fn replica_iteration() {
        let p = ClusterParams::paper_default().with_f(2);
        let rs: Vec<_> = p.replicas().collect();
        assert_eq!(rs.len(), 5);
        assert_eq!(rs[0], ReplicaId(0));
        assert_eq!(rs[4], ReplicaId(4));
        assert_eq!(p.mem_nodes().count(), 3);
    }

    #[test]
    fn builders() {
        let p = ClusterParams::paper_default().with_tail(16).with_max_request_bytes(64);
        assert_eq!(p.tail, 16);
        assert_eq!(p.max_request_bytes, 64);
    }

    #[test]
    #[should_panic(expected = "tail must be at least 2")]
    fn tiny_tail_rejected() {
        let _ = ClusterParams::paper_default().with_tail(1);
    }
}
