//! Memory accounting for Table 2, now shard-aware.

use crate::cluster::Cluster;

/// A Table 2 row: memory consumption for one configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemoryReport {
    /// Replica-local resident bytes (channel buffers, mirrors, staging, TB
    /// retransmission buffers, CTBcast bookkeeping) of the measured leader.
    pub replica_local_bytes: usize,
    /// Total disaggregated bytes on one memory node: the sum over every
    /// group's register banks (the memory nodes are shared; each group owns
    /// a partition of their space).
    pub disagg_bytes_per_node: usize,
    /// The per-group breakdown of [`MemoryReport::disagg_bytes_per_node`].
    /// A single-group cluster reports one entry.
    pub disagg_bytes_per_shard: Vec<usize>,
    /// Bytes the measured replica retains in checkpoint snapshots for
    /// serving certified state transfers (replacement nodes, and replicas
    /// that lagged a whole window behind a partition or asynchrony). Zero
    /// unless the fault plan schedules faults — supporting recovery is
    /// free until it could be exercised, and even then the history is
    /// bounded (a handful of checkpoints), keeping the paper's
    /// bounded-memory story intact.
    pub replica_snapshot_bytes: usize,
}

impl MemoryReport {
    /// Measures `cluster`: replica 0 (group 0's leader; every group is
    /// symmetric by construction) for the replica-local figures, every
    /// group's register banks for the disaggregated ones.
    pub fn measure(cluster: &Cluster) -> Self {
        MemoryReport {
            replica_local_bytes: cluster.replica_local_bytes(0),
            disagg_bytes_per_node: cluster.disagg_bytes_per_node(),
            disagg_bytes_per_shard: cluster
                .groups
                .iter()
                .map(|g| g.disagg_bytes_per_node())
                .collect(),
            replica_snapshot_bytes: cluster.replica_snapshot_bytes(0),
        }
    }
}
