//! The simulation runtime: wires the sans-IO protocol state machines onto
//! the simulated RDMA fabric, charges calibrated virtual-time costs, and
//! drives closed-loop clients to produce the paper's latency distributions.
//!
//! * [`cluster::Cluster`] — a full single-group uBFT deployment: `2f + 1`
//!   replica engines with per-stream CTBcast instances, TBcast lanes over
//!   circular-buffer channels, SWMR register banks on `2f_m + 1` memory
//!   nodes, a crypto-pool model, timers, and closed-loop clients. A thin
//!   facade over the private `node` (a replica's protocol stack and its one
//!   driver), `client_loop` (a group's closed-loop clients) and `group`
//!   (the simulator's `Substrate` and `ClientPort` for the two) modules.
//! * [`sharded::ShardedCluster`] — `G` such groups sharing one fabric,
//!   one event queue, and one set of memory nodes, with requests routed
//!   per key by [`ubft_apps::ShardRouter`].
//! * [`threads`] — the same `node` driver on OS threads
//!   ([`Backend::Threads`]): wall-clock time instead of virtual time.
//! * [`baselines`] — the comparison systems measured the same way:
//!   unreplicated execution, Mu, and MinBFT (vanilla + HMAC).
//! * [`calibration`] — every latency/cost constant in one place (simulated
//!   Table 1), plus the shard/batch knobs.
//! * [`memory`] — replica-local and disaggregated memory accounting
//!   (Table 2), with per-shard breakdowns.

pub mod audit;
pub mod baselines;
pub mod calibration;
pub mod cluster;
pub mod memory;
pub mod sharded;
pub mod threads;

mod client_loop;
mod group;
mod node;

pub use audit::{AuditMutation, AuditReport, AuditViolation, Auditor, ViolationKind};
pub use calibration::{Backend, SimConfig};
pub use cluster::{Cluster, GroupReport, OpCounters, ReplicaReport, RunReport};
pub use sharded::ShardedCluster;
pub use threads::{run_backend, run_wallclock, ThreadWorkload, WallOptions};

#[cfg(test)]
mod fake;
