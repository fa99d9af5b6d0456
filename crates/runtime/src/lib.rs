//! The simulation runtime: wires the sans-IO protocol state machines onto
//! the simulated RDMA fabric, charges calibrated virtual-time costs, and
//! drives closed-loop clients to produce the paper's latency distributions.
//!
//! * [`cluster::Cluster`] — a full simulated uBFT deployment: one or more
//!   groups of `2f + 1` replica engines with per-stream CTBcast instances,
//!   TBcast lanes over circular-buffer channels, SWMR register banks on
//!   `2f_m + 1` shared memory nodes, a crypto-pool model, timers, and
//!   closed-loop clients, over one fabric and one event queue, with
//!   requests routed per key by [`ubft_apps::ShardRouter`] when there are
//!   several groups. Built on the private `node` (a replica's protocol
//!   stack and its one driver), `exec` (a replica's execution core: its
//!   application and last-reply table), `client_loop` (a group's
//!   closed-loop clients) and `group` (one group's simulator `Substrate`,
//!   `ExecPort` and `ClientPort` for the three) modules.
//! * [`threads`] — the same `node` driver on OS threads
//!   ([`Backend::Threads`]): wall-clock time instead of virtual time.
//! * [`baselines`] — the comparison systems measured the same way:
//!   unreplicated execution, Mu, and MinBFT (vanilla + HMAC).
//! * [`calibration`] — every latency/cost constant and protocol timeout in
//!   one place (simulated Table 1), plus the shard/batch knobs.
//! * [`audit`] — the omniscient safety auditor and its progress verdict;
//!   [`stall`] — why a run stalled, each group classified by the
//!   catalogued liveness corners.
//! * [`harness`] — the same `node` event loop on a scripted net
//!   ([`harness::NodeNet`]), every step a move a test picks by index.

pub mod audit;
pub mod baselines;
pub mod calibration;
pub mod cluster;
pub mod harness;
pub mod stall;
pub mod threads;

mod client_loop;
mod exec;
mod group;
mod node;

pub use audit::{AuditMutation, AuditReport, AuditViolation, Auditor, ViolationKind};
pub use calibration::{Backend, SimConfig};
pub use cluster::{
    Cluster, CoreTime, GroupReport, OpCounters, ReplicaReport, RunReport, TimerInputs,
};
pub use threads::{run_backend, run_wallclock, ThreadWorkload, WallOptions};

/// The event loop's tests on [`harness::NodeNet`], and the client loop's on a
/// scripted port. The module keeps the name of the test-only net they ran
/// on before `NodeNet`, so the suite names each test as it did then.
#[cfg(test)]
#[path = "harness/tests.rs"]
mod fake;
