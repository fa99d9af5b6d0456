//! Multi-group uBFT: `G` independent consensus groups sharing one RDMA
//! fabric and one set of passive memory nodes.
//!
//! This is the paper's deployment story scaled out: each group is a full
//! `2f + 1`-replica uBFT instance with bounded memory, so many groups fit
//! on one disaggregated memory pool, and the key space shards across them.
//! Clients route every request through a [`ShardRouter`] — FNV over the
//! KV key, round-robin for keyless payloads — so a key's whole history
//! lives in one group and cross-group coordination is never needed.
//!
//! Host-ID layout (see `ARCHITECTURE.md`): group `g` owns the contiguous
//! host block `[g·(n+c), (g+1)·(n+c))` (replicas then clients); the
//! `2f_m + 1` memory nodes take the final ids and are shared by every
//! group, their register space partitioned per group. With `shards = 1`
//! the layout, seeds, and event order are identical to
//! [`Cluster`](crate::cluster::Cluster) — bit-for-bit, which
//! `tests/sharding.rs` pins.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use ubft_apps::ShardRouter;
use ubft_core::app::App;
use ubft_types::{Time, View};

use crate::calibration::SimConfig;
use crate::cluster::RunReport;
use crate::group::Deployment;

/// Most requests the source keeps parked per group, on average: once the
/// total parked backlog reaches `PARK_CAP_PER_GROUP × G`, generation
/// pauses until consumers drain it, so a skewed key stream bounds memory
/// instead of growing a hot group's queue without limit.
const PARK_CAP_PER_GROUP: usize = 1024;

/// The shared request source: one global workload stream fanned out to
/// per-group closed-loop clients by key hash.
///
/// When a group's client goes idle it pulls the next request *destined for
/// that group*: first from the group's pending queue (requests generated
/// earlier that routed here), then by generating fresh requests — parking
/// any that route elsewhere on their owners' queues. Each generated
/// request gets the next index of the global stream as its `u64` argument
/// (monotone, never repeated), so a workload that is a pure function of
/// that index still yields distinct requests across routing retries.
/// Generation is bounded per call *and* by the total parked backlog
/// ([`PARK_CAP_PER_GROUP`]); a group that comes up empty retries shortly,
/// and parked requests are never lost.
struct RoutedSource {
    workload: Box<dyn FnMut(u64) -> Vec<u8>>,
    router: ShardRouter,
    pending: Vec<VecDeque<Vec<u8>>>,
    /// Requests generated so far (the `u64` stream index).
    issued: u64,
    /// Requests currently parked across all pending queues.
    parked: usize,
}

impl RoutedSource {
    fn new(workload: Box<dyn FnMut(u64) -> Vec<u8>>, groups: usize) -> Self {
        RoutedSource {
            workload,
            router: ShardRouter::new(groups),
            pending: (0..groups.max(1)).map(|_| VecDeque::new()).collect(),
            issued: 0,
            parked: 0,
        }
    }

    fn next_for(&mut self, g: usize) -> Option<Vec<u8>> {
        if let Some(p) = self.pending[g].pop_front() {
            self.parked -= 1;
            return Some(p);
        }
        if self.parked >= PARK_CAP_PER_GROUP * self.pending.len() {
            return None;
        }
        let bound = 64 * self.pending.len();
        for _ in 0..bound {
            let p = (self.workload)(self.issued);
            self.issued += 1;
            let tg = self.router.route(&p);
            if tg == g {
                return Some(p);
            }
            self.pending[tg].push_back(p);
            self.parked += 1;
        }
        None
    }
}

/// A sharded uBFT deployment: `cfg.shards` consensus groups over one
/// fabric, one event queue, and one set of shared memory nodes.
pub struct ShardedCluster {
    dep: Deployment,
}

impl ShardedCluster {
    /// Builds `cfg.shards` groups. `make_apps(g)` yields group `g`'s `n`
    /// application instances; `workload` is the single global request
    /// stream, routed per request by a [`ShardRouter`] over `cfg.shards`
    /// groups. The `u64` argument is the request's index in the globally
    /// generated stream — monotone and never repeated. (With one shard
    /// and one client this coincides with the completed-count hint
    /// [`Cluster::new`](crate::cluster::Cluster::new) passes; when
    /// multiple clients race it can differ, which the stock §7.1
    /// generators never observe because they derive requests from
    /// internal state.)
    pub fn new(
        cfg: SimConfig,
        mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App>>,
        workload: Box<dyn FnMut(u64) -> Vec<u8>>,
    ) -> Self {
        let shards = cfg.shards.max(1);
        let source = Rc::new(RefCell::new(RoutedSource::new(workload, shards)));
        let dep = Deployment::build(&cfg, &mut make_apps, |g| {
            let src = Rc::clone(&source);
            Box::new(move |_seq| src.borrow_mut().next_for(g))
        });
        ShardedCluster { dep }
    }

    /// Number of consensus groups.
    pub fn shards(&self) -> usize {
        self.dep.groups.len()
    }

    /// The application state digest of replica `r` of shard `g`.
    pub fn app_digest(&self, g: usize, r: usize) -> ubft_crypto::Digest {
        self.dep.groups[g].nodes[r].app.snapshot_digest()
    }

    /// The view replica `r` of shard `g` is in.
    pub fn view_of(&self, g: usize, r: usize) -> View {
        self.dep.groups[g].nodes[r].engine.view()
    }

    /// Individual requests replica `r` of shard `g` has decided.
    pub fn decided_of(&self, g: usize, r: usize) -> u64 {
        self.dep.groups[g].nodes[r].engine.decided_count()
    }

    /// Disaggregated bytes shard `g`'s register banks occupy on one
    /// memory node.
    pub fn shard_disagg_bytes_per_node(&self, g: usize) -> usize {
        self.dep.groups[g].disagg_bytes_per_node()
    }

    /// Total disaggregated bytes on one memory node across every shard's
    /// register banks (the nodes are shared, so the partitions add up).
    pub fn disagg_bytes_per_node(&self) -> usize {
        self.dep.groups.iter().map(|g| g.disagg_bytes_per_node()).sum()
    }

    /// Approximate replica-local resident bytes of replica `r` of shard `g`.
    pub fn replica_local_bytes(&self, g: usize, r: usize) -> usize {
        self.dep.groups[g].replica_local_bytes(r)
    }

    /// Per-replica protocol diagnostics, grouped by shard.
    pub fn diag_lines(&self) -> String {
        self.dep.diag_lines()
    }

    /// Runs `warmup + requests` *total* closed-loop requests across all
    /// shards and reports aggregate statistics, with the per-shard
    /// breakdown in [`RunReport::groups`]. The stall
    /// deadline derives from the request count and batch size
    /// ([`SimConfig::stall_deadline`]; the shard count deliberately does
    /// not tighten it — a fully key-skewed stream may legally route
    /// everything to one group).
    ///
    /// # Panics
    ///
    /// Panics if the deployment stops making progress before completing
    /// the requested number of operations.
    pub fn run(&mut self, requests: u64, warmup: u64) -> RunReport {
        self.dep.run(requests, warmup)
    }

    /// Drains in-flight work for `extra` more virtual time after a run, so
    /// lagging replicas — most notably freshly replaced ones — converge
    /// before post-run state assertions. No client issues once the run's
    /// target is met, a starved shard's idle ones included; a request
    /// still in flight is retransmitted, and counted if it completes.
    pub fn settle(&mut self, extra: ubft_types::Duration) {
        self.dep.settle(extra);
    }

    /// Bytes replica `r` of shard `g` retains in checkpoint snapshots for
    /// serving replacement-node state transfers.
    pub fn replica_snapshot_bytes(&self, g: usize, r: usize) -> usize {
        self.dep.groups[g].replica_snapshot_bytes(r)
    }

    /// The safety auditor's verdict over everything observed so far
    /// (`None` unless the run was configured with
    /// [`SimConfig::with_audit`]). Idempotent; call again after
    /// [`ShardedCluster::settle`] to audit the drained tail too.
    pub fn audit_report(&mut self) -> Option<crate::audit::AuditReport> {
        self.dep.audit_report()
    }

    /// Like [`ShardedCluster::run`] but gives up (without panicking) when
    /// virtual time exceeds `deadline`, so stalls are observable instead of
    /// fatal.
    pub fn run_until(&mut self, requests: u64, warmup: u64, deadline: Time) -> RunReport {
        self.dep.run_loop(requests, warmup, deadline);
        self.dep.report()
    }
}
