//! A complete simulated uBFT deployment with a single consensus group.
//!
//! Topology: hosts `0..n` are replicas, `n..n+c` are clients, and the last
//! `2f_m + 1` hosts are passive memory nodes. Every protocol byte flows
//! through the circular-buffer channels of `ubft-transport` (which live in
//! fabric memory), every slow-path register access goes through
//! `ubft-dmem`, and all CPU/crypto time is charged against per-replica
//! busy-until cursors using the calibrated [`CostModel`](ubft_sim::cost::CostModel).
//!
//! [`Cluster`] is a thin facade: a replica's protocol stack and its driver
//! are the private `node::ReplicaNode`, and the event loop, lanes, costs
//! and clients live in the private `group::GroupRuntime` — the same machinery
//! that [`ShardedCluster`](crate::sharded::ShardedCluster) instantiates
//! `G` times over one shared fabric.

use ubft_core::app::App;
use ubft_crypto::Digest;
use ubft_sim::stats::LatencyStats;
use ubft_types::{ClientId, Time, View};

use crate::audit::AuditReport;
use crate::calibration::{Backend, SimConfig};
use crate::group::Deployment;
use crate::node::ReplicaNode;

/// Counts of primitive operations during a run (drives the Figure 9
/// breakdown and sanity assertions like "the fast path signs nothing").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Messages on client request/response lanes.
    pub rpc_msgs: u64,
    /// Messages on CTBcast TB lanes.
    pub ctb_msgs: u64,
    /// Messages on the consensus TB lane.
    pub cons_msgs: u64,
    /// Messages on direct lanes.
    pub direct_msgs: u64,
    /// Signatures issued by CTBcast.
    pub ctb_signs: u64,
    /// Verifications issued by CTBcast.
    pub ctb_verifies: u64,
    /// Signatures issued by the consensus engine.
    pub engine_signs: u64,
    /// Verifications issued by the consensus engine.
    pub engine_verifies: u64,
    /// SWMR register writes.
    pub reg_writes: u64,
    /// SWMR register quorum reads.
    pub reg_reads: u64,
}

impl OpCounters {
    /// Adds every counter of `other` into `self` (aggregating shards).
    pub fn merge(&mut self, other: &OpCounters) {
        self.rpc_msgs += other.rpc_msgs;
        self.ctb_msgs += other.ctb_msgs;
        self.cons_msgs += other.cons_msgs;
        self.direct_msgs += other.direct_msgs;
        self.ctb_signs += other.ctb_signs;
        self.ctb_verifies += other.ctb_verifies;
        self.engine_signs += other.engine_signs;
        self.engine_verifies += other.engine_verifies;
        self.reg_writes += other.reg_writes;
        self.reg_reads += other.reg_reads;
    }
}

/// One replica's end-of-run state.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// Individual requests decided (batch contents counted).
    pub decided: u64,
    /// Application state digest when the report was taken.
    pub app_digest: Digest,
    /// Every non-noop request executed since the previous report, in
    /// execution order — compared between the backends by the
    /// backend-equivalence suite.
    pub executed: Vec<(ClientId, u64)>,
    /// The view the replica ended in (0 = no view change ever fired).
    pub final_view: u64,
    /// Certified state transfers the engine requested that found no
    /// snapshot to restore (the threaded backend keeps none, so there
    /// nonzero means the run was overloaded enough for a replica to fall a
    /// whole window behind).
    pub transfer_misses: u64,
    /// Peers this replica branded Byzantine: (culprit, why).
    pub branded: Vec<(u32, String)>,
}

impl ReplicaReport {
    /// What `node` has to report; takes its execution log.
    pub(crate) fn of<A: App + ?Sized>(node: &mut ReplicaNode<A>) -> Self {
        ReplicaReport {
            decided: node.engine.decided_count(),
            app_digest: node.app.snapshot_digest(),
            executed: std::mem::take(&mut node.exec_log),
            final_view: node.engine.view().0,
            transfer_misses: node.transfer_misses,
            branded: node.branded.clone(),
        }
    }
}

/// One consensus group's share of a run.
#[derive(Clone, Debug, Default)]
pub struct GroupReport {
    /// Completions this group's clients contributed (including warmup).
    pub completed: u64,
    /// Latency samples of this group's measured completions.
    pub latency: LatencyStats,
    /// Primitive operation counts (all zero on [`Backend::Threads`], which
    /// meters nothing).
    pub counters: OpCounters,
    /// Final view of each replica: `replicas[r].final_view` as a [`View`],
    /// under the name `bench/` reads ([`RunReport`]'s constructor fills it
    /// in).
    pub views: Vec<View>,
    /// The deployment's audit verdict restricted to this group's
    /// violations ([`AuditReport::for_group`]).
    pub audit: Option<AuditReport>,
    /// Per-replica state, in replica order.
    pub replicas: Vec<ReplicaReport>,
}

/// The outcome of a run, on either backend.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Requests completed across all groups (including warmup).
    pub completed: u64,
    /// Per-request end-to-end latency samples (post-warmup), pooled across
    /// groups: virtual time on [`Backend::Sim`], wall time on
    /// [`Backend::Threads`].
    pub latency: LatencyStats,
    /// Primitive operation counts, summed across groups.
    pub counters: OpCounters,
    /// When the run ended, on the clock `latency` is measured on: virtual
    /// time in the simulator, wall time since launch on threads.
    pub end: Time,
    /// `end` since [`Time::ZERO`], as the host's duration type.
    pub elapsed: std::time::Duration,
    /// Final view of each replica, every group's in group order.
    pub views: Vec<View>,
    /// The safety auditor's verdict, when the run was configured with
    /// [`SimConfig::with_audit`]; `None` otherwise. Violations are data,
    /// not panics — tests assert `is_clean()`, the chaos explorer shrinks.
    pub audit: Option<AuditReport>,
    /// Which backend produced this report.
    pub backend: Backend,
    /// Per-group breakdown; with one group it repeats the fields above.
    pub groups: Vec<GroupReport>,
}

impl RunReport {
    /// The whole-deployment report over `groups`, whose `views` it derives:
    /// completions and counters summed, views concatenated, each group's
    /// samples copied once.
    pub(crate) fn of_groups(
        mut groups: Vec<GroupReport>,
        end: Time,
        audit: Option<AuditReport>,
        backend: Backend,
    ) -> Self {
        let mut latency = LatencyStats::new();
        let mut counters = OpCounters::default();
        let mut views = Vec::new();
        for g in &mut groups {
            g.views = g.replicas.iter().map(|r| View(r.final_view)).collect();
            latency.absorb(g.latency.clone());
            counters.merge(&g.counters);
            views.extend(&g.views);
        }
        RunReport {
            completed: groups.iter().map(|g| g.completed).sum(),
            latency,
            counters,
            end,
            elapsed: std::time::Duration::from_nanos(end.as_nanos()),
            views,
            audit,
            backend,
            groups,
        }
    }

    /// Throughput in thousands of requests per second over `elapsed`.
    pub fn kreq_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs / 1_000.0
    }
}

/// A full single-group uBFT cluster simulation.
pub struct Cluster {
    dep: Deployment,
}

impl Cluster {
    /// Builds a cluster with one application instance per replica and one
    /// closed-loop client driving `workload`.
    pub fn new(
        cfg: SimConfig,
        apps: Vec<Box<dyn App>>,
        workload: Box<dyn FnMut(u64) -> Vec<u8>>,
    ) -> Self {
        let mut cfg = cfg;
        cfg.shards = 1;
        let mut apps = Some(apps);
        let mut workload = Some(workload);
        let dep = Deployment::build(
            &cfg,
            |_| apps.take().expect("single group"),
            |_| {
                let mut wl = workload.take().expect("single group");
                Box::new(move |seq| Some(wl(seq)))
            },
        );
        Cluster { dep }
    }

    /// The application state digest of replica `r` (safety assertions in
    /// tests: correct replicas that executed the same prefix must agree).
    pub fn app_digest(&self, r: usize) -> Digest {
        self.dep.groups[0].nodes[r].app.snapshot_digest()
    }

    /// First slot replica `r` has not executed.
    pub fn exec_next(&self, r: usize) -> ubft_types::Slot {
        self.dep.groups[0].nodes[r].engine.exec_next()
    }

    /// The view replica `r` is in.
    pub fn view_of(&self, r: usize) -> View {
        self.dep.groups[0].nodes[r].engine.view()
    }

    /// Individual requests replica `r` has decided (batches count their
    /// contents, so this is comparable across batch sizes).
    pub fn decided_of(&self, r: usize) -> u64 {
        self.dep.groups[0].nodes[r].engine.decided_count()
    }

    /// Resident entries in replica `r`'s request-dedup table. Unbounded
    /// runs grow one entry per client; runs with
    /// [`SimConfig::with_client_cache_cap`] stay at the (floored) cap —
    /// tests use this to prove eviction actually occurred.
    pub fn dedup_entries(&self, r: usize) -> usize {
        self.dep.groups[0].nodes[r].engine.exec_table().len()
    }

    /// Total disaggregated-memory bytes occupied on one memory node by the
    /// register banks (Table 2). Every memory node holds a full copy of
    /// every register, so this is independent of the replication factor.
    pub fn disagg_bytes_per_node(&self) -> usize {
        self.dep.groups[0].disagg_bytes_per_node()
    }

    /// Approximate replica-local resident bytes: channel buffers this
    /// replica hosts, sender mirrors/staging, TB retransmission buffers, and
    /// CTBcast bookkeeping (Table 2).
    pub fn replica_local_bytes(&self, r: usize) -> usize {
        self.dep.groups[0].replica_local_bytes(r)
    }

    /// Runs `warmup + requests` closed-loop requests and reports post-warmup
    /// latency statistics. The stall deadline is derived from the request
    /// count and batch size via [`SimConfig::stall_deadline`], so large runs
    /// cannot false-positive as stalls.
    ///
    /// # Panics
    ///
    /// Panics if the simulation stops making progress before completing the
    /// requested number of operations (the panic message carries per-replica
    /// protocol diagnostics).
    pub fn run(&mut self, requests: u64, warmup: u64) -> RunReport {
        self.dep.run(requests, warmup)
    }

    /// Per-replica protocol diagnostics, one line each.
    pub fn diag_lines(&self) -> String {
        self.dep.diag_lines()
    }

    /// Like [`Cluster::run`] but gives up (without panicking) when virtual
    /// time exceeds `deadline`, so stalls are observable instead of fatal.
    pub fn run_until(&mut self, requests: u64, warmup: u64, deadline: Time) -> RunReport {
        self.dep.run_loop(requests, warmup, deadline);
        self.dep.report()
    }

    /// Drains in-flight work for `extra` more virtual time after a run:
    /// [`Cluster::run`] returns the instant the last client completion
    /// lands, at which point lagging replicas (most notably a freshly
    /// replaced one) may still hold undelivered messages. Settling lets
    /// them catch up so post-run state assertions (digests, `exec_next`)
    /// compare fully converged replicas. No client issues once the run's
    /// target is met; a request still in flight (another client's, when
    /// there are several) is retransmitted, and counted if it completes.
    pub fn settle(&mut self, extra: ubft_types::Duration) {
        self.dep.settle(extra);
    }

    /// Bytes replica `r` retains in checkpoint snapshots for serving
    /// replacement-node state transfers (Table 2 accounting; zero unless
    /// the fault plan schedules replacements).
    pub fn replica_snapshot_bytes(&self, r: usize) -> usize {
        self.dep.groups[0].replica_snapshot_bytes(r)
    }

    /// The safety auditor's verdict over everything observed so far
    /// (`None` unless the run was configured with
    /// [`SimConfig::with_audit`]). Idempotent; call again after
    /// [`Cluster::settle`] to audit the drained tail too.
    pub fn audit_report(&mut self) -> Option<AuditReport> {
        self.dep.audit_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_apps::FlipApp;
    use ubft_types::Duration;

    fn flip_apps(n: usize) -> Vec<Box<dyn App>> {
        (0..n).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect()
    }

    fn payload32() -> Box<dyn FnMut(u64) -> Vec<u8>> {
        Box::new(|i| {
            let mut p = vec![0u8; 32];
            p[..8].copy_from_slice(&i.to_le_bytes());
            p
        })
    }

    #[test]
    fn fast_path_end_to_end() {
        let cfg = SimConfig::paper_default(42).fast_only();
        let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
        let report = cluster.run(100, 10);
        assert_eq!(report.completed, 110);
        let mut lat = report.latency;
        let p50 = lat.median();
        // Microsecond scale: the paper's fast path is ~11 µs end to end.
        assert!(
            p50 > Duration::from_micros(4) && p50 < Duration::from_micros(40),
            "fast-path median {p50} out of expected envelope"
        );
        // Signature-less fast path: CTBcast never signs. The engine's only
        // signatures are the *background* bookkeeping ones (§5.4: CTBcast
        // summaries and checkpoints), far fewer than one per request.
        assert_eq!(report.counters.ctb_signs, 0);
        assert!(
            report.counters.engine_signs < report.completed / 4,
            "too many engine signs for a fast path: {}",
            report.counters.engine_signs
        );
    }

    #[test]
    fn slow_path_end_to_end() {
        let cfg = SimConfig::paper_default(43).slow_only();
        let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
        let report = cluster.run(50, 5);
        assert_eq!(report.completed, 55);
        let mut lat = report.latency;
        let p50 = lat.median();
        // Crypto-dominated: hundreds of microseconds.
        assert!(
            p50 > Duration::from_micros(100) && p50 < Duration::from_micros(1000),
            "slow-path median {p50} out of expected envelope"
        );
        assert!(report.counters.ctb_signs > 0);
        assert!(report.counters.reg_writes > 0);
        assert!(report.counters.reg_reads > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = SimConfig::paper_default(seed).fast_only();
            let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
            let report = cluster.run(50, 5);
            (report.latency.mean(), report.end, report.counters)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn fast_path_faster_than_slow_path() {
        let fast = {
            let cfg = SimConfig::paper_default(1).fast_only();
            Cluster::new(cfg, flip_apps(3), payload32()).run(50, 5)
        };
        let slow = {
            let cfg = SimConfig::paper_default(1).slow_only();
            Cluster::new(cfg, flip_apps(3), payload32()).run(50, 5)
        };
        let (mut f, mut s) = (fast.latency, slow.latency);
        assert!(
            s.median() > f.median() * 5,
            "slow {} should be >5x fast {}",
            s.median(),
            f.median()
        );
    }

    #[test]
    fn two_clients_interleave_and_raise_throughput() {
        let one = {
            let cfg = SimConfig::paper_default(3).fast_only();
            Cluster::new(cfg, flip_apps(3), payload32()).run(200, 20)
        };
        let two = {
            let cfg = SimConfig::paper_default(3).fast_only().with_clients(2);
            Cluster::new(cfg, flip_apps(3), payload32()).run(200, 20)
        };
        assert_eq!(two.completed, 220);
        // Two in-flight slots must yield clearly more than one slot's
        // throughput (the paper reports ~2x, §9).
        assert!(
            two.kreq_per_sec() > 1.5 * one.kreq_per_sec(),
            "interleaving gained only {:.2}x",
            two.kreq_per_sec() / one.kreq_per_sec()
        );
    }

    #[test]
    fn batching_raises_throughput_with_many_clients() {
        // 32 closed-loop clients keep a deep backlog; a narrow pipeline with
        // wide batches must beat one-request-per-slot on requests/sec while
        // every replica still executes the same totals.
        let run = |batch: usize| {
            let cfg = SimConfig::paper_default(11)
                .fast_only()
                .with_clients(32)
                .with_pipeline_depth(2)
                .with_batch(batch);
            let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
            let report = cluster.run(400, 40);
            let digests: Vec<_> = (0..3).map(|r| cluster.app_digest(r)).collect();
            (report, digests)
        };
        let (unbatched, d1) = run(1);
        let (batched, d16) = run(16);
        assert_eq!(unbatched.completed, 440);
        assert_eq!(batched.completed, 440);
        // Safety first: correct replicas agree among themselves in each run.
        assert!(d1.windows(2).all(|w| w[0] == w[1]));
        assert!(d16.windows(2).all(|w| w[0] == w[1]));
        assert!(
            batched.kreq_per_sec() > 1.3 * unbatched.kreq_per_sec(),
            "batching gained only {:.2}x",
            batched.kreq_per_sec() / unbatched.kreq_per_sec()
        );
    }

    #[test]
    fn default_config_batches_are_singletons() {
        // The defaults (max_batch = 1, window-wide pipeline) must behave
        // exactly like the unbatched engine: same per-request counters as a
        // config that spells the degenerate values out explicitly.
        let run = |cfg: SimConfig| {
            let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
            let report = cluster.run(100, 10);
            let digest = cluster.app_digest(0);
            (report.counters, report.completed, digest)
        };
        let implicit = run(SimConfig::paper_default(9).fast_only());
        let explicit = run(SimConfig::paper_default(9).fast_only().with_batch(1));
        assert_eq!(implicit, explicit);
    }

    #[test]
    fn unit_batch_unit_pipeline_reproduces_unbatched_run_bit_for_bit() {
        // A single closed-loop client keeps at most one slot in flight, so
        // `max_batch = 1, pipeline_depth = 1` must be indistinguishable from
        // the default engine down to every counter, latency sample, and the
        // application digest.
        let run = |cfg: SimConfig| {
            let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
            let report = cluster.run(150, 15);
            let digests: Vec<_> = (0..3).map(|r| cluster.app_digest(r)).collect();
            (report.counters, report.completed, report.end, report.latency.mean(), digests)
        };
        let seed_like = run(SimConfig::paper_default(21).fast_only());
        let degenerate =
            run(SimConfig::paper_default(21).fast_only().with_batch(1).with_pipeline_depth(1));
        assert_eq!(seed_like, degenerate);
    }

    #[test]
    fn audited_run_is_clean_and_bit_identical_to_unaudited() {
        let run = |audit: bool| {
            let mut cfg = SimConfig::paper_default(42).fast_only();
            if audit {
                cfg = cfg.with_audit();
            }
            let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
            let report = cluster.run(100, 10);
            let digests: Vec<_> = (0..3).map(|r| cluster.app_digest(r)).collect();
            (report.counters, report.completed, report.end, digests, report.audit)
        };
        let (c0, n0, e0, d0, a0) = run(false);
        let (c1, n1, e1, d1, a1) = run(true);
        // The auditor observes; it must never perturb the run.
        assert_eq!((c0, n0, e0, d0), (c1, n1, e1, d1));
        assert!(a0.is_none());
        let audit = a1.expect("audited run carries a report");
        assert!(audit.is_clean(), "violations: {:#?}", audit.violations);
        // Every replica decided every slot; every decision was checked.
        assert!(audit.decisions_checked >= 3 * 110, "{}", audit.decisions_checked);
        assert!(audit.executions_checked >= 3 * 110, "{}", audit.executions_checked);
        assert_eq!(audit.replicas_compared, 3);
        assert!(audit.model_slots_replayed >= 110);
    }

    #[test]
    fn audited_slow_path_checks_certificate_evidence() {
        let cfg = SimConfig::paper_default(43).slow_only().with_audit();
        let mut cluster = Cluster::new(cfg, flip_apps(3), payload32());
        let report = cluster.run(50, 5);
        let audit = report.audit.expect("audited");
        assert!(audit.is_clean(), "violations: {:#?}", audit.violations);
        assert!(audit.decisions_checked >= 3 * 55);
    }

    #[test]
    fn memory_accounting_scales_with_tail() {
        let small = Cluster::new(
            SimConfig::paper_default(1).fast_only().with_tail(16),
            flip_apps(3),
            payload32(),
        );
        let large = Cluster::new(
            SimConfig::paper_default(1).fast_only().with_tail(128),
            flip_apps(3),
            payload32(),
        );
        assert!(large.disagg_bytes_per_node() > small.disagg_bytes_per_node());
        assert!(large.replica_local_bytes(0) > small.replica_local_bytes(0));
        // Disaggregated memory is small: well under 1 MiB per node.
        assert!(large.disagg_bytes_per_node() < 1 << 20);
    }

    #[test]
    fn derived_stall_deadline_scales_with_size() {
        let base = SimConfig::paper_default(1);
        let small = base.stall_deadline(100);
        let large = base.stall_deadline(1_000_000);
        assert!(large > small);
        // Batches amortize slots and shrink the budget; the shard count
        // must NOT shrink it — a fully key-skewed stream may legally send
        // everything to one group, and that schedule must fit.
        let batched = base.clone().with_batch(64).stall_deadline(1_000_000);
        let sharded = base.clone().with_shards(8).stall_deadline(1_000_000);
        assert!(batched < large);
        assert!(sharded >= large);
        assert!(batched > Time::ZERO + Duration::from_secs(5));
        // An asynchronous prefix defers the whole budget: a run owed no
        // progress before GST cannot be declared stalled by it.
        let gst = Time::ZERO + Duration::from_secs(30);
        let mut late_gst = base.clone();
        late_gst.failures =
            ubft_sim::failure::FailurePlan::none().with_asynchrony(gst, Duration::from_micros(50));
        assert!(late_gst.stall_deadline(100) > gst + Duration::from_secs(5));
    }
}
