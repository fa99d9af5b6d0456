//! A complete simulated uBFT deployment: one or more consensus groups.
//!
//! Topology: each group's replicas and clients take a contiguous block of
//! host ids, and `2f_m + 1` passive memory nodes after them are shared by
//! every group (the layout is on [`Cluster`]). Every protocol byte flows
//! through the circular-buffer channels of `ubft-transport` (which live in
//! fabric memory), every slow-path register access goes through
//! `ubft-dmem`, and all CPU/crypto time is charged against per-replica
//! busy-until cursors using the calibrated
//! [`CostModel`](ubft_sim::cost::CostModel).
//!
//! [`Cluster`] owns what the groups share — the fabric, the event queue,
//! the completion count and the auditor — and drives them; a group's
//! event handling, lanes, costs and clients live in the private
//! `group::GroupRuntime`, and a replica's protocol stack and its driver
//! are the private `node::ReplicaNode`. With several groups the key space
//! shards across them: a key's whole history lives in one group, so
//! cross-group coordination is never needed.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use ubft_apps::ShardRouter;
use ubft_core::app::App;
use ubft_crypto::Digest;
use ubft_rdma::Fabric;
use ubft_sim::net::NetworkModel;
use ubft_sim::stats::LatencyStats;
use ubft_sim::{EventQueue, HostId, SimRng};
use ubft_types::{ClientId, Duration, Time, View};

use crate::audit::{AuditReport, Auditor};
use crate::calibration::{Backend, SimConfig};
use crate::client_loop::{ClientLoop, ClientTimer};
use crate::exec::ExecReport;
use crate::group::{Ev, GroupEv, GroupRuntime, GroupWorkload, Shared};
use crate::node::ReplicaNode;
use crate::stall::StallReport;

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
    /// The timers this incarnation handled, by kind.
    pub timers: TimerInputs,
    /// The operations the replica started, its executor's replies
    /// included, over every incarnation.
    pub counters: OpCounters,
    /// Where this incarnation's cores spent their time: virtual time
    /// charged on [`Backend::Sim`], wall time on [`Backend::Threads`].
    pub core: CoreTime,
}

/// One replica incarnation's busy time: its main core's by the kind of
/// input that caused it, and its execution core's. The replica driver
/// files the main core's once per input a substrate hands it, and the
/// executor its jobs', on the clock each backend supplies: the dispatch and
/// application costs the simulator charges, the wall clock (`Instant`) on
/// threads, preemption included.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreTime {
    /// Main core: client requests.
    pub client_requests: Duration,
    /// Main core: messages on the direct lane (echoes, shares, view-change
    /// messages).
    pub direct_msgs: Duration,
    /// Main core: frames of the consensus TBcast lane.
    pub consensus_frames: Duration,
    /// Main core: frames of the CTBcast lanes.
    pub ctb_frames: Duration,
    /// Main core: timers.
    pub timers: Duration,
    /// Main core: everything else — completions of crypto, register round
    /// trips and the executor's work, effects kept back behind crypto, and
    /// the replica's boot.
    pub completions: Duration,
    /// The execution core: every job it ran (in the simulator only the
    /// requests the application ran cost anything).
    pub execution: Duration,
}

impl CoreTime {
    /// The main core's busy time, whatever caused it.
    pub fn main(&self) -> Duration {
        self.client_requests
            + self.direct_msgs
            + self.consensus_frames
            + self.ctb_frames
            + self.timers
            + self.completions
    }
}

/// Timer inputs one replica handled since it booted, by the kind of timer
/// (the replica driver counts them where every input arrives, so both
/// backends do).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerInputs {
    /// The leader-progress watchdog.
    pub progress: u64,
    /// The fast path's sweep over slots.
    pub slow_sweep: u64,
    /// The leader's echo-fallback sweep.
    pub echo_fallback: u64,
    /// The fast path's sweep over the replica's own CTBcast broadcasts.
    pub ctb_sweep: u64,
    /// The TBcast retransmission tick.
    pub retransmit: u64,
}

impl ReplicaReport {
    /// What `node` has to report; its executor's share comes with
    /// [`ReplicaReport::with_exec`].
    pub(crate) fn of(node: &ReplicaNode) -> Self {
        ReplicaReport {
            decided: node.engine.decided_count(),
            app_digest: Digest::ZERO,
            executed: Vec::new(),
            final_view: node.engine.view().0,
            transfer_misses: node.transfer_misses,
            branded: node.branded.clone(),
            timers: node.timers,
            counters: node.counters,
            core: node.core,
        }
    }

    /// Adds what the replica's executor reported
    /// ([`Executor::report`](crate::exec::Executor::report)).
    pub(crate) fn with_exec(mut self, (app_digest, executed, replies, busy): ExecReport) -> Self {
        self.counters.rpc_msgs += replies;
        self.core.execution = busy;
        ReplicaReport { app_digest, executed, ..self }
    }
}

/// One consensus group's share of a run.
#[derive(Clone, Debug, Default)]
pub struct GroupReport {
    /// Completions this group's clients contributed (including warmup).
    pub completed: u64,
    /// Latency samples of this group's measured completions.
    pub latency: LatencyStats,
    /// Primitive operation counts: the replicas' summed, and the requests
    /// the clients sent.
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

impl GroupReport {
    /// The report of a group whose clients are `clients` and whose
    /// replicas reported `replicas`; takes the clients' latency samples.
    pub(crate) fn of<W: ?Sized>(
        clients: &mut ClientLoop<W>,
        replicas: Vec<ReplicaReport>,
        audit: Option<AuditReport>,
    ) -> Self {
        let mut counters = OpCounters { rpc_msgs: clients.sent, ..OpCounters::default() };
        replicas.iter().for_each(|r| counters.merge(&r.counters));
        let (completed, latency) = (clients.completed, std::mem::take(&mut clients.latency));
        GroupReport { completed, latency, counters, views: Vec::new(), audit, replicas }
    }
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

/// A simulated uBFT deployment: [`SimConfig::shards`] consensus groups of
/// `n` replicas over one fabric, one shared (group-tagged) event queue, one
/// completion count and one set of `2f_m + 1` passive memory nodes.
///
/// Host-ID layout: group `g` occupies the contiguous block
/// `[g·(n + n_clients), (g+1)·(n + n_clients))` — replicas first, then
/// clients — and the shared memory nodes occupy the next `n_mem` ids;
/// replacement nodes get fresh ids past them. Every per-replica accessor
/// takes the deployment-wide index `g·n + r` of replica `r` of group `g`,
/// the order [`RunReport::views`] lists replicas in.
pub struct Cluster {
    now: Time,
    fabric: Fabric,
    events: EventQueue<GroupEv>,
    /// Requests completed by every group's clients together.
    completed: u64,
    pub(crate) groups: Vec<GroupRuntime>,
    /// The omniscient safety auditor ([`SimConfig::with_audit`]); `None`
    /// keeps the run observation-free and bit-for-bit historical.
    audit: Option<Auditor>,
}

impl Cluster {
    /// Builds [`SimConfig::shards`] groups from `n · shards` application
    /// instances, group 0's `n` first, and one closed-loop request stream.
    /// One group takes the stream as it is, called with the deployment's
    /// completion count; several share it through a [`ShardRouter`] (FNV
    /// over the KV key, round-robin for keyless payloads), and the
    /// argument is then the request's index in the generated stream.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is not `n · shards` long, or if the fault plan
    /// addresses a group the deployment does not have.
    pub fn new(
        cfg: SimConfig,
        apps: Vec<Box<dyn App>>,
        workload: Box<dyn FnMut(u64) -> Vec<u8>>,
    ) -> Self {
        let (n, shards) = (cfg.params.n(), cfg.shards.max(1));
        assert!(
            apps.len() == n * shards,
            "Cluster::new got {} application instances; {shards} group(s) of {n} replicas need {}",
            apps.len(),
            n * shards
        );
        let mut apps = apps.into_iter();
        let mut workload = Some(workload);
        let routed = (shards > 1).then(|| {
            Rc::new(RefCell::new(RoutedSource::new(workload.take().expect("a stream"), shards)))
        });
        let make_workload = |g| -> GroupWorkload {
            match &routed {
                Some(source) => {
                    let source = Rc::clone(source);
                    Box::new(move |_| source.borrow_mut().next_for(g))
                }
                None => {
                    let mut workload = workload.take().expect("one group");
                    Box::new(move |seq| Some(workload(seq)))
                }
            }
        };
        Cluster::build(&cfg, |_| apps.by_ref().take(n).collect(), make_workload)
    }

    /// Builds `base.shards` groups over one fabric. `make_apps(g)` yields
    /// group `g`'s `n` application instances; `make_workload(g)` yields its
    /// request source.
    pub(crate) fn build(
        base: &SimConfig,
        mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App>>,
        mut make_workload: impl FnMut(usize) -> GroupWorkload,
    ) -> Self {
        let shards = base.shards.max(1);
        let n = base.params.n();
        let n_clients = base.n_clients.max(1);
        let n_mem = base.params.n_mem();
        let block = n + n_clients;
        assert!(
            base.failures.groups() <= shards,
            "the fault plan addresses group {}, but the deployment has {shards} group(s)",
            base.failures.groups() - 1
        );

        // Per-group configurations: the group's own plan, which carries
        // the deployment-wide asynchrony phase (the network delays *every*
        // group's traffic pre-GST, snapshot retention reads it, and a
        // group that lags a window behind pre-GST delays needs donor
        // snapshots to heal). `shards` keeps the deployment-wide count.
        let cfgs: Vec<SimConfig> = (0..shards)
            .map(|g| SimConfig { failures: base.failures.group(g), ..base.clone() })
            .collect();

        // Replacement nodes get brand-new host ids past the memory nodes,
        // pre-allocated so the host count (and thus the deterministic
        // event schedule) is fixed at build time.
        let mut n_hosts = shards * block + n_mem;
        let replaced: usize = cfgs.iter().map(|cfg| cfg.failures.replacements().count()).sum();
        let mut net = NetworkModel::synchronous(base.latency.clone(), n_hosts + replaced)
            .with_gst(base.failures.gst, base.failures.pre_gst_extra);
        // Memory nodes are shared; a crash scheduled by any group's plan
        // takes the earliest scheduled time.
        for i in 0..n_mem {
            if let Some(t) = base.failures.mem_node_crash_time(i) {
                net.crash_host(HostId((shards * block + i) as u32), t);
            }
        }
        // Each group's faults, mapped into the global host space. A replica
        // occupies its own host and one per replacement; a crash takes the
        // first, and a partition cuts them all.
        let mut replacements: Vec<(Time, u32, usize, HostId)> = Vec::new();
        for (g, cfg) in cfgs.iter().enumerate() {
            let mut hosts: Vec<_> = (0..n).map(|r| vec![HostId((g * block + r) as u32)]).collect();
            for (r, _crash_at, rejoin_at) in cfg.failures.replacements() {
                assert!(r < n, "group {g}: replacement victim {r} out of range");
                hosts[r].push(HostId(n_hosts as u32));
                replacements.push((rejoin_at, g as u32, r, HostId(n_hosts as u32)));
                n_hosts += 1;
            }
            for (r, t) in (0..n).filter_map(|r| Some((r, cfg.failures.replica_crash_time(r)?))) {
                net.crash_host(hosts[r][0], t);
            }
            for (a, b, from, until) in cfg.failures.partitions() {
                assert!(a < n && b < n, "group {g}: partition ({a}, {b}) names a non-replica");
                for &ha in &hosts[a] {
                    hosts[b].iter().for_each(|&hb| net.add_partition(ha, hb, from, until));
                }
            }
        }
        let mut fabric = Fabric::new(net, SimRng::new(base.seed).fork(1));
        let mut events = EventQueue::new();
        let mut completed = 0;
        let mem_hosts: Vec<HostId> =
            (0..n_mem).map(|i| HostId((shards * block + i) as u32)).collect();

        let mut groups = Vec::with_capacity(shards);
        // Groups are built unaudited (nothing decision-relevant happens at
        // construction — engine start-up arms watchdogs only); the auditor
        // reads their shape and sequential models once they exist.
        let mut audit: Option<Auditor> = None;
        for (g, cfg) in cfgs.into_iter().enumerate() {
            let mut sh = Shared {
                fabric: &mut fabric,
                events: &mut events,
                completed: &mut completed,
                audit: &mut audit,
            };
            groups.push(GroupRuntime::new(
                g as u32,
                cfg,
                (g * block) as u32,
                &mem_hosts,
                make_apps(g),
                ClientLoop::bootstrap(base, g, make_workload(g)),
                &mut sh,
            ));
        }
        if base.audit {
            audit = Some(Auditor::new(&groups));
        }
        for (rejoin_at, g, r, host) in replacements {
            events.push(rejoin_at, (g, Ev::Replace { r, host }));
        }

        Cluster { now: Time::ZERO, fabric, events, completed, groups, audit }
    }

    /// Replica `i`'s group and its index there.
    fn locate(&self, i: usize) -> (&GroupRuntime, usize) {
        let n = self.groups[0].nodes.len();
        (&self.groups[i / n], i % n)
    }

    /// The application state digest of replica `i` (safety assertions in
    /// tests: correct replicas that executed the same prefix must agree).
    pub fn app_digest(&self, i: usize) -> Digest {
        let (g, r) = self.locate(i);
        g.execs[r].app.snapshot_digest()
    }

    /// First slot replica `i` has not executed.
    pub fn exec_next(&self, i: usize) -> ubft_types::Slot {
        let (g, r) = self.locate(i);
        g.nodes[r].engine.exec_next()
    }

    /// The view replica `i` is in.
    pub fn view_of(&self, i: usize) -> View {
        let (g, r) = self.locate(i);
        g.nodes[r].engine.view()
    }

    /// Individual requests replica `i` has decided (batches count their
    /// contents, so this is comparable across batch sizes).
    pub fn decided_of(&self, i: usize) -> u64 {
        let (g, r) = self.locate(i);
        g.nodes[r].engine.decided_count()
    }

    /// Resident entries in replica `i`'s request-dedup table: one per
    /// client executed, up to
    /// [`EngineConfig::client_table_cap`](ubft_core::engine::EngineConfig::client_table_cap)
    /// — tests use this to prove eviction actually occurred.
    pub fn dedup_entries(&self, i: usize) -> usize {
        let (g, r) = self.locate(i);
        g.nodes[r].engine.exec_table().len()
    }

    /// Total disaggregated-memory bytes occupied on one memory node by the
    /// register banks of every group (Table 2). Every memory node holds a
    /// full copy of every register, so this is independent of the
    /// replication factor; each group owns a partition of the space.
    pub fn disagg_bytes_per_node(&self) -> usize {
        self.disagg_bytes_per_group().sum()
    }

    /// Group by group, the partition of one memory node's disaggregated
    /// bytes that each group's register banks occupy.
    pub fn disagg_bytes_per_group(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups.iter().map(GroupRuntime::disagg_bytes_per_node)
    }

    /// Approximate replica-local resident bytes: channel buffers replica
    /// `i` hosts, sender mirrors/staging, TB retransmission buffers, and
    /// CTBcast bookkeeping (Table 2).
    pub fn replica_local_bytes(&self, i: usize) -> usize {
        let (g, r) = self.locate(i);
        g.replica_local_bytes(r)
    }

    /// Bytes replica `i` retains in checkpoint snapshots for serving
    /// replacement-node state transfers (Table 2 accounting; zero unless
    /// the fault plan schedules faults).
    pub fn replica_snapshot_bytes(&self, i: usize) -> usize {
        let (g, r) = self.locate(i);
        g.replica_snapshot_bytes(r)
    }

    /// Runs `warmup + requests` closed-loop requests across all groups and
    /// reports post-warmup latency statistics, with the per-group breakdown
    /// in [`RunReport::groups`]. The stall deadline is derived from the
    /// request count and batch size via [`SimConfig::stall_deadline`], so
    /// large runs cannot false-positive as stalls (the group count
    /// deliberately does not tighten it — a fully key-skewed stream may
    /// legally route everything to one group).
    ///
    /// # Panics
    ///
    /// Panics if the simulation stops making progress before completing the
    /// requested number of operations (the panic message carries per-replica
    /// protocol diagnostics).
    pub fn run(&mut self, requests: u64, warmup: u64) -> RunReport {
        let total = requests + warmup;
        self.run_loop(requests, warmup, self.groups[0].env.cfg.stall_deadline(total));
        let report = self.report();
        assert!(
            report.completed >= total,
            "run stalled at {}/{total} completed requests (t = {})\n{}",
            report.completed,
            self.now,
            self.diag_lines(),
        );
        report
    }

    /// Like [`Cluster::run`] but gives up (without panicking) when virtual
    /// time exceeds `deadline`, so stalls are observable instead of fatal.
    pub fn run_until(&mut self, requests: u64, warmup: u64, deadline: Time) -> RunReport {
        self.run_loop(requests, warmup, deadline);
        self.report()
    }

    /// Drives the closed loop until `requests + warmup` total completions
    /// or virtual time passes `deadline`.
    pub(crate) fn run_loop(&mut self, requests: u64, warmup: u64, deadline: Time) {
        for (g, gr) in self.groups.iter_mut().enumerate() {
            gr.clients.begin(requests, warmup);
            // Clients start 1 µs apart, so their first requests do not
            // share an instant.
            for c in 0..gr.clients.len() {
                let timer = ClientTimer::Issue;
                let at = Time::ZERO + Duration::from_micros(1 + c as u64);
                self.events.push(at, (g as u32, Ev::Client { c, timer }));
            }
        }
        let target = requests + warmup;
        self.handle_while(|c, t| c.completed < target && t <= deadline);
        // The run ends at the first event it leaves queued (for `settle`).
        if let Some(t) = self.events.peek_time() {
            self.now = t;
        }
    }

    /// Handles queued events in time order while `go_on` accepts the next
    /// one's time; the first it refuses stays queued.
    fn handle_while(&mut self, go_on: impl Fn(&Self, Time) -> bool) {
        while let Some(t) = self.events.peek_time().filter(|t| go_on(self, *t)) {
            assert!(self.events.total_pushed() < 200_000_000, "simulation diverged (event flood)");
            let (_, (gid, ev)) = self.events.pop().expect("peeked");
            self.now = t;
            let Cluster { fabric, events, completed, groups, audit, .. } = self;
            let mut sh = Shared { fabric, events, completed, audit };
            groups[gid as usize].handle(&mut sh, ev, t);
        }
    }

    /// Drains in-flight work for `extra` more virtual time after a run:
    /// [`Cluster::run`] returns the instant the last client completion
    /// lands, at which point lagging replicas (most notably a freshly
    /// replaced one) may still hold undelivered messages. Settling lets
    /// them catch up so post-run state assertions (digests, `exec_next`)
    /// compare fully converged replicas. No client issues once the run's
    /// target is met, a starved group's idle ones included; a request
    /// still in flight (another client's, when there are several) is
    /// retransmitted, and counted if it completes.
    pub fn settle(&mut self, extra: Duration) {
        let deadline = self.now + extra;
        self.handle_while(|_, t| t <= deadline);
    }

    /// The safety auditor's verdict over everything observed so far
    /// (`None` unless the run was configured with
    /// [`SimConfig::with_audit`]). Idempotent — the model replays
    /// incrementally, so asking again after [`Cluster::settle`] audits the
    /// drained tail too.
    pub fn audit_report(&mut self) -> Option<AuditReport> {
        let Cluster { audit, groups, now, .. } = self;
        audit.as_mut().map(|a| a.report(groups, *now))
    }

    /// The report of everything run so far, stamped with the current
    /// virtual time and the audit verdict; takes each group's latency
    /// samples and each replica's execution log.
    pub(crate) fn report(&mut self) -> RunReport {
        let audit = self.audit_report();
        let group = |(g, gr): (usize, &mut GroupRuntime)| {
            let replicas = gr.replica_reports();
            GroupReport::of(&mut gr.clients, replicas, audit.as_ref().map(|a| a.for_group(g)))
        };
        let groups = self.groups.iter_mut().enumerate().map(group).collect();
        RunReport::of_groups(groups, self.now, audit, Backend::Sim)
    }

    /// Why the deployment is where it is: every replica's explanation of
    /// itself joined with the driver's facts, each group classified by
    /// the catalogued liveness corners ([`crate::stall`]).
    pub fn stall_report(&self) -> StallReport {
        StallReport {
            groups: self.groups.iter().map(|g| g.stall(&self.fabric, self.now)).collect(),
        }
    }

    /// The stall report, printed ([`Cluster::stall_report`]).
    pub fn diag_lines(&self) -> String {
        self.stall_report().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_apps::FlipApp;

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
        // A one-group report's `groups[0]` is its totals, and says of every
        // replica what the accessors say.
        let group = &report.groups[0];
        assert_eq!(report.groups.len(), 1);
        assert_eq!((group.completed, group.counters), (report.completed, report.counters));
        assert_eq!(group.views, report.views);
        assert_eq!(group.latency.len(), report.latency.len());
        for (r, rep) in group.replicas.iter().enumerate() {
            assert_eq!(rep.app_digest, cluster.app_digest(r), "digest of replica {r}");
            assert_eq!(rep.decided, cluster.decided_of(r), "decided of replica {r}");
            assert_eq!(View(rep.final_view), cluster.view_of(r), "view of replica {r}");
        }
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
    fn a_run_leaves_the_event_that_ends_it_queued() {
        let mut cluster =
            Cluster::new(SimConfig::paper_default(42).fast_only(), flip_apps(3), payload32());
        let report = cluster.run(20, 0);
        assert_eq!(cluster.events.peek_time(), Some(report.end));
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
    fn a_partition_cuts_the_replacement_host_too() {
        use ubft_sim::{failure::FailurePlan, net::HopOutcome};
        let us = |n| Time::ZERO + Duration::from_micros(n);
        let mut cfg = SimConfig::paper_default(1);
        let plan = FailurePlan::none().replace_replica(1, us(300), us(900));
        cfg.failures = plan.partition(1, 2, us(400), us(1_400));
        // The replacement's host is the first one past the memory nodes.
        let fresh = HostId((3 + cfg.n_clients.max(1) + cfg.params.n_mem()) as u32);
        let cluster = Cluster::new(cfg, flip_apps(3), payload32());
        let hop = |at| cluster.fabric.net().hop(&mut SimRng::new(0), fresh, HostId(2), 64, us(at));
        assert_eq!(hop(1_000), HopOutcome::Dropped);
        assert!(matches!(hop(1_500), HopOutcome::Delivered(_)));
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
