//! Calibration constants: the simulated testbed (paper Table 1).
//!
//! The physical testbed is 4 dual-socket Xeon Gold 6244 servers with
//! ConnectX-6 NICs on one 100 Gbps EDR switch. We reproduce its *timing
//! envelope*: the network follows [`LatencyModel::paper_testbed`], CPU/crypto
//! costs follow [`CostModel::paper_testbed`], and protocol timeouts are set
//! far above common-case latency so they never fire in failure-free runs.

use ubft_core::PathMode;
use ubft_sim::chaos::ChaosPlan;
use ubft_sim::cost::CostModel;
use ubft_sim::failure::FailurePlan;
use ubft_sim::net::LatencyModel;
use ubft_types::{ClusterParams, Duration, Time};

use crate::audit::AuditMutation;

/// Fast-path *detection* timeout: how long a CTBcast broadcaster waits for
/// every `LOCKED`, and a replica for a slot's WILL_* rounds, before
/// starting the slow path. At least, not exactly: one sweep per replica for
/// slots and one for its own broadcasts, each armed at this period while
/// anything waits, start the slow path for what already waited at their
/// previous firing — exactly this long for what found its sweep idle, less
/// than twice as long for anything else. (A half period, at most this long,
/// stalled more chaos plans: 9 instead of 6 of 800.) Paid once per silent
/// peer, not per message: a sweep that starts a slow path suspects the
/// peers whose contribution is missing, and while any peer is suspected
/// or branded new broadcasts and slots start the slow path at once. A
/// suspected peer is trusted again when it is heard from; a branded one,
/// proven Byzantine, never is, and costs no sweep once branded.
pub const SLOW_TRIGGER: Duration = Duration::from_micros(200);

/// Leader-progress watchdog period. An order of magnitude above a slow-path
/// slot (≈ 204 µs), the longest a failure-free run goes without a decision:
/// summary and checkpoint certifications run beside the request path and
/// stall nobody. The degraded-mode numbers (`leader_crash`: one watchdog
/// period to detect the crash, doubled per fruitless view change) are
/// calibrated against this value.
pub const PROGRESS_TIMEOUT: Duration = Duration::from_micros(2_500);

/// The longest a request waits at the leader for its echo round (§5.4)
/// before it is proposed without all of them. At most, not exactly: one
/// sweep per leader, armed at half this period while any request waits,
/// falls back on what already waited at its previous firing — exactly
/// this long for a request that found the sweep idle.
pub const ECHO_FALLBACK: Duration = Duration::from_micros(100);

/// Receiver poll pickup delay (buffer scan granularity).
pub const POLL_PICKUP: Duration = Duration::from_nanos(150);

/// TBcast retransmission tick: unacknowledged buffered messages older than
/// one full period are resent (§4.2). Recovery from message loss
/// (partitions, buffer overwrite) takes between one and two periods.
pub const RETRANSMIT_PERIOD: Duration = Duration::from_micros(150);

/// Full configuration of one simulated experiment.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Cluster shape (f, f_m, tail, window, δ, max request size).
    pub params: ClusterParams,
    /// Fast path / slow path selection.
    pub path: PathMode,
    /// Experiment seed (all randomness derives from it).
    pub seed: u64,
    /// Network latency model.
    pub latency: LatencyModel,
    /// CPU/crypto cost model.
    pub cost: CostModel,
    /// The deployment's fault schedule: every fault names its group
    /// ([`FailurePlan::in_group`]), and a deployment refuses a plan that
    /// names a group it does not have.
    pub failures: FailurePlan,
    /// Whether the leader runs the §5.4 echo round before proposing
    /// (disabled in the echo ablation).
    pub echo_round: bool,
    /// Number of closed-loop clients. Two clients keep two consensus slots
    /// in flight, the §9 interleaving that doubles throughput by using the
    /// slack between a slot's protocol events.
    pub n_clients: usize,
    /// Override for the CTBcast-summary trigger interval (Algorithm 4).
    /// `None` keeps the paper's `t/2` double-buffering; `Some(t)` is the
    /// single-buffered ablation.
    pub summary_every: Option<u64>,
    /// Most requests the leader packs into one consensus slot
    /// ([`EngineConfig::max_batch`](ubft_core::engine::EngineConfig)).
    /// `1` — the default — reproduces the unbatched paper prototype.
    pub max_batch: usize,
    /// Most slots the leader keeps in flight (proposed but not yet
    /// executed). `None` — the default — bounds the pipeline only by the
    /// consensus window, which never binds; small values make the backlog
    /// queue up so batches actually form under load.
    pub pipeline_depth: Option<usize>,
    /// Number of independent consensus groups a
    /// [`Cluster`](crate::cluster::Cluster) deploys over one shared fabric
    /// and memory-node set, from `n · shards` applications in group order.
    /// `1` — the default — is the classic single-group deployment.
    pub shards: usize,
    /// Whether the omniscient safety [`Auditor`](crate::audit::Auditor)
    /// observes the run ([`SimConfig::with_audit`]). Off by default: an
    /// unaudited run records nothing and stays bit-for-bit historical.
    pub audit: bool,
    /// Deliberately injected bug for auditor self-tests
    /// ([`SimConfig::with_audit_mutation`]); never set in production
    /// configurations.
    pub audit_mutation: Option<AuditMutation>,
    /// Which deployment backend runs this configuration. The
    /// discrete-event simulator ([`Backend::Sim`], the default) is
    /// deterministic virtual time; [`Backend::Threads`]
    /// ([`crate::threads`]) runs every node on its own OS thread against
    /// the wall clock.
    pub backend: Backend,
    /// Threaded backend only: size of the shared crypto worker pool that
    /// signature/digest work is offloaded to (the paper's background
    /// crypto cores, §5.4). Ignored by the simulator, which models the pool
    /// as two workers per replica, a virtual-time cursor each: the crypto a
    /// request waits for — the engine's ordered signatures and
    /// verifications, and a slow-path slot's CERTIFY shares, our own signed
    /// and a peer's checked — takes whichever worker frees first, while
    /// summary and checkpoint
    /// certification is confined to the second and starts behind the
    /// ordered crypto queued so far (CTBcast's own signatures are charged
    /// per message and occupy neither).
    pub crypto_workers: usize,
    /// Threaded backend only: multiplier stretching virtual-time timer
    /// durations ([`PROGRESS_TIMEOUT`], [`SLOW_TRIGGER`],
    /// [`RETRANSMIT_PERIOD`], ...) into wall-clock time. The simulator's
    /// timers are calibrated to RDMA microseconds; OS scheduling jitter is
    /// orders of magnitude
    /// coarser, so un-stretched timers fire spuriously and derail runs
    /// into view changes. Ignored by the simulator.
    pub time_scale: u32,
}

/// Deployment backend selector ([`SimConfig::backend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Deterministic discrete-event simulation in virtual time — every
    /// existing test and calibration figure runs here, bit-for-bit.
    Sim,
    /// Wall-clock execution: one OS thread per replica, per replica's
    /// executor and per group's client driver, connected by in-process
    /// queues, beside a crypto worker pool; memory nodes are passive
    /// in-process memory the replica threads share, with no thread
    /// ([`crate::threads`]).
    Threads,
}

impl SimConfig {
    /// The deployed configuration on the simulated testbed.
    pub fn paper_default(seed: u64) -> Self {
        SimConfig {
            params: ClusterParams::paper_default(),
            path: PathMode::FastWithFallback,
            seed,
            latency: LatencyModel::paper_testbed(),
            cost: CostModel::paper_testbed(),
            failures: FailurePlan::none(),
            echo_round: true,
            n_clients: 1,
            summary_every: None,
            max_batch: 1,
            pipeline_depth: None,
            shards: 1,
            audit: false,
            audit_mutation: None,
            backend: Backend::Sim,
            crypto_workers: 2,
            time_scale: 20,
        }
    }

    /// Fast-path-only variant (Figures 7, 11).
    #[must_use]
    pub fn fast_only(mut self) -> Self {
        self.path = PathMode::FastOnly;
        self
    }

    /// Forced-slow-path variant (Figure 8's "uBFT slow path").
    #[must_use]
    pub fn slow_only(mut self) -> Self {
        self.path = PathMode::SlowOnly;
        self
    }

    /// Overrides the CTBcast tail (Figure 11 / Table 2 sweeps).
    #[must_use]
    pub fn with_tail(mut self, tail: usize) -> Self {
        self.params = self.params.with_tail(tail);
        self
    }

    /// Overrides the consensus window (checkpoint cadence; recovery tests
    /// shrink it so replacements catch up within short runs).
    #[must_use]
    pub fn with_window(mut self, window: usize) -> Self {
        self.params = self.params.with_window(window);
        self
    }

    /// Overrides the largest request size (channel slot sizing).
    #[must_use]
    pub fn with_max_request(mut self, bytes: usize) -> Self {
        self.params = self.params.with_max_request_bytes(bytes);
        self
    }

    /// Disables the §5.4 echo round (the echo ablation: what the round
    /// costs in latency, and what Byzantine-client protection it buys).
    #[must_use]
    pub fn without_echo(mut self) -> Self {
        self.echo_round = false;
        self
    }

    /// Sets the number of concurrent closed-loop clients (§9 throughput).
    #[must_use]
    pub fn with_clients(mut self, n: usize) -> Self {
        self.n_clients = n.max(1);
        self
    }

    /// Selects the deployment backend (default: the deterministic
    /// discrete-event simulator).
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sizes the threaded backend's shared crypto worker pool.
    #[must_use]
    pub fn with_crypto_workers(mut self, n: usize) -> Self {
        self.crypto_workers = n.max(1);
        self
    }

    /// Sets the threaded backend's virtual-to-wall-clock timer stretch.
    #[must_use]
    pub fn with_time_scale(mut self, scale: u32) -> Self {
        self.time_scale = scale.max(1);
        self
    }

    /// Overrides the CTBcast-summary trigger interval: `t` instead of the
    /// default `t/2` reproduces the single-buffered design the paper's
    /// footnote 3 rejects.
    #[must_use]
    pub fn with_summary_every(mut self, every: u64) -> Self {
        self.summary_every = Some(every.max(1));
        self
    }

    /// Sets the per-slot request batch bound (the Fig. 10/11 throughput
    /// lever). Combine with [`SimConfig::with_pipeline_depth`] so a backlog
    /// builds and batches wider than one actually form.
    #[must_use]
    pub fn with_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Bounds the leader's proposal pipeline to `depth` in-flight slots.
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = Some(depth.max(1));
        self
    }

    /// Sets the number of consensus groups a
    /// [`Cluster`](crate::cluster::Cluster) deploys over the shared fabric
    /// (clamped to at least one).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Schedules a live replica replacement: replica `victim` crashes at
    /// `crash_at` and a fresh node for the same replica id boots
    /// `rejoin_delay` later on a new host, reconstructing its state from
    /// the memory-node register banks, the latest certified checkpoint, and
    /// a `Join`/`JoinAck` handshake with its peers (uBFT extended version,
    /// §replacement). Composes with every other fault-plan builder.
    #[must_use]
    pub fn with_replacement(
        mut self,
        victim: usize,
        crash_at: Time,
        rejoin_delay: Duration,
    ) -> Self {
        self.failures = self.failures.replace_replica(victim, crash_at, crash_at + rejoin_delay);
        self
    }

    /// Enables the omniscient safety auditor: every decision, execution,
    /// and checkpoint of the run is checked online against uBFT's safety
    /// invariants (see [`crate::audit`]), and the verdict is attached to
    /// the run's report ([`RunReport::audit`](crate::RunReport)).
    /// Auditing observes only — an audited run is bit-for-bit identical
    /// to an unaudited one.
    #[must_use]
    pub fn with_audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Injects a deliberate bug for auditor self-tests (implies
    /// [`SimConfig::with_audit`]): mutation tests assert the auditor
    /// catches the damage. Never use outside tests.
    #[must_use]
    pub fn with_audit_mutation(mut self, mutation: AuditMutation) -> Self {
        self.audit = true;
        self.audit_mutation = Some(mutation);
        self
    }

    /// Applies a generated [`ChaosPlan`]: its plan becomes
    /// [`SimConfig::failures`], and the group count is raised to cover
    /// every group it addresses. Chaos runs are exactly the fault plans a
    /// hand-written test would build — a printed plan reproduces byte for
    /// byte.
    #[must_use]
    pub fn with_chaos(mut self, plan: &ChaosPlan) -> Self {
        self.shards = self.shards.max(plan.failures.groups());
        self.failures = plan.failures.clone();
        self
    }

    /// The virtual-time deadline after which a closed-loop run of `total`
    /// requests is declared stalled. Derived from the request count and
    /// batch size (each slot amortizes up to `max_batch` requests), with
    /// budgets hundreds of times above common-case latency: a healthy
    /// fast-path slot takes ~10 µs against a 20 ms/slot budget, and the
    /// per-request floor covers even the signature-bound slow path many
    /// times over. The shard count deliberately does *not* tighten the
    /// bound: routing is by key, and a fully skewed stream may legally
    /// send every request to one group — the deadline must cover that
    /// worst legitimate schedule (a looser-than-needed deadline costs
    /// nothing; a tighter one panics healthy runs). An asynchronous
    /// prefix defers the whole budget: the clock starts at GST, since
    /// nothing is owed progress before it. Replaces the old fixed 60 s
    /// deadline, which large batched/sharded runs could outgrow.
    pub fn stall_deadline(&self, total: u64) -> Time {
        let slots = total / self.max_batch.max(1) as u64 + 1;
        self.failures.gst
            + Duration::from_secs(5)
            + Duration::from_millis(20) * slots
            + Duration::from_millis(5) * total
    }

    /// Encoded per-request wire overhead inside a batch beyond the payload
    /// itself (request id + length prefixes, generously rounded): what keeps
    /// a full batch of maximum-size requests under the slot assert in
    /// `ubft_transport` even at extreme `max_batch`.
    const PER_REQUEST_OVERHEAD: usize = 64;

    /// Bytes a full batch can occupy on the wire (payloads plus per-request
    /// framing; the first request's framing is covered by the fixed slot
    /// headroom, keeping `max_batch = 1` sizing identical to the unbatched
    /// engine).
    fn batch_bytes(&self) -> usize {
        let b = self.max_batch.max(1);
        b * self.params.max_request_bytes + (b - 1) * Self::PER_REQUEST_OVERHEAD
    }

    /// Channel slot payload for CTBcast lanes: one request batch plus
    /// certificate and header headroom (checked at send time).
    pub fn slot_payload(&self) -> usize {
        self.batch_bytes() + 4096
    }

    /// Channel slot payload for consensus-TB and direct lanes, which carry
    /// bounded state summaries (up to 4 commits, each wrapping a batch).
    pub fn wide_slot_payload(&self) -> usize {
        6 * self.batch_bytes() + 8192
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_shaped() {
        let c = SimConfig::paper_default(1);
        assert_eq!(c.params.n(), 3);
        assert_eq!(c.params.tail, 128);
        assert!(SLOW_TRIGGER > Duration::from_micros(50));
        assert!(c.slot_payload() >= 2048);
    }

    #[test]
    fn builders_compose() {
        let c = SimConfig::paper_default(1).fast_only().with_tail(16).with_max_request(64);
        assert_eq!(c.path, PathMode::FastOnly);
        assert_eq!(c.params.tail, 16);
        assert_eq!(c.params.max_request_bytes, 64);
    }

    #[test]
    fn batch_builders_scale_slot_sizing() {
        let base = SimConfig::paper_default(1);
        assert_eq!(base.max_batch, 1);
        assert_eq!(base.pipeline_depth, None);
        let batched = SimConfig::paper_default(1).with_batch(16).with_pipeline_depth(4);
        assert_eq!(batched.max_batch, 16);
        assert_eq!(batched.pipeline_depth, Some(4));
        // CTBcast slots must fit a full batch of maximum-size requests,
        // including each extra request's wire framing.
        assert_eq!(
            batched.slot_payload(),
            base.slot_payload()
                + 15 * (base.params.max_request_bytes + SimConfig::PER_REQUEST_OVERHEAD)
        );
        assert!(batched.wide_slot_payload() > base.wide_slot_payload());
        // `max_batch = 1` sizing is byte-identical to the unbatched engine.
        assert_eq!(SimConfig::paper_default(1).with_batch(1).slot_payload(), base.slot_payload());
        // An extreme batch of maximum-size requests still fits its slot:
        // encode a worst-case batch and compare against the capacity.
        {
            use ubft_core::msg::{Batch, CtbMsg, Prepare, Request};
            use ubft_types::wire::Wire;
            use ubft_types::{ClientId, RequestId, Slot, View};
            let cfg = SimConfig::paper_default(1).with_batch(256);
            let reqs: Vec<Request> = (0..256)
                .map(|i| Request {
                    id: RequestId::new(ClientId(u32::MAX - 1), i),
                    payload: vec![0xA5; cfg.params.max_request_bytes],
                })
                .collect();
            let msg =
                CtbMsg::Prepare(Prepare { view: View(0), slot: Slot(0), batch: Batch::new(reqs) });
            assert!(msg.to_bytes().len() <= cfg.slot_payload());
        }
        // Degenerate values are clamped, not rejected.
        let clamped = SimConfig::paper_default(1).with_batch(0).with_pipeline_depth(0);
        assert_eq!(clamped.max_batch, 1);
        assert_eq!(clamped.pipeline_depth, Some(1));
    }
}
