//! The omniscient safety auditor: online invariant checking for every run.
//!
//! The simulator owns both sides of every wire, so — unlike a deployed
//! system — a test run can be audited *omnisciently*: the auditor observes
//! every decision, execution, and checkpoint of every replica in every
//! group and cross-checks them against uBFT's headline guarantees, every
//! event, not just at hand-picked assertion points. Enabled per run via
//! [`SimConfig::with_audit`](crate::SimConfig::with_audit); the resulting
//! [`AuditReport`] rides on [`RunReport`](crate::RunReport) (and each
//! shard's report), and violations are *test failures*, never panics — a
//! chaos explorer wants to shrink a violating plan, not die on it.
//!
//! Invariants checked (uBFT extended version, §2/§5):
//!
//! 1. **Per-slot agreement** — no two correct replicas decide or execute
//!    different batches at the same sequence number, their per-request
//!    responses match byte for byte, and at every checkpoint base they
//!    certify the same application digest and the same dedup table.
//! 2. **Certified-commit coverage** — every decision is backed by
//!    sufficient evidence: all `n` WILL_COMMITs on the fast path, or an
//!    `f + 1` certificate/COMMIT quorum otherwise
//!    ([`DecisionEvidence`]).
//! 3. **Linearizability** — the canonical executed sequence replayed
//!    through a fresh *sequential model* of the application
//!    ([`App::sequential_model`]) reproduces every correct replica's
//!    state digest at its execution frontier, every certified checkpoint
//!    digest, and every response.
//! 4. **Bounded memory** — decided slots stay within the paper's
//!    two-window bound of the decider's stable checkpoint, retained
//!    state-transfer snapshots never exceed their cap, and the
//!    disaggregated register footprint never grows past its build-time
//!    size (what
//!    [`Cluster::disagg_bytes_per_node`](crate::Cluster::disagg_bytes_per_node)
//!    accounts).
//! 5. **Cross-shard containment** — every keyed request executes in the
//!    group its key routes to ([`ShardRouter`]), so no request leaks
//!    across shard boundaries.
//! 6. **Validity** — every request a correct replica executes, no-ops
//!    aside, was sent by one of its group's clients (§5.4: requests are
//!    unsigned, so only the followers' endorsement keeps a Byzantine
//!    leader from inventing one).
//!
//! Beside them, not among them, it gives a progress verdict
//! ([`AuditReport::stalled`]): the requests still unanswered past
//! [`progress_deadline`], which is how a run that stalls is told from one
//! that finished.
//!
//! The auditor is an observer: it charges no virtual time, emits no
//! events, and consumes no randomness, so an audited run is bit-for-bit
//! identical to an unaudited one.

use std::collections::{BTreeMap, BTreeSet};

use ubft_apps::ShardRouter;
use ubft_core::app::App;
use ubft_core::engine::{DecisionEvidence, DecisionRecord};
use ubft_crypto::{sha256, Digest};
#[cfg(doc)]
use ubft_sim::failure::ByzantineMode;
use ubft_sim::failure::{FailurePlan, Fault};
use ubft_types::{ClientId, Duration, RequestId, Slot, Time};

use crate::calibration::PROGRESS_TIMEOUT;
use crate::group::{GroupRuntime, SNAPSHOT_RETAIN};

/// What a fault leaves to repair once it ends: a replacement's join and
/// state transfer, a healed partition's retransmission backlog.
pub const HEAL: Duration = Duration::from_millis(1);

/// How many [`PROGRESS_TIMEOUT`]s a request may stay unanswered past the
/// heal before it counts against progress. The watchdog doubles its period
/// with each fruitless view change, so 16 periods (40 ms) cover four of
/// them back to back.
pub const PATIENCE: u32 = 16;

/// The instant from which a run under `plan` owes every request progress:
/// the last fault's end ([`FailurePlan::last_fault_end`]), plus [`HEAL`],
/// plus [`PATIENCE`] watchdog periods.
pub fn progress_deadline(plan: &FailurePlan) -> Time {
    plan.last_fault_end() + HEAL + PROGRESS_TIMEOUT * u64::from(PATIENCE)
}

/// A deliberately injected bug for auditor self-tests: an auditor that
/// cannot fail is untested, so these mutations break one safety mechanism
/// behind a test hook and the mutation tests assert the [`Auditor`]
/// catches the damage. Set via
/// [`SimConfig::with_audit_mutation`](crate::SimConfig::with_audit_mutation);
/// never in production configurations. In a sharded deployment the
/// mutation applies to the named replica of *every* group (self-tests run
/// single-group).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMutation {
    /// The replica decides on the first WILL_COMMIT / COMMIT instead of
    /// the full quorum — skipping the certificate check. Caught by the
    /// certified-commit-coverage invariant.
    DecideEarly {
        /// The sabotaged replica.
        replica: usize,
    },
    /// The replica applies every decided request to its application twice.
    /// Caught by the linearizability invariant (state digest diverges from
    /// the sequential model) and by checkpoint-digest agreement.
    DoubleExecute {
        /// The sabotaged replica.
        replica: usize,
    },
    /// The replica flips a byte of each request payload before executing
    /// it. Caught by per-slot execution agreement (payload and response
    /// mismatch against the canonical record).
    CorruptExecution {
        /// The sabotaged replica.
        replica: usize,
    },
    /// Every replica of the group is handed one request, under a client id
    /// the group does not have, that no client port sent. Caught by the
    /// validity invariant.
    UnsentRequest,
    /// Every replica drops client requests and echoes, as a leader that
    /// censors them does (each runs [`ByzantineMode`]'s `CensorRequests`):
    /// no leader ever proposes. Caught by the progress verdict, not by a
    /// safety invariant.
    NoProposals,
}

/// Which invariant a violation breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two correct replicas decided or executed different content at one
    /// slot (or their responses differ).
    SlotAgreement,
    /// A decision lacked its quorum/certificate evidence.
    CommitCoverage,
    /// A replica's state or response diverges from the sequential model.
    Linearizability,
    /// A bounded-memory bound was exceeded.
    BoundedMemory,
    /// A request executed in a group its key does not route to.
    ShardContainment,
    /// A request executed that no client sent.
    Validity,
    /// A correct replica executed one request twice.
    DuplicateExecution,
}

/// A request that made no progress: taken past the progress deadline
/// ([`progress_deadline`]), it had been in flight for [`PATIENCE`] watchdog
/// periods or more and fewer than `f + 1` correct replicas had executed
/// it, which is what its client waits for: a Byzantine replica's execution
/// does not count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StalledRequest {
    /// The group it was sent to.
    pub group: usize,
    /// The request.
    pub id: RequestId,
    /// When its client first sent it.
    pub sent: Time,
    /// How many correct replicas executed it.
    pub executed_by: u32,
}

/// One invariant violation, locatable enough to debug from the report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    /// The group (shard) the violation was observed in.
    pub group: usize,
    /// The replica involved, if attributable.
    pub replica: Option<usize>,
    /// The slot involved, if attributable.
    pub slot: Option<Slot>,
    /// The invariant broken.
    pub kind: ViolationKind,
    /// Human-readable evidence.
    pub detail: String,
}

/// The auditor's verdict for one run. Attached to
/// [`RunReport`](crate::RunReport) when auditing is enabled.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Every invariant violation observed (empty for a clean run).
    pub violations: Vec<AuditViolation>,
    /// Decisions checked against their evidence thresholds.
    pub decisions_checked: u64,
    /// Request executions checked for agreement/containment.
    pub executions_checked: u64,
    /// Slots replayed through the sequential models.
    pub model_slots_replayed: u64,
    /// Replica state digests compared against the models.
    pub replicas_compared: usize,
    /// Replicas excluded from state comparison (Byzantine by plan, or a
    /// recorded state-transfer miss left their state unaccounted).
    pub replicas_skipped: usize,
    /// The progress verdict, beside the violations and not among them:
    /// every request that made no progress (empty for a run that did).
    pub stalled: Vec<StalledRequest>,
}

impl AuditReport {
    /// Whether the run satisfied every audited safety invariant. Progress
    /// is [`AuditReport::made_progress`].
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether every request was answered in time ([`StalledRequest`]).
    pub fn made_progress(&self) -> bool {
        self.stalled.is_empty()
    }

    /// This report restricted to one group's violations and stalled
    /// requests (the global check counters are kept as-is; they describe
    /// the whole run).
    pub fn for_group(&self, group: usize) -> AuditReport {
        let mut r = self.clone();
        r.violations.retain(|v| v.group == group);
        r.stalled.retain(|s| s.group == group);
        r
    }
}

/// Canonical record of one executed slot: what the first correct executor
/// did, which every later executor must reproduce byte for byte.
#[derive(Default)]
struct CanonSlot {
    /// Executed request payloads, in intra-slot order, exactly as applied.
    payloads: Vec<Vec<u8>>,
    /// The request ids those payloads carried.
    ids: Vec<RequestId>,
    /// Digest of each response.
    responses: Vec<Digest>,
}

/// Per-replica audit bookkeeping.
#[derive(Default)]
struct ReplicaAudit {
    /// How many requests of each slot this replica has executed.
    exec_pos: BTreeMap<Slot, usize>,
    /// Decision evidence per slot (latest incarnation wins — a replacement
    /// node re-decides replayed slots).
    decided: BTreeMap<Slot, Digest>,
    /// Highest checkpoint base this replica adopted (monotonicity check).
    adopted_base: Slot,
    /// The plan says this replica misbehaves; exclude it from agreement
    /// and model checks (its divergence is legal).
    byzantine: bool,
    /// A state transfer found no donor snapshot (or failed verification):
    /// the runtime's documented fast-forward fallback applies and this
    /// replica's state is unaccounted — skip its model comparison.
    transfer_miss: bool,
    /// The non-noop requests this incarnation executed.
    executed: BTreeSet<RequestId>,
}

/// One group's audit state.
struct GroupAudit {
    n: usize,
    quorum: usize,
    window: usize,
    /// Sequential model (a fresh instance of the group's application) and
    /// the digests after each replayed slot: `model_digests[s]` is the
    /// state digest with every slot `< s` applied (`[0]` = genesis).
    model: Option<Box<dyn App>>,
    model_digests: Vec<Digest>,
    canon: BTreeMap<Slot, CanonSlot>,
    canon_decisions: BTreeMap<Slot, Digest>,
    /// First checkpoint digests seen per base (canonical): the
    /// application's and the dedup table's.
    checkpoint_digests: BTreeMap<Slot, (Digest, Digest)>,
    replicas: Vec<ReplicaAudit>,
    /// Register-bank bytes per memory node at build time; they may never
    /// grow (bounded disaggregated memory).
    disagg_bytes_at_build: usize,
    /// Every request the group's client ports sent: when it was first
    /// sent, and a bit per correct replica that executed it.
    sent: BTreeMap<RequestId, (Time, u64)>,
}

/// The omniscient auditor: one per deployment, observing every group.
pub struct Auditor {
    groups: Vec<GroupAudit>,
    router: ShardRouter,
    violations: Vec<AuditViolation>,
    decisions_checked: u64,
    executions_checked: u64,
    /// [`progress_deadline`] of the deployment's plan.
    progress_deadline: Time,
}

impl Auditor {
    /// Builds the auditor for a freshly constructed deployment, reading
    /// each group's shape, fault plan (for Byzantine classification — the
    /// auditor is omniscient, it *knows* who the adversary controls), and
    /// sequential model.
    pub(crate) fn new(groups: &[GroupRuntime]) -> Auditor {
        let audits = groups
            .iter()
            .map(|g| {
                let n = g.env.cfg.params.n();
                let genesis: Vec<Digest> = vec![g.execs[0].app.snapshot_digest()];
                let mut replicas: Vec<ReplicaAudit> =
                    (0..n).map(|_| ReplicaAudit::default()).collect();
                for (_, f) in g.env.cfg.failures.faults() {
                    if let Fault::Byzantine { index, .. } = f {
                        if *index < n {
                            replicas[*index].byzantine = true;
                        }
                    }
                }
                GroupAudit {
                    n,
                    quorum: g.env.cfg.params.quorum(),
                    window: g.env.cfg.params.window,
                    model: g.execs[0].app.sequential_model(),
                    model_digests: genesis,
                    canon: BTreeMap::new(),
                    canon_decisions: BTreeMap::new(),
                    checkpoint_digests: BTreeMap::new(),
                    replicas,
                    disagg_bytes_at_build: g.disagg_bytes_per_node(),
                    sent: BTreeMap::new(),
                }
            })
            .collect();
        let deadlines = groups.iter().map(|g| progress_deadline(&g.env.cfg.failures));
        Auditor {
            router: ShardRouter::new(groups.len()),
            groups: audits,
            violations: Vec::new(),
            decisions_checked: 0,
            executions_checked: 0,
            progress_deadline: deadlines.max().unwrap_or(Time::ZERO),
        }
    }

    fn violate(
        &mut self,
        group: usize,
        replica: Option<usize>,
        slot: Option<Slot>,
        kind: ViolationKind,
        detail: String,
    ) {
        // Cap the list: a systematically broken run would otherwise
        // accumulate one violation per request.
        if self.violations.len() < 256 {
            self.violations.push(AuditViolation { group, replica, slot, kind, detail });
        }
    }

    /// A replica decided a slot ([`DecisionRecord`] drained from its
    /// engine). Checks evidence thresholds, cross-replica decision
    /// agreement, and the two-window bound.
    pub(crate) fn on_decision(&mut self, group: usize, replica: usize, rec: DecisionRecord) {
        self.decisions_checked += 1;
        let ga = &mut self.groups[group];
        if ga.replicas[replica].byzantine {
            return;
        }
        let (n, quorum, window) = (ga.n, ga.quorum, ga.window);
        // Certified-commit coverage: the evidence must meet its threshold.
        let (enough, describe) = match rec.evidence {
            DecisionEvidence::FastQuorum { votes } => {
                (votes >= n, format!("{votes} WILL_COMMIT votes (fast path needs all {n})"))
            }
            DecisionEvidence::CommitQuorum { commits } => {
                (commits >= quorum, format!("{commits} COMMITs (needs f+1 = {quorum})"))
            }
            DecisionEvidence::JoinReplay { shares } => {
                (shares >= quorum, format!("{shares} certificate shares (needs f+1 = {quorum})"))
            }
        };
        if !enough {
            self.violate(
                group,
                Some(replica),
                Some(rec.slot),
                ViolationKind::CommitCoverage,
                format!("decided slot {} on insufficient evidence: {describe}", rec.slot.0),
            );
        }
        // Bounded memory: a decision outside two windows of the decider's
        // stable base means per-slot state is no longer bounded.
        let hi = rec.base.0 + 2 * window as u64;
        if rec.slot < rec.base || rec.slot.0 >= hi {
            self.violate(
                group,
                Some(replica),
                Some(rec.slot),
                ViolationKind::BoundedMemory,
                format!(
                    "decided slot {} outside the two-window bound [{}, {}) of its checkpoint",
                    rec.slot.0, rec.base.0, hi
                ),
            );
        }
        // Agreement at decision level: every correct replica's decision for
        // a slot must carry one batch digest.
        let ga = &mut self.groups[group];
        ga.replicas[replica].decided.insert(rec.slot, rec.batch_digest);
        match ga.canon_decisions.get(&rec.slot) {
            None => {
                ga.canon_decisions.insert(rec.slot, rec.batch_digest);
            }
            Some(canon) if *canon != rec.batch_digest => {
                let canon = *canon;
                self.violate(
                    group,
                    Some(replica),
                    Some(rec.slot),
                    ViolationKind::SlotAgreement,
                    format!(
                        "decided batch {} at slot {} but another correct replica decided {}",
                        rec.batch_digest, rec.slot.0, canon
                    ),
                );
            }
            Some(_) => {}
        }
    }

    /// A client port of `group` sent request `id` at `at`.
    pub(crate) fn on_send(&mut self, group: usize, id: RequestId, at: Time) {
        self.groups[group].sent.entry(id).or_insert((at, 0));
    }

    /// A replica executed one request of a slot (in intra-slot order).
    /// `payload` is the bytes actually applied to the application and
    /// `response` the bytes it returned.
    pub(crate) fn on_execute(
        &mut self,
        group: usize,
        replica: usize,
        slot: Slot,
        id: RequestId,
        payload: &[u8],
        response: &[u8],
    ) {
        self.executions_checked += 1;
        let ga = &mut self.groups[group];
        let ra = &ga.replicas[replica];
        // A request is served once enough correct replicas executed it: what
        // a Byzantine one claims to have executed answers no client.
        if let Some((_, by)) = ga.sent.get_mut(&id).filter(|_| !ra.byzantine) {
            *by |= 1 << replica;
        }
        // Byzantine replicas may legally diverge; a transfer-missed replica
        // runs on unaccounted state (documented fallback), so neither may
        // seed or be judged against the canonical record.
        if ra.byzantine || ra.transfer_miss {
            return;
        }
        // Cross-shard containment: a keyed request may only execute in the
        // group its key hashes to.
        if self.groups.len() > 1 {
            if let Some(key) = ShardRouter::extract_key(payload) {
                let owner = self.router.route_key(&key);
                if owner != group {
                    self.violate(
                        group,
                        Some(replica),
                        Some(slot),
                        ViolationKind::ShardContainment,
                        format!("executed a request whose key routes to shard {owner}"),
                    );
                }
            }
        }
        // Exactly once: a correct replica applies a request one time; a
        // retransmission is answered from its last-reply table.
        let executed = &mut self.groups[group].replicas[replica].executed;
        if id.client != ClientId::NOOP && !executed.insert(id) {
            self.violate(
                group,
                Some(replica),
                Some(slot),
                ViolationKind::DuplicateExecution,
                format!("executed request {id:?} a second time"),
            );
        }
        // Validity: what executes was sent, no-ops aside.
        if id.client != ClientId::NOOP && !self.groups[group].sent.contains_key(&id) {
            self.violate(
                group,
                Some(replica),
                Some(slot),
                ViolationKind::Validity,
                format!("executed request {id:?}, which no client sent"),
            );
        }
        // Certified-commit coverage: an execution without a recorded
        // decision is a slot that was never decided on this replica.
        let ga = &mut self.groups[group];
        if !ga.replicas[replica].decided.contains_key(&slot) {
            self.violate(
                group,
                Some(replica),
                Some(slot),
                ViolationKind::CommitCoverage,
                format!("executed slot {} without a recorded decision", slot.0),
            );
        }
        // Per-slot execution agreement: every correct replica must apply
        // the same payloads in the same order and see the same responses.
        let ga = &mut self.groups[group];
        let exec_pos = ga.replicas[replica].exec_pos.entry(slot).or_insert(0);
        let pos = *exec_pos;
        *exec_pos += 1;
        let canon = ga.canon.entry(slot).or_default();
        let resp_digest = sha256(response);
        if pos < canon.payloads.len() {
            if canon.payloads[pos] != payload || canon.ids[pos] != id {
                self.violate(
                    group,
                    Some(replica),
                    Some(slot),
                    ViolationKind::SlotAgreement,
                    format!(
                        "request #{pos} of slot {} differs from the canonical execution",
                        slot.0
                    ),
                );
            } else if canon.responses[pos] != resp_digest {
                self.violate(
                    group,
                    Some(replica),
                    Some(slot),
                    ViolationKind::SlotAgreement,
                    format!(
                        "response to request #{pos} of slot {} differs from the canonical one",
                        slot.0
                    ),
                );
            }
        } else {
            canon.payloads.push(payload.to_vec());
            canon.ids.push(id);
            canon.responses.push(resp_digest);
        }
    }

    /// A replica computed what its checkpoint at `base` certifies (every
    /// slot `< base` applied): the application digest and the dedup
    /// table's. All correct replicas must agree on both; the model is
    /// compared at finalize time.
    pub(crate) fn on_checkpoint_digest(
        &mut self,
        group: usize,
        replica: usize,
        base: Slot,
        digests: (Digest, Digest),
    ) {
        let ga = &mut self.groups[group];
        if ga.replicas[replica].byzantine || ga.replicas[replica].transfer_miss {
            return;
        }
        let (app, exec) = *ga.checkpoint_digests.entry(base).or_insert(digests);
        for (what, differs) in
            [("checkpoint digest", app != digests.0), ("dedup table", exec != digests.1)]
        {
            if differs {
                self.violate(
                    group,
                    Some(replica),
                    Some(base),
                    ViolationKind::SlotAgreement,
                    format!("{what} at base {} differs across correct replicas", base.0),
                );
            }
        }
    }

    /// A replica adopted a certified checkpoint at `base`; bases must be
    /// non-decreasing per replica (a regressing base would re-open
    /// forgotten slots).
    pub(crate) fn on_checkpoint_adopted(&mut self, group: usize, replica: usize, base: Slot) {
        let ga = &mut self.groups[group];
        let ra = &mut ga.replicas[replica];
        if base < ra.adopted_base {
            let prev = ra.adopted_base;
            self.violate(
                group,
                Some(replica),
                Some(base),
                ViolationKind::BoundedMemory,
                format!("checkpoint base regressed from {} to {}", prev.0, base.0),
            );
        } else {
            ra.adopted_base = base;
        }
    }

    /// A replacement node reset: its engine starts over, so its recorded
    /// decisions no longer describe the new incarnation — and the fresh
    /// node boots from genesis (canonical state), so a predecessor's
    /// transfer miss must not keep *it* unaccounted.
    pub(crate) fn on_replace(&mut self, group: usize, replica: usize) {
        let ra = &mut self.groups[group].replicas[replica];
        ra.decided.clear();
        ra.exec_pos.clear();
        ra.executed.clear();
        ra.adopted_base = Slot(0);
        ra.transfer_miss = false;
    }

    /// A state transfer found no (verifiable) donor snapshot: the replica
    /// fast-forwarded and its application state is unaccounted. From here
    /// on the auditor stops vouching for (or recording canon from) this
    /// replica's state — the divergence is the runtime's *documented*
    /// fallback, surfaced in diagnostics, not a safety violation.
    pub(crate) fn on_transfer_miss(&mut self, group: usize, replica: usize) {
        self.groups[group].replicas[replica].transfer_miss = true;
    }

    /// A later state transfer restored the replica to certified state: it
    /// is accounted for again.
    pub(crate) fn on_transfer_restored(&mut self, group: usize, replica: usize) {
        self.groups[group].replicas[replica].transfer_miss = false;
    }

    /// Produces the report: replays the canonical execution through each
    /// group's sequential model (incrementally — repeated calls replay only
    /// new slots), compares every correct replica's digest at its
    /// execution frontier, re-checks checkpoint digests against the model,
    /// and audits the memory bounds. Taken at `now`, past the progress
    /// deadline, it also gives the progress verdict. Idempotent.
    pub(crate) fn report(&mut self, groups: &[GroupRuntime], now: Time) -> AuditReport {
        // Replay first: response-mismatch violations found during replay
        // land in the persistent list (incrementally, so repeated reports
        // never duplicate them) and must be part of this report.
        for g in 0..self.groups.len() {
            self.replay_model(g);
        }
        let mut report = AuditReport {
            violations: self.violations.clone(),
            decisions_checked: self.decisions_checked,
            executions_checked: self.executions_checked,
            ..AuditReport::default()
        };
        let patience = PROGRESS_TIMEOUT * u64::from(PATIENCE);
        for (g, ga) in self.groups.iter().enumerate().filter(|_| now >= self.progress_deadline) {
            let due = |(_, (sent, by)): &(_, &(Time, u64))| {
                (by.count_ones() as usize) < ga.quorum && now >= *sent + patience
            };
            for (&id, &(sent, by)) in ga.sent.iter().filter(due) {
                let executed_by = by.count_ones();
                report.stalled.push(StalledRequest { group: g, id, sent, executed_by });
            }
        }
        for (g, gr) in groups.iter().enumerate() {
            let ga = &self.groups[g];
            report.model_slots_replayed += (ga.model_digests.len() - 1) as u64;
            // Replica state vs the sequential model at its frontier.
            for r in 0..ga.n {
                let ra = &ga.replicas[r];
                if ra.byzantine || ra.transfer_miss || ga.model.is_none() {
                    report.replicas_skipped += 1;
                    continue;
                }
                // The replica's state must be *some* canonical prefix at or
                // below its engine frontier: a crashed (or not-yet-settled)
                // replica can hold decided-but-unapplied slots in a
                // deferred crypto batch, so its application legally sits a
                // few slots behind `exec_next` — but never off the
                // canonical sequence.
                let frontier = gr.nodes[r].engine.exec_next().0 as usize;
                let got = gr.execs[r].app.snapshot_digest();
                let replayed = ga.model_digests.len() - 1;
                let upto = frontier.min(replayed);
                let on_prefix = ga.model_digests[..=upto].iter().rev().any(|d| *d == got);
                if on_prefix {
                    report.replicas_compared += 1;
                } else if frontier > replayed {
                    // The model could not be replayed to this replica's
                    // frontier (canonical gap — every executor of the gap
                    // was excluded above). Nothing sound to compare.
                    report.replicas_skipped += 1;
                } else {
                    report.replicas_compared += 1;
                    report.violations.push(AuditViolation {
                        group: g,
                        replica: Some(r),
                        slot: Some(Slot(frontier as u64)),
                        kind: ViolationKind::Linearizability,
                        detail: format!(
                            "state digest matches no canonical prefix up to its execution \
                             frontier {frontier}"
                        ),
                    });
                }
            }
            // Checkpoint digests vs the model.
            for (base, (digest, _)) in &ga.checkpoint_digests {
                let b = base.0 as usize;
                if b < ga.model_digests.len() && ga.model_digests[b] != *digest {
                    report.violations.push(AuditViolation {
                        group: g,
                        replica: None,
                        slot: Some(*base),
                        kind: ViolationKind::Linearizability,
                        detail: format!(
                            "certified checkpoint digest at base {b} diverges from the sequential \
                             model"
                        ),
                    });
                }
            }
            // Bounded memory: the disaggregated footprint is fixed at build
            // time, and snapshot retention is capped.
            if gr.disagg_bytes_per_node() != ga.disagg_bytes_at_build {
                report.violations.push(AuditViolation {
                    group: g,
                    replica: None,
                    slot: None,
                    kind: ViolationKind::BoundedMemory,
                    detail: format!(
                        "disaggregated bytes per node changed from {} to {} during the run",
                        ga.disagg_bytes_at_build,
                        gr.disagg_bytes_per_node()
                    ),
                });
            }
            for r in 0..ga.n {
                let kept = gr.snapshot_count(r);
                if kept > SNAPSHOT_RETAIN {
                    report.violations.push(AuditViolation {
                        group: g,
                        replica: Some(r),
                        slot: None,
                        kind: ViolationKind::BoundedMemory,
                        detail: format!(
                            "retains {kept} checkpoint snapshots (cap {SNAPSHOT_RETAIN})"
                        ),
                    });
                }
            }
        }
        report
    }

    /// Replays not-yet-replayed canonical slots through group `g`'s model,
    /// extending the per-slot digest cache. Stops at the first gap.
    fn replay_model(&mut self, g: usize) {
        let mut found: Vec<AuditViolation> = Vec::new();
        let ga = &mut self.groups[g];
        if let Some(model) = ga.model.as_mut() {
            loop {
                let next = Slot((ga.model_digests.len() - 1) as u64);
                let Some(canon) = ga.canon.get(&next) else { break };
                for (i, payload) in canon.payloads.iter().enumerate() {
                    let response = model.execute(payload);
                    if sha256(&response) != canon.responses[i] {
                        found.push(AuditViolation {
                            group: g,
                            replica: None,
                            slot: Some(next),
                            kind: ViolationKind::Linearizability,
                            detail: format!(
                                "canonical response to request #{i} of slot {} differs from the \
                                 sequential model's",
                                next.0
                            ),
                        });
                    }
                }
                ga.model_digests.push(model.snapshot_digest());
            }
        }
        self.violations.extend(found);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An auditor of one three-replica group with no sequential model,
    /// where replica 0 decided slots 0 and 1 and a client sent `id`.
    fn auditor(id: RequestId) -> Auditor {
        let mut replicas: Vec<ReplicaAudit> = (0..3).map(|_| ReplicaAudit::default()).collect();
        for slot in [Slot(0), Slot(1)] {
            replicas[0].decided.insert(slot, Digest::ZERO);
        }
        let group = GroupAudit {
            n: 3,
            quorum: 2,
            window: 256,
            model: None,
            model_digests: Vec::new(),
            canon: BTreeMap::new(),
            canon_decisions: BTreeMap::new(),
            checkpoint_digests: BTreeMap::new(),
            replicas,
            disagg_bytes_at_build: 0,
            sent: BTreeMap::from([(id, (Time::ZERO, 0))]),
        };
        Auditor {
            groups: vec![group],
            router: ShardRouter::new(1),
            violations: Vec::new(),
            decisions_checked: 0,
            executions_checked: 0,
            progress_deadline: Time::ZERO,
        }
    }

    #[test]
    fn a_request_a_correct_replica_executes_twice_is_reported() {
        let id = RequestId::new(ClientId(0), 0);
        let mut aud = auditor(id);
        aud.on_execute(0, 0, Slot(0), id, b"x", b"y");
        assert!(aud.violations.is_empty(), "{:?}", aud.violations);
        aud.on_execute(0, 0, Slot(1), id, b"x", b"y");
        let kinds: Vec<ViolationKind> = aud.violations.iter().map(|v| v.kind).collect();
        assert_eq!(kinds, [ViolationKind::DuplicateExecution]);

        // No-ops repeat by design, and a replacement starts over.
        let mut aud = auditor(id);
        let noop = RequestId::new(ClientId::NOOP, 0);
        for _ in 0..2 {
            aud.on_execute(0, 0, Slot(1), noop, b"", b"");
        }
        aud.on_execute(0, 0, Slot(0), id, b"x", b"y");
        aud.on_replace(0, 0);
        aud.groups[0].replicas[0].decided.insert(Slot(0), Digest::ZERO);
        aud.on_execute(0, 0, Slot(0), id, b"x", b"y");
        assert!(aud.violations.is_empty(), "{:?}", aud.violations);
    }
}
