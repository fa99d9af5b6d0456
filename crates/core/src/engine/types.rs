//! The engine's vocabulary: its configuration, the effects it asks its
//! driver to execute, the timers it arms, and what it reports about itself.

use ubft_crypto::Digest;
use ubft_types::{ClusterParams, ReplicaId, RequestId, SeqId, Slot, View};

#[cfg(doc)]
use super::Engine;
use crate::msg::{CtbMsg, DirectMsg, Request, TbMsg};

/// Which replication path(s) the engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathMode {
    /// Signature-less fast path only (failure-free experiments).
    FastOnly,
    /// Slow path only: sign CERTIFY immediately, skip WILL_* rounds
    /// (the paper's forced-slow-path measurements).
    SlowOnly,
    /// Fast path with slow-path fallback on timeout (deployed mode).
    FastWithFallback,
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Cluster shape and windows.
    pub params: ClusterParams,
    /// Path selection.
    pub path: PathMode,
    /// How many of its own CTBcast messages a broadcaster may run ahead of
    /// its last completed summary before blocking (Algorithm 4; the paper
    /// double-buffers with summaries every `t/2`).
    pub summary_half: u64,
    /// Whether the leader waits for follower echoes before proposing
    /// (§5.4's protection against Byzantine clients that send a request
    /// only to the leader). Disabled in the echo ablation.
    pub echo_round: bool,
    /// Most requests the leader packs into one consensus slot. `1` proposes
    /// every request in its own slot (the unbatched paper prototype);
    /// larger values amortize the fixed per-slot protocol cost over many
    /// requests (Fig. 10/11 throughput).
    pub max_batch: usize,
    /// Most slots the leader keeps in flight (proposed but not yet
    /// executed) at once. While the pipeline is full, ready requests
    /// accumulate in the proposal queue — which is exactly what lets
    /// batches larger than one form under load. The default (the full
    /// consensus window) never binds, reproducing the eager unpipelined
    /// proposer exactly.
    pub pipeline_depth: usize,
    /// Whether the engine records a [`DecisionRecord`] for every slot it
    /// decides (drained via [`Engine::take_decisions`]). Off by default:
    /// only audited runs pay the bookkeeping.
    pub record_decisions: bool,
    /// Test-only mutation hook: decide a slot on the *first* WILL_COMMIT /
    /// COMMIT instead of the full quorum — i.e. skip the certificate/quorum
    /// check that makes decisions safe. Exists so the safety auditor's
    /// certified-commit-coverage invariant can be shown to actually fire
    /// (an auditor that cannot fail is untested). Never set in production
    /// configurations.
    #[doc(hidden)]
    pub test_decide_early: bool,
    /// Capacity of the per-client request-dedup table (and, mirrored by
    /// the runtime, the last-reply cache). `None` — the default — keeps
    /// one entry per client forever, the paper prototype's unbounded
    /// behavior. `Some(c)` bounds the table to `c` clients with
    /// deterministic least-recently-executed eviction ([`crate::lru`]),
    /// never below [`EngineConfig::client_table_cap`]'s floor. Like
    /// PBFT's bounded last-reply table, a capped table trades memory for
    /// exactly-once coverage: a client must retransmit before `c` *other*
    /// clients execute, or its retransmission is ordered (and executed)
    /// anew.
    pub client_cache_cap: Option<usize>,
}

impl EngineConfig {
    /// Deployed defaults for the given cluster parameters: unbatched
    /// (`max_batch = 1`), with the pipeline bounded only by the consensus
    /// window.
    pub fn new(params: ClusterParams, path: PathMode) -> Self {
        let summary_half = (params.tail / 2).max(1) as u64;
        let pipeline_depth = params.window;
        EngineConfig {
            params,
            path,
            summary_half,
            echo_round: true,
            max_batch: 1,
            pipeline_depth,
            record_decisions: false,
            test_decide_early: false,
            client_cache_cap: None,
        }
    }

    /// The capacity the per-client tables (the engine's dedup table, the
    /// runtime's last-reply cache) actually run with:
    /// [`EngineConfig::client_cache_cap`], floored. A request re-proposed
    /// across a view change may occupy a second slot, and that slot must
    /// land inside the acceptance window — within 2 windows of the first.
    /// At most `2 · window · max_batch` distinct clients execute in that
    /// span, so a table that large never evicts an in-flight request's
    /// entry before its duplicate executes (nor a reply before its client
    /// could need it again): eviction only forgets clients whose requests
    /// are fully settled.
    pub fn client_table_cap(&self) -> Option<usize> {
        let floor = 2 * self.params.window * self.max_batch.max(1);
        self.client_cache_cap.map(|c| c.max(floor))
    }
}

/// Timers the engine asks the runtime to arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Leader-progress watchdog; fires a view change when stuck.
    Progress,
    /// Fast-path timeout for one slot; starts the slow path.
    SlotSlowTrigger(Slot),
    /// Echo-round fallback: propose even without all echoes.
    EchoFallback(RequestId),
}

/// Metered crypto work, converted to virtual time by the runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CryptoOps {
    /// Signatures generated.
    pub signs: u32,
    /// Signatures verified.
    pub verifies: u32,
}

impl CryptoOps {
    /// Adds another batch of operations.
    pub fn add(&mut self, other: CryptoOps) {
        self.signs += other.signs;
        self.verifies += other.verifies;
    }

    /// Whether any work was metered.
    pub fn is_zero(&self) -> bool {
        self.signs == 0 && self.verifies == 0
    }
}

/// Effects the runtime must execute on the engine's behalf.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Effect {
    /// Broadcast on this replica's CTBcast stream.
    CtbBroadcast(CtbMsg),
    /// Broadcast on this replica's consensus TBcast stream.
    TbBroadcast(TbMsg),
    /// Send a point-to-point message.
    SendReplica {
        /// Destination.
        to: ReplicaId,
        /// The message.
        msg: DirectMsg,
    },
    /// Apply `req` as slot `slot` to the application and reply to its
    /// client. Emitted strictly in slot order.
    Execute {
        /// The decided slot.
        slot: Slot,
        /// The decided request.
        req: Request,
    },
    /// Ask the application for a state digest after every slot `< base` has
    /// been applied; answer via [`Engine::on_snapshot`].
    RequestSnapshot {
        /// First slot *not* covered by the snapshot.
        base: Slot,
    },
    /// Arm (or re-arm) a timer; the runtime picks the duration and calls
    /// [`Engine::on_timer`] when it fires.
    ArmTimer {
        /// Which timer.
        kind: TimerKind,
    },
    /// The stable checkpoint advanced (bookkeeping hook for the runtime).
    CheckpointAdopted {
        /// New first open slot.
        base: Slot,
    },
    /// The engine adopted a certified checkpoint it cannot reach by local
    /// execution (a replacement node, or a replica that missed a whole
    /// window): the runtime must restore the application to the certified
    /// state at `base` — verified against `app_digest`, so the serving
    /// peer is not trusted — and feed the donor's request-dedup table back
    /// via [`Engine::on_exec_table`] (verified against `exec_digest`)
    /// before executing any later effects.
    StateTransfer {
        /// First slot *not* covered by the transferred state.
        base: Slot,
        /// Certified digest the restored state must match.
        app_digest: Digest,
        /// Certified digest the transferred dedup table must match.
        exec_digest: Digest,
    },
    /// A completed join adopted stream positions: the runtime must move its
    /// CTBcast instances to these cursors (the own-stream entry sets the
    /// broadcaster's next id; peer entries set receiver delivery floors) so
    /// transport-level state agrees with the engine's FIFO adoption.
    AdoptStreams {
        /// `(stream, next_id)` per stream, in no particular order.
        tails: Vec<(ReplicaId, SeqId)>,
    },
    /// The replica moved to a new view (informational).
    ViewChanged {
        /// The new view.
        view: View,
    },
    /// A peer was detected Byzantine and its stream blocked.
    ByzantineDetected {
        /// The culprit.
        replica: ReplicaId,
        /// Human-readable evidence.
        reason: String,
    },
}

/// The evidence path that decided a slot — what an omniscient safety
/// auditor checks against the quorum rules (a fast-path decision takes all
/// `n` WILL_COMMITs; everything else takes an `f + 1` certificate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionEvidence {
    /// Decided by the signature-less fast path on `votes` WILL_COMMITs
    /// (safe only when `votes == n`).
    FastQuorum {
        /// WILL_COMMIT votes held at decision time (including our own).
        votes: usize,
    },
    /// Decided by `commits` matching certificate-backed COMMIT broadcasts
    /// (safe only when `commits >= f + 1`).
    CommitQuorum {
        /// Matching COMMITs delivered at decision time.
        commits: usize,
    },
    /// Replayed by a replacement node from a join ack's commit certificate
    /// (safe only when the certificate carries `shares >= f + 1`).
    JoinReplay {
        /// Signature shares in the verified certificate.
        shares: usize,
    },
}

/// One decided slot, as the engine saw it at the moment of decision.
/// Recorded only when [`EngineConfig::record_decisions`] is set; drained by
/// the runtime via [`Engine::take_decisions`] and handed to the auditor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The decided slot.
    pub slot: Slot,
    /// The view this replica was in when it decided.
    pub view: View,
    /// Content digest of the decided batch.
    pub batch_digest: Digest,
    /// This replica's stable checkpoint base at decision time — the
    /// auditor checks `slot` against the paper's two-window bound from it.
    pub base: Slot,
    /// How the decision was reached.
    pub evidence: DecisionEvidence,
}

/// A point-in-time snapshot of an engine's protocol state, for operator
/// dashboards and stall diagnosis (see [`Engine::diag`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineDiag {
    /// The replica.
    pub me: ReplicaId,
    /// Current view.
    pub view: View,
    /// View being sealed, if a view change is in progress.
    pub sealing: Option<View>,
    /// Requests decided so far.
    pub decided: u64,
    /// First slot not yet executed.
    pub exec_next: Slot,
    /// Leader only: next proposal slot.
    pub next_slot: Slot,
    /// Leader only: slots proposed but not yet executed (pipeline fill).
    pub in_flight: u64,
    /// Stable checkpoint base.
    pub checkpoint_base: Slot,
    /// A snapshot requested and not yet answered: execution is paused at
    /// this slot.
    pub snapshot_pending: Option<Slot>,
    /// Streams whose head is a `CHECKPOINT` still waiting for the proof of
    /// its certificate.
    pub parked_streams: usize,
    /// `CERTIFY_CHECKPOINT` shares held (at most two bases of `n` each).
    pub checkpoint_shares: usize,
    /// Requests seen but not yet executed.
    pub outstanding: usize,
    /// Requests held, executed ones awaiting reclaim included. Checkpoints
    /// reclaim those, so this stays within two windows of batches.
    pub request_entries: usize,
    /// Leader: requests queued for proposal.
    pub propose_queue: usize,
    /// Undecided slots with an accepted prepare.
    pub open_prepares: usize,
    /// CTBcast messages sent on our own stream.
    pub ctb_sent: u64,
    /// Highest summarized CTBcast id on our own stream.
    pub summary_done: u64,
    /// CTBcast messages blocked behind the summary gate.
    pub ctb_queued: usize,
    /// Peers branded Byzantine.
    pub byzantine: usize,
    /// Proven CTBcast equivocations: `(stream, sequence id)` of the first
    /// conflicting broadcast per branded stream.
    pub equivocations: Vec<(ReplicaId, SeqId)>,
    /// Whether the engine is a replacement node still completing its join.
    pub joining: bool,
}

impl std::fmt::Display for EngineDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "r{} view={} sealing={:?} decided={} exec_next={} next_slot={} in_flight={} cp={} \
             outstanding={} tracked={} queue={} open_prepares={} \
             ctb sent/summarized/queued={}/{}/{} byz={}",
            self.me.0,
            self.view.0,
            self.sealing.map(|v| v.0),
            self.decided,
            self.exec_next.0,
            self.next_slot.0,
            self.in_flight,
            self.checkpoint_base.0,
            self.outstanding,
            self.request_entries,
            self.propose_queue,
            self.open_prepares,
            self.ctb_sent,
            self.summary_done,
            self.ctb_queued,
            self.byzantine,
        )?;
        for (stream, k) in &self.equivocations {
            write!(f, " equiv=r{}@k{}", stream.0, k.0)?;
        }
        if let Some(base) = self.snapshot_pending {
            write!(f, " snapshot-pending={}", base.0)?;
        }
        if self.parked_streams > 0 {
            write!(f, " parked-streams={}", self.parked_streams)?;
        }
        if self.joining {
            write!(f, " joining")?;
        }
        Ok(())
    }
}
