//! The engine's vocabulary: its configuration, the effects it asks its
//! driver to execute, the timers it arms, and what it reports about itself.

use ubft_crypto::Digest;
use ubft_types::{ClusterParams, ReplicaId, SeqId, Slot, View};

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
        }
    }

    /// The bound of the per-client tables (the engine's dedup table, the
    /// runtime's last-reply cache), which evict the least recently written
    /// entry beyond it ([`crate::lru`]). A request re-proposed across a view
    /// change may occupy a second slot, and that slot must land inside the
    /// acceptance window — within 2 windows of the first. At most
    /// `2 · window · max_batch` distinct clients execute in that span, so a
    /// table that large never evicts an in-flight request's entry before
    /// its duplicate executes (nor a reply before its client could need it
    /// again). Like PBFT's bounded last-reply table, it trades memory for
    /// exactly-once coverage: a client that retransmits after more than
    /// this many *other* clients executed is ordered (and executed) anew.
    pub fn client_table_cap(&self) -> usize {
        2 * self.params.window * self.max_batch.max(1)
    }
}

/// Timers the engine asks the runtime to arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Leader-progress watchdog; fires a view change when stuck.
    Progress,
    /// The fast path's sweep: a slot accepted before its previous firing
    /// and still undecided starts the slow path. One for all slots, armed
    /// while any waits.
    SlowSweep,
    /// The leader's echo-fallback sweep: propose what waited a whole
    /// period for its echoes even without all of them. One for all
    /// requests, armed while any waits.
    EchoFallback,
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

/// The engine's explanation of itself, for stall diagnosis (see
/// [`Engine::diag`]): its view and cursors, the oldest slot it has not
/// decided with its own evidence for it, each stream's view and FIFO head,
/// and the first gate that is shut. Its `Display` names the gate and the
/// evidence; the runtime's stall report joins one per replica with what
/// only the driver knows (what CTBcast delivered, who crashed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineDiag {
    /// Current view.
    pub view: View,
    /// View being sealed, if a view change is in progress.
    pub sealing: Option<View>,
    /// First slot not yet executed.
    pub exec_next: Slot,
    /// Leader only: slots proposed but not yet decided (pipeline fill).
    pub in_flight: u64,
    /// Stable checkpoint base.
    pub checkpoint_base: Slot,
    /// A snapshot requested, or a state transfer asked for, and not yet
    /// answered: execution is paused at this slot.
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
    /// CTBcast messages sent on our own stream.
    pub ctb_sent: u64,
    /// Proven CTBcast equivocations: `(stream, sequence id)` of the first
    /// conflicting broadcast of each stream whose first proof was one.
    pub equivocations: Vec<(ReplicaId, SeqId)>,
    /// Whether the engine is a replacement node still completing its join.
    pub joining: bool,
    /// Whether the progress watchdog counts this replica as owing progress:
    /// a replica without pending work never starts a view change, nor
    /// seals beside a peer that does.
    pub has_pending_work: bool,
    /// Peers this replica does not trust, suspected of silence or branded
    /// ([`Engine::suspects_anyone`]).
    pub suspected: Vec<ReplicaId>,
    /// The oldest slot at or past `exec_next` that this replica has not
    /// decided but knows of (a PREPARE accepted or held, a promise, a share
    /// or a COMMIT), with its evidence for it.
    pub oldest: Option<SlotDiag>,
    /// Every stream as this replica interprets it, by replica index.
    pub streams: Vec<StreamDiag>,
    /// The first gate that is shut, if any.
    pub gate: Option<Gate>,
}

/// What a replica holds toward deciding one slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotDiag {
    /// The slot.
    pub slot: Slot,
    /// Its PREPARE is accepted.
    pub accepted: bool,
    /// Its PREPARE is held for requests this replica lacks (§5.4).
    pub held: bool,
    /// The view in which this replica promised WILL_COMMIT for it.
    pub promised_in: Option<View>,
    /// This replica's own CERTIFY share for it, if it asked for one.
    pub share: Option<OwnShare>,
    /// This replica's COMMIT for it is out.
    pub commit_sent: bool,
    /// Streams that carry a COMMIT for it (`f + 1` decide).
    pub commits: usize,
}

/// Where a replica's own CERTIFY share for a slot stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnShare {
    /// With the crypto worker.
    Signing,
    /// Signed, not broadcast.
    Signed,
    /// Broadcast.
    Sent,
}

/// One CTBcast stream as a replica interprets it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamDiag {
    /// What the replica holds of the stream's broadcaster.
    pub standing: Standing,
    /// The stream's view: the last SEAL_VIEW interpreted on it.
    pub view: View,
    /// The next CTBcast id FIFO interpretation expects.
    pub fifo_next: SeqId,
    /// The highest view of a COMMIT the stream carries here. Above
    /// [`StreamDiag::view`] only when a gap-filling summary skipped the
    /// stream's SEAL_VIEW.
    pub commit_view: Option<View>,
}

/// What a replica holds of a peer: the one record that every check of a
/// peer's trustworthiness reads. Only `Trusted` peers can make up the fast
/// path's unanimity ([`Engine::suspects_anyone`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Standing {
    /// Nothing is held against it.
    Trusted,
    /// Found silent: its vote was missing when a fast path timed out, or it
    /// led the view this replica sealed. Any consensus frame, echo or join
    /// from it makes it `Trusted` again.
    Suspected,
    /// Proven Byzantine, for good: its stream is blocked and nothing it
    /// says counts. Carries the CTBcast id of the first conflicting
    /// broadcast when the first proof was an equivocation.
    Branded(Option<SeqId>),
}

/// A gate that keeps a replica from its next step, in the order the
/// engine's explanation looks for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// A replacement node still completing its join.
    Joining,
    /// Sealing the next view waits for the COMMIT of the WILL_COMMIT
    /// promise at this slot.
    Sealing(Slot),
    /// Execution paused here for a snapshot or a state transfer.
    Snapshot(Slot),
    /// This stream's head is a `CHECKPOINT` whose certificate is not proven.
    Parked(ReplicaId),
    /// Our own CTBcast broadcasts queue at the summary gate: sent ran
    /// `tail` past the boundary the last certified summary covers; the
    /// three numbers are sent, summarized and queued.
    Summary(u64, u64, usize),
    /// Leader: `pipeline_depth` slots are undecided and requests queue.
    Pipeline,
}

impl std::fmt::Display for EngineDiag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (view, exec, suspects) = (self.view.0, self.exec_next.0, &self.suspected);
        let sealing = self.sealing.map_or(String::new(), |v| format!(" sealing v{}", v.0));
        let work = if self.has_pending_work { "work pending" } else { "nothing pending" };
        write!(f, "v{view}{sealing}, exec {exec}, {work}, suspects {suspects:?}")?;
        write!(f, "; oldest undecided {:?}; shut gate {:?}", self.oldest, self.gate)
    }
}
