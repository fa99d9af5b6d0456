//! The uBFT replica engine: Algorithms 2 (common case), 3 (view change),
//! 4 (summaries), and 5 (Byzantine checks) as one sans-IO state machine.
//!
//! The runtime owns transport, CTBcast instances, registers, the clock, and
//! the application; the engine owns protocol state. Crypto comes in two
//! kinds. A slot's own CERTIFY signature, the verification of a foreign
//! commit certificate and view-change crypto run inline (the simulation's
//! key ring is cheap) and are metered in [`CryptoOps`], so the runtime
//! charges the paper-calibrated virtual time (sign ≈ 17 µs, verify ≈ 45 µs)
//! before the call's effects act — their order is a protocol invariant.
//! Everything that collects `f + 1` shares toward a certificate has no
//! such invariant: the shares of a slot (Algorithm 2 line 33), of a CTBcast
//! summary (Algorithm 4) and of a consensus checkpoint (Algorithm 2 line
//! 44) are parked in a `ShareSet` and checked by [`CryptoJob`]s
//! ([`Engine::take_crypto_jobs`]) whose results come back as ordinary
//! inputs ([`Engine::on_crypto_done`]), as do the two periodic
//! certifications' own signatures — those bound memory and must stay off
//! the request path altogether. A replacement node's join still verifies
//! the checkpoints it adopts inline: nothing runs beside it.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use ubft_crypto::{Certificate, Digest, KeyRing, Signature, Signer};
use ubft_types::{
    ClusterParams, FixedMap, FixedSet, ProcessId, ReplicaId, RequestId, SeqId, Slot, View,
};

pub use crate::crypto_job::{CryptoJob, CryptoResult, CryptoTag, CryptoWork};
use crate::msg::{
    summary_sign_bytes, vc_sign_bytes, Batch, CheckpointCert, CheckpointData, CommitCert, CtbMsg,
    DirectMsg, JoinStream, Prepare, Request, StateSummary, TbMsg, VcCert,
};

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
    /// deterministic least-recently-executed eviction ([`crate::lru`]);
    /// clients with a request still in flight through consensus are
    /// pinned and never evicted. Like PBFT's bounded last-reply table,
    /// a capped table trades memory for exactly-once coverage: a client
    /// must retransmit before `c` *other* clients execute, or its
    /// retransmission is ordered (and executed) anew.
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

/// Per-peer consensus bookkeeping (Algorithm 2 lines 7–12), interpreted
/// strictly in CTBcast-FIFO order.
#[derive(Clone, Debug)]
struct PeerState {
    view: View,
    seal_view: Option<View>,
    new_view: Option<Vec<VcCert>>,
    prepares: BTreeMap<Slot, Prepare>,
    commits: BTreeMap<Slot, CommitCert>,
    checkpoint: CheckpointCert,
    /// Next CTBcast id expected from this peer (FIFO interpretation).
    fifo_next: SeqId,
    /// Out-of-order CTBcast deliveries awaiting their predecessors.
    pending: BTreeMap<SeqId, CtbMsg>,
    /// Set while the message at `fifo_next` — kept in `pending` — is a
    /// `CHECKPOINT` whose certificate is not proven yet. Interpretation of
    /// this stream, and of this stream only, waits for the proof.
    parked: Option<AwaitedProof>,
}

/// What will prove the certificate of a parked `CHECKPOINT`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AwaitedProof {
    /// Our own certification of the same data, which is under way.
    OwnCertification,
    /// A [`CryptoTag::CheckpointCert`] job.
    Job,
}

impl PeerState {
    fn new() -> Self {
        PeerState {
            view: View(0),
            seal_view: None,
            new_view: None,
            prepares: BTreeMap::new(),
            commits: BTreeMap::new(),
            checkpoint: CheckpointCert::genesis(),
            fifo_next: SeqId(1),
            pending: BTreeMap::new(),
            parked: None,
        }
    }

    /// The slots this peer may prepare and commit: those the checkpoint
    /// last seen on its stream opens ([`open_end`]).
    fn open_window(&self, window: usize) -> (Slot, Slot) {
        let base = self.checkpoint.data.base;
        (base, open_end(base, window))
    }

    fn in_window(&self, slot: Slot, window: usize) -> bool {
        let (lo, hi) = self.open_window(window);
        slot >= lo && slot < hi
    }

    fn summary(&self) -> StateSummary {
        // A bounded synopsis: the latest commits are the only ones that can
        // still matter (older open slots are decided/checkpointed before the
        // window advances); bounding them keeps summaries and view-change
        // certificates within one transport slot. DESIGN.md §7 records this
        // as a deviation from the unbounded pseudocode.
        const SUMMARY_COMMIT_CAP: usize = 4;
        let skip = self.commits.len().saturating_sub(SUMMARY_COMMIT_CAP);
        StateSummary {
            checkpoint: Some(self.checkpoint.clone()),
            commits: self.commits.iter().skip(skip).map(|(s, c)| (*s, c.clone())).collect(),
        }
    }

    fn apply_summary(&mut self, s: &StateSummary) {
        if let Some(cp) = &s.checkpoint {
            if cp.supersedes(&self.checkpoint) {
                self.checkpoint = cp.clone();
            }
        }
        for (slot, c) in &s.commits {
            self.commits.insert(*slot, c.clone());
        }
    }
}

/// First slot a checkpoint at `base` does *not* open: two windows are open
/// past a stable checkpoint (PBFT's `h` / `H = h + 2K`), so that the
/// checkpoint between them certifies while the second one fills and no
/// request waits for a certification. Per-slot state stays bounded by two
/// windows, which is what the auditor checks.
fn open_end(base: Slot, window: usize) -> Slot {
    Slot(base.0 + 2 * window as u64)
}

/// Per-slot consensus state.
#[derive(Clone, Debug, Default)]
struct SlotState {
    /// The accepted proposal (from the current leader's stream).
    prepare: Option<Prepare>,
    /// Prepares seen but held until the client request arrives directly.
    held_prepare: Option<Prepare>,
    will_certify: BTreeSet<ReplicaId>,
    will_commit: BTreeSet<ReplicaId>,
    sent_will_certify: bool,
    sent_will_commit: bool,
    /// View in which this replica promised WILL_COMMIT (view-change duty).
    promised_in: Option<View>,
    /// This view's CERTIFY shares, each over the proposal it arrived with
    /// — which may be ahead of ours ([`Engine::handle_certify_share`]).
    shares: ShareSet<Prepare>,
    sent_certify: bool,
    sent_commit: bool,
    /// Replicas whose COMMIT (with matching prepare) we delivered.
    commit_from: BTreeSet<ReplicaId>,
    decided: Option<Batch>,
}

impl SlotState {
    /// Forgets what an undecided slot did in the view that just ended.
    fn enter_view(&mut self) {
        if self.decided.is_none() {
            self.will_certify.clear();
            self.will_commit.clear();
            self.sent_will_certify = false;
            self.sent_will_commit = false;
            self.sent_certify = false;
            self.sent_commit = false;
            self.shares = ShareSet::default();
            self.commit_from.clear();
            self.prepare = None;
        }
    }
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
    /// Entries in the largest of the three per-request maps (payloads seen,
    /// echoes counted, ids proposed). Checkpoints reclaim executed ones, so
    /// this stays within two windows of batches.
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

/// One replica's signature share over `about`.
#[derive(Clone, Debug)]
struct Share<K> {
    about: K,
    sig: Signature,
    state: ShareState,
}

/// Where a [`Share`]'s signature check stands. Only `Verified` shares count
/// toward the certificate; a `Rejected` one stays held, so its signer
/// cannot buy a second verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShareState {
    /// Our own share while the crypto worker signs it — there is no
    /// signature yet, but it is as good as verified. Without it a worker
    /// that runs late checks one peer share more per certificate, which
    /// makes it run later still.
    Signing,
    /// Held unverified: enough other shares are verified or being checked.
    Parked,
    /// A verification job is in flight.
    Checking,
    /// The signature checked out (our own share is born here).
    Verified,
    /// The signature was forged.
    Rejected,
}

/// The shares collected toward one `f + 1` certificate — over the digest of
/// a summary of our own stream (Algorithm 4), the data of a checkpoint
/// (Algorithm 2 line 44) or the proposal of a slot (line 33) — one per
/// signer, each verified by a crypto job and only if it could still
/// complete the certificate.
#[derive(Clone, Debug)]
struct ShareSet<K> {
    by_signer: BTreeMap<ReplicaId, Share<K>>,
}

impl<K> Default for ShareSet<K> {
    fn default() -> Self {
        ShareSet { by_signer: BTreeMap::new() }
    }
}

impl<K: Clone + PartialEq> ShareSet<K> {
    /// Parks `from`'s share unverified; `false` if it already has one here.
    fn admit(&mut self, from: ReplicaId, about: K, sig: Signature) -> bool {
        if self.by_signer.contains_key(&from) {
            return false;
        }
        self.by_signer.insert(from, Share { about, sig, state: ShareState::Parked });
        true
    }

    /// Our own share over `about` went to the crypto worker.
    fn begin_own(&mut self, me: ReplicaId, about: K) {
        let share = Share { about, sig: Signature::garbage(), state: ShareState::Signing };
        self.by_signer.insert(me, share);
    }

    /// Our own share is signed: nothing to verify.
    fn add_own(&mut self, me: ReplicaId, about: K, sig: Signature) {
        self.by_signer.insert(me, Share { about, sig, state: ShareState::Verified });
    }

    /// What our own share attests, signed or being signed.
    fn ours(&self, me: ReplicaId) -> Option<&K> {
        self.by_signer.get(&me).map(|s| &s.about)
    }

    /// Picks the parked shares to verify now, marking them `Checking` — but
    /// only as many as could still complete a certificate. While `quorum`
    /// shares over the same thing are verified or being checked, a further
    /// one stays parked and is looked at again only if one of those checks
    /// fails.
    fn take_to_check(&mut self, quorum: usize) -> Vec<(ReplicaId, K, Signature)> {
        let parked: Vec<ReplicaId> = self
            .by_signer
            .iter()
            .filter(|(_, s)| s.state == ShareState::Parked)
            .map(|(from, _)| *from)
            .collect();
        let mut check = Vec::new();
        for from in parked {
            let Share { about, sig, .. } = self.by_signer[&from].clone();
            let live = self
                .by_signer
                .values()
                .filter(|s| s.about == about)
                .filter(|s| !matches!(s.state, ShareState::Parked | ShareState::Rejected))
                .count();
            if live < quorum {
                self.by_signer.get_mut(&from).expect("listed above").state = ShareState::Checking;
                check.push((from, about, sig));
            }
        }
        check
    }

    /// Records the verdict on `from`'s share, if it is being checked;
    /// returns what it attests if the signature held.
    fn settle(&mut self, from: ReplicaId, ok: bool) -> Option<K> {
        let share = self.by_signer.get_mut(&from).filter(|s| s.state == ShareState::Checking)?;
        share.state = if ok { ShareState::Verified } else { ShareState::Rejected };
        ok.then(|| share.about.clone())
    }

    /// Only shares over `about` can count from now on: the others stay
    /// held — their signers have had their one share — as rejected, and
    /// the rest let go of their own copy of it for the caller's. Returns
    /// whether any share over `about` is held.
    fn keep_only(&mut self, about: &K) -> bool {
        let mut held = false;
        for share in self.by_signer.values_mut() {
            if share.about == *about {
                share.about = about.clone();
                held = true;
            } else {
                share.state = ShareState::Rejected;
            }
        }
        held
    }

    /// The verified shares over `about`.
    fn verified<'a>(&'a self, about: &'a K) -> impl Iterator<Item = (ReplicaId, Signature)> + 'a {
        self.by_signer
            .iter()
            .filter(move |(_, s)| s.state == ShareState::Verified && s.about == *about)
            .map(|(who, s)| (*who, s.sig))
    }

    /// The certificate the verified shares over `about` make, once there
    /// are `quorum` of them.
    fn certificate(&self, about: &K, quorum: usize) -> Option<Certificate> {
        let mut cert = Certificate::new();
        for (who, sig) in self.verified(about) {
            cert.add(ProcessId::Replica(who), sig);
        }
        (cert.count() >= quorum).then_some(cert)
    }
}

/// One peer's [`DirectMsg::JoinAck`], parked until `f + 1` acks arrive.
#[derive(Clone, Debug)]
struct JoinAckData {
    view: View,
    streams: Vec<JoinStream>,
    commits: Vec<(Slot, CommitCert)>,
}

/// A replacement node's in-progress join: the register-bank floor it
/// recovered for its own stream, and the acks collected so far.
#[derive(Clone, Debug)]
struct JoinState {
    reg_floor: SeqId,
    acks: BTreeMap<ReplicaId, JoinAckData>,
}

/// The uBFT replica state machine.
pub struct Engine {
    me: ReplicaId,
    cfg: EngineConfig,
    ring: KeyRing,
    signer: Signer,
    view: View,
    /// Leader only: next slot to propose into.
    next_slot: Slot,
    /// My stable checkpoint.
    checkpoint: CheckpointCert,
    /// Highest checkpoint base already broadcast on our own CTBcast stream.
    /// Peers validate our proposals against the checkpoint they saw on our
    /// stream, so every adoption must be announced there exactly once, and
    /// *before* any proposal into the window it opens.
    cp_broadcast_base: Slot,
    /// Highest view for which we broadcast SEAL_VIEW on our own stream.
    /// Peers accept our NEW_VIEW only after seeing our seal, so entering a
    /// view as leader must announce the seal first.
    seal_emitted: View,
    /// Next slot to hand to the application.
    exec_next: Slot,
    /// Base of the last snapshot taken (a checkpoint adopted by state
    /// transfer counts): execution pauses `window` slots past it for the
    /// next one.
    snapshot_base: Slot,
    /// The base of a snapshot requested and not yet answered: execution is
    /// paused there until [`Engine::on_snapshot`].
    snapshot_pending: Option<Slot>,
    state: BTreeMap<ReplicaId, PeerState>,
    slots: BTreeMap<Slot, SlotState>,
    byzantine: BTreeSet<ReplicaId>,
    /// Requests received directly from clients.
    seen_requests: FixedMap<RequestId, Request>,
    /// Requests seen but not yet executed (liveness tracking); their
    /// content is in `seen_requests`.
    outstanding: BTreeSet<RequestId>,
    /// Highest executed client sequence per client (the dedup cache,
    /// like PBFT's last-reply table) — bounded by
    /// [`EngineConfig::client_cache_cap`] with deterministic LRU
    /// eviction, so every correct replica's table (and hence the
    /// checkpoint-certified [`Engine::exec_table`]) stays identical.
    last_exec_seq: crate::lru::LruMap<ubft_types::ClientId, u64>,
    /// Leader: echo counts per request.
    echoes: FixedMap<RequestId, BTreeSet<ReplicaId>>,
    /// Leader: requests ready to propose.
    propose_queue: VecDeque<Request>,
    /// Leader: queued requests that must be proposed in a slot of their own
    /// because the echo round never completed for them (§5.4). Co-batching
    /// one with fully-echoed requests would make followers hold the whole
    /// prepare and knock every request in the batch off the fast path.
    propose_solo: FixedSet<RequestId>,
    /// Requests already proposed/decided (dedup).
    proposed: FixedSet<RequestId>,
    /// Summary gating (Algorithm 4).
    my_ctb_sent: u64,
    summary_done_upto: u64,
    queued_ctb: VecDeque<CtbMsg>,
    /// Summary shares collected (as broadcaster): upto -> signer -> share.
    /// Bounded: only boundaries in `(summary_done_upto, my_ctb_sent]` are
    /// admitted (at most `tail / summary_half` of them, by the gate) and
    /// each holds one share per replica.
    summary_shares: BTreeMap<u64, ShareSet<Digest>>,
    /// Gap-filling summaries parked while their certificate is verified,
    /// keyed like the [`CryptoTag::SummaryCert`] that will release them.
    summary_checks: BTreeMap<(ReplicaId, SeqId), StateSummary>,
    /// Crypto jobs queued for the driver ([`Engine::take_crypto_jobs`]).
    crypto_jobs: Vec<CryptoJob>,
    /// View-change shares collected (as incoming leader), keyed by
    /// `(view, about)` — shares signed in different views cover different
    /// bytes and must never be merged into one certificate.
    vc_shares: HashMap<(View, ReplicaId), HashMap<Digest, (StateSummary, Certificate)>>,
    /// Slots with an outstanding WILL_COMMIT promise blocking our SEAL_VIEW.
    sealing: Option<View>,
    /// The view for which we (as leader) have broadcast NEW_VIEW.
    new_view_broadcast: Option<View>,
    /// Certificates already verified (content digest), to avoid re-metering.
    verified_certs: FixedSet<Digest>,
    /// Checkpoint shares collected: base -> signer -> share. Each share
    /// carries the *full* signed data (base, app digest, exec digest), so
    /// shares over different exec tables never mix into one certificate.
    /// Bounded: only the two bases execution can reach before the stable
    /// checkpoint moves are admitted ([`Engine::handle_checkpoint_share`])
    /// and each holds one share per replica.
    cp_shares: BTreeMap<Slot, ShareSet<CheckpointData>>,
    /// Checkpoint *data* already proven: assembling our own certificate
    /// from individually verified shares, or a
    /// [`CryptoTag::CheckpointCert`] job on any peer's certificate, proves
    /// the data once and for all — a different certificate over the same
    /// data adds nothing. A `CHECKPOINT` is interpreted only once its data
    /// is in here; until then it parks its stream ([`AwaitedProof`]). Kept down
    /// to one window below the stable base: a leader whose proposals we
    /// can still use is at most that far behind, and its crypto worker —
    /// the busiest — is the one that announces a checkpoint last.
    verified_cp_data: FixedSet<CheckpointData>,
    /// Decide counter for the progress watchdog.
    decide_count: u64,
    armed_marker: u64,
    /// Consecutive fruitless view changes (PBFT-style timeout backoff);
    /// reset on every decide.
    vc_streak: u32,
    /// Replacement-node join in progress ([`Engine::begin_join`]).
    join: Option<JoinState>,
    /// Proven CTBcast equivocations, one per branded stream.
    equivocations: Vec<(ReplicaId, SeqId)>,
    /// Replicas whose WILL_COMMIT was missing when a slot's fast-path
    /// timeout fired. While anyone is suspected the fast path cannot reach
    /// unanimity, so a newly accepted prepare starts the slow path at once
    /// instead of waiting out the timeout again; any consensus frame from
    /// the replica (a [`TbMsg`], an echo, a join) clears it.
    suspected: BTreeSet<ReplicaId>,
    /// Decisions recorded for the auditor (only when
    /// [`EngineConfig::record_decisions`] is set).
    decisions: Vec<DecisionRecord>,
    ops: CryptoOps,
}

impl Engine {
    /// Creates a replica engine.
    ///
    /// # Panics
    ///
    /// Panics if `ring` has no key for `me`.
    pub fn new(me: ReplicaId, cfg: EngineConfig, ring: KeyRing) -> Self {
        let signer = ring.signer(ProcessId::Replica(me)).expect("key for me");
        let state = cfg.params.replicas().map(|r| (r, PeerState::new())).collect();
        // The hash maps below whose keys clients or peers choose hash the
        // same in every run of a seed (`ubft_types::hash`), under a key only
        // this replica holds.
        let hash_state = signer.hash_state();
        // A request re-proposed across a view change may occupy a second
        // slot, and that slot must land inside the acceptance window —
        // within 2 windows of the first. At most `2 · window · max_batch`
        // distinct clients execute in that span, so flooring the dedup
        // capacity there guarantees an in-flight request's entry is never
        // evicted before its duplicate executes: eviction can only forget
        // clients whose requests are fully settled.
        let dedup_floor = 2 * cfg.params.window * cfg.max_batch.max(1);
        let client_cache_cap = cfg.client_cache_cap.map(|c| c.max(dedup_floor));
        Engine {
            me,
            cfg,
            ring,
            signer,
            view: View(0),
            next_slot: Slot(0),
            checkpoint: CheckpointCert::genesis(),
            cp_broadcast_base: Slot(0),
            seal_emitted: View(0),
            exec_next: Slot(0),
            snapshot_base: Slot(0),
            snapshot_pending: None,
            state,
            slots: BTreeMap::new(),
            byzantine: BTreeSet::new(),
            seen_requests: FixedMap::with_hasher(hash_state),
            outstanding: BTreeSet::new(),
            last_exec_seq: crate::lru::LruMap::new(client_cache_cap, hash_state),
            echoes: FixedMap::with_hasher(hash_state),
            propose_queue: VecDeque::new(),
            propose_solo: FixedSet::with_hasher(hash_state),
            proposed: FixedSet::with_hasher(hash_state),
            my_ctb_sent: 0,
            summary_done_upto: 0,
            queued_ctb: VecDeque::new(),
            summary_shares: BTreeMap::new(),
            summary_checks: BTreeMap::new(),
            crypto_jobs: Vec::new(),
            vc_shares: HashMap::new(),
            sealing: None,
            new_view_broadcast: None,
            verified_certs: FixedSet::with_hasher(hash_state),
            cp_shares: BTreeMap::new(),
            verified_cp_data: FixedSet::with_hasher(hash_state),
            decide_count: 0,
            armed_marker: 0,
            vc_streak: 0,
            join: None,
            equivocations: Vec::new(),
            suspected: BTreeSet::new(),
            decisions: Vec::new(),
            ops: CryptoOps::default(),
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The current leader.
    pub fn leader(&self) -> ReplicaId {
        self.view.leader(self.cfg.params.n())
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// Number of requests decided so far.
    pub fn decided_count(&self) -> u64 {
        self.decide_count
    }

    /// First slot not yet executed.
    pub fn exec_next(&self) -> Slot {
        self.exec_next
    }

    /// Replicas this engine has branded Byzantine.
    pub fn byzantine_peers(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.byzantine.iter().copied()
    }

    /// The next CTBcast id this engine expects from `stream`'s broadcast
    /// sequence (FIFO interpretation position; diagnostics).
    pub fn fifo_position(&self, stream: ReplicaId) -> SeqId {
        self.state.get(&stream).map_or(SeqId(1), |ps| ps.fifo_next)
    }

    /// Snapshots the protocol state for diagnostics.
    pub fn diag(&self) -> EngineDiag {
        EngineDiag {
            me: self.me,
            view: self.view,
            sealing: self.sealing,
            decided: self.decide_count,
            exec_next: self.exec_next,
            next_slot: self.next_slot,
            in_flight: self.in_flight_slots(),
            checkpoint_base: self.checkpoint.data.base,
            snapshot_pending: self.snapshot_pending,
            parked_streams: self.state.values().filter(|ps| ps.parked.is_some()).count(),
            checkpoint_shares: self.cp_shares.values().map(|s| s.by_signer.len()).sum(),
            outstanding: self.outstanding.len(),
            request_entries: self
                .seen_requests
                .len()
                .max(self.echoes.len())
                .max(self.proposed.len()),
            propose_queue: self.propose_queue.len(),
            open_prepares: self
                .slots
                .values()
                .filter(|s| s.prepare.is_some() && s.decided.is_none())
                .count(),
            ctb_sent: self.my_ctb_sent,
            summary_done: self.summary_done_upto,
            ctb_queued: self.queued_ctb.len(),
            byzantine: self.byzantine.len(),
            equivocations: self.equivocations.clone(),
            joining: self.join.is_some(),
        }
    }

    /// Drains the crypto-operation meter accumulated since the last call.
    pub fn take_crypto_ops(&mut self) -> CryptoOps {
        std::mem::take(&mut self.ops)
    }

    /// Drains the crypto jobs queued since the last call. A driver with a
    /// crypto worker calls this after *every* engine call, runs each job
    /// there ([`CryptoJob::run`]) and reports back through
    /// [`Engine::on_crypto_done`]; the request path never waits for them.
    pub fn take_crypto_jobs(&mut self) -> std::vec::Drain<'_, CryptoJob> {
        self.crypto_jobs.drain(..)
    }

    /// Jobs no driver collected by the time the next input arrives are run
    /// here with this replica's own keys, so a harness with no crypto
    /// worker (a perfect fabric that only routes [`Effect`]s) still
    /// completes its summaries. Both runtimes collect after every call and
    /// never reach the loop body.
    fn run_unclaimed_jobs(&mut self) -> Vec<Effect> {
        let mut fx = Vec::new();
        while !self.crypto_jobs.is_empty() {
            for job in std::mem::take(&mut self.crypto_jobs) {
                self.ops.add(job.ops());
                let result = job.run(&self.signer, &self.ring);
                fx.extend(self.on_crypto_done(job.tag, result));
            }
        }
        fx
    }

    /// Drains the decision records accumulated since the last call (always
    /// empty unless [`EngineConfig::record_decisions`] is set).
    pub fn take_decisions(&mut self) -> Vec<DecisionRecord> {
        std::mem::take(&mut self.decisions)
    }

    /// CTBcast messages sent on our own stream (summary-stall detection).
    pub fn ctb_sent_count(&self) -> u64 {
        self.my_ctb_sent
    }

    /// Highest own-stream CTBcast id covered by a completed summary.
    pub fn ctb_summarized_upto(&self) -> u64 {
        self.summary_done_upto
    }

    /// The summary trigger interval this engine runs with
    /// ([`EngineConfig::summary_half`]) — the boundary the runtime's
    /// summary-stall watchdog compares against, read from the engine so
    /// the two can never drift.
    pub fn summary_half(&self) -> u64 {
        self.cfg.summary_half
    }

    fn quorum(&self) -> usize {
        self.cfg.params.quorum()
    }

    fn n(&self) -> usize {
        self.cfg.params.n()
    }

    fn window(&self) -> usize {
        self.cfg.params.window
    }

    fn sign(&mut self, bytes: &[u8]) -> ubft_crypto::Signature {
        self.ops.signs += 1;
        self.signer.sign(bytes)
    }

    fn verify(&mut self, who: ReplicaId, bytes: &[u8], sig: &ubft_crypto::Signature) -> bool {
        self.ops.verifies += 1;
        self.ring.verify(ProcessId::Replica(who), bytes, sig)
    }

    /// Verifies a certificate once per content; repeated identical
    /// certificates cost nothing (verification caching).
    fn verify_cert(&mut self, cert: &Certificate, bytes: &[u8], quorum: usize) -> bool {
        let mut key = bytes.to_vec();
        use ubft_types::wire::Wire;
        cert.encode(&mut key);
        let digest = ubft_crypto::sha256(&key);
        if self.verified_certs.contains(&digest) {
            return true;
        }
        self.ops.verifies += cert.count() as u32;
        let ok = cert.verify(&self.ring, bytes, quorum);
        if ok {
            self.verified_certs.insert(digest);
        }
        ok
    }

    /// Registers a locally-built certificate as verified (it is made of
    /// shares we already checked), so re-verification costs nothing.
    fn note_own_cert(&mut self, cert: &Certificate, bytes: &[u8]) {
        let mut key = bytes.to_vec();
        use ubft_types::wire::Wire;
        cert.encode(&mut key);
        self.verified_certs.insert(ubft_crypto::sha256(&key));
    }

    // ------------------------------------------------------------------
    // CTBcast emission with summary gating (Algorithm 4 lines 4–9)
    // ------------------------------------------------------------------

    fn ctb_gate_open(&self) -> bool {
        // A joining replacement must not broadcast before it has adopted
        // its own stream's cursor: an id below what peers already
        // interpreted would be dropped as a duplicate forever. Everything
        // queues until the join completes and flushes.
        if self.join.is_some() {
            return false;
        }
        // May run at most `t` messages past the last summarized boundary —
        // the CTBcast tail is the hard budget. With summaries triggered
        // every `t/2` (the default), the next summary is already being
        // collected while the second half of the budget is spent (double
        // buffering, §5.2 footnote 3); triggering only every `t` makes the
        // broadcaster stall at each boundary for a full summary round-trip.
        self.my_ctb_sent < self.summary_done_upto + self.cfg.params.tail as u64
    }

    fn emit_ctb(&mut self, fx: &mut Vec<Effect>, msg: CtbMsg) {
        if self.ctb_gate_open() && self.queued_ctb.is_empty() {
            self.my_ctb_sent += 1;
            fx.push(Effect::CtbBroadcast(msg));
        } else {
            self.queued_ctb.push_back(msg);
        }
    }

    fn flush_ctb_queue(&mut self, fx: &mut Vec<Effect>) {
        while !self.queued_ctb.is_empty() && self.ctb_gate_open() {
            let msg = self.queued_ctb.pop_front().expect("nonempty");
            self.my_ctb_sent += 1;
            fx.push(Effect::CtbBroadcast(msg));
        }
    }

    // ------------------------------------------------------------------
    // Client requests and the echo round (§5.4)
    // ------------------------------------------------------------------

    fn already_executed(&self, id: &RequestId) -> bool {
        self.last_exec_seq.get(&id.client).is_some_and(|hi| *hi > id.seq)
    }

    /// A client request arrived directly at this replica.
    pub fn on_client_request(&mut self, req: Request) -> Vec<Effect> {
        let mut fx = self.run_unclaimed_jobs();
        if self.already_executed(&req.id) {
            // Executed requests are re-answered by the runtime's last-reply
            // cache; nothing to order again.
            return fx;
        }
        if self.seen_requests.contains_key(&req.id) {
            // A duplicate receipt means the client timed out and is
            // retransmitting: our original echo (or the proposal path) may
            // have been lost to a partition or crash — re-drive it instead
            // of swallowing the request.
            if self.is_leader() {
                self.maybe_enqueue_proposal(req.id);
                self.propose_ready(&mut fx);
            } else {
                let req = self.seen_requests[&req.id].clone();
                fx.push(Effect::SendReplica { to: self.leader(), msg: DirectMsg::Echo { req } });
            }
            return fx;
        }
        let id = req.id;
        self.outstanding.insert(id);
        if self.is_leader() {
            self.seen_requests.insert(id, req);
            self.echoes.entry(id).or_default();
            self.maybe_enqueue_proposal(id);
            if !self.proposed.contains(&id) {
                fx.push(Effect::ArmTimer { kind: TimerKind::EchoFallback(id) });
            }
        } else {
            // The follower's one copy: it keeps the request and echoes it.
            self.seen_requests.insert(id, req.clone());
            fx.push(Effect::SendReplica { to: self.leader(), msg: DirectMsg::Echo { req } });
        }
        // A held prepare may now be acceptable.
        fx.extend(self.retry_held_prepares());
        self.propose_ready(&mut fx);
        fx
    }

    /// A follower echoed a client request to us (we may be the leader).
    pub fn on_echo(&mut self, from: ReplicaId, req: Request) -> Vec<Effect> {
        let mut fx = Vec::new();
        self.suspected.remove(&from);
        if !self.is_leader() {
            return fx;
        }
        let id = req.id;
        self.echoes.entry(id).or_default().insert(from);
        if !self.seen_requests.contains_key(&id) && !self.already_executed(&id) {
            // We may yet receive it directly; remember the content so an
            // echo-quorum can still propose it.
            self.seen_requests.insert(id, req);
            self.outstanding.insert(id);
        }
        self.maybe_enqueue_proposal(id);
        self.propose_ready(&mut fx);
        fx
    }

    /// The echo-fallback timer for `id` fired: propose without full echoes.
    pub fn on_echo_timeout(&mut self, id: RequestId) -> Vec<Effect> {
        let mut fx = Vec::new();
        if self.is_leader() && !self.proposed.contains(&id) {
            if let Some(req) = self.seen_requests.get(&id).cloned() {
                self.proposed.insert(id);
                // Some follower may never have seen this request (that is
                // why the timer fired); keep it out of shared batches so
                // only its own slot is held under §5.4.
                self.propose_solo.insert(id);
                self.propose_queue.push_back(req);
            }
        }
        self.propose_ready(&mut fx);
        fx
    }

    fn maybe_enqueue_proposal(&mut self, id: RequestId) {
        if self.proposed.contains(&id) {
            return;
        }
        let echoes = self.echoes.get(&id).map_or(0, |s| s.len());
        let have_direct = self.seen_requests.contains_key(&id);
        // Echo round: all followers must have echoed (they hold the request)
        // before the leader proposes; the EchoFallback timer covers
        // Byzantine silence. After a view change the echo requirement is
        // dropped (followers accept re-proposals without direct receipt).
        let enough_echoes = !self.cfg.echo_round || echoes >= self.n() - 1 || self.view > View(0);
        if have_direct && enough_echoes {
            self.proposed.insert(id);
            let req = self.seen_requests.get(&id).cloned().expect("have_direct");
            self.propose_queue.push_back(req);
        }
    }

    /// Slots this leader has proposed but not yet executed — the pipeline
    /// fill the `pipeline_depth` gate bounds.
    fn in_flight_slots(&self) -> u64 {
        self.next_slot.0.saturating_sub(self.exec_next.0)
    }

    fn propose_ready(&mut self, fx: &mut Vec<Effect>) {
        if !self.is_leader() || self.sealing.is_some() || self.join.is_some() {
            return;
        }
        // Algorithm 2 line 15: in views > 0 the leader may propose only
        // after broadcasting NEW_VIEW.
        if self.view > View(0) && self.new_view_broadcast != Some(self.view) {
            return;
        }
        // Algorithm 2 line 15: only into open slots; NEW_VIEW must have been
        // broadcast first in views > 0 (ensured by `enter_view_as_leader`).
        if self.next_slot < self.checkpoint.data.base {
            self.next_slot = self.checkpoint.data.base;
        }
        let depth = self.cfg.pipeline_depth.max(1) as u64;
        let max_batch = self.cfg.max_batch.max(1);
        while self.in_open_window(self.next_slot)
            && !self.propose_queue.is_empty()
            && self.in_flight_slots() < depth
        {
            // Flush up to `max_batch` queued requests into one slot. While
            // the pipeline is full the queue keeps growing, so under load
            // batches widen toward `max_batch` on their own. Requests whose
            // echo round timed out go alone: the flush stops at (or takes
            // exactly) the first solo request.
            let mut take = 0;
            for req in self.propose_queue.iter().take(max_batch) {
                if self.propose_solo.contains(&req.id) {
                    if take == 0 {
                        take = 1;
                    }
                    break;
                }
                take += 1;
            }
            let reqs: Vec<Request> = self.propose_queue.drain(..take).collect();
            for req in &reqs {
                self.propose_solo.remove(&req.id);
            }
            let slot = self.next_slot;
            self.next_slot = self.next_slot.next();
            let prepare = Prepare { view: self.view, slot, batch: Batch::new(reqs) };
            self.emit_ctb(fx, CtbMsg::Prepare(prepare));
        }
    }

    // ------------------------------------------------------------------
    // CTBcast stream interpretation: FIFO + Byzantine checks (Alg. 5)
    // ------------------------------------------------------------------

    /// A CTBcast message `(k, msg)` was delivered from `stream`.
    pub fn on_ctb_deliver(&mut self, stream: ReplicaId, k: SeqId, msg: CtbMsg) -> Vec<Effect> {
        let mut fx = self.run_unclaimed_jobs();
        if self.byzantine.contains(&stream) {
            return fx;
        }
        {
            let ps = self.state.get_mut(&stream).expect("known replica");
            if k < ps.fifo_next {
                return fx; // duplicate
            }
            if k > ps.fifo_next || ps.parked.is_some() {
                // A gap (wait for predecessors or a summary), or the head
                // of the stream is parked: FIFO interpretation is strict,
                // so everything behind it waits too.
                ps.pending.insert(k, msg);
                return fx;
            }
        }
        self.process_ctb_in_order(stream, k, msg, &mut fx);
        self.drain_pending(stream, &mut fx);
        fx
    }

    /// CTBcast reported proof of equivocation on `stream` at sequence `k`.
    pub fn on_ctb_equivocation(&mut self, stream: ReplicaId, k: SeqId) -> Vec<Effect> {
        if stream != self.me && !self.byzantine.contains(&stream) {
            // The first proven conflict per stream is the evidence an
            // operator wants; later ones add nothing (the stream is
            // already blocked).
            self.equivocations.push((stream, k));
        }
        self.brand_byzantine(stream, format!("ctbcast equivocation at k={}", k.0))
    }

    fn brand_byzantine(&mut self, who: ReplicaId, reason: String) -> Vec<Effect> {
        if who == self.me || !self.byzantine.insert(who) {
            return Vec::new();
        }
        vec![Effect::ByzantineDetected { replica: who, reason }]
    }

    fn drain_pending(&mut self, stream: ReplicaId, fx: &mut Vec<Effect>) {
        loop {
            if self.byzantine.contains(&stream) {
                return;
            }
            let next = {
                let ps = self.state.get_mut(&stream).expect("known");
                if ps.parked.is_some() {
                    return;
                }
                let k = ps.fifo_next;
                match ps.pending.remove(&k) {
                    Some(m) => (k, m),
                    None => return,
                }
            };
            self.process_ctb_in_order(stream, next.0, next.1, fx);
        }
    }

    fn process_ctb_in_order(
        &mut self,
        stream: ReplicaId,
        k: SeqId,
        msg: CtbMsg,
        fx: &mut Vec<Effect>,
    ) {
        // A CHECKPOINT whose certificate is not proven yet waits at the
        // head of its stream, and only this stream waits with it: its
        // cursor stays put and later ids pile up in `pending`.
        if let CtbMsg::Checkpoint(c) = &msg {
            let fresh = c.supersedes(&self.state.get(&stream).expect("known").checkpoint);
            if fresh && !self.verified_cp_data.contains(&c.data) {
                let proof = self.seek_checkpoint_proof(stream, k, c);
                let ps = self.state.get_mut(&stream).expect("known");
                ps.parked = Some(proof);
                ps.pending.insert(k, msg);
                return;
            }
        }
        {
            let ps = self.state.get_mut(&stream).expect("known");
            debug_assert_eq!(ps.fifo_next, k);
            ps.fifo_next = k.next();
        }
        // Algorithm 5 validity checks; a failure brands the stream.
        if let Err(reason) = self.check_valid(stream, &msg) {
            fx.extend(self.brand_byzantine(stream, reason));
            return;
        }
        match msg {
            CtbMsg::Prepare(p) => self.handle_prepare(stream, p, fx),
            CtbMsg::Commit(c) => self.handle_commit(stream, c, fx),
            CtbMsg::Checkpoint(c) => self.handle_checkpoint_msg(stream, c, fx),
            CtbMsg::SealView { view } => self.handle_seal_view(stream, view, fx),
            CtbMsg::NewView { view, certs } => self.handle_new_view(stream, view, certs, fx),
        }
        // Algorithm 4 line 1: a summary share at every boundary. Signing is
        // a job: the share leaves (or, on our own stream, starts the
        // collection) when its completion arrives, and the message that
        // crossed the boundary is not held up by it.
        if k.0.is_multiple_of(self.cfg.summary_half) {
            let digest = self.state.get(&stream).expect("known").summary().digest();
            if stream == self.me && k.0 > self.summary_done_upto {
                self.summary_shares.entry(k.0).or_default().begin_own(self.me, digest);
            }
            self.crypto_jobs.push(CryptoJob {
                tag: CryptoTag::SummaryShare { stream, upto: k, digest },
                work: CryptoWork::Sign { bytes: summary_sign_bytes(stream, k, &digest) },
            });
        }
    }

    fn check_valid(&mut self, p: ReplicaId, msg: &CtbMsg) -> Result<(), String> {
        let window = self.window();
        match msg {
            CtbMsg::Prepare(prep) => {
                let ps = self.state.get(&p).expect("known");
                if prep.view.leader(self.n()) != p {
                    return Err(format!("prepare by non-leader of {}", prep.view));
                }
                if ps.view != prep.view {
                    return Err(format!("prepare in {} but peer is in {}", prep.view, ps.view));
                }
                if !ps.in_window(prep.slot, window) {
                    return Err(format!("prepare for {} outside window", prep.slot));
                }
                if ps.prepares.get(&prep.slot).is_some_and(|old| old.view == prep.view) {
                    return Err(format!("double prepare for {}", prep.slot));
                }
                if prep.view > View(0) {
                    let ps = self.state.get(&p).expect("known");
                    let Some(certs) = ps.new_view.clone() else {
                        return Err("prepare before new-view".into());
                    };
                    if let Some(required) = must_propose(prep.slot, &certs) {
                        if required.digest() != prep.batch.digest() {
                            return Err(format!(
                                "prepare for {} ignores committed value",
                                prep.slot
                            ));
                        }
                    }
                }
                Ok(())
            }
            CtbMsg::Commit(c) => {
                let ps = self.state.get(&p).expect("known");
                if !ps.in_window(c.prepare.slot, window) {
                    return Err(format!("commit for {} outside window", c.prepare.slot));
                }
                if c.prepare.view != ps.view {
                    return Err(format!("commit in stale {}", c.prepare.view));
                }
                // The certificate itself: f+1 valid signatures over the
                // prepare. Verified lazily unless we certified it ourselves
                // — checked f+1 shares over this very proposal one by one.
                let bytes = c.prepare.certify_bytes();
                let own = self
                    .slots
                    .get(&c.prepare.slot)
                    .is_some_and(|s| s.shares.verified(&c.prepare).count() >= self.quorum());
                if !own && !self.verify_cert(&c.cert.clone(), &bytes, self.quorum()) {
                    return Err("commit with invalid certificate".into());
                }
                Ok(())
            }
            CtbMsg::Checkpoint(c) => {
                let ps = self.state.get(&p).expect("known");
                if !c.supersedes(&ps.checkpoint) {
                    return Err("stale checkpoint".into());
                }
                // Its certificate was proven before it got here
                // (`process_ctb_in_order` parks an unproven one).
                debug_assert!(self.verified_cp_data.contains(&c.data));
                Ok(())
            }
            CtbMsg::SealView { view } => {
                let ps = self.state.get(&p).expect("known");
                if ps.view >= *view {
                    return Err(format!("seal of non-future {view}"));
                }
                Ok(())
            }
            CtbMsg::NewView { view, certs } => {
                let ps = self.state.get(&p).expect("known");
                if view.leader(self.n()) != p {
                    return Err(format!("new-view by non-leader of {view}"));
                }
                if ps.view != *view {
                    return Err("new-view for wrong view".into());
                }
                if ps.new_view.is_some() {
                    return Err("duplicate new-view".into());
                }
                if certs.len() < self.quorum() {
                    return Err("new-view with too few certificates".into());
                }
                let mut seen = BTreeSet::new();
                for c in certs {
                    if !seen.insert(c.about) {
                        return Err("new-view with duplicate certificate subject".into());
                    }
                    let digest = c.summary.digest();
                    let bytes = vc_sign_bytes(*view, c.about, &digest);
                    if !self.verify_cert(&c.cert.clone(), &bytes, self.quorum()) {
                        return Err("new-view with invalid certificate".into());
                    }
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Common case (Algorithm 2)
    // ------------------------------------------------------------------

    fn handle_prepare(&mut self, stream: ReplicaId, prep: Prepare, fx: &mut Vec<Effect>) {
        let ps = self.state.get_mut(&stream).expect("known");
        ps.prepares.insert(prep.slot, prep.clone());
        if prep.view != self.view || !self.in_open_window(prep.slot) {
            return;
        }
        // §5.4: endorse only requests received directly from the client
        // (no-ops and view-change re-proposals are exempt).
        if prep.view == View(0) && !batch_endorsed(&prep.batch, &self.seen_requests) {
            let entry = self.slots.entry(prep.slot).or_default();
            entry.held_prepare = Some(prep);
            return;
        }
        self.accept_prepare(prep, fx);
    }

    fn retry_held_prepares(&mut self) -> Vec<Effect> {
        let mut fx = Vec::new();
        let held: Vec<Prepare> = self
            .slots
            .values_mut()
            .filter_map(|s| {
                let ok = s
                    .held_prepare
                    .as_ref()
                    .is_some_and(|p| batch_endorsed(&p.batch, &self.seen_requests));
                if ok {
                    s.held_prepare.take()
                } else {
                    None
                }
            })
            .collect();
        for p in held {
            self.accept_prepare(p, &mut fx);
        }
        fx
    }

    fn accept_prepare(&mut self, prep: Prepare, fx: &mut Vec<Effect>) {
        let slot = prep.slot;
        let entry = self.slots.entry(slot).or_default();
        if entry.prepare.is_some() {
            return;
        }
        entry.prepare = Some(prep.clone());
        // Shares that got here ahead of the PREPARE: one over anything else
        // can never count, and one over this very proposal means a peer is
        // on the slow path already and waits for our share.
        let solicited = entry.shares.keep_only(&prep);
        match self.cfg.path {
            PathMode::FastOnly | PathMode::FastWithFallback => {
                let entry = self.slots.entry(slot).or_default();
                if !entry.sent_will_certify {
                    entry.sent_will_certify = true;
                    fx.push(Effect::TbBroadcast(TbMsg::WillCertify { view: prep.view, slot }));
                }
                if self.cfg.path == PathMode::FastWithFallback {
                    if self.suspected.is_empty() && !solicited {
                        fx.push(Effect::ArmTimer { kind: TimerKind::SlotSlowTrigger(slot) });
                    } else {
                        // A replica is known to be silent: the timeout
                        // would only re-discover it.
                        fx.extend(self.start_slow_path(slot));
                    }
                }
            }
            PathMode::SlowOnly => {
                fx.extend(self.start_slow_path(slot));
            }
        }
    }

    /// Starts (or resumes) the slow path for `slot`: sign and broadcast our
    /// CERTIFY share.
    fn start_slow_path(&mut self, slot: Slot) -> Vec<Effect> {
        let mut fx = Vec::new();
        let unsent = self.slots.get(&slot).filter(|s| !s.sent_certify);
        let Some(prep) = unsent.and_then(|s| s.prepare.clone()) else {
            return fx;
        };
        let sig = self.sign(&prep.certify_bytes());
        let entry = self.slots.get_mut(&slot).expect("just read");
        entry.sent_certify = true;
        // Our own share counts immediately.
        entry.shares.add_own(self.me, prep.clone(), sig);
        fx.push(Effect::TbBroadcast(TbMsg::Certify { prepare: prep, sig }));
        fx.extend(self.maybe_commit(slot));
        fx
    }

    /// The fast-path timeout fired for `slot`: if it is still undecided,
    /// start the slow path and suspect every replica whose WILL_COMMIT is
    /// missing.
    pub fn on_slot_slow_trigger(&mut self, slot: Slot) -> Vec<Effect> {
        let Some(state) = self.slots.get(&slot).filter(|s| s.decided.is_none()) else {
            return Vec::new();
        };
        let silent =
            self.cfg.params.replicas().filter(|r| *r != self.me && !state.will_commit.contains(r));
        self.suspected.extend(silent);
        self.start_slow_path(slot)
    }

    /// A consensus TBcast message arrived from `from`.
    pub fn on_tb_deliver(&mut self, from: ReplicaId, msg: TbMsg) -> Vec<Effect> {
        let mut fx = self.run_unclaimed_jobs();
        self.suspected.remove(&from);
        if self.byzantine.contains(&from) {
            return fx;
        }
        match msg {
            TbMsg::WillCertify { view, slot } => {
                if view != self.view || !self.in_open_window(slot) {
                    return fx;
                }
                let n = self.n();
                let entry = self.slots.entry(slot).or_default();
                entry.will_certify.insert(from);
                if entry.will_certify.len() == n && !entry.sent_will_commit {
                    entry.sent_will_commit = true;
                    entry.promised_in = Some(view);
                    fx.push(Effect::TbBroadcast(TbMsg::WillCommit { view, slot }));
                }
            }
            TbMsg::WillCommit { view, slot } => {
                if view != self.view || !self.in_open_window(slot) {
                    return fx;
                }
                let entry = self.slots.entry(slot).or_default();
                entry.will_commit.insert(from);
                let votes = entry.will_commit.len();
                // Algorithm 2: the signature-less fast path decides only on
                // *unanimity*. The test_decide_early mutation hook skips
                // that check so the auditor's coverage invariant can be
                // demonstrated to catch the resulting unsafe decision.
                if votes == self.n() || (self.cfg.test_decide_early && votes >= 1) {
                    let leader_prep = self
                        .state
                        .get(&view.leader(self.n()))
                        .and_then(|ps| ps.prepares.get(&slot))
                        .cloned();
                    if let Some(prep) = leader_prep {
                        fx.extend(self.decide(
                            slot,
                            prep.batch,
                            DecisionEvidence::FastQuorum { votes },
                        ));
                    }
                }
            }
            TbMsg::Certify { prepare, sig } => {
                fx.extend(self.handle_certify_share(from, prepare, sig));
            }
            TbMsg::CertifyCheckpoint { data, sig } => {
                self.handle_checkpoint_share(from, data, sig);
            }
            TbMsg::Summary { upto, summary, cert } => {
                self.handle_summary(from, upto, summary, cert);
            }
        }
        fx
    }

    /// A CERTIFY share arrived. It is admitted — one per signer per slot per
    /// view — whether or not its PREPARE has finished CTBcast here: the
    /// leader delivers its own proposal a verification ahead of everybody
    /// else, so its share is early at every follower, and checking it while
    /// the PREPARE is still on its way takes that check off the request's
    /// blocking chain. The signature goes to the crypto worker only while it
    /// could still complete a certificate, and counts once
    /// [`CryptoTag::CertifyShareCheck`] comes back `true` and the proposal
    /// it signs is the one we accepted.
    fn handle_certify_share(
        &mut self,
        from: ReplicaId,
        prepare: Prepare,
        sig: Signature,
    ) -> Vec<Effect> {
        let mut fx = Vec::new();
        let slot = prepare.slot;
        // Our own share is added where it is signed.
        if from == self.me || prepare.view != self.view || !self.in_open_window(slot) {
            return fx;
        }
        if self.slots.get(&slot).is_none_or(|s| s.prepare.is_none()) {
            // A peer started the slow path for a proposal we hold back:
            // accept it now if it is the one on the leader's stream.
            let leader = self.state.get(&prepare.view.leader(self.n())).expect("known");
            if leader.prepares.get(&slot) == Some(&prepare) {
                self.accept_prepare(prepare.clone(), &mut fx);
            }
        }
        let entry = self.slots.entry(slot).or_default();
        let accepted = entry.prepare.is_some();
        let about = match &entry.prepare {
            // A share over anything but what we accepted can never count.
            Some(ours) if *ours != prepare => return fx,
            // One copy of the proposal per slot, not one per share.
            Some(ours) => ours.clone(),
            None => prepare,
        };
        if !entry.shares.admit(from, about, sig) {
            return fx;
        }
        // A peer soliciting the slow path recruits us as soon as its share
        // is admitted, even for a slot we decided on the fast path: such a
        // decider holds no certificate and its slow trigger skips decided
        // slots, so without our share a peer discharging a WILL_COMMIT
        // promise could stay one signature short of `f + 1` forever (the
        // chaos explorer found that). Waiting for the verdict would buy
        // nothing — we sign only what we accepted, which a silent peer can
        // force too — and put the check back on the blocking chain
        // whenever one replica is down.
        if accepted && self.cfg.path != PathMode::FastOnly {
            fx.extend(self.start_slow_path(slot));
        }
        self.check_parked_certify_shares(slot);
        fx
    }

    /// Starts verifying the parked CERTIFY shares of `slot` that could
    /// still complete a certificate ([`ShareSet::take_to_check`]).
    fn check_parked_certify_shares(&mut self, slot: Slot) {
        let (view, quorum) = (self.view, self.quorum());
        let Some(entry) = self.slots.get_mut(&slot) else {
            return;
        };
        for (from, prepare, sig) in entry.shares.take_to_check(quorum) {
            self.crypto_jobs.push(CryptoJob {
                tag: CryptoTag::CertifyShareCheck { from, slot, view },
                work: CryptoWork::Verify { who: from, bytes: prepare.certify_bytes(), sig },
            });
        }
    }

    /// Once we hold an `f + 1` certificate for our prepare, broadcast COMMIT
    /// via CTBcast (Algorithm 2 line 36).
    fn maybe_commit(&mut self, slot: Slot) -> Vec<Effect> {
        let mut fx = Vec::new();
        let quorum = self.quorum();
        let Some(entry) = self.slots.get_mut(&slot).filter(|s| !s.sent_commit) else {
            return fx;
        };
        let Some(prepare) = entry.prepare.clone() else { return fx };
        let Some(cert) = entry.shares.certificate(&prepare, quorum) else { return fx };
        entry.sent_commit = true;
        self.note_own_cert(&cert, &prepare.certify_bytes());
        self.emit_ctb(&mut fx, CtbMsg::Commit(CommitCert { prepare, cert }));
        fx.extend(self.check_seal_ready());
        fx
    }

    fn handle_commit(&mut self, stream: ReplicaId, c: CommitCert, fx: &mut Vec<Effect>) {
        let slot = c.prepare.slot;
        {
            let ps = self.state.get_mut(&stream).expect("known");
            ps.commits.insert(slot, c.clone());
        }
        if c.prepare.view != self.view || !self.in_open_window(slot) {
            return;
        }
        // Count COMMITs whose prepare matches; f+1 of them decide the slot
        // (Algorithm 2 lines 38–41).
        let entry = self.slots.entry(slot).or_default();
        if let Some(our_prep) = entry.prepare.clone() {
            if !our_prep.digest_eq(&c.prepare) {
                return; // conflicting commit; view change will sort it out
            }
        } else {
            entry.prepare = Some(c.prepare.clone());
        }
        let entry = self.slots.entry(slot).or_default();
        entry.commit_from.insert(stream);
        let commits = entry.commit_from.len();
        if commits >= self.quorum() || (self.cfg.test_decide_early && commits >= 1) {
            let batch = c.prepare.batch.clone();
            fx.extend(self.decide(slot, batch, DecisionEvidence::CommitQuorum { commits }));
        }
    }

    fn decide(&mut self, slot: Slot, batch: Batch, evidence: DecisionEvidence) -> Vec<Effect> {
        let mut fx = Vec::new();
        let view = self.view;
        let base = self.checkpoint.data.base;
        let record = self.cfg.record_decisions;
        let entry = self.slots.entry(slot).or_default();
        if entry.decided.is_some() {
            return fx;
        }
        if record {
            self.decisions.push(DecisionRecord {
                slot,
                view,
                batch_digest: batch.digest(),
                base,
                evidence,
            });
        }
        // `decide_count` counts individual requests, not slots, so batching
        // leaves the progress-watchdog and throughput accounting comparable
        // across batch sizes.
        self.decide_count += batch.len() as u64;
        entry.decided = Some(batch);
        self.vc_streak = 0;
        self.try_execute(&mut fx);
        // Executed slots leave the pipeline; the gate may have reopened.
        self.propose_ready(&mut fx);
        fx
    }

    fn try_execute(&mut self, fx: &mut Vec<Effect>) {
        loop {
            // Checkpoint every `window` executed slots (Algorithm 2 line
            // 44). The snapshot is taken at exactly the boundary: execution
            // pauses there, the driver answers `RequestSnapshot` in effect
            // order, and `on_snapshot` resumes — so the certified dedup
            // table is the one after slot `base - 1` on every replica,
            // however many decided slots one call finds beyond it.
            if self.snapshot_pending.is_some() {
                return;
            }
            let boundary = Slot(self.snapshot_base.0 + self.window() as u64);
            debug_assert!(self.exec_next <= boundary);
            if self.exec_next == boundary {
                self.snapshot_pending = Some(boundary);
                fx.push(Effect::RequestSnapshot { base: boundary });
                return;
            }
            // The batch handle (a reference-count bump) releases the
            // `self.slots` borrow; a request is copied exactly once, into
            // the Execute effect that hands it to the application.
            let Some(batch) = self.slots.get(&self.exec_next).and_then(|s| s.decided.clone())
            else {
                return;
            };
            for req in batch.requests() {
                self.outstanding.remove(&req.id);
                self.propose_solo.remove(&req.id);
                // A request re-proposed across views may occupy two slots;
                // only its first occurrence executes (PBFT-style last-reply
                // dedup).
                if !self.already_executed(&req.id) {
                    let hi = self.last_exec_seq.get(&req.id.client).copied().unwrap_or(0);
                    // No pin predicate here: a pin keyed on local state
                    // (e.g. `outstanding`, which reflects receipt timing)
                    // would make eviction differ across replicas and
                    // break the checkpoint-certified table. The capacity
                    // floor in `Engine::new` is what protects in-flight
                    // duplicates instead — deterministically.
                    self.last_exec_seq.insert(req.id.client, hi.max(req.id.seq + 1), |_| false);
                    fx.push(Effect::Execute { slot: self.exec_next, req: req.clone() });
                }
            }
            self.exec_next = self.exec_next.next();
        }
    }

    /// The open slots ([`open_end`]), for proposing and for accepting alike.
    ///
    /// A peer drops consensus messages for slots it has not opened, and
    /// the leader proposes slot `base + window` one window's worth of
    /// slots after it took the snapshot at `base` — that long, minus the
    /// certification time, after it adopted the checkpoint. A peer whose
    /// adoption of the same checkpoint lags by less (a busy crypto worker,
    /// a replacement node paying certificate verifications) has opened the
    /// slot by then and loses nothing; a longer lag is healed by the next
    /// checkpoint's state transfer.
    fn in_open_window(&self, slot: Slot) -> bool {
        let base = self.checkpoint.data.base;
        slot >= base && slot < open_end(base, self.window())
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    /// The request-dedup table (highest executed sequence per client) in
    /// canonical (sorted) order — identical on every correct replica at a
    /// given execution frontier, which is what lets checkpoints certify it.
    pub fn exec_table(&self) -> Vec<(ubft_types::ClientId, u64)> {
        let mut table: Vec<_> = self.last_exec_seq.iter().map(|(c, s)| (*c, *s)).collect();
        table.sort_unstable_by_key(|(c, _)| c.0);
        table
    }

    /// The runtime reports the application digest after applying every slot
    /// `< base`, together with the digest of the dedup table captured at
    /// the same instant ([`crate::msg::exec_table_digest`]). Execution,
    /// paused at `base` since [`Effect::RequestSnapshot`], resumes; our
    /// share over the snapshot is signed by a crypto job.
    pub fn on_snapshot(
        &mut self,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
    ) -> Vec<Effect> {
        let mut fx = Vec::new();
        if self.snapshot_pending != Some(base) {
            return fx;
        }
        self.snapshot_pending = None;
        self.snapshot_base = base;
        let data = CheckpointData { base, app_digest, exec_digest };
        if base > self.checkpoint.data.base {
            self.cp_shares.entry(base).or_default().begin_own(self.me, data);
        }
        self.crypto_jobs.push(CryptoJob {
            tag: CryptoTag::CheckpointShare { data },
            work: CryptoWork::Sign { bytes: data.sign_bytes() },
        });
        self.try_execute(&mut fx);
        self.propose_ready(&mut fx);
        fx
    }

    /// A state transfer delivered the donor's request-dedup table for the
    /// checkpoint at `base`. Adopted only when it hashes to the *certified*
    /// [`CheckpointData::exec_digest`] (the donor is untrusted). Adoption
    /// also prunes request bookkeeping the table proves executed — without
    /// this, a replacement node keeps long-completed requests `outstanding`
    /// forever, its progress watchdog spirals through views, and it ends
    /// up isolated (a cascade the chaos explorer found).
    pub fn on_exec_table(
        &mut self,
        base: Slot,
        table: Vec<(ubft_types::ClientId, u64)>,
    ) -> Vec<Effect> {
        let mut fx = Vec::new();
        if self.checkpoint.data.base != base
            || crate::msg::exec_table_digest(&table) != self.checkpoint.data.exec_digest
        {
            return fx;
        }
        for (client, seq) in table {
            let hi = self.last_exec_seq.get(&client).copied().unwrap_or(0);
            self.last_exec_seq.insert(client, hi.max(seq), |_| false);
        }
        self.outstanding.retain(|id| id.seq >= *self.last_exec_seq.get(&id.client).unwrap_or(&0));
        self.propose_queue
            .retain(|req| req.id.seq >= *self.last_exec_seq.get(&req.id.client).unwrap_or(&0));
        self.reclaim_request_state();
        self.propose_ready(&mut fx);
        fx
    }

    /// Drops what is kept about requests that are no longer outstanding.
    /// A request enters `outstanding` together with its first entry in any
    /// of the three maps and leaves it when it executes, so whatever is not
    /// outstanding is executed: a retransmission is answered from the reply
    /// cache and never consults these again. `outstanding ⊆ seen_requests`
    /// (which `enqueue_outstanding` and `reecho_outstanding` index) holds
    /// by construction.
    fn reclaim_request_state(&mut self) {
        let live = &self.outstanding;
        self.seen_requests.retain(|id, _| live.contains(id));
        self.echoes.retain(|id, _| live.contains(id));
        self.proposed.retain(|id| live.contains(id));
    }

    /// A `CERTIFY_CHECKPOINT` share arrived: reject what is cheap to reject,
    /// then hand the signature to the crypto worker. The share counts only
    /// once [`CryptoTag::CheckpointShareCheck`] comes back `true`.
    fn handle_checkpoint_share(&mut self, from: ReplicaId, data: CheckpointData, sig: Signature) {
        // Our own share arrives as a sign completion, never as a message.
        if from == self.me {
            return;
        }
        // Only the two boundaries execution can reach before the stable
        // checkpoint moves. Together with one share per signer per base
        // this bounds `cp_shares` and the verifications a Byzantine peer
        // can make us pay for.
        let stable = self.checkpoint.data.base;
        if data.base <= stable
            || data.base > open_end(stable, self.window())
            || !data.base.0.is_multiple_of(self.window() as u64)
        {
            return;
        }
        if self.cp_shares.entry(data.base).or_default().admit(from, data, sig) {
            self.check_parked_cp_shares(data.base);
        }
    }

    /// Starts verifying the parked shares of the checkpoint at `base` that
    /// could still complete a certificate ([`ShareSet::take_to_check`]).
    fn check_parked_cp_shares(&mut self, base: Slot) {
        let quorum = self.quorum();
        let Some(shares) = self.cp_shares.get_mut(&base) else {
            return;
        };
        for (from, data, sig) in shares.take_to_check(quorum) {
            self.crypto_jobs.push(CryptoJob {
                tag: CryptoTag::CheckpointShareCheck { from, base },
                work: CryptoWork::Verify { who: from, bytes: data.sign_bytes(), sig },
            });
        }
    }

    /// Adopts the checkpoint over `data` once `f + 1` verified shares agree
    /// on it. `adopt_checkpoint` announces it on our stream and releases
    /// the streams that were parked on this proof.
    fn try_certify_checkpoint(&mut self, data: CheckpointData) -> Vec<Effect> {
        let quorum = self.quorum();
        let Some(cert) = self.cp_shares.get(&data.base).and_then(|s| s.certificate(&data, quorum))
        else {
            return Vec::new();
        };
        self.note_own_cert(&cert, &data.sign_bytes());
        self.verified_cp_data.insert(data);
        self.adopt_checkpoint(CheckpointCert { data, cert })
    }

    /// Whether our own certification of exactly `data` is under way: we
    /// took that snapshot and its checkpoint is not stable yet.
    fn certifying(&self, data: &CheckpointData) -> bool {
        self.cp_shares.get(&data.base).and_then(|s| s.ours(self.me)) == Some(data)
    }

    /// Finds what will prove the certificate of `c`, the unproven
    /// `CHECKPOINT` at the head of `stream`: our own certification if it is
    /// collecting shares over the same data (the common case — it costs
    /// nothing more), otherwise a job on the certificate itself.
    fn seek_checkpoint_proof(
        &mut self,
        stream: ReplicaId,
        k: SeqId,
        c: &CheckpointCert,
    ) -> AwaitedProof {
        if self.certifying(&c.data) {
            return AwaitedProof::OwnCertification;
        }
        self.crypto_jobs.push(CryptoJob {
            tag: CryptoTag::CheckpointCert { stream, k },
            work: CryptoWork::VerifyCert {
                cert: c.cert.clone(),
                bytes: c.data.sign_bytes(),
                quorum: self.quorum(),
            },
        });
        AwaitedProof::Job
    }

    /// Looks at every parked stream again after the proofs changed (a
    /// checkpoint was adopted, a certificate job came back): a stream whose
    /// `CHECKPOINT` is proven resumes, and one that waited for our own
    /// certification falls back to a job if that ended on other data — no
    /// stream stays parked on a proof that cannot come.
    fn recheck_parked_streams(&mut self, fx: &mut Vec<Effect>) {
        for stream in self.cfg.params.replicas().collect::<Vec<_>>() {
            let ps = self.state.get(&stream).expect("known");
            let (Some(proof), Some(CtbMsg::Checkpoint(c))) =
                (ps.parked, ps.pending.get(&ps.fifo_next))
            else {
                continue;
            };
            if self.verified_cp_data.contains(&c.data) {
                self.state.get_mut(&stream).expect("known").parked = None;
                self.drain_pending(stream, fx);
            } else if proof == AwaitedProof::OwnCertification && !self.certifying(&c.data) {
                let (k, c) = (ps.fifo_next, c.clone());
                let proof = self.seek_checkpoint_proof(stream, k, &c);
                self.state.get_mut(&stream).expect("known").parked = Some(proof);
            }
        }
    }

    /// The certificate job of the `CHECKPOINT` parked at `stream`'s id `k`
    /// came back: proven data releases every stream parked on it, a forged
    /// certificate brands the broadcaster.
    fn on_checkpoint_cert_checked(&mut self, stream: ReplicaId, k: SeqId, ok: bool) -> Vec<Effect> {
        let ps = self.state.get_mut(&stream).expect("known");
        if ps.parked != Some(AwaitedProof::Job) || ps.fifo_next != k {
            return Vec::new(); // released by another proof, or skipped by a summary
        }
        let Some(CtbMsg::Checkpoint(c)) = ps.pending.get(&k) else {
            return Vec::new();
        };
        if !ok {
            ps.parked = None;
            ps.pending.remove(&k);
            return self.brand_byzantine(stream, "checkpoint with invalid certificate".into());
        }
        self.verified_cp_data.insert(c.data);
        let mut fx = Vec::new();
        self.recheck_parked_streams(&mut fx);
        fx
    }

    fn handle_checkpoint_msg(
        &mut self,
        stream: ReplicaId,
        c: CheckpointCert,
        fx: &mut Vec<Effect>,
    ) {
        {
            let window = self.window();
            let ps = self.state.get_mut(&stream).expect("known");
            ps.checkpoint = c.clone();
            let (lo, hi) = ps.open_window(window);
            ps.prepares.retain(|s, _| *s >= lo && *s < hi);
            ps.commits.retain(|s, _| *s >= lo && *s < hi);
        }
        fx.extend(self.adopt_checkpoint(c));
    }

    fn adopt_checkpoint(&mut self, c: CheckpointCert) -> Vec<Effect> {
        let mut fx = Vec::new();
        if !c.supersedes(&self.checkpoint) {
            return fx;
        }
        self.checkpoint = c.clone();
        let base = c.data.base;
        // Forget decided state below the checkpoint (finite memory!).
        self.slots.retain(|s, _| *s >= base);
        self.cp_shares.retain(|b, _| *b > base);
        let window = self.window() as u64;
        self.verified_cp_data.retain(|d| d.base.0 + window >= base.0);
        self.reclaim_request_state();
        if self.exec_next < base {
            // We missed decided slots below the certified base (a
            // replacement node, or a replica that lost a whole window):
            // local replay cannot reach this state, so ask the runtime for
            // a snapshot transfer — verified against the certified digests,
            // so the serving peer is not trusted — then resume from `base`.
            // The transferred state stands in for the snapshot we never
            // took: the next one is due a window later.
            fx.push(Effect::StateTransfer {
                base,
                app_digest: c.data.app_digest,
                exec_digest: c.data.exec_digest,
            });
            self.exec_next = base;
            self.snapshot_base = base;
            self.snapshot_pending = None;
        }
        if self.next_slot < base {
            self.next_slot = base;
        }
        fx.push(Effect::CheckpointAdopted { base });
        // Announce the adoption on our own stream before proposing into the
        // window it opens: peers validate PREPAREs against the checkpoint
        // most recently seen *on our stream* (Algorithm 5), so a PREPARE
        // emitted ahead of the CHECKPOINT would be branded out-of-window.
        if base > self.cp_broadcast_base {
            self.cp_broadcast_base = base;
            self.emit_ctb(&mut fx, CtbMsg::Checkpoint(c));
        }
        self.propose_ready(&mut fx);
        // Our own certifications at or below `base` are over.
        self.recheck_parked_streams(&mut fx);
        fx
    }

    // ------------------------------------------------------------------
    // Summaries (Algorithm 4)
    // ------------------------------------------------------------------

    /// A `CERTIFY_SUMMARY` share about our own stream arrived: reject what
    /// is cheap to reject, then hand the signature to the crypto worker.
    /// The share counts only once [`CryptoTag::SummaryShareCheck`] comes
    /// back `true`.
    fn on_certify_summary(
        &mut self,
        from: ReplicaId,
        stream: ReplicaId,
        upto: SeqId,
        digest: Digest,
        sig: Signature,
    ) {
        // Our own share arrives as a sign completion, never as a message.
        if stream != self.me || from == self.me {
            return;
        }
        // Only a boundary we crossed and have not certified yet. Together
        // with one share per signer this bounds `summary_shares` and the
        // verifications a Byzantine peer can make us pay for.
        if upto.0 <= self.summary_done_upto
            || upto.0 > self.my_ctb_sent
            || !upto.0.is_multiple_of(self.cfg.summary_half)
        {
            return;
        }
        if self.summary_shares.entry(upto.0).or_default().admit(from, digest, sig) {
            self.check_parked_shares(upto);
        }
    }

    /// Starts verifying the parked shares of boundary `upto` that could
    /// still complete a certificate ([`ShareSet::take_to_check`]).
    fn check_parked_shares(&mut self, upto: SeqId) {
        let (me, quorum) = (self.me, self.quorum());
        let Some(shares) = self.summary_shares.get_mut(&upto.0) else {
            return;
        };
        for (from, digest, sig) in shares.take_to_check(quorum) {
            self.crypto_jobs.push(CryptoJob {
                tag: CryptoTag::SummaryShareCheck { from, upto },
                work: CryptoWork::Verify {
                    who: from,
                    bytes: summary_sign_bytes(me, upto, &digest),
                    sig,
                },
            });
        }
    }

    /// A crypto job finished: continue the protocol step its tag names.
    /// Completions may arrive in any order and arbitrarily late; one whose
    /// step has been overtaken (boundary already certified, gap already
    /// filled) is a no-op.
    pub fn on_crypto_done(&mut self, tag: CryptoTag, result: CryptoResult) -> Vec<Effect> {
        match (tag, result) {
            (CryptoTag::SummaryShare { stream, upto, digest }, CryptoResult::Signed(sig)) => {
                if stream != self.me {
                    return vec![Effect::SendReplica {
                        to: stream,
                        msg: DirectMsg::CertifySummary { stream, upto, digest, sig },
                    }];
                }
                if upto.0 <= self.summary_done_upto {
                    return Vec::new();
                }
                self.summary_shares.entry(upto.0).or_default().add_own(self.me, digest, sig);
                self.try_certify_summary(upto, digest)
            }
            (CryptoTag::SummaryShareCheck { from, upto }, CryptoResult::Verified(ok)) => {
                // The boundary's shares are dropped once it is certified.
                let Some(shares) = self.summary_shares.get_mut(&upto.0) else {
                    return Vec::new();
                };
                match shares.settle(from, ok) {
                    Some(digest) => self.try_certify_summary(upto, digest),
                    None => {
                        self.check_parked_shares(upto);
                        Vec::new()
                    }
                }
            }
            (CryptoTag::SummaryCert { stream, upto }, CryptoResult::Verified(ok)) => {
                match self.summary_checks.remove(&(stream, upto)) {
                    Some(summary) if ok => self.fill_gap_from_summary(stream, upto, &summary),
                    _ => Vec::new(),
                }
            }
            (CryptoTag::CheckpointShare { data }, CryptoResult::Signed(sig)) => {
                let mut fx = vec![Effect::TbBroadcast(TbMsg::CertifyCheckpoint { data, sig })];
                if data.base > self.checkpoint.data.base {
                    self.cp_shares.entry(data.base).or_default().add_own(self.me, data, sig);
                    fx.extend(self.try_certify_checkpoint(data));
                }
                fx
            }
            (CryptoTag::CheckpointShareCheck { from, base }, CryptoResult::Verified(ok)) => {
                // The base's shares are dropped once its checkpoint is stable.
                let Some(shares) = self.cp_shares.get_mut(&base) else {
                    return Vec::new();
                };
                match shares.settle(from, ok) {
                    Some(data) => self.try_certify_checkpoint(data),
                    None => {
                        self.check_parked_cp_shares(base);
                        Vec::new()
                    }
                }
            }
            (CryptoTag::CheckpointCert { stream, k }, CryptoResult::Verified(ok)) => {
                self.on_checkpoint_cert_checked(stream, k, ok)
            }
            (CryptoTag::CertifyShareCheck { from, slot, view }, CryptoResult::Verified(ok)) => {
                // A view's shares end with it (and with the slot).
                let Some(entry) = self.slots.get_mut(&slot).filter(|_| view == self.view) else {
                    return Vec::new();
                };
                match entry.shares.settle(from, ok) {
                    Some(_) => self.maybe_commit(slot),
                    None => {
                        self.check_parked_certify_shares(slot);
                        Vec::new()
                    }
                }
            }
            // A result of the wrong kind for its tag can only be a driver
            // bug; there is no step to continue.
            _ => Vec::new(),
        }
    }

    /// Completes the summary at `upto` once `f + 1` verified shares agree
    /// on `digest`: broadcast it and reopen the CTBcast gate.
    fn try_certify_summary(&mut self, upto: SeqId, digest: Digest) -> Vec<Effect> {
        let mut fx = Vec::new();
        let quorum = self.quorum();
        let cert = self.summary_shares.get(&upto.0).and_then(|s| s.certificate(&digest, quorum));
        if let Some(cert) = cert {
            self.summary_done_upto = upto.0;
            self.summary_shares.retain(|k, _| *k > upto.0);
            let summary = self.state.get(&self.me).expect("self").summary();
            fx.push(Effect::TbBroadcast(TbMsg::Summary { upto, summary, cert }));
            self.flush_ctb_queue(&mut fx);
        }
        fx
    }

    /// Most gap-filling summaries of one stream verified at a time. Beyond
    /// it the oldest parked one is forgotten (its completion becomes a
    /// no-op; a newer summary covers it), so a flooding Byzantine
    /// broadcaster cannot grow `summary_checks`.
    const SUMMARY_CHECK_CAP: usize = 4;

    /// A broadcaster announced the certified summary of its stream up to
    /// `upto`. Only a replica with a FIFO gap at or before `upto` needs it
    /// — on a fault-free run nobody does, and then nothing is verified.
    fn handle_summary(
        &mut self,
        from: ReplicaId,
        upto: SeqId,
        summary: StateSummary,
        cert: Certificate,
    ) {
        let ps = self.state.get(&from).expect("known");
        if ps.fifo_next > upto || ps.parked.is_some() {
            // No gap to fill — a parked head is held, not missing, and
            // skipping it would throw away the messages queued behind it.
            return;
        }
        if self.summary_checks.contains_key(&(from, upto)) {
            return; // already verifying one for this boundary
        }
        let of_stream = (from, SeqId(0))..=(from, SeqId(u64::MAX));
        if self.summary_checks.range(of_stream.clone()).count() >= Self::SUMMARY_CHECK_CAP {
            let oldest = *self.summary_checks.range(of_stream).next().expect("counted").0;
            self.summary_checks.remove(&oldest);
        }
        let bytes = summary_sign_bytes(from, upto, &summary.digest());
        self.summary_checks.insert((from, upto), summary);
        self.crypto_jobs.push(CryptoJob {
            tag: CryptoTag::SummaryCert { stream: from, upto },
            work: CryptoWork::VerifyCert { cert, bytes, quorum: self.quorum() },
        });
    }

    /// The certificate of a gap-filling summary checked out: adopt the
    /// certified state and resume FIFO interpretation after `upto`
    /// (Algorithm 4 lines 11–15).
    fn fill_gap_from_summary(
        &mut self,
        stream: ReplicaId,
        upto: SeqId,
        summary: &StateSummary,
    ) -> Vec<Effect> {
        let mut fx = Vec::new();
        if self.byzantine.contains(&stream) {
            return fx;
        }
        let ps = self.state.get_mut(&stream).expect("known");
        if ps.fifo_next > upto {
            return fx; // the gap closed while the certificate was checked
        }
        ps.apply_summary(summary);
        ps.fifo_next = upto.next();
        ps.pending.retain(|k, _| *k > upto);
        ps.parked = None; // a head parked since the check began is covered
        let cp = ps.checkpoint.clone();
        fx.extend(self.adopt_checkpoint(cp));
        self.drain_pending(stream, &mut fx);
        fx
    }

    // ------------------------------------------------------------------
    // Replacement & join (uBFT extended version, §replacement)
    // ------------------------------------------------------------------

    /// Most decided slots a [`DirectMsg::JoinAck`] replays; older gaps are
    /// healed by the next checkpoint's state transfer, exactly like
    /// [`StateSummary`]'s bounded commit list heals CTBcast gaps.
    const JOIN_COMMIT_CAP: usize = 4;

    /// Starts this engine's life as a *replacement node*: a fresh process
    /// taking over a crashed replica's identity. Call instead of
    /// [`Engine::start`]. `reg_floor` is the highest own-stream CTBcast id
    /// the runtime recovered from the SWMR register bank on the memory
    /// nodes (the slow-path high-water mark; [`SeqId`]`(0)` if the bank is
    /// empty). The engine announces itself to every peer and completes the
    /// join once `f + 1` [`DirectMsg::JoinAck`]s arrived — no single
    /// replica is trusted: adopted checkpoints and replayed decisions are
    /// verified against their own `f + 1` certificates, and the remaining
    /// fields only steer liveness, which CTBcast summaries repair anyway.
    pub fn begin_join(&mut self, reg_floor: SeqId) -> Vec<Effect> {
        assert!(self.join.is_none(), "join already in progress");
        self.join = Some(JoinState { reg_floor, acks: BTreeMap::new() });
        self.armed_marker = self.decide_count;
        let mut fx = vec![Effect::ArmTimer { kind: TimerKind::Progress }];
        for peer in self.cfg.params.replicas().filter(|r| *r != self.me) {
            fx.push(Effect::SendReplica { to: peer, msg: DirectMsg::Join { reg_floor } });
        }
        fx
    }

    /// A replacement node announced itself: answer with our protocol
    /// coordinates (any replica may serve; the joiner cross-checks).
    pub fn on_join(&mut self, from: ReplicaId) -> Vec<Effect> {
        self.suspected.remove(&from);
        if from == self.me || self.join.is_some() {
            return Vec::new();
        }
        // Our own stream is reported as *emitted*, not as self-delivered
        // (self-delivery lags emission while an effect batch waits for its
        // crypto): the next id we will send, and the checkpoint announced
        // below it. An ack whose `fifo_next` covers a CHECKPOINT that its
        // `checkpoint` misses would make the joiner brand our next
        // proposal out-of-window.
        let own_cp_emitted = !self.queued_ctb.iter().any(|m| matches!(m, CtbMsg::Checkpoint(_)));
        let streams: Vec<JoinStream> = self
            .state
            .iter()
            .map(|(stream, ps)| {
                let own = *stream == self.me;
                let cp = if own && own_cp_emitted { &self.checkpoint } else { &ps.checkpoint };
                JoinStream {
                    stream: *stream,
                    fifo_next: if own { SeqId(self.my_ctb_sent + 1) } else { ps.fifo_next },
                    view: if own { self.view } else { ps.view },
                    next_free: if own {
                        self.next_slot
                    } else {
                        ps.prepares.keys().max().map_or(Slot(0), |s| s.next())
                    },
                    checkpoint: (cp.data.base > Slot(0)).then(|| cp.clone()),
                }
            })
            .collect();
        // Most recent decided slots at or above our stable base, with the
        // certificate that proves each decision (highest view wins per
        // slot, mirroring `must_propose`).
        let mut merged: BTreeMap<Slot, CommitCert> = BTreeMap::new();
        for ps in self.state.values() {
            for (slot, c) in &ps.commits {
                if *slot < self.checkpoint.data.base {
                    continue;
                }
                let replace =
                    merged.get(slot).is_none_or(|existing| c.prepare.view > existing.prepare.view);
                if replace {
                    merged.insert(*slot, c.clone());
                }
            }
        }
        let skip = merged.len().saturating_sub(Self::JOIN_COMMIT_CAP);
        let commits: Vec<(Slot, CommitCert)> = merged.into_iter().skip(skip).collect();
        vec![Effect::SendReplica {
            to: from,
            msg: DirectMsg::JoinAck { view: self.view, streams, commits },
        }]
    }

    /// A peer answered our [`DirectMsg::Join`].
    pub fn on_join_ack(
        &mut self,
        from: ReplicaId,
        view: View,
        streams: Vec<JoinStream>,
        commits: Vec<(Slot, CommitCert)>,
    ) -> Vec<Effect> {
        let Some(join) = self.join.as_mut() else {
            return Vec::new();
        };
        if from == self.me {
            return Vec::new();
        }
        join.acks.insert(from, JoinAckData { view, streams, commits });
        if join.acks.len() >= self.cfg.params.quorum() {
            self.complete_join()
        } else {
            Vec::new()
        }
    }

    /// `f + 1` acks arrived: adopt the group's coordinates and go live.
    fn complete_join(&mut self) -> Vec<Effect> {
        let join = self.join.take().expect("join in progress");
        let mut fx = Vec::new();

        // Liveness fields: per-field maximum over the acks. A lie can only
        // delay us (summaries fill FIFO gaps; view changes correct views);
        // it can never decide anything — that still takes certificates.
        let view = join.acks.values().map(|a| a.view).max().unwrap_or(View(0)).max(self.view);
        let mut best_cp: Option<CheckpointCert> = None;
        let mut tails: Vec<(ReplicaId, SeqId)> = Vec::new();
        for stream in self.cfg.params.replicas().collect::<Vec<_>>() {
            let mut fifo = SeqId(1);
            let mut sview = View(0);
            let mut cp: Option<CheckpointCert> = None;
            for ack in join.acks.values() {
                let Some(js) = ack.streams.iter().find(|s| s.stream == stream) else {
                    continue;
                };
                fifo = fifo.max(js.fifo_next);
                sview = sview.max(js.view);
                if stream == self.me {
                    // Resume proposing past everything our predecessor
                    // prepared: a second PREPARE for one of its slots in
                    // the same view reads as equivocation and brands us.
                    self.next_slot = self.next_slot.max(js.next_free);
                }
                if let Some(c) = &js.checkpoint {
                    if cp.as_ref().is_none_or(|old| c.supersedes(old)) {
                        cp = Some(c.clone());
                    }
                }
            }
            // Adopted stream checkpoints gate validity checks (window
            // membership), so verify their certificates before trusting
            // (once per distinct checkpoint data).
            let cp = cp.filter(|c| {
                self.verified_cp_data.contains(&c.data)
                    || self.verify_cert(&c.cert.clone(), &c.data.sign_bytes(), self.quorum())
            });
            if let Some(c) = &cp {
                self.verified_cp_data.insert(c.data);
            }
            if stream == self.me {
                // Our own broadcast cursor: past everything any peer
                // interpreted AND everything the register bank witnessed.
                fifo = fifo.max(join.reg_floor.next());
                self.my_ctb_sent = fifo.0 - 1;
                self.summary_done_upto = self.my_ctb_sent;
                self.seal_emitted = view;
                self.cp_broadcast_base =
                    cp.as_ref().map_or(Slot(0), |c| c.data.base).max(self.cp_broadcast_base);
            }
            let n = self.cfg.params.n();
            let ps = self.state.get_mut(&stream).expect("known replica");
            if fifo > ps.fifo_next {
                ps.fifo_next = fifo;
                ps.parked = None;
            }
            ps.view = ps.view.max(sview);
            // The NEW_VIEW that installed an already-established view was
            // broadcast before we existed and is out of the tail. Accept
            // the established leader's proposals without it: the joiner
            // cannot re-check Algorithm 3's re-proposal constraints, but
            // it also cannot decide anything alone — every decision still
            // takes a quorum of replicas that did check them.
            if ps.view > View(0) && stream == ps.view.leader(n) && ps.new_view.is_none() {
                ps.new_view = Some(Vec::new());
            }
            let floor = ps.fifo_next;
            ps.pending.retain(|k, _| *k >= floor);
            if let Some(c) = cp {
                if c.supersedes(&ps.checkpoint) {
                    ps.checkpoint = c.clone();
                }
                if best_cp.as_ref().is_none_or(|old| c.supersedes(old)) {
                    best_cp = Some(c);
                }
            }
            tails.push((stream, floor));
        }
        self.view = view;
        self.sealing = None;

        // Transport adoption must precede any broadcast the steps below
        // may emit (the runtime moves its CTBcast cursors on this effect).
        fx.push(Effect::AdoptStreams { tails });

        // Adopt the best certified checkpoint; lagging `exec_next` makes
        // `adopt_checkpoint` request the snapshot transfer.
        if let Some(cp) = best_cp {
            fx.extend(self.adopt_checkpoint(cp));
        }

        // Replay decided-but-unexecuted slots the acks prove (highest view
        // wins per slot; each certificate is verified before the decision
        // is honoured).
        let mut merged: BTreeMap<Slot, CommitCert> = BTreeMap::new();
        for ack in join.acks.values() {
            for (slot, c) in &ack.commits {
                let replace =
                    merged.get(slot).is_none_or(|existing| c.prepare.view > existing.prepare.view);
                if replace {
                    merged.insert(*slot, c.clone());
                }
            }
        }
        for (slot, c) in merged {
            if slot < self.checkpoint.data.base
                || self.slots.get(&slot).is_some_and(|s| s.decided.is_some())
            {
                continue;
            }
            if !self.verify_cert(&c.cert.clone(), &c.prepare.certify_bytes(), self.quorum()) {
                continue;
            }
            let entry = self.slots.entry(slot).or_default();
            if entry.prepare.is_none() {
                entry.prepare = Some(c.prepare.clone());
            }
            entry.commit_from.insert(c.prepare.view.leader(self.cfg.params.n()));
            let shares = c.cert.count();
            let batch = c.prepare.batch.clone();
            fx.extend(self.decide(slot, batch, DecisionEvidence::JoinReplay { shares }));
        }

        // Go live: flush whatever queued during the join and interpret any
        // stream messages that arrived ahead of the adopted positions.
        self.flush_ctb_queue(&mut fx);
        for stream in self.cfg.params.replicas().collect::<Vec<_>>() {
            if stream != self.me {
                self.drain_pending(stream, &mut fx);
            }
        }
        fx
    }

    // ------------------------------------------------------------------
    // View change (Algorithm 3)
    // ------------------------------------------------------------------

    /// The progress watchdog fired.
    pub fn on_progress_timeout(&mut self) -> Vec<Effect> {
        let mut fx = Vec::new();
        if let Some(join) = &self.join {
            // A half-initialized replacement must not seal views; its acks
            // are in flight, and peers make progress without it. It must
            // however *re-announce* itself to peers that have not acked:
            // the original Join is a one-shot direct message, so a
            // partition that eats it would otherwise stall the join
            // forever (a liveness hole the chaos explorer found — a
            // replacement booting inside a partition never went live, and
            // a later crash of another replica then stalled the group).
            let reg_floor = join.reg_floor;
            for peer in self.cfg.params.replicas().filter(|r| *r != self.me) {
                if !join.acks.contains_key(&peer) {
                    fx.push(Effect::SendReplica { to: peer, msg: DirectMsg::Join { reg_floor } });
                }
            }
            fx.push(Effect::ArmTimer { kind: TimerKind::Progress });
            return fx;
        }
        let stuck = self.has_pending_work() && self.decide_count == self.armed_marker;
        if stuck {
            fx.extend(self.change_view());
        }
        self.armed_marker = self.decide_count;
        fx.push(Effect::ArmTimer { kind: TimerKind::Progress });
        fx
    }

    fn has_pending_work(&self) -> bool {
        !self.outstanding.is_empty()
            || !self.propose_queue.is_empty()
            || self.slots.values().any(|s| s.prepare.is_some() && s.decided.is_none())
    }

    /// Multiplier for the progress-watchdog period: doubles with every
    /// fruitless view change so slow (signature-bound) view changes get time
    /// to finish before the next one starts, as in PBFT.
    pub fn progress_backoff(&self) -> u32 {
        1 << self.vc_streak.min(6)
    }

    fn change_view(&mut self) -> Vec<Effect> {
        let mut fx = Vec::new();
        if self.sealing.is_some() {
            return fx;
        }
        self.vc_streak = self.vc_streak.saturating_add(1);
        let next = self.view.next();
        self.sealing = Some(next);
        // Algorithm 3 lines 4–5: discharge WILL_COMMIT promises by running
        // the slow path for those slots before sealing.
        let promised: Vec<Slot> = self
            .slots
            .iter()
            .filter(|(_, s)| s.promised_in == Some(self.view) && !s.sent_commit)
            .map(|(slot, _)| *slot)
            .collect();
        for slot in &promised {
            fx.extend(self.start_slow_path(*slot));
        }
        fx.extend(self.check_seal_ready());
        fx
    }

    fn check_seal_ready(&mut self) -> Vec<Effect> {
        let mut fx = Vec::new();
        let Some(next) = self.sealing else { return fx };
        let outstanding =
            self.slots.values().any(|s| s.promised_in == Some(self.view) && !s.sent_commit);
        if outstanding {
            return fx;
        }
        // Seal: enter the next view.
        self.view = next;
        self.sealing = None;
        fx.push(Effect::ViewChanged { view: self.view });
        if self.seal_emitted < next {
            self.seal_emitted = next;
            self.emit_ctb(&mut fx, CtbMsg::SealView { view: next });
        }
        self.reecho_outstanding(&mut fx);
        self.slots.values_mut().for_each(SlotState::enter_view);
        fx
    }

    fn handle_seal_view(&mut self, stream: ReplicaId, view: View, fx: &mut Vec<Effect>) {
        {
            let ps = self.state.get_mut(&stream).expect("known");
            ps.seal_view = Some(view);
            ps.view = view;
            ps.new_view = None;
        }
        // Line 11: certify the sealer's state to the new leader.
        let summary = self.state.get(&stream).expect("known").summary();
        let digest = summary.digest();
        let sig = self.sign(&vc_sign_bytes(view, stream, &digest));
        let leader = view.leader(self.n());
        if leader == self.me {
            fx.extend(self.on_certify_vc(self.me, view, stream, summary, sig));
        } else {
            fx.push(Effect::SendReplica {
                to: leader,
                msg: DirectMsg::CertifyVc { view, about: stream, summary, sig },
            });
        }
        // Follow the majority into the new view: if we observe a quorum of
        // seals for views above ours, join them.
        let seals =
            self.state.values().filter(|ps| ps.seal_view.is_some_and(|v| v > self.view)).count();
        if seals >= self.quorum() && self.sealing.is_none() && view > self.view {
            fx.extend(self.change_view());
        }
    }

    /// A `CRTFY_VC` share arrived (we are, or will be, the leader of `view`).
    pub fn on_certify_vc(
        &mut self,
        from: ReplicaId,
        view: View,
        about: ReplicaId,
        summary: StateSummary,
        sig: ubft_crypto::Signature,
    ) -> Vec<Effect> {
        let mut fx = Vec::new();
        if view.leader(self.n()) != self.me || view < self.view {
            return fx;
        }
        let digest = summary.digest();
        if from != self.me && !self.verify(from, &vc_sign_bytes(view, about, &digest), &sig) {
            return fx;
        }
        // Shares for views we can no longer lead are dead weight.
        self.vc_shares.retain(|(v, _), _| *v >= self.view);
        let per_digest = self.vc_shares.entry((view, about)).or_default();
        let (_, cert) = per_digest.entry(digest).or_insert_with(|| (summary, Certificate::new()));
        cert.add(ProcessId::Replica(from), sig);
        // Line 13: f+1 matching shares about f+1 distinct replicas, all
        // signed for exactly this view.
        let quorum = self.quorum();
        let complete: Vec<VcCert> = self
            .vc_shares
            .iter()
            .filter(|((v, _), _)| *v == view)
            .filter_map(|((_, about), per_digest)| {
                per_digest.values().find(|(_, c)| c.count() >= quorum).map(|(s, c)| VcCert {
                    about: *about,
                    summary: s.clone(),
                    cert: c.clone(),
                })
            })
            .collect();
        if complete.len() >= quorum && self.new_view_broadcast != Some(view) && view >= self.view {
            fx.extend(self.enter_view_as_leader(view, complete));
        }
        fx
    }

    fn enter_view_as_leader(&mut self, view: View, certs: Vec<VcCert>) -> Vec<Effect> {
        let mut fx = Vec::new();
        let entered = self.view == view;
        self.view = view;
        self.sealing = None;
        self.new_view_broadcast = Some(view);
        if !entered {
            fx.push(Effect::ViewChanged { view });
        }
        for c in &certs {
            let bytes = vc_sign_bytes(view, c.about, &c.summary.digest());
            self.note_own_cert(&c.cert, &bytes);
        }
        // A leader may reach this point on collected certificates alone,
        // without having sealed the view itself (its own watchdog never
        // fired). Peers accept a NEW_VIEW only after our stream carried the
        // matching seal, so announce it first.
        if self.seal_emitted < view {
            self.seal_emitted = view;
            self.emit_ctb(&mut fx, CtbMsg::SealView { view });
        }
        self.emit_ctb(&mut fx, CtbMsg::NewView { view, certs: certs.clone() });
        // Line 16: adopt the highest checkpoint in the certificates.
        let highest =
            certs.iter().filter_map(|c| c.summary.checkpoint.clone()).max_by_key(|cp| cp.data.base);
        if let Some(cp) = highest {
            fx.extend(self.adopt_checkpoint(cp));
        }
        // Lines 17–19: re-propose constrained slots across the open window,
        // up to the highest slot any certificate committed.
        let base = self.checkpoint.data.base;
        let max_committed =
            certs.iter().flat_map(|c| c.summary.commits.iter().map(|(s, _)| *s)).max();
        self.vc_shares.clear();
        if let Some(hi) = max_committed {
            for s in base.0..=hi.0 {
                let slot = Slot(s);
                if self.slots.get(&slot).is_some_and(|st| st.decided.is_some()) {
                    continue;
                }
                let batch = must_propose(slot, &certs).unwrap_or_else(|| Batch::noop(slot));
                self.emit_ctb(&mut fx, CtbMsg::Prepare(Prepare { view, slot, batch }));
                if self.next_slot <= slot {
                    self.next_slot = slot.next();
                }
            }
        }
        if self.next_slot < base {
            self.next_slot = base;
        }
        // Never propose into slots already occupied locally.
        let occupied = self
            .slots
            .iter()
            .filter(|(_, st)| st.prepare.is_some() || st.decided.is_some())
            .map(|(s, _)| *s)
            .max();
        if let Some(hi) = occupied {
            if self.next_slot <= hi {
                self.next_slot = hi.next();
            }
        }
        // Adopt responsibility for every request still outstanding.
        self.enqueue_outstanding();
        self.propose_ready(&mut fx);
        fx
    }

    /// Leader: queues every outstanding request not proposed yet.
    fn enqueue_outstanding(&mut self) {
        for id in &self.outstanding {
            if self.proposed.insert(*id) {
                self.propose_queue.push_back(self.seen_requests[id].clone());
            }
        }
    }

    fn reecho_outstanding(&mut self, fx: &mut Vec<Effect>) {
        if self.is_leader() {
            self.enqueue_outstanding();
            let mut more = Vec::new();
            self.propose_ready(&mut more);
            fx.extend(more);
        } else {
            let leader = self.leader();
            for id in &self.outstanding {
                let req = self.seen_requests[id].clone();
                fx.push(Effect::SendReplica { to: leader, msg: DirectMsg::Echo { req } });
            }
        }
    }

    fn handle_new_view(
        &mut self,
        stream: ReplicaId,
        view: View,
        certs: Vec<VcCert>,
        fx: &mut Vec<Effect>,
    ) {
        {
            let ps = self.state.get_mut(&stream).expect("known");
            ps.new_view = Some(certs.clone());
        }
        // Line 23: catch up to the new view.
        if self.view < view {
            self.view = view;
            self.sealing = None;
            fx.push(Effect::ViewChanged { view });
            self.slots.values_mut().for_each(SlotState::enter_view);
        }
        let highest =
            certs.iter().filter_map(|c| c.summary.checkpoint.clone()).max_by_key(|cp| cp.data.base);
        if let Some(cp) = highest {
            fx.extend(self.adopt_checkpoint(cp));
        }
        self.reecho_outstanding(fx);
    }

    /// A timer armed via [`Effect::ArmTimer`] fired.
    pub fn on_timer(&mut self, kind: TimerKind) -> Vec<Effect> {
        match kind {
            TimerKind::Progress => self.on_progress_timeout(),
            TimerKind::SlotSlowTrigger(slot) => self.on_slot_slow_trigger(slot),
            TimerKind::EchoFallback(id) => self.on_echo_timeout(id),
        }
    }

    /// A direct message arrived.
    pub fn on_direct(&mut self, from: ReplicaId, msg: DirectMsg) -> Vec<Effect> {
        let mut fx = self.run_unclaimed_jobs();
        if self.byzantine.contains(&from) {
            return fx;
        }
        fx.extend(match msg {
            DirectMsg::Echo { req } => self.on_echo(from, req),
            DirectMsg::CertifyVc { view, about, summary, sig } => {
                self.on_certify_vc(from, view, about, summary, sig)
            }
            DirectMsg::CertifySummary { stream, upto, digest, sig } => {
                self.on_certify_summary(from, stream, upto, digest, sig);
                Vec::new()
            }
            DirectMsg::Join { .. } => self.on_join(from),
            DirectMsg::JoinAck { view, streams, commits } => {
                self.on_join_ack(from, view, streams, commits)
            }
        });
        fx
    }

    /// Initialization effects: the progress watchdog.
    pub fn start(&mut self) -> Vec<Effect> {
        self.armed_marker = self.decide_count;
        vec![Effect::ArmTimer { kind: TimerKind::Progress }]
    }
}

impl Prepare {
    /// Content equality via digest (cheap comparison used in hot paths).
    pub fn digest_eq(&self, other: &Prepare) -> bool {
        self == other
    }
}

/// §5.4 endorsement predicate, shared by the hold (in `handle_prepare`) and
/// release (in `retry_held_prepares`) sides so they can never diverge: every
/// non-noop request in the batch must have been received directly from its
/// client.
fn batch_endorsed(batch: &Batch, seen: &FixedMap<RequestId, Request>) -> bool {
    batch.requests().iter().all(|r| r.is_noop() || seen.contains_key(&r.id))
}

/// Algorithm 3 lines 25–27: the request batch the new leader is forced to
/// propose for `slot`, if any certificate carries a COMMIT for it (highest
/// view wins). Batches survive view changes whole — a partially re-proposed
/// batch would change the slot's digest and violate agreement.
pub fn must_propose(slot: Slot, certs: &[VcCert]) -> Option<Batch> {
    certs
        .iter()
        .filter_map(|c| {
            c.summary.commits.iter().find(|(s, _)| *s == slot).map(|(_, commit)| commit)
        })
        .max_by_key(|commit| commit.prepare.view)
        .map(|commit| commit.prepare.batch.clone())
}
