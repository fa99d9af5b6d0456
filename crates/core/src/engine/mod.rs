//! The uBFT replica engine: Algorithms 2 (common case), 3 (view change),
//! 4 (summaries), and 5 (Byzantine checks) as one sans-IO state machine,
//! one module per algorithm:
//!
//! | module | what it holds |
//! |---|---|
//! | `stream` | Algorithm 5: FIFO interpretation of every CTBcast stream, the validity checks, the parked head |
//! | `normal` | Algorithm 2: request intake, echo round, proposal, fast and slow path, decide, execute |
//! | `requests` | §5.4: one record per client request — seen → queued (alone or batchable) → in a slot → executed → reclaimed; the stage diagram and the handler behind each transition are in its module comment —, the proposal queue, the dedup table |
//! | `checkpoint` | Algorithm 2 lines 44–47: snapshots, checkpoint certification, the window of open slots |
//! | `summary` | Algorithm 4: the CTBcast gate, summary certification, gap filling |
//! | `view_change` | Algorithm 3: watchdog, seal, `CRTFY_VC`, `NEW_VIEW`, constrained re-proposals |
//! | `join` | a replacement node's join (extended version) |
//! | `certify` | the `ShareSet`: `f + 1` shares make a certificate, for all four kinds of certificate |
//! | `types` | configuration, [`Effect`], timers, diagnostics |
//!
//! The runtime owns transport, CTBcast instances, registers, the clock, and
//! the application; the engine owns protocol state. Every public input
//! (`on_*`, [`Engine::start`], [`Engine::begin_join`]) returns the effects
//! it caused, in order: handlers push onto one outbox and the input hands
//! it over, the way crypto jobs leave through [`Engine::take_crypto_jobs`].
//!
//! Crypto comes in two
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

mod certify;
mod checkpoint;
mod join;
mod normal;
mod requests;
mod stream;
mod summary;
mod types;
mod view_change;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ubft_crypto::{Certificate, Digest, KeyRing, Signature, Signer};
use ubft_types::wire::Wire;
use ubft_types::{FixedSet, ProcessId, ReplicaId, SeqId, Slot, View};

use self::certify::ShareSet;
use self::join::JoinState;
use self::normal::SlotState;
use self::requests::Requests;
use self::stream::PeerState;
pub use self::types::{
    CryptoOps, DecisionEvidence, DecisionRecord, Effect, EngineConfig, EngineDiag, PathMode,
    TimerKind,
};
pub use self::view_change::must_propose;
pub use crate::crypto_job::{CryptoJob, CryptoResult, CryptoTag, CryptoWork, ShareOf};
use crate::msg::{CheckpointCert, CheckpointData, CtbMsg, DirectMsg, StateSummary};

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
    /// Client requests, from receipt to reclaim (§5.4).
    requests: Requests,
    /// Slots whose PREPARE on the current leader's stream we hold back until
    /// its requests arrive directly (§5.4). The PREPARE itself lives in
    /// that stream's [`PeerState::prepares`] and nowhere else; this only
    /// says where to look, so a request with nothing held costs one empty
    /// check.
    held: BTreeSet<Slot>,
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
    /// Effects of the input being handled, in emission order; every public
    /// input hands them over on return (`std::mem::take`).
    out: Vec<Effect>,
    /// View-change shares collected (as incoming leader), keyed by
    /// `(view, about)` — shares signed in different views cover different
    /// bytes and must never be merged into one certificate — one per
    /// signer, over the summary it arrived with.
    vc_shares: BTreeMap<(View, ReplicaId), ShareSet<StateSummary>>,
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
    /// is in here; until then it parks its stream ([`stream::AwaitedProof`]). Kept down
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
    /// the replica (a [`TbMsg`](crate::msg::TbMsg), an echo, a join) clears it.
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
        let requests = Requests::new(cfg.client_table_cap(), hash_state);
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
            requests,
            held: BTreeSet::new(),
            my_ctb_sent: 0,
            summary_done_upto: 0,
            queued_ctb: VecDeque::new(),
            summary_shares: BTreeMap::new(),
            summary_checks: BTreeMap::new(),
            crypto_jobs: Vec::new(),
            out: Vec::new(),
            vc_shares: BTreeMap::new(),
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
        let (outstanding, request_entries, propose_queue) = self.requests.counts();
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
            checkpoint_shares: self.cp_shares.values().map(ShareSet::len).sum(),
            outstanding,
            request_entries,
            propose_queue,
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
    fn run_unclaimed_jobs(&mut self) {
        while !self.crypto_jobs.is_empty() {
            for job in std::mem::take(&mut self.crypto_jobs) {
                self.ops.add(job.ops());
                let result = job.run(&self.signer, &self.ring);
                self.crypto_done(job.tag, result);
            }
        }
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

    fn sign(&mut self, bytes: &[u8]) -> Signature {
        self.ops.signs += 1;
        self.signer.sign(bytes)
    }

    fn verify(&mut self, who: ReplicaId, bytes: &[u8], sig: &Signature) -> bool {
        self.ops.verifies += 1;
        self.ring.verify(ProcessId::Replica(who), bytes, sig)
    }

    /// Verifies a certificate once per content; repeated identical
    /// certificates cost nothing (verification caching).
    fn verify_cert(&mut self, cert: &Certificate, bytes: &[u8], quorum: usize) -> bool {
        let digest = cert_key(cert, bytes);
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

    /// Has the crypto worker sign `bytes`; the signature comes back under
    /// `tag`.
    fn sign_job(&mut self, tag: CryptoTag, bytes: Vec<u8>) {
        self.crypto_jobs.push(CryptoJob { tag, work: CryptoWork::Sign { bytes } });
    }

    /// Has the crypto worker check that `cert` carries `f + 1` signatures
    /// over `bytes`; the verdict comes back under `tag`.
    fn check_cert(&mut self, tag: CryptoTag, cert: Certificate, bytes: Vec<u8>) {
        let work = CryptoWork::VerifyCert { cert, bytes, quorum: self.quorum() };
        self.crypto_jobs.push(CryptoJob { tag, work });
    }

    /// Registers a locally-built certificate as verified (it is made of
    /// shares we already checked), so re-verification costs nothing.
    fn note_own_cert(&mut self, cert: &Certificate, bytes: &[u8]) {
        self.verified_certs.insert(cert_key(cert, bytes));
    }
    /// A timer armed via [`Effect::ArmTimer`] fired.
    pub fn on_timer(&mut self, kind: TimerKind) -> Vec<Effect> {
        match kind {
            TimerKind::Progress => self.progress_timeout(),
            TimerKind::SlotSlowTrigger(slot) => self.slot_slow_trigger(slot),
            TimerKind::EchoFallback(id) => self.echo_timeout(id),
        }
        std::mem::take(&mut self.out)
    }

    /// A direct message arrived.
    pub fn on_direct(&mut self, from: ReplicaId, msg: DirectMsg) -> Vec<Effect> {
        self.run_unclaimed_jobs();
        if self.byzantine.contains(&from) {
            return std::mem::take(&mut self.out);
        }
        // Echo, Join and JoinAck are public inputs of their own; whichever
        // input runs last hands over the outbox, the effects above included.
        match msg {
            DirectMsg::Echo { req } => return self.on_echo(from, req),
            DirectMsg::CertifyVc { view, about, summary, sig } => {
                self.certify_vc(from, view, about, summary, sig)
            }
            DirectMsg::CertifySummary { stream, upto, digest, sig } => {
                self.on_certify_summary(from, stream, upto, digest, sig)
            }
            DirectMsg::Join { .. } => return self.on_join(from),
            DirectMsg::JoinAck { view, streams, commits } => {
                return self.on_join_ack(from, view, streams, commits)
            }
        }
        std::mem::take(&mut self.out)
    }

    /// A crypto job finished: continue the protocol step its tag names.
    /// Completions may arrive in any order and arbitrarily late; one whose
    /// step has been overtaken (boundary already certified, gap already
    /// filled) is a no-op.
    pub fn on_crypto_done(&mut self, tag: CryptoTag, result: CryptoResult) -> Vec<Effect> {
        self.crypto_done(tag, result);
        std::mem::take(&mut self.out)
    }

    fn crypto_done(&mut self, tag: CryptoTag, result: CryptoResult) {
        match (tag, result) {
            (CryptoTag::SummaryShare { stream, upto, digest }, CryptoResult::Signed(sig)) => {
                self.summary_share_signed(stream, upto, digest, sig)
            }
            (CryptoTag::SummaryCert { stream, upto }, CryptoResult::Verified(ok)) => {
                self.summary_cert_checked(stream, upto, ok)
            }
            (CryptoTag::CheckpointShare { data }, CryptoResult::Signed(sig)) => {
                self.checkpoint_share_signed(data, sig)
            }
            (CryptoTag::CheckpointCert { stream, k }, CryptoResult::Verified(ok)) => {
                self.checkpoint_cert_checked(stream, k, ok)
            }
            (CryptoTag::ShareCheck { of, from }, CryptoResult::Verified(ok)) => {
                self.share_checked(of, from, ok)
            }
            // A result of the wrong kind for its tag can only be a driver
            // bug; there is no step to continue.
            _ => {}
        }
    }

    /// Initialization effects: the progress watchdog.
    pub fn start(&mut self) -> Vec<Effect> {
        self.armed_marker = self.decide_count;
        self.out.push(Effect::ArmTimer { kind: TimerKind::Progress });
        std::mem::take(&mut self.out)
    }
}

/// What the verification cache ([`Engine::verify_cert`]) files a certificate
/// under: the digest of the signed bytes followed by the certificate.
fn cert_key(cert: &Certificate, bytes: &[u8]) -> Digest {
    let mut key = bytes.to_vec();
    cert.encode(&mut key);
    ubft_crypto::sha256(&key)
}
