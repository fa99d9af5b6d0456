//! The uBFT replica engine: Algorithms 2 (common case), 3 (view change),
//! 4 (summaries), and 5 (Byzantine checks) as one sans-IO state machine,
//! one module per algorithm:
//!
//! | module | what it holds |
//! |---|---|
//! | `stream` | Algorithm 5: FIFO interpretation of every CTBcast stream, the validity checks, the parked head |
//! | `normal` | Algorithm 2: request intake, echo round, proposal, fast and slow path, decide, execute |
//! | `requests` | §5.4: one record per client request — seen → queued (alone or batchable) → in a slot → executed → reclaimed; the stage diagram and the handler behind each transition are in its module comment —, the proposal queue, the dedup table |
//! | `checkpoint` | Algorithm 2 lines 44–47: snapshots, checkpoint certification, the window of open slots; the seal checkpoint that discharges a sealer's promises on executed slots |
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
//! A driver that hands the drained vector back ([`Engine::recycle`]) has
//! the next input's effects built in it.
//!
//! Crypto comes in two
//! kinds. The verification of a foreign commit certificate and view-change
//! crypto run inline (the simulation's key ring is cheap) and are metered
//! in [`CryptoOps`], so the runtime charges the paper-calibrated virtual
//! time (sign ≈ 17 µs, verify ≈ 45 µs) before the call's effects act —
//! their order is a protocol invariant. Everything that collects `f + 1`
//! shares toward a certificate has no such invariant: the shares of a slot
//! (Algorithm 2 line 33), of a CTBcast summary (Algorithm 4) and of a
//! consensus checkpoint (Algorithm 2 line 44) are parked in a `ShareSet`
//! and checked by [`CryptoJob`]s ([`Engine::take_crypto_jobs`]) whose
//! results come back as ordinary inputs ([`Engine::on_crypto_done`]), as
//! do our own shares' signatures. A slot's is requested as soon as we know
//! the proposal it certifies — the leader's as it proposes, a follower's
//! as it admits the leader's early share — and leaves once we accepted
//! that proposal, and the COMMIT it helps certify is signed by CTBcast as
//! soon as its bytes are known ([`Engine::take_ctb_ahead`]); the two
//! periodic certifications' bound memory and must stay off the request
//! path altogether. A replacement node's join still verifies
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

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use ubft_crypto::{sha256::Sha256, Certificate, Digest, KeyRing, Signature, Signer};
use ubft_types::wire::{Held, Wire};
use ubft_types::{FixedMap, FixedSet, Outbox, ProcessId, ReplicaId, SeqId, Slot, Sweep, View};

use self::certify::ShareSet;
use self::join::JoinState;
use self::normal::{CertifyBytes, SlotState};
use self::requests::Requests;
use self::stream::PeerState;
pub use self::types::{
    CryptoOps, DecisionEvidence, DecisionRecord, Effect, EngineConfig, EngineDiag, Gate, OwnShare,
    PathMode, SlotDiag, Standing, StreamDiag, TimerKind,
};
pub use self::view_change::must_propose;
pub use crate::crypto_job::{CryptoJob, CryptoResult, CryptoTag, CryptoWork, ShareOf};
use crate::msg::{CheckpointCert, CheckpointData, CtbMsg, DirectMsg, Prepare, StateSummary};

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
    /// transfer counts): execution pauses at the next multiple of `window`
    /// past it for the next one.
    snapshot_base: Slot,
    /// The base of a snapshot requested and not yet answered: execution is
    /// paused there until [`Engine::on_snapshot`] — or, for a state
    /// transfer's, until [`Engine::on_exec_table`] adopts its dedup table.
    snapshot_pending: Option<Slot>,
    /// Leader: a decision freed a slot of a full pipeline, and the slot
    /// waits for the echoes the followers sent at that decision
    /// (`propose_ready`) until something is proposed into it.
    echo_wait: bool,
    state: BTreeMap<ReplicaId, PeerState>,
    slots: BTreeMap<Slot, SlotState>,
    /// What CERTIFY shares over each slot's proposal sign.
    certify_bytes: CertifyBytes,
    /// Client requests, from receipt to reclaim (§5.4).
    requests: Requests,
    /// Slots whose PREPARE on the current leader's stream we hold back, in
    /// any view, because some request of it is not held here and its
    /// leader's NEW_VIEW does not force it (§5.4). Only the arrival of its
    /// requests releases it; a peer's CERTIFY share does not. The PREPARE
    /// itself lives in that stream's [`PeerState::prepares`] and nowhere
    /// else; this only says where to look, so a request with nothing held
    /// costs one empty check.
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
    /// The COMMIT CTBcast may sign before it is broadcast, and the id it
    /// will get ([`Engine::take_ctb_ahead`]).
    ctb_ahead: Option<(SeqId, CtbMsg)>,
    /// Leader: the PREPAREs it proposed whose CTBcast delivery here has not
    /// come yet (at most a pipeline's worth), for [`Engine::held_batch`].
    proposed: VecDeque<Prepare>,
    /// Effects of the input being handled, in emission order; every public
    /// input hands them over on return ([`Engine::take_out`]), and the
    /// vectors a driver hands back ([`Engine::recycle`]) hold the next ones.
    out: Outbox<Effect>,
    /// View-change shares collected (as incoming leader), keyed by
    /// `(view, about)` — shares signed in different views cover different
    /// bytes and must never be merged into one certificate — one per
    /// signer, over the summary it arrived with.
    vc_shares: BTreeMap<(View, ReplicaId), ShareSet<StateSummary>>,
    /// Slots with an outstanding WILL_COMMIT promise blocking our SEAL_VIEW.
    sealing: Option<View>,
    /// The view for which we (as leader) have broadcast NEW_VIEW.
    new_view_broadcast: Option<View>,
    /// Certificates already verified (content digest), to avoid re-metering,
    /// each filed under the slot it speaks for: a COMMIT's own slot, and the
    /// stable base current when it was recorded for anything else. Kept
    /// down to one window below the stable base, as `verified_cp_data` is.
    verified_certs: FixedMap<Digest, Slot>,
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
    /// The fast path's sweep ([`TimerKind::SlowSweep`]).
    slow_sweep: Sweep,
    /// Decisions recorded for the auditor (only when
    /// [`EngineConfig::record_decisions`] is set).
    decisions: Vec<DecisionRecord>,
    ops: CryptoOps,
    /// The buffer [`cert_key`] encodes certificates in, reused.
    scratch: Vec<u8>,
}

impl Engine {
    /// Creates a replica engine.
    ///
    /// # Panics
    ///
    /// Panics if `ring` has no key for `me`, or if there are more replicas
    /// than a slot's vote sets hold ([`ubft_types::ReplicaSet::CAPACITY`]).
    pub fn new(me: ReplicaId, cfg: EngineConfig, ring: KeyRing) -> Self {
        let signer = ring.signer(ProcessId::Replica(me)).expect("key for me");
        assert!(cfg.params.n() <= ubft_types::ReplicaSet::CAPACITY);
        let state = cfg.params.replicas().map(|r| (r, PeerState::new())).collect();
        // The hash maps below whose keys clients or peers choose hash the
        // same in every run of a seed (`ubft_types::hash`), under a key only
        // this replica holds.
        let hash_state = signer.hash_state();
        let requests = Requests::new(cfg.client_table_cap(), cfg.params.quorum(), hash_state);
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
            echo_wait: false,
            state,
            slots: BTreeMap::new(),
            certify_bytes: CertifyBytes::default(),
            requests,
            held: BTreeSet::new(),
            my_ctb_sent: 0,
            summary_done_upto: 0,
            queued_ctb: VecDeque::new(),
            summary_shares: BTreeMap::new(),
            summary_checks: BTreeMap::new(),
            crypto_jobs: Vec::new(),
            ctb_ahead: None,
            proposed: VecDeque::new(),
            out: Outbox::new(),
            vc_shares: BTreeMap::new(),
            sealing: None,
            new_view_broadcast: None,
            verified_certs: FixedMap::with_hasher(hash_state),
            cp_shares: BTreeMap::new(),
            verified_cp_data: FixedSet::with_hasher(hash_state),
            decide_count: 0,
            armed_marker: 0,
            vc_streak: 0,
            join: None,
            slow_sweep: Sweep::default(),
            decisions: Vec::new(),
            ops: CryptoOps::default(),
            scratch: Vec::new(),
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

    /// The next CTBcast id this engine expects from `stream`'s broadcast
    /// sequence (FIFO interpretation position; diagnostics).
    pub fn fifo_position(&self, stream: ReplicaId) -> SeqId {
        self.state.get(&stream).map_or(SeqId(1), |ps| ps.fifo_next)
    }

    /// The engine's explanation of itself: what keeps it from progress.
    /// Its gate is the first of these that is shut: a join under way, a
    /// seal waiting on a promise, a snapshot, a parked stream, the CTBcast
    /// summary gate, a full pipeline.
    pub fn diag(&self) -> EngineDiag {
        let (outstanding, request_entries, propose_queue) = self.requests.counts();
        let in_flight = self.in_flight_slots();
        let known = self.slots.keys().chain(&self.held).filter(|k| **k >= self.exec_next);
        let undecided = |k: &&Slot| self.slots.get(k).is_none_or(|s| s.decided.is_none());
        let oldest = known.filter(undecided).min().copied();
        let stream = |ps: &PeerState| StreamDiag {
            standing: ps.standing,
            view: ps.view,
            fifo_next: ps.fifo_next,
            commit_view: ps.commits.values().map(|c| c.prepare.view).max(),
        };
        let full = self.is_leader() && propose_queue > 0;
        let parked = self.state.iter().find(|(_, ps)| ps.parked.is_some()).map(|(r, _)| *r);
        let queued = self.queued_ctb.len();
        let gates = [
            self.join.as_ref().map(|_| Gate::Joining),
            self.sealing.and(self.undischarged_promises().next()).map(Gate::Sealing),
            self.snapshot_pending.map(Gate::Snapshot),
            parked.map(Gate::Parked),
            (queued > 0).then_some(Gate::Summary(self.my_ctb_sent, self.summary_done_upto, queued)),
            (full && in_flight >= self.cfg.pipeline_depth as u64).then_some(Gate::Pipeline),
        ];
        EngineDiag {
            view: self.view,
            sealing: self.sealing,
            exec_next: self.exec_next,
            in_flight,
            checkpoint_base: self.checkpoint.data.base,
            snapshot_pending: self.snapshot_pending,
            parked_streams: self.state.values().filter(|ps| ps.parked.is_some()).count(),
            checkpoint_shares: self.cp_shares.values().map(ShareSet::len).sum(),
            outstanding,
            request_entries,
            propose_queue,
            ctb_sent: self.my_ctb_sent,
            equivocations: (self.state.iter())
                .filter_map(|(r, ps)| match ps.standing {
                    Standing::Branded(Some(k)) => Some((*r, k)),
                    _ => None,
                })
                .collect(),
            joining: self.join.is_some(),
            has_pending_work: self.has_pending_work(),
            suspected: (self.state.iter())
                .filter(|(_, ps)| ps.standing != Standing::Trusted)
                .map(|(r, _)| *r)
                .collect(),
            oldest: oldest.map(|slot| self.slot_diag(slot)),
            streams: self.state.values().map(stream).collect(),
            gate: gates.into_iter().flatten().next(),
        }
    }

    fn slot_diag(&self, slot: Slot) -> SlotDiag {
        let s = self.slots.get(&slot).cloned().unwrap_or_default();
        SlotDiag {
            slot,
            accepted: s.prepare.is_some(),
            held: self.held.contains(&slot),
            promised_in: s.promised_in,
            share: s.shares.ours(self.me).map(|(_, sig)| match sig {
                _ if s.sent_certify => OwnShare::Sent,
                Some(_) => OwnShare::Signed,
                None => OwnShare::Signing,
            }),
            commit_sent: s.sent_commit,
            commits: self.state.values().filter(|ps| ps.commits.contains_key(&slot)).count(),
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

    /// Takes the COMMIT our own stream will carry at the returned id once
    /// its certificate is verified, known before that: a driver collects it
    /// after every call beside the crypto jobs and has CTBcast sign it
    /// meanwhile (`Ctb::sign_ahead`). Only a broadcast of exactly this
    /// message at that id uses the signature; nothing is lost by ignoring
    /// it, as a harness does.
    pub fn take_ctb_ahead(&mut self) -> Option<(SeqId, CtbMsg)> {
        self.ctb_ahead.take()
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

    /// Hands over the effects of the input under way: the one place a
    /// public input's effects leave.
    fn take_out(&mut self) -> Vec<Effect> {
        self.out.take()
    }

    /// Takes back a vector of effects an input returned, once the driver
    /// has carried them out: a later input's effects are built in it. A
    /// driver that never hands one back only allocates a vector per input.
    pub fn recycle(&mut self, fx: Vec<Effect>) {
        self.out.recycle(fx);
    }

    /// How many handed-back effect vectors wait for reuse (at most
    /// [`ubft_types::outbox::SPARES`]).
    pub fn spare_effect_vecs(&self) -> usize {
        self.out.spares()
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

    /// Signs inline, as ordered crypto: the view change's `CRTFY_VC` only.
    fn sign(&mut self, bytes: &[u8]) -> Signature {
        self.ops.signs += 1;
        self.signer.sign(bytes)
    }

    fn verify(&mut self, who: ReplicaId, bytes: &[u8], sig: &Signature) -> bool {
        self.ops.verifies += 1;
        self.ring.verify(ProcessId::Replica(who), bytes, sig)
    }

    /// Verifies an `f + 1` certificate once per content, filing it under
    /// `slot`; repeated identical certificates cost nothing (verification
    /// caching).
    fn verify_cert(&mut self, cert: &Certificate, bytes: &[u8], slot: Slot) -> bool {
        let key = cert_key(cert, bytes, &mut self.scratch);
        if !self.verified_certs.contains_key(&key) {
            self.ops.verifies += cert.count() as u32;
            if !cert.verify(&self.ring, bytes, self.quorum()) {
                return false;
            }
            self.verified_certs.insert(key, slot);
        }
        true
    }

    /// Has the crypto worker sign `bytes`; the signature comes back under
    /// `tag`.
    fn sign_job(&mut self, tag: CryptoTag, bytes: Arc<[u8]>) {
        self.crypto_jobs.push(CryptoJob { tag, work: CryptoWork::Sign { bytes } });
    }

    /// Has the crypto worker check that `cert` carries `f + 1` signatures
    /// over `bytes`; the verdict comes back under `tag`.
    fn check_cert(&mut self, tag: CryptoTag, cert: Certificate, bytes: Arc<[u8]>) {
        let work = CryptoWork::VerifyCert { cert, bytes, quorum: self.quorum() };
        self.crypto_jobs.push(CryptoJob { tag, work });
    }

    /// Registers a locally-built certificate as verified (it is made of
    /// shares we already checked), filed under `slot`, so re-verification
    /// costs nothing.
    fn note_own_cert(&mut self, cert: &Certificate, bytes: &[u8], slot: Slot) {
        let key = cert_key(cert, bytes, &mut self.scratch);
        self.verified_certs.insert(key, slot);
    }
    /// A timer armed via [`Effect::ArmTimer`] fired.
    pub fn on_timer(&mut self, kind: TimerKind) -> Vec<Effect> {
        match kind {
            TimerKind::Progress => self.progress_timeout(),
            TimerKind::SlowSweep => self.slow_sweep(),
            TimerKind::EchoFallback => self.echo_sweep(),
        }
        self.take_out()
    }

    /// A direct message arrived.
    pub fn on_direct(&mut self, from: ReplicaId, msg: DirectMsg) -> Vec<Effect> {
        self.run_unclaimed_jobs();
        if self.branded(from) {
            return self.take_out();
        }
        // The echoes (either tag), Join and JoinAck are public inputs of
        // their own; whichever input runs last hands over the outbox, the
        // effects above included.
        match msg {
            DirectMsg::Echo { req } => return self.on_echo(from, [req]),
            DirectMsg::Echoes { reqs } => return self.on_echo(from, reqs),
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
        self.take_out()
    }

    /// A crypto job finished: continue the protocol step its tag names.
    /// Completions may arrive in any order and arbitrarily late; one whose
    /// step has been overtaken (boundary already certified, gap already
    /// filled) is a no-op.
    pub fn on_crypto_done(&mut self, tag: CryptoTag, result: CryptoResult) -> Vec<Effect> {
        self.crypto_done(tag, result);
        self.take_out()
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
            (CryptoTag::SlotShare { slot, view }, CryptoResult::Signed(sig)) => {
                self.slot_share_signed(slot, view, sig)
            }
            (CryptoTag::ShareCheck { of, from }, CryptoResult::Verified(ok)) => {
                self.share_checked(of, from, ok)
            }
            // A result of the wrong kind for its tag can only be a driver
            // bug; there is no step to continue.
            _ => {}
        }
    }

    /// Suspects `peers`, which a timed-out fast path found silent: the
    /// driver hands over the receivers CTBcast's own sweep (`Ctb::sweep` in
    /// `ubft-ctb`) found silent. This replica never suspects itself, and a
    /// branded peer stays branded.
    pub fn suspect(&mut self, peers: impl IntoIterator<Item = ReplicaId>) {
        for r in peers.into_iter().filter(|r| *r != self.me) {
            let ps = self.state.get_mut(&r).expect("known replica");
            if ps.standing == Standing::Trusted {
                ps.standing = Standing::Suspected;
            }
        }
    }

    /// Whether some peer is not [`Standing::Trusted`]: the fast path cannot
    /// reach unanimity, so a newly accepted PREPARE starts the slow path at
    /// once instead of waiting out the sweep, the leader signs its share as
    /// it proposes, and the driver starts the slow path of each broadcast
    /// of ours beside its fast path.
    pub fn suspects_anyone(&self) -> bool {
        self.state.values().any(|ps| ps.standing != Standing::Trusted)
    }

    /// Initialization effects: the progress watchdog.
    pub fn start(&mut self) -> Vec<Effect> {
        self.armed_marker = self.decide_count;
        self.out.push(Effect::ArmTimer { kind: TimerKind::Progress });
        self.take_out()
    }
}

/// A replica's decoder shares the batches its engine holds
/// ([`Engine::held_batch`]).
impl Held for Engine {
    fn held(&self, view: View, slot: Slot) -> Option<&dyn Any> {
        self.held_batch(view, slot).map(|b| b as &dyn Any)
    }
}

/// What the verification cache ([`Engine::verify_cert`]) files a certificate
/// under: the digest of the signed bytes followed by the certificate,
/// hashed piecewise, the certificate encoded in `scratch`.
fn cert_key(cert: &Certificate, bytes: &[u8], scratch: &mut Vec<u8>) -> Digest {
    scratch.clear();
    cert.encode(scratch);
    let mut key = Sha256::new();
    key.update(bytes);
    key.update(scratch);
    key.finalize()
}
