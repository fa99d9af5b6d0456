//! One replica's protocol stack and the one driver that runs it.
//!
//! A [`ReplicaNode`] is the paper's replica (§5.4): consensus on CTBcast on
//! TBcast, one event loop. It owns the sans-IO state machines and the only
//! interpretation of their [`Effect`]s and [`CtbEffect`]s in this crate,
//! written once against [`Substrate`] — what a deployment backend does
//! differently from the other: move bytes, arm timers, run crypto and
//! register operations whose completions come back as inputs, decide
//! *when* a call's effects apply, serve state transfers, and observe. The
//! simulator (`group.rs`) implements it over the event queue, fabric and
//! cost cursors; the threaded backend (`threads.rs`) over the in-process
//! mesh, crypto pool and memory-node threads.

use ubft_core::app::App;
use ubft_core::engine::{
    CryptoJob, CryptoOps, DecisionRecord, Effect, Engine, EngineConfig, PathMode, TimerKind,
};
use ubft_core::lru::LruMap;
use ubft_core::msg::{exec_table_digest, Batch, CtbMsg, DirectMsg, Reply, Request, TbMsg};
use ubft_crypto::{Digest, KeyRing, Signature};
use ubft_ctb::ctbcast::{Ctb, CtbConfig, CtbEffect, RegEntry, SlowMode, VerifyTag};
use ubft_ctb::tbcast::{TailBroadcaster, TailReceiver};
use ubft_ctb::wire::{CtbWire, TbAck, TbFrame, TbWire};
use ubft_sim::failure::ByzantineMode;
use ubft_transport::net::{LaneId, LANE_CLIENT_REQ, LANE_CLIENT_RESP, LANE_CONS_TB, LANE_DIRECT};
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, SeqId, Slot};

use crate::audit::AuditMutation;
use crate::calibration::SimConfig;

/// Message lanes between nodes of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Lane {
    /// TBcast traffic of CTBcast stream `stream`.
    CtbTb { stream: usize },
    /// Consensus-level TBcast traffic.
    ConsTb,
    /// Point-to-point protocol messages.
    Direct,
    /// Client requests.
    ClientReq,
    /// Replica replies.
    ClientResp,
}

impl Lane {
    /// The lane's id in the transport's flat [`LaneId`] namespace:
    /// CTBcast stream `s` maps to lane `s`, everything else to the
    /// reserved high ids (stream counts are far below them).
    pub(crate) fn id(self) -> LaneId {
        match self {
            Lane::CtbTb { stream } => stream as LaneId,
            Lane::ConsTb => LANE_CONS_TB,
            Lane::Direct => LANE_DIRECT,
            Lane::ClientReq => LANE_CLIENT_REQ,
            Lane::ClientResp => LANE_CLIENT_RESP,
        }
    }

    /// The inverse of [`Lane::id`] in a group of `n` replicas; `None` for
    /// an id no lane has.
    pub(crate) fn from_id(id: LaneId, n: usize) -> Option<Lane> {
        match id {
            LANE_CONS_TB => Some(Lane::ConsTb),
            LANE_DIRECT => Some(Lane::Direct),
            LANE_CLIENT_REQ => Some(Lane::ClientReq),
            LANE_CLIENT_RESP => Some(Lane::ClientResp),
            s if (s as usize) < n => Some(Lane::CtbTb { stream: s as usize }),
            _ => None,
        }
    }
}

/// A request-dedup table as a checkpoint certifies it: the last executed
/// sequence number per client.
pub(crate) type ExecTable = Vec<(ClientId, u64)>;

/// The timers a replica arms; each comes back through
/// [`ReplicaNode::on_timer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum NodeTimer {
    /// One of the engine's own.
    Engine(TimerKind),
    /// CTBcast's fast-path timeout for own-stream message `k`.
    CtbSlow(SeqId),
    /// The periodic TBcast retransmission tick (§4.2: the broadcaster
    /// retransmits its buffered tail until acknowledged).
    Retransmit,
}

/// The completion of work a CTBcast instance asked the [`Substrate`] to
/// start; comes back through [`ReplicaNode::on_ctb_done`].
pub(crate) enum CtbDone {
    /// [`Substrate::ctb_sign`]'s signature over message `k`.
    Signed(SeqId, Signature),
    /// [`Substrate::ctb_verify`]'s verdict.
    Verified(VerifyTag, bool),
    /// [`Substrate::write_register`] reached its quorum for message `k`.
    Written(SeqId),
    /// [`Substrate::read_slot`]'s entries for message `k`, in replica order.
    Read(SeqId, Vec<Option<RegEntry>>),
}

/// What a deployment backend provides to one [`ReplicaNode`]: exactly what
/// the simulator and the threaded backend do differently, and no more.
///
/// [`Substrate::At`] is *when* a step happens: virtual
/// [`Time`](ubft_types::Time) in the simulator, `()` on threads, where
/// everything happens now. The driver never reads it; it hands the value
/// each nested step was given on to the next, so the simulator's cost
/// arithmetic is the substrate's alone. Node addresses are group-local:
/// replica `r` is node `r`, client `c` is node `n + c`.
pub(crate) trait Substrate {
    /// When a step happens.
    type At: Copy;

    /// Puts `bytes` on `lane` toward node `to` and says whether the fabric
    /// took them: `Some(false)` when it refused the write (the destination
    /// is down or cut off), `Some(true)` when it put one on the wire,
    /// `None` when nothing was attempted or nothing is known.
    fn send(&mut self, lane: Lane, to: usize, bytes: &[u8], at: Self::At) -> Option<bool>;

    /// [`Substrate::send`] for a TBcast frame the broadcaster holds in a
    /// shared buffer: a backend that can pass the handle copies nothing.
    fn send_frame(&mut self, lane: Lane, to: usize, wire: &TbWire, at: Self::At) -> Option<bool> {
        self.send(lane, to, wire.frame(), at)
    }

    /// Arms `timer` to fire `after` from `at`.
    fn arm(&mut self, timer: NodeTimer, after: Duration, at: Self::At);

    /// Starts `stream`'s broadcaster's signature over `(k, fp)`
    /// ([`CtbDone::Signed`]).
    fn ctb_sign(&mut self, stream: usize, k: SeqId, fp: Digest, at: Self::At);

    /// Starts the verification of `sig` over `(stream, k, fp)`
    /// ([`CtbDone::Verified`]).
    fn ctb_verify(
        &mut self,
        stream: usize,
        tag: VerifyTag,
        k: SeqId,
        fp: Digest,
        sig: Signature,
        at: Self::At,
    );

    /// Starts the write of this replica's SWMR register `slot` in
    /// `stream`'s bank ([`CtbDone::Written`]).
    fn write_register(
        &mut self,
        stream: usize,
        slot: usize,
        k: SeqId,
        entry: RegEntry,
        at: Self::At,
    );

    /// Starts the read of every replica's register `slot` of `stream`
    /// ([`CtbDone::Read`]).
    fn read_slot(&mut self, stream: usize, slot: usize, k: SeqId, at: Self::At);

    /// One engine call metered `ops` of ordered crypto, queued `jobs` and
    /// produced `fx`. The substrate starts the jobs — each result comes
    /// back through [`Engine::on_crypto_done`] — and says when the effects
    /// apply: `Some((at, fx))` for now, as of `at`; `None` when it keeps
    /// them until the crypto they wait for has finished and then hands
    /// them to [`ReplicaNode::apply_effects`]. The jobs are drained out of
    /// the engine's own queue, which keeps its buffer.
    fn engine_call_done(
        &mut self,
        at: Self::At,
        ops: CryptoOps,
        jobs: std::vec::Drain<'_, CryptoJob>,
        fx: Vec<Effect>,
    ) -> Option<(Self::At, Vec<Effect>)>;

    // What only a modelled deployment has — a cost model, a state-transfer
    // service, an observer, injected faults: a substrate with none of them
    // leaves the defaults.

    /// Occupies the replica's event loop for one dispatch plus `extra`
    /// from `at`; returns when it is free again.
    fn charge(&mut self, at: Self::At, _extra: Duration) -> Self::At {
        at
    }

    /// Runs `req`, decided in `slot`, on `app`; returns the reply payload
    /// and when the reply leaves.
    fn execute<A: App + ?Sized>(
        &mut self,
        app: &mut A,
        _slot: Slot,
        req: &Request,
        at: Self::At,
    ) -> (Vec<u8>, Self::At) {
        (app.execute(&req.payload), at)
    }

    /// Fetches the snapshot at `base` with the certified digests from
    /// whoever can serve it: the serialized application and the dedup
    /// table. The source is not trusted; `None` is a miss.
    fn fetch_snapshot(
        &mut self,
        _base: Slot,
        _app_digest: Digest,
        _exec_digest: Digest,
    ) -> Option<(Vec<u8>, ExecTable)> {
        None
    }

    /// The replica took its checkpoint snapshot at `base`: `app` hashes to
    /// `app_digest`, and `exec_table` is the dedup table of that instant.
    /// A substrate that serves state transfers retains both.
    fn on_snapshot<A: App + ?Sized>(
        &mut self,
        _base: Slot,
        _app_digest: Digest,
        _exec_table: ExecTable,
        _app: &A,
    ) {
    }

    /// A state transfer restored and verified `Some(bytes)`, or missed.
    fn on_transfer(&mut self, _restored: Option<usize>, _at: Self::At) {}

    /// A protocol message (acknowledgements excepted) went out on, or a
    /// client request came in from, `lane`.
    fn count_msg(&mut self, _lane: Lane) {}

    /// The engine decided a slot (recorded only in an audited deployment).
    fn on_decision(&mut self, _rec: DecisionRecord) {}

    /// The replica adopted the stable checkpoint at `base`.
    fn on_checkpoint_adopted(&mut self, _base: Slot) {}

    /// The Byzantine behaviour injected into this replica as of `at`.
    fn byz_mode(&self, _at: Self::At) -> Option<ByzantineMode> {
        None
    }
}

/// Consecutive stalled retransmission ticks before the broadcaster
/// force-converts its unsummarized CTBcast tail to the signed slow
/// path (≈ 600 µs at the default 150 µs period — far above a healthy
/// summary round trip, so failure-free runs never pay a signature).
const SUMMARY_STALL_TICKS: u32 = 4;

/// One replica's complete protocol stack.
///
/// A replica owns its consensus engine, its replicated application
/// instance, one CTBcast instance per stream (its own stream as
/// broadcaster, every peer's as receiver) and the TBcast endpoints those
/// streams and the consensus lane ride on. Everything with a clock, a
/// wire or a key store in it belongs to the [`Substrate`].
pub(crate) struct ReplicaNode<A: App + ?Sized = dyn App> {
    /// This replica's index in its group.
    r: usize,
    /// Clients of the group: requests from anyone else execute but are
    /// not answered.
    n_clients: usize,
    /// The consensus state machine (Algorithms 2–5).
    pub engine: Engine,
    /// The replicated application.
    pub app: Box<A>,
    /// CTBcast instances, one per stream: `ctbs[s]` handles stream `s`.
    pub ctbs: Vec<Ctb>,
    /// TBcast broadcasters for this replica's side of each CTBcast stream.
    ctb_tx: Vec<TailBroadcaster>,
    /// TBcast receivers: `ctb_rx[stream][sender]`.
    ctb_rx: Vec<Vec<TailReceiver>>,
    /// Broadcaster for the consensus-level TBcast lane.
    cons_tx: TailBroadcaster,
    /// Consensus-lane receivers, one per sender.
    cons_rx: Vec<TailReceiver>,
    /// `2t`: what every TBcast endpoint above buffers (Algorithm 1).
    tb_window: usize,
    progress_timeout: Duration,
    slow_trigger: Duration,
    echo_fallback: Duration,
    retransmit_period: Duration,
    /// Consecutive retransmission ticks during which this node's own
    /// CTBcast summary stayed stalled (a boundary crossed but not
    /// certified); past a threshold the tick force-converts the
    /// unsummarized tail to the signed slow path so receivers whose
    /// fast-path unanimity a dead peer broke can still deliver.
    summary_stall_ticks: u32,
    /// The last reply sent to each client (PBFT's last-reply table): a
    /// retransmitted request that already executed is answered from here —
    /// the engine's dedup cannot re-execute it, and without the cached
    /// reply a client whose response was lost would stall forever.
    /// Bounded alongside the engine's dedup table by
    /// [`SimConfig::client_cache_cap`]: replica-local, so eviction needs no
    /// cross-replica agreement.
    reply_cache: LruMap<ClientId, Reply>,
    /// Every non-noop request this replica executed, in execution order.
    /// Pure observation, recorded so the backend-equivalence suite can
    /// compare decided sequences between the two backends request by
    /// request.
    pub exec_log: Vec<(ClientId, u64)>,
    /// State transfers that found no (verifiable) snapshot: the replica
    /// fast-forwarded, so its application state may have diverged.
    pub transfer_misses: u64,
    /// Peers this replica's engine branded Byzantine: (culprit, why).
    pub branded: Vec<(u32, String)>,
    /// Where outgoing messages are encoded before the bytes are copied
    /// into a slot frame or a shared TBcast frame — reused for every send,
    /// so encoding allocates nothing.
    scratch: Vec<u8>,
}

impl<A: App + ?Sized> ReplicaNode<A> {
    /// Builds replica `r`'s protocol stack as `cfg` prescribes: the one
    /// place a deployment's boot, a replacement's boot and a replica
    /// thread get theirs, so the three can never drift.
    pub fn new(r: usize, cfg: &SimConfig, ring: KeyRing, app: Box<A>) -> Self {
        let n = cfg.params.n();
        let tail = cfg.params.tail;
        let mut ecfg = EngineConfig::new(cfg.params.clone(), cfg.path);
        ecfg.echo_round = cfg.echo_round;
        if let Some(every) = cfg.summary_every {
            ecfg.summary_half = every;
        }
        ecfg.max_batch = cfg.max_batch.max(1);
        if let Some(depth) = cfg.pipeline_depth {
            ecfg.pipeline_depth = depth.max(1);
        }
        ecfg.record_decisions = cfg.audit;
        ecfg.client_cache_cap = cfg.client_cache_cap;
        if let Some(AuditMutation::DecideEarly { replica: target }) = cfg.audit_mutation {
            ecfg.test_decide_early = target == r;
        }
        let ctb_cfg = match cfg.path {
            PathMode::FastOnly => CtbConfig { n, tail, fast_enabled: true, slow: SlowMode::Never },
            PathMode::SlowOnly => {
                CtbConfig { n, tail, fast_enabled: false, slow: SlowMode::Always }
            }
            PathMode::FastWithFallback => CtbConfig::deployed(n, tail),
        };
        let replicas: Vec<ReplicaId> = cfg.params.replicas().collect();
        let me = ReplicaId(r as u32);
        let peers: Vec<ReplicaId> = replicas.iter().copied().filter(|p| *p != me).collect();
        let cap = 2 * tail;
        let receivers = || (0..n).map(|_sender| TailReceiver::new(cap)).collect::<Vec<_>>();
        let hash_state = ring.signer(ProcessId::Replica(me)).expect("replica key").hash_state();
        let reply_cache_cap = ecfg.client_table_cap();
        ReplicaNode {
            r,
            n_clients: cfg.n_clients.max(1),
            engine: Engine::new(me, ecfg, ring),
            app,
            ctbs: replicas.iter().map(|s| Ctb::new(me, *s, replicas.clone(), ctb_cfg)).collect(),
            ctb_tx: (0..n).map(|_s| TailBroadcaster::new(peers.clone(), cap)).collect(),
            ctb_rx: (0..n).map(|_s| receivers()).collect(),
            cons_tx: TailBroadcaster::new(peers, cap),
            cons_rx: receivers(),
            tb_window: cap,
            progress_timeout: cfg.progress_timeout,
            slow_trigger: cfg.slow_trigger,
            echo_fallback: cfg.echo_fallback,
            retransmit_period: cfg.retransmit_period,
            summary_stall_ticks: 0,
            // The engine's in-flight floor: an entry evicted before its
            // client could possibly need a re-reply would stall that
            // client forever.
            reply_cache: LruMap::new(reply_cache_cap, hash_state),
            exec_log: Vec::new(),
            transfer_misses: 0,
            branded: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The replacement for this replica on a fresh host: a new stack
    /// around the same application instance (the caller resets it to
    /// genesis), with what the run has observed of the replica carried
    /// over.
    pub fn replaced(self, cfg: &SimConfig, ring: KeyRing) -> Self {
        ReplicaNode {
            exec_log: self.exec_log,
            transfer_misses: self.transfer_misses,
            branded: self.branded,
            ..ReplicaNode::new(self.r, cfg, ring, self.app)
        }
    }

    /// The TBcast receivers for `peer`'s frames start over: its
    /// replacement's broadcasters number their frames from 1 again
    /// (transport seq and CTBcast ids are independent; the CTBcast ids are
    /// adopted).
    pub fn reset_receivers_from(&mut self, peer: usize) {
        for rx in &mut self.ctb_rx {
            rx[peer] = TailReceiver::new(self.tb_window);
        }
        self.cons_rx[peer] = TailReceiver::new(self.tb_window);
    }

    /// Resident bytes of this node's CTBcast bookkeeping and TB
    /// retransmission buffers (the channel buffers are accounted by the
    /// group, which owns the channel map).
    pub fn protocol_resident_bytes(&self) -> usize {
        let mut total = 0usize;
        for (ctb, tx) in self.ctbs.iter().zip(&self.ctb_tx) {
            total += ctb.resident_bytes();
            total += tx.buffered_bytes();
        }
        total += self.cons_tx.buffered_bytes();
        total
    }

    // ------------------------------------------------------------------
    // Inputs
    // ------------------------------------------------------------------

    /// A message from node `from` arrived on `lane`.
    pub fn on_inbound<S: Substrate>(
        &mut self,
        sub: &mut S,
        lane: Lane,
        from: usize,
        payload: &[u8],
        at: S::At,
    ) {
        match lane {
            Lane::CtbTb { .. } | Lane::ConsTb => self.on_tb_frame(sub, lane, from, payload, at),
            Lane::Direct => {
                if let Ok(msg) = DirectMsg::from_bytes(payload) {
                    // A censoring leader pretends it never saw the request:
                    // it drops follower echoes (and client requests below)
                    // but participates in everything else.
                    if matches!(msg, DirectMsg::Echo { .. })
                        && sub.byz_mode(at) == Some(ByzantineMode::CensorRequests)
                    {
                        return;
                    }
                    let f = ReplicaId(from as u32);
                    self.engine_call(sub, at, |e| e.on_direct(f, msg));
                }
            }
            Lane::ClientReq => {
                if let Ok(req) = Request::from_bytes(payload) {
                    sub.count_msg(Lane::ClientReq);
                    if sub.byz_mode(at) == Some(ByzantineMode::CensorRequests) {
                        return;
                    }
                    // A retransmission of an already-executed request is
                    // answered from the last-reply table — the engine's
                    // dedup cannot re-execute it (PBFT's classic re-reply).
                    let cached = self
                        .reply_cache
                        .get(&req.id.client)
                        .filter(|reply| reply.id == req.id)
                        .cloned();
                    if let Some(reply) = cached {
                        self.send_reply(sub, &reply, at);
                        return;
                    }
                    self.engine_call(sub, at, |e| e.on_client_request(req));
                }
            }
            // Replies go to clients, which live on the substrate's side.
            Lane::ClientResp => {}
        }
    }

    /// Work started for `stream`'s CTBcast instance finished.
    pub fn on_ctb_done<S: Substrate>(
        &mut self,
        sub: &mut S,
        stream: usize,
        done: CtbDone,
        at: S::At,
    ) {
        self.ctb_call(sub, stream, at, |c| match done {
            CtbDone::Signed(k, sig) => c.on_sign_done(k, sig),
            CtbDone::Verified(tag, ok) => c.on_verify_done(tag, ok),
            CtbDone::Written(k) => c.on_register_written(k),
            CtbDone::Read(k, entries) => c.on_registers_read(k, entries),
        });
    }

    /// A timer armed through [`Substrate::arm`] fired.
    pub fn on_timer<S: Substrate>(&mut self, sub: &mut S, timer: NodeTimer, at: S::At) {
        match timer {
            NodeTimer::Engine(kind) => self.engine_call(sub, at, |e| e.on_timer(kind)),
            NodeTimer::CtbSlow(k) => self.ctb_call(sub, self.r, at, |c| c.on_slow_timeout(k)),
            NodeTimer::Retransmit => self.on_retransmit_tick(sub, at),
        }
    }

    /// One TBcast retransmission tick: every broadcaster this replica owns
    /// resends its stale unacknowledged tail (§4.2), then the tick re-arms.
    /// Also the summary-stall watchdog: a crossed-but-uncertified summary
    /// boundary that survives several ticks means some receiver cannot
    /// reach it in FIFO order (its fast-path unanimity died with a peer) —
    /// the only repair is to give the stuck suffix signed slow-path
    /// evidence, because the summary itself needs that receiver's share.
    fn on_retransmit_tick<S: Substrate>(&mut self, sub: &mut S, at: S::At) {
        let lanes = (0..self.ctbs.len()).map(|stream| Lane::CtbTb { stream }).chain([Lane::ConsTb]);
        for lane in lanes {
            for (to, wire) in self.tb_tx(lane).retransmit_stale() {
                self.send_tb_frame(sub, lane, to, &wire, at);
            }
        }

        let sent = self.engine.ctb_sent_count();
        let done = self.engine.ctb_summarized_upto();
        if sent >= done + self.engine.summary_half() {
            self.summary_stall_ticks += 1;
            if self.summary_stall_ticks >= SUMMARY_STALL_TICKS {
                self.summary_stall_ticks = 0;
                let r = self.r;
                let mut fx = Vec::new();
                for k in done + 1..=sent {
                    fx.extend(self.ctbs[r].force_slow(SeqId(k)));
                }
                for e in fx {
                    self.ctb_effect(sub, r, at, e);
                }
            }
        } else {
            self.summary_stall_ticks = 0;
        }
        sub.arm(NodeTimer::Retransmit, self.retransmit_period, at);
    }

    // ------------------------------------------------------------------
    // Engine plumbing
    // ------------------------------------------------------------------

    /// Feeds the engine one input and carries out what it asks for.
    pub fn engine_call<S: Substrate>(
        &mut self,
        sub: &mut S,
        at: S::At,
        f: impl FnOnce(&mut Engine) -> Vec<Effect>,
    ) {
        let fx = f(&mut self.engine);
        // Freshly recorded decisions reach the observer *before* their
        // Execute effects run, so its coverage lookups find the evidence.
        for rec in self.engine.take_decisions() {
            sub.on_decision(rec);
        }
        let ops = self.engine.take_crypto_ops();
        let applied = sub.engine_call_done(at, ops, self.engine.take_crypto_jobs(), fx);
        if let Some((at, fx)) = applied {
            self.apply_effects(sub, at, fx);
        }
    }

    /// Carries out one engine call's effects as of `at`.
    pub fn apply_effects<S: Substrate>(&mut self, sub: &mut S, at: S::At, fx: Vec<Effect>) {
        for e in fx {
            self.engine_effect(sub, at, e);
        }
    }

    fn engine_effect<S: Substrate>(&mut self, sub: &mut S, at: S::At, e: Effect) {
        match e {
            Effect::CtbBroadcast(msg) => {
                let r = self.r;
                let (_k, cfx) = self.ctbs[r].broadcast(msg.to_bytes());
                for ce in cfx {
                    self.ctb_effect(sub, r, at, ce);
                }
            }
            Effect::TbBroadcast(msg) => self.tb_broadcast(sub, Lane::ConsTb, &msg, at),
            Effect::SendReplica { to, msg } => {
                sub.count_msg(Lane::Direct);
                self.send_msg(sub, Lane::Direct, to.0 as usize, &msg, at);
            }
            Effect::Execute { slot, req } => {
                let (payload, done) = sub.execute(&mut *self.app, slot, &req, at);
                if !req.is_noop() {
                    self.exec_log.push((req.id.client, req.id.seq));
                }
                if !req.is_noop() && (req.id.client.0 as usize) < self.n_clients {
                    let reply = Reply { id: req.id, replica: ReplicaId(self.r as u32), payload };
                    self.send_reply(sub, &reply, done);
                    // Last-reply table (one entry per client, LRU-bounded
                    // when capped), so a retransmitted already-executed
                    // request can be re-answered.
                    let _ = self.reply_cache.insert(req.id.client, reply);
                }
            }
            Effect::RequestSnapshot { base } => {
                let digest = self.app.snapshot_digest();
                // The dedup table is captured at the same instant as the
                // application digest, so the certified checkpoint covers
                // the *whole* decision-relevant state. The engine paused
                // execution at `base` for this and resumes inside the
                // `on_snapshot` call below: both are the state after slot
                // `base - 1` exactly, and the pause costs no time.
                let table = self.engine.exec_table();
                let exec_digest = exec_table_digest(&table);
                sub.on_snapshot(base, digest, table, &*self.app);
                self.engine_call(sub, at, |e| e.on_snapshot(base, digest, exec_digest));
            }
            Effect::StateTransfer { base, app_digest, exec_digest } => {
                self.state_transfer(sub, base, app_digest, exec_digest, at);
            }
            Effect::AdoptStreams { tails } => {
                for (stream, next) in tails {
                    self.ctbs[stream.0 as usize].adopt_tail(next);
                }
            }
            Effect::ArmTimer { kind } => {
                let after = match kind {
                    // PBFT-style backoff: fruitless view changes double
                    // the watchdog period so slow view changes complete.
                    TimerKind::Progress => {
                        self.progress_timeout * u64::from(self.engine.progress_backoff())
                    }
                    TimerKind::SlotSlowTrigger(_) => self.slow_trigger,
                    TimerKind::EchoFallback(_) => self.echo_fallback,
                };
                sub.arm(NodeTimer::Engine(kind), after, at);
            }
            Effect::ByzantineDetected { replica, reason } => {
                self.branded.push((replica.0, reason));
            }
            Effect::CheckpointAdopted { base } => sub.on_checkpoint_adopted(base),
            Effect::ViewChanged { .. } => {}
        }
    }

    /// Restores the application to the certified state at `base` from
    /// whatever the substrate can fetch, verified against the certified
    /// `app_digest` — the source is not trusted.
    fn state_transfer<S: Substrate>(
        &mut self,
        sub: &mut S,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
        at: S::At,
    ) {
        if base == Slot(0) {
            return; // genesis: a replica boots with it
        }
        let fetched = sub.fetch_snapshot(base, app_digest, exec_digest);
        if let Some((bytes, _)) = &fetched {
            self.app.restore_bytes(bytes);
        }
        // The restored state must hash to the *certified* digest, or the
        // transfer is treated as missed (the next checkpoint retries from
        // another source) — as it is when there was nothing to restore
        // from (no snapshots retained, or extreme lag). The engine
        // fast-forwards regardless, so the application may have diverged.
        let Some((bytes, table)) = fetched.filter(|_| self.app.snapshot_digest() == app_digest)
        else {
            self.transfer_misses += 1;
            return sub.on_transfer(None, at);
        };
        sub.on_transfer(Some(bytes.len()), at);
        // Hand the certified dedup table to the engine (it re-verifies
        // against the checkpoint's exec_digest and prunes bookkeeping the
        // table proves executed).
        self.engine_call(sub, at, |e| e.on_exec_table(base, table));
    }

    // ------------------------------------------------------------------
    // CTBcast plumbing
    // ------------------------------------------------------------------

    /// Feeds `stream`'s CTBcast instance one input and carries out what it
    /// asks for.
    fn ctb_call<S: Substrate>(
        &mut self,
        sub: &mut S,
        stream: usize,
        at: S::At,
        f: impl FnOnce(&mut Ctb) -> Vec<CtbEffect>,
    ) {
        let fx = f(&mut self.ctbs[stream]);
        let done = sub.charge(at, Duration::ZERO);
        for e in fx {
            self.ctb_effect(sub, stream, done, e);
        }
    }

    fn ctb_effect<S: Substrate>(&mut self, sub: &mut S, stream: usize, at: S::At, e: CtbEffect) {
        match e {
            CtbEffect::Broadcast(wire) => {
                if stream == self.r
                    && sub.byz_mode(at) == Some(ByzantineMode::EquivocateProposals)
                    && self.equivocate_broadcast(sub, at, &wire)
                {
                    return;
                }
                self.tb_broadcast(sub, Lane::CtbTb { stream }, &wire, at);
            }
            CtbEffect::Sign { k, fp } => sub.ctb_sign(stream, k, fp, at),
            CtbEffect::Verify { tag, k, fp, sig } => sub.ctb_verify(stream, tag, k, fp, sig, at),
            CtbEffect::WriteRegister { slot, k, entry } => {
                sub.write_register(stream, slot, k, entry, at);
            }
            CtbEffect::ReadSlot { slot, k } => sub.read_slot(stream, slot, k, at),
            CtbEffect::Deliver { k, payload } => {
                let s = ReplicaId(stream as u32);
                match CtbMsg::from_bytes(&payload) {
                    Ok(msg) => self.engine_call(sub, at, |e| e.on_ctb_deliver(s, k, msg)),
                    Err(_) => self.engine_call(sub, at, |e| e.on_ctb_equivocation(s, k)),
                }
            }
            CtbEffect::Equivocation { k } => {
                let s = ReplicaId(stream as u32);
                self.engine_call(sub, at, |e| e.on_ctb_equivocation(s, k));
            }
            CtbEffect::ArmSlowTimer { k } => sub.arm(NodeTimer::CtbSlow(k), self.slow_trigger, at),
        }
    }

    /// Byzantine equivocation: this broadcaster sends *different* proposals
    /// to different receivers under the same CTBcast id — the exact attack
    /// CTBcast exists to stop. Returns `true` when the frame was handled
    /// (it carried a fast-path `LOCK` of a `PREPARE`); other frames fall
    /// through to the honest path so the Byzantine replica still
    /// participates in the rest of the protocol.
    fn equivocate_broadcast<S: Substrate>(
        &mut self,
        sub: &mut S,
        at: S::At,
        wire: &CtbWire,
    ) -> bool {
        let CtbWire::Lock { m, .. } = wire else {
            return false;
        };
        let Ok(CtbMsg::Prepare(prep)) = CtbMsg::from_bytes(m) else {
            return false;
        };
        // Register the broadcast with the honest TailBroadcaster (sequence
        // numbers, retransmission buffer, self-delivery) but send odd
        // receivers a hand-crafted poisoned variant under the same id.
        let r = self.r;
        let lane = Lane::CtbTb { stream: r };
        let honest = self.ctb_tx[r].broadcast(wire, &mut self.scratch);
        let mut alt = prep.clone();
        let mut reqs = alt.batch.requests().to_vec();
        if reqs[0].payload.is_empty() {
            reqs[0].payload.push(0xFF);
        } else {
            reqs[0].payload[0] ^= 0xFF;
        }
        alt.batch = Batch::new(reqs);
        let alt_wire = CtbWire::Lock { k: honest.k, m: CtbMsg::Prepare(alt).to_bytes() };
        let poisoned = TbWire::encode(honest.k, &alt_wire, &mut self.scratch);
        for to in (0..self.ctbs.len()).filter(|to| *to != r) {
            sub.count_msg(lane);
            let tb = if to % 2 == 1 { &poisoned } else { &honest };
            sub.send(lane, to, tb.frame(), at);
        }
        self.deliver_tb_payload(sub, lane, ReplicaId(r as u32), honest.payload(), at);
        true
    }

    // ------------------------------------------------------------------
    // TBcast plumbing
    // ------------------------------------------------------------------

    /// This replica's broadcaster on a TBcast lane.
    fn tb_tx(&mut self, lane: Lane) -> &mut TailBroadcaster {
        match lane {
            Lane::CtbTb { stream } => &mut self.ctb_tx[stream],
            _ => &mut self.cons_tx,
        }
    }

    /// TBcast-broadcasts `msg` on `lane`: one encoded frame goes to every
    /// peer, then its payload is delivered locally.
    fn tb_broadcast<S: Substrate>(&mut self, sub: &mut S, lane: Lane, msg: &impl Wire, at: S::At) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let wire = self.tb_tx(lane).broadcast(msg, &mut scratch);
        self.scratch = scratch;
        for i in 0..self.tb_tx(lane).peers().len() {
            let to = self.tb_tx(lane).peers()[i];
            self.send_tb_frame(sub, lane, to, &wire, at);
        }
        self.deliver_tb_payload(sub, lane, ReplicaId(self.r as u32), wire.payload(), at);
    }

    fn send_tb_frame<S: Substrate>(
        &mut self,
        sub: &mut S,
        lane: Lane,
        to: ReplicaId,
        wire: &TbWire,
        at: S::At,
    ) {
        sub.count_msg(lane);
        // The broadcaster that caused the send learns whether the fabric
        // took the write; an accepted probe releases the tail it was
        // holding back from `to`.
        if let Some(accepted) = sub.send_frame(lane, to.0 as usize, wire, at) {
            for (to, wire) in self.tb_tx(lane).on_send_result(to, accepted) {
                self.send_tb_frame(sub, lane, to, &wire, at);
            }
        }
    }

    /// Hands a TBcast payload to the layer the lane carries: decoded here,
    /// straight out of the buffer it arrived (or was broadcast) in.
    fn deliver_tb_payload<S: Substrate>(
        &mut self,
        sub: &mut S,
        lane: Lane,
        from: ReplicaId,
        payload: &[u8],
        at: S::At,
    ) {
        match lane {
            Lane::CtbTb { stream } => {
                if let Ok(wire) = CtbWire::from_bytes(payload) {
                    self.ctb_call(sub, stream, at, |c| c.on_tb_deliver(from, wire));
                }
            }
            Lane::ConsTb => {
                if let Ok(msg) = TbMsg::from_bytes(payload) {
                    self.engine_call(sub, at, |e| e.on_tb_deliver(from, msg));
                }
            }
            _ => {}
        }
    }

    /// A TBcast frame arrived from replica `from`: an ack goes to the
    /// lane's broadcaster; a data frame is delivered if the receiver has
    /// not seen it, then acknowledged if the receiver says so. Cumulative
    /// acks silence the broadcaster's retransmission of the buffered tail
    /// (§4.2).
    fn on_tb_frame<S: Substrate>(
        &mut self,
        sub: &mut S,
        lane: Lane,
        from: usize,
        frame: &[u8],
        at: S::At,
    ) {
        let (tx, rx) = match lane {
            Lane::CtbTb { stream } => (&mut self.ctb_tx[stream], &mut self.ctb_rx[stream][from]),
            _ => (&mut self.cons_tx, &mut self.cons_rx[from]),
        };
        match TbFrame::decode(frame) {
            Ok(TbFrame::Data { k, payload }) => {
                let receipt = rx.on_wire(k);
                if receipt.deliver {
                    self.deliver_tb_payload(sub, lane, ReplicaId(from as u32), payload, at);
                }
                if let Some(upto) = receipt.ack {
                    sub.send(lane, from, &TbAck { upto }.frame(), at);
                }
            }
            Ok(TbFrame::Ack(ack)) => tx.on_ack(ReplicaId(from as u32), ack.upto),
            Err(_) => {}
        }
    }

    /// Encodes `msg` and sends it to node `to` on `lane`.
    fn send_msg<S: Substrate>(
        &mut self,
        sub: &mut S,
        lane: Lane,
        to: usize,
        msg: &impl Wire,
        at: S::At,
    ) {
        self.scratch.clear();
        msg.encode(&mut self.scratch);
        sub.send(lane, to, &self.scratch, at);
    }

    /// Sends `reply` to the client it answers.
    fn send_reply<S: Substrate>(&mut self, sub: &mut S, reply: &Reply, at: S::At) {
        sub.count_msg(Lane::ClientResp);
        let c_node = self.ctbs.len() + reply.id.client.0 as usize;
        self.send_msg(sub, Lane::ClientResp, c_node, reply, at);
    }
}
