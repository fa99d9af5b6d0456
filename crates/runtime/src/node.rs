//! One replica's protocol stack and the one driver that runs it.
//!
//! A [`ReplicaNode`] is the paper's replica (§5.4): consensus on CTBcast on
//! TBcast, one event loop. It owns the sans-IO state machines and the only
//! interpretation of their [`Effect`]s and [`CtbEffect`]s in this crate,
//! written once against [`Substrate`] — what a deployment backend does
//! differently from the other: move bytes, arm timers, run crypto and
//! register operations whose completions come back as [`NodeInput`]s, decide
//! *when* a call's effects apply, hand decided requests to the replica's
//! executor (`exec.rs`), serve state transfers, keep a clock, and observe.
//! What offloaded crypto computes is [`CryptoTask::run`]'s, here too. The
//! simulator (`group.rs`) implements it over the event queue, fabric and
//! cost cursors; the threaded backend (`threads.rs`) over the in-process
//! mesh, crypto pool and the memory nodes' shared stores.

use ubft_core::engine::{
    CryptoJob, CryptoOps, CryptoResult, CryptoTag, DecisionRecord, Effect, Engine, EngineConfig,
    PathMode, TimerKind,
};
use ubft_core::msg::{Batch, CtbMsg, DirectMsg, Request, TbMsg};
use ubft_crypto::{Digest, KeyRing, Signature};
use ubft_ctb::ctbcast::{Ctb, CtbConfig, CtbEffect, RegEntry, SlowMode, VerifyTag};
use ubft_ctb::tbcast::{TailBroadcaster, TailReceiver};
use ubft_ctb::wire::{sign_broadcast, verify_broadcast, CtbWire, TbAck, TbFrame, TbWire};
use ubft_sim::failure::ByzantineMode;
use ubft_transport::net::{LaneId, LANE_CLIENT_REQ, LANE_CLIENT_RESP, LANE_CONS_TB, LANE_DIRECT};
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, SeqId, Slot};

use crate::audit::AuditMutation;
use crate::calibration::{
    SimConfig, ECHO_FALLBACK, PROGRESS_TIMEOUT, RETRANSMIT_PERIOD, SLOW_TRIGGER,
};
use crate::cluster::{CoreTime, OpCounters, TimerInputs};
use crate::exec::ExecJob;

/// Message lanes between nodes of one group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
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

    /// Where `c` counts the messages sent on this lane.
    fn msgs(self, c: &mut OpCounters) -> &mut u64 {
        match self {
            Lane::CtbTb { .. } => &mut c.ctb_msgs,
            Lane::ConsTb => &mut c.cons_msgs,
            Lane::Direct => &mut c.direct_msgs,
            Lane::ClientReq | Lane::ClientResp => &mut c.rpc_msgs,
        }
    }

    /// Where `c` files the main core's time on a message of this lane.
    fn core(self, c: &mut CoreTime) -> &mut Duration {
        match self {
            Lane::CtbTb { .. } => &mut c.ctb_frames,
            Lane::ConsTb => &mut c.consensus_frames,
            Lane::Direct => &mut c.direct_msgs,
            Lane::ClientReq | Lane::ClientResp => &mut c.client_requests,
        }
    }
}

/// A request-dedup table as a checkpoint certifies it: the last executed
/// sequence number per client.
pub(crate) type ExecTable = Vec<(ClientId, u64)>;

/// The timers a replica arms; each comes back as a `NodeInput::Timer`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeTimer {
    /// One of the engine's own.
    Engine(TimerKind),
    /// The fast path's sweep over this replica's own CTBcast broadcasts
    /// ([`CtbEffect::ArmSlowTimer`]).
    CtbSweep,
    /// The periodic TBcast retransmission tick (§4.2: the broadcaster
    /// retransmits its buffered tail until acknowledged).
    Retransmit,
}

/// The completion of work a CTBcast instance asked the [`Substrate`] to
/// start; comes back as a [`NodeInput::Ctb`].
pub(crate) enum CtbDone {
    /// A [`CryptoTask::CtbSign`]'s signature over message `k` with
    /// fingerprint `fp`.
    Signed(SeqId, Digest, Signature),
    /// A [`CryptoTask::CtbVerify`]'s verdict.
    Verified(VerifyTag, bool),
    /// [`Substrate::write_and_read_slot`]'s write reached its quorum for
    /// message `k`.
    Written(SeqId),
    /// [`Substrate::write_and_read_slot`]'s entries for message `k`, in
    /// replica order.
    Read(SeqId, Vec<Option<RegEntry>>),
}

/// Everything that comes back to a [`ReplicaNode`] from its [`Substrate`],
/// messages apart: the one thing [`ReplicaNode::on_input`] takes. A
/// backend queues these however it likes; the simulator stamps each with
/// the host that scheduled it, so nothing a dead incarnation started acts
/// on its replacement.
pub(crate) enum NodeInput {
    /// A timer armed through [`Substrate::arm`] fired.
    Timer(NodeTimer),
    /// Work started for `stream`'s CTBcast instance finished.
    Ctb { stream: usize, done: CtbDone },
    /// An engine crypto job finished.
    Crypto { tag: CryptoTag, result: CryptoResult },
    /// An engine call's effects the substrate kept back until the crypto
    /// they wait for finished ([`Substrate::engine_call_done`]).
    Effects(Vec<Effect>),
    /// The executor took the checkpoint snapshot at `base`
    /// ([`ExecJob::Snapshot`]).
    Snapshot { base: Slot, app_digest: Digest, exec_digest: Digest },
    /// The executor restored a state transfer at `base`: `Some((bytes,
    /// dedup table))` when it verified, `None` when it did not
    /// ([`ExecJob::Restore`]).
    Restored { base: Slot, restored: Option<(usize, ExecTable)> },
}

/// Crypto a replica hands off its event loop: a CTBcast signature or
/// verification, or one of the engine's jobs. A substrate decides where and
/// when it runs; what it computes is [`CryptoTask::run`]'s alone.
pub(crate) enum CryptoTask {
    /// `stream`'s broadcaster's signature over message `k` with fingerprint
    /// `fp`.
    CtbSign { stream: usize, k: SeqId, fp: Digest },
    /// The check of `sig` over `(stream, k, fp)`.
    CtbVerify { stream: usize, tag: VerifyTag, k: SeqId, fp: Digest, sig: Signature },
    /// An engine crypto job.
    Engine(CryptoJob),
}

impl CryptoTask {
    /// The public-key operations it costs.
    pub fn ops(&self) -> CryptoOps {
        match self {
            CryptoTask::CtbSign { .. } => CryptoOps { signs: 1, verifies: 0 },
            CryptoTask::CtbVerify { .. } => CryptoOps { signs: 0, verifies: 1 },
            CryptoTask::Engine(job) => job.ops(),
        }
    }

    /// Carries the task out for replica `r` of the group whose keys are
    /// `ring`: the input it completes with.
    pub fn run(self, r: usize, ring: &KeyRing) -> NodeInput {
        match self {
            CryptoTask::CtbSign { stream, k, fp } => {
                let sig = sign_broadcast(ring, ReplicaId(stream as u32), k, &fp);
                NodeInput::Ctb { stream, done: CtbDone::Signed(k, fp, sig) }
            }
            CryptoTask::CtbVerify { stream, tag, k, fp, sig } => {
                let ok = verify_broadcast(ring, ReplicaId(stream as u32), k, &fp, &sig);
                NodeInput::Ctb { stream, done: CtbDone::Verified(tag, ok) }
            }
            CryptoTask::Engine(job) => {
                let me = ProcessId::Replica(ReplicaId(r as u32));
                let result = job.run(&ring.signer(me).expect("replica key"), ring);
                NodeInput::Crypto { tag: job.tag, result }
            }
        }
    }
}

/// What a deployment backend provides to one [`ReplicaNode`]: exactly what
/// the simulator and the threaded backend do differently, and no more.
///
/// [`Substrate::At`] is *when* a step happens: virtual
/// [`Time`](ubft_types::Time) in the simulator, `()` on threads, where
/// everything happens now. The driver never reads it; it hands the value
/// each nested step was given on to the next, so the simulator's cost
/// arithmetic is the substrate's alone. Node addresses are group-local:
/// replica `r` is node `r`, client `c` is node `n + c`. A register write
/// and the slot read that checks it are one call
/// ([`Substrate::write_and_read_slot`]): the driver pairs the two CTBcast
/// effects, so their order is not a contract between two calls.
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

    /// Starts `task`, a CTBcast signature or verification; it comes back
    /// as the input [`CryptoTask::run`] returns. (An engine call's jobs
    /// come with [`Substrate::engine_call_done`].)
    fn crypto(&mut self, task: CryptoTask, at: Self::At);

    /// Writes `entry` to this replica's SWMR register `slot` in `stream`'s
    /// bank, with register timestamp `k`, and reads every replica's
    /// register `slot` of `stream` behind it: one round trip. The read
    /// leaves behind the write on every memory node's queue pair, counting
    /// only the nodes that took the write, and executes only once the
    /// writes before it on its queue pair have landed. Any two replicas'
    /// reads then share a node where one's write has landed before the
    /// other's read arrives, as two round trips one after the other would
    /// guarantee. Two completions come back, in either order: the write's
    /// quorum ([`CtbDone::Written`]) and the entries read
    /// ([`CtbDone::Read`]).
    fn write_and_read_slot(
        &mut self,
        stream: usize,
        slot: usize,
        k: SeqId,
        entry: RegEntry,
        at: Self::At,
    );

    /// One engine call metered `ops` of ordered crypto, queued `jobs` and
    /// produced `fx`. The substrate starts the jobs — each comes back as
    /// [`CryptoTask::Engine`]'s input — and says when the effects apply:
    /// `Some((at, fx))` for now, as of `at`; `None` when it keeps them
    /// until the crypto they wait for has finished and then hands them
    /// back as a [`NodeInput::Effects`]. The jobs are drained out of the
    /// engine's own queue, which keeps its buffer.
    fn engine_call_done(
        &mut self,
        at: Self::At,
        ops: CryptoOps,
        jobs: std::vec::Drain<'_, CryptoJob>,
        fx: Vec<Effect>,
    ) -> Option<(Self::At, Vec<Effect>)>;

    /// Hands `job` to the replica's executor, which runs its jobs in the
    /// order they are handed over, answers clients itself, and hands what
    /// the event loop needs back as a [`NodeInput`]. Handing a job over
    /// costs the event loop nothing beyond the dispatch under way.
    fn exec(&mut self, job: ExecJob, at: Self::At);

    // What only a modelled deployment has — a clock, a cost model, a
    // state-transfer service, an observer, injected faults: a substrate
    // with none of them leaves the defaults.

    /// The replica's main-core time so far, on the substrate's clock: the
    /// dispatch costs charged in the simulator, the wall clock on threads.
    /// The driver files what passes between two reads under the kind of
    /// input it was handling ([`ReplicaNode::core`]).
    fn clock(&self) -> Duration {
        Duration::ZERO
    }

    /// Occupies the replica's event loop for one dispatch plus `extra`
    /// from `at`; returns when it is free again.
    fn charge(&mut self, at: Self::At, _extra: Duration) -> Self::At {
        at
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

    /// A state transfer restored and verified `Some(bytes)`, or missed.
    fn on_transfer(&mut self, _restored: Option<usize>, _at: Self::At) {}

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
/// path (≈ 600 µs at the 150 µs [`RETRANSMIT_PERIOD`] — far above a healthy
/// summary round trip, so failure-free runs never pay a signature).
const SUMMARY_STALL_TICKS: u32 = 4;

/// The engine configuration `cfg` prescribes for replica `r`.
pub(crate) fn engine_config(r: usize, cfg: &SimConfig) -> EngineConfig {
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
    if let Some(AuditMutation::DecideEarly { replica: target }) = cfg.audit_mutation {
        ecfg.test_decide_early = target == r;
    }
    ecfg
}

/// One replica's complete protocol stack: its event loop.
///
/// A replica owns its consensus engine, one CTBcast instance per stream
/// (its own stream as broadcaster, every peer's as receiver) and the
/// TBcast endpoints those streams and the consensus lane ride on. Its
/// application runs beside it, on the executor the [`Substrate`] hands
/// decided requests to; everything with a clock, a wire or a key store in
/// it belongs to the substrate too.
pub(crate) struct ReplicaNode {
    /// This replica's index in its group.
    r: usize,
    /// The consensus state machine (Algorithms 2–5).
    pub engine: Engine,
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
    /// Where this node's own CTBcast summary last stalled — the id its
    /// last certified summary covers, a boundary past it crossed but not
    /// certified — and for how many consecutive retransmission ticks; past
    /// a threshold the tick force-converts the unsummarized tail to the
    /// signed slow path so receivers whose fast-path unanimity a dead peer
    /// broke can still deliver.
    pub summary_stall: (u64, u32),
    /// State transfers that found no (verifiable) snapshot: the replica
    /// fast-forwarded, so its application state may have diverged.
    pub transfer_misses: u64,
    /// Peers this replica's engine branded Byzantine: (culprit, why).
    pub branded: Vec<(u32, String)>,
    /// The timers this incarnation handled, by kind.
    pub timers: TimerInputs,
    /// This incarnation's main-core time on the substrate's clock, filed
    /// once per input the substrate hands over, under its kind. (Its
    /// `execution` is the executor's: [`Executor::busy`](crate::exec::Executor).)
    pub core: CoreTime,
    /// The operations started so far, by kind, the predecessors' included:
    /// protocol messages (acknowledgements excepted), CTBcast signatures
    /// and verifications, register round trips and the engine's crypto.
    pub counters: OpCounters,
    /// Where outgoing messages are encoded before the bytes are copied
    /// into a slot frame or a shared TBcast frame — reused for every send,
    /// so encoding allocates nothing.
    scratch: Vec<u8>,
    /// The COMMIT our own stream's CTBcast signs ahead
    /// ([`Engine::take_ctb_ahead`]), encoded once: its broadcast sends
    /// these bytes.
    ctb_ahead: Option<(CtbMsg, Vec<u8>)>,
    /// Echoes to replica `echo_to` that wait to leave as one message, and
    /// the first slot the engine had accepted and not decided when the
    /// first of them came ([`Engine::accepted_undecided`]). Kept across
    /// flushes, so coalescing allocates no buffer.
    echoes: Vec<Request>,
    echo_to: usize,
    echo_mark: Option<Slot>,
    /// The most echoes one message carries: `max_batch`, so the requests
    /// of a coalesced echo fit the slot a batch fits, and an unbatched
    /// group never coalesces.
    echo_cap: usize,
}

impl ReplicaNode {
    /// Builds replica `r`'s protocol stack as `cfg` prescribes: the one
    /// place a deployment's boot, a replacement's boot and a replica
    /// thread get theirs, so the three can never drift.
    pub fn new(r: usize, cfg: &SimConfig, ring: KeyRing) -> Self {
        let n = cfg.params.n();
        let tail = cfg.params.tail;
        let ecfg = engine_config(r, cfg);
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
        ReplicaNode {
            r,
            engine: Engine::new(me, ecfg, ring),
            ctbs: replicas.iter().map(|s| Ctb::new(me, *s, replicas.clone(), ctb_cfg)).collect(),
            ctb_tx: (0..n).map(|_s| TailBroadcaster::new(peers.clone(), cap)).collect(),
            ctb_rx: (0..n).map(|_s| receivers()).collect(),
            cons_tx: TailBroadcaster::new(peers, cap),
            cons_rx: receivers(),
            tb_window: cap,
            summary_stall: (0, 0),
            transfer_misses: 0,
            branded: Vec::new(),
            timers: TimerInputs::default(),
            core: CoreTime::default(),
            counters: OpCounters::default(),
            scratch: Vec::new(),
            ctb_ahead: None,
            echoes: Vec::new(),
            echo_to: 0,
            echo_mark: None,
            echo_cap: cfg.max_batch.max(1),
        }
    }

    /// The replacement for this replica on a fresh host: a new stack,
    /// with what the run has observed of the replica carried over.
    pub fn replaced(self, cfg: &SimConfig, ring: KeyRing) -> Self {
        ReplicaNode {
            transfer_misses: self.transfer_misses,
            branded: self.branded,
            counters: self.counters,
            ..ReplicaNode::new(self.r, cfg, ring)
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

    /// Starts the engine — a replacement's in the join state, above the
    /// register timestamps its scan found — as one input of the replica's.
    pub fn boot<S: Substrate>(&mut self, sub: &mut S, at: S::At, join: Option<SeqId>) {
        let start = sub.clock();
        self.engine_call(sub, at, |e| match join {
            None => e.start(),
            Some(floor) => e.begin_join(floor),
        });
        self.core.completions += sub.clock() - start;
    }

    /// A message from node `from` arrived on `lane`: one input, whose
    /// main-core time is filed under its lane.
    pub fn on_inbound<S: Substrate>(
        &mut self,
        sub: &mut S,
        lane: Lane,
        from: usize,
        payload: &[u8],
        at: S::At,
    ) {
        let start = sub.clock();
        self.receive(sub, lane, from, payload, at);
        *lane.core(&mut self.core) += sub.clock() - start;
    }

    /// [`ReplicaNode::on_inbound`]'s dispatch.
    fn receive<S: Substrate>(
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
                    if matches!(msg, DirectMsg::Echo { .. } | DirectMsg::Echoes { .. })
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
                    if sub.byz_mode(at) == Some(ByzantineMode::CensorRequests) {
                        return;
                    }
                    // A retransmission of a request handed to the executor
                    // is answered from its last-reply table — the engine's
                    // dedup cannot re-execute it (PBFT's classic re-reply).
                    if self.engine.executed(req.id) {
                        return sub.exec(ExecJob::Reanswer(req.id), at);
                    }
                    self.engine_call(sub, at, |e| e.on_client_request(req));
                }
            }
            // Replies go to clients, which live on the substrate's side.
            Lane::ClientResp => {}
        }
    }

    /// What the substrate hands back: a timer, a completion, or effects it
    /// kept back. One input: its main-core time is filed under timers or
    /// completions.
    pub fn on_input<S: Substrate>(&mut self, sub: &mut S, input: NodeInput, at: S::At) {
        let (start, is_timer) = (sub.clock(), matches!(input, NodeInput::Timer(_)));
        if let NodeInput::Timer(timer) = &input {
            let t = &mut self.timers;
            *match timer {
                NodeTimer::Engine(TimerKind::Progress) => &mut t.progress,
                NodeTimer::Engine(TimerKind::SlowSweep) => &mut t.slow_sweep,
                NodeTimer::Engine(TimerKind::EchoFallback) => &mut t.echo_fallback,
                NodeTimer::CtbSweep => &mut t.ctb_sweep,
                NodeTimer::Retransmit => &mut t.retransmit,
            } += 1;
        }
        self.handle(sub, input, at);
        let core = &mut self.core;
        *if is_timer { &mut core.timers } else { &mut core.completions } += sub.clock() - start;
    }

    /// [`ReplicaNode::on_input`]'s dispatch.
    fn handle<S: Substrate>(&mut self, sub: &mut S, input: NodeInput, at: S::At) {
        match input {
            NodeInput::Timer(NodeTimer::Engine(kind)) => {
                self.engine_call(sub, at, |e| e.on_timer(kind))
            }
            // The receivers it finds silent are suspected by the engine,
            // which keeps the replica's one record of who is silent.
            NodeInput::Timer(NodeTimer::CtbSweep) => {
                let fx = self.ctbs[self.r].sweep(|silent| self.engine.suspect([silent]));
                self.ctb_call(sub, self.r, at, |_| fx)
            }
            NodeInput::Timer(NodeTimer::Retransmit) => self.on_retransmit_tick(sub, at),
            NodeInput::Ctb { stream, done } => self.ctb_call(sub, stream, at, |c| match done {
                CtbDone::Signed(k, fp, sig) => c.on_sign_done_over(k, fp, sig),
                CtbDone::Verified(tag, ok) => c.on_verify_done(tag, ok),
                CtbDone::Written(k) => c.on_register_written(k),
                CtbDone::Read(k, entries) => c.on_registers_read(k, entries),
            }),
            NodeInput::Crypto { tag, result } => {
                self.engine_call(sub, at, |e| e.on_crypto_done(tag, result))
            }
            NodeInput::Effects(fx) => self.apply_effects(sub, at, fx),
            NodeInput::Snapshot { base, app_digest, exec_digest } => {
                self.engine_call(sub, at, |e| e.on_snapshot(base, app_digest, exec_digest))
            }
            NodeInput::Restored { restored: None, .. } => {
                self.transfer_misses += 1;
                sub.on_transfer(None, at);
            }
            NodeInput::Restored { base, restored: Some((bytes, table)) } => {
                sub.on_transfer(Some(bytes), at);
                // The certified dedup table goes to the engine, which
                // re-verifies it against the checkpoint's exec_digest and
                // prunes bookkeeping the table proves executed.
                self.engine_call(sub, at, |e| e.on_exec_table(base, table));
            }
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

        let (sent, done) = (self.engine.ctb_sent_count(), self.engine.ctb_summarized_upto());
        // The ticks count while one boundary stays uncertified: a summary
        // that completes starts them over, so a broadcaster that is a half
        // ahead of its summaries only because it broadcasts fast never
        // signs its tail.
        let ticks = if self.summary_stall.0 == done { self.summary_stall.1 + 1 } else { 1 };
        if sent < done + self.engine.summary_half() {
            self.summary_stall = (done, 0);
        } else if ticks < SUMMARY_STALL_TICKS {
            self.summary_stall = (done, ticks);
        } else {
            self.summary_stall = (done, 0);
            let fx: Vec<_> =
                (done + 1..=sent).flat_map(|k| self.ctbs[self.r].force_slow(SeqId(k))).collect();
            self.ctb_effects(sub, self.r, at, fx);
        }
        sub.arm(NodeTimer::Retransmit, RETRANSMIT_PERIOD, at);
    }

    // ------------------------------------------------------------------
    // Engine plumbing
    // ------------------------------------------------------------------

    /// Feeds the engine one input and carries out what it asks for.
    fn engine_call<S: Substrate>(
        &mut self,
        sub: &mut S,
        at: S::At,
        f: impl FnOnce(&mut Engine) -> Vec<Effect>,
    ) {
        let fx = f(&mut self.engine);
        // A COMMIT whose bytes are known before its certificate is verified
        // is signed meanwhile, from the call that learned them.
        if let Some((k, msg)) = self.engine.take_ctb_ahead() {
            let (r, bytes) = (self.r, msg.to_bytes());
            let sign = self.ctbs[r].sign_ahead(k, &bytes);
            self.ctb_effects(sub, r, at, sign);
            self.ctb_ahead = Some((msg, bytes));
        }
        // Freshly recorded decisions reach the observer *before* their
        // Execute effects run, so its coverage lookups find the evidence.
        for rec in self.engine.take_decisions() {
            sub.on_decision(rec);
        }
        let (ops, jobs) = (self.engine.take_crypto_ops(), self.engine.take_crypto_jobs());
        for job in jobs.as_slice().iter().map(CryptoJob::ops).chain([ops]) {
            self.counters.engine_signs += u64::from(job.signs);
            self.counters.engine_verifies += u64::from(job.verifies);
        }
        let applied = sub.engine_call_done(at, ops, jobs, fx);
        if let Some((at, fx)) = applied {
            self.apply_effects(sub, at, fx);
        }
    }

    /// Carries out one engine call's effects as of `at`. Echoes that wait
    /// leave once the slot they wait on has decided ([`ReplicaNode::echo`]).
    fn apply_effects<S: Substrate>(&mut self, sub: &mut S, at: S::At, fx: Vec<Effect>) {
        for e in fx {
            self.engine_effect(sub, at, e);
        }
        if !self.echoes.is_empty() && self.engine.accepted_undecided() != self.echo_mark {
            self.flush_echoes(sub, at);
        }
    }

    fn engine_effect<S: Substrate>(&mut self, sub: &mut S, at: S::At, e: Effect) {
        match e {
            Effect::CtbBroadcast(msg) => {
                let r = self.r;
                let ahead = self.ctb_ahead.take_if(|(ahead, _)| *ahead == msg);
                let bytes = ahead.map_or_else(|| msg.to_bytes(), |(_, bytes)| bytes);
                // A peer known to be silent breaks the fast path's
                // unanimity: the slow path starts beside it.
                let (_, cfx) = self.ctbs[r].broadcast_as(bytes, self.engine.suspects_anyone());
                self.ctb_effects(sub, r, at, cfx);
            }
            Effect::TbBroadcast(msg) => self.tb_broadcast(sub, Lane::ConsTb, &msg, at),
            Effect::SendReplica { to, msg: DirectMsg::Echo { req } } => {
                self.echo(sub, to.0 as usize, req, at)
            }
            Effect::SendReplica { to, msg } => {
                self.send_msg(sub, Lane::Direct, to.0 as usize, &msg, at)
            }
            Effect::Execute { slot, req } => sub.exec(ExecJob::Execute { slot, req }, at),
            Effect::RequestSnapshot { base } => {
                // The dedup table goes with the job, so the certified
                // checkpoint covers the *whole* decision-relevant state:
                // the engine paused execution at `base` for this and
                // resumes once the executor's digest comes back as a
                // `NodeInput::Snapshot` — both are the state after slot
                // `base - 1` exactly.
                let table = self.engine.exec_table();
                sub.exec(ExecJob::Snapshot { base, table }, at);
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
                        PROGRESS_TIMEOUT * u64::from(self.engine.progress_backoff())
                    }
                    // Every firing of a sweep acts on what waited since the
                    // one before: a slot waits at least SLOW_TRIGGER for its
                    // fast path, a request at most ECHO_FALLBACK for its
                    // echoes.
                    TimerKind::SlowSweep => SLOW_TRIGGER,
                    TimerKind::EchoFallback => ECHO_FALLBACK / 2,
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

    /// Echoes `req` to replica `to`. While a slot this follower accepted
    /// has not decided, the echo waits, with the ones that follow it, for
    /// that slot's decision: they leave together once it has decided (the
    /// leader's pipeline has freed a slot too), checked after every engine
    /// call ([`ReplicaNode::apply_effects`]), and early when the buffer
    /// holds `echo_cap` requests or an echo to another replica comes. With
    /// nothing in flight an echo leaves at once.
    fn echo<S: Substrate>(&mut self, sub: &mut S, to: usize, req: Request, at: S::At) {
        if to != self.echo_to {
            self.flush_echoes(sub, at);
            self.echo_to = to;
        }
        if self.echoes.is_empty() {
            self.echo_mark = self.engine.accepted_undecided();
        }
        self.echoes.push(req);
        if self.echoes.len() >= self.echo_cap || self.echo_mark.is_none() {
            self.flush_echoes(sub, at);
        }
    }

    /// Sends the echoes that wait, if any: one as an [`DirectMsg::Echo`],
    /// several as one [`DirectMsg::Echoes`], whose buffer comes back.
    fn flush_echoes<S: Substrate>(&mut self, sub: &mut S, at: S::At) {
        let msg = match self.echoes.len() {
            0 => return,
            1 => DirectMsg::Echo { req: self.echoes.pop().expect("one echo") },
            _ => DirectMsg::Echoes { reqs: std::mem::take(&mut self.echoes) },
        };
        self.send_msg(sub, Lane::Direct, self.echo_to, &msg, at);
        if let DirectMsg::Echoes { reqs: mut buf } = msg {
            buf.clear();
            self.echoes = buf;
        }
    }

    /// Restores the application to the certified state at `base` from
    /// whatever the substrate can fetch: the executor verifies it against
    /// the certified `app_digest` — the source is not trusted — and its
    /// verdict comes back as a [`NodeInput::Restored`]. A transfer with
    /// nothing to restore from (no snapshots retained, or extreme lag) is
    /// missed at once. The engine waits at `base` until then: it executes
    /// nothing on a state it could not verify.
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
        match sub.fetch_snapshot(base, app_digest, exec_digest) {
            Some((bytes, table)) => {
                sub.exec(ExecJob::Restore { base, app_digest, bytes, table }, at)
            }
            // Part of the input under way, not one of its own.
            None => self.handle(sub, NodeInput::Restored { base, restored: None }, at),
        }
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
        self.ctb_effects(sub, stream, done, fx);
    }

    /// Carries out what `stream`'s CTBcast instance asked for, in order. A
    /// register write takes the slot read that follows it, and the two
    /// leave as one substrate call.
    fn ctb_effects<S: Substrate>(
        &mut self,
        sub: &mut S,
        stream: usize,
        at: S::At,
        fx: impl IntoIterator<Item = CtbEffect>,
    ) {
        let mut fx = fx.into_iter();
        while let Some(e) = fx.next() {
            match e {
                CtbEffect::Broadcast(wire) => {
                    if stream == self.r
                        && sub.byz_mode(at) == Some(ByzantineMode::EquivocateProposals)
                        && self.equivocate_broadcast(sub, at, &wire)
                    {
                        continue;
                    }
                    self.tb_broadcast(sub, Lane::CtbTb { stream }, &wire, at);
                }
                CtbEffect::Sign { k, fp } => {
                    self.counters.ctb_signs += 1;
                    sub.crypto(CryptoTask::CtbSign { stream, k, fp }, at);
                }
                CtbEffect::Verify { tag, k, fp, sig } => {
                    self.counters.ctb_verifies += 1;
                    sub.crypto(CryptoTask::CtbVerify { stream, tag, k, fp, sig }, at);
                }
                CtbEffect::WriteRegister { slot, k, entry } => match fx.next() {
                    Some(CtbEffect::ReadSlot { slot: s, k: j }) if (s, j) == (slot, k) => {
                        self.counters.reg_writes += 1;
                        self.counters.reg_reads += 1;
                        sub.write_and_read_slot(stream, slot, k, entry, at);
                    }
                    e => panic!("register write {k:?} of slot {slot} is followed by {e:?}"),
                },
                CtbEffect::ReadSlot { .. } => {
                    panic!("a slot read leaves only with its register write")
                }
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
                CtbEffect::ArmSlowTimer => sub.arm(NodeTimer::CtbSweep, SLOW_TRIGGER, at),
            }
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
            *lane.msgs(&mut self.counters) += 1;
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
        *lane.msgs(&mut self.counters) += 1;
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
        *lane.msgs(&mut self.counters) += 1;
        self.scratch.clear();
        msg.encode(&mut self.scratch);
        sub.send(lane, to, &self.scratch, at);
    }
}
