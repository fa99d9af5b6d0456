//! The wall-clock deployment backend ([`Backend::Threads`]): every replica,
//! client driver, and memory node of a deployment runs on its own OS
//! thread, connected by the lock-free in-process channel transport
//! ([`InProcEndpoint`]), with CTBcast signature/digest work and the
//! engine's crypto jobs offloaded to a sized crypto worker pool.
//!
//! The protocol stack is untouched: the same sans-IO state machines the
//! discrete-event simulator drives — [`Engine`], [`Ctb`],
//! [`TailBroadcaster`]/[`TailReceiver`] — emit the same effect enums here;
//! only the interpreter differs. Where the simulator turns effects into
//! virtual-time events on a shared queue, this backend turns them into
//! real sends on the in-process mesh, real `Instant`-based timers, jobs on
//! the crypto pool, and quorum RPCs to memory-node threads. That is the
//! whole point of the effect-based design: one protocol implementation,
//! two execution substrates.
//!
//! What this backend deliberately does **not** model:
//!
//! * **Failures.** No crashes, Byzantine modes, partitions, replacements,
//!   or auditing — [`run_wallclock`] rejects configs that schedule any.
//!   The wall-clock backend exists to measure real throughput and latency
//!   of the failure-free path; every fault-tolerance property is exercised
//!   deterministically by the simulator backend, which remains bit-for-bit
//!   pinned (`tests/pinned_sim.rs`).
//! * **Calibrated costs.** Real time is the cost model. The engine's
//!   metered [`CryptoOps`](ubft_core::engine::CryptoOps) accounting is
//!   discarded; CTBcast slow-path signatures and verifications, and the
//!   engine's summary crypto jobs, run on the worker pool for real.
//! * **Torn register reads.** The SWMR register banks become memory-node
//!   threads holding a `(group, stream, owner, slot) → (ts, bytes)` store
//!   behind typed control-frame RPCs, with real `f_m + 1` write/read
//!   quorums and max-timestamp merge. Message atomicity makes the regular
//!   register's checksummed sub-register dance unnecessary; quorum
//!   intersection still provides regularity.
//!
//! **Timers and `time_scale`.** Protocol timeouts are calibrated in
//! microseconds of virtual time; a preempted OS thread can easily be late
//! by more than a whole progress timeout, which would trigger spurious
//! view changes. [`SimConfig::time_scale`] stretches every armed timer
//! (not message latency) by a constant factor so scheduling jitter
//! disappears into the slack.

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ubft_core::app::App;
use ubft_core::client::Client;
use ubft_core::engine::{CryptoJob, CryptoResult, CryptoTag, Effect, Engine, TimerKind};
use ubft_core::msg::{CtbMsg, DirectMsg, Reply, Request, TbMsg};
use ubft_crypto::{Digest, KeyRing, Signature};
use ubft_ctb::ctbcast::{Ctb, CtbConfig, CtbEffect, RegEntry, SlowMode, VerifyTag};
use ubft_ctb::tbcast::{TailBroadcaster, TailReceiver};
use ubft_ctb::wire::{signed_bytes, CtbWire, TbAck, TbFrame, TbWire};
use ubft_sim::stats::LatencyStats;
use ubft_transport::inproc::{inproc_mesh, InMsg, InProcEndpoint, InProcRouter};
use ubft_transport::net::{
    LaneId, Transport, LANE_CLIENT_REQ, LANE_CLIENT_RESP, LANE_CONS_TB, LANE_DIRECT,
};
use ubft_types::wire::Wire;
use ubft_types::{ClientId, ProcessId, ReplicaId, SeqId, Time};

use crate::calibration::{Backend, SimConfig};
use crate::group::{engine_config, group_seed};

/// A threaded-deployment workload source for one group: `None` means "no
/// request available right now" (the driver re-asks with backoff). Must be
/// [`Send`] because it moves onto the group's client-driver thread.
pub type ThreadWorkload = Box<dyn FnMut(u64) -> Option<Vec<u8>> + Send>;

/// Knobs of one wall-clock run.
#[derive(Clone, Copy, Debug)]
pub struct WallOptions {
    /// Measured completions to drive (the closed loop stops issuing once
    /// `requests + warmup` total completions land).
    pub requests: u64,
    /// Leading completions excluded from the latency distribution.
    pub warmup: u64,
    /// Hard wall-clock ceiling: the run shuts down (without panicking)
    /// when it is exceeded, reporting whatever completed.
    pub deadline: std::time::Duration,
    /// Extra wall time after the last target completion before shutdown,
    /// letting lagging replicas (a completion needs only `f + 1` replies)
    /// drain their queues so post-run digests compare converged state.
    pub settle: std::time::Duration,
}

impl Default for WallOptions {
    fn default() -> Self {
        WallOptions {
            requests: 200,
            warmup: 0,
            deadline: std::time::Duration::from_secs(120),
            settle: std::time::Duration::from_millis(300),
        }
    }
}

/// One replica's end-of-run state.
#[derive(Clone, Debug)]
pub struct WallReplicaReport {
    /// Individual requests decided (batch contents counted).
    pub decided: u64,
    /// Application state digest at shutdown.
    pub app_digest: Digest,
    /// Every non-noop request executed, in execution order — compared
    /// against the simulator's log by the backend-equivalence suite.
    pub executed: Vec<(ClientId, u64)>,
    /// The view the replica ended in (0 = no view change ever fired).
    pub final_view: u64,
    /// Certified state transfers the engine requested that this backend
    /// could not serve (it keeps no snapshots); nonzero means the run was
    /// overloaded enough for a replica to fall a whole window behind.
    pub transfer_misses: u64,
}

/// One consensus group's end-of-run state.
#[derive(Clone, Debug)]
pub struct WallGroupReport {
    /// Completions this group's clients contributed.
    pub completed: u64,
    /// Per-replica state, in replica order.
    pub replicas: Vec<WallReplicaReport>,
}

/// The result of a wall-clock (or, via [`run_backend`], simulated) run.
#[derive(Clone, Debug)]
pub struct WallReport {
    /// Total completions across all groups.
    pub completed: u64,
    /// Wall time from launch to the target completion (threaded backend),
    /// or the virtual end time (simulator backend via [`run_backend`]).
    pub elapsed: std::time::Duration,
    /// Request latency distribution (wall time for the threaded backend,
    /// virtual time for the simulator), warmup excluded.
    pub latency: LatencyStats,
    /// Per-group state.
    pub groups: Vec<WallGroupReport>,
    /// Which backend produced this report.
    pub backend: Backend,
}

impl WallReport {
    /// Throughput in thousands of requests per second over `elapsed`.
    pub fn kreq_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs / 1_000.0
    }
}

// ----------------------------------------------------------------------
// Mesh layout and control frames
// ----------------------------------------------------------------------

/// Mesh node index of replica `r` of group `g` (`n` replicas per group).
fn replica_node(g: usize, n: usize, r: usize) -> u32 {
    (g * n + r) as u32
}

/// Mesh node index of group `g`'s client-driver thread.
fn driver_node(shards: usize, n: usize, g: usize) -> u32 {
    (shards * n + g) as u32
}

/// Mesh node index of memory node `m`.
fn mem_node(shards: usize, n: usize, m: usize) -> u32 {
    (shards * n + shards + m) as u32
}

/// Typed control frames riding each node's inbox next to protocol bytes.
enum CtlMsg {
    /// Crypto pool: a requested signature is ready.
    SignDone { k: SeqId, sig: Signature },
    /// Crypto pool: a requested verification finished.
    VerifyDone { stream: usize, tag: VerifyTag, ok: bool },
    /// Crypto pool: an engine crypto job finished.
    EngineCryptoDone { tag: CryptoTag, result: CryptoResult },
    /// Replica → memory node: store `bytes` under
    /// `(group, stream, owner, slot)` with register timestamp `ts`.
    WriteSlot {
        group: u32,
        stream: u32,
        owner: u32,
        slot: u32,
        ts: u64,
        bytes: Vec<u8>,
        token: u64,
        reply_to: u32,
    },
    /// Memory node → replica: one write replica acknowledged.
    WriteAck { token: u64 },
    /// Replica → memory node: return all `owners` entries of
    /// `(group, stream, ·, slot)`.
    ReadSlot { group: u32, stream: u32, slot: u32, owners: u32, token: u64, reply_to: u32 },
    /// Memory node → replica: one node's view of a slot, per owner.
    ReadResp { token: u64, entries: Vec<Option<(u64, Vec<u8>)>> },
    /// Exit the thread's loop and report.
    Shutdown,
}

// ----------------------------------------------------------------------
// Crypto worker pool
// ----------------------------------------------------------------------

enum PoolJob {
    Sign {
        node: u32,
        group: usize,
        stream: u32,
        k: SeqId,
        fp: Digest,
    },
    Verify {
        node: u32,
        group: usize,
        stream: u32,
        tag: VerifyTag,
        k: SeqId,
        fp: Digest,
        sig: Signature,
    },
    /// An engine crypto job of replica `replica` of `group`.
    Engine {
        node: u32,
        group: usize,
        replica: u32,
        job: CryptoJob,
    },
    Stop,
}

/// A plain condvar-signalled job queue shared by the sized worker pool.
struct CryptoPool {
    q: Mutex<VecDeque<PoolJob>>,
    cv: Condvar,
}

impl CryptoPool {
    fn new() -> Self {
        CryptoPool { q: Mutex::new(VecDeque::new()), cv: Condvar::new() }
    }

    fn push(&self, job: PoolJob) {
        self.q.lock().expect("crypto queue").push_back(job);
        self.cv.notify_one();
    }

    fn pop(&self) -> PoolJob {
        let mut q = self.q.lock().expect("crypto queue");
        loop {
            if let Some(j) = q.pop_front() {
                return j;
            }
            q = self.cv.wait(q).expect("crypto queue");
        }
    }
}

fn spawn_crypto_workers(
    workers: usize,
    pool: &Arc<CryptoPool>,
    rings: &Arc<Vec<KeyRing>>,
    router: &InProcRouter<CtlMsg>,
) -> Vec<std::thread::JoinHandle<()>> {
    (0..workers)
        .map(|_| {
            let pool = Arc::clone(pool);
            let rings = Arc::clone(rings);
            let router = router.clone();
            std::thread::spawn(move || loop {
                match pool.pop() {
                    PoolJob::Stop => break,
                    PoolJob::Sign { node, group, stream, k, fp } => {
                        let id = ProcessId::Replica(ReplicaId(stream));
                        let signer = rings[group].signer(id).expect("replica key");
                        let sig = signer.sign(&signed_bytes(ReplicaId(stream), k, &fp));
                        let _ = router.send_ctl(node, CtlMsg::SignDone { k, sig });
                    }
                    PoolJob::Verify { node, group, stream, tag, k, fp, sig } => {
                        let id = ProcessId::Replica(ReplicaId(stream));
                        let msg = signed_bytes(ReplicaId(stream), k, &fp);
                        let ok = rings[group].verify(id, &msg, &sig);
                        let _ = router.send_ctl(
                            node,
                            CtlMsg::VerifyDone { stream: stream as usize, tag, ok },
                        );
                    }
                    PoolJob::Engine { node, group, replica, job } => {
                        let id = ProcessId::Replica(ReplicaId(replica));
                        let signer = rings[group].signer(id).expect("replica key");
                        let result = job.run(&signer, &rings[group]);
                        let _ = router
                            .send_ctl(node, CtlMsg::EngineCryptoDone { tag: job.tag, result });
                    }
                }
            })
        })
        .collect()
}

// ----------------------------------------------------------------------
// Timers
// ----------------------------------------------------------------------

/// A due-time-ordered timer entry; `seq` breaks ties deterministically so
/// the heap never compares payloads.
struct TimerEntry<E> {
    at: Instant,
    seq: u64,
    ev: E,
}

impl<E> PartialEq for TimerEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for TimerEntry<E> {}
impl<E> PartialOrd for TimerEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for TimerEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct TimerWheel<E> {
    heap: BinaryHeap<TimerEntry<E>>,
    seq: u64,
}

impl<E> TimerWheel<E> {
    fn new() -> Self {
        TimerWheel { heap: BinaryHeap::new(), seq: 0 }
    }

    fn arm(&mut self, after: std::time::Duration, ev: E) {
        self.seq += 1;
        self.heap.push(TimerEntry { at: Instant::now() + after, seq: self.seq, ev });
    }

    fn pop_due(&mut self, now: Instant) -> Option<E> {
        if self.heap.peek().is_some_and(|e| e.at <= now) {
            return self.heap.pop().map(|e| e.ev);
        }
        None
    }

    fn next_wait(&self, now: Instant, cap: std::time::Duration) -> std::time::Duration {
        self.heap.peek().map(|e| e.at.saturating_duration_since(now)).unwrap_or(cap).min(cap)
    }
}

/// Converts a virtual-time duration to wall time, stretched by
/// [`SimConfig::time_scale`].
fn wall(d: ubft_types::Duration, scale: u64) -> std::time::Duration {
    std::time::Duration::from_nanos(d.as_nanos().saturating_mul(scale))
}

/// Longest a thread blocks on its inbox with no timer pending.
const MAX_IDLE_WAIT: std::time::Duration = std::time::Duration::from_millis(5);

// ----------------------------------------------------------------------
// Replica threads
// ----------------------------------------------------------------------

enum ReplicaTimer {
    Engine(TimerKind),
    CtbSlow(SeqId),
    Retransmit,
}

struct PendingWrite {
    stream: usize,
    k: SeqId,
    acks: usize,
    needed: usize,
}

struct PendingRead {
    stream: usize,
    k: SeqId,
    responses: usize,
    needed: usize,
    /// Per-owner best (max-timestamp) raw entry seen so far.
    best: Vec<Option<(u64, Vec<u8>)>>,
}

/// See `GroupRuntime::SUMMARY_STALL_TICKS` — same watchdog, same value.
const SUMMARY_STALL_TICKS: u32 = 4;

struct ReplicaThread {
    g: usize,
    r: usize,
    n: usize,
    n_mem: usize,
    mem_quorum: usize,
    node_idx: u32,
    driver_idx: u32,
    mem_base: u32,
    n_clients: usize,
    scale: u64,
    retransmit_period: ubft_types::Duration,
    slow_trigger: ubft_types::Duration,
    echo_fallback: ubft_types::Duration,
    progress_timeout: ubft_types::Duration,
    ep: InProcEndpoint<CtlMsg>,
    engine: Engine,
    app: Box<dyn App + Send>,
    ctbs: Vec<Ctb>,
    ctb_tx: Vec<TailBroadcaster>,
    ctb_rx: Vec<Vec<TailReceiver>>,
    cons_tx: TailBroadcaster,
    cons_rx: Vec<TailReceiver>,
    reply_cache: ubft_core::lru::LruMap<ClientId, Reply>,
    crypto: Arc<CryptoPool>,
    timers: TimerWheel<ReplicaTimer>,
    pending_writes: HashMap<u64, PendingWrite>,
    pending_reads: HashMap<u64, PendingRead>,
    next_token: u64,
    exec_log: Vec<(ClientId, u64)>,
    transfer_misses: u64,
    summary_stall_ticks: u32,
    /// Where outgoing messages are encoded before the bytes are copied into
    /// the shared buffer the mesh carries — reused for every send.
    scratch: Vec<u8>,
}

impl ReplicaThread {
    fn run(mut self) -> WallReplicaReport {
        self.engine_call(|e| e.start());
        self.timers.arm(wall(self.retransmit_period, self.scale), ReplicaTimer::Retransmit);

        'main: loop {
            let now = Instant::now();
            while let Some(ev) = self.timers.pop_due(now) {
                self.on_timer(ev);
            }
            let wait = self.timers.next_wait(Instant::now(), MAX_IDLE_WAIT);
            let first = self.ep.recv_timeout(wait);
            let Some(first) = first else { continue };
            let mut batch = vec![first];
            // Drain without blocking: amortize the wakeup over everything
            // already queued.
            while let Some(m) = self.ep.try_recv() {
                batch.push(m);
            }
            for m in batch {
                match m {
                    InMsg::Net(inb) => self.on_net(inb),
                    InMsg::Ctl(CtlMsg::Shutdown) => break 'main,
                    InMsg::Ctl(c) => self.on_ctl(c),
                }
            }
        }

        WallReplicaReport {
            decided: self.engine.decided_count(),
            app_digest: self.app.snapshot_digest(),
            executed: self.exec_log,
            final_view: self.engine.view().0,
            transfer_misses: self.transfer_misses,
        }
    }

    /// Encodes `msg` and sends it to node `to`. The in-process mesh has no
    /// failure model: its report never carries a refused write, so no
    /// TBcast peer ever turns unreachable here.
    fn send(&mut self, lane: LaneId, to: u32, msg: &impl Wire) {
        self.scratch.clear();
        msg.encode(&mut self.scratch);
        let _ = self.ep.send(&mut (), lane, self.node_idx, to, &self.scratch, Time::ZERO);
    }

    fn peer_node(&self, to: ReplicaId) -> u32 {
        replica_node(self.g, self.n, to.0 as usize)
    }

    // ---- timers ------------------------------------------------------

    fn on_timer(&mut self, ev: ReplicaTimer) {
        match ev {
            ReplicaTimer::Engine(kind) => self.engine_call(|e| e.on_timer(kind)),
            ReplicaTimer::CtbSlow(k) => {
                let r = self.r;
                self.ctb_call(r, |c| c.on_slow_timeout(k));
            }
            ReplicaTimer::Retransmit => self.on_retransmit_tick(),
        }
    }

    /// Mirror of the simulator's retransmission tick, including the
    /// summary-stall watchdog that force-converts a stuck unsummarized
    /// CTBcast tail to the signed slow path.
    fn on_retransmit_tick(&mut self) {
        for s in 0..self.n {
            let stale = self.ctb_tx[s].retransmit_stale();
            self.send_tb_frames(Lane::CtbTb { stream: s }, stale);
        }
        let stale = self.cons_tx.retransmit_stale();
        self.send_tb_frames(Lane::ConsTb, stale);

        let sent = self.engine.ctb_sent_count();
        let done = self.engine.ctb_summarized_upto();
        let half = self.engine.summary_half();
        if sent >= done + half {
            self.summary_stall_ticks += 1;
            if self.summary_stall_ticks >= SUMMARY_STALL_TICKS {
                self.summary_stall_ticks = 0;
                let mut fx = Vec::new();
                for k in done + 1..=sent {
                    fx.extend(self.ctbs[self.r].force_slow(SeqId(k)));
                }
                let r = self.r;
                for e in fx {
                    self.ctb_effect(r, e);
                }
            }
        } else {
            self.summary_stall_ticks = 0;
        }
        self.timers.arm(wall(self.retransmit_period, self.scale), ReplicaTimer::Retransmit);
    }

    // ---- inbound -----------------------------------------------------

    fn on_net(&mut self, inb: ubft_transport::net::Inbound) {
        let from_r = inb.from as usize % self.n; // group-local sender index
        match inb.lane {
            LANE_CONS_TB => self.on_tb_frame(Lane::ConsTb, from_r, &inb.payload),
            LANE_DIRECT => {
                if let Ok(msg) = DirectMsg::from_bytes(&inb.payload) {
                    let f = ReplicaId(from_r as u32);
                    self.engine_call(|e| e.on_direct(f, msg));
                }
            }
            LANE_CLIENT_REQ => {
                if let Ok(req) = Request::from_bytes(&inb.payload) {
                    let cached = self
                        .reply_cache
                        .get(&req.id.client)
                        .filter(|reply| reply.id == req.id)
                        .cloned();
                    if let Some(reply) = cached {
                        self.send(LANE_CLIENT_RESP, self.driver_idx, &reply);
                        return;
                    }
                    self.engine_call(|e| e.on_client_request(req));
                }
            }
            stream_lane => {
                // Every remaining lane is a CTBcast stream (stream ids sit
                // far below the reserved high lane ids).
                let stream = stream_lane as usize;
                if stream < self.n {
                    self.on_tb_frame(Lane::CtbTb { stream }, from_r, &inb.payload);
                }
            }
        }
    }

    /// A TBcast frame arrived from replica `from_r`: an ack goes to the
    /// lane's broadcaster; a data frame is delivered — decoded in place,
    /// out of the sender's own buffer — if the receiver has not seen it,
    /// then acknowledged if the receiver says so.
    fn on_tb_frame(&mut self, lane: Lane, from_r: usize, frame: &[u8]) {
        let from = ReplicaId(from_r as u32);
        let (tx, rx) = match lane {
            Lane::CtbTb { stream } => (&mut self.ctb_tx[stream], &mut self.ctb_rx[stream][from_r]),
            Lane::ConsTb => (&mut self.cons_tx, &mut self.cons_rx[from_r]),
        };
        match TbFrame::decode(frame) {
            Ok(TbFrame::Data { k, payload }) => {
                let receipt = rx.on_wire(k);
                if receipt.deliver {
                    self.deliver_tb_payload(lane, from, payload);
                }
                if let Some(upto) = receipt.ack {
                    let (me, node) = (self.node_idx, self.peer_node(from));
                    let ack = TbAck { upto }.frame();
                    let _ = self.ep.send(&mut (), lane.id(), me, node, &ack, Time::ZERO);
                }
            }
            Ok(TbFrame::Ack(ack)) => tx.on_ack(from, ack.upto),
            Err(_) => {}
        }
    }

    fn on_ctl(&mut self, c: CtlMsg) {
        match c {
            CtlMsg::SignDone { k, sig } => {
                let r = self.r;
                self.ctb_call(r, |c| c.on_sign_done(k, sig));
            }
            CtlMsg::VerifyDone { stream, tag, ok } => {
                self.ctb_call(stream, |c| c.on_verify_done(tag, ok));
            }
            CtlMsg::EngineCryptoDone { tag, result } => {
                self.engine_call(|e| e.on_crypto_done(tag, result));
            }
            CtlMsg::WriteAck { token } => {
                let finished = match self.pending_writes.get_mut(&token) {
                    Some(w) => {
                        w.acks += 1;
                        w.acks >= w.needed
                    }
                    None => false, // surplus ack past the quorum
                };
                if finished {
                    let w = self.pending_writes.remove(&token).expect("pending write");
                    self.ctb_call(w.stream, |c| c.on_register_written(w.k));
                }
            }
            CtlMsg::ReadResp { token, entries } => {
                let finished = match self.pending_reads.get_mut(&token) {
                    Some(rd) => {
                        rd.responses += 1;
                        for (best, got) in rd.best.iter_mut().zip(entries) {
                            if let Some((ts, bytes)) = got {
                                if best.as_ref().is_none_or(|(b_ts, _)| ts > *b_ts) {
                                    *best = Some((ts, bytes));
                                }
                            }
                        }
                        rd.responses >= rd.needed
                    }
                    None => false,
                };
                if finished {
                    let rd = self.pending_reads.remove(&token).expect("pending read");
                    let parsed: Vec<Option<RegEntry>> = rd
                        .best
                        .into_iter()
                        .map(|e| e.and_then(|(_, bytes)| RegEntry::from_bytes(&bytes).ok()))
                        .collect();
                    self.ctb_call(rd.stream, |c| c.on_registers_read(rd.k, parsed));
                }
            }
            // Register RPCs target memory nodes; shutdown is handled by
            // the main loop before this dispatch.
            CtlMsg::WriteSlot { .. } | CtlMsg::ReadSlot { .. } | CtlMsg::Shutdown => {}
        }
    }

    // ---- engine plumbing ---------------------------------------------

    fn engine_call(&mut self, f: impl FnOnce(&mut Engine) -> Vec<Effect>) {
        let fx = f(&mut self.engine);
        // Metered crypto accounting is the simulator's cost model; here
        // real time is the cost.
        let _ = self.engine.take_crypto_ops();
        // Crypto jobs go to the pool; their results come back as control
        // frames, and nothing below waits for them.
        for job in self.engine.take_crypto_jobs() {
            self.crypto.push(PoolJob::Engine {
                node: self.node_idx,
                group: self.g,
                replica: self.r as u32,
                job,
            });
        }
        for e in fx {
            self.engine_effect(e);
        }
    }

    fn engine_effect(&mut self, e: Effect) {
        match e {
            Effect::CtbBroadcast(msg) => {
                let bytes = msg.to_bytes();
                let r = self.r;
                let (_k, cfx) = self.ctbs[r].broadcast(bytes);
                for ce in cfx {
                    self.ctb_effect(r, ce);
                }
            }
            Effect::TbBroadcast(msg) => self.tb_broadcast(Lane::ConsTb, &msg),
            Effect::SendReplica { to, msg } => {
                let node = self.peer_node(to);
                self.send(LANE_DIRECT, node, &msg);
            }
            Effect::Execute { slot: _, req } => {
                let payload = self.app.execute(&req.payload);
                if !req.is_noop() {
                    self.exec_log.push((req.id.client, req.id.seq));
                }
                if !req.is_noop() && (req.id.client.0 as usize) < self.n_clients {
                    let reply = Reply { id: req.id, replica: ReplicaId(self.r as u32), payload };
                    self.send(LANE_CLIENT_RESP, self.driver_idx, &reply);
                    let _ = self.reply_cache.insert(req.id.client, reply, |_| false);
                }
            }
            Effect::RequestSnapshot { base } => {
                // Answered on the spot: the engine paused execution at
                // `base` and resumes inside `on_snapshot`.
                let digest = self.app.snapshot_digest();
                let table = self.engine.exec_table();
                let exec_digest = ubft_core::msg::exec_table_digest(&table);
                self.engine_call(|e| e.on_snapshot(base, digest, exec_digest));
            }
            Effect::StateTransfer { .. } => {
                // Failure-free backend: no snapshots are retained, so a
                // replica that lagged a whole window cannot be healed.
                // Count it — a nonzero count in the report flags the run
                // as overloaded — and let it keep participating.
                self.transfer_misses += 1;
            }
            Effect::AdoptStreams { tails } => {
                for (stream, next) in tails {
                    self.ctbs[stream.0 as usize].adopt_tail(next);
                }
            }
            Effect::ArmTimer { kind } => {
                let after = match kind {
                    TimerKind::Progress => {
                        self.progress_timeout * u64::from(self.engine.progress_backoff())
                    }
                    TimerKind::SlotSlowTrigger(_) => self.slow_trigger,
                    TimerKind::EchoFallback(_) => self.echo_fallback,
                };
                self.timers.arm(wall(after, self.scale), ReplicaTimer::Engine(kind));
            }
            Effect::CheckpointAdopted { .. } => {}
            Effect::ViewChanged { .. } => {}
            Effect::ByzantineDetected { .. } => {}
        }
    }

    // ---- CTBcast plumbing --------------------------------------------

    fn ctb_call(&mut self, stream: usize, f: impl FnOnce(&mut Ctb) -> Vec<CtbEffect>) {
        let fx = f(&mut self.ctbs[stream]);
        for e in fx {
            self.ctb_effect(stream, e);
        }
    }

    fn ctb_effect(&mut self, stream: usize, e: CtbEffect) {
        match e {
            CtbEffect::Broadcast(wire) => self.tb_broadcast(Lane::CtbTb { stream }, &wire),
            CtbEffect::Sign { k, fp } => {
                self.crypto.push(PoolJob::Sign {
                    node: self.node_idx,
                    group: self.g,
                    stream: stream as u32,
                    k,
                    fp,
                });
            }
            CtbEffect::Verify { tag, k, fp, sig } => {
                self.crypto.push(PoolJob::Verify {
                    node: self.node_idx,
                    group: self.g,
                    stream: stream as u32,
                    tag,
                    k,
                    fp,
                    sig,
                });
            }
            CtbEffect::WriteRegister { slot, k, entry } => {
                self.next_token += 1;
                let token = self.next_token;
                self.pending_writes
                    .insert(token, PendingWrite { stream, k, acks: 0, needed: self.mem_quorum });
                let bytes = entry.to_bytes();
                for m in 0..self.n_mem {
                    let to = self.mem_base + m as u32;
                    let msg = CtlMsg::WriteSlot {
                        group: self.g as u32,
                        stream: stream as u32,
                        owner: self.r as u32,
                        slot: slot as u32,
                        ts: k.0,
                        bytes: bytes.clone(),
                        token,
                        reply_to: self.node_idx,
                    };
                    let _ = self.ep.router().send_ctl(to, msg);
                }
            }
            CtbEffect::ReadSlot { slot, k } => {
                self.next_token += 1;
                let token = self.next_token;
                self.pending_reads.insert(
                    token,
                    PendingRead {
                        stream,
                        k,
                        responses: 0,
                        needed: self.mem_quorum,
                        best: vec![None; self.n],
                    },
                );
                for m in 0..self.n_mem {
                    let to = self.mem_base + m as u32;
                    let msg = CtlMsg::ReadSlot {
                        group: self.g as u32,
                        stream: stream as u32,
                        slot: slot as u32,
                        owners: self.n as u32,
                        token,
                        reply_to: self.node_idx,
                    };
                    let _ = self.ep.router().send_ctl(to, msg);
                }
            }
            CtbEffect::Deliver { k, payload } => match CtbMsg::from_bytes(&payload) {
                Ok(msg) => {
                    let s = ReplicaId(stream as u32);
                    self.engine_call(|e| e.on_ctb_deliver(s, k, msg));
                }
                Err(_) => {
                    let s = ReplicaId(stream as u32);
                    self.engine_call(|e| e.on_ctb_equivocation(s, k));
                }
            },
            CtbEffect::Equivocation { k } => {
                let s = ReplicaId(stream as u32);
                self.engine_call(|e| e.on_ctb_equivocation(s, k));
            }
            CtbEffect::ArmSlowTimer { k } => {
                self.timers.arm(wall(self.slow_trigger, self.scale), ReplicaTimer::CtbSlow(k));
            }
        }
    }

    // ---- TBcast plumbing ---------------------------------------------

    /// This replica's broadcaster on a TBcast lane.
    fn tb_tx(&mut self, lane: Lane) -> &mut TailBroadcaster {
        match lane {
            Lane::CtbTb { stream } => &mut self.ctb_tx[stream],
            Lane::ConsTb => &mut self.cons_tx,
        }
    }

    /// TBcast-broadcasts `msg` on `lane`: one encoded frame goes to every
    /// peer, then its payload is delivered locally.
    fn tb_broadcast(&mut self, lane: Lane, msg: &impl Wire) {
        let mut scratch = std::mem::take(&mut self.scratch);
        let wire = self.tb_tx(lane).broadcast(msg, &mut scratch);
        self.scratch = scratch;
        for i in 0..self.tb_tx(lane).peers().len() {
            let to = self.tb_tx(lane).peers()[i];
            self.send_tb_frame(lane, to, &wire);
        }
        self.deliver_tb_payload(lane, ReplicaId(self.r as u32), wire.payload());
    }

    /// Sends a TBcast frame to a peer: its thread receives a handle on the
    /// frame this broadcaster buffered, so no bytes are copied per peer.
    fn send_tb_frame(&self, lane: Lane, to: ReplicaId, wire: &TbWire) {
        let (me, node) = (self.node_idx, self.peer_node(to));
        let _ = self.ep.router().send_net(lane.id(), me, node, wire.frame().clone());
    }

    fn send_tb_frames(&self, lane: Lane, frames: Vec<(ReplicaId, TbWire)>) {
        for (to, wire) in frames {
            self.send_tb_frame(lane, to, &wire);
        }
    }

    fn deliver_tb_payload(&mut self, lane: Lane, from: ReplicaId, payload: &[u8]) {
        match lane {
            Lane::CtbTb { stream } => {
                if let Ok(wire) = CtbWire::from_bytes(payload) {
                    self.ctb_call(stream, |c| c.on_tb_deliver(from, wire));
                }
            }
            Lane::ConsTb => {
                if let Ok(msg) = TbMsg::from_bytes(payload) {
                    self.engine_call(|e| e.on_tb_deliver(from, msg));
                }
            }
        }
    }
}

/// The two TBcast lane families a replica thread routes (clients and
/// direct messages address lanes directly).
#[derive(Clone, Copy)]
enum Lane {
    CtbTb { stream: usize },
    ConsTb,
}

impl Lane {
    fn id(self) -> LaneId {
        match self {
            Lane::CtbTb { stream } => stream as LaneId,
            Lane::ConsTb => LANE_CONS_TB,
        }
    }
}

// ----------------------------------------------------------------------
// Client driver threads
// ----------------------------------------------------------------------

enum DriverTimer {
    /// Retransmission check for request `id` of client `c`.
    Retry { c: usize, id: ubft_types::RequestId },
    /// Re-ask an empty workload source for client `c`.
    Issue { c: usize },
}

struct DriverThread {
    g: usize,
    n: usize,
    node_idx: u32,
    scale: u64,
    ep: InProcEndpoint<CtlMsg>,
    clients: Vec<Client>,
    workload: ThreadWorkload,
    completed: Arc<AtomicU64>,
    target: u64,
    warmup: u64,
    issue_at: Vec<Instant>,
    idle_backoff: Vec<u32>,
    timers: TimerWheel<DriverTimer>,
    latency: LatencyStats,
    group_completed: u64,
}

impl DriverThread {
    /// Mirror of the simulator's client retransmission timeout.
    fn retry_period(&self) -> std::time::Duration {
        wall(ubft_types::Duration::from_micros(1_500), self.scale)
    }

    fn run(mut self) -> (u64, LatencyStats) {
        for c in 0..self.clients.len() {
            self.try_issue(c);
        }
        'main: loop {
            let now = Instant::now();
            while let Some(ev) = self.timers.pop_due(now) {
                match ev {
                    DriverTimer::Retry { c, id } => self.on_retry(c, id),
                    DriverTimer::Issue { c } => self.try_issue(c),
                }
            }
            let wait = self.timers.next_wait(Instant::now(), MAX_IDLE_WAIT);
            let Some(first) = self.ep.recv_timeout(wait) else { continue };
            let mut batch = vec![first];
            while let Some(m) = self.ep.try_recv() {
                batch.push(m);
            }
            for m in batch {
                match m {
                    InMsg::Net(inb) => self.on_net(inb),
                    InMsg::Ctl(CtlMsg::Shutdown) => break 'main,
                    InMsg::Ctl(_) => {}
                }
            }
        }
        (self.group_completed, self.latency)
    }

    /// Sends client `c`'s in-flight request to every replica: encoded once
    /// into one shared buffer that each replica's inbox gets a handle on.
    fn send_request(&mut self, c: usize) {
        let Some(req) = self.clients[c].request() else { return };
        let bytes: Arc<[u8]> = req.to_bytes().into();
        for to in self.clients[c].replicas() {
            let node = replica_node(self.g, self.n, to.0 as usize);
            let _ = self.ep.router().send_net(LANE_CLIENT_REQ, self.node_idx, node, bytes.clone());
        }
    }

    fn try_issue(&mut self, c: usize) {
        if !self.clients[c].is_idle() {
            return;
        }
        if self.completed.load(Ordering::Relaxed) >= self.target {
            return;
        }
        let seq = self.completed.load(Ordering::Relaxed);
        let Some(payload) = (self.workload)(seq) else {
            // Empty source: exponential backoff, like the simulator's
            // starved-shard path.
            let shift = self.idle_backoff[c].min(8);
            self.idle_backoff[c] = self.idle_backoff[c].saturating_add(1);
            let base = wall(ubft_types::Duration::from_micros(5), self.scale);
            self.timers.arm(base * (1u32 << shift), DriverTimer::Issue { c });
            return;
        };
        self.idle_backoff[c] = 0;
        let id = self.clients[c].issue(payload);
        self.issue_at[c] = Instant::now();
        self.send_request(c);
        self.timers.arm(self.retry_period(), DriverTimer::Retry { c, id });
    }

    fn on_retry(&mut self, c: usize, id: ubft_types::RequestId) {
        if self.clients[c].in_flight() != Some(id) {
            return;
        }
        self.send_request(c);
        self.timers.arm(self.retry_period(), DriverTimer::Retry { c, id });
    }

    fn on_net(&mut self, inb: ubft_transport::net::Inbound) {
        if inb.lane != LANE_CLIENT_RESP {
            return;
        }
        let Ok(reply) = Reply::from_bytes(&inb.payload) else { return };
        let c = reply.id.client.0 as usize;
        if c >= self.clients.len() {
            return;
        }
        if self.clients[c].on_reply(reply).is_some() {
            let done = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
            self.group_completed += 1;
            if done > self.warmup {
                let ns = self.issue_at[c].elapsed().as_nanos().min(u64::MAX as u128) as u64;
                self.latency.record(ubft_types::Duration::from_nanos(ns));
            }
            if done < self.target {
                self.try_issue(c);
            }
        }
    }
}

// ----------------------------------------------------------------------
// Memory-node threads
// ----------------------------------------------------------------------

/// One passive memory node: a `(group, stream, owner, slot) → (ts, bytes)`
/// store answering write/read RPCs. Replicas take `f_m + 1` of `2f_m + 1`
/// such nodes as a quorum, exactly like the simulated register banks;
/// message atomicity stands in for the regular register's checksummed
/// sub-registers.
/// Store key: `(group, stream, owner, slot)`.
type SlotKey = (u32, u32, u32, u32);

struct MemThread {
    ep: InProcEndpoint<CtlMsg>,
    store: HashMap<SlotKey, (u64, Vec<u8>)>,
}

impl MemThread {
    fn run(mut self) {
        loop {
            let Some(msg) = self.ep.recv_timeout(std::time::Duration::from_millis(50)) else {
                continue;
            };
            match msg {
                InMsg::Ctl(CtlMsg::Shutdown) => break,
                InMsg::Ctl(CtlMsg::WriteSlot {
                    group,
                    stream,
                    owner,
                    slot,
                    ts,
                    bytes,
                    token,
                    reply_to,
                }) => {
                    let key = (group, stream, owner, slot);
                    let newer = self.store.get(&key).is_none_or(|(old, _)| ts >= *old);
                    if newer {
                        self.store.insert(key, (ts, bytes));
                    }
                    let _ = self.ep.router().send_ctl(reply_to, CtlMsg::WriteAck { token });
                }
                InMsg::Ctl(CtlMsg::ReadSlot { group, stream, slot, owners, token, reply_to }) => {
                    let entries: Vec<Option<(u64, Vec<u8>)>> = (0..owners)
                        .map(|owner| self.store.get(&(group, stream, owner, slot)).cloned())
                        .collect();
                    let _ =
                        self.ep.router().send_ctl(reply_to, CtlMsg::ReadResp { token, entries });
                }
                _ => {}
            }
        }
    }
}

// ----------------------------------------------------------------------
// Deployment entry points
// ----------------------------------------------------------------------

/// Runs a wall-clock threaded deployment: `shards` groups of `n` replica
/// threads each, one client-driver thread per group, `2f_m + 1` memory
/// node threads, and a crypto worker pool of [`SimConfig::crypto_workers`]
/// threads. `make_apps(g)` yields group `g`'s `n` application instances;
/// `make_workload(g)` its request source.
///
/// # Panics
///
/// Panics if `cfg` schedules faults, asynchrony, or auditing — the
/// wall-clock backend measures the failure-free path only (see the module
/// docs for why).
pub fn run_wallclock(
    cfg: &SimConfig,
    mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App + Send>>,
    mut make_workload: impl FnMut(usize) -> ThreadWorkload,
    opts: &WallOptions,
) -> WallReport {
    assert!(
        cfg.failures.faults().is_empty() && cfg.failures.gst == Time::ZERO,
        "the threaded backend is failure-free; use Backend::Sim for fault schedules"
    );
    assert!(cfg.shard_failures.is_empty(), "the threaded backend is failure-free");
    assert!(!cfg.audit && cfg.audit_mutation.is_none(), "auditing requires Backend::Sim");

    let shards = cfg.shards.max(1);
    let n = cfg.params.n();
    let n_mem = cfg.params.n_mem();
    let n_clients = cfg.n_clients.max(1);
    let scale = cfg.time_scale.max(1) as u64;
    let workers = cfg.crypto_workers.max(1);
    let total_nodes = shards * n + shards + n_mem;
    let mem_base = mem_node(shards, n, 0);

    let (router, eps) = inproc_mesh::<CtlMsg>(total_nodes);
    let mut eps: Vec<Option<InProcEndpoint<CtlMsg>>> = eps.into_iter().map(Some).collect();
    let mut take_ep = |idx: u32| eps[idx as usize].take().expect("endpoint taken once");

    // Per-group key rings, derived exactly as the simulator derives them.
    let rings: Vec<KeyRing> = (0..shards)
        .map(|g| {
            KeyRing::generate(
                group_seed(cfg.seed, g) ^ 0x5EED,
                (0..n as u32)
                    .map(|i| ProcessId::Replica(ReplicaId(i)))
                    .chain((0..n_clients as u32).map(|i| ProcessId::Client(ClientId(i)))),
            )
        })
        .collect();
    let rings = Arc::new(rings);

    let pool = Arc::new(CryptoPool::new());
    let crypto_handles = spawn_crypto_workers(workers, &pool, &rings, &router);

    let mem_handles: Vec<_> = (0..n_mem)
        .map(|m| {
            let t = MemThread { ep: take_ep(mem_node(shards, n, m)), store: HashMap::new() };
            std::thread::spawn(move || t.run())
        })
        .collect();

    let mut replica_handles = Vec::with_capacity(shards * n);
    for g in 0..shards {
        let gcfg = {
            let mut c = cfg.clone();
            c.seed = group_seed(cfg.seed, g);
            c
        };
        let mut apps = make_apps(g);
        assert_eq!(apps.len(), n, "one app instance per replica");
        let replica_ids: Vec<ReplicaId> = cfg.params.replicas().collect();
        for r in 0..n {
            let engine =
                Engine::new(ReplicaId(r as u32), engine_config(&gcfg, r), rings[g].clone());
            let ctb_cfg = match cfg.path {
                ubft_core::engine::PathMode::FastOnly => CtbConfig {
                    n,
                    tail: cfg.params.tail,
                    fast_enabled: true,
                    slow: SlowMode::Never,
                },
                ubft_core::engine::PathMode::SlowOnly => CtbConfig {
                    n,
                    tail: cfg.params.tail,
                    fast_enabled: false,
                    slow: SlowMode::Always,
                },
                ubft_core::engine::PathMode::FastWithFallback => {
                    CtbConfig::deployed(n, cfg.params.tail)
                }
            };
            let ctbs: Vec<Ctb> = (0..n)
                .map(|s| {
                    Ctb::new(ReplicaId(r as u32), ReplicaId(s as u32), replica_ids.clone(), ctb_cfg)
                })
                .collect();
            let cap = 2 * cfg.params.tail;
            let peers: Vec<ReplicaId> =
                (0..n as u32).map(ReplicaId).filter(|x| x.0 as usize != r).collect();
            let ctb_tx: Vec<TailBroadcaster> =
                (0..n).map(|_s| TailBroadcaster::new(peers.clone(), cap)).collect();
            let ctb_rx: Vec<Vec<TailReceiver>> =
                (0..n).map(|_s| (0..n).map(|_sender| TailReceiver::new(cap)).collect()).collect();
            let cons_tx = TailBroadcaster::new(peers.clone(), cap);
            let cons_rx: Vec<TailReceiver> = (0..n).map(|_s| TailReceiver::new(cap)).collect();

            let t = ReplicaThread {
                g,
                r,
                n,
                n_mem,
                mem_quorum: cfg.params.mem_quorum(),
                node_idx: replica_node(g, n, r),
                driver_idx: driver_node(shards, n, g),
                mem_base,
                n_clients,
                scale,
                retransmit_period: cfg.retransmit_period,
                slow_trigger: cfg.slow_trigger,
                echo_fallback: cfg.echo_fallback,
                progress_timeout: cfg.progress_timeout,
                ep: take_ep(replica_node(g, n, r)),
                engine,
                app: apps.remove(0),
                ctbs,
                ctb_tx,
                ctb_rx,
                cons_tx,
                cons_rx,
                reply_cache: ubft_core::lru::LruMap::new(
                    cfg.client_cache_cap
                        .map(|c| c.max(2 * cfg.params.window * cfg.max_batch.max(1))),
                ),
                crypto: Arc::clone(&pool),
                timers: TimerWheel::new(),
                pending_writes: HashMap::new(),
                pending_reads: HashMap::new(),
                next_token: 0,
                exec_log: Vec::new(),
                transfer_misses: 0,
                summary_stall_ticks: 0,
                scratch: Vec::new(),
            };
            replica_handles.push(std::thread::spawn(move || t.run()));
        }
    }

    let completed = Arc::new(AtomicU64::new(0));
    let target = opts.requests + opts.warmup;
    let driver_handles: Vec<_> = (0..shards)
        .map(|g| {
            let replica_ids: Vec<ReplicaId> = cfg.params.replicas().collect();
            let clients: Vec<Client> = (0..n_clients as u32)
                .map(|i| Client::new(ClientId(i), replica_ids.clone(), cfg.params.quorum()))
                .collect();
            let t = DriverThread {
                g,
                n,
                node_idx: driver_node(shards, n, g),
                scale,
                ep: take_ep(driver_node(shards, n, g)),
                clients,
                workload: make_workload(g),
                completed: Arc::clone(&completed),
                target,
                warmup: opts.warmup,
                issue_at: vec![Instant::now(); n_clients],
                idle_backoff: vec![0; n_clients],
                timers: TimerWheel::new(),
                latency: LatencyStats::new(),
                group_completed: 0,
            };
            std::thread::spawn(move || t.run())
        })
        .collect();

    // Wait for the closed loop to hit its target (or the wall deadline).
    let start = Instant::now();
    loop {
        if completed.load(Ordering::SeqCst) >= target || start.elapsed() >= opts.deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let elapsed = start.elapsed();
    // Let lagging replicas drain (a completion only proves f + 1 executed).
    std::thread::sleep(opts.settle);

    for node in 0..total_nodes as u32 {
        let _ = router.send_ctl(node, CtlMsg::Shutdown);
    }
    for _ in 0..workers {
        pool.push(PoolJob::Stop);
    }

    let mut latency = LatencyStats::new();
    let mut group_completed = vec![0u64; shards];
    for (g, h) in driver_handles.into_iter().enumerate() {
        let (done, stats) = h.join().expect("driver thread");
        group_completed[g] = done;
        latency.absorb(stats);
    }
    let mut replica_reports: Vec<WallReplicaReport> =
        replica_handles.into_iter().map(|h| h.join().expect("replica thread")).collect();
    for h in mem_handles {
        h.join().expect("memory thread");
    }
    for h in crypto_handles {
        h.join().expect("crypto worker");
    }

    let groups = (0..shards)
        .map(|g| WallGroupReport {
            completed: group_completed[g],
            replicas: replica_reports.drain(..n).collect(),
        })
        .collect();

    WallReport {
        completed: completed.load(Ordering::SeqCst),
        elapsed,
        latency,
        groups,
        backend: Backend::Threads,
    }
}

/// Runs a deployment on whichever backend [`SimConfig::backend`] selects
/// and reports both through the same [`WallReport`] shape, which is what
/// lets the backend-equivalence suite compare them field by field.
///
/// The simulator path drives the exact same `Deployment` the
/// [`Cluster`](crate::cluster::Cluster)/[`ShardedCluster`](crate::sharded::ShardedCluster)
/// facades drive (then settles briefly so every replica converges);
/// `elapsed` and `latency` are virtual time there, wall time on the
/// threaded path.
pub fn run_backend(
    cfg: &SimConfig,
    mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App + Send>>,
    mut make_workload: impl FnMut(usize) -> ThreadWorkload,
    opts: &WallOptions,
) -> WallReport {
    match cfg.backend {
        Backend::Threads => run_wallclock(cfg, make_apps, make_workload, opts),
        Backend::Sim => {
            let mut cfg = cfg.clone();
            cfg.shards = cfg.shards.max(1);
            let total = opts.requests + opts.warmup;
            let deadline = cfg.stall_deadline(total);
            let mut dep = crate::group::Deployment::build(
                &cfg,
                |g| make_apps(g).into_iter().map(|a| a as Box<dyn App>).collect(),
                |g| {
                    let wl: ThreadWorkload = make_workload(g);
                    let boxed: crate::group::GroupWorkload = Box::new(wl);
                    boxed
                },
            );
            dep.run_loop(opts.requests, opts.warmup, deadline);
            // Converge every replica before reading digests; mirrors the
            // threaded path's settle.
            dep.settle(ubft_types::Duration::from_millis(5));
            let end = dep.now;
            let report = dep.aggregate_report(None);
            let n = cfg.params.n();
            let groups = dep
                .groups
                .iter()
                .map(|gr| WallGroupReport {
                    completed: gr.completed,
                    replicas: (0..n)
                        .map(|r| WallReplicaReport {
                            decided: gr.decided_of(r),
                            app_digest: gr.app_digest(r),
                            executed: gr.exec_log(r).to_vec(),
                            final_view: gr.view_of(r).0,
                            transfer_misses: 0,
                        })
                        .collect(),
                })
                .collect();
            WallReport {
                completed: report.completed,
                elapsed: std::time::Duration::from_nanos(end.since(Time::ZERO).as_nanos()),
                latency: report.latency,
                groups,
                backend: Backend::Sim,
            }
        }
    }
}
