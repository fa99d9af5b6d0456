//! The wall-clock deployment backend ([`Backend::Threads`]): every replica,
//! client driver, and memory node of a deployment runs on its own OS
//! thread, connected by the lock-free in-process channel transport
//! ([`InProcEndpoint`]), with CTBcast signature/digest work and the
//! engine's crypto jobs offloaded to a sized crypto worker pool.
//!
//! The protocol stack *and its driver* are the simulator's: a replica
//! thread owns a `ReplicaNode` (`node.rs`) — the same sans-IO state
//! machines, the same interpretation of their effects — and only the
//! `Substrate` beneath it differs. Where the simulator's turns a node's
//! requests into virtual-time events on a shared queue, `ReplicaThread`
//! here turns them into real sends on the in-process mesh, real
//! `Instant`-based timers, jobs on the crypto pool, and one quorum RPC
//! per register round trip to memory-node threads. That is the whole
//! point of the effect-based design: one protocol implementation, one
//! driver, two execution substrates.
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
//!   metered [`CryptoOps`] accounting is discarded; CTBcast slow-path
//!   signatures and verifications, and the engine's summary crypto jobs,
//!   run on the worker pool for real.
//! * **Torn register reads.** The SWMR register banks become memory-node
//!   threads holding a `(group, stream, owner, slot) → (ts, bytes)` store
//!   behind one typed control-frame RPC that writes a slot and reads it
//!   back, with a real `f_m + 1` quorum and max-timestamp merge. Message
//!   atomicity makes the regular register's checksummed sub-register
//!   dance unnecessary; quorum intersection still provides regularity.
//!
//! **Timers and `time_scale`.** Protocol timeouts are calibrated in
//! microseconds of virtual time; a preempted OS thread can easily be late
//! by more than a whole progress timeout, which would trigger spurious
//! view changes. [`SimConfig::time_scale`] stretches every armed timer
//! (not message latency) by a constant factor so scheduling jitter
//! disappears into the slack.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ubft_core::app::App;
use ubft_core::engine::{CryptoJob, CryptoOps, Effect};
use ubft_crypto::{Digest, KeyRing, Signature};
use ubft_ctb::ctbcast::{RegEntry, VerifyTag};
use ubft_ctb::wire::{sign_broadcast, verify_broadcast, TbWire};
use ubft_sim::stats::LatencyStats;
use ubft_transport::inproc::{inproc_mesh, InMsg, InProcEndpoint, InProcRouter};
use ubft_transport::net::{LANE_CLIENT_REQ, LANE_CLIENT_RESP};
use ubft_types::wire::Wire;
use ubft_types::{ProcessId, ReplicaId, RequestId, SeqId, Time};

use crate::calibration::{Backend, SimConfig, RETRANSMIT_PERIOD};
use crate::client_loop::{ClientLoop, ClientPort, ClientTimer};
use crate::cluster::{Cluster, GroupReport, ReplicaReport, RunReport};
use crate::node::{CtbDone, Lane, NodeInput, NodeTimer, ReplicaNode, Substrate};

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

/// A register slot per owner, each entry `(ts, bytes)`: one memory node's
/// view, or a reader's merge of several.
pub(crate) type SlotEntries = Vec<Option<(u64, Vec<u8>)>>;

/// Typed control frames riding each node's inbox next to protocol bytes.
pub(crate) enum CtlMsg {
    /// Crypto pool → replica: a CTBcast signature or verification, or an
    /// engine crypto job, finished.
    Input(NodeInput),
    /// Replica → memory node: store `bytes` under `key` with register
    /// timestamp `ts`, then return the slot's entries of all `owners`
    /// (`key` with each owner in turn).
    WriteRead { key: SlotKey, ts: u64, bytes: Vec<u8>, owners: u32, token: u64, reply_to: u32 },
    /// Memory node → replica: one node's view of a slot, per owner, with
    /// the write applied.
    ReadResp { token: u64, entries: SlotEntries },
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
                let (node, done) = match pool.pop() {
                    PoolJob::Stop => break,
                    PoolJob::Sign { node, group, stream, k, fp } => {
                        let sig = sign_broadcast(&rings[group], ReplicaId(stream), k, &fp);
                        let stream = stream as usize;
                        (node, NodeInput::Ctb { stream, done: CtbDone::Signed(k, fp, sig) })
                    }
                    PoolJob::Verify { node, group, stream, tag, k, fp, sig } => {
                        let ok = verify_broadcast(&rings[group], ReplicaId(stream), k, &fp, &sig);
                        let stream = stream as usize;
                        (node, NodeInput::Ctb { stream, done: CtbDone::Verified(tag, ok) })
                    }
                    PoolJob::Engine { node, group, replica, job } => {
                        let id = ProcessId::Replica(ReplicaId(replica));
                        let signer = rings[group].signer(id).expect("replica key");
                        let result = job.run(&signer, &rings[group]);
                        (node, NodeInput::Crypto { tag: job.tag, result })
                    }
                };
                let _ = router.send_ctl(node, CtlMsg::Input(done));
            })
        })
        .collect()
}

// ----------------------------------------------------------------------
// Timers
// ----------------------------------------------------------------------

/// Armed timers, earliest first: a min-heap of `(due, seq, event)`. `seq`
/// is unique, so it breaks every tie and two events are never compared.
struct TimerWheel<E> {
    heap: BinaryHeap<Reverse<(Instant, u64, E)>>,
    seq: u64,
}

impl<E: Ord> TimerWheel<E> {
    fn new() -> Self {
        TimerWheel { heap: BinaryHeap::new(), seq: 0 }
    }

    fn arm(&mut self, after: std::time::Duration, ev: E) {
        self.seq += 1;
        self.heap.push(Reverse((Instant::now() + after, self.seq, ev)));
    }

    fn pop_due(&mut self, now: Instant) -> Option<E> {
        if self.heap.peek().is_some_and(|Reverse((at, ..))| *at <= now) {
            return self.heap.pop().map(|Reverse((.., ev))| ev);
        }
        None
    }

    fn next_wait(&self, now: Instant, cap: std::time::Duration) -> std::time::Duration {
        let next = self.heap.peek().map(|Reverse((at, ..))| at.saturating_duration_since(now));
        next.unwrap_or(cap).min(cap)
    }
}

/// Converts a virtual-time duration to wall time, stretched by
/// [`SimConfig::time_scale`].
fn wall(d: ubft_types::Duration, scale: u64) -> std::time::Duration {
    std::time::Duration::from_nanos(d.as_nanos().saturating_mul(scale))
}

/// Longest a thread blocks on its inbox with no timer pending.
const MAX_IDLE_WAIT: std::time::Duration = std::time::Duration::from_millis(5);

/// The loop every replica, driver and memory-node thread lives in: fire the
/// timers that are due, wait on the inbox no longer than the next one,
/// handle what is queued, until a [`CtlMsg::Shutdown`] arrives. `inbox`
/// finds the thread's endpoint and timer heap in its state `s`. `on_msg`
/// learns how many drained messages still follow the one it is handed, and
/// `on_idle` runs once they are all handled, before the thread blocks.
fn run_mailbox<S, T: Ord>(
    s: &mut S,
    inbox: fn(&mut S) -> (&InProcEndpoint<CtlMsg>, &mut TimerWheel<T>),
    mut on_timer: impl FnMut(&mut S, T),
    mut on_msg: impl FnMut(&mut S, InMsg<CtlMsg>, usize),
    mut on_idle: impl FnMut(&mut S),
) {
    loop {
        let now = Instant::now();
        while let Some(timer) = inbox(s).1.pop_due(now) {
            on_timer(s, timer);
        }
        let (ep, timers) = inbox(s);
        let wait = timers.next_wait(Instant::now(), MAX_IDLE_WAIT);
        let Some(first) = ep.recv_timeout(wait) else { continue };
        let mut batch = vec![first];
        // Drain without blocking: amortize the wakeup over everything
        // already queued.
        while let Some(m) = ep.try_recv() {
            batch.push(m);
        }
        let mut queued = batch.len();
        for m in batch {
            if matches!(m, InMsg::Ctl(CtlMsg::Shutdown)) {
                return;
            }
            queued -= 1;
            on_msg(s, m, queued);
        }
        on_idle(s);
    }
}

// ----------------------------------------------------------------------
// Replica threads
// ----------------------------------------------------------------------

/// A register round trip fanned out to every memory node, complete at
/// `mem_quorum` answers.
struct PendingRpc {
    stream: usize,
    k: SeqId,
    answers: usize,
    /// The per-owner best (max-timestamp) raw entry seen so far.
    best: SlotEntries,
}

/// One replica thread's side of its [`ReplicaNode`]: the mesh endpoint, the
/// crypto pool, an `Instant` timer heap and the register round trips to
/// memory-node threads. Everything happens now, so `At` is `()`.
struct ReplicaThread {
    g: usize,
    r: usize,
    n: usize,
    mem_quorum: usize,
    node_idx: u32,
    driver_idx: u32,
    /// Mesh indices of the memory nodes.
    mem_nodes: std::ops::Range<u32>,
    scale: u64,
    ep: InProcEndpoint<CtlMsg>,
    crypto: Arc<CryptoPool>,
    timers: TimerWheel<NodeTimer>,
    pending: HashMap<u64, PendingRpc>,
    next_token: u64,
    /// Drained messages still to be handled after the one under way: a
    /// backlog ([`Substrate::idle_later`]).
    queued: usize,
}

impl ReplicaThread {
    /// The replica thread's loop: runs `node` until shutdown.
    fn run(mut self, mut node: ReplicaNode<dyn App + Send>) -> ReplicaReport {
        node.engine_call(&mut self, (), |e| e.start());
        run_mailbox(
            &mut (self, &mut node),
            |(th, _)| (&th.ep, &mut th.timers),
            |(th, node), timer| node.on_input(th, NodeInput::Timer(timer), ()),
            |(th, node), m, queued| {
                th.queued = queued;
                let request = match m {
                    InMsg::Net(inb) => {
                        // Group-local sender index (meaningful for replica
                        // lanes; the driver's requests name their client).
                        let from = inb.from as usize % th.n;
                        let lane = Lane::from_id(inb.lane, th.n);
                        if let Some(lane) = lane {
                            node.on_inbound(th, lane, from, &inb.payload, ());
                        }
                        lane == Some(Lane::ClientReq)
                    }
                    InMsg::Ctl(c) => {
                        th.on_ctl(node, c);
                        false
                    }
                };
                // Echoes wait only behind client requests.
                if !request {
                    node.on_input(th, NodeInput::Idle, ());
                }
            },
            |(th, node)| node.on_input(th, NodeInput::Idle, ()),
        );
        ReplicaReport::of(&mut node)
    }

    /// A completion arrived: from the crypto pool, or one more
    /// memory node's answer to a register round trip.
    fn on_ctl(&mut self, node: &mut ReplicaNode<dyn App + Send>, c: CtlMsg) {
        match c {
            CtlMsg::Input(input) => node.on_input(self, input, ()),
            CtlMsg::ReadResp { token, entries } => self.on_rpc_answer(node, token, entries),
            // Register round trips target memory nodes; shutdown ends the
            // mailbox loop before this dispatch.
            CtlMsg::WriteRead { .. } | CtlMsg::Shutdown => {}
        }
    }

    /// Mesh index of group-local node `to`: a replica's own thread, or —
    /// for every client — the group's driver thread.
    fn mesh_node(&self, to: usize) -> u32 {
        if to < self.n {
            replica_node(self.g, self.n, to)
        } else {
            self.driver_idx
        }
    }

    /// One more memory node answered register round trip `token` with its
    /// `entries`, per owner. At the quorum the write has completed and the
    /// read returned: the round trip completes into its CTBcast instance,
    /// the write first; a surplus answer past it finds nothing pending.
    fn on_rpc_answer(
        &mut self,
        node: &mut ReplicaNode<dyn App + Send>,
        token: u64,
        entries: SlotEntries,
    ) {
        let Some(rpc) = self.pending.get_mut(&token) else { return };
        rpc.answers += 1;
        for (best, got) in rpc.best.iter_mut().zip(entries) {
            if let Some((ts, bytes)) = got {
                if best.as_ref().is_none_or(|(b_ts, _)| ts > *b_ts) {
                    *best = Some((ts, bytes));
                }
            }
        }
        if rpc.answers < self.mem_quorum {
            return;
        }
        let rpc = self.pending.remove(&token).expect("pending rpc");
        let (stream, k) = (rpc.stream, rpc.k);
        node.on_input(self, NodeInput::Ctb { stream, done: CtbDone::Written(k) }, ());
        let parse = |e: Option<(u64, Vec<u8>)>| RegEntry::from_bytes(&e?.1).ok();
        let entries = rpc.best.into_iter().map(parse).collect();
        node.on_input(self, NodeInput::Ctb { stream, done: CtbDone::Read(k, entries) }, ());
    }
}

/// The in-process mesh has no failure model: a send never reports a
/// refused write (`None`), so no TBcast peer ever turns unreachable here.
/// Nothing is charged, injected or observed, and no snapshots are retained:
/// a replica that lagged a whole window cannot be healed — its node counts
/// the missed transfer, which flags the run as overloaded, and it keeps
/// participating.
impl Substrate for ReplicaThread {
    type At = ();

    fn send(&mut self, lane: Lane, to: usize, bytes: &[u8], _: ()) -> Option<bool> {
        let _ = self.ep.router().send_net(lane.id(), self.node_idx, self.mesh_node(to), bytes);
        None
    }

    /// The peer's thread receives a handle on the frame the broadcaster
    /// buffered, so no bytes are copied per peer.
    fn send_frame(&mut self, lane: Lane, to: usize, wire: &TbWire, _: ()) -> Option<bool> {
        let (me, node) = (self.node_idx, self.mesh_node(to));
        let _ = self.ep.router().send_net(lane.id(), me, node, wire.frame().clone());
        None
    }

    fn arm(&mut self, timer: NodeTimer, after: ubft_types::Duration, _: ()) {
        self.timers.arm(wall(after, self.scale), timer);
    }

    fn ctb_sign(&mut self, stream: usize, k: SeqId, fp: Digest, _: ()) {
        let (node, group, stream) = (self.node_idx, self.g, stream as u32);
        self.crypto.push(PoolJob::Sign { node, group, stream, k, fp });
    }

    fn ctb_verify(
        &mut self,
        stream: usize,
        tag: VerifyTag,
        k: SeqId,
        fp: Digest,
        sig: Signature,
        _: (),
    ) {
        let (node, group, stream) = (self.node_idx, self.g, stream as u32);
        self.crypto.push(PoolJob::Verify { node, group, stream, tag, k, fp, sig });
    }

    /// One [`CtlMsg::WriteRead`] to every memory node: each applies the
    /// write before it reads the slot, so every node that answers has
    /// taken the write first.
    fn write_and_read_slot(&mut self, stream: usize, slot: usize, k: SeqId, e: RegEntry, _: ()) {
        let key = (self.g as u32, stream as u32, self.r as u32, slot as u32);
        let (bytes, owners, reply_to) = (e.to_bytes(), self.n as u32, self.node_idx);
        self.next_token += 1;
        let token = self.next_token;
        self.pending.insert(token, PendingRpc { stream, k, answers: 0, best: vec![None; self.n] });
        for to in self.mem_nodes.clone() {
            let msg =
                CtlMsg::WriteRead { key, ts: k.0, bytes: bytes.clone(), owners, token, reply_to };
            let _ = self.ep.router().send_ctl(to, msg);
        }
    }

    /// Metered crypto accounting is the simulator's cost model; here real
    /// time is the cost. Crypto jobs go to the pool, their results come
    /// back as control frames, and nothing waits for them.
    fn engine_call_done(
        &mut self,
        _: (),
        _ops: CryptoOps,
        jobs: std::vec::Drain<'_, CryptoJob>,
        fx: Vec<Effect>,
    ) -> Option<((), Vec<Effect>)> {
        for job in jobs {
            self.crypto.push(PoolJob::Engine {
                node: self.node_idx,
                group: self.g,
                replica: self.r as u32,
                job,
            });
        }
        Some(((), fx))
    }

    /// Yes while the drained batch holds messages after this one: the
    /// mailbox loop hands the node its idle input once they are handled,
    /// or once it has handled a message that is not a client request.
    fn idle_later(&mut self, _: ()) -> bool {
        self.queued > 0
    }
}

// ----------------------------------------------------------------------
// Client driver threads
// ----------------------------------------------------------------------

/// The group's workload source on the driver thread.
type DriverLoop = ClientLoop<dyn FnMut(u64) -> Option<Vec<u8>> + Send>;

/// One group's client-driver thread's side of its [`ClientLoop`]: the mesh
/// endpoint, an `Instant` timer heap, the wall clock and the completion
/// count all driver threads share.
struct DriverThread {
    /// Mesh index of the group's replica 0; the others follow it.
    replicas: u32,
    node_idx: u32,
    scale: u64,
    ep: InProcEndpoint<CtlMsg>,
    timers: TimerWheel<(usize, ClientTimer)>,
    started: Instant,
    completed: Arc<AtomicU64>,
}

impl DriverThread {
    /// The driver thread's loop: every client asks for its first request,
    /// then `clients` runs on replies and timers until shutdown.
    fn run(mut self, mut clients: DriverLoop) -> (u64, LatencyStats) {
        for c in 0..clients.len() {
            clients.on_timer(&mut self, c, ClientTimer::Issue);
        }
        run_mailbox(
            &mut (self, &mut clients),
            |(th, _)| (&th.ep, &mut th.timers),
            |(th, clients), (c, timer)| clients.on_timer(th, c, timer),
            |(th, clients), m, _| match m {
                InMsg::Net(inb) if inb.lane == LANE_CLIENT_RESP => {
                    clients.on_reply(th, &inb.payload)
                }
                _ => {}
            },
            |_| {},
        );
        (clients.completed, clients.latency)
    }
}

impl ClientPort for DriverThread {
    /// Copied once into one shared buffer that each replica's inbox gets
    /// a handle on.
    fn send(&mut self, _c: usize, _id: RequestId, bytes: &[u8], replicas: &[ReplicaId]) {
        let bytes: Arc<[u8]> = bytes.into();
        for to in replicas {
            let node = self.replicas + to.0;
            let _ = self.ep.router().send_net(LANE_CLIENT_REQ, self.node_idx, node, bytes.clone());
        }
    }

    fn arm(&mut self, c: usize, timer: ClientTimer, after: ubft_types::Duration) {
        self.timers.arm(wall(after, self.scale), (c, timer));
    }

    fn now(&self) -> Time {
        Time::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    fn complete(&mut self) -> u64 {
        self.completed.fetch_add(1, Ordering::SeqCst) + 1
    }
}

// ----------------------------------------------------------------------
// Memory-node threads
// ----------------------------------------------------------------------

/// Store key: `(group, stream, owner, slot)`.
pub(crate) type SlotKey = (u32, u32, u32, u32);

/// One passive memory node: a `(group, stream, owner, slot) → (ts, bytes)`
/// store answering write-then-read RPCs. Replicas take `f_m + 1` of `2f_m + 1`
/// such nodes as a quorum, exactly like the simulated register banks;
/// message atomicity stands in for the regular register's checksummed
/// sub-registers.
pub(crate) struct MemThread {
    pub(crate) ep: InProcEndpoint<CtlMsg>,
    pub(crate) store: HashMap<SlotKey, (u64, Vec<u8>)>,
}

impl MemThread {
    fn run(self) {
        run_mailbox(
            &mut (self, TimerWheel::<()>::new()),
            |(th, no_timers)| (&th.ep, no_timers),
            |_, ()| {},
            |(th, _), m, _| th.on_msg(m),
            |_| {},
        );
    }

    pub(crate) fn on_msg(&mut self, msg: InMsg<CtlMsg>) {
        let InMsg::Ctl(CtlMsg::WriteRead { key, ts, bytes, owners, token, reply_to }) = msg else {
            return;
        };
        if self.store.get(&key).is_none_or(|(old, _)| ts >= *old) {
            self.store.insert(key, (ts, bytes));
        }
        let (group, stream, _, slot) = key;
        let entries: SlotEntries = (0..owners)
            .map(|owner| self.store.get(&(group, stream, owner, slot)).cloned())
            .collect();
        let _ = self.ep.router().send_ctl(reply_to, CtlMsg::ReadResp { token, entries });
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
) -> RunReport {
    assert!(
        cfg.failures.faults().is_empty() && cfg.failures.gst == Time::ZERO,
        "the threaded backend is failure-free; use Backend::Sim for fault schedules"
    );
    assert!(!cfg.audit && cfg.audit_mutation.is_none(), "auditing requires Backend::Sim");

    let shards = cfg.shards.max(1);
    let n = cfg.params.n();
    let n_mem = cfg.params.n_mem();
    let scale = cfg.time_scale.max(1) as u64;
    let workers = cfg.crypto_workers.max(1);
    let total_nodes = shards * n + shards + n_mem;

    let (router, eps) = inproc_mesh::<CtlMsg>(total_nodes);
    let mut eps: Vec<Option<InProcEndpoint<CtlMsg>>> = eps.into_iter().map(Some).collect();
    let mut take_ep = |idx: u32| eps[idx as usize].take().expect("endpoint taken once");

    // Per-group key rings and clients, the simulator's.
    let (rings, clients): (Vec<KeyRing>, Vec<DriverLoop>) =
        (0..shards).map(|g| ClientLoop::bootstrap(cfg, g, make_workload(g))).unzip();
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
        let apps = make_apps(g);
        assert_eq!(apps.len(), n, "one app instance per replica");
        for (r, app) in apps.into_iter().enumerate() {
            let mut timers = TimerWheel::new();
            timers.arm(wall(RETRANSMIT_PERIOD, scale), NodeTimer::Retransmit);
            let node = ReplicaNode::new(r, cfg, rings[g].clone(), app);
            let thread = ReplicaThread {
                g,
                r,
                n,
                mem_quorum: cfg.params.mem_quorum(),
                node_idx: replica_node(g, n, r),
                driver_idx: driver_node(shards, n, g),
                mem_nodes: mem_node(shards, n, 0)..mem_node(shards, n, n_mem),
                scale,
                ep: take_ep(replica_node(g, n, r)),
                crypto: Arc::clone(&pool),
                timers,
                pending: HashMap::new(),
                next_token: 0,
                queued: 0,
            };
            replica_handles.push(std::thread::spawn(move || thread.run(node)));
        }
    }

    let completed = Arc::new(AtomicU64::new(0));
    let target = opts.requests + opts.warmup;
    let driver_handles: Vec<_> = (clients.into_iter().enumerate())
        .map(|(g, mut clients)| {
            clients.begin(opts.requests, opts.warmup);
            let t = DriverThread {
                replicas: replica_node(g, n, 0),
                node_idx: driver_node(shards, n, g),
                scale,
                ep: take_ep(driver_node(shards, n, g)),
                timers: TimerWheel::new(),
                started: Instant::now(),
                completed: Arc::clone(&completed),
            };
            std::thread::spawn(move || t.run(clients))
        })
        .collect();

    // Wait for the closed loop to hit its target (or the wall deadline).
    let start = Instant::now();
    while completed.load(Ordering::SeqCst) < target && start.elapsed() < opts.deadline {
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

    let drivers: Vec<(u64, LatencyStats)> =
        driver_handles.into_iter().map(|h| h.join().expect("driver thread")).collect();
    let mut replicas: Vec<ReplicaReport> =
        replica_handles.into_iter().map(|h| h.join().expect("replica thread")).collect();
    for h in mem_handles.into_iter().chain(crypto_handles) {
        h.join().expect("memory or crypto thread");
    }

    let groups = (drivers.into_iter())
        .map(|(completed, latency)| GroupReport {
            completed,
            latency,
            replicas: replicas.drain(..n).collect(),
            ..GroupReport::default()
        })
        .collect();
    let end = Time::from_nanos(elapsed.as_nanos() as u64);
    RunReport::of_groups(groups, end, None, Backend::Threads)
}

/// Runs a deployment on whichever backend [`SimConfig::backend`] selects;
/// both report through the same [`RunReport`], which is what lets the
/// backend-equivalence suite compare them field by field.
///
/// The simulator path builds a [`Cluster`] through the constructor
/// [`Cluster::new`] uses, then settles briefly so every replica converges
/// before the report reads digests (mirroring the threaded path's settle).
pub fn run_backend(
    cfg: &SimConfig,
    mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App + Send>>,
    mut make_workload: impl FnMut(usize) -> ThreadWorkload,
    opts: &WallOptions,
) -> RunReport {
    match cfg.backend {
        Backend::Threads => run_wallclock(cfg, make_apps, make_workload, opts),
        Backend::Sim => {
            let mut cluster = Cluster::build(
                cfg,
                |g| make_apps(g).into_iter().map(|a| a as Box<dyn App>).collect(),
                |g| Box::new(make_workload(g)),
            );
            let deadline = cfg.stall_deadline(opts.requests + opts.warmup);
            cluster.run_loop(opts.requests, opts.warmup, deadline);
            cluster.settle(ubft_types::Duration::from_millis(5));
            cluster.report()
        }
    }
}
