//! The wall-clock deployment backend ([`Backend::Threads`]): every replica
//! and client driver of a deployment runs on its own OS thread, connected
//! by the lock-free in-process channel transport ([`InProcEndpoint`]), with
//! each replica's application on an executor thread of its own, and
//! CTBcast signature/digest work and the engine's crypto jobs offloaded to
//! a sized crypto worker pool. Memory nodes are passive memory, as in the
//! paper: no thread, only bytes that replicas write and read.
//!
//! The protocol stack *and its driver* are the simulator's: a replica
//! thread owns a `ReplicaNode` (`node.rs`) — the same sans-IO state
//! machines, the same interpretation of their effects — and only the
//! `Substrate` beneath it differs. Where the simulator's turns a node's
//! requests into virtual-time events on a shared queue, `ReplicaThread`
//! here turns them into real sends on the in-process mesh, real
//! `Instant`-based timers, jobs on the crypto pool, and register round
//! trips it carries out on the memory nodes itself. That is the whole
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
//!   metered [`CryptoOps`](ubft_core::engine::CryptoOps) are counted, as
//!   on the simulator, but charged nothing (`engine_call_done` is the
//!   trait's default: each job to the pool, nothing waits for it);
//!   CTBcast slow-path signatures and verifications, and the
//!   engine's crypto jobs, run on the worker pool for real, each a
//!   `CryptoTask` that the node driver interprets. Real time is the clock
//!   too: a replica's `ReplicaReport::core` holds the wall time (`Instant`)
//!   its thread spent on each input, filed by the driver under the input's
//!   kind, and its executor thread's on its jobs, preemption included.
//! * **Torn register reads and memory-node crashes.** The SWMR registers
//!   are §6.1's, the simulator's code: checksummed, timestamped
//!   sub-registers replicated on `2f_m + 1` memory nodes with majority
//!   quorums. Only the memory under them differs: [`InProcMemory`], one
//!   zeroed arena per memory node behind a lock, where a write and a
//!   read's sample each copy under the node's lock, so no read tears, and
//!   no node is ever down. A replica writes a slot and reads every
//!   owner's copy back itself, in the round trip the simulator runs
//!   (`SlotRead`, `registers.rs`), each answer sampled as soon as its read
//!   is posted.
//!
//! **Timers and `time_scale`.** Protocol timeouts are calibrated in
//! microseconds of virtual time; a preempted OS thread can easily be late
//! by more than a whole progress timeout, which would trigger spurious
//! view changes. [`SimConfig::time_scale`] stretches every armed timer
//! (not message latency) by a constant factor so scheduling jitter
//! disappears into the slack.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

use ubft_core::app::App;
use ubft_core::msg::Request;
use ubft_crypto::KeyRing;
use ubft_ctb::ctbcast::RegEntry;
use ubft_ctb::wire::TbWire;
use ubft_rdma::InProcMemory;
use ubft_transport::inproc::{inproc_mesh, InMsg, InProcEndpoint, InProcRouter};
use ubft_transport::net::{LANE_CLIENT_REQ, LANE_CLIENT_RESP};
use ubft_types::{ReplicaId, RequestId, Time};

use crate::calibration::{Backend, SimConfig, RETRANSMIT_PERIOD};
use crate::client_loop::{ClientLoop, ClientPort, ClientTimer};
use crate::cluster::{Cluster, GroupReport, ReplicaReport, RunReport};
use crate::exec::{ExecJob, ExecPort, ExecReport, Executor};
use crate::node::{CryptoTask, Lane, NodeInput, NodeTimer, ReplicaNode, Substrate};
use crate::registers::{Registers, SlotRead};

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

/// Typed control frames riding each thread's inbox next to protocol bytes.
enum CtlMsg {
    /// Crypto pool, executor or the replica thread itself → replica: a
    /// CTBcast signature, verification or register round trip, an engine
    /// crypto job, or an executor's answer, finished.
    Input(NodeInput),
    /// Exit the thread's loop and report.
    Shutdown,
}

// ----------------------------------------------------------------------
// Crypto worker pool
// ----------------------------------------------------------------------

/// `task` of replica `r` of `group`, whose thread is mesh node `node`.
struct PoolJob {
    node: u32,
    group: usize,
    r: usize,
    task: CryptoTask,
}

/// A plain condvar-signalled job queue shared by the sized worker pool;
/// `None` stops a worker.
struct CryptoPool {
    q: Mutex<VecDeque<Option<PoolJob>>>,
    cv: Condvar,
}

impl CryptoPool {
    fn new() -> Self {
        CryptoPool { q: Mutex::new(VecDeque::new()), cv: Condvar::new() }
    }

    fn push(&self, job: Option<PoolJob>) {
        self.q.lock().expect("crypto queue").push_back(job);
        self.cv.notify_one();
    }

    fn pop(&self) -> Option<PoolJob> {
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
            std::thread::spawn(move || {
                while let Some(PoolJob { node, group, r, task }) = pool.pop() {
                    let _ = router.send_ctl(node, CtlMsg::Input(task.run(r, &rings[group])));
                }
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

/// The time since `epoch`, as a core's clock.
fn since(epoch: Instant) -> ubft_types::Duration {
    ubft_types::Duration::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// Longest a thread blocks on its inbox with no timer pending.
const MAX_IDLE_WAIT: std::time::Duration = std::time::Duration::from_millis(5);

/// The loop every replica and driver thread lives in: fire the
/// timers that are due, wait on the inbox no longer than the next one,
/// handle what is queued, until a [`CtlMsg::Shutdown`] arrives. `inbox`
/// finds the thread's endpoint and timer heap in its state `s`.
fn run_mailbox<S, T: Ord>(
    s: &mut S,
    inbox: fn(&mut S) -> (&InProcEndpoint<CtlMsg>, &mut TimerWheel<T>),
    mut on_timer: impl FnMut(&mut S, T),
    mut on_msg: impl FnMut(&mut S, InMsg<CtlMsg>),
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
        for m in batch {
            if matches!(m, InMsg::Ctl(CtlMsg::Shutdown)) {
                return;
            }
            on_msg(s, m);
        }
    }
}

// ----------------------------------------------------------------------
// Replica threads
// ----------------------------------------------------------------------

/// One replica thread's side of its [`ReplicaNode`]: the mesh endpoint, the
/// crypto pool, an `Instant` timer heap and clock, and its handles on the
/// register banks. Everything happens now, so `At` is `()`.
struct ReplicaThread {
    g: usize,
    r: usize,
    n: usize,
    node_idx: u32,
    driver_idx: u32,
    scale: u64,
    epoch: Instant,
    ep: InProcEndpoint<CtlMsg>,
    pool: Arc<CryptoPool>,
    timers: TimerWheel<NodeTimer>,
    /// The memory nodes, its handles on its group's register banks, and
    /// its round trip on them.
    mem: InProcMemory,
    regs: Registers,
    read: SlotRead,
    /// Where decided requests go: the replica's executor thread.
    exec: mpsc::Sender<ExecJob>,
}

impl ReplicaThread {
    /// The replica thread's loop: runs `node` until shutdown, then lets go
    /// of its executor thread `exec`, which finishes the jobs it was handed,
    /// and hands it back with its own report.
    fn run(mut self, mut node: ReplicaNode, exec: ExecHandle) -> (ReplicaReport, ExecHandle) {
        node.boot(&mut self, (), None);
        run_mailbox(
            &mut (self, &mut node),
            |(th, _)| (&th.ep, &mut th.timers),
            |(th, node), timer| node.on_input(th, NodeInput::Timer(timer), ()),
            |(th, node), m| match m {
                InMsg::Net(inb) => {
                    // Group-local sender index (meaningful for replica
                    // lanes; the driver's requests name their client).
                    let from = inb.from as usize % th.n;
                    if let Some(lane) = Lane::from_id(inb.lane, th.n) {
                        node.on_inbound(th, lane, from, &inb.payload, ());
                    }
                }
                InMsg::Ctl(CtlMsg::Input(input)) => node.on_input(th, input, ()),
                // Shutdown ends the mailbox loop before this dispatch.
                InMsg::Ctl(CtlMsg::Shutdown) => {}
            },
        );
        (ReplicaReport::of(&node), exec)
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

    fn crypto(&mut self, task: CryptoTask, _: ()) {
        let (node, group, r) = (self.node_idx, self.g, self.r);
        self.pool.push(Some(PoolJob { node, group, r, task }));
    }

    /// The round trip at once on the memory nodes ([`SlotRead::now`]). Its
    /// completions, the write first, reach the node through the thread's
    /// own inbox, as the crypto pool's and the executor's do.
    fn write_and_read_slot(&mut self, stream: usize, slot: usize, e: RegEntry, _: ()) {
        for input in self.read.now(&mut self.regs, &self.mem, stream, slot, &e) {
            let _ = self.ep.router().send_ctl(self.node_idx, CtlMsg::Input(input));
        }
    }

    fn recycle_read(&mut self, entries: Vec<Option<RegEntry>>) {
        self.read.recycle(entries);
    }

    fn exec(&mut self, job: ExecJob, _: ()) -> Vec<Request> {
        let _ = self.exec.send(job);
        Vec::new()
    }

    fn clock(&self) -> ubft_types::Duration {
        since(self.epoch)
    }
}

// ----------------------------------------------------------------------
// Executor threads
// ----------------------------------------------------------------------

/// A replica's executor thread, which hands its report back when it ends.
type ExecHandle = std::thread::JoinHandle<ExecReport>;

/// One replica's execution core on a thread of its own: where its
/// [`Executor`]'s replies and answers go, and its clock.
struct ExecThread {
    router: InProcRouter<CtlMsg>,
    epoch: Instant,
    /// Mesh index of the replica thread it serves.
    node_idx: u32,
    /// Mesh index of the group's driver thread, where every client lives.
    driver_idx: u32,
}

impl ExecThread {
    /// Spawns the thread: it runs the jobs `jobs` hands it, in order, until
    /// the replica thread lets go of the sending end.
    fn spawn(
        self,
        mut exec: Executor<dyn App + Send>,
        jobs: mpsc::Receiver<ExecJob>,
    ) -> ExecHandle {
        let mut port = self;
        std::thread::spawn(move || {
            for job in jobs {
                let _ = exec.run(job, &mut port);
            }
            exec.report()
        })
    }
}

impl ExecPort<dyn App + Send> for ExecThread {
    fn reply(&mut self, _to: usize, bytes: &[u8]) {
        let _ = self.router.send_net(LANE_CLIENT_RESP, self.node_idx, self.driver_idx, bytes);
    }

    fn input(&mut self, input: NodeInput) {
        let _ = self.router.send_ctl(self.node_idx, CtlMsg::Input(input));
    }

    fn clock(&self) -> ubft_types::Duration {
        since(self.epoch)
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
    /// then `clients` runs on replies and timers until shutdown, and is
    /// handed back.
    fn run(mut self, mut clients: DriverLoop) -> DriverLoop {
        for c in 0..clients.len() {
            clients.on_timer(&mut self, c, ClientTimer::Issue);
        }
        run_mailbox(
            &mut (self, &mut clients),
            |(th, _)| (&th.ep, &mut th.timers),
            |(th, clients), (c, timer)| clients.on_timer(th, c, timer),
            |(th, clients), m| match m {
                InMsg::Net(inb) if inb.lane == LANE_CLIENT_RESP => {
                    clients.on_reply(th, &inb.payload)
                }
                _ => {}
            },
        );
        clients
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
// Deployment entry points
// ----------------------------------------------------------------------

/// Runs a wall-clock threaded deployment: `shards` groups of `n` replica
/// threads each and an executor thread beside each replica, one
/// client-driver thread per group, and a crypto worker pool of
/// [`SimConfig::crypto_workers`] threads; the `2f_m + 1` memory nodes are
/// passive in-process memory the replica threads share, with no thread of
/// their own.
/// `make_apps(g)` yields group `g`'s `n` application instances;
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
    let scale = cfg.time_scale.max(1) as u64;
    let workers = cfg.crypto_workers.max(1);
    let total_nodes = shards * n + shards;

    let (router, eps) = inproc_mesh::<CtlMsg>(total_nodes);
    let mut eps: Vec<Option<InProcEndpoint<CtlMsg>>> = eps.into_iter().map(Some).collect();
    let mut take_ep = |idx: u32| eps[idx as usize].take().expect("endpoint taken once");

    // Per-group key rings and clients, the simulator's.
    let (rings, clients): (Vec<KeyRing>, Vec<DriverLoop>) =
        (0..shards).map(|g| ClientLoop::bootstrap(cfg, g, make_workload(g))).unzip();
    let rings = Arc::new(rings);

    let pool = Arc::new(CryptoPool::new());
    let mem = InProcMemory::new(cfg.params.n_mem());
    let crypto_handles = spawn_crypto_workers(workers, &pool, &rings, &router);
    let epoch = Instant::now();

    let mut replica_handles = Vec::with_capacity(shards * n);
    for g in 0..shards {
        let apps = make_apps(g);
        assert_eq!(apps.len(), n, "one app instance per replica");
        for ((r, app), regs) in apps.into_iter().enumerate().zip(Registers::in_process(&mem, cfg)) {
            let mut timers = TimerWheel::new();
            timers.arm(wall(RETRANSMIT_PERIOD, scale), NodeTimer::Retransmit);
            let node = ReplicaNode::new(r, cfg, rings[g].clone());
            let (node_idx, driver_idx) = (replica_node(g, n, r), driver_node(shards, n, g));
            let (exec, jobs) = mpsc::channel();
            let port = ExecThread { router: router.clone(), epoch, node_idx, driver_idx };
            let executor = Executor::new(r, cfg, &rings[g], app);
            let thread = ReplicaThread {
                g,
                r,
                n,
                node_idx,
                driver_idx,
                scale,
                epoch,
                ep: take_ep(replica_node(g, n, r)),
                pool: Arc::clone(&pool),
                timers,
                mem: mem.clone(),
                regs,
                read: SlotRead::default(),
                exec,
            };
            // The replica thread starts its executor thread.
            let run = move || thread.run(node, port.spawn(executor, jobs));
            replica_handles.push(std::thread::spawn(run));
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

    // Every thread is told to stop before any is waited for: the replicas
    // and drivers by a control frame, the crypto pool by an empty job, and
    // each executor as its replica lets go of it.
    for node in 0..total_nodes as u32 {
        let _ = router.send_ctl(node, CtlMsg::Shutdown);
    }
    for _ in 0..workers {
        pool.push(None);
    }

    let drivers: Vec<DriverLoop> =
        driver_handles.into_iter().map(|h| h.join().expect("driver thread")).collect();
    let replicas: Vec<_> =
        replica_handles.into_iter().map(|h| h.join().expect("replica thread")).collect();
    let mut replicas: Vec<ReplicaReport> = (replicas.into_iter())
        .map(|(replica, exec)| replica.with_exec(exec.join().expect("executor thread")))
        .collect();
    for h in crypto_handles {
        h.join().expect("crypto thread");
    }

    let groups = (drivers.into_iter())
        .map(|mut clients| GroupReport::of(&mut clients, replicas.drain(..n).collect(), None))
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
