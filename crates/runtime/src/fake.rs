//! A scripted in-memory [`Substrate`], and the node driver tested against
//! it: three [`ReplicaNode`]s joined by per-pair FIFO queues, crypto and
//! registers completed on the spot (their results queued as the inputs they
//! are; the registers are the threaded backend's memory nodes), each
//! replica's [`Executor`] run inline, timers collected and fired only when
//! a test asks. No clock, no
//! fabric, no threads — what is left is the driver, which is the code both
//! real backends run. Below it, the other thing both backends run — a
//! group's `ClientLoop` — on a scripted `ClientPort` of its own.
//!
//! This is the move vocabulary of `ubft::harness` one layer up, and not
//! built on it: `EngineNet` / `CtbNet` interpret effects in place of a
//! driver, while here the driver under test does and the net sees only what
//! leaves it through [`Substrate`] — no `match` over an effect anywhere.
//! `pump` visits pairs round-robin, not in emission order, and the exact
//! verification counts below (`[4 * 2, 3]` per request) assume that order.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::client::{read_reply, Client};
use ubft_core::engine::{CryptoJob, CryptoOps, Effect, TimerKind};
use ubft_core::msg::{CtbMsg, DirectMsg, Reply, Request};
use ubft_crypto::KeyRing;
use ubft_ctb::ctbcast::RegEntry;
use ubft_ctb::wire::{fingerprint, sign_broadcast, CtbWire, TbFrame, TbWire};
use ubft_sim::failure::ByzantineMode;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, RequestId, SeqId, Slot, Time};

use crate::calibration::SimConfig;
use crate::client_loop::{ClientLoop, ClientPort, ClientTimer};
use crate::cluster::OpCounters;
use crate::exec::{ExecJob, ExecPort, Executor};
use crate::node::{CryptoTask, CtbDone, Lane, NodeInput, NodeTimer, ReplicaNode, Substrate};
use crate::threads::{round_trip, MemNode};

/// One direction of one pair: `(lane, frame)`s in send order.
type Link = VecDeque<(Lane, Vec<u8>)>;

/// Everything between the nodes.
struct FakeNet {
    n: usize,
    ring: KeyRing,
    /// `links[(from, to)]`: what `from` sent `to`, in order. Ordered map, so
    /// the pump visits pairs in the same order every run.
    links: BTreeMap<(usize, usize), Link>,
    /// Finished crypto and register work, per replica.
    completions: Vec<VecDeque<NodeInput>>,
    /// Armed timers, per replica; a test fires the ones it wants.
    timers: Vec<Vec<NodeTimer>>,
    /// The memory nodes the registers live on.
    mem: Vec<MemNode>,
    /// Encoded replies that reached the client.
    replies: Vec<Vec<u8>>,
    /// Every replica's execution core.
    execs: Vec<Executor>,
    /// Every direct-lane message sent: `(from, to, message)`.
    direct: Vec<(usize, usize, DirectMsg)>,
    /// Loses the next frame sent on this `(lane, from, to)`, once `pass`
    /// more have gone through.
    drop_next: Option<(Lane, usize, usize)>,
    pass: u32,
    /// Loses everything this replica sends: it is silent, not down.
    mute: Option<usize>,
    /// The replica that equivocates on its own CTBcast stream: the driver
    /// sends odd receivers a poisoned `LOCK`; the net below keeps the lie up
    /// on the slow path by signing each receiver what it was told.
    equivocator: Option<usize>,
    /// `(to, k)` → the payload the equivocator's `LOCK` told `to`.
    told: HashMap<(usize, SeqId), Vec<u8>>,
    /// Register round trips' completions handed back to the nodes:
    /// `[writes, reads]`.
    round_trip_done: [u64; 2],
    /// Whether a node is being handed a CTBcast signature that finished.
    signing: bool,
    /// `SIGNED` frames of COMMITs sent so far: `[by the call that
    /// broadcast the COMMIT, by a signature's completion after it]`.
    signed_commits: [u32; 2],
}

impl FakeNet {
    /// The equivocator's frame to `to`, as a Byzantine broadcaster that
    /// signs both versions would send it: a `SIGNED` carries what `to`'s
    /// `LOCK` said, under a valid signature.
    fn keep_lying(&mut self, from: usize, to: usize, frame: &[u8]) -> Option<Vec<u8>> {
        let Ok(TbFrame::Data { k: seq, payload }) = TbFrame::decode(frame) else { return None };
        match CtbWire::from_bytes(payload).ok()? {
            CtbWire::Lock { k, m } => {
                self.told.insert((to, k), m);
                None
            }
            CtbWire::Signed { k, m, .. } => {
                let told = self.told.get(&(to, k)).filter(|told| **told != m)?.clone();
                let sig =
                    sign_broadcast(&self.ring, ReplicaId(from as u32), k, &fingerprint(&told));
                let forged = CtbWire::Signed { k, m: told, sig };
                Some(TbWire::encode(seq, &forged, &mut Vec::new()).frame().to_vec())
            }
            CtbWire::Locked { .. } => None,
        }
    }
}

/// Replica `r`'s view of the net.
struct FakeSubstrate<'a> {
    net: &'a mut FakeNet,
    r: usize,
}

impl Substrate for FakeSubstrate<'_> {
    type At = ();

    fn send(&mut self, lane: Lane, to: usize, bytes: &[u8], _: ()) -> Option<bool> {
        let (net, from) = (&mut *self.net, self.r);
        if lane == Lane::Direct {
            net.direct.push((from, to, DirectMsg::from_bytes(bytes).expect("a direct message")));
        }
        if to >= net.n {
            net.replies.push(bytes.to_vec());
        } else if net.mute == Some(from) {
            // On the wire, and lost.
        } else if net.drop_next == Some((lane, from, to)) && net.pass == 0 {
            net.drop_next = None; // on the wire, and lost
        } else {
            if net.drop_next == Some((lane, from, to)) {
                net.pass -= 1;
            }
            let lie = (net.equivocator == Some(from) && lane == Lane::CtbTb { stream: from })
                .then(|| net.keep_lying(from, to, bytes))
                .flatten();
            if lane == (Lane::CtbTb { stream: from }) && carries_signed_commit(bytes) {
                net.signed_commits[usize::from(net.signing)] += 1;
            }
            let frame = lie.unwrap_or_else(|| bytes.to_vec());
            net.links.entry((from, to)).or_default().push_back((lane, frame));
        }
        Some(true)
    }

    fn arm(&mut self, timer: NodeTimer, _after: Duration, _: ()) {
        self.net.timers[self.r].push(timer);
    }

    fn crypto(&mut self, task: CryptoTask, _: ()) {
        self.net.completions[self.r].push_back(task.run(self.r, &self.net.ring));
    }

    fn write_and_read_slot(&mut self, stream: usize, slot: usize, k: SeqId, e: RegEntry, _: ()) {
        let net = &mut *self.net;
        let key = (0, stream as u32, self.r as u32, slot as u32);
        let entries = round_trip(&net.mem, key, k, &e, net.n);
        for done in [CtbDone::Written(k), CtbDone::Read(k, entries)] {
            net.completions[self.r].push_back(NodeInput::Ctb { stream, done });
        }
    }

    fn engine_call_done(
        &mut self,
        _: (),
        _ops: CryptoOps,
        jobs: std::vec::Drain<'_, CryptoJob>,
        fx: Vec<Effect>,
    ) -> Option<((), Vec<Effect>)> {
        for job in jobs {
            self.crypto(CryptoTask::Engine(job), ());
        }
        Some(((), fx))
    }

    /// Runs the job at once: the replies reach the client, the answers
    /// queue with the other completions.
    fn exec(&mut self, job: ExecJob, _: ()) {
        let net = &mut *self.net;
        let port =
            &mut FakeExec { replies: &mut net.replies, inputs: &mut net.completions[self.r] };
        net.execs[self.r].run(job, port);
    }

    fn byz_mode(&self, _: ()) -> Option<ByzantineMode> {
        (self.net.equivocator == Some(self.r)).then_some(ByzantineMode::EquivocateProposals)
    }
}

/// Where replica `r`'s executor's output goes in a [`FakeNet`].
struct FakeExec<'a> {
    replies: &'a mut Vec<Vec<u8>>,
    inputs: &'a mut VecDeque<NodeInput>,
}

impl ExecPort<dyn App> for FakeExec<'_> {
    fn reply(&mut self, _to: usize, bytes: &[u8]) {
        self.replies.push(bytes.to_vec());
    }

    fn input(&mut self, input: NodeInput) {
        self.inputs.push_back(input);
    }
}

/// Three Flip replicas on a [`FakeNet`], and one client.
struct FakeCluster {
    nodes: Vec<ReplicaNode>,
    net: FakeNet,
    client: Client,
}

impl FakeCluster {
    fn new(cfg: &SimConfig) -> Self {
        let n = cfg.params.n();
        let ids = cfg.params.replicas().map(ProcessId::Replica);
        let ring = KeyRing::generate(cfg.seed, ids.chain([ProcessId::Client(ClientId(0))]));
        let nodes = (0..n).map(|r| ReplicaNode::new(r, cfg, ring.clone())).collect();
        let execs = (0..n)
            .map(|r| Executor::new(r, cfg, &ring, Box::new(FlipApp::new()) as Box<dyn App>))
            .collect();
        let net = FakeNet {
            n,
            ring,
            links: BTreeMap::new(),
            completions: (0..n).map(|_| VecDeque::new()).collect(),
            // As both backends do at boot: the retransmission tick is armed.
            timers: vec![vec![NodeTimer::Retransmit]; n],
            mem: (0..cfg.params.n_mem()).map(|_| MemNode::default()).collect(),
            replies: Vec::new(),
            execs,
            direct: Vec::new(),
            drop_next: None,
            pass: 0,
            mute: None,
            equivocator: None,
            told: HashMap::new(),
            round_trip_done: [0; 2],
            signing: false,
            signed_commits: [0; 2],
        };
        let client = Client::new(ClientId(0), cfg.params.replicas().collect(), cfg.params.quorum());
        let mut cluster = FakeCluster { nodes, net, client };
        for r in 0..n {
            cluster.on_node(r, |nd, sub| nd.boot(sub, (), None));
        }
        cluster
    }

    fn on_node(&mut self, r: usize, f: impl FnOnce(&mut ReplicaNode, &mut FakeSubstrate<'_>)) {
        f(&mut self.nodes[r], &mut FakeSubstrate { net: &mut self.net, r });
    }

    /// Delivers queued messages (one per pair per round) and completions
    /// until nothing is left to deliver; returns whether the client's
    /// request completed on the way.
    fn pump(&mut self) -> bool {
        let mut completed = false;
        loop {
            let mut idle = true;
            for r in 0..self.net.n {
                while let Some(input) = self.net.completions[r].pop_front() {
                    idle = false;
                    self.net.signing =
                        matches!(input, NodeInput::Ctb { done: CtbDone::Signed(..), .. });
                    match input {
                        NodeInput::Ctb { done: CtbDone::Written(_), .. } => {
                            self.net.round_trip_done[0] += 1;
                        }
                        NodeInput::Ctb { done: CtbDone::Read(..), .. } => {
                            self.net.round_trip_done[1] += 1;
                        }
                        _ => {}
                    }
                    self.on_node(r, |nd, sub| nd.on_input(sub, input, ()));
                }
            }
            let pairs: Vec<(usize, usize)> = self.net.links.keys().copied().collect();
            for (from, to) in pairs {
                let Some((lane, bytes)) =
                    self.net.links.get_mut(&(from, to)).and_then(VecDeque::pop_front)
                else {
                    continue;
                };
                idle = false;
                self.on_node(to, |nd, sub| nd.on_inbound(sub, lane, from, &bytes, ()));
            }
            for reply in std::mem::take(&mut self.net.replies) {
                let (id, replica, payload) = read_reply(&reply).expect("a reply");
                completed |= self.client.vote(id, replica, payload);
            }
            if idle {
                return completed;
            }
        }
    }

    /// The client issues `payload` to every replica; returns whether it
    /// completed without any timer firing.
    fn request(&mut self, payload: Vec<u8>) -> bool {
        self.client.issue(payload);
        let bytes = self.client.request().expect("just issued").to_bytes();
        let n = self.net.n;
        for to in 0..n {
            self.net.links.entry((n, to)).or_default().push_back((Lane::ClientReq, bytes.clone()));
        }
        self.pump()
    }

    /// Fires (once each) the timers replica `r` has armed that `which`
    /// selects, then pumps.
    fn fire(&mut self, r: usize, which: impl Fn(&NodeTimer) -> bool) -> bool {
        let (due, rest) = std::mem::take(&mut self.net.timers[r]).into_iter().partition(which);
        self.net.timers[r] = rest;
        let due: Vec<NodeTimer> = due;
        for timer in due {
            self.on_node(r, |nd, sub| nd.on_input(sub, NodeInput::Timer(timer), ()));
        }
        self.pump()
    }

    fn assert_replicas_agree(&self, executed: usize) {
        let first = &self.net.execs[0];
        for (nd, exec) in self.nodes.iter().zip(&self.net.execs) {
            assert_eq!(exec.exec_log.len(), executed);
            assert_eq!(exec.exec_log, first.exec_log);
            assert_eq!(exec.app.snapshot_digest(), first.app.snapshot_digest());
            assert!(nd.branded.is_empty(), "an honest run branded {:?}", nd.branded);
            assert_eq!(nd.transfer_misses, 0);
        }
    }

    /// The direct messages replica `from` sent `to` since the last look.
    fn sent(&mut self, from: usize, to: usize) -> Vec<DirectMsg> {
        let (sent, rest) = std::mem::take(&mut self.net.direct)
            .into_iter()
            .partition(|(f, t, _)| (*f, *t) == (from, to));
        self.net.direct = rest;
        sent.into_iter().map(|(_, _, msg)| msg).collect()
    }
}

/// Whether `frame` is a TBcast data frame carrying a `SIGNED` COMMIT.
fn carries_signed_commit(frame: &[u8]) -> bool {
    let Ok(TbFrame::Data { payload, .. }) = TbFrame::decode(frame) else { return false };
    let Ok(CtbWire::Signed { m, .. }) = CtbWire::from_bytes(payload) else { return false };
    matches!(CtbMsg::from_bytes(&m), Ok(CtbMsg::Commit(_)))
}

fn payload(i: u64) -> Vec<u8> {
    let mut p = vec![0u8; 32];
    p[..8].copy_from_slice(&i.to_le_bytes());
    p
}

/// Both CTBcast paths, end to end through the shared driver: every request
/// completes with no timer fired, and the replicas execute the same
/// requests in the same order to the same state.
#[test]
fn three_nodes_decide_on_the_fast_and_the_forced_slow_path() {
    let fast = SimConfig::paper_default(5).fast_only();
    let slow = SimConfig::paper_default(5).slow_only();
    for (cfg, requests) in [(fast, 100), (slow, 20)] {
        let mut cluster = FakeCluster::new(&cfg);
        for i in 0..requests {
            assert!(cluster.request(payload(i)), "{:?} request {i} stalled", cfg.path);
        }
        cluster.assert_replicas_agree(requests as usize);
        let slow_path_ran = cluster.net.round_trip_done[0] > 0;
        assert_eq!(slow_path_ran, cfg.path == ubft_core::engine::PathMode::SlowOnly);
        let mut sum = OpCounters::default();
        cluster.nodes.iter().for_each(|nd| sum.merge(&nd.counters));
        // What a slow-path slot verifies: each of its four signed
        // broadcasts (PREPARE, three COMMITs) at the two receivers that did
        // not sign it, and at each replica the one peer share that
        // completes its certificate. (20 slots reach no summary boundary.)
        if slow_path_ran {
            let verifies = [sum.ctb_verifies, sum.engine_verifies];
            assert_eq!(verifies, [4 * 2, 3].map(|v| v * requests));
        }
        // And its register round trips: one per signed broadcast at each of
        // the three receivers, its broadcaster included, which writes its
        // register and reads the slot like any other. None on the fast
        // path. Each round trip hands back its write and its read.
        let round_trips = if slow_path_ran { 4 * 3 * requests } else { 0 };
        assert_eq!(sum.reg_writes, round_trips);
        assert_eq!(cluster.net.round_trip_done, [round_trips; 2]);
    }
}

/// Every replica's COMMIT is signed while its certificate is still being
/// checked, so its `SIGNED` frame leaves in the call that broadcasts it —
/// none waits for a signature to complete after the COMMIT was released.
#[test]
fn a_commit_signed_ahead_leaves_signed_in_the_call_that_releases_it() {
    let requests = 20;
    let mut cluster = FakeCluster::new(&SimConfig::paper_default(5).slow_only());
    for i in 0..requests {
        assert!(cluster.request(payload(i)), "request {i} stalled");
    }
    cluster.assert_replicas_agree(requests as usize);
    // Three COMMITs a slot, each to the two replicas that did not send it.
    assert_eq!(cluster.net.signed_commits, [3 * 2 * requests as u32, 0]);
}

/// A `LOCK` lost on its way to one follower stalls the unanimous fast path;
/// the broadcaster's retransmission tick repairs it — on the second tick,
/// once the frame has gone a full period unacknowledged.
#[test]
fn a_dropped_tbcast_frame_is_repaired_by_the_retransmit_tick() {
    let mut cluster = FakeCluster::new(&SimConfig::paper_default(6).fast_only());
    assert!(cluster.request(payload(0)));
    cluster.net.drop_next = Some((Lane::CtbTb { stream: 0 }, 0, 2));
    assert!(!cluster.request(payload(1)), "decided without the follower's LOCKED");
    assert!(cluster.net.drop_next.is_none(), "nothing was dropped");
    let tick = |t: &NodeTimer| matches!(t, NodeTimer::Retransmit);
    assert!(!cluster.fire(0, tick), "a frame is not stale before a full period");
    assert!(cluster.fire(0, tick), "the retransmitted LOCK did not unblock the request");
    cluster.assert_replicas_agree(2);
}

/// An equivocating broadcaster — a different `PREPARE` to each follower
/// under one CTBcast id, each later backed by a valid signature — is caught
/// in the registers, and the follower that finds the proof brands it
/// through `Effect::ByzantineDetected`. Neither follower delivers anything.
#[test]
fn an_equivocating_lock_is_branded() {
    let mut cluster = FakeCluster::new(&SimConfig::paper_default(7));
    cluster.net.equivocator = Some(0);
    assert!(!cluster.request(payload(0)), "conflicting LOCKs reached unanimity");
    assert!(cluster.nodes.iter().all(|nd| nd.branded.is_empty()), "a LOCK alone proves nothing");
    // The broadcaster's fast-path sweep starts the signed slow path.
    fire_twice(&mut cluster, 0, NodeTimer::CtbSweep);
    let brands: Vec<&(u32, String)> =
        cluster.nodes[1..].iter().flat_map(|nd| &nd.branded).collect();
    assert!(!brands.is_empty(), "no follower found the proof");
    for (culprit, why) in brands {
        assert_eq!(*culprit, 0);
        assert!(why.contains("equivocation"), "branded for {why}");
    }
    assert!(cluster.net.execs[1..].iter().all(|exec| exec.exec_log.is_empty()));
}

/// Fires replica `r`'s armed `timer` twice — a sweep acts at its second
/// firing on what was pending at its first —; returns whether the client's
/// request completed on the way.
fn fire_twice(cluster: &mut FakeCluster, r: usize, timer: NodeTimer) -> bool {
    let first = cluster.fire(r, |t| *t == timer);
    cluster.fire(r, |t| *t == timer) || first
}

/// A silent receiver costs one fast-path timeout, not one per broadcast:
/// once the leader's CTBcast sweep has found r2's `LOCKED` missing, the
/// engine suspects r2, and every later broadcast of the leader's asks for
/// its signature in the call that sends its `LOCK` — the next request
/// completes with no sweep fired. A frame from r2 ends that.
#[test]
fn timeout_with_a_silent_receiver_signs_later_broadcasts_at_once() {
    let mut cluster = FakeCluster::new(&SimConfig::paper_default(5));
    assert!(cluster.request(payload(0)));
    cluster.net.mute = Some(2);
    let echo_sweep = NodeTimer::Engine(TimerKind::EchoFallback);
    // r2's echo is lost too: the leader proposes on its echo fallback.
    assert!(!cluster.request(payload(1)));
    fire_twice(&mut cluster, 0, echo_sweep);
    assert!(!cluster.nodes[0].engine.suspects_anyone(), "suspected before any sweep");
    assert!(fire_twice(&mut cluster, 0, NodeTimer::CtbSweep), "no slow path");
    assert!(cluster.nodes[0].engine.suspects_anyone(), "r2 is not suspected");

    // The next PREPARE's signature is asked for beside its LOCK.
    assert!(!cluster.request(payload(2)));
    cluster.fire(0, |t| *t == echo_sweep);
    let signs = cluster.nodes[0].counters.ctb_signs;
    let timer = NodeInput::Timer(echo_sweep);
    cluster.on_node(0, |nd, sub| nd.on_input(sub, timer, ()));
    assert_eq!(cluster.nodes[0].counters.ctb_signs, signs + 1, "the PREPARE was not signed");
    assert!(cluster.pump(), "the request waited for a sweep");

    // r2 speaks again: its retransmitted frames reach r0, and the next
    // request runs the signature-free fast path.
    cluster.net.mute = None;
    fire_twice(&mut cluster, 2, NodeTimer::Retransmit);
    assert!(!cluster.nodes[0].engine.suspects_anyone(), "r2's frames cleared nothing");
    let signs = cluster.nodes[0].counters.ctb_signs;
    assert!(cluster.request(payload(3)));
    assert_eq!(cluster.nodes[0].counters.ctb_signs, signs, "signed with nobody suspected");
    cluster.assert_replicas_agree(4);
}

/// While a receiver is suspected, a broadcast of the leader's asks for its
/// signature in the call that sends its `LOCK`, and arms no fast-path
/// sweep: there would be nothing for it to find.
#[test]
fn a_broadcast_made_while_a_receiver_is_suspected_arms_no_sweep() {
    let mut cluster = FakeCluster::new(&SimConfig::paper_default(5));
    assert!(cluster.request(payload(0)));
    cluster.net.mute = Some(2);
    let echo_sweep = NodeTimer::Engine(TimerKind::EchoFallback);
    assert!(!cluster.request(payload(1)));
    fire_twice(&mut cluster, 0, echo_sweep);
    assert!(fire_twice(&mut cluster, 0, NodeTimer::CtbSweep), "no slow path");
    assert!(cluster.nodes[0].engine.suspects_anyone(), "r2 is not suspected");
    // The sweep runs until it finds nothing waiting, and disarms.
    let ctb_sweep = |t: &NodeTimer| *t == NodeTimer::CtbSweep;
    for _ in 0..3 {
        cluster.fire(0, ctb_sweep);
    }
    assert!(!cluster.net.timers[0].iter().any(ctb_sweep), "the sweep stays armed");

    // The next PREPARE leaves with its signature asked for, and no sweep.
    assert!(!cluster.request(payload(2)));
    cluster.fire(0, |t| *t == echo_sweep);
    let signs = cluster.nodes[0].counters.ctb_signs;
    cluster.on_node(0, |nd, sub| nd.on_input(sub, NodeInput::Timer(echo_sweep), ()));
    assert_eq!(cluster.nodes[0].counters.ctb_signs, signs + 1, "the PREPARE was not signed");
    assert!(!cluster.net.timers[0].iter().any(ctb_sweep), "the broadcast armed the sweep");
    assert!(cluster.pump(), "the request waited for a sweep");
    assert!(!cluster.net.timers[0].iter().any(ctb_sweep), "the slow path armed the sweep");
}

/// A sweep that finds every broadcast of the leader's delivered on the
/// fast path signs nothing and suspects nobody.
#[test]
fn timer_firing_after_fast_delivery_suspects_nobody() {
    let mut cluster = FakeCluster::new(&SimConfig::paper_default(5));
    assert!(cluster.request(payload(0)));
    for r in 0..cluster.net.n {
        fire_twice(&mut cluster, r, NodeTimer::CtbSweep);
        fire_twice(&mut cluster, r, NodeTimer::Engine(TimerKind::SlowSweep));
    }
    assert!(cluster.request(payload(1)));
    for nd in &cluster.nodes {
        assert!(!nd.engine.suspects_anyone());
        assert_eq!(nd.counters.ctb_signs, 0);
    }
    cluster.assert_replicas_agree(2);
}

/// Request `seq` of client `c`, with [`payload`] `seq`.
fn req_of(c: u32, seq: u64) -> Request {
    Request { id: RequestId::new(ClientId(c), seq), payload: payload(seq) }
}

/// A request of a client the replicas do not answer, which the tests below
/// hand the replicas themselves.
fn req(seq: u64) -> Request {
    req_of(1, seq)
}

/// `cfg`'s three replicas, where r1 has accepted slot 0 and cannot decide
/// it: r2's second vote on it, its `WILL_COMMIT`, is lost on the way to r1
/// until r2's retransmission tick repairs it ([`repair_slot_0`]). r0 and
/// r2 answer request 0.
fn slot_0_in_flight_at_r1(cfg: &SimConfig) -> FakeCluster {
    let mut cluster = FakeCluster::new(cfg);
    (cluster.net.drop_next, cluster.net.pass) = (Some((Lane::ConsTb, 2, 1)), 1);
    assert!(cluster.request(payload(0)));
    assert_eq!(cluster.nodes[1].engine.accepted_undecided(), Some(Slot(0)));
    // Nothing was in flight when r1 echoed request 0: it left at once.
    assert_eq!(cluster.sent(1, 0), [DirectMsg::Echo { req: req_of(0, 0) }]);
    cluster.net.direct.clear();
    cluster
}

/// r2 retransmits the vote r1 lost (a frame is stale after a full period,
/// so on the second tick), and r1 executes what it has decided.
fn repair_slot_0(cluster: &mut FakeCluster) {
    for _ in 0..2 {
        cluster.fire(2, |t| matches!(t, NodeTimer::Retransmit));
    }
    assert_eq!(cluster.nodes[1].engine.accepted_undecided(), None);
}

/// While a slot it accepted is in flight, a follower's echoes wait; they
/// leave early once `max_batch` wait or an echo to another replica comes.
/// With `max_batch` 1 none waits.
#[test]
fn waiting_echoes_leave_at_max_batch_and_when_the_leader_changes() {
    let echo = |to: u32, seq: u64| {
        let msg = DirectMsg::Echo { req: req(seq) };
        Effect::SendReplica { to: ReplicaId(to), msg }
    };
    let mut cluster = slot_0_in_flight_at_r1(&SimConfig::paper_default(5).with_batch(3));
    let fx = [echo(0, 10), echo(0, 11), echo(0, 12), echo(0, 13), echo(2, 14), echo(2, 15)];
    cluster.on_node(1, |nd, sub| nd.on_input(sub, NodeInput::Effects(fx.to_vec()), ()));
    let first = DirectMsg::Echoes { reqs: (10..13).map(req).collect() };
    assert_eq!(cluster.sent(1, 0), [first, DirectMsg::Echo { req: req(13) }]);
    assert_eq!(cluster.sent(1, 2), []);
    // The slot decides: nothing is in flight, and what waited leaves.
    repair_slot_0(&mut cluster);
    assert_eq!(cluster.sent(1, 2), [DirectMsg::Echoes { reqs: vec![req(14), req(15)] }]);

    let mut cluster = slot_0_in_flight_at_r1(&SimConfig::paper_default(5));
    cluster.on_node(1, |nd, sub| nd.on_input(sub, NodeInput::Effects(fx[..2].to_vec()), ()));
    let single = (10..12).map(|seq| DirectMsg::Echo { req: req(seq) });
    assert_eq!(cluster.sent(1, 0), single.collect::<Vec<_>>());
}

/// A follower's echoes wait while a slot it accepted has not decided — the
/// leader's later PREPAREs it accepts meanwhile let none go — and leave
/// together once that slot decides; with nothing in flight an echo leaves
/// at once, and with `max_batch` 1 none waits.
#[test]
fn echoes_wait_for_the_followers_next_decision_while_a_slot_is_in_flight() {
    let mut cfg = SimConfig::paper_default(5).with_batch(4);
    // The leader proposes what its client sends it at once, so its next
    // PREPAREs do not wait for r1's echoes.
    cfg.echo_round = false;
    let mut cluster = slot_0_in_flight_at_r1(&cfg);
    // Two requests reach every replica, and r0 proposes each as it comes.
    // r1 accepts both PREPAREs and holds both echoes; r2, with nothing in
    // flight, echoes each at once.
    let n = cluster.net.n;
    for seq in [1, 2] {
        for to in 0..n {
            let bytes = (Lane::ClientReq, req(seq).to_bytes());
            cluster.net.links.entry((n, to)).or_default().push_back(bytes);
        }
    }
    cluster.pump();
    assert_eq!(cluster.nodes[1].engine.accepted_undecided(), Some(Slot(0)));
    assert_eq!(cluster.sent(1, 0), []);
    assert_eq!(cluster.sent(2, 0), [1, 2].map(|seq| DirectMsg::Echo { req: req(seq) }));

    repair_slot_0(&mut cluster);
    assert_eq!(cluster.sent(1, 0), [DirectMsg::Echoes { reqs: vec![req(1), req(2)] }]);
    assert!(cluster.request(payload(3)));
    let next = Request { id: RequestId::new(ClientId(0), 1), payload: payload(3) };
    assert_eq!(cluster.sent(1, 0), [DirectMsg::Echo { req: next }]);
    cluster.assert_replicas_agree(4);

    // Unbatched, r1 echoes each request at once, slot in flight or not.
    cfg.max_batch = 1;
    let mut cluster = slot_0_in_flight_at_r1(&cfg);
    let fx = [1, 2].map(|seq| Effect::SendReplica {
        to: ReplicaId(0),
        msg: DirectMsg::Echo { req: req(seq) },
    });
    cluster.on_node(1, |nd, sub| nd.on_input(sub, NodeInput::Effects(fx.to_vec()), ()));
    assert_eq!(cluster.sent(1, 0), [1, 2].map(|seq| DirectMsg::Echo { req: req(seq) }));
}

/// The threaded backend's memory node: a write lands unless the register
/// holds a newer timestamp, and the read behind it returns the slot's
/// entry of every owner, in owner order, the write included.
#[test]
fn a_memory_node_answers_a_write_with_the_slot_it_reads_back() {
    let mem = MemNode::default();
    // Owner `owner` writes `byte`s at `ts` to slot `slot` of group 0's
    // stream 1; returns what the node reads back.
    let write_read = |owner: u32, slot: u32, ts: u64, byte: u8| {
        let mut entries = vec![None; 3];
        mem.write_read((0, 1, owner, slot), ts, &[byte; 4], &mut entries);
        entries
    };
    let entry = |ts: u64, byte: u8| Some((ts, vec![byte; 4]));
    assert_eq!(write_read(1, 2, 5, 0xB1), [None, entry(5, 0xB1), None]);
    // An older write leaves the newer entry in place, and reads it back.
    assert_eq!(write_read(1, 2, 3, 0xB0), [None, entry(5, 0xB1), None]);
    // Another slot is another register.
    assert_eq!(write_read(0, 3, 9, 0xA9), [entry(9, 0xA9), None, None]);
    // Written in the order 1, 2, 0; read back in owner order.
    assert_eq!(write_read(2, 2, 4, 0xC2), [None, entry(5, 0xB1), entry(4, 0xC2)]);
    assert_eq!(write_read(0, 2, 6, 0xA0), [entry(6, 0xA0), entry(5, 0xB1), entry(4, 0xC2)]);
    // Another group's stream is another register too.
    let mut other_group = vec![None; 3];
    mem.write_read((1, 1, 1, 2), 8, &[0xD1; 4], &mut other_group);
    assert_eq!(other_group, [None, entry(8, 0xD1), None]);
    // Read across two nodes, each owner's newest entry wins; group 1's
    // write left group 0's entry of owner 1 as it was.
    let (other, mut merged) = (MemNode::default(), vec![None; 3]);
    other.write_read((0, 1, 0, 2), 7, &[0xA7; 4], &mut merged);
    mem.write_read((0, 1, 1, 2), 5, &[0xB1; 4], &mut merged);
    assert_eq!(merged, [entry(7, 0xA7), entry(5, 0xB1), entry(4, 0xC2)]);

    // The round trip both untimed substrates make, on three nodes: a
    // register entry older than the slot's is refused on every node, and
    // the newer one comes back.
    let nodes: Vec<MemNode> = (0..3).map(|_| MemNode::default()).collect();
    let reg = |k: u64, byte: u8| RegEntry {
        k: SeqId(k),
        fp: ubft_crypto::Digest::from_bytes([byte; 32]),
        sig: ubft_crypto::Signature::garbage(),
    };
    let round_trip = |owner: u32, e: &RegEntry| round_trip(&nodes, (0, 1, owner, 2), e.k, e, 3);
    assert_eq!(round_trip(1, &reg(5, 0xB1)), [None, Some(reg(5, 0xB1)), None]);
    assert_eq!(round_trip(1, &reg(3, 0xB0)), [None, Some(reg(5, 0xB1)), None]);
    assert_eq!(round_trip(0, &reg(6, 0xA0)), [Some(reg(6, 0xA0)), Some(reg(5, 0xB1)), None]);
}

// ----------------------------------------------------------------------
// The client loop alone, on a scripted port
// ----------------------------------------------------------------------

/// A scripted [`ClientPort`]: records what the loop sends and arms, and
/// holds the clock and the deployment-wide completion count for a test to
/// move.
#[derive(Default)]
struct FakePort {
    /// `(client, request, replicas addressed)` per send.
    sent: Vec<(usize, RequestId, usize)>,
    /// `(client, timer, after)` per armed timer.
    armed: Vec<(usize, ClientTimer, Duration)>,
    now: Time,
    completed: u64,
}

impl ClientPort for FakePort {
    fn send(&mut self, c: usize, id: RequestId, bytes: &[u8], replicas: &[ReplicaId]) {
        assert_eq!(Request::from_bytes(bytes).map(|req| req.id), Ok(id), "the encoded request");
        self.sent.push((c, id, replicas.len()));
    }

    fn arm(&mut self, c: usize, timer: ClientTimer, after: Duration) {
        self.armed.push((c, timer, after));
    }

    fn now(&self) -> Time {
        self.now
    }

    fn completed(&self) -> u64 {
        self.completed
    }

    fn complete(&mut self) -> u64 {
        self.completed += 1;
        self.completed
    }
}

/// Two clients of a three-replica group on a [`FakePort`], fed by a source
/// that counts its pulls and runs dry while `dry` is set.
struct LoopRig {
    clients: ClientLoop,
    port: FakePort,
    pulls: Rc<Cell<u64>>,
    dry: Rc<Cell<bool>>,
}

impl LoopRig {
    fn new(requests: u64, warmup: u64) -> Self {
        let (pulls, dry) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(false)));
        let (pulled, is_dry) = (Rc::clone(&pulls), Rc::clone(&dry));
        let source = move |_| {
            pulled.set(pulled.get() + 1);
            (!is_dry.get()).then(|| payload(pulled.get()))
        };
        let cfg = SimConfig::paper_default(1).with_clients(2);
        let (_ring, mut clients) = ClientLoop::bootstrap(&cfg, 0, Box::new(source) as Box<_>);
        clients.begin(requests, warmup);
        LoopRig { clients, port: FakePort::default(), pulls, dry }
    }

    fn fire(&mut self, c: usize, timer: ClientTimer) {
        self.clients.on_timer(&mut self.port, c, timer);
    }

    /// The request the loop sent last.
    fn in_flight(&self) -> RequestId {
        self.port.sent.last().expect("a request was sent").1
    }

    fn reply(&mut self, id: RequestId, replica: u32) {
        let reply = Reply { id, replica: ReplicaId(replica), payload: vec![1] };
        self.clients.on_reply(&mut self.port, &reply.to_bytes());
    }

    /// `f + 1` matching replies to `id`.
    fn complete(&mut self, id: RequestId) {
        self.reply(id, 0);
        self.reply(id, 1);
    }

    /// What was armed since the last call.
    fn armed(&mut self) -> Vec<(usize, ClientTimer, Duration)> {
        std::mem::take(&mut self.port.armed)
    }
}

/// An empty source is re-asked after 5, 10, … µs, never more than × 256
/// apart, and from 5 µs again once it has yielded a request.
#[test]
fn an_idle_client_backs_off_to_a_ceiling_and_resets_on_a_request() {
    let mut rig = LoopRig::new(10, 0);
    rig.dry.set(true);
    for step in 0..11 {
        rig.fire(0, ClientTimer::Issue);
        let after = Duration::from_micros(5 << step.min(8));
        assert_eq!(rig.armed(), [(0, ClientTimer::Issue, after)], "empty pull {step}");
    }
    assert_eq!((rig.pulls.get(), rig.port.sent.len()), (11, 0));

    rig.dry.set(false);
    rig.fire(0, ClientTimer::Issue);
    let id = rig.in_flight();
    assert_eq!(rig.port.sent, [(0, id, 3)], "one request, to all three replicas");
    assert!(matches!(rig.armed()[..], [(0, ClientTimer::Retry(armed), _)] if armed == id));

    rig.dry.set(true);
    rig.complete(id);
    assert_eq!(rig.armed(), [(0, ClientTimer::Issue, Duration::ZERO)], "re-issue at once");
    rig.fire(0, ClientTimer::Issue);
    assert_eq!(rig.armed(), [(0, ClientTimer::Issue, Duration::from_micros(5))]);
}

/// A retransmission check re-sends and re-arms while its request is in
/// flight, and does neither once the request completed.
#[test]
fn a_retry_resends_only_while_its_request_is_in_flight() {
    let mut rig = LoopRig::new(10, 0);
    rig.fire(1, ClientTimer::Issue);
    let id = rig.in_flight();
    let [(1, retry, period)] = rig.armed()[..] else { panic!("one retry timer per issue") };
    assert_eq!(retry, ClientTimer::Retry(id));

    rig.fire(1, retry);
    assert_eq!(rig.port.sent, [(1, id, 3), (1, id, 3)], "the same request again");
    assert_eq!(rig.armed(), [(1, retry, period)]);

    rig.complete(id);
    rig.armed();
    rig.fire(1, retry);
    assert_eq!(rig.port.sent.len(), 2, "a completed request was retransmitted");
    assert!(rig.armed().is_empty(), "a completed request's retry re-armed");
    // Nor does the stale check touch the client's next request.
    rig.fire(1, ClientTimer::Issue);
    rig.armed();
    rig.fire(1, retry);
    assert_eq!(rig.port.sent.len(), 3);
    assert!(rig.armed().is_empty());
}

/// The first `warmup` completions, counted deployment-wide, are not
/// measured; later ones record the time since their issue.
#[test]
fn warmup_completions_leave_the_latency_distribution_empty() {
    let mut rig = LoopRig::new(2, 2);
    // Another group's client completed one of the warm-up requests.
    rig.port.completed = 1;
    for (measured, took) in [(0, 7), (1, 9), (2, 11)] {
        rig.fire(0, ClientTimer::Issue);
        rig.port.now += Duration::from_micros(took);
        rig.complete(rig.in_flight());
        assert_eq!(rig.clients.latency.len(), measured);
    }
    assert_eq!(rig.clients.completed, 3);
    assert_eq!(rig.port.completed, 4);
    assert_eq!(rig.clients.latency.sorted_samples(), [9, 11].map(Duration::from_micros));
}

/// Once the deployment has completed what the run is after, a client's
/// `Issue` timer — a starved shard's back-off poll — neither pulls the
/// source nor sends, and the last completion arms nothing.
#[test]
fn nothing_is_pulled_or_issued_at_the_target() {
    let mut rig = LoopRig::new(1, 0);
    rig.dry.set(true);
    rig.fire(1, ClientTimer::Issue);
    rig.dry.set(false);
    rig.fire(0, ClientTimer::Issue);
    rig.armed();
    rig.complete(rig.in_flight());
    assert!(rig.armed().is_empty(), "the completion that met the target re-issued");

    let pulls = rig.pulls.get();
    for c in [0, 1] {
        rig.fire(c, ClientTimer::Issue);
    }
    assert_eq!(rig.pulls.get(), pulls, "the source was pulled past the target");
    assert_eq!(rig.port.sent.len(), 1);
    assert!(rig.armed().is_empty());
}

/// One rule for whose reply it is — the client the reply names: a client
/// the group does not have, an id no longer (or not yet) in flight and a
/// replica's second vote complete nothing.
#[test]
fn stray_replies_complete_nothing() {
    let mut rig = LoopRig::new(10, 0);
    rig.fire(0, ClientTimer::Issue);
    let id = rig.in_flight();
    rig.armed();

    rig.reply(RequestId::new(ClientId(2), id.seq), 0);
    rig.reply(RequestId::new(ClientId(1), id.seq), 0);
    rig.reply(RequestId::new(id.client, id.seq + 1), 0);
    rig.clients.on_reply(&mut rig.port, b"not a reply");
    rig.reply(id, 0);
    rig.reply(id, 0);
    assert_eq!((rig.clients.completed, rig.port.completed), (0, 0));
    assert!(rig.armed().is_empty());

    rig.reply(id, 2);
    assert_eq!((rig.clients.completed, rig.port.completed), (1, 1));
    rig.reply(id, 1);
    assert_eq!(rig.clients.completed, 1, "a reply to a completed request counted");
}
