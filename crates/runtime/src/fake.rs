//! A scripted in-memory [`Substrate`], and the node driver tested against
//! it: three [`ReplicaNode`]s joined by per-pair FIFO queues, crypto and
//! registers completed on the spot (their results queued as the inputs they
//! are), timers collected and fired only when a test asks. No clock, no
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
use ubft_core::client::Client;
use ubft_core::engine::{CryptoJob, CryptoOps, CryptoResult, CryptoTag, Effect};
use ubft_core::msg::{Reply, Request};
use ubft_crypto::{Digest, KeyRing, Signature};
use ubft_ctb::ctbcast::{RegEntry, VerifyTag};
use ubft_ctb::wire::{fingerprint, sign_broadcast, verify_broadcast, CtbWire, TbFrame, TbWire};
use ubft_sim::failure::ByzantineMode;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, RequestId, SeqId, Time};

use crate::calibration::SimConfig;
use crate::client_loop::{ClientLoop, ClientPort, ClientTimer};
use crate::node::{CtbDone, Lane, NodeTimer, ReplicaNode, Substrate};

/// A completion waiting to re-enter the node that started the work.
enum Completion {
    Ctb { stream: usize, done: CtbDone },
    Crypto { tag: CryptoTag, result: CryptoResult },
}

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
    completions: Vec<VecDeque<Completion>>,
    /// Armed timers, per replica; a test fires the ones it wants.
    timers: Vec<Vec<NodeTimer>>,
    /// `(stream, owner, slot)` → the register's content.
    registers: HashMap<(usize, usize, usize), RegEntry>,
    /// Replies that reached the client.
    replies: Vec<Reply>,
    /// Loses the next frame sent on this `(lane, from, to)`.
    drop_next: Option<(Lane, usize, usize)>,
    /// The replica that equivocates on its own CTBcast stream: the driver
    /// sends odd receivers a poisoned `LOCK`; the net below keeps the lie up
    /// on the slow path by signing each receiver what it was told.
    equivocator: Option<usize>,
    /// `(to, k)` → the payload the equivocator's `LOCK` told `to`.
    told: HashMap<(usize, SeqId), Vec<u8>>,
    /// Signatures verified so far: `[for CTBcast, by engine crypto jobs]`.
    verifies: [u32; 2],
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
        if to >= net.n {
            net.replies.push(Reply::from_bytes(bytes).expect("a reply"));
        } else if net.drop_next == Some((lane, from, to)) {
            net.drop_next = None; // on the wire, and lost
        } else {
            let lie = (net.equivocator == Some(from) && lane == Lane::CtbTb { stream: from })
                .then(|| net.keep_lying(from, to, bytes))
                .flatten();
            let frame = lie.unwrap_or_else(|| bytes.to_vec());
            net.links.entry((from, to)).or_default().push_back((lane, frame));
        }
        Some(true)
    }

    fn arm(&mut self, timer: NodeTimer, _after: Duration, _: ()) {
        self.net.timers[self.r].push(timer);
    }

    fn ctb_sign(&mut self, stream: usize, k: SeqId, fp: Digest, _: ()) {
        let sig = sign_broadcast(&self.net.ring, ReplicaId(stream as u32), k, &fp);
        let done = CtbDone::Signed(k, sig);
        self.net.completions[self.r].push_back(Completion::Ctb { stream, done });
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
        self.net.verifies[0] += 1;
        let ok = verify_broadcast(&self.net.ring, ReplicaId(stream as u32), k, &fp, &sig);
        let done = CtbDone::Verified(tag, ok);
        self.net.completions[self.r].push_back(Completion::Ctb { stream, done });
    }

    fn write_register(&mut self, stream: usize, slot: usize, k: SeqId, entry: RegEntry, _: ()) {
        self.net.registers.insert((stream, self.r, slot), entry);
        let done = CtbDone::Written(k);
        self.net.completions[self.r].push_back(Completion::Ctb { stream, done });
    }

    fn read_slot(&mut self, stream: usize, slot: usize, k: SeqId, _: ()) {
        let net = &mut *self.net;
        let entries =
            (0..net.n).map(|owner| net.registers.get(&(stream, owner, slot)).cloned()).collect();
        let done = CtbDone::Read(k, entries);
        net.completions[self.r].push_back(Completion::Ctb { stream, done });
    }

    fn engine_call_done(
        &mut self,
        _: (),
        _ops: CryptoOps,
        jobs: std::vec::Drain<'_, CryptoJob>,
        fx: Vec<Effect>,
    ) -> Option<((), Vec<Effect>)> {
        let me = ProcessId::Replica(ReplicaId(self.r as u32));
        let signer = self.net.ring.signer(me).expect("replica key");
        for job in jobs {
            self.net.verifies[1] += job.ops().verifies;
            let result = job.run(&signer, &self.net.ring);
            self.net.completions[self.r].push_back(Completion::Crypto { tag: job.tag, result });
        }
        Some(((), fx))
    }

    fn byz_mode(&self, _: ()) -> Option<ByzantineMode> {
        (self.net.equivocator == Some(self.r)).then_some(ByzantineMode::EquivocateProposals)
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
        let nodes = (0..n)
            .map(|r| {
                ReplicaNode::new(r, cfg, ring.clone(), Box::new(FlipApp::new()) as Box<dyn App>)
            })
            .collect();
        let net = FakeNet {
            n,
            ring,
            links: BTreeMap::new(),
            completions: (0..n).map(|_| VecDeque::new()).collect(),
            // As both backends do at boot: the retransmission tick is armed.
            timers: vec![vec![NodeTimer::Retransmit]; n],
            registers: HashMap::new(),
            replies: Vec::new(),
            drop_next: None,
            equivocator: None,
            told: HashMap::new(),
            verifies: [0; 2],
        };
        let client = Client::new(ClientId(0), cfg.params.replicas().collect(), cfg.params.quorum());
        let mut cluster = FakeCluster { nodes, net, client };
        for r in 0..n {
            cluster.on_node(r, |nd, sub| nd.engine_call(sub, (), |e| e.start()));
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
                while let Some(c) = self.net.completions[r].pop_front() {
                    idle = false;
                    self.on_node(r, |nd, sub| match c {
                        Completion::Ctb { stream, done } => nd.on_ctb_done(sub, stream, done, ()),
                        Completion::Crypto { tag, result } => {
                            nd.engine_call(sub, (), |e| e.on_crypto_done(tag, result));
                        }
                    });
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
                completed |= self.client.on_reply(reply).is_some();
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
            self.on_node(r, |nd, sub| nd.on_timer(sub, timer, ()));
        }
        self.pump()
    }

    fn assert_replicas_agree(&self, executed: usize) {
        for nd in &self.nodes {
            assert_eq!(nd.exec_log.len(), executed);
            assert_eq!(nd.exec_log, self.nodes[0].exec_log);
            assert_eq!(nd.app.snapshot_digest(), self.nodes[0].app.snapshot_digest());
            assert!(nd.branded.is_empty(), "an honest run branded {:?}", nd.branded);
            assert_eq!(nd.transfer_misses, 0);
        }
    }
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
        let slow_path_ran = !cluster.net.registers.is_empty();
        assert_eq!(slow_path_ran, cfg.path == ubft_core::engine::PathMode::SlowOnly);
        // What a slow-path slot verifies: each of its four signed
        // broadcasts (PREPARE, three COMMITs) at the two receivers that did
        // not sign it, and at each replica the one peer share that
        // completes its certificate. (20 slots reach no summary boundary.)
        if slow_path_ran {
            assert_eq!(cluster.net.verifies, [4 * 2, 3].map(|v| v * requests as u32));
        }
    }
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
    // The broadcaster's fast-path timeout starts the signed slow path.
    cluster.fire(0, |t| matches!(t, NodeTimer::CtbSlow(_)));
    let brands: Vec<&(u32, String)> =
        cluster.nodes[1..].iter().flat_map(|nd| &nd.branded).collect();
    assert!(!brands.is_empty(), "no follower found the proof");
    for (culprit, why) in brands {
        assert_eq!(*culprit, 0);
        assert!(why.contains("equivocation"), "branded for {why}");
    }
    assert!(cluster.nodes[1..].iter().all(|nd| nd.exec_log.is_empty()));
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
    fn send(&mut self, c: usize, bytes: &[u8], replicas: &[ReplicaId]) {
        let req = Request::from_bytes(bytes).expect("an encoded request");
        self.sent.push((c, req.id, replicas.len()));
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
