//! A scripted net of whole replicas: `n` `ReplicaNode`s — engine,
//! CTBcast, TBcast frames and the event loop both real backends run — and one
//! client, joined by one FIFO link per `(from, to)` pair. Crypto and
//! register work completes on the spot (its result queued as the input it
//! is; the registers are the threaded backend's memory nodes), each
//! replica's `Executor` runs inline, and timers are collected and fired
//! only on request ([`NodeNet::fire_timers`]). No clock, no fabric, no
//! threads.
//!
//! This is `ubft::harness::EngineNet`'s vocabulary one layer up. Every
//! step is a [`Move`] on [`NodeNet::pending`] — the head frame of a link or
//! the head completion of a replica — applied or dropped by index, so the
//! indices replay a run. Any frame may be lost, as the transport may lose
//! one on any lane (`ubft_transport::net`); work a replica started always
//! comes back. A crashed replica's moves are lost, whichever end of them it
//! is. Unlike `EngineNet`, the net interprets no effect: the replica's
//! event loop under test does, and the net sees only what leaves it
//! through its `Substrate`. [`NodeNet::run`] visits the replicas and then
//! the links round-robin, not in emission order; exact counts of a run
//! assume that order.

use std::collections::{BTreeMap, HashMap, VecDeque};

use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::client::{read_reply, Client};
use ubft_core::engine::{CryptoJob, CryptoOps, Effect};
use ubft_core::msg::Request;
use ubft_crypto::KeyRing;
use ubft_ctb::ctbcast::RegEntry;
use ubft_ctb::wire::{fingerprint, sign_broadcast, CtbWire, TbFrame, TbWire};
use ubft_sim::failure::ByzantineMode;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, SeqId, Time};

use crate::calibration::SimConfig;
use crate::exec::{ExecJob, ExecPort, Executor};
use crate::node::{CryptoTask, CtbDone, NodeInput, ReplicaNode, Substrate};
pub use crate::node::{Lane, NodeTimer};
use crate::stall::ReplicaStall;
use crate::threads::{round_trip, MemNode};

/// What `from` sent `to`, in order.
type Link = VecDeque<(Lane, Vec<u8>)>;

/// What a completion hands its replica back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Done {
    /// A CTBcast signature.
    Signed,
    /// A register write reached its quorum.
    Written,
    /// A register slot was read back.
    Read,
    /// Anything else: a CTBcast verdict, an engine crypto job's result, an
    /// executor's answer.
    Other,
}

impl Done {
    fn of(input: &NodeInput) -> Done {
        match input {
            NodeInput::Ctb { done: CtbDone::Signed(..), .. } => Done::Signed,
            NodeInput::Ctb { done: CtbDone::Written(_), .. } => Done::Written,
            NodeInput::Ctb { done: CtbDone::Read(..), .. } => Done::Read,
            _ => Done::Other,
        }
    }
}

/// One step a [`NodeNet`] can take next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Move {
    /// The head frame of the `(from, to)` link, on `lane`. Node `n` is the
    /// client.
    Frame { from: usize, to: usize, lane: Lane },
    /// The head of replica `r`'s finished crypto, register and executor
    /// work.
    Completion { r: usize, done: Done },
}

/// One call into a replica, as the record keeps it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Step {
    /// The replica called.
    pub node: usize,
    /// The move it applied; `None` for its boot, a timer, or an input
    /// handed to it directly.
    pub applied: Option<Move>,
    /// The frames it sent, as they went on the wire: `(lane, to, frame)`.
    pub sent: Vec<(Lane, usize, Vec<u8>)>,
}

/// `cfg`'s replicas, a Flip application each, and one client, on a
/// scripted net.
pub struct NodeNet {
    /// The replicas, by index.
    pub(crate) nodes: Vec<ReplicaNode>,
    /// Every replica's execution core.
    pub(crate) execs: Vec<Executor>,
    /// A crashed replica's moves are lost, whichever end of them it is.
    pub crashed: Vec<bool>,
    /// The timers each replica armed; [`NodeNet::fire_timers`] fires them.
    pub(crate) timers: Vec<Vec<NodeTimer>>,
    /// Every call into a replica, in order, with the frames it sent.
    pub(crate) record: Vec<Step>,
    pub(crate) n: usize,
    ring: KeyRing,
    client: Client,
    /// `links[(from, to)]`: what `from` sent `to`, in order. Ordered, so a
    /// run visits the links in the same order every time.
    links: BTreeMap<(usize, usize), Link>,
    /// Finished crypto, register and executor work, per replica.
    completions: Vec<VecDeque<NodeInput>>,
    /// The memory nodes the registers live on.
    mem: Vec<MemNode>,
    /// Encoded replies on their way to the client.
    replies: Vec<Vec<u8>>,
    /// Each replica's Byzantine behaviour, as `cfg`'s plan has it at time
    /// zero. An equivocator's `LOCK`s differ by receiver (the node's
    /// doing); the net keeps the lie up on the slow path by signing each
    /// receiver what it was told.
    byz: Vec<Option<ByzantineMode>>,
    /// `(to, k)` → the payload an equivocator's `LOCK` told `to`.
    told: HashMap<(usize, SeqId), Vec<u8>>,
    /// The replica a call is under way at: the substrate's `self`.
    calling: usize,
}

impl NodeNet {
    /// Boots `cfg`'s replicas, each with its retransmission tick armed, as
    /// both backends arm it; nothing else is applied.
    pub fn new(cfg: &SimConfig) -> Self {
        let n = cfg.params.n();
        let ids = cfg.params.replicas().map(ProcessId::Replica);
        let ring = KeyRing::generate(cfg.seed, ids.chain([ProcessId::Client(ClientId(0))]));
        let flip = || Box::new(FlipApp::new()) as Box<dyn App>;
        let mut net = NodeNet {
            nodes: (0..n).map(|r| ReplicaNode::new(r, cfg, ring.clone())).collect(),
            execs: (0..n).map(|r| Executor::new(r, cfg, &ring, flip())).collect(),
            crashed: vec![false; n],
            timers: vec![vec![NodeTimer::Retransmit]; n],
            record: Vec::new(),
            n,
            client: Client::new(ClientId(0), cfg.params.replicas().collect(), cfg.params.quorum()),
            links: BTreeMap::new(),
            completions: (0..n).map(|_| VecDeque::new()).collect(),
            mem: (0..cfg.params.n_mem()).map(|_| MemNode::default()).collect(),
            replies: Vec::new(),
            byz: (0..n).map(|r| cfg.failures.byzantine_mode(r, Time::ZERO)).collect(),
            told: HashMap::new(),
            calling: 0,
            ring,
        };
        for r in 0..n {
            net.on_node(r, None, |nd, net| nd.boot(net, (), None));
        }
        net
    }

    /// What can happen next: each replica's head completion, then each
    /// link's head frame, in the order [`NodeNet::run`] visits them.
    pub fn pending(&self) -> Vec<Move> {
        let done = self.completions.iter().enumerate().filter_map(|(r, queue)| {
            queue.front().map(|input| Move::Completion { r, done: Done::of(input) })
        });
        let frames = self.links.iter().filter_map(|(&(from, to), link)| {
            link.front().map(|(lane, _)| Move::Frame { from, to, lane: *lane })
        });
        done.chain(frames).collect()
    }

    /// Carries out pending move `i`.
    pub fn apply(&mut self, i: usize) {
        self.take(self.pending()[i], false);
    }

    /// Loses pending move `i`, which must be a frame.
    pub fn drop_move(&mut self, i: usize) {
        let m = self.pending()[i];
        assert!(matches!(m, Move::Frame { .. }), "work a replica started comes back: {m:?}");
        self.take(m, true);
    }

    /// Takes `m` off its queue and carries it out, unless it is `lost` or
    /// an end of it crashed; returns whether it was carried out.
    fn take(&mut self, m: Move, lost: bool) -> bool {
        let down = |i: usize| self.crashed.get(i) == Some(&true);
        match m {
            Move::Completion { r, .. } => {
                let lost = down(r);
                let input = self.completions[r].pop_front().expect("a pending completion");
                if !lost {
                    self.on_node(r, Some(m), |nd, net| nd.on_input(net, input, ()));
                }
                !lost
            }
            Move::Frame { from, to, .. } => {
                let lost = lost || down(from) || down(to);
                let link = self.links.get_mut(&(from, to));
                let (lane, bytes) = link.and_then(VecDeque::pop_front).expect("a pending frame");
                if !lost {
                    self.on_node(to, Some(m), |nd, net| nd.on_inbound(net, lane, from, &bytes, ()));
                }
                !lost
            }
        }
    }

    /// Applies moves until none is left, in rounds: every completion of
    /// each replica in turn, then one frame of each link. Returns whether
    /// the client's request completed on the way.
    pub fn run(&mut self) -> bool {
        self.run_losing(|_, _| false)
    }

    /// [`NodeNet::run`], losing each frame `lose` picks, given its move and
    /// its bytes, at its turn. A lost frame takes no turn: the next one on
    /// its link goes in its place.
    pub fn run_losing(&mut self, mut lose: impl FnMut(&Move, &[u8]) -> bool) -> bool {
        let mut completed = false;
        loop {
            let mut idle = true;
            for r in 0..self.n {
                while let Some(input) = self.completions[r].front() {
                    idle = false;
                    self.take(Move::Completion { r, done: Done::of(input) }, false);
                }
            }
            let links: Vec<(usize, usize)> = self.links.keys().copied().collect();
            for (from, to) in links {
                while let Some((lane, bytes)) = self.links[&(from, to)].front() {
                    idle = false;
                    let m = Move::Frame { from, to, lane: *lane };
                    let lost = lose(&m, bytes);
                    if self.take(m, lost) {
                        break;
                    }
                }
            }
            for reply in std::mem::take(&mut self.replies) {
                let (id, replica, payload) = read_reply(&reply).expect("a reply");
                completed |= self.client.vote(id, replica, payload);
            }
            if idle {
                return completed;
            }
        }
    }

    /// The client issues `payload` to every replica; nothing is applied.
    pub fn issue(&mut self, payload: Vec<u8>) {
        self.client.issue(payload);
        let req = self.client.request().expect("just issued").clone();
        self.send_request(&req);
    }

    /// [`NodeNet::issue`], then [`NodeNet::run`]: whether the request
    /// completed with no timer fired.
    pub fn request(&mut self, payload: Vec<u8>) -> bool {
        self.issue(payload);
        self.run()
    }

    /// Queues `req` on the client's link to every replica, as a client
    /// whose replies nobody counts would send it; nothing is applied.
    pub fn send_request(&mut self, req: &Request) {
        let bytes = req.to_bytes();
        for to in 0..self.n {
            self.links.entry((self.n, to)).or_default().push_back((Lane::ClientReq, bytes.clone()));
        }
    }

    /// Fires, once each, the timers replica `r` armed that `which` picks —
    /// none if it crashed — and applies nothing else; returns how many.
    pub fn fire_timers(&mut self, r: usize, which: impl Fn(&NodeTimer) -> bool) -> usize {
        let (due, rest): (Vec<NodeTimer>, _) =
            std::mem::take(&mut self.timers[r]).into_iter().partition(which);
        self.timers[r] = rest;
        if !self.crashed[r] {
            due.iter().for_each(|timer| self.hand(r, NodeInput::Timer(*timer)));
        }
        due.len()
    }

    /// Hands replica `r` `input`, out of turn.
    pub(crate) fn hand(&mut self, r: usize, input: NodeInput) {
        self.on_node(r, None, |nd, net| nd.on_input(net, input, ()));
    }

    /// Calls replica `r` with the net as its substrate: one step of the
    /// record.
    fn on_node(
        &mut self,
        r: usize,
        applied: Option<Move>,
        f: impl FnOnce(&mut ReplicaNode, &mut Self),
    ) {
        self.record.push(Step { node: r, applied, sent: Vec::new() });
        let mut nodes = std::mem::take(&mut self.nodes);
        self.calling = r;
        f(&mut nodes[r], self);
        self.nodes = nodes;
    }

    /// Every replica's row of the stall report. A crashed replica is
    /// faulty, and so is one the plan has Byzantine.
    pub fn stall(&self) -> Vec<ReplicaStall> {
        let faulty = |r: usize| self.crashed[r] || self.byz[r].is_some();
        let row = |(r, nd): (usize, &ReplicaNode)| ReplicaStall::of(nd, faulty(r), false);
        self.nodes.iter().enumerate().map(row).collect()
    }

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

/// The replica a call is under way at sees the net as its substrate.
impl Substrate for NodeNet {
    type At = ();

    fn send(&mut self, lane: Lane, to: usize, bytes: &[u8], _: ()) -> Option<bool> {
        let from = self.calling;
        let lies = self.byz[from] == Some(ByzantineMode::EquivocateProposals);
        let lie = (lies && lane == Lane::CtbTb { stream: from })
            .then(|| self.keep_lying(from, to, bytes))
            .flatten();
        let frame = lie.unwrap_or_else(|| bytes.to_vec());
        let step = self.record.last_mut().expect("a call under way");
        step.sent.push((lane, to, frame.clone()));
        self.links.entry((from, to)).or_default().push_back((lane, frame));
        Some(true)
    }

    fn arm(&mut self, timer: NodeTimer, _after: Duration, _: ()) {
        self.timers[self.calling].push(timer);
    }

    fn crypto(&mut self, task: CryptoTask, _: ()) {
        let r = self.calling;
        self.completions[r].push_back(task.run(r, &self.ring));
    }

    fn write_and_read_slot(&mut self, stream: usize, slot: usize, k: SeqId, e: RegEntry, _: ()) {
        let r = self.calling;
        let key = (0, stream as u32, r as u32, slot as u32);
        let entries = round_trip(&self.mem, key, k, &e, self.n);
        for done in [CtbDone::Written(k), CtbDone::Read(k, entries)] {
            self.completions[r].push_back(NodeInput::Ctb { stream, done });
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

    /// Runs the job at once: the replies head for the client, the answers
    /// queue with the other completions.
    fn exec(&mut self, job: ExecJob, _: ()) {
        let mut execs = std::mem::take(&mut self.execs);
        execs[self.calling].run(job, self);
        self.execs = execs;
    }

    fn byz_mode(&self, _: ()) -> Option<ByzantineMode> {
        self.byz[self.calling]
    }
}

/// Where the executor of the replica a call is under way at answers.
impl ExecPort<dyn App> for NodeNet {
    fn reply(&mut self, _to: usize, bytes: &[u8]) {
        self.replies.push(bytes.to_vec());
    }

    fn input(&mut self, input: NodeInput) {
        self.completions[self.calling].push_back(input);
    }
}
