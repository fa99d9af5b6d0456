//! A scripted net of whole replicas: `n` `ReplicaNode`s — engine,
//! CTBcast, TBcast frames and the event loop both real backends run — and one
//! client, joined by one FIFO link per `(from, to)` pair. Crypto and
//! register work completes on the spot (its result queued as the input it
//! is; the registers are §6.1's, on in-process memory, as the threaded
//! backend runs them), each replica's `Executor` runs inline, and timers
//! are collected and fired only on request ([`NodeNet::fire_timers`]). No
//! clock, no fabric, no threads.
//!
//! This is `ubft::harness::EngineNet`'s vocabulary one layer up. Every
//! step is a [`Move`] on [`NodeNet::pending`] — the head frame of a link or
//! the head completion of a replica — applied or dropped by index, so the
//! indices replay a run. Any frame may be lost, as the transport may lose
//! one on any lane (`ubft_transport::net`); work a replica started always
//! comes back. A crashed replica's moves are lost, whichever end of them it
//! is. Unlike `EngineNet`, the net interprets no effect: the replica's
//! event loop under test does, and the net sees only what leaves it
//! through its `Substrate`, which forwards every frame as the replica sent
//! it. A Byzantine replica is the driver's doing too (an equivocator's lies
//! included), as in the simulator; the net only loses a silent replica's
//! frames and replies. [`NodeNet::run`] visits the replicas and then the
//! links round-robin, not in emission order; exact counts of a run assume
//! that order.

use std::collections::{BTreeMap, VecDeque};

use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::client::{read_reply, Client};
use ubft_core::msg::Request;
use ubft_crypto::KeyRing;
use ubft_ctb::ctbcast::RegEntry;
use ubft_rdma::InProcMemory;
use ubft_sim::failure::ByzantineMode;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, RequestId, Slot, Time};

use crate::calibration::SimConfig;
use crate::exec::{ExecJob, ExecPort, Executor};
use crate::node::{byzantine_mode, CryptoTask, CtbDone, NodeInput, ReplicaNode, Substrate};
pub use crate::node::{Lane, NodeTimer};
use crate::registers::{Registers, SlotRead};
use crate::stall::ReplicaStall;

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
    /// Every call into a replica, in order, with the frames it sent, its
    /// executor's replies included.
    pub(crate) record: Vec<Step>,
    /// Every slot's job an executor ran, in order: the replica, the slot,
    /// and the requests its `executed` hook heard.
    pub(crate) jobs: Vec<(usize, Slot, Vec<RequestId>)>,
    pub(crate) n: usize,
    ring: KeyRing,
    client: Client,
    /// `links[(from, to)]`: what `from` sent `to`, in order. Ordered, so a
    /// run visits the links in the same order every time.
    links: BTreeMap<(usize, usize), Link>,
    /// Finished crypto, register and executor work, per replica.
    pub(crate) completions: Vec<VecDeque<NodeInput>>,
    /// The memory nodes, each replica's handles on the register banks, and
    /// the round trip a call under way makes on them.
    mem: InProcMemory,
    regs: Vec<Registers>,
    pub(crate) read: SlotRead,
    /// Encoded replies on their way to the client.
    replies: Vec<Vec<u8>>,
    /// Each replica's Byzantine behaviour as of time zero
    /// ([`byzantine_mode`]), which the net answers [`Substrate::byz_mode`]
    /// with. The driver carries out every mode that changes what a replica
    /// says; the net carries out `Silent`, losing the replica's frames and
    /// replies as the simulator does. `Laggard` delays a replica's frames,
    /// and the net has no clock to delay them on: it is the simulator's
    /// alone.
    byz: Vec<Option<ByzantineMode>>,
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
        let mem = InProcMemory::new(cfg.params.n_mem());
        let mut net = NodeNet {
            nodes: (0..n).map(|r| ReplicaNode::new(r, cfg, ring.clone())).collect(),
            execs: (0..n).map(|r| Executor::new(r, cfg, &ring, flip())).collect(),
            crashed: vec![false; n],
            timers: vec![vec![NodeTimer::Retransmit]; n],
            record: Vec::new(),
            jobs: Vec::new(),
            n,
            client: Client::new(ClientId(0), cfg.params.replicas().collect(), cfg.params.quorum()),
            links: BTreeMap::new(),
            completions: (0..n).map(|_| VecDeque::new()).collect(),
            regs: Registers::in_process(&mem, cfg),
            mem,
            read: SlotRead::default(),
            replies: Vec::new(),
            byz: (0..n).map(|r| byzantine_mode(cfg, r, Time::ZERO)).collect(),
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
}

/// The replica a call is under way at sees the net as its substrate.
impl Substrate for NodeNet {
    type At = ();

    /// Queues `bytes` on the link to `to`, unless the sender is silent.
    fn send(&mut self, lane: Lane, to: usize, bytes: &[u8], _: ()) -> Option<bool> {
        let from = self.calling;
        if self.byz[from] == Some(ByzantineMode::Silent) {
            return None;
        }
        let step = self.record.last_mut().expect("a call under way");
        step.sent.push((lane, to, bytes.to_vec()));
        self.links.entry((from, to)).or_default().push_back((lane, bytes.to_vec()));
        Some(true)
    }

    fn arm(&mut self, timer: NodeTimer, _after: Duration, _: ()) {
        self.timers[self.calling].push(timer);
    }

    fn crypto(&mut self, task: CryptoTask, _: ()) {
        let r = self.calling;
        self.completions[r].push_back(task.run(r, &self.ring));
    }

    fn write_and_read_slot(&mut self, stream: usize, slot: usize, e: RegEntry, _: ()) {
        let r = self.calling;
        let inputs = self.read.now(&mut self.regs[r], &self.mem, stream, slot, &e);
        self.completions[r].extend(inputs);
    }

    fn recycle_read(&mut self, entries: Vec<Option<RegEntry>>) {
        self.read.recycle(entries);
    }

    /// Runs the job at once: the replies head for the client, the answers
    /// queue with the other completions.
    fn exec(&mut self, job: ExecJob, _: ()) -> Vec<Request> {
        let mut execs = std::mem::take(&mut self.execs);
        let spare = execs[self.calling].run(job, self);
        self.execs = execs;
        spare
    }

    fn byz_mode(&self, _: ()) -> Option<ByzantineMode> {
        self.byz[self.calling]
    }
}

/// Where the executor of the replica a call is under way at answers.
impl ExecPort<dyn App> for NodeNet {
    /// Sends the reply toward the client, unless the replica is silent.
    fn reply(&mut self, to: usize, bytes: &[u8]) {
        if self.byz[self.calling] == Some(ByzantineMode::Silent) {
            return;
        }
        let step = self.record.last_mut().expect("a call under way");
        step.sent.push((Lane::ClientResp, to, bytes.to_vec()));
        self.replies.push(bytes.to_vec());
    }

    fn dispatch(&mut self, slot: Slot) {
        self.jobs.push((self.calling, slot, Vec::new()));
    }

    fn executed(&mut self, _slot: Slot, id: RequestId, _: &[u8], _: &[u8], _: Duration) {
        self.jobs.last_mut().expect("a job under way").2.push(id);
    }

    fn input(&mut self, input: NodeInput) {
        self.completions[self.calling].push_back(input);
    }
}
