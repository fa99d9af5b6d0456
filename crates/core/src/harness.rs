//! A scripted fabric for the engine: `n` [`Engine`]s with an [`App`] each,
//! CTBcast ids in order per stream, crypto jobs completed where they are
//! queued, timers fired on request — and every other step a [`Move`] on
//! [`EngineNet::pending`], applied or dropped by index, so the indices
//! replay a run. A broadcast becomes one delivery per replica *when it is
//! emitted*, which keeps [`EngineNet::run`] (move 0 until none is left) in
//! the order of a FIFO queue of whole effects.

use std::collections::{BTreeSet, VecDeque};

use ubft_crypto::{Digest, KeyRing};
use ubft_types::{ClientId, ProcessId, ReplicaId, RequestId, SeqId, Slot};

use crate::msg::exec_table_digest;
use crate::{App, CryptoJob, CtbMsg, Effect, Engine, EngineConfig, Request, TimerKind};

/// The FIFO a [`Move`] queues on between its two ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Not a message: an effect its replica carries out itself.
    Local,
    /// A CTBcast delivery.
    Ctb,
    /// A consensus TBcast delivery.
    Tb,
    /// A direct message.
    Direct,
}

/// One pending step: `effect`, emitted by `from`, acting at `to`.
#[derive(Clone, Debug)]
pub struct Move {
    /// The replica that emitted the effect.
    pub from: usize,
    /// The replica it acts at: a receiver, or `from` on [`Lane::Local`].
    pub to: usize,
    /// The lane it travels on.
    pub lane: Lane,
    /// The CTBcast id of a [`Lane::Ctb`] delivery; 0 on every other lane.
    pub k: SeqId,
    /// The effect as emitted.
    pub effect: Effect,
}

/// A retained checkpoint: `(base, app digest, app bytes, exec table)`.
pub type Snapshot = (Slot, Digest, Vec<u8>, Vec<(ClientId, u64)>);

/// `n` engines on a scripted fabric.
pub struct EngineNet<A> {
    /// The engines, by replica index.
    pub engines: Vec<Engine>,
    /// Replica `r`'s application.
    pub apps: Vec<A>,
    /// The configuration every engine shares, a replacement included.
    pub cfg: EngineConfig,
    /// Everybody's keys.
    pub ring: KeyRing,
    /// The next CTBcast id of each stream.
    pub ctb_next: Vec<u64>,
    /// Every CTBcast broadcast in emission order: `(stream, message)`.
    pub ctb_log: Vec<(usize, CtbMsg)>,
    /// What each replica executed, in order.
    pub executed: Vec<Vec<(Slot, Request)>>,
    /// The timers each replica armed; [`EngineNet::fire_timers`] fires them.
    pub timers: Vec<Vec<TimerKind>>,
    /// A crashed replica's moves are lost, whichever end of them it is.
    pub crashed: Vec<bool>,
    /// Byzantine detections: `(detector, culprit, reason)`.
    pub brands: Vec<(usize, ReplicaId, String)>,
    /// Each replica's latest snapshot: what a state transfer is served from.
    pub snapshots: Vec<Option<Snapshot>>,
    /// The moves nobody has applied or dropped yet, in emission order.
    pub pending: VecDeque<Move>,
    /// A crypto job this accepts waits on `parked`: no worker got to it.
    pub park: Option<fn(&CryptoJob) -> bool>,
    /// The parked jobs, each with its replica.
    pub parked: Vec<(usize, CryptoJob)>,
}

impl<A: App + Default> EngineNet<A> {
    /// Boots `cfg.params.n()` engines and runs their start-up to quiescence.
    pub fn new(cfg: EngineConfig) -> Self {
        let n = cfg.params.n();
        let ring = KeyRing::generate(5, cfg.params.replicas().map(ProcessId::Replica));
        let engine = |i| Engine::new(ReplicaId(i as u32), cfg.clone(), ring.clone());
        let mut net = EngineNet {
            engines: (0..n).map(engine).collect(),
            apps: (0..n).map(|_| A::default()).collect(),
            ctb_next: vec![1; n],
            ctb_log: Vec::new(),
            executed: vec![Vec::new(); n],
            timers: vec![Vec::new(); n],
            crashed: vec![false; n],
            brands: Vec::new(),
            snapshots: vec![None; n],
            pending: VecDeque::new(),
            park: None,
            parked: Vec::new(),
            cfg,
            ring,
        };
        for r in 0..n {
            let fx = net.engines[r].start();
            net.emit(r, fx);
        }
        net.run();
        net
    }

    /// Queues what one call made engine `who` emit; completes its crypto jobs.
    pub fn emit(&mut self, who: usize, fx: Vec<Effect>) {
        let one = |r: usize| r..r + 1;
        for effect in fx {
            let (lane, to, k) = match &effect {
                Effect::CtbBroadcast(msg) => {
                    self.ctb_log.push((who, msg.clone()));
                    self.ctb_next[who] += 1;
                    (Lane::Ctb, 0..self.engines.len(), self.ctb_next[who] - 1)
                }
                Effect::TbBroadcast(_) => (Lane::Tb, 0..self.engines.len(), 0),
                Effect::SendReplica { to, .. } => (Lane::Direct, one(to.0 as usize), 0),
                // The fabric's only cursor is the stream's id counter, and it
                // moves before the broadcasts emitted behind it take their ids.
                Effect::AdoptStreams { tails } => {
                    let own = tails.iter().filter(|(s, _)| s.0 as usize == who).map(|(_, k)| k.0);
                    self.ctb_next[who] = own.fold(self.ctb_next[who], u64::max);
                    continue;
                }
                _ => (Lane::Local, one(who), 0),
            };
            let step = |to| Move { from: who, to, lane, k: SeqId(k), effect: effect.clone() };
            self.pending.extend(to.map(step));
        }
        for job in self.engines[who].take_crypto_jobs().collect::<Vec<_>>() {
            match self.park {
                Some(park) if park(&job) => self.parked.push((who, job)),
                _ => self.complete(who, &job),
            }
        }
    }

    /// A crypto worker finishes `job` of replica `who`.
    pub fn complete(&mut self, who: usize, job: &CryptoJob) {
        let signer = self.ring.signer(ProcessId::Replica(ReplicaId(who as u32))).unwrap();
        let fx = self.engines[who].on_crypto_done(job.tag, job.run(&signer, &self.ring));
        self.emit(who, fx);
    }

    /// Carries out pending move `i`: the one place an [`Effect`] is interpreted.
    pub fn apply(&mut self, i: usize) {
        let Move { from, to, k, effect, .. } = self.drop_move(i);
        if self.crashed[from] || self.crashed[to] {
            return;
        }
        let sender = ReplicaId(from as u32);
        let fx = match effect {
            Effect::CtbBroadcast(msg) => self.engines[to].on_ctb_deliver(sender, k, msg),
            Effect::TbBroadcast(msg) => self.engines[to].on_tb_deliver(sender, msg),
            Effect::SendReplica { msg, .. } => self.engines[to].on_direct(sender, msg),
            Effect::Execute { slot, req } => {
                self.apps[to].execute(&req.payload);
                return self.executed[to].push((slot, req));
            }
            Effect::RequestSnapshot { base } => {
                let digest = self.apps[to].snapshot_digest();
                let table = self.engines[to].exec_table();
                let exec_digest = exec_table_digest(&table);
                self.snapshots[to] = Some((base, digest, self.apps[to].snapshot_bytes(), table));
                self.engines[to].on_snapshot(base, digest, exec_digest)
            }
            // From a live peer's snapshot, checked against the certified digests.
            Effect::StateTransfer { base, app_digest, exec_digest } => {
                let serves = |s: &Snapshot| s.0 == base && s.1 == app_digest;
                let kept = |r: usize| self.snapshots[r].as_ref().filter(|s| serves(s)).cloned();
                let (_, _, bytes, table) =
                    self.live_replicas().find_map(kept).expect("a live donor snapshot");
                self.apps[to].restore_bytes(&bytes);
                assert_eq!(self.apps[to].snapshot_digest(), app_digest);
                assert_eq!(exec_table_digest(&table), exec_digest);
                self.engines[to].on_exec_table(base, table)
            }
            Effect::ArmTimer { kind } => return self.timers[to].push(kind),
            Effect::ByzantineDetected { replica, reason } => {
                return self.brands.push((to, replica, reason))
            }
            Effect::CheckpointAdopted { .. } | Effect::ViewChanged { .. } => return,
            Effect::AdoptStreams { .. } => unreachable!("carried out when emitted"),
        };
        self.emit(to, fx);
    }

    /// Loses pending move `i`: a message the fabric drops.
    pub fn drop_move(&mut self, i: usize) -> Move {
        self.pending.remove(i).expect("a pending move")
    }

    /// Applies move 0 until nothing is pending.
    pub fn run(&mut self) {
        let mut steps = 0;
        while !self.pending.is_empty() {
            steps += 1;
            assert!(steps < 1_000_000, "effect loop diverged");
            self.apply(0);
        }
    }

    /// The oldest pending move of each `(from, to, lane)`: a FIFO fabric's next steps.
    pub fn enabled(&self) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let oldest = |(_, m): &(usize, &Move)| seen.insert((m.from, m.to, m.lane));
        self.pending.iter().enumerate().filter(oldest).map(|(i, _)| i).collect()
    }

    /// [`Self::client_request_no_drain`], then [`Self::run`].
    pub fn client_request(&mut self, seq: u64, payload: &[u8]) -> RequestId {
        let id = self.client_request_no_drain(seq, payload);
        self.run();
        id
    }

    /// Client 1's request `seq` reaches every live replica; nothing is applied.
    pub fn client_request_no_drain(&mut self, seq: u64, payload: &[u8]) -> RequestId {
        let id = RequestId::new(ClientId(1), seq);
        for r in self.live_replicas().collect::<Vec<_>>() {
            let fx = self.engines[r].on_client_request(Request { id, payload: payload.to_vec() });
            self.emit(r, fx);
        }
        id
    }

    /// Fires the armed timers `filter` accepts, then runs; returns how many.
    pub fn fire_timers(&mut self, filter: impl Fn(&TimerKind) -> bool) -> usize {
        let mut fired = 0;
        for r in 0..self.engines.len() {
            let (fire, keep): (Vec<_>, Vec<_>) = self.timers[r].drain(..).partition(&filter);
            self.timers[r] = keep;
            fired += fire.len();
            for kind in fire {
                let fx = self.engines[r].on_timer(kind);
                self.emit(r, fx);
            }
        }
        self.run();
        fired
    }

    /// Boots a fresh engine and application for crashed replica `v`; runs its join.
    pub fn replace(&mut self, v: usize) {
        assert!(self.crashed[v], "only a crashed replica can be replaced");
        self.crashed[v] = false;
        self.engines[v] = Engine::new(ReplicaId(v as u32), self.cfg.clone(), self.ring.clone());
        self.apps[v] = A::default();
        self.executed[v].clear();
        self.timers[v].clear();
        self.snapshots[v] = None;
        let fx = self.engines[v].begin_join(SeqId(0));
        self.emit(v, fx);
        self.run();
    }

    /// The replicas that are not crashed.
    pub fn live_replicas(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.engines.len()).filter(|r| !self.crashed[*r])
    }

    /// Panics unless every live execution log is a prefix of the longest.
    pub fn assert_executed_prefix_agreement(&self) {
        let logs = || self.live_replicas().map(|r| &self.executed[r]);
        let longest = logs().max_by_key(|log| log.len()).expect("a live replica");
        let fork = |log: &Vec<_>| (0..log.len()).find(|i| log[*i] != longest[*i]);
        assert_eq!(logs().find_map(fork), None, "execution logs diverged at this index");
    }
}
