//! A scripted fabric for one CTBcast stream: `n` [`Ctb`]s of replica 0's
//! stream, in-memory registers, signatures made and checked where they are
//! asked for — and every step a [`CtbMove`] somebody picks. The CTBcast
//! twin of `ubft_core::harness`; see there for why [`CtbNet::run`] is FIFO.

use std::collections::{BTreeSet, VecDeque};

use ubft_crypto::KeyRing;
use ubft_types::{ProcessId, ReplicaId, SeqId};

use crate::ctbcast::{Ctb, CtbConfig, CtbEffect, RegEntry};
use crate::wire::{sign_broadcast, verify_broadcast};

/// One pending step: `effect`, emitted by `from`, acting at `to` — one
/// receiver of a [`CtbEffect::Broadcast`]'s frame, else `from` itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtbMove {
    /// The replica that emitted the effect.
    pub from: usize,
    /// The replica it acts at.
    pub to: usize,
    /// The effect as emitted.
    pub effect: CtbEffect,
}

/// `n` receivers of replica 0's CTBcast stream on a scripted fabric.
pub struct CtbNet {
    /// Replica `r`'s state machine for the stream.
    pub ctbs: Vec<Ctb>,
    /// Everybody's keys.
    pub ring: KeyRing,
    /// `registers[owner][slot]`: the SWMR register bank.
    pub registers: Vec<Vec<Option<RegEntry>>>,
    /// What each replica CTBcast-delivered, in order.
    pub delivered: Vec<Vec<(SeqId, Vec<u8>)>>,
    /// The ids each replica reported an equivocation on.
    pub equivocations: Vec<Vec<SeqId>>,
    /// The moves nobody has applied or dropped yet, in emission order.
    pub pending: VecDeque<CtbMove>,
}

impl CtbNet {
    /// `cfg.n` receivers with empty registers, and a key ring of their own.
    pub fn new(cfg: CtbConfig) -> Self {
        let replicas: Vec<ReplicaId> = (0..cfg.n as u32).map(ReplicaId).collect();
        let ctb = |&me| Ctb::new(me, ReplicaId(0), replicas.clone(), cfg);
        CtbNet {
            ctbs: replicas.iter().map(ctb).collect(),
            ring: KeyRing::generate(5, replicas.iter().map(|&r| ProcessId::Replica(r))),
            registers: vec![vec![None; cfg.tail]; cfg.n],
            delivered: vec![Vec::new(); cfg.n],
            equivocations: vec![Vec::new(); cfg.n],
            pending: VecDeque::new(),
        }
    }

    /// Queues what replica `who` emitted, a broadcast once per receiver.
    pub fn emit(&mut self, who: usize, fx: Vec<CtbEffect>) {
        for effect in fx {
            let all = matches!(effect, CtbEffect::Broadcast(_));
            let to = if all { 0..self.ctbs.len() } else { who..who + 1 };
            self.pending.extend(to.map(|to| CtbMove { from: who, to, effect: effect.clone() }));
        }
    }

    /// Replica 0 broadcasts `m` and the run goes on to quiescence.
    pub fn broadcast(&mut self, m: &[u8]) -> SeqId {
        let (k, fx) = self.ctbs[0].broadcast(m.to_vec());
        self.emit(0, fx);
        self.run();
        k
    }

    /// Carries out pending move `i`: the one place a [`CtbEffect`] is interpreted.
    pub fn apply(&mut self, i: usize) {
        let CtbMove { from, to, effect } = self.drop_move(i);
        let (ctb, ring, stream) = (&mut self.ctbs[to], &self.ring, ReplicaId(0));
        let fx = match effect {
            CtbEffect::Broadcast(wire) => ctb.on_tb_deliver(ReplicaId(from as u32), wire),
            CtbEffect::Sign { k, fp } => ctb.on_sign_done(k, sign_broadcast(ring, stream, k, &fp)),
            CtbEffect::Verify { tag, k, fp, sig } => {
                ctb.on_verify_done(tag, verify_broadcast(ring, stream, k, &fp, &sig))
            }
            CtbEffect::WriteRegister { slot, k, entry } => {
                self.registers[to][slot] = Some(entry);
                ctb.on_register_written(k)
            }
            CtbEffect::ReadSlot { slot, k } => {
                let entries = self.registers.iter().map(|bank| bank[slot].clone()).collect();
                ctb.on_registers_read(k, entries)
            }
            CtbEffect::Deliver { k, payload } => return self.delivered[to].push((k, payload)),
            CtbEffect::Equivocation { k } => return self.equivocations[to].push(k),
            // The fast-path timeout fires when a test feeds `on_slow_timeout`.
            CtbEffect::ArmSlowTimer { .. } => return,
        };
        self.emit(to, fx);
    }

    /// Loses pending move `i`: a frame dropped, a completion that never comes.
    pub fn drop_move(&mut self, i: usize) -> CtbMove {
        self.pending.remove(i).expect("a pending move")
    }

    /// Applies move 0 until nothing is pending.
    pub fn run(&mut self) {
        while !self.pending.is_empty() {
            self.apply(0);
        }
    }

    /// The oldest pending delivery of each pair and local step of each replica.
    pub fn enabled(&self) -> Vec<usize> {
        let mut seen = BTreeSet::new();
        let link = |m: &CtbMove| (m.from, m.to, matches!(m.effect, CtbEffect::Broadcast(_)));
        let oldest = |(_, m): &(usize, &CtbMove)| seen.insert(link(m));
        self.pending.iter().enumerate().filter(oldest).map(|(i, _)| i).collect()
    }
}
