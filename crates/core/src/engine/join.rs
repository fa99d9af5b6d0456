//! Replacement & join (uBFT extended version, §replacement): a fresh
//! process takes over a crashed replica's identity, learns the group's
//! coordinates from `f + 1` peers and goes live. No listing of the paper
//! covers it line by line; the rule throughout is that an ack can steer
//! liveness but every checkpoint and decision adopted from one is verified
//! against its own `f + 1` certificate.

use std::collections::BTreeMap;

use ubft_types::{ReplicaId, SeqId, Slot, View};

use super::view_change::highest_view_per_slot;
use super::{DecisionEvidence, Effect, Engine, TimerKind};
use crate::msg::{CheckpointCert, CommitCert, CtbMsg, DirectMsg, JoinStream};

/// One peer's [`DirectMsg::JoinAck`], parked until `f + 1` acks arrive.
#[derive(Clone, Debug)]
struct JoinAckData {
    view: View,
    streams: Vec<JoinStream>,
    commits: Vec<(Slot, CommitCert)>,
}

/// A replacement node's in-progress join: the register-bank floor it
/// recovered for its own stream, and the acks collected so far.
#[derive(Clone, Debug)]
pub(super) struct JoinState {
    reg_floor: SeqId,
    acks: BTreeMap<ReplicaId, JoinAckData>,
}

impl Engine {
    /// Most decided slots a [`DirectMsg::JoinAck`] replays; older gaps are
    /// healed by the next checkpoint's state transfer, exactly like
    /// [`StateSummary`](crate::msg::StateSummary)'s bounded commit list
    /// heals CTBcast gaps.
    const JOIN_COMMIT_CAP: usize = 4;

    /// Starts this engine's life as a *replacement node*: a fresh process
    /// taking over a crashed replica's identity. Call instead of
    /// [`Engine::start`]. `reg_floor` is the highest own-stream CTBcast id
    /// the runtime recovered from the SWMR register bank on the memory
    /// nodes (the slow-path high-water mark; [`SeqId`]`(0)` if the bank is
    /// empty). The engine announces itself to every peer and completes the
    /// join once `f + 1` [`DirectMsg::JoinAck`]s arrived — no single
    /// replica is trusted: adopted checkpoints and replayed decisions are
    /// verified against their own `f + 1` certificates, and the remaining
    /// fields only steer liveness, which CTBcast summaries repair anyway.
    pub fn begin_join(&mut self, reg_floor: SeqId) -> Vec<Effect> {
        assert!(self.join.is_none(), "join already in progress");
        self.join = Some(JoinState { reg_floor, acks: BTreeMap::new() });
        self.armed_marker = self.decide_count;
        self.out.push(Effect::ArmTimer { kind: TimerKind::Progress });
        self.announce_join();
        std::mem::take(&mut self.out)
    }

    /// Sends [`DirectMsg::Join`] to every peer that has not acked yet.
    fn announce_join(&mut self) {
        let join = self.join.as_ref().expect("join in progress");
        let reg_floor = join.reg_floor;
        for peer in self.cfg.params.replicas().filter(|r| *r != self.me) {
            if !join.acks.contains_key(&peer) {
                self.out.push(Effect::SendReplica { to: peer, msg: DirectMsg::Join { reg_floor } });
            }
        }
    }

    /// The progress watchdog fired during the join. A half-initialized
    /// replacement must not seal views; its acks are in flight, and peers
    /// make progress without it. It must however *re-announce* itself to
    /// peers that have not acked: the original Join is a one-shot direct
    /// message, so a partition that eats it would otherwise stall the join
    /// forever (a liveness hole the chaos explorer found — a replacement
    /// booting inside a partition never went live, and a later crash of
    /// another replica then stalled the group).
    pub(super) fn join_progress_timeout(&mut self) {
        self.announce_join();
        self.out.push(Effect::ArmTimer { kind: TimerKind::Progress });
    }

    /// A replacement node announced itself: answer with our protocol
    /// coordinates (any replica may serve; the joiner cross-checks).
    pub fn on_join(&mut self, from: ReplicaId) -> Vec<Effect> {
        self.suspected.remove(&from);
        if from == self.me || self.join.is_some() {
            return std::mem::take(&mut self.out);
        }
        // Our own stream is reported as *emitted*, not as self-delivered
        // (self-delivery lags emission while an effect batch waits for its
        // crypto): the next id we will send, and the checkpoint announced
        // below it. An ack whose `fifo_next` covers a CHECKPOINT that its
        // `checkpoint` misses would make the joiner brand our next
        // proposal out-of-window.
        let own_cp_emitted = !self.queued_ctb.iter().any(|m| matches!(m, CtbMsg::Checkpoint(_)));
        let streams: Vec<JoinStream> = self
            .state
            .iter()
            .map(|(stream, ps)| {
                let own = *stream == self.me;
                let cp = if own && own_cp_emitted { &self.checkpoint } else { &ps.checkpoint };
                JoinStream {
                    stream: *stream,
                    fifo_next: if own { SeqId(self.my_ctb_sent + 1) } else { ps.fifo_next },
                    view: if own { self.view } else { ps.view },
                    next_free: if own {
                        self.next_slot
                    } else {
                        ps.prepares.keys().max().map_or(Slot(0), |s| s.next())
                    },
                    checkpoint: (cp.data.base > Slot(0)).then(|| cp.clone()),
                }
            })
            .collect();
        // Most recent decided slots at or above our stable base, with the
        // certificate that proves each decision.
        let base = self.checkpoint.data.base;
        let known = self.state.values().flat_map(|ps| ps.commits.range(base..));
        let merged = highest_view_per_slot(known.map(|(slot, c)| (*slot, c)));
        let skip = merged.len().saturating_sub(Self::JOIN_COMMIT_CAP);
        let commits = merged.into_iter().skip(skip).map(|(slot, c)| (slot, c.clone())).collect();
        let msg = DirectMsg::JoinAck { view: self.view, streams, commits };
        self.out.push(Effect::SendReplica { to: from, msg });
        std::mem::take(&mut self.out)
    }

    /// A peer answered our [`DirectMsg::Join`].
    pub fn on_join_ack(
        &mut self,
        from: ReplicaId,
        view: View,
        streams: Vec<JoinStream>,
        commits: Vec<(Slot, CommitCert)>,
    ) -> Vec<Effect> {
        let Some(join) = self.join.as_mut().filter(|_| from != self.me) else {
            return std::mem::take(&mut self.out);
        };
        join.acks.insert(from, JoinAckData { view, streams, commits });
        if join.acks.len() >= self.cfg.params.quorum() {
            self.complete_join();
        }
        std::mem::take(&mut self.out)
    }

    /// `f + 1` acks arrived: adopt the group's coordinates and go live.
    fn complete_join(&mut self) {
        let join = self.join.take().expect("join in progress");

        // Liveness fields: per-field maximum over the acks. A lie can only
        // delay us (summaries fill FIFO gaps; view changes correct views);
        // it can never decide anything — that still takes certificates.
        let view = join.acks.values().map(|a| a.view).max().unwrap_or(View(0)).max(self.view);
        let mut best_cp: Option<CheckpointCert> = None;
        let mut tails: Vec<(ReplicaId, SeqId)> = Vec::new();
        for stream in self.cfg.params.replicas().collect::<Vec<_>>() {
            let mut fifo = SeqId(1);
            let mut sview = View(0);
            let mut cp: Option<CheckpointCert> = None;
            for ack in join.acks.values() {
                let Some(js) = ack.streams.iter().find(|s| s.stream == stream) else {
                    continue;
                };
                fifo = fifo.max(js.fifo_next);
                sview = sview.max(js.view);
                if stream == self.me {
                    // Resume proposing past everything our predecessor
                    // prepared: a second PREPARE for one of its slots in
                    // the same view reads as equivocation and brands us.
                    self.next_slot = self.next_slot.max(js.next_free);
                }
                if let Some(c) = &js.checkpoint {
                    if cp.as_ref().is_none_or(|old| c.supersedes(old)) {
                        cp = Some(c.clone());
                    }
                }
            }
            // Adopted stream checkpoints gate validity checks (window
            // membership), so verify their certificates before trusting
            // (once per distinct checkpoint data).
            let cp = cp.filter(|c| {
                self.verified_cp_data.contains(&c.data)
                    || self.verify_cert(&c.cert.clone(), &c.data.sign_bytes(), self.quorum())
            });
            if let Some(c) = &cp {
                self.verified_cp_data.insert(c.data);
            }
            if stream == self.me {
                // Our own broadcast cursor: past everything any peer
                // interpreted AND everything the register bank witnessed.
                fifo = fifo.max(join.reg_floor.next());
                self.my_ctb_sent = fifo.0 - 1;
                self.summary_done_upto = self.my_ctb_sent;
                self.seal_emitted = view;
                self.cp_broadcast_base =
                    cp.as_ref().map_or(Slot(0), |c| c.data.base).max(self.cp_broadcast_base);
            }
            let n = self.cfg.params.n();
            let ps = self.state.get_mut(&stream).expect("known replica");
            if fifo > ps.fifo_next {
                ps.fifo_next = fifo;
                ps.parked = None;
            }
            ps.view = ps.view.max(sview);
            // The NEW_VIEW that installed an already-established view was
            // broadcast before we existed and is out of the tail. Accept
            // the established leader's proposals without it: the joiner
            // cannot re-check Algorithm 3's re-proposal constraints, but
            // it also cannot decide anything alone — every decision still
            // takes a quorum of replicas that did check them.
            if ps.view > View(0) && stream == ps.view.leader(n) && ps.new_view.is_none() {
                ps.new_view = Some(Vec::new());
            }
            let floor = ps.fifo_next;
            ps.pending.retain(|k, _| *k >= floor);
            if let Some(c) = cp {
                if c.supersedes(&ps.checkpoint) {
                    ps.checkpoint = c.clone();
                }
                if best_cp.as_ref().is_none_or(|old| c.supersedes(old)) {
                    best_cp = Some(c);
                }
            }
            tails.push((stream, floor));
        }
        self.view = view;
        self.sealing = None;

        // Transport adoption must precede any broadcast the steps below
        // may emit (the runtime moves its CTBcast cursors on this effect).
        self.out.push(Effect::AdoptStreams { tails });

        // Adopt the best certified checkpoint; lagging `exec_next` makes
        // `adopt_checkpoint` request the snapshot transfer.
        if let Some(cp) = best_cp {
            self.adopt_checkpoint(cp);
        }

        // Replay decided-but-unexecuted slots the acks prove (each
        // certificate is verified before the decision is honoured).
        let acked = join.acks.values().flat_map(|ack| &ack.commits);
        for (slot, c) in highest_view_per_slot(acked.map(|(slot, c)| (*slot, c))) {
            if slot < self.checkpoint.data.base
                || self.slots.get(&slot).is_some_and(|s| s.decided.is_some())
            {
                continue;
            }
            if !self.verify_cert(&c.cert.clone(), &c.prepare.certify_bytes(), self.quorum()) {
                continue;
            }
            let entry = self.slots.entry(slot).or_default();
            if entry.prepare.is_none() {
                entry.prepare = Some(c.prepare.clone());
            }
            entry.commit_from.insert(c.prepare.view.leader(self.cfg.params.n()));
            let shares = c.cert.count();
            let batch = c.prepare.batch.clone();
            self.decide(slot, batch, DecisionEvidence::JoinReplay { shares });
        }

        // Go live: flush whatever queued during the join and interpret any
        // stream messages that arrived ahead of the adopted positions.
        self.flush_ctb_queue();
        for stream in self.cfg.params.replicas().collect::<Vec<_>>() {
            if stream != self.me {
                self.drain_pending(stream);
            }
        }
    }
}
