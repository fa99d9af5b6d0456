//! Tail Broadcast (TBcast): best-effort broadcast with finite memory (§4.2).
//!
//! TBcast has all CTBcast properties *except agreement*: tail-validity for
//! the last `2t` messages, integrity, and no duplication. The broadcaster
//! buffers its last `2t` messages and retransmits them until acknowledged;
//! when the buffer is full, broadcasting a new message simply evicts the
//! oldest — which is what keeps memory bounded and is why only the tail is
//! guaranteed.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ubft_types::{ReplicaId, SeqId};

use crate::wire::TbWire;

/// Effects emitted by the TBcast state machines.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TbEffect {
    /// Transmit a frame to one peer (the runtime maps this onto the
    /// circular-buffer channel for this stream).
    SendTo {
        /// Destination replica.
        to: ReplicaId,
        /// The frame.
        wire: TbWire,
    },
    /// Send an acknowledgement to the broadcaster.
    SendAck {
        /// Destination (the broadcaster).
        to: ReplicaId,
        /// Cumulative: every id up to here is delivered or out of the tail.
        upto: SeqId,
    },
    /// Deliver a payload locally.
    Deliver {
        /// The original broadcaster of the stream.
        from: ReplicaId,
        /// Broadcast sequence number.
        k: SeqId,
        /// The payload.
        payload: Vec<u8>,
    },
}

/// The broadcasting side of one TBcast stream.
#[derive(Clone, Debug)]
pub struct TailBroadcaster {
    me: ReplicaId,
    peers: Vec<ReplicaId>,
    capacity: usize,
    next: SeqId,
    /// Last `2t` messages in sequence order: `(k, payload, last_sent_gen)`.
    buffer: VecDeque<(SeqId, Vec<u8>, u64)>,
    /// Highest ack received per peer.
    acked: BTreeMap<ReplicaId, SeqId>,
    /// Retransmission generation: bumped by [`Self::retransmit_stale`].
    gen: u64,
    /// Peers whose last write the transport refused (a crashed or
    /// partitioned host — what a broken RC queue pair reports), each with
    /// the stale ids the last tick held back from it. Such a peer is
    /// probed with one frame per tick instead of the whole stale tail.
    unreachable: BTreeMap<ReplicaId, Vec<SeqId>>,
}

impl TailBroadcaster {
    /// Creates a broadcaster for `me` with the given receivers and a buffer
    /// of `capacity` (`2t` in Algorithm 1).
    pub fn new(me: ReplicaId, peers: Vec<ReplicaId>, capacity: usize) -> Self {
        assert!(capacity >= 1);
        let acked = peers.iter().map(|p| (*p, SeqId(0))).collect();
        TailBroadcaster {
            me,
            peers,
            capacity,
            next: SeqId(1),
            buffer: VecDeque::new(),
            acked,
            gen: 0,
            unreachable: BTreeMap::new(),
        }
    }

    /// The sequence number the next broadcast will use.
    pub fn next_seq(&self) -> SeqId {
        self.next
    }

    /// Broadcasts `payload`: buffers it (evicting the oldest if full), sends
    /// to every peer, and self-delivers.
    pub fn broadcast(&mut self, payload: Vec<u8>) -> (SeqId, Vec<TbEffect>) {
        let k = self.next;
        self.next = self.next.next();
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back((k, payload.clone(), self.gen));
        let mut effects = Vec::with_capacity(self.peers.len() + 1);
        for &p in &self.peers {
            effects.push(TbEffect::SendTo { to: p, wire: TbWire { k, payload: payload.clone() } });
        }
        effects.push(TbEffect::Deliver { from: self.me, k, payload });
        (k, effects)
    }

    /// Records an acknowledgement from `peer`.
    pub fn on_ack(&mut self, peer: ReplicaId, upto: SeqId) {
        if let Some(a) = self.acked.get_mut(&peer) {
            if upto > *a {
                *a = upto;
            }
        }
    }

    /// Retransmits unacknowledged messages that have not been (re)sent for a
    /// full retransmission period. Driven by a periodic runtime timer: a
    /// message is resent only after surviving one complete period without an
    /// acknowledgement, so the common case (prompt delivery, ack in flight)
    /// causes no duplicate traffic.
    ///
    /// A peer the transport reported unreachable
    /// ([`Self::on_send_result`]) gets only the oldest stale frame above its
    /// ack — a probe; the rest of its stale tail is held back until a write
    /// to it is accepted again.
    pub fn retransmit_stale(&mut self) -> Vec<TbEffect> {
        self.gen += 1;
        for held in self.unreachable.values_mut() {
            held.clear();
        }
        let min_unacked = self.acked.values().copied().min().unwrap_or(SeqId(0));
        let mut probed: Vec<ReplicaId> = Vec::new();
        let mut effects = Vec::new();
        for (k, payload, last_gen) in &mut self.buffer {
            if *k <= min_unacked || *last_gen + 1 >= self.gen {
                continue;
            }
            *last_gen = self.gen;
            for &p in &self.peers {
                let acked = self.acked.get(&p).copied().unwrap_or(SeqId(0));
                if *k <= acked {
                    continue;
                }
                if let Some(held) = self.unreachable.get_mut(&p) {
                    if probed.contains(&p) {
                        held.push(*k);
                        continue;
                    }
                    probed.push(p);
                }
                effects.push(TbEffect::SendTo {
                    to: p,
                    wire: TbWire { k: *k, payload: payload.clone() },
                });
            }
        }
        effects
    }

    /// The transport's verdict on a data frame this broadcaster sent to
    /// `peer`: the write was `accepted` onto the wire, or refused because
    /// the host is down or cut off. A refusal makes the peer unreachable;
    /// the first accepted write makes it reachable again and returns the
    /// frames the last [`Self::retransmit_stale`] held back from it, so a
    /// healed link receives its stale tail no later than it would have.
    pub fn on_send_result(&mut self, peer: ReplicaId, accepted: bool) -> Vec<TbEffect> {
        if !accepted {
            self.unreachable.entry(peer).or_default();
            return Vec::new();
        }
        let Some(held) = self.unreachable.remove(&peer) else {
            return Vec::new();
        };
        let acked = self.acked.get(&peer).copied().unwrap_or(SeqId(0));
        self.buffer
            .iter()
            .filter(|(k, _, _)| *k > acked && held.binary_search(k).is_ok())
            .map(|(k, payload, _)| TbEffect::SendTo {
                to: peer,
                wire: TbWire { k: *k, payload: payload.clone() },
            })
            .collect()
    }

    /// Number of buffered (retained) messages.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Bytes retained in the retransmission buffer (memory accounting).
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.iter().map(|(_, p, _)| p.len()).sum()
    }
}

/// The receiving side of one TBcast stream (one per remote broadcaster).
#[derive(Clone, Debug)]
pub struct TailReceiver {
    broadcaster: ReplicaId,
    window: usize,
    /// Highest delivered sequence number.
    hi: SeqId,
    /// What acks carry: the highest id with every id in `(hi - window, id]`
    /// delivered. Acking `hi` itself would tell the broadcaster that a
    /// frame lost *before* a later one arrived needs no retransmission.
    prefix: SeqId,
    /// Recently delivered ids (for no-duplication under retransmission);
    /// pruned below `hi - window`.
    seen: BTreeSet<SeqId>,
    ack_every: u64,
    delivered_since_ack: u64,
}

impl TailReceiver {
    /// Creates a receiver for `broadcaster`'s stream with a dedup window of
    /// `window` (`2t`).
    pub fn new(broadcaster: ReplicaId, window: usize) -> Self {
        TailReceiver {
            broadcaster,
            window,
            hi: SeqId(0),
            prefix: SeqId(0),
            seen: BTreeSet::new(),
            ack_every: 16,
            delivered_since_ack: 0,
        }
    }

    /// Sets how many deliveries happen between acknowledgements.
    #[must_use]
    pub fn with_ack_every(mut self, n: u64) -> Self {
        self.ack_every = n.max(1);
        self
    }

    /// Handles an incoming frame, delivering it exactly once if it is still
    /// within the tail window.
    ///
    /// A duplicate (or out-of-tail) frame is answered with an immediate
    /// cumulative ack: receiving one means the broadcaster believes this
    /// receiver is behind, and the ack is what stops the retransmission.
    pub fn on_wire(&mut self, wire: TbWire) -> Vec<TbEffect> {
        let mut effects = Vec::new();
        let k = wire.k;
        // Out of tail: ids at or below hi - window can never be delivered
        // (no-duplication bookkeeping for them is gone).
        let floor = SeqId(self.hi.0.saturating_sub(self.window as u64));
        if k <= floor || self.seen.contains(&k) {
            effects.push(self.ack_now());
            return effects;
        }
        self.seen.insert(k);
        if k > self.hi {
            self.hi = k;
        }
        // Prune dedup state outside the window; ids at or below the new
        // floor can never be delivered, so the acked prefix covers them.
        let new_floor = SeqId(self.hi.0.saturating_sub(self.window as u64));
        self.seen = self.seen.split_off(&new_floor.next());
        self.prefix = self.prefix.max(new_floor);
        while self.seen.contains(&self.prefix.next()) {
            self.prefix = self.prefix.next();
        }
        effects.push(TbEffect::Deliver { from: self.broadcaster, k, payload: wire.payload });
        self.delivered_since_ack += 1;
        if self.delivered_since_ack >= self.ack_every {
            effects.push(self.ack_now());
        }
        effects
    }

    /// Produces an explicit ack (periodic timer; keeps the broadcaster's
    /// retransmission quiet when traffic is idle).
    pub fn ack_now(&mut self) -> TbEffect {
        self.delivered_since_ack = 0;
        TbEffect::SendAck { to: self.broadcaster, upto: self.prefix }
    }

    /// Highest sequence number delivered so far.
    pub fn high_watermark(&self) -> SeqId {
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(i: u8) -> Vec<u8> {
        vec![i]
    }

    /// `(peer, id)` of every frame `fx` sends.
    fn sends(fx: &[TbEffect]) -> Vec<(u32, u64)> {
        fx.iter()
            .filter_map(|e| match e {
                TbEffect::SendTo { to, wire } => Some((to.0, wire.k.0)),
                _ => None,
            })
            .collect()
    }

    /// What is resent once everything buffered so far has gone a full
    /// period unacknowledged: two ticks.
    fn stale_tail(b: &mut TailBroadcaster) -> Vec<(u32, u64)> {
        assert!(b.retransmit_stale().is_empty());
        sends(&b.retransmit_stale())
    }

    #[test]
    fn broadcast_sends_to_all_and_self_delivers() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1), ReplicaId(2)], 8);
        let (k, fx) = b.broadcast(payload(7));
        assert_eq!(k, SeqId(1));
        let sends = fx.iter().filter(|e| matches!(e, TbEffect::SendTo { .. })).count();
        assert_eq!(sends, 2);
        assert!(fx
            .iter()
            .any(|e| matches!(e, TbEffect::Deliver { from: ReplicaId(0), k: SeqId(1), .. })));
    }

    #[test]
    fn buffer_evicts_oldest_beyond_capacity() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1)], 3);
        for i in 0..5 {
            b.broadcast(payload(i));
        }
        assert_eq!(b.buffered(), 3);
        // Retransmission covers only the last 3 (k=3,4,5).
        assert_eq!(stale_tail(&mut b), vec![(1, 3), (1, 4), (1, 5)]);
    }

    #[test]
    fn acks_suppress_retransmission() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1), ReplicaId(2)], 8);
        for i in 0..4 {
            b.broadcast(payload(i));
        }
        b.on_ack(ReplicaId(1), SeqId(4));
        b.on_ack(ReplicaId(2), SeqId(2));
        // Only peer 2's missing k=3,4 are resent.
        assert_eq!(stale_tail(&mut b), vec![(2, 3), (2, 4)]);
    }

    #[test]
    fn stale_acks_ignored() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1)], 8);
        b.broadcast(payload(0));
        b.on_ack(ReplicaId(1), SeqId(1));
        b.on_ack(ReplicaId(1), SeqId(0)); // stale
        assert!(stale_tail(&mut b).is_empty());
    }

    #[test]
    fn receiver_delivers_once_and_acks_duplicates() {
        let mut r = TailReceiver::new(ReplicaId(0), 8);
        let w = TbWire { k: SeqId(1), payload: payload(1) };
        let fx1 = r.on_wire(w.clone());
        assert_eq!(fx1.iter().filter(|e| matches!(e, TbEffect::Deliver { .. })).count(), 1);
        let fx2 = r.on_wire(w);
        assert!(
            fx2.iter().all(|e| matches!(e, TbEffect::SendAck { .. })),
            "duplicate must not deliver"
        );
        // The duplicate-triggered ack is what silences retransmission.
        assert_eq!(fx2, vec![TbEffect::SendAck { to: ReplicaId(0), upto: SeqId(1) }]);
    }

    #[test]
    fn receiver_tolerates_reordering() {
        let mut r = TailReceiver::new(ReplicaId(0), 8);
        for k in [2u64, 1, 3] {
            let fx = r.on_wire(TbWire { k: SeqId(k), payload: payload(k as u8) });
            assert_eq!(fx.iter().filter(|e| matches!(e, TbEffect::Deliver { .. })).count(), 1);
        }
        assert_eq!(r.high_watermark(), SeqId(3));
    }

    #[test]
    fn receiver_drops_out_of_tail() {
        let mut r = TailReceiver::new(ReplicaId(0), 4);
        assert!(!r.on_wire(TbWire { k: SeqId(100), payload: payload(0) }).is_empty());
        // k=96 is exactly hi - window: too old — acked away, never delivered.
        let fx = r.on_wire(TbWire { k: SeqId(96), payload: payload(0) });
        assert!(fx.iter().all(|e| matches!(e, TbEffect::SendAck { .. })));
        // k=97 is within the window.
        let fx = r.on_wire(TbWire { k: SeqId(97), payload: payload(0) });
        assert!(fx.iter().any(|e| matches!(e, TbEffect::Deliver { .. })));
    }

    #[test]
    fn stale_retransmission_waits_one_full_period() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1)], 8);
        b.broadcast(payload(0));
        // First tick after the broadcast: the message may have been sent
        // moments ago — no duplicate traffic yet.
        assert!(b.retransmit_stale().is_empty());
        // Second tick: a full period elapsed without an ack — resend.
        let fx = b.retransmit_stale();
        assert_eq!(
            fx,
            vec![TbEffect::SendTo {
                to: ReplicaId(1),
                wire: TbWire { k: SeqId(1), payload: payload(0) }
            }]
        );
        // Third tick: it was just resent — quiet again.
        assert!(b.retransmit_stale().is_empty());
        // Fourth: still unacked, resend again.
        assert_eq!(b.retransmit_stale().len(), 1);
    }

    #[test]
    fn stale_retransmission_stops_after_ack() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1), ReplicaId(2)], 8);
        b.broadcast(payload(0));
        b.broadcast(payload(1));
        b.retransmit_stale();
        // Peer 1 acks everything; peer 2 acks only k=1.
        b.on_ack(ReplicaId(1), SeqId(2));
        b.on_ack(ReplicaId(2), SeqId(1));
        let fx = b.retransmit_stale();
        // Only k=2 to peer 2 is still outstanding.
        assert_eq!(
            fx,
            vec![TbEffect::SendTo {
                to: ReplicaId(2),
                wire: TbWire { k: SeqId(2), payload: payload(1) }
            }]
        );
        b.on_ack(ReplicaId(2), SeqId(2));
        assert!(b.retransmit_stale().is_empty());
        assert!(b.retransmit_stale().is_empty());
    }

    #[test]
    fn unreachable_peer_gets_one_probe_per_tick_and_it_is_the_oldest_unacked() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1), ReplicaId(2)], 8);
        for i in 0..4 {
            b.broadcast(payload(i));
        }
        b.on_ack(ReplicaId(1), SeqId(1));
        b.on_ack(ReplicaId(2), SeqId(1));
        // The transport refused a write to peer 2.
        assert!(b.on_send_result(ReplicaId(2), false).is_empty());
        // Peer 1 gets its whole stale tail, peer 2 only k=2.
        assert_eq!(stale_tail(&mut b), vec![(1, 2), (2, 2), (1, 3), (1, 4)]);
        // The probe is refused again: still one frame on the next stale tick.
        assert!(b.on_send_result(ReplicaId(2), false).is_empty());
        let again: Vec<_> = stale_tail(&mut b).into_iter().filter(|s| s.0 == 2).collect();
        assert_eq!(again, vec![(2, 2)]);
    }

    #[test]
    fn accepted_probe_releases_the_held_tail_the_same_tick() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1), ReplicaId(2)], 8);
        for i in 0..4 {
            b.broadcast(payload(i));
        }
        b.on_ack(ReplicaId(1), SeqId(4));
        b.on_send_result(ReplicaId(2), false);
        assert_eq!(stale_tail(&mut b), vec![(2, 1)]);
        // An ack that arrives before the verdict trims the release.
        b.on_ack(ReplicaId(2), SeqId(2));
        assert_eq!(sends(&b.on_send_result(ReplicaId(2), true)), vec![(2, 3), (2, 4)]);
        // Reachable again: nothing more is held, and the next stale tick
        // sends the whole tail as before.
        assert!(b.on_send_result(ReplicaId(2), true).is_empty());
        assert_eq!(stale_tail(&mut b), vec![(2, 3), (2, 4)]);
    }

    #[test]
    fn ack_is_the_delivered_prefix_so_a_hole_is_retransmitted() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1)], 8);
        let mut r = TailReceiver::new(ReplicaId(0), 8);
        for i in 0..6 {
            b.broadcast(payload(i));
        }
        // 3, 4 and 5 are lost to a partition; 6 arrives after it heals.
        for k in [1u64, 2, 6] {
            r.on_wire(TbWire { k: SeqId(k), payload: payload(k as u8) });
        }
        assert_eq!(r.high_watermark(), SeqId(6));
        let TbEffect::SendAck { upto, .. } = r.ack_now() else { panic!("ack_now acks") };
        assert_eq!(upto, SeqId(2));
        b.on_ack(ReplicaId(1), upto);
        let resent = stale_tail(&mut b);
        assert_eq!(resent, vec![(1, 3), (1, 4), (1, 5), (1, 6)]);
        // The hole fills in any order; the ack then covers everything.
        for (_, k) in resent.into_iter().rev() {
            r.on_wire(TbWire { k: SeqId(k), payload: payload(k as u8) });
        }
        assert_eq!(r.ack_now(), TbEffect::SendAck { to: ReplicaId(0), upto: SeqId(6) });
    }

    #[test]
    fn ack_never_waits_for_ids_that_fell_out_of_the_tail() {
        let mut r = TailReceiver::new(ReplicaId(0), 4);
        r.on_wire(TbWire { k: SeqId(1), payload: payload(1) });
        // 2..=9 are lost; 10 moves the window to (6, 10].
        r.on_wire(TbWire { k: SeqId(10), payload: payload(10) });
        assert_eq!(r.ack_now(), TbEffect::SendAck { to: ReplicaId(0), upto: SeqId(6) });
        r.on_wire(TbWire { k: SeqId(7), payload: payload(7) });
        assert_eq!(r.ack_now(), TbEffect::SendAck { to: ReplicaId(0), upto: SeqId(7) });
    }

    #[test]
    fn acks_emitted_periodically() {
        let mut r = TailReceiver::new(ReplicaId(0), 64).with_ack_every(3);
        let mut acks = 0;
        for k in 1..=9u64 {
            let fx = r.on_wire(TbWire { k: SeqId(k), payload: payload(0) });
            acks += fx.iter().filter(|e| matches!(e, TbEffect::SendAck { .. })).count();
        }
        assert_eq!(acks, 3);
        match r.ack_now() {
            TbEffect::SendAck { to, upto } => {
                assert_eq!(to, ReplicaId(0));
                assert_eq!(upto, SeqId(9));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn buffered_bytes_accounting() {
        let mut b = TailBroadcaster::new(ReplicaId(0), vec![ReplicaId(1)], 4);
        b.broadcast(vec![0u8; 100]);
        b.broadcast(vec![0u8; 50]);
        assert_eq!(b.buffered_bytes(), 150);
    }
}
