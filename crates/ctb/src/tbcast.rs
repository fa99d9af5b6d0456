//! Tail Broadcast (TBcast): best-effort broadcast with finite memory (§4.2).
//!
//! TBcast has all CTBcast properties *except agreement*: tail-validity for
//! the last `2t` messages, integrity, and no duplication. The broadcaster
//! buffers its last `2t` messages and retransmits them until acknowledged;
//! when the buffer is full, broadcasting a new message simply evicts the
//! oldest — which is what keeps memory bounded and is why only the tail is
//! guaranteed.

use std::collections::{BTreeMap, VecDeque};

use ubft_types::wire::Wire;
use ubft_types::{ReplicaId, SeqId};

use crate::wire::TbWire;

/// The broadcasting side of one TBcast stream.
#[derive(Clone, Debug)]
pub struct TailBroadcaster {
    peers: Vec<ReplicaId>,
    capacity: usize,
    next: SeqId,
    /// Last `2t` frames in sequence order, each with the retransmission
    /// generation it was last sent in.
    buffer: VecDeque<(TbWire, u64)>,
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
    /// Creates a broadcaster with the given receivers and a buffer of
    /// `capacity` (`2t` in Algorithm 1).
    pub fn new(peers: Vec<ReplicaId>, capacity: usize) -> Self {
        assert!(capacity >= 1);
        let acked = peers.iter().map(|p| (*p, SeqId(0))).collect();
        TailBroadcaster {
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

    /// The receivers, in the order a broadcast goes out to them.
    pub fn peers(&self) -> &[ReplicaId] {
        &self.peers
    }

    /// Broadcasts `payload`: encodes its frame once (through `scratch`, see
    /// [`TbWire::encode`]) under the next sequence number and buffers it,
    /// evicting the oldest if full. The caller carries the broadcast out:
    /// it sends the returned frame to every one of [`Self::peers`], then
    /// delivers its payload locally. The buffer and all of those share the
    /// one encoded buffer.
    pub fn broadcast(&mut self, payload: &impl Wire, scratch: &mut Vec<u8>) -> TbWire {
        let wire = TbWire::encode(self.next, payload, scratch);
        self.next = self.next.next();
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back((wire.clone(), self.gen));
        wire
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
    ///
    /// Returns the frames to send, each with its destination; they are
    /// handles on the buffered frames, not copies.
    pub fn retransmit_stale(&mut self) -> Vec<(ReplicaId, TbWire)> {
        self.gen += 1;
        for held in self.unreachable.values_mut() {
            held.clear();
        }
        let min_unacked = self.acked.values().copied().min().unwrap_or(SeqId(0));
        let mut probed: Vec<ReplicaId> = Vec::new();
        let mut sends = Vec::new();
        for (wire, last_gen) in &mut self.buffer {
            let k = wire.k;
            if k <= min_unacked || *last_gen + 1 >= self.gen {
                continue;
            }
            *last_gen = self.gen;
            for &p in &self.peers {
                let acked = self.acked.get(&p).copied().unwrap_or(SeqId(0));
                if k <= acked {
                    continue;
                }
                if let Some(held) = self.unreachable.get_mut(&p) {
                    if probed.contains(&p) {
                        held.push(k);
                        continue;
                    }
                    probed.push(p);
                }
                sends.push((p, wire.clone()));
            }
        }
        sends
    }

    /// The transport's verdict on a data frame this broadcaster sent to
    /// `peer`: the write was `accepted` onto the wire, or refused because
    /// the host is down or cut off. A refusal makes the peer unreachable;
    /// the first accepted write makes it reachable again and returns the
    /// frames the last [`Self::retransmit_stale`] held back from it, so a
    /// healed link receives its stale tail no later than it would have.
    pub fn on_send_result(&mut self, peer: ReplicaId, accepted: bool) -> Vec<(ReplicaId, TbWire)> {
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
            .filter(|(wire, _)| wire.k > acked && held.binary_search(&wire.k).is_ok())
            .map(|(wire, _)| (peer, wire.clone()))
            .collect()
    }

    /// Number of buffered (retained) messages.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Payload bytes retained in the retransmission buffer (memory
    /// accounting; frame headers are not counted).
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.iter().map(|(wire, _)| wire.payload().len()).sum()
    }
}

/// What a [`TailReceiver`] decided about one incoming data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Deliver the frame's payload: first sight of an id still in the tail.
    pub deliver: bool,
    /// Then send the broadcaster this cumulative acknowledgement: every id
    /// up to it is delivered or out of the tail.
    pub ack: Option<SeqId>,
}

/// The receiving side of one TBcast stream (one per remote broadcaster).
#[derive(Clone, Debug)]
pub struct TailReceiver {
    window: usize,
    /// Highest delivered sequence number.
    hi: SeqId,
    /// What acks carry: the highest id with every id in `(hi - window, id]`
    /// delivered. Acking `hi` itself would tell the broadcaster that a
    /// frame lost *before* a later one arrived needs no retransmission.
    prefix: SeqId,
    /// No-duplication bookkeeping for the `window` ids in
    /// `(hi - window, hi]`: `seen[k % window]` is whether `k` was
    /// delivered. Consecutive ids never share an index, and an id's flag is
    /// recycled for `k + window` exactly when `k` falls out of the tail.
    seen: Vec<bool>,
    ack_every: u64,
    delivered_since_ack: u64,
}

impl TailReceiver {
    /// Creates a receiver with a dedup window of `window` (`2t`).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        TailReceiver {
            window,
            hi: SeqId(0),
            prefix: SeqId(0),
            seen: vec![false; window],
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

    fn floor(&self) -> SeqId {
        SeqId(self.hi.0.saturating_sub(self.window as u64))
    }

    fn flag(&mut self, k: SeqId) -> &mut bool {
        &mut self.seen[(k.0 % self.window as u64) as usize]
    }

    /// Handles the data frame with id `k`: it is to be delivered exactly
    /// once if it is still within the tail window.
    ///
    /// A duplicate (or out-of-tail) frame is answered with an immediate
    /// cumulative ack: receiving one means the broadcaster believes this
    /// receiver is behind, and the ack is what stops the retransmission.
    pub fn on_wire(&mut self, k: SeqId) -> Receipt {
        // Out of tail: ids at or below hi - window can never be delivered
        // (no-duplication bookkeeping for them is gone).
        if k <= self.floor() || (k <= self.hi && *self.flag(k)) {
            return Receipt { deliver: false, ack: Some(self.ack_now()) };
        }
        if k > self.hi {
            // The window moves up to `k`: every id it newly covers takes
            // over the flag of the id `window` below it, which just left.
            if k.0 - self.hi.0 >= self.window as u64 {
                self.seen.fill(false);
            } else {
                for skipped in self.hi.0 + 1..k.0 {
                    *self.flag(SeqId(skipped)) = false;
                }
            }
            self.hi = k;
        }
        *self.flag(k) = true;
        // Ids at or below the floor can never be delivered, so the acked
        // prefix covers them.
        self.prefix = self.prefix.max(self.floor());
        while self.prefix < self.hi && *self.flag(self.prefix.next()) {
            self.prefix = self.prefix.next();
        }
        self.delivered_since_ack += 1;
        let ack = (self.delivered_since_ack >= self.ack_every).then(|| self.ack_now());
        Receipt { deliver: true, ack }
    }

    /// The cumulative acknowledgement to send now (also the hook for a
    /// periodic timer, to keep the broadcaster's retransmission quiet when
    /// traffic is idle).
    pub fn ack_now(&mut self) -> SeqId {
        self.delivered_since_ack = 0;
        self.prefix
    }

    /// Highest sequence number delivered so far.
    pub fn high_watermark(&self) -> SeqId {
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;
    use crate::wire::Raw;

    fn payload(i: u8) -> [u8; 1] {
        [i]
    }

    fn broadcast(b: &mut TailBroadcaster, payload: &[u8]) -> TbWire {
        b.broadcast(&Raw(payload), &mut Vec::new())
    }

    fn broadcaster(peers: &[u32], capacity: usize) -> TailBroadcaster {
        TailBroadcaster::new(peers.iter().map(|p| ReplicaId(*p)).collect(), capacity)
    }

    /// `(peer, id)` of every frame in `sends`.
    fn sends(sends: &[(ReplicaId, TbWire)]) -> Vec<(u32, u64)> {
        sends.iter().map(|(to, wire)| (to.0, wire.k.0)).collect()
    }

    /// What is resent once everything buffered so far has gone a full
    /// period unacknowledged: two ticks.
    fn stale_tail(b: &mut TailBroadcaster) -> Vec<(u32, u64)> {
        assert!(b.retransmit_stale().is_empty());
        sends(&b.retransmit_stale())
    }

    const DELIVERED: Receipt = Receipt { deliver: true, ack: None };

    fn duplicate(upto: u64) -> Receipt {
        Receipt { deliver: false, ack: Some(SeqId(upto)) }
    }

    #[test]
    fn broadcast_sends_to_all_and_self_delivers() {
        let mut b = broadcaster(&[1, 2], 8);
        assert_eq!(b.next_seq(), SeqId(1));
        let wire = broadcast(&mut b, &payload(7));
        // The frame goes to both peers and its payload is delivered locally.
        assert_eq!(b.peers(), &[ReplicaId(1), ReplicaId(2)]);
        assert_eq!((wire.k, wire.payload()), (SeqId(1), &payload(7)[..]));
        assert_eq!(b.next_seq(), SeqId(2));
    }

    #[test]
    fn one_broadcast_is_one_buffer() {
        let mut b = broadcaster(&[1, 2], 8);
        let wire = broadcast(&mut b, &payload(7));
        // The caller's handle and the retransmission buffer's.
        assert_eq!(std::sync::Arc::strong_count(wire.frame()), 2);
        // A retransmission hands out the buffered frame, not a copy of it.
        assert!(b.retransmit_stale().is_empty());
        let resent = b.retransmit_stale();
        assert_eq!(sends(&resent), vec![(1, 1), (2, 1)]);
        assert!(resent.iter().all(|(_, w)| std::sync::Arc::ptr_eq(w.frame(), wire.frame())));
    }

    #[test]
    fn buffer_evicts_oldest_beyond_capacity() {
        let mut b = broadcaster(&[1], 3);
        for i in 0..5 {
            broadcast(&mut b, &payload(i));
        }
        assert_eq!(b.buffered(), 3);
        // Retransmission covers only the last 3 (k=3,4,5).
        assert_eq!(stale_tail(&mut b), vec![(1, 3), (1, 4), (1, 5)]);
    }

    #[test]
    fn acks_suppress_retransmission() {
        let mut b = broadcaster(&[1, 2], 8);
        for i in 0..4 {
            broadcast(&mut b, &payload(i));
        }
        b.on_ack(ReplicaId(1), SeqId(4));
        b.on_ack(ReplicaId(2), SeqId(2));
        // Only peer 2's missing k=3,4 are resent.
        assert_eq!(stale_tail(&mut b), vec![(2, 3), (2, 4)]);
    }

    #[test]
    fn stale_acks_ignored() {
        let mut b = broadcaster(&[1], 8);
        broadcast(&mut b, &payload(0));
        b.on_ack(ReplicaId(1), SeqId(1));
        b.on_ack(ReplicaId(1), SeqId(0)); // stale
        assert!(stale_tail(&mut b).is_empty());
    }

    #[test]
    fn receiver_delivers_once_and_acks_duplicates() {
        let mut r = TailReceiver::new(8);
        assert_eq!(r.on_wire(SeqId(1)), DELIVERED);
        // The duplicate-triggered ack is what silences retransmission.
        assert_eq!(r.on_wire(SeqId(1)), duplicate(1), "duplicate must not deliver");
    }

    #[test]
    fn receiver_tolerates_reordering() {
        let mut r = TailReceiver::new(8);
        for k in [2u64, 1, 3] {
            assert_eq!(r.on_wire(SeqId(k)), DELIVERED);
        }
        assert_eq!(r.high_watermark(), SeqId(3));
    }

    #[test]
    fn receiver_drops_out_of_tail() {
        let mut r = TailReceiver::new(4);
        assert!(r.on_wire(SeqId(100)).deliver);
        // k=96 is exactly hi - window: too old — acked away, never delivered.
        assert_eq!(r.on_wire(SeqId(96)), duplicate(96));
        // k=97 is within the window.
        assert_eq!(r.on_wire(SeqId(97)), DELIVERED);
    }

    #[test]
    fn stale_retransmission_waits_one_full_period() {
        let mut b = broadcaster(&[1], 8);
        broadcast(&mut b, &payload(0));
        // First tick after the broadcast: the message may have been sent
        // moments ago — no duplicate traffic yet.
        assert!(b.retransmit_stale().is_empty());
        // Second tick: a full period elapsed without an ack — resend.
        let resent = b.retransmit_stale();
        assert_eq!(sends(&resent), vec![(1, 1)]);
        assert_eq!(resent[0].1.payload(), &payload(0)[..]);
        // Third tick: it was just resent — quiet again.
        assert!(b.retransmit_stale().is_empty());
        // Fourth: still unacked, resend again.
        assert_eq!(b.retransmit_stale().len(), 1);
    }

    #[test]
    fn stale_retransmission_stops_after_ack() {
        let mut b = broadcaster(&[1, 2], 8);
        broadcast(&mut b, &payload(0));
        broadcast(&mut b, &payload(1));
        b.retransmit_stale();
        // Peer 1 acks everything; peer 2 acks only k=1.
        b.on_ack(ReplicaId(1), SeqId(2));
        b.on_ack(ReplicaId(2), SeqId(1));
        // Only k=2 to peer 2 is still outstanding.
        assert_eq!(sends(&b.retransmit_stale()), vec![(2, 2)]);
        b.on_ack(ReplicaId(2), SeqId(2));
        assert!(b.retransmit_stale().is_empty());
        assert!(b.retransmit_stale().is_empty());
    }

    #[test]
    fn unreachable_peer_gets_one_probe_per_tick_and_it_is_the_oldest_unacked() {
        let mut b = broadcaster(&[1, 2], 8);
        for i in 0..4 {
            broadcast(&mut b, &payload(i));
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
        let mut b = broadcaster(&[1, 2], 8);
        for i in 0..4 {
            broadcast(&mut b, &payload(i));
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
        let mut b = broadcaster(&[1], 8);
        let mut r = TailReceiver::new(8);
        for i in 0..6 {
            broadcast(&mut b, &payload(i));
        }
        // 3, 4 and 5 are lost to a partition; 6 arrives after it heals.
        for k in [1u64, 2, 6] {
            r.on_wire(SeqId(k));
        }
        assert_eq!(r.high_watermark(), SeqId(6));
        let upto = r.ack_now();
        assert_eq!(upto, SeqId(2));
        b.on_ack(ReplicaId(1), upto);
        let resent = stale_tail(&mut b);
        assert_eq!(resent, vec![(1, 3), (1, 4), (1, 5), (1, 6)]);
        // The hole fills in any order; the ack then covers everything.
        for (_, k) in resent.into_iter().rev() {
            r.on_wire(SeqId(k));
        }
        assert_eq!(r.ack_now(), SeqId(6));
    }

    #[test]
    fn ack_never_waits_for_ids_that_fell_out_of_the_tail() {
        let mut r = TailReceiver::new(4);
        r.on_wire(SeqId(1));
        // 2..=9 are lost; 10 moves the window to (6, 10].
        r.on_wire(SeqId(10));
        assert_eq!(r.ack_now(), SeqId(6));
        r.on_wire(SeqId(7));
        assert_eq!(r.ack_now(), SeqId(7));
    }

    #[test]
    fn acks_emitted_periodically() {
        let mut r = TailReceiver::new(64).with_ack_every(3);
        let acks: Vec<_> = (1..=9u64).filter_map(|k| r.on_wire(SeqId(k)).ack).collect();
        assert_eq!(acks, vec![SeqId(3), SeqId(6), SeqId(9)]);
        assert_eq!(r.ack_now(), SeqId(9));
    }

    #[test]
    fn buffered_bytes_accounting() {
        let mut b = broadcaster(&[1], 4);
        broadcast(&mut b, &[0u8; 100]);
        broadcast(&mut b, &[0u8; 50]);
        // Payload bytes only: the 13-byte frame headers are not counted.
        assert_eq!(b.buffered_bytes(), 150);
    }

    /// The receiver as it was before its dedup window became a ring: an
    /// ordered set of the delivered ids in the tail, rebuilt on every
    /// frame. Kept as the reference the ring is checked against.
    struct SetReceiver {
        window: usize,
        hi: SeqId,
        prefix: SeqId,
        seen: BTreeSet<SeqId>,
        ack_every: u64,
        delivered_since_ack: u64,
    }

    impl SetReceiver {
        fn new(window: usize, ack_every: u64) -> Self {
            SetReceiver {
                window,
                hi: SeqId(0),
                prefix: SeqId(0),
                seen: BTreeSet::new(),
                ack_every,
                delivered_since_ack: 0,
            }
        }

        fn ack_now(&mut self) -> SeqId {
            self.delivered_since_ack = 0;
            self.prefix
        }

        fn on_wire(&mut self, k: SeqId) -> Receipt {
            let floor = SeqId(self.hi.0.saturating_sub(self.window as u64));
            if k <= floor || self.seen.contains(&k) {
                return Receipt { deliver: false, ack: Some(self.ack_now()) };
            }
            self.seen.insert(k);
            if k > self.hi {
                self.hi = k;
            }
            let new_floor = SeqId(self.hi.0.saturating_sub(self.window as u64));
            self.seen = self.seen.split_off(&new_floor.next());
            self.prefix = self.prefix.max(new_floor);
            while self.seen.contains(&self.prefix.next()) {
                self.prefix = self.prefix.next();
            }
            self.delivered_since_ack += 1;
            let ack = (self.delivered_since_ack >= self.ack_every).then(|| self.ack_now());
            Receipt { deliver: true, ack }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The ring receiver and the set receiver agree on every frame:
        /// same delivery, same ack, same prefix and high-water mark — over
        /// id sequences with duplicates, reordering, jumps far larger than
        /// the window, and ids at and below the floor.
        #[test]
        fn ring_receiver_matches_the_set_model(
            window in (0usize..4),
            ack_every in 1u64..5,
            steps in proptest::collection::vec((0u8..8, 0u64..600), 1..200),
        ) {
            let window = [1usize, 2, 16, 256][window];
            let mut ring = TailReceiver::new(window).with_ack_every(ack_every);
            let mut model = SetReceiver::new(window, ack_every);
            for (kind, x) in steps {
                let (hi, w) = (model.hi.0, window as u64);
                let k = match kind {
                    0 => hi + 1,                                   // in order
                    1 => hi + 1 + x % 4,                           // small gap
                    2 => hi + 1 + x,                               // jump, often past the window
                    3 => hi.saturating_sub(x % (w + 2)),           // around the floor, 0 included
                    4 => hi.saturating_sub(w),                     // exactly the floor
                    5 => hi.saturating_sub(w) + 1,                 // just inside the tail
                    6 => hi,                                       // duplicate of the newest
                    _ => x,                                        // anywhere
                };
                prop_assert_eq!(ring.on_wire(SeqId(k)), model.on_wire(SeqId(k)), "id {}", k);
                prop_assert_eq!((ring.hi, ring.prefix), (model.hi, model.prefix), "after id {}", k);
            }
            prop_assert_eq!(ring.ack_now(), model.ack_now());
        }
    }
}
