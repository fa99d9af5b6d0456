//! Consistent Tail Broadcast — Algorithm 1 as a sans-IO state machine.
//!
//! One [`Ctb`] instance is *one replica's view of one broadcaster's stream*:
//! replica `me` participating in the stream whose designated broadcaster is
//! `stream`. All `n` replicas (including the broadcaster) act as receivers.
//!
//! Signature verification and register access are asynchronous in the real
//! system (thread pool, RDMA), so the slow path is staged: `SIGNED` arrives →
//! verify → check/set lock → write own SWMR register slot *and* read
//! everyone's slot, in one batch → (verify any conflicting entries) →
//! deliver, once the write has completed too. Each stage is resumed through
//! an `on_*` input carrying the results the runtime collected.
//!
//! The write and the read leave together — one round trip, not two: the
//! runtime's substrate serves the pair as one call, which posts the read
//! behind the write on every memory node's queue pair, counting only the
//! nodes that took the write. A read on a queue pair executes only once
//! the writes posted before it there have landed, so any two receivers'
//! answering majorities share a node where one's write has landed before
//! the other's read arrives, and at least one of them reads the other's
//! entry: the guarantee two sequential round trips gave.

use std::sync::Arc;

use ubft_crypto::{Digest, Signature};
use ubft_types::outbox::SPARES;
use ubft_types::wire::Wire;
use ubft_types::{Deadline, FixedMap, FixedState, Outbox, ReplicaId, SeqId, Sweep};

use crate::wire::{fingerprint, CtbWire, CtbWireRef};

/// When the broadcaster emits the slow-path `SIGNED` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowMode {
    /// Sign and send immediately alongside the fast path (Algorithm 1's
    /// pedagogical presentation).
    Always,
    /// Only once the fast path has not delivered for a timeout (the
    /// deployed configuration, §4.2): the broadcaster's sweep
    /// ([`Ctb::sweep`]) signs what has waited that long.
    OnTimeout,
    /// Never (fast-path-only experiments).
    Never,
}

/// Static configuration of a CTBcast stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CtbConfig {
    /// Number of replicas participating as receivers (`2f + 1`).
    pub n: usize,
    /// The tail parameter `t`.
    pub tail: usize,
    /// Whether the signature-less fast path runs.
    pub fast_enabled: bool,
    /// Slow-path triggering policy.
    pub slow: SlowMode,
}

impl CtbConfig {
    /// The paper's deployed configuration for `n` replicas and tail `t`:
    /// fast path on, slow path on timeout.
    pub fn deployed(n: usize, tail: usize) -> Self {
        CtbConfig { n, tail, fast_enabled: true, slow: SlowMode::OnTimeout }
    }
}

/// What one receiver's SWMR register slot holds: the message id, its
/// fingerprint, and the broadcaster's signature binding them (§7.6 stores
/// id + fingerprint; the signature makes entries self-certifying so
/// Byzantine *receivers* cannot poison delivery).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegEntry {
    /// Message identifier (doubles as the register timestamp).
    pub k: SeqId,
    /// Fingerprint of the message body.
    pub fp: Digest,
    /// Broadcaster's signature over `(stream, k, fp)`.
    pub sig: Signature,
}

impl RegEntry {
    /// Encoded size of one entry in bytes — what a SWMR register slot must
    /// hold. Computed from the wire encoding itself (id + fingerprint +
    /// signature are all fixed-size), so register sizing can never drift
    /// from the codec.
    pub fn encoded_size() -> usize {
        RegEntry { k: SeqId(0), fp: Digest::from_bytes([0; 32]), sig: Signature::garbage() }
            .encoded_len()
    }
}

ubft_types::wire!(RegEntry { k, fp, sig });

/// Correlates an asynchronous signature verification with the state machine
/// stage that requested it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyTag {
    /// Verifying a `SIGNED` message for id `k`.
    Signed {
        /// Message id.
        k: SeqId,
    },
    /// Verifying a conflicting register entry, found while slow-delivering
    /// id `k`.
    Entry {
        /// The id being delivered.
        k: SeqId,
        /// What the entry conflicts on: same id with a different message
        /// (equivocation, line 33) or a newer id aliasing the same slot
        /// (out of tail, line 35).
        kind: ConflictKind,
    },
}

/// How a register entry conflicts with a pending slow-path delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictKind {
    /// Same `k`, different fingerprint: the broadcaster equivocated.
    SameId,
    /// Higher `k` on the same ring slot: our message fell out of the tail.
    NewerId,
}

/// Effects emitted by [`Ctb`], to be executed by the runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtbEffect {
    /// TBcast-broadcast this frame on the stream (the runtime routes it
    /// through this replica's [`crate::TailBroadcaster`], whose self-delivery
    /// feeds back into [`Ctb::on_wire`]).
    Broadcast(CtbWire),
    /// Request an asynchronous signature over
    /// [`crate::wire::signed_bytes`]`(stream, k, fp)` (broadcaster only).
    Sign {
        /// Message id.
        k: SeqId,
        /// Message fingerprint.
        fp: Digest,
    },
    /// Request an asynchronous verification of the stream broadcaster's
    /// signature over `(stream, k, fp)`.
    Verify {
        /// Correlation tag.
        tag: VerifyTag,
        /// Claimed message id.
        k: SeqId,
        /// Claimed fingerprint.
        fp: Digest,
        /// The signature to check.
        sig: Signature,
    },
    /// Write `entry` to this replica's own SWMR register slot for the
    /// stream, using `k` as the register timestamp. Always emitted right
    /// before the [`CtbEffect::ReadSlot`] of the same slot and id; the
    /// substrate serves the pair as one call, the read behind the write.
    WriteRegister {
        /// Ring slot (`k % t`).
        slot: usize,
        /// Message id / register timestamp.
        k: SeqId,
        /// The entry to store.
        entry: RegEntry,
    },
    /// Read every receiver's register for `slot` (quorum-replicated read),
    /// behind the [`CtbEffect::WriteRegister`] just before it on every
    /// memory node's queue pair, from the memory nodes that took that write:
    /// the substrate serves the two as one call.
    ReadSlot {
        /// Ring slot.
        slot: usize,
        /// The id whose delivery is pending on this read.
        k: SeqId,
    },
    /// CTBcast-deliver `(k, payload)` from this stream.
    Deliver {
        /// Message id.
        k: SeqId,
        /// Message body: the buffer the payload cache holds it in.
        payload: Arc<[u8]>,
    },
    /// Proof was found that the broadcaster equivocated on `k`; the layer
    /// above must stop interpreting this stream (Algorithm 2, line 1).
    Equivocation {
        /// The id with conflicting signed messages.
        k: SeqId,
    },
    /// Ask the runtime to arm the fast path's sweep, one timer for all own
    /// broadcasts, which calls [`Ctb::sweep`] one period later
    /// (broadcaster only, [`SlowMode::OnTimeout`]). Emitted only while no
    /// sweep is armed.
    ArmSlowTimer,
}

#[derive(Clone, Debug)]
struct SlowPending {
    k: SeqId,
    fp: Digest,
    sig: Signature,
    stage: SlowStage,
    /// The register write has completed at a quorum.
    written: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlowStage {
    VerifyingSig,
    /// The register write and the slot read are in flight together.
    Reading,
    /// The read found conflicting entries; `outstanding` of their
    /// signature checks are still out (a count of receivers: 32 bits keep
    /// the stage in 8 bytes).
    VerifyingEntries {
        outstanding: u32,
        /// A same-id conflicting entry verified: the broadcaster
        /// equivocated.
        equivocated: bool,
        /// A newer-id entry verified: `k` fell out of the tail; drop
        /// silently.
        out_of_tail: bool,
    },
    /// Nothing read stands in the way; the write's completion is due.
    AwaitingWrite,
}

/// What the broadcaster keeps about one of its own broadcasts.
#[derive(Clone, Copy, Debug)]
struct OwnBroadcast {
    fp: Digest,
    sign: SignState,
    /// How long it has waited for its fast path, in firings of
    /// [`Ctb::sweep`] ([`SlowMode::OnTimeout`] only).
    fast_wait: Deadline,
}

/// How far the slow path's signature of an own broadcast has got.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SignState {
    NotAsked,
    Asked,
    /// What the signer returned.
    Done(Signature),
}

/// One replica's state machine for one CTBcast stream (Algorithm 1).
#[derive(Clone, Debug)]
pub struct Ctb {
    me: ReplicaId,
    stream: ReplicaId,
    cfg: CtbConfig,
    replicas: Vec<ReplicaId>,
    /// Broadcaster only: next id to assign.
    next_k: SeqId,
    /// Broadcaster only: own recent broadcasts, pruned to the last `2t`
    /// together with `payloads` — which holds the bodies, for `SIGNED`
    /// emission after async signing.
    my_broadcasts: FixedMap<u64, OwnBroadcast>,
    /// Broadcaster only: the one signature asked for ahead of its
    /// broadcast ([`Ctb::sign_ahead`]), with the id it is for.
    ahead: Option<(SeqId, OwnBroadcast)>,
    /// `locks` array (line 9): per ring slot, the `(k, fp)` this replica is
    /// committed to.
    locks: Vec<Option<(SeqId, Digest)>>,
    /// `locked` array (line 10): per receiver, per ring slot.
    locked: Vec<Vec<Option<(SeqId, Digest)>>>,
    /// `delivered` array (line 8).
    delivered: Vec<Option<SeqId>>,
    /// Payload cache keyed by `(k, fp)`: the bodies a lock, a `LOCKED`, a
    /// pending slow delivery or an own broadcast named, pruned to the tail
    /// window. A delivery hands out the cached buffer itself.
    payloads: FixedMap<(u64, Digest), Arc<[u8]>>,
    /// Highest id seen on the stream (drives cache pruning).
    max_seen: SeqId,
    /// In-flight slow-path deliveries, keyed by ring slot.
    slow: FixedMap<usize, SlowPending>,
    /// Broadcaster only: the fast path's sweep ([`Ctb::sweep`]).
    fast_sweep: Sweep,
    /// Effects of the input being handled, in emission order; every public
    /// input hands them over on return ([`Ctb::take_out`]), and the vectors
    /// a driver hands back ([`Ctb::recycle`]) hold the next ones.
    out: Outbox<CtbEffect>,
    /// Bodies of broadcast messages the driver has sent and handed back
    /// ([`Ctb::recycle_body`]), emptied: a `LOCKED` echo, a `SIGNED`
    /// message or the driver's next broadcast ([`Ctb::encode_body`]) is
    /// built in one of them.
    bodies: Vec<Vec<u8>>,
}

impl Ctb {
    /// Creates the state machine for replica `me` on `stream`'s CTBcast,
    /// with receivers `replicas` (must have length `cfg.n` and contain both
    /// `me` and `stream`).
    pub fn new(me: ReplicaId, stream: ReplicaId, replicas: Vec<ReplicaId>, cfg: CtbConfig) -> Self {
        assert_eq!(replicas.len(), cfg.n);
        assert!(replicas.contains(&me) && replicas.contains(&stream));
        assert!(cfg.tail >= 2);
        // One hash function per instance, the same in every run
        // (`ubft_types::hash`). Per instance, because the receivers of a
        // stream all hold the same `(k, fp)`s: under one shared function
        // their tables would regrow in lockstep, and a seed would cost
        // either none or all of those allocations. Not secret: each map is
        // pruned to `2t` entries or fewer, so a broadcaster that picked
        // colliding ids would gain nothing.
        let hash_state = FixedState::keyed(u64::from(me.0) << 32 | u64::from(stream.0));
        Ctb {
            me,
            stream,
            cfg,
            replicas,
            next_k: SeqId(1),
            my_broadcasts: FixedMap::with_hasher(hash_state),
            ahead: None,
            locks: vec![None; cfg.tail],
            locked: vec![vec![None; cfg.tail]; cfg.n],
            delivered: vec![None; cfg.tail],
            payloads: FixedMap::with_hasher(hash_state),
            max_seen: SeqId(0),
            slow: FixedMap::with_hasher(hash_state),
            fast_sweep: Sweep::default(),
            out: Outbox::new(),
            bodies: Vec::new(),
        }
    }

    /// The stream's designated broadcaster.
    pub fn stream(&self) -> ReplicaId {
        self.stream
    }

    /// Adopts the stream's tail at an arbitrary sequence offset: the next
    /// id to originate (broadcaster) or interpret (receiver) becomes
    /// `next`, and everything below it is treated as already handled.
    ///
    /// This is the replacement node's transport-level catch-up (uBFT
    /// extended version, §replacement): a fresh instance that learned the
    /// stream's position — from the SWMR register bank and `f + 1` join
    /// acks — moves its cursors forward so (a) a rebooted broadcaster
    /// never reuses an id peers already interpreted, and (b) a rebooted
    /// receiver never delivers a stale retransmission from before its
    /// adoption point. `next` need not align with the ring (`next % t`
    /// can be anything): each ring slot's delivery floor becomes the
    /// nearest id below `next` that maps to it, so a mid-wraparound
    /// adoption refuses exactly the ids `< next` and nothing else.
    ///
    /// Cursors never move backwards; adopting at or below the current
    /// position is a no-op.
    pub fn adopt_tail(&mut self, next: SeqId) {
        if next > self.next_k {
            self.next_k = next;
        }
        self.saw(SeqId(next.0.saturating_sub(1)));
        // Per-ring-slot delivery floors: the highest id below `next` that
        // aliases each slot.
        for back in 1..=self.cfg.tail as u64 {
            let Some(id) = next.0.checked_sub(back).filter(|id| *id >= 1) else { break };
            let id = SeqId(id);
            let slot = self.slot(id);
            if self.delivered[slot].is_none_or(|d| id > d) {
                self.delivered[slot] = Some(id);
            }
        }
        // Any in-flight slow delivery below the adoption point is moot.
        let keep = next;
        self.slow.retain(|_, p| p.k >= keep);
    }

    /// The id the next [`Ctb::broadcast`] will use.
    pub fn next_seq(&self) -> SeqId {
        self.next_k
    }

    /// Highest id this replica has delivered on any slot (diagnostics).
    pub fn max_delivered(&self) -> SeqId {
        self.delivered.iter().flatten().copied().max().unwrap_or(SeqId(0))
    }

    fn index_of(&self, r: ReplicaId) -> Option<usize> {
        self.replicas.iter().position(|x| *x == r)
    }

    fn slot(&self, k: SeqId) -> usize {
        k.ring_index(self.cfg.tail)
    }

    /// Broadcaster only: the body of own broadcast `k`, while in the tail.
    fn my_broadcast_body(&self, k: SeqId) -> Option<&Arc<[u8]>> {
        let own = self.my_broadcasts.get(&k.0)?;
        self.payloads.get(&(k.0, own.fp))
    }

    /// `k` is on the stream: if no higher id was seen, whatever is `2t` or
    /// more below it goes.
    fn saw(&mut self, k: SeqId) {
        if k <= self.max_seen {
            return;
        }
        self.max_seen = k;
        let floor = k.0.saturating_sub(2 * self.cfg.tail as u64);
        self.payloads.retain(|(pk, _), _| *pk > floor);
        self.my_broadcasts.retain(|pk, _| *pk > floor);
    }

    /// Keeps `m`, the body of `(k, fp)`, for a delivery that may need it.
    /// Besides an own broadcast, only a frame that moved a lock, a
    /// `LOCKED` or the slot's pending slow delivery to `(k, fp)` caches its
    /// body: a Byzantine sender picks a fresh transport sequence number for
    /// every frame, so caching any other would let it grow the cache
    /// without bound.
    fn cache_payload(&mut self, k: SeqId, fp: Digest, m: &[u8]) {
        self.payloads.entry((k.0, fp)).or_insert_with(|| Arc::from(m));
    }

    /// A copy of `m` to broadcast, in a body handed back earlier if one
    /// waits.
    fn body(&mut self, m: &[u8]) -> Vec<u8> {
        let mut body = self.bodies.pop().unwrap_or_default();
        body.extend_from_slice(m);
        body
    }

    /// `msg` encoded, in a body handed back earlier if one waits: the body
    /// a driver passes to [`Ctb::broadcast`] or [`Ctb::sign_ahead`].
    pub fn encode_body(&mut self, msg: &impl Wire) -> Vec<u8> {
        let mut body = self.bodies.pop().unwrap_or_default();
        body.reserve(msg.encoded_len());
        msg.encode(&mut body);
        body
    }

    /// Drops the pending slow delivery on `slot`. Its body goes with it
    /// unless a lock, a `LOCKED` or an own broadcast still names it.
    fn drop_pending(&mut self, slot: usize) {
        let Some(p) = self.slow.remove(&slot) else { return };
        let named = Some((p.k, p.fp));
        let own = self.my_broadcasts.get(&p.k.0).is_some_and(|own| own.fp == p.fp);
        if !own && self.locks[slot] != named && self.locked.iter().all(|row| row[slot] != named) {
            self.payloads.remove(&(p.k.0, p.fp));
        }
    }

    /// Broadcaster only: asks for the signature of own broadcast `k` unless
    /// it was asked for already or `k` fell out of the tail.
    fn request_sign(&mut self, k: SeqId) -> Option<CtbEffect> {
        let own = self.my_broadcasts.get_mut(&k.0).filter(|own| own.sign == SignState::NotAsked)?;
        own.sign = SignState::Asked;
        Some(CtbEffect::Sign { k, fp: own.fp })
    }

    /// [`Ctb::request_sign`], onto the input's effects.
    fn push_sign(&mut self, k: SeqId) {
        if let Some(sign) = self.request_sign(k) {
            self.out.push(sign);
        }
    }

    /// Hands over the effects of the input under way: the one place a
    /// public input's effects leave.
    fn take_out(&mut self) -> Vec<CtbEffect> {
        self.out.take()
    }

    /// Takes back a vector of effects an input returned, once the driver
    /// has carried them out: a later input's effects are built in it. A
    /// driver that never hands one back only allocates a vector per input.
    pub fn recycle(&mut self, fx: Vec<CtbEffect>) {
        self.out.recycle(fx);
    }

    /// How many handed-back effect vectors wait for reuse (at most
    /// [`SPARES`]).
    pub fn spare_effect_vecs(&self) -> usize {
        self.out.spares()
    }

    /// Takes back the body of a [`CtbEffect::Broadcast`] this instance
    /// emitted, once the driver has encoded and sent it: a later `LOCKED`
    /// echo, `SIGNED` message or [`Ctb::encode_body`] is built in it. At
    /// most [`SPARES`] are kept; a driver that never hands one back
    /// allocates a body per echo.
    pub fn recycle_body(&mut self, mut m: Vec<u8>) {
        if m.capacity() > 0 && self.bodies.len() < SPARES {
            m.clear();
            self.bodies.push(m);
        }
    }

    /// Broadcasts `m` on this stream (Algorithm 1, lines 2–4).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not the stream's broadcaster.
    pub fn broadcast(&mut self, m: Vec<u8>) -> (SeqId, Vec<CtbEffect>) {
        self.broadcast_as(m, false)
    }

    /// [`Ctb::broadcast`], told whether its fast path is known not to
    /// complete — a receiver is silent. A `slow` broadcast asks for its
    /// signature at once ([`SlowMode::OnTimeout`]) and waits for no sweep.
    pub fn broadcast_as(&mut self, m: Vec<u8>, slow: bool) -> (SeqId, Vec<CtbEffect>) {
        assert_eq!(self.me, self.stream, "only the broadcaster may broadcast");
        let k = self.next_k;
        self.next_k = self.next_k.next();
        let fp = fingerprint(&m);
        self.saw(k);
        self.cache_payload(k, fp, &m);
        // A signature asked for ahead serves this very message at this id
        // only; one for an id this broadcast reaches is moot otherwise.
        let sign = match self.ahead.take_if(|(ahead_k, _)| *ahead_k <= k) {
            Some((ahead_k, own)) if ahead_k == k && own.fp == fp => own.sign,
            _ => SignState::NotAsked,
        };
        let mut own = OwnBroadcast { fp, sign, fast_wait: Deadline::Unset };
        let on_timeout = self.cfg.slow == SlowMode::OnTimeout && sign == SignState::NotAsked;
        let slow = self.cfg.slow == SlowMode::Always || on_timeout && slow;
        let arm = on_timeout && !slow && self.fast_sweep.start(&mut own.fast_wait);
        self.my_broadcasts.insert(k.0, own);
        if let SignState::Done(sig) = sign {
            if self.cfg.fast_enabled {
                let m = self.body(&m);
                self.out.push(CtbEffect::Broadcast(CtbWire::Lock { k, m }));
            }
            self.out.push(CtbEffect::Broadcast(CtbWire::Signed { k, m, sig }));
            return (k, self.take_out());
        }
        if self.cfg.fast_enabled {
            self.out.push(CtbEffect::Broadcast(CtbWire::Lock { k, m }));
        }
        if arm {
            self.out.push(CtbEffect::ArmSlowTimer);
        } else if slow {
            // Unless it was signed ahead: `SIGNED` leaves when the signer
            // answers then.
            self.push_sign(k);
        }
        (k, self.take_out())
    }

    /// The fast path's sweep fired (broadcaster only): every own broadcast
    /// made before the previous firing that is neither delivered here nor
    /// signed yet is signed now, for the slow path, and the broadcasts made
    /// since are marked for the next firing — a broadcast waits at least one
    /// period of the sweep and less than two. Each receiver whose
    /// `LOCKED` of a broadcast signed here is missing is handed to
    /// `suspect`: this machine keeps no record of who is silent. Arms the
    /// sweep again only while a broadcast waits.
    pub fn sweep(&mut self, mut suspect: impl FnMut(ReplicaId)) -> Vec<CtbEffect> {
        let marks = self.my_broadcasts.iter_mut().map(|(&k, own)| {
            let fast = self.delivered[SeqId(k).ring_index(self.cfg.tail)].is_some_and(|d| d.0 >= k);
            (SeqId(k), !fast && own.sign == SignState::NotAsked, &mut own.fast_wait)
        });
        let (mut due, waiting) = self.fast_sweep.fire(marks);
        due.sort_unstable();
        for k in due {
            let Some(sign @ CtbEffect::Sign { fp, .. }) = self.request_sign(k) else { continue };
            let unlocked = |q: &usize| self.locked[*q][self.slot(k)] != Some((k, fp));
            (0..self.cfg.n).filter(unlocked).for_each(|q| suspect(self.replicas[q]));
            self.out.push(sign);
        }
        if waiting {
            self.out.push(CtbEffect::ArmSlowTimer);
        }
        self.take_out()
    }

    /// Forces the slow path for `k` *even if we fast-delivered it
    /// ourselves* (broadcaster only; no-op when the slow path is disabled
    /// or already requested). The broadcaster's fast delivery only proves
    /// that *it* collected every `LOCKED` echo; a receiver whose unanimity
    /// was broken by a crashed peer still waits, and if the broadcaster
    /// never signs, neither the fast nor the slow path can ever deliver to
    /// it — and the CTBcast *summary* that would repair the gap deadlocks
    /// too, because it needs the stuck receiver's own share. The runtime
    /// calls this for the unsummarized tail when a summary boundary stays
    /// uncertified suspiciously long.
    pub fn force_slow(&mut self, k: SeqId) -> Vec<CtbEffect> {
        if self.me == self.stream && self.cfg.slow != SlowMode::Never {
            self.push_sign(k);
        }
        self.take_out()
    }

    /// Broadcaster only: asks for the signature of `m` at id `k` before
    /// `m` is broadcast. It is used only if [`Ctb::broadcast`] sends
    /// exactly `m` as `k`: `SIGNED` goes out with it then, or as soon as
    /// the signer answers. Any other broadcast at or past `k` drops it, and
    /// that message is signed afresh; a signature no broadcast used never
    /// leaves this replica. One is kept at a time. `None` when `k` is taken
    /// already, the slow path is off, or this very signature is pending.
    pub fn sign_ahead(&mut self, k: SeqId, m: &[u8]) -> Option<CtbEffect> {
        if self.me != self.stream || self.cfg.slow == SlowMode::Never || k < self.next_k {
            return None;
        }
        let fp = fingerprint(m);
        if self.ahead.is_some_and(|(ahead_k, own)| ahead_k == k && own.fp == fp) {
            return None;
        }
        let fast_wait = Deadline::Unset;
        self.ahead = Some((k, OwnBroadcast { fp, sign: SignState::Asked, fast_wait }));
        Some(CtbEffect::Sign { k, fp })
    }

    /// [`Ctb::on_sign_done`] for a signature over `(stream, k, fp)`. Two
    /// signatures for one id can be in flight — one asked for ahead, and
    /// one for what was broadcast there instead — so a completion over
    /// anything but what `k` carries, or will carry, is stale and ignored,
    /// and so is a second one for a message whose `SIGNED` went out.
    pub fn on_sign_done_over(&mut self, k: SeqId, fp: Digest, sig: Signature) -> Vec<CtbEffect> {
        let waiting = |own: &OwnBroadcast| own.fp == fp && own.sign == SignState::Asked;
        match &mut self.ahead {
            Some((ahead_k, own)) if *ahead_k == k && own.fp == fp => {
                own.sign = SignState::Done(sig)
            }
            _ if self.my_broadcasts.get(&k.0).is_some_and(waiting) => self.sign_done(k, sig),
            _ => {}
        }
        self.take_out()
    }

    /// The crypto pool finished signing `(stream, k, fp)`. The signature is
    /// remembered: when the `SIGNED` below comes back to us as a receiver of
    /// our own stream, what our own signer produced needs no verification.
    pub fn on_sign_done(&mut self, k: SeqId, sig: Signature) -> Vec<CtbEffect> {
        self.sign_done(k, sig);
        self.take_out()
    }

    fn sign_done(&mut self, k: SeqId, sig: Signature) {
        let Some(m) = self.my_broadcast_body(k).cloned() else { return };
        let m = self.body(&m);
        let own = self.my_broadcasts.get_mut(&k.0).expect("its body is held");
        own.sign = SignState::Done(sig);
        self.out.push(CtbEffect::Broadcast(CtbWire::Signed { k, m, sig }));
    }

    /// [`Ctb::on_wire`] for a message held in its own buffers (`bench/`'s
    /// probes and the unit tests build them).
    pub fn on_tb_deliver(&mut self, from: ReplicaId, wire: CtbWire) -> Vec<CtbEffect> {
        self.on_wire(from, wire.view())
    }

    /// A TBcast frame of this stream was delivered from `from` (which the
    /// authenticated transport guarantees is the true sender), read in the
    /// buffer it arrived in: a body is copied only where it is kept, into
    /// the payload cache once per `(k, fp)` and into a `LOCK`'s echo, a
    /// body handed back earlier ([`Ctb::recycle_body`]).
    pub fn on_wire(&mut self, from: ReplicaId, wire: CtbWireRef<'_>) -> Vec<CtbEffect> {
        match wire {
            CtbWireRef::Lock { k, m } => self.on_lock(from, k, m),
            CtbWireRef::Locked { k, m } => self.on_locked(from, k, m),
            CtbWireRef::Signed { k, m, sig } => self.on_signed(from, k, m, sig),
        }
        self.take_out()
    }

    /// Lines 12–16.
    fn on_lock(&mut self, from: ReplicaId, k: SeqId, m: &[u8]) {
        if from != self.stream {
            return; // only the broadcaster locks
        }
        let fp = fingerprint(m);
        self.saw(k);
        let slot = self.slot(k);
        let newer = self.locks[slot].is_none_or(|(k2, _)| k > k2);
        if newer {
            self.cache_payload(k, fp, m);
            self.locks[slot] = Some((k, fp));
            if self.cfg.fast_enabled {
                let m = self.body(m);
                self.out.push(CtbEffect::Broadcast(CtbWire::Locked { k, m }));
            }
        }
    }

    /// Lines 18–23.
    fn on_locked(&mut self, from: ReplicaId, k: SeqId, m: &[u8]) {
        let Some(q) = self.index_of(from) else { return };
        let fp = fingerprint(m);
        self.saw(k);
        let slot = self.slot(k);
        let newer = self.locked[q][slot].is_none_or(|(k2, _)| k > k2);
        if !newer {
            return;
        }
        self.cache_payload(k, fp, m);
        self.locked[q][slot] = Some((k, fp));
        // Line 22: unanimity across all n receivers.
        if self.locked.iter().all(|row| row[slot] == Some((k, fp))) {
            self.deliver_once(k, fp);
        }
    }

    /// Lines 25–26: stage the signed message for async verification. The
    /// broadcaster is a receiver of its own stream like any other — it locks,
    /// writes its register and reads everyone's — but line 26 asks whether
    /// the broadcaster signed `(k, m)`, and of the very signature its own
    /// signer returned for that message it knows. Anything else is verified.
    fn on_signed(&mut self, from: ReplicaId, k: SeqId, m: &[u8], sig: Signature) {
        if from != self.stream {
            return;
        }
        let fp = fingerprint(m);
        self.saw(k);
        let slot = self.slot(k);
        if let Some(p) = self.slow.get(&slot) {
            if p.k >= k {
                return; // duplicate or superseded
            }
        }
        if self.delivered[slot].is_some_and(|d| d >= k) {
            return; // already delivered (fast path)
        }
        self.cache_payload(k, fp, m);
        let stage = SlowStage::VerifyingSig;
        self.slow.insert(slot, SlowPending { k, fp, sig, stage, written: false });
        let own = self.my_broadcasts.get(&k.0);
        if own.is_some_and(|own| own.fp == fp && own.sign == SignState::Done(sig)) {
            return self.on_signed_verified(k, true);
        }
        self.out.push(CtbEffect::Verify { tag: VerifyTag::Signed { k }, k, fp, sig });
    }

    /// A verification requested by this machine completed.
    pub fn on_verify_done(&mut self, tag: VerifyTag, ok: bool) -> Vec<CtbEffect> {
        match tag {
            VerifyTag::Signed { k } => self.on_signed_verified(k, ok),
            VerifyTag::Entry { k, kind } => self.on_entry_verified(k, kind, ok),
        }
        self.take_out()
    }

    /// Lines 27–30 (after the line-26 signature check).
    fn on_signed_verified(&mut self, k: SeqId, ok: bool) {
        let slot = self.slot(k);
        let Some(p) = self.slow.get_mut(&slot) else { return };
        if p.k != k || p.stage != SlowStage::VerifyingSig {
            return;
        }
        if !ok {
            return self.drop_pending(slot);
        }
        let fp = p.fp;
        let sig = p.sig;
        // Line 28: proceed iff k is newer than our lock, or equals it with
        // the same message.
        let proceed = match self.locks[slot] {
            None => true,
            Some((k2, fp2)) => k > k2 || (k == k2 && fp == fp2),
        };
        if !proceed {
            return self.drop_pending(slot);
        }
        self.locks[slot] = Some((k, fp));
        let p = self.slow.get_mut(&slot).expect("just checked");
        p.stage = SlowStage::Reading;
        self.out.push(CtbEffect::WriteRegister { slot, k, entry: RegEntry { k, fp, sig } });
        self.out.push(CtbEffect::ReadSlot { slot, k });
    }

    /// The register write for `k` completed at a quorum of memory nodes —
    /// before the slot read emitted with it returned, or after.
    pub fn on_register_written(&mut self, k: SeqId) -> Vec<CtbEffect> {
        let slot = self.slot(k);
        if let Some(p) = self.slow.get_mut(&slot) {
            if p.k == k && p.stage != SlowStage::VerifyingSig && !p.written {
                p.written = true;
                if p.stage == SlowStage::AwaitingWrite {
                    self.deliver_when_written(slot);
                }
            }
        }
        self.take_out()
    }

    /// Lines 31–37: the quorum read of everyone's register slot returned.
    /// `entries[i]` is receiver `replicas[i]`'s register content (`None` when
    /// never written or detectably invalid). It may come before the write
    /// emitted with it has completed; delivery then waits for that.
    pub fn on_registers_read(
        &mut self,
        k: SeqId,
        entries: Vec<Option<RegEntry>>,
    ) -> Vec<CtbEffect> {
        self.on_slot_read(k, &entries)
    }

    /// [`Ctb::on_registers_read`] on entries the caller keeps: a driver
    /// reads each slot read's into the buffer of the one before.
    pub fn on_slot_read(&mut self, k: SeqId, entries: &[Option<RegEntry>]) -> Vec<CtbEffect> {
        self.registers_read(k, entries);
        self.take_out()
    }

    fn registers_read(&mut self, k: SeqId, entries: &[Option<RegEntry>]) {
        let slot = self.slot(k);
        let Some(p) = self.slow.get_mut(&slot) else { return };
        if p.k != k || p.stage != SlowStage::Reading {
            return;
        }
        let fp = p.fp;
        let sig = p.sig;
        let mut suspects: Vec<(RegEntry, ConflictKind)> = Vec::new();
        for e in entries.iter().flatten() {
            if e.k == k && e.fp == fp && e.sig == sig {
                continue; // our own message, already verified
            }
            if e.k == k && e.fp != fp {
                suspects.push((e.clone(), ConflictKind::SameId)); // line 33
            } else if e.k > k && e.k.ring_index(self.cfg.tail) == self.slot(k) {
                suspects.push((e.clone(), ConflictKind::NewerId)); // line 35
            }
            // e.k < k: stale entry, ignore.
        }
        if suspects.is_empty() {
            return self.deliver_when_written(slot);
        }
        let p = self.slow.get_mut(&slot).expect("present");
        let outstanding = suspects.len() as u32;
        p.stage =
            SlowStage::VerifyingEntries { outstanding, equivocated: false, out_of_tail: false };
        // A forged entry (bad signature) must not block delivery: verify
        // each suspect before honouring it.
        for (e, kind) in suspects {
            let tag = VerifyTag::Entry { k, kind };
            self.out.push(CtbEffect::Verify { tag, k: e.k, fp: e.fp, sig: e.sig });
        }
    }

    fn on_entry_verified(&mut self, k: SeqId, kind: ConflictKind, ok: bool) {
        let slot = self.slot(k);
        let Some(p) = self.slow.get_mut(&slot).filter(|p| p.k == k) else { return };
        let SlowStage::VerifyingEntries { outstanding, equivocated, out_of_tail } = &mut p.stage
        else {
            return;
        };
        *outstanding -= 1;
        if ok {
            // The entry is genuinely signed by the broadcaster. A same-id
            // conflict proves equivocation (line 33: abort and report); a
            // newer id on the same ring slot only means our message fell out
            // of the tail (line 35: drop silently — an honest broadcaster
            // does this under load, so it must NOT be branded Byzantine).
            match kind {
                ConflictKind::SameId => *equivocated = true,
                ConflictKind::NewerId => *out_of_tail = true,
            }
        }
        if *outstanding > 0 {
            return;
        }
        if *equivocated {
            // Deliver nothing; report proven equivocation for the
            // consensus layer's Byzantine bookkeeping.
            self.drop_pending(slot);
            return self.out.push(CtbEffect::Equivocation { k });
        }
        if *out_of_tail {
            return self.drop_pending(slot); // skip delivery; a summary fills the gap
        }
        self.deliver_when_written(slot);
    }

    /// The read found nothing against delivering the pending message on
    /// `slot`: it is delivered now if the register write has completed,
    /// else when it does.
    fn deliver_when_written(&mut self, slot: usize) {
        let p = self.slow.get_mut(&slot).expect("pending");
        if !p.written {
            p.stage = SlowStage::AwaitingWrite;
            return;
        }
        let (k, fp) = (p.k, p.fp);
        self.slow.remove(&slot);
        self.deliver_once(k, fp);
    }

    /// Lines 39–42.
    fn deliver_once(&mut self, k: SeqId, fp: Digest) {
        let slot = self.slot(k);
        if self.delivered[slot].is_some_and(|d| d >= k) {
            return;
        }
        // The payload is always known: every path caches it.
        let Some(payload) = self.payloads.get(&(k.0, fp)).cloned() else { return };
        self.delivered[slot] = Some(k);
        self.out.push(CtbEffect::Deliver { k, payload });
    }

    /// Approximate resident memory of this state machine in bytes
    /// (Table 2 accounting): the bookkeeping arrays are O(n·t), and the
    /// payload cache holds what the locks, the `LOCKED`s, the pending slow
    /// deliveries and the own broadcasts of the last `2t` ids name. An own
    /// broadcast's body is in that cache; its record counts beside it.
    pub fn resident_bytes(&self) -> usize {
        let lock_entry = core::mem::size_of::<Option<(SeqId, Digest)>>();
        self.locks.len() * lock_entry
            + self.locked.len() * self.cfg.tail * lock_entry
            + self.delivered.len() * core::mem::size_of::<Option<SeqId>>()
            + self.payloads.values().map(|p| p.len() + 48).sum::<usize>()
            + self.my_broadcasts.len() * core::mem::size_of::<(u64, OwnBroadcast)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CtbNet;
    use crate::wire::sign_broadcast;
    use ubft_types::outbox::SPARES;

    const N: usize = 3;
    const T: usize = 4;

    fn rid(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    /// Pins the register-slot sizing the runtime derives from the codec:
    /// id (8) + fingerprint (32) + signature (32). If this moves, every
    /// register bank's slot size moves with it — deliberately, but the
    /// change should be a conscious one.
    #[test]
    fn reg_entry_encoded_size_is_pinned() {
        assert_eq!(RegEntry::encoded_size(), 72);
        // And it really is what an arbitrary entry encodes to.
        let e = RegEntry {
            k: SeqId(u64::MAX),
            fp: fingerprint(b"some message"),
            sig: Signature::garbage(),
        };
        assert_eq!(e.to_bytes().len(), RegEntry::encoded_size());
    }

    /// Replica 0's broadcaster signature over `(k, m)`.
    fn sign(h: &CtbNet, k: SeqId, m: &[u8]) -> Signature {
        sign_broadcast(&h.ring, rid(0), k, &fingerprint(m))
    }

    /// Replica 0's frame `wire` reaches `to`; the run goes on to quiescence.
    fn deliver(h: &mut CtbNet, to: usize, wire: CtbWire) {
        let out = h.ctbs[to].on_tb_deliver(rid(0), wire);
        h.emit(to, out);
        h.run();
    }

    fn cfg_fast() -> CtbConfig {
        CtbConfig { n: N, tail: T, fast_enabled: true, slow: SlowMode::Never }
    }

    fn cfg_slow() -> CtbConfig {
        CtbConfig { n: N, tail: T, fast_enabled: false, slow: SlowMode::Always }
    }

    #[test]
    fn fast_path_delivers_to_all() {
        let mut h = CtbNet::new(cfg_fast());
        let k = h.broadcast(b"hello");
        for r in 0..N {
            assert_eq!(h.delivered[r], vec![(k, b"hello".to_vec())], "replica {r}");
        }
    }

    #[test]
    fn slow_path_delivers_to_all() {
        let mut h = CtbNet::new(cfg_slow());
        let k = h.broadcast(b"slowly");
        for r in 0..N {
            assert_eq!(h.delivered[r], vec![(k, b"slowly".to_vec())], "replica {r}");
        }
    }

    #[test]
    fn both_paths_deliver_exactly_once() {
        let cfg = CtbConfig { n: N, tail: T, fast_enabled: true, slow: SlowMode::Always };
        let mut h = CtbNet::new(cfg);
        let k = h.broadcast(b"once");
        for r in 0..N {
            assert_eq!(h.delivered[r], vec![(k, b"once".to_vec())], "replica {r}");
        }
    }

    #[test]
    fn sequential_broadcasts_all_delivered_in_tail() {
        let mut h = CtbNet::new(cfg_fast());
        for i in 0..10u8 {
            h.broadcast(&[i]);
        }
        for r in 0..N {
            assert_eq!(h.delivered[r].len(), 10);
            let ks: Vec<u64> = h.delivered[r].iter().map(|(k, _)| k.0).collect();
            assert_eq!(ks, (1..=10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fast_equivocation_never_delivers_conflicting() {
        // Byzantine broadcaster: LOCK m1 to r1, LOCK m2 to r2 under k=1.
        let mut h = CtbNet::new(cfg_fast());
        let k = SeqId(1);
        let out1 = h.ctbs[1].on_tb_deliver(rid(0), CtbWire::Lock { k, m: b"m1".to_vec() });
        h.emit(1, out1);
        let out2 = h.ctbs[2].on_tb_deliver(rid(0), CtbWire::Lock { k, m: b"m2".to_vec() });
        h.emit(2, out2);
        h.run();
        // Unanimity is impossible: nobody delivers anything.
        for r in 0..N {
            assert!(h.delivered[r].is_empty(), "replica {r} delivered during equivocation");
        }
    }

    #[test]
    fn slow_equivocation_preserves_agreement() {
        // Byzantine broadcaster signs two different messages for k=1 and
        // sends one to each receiver. Registers must prevent conflicting
        // deliveries.
        let mut h = CtbNet::new(cfg_slow());
        let k = SeqId(1);
        let m1 = b"m1".to_vec();
        let m2 = b"m2".to_vec();
        let s1 = sign(&h, k, &m1);
        let s2 = sign(&h, k, &m2);
        // r1 processes m1 fully first, then r2 receives m2.
        deliver(&mut h, 1, CtbWire::Signed { k, m: m1.clone(), sig: s1 });
        assert_eq!(h.delivered[1], vec![(k, m1.clone())]);
        deliver(&mut h, 2, CtbWire::Signed { k, m: m2, sig: s2 });
        // r2 found r1's conflicting valid entry: no delivery, equivocation
        // reported. Agreement holds.
        assert!(h.delivered[2].is_empty());
        assert_eq!(h.equivocations[2], vec![k]);
    }

    #[test]
    fn forged_register_entry_does_not_block_delivery() {
        // A Byzantine *receiver* (r2) plants a garbage entry in its own
        // register for slot k%t. r1's slow delivery must verify it, find the
        // signature invalid, and still deliver.
        let mut h = CtbNet::new(cfg_slow());
        let k = SeqId(1);
        let m = b"legit".to_vec();
        let sig = sign(&h, k, &m);
        // r2 plants a forged conflicting entry.
        h.registers[2][k.ring_index(T)] =
            Some(RegEntry { k, fp: fingerprint(b"fake"), sig: Signature::garbage() });
        deliver(&mut h, 1, CtbWire::Signed { k, m: m.clone(), sig });
        assert_eq!(h.delivered[1], vec![(k, m)]);
        assert!(h.equivocations[1].is_empty());
    }

    #[test]
    fn out_of_tail_signed_message_dropped() {
        // r1 holds back processing of k=1 while the broadcaster moves on to
        // k = 1 + T (same ring slot). When r1 finally reads the registers it
        // finds the newer entry and must drop k=1.
        let mut h = CtbNet::new(cfg_slow());
        let old_k = SeqId(1);
        let new_k = SeqId(1 + T as u64);
        let m_old = b"old".to_vec();
        let m_new = b"new".to_vec();
        let fp_new = fingerprint(&m_new);
        let sig_new = sign(&h, new_k, &m_new);
        // r2 already processed new_k: its register holds the newer entry.
        h.registers[2][new_k.ring_index(T)] = Some(RegEntry { k: new_k, fp: fp_new, sig: sig_new });
        let sig_old = sign(&h, old_k, &m_old);
        deliver(&mut h, 1, CtbWire::Signed { k: old_k, m: m_old, sig: sig_old });
        assert!(h.delivered[1].is_empty(), "out-of-tail message must not deliver");
    }

    #[test]
    fn invalid_signature_rejected() {
        let mut h = CtbNet::new(cfg_slow());
        let bad = CtbWire::Signed { k: SeqId(1), m: b"bad".to_vec(), sig: Signature::garbage() };
        deliver(&mut h, 1, bad);
        assert!(h.delivered[1].is_empty());
    }

    /// Why a receiver writes its register only once a `SIGNED` checks out.
    /// r1 slow-delivers `(k, m1)`; a forged `SIGNED` for `k + t` then
    /// reaches it. Had r1 written that entry while checking it, its valid
    /// entry for `k` would be gone, and r2, checking an equivocated
    /// `(k, m2)`, would read r1's slot as a newer id, find the signature
    /// bad and ignore it (`registers_read`), and deliver `m2`.
    #[test]
    fn a_forged_signed_writes_no_register_entry() {
        let (k, m1, m2) = (SeqId(1), b"m1".to_vec(), b"m2".to_vec());
        let (slot, later) = (k.ring_index(T), SeqId(k.0 + T as u64));
        let signed =
            |h: &CtbNet, m: &[u8]| CtbWire::Signed { k, m: m.to_vec(), sig: sign(h, k, m) };
        let r1_delivered_m1 = || {
            let mut h = CtbNet::new(cfg_slow());
            let wire = signed(&h, &m1);
            deliver(&mut h, 1, wire);
            assert_eq!(h.delivered[1], vec![(k, m1.clone())]);
            h
        };
        let mut h = r1_delivered_m1();
        let own = h.registers[1][slot].clone();
        assert_eq!(own.as_ref().map(|e| e.k), Some(k));
        let (forged, garbage) = (b"forged".to_vec(), Signature::garbage());
        let fx =
            h.ctbs[1].on_tb_deliver(rid(0), CtbWire::Signed { k: later, m: forged, sig: garbage });
        let [CtbEffect::Verify { tag, .. }] = fx[..] else { panic!("{fx:?}") };
        assert_eq!(h.ctbs[1].on_verify_done(tag, false), vec![]);
        assert_eq!(h.registers[1][slot], own);
        let wire = signed(&h, &m2);
        deliver(&mut h, 2, wire);
        assert!(h.delivered[2].is_empty());
        assert_eq!(h.equivocations[2], vec![k]);

        // The write the check holds back, and the disagreement it would let
        // through.
        let mut h = r1_delivered_m1();
        let fp = fingerprint(b"forged");
        h.registers[1][slot] = Some(RegEntry { k: later, fp, sig: garbage });
        let wire = signed(&h, &m2);
        deliver(&mut h, 2, wire);
        assert_eq!(h.delivered[2], vec![(k, m2)]);
    }

    /// The broadcaster's own `SIGNED`, carrying what `on_sign_done` was
    /// given, goes straight to the register write; every other receiver
    /// verifies the same frame as before.
    #[test]
    fn broadcaster_does_not_verify_the_signature_its_signer_produced() {
        let mut h = CtbNet::new(cfg_slow());
        let m = b"mine".to_vec();
        let (k, fx) = h.ctbs[0].broadcast(m.clone());
        let fp = fingerprint(&m);
        assert_eq!(fx, vec![CtbEffect::Sign { k, fp }]);
        let sig = sign(&h, k, &m);
        let signed = CtbWire::Signed { k, m: m.clone(), sig };
        assert_eq!(h.ctbs[0].on_sign_done(k, sig), vec![CtbEffect::Broadcast(signed.clone())]);

        let (entry, slot) = (RegEntry { k, fp, sig }, k.ring_index(T));
        assert_eq!(
            h.ctbs[0].on_tb_deliver(rid(0), signed.clone()),
            vec![CtbEffect::WriteRegister { slot, k, entry }, CtbEffect::ReadSlot { slot, k }],
            "still a receiver of its own message: it writes and reads, but verifies nothing"
        );
        assert_eq!(
            h.ctbs[1].on_tb_deliver(rid(0), signed),
            vec![CtbEffect::Verify { tag: VerifyTag::Signed { k }, k, fp, sig }]
        );
    }

    /// The register write and the slot read leave together, and either
    /// completion may come first: the message is delivered once both are
    /// in, and exactly once. A read that returns first has found the
    /// replica's own write, which it was posted behind.
    #[test]
    fn write_and_read_complete_in_either_order_and_deliver_once() {
        for read_first in [true, false] {
            let mut h = CtbNet::new(cfg_slow());
            let (k, m) = (SeqId(1), b"either order".to_vec());
            let sig = sign(&h, k, &m);
            let fx = h.ctbs[1].on_tb_deliver(rid(0), CtbWire::Signed { k, m: m.clone(), sig });
            h.emit(1, fx);
            h.apply(0); // the verification
            let slot = k.ring_index(T);
            let effects: Vec<_> = h.pending.iter().map(|mv| mv.effect.clone()).collect();
            let entry = RegEntry { k, fp: fingerprint(&m), sig };
            let (write, read) = (
                CtbEffect::WriteRegister { slot, k, entry: entry.clone() },
                CtbEffect::ReadSlot { slot, k },
            );
            assert_eq!(effects, vec![write.clone(), read.clone()], "one batch");
            let (first, second) = if read_first { (read, write) } else { (write, read) };
            h.apply(usize::from(read_first));
            if read_first {
                assert_eq!(h.registers[1][slot], Some(entry), "the read went behind the write");
            }
            let left: Vec<_> = h.pending.iter().map(|mv| &mv.effect).collect();
            assert_eq!(left, vec![&second], "delivered after {first:?} alone");
            h.run();
            assert_eq!(h.delivered[1], vec![(k, m)], "read first: {read_first}");
            assert!(h.ctbs[1].on_register_written(k).is_empty(), "a second completion");
            assert!(h.pending.is_empty());
        }
    }

    /// Only the exact signature of the exact message is exempt: anything
    /// else that claims to be on our own stream is verified, and dropped
    /// when the check fails.
    #[test]
    fn own_stream_signed_with_any_other_signature_is_never_trusted() {
        let verify_of = |fx: &[CtbEffect]| match fx {
            [CtbEffect::Verify { tag: VerifyTag::Signed { .. }, sig, .. }] => *sig,
            other => panic!("expected one verification, got {other:?}"),
        };
        let m = b"mine".to_vec();

        // Before the signer has answered nothing is known to be ours.
        let mut h = CtbNet::new(cfg_slow());
        let (k, _) = h.ctbs[0].broadcast(m.clone());
        let sig = sign(&h, k, &m);
        let early = h.ctbs[0].on_tb_deliver(rid(0), CtbWire::Signed { k, m: m.clone(), sig });
        assert_eq!(verify_of(&early), sig);

        // Another signature over our message: verified, fails, dropped.
        let mut h = CtbNet::new(cfg_slow());
        let (k, _) = h.ctbs[0].broadcast(m.clone());
        let _ = h.ctbs[0].on_sign_done(k, sig);
        let forged = CtbWire::Signed { k, m: m.clone(), sig: Signature::garbage() };
        let fx = h.ctbs[0].on_tb_deliver(rid(0), forged);
        assert_eq!(verify_of(&fx), Signature::garbage());
        h.emit(0, fx);
        h.run();
        assert!(h.delivered[0].is_empty());

        // Our signature under another message: verified too.
        let mut h = CtbNet::new(cfg_slow());
        let (k, _) = h.ctbs[0].broadcast(m);
        let _ = h.ctbs[0].on_sign_done(k, sig);
        let other = CtbWire::Signed { k, m: b"not mine".to_vec(), sig };
        let fx = h.ctbs[0].on_tb_deliver(rid(0), other);
        assert_eq!(verify_of(&fx), sig);
        h.emit(0, fx);
        h.run();
        assert!(h.delivered[0].is_empty());
    }

    /// A signature asked for ahead and done by the broadcast of exactly
    /// that message at that id leaves with it: no second signature, and
    /// the broadcaster's own `SIGNED` needs no verification.
    #[test]
    fn a_signature_asked_ahead_leaves_with_the_broadcast_of_that_message() {
        for cfg in [cfg_slow(), CtbConfig::deployed(N, T)] {
            let mut h = CtbNet::new(cfg);
            let m = b"commit".to_vec();
            let (k, fp) = (SeqId(1), fingerprint(&m));
            assert_eq!(h.ctbs[0].sign_ahead(k, &m), Some(CtbEffect::Sign { k, fp }));
            assert_eq!(h.ctbs[0].sign_ahead(k, &m), None, "asked twice");
            let sig = sign(&h, k, &m);
            assert!(
                h.ctbs[0].on_sign_done_over(k, fp, sig).is_empty(),
                "left before its broadcast"
            );
            let (at, fx) = h.ctbs[0].broadcast(m.clone());
            assert_eq!(at, k);
            let signed = CtbEffect::Broadcast(CtbWire::Signed { k, m: m.clone(), sig });
            let lock = CtbEffect::Broadcast(CtbWire::Lock { k, m: m.clone() });
            let want = if cfg.fast_enabled { vec![lock, signed] } else { vec![signed] };
            assert_eq!(fx, want, "{cfg:?}");
            let (entry, slot) = (RegEntry { k, fp, sig }, k.ring_index(T));
            let own = CtbWire::Signed { k, m: m.clone(), sig };
            assert_eq!(
                h.ctbs[0].clone().on_tb_deliver(rid(0), own),
                vec![CtbEffect::WriteRegister { slot, k, entry }, CtbEffect::ReadSlot { slot, k }]
            );
            h.emit(0, fx);
            h.run();
            for r in 0..N {
                assert_eq!(h.delivered[r], vec![(k, m.clone())], "replica {r}");
            }
        }
    }

    /// Still being signed at its broadcast: `SIGNED` leaves once, when the
    /// signer answers, and nothing else is asked for meanwhile.
    #[test]
    fn a_signature_asked_ahead_and_pending_at_the_broadcast_leaves_when_it_completes() {
        for cfg in [cfg_slow(), CtbConfig::deployed(N, T)] {
            let mut h = CtbNet::new(cfg);
            let m = b"commit".to_vec();
            let (k, fp) = (SeqId(1), fingerprint(&m));
            assert!(h.ctbs[0].sign_ahead(k, &m).is_some());
            let (_, fx) = h.ctbs[0].broadcast(m.clone());
            let lock = CtbEffect::Broadcast(CtbWire::Lock { k, m: m.clone() });
            assert_eq!(fx, if cfg.fast_enabled { vec![lock] } else { vec![] }, "{cfg:?}");
            for _ in 0..2 {
                assert_eq!(sweep(&mut h), (vec![], vec![]), "a second signature");
            }
            let sig = sign(&h, k, &m);
            let signed = CtbEffect::Broadcast(CtbWire::Signed { k, m, sig });
            assert_eq!(h.ctbs[0].on_sign_done_over(k, fp, sig), vec![signed]);
        }
    }

    /// Another message broadcast at the id drops the early signature: the
    /// message is signed afresh, and the stale completion — for the same
    /// id, over other bytes — never reaches the wire.
    #[test]
    fn other_bytes_at_the_id_are_signed_afresh_and_the_stale_signature_never_leaves() {
        for stale_first in [true, false] {
            let mut h = CtbNet::new(cfg_slow());
            let (ahead, other) = (b"commit".to_vec(), b"checkpoint".to_vec());
            let k = SeqId(1);
            let (fp_ahead, fp_other) = (fingerprint(&ahead), fingerprint(&other));
            assert!(h.ctbs[0].sign_ahead(k, &ahead).is_some());
            let stale = sign(&h, k, &ahead);
            if stale_first {
                assert!(h.ctbs[0].on_sign_done_over(k, fp_ahead, stale).is_empty());
            }
            let (_, fx) = h.ctbs[0].broadcast(other.clone());
            assert_eq!(fx, vec![CtbEffect::Sign { k, fp: fp_other }]);
            if !stale_first {
                assert!(h.ctbs[0].on_sign_done_over(k, fp_ahead, stale).is_empty());
            }
            let sig = sign(&h, k, &other);
            let signed = CtbWire::Signed { k, m: other.clone(), sig };
            let fx = h.ctbs[0].on_sign_done_over(k, fp_other, sig);
            assert_eq!(fx, vec![CtbEffect::Broadcast(signed)]);
            h.emit(0, fx);
            h.run();
            // The early message, broadcast next, gets the next id and its
            // own signature.
            let (k2, fx) = h.ctbs[0].broadcast(ahead.clone());
            assert_eq!(fx, vec![CtbEffect::Sign { k: k2, fp: fp_ahead }]);
            for r in 0..N {
                assert_eq!(h.delivered[r], vec![(k, other.clone())], "replica {r}");
            }
        }
    }

    /// An early signature replaced by one for a later id still signs the
    /// same bytes: if it completes after its message was broadcast and
    /// signed afresh, it is the one `SIGNED` sends, and the fresh one adds
    /// nothing.
    #[test]
    fn a_replaced_early_signature_and_the_fresh_one_send_one_signed() {
        let mut h = CtbNet::new(cfg_slow());
        let (m1, m2) = (b"slot 1".to_vec(), b"slot 2".to_vec());
        let (k1, fp1) = (SeqId(1), fingerprint(&m1));
        assert!(h.ctbs[0].sign_ahead(k1, &m1).is_some());
        assert!(h.ctbs[0].sign_ahead(SeqId(2), &m2).is_some());
        let (_, fx) = h.ctbs[0].broadcast(m1.clone());
        assert_eq!(fx, vec![CtbEffect::Sign { k: k1, fp: fp1 }]);
        let sig = sign(&h, k1, &m1);
        let signed = CtbEffect::Broadcast(CtbWire::Signed { k: k1, m: m1, sig });
        assert_eq!(h.ctbs[0].on_sign_done_over(k1, fp1, sig), vec![signed]);
        assert!(h.ctbs[0].on_sign_done_over(k1, fp1, sig).is_empty(), "a second SIGNED");
    }

    /// An id already taken, a stream that is not ours and a stream without
    /// a slow path ask for nothing.
    #[test]
    fn signing_ahead_asks_for_nothing_it_could_never_use() {
        let mut h = CtbNet::new(cfg_slow());
        let m = b"late".to_vec();
        let _ = h.ctbs[0].broadcast(b"first".to_vec());
        assert_eq!(h.ctbs[0].sign_ahead(SeqId(1), &m), None, "id 1 is taken");
        assert_eq!(h.ctbs[1].sign_ahead(SeqId(2), &m), None, "not the broadcaster");
        assert!(h.ctbs[0].sign_ahead(SeqId(2), &m).is_some());
        let mut h = CtbNet::new(cfg_fast());
        assert_eq!(h.ctbs[0].sign_ahead(SeqId(1), &m), None, "SlowMode::Never");
        let (_, fx) = h.ctbs[0].broadcast(m.clone());
        assert_eq!(fx, vec![CtbEffect::Broadcast(CtbWire::Lock { k: SeqId(1), m })]);
    }

    #[test]
    fn lock_from_non_broadcaster_ignored() {
        let mut h = CtbNet::new(cfg_fast());
        let out =
            h.ctbs[1].on_tb_deliver(rid(2), CtbWire::Lock { k: SeqId(1), m: b"fake".to_vec() });
        assert!(out.is_empty());
    }

    #[test]
    fn memory_stays_bounded_over_many_broadcasts() {
        let mut h = CtbNet::new(cfg_fast());
        let mut peak = 0usize;
        for i in 0..200u32 {
            h.broadcast(&i.to_le_bytes());
            peak = peak.max(h.ctbs[1].resident_bytes());
        }
        // The cache holds at most 2t payloads plus O(n·t) bookkeeping; with
        // t=4 and 4-byte payloads this is well under 4 KiB.
        assert!(peak < 4096, "resident bytes grew to {peak}");
        for r in 0..N {
            assert_eq!(h.delivered[r].len(), 200);
        }
    }

    /// A Byzantine sender can send any number of frames for one id, each
    /// with a fresh body under a fresh transport sequence number: the
    /// broadcaster `LOCK`s, a lying receiver `LOCKED`s, and the broadcaster
    /// `SIGNED`s that fail the signature check or line 28. The receiver
    /// keeps what its lock and the `LOCKED`s name, whatever the count.
    #[test]
    fn equivocating_frames_for_one_id_do_not_grow_the_payload_cache() {
        let cfg = CtbConfig { n: N, tail: T, fast_enabled: true, slow: SlowMode::Always };
        let mut h = CtbNet::new(cfg);
        let k = SeqId(1);
        let body = |i: u32| [b"equivocation ".as_slice(), &i.to_le_bytes()].concat();
        let send = |h: &mut CtbNet, i: u32| {
            let _ = h.ctbs[1].on_tb_deliver(rid(0), CtbWire::Lock { k, m: body(i) });
            let _ = h.ctbs[1].on_tb_deliver(rid(2), CtbWire::Locked { k, m: body(i) });
            let m = body(i + 1);
            let sig = if i.is_multiple_of(2) { sign(h, k, &m) } else { Signature::garbage() };
            deliver(h, 1, CtbWire::Signed { k, m, sig });
        };
        send(&mut h, 0);
        let first = h.ctbs[1].resident_bytes();
        for i in 1..2_000 {
            send(&mut h, i);
            let now = h.ctbs[1].resident_bytes();
            assert!(now <= first, "after {i} rounds: {now} resident bytes, {first} after one");
        }
        assert!(h.delivered[1].is_empty(), "a body its lock refused was delivered");
    }

    /// The broadcaster holds its own body once, in the payload cache as
    /// every receiver does; its own-broadcast record is what it keeps on
    /// top.
    #[test]
    fn a_broadcaster_counts_its_own_body_once() {
        let mut h = CtbNet::new(cfg_fast());
        h.broadcast(b"counted once");
        let own = core::mem::size_of::<(u64, OwnBroadcast)>();
        assert_eq!(h.ctbs[0].resident_bytes(), h.ctbs[1].resident_bytes() + own);
    }

    #[test]
    fn fast_lock_forces_slow_path_value() {
        // r1 locked (k, m1) via the fast path; a signed (k, m2) must not
        // pass the line-28 check.
        let cfg = CtbConfig { n: N, tail: T, fast_enabled: true, slow: SlowMode::Never };
        let mut h = CtbNet::new(cfg);
        let k = SeqId(1);
        let out = h.ctbs[1].on_tb_deliver(rid(0), CtbWire::Lock { k, m: b"m1".to_vec() });
        // Swallow the LOCKED broadcast: we only care about the lock.
        drop(out);
        let m2 = b"m2".to_vec();
        let sig = sign(&h, k, &m2);
        deliver(&mut h, 1, CtbWire::Signed { k, m: m2, sig });
        assert!(h.delivered[1].is_empty(), "conflicting slow value must be refused");
    }

    #[test]
    fn adopt_tail_mid_wraparound_refuses_stale_and_accepts_fresh() {
        // T = 4, adoption at k = 7: mid-ring (7 % 4 = 3), so the floors
        // straddle a wraparound — slots hold floors 6, 5, 4, 3.
        let mut h = CtbNet::new(cfg_fast());
        for r in 0..N {
            h.ctbs[r].adopt_tail(SeqId(7));
        }
        assert_eq!(h.ctbs[0].next_seq(), SeqId(7));
        // A stale retransmission from before the adoption point (k = 5)
        // must never deliver, even with full unanimity.
        for r in 0..N {
            let out = h.ctbs[r]
                .on_tb_deliver(rid(0), CtbWire::Lock { k: SeqId(5), m: b"stale".to_vec() });
            h.emit(r, out);
        }
        h.run();
        for r in 0..N {
            assert!(h.delivered[r].is_empty(), "replica {r} delivered a pre-adoption id");
        }
        // The adopted broadcaster's next id flows end to end.
        let k = h.broadcast(b"fresh");
        assert_eq!(k, SeqId(7));
        for r in 0..N {
            assert_eq!(h.delivered[r], vec![(SeqId(7), b"fresh".to_vec())], "replica {r}");
        }
    }

    #[test]
    fn adopt_tail_never_moves_backwards() {
        let mut h = CtbNet::new(cfg_fast());
        for _ in 0..6 {
            h.broadcast(b"x");
        }
        assert_eq!(h.ctbs[0].next_seq(), SeqId(7));
        h.ctbs[0].adopt_tail(SeqId(3)); // stale adoption: no-op
        assert_eq!(h.ctbs[0].next_seq(), SeqId(7));
        let k = h.broadcast(b"y");
        assert_eq!(k, SeqId(7));
    }

    #[test]
    fn adopt_tail_on_slow_path_refuses_pre_adoption_signed() {
        // A joiner that adopted at k = 6 receives a valid *signed* message
        // for k = 5 (a pre-crash retransmission): the whole slow path runs
        // — verify, write, read — but delivery is refused at the floor.
        let mut h = CtbNet::new(cfg_slow());
        h.ctbs[1].adopt_tail(SeqId(6));
        let k = SeqId(5);
        let m = b"pre-crash".to_vec();
        let sig = sign(&h, k, &m);
        deliver(&mut h, 1, CtbWire::Signed { k, m, sig });
        assert!(h.delivered[1].is_empty(), "pre-adoption signed message must not deliver");
        // A post-adoption id on the same ring slot (5 % 4 == 1 == 9 % 4)
        // still delivers.
        let k2 = SeqId(9);
        let m2 = b"post-join".to_vec();
        let sig2 = sign(&h, k2, &m2);
        deliver(&mut h, 1, CtbWire::Signed { k: k2, m: m2.clone(), sig: sig2 });
        assert_eq!(h.delivered[1], vec![(k2, m2)]);
    }

    /// One fast-path round on stream 0 with only `responders` alive: each
    /// gets the broadcaster's LOCK and its LOCKED reaches the broadcaster.
    /// Returns what the broadcaster emitted on the way.
    fn lock_round(h: &mut CtbNet, k: SeqId, m: &[u8], responders: &[usize]) -> Vec<CtbEffect> {
        let mut out = Vec::new();
        for &r in responders {
            let fx = h.ctbs[r].on_tb_deliver(rid(0), CtbWire::Lock { k, m: m.to_vec() });
            assert_eq!(fx, vec![CtbEffect::Broadcast(CtbWire::Locked { k, m: m.to_vec() })]);
            let locked = CtbWire::Locked { k, m: m.to_vec() };
            out.extend(h.ctbs[0].on_tb_deliver(rid(r as u32), locked));
        }
        out
    }

    fn signs(fx: &[CtbEffect]) -> usize {
        fx.iter().filter(|e| matches!(e, CtbEffect::Sign { .. })).count()
    }

    fn arms(fx: &[CtbEffect]) -> usize {
        fx.iter().filter(|e| matches!(e, CtbEffect::ArmSlowTimer)).count()
    }

    /// Fires the broadcaster's sweep once: its effects, and whom it
    /// suspects.
    fn sweep(h: &mut CtbNet) -> (Vec<CtbEffect>, Vec<ReplicaId>) {
        let mut silent = Vec::new();
        let fx = h.ctbs[0].sweep(|r| silent.push(r));
        (fx, silent)
    }

    #[test]
    fn an_undelivered_broadcast_is_signed_at_the_second_firing_after_it_not_the_first() {
        let mut h = CtbNet::new(CtbConfig::deployed(N, T));
        let (k1, fx) = h.ctbs[0].broadcast(b"one".to_vec());
        assert_eq!((signs(&fx), arms(&fx)), (0, 1));
        // r2 is silent: no unanimity.
        assert!(lock_round(&mut h, k1, b"one", &[0, 1]).is_empty());
        assert_eq!(sweep(&mut h), (vec![CtbEffect::ArmSlowTimer], vec![]), "at the first");
        // A broadcast made between the two firings waits for the third.
        let (k2, fx) = h.ctbs[0].broadcast(b"two".to_vec());
        assert_eq!((signs(&fx), arms(&fx)), (0, 0), "the armed sweep was armed again");
        assert!(lock_round(&mut h, k2, b"two", &[0, 1]).is_empty());
        let one = CtbEffect::Sign { k: k1, fp: fingerprint(b"one") };
        assert_eq!(sweep(&mut h), (vec![one, CtbEffect::ArmSlowTimer], vec![rid(2)]));
        let two = CtbEffect::Sign { k: k2, fp: fingerprint(b"two") };
        assert_eq!(sweep(&mut h), (vec![two], vec![rid(2)]));
        assert_eq!(sweep(&mut h), (vec![], vec![]), "signed twice");
    }

    #[test]
    fn an_idle_broadcast_sweep_is_armed_once_per_busy_spell() {
        let mut h = CtbNet::new(CtbConfig::deployed(N, T));
        for spell in 0..3u8 {
            for i in 0..5u8 {
                let (k, fx) = h.ctbs[0].broadcast(vec![spell, i]);
                assert_eq!((signs(&fx), arms(&fx)), (0, usize::from(i == 0)), "{spell}/{i}");
                assert_eq!(lock_round(&mut h, k, &[spell, i], &[0, 1, 2]).len(), 1, "delivered");
            }
            // Everything was delivered: the firing arms nothing.
            assert_eq!(sweep(&mut h), (vec![], vec![]), "spell {spell}");
        }
    }

    #[test]
    fn a_broadcast_delivered_before_the_second_firing_suspects_nobody() {
        let mut h = CtbNet::new(CtbConfig::deployed(N, T));
        let (k, _) = h.ctbs[0].broadcast(b"one".to_vec());
        assert!(lock_round(&mut h, k, b"one", &[0, 1]).is_empty());
        assert_eq!(sweep(&mut h), (vec![CtbEffect::ArmSlowTimer], vec![]));
        // r2's LOCKED comes between the two firings.
        let fx = lock_round(&mut h, k, b"one", &[2]);
        assert_eq!(fx, vec![CtbEffect::Deliver { k, payload: b"one"[..].into() }]);
        assert_eq!(sweep(&mut h), (vec![], vec![]));
    }

    #[test]
    fn next_seq_and_accessors() {
        let h = CtbNet::new(cfg_fast());
        assert_eq!(h.ctbs[0].next_seq(), SeqId(1));
        assert_eq!(h.ctbs[0].stream(), rid(0));
        assert_eq!(h.ctbs[0].max_delivered(), SeqId(0));
    }

    #[test]
    #[should_panic(expected = "only the broadcaster")]
    fn non_broadcaster_cannot_broadcast() {
        let mut h = CtbNet::new(cfg_fast());
        let _ = h.ctbs[1].broadcast(b"nope".to_vec());
    }

    /// A receiver's `LOCK` of id `k`: it answers with its `LOCKED`.
    fn lock(ctb: &mut Ctb, k: u64) -> Vec<CtbEffect> {
        let fx = ctb.on_tb_deliver(rid(0), CtbWire::Lock { k: SeqId(k), m: vec![k as u8] });
        assert!(matches!(fx[..], [CtbEffect::Broadcast(CtbWire::Locked { .. })]), "{fx:?}");
        fx
    }

    /// A vector handed back holds the effects of the next input that has
    /// any: the same buffer, at the same capacity. An input with none
    /// returns a vector that owns nothing and leaves the spare where it is.
    #[test]
    fn the_next_input_builds_its_effects_in_the_vector_handed_back() {
        let mut ctb = CtbNet::new(cfg_fast()).ctbs.swap_remove(1);
        let fx = lock(&mut ctb, 1);
        let (ptr, cap) = (fx.as_ptr(), fx.capacity());
        ctb.recycle(fx);
        assert_eq!(ctb.on_register_written(SeqId(1)).capacity(), 0);
        let fx = lock(&mut ctb, 2);
        assert_eq!((fx.as_ptr(), fx.capacity()), (ptr, cap));
    }

    /// Inputs nested deeper than the pool holds, each returning its own
    /// vector, leave no more than `SPARES` behind once all are handed back.
    #[test]
    fn nested_inputs_never_grow_the_pool_past_its_bound() {
        let mut ctb = CtbNet::new(cfg_fast()).ctbs.swap_remove(1);
        let held: Vec<_> = (1..=SPARES as u64 + 2).map(|k| lock(&mut ctb, k)).collect();
        held.into_iter().for_each(|fx| ctb.recycle(fx));
        assert_eq!(ctb.spare_effect_vecs(), SPARES);
    }

    /// A body is one buffer per replica: the fast path delivers the buffer
    /// the payload cache holds, and a `LOCKED` echo is built in a body the
    /// driver handed back after sending an earlier broadcast — as are the
    /// broadcaster's `SIGNED` and the body the driver encodes its next
    /// broadcast into. At most `SPARES` bodies wait.
    #[test]
    fn a_delivery_lends_the_cached_body_and_an_echo_takes_a_recycled_one() {
        let mut h = CtbNet::new(CtbConfig::deployed(N, T));
        let (k, m) = (SeqId(1), b"body".to_vec());
        let spare = Vec::with_capacity(16);
        let ptr = spare.as_ptr();
        h.ctbs[1].recycle_body(spare);
        let fx = h.ctbs[1].on_tb_deliver(rid(0), CtbWire::Lock { k, m: m.clone() });
        let [CtbEffect::Broadcast(CtbWire::Locked { m: echo, .. })] = &fx[..] else {
            panic!("{fx:?}")
        };
        assert_eq!((echo.as_ptr(), &echo[..]), (ptr, &m[..]), "the echo's body is the spare");
        let mut delivered = Vec::new();
        for from in 0..N as u32 {
            let locked = CtbWire::Locked { k, m: m.clone() };
            delivered.extend(h.ctbs[1].on_tb_deliver(rid(from), locked));
        }
        let [CtbEffect::Deliver { payload, .. }] = &delivered[..] else { panic!("{delivered:?}") };
        let cached = &h.ctbs[1].payloads[&(k.0, fingerprint(&m))];
        assert!(Arc::ptr_eq(payload, cached), "the delivery copied the cached body");

        let spare = Vec::with_capacity(16);
        let ptr = spare.as_ptr();
        h.ctbs[0].recycle_body(spare);
        let (k, _) = h.ctbs[0].broadcast(m.clone());
        let sig = sign(&h, k, &m);
        let fx = h.ctbs[0].on_sign_done(k, sig);
        let [CtbEffect::Broadcast(CtbWire::Signed { m: signed, .. })] = &fx[..] else {
            panic!("{fx:?}")
        };
        assert_eq!(signed.as_ptr(), ptr, "the SIGNED body is the spare");
        let spare = Vec::with_capacity(16);
        let ptr = spare.as_ptr();
        h.ctbs[0].recycle_body(spare);
        let body = h.ctbs[0].encode_body(&k);
        assert_eq!((body.as_ptr(), body), (ptr, k.to_bytes()), "the encoding is in the spare");
        (0..SPARES + 2).for_each(|_| h.ctbs[0].recycle_body(vec![0; 8]));
        assert_eq!(h.ctbs[0].bodies.len(), SPARES);
        assert!(h.ctbs[0].bodies.iter().all(Vec::is_empty), "a spare body is emptied");
    }
}
