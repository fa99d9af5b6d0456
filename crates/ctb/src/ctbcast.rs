//! Consistent Tail Broadcast — Algorithm 1 as a sans-IO state machine.
//!
//! One [`Ctb`] instance is *one replica's view of one broadcaster's stream*:
//! replica `me` participating in the stream whose designated broadcaster is
//! `stream`. All `n` replicas (including the broadcaster) act as receivers.
//!
//! Signature verification and register access are asynchronous in the real
//! system (thread pool, RDMA), so the slow path is staged: `SIGNED` arrives →
//! verify → check/set lock → write own SWMR register slot → read everyone's
//! slot → (verify any conflicting entries) → deliver. Each stage is resumed
//! through an `on_*` input carrying the results the runtime collected.

use std::collections::BTreeSet;

use ubft_crypto::{Digest, Signature};
use ubft_types::wire::{Wire, WireReader};
use ubft_types::{CodecError, FixedMap, FixedState, ReplicaId, SeqId};

use crate::wire::{fingerprint, CtbWire};

/// When the broadcaster emits the slow-path `SIGNED` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowMode {
    /// Sign and send immediately alongside the fast path (Algorithm 1's
    /// pedagogical presentation).
    Always,
    /// Only after the runtime's fast-path timeout fires (the deployed
    /// configuration, §4.2).
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

impl Wire for RegEntry {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.k.encode(buf);
        self.fp.encode(buf);
        self.sig.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.k.encoded_len() + self.fp.encoded_len() + self.sig.encoded_len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(RegEntry { k: SeqId::decode(r)?, fp: Digest::decode(r)?, sig: Signature::decode(r)? })
    }
}

/// Correlates an asynchronous signature verification with the state machine
/// stage that requested it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerifyTag {
    /// Verifying a `SIGNED` message for id `k`.
    Signed {
        /// Message id.
        k: SeqId,
    },
    /// Verifying a conflicting register entry owned by `owner`, found while
    /// slow-delivering id `k`.
    Entry {
        /// The id being delivered.
        k: SeqId,
        /// The register's owner.
        owner: ReplicaId,
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
    /// feeds back into [`Ctb::on_tb_deliver`]).
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
    /// stream, using `k` as the register timestamp.
    WriteRegister {
        /// Ring slot (`k % t`).
        slot: usize,
        /// Message id / register timestamp.
        k: SeqId,
        /// The entry to store.
        entry: RegEntry,
    },
    /// Read every receiver's register for `slot` (quorum-replicated read).
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
        /// Message body.
        payload: Vec<u8>,
    },
    /// Proof was found that the broadcaster equivocated on `k`; the layer
    /// above must stop interpreting this stream (Algorithm 2, line 1).
    Equivocation {
        /// The id with conflicting signed messages.
        k: SeqId,
    },
    /// Ask the runtime to arm the fast-path timeout for `(k, m)`; if it
    /// fires before delivery, feed [`Ctb::on_slow_timeout`] (broadcaster
    /// only, [`SlowMode::OnTimeout`]).
    ArmSlowTimer {
        /// Message id.
        k: SeqId,
    },
}

#[derive(Clone, Debug)]
struct SlowPending {
    k: SeqId,
    fp: Digest,
    sig: Signature,
    stage: SlowStage,
    outstanding: usize,
    /// A same-id conflicting entry verified: the broadcaster equivocated.
    equivocated: bool,
    /// A newer-id entry verified: `k` fell out of the tail; drop silently.
    out_of_tail: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlowStage {
    VerifyingSig,
    Writing,
    Reading,
    VerifyingEntries,
}

/// What the broadcaster keeps about one of its own broadcasts.
#[derive(Clone, Copy, Debug)]
struct OwnBroadcast {
    fp: Digest,
    sign: SignState,
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
    /// `locks` array (line 9): per ring slot, the `(k, fp)` this replica is
    /// committed to.
    locks: Vec<Option<(SeqId, Digest)>>,
    /// `locked` array (line 10): per receiver, per ring slot.
    locked: Vec<Vec<Option<(SeqId, Digest)>>>,
    /// `delivered` array (line 8).
    delivered: Vec<Option<SeqId>>,
    /// Payload cache keyed by `(k, fp)`, pruned to the tail window.
    payloads: FixedMap<(u64, Digest), Vec<u8>>,
    /// Highest id seen on the stream (drives cache pruning).
    max_seen: SeqId,
    /// In-flight slow-path deliveries, keyed by ring slot.
    slow: FixedMap<usize, SlowPending>,
    /// Broadcaster only: receivers whose `LOCKED` was missing when a
    /// fast-path timeout fired. While anyone is suspected the fast path
    /// cannot reach unanimity, so [`Ctb::broadcast`] signs at once instead
    /// of waiting out the timeout again; a `LOCKED` from the receiver
    /// clears it.
    suspected: BTreeSet<ReplicaId>,
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
            locks: vec![None; cfg.tail],
            locked: vec![vec![None; cfg.tail]; cfg.n],
            delivered: vec![None; cfg.tail],
            payloads: FixedMap::with_hasher(hash_state),
            max_seen: SeqId(0),
            slow: FixedMap::with_hasher(hash_state),
            suspected: BTreeSet::new(),
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
        let floor = SeqId(next.0.saturating_sub(1));
        if floor > self.max_seen {
            self.saw(floor);
        }
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
    fn my_broadcast_body(&self, k: SeqId) -> Option<&Vec<u8>> {
        let own = self.my_broadcasts.get(&k.0)?;
        self.payloads.get(&(k.0, own.fp))
    }

    /// `k`, higher than any id seen so far, is on the stream: whatever is
    /// `2t` or more below it goes.
    fn saw(&mut self, k: SeqId) {
        self.max_seen = k;
        let floor = k.0.saturating_sub(2 * self.cfg.tail as u64);
        self.payloads.retain(|(pk, _), _| *pk > floor);
        self.my_broadcasts.retain(|pk, _| *pk > floor);
    }

    fn cache_payload(&mut self, k: SeqId, fp: Digest, m: &[u8]) {
        if k > self.max_seen {
            self.saw(k);
        }
        self.payloads.entry((k.0, fp)).or_insert_with(|| m.to_vec());
    }

    /// Broadcaster only: asks for the signature of own broadcast `k` unless
    /// it was asked for already or `k` fell out of the tail.
    fn request_sign(&mut self, k: SeqId) -> Option<CtbEffect> {
        let own = self.my_broadcasts.get_mut(&k.0).filter(|own| own.sign == SignState::NotAsked)?;
        own.sign = SignState::Asked;
        Some(CtbEffect::Sign { k, fp: own.fp })
    }

    /// Broadcasts `m` on this stream (Algorithm 1, lines 2–4).
    ///
    /// # Panics
    ///
    /// Panics if `me` is not the stream's broadcaster.
    pub fn broadcast(&mut self, m: Vec<u8>) -> (SeqId, Vec<CtbEffect>) {
        assert_eq!(self.me, self.stream, "only the broadcaster may broadcast");
        let k = self.next_k;
        self.next_k = self.next_k.next();
        let fp = fingerprint(&m);
        self.cache_payload(k, fp, &m);
        self.my_broadcasts.insert(k.0, OwnBroadcast { fp, sign: SignState::NotAsked });
        let mut fx = Vec::new();
        if self.cfg.fast_enabled {
            fx.push(CtbEffect::Broadcast(CtbWire::Lock { k, m }));
        }
        match self.cfg.slow {
            SlowMode::OnTimeout if self.suspected.is_empty() => {
                fx.push(CtbEffect::ArmSlowTimer { k });
            }
            // `OnTimeout` with a receiver known to be silent: the timeout
            // would only re-discover it, so the slow path starts beside
            // the fast one.
            SlowMode::Always | SlowMode::OnTimeout => fx.extend(self.request_sign(k)),
            SlowMode::Never => {}
        }
        (k, fx)
    }

    /// The runtime's fast-path timeout for `k` fired without delivery:
    /// trigger the slow path (broadcaster only) and suspect every receiver
    /// whose `LOCKED` for `k` is missing.
    pub fn on_slow_timeout(&mut self, k: SeqId) -> Vec<CtbEffect> {
        let slot = self.slot(k);
        if self.me != self.stream || self.delivered[slot].is_some_and(|d| d >= k) {
            return Vec::new(); // not ours to sign, or fast path already delivered
        }
        let sign = self.request_sign(k);
        if let Some(CtbEffect::Sign { fp, .. }) = &sign {
            for (q, row) in self.locked.iter().enumerate() {
                if row[slot] != Some((k, *fp)) {
                    self.suspected.insert(self.replicas[q]);
                }
            }
        }
        sign.into_iter().collect()
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
        if self.me != self.stream || self.cfg.slow == SlowMode::Never {
            return Vec::new();
        }
        self.request_sign(k).into_iter().collect()
    }

    /// The crypto pool finished signing `(stream, k, fp)`. The signature is
    /// remembered: when the `SIGNED` below comes back to us as a receiver of
    /// our own stream, what our own signer produced needs no verification.
    pub fn on_sign_done(&mut self, k: SeqId, sig: Signature) -> Vec<CtbEffect> {
        let Some(m) = self.my_broadcast_body(k).cloned() else {
            return Vec::new();
        };
        let own = self.my_broadcasts.get_mut(&k.0).expect("its body is held");
        own.sign = SignState::Done(sig);
        vec![CtbEffect::Broadcast(CtbWire::Signed { k, m, sig })]
    }

    /// A TBcast frame of this stream was delivered from `from` (which the
    /// authenticated transport guarantees is the true sender).
    pub fn on_tb_deliver(&mut self, from: ReplicaId, wire: CtbWire) -> Vec<CtbEffect> {
        match wire {
            CtbWire::Lock { k, m } => self.on_lock(from, k, m),
            CtbWire::Locked { k, m } => self.on_locked(from, k, m),
            CtbWire::Signed { k, m, sig } => self.on_signed(from, k, m, sig),
        }
    }

    /// Lines 12–16.
    fn on_lock(&mut self, from: ReplicaId, k: SeqId, m: Vec<u8>) -> Vec<CtbEffect> {
        if from != self.stream {
            return Vec::new(); // only the broadcaster locks
        }
        let fp = fingerprint(&m);
        self.cache_payload(k, fp, &m);
        let slot = self.slot(k);
        let newer = self.locks[slot].is_none_or(|(k2, _)| k > k2);
        let mut fx = Vec::new();
        if newer {
            self.locks[slot] = Some((k, fp));
            if self.cfg.fast_enabled {
                fx.push(CtbEffect::Broadcast(CtbWire::Locked { k, m }));
            }
        }
        fx
    }

    /// Lines 18–23.
    fn on_locked(&mut self, from: ReplicaId, k: SeqId, m: Vec<u8>) -> Vec<CtbEffect> {
        let Some(q) = self.index_of(from) else {
            return Vec::new();
        };
        self.suspected.remove(&from);
        let fp = fingerprint(&m);
        self.cache_payload(k, fp, &m);
        let slot = self.slot(k);
        let newer = self.locked[q][slot].is_none_or(|(k2, _)| k > k2);
        if !newer {
            return Vec::new();
        }
        self.locked[q][slot] = Some((k, fp));
        // Line 22: unanimity across all n receivers.
        let unanimous = self.locked.iter().all(|row| row[slot] == Some((k, fp)));
        if unanimous {
            self.deliver_once(k, fp)
        } else {
            Vec::new()
        }
    }

    /// Lines 25–26: stage the signed message for async verification. The
    /// broadcaster is a receiver of its own stream like any other — it locks,
    /// writes its register and reads everyone's — but line 26 asks whether
    /// the broadcaster signed `(k, m)`, and of the very signature its own
    /// signer returned for that message it knows. Anything else is verified.
    fn on_signed(
        &mut self,
        from: ReplicaId,
        k: SeqId,
        m: Vec<u8>,
        sig: Signature,
    ) -> Vec<CtbEffect> {
        if from != self.stream {
            return Vec::new();
        }
        let fp = fingerprint(&m);
        self.cache_payload(k, fp, &m);
        let slot = self.slot(k);
        if let Some(p) = self.slow.get(&slot) {
            if p.k >= k {
                return Vec::new(); // duplicate or superseded
            }
        }
        if self.delivered[slot].is_some_and(|d| d >= k) {
            return Vec::new(); // already delivered (fast path)
        }
        self.slow.insert(
            slot,
            SlowPending {
                k,
                fp,
                sig,
                stage: SlowStage::VerifyingSig,
                outstanding: 0,
                equivocated: false,
                out_of_tail: false,
            },
        );
        let own = self.my_broadcasts.get(&k.0);
        if own.is_some_and(|own| own.fp == fp && own.sign == SignState::Done(sig)) {
            return self.on_signed_verified(k, true);
        }
        vec![CtbEffect::Verify { tag: VerifyTag::Signed { k }, k, fp, sig }]
    }

    /// A verification requested by this machine completed.
    pub fn on_verify_done(&mut self, tag: VerifyTag, ok: bool) -> Vec<CtbEffect> {
        match tag {
            VerifyTag::Signed { k } => self.on_signed_verified(k, ok),
            VerifyTag::Entry { k, owner, kind } => self.on_entry_verified(k, owner, kind, ok),
        }
    }

    /// Lines 27–30 (after the line-26 signature check).
    fn on_signed_verified(&mut self, k: SeqId, ok: bool) -> Vec<CtbEffect> {
        let slot = self.slot(k);
        let Some(p) = self.slow.get_mut(&slot) else {
            return Vec::new();
        };
        if p.k != k || p.stage != SlowStage::VerifyingSig {
            return Vec::new();
        }
        if !ok {
            self.slow.remove(&slot);
            return Vec::new();
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
            self.slow.remove(&slot);
            return Vec::new();
        }
        self.locks[slot] = Some((k, fp));
        let p = self.slow.get_mut(&slot).expect("just checked");
        p.stage = SlowStage::Writing;
        vec![CtbEffect::WriteRegister { slot, k, entry: RegEntry { k, fp, sig } }]
    }

    /// The register write for `k` completed at a quorum of memory nodes.
    pub fn on_register_written(&mut self, k: SeqId) -> Vec<CtbEffect> {
        let slot = self.slot(k);
        let Some(p) = self.slow.get_mut(&slot) else {
            return Vec::new();
        };
        if p.k != k || p.stage != SlowStage::Writing {
            return Vec::new();
        }
        p.stage = SlowStage::Reading;
        vec![CtbEffect::ReadSlot { slot, k }]
    }

    /// Lines 31–37: the quorum read of everyone's register slot returned.
    /// `entries[i]` is receiver `replicas[i]`'s register content (`None` when
    /// never written or detectably invalid).
    pub fn on_registers_read(
        &mut self,
        k: SeqId,
        entries: Vec<Option<RegEntry>>,
    ) -> Vec<CtbEffect> {
        let slot = self.slot(k);
        let Some(p) = self.slow.get_mut(&slot) else {
            return Vec::new();
        };
        if p.k != k || p.stage != SlowStage::Reading {
            return Vec::new();
        }
        let fp = p.fp;
        let sig = p.sig;
        let mut suspects: Vec<(ReplicaId, RegEntry, ConflictKind)> = Vec::new();
        for (i, entry) in entries.into_iter().enumerate() {
            let Some(e) = entry else { continue };
            let owner = self.replicas[i];
            if e.k == k && e.fp == fp && e.sig == sig {
                continue; // our own message, already verified
            }
            if e.k == k && e.fp != fp {
                suspects.push((owner, e, ConflictKind::SameId)); // line 33
            } else if e.k > k && e.k.ring_index(self.cfg.tail) == self.slot(k) {
                suspects.push((owner, e, ConflictKind::NewerId)); // line 35
            }
            // e.k < k: stale entry, ignore.
        }
        if suspects.is_empty() {
            self.slow.remove(&slot);
            return self.deliver_once(k, fp);
        }
        let p = self.slow.get_mut(&slot).expect("present");
        p.stage = SlowStage::VerifyingEntries;
        p.outstanding = suspects.len();
        // A forged entry (bad signature) must not block delivery: verify
        // each suspect before honouring it.
        suspects
            .into_iter()
            .map(|(owner, e, kind)| CtbEffect::Verify {
                tag: VerifyTag::Entry { k, owner, kind },
                k: e.k,
                fp: e.fp,
                sig: e.sig,
            })
            .collect()
    }

    fn on_entry_verified(
        &mut self,
        k: SeqId,
        _owner: ReplicaId,
        kind: ConflictKind,
        ok: bool,
    ) -> Vec<CtbEffect> {
        let slot = self.slot(k);
        let Some(p) = self.slow.get_mut(&slot) else {
            return Vec::new();
        };
        if p.k != k || p.stage != SlowStage::VerifyingEntries {
            return Vec::new();
        }
        p.outstanding -= 1;
        if ok {
            // The entry is genuinely signed by the broadcaster. A same-id
            // conflict proves equivocation (line 33: abort and report); a
            // newer id on the same ring slot only means our message fell out
            // of the tail (line 35: drop silently — an honest broadcaster
            // does this under load, so it must NOT be branded Byzantine).
            match kind {
                ConflictKind::SameId => p.equivocated = true,
                ConflictKind::NewerId => p.out_of_tail = true,
            }
        }
        if p.outstanding == 0 {
            let (equivocated, out_of_tail, fp) = (p.equivocated, p.out_of_tail, p.fp);
            self.slow.remove(&slot);
            if equivocated {
                // Deliver nothing; report proven equivocation for the
                // consensus layer's Byzantine bookkeeping.
                return vec![CtbEffect::Equivocation { k }];
            }
            if out_of_tail {
                return Vec::new(); // skip delivery; a summary fills the gap
            }
            return self.deliver_once(k, fp);
        }
        Vec::new()
    }

    /// Lines 39–42.
    fn deliver_once(&mut self, k: SeqId, fp: Digest) -> Vec<CtbEffect> {
        let slot = self.slot(k);
        if self.delivered[slot].is_some_and(|d| d >= k) {
            return Vec::new();
        }
        let Some(payload) = self.payloads.get(&(k.0, fp)).cloned() else {
            // Payload unknown (should not happen: every path caches it).
            return Vec::new();
        };
        self.delivered[slot] = Some(k);
        vec![CtbEffect::Deliver { k, payload }]
    }

    /// Approximate resident memory of this state machine in bytes
    /// (Table 2 accounting): the bookkeeping arrays are O(n·t) and the
    /// payload cache is bounded by `2t` messages.
    pub fn resident_bytes(&self) -> usize {
        let lock_entry = core::mem::size_of::<Option<(SeqId, Digest)>>();
        self.locks.len() * lock_entry
            + self.locked.len() * self.cfg.tail * lock_entry
            + self.delivered.len() * core::mem::size_of::<Option<SeqId>>()
            + self.payloads.values().map(|p| p.len() + 48).sum::<usize>()
            + self
                .my_broadcasts
                .keys()
                .filter_map(|k| self.my_broadcast_body(SeqId(*k)))
                .map(|p| p.len() + 16)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::CtbNet;
    use crate::wire::sign_broadcast;

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

        let entry = RegEntry { k, fp, sig };
        assert_eq!(
            h.ctbs[0].on_tb_deliver(rid(0), signed.clone()),
            vec![CtbEffect::WriteRegister { slot: k.ring_index(T), k, entry }],
            "still a receiver of its own message: it writes and reads, but verifies nothing"
        );
        assert_eq!(
            h.ctbs[1].on_tb_deliver(rid(0), signed),
            vec![CtbEffect::Verify { tag: VerifyTag::Signed { k }, k, fp, sig }]
        );
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
        fx.iter().filter(|e| matches!(e, CtbEffect::ArmSlowTimer { .. })).count()
    }

    #[test]
    fn timeout_with_a_silent_receiver_signs_later_broadcasts_at_once() {
        let mut h = CtbNet::new(CtbConfig::deployed(N, T));
        let (k1, fx) = h.ctbs[0].broadcast(b"one".to_vec());
        assert_eq!((signs(&fx), arms(&fx)), (0, 1));
        // r2 is silent: no unanimity, the timeout fires and r2 is suspected.
        assert!(lock_round(&mut h, k1, b"one", &[0, 1]).is_empty());
        assert_eq!(signs(&h.ctbs[0].on_slow_timeout(k1)), 1);
        // The next broadcast runs both paths at once and arms nothing.
        let (k2, fx) = h.ctbs[0].broadcast(b"two".to_vec());
        assert!(fx.contains(&CtbEffect::Broadcast(CtbWire::Lock { k: k2, m: b"two".to_vec() })));
        assert_eq!((signs(&fx), arms(&fx)), (1, 0));
        // A timer left over from before is a no-op: the sign was requested.
        assert!(h.ctbs[0].on_slow_timeout(k2).is_empty());
        // r2 speaks again (a LOCKED for anything): back to the timer.
        lock_round(&mut h, k2, b"two", &[2]);
        let (_, fx) = h.ctbs[0].broadcast(b"three".to_vec());
        assert_eq!((signs(&fx), arms(&fx)), (0, 1));
    }

    #[test]
    fn timer_firing_after_fast_delivery_suspects_nobody() {
        let mut h = CtbNet::new(CtbConfig::deployed(N, T));
        let (k1, _) = h.ctbs[0].broadcast(b"one".to_vec());
        let fx = lock_round(&mut h, k1, b"one", &[0, 1, 2]);
        assert_eq!(fx, vec![CtbEffect::Deliver { k: k1, payload: b"one".to_vec() }]);
        assert!(h.ctbs[0].on_slow_timeout(k1).is_empty());
        let (_, fx) = h.ctbs[0].broadcast(b"two".to_vec());
        assert_eq!((signs(&fx), arms(&fx)), (0, 1));
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
}
