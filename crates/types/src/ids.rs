//! Strongly-typed identifiers for processes, consensus slots, views, and
//! broadcast sequence numbers.
//!
//! All identifiers are newtypes ([C-NEWTYPE]) so that a [`Slot`] can never be
//! confused with a [`View`] or a CTBcast [`SeqId`] at compile time.

use core::fmt;

/// Identifier of a compute replica (one of the `2f + 1` consensus members).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

/// A set of replicas `r0`–`r63`, one bit each: counting votes in it takes no
/// heap, and copying it is copying a word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaSet(u64);

impl ReplicaSet {
    /// One more than the highest replica index a set can hold.
    pub const CAPACITY: usize = 64;

    /// Adds `r`; whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside the set's [`ReplicaSet::CAPACITY`].
    pub fn insert(&mut self, r: ReplicaId) -> bool {
        assert!((r.0 as usize) < Self::CAPACITY, "{r} is outside a replica set");
        let absent = !self.contains(r);
        self.0 |= 1 << r.0;
        absent
    }

    /// Whether `r` is in the set.
    pub fn contains(&self, r: ReplicaId) -> bool {
        self.0.checked_shr(r.0).is_some_and(|bits| bits & 1 == 1)
    }

    /// How many replicas are in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set holds no replica.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The replicas in the set, lowest index first.
    pub fn iter(self) -> impl Iterator<Item = ReplicaId> {
        let mut rest = self.0;
        std::iter::from_fn(move || {
            let r = (rest != 0).then(|| ReplicaId(rest.trailing_zeros()))?;
            rest &= rest - 1;
            Some(r)
        })
    }
}

/// Identifier of an external client issuing requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl ClientId {
    /// The client no-op requests are filed under: a new leader's filler
    /// for a slot it must close, which no client sends.
    pub const NOOP: ClientId = ClientId(u32::MAX);
}

/// Identifier of a passive disaggregated-memory node (one of `2f_m + 1`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemNodeId(pub u32);

/// Any process that can send or receive messages: a replica or a client.
///
/// Memory nodes are deliberately *not* part of this enum: they are passive
/// RDMA targets and never originate protocol messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProcessId {
    /// A consensus replica.
    Replica(ReplicaId),
    /// An external client.
    Client(ClientId),
}

impl From<ReplicaId> for ProcessId {
    fn from(r: ReplicaId) -> Self {
        ProcessId::Replica(r)
    }
}

impl From<ClientId> for ProcessId {
    fn from(c: ClientId) -> Self {
        ProcessId::Client(c)
    }
}

/// A consensus slot (log position). Slots are decided independently and
/// applied to the application in slot order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Slot(pub u64);

impl Slot {
    /// The next slot in the log.
    #[must_use]
    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }
}

/// A view number. Each view has a designated leader chosen round-robin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct View(pub u64);

impl View {
    /// The view that follows this one.
    #[must_use]
    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    /// The round-robin leader of this view among `n` replicas.
    #[must_use]
    pub fn leader(self, n: usize) -> ReplicaId {
        ReplicaId((self.0 % n as u64) as u32)
    }
}

/// A CTBcast/TBcast sequence identifier `k`. A correct broadcaster increments
/// it sequentially starting at 1 (0 means "nothing broadcast yet").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqId(pub u64);

impl SeqId {
    /// The identifier of the next broadcast.
    #[must_use]
    pub fn next(self) -> SeqId {
        SeqId(self.0 + 1)
    }

    /// The index of this identifier in a tail ring of size `t` (`k % t`).
    #[must_use]
    pub fn ring_index(self, t: usize) -> usize {
        (self.0 % t as u64) as usize
    }
}

/// Globally unique request identifier: the issuing client plus the client's
/// own sequence number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId {
    /// The issuing client.
    pub client: ClientId,
    /// The client-local sequence number of the request.
    pub seq: u64,
}

impl RequestId {
    /// Creates a request id for `client`'s `seq`-th request.
    pub fn new(client: ClientId, seq: u64) -> Self {
        RequestId { client, seq }
    }
}

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for MemNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessId::Replica(r) => write!(f, "{r}"),
            ProcessId::Client(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for SeqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

crate::wire!(ReplicaId(0));
crate::wire!(ClientId(0));
crate::wire!(MemNodeId(0));
crate::wire!(Slot(0));
crate::wire!(View(0));
crate::wire!(SeqId(0));
crate::wire!(ProcessId { 0 => Replica(r), 1 => Client(c) });
crate::wire!(RequestId { client, seq });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{roundtrip, Wire};
    use crate::CodecError;

    #[test]
    fn view_leader_round_robin() {
        assert_eq!(View(0).leader(3), ReplicaId(0));
        assert_eq!(View(1).leader(3), ReplicaId(1));
        assert_eq!(View(2).leader(3), ReplicaId(2));
        assert_eq!(View(3).leader(3), ReplicaId(0));
        assert_eq!(View(7).leader(3), ReplicaId(1));
    }

    #[test]
    fn seq_ring_index_wraps() {
        assert_eq!(SeqId(0).ring_index(16), 0);
        assert_eq!(SeqId(15).ring_index(16), 15);
        assert_eq!(SeqId(16).ring_index(16), 0);
        assert_eq!(SeqId(129).ring_index(128), 1);
    }

    #[test]
    fn slot_and_view_next() {
        assert_eq!(Slot(4).next(), Slot(5));
        assert_eq!(View(4).next(), View(5));
        assert_eq!(SeqId(4).next(), SeqId(5));
    }

    #[test]
    fn a_replica_set_counts_each_replica_once() {
        let mut set = ReplicaSet::default();
        assert!(set.is_empty());
        assert!(set.insert(ReplicaId(0)) && set.insert(ReplicaId(63)));
        assert!(!set.insert(ReplicaId(63)));
        assert_eq!(set.len(), 2);
        assert!(set.contains(ReplicaId(0)) && set.contains(ReplicaId(63)));
        assert!(!set.contains(ReplicaId(1)) && !set.contains(ReplicaId(64)));
        assert!(std::panic::catch_unwind(|| ReplicaSet::default().insert(ReplicaId(64))).is_err());
        assert_eq!(set.iter().collect::<Vec<_>>(), [ReplicaId(0), ReplicaId(63)]);
        assert_eq!(ReplicaSet::default().iter().next(), None);
    }

    #[test]
    fn process_id_conversions() {
        let p: ProcessId = ReplicaId(3).into();
        assert_eq!(p, ProcessId::Replica(ReplicaId(3)));
        let q: ProcessId = ClientId(9).into();
        assert_eq!(q, ProcessId::Client(ClientId(9)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ReplicaId(1).to_string(), "r1");
        assert_eq!(ClientId(2).to_string(), "c2");
        assert_eq!(MemNodeId(0).to_string(), "m0");
        assert_eq!(Slot(5).to_string(), "s5");
        assert_eq!(View(6).to_string(), "v6");
        assert_eq!(SeqId(7).to_string(), "k7");
        assert_eq!(RequestId::new(ClientId(2), 10).to_string(), "c2#10");
    }

    #[test]
    fn wire_roundtrips() {
        roundtrip(&ReplicaId(7));
        roundtrip(&ClientId(1));
        roundtrip(&MemNodeId(2));
        roundtrip(&Slot(u64::MAX));
        roundtrip(&View(12));
        roundtrip(&SeqId(999));
        roundtrip(&ProcessId::Replica(ReplicaId(1)));
        roundtrip(&ProcessId::Client(ClientId(44)));
        roundtrip(&RequestId::new(ClientId(3), 77));
    }

    /// A `ProcessId`'s bytes are also the key material `KeyRing::generate`
    /// derives its keys from: moving them changes every signature.
    #[test]
    fn encodings_match_the_pinned_bytes() {
        let hex = |bytes: Vec<u8>| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(ProcessId::Replica(ReplicaId(1)).to_bytes()), "0001000000");
        assert_eq!(hex(ProcessId::Client(ClientId(44)).to_bytes()), "012c000000");
        assert_eq!(hex(RequestId::new(ClientId(3), 77).to_bytes()), "030000004d00000000000000");
        assert_eq!(
            ProcessId::from_bytes(&[0xff]),
            Err(CodecError::BadTag { ty: "ProcessId", tag: 0xff })
        );
    }
}
