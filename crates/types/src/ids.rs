//! Strongly-typed identifiers for processes, consensus slots, views, and
//! broadcast sequence numbers.
//!
//! All identifiers are newtypes ([C-NEWTYPE]) so that a [`Slot`] can never be
//! confused with a [`View`] or a CTBcast [`SeqId`] at compile time.

use core::fmt;

use crate::wire::{Wire, WireReader};
use crate::CodecError;

/// Identifier of a compute replica (one of the `2f + 1` consensus members).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicaId(pub u32);

/// Identifier of an external client issuing requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

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

impl ProcessId {
    /// Returns the replica id if this process is a replica.
    pub fn as_replica(self) -> Option<ReplicaId> {
        match self {
            ProcessId::Replica(r) => Some(r),
            ProcessId::Client(_) => None,
        }
    }

    /// Returns the client id if this process is a client.
    pub fn as_client(self) -> Option<ClientId> {
        match self {
            ProcessId::Client(c) => Some(c),
            ProcessId::Replica(_) => None,
        }
    }
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

macro_rules! impl_wire_newtype_u32 {
    ($t:ty) => {
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn encoded_len(&self) -> usize {
                4
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok(Self(u32::decode(r)?))
            }
        }
    };
}

macro_rules! impl_wire_newtype_u64 {
    ($t:ty) => {
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn encoded_len(&self) -> usize {
                8
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                Ok(Self(u64::decode(r)?))
            }
        }
    };
}

impl_wire_newtype_u32!(ReplicaId);
impl_wire_newtype_u32!(ClientId);
impl_wire_newtype_u32!(MemNodeId);
impl_wire_newtype_u64!(Slot);
impl_wire_newtype_u64!(View);
impl_wire_newtype_u64!(SeqId);

impl Wire for ProcessId {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ProcessId::Replica(r) => {
                0u8.encode(buf);
                r.encode(buf);
            }
            ProcessId::Client(c) => {
                1u8.encode(buf);
                c.encode(buf);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        5
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(ProcessId::Replica(ReplicaId::decode(r)?)),
            1 => Ok(ProcessId::Client(ClientId::decode(r)?)),
            tag => Err(CodecError::BadTag { ty: "ProcessId", tag }),
        }
    }
}

impl Wire for RequestId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.client.encode(buf);
        self.seq.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        12
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(RequestId { client: ClientId::decode(r)?, seq: u64::decode(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::roundtrip;

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
    fn process_id_conversions() {
        let p: ProcessId = ReplicaId(3).into();
        assert_eq!(p.as_replica(), Some(ReplicaId(3)));
        assert_eq!(p.as_client(), None);
        let q: ProcessId = ClientId(9).into();
        assert_eq!(q.as_client(), Some(ClientId(9)));
        assert_eq!(q.as_replica(), None);
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
}
