//! The uBFT client state machine.
//!
//! Clients send unsigned requests to *all* replicas (the fast path's echo
//! round makes this safe, §5.4) and accept a result once `f + 1` replicas
//! return matching payloads.

use ubft_crypto::{sha256, Digest};
use ubft_types::wire::{Wire, WireReader};
use ubft_types::{ClientId, ReplicaId, RequestId};

use crate::msg::Request;

/// A closed-loop uBFT client: one outstanding request at a time.
///
/// The client holds the one copy of its request; the runtime reads it
/// through [`Client::request`], encodes it once, and sends the same bytes to
/// every one of [`Client::replicas`] — when the request is issued and again
/// on each retransmission timeout.
#[derive(Clone, Debug)]
pub struct Client {
    id: ClientId,
    replicas: Vec<ReplicaId>,
    quorum: usize,
    next_seq: u64,
    /// The in-flight request (`None` once it completed).
    current: Option<Request>,
    votes: Vec<(ReplicaId, Digest)>,
}

impl Client {
    /// Creates a client that needs `quorum` (`f + 1`) matching replies.
    pub fn new(id: ClientId, replicas: Vec<ReplicaId>, quorum: usize) -> Self {
        assert!(quorum >= 1 && quorum <= replicas.len());
        Client { id, replicas, quorum, next_seq: 0, current: None, votes: Vec::new() }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The replicas every request goes to.
    pub fn replicas(&self) -> &[ReplicaId] {
        &self.replicas
    }

    /// Whether the previous request completed (a new one may be issued).
    pub fn is_idle(&self) -> bool {
        self.current.is_none()
    }

    /// The request in flight, if any. Clients retransmit it on a timeout: a
    /// request or reply lost to a partition or crash must not stall the
    /// closed loop forever — replicas deduplicate, and executed requests
    /// are answered from their last-reply cache.
    pub fn request(&self) -> Option<&Request> {
        self.current.as_ref()
    }

    /// The id of the request in flight, if any.
    pub fn in_flight(&self) -> Option<RequestId> {
        self.current.as_ref().map(|req| req.id)
    }

    /// Issues the next request with the given payload; it is then
    /// [`Client::request`], to be sent to every replica.
    ///
    /// # Panics
    ///
    /// Panics if a request is still in flight.
    pub fn issue(&mut self, payload: Vec<u8>) -> RequestId {
        assert!(self.is_idle(), "previous request still in flight");
        let id = RequestId::new(self.id, self.next_seq);
        self.next_seq += 1;
        self.votes.clear();
        self.current = Some(Request { id, payload });
        id
    }

    /// Counts replica `replica`'s reply to `id`, read in place
    /// ([`read_reply`]): the payload is hashed, not copied. Says whether
    /// this reply completes the request: `f + 1` matching replies arrived.
    pub fn vote(&mut self, id: RequestId, replica: ReplicaId, payload: &[u8]) -> bool {
        if self.in_flight() != Some(id) || self.votes.iter().any(|(r, _)| *r == replica) {
            return false;
        }
        let digest = sha256(payload);
        self.votes.push((replica, digest));
        let matching = self.votes.iter().filter(|(_, d)| *d == digest).count();
        if matching < self.quorum {
            return false;
        }
        self.current = None;
        true
    }
}

/// Reads an encoded [`Reply`](crate::msg::Reply) without copying its
/// payload out: `(id, replica, payload)`, or `None` for bytes that are not
/// one.
pub fn read_reply(bytes: &[u8]) -> Option<(RequestId, ReplicaId, &[u8])> {
    let mut r = WireReader::new(bytes);
    let id = RequestId::decode(&mut r).ok()?;
    let replica = ReplicaId::decode(&mut r).ok()?;
    let payload = r.take_bytes().ok()?;
    (r.remaining() == 0).then_some((id, replica, payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Reply;

    /// A reply's way into a client, as the runtime's client loop takes it:
    /// read in place from its bytes, then counted.
    trait Deliver {
        /// The agreed payload, once `reply` completes the request.
        fn deliver(&mut self, reply: Reply) -> Option<Vec<u8>>;
    }

    impl Deliver for Client {
        fn deliver(&mut self, reply: Reply) -> Option<Vec<u8>> {
            let bytes = reply.to_bytes();
            let (id, replica, payload) = read_reply(&bytes)?;
            self.vote(id, replica, payload).then(|| payload.to_vec())
        }
    }

    fn client() -> Client {
        Client::new(ClientId(7), vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)], 2)
    }

    fn reply(c: &Client, replica: u32, payload: &[u8]) -> Reply {
        Reply { id: c.in_flight().unwrap(), replica: ReplicaId(replica), payload: payload.to_vec() }
    }

    #[test]
    fn a_reply_is_read_in_place_and_nothing_else_is() {
        let id = RequestId::new(ClientId(7), 3);
        let bytes = Reply { id, replica: ReplicaId(2), payload: b"ok".to_vec() }.to_bytes();
        assert_eq!(read_reply(&bytes), Some((id, ReplicaId(2), &b"ok"[..])));
        assert_eq!(read_reply(&bytes[..bytes.len() - 1]), None);
        assert_eq!(read_reply(&[bytes.as_slice(), &[0]].concat()), None);
    }

    #[test]
    fn issue_sends_to_all_replicas() {
        let mut c = client();
        let id = c.issue(b"hi".to_vec());
        assert_eq!(c.replicas().len(), 3);
        assert_eq!(c.request(), Some(&Request { id, payload: b"hi".to_vec() }));
        assert_eq!(id.seq, 0);
        assert!(!c.is_idle());
    }

    #[test]
    fn completes_on_quorum() {
        let mut c = client();
        c.issue(b"req".to_vec());
        assert_eq!(c.deliver(reply(&c, 0, b"out")), None);
        assert_eq!(c.deliver(reply(&c, 1, b"out")), Some(b"out".to_vec()));
        assert!(c.is_idle());
        assert_eq!((c.request(), c.in_flight()), (None, None));
    }

    #[test]
    fn byzantine_reply_cannot_win() {
        let mut c = client();
        c.issue(b"req".to_vec());
        assert_eq!(c.deliver(reply(&c, 0, b"WRONG")), None);
        assert_eq!(c.deliver(reply(&c, 1, b"right")), None);
        assert_eq!(c.deliver(reply(&c, 2, b"right")), Some(b"right".to_vec()));
    }

    #[test]
    fn duplicate_replica_replies_ignored() {
        let mut c = client();
        c.issue(b"req".to_vec());
        assert_eq!(c.deliver(reply(&c, 0, b"out")), None);
        assert_eq!(c.deliver(reply(&c, 0, b"out")), None);
        assert!(!c.is_idle());
    }

    #[test]
    fn stale_replies_ignored() {
        let mut c = client();
        c.issue(b"a".to_vec());
        let stale = Reply {
            id: RequestId::new(ClientId(7), 99),
            replica: ReplicaId(0),
            payload: b"x".to_vec(),
        };
        assert_eq!(c.deliver(stale), None);
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut c = client();
        let id0 = c.issue(b"a".to_vec());
        c.deliver(reply(&c, 0, b"r"));
        c.deliver(reply(&c, 1, b"r"));
        let id1 = c.issue(b"b".to_vec());
        assert_eq!(id0.seq + 1, id1.seq);
    }

    #[test]
    #[should_panic(expected = "in flight")]
    fn double_issue_panics() {
        let mut c = client();
        c.issue(b"a".to_vec());
        c.issue(b"b".to_vec());
    }
}
