//! Signatures with transferable authentication, simulated.
//!
//! The paper assumes public-key cryptography: each process signs with a
//! private key and anyone can verify with pre-published public keys (§2.4).
//! Inside a single-address-space simulation we model this with per-process
//! secret MAC keys and a shared [`KeyRing`] acting as the pre-published key
//! directory: only the owner of a secret can produce a valid tag, and any
//! process can verify any tag, so unforgeability and *transferability* (a
//! verified proof can be forwarded and re-verified by others) both hold.
//!
//! The runtime charges virtual-time costs for sign/verify separately; this
//! module is purely functional.

use std::collections::BTreeMap;
use std::sync::Arc;

use ubft_types::wire::Wire;
use ubft_types::{FixedState, Inline, ProcessId};

use crate::hmac::{digest_eq, hmac_sha256};
use crate::sha256::Digest;

/// A signature over a byte string by a specific process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Signature(Digest);

impl Signature {
    /// A syntactically valid but never-verifying placeholder, useful for
    /// Byzantine test fixtures.
    pub fn garbage() -> Signature {
        Signature(Digest::from_bytes([0xEE; 32]))
    }
}

ubft_types::wire!(Signature(0));

/// The signing half of a key pair, held only by its owner.
#[derive(Clone, Debug)]
pub struct Signer {
    id: ProcessId,
    secret: [u8; 32],
}

impl Signer {
    /// The identity this signer signs as.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Signs `msg`.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(hmac_sha256(&self.secret, msg))
    }

    /// A hasher state keyed from this signer's secret: the same in every
    /// run of a seeded deployment, and not computable by anyone who does not
    /// hold the key. For the owner's maps keyed by what clients choose.
    pub fn hash_state(&self) -> FixedState {
        let tag = hmac_sha256(&self.secret, b"ubft map hasher key");
        FixedState::keyed(u64::from_le_bytes(tag.as_bytes()[..8].try_into().expect("8 bytes")))
    }
}

/// The pre-published key directory: maps every process to its verification
/// key. Cloning is cheap (shared storage).
#[derive(Clone, Debug)]
pub struct KeyRing {
    keys: Arc<BTreeMap<ProcessId, [u8; 32]>>,
}

impl KeyRing {
    /// Deterministically generates keys for `ids` from a master `seed`.
    pub fn generate(seed: u64, ids: impl IntoIterator<Item = ProcessId>) -> Self {
        let mut keys = BTreeMap::new();
        for id in ids {
            let mut material = seed.to_le_bytes().to_vec();
            id.encode(&mut material);
            let d = crate::sha256::sha256(&material);
            keys.insert(id, *d.as_bytes());
        }
        KeyRing { keys: Arc::new(keys) }
    }

    /// Returns the signer for `id`, or `None` if `id` is unknown.
    ///
    /// In a real deployment each process would hold only its own private
    /// key; tests and the runtime hand each actor exactly one signer.
    pub fn signer(&self, id: ProcessId) -> Option<Signer> {
        self.keys.get(&id).map(|secret| Signer { id, secret: *secret })
    }

    /// Verifies that `sig` is `id`'s signature over `msg`.
    pub fn verify(&self, id: ProcessId, msg: &[u8], sig: &Signature) -> bool {
        match self.keys.get(&id) {
            Some(secret) => digest_eq(&hmac_sha256(secret, msg), &sig.0),
            None => false,
        }
    }

    /// Number of known identities.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// An aggregated certificate: `count` distinct processes' signatures over the
/// same byte string (the paper's `f + 1`-signed proofs, e.g. COMMIT
/// certificates, checkpoint certificates, and CTBcast summaries). It
/// encodes as the `Vec` of its shares and keeps two in place: `f + 1` at
/// `f = 1`, where building, cloning and decoding one allocates nothing. A
/// third share moves them to the heap. Room for a third in place would
/// make every message that carries a certificate, and so every engine
/// effect, 40 bytes wider.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Certificate {
    shares: Inline<(ProcessId, Signature), 2>,
}

impl Certificate {
    /// Creates an empty certificate.
    pub fn new() -> Self {
        Certificate { shares: Inline::default() }
    }

    /// Adds a share; returns `false` (and ignores it) if the signer is
    /// already present.
    pub fn add(&mut self, signer: ProcessId, sig: Signature) -> bool {
        if self.shares.iter().any(|(p, _)| *p == signer) {
            return false;
        }
        self.shares.push((signer, sig));
        true
    }

    /// Number of distinct signers.
    pub fn count(&self) -> usize {
        self.shares.len()
    }

    /// The distinct signers.
    pub fn signers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.shares.iter().map(|(p, _)| *p)
    }

    /// Verifies that the certificate carries at least `quorum` valid
    /// signatures from distinct processes over `msg`. A signer counts at
    /// its first share only, as [`Certificate::add`] keeps it.
    pub fn verify(&self, ring: &KeyRing, msg: &[u8], quorum: usize) -> bool {
        let first = |i: usize, p: &ProcessId| !self.signers().take(i).any(|q| q == *p);
        let shares = self.shares.iter().enumerate();
        shares.filter(|(i, (p, sig))| first(*i, p) && ring.verify(*p, msg, sig)).count() >= quorum
    }
}

ubft_types::wire!(Certificate { shares });

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_types::{ClientId, ReplicaId};

    fn ring() -> KeyRing {
        KeyRing::generate(
            1,
            [
                ProcessId::Replica(ReplicaId(0)),
                ProcessId::Replica(ReplicaId(1)),
                ProcessId::Replica(ReplicaId(2)),
                ProcessId::Client(ClientId(0)),
            ],
        )
    }

    #[test]
    fn sign_verify_roundtrip() {
        let ring = ring();
        let s = ring.signer(ProcessId::Replica(ReplicaId(1))).unwrap();
        let sig = s.sign(b"hello");
        assert!(ring.verify(ProcessId::Replica(ReplicaId(1)), b"hello", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let ring = ring();
        let s = ring.signer(ProcessId::Replica(ReplicaId(1))).unwrap();
        let sig = s.sign(b"hello");
        assert!(!ring.verify(ProcessId::Replica(ReplicaId(1)), b"hellp", &sig));
    }

    #[test]
    fn wrong_signer_rejected() {
        // A signature by r1 must not verify as r2: no forgery by identity swap.
        let ring = ring();
        let s = ring.signer(ProcessId::Replica(ReplicaId(1))).unwrap();
        let sig = s.sign(b"hello");
        assert!(!ring.verify(ProcessId::Replica(ReplicaId(2)), b"hello", &sig));
    }

    #[test]
    fn unknown_identity_rejected() {
        let ring = ring();
        let s = ring.signer(ProcessId::Replica(ReplicaId(0))).unwrap();
        let sig = s.sign(b"x");
        assert!(!ring.verify(ProcessId::Replica(ReplicaId(42)), b"x", &sig));
        assert!(ring.signer(ProcessId::Replica(ReplicaId(42))).is_none());
    }

    #[test]
    fn garbage_signature_rejected() {
        let ring = ring();
        assert!(!ring.verify(ProcessId::Replica(ReplicaId(0)), b"x", &Signature::garbage()));
    }

    #[test]
    fn deterministic_across_rings() {
        // Same seed => same keys, so signatures transfer between processes
        // that each derived the ring independently.
        let a = ring();
        let b = ring();
        let sig = a.signer(ProcessId::Client(ClientId(0))).unwrap().sign(b"m");
        assert!(b.verify(ProcessId::Client(ClientId(0)), b"m", &sig));
    }

    #[test]
    fn certificate_quorum() {
        let ring = ring();
        let msg = b"proposal";
        let mut cert = Certificate::new();
        assert!(!cert.verify(&ring, msg, 2));
        for i in 0..2u32 {
            let p = ProcessId::Replica(ReplicaId(i));
            let sig = ring.signer(p).unwrap().sign(msg);
            assert!(cert.add(p, sig));
        }
        assert!(cert.verify(&ring, msg, 2));
        assert!(!cert.verify(&ring, msg, 3));
        assert!(!cert.verify(&ring, b"other", 2));
    }

    #[test]
    fn certificate_rejects_duplicate_signers() {
        let ring = ring();
        let p = ProcessId::Replica(ReplicaId(0));
        let sig = ring.signer(p).unwrap().sign(b"m");
        let mut cert = Certificate::new();
        assert!(cert.add(p, sig));
        assert!(!cert.add(p, sig));
        assert_eq!(cert.count(), 1);
        // Even a hand-built certificate with duplicate shares only counts
        // distinct valid signers.
        let dup = Certificate { shares: [(p, sig), (p, sig)].into_iter().collect() };
        assert!(!dup.verify(&ring, b"m", 2));
    }

    #[test]
    fn certificate_with_bad_share_still_counts_valid_ones() {
        let ring = ring();
        let msg = b"m";
        let mut cert = Certificate::new();
        cert.add(ProcessId::Replica(ReplicaId(0)), Signature::garbage());
        for i in 1..3u32 {
            let p = ProcessId::Replica(ReplicaId(i));
            cert.add(p, ring.signer(p).unwrap().sign(msg));
        }
        assert!(cert.verify(&ring, msg, 2));
        assert!(!cert.verify(&ring, msg, 3));
    }

    #[test]
    fn certificate_wire_roundtrip() {
        let ring = ring();
        let mut cert = Certificate::new();
        for i in 0..3u32 {
            let p = ProcessId::Replica(ReplicaId(i));
            cert.add(p, ring.signer(p).unwrap().sign(b"payload"));
        }
        ubft_types::wire::roundtrip(&cert);
    }

    #[test]
    fn certificate_encoding_matches_the_pinned_bytes() {
        let mut cert = Certificate::new();
        cert.add(ProcessId::Replica(ReplicaId(0)), Signature::garbage());
        cert.add(ProcessId::Client(ClientId(3)), Signature::garbage());
        let hex: String = cert.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        let sig = "ee".repeat(32);
        assert_eq!(hex, format!("020000000000000000{sig}0103000000{sig}"));
    }
}
