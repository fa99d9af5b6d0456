//! An in-memory key-value store with two protocol frontends.
//!
//! One storage engine backs both of the paper's KV applications; the
//! frontend only changes the calibration constant (Memcached and Redis have
//! different measured unreplicated latencies in Figure 7: 17.0 µs vs
//! 17.6 µs at p90) and the reported name. Workloads use 16 B keys and 32 B
//! values, 30% GETs of which 80% hit (§7.1).

use std::collections::BTreeMap;

use ubft_core::App;
use ubft_crypto::{checksum64, sha256, Digest};
use ubft_types::wire::{Wire, WireReader};
use ubft_types::Duration;

/// Which production system the frontend emulates (calibration only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvFrontend {
    /// Memcached-like (binary protocol, slab allocator class).
    Memcached,
    /// Redis-like (RESP protocol, event loop class).
    Redis,
}

/// A key-value operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Look up `key`.
    Get {
        /// The key.
        key: Vec<u8>,
    },
    /// Bind `key` to `value`.
    Set {
        /// The key.
        key: Vec<u8>,
        /// The value.
        value: Vec<u8>,
    },
    /// Remove `key`.
    Del {
        /// The key.
        key: Vec<u8>,
    },
}

ubft_types::wire!(KvOp { 0 => Get { key }, 1 => Set { key, value }, 2 => Del { key } });

/// Seed for the incremental state fingerprint.
const KV_HASH_SEED: u64 = 0x4B56_5354_4F52_4521; // "KVSTORE!"

/// Responses are a status byte followed by an optional value.
const STATUS_OK: u8 = 0;
const STATUS_NOT_FOUND: u8 = 1;
const STATUS_BAD_REQUEST: u8 = 2;

/// The replicated key-value store.
#[derive(Clone, Debug)]
pub struct KvApp {
    frontend: KvFrontend,
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Incrementally-maintained state fingerprint: XOR of per-entry hashes
    /// (order-independent, so insert/remove maintain it in O(1)).
    entry_xor: u64,
    executed: u64,
}

impl KvApp {
    /// Creates an empty store with the given frontend calibration.
    pub fn new(frontend: KvFrontend) -> Self {
        KvApp { frontend, map: BTreeMap::new(), entry_xor: 0, executed: 0 }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read access (tests and examples).
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.map.get(key).map(|v| v.as_slice())
    }

    fn entry_hash(key: &[u8], value: &[u8]) -> u64 {
        let mut buf = Vec::with_capacity(key.len() + value.len() + 8);
        (key.len() as u32).encode(&mut buf);
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        checksum64(KV_HASH_SEED, &buf)
    }
}

impl App for KvApp {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        self.executed += 1;
        let Ok(op) = KvOp::from_bytes(request) else {
            return vec![STATUS_BAD_REQUEST];
        };
        match op {
            KvOp::Get { key } => match self.map.get(&key) {
                Some(v) => {
                    let mut out = vec![STATUS_OK];
                    out.extend_from_slice(v);
                    out
                }
                None => vec![STATUS_NOT_FOUND],
            },
            KvOp::Set { key, value } => {
                if let Some(old) = self.map.get(&key) {
                    self.entry_xor ^= Self::entry_hash(&key, old);
                }
                self.entry_xor ^= Self::entry_hash(&key, &value);
                self.map.insert(key, value);
                vec![STATUS_OK]
            }
            KvOp::Del { key } => match self.map.remove(&key) {
                Some(old) => {
                    self.entry_xor ^= Self::entry_hash(&key, &old);
                    vec![STATUS_OK]
                }
                None => vec![STATUS_NOT_FOUND],
            },
        }
    }

    fn snapshot_digest(&self) -> Digest {
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(&self.entry_xor.to_le_bytes());
        buf.extend_from_slice(&(self.map.len() as u64).to_le_bytes());
        sha256(&buf)
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        // Entries in key order (BTreeMap iteration), so equal stores
        // serialize identically; `entry_xor` is recomputed on restore.
        let mut buf = Vec::new();
        self.executed.encode(&mut buf);
        (self.map.len() as u64).encode(&mut buf);
        for (k, v) in &self.map {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        buf
    }

    fn restore_bytes(&mut self, bytes: &[u8]) {
        let mut r = WireReader::new(bytes);
        self.executed = u64::decode(&mut r).expect("kv snapshot: executed");
        let len = u64::decode(&mut r).expect("kv snapshot: len");
        self.map.clear();
        self.entry_xor = 0;
        for _ in 0..len {
            let k = Vec::<u8>::decode(&mut r).expect("kv snapshot: key");
            let v = Vec::<u8>::decode(&mut r).expect("kv snapshot: value");
            self.entry_xor ^= Self::entry_hash(&k, &v);
            self.map.insert(k, v);
        }
    }

    fn execute_cost(&self, _request: &[u8]) -> Duration {
        // Calibration constants: unreplicated p90 of 17.0 µs / 17.6 µs
        // (Figure 7) minus the ~2.4 µs RPC round trip.
        match self.frontend {
            KvFrontend::Memcached => Duration::from_nanos(14_600),
            KvFrontend::Redis => Duration::from_nanos(15_200),
        }
    }

    fn sequential_model(&self) -> Option<Box<dyn App>> {
        Some(Box::new(KvApp::new(self.frontend)))
    }

    fn name(&self) -> &'static str {
        match self.frontend {
            KvFrontend::Memcached => "memcached",
            KvFrontend::Redis => "redis",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_types::CodecError;

    fn set(k: &[u8], v: &[u8]) -> Vec<u8> {
        KvOp::Set { key: k.to_vec(), value: v.to_vec() }.to_bytes()
    }
    fn get(k: &[u8]) -> Vec<u8> {
        KvOp::Get { key: k.to_vec() }.to_bytes()
    }
    fn del(k: &[u8]) -> Vec<u8> {
        KvOp::Del { key: k.to_vec() }.to_bytes()
    }

    #[test]
    fn set_get_del_roundtrip() {
        let mut kv = KvApp::new(KvFrontend::Memcached);
        assert_eq!(kv.execute(&set(b"k", b"v")), vec![STATUS_OK]);
        assert_eq!(kv.execute(&get(b"k")), [&[STATUS_OK][..], b"v"].concat());
        assert_eq!(kv.execute(&del(b"k")), vec![STATUS_OK]);
        assert_eq!(kv.execute(&get(b"k")), vec![STATUS_NOT_FOUND]);
        assert_eq!(kv.execute(&del(b"k")), vec![STATUS_NOT_FOUND]);
    }

    #[test]
    fn overwrite_replaces_value() {
        let mut kv = KvApp::new(KvFrontend::Redis);
        kv.execute(&set(b"k", b"v1"));
        kv.execute(&set(b"k", b"v2"));
        assert_eq!(kv.get(b"k"), Some(&b"v2"[..]));
        assert_eq!(kv.len(), 1);
    }

    #[test]
    fn malformed_request_is_rejected_deterministically() {
        let mut kv = KvApp::new(KvFrontend::Memcached);
        assert_eq!(kv.execute(&[0xFF, 0x01]), vec![STATUS_BAD_REQUEST]);
    }

    /// Clients encode these bytes and replicas decode them: a workload's
    /// requests, and so every KV run, depend on them.
    #[test]
    fn encodings_match_the_pinned_bytes() {
        let hex = |bytes: Vec<u8>| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(hex(get(b"k")), "00010000006b");
        assert_eq!(hex(set(b"k", b"vv")), "01010000006b020000007676");
        assert_eq!(hex(del(b"k")), "02010000006b");
        assert_eq!(KvOp::from_bytes(&[0xff]), Err(CodecError::BadTag { ty: "KvOp", tag: 0xff }));
    }

    #[test]
    fn snapshot_is_order_independent_but_content_sensitive() {
        let mut a = KvApp::new(KvFrontend::Memcached);
        let mut b = KvApp::new(KvFrontend::Memcached);
        a.execute(&set(b"x", b"1"));
        a.execute(&set(b"y", b"2"));
        b.execute(&set(b"y", b"2"));
        b.execute(&set(b"x", b"1"));
        assert_eq!(a.snapshot_digest(), b.snapshot_digest());
        b.execute(&set(b"x", b"DIFFERENT"));
        assert_ne!(a.snapshot_digest(), b.snapshot_digest());
    }

    #[test]
    fn delete_restores_prior_snapshot() {
        let mut kv = KvApp::new(KvFrontend::Memcached);
        kv.execute(&set(b"base", b"v"));
        let before = kv.snapshot_digest();
        kv.execute(&set(b"tmp", b"t"));
        kv.execute(&del(b"tmp"));
        assert_eq!(kv.snapshot_digest(), before);
    }

    #[test]
    fn snapshot_transfer_roundtrip() {
        let mut a = KvApp::new(KvFrontend::Redis);
        for i in 0..20u8 {
            a.execute(&set(&[i], &[i, i]));
        }
        a.execute(&del(&[3]));
        let mut b = KvApp::new(KvFrontend::Redis);
        b.restore_bytes(&a.snapshot_bytes());
        assert_eq!(b.snapshot_digest(), a.snapshot_digest());
        assert_eq!(b.len(), a.len());
        assert_eq!(b.get(&[5]), Some(&[5u8, 5][..]));
        // The restored instance evolves identically (entry_xor rebuilt).
        a.execute(&set(b"post", b"restore"));
        b.execute(&set(b"post", b"restore"));
        assert_eq!(a.snapshot_digest(), b.snapshot_digest());
    }

    #[test]
    fn frontends_differ_only_in_calibration() {
        let m = KvApp::new(KvFrontend::Memcached);
        let r = KvApp::new(KvFrontend::Redis);
        assert_eq!(m.name(), "memcached");
        assert_eq!(r.name(), "redis");
        assert!(m.execute_cost(b"") < r.execute_cost(b""));
    }
}
