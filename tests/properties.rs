//! Property-based tests over core data structures and protocol invariants.

use std::collections::HashMap;

use proptest::prelude::*;
use ubft::harness::CtbNet;
use ubft_crypto::checksum64;
use ubft_ctb::ctbcast::{CtbConfig, CtbEffect, SlowMode};
use ubft_ctb::wire::CtbWire;
use ubft_types::wire::{decode_seq, encode_seq, Wire, WireReader};
use ubft_types::{ReplicaId, SeqId, Slot, View};

/// Drives `N` CTBcast receivers through an adversarially scheduled run:
/// the pending moves are applied in an order chosen by `choices`,
/// fast-path `LOCKED` echoes may be dropped per `drops`, and the slow path
/// (always-signed) shares one mutable register array — modelling concurrent
/// register access between receivers in different stages.
///
/// Returns per-receiver delivered maps `k -> payload`.
fn adversarial_ctb_run(
    n_msgs: u64,
    tail: usize,
    choices: &[u16],
    drops: &[bool],
) -> Vec<HashMap<u64, Vec<u8>>> {
    const N: usize = 3;
    let cfg = CtbConfig { n: N, tail, fast_enabled: true, slow: SlowMode::Always };
    let mut net = CtbNet::new(cfg);
    for i in 0..n_msgs {
        let (_, fx) = net.ctbs[0].broadcast(vec![i as u8; 3]);
        net.emit(0, fx);
    }
    let mut step = 0usize;
    while !net.pending.is_empty() {
        let choice = choices.get(step % choices.len().max(1)).copied().unwrap_or(0);
        let pick = choice as usize % net.pending.len();
        step += 1;
        assert!(step < 200_000, "adversarial schedule diverged");
        // The adversary may drop fast-path LOCKED echoes (the network owes
        // nothing to the fast path); LOCK and SIGNED frames arrive
        // eventually per TBcast.
        let m = &net.pending[pick];
        let echo =
            matches!(m.effect, CtbEffect::Broadcast(CtbWire::Locked { .. })) && m.to != m.from;
        if echo && drops.get((step + m.to) % drops.len().max(1)).copied().unwrap_or(false) {
            net.drop_move(pick);
        } else {
            net.apply(pick);
        }
    }
    assert!(net.equivocations.iter().all(Vec::is_empty), "honest broadcaster reported");
    let mut delivered: Vec<HashMap<u64, Vec<u8>>> = vec![HashMap::new(); N];
    for (r, log) in net.delivered.into_iter().enumerate() {
        for (k, payload) in log {
            let prev = delivered[r].insert(k.0, payload);
            assert!(prev.is_none(), "duplicate delivery of {k:?} at {r}");
        }
    }
    delivered
}

proptest! {
    /// Wire roundtrip for arbitrary byte payloads.
    #[test]
    fn wire_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let bytes = data.to_bytes();
        prop_assert_eq!(Vec::<u8>::from_bytes(&bytes).unwrap(), data);
    }

    /// Wire sequences roundtrip for arbitrary u64 vectors.
    #[test]
    fn wire_seq_roundtrip(items in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut buf = Vec::new();
        encode_seq(&items, &mut buf);
        let mut r = WireReader::new(&buf);
        let back: Vec<u64> = decode_seq(&mut r).unwrap();
        prop_assert_eq!(back, items);
        prop_assert_eq!(r.remaining(), 0);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ubft_core::msg::CtbMsg::from_bytes(&data);
        let _ = ubft_core::msg::TbMsg::from_bytes(&data);
        let _ = ubft_core::msg::DirectMsg::from_bytes(&data);
        let _ = ubft_ctb::wire::CtbWire::from_bytes(&data);
        let _ = ubft_ctb::wire::TbFrame::decode(&data);
    }

    /// Checksums are deterministic and sensitive to any single-byte change.
    #[test]
    fn checksum_detects_mutation(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        idx in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let base = checksum64(1, &data);
        prop_assert_eq!(base, checksum64(1, &data));
        let mut mutated = data.clone();
        let i = idx % mutated.len();
        mutated[i] ^= flip;
        prop_assert_ne!(base, checksum64(1, &mutated));
    }

    /// SeqId ring indices stay within the tail and wrap consistently.
    #[test]
    fn ring_index_bounds(k in any::<u64>(), t in 2usize..1024) {
        let idx = SeqId(k).ring_index(t);
        prop_assert!(idx < t);
        prop_assert_eq!(idx, SeqId(k + t as u64).ring_index(t));
    }

    /// Round-robin leadership covers all replicas once per n views.
    #[test]
    fn leader_rotation_complete(n in 1usize..16, base in 0u64..1_000_000) {
        let leaders: std::collections::BTreeSet<ReplicaId> =
            (0..n as u64).map(|i| View(base + i).leader(n)).collect();
        prop_assert_eq!(leaders.len(), n);
    }

    /// The order book conserves quantity under arbitrary order streams.
    #[test]
    fn order_book_conservation(ops in proptest::collection::vec((any::<bool>(), 1u32..50, 90u32..110), 1..200)) {
        use ubft_apps::orderbook::{OrderBookApp, OrderOp};
        use ubft_core::app::App;
        let mut book = OrderBookApp::new();
        for (is_buy, qty, price) in ops {
            let req = if is_buy {
                OrderOp::Buy { price, qty }
            } else {
                OrderOp::Sell { price, qty }
            };
            let resp = book.execute(&req.to_bytes());
            prop_assert_eq!(resp[0], 0, "well-formed orders always succeed");
            if let (Some(bid), Some(ask)) = (book.best_bid(), book.best_ask()) {
                prop_assert!(bid < ask, "book must never cross");
            }
        }
    }

    /// KV stores with the same operation history have identical snapshots
    /// (SMR determinism).
    #[test]
    fn kv_replicas_converge(ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..100)) {
        use ubft_apps::kv::{KvApp, KvFrontend, KvOp};
        use ubft_core::app::App;
        let mut a = KvApp::new(KvFrontend::Memcached);
        let mut b = KvApp::new(KvFrontend::Memcached);
        for (k, v) in ops {
            let op = match v % 3 {
                0 => KvOp::Get { key: vec![k] },
                1 => KvOp::Set { key: vec![k], value: vec![v] },
                _ => KvOp::Del { key: vec![k] },
            };
            let bytes = op.to_bytes();
            prop_assert_eq!(a.execute(&bytes), b.execute(&bytes));
        }
        prop_assert_eq!(a.snapshot_digest(), b.snapshot_digest());
    }

    /// TBcast receivers never deliver the same sequence number twice, under
    /// arbitrary reordered/duplicated frames.
    #[test]
    fn tbcast_no_duplication(ks in proptest::collection::vec(1u64..64, 1..256)) {
        let mut rx = ubft_ctb::tbcast::TailReceiver::new(128);
        let mut delivered = std::collections::HashSet::new();
        for k in ks {
            if rx.on_wire(SeqId(k)).deliver {
                prop_assert!(delivered.insert(k), "duplicate delivery of {:?}", k);
            }
        }
    }

    /// Slots and views are ordered consistently with their numeric values.
    #[test]
    fn id_ordering(a in any::<u64>(), b in any::<u64>()) {
        prop_assert_eq!(Slot(a) < Slot(b), a < b);
        prop_assert_eq!(View(a) < View(b), a < b);
        prop_assert_eq!(SeqId(a) < SeqId(b), a < b);
    }

    /// CTBcast under an adversarial scheduler: arbitrary interleavings of
    /// every protocol stage (including concurrent register access between
    /// receivers) and arbitrary loss of fast-path LOCKED echoes. The
    /// Algorithm 1 properties must hold on every schedule:
    /// *agreement* (no two receivers deliver different payloads for one id),
    /// *integrity* (delivered payloads are what the broadcaster sent), and
    /// — because the always-signed slow path backstops every message —
    /// *tail-validity* (ids within the final tail are delivered by all).
    #[test]
    fn ctbcast_safe_under_adversarial_scheduling(
        n_msgs in 1u64..10,
        choices in proptest::collection::vec(any::<u16>(), 16..128),
        drops in proptest::collection::vec(any::<bool>(), 8..32),
    ) {
        let tail = 4usize;
        let delivered = adversarial_ctb_run(n_msgs, tail, &choices, &drops);
        // Integrity + agreement.
        for d in &delivered {
            for (k, payload) in d {
                prop_assert_eq!(payload.as_slice(), &[(k - 1) as u8; 3][..]);
            }
        }
        // Tail-validity: everyone delivers the final `tail` ids.
        let lo = n_msgs.saturating_sub(tail as u64) + 1;
        for (r, d) in delivered.iter().enumerate() {
            for k in lo..=n_msgs {
                prop_assert!(d.contains_key(&k), "receiver {} missed in-tail id {}", r, k);
            }
        }
    }
}
