//! Property-based tests over core data structures and protocol invariants.

use std::collections::HashMap;

use proptest::prelude::*;
use ubft::harness::CtbNet;
use ubft_crypto::{checksum64, Signature};
use ubft_ctb::ctbcast::{CtbConfig, CtbEffect, SlowMode};
use ubft_ctb::wire::CtbWire;
use ubft_types::wire::{Wire, MAX_WIRE_ELEMS};
use ubft_types::{ClientId, CodecError, Inline, ProcessId, ReplicaId, SeqId, Slot, View};

/// A certificate's share as it is kept and sent.
type Share = (ProcessId, Signature);

/// What a certificate's [`Inline`] share list and a `Vec` of shares decode
/// `bytes` to, the first as the `Vec` of its elements.
fn share_lists_decode(bytes: &[u8]) -> [Result<Vec<Share>, CodecError>; 2] {
    let inline = Inline::<Share, 2>::from_bytes(bytes).map(|list| list.iter().copied().collect());
    [inline, Vec::<Share>::from_bytes(bytes)]
}

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
        let bytes = items.to_bytes();
        prop_assert_eq!(bytes.len(), 4 + 8 * items.len());
        prop_assert_eq!(Vec::<u64>::from_bytes(&bytes).unwrap(), items);
    }

    /// A certificate's inline share list is the `Vec` of its shares on the
    /// wire: for 0–8 shares it encodes to the same bytes, and every cut of
    /// them, a count over the cap and a trailing byte decode to the same
    /// value or the same error.
    #[test]
    fn an_inline_share_list_is_the_vec_of_its_shares_on_the_wire(
        raw in proptest::collection::vec((any::<bool>(), any::<u32>(), any::<u64>()), 0..9),
        extra in any::<u8>(),
    ) {
        let shares: Vec<Share> = raw
            .iter()
            .map(|&(replica, id, fill)| {
                let p = if replica { ProcessId::Replica(ReplicaId(id)) } else { ProcessId::Client(ClientId(id)) };
                let sig: Vec<u8> = (0..32).map(|i| (fill >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                (p, Signature::from_bytes(&sig).expect("32 bytes"))
            })
            .collect();
        let bytes = shares.to_bytes();
        let inline: Inline<Share, 2> = shares.iter().copied().collect();
        prop_assert_eq!(inline.encoded_len(), bytes.len());
        prop_assert_eq!(inline.to_bytes(), bytes.clone());
        let [decoded, want] = share_lists_decode(&bytes);
        prop_assert_eq!(decoded, Ok(shares.clone()));
        prop_assert_eq!(want, Ok(shares));
        for cut in 0..bytes.len() {
            let [decoded, want] = share_lists_decode(&bytes[..cut]);
            prop_assert!(want.is_err());
            prop_assert_eq!(decoded, want, "cut at {}", cut);
        }
        let mut trailing = bytes.clone();
        trailing.push(extra);
        let [decoded, want] = share_lists_decode(&trailing);
        prop_assert_eq!(decoded, want);
        let mut over = ((MAX_WIRE_ELEMS + 1) as u32).to_bytes();
        over.extend_from_slice(&bytes[4..]);
        let [decoded, want] = share_lists_decode(&over);
        prop_assert_eq!(decoded, want.clone());
        prop_assert_eq!(want, Err(CodecError::LengthOverflow { len: MAX_WIRE_ELEMS + 1 }));
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn decoder_total_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = ubft_core::msg::CtbMsg::from_bytes(&data);
        let _ = ubft_core::msg::TbMsg::from_bytes(&data);
        let _ = ubft_core::msg::DirectMsg::from_bytes(&data);
        let _ = ubft_ctb::wire::CtbWire::from_bytes(&data);
        let _ = ubft_ctb::wire::TbFrame::decode(&data);
        let _ = ubft_ctb::ctbcast::RegEntry::from_bytes(&data);
        let _ = ubft_core::msg::StateSummary::from_bytes(&data);
        let _ = ubft_core::msg::JoinStream::from_bytes(&data);
        // The apps decode their operations from client payloads.
        let _ = ubft_apps::kv::KvOp::from_bytes(&data);
        let _ = ubft_apps::orderbook::OrderOp::from_bytes(&data);
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
