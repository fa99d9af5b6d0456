//! Property-based tests of CTBcast's agreement invariant: under *arbitrary*
//! interleavings of the slow-path stages across receivers — including a
//! Byzantine broadcaster signing conflicting messages — two correct
//! receivers never deliver different messages for the same identifier.

use proptest::prelude::*;
use ubft_ctb::ctbcast::{CtbConfig, SlowMode};
use ubft_ctb::harness::CtbNet;
use ubft_ctb::wire::{fingerprint, sign_broadcast, CtbWire};
use ubft_types::{ReplicaId, SeqId};

const N: usize = 3;

/// Three receivers on the slow path only.
fn world() -> CtbNet {
    CtbNet::new(CtbConfig { n: N, tail: 4, fast_enabled: false, slow: SlowMode::Always })
}

/// Applies the pending move each entry of `schedule` picks (wrapped), then
/// whatever is left in emission order.
fn fuzz(w: &mut CtbNet, schedule: Vec<usize>) {
    for idx in schedule {
        if w.pending.is_empty() {
            break;
        }
        w.apply(idx % w.pending.len());
    }
    w.run();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Byzantine broadcaster sends conflicting SIGNED messages for the same
    /// k to different receivers; stage interleaving is fuzzed. Agreement
    /// must hold for every schedule.
    #[test]
    fn agreement_under_equivocation(schedule in proptest::collection::vec(any::<usize>(), 1..200)) {
        let mut w = world();
        let k = SeqId(1);
        let m1 = b"message-one".to_vec();
        let m2 = b"message-two".to_vec();
        let s1 = sign_broadcast(&w.ring, ReplicaId(0), k, &fingerprint(&m1));
        let s2 = sign_broadcast(&w.ring, ReplicaId(0), k, &fingerprint(&m2));
        // Receiver 1 gets m1, receiver 2 gets m2 (the equivocation).
        let out = w.ctbs[1].on_tb_deliver(ReplicaId(0), CtbWire::Signed { k, m: m1, sig: s1 });
        w.emit(1, out);
        let out = w.ctbs[2].on_tb_deliver(ReplicaId(0), CtbWire::Signed { k, m: m2, sig: s2 });
        w.emit(2, out);
        // Fuzzed interleaving, then drain deterministically.
        fuzz(&mut w, schedule);
        // Agreement: no two correct receivers deliver different payloads
        // for k.
        let payloads: Vec<&Vec<u8>> = w
            .delivered
            .iter()
            .flat_map(|d| d.iter().filter(|(kk, _)| *kk == k).map(|(_, p)| p))
            .collect();
        for pair in payloads.windows(2) {
            prop_assert_eq!(pair[0], pair[1], "agreement violated");
        }
    }

    /// An honest broadcast delivers exactly once at every receiver for
    /// every schedule (validity + no-duplication under reordering).
    #[test]
    fn honest_broadcast_delivers_once_everywhere(
        schedule in proptest::collection::vec(any::<usize>(), 1..300),
    ) {
        let mut w = world();
        let k = SeqId(1);
        let m = b"honest".to_vec();
        let sig = sign_broadcast(&w.ring, ReplicaId(0), k, &fingerprint(&m));
        for r in 0..N {
            let out =
                w.ctbs[r].on_tb_deliver(ReplicaId(0), CtbWire::Signed { k, m: m.clone(), sig });
            w.emit(r, out);
        }
        fuzz(&mut w, schedule);
        for r in 0..N {
            prop_assert_eq!(
                w.delivered[r].len(),
                1,
                "replica {} delivered {} times",
                r,
                w.delivered[r].len()
            );
            prop_assert_eq!(&w.delivered[r][0].1, &m);
        }
    }
}
