//! Property-based tests of the circular-buffer channel: the FIFO-of-the-tail
//! guarantee must hold under arbitrary send/poll interleavings.

use proptest::prelude::*;
use ubft_rdma::Fabric;
use ubft_sim::net::{LatencyModel, NetworkModel};
use ubft_sim::{HostId, SimRng};
use ubft_transport::channel::{create_channel, ChannelSpec};
use ubft_types::{Duration, Time};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the interleaving of sends and polls, the receiver delivers a
    /// subsequence of the sent messages in strictly increasing sequence
    /// order, and every message in the final tail window is deliverable.
    #[test]
    fn delivery_is_increasing_subsequence(
        schedule in proptest::collection::vec(any::<bool>(), 4..120),
        slots in 2usize..12,
        seed in any::<u64>(),
    ) {
        let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 2);
        let mut fabric = Fabric::new(net, SimRng::new(seed));
        let spec = ChannelSpec { slots, slot_payload: 16 };
        let (mut tx, mut rx) = create_channel(&mut fabric, HostId(1), spec);
        tx.bind_issuer(HostId(0));

        let mut now = Time::ZERO;
        let mut delivered: Vec<u64> = Vec::new();
        let mut sent = 0u64;
        for do_send in schedule {
            now += Duration::from_micros(3);
            if do_send {
                let _ = tx.send(&mut fabric, now, &sent.to_le_bytes());
                sent += 1;
            } else {
                let out = rx.poll(&mut fabric, now);
                for (seq, payload) in out.delivered {
                    // Payload integrity: the message carries its sequence.
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&payload);
                    prop_assert_eq!(u64::from_le_bytes(b), seq);
                    delivered.push(seq);
                }
            }
        }
        // Strictly increasing (FIFO, no duplication).
        for w in delivered.windows(2) {
            prop_assert!(w[0] < w[1], "out of order: {:?}", w);
        }
        // A final quiescent poll drains everything still in the tail.
        now += Duration::from_micros(50);
        let _ = tx.flush(&mut fabric, now);
        now += Duration::from_micros(50);
        let out = rx.poll(&mut fabric, now);
        for (seq, _) in out.delivered {
            delivered.push(seq);
        }
        for w in delivered.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        // Tail-validity: everything not delivered was overwritten, i.e. the
        // gap between consecutive deliveries never exceeds what `slots`
        // messages of overwriting can explain.
        if let Some(&last) = delivered.last() {
            prop_assert!(last < sent);
        }
    }

    /// A near-capacity message, then one-byte messages into every other
    /// slot and into its own slot again: each is delivered byte-exact under
    /// a valid checksum, so the frame the sender reuses never carries a
    /// previous message's tail.
    #[test]
    fn short_messages_after_a_long_one_arrive_byte_exact(
        slots in 2usize..8,
        slot_payload in 16usize..256,
        short_of_capacity in 0usize..4,
        fill in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 2);
        let mut fabric = Fabric::new(net, SimRng::new(seed));
        let spec = ChannelSpec { slots, slot_payload };
        let (mut tx, mut rx) = create_channel(&mut fabric, HostId(1), spec);
        tx.bind_issuer(HostId(0));

        let long = (0..slot_payload - short_of_capacity).map(|i| fill.wrapping_add(i as u8));
        let mut messages = vec![long.collect::<Vec<u8>>()];
        messages.extend((0..=slots).map(|i| vec![!fill ^ i as u8]));
        let mut now = Time::ZERO;
        for (seq, message) in messages.into_iter().enumerate() {
            now += Duration::from_micros(20);
            let out = tx.send(&mut fabric, now, &message);
            prop_assert_eq!(out.issued.len(), 1);
            let arrival = out.issued.last().expect("one write").1;
            let polled = rx.poll(&mut fabric, arrival + Duration::from_micros(1));
            prop_assert!(!polled.repoll, "message {} failed its checksum", seq);
            let delivered: Vec<_> = polled.delivered.into_iter().collect();
            prop_assert_eq!(delivered, vec![(seq as u64, message)]);
        }
    }

    /// The sequence numbers the sender issues are dense — 0, 1, 2, … in
    /// issue order, and `next_seq()` is the count of writes issued — however
    /// sends and flushes interleave with slot exhaustion, staging evictions
    /// and a window in which the fabric refuses every write. The receiver
    /// waits at each number in turn, so a number a message took without
    /// being written would stall it until the ring wraps.
    #[test]
    fn sender_sequences_are_dense(
        ops in proptest::collection::vec((any::<bool>(), 0u64..3), 1..200),
        slots in 2usize..8,
        refuse_from in 0u64..300,
        refuse_for in 0u64..150,
    ) {
        let mut net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 2);
        let from = Time::ZERO + Duration::from_micros(refuse_from);
        net.add_partition(HostId(0), HostId(1), from, from + Duration::from_micros(refuse_for));
        let mut fabric = Fabric::new(net, SimRng::new(1));
        let spec = ChannelSpec { slots, slot_payload: 8 };
        let (mut tx, _rx) = create_channel(&mut fabric, HostId(1), spec);
        tx.bind_issuer(HostId(0));
        let mut now = Time::ZERO;
        let mut issued = 0u64;
        for (send, dt) in ops {
            now += Duration::from_micros(dt);
            let out = if send {
                tx.send(&mut fabric, now, &[0u8; 8])
            } else {
                tx.flush(&mut fabric, now)
            };
            for (seq, _) in out.issued {
                prop_assert_eq!(seq, issued);
                issued += 1;
            }
            prop_assert_eq!(tx.next_seq(), issued);
        }
    }
}
