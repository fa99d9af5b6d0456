//! The circular-buffer channel (Figure 6).
//!
//! Slot layout: `[checksum: 8 B][incarnation: 4 B][size: 4 B][payload…]`.
//! Message with sequence number `n` (0-based) goes to slot `n % t` with
//! incarnation `n / t + 1`, so the receiver can tell "not yet written"
//! (incarnation too low) from "overwritten" (incarnation too high) and
//! recover the exact sequence number of whatever it finds.

use std::collections::VecDeque;
use std::ops::Range;

use ubft_crypto::checksum64;
use ubft_rdma::{AccessToken, Fabric, RdmaError, RegionId};
use ubft_sim::HostId;
use ubft_types::{Few, Time};

/// Domain-separation seed for slot checksums.
const CHECKSUM_SEED: u64 = 0x4349_5243_4255_4621; // "CIRCBUF!"

/// Header bytes per slot: checksum (8) + incarnation (4) + size (4).
pub const SLOT_HEADER: usize = 16;

/// Shape of a channel: slot count (the tail `t`) and per-slot payload
/// capacity (sized for the largest message).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Number of slots (`t`): the receiver is guaranteed only the last `t`
    /// messages.
    pub slots: usize,
    /// Maximum payload bytes per message.
    pub slot_payload: usize,
}

impl ChannelSpec {
    /// Total bytes of one slot including header.
    pub fn slot_size(&self) -> usize {
        SLOT_HEADER + self.slot_payload
    }

    /// Total bytes of the receiver-side buffer (Table 2 accounting).
    pub fn buffer_bytes(&self) -> usize {
        self.slots * self.slot_size()
    }
}

/// Creates a channel into `receiver_host`, returning the sender and receiver
/// endpoints. The circular buffer lives in the receiver's memory; only the
/// sender holds the write token.
pub fn create_channel(
    fabric: &mut Fabric,
    receiver_host: HostId,
    spec: ChannelSpec,
) -> (ChannelSender, ChannelReceiver) {
    assert!(spec.slots >= 1, "channel needs at least one slot");
    let (region, token) = fabric.create_region(receiver_host, spec.buffer_bytes());
    let sender = ChannelSender {
        spec,
        region,
        token,
        next_seq: 0,
        slot_busy_until: vec![Time::ZERO; spec.slots],
        staging: VecDeque::new(),
        staged_dropped: 0,
        issuer: None,
    };
    let receiver =
        ChannelReceiver { spec, region, host: receiver_host, expected_seq: 0, skipped: 0 };
    (sender, receiver)
}

/// The writes issued by one send/flush call: `(sequence, arrival time at the
/// receiver's memory)`. The runtime schedules a receiver poll at each
/// arrival.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SendOutcome {
    /// Newly issued writes: one, except when a flush drains a staged burst.
    pub issued: Few<(u64, Time)>,
    /// Messages evicted from the staging queue without ever being sent.
    pub evicted: u64,
    /// Writes the fabric refused because the target (or this host) is down
    /// or cut off — what a broken RC queue pair reports. Nothing was put on
    /// the wire for them.
    pub refused: u64,
}

/// Sending endpoint: owns the write token and the local mirror bookkeeping.
#[derive(Debug)]
pub struct ChannelSender {
    spec: ChannelSpec,
    region: RegionId,
    token: AccessToken,
    next_seq: u64,
    /// Per-slot time until which an RDMA write is outstanding (the slot is
    /// "unavailable" in the paper's terms).
    slot_busy_until: Vec<Time>,
    /// Staging queue of `(seq, payload)` waiting for their slot.
    staging: VecDeque<(u64, Vec<u8>)>,
    staged_dropped: u64,
    /// The host this sender runs on (late-bound by the runtime).
    issuer: Option<HostId>,
}

impl ChannelSender {
    /// Sequence number the next message will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Messages ever evicted from staging (diagnostics).
    pub fn evicted_total(&self) -> u64 {
        self.staged_dropped
    }

    /// Number of messages currently staged.
    pub fn staged_len(&self) -> usize {
        self.staging.len()
    }

    /// Sends `payload`. First flushes any staged messages whose slots have
    /// freed up, then transmits or stages the new message.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds the slot capacity.
    pub fn send(&mut self, fabric: &mut Fabric, now: Time, payload: &[u8]) -> SendOutcome {
        assert!(
            payload.len() <= self.spec.slot_payload,
            "payload of {} bytes exceeds slot capacity {}",
            payload.len(),
            self.spec.slot_payload
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut outcome = self.flush(fabric, now);
        if self.staging.is_empty() && self.slot_free(seq, now) {
            match self.transmit(fabric, now, seq, payload) {
                Some(arrival) => outcome.issued.push((seq, arrival)),
                None => outcome.refused += 1,
            }
        } else {
            // Stage it; evict the oldest staged message if full. The staging
            // buffer mirrors the main buffer's size.
            if self.staging.len() >= self.spec.slots {
                self.staging.pop_front();
                self.staged_dropped += 1;
                outcome.evicted += 1;
            }
            self.staging.push_back((seq, payload.to_vec()));
        }
        outcome
    }

    /// Transmits staged messages whose slots are free, in order, stopping at
    /// the first unavailable slot.
    pub fn flush(&mut self, fabric: &mut Fabric, now: Time) -> SendOutcome {
        let mut outcome = SendOutcome::default();
        while let Some((seq, _)) = self.staging.front() {
            let seq = *seq;
            if !self.slot_free(seq, now) {
                break;
            }
            let (_, payload) = self.staging.pop_front().expect("checked front");
            match self.transmit(fabric, now, seq, &payload) {
                Some(arrival) => outcome.issued.push((seq, arrival)),
                None => outcome.refused += 1,
            }
        }
        outcome
    }

    /// The earliest time at which `flush` could make progress, if any
    /// message is staged (for runtime re-flush scheduling).
    pub fn next_flush_at(&self) -> Option<Time> {
        let (seq, _) = self.staging.front()?;
        Some(self.slot_busy_until[(*seq % self.spec.slots as u64) as usize])
    }

    fn slot_free(&self, seq: u64, now: Time) -> bool {
        self.slot_busy_until[(seq % self.spec.slots as u64) as usize] <= now
    }

    /// Issues the RDMA write for `seq`; `None` when the fabric refused it.
    /// The slot frame built here is the hop's one copy of the payload: the
    /// fabric takes the buffer itself as the write's in-flight image.
    fn transmit(
        &mut self,
        fabric: &mut Fabric,
        now: Time,
        seq: u64,
        payload: &[u8],
    ) -> Option<Time> {
        let slot = (seq % self.spec.slots as u64) as usize;
        let inc = (seq / self.spec.slots as u64 + 1) as u32;
        let mut frame = Vec::with_capacity(SLOT_HEADER + payload.len());
        frame.extend_from_slice(&[0u8; 8]); // checksum placeholder
        frame.extend_from_slice(&inc.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        let csum = checksum64(CHECKSUM_SEED, &frame[8..]);
        frame[..8].copy_from_slice(&csum.to_le_bytes());

        let offset = slot * self.spec.slot_size();
        let issuer = self.issuer.expect("ChannelSender::bind_issuer must be called before sending");
        match fabric.write_owned(issuer, self.token, self.region, offset, frame, now) {
            Ok(ticket) => {
                self.slot_busy_until[slot] = ticket.completion;
                Some(ticket.arrival)
            }
            Err(RdmaError::TargetUnavailable | RdmaError::IssuerUnavailable) => None,
            Err(e) => panic!("channel write failed: {e}"),
        }
    }

    /// Binds the sender to the host it runs on (used for latency and crash
    /// modelling of outgoing writes).
    pub fn bind_issuer(&mut self, host: HostId) -> &mut Self {
        self.issuer = Some(host);
        self
    }

    /// Receiver-side buffer footprint in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.spec.buffer_bytes()
    }
}

/// What a receiver poll produced. The payloads are owned buffers
/// ([`ChannelReceiver::poll`]) or ranges of the caller's buffer
/// ([`ChannelReceiver::poll_into`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PollOutcome<P = Vec<u8>> {
    /// Messages delivered in FIFO order: `(sequence, payload)`.
    pub delivered: Few<(u64, P)>,
    /// A slot looked mid-write (bad checksum): poll again shortly.
    pub repoll: bool,
}

/// Receiving endpoint: polls the local circular buffer.
#[derive(Debug)]
pub struct ChannelReceiver {
    spec: ChannelSpec,
    region: RegionId,
    host: HostId,
    expected_seq: u64,
    skipped: u64,
}

impl ChannelReceiver {
    /// The next sequence number the receiver expects to deliver.
    pub fn expected_seq(&self) -> u64 {
        self.expected_seq
    }

    /// Total messages skipped due to overwrites (diagnostics; these are the
    /// messages the tail guarantee allows to be lost).
    pub fn skipped_total(&self) -> u64 {
        self.skipped
    }

    /// The host this receiver runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Polls the buffer at virtual time `now`, delivering every message that
    /// is ready, in FIFO order, skipping ahead over overwritten slots. Each
    /// message comes back in a buffer of its own; a caller that polls all
    /// the time uses [`Self::poll_into`], which this wraps.
    pub fn poll(&mut self, fabric: &mut Fabric, now: Time) -> PollOutcome {
        let mut buf = Vec::new();
        let PollOutcome { delivered, repoll } = self.poll_into(fabric, now, &mut buf);
        let delivered = delivered.into_iter().map(|(seq, at)| (seq, buf[at].to_vec())).collect();
        PollOutcome { delivered, repoll }
    }

    /// [`Self::poll`] into a caller-provided buffer: every ready message is
    /// copied out of its slot onto the end of `buf` and validated there,
    /// and comes back as the range of `buf` that holds its payload. A
    /// caller that reuses `buf` allocates nothing, whatever arrives.
    pub fn poll_into(
        &mut self,
        fabric: &mut Fabric,
        now: Time,
        buf: &mut Vec<u8>,
    ) -> PollOutcome<Range<usize>> {
        let mut out = PollOutcome::default();
        loop {
            let slot = (self.expected_seq % self.spec.slots as u64) as usize;
            let expected_inc = (self.expected_seq / self.spec.slots as u64 + 1) as u32;
            let offset = slot * self.spec.slot_size();
            // Read the 16-byte header onto the stack first: most polls end
            // at a slot that is not written yet, and a slot is sized for the
            // largest message (KiBs) while the message is usually tiny.
            let mut header = [0u8; SLOT_HEADER];
            if fabric.local_read_into(self.host, self.region, offset, &mut header, now).is_err() {
                return out; // crashed host: nothing deliverable
            }
            let inc = u32::from_le_bytes(header[8..12].try_into().expect("header"));
            if inc < expected_inc {
                // Not written yet.
                return out;
            }
            if inc > expected_inc {
                // Overwritten: the message in this slot has sequence
                // (inc-1)*t + slot; the oldest message possibly still in the
                // buffer is that minus (t-1).
                let found_seq = (inc as u64 - 1) * self.spec.slots as u64 + slot as u64;
                let oldest_live = found_seq + 1 - self.spec.slots as u64;
                debug_assert!(oldest_live > self.expected_seq);
                self.skipped += oldest_live - self.expected_seq;
                self.expected_seq = oldest_live;
                continue;
            }
            // Incarnation matches: copy out exactly the message and validate
            // (the copy guards against in-place interference; the checksum
            // catches tearing). Both reads sample the same instant.
            let stored = u64::from_le_bytes(header[..8].try_into().expect("header"));
            let size = u32::from_le_bytes(header[12..16].try_into().expect("header")) as usize;
            if size > self.spec.slot_payload {
                out.repoll = true;
                return out;
            }
            let start = buf.len();
            buf.resize(start + SLOT_HEADER + size, 0);
            let frame = &mut buf[start..];
            let read = fabric.local_read_into(self.host, self.region, offset, frame, now);
            if read.is_err() || checksum64(CHECKSUM_SEED, &frame[8..]) != stored {
                // A crashed host delivers nothing more; a bad checksum is a
                // slot mid-write or corrupt: retry shortly.
                out.repoll = read.is_ok();
                buf.truncate(start);
                return out;
            }
            out.delivered.push((self.expected_seq, start + SLOT_HEADER..buf.len()));
            self.expected_seq += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_sim::net::{LatencyModel, NetworkModel};
    use ubft_sim::SimRng;
    use ubft_types::Duration;

    fn fabric() -> Fabric {
        let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 4);
        Fabric::new(net, SimRng::new(11))
    }

    fn spec() -> ChannelSpec {
        ChannelSpec { slots: 4, slot_payload: 64 }
    }

    fn t(us: u64) -> Time {
        Time::ZERO + Duration::from_micros(us)
    }

    #[test]
    fn single_message_roundtrip() {
        let mut f = fabric();
        let (mut tx, mut rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        let out = tx.send(&mut f, t(0), b"hello");
        assert_eq!(out.issued.len(), 1);
        let &(seq, arrival) = out.issued.last().unwrap();
        assert_eq!(seq, 0);
        let polled = rx.poll(&mut f, arrival + Duration::from_nanos(150));
        assert_eq!(polled.delivered, Few::from_iter([(0, b"hello".to_vec())]));
        assert!(!polled.repoll);
    }

    #[test]
    fn poll_into_appends_payloads_to_the_callers_buffer() {
        let mut f = fabric();
        let (mut tx, mut rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        tx.send(&mut f, t(0), b"one");
        let arrival = tx.send(&mut f, t(1), b"three").issued.last().unwrap().1;
        let mut buf = b"kept".to_vec();
        let polled = rx.poll_into(&mut f, arrival + Duration::from_micros(1), &mut buf);
        let payloads: Vec<_> = polled.delivered.iter().map(|(_, at)| &buf[at.clone()]).collect();
        assert_eq!(payloads, vec![&b"one"[..], &b"three"[..]]);
        assert!(buf.starts_with(b"kept") && !polled.repoll);
        // Nothing more is ready: the buffer is left as it is.
        let len = buf.len();
        assert!(rx
            .poll_into(&mut f, arrival + Duration::from_micros(2), &mut buf)
            .delivered
            .is_empty());
        assert_eq!(buf.len(), len);
    }

    #[test]
    fn fifo_delivery_of_many() {
        let mut f = fabric();
        let (mut tx, mut rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        let mut last_arrival = Time::ZERO;
        for i in 0..4u8 {
            let out = tx.send(&mut f, t(i as u64 * 10), &[i]);
            for (_, a) in out.issued {
                last_arrival = last_arrival.max(a);
            }
        }
        let polled = rx.poll(&mut f, last_arrival + Duration::from_micros(1));
        let seqs: Vec<u64> = polled.delivered.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        let payloads: Vec<u8> = polled.delivered.iter().map(|(_, p)| p[0]).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3]);
    }

    #[test]
    fn overwrite_skips_to_oldest_live() {
        let mut f = fabric();
        let (mut tx, mut rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        // Send 12 messages spaced in time so each write completes before its
        // slot is reused (slots=4, so messages 8..11 survive).
        let mut last = Time::ZERO;
        for i in 0..12u8 {
            let out = tx.send(&mut f, t(i as u64 * 20), &[i]);
            for (_, a) in out.issued {
                last = last.max(a);
            }
        }
        let polled = rx.poll(&mut f, last + Duration::from_micros(1));
        let seqs: Vec<u64> = polled.delivered.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![8, 9, 10, 11]);
        assert_eq!(rx.skipped_total(), 8);
    }

    #[test]
    fn staging_absorbs_bursts() {
        let mut f = fabric();
        let (mut tx, mut rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        // Burst of 8 sends at the same instant: 4 go out, 4 stage (slots
        // busy until write completion ≈ 2 µs later).
        let mut arrivals = Vec::new();
        for i in 0..8u8 {
            let out = tx.send(&mut f, t(0), &[i]);
            arrivals.extend(out.issued);
        }
        assert_eq!(arrivals.len(), 4);
        assert_eq!(tx.staged_len(), 4);
        // A receiver polling promptly sees the first wave before overwrite.
        let first_wave = arrivals.iter().map(|(_, a)| *a).max().unwrap();
        let polled = rx.poll(&mut f, first_wave);
        let seqs: Vec<u64> = polled.delivered.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // Later, flushing at each slot-free time drains the staging queue.
        let mut last = Time::ZERO;
        let mut flushed = 0;
        while let Some(flush_at) = tx.next_flush_at() {
            let out = tx.flush(&mut f, flush_at);
            flushed += out.issued.len();
            for (_, a) in out.issued {
                last = last.max(a);
            }
        }
        assert_eq!(flushed, 4);
        assert_eq!(tx.staged_len(), 0);
        let polled = rx.poll(&mut f, last + Duration::from_micros(1));
        // The staged wave arrives in order too: staging preserved FIFO.
        let seqs: Vec<u64> = polled.delivered.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7]);
    }

    #[test]
    fn staging_evicts_oldest_when_full() {
        let mut f = fabric();
        let (mut tx, _rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        let mut evicted = 0;
        for i in 0..16u8 {
            let out = tx.send(&mut f, t(0), &[i]);
            evicted += out.evicted;
        }
        // 4 transmitted, 4 staged capacity, 8 evicted.
        assert_eq!(evicted, 8);
        assert_eq!(tx.evicted_total(), 8);
        assert_eq!(tx.staged_len(), 4);
    }

    #[test]
    fn poll_before_arrival_sees_nothing() {
        let mut f = fabric();
        let (mut tx, mut rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        let out = tx.send(&mut f, t(0), b"later");
        let arrival = out.issued.last().unwrap().1;
        let early = rx.poll(&mut f, t(0));
        assert!(early.delivered.is_empty());
        assert!(!early.repoll);
        let on_time = rx.poll(&mut f, arrival);
        assert_eq!(on_time.delivered.len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds slot capacity")]
    fn oversize_payload_panics() {
        let mut f = fabric();
        let (mut tx, _rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        let _ = tx.send(&mut f, t(0), &[0u8; 65]);
    }

    #[test]
    fn crashed_receiver_drops_sends() {
        let mut f = fabric();
        let (mut tx, _rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        f.net_mut().crash_host(HostId(1), Time::ZERO);
        let out = tx.send(&mut f, t(1), b"x");
        assert!(out.issued.is_empty());
        assert_eq!(out.refused, 1);
    }

    #[test]
    fn refused_write_is_counted_and_touches_no_sender_state() {
        let mut f = fabric();
        let (mut tx, _rx) = create_channel(&mut f, HostId(1), spec());
        tx.bind_issuer(HostId(0));
        assert_eq!(tx.send(&mut f, t(0), b"up").refused, 0);
        let busy_before = tx.slot_busy_until.clone();
        f.net_mut().crash_host(HostId(1), t(1));
        // A burst at one instant: with the host up, the fifth send would
        // find slot 0 busy and stage. Refused writes leave every slot free.
        let mut refused = 0;
        for i in 0..8u8 {
            let out = tx.send(&mut f, t(10), &[i]);
            assert!(out.issued.is_empty());
            refused += out.refused;
        }
        assert_eq!(refused, 8);
        assert_eq!(tx.slot_busy_until, busy_before);
        assert_eq!(tx.staged_len(), 0);
        assert_eq!(tx.next_flush_at(), None);
    }

    #[test]
    fn buffer_accounting() {
        let s = spec();
        assert_eq!(s.slot_size(), 80);
        assert_eq!(s.buffer_bytes(), 320);
    }
}
