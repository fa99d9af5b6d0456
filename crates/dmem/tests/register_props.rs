//! Property-based tests of the SWMR regular register: regularity must hold
//! under arbitrary write histories and read times. The properties that
//! depend on neither virtual time nor crashes hold on both memories the
//! register runs on: the simulated fabric and passive in-process memory.

use proptest::prelude::*;
use ubft_dmem::register::{ReadOutcome, RegisterBank, RegisterId};
use ubft_rdma::{Fabric, InProcMemory, Memory};
use ubft_sim::net::{LatencyModel, NetworkModel};
use ubft_sim::{HostId, SimRng};
use ubft_types::{Duration, Time};

fn setup(seed: u64) -> (Fabric, RegisterBank) {
    let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 6);
    let mut fabric = Fabric::new(net, SimRng::new(seed));
    let mems = [HostId(3), HostId(4), HostId(5)];
    let bank = RegisterBank::create(&mut fabric, &mems, 2, 16, Duration::from_micros(10));
    (fabric, bank)
}

/// `setup`'s bank, on memory nodes 3, 4 and 5 in the process.
fn in_process() -> (InProcMemory, RegisterBank) {
    let mem = InProcMemory::new(6);
    let mems = [HostId(3), HostId(4), HostId(5)];
    let bank = RegisterBank::create(&mut &mem, &mems, 2, 16, Duration::from_micros(10));
    (mem, bank)
}

/// After a sequence of honest writes, any read that starts after the
/// last write completed returns the *latest* value — never an older one,
/// never garbage (regularity in the quiescent case).
fn quiescent_read_returns_latest_on<M: Memory>(
    mut fabric: M,
    bank: RegisterBank,
    n_writes: u64,
    gap_us: u64,
) {
    let mut w = bank.writer();
    let r = bank.reader();
    let mut now = Time::ZERO;
    let mut done = now;
    for ts in 1..=n_writes {
        done = w
            .write(&mut fabric, HostId(0), RegisterId(0), ts, &ts.to_le_bytes(), now)
            .expect("quorum write");
        now += Duration::from_micros(gap_us);
    }
    let read_at = done + Duration::from_micros(gap_us);
    match r.read(&mut fabric, HostId(1), RegisterId(0), read_at) {
        ReadOutcome::Value { ts, value, .. } => {
            prop_assert_eq!(ts, n_writes);
            prop_assert_eq!(&value[..8], &n_writes.to_le_bytes()[..]);
        }
        other => prop_assert!(false, "unexpected outcome {:?}", other),
    }
}

/// A replacement node's bank scan recovers the tail high-water mark:
/// after honest writes settle, `scan_tail` reports the highest
/// timestamp; an unwritten bank (`fresh_bank` on `fresh_fabric`) reports
/// none.
fn tail_scan_recovers_high_water_mark_on<M: Memory>(
    [(mut fabric, bank), (mut fresh_fabric, fresh_bank)]: [(M, RegisterBank); 2],
    n_writes: u64,
    gap_us: u64,
) {
    let mut w = bank.writer();
    let r = bank.reader();
    let mut now = Time::ZERO;
    let mut done = now;
    // Alternate between the two registers so the maximum is not
    // always in the last-written one.
    for ts in 1..=n_writes {
        let reg = RegisterId((ts % 2) as usize);
        done =
            w.write(&mut fabric, HostId(0), reg, ts, &ts.to_le_bytes(), now).expect("quorum write");
        now += Duration::from_micros(gap_us);
    }
    let scan = r.scan_tail(&mut fabric, HostId(1), done + Duration::from_micros(gap_us));
    prop_assert_eq!(scan.max_ts, Some(n_writes));
    prop_assert!(scan.completion > done);
    // A bank nobody ever wrote scans to nothing.
    let scan = fresh_bank.reader().scan_tail(&mut fresh_fabric, HostId(1), Time::ZERO);
    prop_assert_eq!(scan.max_ts, None);
}

/// A fresh writer of the bank, as a replacement node gets, preserves
/// regularity: once the replacement's first (fresher-timestamped) write
/// settles, readers never again return the dead writer's values.
fn rekeyed_writer_supersedes_predecessor_on<M: Memory>(
    mut fabric: M,
    bank: RegisterBank,
    predecessor_writes: u64,
) {
    let mut old_w = bank.writer();
    let mut now = Time::ZERO;
    let mut done = now;
    for ts in 1..=predecessor_writes {
        done = old_w
            .write(&mut fabric, HostId(0), RegisterId(0), ts, b"old-incarnation", now)
            .expect("quorum write");
        now += Duration::from_micros(12);
    }
    drop(old_w); // the node is dead; its cursor positions are gone
    let mut new_w = bank.writer();
    let new_ts = predecessor_writes + 10;
    let done2 = new_w
        .write(
            &mut fabric,
            HostId(1),
            RegisterId(0),
            new_ts,
            b"new-incarnation",
            done + Duration::from_micros(12),
        )
        .expect("quorum write");
    let r = bank.reader();
    match r.read(&mut fabric, HostId(2), RegisterId(0), done2 + Duration::from_micros(12)) {
        ReadOutcome::Value { ts, value, .. } => {
            prop_assert_eq!(ts, new_ts);
            prop_assert_eq!(&value[..15], b"new-incarnation");
        }
        other => prop_assert!(false, "unexpected outcome {:?}", other),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`quiescent_read_returns_latest_on`] on both memories.
    #[test]
    fn quiescent_read_returns_latest(
        n_writes in 1u64..8,
        gap_us in 12u64..40,
        seed in any::<u64>(),
    ) {
        let (fabric, bank) = setup(seed);
        quiescent_read_returns_latest_on(fabric, bank, n_writes, gap_us);
        let (mem, bank) = in_process();
        quiescent_read_returns_latest_on(&mem, bank, n_writes, gap_us);
    }

    /// A read concurrent with a write returns either the old or the new
    /// value (with a valid timestamp), or asks for a retry — never a third
    /// value (regularity in the concurrent case).
    #[test]
    fn concurrent_read_is_regular(read_offset_ns in 0u64..30_000, seed in any::<u64>()) {
        let (mut fabric, bank) = setup(seed);
        let mut w = bank.writer();
        let r = bank.reader();
        let d1 = w
            .write(&mut fabric, HostId(0), RegisterId(0), 1, b"old-value", Time::ZERO)
            .expect("write 1");
        // Second write starts after the cooldown; the read lands somewhere
        // around it.
        let start2 = d1 + Duration::from_micros(10);
        let _ = w.write(&mut fabric, HostId(0), RegisterId(0), 2, b"new-value", start2);
        let read_at = start2 + Duration::from_nanos(read_offset_ns);
        match r.read(&mut fabric, HostId(1), RegisterId(0), read_at) {
            ReadOutcome::Value { ts, value, .. } => {
                prop_assert!(ts == 1 || ts == 2, "timestamp {ts} out of history");
                let expect: &[u8] = if ts == 1 { b"old-value" } else { b"new-value" };
                prop_assert_eq!(&value[..9], expect);
            }
            ReadOutcome::Retry { .. } => {} // allowed while overlapping
            ReadOutcome::WriterByzantine { .. } => {
                prop_assert!(false, "honest writer branded byzantine");
            }
            ReadOutcome::NoQuorum => prop_assert!(false, "quorum lost without crashes"),
            ReadOutcome::IssuerCrashed => prop_assert!(false, "issuer alive but reported dead"),
        }
    }

    /// [`tail_scan_recovers_high_water_mark_on`] on both memories.
    #[test]
    fn tail_scan_recovers_high_water_mark(
        n_writes in 1u64..6,
        gap_us in 12u64..40,
        seed in any::<u64>(),
    ) {
        tail_scan_recovers_high_water_mark_on([setup(seed), setup(seed ^ 1)], n_writes, gap_us);
        let [(a, bank), (b, fresh_bank)] = [in_process(), in_process()];
        tail_scan_recovers_high_water_mark_on([(&a, bank), (&b, fresh_bank)], n_writes, gap_us);
    }

    /// A joiner scanning while the (about-to-die) writer is mid-write — a
    /// half-written register — must never invent a timestamp: it sees the
    /// old value, the new value, or (after its one retry) skips the slot.
    #[test]
    fn tail_scan_tolerates_half_written_register(
        scan_offset_ns in 0u64..30_000,
        seed in any::<u64>(),
    ) {
        let (mut fabric, bank) = setup(seed);
        let mut w = bank.writer();
        let r = bank.reader();
        let d1 = w
            .write(&mut fabric, HostId(0), RegisterId(0), 1, b"settled", Time::ZERO)
            .expect("write 1");
        let start2 = d1 + Duration::from_micros(10);
        let _ = w.write(&mut fabric, HostId(0), RegisterId(0), 2, b"in-flight", start2);
        let scan = r.scan_tail(&mut fabric, HostId(1), start2 + Duration::from_nanos(scan_offset_ns));
        // ts = 1 has settled at a quorum, so the scan can only report the
        // settled value or the newer in-flight one — never 0, never > 2.
        // A `None` is legal too: both reads of the slot overlapped the
        // write window, and the join handshake covers the gap.
        if let Some(ts) = scan.max_ts {
            prop_assert!(ts == 1 || ts == 2, "timestamp {} out of history", ts);
        }
    }

    /// [`rekeyed_writer_supersedes_predecessor_on`] on both memories.
    #[test]
    fn rekeyed_writer_supersedes_predecessor(
        predecessor_writes in 1u64..5,
        seed in any::<u64>(),
    ) {
        let (fabric, bank) = setup(seed);
        rekeyed_writer_supersedes_predecessor_on(fabric, bank, predecessor_writes);
        let (mem, bank) = in_process();
        rekeyed_writer_supersedes_predecessor_on(&mem, bank, predecessor_writes);
    }

    /// Crashing any single memory node never affects safety or liveness.
    #[test]
    fn any_single_memnode_crash_tolerated(victim in 0usize..3, seed in any::<u64>()) {
        let (mut fabric, bank) = setup(seed);
        fabric.net_mut().crash_host(HostId(3 + victim as u32), Time::ZERO);
        let mut w = bank.writer();
        let r = bank.reader();
        let done = w
            .write(&mut fabric, HostId(0), RegisterId(1), 7, b"survives", Time::ZERO)
            .expect("majority still up");
        match r.read(&mut fabric, HostId(2), RegisterId(1), done) {
            ReadOutcome::Value { ts, .. } => prop_assert_eq!(ts, 7),
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }
}
