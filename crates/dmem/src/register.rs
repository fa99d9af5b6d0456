//! Replicated SWMR regular registers (§6.1, Figure 5).
//!
//! Layout of one sub-register: `[checksum: 8 B][timestamp: 8 B][value]`.
//! A register is two sub-registers (double buffering); a *replicated*
//! register is one such pair on each of the `2f_m + 1` memory nodes.

use std::cell::RefCell;

use ubft_crypto::checksum64;
use ubft_rdma::{AccessToken, Fabric, RdmaError, RegionId};
use ubft_sim::HostId;
use ubft_types::{Duration, Time};

/// Seed for sub-register checksums (domain separation from transport
/// checksums).
const CHECKSUM_SEED: u64 = 0x5157_4D52_5245_4721; // "SWMRREG!"

const HEADER: usize = 16; // checksum + timestamp

/// Index of a register within a [`RegisterBank`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(pub usize);

/// One replica's view of a register replicated across memory nodes: the
/// region ids of its copies, in memory-node order.
#[derive(Clone, Debug)]
struct Replicas {
    regions: Vec<RegionId>,
    value_size: usize,
}

impl Replicas {
    fn sub_size(&self) -> usize {
        HEADER + self.value_size
    }
    fn reg_size(&self) -> usize {
        2 * self.sub_size()
    }
}

/// A bank of `count` registers owned by one writer, replicated across the
/// memory nodes. Produces the writer handle and any number of reader handles.
#[derive(Clone, Debug)]
pub struct RegisterBank {
    replicas: Vec<Replicas>,
    tokens: Vec<Vec<AccessToken>>,
    delta: Duration,
}

impl RegisterBank {
    /// Registers `count` registers of `value_size` bytes on each of the
    /// `mem_hosts`, writable by the bank's owner.
    ///
    /// The paper stores only a message id and a 32-byte fingerprint per
    /// register (§7.6), so `value_size` is typically ~40 bytes.
    pub fn create(
        fabric: &mut Fabric,
        mem_hosts: &[HostId],
        count: usize,
        value_size: usize,
        delta: Duration,
    ) -> Self {
        let mut replicas = Vec::with_capacity(count);
        let mut tokens = Vec::with_capacity(count);
        for _ in 0..count {
            let mut regions = Vec::with_capacity(mem_hosts.len());
            let mut toks = Vec::with_capacity(mem_hosts.len());
            let reg_size = 2 * (HEADER + value_size);
            for &host in mem_hosts {
                let (region, tok) = fabric.create_region(host, reg_size);
                regions.push(region);
                toks.push(tok);
            }
            replicas.push(Replicas { regions, value_size });
            tokens.push(toks);
        }
        RegisterBank { replicas, tokens, delta }
    }

    /// The writer handle (held only by the owning replica).
    pub fn writer(&self) -> RegisterWriter {
        RegisterWriter {
            replicas: self.replicas.clone(),
            tokens: self.tokens.clone(),
            delta: self.delta,
            next_sub: vec![0; self.replicas.len()],
            ready_at: vec![Time::ZERO; self.replicas.len()],
        }
    }

    /// A reader handle (any replica may hold one).
    pub fn reader(&self) -> RegisterReader {
        RegisterReader {
            replicas: self.replicas.clone(),
            delta: self.delta,
            scratch: RefCell::default(),
        }
    }

    /// Re-keys the bank to a *replacement* writer: a fresh node taking
    /// over the crashed owner's identity gets a writer whose double-buffer
    /// cursors and δ cooldowns restart from scratch (the old node's cursor
    /// positions died with it). This is safe with concurrent readers: the
    /// replacement writes strictly fresher timestamps, sub-registers are
    /// still alternated per register from the restart point, and readers
    /// take the highest valid timestamp — a restarted cursor can at worst
    /// overwrite the *older* of the two sub-registers' values, which
    /// regular-register semantics already permit.
    pub fn rekey_writer(&self) -> RegisterWriter {
        self.writer()
    }

    /// Total bytes this bank occupies on **one** memory node (Table 2
    /// accounting).
    pub fn bytes_per_node(&self) -> usize {
        self.replicas.iter().map(|r| r.reg_size()).sum()
    }
}

/// The single writer of a bank of registers.
#[derive(Clone, Debug)]
pub struct RegisterWriter {
    replicas: Vec<Replicas>,
    tokens: Vec<Vec<AccessToken>>,
    delta: Duration,
    next_sub: Vec<usize>,
    ready_at: Vec<Time>,
}

impl RegisterWriter {
    /// Writes `(ts, value)` to register `reg`, alternating sub-registers and
    /// honouring the `δ` cooldown: if called before the register is ready the
    /// write *starts* at the ready time (the writer blocks, as in the paper).
    ///
    /// Returns [`WriteOutcome::Done`] with the virtual time at which a
    /// majority (`f_m + 1`) of memory nodes completed the write,
    /// [`WriteOutcome::NoQuorum`] when no majority is reachable (more
    /// than `f_m` memory nodes crashed — outside the fault model), or
    /// [`WriteOutcome::IssuerCrashed`] when the issuer itself was dead at
    /// the write's (possibly δ-deferred) start.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the register's value size.
    pub fn write(
        &mut self,
        fabric: &mut Fabric,
        issuer: HostId,
        reg: RegisterId,
        ts: u64,
        value: &[u8],
        now: Time,
    ) -> WriteOutcome {
        self.write_internal(fabric, issuer, reg, ts, value, now, true)
    }

    /// Byzantine variant: writes a bogus checksum (a writer "writing bogus
    /// data", §6.1). Readers must detect this.
    pub fn write_corrupt(
        &mut self,
        fabric: &mut Fabric,
        issuer: HostId,
        reg: RegisterId,
        ts: u64,
        value: &[u8],
        now: Time,
    ) -> WriteOutcome {
        self.write_internal(fabric, issuer, reg, ts, value, now, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn write_internal(
        &mut self,
        fabric: &mut Fabric,
        issuer: HostId,
        reg: RegisterId,
        ts: u64,
        value: &[u8],
        now: Time,
        honest_checksum: bool,
    ) -> WriteOutcome {
        let r = &self.replicas[reg.0];
        assert!(value.len() <= r.value_size, "value exceeds register size");

        let start = now.max(self.ready_at[reg.0]);

        // A δ-cooldown-deferred write can *start* after the issuer's own
        // scheduled crash. That used to surface as per-region
        // `IssuerUnavailable` errors silently skipped below, leaving the
        // outcome indistinguishable from a crashed memory-node majority.
        // The issuer's liveness at the start time is a deterministic fact
        // of the fault schedule — check it once, up front.
        if fabric.net().is_crashed(issuer, start) {
            return WriteOutcome::IssuerCrashed;
        }

        // Frame: checksum(ts || value) | ts | value (zero-padded).
        let mut frame = vec![0u8; r.sub_size()];
        frame[8..16].copy_from_slice(&ts.to_le_bytes());
        frame[16..16 + value.len()].copy_from_slice(value);
        let csum = if honest_checksum {
            checksum64(CHECKSUM_SEED, &frame[8..])
        } else {
            0xDEAD_DEAD_DEAD_DEADu64
        };
        frame[..8].copy_from_slice(&csum.to_le_bytes());

        let sub = self.next_sub[reg.0];
        self.next_sub[reg.0] = (sub + 1) % 2;
        let offset = sub * r.sub_size();

        let mut completions: Vec<Time> = Vec::new();
        for (region, tok) in r.regions.iter().zip(&self.tokens[reg.0]) {
            match fabric.write(issuer, *tok, *region, offset, &frame, start) {
                Ok(ticket) => completions.push(ticket.completion),
                Err(RdmaError::TargetUnavailable) => {} // crashed node: no completion
                // Issuer liveness at `start` was established above, and
                // the fabric checks the same instant for every region.
                Err(RdmaError::IssuerUnavailable) => {
                    unreachable!("issuer liveness pre-checked at start time")
                }
                Err(e) => panic!("register write failed: {e}"),
            }
        }
        let quorum = r.regions.len() / 2 + 1;
        if completions.len() < quorum {
            return WriteOutcome::NoQuorum;
        }
        completions.sort_unstable();
        let done = completions[quorum - 1];
        self.ready_at[reg.0] = start + self.delta;
        WriteOutcome::Done(done)
    }

    /// The earliest time the next write to `reg` may start.
    pub fn ready_at(&self, reg: RegisterId) -> Time {
        self.ready_at[reg.0]
    }
}

/// The outcome of a quorum register write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// A majority (`f_m + 1`) of memory nodes completed the write; the
    /// time is when the quorum was reached at the issuer.
    Done(Time),
    /// Fewer than `f_m + 1` memory nodes were reachable: outside the
    /// fault model (only possible when tests crash a majority).
    NoQuorum,
    /// The *issuer itself* was crashed at the write's (possibly
    /// δ-deferred) start time. Nothing was attempted; the caller's
    /// continuation is moot and must not be scheduled. Distinct from
    /// [`WriteOutcome::NoQuorum`] so a crash-boundary race is never
    /// mistaken for a memory-node availability failure.
    IssuerCrashed,
}

impl WriteOutcome {
    /// The quorum completion time, when the write succeeded.
    pub fn done(self) -> Option<Time> {
        match self {
            WriteOutcome::Done(t) => Some(t),
            _ => None,
        }
    }

    /// Unwraps [`WriteOutcome::Done`].
    ///
    /// # Panics
    ///
    /// Panics on `NoQuorum` or `IssuerCrashed`.
    #[track_caller]
    pub fn unwrap(self) -> Time {
        match self {
            WriteOutcome::Done(t) => t,
            other => panic!("register write did not complete: {other:?}"),
        }
    }

    /// Unwraps [`WriteOutcome::Done`] with a caller-supplied message.
    ///
    /// # Panics
    ///
    /// Panics on `NoQuorum` or `IssuerCrashed`.
    #[track_caller]
    pub fn expect(self, msg: &str) -> Time {
        match self {
            WriteOutcome::Done(t) => t,
            other => panic!("{msg}: {other:?}"),
        }
    }
}

/// The outcome of a quorum register read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A valid value was found.
    Value {
        /// The value's logical timestamp.
        ts: u64,
        /// The value bytes (padded to the register's value size).
        value: Vec<u8>,
        /// When the read completed at the issuer.
        completion: Time,
    },
    /// No valid sub-register was found and the read was fast (`< δ`): the
    /// writer is Byzantine, so the protocol-defined default applies.
    WriterByzantine {
        /// When the verdict was reached.
        completion: Time,
    },
    /// No valid sub-register was found but the read was slow (`≥ δ`), so a
    /// concurrent write may explain it: the caller must retry at
    /// `completion`.
    Retry {
        /// When the retry may be issued.
        completion: Time,
    },
    /// Fewer than `f_m + 1` memory nodes answered: outside the fault model
    /// (only possible when tests crash a majority).
    NoQuorum,
    /// The *issuer itself* was crashed when the read was issued (a retry
    /// re-issued at a future completion time can land past the issuer's
    /// own scheduled crash). Distinct from [`ReadOutcome::NoQuorum`] so a
    /// crash-boundary race is never mistaken for a memory-node
    /// availability failure.
    IssuerCrashed,
}

/// The result of scanning a whole bank for its highest written timestamp
/// ([`RegisterReader::scan_tail`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TailScan {
    /// Highest valid timestamp found anywhere in the bank (`None` when the
    /// bank has never been written — or every slot read back torn twice).
    pub max_ts: Option<u64>,
    /// When the slowest contributing quorum read completed.
    pub completion: Time,
}

/// A reader of a bank of registers.
#[derive(Clone, Debug)]
pub struct RegisterReader {
    replicas: Vec<Replicas>,
    delta: Duration,
    /// Where [`RegisterReader::read`] puts what the memory nodes answer,
    /// kept from one read to the next.
    scratch: RefCell<ReadScratch>,
}

/// One quorum read's working memory.
#[derive(Clone, Debug, Default)]
struct ReadScratch {
    /// The memory nodes' register images, back to back in node order.
    images: Vec<u8>,
    /// When each answering node's image reached the issuer, and which
    /// node's it is.
    answers: Vec<(Time, usize)>,
}

impl RegisterReader {
    /// Number of registers in the bank.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Reads register `reg`: both sub-registers from every memory node,
    /// waiting for a majority, returning the highest-timestamped valid value
    /// (the regular-register semantics of §6.1).
    pub fn read(
        &self,
        fabric: &mut Fabric,
        issuer: HostId,
        reg: RegisterId,
        now: Time,
    ) -> ReadOutcome {
        let r = &self.replicas[reg.0];
        // A retry after an overlapping write re-issues at its future
        // completion time, which can land past the issuer's own scheduled
        // crash. That used to surface as per-node errors silently skipped
        // below, collapsing into `NoQuorum` — indistinguishable from a
        // crashed memory-node majority. The issuer's liveness at `now` is
        // a deterministic fact of the fault schedule: report it as its
        // own outcome.
        if fabric.net().is_crashed(issuer, now) {
            return ReadOutcome::IssuerCrashed;
        }
        let mut scratch = self.scratch.borrow_mut();
        let ReadScratch { images, answers } = &mut *scratch;
        images.resize(r.regions.len() * r.reg_size(), 0);
        answers.clear();
        for (node, image) in images.chunks_exact_mut(r.reg_size()).enumerate() {
            match fabric.read_into(issuer, r.regions[node], 0, image, now) {
                Ok(completion) => answers.push((completion, node)),
                Err(RdmaError::TargetUnavailable) => {}
                // Issuer liveness at `now` was established above, and the
                // fabric checks the same instant for every node.
                Err(RdmaError::IssuerUnavailable) => {
                    unreachable!("issuer liveness pre-checked at issue time")
                }
                Err(e) => panic!("register read failed: {e}"),
            }
        }
        let quorum = r.regions.len() / 2 + 1;
        if answers.len() < quorum {
            return ReadOutcome::NoQuorum;
        }
        // Wait for the fastest majority.
        answers.sort_by_key(|(t, _)| *t);
        answers.truncate(quorum);
        let completion = answers.last().expect("quorum >= 1").0;
        let elapsed = completion.since(now);

        let mut best: Option<(u64, &[u8])> = None;
        let mut byzantine_evidence = false;
        for (_, node) in answers.iter() {
            let (a, b) = images[node * r.reg_size()..][..r.reg_size()].split_at(r.sub_size());
            let va = Self::validate(a);
            let vb = Self::validate(b);
            if let (Some((ta, _)), Some((tb, _))) = (&va, &vb) {
                if ta == tb && *ta != 0 {
                    // Both sub-registers with the same timestamp: the writer
                    // violated round-robin discipline (§6.1).
                    byzantine_evidence = true;
                }
            }
            for v in [va, vb].into_iter().flatten() {
                if best.is_none_or(|(bt, _)| v.0 > bt) {
                    best = Some(v);
                }
            }
        }

        if byzantine_evidence {
            return ReadOutcome::WriterByzantine { completion };
        }
        match best {
            // The one copy: the winning value, which the outcome owns.
            Some((ts, value)) if ts != 0 => {
                ReadOutcome::Value { ts, value: value.to_vec(), completion }
            }
            _ => {
                // Nothing valid anywhere. Fast read => Byzantine writer;
                // slow read => possibly overlapped a write, retry.
                if elapsed < self.delta {
                    ReadOutcome::WriterByzantine { completion }
                } else {
                    ReadOutcome::Retry { completion }
                }
            }
        }
    }

    /// Reads every register of the bank and returns the highest valid
    /// timestamp found — the bank's *tail high-water mark*. A replacement
    /// node runs this over its predecessor's bank to recover how far the
    /// crashed writer's slow path had progressed, directly from the
    /// memory nodes, before asking any replica (uBFT extended version,
    /// §replacement). A read that overlaps a half-written frame retries
    /// once (the §6.1 torn-write rule); a slot that stays torn is skipped
    /// — the join handshake's `f + 1` acks cover whatever the scan missed.
    pub fn scan_tail(&self, fabric: &mut Fabric, issuer: HostId, now: Time) -> TailScan {
        let mut max_ts = None;
        let mut completion = now;
        for reg in 0..self.replicas.len() {
            let mut at = now;
            for _attempt in 0..2 {
                match self.read(fabric, issuer, RegisterId(reg), at) {
                    ReadOutcome::Value { ts, completion: c, .. } => {
                        completion = completion.max(c);
                        if max_ts.is_none_or(|m| ts > m) {
                            max_ts = Some(ts);
                        }
                        break;
                    }
                    ReadOutcome::WriterByzantine { completion: c } => {
                        completion = completion.max(c);
                        break;
                    }
                    ReadOutcome::Retry { completion: c } => {
                        completion = completion.max(c);
                        at = c;
                    }
                    ReadOutcome::NoQuorum => break,
                    // The scanning joiner itself died: every further read
                    // would fail identically, so stop scanning outright.
                    ReadOutcome::IssuerCrashed => return TailScan { max_ts, completion },
                }
            }
        }
        TailScan { max_ts, completion }
    }

    /// Validates one sub-register frame; returns `(ts, value)` when the
    /// checksum matches. Timestamp 0 (never written) is treated as invalid.
    fn validate(frame: &[u8]) -> Option<(u64, &[u8])> {
        let mut c = [0u8; 8];
        c.copy_from_slice(&frame[..8]);
        let stored = u64::from_le_bytes(c);
        if checksum64(CHECKSUM_SEED, &frame[8..]) != stored {
            return None;
        }
        let mut t = [0u8; 8];
        t.copy_from_slice(&frame[8..16]);
        let ts = u64::from_le_bytes(t);
        if ts == 0 {
            return None;
        }
        Some((ts, &frame[16..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_sim::net::{LatencyModel, NetworkModel};
    use ubft_sim::SimRng;

    fn delta() -> Duration {
        Duration::from_micros(10)
    }

    fn setup() -> (Fabric, RegisterBank) {
        let net = NetworkModel::synchronous(LatencyModel::paper_testbed(), 6);
        let mut fabric = Fabric::new(net, SimRng::new(7));
        // Hosts 0..2 are replicas, 3..5 memory nodes.
        let mems = [HostId(3), HostId(4), HostId(5)];
        let bank = RegisterBank::create(&mut fabric, &mems, 4, 40, delta());
        (fabric, bank)
    }

    fn t(us: u64) -> Time {
        Time::ZERO + Duration::from_micros(us)
    }

    #[test]
    fn write_then_read_returns_value() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let r = bank.reader();
        let done = w.write(&mut f, HostId(0), RegisterId(0), 5, b"hello", t(0)).unwrap();
        match r.read(&mut f, HostId(1), RegisterId(0), done) {
            ReadOutcome::Value { ts, value, .. } => {
                assert_eq!(ts, 5);
                assert_eq!(&value[..5], b"hello");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn highest_timestamp_wins() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let r = bank.reader();
        let d1 = w.write(&mut f, HostId(0), RegisterId(0), 1, b"old", t(0)).unwrap();
        let d2 = w.write(&mut f, HostId(0), RegisterId(0), 2, b"new", d1 + delta()).unwrap();
        match r.read(&mut f, HostId(1), RegisterId(0), d2 + delta()) {
            ReadOutcome::Value { ts, value, .. } => {
                assert_eq!(ts, 2);
                assert_eq!(&value[..3], b"new");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn unwritten_register_is_byzantine_or_retry_not_value() {
        let (mut f, bank) = setup();
        let r = bank.reader();
        // Reading a never-written register quickly: "default value" case.
        match r.read(&mut f, HostId(0), RegisterId(1), t(0)) {
            ReadOutcome::WriterByzantine { .. } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn corrupt_checksum_detected() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let r = bank.reader();
        let d1 = w.write_corrupt(&mut f, HostId(0), RegisterId(0), 1, b"junk", t(0)).unwrap();
        let d2 =
            w.write_corrupt(&mut f, HostId(0), RegisterId(0), 2, b"junk", d1 + delta()).unwrap();
        match r.read(&mut f, HostId(1), RegisterId(0), d2 + delta()) {
            ReadOutcome::WriterByzantine { .. } => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn survives_one_memory_node_crash() {
        let (mut f, bank) = setup();
        f.net_mut().crash_host(HostId(5), Time::ZERO);
        let mut w = bank.writer();
        let r = bank.reader();
        let done = w.write(&mut f, HostId(0), RegisterId(0), 9, b"alive", t(1)).unwrap();
        match r.read(&mut f, HostId(1), RegisterId(0), done) {
            ReadOutcome::Value { ts, .. } => assert_eq!(ts, 9),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn majority_crash_is_no_quorum() {
        let (mut f, bank) = setup();
        f.net_mut().crash_host(HostId(4), Time::ZERO);
        f.net_mut().crash_host(HostId(5), Time::ZERO);
        let mut w = bank.writer();
        assert_eq!(
            w.write(&mut f, HostId(0), RegisterId(0), 1, b"x", t(0)),
            WriteOutcome::NoQuorum
        );
        let r = bank.reader();
        assert_eq!(r.read(&mut f, HostId(1), RegisterId(0), t(0)), ReadOutcome::NoQuorum);
    }

    /// The crash-boundary regression (PR 5 left this conflated): an issuer
    /// that is dead at the operation's start must be reported as
    /// `IssuerCrashed` — deterministically distinct from `NoQuorum`, which
    /// means the *memory nodes* are outside the fault model.
    #[test]
    fn dead_issuer_is_distinct_from_no_quorum() {
        let (mut f, bank) = setup();
        f.net_mut().crash_host(HostId(0), t(5));
        let mut w = bank.writer();
        let r = bank.reader();
        // Before its crash the issuer operates normally.
        let done = w.write(&mut f, HostId(0), RegisterId(0), 1, b"pre", t(0)).unwrap();
        assert!(done < t(5));
        // At and past the crash boundary: IssuerCrashed, never NoQuorum.
        assert_eq!(
            w.write(&mut f, HostId(0), RegisterId(0), 2, b"post", t(5)),
            WriteOutcome::IssuerCrashed
        );
        assert_eq!(r.read(&mut f, HostId(0), RegisterId(0), t(6)), ReadOutcome::IssuerCrashed);
        // Every memory node is alive, so a *live* issuer still has quorum:
        // the verdict above was about the issuer, not the bank.
        match r.read(&mut f, HostId(1), RegisterId(0), t(6)) {
            ReadOutcome::Value { ts, .. } => assert_eq!(ts, 1),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    /// The δ-cooldown race: a write *issued* while the issuer is alive
    /// but *deferred* past its crash starts dead. It must report
    /// `IssuerCrashed`, not silently lose completions into `NoQuorum`.
    #[test]
    fn cooldown_deferred_write_past_own_crash_is_issuer_crashed() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let d1 = w.write(&mut f, HostId(0), RegisterId(0), 1, b"a", t(0)).unwrap();
        assert!(d1 < t(0) + delta());
        // Crash inside the cooldown window: the next write is issued
        // before the crash but can only start after it.
        f.net_mut().crash_host(HostId(0), t(3));
        assert_eq!(
            w.write(&mut f, HostId(0), RegisterId(0), 2, b"b", t(1)),
            WriteOutcome::IssuerCrashed
        );
    }

    /// A tail scan whose issuer dies mid-scan stops deterministically
    /// with whatever it had, instead of mis-reading the remaining
    /// registers as quorum failures.
    #[test]
    fn scan_tail_by_dead_issuer_finds_nothing() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let _ = w.write(&mut f, HostId(0), RegisterId(0), 7, b"tail", t(0)).unwrap();
        f.net_mut().crash_host(HostId(1), t(50));
        let scan = bank.reader().scan_tail(&mut f, HostId(1), t(60));
        assert_eq!(scan.max_ts, None);
        assert_eq!(scan.completion, t(60));
    }

    #[test]
    fn cooldown_enforced_between_writes() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let _ = w.write(&mut f, HostId(0), RegisterId(0), 1, b"a", t(0)).unwrap();
        assert_eq!(w.ready_at(RegisterId(0)), t(0) + delta());
        // A second write issued immediately starts only at the cooldown.
        let d2 = w.write(&mut f, HostId(0), RegisterId(0), 2, b"b", t(1)).unwrap();
        assert!(d2 >= t(0) + delta());
        assert_eq!(w.ready_at(RegisterId(0)), t(0) + delta() + delta());
    }

    #[test]
    fn registers_are_independent() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let r = bank.reader();
        let d0 = w.write(&mut f, HostId(0), RegisterId(0), 1, b"zero", t(0)).unwrap();
        let d1 = w.write(&mut f, HostId(0), RegisterId(1), 2, b"one", t(0)).unwrap();
        let later = d0.max(d1) + delta();
        match r.read(&mut f, HostId(1), RegisterId(0), later) {
            ReadOutcome::Value { ts, value, .. } => {
                assert_eq!(ts, 1);
                assert_eq!(&value[..4], b"zero");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
        match r.read(&mut f, HostId(1), RegisterId(1), later) {
            ReadOutcome::Value { ts, value, .. } => {
                assert_eq!(ts, 2);
                assert_eq!(&value[..3], b"one");
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn bytes_per_node_accounting() {
        let (_, bank) = setup();
        // 4 registers × 2 sub-registers × (16 header + 40 value) = 448 B.
        assert_eq!(bank.bytes_per_node(), 4 * 2 * 56);
    }

    #[test]
    #[should_panic(expected = "value exceeds register size")]
    fn oversized_value_panics() {
        let (mut f, bank) = setup();
        let mut w = bank.writer();
        let _ = w.write(&mut f, HostId(0), RegisterId(0), 1, &[0u8; 64], t(0));
    }
}
