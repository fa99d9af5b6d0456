//! Replicated SWMR regular registers (§6.1, Figure 5).
//!
//! Layout of one sub-register: `[checksum: 8 B][timestamp: 8 B][value]`.
//! A register is two sub-registers (double buffering); a *replicated*
//! register is one such pair on each of the `2f_m + 1` memory nodes.

use std::cell::RefCell;
use std::sync::Arc;

use ubft_crypto::checksum64;
use ubft_rdma::{AccessToken, Memory, RdmaError, RegionId};
use ubft_sim::HostId;
use ubft_types::{Duration, Time};

/// Seed for sub-register checksums (domain separation from transport
/// checksums).
const CHECKSUM_SEED: u64 = 0x5157_4D52_5245_4721; // "SWMRREG!"

const HEADER: usize = 16; // checksum + timestamp

/// Index of a register within a [`RegisterBank`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegisterId(pub usize);

/// Where a bank's registers are: every register's copy on each memory
/// node, and the value size. The bank and each of its handles share one.
#[derive(Clone, Debug)]
struct Layout {
    /// Register-major: register `reg`'s copy on node `i` is
    /// `regions[reg * nodes + i]`.
    regions: Arc<[RegionId]>,
    /// Memory nodes per register.
    nodes: usize,
    value_size: usize,
}

impl Layout {
    fn copies(&self, reg: RegisterId) -> &[RegionId] {
        &self.regions[reg.0 * self.nodes..][..self.nodes]
    }
    fn len(&self) -> usize {
        self.regions.len() / self.nodes.max(1)
    }
    fn quorum(&self) -> usize {
        self.nodes / 2 + 1
    }
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
    layout: Layout,
    /// The write capability of each of `layout.regions`, in its order.
    tokens: Arc<[AccessToken]>,
    delta: Duration,
}

impl RegisterBank {
    /// Registers `count` registers of `value_size` bytes on each of the
    /// `mem_hosts`, writable by the bank's owner.
    ///
    /// The paper stores only a message id and a 32-byte fingerprint per
    /// register (§7.6), so `value_size` is typically ~40 bytes.
    pub fn create<M: Memory>(
        mem: &mut M,
        mem_hosts: &[HostId],
        count: usize,
        value_size: usize,
        delta: Duration,
    ) -> Self {
        assert!(mem_hosts.len() <= 64, "a node set is one bit per memory node");
        let nodes = mem_hosts.len();
        let mut regions = Vec::with_capacity(count * nodes);
        let mut tokens = Vec::with_capacity(count * nodes);
        let reg_size = 2 * (HEADER + value_size);
        for _ in 0..count {
            for &host in mem_hosts {
                let (region, tok) = mem.create_region(host, reg_size);
                regions.push(region);
                tokens.push(tok);
            }
        }
        let layout = Layout { regions: regions.into(), nodes, value_size };
        RegisterBank { layout, tokens: tokens.into(), delta }
    }

    /// The writer handle (held only by the owning replica).
    pub fn writer(&self) -> RegisterWriter {
        RegisterWriter {
            layout: self.layout.clone(),
            tokens: self.tokens.clone(),
            delta: self.delta,
            cursors: vec![Cursor::default(); self.layout.len()],
            frame: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// A reader handle (any replica may hold one).
    pub fn reader(&self) -> RegisterReader {
        RegisterReader {
            layout: self.layout.clone(),
            delta: self.delta,
            scratch: RefCell::default(),
        }
    }

    /// Total bytes this bank occupies on **one** memory node (Table 2
    /// accounting).
    pub fn bytes_per_node(&self) -> usize {
        self.layout.len() * self.layout.reg_size()
    }
}

/// A writer's state of one register.
#[derive(Clone, Copy, Debug, Default)]
struct Cursor {
    /// The sub-register the next write goes to.
    next_sub: usize,
    /// The earliest time the next write may start.
    ready_at: Time,
    /// Where the last write went.
    last: WritePost,
}

/// The single writer of a bank of registers.
#[derive(Clone, Debug)]
pub struct RegisterWriter {
    layout: Layout,
    tokens: Arc<[AccessToken]>,
    delta: Duration,
    cursors: Vec<Cursor>,
    /// Where a write builds its sub-register frame, kept from one write to
    /// the next.
    frame: Vec<u8>,
    /// A write's completion time at each memory node that took it, kept
    /// likewise.
    completions: Vec<Time>,
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
    pub fn write<M: Memory>(
        &mut self,
        mem: &mut M,
        issuer: HostId,
        reg: RegisterId,
        ts: u64,
        value: &[u8],
        now: Time,
    ) -> WriteOutcome {
        self.write_internal(mem, issuer, reg, ts, value, now, true)
    }

    /// Byzantine variant: writes a bogus checksum (a writer "writing bogus
    /// data", §6.1). Readers must detect this.
    pub fn write_corrupt<M: Memory>(
        &mut self,
        mem: &mut M,
        issuer: HostId,
        reg: RegisterId,
        ts: u64,
        value: &[u8],
        now: Time,
    ) -> WriteOutcome {
        self.write_internal(mem, issuer, reg, ts, value, now, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn write_internal<M: Memory>(
        &mut self,
        mem: &mut M,
        issuer: HostId,
        reg: RegisterId,
        ts: u64,
        value: &[u8],
        now: Time,
        honest_checksum: bool,
    ) -> WriteOutcome {
        let r = &self.layout;
        assert!(value.len() <= r.value_size, "value exceeds register size");

        let cursor = &mut self.cursors[reg.0];
        let start = now.max(cursor.ready_at);

        // A δ-cooldown-deferred write can *start* after the issuer's own
        // scheduled crash. That used to surface as per-region
        // `IssuerUnavailable` errors silently skipped below, leaving the
        // outcome indistinguishable from a crashed memory-node majority.
        // The issuer's liveness at the start time is a deterministic fact
        // of the fault schedule — check it once, up front.
        cursor.last = WritePost { start, took: 0 };
        if mem.is_crashed(issuer, start) {
            return WriteOutcome::IssuerCrashed;
        }

        // Frame: checksum(ts || value) | ts | value (zero-padded). The
        // buffer held the previous write's frame: zero all of it.
        let frame = &mut self.frame;
        frame.clear();
        frame.resize(r.sub_size(), 0);
        frame[8..16].copy_from_slice(&ts.to_le_bytes());
        frame[16..16 + value.len()].copy_from_slice(value);
        let csum = if honest_checksum {
            checksum64(CHECKSUM_SEED, &frame[8..])
        } else {
            0xDEAD_DEAD_DEAD_DEADu64
        };
        frame[..8].copy_from_slice(&csum.to_le_bytes());

        let sub = cursor.next_sub;
        cursor.next_sub = (sub + 1) % 2;
        let offset = sub * r.sub_size();

        let completions = &mut self.completions;
        completions.clear();
        let tokens = &self.tokens[reg.0 * r.nodes..][..r.nodes];
        for (node, (region, tok)) in r.copies(reg).iter().zip(tokens).enumerate() {
            match mem.write(issuer, *tok, *region, offset, frame, start) {
                Ok(ticket) => {
                    completions.push(ticket.completion);
                    cursor.last.took |= 1 << node;
                }
                Err(RdmaError::TargetUnavailable) => {} // crashed node: no completion
                // Issuer liveness at `start` was established above, and
                // the memory checks the same instant for every region.
                Err(RdmaError::IssuerUnavailable) => {
                    unreachable!("issuer liveness pre-checked at start time")
                }
                Err(e) => panic!("register write failed: {e}"),
            }
        }
        let quorum = r.quorum();
        if completions.len() < quorum {
            return WriteOutcome::NoQuorum;
        }
        completions.sort_unstable();
        let done = completions[quorum - 1];
        cursor.ready_at = start + self.delta;
        WriteOutcome::Done(done)
    }

    /// The earliest time the next write to `reg` may start.
    pub fn ready_at(&self, reg: RegisterId) -> Time {
        self.cursors[reg.0].ready_at
    }

    /// Where the last write to `reg` went: a read that must find it is
    /// posted at its start, behind it on every queue pair, and counts the
    /// nodes that took it ([`RegisterReader::post`]).
    pub fn last_write(&self, reg: RegisterId) -> WritePost {
        self.cursors[reg.0].last
    }
}

/// When a register write started — after any `δ` cooldown — and which
/// memory nodes took it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WritePost {
    /// When the write was posted to the memory nodes.
    pub start: Time,
    /// The memory nodes it reached, one bit per node in bank order.
    pub took: u64,
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

/// What a quorum read found in the copies its majority returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Found<'a> {
    /// The highest-timestamped valid value (padded to the register's
    /// value size).
    Value {
        /// The value's logical timestamp.
        ts: u64,
        /// The value bytes.
        value: &'a [u8],
    },
    /// As [`ReadOutcome::WriterByzantine`].
    WriterByzantine,
    /// As [`ReadOutcome::Retry`]: post again at the read's completion.
    Retry,
}

/// A quorum read in flight ([`RegisterReader::post`]): the majority that
/// answers it, when the read reaches each of those nodes, and the copies
/// they return. Its buffers are kept from one post to the next.
#[derive(Clone, Debug, Default)]
pub struct PostedRead {
    reg: RegisterId,
    posted: Time,
    /// The answering majority, fastest first: when each answer reaches
    /// the issuer, when the read reaches that node, and which node it is.
    answers: Vec<(Time, Time, usize)>,
    /// The answers' register images, in answer order.
    images: Vec<u8>,
    /// Answers not sampled yet.
    unsampled: usize,
}

impl PostedRead {
    /// When the read reaches each answering node, by answer index: the
    /// instants [`RegisterReader::sample`] must run at.
    pub fn arrivals(&self) -> impl Iterator<Item = Time> + '_ {
        self.answers.iter().map(|(_, arrival, _)| *arrival)
    }

    /// When the majority's last answer reaches the issuer.
    pub fn completion(&self) -> Time {
        self.answers.last().map_or(self.posted, |(completion, _, _)| *completion)
    }
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
    layout: Layout,
    delta: Duration,
    /// The read [`RegisterReader::read`] posts, kept from one read to the
    /// next.
    scratch: RefCell<PostedRead>,
}

impl RegisterReader {
    /// Number of registers in the bank.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// Whether the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.layout.regions.is_empty()
    }

    /// Reads register `reg`: both sub-registers from every memory node,
    /// waiting for a majority, returning the highest-timestamped valid value
    /// (the regular-register semantics of §6.1). It is
    /// [`RegisterReader::post`] to every node, each answer sampled as soon
    /// as it is posted — so a write posted after this call never shows —
    /// and [`RegisterReader::found`].
    pub fn read<M: Memory>(
        &self,
        mem: &mut M,
        issuer: HostId,
        reg: RegisterId,
        now: Time,
    ) -> ReadOutcome {
        // A retry after an overlapping write re-issues at its future
        // completion time, which can land past the issuer's own scheduled
        // crash. That used to surface as per-node errors silently skipped,
        // collapsing into `NoQuorum` — indistinguishable from a crashed
        // memory-node majority. The issuer's liveness at `now` is a
        // deterministic fact of the fault schedule: report it as its own
        // outcome.
        if mem.is_crashed(issuer, now) {
            return ReadOutcome::IssuerCrashed;
        }
        let mut read = self.scratch.borrow_mut();
        if !self.post(mem, issuer, reg, u64::MAX, now, &mut read) {
            return ReadOutcome::NoQuorum;
        }
        for i in 0..read.answers.len() {
            self.sample(mem, &mut read, i);
        }
        let completion = read.completion();
        match self.found(&read) {
            // The one copy: the winning value, which the outcome owns.
            Found::Value { ts, value } => {
                ReadOutcome::Value { ts, value: value.to_vec(), completion }
            }
            Found::WriterByzantine => ReadOutcome::WriterByzantine { completion },
            Found::Retry => ReadOutcome::Retry { completion },
        }
    }

    /// Posts a quorum read of `reg` at `now` to the memory nodes in `nodes`
    /// (one bit per node: a read that must find a write counts only the
    /// nodes that took it, [`WritePost::took`]). Each of those nodes' hops
    /// are drawn now, in node order, and the fastest of them that make a
    /// majority of the bank answer. What each of those finds is sampled
    /// when the read reaches it ([`RegisterReader::sample`], at
    /// [`PostedRead::arrivals`]), so a write posted after this call that
    /// lands first is seen. `false` when nothing is in flight: the issuer
    /// is down or no majority answers.
    pub fn post<M: Memory>(
        &self,
        mem: &mut M,
        issuer: HostId,
        reg: RegisterId,
        nodes: u64,
        now: Time,
        read: &mut PostedRead,
    ) -> bool {
        let r = &self.layout;
        read.answers.clear();
        if mem.is_crashed(issuer, now) {
            return false;
        }
        for (node, region) in
            r.copies(reg).iter().enumerate().filter(|(node, _)| nodes >> node & 1 == 1)
        {
            match mem.post_read(issuer, *region, 0, r.reg_size(), now) {
                Ok(post) => read.answers.push((post.completion, post.arrival, node)),
                Err(RdmaError::TargetUnavailable) => {}
                Err(RdmaError::IssuerUnavailable) => {
                    unreachable!("issuer liveness pre-checked at issue time")
                }
                Err(e) => panic!("register read failed: {e}"),
            }
        }
        let quorum = r.quorum();
        if read.answers.len() < quorum {
            read.answers.clear();
            return false;
        }
        // The fastest majority; between answers that reach the issuer at
        // once, the lower node.
        read.answers.sort_unstable_by_key(|&(completion, _, node)| (completion, node));
        read.answers.truncate(quorum);
        read.images.resize(quorum * r.reg_size(), 0);
        (read.reg, read.posted, read.unsampled) = (reg, now, quorum);
        true
    }

    /// Samples the copy that answer `i` of `read` ([`PostedRead::arrivals`])
    /// reads, as its memory node holds it when the read arrives. Call it at
    /// that instant, once every write that lands before then is posted.
    /// Whether every answer of the read is in now.
    pub fn sample<M: Memory>(&self, mem: &mut M, read: &mut PostedRead, i: usize) -> bool {
        let r = &self.layout;
        let (_, arrival, node) = read.answers[i];
        let image = &mut read.images[i * r.reg_size()..][..r.reg_size()];
        mem.sample_into(r.copies(read.reg)[node], 0, image, arrival).expect("a region of the bank");
        read.unsampled -= 1;
        read.unsampled == 0
    }

    /// What `read` found, once every answer is sampled (§6.1): the
    /// highest-timestamped valid sub-register of the majority's copies,
    /// borrowed from the read's buffers — unless a node shows the writer
    /// broke the round-robin discipline.
    pub fn found<'a>(&self, read: &'a PostedRead) -> Found<'a> {
        let r = &self.layout;
        let mut best: Option<(u64, &[u8])> = None;
        let mut byzantine_evidence = false;
        for image in read.images.chunks_exact(r.reg_size()) {
            let (a, b) = image.split_at(r.sub_size());
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
        match best {
            _ if byzantine_evidence => Found::WriterByzantine,
            Some((ts, value)) => Found::Value { ts, value },
            // Nothing valid anywhere. Fast read => Byzantine writer; slow
            // read => possibly overlapped a write, retry.
            None if read.completion().since(read.posted) < self.delta => Found::WriterByzantine,
            None => Found::Retry,
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
    pub fn scan_tail<M: Memory>(&self, mem: &mut M, issuer: HostId, now: Time) -> TailScan {
        let mut max_ts = None;
        let mut completion = now;
        for reg in 0..self.len() {
            let mut at = now;
            for _attempt in 0..2 {
                match self.read(mem, issuer, RegisterId(reg), at) {
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
    use ubft_rdma::Fabric;
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

    /// The writer builds every frame in one buffer. A 40-byte value, then
    /// two writes later (the same sub-register, past δ) a 3-byte one: the
    /// read returns the short value and zeros, whether the long frames
    /// before it were honest or corrupt — stale padding under a valid
    /// checksum would read back as part of the value.
    #[test]
    fn a_short_value_after_a_long_one_reads_back_zero_padded() {
        type Write = fn(
            &mut RegisterWriter,
            &mut Fabric,
            HostId,
            RegisterId,
            u64,
            &[u8],
            Time,
        ) -> WriteOutcome;
        let long = [0xA5u8; 40];
        for long_write in [RegisterWriter::write::<Fabric> as Write, RegisterWriter::write_corrupt]
        {
            let (mut f, bank) = setup();
            let mut w = bank.writer();
            let reg = RegisterId(0);
            for ts in 1..=2 {
                let at = w.ready_at(reg);
                long_write(&mut w, &mut f, HostId(0), reg, ts, &long, at).unwrap();
            }
            let done = w.write(&mut f, HostId(0), reg, 3, b"abc", w.ready_at(reg)).unwrap();
            match bank.reader().read(&mut f, HostId(1), reg, done + delta()) {
                ReadOutcome::Value { ts, value, .. } => {
                    assert_eq!(ts, 3);
                    assert_eq!((&value[..3], &value[3..]), (&b"abc"[..], &[0u8; 37][..]));
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }

    /// Two owners, on hosts 0 and 1, each write their register of a bank
    /// on three memory nodes — the second `apart` after the first — and
    /// post a read of the other's register behind the write, counting the
    /// nodes that took it. Each node is sampled when a read arrives there,
    /// in time order. Whether each read found the other's write.
    fn write_then_read_each_other(latency: &LatencyModel, seed: u64, apart: Duration) -> [bool; 2] {
        let (owners, mems) = ([HostId(0), HostId(1)], [HostId(2), HostId(3), HostId(4)]);
        let reg = RegisterId(0);
        let mut f = Fabric::new(NetworkModel::synchronous(latency.clone(), 5), SimRng::new(seed));
        let banks: Vec<_> =
            owners.iter().map(|_| RegisterBank::create(&mut f, &mems, 1, 40, delta())).collect();
        let at = |me: usize| t(0) + Duration::from_nanos(apart.as_nanos() * me as u64);
        let mut reads = [PostedRead::default(), PostedRead::default()];
        for me in 0..2 {
            let mut w = banks[me].writer();
            w.write(&mut f, owners[me], reg, 1 + me as u64, b"mine", at(me)).unwrap();
            let post = w.last_write(reg);
            let reader = banks[1 - me].reader();
            assert!(reader.post(&mut f, owners[me], reg, post.took, post.start, &mut reads[me]));
        }
        let mut samples: Vec<(Time, usize, usize)> = (0..2)
            .flat_map(|me| reads[me].arrivals().enumerate().map(move |(i, a)| (a, me, i)))
            .collect();
        samples.sort_unstable();
        for (_, me, i) in samples {
            banks[1 - me].reader().sample(&mut f, &mut reads[me], i);
        }
        [0, 1].map(|me| {
            let theirs = 2 - me as u64;
            matches!(banks[1 - me].reader().found(&reads[me]), Found::Value { ts, .. } if ts == theirs)
        })
    }

    /// Two owners each write their register and read the other's, the
    /// second 0–120 ns after the first, on three memory nodes. Posted
    /// behind its own write and sampled when it reaches each node, one of
    /// the two reads finds the other's write: their majorities share a
    /// node, and there one owner's write lands before the other's read
    /// arrives. Sampled when posted instead, the first read never sees a
    /// write posted after it, and in some pairs the second outruns the
    /// first write as well.
    #[test]
    fn a_read_behind_a_write_samples_each_node_when_it_arrives() {
        const PAIRS: u64 = 2_000;
        let apart = |seed: u64| Duration::from_nanos(seed % 121);
        let latency = LatencyModel::paper_testbed();
        let both_missed = (0..PAIRS)
            .filter(|&seed| write_then_read_each_other(&latency, seed, apart(seed)) == [false; 2])
            .count();
        assert_eq!(both_missed, 0, "pairs of {PAIRS} where both reads missed the other's write");

        // The same pairs with each read sampled as it is posted.
        let (owners, mems) = ([HostId(0), HostId(1)], [HostId(2), HostId(3), HostId(4)]);
        let reg = RegisterId(0);
        let mut both_missed_sampled_at_post = 0;
        for seed in 0..PAIRS {
            let mut f =
                Fabric::new(NetworkModel::synchronous(latency.clone(), 5), SimRng::new(seed));
            let banks: Vec<_> = owners
                .iter()
                .map(|_| RegisterBank::create(&mut f, &mems, 1, 40, delta()))
                .collect();
            let mut found = [None; 2];
            for me in 0..2 {
                let at = t(0) + Duration::from_nanos(apart(seed).as_nanos() * me as u64);
                let mut w = banks[me].writer();
                w.write(&mut f, owners[me], reg, 1 + me as u64, b"mine", at).unwrap();
                if let ReadOutcome::Value { ts, .. } =
                    banks[1 - me].reader().read(&mut f, owners[me], reg, at)
                {
                    found[me] = Some(ts);
                }
            }
            let missed = |me: usize| found[me] != Some(2 - me as u64);
            both_missed_sampled_at_post += u32::from(missed(0) && missed(1));
        }
        assert!(both_missed_sampled_at_post > 0, "the defect this guards against did not show");
    }

    /// The same pairs where a register frame takes far longer to land than
    /// a hop's difference: no jitter, and 8 ns a byte, so each 8-byte word
    /// of a 56-byte sub-register lands 64 ns after the one before. The
    /// second write reaches every node 0–500 ns after the first, inside or
    /// past the first's 448 ns landing window. A read that arrived right
    /// behind its own write — not once that write had landed — would find
    /// the other's frame torn on every node, both reads missing it while
    /// the writes overlap.
    #[test]
    fn a_read_behind_a_write_waits_for_it_to_land() {
        let slow = LatencyModel {
            picos_per_byte: 8_000,
            jitter: Duration::ZERO,
            ..LatencyModel::paper_testbed()
        };
        for ns in 0..=500 {
            let found = write_then_read_each_other(&slow, 0, Duration::from_nanos(ns));
            assert_ne!(found, [false; 2], "{ns} ns apart: both reads missed the other's write");
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
