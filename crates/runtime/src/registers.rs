//! A group's SWMR registers, laid out as every substrate lays them out, and
//! the one register round trip of CTBcast's slow path (§6.1): a replica
//! writes its register of a slot, then reads every owner's register of
//! that slot from the memory nodes that took the write, and posts an
//! owner's read once more if it overlapped a write.
//!
//! The round trip ([`SlotRead`]) is written once, over any
//! [`ubft_rdma::Memory`]. What a substrate decides is only when each
//! answer is sampled: the simulator when the read reaches its memory node
//! on the fabric (`group.rs`), the untimed substrates — the threads and
//! `NodeNet` — at once, in answer order, on in-process memory
//! ([`SlotRead::now`]).

use ubft_ctb::ctbcast::RegEntry;
use ubft_dmem::{Found, PostedRead, RegisterBank, RegisterId, RegisterReader, RegisterWriter};
use ubft_rdma::{InProcMemory, Memory};
use ubft_sim::HostId;
use ubft_types::wire::Wire;
use ubft_types::{SeqId, Time};

use crate::calibration::SimConfig;
use crate::node::{CtbDone, NodeInput};

/// One replica's handles on its group's SWMR register banks: the writer of
/// its own bank in each CTBcast stream and a reader of every bank.
#[derive(Default)]
pub(crate) struct Registers {
    /// `writers[stream]`.
    pub writers: Vec<RegisterWriter>,
    /// `readers[stream][owner]`.
    pub readers: Vec<Vec<RegisterReader>>,
}

impl Registers {
    /// Lays a group's banks out on the memory nodes `hosts` of `mem`, as
    /// every substrate does: `banks[stream][owner]`, one register per slot
    /// of the CTBcast tail, each holding a [`RegEntry`].
    pub(crate) fn banks<M: Memory>(
        mem: &mut M,
        hosts: &[HostId],
        cfg: &SimConfig,
    ) -> Vec<Vec<RegisterBank>> {
        let (n, p) = (cfg.params.n(), &cfg.params);
        let mut bank =
            || RegisterBank::create(mem, hosts, p.tail, RegEntry::encoded_size(), p.delta);
        (0..n).map(|_| (0..n).map(|_| bank()).collect()).collect()
    }

    /// Replica `r`'s handles on `banks`.
    pub(crate) fn of(banks: &[Vec<RegisterBank>], r: usize) -> Self {
        Registers {
            writers: banks.iter().map(|owners| owners[r].writer()).collect(),
            readers: banks.iter().map(|s| s.iter().map(RegisterBank::reader).collect()).collect(),
        }
    }

    /// Every replica's handles, in replica order, on a group's banks laid
    /// out on all of `mem`'s memory nodes: the untimed substrates'.
    pub(crate) fn in_process(mem: &InProcMemory, cfg: &SimConfig) -> Vec<Self> {
        let hosts: Vec<HostId> = (0..cfg.params.n_mem() as u32).map(HostId).collect();
        let banks = Registers::banks(&mut { mem }, &hosts, cfg);
        (0..banks.len()).map(|r| Registers::of(&banks, r)).collect()
    }
}

/// One replica's register round trip on one slot of a stream's bank
/// ([`Substrate::write_and_read_slot`](crate::node::Substrate::write_and_read_slot)):
/// its write, and the read of every owner's register of the slot posted
/// behind it. Its buffers are kept from one round trip to the next.
#[derive(Default)]
pub(crate) struct SlotRead {
    /// The reader's host when the read was posted: a read posted again
    /// leaves from it, and the entries go back to it.
    pub host: HostId,
    /// The CTBcast stream whose banks it is on.
    pub stream: usize,
    /// The register, one per slot of the tail.
    slot: usize,
    /// The message id written: the register timestamp.
    k: SeqId,
    /// The memory nodes that took the write: the only ones the read counts.
    took: u64,
    /// Per owner, the quorum read of its register.
    pub owners: Vec<PostedRead>,
    /// The owners whose read was posted again, one bit each (a group's
    /// replicas fit a `u64`, as in the auditor's per-request masks).
    again: u64,
    /// What each owner's register holds, as its read settles. Once settled
    /// they are out ([`SlotRead::settled`]) until their buffer is back
    /// ([`SlotRead::recycle`]).
    pub entries: Vec<Option<RegEntry>>,
    /// Owners whose read has not settled: none when the round trip is free
    /// for the next.
    pub unsettled: usize,
    /// When the last answer reaches the reader.
    pub completion: Time,
}

impl SlotRead {
    /// The replica on `host` whose handles are `regs` writes `value`,
    /// message `k`'s entry, to its register `slot` of `stream`'s bank at
    /// `at`, then posts the read of every owner's register `slot` at the
    /// write's start — behind the write on every memory node's queue pair
    /// — to the nodes that took the write. Returns the write's outcome.
    #[allow(clippy::too_many_arguments)]
    pub fn start<M: Memory>(
        &mut self,
        regs: &mut Registers,
        mem: &mut M,
        host: HostId,
        stream: usize,
        slot: usize,
        k: SeqId,
        value: &[u8],
        at: Time,
    ) -> ubft_dmem::WriteOutcome {
        let outcome = regs.writers[stream].write(mem, host, RegisterId(slot), k.0, value, at);
        let write = regs.writers[stream].last_write(RegisterId(slot));
        let (readers, at) = (&regs.readers[stream], at.max(write.start));
        (self.host, self.stream, self.slot, self.k, self.completion) = (host, stream, slot, k, at);
        self.owners.resize_with(readers.len(), Default::default);
        self.entries.clear();
        self.entries.resize(readers.len(), None);
        (self.took, self.unsettled, self.again) = (write.took, readers.len(), 0);
        for (owner, reader) in readers.iter().enumerate() {
            self.post(reader, mem, owner, at);
        }
        outcome
    }

    /// Posts `owner`'s read at `at`; with nothing in flight it settles at
    /// once, on nothing.
    fn post<M: Memory>(&mut self, reader: &RegisterReader, mem: &mut M, owner: usize, at: Time) {
        let posted = &mut self.owners[owner];
        if reader.post(mem, self.host, RegisterId(self.slot), self.took, at, posted) {
            self.completion = self.completion.max(posted.completion());
        } else {
            self.unsettled -= 1;
        }
    }

    /// Samples answer `i` of owner `o`'s read, when it reaches its memory
    /// node ([`PostedRead::arrivals`]). With its last answer in, the read
    /// settles — or, if it overlapped a write, is posted once more, at its
    /// completion (§6.1). Whether it was posted again: its new arrivals
    /// are then to be sampled.
    pub fn sample<M: Memory>(&mut self, regs: &Registers, mem: &mut M, o: usize, i: usize) -> bool {
        let (reader, posted) = (&regs.readers[self.stream][o], &mut self.owners[o]);
        if !reader.sample(mem, posted, i) {
            return false;
        }
        self.entries[o] = match reader.found(posted) {
            Found::Value { value, .. } => RegEntry::from_bytes(value).ok(),
            Found::Retry if self.again >> o & 1 == 0 => {
                self.again |= 1 << o;
                let at = posted.completion();
                self.post(reader, mem, o, at);
                return true;
            }
            Found::WriterByzantine | Found::Retry => None,
        };
        self.unsettled -= 1;
        false
    }

    /// Once every owner's read has settled, and only once: the entries,
    /// in owner order, as the reader's CTBcast instance takes them. Their
    /// buffer comes back through [`SlotRead::recycle`].
    pub fn settled(&mut self) -> Option<NodeInput> {
        let entries = (self.unsettled == 0).then(|| std::mem::take(&mut self.entries));
        let done = CtbDone::Read(self.k, entries.filter(|entries| !entries.is_empty())?);
        Some(NodeInput::Ctb { stream: self.stream, done })
    }

    /// Takes back the buffer of the entries [`SlotRead::settled`] handed
    /// out, for the next round trip, unless it holds one already.
    pub fn recycle(&mut self, mut entries: Vec<Option<RegEntry>>) {
        if self.lacks_buffer() {
            entries.clear();
            self.entries = entries;
        }
    }

    /// Whether it holds no buffer for its entries: its last ones are out.
    pub fn lacks_buffer(&self) -> bool {
        self.entries.capacity() == 0
    }

    /// The round trip of the replica whose handles are `regs`, carried out
    /// at once on in-process memory, where an operation completes when it
    /// is posted: each answer is sampled as soon as its read is posted, in
    /// answer order. Returns the two completions, the write's first. Every
    /// operation is given time zero, and a δ-deferred write starts at a
    /// later label; in-process memory looks at neither, nor at the issuer.
    /// Every node takes every write there, so the read counts every node.
    pub fn now(
        &mut self,
        regs: &mut Registers,
        mem: &InProcMemory,
        stream: usize,
        slot: usize,
        e: &RegEntry,
    ) -> [NodeInput; 2] {
        let (mut mem, value) = (mem, e.to_bytes());
        let written = self.start(regs, &mut mem, HostId(0), stream, slot, e.k, &value, Time::ZERO);
        written.expect("no node down");
        let m = &mut mem;
        for o in 0..self.owners.len() {
            // Until owner `o`'s read settles without being posted again.
            while (0..self.owners[o].arrivals().count()).any(|i| self.sample(regs, m, o, i)) {}
        }
        let written = NodeInput::Ctb { stream, done: CtbDone::Written(e.k) };
        [written, self.settled().expect("every owner's read settled")]
    }
}
