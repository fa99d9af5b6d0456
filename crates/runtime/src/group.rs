//! One consensus group's runtime, and the deployment driver shared by the
//! single-group [`Cluster`](crate::cluster::Cluster) facade and the
//! multi-group [`ShardedCluster`](crate::sharded::ShardedCluster).
//!
//! A [`GroupRuntime`] is one `2f + 1` group in the simulator: its
//! [`ReplicaNode`]s — the protocol stacks and the driver that interprets
//! their effects, shared with the threaded backend — and the [`SimEnv`]
//! they run in: the simulated machines (cost cursors, crash flags,
//! retained snapshots), the channel lanes between them, the group's
//! partition of the SWMR register banks and fault injection — beside the
//! group's [`ClientLoop`], the closed-loop clients both backends share.
//! [`SimSubstrate`] is the [`Substrate`] a node sees while one event is
//! handled, [`SimClientPort`] the [`ClientPort`] the clients see. The fabric and the event queue are *not*
//! the group's: those are shared deployment-wide so that many groups can
//! ride one RDMA network and one set of passive memory nodes (the paper's
//! scale-out story). Every event in the shared queue is tagged with the
//! owning group's id; all indices inside a group are group-local and
//! mapped into the global `HostId` space via each group's host-block base.

use ubft_core::app::App;
use ubft_core::engine::{CryptoJob, CryptoOps, CryptoResult, CryptoTag, DecisionRecord, Effect};
use ubft_core::msg::{exec_table_digest, Request};
use ubft_crypto::{Digest, KeyRing, Signature};
use ubft_ctb::ctbcast::{RegEntry, VerifyTag};
use ubft_ctb::wire::{sign_broadcast, verify_broadcast};
use ubft_dmem::register::{
    ReadOutcome, RegisterBank, RegisterId, RegisterReader, RegisterWriter, WriteOutcome,
};
use ubft_rdma::Fabric;
use ubft_sim::failure::ByzantineMode;
use ubft_sim::net::NetworkModel;
use ubft_sim::{EventQueue, HostId, SimRng};
use ubft_transport::channel::ChannelSpec;
use ubft_transport::net::SendReport;
use ubft_transport::sim_link::SimLinkTransport;
use ubft_types::wire::Wire;
use ubft_types::{Duration, ProcessId, ReplicaId, SeqId, Slot, Time};

use crate::audit::{AuditMutation, AuditReport, Auditor};
use crate::calibration::{Backend, SimConfig};
use crate::client_loop::{ClientLoop, ClientPort, ClientTimer};
use crate::cluster::{GroupReport, OpCounters, ReplicaReport, RunReport};
use crate::node::{CtbDone, ExecTable, Lane, NodeTimer, ReplicaNode, Substrate};

/// Simulation events. All indices are group-local; the queue tags each
/// event with its group id.
pub(crate) enum Ev {
    Poll {
        lane: Lane,
        from: usize,
        to: usize,
    },
    Flush {
        lane: Lane,
        from: usize,
        to: usize,
    },
    /// A timer replica `r` armed fired.
    Timer {
        r: usize,
        timer: NodeTimer,
    },
    /// Work replica `r` started for `stream`'s CTBcast instance finished.
    CtbDone {
        r: usize,
        stream: usize,
        done: CtbDone,
    },
    /// A timer client `c` armed fired.
    Client {
        c: usize,
        timer: ClientTimer,
    },
    /// Boot the replacement node for crashed replica `r` on `host` (the
    /// fresh host id pre-allocated by the deployment).
    Replace {
        r: usize,
        host: HostId,
    },
    /// Apply an engine-effect batch whose crypto work finishes at this
    /// event's time. Effects stamped in the future must flow through the
    /// queue — applying them early would hand the fabric out-of-order
    /// timestamps, and its per-host-pair FIFO would then pin every later
    /// (normally timed) message behind the future one.
    EngineFx {
        r: usize,
        /// The node incarnation that scheduled the batch; a replacement
        /// bumps it, so a dead incarnation's pending crypto never applies
        /// to its successor.
        epoch: u32,
        fx: Vec<Effect>,
    },
    /// Replica `r`'s crypto pool finished an engine crypto job; the
    /// result re-enters the engine as an input of its own.
    EngineCrypto {
        r: usize,
        /// As for `EngineFx`: a dead incarnation's jobs die with it.
        epoch: u32,
        tag: CryptoTag,
        result: CryptoResult,
    },
}

/// A group-tagged event in the shared deployment queue.
pub(crate) type GroupEv = (u32, Ev);

/// A group workload source: `None` means "no request available for this
/// group right now" (a sharded source whose pending generation all routed
/// elsewhere); the client retries shortly instead of stalling forever.
pub(crate) type GroupWorkload = Box<dyn FnMut(u64) -> Option<Vec<u8>>>;

/// The deployment-wide mutable context a group borrows while handling one
/// event: the shared fabric, the shared (group-tagged) event queue, the
/// deployment-wide completion count, and (when enabled) the omniscient
/// safety auditor.
pub(crate) struct Shared<'a> {
    pub fabric: &'a mut Fabric,
    pub events: &'a mut EventQueue<GroupEv>,
    /// Requests completed by every group's clients together: the closed
    /// loop stops on the *total*, and warmup discarding is likewise global,
    /// so a single-group run behaves exactly like the pre-sharding
    /// `Cluster`.
    pub completed: &'a mut u64,
    /// `None` when auditing is off — the hooks below are then no-ops, so
    /// unaudited runs stay bit-for-bit identical to historical behaviour.
    pub audit: &'a mut Option<Auditor>,
}

/// How many recent checkpoint snapshots a machine retains for serving
/// state transfers to replacement nodes. The joiner always asks for a
/// *recent* stable checkpoint (its `f + 1` join acks name one), so a short
/// history suffices; anything older is covered by a newer checkpoint.
pub(crate) const SNAPSHOT_RETAIN: usize = 4;

/// One retained checkpoint snapshot: everything a certified state transfer
/// hands a lagging replica — the serialized application plus the
/// request-dedup table, each verified by the receiver against the
/// checkpoint certificate's digests.
struct Snapshot {
    /// First slot *not* covered.
    base: Slot,
    /// Digest the restored application must reproduce.
    app_digest: Digest,
    /// Serialized application state.
    app_bytes: Vec<u8>,
    /// The dedup table at `base` (certified via
    /// [`CheckpointData::exec_digest`](ubft_core::msg::CheckpointData)).
    exec_table: ExecTable,
}

/// The simulated machine one replica runs on: what the simulator keeps
/// per replica beside its protocol stack.
struct Machine {
    /// `host_base + r` until a replacement moves the replica to a freshly
    /// allocated host.
    host: HostId,
    /// Main-core busy-until cursor (event-loop dispatch serializes here).
    busy: Time,
    /// Busy-until cursor of the first of the replica's two crypto workers
    /// (the paper's background crypto pool, §5.4). Crypto a request waits
    /// for — the engine's *ordered* signatures and verifications, whose
    /// effects act only once they finish, and the share checks of a slot on
    /// the slow path ([`CryptoTag::on_request_path`]) — serializes on
    /// whichever worker frees first ([`Machine::free_worker`]) instead of
    /// on the main cursor.
    crypto_busy: Time,
    /// The second worker's cursor, and the only one background
    /// certification (summary and checkpoint jobs) runs on: such a job
    /// starts behind earlier work here and once the ordered crypto queued
    /// so far has been served (`deferred_until`), so the pool serves
    /// requests first — at a boundary a request finds one worker free of
    /// bookkeeping, and at worst waits one operation for the other.
    job_busy: Time,
    /// Whether a scheduled crash has taken effect.
    crashed: bool,
    /// Incarnation counter, bumped on replacement: deferred batches carry
    /// the epoch that scheduled them and are dropped on mismatch.
    epoch: u32,
    /// Engine-effect batches deferred behind crypto completion that have
    /// not been applied yet (see [`Ev::EngineFx`]).
    deferred_fx: u32,
    /// Scheduled time of the most recent deferred batch: later batches —
    /// even crypto-free ones — must apply after it to preserve the
    /// engine's emission order.
    deferred_until: Time,
    /// SWMR register writers this replica owns: `reg_writers[stream]` is
    /// the writer for this replica's slots in `stream`'s bank.
    reg_writers: Vec<RegisterWriter>,
    /// Recent checkpoint snapshots, oldest first, retained to serve
    /// certified state transfers — to replacement nodes and to replicas
    /// that lagged a whole window behind a partition or asynchrony. Empty
    /// (and never populated) unless the deployment's fault plan schedules
    /// faults, so failure-free runs pay nothing.
    snapshots: Vec<Snapshot>,
}

impl Machine {
    /// The crypto worker that frees first: where request-path crypto goes.
    fn free_worker(&mut self) -> &mut Time {
        if self.job_busy < self.crypto_busy {
            &mut self.job_busy
        } else {
            &mut self.crypto_busy
        }
    }

    /// Incarnation `epoch` of a replica's machine, on `host`, idle as of
    /// `at`; its bank writers are keyed in by the caller.
    fn boot(host: HostId, at: Time, epoch: u32) -> Self {
        Machine {
            host,
            busy: at,
            crypto_busy: at,
            job_busy: at,
            crashed: false,
            epoch,
            deferred_fx: 0,
            deferred_until: Time::ZERO,
            reg_writers: Vec::new(),
            snapshots: Vec::new(),
        }
    }
}

/// Everything of one group that is not a replica's protocol stack: the
/// simulator's side of the [`Substrate`].
pub(crate) struct SimEnv {
    gid: u32,
    pub(crate) cfg: SimConfig,
    /// First global host id of this group's `n + n_clients` host block.
    host_base: u32,
    machines: Vec<Machine>,
    /// The group's message plane: simulated circular-buffer links in the
    /// shared fabric.
    transport: SimLinkTransport,
    /// `reg_banks[stream][owner]`: the SWMR banks themselves, retained so
    /// a replacement node can be re-keyed as a bank's writer.
    reg_banks: Vec<Vec<RegisterBank>>,
    /// `reg_readers[stream][owner]`: shared read endpoints (readers are
    /// host-agnostic; writers live with their owning machine).
    reg_readers: Vec<Vec<RegisterReader>>,
    /// `Some` when the fault plan schedules anything: machines then retain
    /// checkpoint snapshots (failure-free runs pay nothing), and this is
    /// the serialized genesis application state a replacement node's app
    /// is reset to before its state transfer.
    genesis_snapshot: Option<Vec<u8>>,
    ring: KeyRing,
    /// Not-yet-applied scheduled crash times, one slot per replica
    /// (precomputed from the fault plan so the hot event loop never
    /// rescans it; an entry is cleared once the crash takes effect).
    crash_times: Vec<Option<Time>>,
    /// How many entries of `crash_times` are still pending.
    pending_crashes: usize,
    /// Where a receiver poll copies the messages it finds, to be decoded in
    /// place — reused for every poll.
    poll_buf: Vec<u8>,
    pub(crate) counters: OpCounters,
}

/// One consensus group: `2f + 1` [`ReplicaNode`]s, its closed-loop clients,
/// and the simulated environment both run in.
pub(crate) struct GroupRuntime {
    pub(crate) nodes: Vec<ReplicaNode>,
    pub(crate) clients: ClientLoop,
    pub(crate) env: SimEnv,
}

/// Occupies a crypto worker's busy-until `cursor` for `cost`, starting
/// no earlier than `from`; returns when the work finishes.
fn worker_run(cursor: &mut Time, from: Time, cost: Duration) -> Time {
    *cursor = from.max(*cursor) + cost;
    *cursor
}

impl SimEnv {
    fn n(&self) -> usize {
        self.machines.len()
    }

    /// Current host of group-local index `idx` (replica or client).
    /// Replicas may have moved to a replacement host; clients never move.
    fn host_of(&self, idx: usize) -> HostId {
        match self.machines.get(idx) {
            Some(m) => m.host,
            None => HostId(self.host_base + idx as u32),
        }
    }

    fn push(&self, sh: &mut Shared<'_>, at: Time, ev: Ev) {
        sh.events.push(at, (self.gid, ev));
    }

    /// The Byzantine behaviour of host `r` active at `at`, if `r` is a
    /// replica with a scheduled fault.
    fn byz_mode(&self, r: usize, at: Time) -> Option<ByzantineMode> {
        if r < self.n() {
            self.cfg.failures.byzantine_mode(r, at)
        } else {
            None
        }
    }

    fn open_link(&mut self, fabric: &mut Fabric, lane: Lane, from: usize, to: usize) {
        let cap = 2 * self.cfg.params.tail;
        let spec = match lane {
            Lane::CtbTb { .. } => ChannelSpec { slots: cap, slot_payload: self.cfg.slot_payload() },
            Lane::ConsTb | Lane::Direct => {
                ChannelSpec { slots: cap, slot_payload: self.cfg.wide_slot_payload() }
            }
            Lane::ClientReq | Lane::ClientResp => {
                ChannelSpec { slots: 64, slot_payload: self.cfg.slot_payload() }
            }
        };
        let (from_host, to_host) = (self.host_of(from), self.host_of(to));
        self.transport.open_link(
            fabric,
            lane.id(),
            from as u32,
            to as u32,
            from_host,
            to_host,
            spec,
        );
    }

    /// Opens (or re-opens, dropping the old endpoints) every lane from
    /// replica `from` to replica `to`.
    fn open_peer_links(&mut self, fabric: &mut Fabric, from: usize, to: usize) {
        for stream in 0..self.n() {
            self.open_link(fabric, Lane::CtbTb { stream }, from, to);
        }
        for lane in [Lane::ConsTb, Lane::Direct] {
            self.open_link(fabric, lane, from, to);
        }
    }

    /// Opens (or re-opens) the request and reply lanes between client `c`
    /// and replica `r`.
    fn open_client_links(&mut self, fabric: &mut Fabric, c: usize, r: usize) {
        let c_node = self.n() + c;
        self.open_link(fabric, Lane::ClientReq, c_node, r);
        self.open_link(fabric, Lane::ClientResp, r, c_node);
    }

    // ------------------------------------------------------------------
    // Cost charging
    // ------------------------------------------------------------------

    fn charge(&mut self, r: usize, at: Time, extra: Duration) -> Time {
        let m = &mut self.machines[r];
        m.busy = at.max(m.busy) + self.cfg.cost.dispatch + extra;
        m.busy
    }

    fn crypto_cost(&self, ops: CryptoOps) -> Duration {
        Duration::from_nanos(
            self.cfg.cost.sign_total().as_nanos() * ops.signs as u64
                + self.cfg.cost.verify_total().as_nanos() * ops.verifies as u64,
        )
    }

    fn count_engine_crypto(&mut self, ops: CryptoOps) {
        self.counters.engine_signs += ops.signs as u64;
        self.counters.engine_verifies += ops.verifies as u64;
    }

    // ------------------------------------------------------------------
    // Channels
    // ------------------------------------------------------------------

    /// Sends `bytes` on `lane` and schedules what the report asks for.
    /// Returns the fabric's verdict on the link: `Some(false)` when it
    /// refused a write (the destination is down or cut off), `Some(true)`
    /// when it put one on the wire, `None` when nothing was attempted (the
    /// data staged, or a Byzantine sender withheld it).
    fn channel_send(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        bytes: &[u8],
        at: Time,
    ) -> Option<bool> {
        let mut at = at;
        match self.byz_mode(from, at) {
            // A silent replica stops transmitting entirely; it keeps
            // receiving, which is what distinguishes it from a crash in the
            // logs but not in effect.
            Some(ByzantineMode::Silent) => return None,
            // A laggard is correct but slow: every outgoing message is
            // delayed (a gray failure; the fast path must absorb or
            // time out past it).
            Some(ByzantineMode::Laggard) => at += Duration::from_micros(50),
            _ => {}
        }
        let rep = self.transport.send(sh.fabric, lane.id(), from as u32, to as u32, bytes, at);
        let verdict = if rep.refused > 0 {
            Some(false)
        } else if rep.arrivals.is_empty() {
            None
        } else {
            Some(true)
        };
        self.schedule_send_report(sh, lane, from, to, at, rep);
        verdict
    }

    /// Turns a [`SendReport`] into virtual-time events: a receiver poll
    /// per issued arrival, and a flush when data stayed staged.
    fn schedule_send_report(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        at: Time,
        rep: SendReport,
    ) {
        for (_seq, arrival) in rep.arrivals {
            self.push(sh, arrival + self.cfg.poll_pickup, Ev::Poll { lane, from, to });
        }
        if let Some(t) = rep.flush_at {
            let t = if t > at { t } else { at + Duration::from_nanos(1) };
            self.push(sh, t, Ev::Flush { lane, from, to });
        }
    }
}

// ----------------------------------------------------------------------
// The simulator's side of the client loop
// ----------------------------------------------------------------------

/// What a group's [`ClientLoop`] sees of the simulator while the event at
/// virtual time `at` is handled.
struct SimClientPort<'a, 'b> {
    env: &'a mut SimEnv,
    sh: &'a mut Shared<'b>,
    at: Time,
}

impl ClientPort for SimClientPort<'_, '_> {
    fn send(&mut self, c: usize, bytes: &[u8], replicas: &[ReplicaId]) {
        let env = &mut *self.env;
        env.counters.rpc_msgs += replicas.len() as u64;
        for to in replicas {
            env.channel_send(self.sh, Lane::ClientReq, env.n() + c, to.0 as usize, bytes, self.at);
        }
    }

    fn arm(&mut self, c: usize, timer: ClientTimer, after: Duration) {
        self.env.push(self.sh, self.at + after, Ev::Client { c, timer });
    }

    fn now(&self) -> Time {
        self.at
    }

    fn completed(&self) -> u64 {
        *self.sh.completed
    }

    fn complete(&mut self) -> u64 {
        *self.sh.completed += 1;
        *self.sh.completed
    }
}

// ----------------------------------------------------------------------
// The simulator's side of the node driver
// ----------------------------------------------------------------------

/// What replica `r`'s [`ReplicaNode`] sees of the simulator while one
/// event is handled: a short-lived view over its group's environment and
/// the deployment's shared fabric, queue and auditor. `At` is virtual
/// time.
struct SimSubstrate<'a, 'b> {
    env: &'a mut SimEnv,
    sh: &'a mut Shared<'b>,
    r: usize,
}

impl SimSubstrate<'_, '_> {
    /// Tells the auditor, if the deployment has one, about this replica
    /// (`f` gets the group and replica indices).
    fn audit(&mut self, f: impl FnOnce(&mut Auditor, usize, usize)) {
        if let Some(aud) = self.sh.audit.as_mut() {
            f(aud, self.env.gid as usize, self.r);
        }
    }
}

impl Substrate for SimSubstrate<'_, '_> {
    type At = Time;

    fn send(&mut self, lane: Lane, to: usize, bytes: &[u8], at: Time) -> Option<bool> {
        self.env.channel_send(self.sh, lane, self.r, to, bytes, at)
    }

    fn arm(&mut self, timer: NodeTimer, after: Duration, at: Time) {
        self.env.push(self.sh, at + after, Ev::Timer { r: self.r, timer });
    }

    fn ctb_sign(&mut self, stream: usize, k: SeqId, fp: Digest, at: Time) {
        let (env, r) = (&mut *self.env, self.r);
        env.counters.ctb_signs += 1;
        let sig = sign_broadcast(&env.ring, ReplicaId(stream as u32), k, &fp);
        // Only a stream's broadcaster signs for it.
        debug_assert_eq!(stream, r);
        let done = at + env.cfg.cost.sign_total();
        env.push(self.sh, done, Ev::CtbDone { r, stream, done: CtbDone::Signed(k, sig) });
    }

    fn ctb_verify(
        &mut self,
        stream: usize,
        tag: VerifyTag,
        k: SeqId,
        fp: Digest,
        sig: Signature,
        at: Time,
    ) {
        let (env, r) = (&mut *self.env, self.r);
        env.counters.ctb_verifies += 1;
        let ok = verify_broadcast(&env.ring, ReplicaId(stream as u32), k, &fp, &sig);
        let done = at + env.cfg.cost.verify_total();
        env.push(self.sh, done, Ev::CtbDone { r, stream, done: CtbDone::Verified(tag, ok) });
    }

    fn write_register(&mut self, stream: usize, slot: usize, k: SeqId, entry: RegEntry, at: Time) {
        let (env, r) = (&mut *self.env, self.r);
        env.counters.reg_writes += 1;
        let host = env.host_of(r);
        let mut entry = entry;
        // A register-corrupting replica stores a garbled fingerprint
        // in its own SWMR slot. Readers must treat the entry as a
        // suspect, fail its signature check, and deliver anyway
        // (§6.1: forged entries cannot block delivery).
        if env.byz_mode(r, at) == Some(ByzantineMode::CorruptRegisters) {
            let mut fp = *entry.fp.as_bytes();
            fp[0] ^= 0xFF;
            fp[31] ^= 0xFF;
            entry.fp = Digest::from_bytes(fp);
        }
        let bytes = entry.to_bytes();
        let writer = &mut env.machines[r].reg_writers[stream];
        match writer.write(self.sh.fabric, host, RegisterId(slot), k.0, &bytes, at) {
            WriteOutcome::Done(at) => {
                env.push(self.sh, at, Ev::CtbDone { r, stream, done: CtbDone::Written(k) });
            }
            // The writer died at a crash boundary (possibly via the
            // δ-cooldown deferring the start past its own crash):
            // its continuation events are dropped by the crash
            // checks, so there is nothing to schedule.
            WriteOutcome::IssuerCrashed => {}
            // Outside the fault model (> f_m memory nodes down);
            // the slow path simply cannot complete.
            WriteOutcome::NoQuorum => {}
        }
    }

    /// Reads every receiver's register for `slot` of `stream`, retrying once
    /// per owner when a read overlaps a write (§6.1); the entries come back,
    /// in replica order, at the quorum completion time.
    fn read_slot(&mut self, stream: usize, slot: usize, k: SeqId, at: Time) {
        let (env, r) = (&mut *self.env, self.r);
        env.counters.reg_reads += 1;
        let host = env.host_of(r);
        let mut entries = Vec::with_capacity(env.n());
        let mut completion = at;
        for reader in &env.reg_readers[stream] {
            let mut attempt_at = at;
            let mut parsed = None;
            for _attempt in 0..2 {
                match reader.read(self.sh.fabric, host, RegisterId(slot), attempt_at) {
                    ReadOutcome::Value { value, completion: c, .. } => {
                        completion = completion.max(c);
                        parsed = RegEntry::from_bytes(&value).ok();
                        break;
                    }
                    ReadOutcome::WriterByzantine { completion: c } => {
                        completion = completion.max(c);
                        break;
                    }
                    ReadOutcome::Retry { completion: c } => {
                        completion = completion.max(c);
                        attempt_at = c;
                    }
                    ReadOutcome::NoQuorum => break,
                    // The reading replica itself hit its crash boundary
                    // (a retry can re-issue past its own scheduled
                    // crash); the continuation is dropped by the crash
                    // checks, so what it "read" is irrelevant.
                    ReadOutcome::IssuerCrashed => break,
                }
            }
            entries.push(parsed);
        }
        let done = CtbDone::Read(k, entries);
        env.push(self.sh, completion, Ev::CtbDone { r, stream, done });
    }

    fn charge(&mut self, at: Time, extra: Duration) -> Time {
        self.env.charge(self.r, at, extra)
    }

    fn engine_call_done(
        &mut self,
        at: Time,
        ops: CryptoOps,
        jobs: std::vec::Drain<'_, CryptoJob>,
        fx: Vec<Effect>,
    ) -> Option<(Time, Vec<Effect>)> {
        let (env, r) = (&mut *self.env, self.r);
        // The event-loop dispatch runs on the replica's main core; crypto
        // runs on the replica's crypto pool (§5.4), two workers: what a
        // request waits for takes whichever frees first.
        let done = env.charge(r, at, Duration::ZERO);
        env.count_engine_crypto(ops);
        let effect_at = if ops.is_zero() {
            done
        } else {
            let cost = env.crypto_cost(ops);
            worker_run(env.machines[r].free_worker(), done, cost)
        };
        // Crypto jobs are work nothing in this call's effects depends on:
        // each comes back as an input of its own, delaying neither these
        // effects nor any later batch. A slot's share check is as much on a
        // request's path as ordered crypto is and takes a worker the same
        // way. Summary and checkpoint certification (§5.2 fn. 3) is not,
        // and the pool serves the request path first: such a job is
        // confined to the second worker, where it starts behind earlier
        // work and once the ordered crypto queued so far — this call's
        // included — has been served (so its result still follows this
        // call's effects). It does not wait for a share check running on
        // the other worker: a cursor cannot give back the gap that leaves,
        // and the own-share signature that needs a worker 27 µs into a
        // 45 µs check would queue behind bookkeeping that has not started
        // (1 % of slow-path requests, so p99 sat on an edge: 158.7 µs on 22
        // seeds, 167.0 on one). When everything shared one cursor, the
        // share signed at a summary boundary sat between a slot's CERTIFY
        // signature and the verification of the peer's, 17 µs on that
        // request — on whichever boundaries a PREPARE happened to cross,
        // which differs from seed to seed.
        if jobs.len() > 0 {
            let me = ProcessId::Replica(ReplicaId(r as u32));
            let signer = env.ring.signer(me).expect("replica key");
            let epoch = env.machines[r].epoch;
            for job in jobs {
                env.count_engine_crypto(job.ops());
                let cost = env.crypto_cost(job.ops());
                let m = &mut env.machines[r];
                let fin = if job.tag.on_request_path() {
                    worker_run(m.free_worker(), done, cost)
                } else {
                    let from = effect_at.max(m.deferred_until);
                    worker_run(&mut m.job_busy, from, cost)
                };
                let result = job.run(&signer, &env.ring);
                env.push(self.sh, fin, Ev::EngineCrypto { r, epoch, tag: job.tag, result });
            }
        }
        let m = &mut env.machines[r];
        if ops.is_zero() && m.deferred_fx == 0 {
            // The common (crypto-free) path applies effects inline — the
            // historical behaviour, bit-for-bit.
            return Some((done, fx));
        }
        // Ordered crypto (slow-path CERTIFY shares, commit-certificate and
        // view-change signatures) is crypto this call's effects *do* depend
        // on: they act only once it has finished. Route them through the
        // event queue so the fabric only ever sees monotone timestamps per
        // host pair (applying early would stall every later message behind
        // the future arrival in the FIFO network). While any batch is
        // pending, later batches — crypto-free or not — queue strictly
        // behind it: the engine's emission order is a protocol invariant
        // (e.g. a NEW_VIEW must precede proposals into its view).
        let at_eff = if effect_at > m.deferred_until {
            effect_at
        } else {
            m.deferred_until + Duration::from_nanos(1)
        };
        m.deferred_until = at_eff;
        m.deferred_fx += 1;
        let epoch = m.epoch;
        env.push(self.sh, at_eff, Ev::EngineFx { r, epoch, fx });
        None
    }

    fn execute<A: App + ?Sized>(
        &mut self,
        app: &mut A,
        slot: Slot,
        req: &Request,
        at: Time,
    ) -> (Vec<u8>, Time) {
        let r = self.r;
        // Auditor self-test mutations: deliberately corrupt this
        // replica's execution so the auditor can be shown to catch
        // it. Never active outside mutation tests.
        let corrupted = match self.env.cfg.audit_mutation {
            Some(AuditMutation::CorruptExecution { replica })
                if replica == r && !req.payload.is_empty() =>
            {
                let mut p = req.payload.clone();
                p[0] ^= 0xFF;
                Some(p)
            }
            _ => None,
        };
        let applied: &[u8] = corrupted.as_deref().unwrap_or(&req.payload);
        let cost = app.execute_cost(applied);
        let payload = app.execute(applied);
        if let Some(AuditMutation::DoubleExecute { replica }) = self.env.cfg.audit_mutation {
            if replica == r {
                let _ = app.execute(applied);
            }
        }
        self.audit(|aud, g, r| aud.on_execute(g, r, slot, req.id, applied, &payload));
        (payload, self.env.charge(r, at, cost))
    }

    fn on_snapshot<A: App + ?Sized>(
        &mut self,
        base: Slot,
        app_digest: Digest,
        exec_table: ExecTable,
        app: &A,
    ) {
        self.audit(|aud, g, r| aud.on_checkpoint_digest(g, r, base, app_digest));
        if self.env.genesis_snapshot.is_some() {
            // Retain the serialized state for serving lagging replicas'
            // transfers (bounded history).
            let snapshots = &mut self.env.machines[self.r].snapshots;
            snapshots.push(Snapshot {
                base,
                app_digest,
                app_bytes: app.snapshot_bytes(),
                exec_table,
            });
            if snapshots.len() > SNAPSHOT_RETAIN {
                snapshots.remove(0);
            }
        }
    }

    /// Served from any live peer's retained checkpoint snapshot.
    fn fetch_snapshot(
        &mut self,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
    ) -> Option<(Vec<u8>, ExecTable)> {
        let r = self.r;
        let donors = self.env.machines.iter().enumerate().filter(|(q, m)| *q != r && !m.crashed);
        donors
            .flat_map(|(_, m)| &m.snapshots)
            .find(|s| {
                s.base == base
                    && s.app_digest == app_digest
                    && exec_table_digest(&s.exec_table) == exec_digest
            })
            .map(|s| (s.app_bytes.clone(), s.exec_table.clone()))
    }

    /// A restored transfer is modelled as a bulk fabric fetch: the
    /// receiving core is busy for the bytes' worst-case wire time.
    fn on_transfer(&mut self, restored: Option<usize>, at: Time) {
        match restored {
            Some(bytes) => {
                // A successful transfer puts the replica back on certified
                // state: the auditor can vouch for it again even if an
                // earlier transfer missed.
                self.audit(|aud, g, r| aud.on_transfer_restored(g, r));
                let cost = self.env.cfg.latency.worst_case(bytes);
                let _ = self.env.charge(self.r, at, cost);
            }
            // The auditor stops vouching for the replica's application
            // state.
            None => self.audit(|aud, g, r| aud.on_transfer_miss(g, r)),
        }
    }

    fn count_msg(&mut self, lane: Lane) {
        let c = &mut self.env.counters;
        match lane {
            Lane::CtbTb { .. } => c.ctb_msgs += 1,
            Lane::ConsTb => c.cons_msgs += 1,
            Lane::Direct => c.direct_msgs += 1,
            Lane::ClientReq | Lane::ClientResp => c.rpc_msgs += 1,
        }
    }

    fn on_decision(&mut self, rec: DecisionRecord) {
        self.audit(|aud, g, r| aud.on_decision(g, r, rec));
    }

    fn on_checkpoint_adopted(&mut self, base: Slot) {
        self.audit(|aud, g, r| aud.on_checkpoint_adopted(g, r, base));
    }

    fn byz_mode(&self, at: Time) -> Option<ByzantineMode> {
        self.env.byz_mode(self.r, at)
    }
}

impl GroupRuntime {
    /// Builds one group inside an existing deployment, around the key ring
    /// and clients [`ClientLoop::bootstrap`] made for it: creates the
    /// replicas' protocol stacks, channels, and register banks on the
    /// shared fabric, and pushes the group's start-up events (engine
    /// watchdogs, TBcast retransmission ticks) onto the shared queue.
    pub(crate) fn new(
        gid: u32,
        cfg: SimConfig,
        host_base: u32,
        mem_hosts: &[HostId],
        apps: Vec<Box<dyn App>>,
        (ring, clients): (KeyRing, ClientLoop),
        sh: &mut Shared<'_>,
    ) -> Self {
        let n = cfg.params.n();
        assert_eq!(apps.len(), n, "one app instance per replica");

        // Checkpoint snapshots are retained whenever the plan schedules
        // *any* fault or an asynchronous prefix — not just replacements: a
        // replica that misses a whole window behind a partition or pre-GST
        // delays heals through the same certified state transfer, and
        // without a retained donor snapshot it would silently fast-forward
        // with diverged state (the chaos auditor caught exactly that).
        // Failure-free runs still pay nothing.
        let keep_snapshots = !cfg.failures.faults().is_empty() || cfg.failures.gst > Time::ZERO;
        let genesis_snapshot = keep_snapshots.then(|| apps[0].snapshot_bytes());

        let machines =
            (0..n as u32).map(|r| Machine::boot(HostId(host_base + r), Time::ZERO, 0)).collect();
        let crash_times: Vec<Option<Time>> =
            (0..n).map(|r| cfg.failures.replica_crash_time(r)).collect();
        let nodes = apps
            .into_iter()
            .enumerate()
            .map(|(r, app)| ReplicaNode::new(r, &cfg, ring.clone(), app))
            .collect();
        let mut env = SimEnv {
            gid,
            host_base,
            machines,
            transport: SimLinkTransport::new(),
            reg_banks: Vec::with_capacity(n),
            reg_readers: Vec::with_capacity(n),
            genesis_snapshot,
            ring,
            pending_crashes: crash_times.iter().filter(|t| t.is_some()).count(),
            crash_times,
            poll_buf: Vec::new(),
            counters: OpCounters::default(),
            cfg,
        };

        // Links, in the shared fabric, addressed by global host ids.
        for from in 0..n {
            for to in (0..n).filter(|to| *to != from) {
                env.open_peer_links(sh.fabric, from, to);
            }
        }
        for c in 0..clients.len() {
            for r in 0..n {
                env.open_client_links(sh.fabric, c, r);
            }
        }

        // SWMR register banks: banks[stream][owner], replicated on the
        // shared memory nodes; only `owner` holds the writer. Each group
        // creates its own banks, so the memory nodes' space is partitioned
        // per group. The banks themselves are retained (not just their
        // endpoints): a replacement node is re-keyed as its predecessor's
        // banks' writer.
        for _s in 0..n {
            let mut banks = Vec::with_capacity(n);
            let mut rs = Vec::with_capacity(n);
            for _owner in 0..n {
                let bank = RegisterBank::create(
                    sh.fabric,
                    mem_hosts,
                    env.cfg.params.tail,
                    RegEntry::encoded_size(),
                    env.cfg.params.delta,
                );
                rs.push(bank.reader());
                banks.push(bank);
            }
            env.reg_readers.push(rs);
            env.reg_banks.push(banks);
        }
        for (owner, m) in env.machines.iter_mut().enumerate() {
            m.reg_writers = env.reg_banks.iter().map(|banks| banks[owner].writer()).collect();
        }

        let mut group = GroupRuntime { nodes, clients, env };
        // Engine start-up (progress watchdogs).
        for r in 0..n {
            group.on_node(sh, r, |nd, sub| nd.engine_call(sub, Time::ZERO, |e| e.start()));
        }
        // TBcast retransmission ticks, staggered so replicas do not burst
        // in lockstep.
        for r in 0..n {
            let offset = Duration::from_nanos(1_000 * (r as u64 + 1));
            let first = Time::ZERO + group.env.cfg.retransmit_period + offset;
            group.env.push(sh, first, Ev::Timer { r, timer: NodeTimer::Retransmit });
        }
        group
    }

    /// Runs `f` on replica `r`'s protocol stack and the substrate it sees
    /// while this event is handled — unless `r` has crashed.
    fn on_node(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        f: impl FnOnce(&mut ReplicaNode, &mut SimSubstrate<'_, '_>),
    ) {
        if !self.env.machines[r].crashed {
            f(&mut self.nodes[r], &mut SimSubstrate { env: &mut self.env, sh, r });
        }
    }

    /// Applies scheduled replica crashes up to virtual time `t`. O(1) when
    /// nothing is pending, which is every event of a failure-free run.
    fn apply_scheduled_crashes(&mut self, t: Time) {
        let env = &mut self.env;
        if env.pending_crashes == 0 {
            return;
        }
        for r in 0..env.machines.len() {
            if let Some(ct) = env.crash_times[r] {
                if t >= ct {
                    env.machines[r].crashed = true;
                    env.crash_times[r] = None;
                    env.pending_crashes -= 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Replacement (uBFT extended version, §replacement)
    // ------------------------------------------------------------------

    /// Boots the replacement node for crashed replica `r` on the freshly
    /// allocated `new_host`: rebuilds every transport endpoint touching
    /// `r`, re-keys `r`'s SWMR bank writers, scans its own stream's bank
    /// tails on the memory nodes for the slow-path high-water mark, and
    /// starts a fresh engine in the join state. Peers' endpoints toward
    /// `r` are re-created here too — in a real deployment that retargeting
    /// is what their `Join` receipt triggers; the simulator, owning both
    /// ends, performs it at boot so the handshake finds working lanes.
    pub(crate) fn replace_replica(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        new_host: HostId,
        at: Time,
    ) {
        let env = &mut self.env;
        assert!(env.machines[r].crashed, "replacement of a live replica {r}");
        let n = env.n();
        if let Some(aud) = sh.audit.as_mut() {
            aud.on_replace(env.gid as usize, r);
        }

        // The fresh machine: a new incarnation, idle, with re-keyed bank
        // writers.
        let m = &mut env.machines[r];
        *m = Machine::boot(new_host, at, m.epoch + 1);
        m.reg_writers = env.reg_banks.iter_mut().map(|banks| banks[r].rekey_writer()).collect();

        // Fresh links for every lane touching r, in both directions (the
        // old node's sender cursors and in-flight slots died with it).
        for peer in (0..n).filter(|peer| *peer != r) {
            env.open_peer_links(sh.fabric, r, peer);
            env.open_peer_links(sh.fabric, peer, r);
            self.nodes[peer].reset_receivers_from(r);
        }
        for c in 0..self.clients.len() {
            env.open_client_links(sh.fabric, c, r);
        }

        // The fresh node itself: a new protocol stack around the genesis
        // application state.
        let mut node = self.nodes.remove(r).replaced(&env.cfg, env.ring.clone());
        node.app.restore_bytes(env.genesis_snapshot.as_deref().expect("a replacement is a fault"));
        self.nodes.insert(r, node);

        // Step 1 of the join: recover the own-stream tail high-water mark
        // directly from the memory nodes (no replica trusted) — every
        // owner's bank of stream r can witness ids the crashed node
        // slow-pathed.
        let mut reg_floor = SeqId(0);
        let mut done = at;
        for reader in &env.reg_readers[r] {
            env.counters.reg_reads += reader.len() as u64;
            let scan = reader.scan_tail(sh.fabric, new_host, at);
            if let Some(ts) = scan.max_ts {
                reg_floor = reg_floor.max(SeqId(ts));
            }
            done = done.max(scan.completion);
        }
        env.machines[r].busy = done;

        // Step 2: the Join/JoinAck handshake (engine-driven from here).
        self.on_node(sh, r, |nd, sub| nd.engine_call(sub, done, |e| e.begin_join(reg_floor)));
    }

    // ------------------------------------------------------------------
    // Observers
    // ------------------------------------------------------------------

    /// Disaggregated bytes this group's register banks occupy on one
    /// memory node.
    pub(crate) fn disagg_bytes_per_node(&self) -> usize {
        self.env.reg_banks.iter().flatten().map(RegisterBank::bytes_per_node).sum()
    }

    /// Bytes replica `r` retains in checkpoint snapshots for serving
    /// state transfers (zero unless the fault plan schedules faults).
    pub(crate) fn replica_snapshot_bytes(&self, r: usize) -> usize {
        self.env.machines[r].snapshots.iter().map(|s| s.app_bytes.len()).sum()
    }

    /// Checkpoint snapshots replica `r` currently retains (the auditor
    /// checks the count against its cap).
    pub(crate) fn snapshot_count(&self, r: usize) -> usize {
        self.env.machines[r].snapshots.len()
    }

    /// Approximate replica-local resident bytes of replica `r`: channel
    /// buffers it hosts, sender mirrors/staging, TB retransmission
    /// buffers, and CTBcast bookkeeping (Table 2).
    pub(crate) fn replica_local_bytes(&self, r: usize) -> usize {
        self.env.transport.resident_bytes_touching(r as u32)
            + self.nodes[r].protocol_resident_bytes()
    }

    /// Per-replica protocol diagnostics, one line each.
    pub(crate) fn diag_lines(&self) -> String {
        let mut s = String::new();
        for (nd, m) in self.nodes.iter().zip(&self.env.machines) {
            let ctb: Vec<String> = (0..self.nodes.len())
                .map(|st| {
                    format!(
                        "s{}:dlv{}/fifo{}",
                        st,
                        nd.ctbs[st].max_delivered().0,
                        nd.engine.fifo_position(ReplicaId(st as u32)).0,
                    )
                })
                .collect();
            s.push_str(&format!(
                "  {} crashed={} [{}]\n",
                nd.engine.diag(),
                m.crashed,
                ctb.join(" ")
            ));
        }
        for (detector, nd) in self.nodes.iter().enumerate() {
            for (culprit, why) in &nd.branded {
                s.push_str(&format!("  r{detector} branded r{culprit} byzantine: {why}\n"));
            }
        }
        let transfer_misses: u64 = self.nodes.iter().map(|nd| nd.transfer_misses).sum();
        if transfer_misses > 0 {
            s.push_str(&format!(
                "  {transfer_misses} state transfer(s) found no donor snapshot (state may have diverged)\n",
            ));
        }
        s
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    fn on_poll(&mut self, sh: &mut Shared<'_>, lane: Lane, from: usize, to: usize, at: Time) {
        let mut buf = std::mem::take(&mut self.env.poll_buf);
        buf.clear();
        let out =
            self.env.transport.poll(sh.fabric, lane.id(), from as u32, to as u32, at, &mut buf);
        if out.repoll {
            self.env.push(sh, at + Duration::from_nanos(200), Ev::Poll { lane, from, to });
        }
        for (_seq, payload) in out.delivered {
            let payload = &buf[payload];
            if lane == Lane::ClientResp {
                self.clients.on_reply(&mut SimClientPort { env: &mut self.env, sh, at }, payload);
            } else {
                // (A crashed host's memory delivers nothing to poll.)
                self.on_node(sh, to, |nd, sub| nd.on_inbound(sub, lane, from, payload, at));
            }
        }
        self.env.poll_buf = buf;
    }

    /// Handles one event popped from the shared queue. Scheduled crashes
    /// are applied first and only here — another group's crash flags are
    /// read only while handling its own events, so they catch up then —
    /// which makes a replica's crash flag constant for everything one
    /// event's handling nests.
    pub(crate) fn handle(&mut self, sh: &mut Shared<'_>, ev: Ev, t: Time) {
        self.apply_scheduled_crashes(t);
        match ev {
            Ev::Poll { lane, from, to } => self.on_poll(sh, lane, from, to, t),
            Ev::Flush { lane, from, to } => {
                let env = &mut self.env;
                let rep = env.transport.flush(sh.fabric, lane.id(), from as u32, to as u32, t);
                env.schedule_send_report(sh, lane, from, to, t, rep);
            }
            Ev::Timer { r, timer } => {
                // The retransmission tick outlives a crash: the replacement
                // inherits it.
                if self.env.machines[r].crashed && matches!(timer, NodeTimer::Retransmit) {
                    let next = t + self.env.cfg.retransmit_period;
                    self.env.push(sh, next, Ev::Timer { r, timer });
                }
                self.on_node(sh, r, |nd, sub| nd.on_timer(sub, timer, t));
            }
            Ev::CtbDone { r, stream, done } => {
                self.on_node(sh, r, |nd, sub| nd.on_ctb_done(sub, stream, done, t));
            }
            Ev::Client { c, timer } => {
                let port = &mut SimClientPort { env: &mut self.env, sh, at: t };
                self.clients.on_timer(port, c, timer);
            }
            Ev::Replace { r, host } => self.replace_replica(sh, r, host, t),
            // A deferred engine-effect batch's crypto completed: apply it
            // now, unless a dead incarnation scheduled it or the node died
            // with its crypto queue.
            Ev::EngineFx { r, epoch, fx } => {
                let m = &mut self.env.machines[r];
                if epoch == m.epoch {
                    m.deferred_fx = m.deferred_fx.saturating_sub(1);
                    self.on_node(sh, r, |nd, sub| nd.apply_effects(sub, t, fx));
                }
            }
            Ev::EngineCrypto { r, epoch, tag, result } => {
                if epoch == self.env.machines[r].epoch {
                    self.on_node(sh, r, |nd, sub| {
                        nd.engine_call(sub, t, |e| e.on_crypto_done(tag, result));
                    });
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// The shared deployment driver
// ----------------------------------------------------------------------

/// A whole deployment: one shared fabric, one shared (group-tagged) event
/// queue, one completion count, and `G ≥ 1` consensus groups.
///
/// Host-ID layout: group `g` occupies the contiguous block
/// `[g·(n + n_clients), (g+1)·(n + n_clients))` — replicas first, then
/// clients — and the `2f_m + 1` shared memory nodes occupy the final
/// `n_mem` ids. With `G = 1` this is exactly the pre-sharding `Cluster`
/// layout, which is what makes the single-group facade bit-for-bit
/// compatible.
pub(crate) struct Deployment {
    pub now: Time,
    pub fabric: Fabric,
    pub events: EventQueue<GroupEv>,
    /// Requests completed by every group's clients together.
    pub completed: u64,
    pub groups: Vec<GroupRuntime>,
    /// The omniscient safety auditor ([`SimConfig::with_audit`]); `None`
    /// keeps the run observation-free and bit-for-bit historical.
    pub audit: Option<Auditor>,
}

impl Deployment {
    /// Builds `shards` groups over one fabric. `make_apps(g)` yields group
    /// `g`'s `n` application instances; `make_workload(g)` yields its
    /// request source.
    pub(crate) fn build(
        base: &SimConfig,
        mut make_apps: impl FnMut(usize) -> Vec<Box<dyn App>>,
        mut make_workload: impl FnMut(usize) -> GroupWorkload,
    ) -> Self {
        let shards = base.shards.max(1);
        let n = base.params.n();
        let n_clients = base.n_clients.max(1);
        let n_mem = base.params.n_mem();
        let block = n + n_clients;

        // Per-group configurations: group-local seed and fault plan.
        let cfgs: Vec<SimConfig> = (0..shards)
            .map(|g| {
                let mut cfg = base.clone();
                // The group's own plan; `shards` keeps the deployment-wide
                // count (the facades read it for stall deadlines), while
                // the per-shard extras are folded into `failures`.
                cfg.failures = base.shard_plan(g);
                // The asynchrony phase is deployment-global (the network
                // delays *every* group's traffic pre-GST), so every
                // group's plan must carry it — snapshot retention reads
                // it, and a shard that lags a window behind pre-GST
                // delays needs donor snapshots to heal.
                cfg.failures.gst = base.failures.gst;
                cfg.failures.pre_gst_extra = base.failures.pre_gst_extra;
                cfg.shard_failures = Vec::new();
                cfg
            })
            .collect();

        // Replacement nodes get brand-new host ids past the memory nodes,
        // pre-allocated so the host count (and thus the deterministic
        // event schedule) is fixed at build time.
        let mut n_hosts = shards * block + n_mem;
        let mut replacements: Vec<(Time, u32, usize, HostId)> = Vec::new();
        for (g, cfg) in cfgs.iter().enumerate() {
            for (r, _crash_at, rejoin_at) in cfg.failures.replacements() {
                assert!(r < n, "shard {g}: replacement victim {r} out of range");
                let host = HostId(n_hosts as u32);
                n_hosts += 1;
                replacements.push((rejoin_at, g as u32, r, host));
            }
        }

        let rng = SimRng::new(base.seed);
        let mut net = NetworkModel::synchronous(base.latency.clone(), n_hosts)
            .with_gst(base.failures.gst, base.failures.pre_gst_extra);
        // Apply crash schedules, mapped into the global host space.
        for (g, cfg) in cfgs.iter().enumerate() {
            let host_base = (g * block) as u32;
            for i in 0..n {
                if let Some(t) = cfg.failures.replica_crash_time(i) {
                    net.crash_host(HostId(host_base + i as u32), t);
                }
            }
        }
        // Memory nodes are shared; a crash scheduled by any group's plan
        // takes the earliest scheduled time.
        for i in 0..n_mem {
            if let Some(t) = cfgs.iter().filter_map(|c| c.failures.mem_node_crash_time(i)).min() {
                net.crash_host(HostId((shards * block + i) as u32), t);
            }
        }
        for (g, cfg) in cfgs.iter().enumerate() {
            let host_base = (g * block) as u32;
            for (a, b, from, until) in cfg.failures.partitions() {
                // Partition endpoints are replica indices by contract
                // (`FailurePlan::partition`). In a multi-shard deployment
                // an index beyond the group's host block would silently
                // land inside the *next* group's block, so reject it
                // loudly; single-group deployments keep the historical
                // raw-host-id behavior.
                assert!(
                    shards == 1 || (a < block && b < block),
                    "shard {g}: partition endpoints ({a}, {b}) must be group-local (< {block})"
                );
                net.add_partition(
                    HostId(host_base + a as u32),
                    HostId(host_base + b as u32),
                    from,
                    until,
                );
            }
        }
        let mut fabric = Fabric::new(net, rng.fork(1));
        let mut events = EventQueue::new();
        let mut completed = 0;
        let mem_hosts: Vec<HostId> =
            (0..n_mem).map(|i| HostId((shards * block + i) as u32)).collect();

        let mut groups = Vec::with_capacity(shards);
        // Groups are built unaudited (nothing decision-relevant happens at
        // construction — engine start-up arms watchdogs only); the auditor
        // reads their shape and sequential models once they exist.
        let mut audit: Option<Auditor> = None;
        for (g, cfg) in cfgs.into_iter().enumerate() {
            let mut sh = Shared {
                fabric: &mut fabric,
                events: &mut events,
                completed: &mut completed,
                audit: &mut audit,
            };
            groups.push(GroupRuntime::new(
                g as u32,
                cfg,
                (g * block) as u32,
                &mem_hosts,
                make_apps(g),
                ClientLoop::bootstrap(base, g, make_workload(g)),
                &mut sh,
            ));
        }
        if base.audit {
            audit = Some(Auditor::new(&groups));
        }
        for (rejoin_at, g, r, host) in replacements {
            events.push(rejoin_at, (g, Ev::Replace { r, host }));
        }

        Deployment { now: Time::ZERO, fabric, events, completed, groups, audit }
    }

    /// Drives the closed loop until `requests + warmup` total completions
    /// or virtual time passes `deadline`.
    pub(crate) fn run_loop(&mut self, requests: u64, warmup: u64, deadline: Time) {
        for (g, gr) in self.groups.iter_mut().enumerate() {
            gr.clients.begin(requests, warmup);
            // Clients start 1 µs apart, so their first requests do not
            // share an instant.
            for c in 0..gr.clients.len() {
                let timer = ClientTimer::Issue;
                let at = Time::ZERO + Duration::from_micros(1 + c as u64);
                self.events.push(at, (g as u32, Ev::Client { c, timer }));
            }
        }
        let max_events = 200_000_000u64;
        while let Some((t, (gid, ev))) = self.events.pop() {
            self.now = t;
            if self.completed >= requests + warmup || t > deadline {
                break;
            }
            assert!(self.events.total_pushed() < max_events, "simulation diverged (event flood)");
            self.dispatch(gid, ev, t);
        }
    }

    /// [`Deployment::run_loop`] under the deadline the configuration
    /// derives for that many requests, then the report.
    ///
    /// # Panics
    ///
    /// Panics, with per-replica protocol diagnostics, if the deployment
    /// stopped making progress before completing them.
    pub(crate) fn run(&mut self, requests: u64, warmup: u64) -> RunReport {
        let total = requests + warmup;
        self.run_loop(requests, warmup, self.groups[0].env.cfg.stall_deadline(total));
        let report = self.report();
        assert!(
            report.completed >= total,
            "run stalled at {}/{total} completed requests (t = {})\n{}",
            report.completed,
            self.now,
            self.diag_lines(),
        );
        report
    }

    /// Hands one popped event to its group.
    fn dispatch(&mut self, gid: u32, ev: Ev, t: Time) {
        let Deployment { fabric, events, completed, groups, audit, .. } = self;
        let mut sh = Shared { fabric, events, completed, audit };
        groups[gid as usize].handle(&mut sh, ev, t);
    }

    /// Keeps processing events for `extra` more virtual time *without* a
    /// completion target: in-flight deliveries drain, stragglers (and
    /// replacement nodes) finish catching up. No client issues once the
    /// run's target is met — requests already in flight are still
    /// retransmitted, completed and counted — so this converges instead
    /// of generating new work.
    pub(crate) fn settle(&mut self, extra: Duration) {
        let deadline = self.now + extra;
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            let Some((t, (gid, ev))) = self.events.pop() else { break };
            self.now = t;
            self.dispatch(gid, ev, t);
        }
    }

    /// The auditor's verdict over everything observed so far (`None` when
    /// auditing is off). Idempotent — the model replays incrementally, so
    /// asking again after [`Deployment::settle`] audits the drained tail.
    pub(crate) fn audit_report(&mut self) -> Option<AuditReport> {
        let Deployment { audit, groups, .. } = self;
        audit.as_mut().map(|a| a.report(groups))
    }

    /// The report of everything run so far, stamped with the current
    /// virtual time and the audit verdict; takes each group's latency
    /// samples and each replica's execution log.
    pub(crate) fn report(&mut self) -> RunReport {
        let audit = self.audit_report();
        let group = |(g, gr): (usize, &mut GroupRuntime)| GroupReport {
            completed: gr.clients.completed,
            latency: std::mem::take(&mut gr.clients.latency),
            counters: gr.env.counters,
            views: Vec::new(),
            audit: audit.as_ref().map(|a| a.for_group(g)),
            replicas: gr.nodes.iter_mut().map(ReplicaReport::of).collect(),
        };
        let groups = self.groups.iter_mut().enumerate().map(group).collect();
        RunReport::of_groups(groups, self.now, audit, Backend::Sim)
    }

    /// Per-replica diagnostics for every group.
    pub(crate) fn diag_lines(&self) -> String {
        if self.groups.len() == 1 {
            return self.groups[0].diag_lines();
        }
        self.groups
            .iter()
            .enumerate()
            .map(|(g, gr)| format!(" shard {g}:\n{}", gr.diag_lines()))
            .collect()
    }
}
