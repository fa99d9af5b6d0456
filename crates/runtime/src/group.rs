//! One consensus group's runtime inside a
//! [`Cluster`](crate::cluster::Cluster).
//!
//! A [`GroupRuntime`] is one `2f + 1` group in the simulator: its
//! [`ReplicaNode`]s — the protocol stacks and the driver that interprets
//! their effects, shared with the threaded backend — and their
//! [`Executor`]s, and the [`SimEnv`] they run in: the simulated machines
//! (host, cost cursors, retained snapshots), the channel lanes between
//! them, the group's partition of the SWMR register banks and fault
//! injection — beside the group's [`ClientLoop`], the closed-loop clients
//! both backends share. [`SimSubstrate`] is the [`Substrate`] a node sees
//! while one event is handled, [`SimExecPort`] the [`ExecPort`] its
//! executor sees, [`SimClientPort`] the [`ClientPort`] the clients see.
//! The fabric and the event queue are *not*
//! the group's: those are shared deployment-wide so that many groups can
//! ride one RDMA network and one set of passive memory nodes (the paper's
//! scale-out story). Every event in the shared queue is tagged with the
//! owning group's id; all indices inside a group are group-local and
//! mapped into the global `HostId` space via each group's host-block base.

use std::ops::Range;

use ubft_core::app::App;
use ubft_core::engine::{CryptoJob, CryptoOps, DecisionRecord, Effect};
use ubft_core::msg::{exec_table_digest, Request};
use ubft_crypto::{Digest, KeyRing};
use ubft_ctb::ctbcast::RegEntry;
use ubft_dmem::{RegisterBank, WriteOutcome};
use ubft_rdma::Fabric;
use ubft_sim::failure::ByzantineMode;
use ubft_sim::{EventQueue, HostId};
use ubft_transport::channel::{
    create_channel, ChannelReceiver, ChannelSender, ChannelSpec, SendOutcome,
};
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, FixedMap, ReplicaId, RequestId, SeqId, Slot, Time};

use crate::audit::{AuditMutation, Auditor};
use crate::calibration::{SimConfig, POLL_PICKUP, RETRANSMIT_PERIOD};
use crate::client_loop::{ClientLoop, ClientPort, ClientTimer};
use crate::cluster::ReplicaReport;
use crate::exec::{ExecJob, ExecPort, Executor};
use crate::node::{
    byzantine_mode, CryptoTask, CtbDone, ExecTable, Lane, NodeInput, NodeTimer, ReplicaNode,
    Substrate,
};
use crate::registers::{Registers, SlotRead};
use crate::stall::ReplicaStall;

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
    /// `input` comes back to replica `r`: a timer it armed fired, or work
    /// it started finished. Effects kept back behind crypto flow through
    /// the queue too — applying them early would hand the fabric
    /// out-of-order timestamps, and its per-host-pair FIFO would then pin
    /// every later (normally timed) message behind the future one.
    Node {
        /// The group-local replica index (`u32` keeps `Ev` at 128 bytes).
        r: u32,
        /// The host that scheduled the input: a replacement moves the
        /// replica to a fresh one, so nothing a dead host started acts on
        /// its successor.
        host: HostId,
        input: NodeInput,
    },
    /// Answer `answer` of slot read `read`'s read of `owner`'s register
    /// reaches its memory node: what the node holds now is what it returns.
    RegSample {
        read: usize,
        owner: usize,
        answer: usize,
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
    /// loop stops on the *total*, and warmup discarding is likewise global.
    pub completed: &'a mut u64,
    /// `None` when auditing is off — the hooks below are then no-ops, so
    /// unaudited runs stay bit-for-bit identical to historical behaviour.
    pub audit: &'a mut Option<Auditor>,
}

impl Shared<'_> {
    /// Tells the auditor, if the deployment has one, about replica `r` of
    /// group `gid` (`f` gets the group and replica indices).
    fn tell_auditor(&mut self, gid: u32, r: usize, f: impl FnOnce(&mut Auditor, usize, usize)) {
        if let Some(aud) = self.audit.as_mut() {
            f(aud, gid as usize, r);
        }
    }
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
/// per replica beside its protocol stack and its executor.
struct Machine {
    /// `host_base + r` until a replacement moves the replica to a freshly
    /// allocated host. The host is the replica's incarnation, and whether
    /// the replica is up is whether the fabric's network model has this
    /// host crashed ([`SimEnv::crashed`]).
    host: HostId,
    /// Main-core busy-until cursor (event-loop dispatch serializes here).
    busy: Time,
    /// Execution-core busy-until cursor: the executor's jobs run here, in
    /// the order the main core handed them over.
    exec_busy: Time,
    /// Busy-until cursor of the first of the replica's two crypto workers
    /// (the paper's background crypto pool, §5.4). Crypto a request waits
    /// for — the engine's *ordered* signatures and verifications, whose
    /// effects act only once they finish, and a slow-path slot's CERTIFY
    /// shares, our own signed and a peer's checked
    /// ([`CryptoTag::on_request_path`](ubft_core::engine::CryptoTag::on_request_path)) — serializes on whichever worker
    /// frees first ([`Machine::free_worker`]) instead of on the main cursor.
    crypto_busy: Time,
    /// The second worker's cursor, and the only one background
    /// certification (summary and checkpoint jobs) runs on: such a job
    /// starts behind earlier work here and once the ordered crypto queued
    /// so far has been served (`deferred_until`), so the pool serves
    /// requests first — at a boundary a request finds one worker free of
    /// bookkeeping, and at worst waits one operation for the other.
    job_busy: Time,
    /// Engine-effect batches deferred behind crypto completion that have
    /// not been applied yet ([`NodeInput::Effects`]).
    deferred_fx: u32,
    /// Scheduled time of the most recent deferred batch: later batches —
    /// even crypto-free ones — must apply after it to preserve the
    /// engine's emission order.
    deferred_until: Time,
    /// The replica's handles on the group's SWMR register banks.
    regs: Registers,
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

    /// A replica's machine on `host`, idle as of `at`; its bank writers
    /// are keyed in by the caller.
    fn boot(host: HostId, at: Time) -> Self {
        Machine {
            host,
            busy: at,
            exec_busy: at,
            crypto_busy: at,
            job_busy: at,
            deferred_fx: 0,
            deferred_until: Time::ZERO,
            regs: Registers::default(),
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
    /// The group's message plane: one simulated circular-buffer channel
    /// per `(lane, from, to)`, its receive buffer in `to`'s fabric memory.
    links: FixedMap<(Lane, usize, usize), (ChannelSender, ChannelReceiver)>,
    /// `reg_banks[stream][owner]`: the SWMR banks themselves, retained so
    /// a replacement node can be re-keyed as a bank's writer.
    reg_banks: Vec<Vec<RegisterBank>>,
    /// `Some` when the fault plan schedules anything: machines then retain
    /// checkpoint snapshots (failure-free runs pay nothing), and this is
    /// the serialized genesis application state a replacement node's app
    /// is reset to before its state transfer.
    genesis_snapshot: Option<Vec<u8>>,
    ring: KeyRing,
    /// Where a receiver poll copies the messages it finds, to be decoded in
    /// place — reused for every poll.
    poll_buf: Vec<u8>,
    /// Where a register write encodes its [`RegEntry`] — reused likewise.
    reg_buf: Vec<u8>,
    /// Register round trips and the replica making each, by the index
    /// their [`Ev::RegSample`]s carry: the ones in flight, settled ones
    /// whose entries are still on their way to CTBcast, and free ones whose
    /// buffers serve the next.
    pub(crate) slot_reads: Vec<(usize, SlotRead)>,
}

/// One consensus group: `2f + 1` [`ReplicaNode`]s, its closed-loop clients,
/// and the simulated environment both run in.
pub(crate) struct GroupRuntime {
    pub(crate) nodes: Vec<ReplicaNode>,
    /// The replicas' execution cores, in replica order.
    pub(crate) execs: Vec<Executor>,
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

    /// Whether replica `r`'s current host is down at `t`.
    fn crashed(&self, fabric: &Fabric, r: usize, t: Time) -> bool {
        fabric.net().is_crashed(self.machines[r].host, t)
    }

    fn push(&self, sh: &mut Shared<'_>, at: Time, ev: Ev) {
        sh.events.push(at, (self.gid, ev));
    }

    /// Schedules `input` for replica `r` at `at`, stamped with `r`'s
    /// current host.
    fn push_input(&self, sh: &mut Shared<'_>, r: usize, at: Time, input: NodeInput) {
        let host = self.machines[r].host;
        self.push(sh, at, Ev::Node { r: r as u32, host, input });
    }

    /// Arms replica `r`'s TBcast retransmission tick for its current
    /// incarnation, booted at `at`: each replica's chain is staggered so
    /// that replicas do not burst in lockstep.
    fn arm_retransmit(&self, sh: &mut Shared<'_>, r: usize, at: Time) {
        let first = at + RETRANSMIT_PERIOD + Duration::from_nanos(1_000 * (r as u64 + 1));
        self.push_input(sh, r, first, NodeInput::Timer(NodeTimer::Retransmit));
    }

    /// Schedules what slot read `id` waits for next: once every owner's
    /// read has settled, the entries, at the read's completion; otherwise
    /// an [`Ev::RegSample`] at each arrival of the reads of `owners`, just
    /// posted.
    fn await_read(&mut self, sh: &mut Shared<'_>, id: usize, owners: Range<usize>) {
        let (r, read) = &mut self.slot_reads[id];
        if let Some(input) = read.settled() {
            let ev = Ev::Node { r: *r as u32, host: read.host, input };
            return sh.events.push(read.completion, (self.gid, ev));
        }
        for owner in owners {
            for (answer, arrival) in read.owners[owner].arrivals().enumerate() {
                sh.events.push(arrival, (self.gid, Ev::RegSample { read: id, owner, answer }));
            }
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
        // The sender is bound to its host for crash and partition
        // modelling; re-opening drops the old endpoints, as a replacement
        // node's re-established connection does.
        let (mut tx, rx) = create_channel(fabric, self.host_of(to), spec);
        tx.bind_issuer(self.host_of(from));
        self.links.insert((lane, from, to), (tx, rx));
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

    fn crypto_cost(&self, ops: CryptoOps) -> Duration {
        Duration::from_nanos(
            self.cfg.cost.sign_total().as_nanos() * ops.signs as u64
                + self.cfg.cost.verify_total().as_nanos() * ops.verifies as u64,
        )
    }

    // ------------------------------------------------------------------
    // Channels
    // ------------------------------------------------------------------

    /// Sends `bytes` on `lane` and schedules what the outcome asks for.
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
        match byzantine_mode(&self.cfg, from, at) {
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
        let (tx, _) = self.links.get_mut(&(lane, from, to))?;
        let out = tx.send(sh.fabric, at, bytes);
        let verdict = if out.refused > 0 {
            Some(false)
        } else if out.issued.is_empty() {
            None
        } else {
            Some(true)
        };
        self.schedule_send(sh, lane, from, to, at, out);
        verdict
    }

    /// Turns a [`SendOutcome`] into virtual-time events: a receiver poll
    /// per issued write's arrival, and a flush when data stayed staged.
    fn schedule_send(
        &mut self,
        sh: &mut Shared<'_>,
        lane: Lane,
        from: usize,
        to: usize,
        at: Time,
        out: SendOutcome,
    ) {
        for (_seq, arrival) in out.issued {
            self.push(sh, arrival + POLL_PICKUP, Ev::Poll { lane, from, to });
        }
        if let Some(t) = out.flush_at {
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
    fn send(&mut self, c: usize, id: RequestId, bytes: &[u8], replicas: &[ReplicaId]) {
        let env = &mut *self.env;
        if let Some(aud) = self.sh.audit.as_mut() {
            aud.on_send(env.gid as usize, id, self.at);
        }
        // Auditor self-test: the first request of the run brings along one
        // that no port sent, named after a client the group does not have.
        let unsent = (env.cfg.audit_mutation == Some(AuditMutation::UnsentRequest)
            && id == RequestId::new(ClientId(0), 0))
        .then(|| {
            let req = Request::from_bytes(bytes).expect("an encoded request");
            let id = RequestId::new(ClientId(env.cfg.n_clients as u32), 0);
            Request { id, ..req }.to_bytes()
        });
        for to in replicas {
            for bytes in std::iter::once(bytes).chain(unsent.as_deref()) {
                let to = to.0 as usize;
                env.channel_send(self.sh, Lane::ClientReq, env.n() + c, to, bytes, self.at);
            }
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

/// What replica `r`'s [`ReplicaNode`] sees of the simulator while the
/// event at virtual time `t` is handled: a short-lived view over its
/// group's environment and the deployment's shared fabric, queue and
/// auditor. `At` is virtual time; the clock is the main core's time
/// charged so far (`spent`).
struct SimSubstrate<'a, 'b> {
    env: &'a mut SimEnv,
    sh: &'a mut Shared<'b>,
    exec: &'a mut Executor,
    r: usize,
    t: Time,
    spent: Duration,
}

impl Substrate for SimSubstrate<'_, '_> {
    type At = Time;

    fn send(&mut self, lane: Lane, to: usize, bytes: &[u8], at: Time) -> Option<bool> {
        self.env.channel_send(self.sh, lane, self.r, to, bytes, at)
    }

    fn arm(&mut self, timer: NodeTimer, after: Duration, at: Time) {
        self.env.push_input(self.sh, self.r, at + after, NodeInput::Timer(timer));
    }

    /// Completes `task` its calibrated cost after `at`, on no cursor.
    fn crypto(&mut self, task: CryptoTask, at: Time) {
        let (env, r) = (&mut *self.env, self.r);
        let at = at + env.crypto_cost(task.ops());
        env.push_input(self.sh, r, at, task.run(r, &env.ring));
    }

    /// The round trip on the fabric ([`SlotRead`]): each answer is sampled
    /// when the read reaches its memory node ([`Ev::RegSample`]). The
    /// write's quorum and then the entries, in replica order, come back
    /// when they reach the replica.
    fn write_and_read_slot(&mut self, stream: usize, slot: usize, e: RegEntry, at: Time) {
        let (env, r, sh) = (&mut *self.env, self.r, &mut *self.sh);
        env.reg_buf.clear();
        e.encode(&mut env.reg_buf);
        // A round trip is free for the next once it has settled and its
        // entries' buffer is back.
        let free = |(_, rd): &(usize, SlotRead)| rd.unsettled == 0 && !rd.lacks_buffer();
        let id = env.slot_reads.iter().position(free).unwrap_or_else(|| {
            env.slot_reads.push(Default::default());
            env.slot_reads.len() - 1
        });
        let (m, (reader, read)) = (&mut env.machines[r], &mut env.slot_reads[id]);
        *reader = r;
        let out = read.start(&mut m.regs, sh.fabric, m.host, stream, slot, e.k, &env.reg_buf, at);
        // Only a write that reached its quorum completes. A writer that died
        // at a crash boundary (possibly via the δ-cooldown deferring the
        // start past its own crash) has its continuation events dropped by
        // the crash checks, so there is nothing to schedule; with more than
        // f_m memory nodes down (outside the fault model) the slow path
        // simply cannot complete.
        if let WriteOutcome::Done(at) = out {
            env.push_input(sh, r, at, NodeInput::Ctb { stream, done: CtbDone::Written(e.k) });
        }
        env.await_read(sh, id, 0..env.n());
    }

    /// Back to a slot read whose entries are out, which frees it.
    fn recycle_read(&mut self, entries: Vec<Option<RegEntry>>) {
        let reads = &mut self.env.slot_reads;
        if let Some((_, read)) = reads.iter_mut().find(|(_, read)| read.lacks_buffer()) {
            read.recycle(entries);
        }
    }

    fn clock(&self) -> Duration {
        self.spent
    }

    fn charge(&mut self, at: Time, extra: Duration) -> Time {
        let (m, spent) = (&mut self.env.machines[self.r], self.env.cfg.cost.dispatch + extra);
        self.spent += spent;
        m.busy = at.max(m.busy) + spent;
        m.busy
    }

    /// Runs `job` on the replica's execution core: as of `at`, or once the
    /// core is done with the jobs before it.
    fn exec(&mut self, job: ExecJob, at: Time) -> Vec<Request> {
        let t = at.max(self.env.machines[self.r].exec_busy);
        let port = &mut SimExecPort { env: &mut *self.env, sh: &mut *self.sh, r: self.r, t };
        self.exec.run(job, port)
    }

    fn engine_call_done(
        &mut self,
        at: Time,
        ops: CryptoOps,
        jobs: std::vec::Drain<'_, CryptoJob>,
        fx: Vec<Effect>,
    ) -> Option<(Time, Vec<Effect>)> {
        // The event-loop dispatch runs on the replica's main core; crypto
        // runs on the replica's crypto pool (§5.4), two workers: what a
        // request waits for takes whichever frees first.
        let done = self.charge(at, Duration::ZERO);
        let (env, r) = (&mut *self.env, self.r);
        let effect_at = if ops.is_zero() {
            done
        } else {
            let cost = env.crypto_cost(ops);
            worker_run(env.machines[r].free_worker(), done, cost)
        };
        // Crypto jobs are work nothing in this call's effects depends on:
        // each comes back as an input of its own, delaying neither these
        // effects nor any later batch. The pool serves requests first. A
        // slot's CERTIFY shares are on a request's path and take whichever
        // worker frees first, in the order the engine queued them. Summary
        // and checkpoint certification (§5.2 fn. 3) is not: it runs on the
        // second worker only, behind that worker's earlier work and the
        // ordered crypto queued so far, this call's included, so its
        // result still follows this call's effects. It does not wait for a
        // share check on the other worker: a cursor cannot give back the
        // gap that would leave.
        for job in jobs {
            let cost = env.crypto_cost(job.ops());
            let m = &mut env.machines[r];
            let fin = if job.tag.on_request_path() {
                worker_run(m.free_worker(), done, cost)
            } else {
                let from = effect_at.max(m.deferred_until);
                worker_run(&mut m.job_busy, from, cost)
            };
            env.push_input(self.sh, r, fin, CryptoTask::Engine(job).run(r, &env.ring));
        }
        let m = &mut env.machines[r];
        if ops.is_zero() && m.deferred_fx == 0 {
            // The common (crypto-free) path applies effects inline — the
            // historical behaviour, bit-for-bit.
            return Some((done, fx));
        }
        // Ordered crypto (the certificates of COMMITs we did not certify,
        // view-change signatures and checks) is crypto this call's effects
        // *do* depend on: they act only once it has finished. Route them
        // through the event queue so the fabric only ever sees monotone
        // timestamps per host pair (applying early would stall every later
        // message behind the future arrival in the FIFO network). While any batch is
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
        env.push_input(self.sh, r, at_eff, NodeInput::Effects(fx));
        None
    }

    /// Served from any live peer's retained checkpoint snapshot.
    fn fetch_snapshot(
        &mut self,
        base: Slot,
        app_digest: Digest,
        exec_digest: Digest,
    ) -> Option<(Vec<u8>, ExecTable)> {
        let (r, t, net) = (self.r, self.t, self.sh.fabric.net());
        let live = |(q, m): &(usize, &Machine)| *q != r && !net.is_crashed(m.host, t);
        let donors = self.env.machines.iter().enumerate().filter(live);
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
                self.sh
                    .tell_auditor(self.env.gid, self.r, |aud, g, r| aud.on_transfer_restored(g, r));
                let cost = self.env.cfg.latency.worst_case(bytes);
                let _ = self.charge(at, cost);
            }
            // The auditor stops vouching for the replica's application
            // state.
            None => {
                self.sh.tell_auditor(self.env.gid, self.r, |aud, g, r| aud.on_transfer_miss(g, r))
            }
        }
    }

    fn on_decision(&mut self, rec: DecisionRecord) {
        self.sh.tell_auditor(self.env.gid, self.r, |aud, g, r| aud.on_decision(g, r, rec));
    }

    fn on_checkpoint_adopted(&mut self, base: Slot) {
        self.sh
            .tell_auditor(self.env.gid, self.r, |aud, g, r| aud.on_checkpoint_adopted(g, r, base));
    }

    fn byz_mode(&self, at: Time) -> Option<ByzantineMode> {
        byzantine_mode(&self.env.cfg, self.r, at)
    }
}

/// What replica `r`'s [`Executor`] sees of the simulator while it runs one
/// job: its execution core's clock `t`, which a slot's job advances by one
/// dispatch and each request it runs by the application's cost.
struct SimExecPort<'a, 'b> {
    env: &'a mut SimEnv,
    sh: &'a mut Shared<'b>,
    r: usize,
    t: Time,
}

impl<A: App + ?Sized> ExecPort<A> for SimExecPort<'_, '_> {
    fn reply(&mut self, to: usize, bytes: &[u8]) {
        self.env.channel_send(self.sh, Lane::ClientResp, self.r, to, bytes, self.t);
    }

    fn input(&mut self, input: NodeInput) {
        self.env.push_input(self.sh, self.r, self.t, input);
    }

    fn clock(&self) -> Duration {
        self.t - Time::ZERO
    }

    fn dispatch(&mut self, _slot: Slot) {
        self.t += self.env.cfg.cost.dispatch;
        self.env.machines[self.r].exec_busy = self.t;
    }

    fn executed(&mut self, slot: Slot, id: RequestId, applied: &[u8], resp: &[u8], cost: Duration) {
        self.sh.tell_auditor(self.env.gid, self.r, |aud, g, r| {
            aud.on_execute(g, r, slot, id, applied, resp)
        });
        self.t += cost;
        self.env.machines[self.r].exec_busy = self.t;
    }

    fn snapshot(&mut self, base: Slot, app_digest: Digest, exec_table: ExecTable, app: &A) {
        self.sh.tell_auditor(self.env.gid, self.r, |aud, g, r| {
            let digests = (app_digest, exec_table_digest(&exec_table));
            aud.on_checkpoint_digest(g, r, base, digests);
        });
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
            (0..n as u32).map(|r| Machine::boot(HostId(host_base + r), Time::ZERO)).collect();
        let nodes = (0..n).map(|r| ReplicaNode::new(r, &cfg, ring.clone())).collect();
        let execs = apps
            .into_iter()
            .enumerate()
            .map(|(r, app)| Executor::new(r, &cfg, &ring, app))
            .collect();
        let mut env = SimEnv {
            gid,
            host_base,
            machines,
            links: FixedMap::default(),
            reg_banks: Vec::new(),
            genesis_snapshot,
            ring,
            poll_buf: Vec::new(),
            reg_buf: Vec::new(),
            slot_reads: Vec::new(),
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

        // SWMR register banks, replicated on the shared memory nodes; only
        // `owner` holds the writer. Each group creates its own banks, so the
        // memory nodes' space is partitioned per group. The banks themselves
        // are retained (not just their handles): a replacement node is
        // re-keyed as its predecessor's banks' writer.
        env.reg_banks = Registers::banks(sh.fabric, mem_hosts, &env.cfg);
        for (r, m) in env.machines.iter_mut().enumerate() {
            m.regs = Registers::of(&env.reg_banks, r);
        }

        let mut group = GroupRuntime { nodes, execs, clients, env };
        // Engine start-up (progress watchdogs).
        for r in 0..n {
            group.on_node(sh, r, Time::ZERO, |nd, sub| nd.boot(sub, Time::ZERO, None));
        }
        for r in 0..n {
            group.env.arm_retransmit(sh, r, Time::ZERO);
        }
        group
    }

    /// Runs `f` on replica `r`'s protocol stack and the substrate it sees
    /// while the event at `t` is handled — unless `r`'s host is down at
    /// `t`.
    fn on_node(
        &mut self,
        sh: &mut Shared<'_>,
        r: usize,
        t: Time,
        f: impl FnOnce(&mut ReplicaNode, &mut SimSubstrate<'_, '_>),
    ) {
        if !self.env.crashed(sh.fabric, r, t) {
            let (env, exec, spent) = (&mut self.env, &mut self.execs[r], Duration::ZERO);
            f(&mut self.nodes[r], &mut SimSubstrate { env, sh, exec, r, t, spent });
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
        assert!(env.crashed(sh.fabric, r, at), "replacement of a live replica {r}");
        let n = env.n();
        if let Some(aud) = sh.audit.as_mut() {
            aud.on_replace(env.gid as usize, r);
        }

        // The fresh machine: a new host, idle, with fresh writers of its
        // predecessor's banks, whose double-buffer cursors and δ cooldowns
        // restart from scratch (the old node's died with it). Concurrent
        // readers stay safe: the replacement writes strictly fresher
        // timestamps, still alternating each register's sub-registers from
        // the restart point, and readers take the highest valid timestamp,
        // so a restarted cursor can at worst overwrite the *older* of the
        // two sub-registers' values, which regular semantics permit.
        let m = &mut env.machines[r];
        *m = Machine::boot(new_host, at);
        m.regs = Registers::of(&env.reg_banks, r);

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

        // The fresh node itself: a new protocol stack, and an executor
        // around the genesis application state.
        let node = self.nodes.remove(r).replaced(&env.cfg, env.ring.clone());
        self.nodes.insert(r, node);
        let mut exec = self.execs.remove(r).replaced(&env.cfg, &env.ring);
        exec.app.restore_bytes(env.genesis_snapshot.as_deref().expect("a replacement is a fault"));
        self.execs.insert(r, exec);

        // Step 1 of the join: recover the own-stream tail high-water mark
        // directly from the memory nodes (no replica trusted) — every
        // owner's bank of stream r can witness ids the crashed node
        // slow-pathed. Its reads are the new incarnation's.
        let mut reg_floor = SeqId(0);
        let mut done = at;
        for reader in &env.machines[r].regs.readers[r] {
            self.nodes[r].counters.reg_reads += reader.len() as u64;
            let scan = reader.scan_tail(sh.fabric, new_host, at);
            if let Some(ts) = scan.max_ts {
                reg_floor = reg_floor.max(SeqId(ts));
            }
            done = done.max(scan.completion);
        }
        env.machines[r].busy = done;

        // Step 2: the Join/JoinAck handshake (engine-driven from here), and
        // the incarnation's own retransmission tick.
        self.on_node(sh, r, at, |nd, sub| nd.boot(sub, done, Some(reg_floor)));
        self.env.arm_retransmit(sh, r, at);
    }

    // ------------------------------------------------------------------
    // Observers
    // ------------------------------------------------------------------

    /// Every replica's report; takes the execution logs.
    pub(crate) fn replica_reports(&mut self) -> Vec<ReplicaReport> {
        let each = self.nodes.iter().zip(&mut self.execs);
        each.map(|(nd, exec)| ReplicaReport::of(nd).with_exec(exec.report())).collect()
    }

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
        // A link's buffer counts once at each end: the receive buffer it
        // hosts, and the sender's mirror and staging.
        let ends =
            |(_, from, to): &(Lane, usize, usize)| (*from == r) as usize + (*to == r) as usize;
        let links: usize =
            self.env.links.iter().map(|(k, (tx, _))| tx.buffer_bytes() * ends(k)).sum();
        links + self.nodes[r].protocol_resident_bytes()
    }

    /// Every replica's row of the stall report as of `now`: its engine's
    /// explanation joined with the driver's facts.
    pub(crate) fn stall(&self, fabric: &Fabric, now: Time) -> Vec<ReplicaStall> {
        let plan = &self.env.cfg.failures;
        let faulty = |r| self.env.crashed(fabric, r, now) || plan.byzantine_mode(r, now).is_some();
        let replaced = |r| plan.replacements().any(|(i, _, rejoin)| i == r && rejoin <= now);
        let row = |(r, nd)| ReplicaStall::of(nd, faulty(r), replaced(r));
        self.nodes.iter().enumerate().map(row).collect()
    }

    // ------------------------------------------------------------------
    // Events
    // ------------------------------------------------------------------

    fn on_poll(&mut self, sh: &mut Shared<'_>, lane: Lane, from: usize, to: usize, at: Time) {
        let mut buf = std::mem::take(&mut self.env.poll_buf);
        buf.clear();
        // Every link is opened at build and re-opened, never removed.
        let (_, rx) = self.env.links.get_mut(&(lane, from, to)).expect("an opened link");
        let out = rx.poll_into(sh.fabric, at, &mut buf);
        if out.repoll {
            self.env.push(sh, at + Duration::from_nanos(200), Ev::Poll { lane, from, to });
        }
        for (_seq, payload) in out.delivered {
            let payload = &buf[payload];
            if lane == Lane::ClientResp {
                self.clients.on_reply(&mut SimClientPort { env: &mut self.env, sh, at }, payload);
            } else {
                // (A crashed host's memory delivers nothing to poll.)
                self.on_node(sh, to, at, |nd, sub| nd.on_inbound(sub, lane, from, payload, at));
            }
        }
        self.env.poll_buf = buf;
    }

    /// Handles one event popped from the shared queue. Whether a replica
    /// is up is asked at the event's time `t`, so the answer is constant
    /// for everything one event's handling nests.
    pub(crate) fn handle(&mut self, sh: &mut Shared<'_>, ev: Ev, t: Time) {
        match ev {
            Ev::Poll { lane, from, to } => self.on_poll(sh, lane, from, to, t),
            Ev::Flush { lane, from, to } => {
                let (tx, _) = self.env.links.get_mut(&(lane, from, to)).expect("an opened link");
                let out = tx.flush(sh.fabric, t);
                self.env.schedule_send(sh, lane, from, to, t, out);
            }
            Ev::Node { r, host, input } if host == self.env.machines[r as usize].host => {
                let r = r as usize;
                if let NodeInput::Effects(_) = input {
                    self.env.machines[r].deferred_fx -= 1;
                }
                self.on_node(sh, r, t, |nd, sub| nd.on_input(sub, input, t));
            }
            // Whatever an earlier incarnation of the replica scheduled died
            // with its host.
            Ev::Node { .. } => {}
            Ev::RegSample { read: id, owner, answer } => {
                let (r, read) = &mut self.env.slot_reads[id];
                let again = read.sample(&self.env.machines[*r].regs, sh.fabric, owner, answer);
                self.env.await_read(sh, id, if again { owner..owner + 1 } else { 0..0 });
            }
            Ev::Client { c, timer } => {
                let port = &mut SimClientPort { env: &mut self.env, sh, at: t };
                self.clients.on_timer(port, c, timer);
            }
            Ev::Replace { r, host } => self.replace_replica(sh, r, host, t),
        }
    }
}

#[cfg(test)]
mod tests {
    /// Every simulated step is one `Ev` pushed to and popped from the
    /// shared queue: a wider event costs every run, so it is pinned.
    #[test]
    fn an_event_is_at_most_128_bytes() {
        let size = std::mem::size_of::<super::Ev>();
        assert!(size <= 128, "Ev grew to {size} bytes");
    }
}
