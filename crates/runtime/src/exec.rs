//! A replica's execution core: the replicated application, the last-reply
//! table and the execution log, beside the event loop that orders requests.
//!
//! The event loop hands each decided slot over in slot order, as one
//! [`ExecJob`] that carries the slot's requests in batch order, and goes on
//! with consensus: the application's time — up to 20 µs a request for the
//! paper's Memcached, Redis and Liquibook — holds up no protocol message.
//! The [`Executor`] runs its jobs in the order it was handed them, a slot's
//! requests under one dispatch, and answers each client itself. What the
//! event loop needs back — a checkpoint's digests, a state transfer's
//! verdict — comes back to the replica as a [`NodeInput`]. A job is handed
//! over only once everything before it has been, so a snapshot at `base`
//! is taken after slot `base − 1` ran and nothing later, and a
//! retransmission is answered no earlier than the reply it repeats.
//!
//! [`Executor::run`] is the one interpretation of a job; each backend
//! supplies an [`ExecPort`] — where replies go, when results come back, what
//! is observed, the execution core's clock — and runs it where its
//! execution core is: the simulator on a third cost cursor per replica, the
//! threaded backend on one thread per replica, the scripted test substrate
//! inline.

use ubft_core::app::App;
use ubft_core::lru::LruMap;
use ubft_core::msg::{exec_table_digest, Reply, Request};
use ubft_crypto::{Digest, KeyRing};
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, RequestId, Slot};

use crate::audit::AuditMutation;
use crate::calibration::SimConfig;
use crate::node::{engine_config, ExecTable, NodeInput};

/// What an [`Executor`] reports ([`Executor::report`]).
pub(crate) type ExecReport = (Digest, Vec<(ClientId, u64)>, u64, Duration);

/// What a replica's event loop hands its executor, in the engine's order.
pub(crate) enum ExecJob {
    /// Run `reqs`, the requests decided in `slot` that execute, in batch
    /// order, under one dispatch, and answer their clients.
    Slot { slot: Slot, reqs: Vec<Request> },
    /// Take the checkpoint snapshot at `base`: the jobs before this one are
    /// every slot below it. `table` is the dedup table the engine paused
    /// with there. Answered with [`NodeInput::Snapshot`].
    Snapshot { base: Slot, table: ExecTable },
    /// Restore the application from a state transfer's `bytes`, which must
    /// hash to the certified `app_digest`. Answered with
    /// [`NodeInput::Restored`], which carries the transfer's dedup `table`
    /// back when they do.
    Restore { base: Slot, app_digest: Digest, bytes: Vec<u8>, table: ExecTable },
    /// A client retransmitted `id`, which the engine has handed over
    /// already: the reply goes again, from the last-reply table.
    Reanswer(RequestId),
}

/// Where an [`Executor`]'s output goes: what a backend does differently.
pub(crate) trait ExecPort<A: App + ?Sized> {
    /// Sends the encoded reply `bytes` to group-local node `to`.
    fn reply(&mut self, to: usize, bytes: &[u8]);

    /// Hands `input` back to the replica's event loop.
    fn input(&mut self, input: NodeInput);

    /// The execution core's time so far, on the backend's clock: what
    /// [`ExecPort::dispatch`] and [`ExecPort::executed`] charged in the
    /// simulator, the wall clock on threads; zero where there is none.
    fn clock(&self) -> Duration {
        Duration::ZERO
    }

    /// The job of `slot` starts: one dispatch, whatever its requests.
    fn dispatch(&mut self, _slot: Slot) {}

    /// The application ran the request `id` of `slot` on `applied`, which
    /// cost `cost`, and answered `response`. Called before the reply leaves.
    fn executed(
        &mut self,
        _slot: Slot,
        _id: RequestId,
        _applied: &[u8],
        _response: &[u8],
        _cost: Duration,
    ) {
    }

    /// The snapshot at `base` was taken: `app` hashes to `app_digest`, and
    /// `table` is its dedup table. A backend that serves state transfers
    /// retains both.
    fn snapshot(&mut self, _base: Slot, _app_digest: Digest, _table: ExecTable, _app: &A) {}
}

/// One replica's execution core.
pub(crate) struct Executor<A: App + ?Sized = dyn App> {
    /// This replica's id: the one its replies name.
    me: ReplicaId,
    /// Group size: client `c` is node `n + c`.
    n: usize,
    /// Clients of the group: requests from anyone else execute but are
    /// not answered.
    n_clients: usize,
    /// The replicated application.
    pub app: Box<A>,
    /// The last reply sent to each client (PBFT's last-reply table): a
    /// retransmitted request that already executed is answered from here —
    /// the engine's dedup cannot re-execute it, and without the cached
    /// reply a client whose response was lost would stall forever.
    /// Bounded like the engine's dedup table, by
    /// [`EngineConfig::client_table_cap`](ubft_core::engine::EngineConfig::client_table_cap):
    /// replica-local, so eviction needs no cross-replica agreement.
    reply_cache: LruMap<ClientId, Reply>,
    /// Every non-noop request this replica executed, in execution order.
    /// Pure observation, recorded so the backend-equivalence suite can
    /// compare decided sequences between the two backends request by
    /// request.
    pub exec_log: Vec<(ClientId, u64)>,
    /// Replies sent so far, the predecessors' included.
    replies: u64,
    /// This incarnation's time on its jobs, on its port's clock.
    pub busy: Duration,
    /// An auditor self-test that sabotages this replica's execution.
    mutation: Option<AuditMutation>,
    /// Where replies are encoded: reused for every one.
    scratch: Vec<u8>,
}

impl<A: App + ?Sized> Executor<A> {
    /// Replica `r`'s execution core around `app`, as `cfg` prescribes.
    pub fn new(r: usize, cfg: &SimConfig, ring: &KeyRing, app: Box<A>) -> Self {
        let me = ReplicaId(r as u32);
        let hash_state = ring.signer(ProcessId::Replica(me)).expect("replica key").hash_state();
        let mutation = cfg.audit_mutation.filter(|m| match m {
            AuditMutation::DoubleExecute { replica }
            | AuditMutation::CorruptExecution { replica } => *replica == r,
            _ => false,
        });
        Executor {
            me,
            n: cfg.params.n(),
            n_clients: cfg.n_clients.max(1),
            app,
            reply_cache: LruMap::new(engine_config(r, cfg).client_table_cap(), hash_state),
            exec_log: Vec::new(),
            replies: 0,
            busy: Duration::ZERO,
            mutation,
            scratch: Vec::new(),
        }
    }

    /// The replacement's execution core on a fresh host: the same
    /// application instance (the caller resets it to genesis), the
    /// execution log and the reply count so far, an empty last-reply table
    /// and no time spent.
    pub fn replaced(self, cfg: &SimConfig, ring: &KeyRing) -> Self {
        let (r, exec_log, replies) = (self.me.0 as usize, self.exec_log, self.replies);
        Executor { exec_log, replies, ..Executor::new(r, cfg, ring, self.app) }
    }

    /// What the executor has to report: the application's digest, the
    /// execution log so far, which it hands over, the replies sent and the
    /// time on its jobs.
    pub fn report(&mut self) -> ExecReport {
        let log = std::mem::take(&mut self.exec_log);
        (self.app.snapshot_digest(), log, self.replies, self.busy)
    }

    /// Carries out `job` through `port`, and files the time it took.
    /// Returns a slot job's request buffer, emptied, for the next one.
    pub fn run(&mut self, job: ExecJob, port: &mut impl ExecPort<A>) -> Vec<Request> {
        let start = port.clock();
        let mut spare = Vec::new();
        match job {
            ExecJob::Slot { slot, mut reqs } => {
                port.dispatch(slot);
                reqs.drain(..).for_each(|req| self.execute(slot, req, port));
                spare = reqs;
            }
            ExecJob::Snapshot { base, table } => {
                let app_digest = self.app.snapshot_digest();
                let exec_digest = exec_table_digest(&table);
                port.snapshot(base, app_digest, table, &*self.app);
                port.input(NodeInput::Snapshot { base, app_digest, exec_digest });
            }
            ExecJob::Restore { base, app_digest, bytes, table } => {
                // The restored state must hash to the *certified* digest, or
                // the transfer is treated as missed (the next checkpoint
                // retries from another source): the source is not trusted.
                self.app.restore_bytes(&bytes);
                let restored =
                    (self.app.snapshot_digest() == app_digest).then_some((bytes.len(), table));
                port.input(NodeInput::Restored { base, restored });
            }
            ExecJob::Reanswer(id) => {
                if let Some(reply) = self.reply_cache.get(&id.client).filter(|r| r.id == id) {
                    self.scratch.clear();
                    reply.encode(&mut self.scratch);
                    self.replies += 1;
                    port.reply(self.n + id.client.0 as usize, &self.scratch);
                }
            }
        }
        self.busy += port.clock() - start;
        spare
    }

    fn execute(&mut self, slot: Slot, req: Request, port: &mut impl ExecPort<A>) {
        // Auditor self-test mutations: deliberately corrupt this replica's
        // execution so the auditor can be shown to catch it. Never active
        // outside mutation tests.
        let corrupted = match self.mutation {
            Some(AuditMutation::CorruptExecution { .. }) if !req.payload.is_empty() => {
                let mut p = req.payload.clone();
                p[0] ^= 0xFF;
                Some(p)
            }
            _ => None,
        };
        let applied: &[u8] = corrupted.as_deref().unwrap_or(&req.payload);
        let cost = self.app.execute_cost(applied);
        let payload = self.app.execute(applied);
        if let Some(AuditMutation::DoubleExecute { .. }) = self.mutation {
            let _ = self.app.execute(applied);
        }
        port.executed(slot, req.id, applied, &payload, cost);
        if req.is_noop() {
            return;
        }
        self.exec_log.push((req.id.client, req.id.seq));
        if (req.id.client.0 as usize) < self.n_clients {
            let reply = Reply { id: req.id, replica: self.me, payload };
            self.scratch.clear();
            reply.encode(&mut self.scratch);
            self.replies += 1;
            port.reply(self.n + req.id.client.0 as usize, &self.scratch);
            // Last-reply table (one entry per client, LRU-bounded), so a
            // retransmitted already-executed request can be re-answered.
            let _ = self.reply_cache.insert(req.id.client, reply);
        }
    }
}
