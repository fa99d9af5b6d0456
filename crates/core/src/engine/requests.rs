//! §5.4, a client request's life at one replica: the client sends to every
//! replica, followers echo to the leader, the leader proposes once everybody
//! holds the request (or the echo round times out with `f` echoes), a
//! follower endorses a PREPARE only for requests it holds itself — in every
//! view, unless the leader's NEW_VIEW forces the batch — and execution
//! answers the first occurrence only. One record per request says where it
//! is:
//!
//! ```text
//!            receive / echo          queue             next_batch          execute
//! (absent) ----------------> Seen ---------> Queued -------------> InSlot ----------> Executed ---> (absent)
//!                             |          { solo: bool }               ^                  ^    reclaim,
//!                             +---------------------------------------+------------------+    adopt_exec_table
//!                               execute / adopt_exec_table from any stage
//! ```
//!
//! | call | from the engine's |
//! |---|---|
//! | `receive` | `on_client_request` |
//! | `echo` | `on_echo`, at the leader |
//! | `await_echoes` | `on_client_request`, at the leader, for a `Seen` request its followers have not all echoed (a retransmission marks it again) |
//! | `queue` | `on_client_request` and `on_echo` once enough followers echoed |
//! | `sweep_echo_waits` | `echo_sweep`: queues, solo, a request that waited a whole sweep period and `f` followers echoed; lets every wait go at a replica that no longer leads |
//! | `queue_outstanding` | `enter_view_as_leader`, `reecho_outstanding` |
//! | `next_batch` | `propose_ready` |
//! | `execute` | `try_execute` |
//! | `reclaim` | `adopt_checkpoint` |
//! | `adopt_exec_table` | `on_exec_table` |
//!
//! The proposal queue holds ids of `Queued` records and nothing else:
//! whatever takes a record out of `Queued` takes its id out of the queue in
//! the same place, so a replica that stops leading is left with no queue
//! once its requests execute, and "pending" is what is held and not
//! executed, whoever leads. `InSlot` outlives the view it was proposed in
//! (a leader that leads again does not propose the request a second time),
//! and an `Executed` record stays until the next checkpoint so that a
//! PREPARE re-proposing it can still be endorsed.
//!
//! A record knows whether a client handed the request to this replica. One
//! that only echoes brought is queued once `f + 1` followers echoed it,
//! whatever the echo round asks — where the round is waived (views > 0) too,
//! and when an incoming leader queues what it holds.
//!
//! A leader's echo fallback is one sweep, not one timer per request: a
//! `Seen` request that waits for echoes carries a mark (a `Deadline`), each
//! firing of the one armed timer falls back on the requests it found
//! marked at the previous firing and marks those waiting now, and the
//! timer is armed again only while some request still waits.

use std::collections::VecDeque;

use ubft_types::{ClientId, Deadline, FixedMap, FixedState, ReplicaId, RequestId, Sweep};

use crate::lru::LruMap;
use crate::msg::{Batch, Request};

/// Where a request this replica holds is on its way to execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Stage {
    /// Held, not proposed by this replica.
    Seen,
    /// In the proposal queue. A `solo` request's echo round never completed
    /// (§5.4): it goes into a slot of its own, because co-batching it with
    /// fully-echoed requests would make followers hold the whole PREPARE
    /// and knock every request of the batch off the fast path.
    Queued { solo: bool },
    /// Proposed by this replica, in whichever view.
    InSlot,
    /// Executed; reclaimed at the next checkpoint.
    Executed,
}

/// What is held about one request, filed under its id.
#[derive(Debug)]
struct Record {
    payload: Vec<u8>,
    /// Leader: the followers that echoed it, each once.
    echoed: Vec<ReplicaId>,
    stage: Stage,
    /// Leader: how long a `Seen` request has waited for its echo round, in
    /// firings of the fallback sweep ([`Requests::sweep_echo_waits`]). A
    /// request a sweep gave up on waits again once its client retransmits.
    wait: Deadline,
    /// A client handed it to this replica; otherwise only echoes did.
    from_client: bool,
}

impl Record {
    fn request(&self, id: RequestId) -> Request {
        Request { id, payload: self.payload.clone() }
    }
}

/// Everything one replica knows about client requests.
#[derive(Debug)]
pub(super) struct Requests {
    /// A hash table and not a tree: reclaiming keeps its capacity, so a
    /// request costs no allocation here once the table has grown to two
    /// windows of batches. The readers that need an order sort
    /// ([`Requests::outstanding`], view changes only).
    records: FixedMap<RequestId, Record>,
    /// Ids of the `Queued` records, in proposal order.
    queue: VecDeque<RequestId>,
    /// Highest executed client sequence per client, plus one (the dedup
    /// table, like PBFT's last-reply table) — bounded by
    /// [`EngineConfig::client_table_cap`](super::EngineConfig::client_table_cap)
    /// with deterministic LRU eviction, so every correct replica's table
    /// (and hence the checkpoint-certified
    /// [`Engine::exec_table`](super::Engine::exec_table)) stays identical.
    /// Never pinned on anything local such as "still outstanding here",
    /// which reflects receipt timing: the bound is what protects a request
    /// in flight, the same on every replica.
    executed: LruMap<ClientId, u64>,
    /// Leader: the echo-fallback sweep.
    echo_sweep: Sweep,
    /// The echoes a request no client handed this replica needs before it
    /// is queued, whatever the round asks: `f + 1`, so that no request a
    /// faulty follower made up is proposed (§5.4, validity).
    vouched: usize,
    /// Leader: the `Seen` records some follower has echoed — requests
    /// whose echo round is under way.
    echoing: usize,
}

impl Requests {
    pub(super) fn new(client_table_cap: usize, vouched: usize, hasher: FixedState) -> Self {
        Requests {
            records: FixedMap::with_hasher(hasher),
            queue: VecDeque::new(),
            executed: LruMap::new(client_table_cap, hasher),
            echo_sweep: Sweep::default(),
            vouched,
            echoing: 0,
        }
    }

    fn already_executed(&self, id: &RequestId) -> bool {
        self.executed.get(&id.client).is_some_and(|hi| *hi > id.seq)
    }

    /// Executed, by the dedup table or by its record.
    pub(super) fn executed(&self, id: &RequestId) -> bool {
        self.already_executed(id)
            || self.records.get(id).is_some_and(|r| r.stage == Stage::Executed)
    }

    /// The request arrived from its client: it is held from now on. Says
    /// where it was before — `None` if this is the first the replica hears
    /// of it, anything else makes it a retransmission, and an executed
    /// request (by the dedup table or by its record) is not taken again:
    /// the runtime's last-reply cache answers it.
    pub(super) fn receive(&mut self, request: Request) -> Option<Stage> {
        let id = request.id;
        let before = self.hold(request);
        if let Some(r) = self.records.get_mut(&id) {
            r.from_client = true;
        }
        before
    }

    /// [`Requests::receive`] for a request from its client or in an echo.
    fn hold(&mut self, Request { id, payload }: Request) -> Option<Stage> {
        if self.executed(&id) {
            return Some(Stage::Executed);
        }
        let before = self.records.get(&id).map(|r| r.stage);
        if before.is_none() {
            let (echoed, stage, wait) = (Vec::new(), Stage::Seen, Deadline::Unset);
            self.records.insert(id, Record { payload, echoed, stage, wait, from_client: false });
        }
        before
    }

    /// Leader: `from` echoed the request — the client's copy may yet arrive,
    /// and an echo quorum can propose without it. Refused for an executed
    /// request.
    pub(super) fn echo(&mut self, from: ReplicaId, request: Request) -> bool {
        let id = request.id;
        let live = self.hold(request) != Some(Stage::Executed);
        if live {
            let r = self.records.get_mut(&id).expect("just received");
            if !r.echoed.contains(&from) {
                self.echoing += usize::from(r.stage == Stage::Seen && r.echoed.is_empty());
                r.echoed.push(from);
            }
        }
        live
    }

    /// Leader: how many requests some follower has echoed that are not
    /// queued or proposed yet.
    pub(super) fn echoing(&self) -> usize {
        self.echoing
    }

    /// Leader: `id` waits for its echo round, if it is held and not
    /// proposed yet (nor queued). A request that waits already keeps its
    /// mark, however often its client retransmits; one a sweep gave up on
    /// waits again. Says whether the sweep's timer must be armed: it was
    /// idle.
    pub(super) fn await_echoes(&mut self, id: RequestId) -> bool {
        let Some(r) = self.records.get_mut(&id).filter(|r| r.stage == Stage::Seen) else {
            return false;
        };
        self.echo_sweep.start(&mut r.wait)
    }

    /// The echo-fallback sweep's timer fired. At the leader, `echoes_needed`
    /// is `Some(f)`: queues, solo and in [`RequestId`] order, every request
    /// still waiting since the previous firing that at least `f` followers
    /// echoed (a request fewer echoed waits no longer: its client's
    /// retransmission marks it again), and marks the requests that wait
    /// now for the next firing. At a replica that no longer leads it is
    /// `None`: nothing waits there any more. Says whether anything waits,
    /// that is whether to arm the timer again.
    pub(super) fn sweep_echo_waits(&mut self, echoes_needed: Option<usize>) -> bool {
        let seen = |r: &Record| echoes_needed.is_some() && r.stage == Stage::Seen;
        let marks = self.records.iter_mut().map(|(id, r)| (*id, seen(r), &mut r.wait));
        let (mut due, waiting) = self.echo_sweep.fire(marks);
        due.sort_unstable();
        for id in due {
            self.queue(id, true, echoes_needed.expect("a request is due only at the leader"));
        }
        waiting
    }

    /// Leader: queues `id` if it is held, not proposed yet (nor queued) and
    /// at least `echoes_needed` followers echoed it — `f + 1` at least if
    /// no client handed it to us; `solo` when the echo round timed out
    /// instead. Says whether it went in.
    pub(super) fn queue(&mut self, id: RequestId, solo: bool, echoes_needed: usize) -> bool {
        let vouched = self.vouched;
        match self.records.get_mut(&id) {
            Some(r)
                if r.stage == Stage::Seen
                    && r.echoed.len()
                        >= echoes_needed.max(if r.from_client { 0 } else { vouched }) =>
            {
                self.echoing -= usize::from(!r.echoed.is_empty());
                r.stage = Stage::Queued { solo };
                self.queue.push_back(id);
                true
            }
            _ => false,
        }
    }

    /// Incoming leader: queues every request it holds and has not proposed
    /// yet, in [`RequestId`] order.
    pub(super) fn queue_outstanding(&mut self) {
        for id in self.outstanding() {
            self.queue(id, false, 0);
        }
    }

    /// Leader: takes the next slot's requests off the queue, at most `max`
    /// of them. Requests whose echo round timed out go alone: the take
    /// stops at — or takes exactly — the first solo request.
    pub(super) fn next_batch(&mut self, max: usize) -> Option<Batch> {
        let solo = |id: &&RequestId| self.records[*id].stage == Stage::Queued { solo: true };
        let shared = self.queue.iter().take(max).take_while(|id| !solo(id)).count();
        let take = shared.max(1).min(self.queue.len());
        let requests: Vec<Request> = self
            .queue
            .drain(..take)
            .map(|id| {
                let record = self.records.get_mut(&id).expect("queued ids are held");
                record.stage = Stage::InSlot;
                record.request(id)
            })
            .collect();
        (!requests.is_empty()).then(|| Batch::new(requests))
    }

    /// §5.4 endorsement: every request of the batch that is not a no-op
    /// is held by this replica.
    pub(super) fn endorsed(&self, batch: &Batch) -> bool {
        batch.requests().iter().all(|r| r.is_noop() || self.records.contains_key(&r.id))
    }

    /// The request `id`, decided in some slot, reached the head of
    /// execution. `true` for its first occurrence, which the application
    /// must apply; a request re-proposed across views may occupy a second
    /// slot, and that one is a duplicate. Either way nothing of it stays
    /// queued.
    pub(super) fn execute(&mut self, id: RequestId) -> bool {
        if let Some(record) = self.records.get_mut(&id) {
            if matches!(record.stage, Stage::Queued { .. }) {
                self.queue.retain(|queued| *queued != id);
            }
            self.echoing -= usize::from(record.stage == Stage::Seen && !record.echoed.is_empty());
            record.stage = Stage::Executed;
        }
        let first = !self.already_executed(&id);
        if first {
            self.executed.insert(id.client, id.seq + 1);
        }
        first
    }

    /// Replaces our dedup table by a certified one (a state transfer's), in
    /// its order — least recently written first, so that from now on we
    /// evict what its signers evict. Execution waited at the table's base
    /// for it, so it covers everything we executed. Then lets go of every
    /// request the table proves executed, or a replacement node would keep
    /// long-completed requests outstanding for good.
    pub(super) fn adopt_exec_table(&mut self, table: Vec<(ClientId, u64)>) {
        self.executed.clear();
        for (client, seq) in table {
            self.executed.insert(client, seq);
        }
        let executed = &self.executed;
        self.records.retain(|id, _| executed.get(&id.client).is_none_or(|hi| *hi <= id.seq));
        let records = &self.records;
        self.queue.retain(|id| records.contains_key(id));
        self.reclaim();
        let echoing = |r: &&Record| r.stage == Stage::Seen && !r.echoed.is_empty();
        self.echoing = self.records.values().filter(echoing).count();
    }

    /// A checkpoint became stable: executed requests go. A retransmission
    /// of one is answered from the reply cache and never gets here again.
    pub(super) fn reclaim(&mut self) {
        self.records.retain(|_, r| r.stage != Stage::Executed);
    }

    /// The requests held and not executed, in [`RequestId`] order.
    pub(super) fn outstanding(&self) -> Vec<RequestId> {
        let mut live: Vec<RequestId> = self.live().map(|(id, _)| *id).collect();
        live.sort_unstable();
        live
    }

    /// A copy of the request `id`, if this replica holds it.
    pub(super) fn get(&self, id: RequestId) -> Option<Request> {
        self.records.get(&id).map(|r| r.request(id))
    }

    /// Whether anything held is still waiting to execute — whoever leads —
    /// leaving out a request not yet proposed that fewer than `vouched`
    /// followers echoed.
    pub(super) fn has_pending(&self, vouched: usize) -> bool {
        self.live().any(|(_, r)| r.stage != Stage::Seen || r.echoed.len() >= vouched)
    }

    fn live(&self) -> impl Iterator<Item = (&RequestId, &Record)> {
        self.records.iter().filter(|(_, r)| r.stage != Stage::Executed)
    }

    /// Leader: how many requests are queued for the next slots.
    pub(super) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// `(outstanding, records held, queued)` for diagnostics.
    pub(super) fn counts(&self) -> (usize, usize, usize) {
        (self.live().count(), self.records.len(), self.queue.len())
    }

    /// The dedup table, least recently written first: its eviction order.
    pub(super) fn exec_table(&self) -> Vec<(ClientId, u64)> {
        let mut table: Vec<_> = self.executed.iter().map(|(c, s)| (*c, *s)).collect();
        table.sort_unstable_by_key(|(c, _)| self.executed.stamp(c));
        table
    }
}

#[cfg(test)]
mod tests;
