//! One group's closed-loop clients, written once for both backends.
//!
//! The paper's client is a small machine (§5.4): send the unsigned request
//! to every replica, take `f + 1` matching replies, retransmit on a
//! timeout. A [`ClientLoop`] owns a group's [`Client`]s and everything the
//! closed loop around them decides — when a client may issue, how long an
//! idle one waits on an empty source, when a request is retransmitted, what
//! counts as a completion and which completions are measured — against a
//! [`ClientPort`], which says only what the simulator and the driver thread
//! do differently. It also derives the group's key ring, so the two
//! backends key a group identically by construction.

use ubft_core::client::Client;
use ubft_core::msg::Reply;
use ubft_crypto::KeyRing;
use ubft_sim::stats::LatencyStats;
use ubft_types::wire::Wire;
use ubft_types::{ClientId, Duration, ProcessId, ReplicaId, RequestId, Time};

use crate::calibration::SimConfig;

/// The timers a client arms; each comes back through
/// [`ClientLoop::on_timer`] with the client's index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ClientTimer {
    /// Ask the workload source for the next request.
    Issue,
    /// Retransmission check: if this request is still in flight, re-send it
    /// to every replica and re-arm. A request or reply lost to a partition
    /// or crash must not stall the closed loop — replicas deduplicate, and
    /// executed requests are re-answered from the per-replica last-reply
    /// cache.
    Retry(RequestId),
}

/// What a deployment backend provides to its group's [`ClientLoop`].
pub(crate) trait ClientPort {
    /// Puts `bytes`, client `c`'s encoded in-flight request, on
    /// `Lane::ClientReq` toward each of `replicas`.
    fn send(&mut self, c: usize, bytes: &[u8], replicas: &[ReplicaId]);

    /// Arms `timer` for client `c` to fire `after` from now.
    fn arm(&mut self, c: usize, timer: ClientTimer, after: Duration);

    /// Now, on the clock latencies are measured on.
    fn now(&self) -> Time;

    /// Requests completed so far, deployment-wide.
    fn completed(&self) -> u64;

    /// Counts one more completion; returns the new deployment-wide count.
    fn complete(&mut self) -> u64;
}

/// How long an idle client waits before re-asking an empty workload
/// source; doubles per consecutive empty pull up to × 256 (~1.3 ms), so a
/// starved shard's idle clients cannot flood the backend with timers over a
/// long run. Never used by single-group deployments (their sources are
/// total functions).
fn workload_retry() -> Duration {
    Duration::from_micros(5)
}

/// Client retransmission timeout: far above every healthy completion (fast
/// path ~11 µs, forced slow path hundreds of µs), so failure-free runs
/// never retransmit; short enough that a lost message costs milliseconds,
/// not the run.
fn client_retry_period() -> Duration {
    Duration::from_micros(1_500)
}

/// One group's clients and the closed loop that drives them. `W` is the
/// workload source: called with the deployment-wide completion count,
/// `None` means "no request available for this group right now" (a sharded
/// source whose pending generation all routed elsewhere).
pub(crate) struct ClientLoop<W: ?Sized = dyn FnMut(u64) -> Option<Vec<u8>>> {
    clients: Vec<Client>,
    /// When each client issued its in-flight request.
    issued_at: Vec<Time>,
    /// Consecutive empty workload pulls per client.
    idle_backoff: Vec<u32>,
    /// Deployment-wide completions the run is after, warm-up included; no
    /// client issues at or past it.
    target: u64,
    /// Leading deployment-wide completions left out of `latency`.
    warmup: u64,
    /// End-to-end latency of this group's measured completions.
    pub(crate) latency: LatencyStats,
    /// Requests this group's clients completed.
    pub(crate) completed: u64,
    /// Where a request is encoded, once for all replicas and every time it
    /// is sent.
    scratch: Vec<u8>,
    workload: Box<W>,
}

impl<W: FnMut(u64) -> Option<Vec<u8>> + ?Sized> ClientLoop<W> {
    /// Group `g`'s key ring and its `n_clients` closed-loop clients, from
    /// the deployment-wide `cfg`.
    pub(crate) fn bootstrap(cfg: &SimConfig, g: usize, workload: Box<W>) -> (KeyRing, Self) {
        let n_clients = cfg.n_clients.max(1);
        let replicas: Vec<ReplicaId> = cfg.params.replicas().collect();
        let clients = (0..n_clients as u32).map(ClientId);
        // Group 0 keeps the base seed (the single-group facade's bit-for-bit
        // guarantee); later groups fold in a golden-ratio multiple.
        let ring = KeyRing::generate(
            cfg.seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED,
            (replicas.iter().copied().map(ProcessId::Replica))
                .chain(clients.clone().map(ProcessId::Client)),
        );
        let clients =
            clients.map(|id| Client::new(id, replicas.clone(), cfg.params.quorum())).collect();
        let clients = ClientLoop {
            clients,
            issued_at: vec![Time::ZERO; n_clients],
            idle_backoff: vec![0; n_clients],
            target: 0,
            warmup: 0,
            latency: LatencyStats::new(),
            completed: 0,
            scratch: Vec::new(),
            workload,
        };
        (ring, clients)
    }

    /// How many clients the group has.
    pub(crate) fn len(&self) -> usize {
        self.clients.len()
    }

    /// Sets what the run is after: `requests + warmup` completions
    /// deployment-wide, the first `warmup` unmeasured. The backend then
    /// fires [`ClientTimer::Issue`] once per client.
    pub(crate) fn begin(&mut self, requests: u64, warmup: u64) {
        self.target = requests + warmup;
        self.warmup = warmup;
    }

    /// A timer client `c` armed fired.
    pub(crate) fn on_timer(&mut self, port: &mut impl ClientPort, c: usize, timer: ClientTimer) {
        match timer {
            ClientTimer::Issue => self.try_issue(port, c),
            // Completed or superseded otherwise: nothing to do.
            ClientTimer::Retry(id) if self.clients[c].in_flight() == Some(id) => {
                self.transmit(port, c, id);
            }
            ClientTimer::Retry(_) => {}
        }
    }

    /// Client `c` issues the source's next request, if it is idle and the
    /// run still wants one.
    fn try_issue(&mut self, port: &mut impl ClientPort, c: usize) {
        let seq = port.completed();
        if !self.clients[c].is_idle() || seq >= self.target {
            return;
        }
        let Some(payload) = (self.workload)(seq) else {
            let shift = self.idle_backoff[c].min(8);
            self.idle_backoff[c] = self.idle_backoff[c].saturating_add(1);
            port.arm(c, ClientTimer::Issue, workload_retry() * (1u64 << shift));
            return;
        };
        self.idle_backoff[c] = 0;
        let id = self.clients[c].issue(payload);
        self.issued_at[c] = port.now();
        self.transmit(port, c, id);
    }

    /// Sends client `c`'s in-flight request `id` to every replica and arms
    /// its retransmission check.
    fn transmit(&mut self, port: &mut impl ClientPort, c: usize, id: RequestId) {
        let client = &self.clients[c];
        if let Some(req) = client.request() {
            self.scratch.clear();
            req.encode(&mut self.scratch);
            port.send(c, &self.scratch, client.replicas());
        }
        port.arm(c, ClientTimer::Retry(id), client_retry_period());
    }

    /// Reply bytes reached the group's clients. The reply names its client;
    /// one the group does not have, a stale id and a replica's second vote
    /// complete nothing.
    pub(crate) fn on_reply(&mut self, port: &mut impl ClientPort, bytes: &[u8]) {
        let Ok(reply) = Reply::from_bytes(bytes) else { return };
        let c = reply.id.client.0 as usize;
        if self.clients.get_mut(c).and_then(|client| client.on_reply(reply)).is_none() {
            return;
        }
        let done = port.complete();
        self.completed += 1;
        if done > self.warmup {
            self.latency.record(port.now().since(self.issued_at[c]));
        }
        if done < self.target {
            port.arm(c, ClientTimer::Issue, Duration::ZERO);
        }
    }
}
