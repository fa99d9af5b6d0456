//! Synchronous multi-replica tests of the consensus engine.
//!
//! These tests drive `n` [`Engine`]s with a *perfect* broadcast fabric
//! (CTBcast ids assigned in order, instant delivery, no Byzantine behaviour
//! unless injected by hand), validating the consensus logic in isolation
//! from the transport, register, and timing layers.

use std::collections::VecDeque;

use ubft_core::app::{App, NoopApp};
use ubft_core::engine::{
    CryptoJob, CryptoOps, CryptoTag, CryptoWork, Effect, Engine, EngineConfig, PathMode, TimerKind,
};
use ubft_core::msg::{
    summary_sign_bytes, Batch, CtbMsg, DirectMsg, Prepare, Request, StateSummary, TbMsg,
};
use ubft_crypto::{Certificate, Digest, KeyRing, Signature};
use ubft_types::{ClientId, ClusterParams, ProcessId, ReplicaId, RequestId, SeqId, Slot, View};

struct Net {
    engines: Vec<Engine>,
    apps: Vec<NoopApp>,
    /// Shared engine configuration + key ring, kept for replacement nodes.
    cfg: EngineConfig,
    ring: KeyRing,
    /// CTBcast id counters per stream.
    ctb_next: Vec<u64>,
    /// Every CTBcast broadcast in emission order: (stream, message).
    ctb_log: Vec<(usize, CtbMsg)>,
    /// Executed (slot, request) per replica.
    executed: Vec<Vec<(Slot, Request)>>,
    /// Timers armed per replica (kind), fired manually by tests.
    timers: Vec<Vec<TimerKind>>,
    /// Replicas that are crashed (drop all their traffic).
    crashed: Vec<bool>,
    /// Byzantine detections observed: (detector, culprit).
    brands: Vec<(usize, u32)>,
    /// Latest checkpoint snapshot per replica: (base, digest, app bytes) —
    /// what a replacement node's state transfer is served from.
    /// `(base, app digest, app bytes, exec table)` per replica.
    #[allow(clippy::type_complexity)]
    snapshots: Vec<Option<(Slot, ubft_crypto::Digest, Vec<u8>, Vec<(ClientId, u64)>)>>,
    /// Pending effect queue: (origin replica, effect).
    queue: VecDeque<(usize, Effect)>,
}

impl Net {
    fn new(path: PathMode) -> Self {
        Self::with_params(path, ClusterParams::paper_default())
    }

    fn with_params(path: PathMode, params: ClusterParams) -> Self {
        Net::with_config(EngineConfig::new(params, path))
    }

    /// Builds a net whose engines share an arbitrary configuration (batch
    /// and pipeline tests tweak `max_batch` / `pipeline_depth`).
    fn with_config(cfg: EngineConfig) -> Self {
        let n = cfg.params.n();
        let ring = KeyRing::generate(5, (0..n as u32).map(|i| ProcessId::Replica(ReplicaId(i))));
        let engines: Vec<Engine> =
            (0..n as u32).map(|i| Engine::new(ReplicaId(i), cfg.clone(), ring.clone())).collect();
        let mut net = Net {
            engines,
            apps: (0..n).map(|_| NoopApp::new()).collect(),
            cfg,
            ring,
            ctb_next: vec![1; n],
            ctb_log: Vec::new(),
            executed: vec![Vec::new(); n],
            timers: vec![Vec::new(); n],
            crashed: vec![false; n],
            brands: Vec::new(),
            snapshots: vec![None; n],
            queue: VecDeque::new(),
        };
        for i in 0..n {
            let fx = net.engines[i].start();
            net.enqueue(i, fx);
        }
        net.drain();
        net
    }

    fn n(&self) -> usize {
        self.engines.len()
    }

    /// Queues the effects of one call on engine `who`. The harness has no
    /// crypto worker, so the call's crypto jobs run on the spot and their
    /// completions are fed straight back.
    fn enqueue(&mut self, who: usize, fx: Vec<Effect>) {
        for e in fx {
            self.queue.push_back((who, e));
        }
        let signer = self.ring.signer(ProcessId::Replica(ReplicaId(who as u32))).unwrap();
        for job in self.engines[who].take_crypto_jobs() {
            let result = job.run(&signer, &self.ring);
            let fx = self.engines[who].on_crypto_done(job.tag, result);
            self.enqueue(who, fx);
        }
    }

    fn drain(&mut self) {
        let mut steps = 0;
        while let Some((who, effect)) = self.queue.pop_front() {
            steps += 1;
            assert!(steps < 1_000_000, "effect loop diverged");
            if self.crashed[who] {
                continue;
            }
            match effect {
                Effect::CtbBroadcast(msg) => {
                    let k = SeqId(self.ctb_next[who]);
                    self.ctb_next[who] += 1;
                    self.ctb_log.push((who, msg.clone()));
                    for r in 0..self.n() {
                        if self.crashed[r] {
                            continue;
                        }
                        let fx =
                            self.engines[r].on_ctb_deliver(ReplicaId(who as u32), k, msg.clone());
                        self.enqueue(r, fx);
                    }
                }
                Effect::TbBroadcast(msg) => {
                    for r in 0..self.n() {
                        if self.crashed[r] {
                            continue;
                        }
                        let fx = self.engines[r].on_tb_deliver(ReplicaId(who as u32), msg.clone());
                        self.enqueue(r, fx);
                    }
                }
                Effect::SendReplica { to, msg } => {
                    let r = to.0 as usize;
                    if !self.crashed[r] {
                        let fx = self.engines[r].on_direct(ReplicaId(who as u32), msg);
                        self.enqueue(r, fx);
                    }
                }
                Effect::Execute { slot, req } => {
                    self.apps[who].execute(&req.payload);
                    self.executed[who].push((slot, req));
                }
                Effect::RequestSnapshot { base } => {
                    let digest = self.apps[who].snapshot_digest();
                    let table = self.engines[who].exec_table();
                    let exec_digest = ubft_core::msg::exec_table_digest(&table);
                    self.snapshots[who] =
                        Some((base, digest, self.apps[who].snapshot_bytes(), table));
                    let fx = self.engines[who].on_snapshot(base, digest, exec_digest);
                    self.enqueue(who, fx);
                }
                Effect::StateTransfer { base, app_digest, exec_digest } => {
                    // Serve the transfer from any live peer's retained
                    // checkpoint snapshot, verified against the certified
                    // digests (the runtime does exactly this).
                    let donor = (0..self.n()).find(|r| {
                        !self.crashed[*r]
                            && self.snapshots[*r]
                                .as_ref()
                                .is_some_and(|(b, d, _, _)| *b == base && *d == app_digest)
                    });
                    let (_, _, bytes, table) =
                        self.snapshots[donor.expect("a live donor snapshot")].clone().unwrap();
                    self.apps[who].restore_bytes(&bytes);
                    assert_eq!(self.apps[who].snapshot_digest(), app_digest);
                    assert_eq!(ubft_core::msg::exec_table_digest(&table), exec_digest);
                    let fx = self.engines[who].on_exec_table(base, table);
                    self.enqueue(who, fx);
                }
                Effect::AdoptStreams { tails } => {
                    // The harness's only transport cursor is the per-stream
                    // broadcast counter; adopt our own entry.
                    for (stream, next) in tails {
                        if stream.0 as usize == who {
                            self.ctb_next[who] = self.ctb_next[who].max(next.0);
                        }
                    }
                }
                Effect::ArmTimer { kind } => {
                    self.timers[who].push(kind);
                }
                Effect::CheckpointAdopted { .. } | Effect::ViewChanged { .. } => {}
                Effect::ByzantineDetected { replica, reason } => {
                    eprintln!("replica {who} branded {replica} byzantine: {reason}");
                    self.brands.push((who, replica.0));
                }
            }
        }
    }

    fn client_request(&mut self, seq: u64, payload: &[u8]) -> RequestId {
        let id = self.client_request_no_drain(seq, payload);
        self.drain();
        id
    }

    /// Injects a request at every live replica without draining, so tests
    /// can pile up a backlog and process it in one burst.
    fn client_request_no_drain(&mut self, seq: u64, payload: &[u8]) -> RequestId {
        let id = RequestId::new(ClientId(1), seq);
        let req = Request { id, payload: payload.to_vec() };
        for r in 0..self.n() {
            if self.crashed[r] {
                continue;
            }
            let fx = self.engines[r].on_client_request(req.clone());
            self.enqueue(r, fx);
        }
        id
    }

    fn fire_timers(&mut self, filter: impl Fn(&TimerKind) -> bool) {
        for r in 0..self.n() {
            let kinds: Vec<TimerKind> = self.timers[r].drain(..).collect();
            for k in kinds {
                if filter(&k) {
                    let fx = self.engines[r].on_timer(k);
                    self.enqueue(r, fx);
                } else {
                    self.timers[r].push(k);
                }
            }
        }
        self.drain();
    }

    /// Boots a replacement node for crashed replica `v`: fresh engine and
    /// application, join handshake driven to completion (the acks arrive
    /// synchronously inside the drain).
    fn replace(&mut self, v: usize) {
        assert!(self.crashed[v], "only a crashed replica can be replaced");
        self.crashed[v] = false;
        self.engines[v] = Engine::new(ReplicaId(v as u32), self.cfg.clone(), self.ring.clone());
        self.apps[v] = NoopApp::new();
        self.executed[v].clear();
        self.timers[v].clear();
        self.snapshots[v] = None;
        let fx = self.engines[v].begin_join(SeqId(0));
        self.enqueue(v, fx);
        self.drain();
    }

    fn live_replicas(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n()).filter(|r| !self.crashed[*r])
    }

    fn assert_executed_prefix_agreement(&self) {
        let longest = self.live_replicas().map(|r| self.executed[r].len()).max().unwrap_or(0);
        for len in 0..longest {
            let mut vals: Vec<&(Slot, Request)> = Vec::new();
            for r in self.live_replicas() {
                if let Some(v) = self.executed[r].get(len) {
                    vals.push(v);
                }
            }
            for w in vals.windows(2) {
                assert_eq!(w[0], w[1], "execution logs diverged at index {len}");
            }
        }
    }
}

#[test]
fn fast_path_decides_and_executes_everywhere() {
    let mut net = Net::new(PathMode::FastOnly);
    net.client_request(0, b"hello");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
        assert_eq!(net.executed[r][0].0, Slot(0));
        assert_eq!(net.executed[r][0].1.payload, b"hello");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn slow_path_decides_and_executes_everywhere() {
    let mut net = Net::new(PathMode::SlowOnly);
    net.client_request(0, b"slow");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn many_requests_execute_in_order() {
    let mut net = Net::new(PathMode::FastOnly);
    for i in 0..50u64 {
        net.client_request(i, format!("req-{i}").as_bytes());
    }
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 50);
        for (i, (slot, req)) in net.executed[r].iter().enumerate() {
            assert_eq!(slot.0, i as u64);
            assert_eq!(req.payload, format!("req-{i}").as_bytes());
        }
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn slow_path_many_requests() {
    let mut net = Net::new(PathMode::SlowOnly);
    for i in 0..20u64 {
        net.client_request(i, &i.to_le_bytes());
    }
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 20);
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn checkpoint_advances_window_and_gc() {
    // Window is 256; push past it to force a checkpoint + slide.
    let mut net = Net::new(PathMode::FastOnly);
    let total = 300u64;
    for i in 0..total {
        net.client_request(i, &i.to_le_bytes());
    }
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), total as usize, "replica {r}");
        assert!(net.engines[r].exec_next() >= Slot(total));
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn fast_with_fallback_decides_without_timers_in_sync_run() {
    let mut net = Net::new(PathMode::FastWithFallback);
    net.client_request(0, b"x");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1);
    }
}

#[test]
fn fallback_timer_completes_via_slow_path_when_fast_path_stalls() {
    // Crash one replica *after* setup: the fast path needs unanimity, so
    // WILL_* rounds stall; firing the slot's slow trigger must decide via
    // the slow path with the remaining majority.
    let mut net = Net::new(PathMode::FastWithFallback);
    net.crashed[2] = true;
    net.client_request(0, b"degraded");
    // Echo round incomplete (only 1 of 2 followers alive): leader proposes
    // after the echo-fallback timer.
    net.fire_timers(|k| matches!(k, TimerKind::EchoFallback(_)));
    // Fast path cannot reach unanimity (only 2 of 3 alive).
    assert!(net.executed[0].is_empty());
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    for r in 0..2 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
        assert_eq!(net.executed[r][0].1.payload, b"degraded");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn view_change_elects_next_leader_and_recovers() {
    // Crash the leader (replica 0) before any request. Followers time out,
    // seal the view, and replica 1 becomes leader of view 1.
    let mut net = Net::new(PathMode::FastWithFallback);
    net.crashed[0] = true;
    net.client_request(0, b"orphaned");
    assert!(net.executed[1].is_empty());
    // Slow triggers do nothing useful (no prepare); progress timers fire.
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    assert_eq!(net.engines[1].view(), View(1));
    assert_eq!(net.engines[2].view(), View(1));
    assert_eq!(net.engines[1].leader(), ReplicaId(1));
    // With replica 0 dead the fast path cannot reach unanimity in view 1
    // either; the slow-path trigger completes the slot.
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    // The new leader re-proposed the echoed request.
    for r in 1..3 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
        assert_eq!(net.executed[r][0].1.payload, b"orphaned");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn view_change_preserves_decided_requests() {
    // Decide a request in view 0, then crash the leader and force a view
    // change; the decided request must survive (agreement across views).
    let mut net = Net::new(PathMode::FastWithFallback);
    net.client_request(0, b"first");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1);
    }
    net.crashed[0] = true;
    net.client_request(1, b"second");
    // First watchdog firing only observes that progress had been made since
    // arming; the second detects the stall and seals the view.
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    for r in 1..3 {
        assert_eq!(net.executed[r].len(), 2, "replica {r}");
        assert_eq!(net.executed[r][0].1.payload, b"first");
        assert_eq!(net.executed[r][1].1.payload, b"second");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn equivocation_report_brands_stream() {
    let mut net = Net::new(PathMode::FastOnly);
    let fx = net.engines[1].on_ctb_equivocation(ReplicaId(0), SeqId(1));
    assert!(matches!(&fx[..], [Effect::ByzantineDetected { replica: ReplicaId(0), .. }]));
    // Subsequent messages from the branded stream are dropped.
    let fx =
        net.engines[1].on_ctb_deliver(ReplicaId(0), SeqId(1), CtbMsg::SealView { view: View(1) });
    assert!(fx.is_empty());
}

#[test]
fn invalid_prepare_brands_leader() {
    // A prepare claiming a view whose leader is someone else.
    let mut net = Net::new(PathMode::FastOnly);
    let bogus = CtbMsg::Prepare(ubft_core::msg::Prepare {
        view: View(1), // leader of view 1 is replica 1, not replica 0
        slot: Slot(0),
        batch: ubft_core::msg::Batch::noop(Slot(0)),
    });
    let fx = net.engines[1].on_ctb_deliver(ReplicaId(0), SeqId(1), bogus);
    assert!(
        fx.iter().any(|e| matches!(e, Effect::ByzantineDetected { replica: ReplicaId(0), .. })),
        "expected byzantine detection, got {fx:?}"
    );
}

#[test]
fn double_prepare_for_same_slot_brands_leader() {
    let mut net = Net::new(PathMode::FastOnly);
    let mk = |payload: &[u8]| {
        CtbMsg::Prepare(ubft_core::msg::Prepare {
            view: View(0),
            slot: Slot(0),
            batch: ubft_core::msg::Batch::single(Request {
                id: RequestId::new(ClientId(9), 0),
                payload: payload.to_vec(),
            }),
        })
    };
    let fx = net.engines[1].on_ctb_deliver(ReplicaId(0), SeqId(1), mk(b"a"));
    assert!(!fx.iter().any(|e| matches!(e, Effect::ByzantineDetected { .. })));
    let fx = net.engines[1].on_ctb_deliver(ReplicaId(0), SeqId(2), mk(b"b"));
    assert!(fx.iter().any(|e| matches!(e, Effect::ByzantineDetected { .. })));
}

#[test]
fn five_replica_cluster_works() {
    let params = ClusterParams::paper_default().with_f(2);
    let mut net = Net::with_params(PathMode::FastOnly, params);
    for i in 0..10u64 {
        net.client_request(i, &i.to_le_bytes());
    }
    for r in 0..5 {
        assert_eq!(net.executed[r].len(), 10, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn five_replica_slow_path_with_two_crashes() {
    let params = ClusterParams::paper_default().with_f(2);
    let mut net = Net::with_params(PathMode::SlowOnly, params);
    net.crashed[3] = true;
    net.crashed[4] = true;
    for i in 0..5u64 {
        net.client_request(i, &i.to_le_bytes());
        // Two followers are dead, so the echo round never completes.
        net.fire_timers(|k| matches!(k, TimerKind::EchoFallback(_)));
    }
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 5, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn duplicate_client_request_not_executed_twice() {
    let mut net = Net::new(PathMode::FastOnly);
    let id = net.client_request(0, b"once");
    // Re-send the same request.
    let req = Request { id, payload: b"once".to_vec() };
    for r in 0..3 {
        let fx = net.engines[r].on_client_request(req.clone());
        net.enqueue(r, fx);
    }
    net.drain();
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
}

#[test]
fn crypto_ops_metered_on_slow_path() {
    let mut net = Net::new(PathMode::SlowOnly);
    net.client_request(0, b"metered");
    let total: u32 = (0..3)
        .map(|r| {
            let ops = net.engines[r].take_crypto_ops();
            ops.signs + ops.verifies
        })
        .sum();
    assert!(total > 0, "slow path must meter crypto work");
}

#[test]
fn checkpoint_announced_before_proposals_into_new_window() {
    // Pile a backlog larger than the window onto the leader, then process
    // it in one burst: when the checkpoint at slot 256 is adopted, pending
    // proposals for slots ≥ 256 must be emitted on the leader's stream
    // *after* the CHECKPOINT message (peers validate PREPAREs against the
    // checkpoint most recently seen on the stream — Algorithm 5).
    let mut net = Net::new(PathMode::FastOnly);
    for i in 0..300u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.drain();
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 300, "replica {r}");
    }
    // Check the emission order on the leader's stream directly.
    let leader_stream: Vec<&CtbMsg> =
        net.ctb_log.iter().filter(|(s, _)| *s == 0).map(|(_, m)| m).collect();
    let cp_pos = leader_stream
        .iter()
        .position(|m| matches!(m, CtbMsg::Checkpoint(c) if c.data.base == Slot(256)))
        .expect("leader announced the slot-256 checkpoint");
    let first_new_window_prepare = leader_stream
        .iter()
        .position(|m| matches!(m, CtbMsg::Prepare(p) if p.slot >= Slot(256)))
        .expect("leader proposed into the new window");
    assert!(
        cp_pos < first_new_window_prepare,
        "PREPARE for the new window emitted before its CHECKPOINT \
         (checkpoint at {cp_pos}, prepare at {first_new_window_prepare})"
    );
    net.assert_executed_prefix_agreement();
}

#[test]
fn leader_entering_view_on_certificates_seals_first() {
    // Five replicas, leader (0) crashed. Only replicas 2, 3, 4 time out and
    // seal view 1; replica 1 — the incoming leader — never does. It must
    // still enter view 1 on the collected certificates, and its stream must
    // carry SEAL_VIEW(1) before NEW_VIEW(1) or peers reject the NEW_VIEW.
    let params = ClusterParams::paper_default().with_f(2);
    let mut net = Net::with_params(PathMode::FastWithFallback, params);
    net.crashed[0] = true;
    net.client_request(0, b"orphaned");
    // Fire the progress watchdog only on replicas 2..5 (nothing decided
    // since arming, so one firing detects the stall and seals).
    for r in 2..5 {
        let kinds: Vec<TimerKind> = net.timers[r].drain(..).collect();
        for k in kinds {
            if matches!(k, TimerKind::Progress) {
                let fx = net.engines[r].on_timer(k);
                net.enqueue(r, fx);
            } else {
                net.timers[r].push(k);
            }
        }
    }
    net.drain();
    assert_eq!(net.engines[1].view(), View(1), "replica 1 should lead view 1");
    let r1_stream: Vec<&CtbMsg> =
        net.ctb_log.iter().filter(|(s, _)| *s == 1).map(|(_, m)| m).collect();
    let seal =
        r1_stream.iter().position(|m| matches!(m, CtbMsg::SealView { view } if *view == View(1)));
    let nv = r1_stream
        .iter()
        .position(|m| matches!(m, CtbMsg::NewView { view, .. } if *view == View(1)));
    let (seal, nv) = (seal.expect("seal emitted"), nv.expect("new-view emitted"));
    assert!(seal < nv, "NEW_VIEW emitted before SEAL_VIEW on the leader's stream");
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
    // The orphaned request survives into the new view.
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    for r in 1..5 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn progress_backoff_doubles_per_view_change_and_resets_on_decide() {
    let mut net = Net::new(PathMode::FastWithFallback);
    assert_eq!(net.engines[1].progress_backoff(), 1);
    net.crashed[0] = true;
    net.client_request(0, b"stall");
    // Nothing decided since the watchdog was armed: one firing seals.
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    assert_eq!(net.engines[1].view(), View(1));
    assert!(
        net.engines[1].progress_backoff() >= 2,
        "a fruitless view change must widen the watchdog"
    );
    // Deciding the request resets the backoff.
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    assert_eq!(net.executed[1].len(), 1);
    assert_eq!(net.engines[1].progress_backoff(), 1);
}

#[test]
fn disabled_echo_round_proposes_immediately() {
    let params = ClusterParams::paper_default();
    let ring = KeyRing::generate(5, (0..3u32).map(|i| ProcessId::Replica(ReplicaId(i))));
    let mut cfg = EngineConfig::new(params, PathMode::FastOnly);
    cfg.echo_round = false;
    let mut leader = Engine::new(ReplicaId(0), cfg, ring);
    let _ = leader.start();
    let req = Request { id: RequestId::new(ClientId(1), 0), payload: b"now".to_vec() };
    let fx = leader.on_client_request(req);
    assert!(
        fx.iter().any(|e| matches!(e, Effect::CtbBroadcast(CtbMsg::Prepare(_)))),
        "leader without echo round must propose on direct receipt, got {fx:?}"
    );
}

fn batched_config(path: PathMode, max_batch: usize, pipeline_depth: usize) -> EngineConfig {
    let mut cfg = EngineConfig::new(ClusterParams::paper_default(), path);
    cfg.max_batch = max_batch;
    cfg.pipeline_depth = pipeline_depth;
    cfg
}

#[test]
fn batches_amortize_slots_and_preserve_order() {
    // Ten requests, batches of up to 4, one slot in flight: the backlog that
    // accumulates behind the full pipeline must flush as {r0}, {r1..r4},
    // {r5..r8}, {r9} — 4 slots instead of 10 — and still execute in
    // submission order everywhere.
    let mut net = Net::with_config(batched_config(PathMode::FastOnly, 4, 1));
    for i in 0..10u64 {
        net.client_request_no_drain(i, format!("req-{i}").as_bytes());
    }
    net.drain();
    let prepares =
        net.ctb_log.iter().filter(|(s, m)| *s == 0 && matches!(m, CtbMsg::Prepare(_))).count();
    assert_eq!(prepares, 4, "expected 4 batched slots for 10 requests");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 10, "replica {r}");
        for (i, (_, req)) in net.executed[r].iter().enumerate() {
            assert_eq!(req.payload, format!("req-{i}").as_bytes());
        }
        assert_eq!(net.engines[r].decided_count(), 10, "decided_count counts requests");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn pipeline_depth_bounds_in_flight_slots() {
    // With an unbounded batch and depth 1, a 10-request backlog collapses
    // into exactly two slots: the first ready request proposes alone, and
    // everything that queued behind the full pipeline flushes together.
    let mut net = Net::with_config(batched_config(PathMode::FastOnly, 64, 1));
    for i in 0..10u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.drain();
    let batch_sizes: Vec<usize> = net
        .ctb_log
        .iter()
        .filter(|(s, _)| *s == 0)
        .filter_map(|(_, m)| match m {
            CtbMsg::Prepare(p) => Some(p.batch.len()),
            _ => None,
        })
        .collect();
    assert_eq!(batch_sizes, vec![1, 9]);
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 10, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn batched_decisions_survive_view_change() {
    let mut net = Net::with_config(batched_config(PathMode::FastWithFallback, 4, 1));
    for i in 0..6u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.drain();
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 6, "replica {r} pre-crash");
    }
    net.crashed[0] = true;
    net.client_request(6, b"after-crash-a");
    net.client_request(7, b"after-crash-b");
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    assert_eq!(net.engines[1].view(), View(1));
    for r in 1..3 {
        assert_eq!(net.executed[r].len(), 8, "replica {r} post-view-change");
        assert_eq!(net.executed[r][6].1.payload, b"after-crash-a");
        assert_eq!(net.executed[r][7].1.payload, b"after-crash-b");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn echo_timeout_requests_are_batched_alone() {
    // A Byzantine client sends its request only to the leader, so the echo
    // round never completes and the EchoFallback timer proposes it. That
    // request must get a slot of its own: co-batching it with fully-echoed
    // honest requests would make followers hold the whole prepare (§5.4)
    // and knock the honest requests off the fast path as collateral.
    let mut net = Net::with_config(batched_config(PathMode::FastOnly, 8, 1));
    // Honest request 0 reaches everyone and decides (fills the pipeline is
    // not an issue: it executes within the drain).
    net.client_request(0, b"honest-0");
    // Byzantine client: request seen by the leader only.
    let byz = Request { id: RequestId::new(ClientId(2), 0), payload: b"leader-only".to_vec() };
    let fx = net.engines[0].on_client_request(byz);
    net.enqueue(0, fx);
    net.drain();
    // Two more honest requests queue up behind it.
    net.client_request_no_drain(1, b"honest-1");
    net.client_request_no_drain(2, b"honest-2");
    net.drain();
    // The leader proposes the Byzantine request on fallback.
    net.fire_timers(|k| matches!(k, TimerKind::EchoFallback(_)));
    // Every honest request executed everywhere — none were trapped in a
    // held batch with the leader-only request.
    for r in 0..3 {
        let payloads: Vec<&[u8]> = net.executed[r].iter().map(|(_, q)| &q.payload[..]).collect();
        assert!(payloads.contains(&b"honest-0".as_slice()), "replica {r}");
        assert!(payloads.contains(&b"honest-1".as_slice()), "replica {r}");
        assert!(payloads.contains(&b"honest-2".as_slice()), "replica {r}");
    }
    // The leader-only request rode in a singleton batch (held at followers,
    // so it never executed on the fast path — but it stalled only itself).
    let solo_batches: Vec<usize> = net
        .ctb_log
        .iter()
        .filter(|(s, _)| *s == 0)
        .filter_map(|(_, m)| match m {
            CtbMsg::Prepare(p)
                if p.batch.requests().iter().any(|q| q.payload == b"leader-only") =>
            {
                Some(p.batch.len())
            }
            _ => None,
        })
        .collect();
    assert_eq!(solo_batches, vec![1], "leader-only request must be proposed alone");
    net.assert_executed_prefix_agreement();
}

#[test]
fn batch_flush_stops_before_solo_requests() {
    // Drive a lone leader engine by hand: with the pipeline full, the queue
    // accumulates [h1, byz, h2] where `byz` was proposed via echo timeout.
    // Each decide reopens one pipeline slot; the flushes must come out as
    // {h1}, {byz}, {h2} — never co-batching `byz` with an honest request.
    let ring = KeyRing::generate(5, (0..3u32).map(|i| ProcessId::Replica(ReplicaId(i))));
    let mut cfg = EngineConfig::new(ClusterParams::paper_default(), PathMode::FastOnly);
    cfg.max_batch = 8;
    cfg.pipeline_depth = 1;
    let mut leader = Engine::new(ReplicaId(0), cfg, ring);
    let _ = leader.start();
    let mk = |c: u32, s: u64, p: &[u8]| Request {
        id: RequestId::new(ClientId(c), s),
        payload: p.to_vec(),
    };
    // Self-delivers every CtbBroadcast (the loopback the full harness does)
    // and reports the proposed batches, in order.
    let mut k = 1u64;
    let mut batches_in = move |leader: &mut Engine, mut fx: Vec<Effect>| -> Vec<Vec<Vec<u8>>> {
        let mut batches = Vec::new();
        let mut i = 0;
        while i < fx.len() {
            if let Effect::CtbBroadcast(msg) = fx[i].clone() {
                if let CtbMsg::Prepare(p) = &msg {
                    batches.push(
                        p.batch.requests().iter().map(|q| q.payload.clone()).collect::<Vec<_>>(),
                    );
                }
                let more = leader.on_ctb_deliver(ReplicaId(0), SeqId(k), msg);
                k += 1;
                fx.extend(more);
            }
            i += 1;
        }
        batches
    };
    let echoed = |leader: &mut Engine, req: Request| -> Vec<Effect> {
        let mut fx = leader.on_client_request(req.clone());
        fx.extend(leader.on_echo(ReplicaId(1), req.clone()));
        fx.extend(leader.on_echo(ReplicaId(2), req));
        fx
    };
    // Decides `slot` on the leader by injecting both fast-path rounds.
    let decide = |leader: &mut Engine, slot: Slot| -> Vec<Effect> {
        let mut fx = Vec::new();
        for r in 0..3u32 {
            let m = ubft_core::msg::TbMsg::WillCertify { view: View(0), slot };
            fx.extend(leader.on_tb_deliver(ReplicaId(r), m));
        }
        for r in 0..3u32 {
            let m = ubft_core::msg::TbMsg::WillCommit { view: View(0), slot };
            fx.extend(leader.on_tb_deliver(ReplicaId(r), m));
        }
        fx
    };

    // h0 fills the single pipeline slot.
    let fx = echoed(&mut leader, mk(1, 0, b"h0"));
    assert_eq!(batches_in(&mut leader, fx), vec![vec![b"h0".to_vec()]]);
    // h1 queues (pipeline full), then byz via echo timeout, then h2.
    let byz = mk(2, 0, b"byz");
    let fx = echoed(&mut leader, mk(1, 1, b"h1"));
    assert!(batches_in(&mut leader, fx).is_empty());
    let mut fx = leader.on_client_request(byz.clone());
    fx.extend(leader.on_timer(TimerKind::EchoFallback(byz.id)));
    assert!(batches_in(&mut leader, fx).is_empty());
    let fx = echoed(&mut leader, mk(1, 2, b"h2"));
    assert!(batches_in(&mut leader, fx).is_empty());

    // Deciding h0's slot flushes h1 alone: the flush stops *before* byz.
    let fx = decide(&mut leader, Slot(0));
    assert_eq!(batches_in(&mut leader, fx), vec![vec![b"h1".to_vec()]]);
    // Deciding h1's slot flushes byz in a slot of its own.
    let fx = decide(&mut leader, Slot(1));
    assert_eq!(batches_in(&mut leader, fx), vec![vec![b"byz".to_vec()]]);
    // And h2 follows normally.
    let fx = decide(&mut leader, Slot(2));
    assert_eq!(batches_in(&mut leader, fx), vec![vec![b"h2".to_vec()]]);
}

#[test]
fn unbatched_config_proposes_one_request_per_slot() {
    // max_batch = 1 with the default (window-wide) pipeline reproduces the
    // unbatched engine: every request gets its own slot.
    let mut net = Net::new(PathMode::FastOnly);
    for i in 0..10u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.drain();
    let batch_sizes: Vec<usize> = net
        .ctb_log
        .iter()
        .filter(|(s, _)| *s == 0)
        .filter_map(|(_, m)| match m {
            CtbMsg::Prepare(p) => Some(p.batch.len()),
            _ => None,
        })
        .collect();
    assert_eq!(batch_sizes, vec![1; 10]);
    net.assert_executed_prefix_agreement();
}

#[test]
fn fast_path_is_signature_free() {
    let mut net = Net::new(PathMode::FastOnly);
    for r in 0..3 {
        let _ = net.engines[r].take_crypto_ops();
    }
    net.client_request(0, b"free");
    for r in 0..3 {
        let ops = net.engines[r].take_crypto_ops();
        assert_eq!(ops.signs, 0, "replica {r} signed on the fast path");
        assert_eq!(ops.verifies, 0, "replica {r} verified on the fast path");
    }
}

/// Decides one request while a replica is down: the echo round and the
/// fast path both lack unanimity, so the echo-fallback and slow-path
/// timers carry the slot.
fn decide_degraded(net: &mut Net, seq: u64, payload: &[u8]) {
    net.client_request(seq, payload);
    net.fire_timers(|k| matches!(k, TimerKind::EchoFallback(_)));
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
}

fn slot_triggers_armed(net: &Net, r: usize) -> usize {
    net.timers[r].iter().filter(|k| matches!(k, TimerKind::SlotSlowTrigger(_))).count()
}

#[test]
fn slot_trigger_suspects_the_silent_replica_and_its_join_clears_it() {
    let mut net = Net::new(PathMode::FastWithFallback);
    net.crashed[2] = true;
    // The first degraded slot pays the fast-path timeout: that is how the
    // survivors learn replica 2 is silent.
    decide_degraded(&mut net, 0, b"detect");
    for r in 0..2 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
    // From then on an accepted prepare starts the slow path at once: the
    // slot decides with no slow trigger armed, let alone fired. (The echo
    // round still waits for the dead follower; that wait is out of scope.)
    net.client_request(1, b"degraded");
    net.fire_timers(|k| matches!(k, TimerKind::EchoFallback(_)));
    for r in 0..2 {
        assert_eq!(net.executed[r].len(), 2, "replica {r} waited for a timer");
        assert_eq!(slot_triggers_armed(&net, r), 0, "replica {r} armed a slow trigger");
    }
    // The replacement's Join is its first word: suspicion clears, so the
    // next slot runs the signature-free fast path and arms the trigger.
    net.replace(2);
    for r in 0..3 {
        let _ = net.engines[r].take_crypto_ops();
    }
    net.client_request(2, b"healed");
    for r in 0..2 {
        assert_eq!(net.executed[r].len(), 3, "replica {r}");
        assert_eq!(slot_triggers_armed(&net, r), 1, "replica {r} still suspects the joiner");
        assert_eq!(net.engines[r].take_crypto_ops(), CryptoOps::default(), "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn slot_trigger_on_a_decided_slot_suspects_nobody() {
    let mut net = Net::new(PathMode::FastWithFallback);
    net.client_request(0, b"fast");
    // The fast path won; the trigger armed for the slot fires afterwards.
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    net.client_request(1, b"still fast");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 2, "replica {r}");
        assert_eq!(slot_triggers_armed(&net, r), 1, "replica {r} went straight to the slow path");
    }
}

#[test]
fn replacement_node_rejoins_and_converges() {
    // Small window so checkpoints (and therefore state transfer) happen
    // within a short run: crash follower 2, decide two windows' worth of
    // slots without it, replace it, then keep going until the next
    // checkpoint hands it the state it cannot replay.
    let params = ClusterParams::paper_default().with_window(16);
    let mut net = Net::with_params(PathMode::FastWithFallback, params);
    for i in 0..10u64 {
        net.client_request(i, &i.to_le_bytes());
    }
    net.crashed[2] = true;
    for i in 10..40u64 {
        decide_degraded(&mut net, i, &i.to_le_bytes());
    }
    assert_eq!(net.engines[0].exec_next(), Slot(40));

    net.replace(2);
    let diag = net.engines[2].diag();
    assert!(!diag.joining, "join must complete once both acks are in");
    // The join adopted the latest stable checkpoint (slot 32 with window
    // 16), transferred the state below it, and replayed the certified
    // recent decisions above it.
    assert!(net.engines[2].exec_next() >= Slot(32), "checkpoint not adopted");

    // New traffic flows through all three replicas again (full fast-path
    // unanimity, no timers); the next checkpoints heal whatever the
    // bounded replay missed.
    for i in 40..60u64 {
        net.client_request(i, &i.to_le_bytes());
    }
    assert_eq!(net.engines[0].exec_next(), Slot(60));
    assert_eq!(net.engines[2].exec_next(), Slot(60), "replacement lagging");
    let digest = net.apps[0].snapshot_digest();
    assert_eq!(net.apps[1].snapshot_digest(), digest);
    assert_eq!(net.apps[2].snapshot_digest(), digest, "replacement diverged");
    // The replacement's own execution log is a clean suffix: it starts at
    // its state-transfer base, not at genesis.
    assert!(net.executed[2].first().is_some_and(|(s, _)| *s >= Slot(32)));
    // Nobody branded anybody: a replacement is not misbehaviour.
    assert!(net.brands.is_empty(), "spurious byzantine brands: {:?}", net.brands);
}

#[test]
fn replacement_leader_is_replaced_and_group_reelects() {
    // Crash the *leader*, let the view change elect replica 1, then boot
    // leader 0's replacement: it must adopt view 1 from the acks and act
    // as a follower, not re-propose as a stale leader of view 0.
    let mut net = Net::new(PathMode::FastWithFallback);
    net.client_request(0, b"before");
    net.crashed[0] = true;
    net.client_request(1, b"during");
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    assert_eq!(net.engines[1].view(), View(1));

    net.replace(0);
    assert!(!net.engines[0].diag().joining);
    assert_eq!(net.engines[0].view(), View(1), "joiner must adopt the acks' view");
    assert!(!net.engines[0].is_leader(), "view 1 is led by replica 1");

    // The replaced node participates in new decisions immediately. Slot 0
    // decided on the certificate-free fast path before the crash, so the
    // joiner cannot replay it (only the next checkpoint covers it); slot 1
    // came with a slow-path certificate and replayed during the join.
    net.client_request(2, b"after");
    for r in 1..3 {
        assert_eq!(net.engines[r].decided_count(), 3, "replica {r}");
    }
    assert!(net.engines[0].decided_count() >= 2, "joiner missed the replay or the new slot");
    assert_eq!(net.apps[1].snapshot_digest(), net.apps[2].snapshot_digest());
    assert!(net.brands.is_empty(), "spurious byzantine brands: {:?}", net.brands);
}

#[test]
fn join_waits_for_quorum_acks() {
    let mut net = Net::new(PathMode::FastOnly);
    net.client_request(0, b"x");
    net.crashed[2] = true;
    net.client_request(1, b"y");
    // Drive the handshake by hand: a single ack must not complete it.
    net.crashed[2] = false;
    net.engines[2] = Engine::new(ReplicaId(2), net.cfg.clone(), net.ring.clone());
    let fx = net.engines[2].begin_join(SeqId(0));
    let joins = fx
        .iter()
        .filter(|e| {
            matches!(e, Effect::SendReplica { msg: ubft_core::msg::DirectMsg::Join { .. }, .. })
        })
        .count();
    assert_eq!(joins, 2, "one Join per peer");
    assert!(net.engines[2].diag().joining);
    let ack = net.engines[0].on_join(ReplicaId(2));
    let [Effect::SendReplica {
        msg: ubft_core::msg::DirectMsg::JoinAck { view, streams, commits },
        ..
    }] = &ack[..]
    else {
        panic!("expected one JoinAck, got {ack:?}");
    };
    let fx = net.engines[2].on_join_ack(ReplicaId(0), *view, streams.clone(), commits.clone());
    assert!(fx.is_empty(), "one ack is below the f+1 quorum");
    assert!(net.engines[2].diag().joining, "must keep waiting for a second ack");
}

#[test]
fn equivocation_sequence_recorded_in_diag() {
    // The `_k` regression: the equivocating sequence number must survive
    // into the diagnostics, not be dropped on the floor.
    let mut net = Net::new(PathMode::FastOnly);
    let fx = net.engines[1].on_ctb_equivocation(ReplicaId(0), SeqId(7));
    assert!(matches!(
        &fx[..],
        [Effect::ByzantineDetected { replica: ReplicaId(0), reason }] if reason.contains("k=7")
    ));
    let diag = net.engines[1].diag();
    assert_eq!(diag.equivocations, vec![(ReplicaId(0), SeqId(7))]);
    // Only the first proof per stream is recorded; the stream is blocked.
    let fx = net.engines[1].on_ctb_equivocation(ReplicaId(0), SeqId(9));
    assert!(fx.is_empty());
    assert_eq!(net.engines[1].diag().equivocations, vec![(ReplicaId(0), SeqId(7))]);
}

// ----------------------------------------------------------------------
// Summary crypto jobs (Algorithm 4 off the request path)
// ----------------------------------------------------------------------

/// Lone engines driven by hand, so a test decides when each crypto job
/// completes. `t = 4`: a summary share every 2 messages of a stream.
struct Lone {
    ring: KeyRing,
    cfg: EngineConfig,
}

impl Lone {
    fn new() -> Self {
        let mut cfg =
            EngineConfig::new(ClusterParams::paper_default().with_tail(4), PathMode::FastOnly);
        cfg.echo_round = false;
        let ring = KeyRing::generate(5, (0..3).map(|i| ProcessId::Replica(ReplicaId(i))));
        Lone { ring, cfg }
    }

    fn engine(&self, me: u32) -> Engine {
        let mut e = Engine::new(ReplicaId(me), self.cfg.clone(), self.ring.clone());
        let _ = e.start();
        e
    }

    /// Runs `job` as replica `me`'s crypto worker would and feeds the
    /// result back.
    fn complete(&self, e: &mut Engine, job: &CryptoJob) -> Vec<Effect> {
        let signer = self.ring.signer(ProcessId::Replica(e.id())).unwrap();
        e.on_crypto_done(job.tag, job.run(&signer, &self.ring))
    }

    /// Leader r0 proposes two requests and self-delivers both prepares,
    /// crossing its `k = 2` boundary. Returns the own-share sign job.
    fn cross_own_boundary(&self, e: &mut Engine) -> CryptoJob {
        for seq in 0..2 {
            let req = Request { id: RequestId::new(ClientId(1), seq), payload: vec![seq as u8] };
            let fx = e.on_client_request(req);
            let prepare = fx
                .into_iter()
                .find_map(|e| if let Effect::CtbBroadcast(m) = e { Some(m) } else { None })
                .expect("the leader proposes");
            let fx = e.on_ctb_deliver(ReplicaId(0), SeqId(seq + 1), prepare);
            assert!(
                !fx.iter().any(|e| matches!(e, Effect::SendReplica { .. })),
                "the boundary call itself must not wait for a signature"
            );
        }
        let mut jobs = e.take_crypto_jobs();
        assert_eq!(jobs.len(), 1, "one sign job at the boundary");
        assert!(matches!(jobs[0].work, CryptoWork::Sign { .. }));
        jobs.remove(0)
    }

    /// Leader r0's `k`-th CTBcast message: a prepare for slot `k - 1`.
    fn prepare(k: u64) -> CtbMsg {
        let req = Request { id: RequestId::new(ClientId(1), k), payload: vec![k as u8] };
        CtbMsg::Prepare(Prepare { view: View(0), slot: Slot(k - 1), batch: Batch::single(req) })
    }

    /// `from`'s CERTIFY_SUMMARY share over r0's boundary `upto`; a forged
    /// one carries a signature that never verifies.
    fn share(&self, from: u32, upto: u64, digest: Digest, forged: bool) -> DirectMsg {
        let stream = ReplicaId(0);
        let signer = self.ring.signer(ProcessId::Replica(ReplicaId(from))).unwrap();
        let sig = if forged {
            Signature::garbage()
        } else {
            signer.sign(&summary_sign_bytes(stream, SeqId(upto), &digest))
        };
        DirectMsg::CertifySummary { stream, upto: SeqId(upto), digest, sig }
    }
}

fn share_digest(job: &CryptoJob) -> Digest {
    match job.tag {
        CryptoTag::SummaryShare { digest, .. } => digest,
        other => panic!("not a share sign job: {other:?}"),
    }
}

fn summary_broadcasts(fx: &[Effect]) -> usize {
    fx.iter().filter(|e| matches!(e, Effect::TbBroadcast(TbMsg::Summary { .. }))).count()
}

#[test]
fn summary_that_fills_no_gap_emits_no_crypto_job() {
    let lone = Lone::new();
    let mut e = lone.engine(1);
    for k in 1..=2u64 {
        let _ = e.on_ctb_deliver(ReplicaId(0), SeqId(k), Lone::prepare(k));
    }
    let _ = e.take_crypto_jobs(); // r1's own share for the boundary
    assert_eq!(e.fifo_position(ReplicaId(0)), SeqId(3));
    // Not even a certificate that could never verify costs anything.
    let summary = TbMsg::Summary {
        upto: SeqId(2),
        summary: StateSummary::default(),
        cert: Certificate::new(),
    };
    let fx = e.on_tb_deliver(ReplicaId(0), summary);
    assert!(fx.is_empty());
    assert!(e.take_crypto_jobs().is_empty(), "no gap, no verification");
    assert_eq!(e.take_crypto_ops(), CryptoOps::default());
}

#[test]
fn gap_filling_summary_waits_for_its_certificate_and_rejects_a_forged_one() {
    let lone = Lone::new();
    let mut e = lone.engine(1);
    let summary = StateSummary::default();
    let bytes = summary_sign_bytes(ReplicaId(0), SeqId(2), &summary.digest());
    let cert_by = |signers: &[u32]| {
        let mut cert = Certificate::new();
        for r in signers {
            let id = ProcessId::Replica(ReplicaId(*r));
            cert.add(id, lone.ring.signer(id).unwrap().sign(&bytes));
        }
        cert
    };
    let mut forged = cert_by(&[0]);
    forged.add(ProcessId::Replica(ReplicaId(2)), Signature::garbage());

    for (cert, moves) in [(forged, false), (cert_by(&[0, 2]), true)] {
        let msg = TbMsg::Summary { upto: SeqId(2), summary: summary.clone(), cert };
        let fx = e.on_tb_deliver(ReplicaId(0), msg);
        assert!(fx.is_empty());
        assert_eq!(e.fifo_position(ReplicaId(0)), SeqId(1), "nothing adopted before the check");
        let jobs = e.take_crypto_jobs();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].tag, CryptoTag::SummaryCert { stream: ReplicaId(0), upto: SeqId(2) });
        assert_eq!(jobs[0].ops(), CryptoOps { signs: 0, verifies: 2 });
        let _ = lone.complete(&mut e, &jobs[0]);
        let expect = if moves { SeqId(3) } else { SeqId(1) };
        assert_eq!(e.fifo_position(ReplicaId(0)), expect);
    }
}

#[test]
fn forged_share_never_counts_and_a_parked_one_takes_its_place() {
    let lone = Lone::new();
    let mut e = lone.engine(0);
    let own = lone.cross_own_boundary(&mut e);
    let digest = share_digest(&own);
    assert!(lone.complete(&mut e, &own).is_empty(), "one share is no certificate");

    // r1 forges. Its share is checked because own + r1 could certify.
    assert!(e.on_direct(ReplicaId(1), lone.share(1, 2, digest, true)).is_empty());
    let check_r1 = e.take_crypto_jobs();
    assert_eq!(check_r1.len(), 1);
    // r2's honest share is parked: two shares are already verified or in
    // flight, so a third verification would be wasted if r1's holds.
    assert!(e.on_direct(ReplicaId(2), lone.share(2, 2, digest, false)).is_empty());
    assert!(e.take_crypto_jobs().is_empty(), "r2's share waits for r1's verdict");

    // r1's check fails: it never counts, and r2's share is checked now.
    let fx = lone.complete(&mut e, &check_r1[0]);
    assert!(fx.is_empty());
    assert_eq!(e.ctb_summarized_upto(), 0);
    let check_r2 = e.take_crypto_jobs();
    assert_eq!(check_r2.len(), 1);
    assert_eq!(
        check_r2[0].tag,
        CryptoTag::SummaryShareCheck { from: ReplicaId(2), upto: SeqId(2) }
    );
    // r1 cannot buy a second verification for the same boundary.
    assert!(e.on_direct(ReplicaId(1), lone.share(1, 2, digest, false)).is_empty());
    assert!(e.take_crypto_jobs().is_empty());

    let fx = lone.complete(&mut e, &check_r2[0]);
    assert_eq!(summary_broadcasts(&fx), 1);
    assert_eq!(e.ctb_summarized_upto(), 2);
    let Some(Effect::TbBroadcast(TbMsg::Summary { cert, .. })) = fx.first() else {
        panic!("summary broadcast first, got {fx:?}");
    };
    let signers: Vec<ProcessId> = cert.signers().collect();
    assert_eq!(signers, vec![ProcessId::Replica(ReplicaId(0)), ProcessId::Replica(ReplicaId(2))]);
}

#[test]
fn completion_after_the_boundary_was_certified_is_a_noop() {
    let lone = Lone::new();
    let mut e = lone.engine(0);
    let own = lone.cross_own_boundary(&mut e);
    let digest = share_digest(&own);
    // Both peers' shares arrive before our own signature is back, so both
    // are checked (neither could be skipped yet).
    let mut checks = Vec::new();
    for from in [1, 2] {
        let _ = e.on_direct(ReplicaId(from), lone.share(from, 2, digest, false));
        checks.extend(e.take_crypto_jobs());
    }
    assert_eq!(checks.len(), 2);
    assert!(lone.complete(&mut e, &own).is_empty());
    // r2's check returns first and completes the certificate with ours.
    assert_eq!(summary_broadcasts(&lone.complete(&mut e, &checks[1])), 1);
    assert_eq!(e.ctb_summarized_upto(), 2);
    // r1's straggler — and a replay of our own signature — change nothing.
    assert!(lone.complete(&mut e, &checks[0]).is_empty());
    assert!(lone.complete(&mut e, &own).is_empty());
    assert_eq!(e.ctb_summarized_upto(), 2);
    assert!(e.take_crypto_jobs().is_empty());
}

#[test]
fn shares_outside_the_open_boundaries_cost_nothing() {
    let lone = Lone::new();
    let mut e = lone.engine(0);
    let own = lone.cross_own_boundary(&mut e);
    let digest = share_digest(&own);
    // Off-boundary, beyond anything broadcast, about someone else's
    // stream: all dropped before a verification is spent.
    for upto in [1u64, 3, 4, 64, 1 << 40] {
        assert!(e.on_direct(ReplicaId(1), lone.share(1, upto, digest, false)).is_empty());
    }
    let foreign = DirectMsg::CertifySummary {
        stream: ReplicaId(2),
        upto: SeqId(2),
        digest,
        sig: Signature::garbage(),
    };
    assert!(e.on_direct(ReplicaId(1), foreign).is_empty());
    assert!(e.take_crypto_jobs().is_empty());
    assert_eq!(e.take_crypto_ops(), CryptoOps::default());
}

#[test]
fn jobs_no_driver_collects_run_at_the_next_message() {
    // A harness that only routes `Effect`s (no crypto worker) must still
    // see shares flow: the engine runs leftover jobs itself.
    let lone = Lone::new();
    let mut e = lone.engine(1);
    let _ = e.on_ctb_deliver(ReplicaId(0), SeqId(1), Lone::prepare(1));
    let fx = e.on_ctb_deliver(ReplicaId(0), SeqId(2), Lone::prepare(2));
    assert!(!fx.iter().any(|e| matches!(e, Effect::SendReplica { .. })));
    let fx = e.on_ctb_deliver(ReplicaId(0), SeqId(3), Lone::prepare(3));
    assert!(
        matches!(
            fx.first(),
            Some(Effect::SendReplica {
                to: ReplicaId(0),
                msg: DirectMsg::CertifySummary { upto: SeqId(2), .. }
            })
        ),
        "the share signed late leads the next call's effects, got {fx:?}"
    );
    assert_eq!(e.take_crypto_ops().signs, 1, "self-run jobs are still metered");
    assert!(e.take_crypto_jobs().is_empty());
}
