//! Synchronous multi-replica tests of the consensus engine.
//!
//! These tests drive `n` [`Engine`]s with a *perfect* broadcast fabric
//! ([`EngineNet`]: CTBcast ids assigned in order, instant delivery, no
//! Byzantine behaviour unless injected by hand), validating the consensus
//! logic in isolation from the transport, register, and timing layers.

use proptest::prelude::*;
use ubft_core::app::{App, NoopApp};
// The variant one test compares against is imported, not spelled as a path:
// CI's "Effect interpreters" step lists the files that spell it out.
use ubft_core::engine::{
    CryptoJob, CryptoOps, CryptoTag, CryptoWork, DecisionEvidence,
    Effect::{self, RequestSnapshot},
    Engine, EngineConfig, PathMode, ShareOf, TimerKind,
};
use ubft_core::harness::{EngineNet, Lane, Move};
use ubft_core::msg::{
    exec_table_digest, summary_sign_bytes, vc_sign_bytes, Batch, CheckpointCert, CheckpointData,
    CommitCert, CtbMsg, DirectMsg, Prepare, Request, StateSummary, TbMsg,
};
use ubft_crypto::{Certificate, Digest, KeyRing, Signature};
use ubft_types::wire::Wire;
use ubft_types::{ClientId, ClusterParams, ProcessId, ReplicaId, RequestId, SeqId, Slot, View};

type Net = EngineNet<NoopApp>;

fn new_net(path: PathMode) -> Net {
    Net::new(EngineConfig::new(ClusterParams::paper_default(), path))
}

/// The crypto jobs `e` queued since the last call.
fn queued_jobs(e: &mut Engine) -> Vec<CryptoJob> {
    e.take_crypto_jobs().collect()
}

/// Fires the leader's echo-fallback sweep twice: a request that waits for
/// its echoes is marked at the first firing and falls back at the second.
fn fire_echo_fallback(net: &mut Net) {
    for _ in 0..2 {
        net.fire_timers(|k| matches!(k, TimerKind::EchoFallback));
    }
}

fn is_checkpoint_job(job: &CryptoJob) -> bool {
    matches!(
        job.tag,
        CryptoTag::CheckpointShare { .. }
            | CryptoTag::ShareCheck { of: ShareOf::Checkpoint { .. }, .. }
            | CryptoTag::CheckpointCert { .. }
    )
}

#[test]
fn fast_path_decides_and_executes_everywhere() {
    let mut net = new_net(PathMode::FastOnly);
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
    let mut net = new_net(PathMode::SlowOnly);
    net.client_request(0, b"slow");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn many_requests_execute_in_order() {
    let mut net = new_net(PathMode::FastOnly);
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
    let mut net = new_net(PathMode::SlowOnly);
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
    let mut net = new_net(PathMode::FastOnly);
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
    let mut net = new_net(PathMode::FastWithFallback);
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
    let mut net = new_net(PathMode::FastWithFallback);
    net.crashed[2] = true;
    net.client_request(0, b"degraded");
    // Echo round incomplete (only 1 of 2 followers alive): leader proposes
    // after the echo-fallback timer.
    fire_echo_fallback(&mut net);
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
    let mut net = new_net(PathMode::FastWithFallback);
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
    let mut net = new_net(PathMode::FastWithFallback);
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
    let mut net = new_net(PathMode::FastOnly);
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
    let mut net = new_net(PathMode::FastOnly);
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
    let mut net = new_net(PathMode::FastOnly);
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
    let mut net = Net::new(EngineConfig::new(params, PathMode::FastOnly));
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
    let mut net = Net::new(EngineConfig::new(params, PathMode::SlowOnly));
    net.crashed[3] = true;
    net.crashed[4] = true;
    for i in 0..5u64 {
        net.client_request(i, &i.to_le_bytes());
        // Two followers are dead, so the echo round never completes.
        fire_echo_fallback(&mut net);
    }
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 5, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn duplicate_client_request_not_executed_twice() {
    let mut net = new_net(PathMode::FastOnly);
    net.client_request(0, b"once");
    // Re-send the same request.
    net.client_request(0, b"once");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
}

#[test]
fn crypto_ops_metered_on_slow_path() {
    // Each replica's CERTIFY share is a sign job, metered by the driver that
    // runs it: no worker gets to them here until the test completes them.
    let mut net = new_net(PathMode::SlowOnly);
    net.park = Some(|job| matches!(job.tag, CryptoTag::SlotShare { .. }));
    net.client_request(0, b"metered");
    let shares = std::mem::take(&mut net.parked);
    let total: u32 = shares.iter().map(|(_, job)| job.ops().signs + job.ops().verifies).sum();
    assert_eq!(total, 3, "slow path must meter crypto work: {shares:?}");
    assert!(net.executed.iter().all(Vec::is_empty), "decided without our shares");
    net.park = None;
    for (who, job) in shares {
        net.complete(who, &job);
    }
    net.run();
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
}

/// The messages of the leader's CTBcast stream, in emission order.
fn leader_stream(net: &Net) -> Vec<&CtbMsg> {
    net.ctb_log.iter().filter(|(s, _)| *s == 0).map(|(_, m)| m).collect()
}

#[test]
fn checkpoint_announced_before_proposals_into_new_window() {
    // Peers validate PREPAREs against the checkpoint most recently seen on
    // the leader's stream (Algorithm 5), which opens two windows: no
    // PREPARE for a slot >= b + 2 * window may precede CHECKPOINT(b +
    // window) there. Within the two windows the leader does not wait: pile
    // a backlog of 600 onto it while no crypto worker gets to a checkpoint
    // job, and it fills [0, 512) — the PREPAREs for [256, 512) precede
    // CHECKPOINT(256) — and stops there.
    let mut net = new_net(PathMode::FastOnly);
    net.park = Some(is_checkpoint_job);
    for i in 0..600u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.run();
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 512, "replica {r} fills both open windows");
    }
    let stream = leader_stream(&net);
    assert!(!stream.iter().any(|m| matches!(m, CtbMsg::Checkpoint(_))));
    assert_eq!(stream.iter().filter(|m| matches!(m, CtbMsg::Prepare(_))).count(), 512);

    // The certifications complete: the window slides and the rest follows.
    net.park = None;
    for (who, job) in std::mem::take(&mut net.parked) {
        net.complete(who, &job);
    }
    net.run();
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 600, "replica {r}");
    }
    let stream = leader_stream(&net);
    let mut announced = Slot(0);
    for m in &stream {
        match m {
            CtbMsg::Checkpoint(c) => announced = c.data.base,
            CtbMsg::Prepare(p) => assert!(
                p.slot.0 < announced.0 + 512,
                "PREPARE for {} emitted while the stream's checkpoint was {announced}",
                p.slot
            ),
            _ => {}
        }
    }
    assert_eq!(announced, Slot(512), "both checkpoints announced");
    net.assert_executed_prefix_agreement();
}

#[test]
fn burst_across_a_boundary_snapshots_the_same_state_everywhere() {
    // A 300-request backlog processed in one burst: the snapshot for base
    // 256 is taken at the boundary — not wherever the burst happened to
    // leave each replica — so all three certify identical data and the
    // dedup table in it is the one after slot 255.
    let mut net = new_net(PathMode::FastOnly);
    for i in 0..300u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.run();
    let data: Vec<CheckpointData> = (0..3)
        .map(|r| {
            let (base, app_digest, _, table) = net.snapshots[r].clone().expect("a snapshot");
            assert_eq!(table, vec![(ClientId(1), 256)], "replica {r}");
            CheckpointData { base, app_digest, exec_digest: exec_table_digest(&table) }
        })
        .collect();
    assert_eq!(data[0].base, Slot(256));
    assert!(data.iter().all(|d| *d == data[0]), "snapshots differ: {data:?}");
    for r in 0..3 {
        assert_eq!(net.engines[r].diag().checkpoint_base, Slot(256), "replica {r}");
        assert_eq!(net.executed[r].len(), 300, "replica {r}");
    }
}

#[test]
fn leader_entering_view_on_certificates_seals_first() {
    // Five replicas, leader (0) crashed. Only replicas 2, 3, 4 time out and
    // seal view 1; replica 1 — the incoming leader — never does. It must
    // still enter view 1 on the collected certificates, and its stream must
    // carry SEAL_VIEW(1) before NEW_VIEW(1) or peers reject the NEW_VIEW.
    let params = ClusterParams::paper_default().with_f(2);
    let mut net = Net::new(EngineConfig::new(params, PathMode::FastWithFallback));
    net.crashed[0] = true;
    net.client_request(0, b"orphaned");
    // Fire the progress watchdog only on replicas 2..5 (nothing decided
    // since arming, so one firing detects the stall and seals).
    for r in 2..5 {
        let kinds: Vec<TimerKind> = net.timers[r].drain(..).collect();
        for k in kinds {
            if matches!(k, TimerKind::Progress) {
                let fx = net.engines[r].on_timer(k);
                net.emit(r, fx);
            } else {
                net.timers[r].push(k);
            }
        }
    }
    net.run();
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
    let mut net = new_net(PathMode::FastWithFallback);
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
    let mut net = Net::new(batched_config(PathMode::FastOnly, 4, 1));
    for i in 0..10u64 {
        net.client_request_no_drain(i, format!("req-{i}").as_bytes());
    }
    net.run();
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
    let mut net = Net::new(batched_config(PathMode::FastOnly, 64, 1));
    for i in 0..10u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.run();
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
    let mut net = Net::new(batched_config(PathMode::FastWithFallback, 4, 1));
    for i in 0..6u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.run();
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
    // A Byzantine client sends its request to the leader and r1 only, so the
    // echo round never completes and the echo-fallback sweep proposes it: `f`
    // followers echoed it. That request must get a slot of its own:
    // co-batching it with fully-echoed honest requests would make r2 hold
    // the whole prepare (§5.4) and knock the honest requests off the fast
    // path as collateral.
    let mut net = Net::new(batched_config(PathMode::FastWithFallback, 8, 1));
    // Honest request 0 reaches everyone and decides.
    net.client_request(0, b"honest-0");
    let byz = Request { id: RequestId::new(ClientId(2), 0), payload: b"r0-and-r1".to_vec() };
    for r in [0, 1] {
        let fx = net.engines[r].on_client_request(byz.clone());
        net.emit(r, fx);
    }
    net.run();
    // Two more honest requests queue up behind it.
    net.client_request_no_drain(1, b"honest-1");
    net.client_request_no_drain(2, b"honest-2");
    net.run();
    // The leader proposes the Byzantine request on fallback; r0 and r1
    // certify it on the slow path while r2 holds its PREPARE.
    fire_echo_fallback(&mut net);
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    for r in 0..3 {
        let payloads = payloads(&net.executed[r]);
        assert_eq!(payloads, [&b"honest-0"[..], b"honest-1", b"honest-2", b"r0-and-r1"], "r{r}");
    }
    // The Byzantine request rode a singleton batch and stalled only itself.
    let byz_batches: Vec<usize> = net
        .ctb_log
        .iter()
        .filter_map(|(s, m)| match m {
            CtbMsg::Prepare(p) if *s == 0 && p.batch.requests().contains(&byz) => {
                Some(p.batch.len())
            }
            _ => None,
        })
        .collect();
    assert_eq!(byz_batches, [1], "the fallback request must be proposed alone");
    net.assert_executed_prefix_agreement();
}

#[test]
fn a_request_sent_to_the_leader_alone_blocks_no_slot() {
    // A Byzantine client sends one request to r0 only and never retransmits.
    // No follower echoes it, so its echo fallback does not propose it: a
    // slot for it could never gather the f + 1 endorsements it needs, and
    // every later slot would wait behind it. Nor does r0's watchdog count it.
    let mut net = new_net(PathMode::FastWithFallback);
    let byz = Request { id: RequestId::new(ClientId(2), 0), payload: b"leader-only".to_vec() };
    let fx = net.engines[0].on_client_request(byz);
    net.emit(0, fx);
    net.run();
    fire_echo_fallback(&mut net);
    let honest: Vec<Vec<u8>> = (0..4).map(|i| format!("honest-{i}").into_bytes()).collect();
    for (seq, payload) in honest.iter().enumerate() {
        net.client_request(seq as u64, payload);
        net.fire_timers(|k| !matches!(k, TimerKind::Progress));
    }
    for _ in 0..3 {
        net.fire_timers(|k| matches!(k, TimerKind::Progress));
    }
    for r in 0..3 {
        assert_eq!(payloads(&net.executed[r]), honest, "r{r}");
        assert_eq!(net.engines[r].view(), View(0), "r{r} changed view");
    }
    assert_eq!(net.engines[0].diag().outstanding, 1, "r0 still holds it, unproposed");
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
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
        fx.extend(leader.on_echo(ReplicaId(1), [req.clone()]));
        fx.extend(leader.on_echo(ReplicaId(2), [req]));
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
    // h1 queues (pipeline full), then byz via echo timeout — r1 echoed it,
    // r2 did not — then h2.
    let byz = mk(2, 0, b"byz");
    let fx = echoed(&mut leader, mk(1, 1, b"h1"));
    assert!(batches_in(&mut leader, fx).is_empty());
    let mut fx = leader.on_client_request(byz.clone());
    fx.extend(leader.on_echo(ReplicaId(1), [byz.clone()]));
    // The sweep marks it at its first firing and falls back at its second.
    fx.extend(leader.on_timer(TimerKind::EchoFallback));
    fx.extend(leader.on_timer(TimerKind::EchoFallback));
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
    let mut net = new_net(PathMode::FastOnly);
    for i in 0..10u64 {
        net.client_request_no_drain(i, &i.to_le_bytes());
    }
    net.run();
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
    let mut net = new_net(PathMode::FastOnly);
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
    fire_echo_fallback(net);
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
}

fn slot_triggers_armed(net: &Net, r: usize) -> usize {
    net.timers[r].iter().filter(|k| matches!(k, TimerKind::SlotSlowTrigger(_))).count()
}

#[test]
fn slot_trigger_suspects_the_silent_replica_and_its_join_clears_it() {
    let mut net = new_net(PathMode::FastWithFallback);
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
    fire_echo_fallback(&mut net);
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
    let mut net = new_net(PathMode::FastWithFallback);
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
    let mut net = Net::new(EngineConfig::new(params, PathMode::FastWithFallback));
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
    let mut net = new_net(PathMode::FastWithFallback);
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
    let mut net = new_net(PathMode::FastOnly);
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
    let mut net = new_net(PathMode::FastOnly);
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
        let mut jobs = queued_jobs(e);
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
    let _ = queued_jobs(&mut e); // r1's own share for the boundary
    assert_eq!(e.fifo_position(ReplicaId(0)), SeqId(3));
    // Not even a certificate that could never verify costs anything.
    let summary = TbMsg::Summary {
        upto: SeqId(2),
        summary: StateSummary::default(),
        cert: Certificate::new(),
    };
    let fx = e.on_tb_deliver(ReplicaId(0), summary);
    assert!(fx.is_empty());
    assert!(queued_jobs(&mut e).is_empty(), "no gap, no verification");
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
        let jobs = queued_jobs(&mut e);
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
    let check_r1 = queued_jobs(&mut e);
    assert_eq!(check_r1.len(), 1);
    // r2's honest share is parked: two shares are already verified or in
    // flight, so a third verification would be wasted if r1's holds.
    assert!(e.on_direct(ReplicaId(2), lone.share(2, 2, digest, false)).is_empty());
    assert!(queued_jobs(&mut e).is_empty(), "r2's share waits for r1's verdict");

    // r1's check fails: it never counts, and r2's share is checked now.
    let fx = lone.complete(&mut e, &check_r1[0]);
    assert!(fx.is_empty());
    assert_eq!(e.ctb_summarized_upto(), 0);
    let check_r2 = queued_jobs(&mut e);
    assert_eq!(check_r2.len(), 1);
    assert_eq!(
        check_r2[0].tag,
        CryptoTag::ShareCheck { of: ShareOf::Summary { upto: SeqId(2) }, from: ReplicaId(2) }
    );
    // r1 cannot buy a second verification for the same boundary.
    assert!(e.on_direct(ReplicaId(1), lone.share(1, 2, digest, false)).is_empty());
    assert!(queued_jobs(&mut e).is_empty());

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
    // Both peers' shares arrive before our own signature is back. Ours is
    // as good as verified already, so r2's — over the same digest — is the
    // one check the certificate needs; r1 summarized something else, which
    // nothing vouches for yet, so its share is checked too.
    let mut checks = Vec::new();
    for (from, about) in [(1, ubft_crypto::sha256(b"another state")), (2, digest)] {
        let _ = e.on_direct(ReplicaId(from), lone.share(from, 2, about, false));
        checks.extend(queued_jobs(&mut e));
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
    assert!(queued_jobs(&mut e).is_empty());
}

#[test]
fn a_late_own_signature_does_not_buy_a_second_share_check() {
    // A crypto worker running late returns our own signature after the
    // peers' shares arrive. Checking both of theirs for that reason would
    // add 45 us to a worker that is already behind — at `t = 16` it never
    // caught up again.
    let lone = Lone::new();
    let mut e = lone.engine(0);
    let own = lone.cross_own_boundary(&mut e);
    let digest = share_digest(&own);
    let _ = e.on_direct(ReplicaId(1), lone.share(1, 2, digest, false));
    let check_r1 = queued_jobs(&mut e);
    assert_eq!(check_r1.len(), 1);
    let _ = e.on_direct(ReplicaId(2), lone.share(2, 2, digest, false));
    assert!(queued_jobs(&mut e).is_empty(), "ours + r1's make f + 1: r2's is parked");
    assert!(lone.complete(&mut e, &check_r1[0]).is_empty(), "ours is not signed yet");
    assert_eq!(summary_broadcasts(&lone.complete(&mut e, &own)), 1);
    assert_eq!(e.ctb_summarized_upto(), 2);
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
    assert!(queued_jobs(&mut e).is_empty());
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
    assert!(queued_jobs(&mut e).is_empty());
}

// ----------------------------------------------------------------------
// Checkpoint certification off the request path
// ----------------------------------------------------------------------

/// One engine of a `window = 4` group driven by hand: replica 0 leads, and
/// the test plays the other two replicas, the clients and the crypto worker.
/// `t = 64` keeps summaries out of these short runs.
struct Cp {
    lone: Lone,
    e: Engine,
    /// Next CTBcast id of the leader's stream.
    k: u64,
}

impl Cp {
    fn new(me: u32) -> Self {
        let mut lone = Lone::new();
        let params = ClusterParams::paper_default().with_tail(64).with_window(4);
        lone.cfg =
            EngineConfig { echo_round: false, ..EngineConfig::new(params, PathMode::FastOnly) };
        let e = lone.engine(me);
        Cp { lone, e, k: 1 }
    }

    /// The next message of the leader's stream is delivered.
    fn leader_sends(&mut self, msg: CtbMsg) -> Vec<Effect> {
        self.k += 1;
        self.e.on_ctb_deliver(ReplicaId(0), SeqId(self.k - 1), msg)
    }

    fn request(slot: u64) -> Request {
        Request { id: RequestId::new(ClientId(1), slot), payload: vec![slot as u8] }
    }

    /// The request for `slot` arrives from its client and the leader's
    /// PREPARE for it is delivered (to the leader: by itself).
    fn prepare(&mut self, slot: u64) -> Vec<Effect> {
        let mut fx = self.e.on_client_request(Cp::request(slot));
        let prepare =
            Prepare { view: View(0), slot: Slot(slot), batch: Batch::single(Cp::request(slot)) };
        fx.extend(self.leader_sends(CtbMsg::Prepare(prepare)));
        fx
    }

    /// Both fast-path rounds of `slot` arrive from all three replicas.
    fn decide(&mut self, slot: u64) -> Vec<Effect> {
        let mut fx = Vec::new();
        for r in 0..3 {
            let m = TbMsg::WillCertify { view: View(0), slot: Slot(slot) };
            fx.extend(self.e.on_tb_deliver(ReplicaId(r), m));
        }
        for r in 0..3 {
            let m = TbMsg::WillCommit { view: View(0), slot: Slot(slot) };
            fx.extend(self.e.on_tb_deliver(ReplicaId(r), m));
        }
        fx
    }

    /// Answers a `RequestSnapshot` the way a driver does: the digest names
    /// the executed prefix, the table is read at this moment.
    fn snapshot(&mut self, base: u64) -> (CheckpointData, Vec<Effect>) {
        let data = CheckpointData {
            base: Slot(base),
            app_digest: ubft_crypto::sha256(&base.to_le_bytes()),
            exec_digest: exec_table_digest(&self.e.exec_table()),
        };
        let fx = self.e.on_snapshot(data.base, data.app_digest, data.exec_digest);
        (data, fx)
    }

    /// Executes slots `0..4` and takes the snapshot at the boundary; our
    /// share's sign job is left with the (test's) crypto worker.
    fn reach_first_boundary(&mut self) -> (CheckpointData, CryptoJob) {
        for slot in 0..4 {
            let _ = self.prepare(slot);
            let _ = self.decide(slot);
        }
        let (data, _) = self.snapshot(4);
        (data, self.checkpoint_jobs().remove(0))
    }

    /// The crypto jobs queued since the last call: all checkpoint jobs.
    fn checkpoint_jobs(&mut self) -> Vec<CryptoJob> {
        let jobs = queued_jobs(&mut self.e);
        assert!(jobs.iter().all(is_checkpoint_job), "{jobs:?}");
        jobs
    }

    fn complete(&mut self, job: &CryptoJob) -> Vec<Effect> {
        self.lone.complete(&mut self.e, job)
    }

    /// `from`'s CERTIFY_CHECKPOINT share over `data`.
    fn share(&self, from: u32, data: CheckpointData, forged: bool) -> TbMsg {
        let signer = self.lone.ring.signer(ProcessId::Replica(ReplicaId(from))).unwrap();
        let sig = if forged { Signature::garbage() } else { signer.sign(&data.sign_bytes()) };
        TbMsg::CertifyCheckpoint { data, sig }
    }

    /// A CHECKPOINT over `data` signed by `signers`; a forged one swaps
    /// the last signature for one that never verifies.
    fn checkpoint(&self, data: CheckpointData, signers: [u32; 2], forged: bool) -> CtbMsg {
        let mut cert = Certificate::new();
        for (i, r) in signers.iter().enumerate() {
            let id = ProcessId::Replica(ReplicaId(*r));
            let sig = if forged && i == 1 {
                Signature::garbage()
            } else {
                self.lone.ring.signer(id).unwrap().sign(&data.sign_bytes())
            };
            cert.add(id, sig);
        }
        CtbMsg::Checkpoint(CheckpointCert { data, cert })
    }
}

/// Some state at `base` that no engine under test computed itself.
fn foreign_data(base: u64, tag: u8) -> CheckpointData {
    CheckpointData {
        base: Slot(base),
        app_digest: ubft_crypto::sha256(&[tag]),
        exec_digest: exec_table_digest(&[(ClientId(1), base)]),
    }
}

fn executed_slots(fx: &[Effect]) -> Vec<u64> {
    fx.iter()
        .filter_map(|e| if let Effect::Execute { slot, .. } = e { Some(slot.0) } else { None })
        .collect()
}

fn adopted(fx: &[Effect]) -> Vec<u64> {
    fx.iter()
        .filter_map(
            |e| if let Effect::CheckpointAdopted { base } = e { Some(base.0) } else { None },
        )
        .collect()
}

#[test]
fn execution_pauses_at_the_boundary_until_the_snapshot_is_answered() {
    let mut cp = Cp::new(1);
    for slot in 0..7 {
        let _ = cp.prepare(slot);
    }
    for slot in [0, 1, 2, 4, 5] {
        let _ = cp.decide(slot);
    }
    assert_eq!(cp.e.exec_next(), Slot(3));
    // Slot 3 decides last: one call finds 3, 4 and 5 executable, and stops
    // at the boundary.
    let fx = cp.decide(3);
    assert_eq!(executed_slots(&fx), vec![3]);
    assert_eq!(fx.last(), Some(&RequestSnapshot { base: Slot(4) }));
    assert_eq!(cp.e.exec_table(), vec![(ClientId(1), 4)], "the table after slot 3");
    // Further decisions while the driver has not answered do not execute.
    assert!(executed_slots(&cp.decide(6)).is_empty());
    assert_eq!(cp.e.diag().snapshot_pending, Some(Slot(4)));
    // The answer resumes execution, and only signs: nothing waits for it.
    let _ = queued_jobs(&mut cp.e);
    let (data, fx) = cp.snapshot(4);
    assert_eq!(executed_slots(&fx), vec![4, 5, 6]);
    assert_eq!(cp.e.take_crypto_ops(), CryptoOps::default());
    let jobs = cp.checkpoint_jobs();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].tag, CryptoTag::CheckpointShare { data });
    assert!(matches!(jobs[0].work, CryptoWork::Sign { .. }));
}

#[test]
fn forged_checkpoint_share_is_rejected_by_its_job_and_cannot_be_resubmitted() {
    let mut cp = Cp::new(0);
    let (data, own) = cp.reach_first_boundary();
    let fx = cp.complete(&own);
    assert!(
        matches!(&fx[..], [Effect::TbBroadcast(TbMsg::CertifyCheckpoint { data: d, .. })] if *d == data),
        "our share goes out and certifies nothing alone, got {fx:?}"
    );
    // r1 forges. Its share is checked because own + r1 could certify; r2's
    // honest one is parked behind it.
    assert!(cp.e.on_tb_deliver(ReplicaId(1), cp.share(1, data, true)).is_empty());
    let check_r1 = cp.checkpoint_jobs();
    assert_eq!(check_r1.len(), 1);
    assert!(cp.e.on_tb_deliver(ReplicaId(2), cp.share(2, data, false)).is_empty());
    assert!(cp.checkpoint_jobs().is_empty(), "r2's share waits for r1's verdict");

    // The forged share counts for nothing; r2's is looked at now.
    assert!(cp.complete(&check_r1[0]).is_empty());
    assert_eq!(cp.e.diag().checkpoint_base, Slot(0));
    let check_r2 = cp.checkpoint_jobs();
    assert_eq!(check_r2.len(), 1);
    assert_eq!(
        check_r2[0].tag,
        CryptoTag::ShareCheck { of: ShareOf::Checkpoint { base: Slot(4) }, from: ReplicaId(2) }
    );
    // r1 cannot buy a second verification for the same base.
    assert!(cp.e.on_tb_deliver(ReplicaId(1), cp.share(1, data, false)).is_empty());
    assert!(cp.checkpoint_jobs().is_empty());

    let fx = cp.complete(&check_r2[0]);
    assert_eq!(adopted(&fx), vec![4]);
    let announced = fx.iter().find_map(|e| match e {
        Effect::CtbBroadcast(CtbMsg::Checkpoint(c)) => Some(c.clone()),
        _ => None,
    });
    let c = announced.expect("the adoption is announced on our stream");
    assert_eq!(c.data, data);
    let signers: Vec<ProcessId> = c.cert.signers().collect();
    assert_eq!(signers, vec![ProcessId::Replica(ReplicaId(0)), ProcessId::Replica(ReplicaId(2))]);
    assert_eq!(cp.e.take_crypto_ops(), CryptoOps::default(), "no inline checkpoint crypto");
}

#[test]
fn checkpoint_share_flood_buys_two_verifications_and_two_entries() {
    // A Byzantine r1 signs whatever it likes. Only the two boundaries
    // execution can reach before the stable checkpoint moves are admitted,
    // one share per signer each: everything else costs a comparison.
    let mut cp = Cp::new(0);
    let mut jobs = Vec::new();
    for i in 1..=500u64 {
        // Forged and validly signed, far-future and off-boundary, distinct data every time.
        for (base, forged) in [(4 * i, true), (4 * i, false), (4 * i + 1, false), (1 << 40, false)]
        {
            let share = cp.share(1, foreign_data(base, i as u8), forged);
            assert!(cp.e.on_tb_deliver(ReplicaId(1), share).is_empty());
            jobs.extend(cp.checkpoint_jobs());
        }
    }
    assert_eq!(jobs.len(), 2, "one verification for base 4, one for base 8");
    assert_eq!(cp.e.diag().checkpoint_shares, 2);
    // The verdicts (forged for base 4, bogus but signed for base 8) change
    // neither: a rejected share stays held, a verified one is no quorum.
    for job in &jobs {
        assert!(cp.complete(job).is_empty());
    }
    for i in 1..=500u64 {
        let share = cp.share(1, foreign_data(4 * (i % 3), 200), false);
        assert!(cp.e.on_tb_deliver(ReplicaId(1), share).is_empty());
    }
    assert!(cp.checkpoint_jobs().is_empty());
    assert_eq!(cp.e.diag().checkpoint_shares, 2);
    assert_eq!(cp.e.diag().checkpoint_base, Slot(0));
    assert_eq!(cp.e.take_crypto_ops(), CryptoOps::default());
}

#[test]
fn forged_checkpoint_certificate_parks_only_its_stream_and_brands_once() {
    let mut cp = Cp::new(1);
    // r2's first message is a CHECKPOINT nobody here can vouch for yet.
    let forged = cp.checkpoint(foreign_data(4, 1), [2, 0], true);
    assert!(cp.e.on_ctb_deliver(ReplicaId(2), SeqId(1), forged.clone()).is_empty());
    let jobs = cp.checkpoint_jobs();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].tag, CryptoTag::CheckpointCert { stream: ReplicaId(2), k: SeqId(1) });
    assert_eq!(jobs[0].ops(), CryptoOps { signs: 0, verifies: 2 });
    assert_eq!(cp.e.take_crypto_ops(), CryptoOps::default(), "nothing is verified inline");
    // Its stream waits — later ids queue behind the parked head — ...
    let later = CtbMsg::SealView { view: View(1) };
    assert!(cp.e.on_ctb_deliver(ReplicaId(2), SeqId(2), later).is_empty());
    assert!(cp.e.on_ctb_deliver(ReplicaId(2), SeqId(1), forged.clone()).is_empty());
    assert_eq!(cp.e.fifo_position(ReplicaId(2)), SeqId(1));
    assert_eq!(cp.e.diag().parked_streams, 1);
    assert!(cp.checkpoint_jobs().is_empty(), "one job per parked head");
    // ... and the leader's stream keeps deciding meanwhile.
    let _ = cp.prepare(0);
    assert_eq!(executed_slots(&cp.decide(0)), vec![0]);
    // The verdict brands the broadcaster, once.
    let fx = cp.complete(&jobs[0]);
    assert!(
        matches!(&fx[..], [Effect::ByzantineDetected { replica: ReplicaId(2), .. }]),
        "got {fx:?}"
    );
    assert!(cp.complete(&jobs[0]).is_empty());
    assert!(cp.e.on_ctb_deliver(ReplicaId(2), SeqId(1), forged).is_empty());
    assert_eq!(cp.e.diag().parked_streams, 0);
    assert_eq!(cp.e.diag().checkpoint_base, Slot(0));
}

#[test]
fn lagging_replica_adopts_from_peer_shares() {
    // r1 never reached the boundary; r0 and r2 did and say so.
    let mut cp = Cp::new(1);
    let data = foreign_data(4, 1);
    let mut checks = Vec::new();
    for from in [0, 2] {
        assert!(cp.e.on_tb_deliver(ReplicaId(from), cp.share(from, data, false)).is_empty());
        checks.extend(cp.checkpoint_jobs());
    }
    assert_eq!(checks.len(), 2, "f + 1 peer shares are all it has: both are checked");
    assert!(cp.complete(&checks[0]).is_empty());
    let fx = cp.complete(&checks[1]);
    assert!(
        matches!(fx.first(), Some(Effect::StateTransfer { base: Slot(4), .. })),
        "the state below the base comes by transfer, got {fx:?}"
    );
    assert_eq!(adopted(&fx), vec![4]);
    assert_eq!(cp.e.exec_next(), Slot(4));
}

#[test]
fn lagging_replica_adopts_from_a_peers_checkpoint_via_the_certificate_job() {
    let mut cp = Cp::new(1);
    let data = foreign_data(4, 1);
    // The leader's stream: CHECKPOINT(4), then a PREPARE into the window
    // it opens for us.
    let msg = cp.checkpoint(data, [0, 2], false);
    assert!(cp.leader_sends(msg).is_empty());
    let jobs = cp.checkpoint_jobs();
    assert_eq!(jobs.len(), 1);
    assert!(matches!(jobs[0].work, CryptoWork::VerifyCert { .. }));
    let fx = cp.prepare(8);
    assert!(
        !fx.iter().any(|e| matches!(e, Effect::TbBroadcast(_))),
        "queued behind the parked CHECKPOINT, got {fx:?}"
    );
    assert_eq!(cp.e.fifo_position(ReplicaId(0)), SeqId(1));

    let fx = cp.complete(&jobs[0]);
    assert_eq!(adopted(&fx), vec![4]);
    assert!(fx.iter().any(|e| matches!(e, Effect::StateTransfer { base: Slot(4), .. })));
    assert!(
        fx.iter()
            .any(|e| matches!(e, Effect::TbBroadcast(TbMsg::WillCertify { slot: Slot(8), .. }))),
        "the PREPARE behind it is interpreted against the new window, got {fx:?}"
    );
    assert_eq!(cp.e.fifo_position(ReplicaId(0)), SeqId(3));
    assert!(cp.e.byzantine_peers().next().is_none());
}

#[test]
fn parked_stream_falls_back_to_the_job_when_our_certification_ends_elsewhere() {
    let mut cp = Cp::new(1);
    let (mine, own) = cp.reach_first_boundary();
    let _ = cp.complete(&own);
    // The leader announces a checkpoint over the data we are certifying
    // ourselves: that certification will prove it, no job needed.
    let msg = cp.checkpoint(mine, [0, 2], false);
    assert!(cp.leader_sends(msg).is_empty());
    assert!(cp.checkpoint_jobs().is_empty());
    assert_eq!(cp.e.diag().parked_streams, 1);
    // But f + 1 peers certify *other* data for the same base (more faults
    // than the model allows; the engine must still not wedge): our
    // certification is over, and the proof it promised will never come.
    let other = foreign_data(4, 9);
    let mut checks = Vec::new();
    for from in [0, 2] {
        let _ = cp.e.on_tb_deliver(ReplicaId(from), cp.share(from, other, false));
        checks.extend(cp.checkpoint_jobs());
    }
    assert_eq!(checks.len(), 2);
    let _ = cp.complete(&checks[0]);
    let fx = cp.complete(&checks[1]);
    assert_eq!(adopted(&fx), vec![4]);
    let jobs = cp.checkpoint_jobs();
    assert_eq!(jobs.len(), 1, "the parked CHECKPOINT falls back to its certificate");
    assert_eq!(jobs[0].tag, CryptoTag::CheckpointCert { stream: ReplicaId(0), k: SeqId(5) });
    assert_eq!(cp.e.diag().parked_streams, 1);
    // The job releases the stream.
    let _ = cp.complete(&jobs[0]);
    assert_eq!(cp.e.diag().parked_streams, 0);
    assert_eq!(cp.e.fifo_position(ReplicaId(0)), SeqId(6));
    assert!(cp.e.byzantine_peers().next().is_none());
}

#[test]
fn our_own_certification_releases_a_stream_parked_on_the_same_data() {
    let mut cp = Cp::new(1);
    let (data, own) = cp.reach_first_boundary();
    // The leader's CHECKPOINT overtakes even our own signature.
    let msg = cp.checkpoint(data, [0, 2], false);
    assert!(cp.leader_sends(msg).is_empty());
    let _ = cp.prepare(4);
    assert_eq!(cp.e.fifo_position(ReplicaId(0)), SeqId(5));
    assert!(cp.checkpoint_jobs().is_empty(), "proven by the certification under way");
    let _ = cp.complete(&own);
    // r2's share arrives and is the one verification this checkpoint costs.
    let _ = cp.e.on_tb_deliver(ReplicaId(2), cp.share(2, data, false));
    let check = cp.checkpoint_jobs();
    assert_eq!(check.len(), 1);
    let fx = cp.complete(&check[0]);
    assert_eq!(adopted(&fx), vec![4]);
    assert_eq!(cp.e.diag().parked_streams, 0);
    assert_eq!(cp.e.fifo_position(ReplicaId(0)), SeqId(cp.k));
    assert!(cp.checkpoint_jobs().is_empty());
    assert_eq!(cp.e.take_crypto_ops(), CryptoOps::default());
}

#[test]
fn checkpoints_reclaim_request_bookkeeping() {
    // Five windows of requests: what is kept per request (payloads seen,
    // echoes counted, ids proposed) is dropped once executed and stays
    // within two windows of batches instead of growing with the run.
    let params = ClusterParams::paper_default().with_window(16);
    let mut net = Net::new(EngineConfig::new(params, PathMode::FastOnly));
    let bound = 2 * 16;
    for i in 0..80u64 {
        net.client_request(i, &i.to_le_bytes());
        for r in 0..3 {
            let held = net.engines[r].diag().request_entries;
            assert!(held < bound, "replica {r} tracks {held} requests after {i}");
        }
    }
    assert_eq!(net.engines[0].diag().checkpoint_base, Slot(80));
    // A retransmission of a long-executed request is not ordered again
    // (the driver answers it from its reply cache).
    let prepares = net.ctb_log.len();
    net.client_request(3, &3u64.to_le_bytes());
    assert_eq!(net.ctb_log.len(), prepares);
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 80, "replica {r}");
        assert_eq!(net.engines[r].diag().request_entries, 0, "replica {r}");
    }
}

// ----------------------------------------------------------------------
// The seal checkpoint: a sealer discharges its promises on executed slots
// with one certified snapshot at `exec_next`
// ----------------------------------------------------------------------

impl Cp {
    /// Slots `0..n` are proposed and decided on the fast path: we promised
    /// each of them. A request nobody proposed keeps the watchdog armed.
    fn promise_and_execute(&mut self, n: u64) {
        for slot in 0..n {
            let _ = self.prepare(slot);
            let _ = self.decide(slot);
        }
        let _ = self.e.on_client_request(Cp::request(99));
    }

    /// The watchdog fires twice — the first firing finds progress since it
    /// was armed and only re-arms — and the second one starts the seal.
    fn seal(&mut self) -> Vec<Effect> {
        let _ = self.e.on_timer(TimerKind::Progress);
        let fx = self.e.on_timer(TimerKind::Progress);
        assert_eq!(self.e.diag().sealing, Some(View(1)), "{fx:?}");
        fx
    }

    /// The state a correct replica snapshots at `base` after executing the
    /// requests of slots `0..base`, as [`Cp::snapshot`] answers for us.
    fn state_at(base: u64) -> CheckpointData {
        CheckpointData {
            base: Slot(base),
            app_digest: ubft_crypto::sha256(&base.to_le_bytes()),
            exec_digest: exec_table_digest(&[(ClientId(1), base)]),
        }
    }

    /// A COMMIT for the leader's proposal of `slot`, certified by `signers`.
    fn commit(&self, slot: u64, signers: [u32; 2]) -> CtbMsg {
        let prepare =
            Prepare { view: View(0), slot: Slot(slot), batch: Batch::single(Cp::request(slot)) };
        let mut cert = Certificate::new();
        for r in signers {
            let id = ProcessId::Replica(ReplicaId(r));
            cert.add(id, self.lone.ring.signer(id).unwrap().sign(&prepare.certify_bytes()));
        }
        CtbMsg::Commit(ubft_core::msg::CommitCert { prepare, cert })
    }
}

fn seals(fx: &[Effect]) -> Vec<&CtbMsg> {
    let own =
        fx.iter().filter_map(|e| if let Effect::CtbBroadcast(m) = e { Some(m) } else { None });
    own.filter(|m| matches!(m, CtbMsg::Checkpoint(_) | CtbMsg::SealView { .. })).collect()
}

#[test]
fn a_seal_discharges_promises_on_executed_slots_with_one_checkpoint() {
    let mut cp = Cp::new(1);
    cp.promise_and_execute(2);
    // Both promised slots executed: the seal asks for a snapshot where
    // execution stands, and runs no slow path for either of them.
    let fx = cp.seal();
    assert!(fx.contains(&RequestSnapshot { base: Slot(2) }), "{fx:?}");
    assert_eq!(certifies(&fx), 0, "{fx:?}");
    assert!(seals(&fx).is_empty(), "sealed with its promises undischarged: {fx:?}");
    // The snapshot is certified the usual way: our share is a sign job,
    // r2's — the same state — one check.
    let (data, _) = cp.snapshot(2);
    assert_eq!(data, Cp::state_at(2));
    let mut jobs = cp.checkpoint_jobs();
    let _ = cp.e.on_tb_deliver(ReplicaId(2), cp.share(2, data, false));
    jobs.extend(cp.checkpoint_jobs());
    assert_eq!(jobs.len(), 2, "{jobs:?}");
    let fx: Vec<Effect> = jobs.iter().flat_map(|job| cp.complete(job)).collect();
    assert_eq!(adopted(&fx), vec![2]);
    // The promises lie below the stable base now and block nothing: the
    // CHECKPOINT leaves on our stream, then the SEAL.
    let announced = seals(&fx);
    assert!(
        matches!(&announced[..], [CtbMsg::Checkpoint(c), CtbMsg::SealView { view: View(1) }] if c.data == data),
        "{fx:?}"
    );
    assert_eq!(cp.e.view(), View(1));
    assert_eq!(cp.e.take_crypto_ops(), CryptoOps::default(), "no inline crypto");
}

#[test]
fn a_sealer_behind_a_peers_seal_base_snapshots_at_it() {
    let mut cp = Cp::new(1);
    cp.promise_and_execute(2);
    // Everybody promises slot 2; r0's WILL_COMMIT reaches r2 and not us.
    let _ = cp.prepare(2);
    for r in 0..3 {
        let _ =
            cp.e.on_tb_deliver(ReplicaId(r), TbMsg::WillCertify { view: View(0), slot: Slot(2) });
    }
    for r in [1, 2] {
        let _ =
            cp.e.on_tb_deliver(ReplicaId(r), TbMsg::WillCommit { view: View(0), slot: Slot(2) });
    }
    // Slots 0 and 1 go into the snapshot at 2, the promise on slot 2 — not
    // executed — takes the slow path.
    let fx = cp.seal();
    assert!(fx.contains(&RequestSnapshot { base: Slot(2) }), "{fx:?}");
    let own = queued_jobs(&mut cp.e);
    let tag = CryptoTag::SlotShare { slot: Slot(2), view: View(0) };
    assert!(matches!(&own[..], [job] if job.tag == tag), "{own:?}");
    assert_eq!(certifies(&cp.complete(&own[0])), 1);
    let _ = cp.snapshot(2);
    let mut jobs = cp.checkpoint_jobs();
    // r2 decided slot 2 and sealed on a snapshot at 3: that is where we
    // pause next, though our own cadence would run on to 4.
    let theirs = Cp::state_at(3);
    let _ = cp.e.on_tb_deliver(ReplicaId(2), cp.share(2, theirs, false));
    jobs.extend(cp.checkpoint_jobs());
    // A share at a base nobody reached — any replica can sign anything —
    // adds a pause there, and does not move the one at 3 past it.
    let _ = cp.e.on_tb_deliver(ReplicaId(0), cp.share(0, Cp::state_at(5), false));
    jobs.extend(cp.checkpoint_jobs());
    assert_eq!(jobs.len(), 3, "{jobs:?}");
    let mut fx = cp.leader_sends(cp.commit(2, [0, 2]));
    fx.extend(cp.e.on_ctb_deliver(ReplicaId(2), SeqId(1), cp.commit(2, [0, 2])));
    assert_eq!(executed_slots(&fx), vec![2]);
    assert_eq!(fx.last(), Some(&RequestSnapshot { base: Slot(3) }));
    let (ours, _) = cp.snapshot(3);
    assert_eq!(ours, theirs);
    jobs.extend(cp.checkpoint_jobs());
    let fx: Vec<Effect> = jobs.iter().flat_map(|job| cp.complete(job)).collect();
    assert_eq!(adopted(&fx), vec![3]);
    assert_eq!(cp.e.view(), View(1), "{fx:?}");
}

#[test]
fn a_leader_crash_seals_on_one_checkpoint_and_the_cadence_stays_on_the_window() {
    let params = ClusterParams::paper_default().with_window(16);
    let mut net = Net::new(EngineConfig::new(params, PathMode::FastWithFallback));
    for i in 0..5u64 {
        net.client_request(i, &i.to_le_bytes());
    }
    net.crashed[0] = true;
    net.client_request(5, b"stalled");
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    // Both survivors sealed on the checkpoint at 5: no promised slot took
    // the slow path, and the new leader carried it into view 1.
    for r in 1..3 {
        assert_eq!(net.engines[r].view(), View(1), "replica {r}");
        assert_eq!(net.engines[r].diag().checkpoint_base, Slot(5), "replica {r}");
    }
    assert!(!net.ctb_log.iter().any(|(_, m)| matches!(m, CtbMsg::Commit(_))), "a slow path ran");
    // The next snapshot is due at 16, not at 5 + 16.
    for i in 5..20u64 {
        decide_degraded(&mut net, i, &i.to_le_bytes());
    }
    for r in 1..3 {
        assert_eq!(net.executed[r].len(), 20, "replica {r}");
        assert_eq!(net.snapshots[r].as_ref().map(|s| s.0), Some(Slot(16)), "replica {r}");
    }
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
    net.assert_executed_prefix_agreement();
}

#[test]
fn a_seal_share_counts_only_while_sealing_and_only_where_ours_can_join_it() {
    let mut cp = Cp::new(1);
    cp.promise_and_execute(2);
    // Not sealing: a share off the window cadence costs neither an entry
    // nor a verification, wherever it lies.
    for base in [1, 2, 3, 5] {
        let share = cp.share(2, Cp::state_at(base), false);
        assert!(cp.e.on_tb_deliver(ReplicaId(2), share).is_empty());
    }
    assert!(cp.checkpoint_jobs().is_empty());
    assert_eq!(cp.e.diag().checkpoint_shares, 0);
    // Sealing: below our `exec_next` and not where we snapshotted, still
    // nothing; at our snapshot, one entry and one check.
    let _ = cp.seal();
    let _ = cp.snapshot(2);
    let own = cp.checkpoint_jobs();
    let _ = cp.e.on_tb_deliver(ReplicaId(0), cp.share(0, Cp::state_at(1), false));
    assert!(cp.checkpoint_jobs().is_empty());
    assert_eq!(cp.e.diag().checkpoint_shares, 1, "our own share at 2");
    let _ = cp.e.on_tb_deliver(ReplicaId(0), cp.share(0, Cp::state_at(2), false));
    assert_eq!(cp.checkpoint_jobs().len(), 1);
    assert_eq!(cp.e.diag().checkpoint_shares, 2);
    assert_eq!(own.len(), 1);
    assert_eq!(cp.e.take_crypto_ops(), CryptoOps::default());
}

// ----------------------------------------------------------------------
// Slot certification: CERTIFY shares are parked and checked by crypto jobs
// ----------------------------------------------------------------------

/// Follower r1 driven by hand: the test plays leader r0, follower r2, the
/// clients and the crypto worker. `t = 128` keeps summaries out.
struct Certify {
    ring: KeyRing,
    e: Engine,
    /// The sign jobs of our own shares, queued and not completed yet.
    own: Vec<CryptoJob>,
}

impl Certify {
    fn new(path: PathMode) -> Self {
        Self::replica(1, path)
    }

    /// Replica `me` driven by hand; the test plays everybody else.
    fn replica(me: u32, path: PathMode) -> Self {
        let mut cfg = EngineConfig::new(ClusterParams::paper_default(), path);
        cfg.echo_round = false;
        let ring = KeyRing::generate(5, (0..3).map(|i| ProcessId::Replica(ReplicaId(i))));
        let mut e = Engine::new(ReplicaId(me), cfg, ring.clone());
        let _ = e.start();
        Certify { ring, e, own: Vec::new() }
    }

    fn request(seq: u64) -> Request {
        Request { id: RequestId::new(ClientId(1), seq), payload: vec![seq as u8] }
    }

    /// The leader's view-0 proposal of request `seq` for `slot`.
    fn prepare(slot: u64, seq: u64) -> Prepare {
        Prepare { view: View(0), slot: Slot(slot), batch: Batch::single(Self::request(seq)) }
    }

    /// `from`'s CERTIFY share over `prepare`; a forged one carries a
    /// signature that never verifies.
    fn share(&self, from: u32, prepare: &Prepare, forged: bool) -> TbMsg {
        let signer = self.ring.signer(ProcessId::Replica(ReplicaId(from))).unwrap();
        let sig = if forged { Signature::garbage() } else { signer.sign(&prepare.certify_bytes()) };
        TbMsg::Certify { prepare: prepare.clone(), sig }
    }

    /// The client's request reaches us, then the leader's PREPARE for it —
    /// its `slot + 1`-th CTBcast message — finishes CTBcast here.
    fn deliver_prepare(&mut self, slot: u64) -> Vec<Effect> {
        let _ = self.e.on_client_request(Self::request(slot));
        let msg = CtbMsg::Prepare(Self::prepare(slot, slot));
        self.e.on_ctb_deliver(ReplicaId(0), SeqId(slot + 1), msg)
    }

    /// The share checks queued since the last call; the sign jobs of our
    /// own shares are set aside in `own`.
    fn checks(&mut self) -> Vec<CryptoJob> {
        let (own, checks): (Vec<_>, Vec<_>) = queued_jobs(&mut self.e)
            .into_iter()
            .partition(|j| matches!(j.tag, CryptoTag::SlotShare { .. }));
        assert!(own.iter().all(|j| matches!(j.work, CryptoWork::Sign { .. })), "{own:?}");
        self.own.extend(own);
        assert!(
            checks
                .iter()
                .all(|j| matches!(j.tag, CryptoTag::ShareCheck { of: ShareOf::Slot { .. }, .. })
                    && matches!(j.work, CryptoWork::Verify { .. })),
            "{checks:?}"
        );
        checks
    }

    /// Completes the one sign job of our own share that is queued or set
    /// aside: a slot's share costs one `SlotShare` job and no inline crypto.
    fn sign_own(&mut self) -> Vec<Effect> {
        assert!(self.checks().is_empty(), "a share check was left uncollected");
        assert_eq!(self.own.len(), 1, "{:?}", self.own);
        let job = self.own.remove(0);
        self.complete(&job)
    }

    fn complete(&mut self, job: &CryptoJob) -> Vec<Effect> {
        let signer = self.ring.signer(ProcessId::Replica(self.e.id())).unwrap();
        self.e.on_crypto_done(job.tag, job.run(&signer, &self.ring))
    }

    /// Decides `slot` on the signature-less fast path.
    fn decide_fast(&mut self, slot: u64) {
        let _ = self.deliver_prepare(slot);
        let mut executed = 0;
        for msg in [
            TbMsg::WillCertify { view: View(0), slot: Slot(slot) },
            TbMsg::WillCommit { view: View(0), slot: Slot(slot) },
        ] {
            for from in 0..3 {
                let fx = self.e.on_tb_deliver(ReplicaId(from), msg.clone());
                executed += fx.iter().filter(|e| matches!(e, Effect::Execute { .. })).count();
            }
        }
        assert_eq!(executed, 1, "slot {slot} decides on unanimous WILL_COMMITs");
    }
}

/// The CERTIFY shares `fx` broadcasts.
fn certifies(fx: &[Effect]) -> usize {
    fx.iter().filter(|e| matches!(e, Effect::TbBroadcast(TbMsg::Certify { .. }))).count()
}

/// The signers of the COMMITs `fx` broadcasts, each checked against the
/// proposal it certifies.
fn commit_signers(c: &Certify, fx: &[Effect]) -> Vec<Vec<ProcessId>> {
    let commits = fx.iter().filter_map(|e| match e {
        Effect::CtbBroadcast(CtbMsg::Commit(commit)) => Some(commit),
        _ => None,
    });
    commits
        .map(|commit| {
            assert!(commit.cert.verify(&c.ring, &commit.prepare.certify_bytes(), 2), "{commit:?}");
            commit.cert.signers().collect()
        })
        .collect()
}

fn replicas(ids: &[u32]) -> Vec<ProcessId> {
    ids.iter().map(|r| ProcessId::Replica(ReplicaId(*r))).collect()
}

#[test]
fn a_share_that_arrives_before_its_prepare_counts_once_the_prepare_is_accepted() {
    // The leader delivers its own PREPARE a verification ahead of every
    // follower, so its share is here before ours can be signed. It used to
    // be dropped; now it is checked while the PREPARE is still in CTBcast.
    for verdict_first in [true, false] {
        let mut c = Certify::new(PathMode::SlowOnly);
        let p = Certify::prepare(0, 0);
        assert!(c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, false)).is_empty());
        let checks = c.checks();
        assert_eq!(checks.len(), 1);
        let of = ShareOf::Slot { slot: Slot(0), view: View(0) };
        let tag = CryptoTag::ShareCheck { of, from: ReplicaId(0) };
        assert_eq!(checks[0].tag, tag);
        // Our own share over the same proposal is signed meanwhile; it waits
        // for the PREPARE too.
        assert!(c.sign_own().is_empty());
        if verdict_first {
            // Nothing to commit yet; the share waits for its PREPARE.
            assert!(c.complete(&checks[0]).is_empty());
        }
        // Accepting the PREPARE sends our share — and with the verdict in,
        // own + early make f + 1: the COMMIT leaves in the accepting call.
        let fx = c.deliver_prepare(0);
        assert_eq!(certifies(&fx), 1);
        let fx = if verdict_first {
            fx
        } else {
            assert!(commit_signers(&c, &fx).is_empty(), "the early share is not verified yet");
            c.complete(&checks[0])
        };
        assert_eq!(commit_signers(&c, &fx), vec![replicas(&[0, 1])]);
        assert_eq!(
            c.e.take_crypto_ops(),
            CryptoOps::default(),
            "shares are signed and verified by the crypto worker, not on the engine's thread"
        );
        assert!(c.checks().is_empty() && c.own.is_empty());
    }
}

#[test]
fn a_forged_early_share_never_counts_and_buys_its_signer_nothing_more() {
    let mut c = Certify::new(PathMode::SlowOnly);
    let p = Certify::prepare(0, 0);
    let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, true));
    let forged = c.checks();
    assert_eq!(forged.len(), 1);
    assert!(c.complete(&forged[0]).is_empty());
    // r0 has had its one share of this slot and view: an honest one does
    // not get a second verification, before the PREPARE or after it.
    let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, false));
    assert!(c.checks().is_empty());
    assert!(c.sign_own().is_empty());
    let fx = c.deliver_prepare(0);
    assert_eq!((certifies(&fx), commit_signers(&c, &fx).len()), (1, 0));
    let fx = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, false));
    assert!(fx.is_empty() && c.checks().is_empty());
    // r2's share completes the certificate without it.
    assert!(c.e.on_tb_deliver(ReplicaId(2), c.share(2, &p, false)).is_empty());
    let honest = c.checks();
    assert_eq!(honest.len(), 1);
    let fx = c.complete(&honest[0]);
    assert_eq!(commit_signers(&c, &fx), vec![replicas(&[1, 2])]);
}

#[test]
fn three_honest_shares_cost_one_verification_per_slot() {
    // Own + one peer's make f + 1: whichever peer's share comes second is
    // parked, whether the first came before the PREPARE or after it.
    for (slot, leader_is_early) in [(0, true), (1, false)] {
        let mut c = Certify::new(PathMode::SlowOnly);
        if slot == 1 {
            let _ = c.deliver_prepare(0);
            let _ = c.sign_own();
        }
        let p = Certify::prepare(slot, slot);
        // Collected after every input, as a driver does.
        let mut checks = Vec::new();
        if leader_is_early {
            let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, false));
            checks.extend(c.checks());
            assert!(c.sign_own().is_empty());
        }
        let mut fx = c.deliver_prepare(slot);
        if !leader_is_early {
            fx = c.sign_own();
        }
        assert_eq!(certifies(&fx), 1);
        // r0's share if it is not here yet, r2's, and our own, which comes
        // back to us as every TBcast does.
        for from in [0, 2, 1].into_iter().skip(usize::from(leader_is_early)) {
            let _ = c.e.on_tb_deliver(ReplicaId(from), c.share(from, &p, false));
            checks.extend(c.checks());
        }
        assert_eq!(checks.len(), 1, "slot {slot}: {checks:?}");
        let fx = c.complete(&checks[0]);
        assert_eq!(commit_signers(&c, &fx), vec![replicas(&[0, 1])]);
        assert_eq!(c.e.take_crypto_ops().verifies, 0);
        assert!(c.checks().is_empty());
    }
}

#[test]
fn a_verdict_that_arrives_after_a_view_change_is_a_noop() {
    for view_changes in [false, true] {
        let mut c = Certify::new(PathMode::SlowOnly);
        let p = Certify::prepare(0, 0);
        let _ = c.deliver_prepare(0);
        let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, false));
        let checks = c.checks();
        assert_eq!(checks.len(), 1);
        if view_changes {
            // The slot is undecided when the watchdog fires: view 1.
            let fx = c.e.on_timer(TimerKind::Progress);
            assert!(fx.contains(&Effect::ViewChanged { view: View(1) }), "{fx:?}");
        }
        // In its view the verdict completes the certificate; a view later
        // the slot has started over and there is nothing it could complete.
        let fx = c.complete(&checks[0]);
        assert_eq!(commit_signers(&c, &fx).len(), usize::from(!view_changes), "{fx:?}");
        assert!(!view_changes || fx.is_empty());
        assert!(c.checks().is_empty());
    }
}

#[test]
fn a_share_over_another_proposal_is_dropped_at_acceptance() {
    let mut c = Certify::new(PathMode::SlowOnly);
    let (p, other) = (Certify::prepare(0, 0), Certify::prepare(0, 7));
    // r2 certifies — validly — something the leader never proposed to us.
    let _ = c.e.on_tb_deliver(ReplicaId(2), c.share(2, &other, false));
    let check = c.checks();
    assert_eq!(check.len(), 1);
    assert!(c.complete(&check[0]).is_empty());
    // Our own share and r2's verified one are two, but not over one thing.
    let mut fx = c.deliver_prepare(0);
    fx.extend(c.sign_own());
    assert_eq!((certifies(&fx), commit_signers(&c, &fx).len()), (1, 0));
    // r2 has had its share of this slot and view.
    let fx = c.e.on_tb_deliver(ReplicaId(2), c.share(2, &p, false));
    assert!(fx.is_empty() && c.checks().is_empty());
    // After acceptance a share over anything else is not even held.
    let fx = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &other, false));
    assert!(fx.is_empty() && c.checks().is_empty());
    let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, false));
    let check = c.checks();
    assert_eq!(check.len(), 1);
    let fx = c.complete(&check[0]);
    assert_eq!(commit_signers(&c, &fx), vec![replicas(&[0, 1])]);
}

#[test]
fn a_decided_fast_path_slot_still_hands_a_soliciting_peer_our_share() {
    // A fast-path decider holds no certificate and its slow trigger skips
    // decided slots. A peer that missed the decision (its third replica
    // crashed) solicits the slow path; without our share it stays one
    // signature short of f + 1 forever. We join when its share is admitted
    // — not a verification later, and not only if the check succeeds.
    let mut c = Certify::new(PathMode::FastWithFallback);
    c.decide_fast(0);
    let p = Certify::prepare(0, 0);
    let _ = c.e.on_tb_deliver(ReplicaId(2), c.share(2, &p, false));
    let check = c.checks();
    assert_eq!(check.len(), 1);
    // Our share's sign job was queued in the admitting call; it leaves
    // when signed.
    assert_eq!(certifies(&c.sign_own()), 1);
    assert_eq!(c.e.take_crypto_ops(), CryptoOps::default());
    // The certificate lets us back the peer's COMMIT with our own.
    let fx = c.complete(&check[0]);
    assert_eq!(commit_signers(&c, &fx), vec![replicas(&[1, 2])]);
    // A share that arrives ahead of a PREPARE recruits too, at acceptance:
    // slot 1 starts its slow path beside the fast one, with no timer armed.
    let p1 = Certify::prepare(1, 1);
    let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p1, false));
    assert_eq!(c.checks().len(), 1);
    assert!(c.sign_own().is_empty());
    let fx = c.deliver_prepare(1);
    assert_eq!(certifies(&fx), 1, "{fx:?}");
    let trigger = Effect::ArmTimer { kind: TimerKind::SlotSlowTrigger(Slot(1)) };
    assert!(!fx.contains(&trigger), "{fx:?}");
}

#[test]
fn a_slow_path_leader_signs_its_share_in_the_call_that_proposes() {
    // The leader knows what it certifies as it proposes: the share is
    // signed beside the PREPARE's own CTBcast signature, and leaves only
    // when its own PREPARE is delivered — a share still means "accepted".
    let mut c = Certify::replica(0, PathMode::SlowOnly);
    let p = Certify::prepare(0, 0);
    let fx = c.e.on_client_request(Certify::request(0));
    assert!(fx.contains(&Effect::CtbBroadcast(CtbMsg::Prepare(p.clone()))), "{fx:?}");
    let jobs = queued_jobs(&mut c.e);
    let tag = CryptoTag::SlotShare { slot: Slot(0), view: View(0) };
    assert_eq!(jobs, vec![CryptoJob { tag, work: CryptoWork::Sign { bytes: p.certify_bytes() } }]);
    assert_eq!(certifies(&c.complete(&jobs[0])), 0, "a share left before its PREPARE");
    let fx = c.e.on_ctb_deliver(ReplicaId(0), SeqId(1), CtbMsg::Prepare(p));
    assert_eq!(certifies(&fx), 1, "{fx:?}");
    assert!(queued_jobs(&mut c.e).is_empty());
}

#[test]
fn a_follower_signs_its_share_ahead_of_the_check_of_the_leaders_early_one() {
    // Both run while the PREPARE is still verified. The COMMIT's CTBcast
    // signature waits for the 17 us own signature, not for the 45 us check,
    // so the signature gets the free worker first and the check the other.
    let mut c = Certify::new(PathMode::SlowOnly);
    let p = Certify::prepare(0, 0);
    assert!(c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, false)).is_empty());
    let jobs = queued_jobs(&mut c.e);
    let tags: Vec<CryptoTag> = jobs.iter().map(|job| job.tag).collect();
    let of = ShareOf::Slot { slot: Slot(0), view: View(0) };
    let own = CryptoTag::SlotShare { slot: Slot(0), view: View(0) };
    assert_eq!(tags, vec![own, CryptoTag::ShareCheck { of, from: ReplicaId(0) }]);
    assert!(c.e.take_ctb_ahead().is_none(), "a COMMIT asked for before our share is signed");
    assert!(c.complete(&jobs[0]).is_empty(), "a share left before its PREPARE");
    assert!(c.e.take_ctb_ahead().is_some(), "the COMMIT is not signed beside the check");
    let fx = c.deliver_prepare(0);
    assert_eq!(certifies(&fx), 1, "{fx:?}");
    let fx = c.complete(&jobs[1]);
    assert_eq!(commit_signers(&c, &fx), vec![replicas(&[0, 1])]);
}

/// The COMMIT `fx` broadcasts, if any.
fn commit_of(fx: &[Effect]) -> Option<CtbMsg> {
    fx.iter().find_map(|e| match e {
        Effect::CtbBroadcast(msg @ CtbMsg::Commit(_)) => Some(msg.clone()),
        _ => None,
    })
}

#[test]
fn a_follower_has_its_commit_signed_ahead_byte_for_byte_at_the_id_it_gets() {
    // Slot 0 puts one COMMIT on our stream, so slot 1's goes out as id 2.
    let mut c = Certify::new(PathMode::SlowOnly);
    let p0 = Certify::prepare(0, 0);
    let _ = c.deliver_prepare(0);
    let _ = c.sign_own();
    let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p0, false));
    let check = c.checks();
    assert!(commit_of(&c.complete(&check[0])).is_some());
    assert_eq!(c.e.diag().ctb_sent, 1);
    let _ = c.e.take_ctb_ahead();
    // The leader's early share over slot 1, then our own signature: the
    // COMMIT they would make is known while both the PREPARE and the
    // leader's share are still being verified.
    let p1 = Certify::prepare(1, 1);
    let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p1, false));
    let check = c.checks();
    assert!(c.e.take_ctb_ahead().is_none(), "asked for before our share was signed");
    assert!(c.sign_own().is_empty());
    let (k, ahead) = c.e.take_ctb_ahead().expect("the COMMIT is signed ahead");
    assert_eq!(k, SeqId(2));
    let fx = c.deliver_prepare(1);
    assert_eq!((certifies(&fx), commit_of(&fx)), (1, None));
    let commit = commit_of(&c.complete(&check[0])).expect("the certificate is complete");
    assert_eq!(commit.to_bytes(), ahead.to_bytes());
    assert_eq!(c.e.diag().ctb_sent, k.0, "the COMMIT went out at another id");
    assert!(c.e.take_ctb_ahead().is_none(), "asked for twice");
}

#[test]
fn a_leader_has_its_commit_signed_ahead_when_it_admits_a_followers_share() {
    let mut c = Certify::replica(0, PathMode::SlowOnly);
    let p = Certify::prepare(0, 0);
    let _ = c.e.on_client_request(Certify::request(0));
    let jobs = queued_jobs(&mut c.e);
    let _ = c.complete(&jobs[0]);
    let fx = c.e.on_ctb_deliver(ReplicaId(0), SeqId(1), CtbMsg::Prepare(p.clone()));
    assert_eq!(certifies(&fx), 1);
    assert!(c.e.take_ctb_ahead().is_none(), "asked for with one share");
    let _ = c.e.on_tb_deliver(ReplicaId(2), c.share(2, &p, false));
    let check = c.checks();
    let (k, ahead) = c.e.take_ctb_ahead().expect("the COMMIT is signed beside the check");
    assert_eq!(k, SeqId(2), "the PREPARE took id 1");
    let commit = commit_of(&c.complete(&check[0])).expect("the certificate is complete");
    assert_eq!(commit.to_bytes(), ahead.to_bytes());
    assert_eq!(c.e.diag().ctb_sent, k.0);
}

#[test]
fn a_forged_early_share_makes_a_commit_other_than_the_one_signed_ahead() {
    let mut c = Certify::new(PathMode::SlowOnly);
    let p = Certify::prepare(0, 0);
    let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &p, true));
    let forged = c.checks();
    assert!(c.sign_own().is_empty());
    // Own + the leader's, being checked: f + 1 — if the check holds.
    let (k, ahead) = c.e.take_ctb_ahead().expect("the COMMIT is signed ahead");
    assert!(c.complete(&forged[0]).is_empty());
    let _ = c.deliver_prepare(0);
    let _ = c.e.on_tb_deliver(ReplicaId(2), c.share(2, &p, false));
    let honest = c.checks();
    let fx = c.complete(&honest[0]);
    assert_eq!(commit_signers(&c, &fx), vec![replicas(&[1, 2])]);
    let commit = commit_of(&fx).expect("released");
    assert_eq!(c.e.diag().ctb_sent, k.0, "the same id");
    assert_ne!(commit.to_bytes(), ahead.to_bytes(), "the early COMMIT carries a forged share");
    assert!(c.e.take_ctb_ahead().is_none(), "once per slot per view");
}

#[test]
fn the_fast_path_asks_for_no_commit_ahead() {
    let paths = [PathMode::FastOnly, PathMode::FastWithFallback, PathMode::SlowOnly];
    for path in paths {
        let mut net = new_net(path);
        for i in 0..5u64 {
            net.client_request(i, &i.to_le_bytes());
        }
        // The harness never collects the request, so the last one is left.
        let asked = (0..3).filter(|r| net.engines[*r].take_ctb_ahead().is_some()).count();
        assert_eq!(asked > 0, path == PathMode::SlowOnly, "{path:?}: {asked}");
        for r in 0..3 {
            assert_eq!(net.executed[r].len(), 5, "{path:?}: replica {r}");
        }
    }
}

#[test]
fn a_share_signed_over_the_leaders_early_proposal_never_leaves_for_another() {
    // The leader's early share is over X, but CTBcast delivers Y (an
    // equivocating leader): our signature over X must not leave as our
    // share, whichever comes first — the signature or the PREPARE.
    for x_signed_first in [true, false] {
        let mut c = Certify::new(PathMode::SlowOnly);
        let (x, y) = (Certify::prepare(0, 7), Certify::prepare(0, 0));
        let _ = c.e.on_tb_deliver(ReplicaId(0), c.share(0, &x, false));
        let leaders = c.checks();
        let over_x = c.own.remove(0);
        assert_eq!(over_x.work, CryptoWork::Sign { bytes: x.certify_bytes() });
        let mut fx = Vec::new();
        if x_signed_first {
            fx.extend(c.complete(&over_x));
        }
        fx.extend(c.deliver_prepare(0));
        if !x_signed_first {
            // One sign job per slot at a time: Y's waits for X's.
            assert!(c.checks().is_empty() && c.own.is_empty(), "{:?}", c.own);
            fx.extend(c.complete(&over_x));
        }
        assert_eq!(certifies(&fx), 0, "the signature over X left: {fx:?}");
        assert!(c.checks().is_empty());
        assert_eq!(c.own[0].work, CryptoWork::Sign { bytes: y.certify_bytes() });
        let fx = c.sign_own();
        let me = ProcessId::Replica(ReplicaId(1));
        assert!(
            matches!(&fx[..], [Effect::TbBroadcast(TbMsg::Certify { prepare, sig })]
                if *prepare == y && c.ring.verify(me, &y.certify_bytes(), sig)),
            "{fx:?}"
        );
        let _ = c.e.on_tb_deliver(ReplicaId(2), c.share(2, &y, false));
        let check = c.checks();
        assert_eq!(check.len(), 1);
        let fx = c.complete(&check[0]);
        assert_eq!(commit_signers(&c, &fx), vec![replicas(&[1, 2])]);
        assert!(
            matches!(&fx[..], [Effect::CtbBroadcast(CtbMsg::Commit(commit))] if commit.prepare == y)
        );
        // The leader's share over X counts for nothing, verified or not.
        assert!(c.complete(&leaders[0]).is_empty());
    }
}

#[test]
fn a_share_signed_in_a_view_that_ended_never_leaves_nor_blocks_the_next_view() {
    let mut net = new_net(PathMode::SlowOnly);
    net.client_request(0, b"decided");
    // No worker gets to the CERTIFY shares of the next slot: it stays
    // undecided, and the watchdog moves everybody to view 1.
    net.park = Some(|job| matches!(job.tag, CryptoTag::SlotShare { .. }));
    net.client_request(1, b"stalled");
    let ended = std::mem::take(&mut net.parked);
    assert_eq!(ended.len(), 3, "{ended:?}");
    progress_until_view(&mut net, View(1));
    // The request is proposed again in view 1, and signed again.
    let next = std::mem::take(&mut net.parked);
    let in_view_1 = |(_, job): &(usize, CryptoJob)| {
        matches!(job.tag, CryptoTag::SlotShare { view: View(1), .. })
    };
    assert!(!next.is_empty() && next.iter().all(in_view_1), "{next:?}");
    // View 0's signatures come back now, beside view 1's jobs: no-ops.
    for (who, job) in &ended {
        let signer = net.ring.signer(ProcessId::Replica(ReplicaId(*who as u32))).unwrap();
        let fx = net.engines[*who].on_crypto_done(job.tag, job.run(&signer, &net.ring));
        assert!(fx.is_empty(), "replica {who}: {fx:?}");
        assert!(queued_jobs(&mut net.engines[*who]).is_empty(), "replica {who}");
    }
    net.park = None;
    for (who, job) in next {
        net.complete(who, &job);
    }
    net.run();
    // The slot decided in view 0 kept its state across the view change:
    // executed once, where it was.
    for r in 0..3 {
        let log: Vec<&[u8]> = net.executed[r].iter().map(|(_, req)| &req.payload[..]).collect();
        assert_eq!(log, [&b"decided"[..], b"stalled"], "replica {r}");
        assert_eq!(net.executed[r][0].0, Slot(0), "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

#[test]
fn the_fast_path_signs_no_certify_share() {
    for path in [PathMode::FastOnly, PathMode::FastWithFallback] {
        let mut net = new_net(path);
        net.park = Some(|job| matches!(job.tag, CryptoTag::SlotShare { .. }));
        for i in 0..5u64 {
            net.client_request(i, &i.to_le_bytes());
        }
        assert!(net.parked.is_empty(), "{path:?}: {:?}", net.parked);
        for r in 0..3 {
            assert_eq!(net.executed[r].len(), 5, "{path:?}: replica {r}");
        }
    }
}

// ---- The view change and the held PREPARE -------------------------------

/// Requests reach only the replicas in `to`; `Net::client_request` reaches
/// every live one.
fn request_to(net: &mut Net, to: &[usize], seq: u64, payload: &[u8]) {
    let req = Request { id: RequestId::new(ClientId(1), seq), payload: payload.to_vec() };
    for &r in to {
        let fx = net.engines[r].on_client_request(req.clone());
        net.emit(r, fx);
    }
    net.run();
}

/// Fires the progress watchdog of every live replica until one of them
/// changes view (the first firing after progress only re-arms).
fn progress_until_view(net: &mut Net, view: View) {
    for _ in 0..3 {
        if net.live_replicas().all(|r| net.engines[r].view() >= view) {
            return;
        }
        net.fire_timers(|k| matches!(k, TimerKind::Progress));
    }
    let views: Vec<View> = net.engines.iter().map(Engine::view).collect();
    panic!("no view change to {view:?}: {views:?}");
}

/// Fires the progress watchdog of replica `r` alone.
fn fire_progress(net: &mut Net, r: usize) {
    net.timers[r].retain(|k| *k != TimerKind::Progress);
    let fx = net.engines[r].on_timer(TimerKind::Progress);
    net.emit(r, fx);
    net.run();
}

#[test]
fn view_change_share_flood_buys_one_verification_per_subject() {
    let mut net = new_net(PathMode::FastWithFallback);
    let byz = net.ring.signer(ProcessId::Replica(ReplicaId(2))).unwrap();
    // r2 sends r1, the leader of view 1, validly signed CRTFY_VC shares over
    // 50 different made-up states of each replica.
    let flood = |view: View, about: ReplicaId, i: u64| {
        let cp = CheckpointCert { data: foreign_data(4 * i, i as u8), cert: Certificate::new() };
        let summary = StateSummary { checkpoint: Some(cp), commits: Vec::new() };
        let sig = byz.sign(&vc_sign_bytes(view, about, &summary.digest()));
        DirectMsg::CertifyVc { view, about, summary, sig }
    };
    net.engines[1].take_crypto_ops();
    for about in (0..3).map(ReplicaId) {
        for i in 0..50 {
            assert!(net.engines[1].on_direct(ReplicaId(2), flood(View(1), about, i)).is_empty());
        }
        // The first share takes r2's place for this subject and is verified;
        // the other 49 are refused before any crypto.
        let ops = net.engines[1].take_crypto_ops();
        assert_eq!(ops, CryptoOps { signs: 0, verifies: 1 }, "shares about {about:?}");
    }

    // r0 and r1 are honest and enough: a request r0 missed stalls, r1 and r2
    // seal view 1, and r1 assembles NEW_VIEW from r0's shares and its own —
    // r2 has spent its one share per subject on the flood.
    net.crashed[0] = true; // partitioned away while the request arrives
    net.client_request(0, b"stalled");
    net.crashed[0] = false;
    progress_until_view(&mut net, View(1));
    let new_views = |net: &Net, stream: usize, v: View| {
        let of_stream = net.ctb_log.iter().filter(|(s, _)| *s == stream);
        of_stream.filter(|(_, m)| matches!(m, CtbMsg::NewView { view, .. } if *view == v)).count()
    };
    assert_eq!(new_views(&net, 1, View(1)), 1, "r1 announces view 1");
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    for r in 0..3 {
        assert_eq!(net.engines[r].view(), View(1), "replica {r}");
        assert_eq!(net.executed[r].len(), 1, "replica {r}");
    }
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);

    // On to view 2 the same way, this time leaving r1 out. Shares for view
    // 1, which r1 led, are below its view now: dropped, and nothing paid.
    net.crashed[1] = true;
    net.client_request(1, b"stalled again");
    net.crashed[1] = false;
    progress_until_view(&mut net, View(2));
    assert_eq!(new_views(&net, 2, View(2)), 1, "r2 announces view 2");
    net.engines[1].take_crypto_ops();
    assert!(net.engines[1].on_direct(ReplicaId(2), flood(View(1), ReplicaId(0), 99)).is_empty());
    assert!(net.engines[1].take_crypto_ops().is_zero());
}

#[test]
fn a_held_prepare_does_not_outlive_its_view() {
    let mut net = new_net(PathMode::FastWithFallback);
    // X reaches r0 and r1 only; the echo round times out and r0 proposes it
    // anyway. r2 has not seen X and holds PREPARE(view 0, slot 0) (§5.4).
    request_to(&mut net, &[0, 1], 0, b"X");
    fire_echo_fallback(&mut net);
    assert!(matches!(net.ctb_log.last(), Some((0, CtbMsg::Prepare(p))) if p.slot == Slot(0)));
    // r0 crashes, Y reaches the survivors, and r2 — alone so far — times out
    // and seals view 1.
    net.crashed[0] = true;
    net.client_request(1, b"Y");
    fire_progress(&mut net, 2);
    assert_eq!((net.engines[1].view(), net.engines[2].view()), (View(0), View(1)));

    // X's retransmission reaches r2 in view 1: the proposal it held belongs
    // to a view that is over and must stay where it is.
    let x = Request { id: RequestId::new(ClientId(1), 0), payload: b"X".to_vec() };
    let fx = net.engines[2].on_client_request(x);
    let stale = |e: &Effect| matches!(e, Effect::TbBroadcast(TbMsg::WillCertify { view, .. }) if *view == View(0));
    assert!(!fx.iter().any(stale), "view-0 proposal released in view 1: {fx:?}");
    net.emit(2, fx);
    net.run();

    // r1 times out too and leads view 1: slot 0 is free at r2 for its
    // PREPARE, and both requests execute without another view change.
    fire_progress(&mut net, 1);
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    for r in 1..3 {
        assert_eq!(net.engines[r].view(), View(1), "replica {r}");
        let payloads: Vec<&[u8]> = net.executed[r].iter().map(|(_, q)| &q.payload[..]).collect();
        assert_eq!(payloads, [b"X", b"Y"], "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

// ---- One endorsement rule for every view ---------------------------------

/// Executed requests of clients `from..` at replica `r`.
fn executed_from(net: &Net, r: usize, from: u32) -> usize {
    net.executed[r].iter().filter(|(_, q)| !q.is_noop() && q.id.client.0 >= from).count()
}

#[test]
fn a_leader_in_a_later_view_gets_no_request_executed_that_no_follower_holds() {
    // Requests are unsigned (§5.4): a leader could name any it likes. View 1
    // after r0 crashed, led by r1.
    let mut net = new_net(PathMode::FastWithFallback);
    net.client_request(0, b"first");
    net.crashed[0] = true;
    net.client_request(1, b"second");
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::Progress));
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    assert_eq!(net.engines[2].view(), View(1));
    assert_eq!(net.executed[2].len(), 2);
    // 50 requests that r1 alone is handed, each with fresh client ids, and
    // every timer that could carry them fired after each.
    for client in 100..150 {
        let req = Request { id: RequestId::new(ClientId(client), 0), payload: vec![client as u8] };
        let fx = net.engines[1].on_client_request(req);
        net.emit(1, fx);
        net.run();
        fire_echo_fallback(&mut net);
        net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    }
    for r in 1..3 {
        assert_eq!(executed_from(&net, r, 100), 0, "replica {r} executed fabricated requests");
    }
    assert!(net.engines[2].diag().request_entries <= 2, "r2 never held them");
}

#[test]
fn a_request_only_the_leader_holds_waits_for_the_clients_retransmission() {
    // r2 has crashed, and the client's first send reaches the leader alone.
    // Its echo round times out with no follower vouching for it, so r0 does
    // not propose it: r1 could not endorse it.
    let mut net = new_net(PathMode::FastWithFallback);
    net.crashed[2] = true;
    request_to(&mut net, &[0], 0, b"leader only");
    fire_echo_fallback(&mut net);
    assert!(!net.ctb_log.iter().any(|(_, m)| matches!(m, CtbMsg::Prepare(_))), "proposed");
    // The client retransmits to every replica (`client_loop.rs`). r1 echoes
    // it, the retransmission marked it waiting at r0 again, and with `f` echoes
    // r0 proposes it in a slot of its own; r0 and r1 certify it.
    request_to(&mut net, &[0, 1], 0, b"leader only");
    fire_echo_fallback(&mut net);
    net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    for r in 0..2 {
        assert_eq!(payloads(&net.executed[r]), [b"leader only"], "replica {r}");
    }
    assert_eq!(net.engines[0].view(), View(0), "no view change was needed");
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
}

// ---- The echo-fallback sweep ----------------------------------------------

fn is_echo_sweep(k: &TimerKind) -> bool {
    *k == TimerKind::EchoFallback
}

/// The batches of r0's PREPAREs that carry `id`.
fn batches_with(net: &Net, id: RequestId) -> Vec<Vec<RequestId>> {
    let ids = |p: &Prepare| p.batch.requests().iter().map(|q| q.id).collect::<Vec<_>>();
    let of_r0 = net.ctb_log.iter().filter(|(s, _)| *s == 0);
    of_r0
        .filter_map(|(_, m)| match m {
            CtbMsg::Prepare(p) if ids(p).contains(&id) => Some(ids(p)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_request_short_of_echoes_falls_back_at_the_second_sweep_not_the_first() {
    // X reaches r0 and r1: `f` followers echo it, not `n - 1`.
    let mut net = new_net(PathMode::FastWithFallback);
    request_to(&mut net, &[0, 1], 0, b"X");
    let x = RequestId::new(ClientId(1), 0);
    assert_eq!(net.fire_timers(is_echo_sweep), 1);
    assert_eq!(batches_with(&net, x), Vec::<Vec<RequestId>>::new(), "fell back at the first");
    assert_eq!(net.fire_timers(is_echo_sweep), 1);
    assert_eq!(batches_with(&net, x), [[x]], "the second firing proposes it, alone");
    // Nothing waits any more: the sweep is not armed again.
    assert_eq!(net.fire_timers(is_echo_sweep), 0);
}

#[test]
fn a_request_echoed_between_two_sweeps_is_proposed_once_in_a_shared_batch() {
    // One slot in flight. H, X and Y reach everybody; the leader's sweep
    // fires before any echo arrives, so all three are marked to fall back
    // at the next firing. The echoes then queue them the ordinary way: H
    // goes first, X and Y share the slot that follows.
    let mut net = Net::new(batched_config(PathMode::FastWithFallback, 8, 1));
    let [h, x, y] = [0, 1, 2].map(|seq| net.client_request_no_drain(seq, b"r"));
    fire_at(&mut net, &[0], is_echo_sweep);
    net.run();
    assert_eq!(batches_with(&net, h), [[h]]);
    assert_eq!(batches_with(&net, x), [[x, y]]);
    // The second firing finds nothing still waiting: no second proposal.
    assert_eq!(net.fire_timers(is_echo_sweep), 1);
    assert_eq!(net.fire_timers(is_echo_sweep), 0, "armed again with nothing waiting");
    assert_eq!(batches_with(&net, x), [[x, y]], "proposed twice");
    for r in 0..3 {
        assert_eq!(net.executed[r].len(), 3, "replica {r}");
    }
}

#[test]
fn an_idle_echo_sweep_is_armed_once_per_wait() {
    // Every request reaches the leader before its echoes, so every one of
    // them waits — but only the first of each busy spell arms the sweep.
    let mut net = new_net(PathMode::FastOnly);
    let armed = |net: &Net, r: usize| net.timers[r].iter().filter(|k| is_echo_sweep(k)).count();
    for spell in 0..3u64 {
        for seq in 10 * spell..10 * spell + 10 {
            net.client_request(seq, b"r");
            assert_eq!((armed(&net, 0), armed(&net, 1), armed(&net, 2)), (1, 0, 0), "{seq}");
        }
        // Everything executed: the firing arms nothing.
        assert_eq!(net.fire_timers(is_echo_sweep), 1);
        assert_eq!(armed(&net, 0), 0, "an idle sweep was armed again");
    }
    assert_eq!(net.executed[0].len(), 30);
}

#[test]
fn a_deposed_leaders_echo_sweep_queues_nothing_and_stops() {
    // X reaches r0 and r1, and r0's first firing marks it due. Then the
    // group moves to view 1, which r1 leads: r0's next firing finds X
    // still waiting and `f`-echoed, but r0 no longer leads.
    let mut net = new_net(PathMode::FastWithFallback);
    request_to(&mut net, &[0, 1], 0, b"X");
    assert_eq!(net.fire_timers(is_echo_sweep), 1);
    assert!(net.timers[0].iter().any(is_echo_sweep), "not armed again while X waits");
    progress_until_view(&mut net, View(1));
    assert!(!net.engines[0].is_leader());
    assert_eq!(net.engines[0].diag().outstanding, 1, "X is held at r0, unexecuted");
    net.timers[0].retain(|k| !is_echo_sweep(k));
    let fx = net.engines[0].on_timer(TimerKind::EchoFallback);
    assert_eq!(fx, [], "a deposed leader's sweep acted");
    assert_eq!(net.engines[0].diag().propose_queue, 0);
    // X's retransmission reaches r0 as a follower: echoed, not awaited.
    request_to(&mut net, &[0], 0, b"X");
    assert!(!net.timers[0].iter().any(is_echo_sweep), "a follower armed the sweep");
}

// ---- Coalesced echoes ------------------------------------------------------

/// A leader (r0) of `max_batch` 8 with two slots in flight.
fn batched_leader() -> Engine {
    let ring = KeyRing::generate(5, (0..3u32).map(|i| ProcessId::Replica(ReplicaId(i))));
    let mut leader = Engine::new(ReplicaId(0), batched_config(PathMode::FastOnly, 8, 2), ring);
    let _ = leader.start();
    leader
}

/// A [`batched_leader`] holding the requests `0..k` from their client and
/// r1's echo of each: r2's echoes complete their echo rounds.
fn leader_echoed_by_r1(k: u64) -> (Engine, Vec<Request>) {
    let mut leader = batched_leader();
    let reqs: Vec<Request> = (0..k)
        .map(|seq| Request { id: RequestId::new(ClientId(1), seq), payload: vec![seq as u8] })
        .collect();
    for req in &reqs {
        let _ = leader.on_client_request(req.clone());
        let fx = leader.on_direct(ReplicaId(1), DirectMsg::Echo { req: req.clone() });
        assert_eq!(proposed(&fx), Vec::<Vec<RequestId>>::new(), "proposed before r2 echoed");
    }
    (leader, reqs)
}

/// The batches of the PREPAREs among `fx`.
fn proposed(fx: &[Effect]) -> Vec<Vec<RequestId>> {
    fx.iter()
        .filter_map(|e| match e {
            Effect::CtbBroadcast(CtbMsg::Prepare(p)) => {
                Some(p.batch.requests().iter().map(|q| q.id).collect())
            }
            _ => None,
        })
        .collect()
}

#[test]
fn one_echoes_message_completes_its_requests_into_one_prepare() {
    // Four single echoes from r2: the first completes request 0 while both
    // pipeline slots are free, so it is proposed alone, and so is request
    // 1; 2 and 3 wait for a slot.
    let (mut leader, reqs) = leader_echoed_by_r1(4);
    let ids: Vec<RequestId> = reqs.iter().map(|q| q.id).collect();
    let mut fx = Vec::new();
    for req in reqs {
        fx.extend(leader.on_direct(ReplicaId(2), DirectMsg::Echo { req }));
    }
    assert_eq!(proposed(&fx), [vec![ids[0]], vec![ids[1]]]);
    // The same four echoes as one message: all four in one PREPARE.
    let (mut leader, reqs) = leader_echoed_by_r1(4);
    let fx = leader.on_direct(ReplicaId(2), DirectMsg::Echoes { reqs });
    assert_eq!(proposed(&fx), [ids]);
    assert_eq!(leader.diag().in_flight, 1);
}

#[test]
fn an_echoes_message_at_a_follower_changes_nothing() {
    let mut net = new_net(PathMode::FastOnly);
    let reqs = (0..3)
        .map(|seq| Request { id: RequestId::new(ClientId(1), seq), payload: vec![1] })
        .collect();
    let before = net.engines[1].diag();
    let fx = net.engines[1].on_direct(ReplicaId(2), DirectMsg::Echoes { reqs });
    assert_eq!(fx, []);
    let after = net.engines[1].diag();
    assert_eq!(
        (after.outstanding, after.request_entries, after.propose_queue),
        (before.outstanding, before.request_entries, before.propose_queue)
    );
}

#[test]
fn an_echoes_message_from_a_branded_replica_is_ignored() {
    let (mut leader, reqs) = leader_echoed_by_r1(3);
    let fx = leader.on_ctb_equivocation(ReplicaId(2), SeqId(1));
    assert!(matches!(fx[..], [Effect::ByzantineDetected { replica: ReplicaId(2), .. }]));
    let fx = leader.on_direct(ReplicaId(2), DirectMsg::Echoes { reqs });
    assert_eq!(proposed(&fx), Vec::<Vec<RequestId>>::new(), "a branded replica's echoes counted");
    assert_eq!(leader.diag().propose_queue, 0);
}

#[test]
fn a_held_request_echoed_in_an_echoes_message_is_recorded_once() {
    // The leader holds X from its client. r1's one message echoes X and Y,
    // which only it has sent so far: X is not recorded a second time, Y
    // is recorded from the echo.
    let mut leader = batched_leader();
    let [x, y] =
        [0, 1].map(|seq| Request { id: RequestId::new(ClientId(1), seq), payload: vec![7] });
    let _ = leader.on_client_request(x.clone());
    assert_eq!(leader.diag().request_entries, 1);
    let fx = leader.on_direct(ReplicaId(1), DirectMsg::Echoes { reqs: vec![x.clone(), y] });
    assert_eq!(proposed(&fx), Vec::<Vec<RequestId>>::new());
    assert_eq!(leader.diag().request_entries, 2, "X recorded twice, or Y not at all");
    // r1's echo of X counted: r2's completes the round.
    let fx = leader.on_direct(ReplicaId(2), DirectMsg::Echo { req: x.clone() });
    assert_eq!(proposed(&fx), [[x.id]]);
    assert_eq!(leader.diag().request_entries, 2);
}

// ---- The view change and the proposal queue ------------------------------

/// Applies the oldest pending move that `held` does not keep back, until
/// only kept-back ones are left: a cut that delays and loses nothing, so
/// [`Net::run`] heals it.
fn run_except(net: &mut Net, held: impl Fn(&Move) -> bool) {
    while let Some(i) = net.pending.iter().position(|m| !held(m)) {
        net.apply(i);
    }
}

/// Fires, at each of `replicas`, the armed timers `filter` accepts; applies
/// nothing.
fn fire_at(net: &mut Net, replicas: &[usize], filter: impl Fn(&TimerKind) -> bool) {
    for &r in replicas {
        let (fire, keep): (Vec<_>, Vec<_>) = net.timers[r].drain(..).partition(&filter);
        net.timers[r] = keep;
        for kind in fire {
            let fx = net.engines[r].on_timer(kind);
            net.emit(r, fx);
        }
    }
}

fn payloads(log: &[(Slot, Request)]) -> Vec<&[u8]> {
    log.iter().map(|(_, q)| &q.payload[..]).collect()
}

/// One slot in flight, one request per slot. r0 proposes A, holds B queued
/// behind it, and nothing r0 sends arrives; r1 and r2 depose it, and r1
/// decides both in view 1 — r0, which still hears everybody, included.
/// Then the cut heals.
fn deposed_leader_with_a_queued_request() -> Net {
    let mut net = Net::new(batched_config(PathMode::FastWithFallback, 1, 1));
    let r0_is_mute = |m: &Move| m.from == 0 && m.to != 0;
    net.client_request_no_drain(0, b"A");
    net.client_request_no_drain(1, b"B");
    run_except(&mut net, r0_is_mute);
    assert_eq!(net.engines[0].diag().in_flight, 1);
    assert_eq!(net.engines[0].diag().propose_queue, 1);

    fire_at(&mut net, &[1, 2], |k| matches!(k, TimerKind::Progress));
    run_except(&mut net, r0_is_mute);
    // Unanimity is out of reach without r0's votes: one slow trigger per slot.
    for _ in 0..2 {
        fire_at(&mut net, &[1, 2], |k| matches!(k, TimerKind::SlotSlowTrigger(_)));
        run_except(&mut net, r0_is_mute);
    }
    net.run();
    for r in 0..3 {
        assert_eq!(net.engines[r].view(), View(1), "replica {r}");
        assert_eq!(payloads(&net.executed[r]), [b"A", b"B"], "replica {r}");
    }
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
    net
}

#[test]
fn a_deposed_leader_keeps_no_queue_and_does_not_seal_on_it() {
    let mut net = deposed_leader_with_a_queued_request();
    // B executed under r1: it is queued nowhere and pending nowhere.
    let diag = net.engines[0].diag();
    assert_eq!((diag.propose_queue, diag.outstanding), (0, 0), "{diag}");
    let seals = |net: &Net| {
        net.ctb_log.iter().filter(|(_, m)| matches!(m, CtbMsg::SealView { .. })).count()
    };
    let before = seals(&net);
    // The first firing after progress only re-arms; the second is the one
    // that would seal.
    for _ in 0..2 {
        fire_progress(&mut net, 0);
    }
    assert_eq!(seals(&net), before, "an idle follower sealed a view");
    assert_eq!(net.engines[0].view(), View(1));
}

#[test]
fn a_deposed_leader_that_leads_again_proposes_nothing_that_executed() {
    let mut net = deposed_leader_with_a_queued_request();
    // Each watchdog fires until its replica has left the views it is stuck
    // in (a firing that finds progress since the last one only re-arms).
    let time_out = |net: &mut Net, replicas: [usize; 2], mute: &[usize], view: View| {
        let held = |m: &Move| mute.contains(&m.from) && m.to != m.from;
        run_except(net, held);
        for r in replicas {
            for _ in 0..4 {
                if net.engines[r].view() < view {
                    fire_at(net, &[r], |k| matches!(k, TimerKind::Progress));
                    run_except(net, held);
                }
            }
            assert_eq!(net.engines[r].view(), view, "replica {r}");
        }
    };
    // C arrives and neither r1, which leads, nor r2, which would lead next,
    // is heard by anybody: r0 and r2 time out into view 2, where r2 cannot
    // gather a NEW_VIEW. Then r1 is back, r0 and r1 time out on C once more
    // and r0 leads view 3.
    net.client_request_no_drain(2, b"C");
    time_out(&mut net, [0, 2], &[1, 2], View(2));
    time_out(&mut net, [0, 1], &[2], View(3));
    assert!(net.engines[0].is_leader());
    fire_at(&mut net, &[0, 1], |k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    net.run();
    // What r0 had queued in view 0 executed long ago; view 3 carries C and
    // nothing else.
    let of_r0_in_view_3 = net.ctb_log.iter().filter_map(|(stream, m)| match m {
        CtbMsg::Prepare(p) if *stream == 0 && p.view == View(3) => Some(&p.batch),
        _ => None,
    });
    let proposed: Vec<&[u8]> = of_r0_in_view_3
        .flat_map(|b| b.requests().iter().filter(|q| !q.is_noop()).map(|q| &q.payload[..]))
        .collect();
    assert_eq!(proposed, [b"C"]);
    for r in 0..3 {
        assert_eq!(payloads(&net.executed[r]), [b"A", b"B", b"C"], "replica {r}");
    }
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
}

// ---- The engine under arbitrary interleavings ---------------------------

/// Three requests reach every replica and nothing is applied; `choices`
/// (cycled) then picks, move by move, among the `enabled()`. No faults, no
/// timer fires: every schedule has to agree, brand nobody and complete.
fn run_schedule(path: PathMode, choices: &[usize]) -> Net {
    let mut net = new_net(path);
    for seq in 0..3u64 {
        net.client_request_no_drain(seq, &seq.to_le_bytes());
    }
    for step in 0..10_000 {
        let enabled = net.enabled();
        if enabled.is_empty() {
            break;
        }
        net.apply(enabled[choices[step % choices.len()] % enabled.len()]);
    }
    net.assert_executed_prefix_agreement();
    assert!(net.brands.is_empty(), "honest replicas branded: {:?}", net.brands);
    assert!(net.executed.iter().all(|log| log.len() == 3), "a replica missed a request");
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Safety and completion do not depend on the order in which a FIFO
    /// fabric delivers, on any path; a schedule that breaks one is printed.
    #[test]
    fn any_fifo_interleaving_agrees_and_completes(
        choices in proptest::collection::vec(0usize..64, 1..200),
    ) {
        for path in [PathMode::FastOnly, PathMode::SlowOnly, PathMode::FastWithFallback] {
            let held = std::panic::catch_unwind(|| run_schedule(path, &choices)).is_ok();
            prop_assert!(held, "failing schedule on {path:?}: {choices:?}");
        }
    }
}

/// What the explorer of ROADMAP item 6 stands on: a choice list is a run.
#[test]
fn a_choice_list_replays_to_the_same_run() {
    let choices = [7, 0, 3, 11, 2, 5, 1, 13, 4];
    for path in [PathMode::FastOnly, PathMode::SlowOnly, PathMode::FastWithFallback] {
        let (a, b) = (run_schedule(path, &choices), run_schedule(path, &choices));
        assert_eq!(a.executed, b.executed, "{path:?}");
        assert_eq!(a.ctb_log, b.ctb_log, "{path:?}");
    }
}

// ----------------------------------------------------------------------
// One record per vote: COMMITs are counted off the streams, WILL_COMMIT is
// promised by the vote that completes WILL_CERTIFY
// ----------------------------------------------------------------------

impl Lone {
    /// `signers`' certificate over `bytes`.
    fn cert(&self, signers: &[u32], bytes: &[u8]) -> Certificate {
        let mut cert = Certificate::new();
        for r in signers {
            let id = ProcessId::Replica(ReplicaId(*r));
            cert.add(id, self.ring.signer(id).unwrap().sign(bytes));
        }
        cert
    }

    /// Completes every crypto job `e` queues, those the completions queue
    /// included; returns what the completions emitted.
    fn complete_all(&self, e: &mut Engine) -> Vec<Effect> {
        let mut fx = Vec::new();
        loop {
            let jobs = queued_jobs(e);
            if jobs.is_empty() {
                return fx;
            }
            for job in &jobs {
                fx.extend(self.complete(e, job));
            }
        }
    }
}

#[test]
fn a_commit_from_a_gap_filling_summary_counts_toward_the_quorum() {
    let mut lone = Lone::new();
    lone.cfg.record_decisions = true;
    let mut e = lone.engine(2);
    let CtbMsg::Prepare(prepare) = Lone::prepare(1) else { unreachable!() };
    let commit = CommitCert { cert: lone.cert(&[0, 1], &prepare.certify_bytes()), prepare };

    // Stream 1's COMMIT for slot 0 reaches us only through the certified
    // summary that fills our gap in that stream.
    let summary = StateSummary { checkpoint: None, commits: vec![(Slot(0), commit.clone())] };
    let bytes = summary_sign_bytes(ReplicaId(1), SeqId(2), &summary.digest());
    let cert = lone.cert(&[0, 1], &bytes);
    let _ = e.on_tb_deliver(ReplicaId(1), TbMsg::Summary { upto: SeqId(2), summary, cert });
    let _ = lone.complete_all(&mut e);
    assert_eq!(e.fifo_position(ReplicaId(1)), SeqId(3), "the summary was adopted");
    assert!(e.take_decisions().is_empty(), "one COMMIT decides nothing");

    // The leader's own COMMIT for the same proposal is the second vote.
    let _ = e.on_ctb_deliver(ReplicaId(0), SeqId(1), CtbMsg::Prepare(commit.prepare.clone()));
    let _ = e.on_ctb_deliver(ReplicaId(0), SeqId(2), CtbMsg::Commit(commit));
    let decisions = e.take_decisions();
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].slot, Slot(0));
    assert_eq!(decisions[0].evidence, DecisionEvidence::CommitQuorum { commits: 2 });
}

#[test]
fn will_commit_is_promised_once_per_view_by_the_vote_completing_will_certify() {
    let lone = Lone::new();
    let mut e = lone.engine(2);
    let CtbMsg::Prepare(prepare) = Lone::prepare(1) else { unreachable!() };
    let _ = e.on_client_request(prepare.batch.requests()[0].clone());
    let _ = e.on_ctb_deliver(ReplicaId(0), SeqId(1), CtbMsg::Prepare(prepare.clone()));

    let promises = |fx: &[Effect], view: View| {
        let promise = TbMsg::WillCommit { view, slot: Slot(0) };
        fx.iter().filter(|e| matches!(e, Effect::TbBroadcast(m) if *m == promise)).count()
    };
    // Each replica's WILL_CERTIFY in `view`: how many promises each one made.
    let votes = |e: &mut Engine, view: View| -> Vec<usize> {
        let mut vote =
            |r| e.on_tb_deliver(ReplicaId(r), TbMsg::WillCertify { view, slot: Slot(0) });
        (0..3).map(|r| promises(&vote(r), view)).collect()
    };
    assert_eq!(votes(&mut e, View(0)), [0, 0, 1], "the third vote completes the set");
    let again = e.on_tb_deliver(ReplicaId(1), TbMsg::WillCertify { view: View(0), slot: Slot(0) });
    assert_eq!(promises(&again, View(0)), 0, "a repeated vote adds nothing");

    // The watchdog seals the view: the promise is discharged by the slow
    // path (our share and r1's certify the proposal, our COMMIT leaves)
    // before the view ends. Nobody's COMMIT reaches us, so slot 0 enters
    // view 1 undecided.
    let _ = e.on_timer(TimerKind::Progress);
    let _ = lone.complete_all(&mut e);
    let signer = lone.ring.signer(ProcessId::Replica(ReplicaId(1))).unwrap();
    let sig = signer.sign(&prepare.certify_bytes());
    let _ = e.on_tb_deliver(ReplicaId(1), TbMsg::Certify { prepare, sig });
    let _ = lone.complete_all(&mut e);
    assert_eq!(e.view(), View(1));
    assert_eq!(e.decided_count(), 0);

    assert_eq!(votes(&mut e, View(1)), [0, 0, 1], "the new view's set promises anew");
}

/// `client`'s first request reaches every live replica, and the net runs.
fn request_from(net: &mut Net, client: u32) {
    let request = Request { id: RequestId::new(ClientId(client), 0), payload: vec![client as u8] };
    for r in net.live_replicas().collect::<Vec<_>>() {
        let fx = net.engines[r].on_client_request(request.clone());
        net.emit(r, fx);
    }
    net.run();
}

#[test]
fn a_flood_of_fresh_client_ids_leaves_the_dedup_table_at_its_bound() {
    // Requests are unsigned, so a client names any id it likes: 2 000 ids
    // must cost every replica the bound, not one entry each.
    let mut net = new_net(PathMode::FastOnly);
    let cap = net.cfg.client_table_cap();
    assert_eq!(cap, 512, "2 · window · max_batch at paper_default");
    for client in 0..2_000 {
        request_from(&mut net, client);
    }
    for r in 0..3 {
        assert_eq!(net.engines[r].exec_next(), Slot(2_000), "replica {r}");
        assert_eq!(net.engines[r].exec_table().len(), cap, "replica {r}");
    }
    net.assert_executed_prefix_agreement();
}

/// Window 16, so the bound is 32 and a checkpoint comes every 16 slots.
/// 101 clients execute once each, in an order unrelated to their ids: 31
/// with every replica up, 30 while r2 is down, and r2 is replaced. Returns
/// the clients left.
fn replaced_after_a_churned_window() -> (Net, impl Iterator<Item = u32>) {
    let params = ClusterParams::paper_default().with_window(16);
    let mut net = Net::new(EngineConfig::new(params, PathMode::FastWithFallback));
    let mut clients = (0..101).map(|i| (i * 37 + 11) % 101);
    for client in clients.by_ref().take(31) {
        request_from(&mut net, client);
    }
    net.crashed[2] = true;
    for client in clients.by_ref().take(30) {
        request_from(&mut net, client);
        fire_echo_fallback(&mut net);
        net.fire_timers(|k| matches!(k, TimerKind::SlotSlowTrigger(_)));
    }
    net.replace(2);
    (net, clients)
}

/// Runs `clients`' requests; returns how many frontiers all three replicas
/// shared, and those at which r2's dedup table differed from a peer's.
fn tables_at_shared_frontiers(
    net: &mut Net,
    clients: impl Iterator<Item = u32>,
) -> (usize, Vec<Slot>) {
    let (mut shared, mut differing) = (0, Vec::new());
    for client in clients {
        request_from(net, client);
        let frontier = net.engines[2].exec_next();
        if net.live_replicas().all(|r| net.engines[r].exec_next() == frontier) {
            shared += 1;
            let table = net.engines[2].exec_table();
            if (0..2).any(|r| net.engines[r].exec_table() != table) {
                differing.push(frontier);
            }
        }
    }
    (shared, differing)
}

#[test]
fn a_replacement_evicts_what_its_peers_evict() {
    // A table certified and adopted in id order would make the replacement
    // evict other clients than its peers from its next insert on.
    let (mut net, clients) = replaced_after_a_churned_window();
    assert!(net.engines[2].exec_next() >= Slot(48), "checkpoint not adopted");

    // r2 lags until the checkpoint at 64 hands it what the join could not
    // replay; from there on it executes in step with its peers.
    let (shared, differing) = tables_at_shared_frontiers(&mut net, clients);
    assert!(shared >= 38, "only {shared} frontiers after the join are shared");
    assert_eq!(differing, [], "the replacement's dedup table differs at these frontiers");
    assert_eq!(net.engines[2].exec_table().len(), 32, "the table is at its bound");
    assert!(net.brands.is_empty(), "spurious byzantine brands: {:?}", net.brands);
}

#[test]
fn a_replacement_waits_at_its_state_transfers_base_for_the_certified_table() {
    // As above, but the replacement's own effects — the state transfer to
    // the checkpoint at 64 first among them — wait while its peers execute
    // past 64. Were r2 to execute past 64 meanwhile, the certified table
    // would arrive older than what it wrote, and its order would differ.
    let (mut net, mut clients) = replaced_after_a_churned_window();
    assert_eq!(net.engines[2].exec_next(), Slot(48), "r2 lags until the checkpoint at 64");

    // Slots 61 to 70, with r2's effects kept back: the peers' snapshot at 64
    // is still the one a transfer is served from.
    let r2_local = |m: &Move| m.to == 2 && m.lane == Lane::Local;
    for client in clients.by_ref().take(10) {
        let request =
            Request { id: RequestId::new(ClientId(client), 0), payload: vec![client as u8] };
        for r in 0..3 {
            let fx = net.engines[r].on_client_request(request.clone());
            net.emit(r, fx);
        }
        run_except(&mut net, r2_local);
    }
    let transfer = |m: &Move| matches!(m.effect, Effect::StateTransfer { base: Slot(64), .. });
    assert!(net.pending.iter().any(transfer), "r2's transfer to 64 waits");
    assert_eq!(net.engines[2].exec_next(), Slot(64), "r2 executed past 64 without the table");
    assert_eq!(net.engines[2].diag().snapshot_pending, Some(Slot(64)));
    net.run();

    let (shared, differing) = tables_at_shared_frontiers(&mut net, clients);
    assert_eq!(shared, 30, "every frontier after the transfer is shared");
    assert_eq!(differing, [], "the replacement's dedup table differs at these frontiers");
    assert!(net.brands.is_empty(), "spurious byzantine brands: {:?}", net.brands);
}
