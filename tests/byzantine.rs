//! Byzantine-behaviour and adverse-network integration tests.
//!
//! These exercise the safety claims the paper makes: with up to `f`
//! Byzantine replicas and an eventually synchronous network, correct
//! replicas never diverge (SMR agreement) and clients keep completing
//! requests (liveness after GST). Every scenario is deterministic in its
//! seed, so a failure here is a reproducible counterexample.

use std::cell::RefCell;
use std::rc::Rc;

use ubft::runtime::cluster::Cluster;
use ubft::runtime::SimConfig;
use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::PathMode;
use ubft_crypto::Digest;
use ubft_sim::failure::{ByzantineMode, FailurePlan};
use ubft_types::{Duration, Time};

/// Shared per-replica execution logs, for prefix-consistency assertions.
type Logs = Vec<Rc<RefCell<Vec<Vec<u8>>>>>;

/// Wraps an [`App`] and records every executed request payload.
struct RecordingApp {
    inner: FlipApp,
    log: Rc<RefCell<Vec<Vec<u8>>>>,
}

impl App for RecordingApp {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        self.log.borrow_mut().push(request.to_vec());
        self.inner.execute(request)
    }

    fn snapshot_digest(&self) -> Digest {
        self.inner.snapshot_digest()
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        self.inner.snapshot_bytes()
    }

    fn restore_bytes(&mut self, bytes: &[u8]) {
        self.inner.restore_bytes(bytes);
    }

    fn execute_cost(&self, request: &[u8]) -> ubft_types::Duration {
        self.inner.execute_cost(request)
    }

    fn name(&self) -> &'static str {
        "recording-flip"
    }
}

fn recording_apps(n: usize) -> (Vec<Box<dyn App>>, Logs) {
    let logs: Logs = (0..n).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let apps = logs
        .iter()
        .map(|log| {
            Box::new(RecordingApp { inner: FlipApp::new(), log: Rc::clone(log) }) as Box<dyn App>
        })
        .collect();
    (apps, logs)
}

fn payload(size: usize) -> Box<dyn FnMut(u64) -> Vec<u8>> {
    Box::new(move |i| {
        let mut p = vec![0u8; size];
        let k = 8.min(size);
        p[..k].copy_from_slice(&i.to_le_bytes()[..k]);
        p
    })
}

/// SMR agreement: for every pair of correct replicas, one execution log is a
/// prefix of the other (they apply the same requests in the same order; one
/// may lag).
fn assert_prefix_consistent(logs: &Logs, correct: &[usize]) {
    for (i, &a) in correct.iter().enumerate() {
        for &b in &correct[i + 1..] {
            let la = logs[a].borrow();
            let lb = logs[b].borrow();
            let n = la.len().min(lb.len());
            assert_eq!(la[..n], lb[..n], "replicas {a} and {b} diverge within their common prefix");
        }
    }
}

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

#[test]
fn equivocating_leader_cannot_violate_agreement() {
    let mut cfg = SimConfig::paper_default(21);
    cfg.path = PathMode::FastWithFallback;
    cfg.failures = FailurePlan::none().byzantine(0, ByzantineMode::EquivocateProposals, Time::ZERO);
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(40, 0);
    assert_eq!(report.completed, 40);
    // The equivocating fast path can never reach unanimity, so requests
    // decide through the signed slow path (or a view change).
    assert!(report.counters.engine_signs > 0);
    // Replicas 1 and 2 are correct; their logs must agree.
    assert_prefix_consistent(&logs, &[1, 2]);
}

#[test]
fn censoring_leader_is_voted_out() {
    let mut cfg = SimConfig::paper_default(22);
    cfg.path = PathMode::FastWithFallback;
    cfg.failures = FailurePlan::none().byzantine(0, ByzantineMode::CensorRequests, Time::ZERO);
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(30, 0);
    assert_eq!(report.completed, 30);
    // The censoring leader of view 0 never proposes; the survivors must
    // have moved past its view to decide anything.
    assert!(report.views[1].0 >= 1, "follower 1 stuck in the censored view");
    assert!(report.views[2].0 >= 1, "follower 2 stuck in the censored view");
    assert_prefix_consistent(&logs, &[1, 2]);
}

#[test]
fn silent_replica_is_no_worse_than_a_crash() {
    let mut cfg = SimConfig::paper_default(23);
    cfg.path = PathMode::FastWithFallback;
    cfg.failures = FailurePlan::none().byzantine(2, ByzantineMode::Silent, us(100));
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(40, 0);
    assert_eq!(report.completed, 40);
    // A mute follower breaks fast-path unanimity: the slow path signs.
    assert!(report.counters.ctb_signs > 0);
    assert_prefix_consistent(&logs, &[0, 1]);
}

#[test]
fn corrupt_registers_cannot_block_slow_path() {
    let mut cfg = SimConfig::paper_default(24).slow_only();
    cfg.failures = FailurePlan::none().byzantine(1, ByzantineMode::CorruptRegisters, Time::ZERO);
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(30, 5);
    // Every slow-path delivery reads replica 1's garbled register entries,
    // must fail their signature check, and deliver anyway (§6.1).
    assert_eq!(report.completed, 35);
    assert!(report.counters.reg_reads > 0);
    assert_prefix_consistent(&logs, &[0, 2]);
}

#[test]
fn laggard_replica_slows_but_does_not_stop_the_fast_path() {
    let healthy = {
        let cfg = SimConfig::paper_default(25).fast_only();
        let (apps, _) = recording_apps(3);
        Cluster::new(cfg, apps, payload(32)).run(50, 5)
    };
    let mut cfg = SimConfig::paper_default(25);
    cfg.path = PathMode::FastWithFallback;
    cfg.failures = FailurePlan::none().byzantine(2, ByzantineMode::Laggard, Time::ZERO);
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(50, 5);
    assert_eq!(report.completed, 55);
    let (mut h, mut l) = (healthy.latency, report.latency);
    assert!(
        l.median() > h.median(),
        "a 50 µs laggard must show up in the median: healthy {} vs laggard {}",
        h.median(),
        l.median()
    );
    assert_prefix_consistent(&logs, &[0, 1]);
}

#[test]
fn partition_stalls_one_follower_but_not_the_service() {
    let mut cfg = SimConfig::paper_default(26);
    cfg.path = PathMode::FastWithFallback;
    // Leader 0 and follower 2 cannot talk for ~3 ms; the client and the
    // memory nodes are unaffected. f+1 = 2 connected replicas keep serving.
    cfg.failures = FailurePlan::none().partition(0, 2, us(50), us(3_000));
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(40, 0);
    assert_eq!(report.completed, 40);
    assert_prefix_consistent(&logs, &[0, 1, 2]);
}

#[test]
fn partition_heals_and_straggler_catches_up() {
    let mut cfg = SimConfig::paper_default(27);
    cfg.path = PathMode::FastWithFallback;
    // Short partition early in the run; after it heals, TBcast
    // retransmission must bring replica 2 back without manual recovery.
    cfg.failures = FailurePlan::none().partition(0, 2, us(50), us(800));
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(60, 0);
    assert_eq!(report.completed, 60);
    assert_prefix_consistent(&logs, &[0, 1, 2]);
    // The healed follower must have executed most of the log, not just the
    // pre-partition prefix.
    let healed = logs[2].borrow().len();
    assert!(healed >= 40, "replica 2 only executed {healed}/60 after healing");
}

#[test]
fn a_deposed_leader_does_not_seal_on_requests_that_executed() {
    // r0 leads with a pipeline of one, so of eight clients' requests seven
    // wait in its proposal queue when it is cut off from both peers; they
    // depose it, decide those requests in view 1, and r0 rejoins as a
    // follower. Whatever r0 still had queued has executed by then and is
    // pending nowhere: once the clients stop, nobody's watchdog may fire.
    let mut cfg = SimConfig::paper_default(1).with_clients(8).with_pipeline_depth(1);
    cfg.failures = FailurePlan::none().partition(0, 1, us(1_000), us(4_000)).partition(
        0,
        2,
        us(1_000),
        us(4_000),
    );
    let apps = (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run_until(3_000, 0, us(400_000));
    assert!(report.completed >= 3_000, "stalled:\n{}", cluster.diag_lines());
    let replicas = &report.groups[0].replicas;
    assert!(replicas.iter().all(|r| r.branded.is_empty()), "{}", cluster.diag_lines());
    let views = |c: &Cluster| [c.view_of(0), c.view_of(1), c.view_of(2)];
    let before = views(&cluster);
    cluster.settle(Duration::from_millis(60));
    assert_eq!(cluster.decided_of(0), cluster.decided_of(1));
    assert_eq!(cluster.decided_of(1), cluster.decided_of(2));
    assert_eq!(views(&cluster), before, "an idle replica changed view:\n{}", cluster.diag_lines());
}

#[test]
fn pre_gst_asynchrony_does_not_violate_safety() {
    let mut cfg = SimConfig::paper_default(28);
    cfg.path = PathMode::FastWithFallback;
    // Until GST at 2 ms every hop may take up to 300 µs extra: timeouts
    // misfire, the slow path and view changes kick in spuriously. Safety
    // must hold throughout and liveness must return after GST.
    cfg.failures = FailurePlan::none().with_asynchrony(us(2_000), Duration::from_micros(300));
    let (apps, logs) = recording_apps(3);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(80, 0);
    assert_eq!(report.completed, 80);
    assert_prefix_consistent(&logs, &[0, 1, 2]);
}

#[test]
fn five_replicas_tolerate_one_byzantine_and_one_crash() {
    let mut cfg = SimConfig::paper_default(29);
    cfg.path = PathMode::FastWithFallback;
    cfg.params = cfg.params.with_f(2);
    cfg.failures =
        FailurePlan::none().byzantine(3, ByzantineMode::Silent, us(50)).crash_replica(4, us(150));
    let (apps, logs) = recording_apps(5);
    let mut cluster = Cluster::new(cfg, apps, payload(32));
    let report = cluster.run(30, 0);
    assert_eq!(report.completed, 30);
    assert_prefix_consistent(&logs, &[0, 1, 2]);
}

#[test]
fn agreement_holds_across_random_crash_schedules() {
    // A miniature search over crash timings: whichever replica crashes and
    // whenever it does, the survivors' logs never diverge and the client
    // finishes. Each seed is an independent, reproducible schedule.
    for seed in 0..6u64 {
        let victim = (seed % 3) as usize;
        let crash_at = us(40 + 137 * seed);
        let mut cfg = SimConfig::paper_default(1_000 + seed);
        cfg.path = PathMode::FastWithFallback;
        cfg.failures = FailurePlan::none().crash_replica(victim, crash_at);
        let (apps, logs) = recording_apps(3);
        let mut cluster = Cluster::new(cfg, apps, payload(32));
        let report = cluster.run(50, 0);
        assert_eq!(report.completed, 50, "seed {seed}: stalled");
        let correct: Vec<usize> = (0..3).filter(|r| *r != victim).collect();
        assert_prefix_consistent(&logs, &correct);
    }
}

#[test]
fn equivocation_sequence_is_recorded_in_diagnostics() {
    // Regression for the dropped `_k`: proof of equivocation must carry the
    // offending CTBcast sequence number into the branding reason and the
    // engine diagnostics, where operators (and these tests) can see it.
    use ubft_core::engine::{Effect, Engine, EngineConfig, PathMode};
    use ubft_crypto::KeyRing;
    use ubft_types::{ClusterParams, ProcessId, ReplicaId, SeqId};

    let params = ClusterParams::paper_default();
    let ring = KeyRing::generate(7, (0..3u32).map(|i| ProcessId::Replica(ReplicaId(i))));
    let mut engine =
        Engine::new(ReplicaId(1), EngineConfig::new(params, PathMode::FastWithFallback), ring);
    let fx = engine.on_ctb_equivocation(ReplicaId(0), SeqId(42));
    assert!(matches!(
        &fx[..],
        [Effect::ByzantineDetected { replica: ReplicaId(0), reason }] if reason.contains("k=42")
    ));
    assert_eq!(engine.diag().equivocations, vec![(ReplicaId(0), SeqId(42))]);
    // Later proofs on the same (already blocked) stream add nothing.
    assert!(engine.on_ctb_equivocation(ReplicaId(0), SeqId(43)).is_empty());
    assert_eq!(engine.diag().equivocations, vec![(ReplicaId(0), SeqId(42))]);
}

#[test]
fn share_flooding_peer_buys_one_verification_per_open_boundary() {
    // Regression: any validly signed CERTIFY_SUMMARY share used to be
    // verified (45.5 µs each) and filed under `summary_shares[upto][digest]`
    // for arbitrary future `upto` and arbitrary `digest`, so one Byzantine
    // peer could grow the table without limit. Now only boundaries the
    // broadcaster crossed and has not certified are admitted, one share per
    // signer — and the flood cannot keep an honest share from certifying.
    use ubft_core::engine::{CryptoJob, CryptoTag, Effect, Engine, EngineConfig, PathMode};
    use ubft_core::msg::{summary_sign_bytes, DirectMsg, Request, TbMsg};
    use ubft_crypto::{sha256, KeyRing};
    use ubft_types::{ClientId, ClusterParams, ProcessId, ReplicaId, RequestId, SeqId};

    let ring = KeyRing::generate(7, (0..3u32).map(|i| ProcessId::Replica(ReplicaId(i))));
    let signer = |r: u32| ring.signer(ProcessId::Replica(ReplicaId(r))).unwrap();
    let mut cfg = EngineConfig::new(ClusterParams::paper_default(), PathMode::FastOnly);
    cfg.echo_round = false;
    let mut engine = Engine::new(ReplicaId(0), cfg, ring.clone());
    let _ = engine.start();
    let complete = |engine: &mut Engine, job: &CryptoJob| {
        engine.on_crypto_done(job.tag, job.run(&signer(0), &ring))
    };

    // The leader broadcasts 70 prepares: boundary 64 is open, 128 is not
    // reached. Its own share is signed by the one job the boundary queues.
    let mut own_share = Vec::new();
    for seq in 0..70u64 {
        let req = Request { id: RequestId::new(ClientId(1), seq), payload: vec![1; 32] };
        for e in engine.on_client_request(req) {
            if let Effect::CtbBroadcast(msg) = e {
                let _ = engine.on_ctb_deliver(ReplicaId(0), SeqId(seq + 1), msg);
            }
        }
        own_share.extend(engine.take_crypto_jobs());
    }
    assert_eq!(own_share.len(), 1);
    let CryptoTag::SummaryShare { digest: honest, .. } = own_share[0].tag else {
        panic!("boundary job is the own share");
    };
    assert!(complete(&mut engine, &own_share[0]).is_empty());

    // r1 floods validly signed shares: every `upto` up to far beyond
    // anything broadcast, a fresh digest each, many repeats.
    let share = |from: u32, upto: u64, digest: Digest| DirectMsg::CertifySummary {
        stream: ReplicaId(0),
        upto: SeqId(upto),
        digest,
        sig: signer(from).sign(&summary_sign_bytes(ReplicaId(0), SeqId(upto), &digest)),
    };
    let mut bought = Vec::new();
    for i in 0..4_000u64 {
        let upto = match i % 4 {
            0 => 64,
            1 => 64 * (1 + i % 1_000),
            2 => i,
            _ => 1 << 40,
        };
        let fx = engine.on_direct(ReplicaId(1), share(1, upto, sha256(&i.to_le_bytes())));
        assert!(fx.is_empty());
        bought.extend(engine.take_crypto_jobs());
    }
    assert_eq!(bought.len(), 1, "4 000 messages bought {} verifications", bought.len());
    assert_eq!(engine.take_crypto_ops().verifies, 0, "nothing is verified on the engine's thread");
    // Its one (validly signed, wrong-digest) share checks out and still
    // certifies nothing.
    assert!(complete(&mut engine, &bought[0]).is_empty());
    assert_eq!(engine.ctb_summarized_upto(), 0);

    // The honest follower's share completes the summary regardless.
    assert!(engine.on_direct(ReplicaId(2), share(2, 64, honest)).is_empty());
    let check: Vec<CryptoJob> = engine.take_crypto_jobs().collect();
    assert_eq!(check.len(), 1);
    let fx = complete(&mut engine, &check[0]);
    assert!(matches!(
        fx.first(),
        Some(Effect::TbBroadcast(TbMsg::Summary { upto: SeqId(64), .. }))
    ));
    assert_eq!(engine.ctb_summarized_upto(), 64);
}
