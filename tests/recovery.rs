//! Live replica replacement: crash-then-replace schedules pinned by the
//! headline *digest equivalence* property — under a fixed RNG seed, a run
//! that crashes and replaces a replica must decide every submitted request
//! and end with the same executed request sequence and final application
//! digest as the fault-free run, for both the single-group [`Cluster`] and
//! the sharded deployment.
//!
//! Convergence mechanics being tested end to end: the replacement boots on
//! a fresh host, scans its predecessor's SWMR register banks on the memory
//! nodes, completes the `Join`/`JoinAck` handshake against `f + 1` peers,
//! restores the application from a certified checkpoint snapshot, replays
//! certificate-backed decided slots, and then participates normally. The
//! bounded replay means full convergence is guaranteed by the first
//! checkpoint *after* the rejoin, so every schedule here leaves at least a
//! window's worth of traffic behind the replacement.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

use proptest::prelude::*;
use ubft::runtime::cluster::Cluster;
use ubft::runtime::sharded::ShardedCluster;
use ubft::runtime::SimConfig;
use ubft_apps::workload::{kv_request, WorkloadRng};
use ubft_apps::{KvApp, KvFrontend, KvOp, ShardRouter};
use ubft_core::app::App;
use ubft_crypto::Digest;
use ubft_sim::failure::FailurePlan;
use ubft_sim::net::LatencyModel;
use ubft_types::wire::Wire;
use ubft_types::{Duration, Time};

const SEED: u64 = 0xA5F0_2026;
const REQUESTS: u64 = 600;

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Small tail/window so checkpoints — the replacement's state-transfer
/// anchor — happen every 32 slots instead of every 256.
fn recovery_cfg(seed: u64) -> SimConfig {
    SimConfig::paper_default(seed).with_tail(16).with_window(32)
}

fn kv_apps(n: usize) -> Vec<Box<dyn App>> {
    (0..n).map(|_| Box::new(KvApp::new(KvFrontend::Redis)) as Box<dyn App>).collect()
}

fn kv_workload(seed: u64) -> Box<dyn FnMut(u64) -> Vec<u8>> {
    let mut rng = WorkloadRng::new(seed);
    let mut populated = 0u64;
    Box::new(move |_| kv_request(&mut rng, &mut populated))
}

/// Wraps an [`App`] and records every executed *client* request payload
/// (view-change noop fillers are skipped: they carry no payload and leave
/// KV state untouched, and the fault-free run has none to compare with).
struct RecordingKv {
    inner: KvApp,
    log: Rc<RefCell<Vec<Vec<u8>>>>,
}

impl App for RecordingKv {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        if !request.is_empty() {
            self.log.borrow_mut().push(request.to_vec());
        }
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
    fn name(&self) -> &'static str {
        "recording-kv"
    }
}

type Logs = Vec<Rc<RefCell<Vec<Vec<u8>>>>>;

fn recording_apps(n: usize) -> (Vec<Box<dyn App>>, Logs) {
    let logs: Logs = (0..n).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
    let apps = logs
        .iter()
        .map(|log| {
            Box::new(RecordingKv { inner: KvApp::new(KvFrontend::Redis), log: Rc::clone(log) })
                as Box<dyn App>
        })
        .collect();
    (apps, logs)
}

/// The fault-free reference: final digest and executed request sequence of
/// `REQUESTS` requests under `SEED`, fully settled. Computed once.
fn fault_free_reference() -> &'static (Digest, Vec<Vec<u8>>) {
    static REF: OnceLock<(Digest, Vec<Vec<u8>>)> = OnceLock::new();
    REF.get_or_init(|| {
        let (apps, logs) = recording_apps(3);
        let mut cluster = Cluster::new(recovery_cfg(SEED), apps, kv_workload(SEED ^ 0xF00D));
        let report = cluster.run(REQUESTS, 0);
        assert_eq!(report.completed, REQUESTS);
        cluster.settle(Duration::from_millis(3));
        let digest = cluster.app_digest(0);
        for r in 1..3 {
            assert_eq!(cluster.app_digest(r), digest, "fault-free replicas disagree");
        }
        let log = logs[0].borrow().clone();
        assert_eq!(log.len(), REQUESTS as usize);
        (digest, log)
    })
}

/// The acceptance-criterion run: `SimConfig::with_replacement` crashes and
/// replaces one replica; the run decides *all* submitted requests and ends
/// with an app digest — and executed request sequence — identical to the
/// fault-free run, on every replica including the replacement.
#[test]
fn replacement_run_matches_fault_free_digest_g1() {
    let (reference_digest, reference_log) = fault_free_reference();
    let (apps, logs) = recording_apps(3);
    let victim = 1;
    // The crash lands mid-window (about 22 of the first 32 slots executed),
    // so the first checkpoint forms without the victim and its replacement
    // has a prefix to skip.
    let cfg = recovery_cfg(SEED).with_replacement(victim, us(200), Duration::from_micros(400));
    let mut cluster = Cluster::new(cfg, apps, kv_workload(SEED ^ 0xF00D));
    let report = cluster.run(REQUESTS, 0);
    assert_eq!(report.completed, REQUESTS, "requests lost across the replacement");
    cluster.settle(Duration::from_millis(3));

    for r in 0..3 {
        assert_eq!(
            cluster.app_digest(r),
            *reference_digest,
            "replica {r} diverged from the fault-free run"
        );
    }
    // Executed request sequences: the live replicas replayed exactly the
    // fault-free sequence; the replacement executed exactly a suffix of it
    // (everything from its state-transfer base onward).
    for r in (0..3).filter(|r| *r != victim) {
        assert_eq!(&*logs[r].borrow(), reference_log, "replica {r} reordered execution");
    }
    // The replacement executes *fragments* of the reference sequence — a
    // genesis-era replay before its first state transfer, then everything
    // live — with state transfers bridging the gaps. Its log must be an
    // in-order subsequence of the fault-free sequence (same requests, same
    // relative order, nothing invented, nothing reordered), and its tail
    // must coincide exactly with the fault-free tail (it finished fully
    // caught up and live).
    let joiner = logs[victim].borrow();
    assert!(!joiner.is_empty(), "the replacement never executed anything");
    let mut cursor = reference_log.iter();
    let in_order = joiner.iter().all(|p| cursor.any(|q| q == p));
    assert!(in_order, "the replacement executed requests out of order or out of thin air");
    let tail = 32.min(joiner.len());
    assert_eq!(
        joiner[joiner.len() - tail..],
        reference_log[reference_log.len() - tail..],
        "the replacement's final stretch diverges from the fault-free tail"
    );
    // The replacement really did skip a prefix it learned via snapshot.
    assert!(joiner.len() < reference_log.len());
}

/// The same property on a `G = 4` sharded deployment: every request is
/// keyed into shard 1, whose replica 2 is crashed and replaced mid-run.
/// The whole deployment must complete everything and end bit-for-bit at
/// the fault-free digests (idle shards stay at genesis in both runs).
#[test]
fn replacement_run_matches_fault_free_digest_g4_sharded() {
    const G: usize = 4;
    const TARGET_SHARD: usize = 1;
    // Keys pre-filtered to route into the target shard.
    let shard1_workload = || {
        let mut state = SEED ^ 0xBEEF;
        let router = ShardRouter::new(G);
        Box::new(move |i: u64| loop {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = state.to_le_bytes().to_vec();
            if router.route_key(&key) == TARGET_SHARD {
                let value = i.to_le_bytes().to_vec();
                return KvOp::Set { key, value }.to_bytes();
            }
        }) as Box<dyn FnMut(u64) -> Vec<u8>>
    };
    let digests = |sharded: &ShardedCluster| -> Vec<Digest> {
        (0..G)
            .flat_map(|g| (0..3).map(move |r| (g, r)))
            .map(|(g, r)| sharded.app_digest(g, r))
            .collect()
    };

    let mut clean =
        ShardedCluster::new(recovery_cfg(SEED).with_shards(G), |_| kv_apps(3), shard1_workload());
    let clean_report = clean.run(400, 0);
    assert_eq!(clean_report.completed, 400);
    clean.settle(Duration::from_millis(3));

    let plan = FailurePlan::none().replace_replica(2, us(300), us(700));
    let cfg = recovery_cfg(SEED).with_shards(G).with_shard_failures(TARGET_SHARD, plan);
    let mut faulty = ShardedCluster::new(cfg, |_| kv_apps(3), shard1_workload());
    let report = faulty.run(400, 0);
    assert_eq!(report.completed, 400, "requests lost across the replacement");
    faulty.settle(Duration::from_millis(3));

    assert_eq!(digests(&faulty), digests(&clean), "sharded digests diverged");
    // The fault was real: only shard 1 served traffic, and it really did
    // lose and replace a replica (snapshots were retained there).
    assert_eq!(report.groups[TARGET_SHARD].completed, 400);
    assert!(faulty.replica_snapshot_bytes(TARGET_SHARD, 0) > 0);
}

/// A replacement inside one shard must leave the other shards' entire
/// reports — completions, counters, views, latency samples, app digests —
/// bit-for-bit unchanged (extends the PR 3 containment tests: under zero
/// jitter the shared fabric consumes no randomness, so shard trajectories
/// are independent).
#[test]
fn replacement_is_contained_to_its_shard() {
    let fingerprint = |report: &ubft::runtime::RunReport, sc: &ShardedCluster, g: usize| {
        let shard = &report.groups[g];
        let mut lat = shard.latency.clone();
        let lat_print = if lat.is_empty() {
            (0, Duration::ZERO, Duration::ZERO)
        } else {
            (lat.len(), lat.mean(), lat.percentile(99.0))
        };
        (
            shard.completed,
            shard.counters,
            shard.views.clone(),
            lat_print,
            (0..3).map(|r| sc.app_digest(g, r)).collect::<Vec<_>>(),
            (0..3).map(|r| sc.decided_of(g, r)).collect::<Vec<_>>(),
        )
    };
    let run = |shard1_plan: Option<FailurePlan>| {
        let mut cfg = SimConfig::paper_default(47).with_tail(16).with_window(32).with_shards(3);
        if let Some(plan) = shard1_plan {
            cfg = cfg.with_shard_failures(1, plan);
        }
        cfg.latency = LatencyModel {
            base: Duration::from_nanos(850),
            picos_per_byte: 80,
            jitter: Duration::ZERO,
        };
        let mut sharded = ShardedCluster::new(cfg, |_| kv_apps(3), kv_workload(0xD15C));
        let report = sharded.run_until(1_000_000, 0, Time::ZERO + Duration::from_millis(4));
        (report, sharded)
    };

    let (clean, clean_sc) = run(None);
    let plan = FailurePlan::none().replace_replica(0, us(200), us(600));
    let (faulty, faulty_sc) = run(Some(plan));

    for g in [0usize, 2] {
        assert_eq!(
            fingerprint(&clean, &clean_sc, g),
            fingerprint(&faulty, &faulty_sc, g),
            "shard {g} was perturbed by shard 1's replacement"
        );
    }
    // The replacement was real and the shard kept serving afterwards.
    assert!(faulty.groups[1].completed > 0);
    // Within shard 1, the live replicas agree among themselves.
    assert_eq!(faulty_sc.app_digest(1, 1), faulty_sc.app_digest(1, 2));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Randomized (victim, crash time, replacement delay) schedules on the
    /// single-group cluster: every schedule decides all requests and every
    /// replica — including the replacement — converges to the fault-free
    /// digest. Crash and rejoin land in the first few milliseconds of a
    /// ~15 ms run, so at least one post-rejoin checkpoint always completes
    /// the catch-up.
    #[test]
    fn randomized_replacement_converges_to_fault_free_digest(
        victim in 0usize..3,
        crash_us in 120u64..1_500,
        delay_us in 50u64..1_200,
    ) {
        let (reference_digest, _) = fault_free_reference();
        let cfg = recovery_cfg(SEED)
            .with_replacement(victim, us(crash_us), Duration::from_micros(delay_us));
        let mut cluster = Cluster::new(cfg, kv_apps(3), kv_workload(SEED ^ 0xF00D));
        let report = cluster.run(REQUESTS, 0);
        prop_assert_eq!(report.completed, REQUESTS);
        cluster.settle(Duration::from_millis(3));
        for r in 0..3 {
            prop_assert_eq!(
                cluster.app_digest(r),
                *reference_digest,
                "victim {} crash {}us delay {}us: replica {} diverged",
                victim, crash_us, delay_us, r
            );
        }
    }

    /// The same randomized schedules on a sharded deployment (uniform
    /// traffic, replacement in a random shard): the replaced replica
    /// converges to the bit-for-bit digest of its shard's live replicas,
    /// and every shard's replicas agree internally.
    #[test]
    fn randomized_sharded_replacement_converges(
        shard in 0usize..3,
        victim in 0usize..3,
        crash_us in 150u64..900,
        delay_us in 100u64..700,
    ) {
        let plan = FailurePlan::none()
            .replace_replica(victim, us(crash_us), us(crash_us + delay_us));
        let cfg = recovery_cfg(31).with_shards(3).with_shard_failures(shard, plan);
        let mut sharded = ShardedCluster::new(cfg, |_| kv_apps(3), kv_workload(0xCAFE));
        let report = sharded.run(900, 0);
        prop_assert_eq!(report.completed, 900);
        sharded.settle(Duration::from_millis(4));
        for g in 0..3 {
            let d: Vec<Digest> = (0..3).map(|r| sharded.app_digest(g, r)).collect();
            prop_assert!(
                d.windows(2).all(|w| w[0] == w[1]),
                "shard {} (replacement in shard {}, victim {}): replicas diverged",
                g, shard, victim
            );
        }
    }
}
