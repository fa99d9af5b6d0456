//! Workspace-level integration tests: the full simulated stack, end to end.

use ubft::runtime::cluster::Cluster;
use ubft::runtime::SimConfig;
use ubft_apps::{FlipApp, KvApp, KvFrontend, OrderBookApp};
use ubft_core::app::App;
use ubft_core::PathMode;
use ubft_sim::failure::FailurePlan;
use ubft_types::{Duration, Time};

fn flip_apps(n: usize) -> Vec<Box<dyn App>> {
    (0..n).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect()
}

fn fixed_payload(size: usize) -> Box<dyn FnMut(u64) -> Vec<u8>> {
    Box::new(move |i| {
        let mut p = vec![0u8; size];
        let k = 8.min(size);
        p[..k].copy_from_slice(&i.to_le_bytes()[..k]);
        p
    })
}

#[test]
fn fast_path_microsecond_latency() {
    let cfg = SimConfig::paper_default(1).fast_only();
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
    let report = cluster.run(300, 30);
    let mut lat = report.latency;
    assert!(lat.median() < Duration::from_micros(20), "median {}", lat.median());
    assert_eq!(report.counters.ctb_signs, 0, "fast path must not sign");
}

#[test]
fn slow_path_crypto_bound_but_correct() {
    let cfg = SimConfig::paper_default(2).slow_only();
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
    let report = cluster.run(100, 10);
    let mut lat = report.latency;
    assert!(lat.median() > Duration::from_micros(100));
    assert!(report.counters.reg_writes > 0, "slow path must touch registers");
    assert!(report.counters.reg_reads > 0);
    // What a slot verifies: each of its four signed broadcasts (the PREPARE
    // and three COMMITs) at the two receivers that did not sign it, and at
    // each replica the one peer CERTIFY share that completes its
    // certificate — plus a summary share now and then. A broadcaster
    // checking its own signature (4 per slot) or a replica checking the
    // share it does not need (3) is waste that used to be paid.
    let c = report.counters;
    assert_eq!(c.ctb_verifies, 8 * report.completed, "CTBcast verifications");
    let shares = c.engine_verifies as f64 / report.completed as f64;
    assert!((3.0..3.1).contains(&shares), "{shares:.2} engine verifications per request");
}

#[test]
fn checkpointing_run_crosses_window_boundary() {
    // Default window is 256: run 600 requests so two checkpoints happen and
    // the sliding window advances twice.
    let cfg = SimConfig::paper_default(3).fast_only();
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
    let report = cluster.run(600, 0);
    assert_eq!(report.completed, 600);
}

#[test]
fn kv_store_replication_end_to_end() {
    use ubft_apps::workload::{kv_request, WorkloadRng};
    let cfg = SimConfig::paper_default(4).fast_only();
    let apps: Vec<Box<dyn App>> =
        (0..3).map(|_| Box::new(KvApp::new(KvFrontend::Redis)) as Box<dyn App>).collect();
    let mut rng = WorkloadRng::new(5);
    let mut populated = 0u64;
    let workload = Box::new(move |_| kv_request(&mut rng, &mut populated));
    let mut cluster = Cluster::new(cfg, apps, workload);
    let report = cluster.run(400, 40);
    assert_eq!(report.completed, 440);
}

#[test]
fn order_book_replication_end_to_end() {
    use ubft_apps::workload::{order_request, WorkloadRng};
    let cfg = SimConfig::paper_default(5).fast_only();
    let apps: Vec<Box<dyn App>> =
        (0..3).map(|_| Box::new(OrderBookApp::new()) as Box<dyn App>).collect();
    let mut rng = WorkloadRng::new(6);
    let workload = Box::new(move |_| order_request(&mut rng));
    let mut cluster = Cluster::new(cfg, apps, workload);
    let report = cluster.run(400, 40);
    assert_eq!(report.completed, 440);
}

#[test]
fn leader_crash_triggers_view_change_and_recovery() {
    let mut cfg = SimConfig::paper_default(6);
    cfg.path = PathMode::FastWithFallback;
    // Crash the leader about halfway through the run (~9 µs per request on
    // the healthy fast path), so the tail must ride a view change.
    cfg.failures = FailurePlan::none().crash_replica(0, Time::ZERO + Duration::from_millis(1));
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
    let report = cluster.run(200, 0);
    assert_eq!(report.completed, 200);
    // The survivors moved to a new view led by replica 1.
    assert!(report.views[1].0 >= 1);
    assert!(report.views[2].0 >= 1);
}

#[test]
fn follower_crash_forces_slow_path_but_completes() {
    let mut cfg = SimConfig::paper_default(7);
    cfg.path = PathMode::FastWithFallback;
    // Crash follower 2 early enough that most of the run happens without it
    // (the whole 60-request run takes well under a millisecond when healthy).
    cfg.failures = FailurePlan::none().crash_replica(2, Time::ZERO + Duration::from_micros(100));
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
    let report = cluster.run(60, 0);
    assert_eq!(report.completed, 60);
    // With a crashed follower, fast-path unanimity fails: CTBcast falls back
    // to its signed slow path and the engine certifies via signatures.
    assert!(report.counters.ctb_signs > 0, "CTBcast slow path must sign");
    assert!(report.counters.engine_signs > 0, "engine slow path must sign");
}

#[test]
fn memory_node_crash_tolerated_on_slow_path() {
    let mut cfg = SimConfig::paper_default(8).slow_only();
    cfg.failures = FailurePlan::none().crash_mem_node(0, Time::ZERO);
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
    let report = cluster.run(50, 5);
    assert_eq!(report.completed, 55);
}

#[test]
fn deterministic_end_to_end() {
    let run = |seed: u64| {
        let cfg = SimConfig::paper_default(seed).fast_only();
        let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
        let r = cluster.run(100, 10);
        (r.latency.mean(), r.end)
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn five_replica_deployment() {
    let mut cfg = SimConfig::paper_default(10).fast_only();
    cfg.params = cfg.params.with_f(2);
    let mut cluster = Cluster::new(cfg, flip_apps(5), fixed_payload(32));
    let report = cluster.run(100, 10);
    assert_eq!(report.completed, 110);
}

#[test]
fn small_tail_still_live() {
    // t = 16 thrashes (Figure 11) but must never deadlock.
    let cfg = SimConfig::paper_default(11).fast_only().with_tail(16);
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(32));
    let report = cluster.run(300, 0);
    assert_eq!(report.completed, 300);
}

#[test]
fn large_requests_supported() {
    let cfg = SimConfig::paper_default(12).fast_only().with_max_request(4096);
    let mut cluster = Cluster::new(cfg, flip_apps(3), fixed_payload(4096));
    let report = cluster.run(50, 5);
    assert_eq!(report.completed, 55);
}
