//! Multi-group deployment tests: key routing, fault isolation between
//! consensus groups, and a `Cluster` that refuses a fault plan or an
//! application list that does not fit its groups.
//!
//! The isolation tests exploit a deliberate property of the simulator:
//! with a zero-jitter latency model the shared fabric never consumes
//! randomness, so the only coupling between groups is the shared event
//! queue's *ordering* — which cannot move any group's virtual-time
//! trajectory. A fault injected into shard 1 must therefore leave shard
//! 0's entire report bit-for-bit unchanged.

use std::cell::Cell;
use std::rc::Rc;

use proptest::prelude::*;
use ubft::runtime::cluster::Cluster;
use ubft::runtime::{RunReport, SimConfig};
use ubft_apps::workload::{kv_request, WorkloadRng};
use ubft_apps::{KvApp, KvFrontend, KvOp, ShardRouter};
use ubft_core::app::App;
use ubft_sim::failure::{ByzantineMode, FailurePlan};
use ubft_sim::net::LatencyModel;
use ubft_types::wire::Wire;
use ubft_types::{Duration, Time, View};

fn kv_apps(n: usize) -> Vec<Box<dyn App>> {
    (0..n).map(|_| Box::new(KvApp::new(KvFrontend::Redis)) as Box<dyn App>).collect()
}

fn kv_workload(seed: u64) -> Box<dyn FnMut(u64) -> Vec<u8>> {
    let mut rng = WorkloadRng::new(seed);
    let mut populated = 0u64;
    Box::new(move |_| kv_request(&mut rng, &mut populated))
}

/// Strips the fields of a report that are meaningful for cross-run
/// comparison of one shard (the global `end` timestamp is shared across
/// shards, so it is excluded).
type ShardFingerprint = (
    u64,
    ubft::runtime::OpCounters,
    Vec<View>,
    (usize, Duration, Duration),
    Vec<ubft_crypto::Digest>,
    Vec<u64>,
);

fn shard_fingerprint(report: &RunReport, cluster: &Cluster, g: usize) -> ShardFingerprint {
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
        (0..3).map(|r| cluster.app_digest(g * 3 + r)).collect(),
        (0..3).map(|r| cluster.decided_of(g * 3 + r)).collect(),
    )
}

/// Sharded runs complete their total target and spread keys over groups.
#[test]
fn sharded_run_distributes_work_across_groups() {
    let cfg = SimConfig::paper_default(12).fast_only().with_shards(4);
    let mut cluster = Cluster::new(cfg, kv_apps(12), kv_workload(9));
    let report = cluster.run(400, 40);
    assert_eq!(report.completed, 440);
    assert_eq!(report.groups.len(), 4);
    // FNV spreads the key space: every group did real work.
    for (g, shard) in report.groups.iter().enumerate() {
        assert!(shard.completed > 0, "shard {g} idle");
        // Within a shard, correct replicas agree.
        let d: Vec<_> = (0..3).map(|r| cluster.app_digest(g * 3 + r)).collect();
        assert!(d.windows(2).all(|w| w[0] == w[1]), "shard {g} diverged");
        // Replica `r` of group `g` is replica `g·3 + r` to every accessor,
        // the order of the report's views.
        for (r, rep) in shard.replicas.iter().enumerate() {
            assert_eq!(rep.app_digest, d[r], "reported digest of group {g} replica {r}");
            assert_eq!(rep.decided, cluster.decided_of(g * 3 + r));
            assert_eq!(report.views[g * 3 + r], View(rep.final_view));
        }
    }
    let sum: u64 = report.groups.iter().map(|s| s.completed).sum();
    assert_eq!(sum, report.completed);
}

/// Register banks are partitioned per group on the shared memory nodes:
/// each shard adds its own banks, so per-node disaggregated bytes scale
/// with the shard count while each shard's slice stays constant.
#[test]
fn shard_memory_is_partitioned_on_shared_nodes() {
    let one = Cluster::new(SimConfig::paper_default(1), kv_apps(3), kv_workload(1));
    let four =
        Cluster::new(SimConfig::paper_default(1).with_shards(4), kv_apps(12), kv_workload(1));
    let per_group1: Vec<usize> = one.disagg_bytes_per_group().collect();
    let per_group4: Vec<usize> = four.disagg_bytes_per_group().collect();
    assert_eq!(per_group1.len(), 1);
    assert_eq!(per_group4.len(), 4);
    assert_eq!(four.disagg_bytes_per_node(), 4 * one.disagg_bytes_per_node());
    assert!(per_group4.iter().all(|&b| b == one.disagg_bytes_per_node()));
    // Replica-local memory does not grow with the shard count: groups
    // stay small — that is the point of sharding.
    assert_eq!(four.replica_local_bytes(0), one.replica_local_bytes(0));
}

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

/// Runs a `shards`-group deployment under `failures` for a fixed slice of
/// virtual time on a zero-jitter network.
fn run_fixed_window(seed: u64, shards: usize, failures: FailurePlan) -> (RunReport, Cluster) {
    let mut cfg = SimConfig::paper_default(seed).with_shards(shards);
    cfg.failures = failures;
    // Zero jitter: the fabric consumes no randomness, so shard
    // trajectories are fully independent (see module docs).
    cfg.latency = LatencyModel {
        base: Duration::from_nanos(850),
        picos_per_byte: 80,
        jitter: Duration::ZERO,
    };
    let mut cluster = Cluster::new(cfg, kv_apps(3 * shards), kv_workload(seed ^ 0xF00D));
    // Huge target + fixed deadline: every shard issues continuously for
    // the same virtual window in every run.
    let report = cluster.run_until(1_000_000, 0, Time::ZERO + Duration::from_millis(3));
    (report, cluster)
}

/// A replica crash inside group 1 must leave every other group's entire
/// report — completions, counters, views, latency samples, app digests,
/// decided counts — bit-for-bit unchanged, and must land in group 1: it
/// loses throughput, and its survivors change view. Before faults named their
/// group, a `Cluster` ran one group whatever `shards` said and a crash
/// addressed to group 1 was dropped without a word (views `[0, 0, 0]`).
#[test]
fn replica_crash_is_contained_to_its_shard() {
    let crash = FailurePlan::none().crash_replica(0, us(200));
    for (shards, seed) in [(3, 41), (2, 3)] {
        let (clean, clean_sc) = run_fixed_window(seed, shards, FailurePlan::none());
        let failures = FailurePlan::none().in_group(1, crash.clone());
        let (faulty, mut faulty_sc) = run_fixed_window(seed, shards, failures);

        for g in (0..shards).filter(|g| *g != 1) {
            assert_eq!(
                shard_fingerprint(&clean, &clean_sc, g),
                shard_fingerprint(&faulty, &faulty_sc, g),
                "{shards} groups: group {g} was perturbed by group 1's crash"
            );
            assert!(clean.groups[g].views.iter().all(|v| *v == View(0)));
        }
        assert!(faulty.groups[1].completed < clean.groups[1].completed);
        // Once the progress watchdog fires, group 1's survivors (replicas 4
        // and 5) move to a new view.
        faulty_sc.settle(Duration::from_millis(10));
        let survivors: Vec<View> = (4..6).map(|i| faulty_sc.view_of(i)).collect();
        assert!(survivors.iter().all(|v| v.0 >= 1), "{shards} groups: views {survivors:?}");
    }
}

/// Same containment for a Byzantine fault: a censoring leader in shard 1
/// cannot move a single bit of the other shards' reports.
#[test]
fn byzantine_fault_is_contained_to_its_shard() {
    let (clean, clean_sc) = run_fixed_window(43, 3, FailurePlan::none());
    let censor = FailurePlan::none().byzantine(0, ByzantineMode::CensorRequests, us(150));
    let (faulty, faulty_sc) = run_fixed_window(43, 3, FailurePlan::none().in_group(1, censor));

    for g in [0usize, 2] {
        assert_eq!(
            shard_fingerprint(&clean, &clean_sc, g),
            shard_fingerprint(&faulty, &faulty_sc, g),
            "shard {g} was perturbed by shard 1's Byzantine leader"
        );
    }
    // Censorship must have cost shard 1 throughput (it needs a view
    // change to make progress again).
    assert!(faulty.groups[1].completed < clean.groups[1].completed);
}

/// A fault addressed to a group the deployment does not have is refused at
/// build. Before, a 3-group deployment ran a crash addressed to group 5 as
/// if it had never been scheduled.
#[test]
#[should_panic(expected = "the fault plan addresses group 5, but the deployment has 2 group(s)")]
fn a_fault_in_a_missing_group_is_refused() {
    let mut cfg = SimConfig::paper_default(3).with_shards(2);
    cfg.failures = FailurePlan::none().in_group(5, FailurePlan::none().crash_replica(0, us(200)));
    let _ = Cluster::new(cfg, kv_apps(6), kv_workload(3));
}

/// `Cluster::new` takes `n` applications per group, group 0's first.
#[test]
#[should_panic(expected = "got 3 application instances; 2 group(s) of 3 replicas need 6")]
fn the_wrong_number_of_apps_is_refused() {
    let _ = Cluster::new(SimConfig::paper_default(3).with_shards(2), kv_apps(3), kv_workload(3));
}

/// The closed loop stops at its target on every shard. Keys route to
/// group 0 for the first 1 500 stream indices, so group 1's client is
/// starved for the whole run and is still polling the source, with
/// back-off, when group 0 completes the 100th request. A poll that fires
/// during `settle` must neither pull the source nor issue: before the
/// client loop was shared, the simulator's did both (the source was called
/// 348 more times, and group 1 decided a request the run never owed it).
#[test]
fn a_starved_shard_issues_nothing_once_the_target_is_met() {
    let router = ShardRouter::new(2);
    // A 16-byte key of stream index `i`, salted until it routes to `g`.
    let key_for = move |i: u64, g: usize| {
        let salted = |salt: u64| [i.to_le_bytes(), salt.to_le_bytes()].concat();
        (0..).map(salted).find(|key| router.route_key(key) == g).expect("a key per group")
    };
    let pulls = Rc::new(Cell::new(0u64));
    let counted = Rc::clone(&pulls);
    let workload = Box::new(move |i: u64| {
        counted.set(counted.get() + 1);
        KvOp::Set { key: key_for(i, usize::from(i >= 1_500)), value: vec![7; 8] }.to_bytes()
    });
    let cfg = SimConfig::paper_default(5).fast_only().with_shards(2);
    let mut cluster = Cluster::new(cfg, kv_apps(6), workload);

    let report = cluster.run(100, 0);
    assert_eq!(report.groups[0].completed, 100);
    let pulled_by_the_run = pulls.get();
    assert!(pulled_by_the_run < 1_500, "group 1 was meant to starve ({pulled_by_the_run} pulls)");

    cluster.settle(Duration::from_millis(5));
    assert_eq!(pulls.get(), pulled_by_the_run, "the source was pulled after the run ended");
    for r in 0..3 {
        assert_eq!(cluster.decided_of(3 + r), 0, "group 1 replica {r} decided a request");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    /// Routing is a pure function of the key: two independent routers
    /// agree, every KV operation on a key colocates with it, and the
    /// result is always a valid group index.
    #[test]
    fn routing_is_deterministic(
        key in proptest::collection::vec(any::<u8>(), 0..48),
        value in proptest::collection::vec(any::<u8>(), 0..48),
        shards in 1usize..12,
    ) {
        let mut a = ShardRouter::new(shards);
        let mut b = ShardRouter::new(shards);
        let set = KvOp::Set { key: key.clone(), value }.to_bytes();
        let get = KvOp::Get { key: key.clone() }.to_bytes();
        let del = KvOp::Del { key: key.clone() }.to_bytes();
        let g = a.route(&set);
        prop_assert!(g < shards);
        prop_assert_eq!(g, b.route(&get));
        prop_assert_eq!(g, a.route(&del));
        prop_assert_eq!(g, a.route_key(&key));
        prop_assert_eq!(g, ShardRouter::new(shards).route_key(&key));
    }

    /// Keyless payloads that do not parse as KV operations round-robin
    /// over all groups, one per call.
    #[test]
    fn keyless_payloads_round_robin(shards in 1usize..8, rounds in 1usize..4) {
        // 0xFF is never a valid KvOp tag, so this payload is keyless.
        let payload = vec![0xFFu8, 0x01, 0x02];
        let mut r = ShardRouter::new(shards);
        for round in 0..rounds {
            for g in 0..shards {
                prop_assert_eq!(r.route(&payload), g, "round {}", round);
            }
        }
    }
}
