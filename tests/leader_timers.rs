//! What a batched leader's inputs cost it. Every timer that fires and
//! every message that arrives is one dispatch on the leader's main core,
//! and on `flip_batched`'s configuration that core is the bottleneck.
//!
//! The echo-round fallback (§5.4) used to be one timer per request, armed
//! at its receipt and firing 100 µs later to find it long proposed: 0.99
//! timer inputs per request, 13 % of the leader's core. It is one sweep
//! per leader now, armed only while some request waits for its echoes.
//!
//! Each follower used to echo every request in a message of its own: two
//! dispatches per request at the leader, the largest share of its core
//! that did not amortize with the batch. A follower whose core works off a
//! backlog now sends the echoes of a run of client requests as one message
//! of at most `max_batch` requests, and the leader takes it as one input.

use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::runtime::cluster::{Cluster, RunReport};
use ubft::runtime::SimConfig;

const REQUESTS: u64 = 8_000;
const WARMUP: u64 = 100;

/// `flip_batched`: 64 clients, batches of 16, two slots in flight, fast
/// path only.
fn flip_batched() -> SimConfig {
    SimConfig::paper_default(0xA5F0_2023)
        .fast_only()
        .with_max_request(64)
        .with_clients(64)
        .with_pipeline_depth(2)
        .with_batch(16)
}

fn run(cfg: SimConfig) -> RunReport {
    run_for(cfg, REQUESTS)
}

fn run_for(cfg: SimConfig, requests: u64) -> RunReport {
    let apps = (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let workload = Box::new(|i: u64| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    });
    let report = Cluster::new(cfg, apps, workload).run(requests, WARMUP);
    assert_eq!(report.completed, requests + WARMUP);
    assert!(report.views.iter().all(|v| v.0 == 0), "fault-free run changed view");
    report
}

#[test]
fn the_batched_leader_sweeps_for_echo_fallbacks_instead_of_timing_each_request() {
    let report = run(flip_batched());
    let leader = report.groups[0].replicas[0].timers;
    let per_request = leader.echo_fallback as f64 / report.completed as f64;
    assert!(
        per_request < 0.05,
        "{per_request:.3} echo-fallback timer inputs per request at the leader ({leader:?})"
    );
    // Followers never wait for echoes.
    for r in 1..3 {
        assert_eq!(report.groups[0].replicas[r].timers.echo_fallback, 0, "replica {r}");
    }
}

#[test]
fn busy_followers_coalesce_their_echoes_up_to_a_batch() {
    // Each follower echoed every request on its own: 2.02 direct messages
    // per request. Coalesced, the leader handles 0.51: a run of requests
    // ends at the follower's next protocol message as well as at idle.
    let report = run(flip_batched());
    let per_request = report.counters.direct_msgs as f64 / report.completed as f64;
    assert!(per_request < 0.6, "{per_request:.3} direct messages per request");
    // A message carries at most `max_batch` echoes: two followers send at
    // least 2 / 16 per request.
    assert!(per_request >= 2.0 / 16.0, "{per_request:.3} direct messages per request");
}

#[test]
fn an_unbatched_group_echoes_every_request_on_its_own() {
    // `flip_fast`: one client, batches of one. Nothing waits: each of the
    // two followers sends one echo per request. The other direct messages
    // are summary certification shares (Algorithm 4), one from each
    // follower per 64 messages on the leader's CTBcast stream: 254 here.
    let report = run(SimConfig::paper_default(0xA5F0_2023).fast_only());
    let shares = report.counters.direct_msgs.checked_sub(2 * report.completed);
    assert!(shares.is_some_and(|s| s <= report.completed / 30), "{:?}", report.counters);
}

#[test]
fn coalesced_echoes_leave_the_batched_latency_independent_of_the_seed() {
    // Only jitter differs between seeds. Echoes that waited for a
    // follower's whole busy spell let the closed loop settle into one of
    // two rhythms, the pipeline's two slots evenly spaced or in pairs: p50
    // 24.47 or 25.53 µs, seed 2 of these in the slower. Ending the wait at
    // the follower's next input that is not a client request leaves one.
    let p50s: Vec<u64> = (1..=6)
        .map(|seed| {
            let mut cfg = flip_batched();
            cfg.seed = seed;
            run_for(cfg, 3_000).latency.median().as_nanos()
        })
        .collect();
    let (min, max) = (p50s.iter().min().expect("6 runs"), p50s.iter().max().expect("6 runs"));
    assert!(max * 1_000 <= min * 1_005, "flip_batched p50 by seed, ns: {p50s:?}");
}
