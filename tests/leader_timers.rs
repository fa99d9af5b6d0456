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
//! that did not amortize with the batch. A follower with an accepted slot
//! undecided now holds its echoes until that slot decides, and sends them
//! as one message of at most `max_batch` requests; the leader takes it as
//! one input.
//!
//! Executing the requests took 230 of the leader's 409 ns of main-core
//! time per request. The application runs beside the event loop now, on
//! an execution core of its own.
//!
//! On the default path the fast path's timeout was one timer per slot at
//! every replica and one per CTBcast broadcast at its broadcaster, each
//! firing 200 µs after it was armed, long after its slot decided: 0.122
//! timer inputs per request at the leader and 0.061 at a follower, none of
//! which started anything. Each replica has one sweep over its slots and
//! one over its own broadcasts now, armed only while something waits.

use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::runtime::cluster::{Cluster, RunReport};
use ubft::runtime::SimConfig;
use ubft::types::Duration;

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

/// `flip_batched` on the default path: the fast path, with the slow path
/// as its fallback.
fn flip_batched_with_fallback() -> SimConfig {
    SimConfig::paper_default(0xA5F0_2023)
        .with_max_request(64)
        .with_clients(64)
        .with_pipeline_depth(2)
        .with_batch(16)
}

fn run(cfg: SimConfig) -> RunReport {
    run_for(cfg, REQUESTS)
}

fn cluster(cfg: SimConfig) -> Cluster {
    let apps = (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let workload = Box::new(|i: u64| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    });
    Cluster::new(cfg, apps, workload)
}

fn run_for(cfg: SimConfig, requests: u64) -> RunReport {
    let report = cluster(cfg).run(requests, WARMUP);
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
fn every_replica_sweeps_for_fast_path_timeouts_instead_of_timing_each_slot() {
    let report = run(flip_batched_with_fallback());
    for (r, replica) in report.groups[0].replicas.iter().enumerate() {
        let t = replica.timers;
        let per_request = (t.slow_sweep + t.ctb_sweep) as f64 / report.completed as f64;
        assert!(
            per_request <= 0.01,
            "replica {r}: {per_request:.4} slow-sweep inputs per request ({t:?})"
        );
    }
    // No fast path timed out: nothing was signed for the slow path.
    assert_eq!(report.counters.ctb_signs, 0, "{:?}", report.counters);
}

#[test]
fn busy_followers_coalesce_their_echoes_up_to_a_batch() {
    // Each follower echoed every request on its own: 2.02 direct messages
    // per request. Coalesced, the leader handles 0.40: a follower's echoes
    // wait while a slot it accepted is undecided, until it decides.
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
    // 24.47 or 25.53 µs. Echoes that leave when the follower accepts the
    // leader's next PREPARE fall into pairs too; leaving when the slot
    // decides keeps one rhythm. Seeds of one rhythm spread their p50s
    // evenly; a second rhythm shows as a gap between two neighbours.
    let mut p50s: Vec<u64> = (1..=40)
        .map(|seed| {
            let mut cfg = flip_batched();
            cfg.seed = seed;
            run(cfg).latency.median().as_nanos()
        })
        .collect();
    p50s.sort_unstable();
    let (min, median, max) = (p50s[0], p50s[20], p50s[39]);
    let gap = p50s.windows(2).map(|w| w[1] - w[0]).max().expect("40 runs");
    assert!(gap * 1_000 <= median * 5, "flip_batched p50 by seed, sorted, ns: {p50s:?}");
    assert!((max - min) * 1_000 <= median * 15, "flip_batched p50 by seed, sorted, ns: {p50s:?}");
}

#[test]
fn the_batched_leader_executes_on_a_core_of_its_own() {
    let cfg = flip_batched();
    let (dispatch, cost) = (cfg.cost.dispatch, FlipApp::new().execute_cost(&[]));
    let mut cluster = cluster(cfg);
    let report = cluster.run(REQUESTS, WARMUP);
    let leader = &report.groups[0].replicas[0];
    // Each slot the leader executed is one job on its execution core, one
    // dispatch, and each request in it the application's cost: none of it
    // is charged to its main core.
    let (jobs, executed) = (cluster.exec_next(0).0, leader.executed.len() as u64);
    let expected = dispatch.as_nanos() * jobs + cost.as_nanos() * executed;
    assert_eq!(leader.core.execution, Duration::from_nanos(expected), "{:?}", leader.core);
    let main = leader.core.main().as_nanos() as f64 / report.completed as f64;
    assert!(main < 250.0, "{main:.1} ns of main-core time per request ({:?})", leader.core);
}

#[test]
fn the_batched_leaders_main_core_time_is_filed_by_input_kind() {
    // The replica driver files its main core's time, input by input, on
    // the clock its substrate supplies: in the simulator, the dispatch
    // costs charged. These are the figures the simulator's substrate filed
    // by its own classification of each dispatch before it.
    let report = run(flip_batched());
    let c = report.groups[0].replicas[0].core;
    let main = [c.client_requests, c.direct_msgs, c.consensus_frames, c.ctb_frames];
    let main = main.into_iter().chain([c.timers, c.completions]).map(Duration::as_nanos);
    let expected = [652_640, 145_760, 348_480, 201_440, 2_560, 3_200];
    assert_eq!(main.collect::<Vec<_>>(), expected, "{c:?}");
}
