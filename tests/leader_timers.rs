//! What a batched leader's timers cost it. Every timer that fires is one
//! dispatch on the leader's main core, and on `flip_batched`'s
//! configuration that core is the bottleneck. The echo-round fallback
//! (§5.4) used to be one timer per request, armed at its receipt and
//! firing 100 µs later to find it long proposed: 0.99 timer inputs per
//! request, 13 % of the leader's core. It is one sweep per leader now,
//! armed only while some request waits for its echoes.

use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::runtime::cluster::{Cluster, RunReport};
use ubft::runtime::SimConfig;

const REQUESTS: u64 = 8_000;
const WARMUP: u64 = 100;

fn run(cfg: SimConfig) -> RunReport {
    let apps = (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let workload = Box::new(|i: u64| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    });
    let report = Cluster::new(cfg, apps, workload).run(REQUESTS, WARMUP);
    assert_eq!(report.completed, REQUESTS + WARMUP);
    assert!(report.views.iter().all(|v| v.0 == 0), "fault-free run changed view");
    report
}

#[test]
fn the_batched_leader_sweeps_for_echo_fallbacks_instead_of_timing_each_request() {
    // `flip_batched`: 64 clients, batches of 16, two slots in flight, fast
    // path only.
    let cfg = SimConfig::paper_default(0xA5F0_2023)
        .fast_only()
        .with_max_request(64)
        .with_clients(64)
        .with_pipeline_depth(2)
        .with_batch(16);
    let report = run(cfg);
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
