//! Leader failover: crash the leader mid-run and watch the view change
//! elect a new one while every surviving replica stays consistent — and
//! keep serving at slow-path speed, not at one fast-path timeout per wait.
//!
//! ```sh
//! cargo run --release --example crash_failover
//! ```

use ubft::runtime::cluster::Cluster;
use ubft::runtime::SimConfig;
use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::PathMode;
use ubft_sim::failure::FailurePlan;
use ubft_types::{Duration, Time};

fn main() {
    let mut cfg = SimConfig::paper_default(5);
    cfg.path = PathMode::FastWithFallback;
    // The leader (replica 0) crashes 2 ms into the run.
    cfg.failures = FailurePlan::none().crash_replica(0, Time::ZERO + Duration::from_millis(2));
    let apps: Vec<Box<dyn App>> =
        (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let workload = Box::new(|i: u64| i.to_le_bytes().to_vec());
    let mut cluster = Cluster::new(cfg, apps, workload);
    // The crash lands about 230 requests in; the last 500 are all served
    // by the two survivors.
    let report = cluster.run(500, 500);
    let mut lat = report.latency;
    println!("requests completed across the leader crash: {}", report.completed);
    println!("final views: {:?}", report.views);
    println!("post-failover p50 {:>9}  p99 {:>9}", lat.median(), lat.percentile(99.0));
    assert!(
        report.views.iter().skip(1).any(|v| v.0 >= 1),
        "surviving replicas should have moved past view 0"
    );
    // With one replica down a request is ~204 us: the 3-of-3 slow path
    // (~158 us, EXPERIMENTS.md, Fig. 8) plus the one verification 2-of-3
    // cannot hide — the survivor's decision waits for the new leader's
    // COMMIT, which waits for the survivor's own share. Each of the three
    // fast-path waits that re-discovers the dead leader would add 200 us.
    let degraded = Duration::from_micros(158) + Duration::from_nanos(45_500);
    assert!(
        lat.median() < degraded + Duration::from_micros(5),
        "degraded requests cost {}, more than a slow-path request and one verification",
        lat.median()
    );
}
