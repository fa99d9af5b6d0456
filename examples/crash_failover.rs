//! Leader failover: crash the leader mid-run and watch the view change
//! elect a new one while every surviving replica stays consistent — and
//! keep serving at slow-path speed, not at one fast-path timeout per wait.
//!
//! ```sh
//! cargo run --release --example crash_failover
//! ```

use ubft::runtime::cluster::{Cluster, RunReport};
use ubft::runtime::SimConfig;
use ubft_apps::FlipApp;
use ubft_core::app::App;
use ubft_core::PathMode;
use ubft_sim::failure::FailurePlan;
use ubft_types::{Duration, Time};

const SEED: u64 = 5;

/// `requests` measured after `warmup` unmeasured ones, one client.
fn run(cfg: SimConfig, requests: u64, warmup: u64) -> RunReport {
    let apps: Vec<Box<dyn App>> =
        (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let workload = Box::new(|i: u64| i.to_le_bytes().to_vec());
    Cluster::new(cfg, apps, workload).run(requests, warmup)
}

fn main() {
    let mut cfg = SimConfig::paper_default(SEED);
    cfg.path = PathMode::FastWithFallback;
    // The leader (replica 0) crashes 2 ms into the run.
    cfg.failures = FailurePlan::none().crash_replica(0, Time::ZERO + Duration::from_millis(2));
    let verify = cfg.cost.verify_total();
    // The crash lands about 230 requests in; the last 500 are all served
    // by the two survivors.
    let report = run(cfg, 500, 500);
    let mut lat = report.latency;
    println!("requests completed across the leader crash: {}", report.completed);
    println!("final views: {:?}", report.views);
    println!("post-failover p50 {:>9}  p99 {:>9}", lat.median(), lat.percentile(99.0));
    assert!(
        report.views.iter().skip(1).any(|v| v.0 >= 1),
        "surviving replicas should have moved past view 0"
    );
    // With one replica down a request costs the 3-of-3 slow path of the
    // same seed, all replicas up, plus the one verification 2-of-3 cannot
    // hide: the survivor's decision waits for the new leader's COMMIT, whose
    // certificate needs the survivor's share, which the leader can check
    // only once the survivor has accepted the PREPARE and sent it — four
    // public-key operations on the blocking chain where 3-of-3 has three
    // (sign PREPARE, verify it, verify a COMMIT; every COMMIT is signed
    // while its certificate is still being checked). Each of
    // the three fast-path waits that re-discovers the dead leader would add
    // 200 us.
    let floor = run(SimConfig::paper_default(SEED).slow_only(), 500, 500).latency.median();
    println!("fault-free slow-path p50 {floor:>9}");
    assert!(
        lat.median() <= floor + verify + Duration::from_micros(2),
        "degraded requests cost {}, more than a slow-path request ({floor}) and one verification",
        lat.median()
    );
}
