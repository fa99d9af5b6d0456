//! The fast path's latency tail and its slot interleaving.
//!
//! uBFT's fast path is signature-free; CTBcast summaries (Algorithm 4) are
//! bookkeeping that bounds memory and are triggered every `t/2` against a
//! budget of `t` precisely so that they certify *while* the broadcaster
//! keeps going (§5.2 fn. 3). A request that happens to cross a summary
//! boundary must therefore cost what any other request costs. When the
//! boundary's signature and verifications sat on the request path, every
//! 64th request took 162 µs instead of 8.8 µs and a second closed-loop
//! client gained only 1.6×.

use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::runtime::cluster::{Cluster, RunReport};
use ubft::runtime::SimConfig;
use ubft::types::{Duration, Time};

const REQUESTS: u64 = 2_000;
const WARMUP: u64 = 100;

fn run_fast_path(clients: usize) -> RunReport {
    let cfg = SimConfig::paper_default(0x7A11).fast_only().with_clients(clients);
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

fn kreq_per_s(report: &RunReport) -> f64 {
    report.completed as f64 / report.end.since(Time::ZERO).as_nanos() as f64 * 1e6
}

#[test]
fn summary_boundaries_leave_no_mark_on_the_fast_path_tail() {
    let mut lat = run_fast_path(1).latency;
    assert_eq!(lat.len() as u64, REQUESTS);
    let (p50, p99, max) = (lat.median(), lat.percentile(99.0), lat.max());
    assert!(
        p99.as_nanos() * 4 <= p50.as_nanos() * 5,
        "p99 {p99} is more than 1.25 x p50 {p50}: crypto is back on a blocking step"
    );
    // 2 000 requests cross 32 summary boundaries (1.6 %) and 8 checkpoints
    // (0.4 %); only the checkpoint — which must precede proposals into the
    // window it opens — may still show.
    let slow = lat.sorted_samples().iter().filter(|d| d.as_nanos() > 2 * p50.as_nanos()).count();
    assert!(slow * 100 < REQUESTS as usize, "{slow} of {REQUESTS} samples above 2 x p50 {p50}");
    assert!(max <= Duration::from_micros(163), "max {max} is worse than the old boundary stall");
}

#[test]
fn a_second_client_nearly_doubles_fast_path_throughput() {
    // The paper interleaves consecutive slots (~2x with two clients); a
    // summary boundary that stalls the pipeline trims that to ~1.6x.
    let (one, two) = (kreq_per_s(&run_fast_path(1)), kreq_per_s(&run_fast_path(2)));
    assert!(two >= 1.8 * one, "two clients reach {two:.1} kreq/s, one reaches {one:.1}");
}
