//! The fast path's latency tail and its slot interleaving.
//!
//! uBFT's fast path is signature-free. Its two periodic certifications —
//! a CTBcast summary every `t/2` messages (Algorithm 4) and a consensus
//! checkpoint every `window` slots (Algorithm 2 line 44) — are bookkeeping
//! that bounds memory, and each is triggered against a budget twice its
//! interval precisely so that it certifies *while* the group keeps going
//! (§5.2 fn. 3; PBFT's two-window watermark). A request that happens to
//! cross either boundary must therefore cost what any other request costs.
//! When the summary's signature and verifications sat on the request path,
//! every 64th request took 162 µs instead of 8.8 µs and a second
//! closed-loop client gained only 1.6×; when the checkpoint's did, every
//! 256th took 112 µs and 64 batched clients all waited at once (p99
//! 2.6 × p50).
//!
//! Two rules of the simulator are gated here as well, because this is
//! where breaking them shows: a message is never polled before it arrives
//! (two clients then ran *more* than twice as fast as one, by an amount
//! that differed from seed to seed), and background certification is
//! confined to one of a replica's two crypto workers (when it shared a
//! cursor with ordered crypto, a slow-path request that crossed a summary
//! boundary took a signature longer than the others — at p99).

use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::runtime::cluster::{Cluster, RunReport};
use ubft::runtime::SimConfig;
use ubft::types::{Duration, Time};

const REQUESTS: u64 = 2_000;
const WARMUP: u64 = 100;

fn run(cfg: SimConfig, requests: u64) -> RunReport {
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

fn run_fast_path(clients: usize) -> RunReport {
    run_fast_path_seeded(0x7A11, clients)
}

fn run_fast_path_seeded(seed: u64, clients: usize) -> RunReport {
    run(SimConfig::paper_default(seed).fast_only().with_clients(clients), REQUESTS)
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
    // 2 000 requests cross 32 summary boundaries and 8 checkpoints; neither
    // kind may show, not even as the one worst sample.
    assert!(
        max <= p99 + Duration::from_micros(1),
        "max {max} is more than 1 us above p99 {p99}: some request waited for a certification"
    );
}

#[test]
fn a_second_client_nearly_doubles_fast_path_throughput() {
    // The paper interleaves consecutive slots (~2x with two clients); a
    // boundary that stalls the pipeline re-aligns the two clients and
    // trims that (to 1.6x when every 64th request signed a summary).
    let (one, two) = (kreq_per_s(&run_fast_path(1)), kreq_per_s(&run_fast_path(2)));
    assert!(two >= 1.95 * one, "two clients reach {two:.1} kreq/s, one reaches {one:.1}");
    // Two interleaved requests share three main cores: each is a little
    // slower than one alone, never faster.
    assert!(two <= 2.0 * one, "two clients reach {two:.1} kreq/s, one reaches {one:.1}");
}

#[test]
fn two_client_throughput_does_not_depend_on_the_seed() {
    // Only jitter differs between seeds. When a message posted right
    // behind another could be polled a hop early, two clients a few hundred
    // nanoseconds apart ran at 8.55 us per request until jitter separated
    // them — at request 50 on one seed, never on another: 228.6 to 233.7
    // kreq/s. Half a cycle apart they run at 227.7 on every seed.
    let kreq: Vec<f64> = (1..=4).map(|seed| kreq_per_s(&run_fast_path_seeded(seed, 2))).collect();
    let (min, max) = kreq.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    assert!(max <= 1.003 * min, "two-client kreq/s by seed: {kreq:.1?}");
}

#[test]
fn summary_boundaries_leave_no_mark_on_the_slow_path_either() {
    // 600 slow-path requests cross 18 summary boundaries and 2 checkpoints.
    // The shares are background jobs confined to one of a replica's two
    // crypto workers; the slot's own CERTIFY signature and the check of the
    // leader's early share take whichever worker is free. When background
    // jobs shared a cursor with them, one that got in between cost the
    // request a whole signature (220 us at a 204 us median).
    //
    // Re-based in PR 20 (was: max <= p50 + 1 us). Until then the check of
    // the peer's share ran *behind* the own signature on one worker, and a
    // second worker that was busy with bookkeeping did not matter. Now the
    // two run side by side, so a request needs both workers at once, and
    // at a boundary it can find one of them on a summary or checkpoint
    // share: 3 of the 600 requests — all among the first 260, none in the
    // next 4 400 — wait for it, one signature at most (167.6, 167.7 and
    // 175.8 us), and no percentile a user would quote moves (p99.5 is
    // 158.7). All of it stays far below the 204 us median this path had.
    let cfg = SimConfig::paper_default(0x7A11).slow_only();
    let sign = cfg.cost.sign_total();
    let mut lat = run(cfg, 600).latency;
    let (p50, p99, max) = (lat.median(), lat.percentile(99.0), lat.max());
    assert!(
        p99 <= p50 + Duration::from_micros(1),
        "p99 {p99} is more than 1 us above p50 {p50}: bookkeeping is on the request path"
    );
    assert!(
        max <= p50 + sign + Duration::from_micros(1),
        "max {max} is more than a signature above p50 {p50}: a request waited for more than \
         one background job"
    );
}

#[test]
fn slow_path_latency_does_not_depend_on_the_seed() {
    // Only jitter differs between seeds; which requests cross a boundary,
    // and which worker a share check finds free there, must not show in
    // the figures the benchmark gates.
    let runs: Vec<(Duration, Duration)> = (1..=4)
        .map(|seed| {
            let mut lat = run(SimConfig::paper_default(seed).slow_only(), 600).latency;
            (lat.median(), lat.percentile(99.0))
        })
        .collect();
    for pick in [|r: &(Duration, Duration)| r.0, |r: &(Duration, Duration)| r.1] {
        let (min, max) = (runs.iter().map(pick).min(), runs.iter().map(pick).max());
        let (min, max) = (min.expect("4 runs").as_nanos(), max.expect("4 runs").as_nanos());
        assert!(max * 1_000 <= min * 1_003, "slow-path (p50, p99) by seed: {runs:?}");
    }
}

#[test]
fn batched_clients_do_not_queue_behind_a_checkpoint() {
    // 64 clients, batches of 16, two slots in flight: a checkpoint that
    // holds the leader back holds all 64 back at once.
    let cfg = SimConfig::paper_default(0x7A11)
        .fast_only()
        .with_max_request(64)
        .with_clients(64)
        .with_pipeline_depth(2)
        .with_batch(16);
    let mut lat = run(cfg, 8_000).latency;
    let (p50, p99) = (lat.median(), lat.percentile(99.0));
    assert!(
        p99.as_nanos() * 4 <= p50.as_nanos() * 5,
        "p99 {p99} is more than 1.25 x p50 {p50}: a checkpoint is back on the request path"
    );
}
