//! Degraded operation: between a crash and the replacement's rejoin the
//! group must run at *slow-path* speed, not at slow-path speed plus one
//! fast-path timeout per wait.
//!
//! A request that meets a dead replica used to re-discover it three times —
//! the leader's PREPARE CTBcast, the slot's WILL_* round and every
//! replica's COMMIT CTBcast each waited out `slow_trigger` (200 µs) before
//! signing — and every retransmission tick re-sent the whole buffered tail
//! of four TBcast streams to a host whose queue pair had long reported the
//! writes refused. Now each state machine suspects the silent peer after
//! its first timeout and starts the slow path beside the fast one until
//! the peer speaks again, and a refused write turns retransmission to that
//! peer into one probe per tick.

use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::runtime::calibration::PROGRESS_TIMEOUT;
use ubft::runtime::cluster::{Cluster, RunReport};
use ubft::runtime::SimConfig;
use ubft_apps::workload::{kv_request, WorkloadRng};
use ubft_apps::{KvApp, KvFrontend};
use ubft_core::PathMode;
use ubft_sim::failure::{ByzantineMode, FailurePlan};
use ubft_types::{Duration, Time};

const SEED: u64 = 0xDE64;
const REQUESTS: u64 = 1_000;

fn us(n: u64) -> Time {
    Time::ZERO + Duration::from_micros(n)
}

fn run_flip(cfg: SimConfig, requests: u64) -> RunReport {
    let apps = (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let workload = Box::new(|i: u64| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    });
    let report = Cluster::new(cfg, apps, workload).run(requests, 0);
    assert_eq!(report.completed, requests);
    report
}

fn crash(cfg: SimConfig, replica: usize) -> SimConfig {
    let mut cfg = cfg;
    cfg.failures = FailurePlan::none().crash_replica(replica, us(2_000));
    cfg
}

#[test]
fn after_a_leader_crash_requests_cost_one_slow_path_and_no_dead_letters() {
    let cfg = SimConfig::paper_default(SEED);
    let verify = cfg.cost.verify_total();
    let mut slow = run_flip(cfg.clone().slow_only(), REQUESTS);
    let mut degraded = run_flip(crash(cfg, 0), REQUESTS);
    assert!(degraded.views.iter().skip(1).all(|v| v.0 >= 1), "no view change happened");
    // The crash lands about 230 requests in, so the median request is a
    // degraded one. The floor is the 3-of-3 slow path plus one
    // verification, not (as until PR 20) 1.1 x the slow path: with every
    // replica up a follower has its certificate — its own share, signed,
    // and the leader's early one, checked, both while the PREPARE was still
    // being verified — as soon as it accepts the PREPARE, and its COMMIT,
    // signed meanwhile, leaves at once; it decides on its own COMMIT and
    // the other follower's, and three public-key operations block (sign
    // PREPARE, verify it, verify the other's COMMIT). With one replica down
    // the follower's decision needs the leader's COMMIT, whose certificate
    // needs the follower's share, which leaves only once the follower
    // accepted the PREPARE and which the leader can only verify then: that
    // fourth step is inherent to 2-of-3. A fast-path timeout per request
    // (200 us) still fails this by 150 us.
    let (floor, p50) = (slow.latency.median(), degraded.latency.median());
    let bound = floor + verify + Duration::from_micros(2);
    assert!(
        p50 <= bound,
        "degraded p50 {p50} is more than one verification above the slow-path p50 {floor}: a \
         fast-path timeout is paid per request again"
    );
    let c = degraded.counters;
    let per_req = (c.ctb_msgs + c.cons_msgs) / degraded.completed;
    assert!(per_req <= 100, "{per_req} TBcast frames per request: the tail goes to the dead host");
}

#[test]
fn degraded_latency_does_not_depend_on_the_seed() {
    // A follower used to join a slot's slow path only once the leader's
    // share had *verified*, unless it suspected the dead replica — which it
    // did only if its own fast-path timer had once fired on an undecided
    // slot. Where the first degraded slot happened to decide inside the
    // 200 us it never did, and every later request paid the check before
    // the signature: 221 us on one seed, 204 on the next. Joining when the
    // share is admitted makes the order of those two events irrelevant.
    // 600 requests: about 230 before the crash, so the median is degraded.
    let p50s: Vec<Duration> = (1..=8)
        .map(|seed| run_flip(crash(SimConfig::paper_default(seed), 0), 600).latency.median())
        .collect();
    let (min, max) = (p50s.iter().min().expect("8 runs"), p50s.iter().max().expect("8 runs"));
    assert!(*max <= *min + Duration::from_micros(1), "degraded p50 by seed: {p50s:?}");
}

#[test]
fn a_leader_crash_costs_one_watchdog_and_one_checkpoint_wherever_it_lands() {
    // The sealers used to discharge their WILL_COMMIT promises on every
    // fast-path slot since the last checkpoint by slow path, two slots per
    // verification, so the outage grew with where in the window the leader
    // died: 6.6 / 9.1 / 14.9 / 7.9 / 12.2 ms for the crashes below. One
    // checkpoint at the execution frontier discharges them all at once: the
    // watchdog (up to twice its period, as it may just have re-armed), one
    // share signed and one checked, SEAL, CRTFY_VC, NEW_VIEW.
    let bound = PROGRESS_TIMEOUT * 2 + Duration::from_millis(1);
    for at in [300, 1_000, 2_000, 3_000, 4_000] {
        let mut cfg = SimConfig::paper_default(1);
        cfg.failures = FailurePlan::none().crash_replica(0, us(at));
        let mut report = run_flip(cfg, REQUESTS);
        assert!(report.views.iter().skip(1).all(|v| v.0 >= 1), "crash at {at} us: no view change");
        let outage = report.latency.max();
        println!("leader crash at {at} us: longest request {outage}");
        assert!(outage <= bound, "crash at {at} us: a request waited {outage} (bound {bound})");
    }
}

/// r0, the leader of view 0, is cut off from both peers during
/// `[from, until)`: one client, 3 000 requests, 400 ms to do them in.
fn run_with_leader_cut_off(from: u64, until: u64) -> RunReport {
    let mut cfg = SimConfig::paper_default(1);
    cfg.failures = FailurePlan::none().partition(0, 1, us(from), us(until)).partition(
        0,
        2,
        us(from),
        us(until),
    );
    let apps = (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
    let workload = Box::new(|i: u64| {
        let mut p = vec![0u8; 32];
        p[..8].copy_from_slice(&i.to_le_bytes());
        p
    });
    let report = Cluster::new(cfg, apps, workload).run_until(3_000, 0, us(400_000));
    let brands: Vec<_> = report.groups[0].replicas.iter().map(|r| &r.branded).collect();
    assert!(brands.iter().all(|b| b.is_empty()), "honest replicas branded: {brands:?}");
    assert_eq!(report.completed, 3_000, "stalled");
    println!("r0 cut off during [{from}, {until}) us: 3 000 requests done at {}", report.end);
    report
}

#[test]
fn a_leader_cut_off_for_300_us_follows_its_peers_into_the_new_view() {
    // r1 and r2 depose r0 while it is cut off; r0 adopts view 1 from the
    // NEW_VIEW and must announce it on its own stream before its first
    // COMMIT in it, or its peers brand it `commit in stale v1` and the
    // group runs 2-of-3 for good (1 560 of 3 000 in 400 ms).
    let report = run_with_leader_cut_off(1_000, 1_300);
    assert!(report.end <= us(50_000), "3 000 requests took until {}", report.end);
}

#[test]
fn a_leader_cut_off_for_11_ms_rejoins_without_a_view_spiral() {
    // r0 used to end alone in view 7 after branding r1 `prepare in v1 but
    // peer is in v0`, with 2 482 of 3 000 done in 400 ms.
    let report = run_with_leader_cut_off(1_000, 12_000);
    assert!(report.end <= us(50_000), "3 000 requests took until {}", report.end);
}

#[test]
fn after_a_follower_crash_only_the_echo_round_still_waits() {
    let mut degraded = run_flip(crash(SimConfig::paper_default(SEED), 2), REQUESTS);
    assert!(degraded.views.iter().take(2).all(|v| v.0 == 0), "a follower crash changed view");
    // One 2-of-3 slow path (~165 us) plus the leader's `echo_fallback`
    // (100 us): the view stays 0, where the leader waits for every
    // follower's echo before it proposes. Suspecting the dead follower in
    // the echo round too is a separate change (it interacts with held
    // prepares).
    let p50 = degraded.latency.median();
    assert!(p50 <= Duration::from_micros(320), "degraded p50 {p50}");
}

/// `tests/recovery.rs`'s deployment: checkpoints every 32 slots.
fn recovery_cfg() -> SimConfig {
    SimConfig::paper_default(0xA5F0_2026).with_tail(16).with_window(32)
}

fn run_kv(cfg: SimConfig) -> (Cluster, RunReport) {
    let apps = (0..3).map(|_| Box::new(KvApp::new(KvFrontend::Redis)) as Box<dyn App>).collect();
    let mut rng = WorkloadRng::new(0xA5F0_2026 ^ 0xF00D);
    let mut populated = 0u64;
    let workload = Box::new(move |_| kv_request(&mut rng, &mut populated));
    let mut cluster = Cluster::new(cfg, apps, workload);
    // Only the last 100 of the 600 requests are measured.
    let report = cluster.run(100, 500);
    cluster.settle(Duration::from_millis(3));
    (cluster, report)
}

#[test]
fn a_replacement_clears_suspicion_and_the_fast_path_returns() {
    // The schedule that broke "fast path lost last time" as one global flag:
    // the survivors kept racing ahead on the slow path after the
    // replacement was back, and it never caught up.
    let (reference, mut fault_free) = run_kv(recovery_cfg());
    let cfg = recovery_cfg().with_replacement(0, us(985), Duration::from_micros(291));
    let (cluster, mut report) = run_kv(cfg);
    for r in 0..3 {
        assert_eq!(cluster.app_digest(r), reference.app_digest(0), "replica {r} diverged");
    }
    // A Redis-front-end KV request is ~24 us on the fast path (a 32 B Flip
    // is 8.8 us) and ~220 us on the slow one.
    let (floor, p50) = (fault_free.latency.median(), report.latency.median());
    assert!(
        p50.as_nanos() * 10 <= floor.as_nanos() * 11,
        "p50 of the last 100 requests is {p50}, fault-free {floor}: still on the slow path"
    );
}

#[test]
fn a_fault_free_run_suspects_nobody() {
    let report = run_flip(SimConfig::paper_default(SEED), REQUESTS);
    assert_eq!(report.counters.ctb_signs, 0, "a CTBcast was signed with every replica up");
    for (r, replica) in report.groups[0].replicas.iter().enumerate() {
        assert!(replica.branded.is_empty(), "replica {r} branded {:?}", replica.branded);
    }
}

#[test]
fn a_branded_leader_counts_as_suspected_and_no_request_waits_out_the_sweep() {
    // `examples/byzantine_leader`: r0, the leader of view 0, equivocates
    // from the start; the followers brand it and a view change deposes it.
    // A branded replica is never part of the fast path's unanimity, so
    // under the new leader every slot and every broadcast starts the slow
    // path at once. While a frame from the branded replica still cleared
    // its suspicion, each request waited out the fast path's sweep: p50
    // 471.9 us, and 50 sweep inputs on each follower for 50 requests.
    let mut cfg = SimConfig::paper_default(13);
    cfg.path = PathMode::FastWithFallback;
    cfg.failures = FailurePlan::none().byzantine(0, ByzantineMode::EquivocateProposals, Time::ZERO);
    let mut report = run_flip(cfg, 50);
    let p50 = report.latency.median();
    assert!(p50 <= Duration::from_micros(170), "p50 {p50}: requests wait out the sweep again");
    for r in 1..3 {
        let sweeps = report.groups[0].replicas[r].timers.slow_sweep;
        assert_eq!(sweeps, 0, "replica {r} fired the fast path's sweep {sweeps} times");
    }
}
