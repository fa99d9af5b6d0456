//! The five workloads, one repetition of each, and the correctness gate.
//!
//! Everything is measured from outside the program: around `Cluster::new`,
//! `Cluster::run_until` and `run_wallclock`, from the public reports, and from
//! the counting allocator. All workloads use f = 1 (3 replicas, 3 memory
//! nodes), 32-byte Flip requests and closed-loop clients.

use std::time::{Duration as HostDuration, Instant};

use ubft::apps::workload::{flip_request, WorkloadRng};
use ubft::apps::FlipApp;
use ubft::core::app::App;
use ubft::crypto::Digest;
use ubft::runtime::threads::{run_wallclock, ThreadWorkload, WallOptions};
use ubft::runtime::{Backend, Cluster, OpCounters, SimConfig};
use ubft::sim::failure::FailurePlan;
use ubft::types::{Duration, Time};

use crate::alloc::{self, AllocCount};
use crate::spans::Spans;

/// Bytes in every request.
pub const REQUEST_BYTES: usize = 32;
/// When `leader_crash` kills replica 0, in virtual milliseconds.
const CRASH_AT_MS: u64 = 2;
/// How long a threaded run lets lagging replicas drain before shutdown.
const SETTLE: HostDuration = HostDuration::from_millis(50);
/// The same for a simulated run, in virtual milliseconds, as `run_backend` does.
const SETTLE_VIRTUAL_MS: u64 = 5;

/// Which clock a workload's own latency is measured on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// `Backend::Sim`: virtual time, bit-identical across repetitions.
    Virtual,
    /// `Backend::Threads`: the host's wall clock.
    Wall,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists: which layers do the work.
    pub why: &'static str,
    /// The clock of the backend it runs on.
    pub clock: Clock,
    /// Measured requests per repetition.
    pub requests: u64,
    /// Leading completions left out of the latency distribution.
    pub warmup: u64,
    /// Replicas the fault plan crashes (their digests are not compared).
    pub crashed: &'static [usize],
    configure: fn(SimConfig) -> SimConfig,
}

/// The workloads, in the order they are reported.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "flip_fast",
        why: "1 client on the signature-less fast path: latency-bound; transport, ctb and core \
              work, crypto and dmem idle",
        clock: Clock::Virtual,
        requests: 2_000,
        warmup: 100,
        crashed: &[],
        configure: |c| c.fast_only(),
    },
    Workload {
        name: "flip_slow",
        why: "1 client forced onto the slow path: signatures and SWMR registers dominate, \
              transport does little",
        clock: Clock::Virtual,
        requests: 1_200,
        warmup: 100,
        crashed: &[],
        configure: |c| c.slow_only(),
    },
    Workload {
        name: "flip_batched",
        why: "64 clients, batch 16, pipeline 2 on the fast path: the same layers used for \
              throughput, so a latency gain that costs batch fill shows",
        clock: Clock::Virtual,
        requests: 8_000,
        warmup: 100,
        crashed: &[],
        configure: |c| {
            c.fast_only()
                .with_max_request(64)
                .with_clients(64)
                .with_pipeline_depth(2)
                .with_batch(16)
        },
    },
    Workload {
        name: "leader_crash",
        why: "leader crashes at 2 ms: view change, then 2-of-3 degraded operation; the regime \
              the liveness and engine work will rewrite",
        clock: Clock::Virtual,
        requests: 1_000,
        warmup: 0,
        crashed: &[0],
        configure: |mut c| {
            c.failures = FailurePlan::none()
                .crash_replica(0, Time::ZERO + Duration::from_millis(CRASH_AT_MS));
            c
        },
    },
    Workload {
        name: "threads_flip",
        why: "fast path, 2 clients, one OS thread per node and no injected delay: latency is \
              processor plus scheduler time",
        clock: Clock::Wall,
        requests: 2_000,
        warmup: 100,
        crashed: &[],
        configure: |c| c.fast_only().with_clients(2),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The simulator configuration: for a wall-clock workload, its twin on
    /// the modelled testbed, which supplies the virtual-time figures.
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        (self.configure)(SimConfig::paper_default(seed))
    }

    /// The threaded configuration of a wall-clock workload, timers stretched
    /// as in `wallclock_sweep`.
    fn threads_config(&self, seed: u64) -> SimConfig {
        self.sim_config(seed)
            .with_backend(Backend::Threads)
            .with_crypto_workers(1)
            .with_time_scale(200)
    }

    /// Measured and warm-up requests per repetition; a quarter of them for
    /// the smoke run, which still carries `leader_crash` past its crash at
    /// about the 230th request.
    pub fn sized(&self, quick: bool) -> (u64, u64) {
        if quick {
            (self.requests / 4, self.warmup / 4)
        } else {
            (self.requests, self.warmup)
        }
    }
}

/// The request stream: seeded, and the same for every repetition.
pub fn request_source(seed: u64) -> impl FnMut(u64) -> Vec<u8> + Send {
    let mut rng = WorkloadRng::new(seed ^ 0x77);
    move |_| flip_request(&mut rng, REQUEST_BYTES)
}

/// Everything about a simulated repetition that must repeat exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct SimExact {
    /// Requests completed, warm-up included.
    pub completed: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Median latency, virtual ns.
    pub p50_ns: u64,
    /// 99th percentile latency, virtual ns.
    pub p99_ns: u64,
    /// Longest latency, virtual ns.
    pub max_ns: u64,
    /// Virtual time when the last request completed, ns.
    pub end_ns: u64,
    /// Primitive operation counts.
    pub counters: OpCounters,
    /// Final view of every replica.
    pub views: Vec<u64>,
    /// Application digest of every replica.
    pub digests: Vec<Digest>,
    /// Requests and slots replica `leader` decided.
    pub decided: u64,
    /// First slot that replica has not executed.
    pub slots: u64,
    /// Register-bank bytes on one memory node.
    pub disagg_bytes: usize,
    /// Replica-local resident bytes of that replica.
    pub local_bytes: usize,
}

/// One simulated repetition.
#[derive(Clone, Debug)]
pub struct SimRep {
    /// The part that repeats exactly.
    pub exact: SimExact,
    /// Host seconds in `Cluster::new`.
    pub build_s: f64,
    /// Host seconds in `Cluster::run_until`.
    pub run_s: f64,
    /// Heap allocation during `Cluster::run_until`.
    pub allocs: AllocCount,
    /// What the correctness gate objected to, other than requests left
    /// incomplete; empty when it passed.
    pub violations: Vec<String>,
}

/// One threaded repetition.
#[derive(Clone, Debug)]
pub struct WallRep {
    /// Requests completed, warm-up included.
    pub completed: u64,
    /// Median wall latency, µs.
    pub p50_us: f64,
    /// 99th percentile wall latency, µs.
    pub p99_us: f64,
    /// Launch to target completion, seconds.
    pub elapsed_s: f64,
    /// `run_wallclock` total minus `elapsed_s` minus the settle: spawning and
    /// joining the program's threads.
    pub setup_s: f64,
    /// Heap allocation of the whole call, all threads.
    pub allocs: AllocCount,
    /// Processor seconds the process spent in user mode, all threads.
    pub cpu_user_s: f64,
    /// Processor seconds it spent in the kernel.
    pub cpu_sys_s: f64,
    /// What the correctness gate objected to, other than requests left
    /// incomplete; empty when it passed.
    pub violations: Vec<String>,
}

/// Runs one repetition of the workload's simulator configuration.
pub fn run_sim(w: &Workload, seed: u64, quick: bool, spans: &mut Spans) -> SimRep {
    let (requests, warmup) = w.sized(quick);
    let total = requests + warmup;
    let cfg = w.sim_config(seed);
    let deadline = cfg.stall_deadline(total);
    let n = cfg.params.n();
    let leader = (0..n).find(|r| !w.crashed.contains(r)).expect("a replica survives");

    let span = spans.enter("runtime.build");
    let t = Instant::now();
    let apps: Vec<Box<dyn App>> = (0..n).map(|_| Box::new(FlipApp::new()) as _).collect();
    let mut cluster = Cluster::new(cfg, apps, Box::new(request_source(seed)));
    let build_s = t.elapsed().as_secs_f64();
    spans.exit(span);

    let span = spans.enter("runtime.run");
    let before = alloc::snapshot();
    let t = Instant::now();
    let mut report = cluster.run_until(requests, warmup, deadline);
    let run_s = t.elapsed().as_secs_f64();
    let allocs = alloc::snapshot().since(before);
    spans.exit(span);

    let span = spans.enter("runtime.report");
    // The run returns the instant the last completion lands, which takes only
    // f + 1 replies: let the lagging replicas drain before comparing states.
    cluster.settle(Duration::from_millis(SETTLE_VIRTUAL_MS));
    let samples = report.latency.len();
    let (p50_ns, p99_ns, max_ns) = if samples == 0 {
        (0, 0, 0)
    } else {
        (
            report.latency.median().as_nanos(),
            report.latency.percentile(99.0).as_nanos(),
            report.latency.max().as_nanos(),
        )
    };
    let exact = SimExact {
        completed: report.completed,
        samples,
        p50_ns,
        p99_ns,
        max_ns,
        end_ns: report.end.since(Time::ZERO).as_nanos(),
        counters: report.counters,
        views: report.views.iter().map(|v| v.0).collect(),
        digests: (0..n).map(|r| cluster.app_digest(r)).collect(),
        decided: cluster.decided_of(leader),
        slots: cluster.exec_next(leader).0,
        disagg_bytes: cluster.disagg_bytes_per_node(),
        local_bytes: cluster.replica_local_bytes(leader),
    };
    let mut violations = Vec::new();
    let live = |r: &usize| !w.crashed.contains(r);
    check_agreement(
        (0..n).filter(live).map(|r| (exact.digests[r], exact.views[r])),
        !w.crashed.is_empty(),
        &mut violations,
    );
    // The simulator exposes state-transfer misses only in its diagnostics.
    if w.crashed.is_empty() && cluster.diag_lines().contains("found no donor snapshot") {
        violations.push("a state transfer found no donor snapshot".into());
    }
    spans.exit(span);
    SimRep { exact, build_s, run_s, allocs, violations }
}

/// Digests of live replicas agree; fault-free runs stay in view 0, and the
/// survivors of a crash leave it.
fn check_agreement(
    live: impl Iterator<Item = (Digest, u64)>,
    faulty: bool,
    violations: &mut Vec<String>,
) {
    let live: Vec<(Digest, u64)> = live.collect();
    if live.windows(2).any(|p| p[0].0 != p[1].0) {
        violations.push("application digests of live replicas differ".into());
    }
    if faulty && live.iter().any(|(_, view)| *view == 0) {
        violations.push("a survivor of the leader crash is still in view 0".into());
    }
    if let Some((_, view)) = live.iter().find(|(_, view)| !faulty && *view != 0) {
        violations.push(format!("fault-free run ended in view {view}"));
    }
}

/// Processor time this process has used so far, `(user, kernel)` seconds,
/// from `/proc/self/stat`. `None` where that file is missing or unreadable.
fn cpu_times() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14 and 15, counted after the parenthesised command name.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let user: f64 = fields.next()?.parse().ok()?;
    let sys: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI.
    Some((user / 100.0, sys / 100.0))
}

/// Runs one repetition of a wall-clock workload on `Backend::Threads`.
pub fn run_wall(w: &Workload, seed: u64, quick: bool, spans: &mut Spans) -> WallRep {
    let (requests, warmup) = w.sized(quick);
    let cfg = w.threads_config(seed);
    let n = cfg.params.n();
    let opts =
        WallOptions { requests, warmup, deadline: HostDuration::from_secs(30), settle: SETTLE };

    let span = spans.enter("runtime.run");
    let cpu_before = cpu_times();
    let before = alloc::snapshot();
    let t = Instant::now();
    let mut report = run_wallclock(
        &cfg,
        |_| (0..n).map(|_| Box::new(FlipApp::new()) as Box<dyn App + Send>).collect(),
        |_| -> ThreadWorkload {
            let mut source = request_source(seed);
            Box::new(move |i| Some(source(i)))
        },
        &opts,
    );
    let total_s = t.elapsed().as_secs_f64();
    let allocs = alloc::snapshot().since(before);
    let cpu = cpu_before.zip(cpu_times()).map(|(b, a)| (a.0 - b.0, a.1 - b.1));
    spans.exit(span);

    let span = spans.enter("runtime.report");
    let elapsed_s = report.elapsed.as_secs_f64();
    let us = |d: Duration| d.as_nanos() as f64 / 1e3;
    let (p50_us, p99_us) = if report.latency.is_empty() {
        (0.0, 0.0)
    } else {
        (us(report.latency.median()), us(report.latency.percentile(99.0)))
    };
    let mut violations = Vec::new();
    for group in &report.groups {
        check_agreement(
            group.replicas.iter().map(|r| (r.app_digest, r.final_view)),
            false,
            &mut violations,
        );
        if group.replicas.iter().any(|r| r.transfer_misses != 0) {
            violations.push("a state transfer found no donor snapshot".into());
        }
    }
    spans.exit(span);
    let (cpu_user_s, cpu_sys_s) = cpu.unwrap_or((0.0, 0.0));
    WallRep {
        completed: report.completed,
        p50_us,
        p99_us,
        elapsed_s,
        setup_s: (total_s - elapsed_s - SETTLE.as_secs_f64()).max(0.0),
        allocs,
        cpu_user_s,
        cpu_sys_s,
        violations,
    }
}
