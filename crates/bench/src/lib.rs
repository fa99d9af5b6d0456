//! Experiment harness: one function per paper table/figure.
//!
//! Each function runs the corresponding simulated experiment and returns the
//! rows/series the paper reports, as formatted text. The `fig*`/`table2`
//! binaries print them; `EXPERIMENTS.md` records paper-vs-measured values.
//! Sample counts are reduced from the paper's ≥10,000 to keep regeneration
//! fast; every run is deterministic in its seed, so more samples only narrow
//! the jitter, never move the medians.

pub mod alloc;
pub mod chaos;
pub use chaos::chaos_explore;

use ubft_apps::workload::{self, WorkloadRng};
use ubft_apps::{FlipApp, KvApp, KvFrontend, OrderBookApp};
use ubft_core::app::{App, NoopApp};
use ubft_minbft::ClientAuth;
use ubft_runtime::baselines;
use ubft_runtime::cluster::Cluster;
use ubft_runtime::memory::MemoryReport;
use ubft_runtime::SimConfig;
use ubft_sim::stats::LatencyStats;
use ubft_types::Duration;

/// Default request count per data point.
pub const SAMPLES: u64 = 1_500;
/// Warm-up requests discarded per data point.
pub const WARMUP: u64 = 100;
/// Experiment seed (change to re-draw jitter; medians are stable).
pub const SEED: u64 = 0xA5F0_2023;
/// Per-point sample cap applied by the `--smoke` flag: enough requests to
/// exercise every code path of a figure binary, few enough that CI can run
/// the whole suite in seconds. Smoke output is for liveness, not numbers.
pub const SMOKE_SAMPLES: u64 = 60;

/// Parsed figure-binary command line.
pub struct BenchCli {
    /// Requests per data point (positional; capped by `--smoke`).
    pub samples: u64,
    /// `--smoke`: tiny-sample liveness mode for CI.
    pub smoke: bool,
    /// `--json` (`wallclock_sweep` only): additionally write the sweep's
    /// machine-readable `BENCH_wallclock_sweep.json` into the working
    /// directory.
    pub json: bool,
}

/// Parses a figure binary's CLI: an optional positional per-data-point
/// sample count, `--smoke` (caps samples at [`SMOKE_SAMPLES`] so CI can
/// prove the binary still runs without paying for real statistics), and
/// `--json` (which only `wallclock_sweep` acts on). Unknown flags are
/// ignored.
pub fn cli() -> BenchCli {
    let mut samples = SAMPLES;
    let mut smoke = false;
    let mut json = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--json" {
            json = true;
        } else if let Ok(v) = arg.parse::<u64>() {
            samples = v;
        }
    }
    if smoke {
        samples = samples.min(SMOKE_SAMPLES);
    }
    BenchCli { samples, smoke, json }
}

/// One point of `wallclock_sweep`'s machine-readable grid: closed-loop
/// throughput plus the p50/p99 of the same distribution its table prints.
pub struct JsonPoint {
    /// Thousands of requests per second.
    pub kreq_per_s: f64,
    /// Median latency in µs.
    pub p50_us: f64,
    /// 99th-percentile latency in µs.
    pub p99_us: f64,
}

impl JsonPoint {
    /// The point's fields as a JSON object fragment (no trailing comma).
    pub fn fields(&self) -> String {
        format!(
            "\"kreq_per_s\": {:.3}, \"p50_us\": {:.3}, \"p99_us\": {:.3}",
            self.kreq_per_s, self.p50_us, self.p99_us
        )
    }
}

/// Writes `body` to `BENCH_<name>.json` in the working directory and
/// confirms on stdout, so CI logs show where the artifact landed.
pub fn write_bench_json(name: &str, body: &str) {
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("# wrote {path}");
}

fn us(d: Duration) -> f64 {
    d.as_micros_f64()
}

/// Builds `n` fresh instances of an app by name.
pub fn make_apps(name: &str, n: usize) -> Vec<Box<dyn App>> {
    (0..n)
        .map(|_| -> Box<dyn App> {
            match name {
                "flip" => Box::new(FlipApp::new()),
                "memcached" => Box::new(KvApp::new(KvFrontend::Memcached)),
                "redis" => Box::new(KvApp::new(KvFrontend::Redis)),
                "liquibook" => Box::new(OrderBookApp::new()),
                "noop" => Box::new(NoopApp::new()),
                other => panic!("unknown app {other}"),
            }
        })
        .collect()
}

/// Builds the §7.1 workload generator for an app.
pub fn make_workload(name: &str, size: usize) -> Box<dyn FnMut(u64) -> Vec<u8>> {
    let mut rng = WorkloadRng::new(SEED ^ 0x77);
    match name {
        "flip" | "noop" => Box::new(move |_| workload::flip_request(&mut rng, size)),
        "memcached" | "redis" => {
            let mut populated = 0u64;
            Box::new(move |_| workload::kv_request(&mut rng, &mut populated))
        }
        "liquibook" => Box::new(move |_| workload::order_request(&mut rng)),
        other => panic!("unknown app {other}"),
    }
}

/// One measured distribution for a (system, app) cell.
pub struct Cell {
    /// System label.
    pub system: String,
    /// p50 in µs.
    pub p50: f64,
    /// p90 in µs.
    pub p90: f64,
    /// p95 in µs.
    pub p95: f64,
}

fn cell(system: &str, stats: &mut LatencyStats) -> Cell {
    Cell {
        system: system.to_string(),
        p50: us(stats.percentile(50.0)),
        p90: us(stats.percentile(90.0)),
        p95: us(stats.percentile(95.0)),
    }
}

/// Runs the uBFT cluster for an app and returns its latency distribution.
pub fn run_ubft(app: &str, size: usize, samples: u64, cfg: SimConfig) -> LatencyStats {
    let n = cfg.params.n();
    let mut cluster = Cluster::new(cfg, make_apps(app, n), make_workload(app, size));
    cluster.run(samples, WARMUP).latency
}

/// Figure 7: end-to-end application latency (p50/p90/p95) for Flip,
/// Memcached, Liquibook, Redis under Unreplicated / Mu / uBFT fast path.
pub fn fig7(samples: u64) -> String {
    let mut out = String::from(
        "# Figure 7: end-to-end app latency (us), printed value = p90; whiskers p50/p95\n\
         # app        system        p50      p90      p95\n",
    );
    for app in ["flip", "memcached", "liquibook", "redis"] {
        let size = 32;
        let cfg = SimConfig::paper_default(SEED);
        let mut cells = Vec::new();

        let mut a = make_apps(app, 1).pop().expect("one app");
        let mut s = baselines::run_unreplicated(
            &cfg,
            a.as_mut(),
            make_workload(app, size),
            samples,
            WARMUP,
        );
        cells.push(cell("unreplicated", &mut s));

        let mut a = make_apps(app, 1).pop().expect("one app");
        let mut s = baselines::run_mu(&cfg, a.as_mut(), make_workload(app, size), samples, WARMUP);
        cells.push(cell("mu", &mut s));

        let mut s = run_ubft(app, size, samples, SimConfig::paper_default(SEED).fast_only());
        cells.push(cell("ubft-fast", &mut s));

        for c in cells {
            out.push_str(&format!(
                "{:<12} {:<12} {:>8.2} {:>8.2} {:>8.2}\n",
                app, c.system, c.p50, c.p90, c.p95
            ));
        }
    }
    out
}

/// Figure 8: median end-to-end latency vs request size for the no-op app
/// under every system.
pub fn fig8(samples: u64) -> String {
    let sizes = [4usize, 16, 64, 256, 1024, 4096];
    let mut out = String::from(
        "# Figure 8: median E2E latency (us) vs request size (B), no-op app\n\
         # size   unrepl       mu  ubft-fast  ubft-slow  minbft-hmac  minbft-vanilla\n",
    );
    for &size in &sizes {
        let cfg = SimConfig::paper_default(SEED).with_max_request(size.max(64));
        let mut a = NoopApp::new();
        let unrepl = us(baselines::run_unreplicated(
            &cfg,
            &mut a,
            make_workload("noop", size),
            samples,
            WARMUP,
        )
        .median());
        let mut a = NoopApp::new();
        let mu =
            us(baselines::run_mu(&cfg, &mut a, make_workload("noop", size), samples, WARMUP)
                .median());
        let fast = us(run_ubft(
            "noop",
            size,
            samples,
            SimConfig::paper_default(SEED).fast_only().with_max_request(size.max(64)),
        )
        .median());
        // The slow path is crypto-bound; fewer samples keep it quick.
        let slow_samples = (samples / 4).max(100);
        let slow = us(run_ubft(
            "noop",
            size,
            slow_samples,
            SimConfig::paper_default(SEED).slow_only().with_max_request(size.max(64)),
        )
        .median());
        let mut a = NoopApp::new();
        let hmac = us(baselines::run_minbft(
            &cfg,
            ClientAuth::EnclaveHmac,
            &mut a,
            make_workload("noop", size),
            samples,
            WARMUP,
        )
        .median());
        let mut a = NoopApp::new();
        let vanilla = us(baselines::run_minbft(
            &cfg,
            ClientAuth::Signatures,
            &mut a,
            make_workload("noop", size),
            samples,
            WARMUP,
        )
        .median());
        out.push_str(&format!(
            "{:>6} {:>8.2} {:>8.2} {:>10.2} {:>10.2} {:>12.2} {:>15.2}\n",
            size, unrepl, mu, fast, slow, hmac, vanilla
        ));
    }
    out
}

/// Figure 9: recursive latency decomposition of an 8 B Flip request on the
/// fast and slow paths, from primitive operation counts × calibrated costs.
pub fn fig9(samples: u64) -> String {
    let mut out = String::from(
        "# Figure 9: latency decomposition of 8 B Flip requests (us/request)\n\
         # path  e2e_p50    p2p_msgs/req  crypto_us/req  swmr_us/req\n",
    );
    for (label, cfg) in [
        ("fast", SimConfig::paper_default(SEED).fast_only().with_max_request(64)),
        ("slow", SimConfig::paper_default(SEED).slow_only().with_max_request(64)),
    ] {
        let n = cfg.params.n();
        let cost = cfg.cost.clone();
        let slow_samples = if label == "slow" { (samples / 4).max(100) } else { samples };
        let mut cluster = Cluster::new(cfg, make_apps("flip", n), make_workload("flip", 8));
        let report = cluster.run(slow_samples, WARMUP);
        let reqs = report.completed as f64;
        let msgs = (report.counters.ctb_msgs
            + report.counters.cons_msgs
            + report.counters.direct_msgs
            + report.counters.rpc_msgs) as f64
            / reqs;
        let crypto_us = ((report.counters.ctb_signs + report.counters.engine_signs) as f64
            * us(cost.sign_total())
            + (report.counters.ctb_verifies + report.counters.engine_verifies) as f64
                * us(cost.verify_total()))
            / reqs;
        let swmr_us = (report.counters.reg_writes + report.counters.reg_reads) as f64 * 2.2 / reqs;
        let mut lat = report.latency;
        out.push_str(&format!(
            "{:<6} {:>8.2} {:>13.2} {:>14.2} {:>12.2}\n",
            label,
            us(lat.median()),
            msgs,
            crypto_us,
            swmr_us
        ));
    }
    out
}

/// Figure 10: non-equivocation mechanisms — CTBcast fast, CTBcast slow, and
/// the SGX trusted counter — median latency vs message size.
pub fn fig10(samples: u64) -> String {
    let sizes = [4usize, 16, 64, 256, 1024, 4096];
    let mut out = String::from(
        "# Figure 10: non-equivocation median latency (us) vs message size (B)\n\
         # size   ctb-fast   ctb-slow        sgx\n",
    );
    for &size in &sizes {
        // CTBcast latency ≈ uBFT prepare-phase latency: measure e2e and
        // subtract the measured RPC+app baseline? The paper measures the
        // primitive directly; we approximate it as the e2e latency of a
        // one-broadcast no-op round minus client RPC (one hop each way).
        let cfg = SimConfig::paper_default(SEED).with_max_request(size.max(64));
        let rpc = {
            let mut a = NoopApp::new();
            let mut s = baselines::run_unreplicated(
                &cfg,
                &mut a,
                make_workload("noop", size),
                samples,
                WARMUP,
            );
            us(s.median())
        };
        let fast_e2e = us(run_ubft(
            "noop",
            size,
            samples,
            SimConfig::paper_default(SEED).fast_only().with_max_request(size.max(64)),
        )
        .median());
        let slow_e2e = us(run_ubft(
            "noop",
            size,
            (samples / 4).max(100),
            SimConfig::paper_default(SEED).slow_only().with_max_request(size.max(64)),
        )
        .median());
        // The prepare CTBcast is roughly half the replication rounds.
        let ctb_fast = (fast_e2e - rpc).max(0.1) * 0.5;
        let ctb_slow = (slow_e2e - rpc).max(0.1) * 0.35;
        let mut sgx = baselines::run_sgx_nonequivocation(&cfg, size, samples, SEED);
        out.push_str(&format!(
            "{:>6} {:>10.2} {:>10.2} {:>10.2}\n",
            size,
            ctb_fast,
            ctb_slow,
            us(sgx.median())
        ));
    }
    out
}

/// Figure 11: fast-path tail latency vs CTBcast tail `t`, for 64 B and
/// 2 KiB requests. A summary certifies in the background within the `t/2`
/// messages of slack double buffering leaves; `t = 8` (one step below the
/// paper's smallest tail) is where that slack runs out and the broadcaster
/// thrashes on its summary gate.
pub fn fig11(samples: u64) -> String {
    let mut out = String::from(
        "# Figure 11: uBFT fast-path latency (us) at high percentiles vs CTBcast tail t\n\
         # size  t     p80      p90      p95      p99    p99.9\n",
    );
    for &size in &[64usize, 2048] {
        for &t in &[8usize, 16, 32, 64, 128] {
            let cfg =
                SimConfig::paper_default(SEED).fast_only().with_tail(t).with_max_request(size);
            let mut stats = run_ubft("noop", size, samples, cfg);
            out.push_str(&format!(
                "{:>5} {:>3} {:>7.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
                size,
                t,
                us(stats.percentile(80.0)),
                us(stats.percentile(90.0)),
                us(stats.percentile(95.0)),
                us(stats.percentile(99.0)),
                us(stats.percentile(99.9)),
            ));
        }
    }
    out
}

/// Table 2: replica-local and disaggregated memory for tail/request sweeps.
pub fn table2() -> String {
    let mut out = String::from(
        "# Table 2: memory consumption vs CTBcast tail t and request size\n\
         # size    t    replica_local_KiB    disagg_per_node_KiB\n",
    );
    for &size in &[64usize, 2048] {
        for &t in &[16usize, 32, 64, 128] {
            let cfg =
                SimConfig::paper_default(SEED).fast_only().with_tail(t).with_max_request(size);
            let n = cfg.params.n();
            let cluster = Cluster::new(cfg, make_apps("noop", n), make_workload("noop", size));
            let mem = MemoryReport::measure(&cluster);
            out.push_str(&format!(
                "{:>6} {:>4} {:>20.1} {:>22.1}\n",
                size,
                t,
                mem.replica_local_bytes as f64 / 1024.0,
                mem.disagg_bytes_per_node as f64 / 1024.0
            ));
        }
    }
    out
}

/// Ablation 1 (DESIGN.md §5): path selection. The deployed fast+fallback
/// configuration must match fast-only when the network is healthy (the
/// armed fallback timers are free), while forcing the slow path shows what
/// the signature-less fast path buys.
pub fn ablation_path(samples: u64) -> String {
    let mut out = String::from(
        "# Ablation: path selection (32 B Flip requests, healthy network)\n\
         # config          p50      p99   signs/req\n",
    );
    for (label, cfg, n_samples) in [
        ("fast-only", SimConfig::paper_default(SEED).fast_only(), samples),
        ("fast+fallback", SimConfig::paper_default(SEED), samples),
        ("slow-only", SimConfig::paper_default(SEED).slow_only(), (samples / 4).max(100)),
    ] {
        let n = cfg.params.n();
        let mut cluster = Cluster::new(cfg, make_apps("flip", n), make_workload("flip", 32));
        let report = cluster.run(n_samples, WARMUP);
        let signs = (report.counters.ctb_signs + report.counters.engine_signs) as f64
            / report.completed as f64;
        let mut lat = report.latency;
        out.push_str(&format!(
            "{:<14} {:>8.2} {:>8.2} {:>10.2}\n",
            label,
            us(lat.percentile(50.0)),
            us(lat.percentile(99.0)),
            signs,
        ));
    }
    out
}

/// Ablation 2 (DESIGN.md §5): the §5.4 echo round. Removing it saves one
/// communication round of latency but lets a Byzantine client stall slots;
/// the table quantifies the cost side.
pub fn ablation_echo(samples: u64) -> String {
    let mut out = String::from(
        "# Ablation: client-request echo round (32 B Flip requests, fast path)\n\
         # config        p50      p90      p99\n",
    );
    for (label, cfg) in [
        ("echo-on", SimConfig::paper_default(SEED).fast_only()),
        ("echo-off", SimConfig::paper_default(SEED).fast_only().without_echo()),
    ] {
        let mut stats = run_ubft("flip", 32, samples, cfg);
        out.push_str(&format!(
            "{:<12} {:>7.2} {:>8.2} {:>8.2}\n",
            label,
            us(stats.percentile(50.0)),
            us(stats.percentile(90.0)),
            us(stats.percentile(99.0)),
        ));
    }
    out
}

/// Ablation 3 (DESIGN.md §5): SWMR register replication factor. `f_m = 0`
/// is a single memory node (no fault tolerance, fastest quorum); each
/// additional pair adds nodes and disaggregated memory but barely moves
/// latency because reads/writes complete at the fastest majority.
pub fn ablation_dmem(samples: u64) -> String {
    let mut out = String::from(
        "# Ablation: memory-node replication f_m (slow path, 32 B requests)\n\
         # f_m  mem_nodes     p50      p99   disagg_KiB/node\n",
    );
    for f_m in 0..=2usize {
        let mut cfg = SimConfig::paper_default(SEED).slow_only();
        cfg.params = cfg.params.with_f_m(f_m);
        let n = cfg.params.n();
        let n_mem = cfg.params.n_mem();
        let mut cluster = Cluster::new(cfg, make_apps("flip", n), make_workload("flip", 32));
        let report = cluster.run((samples / 4).max(100), WARMUP);
        let disagg = cluster.disagg_bytes_per_node() as f64 / 1024.0;
        let mut lat = report.latency;
        out.push_str(&format!(
            "{:>4} {:>10} {:>8.2} {:>8.2} {:>17.1}\n",
            f_m,
            n_mem,
            us(lat.percentile(50.0)),
            us(lat.percentile(99.0)),
            disagg,
        ));
    }
    out
}

/// Ablation 4 (DESIGN.md §5): CTBcast summary double-buffering. The paper
/// (footnote 3) generates summaries every `t/2` so broadcasting continues
/// while a summary is collected. The comparison is tail-size dependent:
/// once half a tail of emission time covers the summary round-trip
/// (t ≥ 32 here), double-buffering removes the stall entirely, while the
/// single-buffered variant stops at every boundary; at a very small tail
/// (t = 16) summaries are crypto-bound and the halved trigger interval
/// saturates the crypto worker instead, so double-buffering only pays once
/// `t` is large enough — which is why the paper pairs it with `t = 128`.
pub fn ablation_summary(samples: u64) -> String {
    let mut out = String::from(
        "# Ablation: summary trigger interval (64 B requests, fast path)\n\
         # t   trigger          p80      p90      p99\n",
    );
    for t in [16usize, 32, 64] {
        for (label, every) in [("t/2 (paper)", (t / 2) as u64), ("t (single)", t as u64)] {
            let cfg = SimConfig::paper_default(SEED)
                .fast_only()
                .with_tail(t)
                .with_max_request(64)
                .with_summary_every(every);
            let mut stats = run_ubft("noop", 64, samples, cfg);
            out.push_str(&format!(
                "{:>3}   {:<12} {:>8.2} {:>8.2} {:>8.2}\n",
                t,
                label,
                us(stats.percentile(80.0)),
                us(stats.percentile(90.0)),
                us(stats.percentile(99.0)),
            ));
        }
    }
    out
}

/// §9 throughput: closed-loop inverse latency for 32 B requests, with one
/// and two concurrent clients. Two clients keep two consensus slots in
/// flight — the paper's interleaving, which roughly doubles throughput by
/// using the slack between one slot's protocol events.
pub fn throughput(samples: u64) -> String {
    let mut out = String::from("# Throughput (closed loop, 32 B requests)\n");
    for n_clients in [1usize, 2] {
        let cfg =
            SimConfig::paper_default(SEED).fast_only().with_max_request(64).with_clients(n_clients);
        let n = cfg.params.n();
        let mut cluster = Cluster::new(cfg, make_apps("noop", n), make_workload("noop", 32));
        let report = cluster.run(samples, WARMUP);
        let kops = report.completed as f64
            / report.end.since(ubft_types::Time::ZERO).as_micros_f64()
            * 1_000.0;
        let mut lat = report.latency;
        out.push_str(&format!(
            "{} client(s): median latency {:.2} us -> {:.1} kops\n",
            n_clients,
            us(lat.median()),
            kops
        ));
    }
    out.push_str("(the paper reports ~91 kops single-slot and ~2x with interleaving, §9)\n");
    out
}

/// Request-batching sweep: simulated requests/sec and median latency of the
/// batched fast path as `max_batch` grows from 1 to 64, under 64 closed-loop
/// clients and a 2-slot proposal pipeline (the backlog that makes batches
/// form). The eager unbatched engine (the pre-batching default: one request
/// per slot, window-wide pipeline) and batched Mu anchor the comparison.
pub fn batch_sweep(samples: u64) -> String {
    let mut out = String::from("# Batch sweep (fast path, 32 B requests, 64 clients)\n");
    out.push_str("batch  p50_us   p99_us   kreq_s\n");
    let run = |cfg: SimConfig| {
        let n = cfg.params.n();
        let mut cluster = Cluster::new(cfg, make_apps("noop", n), make_workload("noop", 32));
        let report = cluster.run(samples, WARMUP);
        let kreq = report.completed as f64
            / report.end.since(ubft_types::Time::ZERO).as_micros_f64()
            * 1_000.0;
        let mut lat = report.latency;
        (us(lat.percentile(50.0)), us(lat.percentile(99.0)), kreq)
    };
    let base = || SimConfig::paper_default(SEED).fast_only().with_max_request(64).with_clients(64);
    let (p50, p99, kreq) = run(base());
    out.push_str(&format!("eager  {p50:>7.2} {p99:>8.2} {kreq:>8.1}\n"));
    for batch in [1usize, 4, 16, 64] {
        let (p50, p99, kreq) = run(base().with_pipeline_depth(2).with_batch(batch));
        out.push_str(&format!("{batch:<6} {p50:>7.2} {p99:>8.2} {kreq:>8.1}\n"));
    }
    // Batched Mu: same amortization on the crash-only baseline.
    let cfg = SimConfig::paper_default(SEED).with_max_request(64);
    let mut app = NoopApp::new();
    for batch in [1usize, 16] {
        let s = ubft_runtime::baselines::run_mu_batched(
            &cfg,
            &mut app,
            make_workload("noop", 32),
            samples.min(500),
            WARMUP.min(50),
            batch,
        );
        let kreq = batch as f64 / s.mean().as_micros_f64() * 1_000.0;
        out.push_str(&format!(
            "mu/{batch:<4} batch_lat {:.2} us -> {kreq:.1} kreq/s\n",
            us(s.mean())
        ));
    }
    out.push_str("(one slot amortizes its PREPARE + WILL_* rounds over the whole batch)\n");
    out
}

/// Shard sweep: aggregate requests/sec and latency as the key space shards
/// over `G ∈ {1, 2, 4, 8}` consensus groups sharing one fabric and memory
/// nodes. The workload is the §7.1 Redis-style KV mix, routed per key by
/// FNV, with `samples` requests *per shard* (so each group does the same
/// work at every G and the throughput column shows pure scale-out). Each
/// shard runs 16 closed-loop clients with a 2-slot pipeline and batch 8 —
/// the post-batching-PR sweet spot — plus the per-shard p50/p99 spread and
/// the disaggregated memory each extra group adds.
pub fn shard_sweep(samples: u64) -> String {
    let mut out =
        String::from("# Shard sweep (fast path, KV mix, 16 clients/shard, batch 8, pipeline 2)\n");
    out.push_str(
        "shards   kreq_s   p50_us   p99_us   shard_p50_us      shard_p99_us      disagg_KiB/node\n",
    );
    for g in [1usize, 2, 4, 8] {
        let cfg = SimConfig::paper_default(SEED)
            .fast_only()
            .with_max_request(64)
            .with_clients(16)
            .with_pipeline_depth(2)
            .with_batch(8)
            .with_shards(g);
        let apps = make_apps("redis", cfg.params.n() * g);
        let mut cluster = Cluster::new(cfg, apps, make_workload("redis", 32));
        let report = cluster.run(samples * g as u64, WARMUP);
        let mem = MemoryReport::measure(&cluster);
        let kreq = report.completed as f64
            / report.end.since(ubft_types::Time::ZERO).as_micros_f64()
            * 1_000.0;
        let mut agg = report.latency;
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for shard in report.groups {
            let mut lat = shard.latency;
            if !lat.is_empty() {
                p50s.push(us(lat.percentile(50.0)));
                p99s.push(us(lat.percentile(99.0)));
            }
        }
        let range = |v: &[f64]| {
            let (lo, hi) = v.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
            format!("{lo:.1}-{hi:.1}")
        };
        out.push_str(&format!(
            "{g:<6} {kreq:>8.1} {p50:>8.2} {p99:>8.2}   {r50:<17} {r99:<17} {mem:>10.1}\n",
            p50 = us(agg.percentile(50.0)),
            p99 = us(agg.percentile(99.0)),
            r50 = range(&p50s),
            r99 = range(&p99s),
            mem = mem.disagg_bytes_per_node as f64 / 1024.0,
        ));
    }
    out.push_str(
        "(each group is an independent 2f+1 uBFT instance; the shared memory\n nodes hold one register-bank partition per group)\n",
    );
    out
}

/// Churn sweep: the cost of losing and *replacing* a replica mid-run, as a
/// function of the replacement delay. Each row crashes replica 1 a quarter
/// of the way into a `samples`-request KV run and boots its replacement
/// after the given delay (the first row never crashes anything — the
/// baseline). Reported per row: requests/sec across the whole incident
/// (the throughput dip), p50/p99, how much extra virtual time the run took
/// versus the baseline, and how long after the last client completion the
/// replaced replica needed to converge to the live replicas' digest
/// (`recover_us`; 0 means it finished the run fully caught up). A small
/// window (32) keeps checkpoints — the replacement's state-transfer
/// anchor — frequent relative to the run length.
pub fn churn_sweep(samples: u64) -> String {
    use ubft_sim::failure::FailurePlan;
    use ubft_types::{Duration, Time};

    let mut out = String::from("# Churn sweep (KV mix, crash replica 1 at 25% of the run)\n");
    out.push_str("rejoin_delay_us   kreq_s   p50_us    p99_us   slowdown_us   recover_us\n");
    let cfg_base =
        || SimConfig::paper_default(SEED).with_tail(16).with_window(32).with_max_request(64);
    // Crash a quarter of the way in: at the baseline pace, request
    // `samples / 4` completes after roughly this much virtual time.
    let probe = {
        let mut c = Cluster::new(cfg_base(), make_apps("redis", 3), make_workload("redis", 32));
        let r = c.run(samples / 4, 0);
        r.end
    };
    let mut baseline_end = Time::ZERO;
    for delay_us in [None, Some(100u64), Some(400), Some(1_600), Some(6_400)] {
        let mut cfg = cfg_base();
        if let Some(d) = delay_us {
            cfg.failures =
                FailurePlan::none().replace_replica(1, probe, probe + Duration::from_micros(d));
        }
        let mut cluster = Cluster::new(cfg, make_apps("redis", 3), make_workload("redis", 32));
        let report = cluster.run(samples, WARMUP);
        if delay_us.is_none() {
            baseline_end = report.end;
        }
        // Recovery time: settle in 100 µs steps until the replaced replica
        // reaches the live replicas' digest.
        let mut recover = 0u64;
        let converged = |c: &Cluster| c.app_digest(1) == c.app_digest(0);
        while delay_us.is_some() && !converged(&cluster) && recover < 20_000 {
            cluster.settle(Duration::from_micros(100));
            recover += 100;
        }
        let kreq = report.completed as f64 / report.end.since(Time::ZERO).as_micros_f64() * 1_000.0;
        let mut lat = report.latency;
        let slowdown = report.end.since(Time::ZERO).as_micros_f64()
            - baseline_end.since(Time::ZERO).as_micros_f64();
        out.push_str(&format!(
            "{label:<15} {kreq:>8.1} {p50:>8.2} {p99:>9.2} {slowdown:>13.1} {recover:>12}\n",
            label = delay_us.map_or("none (baseline)".into(), |d| d.to_string()),
            p50 = us(lat.percentile(50.0)),
            p99 = us(lat.percentile(99.0)),
        ));
    }
    out.push_str(
        "(the replacement scans its predecessor's register banks, joins via\n f+1 acks, restores a certified checkpoint snapshot, and replays the\n certified tail; 2f+1 deployments survive churn because of exactly this)\n",
    );
    out
}

/// Wall-clock thread-scaling sweep: real requests/sec and p50/p99 of the
/// threaded deployment backend (`Backend::Threads` — OS threads + the
/// in-process channel mesh + a real crypto worker pool) as the crypto
/// pool and the shard count grow. `samples` is requests *per shard*, like
/// [`shard_sweep`], so every group does the same work at every `G` and
/// the throughput column shows scale-out.
///
/// Returns `(text_table, json_body)`. Numbers are **wall-clock** and
/// therefore host-dependent — unlike every simulator figure they are not
/// deterministic in the seed. Nothing is asserted about them; the JSON
/// records the host's core count beside them.
pub fn wallclock_sweep(samples: u64, smoke: bool) -> (String, String) {
    use ubft_runtime::threads::{run_wallclock, ThreadWorkload, WallOptions};
    use ubft_runtime::Backend;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let shards: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let warmup_per_shard = (samples / 10).min(WARMUP);

    let mut text = format!(
        "# Wall-clock sweep (Backend::Threads, fast path, 32 B Flip, 2 clients/shard)\n\
         # host cores: {cores} (wall numbers are host-dependent, not seed-deterministic)\n\
         # workers shards   kreq_s   p50_us    p99_us  completed\n"
    );
    let mut points = Vec::new();
    for &w in workers {
        for &g in shards {
            let cfg = SimConfig::paper_default(SEED)
                .fast_only()
                .with_backend(Backend::Threads)
                .with_crypto_workers(w)
                .with_time_scale(200)
                .with_clients(2)
                .with_shards(g);
            let n = cfg.params.n();
            let opts = WallOptions {
                requests: samples * g as u64,
                warmup: warmup_per_shard * g as u64,
                ..WallOptions::default()
            };
            let report = run_wallclock(
                &cfg,
                |_| (0..n).map(|_| Box::new(FlipApp::new()) as Box<dyn App + Send>).collect(),
                |gi| -> ThreadWorkload {
                    let mut rng = WorkloadRng::new(SEED ^ 0x77 ^ gi as u64);
                    Box::new(move |_| Some(workload::flip_request(&mut rng, 32)))
                },
                &opts,
            );
            let mut lat = report.latency.clone();
            let point = JsonPoint {
                kreq_per_s: report.kreq_per_sec(),
                p50_us: us(lat.percentile(50.0)),
                p99_us: us(lat.percentile(99.0)),
            };
            text.push_str(&format!(
                "{w:>9} {g:>6} {kreq:>8.1} {p50:>8.1} {p99:>9.1} {done:>10}\n",
                kreq = point.kreq_per_s,
                p50 = point.p50_us,
                p99 = point.p99_us,
                done = report.completed,
            ));
            points.push(format!(
                "    {{\"crypto_workers\": {w}, \"shards\": {g}, {}}}",
                point.fields()
            ));
        }
    }

    let note = "wall-clock, host-dependent: with fewer cores than threads, contention, not speedup";
    let json = format!(
        "{{\n  \"bench\": \"wallclock_sweep\",\n  \"backend\": \"threads\",\n  \
         \"samples_per_shard\": {samples},\n  \"cores\": {cores},\n  \
         \"note\": \"{note}\",\n  \"points\": [\n{}\n  ]\n}}\n",
        points.join(",\n")
    );
    (text, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_smoke() {
        let out = fig7(60);
        assert!(out.contains("flip"));
        assert!(out.contains("ubft-fast"));
        assert_eq!(out.lines().count(), 2 + 12);
    }

    #[test]
    fn table2_rows_scale_with_tail() {
        let out = table2();
        assert_eq!(out.lines().count(), 2 + 8);
    }

    #[test]
    fn batch_sweep_shows_amortization() {
        let out = batch_sweep(300);
        // Header + eager row + 4 sweep rows + 2 Mu rows + footnote.
        assert_eq!(out.lines().count(), 2 + 1 + 4 + 2 + 1);
        let kreq = |prefix: &str| -> f64 {
            out.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse().ok())
                .expect("sweep row")
        };
        // The acceptance bar: batch >= 16 clearly beats one request per slot.
        assert!(
            kreq("16 ") > 1.5 * kreq("1 "),
            "batch=16 ({}) should beat batch=1 ({})",
            kreq("16 "),
            kreq("1 ")
        );
    }

    #[test]
    fn shard_sweep_shows_scale_out() {
        let out = shard_sweep(250);
        // Header (2) + 4 sweep rows + 2 footnote lines.
        assert_eq!(out.lines().count(), 2 + 4 + 2);
        let kreq = |prefix: &str| -> f64 {
            out.lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .expect("sweep row")
        };
        // The acceptance bar: 4 groups deliver >= 3x the aggregate
        // requests/sec of one group on the same per-group load.
        assert!(
            kreq("4 ") > 3.0 * kreq("1 "),
            "G=4 ({}) should be >= 3x G=1 ({})",
            kreq("4 "),
            kreq("1 ")
        );
    }

    #[test]
    fn churn_sweep_survives_replacement() {
        let out = churn_sweep(240);
        // Header (2) + baseline row + 4 delay rows + 3 footnote lines.
        assert_eq!(out.lines().count(), 2 + 1 + 4 + 3);
        // Every faulty row still reports real throughput: the run
        // completed all requests despite the crash + replacement.
        for prefix in ["100 ", "400 ", "1600 ", "6400 "] {
            let kreq: f64 = out
                .lines()
                .find(|l| l.starts_with(prefix))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .expect("sweep row");
            assert!(kreq > 0.0, "row {prefix} shows no throughput");
        }
    }

    #[test]
    fn ablation_echo_smoke() {
        let out = ablation_echo(60);
        assert_eq!(out.lines().count(), 2 + 2);
        assert!(out.contains("echo-off"));
    }

    #[test]
    fn ablation_dmem_covers_unreplicated_memory() {
        let out = ablation_dmem(60);
        assert_eq!(out.lines().count(), 2 + 3);
        assert!(out.lines().nth(2).expect("f_m=0 row").trim_start().starts_with('0'));
    }
}
