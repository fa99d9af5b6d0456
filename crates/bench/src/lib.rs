//! The paper's evaluation as a list of named experiments.
//!
//! [`EXPERIMENTS`] names one function per figure, table and sweep of
//! EXPERIMENTS.md. Each runs its data points through one measuring helper
//! (a `System` — uBFT or one of §7.2's baselines — under a
//! [`SimConfig`]) and returns a [`Table`], which prints as the markdown
//! EXPERIMENTS.md keeps between `<!-- experiment:NAME -->` markers: the
//! `experiments` binary prints the tables, and with `--update` rewrites
//! those blocks. Sample counts are reduced from the paper's ≥10,000 to keep
//! regeneration fast; every run is deterministic in its seed, so a table
//! repeats to the last digit.

pub mod alloc;
pub mod chaos;
pub use chaos::chaos_explore;

use std::collections::BTreeMap;
use std::fmt;

use ubft_apps::workload::{self, WorkloadRng};
use ubft_apps::{FlipApp, KvApp, KvFrontend, OrderBookApp};
use ubft_core::app::{App, NoopApp};
use ubft_minbft::ClientAuth;
use ubft_runtime::baselines;
use ubft_runtime::cluster::{Cluster, RunReport};
use ubft_runtime::SimConfig;
use ubft_sim::stats::LatencyStats;
use ubft_types::{Duration, Time};

/// Default request count per data point.
pub const SAMPLES: u64 = 1_500;
/// Warm-up requests discarded per data point.
pub const WARMUP: u64 = 100;
/// Experiment seed (change to re-draw jitter; medians are stable).
pub const SEED: u64 = 0xA5F0_2023;
/// The document whose marked blocks `experiments --update` rewrites.
pub const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

/// A named experiment: it takes the request count per data point.
pub type Experiment = (&'static str, fn(u64) -> Table);

/// The experiments, in EXPERIMENTS.md's order.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("table2", table2),
    ("throughput", throughput),
    ("ablation_path", ablation_path),
    ("ablation_echo", ablation_echo),
    ("ablation_dmem", ablation_dmem),
    ("ablation_summary", ablation_summary),
    ("batch_sweep", batch_sweep),
    ("shard_sweep", shard_sweep),
    ("churn_sweep", churn_sweep),
    ("load_curve", load_curve),
];

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

/// One experiment's result: a table under a title.
pub struct Table {
    /// What the table shows, printed above it.
    title: String,
    /// The head row, columns separated by `" | "`: first those that name a
    /// row, then the measured ones, each as `head:decimals`.
    head: &'static str,
    /// Each row's naming cells and its values, one per measured column;
    /// `NAN` prints as an empty cell.
    rows: Vec<(Vec<String>, Vec<f64>)>,
    /// Printed under the table unless empty.
    footnote: &'static str,
}

impl Table {
    /// A table with no rows yet.
    pub fn new(title: impl Into<String>, head: &'static str) -> Self {
        Table { title: title.into(), head, rows: Vec::new(), footnote: "" }
    }

    /// Adds a row: its naming cells, then one value per measured column.
    pub fn push(&mut self, keys: &[&dyn fmt::Display], values: &[f64]) {
        self.rows.push((keys.iter().map(|k| k.to_string()).collect(), values.to_vec()));
    }

    /// The column heads, each with the decimals it prints (`None` for a
    /// column that names a row).
    fn columns(&self) -> impl Iterator<Item = (&'static str, Option<usize>)> {
        self.head.split(" | ").map(|c| match c.rsplit_once(':') {
            Some((head, decimals)) => (head, Some(decimals.parse().expect("a decimal count"))),
            None => (c, None),
        })
    }
}

/// The one printer: a markdown table under its title, then the footnote.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let heads: Vec<&str> = self.columns().map(|c| c.0).collect();
        let decimals: Vec<usize> = self.columns().filter_map(|c| c.1).collect();
        let rule = "---|".repeat(heads.len());
        writeln!(f, "{}\n\n| {} |\n|{rule}", self.title, heads.join(" | "))?;
        for (keys, values) in &self.rows {
            let values = values.iter().zip(&decimals).map(|(v, d)| format!("{v:.d$}"));
            let cells: Vec<String> = keys.iter().cloned().chain(values).collect();
            writeln!(f, "| {} |", cells.join(" | ").replace("NaN", ""))?;
        }
        match self.footnote {
            "" => Ok(()),
            note => writeln!(f, "\n{note}"),
        }
    }
}

/// What a data point runs on: uBFT, or one of §7.2's baselines.
#[derive(Clone, Copy)]
enum System {
    /// The application alone, one client RPC away.
    Unreplicated,
    /// Mu, the crash-tolerant RDMA replication baseline.
    Mu,
    /// Mu with this many requests per consensus slot; samples (and 50
    /// warm-up rounds) count batches.
    MuBatched(usize),
    /// MinBFT on an SGX counter, clients authenticated as given.
    MinBft(ClientAuth),
    /// The SGX trusted counter alone, as a non-equivocation primitive.
    Sgx,
    /// The uBFT deployment the configuration describes.
    Ubft,
}

/// What one data point measured: its latency samples and, on uBFT, the
/// deployment after the run and the run's report.
struct Point(LatencyStats, Option<(Cluster, RunReport)>);

impl Point {
    /// The `q`-th percentiles in µs.
    fn pcts(&mut self, qs: &[f64]) -> Vec<f64> {
        qs.iter().map(|&q| self.0.percentile(q).as_micros_f64()).collect()
    }

    fn p50(&mut self) -> f64 {
        self.pcts(&[50.0])[0]
    }

    fn ubft(&mut self) -> &mut (Cluster, RunReport) {
        self.1.as_mut().expect("a uBFT data point")
    }
}

/// A uBFT deployment of `cfg` with `app` on every replica of every group,
/// fed `size`-byte requests.
fn deploy(cfg: SimConfig, app: &str, size: usize) -> Cluster {
    let apps = make_apps(app, cfg.params.n() * cfg.shards);
    Cluster::new(cfg, apps, make_workload(app, size))
}

/// Runs `samples` requests of `app` at `size` bytes (after [`WARMUP`]) on
/// `system` under `cfg`.
fn measure(system: System, cfg: SimConfig, app: &str, size: usize, samples: u64) -> Point {
    let (w, mut a) = (make_workload(app, size), make_apps(app, 1).pop().expect("one app"));
    let latency = match system {
        System::Unreplicated => baselines::run_unreplicated(&cfg, a.as_mut(), w, samples, WARMUP),
        System::Mu => baselines::run_mu(&cfg, a.as_mut(), w, samples, WARMUP),
        System::MuBatched(b) => baselines::run_mu_batched(&cfg, a.as_mut(), w, samples, 50, b),
        System::MinBft(auth) => baselines::run_minbft(&cfg, auth, a.as_mut(), w, samples, WARMUP),
        System::Sgx => baselines::run_sgx_nonequivocation(&cfg, size, samples, SEED),
        System::Ubft => {
            let mut cluster = deploy(cfg, app, size);
            let mut report = cluster.run(samples, WARMUP);
            return Point(std::mem::take(&mut report.latency), Some((cluster, report)));
        }
    };
    Point(latency, None)
}

fn paper() -> SimConfig {
    SimConfig::paper_default(SEED)
}

/// The slow path is crypto-bound: a quarter of the samples (at least 100)
/// keeps its points quick.
fn slow(samples: u64) -> u64 {
    (samples / 4).max(100)
}

fn kib(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

const SIZES: [usize; 6] = [4, 16, 64, 256, 1024, 4096];

/// Figure 7: end-to-end application latency under unreplicated, Mu and the
/// uBFT fast path.
fn fig7(samples: u64) -> Table {
    let mut t = Table::new(
        "Figure 7: end-to-end app latency (µs); the paper plots p90 with p50 / p95 whiskers",
        "app | system | p50:2 | p90:2 | p95:2",
    );
    for app in ["flip", "memcached", "liquibook", "redis"] {
        for (system, label, cfg) in [
            (System::Unreplicated, "unreplicated", paper()),
            (System::Mu, "mu", paper()),
            (System::Ubft, "ubft-fast", paper().fast_only()),
        ] {
            let mut p = measure(system, cfg, app, 32, samples);
            t.push(&[&app, &label], &p.pcts(&[50.0, 90.0, 95.0]));
        }
    }
    t
}

/// Figure 8: median end-to-end latency vs request size, no-op app, every
/// system.
fn fig8(samples: u64) -> Table {
    let mut t = Table::new(
        "Figure 8: median end-to-end latency (µs) vs request size, no-op app",
        "size B | unreplicated:2 | mu:2 | ubft-fast:2 | ubft-slow:2 | minbft-hmac:2 | \
         minbft-vanilla:2",
    );
    for size in SIZES {
        let cfg = || paper().with_max_request(size.max(64));
        let points = [
            (System::Unreplicated, cfg(), samples),
            (System::Mu, cfg(), samples),
            (System::Ubft, cfg().fast_only(), samples),
            (System::Ubft, cfg().slow_only(), slow(samples)),
            (System::MinBft(ClientAuth::EnclaveHmac), cfg(), samples),
            (System::MinBft(ClientAuth::Signatures), cfg(), samples),
        ];
        t.push(&[&size], &points.map(|(s, cfg, n)| measure(s, cfg, "noop", size, n).p50()));
    }
    t
}

/// Figure 9: latency decomposition of an 8 B Flip request on the fast and
/// slow paths, from primitive operation counts × the cost model's
/// constants.
fn fig9(samples: u64) -> Table {
    let mut t = Table::new(
        "Figure 9: latency decomposition of 8 B Flip requests: operation counts × cost constants \
         (SWMR: 2.2 µs per register operation)",
        "path | e2e p50 µs:2 | p2p msgs/req:2 | crypto µs/req:2 | SWMR µs/req:2",
    );
    let cost = paper().cost;
    let (sign, verify) = (cost.sign_total().as_micros_f64(), cost.verify_total().as_micros_f64());
    for (label, cfg, n) in
        [("fast", paper().fast_only(), samples), ("slow", paper().slow_only(), slow(samples))]
    {
        let mut p = measure(System::Ubft, cfg.with_max_request(64), "flip", 8, n);
        let p50 = p.p50();
        let report = &p.ubft().1;
        let (c, reqs) = (&report.counters, report.completed as f64);
        let msgs = (c.ctb_msgs + c.cons_msgs + c.direct_msgs + c.rpc_msgs) as f64 / reqs;
        let signs = (c.ctb_signs + c.engine_signs) as f64 * sign;
        let crypto = (signs + (c.ctb_verifies + c.engine_verifies) as f64 * verify) / reqs;
        let swmr = (c.reg_writes + c.reg_reads) as f64 * 2.2 / reqs;
        t.push(&[&label], &[p50, msgs, crypto, swmr]);
    }
    t
}

/// Figure 10: non-equivocation — CTBcast fast, CTBcast slow and the SGX
/// trusted counter — median latency vs message size. The paper measures
/// CTBcast directly; here it is the share of a no-op round's replication
/// time (end to end minus the client RPC) that the PREPARE broadcast takes.
fn fig10(samples: u64) -> Table {
    let mut t = Table::new(
        "Figure 10: non-equivocation median latency (µs) vs message size. The CTBcast columns \
         are derived, not measured: (e2e − unreplicated) × 0.5 (fast) and × 0.35 (slow); SGX \
         is measured",
        "size B | ctb-fast:2 | ctb-slow:2 | sgx:2",
    );
    for size in SIZES {
        let cfg = || paper().with_max_request(size.max(64));
        let rpc = measure(System::Unreplicated, cfg(), "noop", size, samples).p50();
        let fast = measure(System::Ubft, cfg().fast_only(), "noop", size, samples).p50();
        let n_slow = slow(samples);
        let slow_e2e = measure(System::Ubft, cfg().slow_only(), "noop", size, n_slow).p50();
        let sgx = measure(System::Sgx, cfg(), "noop", size, samples).p50();
        t.push(&[&size], &[(fast - rpc).max(0.1) * 0.5, (slow_e2e - rpc).max(0.1) * 0.35, sgx]);
    }
    t
}

/// Figure 11: fast-path tail latency vs CTBcast tail `t`, for 64 B and
/// 2 KiB requests. A summary certifies in the background within the `t/2`
/// messages of slack double buffering leaves; `t = 8` (one step below the
/// paper's smallest tail) is where that slack runs out and the broadcaster
/// thrashes on its summary gate.
fn fig11(samples: u64) -> Table {
    let mut t = Table::new(
        "Figure 11: uBFT fast-path latency (µs) at high percentiles vs CTBcast tail t",
        "size B | t | p80:2 | p90:2 | p95:2 | p99:2 | p99.9:2",
    );
    for size in [64usize, 2048] {
        for tail in [8usize, 16, 32, 64, 128] {
            let cfg = paper().fast_only().with_tail(tail).with_max_request(size);
            let mut p = measure(System::Ubft, cfg, "noop", size, samples);
            t.push(&[&size, &tail], &p.pcts(&[80.0, 90.0, 95.0, 99.0, 99.9]));
        }
    }
    t
}

/// Table 2: replica-local and disaggregated memory for tail and request-size
/// sweeps, of a deployment that has run nothing: memory is sized up front.
fn table2(_samples: u64) -> Table {
    let mut t = Table::new(
        "Table 2: memory consumption vs CTBcast tail t and request size",
        "size B | t | replica-local KiB:1 | disaggregated KiB/node:1",
    );
    for size in [64usize, 2048] {
        for tail in [16usize, 32, 64, 128] {
            let cfg = paper().fast_only().with_tail(tail).with_max_request(size);
            let cluster = deploy(cfg, "noop", size);
            let bytes = [cluster.replica_local_bytes(0), cluster.disagg_bytes_per_node()];
            t.push(&[&size, &tail], &bytes.map(kib));
        }
    }
    t
}

/// §9 throughput: closed-loop 32 B requests with one and two clients. Two
/// clients keep two consensus slots in flight — the paper's interleaving,
/// which roughly doubles throughput by using the slack between one slot's
/// protocol events.
fn throughput(samples: u64) -> Table {
    let mut t =
        Table::new("§9 throughput: closed loop, 32 B requests", "clients | p50 µs:2 | kops:1");
    t.footnote = "The paper reports ~91 kops single-slot and ~2× with interleaving (§9).";
    for clients in [1usize, 2] {
        let cfg = paper().fast_only().with_max_request(64).with_clients(clients);
        let mut p = measure(System::Ubft, cfg, "noop", 32, samples);
        t.push(&[&format!("{clients} client(s)")], &[p.p50(), p.ubft().1.kreq_per_sec()]);
    }
    t
}

/// Ablation: path selection. The deployed fast+fallback configuration must
/// match fast-only when the network is healthy (the armed fallback timers
/// are free), while forcing the slow path shows what the signature-less
/// fast path buys.
fn ablation_path(samples: u64) -> Table {
    let mut t = Table::new(
        "Ablation: path selection (32 B Flip requests, healthy network; latency in µs)",
        "config | p50:2 | p99:2 | signs/req:2",
    );
    for (label, cfg, n) in [
        ("fast-only", paper().fast_only(), samples),
        ("fast+fallback", paper(), samples),
        ("slow-only", paper().slow_only(), slow(samples)),
    ] {
        let mut p = measure(System::Ubft, cfg, "flip", 32, n);
        let mut row = p.pcts(&[50.0, 99.0]);
        let report = &p.ubft().1;
        let (c, reqs) = (&report.counters, report.completed as f64);
        row.push((c.ctb_signs + c.engine_signs) as f64 / reqs);
        t.push(&[&label], &row);
    }
    t
}

/// Ablation: the §5.4 echo round. Removing it saves one communication round
/// of latency but lets a Byzantine client stall slots; the table quantifies
/// the cost side.
fn ablation_echo(samples: u64) -> Table {
    let mut t = Table::new(
        "Ablation: client-request echo round (32 B Flip requests, fast path; latency in µs)",
        "config | p50:2 | p90:2 | p99:2",
    );
    for (label, cfg) in
        [("echo-on", paper().fast_only()), ("echo-off", paper().fast_only().without_echo())]
    {
        let mut p = measure(System::Ubft, cfg, "flip", 32, samples);
        t.push(&[&label], &p.pcts(&[50.0, 90.0, 99.0]));
    }
    t
}

/// Ablation: SWMR register replication factor. `f_m = 0` is a single
/// memory node (no fault tolerance, fastest quorum); each additional pair
/// adds nodes and disaggregated memory but barely moves latency because
/// reads and writes complete at the fastest majority.
fn ablation_dmem(samples: u64) -> Table {
    let mut t = Table::new(
        "Ablation: memory-node replication f_m (slow path, 32 B requests; latency in µs)",
        "f_m | memory nodes:0 | p50:2 | p99:2 | disaggregated KiB/node:1",
    );
    for f_m in 0..=2usize {
        let mut cfg = paper().slow_only();
        cfg.params = cfg.params.with_f_m(f_m);
        let mut row = vec![cfg.params.n_mem() as f64];
        let mut p = measure(System::Ubft, cfg, "flip", 32, slow(samples));
        row.extend(p.pcts(&[50.0, 99.0]));
        row.push(kib(p.ubft().0.disagg_bytes_per_node()));
        t.push(&[&f_m], &row);
    }
    t
}

/// Ablation: CTBcast summary double-buffering. The paper (footnote 3)
/// generates summaries every `t/2` so broadcasting continues while a
/// summary is collected; triggering every `t` instead puts one
/// certification round trip back into the tail at every `t`.
fn ablation_summary(samples: u64) -> Table {
    let mut t = Table::new(
        "Ablation: summary trigger interval (64 B requests, fast path; latency in µs)",
        "t | trigger | p80:2 | p90:2 | p99:2",
    );
    for tail in [16usize, 32, 64] {
        for (label, every) in [("t/2 (paper)", tail / 2), ("t (single)", tail)] {
            let cfg = paper().fast_only().with_tail(tail).with_max_request(64);
            let cfg = cfg.with_summary_every(every as u64);
            let mut p = measure(System::Ubft, cfg, "noop", 64, samples);
            t.push(&[&tail, &label], &p.pcts(&[80.0, 90.0, 99.0]));
        }
    }
    t
}

/// Request batching: requests/sec and latency of the batched fast path as
/// `max_batch` grows, under 64 closed-loop clients and a 2-slot proposal
/// pipeline (the backlog that makes batches form). The eager unbatched
/// engine (one request per slot, window-wide pipeline) and batched Mu
/// anchor the comparison.
fn batch_sweep(samples: u64) -> Table {
    let mut t = Table::new(
        "Batch sweep: fast path, 32 B requests, 64 clients; batched Mu (≤ 500 batches) alongside",
        "batch | p50 µs:2 | p99 µs:2 | Mu batch µs:2 | kreq/s:1",
    );
    t.footnote = "One slot amortizes its PREPARE + WILL_* rounds over the whole batch.";
    for batch in [None, Some(1), Some(4), Some(16), Some(64)] {
        let mut cfg = paper().fast_only().with_max_request(64).with_clients(64);
        if let Some(b) = batch {
            cfg = cfg.with_pipeline_depth(2).with_batch(b);
        }
        let mut p = measure(System::Ubft, cfg, "noop", 32, samples);
        let mut row = p.pcts(&[50.0, 99.0]);
        row.extend([f64::NAN, p.ubft().1.kreq_per_sec()]);
        t.push(&[&batch.map_or("eager".to_string(), |b| b.to_string())], &row);
    }
    for b in [1, 16] {
        let cfg = paper().with_max_request(64);
        let mean = measure(System::MuBatched(b), cfg, "noop", 32, samples.min(500)).0.mean();
        let mean = mean.as_micros_f64();
        t.push(&[&format!("mu/{b}")], &[f64::NAN, f64::NAN, mean, b as f64 / mean * 1_000.0]);
    }
    t
}

/// Sharding: aggregate requests/sec and latency as the key space shards
/// over `G ∈ {1, 2, 4, 8}` groups sharing one fabric and memory nodes. The
/// Redis-style KV mix is routed per key by FNV, `samples` requests *per
/// shard*, so every group does the same work at every G and the throughput
/// column shows pure scale-out.
fn shard_sweep(samples: u64) -> Table {
    let mut t = Table::new(
        "Shard sweep: fast path, KV mix, 16 clients/shard, batch 8, pipeline 2; latency in µs, \
         the lowest and highest of the shards beside the aggregate",
        "shards | kreq/s:1 | p50:2 | p99:2 | lowest shard p50:1 | highest shard p50:1 | \
         lowest shard p99:1 | highest shard p99:1 | disaggregated KiB/node:1",
    );
    t.footnote = "Each group is an independent 2f+1 uBFT instance; the shared memory nodes hold \
                  one register-bank partition per group.";
    for g in [1usize, 2, 4, 8] {
        let cfg = paper().fast_only().with_max_request(64).with_clients(16);
        let cfg = cfg.with_pipeline_depth(2).with_batch(8).with_shards(g);
        let mut p = measure(System::Ubft, cfg, "redis", 32, samples * g as u64);
        let mut row = p.pcts(&[50.0, 99.0]);
        let (cluster, report) = p.ubft();
        row.insert(0, report.kreq_per_sec());
        for q in [50.0, 99.0] {
            let shards = report.groups.iter_mut().filter(|s| !s.latency.is_empty());
            let per_shard: Vec<f64> =
                shards.map(|s| s.latency.percentile(q).as_micros_f64()).collect();
            row.push(per_shard.iter().copied().fold(f64::INFINITY, f64::min));
            row.push(per_shard.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        }
        row.push(kib(cluster.disagg_bytes_per_node()));
        t.push(&[&g], &row);
    }
    t
}

/// The closed loop's load curve: requests/sec, p50 and p99 of the batched
/// fast path at every client count and batch size, each the median of ten
/// seeds with the quartiles around it, so a point that settles into one of
/// two rhythms by seed shows as a wide spread.
fn load_curve(samples: u64) -> Table {
    let mut t = Table::new(
        "Load curve: fast path, 32 B Flip, pipeline 2; each cell the median over seeds 1–10, \
         with its quartiles",
        "clients | batch | kreq/s q1:1 | kreq/s:1 | kreq/s q3:1 | p50 q1 µs:2 | p50 µs:2 | \
         p50 q3 µs:2 | p99 q1 µs:2 | p99 µs:2 | p99 q3 µs:2",
    );
    for clients in [1, 2, 4, 8, 16, 32, 64] {
        for batch in [1, 4, 16] {
            let mut runs: [Vec<f64>; 3] = Default::default();
            for seed in 1..=10 {
                let cfg = SimConfig::paper_default(seed).fast_only().with_max_request(64);
                let cfg = cfg.with_clients(clients).with_pipeline_depth(2).with_batch(batch);
                let mut p = measure(System::Ubft, cfg, "flip", 32, samples);
                let [p50, p99] = p.pcts(&[50.0, 99.0])[..] else { unreachable!() };
                for (run, v) in runs.iter_mut().zip([p.ubft().1.kreq_per_sec(), p50, p99]) {
                    run.push(v);
                }
            }
            let quartiles = runs.iter_mut().flat_map(|run| {
                run.sort_by(f64::total_cmp);
                [run[2], (run[4] + run[5]) / 2.0, run[7]]
            });
            t.push(&[&clients, &batch], &quartiles.collect::<Vec<_>>());
        }
    }
    t
}

/// Churn: the cost of losing and *replacing* a replica mid-run, against the
/// replacement delay. Each row crashes replica 1 a quarter of the way into
/// a `samples`-request KV run and boots its replacement after the delay
/// (the first row crashes nothing). Per row: requests/sec across the whole
/// incident, p50/p99, the extra virtual time the run took over the
/// baseline, and how long after the last completion the replaced replica
/// needed to reach the live replicas' digest (0: it finished caught up).
/// A small window (32) keeps checkpoints — the replacement's state-transfer
/// anchor — frequent relative to the run length.
fn churn_sweep(samples: u64) -> Table {
    let mut t = Table::new(
        "Churn sweep: KV mix, replica 1 crashed at 25% of the run and replaced after a delay",
        "rejoin delay µs | kreq/s:1 | p50 µs:2 | p99 µs:2 | slowdown µs:1 | recover µs:0",
    );
    t.footnote = "The replacement scans its predecessor's register banks, joins via f+1 acks, \
                  restores a certified checkpoint snapshot, and replays the certified tail; 2f+1 \
                  deployments survive churn because of exactly this.";
    let base = || paper().with_tail(16).with_window(32).with_max_request(64);
    // Request `samples / 4` completes at about this virtual time.
    let crash_at = deploy(base(), "redis", 32).run(samples / 4, 0).end;
    let mut baseline_end = None;
    for delay in [None, Some(100), Some(400), Some(1_600), Some(6_400)] {
        let replace = |d| base().with_replacement(1, crash_at, Duration::from_micros(d));
        let mut p = measure(System::Ubft, delay.map_or(base(), replace), "redis", 32, samples);
        let mut row = p.pcts(&[50.0, 99.0]);
        let (cluster, report) = p.ubft();
        let end = report.end.since(Time::ZERO).as_micros_f64();
        let slowdown = end - *baseline_end.get_or_insert(end);
        // Settle in 100 µs steps until the replaced replica reaches the live
        // replicas' digest.
        let converged = |c: &Cluster| c.app_digest(1) == c.app_digest(0);
        let mut recover = 0;
        while delay.is_some() && !converged(cluster) && recover < 20_000 {
            cluster.settle(Duration::from_micros(100));
            recover += 100;
        }
        row.insert(0, report.kreq_per_sec());
        row.extend([slowdown, recover as f64]);
        t.push(&[&delay.map_or("none (baseline)".to_string(), |d| d.to_string())], &row);
    }
    t
}

/// The experiments `names` picks, in the order given; every one when
/// `names` is empty.
pub fn select(names: &[String]) -> Result<Vec<Experiment>, String> {
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    let find = |n: &String| EXPERIMENTS.iter().find(|e| e.0 == n.as_str()).copied();
    let found =
        |n| find(n).ok_or_else(|| format!("no experiment {n}; one of: {}", known.join(" ")));
    if names.is_empty() {
        Ok(EXPERIMENTS.to_vec())
    } else {
        names.iter().map(found).collect()
    }
}

/// The names of `doc`'s `<!-- experiment:NAME -->` … `<!-- /experiment:NAME -->`
/// blocks, in order.
pub fn blocks(doc: &str) -> Vec<&str> {
    let names =
        doc.lines().filter_map(|l| l.strip_prefix("<!-- experiment:")?.strip_suffix(" -->"));
    names.filter(|name| splice(doc, name, "").is_ok()).collect()
}

/// `doc` with the block named `name` holding `table`, then a blank line.
pub fn splice(doc: &str, name: &str, table: &str) -> Result<String, String> {
    let open = format!("<!-- experiment:{name} -->\n");
    let start = doc.find(&open).ok_or_else(|| format!("no block {name}"))? + open.len();
    let close = format!("<!-- /experiment:{name} -->");
    let len = doc[start..].find(&close).ok_or_else(|| format!("block {name} is not closed"))?;
    Ok(format!("{}{table}\n{}", &doc[..start], &doc[start + len..]))
}

/// Reads a tool's command line: the words that are not flags, and each
/// flag given, with the number after it for a flag in `counted` (0 for one
/// of the `switches`). Any other flag, and a counted flag without its
/// number, is refused.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    switches: &[&str],
    counted: &[&str],
) -> Result<(Vec<String>, BTreeMap<String, u64>), String> {
    let (mut words, mut flags) = (Vec::new(), BTreeMap::new());
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if counted.contains(&arg.as_str()) {
            let n = count(&args.next().ok_or_else(|| format!("{arg} takes a number"))?)?;
            flags.insert(arg, n);
        } else if switches.contains(&arg.as_str()) {
            flags.insert(arg, 0);
        } else if arg.starts_with('-') {
            let known = [switches, counted].concat().join(" ");
            return Err(format!("no flag {arg}; known: {known}"));
        } else {
            words.push(arg);
        }
    }
    Ok((words, flags))
}

/// `words` read as one count; `default` when there are none.
pub fn one_count(words: &[String], default: u64) -> Result<u64, String> {
    match words {
        [] => Ok(default),
        [n] => count(n),
        more => Err(format!("one count expected, got: {}", more.join(" "))),
    }
}

fn count(word: &str) -> Result<u64, String> {
    word.parse().map_err(|_| format!("{word} is not a count"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(name: &str, samples: u64) -> Table {
        select(&[name.to_string()]).expect("a listed experiment")[0].1(samples)
    }

    fn kreq(t: &Table, key: &str) -> f64 {
        let column = t.columns().filter(|c| c.1.is_some()).position(|c| c.0 == "kreq/s");
        t.rows.iter().find(|r| r.0[0] == key).expect("a row").1[column.expect("a kreq/s column")]
    }

    fn keys(t: &Table) -> Vec<String> {
        t.rows.iter().map(|r| r.0.join(" ")).collect()
    }

    #[test]
    fn fig7_smoke() {
        let t = run("fig7", 60);
        assert_eq!(t.rows.len(), 12);
        assert!(keys(&t).iter().any(|k| k == "flip ubft-fast"));
    }

    #[test]
    fn table2_rows_scale_with_tail() {
        assert_eq!(run("table2", 0).rows.len(), 8);
    }

    #[test]
    fn batch_sweep_shows_amortization() {
        let t = run("batch_sweep", 300);
        assert_eq!(keys(&t), ["eager", "1", "4", "16", "64", "mu/1", "mu/16"]);
        // The acceptance bar: batch >= 16 clearly beats one request per slot.
        let (b16, b1) = (kreq(&t, "16"), kreq(&t, "1"));
        assert!(b16 > 1.5 * b1, "batch=16 ({b16}) should beat batch=1 ({b1})");
    }

    #[test]
    fn shard_sweep_shows_scale_out() {
        let t = run("shard_sweep", 250);
        assert_eq!(keys(&t), ["1", "2", "4", "8"]);
        // The acceptance bar: 4 groups deliver >= 3x the aggregate
        // requests/sec of one group on the same per-group load.
        let (g4, g1) = (kreq(&t, "4"), kreq(&t, "1"));
        assert!(g4 > 3.0 * g1, "G=4 ({g4}) should be >= 3x G=1 ({g1})");
    }

    #[test]
    fn churn_sweep_survives_replacement() {
        let t = run("churn_sweep", 240);
        assert_eq!(keys(&t), ["none (baseline)", "100", "400", "1600", "6400"]);
        // Every run completed its requests, crash and replacement or not.
        for key in keys(&t) {
            assert!(kreq(&t, &key) > 0.0, "row {key} shows no throughput");
        }
    }

    #[test]
    fn ablation_echo_smoke() {
        assert_eq!(keys(&run("ablation_echo", 60)), ["echo-on", "echo-off"]);
    }

    #[test]
    fn ablation_dmem_covers_unreplicated_memory() {
        assert_eq!(keys(&run("ablation_dmem", 60)), ["0", "1", "2"], "f_m = 0 comes first");
    }

    /// Runs nothing: EXPERIMENTS.md has one closed block per experiment, in
    /// the list's order, so `experiments --update` regenerates every table.
    #[test]
    fn experiments_md_holds_one_block_per_experiment_in_order() {
        let doc = std::fs::read_to_string(DOC).expect("EXPERIMENTS.md");
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert_eq!(blocks(&doc), names);
    }

    #[test]
    fn the_command_line_refuses_what_a_tool_does_not_know() {
        let words = |line: &str| line.split_whitespace().map(String::from).collect::<Vec<_>>();
        let parse = |line| parse_args(words(line), &["--smoke"], &["--max-stalled"]);
        let ok = parse("200 --max-stalled 5 --smoke").expect("a valid line");
        assert_eq!(ok, (words("200"), [("--max-stalled".into(), 5), ("--smoke".into(), 0)].into()));
        for bad in ["200 --max-staled 5", "--max-stalled", "--max-stalled five", "--smok"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let counts = ["", "200", "2OO", "1 2"].map(|line| one_count(&words(line), 7).ok());
        assert_eq!(counts, [Some(7), Some(200), None, None]);
        let unknown = select(&words("fig7 fig12")).expect_err("fig12 is refused");
        assert!(unknown.contains("fig12") && unknown.contains("churn_sweep"), "{unknown}");
    }
}
