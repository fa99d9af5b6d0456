//! `ubft_perf`: one benchmark for virtual time, host cost and wall clock,
//! with a per-layer table.
//!
//! ```text
//! ubft_perf [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--agree] [--quick]
//! ```
//!
//! Runs the named workload, or all five round-robin, checks their outputs,
//! prints every metric by name with its unit, and ends with one JSON result
//! line per workload. `--trace 1` also runs the probes, records spans and
//! prints the per-layer metrics instead. See `README.md` beside this crate.

pub mod alloc;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::io::Write;
use std::path::PathBuf;
use std::time::Duration as HostDuration;

use ubft::sim::LatencyModel;

use json::{result_line, Metric};
use metrics::{
    end_to_end, host_us_per_req, per_layer, Outcome, END_TO_END, HOST_BOUND, RUN_SECONDS,
};
use runner::{run_set, Plan};
use spans::Spans;
use stats::{range_frac, tail_percentile};
use workloads::{by_name, Clock, WallRep, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 0xA5F0_2023;

const USAGE: &str = "usage: ubft_perf [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] \
                     [--agree] [--quick] [--manifest]";

/// The parsed command line.
#[derive(Clone, Debug)]
pub struct Options {
    /// What to run and for how long.
    pub plan: Plan,
    /// Run the untraced set twice and compare.
    pub agree: bool,
    /// Print `BENCHMARK.json` and stop.
    pub manifest: bool,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns what is wrong with them, for printing above the usage line.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut plan = Plan {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
    };
    let (mut agree, mut manifest) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || WORKLOADS.map(|w| w.name).join(", ");
                let w = by_name(name)
                    .ok_or_else(|| format!("unknown workload {name}; known: {}", known()))?;
                plan.workloads = vec![w];
            }
            "--seed" => {
                let v = value()?;
                plan.seed = parse_u64(v).ok_or_else(|| format!("--seed {v} is not a number"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s = parse_u64(v).filter(|s| (1..=60).contains(s));
                plan.seconds = s.ok_or_else(|| format!("--seconds {v} is not in 1..=60"))? as f64;
            }
            "--trace" => {
                plan.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v} is neither 0 nor 1")),
                };
            }
            "--agree" => agree = true,
            "--quick" => plan.quick = true,
            "--manifest" => manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if agree && plan.trace {
        return Err("--agree compares untraced sets; drop --trace 1".into());
    }
    Ok(Options { plan, agree, manifest })
}

fn host_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown cpu".to_owned());
    format!("{cores} cores, {cpu}")
}

fn print_header(out: &mut dyn Write, plan: &Plan) -> std::io::Result<()> {
    let lat = LatencyModel::paper_testbed();
    writeln!(
        out,
        "# ubft_perf: seed {:#x}, {}, {}",
        plan.seed,
        if plan.quick {
            "quick (2 small repetitions)".to_owned()
        } else {
            format!("{} s per workload", plan.seconds)
        },
        if plan.trace { "traced (per-layer metrics)" } else { "untraced (end-to-end metrics)" },
    )?;
    writeln!(out, "# host: {}", host_line())?;
    writeln!(out, "# f = 1: 3 replicas, 3 memory nodes; 32 B Flip requests; closed-loop clients")?;
    writeln!(
        out,
        "# injected delay, simulator: {} ns base + {} ps/B, up to {} ns jitter \
         (LatencyModel::paper_testbed); threads: none",
        lat.base.as_nanos(),
        lat.picos_per_byte,
        lat.jitter.as_nanos(),
    )
}

fn print_metrics(out: &mut dyn Write, metrics: &[Metric]) -> std::io::Result<()> {
    for m in metrics {
        writeln!(out, "    {:<34} {:>16.4} {}", m.name, m.value, m.unit)?;
    }
    Ok(())
}

fn print_outcome(out: &mut dyn Write, plan: &Plan, o: &Outcome) -> std::io::Result<()> {
    let w = o.workload;
    let (requests, warmup) = w.sized(plan.quick);
    let host_reps = o.traced.len();
    writeln!(out, "#\n# {}: {}", w.name, w.why)?;
    writeln!(
        out,
        "#   {host_reps} repetitions of {requests} requests + {warmup} warm-up, after one \
         discarded repetition; {} of them in the simulator",
        o.sim.len()
    )?;
    let samples = o.sim.first().map_or(0, |r| r.exact.samples);
    match tail_percentile(samples) {
        Some((p, beyond)) => writeln!(
            out,
            "#   virtual latency: {samples} samples; the highest percentile with at least ten \
             beyond it is p{p} ({beyond} beyond)"
        ),
        None => writeln!(out, "#   virtual latency: {samples} samples, too few for a tail"),
    }
}

/// Spread of the threaded diagnostics over repetitions: they are not gated,
/// so the reader needs it to judge a difference.
fn print_threads_spread(out: &mut dyn Write, threads: &[WallRep]) -> std::io::Result<()> {
    let spread = |f: fn(&WallRep) -> f64| {
        range_frac(&threads.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0) * 100.0
    };
    writeln!(
        out,
        "#   threaded runtime over {} repetitions, (max - min) / median: p50 {:.0} %, p99 {:.0} %, \
         kreq/s {:.0} %",
        threads.len(),
        spread(|r| r.p50_us),
        spread(|r| r.p99_us),
        spread(|r| r.completed as f64 / r.elapsed_s),
    )
}

/// Where the spans go: beside the executable, inside the build directory.
fn trace_path(plan: &Plan) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(&exe).join("traces");
    std::fs::create_dir_all(&dir)?;
    let name = match plan.workloads.as_slice() {
        [one] => one.name,
        _ => "all",
    };
    Ok(dir.join(format!("{name}.jsonl")))
}

/// What the traced run measures beside the workloads' own repetitions.
struct Layers {
    /// The workload-independent probe metrics.
    probes: Vec<Metric>,
    /// The threaded runtime on the `threads_flip` configuration.
    threads: Vec<WallRep>,
}

/// Runs the probes with spans on, then writes every span recorded so far.
fn probe_layers(
    out: &mut dyn Write,
    plan: &Plan,
    outcomes: &[Outcome],
    spans: &mut Spans,
) -> std::io::Result<Layers> {
    spans.set_enabled(true);
    // The threaded diagnostics come from threads_flip's own repetitions when
    // it ran, else from a few repetitions of its configuration.
    let threads = match outcomes.iter().find(|o| o.workload.clock == Clock::Wall) {
        Some(o) => o.wall.clone(),
        None => {
            let w = by_name("threads_flip").expect("a wall-clock workload exists");
            spans.set_workload(w.name);
            let span = spans.enter("probe:runtime.threads");
            // The first repetition warms the allocator and the scheduler up.
            let _ = workloads::run_wall(w, plan.seed, plan.quick, spans);
            let reps = if plan.quick { 1 } else { 3 };
            let threads =
                (0..reps).map(|_| workloads::run_wall(w, plan.seed, plan.quick, spans)).collect();
            spans.exit(span);
            threads
        }
    };
    let budget = HostDuration::from_millis(if plan.quick { 5 } else { 80 });
    let probes = probes::run_all(plan.seed, budget, spans);
    let path = trace_path(plan)?;
    std::fs::write(&path, spans.to_json_lines())?;
    writeln!(out, "# {} spans written to {}", spans.all().len(), path.display())?;
    Ok(Layers { probes, threads })
}

/// Runs one set and prints it. Returns the outcomes with their end-to-end
/// metrics.
fn run_and_print(out: &mut dyn Write, plan: &Plan) -> std::io::Result<Vec<(Outcome, Vec<Metric>)>> {
    let mut spans = Spans::new(false);
    let outcomes = run_set(plan, &mut spans);
    let layers =
        if plan.trace { Some(probe_layers(out, plan, &outcomes, &mut spans)?) } else { None };

    let mut results = Vec::new();
    let mut lines = Vec::new();
    for o in outcomes {
        print_outcome(out, plan, &o)?;
        let e2e = end_to_end(&o);
        writeln!(out, "#   end to end (setup_s: lower decile over repetitions):")?;
        print_metrics(out, &e2e)?;
        writeln!(
            out,
            "#   host time per request, lower decile over repetitions, recorded and not gated: \
             {:.4} us",
            host_us_per_req(&o)
        )?;
        let per_layer = layers.as_ref().map(|l| per_layer(&o, &l.probes, &l.threads));
        if let (Some(l), Some(metrics)) = (&layers, &per_layer) {
            print_threads_spread(out, &l.threads)?;
            writeln!(out, "#   per layer:")?;
            print_metrics(out, metrics)?;
        }
        writeln!(out, "#   ops_attempted {}  ops_failed {}", o.attempted, o.failed)?;
        for v in &o.violations {
            writeln!(out, "#   GATE FAILED: {v}")?;
        }
        let reported = per_layer.as_ref().unwrap_or(&e2e);
        lines.push(result_line(o.correct(), o.attempted.max(1), o.failed, reported));
        results.push((o, e2e));
    }
    // The result lines come last, one per workload in order.
    for ((o, _), line) in results.iter().zip(lines) {
        writeln!(out, "# result {}\n{line}", o.workload.name)?;
    }
    Ok(results)
}

/// Whether `second` agrees with `first`: within the metric's bound of it, and
/// for every tier below the host one to four significant digits.
fn agrees(bound: f64, first: f64, second: f64) -> bool {
    let scale = first.abs().max(second.abs());
    if scale == 0.0 {
        return true;
    }
    let diff = (first - second).abs() / scale;
    if bound < HOST_BOUND {
        diff < 5e-4
    } else {
        diff <= bound
    }
}

/// Runs the benchmark as the command line asks, writing the report to `out`.
/// Returns whether every correctness gate, and `--agree` if asked, passed.
///
/// # Errors
///
/// Returns the error of writing to `out` or to the trace file.
pub fn run(out: &mut dyn Write, options: &Options) -> std::io::Result<bool> {
    if options.manifest {
        write!(out, "{}", metrics::benchmark_json())?;
        return Ok(true);
    }
    let plan = &options.plan;
    print_header(out, plan)?;
    let first = run_and_print(out, plan)?;
    let mut ok = first.iter().all(|(o, _)| o.correct());
    if options.agree {
        writeln!(out, "#\n# --agree: the same set again")?;
        let second = run_and_print(out, plan)?;
        ok &= second.iter().all(|(o, _)| o.correct());
        writeln!(out, "#\n# agreement of the two sets (all but setup_s: 4 significant digits):")?;
        for ((o, a), (_, b)) in first.iter().zip(&second) {
            for ((m, x), y) in END_TO_END.iter().zip(a).zip(b) {
                let same = agrees(m.bound, x.value, y.value);
                ok &= same;
                writeln!(
                    out,
                    "#   {:<13} {:<22} {:>14.4} {:>14.4} {:<6} bound {:>4.0} %  better {}  {}",
                    o.workload.name,
                    m.name,
                    x.value,
                    y.value,
                    m.unit,
                    m.bound * 100.0,
                    m.better.as_str(),
                    if same { "ok" } else { "DISAGREES" },
                )?;
            }
        }
        writeln!(out, "# agree: {}", if ok { "ok" } else { "FAILED" })?;
    }
    Ok(ok)
}

/// The whole program: parses `args`, runs, and returns the exit code.
pub fn main_with(args: &[String], out: &mut dyn Write) -> u8 {
    let options = match parse_args(args) {
        Ok(o) => o,
        Err(why) => {
            eprintln!("ubft_perf: {why}\n{USAGE}");
            return 2;
        }
    };
    match run(out, &options) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("ubft_perf: {e}");
            3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let o = parse_args(&args(&[
            "--workload",
            "flip_slow",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(o.plan.workloads.len(), 1);
        assert_eq!(o.plan.workloads[0].name, "flip_slow");
        assert_eq!((o.plan.seed, o.plan.seconds, o.plan.trace), (7, 15.0, true));
        let d = parse_args(&[]).expect("defaults");
        assert_eq!((d.plan.workloads.len(), d.plan.seed, d.plan.trace), (5, DEFAULT_SEED, false));
        assert_eq!(
            parse_args(&args(&["--seed", "0xA5F02023"])).expect("hex").plan.seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--frobnicate"],
            &["--agree", "--trace", "1"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn agreement_is_tight_for_exact_metrics_and_bounded_for_host_ones() {
        assert!(agrees(0.01, 8.767, 8.767));
        assert!(agrees(0.01, 8.7670, 8.7672));
        assert!(!agrees(0.01, 8.767, 8.78));
        assert!(agrees(0.25, 100.0, 124.0));
        assert!(!agrees(0.25, 100.0, 140.0));
        assert!(agrees(0.25, 0.0, 0.0));
    }

    #[test]
    fn every_workload_supports_its_p99() {
        for w in &WORKLOADS {
            let (p, _) = tail_percentile(w.requests as usize).expect("enough samples");
            assert!(p >= 99.0, "{}: {} samples stop at p{p}", w.name, w.requests);
        }
    }
}
