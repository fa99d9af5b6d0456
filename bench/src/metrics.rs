//! The metric tables, and how each value is derived from the repetitions.
//!
//! End-to-end metrics are what a user of the system sees and are gated by a
//! bound; per-layer metrics say where the work went and have none. Both
//! tables are the source of `BENCHMARK.json` ([`benchmark_json`]).

use ubft::runtime::OpCounters;

use crate::json::{quote, Metric};
use crate::stats::{lower_decile, median};
use crate::workloads::{Clock, SimRep, WallRep, Workload, WORKLOADS};

/// Seconds each run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u64 = 12;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Bound of the seven figures that repeat exactly for a seed: virtual time,
/// memory sizes and allocation counts (the last to one call in a million).
/// They move only when behaviour does. Over five sets of ten seeds the widest
/// interquartile spread was 0.4 % (the two-client twin of `threads_flip`), and
/// the bound is three times that, rounded up (README, "Why these estimators").
pub const EXACT_BOUND: f64 = 0.015;
/// Bound of `setup_s`, the one host time that is gated (the driver requires
/// it), and the largest a bound may be. The host runs 20–50 % slower for
/// minutes at a time, which no estimator inside a 12-second run sees past;
/// every other host time is therefore a per-layer metric, recorded and not
/// gated (README, "Why these estimators").
pub const HOST_BOUND: f64 = 0.25;

/// The end-to-end metrics, reported for every workload.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "virt_p50_us", unit: "us", better: Better::Lower, bound: EXACT_BOUND },
    EndToEnd { name: "virt_p99_us", unit: "us", better: Better::Lower, bound: EXACT_BOUND },
    EndToEnd { name: "virt_kreq_s", unit: "kreq/s", better: Better::Higher, bound: EXACT_BOUND },
    EndToEnd {
        name: "disagg_kib_per_node",
        unit: "KiB",
        better: Better::Lower,
        bound: EXACT_BOUND,
    },
    EndToEnd { name: "replica_local_kib", unit: "KiB", better: Better::Lower, bound: EXACT_BOUND },
    EndToEnd {
        name: "sim_allocs_per_req",
        unit: "count",
        better: Better::Lower,
        bound: EXACT_BOUND,
    },
    EndToEnd {
        name: "sim_alloc_kib_per_req",
        unit: "KiB",
        better: Better::Lower,
        bound: EXACT_BOUND,
    },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: HOST_BOUND },
];

/// The per-layer metrics, reported for every workload by the traced run:
/// `(name, unit, direction)`. Layers are the crates.
pub const PER_LAYER: [(&str, &str, Better); 52] = [
    // Counts from the workload's simulator report, exact.
    ("transport.rpc_msgs_per_req", "count", Better::Lower),
    ("ctb.msgs_per_req", "count", Better::Lower),
    ("core.cons_msgs_per_req", "count", Better::Lower),
    ("core.direct_msgs_per_req", "count", Better::Lower),
    ("crypto.signs_per_req", "count", Better::Lower),
    ("crypto.verifies_per_req", "count", Better::Lower),
    ("dmem.reg_writes_per_req", "count", Better::Lower),
    ("dmem.reg_reads_per_req", "count", Better::Lower),
    ("core.reqs_per_slot", "count", Better::Higher),
    ("core.view_changes", "count", Better::Lower),
    ("core.failover_us", "us", Better::Lower),
    // Host time on the workload's own backend, recorded and not gated.
    ("runtime.host_us_per_req", "us", Better::Lower),
    ("runtime.sim_host_ns_per_msg", "ns", Better::Lower),
    ("runtime.sim_self_frac", "frac", Better::Lower),
    ("bench.trace_overhead_frac", "frac", Better::Lower),
    // The threaded runtime on the threads_flip configuration, not gated.
    ("runtime.threads_p50_us", "us", Better::Lower),
    ("runtime.threads_p99_us", "us", Better::Lower),
    ("runtime.threads_kreq_s", "kreq/s", Better::Higher),
    ("runtime.threads_cpu_us_per_req", "us", Better::Lower),
    ("runtime.threads_sys_frac", "frac", Better::Lower),
    ("runtime.threads_allocs_per_req", "count", Better::Lower),
    ("runtime.threads_spawn_ms", "ms", Better::Lower),
    // Probes, the same for every workload.
    ("crypto.sha256_ns_64b", "ns", Better::Lower),
    ("crypto.sha256_ns_4k", "ns", Better::Lower),
    ("crypto.sign_ns", "ns", Better::Lower),
    ("crypto.verify_ns", "ns", Better::Lower),
    ("crypto.hmac_ns_64b", "ns", Better::Lower),
    ("crypto.checksum_ns_64b", "ns", Better::Lower),
    ("core.msg_encode_ns", "ns", Better::Lower),
    ("core.msg_decode_ns", "ns", Better::Lower),
    ("core.msg_decode_allocs", "count", Better::Lower),
    ("ctb.wire_encode_ns", "ns", Better::Lower),
    ("ctb.wire_decode_ns", "ns", Better::Lower),
    ("ctb.wire_decode_allocs", "count", Better::Lower),
    ("ctb.fast_deliver_ns", "ns", Better::Lower),
    ("ctb.fast_deliver_allocs", "count", Better::Lower),
    ("ctb.slow_deliver_ns", "ns", Better::Lower),
    ("core.engine_decide_ns", "ns", Better::Lower),
    ("core.engine_decide_allocs", "count", Better::Lower),
    ("dmem.reg_write_ns", "ns", Better::Lower),
    ("dmem.reg_write_virt_us", "us", Better::Lower),
    ("dmem.reg_read_ns", "ns", Better::Lower),
    ("dmem.reg_read_virt_us", "us", Better::Lower),
    ("transport.channel_send_poll_ns", "ns", Better::Lower),
    ("transport.inproc_send_recv_ns", "ns", Better::Lower),
    ("transport.inproc_wake_ns", "ns", Better::Lower),
    ("sim.event_queue_ns", "ns", Better::Lower),
    ("apps.flip_exec_ns", "ns", Better::Lower),
    ("apps.kv_exec_ns", "ns", Better::Lower),
    ("apps.orderbook_exec_ns", "ns", Better::Lower),
    ("runtime.unreplicated_p50_us", "us", Better::Lower),
    ("runtime.mu_p50_us", "us", Better::Lower),
];

/// The measured repetitions of one workload; the discarded warm-up
/// repetition is not among them.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static Workload,
    /// Simulator repetitions: the workload itself, or its twin on the model.
    pub sim: Vec<SimRep>,
    /// Threaded repetitions; empty for a simulated workload.
    pub wall: Vec<WallRep>,
    /// Whether spans were recorded during host-timed repetition `i`.
    pub traced: Vec<bool>,
    /// Requests asked for over all repetitions, the warm-up one included.
    pub attempted: u64,
    /// Requests that did not complete, or completed in a repetition that
    /// failed a correctness gate.
    pub failed: u64,
    /// What the gates objected to.
    pub violations: Vec<String>,
}

impl Outcome {
    /// Whether every gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Host µs per completed request of every repetition on the workload's
    /// own backend with spans `traced`: `Cluster::run_until` time for the
    /// simulator, launch to target completion for threads.
    fn host_us(&self, traced: bool) -> Vec<f64> {
        let per_rep: Vec<f64> = match self.workload.clock {
            Clock::Virtual => {
                self.sim.iter().map(|r| r.run_s * 1e6 / r.exact.completed.max(1) as f64).collect()
            }
            Clock::Wall => {
                self.wall.iter().map(|r| r.elapsed_s * 1e6 / r.completed.max(1) as f64).collect()
            }
        };
        per_rep
            .into_iter()
            .zip(&self.traced)
            .filter(|(_, t)| **t == traced)
            .map(|(v, _)| v)
            .collect()
    }

    fn setup_s(&self) -> Vec<f64> {
        match self.workload.clock {
            Clock::Virtual => self.sim.iter().map(|r| r.build_s).collect(),
            Clock::Wall => self.wall.iter().map(|r| r.setup_s).collect(),
        }
    }
}

fn kib(bytes: f64) -> f64 {
    bytes / 1024.0
}

/// Host µs per completed request on the workload's own backend: the lower
/// decile over the repetitions that recorded no spans.
pub fn host_us_per_req(o: &Outcome) -> f64 {
    lower_decile(&o.host_us(false)).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of one workload, in table order. An empty sample
/// gives NaN, which the result line writes as `null`.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let first = &o.sim[0].exact;
    let done = first.completed.max(1) as f64;
    // Allocation counts repeat to ±1 call in a million; take the middle.
    let mid = |f: fn(&SimRep) -> u64| {
        median(&o.sim.iter().map(|r| f(r) as f64).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "virt_p50_us" => first.p50_ns as f64 / 1e3,
                "virt_p99_us" => first.p99_ns as f64 / 1e3,
                "virt_kreq_s" => done / (first.end_ns as f64 / 1e6),
                "disagg_kib_per_node" => kib(first.disagg_bytes as f64),
                "replica_local_kib" => kib(first.local_bytes as f64),
                "sim_allocs_per_req" => mid(|r| r.allocs.calls) / done,
                "sim_alloc_kib_per_req" => kib(mid(|r| r.allocs.bytes)) / done,
                "setup_s" => lower_decile(&o.setup_s()).unwrap_or(f64::NAN),
                other => unreachable!("END_TO_END lists {other} but nothing derives it"),
            };
            Metric { name: m.name, unit: m.unit, value }
        })
        .collect()
}

fn total_msgs(c: &OpCounters) -> u64 {
    c.rpc_msgs + c.ctb_msgs + c.cons_msgs + c.direct_msgs
}

/// The per-layer metrics of one workload, in table order. `probes` are the
/// workload-independent probe results and `threads` the threaded runtime's
/// repetitions on the `threads_flip` configuration. A name that nothing
/// derives and no probe measured gives NaN.
pub fn per_layer(o: &Outcome, probes: &[Metric], threads: &[WallRep]) -> Vec<Metric> {
    let first = &o.sim[0].exact;
    let c = &first.counters;
    let done = first.completed.max(1) as f64;
    let per_req = |count: u64| count as f64 / done;
    let probe = |name: &str| probes.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);

    let sim_run_ns =
        lower_decile(&o.sim.iter().map(|r| r.run_s * 1e9).collect::<Vec<_>>()).unwrap_or(f64::NAN);
    let signs = c.ctb_signs + c.engine_signs;
    let verifies = c.ctb_verifies + c.engine_verifies;
    // What the probes explain of the simulator's host time: every message is
    // one channel send + poll and one event; CTBcast frames are also encoded
    // and decoded; crypto and register operations at their probed cost; every
    // request is decided by three engines and executed three times.
    let explained_ns = total_msgs(c) as f64
        * (probe("transport.channel_send_poll_ns") + probe("sim.event_queue_ns"))
        + c.ctb_msgs as f64 * (probe("ctb.wire_encode_ns") + probe("ctb.wire_decode_ns"))
        + signs as f64 * probe("crypto.sign_ns")
        + verifies as f64 * probe("crypto.verify_ns")
        + c.reg_writes as f64 * probe("dmem.reg_write_ns")
        + c.reg_reads as f64 * probe("dmem.reg_read_ns")
        + done * (probe("core.engine_decide_ns") + 3.0 * probe("apps.flip_exec_ns"));

    let over = |f: fn(&WallRep) -> f64| threads.iter().map(f).collect::<Vec<f64>>();
    // Processor time comes in 10 ms ticks, so it is summed over repetitions.
    let cpu_s: f64 = threads.iter().map(|r| r.cpu_user_s + r.cpu_sys_s).sum();
    let sys_s: f64 = threads.iter().map(|r| r.cpu_sys_s).sum();
    let threads_done: f64 = threads.iter().map(|r| r.completed as f64).sum();

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "transport.rpc_msgs_per_req" => per_req(c.rpc_msgs),
                "ctb.msgs_per_req" => per_req(c.ctb_msgs),
                "core.cons_msgs_per_req" => per_req(c.cons_msgs),
                "core.direct_msgs_per_req" => per_req(c.direct_msgs),
                "crypto.signs_per_req" => per_req(signs),
                "crypto.verifies_per_req" => per_req(verifies),
                "dmem.reg_writes_per_req" => per_req(c.reg_writes),
                "dmem.reg_reads_per_req" => per_req(c.reg_reads),
                "core.reqs_per_slot" => first.decided as f64 / first.slots.max(1) as f64,
                "core.view_changes" => first.views.iter().copied().max().unwrap_or(0) as f64,
                "core.failover_us" => first.max_ns as f64 / 1e3,
                "runtime.host_us_per_req" => host_us_per_req(o),
                "runtime.sim_host_ns_per_msg" => sim_run_ns / total_msgs(c).max(1) as f64,
                "runtime.sim_self_frac" => 1.0 - explained_ns / sim_run_ns,
                "bench.trace_overhead_frac" => {
                    lower_decile(&o.host_us(true)).unwrap_or(f64::NAN) / host_us_per_req(o) - 1.0
                }
                "runtime.threads_p50_us" => lower_decile(&over(|r| r.p50_us)).unwrap_or(f64::NAN),
                "runtime.threads_p99_us" => median(&over(|r| r.p99_us)).unwrap_or(f64::NAN),
                "runtime.threads_kreq_s" => {
                    median(&over(|r| r.completed as f64 / r.elapsed_s / 1e3)).unwrap_or(f64::NAN)
                }
                "runtime.threads_cpu_us_per_req" => cpu_s * 1e6 / threads_done,
                "runtime.threads_sys_frac" => sys_s / cpu_s,
                "runtime.threads_allocs_per_req" => {
                    median(&over(|r| r.allocs.calls as f64 / r.completed.max(1) as f64))
                        .unwrap_or(f64::NAN)
                }
                "runtime.threads_spawn_ms" => {
                    median(&over(|r| r.setup_s * 1e3)).unwrap_or(f64::NAN)
                }
                measured_by_a_probe => probe(measured_by_a_probe),
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// The `BENCHMARK.json` these tables imply.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "bench/Cargo.toml",
        "--",
    ];
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, b)| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(name),
                quote(unit),
                quote(b.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.map(quote).join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::valid_name;

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    #[test]
    fn bounds_and_whys_fit_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate it with `ubft_perf --manifest`");
    }
}
