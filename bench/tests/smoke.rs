//! The `--quick` smoke: every workload and every probe runs, passes its
//! correctness gate, and reports every metric `BENCHMARK.json` lists.

use ubft_perf::metrics::{END_TO_END, PER_LAYER};
use ubft_perf::workloads::WORKLOADS;
use ubft_perf::{parse_args, run};

/// Runs the benchmark in-process and returns `(passed, report)`.
fn quick(extra: &[&str]) -> (bool, String) {
    let mut args = vec!["--quick".to_owned()];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    let options = parse_args(&args).expect("valid arguments");
    let mut out = Vec::new();
    let passed = run(&mut out, &options).expect("writing to memory cannot fail");
    (passed, String::from_utf8(out).expect("the report is UTF-8"))
}

/// The result line that follows `# result <workload>`.
fn result_of<'a>(report: &'a str, workload: &str) -> &'a str {
    let marker = format!("# result {workload}");
    let mut lines = report.lines().skip_while(|l| *l != marker);
    lines.next().expect("marker line");
    lines.next().expect("result line")
}

#[test]
fn every_workload_passes_its_gates_and_reports_every_end_to_end_metric() {
    let (passed, report) = quick(&["--seed", "7"]);
    assert!(passed, "{report}");
    assert!(!report.contains("GATE FAILED"), "{report}");
    for w in &WORKLOADS {
        let line = result_of(&report, w.name);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
        assert!(line.contains("\"failed\": 0,"), "{line}");
        for m in &END_TO_END {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            assert!(line.contains(&key), "{} lacks {}", w.name, m.name);
            assert!(!line.contains(&format!("{key}0,")), "{} reports {} as 0", w.name, m.name);
        }
        assert!(!line.contains("null"), "{line}");
    }
    assert_eq!(report.lines().last(), Some(result_of(&report, "threads_flip")));
}

/// The number `name` carries in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key).unwrap_or_else(|| panic!("missing {name}")) + key.len()..];
    rest[..rest.find(',').expect("a unit follows")].parse().expect("a number")
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_and_tells_the_workloads_apart() {
    let (passed, report) = quick(&["--trace", "1"]);
    assert!(passed, "{report}");
    assert!(report.contains("spans written to"), "{report}");
    for w in &WORKLOADS {
        let line = result_of(&report, w.name);
        for (name, unit, _) in &PER_LAYER {
            assert!(value(line, name).is_finite(), "{}: {name}", w.name);
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "missing unit {unit}");
        }
        assert!(!line.contains("null"), "{line}");
        let crashed = f64::from(u8::from(w.name == "leader_crash"));
        assert!(value(line, "core.view_changes") >= crashed, "{}", w.name);
        assert!(crashed > 0.0 || value(line, "core.view_changes") == 0.0, "{}", w.name);
    }
    // The workloads separate the layers: the fast path touches no register
    // and almost no signature, the slow path lives on them, batches fill.
    let fast = result_of(&report, "flip_fast");
    assert_eq!(value(fast, "dmem.reg_writes_per_req"), 0.0);
    assert!(value(fast, "crypto.signs_per_req") < 0.1);
    let slow = result_of(&report, "flip_slow");
    assert!(value(slow, "dmem.reg_writes_per_req") >= 1.0);
    assert!(value(slow, "crypto.signs_per_req") >= 1.0);
    assert!(value(result_of(&report, "flip_batched"), "core.reqs_per_slot") >= 8.0);
}
