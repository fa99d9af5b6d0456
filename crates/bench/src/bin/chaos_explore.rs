//! Explores seeded chaos plans under the omniscient safety auditor and
//! shrinks + prints any violating plan (see EXPERIMENTS.md).
//!
//! `chaos_explore [PLANS] [--max-stalled N] [--smoke]` exits
//! non-zero on any audit violation and, with `--max-stalled`, when more
//! than `N` plans stall at the deadline — the liveness budget CI ratchets
//! toward zero.
fn main() {
    let mut plans = 200u64;
    let mut max_stalled: Option<u64> = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--max-stalled" {
            let n = args.next().and_then(|v| v.parse().ok());
            max_stalled = Some(n.expect("--max-stalled takes a plan count"));
        } else if let Ok(v) = arg.parse::<u64>() {
            plans = v;
        }
    }
    if smoke {
        plans = plans.min(24);
    }
    let out = ubft_bench::chaos_explore(plans);
    print!("{}", out.record);
    assert_eq!(out.violating, 0, "chaos exploration found audit violations");
    if let Some(budget) = max_stalled {
        assert!(out.stalled <= budget, "{} plans stalled, the budget is {budget}", out.stalled);
    }
}
