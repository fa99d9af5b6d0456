//! Explores seeded chaos plans under the omniscient safety auditor and
//! shrinks + prints any violating plan (see EXPERIMENTS.md).
//!
//! `chaos_explore [PLANS] [--max-stalled N] [--smoke]` exits
//! non-zero on any audit violation and, with `--max-stalled`, when more
//! than `N` plans stall — the audit's progress verdict holds a request —
//! which is the liveness budget CI ratchets toward zero. Each stalled seed
//! is printed with the class of its stall report.
use ubft_bench::{one_count, parse_args};

fn main() -> Result<(), String> {
    let (words, flags) = parse_args(std::env::args().skip(1), &["--smoke"], &["--max-stalled"])?;
    let plans = one_count(&words, 200)?;
    let plans = if flags.contains_key("--smoke") { plans.min(24) } else { plans };
    let out = ubft_bench::chaos_explore(plans);
    print!("{}", out.record);
    assert_eq!(out.violating, 0, "chaos exploration found audit violations");
    if let Some(&budget) = flags.get("--max-stalled") {
        assert!(out.stalled <= budget, "{} plans stalled, the budget is {budget}", out.stalled);
    }
    Ok(())
}
