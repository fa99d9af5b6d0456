//! Regenerates the replica-replacement churn sweep (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::churn_sweep(ubft_bench::cli().samples));
}
