//! Regenerates the paper's Fig7 (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::fig7(ubft_bench::cli().samples));
}
