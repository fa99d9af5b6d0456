//! Regenerates the paper's Fig11 (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::fig11(ubft_bench::cli().samples));
}
