//! Regenerates the paper's Fig8 (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::fig8(ubft_bench::cli().samples));
}
