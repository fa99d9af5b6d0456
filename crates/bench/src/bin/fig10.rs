//! Regenerates the paper's Fig10 (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::fig10(ubft_bench::cli().samples));
}
