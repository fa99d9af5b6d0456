//! Regenerates the paper's Fig9 (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::fig9(ubft_bench::cli().samples));
}
