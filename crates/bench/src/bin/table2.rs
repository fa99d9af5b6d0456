//! Regenerates the paper's Table 2 (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::table2());
}
