//! Regenerates the §9 throughput figure (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::throughput(ubft_bench::cli().samples));
}
