//! Regenerates the request-batching throughput sweep (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::batch_sweep(ubft_bench::cli().samples));
}
