//! Regenerates the multi-group shard-scaling sweep (see EXPERIMENTS.md).
fn main() {
    print!("{}", ubft_bench::shard_sweep(ubft_bench::cli().samples));
}
