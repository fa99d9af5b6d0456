//! Wall-clock thread-scaling sweep of the threaded deployment backend:
//! real requests/sec and p50/p99 vs crypto-pool size and shard count
//! (see EXPERIMENTS.md). Unlike the simulator figures, these numbers are
//! host-dependent, and recorded rather than asserted.
fn main() {
    let cli = ubft_bench::cli();
    let (text, json) = ubft_bench::wallclock_sweep(cli.samples, cli.smoke);
    print!("{text}");
    if cli.json {
        ubft_bench::write_bench_json("wallclock_sweep", &json);
    }
}
