//! Criterion wrappers around the paper experiments: each benchmark runs one
//! entry of `ubft_bench::EXPERIMENTS` at a small sample count, so `cargo
//! bench` exercises every table's code path. The printed *virtual-time*
//! tables come from the `experiments` binary; these benchmarks measure the
//! simulator's own wall-clock cost and guard against regressions in the
//! experiment harness.

use criterion::{criterion_group, criterion_main, Criterion};
use ubft_bench::EXPERIMENTS;

const SAMPLES: u64 = 60;

fn bench_experiments(c: &mut Criterion) {
    for &(name, run) in EXPERIMENTS {
        c.bench_function(name, |b| b.iter(|| run(SAMPLES)));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_experiments
}
criterion_main!(benches);
