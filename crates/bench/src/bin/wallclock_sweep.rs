//! Wall-clock thread-scaling sweep of the threaded deployment backend:
//! real requests/sec and p50/p99 vs crypto-pool size and shard count
//! (see EXPERIMENTS.md). Unlike the simulator figures, these numbers are
//! host-dependent, and recorded rather than asserted.
//!
//! `wallclock_sweep [SAMPLES] [--smoke]`: `SAMPLES` requests *per shard*
//! (default `ubft_bench::SAMPLES`), so every group does the same work at
//! every `G` and the throughput column shows scale-out; `--smoke` runs a
//! smaller grid at 60 requests per shard at most. The table prints like the
//! `experiments` tables, with the host's core count in its title. A second
//! table counts each grid point's operations per request, on the threads
//! and on the simulator twin of the same configuration, and a third times
//! the groups' leaders per request on both: the main core by the kind of
//! input, and the execution core. The threads' times are wall time, the
//! twin's virtual time charged.
use ubft_apps::{workload, FlipApp};
use ubft_bench::{one_count, parse_args, Table, SAMPLES, SEED, WARMUP};
use ubft_core::app::App;
use ubft_runtime::threads::{run_backend, ThreadWorkload, WallOptions};
use ubft_runtime::{Backend, SimConfig};

fn main() -> Result<(), String> {
    let (words, flags) = parse_args(std::env::args().skip(1), &["--smoke"], &[])?;
    let smoke = flags.contains_key("--smoke");
    let samples = one_count(&words, SAMPLES)?.min(if smoke { 60 } else { u64::MAX });
    let (workers, shards): (&[usize], &[usize]) =
        if smoke { (&[1, 2], &[1, 2]) } else { (&[1, 2, 4], &[1, 2, 4, 8]) };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut t = Table::new(
        format!(
            "Wall-clock sweep: Backend::Threads, fast path, 32 B Flip, 2 clients/shard, {samples} \
             requests/shard; host cores: {cores} (host-dependent, not seed-deterministic)"
        ),
        "crypto workers | shards | kreq/s:1 | p50 µs:1 | p99 µs:1 | completed:0",
    );
    let mut ops = Table::new(
        "Operations per request: messages by lane, signatures, verifications, register operations",
        "backend | crypto workers | shards | rpc:2 | ctb:2 | cons:2 | direct:2 | signs:2 | \
         verifies:2 | reg writes:2 | reg reads:2",
    );
    let mut core = Table::new(
        "Leader core time per request, ns: main core by input kind (client requests, direct \
         messages, consensus and CTBcast frames, timers, completions), and execution core",
        "backend | crypto workers | shards | client:0 | direct:0 | cons:0 | ctb:0 | timers:0 | \
         completions:0 | exec:0",
    );
    for &w in workers {
        for &g in shards {
            let cfg = SimConfig::paper_default(SEED).fast_only().with_backend(Backend::Threads);
            let cfg =
                cfg.with_crypto_workers(w).with_time_scale(200).with_clients(2).with_shards(g);
            let n = cfg.params.n();
            let warmup = (samples / 10).min(WARMUP) * g as u64;
            let opts = WallOptions { requests: samples * g as u64, warmup, ..Default::default() };
            let run = |backend| {
                run_backend(
                    &cfg.clone().with_backend(backend),
                    |_| (0..n).map(|_| Box::new(FlipApp::new()) as Box<dyn App + Send>).collect(),
                    |gi| -> ThreadWorkload {
                        let mut rng = workload::WorkloadRng::new(SEED ^ 0x77 ^ gi as u64);
                        Box::new(move |_| Some(workload::flip_request(&mut rng, 32)))
                    },
                    &opts,
                )
            };
            let mut report = run(Backend::Threads);
            let [p50, p99] = [50.0, 99.0].map(|q| report.latency.percentile(q).as_micros_f64());
            t.push(&[&w, &g], &[report.kreq_per_sec(), p50, p99, report.completed as f64]);
            for r in [report, run(Backend::Sim)] {
                let c = r.counters;
                let counts = [c.rpc_msgs, c.ctb_msgs, c.cons_msgs, c.direct_msgs];
                let crypto = [c.ctb_signs + c.engine_signs, c.ctb_verifies + c.engine_verifies];
                let counts = counts.into_iter().chain(crypto).chain([c.reg_writes, c.reg_reads]);
                let per_request = counts.map(|n| n as f64 / r.completed as f64);
                let backend = format!("{:?}", r.backend);
                ops.push(&[&backend, &w, &g], &per_request.collect::<Vec<_>>());
                let mut ns = [0.0; 7];
                for c in r.groups.iter().map(|group| group.replicas[0].core) {
                    let lanes = [c.client_requests, c.direct_msgs, c.consensus_frames];
                    let kinds = lanes.into_iter().chain([c.ctb_frames, c.timers, c.completions]);
                    let kinds = kinds.chain([c.execution]);
                    ns.iter_mut().zip(kinds).for_each(|(ns, d)| *ns += d.as_nanos() as f64);
                }
                core.push(&[&backend, &w, &g], &ns.map(|ns| ns / r.completed as f64));
            }
        }
    }
    print!("{t}\n{ops}\n{core}");
    Ok(())
}
