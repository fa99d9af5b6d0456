//! Where a simulated request's heap allocations come from: runs one named
//! configuration under the sampling allocator and prints its call sites by
//! allocations (or bytes) per request (see EXPERIMENTS.md).
//!
//! `alloc_sites <flip_fast|flip_slow|flip_batched|leader_crash>
//!  [--depth N] [--by-bytes] [--smoke]`
//!
//! `--smoke` runs the tier-1 budget's 500 + 50 requests unsampled and fails
//! if the configuration spends more allocations per request than
//! `ubft_bench::alloc::BUDGETS` allows.
use ubft_bench::alloc::{self, Probe, BUDGETS, CONFIGS};

#[global_allocator]
static PROBE: Probe = Probe;

/// Sites listed.
const TOP: usize = 20;

fn main() {
    let mut name = String::from("flip_fast");
    let (mut depth, mut by_bytes, mut smoke) = (1, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--depth" => {
                depth = args.next().and_then(|n| n.parse().ok()).expect("--depth takes a number");
            }
            "--by-bytes" => by_bytes = true,
            "--smoke" => smoke = true,
            _ => name = arg,
        }
    }
    let Some(&(_, requests, warmup)) = CONFIGS.iter().find(|c| c.0 == name) else {
        let known: Vec<_> = CONFIGS.iter().map(|c| c.0).collect();
        panic!("unknown configuration {name}; one of {known:?}");
    };
    if smoke {
        let (calls, _) = alloc::allocs_per_request(&name, 500, 50, false).expect("known");
        let budget = BUDGETS.iter().find(|b| b.0 == name).map(|b| b.1);
        println!("{name}: {calls:.1} allocations per request, budget {budget:?}");
        assert!(budget.is_none_or(|b| calls <= b), "{name} is over its allocation budget");
        return;
    }
    let (calls, bytes) = alloc::allocs_per_request(&name, requests, warmup, true).expect("known");
    println!(
        "{name}: {requests} + {warmup} requests, {calls:.1} allocations and {:.1} KiB per request",
        bytes / 1024.0
    );
    print!("{}", alloc::site_table(requests + warmup, depth, by_bytes, TOP));
}
