//! The allocation budget: what one simulated request may cost the host in
//! heap allocations. The count repeats for a seed, so it is gated here the
//! way virtual time is gated by `tail_latency.rs` — a change that brings
//! back a per-field, per-peer or per-frame allocation on the message path
//! fails this test instead of showing up later as host time. `alloc_sites`
//! (EXPERIMENTS.md) says where an overrun comes from.

use ubft_bench::alloc::{allocs_per_request, Probe, BUDGETS};

#[global_allocator]
static PROBE: Probe = Probe;

/// One test, run on its own: the probe counts the whole process, so nothing
/// else may allocate while a configuration runs.
#[test]
fn a_request_stays_within_its_allocation_budget() {
    for (name, budget) in BUDGETS {
        let (calls, _bytes) = allocs_per_request(name, 500, 50, false).expect("a known name");
        println!("{name}: {calls:.1} allocations per request, budget {budget}");
        assert!(calls <= budget, "{name}: {calls:.1} allocations per request, budget {budget}");
        // A budget far above the measurement gates nothing.
        assert!(calls >= 0.8 * budget, "{name}: lower the budget to about {:.0}", 1.1 * calls);
    }
}
