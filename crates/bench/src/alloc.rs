//! The allocation probe: what a simulated request costs the host in heap
//! allocations, and where they come from.
//!
//! Allocation counts are the part of host cost that repeats exactly for a
//! seed, so they can be gated where host microseconds cannot. A binary that
//! installs [`Probe`] as its `#[global_allocator]` gets the count
//! ([`allocs_per_request`]) and, on request, a sample of the call sites
//! ([`site_table`]). `tests/alloc_budget.rs` holds the count under
//! [`BUDGETS`]; the `alloc_sites` binary prints the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ubft_runtime::cluster::Cluster;
use ubft_runtime::SimConfig;
use ubft_sim::failure::FailurePlan;
use ubft_types::{Duration, Time};

use crate::{make_apps, make_workload, SEED};

/// One in this many calls below [`BIG`] bytes is back-traced.
const ONE_IN: u64 = 211;
/// Calls of at least this many bytes are all back-traced: they are few and
/// carry most of the bytes.
const BIG: usize = 8 << 10;

// Statistics only: the counters publish no other data, so `Relaxed` is enough.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Whether call sites are being sampled.
static SAMPLING: AtomicBool = AtomicBool::new(false);
/// Set while a sample is taken: capturing a backtrace allocates, and those
/// calls are the probe's, not the program's. The measured runs are
/// single-threaded, so no other thread's calls are dropped with them.
static IN_PROBE: AtomicBool = AtomicBool::new(false);
static SAMPLES: Mutex<Vec<Sample>> = Mutex::new(Vec::new());

/// One back-traced allocator call, standing for `weight` calls like it.
struct Sample {
    weight: u64,
    bytes: usize,
    trace: Backtrace,
}

/// Forwards to the system allocator, counts `alloc` and `realloc` calls and
/// the bytes they request (frees are not counted), and samples call sites
/// when [`allocs_per_request`] asks for them.
pub struct Probe;

fn record(bytes: usize) {
    if IN_PROBE.load(Ordering::Relaxed) {
        return;
    }
    let nth = CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let weight = if bytes >= BIG { 1 } else { ONE_IN };
    if (bytes >= BIG || nth.is_multiple_of(ONE_IN)) && SAMPLING.load(Ordering::Relaxed) {
        IN_PROBE.store(true, Ordering::Relaxed);
        let trace = Backtrace::force_capture();
        if let Ok(mut samples) = SAMPLES.try_lock() {
            samples.push(Sample { weight, bytes, trace });
        }
        IN_PROBE.store(false, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` touches no allocator state
// (the allocations it makes itself re-enter these methods and return at once).
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls and bytes requested since the process started — zeros
/// unless the binary installed [`Probe`].
fn snapshot() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

/// The configurations the probe knows, by the name of the `ubft_perf`
/// workload each one mirrors (same cluster, same request stream at the
/// default seed), with that workload's measured and warm-up request counts.
pub const CONFIGS: [(&str, u64, u64); 4] = [
    ("flip_fast", 2_000, 100),
    ("flip_slow", 1_200, 100),
    ("flip_batched", 8_000, 100),
    ("leader_crash", 1_000, 0),
];

/// Allocator calls per completed request a debug or release build may
/// spend on the named configuration over 500 + 50 requests: 10 % above
/// what the tree measures (`flip_fast` 128.6, `flip_slow` 498.5,
/// `leader_crash` 376.5). Before messages were encoded once into shared
/// buffers they cost 570, 1 500 and 1 270; before a register read stopped
/// copying every sub-register of every memory node the slow path cost 763.
pub const BUDGETS: [(&str, f64); 3] =
    [("flip_fast", 141.0), ("flip_slow", 550.0), ("leader_crash", 415.0)];

fn config(name: &str) -> Option<SimConfig> {
    let base = SimConfig::paper_default(SEED);
    Some(match name {
        "flip_fast" => base.fast_only(),
        "flip_slow" => base.slow_only(),
        "flip_batched" => base
            .fast_only()
            .with_max_request(64)
            .with_clients(64)
            .with_pipeline_depth(2)
            .with_batch(16),
        "leader_crash" => {
            let mut cfg = base;
            let crash_at = Time::ZERO + Duration::from_millis(2);
            cfg.failures = FailurePlan::none().crash_replica(0, crash_at);
            cfg
        }
        _ => return None,
    })
}

/// Runs `requests + warmup` 32-byte Flip requests through the named
/// configuration and returns allocator `(calls, bytes)` per completed
/// request during the run itself (`Cluster::run_until`; construction is not
/// counted). With `sites`, the run's call sites are sampled for
/// [`site_table`]. `None` for a name not in [`CONFIGS`].
///
/// # Panics
///
/// Panics if the run completes fewer requests than it was asked for.
pub fn allocs_per_request(
    name: &str,
    requests: u64,
    warmup: u64,
    sites: bool,
) -> Option<(f64, f64)> {
    let cfg = config(name)?;
    let deadline = cfg.stall_deadline(requests + warmup);
    let n = cfg.params.n();
    let mut cluster = Cluster::new(cfg, make_apps("flip", n), make_workload("flip", 32));
    SAMPLES.lock().expect("no sampler panicked").clear();
    SAMPLING.store(sites, Ordering::Relaxed);
    let before = snapshot();
    let report = cluster.run_until(requests, warmup, deadline);
    let after = snapshot();
    SAMPLING.store(false, Ordering::Relaxed);
    assert_eq!(report.completed, requests + warmup, "{name}: the run stalled");
    let per_request = |total: u64| total as f64 / report.completed as f64;
    Some((per_request(after.0 - before.0), per_request(after.1 - before.1)))
}

/// One frame of a printed backtrace: its symbol and, where the build has
/// line tables for it, its `file:line`.
struct Frame<'a> {
    symbol: &'a str,
    at: Option<&'a str>,
}

impl Frame<'_> {
    /// Whether the frame is this repository's code (and not the probe's,
    /// or a standard-library generic instantiated for its types). The
    /// source file says so when it is known — a build with line tables
    /// names functions without their paths; the symbol's path does
    /// otherwise.
    fn is_ours(&self) -> bool {
        match self.at {
            Some(at) => !at.starts_with("/rustc/") && !at.contains("bench/src/alloc.rs"),
            None => {
                let head = self.symbol.trim_start_matches('<');
                let foreign = ["alloc::", "core::", "std::", "hashbrown::", "ubft_bench::alloc::"];
                self.symbol.contains("ubft") && !foreign.iter().any(|f| head.starts_with(f))
            }
        }
    }

    fn label(&self) -> String {
        match self.at {
            Some(at) => format!("{} @ {}", self.symbol, at.trim_start_matches("./")),
            None => self.symbol.to_string(),
        }
    }
}

/// The frames of a printed backtrace, innermost first. A frame reads
/// `  12: path::to::function`, optionally followed by a line
/// `      at file:line:column`.
fn frames(text: &str) -> Vec<Frame<'_>> {
    let mut frames: Vec<Frame<'_>> = Vec::new();
    for line in text.lines().map(str::trim_start) {
        if let Some(at) = line.strip_prefix("at ") {
            if let Some(frame) = frames.last_mut() {
                // Keep `file:line`, drop the column.
                frame.at = Some(at.rsplit_once(':').map_or(at, |(file_line, _)| file_line));
            }
        } else if let Some((index, symbol)) = line.split_once(": ") {
            if index.parse::<u32>().is_ok() {
                // Drop the legacy mangling's `::h0123456789abcdef` suffix.
                let symbol = symbol.rsplit_once("::h").map_or(symbol, |(path, _)| path);
                frames.push(Frame { symbol, at: None });
            }
        }
    }
    frames
}

/// The call sites the last [`allocs_per_request`] sampled, heaviest first:
/// each row is a site, its estimated allocator calls and its estimated KiB
/// per `per` requests. A site is the innermost `depth` frames of this
/// repository's code, callee first. Sorted by calls, or by bytes if
/// `by_bytes`; `top` rows at most.
pub fn site_table(per: u64, depth: usize, by_bytes: bool, top: usize) -> String {
    let samples = std::mem::take(&mut *SAMPLES.lock().expect("no sampler panicked"));
    let mut sites: HashMap<String, (f64, f64)> = HashMap::new();
    for s in &samples {
        let text = s.trace.to_string();
        let site: Vec<String> = frames(&text)
            .iter()
            .filter(|f| f.is_ours())
            .take(depth.max(1))
            .map(Frame::label)
            .collect();
        let row = sites.entry(site.join(" < ")).or_default();
        row.0 += s.weight as f64 / per as f64;
        row.1 += (s.weight as usize * s.bytes) as f64 / 1024.0 / per as f64;
    }
    let mut rows: Vec<_> = sites.into_iter().collect();
    let key = |row: &(String, (f64, f64))| if by_bytes { row.1 .1 } else { row.1 .0 };
    rows.sort_by(|a, b| key(b).total_cmp(&key(a)).then_with(|| a.0.cmp(&b.0)));
    let mut out = format!("{:>10} {:>9}  site\n", "allocs/req", "KiB/req");
    for (site, (calls, kib)) in rows.iter().take(top) {
        let site = if site.is_empty() { "(outside the repository's code)" } else { site };
        out.push_str(&format!("{calls:>10.1} {kib:>9.2}  {site}\n"));
    }
    let (calls, kib) = rows.iter().fold((0.0, 0.0), |t, r| (t.0 + r.1 .0, t.1 + r.1 .1));
    out.push_str(&format!("{calls:>10.1} {kib:>9.2}  all {} sampled sites\n", rows.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_attributed_by_file_when_known_and_by_symbol_otherwise() {
        let text = "   0: ubft_bench::alloc::record::h0123456789abcdef\n\
                    \x20  1: grow_one<ubft_core::engine::Effect, alloc::alloc::Global>\n\
                    \x20            at /rustc/59807616/library/alloc/src/raw_vec/mod.rs:340:13\n\
                    \x20  2: on_ctb_deliver\n\
                    \x20            at ./crates/core/src/engine/stream.rs:74:24\n\
                    \x20  3: <alloc::vec::Vec<ubft_core::msg::Request> as core::clone::Clone>::clone\n\
                    \x20  4: <u64 as ubft_types::wire::Wire>::encode::h00000000deadbeef\n";
        let ours: Vec<String> =
            frames(text).iter().filter(|f| f.is_ours()).map(Frame::label).collect();
        assert_eq!(
            ours,
            vec![
                "on_ctb_deliver @ crates/core/src/engine/stream.rs:74",
                "<u64 as ubft_types::wire::Wire>::encode",
            ]
        );
    }
}
