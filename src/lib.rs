//! Reproduction of **uBFT: Microsecond-Scale BFT using Disaggregated
//! Memory** (Aguilera et al., ASPLOS 2023).
//!
//! uBFT is a state-machine-replication system that tolerates `f` Byzantine
//! replicas with only `2f + 1` replicas, microsecond-scale latency, and
//! practically bounded memory, using disaggregated memory as its only
//! trusted component. This workspace rebuilds the complete system — the
//! consensus engine, Consistent Tail Broadcast, reliable SWMR registers,
//! the circular-buffer transport, an RDMA fabric model, and the Mu/MinBFT
//! baselines — on a deterministic discrete-event simulator, so the paper's
//! entire evaluation reproduces on a laptop from a seed.
//!
//! # Quickstart
//!
//! Replicate an application across three simulated replicas and measure
//! end-to-end client latency on the signature-less fast path:
//!
//! ```
//! use ubft::runtime::cluster::Cluster;
//! use ubft::runtime::SimConfig;
//! use ubft_apps::FlipApp;
//! use ubft_core::app::App;
//!
//! let cfg = SimConfig::paper_default(42).fast_only();
//! let apps: Vec<Box<dyn App>> =
//!     (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
//! let workload = Box::new(|i: u64| i.to_le_bytes().to_vec());
//!
//! let mut cluster = Cluster::new(cfg, apps, workload);
//! let report = cluster.run(100, 10);
//! assert_eq!(report.completed, 110);
//!
//! let mut latency = report.latency;
//! // Byzantine fault tolerance in ~9 virtual microseconds per request.
//! assert!(latency.median() < ubft_types::Duration::from_micros(20));
//! // The fast path never touches a signature.
//! assert_eq!(report.counters.ctb_signs, 0);
//! ```
//!
//! More runnable entry points live in `examples/` at the repository root:
//! `quickstart` (the snippet above), `kv_store`, `order_matching`,
//! `crash_failover`, `byzantine_leader`, and `replica_replacement`
//! (crash a replica mid-run, boot a fresh node for its identity, and
//! watch it converge bit-for-bit via `SimConfig::with_replacement`) —
//! run any of them with `cargo run --release --example <name>`.
//!
//! # Batching and pipelining
//!
//! One consensus slot can decide a whole *batch* of requests
//! ([`core::msg::Batch`]), amortizing the fixed per-slot protocol cost —
//! the throughput lever of the paper's Figures 10/11. Two knobs control
//! it: [`runtime::SimConfig::with_batch`] bounds how many requests share
//! a slot, and [`runtime::SimConfig::with_pipeline_depth`] bounds how many
//! slots the leader keeps in flight (a *narrow* pipeline is what lets a
//! backlog accumulate so batches actually form). The defaults — batch 1,
//! window-wide pipeline — reproduce the unbatched engine exactly.
//!
//! ```
//! use ubft::runtime::cluster::Cluster;
//! use ubft::runtime::SimConfig;
//! use ubft_apps::FlipApp;
//! use ubft_core::app::App;
//!
//! // Eight concurrent clients, at most two slots in flight, up to four
//! // requests per slot: the backlog behind the full pipeline flushes as
//! // multi-request batches.
//! let cfg = SimConfig::paper_default(7)
//!     .fast_only()
//!     .with_clients(8)
//!     .with_pipeline_depth(2)
//!     .with_batch(4);
//! let apps: Vec<Box<dyn App>> =
//!     (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect();
//! let workload = Box::new(|i: u64| i.to_le_bytes().to_vec());
//!
//! let mut cluster = Cluster::new(cfg, apps, workload);
//! let report = cluster.run(80, 8);
//! assert_eq!(report.completed, 88);
//! // Batches count their contents: every completed request was decided
//! // (requests still in flight when the run stops may add a few more).
//! assert!(cluster.decided_of(0) >= 88);
//! ```
//!
//! # Sharding: many groups, one memory pool
//!
//! uBFT keeps each consensus group small (`2f + 1` replicas, bounded
//! memory) precisely so many groups can share one pool of disaggregated
//! memory. [`runtime::ShardedCluster`] deploys
//! [`runtime::SimConfig::with_shards`] independent groups over one
//! fabric and one set of passive memory nodes, routing every request by
//! key hash through [`apps::ShardRouter`] (FNV over the KV key;
//! round-robin for keyless payloads). Aggregate throughput scales nearly
//! linearly with the group count while per-request latency stays flat —
//! see the `shard_sweep` table in `EXPERIMENTS.md`.
//!
//! ```
//! use ubft::runtime::{ShardedCluster, SimConfig};
//! use ubft_apps::FlipApp;
//! use ubft_core::app::App;
//!
//! // Two consensus groups on one fabric; keyless Flip requests
//! // round-robin across them.
//! let cfg = SimConfig::paper_default(3).fast_only().with_shards(2);
//! let mut sharded = ShardedCluster::new(
//!     cfg,
//!     |_group| (0..3).map(|_| Box::new(FlipApp::new()) as Box<dyn App>).collect(),
//!     Box::new(|i: u64| i.to_le_bytes().to_vec()),
//! );
//! let report = sharded.run(60, 6);
//! assert_eq!(report.completed, 66);
//! assert_eq!(report.groups.len(), 2);
//! // Both groups served a slice of the key space.
//! assert!(report.groups.iter().all(|s| s.completed > 0));
//! ```
//!
//! With a single shard, `ShardedCluster` reproduces [`runtime::Cluster`]
//! bit-for-bit — same seeds, same host layout, same event order — for
//! workloads that derive requests from internal state, like every stock
//! §7.1 generator. (The one observable difference: `ShardedCluster`
//! passes the global generation index as the workload's `u64` argument,
//! while `Cluster` passes the completed count, so a workload that is a
//! pure function of that argument sees different values when several
//! clients race.) The equivalence is pinned by `tests/sharding.rs`,
//! which also proves fault *containment*: a crash or Byzantine fault
//! injected into one shard (via
//! [`runtime::SimConfig::with_shard_failures`]) leaves every other
//! shard's report untouched.
//!
//! # Failure injection
//!
//! Inject failures — crashes, partitions, asynchrony, or Byzantine
//! behaviour — through [`sim::failure::FailurePlan`] on the same config;
//! see `tests/byzantine.rs` for the full fault-injection suite and
//! `crates/bench` for the binaries that regenerate every table and figure
//! of the paper's evaluation (documented in `EXPERIMENTS.md`).
//!
//! # Layer map
//!
//! | Module | Contents | Paper |
//! |---|---|---|
//! | [`types`] | ids, views, slots, virtual time, wire codec | — |
//! | [`crypto`] | SHA-256, HMAC, checksums, signatures, f+1 certificates | §2.4 |
//! | [`sim`] | event queue, RNG, latency/cost models, failure plans | Table 1 |
//! | [`rdma`] | one-sided READ/WRITE fabric with per-region permissions | §2.3 |
//! | [`dmem`] | reliable SWMR regular registers over memory nodes | §6.1 |
//! | [`transport`] | ack-free circular-buffer channels, client RPC | §6.2 |
//! | [`ctb`] | Tail Broadcast + Consistent Tail Broadcast (Algorithm 1) | §4 |
//! | [`core`] | the uBFT SMR engine (Algorithms 2–5), client | §5, App. B |
//! | [`apps`] | Flip, KV store, order-matching engine | §7.1 |
//! | [`mu`], [`minbft`] | the crash-only and SGX-counter baselines | §7.2 |
//! | [`runtime`] | the simulated deployment wiring everything together | §7 |
//!
//! `ARCHITECTURE.md` at the repository root walks through the same layers
//! in depth: the dependency DAG between the crates, the sans-IO
//! `Effect`-driven engine loop, and where request batching and the
//! proposal pipeline sit in it.

#![deny(missing_docs)]

pub use ubft_apps as apps;
pub use ubft_core as core;
pub use ubft_crypto as crypto;
pub use ubft_ctb as ctb;
pub use ubft_dmem as dmem;
pub use ubft_minbft as minbft;
pub use ubft_mu as mu;
pub use ubft_rdma as rdma;
pub use ubft_runtime as runtime;
pub use ubft_sim as sim;
pub use ubft_transport as transport;
pub use ubft_types as types;

/// The scripted harness: `n` engines ([`harness::EngineNet`]) or `n` CTBcast
/// receivers ([`harness::CtbNet`]), every step a pending move somebody picks.
pub mod harness {
    pub use ubft_core::harness::*;
    pub use ubft_ctb::harness::*;
}
