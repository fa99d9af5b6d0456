//! Deterministic discrete-event simulation (DES) substrate.
//!
//! Everything in the reproduction runs on virtual time: the event queue is
//! ordered by [`ubft_types::Time`] with a deterministic FIFO tiebreak, all
//! randomness comes from a seeded [`rng::SimRng`], and latency is charged by
//! explicit [`net::LatencyModel`]s and [`cost::CostModel`]s. Running the same
//! experiment twice with the same seed produces bit-identical traces — which
//! is what lets the benchmark harness regenerate the paper's figures.
//!
//! This crate is policy-free: it knows nothing about BFT, RDMA, or the
//! protocols. Those layers consume it.
//!
//! # Example
//!
//! ```
//! use ubft_sim::event::EventQueue;
//! use ubft_types::{Duration, Time};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(Time::ZERO + Duration::from_micros(2), "b");
//! q.push(Time::ZERO + Duration::from_micros(1), "a");
//! assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
//! ```

pub mod chaos;
pub mod cost;
pub mod event;
pub mod failure;
pub mod net;
pub mod rng;
pub mod stats;

pub use event::EventQueue;
pub use net::{HostId, LatencyModel, NetworkModel};
pub use rng::SimRng;
pub use stats::LatencyStats;
