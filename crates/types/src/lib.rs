//! Common identifier, virtual-time, configuration, and wire-encoding types
//! shared by every subsystem of the uBFT reproduction.
//!
//! This crate is dependency-free and purely deterministic: every type here can
//! be encoded to bytes with [`wire::Wire`] and decoded back bit-for-bit, which
//! is what the checksummed RDMA transport and the signature layer rely on.
//!
//! # Example
//!
//! ```
//! use ubft_types::{ReplicaId, Time, Duration};
//!
//! let r = ReplicaId(2);
//! assert_eq!(r.to_string(), "r2");
//! let t = Time::ZERO + Duration::from_micros(10);
//! assert_eq!(t.as_nanos(), 10_000);
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod few;
pub mod hash;
pub mod ids;
pub mod time;
pub mod wire;

pub use config::ClusterParams;
pub use error::{CodecError, ProtocolError};
pub use few::Few;
pub use hash::{FixedMap, FixedSet, FixedState};
pub use ids::{ClientId, MemNodeId, ProcessId, ReplicaId, RequestId, SeqId, Slot, View};
pub use time::{Duration, Time};
pub use wire::{Wire, WireReader};
