//! Simulated RDMA fabric: the disaggregated-memory substrate.
//!
//! The paper's prototype exposes memory over RDMA on InfiniBand (§2.3, §6).
//! This crate reproduces the four properties the protocols rely on:
//!
//! 1. **One-sided access** — a [`Memory::write`]/[`Memory::post_read`] completes
//!    without involving the target host's CPU; the target may be a passive
//!    memory node.
//! 2. **Access permissions** — each region has a single writer capability
//!    ([`AccessToken`]); writes with the wrong token are rejected, which is
//!    how single-writer multi-reader semantics are enforced in hardware.
//! 3. **8-byte atomicity** — a read that overlaps an in-flight write returns
//!    a *torn* mix of old and new data at 8-byte granularity ([`region`]),
//!    which is exactly the hazard the checksummed register framing of
//!    `ubft-dmem` exists to detect.
//! 4. **Microsecond latency** — per-op latency follows the calibrated
//!    [`ubft_sim::net::LatencyModel`], and same-pair operations arrive in
//!    FIFO order like a reliable-connection queue pair; a read there
//!    executes only once the writes posted before it have fully landed.
//!
//! Host crashes make a host's regions permanently unavailable; ops targeting
//! them report [`RdmaError::TargetUnavailable`] and *never complete*, which
//! is how the replicated register layer exercises its majority quorums.
//!
//! The registers reach memory through the [`Memory`] trait: the fabric is
//! one implementation, and [`InProcMemory`] — passive memory behind a lock
//! per node, with no time and no failures — the other, which the threaded
//! backend and the scripted node-level net use.

pub mod fabric;
pub mod memory;
pub mod region;

pub use fabric::{AccessToken, Fabric, RdmaError, ReadPost, RegionId, WriteTicket};
pub use memory::{InProcMemory, Memory};
