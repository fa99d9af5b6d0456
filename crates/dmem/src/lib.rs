//! Reliable single-writer multi-reader (SWMR) *regular* registers on top of
//! raw RDMA-exposed memory — the paper's §6.1.
//!
//! Raw RDMA memory is not enough for uBFT's slow path: it does not tolerate
//! memory-node failures and is only 8-byte atomic, so concurrent reads can
//! observe torn values. This crate layers three fixes, exactly as the paper
//! does:
//!
//! * **SWMR** — fabric write tokens give exactly one replica write access.
//! * **Regular** — each register is two checksummed, timestamped
//!   sub-registers written round-robin with a `δ` cooldown between writes;
//!   readers validate checksums and take the highest-timestamped valid
//!   sub-register, detecting Byzantine writers that corrupt checksums or
//!   violate the cooldown.
//! * **Reliable** — every register is replicated across `2f_m + 1` memory
//!   nodes with majority-quorum reads and writes, so `f_m` crashed memory
//!   nodes cannot block progress, and quorum intersection preserves
//!   regularity.

pub mod register;

pub use register::{
    Found, PostedRead, ReadOutcome, RegisterBank, RegisterId, RegisterReader, RegisterWriter,
    WriteOutcome, WritePost,
};
