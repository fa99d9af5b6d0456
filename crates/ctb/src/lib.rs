//! Consistent Tail Broadcast (CTBcast) — the paper's core abstraction (§4).
//!
//! CTBcast prevents a Byzantine broadcaster from *equivocating* (sending
//! different messages under the same identifier to different processes)
//! while using only finite memory: correct processes are guaranteed to
//! deliver only the last `t` messages of a correct broadcaster
//! (*tail-validity*), but **agreement holds for all messages** — two correct
//! processes never deliver different messages for the same identifier.
//!
//! The implementation ([`ctbcast::Ctb`], Algorithm 1) is a pure state
//! machine with two paths:
//!
//! * **fast path** — `LOCK`/`LOCKED` rounds of [Tail Broadcast](tbcast):
//!   no signatures, no disaggregated memory; delivers when all `n` receivers
//!   lock the same message;
//! * **slow path** — a `SIGNED` message plus one write and one read-all of
//!   the receiver's SWMR register slot; the first correct writer's value
//!   forces every later reader, preserving agreement under `f` Byzantine
//!   receivers.
//!
//! Both paths interlock through the `locks` array so whichever commits first
//! binds the other. This crate is sans-IO: state machines consume inputs and
//! emit [`CtbEffect`]s and TBcast frames that the runtime maps onto the RDMA
//! transport, the register layer, and the crypto pool.

pub mod ctbcast;
pub mod harness;
pub mod tbcast;
pub mod wire;

pub use ctbcast::{Ctb, CtbConfig, CtbEffect, RegEntry, SlowMode, VerifyTag};
pub use tbcast::{Receipt, TailBroadcaster, TailReceiver};
pub use wire::{CtbWire, TbWire};
