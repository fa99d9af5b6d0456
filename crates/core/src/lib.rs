//! The uBFT state-machine-replication engine (§5, Appendix B).
//!
//! A PBFT-shaped, leader-based consensus protocol re-engineered for
//! `2f + 1` replicas, finite memory, and microsecond latency:
//!
//! * **Common case, fast path** (Figure 4): `PREPARE` via CTBcast's fast
//!   path, then signature-less `WILL_CERTIFY` / `WILL_COMMIT` rounds of
//!   TBcast; decides after two unanimous rounds.
//! * **Common case, slow path** (Figure 3): `PREPARE` via CTBcast, signed
//!   `CERTIFY` shares aggregated into an unforgeable certificate, and a
//!   `COMMIT` round via CTBcast; decides on `f + 1` matching COMMITs.
//! * **Checkpoints** bound memory: a sliding window of open slots advances
//!   only via `f + 1`-signed application checkpoints.
//! * **CTBcast summaries** (Algorithm 4) restore FIFO interpretation across
//!   the delivery gaps that tail-validity permits, and gate a broadcaster
//!   every `t/2` messages (double buffering) — the mechanism behind the
//!   paper's Figure 11 thrashing result.
//! * **View change** (Algorithm 3) with `SEAL_VIEW` / `CRTFY_VC` /
//!   `NEW_VIEW` preserves applied requests across leader changes.
//! * **Byzantine checks** (Algorithm 5) validate every CTBcast message
//!   in FIFO order; a detectably Byzantine stream is blocked forever.
//!
//! The [`engine::Engine`] is a sans-IO state machine: the runtime feeds it
//! deliveries/timers and executes its [`engine::Effect`]s. Its crypto comes
//! in two kinds. *Ordered* crypto — a slot's own CERTIFY signature, the
//! verification of a foreign commit certificate, view-change signatures
//! and verifications, a joining node's checkpoint certificates — runs
//! inline and is *metered* ([`engine::CryptoOps`]), so the runtime charges
//! virtual time for it before the call's effects act. Everything that
//! collects `f + 1` shares toward a certificate — a slot's CERTIFY shares,
//! checkpoint certification, summary certification — leaves as
//! [`crypto_job::CryptoJob`]s for the driver's crypto worker and re-enters
//! as an input, as do the two periodic certifications' own signatures.

pub mod app;
pub mod client;
pub mod crypto_job;
pub mod engine;
pub mod harness;
pub mod lru;
pub mod msg;

pub use app::App;
pub use client::Client;
pub use crypto_job::{CryptoJob, CryptoResult, CryptoTag, CryptoWork};
pub use engine::{CryptoOps, Effect, Engine, EngineConfig, PathMode, TimerKind};
pub use lru::LruMap;
pub use msg::{CheckpointCert, CommitCert, CtbMsg, DirectMsg, Prepare, Reply, Request, TbMsg};
