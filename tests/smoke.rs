//! Workspace smoke test: the `ubft` façade must re-export every layer, and
//! the paper-default configuration must be stable and reproducible.

use ubft::core::app::App;
use ubft::runtime::SimConfig;

/// Every `pub use` in the façade resolves and names the same types as the
/// underlying crates (one load-bearing item per layer).
#[test]
fn facade_reexports_resolve() {
    // types / crypto
    let replica = ubft::types::ReplicaId(0);
    let digest: ubft::crypto::Digest = ubft::crypto::sha256(b"ubft");
    assert_eq!(digest, ubft_crypto::sha256(b"ubft"));

    // sim / rdma: an RNG driving a fabric over the paper-testbed network
    let net =
        ubft::sim::net::NetworkModel::synchronous(ubft::sim::net::LatencyModel::paper_testbed(), 6);
    let mut fabric = ubft::rdma::Fabric::new(net, ubft::sim::SimRng::new(1));

    // dmem: a register bank on the fabric's memory nodes
    let mems = [ubft::sim::HostId(3), ubft::sim::HostId(4), ubft::sim::HostId(5)];
    let bank = ubft::dmem::register::RegisterBank::create(
        &mut fabric,
        &mems,
        1,
        4,
        ubft::types::Duration::from_micros(10),
    );
    let _ = bank.reader();

    // transport / ctb / core / apps / mu / minbft
    let spec = ubft::transport::channel::ChannelSpec { slots: 4, slot_payload: 64 };
    assert_eq!(spec.slots, 4);
    let cfg = ubft::ctb::ctbcast::CtbConfig {
        n: 3,
        tail: 4,
        fast_enabled: true,
        slow: ubft::ctb::ctbcast::SlowMode::OnTimeout,
    };
    assert_eq!(cfg.n, 3);
    assert_eq!(ubft::core::PathMode::FastOnly, ubft_core::PathMode::FastOnly);
    let mut flip = ubft::apps::FlipApp::new();
    let _ = flip.execute(&[1]);
    let _ = ubft::mu::MuFollower::new();
    let _ = ubft::minbft::ClientAuth::EnclaveHmac;

    let _ = replica;
}

/// `SimConfig::paper_default` round-trips: the same seed yields an
/// identical configuration (field-for-field, via the Debug projection,
/// since randomness only enters at run time), builders compose without
/// losing the paper defaults, and the façade path names the same type as
/// `ubft_runtime`.
#[test]
fn paper_default_round_trips() {
    let a = SimConfig::paper_default(42);
    let b = ubft_runtime::SimConfig::paper_default(42);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));

    let tweaked = SimConfig::paper_default(42).fast_only().with_tail(16).with_max_request(64);
    assert_eq!(tweaked.params.tail, 16);
    assert_eq!(tweaked.params.max_request_bytes, 64);
    assert_eq!(tweaked.seed, 42);
    // Un-tweaked fields keep the paper defaults.
    let base = SimConfig::paper_default(42);
    assert_eq!(tweaked.failures, base.failures);
    assert_eq!(tweaked.n_clients, base.n_clients);
    assert_eq!(format!("{:?}", tweaked.latency), format!("{:?}", base.latency));
}
