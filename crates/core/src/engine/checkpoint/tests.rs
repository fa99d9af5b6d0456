//! What the engine keeps across checkpoints: a whole group on the scripted
//! fabric.

use ubft_types::{ClusterParams, Slot};

use crate::app::NoopApp;
use crate::engine::{EngineConfig, PathMode};
use crate::harness::EngineNet;

/// Every slow-path slot adds a COMMIT certificate to each replica's
/// verification cache; a checkpoint must take out the ones a window below
/// it, or the cache grows with every request.
#[test]
fn certificate_cache_stays_within_a_few_windows() {
    let window = 8;
    let params = ClusterParams::paper_default().with_window(window);
    let mut net = EngineNet::<NoopApp>::new(EngineConfig::new(params, PathMode::SlowOnly));
    let slots = 8 * window as u64;
    for i in 0..slots {
        net.client_request(i, &i.to_le_bytes());
    }
    for (r, e) in net.engines.iter().enumerate() {
        assert_eq!(e.exec_next(), Slot(slots), "replica {r}");
        let cached = e.verified_certs.len();
        assert!(cached <= 4 * window, "replica {r} caches {cached} certificates");
    }
}
