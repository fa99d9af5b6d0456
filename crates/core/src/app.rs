//! The replicated-application interface.

use ubft_crypto::Digest;
use ubft_types::Duration;

/// A deterministic state machine replicated by uBFT.
///
/// Implementations must be deterministic: identical request sequences yield
/// identical outputs and snapshots on every replica — that is the whole
/// premise of SMR.
pub trait App {
    /// Executes one request, returning the response payload.
    fn execute(&mut self, request: &[u8]) -> Vec<u8>;

    /// A digest of the current application state (for checkpoints).
    fn snapshot_digest(&self) -> Digest;

    /// Serializes the full application state for transfer to a replacement
    /// node. Must capture everything [`App::restore_bytes`] needs to make
    /// a fresh instance indistinguishable from this one — in particular,
    /// `restore_bytes(snapshot_bytes())` must reproduce
    /// [`App::snapshot_digest`] exactly, which is how a joiner verifies a
    /// transferred snapshot against the certified checkpoint digest
    /// without trusting the serving replica.
    fn snapshot_bytes(&self) -> Vec<u8>;

    /// Replaces the application state with a previously serialized
    /// snapshot (state transfer to a replacement node).
    fn restore_bytes(&mut self, bytes: &[u8]);

    /// The modelled per-request CPU cost charged in virtual time. Real
    /// applications in the paper (Memcached, Redis, Liquibook) have heavier
    /// stacks than our in-process reimplementations, so each app carries a
    /// calibration constant (`crates/runtime/src/calibration.rs`;
    /// EXPERIMENTS.md, "Calibration").
    fn execute_cost(&self, request: &[u8]) -> Duration {
        let _ = request;
        Duration::from_nanos(200)
    }

    /// A fresh instance of this application at genesis, used by the safety
    /// auditor as its *sequential model*: the canonical decided request
    /// sequence is replayed through it and every replica's state digest is
    /// compared against the model's (linearizability by construction —
    /// replicated execution must be indistinguishable from one sequential
    /// machine). `None` — the default — skips model-based auditing for
    /// applications that do not implement it.
    fn sequential_model(&self) -> Option<Box<dyn App>> {
        None
    }

    /// Human-readable name used by the benchmark harness.
    fn name(&self) -> &'static str {
        "app"
    }
}

/// The trivial no-op application used in Figure 8: replies with a payload of
/// the same size as the request.
#[derive(Clone, Debug, Default)]
pub struct NoopApp {
    executed: u64,
}

impl NoopApp {
    /// Creates a fresh no-op app.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of requests executed.
    pub fn executed(&self) -> u64 {
        self.executed
    }
}

impl App for NoopApp {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        self.executed += 1;
        request.to_vec()
    }

    fn snapshot_digest(&self) -> Digest {
        ubft_crypto::sha256(&self.executed.to_le_bytes())
    }

    fn snapshot_bytes(&self) -> Vec<u8> {
        self.executed.to_le_bytes().to_vec()
    }

    fn restore_bytes(&mut self, bytes: &[u8]) {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[..8]);
        self.executed = u64::from_le_bytes(b);
    }

    fn execute_cost(&self, _request: &[u8]) -> Duration {
        Duration::from_nanos(100)
    }

    fn sequential_model(&self) -> Option<Box<dyn App>> {
        Some(Box::new(NoopApp::new()))
    }

    fn name(&self) -> &'static str {
        "noop"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_echoes_request() {
        let mut a = NoopApp::new();
        assert_eq!(a.execute(b"ping"), b"ping");
        assert_eq!(a.executed(), 1);
        assert_eq!(a.name(), "noop");
    }

    #[test]
    fn noop_snapshot_tracks_history_length() {
        let mut a = NoopApp::new();
        let d0 = a.snapshot_digest();
        a.execute(b"x");
        let d1 = a.snapshot_digest();
        assert_ne!(d0, d1);
        // Determinism: a second instance with the same history matches.
        let mut b = NoopApp::new();
        b.execute(b"anything");
        assert_eq!(b.snapshot_digest(), d1);
    }

    #[test]
    fn snapshot_roundtrip_reproduces_digest() {
        let mut a = NoopApp::new();
        a.execute(b"one");
        a.execute(b"two");
        let mut b = NoopApp::new();
        b.restore_bytes(&a.snapshot_bytes());
        assert_eq!(b.snapshot_digest(), a.snapshot_digest());
        assert_eq!(b.executed(), 2);
    }

    #[test]
    fn default_cost_is_small() {
        let a = NoopApp::new();
        assert!(a.execute_cost(b"x") < Duration::from_micros(1));
    }
}
