//! CPU and crypto cost model (virtual time charged per operation).
//!
//! Calibrated from the paper: ed25519-dalek-class signatures (§7.3 shows
//! public-key crypto dominating the slow path), xxHash-class checksums, and
//! SGX enclave accesses of 7–12.5 µs (§7.4).

use ubft_types::Duration;

use crate::rng::SimRng;

/// Per-operation virtual-time costs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostModel {
    /// Generating one public-key signature.
    pub sign: Duration,
    /// Verifying one public-key signature.
    pub verify: Duration,
    /// Dispatch/synchronization overhead of handing an operation to the
    /// crypto thread pool and collecting the result (§7.3 footnote 5).
    pub crypto_dispatch: Duration,
    /// Checksum cost per 8-byte word.
    pub checksum_per_word: Duration,
    /// Fixed cost of an event-loop dispatch (poll pickup, branch, copy).
    pub dispatch: Duration,
    /// Lower and upper bounds of one SGX enclave access (MinBFT USIG).
    pub enclave_min: Duration,
    /// Upper bound of one SGX enclave access.
    pub enclave_max: Duration,
}

impl CostModel {
    /// The calibrated paper model (`crates/runtime/src/calibration.rs`;
    /// EXPERIMENTS.md, "Calibration").
    pub fn paper_testbed() -> Self {
        CostModel {
            sign: Duration::from_micros(17),
            verify: Duration::from_micros(45),
            crypto_dispatch: Duration::from_nanos(500),
            checksum_per_word: Duration::from_nanos(2),
            dispatch: Duration::from_nanos(80),
            enclave_min: Duration::from_micros(7),
            enclave_max: Duration::from_nanos(12_500),
        }
    }

    /// A zero-cost model for logic-only tests.
    pub fn free() -> Self {
        CostModel {
            sign: Duration::ZERO,
            verify: Duration::ZERO,
            crypto_dispatch: Duration::ZERO,
            checksum_per_word: Duration::ZERO,
            dispatch: Duration::ZERO,
            enclave_min: Duration::ZERO,
            enclave_max: Duration::ZERO,
        }
    }

    /// Checksum cost for a payload of `bytes`.
    pub fn checksum(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.checksum_per_word.as_nanos() * (bytes as u64).div_ceil(8))
    }

    /// Samples one SGX enclave access (uniform in `[enclave_min, enclave_max]`).
    pub fn enclave_access(&self, rng: &mut SimRng) -> Duration {
        if self.enclave_max <= self.enclave_min {
            return self.enclave_min;
        }
        let span = self.enclave_max.as_nanos() - self.enclave_min.as_nanos();
        self.enclave_min + Duration::from_nanos(rng.gen_range(span + 1))
    }

    /// Total cost of a pool-dispatched signature.
    pub fn sign_total(&self) -> Duration {
        self.sign + self.crypto_dispatch
    }

    /// Total cost of a pool-dispatched verification.
    pub fn verify_total(&self) -> Duration {
        self.verify + self.crypto_dispatch
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_has_expected_magnitudes() {
        let c = CostModel::paper_testbed();
        assert_eq!(c.sign, Duration::from_micros(17));
        assert_eq!(c.verify, Duration::from_micros(45));
        assert!(c.enclave_min < c.enclave_max);
        assert_eq!(c.enclave_max, Duration::from_nanos(12_500));
    }

    #[test]
    fn checksum_rounds_up_words() {
        let c = CostModel::paper_testbed();
        assert_eq!(c.checksum(1), c.checksum(8));
        assert!(c.checksum(9) > c.checksum(8));
        assert_eq!(c.checksum(0), Duration::ZERO);
    }

    #[test]
    fn enclave_access_in_bounds() {
        let c = CostModel::paper_testbed();
        let mut r = SimRng::new(4);
        for _ in 0..1000 {
            let d = c.enclave_access(&mut r);
            assert!(d >= c.enclave_min && d <= c.enclave_max);
        }
    }

    #[test]
    fn free_model_costs_nothing() {
        let c = CostModel::free();
        let mut r = SimRng::new(4);
        assert_eq!(c.checksum(1 << 20), Duration::ZERO);
        assert_eq!(c.enclave_access(&mut r), Duration::ZERO);
        assert_eq!(c.sign_total(), Duration::ZERO);
        assert_eq!(c.verify_total(), Duration::ZERO);
    }
}
