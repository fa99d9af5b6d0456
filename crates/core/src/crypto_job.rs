//! Asynchronous crypto jobs: signatures and verifications the engine asks
//! its driver to perform on a crypto worker, off the consensus critical
//! path, exactly as CTBcast does with `CtbEffect::Sign`/`Verify`.
//!
//! The engine queues a [`CryptoJob`] and returns; the driver collects the
//! queue with [`Engine::take_crypto_jobs`](crate::engine::Engine::take_crypto_jobs)
//! after every engine call, executes each job wherever it likes
//! ([`CryptoJob::run`] is the one pure executor every driver shares), and
//! feeds the result back through
//! [`Engine::on_crypto_done`](crate::engine::Engine::on_crypto_done) as an
//! ordinary input. Effects of an engine call therefore wait only for crypto
//! they depend on: a request crossing a summary boundary or a checkpoint is
//! not delayed by the boundary's bookkeeping signatures, and a slow-path
//! slot's CERTIFY share is checked while the replica gets on with the slot
//! ([`CryptoTag::on_request_path`] tells the two kinds apart).

use ubft_crypto::{Certificate, Digest, KeyRing, Signature, Signer};
use ubft_types::{ProcessId, ReplicaId, SeqId, Slot, View};

use crate::engine::CryptoOps;
use crate::msg::CheckpointData;

/// What a job's result is for: names the protocol step that
/// [`Engine::on_crypto_done`](crate::engine::Engine::on_crypto_done)
/// continues. Small and `Copy`; anything larger the continuation needs is
/// parked inside the engine under the same key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoTag {
    /// Sign this replica's share over `stream`'s state summary at the
    /// boundary `upto` (Algorithm 4 line 1).
    SummaryShare {
        /// The summarized CTBcast stream.
        stream: ReplicaId,
        /// The boundary id.
        upto: SeqId,
        /// Digest of the attested summary.
        digest: Digest,
    },
    /// Verify the `f + 1` certificate of a gap-filling summary of `stream`.
    SummaryCert {
        /// The summarized CTBcast stream.
        stream: ReplicaId,
        /// The boundary id.
        upto: SeqId,
    },
    /// Sign this replica's `CERTIFY_CHECKPOINT` share over the snapshot it
    /// just took (Algorithm 2 line 44).
    CheckpointShare {
        /// The snapshotted state.
        data: CheckpointData,
    },
    /// Verify the `f + 1` certificate of the `CHECKPOINT` parked at the head
    /// of `stream`.
    CheckpointCert {
        /// The CTBcast stream the message arrived on.
        stream: ReplicaId,
        /// The parked message's id.
        k: SeqId,
    },
    /// Verify `from`'s share toward the `f + 1` certificate `of` names.
    ShareCheck {
        /// The certificate the share counts toward.
        of: ShareOf,
        /// The share's signer.
        from: ReplicaId,
    },
}

/// Which `f + 1` certificate a share is collected toward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShareOf {
    /// The commit certificate of a proposal for `slot` in `view`, made of
    /// `CERTIFY` shares (Algorithm 2 line 33).
    Slot {
        /// The slot being certified.
        slot: Slot,
        /// The view the share was admitted in.
        view: View,
    },
    /// The checkpoint at `base`, made of `CERTIFY_CHECKPOINT` shares
    /// (Algorithm 2 line 44).
    Checkpoint {
        /// The checkpoint's first open slot.
        base: Slot,
    },
    /// The summary of our own stream at `upto`, made of `CERTIFY_SUMMARY`
    /// shares (Algorithm 4).
    Summary {
        /// The boundary id.
        upto: SeqId,
    },
}

impl CryptoTag {
    /// Whether a request may be waiting for this job's result. Summary and
    /// checkpoint certification are bookkeeping a driver runs behind
    /// everything else; a slot's share check is on the slow path of a
    /// request and competes with the engine's ordered crypto on equal terms.
    pub fn on_request_path(&self) -> bool {
        matches!(self, CryptoTag::ShareCheck { of: ShareOf::Slot { .. }, .. })
    }
}

/// The operation a job performs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CryptoWork {
    /// Sign `bytes` as this replica.
    Sign {
        /// The bytes to sign.
        bytes: Vec<u8>,
    },
    /// Check that `sig` is `who`'s signature over `bytes`.
    Verify {
        /// The claimed signer.
        who: ReplicaId,
        /// The signed bytes.
        bytes: Vec<u8>,
        /// The signature to check.
        sig: Signature,
    },
    /// Check that `cert` carries `quorum` valid signatures over `bytes`.
    VerifyCert {
        /// The certificate to check.
        cert: Certificate,
        /// The signed bytes.
        bytes: Vec<u8>,
        /// Distinct valid signers required.
        quorum: usize,
    },
}

/// One unit of crypto work with the tag its result must carry back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CryptoJob {
    /// What the result is for.
    pub tag: CryptoTag,
    /// What to compute.
    pub work: CryptoWork,
}

/// A finished job's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CryptoResult {
    /// The signature a [`CryptoWork::Sign`] produced.
    Signed(Signature),
    /// Whether a [`CryptoWork::Verify`] / [`CryptoWork::VerifyCert`] held.
    Verified(bool),
}

impl CryptoJob {
    /// The signatures and verifications this job costs (what a simulated
    /// crypto worker charges virtual time for).
    pub fn ops(&self) -> CryptoOps {
        match &self.work {
            CryptoWork::Sign { .. } => CryptoOps { signs: 1, verifies: 0 },
            CryptoWork::Verify { .. } => CryptoOps { signs: 0, verifies: 1 },
            CryptoWork::VerifyCert { cert, .. } => {
                CryptoOps { signs: 0, verifies: cert.count() as u32 }
            }
        }
    }

    /// Executes the job: `signer` is the requesting replica's own key,
    /// `ring` the published key directory. Pure — the simulator, the
    /// threaded crypto pool and the synchronous test harnesses all call
    /// this.
    pub fn run(&self, signer: &Signer, ring: &KeyRing) -> CryptoResult {
        match &self.work {
            CryptoWork::Sign { bytes } => CryptoResult::Signed(signer.sign(bytes)),
            CryptoWork::Verify { who, bytes, sig } => {
                CryptoResult::Verified(ring.verify(ProcessId::Replica(*who), bytes, sig))
            }
            CryptoWork::VerifyCert { cert, bytes, quorum } => {
                CryptoResult::Verified(cert.verify(ring, bytes, *quorum))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> KeyRing {
        KeyRing::generate(3, (0..3).map(|i| ProcessId::Replica(ReplicaId(i))))
    }

    fn job(work: CryptoWork) -> CryptoJob {
        CryptoJob { tag: CryptoTag::SummaryCert { stream: ReplicaId(0), upto: SeqId(64) }, work }
    }

    #[test]
    fn sign_then_verify_roundtrip_and_cost() {
        let ring = ring();
        let me = ring.signer(ProcessId::Replica(ReplicaId(1))).unwrap();
        let sign = job(CryptoWork::Sign { bytes: b"m".to_vec() });
        assert_eq!(sign.ops(), CryptoOps { signs: 1, verifies: 0 });
        let CryptoResult::Signed(sig) = sign.run(&me, &ring) else { panic!("sign job signs") };

        let good = job(CryptoWork::Verify { who: ReplicaId(1), bytes: b"m".to_vec(), sig });
        assert_eq!(good.ops(), CryptoOps { signs: 0, verifies: 1 });
        assert_eq!(good.run(&me, &ring), CryptoResult::Verified(true));
        let wrong_signer = job(CryptoWork::Verify { who: ReplicaId(2), bytes: b"m".to_vec(), sig });
        assert_eq!(wrong_signer.run(&me, &ring), CryptoResult::Verified(false));
    }

    #[test]
    fn certificate_job_needs_quorum_and_costs_one_verify_per_share() {
        let ring = ring();
        let me = ring.signer(ProcessId::Replica(ReplicaId(0))).unwrap();
        let mut cert = Certificate::new();
        for i in 0..2 {
            let id = ProcessId::Replica(ReplicaId(i));
            cert.add(id, ring.signer(id).unwrap().sign(b"m"));
        }
        let ok =
            job(CryptoWork::VerifyCert { cert: cert.clone(), bytes: b"m".to_vec(), quorum: 2 });
        assert_eq!(ok.ops(), CryptoOps { signs: 0, verifies: 2 });
        assert_eq!(ok.run(&me, &ring), CryptoResult::Verified(true));
        let short = job(CryptoWork::VerifyCert { cert, bytes: b"m".to_vec(), quorum: 3 });
        assert_eq!(short.run(&me, &ring), CryptoResult::Verified(false));
    }
}
