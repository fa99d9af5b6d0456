//! The one certification component: `f + 1` signature shares over the same
//! thing make a certificate. A slot's CERTIFY shares (Algorithm 2 line 33),
//! a checkpoint's (line 44), a summary's (Algorithm 4) and a view change's
//! `CRTFY_VC` shares (Algorithm 3 line 13) all collect in a [`ShareSet`]:
//! one share per signer, admitted before anything is verified, counted
//! only once verified. The first three verify on the crypto worker
//! ([`ShareOf`] names the collection a [`CryptoTag::ShareCheck`] belongs
//! to); the view change verifies inline, as ordered crypto.

use std::collections::BTreeMap;
use std::sync::Arc;

use ubft_crypto::{Certificate, Signature};
use ubft_types::{ProcessId, ReplicaId, ReplicaSet};

use super::{CryptoJob, CryptoTag, CryptoWork, Engine, ShareOf};
use crate::msg::summary_sign_bytes;

/// One replica's signature share over `about`.
#[derive(Clone, Debug)]
struct Share<K> {
    about: K,
    sig: Signature,
    state: ShareState,
}

/// Where a [`Share`]'s signature check stands. Only `Verified` shares count
/// toward the certificate; a `Rejected` one stays held, so its signer
/// cannot buy a second verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShareState {
    /// Our own share while the crypto worker signs it — there is no
    /// signature yet, but it is as good as verified. Without it a worker
    /// that runs late checks one peer share more per certificate, which
    /// makes it run later still.
    Signing,
    /// Held unverified: enough other shares are verified or being checked.
    Parked,
    /// A verification job is in flight.
    Checking,
    /// The signature checked out (our own share is born here).
    Verified,
    /// The signature was forged.
    Rejected,
}

/// The shares collected toward one `f + 1` certificate — over the digest of
/// a summary of our own stream (Algorithm 4), the data of a checkpoint
/// (Algorithm 2 line 44), the proposal of a slot (line 33) or a sealer's
/// state in a view change (Algorithm 3 line 13) — one per signer, each
/// verified only after it was admitted and, where a crypto job does it,
/// only if it could still complete the certificate.
#[derive(Clone, Debug)]
pub(super) struct ShareSet<K> {
    by_signer: BTreeMap<ReplicaId, Share<K>>,
}

impl<K> Default for ShareSet<K> {
    fn default() -> Self {
        ShareSet { by_signer: BTreeMap::new() }
    }
}

impl<K: Clone + PartialEq> ShareSet<K> {
    /// Parks `from`'s share unverified; `false` if it already has one here
    /// — which the caller learns before anything is verified.
    pub(super) fn admit(&mut self, from: ReplicaId, about: K, sig: Signature) -> bool {
        if self.by_signer.contains_key(&from) {
            return false;
        }
        self.by_signer.insert(from, Share { about, sig, state: ShareState::Parked });
        true
    }

    /// Our own share over `about` went to the crypto worker.
    pub(super) fn begin_own(&mut self, me: ReplicaId, about: K) {
        let share = Share { about, sig: Signature::garbage(), state: ShareState::Signing };
        self.by_signer.insert(me, share);
    }

    /// Our own share is signed: nothing to verify.
    pub(super) fn add_own(&mut self, me: ReplicaId, about: K, sig: Signature) {
        self.by_signer.insert(me, Share { about, sig, state: ShareState::Verified });
    }

    /// What our own share attests, with its signature once signed — `None`
    /// while the crypto worker signs it.
    pub(super) fn ours(&self, me: ReplicaId) -> Option<(&K, Option<Signature>)> {
        let signed = |s: &Share<K>| (s.state != ShareState::Signing).then_some(s.sig);
        self.by_signer.get(&me).map(|s| (&s.about, signed(s)))
    }

    /// What the shares held attest, whatever their state.
    pub(super) fn abouts(&self) -> impl Iterator<Item = &K> {
        self.by_signer.values().map(|s| &s.about)
    }

    /// Shares held, whatever their state.
    pub(super) fn len(&self) -> usize {
        self.by_signer.len()
    }

    /// Picks the parked shares to verify now, marking them `Checking` and
    /// queueing a check of each toward `of` on `jobs`, in signer order,
    /// over the bytes `sign_bytes` gives for it — but only as many as could
    /// still complete a certificate. While `quorum` shares over the same
    /// thing are verified or being checked, a further one stays parked and
    /// is looked at again only if one of those checks fails.
    fn take_to_check(
        &mut self,
        of: ShareOf,
        quorum: usize,
        jobs: &mut Vec<CryptoJob>,
        mut sign_bytes: impl FnMut(&K) -> Arc<[u8]>,
    ) {
        let mut parked = ReplicaSet::default();
        for (from, _) in self.by_signer.iter().filter(|(_, s)| s.state == ShareState::Parked) {
            parked.insert(*from);
        }
        for from in parked.iter() {
            let about = &self.by_signer[&from].about;
            let live = self
                .by_signer
                .values()
                .filter(|s| s.about == *about)
                .filter(|s| !matches!(s.state, ShareState::Parked | ShareState::Rejected))
                .count();
            if live < quorum {
                let share = self.by_signer.get_mut(&from).expect("listed above");
                share.state = ShareState::Checking;
                let work = CryptoWork::Verify {
                    who: from,
                    bytes: sign_bytes(&share.about),
                    sig: share.sig,
                };
                jobs.push(CryptoJob { tag: CryptoTag::ShareCheck { of, from }, work });
            }
        }
    }

    /// Records the verdict on `from`'s share, if it awaits one — a job
    /// took it ([`take_to_check`](Self::take_to_check)), or the caller
    /// admitted it and verified it inline; returns whether the signature
    /// held. A share never goes back to waiting, so a verdict that comes
    /// twice changes nothing.
    pub(super) fn settle(&mut self, from: ReplicaId, ok: bool) -> bool {
        match self.by_signer.get_mut(&from) {
            Some(share) if matches!(share.state, ShareState::Parked | ShareState::Checking) => {
                share.state = if ok { ShareState::Verified } else { ShareState::Rejected };
                ok
            }
            _ => false,
        }
    }

    /// Only shares over `about` can count from now on: the others stay
    /// held — their signers have had their one share — as rejected, and
    /// the rest let go of their own copy of it for the caller's. Our own
    /// share, while it is being signed, is left for its signature to
    /// settle. Returns whether any share over `about` is held.
    pub(super) fn keep_only(&mut self, about: &K) -> bool {
        let mut held = false;
        for share in self.by_signer.values_mut() {
            if share.about == *about {
                share.about = about.clone();
                held = true;
            } else if share.state != ShareState::Signing {
                share.state = ShareState::Rejected;
            }
        }
        held
    }

    /// The verified shares over `about`.
    pub(super) fn verified<'a>(
        &'a self,
        about: &'a K,
    ) -> impl Iterator<Item = (ReplicaId, Signature)> + 'a {
        self.by_signer
            .iter()
            .filter(move |(_, s)| s.state == ShareState::Verified && s.about == *about)
            .map(|(who, s)| (*who, s.sig))
    }

    /// The certificate the verified shares over `about` make, once there
    /// are `quorum` of them.
    pub(super) fn certificate(&self, about: &K, quorum: usize) -> Option<Certificate> {
        self.cert_of(about, quorum, &[ShareState::Verified])
    }

    /// The certificate the shares over `about` that are verified or being
    /// checked make, once there are `quorum` of them: what
    /// [`certificate`](Self::certificate) returns if every check under way
    /// holds.
    pub(super) fn certificate_ahead(&self, about: &K, quorum: usize) -> Option<Certificate> {
        self.cert_of(about, quorum, &[ShareState::Verified, ShareState::Checking])
    }

    /// Counts before it builds: most asks find too few shares.
    fn cert_of(&self, about: &K, quorum: usize, of: &[ShareState]) -> Option<Certificate> {
        let counted = |(_, s): &(&ReplicaId, &Share<K>)| of.contains(&s.state) && s.about == *about;
        if self.by_signer.iter().filter(counted).count() < quorum {
            return None;
        }
        let mut cert = Certificate::new();
        for (who, share) in self.by_signer.iter().filter(counted) {
            cert.add(ProcessId::Replica(*who), share.sig);
        }
        Some(cert)
    }

    /// What `quorum` verified shares agree on, with the certificate they
    /// make. Shares over anything else never complete one, so at most one
    /// value qualifies while `quorum` is a majority of the signers.
    pub(super) fn agreed(&self, quorum: usize) -> Option<(&K, Certificate)> {
        self.by_signer
            .values()
            .filter(|s| s.state == ShareState::Verified)
            .find_map(|s| self.certificate(&s.about, quorum).map(|cert| (&s.about, cert)))
    }
}

impl Engine {
    /// Starts verifying the parked shares of the collection `of` names that
    /// could still complete its certificate ([`ShareSet::take_to_check`]).
    pub(super) fn check_parked(&mut self, of: ShareOf) {
        let (me, quorum, jobs) = (self.me, self.quorum(), &mut self.crypto_jobs);
        let certify = &mut self.certify_bytes;
        match of {
            ShareOf::Slot { slot, .. } => self
                .slots
                .get_mut(&slot)
                .map(|s| s.shares.take_to_check(of, quorum, jobs, |p| certify.of(p))),
            ShareOf::Checkpoint { base } => self
                .cp_shares
                .get_mut(&base)
                .map(|s| s.take_to_check(of, quorum, jobs, |d| d.sign_bytes().into())),
            ShareOf::Summary { upto } => self.summary_shares.get_mut(&upto.0).map(|s| {
                s.take_to_check(of, quorum, jobs, |d| summary_sign_bytes(me, upto, d).into())
            }),
        };
    }

    /// The check of `from`'s share toward `of` came back: a signature that
    /// held may complete the certificate, a forged one makes room for a
    /// share that stayed parked behind it.
    pub(super) fn share_checked(&mut self, of: ShareOf, from: ReplicaId, ok: bool) {
        // A collection is dropped once its certificate is out — the
        // boundary certified, the checkpoint stable — and a slot's shares
        // end with their view (and with the slot).
        let held = match of {
            ShareOf::Slot { slot, view } => self
                .slots
                .get_mut(&slot)
                .filter(|_| view == self.view)
                .map(|s| s.shares.settle(from, ok)),
            ShareOf::Checkpoint { base } => {
                self.cp_shares.get_mut(&base).map(|s| s.settle(from, ok))
            }
            ShareOf::Summary { upto } => {
                self.summary_shares.get_mut(&upto.0).map(|s| s.settle(from, ok))
            }
        };
        match (held, of) {
            (None, _) => {}
            (Some(false), _) => self.check_parked(of),
            (Some(true), ShareOf::Slot { slot, .. }) => self.maybe_commit(slot),
            (Some(true), ShareOf::Checkpoint { base }) => self.try_certify_checkpoint(base),
            (Some(true), ShareOf::Summary { upto }) => self.try_certify_summary(upto),
        }
    }
}
