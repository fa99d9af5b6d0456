//! Protocol messages of the uBFT consensus engine.
//!
//! Three transports carry them:
//! * [`CtbMsg`] — equivocation-protected, on the sender's CTBcast stream;
//! * [`TbMsg`] — plain Tail Broadcast (no agreement needed);
//! * [`DirectMsg`] — point-to-point.

use std::sync::Arc;
use ubft_crypto::{sha256, Certificate, Digest, Signature};

use ubft_types::wire::{Wire, WireReader};
use ubft_types::{ClientId, CodecError, ReplicaId, RequestId, SeqId, Slot, View};

/// A client request as ordered by consensus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Unique id (client + client sequence number).
    pub id: RequestId,
    /// Opaque application payload.
    pub payload: Vec<u8>,
}

impl Request {
    /// The no-op request a new leader proposes for slots it must fill but
    /// for which no request may have been applied.
    pub fn noop(slot: Slot) -> Self {
        Request { id: RequestId::new(ClientId::NOOP, slot.0), payload: Vec::new() }
    }

    /// Whether this is a view-change filler no-op.
    pub fn is_noop(&self) -> bool {
        self.id.client == ClientId::NOOP
    }

    /// Content digest used in certificates and response matching.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

ubft_types::wire!(Request { id, payload });

/// An ordered, non-empty group of client requests decided by *one* consensus
/// slot.
///
/// Batching is the throughput lever of the paper's evaluation (Figures
/// 10/11): the fixed per-slot protocol cost — one PREPARE on the leader's
/// CTBcast stream, two all-to-all `WILL_*` rounds, one COMMIT — is paid once
/// per batch instead of once per request. Replicas execute the requests of a
/// decided batch strictly in batch order, so a batch is semantically
/// equivalent to deciding its requests in consecutive slots.
///
/// Invariants: a batch is never empty, and a view-change filler is a batch
/// holding exactly one [`Request::noop`].
///
/// A batch is immutable once built and its requests are shared: cloning a
/// batch — and so a [`Prepare`] or a [`CommitCert`] — bumps a reference
/// count instead of copying every request payload. The engine keeps the same
/// proposal in several places (the leader's stream, the slot, the decision);
/// they all point at one copy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Batch {
    reqs: Arc<[Request]>,
}

impl Batch {
    /// Creates a batch from an ordered, non-empty request list.
    ///
    /// # Panics
    ///
    /// Panics if `reqs` is empty (an empty proposal is meaningless; use
    /// [`Batch::noop`] for view-change filler slots).
    pub fn new(reqs: Vec<Request>) -> Self {
        assert!(!reqs.is_empty(), "a batch must carry at least one request");
        Batch { reqs: reqs.into() }
    }

    /// Wraps a single request (the `max_batch = 1` degenerate case, which
    /// reproduces the unbatched engine exactly).
    pub fn single(req: Request) -> Self {
        Batch { reqs: Arc::new([req]) }
    }

    /// The filler batch a new leader proposes for slots it must close but
    /// for which no request may have been applied (Algorithm 3).
    pub fn noop(slot: Slot) -> Self {
        Batch::single(Request::noop(slot))
    }

    /// Whether this is a view-change filler batch.
    pub fn is_noop(&self) -> bool {
        self.reqs.len() == 1 && self.reqs[0].is_noop()
    }

    /// Number of requests in the batch (always ≥ 1).
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Always `false` — kept for API completeness alongside [`Batch::len`].
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// The requests, in decided execution order.
    pub fn requests(&self) -> &[Request] {
        &self.reqs
    }

    /// Iterator over the request ids in the batch.
    pub fn ids(&self) -> impl Iterator<Item = RequestId> + '_ {
        self.reqs.iter().map(|r| r.id)
    }

    /// Combined content digest covering every request in order; this is what
    /// certificates bind and what `must_propose` compares across views.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

/// Encodes as a `Vec<Request>` would; `decode` is by hand.
impl Wire for Batch {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.reqs.len() as u32).encode(buf);
        Request::encode_elems(&self.reqs, buf);
    }
    fn encoded_len(&self) -> usize {
        4 + Request::elems_len(&self.reqs)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        if len == 0 {
            // An empty batch never appears on an honest stream; reject it at
            // the codec layer so Byzantine senders are branded upstream.
            return Err(CodecError::Invalid { ty: "Batch" });
        }
        // A request encodes to at least its id and a length prefix, so a
        // count the input cannot hold is refused before anything is
        // allocated for it.
        const MIN_REQUEST: usize = 12 + 4;
        if len > r.remaining() / MIN_REQUEST {
            let needed = len.saturating_mul(MIN_REQUEST);
            return Err(CodecError::Truncated { needed, available: r.remaining() });
        }
        // Decoded straight into the shared slice: an iterator of known
        // length collects into an `Arc<[T]>` with one allocation, where
        // going through a `Vec` costs two. Such an iterator cannot stop
        // early, so after a request fails to decode the rest of the slice
        // is filled with placeholders; the first error is what is returned,
        // and the slice is dropped.
        let mut failed = None;
        let reqs: Arc<[Request]> = (0..len)
            .map(|_| {
                Request::decode(r).unwrap_or_else(|e| {
                    failed.get_or_insert(e);
                    Request::noop(Slot(0))
                })
            })
            .collect();
        match failed {
            Some(e) => Err(e),
            None => Ok(Batch { reqs }),
        }
    }
}

/// A reply from a replica to a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The request answered.
    pub id: RequestId,
    /// The answering replica.
    pub replica: ReplicaId,
    /// Application output.
    pub payload: Vec<u8>,
}

ubft_types::wire!(Reply { id, replica, payload });

/// A leader's proposal binding an ordered request batch to `slot` in `view`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Prepare {
    /// Proposing view.
    pub view: View,
    /// Target consensus slot.
    pub slot: Slot,
    /// The proposed request batch (one or more requests, decided together).
    pub batch: Batch,
}

impl Prepare {
    /// The bytes replicas sign when certifying this proposal.
    pub fn certify_bytes(&self) -> Vec<u8> {
        domain_bytes(b"ubft-certify\0", self)
    }
}

ubft_types::wire!(Prepare { view, slot, batch });

/// An unforgeable proof that the leader proposed `prepare`: `f + 1`
/// signatures over [`Prepare::certify_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitCert {
    /// The certified proposal.
    pub prepare: Prepare,
    /// `f + 1` signatures from distinct replicas.
    pub cert: Certificate,
}

ubft_types::wire!(CommitCert { prepare, cert });

/// The content of an application checkpoint: every slot below `base` has
/// been applied, yielding application state `app_digest`. A checkpoint is
/// taken every `window` slots; open slots are `[base, base + 2·window)`, so
/// the next checkpoint certifies while the second window fills (PBFT's
/// `h` / `H = h + 2K`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CheckpointData {
    /// First open (un-checkpointed) slot.
    pub base: Slot,
    /// Digest of the application state after applying slots `< base`.
    pub app_digest: Digest,
    /// Digest of the request-dedup table (highest executed client sequence
    /// per client) after applying slots `< base`. Deterministic across
    /// correct replicas, and *decision-relevant*: a replacement node that
    /// adopts a certified state without this table could re-execute (or
    /// wrongly skip) a request re-proposed across the checkpoint — so it
    /// is certified and transferred alongside the application state.
    pub exec_digest: Digest,
}

impl CheckpointData {
    /// Bytes signed in `CERTIFY_CHECKPOINT` shares.
    pub fn sign_bytes(&self) -> Vec<u8> {
        domain_bytes(b"ubft-checkpoint\0", self)
    }
}

/// Digest of a request-dedup table (highest executed sequence per client,
/// least recently written first), as certified by
/// [`CheckpointData::exec_digest`].
pub fn exec_table_digest(table: &[(ClientId, u64)]) -> Digest {
    let domain = b"ubft-exec-table\0";
    let mut buf = Vec::with_capacity(domain.len() + 12 * table.len());
    buf.extend_from_slice(domain);
    for (client, seq) in table {
        buf.extend_from_slice(&client.0.to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
    }
    sha256(&buf)
}

ubft_types::wire!(CheckpointData { base, app_digest, exec_digest });

/// An `f + 1`-signed application checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointCert {
    /// What was checkpointed.
    pub data: CheckpointData,
    /// The signatures.
    pub cert: Certificate,
}

impl CheckpointCert {
    /// The genesis checkpoint: nothing applied, empty certificate (valid by
    /// convention, Algorithm 2 line 6).
    pub fn genesis() -> Self {
        CheckpointCert {
            data: CheckpointData {
                base: Slot(0),
                app_digest: Digest::ZERO,
                exec_digest: Digest::ZERO,
            },
            cert: Certificate::new(),
        }
    }

    /// Whether this checkpoint is strictly newer than `other`.
    pub fn supersedes(&self, other: &CheckpointCert) -> bool {
        self.data.base > other.data.base
    }
}

ubft_types::wire!(CheckpointCert { data, cert });

/// A compact, signable snapshot of one replica's consensus-relevant state:
/// its latest checkpoint and its most recent COMMIT per open slot. Used by
/// `CRTFY_VC` (view change, Algorithm 3) and CTBcast summaries (Algorithm 4).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StateSummary {
    /// The replica's latest stable checkpoint.
    pub checkpoint: Option<CheckpointCert>,
    /// Most recent COMMIT certificate per open slot.
    pub commits: Vec<(Slot, CommitCert)>,
}

impl StateSummary {
    /// Content digest for matching certificate shares.
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }
}

ubft_types::wire!(StateSummary { checkpoint, commits });

/// One view-change certificate: `f + 1` replicas attest that replica
/// `about`'s sealed state is `summary`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcCert {
    /// Whose state was certified.
    pub about: ReplicaId,
    /// The certified state.
    pub summary: StateSummary,
    /// `f + 1` signatures over [`vc_sign_bytes`].
    pub cert: Certificate,
}

ubft_types::wire!(VcCert { about, summary, cert });

/// Bytes signed in a `CRTFY_VC` share about replica `about` in `view`.
pub fn vc_sign_bytes(view: View, about: ReplicaId, summary_digest: &Digest) -> Vec<u8> {
    domain_bytes(b"ubft-crtfy-vc\0", &((view, about), *summary_digest))
}

/// Bytes signed in a `CERTIFY_SUMMARY` share: stream `p` has broadcast up to
/// `upto` and its state digest is `digest` (Algorithm 4 line 2).
pub fn summary_sign_bytes(stream: ReplicaId, upto: SeqId, digest: &Digest) -> Vec<u8> {
    domain_bytes(b"ubft-summary\0", &((stream, upto), *digest))
}

/// `domain` followed by the encoding of `body`, in a buffer allocated once:
/// the domain-separated bytes a signature covers.
fn domain_bytes(domain: &[u8], body: &impl Wire) -> Vec<u8> {
    let mut buf = Vec::with_capacity(domain.len() + body.encoded_len());
    buf.extend_from_slice(domain);
    body.encode(&mut buf);
    buf
}

/// Messages carried on a replica's CTBcast stream (equivocation-protected).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtbMsg {
    /// Leader proposal (Algorithm 2 line 16).
    Prepare(Prepare),
    /// Commit certificate broadcast (line 36).
    Commit(CommitCert),
    /// Stable checkpoint broadcast (line 61 / §5.2).
    Checkpoint(CheckpointCert),
    /// View seal (Algorithm 3 line 6).
    SealView {
        /// The view being *entered* (current + 1).
        view: View,
    },
    /// New-view message from the incoming leader (Algorithm 3 line 15).
    NewView {
        /// The new view.
        view: View,
        /// Certificates about `f + 1` replicas' sealed states.
        certs: Vec<VcCert>,
    },
}

ubft_types::wire!(CtbMsg {
    0 => Prepare(p),
    1 => Commit(c),
    2 => Checkpoint(c),
    3 => SealView { view },
    4 => NewView { view, certs },
});

/// Messages carried on a replica's consensus Tail Broadcast stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TbMsg {
    /// Fast path round 1 promise (Figure 4).
    WillCertify {
        /// Current view.
        view: View,
        /// The slot.
        slot: Slot,
    },
    /// Fast path round 2 promise.
    WillCommit {
        /// Current view.
        view: View,
        /// The slot.
        slot: Slot,
    },
    /// Slow path certification share: a signature over the PREPARE.
    Certify {
        /// The prepare being certified.
        prepare: Prepare,
        /// Signature over [`Prepare::certify_bytes`].
        sig: Signature,
    },
    /// Checkpoint certification share.
    CertifyCheckpoint {
        /// The checkpoint content.
        data: CheckpointData,
        /// Signature over [`CheckpointData::sign_bytes`].
        sig: Signature,
    },
    /// A completed CTBcast summary (Algorithm 4 line 8).
    Summary {
        /// The summarized stream (always the sender).
        upto: SeqId,
        /// The broadcaster's state at `upto`.
        summary: StateSummary,
        /// `f + 1` signatures over [`summary_sign_bytes`].
        cert: Certificate,
    },
}

ubft_types::wire!(TbMsg {
    0 => WillCertify { view, slot },
    1 => WillCommit { view, slot },
    2 => Certify { prepare, sig },
    3 => CertifyCheckpoint { data, sig },
    4 => Summary { upto, summary, cert },
});

/// One stream's state as reported in a [`DirectMsg::JoinAck`]: where the
/// responder's FIFO interpretation of the stream stands, which view it last
/// saw the stream in, and the stream's latest certified checkpoint. A
/// replacement node adopts these (taking the per-field maximum over `f + 1`
/// acks, so no single replica is trusted) to resume interpreting streams at
/// the live tail instead of from genesis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinStream {
    /// The stream (its designated broadcaster).
    pub stream: ReplicaId,
    /// The next CTBcast id the responder expects on this stream.
    pub fifo_next: SeqId,
    /// The view the responder last saw this stream enter.
    pub view: View,
    /// First slot the responder has seen no `PREPARE` from this stream
    /// for: a replacement *leader* must resume proposing here, not at its
    /// fresh engine's slot 0 — re-preparing a slot its predecessor already
    /// prepared in the same view is indistinguishable from equivocation
    /// and gets the replacement branded Byzantine. Liveness-steering only
    /// (a lie can delay proposals, never decide anything).
    pub next_free: Slot,
    /// The latest checkpoint the responder saw certified on this stream
    /// (`None` if still at genesis).
    pub checkpoint: Option<CheckpointCert>,
}

ubft_types::wire!(JoinStream { stream, fifo_next, view, next_free, checkpoint });

/// Point-to-point messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirectMsg {
    /// A follower echoing a client request to the leader (§5.4 Echo Req).
    Echo {
        /// The echoed request.
        req: Request,
    },
    /// A follower's echoes of several requests at once: the ones that
    /// queued while its core worked off a backlog, at most `max_batch`,
    /// so they fit the slot a batch fits. The leader takes them as one
    /// input; they mean what as many [`DirectMsg::Echo`]s would.
    Echoes {
        /// The echoed requests, in the order the follower received them.
        reqs: Vec<Request>,
    },
    /// A view-change certificate share sent to the incoming leader
    /// (Algorithm 3 line 11).
    CertifyVc {
        /// The view being formed.
        view: View,
        /// Whose sealed state this share attests.
        about: ReplicaId,
        /// The attested state.
        summary: StateSummary,
        /// Signature over [`vc_sign_bytes`].
        sig: Signature,
    },
    /// A replacement node announcing itself to a peer (uBFT extended
    /// version, §replacement): "I am `replica`'s fresh incarnation; tell me
    /// where the protocol stands." `reg_floor` is the highest CTBcast id
    /// the joiner recovered from its own stream's register bank on the
    /// memory nodes — peers need not trust it (it only raises the joiner's
    /// own broadcast cursor), it is carried for observability.
    Join {
        /// Highest own-stream id recovered from the SWMR register bank.
        reg_floor: SeqId,
    },
    /// A peer's answer to [`DirectMsg::Join`]: its protocol coordinates.
    /// The joiner acts only on `f + 1` matching-or-dominated acks, and
    /// everything decision-relevant inside (checkpoints, commits) carries
    /// its own `f + 1` certificate, so no single responder is trusted.
    JoinAck {
        /// The responder's current view.
        view: View,
        /// Per-stream FIFO positions, views, and checkpoints.
        streams: Vec<JoinStream>,
        /// The responder's most recent decided slots (certificate-backed),
        /// for replaying decided-but-unexecuted slots above the adopted
        /// checkpoint. Bounded like a [`StateSummary`]'s commit list.
        commits: Vec<(Slot, CommitCert)>,
    },
    /// A summary certification share sent to the stream's broadcaster
    /// (Algorithm 4 line 2).
    CertifySummary {
        /// The summarized stream.
        stream: ReplicaId,
        /// Messages up to this id are covered.
        upto: SeqId,
        /// Digest of the attested [`StateSummary`].
        digest: Digest,
        /// Signature over [`summary_sign_bytes`].
        sig: Signature,
    },
}

// `CertifySummary` is declared last but tagged 2, and `Echoes` second but
// tagged 5.
ubft_types::wire!(DirectMsg {
    0 => Echo { req },
    1 => CertifyVc { view, about, summary, sig },
    2 => CertifySummary { stream, upto, digest, sig },
    3 => Join { reg_floor },
    4 => JoinAck { view, streams, commits },
    5 => Echoes { reqs },
});

#[cfg(test)]
mod tests {
    use super::*;
    use ubft_types::wire::roundtrip;

    fn req() -> Request {
        Request { id: RequestId::new(ClientId(1), 2), payload: vec![1, 2, 3] }
    }

    fn prepare() -> Prepare {
        Prepare { view: View(1), slot: Slot(2), batch: Batch::single(req()) }
    }

    fn reqs(n: u64) -> Vec<Request> {
        (0..n)
            .map(|i| Request { id: RequestId::new(ClientId(1), i), payload: vec![i as u8; 4] })
            .collect()
    }

    #[test]
    fn noop_requests() {
        let n = Request::noop(Slot(4));
        assert!(n.is_noop());
        assert!(!req().is_noop());
        assert_ne!(Request::noop(Slot(4)).digest(), Request::noop(Slot(5)).digest());
    }

    #[test]
    fn noop_batches() {
        let b = Batch::noop(Slot(4));
        assert!(b.is_noop());
        assert_eq!(b.len(), 1);
        assert!(!Batch::single(req()).is_noop());
        // A multi-request batch is never a noop, even if it contains one.
        let mixed = Batch::new(vec![Request::noop(Slot(4)), req()]);
        assert!(!mixed.is_noop());
        assert_ne!(Batch::noop(Slot(4)).digest(), Batch::noop(Slot(5)).digest());
    }

    #[test]
    fn batch_digest_covers_order_and_content() {
        let fwd = Batch::new(reqs(3));
        let mut rev_reqs = reqs(3);
        rev_reqs.reverse();
        let rev = Batch::new(rev_reqs);
        assert_ne!(fwd.digest(), rev.digest(), "order must change the digest");
        assert_eq!(fwd.digest(), Batch::new(reqs(3)).digest());
        assert_ne!(fwd.digest(), Batch::new(reqs(2)).digest());
    }

    #[test]
    fn batch_roundtrips_and_rejects_empty() {
        roundtrip(&Batch::single(req()));
        roundtrip(&Batch::new(reqs(17)));
        let empty = Vec::<Request>::new().to_bytes();
        assert!(Batch::from_bytes(&empty).is_err(), "empty batch must not decode");
    }

    #[test]
    fn batch_decode_refuses_hostile_counts_and_reports_the_first_error() {
        // A count the input cannot hold allocates nothing.
        let mut hostile = u32::MAX.to_bytes();
        hostile.extend_from_slice(&[0u8; 64]);
        assert!(matches!(Batch::from_bytes(&hostile), Err(CodecError::Truncated { .. })));
        // The second of three requests is cut short: that error comes back,
        // not one from the placeholders that fill the rest of the slice.
        let mut bytes = Batch::new(reqs(3)).to_bytes();
        let whole = bytes.len();
        bytes[4 + 20 + 12..4 + 20 + 16].copy_from_slice(&100u32.to_le_bytes());
        assert_eq!(
            Batch::from_bytes(&bytes),
            Err(CodecError::Truncated { needed: 100, available: whole - (4 + 20 + 16) })
        );
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn empty_batch_panics() {
        let _ = Batch::new(Vec::new());
    }

    #[test]
    fn all_wire_roundtrips() {
        roundtrip(&req());
        roundtrip(&Reply { id: req().id, replica: ReplicaId(1), payload: b"out".to_vec() });
        roundtrip(&prepare());
        roundtrip(&CommitCert { prepare: prepare(), cert: Certificate::new() });
        roundtrip(&CheckpointCert::genesis());
        roundtrip(&StateSummary::default());
        roundtrip(&StateSummary {
            checkpoint: Some(CheckpointCert::genesis()),
            commits: vec![(Slot(1), CommitCert { prepare: prepare(), cert: Certificate::new() })],
        });
        roundtrip(&CtbMsg::Prepare(prepare()));
        roundtrip(&CtbMsg::Prepare(Prepare {
            view: View(0),
            slot: Slot(7),
            batch: Batch::new(reqs(64)),
        }));
        roundtrip(&CtbMsg::SealView { view: View(3) });
        roundtrip(&CtbMsg::NewView { view: View(3), certs: vec![] });
        roundtrip(&TbMsg::WillCertify { view: View(0), slot: Slot(9) });
        roundtrip(&TbMsg::WillCommit { view: View(0), slot: Slot(9) });
        roundtrip(&TbMsg::Certify { prepare: prepare(), sig: Signature::garbage() });
        roundtrip(&TbMsg::Summary {
            upto: SeqId(64),
            summary: StateSummary::default(),
            cert: Certificate::new(),
        });
        roundtrip(&DirectMsg::Echo { req: req() });
        roundtrip(&DirectMsg::Echoes { reqs: reqs(16) });
        roundtrip(&DirectMsg::Join { reg_floor: SeqId(17) });
        roundtrip(&DirectMsg::JoinAck {
            view: View(2),
            streams: vec![
                JoinStream {
                    stream: ReplicaId(0),
                    fifo_next: SeqId(41),
                    view: View(2),
                    next_free: Slot(40),
                    checkpoint: Some(CheckpointCert::genesis()),
                },
                JoinStream {
                    stream: ReplicaId(1),
                    fifo_next: SeqId(1),
                    view: View(0),
                    next_free: Slot(0),
                    checkpoint: None,
                },
            ],
            commits: vec![(Slot(9), CommitCert { prepare: prepare(), cert: Certificate::new() })],
        });
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The encoded bytes are what the latency model charges for and what
    /// digests and signatures cover. These strings were produced by the
    /// field-by-field encoders this module had before `encoded_len` and the
    /// shared batch existed; a change to any of them is a wire-format change.
    #[test]
    fn encodings_match_the_pinned_bytes() {
        let commit = || CommitCert { prepare: prepare(), cert: Certificate::new() };
        let req_hex = "01000000020000000000000003000000010203";
        let prepare_hex = format!("0100000000000000020000000000000001000000{req_hex}");
        let commit_hex = format!("{prepare_hex}00000000");
        let genesis_hex = format!("{}00000000", "00".repeat(8 + 32 + 32));
        let sig_hex = "ee".repeat(32);
        assert_eq!(hex(&req().to_bytes()), req_hex);
        assert_eq!(
            hex(&Reply { id: req().id, replica: ReplicaId(1), payload: b"out".to_vec() }.to_bytes()),
            "01000000020000000000000001000000030000006f7574"
        );
        assert_eq!(hex(&CtbMsg::Prepare(prepare()).to_bytes()), format!("00{prepare_hex}"));
        assert_eq!(hex(&CtbMsg::Commit(commit()).to_bytes()), format!("01{commit_hex}"));
        let summary = StateSummary {
            checkpoint: Some(CheckpointCert::genesis()),
            commits: vec![(Slot(1), commit())],
        };
        assert_eq!(
            hex(&summary.to_bytes()),
            format!("01{genesis_hex}010000000100000000000000{commit_hex}")
        );
        assert_eq!(
            hex(&TbMsg::WillCommit { view: View(0), slot: Slot(9) }.to_bytes()),
            "0100000000000000000900000000000000"
        );
        assert_eq!(
            hex(&TbMsg::Certify { prepare: prepare(), sig: Signature::garbage() }.to_bytes()),
            format!("02{prepare_hex}{sig_hex}")
        );
        assert_eq!(hex(&DirectMsg::Echo { req: req() }.to_bytes()), format!("00{req_hex}"));
        let echoes = DirectMsg::Echoes { reqs: vec![req(), req()] };
        assert_eq!(hex(&echoes.to_bytes()), format!("0502000000{req_hex}{req_hex}"));
        let join_ack = DirectMsg::JoinAck {
            view: View(2),
            streams: vec![JoinStream {
                stream: ReplicaId(0),
                fifo_next: SeqId(41),
                view: View(2),
                next_free: Slot(40),
                checkpoint: Some(CheckpointCert::genesis()),
            }],
            commits: vec![(Slot(9), commit())],
        };
        assert_eq!(
            hex(&join_ack.to_bytes()),
            format!(
                "04020000000000000001000000000000002900000000000000020000000000000028000000\
                 0000000001{genesis_hex}010000000900000000000000{commit_hex}"
            )
        );
        assert_eq!(
            hex(&prepare().certify_bytes()),
            format!("756266742d6365727469667900{prepare_hex}")
        );
    }

    /// The variants the test above leaves out, pinned before the codecs
    /// became one field list per type.
    #[test]
    fn every_variant_matches_the_pinned_bytes() {
        let genesis_hex = format!("{}00000000", "00".repeat(8 + 32 + 32));
        let sig_hex = "ee".repeat(32);
        let zeros = "00".repeat(32);
        // An empty summary: no checkpoint, no commits.
        let empty_hex = "0000000000";
        let vc = VcCert {
            about: ReplicaId(1),
            summary: StateSummary::default(),
            cert: Certificate::new(),
        };
        let cp =
            CheckpointData { base: Slot(1), app_digest: Digest::ZERO, exec_digest: Digest::ZERO };
        let cases: [(Vec<u8>, String); 9] = [
            (CtbMsg::Checkpoint(CheckpointCert::genesis()).to_bytes(), format!("02{genesis_hex}")),
            (CtbMsg::SealView { view: View(3) }.to_bytes(), "030300000000000000".into()),
            (
                CtbMsg::NewView { view: View(3), certs: vec![vc] }.to_bytes(),
                format!("0403000000000000000100000001000000{empty_hex}00000000"),
            ),
            (
                TbMsg::WillCertify { view: View(0), slot: Slot(9) }.to_bytes(),
                "0000000000000000000900000000000000".into(),
            ),
            (
                TbMsg::CertifyCheckpoint { data: cp, sig: Signature::garbage() }.to_bytes(),
                format!("030100000000000000{zeros}{zeros}{sig_hex}"),
            ),
            (
                TbMsg::Summary {
                    upto: SeqId(64),
                    summary: StateSummary::default(),
                    cert: Certificate::new(),
                }
                .to_bytes(),
                format!("044000000000000000{empty_hex}00000000"),
            ),
            (
                DirectMsg::CertifyVc {
                    view: View(2),
                    about: ReplicaId(1),
                    summary: StateSummary::default(),
                    sig: Signature::garbage(),
                }
                .to_bytes(),
                format!("01020000000000000001000000{empty_hex}{sig_hex}"),
            ),
            (
                DirectMsg::CertifySummary {
                    stream: ReplicaId(2),
                    upto: SeqId(5),
                    digest: Digest::ZERO,
                    sig: Signature::garbage(),
                }
                .to_bytes(),
                format!("02020000000500000000000000{zeros}{sig_hex}"),
            ),
            (DirectMsg::Join { reg_floor: SeqId(17) }.to_bytes(), "031100000000000000".into()),
        ];
        for (bytes, pinned) in cases {
            assert_eq!(hex(&bytes), pinned);
        }
    }

    #[test]
    fn unknown_tags_are_refused_by_name() {
        assert_eq!(
            CtbMsg::from_bytes(&[0xff]),
            Err(CodecError::BadTag { ty: "CtbMsg", tag: 0xff })
        );
        assert_eq!(TbMsg::from_bytes(&[0xff]), Err(CodecError::BadTag { ty: "TbMsg", tag: 0xff }));
        assert_eq!(
            DirectMsg::from_bytes(&[0xff]),
            Err(CodecError::BadTag { ty: "DirectMsg", tag: 0xff })
        );
    }

    #[test]
    fn sign_bytes_allocate_once() {
        let cp =
            CheckpointData { base: Slot(1), app_digest: Digest::ZERO, exec_digest: Digest::ZERO };
        for bytes in [
            prepare().certify_bytes(),
            cp.sign_bytes(),
            vc_sign_bytes(View(1), ReplicaId(0), &Digest::ZERO),
            summary_sign_bytes(ReplicaId(0), SeqId(1), &Digest::ZERO),
        ] {
            assert_eq!(bytes.len(), bytes.capacity());
        }
    }

    #[test]
    fn cloning_a_batch_shares_its_requests() {
        let p = prepare();
        let q = p.clone();
        assert!(std::ptr::eq(p.batch.requests(), q.batch.requests()));
    }

    #[test]
    fn checkpoint_supersedes() {
        let g = CheckpointCert::genesis();
        let mut later = g.clone();
        later.data.base = Slot(256);
        assert!(later.supersedes(&g));
        assert!(!g.supersedes(&later));
        assert!(!g.supersedes(&g.clone()));
    }

    #[test]
    fn sign_bytes_domain_separation() {
        let p = prepare();
        assert_ne!(p.certify_bytes(), p.to_bytes());
        let cp =
            CheckpointData { base: Slot(1), app_digest: Digest::ZERO, exec_digest: Digest::ZERO };
        assert_ne!(cp.sign_bytes(), cp.to_bytes());
        let d = Digest::ZERO;
        assert_ne!(
            vc_sign_bytes(View(1), ReplicaId(0), &d),
            summary_sign_bytes(ReplicaId(0), SeqId(1), &d)
        );
    }

    #[test]
    fn summary_digest_changes_with_content() {
        let a = StateSummary::default();
        let b = StateSummary { checkpoint: Some(CheckpointCert::genesis()), commits: vec![] };
        assert_ne!(a.digest(), b.digest());
    }
}
