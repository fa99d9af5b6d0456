//! Wire formats for TBcast and CTBcast messages.

use std::sync::Arc;

use ubft_crypto::{sha256, Digest, KeyRing, Signature};
use ubft_types::wire::{Wire, WireReader};
use ubft_types::{CodecError, ProcessId, ReplicaId, SeqId};

/// Tag byte of a data frame on a TBcast lane.
const TAG_DATA: u8 = 0;
/// Tag byte of an acknowledgement frame on a TBcast lane.
const TAG_ACK: u8 = 1;
/// Bytes in front of a data frame's payload: tag, `k`, payload length.
const DATA_HEADER: usize = 1 + 8 + 4;

/// A Tail Broadcast data frame, encoded once: `[tag 0][k][len][payload]` in
/// one immutable buffer. The broadcaster's retransmission buffer, the frame
/// sent to each peer and the self-delivery all hold this same buffer, so
/// cloning a `TbWire` copies no bytes, and a threaded transport can hand the
/// handle itself to the receiving thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TbWire {
    /// The broadcaster's sequence number for this message.
    pub k: SeqId,
    frame: Arc<[u8]>,
}

impl TbWire {
    /// Encodes the data frame carrying `payload` under sequence number `k`.
    /// The bytes are assembled in `scratch` (cleared first; a caller that
    /// keeps one around pays no allocation for it) and copied once into the
    /// shared buffer.
    pub fn encode(k: SeqId, payload: &impl Wire, scratch: &mut Vec<u8>) -> Self {
        Self::encode_reusing(k, payload, scratch, &mut Vec::new())
    }

    /// [`TbWire::encode`] into the buffer of one of `spares`, frames their
    /// holder has done with: the first that is the frame's length and that
    /// nothing else holds (`Arc::get_mut`) is taken out and overwritten. A
    /// frame some other handle still holds is never written. Allocates
    /// when no spare fits.
    pub(crate) fn encode_reusing(
        k: SeqId,
        payload: &impl Wire,
        scratch: &mut Vec<u8>,
        spares: &mut Vec<Arc<[u8]>>,
    ) -> Self {
        scratch.clear();
        TAG_DATA.encode(scratch);
        k.encode(scratch);
        (payload.encoded_len() as u32).encode(scratch);
        payload.encode(scratch);
        debug_assert_eq!(scratch.len(), DATA_HEADER + payload.encoded_len());
        let fits = |f: &mut Arc<[u8]>| f.len() == scratch.len() && Arc::get_mut(f).is_some();
        let frame = match spares.iter_mut().position(fits) {
            Some(i) => {
                let mut frame = spares.swap_remove(i);
                Arc::get_mut(&mut frame).expect("held nowhere else").copy_from_slice(scratch);
                frame
            }
            None => Arc::from(&scratch[..]),
        };
        TbWire { k, frame }
    }

    /// The opaque payload (an encoded [`CtbWire`] or a consensus message).
    pub fn payload(&self) -> &[u8] {
        &self.frame[DATA_HEADER..]
    }

    /// The whole encoded frame: what goes on the wire.
    pub fn frame(&self) -> &Arc<[u8]> {
        &self.frame
    }

    /// The frame's buffer, for a later [`TbWire::encode_reusing`].
    pub(crate) fn into_frame(self) -> Arc<[u8]> {
        self.frame
    }
}

/// An acknowledgement for TBcast retransmission control (piggybacked or
/// periodic): "I have delivered everything I will up to `upto`".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TbAck {
    /// Highest delivered sequence number.
    pub upto: SeqId,
}

impl TbAck {
    /// The encoded acknowledgement frame, `[tag 1][upto]`: fixed-size, so it
    /// lives on the stack.
    pub fn frame(&self) -> [u8; 9] {
        let mut frame = [TAG_ACK; 9];
        frame[1..].copy_from_slice(&self.upto.0.to_le_bytes());
        frame
    }
}

/// Everything a TBcast lane carries — data frames one way, acks the other —
/// as a view into the buffer it arrived in: the payload is borrowed, not
/// copied out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TbFrame<'a> {
    /// A broadcast (or retransmitted) message.
    Data {
        /// The broadcaster's sequence number.
        k: SeqId,
        /// The opaque payload.
        payload: &'a [u8],
    },
    /// A cumulative acknowledgement.
    Ack(TbAck),
}

impl<'a> TbFrame<'a> {
    /// Decodes a frame produced by [`TbWire::encode`] or [`TbAck::frame`].
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, an unknown tag, or bytes left
    /// over after the frame.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(bytes);
        let frame = match u8::decode(&mut r)? {
            TAG_DATA => TbFrame::Data { k: SeqId::decode(&mut r)?, payload: r.take_bytes()? },
            TAG_ACK => TbFrame::Ack(TbAck { upto: SeqId::decode(&mut r)? }),
            tag => return Err(CodecError::BadTag { ty: "TbFrame", tag }),
        };
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(frame)
    }
}

/// CTBcast protocol messages (Algorithm 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtbWire {
    /// Fast path round 1: the broadcaster proposes `(k, m)`.
    Lock {
        /// Broadcast identifier.
        k: SeqId,
        /// Message payload.
        m: Vec<u8>,
    },
    /// Fast path round 2: a receiver commits to `(k, m)`.
    Locked {
        /// Broadcast identifier.
        k: SeqId,
        /// Message payload (echoed so any receiver can deliver it).
        m: Vec<u8>,
    },
    /// Slow path: the broadcaster's signed message.
    Signed {
        /// Broadcast identifier.
        k: SeqId,
        /// Message payload.
        m: Vec<u8>,
        /// Signature over `(stream, k, fingerprint(m))`.
        sig: Signature,
    },
}

ubft_types::wire!(CtbWire { 0 => Lock { k, m }, 1 => Locked { k, m }, 2 => Signed { k, m, sig } });

impl CtbWire {
    /// This message as a view of its own fields.
    pub fn view(&self) -> CtbWireRef<'_> {
        match self {
            CtbWire::Lock { k, m } => CtbWireRef::Lock { k: *k, m },
            CtbWire::Locked { k, m } => CtbWireRef::Locked { k: *k, m },
            CtbWire::Signed { k, m, sig } => CtbWireRef::Signed { k: *k, m, sig: *sig },
        }
    }
}

/// A [`CtbWire`] as a view into the buffer it arrived in, as [`TbFrame`] is
/// a TBcast frame's: the body is borrowed, so a receiver copies it only
/// where it keeps it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtbWireRef<'a> {
    /// [`CtbWire::Lock`].
    Lock {
        /// Broadcast identifier.
        k: SeqId,
        /// Message payload.
        m: &'a [u8],
    },
    /// [`CtbWire::Locked`].
    Locked {
        /// Broadcast identifier.
        k: SeqId,
        /// Message payload.
        m: &'a [u8],
    },
    /// [`CtbWire::Signed`].
    Signed {
        /// Broadcast identifier.
        k: SeqId,
        /// Message payload.
        m: &'a [u8],
        /// Signature over `(stream, k, fingerprint(m))`.
        sig: Signature,
    },
}

impl<'a> CtbWireRef<'a> {
    /// Decodes what [`CtbWire`] encodes (the tags of its `wire!` line),
    /// borrowing the body.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, an unknown tag, or bytes left
    /// over after the message.
    pub fn decode(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(bytes);
        // Field initialisers run in the order written: wire order.
        let wire = match u8::decode(&mut r)? {
            0 => CtbWireRef::Lock { k: SeqId::decode(&mut r)?, m: r.take_bytes()? },
            1 => CtbWireRef::Locked { k: SeqId::decode(&mut r)?, m: r.take_bytes()? },
            2 => CtbWireRef::Signed {
                k: SeqId::decode(&mut r)?,
                m: r.take_bytes()?,
                sig: Signature::decode(&mut r)?,
            },
            tag => return Err(CodecError::BadTag { ty: "CtbWire", tag }),
        };
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(wire)
    }
}

/// The fingerprint of a CTBcast message body (what gets signed and what the
/// SWMR registers store, §7.6).
pub fn fingerprint(m: &[u8]) -> Digest {
    sha256(m)
}

/// The exact bytes a broadcaster signs for `(stream, k, fp)`; domain-separated
/// so signatures cannot be replayed across streams or layers. Laid out as
/// the wire encodes the three fields, behind a 16-byte domain tag.
pub fn signed_bytes(stream: ReplicaId, k: SeqId, fp: &Digest) -> [u8; 60] {
    let mut buf = [0u8; 60];
    buf[..16].copy_from_slice(b"ubft-ctb-signed\0");
    buf[16..20].copy_from_slice(&stream.0.to_le_bytes());
    buf[20..28].copy_from_slice(&k.0.to_le_bytes());
    buf[28..].copy_from_slice(fp.as_bytes());
    buf
}

/// `stream`'s broadcaster signature over [`signed_bytes`]`(stream, k, fp)`.
pub fn sign_broadcast(ring: &KeyRing, stream: ReplicaId, k: SeqId, fp: &Digest) -> Signature {
    let signer = ring.signer(ProcessId::Replica(stream)).expect("replica key");
    signer.sign(&signed_bytes(stream, k, fp))
}

/// Whether `sig` is [`sign_broadcast`]`(ring, stream, k, fp)`.
pub fn verify_broadcast(
    ring: &KeyRing,
    stream: ReplicaId,
    k: SeqId,
    fp: &Digest,
    sig: &Signature,
) -> bool {
    ring.verify(ProcessId::Replica(stream), &signed_bytes(stream, k, fp), sig)
}

/// Raw bytes as a TBcast payload, for tests (`Vec<u8>` would add its own
/// length prefix).
#[cfg(test)]
pub(crate) struct Raw<'a>(pub &'a [u8]);

#[cfg(test)]
impl Wire for Raw<'_> {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.0);
    }
    fn encoded_len(&self) -> usize {
        self.0.len()
    }
    fn decode(_: &mut WireReader<'_>) -> Result<Self, CodecError> {
        unreachable!("payloads are decoded as the type they carry")
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use ubft_types::wire::roundtrip;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn wires_roundtrip() {
        let wire = TbWire::encode(SeqId(9), &Raw(&[1, 2, 3]), &mut Vec::new());
        assert_eq!((wire.k, wire.payload()), (SeqId(9), &[1u8, 2, 3][..]));
        assert_eq!(
            TbFrame::decode(wire.frame()),
            Ok(TbFrame::Data { k: SeqId(9), payload: &[1, 2, 3] })
        );
        let ack = TbAck { upto: SeqId(4) };
        assert_eq!(TbFrame::decode(&ack.frame()), Ok(TbFrame::Ack(ack)));
        roundtrip(&CtbWire::Lock { k: SeqId(1), m: b"m".to_vec() });
        roundtrip(&CtbWire::Locked { k: SeqId(2), m: b"m".to_vec() });
        roundtrip(&CtbWire::Signed { k: SeqId(3), m: b"m".to_vec(), sig: Signature::garbage() });
    }

    #[test]
    fn tb_frames_reject_what_the_owned_codec_rejected() {
        let wire = TbWire::encode(SeqId(9), &Raw(&[1, 2, 3]), &mut Vec::new());
        let mut long = wire.frame().to_vec();
        long.push(0);
        assert_eq!(TbFrame::decode(&long), Err(CodecError::TrailingBytes { remaining: 1 }));
        assert!(matches!(TbFrame::decode(&wire.frame()[..14]), Err(CodecError::Truncated { .. })));
        assert_eq!(TbFrame::decode(&[7]), Err(CodecError::BadTag { ty: "TbFrame", tag: 7 }));
        assert!(TbFrame::decode(&TbAck { upto: SeqId(4) }.frame()[..8]).is_err());
    }

    /// The encoded bytes are what the latency model charges for and what
    /// checksums and signatures cover: these were taken from the encoders
    /// this module had before frames were shared buffers, and must not move.
    #[test]
    fn encodings_match_the_pinned_bytes() {
        let scratch = &mut Vec::new();
        assert_eq!(
            hex(TbWire::encode(SeqId(9), &Raw(&[1, 2, 3]), scratch).frame()),
            "00090000000000000003000000010203"
        );
        assert_eq!(hex(&TbAck { upto: SeqId(4) }.frame()), "010400000000000000");
        let lock = CtbWire::Lock { k: SeqId(1), m: b"m".to_vec() };
        assert_eq!(hex(&lock.to_bytes()), "000100000000000000010000006d");
        assert_eq!(
            hex(&CtbWire::Locked { k: SeqId(2), m: b"m".to_vec() }.to_bytes()),
            "010200000000000000010000006d"
        );
        let signed = CtbWire::Signed { k: SeqId(3), m: b"m".to_vec(), sig: Signature::garbage() };
        assert_eq!(
            hex(&signed.to_bytes()),
            format!("020300000000000000010000006d{}", "ee".repeat(32))
        );
        // A CTBcast frame nested in a TBcast frame, encoded in one pass.
        assert_eq!(
            hex(TbWire::encode(SeqId(7), &lock, scratch).frame()),
            "0007000000000000000e000000000100000000000000010000006d"
        );
        let fp = "62c66a7a5dd70c3146618063c344e531e6d4b59e379808443ce962b3abd63c5a";
        assert_eq!(
            hex(&signed_bytes(ReplicaId(2), SeqId(5), &fingerprint(b"m"))),
            format!("756266742d6374622d7369676e656400020000000500000000000000{fp}")
        );
        let entry = crate::ctbcast::RegEntry {
            k: SeqId(6),
            fp: fingerprint(b"m"),
            sig: Signature::garbage(),
        };
        assert_eq!(hex(&entry.to_bytes()), format!("0600000000000000{fp}{}", "ee".repeat(32)));
    }

    #[test]
    fn unknown_tags_are_refused_by_name() {
        assert_eq!(
            CtbWire::from_bytes(&[0xff]),
            Err(CodecError::BadTag { ty: "CtbWire", tag: 0xff })
        );
    }

    fn ctb_wire(tag: u8, k: u64, m: Vec<u8>, sig: &[u8]) -> CtbWire {
        let k = SeqId(k);
        match tag {
            0 => CtbWire::Lock { k, m },
            1 => CtbWire::Locked { k, m },
            _ => CtbWire::Signed { k, m, sig: Signature::from_bytes(sig).expect("32 bytes") },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The view read out of a message's bytes is the message, borrowed;
        /// and the view refuses, with the same error, what the owned decoder
        /// refuses: every truncation, a byte left over and an unknown tag.
        #[test]
        fn the_view_reads_what_the_owned_decoder_reads(
            tag in 0u8..3,
            k in any::<u64>(),
            m in proptest::collection::vec(any::<u8>(), 0..48),
            sig in proptest::collection::vec(any::<u8>(), 32..33),
            bad in 3u8..=255,
        ) {
            let wire = ctb_wire(tag, k, m, &sig);
            let bytes = wire.to_bytes();
            prop_assert_eq!(CtbWireRef::decode(&bytes), Ok(wire.view()));
            for cut in 0..bytes.len() {
                let owned = CtbWire::from_bytes(&bytes[..cut]).expect_err("truncated");
                prop_assert_eq!(CtbWireRef::decode(&bytes[..cut]), Err(owned));
            }
            let mut long = bytes.clone();
            long.push(0);
            let trailing = || CodecError::TrailingBytes { remaining: 1 };
            prop_assert_eq!(CtbWire::from_bytes(&long), Err(trailing()));
            prop_assert_eq!(CtbWireRef::decode(&long), Err(trailing()));
            let mut tagged = bytes;
            tagged[0] = bad;
            let refused = || CodecError::BadTag { ty: "CtbWire", tag: bad };
            prop_assert_eq!(CtbWire::from_bytes(&tagged), Err(refused()));
            prop_assert_eq!(CtbWireRef::decode(&tagged), Err(refused()));
        }
    }

    #[test]
    fn batch_sized_payloads_roundtrip() {
        // CTBcast payloads are opaque, so a 64-request batch of 2 KiB
        // requests (the largest proposal the batched engine emits at the
        // paper-default request size) must frame and roundtrip unchanged.
        let batch_bytes: Vec<u8> = (0..64 * 2048u32).map(|i| (i * 31 % 251) as u8).collect();
        let lock = CtbWire::Lock { k: SeqId(7), m: batch_bytes.clone() };
        roundtrip(&lock);
        let wire = TbWire::encode(SeqId(7), &lock, &mut Vec::new());
        assert_eq!(CtbWire::from_bytes(wire.payload()), Ok(lock));
        assert_eq!(fingerprint(&batch_bytes), fingerprint(&batch_bytes));
    }

    #[test]
    fn signed_bytes_domain_separated() {
        let fp = fingerprint(b"m");
        let a = signed_bytes(ReplicaId(0), SeqId(1), &fp);
        let b = signed_bytes(ReplicaId(1), SeqId(1), &fp);
        let c = signed_bytes(ReplicaId(0), SeqId(2), &fp);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        assert_eq!(fingerprint(b"x"), fingerprint(b"x"));
        assert_ne!(fingerprint(b"x"), fingerprint(b"y"));
    }
}
