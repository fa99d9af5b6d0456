//! A small, deterministic, hand-rolled binary codec.
//!
//! The RDMA transport checksums raw bytes and the signature layer signs them,
//! so the encoding must be byte-stable across runs and platforms. We use
//! fixed-width little-endian integers and length-prefixed containers; there is
//! deliberately no self-description or versioning, matching the fixed-format
//! buffers a real RDMA prototype would use.

use crate::CodecError;

/// Types that can be encoded to and decoded from the deterministic wire
/// format.
///
/// # Example
///
/// ```
/// use ubft_types::wire::{Wire, WireReader};
///
/// let mut buf = Vec::new();
/// 42u64.encode(&mut buf);
/// let mut r = WireReader::new(&buf);
/// assert_eq!(u64::decode(&mut r).unwrap(), 42);
/// ```
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Exactly how many bytes [`Wire::encode`] appends. Lets every encoder
    /// size its buffer once instead of growing it field by field.
    fn encoded_len(&self) -> usize;

    /// Decodes a value from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if the input is truncated or contains an
    /// invalid tag; Byzantine peers can send arbitrary bytes, so decoding is
    /// total and never panics.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError>;

    /// Encodes `self` into a fresh buffer of exactly the encoded size: one
    /// allocation, no growth.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), self.encoded_len(), "encoded_len disagrees with encode");
        buf
    }

    /// Convenience: decodes a value from `bytes`, requiring full consumption.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::TrailingBytes`] if input remains after decoding,
    /// or any error from [`Wire::decode`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CodecError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(v)
    }
}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Takes a length-prefixed byte string (what `Vec<u8>` encodes to)
    /// without copying it out of the input.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if the prefix or the bytes it
    /// announces are missing.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = u32::decode(self)? as usize;
        self.take(len)
    }
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                core::mem::size_of::<$t>()
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
                let n = core::mem::size_of::<$t>();
                let bytes = r.take(n)?;
                let mut arr = [0u8; core::mem::size_of::<$t>()];
                arr.copy_from_slice(bytes);
                Ok(<$t>::from_le_bytes(arr))
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u8).encode(buf);
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { ty: "bool", tag }),
        }
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(r.take_bytes()?.to_vec())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => 0u8.encode(buf),
            Some(v) => {
                1u8.encode(buf);
                v.encode(buf);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag { ty: "Option", tag }),
        }
    }
}

/// A pair encodes as its two halves back to back, so keyed lists go through
/// [`encode_seq`] / [`decode_seq`] without a wrapper type.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Maximum element count accepted when decoding a container, as a defence
/// against Byzantine length fields causing huge allocations.
pub const MAX_WIRE_ELEMS: usize = 1 << 20;

/// A length-prefixed sequence of wire values.
///
/// `Vec<u8>` already has a compact byte-string encoding, so generic sequences
/// are encoded via this helper instead of a blanket `Vec<T>` impl (Rust's
/// coherence rules forbid both).
pub fn encode_seq<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).encode(buf);
    for it in items {
        it.encode(buf);
    }
}

/// Exactly how many bytes [`encode_seq`] appends for `items`.
pub fn seq_encoded_len<T: Wire>(items: &[T]) -> usize {
    4 + items.iter().map(Wire::encoded_len).sum::<usize>()
}

/// Decodes a sequence written by [`encode_seq`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation, bad tags, or an element count
/// exceeding [`MAX_WIRE_ELEMS`].
pub fn decode_seq<T: Wire>(r: &mut WireReader<'_>) -> Result<Vec<T>, CodecError> {
    let len = u32::decode(r)? as usize;
    if len > MAX_WIRE_ELEMS {
        return Err(CodecError::LengthOverflow { len });
    }
    let mut out = Vec::with_capacity(len.min(1024));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// Test helper: asserts that a value encodes and decodes to itself.
///
/// # Panics
///
/// Panics if the roundtrip fails or is lossy.
pub fn roundtrip<T: Wire + PartialEq + core::fmt::Debug>(v: &T) {
    let bytes = v.to_bytes();
    assert_eq!(bytes.len(), v.encoded_len(), "encoded_len disagrees with encode");
    assert_eq!(bytes.len(), bytes.capacity(), "to_bytes must allocate exactly once");
    let back = T::from_bytes(&bytes).expect("decode");
    assert_eq!(&back, v, "wire roundtrip lossy");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrips() {
        roundtrip(&0u8);
        roundtrip(&255u8);
        roundtrip(&0xABCDu16);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&(-42i64));
    }

    #[test]
    fn bool_roundtrip_and_bad_tag() {
        roundtrip(&true);
        roundtrip(&false);
        assert!(matches!(bool::from_bytes(&[7]), Err(CodecError::BadTag { ty: "bool", tag: 7 })));
    }

    #[test]
    fn bytes_roundtrip() {
        roundtrip(&Vec::<u8>::new());
        roundtrip(&vec![1u8, 2, 3, 4, 5]);
    }

    #[test]
    fn option_roundtrip() {
        roundtrip(&Some(9u64));
        roundtrip(&Option::<u64>::None);
    }

    #[test]
    fn pair_is_its_halves_back_to_back() {
        roundtrip(&(7u32, vec![1u8, 2]));
        let mut halves = 7u32.to_bytes();
        vec![1u8, 2].encode(&mut halves);
        assert_eq!((7u32, vec![1u8, 2]).to_bytes(), halves);
    }

    #[test]
    fn take_bytes_borrows_what_vec_decodes() {
        let buf = vec![9u8, 8, 7].to_bytes();
        let mut r = WireReader::new(&buf);
        assert_eq!(r.take_bytes().unwrap(), &[9u8, 8, 7][..]);
        assert_eq!(r.remaining(), 0);
        assert!(WireReader::new(&buf[..5]).take_bytes().is_err());
    }

    #[test]
    fn seq_roundtrip() {
        let items = vec![1u64, 2, 3];
        let mut buf = Vec::new();
        encode_seq(&items, &mut buf);
        assert_eq!(buf.len(), seq_encoded_len(&items));
        let mut r = WireReader::new(&buf);
        let back: Vec<u64> = decode_seq(&mut r).unwrap();
        assert_eq!(back, items);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = WireReader::new(&[1, 2]);
        assert!(matches!(u64::decode(&mut r), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = 5u8.to_bytes();
        buf.push(0);
        assert!(matches!(u8::from_bytes(&buf), Err(CodecError::TrailingBytes { remaining: 1 })));
    }

    #[test]
    fn hostile_length_rejected() {
        // A length field of u32::MAX must not allocate.
        let buf = (u32::MAX).to_bytes();
        let mut r = WireReader::new(&buf);
        assert!(decode_seq::<u64>(&mut r).is_err());
    }
}
