//! A small, deterministic binary codec.
//!
//! The RDMA transport checksums raw bytes and the signature layer signs them,
//! so the encoding must be byte-stable across runs and platforms. We use
//! fixed-width little-endian integers and length-prefixed containers; there is
//! deliberately no self-description or versioning, matching the fixed-format
//! buffers a real RDMA prototype would use.
//!
//! A message type states its layout once, with [`wire!`](crate::wire!):
//! its fields in wire order, and for an enum the tag of each variant.
//!
//! A receiver that already holds a value a message carries can offer it to
//! the decoder ([`Held`], [`Wire::from_bytes_holding`]): a type whose
//! decoder looks there shares the held value when the bytes match it,
//! instead of building an equal one.

use std::any::Any;

use crate::{CodecError, Inline, Slot, View};

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
        decode_whole(WireReader::new(bytes))
    }

    /// [`Wire::from_bytes`], with what the receiver holds offered to the
    /// decoders that look for it ([`WireReader::held`]). It returns what
    /// `from_bytes` returns — the same value or the same error — and only
    /// shares what it can instead of building it.
    ///
    /// # Errors
    ///
    /// As [`Wire::from_bytes`].
    fn from_bytes_holding(bytes: &[u8], held: &dyn Held) -> Result<Self, CodecError> {
        decode_whole(WireReader { held: Some(held), ..WireReader::new(bytes) })
    }

    /// The elements of a `Vec<Self>`, after its count. `u8` copies them as
    /// one slice.
    #[doc(hidden)]
    fn encode_elems(items: &[Self], buf: &mut Vec<u8>) {
        for it in items {
            it.encode(buf);
        }
    }

    /// What [`Wire::encode_elems`] appends for `items`.
    #[doc(hidden)]
    fn elems_len(items: &[Self]) -> usize {
        items.iter().map(Wire::encoded_len).sum()
    }

    /// Decodes the `len` elements of a `Vec<Self>`, refusing a count above
    /// [`MAX_WIRE_ELEMS`] before allocating for it. A byte string (`u8`)
    /// has no such cap: its length is checked against the input instead.
    #[doc(hidden)]
    fn decode_elems(r: &mut WireReader<'_>, len: usize) -> Result<Vec<Self>, CodecError> {
        if len > MAX_WIRE_ELEMS {
            return Err(CodecError::LengthOverflow { len });
        }
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(Self::decode(r)?);
        }
        Ok(out)
    }
}

/// Implements [`Wire`] for a type from its fields, listed once and in wire
/// order:
///
/// * `wire!(Point { x, y })` — a struct: its fields back to back;
/// * `wire!(Meters(0))` — a newtype: its one field;
/// * `wire!(Shape { 0 => Dot(p), 1 => Line { from, to } })` — an enum: a
///   tag byte, then the variant's fields. Tags are written out, so the
///   declaration order of the variants does not matter; an unknown tag
///   decodes to [`CodecError::BadTag`] naming the enum.
///
/// # Example
///
/// ```
/// use ubft_types::wire::Wire;
///
/// #[derive(Debug, PartialEq)]
/// struct Point { x: u32, y: u64 }
/// ubft_types::wire!(Point { x, y });
///
/// #[derive(Debug, PartialEq)]
/// struct Meters(u32);
/// ubft_types::wire!(Meters(0));
///
/// #[derive(Debug, PartialEq)]
/// enum Shape { Dot(Point), Line { from: Point, to: Point } }
/// ubft_types::wire!(Shape { 0 => Dot(p), 1 => Line { from, to } });
///
/// let line = Shape::Line { from: Point { x: 1, y: 2 }, to: Point { x: 3, y: 4 } };
/// assert_eq!(line.to_bytes().len(), 1 + 2 * (4 + 8));
/// assert_eq!(Shape::from_bytes(&line.to_bytes()), Ok(line));
/// assert_eq!(Meters(7).to_bytes(), 7u32.to_bytes());
/// assert!(Shape::from_bytes(&[2]).is_err());
/// ```
// What this generates is `#[inline]`, like the primitives below: the
// functions are small, mostly called from other crates, and a message
// encodes and decodes through dozens of them.
#[macro_export]
macro_rules! wire {
    ($ty:ident { $($field:tt),+ }) => {
        impl $crate::wire::Wire for $ty {
            #[inline]
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                $($crate::wire::Wire::encode(&self.$field, buf);)+
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                0 $(+ $crate::wire::Wire::encoded_len(&self.$field))+
            }
            #[inline]
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::CodecError> {
                // Field initialisers run in the order written: wire order.
                Ok($ty { $($field: $crate::wire::Wire::decode(r)?),+ })
            }
        }
    };
    ($ty:ident(0)) => {
        $crate::wire!($ty { 0 });
    };
    ($ty:ident {
        $($tag:literal => $variant:ident $(($($pos:ident),+))? $({ $($field:ident),+ })?),+ $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            #[inline]
            fn encode(&self, buf: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($ty::$variant $(($($pos),+))? $({ $($field),+ })? => {
                        buf.push($tag);
                        $($($crate::wire::Wire::encode($pos, buf);)+)?
                        $($($crate::wire::Wire::encode($field, buf);)+)?
                    })+
                }
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                match self {
                    $($ty::$variant $(($($pos),+))? $({ $($field),+ })? => {
                        1 $($(+ $crate::wire::Wire::encoded_len($pos))+)?
                            $($(+ $crate::wire::Wire::encoded_len($field))+)?
                    })+
                }
            }
            #[inline]
            fn decode(
                r: &mut $crate::wire::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::CodecError> {
                match <u8 as $crate::wire::Wire>::decode(r)? {
                    $($tag => {
                        $($(let $pos = $crate::wire::Wire::decode(r)?;)+)?
                        $($(let $field = $crate::wire::Wire::decode(r)?;)+)?
                        Ok($ty::$variant $(($($pos),+))? $({ $($field),+ })?)
                    })+
                    tag => Err($crate::CodecError::BadTag { ty: stringify!($ty), tag }),
                }
            }
        }
    };
}

/// Decodes one `T` from `r`, requiring full consumption.
fn decode_whole<T: Wire>(mut r: WireReader<'_>) -> Result<T, CodecError> {
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes { remaining: r.remaining() });
    }
    Ok(v)
}

/// What a receiver holds of a proposal, offered to a decoder so that an
/// equal value is shared instead of decoded anew
/// ([`Wire::from_bytes_holding`]). The decoder downcasts the value to the
/// type it decodes and compares its encoding with the input; a value it
/// cannot use is ignored.
pub trait Held {
    /// The value held for the proposal at `slot` in `view`, if any.
    fn held(&self, view: View, slot: Slot) -> Option<&dyn Any>;
}

/// A bounds-checked cursor over a byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    held: Option<&'a dyn Held>,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0, held: None }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes not yet consumed, left in place.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// What the receiver holds, if the decode was offered it.
    #[inline]
    pub fn held(&self) -> Option<&'a dyn Held> {
        self.held
    }

    /// Takes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] if fewer than `n` bytes remain.
    #[inline]
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
    #[inline]
    pub fn take_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = u32::decode(self)? as usize;
        self.take(len)
    }
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                core::mem::size_of::<$t>()
            }
            #[inline]
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

impl_wire_int!(u16, u32, u64, i64);

/// A byte string (`Vec<u8>`) is its length and the bytes as one slice.
impl Wire for u8 {
    #[inline]
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
    #[inline]
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        Ok(r.take(1)?[0])
    }
    #[inline]
    fn encode_elems(items: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(items);
    }
    #[inline]
    fn elems_len(items: &[u8]) -> usize {
        items.len()
    }
    #[inline]
    fn decode_elems(r: &mut WireReader<'_>, len: usize) -> Result<Vec<u8>, CodecError> {
        Ok(r.take(len)?.to_vec())
    }
}

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

/// A sequence is its element count (`u32`) and then its elements.
impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        T::encode_elems(self, buf);
    }
    fn encoded_len(&self) -> usize {
        4 + T::elems_len(self)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        T::decode_elems(r, len)
    }
}

/// An [`Inline`] list is the `Vec` of its elements on the wire, count cap
/// included: only where a decoded value keeps them differs.
impl<T: Wire, const N: usize> Wire for Inline<T, N> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        self.iter().for_each(|it| it.encode(buf));
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as usize;
        if len > MAX_WIRE_ELEMS {
            return Err(CodecError::LengthOverflow { len });
        }
        (0..len).map(|_| T::decode(r)).collect()
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

/// A pair encodes as its two halves back to back, so a keyed list is a
/// `Vec<(K, V)>` without a wrapper type.
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

/// Maximum element count accepted when decoding a sequence of values, as a
/// defence against Byzantine length fields causing huge allocations.
pub const MAX_WIRE_ELEMS: usize = 1 << 20;

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
        roundtrip(&items);
        // A byte string and a sequence of bytes are one encoding.
        assert_eq!(vec![1u8, 2].to_bytes(), [2, 0, 0, 0, 1, 2]);
        assert_eq!(items.to_bytes()[..4], [3, 0, 0, 0]);
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
        assert!(Vec::<u64>::from_bytes(&buf).is_err());
        assert!(Vec::<u8>::from_bytes(&buf).is_err());
    }

    /// The element cap guards sequences of values, not byte strings: a
    /// payload longer than [`MAX_WIRE_ELEMS`] bytes is still one value.
    #[test]
    fn the_element_cap_binds_sequences_not_bytes() {
        roundtrip(&vec![7u8; MAX_WIRE_ELEMS + 1]);
        let announced = ((MAX_WIRE_ELEMS + 1) as u32).to_bytes();
        assert_eq!(
            Vec::<u64>::from_bytes(&announced),
            Err(CodecError::LengthOverflow { len: MAX_WIRE_ELEMS + 1 })
        );
    }
}
