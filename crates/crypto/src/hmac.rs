//! HMAC-SHA-256 (RFC 2104), used for signatures-in-simulation and for the
//! MinBFT USIG's authenticated counters.

use crate::sha256::{Digest, Sha256};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// Computes `HMAC-SHA-256(key, msg)`.
///
/// # Example
///
/// ```
/// use ubft_crypto::hmac::hmac_sha256;
///
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag.as_bytes().len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    // Keys longer than the block size are hashed first.
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        let kd = crate::sha256::sha256(key);
        key_block[..32].copy_from_slice(kd.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut inner = Sha256::new();
    inner.update(&key_block.map(|b| b ^ IPAD));
    inner.update(msg);
    let inner_digest = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&key_block.map(|b| b ^ OPAD));
    outer.update(inner_digest.as_bytes());
    outer.finalize()
}

/// Constant-shape comparison of two digests.
///
/// In a real deployment this would be constant-time; in the simulation it
/// only needs to be correct, but we still avoid early exit for fidelity.
pub fn digest_eq(a: &Digest, b: &Digest) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.as_bytes().iter().zip(b.as_bytes()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4231_case_1() {
        // Key = 0x0b * 20, Data = "Hi There"
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        // Key = "Jefe", Data = "what do ya want for nothing?"
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        // Key = 0xaa * 20, Data = 0xdd * 50
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_long_key() {
        // Case 6: 131-byte key gets hashed down first.
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
        assert_ne!(hmac_sha256(b"k", b"m1"), hmac_sha256(b"k", b"m2"));
    }

    #[test]
    fn digest_eq_works() {
        let a = hmac_sha256(b"k", b"m");
        let b = hmac_sha256(b"k", b"m");
        let c = hmac_sha256(b"k", b"n");
        assert!(digest_eq(&a, &b));
        assert!(!digest_eq(&a, &c));
    }
}
