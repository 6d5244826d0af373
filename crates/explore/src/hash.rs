//! Stable point hashing for sweep artifacts.
//!
//! Point keys must be identical across runs, platforms, and rustc
//! versions, so `std::hash` (randomized, version-dependent) is out. We
//! hash a canonical JSON serialization of the (config, workload, schema
//! version) triple with FNV-1a 64 — the same portable-integer-only
//! discipline as the testkit PRNGs.

/// FNV-1a 64-bit over a byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A 16-hex-digit key string for a canonical serialization.
pub fn key_hex(canonical: &str) -> String {
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_is_stable_hex() {
        assert_eq!(key_hex(""), "cbf29ce484222325");
        assert_eq!(key_hex("a").len(), 16);
        assert_ne!(key_hex("a"), key_hex("b"));
    }
}
