//! Streaming FNV-1a 64-bit content digests.
//!
//! Manifests record a digest per output artifact (reports, CSVs,
//! probability vectors) so reproducibility can be checked by comparing
//! 16-character hex strings instead of diffing whole files. FNV-1a is
//! not cryptographic — it detects drift, not adversaries — but it is
//! deterministic, dependency-free and fast.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// The current digest as the manifest's `fnv1a64:` hex form.
    pub fn hex(&self) -> String {
        format!("fnv1a64:{:016x}", self.0)
    }
}

/// Absorbs formatted text, so `write!` digests what it would print
/// without building the string.
impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// One-shot digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// One-shot digest of `bytes` in `fnv1a64:<16 hex>` form.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
        assert_eq!(h.hex(), fnv1a64_hex(b"foobar"));
    }

    #[test]
    fn formatted_writes_digest_the_printed_text() {
        use std::fmt::Write as _;
        let mut h = Fnv64::new();
        let (unit, outcomes, divergence) = (7, "DLB", -1);
        write!(h, "{unit}|{outcomes}|{divergence}").unwrap();
        assert_eq!(h.hex(), fnv1a64_hex(b"7|DLB|-1"));
    }

    #[test]
    fn hex_form_is_prefixed_and_padded() {
        let hex = fnv1a64_hex(b"");
        assert!(hex.starts_with("fnv1a64:"));
        assert_eq!(hex.len(), "fnv1a64:".len() + 16);
    }
}
