//! Canonical byte encodings of event sequences, keyed for comparison.
//!
//! The DPOR explorer ([`crate::dpor`]) identifies a failing trace class
//! by the encoding of its canonical linearization and reports the class
//! with the smallest key. A [`DigestWriter`] accumulates that encoding;
//! it produces a [`StateKey`] carrying both a cheap 64-bit FNV-1a hash
//! *and* the full byte string, so equality and ordering never rest on the
//! weak hash alone. Callers length-prefix variable-size parts
//! ([`DigestWriter::write_len`]) to rule out ambiguous concatenations.

/// Accumulates a canonical byte encoding.
#[derive(Debug, Default)]
pub struct DigestWriter {
    bytes: Vec<u8>,
}

impl DigestWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        DigestWriter::default()
    }

    /// Appends raw bytes. Callers encoding variable-length data must
    /// length-prefix it (see [`DigestWriter::write_len`]) to keep the
    /// overall encoding unambiguous.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Appends a `u64` in little-endian order.
    pub fn write_u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length (prefix it *before* the elements).
    pub fn write_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Finalizes into a [`StateKey`]: weak hash plus full encoding.
    #[must_use]
    pub fn finish(self) -> StateKey {
        let hash = fnv1a(&self.bytes);
        StateKey {
            hash,
            bytes: self.bytes.into_boxed_slice(),
        }
    }
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A canonical encoding: a weak 64-bit hash for bucketing and the full
/// byte string for the equality confirm path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateKey {
    hash: u64,
    bytes: Box<[u8]>,
}

impl StateKey {
    /// The weak bucketing hash.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The full canonical encoding.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(parts: &[&[u8]]) -> StateKey {
        let mut w = DigestWriter::new();
        w.write_len(parts.len());
        for part in parts {
            w.write_len(part.len());
            w.write_bytes(part);
        }
        w.finish()
    }

    #[test]
    fn equal_values_share_a_key_distinct_values_do_not() {
        let a = key_of(&[b"step 0", b"step 1"]);
        let b = key_of(&[b"step 0", b"step 1"]);
        let c = key_of(&[b"step 1", b"step 0"]);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        assert_ne!(a, c);
    }

    #[test]
    fn length_prefix_disambiguates_adjacent_collections() {
        // [[1],[2]] vs [[1,2],[]] — without length prefixes these would
        // concatenate to the same stream.
        let a = key_of(&[&[1], &[2]]);
        let b = key_of(&[&[1, 2], &[]]);
        assert_ne!(a, b);
    }
}
