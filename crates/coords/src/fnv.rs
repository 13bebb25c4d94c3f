//! FNV-1a hashing for spatial hashing (§2.1.2).
//!
//! [`Coord::fnv1a`](crate::Coord::fnv1a) folds a coordinate's four
//! components, as 64-bit FNV-1a over their little-endian bytes, into the
//! hash behind the coordinate hashmap's slots and the MPHF's levels. This
//! module is the one definition of the constants and the byte-folding loop.

/// The FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a hash at the offset basis.
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET_BASIS)
    }

    /// Folds one byte into the state.
    pub(crate) fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ byte as u64).wrapping_mul(FNV_PRIME);
    }

    /// Folds a byte slice into the state.
    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a signed 32-bit word (little-endian bytes) into the state.
    pub(crate) fn write_i32(&mut self, word: i32) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// The current hash value.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        let mut h = Fnv1a::new();
        assert_eq!(h.finish(), FNV_OFFSET_BASIS);
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn i32_matches_per_byte_folding() {
        let mut a = Fnv1a::new();
        a.write_i32(-12345);
        let mut b = Fnv1a::new();
        b.write_bytes(&(-12345i32).to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
