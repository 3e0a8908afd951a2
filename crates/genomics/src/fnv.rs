//! FNV-1a (64-bit): the one hash the workspace derives stable values from —
//! accession content seeds, modeled-workload draws, campaign digests and the
//! checkpoint checksum. Tests pin what each of those produces, so the constants
//! and the byte order here never change.

/// The FNV-1a 64-bit offset basis: the state a fresh hash starts from.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a of `bytes`, starting from the state `offset`: [`OFFSET`] for a fresh
/// hash, a previous call's result to continue one over a stream of slices, or a
/// basis mixed with a seed.
#[inline]
pub fn fnv1a(offset: u64, bytes: &[u8]) -> u64 {
    fnv1a_with_prime(offset, PRIME, bytes)
}

/// [`fnv1a`] with another multiplier: for a value pinned before it was computed
/// with the standard [`PRIME`], which must keep the multiplier it was made with.
#[inline]
pub fn fnv1a_with_prime(offset: u64, prime: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(offset, |h, &b| (h ^ u64::from(b)).wrapping_mul(prime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors_and_chains() {
        assert_eq!(fnv1a(OFFSET, b""), OFFSET);
        assert_eq!(fnv1a(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(OFFSET, b"foo"), b"bar"), fnv1a(OFFSET, b"foobar"));
    }
}
