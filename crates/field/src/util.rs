//! Small utilities shared by the NTT and protocol layers: bit-reversal
//! permutations, strict log2, and batch inversion.

use crate::traits::Field;

/// Reverses the lowest `bits` bits of `index`.
///
/// # Example
///
/// ```
/// use unizk_field::bit_reverse;
/// assert_eq!(bit_reverse(0b001, 3), 0b100);
/// assert_eq!(bit_reverse(0b110, 3), 0b011);
/// ```
#[inline]
pub fn bit_reverse(index: usize, bits: usize) -> usize {
    if bits == 0 {
        return 0;
    }
    index.reverse_bits() >> (usize::BITS as usize - bits)
}

/// Permutes `values` in place into bit-reversed index order.
///
/// This is the `N`↔`R` order change that the paper's `NTT^NR` / `iNTT^NN`
/// variants are defined by (§5.1).
///
/// # Panics
///
/// Panics if `values.len()` is not a power of two.
pub fn reverse_index_bits<T>(values: &mut [T]) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    let bits = log2_strict(n);
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if i < j {
            values.swap(i, j);
        }
    }
}

/// `log2(n)` for exact powers of two.
///
/// # Panics
///
/// Panics if `n` is zero or not a power of two.
#[inline]
pub fn log2_strict(n: usize) -> usize {
    assert!(n.is_power_of_two(), "{n} is not a power of two");
    n.trailing_zeros() as usize
}

/// `1, base, base², …`: the first `count` powers, one product each.
///
/// # Example
///
/// ```
/// use unizk_field::{powers, Field, Goldilocks};
/// let three = Goldilocks::from_u64(3);
/// assert_eq!(powers(three, 3), vec![Goldilocks::ONE, three, three * three]);
/// ```
pub fn powers<F: Field>(base: F, count: usize) -> Vec<F> {
    let mut out = Vec::with_capacity(count);
    let mut pow = F::ONE;
    for _ in 0..count {
        out.push(pow);
        pow *= base;
    }
    out
}

/// Independent prefix-product chains [`batch_inverse`] interleaves: element
/// `i` belongs to chain `i mod CHAINS`, so consecutive products of a sweep
/// never wait on each other and the sweeps run at multiplier throughput
/// instead of multiplier latency (Plonky2's `batch_multiplicative_inverse`
/// uses the same width). Over 2^18 Goldilocks elements on an AVX-512 host:
/// 14.8 ns per element with one chain, 11.5 with two, 9.4 with four, 9.7
/// with eight; over `KbExt4` two to eight chains tie at ≈ 35 ns against 43
/// with one (EXPERIMENTS.md, "The polynomial layer: products per LDE
/// position").
const BATCH_INVERSE_CHAINS: usize = 4;

/// Computes the multiplicative inverse of every element using Montgomery's
/// trick over four interleaved chains (`BATCH_INVERSE_CHAINS`): one field
/// inversion plus about `3n` multiplications.
///
/// Used by the quotient computations and the FRI combination, where
/// millions of per-row divisions would otherwise dominate (paper §5.4,
/// Eq. 1).
///
/// # Panics
///
/// Panics if any element is zero.
pub fn batch_inverse<F: Field>(values: &[F]) -> Vec<F> {
    const W: usize = BATCH_INVERSE_CHAINS;
    let n = values.len();
    if n == 0 {
        return Vec::new();
    }
    // prefix[i]: the product of values[i], values[i − W], … (its chain).
    let mut prefix = Vec::with_capacity(n);
    let mut totals = [F::ONE; W];
    for row in values.chunks(W) {
        for (total, &v) in totals.iter_mut().zip(row) {
            assert!(!v.is_zero(), "batch_inverse of zero element");
            *total *= v;
            prefix.push(*total);
        }
    }
    // Invert the chains' totals together, then sweep every chain backwards:
    // `inv[c]` is the inverse of chain c's prefix ending at the current row.
    let mut inv = invert_four(totals);
    let mut out = vec![F::ZERO; n];
    for start in (W..n).step_by(W).rev() {
        for (c, i) in (start..n.min(start + W)).enumerate() {
            out[i] = inv[c] * prefix[i - W];
            inv[c] *= values[i];
        }
    }
    let first = n.min(W);
    out[..first].copy_from_slice(&inv[..first]);
    out
}

/// The inverses of four elements at one inversion and nine products.
fn invert_four<F: Field>([a, b, c, d]: [F; BATCH_INVERSE_CHAINS]) -> [F; BATCH_INVERSE_CHAINS] {
    let (ab, cd) = (a * b, c * d);
    let inv = (ab * cd).inverse();
    let (ab_inv, cd_inv) = (inv * cd, inv * ab);
    [ab_inv * b, ab_inv * a, cd_inv * d, cd_inv * c]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goldilocks::Goldilocks;
    use crate::traits::PrimeField64;
    use unizk_testkit::rng::TestRng as StdRng;

    #[test]
    fn bit_reverse_small() {
        assert_eq!(bit_reverse(0, 0), 0);
        assert_eq!(bit_reverse(0, 4), 0);
        assert_eq!(bit_reverse(1, 4), 8);
        assert_eq!(bit_reverse(0b1011, 4), 0b1101);
    }

    #[test]
    fn bit_reverse_is_involution() {
        for bits in 1..10 {
            for i in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(i, bits), bits), i);
            }
        }
    }

    #[test]
    fn reverse_index_bits_size8() {
        let mut v: Vec<usize> = (0..8).collect();
        reverse_index_bits(&mut v);
        assert_eq!(v, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn reverse_index_bits_is_involution() {
        let mut v: Vec<usize> = (0..64).collect();
        let orig = v.clone();
        reverse_index_bits(&mut v);
        reverse_index_bits(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn reverse_index_bits_rejects_non_power_of_two() {
        let mut v = vec![1, 2, 3];
        reverse_index_bits(&mut v);
    }

    #[test]
    fn log2_strict_values() {
        assert_eq!(log2_strict(1), 0);
        assert_eq!(log2_strict(2), 1);
        assert_eq!(log2_strict(1 << 20), 20);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn log2_strict_rejects_zero() {
        let _ = log2_strict(0);
    }

    #[test]
    fn batch_inverse_matches_individual() {
        use crate::traits::Field;
        let mut rng = StdRng::seed_from_u64(21);
        let xs: Vec<Goldilocks> = (0..100)
            .map(|_| loop {
                let x = Goldilocks::random(&mut rng);
                if !x.is_zero() {
                    break x;
                }
            })
            .collect();
        let invs = batch_inverse(&xs);
        for (x, inv) in xs.iter().zip(&invs) {
            assert_eq!(*x * *inv, Goldilocks::ONE);
        }
    }

    #[test]
    fn batch_inverse_empty_and_single() {
        use crate::traits::Field;
        assert!(batch_inverse::<Goldilocks>(&[]).is_empty());
        let one = batch_inverse(&[Goldilocks::from_u64(4)]);
        assert_eq!(one[0] * Goldilocks::from_u64(4), Goldilocks::ONE);
    }

    #[test]
    #[should_panic(expected = "zero element")]
    fn batch_inverse_rejects_zero() {
        use crate::traits::Field;
        let _ = batch_inverse(&[Goldilocks::ONE, Goldilocks::ZERO]);
    }
}
