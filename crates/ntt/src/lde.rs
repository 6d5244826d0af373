//! Low-degree extension (LDE), step ② of the FRI flow (paper Fig. 1).
//!
//! Given a degree-`< N` polynomial, the LDE evaluates it on a coset of a
//! subgroup `k·N` elements long, where `k = 2^rate_bits` is the blowup
//! factor (at least 8 in Plonky2, 2 in Starky). The coset shift keeps the
//! evaluation domain disjoint from the original trace domain, which the
//! protocol needs to divide by the vanishing polynomial safely.

use unizk_field::{reverse_index_bits, Field, PrimeField64};

use crate::radix2::{coset_ntt_nr_zero_tail, intt_nn};

/// Extends coefficients to evaluations on the coset `shift·H'` of size
/// `coeffs.len() << rate_bits`, natural order.
///
/// # Panics
///
/// Panics if `coeffs.len()` is not a power of two.
pub fn lde<F: PrimeField64>(coeffs: &[F], rate_bits: usize, shift: F) -> Vec<F> {
    let mut padded = lde_nr(coeffs, rate_bits, shift);
    reverse_index_bits(&mut padded);
    padded
}

/// Extends coefficients to evaluations on the coset, **bit-reversed** order.
///
/// This is the exact `NTT^NR` layout that FRI commits to Merkle trees in
/// (paper Fig. 1 step ② + ③), so leaves of the same query index sit together.
///
/// # Panics
///
/// Panics if `coeffs.len()` is not a power of two.
pub fn lde_nr<F: PrimeField64>(coeffs: &[F], rate_bits: usize, shift: F) -> Vec<F> {
    let mut padded = zero_pad(coeffs, rate_bits);
    coset_ntt_nr_zero_tail(&mut padded, coeffs.len(), shift);
    padded
}

/// Extends *values on the subgroup H* (not coefficients): performs the
/// `iNTT^NN` first (step ① of the FRI flow), then the coset LDE.
///
/// # Panics
///
/// Panics if `values.len()` is not a power of two.
pub fn lde_of_values<F: PrimeField64>(values: &[F], rate_bits: usize, shift: F) -> Vec<F> {
    let mut coeffs = values.to_vec();
    intt_nn(&mut coeffs);
    lde(&coeffs, rate_bits, shift)
}

fn zero_pad<F: Field>(coeffs: &[F], rate_bits: usize) -> Vec<F> {
    let n = coeffs.len();
    let mut padded = Vec::with_capacity(n << rate_bits);
    padded.extend_from_slice(coeffs);
    padded.resize(n << rate_bits, F::ZERO);
    padded
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_testkit::rng::TestRng as StdRng;
    use unizk_field::{bit_reverse, log2_strict, Goldilocks, Polynomial, PrimeField64};

    type F = Goldilocks;

    #[test]
    fn lde_agrees_with_direct_evaluation() {
        let mut rng = StdRng::seed_from_u64(200);
        let n = 16;
        let rate_bits = 3;
        let shift = F::MULTIPLICATIVE_GENERATOR;
        let coeffs: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
        let poly = Polynomial::from_coeffs(coeffs.clone());

        let ext = lde(&coeffs, rate_bits, shift);
        let big_n = n << rate_bits;
        let omega = F::primitive_root_of_unity(log2_strict(big_n));
        for (j, &v) in ext.iter().enumerate() {
            let x = shift * omega.exp_u64(j as u64);
            assert_eq!(v, poly.eval(x), "j={j}");
        }
    }

    #[test]
    fn lde_nr_is_bit_reversed_lde() {
        let mut rng = StdRng::seed_from_u64(201);
        let n = 8;
        let rate_bits = 3;
        let shift = F::MULTIPLICATIVE_GENERATOR;
        let coeffs: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
        let natural = lde(&coeffs, rate_bits, shift);
        let reversed = lde_nr(&coeffs, rate_bits, shift);
        let bits = log2_strict(n << rate_bits);
        for i in 0..natural.len() {
            assert_eq!(reversed[i], natural[bit_reverse(i, bits)]);
        }
    }

    #[test]
    fn lde_of_values_preserves_low_degree() {
        // LDE of trace values must agree with the interpolating polynomial.
        let mut rng = StdRng::seed_from_u64(202);
        let n = 8usize;
        let shift = F::MULTIPLICATIVE_GENERATOR;
        let coeffs: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
        let poly = Polynomial::from_coeffs(coeffs);
        // Values on H.
        let omega = F::primitive_root_of_unity(log2_strict(n));
        let values: Vec<F> = (0..n)
            .map(|j| poly.eval(omega.exp_u64(j as u64)))
            .collect();

        let ext = lde_of_values(&values, 1, shift);
        let big_omega = F::primitive_root_of_unity(log2_strict(2 * n));
        for (j, &v) in ext.iter().enumerate() {
            let x = shift * big_omega.exp_u64(j as u64);
            assert_eq!(v, poly.eval(x));
        }
    }

    #[test]
    fn blowup_factor_one_is_just_coset_eval() {
        let coeffs: Vec<F> = (1..=4u64).map(F::from_u64).collect();
        let ext = lde(&coeffs, 0, F::ONE);
        let mut direct = coeffs;
        crate::radix2::ntt_nn(&mut direct);
        assert_eq!(ext, direct);
    }
}
