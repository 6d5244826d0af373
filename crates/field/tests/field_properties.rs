//! Property-based tests for the field layer: ring/field axioms for
//! Goldilocks and Ext2, and algebraic identities for the polynomial type.

use unizk_testkit::prop::prelude::*;
use unizk_testkit::prop::CaseResult;
use unizk_field::{
    batch_inverse, Ext2, ExtensionOf, Field, Goldilocks, KbExt4, KoalaBear, Polynomial, PrimeField64,
};

fn arb_goldilocks() -> impl Strategy<Value = Goldilocks> {
    any::<u64>().prop_map(Goldilocks::from_u64)
}

fn arb_ext2() -> impl Strategy<Value = Ext2> {
    (arb_goldilocks(), arb_goldilocks()).prop_map(|(a, b)| Ext2::new(a, b))
}

fn arb_poly(max_len: usize) -> impl Strategy<Value = Polynomial<Goldilocks>> {
    prop::collection::vec(arb_goldilocks(), 0..max_len).prop_map(Polynomial::from_coeffs)
}

/// `eval_at_powers` against the Horner walk it replaces in `fri.open`, over
/// a table `1, ζ, …, ζ^block`: the polynomial in one block or in many, the
/// last one ragged; the zero polynomial with no coefficients and with
/// `coeffs.len()` zeros; and a shorter polynomial against the same table.
fn powers_agree_with_horner<F: PrimeField64, E: ExtensionOf<F>>(
    coeffs: &[u64],
    zeta: &[u64],
    block: usize,
) -> CaseResult {
    let limbs: Vec<F> = zeta.iter().map(|&z| F::from_u64(z)).collect();
    let zeta = E::from_base_slice(&limbs[..E::DEGREE]);
    let powers: Vec<E> = (0..=block).map(|i| zeta.exp_u64(i as u64)).collect();
    let random = Polynomial::from_coeffs(coeffs.iter().map(|&c| F::from_u64(c)).collect());
    let zeros = Polynomial::from_coeffs(vec![F::ZERO; coeffs.len()]);
    prop_assert_eq!(zeros.eval_at_powers(&powers), E::ZERO);
    prop_assert_eq!(random.eval_at_powers(&powers), random.eval_ext(zeta));
    let shorter = Polynomial::from_coeffs(random.coeffs()[..coeffs.len() / 2].to_vec());
    prop_assert_eq!(shorter.eval_at_powers(&powers), shorter.eval_ext(zeta));
    Ok(())
}

/// Base elements from words, zero replaced by one (zeros are placed on
/// purpose by [`zero_anywhere_panics`]).
fn nonzero_base<F: PrimeField64>(words: &[u64]) -> Vec<F> {
    words
        .iter()
        .map(|&w| F::from_u64(w))
        .map(|x| if x.is_zero() { F::ONE } else { x })
        .collect()
}

/// Extension elements from `DEGREE` words each, zero replaced by one.
fn nonzero_ext<F: PrimeField64, E: ExtensionOf<F>>(words: &[u64]) -> Vec<E> {
    words
        .chunks_exact(E::DEGREE)
        .map(|limbs| E::from_base_slice(&nonzero_base::<F>(limbs)))
        .collect()
}

/// `batch_inverse` against `inverse()` element by element, then with a zero
/// written at every position in turn — each of the interleaved chains, the
/// first and the ragged last row — which must still panic with the message
/// the single-chain version had.
fn batch_inverse_is_elementwise<F: Field>(xs: &[F]) -> CaseResult {
    let invs = batch_inverse(xs);
    prop_assert_eq!(invs.len(), xs.len());
    for (x, inv) in xs.iter().zip(&invs) {
        prop_assert_eq!(*inv, x.inverse());
    }
    Ok(())
}

fn zero_anywhere_panics<F: Field>(xs: &[F]) {
    for at in 0..xs.len() {
        let mut with_zero = xs.to_vec();
        with_zero[at] = F::ZERO;
        let payload =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| batch_inverse(&with_zero)))
                .expect_err("a zero element must panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default();
        assert_eq!(
            message,
            "batch_inverse of zero element",
            "length {}, zero at {at}",
            xs.len()
        );
    }
}

/// Lengths 0–9 and 4k ± 1 up to 65: every shape of the four-chain layout
/// (fewer elements than chains, a full last row, a ragged one).
fn chain_layout_lengths() -> impl Iterator<Item = usize> {
    (0..10).chain((3..=16).flat_map(|k| [4 * k - 1, 4 * k + 1]))
}

#[test]
fn batch_inverse_is_elementwise_at_every_chain_layout() {
    let words: Vec<u64> = (0..4 * 66u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed)
        .collect();
    for len in chain_layout_lengths() {
        let words = &words[..4 * len];
        let gl = nonzero_base::<Goldilocks>(&words[..len]);
        let kb = nonzero_base::<KoalaBear>(&words[..len]);
        let e2 = nonzero_ext::<Goldilocks, Ext2>(&words[..2 * len]);
        let e4 = nonzero_ext::<KoalaBear, KbExt4>(words);
        batch_inverse_is_elementwise(&gl)
            .unwrap_or_else(|e| panic!("Goldilocks, length {len}: {e:?}"));
        batch_inverse_is_elementwise(&kb)
            .unwrap_or_else(|e| panic!("KoalaBear, length {len}: {e:?}"));
        batch_inverse_is_elementwise(&e2).unwrap_or_else(|e| panic!("Ext2, length {len}: {e:?}"));
        batch_inverse_is_elementwise(&e4).unwrap_or_else(|e| panic!("KbExt4, length {len}: {e:?}"));
        zero_anywhere_panics(&gl);
        zero_anywhere_panics(&kb);
        zero_anywhere_panics(&e2);
        zero_anywhere_panics(&e4);
    }
}

prop! {
    #![cases(32)]
    fn batch_inverse_agrees(
        words in prop::collection::vec(any::<u64>(), 0..1200),
    ) {
        let len = words.len() / 4;
        batch_inverse_is_elementwise(&nonzero_base::<Goldilocks>(&words[..len]))?;
        batch_inverse_is_elementwise(&nonzero_base::<KoalaBear>(&words[..len]))?;
        batch_inverse_is_elementwise(&nonzero_ext::<Goldilocks, Ext2>(&words[..2 * len]))?;
        batch_inverse_is_elementwise(&nonzero_ext::<KoalaBear, KbExt4>(&words[..4 * len]))?;
    }
}

prop! {
    fn eval_at_powers_is_eval_ext_over_both_extensions(
        coeffs in prop::collection::vec(any::<u64>(), 0..40),
        zeta in prop::collection::vec(any::<u64>(), 4),
        block in 1usize..48,
    ) {
        powers_agree_with_horner::<Goldilocks, Ext2>(&coeffs, &zeta, block)?;
        powers_agree_with_horner::<KoalaBear, KbExt4>(&coeffs, &zeta, block)?;
    }

    fn goldilocks_add_commutes(a in arb_goldilocks(), b in arb_goldilocks()) {
        prop_assert_eq!(a + b, b + a);
    }

    fn goldilocks_mul_commutes(a in arb_goldilocks(), b in arb_goldilocks()) {
        prop_assert_eq!(a * b, b * a);
    }

    fn goldilocks_mul_associates(
        a in arb_goldilocks(), b in arb_goldilocks(), c in arb_goldilocks()
    ) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    fn goldilocks_distributes(
        a in arb_goldilocks(), b in arb_goldilocks(), c in arb_goldilocks()
    ) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    fn goldilocks_add_inverse(a in arb_goldilocks()) {
        prop_assert_eq!(a + (-a), Goldilocks::ZERO);
        prop_assert_eq!(a - a, Goldilocks::ZERO);
    }

    fn goldilocks_mul_inverse(a in arb_goldilocks()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse(), Goldilocks::ONE);
        }
    }

    fn goldilocks_square_matches_mul(a in arb_goldilocks()) {
        prop_assert_eq!(a.square(), a * a);
        prop_assert_eq!(a.double(), a + a);
    }

    fn goldilocks_exp_is_homomorphic(a in arb_goldilocks(), e1 in 0u64..64, e2 in 0u64..64) {
        prop_assert_eq!(a.exp_u64(e1) * a.exp_u64(e2), a.exp_u64(e1 + e2));
    }

    fn ext2_field_axioms(a in arb_ext2(), b in arb_ext2(), c in arb_ext2()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    fn ext2_inverse(a in arb_ext2()) {
        if a != Ext2::ZERO {
            prop_assert_eq!(a * a.inverse(), Ext2::ONE);
        }
    }

    fn poly_mul_eval_homomorphism(
        a in arb_poly(12), b in arb_poly(12), x in arb_goldilocks()
    ) {
        let prod = a.mul_naive(&b);
        prop_assert_eq!(prod.eval(x), a.eval(x) * b.eval(x));
    }

    fn poly_add_eval_homomorphism(
        a in arb_poly(12), b in arb_poly(12), x in arb_goldilocks()
    ) {
        let sum = &a + &b;
        prop_assert_eq!(sum.eval(x), a.eval(x) + b.eval(x));
    }

    fn poly_divide_by_linear_roundtrip(q in arb_poly(10), a in arb_goldilocks()) {
        let p = q.mul_naive(&Polynomial::x_minus(a));
        let q2 = p.divide_by_linear(a);
        let x = Goldilocks::from_u64(987654321);
        prop_assert_eq!(q2.eval(x), q.eval(x));
    }
}
