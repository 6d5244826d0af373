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

    fn batch_inverse_agrees(xs in prop::collection::vec(arb_goldilocks(), 1..50)) {
        let xs: Vec<Goldilocks> = xs.into_iter().filter(|x| !x.is_zero()).collect();
        let invs = batch_inverse(&xs);
        for (x, inv) in xs.iter().zip(&invs) {
            prop_assert_eq!(*x * *inv, Goldilocks::ONE);
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
