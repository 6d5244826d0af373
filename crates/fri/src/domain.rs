//! Evaluation domains: the coset `g·⟨ω⟩` in bit-reversed storage order,
//! computed once per proof.
//!
//! Every polynomial the prover commits to lives on a multiplicative coset
//! whose values are stored bit-reversed, and each FRI fold squares that
//! coset. The prover's per-position loops (quotients, the combined FRI
//! witness, every fold layer) read whole tables built here at one field
//! multiplication per entry; [`FoldDomain::point`] is the single-index form
//! — a root lookup plus a `log n`-bit power — for the verifiers, which
//! touch a handful of positions per query, and for tests.
//!
//! Tables live for one proof (≈ 0.3 ms for the 2^16 points of a 2^15-row
//! Starky trace); there is no process-wide cache.

use unizk_field::{bit_reverse, log2_strict, Field, Goldilocks, PrimeField64};

use crate::batch::coset_shift;

/// A multiplicative coset `shift·H` of size `size`, with values stored in
/// bit-reversed order: the LDE domain, and every domain FRI folds it into.
/// Folding squares the domain: `shift → shift²`, `size → size/2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FoldDomain<F: PrimeField64 = Goldilocks> {
    /// Number of points (a power of two).
    pub size: usize,
    /// The coset representative `shift`; the points are `shift·ω^t`.
    pub shift: F,
}

impl<F: PrimeField64> FoldDomain<F> {
    /// The initial LDE domain of size `lde_size`.
    pub fn initial(lde_size: usize) -> Self {
        Self {
            size: lde_size,
            shift: coset_shift::<F>(),
        }
    }

    /// The domain after one arity-2 fold.
    pub fn fold(&self) -> Self {
        Self {
            size: self.size / 2,
            shift: self.shift.square(),
        }
    }

    fn omega(&self) -> F {
        F::primitive_root_of_unity(log2_strict(self.size))
    }

    /// The point stored at bit-reversed position `pos`.
    pub fn point(&self, pos: usize) -> F {
        let bits = log2_strict(self.size);
        self.shift * self.omega().exp_u64(bit_reverse(pos, bits) as u64)
    }

    /// Every point, in storage order: `points()[i] == point(i)`.
    pub fn points(&self) -> Vec<F> {
        bit_reversed_powers(self.shift, self.omega(), self.size)
    }

    /// `1 / point(2k)` for every fold pair `k < size/2`: the pair
    /// `(point(2k), point(2k+1) = −point(2k))` folds onto `point(2k)²`.
    ///
    /// The inverses of a coset are the coset of the inverses —
    /// `shift⁻¹·ω^{−rev(2k)}` — so they are built like the points, with two
    /// scalar inversions and no batch inversion.
    pub fn pair_inverses(&self) -> Vec<F> {
        bit_reversed_powers(self.shift.inverse(), self.omega().inverse(), self.size / 2)
    }

    /// `Z_H(x) = x^n − 1` over the domain, for the subgroup `H` of size
    /// `n`. `x^n` only depends on `rev(i) mod (size/n)`, i.e. on the top
    /// bits of the storage position, so the table has `size/n` entries and
    /// position `i` reads entry `i / n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not divide the domain size.
    pub fn vanishing(&self, n: usize) -> Vec<F> {
        assert!(self.size.is_multiple_of(n), "subgroup size must divide the domain");
        let cosets = self.size / n;
        let omega_n = F::primitive_root_of_unity(log2_strict(cosets));
        let mut table = bit_reversed_powers(self.shift.exp_u64(n as u64), omega_n, cosets);
        for z in &mut table {
            *z -= F::ONE;
        }
        table
    }
}

/// The point of the standard coset LDE domain of size `lde_size` stored at
/// bit-reversed position `index`.
pub fn domain_point<F: PrimeField64>(lde_size: usize, index: usize) -> F {
    FoldDomain::initial(lde_size).point(index)
}

/// `shift·gen^{rev(k)}` for `k < count`, with `rev` over `log2(count)`
/// bits, at one multiplication per entry: bit `j` of `k` contributes the
/// factor `gen^{2^{bits−1−j}}`, so each level doubles the table by scaling
/// what is already there.
fn bit_reversed_powers<F: Field>(shift: F, gen: F, count: usize) -> Vec<F> {
    let bits = log2_strict(count);
    let mut steps = Vec::with_capacity(bits);
    let mut step = gen;
    for _ in 0..bits {
        steps.push(step);
        step = step.square();
    }
    let mut out = Vec::with_capacity(count);
    out.push(shift);
    for step in steps.into_iter().rev() {
        for i in 0..out.len() {
            out.push(out[i] * step);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::KoalaBear;

    #[test]
    fn fold_domain_squares() {
        let d = FoldDomain::<Goldilocks>::initial(64);
        let f = d.fold();
        assert_eq!(f.size, 32);
        assert_eq!(f.shift, coset_shift::<Goldilocks>().square());
        // The folded point at position k is the square of the parent pair's
        // point.
        for k in 0..32 {
            assert_eq!(f.point(k), d.point(2 * k).square());
        }
    }

    #[test]
    fn pair_points_are_negatives() {
        let d = FoldDomain::<Goldilocks>::initial(64);
        for k in 0..32 {
            assert_eq!(d.point(2 * k + 1), -d.point(2 * k));
        }
    }

    #[test]
    fn koalabear_pair_points_are_negatives() {
        let d = FoldDomain::<KoalaBear>::initial(64);
        for k in 0..32 {
            assert_eq!(d.point(2 * k + 1), -d.point(2 * k));
            assert_eq!(d.fold().point(k), d.point(2 * k).square());
        }
    }

    /// Every table against the single-index forms (a root lookup and a
    /// power per entry) it replaces in the prover loops.
    fn tables_match_single_index_forms<F: PrimeField64>() {
        for bits in 1..=14 {
            let size = 1usize << bits;
            let domain = FoldDomain::<F>::initial(size);
            let points = domain.points();
            assert_eq!(points.len(), size);
            for (i, &x) in points.iter().enumerate() {
                assert_eq!(x, domain_point::<F>(size, i), "2^{bits}, position {i}");
            }

            // Two folds down: the table of the folded domain, and the pair
            // inverses of every layer.
            let mut layer = domain;
            for depth in 0..2.min(bits) {
                let inverses = layer.pair_inverses();
                assert_eq!(inverses.len(), layer.size / 2);
                for (k, &inv) in inverses.iter().enumerate() {
                    assert_eq!(inv, layer.point(2 * k).inverse(), "2^{bits}, depth {depth}, pair {k}");
                }
                let folded = layer.fold().points();
                assert_eq!(folded.len(), layer.size / 2);
                for (k, &y) in folded.iter().enumerate() {
                    assert_eq!(y, layer.fold().point(k), "2^{bits}, depth {depth}, position {k}");
                    assert_eq!(y, layer.point(2 * k).square());
                }
                layer = layer.fold();
            }

            for blowup in [2usize, 8] {
                if blowup > size {
                    continue;
                }
                let n = size / blowup;
                let zh = domain.vanishing(n);
                assert_eq!(zh.len(), blowup);
                for (i, &x) in points.iter().enumerate() {
                    assert_eq!(zh[i / n], x.exp_u64(n as u64) - F::ONE, "2^{bits}, blowup {blowup}, position {i}");
                }
            }
        }
    }

    #[test]
    fn goldilocks_tables_match_single_index_forms() {
        tables_match_single_index_forms::<Goldilocks>();
    }

    #[test]
    fn koalabear_tables_match_single_index_forms() {
        tables_match_single_index_forms::<KoalaBear>();
    }

    #[test]
    fn vanishing_of_the_whole_domain_is_one_entry() {
        let domain = FoldDomain::<Goldilocks>::initial(16);
        let zh = domain.vanishing(16);
        assert_eq!(zh, vec![coset_shift::<Goldilocks>().exp_u64(16) - Goldilocks::ONE]);
    }
}
