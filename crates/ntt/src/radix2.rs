//! In-place radix-2 NTT kernels (DIF and DIT dataflows) and their coset /
//! bit-reverse-order variants.
//!
//! The paper's hardware supports both DIT and DIF dataflows (§5.1); here DIF
//! produces bit-reversed output from natural input (`NTT^NR`) and DIT
//! consumes bit-reversed input producing natural output (`NTT^RN`), exactly
//! the combinations the FRI pipeline needs.
//!
//! # Twiddles and threads
//!
//! Twiddle tables come from the process-global [`crate::twiddle`] cache, so
//! repeated transforms of one size pay the table build exactly once.
//!
//! Every transform here runs serially on the calling thread, its stages on
//! lane rows ([`unizk_field::lanes`]). The prover's parallelism is across
//! independent transforms, as in Plonky2: a batch commitment runs one
//! column per worker and the quotients one challenge round per worker, so
//! no transform depends on the thread count and neither do its results.
//! The chip decomposes large transforms only because a pipeline has a
//! fixed size (§5.1, [`crate::decompose`]).

use unizk_field::lanes::{self, MAX_LANES};
use unizk_field::{log2_strict, reverse_index_bits, Field, LaneKernel, Lanes, PrimeField64};

use crate::twiddle;

/// Records one transform in the trace layer: total count, element volume,
/// and butterfly volume (`n/2·log₂ n`, the unit Fig. 9's NTT speedups are
/// normalized over). One bump per transform, so the cost is negligible
/// even for the smallest sizes.
///
/// The counters count the *logical* transform of `n` points, not the
/// butterflies executed: [`coset_ntt_nr_zero_tail`] skips the work on a
/// zero tail and bumps them as the full transform, and the NTT node of the
/// chip graph (`unizk_core::compiler`) costs the same logical transform —
/// which is what lets `CONTRACT.json` hold the two to one count.
pub(crate) fn count_transform(n: usize) {
    use unizk_testkit::trace;
    trace::counter("ntt.transforms", 1);
    trace::counter("ntt.elements", n as u64);
    trace::counter("ntt.butterflies", (n as u64 / 2) * log2_strict(n) as u64);
}

/// DIF stage loop over `values`, using `tables[s]` for the stage
/// with half-size `values.len() / 2^(s+1)`.
///
/// Because a stage's twiddles depend only on the butterfly index `j` within
/// a block (never on the block), a length-`L` *segment* of a larger
/// transform runs its remaining stages with exactly the tail `&tables[s..]`
/// of the full table set — the property [`ZeroTailDif`] relies on when it
/// finishes every `degree`-long segment as a transform of its own.
fn dif_stages<F: PrimeField64>(values: &mut [F], tables: &[Vec<F>]) {
    F::with_lanes(DifStages { values, tables });
}

/// DIT stage loop over `values` (mirror of [`dif_stages`]).
fn dit_stages<F: PrimeField64>(values: &mut [F], tables: &[Vec<F>]) {
    F::with_lanes(DitStages { values, tables });
}

/// The kernel of [`dif_stages`]: stage by stage, each on rows of `L`
/// ([`dif_stage`]).
struct DifStages<'a, F> {
    values: &'a mut [F],
    tables: &'a [Vec<F>],
}

impl<F: Field> LaneKernel<F> for DifStages<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        let mut block = self.values.len();
        for tw in self.tables {
            if block < 2 {
                break;
            }
            dif_stage::<L>(self.values, block, tw);
            block /= 2;
        }
    }
}

/// The kernel of [`dit_stages`].
struct DitStages<'a, F> {
    values: &'a mut [F],
    tables: &'a [Vec<F>],
}

impl<F: Field> LaneKernel<F> for DitStages<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        let n = self.values.len();
        let mut block: usize = 2;
        for tw in self.tables.iter().rev() {
            if block > n || block == 0 {
                break;
            }
            dit_stage::<L>(self.values, block, tw);
            block *= 2;
        }
    }
}

/// One DIF stage over every `block`-long block of `values` (none below 2).
/// Where a half-block is shorter than a row, two rows are interleaved so
/// that one holds the blocks' first halves and the other their second
/// halves, and the stage runs on rows all the same.
#[inline(always)]
fn dif_stage<L: Lanes>(values: &mut [L::Scalar], block: usize, tw: &[L::Scalar]) {
    if block < 2 {
        return;
    }
    let half = block / 2;
    let mut rest = values;
    if let Some(tw) = repeated_twiddles::<L>(tw, half) {
        let mut pairs = rest.chunks_exact_mut(2 * L::WIDTH);
        for pair in pairs.by_ref() {
            let (x, y) = pair.split_at_mut(L::WIDTH);
            let (a, b) = L::load(x).interleave(L::load(y), half);
            let (a, b) = (a + b).interleave((a - b) * tw, half);
            a.store(x);
            b.store(y);
        }
        rest = pairs.into_remainder();
    }
    for block in rest.chunks_exact_mut(block) {
        let (lo, hi) = block.split_at_mut(block.len() / 2);
        dif_butterflies::<L>(lo, hi, tw);
    }
}

/// One DIT stage (mirror of [`dif_stage`]).
#[inline(always)]
fn dit_stage<L: Lanes>(values: &mut [L::Scalar], block: usize, tw: &[L::Scalar]) {
    if block < 2 {
        return;
    }
    let half = block / 2;
    let mut rest = values;
    if let Some(tw) = repeated_twiddles::<L>(tw, half) {
        let mut pairs = rest.chunks_exact_mut(2 * L::WIDTH);
        for pair in pairs.by_ref() {
            let (x, y) = pair.split_at_mut(L::WIDTH);
            let (a, b) = L::load(x).interleave(L::load(y), half);
            let b = b * tw;
            let (a, b) = (a + b).interleave(a - b, half);
            a.store(x);
            b.store(y);
        }
        rest = pairs.into_remainder();
    }
    for block in rest.chunks_exact_mut(block) {
        let (lo, hi) = block.split_at_mut(block.len() / 2);
        dit_butterflies::<L>(lo, hi, tw);
    }
}

/// For a half-size below one row, the row of twiddles an interleaved
/// stage multiplies by: `tw[0..half]` repeated across the lanes.
#[inline(always)]
fn repeated_twiddles<L: Lanes>(tw: &[L::Scalar], half: usize) -> Option<L> {
    if half == 0 || half >= L::WIDTH {
        return None;
    }
    let mut row = [L::Scalar::ZERO; MAX_LANES];
    for (l, t) in row.iter_mut().take(L::WIDTH).enumerate() {
        *t = *tw.get(l % half)?;
    }
    Some(L::load(&row))
}

/// `lo[j], hi[j] ← lo[j] + hi[j], (lo[j] − hi[j])·tw[j]` over the length
/// of `lo`: whole rows of `L`, then the rest one lane at a time.
#[inline(always)]
fn dif_butterflies<L: Lanes>(lo: &mut [L::Scalar], hi: &mut [L::Scalar], tw: &[L::Scalar]) {
    let w = L::WIDTH;
    for ((a, b), t) in lo.chunks_exact_mut(w).zip(hi.chunks_exact_mut(w)).zip(tw.chunks_exact(w)) {
        let (x, y) = (L::load(a), L::load(b));
        (x + y).store(a);
        ((x - y) * L::load(t)).store(b);
    }
    let done = lo.len() / w * w;
    for ((a, b), &t) in lo.iter_mut().zip(hi.iter_mut()).zip(tw).skip(done) {
        let (x, y) = (*a, *b);
        *a = x + y;
        *b = (x - y) * t;
    }
}

/// `lo[j], hi[j] ← lo[j] + hi[j]·tw[j], lo[j] − hi[j]·tw[j]` (mirror of
/// [`dif_butterflies`]).
#[inline(always)]
fn dit_butterflies<L: Lanes>(lo: &mut [L::Scalar], hi: &mut [L::Scalar], tw: &[L::Scalar]) {
    let w = L::WIDTH;
    for ((a, b), t) in lo.chunks_exact_mut(w).zip(hi.chunks_exact_mut(w)).zip(tw.chunks_exact(w)) {
        let (x, y) = (L::load(a), L::load(b) * L::load(t));
        (x + y).store(a);
        (x - y).store(b);
    }
    let done = lo.len() / w * w;
    for ((a, b), &t) in lo.iter_mut().zip(hi.iter_mut()).zip(tw).skip(done) {
        let (x, y) = (*a, *b * t);
        *a = x + y;
        *b = x - y;
    }
}

/// DIF butterfly network: natural input → bit-reversed output.
fn dif_in_place<F: PrimeField64>(values: &mut [F], inverse: bool) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    count_transform(n);
    dif_stages(values, &twiddle::stage_tables::<F>(n, inverse));
}

/// DIT butterfly network: bit-reversed input → natural output.
fn dit_in_place<F: PrimeField64>(values: &mut [F], inverse: bool) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    count_transform(n);
    dit_stages(values, &twiddle::stage_tables::<F>(n, inverse));
}

/// `NTT^NN` kernel with no counter bump — the primitive the decomposed
/// golden model builds its small row/column transforms out of (the
/// enclosing decomposition accounts the whole transform once).
pub(crate) fn ntt_nn_uncounted<F: PrimeField64>(values: &mut [F]) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    let tables = twiddle::stage_tables::<F>(n, false);
    dif_stages(values, &tables);
    reverse_index_bits(values);
}

fn scale_by_n_inv<F: PrimeField64>(values: &mut [F]) {
    let n_inv = F::from_u64(values.len() as u64).inverse();
    lanes::scale(values, n_inv);
}

/// Forward NTT, natural input, bit-reversed output (`NTT^NR`).
///
/// This is the transform FRI applies after zero-padding in the LDE step
/// (paper Fig. 1, step ②).
///
/// # Panics
///
/// Panics if the length is not a power of two or exceeds the field's
/// two-adic subgroup order `2^TWO_ADICITY` (`2^32` for Goldilocks, `2^24`
/// for KoalaBear).
pub fn ntt_nr<F: PrimeField64>(values: &mut [F]) {
    dif_in_place(values, false);
}

/// Forward NTT, bit-reversed input, natural output (`NTT^RN`).
pub fn ntt_rn<F: PrimeField64>(values: &mut [F]) {
    dit_in_place(values, false);
}

/// Forward NTT, natural input and output (`NTT^NN`).
pub fn ntt_nn<F: PrimeField64>(values: &mut [F]) {
    dif_in_place(values, false);
    reverse_index_bits(values);
}

/// Inverse NTT, natural input and output (`iNTT^NN`).
///
/// This is the transform FRI applies first to move polynomials from value
/// to coefficient representation (paper Fig. 1, step ①).
pub fn intt_nn<F: PrimeField64>(values: &mut [F]) {
    dif_in_place(values, true);
    reverse_index_bits(values);
    scale_by_n_inv(values);
}

/// Inverse NTT, bit-reversed input, natural output (`iNTT^RN`).
pub fn intt_rn<F: PrimeField64>(values: &mut [F]) {
    dit_in_place(values, true);
    scale_by_n_inv(values);
}

/// Coset forward NTT: evaluates the polynomial on the coset `shift·H`,
/// natural order in and out.
///
/// Implemented as the paper describes: element-wise pre-multiplication by
/// `shift^i` (mapped to the idle PE of the first DIT round in hardware)
/// followed by a standard NTT.
pub fn coset_ntt_nn<F: PrimeField64>(values: &mut [F], shift: F) {
    apply_coset_powers(values, shift);
    ntt_nn(values);
}

/// Coset forward NTT with bit-reversed output (`coset-NTT^NR`).
pub fn coset_ntt_nr<F: PrimeField64>(values: &mut [F], shift: F) {
    apply_coset_powers(values, shift);
    ntt_nr(values);
}

/// [`coset_ntt_nr`] of a vector whose entries from `degree` on are zero —
/// the zero-padded low-degree extension by `values.len() / degree` — without
/// the work on the zeros: only the first `degree` entries are scaled, and
/// in the first `log₂(len / degree)` DIF stages, where every block's upper
/// half is zero, a butterfly is a copy and one product. Values and `ntt.*`
/// counters are those of [`coset_ntt_nr`] (the counters count the logical
/// transform, see `count_transform`).
///
/// # Panics
///
/// Panics if the length is not a power of two or `degree` is not a power
/// of two no larger than it.
pub fn coset_ntt_nr_zero_tail<F: PrimeField64>(values: &mut [F], degree: usize, shift: F) {
    let n = values.len();
    assert!(degree.is_power_of_two() && degree <= n, "degree {degree} must be a power of two <= {n}");
    debug_assert!(values[degree..].iter().all(F::is_zero), "entries from `degree` on must be zero");
    if n <= 1 {
        return;
    }
    count_transform(n);
    let powers = twiddle::coset_powers::<F>(n, shift);
    lanes::mul_assign(&mut values[..degree], &powers[..degree]);
    let tables = twiddle::stage_tables::<F>(n, false);
    let (spread, rest) = tables.split_at(log2_strict(n / degree));
    F::with_lanes(ZeroTailDif {
        values,
        degree,
        spread,
        rest,
    });
}

/// The kernel of [`coset_ntt_nr_zero_tail`]: the stages that spread the
/// nonzero prefix, then [`DifStages`] on every `degree`-long segment.
struct ZeroTailDif<'a, F> {
    values: &'a mut [F],
    degree: usize,
    spread: &'a [Vec<F>],
    rest: &'a [Vec<F>],
}

impl<F: Field> LaneKernel<F> for ZeroTailDif<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        let degree = self.degree;
        let mut block = self.values.len();
        for tw in self.spread {
            if block < 2 {
                break;
            }
            for block in self.values.chunks_exact_mut(block) {
                let (lo, hi) = block.split_at_mut(block.len() / 2);
                spread_butterflies::<L>(lo, hi, tw, degree);
            }
            block /= 2;
        }
        if degree == 0 {
            return;
        }
        for segment in self.values.chunks_exact_mut(degree) {
            DifStages {
                values: segment,
                tables: self.rest,
            }
            .run::<L>();
        }
    }
}

/// [`dif_butterflies`] over the first `len` positions when `hi` is zero
/// there: `lo` keeps its value and `hi[j] ← lo[j]·tw[j]`.
#[inline(always)]
fn spread_butterflies<L: Lanes>(lo: &[L::Scalar], hi: &mut [L::Scalar], tw: &[L::Scalar], len: usize) {
    let w = L::WIDTH;
    let rows = lo.chunks_exact(w).zip(hi.chunks_exact_mut(w)).zip(tw.chunks_exact(w));
    for ((a, b), t) in rows.take(len / w) {
        (L::load(a) * L::load(t)).store(b);
    }
    for ((&a, b), &t) in lo.iter().zip(hi.iter_mut()).zip(tw).take(len).skip(len / w * w) {
        *b = a * t;
    }
}

/// Coset inverse NTT: recovers coefficients from evaluations on `shift·H`.
///
/// The trailing `N^{-1}·shift^{-i}` multiplications are the ones the paper
/// folds into the reserved inter-dimension twiddle PEs (§5.1).
pub fn coset_intt_nn<F: PrimeField64>(values: &mut [F], shift: F) {
    intt_nn(values);
    apply_coset_powers(values, shift.inverse());
}

/// Coset inverse NTT from bit-reversed evaluations on `shift·H` to natural
/// coefficients (`iNTT^RN`, then [`coset_intt_nn`]'s unshift), recorded in
/// no `ntt.*` counter.
///
/// This is the interpolation of FRI's final layer: a few dozen points, on
/// no NTT node of the kernel graph, while the `ntt.*` counters are the
/// prover's NTT work that `CONTRACT.json` pins and the graph's NTT nodes
/// are held to.
pub fn coset_intt_rn_uncounted<F: PrimeField64>(values: &mut [F], shift: F) {
    if values.len() <= 1 {
        return;
    }
    let tables = twiddle::stage_tables::<F>(values.len(), true);
    dit_stages(values, &tables);
    scale_by_n_inv(values);
    apply_coset_powers(values, shift.inverse());
}

fn apply_coset_powers<F: PrimeField64>(values: &mut [F], shift: F) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    lanes::mul_assign(values, &twiddle::coset_powers::<F>(n, shift));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{naive_coset_dft, naive_dft};
    use unizk_field::{bit_reverse, Goldilocks, KoalaBear};
    use unizk_testkit::rng::TestRng as StdRng;

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<Goldilocks> {
        (0..n).map(|_| Goldilocks::random(rng)).collect()
    }

    #[test]
    fn ntt_nn_matches_naive_dft() {
        let mut rng = StdRng::seed_from_u64(100);
        for log_n in 0..9 {
            let n = 1 << log_n;
            let coeffs = random_vec(&mut rng, n);
            let mut fast = coeffs.clone();
            ntt_nn(&mut fast);
            assert_eq!(fast, naive_dft(&coeffs), "n={n}");
        }
    }

    #[test]
    fn ntt_nr_is_bit_reversed_nn() {
        let mut rng = StdRng::seed_from_u64(101);
        let n = 64;
        let coeffs = random_vec(&mut rng, n);
        let mut nn = coeffs.clone();
        ntt_nn(&mut nn);
        let mut nr = coeffs;
        ntt_nr(&mut nr);
        for i in 0..n {
            assert_eq!(nr[i], nn[bit_reverse(i, 6)]);
        }
    }

    #[test]
    fn ntt_rn_consumes_bit_reversed_input() {
        let mut rng = StdRng::seed_from_u64(102);
        let n = 32;
        let coeffs = random_vec(&mut rng, n);
        let mut rev = coeffs.clone();
        unizk_field::reverse_index_bits(&mut rev);
        ntt_rn(&mut rev);
        assert_eq!(rev, naive_dft(&coeffs));
    }

    #[test]
    fn intt_nn_inverts_ntt_nn() {
        let mut rng = StdRng::seed_from_u64(103);
        for log_n in 0..10 {
            let n = 1 << log_n;
            let coeffs = random_vec(&mut rng, n);
            let mut v = coeffs.clone();
            ntt_nn(&mut v);
            intt_nn(&mut v);
            assert_eq!(v, coeffs, "n={n}");
        }
    }

    #[test]
    fn intt_rn_inverts_ntt_nr() {
        // The FRI pipeline pairing: NTT^NR then iNTT^RN round-trips without
        // any explicit reordering.
        let mut rng = StdRng::seed_from_u64(104);
        let n = 128;
        let coeffs = random_vec(&mut rng, n);
        let mut v = coeffs.clone();
        ntt_nr(&mut v);
        intt_rn(&mut v);
        assert_eq!(v, coeffs);
    }

    #[test]
    fn coset_ntt_matches_naive_coset_dft() {
        use unizk_field::PrimeField64;
        let mut rng = StdRng::seed_from_u64(105);
        let n = 64;
        let shift = Goldilocks::MULTIPLICATIVE_GENERATOR;
        let coeffs = random_vec(&mut rng, n);
        let mut v = coeffs.clone();
        coset_ntt_nn(&mut v, shift);
        assert_eq!(v, naive_coset_dft(&coeffs, shift));
    }

    #[test]
    fn coset_intt_inverts_coset_ntt() {
        use unizk_field::PrimeField64;
        let mut rng = StdRng::seed_from_u64(106);
        let n = 256;
        let shift = Goldilocks::MULTIPLICATIVE_GENERATOR;
        let coeffs = random_vec(&mut rng, n);
        let mut v = coeffs.clone();
        coset_ntt_nn(&mut v, shift);
        coset_intt_nn(&mut v, shift);
        assert_eq!(v, coeffs);
    }

    #[test]
    fn uncounted_coset_intt_rn_is_bit_reversed_coset_intt_nn() {
        use unizk_field::{Field, PrimeField64};
        // (That nothing is counted is pinned by CONTRACT.json's `ntt.*`.)
        let mut rng = StdRng::seed_from_u64(112);
        let shift = Goldilocks::MULTIPLICATIVE_GENERATOR.square();
        for log_n in 0..8 {
            let values = random_vec(&mut rng, 1 << log_n);
            let mut expect = values.clone();
            coset_intt_nn(&mut expect, shift);
            let mut reversed = values;
            unizk_field::reverse_index_bits(&mut reversed);
            coset_intt_rn_uncounted(&mut reversed, shift);
            assert_eq!(reversed, expect, "n=2^{log_n}");
        }
    }

    #[test]
    fn ntt_of_delta_is_all_ones() {
        use unizk_field::Field;
        let n = 16;
        let mut v = vec![Goldilocks::ZERO; n];
        v[0] = Goldilocks::ONE;
        ntt_nn(&mut v);
        assert!(v.iter().all(|&x| x == Goldilocks::ONE));
    }

    #[test]
    fn ntt_of_constant_is_scaled_delta() {
        use unizk_field::Field;
        let n = 16;
        let c = Goldilocks::from_u64(5);
        let mut v = vec![c; n];
        intt_nn(&mut v);
        assert_eq!(v[0], c);
        assert!(v[1..].iter().all(|x| x.is_zero()));
    }

    #[test]
    fn size_one_and_two() {
        use unizk_field::Field;
        let mut one = vec![Goldilocks::from_u64(9)];
        ntt_nn(&mut one);
        assert_eq!(one[0].as_u64(), 9);

        let mut two = vec![Goldilocks::from_u64(3), Goldilocks::from_u64(4)];
        ntt_nn(&mut two);
        assert_eq!(two[0].as_u64(), 7);
        // ω_2 = -1, so second eval is 3 - 4 = -1.
        assert_eq!(two[1], -Goldilocks::ONE);
    }

    #[test]
    fn linearity() {
        let mut rng = StdRng::seed_from_u64(107);
        let n = 32;
        let a = random_vec(&mut rng, n);
        let b = random_vec(&mut rng, n);
        let mut sum: Vec<Goldilocks> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        ntt_nn(&mut sum);
        let mut fa = a;
        ntt_nn(&mut fa);
        let mut fb = b;
        ntt_nn(&mut fb);
        let expect: Vec<Goldilocks> = fa.iter().zip(&fb).map(|(&x, &y)| x + y).collect();
        assert_eq!(sum, expect);
    }

    #[test]
    fn convolution_theorem() {
        // Pointwise product in value domain == cyclic convolution of coeffs.
        let mut rng = StdRng::seed_from_u64(108);
        let n = 16;
        let a = random_vec(&mut rng, n);
        let b = random_vec(&mut rng, n);
        let mut fa = a.clone();
        ntt_nn(&mut fa);
        let mut fb = b.clone();
        ntt_nn(&mut fb);
        let mut prod: Vec<Goldilocks> = fa.iter().zip(&fb).map(|(&x, &y)| x * y).collect();
        intt_nn(&mut prod);
        // Reference cyclic convolution.
        use unizk_field::Field;
        for k in 0..n {
            let mut acc = Goldilocks::ZERO;
            for i in 0..n {
                acc += a[i] * b[(k + n - i) % n];
            }
            assert_eq!(prod[k], acc, "k={k}");
        }
    }

    #[test]
    fn segment_tail_tables_match_fresh_small_tables() {
        // The invariant `ZeroTailDif` rests on: a segment of length
        // L = n/2^s sees the same twiddles through &tables[s..] as a
        // standalone size-L transform builds for itself.
        let full = twiddle::stage_tables::<Goldilocks>(256, false);
        let small = twiddle::stage_tables::<Goldilocks>(32, false);
        assert_eq!(full[3..], small[..]);
    }

    // -- The lane wall: every lane-wise kernel against its one-lane
    // instantiation, called explicitly so that hosts with avx512f run both,
    // and the public transforms against the naive DFT, over both fields.

    /// A field the wall runs over, with the values where its lanes'
    /// carries, borrows and conditional subtractions go wrong.
    trait Edges: PrimeField64 {
        const EDGES: [u64; 7];
    }

    impl Edges for Goldilocks {
        /// 0, 1, 2, 2^32 − 1, 2^32, p − 2, p − 1.
        const EDGES: [u64; 7] = {
            let p = unizk_field::goldilocks::P;
            [0, 1, 2, 0xFFFF_FFFF, 1 << 32, p - 2, p - 1]
        };
    }

    impl Edges for KoalaBear {
        /// 0, 1, 2, p − 2, p − 1, `R = 2^32 mod p` and `p − R`.
        const EDGES: [u64; 7] = {
            let p = unizk_field::koalabear::P as u64;
            [0, 1, 2, p - 2, p - 1, (1 << 32) % p, p - (1 << 32) % p]
        };
    }

    /// Random values with the field's seven edges at every offset of the
    /// first 21 positions.
    fn edge_vec<F: Edges>(rng: &mut StdRng, n: usize, shift: usize) -> Vec<F> {
        (0..n)
            .map(|i| if i < 21 { F::from_u64(F::EDGES[(i + shift) % 7]) } else { F::random(rng) })
            .collect()
    }

    fn report_lanes<F: PrimeField64>() -> bool {
        let wide = F::with_lanes(WidthProbe) > 1;
        if !wide {
            static REPORT: std::sync::Once = std::sync::Once::new();
            REPORT.call_once(|| eprintln!("skipped: no avx512f (the NTT wall compared one lane with itself)"));
        }
        wide
    }

    struct WidthProbe;
    impl<F: Field> LaneKernel<F> for WidthProbe {
        type Output = usize;
        fn run<L: Lanes<Scalar = F>>(self) -> usize {
            L::WIDTH
        }
    }

    fn stage_kernels_match<F: Edges>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        report_lanes::<F>();
        for log_n in 0..=12 {
            let n = 1 << log_n;
            for inverse in [false, true] {
                let tables = twiddle::stage_tables::<F>(n, inverse);
                let input = edge_vec::<F>(&mut rng, n, log_n);

                let mut dispatched = input.clone();
                dif_stages(&mut dispatched, &tables);
                let mut one = input.clone();
                DifStages { values: &mut one, tables: &tables }.run::<F>();
                assert_eq!(dispatched, one, "DIF n=2^{log_n} inverse={inverse}");

                let mut dispatched = input.clone();
                dit_stages(&mut dispatched, &tables);
                let mut one = input;
                DitStages { values: &mut one, tables: &tables }.run::<F>();
                assert_eq!(dispatched, one, "DIT n=2^{log_n} inverse={inverse}");
            }
        }
    }

    #[test]
    fn stage_kernels_match_one_lane_at_every_size() {
        stage_kernels_match::<Goldilocks>(113);
        stage_kernels_match::<KoalaBear>(213);
    }

    fn transforms_match_naive<F: Edges>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shift = F::MULTIPLICATIVE_GENERATOR;
        for log_n in 0..=12 {
            let n = 1 << log_n;
            let coeffs = edge_vec::<F>(&mut rng, n, log_n);
            let plain = naive_dft(&coeffs);
            let coset = naive_coset_dft(&coeffs, shift);
            let rev = |mut v: Vec<F>| {
                unizk_field::reverse_index_bits(&mut v);
                v
            };

            let mut v = coeffs.clone();
            ntt_nr(&mut v);
            assert_eq!(v, rev(plain.clone()), "NTT^NR n=2^{log_n}");
            let mut v = rev(coeffs.clone());
            ntt_rn(&mut v);
            assert_eq!(v, plain, "NTT^RN n=2^{log_n}");
            let mut v = coeffs.clone();
            coset_ntt_nr(&mut v, shift);
            assert_eq!(v, rev(coset.clone()), "coset NTT^NR n=2^{log_n}");

            let mut v = plain.clone();
            intt_nn(&mut v);
            assert_eq!(v, coeffs, "iNTT^NN n=2^{log_n}");
            let mut v = rev(plain);
            intt_rn(&mut v);
            assert_eq!(v, coeffs, "iNTT^RN n=2^{log_n}");
            let mut v = coset;
            coset_intt_nn(&mut v, shift);
            assert_eq!(v, coeffs, "coset iNTT^NN n=2^{log_n}");
        }
    }

    #[test]
    fn transforms_match_naive_dft_in_both_directions_with_and_without_coset() {
        transforms_match_naive::<Goldilocks>(115);
        transforms_match_naive::<KoalaBear>(215);
    }

    fn zero_tail_lde_matches<F: Edges>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shift = F::MULTIPLICATIVE_GENERATOR;
        report_lanes::<F>();
        for log_n in 0..=12 {
            let n = 1 << log_n;
            for rate_bits in 0..=log_n.min(4) {
                let degree = n >> rate_bits;
                let mut padded = edge_vec::<F>(&mut rng, degree, rate_bits);
                padded.resize(n, F::ZERO);

                let mut want = naive_coset_dft(&padded, shift);
                unizk_field::reverse_index_bits(&mut want);
                let mut got = padded.clone();
                coset_ntt_nr_zero_tail(&mut got, degree, shift);
                assert_eq!(got, want, "n=2^{log_n} rate_bits={rate_bits}");

                // The same kernel, one lane at a time.
                if n > 1 {
                    let mut one = padded;
                    let powers = twiddle::coset_powers::<F>(n, shift);
                    for (v, &p) in one[..degree].iter_mut().zip(powers.iter()) {
                        *v *= p;
                    }
                    let tables = twiddle::stage_tables::<F>(n, false);
                    let (spread, rest) = tables.split_at(rate_bits);
                    ZeroTailDif { values: &mut one, degree, spread, rest }.run::<F>();
                    assert_eq!(one, want, "one lane, n=2^{log_n} rate_bits={rate_bits}");
                }
            }
        }
    }

    #[test]
    fn zero_tail_lde_matches_naive_coset_dft_and_the_one_lane_kernel() {
        zero_tail_lde_matches::<Goldilocks>(116);
        zero_tail_lde_matches::<KoalaBear>(216);
    }

    #[test]
    fn uncounted_kernel_matches_public_entry() {
        let mut rng = StdRng::seed_from_u64(111);
        let input = random_vec(&mut rng, 128);
        let mut a = input.clone();
        ntt_nn(&mut a);
        let mut b = input;
        ntt_nn_uncounted(&mut b);
        assert_eq!(a, b);
    }
}
