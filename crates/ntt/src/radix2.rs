//! In-place radix-2 NTT kernels (DIF and DIT dataflows) and their coset /
//! bit-reverse-order variants.
//!
//! The paper's hardware supports both DIT and DIF dataflows (§5.1); here DIF
//! produces bit-reversed output from natural input (`NTT^NR`) and DIT
//! consumes bit-reversed input producing natural output (`NTT^RN`), exactly
//! the combinations the FRI pipeline needs.
//!
//! # Twiddles and parallelism
//!
//! Twiddle tables come from the process-global [`crate::twiddle`] cache, so
//! repeated transforms of one size pay the table build exactly once.
//! Transforms of at least `2^STAGE_SPLIT_MIN_LOG2` elements additionally
//! split their butterfly work across the worker threads configured by
//! [`unizk_field::set_parallelism`]: the in-place kernels run their
//! straddling early/late stages as parallel half-block windows and the
//! remaining stages as independent per-segment serial transforms. Smaller
//! transforms always run serially — below that size two workers lose to
//! one whenever the second core was idle just before (EXPERIMENTS.md,
//! "NTT routing").
//!
//! The split is an execution strategy, not a correctness parameter: both
//! paths perform the identical field operations in the identical order per
//! element, so results — and the `ntt.*` trace counters, which are bumped
//! once per logical transform before the path choice — are bit-identical
//! for every thread count. The determinism suite pins this down.

use unizk_field::{log2_strict, reverse_index_bits, PrimeField64};

use crate::twiddle;

/// log₂ of the smallest transform whose stages are split across workers:
/// the smallest size at which two threads beat one on both fields on the
/// 2-core reference host whether or not its second core was busy just
/// before (EXPERIMENTS.md, "NTT routing").
const STAGE_SPLIT_MIN_LOG2: usize = 16;

/// True when a size-`n` transform should split work across workers at all.
fn wants_stage_parallel(n: usize, threads: usize) -> bool {
    threads > 1 && log2_strict(n) >= STAGE_SPLIT_MIN_LOG2
}

/// Records one transform in the trace layer: total count, element volume,
/// and butterfly volume (`n/2·log₂ n`, the unit Fig. 9's NTT speedups are
/// normalized over). One bump per transform, so the cost is negligible
/// even for the smallest sizes.
pub(crate) fn count_transform(n: usize) {
    use unizk_testkit::trace;
    trace::counter("ntt.transforms", 1);
    trace::counter("ntt.elements", n as u64);
    trace::counter("ntt.butterflies", (n as u64 / 2) * log2_strict(n) as u64);
}

/// Serial DIF stage loop over `values`, using `tables[s]` for the stage
/// with half-size `values.len() / 2^(s+1)`.
///
/// Because a stage's twiddles depend only on the butterfly index `j` within
/// a block (never on the block), a length-`L` *segment* of a larger
/// transform runs its remaining stages with exactly the tail `&tables[s..]`
/// of the full table set — the property the parallel split relies on.
fn dif_stages<F: PrimeField64>(values: &mut [F], tables: &[Vec<F>]) {
    let n = values.len();
    let mut m = n / 2;
    let mut stage = 0;
    while m >= 1 {
        let tw = &tables[stage];
        for block in (0..n).step_by(2 * m) {
            for j in 0..m {
                let a = values[block + j];
                let b = values[block + j + m];
                values[block + j] = a + b;
                values[block + j + m] = (a - b) * tw[j];
            }
        }
        m /= 2;
        stage += 1;
    }
}

/// Serial DIT stage loop over `values` (mirror of [`dif_stages`]).
fn dit_stages<F: PrimeField64>(values: &mut [F], tables: &[Vec<F>]) {
    let n = values.len();
    let log_n = log2_strict(n);
    let mut m = 1;
    let mut stage = log_n;
    while m < n {
        stage -= 1;
        let tw = &tables[stage];
        for block in (0..n).step_by(2 * m) {
            for j in 0..m {
                let a = values[block + j];
                let b = values[block + j + m] * tw[j];
                values[block + j] = a + b;
                values[block + j + m] = a - b;
            }
        }
        m *= 2;
    }
}

/// Parallel DIF: the first `log₂(segments)` stages have blocks straddling
/// worker segments, so each block parallelizes over aligned windows of its
/// low/high halves; every later stage is local to one of the independent
/// segments, which then run as whole serial sub-transforms in parallel.
fn dif_stages_parallel<F: PrimeField64>(values: &mut [F], tables: &[Vec<F>], threads: usize) {
    let n = values.len();
    let log_n = log2_strict(n);
    let log_segs = (threads.next_power_of_two().trailing_zeros() as usize).min(log_n - 1);
    let segs = 1usize << log_segs;

    let mut m = n / 2;
    for tw in &tables[..log_segs] {
        let chunk = m.div_ceil(threads).max(1);
        for block in (0..n).step_by(2 * m) {
            let (lo, hi) = values[block..block + 2 * m].split_at_mut(m);
            unizk_field::parallel_zip_mut(lo, hi, chunk, |off, a, b| {
                for j in 0..a.len() {
                    let x = a[j];
                    let y = b[j];
                    a[j] = x + y;
                    b[j] = (x - y) * tw[off + j];
                }
            });
        }
        m /= 2;
    }

    unizk_field::parallel_chunks_mut(values, n / segs, |_, seg| {
        dif_stages(seg, &tables[log_segs..]);
    });
}

/// Parallel DIT (mirror of [`dif_stages_parallel`]): independent segments
/// run first, then the straddling late stages parallelize within blocks.
fn dit_stages_parallel<F: PrimeField64>(values: &mut [F], tables: &[Vec<F>], threads: usize) {
    let n = values.len();
    let log_n = log2_strict(n);
    let log_segs = (threads.next_power_of_two().trailing_zeros() as usize).min(log_n - 1);
    let segs = 1usize << log_segs;

    unizk_field::parallel_chunks_mut(values, n / segs, |_, seg| {
        dit_stages(seg, &tables[log_segs..]);
    });

    let mut m = n >> log_segs;
    for tw in tables[..log_segs].iter().rev() {
        let chunk = m.div_ceil(threads).max(1);
        for block in (0..n).step_by(2 * m) {
            let (lo, hi) = values[block..block + 2 * m].split_at_mut(m);
            unizk_field::parallel_zip_mut(lo, hi, chunk, |off, a, b| {
                for j in 0..a.len() {
                    let x = a[j];
                    let y = b[j] * tw[off + j];
                    a[j] = x + y;
                    b[j] = x - y;
                }
            });
        }
        m *= 2;
    }
}

/// DIF butterfly network: natural input → bit-reversed output.
fn dif_in_place<F: PrimeField64>(values: &mut [F], inverse: bool) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    count_transform(n);
    let tables = twiddle::stage_tables::<F>(n, inverse);
    let threads = unizk_field::current_parallelism();
    if wants_stage_parallel(n, threads) {
        dif_stages_parallel(values, &tables, threads);
    } else {
        dif_stages(values, &tables);
    }
}

/// DIT butterfly network: bit-reversed input → natural output.
fn dit_in_place<F: PrimeField64>(values: &mut [F], inverse: bool) {
    let n = values.len();
    if n <= 1 {
        return;
    }
    count_transform(n);
    let tables = twiddle::stage_tables::<F>(n, inverse);
    let threads = unizk_field::current_parallelism();
    if wants_stage_parallel(n, threads) {
        dit_stages_parallel(values, &tables, threads);
    } else {
        dit_stages(values, &tables);
    }
}

/// Serial `NTT^NN` kernel with no counter bump and no routing — the
/// primitive the decomposed golden model builds its small row/column
/// transforms out of (the enclosing decomposition accounts the whole
/// transform once).
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
    for v in values.iter_mut() {
        *v *= n_inv;
    }
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
/// are held to. Always serial.
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
    let powers = twiddle::coset_powers::<F>(n, shift);
    let threads = unizk_field::current_parallelism();
    if wants_stage_parallel(n, threads) {
        let chunk = n.div_ceil(threads).max(1);
        unizk_field::parallel_chunks_mut(values, chunk, |off, seg| {
            for (j, v) in seg.iter_mut().enumerate() {
                *v *= powers[off + j];
            }
        });
    } else {
        for (v, &p) in values.iter_mut().zip(powers.iter()) {
            *v *= p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::{naive_coset_dft, naive_dft};
    use unizk_field::{bit_reverse, Goldilocks};
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

    // -- Parallel stage kernels, exercised directly with explicit worker
    // counts so the tests neither depend on nor mutate the process-global
    // parallelism override.

    #[test]
    fn dif_stage_split_matches_serial() {
        let mut rng = StdRng::seed_from_u64(109);
        for log_n in [2usize, 5, 8, 11] {
            let n = 1 << log_n;
            let tables = twiddle::stage_tables::<Goldilocks>(n, false);
            for threads in [2usize, 3, 4, 7] {
                let input = random_vec(&mut rng, n);
                let mut serial = input.clone();
                dif_stages(&mut serial, &tables);
                let mut par = input;
                dif_stages_parallel(&mut par, &tables, threads);
                assert_eq!(par, serial, "log_n={log_n} threads={threads}");
            }
        }
    }

    #[test]
    fn dit_stage_split_matches_serial() {
        let mut rng = StdRng::seed_from_u64(110);
        for log_n in [2usize, 5, 8, 11] {
            let n = 1 << log_n;
            for inverse in [false, true] {
                let tables = twiddle::stage_tables::<Goldilocks>(n, inverse);
                for threads in [2usize, 4, 5] {
                    let input = random_vec(&mut rng, n);
                    let mut serial = input.clone();
                    dit_stages(&mut serial, &tables);
                    let mut par = input;
                    dit_stages_parallel(&mut par, &tables, threads);
                    assert_eq!(par, serial, "log_n={log_n} threads={threads} inv={inverse}");
                }
            }
        }
    }

    #[test]
    fn segment_tail_tables_match_fresh_small_tables() {
        // The invariant the split rests on: a segment of length L = n/2^s
        // sees the same twiddles through &tables[s..] as a standalone
        // size-L transform builds for itself.
        let full = twiddle::stage_tables::<Goldilocks>(256, false);
        let small = twiddle::stage_tables::<Goldilocks>(32, false);
        assert_eq!(full[3..], small[..]);
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
