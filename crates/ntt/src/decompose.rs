//! Multi-dimensional NTT decomposition (SAM-style, paper §5.1 and Fig. 4).
//!
//! The accelerator cannot instantiate a variable-size NTT datapath, so a
//! size-`N` transform is decomposed into `k` rounds of fixed size-`n` NTTs
//! with element-wise inter-dimension twiddle multiplications between rounds
//! (`k-1` of them) and data transposes handled by the transpose buffer.
//!
//! [`decomposed_ntt_nn`] is the software golden model of that dataflow: it
//! produces bit-identical results to the monolithic [`crate::ntt_nn`] and is
//! used both to test the mapping logic and to derive the cost model in
//! `unizk-core`.

use unizk_field::{log2_strict, PrimeField64};

use crate::radix2::{count_transform, ntt_nn_uncounted};

/// Computes a natural-order NTT via the multi-dimensional decomposition
/// `len = dims[0] · dims[1] · …`.
///
/// Matches [`crate::ntt_nn`] exactly; the intermediate steps mirror the
/// hardware dataflow (column NTTs → twiddles → recursive row NTTs →
/// dimension gather).
///
/// The `ntt.*` trace counters account the whole transform **once** (as one
/// size-`N` transform), not per constituent small NTT — the decomposition
/// is an execution strategy for a single logical transform, and butterfly
/// volume is conserved by it ([`NttDecomposition::total_butterflies`]), so
/// the counters stay identical to the monolithic path.
///
/// # Panics
///
/// Panics if the product of `dims` does not equal `values.len()`, or any
/// dimension is not a power of two.
pub fn decomposed_ntt_nn<F: PrimeField64>(values: &mut [F], dims: &[usize]) {
    let n: usize = dims.iter().product();
    assert_eq!(n, values.len(), "dims product must equal input length");
    if n <= 1 {
        return;
    }
    count_transform(n);
    decompose_recursive(values, dims);
}

fn decompose_recursive<F: PrimeField64>(values: &mut [F], dims: &[usize]) {
    if dims.len() <= 1 {
        ntt_nn_uncounted(values);
        return;
    }
    let n = values.len();
    let n1 = dims[0];
    let n2 = n / n1;
    let log_n = log2_strict(n);
    let omega = F::primitive_root_of_unity(log_n);

    // Round 1: size-n1 NTTs along the strided first dimension.
    let mut column = vec![F::ZERO; n1];
    for c in 0..n2 {
        for (r, col) in column.iter_mut().enumerate() {
            *col = values[r * n2 + c];
        }
        ntt_nn_uncounted(&mut column);
        for (r, col) in column.iter().enumerate() {
            values[r * n2 + c] = *col;
        }
    }

    // Inter-dimension twiddles: values[k1*n2 + c] *= ω_N^{k1·c}.
    // (In hardware these come from the on-the-fly twiddle factor generator.)
    for k1 in 0..n1 {
        let step = omega.exp_u64(k1 as u64);
        let mut tw = F::ONE;
        for c in 0..n2 {
            values[k1 * n2 + c] *= tw;
            tw *= step;
        }
    }

    // Remaining rounds: recurse on each contiguous row.
    for k1 in 0..n1 {
        decompose_recursive(&mut values[k1 * n2..(k1 + 1) * n2], &dims[1..]);
    }

    // Dimension gather: out[k1 + n1·k2] = values[k1·n2 + k2].
    let snapshot = values.to_vec();
    for k1 in 0..n1 {
        for k2 in 0..n2 {
            values[k1 + n1 * k2] = snapshot[k1 * n2 + k2];
        }
    }
}

/// A plan for decomposing a size-`N` NTT onto hardware pipelines of fixed
/// size `n = 2^log_small`, plus the derived operation counts the simulator's
/// cost model consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NttDecomposition {
    /// `log2` of the total transform size.
    pub log_n: usize,
    /// The decomposed dimensions, e.g. `[32, 32, 32, 4]` for `N = 2^17` on
    /// size-32 pipelines.
    pub dims: Vec<usize>,
}

impl NttDecomposition {
    /// Plans a size-`2^log_n` NTT on pipelines of size `2^log_small`.
    ///
    /// All dimensions equal `2^log_small` except possibly the last, which
    /// absorbs the remainder (as SAM does).
    ///
    /// # Panics
    ///
    /// Panics if `log_small` is zero.
    pub fn plan(log_n: usize, log_small: usize) -> Self {
        assert!(log_small > 0, "pipeline size must be at least 2");
        let mut dims = Vec::new();
        let mut remaining = log_n;
        while remaining > log_small {
            dims.push(1 << log_small);
            remaining -= log_small;
        }
        dims.push(1 << remaining);
        Self { log_n, dims }
    }

    /// Total transform size `N`.
    pub fn size(&self) -> usize {
        1 << self.log_n
    }

    /// Number of decomposed dimensions `k` (rounds of small NTTs).
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Element-wise inter-dimension twiddle multiplications: `(k-1)·N`
    /// (twiddles are applied between rounds only, paper §5.1).
    pub fn twiddle_muls(&self) -> usize {
        (self.num_dims() - 1) * self.size()
    }

    /// Butterfly operations summed over every small NTT: `N/2·log2(N)`
    /// regardless of the split (the decomposition conserves work).
    pub fn total_butterflies(&self) -> usize {
        self.dims
            .iter()
            .map(|&d| (self.size() / d) * (d / 2) * log2_strict(d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::ntt_nn;
    use unizk_testkit::rng::TestRng as StdRng;
    use unizk_field::{Field, Goldilocks};

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<Goldilocks> {
        (0..n).map(|_| Goldilocks::random(rng)).collect()
    }

    #[test]
    fn two_dim_matches_monolithic() {
        let mut rng = StdRng::seed_from_u64(300);
        let v = random_vec(&mut rng, 64);
        let mut mono = v.clone();
        ntt_nn(&mut mono);
        let mut dec = v;
        decomposed_ntt_nn(&mut dec, &[8, 8]);
        assert_eq!(dec, mono);
    }

    #[test]
    fn three_dim_matches_monolithic() {
        // The paper's Fig. 4 example: size-512 as 8×8×8.
        let mut rng = StdRng::seed_from_u64(301);
        let v = random_vec(&mut rng, 512);
        let mut mono = v.clone();
        ntt_nn(&mut mono);
        let mut dec = v;
        decomposed_ntt_nn(&mut dec, &[8, 8, 8]);
        assert_eq!(dec, mono);
    }

    #[test]
    fn uneven_dims_match() {
        let mut rng = StdRng::seed_from_u64(302);
        let v = random_vec(&mut rng, 256);
        let mut mono = v.clone();
        ntt_nn(&mut mono);
        for dims in [vec![32, 8], vec![8, 32], vec![4, 4, 16], vec![2, 128]] {
            let mut dec = v.clone();
            decomposed_ntt_nn(&mut dec, &dims);
            assert_eq!(dec, mono, "dims={dims:?}");
        }
    }

    #[test]
    #[should_panic(expected = "dims product")]
    fn wrong_dims_rejected() {
        let mut v = vec![Goldilocks::from_u64(1); 16];
        decomposed_ntt_nn(&mut v, &[8, 4]);
    }

    #[test]
    fn plan_splits_as_expected() {
        // Paper: a row of PEs is split into two size-2^5 pipelines.
        let plan = NttDecomposition::plan(17, 5);
        assert_eq!(plan.dims, vec![32, 32, 32, 4]);
        assert_eq!(plan.size(), 1 << 17);
        assert_eq!(plan.num_dims(), 4);

        let exact = NttDecomposition::plan(15, 5);
        assert_eq!(exact.dims, vec![32, 32, 32]);
    }

    #[test]
    fn plan_conserves_butterflies() {
        for log_n in [5, 9, 13, 20] {
            let plan = NttDecomposition::plan(log_n, 5);
            let n = 1usize << log_n;
            assert_eq!(plan.total_butterflies(), n / 2 * log_n, "log_n={log_n}");
        }
    }

    #[test]
    fn plan_twiddle_count() {
        let plan = NttDecomposition::plan(15, 5); // 3 dims
        assert_eq!(plan.twiddle_muls(), 2 * (1 << 15));
    }

    #[test]
    fn plan_small_sizes() {
        let plan = NttDecomposition::plan(3, 5); // smaller than pipeline
        assert_eq!(plan.dims, vec![8]);
        assert_eq!(plan.twiddle_muls(), 0);
    }

    #[test]
    fn planned_dims_compute_correctly() {
        let mut rng = StdRng::seed_from_u64(304);
        let plan = NttDecomposition::plan(10, 5);
        let v = random_vec(&mut rng, 1 << 10);
        let mut mono = v.clone();
        ntt_nn(&mut mono);
        let mut dec = v;
        decomposed_ntt_nn(&mut dec, &plan.dims);
        assert_eq!(dec, mono);
    }
}
