//! Lane-packed Poseidon: many width-12 sponges permuted in lockstep.
//!
//! This is the software analogue of the paper's VSA vector mode (§5): one
//! shared round-constant / MDS schedule drives `LANES` independent sponge
//! states laid out struct-of-arrays — `state[i][l]` is lane `l`'s element
//! `i` — so every field operation of the round schedule is issued once per
//! *element row* and executed across all lanes. The scalar permutation's
//! round structure is latency-bound (22 partial rounds form one serial
//! s-box chain); packing gives the core `LANES` independent chains to
//! overlap, which is where the throughput comes from.
//!
//! Every packed kernel performs, per lane, the identical residue-domain
//! operation sequence as the scalar kernels in [`crate::poseidon`], so
//! outputs are bit-identical to `LANES` scalar permutations (pinned by the
//! `packed_equivalence` differential wall).
//!
//! # Lane width
//!
//! The kernels are const-generic over the lane count so the differential
//! wall can instantiate any width, but the prover runs exactly one:
//! batched dispatches ([`permute_batch`]) permute 8 sponges per schedule
//! walk (`BATCH_LANES`). Widths 4 and 8 measure within 2 % of each other
//! and both ahead of 2 and scalar (EXPERIMENTS.md, "Lane-packed
//! Poseidon"), so there is nothing for a setting to choose between.

use unizk_field::{Field, Goldilocks};

use crate::poseidon::{
    constants, mds_circulant, poseidon_permute, sbox_residue, NoncePermutation, PoseidonConstants,
    FULL_ROUNDS, PARTIAL_ROUNDS, WIDTH,
};

/// Sponges per packed group in [`permute_batch`] (see the module docs for
/// the measurement behind the width).
const BATCH_LANES: usize = 8;

// ----------------------------------------------------------- SoA kernels
//
// All kernels operate on `[[u64; LANES]; WIDTH]` residue lanes: row `i`
// holds element `i` of every lane. Constants are shared; the innermost
// loops run over lanes, which the compiler fully unrolls for the fixed
// `LANES` widths the dispatchers instantiate.

/// `x^7` on every lane, interleaved so the four-multiply chains of all
/// lanes overlap (the scalar chain is the permutation's latency
/// bottleneck). Identical multiply order per lane as the scalar s-box.
#[inline]
fn sbox_lanes<const LANES: usize>(xs: &mut [u64; LANES]) {
    let mut x2 = [0u64; LANES];
    for (y, &x) in x2.iter_mut().zip(xs.iter()) {
        *y = Goldilocks::mul_residue(x, x);
    }
    let mut x4 = [0u64; LANES];
    for (y, &x) in x4.iter_mut().zip(x2.iter()) {
        *y = Goldilocks::mul_residue(x, x);
    }
    let mut x6 = [0u64; LANES];
    for (y, (&a, &b)) in x6.iter_mut().zip(x4.iter().zip(x2.iter())) {
        *y = Goldilocks::mul_residue(a, b);
    }
    for (x, &a) in xs.iter_mut().zip(x6.iter()) {
        *x = Goldilocks::mul_residue(a, *x);
    }
}

/// Accumulator block width for lane dot products. Four `u128`
/// accumulators fit the general-purpose register file, so the inner
/// multiply-accumulate loop runs without accumulator spill traffic while
/// still overlapping enough independent multiply chains to hide latency;
/// an 8-lane accumulator array, by contrast, lives in memory and pays a
/// load/store pair per fused multiply-add.
const DOT_BLOCK: usize = 4;

/// Small-constant dot product of one matrix row against every lane,
/// processed [`DOT_BLOCK`] lanes at a time: the same sub-`2^96` `reduce96`
/// budget argument as the scalar [`crate::poseidon`] fast path, applied
/// per lane.
#[inline]
fn row_dot_lanes<const LANES: usize>(
    row: &[Goldilocks; WIDTH],
    state: &[[u64; LANES]; WIDTH],
    out: &mut [u64; LANES],
) {
    let mut l = 0;
    while l + DOT_BLOCK <= LANES {
        let mut acc = [0u128; DOT_BLOCK];
        for (c, xs) in row.iter().zip(state.iter()) {
            let c = u128::from(c.as_canonical_u64());
            for (a, x) in acc.iter_mut().zip(xs[l..l + DOT_BLOCK].iter()) {
                *a += c * u128::from(*x);
            }
        }
        for (y, &a) in out[l..l + DOT_BLOCK].iter_mut().zip(acc.iter()) {
            *y = Goldilocks::reduce96_residue(a);
        }
        l += DOT_BLOCK;
    }
    while l < LANES {
        let mut acc = 0u128;
        for (c, xs) in row.iter().zip(state.iter()) {
            acc += u128::from(c.as_canonical_u64()) * u128::from(xs[l]);
        }
        out[l] = Goldilocks::reduce96_residue(acc);
        l += 1;
    }
}

/// Dense small-entry matrix–vector product across lanes.
#[inline]
fn mat_lanes<const LANES: usize>(
    m: &[[Goldilocks; WIDTH]; WIDTH],
    state: &[[u64; LANES]; WIDTH],
) -> [[u64; LANES]; WIDTH] {
    let mut out = [[0u64; LANES]; WIDTH];
    for (o, row) in out.iter_mut().zip(m.iter()) {
        row_dot_lanes(row, state, o);
    }
    out
}

/// One output row of the dense matrix–vector product — the final full
/// round of a grind attempt only needs the squeezed lane, so the other 11
/// rows' accumulations are skipped.
#[inline]
fn mat_row_lanes<const LANES: usize>(
    m: &[[Goldilocks; WIDTH]; WIDTH],
    state: &[[u64; LANES]; WIDTH],
    row: usize,
) -> [u64; LANES] {
    let mut out = [0u64; LANES];
    row_dot_lanes(&m[row], state, &mut out);
    out
}

/// The add-constant + s-box layer of full round `r`.
#[inline]
fn sbox_layer_lanes<const LANES: usize>(
    cs: &PoseidonConstants,
    state: &mut [[u64; LANES]; WIDTH],
    r: usize,
) {
    for (xs, c) in state.iter_mut().zip(cs.round_constants[r].iter()) {
        let c = c.as_canonical_u64();
        for x in xs.iter_mut() {
            *x = Goldilocks::add_residue(*x, c);
        }
        sbox_lanes(xs);
    }
}

fn full_round_lanes<const LANES: usize>(
    cs: &PoseidonConstants,
    state: &mut [[u64; LANES]; WIDTH],
    r: usize,
) {
    sbox_layer_lanes(cs, state, r);
    // The circulant product runs per lane on a gathered column: its
    // transform is a fixed network of narrow adds and constant products
    // with nothing to share across lanes.
    for l in 0..LANES {
        let column = mds_circulant(&core::array::from_fn(|i| state[i][l]));
        for (row, x) in state.iter_mut().zip(column) {
            row[l] = x;
        }
    }
}

fn pre_partial_lanes<const LANES: usize>(
    cs: &PoseidonConstants,
    state: &mut [[u64; LANES]; WIDTH],
) {
    for (xs, c) in state.iter_mut().zip(cs.pre_partial_constants.iter()) {
        let c = c.as_canonical_u64();
        for x in xs.iter_mut() {
            *x = Goldilocks::add_residue(*x, c);
        }
    }
    *state = mat_lanes(&cs.pre_mds, state);
}

fn partial_round_lanes<const LANES: usize>(
    cs: &PoseidonConstants,
    state: &mut [[u64; LANES]; WIDTH],
    r: usize,
) {
    let rc = cs.partial_round_constants[r].as_canonical_u64();
    sbox_lanes(&mut state[0]);
    for x in state[0].iter_mut() {
        *x = Goldilocks::add_residue(*x, rc);
    }

    // Sparse MDS, per lane: out[0] = u·state; out[i] = v[i]·state[0] +
    // E[i]·state[i] — the same sub-2^96 accumulations as the scalar round.
    let u = &cs.sparse_u[r];
    let v = &cs.sparse_v[r];
    let e = &cs.sparse_diag[r];
    let mut dot = [0u64; LANES];
    row_dot_lanes(u, state, &mut dot);
    let s0 = state[0];
    for i in 1..WIDTH {
        let vi = u128::from(v[i].as_canonical_u64());
        let ei = u128::from(e[i].as_canonical_u64());
        let row = &mut state[i];
        for (x, &s) in row.iter_mut().zip(s0.iter()) {
            *x = Goldilocks::reduce96_residue(vi * u128::from(s) + ei * u128::from(*x));
        }
    }
    state[0] = dot;
}

/// Runs the full round schedule on a struct-of-arrays residue state.
///
/// Kept out of line, like [`permute_batch`]: inlined into the sponge
/// dispatchers the 8-lane kernel measured 5 % slower per permutation
/// (`hash.poseidon_batch_ns_per_perm`, both Merkle rows of the benchmark).
#[inline(never)]
pub(crate) fn permute_soa<const LANES: usize>(state: &mut [[u64; LANES]; WIDTH]) {
    let cs = constants();
    for r in 0..FULL_ROUNDS / 2 {
        full_round_lanes(cs, state, r);
    }
    pre_partial_lanes(cs, state);
    for r in 0..PARTIAL_ROUNDS {
        partial_round_lanes(cs, state, r);
    }
    for r in FULL_ROUNDS / 2..FULL_ROUNDS {
        full_round_lanes(cs, state, r);
    }
}

// -------------------------------------------------------------- public API

/// `LANES` width-12 Poseidon sponges permuted in lockstep.
///
/// The type is a compile-time dispatch handle: lane data lives in the
/// caller's arrays, and [`PackedPermutation::permute`] transposes them
/// through the struct-of-arrays round kernels.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
/// use unizk_hash::{poseidon_permute, PackedPermutation, WIDTH};
///
/// let mut lanes = [[Goldilocks::from_u64(7); WIDTH]; 4];
/// PackedPermutation::<4>::permute(&mut lanes);
///
/// let mut scalar = [Goldilocks::from_u64(7); WIDTH];
/// poseidon_permute(&mut scalar);
/// assert_eq!(lanes[0], scalar); // lockstep lanes equal the scalar path
/// ```
#[derive(Clone, Copy, Debug)]
pub struct PackedPermutation<const LANES: usize>;

impl<const LANES: usize> PackedPermutation<LANES> {
    /// The lane count of this instantiation.
    pub const LANES: usize = LANES;

    /// Applies the Poseidon permutation to every lane in lockstep.
    ///
    /// Bit-identical to `LANES` calls of
    /// [`poseidon_permute`].
    pub fn permute(states: &mut [[Goldilocks; WIDTH]; LANES]) {
        let mut soa = [[0u64; LANES]; WIDTH];
        for (l, st) in states.iter().enumerate() {
            for (row, x) in soa.iter_mut().zip(st.iter()) {
                row[l] = x.as_canonical_u64();
            }
        }
        permute_soa(&mut soa);
        for (l, st) in states.iter_mut().enumerate() {
            for (row, x) in soa.iter().zip(st.iter_mut()) {
                *x = Goldilocks::from_residue(row[l]);
            }
        }
    }
}

/// Permutes a batch of sponge states: whole groups of 8 (`BATCH_LANES`)
/// states go through the packed kernels, the remainder through the scalar
/// permutation.
///
/// Bit-identical to permuting each state with [`poseidon_permute`]. Does
/// not touch trace counters — batched sponge dispatchers account their own
/// logical permutation counts.
#[inline(never)]
pub fn permute_batch(states: &mut [[Goldilocks; WIDTH]]) {
    let mut groups = states.chunks_exact_mut(BATCH_LANES);
    for group in &mut groups {
        let group: &mut [[Goldilocks; WIDTH]; BATCH_LANES] =
            group.try_into().expect("chunks_exact_mut yields whole groups");
        PackedPermutation::permute(group);
    }
    for s in groups.into_remainder() {
        poseidon_permute(s);
    }
}

impl NoncePermutation {
    /// Runs `LANES` nonce-lane permutations in lockstep, sharing the
    /// hoisted static round-0 work across every candidate.
    ///
    /// Lane `l` of the result equals
    /// [`permute_with`](NoncePermutation::permute_with)`(xs[l])`.
    pub fn permute_many<const LANES: usize>(
        &self,
        xs: &[Goldilocks; LANES],
    ) -> [[Goldilocks; WIDTH]; LANES] {
        let cs = constants();
        let mut state = self.round_zero_lanes(xs);
        Self::middle_rounds_lanes(cs, &mut state);
        full_round_lanes(cs, &mut state, FULL_ROUNDS - 1);
        let mut out = [[Goldilocks::ZERO; WIDTH]; LANES];
        for (l, st) in out.iter_mut().enumerate() {
            for (row, x) in state.iter().zip(st.iter_mut()) {
                *x = Goldilocks::from_residue(row[l]);
            }
        }
        out
    }

    /// [`permute_many`](NoncePermutation::permute_many), but computes only
    /// output element `row` — the shape of the grind, which squeezes one
    /// rate element per attempt, so the final round's MDS pays one row
    /// instead of twelve.
    ///
    /// # Panics
    ///
    /// Panics if `row >= WIDTH`.
    pub fn permute_many_row<const LANES: usize>(
        &self,
        xs: &[Goldilocks; LANES],
        row: usize,
    ) -> [Goldilocks; LANES] {
        assert!(row < WIDTH, "output row out of range");
        let cs = constants();
        let mut state = self.round_zero_lanes(xs);
        Self::middle_rounds_lanes(cs, &mut state);
        sbox_layer_lanes(cs, &mut state, FULL_ROUNDS - 1);
        let lanes = mat_row_lanes(&cs.mds, &state, row);
        let mut out = [Goldilocks::ZERO; LANES];
        for (x, &l) in out.iter_mut().zip(lanes.iter()) {
            *x = Goldilocks::from_residue(l);
        }
        out
    }

    /// Round 0 with the static lanes hoisted: one s-box and one
    /// accumulator join per nonce candidate, identical to the scalar
    /// [`permute_with`](NoncePermutation::permute_with) entry.
    fn round_zero_lanes<const LANES: usize>(
        &self,
        xs: &[Goldilocks; LANES],
    ) -> [[u64; LANES]; WIDTH] {
        let mut sx = [0u64; LANES];
        for (s, x) in sx.iter_mut().zip(xs.iter()) {
            *s = sbox_residue(Goldilocks::add_residue(x.as_canonical_u64(), self.nonce_rc));
        }
        let mut state = [[0u64; LANES]; WIDTH];
        for ((row, &acc), &col) in state
            .iter_mut()
            .zip(self.static_acc.iter())
            .zip(self.nonce_col.iter())
        {
            let col = u128::from(col);
            for (y, &s) in row.iter_mut().zip(sx.iter()) {
                *y = Goldilocks::reduce96_residue(acc + col * u128::from(s));
            }
        }
        state
    }

    /// Rounds 1 through `FULL_ROUNDS - 2` plus the partial block — shared
    /// by the full-state and single-row exits.
    fn middle_rounds_lanes<const LANES: usize>(
        cs: &PoseidonConstants,
        state: &mut [[u64; LANES]; WIDTH],
    ) {
        for r in 1..FULL_ROUNDS / 2 {
            full_round_lanes(cs, state, r);
        }
        pre_partial_lanes(cs, state);
        for r in 0..PARTIAL_ROUNDS {
            partial_round_lanes(cs, state, r);
        }
        for r in FULL_ROUNDS / 2..FULL_ROUNDS - 1 {
            full_round_lanes(cs, state, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::PrimeField64;
    use unizk_testkit::prop::prelude::*;
    use unizk_testkit::rng::SplitMix64;

    fn random_state(rng: &mut SplitMix64) -> [Goldilocks; WIDTH] {
        let mut st = [Goldilocks::ZERO; WIDTH];
        for x in st.iter_mut() {
            *x = Goldilocks::random(rng);
        }
        st
    }

    fn packed_case<const LANES: usize>(rng: &mut SplitMix64) {
        let mut lanes = [[Goldilocks::ZERO; WIDTH]; LANES];
        for st in lanes.iter_mut() {
            *st = random_state(rng);
        }
        let mut expected = lanes;
        for st in expected.iter_mut() {
            poseidon_permute(st);
        }
        PackedPermutation::<LANES>::permute(&mut lanes);
        assert_eq!(lanes, expected, "LANES={LANES}");
    }

    #[test]
    fn packed_matches_scalar_for_every_width() {
        let mut rng = SplitMix64::seed_from_u64(0x9ACCED);
        for _ in 0..4 {
            packed_case::<1>(&mut rng);
            packed_case::<2>(&mut rng);
            packed_case::<3>(&mut rng);
            packed_case::<4>(&mut rng);
            packed_case::<8>(&mut rng);
        }
    }

    #[test]
    fn permute_batch_matches_scalar_with_remainder() {
        let mut rng = SplitMix64::seed_from_u64(0xBA7C);
        // 19 states: two packed groups of 8 plus a 3-state scalar tail.
        let mut states: Vec<[Goldilocks; WIDTH]> = (0..19).map(|_| random_state(&mut rng)).collect();
        let mut expected = states.clone();
        for st in expected.iter_mut() {
            poseidon_permute(st);
        }
        permute_batch(&mut states);
        assert_eq!(states, expected);
    }

    #[test]
    fn nonce_lanes_match_scalar_nonce_permutation() {
        let mut rng = SplitMix64::seed_from_u64(0x40CE);
        let base = random_state(&mut rng);
        let hoisted = NoncePermutation::new(&base, 3);
        let xs = [0u64, 1, 42, u64::MAX].map(Goldilocks::from_u64);
        let packed = hoisted.permute_many(&xs);
        for (l, &x) in xs.iter().enumerate() {
            assert_eq!(packed[l], hoisted.permute_with(x), "lane {l}");
        }
        for row in 0..WIDTH {
            let rows = hoisted.permute_many_row(&xs, row);
            let expected: Vec<Goldilocks> = packed.iter().map(|lane| lane[row]).collect();
            assert_eq!(rows.to_vec(), expected, "row {row}");
        }
    }

    /// Every lockstep kernel at width `LANES` against the dense reference:
    /// the packed permutation on `states[..LANES]`, and the hoisted-nonce
    /// full-state and single-row exits with `states[l][nonce_lane]` as lane
    /// `l`'s candidate over the static lanes of `states[0]`.
    fn check_lockstep_width<const LANES: usize>(states: &[[Goldilocks; WIDTH]; 8], nonce_lane: usize) {
        use crate::poseidon::permute_dense_reference;

        let mut packed: [[Goldilocks; WIDTH]; LANES] = core::array::from_fn(|l| states[l]);
        let mut want = packed;
        want.iter_mut().for_each(permute_dense_reference);
        PackedPermutation::<LANES>::permute(&mut packed);
        assert_eq!(packed, want, "LANES={LANES}");

        let hoisted = NoncePermutation::new(&states[0], nonce_lane);
        let xs: [Goldilocks; LANES] = core::array::from_fn(|l| states[l][nonce_lane]);
        let want: [[Goldilocks; WIDTH]; LANES] = core::array::from_fn(|l| {
            let mut full = states[0];
            full[nonce_lane] = xs[l];
            permute_dense_reference(&mut full);
            full
        });
        assert_eq!(hoisted.permute_many(&xs), want, "LANES={LANES}, nonce lane {nonce_lane}");
        for row in 0..WIDTH {
            assert_eq!(
                hoisted.permute_many_row(&xs, row),
                want.map(|full| full[row]),
                "LANES={LANES}, nonce lane {nonce_lane}, row {row}"
            );
        }
    }

    fn check_lockstep_kernels(states: &[[Goldilocks; WIDTH]; 8], nonce_lane: usize) {
        check_lockstep_width::<1>(states, nonce_lane);
        check_lockstep_width::<2>(states, nonce_lane);
        check_lockstep_width::<4>(states, nonce_lane);
        check_lockstep_width::<8>(states, nonce_lane);
    }

    #[test]
    fn lockstep_kernels_match_dense_reference_at_the_extremes() {
        let extremes = crate::poseidon::extreme_states();
        for (i, group) in extremes.windows(8).enumerate() {
            let states = core::array::from_fn(|l| group[l].map(Goldilocks::from_u64));
            check_lockstep_kernels(&states, i % WIDTH);
        }
    }

    prop! {
        #![cases(16)]

        fn lockstep_kernels_match_dense_reference(
            seed in any::<u64>(),
            nonce_lane in 0usize..WIDTH,
        ) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let states = core::array::from_fn(|_| random_state(&mut rng));
            check_lockstep_kernels(&states, nonce_lane);
        }
    }

    #[test]
    #[should_panic(expected = "output row out of range")]
    fn permute_many_row_rejects_bad_row() {
        let hoisted = NoncePermutation::new(&[Goldilocks::ZERO; WIDTH], 0);
        let _ = hoisted.permute_many_row(&[Goldilocks::ZERO; 2], WIDTH);
    }
}
