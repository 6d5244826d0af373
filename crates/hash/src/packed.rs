//! The Poseidon round kernels: `LANES` width-12 sponges permuted in lockstep.
//!
//! This is the software analogue of the paper's VSA vector mode (§5): one
//! shared round-constant / MDS schedule drives `LANES` independent sponge
//! states laid out struct-of-arrays — `state[i][l]` is lane `l`'s element
//! `i` — so every field operation of the round schedule is issued once per
//! *element row* and executed across all lanes. One permutation's round
//! structure is latency-bound (22 partial rounds form one serial s-box
//! chain); packing gives the core `LANES` independent chains to overlap,
//! which is where the throughput comes from.
//!
//! These are the crate's only Poseidon round kernels, and `walk_rounds` is
//! the only place that sequences them: the width is a parameter, not a
//! second datapath. [`crate::poseidon_permute`] is the one-lane case,
//! [`permute_batch`] the eight-lane one with a one-lane remainder, and the
//! grind kernel ([`NoncePermutation::permute_many_row`]) enters the same
//! walk after its hoisted round 0 and leaves it before the last MDS
//! product. Every width performs, per lane, the identical residue-domain
//! operation sequence; the unit tests hold each of them to the dense
//! oracle in [`crate::poseidon`].
//!
//! # Lane width
//!
//! The kernels are const-generic over the lane count so the tests can
//! instantiate any width, but the prover runs two: single permutations
//! (challenger duplexes, Merkle openings, batch remainders) take one lane,
//! batched dispatches ([`permute_batch`]) and the grind eight. Widths 4
//! and 8 measure within 2 % of each other and both ahead of 2 and 1
//! (EXPERIMENTS.md, "Lane-packed Poseidon"), so there is nothing for a
//! setting to choose between.

use unizk_field::Goldilocks;

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
/// lanes overlap (one chain alone is the permutation's latency
/// bottleneck). Per lane, the multiply order of
/// [`sbox_residue`](crate::poseidon::sbox_residue).
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
/// processed [`DOT_BLOCK`] lanes at a time. Twelve `u128` partial
/// products of a `< 2^7` constant and a `< 2^64` residue sum to under
/// `2^75 < 2^96`, so each output pays one [`Goldilocks::reduce96_residue`]
/// instead of twelve modular multiplies plus a full 128-bit reduction —
/// the software analogue of the cheap constant multipliers the hardware
/// MDS step enjoys.
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
pub(crate) fn mat_lanes<const LANES: usize>(
    m: &[[Goldilocks; WIDTH]; WIDTH],
    state: &[[u64; LANES]; WIDTH],
) -> [[u64; LANES]; WIDTH] {
    let mut out = [[0u64; LANES]; WIDTH];
    for (o, row) in out.iter_mut().zip(m.iter()) {
        row_dot_lanes(row, state, o);
    }
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

/// The circulant MDS product of a full round. It runs per lane on a
/// gathered column: the transform is a fixed network of narrow adds and
/// constant products with nothing to share across lanes.
fn mds_layer_lanes<const LANES: usize>(state: &mut [[u64; LANES]; WIDTH]) {
    for l in 0..LANES {
        let column = mds_circulant(&core::array::from_fn(|i| state[i][l]));
        for (row, x) in state.iter_mut().zip(column) {
            row[l] = x;
        }
    }
}

pub(crate) fn full_round_lanes<const LANES: usize>(
    cs: &PoseidonConstants,
    state: &mut [[u64; LANES]; WIDTH],
    r: usize,
) {
    sbox_layer_lanes(cs, state, r);
    mds_layer_lanes(state);
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

pub(crate) fn partial_round_lanes<const LANES: usize>(
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
    // E[i]·state[i]. All entries are < 2^7, so both the 12-term dot and
    // each two-term row update stay below 2^96 and take the short reduction.
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

/// The round schedule, spelled once for every width and every caller: full
/// rounds `first..4`, the pre-partial round, the 22 partial rounds, full
/// rounds 4..7, and the constant and S-box layer of round 7. That round's
/// MDS product is left to the caller — the permutation wants all twelve
/// rows of it ([`mds_layer_lanes`]), the grind one ([`row_dot_lanes`]) —
/// and `first` is 1 for the grind, whose round 0 is hoisted
/// ([`NoncePermutation::permute_many_row`]).
#[inline(always)]
fn walk_rounds<const LANES: usize>(state: &mut [[u64; LANES]; WIDTH], first: usize) {
    let cs = constants();
    for r in first..FULL_ROUNDS / 2 {
        full_round_lanes(cs, state, r);
    }
    pre_partial_lanes(cs, state);
    for r in 0..PARTIAL_ROUNDS {
        partial_round_lanes(cs, state, r);
    }
    for r in FULL_ROUNDS / 2..FULL_ROUNDS - 1 {
        full_round_lanes(cs, state, r);
    }
    sbox_layer_lanes(cs, state, FULL_ROUNDS - 1);
}

/// The permutation on a struct-of-arrays residue state.
///
/// Kept out of line, like [`permute_batch`]: inlined into the sponge
/// dispatchers the 8-lane kernel measured 5 % slower per permutation
/// (`hash.poseidon_batch_ns_per_perm`, both Merkle rows of the benchmark).
#[inline(never)]
fn permute_soa<const LANES: usize>(state: &mut [[u64; LANES]; WIDTH]) {
    walk_rounds(state, 0);
    mds_layer_lanes(state);
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
/// assert_eq!(lanes[0], scalar); // every width is the same permutation
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
/// states walk the rounds in lockstep, the remainder one lane at a time.
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
    /// Output element `row` of `LANES` permutations that differ only in
    /// the nonce lane, in lockstep — the shape of the grind, which squeezes
    /// one rate element per attempt. The hoisted round 0 stands in for the
    /// schedule's first round, and the last round's MDS pays one row
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
        let mut state = self.round_zero_lanes(xs);
        walk_rounds(&mut state, 1);
        let mut out = [0u64; LANES];
        row_dot_lanes(&constants().mds[row], &state, &mut out);
        out.map(Goldilocks::from_residue)
    }

    /// Round 0 with the static lanes hoisted: one s-box and one
    /// accumulator join per nonce candidate.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poseidon::{extreme_states, permute_dense_reference};
    use unizk_field::{Field, PrimeField64};
    use unizk_testkit::prop::prelude::*;
    use unizk_testkit::rng::SplitMix64;

    fn random_state(rng: &mut SplitMix64) -> [Goldilocks; WIDTH] {
        let mut st = [Goldilocks::ZERO; WIDTH];
        for x in st.iter_mut() {
            *x = Goldilocks::random(rng);
        }
        st
    }

    #[test]
    fn permute_batch_matches_scalar_with_remainder() {
        let mut rng = SplitMix64::seed_from_u64(0xBA7C);
        // Every split into eight-lane groups and a one-lane remainder: no
        // group, a bare remainder, whole groups, groups plus 1..=7.
        for len in 0..=17 {
            let mut states: Vec<[Goldilocks; WIDTH]> = (0..len).map(|_| random_state(&mut rng)).collect();
            let mut expected = states.clone();
            expected.iter_mut().for_each(poseidon_permute);
            permute_batch(&mut states);
            assert_eq!(states, expected, "len={len}");
        }
    }

    /// The one kernel at width `LANES` against the dense reference: the
    /// permutation on `states[..LANES]`, and every output row of the
    /// hoisted-nonce walk with `states[l][nonce_lane]` as lane `l`'s
    /// candidate over the static lanes of `states[0]`.
    fn check_lockstep_width<const LANES: usize>(states: &[[Goldilocks; WIDTH]; 8], nonce_lane: usize) {
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
        for (i, group) in extreme_states().windows(8).enumerate() {
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
