//! The Poseidon round kernels: a group of width-12 sponges permuted in
//! lockstep, generic over the *row type*.
//!
//! This is the software analogue of the paper's VSA vector mode (§5): one
//! shared round-constant / MDS schedule drives several independent sponge
//! states laid out struct-of-arrays — row `i` of the state holds element
//! `i` of every lane — so every field operation of the round schedule is
//! issued once per *element row* and executed across all lanes. One
//! permutation's round structure is latency-bound (22 partial rounds form
//! one serial s-box chain); packing gives the core independent chains to
//! overlap, which is where the throughput comes from.
//!
//! # One schedule, the row type is the parameter
//!
//! These are the crate's only Poseidon round kernels, and `walk_rounds` is
//! the only place that sequences them. What a row *is* — how its lanes are
//! stored and how the handful of residue operations run across them — is
//! the crate-private `Row` trait: load/store, add a canonical constant, the
//! `x^7` S-box, accumulate small-constant products and fold them, and the
//! full-round linear layer. It has two implementations:
//!
//! * `[u64; N]`, plain arrays at any width: scalar `mulq` arithmetic per
//!   lane, the frequency-domain circulant for the linear layer. This is the
//!   reference, the one-lane path on every host ([`crate::poseidon_permute`]:
//!   challenger duplexes, Merkle openings, short remainders) and the
//!   eight-lane path wherever the vector rows are not available.
//! * AVX-512 registers of eight lanes (module `avx512`, x86-64 only):
//!   `vpmuludq` on 32-bit halves, a dense linear layer, about a fifth of
//!   the instructions per permutation (EXPERIMENTS.md, "Vector rows"). A
//!   row is four registers for whole groups of 32 states, so that four
//!   serial S-box chains overlap, and one for the groups of a batch's
//!   remainder (EXPERIMENTS.md, "Four chains per row").
//!
//! The dispatchers — [`permute_batch`] and
//! [`NoncePermutation::permute_many_row`] — reach a row type through
//! `Kernels`, its two kernels at one lane count, and pick it once per call
//! from `is_x86_feature_detected!("avx512f")`: with it, whole groups of 32
//! on four-register rows, then groups of 8 on one-register rows; without
//! it, groups of 8 on array rows; the rest one lane at a time (or, for a
//! batch on vector rows, as one padded group). Nothing else chooses (no
//! feature, environment variable, setter or build flag). Every row type
//! computes the same function on canonical values: an intermediate residue
//! may be the other representative of its class, which
//! [`Goldilocks::from_residue`] erases, so no output bit depends on the host
//! or the grouping. The unit tests hold each row type to the dense oracle
//! in [`crate::poseidon`] and each vector primitive to its scalar
//! counterpart.
//!
//! # `unsafe`
//!
//! The AVX-512 intrinsics need `#[target_feature]` functions, which only
//! `unsafe` can enter from code compiled without the feature. In this
//! crate all of it lives in `avx512`, the one module of the crate that
//! allows `unsafe_code` — these kernels' vector rows in the module itself,
//! the sixteen-lane rows of [`crate::poseidon2_kb`] in its child
//! `avx512::koalabear`, behind the same detection. The workspace has one
//! other such module, `unizk_field::lanes::avx512` (the lanes of the
//! polynomial layer and the vector products these rows import);
//! `scripts/ci.sh` holds that fence of two modules, and checks in the
//! release binary that the vector entry points of both fields are there
//! and contain no `call` — i.e. that every intrinsic was inlined and no
//! state goes through `memcpy`, which no test can see.
//!
//! # Lane width
//!
//! The array kernels are const-generic over the lane count so the tests can
//! instantiate any width, but the prover runs few: single permutations take
//! one lane; batched dispatches and the grind take 32 on vector rows (8 for
//! a batch's remainder) and 8 on array rows. Array widths 4 and 8 measure
//! within 2 % of each other and both ahead of 2 and 1 (EXPERIMENTS.md,
//! "Lane-packed Poseidon"); vector rows of two registers come within
//! 1–4 % of four on the kernel but trail them by 3 % end to end, and eight
//! gain nothing over four (EXPERIMENTS.md, "Four chains per row"). There is
//! nothing for a setting to choose between.

use unizk_field::{Field, Goldilocks};

use crate::poseidon::{
    constants, mds_circulant, poseidon_permute, NoncePermutation, PoseidonConstants, FULL_ROUNDS,
    PARTIAL_ROUNDS, WIDTH,
};

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;

/// Sponges per packed group in [`permute_batch`] on array rows, and per
/// group of a remainder on vector rows (see the module docs for the
/// measurement behind the width).
const BATCH_LANES: usize = 8;

/// Sponges per group on the four-register vector rows: four chains per
/// walk (EXPERIMENTS.md, "Four chains per row").
#[cfg(target_arch = "x86_64")]
const VECTOR_LANES: usize = 32;

/// The shortest remainder of eight-lane groups that the vector rows take
/// as one zero-padded group. A one-register group costs the same whatever
/// its lanes hold — about four one-lane walks (EXPERIMENTS.md, "Vector
/// rows", re-measured in "Four chains per row") — so from four states up
/// padding wins, and below it the remainder goes one lane at a time, as it
/// always does on array rows.
#[cfg(target_arch = "x86_64")]
const VECTOR_PAD_FROM: usize = 4;

// ------------------------------------------------------------------- rows

/// One element row of the lockstep state: the same state position of every
/// lane, as residues (`< 2^64`, congruent to the element, not necessarily
/// canonical — see [`Goldilocks::reduce128_residue`]).
///
/// These are the operations `walk_rounds` is made of; everything above
/// them is written once. Implementations must agree on canonical values
/// (`from_residue` of every lane), not on the representative.
///
/// Each implementation also chooses where its operations may be left out
/// of line. The round kernels below are `#[inline(always)]` glue; the array
/// rows mark their heavy operations `#[inline]` and let the optimizer place
/// them (at eight lanes it keeps the S-box, the dot product and the linear
/// layer as functions, which measured 7 % faster than one flat body), while
/// the vector rows must inline everything (see the `avx512` module).
pub(crate) trait Row: Copy {
    /// The lanes as plain residues, in lane order.
    type Lanes: Copy;
    /// A sum of small-constant products before its one reduction.
    type Acc: Copy;

    fn load(lanes: &Self::Lanes) -> Self;
    fn store(self) -> Self::Lanes;

    /// Adds a **canonical** constant `c < p` to every lane (one carry fold,
    /// as [`Goldilocks::add_residue`]).
    fn add_const(self, c: u64) -> Self;

    /// `x^7` on every lane: four residue × residue products, in the
    /// multiply order of [`sbox_residue`](crate::poseidon::sbox_residue).
    fn sbox(self) -> Self;

    /// An accumulator holding `init < 2^80` in every lane.
    fn acc(init: u128) -> Self::Acc;

    /// `acc + c·x` per lane, unreduced, for a constant `c < 2^9`. An
    /// accumulator takes at least 2^12 such terms on top of its `init`
    /// before [`Row::reduce`] — the matrix entries are below 2^7, so twelve
    /// of them stay far inside.
    fn mac(acc: Self::Acc, c: u64, x: Self) -> Self::Acc;

    /// Folds an accumulator (below 2^96) to a row of residues.
    fn reduce(acc: Self::Acc) -> Self;

    /// The full-round linear layer `mds · state`, each row type its own
    /// way.
    fn mds_layer(state: &mut [Self; WIDTH]);

    /// Small-constant dot product of one matrix row against the state:
    /// twelve [`Row::mac`] terms and their [`Row::reduce`]. A row type
    /// overrides it only to order the same accumulations differently.
    #[inline(always)]
    fn dot(row: &[Goldilocks; WIDTH], state: &[Self; WIDTH]) -> Self {
        // Spelled out term by term: inside a vector instantiation the
        // optimizer leaves a twelve-trip loop rolled, which re-splits every
        // state row into halves for every output row.
        macro_rules! terms {
            ($($j:literal)*) => {{
                let acc = Self::acc(0);
                $(let acc = Self::mac(acc, row[$j].as_canonical_u64(), state[$j]);)*
                acc
            }};
        }
        Self::reduce(terms!(0 1 2 3 4 5 6 7 8 9 10 11))
    }

    /// The sparse rows of a partial round, `state[i] = v[i]·s0 +
    /// e[i]·state[i]` for `i` in 1..12: two [`Row::mac`] terms and a
    /// [`Row::reduce`] each. A row type overrides it only to order the same
    /// accumulations differently.
    #[inline(always)]
    fn sparse_rows(v: &[Goldilocks; WIDTH], e: &[Goldilocks; WIDTH], s0: Self, state: &mut [Self; WIDTH]) {
        // Spelled out row by row, like `dot`: rolled, the loop kept a vector
        // instantiation's rows in memory (12 % slower at one register,
        // EXPERIMENTS.md, "Four chains per row").
        macro_rules! rows {
            ($($i:literal)*) => {$(
                let acc = Self::mac(Self::acc(0), v[$i].as_canonical_u64(), s0);
                state[$i] = Self::reduce(Self::mac(acc, e[$i].as_canonical_u64(), state[$i]));
            )*};
        }
        rows!(1 2 3 4 5 6 7 8 9 10 11);
    }
}

/// Accumulator block width of the array rows' dot product. Four `u128`
/// accumulators fit the general-purpose register file, so the inner
/// multiply-accumulate loop runs without accumulator spill traffic while
/// still overlapping enough independent multiply chains to hide latency;
/// an 8-lane accumulator array, by contrast, lives in memory and pays a
/// load/store pair per fused multiply-add.
const DOT_BLOCK: usize = 4;

/// Plain lanes: per-lane scalar arithmetic, fully unrolled by the compiler
/// for the fixed widths the dispatchers instantiate.
impl<const N: usize> Row for [u64; N] {
    type Lanes = Self;
    type Acc = [u128; N];

    #[inline(always)]
    fn load(lanes: &Self) -> Self {
        *lanes
    }

    #[inline(always)]
    fn store(self) -> Self {
        self
    }

    #[inline(always)]
    fn add_const(mut self, c: u64) -> Self {
        for x in &mut self {
            *x = Goldilocks::add_residue(*x, c);
        }
        self
    }

    /// Interleaved so the four-multiply chains of all lanes overlap (one
    /// chain alone is the permutation's latency bottleneck).
    #[inline]
    fn sbox(self) -> Self {
        let mut x2 = [0u64; N];
        for (y, &x) in x2.iter_mut().zip(self.iter()) {
            *y = Goldilocks::mul_residue(x, x);
        }
        let mut x4 = [0u64; N];
        for (y, &x) in x4.iter_mut().zip(x2.iter()) {
            *y = Goldilocks::mul_residue(x, x);
        }
        let mut x6 = [0u64; N];
        for (y, (&a, &b)) in x6.iter_mut().zip(x4.iter().zip(x2.iter())) {
            *y = Goldilocks::mul_residue(a, b);
        }
        let mut x7 = self;
        for (x, &a) in x7.iter_mut().zip(x6.iter()) {
            *x = Goldilocks::mul_residue(a, *x);
        }
        x7
    }

    #[inline(always)]
    fn acc(init: u128) -> Self::Acc {
        [init; N]
    }

    /// `u128` partial products of a `< 2^7` constant and a `< 2^64` residue:
    /// twelve of them sum to under `2^75 < 2^96`, so each output pays one
    /// [`Goldilocks::reduce96_residue`] instead of twelve modular
    /// multiplies plus a full 128-bit reduction — the software analogue of
    /// the cheap constant multipliers the hardware MDS step enjoys.
    #[inline(always)]
    fn mac(mut acc: Self::Acc, c: u64, x: Self) -> Self::Acc {
        let c = u128::from(c);
        for (a, &x) in acc.iter_mut().zip(x.iter()) {
            *a += c * u128::from(x);
        }
        acc
    }

    #[inline(always)]
    fn reduce(acc: Self::Acc) -> Self {
        acc.map(Goldilocks::reduce96_residue)
    }

    /// The circulant in its 3 × 4 frequency form, per lane on a gathered
    /// column: the transform is a fixed network of narrow adds and constant
    /// products with nothing to share across lanes.
    #[inline]
    fn mds_layer(state: &mut [Self; WIDTH]) {
        for l in 0..N {
            let column = mds_circulant(&core::array::from_fn(|i| state[i][l]));
            for (row, x) in state.iter_mut().zip(column) {
                row[l] = x;
            }
        }
    }

    /// One row at a time: spelled out row by row, the 8-lane array kernel
    /// measured 12 % slower.
    #[inline(always)]
    fn sparse_rows(v: &[Goldilocks; WIDTH], e: &[Goldilocks; WIDTH], s0: Self, state: &mut [Self; WIDTH]) {
        for i in 1..WIDTH {
            let acc = Self::mac(Self::acc(0), v[i].as_canonical_u64(), s0);
            state[i] = Self::reduce(Self::mac(acc, e[i].as_canonical_u64(), state[i]));
        }
    }

    /// [`DOT_BLOCK`] lanes at a time.
    #[inline]
    fn dot(row: &[Goldilocks; WIDTH], state: &[Self; WIDTH]) -> Self {
        let mut out = [0u64; N];
        let mut l = 0;
        while l + DOT_BLOCK <= N {
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
        while l < N {
            let mut acc = 0u128;
            for (c, xs) in row.iter().zip(state.iter()) {
                acc += u128::from(c.as_canonical_u64()) * u128::from(xs[l]);
            }
            out[l] = Goldilocks::reduce96_residue(acc);
            l += 1;
        }
        out
    }
}

// ---------------------------------------------------------- round kernels
//
// Generic over the row type and `#[inline(always)]` down to the row
// operations: an instantiation over the vector rows must dissolve into its
// `#[target_feature]` entry point, because a generic function cannot carry
// the attribute itself and an intrinsic is only inlined into code that has
// the feature enabled. For the same reason nothing here hands a closure to
// a library helper (`array::from_fn`, `array::map`): the helper is one more
// function without the feature, and it was left out of line.

/// Dense small-entry matrix–vector product across lanes, in place.
#[inline(always)]
pub(crate) fn mat_rows<R: Row>(m: &[[Goldilocks; WIDTH]; WIDTH], state: &mut [R; WIDTH]) {
    let input = *state;
    for (x, row) in state.iter_mut().zip(m.iter()) {
        *x = R::dot(row, &input);
    }
}

/// The add-constant + s-box layer of full round `r`.
#[inline(always)]
fn sbox_layer<R: Row>(cs: &PoseidonConstants, state: &mut [R; WIDTH], r: usize) {
    for (x, c) in state.iter_mut().zip(cs.round_constants[r].iter()) {
        *x = x.add_const(c.as_canonical_u64()).sbox();
    }
}

#[inline(always)]
pub(crate) fn full_round<R: Row>(cs: &PoseidonConstants, state: &mut [R; WIDTH], r: usize) {
    sbox_layer(cs, state, r);
    R::mds_layer(state);
}

#[inline(always)]
fn pre_partial_round<R: Row>(cs: &PoseidonConstants, state: &mut [R; WIDTH]) {
    for (x, c) in state.iter_mut().zip(cs.pre_partial_constants.iter()) {
        *x = x.add_const(c.as_canonical_u64());
    }
    mat_rows(&cs.pre_mds, state);
}

#[inline(always)]
pub(crate) fn partial_round<R: Row>(cs: &PoseidonConstants, state: &mut [R; WIDTH], r: usize) {
    let s0 = state[0].sbox().add_const(cs.partial_round_constants[r].as_canonical_u64());
    state[0] = s0;

    // Sparse MDS, per lane: out[0] = u·state; out[i] = v[i]·state[0] +
    // E[i]·state[i]. All entries are < 2^7, so both the 12-term dot and
    // each two-term row update stay below 2^96 and take the short reduction.
    let dot = R::dot(&cs.sparse_u[r], state);
    R::sparse_rows(&cs.sparse_v[r], &cs.sparse_diag[r], s0, state);
    state[0] = dot;
}

/// The round schedule, spelled once for every row type and every caller:
/// full rounds `first..4`, the pre-partial round, the 22 partial rounds,
/// full rounds 4..7, and the constant and S-box layer of round 7. That
/// round's MDS product is left to the caller — the permutation wants all
/// twelve rows of it ([`Row::mds_layer`]), the grind one ([`Row::dot`]) —
/// and `first` is 1 for the grind, whose round 0 is hoisted
/// (`round_zero`).
#[inline(always)]
fn walk_rounds<R: Row>(state: &mut [R; WIDTH], first: usize) {
    let cs = constants();
    for r in first..FULL_ROUNDS / 2 {
        full_round(cs, state, r);
    }
    pre_partial_round(cs, state);
    for r in 0..PARTIAL_ROUNDS {
        partial_round(cs, state, r);
    }
    for r in FULL_ROUNDS / 2..FULL_ROUNDS - 1 {
        full_round(cs, state, r);
    }
    sbox_layer(cs, state, FULL_ROUNDS - 1);
}

/// The permutation on a struct-of-arrays residue state, on rows of type
/// `R`.
#[inline(always)]
fn permute_rows<R: Row>(soa: &mut [R::Lanes; WIDTH]) {
    macro_rules! rows {
        ($($i:literal)*) => { [$(R::load(&soa[$i])),*] };
    }
    let mut state = rows!(0 1 2 3 4 5 6 7 8 9 10 11);
    walk_rounds(&mut state, 0);
    R::mds_layer(&mut state);
    for (lanes, x) in soa.iter_mut().zip(state) {
        *lanes = x.store();
    }
}

/// Output row `mds_row · state` of the permutations of `nonce`'s static
/// lanes with each lane of `xs` as the candidate, on rows of type `R`: the
/// hoisted round 0 stands in for the schedule's first round, and the last
/// round's MDS pays one row instead of twelve.
#[inline(always)]
fn nonce_row<R: Row>(
    nonce: &NoncePermutation,
    xs: &R::Lanes,
    mds_row: &[Goldilocks; WIDTH],
) -> R::Lanes {
    // Round 0 with the static lanes hoisted: one s-box and one accumulator
    // join per nonce candidate.
    let sx = R::load(xs).add_const(nonce.nonce_rc).sbox();
    let mut state = [sx; WIDTH];
    for ((x, &acc), &col) in state.iter_mut().zip(&nonce.static_acc).zip(&nonce.nonce_col) {
        *x = R::reduce(R::mac(R::acc(acc), col, sx));
    }
    walk_rounds(&mut state, 1);
    R::dot(mds_row, &state).store()
}

/// [`permute_rows`] on array rows.
///
/// Kept out of line, like [`permute_batch`]: inlined into the sponge
/// dispatchers the 8-lane kernel measured 5 % slower per permutation
/// (`hash.poseidon_batch_ns_per_perm`, both Merkle rows of the benchmark).
#[inline(never)]
fn permute_soa<const LANES: usize>(soa: &mut [[u64; LANES]; WIDTH]) {
    permute_rows::<[u64; LANES]>(soa);
}

/// The two kernels of one row type at one lane count, as the dispatchers
/// and the tests reach them: [`permute_rows`] and [`nonce_row`] on a group
/// of `LANES` residues. [`ArrayRows`] has them at every width; the vector
/// rows, behind `avx512::Detected`, at 8 and 32.
pub(crate) trait Kernels<const LANES: usize>: Copy {
    fn permute_soa(self, soa: &mut [[u64; LANES]; WIDTH]);

    fn nonce_row(
        self,
        nonce: &NoncePermutation,
        xs: &[u64; LANES],
        mds_row: &[Goldilocks; WIDTH],
    ) -> [u64; LANES];
}

/// The array rows: every host, every width.
#[derive(Clone, Copy)]
struct ArrayRows;

impl<const LANES: usize> Kernels<LANES> for ArrayRows {
    fn permute_soa(self, soa: &mut [[u64; LANES]; WIDTH]) {
        permute_soa::<LANES>(soa);
    }

    #[inline(always)]
    fn nonce_row(
        self,
        nonce: &NoncePermutation,
        xs: &[u64; LANES],
        mds_row: &[Goldilocks; WIDTH],
    ) -> [u64; LANES] {
        nonce_row::<[u64; LANES]>(nonce, xs, mds_row)
    }
}

/// Transposes `states` to struct-of-arrays residues, runs `kernel` on them
/// and transposes back, canonicalizing.
#[inline(always)]
fn permute_group<const LANES: usize>(
    states: &mut [[Goldilocks; WIDTH]; LANES],
    kernel: impl FnOnce(&mut [[u64; LANES]; WIDTH]),
) {
    let mut soa = [[0u64; LANES]; WIDTH];
    for (l, st) in states.iter().enumerate() {
        for (row, x) in soa.iter_mut().zip(st.iter()) {
            row[l] = x.as_canonical_u64();
        }
    }
    kernel(&mut soa);
    for (l, st) in states.iter_mut().enumerate() {
        for (row, x) in soa.iter().zip(st.iter_mut()) {
            *x = Goldilocks::from_residue(row[l]);
        }
    }
}

// -------------------------------------------------------------- public API

/// `LANES` width-12 Poseidon sponges permuted in lockstep on array rows.
///
/// The type is a compile-time dispatch handle: lane data lives in the
/// caller's arrays, and [`PackedPermutation::permute`] transposes them
/// through the struct-of-arrays round kernels. It runs the portable array
/// rows at every width on every host — the reference the vector rows of
/// [`permute_batch`] are tested against.
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
        permute_group(states, permute_soa::<LANES>);
    }
}

/// Permutes a batch of sponge states in lockstep groups: where the CPU has
/// AVX-512, whole groups of 32 states on four-register vector rows, then
/// groups of 8 (`BATCH_LANES`) on one-register rows; elsewhere groups of 8
/// on array rows. The remainder goes one lane at a time, or, on vector rows
/// from four states up, as one padded group of 8.
///
/// Bit-identical to permuting each state with [`poseidon_permute`]. Does
/// not touch trace counters — batched sponge dispatchers account their own
/// logical permutation counts.
#[inline(never)]
pub fn permute_batch(states: &mut [[Goldilocks; WIDTH]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(vector) = avx512::detect() {
        let rest = permute_groups::<VECTOR_LANES>(states, vector);
        return permute_tail(rest, VECTOR_PAD_FROM, vector);
    }
    permute_tail(states, BATCH_LANES, ArrayRows);
}

/// Whole groups of `LANES` states on `rows`; returns the rest.
fn permute_groups<const LANES: usize>(
    states: &mut [[Goldilocks; WIDTH]],
    rows: impl Kernels<LANES>,
) -> &mut [[Goldilocks; WIDTH]] {
    let (groups, rest) = states.as_chunks_mut::<LANES>();
    for group in groups {
        permute_group(group, |soa| rows.permute_soa(soa));
    }
    rest
}

/// The 8-lane end of [`permute_batch`] on `rows`: whole groups, then a
/// remainder of at least `pad_from` states as one zero-padded group, or
/// else one lane at a time.
fn permute_tail(states: &mut [[Goldilocks; WIDTH]], pad_from: usize, rows: impl Kernels<BATCH_LANES>) {
    let rest = permute_groups(states, rows);
    if rest.len() >= pad_from {
        let mut padded = [[Goldilocks::ZERO; WIDTH]; BATCH_LANES];
        padded[..rest.len()].copy_from_slice(rest);
        permute_group(&mut padded, |soa| rows.permute_soa(soa));
        rest.copy_from_slice(&padded[..rest.len()]);
    } else {
        rest.iter_mut().for_each(poseidon_permute);
    }
}

impl NoncePermutation {
    /// Output element `row` of `LANES` permutations that differ only in
    /// the nonce lane — the shape of the grind, which squeezes one rate
    /// element per attempt. The lanes walk in lockstep groups, as
    /// [`permute_batch`]'s states do: where the CPU has AVX-512, whole
    /// groups of 32 on four-register rows, then groups of 8 on
    /// one-register rows; elsewhere groups of 8 on array rows; the rest one
    /// lane at a time.
    ///
    /// # Panics
    ///
    /// Panics if `row >= WIDTH`.
    pub fn permute_many_row<const LANES: usize>(
        &self,
        xs: &[Goldilocks; LANES],
        row: usize,
    ) -> [Goldilocks; LANES] {
        let mut out = [Goldilocks::ZERO; LANES];
        self.permute_many_row_into(xs, &mut out, row);
        out
    }

    /// [`Self::permute_many_row`] on any number of candidates, into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= WIDTH` or if `xs` and `out` differ in length.
    pub(crate) fn permute_many_row_into(&self, xs: &[Goldilocks], out: &mut [Goldilocks], row: usize) {
        assert!(row < WIDTH, "output row out of range");
        assert_eq!(xs.len(), out.len(), "one response per candidate");
        let mds_row = &constants().mds[row];
        #[cfg(target_arch = "x86_64")]
        let (xs, out) = match avx512::detect() {
            Some(vector) => {
                let (xs, out) = self.nonce_groups::<VECTOR_LANES>(xs, out, mds_row, vector);
                self.nonce_groups::<BATCH_LANES>(xs, out, mds_row, vector)
            }
            None => (xs, out),
        };
        let (xs, out) = self.nonce_groups::<BATCH_LANES>(xs, out, mds_row, ArrayRows);
        self.nonce_groups::<1>(xs, out, mds_row, ArrayRows);
    }

    /// Whole groups of `LANES` candidates on `rows`, each output into its
    /// place in `out`; returns the rest of both.
    fn nonce_groups<'a, const LANES: usize>(
        &self,
        xs: &'a [Goldilocks],
        out: &'a mut [Goldilocks],
        mds_row: &[Goldilocks; WIDTH],
        rows: impl Kernels<LANES>,
    ) -> (&'a [Goldilocks], &'a mut [Goldilocks]) {
        let (groups, rest) = xs.as_chunks::<LANES>();
        let (out_groups, out_rest) = out.as_chunks_mut::<LANES>();
        for (xs, out) in groups.iter().zip(out_groups) {
            let xs = xs.map(|x| x.as_canonical_u64());
            *out = rows.nonce_row(self, &xs, mds_row).map(Goldilocks::from_residue);
        }
        (rest, out_rest)
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
        // Every split into groups and a remainder, twice over: no group, a
        // bare remainder, whole 8-lane groups plus 1..=7, and where the
        // vector rows run, one and two whole 32-lane groups with each of
        // those behind them.
        for len in 0..=72 {
            let mut states: Vec<[Goldilocks; WIDTH]> = (0..len).map(|_| random_state(&mut rng)).collect();
            let mut expected = states.clone();
            expected.iter_mut().for_each(poseidon_permute);
            // The padded remainder is a policy of the vector rows, but not
            // their code: hold it on the array kernel too, which every host
            // can run (from 1: always pad; from 8: never).
            for pad_from in [1, 4, BATCH_LANES] {
                let mut padded = states.clone();
                permute_tail(&mut padded, pad_from, ArrayRows);
                assert_eq!(padded, expected, "len={len}, padding from {pad_from}");
            }
            permute_batch(&mut states);
            assert_eq!(states, expected, "len={len}");
        }
    }

    /// One row type at width `LANES` against the dense reference: the
    /// permutation on `states[..LANES]`, and every output row of the
    /// hoisted-nonce walk with `states[l][nonce_lane]` as lane `l`'s
    /// candidate over the static lanes of `states[0]`.
    fn check_lockstep_rows<const LANES: usize>(
        rows: impl Kernels<LANES>,
        name: &str,
        states: &[[Goldilocks; WIDTH]; 32],
        nonce_lane: usize,
    ) {
        let mut packed: [[Goldilocks; WIDTH]; LANES] = core::array::from_fn(|l| states[l]);
        let mut want = packed;
        want.iter_mut().for_each(permute_dense_reference);
        permute_group(&mut packed, |soa| rows.permute_soa(soa));
        assert_eq!(packed, want, "{name} rows, LANES={LANES}");

        let hoisted = NoncePermutation::new(&states[0], nonce_lane);
        let xs: [Goldilocks; LANES] = core::array::from_fn(|l| states[l][nonce_lane]);
        let want: [[Goldilocks; WIDTH]; LANES] = core::array::from_fn(|l| {
            let mut full = states[0];
            full[nonce_lane] = xs[l];
            permute_dense_reference(&mut full);
            full
        });
        for (row, mds_row) in constants().mds.iter().enumerate() {
            let want = want.map(|full| full[row]);
            let got = rows.nonce_row(&hoisted, &xs.map(|x| x.as_canonical_u64()), mds_row);
            assert_eq!(
                got.map(Goldilocks::from_residue),
                want,
                "{name} rows, LANES={LANES}, nonce lane {nonce_lane}, row {row}"
            );
            // And whichever of them the public entry dispatches to.
            assert_eq!(hoisted.permute_many_row(&xs, row), want, "dispatched, LANES={LANES}, row {row}");
        }
    }

    /// Every row type this host can run: the array rows at every width, on
    /// every host, and the vector rows of one and of four registers where
    /// the CPU has them.
    fn check_lockstep_kernels(states: &[[Goldilocks; WIDTH]; 32], nonce_lane: usize) {
        check_lockstep_rows::<1>(ArrayRows, "array", states, nonce_lane);
        check_lockstep_rows::<2>(ArrayRows, "array", states, nonce_lane);
        check_lockstep_rows::<4>(ArrayRows, "array", states, nonce_lane);
        check_lockstep_rows::<8>(ArrayRows, "array", states, nonce_lane);
        #[cfg(target_arch = "x86_64")]
        if let Some(vector) = avx512::detect_or_report() {
            check_lockstep_rows::<8>(vector, "avx512", states, nonce_lane);
            check_lockstep_rows::<32>(vector, "avx512", states, nonce_lane);
        }
    }

    #[test]
    fn lockstep_kernels_match_dense_reference_at_the_extremes() {
        // Every extreme state in every lane position of a 32-lane group.
        let extremes = extreme_states();
        for i in 0..extremes.len() {
            let states = core::array::from_fn(|l| extremes[(i + l) % extremes.len()].map(Goldilocks::from_u64));
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

    /// Not a check: `scripts/ci.sh` runs this with `--nocapture` to put in
    /// its log which rows the batch and grind dispatchers of both fields
    /// take on the host (one detection decides both).
    #[test]
    fn report_dispatched_rows() {
        #[cfg(target_arch = "x86_64")]
        let vector = avx512::detect().is_some();
        #[cfg(not(target_arch = "x86_64"))]
        let vector = false;
        let (gl, kb) = if vector {
            (
                "AVX-512 vector rows, 32 lanes in four registers (a batch's remainder: 8 in one)",
                "AVX-512 vector rows, 16 lanes",
            )
        } else {
            ("array rows, 8 lanes (no avx512f)", "scalar rows, 8 states per walk (no avx512f)")
        };
        eprintln!("Poseidon dispatch: {gl}");
        eprintln!("Poseidon2-KoalaBear dispatch: {kb}");
    }

    #[test]
    #[should_panic(expected = "output row out of range")]
    fn permute_many_row_rejects_bad_row() {
        let hoisted = NoncePermutation::new(&[Goldilocks::ZERO; WIDTH], 0);
        let _ = hoisted.permute_many_row(&[Goldilocks::ZERO; 2], WIDTH);
    }
}
