//! The Poseidon2 permutation over 16 KoalaBear elements — the hash backend
//! of the 31-bit small-field proof path.
//!
//! Small-field STARK stacks (Plonky3-style) pair a 31-bit base field with a
//! wider sponge: 16 lanes × 31 bits keeps the capacity (8 lanes ≈ 248
//! bits) comfortably above the security target even though each lane
//! carries a quarter of Goldilocks' entropy.
//!
//! * **External (full) rounds** multiply by the block-circulant matrix
//!   `M_E = circ(2·M4, M4, M4, M4)` built from a fixed 4×4 `M4`, with an
//!   extra `M_E` applied to the input before the first round.
//! * **Internal (partial) rounds** use the `J + diag(d)` layer: one shared
//!   16-term sum plus a diagonal multiply per element.
//!
//! The S-box is `x^3` — valid over KoalaBear because
//! `gcd(3, p - 1) = 1` (`p - 1 = 2^24 · 127` and `127 ≡ 1 (mod 3)`),
//! checked by a unit test. Round counts are 4 + 4 external and 20
//! internal, in the neighbourhood of the Poseidon2 reference
//! instantiations for 31-bit fields.
//!
//! # How the linear layers are evaluated
//!
//! Every entry of `M_E` is at most 14, so [`external_layer`] never
//! multiplies: it runs the Poseidon2 reference add-chain for `M4` on each
//! 4-lane block and adds the four column sums, all on raw Montgomery
//! residues widened to `u64`. Montgomery form is linear, so the residue of
//! a sum is the sum of residues; the largest sum is `81·p < 2^38`, and one
//! reduction per lane — which also absorbs the next round's constant add —
//! brings it back into the field. [`internal_layer`] likewise sums its 16
//! lanes unreduced and reduces once. What is left to multiply is the
//! S-boxes and the internal diagonal: 616 Montgomery multiplications per
//! permutation ([`Poseidon2KbCost`]) where the dense 16×16 product took
//! 2 920. The dense matrix survives in [`Poseidon2KbConstants`] only as
//! the oracle the tests compare against.
//!
//! That is how the scalar rows evaluate them. The scalar permutation, the
//! batch path and the speculative grind kernel are one walk of the round
//! schedule (`permute_lockstep`) over a slice of states, generic over the
//! row type: [`KoalaBear`] itself — one state per lane of the walk — or
//! sixteen states in one AVX-512 register (`crate::packed::avx512`, the
//! crate's one `unsafe` module), where 32-bit lanes have no room for
//! unreduced sums and every addition is modular. The batch and grind
//! dispatchers of [`Poseidon2KbSponge`] take the vector rows when
//! `is_x86_feature_detected!("avx512f")` holds; nothing else chooses, and
//! both row types produce the same canonical residues.
//!
//! **Substitution note (see DESIGN.md):** round constants and the internal
//! diagonal are generated deterministically from a seed, like every other
//! constant set in this repository; `M4` uses the literal entries from the
//! Poseidon2 reference instantiation.

use unizk_field::{Field, KoalaBear, PrimeField64};

#[cfg(target_arch = "x86_64")]
use crate::packed::avx512::koalabear as avx512;
use crate::sponge::SpongeBackend;

/// Sponge width in field elements.
pub const KB_WIDTH: usize = 16;
/// Absorption rate (the capacity is the other 8 lanes).
pub const KB_RATE: usize = 8;
/// Number of external (full) rounds, split evenly around the internal run.
pub const KB_FULL_ROUNDS: usize = 8;
/// Number of internal (partial) rounds.
pub const KB_PARTIAL_ROUNDS: usize = 20;

/// Deterministic constant generator — the same splitmix64 core as
/// [`crate::poseidon`], seeded independently.
const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n mod p` as a field element ([`Field::from_u64`], which a `const fn`
/// cannot call).
#[allow(clippy::cast_possible_truncation)] // the remainder is below p < 2^31
const fn kb(n: u64) -> KoalaBear {
    KoalaBear::new((n % KoalaBear::ORDER) as u32)
}

/// The fixed 4×4 block of the external matrix (Poseidon2's reference `M4`).
const M4: [[u64; 4]; 4] = [
    [5, 7, 1, 3],
    [4, 6, 1, 1],
    [1, 3, 5, 7],
    [1, 1, 4, 6],
];

/// All constants the KoalaBear Poseidon2 permutation needs, generated once.
#[derive(Clone, Debug)]
pub struct Poseidon2KbConstants {
    /// Per-round constant vectors for the 8 external rounds.
    pub external_constants: [[KoalaBear; KB_WIDTH]; KB_FULL_ROUNDS],
    /// Per-round constants (added to element 0) for the 20 internal rounds.
    pub internal_constants: [KoalaBear; KB_PARTIAL_ROUNDS],
    /// Dense external matrix `M_E = circ(2·M4, M4, M4, M4)` (row-major).
    /// The permutation never reads it ([`external_layer`] is an add-chain);
    /// it is published as the oracle the differential tests multiply by.
    pub external_mat: [[KoalaBear; KB_WIDTH]; KB_WIDTH],
    /// Internal-layer diagonal `d`: the internal matrix is `J + diag(d)`
    /// with `J` the all-ones matrix (entries in `1..=96`).
    pub internal_diag: [KoalaBear; KB_WIDTH],
}

impl Poseidon2KbConstants {
    const fn generate() -> Self {
        let mut s: u64 = 0x4B42_5053_4432_3235; // "KB PSD2 25"-ish seed

        let mut external_constants = [[KoalaBear::ZERO; KB_WIDTH]; KB_FULL_ROUNDS];
        let mut r = 0;
        while r < KB_FULL_ROUNDS {
            let mut i = 0;
            while i < KB_WIDTH {
                external_constants[r][i] = kb(splitmix64(&mut s));
                i += 1;
            }
            r += 1;
        }
        let mut internal_constants = [KoalaBear::ZERO; KB_PARTIAL_ROUNDS];
        let mut r = 0;
        while r < KB_PARTIAL_ROUNDS {
            internal_constants[r] = kb(splitmix64(&mut s));
            r += 1;
        }

        let mut external_mat = [[KoalaBear::ZERO; KB_WIDTH]; KB_WIDTH];
        let mut i = 0;
        while i < KB_WIDTH {
            let mut j = 0;
            while j < KB_WIDTH {
                let block_scale = if i / 4 == j / 4 { 2 } else { 1 };
                external_mat[i][j] = kb(block_scale * M4[i % 4][j % 4]);
                j += 1;
            }
            i += 1;
        }

        let mut internal_diag = [KoalaBear::ZERO; KB_WIDTH];
        let mut i = 0;
        while i < KB_WIDTH {
            internal_diag[i] = kb(splitmix64(&mut s) % 96 + 1);
            i += 1;
        }

        Self {
            external_constants,
            internal_constants,
            external_mat,
            internal_diag,
        }
    }
}

/// Generated at compile time, like [`crate::poseidon`]'s: a walk of the
/// rounds reads it with no initialization check, and — what the vector
/// rows need — with no cold path that could leave their kernels.
static CONSTANTS: Poseidon2KbConstants = Poseidon2KbConstants::generate();

/// The process-wide KoalaBear Poseidon2 constant set.
pub fn constants_kb() -> &'static Poseidon2KbConstants {
    &CONSTANTS
}

/// One sponge state: 16 KoalaBear lanes.
type State = [KoalaBear; KB_WIDTH];

/// The all-zero addend: an external layer that no round constants follow.
const NO_CONSTANTS: State = [KoalaBear::ZERO; KB_WIDTH];

/// States a batch walks the round schedule with at a time on scalar rows. A
/// partial round is one serial dependency chain per state; interleaving a
/// few states gives the core independent work to overlap (8 % on the
/// Merkle-bound workload, see EXPERIMENTS.md).
const LOCKSTEP_BLOCK: usize = 8;

/// The shortest remainder the vector rows take as one zero-padded group. A
/// group costs the same whatever its lanes hold — 2.3–2.6 µs with the
/// residue copies and both transposes, what 2.6 one-state walks cost
/// (EXPERIMENTS.md, "Vector rows, KoalaBear") — so from three states up
/// padding wins, and one or two go through the scalar walk.
#[cfg(target_arch = "x86_64")]
const VECTOR_PAD_FROM: usize = 3;

// ------------------------------------------------------------------- rows

/// One element row of the lockstep state: the same state position of every
/// lane, as canonical Montgomery residues.
///
/// These are the operations [`permute_lockstep`] is made of; the walk above
/// them is written once. The two linear layers are methods rather than
/// generic code over an addition because the row types evaluate them
/// differently: a scalar row widens to `u64` and reduces once per lane, a
/// row of 32-bit vector lanes has no room for the `81·p` sums and adds
/// modularly. Both produce the same canonical residues.
///
/// Implementations:
///
/// * [`KoalaBear`] itself, one lane: the one-state path on every host
///   (challenger duplexes, `two_to_one_with`, short remainders) and, eight
///   states per walk, the batch and grind path wherever the vector rows are
///   absent.
/// * sixteen lanes in one AVX-512 register
///   (`crate::packed::avx512::koalabear`, x86-64 only), which
///   [`Poseidon2KbSponge`]'s batch and grind dispatchers take when
///   `is_x86_feature_detected!("avx512f")` holds — nothing else chooses.
pub(crate) trait Row: Copy {
    /// Adds a constant to every lane.
    fn add_const(self, c: KoalaBear) -> Self;

    /// `x^3` on every lane.
    fn sbox(self) -> Self;

    /// `state ← M_E · state + add` (see [`external_layer`]).
    fn external_layer(state: &mut [Self; KB_WIDTH], add: &State);

    /// `state ← (J + diag(d)) · state` (see [`internal_layer`]).
    fn internal_layer(state: &mut [Self; KB_WIDTH]);
}

/// Scalar rows: the free functions below, where the optimizer places them.
impl Row for KoalaBear {
    #[inline(always)]
    fn add_const(self, c: KoalaBear) -> Self {
        self + c
    }

    #[inline(always)]
    fn sbox(self) -> Self {
        sbox(self)
    }

    #[inline(always)]
    fn external_layer(state: &mut State, add: &State) {
        external_layer(state, add);
    }

    #[inline(always)]
    fn internal_layer(state: &mut State) {
        internal_layer(state);
    }
}

/// Reduces an unreduced sum of Montgomery residues to a field element.
#[inline(always)]
fn reduce(wide: u64) -> KoalaBear {
    KoalaBear::from_montgomery(KoalaBear::reduce_u64(wide))
}

/// The `x^3` S-box (a permutation since `gcd(3, p - 1) = 1`).
#[inline]
pub(crate) fn sbox(x: KoalaBear) -> KoalaBear {
    x.square() * x
}

/// `M4 · x` on unreduced residues by the Poseidon2 reference add-chain:
/// eight additions, the doublings are shifts. Inputs `< p` give outputs
/// `< 16·p` (the largest row of `M4` sums to 16).
#[inline(always)]
fn m4(x: [u64; 4]) -> [u64; 4] {
    let t0 = x[0] + x[1];
    let t1 = x[2] + x[3];
    let t2 = (x[1] << 1) + t1;
    let t3 = (x[3] << 1) + t0;
    let t4 = (t1 << 2) + t3;
    let t5 = (t0 << 2) + t2;
    [t3 + t5, t5, t2 + t4, t4]
}

/// The external linear layer with the following constant add folded in:
/// `state ← M_E · state + add`, where `M_E = circ(2·M4, M4, M4, M4)`.
///
/// No multiplications: each 4-lane block goes through the `M4` add-chain
/// and output lane `4j + k` is block `j`'s lane `k` plus the sum of lane `k`
/// over all four blocks. Everything is accumulated on raw Montgomery
/// residues in `u64` — every sum is `< 5·16·p + p = 81·p < 2^38` — and
/// reduced once per lane.
#[inline]
pub fn external_layer(state: &mut State, add: &State) {
    let mut blocks = [[0u64; 4]; 4];
    for (block, x) in blocks.iter_mut().zip(state.chunks_exact(4)) {
        *block = m4(core::array::from_fn(|k| u64::from(x[k].to_montgomery())));
    }
    let columns: [u64; 4] = core::array::from_fn(|k| blocks.iter().map(|b| b[k]).sum());
    for (j, (out, c)) in state.chunks_exact_mut(4).zip(add.chunks_exact(4)).enumerate() {
        for k in 0..4 {
            let wide = blocks[j][k] + columns[k] + u64::from(c[k].to_montgomery());
            out[k] = reduce(wide);
        }
    }
}

/// The internal linear layer `state ← (J + diag(d)) · state`: the 16-term
/// sum shared by every row is taken unreduced (`< 16·p`) and reduced once,
/// then each lane costs one multiplication and one addition.
#[inline]
pub fn internal_layer(state: &mut State) {
    let wide: u64 = state.iter().map(|x| u64::from(x.to_montgomery())).sum();
    let sum = reduce(wide);
    for (x, d) in state.iter_mut().zip(constants_kb().internal_diag.iter()) {
        *x = sum + *d * *x;
    }
}

// ------------------------------------------------------------ the one walk
//
// Generic over the row type and `#[inline(always)]` down to the row
// operations, and nothing here hands a closure to a library helper: an
// instantiation over the vector rows must dissolve into its
// `#[target_feature]` entry point (see `crate::packed`, "round kernels").

/// One external round on a state that already carries the round's
/// constants: S-box every lane, then the external layer, which folds in
/// the constants of the round after it.
#[inline(always)]
fn external_round<R: Row>(state: &mut [R; KB_WIDTH], next: &State) {
    for x in state.iter_mut() {
        *x = x.sbox();
    }
    R::external_layer(state, next);
}

/// One internal round: constant add and S-box on lane 0, then the
/// internal layer.
#[inline(always)]
fn internal_round<R: Row>(state: &mut [R; KB_WIDTH], c: KoalaBear) {
    state[0] = state[0].add_const(c).sbox();
    R::internal_layer(state);
}

/// Walks the round schedule once for every state in `states`, round-major,
/// on rows of type `R` — the only function that sequences the rounds.
///
/// The constants of external round `r` are added by the reduction of the
/// external layer *before* it, so the schedule reads: pre-mix (+ round 0's
/// constants), four external rounds, the internal run, round 4's constants
/// (no external layer precedes them), four external rounds.
#[inline(always)]
pub(crate) fn permute_lockstep<R: Row>(states: &mut [[R; KB_WIDTH]]) {
    let cs = constants_kb();
    let (head, tail) = cs.external_constants.split_at(KB_FULL_ROUNDS / 2);
    for state in states.iter_mut() {
        R::external_layer(state, &head[0]);
    }
    for r in 1..=head.len() {
        for state in states.iter_mut() {
            external_round(state, head.get(r).unwrap_or(&NO_CONSTANTS));
        }
    }
    for &c in &cs.internal_constants {
        for state in states.iter_mut() {
            internal_round(state, c);
        }
    }
    for state in states.iter_mut() {
        for (x, c) in state.iter_mut().zip(tail[0].iter()) {
            *x = x.add_const(*c);
        }
    }
    for r in 1..=tail.len() {
        for state in states.iter_mut() {
            external_round(state, tail.get(r).unwrap_or(&NO_CONSTANTS));
        }
    }
}

/// [`permute_lockstep`] on scalar rows, kept out of line like
/// `packed::permute_soa`: one copy serves the one-state entry, the batch
/// walk and the grind, and the optimizer inlines both linear layers into
/// it. With a copy per caller — what the `#[inline(always)]` glue makes on
/// its own — the layers stay calls and the one-state chain
/// (`hash.poseidon2_kb_ns_per_perm`) read 1 076–1 146 ns against 887–970.
#[inline(never)]
fn permute_scalar(states: &mut [State]) {
    permute_lockstep(states);
}

/// Applies the full KoalaBear Poseidon2 permutation in place.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, KoalaBear};
/// use unizk_hash::poseidon2_kb_permute;
///
/// let mut state = [KoalaBear::ZERO; 16];
/// poseidon2_kb_permute(&mut state);
/// assert_ne!(state[0], KoalaBear::ZERO);
/// ```
pub fn poseidon2_kb_permute(state: &mut [KoalaBear; KB_WIDTH]) {
    permute_scalar(core::slice::from_mut(state));
}

/// How many of `len` states or candidates go in groups of
/// `avx512::LANES` (16): the whole groups, and a remainder of at least
/// `pad_from` as one more, zero-padded.
#[cfg(target_arch = "x86_64")]
fn grouped(len: usize, pad_from: usize) -> usize {
    let rest = len % avx512::LANES;
    if rest >= pad_from { len } else { len - rest }
}

/// Runs `kernel` — the permutation of sixteen rows of residues — on the
/// [`grouped`] states and returns the ones it left alone.
#[cfg(target_arch = "x86_64")]
fn permute_groups(
    states: &mut [State],
    pad_from: usize,
    kernel: impl Fn(&mut [[u32; KB_WIDTH]; avx512::LANES]),
) -> &mut [State] {
    let (groups, rest) = states.split_at_mut(grouped(states.len(), pad_from));
    for group in groups.chunks_mut(avx512::LANES) {
        let mut residues = [[0u32; KB_WIDTH]; avx512::LANES];
        for (row, state) in residues.iter_mut().zip(group.iter()) {
            for (r, x) in row.iter_mut().zip(state) {
                *r = x.to_montgomery();
            }
        }
        kernel(&mut residues);
        for (row, state) in residues.iter().zip(group.iter_mut()) {
            for (&r, x) in row.iter().zip(state) {
                *x = KoalaBear::from_montgomery(r);
            }
        }
    }
    rest
}

/// Runs `kernel` — sixteen candidate residues to their sixteen squeezed
/// ones — on the [`grouped`] candidates and returns the ones it left
/// alone with their output slots.
#[cfg(target_arch = "x86_64")]
fn squeeze_groups<'a>(
    xs: &'a [KoalaBear],
    out: &'a mut [KoalaBear],
    pad_from: usize,
    kernel: impl Fn(&[u32; avx512::LANES]) -> [u32; avx512::LANES],
) -> (&'a [KoalaBear], &'a mut [KoalaBear]) {
    let (groups, rest) = xs.split_at(grouped(xs.len(), pad_from));
    let (out_groups, out_rest) = out.split_at_mut(groups.len());
    for (xs, out) in groups.chunks(avx512::LANES).zip(out_groups.chunks_mut(avx512::LANES)) {
        let mut candidates = [0u32; avx512::LANES];
        for (c, x) in candidates.iter_mut().zip(xs) {
            *c = x.to_montgomery();
        }
        for (o, r) in out.iter_mut().zip(kernel(&candidates)) {
            *o = KoalaBear::from_montgomery(r);
        }
    }
    (rest, out_rest)
}

/// The KoalaBear Poseidon2 sponge backend — the default hasher of the
/// 31-bit proof path (`StarkConfig<KoalaBear>`). Batches and grind
/// dispatches walk the round schedule sixteen states at a time on vector
/// rows where the CPU has AVX-512 and eight at a time on scalar rows
/// elsewhere; either way the results are those of [`poseidon2_kb_permute`].
#[derive(Clone, Copy, Debug)]
pub struct Poseidon2KbSponge;

impl SpongeBackend for Poseidon2KbSponge {
    type F = KoalaBear;
    type State = [KoalaBear; KB_WIDTH];
    const WIDTH: usize = KB_WIDTH;
    const RATE: usize = KB_RATE;
    const NAME: &'static str = "poseidon2-kb";
    const COUNTER: &'static str = "poseidon2_kb.permutations";

    fn zeroed() -> Self::State {
        [KoalaBear::ZERO; KB_WIDTH]
    }

    fn permute(state: &mut Self::State) {
        poseidon2_kb_permute(state);
    }

    fn permute_batch(states: &mut [Self::State]) {
        #[cfg(target_arch = "x86_64")]
        let states = match avx512::detect() {
            Some(vector) => {
                permute_groups(states, VECTOR_PAD_FROM, |residues| vector.permute_kb_states(residues))
            }
            None => states,
        };
        for block in states.chunks_mut(LOCKSTEP_BLOCK) {
            permute_scalar(block);
        }
    }

    // The snapshot is the raw prefix-filled state plus the pending lane.
    type Speculative = ([KoalaBear; KB_WIDTH], usize);

    fn speculative(state: &Self::State, pending: usize) -> Self::Speculative {
        (*state, pending)
    }

    fn speculative_rows(spec: &Self::Speculative, xs: &[KoalaBear], out: &mut [KoalaBear]) {
        assert_eq!(xs.len(), out.len(), "one response per candidate");
        let (state, pending) = spec;
        #[cfg(target_arch = "x86_64")]
        let (xs, out) = match avx512::detect() {
            Some(vector) => squeeze_groups(xs, out, VECTOR_PAD_FROM, |candidates| {
                vector.squeeze_kb_row(state, *pending, candidates)
            }),
            None => (xs, out),
        };
        for (xs, out) in xs.chunks(LOCKSTEP_BLOCK).zip(out.chunks_mut(LOCKSTEP_BLOCK)) {
            let mut states = [*state; LOCKSTEP_BLOCK];
            let states = &mut states[..xs.len()];
            for (s, &x) in states.iter_mut().zip(xs) {
                s[*pending] = x;
            }
            permute_scalar(states);
            for (o, s) in out.iter_mut().zip(states.iter()) {
                *o = s[KB_RATE - 1];
            }
        }
    }
}

/// Static operation counts of one KoalaBear Poseidon2 permutation as
/// [`poseidon2_kb_permute`] evaluates it — the 31-bit counterpart of
/// [`crate::PoseidonCost`], and the basis of the µop floor in
/// EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Poseidon2KbCost {
    /// Montgomery multiplications (S-boxes and the internal diagonal).
    pub muls: usize,
    /// Additions: plain `u64` adds inside the linear layers plus the few
    /// modular adds outside them.
    pub adds: usize,
    /// Reductions of an unreduced `u64` sum back into the field.
    pub reductions: usize,
}

impl Poseidon2KbCost {
    /// Derives the counts from the round structure.
    pub const fn of_permutation() -> Self {
        // External layer: the M4 add-chain (8 adds) on each of the 4 blocks,
        // 4 column sums of 4 terms, then per lane block + column + constant,
        // and one reduction per lane. There is one layer per external round
        // plus the pre-mix.
        let layer_adds = 4 * 8 + 4 * 3 + 2 * KB_WIDTH;
        let layers = KB_FULL_ROUNDS + 1;
        // External round: WIDTH cubes at 2 muls each (its constants ride in
        // the preceding layer's reduction).
        let external_muls = 2 * KB_WIDTH;
        // Internal round: constant add and cube on lane 0, the 16-term sum
        // with its one reduction, then a mul and an add per lane.
        let internal_muls = 2 + KB_WIDTH;
        let internal_adds = 1 + (KB_WIDTH - 1) + KB_WIDTH;
        Self {
            muls: KB_FULL_ROUNDS * external_muls + KB_PARTIAL_ROUNDS * internal_muls,
            // The trailing WIDTH: the second external half's first constants
            // follow the internal run, so no layer reduction absorbs them.
            adds: layers * layer_adds + KB_PARTIAL_ROUNDS * internal_adds + KB_WIDTH,
            reductions: layers * KB_WIDTH + KB_PARTIAL_ROUNDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(n: u64) -> KoalaBear {
        KoalaBear::from_u64(n)
    }

    #[test]
    fn cube_is_a_permutation() {
        // gcd(3, p - 1) = 1: p - 1 = 2^24 · 127 ≡ 1·1 ≡ 1 (mod 3).
        assert_eq!((KoalaBear::ORDER - 1) % 3, 1);
        // Injectivity spot check via the inverse exponent.
        let e_inv = {
            // Solve 3·e ≡ 1 (mod p - 1) by search over small k in
            // e = (k(p-1)+1)/3.
            let m = KoalaBear::ORDER - 1;
            (1..3u64).find_map(|i| {
                let num = i * m + 1;
                (num % 3 == 0).then_some(num / 3)
            })
            .expect("3 is invertible mod p - 1")
        };
        for n in [1u64, 2, 17, 123_456_789] {
            assert_eq!(sbox(k(n)).exp_u64(e_inv), k(n));
        }
    }

    #[test]
    fn permutation_is_deterministic_and_sensitive() {
        let mut a = [k(3); KB_WIDTH];
        let mut b = [k(3); KB_WIDTH];
        poseidon2_kb_permute(&mut a);
        poseidon2_kb_permute(&mut b);
        assert_eq!(a, b);

        let mut c = [k(3); KB_WIDTH];
        c[5] += KoalaBear::ONE;
        poseidon2_kb_permute(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn full_diffusion() {
        let mut base = [k(42); KB_WIDTH];
        let mut flipped = base;
        flipped[KB_WIDTH - 1] += KoalaBear::ONE;
        poseidon2_kb_permute(&mut base);
        poseidon2_kb_permute(&mut flipped);
        for i in 0..KB_WIDTH {
            assert_ne!(base[i], flipped[i], "lane {i} did not diffuse");
        }
    }

    #[test]
    fn external_matrix_is_block_circulant_of_m4() {
        let cs = constants_kb();
        for i in 0..KB_WIDTH {
            for j in 0..KB_WIDTH {
                let scale = if i / 4 == j / 4 { 2 } else { 1 };
                assert_eq!(
                    u64::from(cs.external_mat[i][j].as_canonical_u32()),
                    scale * M4[i % 4][j % 4],
                    "entry ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn internal_diag_entries_small_and_nonzero() {
        for d in constants_kb().internal_diag {
            let v = d.as_canonical_u32();
            assert!((1..=96).contains(&v));
        }
    }

    #[test]
    fn cost_counts_follow_the_round_structure() {
        let cost = Poseidon2KbCost::of_permutation();
        // 8·16 + 20 cubes at 2 muls, 20·16 diagonal products; the dense
        // 16×16 external product this replaced added 9·256 = 2 304 more.
        assert_eq!(cost.muls, 616);
        assert_eq!(cost.adds, 9 * 76 + 20 * 32 + 16);
        assert_eq!(cost.reductions, 9 * 16 + 20);
    }

    #[test]
    fn lockstep_matches_scalar() {
        let mut scalar: Vec<[KoalaBear; KB_WIDTH]> = (0..13u64)
            .map(|i| core::array::from_fn(|j| k(i * 100 + j as u64)))
            .collect();
        let mut batched = scalar.clone();
        for s in scalar.iter_mut() {
            poseidon2_kb_permute(s);
        }
        Poseidon2KbSponge::permute_batch(&mut batched);
        assert_eq!(scalar, batched);
    }

    // ---- the wall: every row type against the naive `u64 % p` reference ----

    use crate::naive_poseidon2_kb::{naive_permute, P};
    use unizk_testkit::prop::prelude::*;
    use unizk_testkit::rng::SplitMix64;

    fn naive(state: &State) -> State {
        let mut canonical: [u64; KB_WIDTH] = core::array::from_fn(|i| state[i].as_u64());
        naive_permute(&mut canonical);
        canonical.map(k)
    }

    /// Where a reduction can invent or lose a multiple of `p`: all-zero,
    /// all `p − 1` (the largest sums either linear layer forms), one-hot
    /// states at both ends of the range, and a random tail.
    fn wall_states(seed: u64) -> Vec<State> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut states = vec![[KoalaBear::ZERO; KB_WIDTH], [k(P - 1); KB_WIDTH]];
        for lane in 0..KB_WIDTH {
            for value in [1, P - 1] {
                let mut one_hot = [KoalaBear::ZERO; KB_WIDTH];
                one_hot[lane] = k(value);
                states.push(one_hot);
            }
        }
        states.extend((0..14).map(|_| core::array::from_fn(|_| KoalaBear::random(&mut rng))));
        states
    }

    /// The sixteen-row kernel every host can run: the scalar walk on each
    /// row, through the same residue interface as the vector kernel.
    #[cfg(target_arch = "x86_64")]
    fn scalar_kernel(residues: &mut [[u32; KB_WIDTH]; avx512::LANES]) {
        for row in residues.iter_mut() {
            let mut state = row.map(KoalaBear::from_montgomery);
            poseidon2_kb_permute(&mut state);
            *row = state.map(KoalaBear::to_montgomery);
        }
    }

    /// Each row type at each width it runs at, through the code that feeds
    /// it: scalar rows one state and eight states per walk, vector rows
    /// sixteen (whole and zero-padded groups).
    fn check_row_types(states: &[State]) {
        let want: Vec<State> = states.iter().map(naive).collect();
        let mut one = states.to_vec();
        one.iter_mut().for_each(poseidon2_kb_permute);
        assert_eq!(one, want, "scalar rows, one state per walk");
        let mut eight = states.to_vec();
        eight.chunks_mut(LOCKSTEP_BLOCK).for_each(permute_scalar);
        assert_eq!(eight, want, "scalar rows, eight states per walk");
        #[cfg(target_arch = "x86_64")]
        if let Some(vector) = crate::packed::avx512::detect_or_report() {
            let mut sixteen = states.to_vec();
            let rest = permute_groups(&mut sixteen, 1, |residues| vector.permute_kb_states(residues));
            assert!(rest.is_empty());
            assert_eq!(sixteen, want, "vector rows");
        }
    }

    /// The grind's squeeze on each row type: every pending lane, the
    /// candidates taken from the states' own elements.
    fn check_squeeze(states: &[State]) {
        for pending in 0..KB_WIDTH {
            let xs: Vec<KoalaBear> = states.iter().map(|s| s[pending]).collect();
            let want: Vec<KoalaBear> = xs
                .iter()
                .map(|&x| {
                    let mut full = states[0];
                    full[pending] = x;
                    naive(&full)[KB_RATE - 1]
                })
                .collect();
            let mut got = vec![KoalaBear::ZERO; xs.len()];
            Poseidon2KbSponge::speculative_rows(&(states[0], pending), &xs, &mut got);
            assert_eq!(got, want, "dispatched, pending lane {pending}");
            #[cfg(target_arch = "x86_64")]
            if let Some(vector) = crate::packed::avx512::detect_or_report() {
                let mut got = vec![KoalaBear::ZERO; xs.len()];
                let (rest, _) = squeeze_groups(&xs, &mut got, 1, |candidates| {
                    vector.squeeze_kb_row(&states[0], pending, candidates)
                });
                assert!(rest.is_empty());
                assert_eq!(got, want, "vector rows, pending lane {pending}");
            }
        }
    }

    #[test]
    fn row_types_match_naive_reference_at_the_extremes() {
        let states = wall_states(0x4B42_0001);
        check_row_types(&states);
        check_squeeze(&states);
    }

    prop! {
        #![cases(16)]

        fn row_types_match_naive_reference(seed in any::<u64>(), len in 1usize..40) {
            let mut rng = SplitMix64::seed_from_u64(seed);
            let states: Vec<State> =
                (0..len).map(|_| core::array::from_fn(|_| KoalaBear::random(&mut rng))).collect();
            check_row_types(&states);
            check_squeeze(&states);
        }
    }

    /// The dispatchers over every length 0..=49, and the grouping policy of
    /// the vector rows — but not their code — on a kernel every host can
    /// run: the remainder padded from one state up, at the shipped
    /// threshold, and never.
    #[test]
    fn batch_and_grind_dispatch_match_one_state_walks_at_every_length() {
        let mut rng = SplitMix64::seed_from_u64(0x4B42_0002);
        for len in 0..=49 {
            let states: Vec<State> =
                (0..len).map(|_| core::array::from_fn(|_| KoalaBear::random(&mut rng))).collect();
            let mut want = states.clone();
            want.iter_mut().for_each(poseidon2_kb_permute);
            let mut dispatched = states.clone();
            Poseidon2KbSponge::permute_batch(&mut dispatched);
            assert_eq!(dispatched, want, "len={len}");

            let spec = (want.first().copied().unwrap_or(NO_CONSTANTS), len % KB_RATE);
            let xs: Vec<KoalaBear> = states.iter().map(|s| s[0]).collect();
            let squeezed: Vec<KoalaBear> = xs
                .iter()
                .map(|&x| {
                    let mut full = spec.0;
                    full[spec.1] = x;
                    poseidon2_kb_permute(&mut full);
                    full[KB_RATE - 1]
                })
                .collect();
            let mut got = vec![KoalaBear::ZERO; len];
            Poseidon2KbSponge::speculative_rows(&spec, &xs, &mut got);
            assert_eq!(got, squeezed, "len={len}");

            #[cfg(target_arch = "x86_64")]
            for pad_from in [1, VECTOR_PAD_FROM, avx512::LANES] {
                let mut grouped_states = states.clone();
                let rest = permute_groups(&mut grouped_states, pad_from, scalar_kernel);
                assert_eq!(rest.len(), len - grouped(len, pad_from));
                rest.iter_mut().for_each(poseidon2_kb_permute);
                assert_eq!(grouped_states, want, "len={len}, padding from {pad_from}");

                let mut got = vec![KoalaBear::ZERO; len];
                let (rest, out_rest) = squeeze_groups(&xs, &mut got, pad_from, |candidates| {
                    let mut rows = [[0u32; KB_WIDTH]; avx512::LANES];
                    for (row, &c) in rows.iter_mut().zip(candidates) {
                        *row = spec.0.map(KoalaBear::to_montgomery);
                        row[spec.1] = c;
                    }
                    scalar_kernel(&mut rows);
                    rows.map(|row| row[KB_RATE - 1])
                });
                assert_eq!(rest.len(), out_rest.len());
                let taken = len - rest.len();
                assert_eq!(got[..taken], squeezed[..taken], "len={len}, padding from {pad_from}");
            }
        }
    }
}
