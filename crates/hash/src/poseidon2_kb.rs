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
//! The scalar permutation, the batch path and the speculative grind
//! kernel are one walk of the round schedule over a slice of states.
//!
//! **Substitution note (see DESIGN.md):** round constants and the internal
//! diagonal are generated deterministically from a seed, like every other
//! constant set in this repository; `M4` uses the literal entries from the
//! Poseidon2 reference instantiation.

use unizk_field::{Field, KoalaBear};

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
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    fn generate() -> Self {
        let mut s: u64 = 0x4B42_5053_4432_3235; // "KB PSD2 25"-ish seed

        let mut external_constants = [[KoalaBear::ZERO; KB_WIDTH]; KB_FULL_ROUNDS];
        for row in external_constants.iter_mut() {
            for c in row.iter_mut() {
                *c = KoalaBear::from_u64(splitmix64(&mut s));
            }
        }
        let mut internal_constants = [KoalaBear::ZERO; KB_PARTIAL_ROUNDS];
        for c in internal_constants.iter_mut() {
            *c = KoalaBear::from_u64(splitmix64(&mut s));
        }

        let mut external_mat = [[KoalaBear::ZERO; KB_WIDTH]; KB_WIDTH];
        for (i, row) in external_mat.iter_mut().enumerate() {
            for (j, c) in row.iter_mut().enumerate() {
                let block_scale = if i / 4 == j / 4 { 2 } else { 1 };
                *c = KoalaBear::from_u64(block_scale * M4[i % 4][j % 4]);
            }
        }

        let mut internal_diag = [KoalaBear::ZERO; KB_WIDTH];
        for d in internal_diag.iter_mut() {
            *d = KoalaBear::from_u64(splitmix64(&mut s) % 96 + 1);
        }

        Self {
            external_constants,
            internal_constants,
            external_mat,
            internal_diag,
        }
    }
}

/// The process-wide KoalaBear Poseidon2 constant set.
pub fn constants_kb() -> &'static Poseidon2KbConstants {
    use std::sync::OnceLock;
    static CONSTANTS: OnceLock<Poseidon2KbConstants> = OnceLock::new();
    CONSTANTS.get_or_init(Poseidon2KbConstants::generate)
}

/// One sponge state: 16 KoalaBear lanes.
type State = [KoalaBear; KB_WIDTH];

/// The all-zero addend: an external layer that no round constants follow.
const NO_CONSTANTS: State = [KoalaBear::ZERO; KB_WIDTH];

/// States a batch walks the round schedule with at a time. A partial round
/// is one serial dependency chain per state; interleaving a few states gives
/// the core independent work to overlap (8 % on the Merkle-bound
/// workload, see EXPERIMENTS.md).
const LOCKSTEP_BLOCK: usize = 8;

/// Reduces an unreduced sum of Montgomery residues to a field element.
#[inline(always)]
fn reduce(wide: u64) -> KoalaBear {
    KoalaBear::from_montgomery(KoalaBear::reduce_u64(wide))
}

/// The `x^3` S-box (a permutation since `gcd(3, p - 1) = 1`).
#[inline]
fn sbox(x: KoalaBear) -> KoalaBear {
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

/// One external round on a state that already carries the round's
/// constants: S-box every lane, then the external layer, which folds in
/// the constants of the round after it.
#[inline]
fn external_round(state: &mut State, next: &State) {
    for x in state.iter_mut() {
        *x = sbox(*x);
    }
    external_layer(state, next);
}

/// One internal round: constant add and S-box on lane 0, then the
/// internal layer.
#[inline]
fn internal_round(state: &mut State, c: KoalaBear) {
    state[0] = sbox(state[0] + c);
    internal_layer(state);
}

/// Walks the round schedule once for every state in `states`, round-major.
///
/// The constants of external round `r` are added by the reduction of the
/// external layer *before* it, so the schedule reads: pre-mix (+ round 0's
/// constants), four external rounds, the internal run, round 4's constants
/// (no external layer precedes them), four external rounds.
#[inline]
fn permute_lockstep(states: &mut [State]) {
    let cs = constants_kb();
    let (head, tail) = cs.external_constants.split_at(KB_FULL_ROUNDS / 2);
    for state in states.iter_mut() {
        external_layer(state, &head[0]);
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
            *x += *c;
        }
    }
    for r in 1..=tail.len() {
        for state in states.iter_mut() {
            external_round(state, tail.get(r).unwrap_or(&NO_CONSTANTS));
        }
    }
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
    permute_lockstep(core::slice::from_mut(state));
}

/// The KoalaBear Poseidon2 sponge backend — the default hasher of the
/// 31-bit proof path (`StarkConfig<KoalaBear>`). Batches walk the round
/// schedule eight states at a time.
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
        for block in states.chunks_mut(LOCKSTEP_BLOCK) {
            permute_lockstep(block);
        }
    }

    // The snapshot is the raw prefix-filled state plus the pending lane.
    type Speculative = ([KoalaBear; KB_WIDTH], usize);

    fn speculative(state: &Self::State, pending: usize) -> Self::Speculative {
        (*state, pending)
    }

    fn speculative_rows<const LANES: usize>(
        spec: &Self::Speculative,
        xs: &[KoalaBear; LANES],
    ) -> [KoalaBear; LANES] {
        let mut states = [spec.0; LANES];
        for (s, &x) in states.iter_mut().zip(xs.iter()) {
            s[spec.1] = x;
        }
        permute_lockstep(&mut states);
        let mut out = [KoalaBear::ZERO; LANES];
        for (o, s) in out.iter_mut().zip(states.iter()) {
            *o = s[KB_RATE - 1];
        }
        out
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
    use unizk_field::PrimeField64;

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
}
