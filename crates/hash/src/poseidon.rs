//! The Poseidon permutation over 12 Goldilocks elements (paper Algorithm 1).
//!
//! Round structure (identical to Plonky2's):
//!
//! ```text
//! for r in 0..4  { FullRound(r) }        // add const, x^7, × MDS
//! PrePartialRound                        // add const vector, × pre-MDS
//! for r in 0..22 { PartialRound(r) }     // x^7 on state[0], add const, × sparse MDS
//! for r in 4..8  { FullRound(r) }
//! ```
//!
//! The sparse MDS matrix of the partial rounds decomposes into a first row
//! `u`, a first column `v`, and a diagonal `E` (paper Fig. 5b) — exactly the
//! structure UniZK's 12×3-PE partial-round mapping exploits.
//!
//! The full-round MDS matrix is circulant, and the CPU kernels evaluate it
//! as a cyclic correlation in three 4-point blocks (`mds_circulant`)
//! rather than as 144 multiply-accumulates; [`PoseidonCost`] holds both
//! counts.
//!
//! This module owns the constants, the two per-element primitives
//! (`sbox_residue`, `mds_circulant`), the hoisted round 0 of the grind
//! ([`NoncePermutation`]) and the dense test oracle. The round kernels and
//! the one place that sequences them live in [`crate::packed`], generic
//! over the lane count; [`poseidon_permute`] is their one-lane case.

use unizk_field::{Field, Goldilocks};

use crate::packed::PackedPermutation;

/// Poseidon state width in field elements.
pub const WIDTH: usize = 12;
/// Sponge rate: elements absorbed/squeezed per permutation.
pub const SPONGE_RATE: usize = 8;
/// Sponge capacity (`WIDTH - SPONGE_RATE`).
pub const SPONGE_CAPACITY: usize = WIDTH - SPONGE_RATE;
/// Number of full rounds (split 4 + 4 around the partial rounds).
pub const FULL_ROUNDS: usize = 8;
/// Number of partial rounds.
pub const PARTIAL_ROUNDS: usize = 22;

/// Deterministic constant generator (splitmix64). See the crate-level
/// substitution note: these replace Plonky2's Grain-LFSR constants while
/// preserving the permutation's structure.
const fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const fn gen_field(state: &mut u64) -> Goldilocks {
    // Same reduction as `Field::from_u64` (which is not `const`).
    Goldilocks::new(splitmix64(state) % unizk_field::goldilocks::P)
}

/// Small nonzero matrix entry (< 2^7), enabling lazy-reduction
/// matrix–vector products — the structure real optimized Poseidon
/// instances (including Plonky2's "fast" partial rounds) rely on.
const fn gen_small(state: &mut u64) -> Goldilocks {
    Goldilocks::new(splitmix64(state) % 96 + 1)
}

/// All constants the permutation needs, generated once.
#[derive(Clone, Debug)]
pub struct PoseidonConstants {
    /// `RoundConst[r][i]` for the 8 full rounds.
    pub round_constants: [[Goldilocks; WIDTH]; FULL_ROUNDS],
    /// `PartialRoundConst[r]` for the 22 partial rounds.
    pub partial_round_constants: [Goldilocks; PARTIAL_ROUNDS],
    /// The constant vector added by the pre-partial round.
    pub pre_partial_constants: [Goldilocks; WIDTH],
    /// Dense MDS matrix (row-major) for full rounds.
    pub mds: [[Goldilocks; WIDTH]; WIDTH],
    /// Dense matrix for the pre-partial round.
    pub pre_mds: [[Goldilocks; WIDTH]; WIDTH],
    /// Sparse-MDS first rows `u` per partial round.
    pub sparse_u: [[Goldilocks; WIDTH]; PARTIAL_ROUNDS],
    /// Sparse-MDS first columns `v` (index 0 unused) per partial round.
    pub sparse_v: [[Goldilocks; WIDTH]; PARTIAL_ROUNDS],
    /// Sparse-MDS diagonals `E` (index 0 unused) per partial round.
    pub sparse_diag: [[Goldilocks; WIDTH]; PARTIAL_ROUNDS],
}

impl PoseidonConstants {
    // `const` (index-based `while` loops: `for`/iterators are not usable in
    // const eval) so the whole table lands in a `static` at compile time and
    // the hot kernels read matrix entries the optimizer can treat as
    // immediates rather than opaque `OnceLock` loads.
    const fn generate() -> Self {
        let mut s: u64 = 0x556E_695A_4B32_3032; // "UniZK2025"-ish seed

        let mut round_constants = [[Goldilocks::ZERO; WIDTH]; FULL_ROUNDS];
        let mut r = 0;
        while r < FULL_ROUNDS {
            let mut i = 0;
            while i < WIDTH {
                round_constants[r][i] = gen_field(&mut s);
                i += 1;
            }
            r += 1;
        }

        let mut partial_round_constants = [Goldilocks::ZERO; PARTIAL_ROUNDS];
        let mut r = 0;
        while r < PARTIAL_ROUNDS {
            partial_round_constants[r] = gen_field(&mut s);
            r += 1;
        }

        let mut pre_partial_constants = [Goldilocks::ZERO; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            pre_partial_constants[i] = gen_field(&mut s);
            i += 1;
        }

        // Circulant MDS from a row of small nonzero entries, mirroring the
        // circulant structure real Poseidon instances use.
        let mut first_row = [Goldilocks::ZERO; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            first_row[i] = Goldilocks::new(splitmix64(&mut s) % 61 + 1);
            i += 1;
        }
        let mut mds = [[Goldilocks::ZERO; WIDTH]; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            let mut j = 0;
            while j < WIDTH {
                mds[i][j] = first_row[(j + WIDTH - i) % WIDTH];
                j += 1;
            }
            i += 1;
        }

        let mut pre_mds = [[Goldilocks::ZERO; WIDTH]; WIDTH];
        let mut i = 0;
        while i < WIDTH {
            let mut j = 0;
            while j < WIDTH {
                pre_mds[i][j] = gen_small(&mut s);
                j += 1;
            }
            i += 1;
        }

        let mut sparse_u = [[Goldilocks::ZERO; WIDTH]; PARTIAL_ROUNDS];
        let mut sparse_v = [[Goldilocks::ZERO; WIDTH]; PARTIAL_ROUNDS];
        let mut sparse_diag = [[Goldilocks::ZERO; WIDTH]; PARTIAL_ROUNDS];
        let mut r = 0;
        while r < PARTIAL_ROUNDS {
            let mut i = 0;
            while i < WIDTH {
                sparse_u[r][i] = gen_small(&mut s);
                i += 1;
            }
            let mut i = 1;
            while i < WIDTH {
                sparse_v[r][i] = gen_small(&mut s);
                sparse_diag[r][i] = gen_small(&mut s);
                i += 1;
            }
            r += 1;
        }

        Self {
            round_constants,
            partial_round_constants,
            pre_partial_constants,
            mds,
            pre_mds,
            sparse_u,
            sparse_v,
            sparse_diag,
        }
    }
}

/// The process-wide constant set, evaluated at compile time.
static CONSTANTS: PoseidonConstants = PoseidonConstants::generate();

/// Where index `n` of the length-12 cycle sits in its 3×4 factorization:
/// `CRT_INDEX[a][b]` is the `n` with `n ≡ a (mod 3)` and `n ≡ b (mod 4)`.
const CRT_INDEX: [[usize; 4]; 3] = {
    let mut index = [[0; 4]; 3];
    let mut n = 0;
    while n < WIDTH {
        index[n % 3][n % 4] = n;
        n += 1;
    }
    index
};

/// The circulant MDS matrix in the frequency domain of its 4-point factor.
///
/// `mds[i][j] = row[(j − i) mod 12]`, so the full-round linear layer is the
/// cyclic correlation `out[i] = Σ_k row[k]·x[(i + k) mod 12]`. Under
/// `n ↦ (n mod 3, n mod 4)` ([`CRT_INDEX`]) it is a 3×4 two-dimensional
/// correlation; a 4-point DFT along the second axis (`ω = i`, so no
/// multiplications) turns it into three independent 3-point correlations
/// — two over the integers (frequencies 0 and 2) and one over the Gaussian
/// integers (frequency 1; frequency 3 is its conjugate because the data
/// are real) — against the transformed row held here. That is
/// 9 + 9 + 4·9 = 54 products by constants below 2^9 in place of 144.
struct MdsFrequencyKernel {
    /// `Σ_b c[a][b]`, the kernel at frequency 0.
    f0: [i64; 3],
    /// `c[a][0] − c[a][1] + c[a][2] − c[a][3]`, the kernel at frequency 2.
    f2: [i64; 3],
    /// Real part at frequency 1, doubled: the inverse transform adds
    /// frequencies 1 and 3, i.e. twice the real part of their product.
    f1_re: [i64; 3],
    /// Imaginary part at frequency 1, doubled.
    f1_im: [i64; 3],
}

const MDS_FREQ: MdsFrequencyKernel = {
    let row = &CONSTANTS.mds[0];
    let mut k = MdsFrequencyKernel {
        f0: [0; 3],
        f2: [0; 3],
        f1_re: [0; 3],
        f1_im: [0; 3],
    };
    let mut a = 0;
    while a < 3 {
        let c0 = row[CRT_INDEX[a][0]].as_canonical_u64() as i64;
        let c1 = row[CRT_INDEX[a][1]].as_canonical_u64() as i64;
        let c2 = row[CRT_INDEX[a][2]].as_canonical_u64() as i64;
        let c3 = row[CRT_INDEX[a][3]].as_canonical_u64() as i64;
        k.f0[a] = c0 + c1 + c2 + c3;
        k.f2[a] = c0 - c1 + c2 - c3;
        // Σ_b c[a][b]·ω^{−b} = (c0 − c2) + i·(c3 − c1).
        k.f1_re[a] = 2 * (c0 - c2);
        k.f1_im[a] = 2 * (c3 - c1);
        a += 1;
    }
    k
};

/// Bound on every intermediate of [`mds_circulant_half`], derived from the
/// kernel: inputs are 32-bit halves, the forward transform grows them to
/// below 2^34 (frequencies 0, 2) and 2^32 in magnitude (frequency 1), and
/// each output sums one term of every frequency.
const _: () = {
    let mut sum = 0;
    let mut a = 0;
    while a < 3 {
        sum += (MDS_FREQ.f0[a].abs() + MDS_FREQ.f2[a].abs()) << 34;
        sum += (MDS_FREQ.f1_re[a].abs() + MDS_FREQ.f1_im[a].abs()) << 32;
        a += 1;
    }
    assert!(sum < 1 << 47, "circulant MDS intermediates must stay below 2^47");
};

/// The process-wide constant set.
pub fn constants() -> &'static PoseidonConstants {
    &CONSTANTS
}

/// `x^7` over lazy residues (see [`Goldilocks::reduce128_residue`]): the
/// three intermediate products stay in `[0, 2^64)` without the final
/// canonicalizing subtraction, which every multiply in the chain would
/// otherwise pay.
#[inline]
pub(crate) fn sbox_residue(x: u64) -> u64 {
    // x^7 = x^4 · x^2 · x  (3 squarings/multiplies, as in hardware).
    let x2 = Goldilocks::mul_residue(x, x);
    let x4 = Goldilocks::mul_residue(x2, x2);
    Goldilocks::mul_residue(Goldilocks::mul_residue(x4, x2), x)
}

#[cfg(test)]
fn mat_mul(m: &[[Goldilocks; WIDTH]; WIDTH], state: &[Goldilocks; WIDTH]) -> [Goldilocks; WIDTH] {
    let mut out = [Goldilocks::ZERO; WIDTH];
    for (o, row) in out.iter_mut().zip(m.iter()) {
        let mut acc = Goldilocks::ZERO;
        for (c, x) in row.iter().zip(state.iter()) {
            acc += *c * *x;
        }
        *o = acc;
    }
    out
}

/// The permutation over canonical elements, every linear layer a dense
/// [`mat_mul`]: the oracle every width of the lane kernels and the
/// hoisted-nonce kernel are held to. It shares the constants with them
/// and nothing else.
#[cfg(test)]
pub(crate) fn permute_dense_reference(state: &mut [Goldilocks; WIDTH]) {
    let cs = constants();
    let full_round = |state: &mut [Goldilocks; WIDTH], r: usize| {
        for (x, c) in state.iter_mut().zip(&cs.round_constants[r]) {
            *x = (*x + *c).exp_u64(7);
        }
        *state = mat_mul(&cs.mds, state);
    };
    for r in 0..FULL_ROUNDS / 2 {
        full_round(state, r);
    }
    for (x, c) in state.iter_mut().zip(&cs.pre_partial_constants) {
        *x += *c;
    }
    *state = mat_mul(&cs.pre_mds, state);
    for r in 0..PARTIAL_ROUNDS {
        state[0] = state[0].exp_u64(7) + cs.partial_round_constants[r];
        let mut sparse = [[Goldilocks::ZERO; WIDTH]; WIDTH];
        sparse[0] = cs.sparse_u[r];
        for (i, row) in sparse.iter_mut().enumerate().skip(1) {
            row[0] = cs.sparse_v[r][i];
            row[i] = cs.sparse_diag[r][i];
        }
        *state = mat_mul(&sparse, state);
    }
    for r in FULL_ROUNDS / 2..FULL_ROUNDS {
        full_round(state, r);
    }
}

/// The states the differential tests add to their random ones: every lane
/// at each edge of the 32-bit split, and each edge alone in each lane.
#[cfg(test)]
pub(crate) fn extreme_states() -> Vec<[u64; WIDTH]> {
    let edges = [u64::MAX, unizk_field::goldilocks::P - 1, 0xFFFF_FFFF, 1 << 32, 0];
    let mut states: Vec<[u64; WIDTH]> = edges.iter().map(|&e| [e; WIDTH]).collect();
    for lane in 0..WIDTH {
        for &e in &edges[..4] {
            let mut one_hot = [0; WIDTH];
            one_hot[lane] = e;
            states.push(one_hot);
        }
    }
    states
}

/// `4·(row ⋆ x)` for one 32-bit half of the state, as the three 3-point
/// blocks of [`MdsFrequencyKernel`]. Exact integer arithmetic: every
/// intermediate stays below 2^47 in magnitude (const-asserted above), and
/// each output is the non-negative, exactly-quadrupled correlation.
#[inline(always)]
fn mds_circulant_half(x: &[i64; WIDTH]) -> [i64; WIDTH] {
    // Forward 4-point transform along the second axis, per residue mod 3.
    let mut f0 = [0i64; 3];
    let mut f2 = [0i64; 3];
    let mut re = [0i64; 3];
    let mut im = [0i64; 3];
    for (a, index) in CRT_INDEX.iter().enumerate() {
        let [x0, x1, x2, x3] = index.map(|n| x[n]);
        f0[a] = (x0 + x2) + (x1 + x3);
        f2[a] = (x0 + x2) - (x1 + x3);
        re[a] = x0 - x2;
        im[a] = x1 - x3;
    }
    // One 3-point cyclic correlation per frequency, then the inverse
    // transform (without its division by 4).
    let k = &MDS_FREQ;
    let mut out = [0i64; WIDTH];
    for (a, &[n0, n1, n2, n3]) in CRT_INDEX.iter().enumerate() {
        let (mut y0, mut y2, mut yr, mut yi) = (0, 0, 0, 0);
        for d in 0..3 {
            let s = (a + d) % 3;
            y0 += k.f0[d] * f0[s];
            y2 += k.f2[d] * f2[s];
            yr += k.f1_re[d] * re[s] - k.f1_im[d] * im[s];
            yi += k.f1_re[d] * im[s] + k.f1_im[d] * re[s];
        }
        out[n0] = (y0 + y2) + yr;
        out[n1] = (y0 - y2) + yi;
        out[n2] = (y0 + y2) - yr;
        out[n3] = (y0 - y2) - yi;
    }
    out
}

/// The full-round MDS product `mds · state` over residue lanes, bit for bit
/// what the dense small-entry product (`packed::mat_rows`) returns for the
/// circulant `mds`.
///
/// Each residue is split into 32-bit halves so that the transform's sums
/// of four stay inside 64 bits; the split by itself would double the
/// product count, and pays only because the frequency-domain form needs
/// 2·54 narrow products where the dense form needs 144 widening ones. The
/// halves recombine into the same exact integer `Σ_j mds[i][j]·state[j]`
/// (below 2^74) the dense accumulator holds, so the one
/// [`Goldilocks::reduce96_residue`] per lane sees identical input.
#[inline(always)]
#[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
pub(crate) fn mds_circulant(state: &[u64; WIDTH]) -> [u64; WIDTH] {
    let lo = mds_circulant_half(&state.map(|x| i64::from(x as u32)));
    let hi = mds_circulant_half(&state.map(|x| (x >> 32) as i64));
    let mut out = [0u64; WIDTH];
    for ((o, &l), &h) in out.iter_mut().zip(&lo).zip(&hi) {
        // Both are exact multiples of 4: (l / 4) + (h / 4)·2^32.
        *o = Goldilocks::reduce96_residue(u128::from(l as u64 >> 2) + (u128::from(h as u64) << 30));
    }
    out
}

/// Applies the full Poseidon permutation in place.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
/// use unizk_hash::poseidon_permute;
///
/// let mut state = [Goldilocks::ZERO; 12];
/// poseidon_permute(&mut state);
/// assert_ne!(state[0], Goldilocks::ZERO); // zero state does not stay zero
/// ```
pub fn poseidon_permute(state: &mut [Goldilocks; WIDTH]) {
    // The one-lane case of the lockstep engine: the rounds are written
    // once, in `crate::packed`, and the width is their parameter.
    PackedPermutation::<1>::permute(core::array::from_mut(state));
}

/// A permutation with every input lane fixed except one, with the static
/// lanes' first-round work precomputed.
///
/// This is the shape of the FRI grind (proof-of-work) loop: thousands of
/// permutations whose inputs differ only in the nonce lane. Round 0 applies
/// the round constants and s-box to each lane independently before the MDS
/// mix, so for the 11 static lanes both steps — and their contributions to
/// every MDS output accumulator — are attempt-invariant. [`Self::new`]
/// hoists them; [`Self::permute_many_row`] then pays one s-box, `WIDTH`
/// constant-by-residue products, and the remaining rounds per attempt.
///
/// Output is bit-identical to [`poseidon_permute`] on the same full input
/// (held to the dense oracle by `packed`'s unit tests); this is purely a
/// common-subexpression hoist, not an approximation.
#[derive(Clone, Debug)]
pub struct NoncePermutation {
    /// Per-output-row MDS accumulators over the 11 static sboxed lanes.
    /// Bound: 11 terms of `< 2^7 · 2^64`, comfortably below the `2^96`
    /// budget even after the nonce term joins.
    pub(crate) static_acc: [u128; WIDTH],
    /// `mds[i][lane]` for each output row `i` (canonical, `< 2^7`).
    pub(crate) nonce_col: [u64; WIDTH],
    /// Round-0 constant for the nonce lane.
    pub(crate) nonce_rc: u64,
}

impl NoncePermutation {
    /// Precomputes the static round-0 work for a permutation whose input
    /// equals `state` everywhere except index `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= WIDTH`.
    pub fn new(state: &[Goldilocks; WIDTH], lane: usize) -> Self {
        assert!(lane < WIDTH, "nonce lane out of range");
        let cs = constants();
        let mut sboxed = [0u64; WIDTH];
        for (i, (x, c)) in state.iter().zip(cs.round_constants[0].iter()).enumerate() {
            if i != lane {
                sboxed[i] = sbox_residue(Goldilocks::add_residue(
                    x.as_canonical_u64(),
                    c.as_canonical_u64(),
                ));
            }
        }
        let mut static_acc = [0u128; WIDTH];
        let mut nonce_col = [0u64; WIDTH];
        for ((acc, col), row) in static_acc
            .iter_mut()
            .zip(nonce_col.iter_mut())
            .zip(cs.mds.iter())
        {
            for (j, (c, x)) in row.iter().zip(sboxed.iter()).enumerate() {
                if j != lane {
                    *acc += u128::from(c.as_canonical_u64()) * u128::from(*x);
                }
            }
            *col = row[lane].as_canonical_u64();
        }
        Self {
            static_acc,
            nonce_col,
            nonce_rc: cs.round_constants[0][lane].as_canonical_u64(),
        }
    }
}

/// Static operation counts of one permutation: the textbook count the
/// accelerator cost model (`unizk-core`) prices, and the products the CPU
/// kernels of this crate actually issue, by operand size — the basis of the
/// operation table and floor in EXPERIMENTS.md.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoseidonCost {
    /// Modular multiplications per permutation with every linear layer
    /// taken as a dense or sparse matrix product over the field.
    pub muls: usize,
    /// Modular additions per permutation, counted the same way.
    pub adds: usize,
    /// Shipped kernel: 64×64→128-bit products, each followed by a full
    /// 128-bit reduction (the S-boxes).
    pub wide_muls: usize,
    /// Shipped kernel: widening products of a matrix entry below 2^7 and a
    /// 64-bit residue, summed unreduced in a `u128` (the pre-partial matrix
    /// and the sparse partial-round layers).
    pub const_muls: usize,
    /// Shipped kernel: products of a frequency-domain constant below 2^9
    /// and a 32-bit half that stay inside one 64-bit register (the
    /// circulant MDS of the full rounds).
    pub narrow_muls: usize,
    /// Shipped kernel: reductions of a sum below 2^96 to a residue, one per
    /// output lane of every linear layer.
    pub reductions: usize,
}

impl PoseidonCost {
    /// Derives the counts from the round structure.
    pub const fn of_permutation() -> Self {
        // Full round: WIDTH s-boxes (4 muls each: sq, sq, mul, mul) + dense
        // mat-vec (WIDTH^2 muls, WIDTH*(WIDTH-1) adds) + WIDTH const adds.
        let sbox_muls = 4;
        let dense_muls = WIDTH * WIDTH;
        let full_muls = WIDTH * sbox_muls + dense_muls;
        let full_adds = WIDTH + WIDTH * (WIDTH - 1);
        // Pre-partial: dense mat-vec + const adds.
        let pre_adds = WIDTH + WIDTH * (WIDTH - 1);
        // Partial round: 1 s-box (4 muls) + 1 const add + sparse mat-vec
        // (u-dot: WIDTH muls + WIDTH-1 adds; rows: 2(WIDTH-1) muls +
        // (WIDTH-1) adds).
        let sparse_muls = WIDTH + 2 * (WIDTH - 1);
        let partial_adds = 1 + (WIDTH - 1) + (WIDTH - 1);
        // Circulant full-round layer: per 32-bit half, a 3-point correlation
        // at frequencies 0 and 2 (9 products each) and a complex one at
        // frequency 1 (9 × 4).
        let circulant_muls = 2 * (9 + 9 + 4 * 9);
        Self {
            muls: FULL_ROUNDS * full_muls
                + dense_muls
                + PARTIAL_ROUNDS * (sbox_muls + sparse_muls),
            adds: FULL_ROUNDS * full_adds + pre_adds + PARTIAL_ROUNDS * partial_adds,
            wide_muls: sbox_muls * (FULL_ROUNDS * WIDTH + PARTIAL_ROUNDS),
            const_muls: dense_muls + PARTIAL_ROUNDS * sparse_muls,
            narrow_muls: FULL_ROUNDS * circulant_muls,
            reductions: (FULL_ROUNDS + 1 + PARTIAL_ROUNDS) * WIDTH,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{full_round, mat_rows, partial_round};
    use unizk_testkit::prop::prelude::*;

    /// Canonical-domain s-box wrapper over the residue kernel.
    fn sbox(x: Goldilocks) -> Goldilocks {
        Goldilocks::from_residue(sbox_residue(x.as_canonical_u64()))
    }

    fn to_residues(state: &[Goldilocks; WIDTH]) -> [u64; WIDTH] {
        let mut out = [0u64; WIDTH];
        for (o, x) in out.iter_mut().zip(state.iter()) {
            *o = x.as_canonical_u64();
        }
        out
    }

    fn from_residues(lanes: &[u64; WIDTH]) -> [Goldilocks; WIDTH] {
        let mut out = [Goldilocks::ZERO; WIDTH];
        for (o, l) in out.iter_mut().zip(lanes.iter()) {
            *o = Goldilocks::from_residue(*l);
        }
        out
    }

    #[test]
    fn permutation_is_deterministic() {
        let mut a = [Goldilocks::from_u64(3); WIDTH];
        let mut b = [Goldilocks::from_u64(3); WIDTH];
        poseidon_permute(&mut a);
        poseidon_permute(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn permutation_differs_on_different_inputs() {
        let mut a = [Goldilocks::ZERO; WIDTH];
        let mut b = [Goldilocks::ZERO; WIDTH];
        b[0] = Goldilocks::ONE;
        poseidon_permute(&mut a);
        poseidon_permute(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn single_bit_diffusion() {
        // After the permutation, flipping one input element should change
        // every output element (full diffusion).
        let mut base = [Goldilocks::from_u64(42); WIDTH];
        let mut flipped = base;
        flipped[7] += Goldilocks::ONE;
        poseidon_permute(&mut base);
        poseidon_permute(&mut flipped);
        for i in 0..WIDTH {
            assert_ne!(base[i], flipped[i], "lane {i} did not diffuse");
        }
    }

    #[test]
    fn sbox_is_x_to_the_7() {
        let x = Goldilocks::from_u64(5);
        assert_eq!(sbox(x), x.exp_u64(7));
        assert_eq!(sbox(Goldilocks::ZERO), Goldilocks::ZERO);
        assert_eq!(sbox(Goldilocks::ONE), Goldilocks::ONE);
    }

    #[test]
    fn sparse_round_matches_dense_equivalent() {
        // Build the dense matrix from (u, v, E) and check the partial round's
        // sparse evaluation agrees with a dense mat-vec.
        let cs = constants();
        let r = 5;
        let mut dense = [[Goldilocks::ZERO; WIDTH]; WIDTH];
        dense[0] = cs.sparse_u[r];
        for (i, row) in dense.iter_mut().enumerate().skip(1) {
            row[0] = cs.sparse_v[r][i];
            row[i] = cs.sparse_diag[r][i];
        }

        let mut state = [Goldilocks::ZERO; WIDTH];
        for (i, x) in state.iter_mut().enumerate() {
            *x = Goldilocks::from_u64(i as u64 + 1);
        }

        // Expected: apply s-box + const, then dense multiply.
        let mut expected = state;
        expected[0] = sbox(expected[0]) + cs.partial_round_constants[r];
        let expected = mat_mul(&dense, &expected);

        let mut got = to_residues(&state).map(|x| [x]);
        partial_round(cs, &mut got, r);
        assert_eq!(from_residues(&got.map(|[x]| x)), expected);
    }

    #[test]
    fn mds_fast_path_matches_generic() {
        let cs = constants();
        let mut state = [Goldilocks::ZERO; WIDTH];
        for (i, x) in state.iter_mut().enumerate() {
            *x = Goldilocks::from_u64(u64::MAX - i as u64); // near-p values
        }
        let mut fast = to_residues(&state).map(|x| [x]);
        mat_rows(&cs.mds, &mut fast);
        assert_eq!(from_residues(&fast.map(|[x]| x)), mat_mul(&cs.mds, &state));
    }

    fn check_circulant(residues: &[u64; WIDTH]) {
        let cs = constants();
        let got = mds_circulant(residues);
        // Same exact integer into the same reduction as the dense
        // small-entry product: the residues agree bit for bit, not only
        // modulo p.
        let mut dense = residues.map(|x| [x]);
        mat_rows(&cs.mds, &mut dense);
        assert_eq!(got, dense.map(|[x]| x), "input {residues:x?}");
        assert_eq!(
            from_residues(&got),
            mat_mul(&cs.mds, &from_residues(residues)),
            "input {residues:x?}"
        );
    }

    #[test]
    fn circulant_matches_dense_oracle_at_the_extremes() {
        for residues in extreme_states() {
            check_circulant(&residues);
        }
    }

    prop! {
        #![cases(256)]

        fn circulant_matches_dense_oracle(
            residues in prop::collection::vec(any::<u64>(), WIDTH),
        ) {
            check_circulant(&std::array::from_fn(|i| residues[i]));
        }

        /// The public one-lane entry against the dense reference, on random
        /// states (every width, and the nonce kernel: `packed::tests`).
        fn scalar_paths_match_dense_reference(
            state in prop::collection::vec(any::<u64>(), WIDTH),
        ) {
            check_scalar_path(&std::array::from_fn(|i| state[i]));
        }
    }

    fn check_scalar_path(state: &[u64; WIDTH]) {
        let state = state.map(Goldilocks::from_u64);
        let mut want = state;
        permute_dense_reference(&mut want);
        let mut got = state;
        poseidon_permute(&mut got);
        assert_eq!(got, want, "input {state:?}");
    }

    #[test]
    fn scalar_paths_match_dense_reference_at_the_extremes() {
        for state in extreme_states() {
            check_scalar_path(&state);
        }
    }

    #[test]
    fn residue_rounds_accept_noncanonical_lanes() {
        // Feed each round kernel a lane pinned at u64::MAX (the worst legal
        // residue) next to its canonical equivalent, as two lockstep lanes,
        // and check congruence.
        let cs = constants();
        let mut canonical = [Goldilocks::ZERO; WIDTH];
        for (i, x) in canonical.iter_mut().enumerate() {
            *x = Goldilocks::from_u64(u64::MAX).mul_pow2(i); // u64::MAX ≡ MAX - p
        }
        let mut lazy = to_residues(&canonical);
        lazy[0] = u64::MAX; // ≡ canonical[0], but non-canonical form
        let pair: [[u64; 2]; WIDTH] = std::array::from_fn(|i| [canonical[i].as_canonical_u64(), lazy[i]]);
        let congruent = |state: &[[u64; 2]; WIDTH]| {
            assert_eq!(from_residues(&state.map(|[a, _]| a)), from_residues(&state.map(|[_, b]| b)));
        };

        let mut state = pair;
        full_round(cs, &mut state, 0);
        congruent(&state);

        let mut state = pair;
        partial_round(cs, &mut state, 3);
        congruent(&state);
    }

    #[test]
    #[should_panic(expected = "nonce lane out of range")]
    fn nonce_permutation_rejects_bad_lane() {
        let _ = NoncePermutation::new(&[Goldilocks::ZERO; WIDTH], WIDTH);
    }

    #[test]
    fn mds_is_circulant() {
        let cs = constants();
        for i in 0..WIDTH {
            for j in 0..WIDTH {
                assert_eq!(cs.mds[i][j], cs.mds[(i + 1) % WIDTH][(j + 1) % WIDTH]);
            }
        }
    }

    #[test]
    fn cost_counts_are_sane() {
        let cost = PoseidonCost::of_permutation();
        // The dense count: 8 full rounds dominate, 8 * (48 + 144) = 1536
        // muls, plus pre and partial contributions.
        assert_eq!(
            cost.muls,
            8 * (12 * 4 + 144) + 144 + 22 * (4 + 12 + 22)
        );
        assert_eq!(cost.adds, 8 * (12 + 132) + (12 + 132) + 22 * (1 + 11 + 11));
        // The shipped count: 118 S-boxes, the dense pre-partial matrix and
        // 22 sparse layers, 8 circulant layers of 2 × 54, 31 linear layers.
        assert_eq!(cost.wide_muls, 4 * 118);
        assert_eq!(cost.const_muls, 144 + 22 * 34);
        assert_eq!(cost.narrow_muls, 8 * 108);
        assert_eq!(cost.reductions, 31 * 12);
        // The two agree on everything but the full-round MDS.
        assert_eq!(cost.muls, cost.wide_muls + cost.const_muls + 8 * 144);
    }
}
