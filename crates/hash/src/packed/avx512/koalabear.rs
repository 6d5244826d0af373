//! Sixteen KoalaBear lanes in one AVX-512 register: the vector
//! [`Row`] of the Poseidon2 walk.
//!
//! A row is a `__m512i` of sixteen canonical Montgomery residues, one per
//! 32-bit lane. The product and the modular sum are the sixteen-lane
//! KoalaBear primitives of the polynomial layer, imported from
//! `unizk_field::lanes::avx512::koalabear` ([`mul`], [`add`]): the
//! workspace has one vector KoalaBear product. What 32-bit lanes cannot do
//! is hold the scalar rows' unreduced `81·p` sums, so every addition of the
//! two linear layers is modular: `t = a + b; min(t, t − p)` as unsigned
//! values, three instructions, `t < 2p < 2^32`.
//!
//! The fence of the parent module applies unchanged: every function that
//! executes an intrinsic carries `#[target_feature(enable = "avx512f")]`,
//! the [`Row`] methods are `#[inline(always)]` glue over them, and
//! [`permute_lockstep`] instantiated over [`V16`] has no body outside the
//! two entry points below, which are reached only through [`Detected`] and
//! which `scripts/ci.sh` disassembles beside the Goldilocks pair.

use core::arch::x86_64::{
    __m512i, _mm512_loadu_si512, _mm512_set1_epi32, _mm512_shuffle_i32x4, _mm512_storeu_si512,
    _mm512_unpackhi_epi32, _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
};

use unizk_field::lanes::avx512::koalabear::{add, mul};
use unizk_field::KoalaBear;

pub(crate) use super::{detect, Detected};
use crate::poseidon2_kb::{constants_kb, permute_lockstep, Row, KB_RATE, KB_WIDTH};

/// States in one group of vector rows: the 32-bit lanes of a 512-bit
/// register. Equal to the state width, so a group of states is a square the
/// kernel transposes in place.
pub(crate) const LANES: usize = 16;

const _: () = assert!(LANES == KB_WIDTH);

impl Detected {
    /// The permutations of sixteen states, each one row of canonical
    /// Montgomery residues, in place.
    pub(crate) fn permute_kb_states(self, states: &mut [[u32; KB_WIDTH]; LANES]) {
        // SAFETY: `self` exists, so `detect` saw avx512f on this CPU.
        unsafe { permute_states(states) }
    }

    /// Element `KB_RATE - 1` of the permutations of `state` with each lane
    /// of `xs` (canonical Montgomery residues) written over element
    /// `pending` — the grind's squeeze.
    ///
    /// # Panics
    ///
    /// Panics if `pending >= KB_WIDTH`.
    pub(crate) fn squeeze_kb_row(
        self,
        state: &[KoalaBear; KB_WIDTH],
        pending: usize,
        xs: &[u32; 16],
    ) -> [u32; 16] {
        assert!(pending < KB_WIDTH, "pending lane out of range");
        // SAFETY: `self` exists, so `detect` saw avx512f on this CPU.
        unsafe { squeeze_row(state, pending, xs) }
    }
}

/// Sixteen states in, one per register; the transpose makes them the
/// sixteen element rows of the walk, and back. The registers being
/// transposed are arrays of their own, apart from the state the walk
/// indexes: filling that one straight from `states` is a 1 KiB copy, which
/// the optimizer makes a `memcpy` call.
#[target_feature(enable = "avx512f")]
fn permute_states(states: &mut [[u32; KB_WIDTH]; LANES]) {
    let mut lanes = [splat(0); 16];
    for (x, state) in lanes.iter_mut().zip(states.iter()) {
        *x = load(state);
    }
    let mut rows = [V16(lanes[0]); KB_WIDTH];
    for (row, x) in rows.iter_mut().zip(transpose(&lanes)) {
        *row = V16(x);
    }
    permute_lockstep(core::slice::from_mut(&mut rows));
    for (x, row) in lanes.iter_mut().zip(rows) {
        *x = row.0;
    }
    for (state, x) in states.iter_mut().zip(transpose(&lanes)) {
        *state = store(x);
    }
}

/// The static elements splatted, the candidate row loaded, the squeezed row
/// stored.
#[target_feature(enable = "avx512f")]
fn squeeze_row(state: &[KoalaBear; KB_WIDTH], pending: usize, xs: &[u32; 16]) -> [u32; 16] {
    let mut rows = [V16(splat(0)); KB_WIDTH];
    for (i, (row, x)) in rows.iter_mut().zip(state).enumerate() {
        // No `rows[pending]`: an index check is a call out of the kernel.
        *row = V16(if i == pending { load(xs) } else { splat(x.to_montgomery()) });
    }
    permute_lockstep(core::slice::from_mut(&mut rows));
    store(rows[KB_RATE - 1].0)
}

/// The 16 × 16 transpose of 32-bit elements, in registers: interleave the
/// elements of row pairs, then 64-bit pairs of those, then move 128-bit
/// quarters — 64 shuffles, against 256 strided scalar loads and stores. Its
/// own inverse.
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose(rows: &[__m512i; 16]) -> [__m512i; 16] {
    let mut t = *rows;
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_epi32(rows[2 * i], rows[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_epi32(rows[2 * i], rows[2 * i + 1]);
    }
    // u[4i + k], quarter q: column 4q + k of rows 4i..4i + 4.
    let mut u = t;
    for i in 0..4 {
        u[4 * i] = _mm512_unpacklo_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 1] = _mm512_unpackhi_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 2] = _mm512_unpacklo_epi64(t[4 * i + 1], t[4 * i + 3]);
        u[4 * i + 3] = _mm512_unpackhi_epi64(t[4 * i + 1], t[4 * i + 3]);
    }
    // Quarters 0 and 2 (`0x88`) or 1 and 3 (`0xdd`) of both operands.
    let mut out = u;
    for k in 0..4 {
        let v0 = _mm512_shuffle_i32x4::<0x88>(u[k], u[4 + k]);
        let v1 = _mm512_shuffle_i32x4::<0xdd>(u[k], u[4 + k]);
        let v2 = _mm512_shuffle_i32x4::<0x88>(u[8 + k], u[12 + k]);
        let v3 = _mm512_shuffle_i32x4::<0xdd>(u[8 + k], u[12 + k]);
        out[k] = _mm512_shuffle_i32x4::<0x88>(v0, v2);
        out[4 + k] = _mm512_shuffle_i32x4::<0x88>(v1, v3);
        out[8 + k] = _mm512_shuffle_i32x4::<0xdd>(v0, v2);
        out[12 + k] = _mm512_shuffle_i32x4::<0xdd>(v1, v3);
    }
    out
}

/// Sixteen canonical Montgomery residues, one per 32-bit lane.
#[derive(Clone, Copy)]
struct V16(__m512i);

// SAFETY (every `unsafe` block of this impl): `V16` is private to this
// module, and the only code instantiated over it is `permute_states` and
// `squeeze_row` above, which run only after avx512f was detected
// (`Detected`). Each method is `#[inline(always)]`, so it has no body of
// its own outside those two functions.
impl V16 {
    #[inline(always)]
    fn add(self, b: Self) -> Self {
        // SAFETY: see the impl.
        Self(unsafe { add(self.0, b.0) })
    }

    #[inline(always)]
    fn double(self) -> Self {
        self.add(self)
    }

    /// The product with the same factor in every lane.
    #[inline(always)]
    fn mul_const(self, c: KoalaBear) -> Self {
        // SAFETY: see the impl.
        Self(unsafe { mul_const(self.0, c) })
    }

    /// The `M4` add-chain of the scalar rows on modular adds.
    #[inline(always)]
    fn m4(x: [Self; 4]) -> [Self; 4] {
        let t0 = x[0].add(x[1]);
        let t1 = x[2].add(x[3]);
        let t2 = x[1].double().add(t1);
        let t3 = x[3].double().add(t0);
        let t4 = t1.double().double().add(t3);
        let t5 = t0.double().double().add(t2);
        [t3.add(t5), t5, t2.add(t4), t4]
    }
}

/// The two layers are spelled on [`V16::add`] and [`V16::mul_const`] rather
/// than inside `#[target_feature]` functions of their own: those would be
/// `#[inline]` at best, and at three hundred instructions the optimizer
/// leaves them out of line, with the sixteen rows passed through memory at
/// every call.
impl Row for V16 {
    #[inline(always)]
    fn add_const(self, c: KoalaBear) -> Self {
        // SAFETY: see `impl V16`.
        self.add(Self(unsafe { splat(c.to_montgomery()) }))
    }

    #[inline(always)]
    fn sbox(self) -> Self {
        // SAFETY: see `impl V16`.
        Self(unsafe { sbox(self.0) })
    }

    /// [`crate::poseidon2_kb::external_layer`] with the same blocks and
    /// column sums, reduced at every addition instead of once per lane.
    #[inline(always)]
    fn external_layer(state: &mut [Self; KB_WIDTH], consts: &[KoalaBear; KB_WIDTH]) {
        let mut blocks = [[state[0]; 4]; 4];
        for (block, x) in blocks.iter_mut().zip(state.chunks_exact(4)) {
            *block = Self::m4([x[0], x[1], x[2], x[3]]);
        }
        let mut columns = blocks[0];
        for (k, column) in columns.iter_mut().enumerate() {
            *column = blocks[0][k].add(blocks[1][k]).add(blocks[2][k].add(blocks[3][k]));
        }
        for (j, (out, c)) in state.chunks_exact_mut(4).zip(consts.chunks_exact(4)).enumerate() {
            for k in 0..4 {
                out[k] = blocks[j][k].add(columns[k]).add_const(c[k]);
            }
        }
    }

    /// [`crate::poseidon2_kb::internal_layer`] with the 16-term sum as a
    /// tree of modular adds.
    #[inline(always)]
    fn internal_layer(state: &mut [Self; KB_WIDTH]) {
        let mut sums = [state[0]; 8];
        for (sum, pair) in sums.iter_mut().zip(state.chunks_exact(2)) {
            *sum = pair[0].add(pair[1]);
        }
        let sum = (sums[0].add(sums[1])).add(sums[2].add(sums[3]));
        let sum = sum.add((sums[4].add(sums[5])).add(sums[6].add(sums[7])));
        for (x, d) in state.iter_mut().zip(constants_kb().internal_diag.iter()) {
            *x = sum.add(x.mul_const(*d));
        }
    }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn load(lanes: &[u32; 16]) -> __m512i {
    // SAFETY: the reference covers the 64 bytes read; `loadu` takes any
    // alignment.
    unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
}

#[target_feature(enable = "avx512f")]
#[inline]
fn store(x: __m512i) -> [u32; 16] {
    let mut lanes = [0u32; 16];
    // SAFETY: the array covers the 64 bytes written; `storeu` takes any
    // alignment.
    unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), x) };
    lanes
}

#[target_feature(enable = "avx512f")]
#[inline]
fn splat(x: u32) -> __m512i {
    _mm512_set1_epi32(x.cast_signed())
}

/// The product with the same factor in every lane.
#[target_feature(enable = "avx512f")]
#[inline]
fn mul_const(a: __m512i, c: KoalaBear) -> __m512i {
    mul(a, splat(c.to_montgomery()))
}

/// `x^3`, in the multiply order of the scalar S-box.
#[target_feature(enable = "avx512f")]
#[inline]
fn sbox(x: __m512i) -> __m512i {
    mul(mul(x, x), x)
}

#[cfg(test)]
mod tests {
    //! Each vector primitive of the rows against its scalar counterpart,
    //! residue for residue (the imported product and sum have their own
    //! edge tests in `unizk_field::lanes::avx512::koalabear`). The walk over
    //! these rows is held to the naive reference in `crate::poseidon2_kb`'s
    //! tests.

    use super::super::detect_or_report;
    use super::*;
    use unizk_field::koalabear::{MU, P};
    use unizk_field::{Field, PrimeField64};
    use unizk_testkit::prop::prelude::*;

    /// `R = 2^32 mod p`, the residue of one.
    const R: u32 = KoalaBear::ONE.to_montgomery();

    /// Where the single conditional subtractions can go wrong: the ends of
    /// the range and, for the product, the residues around one.
    const EDGES: [u32; 6] = [0, 1, 2, P - 1, R, P - R];

    /// Lane `l` holds edge `(l + shift) % 6`, so two operands built with
    /// shifts `0` and `s` meet in every pairing as `s` runs over `0..6`.
    fn edges(shift: usize) -> [u32; 16] {
        core::array::from_fn(|l| EDGES[(l + shift) % 6])
    }

    fn lanes(v: &[u32]) -> [u32; 16] {
        core::array::from_fn(|l| v[l])
    }

    // The primitives on plain lanes, so the checks read like their scalar
    // counterparts.
    #[target_feature(enable = "avx512f")]
    fn add_lanes(a: &[u32; 16], b: &[u32; 16]) -> [u32; 16] {
        store(add(load(a), load(b)))
    }

    #[target_feature(enable = "avx512f")]
    fn mul_lanes(a: &[u32; 16], b: &[u32; 16]) -> [u32; 16] {
        store(mul(load(a), load(b)))
    }

    #[target_feature(enable = "avx512f")]
    fn mul_const_lanes(a: &[u32; 16], c: KoalaBear) -> [u32; 16] {
        store(mul_const(load(a), c))
    }

    #[target_feature(enable = "avx512f")]
    fn sbox_lanes(a: &[u32; 16]) -> [u32; 16] {
        store(sbox(load(a)))
    }

    #[target_feature(enable = "avx512f")]
    fn transpose_lanes(rows: &[[u32; 16]; 16]) -> [[u32; 16]; 16] {
        transpose(&rows.map(|row| load(&row))).map(|row| store(row))
    }

    fn check(a: &[u32; 16], b: &[u32; 16]) {
        let Some(_detected) = detect_or_report() else { return };
        // SAFETY: avx512f was detected.
        let (sum, product, by_const, cube) =
            unsafe { (add_lanes(a, b), mul_lanes(a, b), mul_const_lanes(a, KoalaBear::from_montgomery(b[0])), sbox_lanes(a)) };
        for l in 0..16 {
            let (x, y) = (KoalaBear::from_montgomery(a[l]), KoalaBear::from_montgomery(b[l]));
            assert_eq!(sum[l], (x + y).to_montgomery(), "lane {l}: {:#x} + {:#x}", a[l], b[l]);
            assert_eq!(product[l], (x * y).to_montgomery(), "lane {l}: {:#x} * {:#x}", a[l], b[l]);
            let c = KoalaBear::from_montgomery(b[0]);
            assert_eq!(by_const[l], (x * c).to_montgomery(), "lane {l}: {:#x} * splat {:#x}", a[l], b[0]);
            assert_eq!(cube[l], crate::poseidon2_kb::sbox(x).to_montgomery(), "lane {l}: {:#x}^3", a[l]);
        }
    }

    #[test]
    fn primitives_hold_at_every_pair_of_edges() {
        for shift in 0..6 {
            check(&edges(0), &edges(shift));
            check(&edges(shift), &edges(0));
        }
    }

    #[test]
    fn transpose_swaps_rows_and_lanes() {
        let Some(_detected) = detect_or_report() else { return };
        let mut next = 0u32..;
        let rows: [[u32; 16]; 16] = core::array::from_fn(|_| core::array::from_fn(|_| next.next().unwrap()));
        // SAFETY: avx512f was detected.
        let transposed = unsafe { transpose_lanes(&rows) };
        for (i, row) in rows.iter().enumerate() {
            for (l, &x) in row.iter().enumerate() {
                assert_eq!(transposed[l][i], x, "row {i} lane {l}");
            }
        }
    }

    #[test]
    fn montgomery_constants_are_the_fields_own() {
        assert_eq!(P.wrapping_mul(MU), u32::MAX, "MU = -p^-1 mod 2^32");
        assert_eq!(u64::from(P), KoalaBear::ORDER);
        assert_eq!(u64::from(R), (1u64 << 32) % KoalaBear::ORDER);
    }

    prop! {
        #![cases(64)]

        fn primitives_match_their_scalar_counterparts(
            a in prop::collection::vec(0..P, 16),
            b in prop::collection::vec(0..P, 16),
            shift in 0usize..6,
        ) {
            check(&lanes(&a), &lanes(&b));
            check(&edges(shift), &lanes(&b));
            check(&lanes(&a), &edges(shift));
        }
    }
}
