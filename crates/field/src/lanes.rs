//! Lanes: one field operation over several positions at once — the
//! software form of the VSAs' vector mode (paper §5), on which the NTT
//! butterflies, the FRI combine and the Plonk quotient and permutation run.
//!
//! * [`Lanes`] is a row of `WIDTH` field elements with element-wise `+`,
//!   `−`, `×`, loaded from and stored to slices of its [`Lanes::Scalar`].
//!   Every [`Field`] is its own one-lane case.
//! * [`LaneKernel`] is a computation written once, generic over the lane
//!   type. [`PrimeField64::with_lanes`] runs it: by default on the field
//!   itself, one lane at a time. Both fields override the hook when the CPU
//!   has `avx512f`: [`crate::Goldilocks`] runs it on eight lanes in one
//!   AVX-512 register, [`crate::KoalaBear`] on sixteen (the private row
//!   types of [`avx512`] and [`avx512::koalabear`]).
//!
//! CPU detection is the only selector: there is no feature, environment
//! variable, setter or build flag. Lanes hold canonical elements and every
//! operation returns canonical elements, so a kernel computes the same bits
//! at every width; the tests below hold each lane operation, and the
//! kernels' own tests hold each kernel, to the one-lane instantiation.
//!
//! # Writing a kernel
//!
//! A vector lane type is fast only if the whole kernel is compiled inside
//! the `#[target_feature]` entry point [`with_lanes`](PrimeField64::with_lanes)
//! reaches: [`LaneKernel::run`] and every helper it calls on lanes must be
//! `#[inline(always)]` and must not pass lanes through a closure or a call
//! that is left out of line. `scripts/ci.sh` disassembles the entry points
//! and fails on a `call` inside them. Allocate buffers before the kernel
//! runs and hand them in as scalar slices: [`Lanes::pack_mut`] views a
//! slice of `WIDTH·k` scalars as `k` lane rows.

use core::ops::{Add, Mul, Sub};

use crate::traits::{Field, PrimeField64};

#[cfg(target_arch = "x86_64")]
pub mod avx512;

/// The widest lane type of any field — sixteen KoalaBear lanes — so a
/// buffer of `MAX_LANES` scalars per row holds one lane row of whichever
/// type [`PrimeField64::with_lanes`] picks, for either field.
pub const MAX_LANES: usize = 16;

/// `WIDTH` elements of one field, operated on element-wise.
///
/// Implemented by every [`Field`] (one lane) and, on x86-64, by a private
/// eight-lane Goldilocks row and a private sixteen-lane KoalaBear row that
/// only [`PrimeField64::with_lanes`] can instantiate.
pub trait Lanes:
    Copy
    + Send
    + Sync
    + From<Self::Scalar>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
{
    /// The field of each lane.
    type Scalar: Field;

    /// Elements per row; at most [`MAX_LANES`].
    const WIDTH: usize;

    /// Every lane set to `x`.
    fn splat(x: Self::Scalar) -> Self;

    /// The first `WIDTH` elements of `src`, lane `l` from `src[l]`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than `WIDTH`.
    fn load(src: &[Self::Scalar]) -> Self;

    /// Writes lane `l` to `dst[l]` for every lane.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than `WIDTH`.
    fn store(self, dst: &mut [Self::Scalar]);

    /// `src` as rows of `WIDTH` consecutive elements.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not a multiple of `WIDTH`.
    fn pack(src: &[Self::Scalar]) -> &[Self];

    /// [`Lanes::pack`] on a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not a multiple of `WIDTH`.
    fn pack_mut(src: &mut [Self::Scalar]) -> &mut [Self];

    /// The two rows cut into chunks of `block_len` lanes and dealt
    /// alternately: the first result holds the even chunks (chunk 0 of
    /// `self`, chunk 0 of `other`, chunk 2 of `self`, …), the second the
    /// odd ones. With blocks of `2·block_len` elements in `self` and
    /// `other`, the first result is their first halves and the second
    /// their second halves, lane for lane — a butterfly stage whose
    /// half-size is below one row. Interleaving twice with one `block_len`
    /// gives the rows back. `block_len` is a power of two; from `WIDTH` up
    /// the rows come back unchanged.
    fn interleave(self, other: Self, block_len: usize) -> (Self, Self);
}

/// Every field element is a row of one lane.
impl<F: Field> Lanes for F {
    type Scalar = F;
    const WIDTH: usize = 1;

    #[inline(always)]
    fn splat(x: F) -> F {
        x
    }

    #[inline(always)]
    fn load(src: &[F]) -> F {
        src[0]
    }

    #[inline(always)]
    fn store(self, dst: &mut [F]) {
        dst[0] = self;
    }

    #[inline(always)]
    fn pack(src: &[F]) -> &[F] {
        src
    }

    #[inline(always)]
    fn pack_mut(src: &mut [F]) -> &mut [F] {
        src
    }

    #[inline(always)]
    fn interleave(self, other: F, _block_len: usize) -> (F, F) {
        (self, other)
    }
}

/// A computation over one field, written once for every lane type.
///
/// Hand it to [`PrimeField64::with_lanes`], which picks the lane type and
/// calls [`LaneKernel::run`] once. `run` and what it calls on lanes must be
/// `#[inline(always)]` (see the module docs).
pub trait LaneKernel<F: Field> {
    /// What the kernel returns.
    type Output;

    /// Runs the kernel on rows of type `L`.
    fn run<L: Lanes<Scalar = F>>(self) -> Self::Output;
}

/// `dst[i] ← dst[i] · factors[i]` over the common length: the coset and
/// `n⁻¹` scalings of the NTT, one pass.
pub fn mul_assign<F: PrimeField64>(dst: &mut [F], factors: &[F]) {
    F::with_lanes(MulAssign { dst, factors });
}

/// `dst[i] ← dst[i] · c`.
pub fn scale<F: PrimeField64>(dst: &mut [F], c: F) {
    F::with_lanes(Scale { dst, c });
}

/// The kernel of [`mul_assign`].
struct MulAssign<'a, F> {
    dst: &'a mut [F],
    factors: &'a [F],
}

impl<F: Field> LaneKernel<F> for MulAssign<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        let (dst, factors) = common_prefix_mut(self.dst, self.factors);
        let (dst_rows, dst_tail) = split_rows_mut::<L>(dst);
        let (factor_rows, factor_tail) = split_rows::<L>(factors);
        for (d, &f) in dst_rows.iter_mut().zip(factor_rows) {
            *d = *d * f;
        }
        for (d, &f) in dst_tail.iter_mut().zip(factor_tail) {
            *d *= f;
        }
    }
}

/// The kernel of [`scale`].
struct Scale<'a, F> {
    dst: &'a mut [F],
    c: F,
}

impl<F: Field> LaneKernel<F> for Scale<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(self) {
        let (rows, tail) = split_rows_mut::<L>(self.dst);
        let c = L::splat(self.c);
        for d in rows {
            *d = *d * c;
        }
        for d in tail {
            *d *= self.c;
        }
    }
}

/// `Σ a[i] · b[i]` over the common length on rows of `L`: one lane-wise
/// accumulator, summed across lanes at the end, the tail one lane at a
/// time. Any order gives the same element, so the sum agrees with the
/// one-lane instantiation bit for bit.
#[inline(always)]
pub fn dot_rows<L: Lanes>(a: &[L::Scalar], b: &[L::Scalar]) -> L::Scalar {
    let (a, b) = common_prefix(a, b);
    let (a_rows, a_tail) = split_rows::<L>(a);
    let (b_rows, b_tail) = split_rows::<L>(b);
    let mut products = a_rows.iter().zip(b_rows).map(|(&x, &y)| x * y);
    let mut sum = match products.next() {
        Some(first) => sum_lanes(products.fold(first, |acc, p| acc + p)),
        None => L::Scalar::ZERO,
    };
    for (&x, &y) in a_tail.iter().zip(b_tail) {
        sum += x * y;
    }
    sum
}

/// The sum of a row's lanes.
#[inline(always)]
fn sum_lanes<L: Lanes>(row: L) -> L::Scalar {
    let mut lanes = [L::Scalar::ZERO; MAX_LANES];
    row.store(&mut lanes);
    let (first, rest) = lanes.split_at(1);
    rest.iter().take(L::WIDTH - 1).fold(first[0], |s, &x| s + x)
}

/// `s` as whole rows of `L` and the scalars after them.
#[inline(always)]
pub fn split_rows<L: Lanes>(s: &[L::Scalar]) -> (&[L], &[L::Scalar]) {
    let (rows, tail) = s.split_at(s.len() / L::WIDTH * L::WIDTH);
    (L::pack(rows), tail)
}

/// [`split_rows`] on a mutable slice.
#[inline(always)]
pub fn split_rows_mut<L: Lanes>(s: &mut [L::Scalar]) -> (&mut [L], &mut [L::Scalar]) {
    let (rows, tail) = s.split_at_mut(s.len() / L::WIDTH * L::WIDTH);
    (L::pack_mut(rows), tail)
}

/// Both slices cut to the shorter length.
#[inline(always)]
fn common_prefix<'a, 'b, F>(a: &'a [F], b: &'b [F]) -> (&'a [F], &'b [F]) {
    let len = a.len().min(b.len());
    (&a[..len], &b[..len])
}

/// [`common_prefix`] with the first slice mutable.
#[inline(always)]
fn common_prefix_mut<'a, 'b, F>(a: &'a mut [F], b: &'b [F]) -> (&'a mut [F], &'b [F]) {
    let len = a.len().min(b.len());
    (&mut a[..len], &b[..len])
}

/// Reports once per test process that the vector rows are not exercised
/// on this host, and says whether they are.
#[cfg(test)]
pub(crate) fn vector_lanes_or_report() -> bool {
    #[cfg(target_arch = "x86_64")]
    let detected = avx512::detect().is_some();
    #[cfg(not(target_arch = "x86_64"))]
    let detected = false;
    if !detected {
        static REPORT: std::sync::Once = std::sync::Once::new();
        REPORT.call_once(|| eprintln!("skipped: no avx512f (vector lane kernel tests did not run)"));
    }
    detected
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Goldilocks, KoalaBear};
    use unizk_testkit::rng::TestRng;

    /// A field whose lane kernels the tests run, with the values where its
    /// lanes' carries, borrows, folds and conditional subtractions go wrong.
    trait Edges: PrimeField64 {
        fn extremes() -> Vec<Self>;
    }

    impl Edges for Goldilocks {
        /// 0, 1, 2, 2^32 − 1, 2^32, p − 2, p − 1.
        fn extremes() -> Vec<Self> {
            let p = crate::goldilocks::P;
            [0, 1, 2, 0xFFFF_FFFF, 1 << 32, p - 2, p - 1].map(Goldilocks::new).to_vec()
        }
    }

    impl Edges for KoalaBear {
        /// 0, 1, 2, p − 2, p − 1 and `R = 2^32 mod p`.
        fn extremes() -> Vec<Self> {
            let p = u64::from(crate::koalabear::P);
            [0, 1, 2, p - 2, p - 1, (1 << 32) % p].map(KoalaBear::from_u64).to_vec()
        }
    }

    /// `n` values: the extremes at every offset of one another, then random.
    fn values<F: Edges>(rng: &mut TestRng, n: usize, shift: usize) -> Vec<F> {
        let e = F::extremes();
        (0..n)
            .map(|i| if i < 3 * e.len() { e[(i + shift) % e.len()] } else { F::random(rng) })
            .collect()
    }

    /// The lane width [`PrimeField64::with_lanes`] picks for `F`.
    struct Width;

    impl<F: Field> LaneKernel<F> for Width {
        type Output = usize;

        fn run<L: Lanes<Scalar = F>>(self) -> usize {
            L::WIDTH
        }
    }

    /// Each lane operation on `L` against the scalar operation per lane.
    struct Ops<'a, F> {
        a: &'a [F],
        b: &'a [F],
    }

    impl<F: Field> LaneKernel<F> for Ops<'_, F> {
        type Output = Vec<[F; 3]>;

        #[inline(always)]
        fn run<L: Lanes<Scalar = F>>(self) -> Self::Output {
            let (a, _) = split_rows::<L>(self.a);
            let (b, _) = split_rows::<L>(self.b);
            let mut out = vec![[F::ZERO; 3]; a.len() * L::WIDTH];
            let mut lanes = [F::ZERO; MAX_LANES];
            for (r, (&x, &y)) in a.iter().zip(b).enumerate() {
                for (op, row) in [x + y, x - y, x * y].into_iter().enumerate() {
                    row.store(&mut lanes);
                    for l in 0..L::WIDTH {
                        out[r * L::WIDTH + l][op] = lanes[l];
                    }
                }
            }
            out
        }
    }

    /// The whole rows of `0..len` on the picked lane type, and on one lane,
    /// against the scalar operations.
    fn lane_ops_match<F: Edges>(seed: u64) {
        let mut rng = TestRng::seed_from_u64(seed);
        let width = F::with_lanes(Width);
        let shifts = F::extremes().len();
        for len in 0..=72 {
            for shift in 0..shifts {
                let a = values::<F>(&mut rng, len, 0);
                let b = values::<F>(&mut rng, len, shift);
                let want: Vec<[F; 3]> = a.iter().zip(&b).map(|(&x, &y)| [x + y, x - y, x * y]).collect();
                assert_eq!(Ops { a: &a, b: &b }.run::<F>(), want, "one lane, len {len} shift {shift}");
                let rows = len / width * width;
                assert_eq!(F::with_lanes(Ops { a: &a, b: &b }), want[..rows], "{width} lanes, len {len} shift {shift}");
            }
        }
    }

    #[test]
    fn lane_ops_match_scalar_ops_at_every_pair_of_extremes() {
        lane_ops_match::<Goldilocks>(0x1a7e);
        lane_ops_match::<KoalaBear>(0x1a7f);
        vector_lanes_or_report();
    }

    /// Interleaving two rows of 0..W and W..2W at every block length,
    /// against the definition, and back.
    struct Deal;

    impl<F: Field> LaneKernel<F> for Deal {
        type Output = Vec<(usize, [Vec<u64>; 2])>;

        #[inline(always)]
        fn run<L: Lanes<Scalar = F>>(self) -> Self::Output {
            let xs: Vec<F> = (0..2 * L::WIDTH as u64).map(F::from_u64).collect();
            let (x, y) = (L::load(&xs), L::load(&xs[L::WIDTH..]));
            let mut out = Vec::new();
            let mut block_len = 1;
            while block_len <= 2 * L::WIDTH {
                let (a, b) = x.interleave(y, block_len);
                let (x2, y2) = a.interleave(b, block_len);
                let mut rows = [vec![F::ZERO; 2 * L::WIDTH], vec![F::ZERO; 2 * L::WIDTH]];
                a.store(&mut rows[0]);
                b.store(&mut rows[0][L::WIDTH..]);
                x2.store(&mut rows[1]);
                y2.store(&mut rows[1][L::WIDTH..]);
                out.push((block_len, rows.map(|r| r.iter().map(Field::as_u64).collect())));
                block_len *= 2;
            }
            out
        }
    }

    fn interleave_deals<F: PrimeField64>() {
        for dealt in [Deal.run::<F>(), F::with_lanes(Deal)] {
            let width = dealt[0].1[0].len() / 2;
            for (block_len, [first_second, back]) in dealt {
                let identity: Vec<u64> = (0..2 * width as u64).collect();
                assert_eq!(back, identity, "width {width} block {block_len}");
                let want: Vec<u64> = if block_len >= width {
                    identity
                } else {
                    let chunk = |row: usize, c: usize| (0..block_len).map(move |k| (row * width + c * block_len + k) as u64);
                    let half = |parity: usize| (0..width / block_len / 2).flat_map(move |p| chunk(0, 2 * p + parity).chain(chunk(1, 2 * p + parity)));
                    half(0).chain(half(1)).collect()
                };
                assert_eq!(first_second, want, "width {width} block {block_len}");
            }
        }
    }

    #[test]
    fn interleave_deals_chunks_and_undoes_itself() {
        interleave_deals::<Goldilocks>();
        interleave_deals::<KoalaBear>();
    }

    struct RoundTrip<'a, F>(&'a [F]);

    impl<F: Field> LaneKernel<F> for RoundTrip<'_, F> {
        type Output = (Vec<F>, Vec<F>);

        #[inline(always)]
        fn run<L: Lanes<Scalar = F>>(self) -> Self::Output {
            let mut loaded = vec![F::ZERO; L::WIDTH];
            L::load(self.0).store(&mut loaded);
            let mut splat = vec![F::ZERO; L::WIDTH];
            L::splat(self.0[1]).store(&mut splat);
            (loaded, splat)
        }
    }

    fn round_trip<F: Edges>(seed: u64) {
        let mut rng = TestRng::seed_from_u64(seed);
        let xs = values::<F>(&mut rng, MAX_LANES, 3);
        let (loaded, splat) = F::with_lanes(RoundTrip(&xs));
        assert_eq!(loaded, xs[..loaded.len()]);
        assert!(splat.iter().all(|&x| x == xs[1]));
    }

    #[test]
    fn splat_load_store_round_trip() {
        round_trip::<Goldilocks>(0x5a1);
        round_trip::<KoalaBear>(0x5a2);
    }

    /// [`dot_rows`] as a kernel of its own.
    struct Dot<'a, F> {
        a: &'a [F],
        b: &'a [F],
    }

    impl<F: Field> LaneKernel<F> for Dot<'_, F> {
        type Output = F;

        #[inline(always)]
        fn run<L: Lanes<Scalar = F>>(self) -> F {
            dot_rows::<L>(self.a, self.b)
        }
    }

    /// The shared kernels at every length 0..=72 — so every remainder of
    /// eight and of sixteen — on both lane types, against plain loops.
    fn kernels_match<F: Edges>(seed: u64) {
        let mut rng = TestRng::seed_from_u64(seed);
        let shifts = F::extremes().len();
        for len in 0..=72 {
            let a = values::<F>(&mut rng, len, len % shifts);
            let b = values::<F>(&mut rng, len + len % 3, 2);
            let c = a.get(len / 2).copied().unwrap_or(F::ZERO - F::ONE);

            let want_dot: F = a.iter().zip(&b).map(|(&x, &y)| x * y).sum();
            let want_mul: Vec<F> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
            let want_scale: Vec<F> = a.iter().map(|&x| x * c).collect();

            assert_eq!(Dot { a: &a, b: &b }.run::<F>(), want_dot, "len {len}");
            assert_eq!(F::with_lanes(Dot { a: &a, b: &b }), want_dot, "len {len}");

            let mut one = a.clone();
            MulAssign { dst: &mut one, factors: &b }.run::<F>();
            let mut dispatched = a.clone();
            mul_assign(&mut dispatched, &b);
            assert_eq!((&one, &dispatched), (&want_mul, &want_mul), "len {len}");

            let mut one = a.clone();
            Scale { dst: &mut one, c }.run::<F>();
            let mut dispatched = a.clone();
            scale(&mut dispatched, c);
            assert_eq!((&one, &dispatched), (&want_scale, &want_scale), "len {len}");
        }
    }

    #[test]
    fn kernels_match_one_lane_at_every_length() {
        kernels_match::<Goldilocks>(0xd07);
        kernels_match::<KoalaBear>(0xd08);
        vector_lanes_or_report();
    }

    /// Goldilocks runs its kernels on eight lanes and KoalaBear on sixteen
    /// when the CPU has `avx512f`, each on one lane otherwise.
    #[test]
    fn each_field_runs_its_widest_lanes() {
        let vector = vector_lanes_or_report();
        assert_eq!(Goldilocks::with_lanes(Width), if vector { 8 } else { 1 });
        assert_eq!(KoalaBear::with_lanes(Width), if vector { 16 } else { 1 });
        let xs: Vec<KoalaBear> = (1..=40u64).map(KoalaBear::from_u64).collect();
        let mut squares = xs.clone();
        mul_assign(&mut squares, &xs);
        assert_eq!(squares, xs.iter().map(|&x| x * x).collect::<Vec<_>>());
    }
}
