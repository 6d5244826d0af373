//! The quotient engine of both provers: a constraint evaluated element-wise
//! over the LDE and divided by the vanishing polynomial, then one coset iNTT
//! per challenge round back to coefficients — the vector-mode kernel the
//! paper maps both protocols' quotients onto (§5.4, Table 1's "Polynomial"
//! class), which `compile_plonky2` and `compile_starky` emit as
//! `Kernel::GateEval` followed by `Kernel::Ntt { CosetInverseNn }`.
//!
//! The engine owns the walk over LDE positions: the domain points and
//! `Z_H⁻¹` ([`QuotientDomain`]), the leaf of `ω·x`, the split over workers
//! with per-worker scratch, the lane-major gather of each position's
//! columns, whole lane rows then the remainder on one lane ([`evaluate`]),
//! and the way back to coefficients, one serial coset iNTT per round on a
//! worker of its own ([`coefficients`]). A protocol supplies one
//! [`Constraint`]: which columns a position reads from its leaf matrices,
//! and how a lane row of them combines into every round's value.

use unizk_field::lanes::MAX_LANES;
use unizk_field::{
    batch_inverse, bit_reverse, log2_strict, parallel_columns_mut, parallel_map, reverse_index_bits,
    LaneKernel, Lanes, PrimeField64,
};
use unizk_ntt::coset_intt_nn;

use crate::batch::coset_shift;
use crate::domain::FoldDomain;

/// The LDE positions a quotient is evaluated at: the coset LDE domain in
/// bit-reversed storage order, over a trace of `n` rows.
pub struct QuotientDomain<F> {
    points: Vec<F>,
    vanishing: Vec<F>,
    vanishing_inv: Vec<F>,
    log_n: usize,
    bits: usize,
}

impl<F: PrimeField64> QuotientDomain<F> {
    /// The domain of `lde_size` positions over a trace of `n` rows.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `lde_size` is not a power of two, or `n` does not
    /// divide `lde_size`.
    pub fn new(n: usize, lde_size: usize) -> Self {
        let domain = FoldDomain::initial(lde_size);
        let vanishing = domain.vanishing(n);
        Self {
            points: domain.points(),
            vanishing_inv: batch_inverse(&vanishing),
            vanishing,
            log_n: log2_strict(n),
            bits: log2_strict(lde_size),
        }
    }

    /// Number of positions.
    pub fn size(&self) -> usize {
        self.points.len()
    }

    /// The point `x` at every position, in storage order.
    pub fn points(&self) -> &[F] {
        &self.points
    }

    /// `Z_H(x)` per coset of the trace domain: position `i` reads entry
    /// `i >> log2(n)` (see [`FoldDomain::vanishing`]).
    pub fn vanishing(&self) -> &[F] {
        &self.vanishing
    }

    /// The position of `ω·x`, for `ω` the generator of the trace domain:
    /// `blowup` positions further on in natural order.
    #[inline(always)]
    pub fn next(&self, position: usize) -> usize {
        let blowup = 1 << (self.bits - self.log_n);
        bit_reverse((bit_reverse(position, self.bits) + blowup) & (self.size() - 1), self.bits)
    }
}

/// One protocol's constraints as the engine evaluates them.
///
/// [`Constraint::gather`] and [`Constraint::combine`] run inside a lane
/// kernel: implementations mark every method `#[inline(always)]` and leave
/// no call in them (see `unizk_field::lanes`).
pub trait Constraint<F: PrimeField64>: Sync {
    /// Challenge rounds: one quotient each.
    fn rounds(&self) -> usize;

    /// Columns [`Constraint::gather`] writes per position.
    fn columns(&self) -> usize;

    /// Lane rows of scratch [`Constraint::combine`] receives.
    fn scratch(&self) -> usize;

    /// Writes the columns of `position`, whose `ω·x` is at position `next`,
    /// into `slots` in order.
    fn gather<'s>(&self, position: usize, next: usize, slots: impl Iterator<Item = &'s mut F>)
    where
        F: 's;

    /// Every round's quotient value at the lane row `row`, round `s` into
    /// the `s`-th slice of `out` (one lane each).
    fn combine<'o, L: Lanes<Scalar = F>>(
        &self,
        row: &LaneRow<'_, L>,
        scratch: &mut [L],
        out: impl Iterator<Item = &'o mut [F]>,
    ) where
        F: 'o;
}

/// What [`Constraint::combine`] reads at the positions
/// `position..position + L::WIDTH`, lane `l` from position `position + l`.
pub struct LaneRow<'a, L> {
    /// The first position.
    pub position: usize,
    /// The gathered columns, in [`Constraint::gather`] order.
    pub columns: &'a [L],
    /// The domain points.
    pub x: L,
    /// `Z_H(x)⁻¹`.
    pub zh_inv: L,
}

/// Every round's quotient values at every position of `domain`, in
/// storage order: in parallel over position ranges, each range on
/// [`evaluate_range`].
pub fn evaluate<F: PrimeField64, C: Constraint<F>>(domain: &QuotientDomain<F>, constraint: &C) -> Vec<Vec<F>> {
    let mut values: Vec<Vec<F>> = (0..constraint.rounds()).map(|_| vec![F::ZERO; domain.size()]).collect();
    parallel_columns_mut(&mut values, 1, |first, out| evaluate_range(domain, constraint, first, out));
    values
}

/// Every round's quotient values at the positions `first..first +
/// out[s].len()` into `out[s]`, on the calling thread: whole lane rows of
/// positions, then the rest one lane at a time.
pub fn evaluate_range<F: PrimeField64, C: Constraint<F>>(
    domain: &QuotientDomain<F>,
    constraint: &C,
    first: usize,
    out: &mut [&mut [F]],
) {
    let mut gathered = vec![F::ZERO; (constraint.columns() + 1) * MAX_LANES];
    let mut scratch = vec![F::ZERO; constraint.scratch() * MAX_LANES];
    F::with_lanes(Rows {
        domain,
        constraint,
        first,
        out,
        gathered: &mut gathered,
        scratch: &mut scratch,
    });
}

/// Every round's values, in storage order, as its quotient's coefficients:
/// bit reversal to natural order, then the coset iNTT, one round per
/// worker.
pub fn coefficients<F: PrimeField64>(rounds: Vec<Vec<F>>) -> Vec<Vec<F>> {
    parallel_map(rounds, |mut values| {
        reverse_index_bits(&mut values);
        coset_intt_nn(&mut values, coset_shift());
        values
    })
}

/// The kernel of [`evaluate_range`]. `gathered` and `scratch` hold
/// `MAX_LANES` scalars per gathered column and scratch row.
struct Rows<'a, 'b, F, C> {
    domain: &'a QuotientDomain<F>,
    constraint: &'a C,
    first: usize,
    out: &'a mut [&'b mut [F]],
    gathered: &'a mut [F],
    scratch: &'a mut [F],
}

impl<F: PrimeField64, C: Constraint<F>> LaneKernel<F> for Rows<'_, '_, F, C> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = F>>(mut self) {
        let len = self.out.first().map_or(0, |out| out.len());
        let whole = len / L::WIDTH * L::WIDTH;
        for start in (0..whole).step_by(L::WIDTH) {
            self.row::<L>(start);
        }
        for start in whole..len {
            self.row::<F>(start);
        }
    }
}

impl<F: PrimeField64, C: Constraint<F>> Rows<'_, '_, F, C> {
    /// The positions `first + start + l` for the lanes `l` of one row of
    /// `L`, into `out[s][start + l]`. Each position's `Z_H⁻¹` and columns
    /// are gathered column by column into `gathered` (lane `l` of column
    /// `c` at `c·WIDTH + l`), which is then read as rows of `L`.
    #[inline(always)]
    fn row<L: Lanes<Scalar = F>>(&mut self, start: usize) {
        let (w, d) = (L::WIDTH, self.domain);
        let i = self.first + start;
        for (l, position) in (i..i + w).enumerate() {
            let Some(&zh_inv) = d.vanishing_inv.get(position >> d.log_n) else { return };
            let mut slots = self.gathered.chunks_exact_mut(w).filter_map(|slot| slot.get_mut(l));
            if let Some(slot) = slots.next() {
                *slot = zh_inv;
            }
            self.constraint.gather(position, d.next(position), slots);
        }
        let Some(gathered) = self.gathered.get(..(self.constraint.columns() + 1) * w) else { return };
        let Some((&zh_inv, columns)) = L::pack(gathered).split_first() else { return };
        let (Some(x), Some(scratch)) =
            (d.points.get(i..i + w), self.scratch.get_mut(..self.constraint.scratch() * w))
        else {
            return;
        };
        let row = LaneRow { position: i, columns, x: L::load(x), zh_inv };
        let out = self.out.iter_mut().filter_map(|out| out.get_mut(start..start + w));
        self.constraint.combine(&row, L::pack_mut(scratch), out);
    }
}
