//! The AIR (algebraic intermediate representation) abstraction — the
//! paper's Algebraic Execution Trace with transition and boundary
//! constraints (Fig. 2).

use unizk_field::{Field, Goldilocks, ProtocolField};

/// A boundary (input/output) constraint: trace column `col` must equal
/// `value` at row `row`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Boundary<F: ProtocolField = Goldilocks> {
    /// Trace row.
    pub row: usize,
    /// Trace column.
    pub col: usize,
    /// Required value.
    pub value: F,
}

/// An algebraic execution trace plus its constraint system, over base
/// field `F` (Goldilocks by default; the same AIR proves over KoalaBear
/// when it implements `Air<KoalaBear>` — the shipped example AIRs
/// implement `Air<F>` for every protocol field).
///
/// Transition constraints are evaluated on `(local, next)` row pairs and
/// must vanish on every row except the last. With Starky's blowup of 2,
/// constraints may have algebraic degree at most 2 in the trace cells.
pub trait Air<F: ProtocolField = Goldilocks> {
    /// Number of trace columns.
    fn width(&self) -> usize;

    /// Number of trace rows (a power of two).
    fn rows(&self) -> usize;

    /// Generates the trace, column-major: `trace[col][row]`.
    fn generate_trace(&self) -> Vec<Vec<F>>;

    /// Evaluates the transition constraints on one `(local, next)` row pair
    /// into `out`, one entry per constraint. Generic so the prover evaluates
    /// over the base field on the LDE and the verifier over the extension at
    /// `ζ`; the caller owns `out`, so the prover's pass over the LDE
    /// allocates nothing per position.
    fn eval_transition<E: Field + From<F>>(&self, local: &[E], next: &[E], out: &mut [E]);

    /// Number of transition constraints: the length of
    /// [`Air::eval_transition`]'s `out`.
    fn num_transition_constraints(&self) -> usize;

    /// The boundary constraints.
    fn boundaries(&self) -> Vec<Boundary<F>>;
}
