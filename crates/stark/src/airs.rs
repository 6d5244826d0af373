//! Example AIRs, including the paper's Fig. 2 Fibonacci trace.

use core::ops::{Add, Mul, Sub};

use unizk_field::{Field, ProtocolField};

use crate::air::{Air, Boundary};

/// The paper's Fig. 2 AIR: two columns `(x0, x1)` with transitions
/// `x0' = x1`, `x1' = x0 + x1`, proving the value of a Fibonacci number.
#[derive(Clone, Debug)]
pub struct FibonacciAir {
    rows: usize,
}

impl FibonacciAir {
    /// An AIR whose trace has `rows` steps (a power of two). The claimed
    /// output is `fib(rows)` with `fib(0) = 0, fib(1) = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a power of two or less than 2.
    pub fn new(rows: usize) -> Self {
        assert!(rows.is_power_of_two() && rows >= 2, "rows must be a power of two >= 2");
        Self { rows }
    }

    /// Number of trace columns (the two Fibonacci registers). Inherent so
    /// concrete call sites stay unambiguous despite the blanket
    /// `Air<F>` impl.
    pub fn width(&self) -> usize {
        2
    }

    /// Number of trace rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of transition constraints.
    pub fn num_transition_constraints(&self) -> usize {
        2
    }

    /// The expected final value `fib(rows)`, in whichever base field the
    /// proof runs over.
    pub fn expected_output<F: Field>(&self) -> F {
        let mut a = F::ZERO;
        let mut b = F::ONE;
        for _ in 0..self.rows {
            let next = a + b;
            a = b;
            b = next;
        }
        a
    }
}

impl<F: ProtocolField> Air<F> for FibonacciAir {
    #[inline(always)]
    fn width(&self) -> usize {
        2
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn generate_trace(&self) -> Vec<Vec<F>> {
        let mut x0 = Vec::with_capacity(self.rows);
        let mut x1 = Vec::with_capacity(self.rows);
        let mut a = F::ZERO;
        let mut b = F::ONE;
        for _ in 0..self.rows {
            x0.push(a);
            x1.push(b);
            let next = a + b;
            a = b;
            b = next;
        }
        vec![x0, x1]
    }

    #[inline(always)]
    fn eval_transition<E>(&self, local: &[E], next: &[E], out: &mut [E])
    where
        E: Copy + Add<Output = E> + Sub<Output = E> + Mul<Output = E> + From<F>,
    {
        out[0] = next[0] - local[1];
        out[1] = next[1] - local[0] - local[1];
    }

    #[inline(always)]
    fn num_transition_constraints(&self) -> usize {
        2
    }

    fn boundaries(&self) -> Vec<Boundary<F>> {
        vec![
            Boundary { row: 0, col: 0, value: F::ZERO },
            Boundary { row: 0, col: 1, value: F::ONE },
            Boundary {
                row: self.rows - 1,
                col: 1,
                value: self.expected_output(),
            },
        ]
    }
}

/// A counter that decrements to zero: one column, `x' = x − 1`; shows a
/// single degree-1 constraint with input and output boundaries.
#[derive(Clone, Debug)]
pub struct CountdownAir {
    rows: usize,
}

impl CountdownAir {
    /// Counts down from `rows − 1` to `0` over `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a power of two.
    pub fn new(rows: usize) -> Self {
        assert!(rows.is_power_of_two(), "rows must be a power of two");
        Self { rows }
    }

    /// Number of trace columns.
    pub fn width(&self) -> usize {
        1
    }

    /// Number of trace rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of transition constraints.
    pub fn num_transition_constraints(&self) -> usize {
        1
    }
}

impl<F: ProtocolField> Air<F> for CountdownAir {
    #[inline(always)]
    fn width(&self) -> usize {
        1
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn generate_trace(&self) -> Vec<Vec<F>> {
        vec![(0..self.rows)
            .rev()
            .map(|v| F::from_u64(v as u64))
            .collect()]
    }

    #[inline(always)]
    fn eval_transition<E>(&self, local: &[E], next: &[E], out: &mut [E])
    where
        E: Copy + Add<Output = E> + Sub<Output = E> + Mul<Output = E> + From<F>,
    {
        out[0] = local[0] - next[0] - E::from(F::ONE);
    }

    #[inline(always)]
    fn num_transition_constraints(&self) -> usize {
        1
    }

    fn boundaries(&self) -> Vec<Boundary<F>> {
        vec![
            Boundary {
                row: 0,
                col: 0,
                value: F::from_u64((self.rows - 1) as u64),
            },
            Boundary {
                row: self.rows - 1,
                col: 0,
                value: F::ZERO,
            },
        ]
    }
}

/// A degree-2 AIR: columns `(i, acc)` with `i' = i + 1` and
/// `acc' = acc + i'·i'` (sum of squares) — exercises the quadratic
/// constraint path, the maximum degree blowup-2 Starky supports.
#[derive(Clone, Debug)]
pub struct RangeAccumulatorAir {
    rows: usize,
}

impl RangeAccumulatorAir {
    /// Sums the squares `1² + 2² + … ` across `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a power of two.
    pub fn new(rows: usize) -> Self {
        assert!(rows.is_power_of_two(), "rows must be a power of two");
        Self { rows }
    }

    /// Number of trace columns.
    pub fn width(&self) -> usize {
        2
    }

    /// Number of trace rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of transition constraints.
    pub fn num_transition_constraints(&self) -> usize {
        2
    }

    /// The final accumulator value `Σ_{k=0}^{rows-1} k²`.
    pub fn expected_output<F: Field>(&self) -> F {
        let mut acc = F::ZERO;
        for k in 0..self.rows as u64 {
            acc += F::from_u64(k) * F::from_u64(k);
        }
        acc
    }
}

impl<F: ProtocolField> Air<F> for RangeAccumulatorAir {
    #[inline(always)]
    fn width(&self) -> usize {
        2
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn generate_trace(&self) -> Vec<Vec<F>> {
        let mut idx = Vec::with_capacity(self.rows);
        let mut acc_col = Vec::with_capacity(self.rows);
        let mut acc = F::ZERO;
        for k in 0..self.rows as u64 {
            let kk = F::from_u64(k);
            acc += kk * kk;
            idx.push(kk);
            acc_col.push(acc);
        }
        vec![idx, acc_col]
    }

    #[inline(always)]
    fn eval_transition<E>(&self, local: &[E], next: &[E], out: &mut [E])
    where
        E: Copy + Add<Output = E> + Sub<Output = E> + Mul<Output = E> + From<F>,
    {
        // i' = i + 1; acc' = acc + i'².
        out[0] = next[0] - local[0] - E::from(F::ONE);
        out[1] = next[1] - local[1] - next[0] * next[0];
    }

    #[inline(always)]
    fn num_transition_constraints(&self) -> usize {
        2
    }

    fn boundaries(&self) -> Vec<Boundary<F>> {
        vec![
            Boundary { row: 0, col: 0, value: F::ZERO },
            Boundary { row: 0, col: 1, value: F::ZERO },
            Boundary {
                row: self.rows - 1,
                col: 1,
                value: self.expected_output(),
            },
        ]
    }
}
