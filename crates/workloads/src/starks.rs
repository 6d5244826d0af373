//! Starky AIRs for the Table 5 / Table 6 workloads.
//!
//! Fibonacci uses the real AIR from `unizk-stark` (the paper's Fig. 2).
//! Factorial is a real degree-2 AIR. SHA-256 and AES-128 use
//! dimension-matched "bit-mix" AIRs whose width, row count, and degree-2
//! constraint mix match a bitwise hash/cipher schedule (DESIGN.md §3).

use unizk_core::compiler::StarkyInstance;
use unizk_field::{Field, Goldilocks};
use unizk_stark::{Air, Boundary};

/// Real factorial AIR: columns `(k, acc)` with `k' = k + 1`,
/// `acc' = acc·(k + 1)` (degree 2).
#[derive(Clone, Debug)]
pub struct FactorialAir {
    rows: usize,
}

impl FactorialAir {
    /// Proves `rows!`-style running products over `rows` rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a power of two.
    pub fn new(rows: usize) -> Self {
        assert!(rows.is_power_of_two(), "rows must be a power of two");
        Self { rows }
    }

    /// The expected final accumulator: `rows!` in the field.
    pub fn expected_output(&self) -> Goldilocks {
        let mut acc = Goldilocks::ONE;
        for k in 1..=self.rows as u64 {
            acc *= Goldilocks::from_u64(k);
        }
        acc
    }
}

impl Air for FactorialAir {
    fn width(&self) -> usize {
        2
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn generate_trace(&self) -> Vec<Vec<Goldilocks>> {
        let mut ks = Vec::with_capacity(self.rows);
        let mut accs = Vec::with_capacity(self.rows);
        let mut acc = Goldilocks::ONE;
        for k in 1..=self.rows as u64 {
            acc *= Goldilocks::from_u64(k);
            ks.push(Goldilocks::from_u64(k));
            accs.push(acc);
        }
        vec![ks, accs]
    }

    fn eval_transition<E: Field + From<Goldilocks>>(&self, local: &[E], next: &[E], out: &mut [E]) {
        // k' = k + 1;  acc' = acc·k' = acc·k + acc.
        out[0] = next[0] - local[0] - E::ONE;
        out[1] = next[1] - local[1] * local[0] - local[1];
    }

    fn num_transition_constraints(&self) -> usize {
        2
    }

    fn boundaries(&self) -> Vec<Boundary> {
        vec![
            Boundary { row: 0, col: 0, value: Goldilocks::ONE },
            Boundary { row: 0, col: 1, value: Goldilocks::ONE },
            Boundary {
                row: self.rows - 1,
                col: 1,
                value: self.expected_output(),
            },
        ]
    }
}

/// A dimension-matched bitwise-schedule AIR: `width` columns of boolean-ish
/// state evolved by degree-2 mixing (`xor(a,b) = a + b − 2ab` texture),
/// the constraint profile of SHA-256 message schedules and AES rounds.
#[derive(Clone, Debug)]
pub struct BitMixAir {
    rows: usize,
    width: usize,
}

impl BitMixAir {
    /// A `rows × width` schedule.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a power of two or `width < 2`.
    pub fn new(rows: usize, width: usize) -> Self {
        assert!(rows.is_power_of_two(), "rows must be a power of two");
        assert!(width >= 2, "need at least two columns");
        Self { rows, width }
    }

    fn step(state: &mut [Goldilocks]) {
        let w = state.len();
        let prev = state.to_vec();
        for j in 0..w {
            let a = prev[j];
            let b = prev[(j + 1) % w];
            // "xor" texture, degree 2, stays satisfiable for any values.
            state[j] = a + b - Goldilocks::TWO * a * b;
        }
    }
}

impl Air for BitMixAir {
    fn width(&self) -> usize {
        self.width
    }

    fn rows(&self) -> usize {
        self.rows
    }

    fn generate_trace(&self) -> Vec<Vec<Goldilocks>> {
        let mut cols = vec![Vec::with_capacity(self.rows); self.width];
        let mut state: Vec<Goldilocks> = (0..self.width)
            .map(|j| Goldilocks::from_u64((j as u64) & 1))
            .collect();
        for _ in 0..self.rows {
            for (col, s) in cols.iter_mut().zip(&state) {
                col.push(*s);
            }
            Self::step(&mut state);
        }
        cols
    }

    fn eval_transition<E: Field + From<Goldilocks>>(&self, local: &[E], next: &[E], out: &mut [E]) {
        let w = self.width;
        for (j, o) in out.iter_mut().enumerate() {
            let a = local[j];
            let b = local[(j + 1) % w];
            *o = next[j] - (a + b - (a * b).double());
        }
    }

    fn num_transition_constraints(&self) -> usize {
        self.width
    }

    fn boundaries(&self) -> Vec<Boundary> {
        (0..self.width)
            .map(|j| Boundary {
                row: 0,
                col: j,
                value: Goldilocks::from_u64((j as u64) & 1),
            })
            .collect()
    }
}

/// Table 5 / 6 Starky workloads with their paper-scale dimensions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StarkApp {
    /// Factorial base proof.
    Factorial,
    /// Fibonacci base proof.
    Fibonacci,
    /// SHA-256 message schedule (dimension-matched).
    Sha256,
    /// AES-128 round schedule (dimension-matched, Table 6).
    Aes128,
}

impl StarkApp {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StarkApp::Factorial => "Factorial",
            StarkApp::Fibonacci => "Fibonacci",
            StarkApp::Sha256 => "SHA-256",
            StarkApp::Aes128 => "AES-128",
        }
    }

    /// `(log2 rows, width)` at paper scale, sized from the Table 5 CPU
    /// base-proof times (Factorial 2.8 s, Fibonacci 2.3 s, SHA-256 0.8 s).
    pub fn full_dims(&self) -> (usize, usize) {
        match self {
            StarkApp::Factorial => (20, 2),
            StarkApp::Fibonacci => (20, 2),
            StarkApp::Sha256 => (16, 16),
            StarkApp::Aes128 => (14, 16),
        }
    }

    /// The simulator instance at a given `log2(rows)`.
    pub fn instance(&self, log_rows: usize) -> StarkyInstance {
        let (_, width) = self.full_dims();
        let constraints = match self {
            StarkApp::Factorial | StarkApp::Fibonacci => 2,
            _ => width,
        };
        StarkyInstance::new(1 << log_rows, width, constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_stark::{prove, verify, StarkConfig};

    #[test]
    fn factorial_air_proves() {
        let air = FactorialAir::new(64);
        let config = StarkConfig::for_testing();
        let proof = prove(&air, &config).expect("satisfiable");
        verify(&air, &proof, &config).expect("verifies");
    }

    #[test]
    fn factorial_output_is_field_factorial() {
        let air = FactorialAir::new(8);
        assert_eq!(air.expected_output(), Goldilocks::from_u64(40_320));
    }

    #[test]
    fn bitmix_air_proves() {
        let air = BitMixAir::new(128, 16);
        let config = StarkConfig::for_testing();
        let proof = prove(&air, &config).expect("satisfiable");
        verify(&air, &proof, &config).expect("verifies");
    }

    #[test]
    fn bitmix_trace_stays_boolean() {
        // With boolean seeds the xor texture keeps values in {0, 1}.
        let air = BitMixAir::new(32, 8);
        for col in air.generate_trace() {
            for v in col {
                assert!(v == Goldilocks::ZERO || v == Goldilocks::ONE);
            }
        }
    }

    #[test]
    fn stark_app_dims() {
        for app in [StarkApp::Factorial, StarkApp::Fibonacci, StarkApp::Sha256, StarkApp::Aes128] {
            let (log_rows, width) = app.full_dims();
            assert!(log_rows >= 14);
            let inst = app.instance(12);
            assert_eq!(inst.width, width);
            assert_eq!(inst.rows, 1 << 12);
        }
    }
}
