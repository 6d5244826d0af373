//! The circuit builder: gates, copy constraints, and witness generators.
//!
//! Builds the matrices of the paper's Fig. 1: the selector matrix `Q`, the
//! index/permutation matrices `id`/`σ` (from the copy-constraint sets), and
//! the recipe for filling the witness matrix `W`.

use unizk_field::{Field, Goldilocks, PrimeField64};

use crate::circuit::{commit_constants, CircuitConfig, CircuitData, NUM_SELECTORS};

/// A wire slot: row `row`, wire column `col`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Target {
    /// Gate row.
    pub row: usize,
    /// Wire column.
    pub col: usize,
}

/// A witness-generation step.
#[derive(Copy, Clone, Debug)]
pub enum Op {
    /// `dst ← inputs[index]`.
    Input { dst: Target, index: usize },
    /// `dst ← value`.
    Const { dst: Target, value: Goldilocks },
    /// `dst ← a + b`.
    Add { a: Target, b: Target, dst: Target },
    /// `dst ← a · b`.
    Mul { a: Target, b: Target, dst: Target },
    /// `dst ← k·a + c`.
    Affine {
        a: Target,
        k: Goldilocks,
        c: Goldilocks,
        dst: Target,
    },
}

struct SelectorRow {
    ql: Goldilocks,
    qr: Goldilocks,
    qm: Goldilocks,
    qo: Goldilocks,
    qc: Goldilocks,
}

/// Incrementally builds a circuit; `build` freezes it into [`CircuitData`].
///
/// See the crate-level example for the paper's `(x0+x1)·(x2·x3) = 99`
/// statement.
pub struct CircuitBuilder {
    config: CircuitConfig,
    rows: Vec<SelectorRow>,
    pending_unions: Vec<((usize, usize), (usize, usize))>,
    ops: Vec<Op>,
    num_inputs: usize,
    pi_rows: Vec<usize>,
}

impl CircuitBuilder {
    /// Starts an empty circuit.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than 3 wires.
    pub fn new(config: CircuitConfig) -> Self {
        assert!(config.num_wires >= 3, "need at least 3 wire columns");
        Self {
            config,
            rows: Vec::new(),
            pending_unions: Vec::new(),
            ops: Vec::new(),
            num_inputs: 0,
            pi_rows: Vec::new(),
        }
    }

    /// Number of gate rows so far.
    pub fn num_gates(&self) -> usize {
        self.rows.len()
    }

    fn new_row(&mut self, sel: SelectorRow) -> usize {
        self.rows.push(sel);
        self.rows.len() - 1
    }

    /// A prover-supplied input value.
    pub fn add_input(&mut self) -> Target {
        let row = self.new_row(SelectorRow {
            ql: Goldilocks::ZERO,
            qr: Goldilocks::ZERO,
            qm: Goldilocks::ZERO,
            qo: Goldilocks::ZERO,
            qc: Goldilocks::ZERO,
        });
        let dst = Target { row, col: 0 };
        let index = self.num_inputs;
        self.num_inputs += 1;
        self.ops.push(Op::Input { dst, index });
        dst
    }

    /// The constant `c` as a circuit value (gate: `a − c = 0`).
    pub fn constant(&mut self, c: Goldilocks) -> Target {
        let row = self.new_row(SelectorRow {
            ql: Goldilocks::ONE,
            qr: Goldilocks::ZERO,
            qm: Goldilocks::ZERO,
            qo: Goldilocks::ZERO,
            qc: -c,
        });
        let dst = Target { row, col: 0 };
        self.ops.push(Op::Const { dst, value: c });
        dst
    }

    /// `x + y` (gate: `a + b − c = 0`).
    pub fn add(&mut self, x: Target, y: Target) -> Target {
        let row = self.new_row(SelectorRow {
            ql: Goldilocks::ONE,
            qr: Goldilocks::ONE,
            qm: Goldilocks::ZERO,
            qo: -Goldilocks::ONE,
            qc: Goldilocks::ZERO,
        });
        self.connect(Target { row, col: 0 }, x);
        self.connect(Target { row, col: 1 }, y);
        let dst = Target { row, col: 2 };
        self.ops.push(Op::Add {
            a: Target { row, col: 0 },
            b: Target { row, col: 1 },
            dst,
        });
        dst
    }

    /// `x · y` (gate: `a·b − c = 0`).
    pub fn mul(&mut self, x: Target, y: Target) -> Target {
        let row = self.new_row(SelectorRow {
            ql: Goldilocks::ZERO,
            qr: Goldilocks::ZERO,
            qm: Goldilocks::ONE,
            qo: -Goldilocks::ONE,
            qc: Goldilocks::ZERO,
        });
        self.connect(Target { row, col: 0 }, x);
        self.connect(Target { row, col: 1 }, y);
        let dst = Target { row, col: 2 };
        self.ops.push(Op::Mul {
            a: Target { row, col: 0 },
            b: Target { row, col: 1 },
            dst,
        });
        dst
    }

    /// `x − y` via `x + (−1)·y`.
    pub fn sub(&mut self, x: Target, y: Target) -> Target {
        let neg_y = self.mul_const(y, -Goldilocks::ONE);
        self.add(x, neg_y)
    }

    /// `k·x + c` (gate: `k·a + c − out = 0`).
    pub fn affine(&mut self, x: Target, k: Goldilocks, c: Goldilocks) -> Target {
        let row = self.new_row(SelectorRow {
            ql: k,
            qr: Goldilocks::ZERO,
            qm: Goldilocks::ZERO,
            qo: -Goldilocks::ONE,
            qc: c,
        });
        self.connect(Target { row, col: 0 }, x);
        let dst = Target { row, col: 2 };
        self.ops.push(Op::Affine {
            a: Target { row, col: 0 },
            k,
            c,
            dst,
        });
        dst
    }

    /// `k·x`.
    pub fn mul_const(&mut self, x: Target, k: Goldilocks) -> Target {
        self.affine(x, k, Goldilocks::ZERO)
    }

    /// `x + c` for a constant `c`.
    pub fn add_const(&mut self, x: Target, c: Goldilocks) -> Target {
        self.affine(x, Goldilocks::ONE, c)
    }

    /// Copy-constrains two targets to carry the same value.
    pub fn connect(&mut self, x: Target, y: Target) {
        let (a, b) = (x, y);
        self.union(a, b);
    }

    /// Asserts `x == c` (gate: `a − c = 0`, with `a` routed to `x`).
    pub fn assert_constant(&mut self, x: Target, c: Goldilocks) {
        let row = self.new_row(SelectorRow {
            ql: Goldilocks::ONE,
            qr: Goldilocks::ZERO,
            qm: Goldilocks::ZERO,
            qo: Goldilocks::ZERO,
            qc: -c,
        });
        self.connect(Target { row, col: 0 }, x);
    }

    /// Asserts `x == y` via a copy constraint.
    pub fn assert_equal(&mut self, x: Target, y: Target) {
        self.connect(x, y);
    }

    /// Exposes `x` as a public input: a dedicated row whose gate
    /// constraint `a + PI(x) = 0` binds the wire to the value the verifier
    /// checks against. Returns the public-input index.
    pub fn register_public_input(&mut self, x: Target) -> usize {
        let row = self.new_row(SelectorRow {
            ql: Goldilocks::ONE,
            qr: Goldilocks::ZERO,
            qm: Goldilocks::ZERO,
            qo: Goldilocks::ZERO,
            qc: Goldilocks::ZERO,
        });
        self.connect(Target { row, col: 0 }, x);
        self.pi_rows.push(row);
        self.pi_rows.len() - 1
    }

    // -- union-find over sparse slot keys ------------------------------

    fn key(t: Target) -> (usize, usize) {
        (t.row, t.col)
    }

    fn union(&mut self, a: Target, b: Target) {
        // Deferred: unions are recorded and resolved at build time, keeping
        // the builder allocation-light. Store as pseudo-op pairs.
        self.pending_unions.push((Self::key(a), Self::key(b)));
    }

    /// Freezes the circuit: pads rows to a power of two, resolves copy sets
    /// into the permutation `σ`, and commits the constants.
    pub fn build(mut self) -> CircuitData {
        let min_rows = self.config.fri.final_poly_len.max(8);
        let rows = self.rows.len().max(min_rows).next_power_of_two();
        let w = self.config.num_wires;

        // Selector columns, padded with zero rows.
        let mut selectors = vec![vec![Goldilocks::ZERO; rows]; NUM_SELECTORS];
        for (r, sel) in self.rows.iter().enumerate() {
            selectors[0][r] = sel.ql;
            selectors[1][r] = sel.qr;
            selectors[2][r] = sel.qm;
            selectors[3][r] = sel.qo;
            selectors[4][r] = sel.qc;
        }

        // Resolve copy sets with a dense union-find over col·rows + row.
        let num_slots = w * rows;
        let mut parent: Vec<usize> = (0..num_slots).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let slot = |row: usize, col: usize| col * rows + row;
        for &((r1, c1), (r2, c2)) in &self.pending_unions {
            let a = find(&mut parent, slot(r1, c1));
            let b = find(&mut parent, slot(r2, c2));
            if a != b {
                parent[a] = b;
            }
        }

        let omega = Goldilocks::primitive_root_of_unity(unizk_field::log2_strict(rows));
        let g = Goldilocks::MULTIPLICATIVE_GENERATOR;
        let ks: Vec<Goldilocks> = (0..w).map(|j| g.exp_u64(j as u64)).collect();
        // Precompute ω^i.
        let mut omega_pows = Vec::with_capacity(rows);
        let mut acc = Goldilocks::ONE;
        for _ in 0..rows {
            omega_pows.push(acc);
            acc *= omega;
        }
        let id_value = |s: usize| {
            let col = s / rows;
            let row = s % rows;
            ks[col] * omega_pows[row]
        };

        // Wire each copy set into a cycle in ascending slot order,
        // σ(slot_i) = slot_{i+1 mod len}, in one pass: a slot points its
        // set's previous slot at itself, and the set's last slot is pointed
        // at its first once every slot has been seen. A singleton keeps
        // σ = id.
        let slot_reps: Vec<usize> = (0..num_slots).map(|s| find(&mut parent, s)).collect();
        let mut sigma_flat: Vec<Goldilocks> = (0..num_slots).map(id_value).collect();
        let mut first = vec![usize::MAX; num_slots];
        let mut last = vec![usize::MAX; num_slots];
        for (s, &rep) in slot_reps.iter().enumerate() {
            if first[rep] == usize::MAX {
                first[rep] = s;
            } else {
                sigma_flat[last[rep]] = id_value(s);
            }
            last[rep] = s;
        }
        for (&head, &tail) in first.iter().zip(&last) {
            if head != tail {
                sigma_flat[tail] = id_value(head);
            }
        }
        let sigmas: Vec<Vec<Goldilocks>> = (0..w)
            .map(|c| sigma_flat[c * rows..(c + 1) * rows].to_vec())
            .collect();

        let constants = commit_constants(&selectors, &sigmas, &self.config.fri);
        CircuitData {
            config: self.config,
            rows,
            selectors,
            sigmas,
            ks,
            slot_reps,
            ops: std::mem::take(&mut self.ops),
            num_inputs: self.num_inputs,
            pi_rows: std::mem::take(&mut self.pi_rows),
            constants,
        }
    }
}
