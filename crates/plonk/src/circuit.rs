//! Circuit data shared by prover and verifier: configuration, selector and
//! permutation columns, and the constraint system itself.

use unizk_field::{Field, Goldilocks, Polynomial, PrimeField64};
use unizk_fri::{FriConfig, PolynomialBatch};

use crate::builder::Op;
use crate::error::PlonkError;
use crate::proof::Proof;

/// Factors per partial-product chunk. With 7 wire factors the chunk
/// constraint `P_m·G_m − P_{m-1}·F_m` has degree 8, matching the blowup-8
/// LDE (the paper's Eq. 1 uses 8-element chunks of the quotient values; the
/// committed-constraint formulation needs one slot for the carried product).
pub const CHUNK_SIZE: usize = 7;

/// Number of selector columns (`q_L, q_R, q_M, q_O, q_C`).
pub const NUM_SELECTORS: usize = 5;

/// Circuit-level configuration.
#[derive(Clone, Debug)]
pub struct CircuitConfig {
    /// Number of wire columns `W ≥ 3`. Plonky2 uses 135 (the paper's leaf
    /// width); small tests use 3.
    pub num_wires: usize,
    /// Independent permutation-argument repetitions. Plonky2 uses 2 so the
    /// 64-bit base-field challenges reach ~100-bit soundness.
    pub num_challenges: usize,
    /// FRI parameters (blowup, queries, grinding).
    pub fri: FriConfig,
}

impl CircuitConfig {
    /// The standard Plonky2-like configuration: 135 wires, 2 challenge
    /// rounds, blowup 8.
    pub fn standard() -> Self {
        Self {
            num_wires: 135,
            num_challenges: 2,
            fri: FriConfig::plonky2(),
        }
    }

    /// A narrow, fast configuration for unit tests.
    pub fn for_testing() -> Self {
        Self {
            num_wires: 3,
            num_challenges: 2,
            fri: FriConfig::for_testing(),
        }
    }

    /// Number of partial-product chunks `c = ⌈W / CHUNK_SIZE⌉`.
    pub fn num_chunks(&self) -> usize {
        self.num_wires.div_ceil(CHUNK_SIZE)
    }

    /// Constraints [`eval_constraints`] evaluates: the gate, one per chunk,
    /// and `L_1·(Z − 1)`.
    pub fn num_constraints(&self) -> usize {
        self.num_chunks() + 2
    }

    /// Committed polynomials per challenge round: `Z` plus `c − 1` partial
    /// products.
    pub fn perm_polys_per_challenge(&self) -> usize {
        self.num_chunks()
    }

    /// Quotient chunks per challenge round (the blowup factor).
    pub fn quotient_chunks_per_challenge(&self) -> usize {
        1 << self.fri.rate_bits
    }
}

/// A compiled circuit: everything both parties know.
#[derive(Clone, Debug)]
pub struct CircuitData {
    /// Configuration this circuit was built with.
    pub config: CircuitConfig,
    /// Number of rows `n` (a power of two).
    pub rows: usize,
    /// Selector columns, `selectors[s][row]`.
    pub selectors: Vec<Vec<Goldilocks>>,
    /// Permutation columns `σ_j` encoded as field elements `k_{j'}·ω^{i'}`.
    pub sigmas: Vec<Vec<Goldilocks>>,
    /// Coset representatives `k_j = g^j` for the wire columns.
    pub ks: Vec<Goldilocks>,
    /// Copy-constraint set representative for every slot (`col·rows + row`),
    /// used by witness generation.
    pub slot_reps: Vec<usize>,
    /// Witness-generation operations, in execution order.
    pub ops: Vec<Op>,
    /// Number of prover inputs expected.
    pub num_inputs: usize,
    /// Rows carrying public inputs (wire 0 of each row holds the value;
    /// the gate constraint `a + PI(x) = 0` binds it).
    pub pi_rows: Vec<usize>,
    /// Commitment to selectors + sigmas (the verification key).
    pub constants: PolynomialBatch,
}

impl CircuitData {
    /// Generates a witness and produces a proof.
    ///
    /// # Errors
    ///
    /// Returns [`PlonkError`] if the inputs do not satisfy the circuit
    /// (wrong count, copy-constraint conflicts, or failed assertions).
    pub fn prove(&self, inputs: &[Goldilocks]) -> Result<Proof, PlonkError> {
        crate::prover::prove(self, inputs)
    }

    /// Verifies a proof against this circuit.
    ///
    /// # Errors
    ///
    /// Returns [`PlonkError`] describing the first failed check.
    pub fn verify(&self, proof: &Proof) -> Result<(), PlonkError> {
        crate::verifier::verify(self, proof)
    }

    /// The trace-domain generator `ω` (order `rows`).
    pub fn omega(&self) -> Goldilocks {
        Goldilocks::primitive_root_of_unity(unizk_field::log2_strict(self.rows))
    }

    /// Evaluates `L_1` (the Lagrange basis polynomial of row 0) at a point
    /// off the domain: `(x^n − 1) / (n·(x − 1))`.
    pub fn eval_l1<E: Field + From<Goldilocks>>(&self, x: E) -> E {
        let n = E::from(Goldilocks::from_u64(self.rows as u64));
        let zh = x.exp_u64(self.rows as u64) - E::ONE;
        zh * (n * (x - E::ONE)).inverse()
    }

    /// Evaluates the vanishing polynomial `Z_H(x) = x^n − 1`.
    pub fn eval_zh<E: Field + From<Goldilocks>>(&self, x: E) -> E {
        x.exp_u64(self.rows as u64) - E::ONE
    }

    /// Total committed polynomials in each proof batch, in FRI batch order:
    /// `[constants, wires, permutation, quotient]`.
    pub fn batch_widths(&self) -> [usize; 4] {
        [
            NUM_SELECTORS + self.config.num_wires,
            self.config.num_wires,
            self.config.num_challenges * self.config.perm_polys_per_challenge(),
            self.config.num_challenges * self.config.quotient_chunks_per_challenge(),
        ]
    }
}

/// Builds the constants batch (selectors then sigmas) — the verification
/// key material.
pub fn commit_constants(
    selectors: &[Vec<Goldilocks>],
    sigmas: &[Vec<Goldilocks>],
    fri: &FriConfig,
) -> PolynomialBatch {
    let columns: Vec<Vec<Goldilocks>> = selectors.iter().chain(sigmas.iter()).cloned().collect();
    let _ = Polynomial::<Goldilocks>::zero(); // keep Polynomial in scope for doc links
    PolynomialBatch::from_values(columns, fri)
}

/// Everything needed to evaluate the constraint set at one point, over the
/// base field (quotient computation) or the extension (verifier). The
/// per-column values are borrowed from the opened leaf or the committed
/// row they live in, so building one per LDE position copies nothing.
#[derive(Clone, Debug)]
pub struct ConstraintInputs<'a, E> {
    /// Selector values `q_L, q_R, q_M, q_O, q_C`.
    pub selectors: [E; NUM_SELECTORS],
    /// Wire values `w_0..w_{W-1}`.
    pub wires: &'a [E],
    /// Permutation values `σ_0..σ_{W-1}`.
    pub sigmas: &'a [E],
    /// `Z(x)`.
    pub z: E,
    /// `Z(ω·x)`.
    pub z_next: E,
    /// Partial products `P_0..P_{c-2}` (the last chunk's output is
    /// `z_next`).
    pub partials: &'a [E],
    /// The evaluation point `x`.
    pub x: E,
    /// `L_1(x)`.
    pub l1: E,
    /// The public-input polynomial `PI(x)` evaluated at `x` (zero when the
    /// circuit has no public inputs).
    pub pi: E,
    /// Permutation challenges.
    pub beta: E,
    /// Permutation challenges.
    pub gamma: E,
}

/// Evaluates every constraint polynomial at one point into `out`, whose
/// length is [`CircuitConfig::num_constraints`]. Order:
/// `[gate, chunk_0, …, chunk_{c-1}, L_1·(Z−1)]`.
///
/// This single implementation serves both the prover (over `Goldilocks`,
/// across the whole LDE domain) and the verifier (over `Ext2`, at `ζ`),
/// guaranteeing they agree.
///
/// # Panics
///
/// Panics if `out` does not hold one entry per constraint.
#[allow(clippy::needless_range_loop)]
pub fn eval_constraints<E: Field + From<Goldilocks>>(
    ks: &[Goldilocks],
    inputs: &ConstraintInputs<'_, E>,
    out: &mut [E],
) {
    let w = inputs.wires.len();
    let num_chunks = w.div_ceil(CHUNK_SIZE);
    assert_eq!(out.len(), num_chunks + 2, "one output per constraint");

    // Gate constraint on the first three wires, plus the public-input
    // polynomial (PI(x) = −v on each public-input row, 0 elsewhere).
    let [ql, qr, qm, qo, qc] = inputs.selectors;
    let (a, b, c) = (inputs.wires[0], inputs.wires[1], inputs.wires[2]);
    out[0] = ql * a + qr * b + qm * a * b + qo * c + qc + inputs.pi;

    // Permutation chunks: P_m·G_m − P_{m-1}·F_m, with P_{-1} = Z and
    // P_{c-1} = Z(ωx). The identity factor of wire j is w_j + β·k_j·x + γ,
    // with β·x shared by every wire.
    let beta_x = inputs.beta * inputs.x;
    for m in 0..num_chunks {
        let lo = m * CHUNK_SIZE;
        let hi = ((m + 1) * CHUNK_SIZE).min(w);
        let mut f = E::ONE;
        let mut g = E::ONE;
        for j in lo..hi {
            f *= inputs.wires[j] + beta_x * E::from(ks[j]) + inputs.gamma;
            g *= inputs.wires[j] + inputs.beta * inputs.sigmas[j] + inputs.gamma;
        }
        let prev = if m == 0 { inputs.z } else { inputs.partials[m - 1] };
        let cur = if m == num_chunks - 1 {
            inputs.z_next
        } else {
            inputs.partials[m]
        };
        out[1 + m] = cur * g - prev * f;
    }

    // Z starts at 1.
    out[num_chunks + 1] = inputs.l1 * (inputs.z - E::ONE);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_counts() {
        let mut cfg = CircuitConfig::for_testing();
        assert_eq!(cfg.num_chunks(), 1); // 3 wires -> 1 chunk
        cfg.num_wires = 135;
        assert_eq!(cfg.num_chunks(), 20); // ceil(135/7)
        cfg.num_wires = 7;
        assert_eq!(cfg.num_chunks(), 1);
        cfg.num_wires = 8;
        assert_eq!(cfg.num_chunks(), 2);
    }

    #[test]
    fn constraint_count_matches_layout() {
        let ks: Vec<Goldilocks> = (0..3)
            .map(|j| Goldilocks::MULTIPLICATIVE_GENERATOR.exp_u64(j))
            .collect();
        let inputs = ConstraintInputs {
            selectors: [Goldilocks::ZERO; 5],
            wires: &[Goldilocks::ZERO; 3],
            sigmas: &[Goldilocks::ONE; 3],
            z: Goldilocks::ONE,
            z_next: Goldilocks::ONE,
            partials: &[],
            x: Goldilocks::from_u64(5),
            l1: Goldilocks::ZERO,
            pi: Goldilocks::ZERO,
            beta: Goldilocks::ZERO,
            gamma: Goldilocks::ONE,
        };
        // gate + 1 chunk + L1
        assert_eq!(CircuitConfig::for_testing().num_constraints(), 3);
        let mut cs = [Goldilocks::from_u64(9); 3];
        eval_constraints(&ks, &inputs, &mut cs);
        // With β=0, γ=1: every factor is w+1, F=G, Z=Z_next → all zero.
        assert!(cs.iter().all(|c| c.is_zero()));
    }
}
