//! The permutation argument: running product `Z` and partial products.
//!
//! This is the computation the paper singles out in §5.4 (Eqs. 1–2): per
//! row, the quotients `f_j/g_j` are accumulated in chunks (`h` in Eq. 1),
//! and the chunk products are chained into running partial products (`PP`
//! in Eq. 2). The divisions are batched with Montgomery inversion — the
//! same restructuring that lets UniZK parallelize Eq. 1 while pipelining
//! Eq. 2's sequential chain across PEs.

use unizk_field::lanes::{self, split_rows, split_rows_mut};
use unizk_field::{batch_inverse, powers, Field, Goldilocks, LaneKernel, Lanes, PrimeField64};

use crate::circuit::{CircuitData, CHUNK_SIZE};

/// The committed columns of one challenge round: `Z` first, then the
/// `c − 1` intermediate partial products.
#[derive(Clone, Debug)]
pub struct PermutationColumns {
    /// `columns[0] = Z`, `columns[1..] = P_0..P_{c-2}`; each of length `n`.
    pub columns: Vec<Vec<Goldilocks>>,
}

/// Computes `Z` and the partial-product columns for one `(β, γ)` round.
///
/// `wires[j][i]` is wire column `j` at row `i`. Everything but the running
/// product runs across rows on the column-major wires, one lane row of rows
/// at a time: the denominators, then each chunk's product `h_m` (Eq. 1),
/// then the cumulative products `h_0·…·h_m` of each row. `Z` is the prefix
/// product of the rows' full products (Eq. 2's sequential chain), and the
/// partial product `P_m` of row `i` is `Z(i)·h_0(i)·…·h_m(i)`.
pub fn compute_permutation(
    data: &CircuitData,
    wires: &[Vec<Goldilocks>],
    beta: Goldilocks,
    gamma: Goldilocks,
) -> PermutationColumns {
    let n = data.rows;
    let num_chunks = data.config.num_chunks();
    let omega_pows = powers(data.omega(), n);
    // β·k_j, once per wire: the identity factor is w_j + (β·k_j)·ω^i + γ.
    let beta_ks: Vec<Goldilocks> = data.ks.iter().map(|&k| beta * k).collect();

    // All denominators g_j(i) = w_j(i) + β·σ_j(i) + γ, column by column,
    // batch-inverted at once (Eq. 1's divisions).
    let mut denoms = vec![Goldilocks::ZERO; n * wires.len()];
    Goldilocks::with_lanes(Denominators {
        wires,
        sigmas: &data.sigmas,
        beta,
        gamma,
        out: &mut denoms,
    });
    let denom_invs = batch_inverse(&denoms);
    drop(denoms);

    // h_m(i) = Π_{j in chunk m} f_j(i)/g_j(i), then the cumulative products.
    let mut products = vec![vec![Goldilocks::ZERO; n]; num_chunks];
    Goldilocks::with_lanes(ChunkProducts {
        wires,
        invs: &denom_invs,
        beta_ks: &beta_ks,
        omega_pows: &omega_pows,
        gamma,
        out: &mut products,
    });
    drop(denom_invs);
    for m in 1..num_chunks {
        let (done, rest) = products.split_at_mut(m);
        lanes::mul_assign(&mut rest[0], &done[m - 1]);
    }

    // The running product (the PP chain), then the partial products.
    let mut z = Vec::with_capacity(n);
    let mut running = Goldilocks::ONE;
    for &row in products.last().map_or(&[][..], Vec::as_slice) {
        z.push(running);
        running *= row;
    }
    products.pop();
    for partial in &mut products {
        lanes::mul_assign(partial, &z);
    }

    let mut columns = Vec::with_capacity(num_chunks);
    columns.push(z);
    columns.extend(products);
    PermutationColumns { columns }
}

/// `out[j·n + i] = wires[j][i] + β·sigmas[j][i] + γ`.
struct Denominators<'a> {
    wires: &'a [Vec<Goldilocks>],
    sigmas: &'a [Vec<Goldilocks>],
    beta: Goldilocks,
    gamma: Goldilocks,
    out: &'a mut [Goldilocks],
}

impl LaneKernel<Goldilocks> for Denominators<'_> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = Goldilocks>>(self) {
        let n = self.wires.first().map_or(0, Vec::len);
        if n == 0 {
            return;
        }
        let done = n / L::WIDTH * L::WIDTH;
        let columns = self.wires.iter().zip(self.sigmas).zip(self.out.chunks_exact_mut(n));
        for ((wires, sigmas), out) in columns {
            denominator_rows::<L>(out, wires, sigmas, self.beta, self.gamma);
            let tails = (out.get_mut(done..), wires.get(done..), sigmas.get(done..));
            if let (Some(out), Some(wires), Some(sigmas)) = tails {
                denominator_rows::<Goldilocks>(out, wires, sigmas, self.beta, self.gamma);
            }
        }
    }
}

/// [`Denominators`] over the whole rows of `L` in one column.
#[inline(always)]
fn denominator_rows<L: Lanes<Scalar = Goldilocks>>(
    out: &mut [Goldilocks],
    wires: &[Goldilocks],
    sigmas: &[Goldilocks],
    beta: Goldilocks,
    gamma: Goldilocks,
) {
    let (beta, gamma) = (L::splat(beta), L::splat(gamma));
    let (out, _) = split_rows_mut::<L>(out);
    let (wires, _) = split_rows::<L>(wires);
    let (sigmas, _) = split_rows::<L>(sigmas);
    for ((o, &w), &s) in out.iter_mut().zip(wires).zip(sigmas) {
        *o = w + beta * s + gamma;
    }
}

/// `out[m][i] = Π_{j in chunk m} (wires[j][i] + β·k_j·ω^i + γ) · invs[j·n + i]`.
struct ChunkProducts<'a> {
    wires: &'a [Vec<Goldilocks>],
    invs: &'a [Goldilocks],
    beta_ks: &'a [Goldilocks],
    omega_pows: &'a [Goldilocks],
    gamma: Goldilocks,
    out: &'a mut [Vec<Goldilocks>],
}

impl LaneKernel<Goldilocks> for ChunkProducts<'_> {
    type Output = ();

    #[inline(always)]
    fn run<L: Lanes<Scalar = Goldilocks>>(self) {
        let n = self.omega_pows.len();
        if n == 0 {
            return;
        }
        let done = n / L::WIDTH * L::WIDTH;
        let factors = self.wires.iter().zip(self.invs.chunks_exact(n)).zip(self.beta_ks);
        for (j, ((wires, invs), &beta_k)) in factors.enumerate() {
            let Some(out) = self.out.get_mut(j / CHUNK_SIZE) else { return };
            let first = j % CHUNK_SIZE == 0;
            factor_rows::<L>(out, wires, self.omega_pows, invs, beta_k, self.gamma, first);
            let tails = (out.get_mut(done..), wires.get(done..), self.omega_pows.get(done..), invs.get(done..));
            if let (Some(out), Some(wires), Some(omega_pows), Some(invs)) = tails {
                factor_rows::<Goldilocks>(out, wires, omega_pows, invs, beta_k, self.gamma, first);
            }
        }
    }
}

/// One wire's factor `f_j/g_j` into its chunk's product over the whole
/// rows of `L` (`first`: the chunk's first wire, which starts the product).
#[inline(always)]
fn factor_rows<L: Lanes<Scalar = Goldilocks>>(
    out: &mut [Goldilocks],
    wires: &[Goldilocks],
    omega_pows: &[Goldilocks],
    invs: &[Goldilocks],
    beta_k: Goldilocks,
    gamma: Goldilocks,
    first: bool,
) {
    let (beta_k, gamma) = (L::splat(beta_k), L::splat(gamma));
    let (out, _) = split_rows_mut::<L>(out);
    let (wires, _) = split_rows::<L>(wires);
    let (omega_pows, _) = split_rows::<L>(omega_pows);
    let (invs, _) = split_rows::<L>(invs);
    for (((o, &w), &x), &inv) in out.iter_mut().zip(wires).zip(omega_pows).zip(invs) {
        let factor = (w + beta_k * x + gamma) * inv;
        *o = if first { factor } else { *o * factor };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CircuitBuilder, CircuitConfig};
    use unizk_testkit::rng::TestRng;

    /// The row-by-row permutation: every denominator inverted in one batch,
    /// then per row the chunk products chained onto the running product.
    #[allow(clippy::needless_range_loop)]
    fn rowwise(data: &CircuitData, wires: &[Vec<Goldilocks>], beta: Goldilocks, gamma: Goldilocks) -> Vec<Vec<Goldilocks>> {
        let (n, w, num_chunks) = (data.rows, data.config.num_wires, data.config.num_chunks());
        let omega_pows = powers(data.omega(), n);
        let mut denoms = Vec::with_capacity(n * w);
        for i in 0..n {
            for j in 0..w {
                denoms.push(wires[j][i] + beta * data.sigmas[j][i] + gamma);
            }
        }
        let denom_invs = batch_inverse(&denoms);
        let mut columns: Vec<Vec<Goldilocks>> = (0..num_chunks).map(|_| Vec::with_capacity(n)).collect();
        let mut running = Goldilocks::ONE;
        for i in 0..n {
            columns[0].push(running);
            let mut row_acc = running;
            for m in 0..num_chunks {
                for j in m * CHUNK_SIZE..((m + 1) * CHUNK_SIZE).min(w) {
                    let num = wires[j][i] + beta * data.ks[j] * omega_pows[i] + gamma;
                    row_acc *= num * denom_invs[i * w + j];
                }
                if m + 1 < num_chunks {
                    columns[m + 1].push(row_acc);
                }
            }
            running = row_acc;
        }
        columns
    }

    #[test]
    fn columns_match_the_rowwise_product() {
        let mut rng = TestRng::seed_from_u64(0x9e7);
        for num_wires in [3, 7, 8, 20] {
            let mut builder = CircuitBuilder::new(CircuitConfig { num_wires, ..CircuitConfig::for_testing() });
            let a = builder.add_input();
            let b = builder.add_input();
            let c = builder.mul(a, b);
            builder.add(c, a);
            let data = builder.build();
            let wires: Vec<Vec<Goldilocks>> =
                (0..num_wires).map(|_| (0..data.rows).map(|_| Goldilocks::random(&mut rng)).collect()).collect();
            let (beta, gamma) = (Goldilocks::random(&mut rng), Goldilocks::random(&mut rng));
            let got = compute_permutation(&data, &wires, beta, gamma).columns;
            assert_eq!(got, rowwise(&data, &wires, beta, gamma), "{num_wires} wires");

            // Each kernel, one lane at a time and dispatched.
            let n = data.rows;
            let run_denominators = |one_lane: bool| {
                let mut out = vec![Goldilocks::ZERO; n * num_wires];
                let kernel = Denominators { wires: &wires, sigmas: &data.sigmas, beta, gamma, out: &mut out };
                if one_lane { kernel.run::<Goldilocks>() } else { Goldilocks::with_lanes(kernel) }
                out
            };
            assert_eq!(run_denominators(true), run_denominators(false), "{num_wires} wires");
            let invs: Vec<Goldilocks> = (0..n * num_wires).map(|_| Goldilocks::random(&mut rng)).collect();
            let beta_ks: Vec<Goldilocks> = data.ks.iter().map(|&k| beta * k).collect();
            let omega_pows = powers(data.omega(), n);
            let run_products = |one_lane: bool| {
                let mut out = vec![vec![Goldilocks::ZERO; n]; data.config.num_chunks()];
                let kernel = ChunkProducts {
                    wires: &wires,
                    invs: &invs,
                    beta_ks: &beta_ks,
                    omega_pows: &omega_pows,
                    gamma,
                    out: &mut out,
                };
                if one_lane { kernel.run::<Goldilocks>() } else { Goldilocks::with_lanes(kernel) }
                out
            };
            assert_eq!(run_products(true), run_products(false), "{num_wires} wires");
        }
    }
}
