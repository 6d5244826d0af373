//! Poseidon and Merkle mapping (paper §5.2–5.3 and Fig. 5).
//!
//! One Poseidon permutation crosses the VSA in passes, each with an
//! initiation interval of one state per cycle:
//!
//! * 8 full rounds, each on a folded 12×8 region (Fig. 5a);
//! * 1 pre-partial round on the full 12×12 array;
//! * 22 partial rounds in groups of four on 12×3 regions (Fig. 5b) — 6
//!   passes, 145-cycle latency per group but II = 1.
//!
//! Steady-state cost: `8 + 1 + 6 = 15` VSA-cycles per permutation.

use unizk_dram::AccessPattern;
use unizk_hash::poseidon::{FULL_ROUNDS, PARTIAL_ROUNDS};
use unizk_hash::Digest;

use crate::arch::ChipConfig;
use crate::mapping::KernelCost;

/// VSA-cycles per Poseidon permutation at steady state.
pub fn cycles_per_permutation() -> u64 {
    let partial_passes = PARTIAL_ROUNDS.div_ceil(4) as u64;
    FULL_ROUNDS as u64 + 1 + partial_passes
}

/// Latency of one permutation through the pipeline (fill cost): the paper
/// gives 145 cycles for four partial rounds; full rounds add their region
/// depth.
pub fn permutation_latency() -> u64 {
    let partial = PARTIAL_ROUNDS.div_ceil(4) as u64 * 145;
    let full = FULL_ROUNDS as u64 * 20;
    partial + full
}

/// Merkle-tree construction: all leaves then interior levels, parallel
/// across VSAs (§5.3: same-level hashes are independent).
pub fn map_merkle(num_leaves: usize, leaf_len: usize, chip: &ChipConfig) -> KernelCost {
    let leaf_perms = num_leaves as u64 * (leaf_len as u64).div_ceil(8).max(1);
    let interior_perms = num_leaves.saturating_sub(1) as u64;
    let perms = leaf_perms + interior_perms;

    let compute_cycles = (perms * cycles_per_permutation()).div_ceil(chip.num_vsas as u64);
    // Leaves are read once; every node digest is written; interior levels
    // re-read children (level-order streaming keeps them on chip when a
    // subtree fits — approximate with write-once + leaf read).
    let read_bytes = num_leaves as u64 * leaf_len as u64 * 8;
    let write_bytes = (2 * num_leaves as u64 - 1) * Digest::<unizk_field::Goldilocks>::BYTES as u64;

    KernelCost {
        compute_cycles,
        read_bytes,
        write_bytes,
        pattern: AccessPattern::Sequential,
        vsas_used: chip.num_vsas,
        fill_cycles: permutation_latency(),
    }
}

/// Standalone sponge hashing. Fiat–Shamir transcripts are a serial duplex
/// chain — each permutation pays full latency on one VSA. Grinding nonce
/// searches are independent permutations and parallelize across all VSAs
/// at the steady-state initiation interval.
pub fn map_sponge(num_perms: usize, parallel: bool, chip: &ChipConfig) -> KernelCost {
    let (compute_cycles, vsas_used) = if parallel {
        (
            (num_perms as u64 * cycles_per_permutation()).div_ceil(chip.num_vsas as u64),
            chip.num_vsas,
        )
    } else {
        (num_perms as u64 * permutation_latency(), 1)
    };
    KernelCost {
        compute_cycles,
        read_bytes: num_perms as u64 * 96, // one state in
        write_bytes: num_perms as u64 * 32,
        pattern: AccessPattern::Sequential,
        vsas_used,
        fill_cycles: if parallel { permutation_latency() } else { 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_cycles_per_permutation() {
        assert_eq!(cycles_per_permutation(), 15);
    }

    #[test]
    fn merkle_perm_count_matches_functional_model() {
        // unizk_hash::MerkleTree::permutation_cost for leaves longer than a
        // digest. For a leaf of at most four elements the chip still books
        // one permutation where the prover, like Plonky2, books none
        // (ROADMAP item 2, named difference 1): not reconciled here.
        let chip = ChipConfig::default_chip();
        let cost = map_merkle(4, 135, &chip);
        let perms = unizk_hash::MerkleTree::permutation_cost(&[135; 4]) as u64;
        assert_eq!(
            cost.compute_cycles,
            (perms * 15).div_ceil(chip.num_vsas as u64)
        );
    }

    #[test]
    fn merkle_scales_with_vsas() {
        let full = map_merkle(1 << 16, 135, &ChipConfig::default_chip());
        let quarter = map_merkle(1 << 16, 135, &ChipConfig::default_chip().with_vsas(8));
        let ratio = quarter.compute_cycles as f64 / full.compute_cycles as f64;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    #[allow(clippy::cast_possible_truncation)] // cycle counts are non-negative
    fn merkle_is_compute_bound_at_paper_scale() {
        // The paper's Table 4: hash kernels are compute-bound (~96% VSA
        // util, ~21% memory util).
        let chip = ChipConfig::default_chip();
        let cost = map_merkle(1 << 23, 135, &chip);
        let mem_cycles =
            (cost.total_bytes() as f64 / chip.hbm.peak_bytes_per_cycle()) as u64;
        assert!(cost.compute_cycles > 3 * mem_cycles);
    }

    #[test]
    fn serial_sponge_is_latency_bound() {
        let chip = ChipConfig::default_chip();
        let cost = map_sponge(10, false, &chip);
        assert_eq!(cost.vsas_used, 1);
        assert!(cost.compute_cycles >= 10 * 145);
    }

    #[test]
    fn parallel_sponge_uses_all_vsas() {
        let chip = ChipConfig::default_chip();
        let serial = map_sponge(1 << 15, false, &chip);
        let par = map_sponge(1 << 15, true, &chip);
        assert_eq!(par.vsas_used, chip.num_vsas);
        assert!(par.compute_cycles * 100 < serial.compute_cycles);
    }
}
