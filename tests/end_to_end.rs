//! Cross-crate integration tests: every workload proves and verifies end
//! to end, the Starky→Plonky2 pipeline holds together, and the simulator
//! accepts every compiled graph.

use unizk_core::compiler::{compile_plonky2, compile_starky};
use unizk_core::{ChipConfig, Simulator};
use unizk_plonk::CircuitConfig;
use unizk_stark::{aggregate, prove as stark_prove, verify as stark_verify, StarkConfig};
use unizk_workloads::starks::{BitMixAir, FactorialAir, StarkApp};
use unizk_workloads::{App, Scale};

/// Smallest scale: rows floor at 2^10 for every app.
const TINY: Scale = Scale::Shrunk(32);

#[test]
fn every_app_proves_and_verifies_at_tiny_scale() {
    for app in App::ALL {
        let (circuit, inputs) = app.build_circuit(TINY);
        let proof = circuit
            .prove(&inputs)
            .unwrap_or_else(|e| panic!("{} must prove: {e}", app.name()));
        circuit
            .verify(&proof)
            .unwrap_or_else(|e| panic!("{} must verify: {e}", app.name()));
        assert!(proof.size_bytes() > 10_000, "{} proof too small", app.name());
    }
}

#[test]
fn every_app_simulates_at_every_scale_step() {
    let chip = ChipConfig::default_chip();
    for app in App::ALL {
        for shrink in [0usize, 4, 8] {
            let inst = app.plonky2_instance(Scale::Shrunk(shrink));
            let report = Simulator::new(chip.clone()).run(&compile_plonky2(&inst));
            assert!(report.total_cycles > 0, "{} at shrink {shrink}", app.name());
        }
    }
}

#[test]
fn starky_pipeline_end_to_end() {
    // Base proof -> verify -> aggregate -> (simulated) both stages.
    let air = FactorialAir::new(1 << 10);
    let config = StarkConfig::standard();
    let base = stark_prove(&air, &config).expect("factorial AIR proves");
    stark_verify(&air, &base, &config).expect("base verifies");

    let mut rec_config = CircuitConfig::standard();
    rec_config.fri.num_queries = 4; // keep the recursive stage fast in CI
    rec_config.fri.proof_of_work_bits = 4;
    let agg = aggregate(&base, rec_config).expect("aggregation proves");
    assert!(
        agg.size_bytes() < base.size_bytes(),
        "recursion must compress: {} -> {}",
        base.size_bytes(),
        agg.size_bytes()
    );

    let chip = ChipConfig::default_chip();
    let base_sim = Simulator::new(chip).run(&compile_starky(&StarkApp::Factorial.instance(10)));
    assert!(base_sim.total_cycles > 0);
}

#[test]
fn stark_apps_prove_with_paper_configs() {
    let config = StarkConfig::standard();
    for (name, proof_bytes) in [
        ("factorial", {
            let air = FactorialAir::new(1 << 10);
            let p = stark_prove(&air, &config).expect("proves");
            stark_verify(&air, &p, &config).expect("verifies");
            p.size_bytes()
        }),
        ("bitmix", {
            let air = BitMixAir::new(1 << 10, 16);
            let p = stark_prove(&air, &config).expect("proves");
            stark_verify(&air, &p, &config).expect("verifies");
            p.size_bytes()
        }),
    ] {
        // Starky proofs at blowup 2 with 84 queries are hundreds of kB.
        assert!(proof_bytes > 100_000, "{name}: {proof_bytes}");
    }
}

#[test]
fn simulator_report_consistency_across_stack() {
    // The simulator's Merkle permutation counts must match the functional
    // Merkle tree's accounting for the same dimensions.
    let rows = 1 << 10;
    let width = 135usize;
    let lde = rows << 3;
    let perms_functional = unizk_hash::MerkleTree::permutation_cost(lde, width);
    let chip = ChipConfig::default_chip();
    let cost = unizk_core::mapping::map_kernel(
        &unizk_core::kernels::Kernel::MerkleTree { num_leaves: lde, leaf_len: width },
        &chip,
    );
    let expected = (perms_functional as u64 * 15).div_ceil(chip.num_vsas as u64);
    assert_eq!(cost.compute_cycles, expected);
}

#[test]
fn cpu_breakdown_and_simulator_cover_same_phases() {
    // The CPU prover's kernel timers and the compiled graph must agree on
    // which classes exist for the same workload.
    let run = unizk_workloads::run_cpu(App::Fibonacci, TINY, 1);
    let graph = compile_plonky2(&App::Fibonacci.plonky2_instance(TINY));
    let chip = ChipConfig::default_chip();
    let report = Simulator::new(chip).run(&graph);

    // CPU: NTT + Merkle must both be nonzero; simulator: same classes.
    assert!(run.fraction(unizk_fri::KernelClass::Ntt) > 0.0);
    assert!(run.fraction(unizk_fri::KernelClass::MerkleTree) > 0.0);
    assert!(report.class(unizk_core::KernelClassTag::Ntt).cycles > 0);
    assert!(report.class(unizk_core::KernelClassTag::Hash).cycles > 0);
    assert!(report.class(unizk_core::KernelClassTag::Poly).cycles > 0);
}
