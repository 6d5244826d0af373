//! Regression gate: every shipped workload and every sweep spec in
//! `crates/explore/specs/` must analyze with zero error-severity
//! diagnostics — the same property `scripts/ci.sh` enforces via the
//! `lint` binary, kept here so `cargo test` alone catches a regression.
//! The static cost envelope is additionally anchored against the
//! committed simulator contract (`CONTRACT.json`).

use std::path::PathBuf;

use unizk_analyze::lint::{check_bounds, lint_all, spec_targets, workload_targets};
use unizk_analyze::{cost_envelope, CLASS_ORDER};
use unizk_core::compiler::Plonky2Instance;
use unizk_core::{compile_plonky2, ChipConfig};
use unizk_testkit::json::{parse, Json};

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../explore/specs")
}

#[test]
fn all_shipped_workloads_analyze_clean() {
    let summary = lint_all(&workload_targets());
    assert!(summary.is_clean(), "{}", summary.render(true));
}

#[test]
fn all_explore_specs_analyze_clean() {
    let mut specs: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .expect("crates/explore/specs exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    specs.sort();
    assert!(!specs.is_empty(), "no spec files found");
    for path in specs {
        let targets = spec_targets(&path).unwrap_or_else(|e| panic!("{e}"));
        assert!(!targets.is_empty(), "{} enumerated no points", path.display());
        let summary = lint_all(&targets);
        assert!(summary.is_clean(), "{}:\n{}", path.display(), summary.render(false));
        // Every enumerated point's simulated cycle count must land inside
        // its static envelope (the invariant `scripts/ci.sh` re-checks via
        // `lint --check-bounds`).
        check_bounds(&targets).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

/// The static envelope must bracket the *committed* simulator numbers:
/// `CONTRACT.json`'s `sim.plonky2_4096x135` (2^12 rows × 135 wires on the
/// default chip), per kernel class and in total.
#[test]
fn envelope_brackets_the_committed_sim_baseline() {
    let text = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../CONTRACT.json"),
    )
    .expect("CONTRACT.json at the repo root");
    let contract = parse(&text).expect("CONTRACT.json parses");
    let reference = contract
        .get("sim")
        .and_then(|sim| sim.get("plonky2_4096x135"))
        .expect("sim.plonky2_4096x135 entry");

    let graph = compile_plonky2(&Plonky2Instance::new(1 << 12, 135));
    let env = cost_envelope(&graph, &ChipConfig::default_chip());

    let total = reference.get("total_cycles").and_then(Json::as_u64).unwrap();
    assert!(
        env.total_lower() <= total && total <= env.total_upper(),
        "committed total {total} outside [{}, {}]",
        env.total_lower(),
        env.total_upper()
    );
    let classes = reference.get("classes").expect("baseline classes");
    for tag in CLASS_ORDER {
        let Some(cycles) = classes
            .get(tag.name())
            .and_then(|c| c.get("cycles"))
            .and_then(Json::as_u64)
        else {
            continue;
        };
        let bounds = env.class(tag);
        assert!(
            bounds.cycles_lower <= cycles && cycles <= bounds.cycles_upper,
            "class {} committed {cycles} outside [{}, {}]",
            tag.name(),
            bounds.cycles_lower,
            bounds.cycles_upper
        );
    }
}
