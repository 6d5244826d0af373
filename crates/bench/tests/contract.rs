//! `CONTRACT.json` is what the `contract` binary prints in any fresh
//! process, agrees with the anchors `benchmark/` hardcodes, and holds no
//! clock.

use std::path::PathBuf;
use std::process::Command;

use unizk_testkit::json::{parse, Json};

fn committed() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../CONTRACT.json");
    std::fs::read_to_string(path).expect("CONTRACT.json at the repo root")
}

fn fresh_run() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_contract"))
        .output()
        .expect("contract runs");
    assert!(out.status.success(), "contract failed: {out:?}");
    String::from_utf8(out.stdout).expect("contract prints UTF-8")
}

/// Panics naming the first line on which `got` and `want` differ.
fn assert_same_lines(got: &str, want: &str, what: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{what}: length");
    assert_eq!(got, want, "{what}: line endings");
}

#[test]
fn two_fresh_processes_print_the_committed_file() {
    let (a, b) = (fresh_run(), fresh_run());
    assert_same_lines(&a, &b, "two runs differ");
    assert_same_lines(
        &a,
        &committed(),
        "contract differs from CONTRACT.json (regenerate with \
         `contract > CONTRACT.json` only if the change is intended)",
    );
}

#[test]
fn headline_numbers_are_the_ones_the_benchmark_checks() {
    let c = parse(&committed()).expect("CONTRACT.json parses");
    let at = |path: &[&str]| {
        path.iter().fold(&c, |v, key| {
            v.get(key).unwrap_or_else(|| panic!("missing {path:?}"))
        })
    };
    let len = |path: &[&str]| at(path).as_obj().expect("an object").len();

    // benchmark/src/prover.rs and benchmark/src/chip.rs hold these three.
    assert_eq!(
        at(&["prover", "goldilocks", "proof_bytes"]).as_u64(),
        Some(290_928)
    );
    assert_eq!(
        at(&["sim", "starky_fib_4096", "total_cycles"]).as_u64(),
        Some(62_304)
    );
    let plonky2 = at(&["sim", "plonky2_4096x135", "total_cycles"]).as_u64();
    assert_eq!(plonky2, Some(1_165_910));
    // The degenerate fleet is the single-chip simulator.
    assert_eq!(at(&["fleet", "anchor_makespan_cycles"]).as_u64(), plonky2);

    assert_eq!(len(&["prover", "goldilocks", "counters"]), 10);
    assert_eq!(len(&["prover", "koalabear", "counters"]), 10);
    for (field, bytes) in [("goldilocks", 290_928), ("koalabear", 158_428)] {
        let parts = at(&["prover", field, "proof_bytes_by_part"]);
        let part = |key| parts.get(key).and_then(Json::as_u64).expect(key);
        assert_eq!(len(&["prover", field, "proof_bytes_by_part"]), 5);
        assert_eq!(
            part("paths")
                + part("leaf_values")
                + part("openings")
                + part("final_poly")
                + part("roots_and_witness"),
            bytes,
            "{field}"
        );
    }
    assert_eq!(len(&["serve"]), 4);
    assert_eq!(at(&["fleet", "verified_schedules"]).as_u64(), Some(48));
    assert_eq!(len(&["fleet", "makespan_cycles"]), 32);
}

/// The verifier hashes each distinct node of the proof's paths once: under
/// half of what checking the paths one by one costs, a permutation per leaf
/// and per sibling (EXPERIMENTS.md, "Verifier: each node once").
#[test]
fn the_verifier_hashes_under_half_of_the_paths() {
    let c = parse(&committed()).expect("CONTRACT.json parses");
    for field in ["goldilocks", "koalabear"] {
        let prover = c.get("prover").and_then(|p| p.get(field)).expect(field);
        let of = |section: &str, key: &str| {
            let value = prover.get(section).and_then(|s| s.get(key));
            value.and_then(Json::as_u64).unwrap_or_else(|| panic!("{field}.{section}.{key}"))
        };
        let (queries, trees) = (of("counters", "fri.queries"), of("counters", "merkle.trees"));
        let rounds = of("counters", "fri.reduction_rounds");
        // Blowup 2: the two batch trees are log2(rows) + 1 levels high, fold
        // tree `r` is log2(rows) - r.
        let log_rows = u64::from(of("counters", "stark.rows").ilog2());
        assert_eq!(trees, 2 + rounds, "{field}");
        let depths = 2 * (log_rows + 1) + (0..rounds).map(|r| log_rows - r).sum::<u64>();
        let per_path = queries * (depths + trees);

        assert_eq!(of("verify", "openings"), queries * trees, "{field}");
        // `distinct_nodes` counts nodes *visited*: every distinct leaf and
        // every distinct compression. A leaf that fits in a digest is visited
        // but not hashed, so the permutations are at most the nodes plus the
        // transcript's duplexes (26 and 32 on these shapes).
        let (hashed, nodes) = (of("verify", "permutations"), of("verify", "distinct_nodes"));
        assert!(hashed <= nodes + 32 && 2 * hashed < per_path, "{field}: {nodes} {hashed} {per_path}");
        // Every Goldilocks leaf of this shape fits (2, 4 and 4 elements), so
        // only interior nodes are hashed; KoalaBear's 8-limb fold pairs are.
        assert!(field != "goldilocks" || hashed < nodes, "{hashed} {nodes}");
    }
}

#[test]
fn no_key_names_a_clock_or_a_ratio() {
    const BANNED: [&str; 7] = [
        "_ns", "_ms", "wall", "per_sec", "fraction", "coverage", "hit_rate",
    ];
    fn walk(v: &Json, path: &str) {
        match v {
            Json::Obj(pairs) => {
                for (k, child) in pairs {
                    for banned in BANNED {
                        assert!(!k.contains(banned), "{path}/{k} matches {banned:?}");
                    }
                    walk(child, &format!("{path}/{k}"));
                }
            }
            Json::Arr(items) => items.iter().for_each(|item| walk(item, path)),
            Json::Num(_) => panic!("{path}: the contract holds integers and strings only"),
            _ => {}
        }
    }
    let text = committed();
    walk(&parse(&text).expect("CONTRACT.json parses"), "");
    assert!(
        text.lines().count() <= 250,
        "CONTRACT.json grew past 250 lines"
    );
}
