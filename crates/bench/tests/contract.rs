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
    assert_eq!(len(&["serve"]), 4);
    assert_eq!(at(&["fleet", "verified_schedules"]).as_u64(), Some(48));
    assert_eq!(len(&["fleet", "makespan_cycles"]), 32);
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
