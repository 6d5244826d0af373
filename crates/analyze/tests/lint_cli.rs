//! End-to-end tests of the `lint` binary: quiet mode is fully silent on
//! success, `--rules` globs scope both the report and the exit code,
//! error-severity findings exit nonzero, and the rule catalog lists the
//! whole rulebook.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use unizk_testkit::json::{parse, Json};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lint"))
        .args(args)
        .output()
        .expect("lint binary runs")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unizk-lint-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spec whose single point is a locally-valid chip (each axis passes
/// `ChipConfig::validate`) that the cross-axis R02 rule must reject: a
/// 2^14-point fixed NTT pipeline against a 1 MiB scratchpad.
fn write_infeasible_spec(dir: &Path) {
    std::fs::write(
        dir.join("infeasible.json"),
        r#"{"schema":"unizk-explore-spec/1","name":"infeasible",
            "chip":{"ntt_pipeline_log2":[14],"scratchpad_mb":[1]},
            "workloads":[{"app":"fibonacci","shrink_bits":6}]}"#,
    )
    .unwrap();
}

#[test]
fn quiet_clean_run_prints_nothing_and_exits_zero() {
    let out = lint(&["--specs-dir", "", "--quiet"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "stdout: {}", String::from_utf8_lossy(&out.stdout));
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn rules_glob_scopes_the_json_report() {
    let dir = tmp_dir("json");
    let json_path = dir.join("lint.json");
    let out = lint(&[
        "--specs-dir",
        "",
        "--rules",
        "C*",
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let report = parse(&std::fs::read_to_string(&json_path).unwrap()).unwrap();
    assert_eq!(
        report.get("schema").and_then(Json::as_str),
        Some("unizk-lint/2")
    );
    assert_eq!(report.get("errors").and_then(Json::as_u64), Some(0));
    let targets = report.get("targets").and_then(Json::as_arr).unwrap();
    let mut retained = 0usize;
    for t in targets {
        // Every retained diagnostic is C-family, and every target still
        // carries its cost envelope.
        for d in t.get("diagnostics").and_then(Json::as_arr).unwrap() {
            let rule = d.get("rule").and_then(Json::as_str).unwrap();
            assert!(rule.starts_with('C'), "non-C rule {rule} survived --rules C*");
            retained += 1;
        }
        let env = t.get("envelope").expect("per-target envelope");
        let lower = env.get("cycles_lower").and_then(Json::as_u64).unwrap();
        let upper = env.get("cycles_upper").and_then(Json::as_u64).unwrap();
        assert!(lower <= upper);
    }
    // The full-scale MVM workload trips the C04 liveness warning, so the
    // scoped report is non-empty — the glob filtered, not emptied.
    assert!(retained >= 1, "expected at least one C-family finding");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_severity_findings_exit_nonzero() {
    let dir = tmp_dir("infeasible");
    write_infeasible_spec(&dir);

    let out = lint(&["--specs-dir", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "infeasible spec must fail the gate");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error-severity"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("R02"),
        "stdout names the rule: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Quiet mode stays nonzero and still prints the findings.
    let out = lint(&["--specs-dir", dir.to_str().unwrap(), "--quiet"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("R02"));

    // Scoping to an unrelated family makes the retained set clean: the
    // exit code follows the filter.
    let out = lint(&["--specs-dir", dir.to_str().unwrap(), "--rules", "M*", "--quiet"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_bounds_reports_every_target() {
    let out = lint(&["--specs-dir", "", "--check-bounds"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 6 apps x 2 scales + starky = 13 built-in schedules.
    assert!(
        stdout.contains("bounds: 13 targets inside their static envelope"),
        "stdout: {stdout}"
    );
}

#[test]
fn list_rules_prints_the_whole_catalog() {
    let out = lint(&["--list-rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 28, "one line per rule:\n{stdout}");
    for id in ["S01", "D07", "R04", "L01", "M03", "C04", "P05"] {
        assert!(stdout.contains(id), "missing {id}:\n{stdout}");
    }
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    // The workspace's one strict parser (`unizk_testkit::Args`): a typo
    // never runs the default lint pass.
    for args in [
        &["--check-bound"][..],
        &["--quiet", "--quiet"],
        &["--specs-dir", "", "--json"],
    ] {
        let out = lint(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: lint [--specs-dir DIR]"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting its arguments");
    }
}
