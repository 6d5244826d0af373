//! End-to-end tests of the `sweep` binary: it has one path (every point
//! simulates unless `--cache-dir` is given), the flags that used to select
//! another are usage errors, and a cached re-run repeats the cold run's
//! bytes.

use std::path::PathBuf;
use std::process::{Command, Output};

fn ci_spec() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("specs/ci.json")
}

/// A fresh, empty working directory for one `sweep` process.
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unizk-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweep(cwd: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .current_dir(cwd)
        .arg("--spec")
        .arg(ci_spec())
        .args(args)
        .output()
        .expect("sweep binary runs")
}

/// Standard output of a run that must have succeeded.
fn stdout_of(out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sweep failed: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn removed_flags_are_usage_errors() {
    let dir = tmp_dir("removed");
    for flag in ["--prune", "--fresh", "--resume", "--no-cache"] {
        let out = sweep(&dir, &[flag]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        let usage =
            "usage: sweep --spec FILE [--jobs N] [--cache-dir DIR] [--out FILE] [--markdown FILE]";
        assert!(stderr.contains(usage), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} ran before being rejected");
    }
    let written = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(written, 0, "a rejected run writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nothing_is_cached_unless_asked() {
    let dir = tmp_dir("plain");
    for _ in 0..2 {
        let stdout = stdout_of(&sweep(&dir, &["--jobs", "2"]));
        assert!(stdout.contains("cache hits: 0/4"), "{stdout}");
    }
    // No `target/sweep-cache`: nothing but the artifact.
    let left_behind: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(left_behind, ["SWEEP.json"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_hits_on_the_second_run_with_the_same_bytes() {
    let dir = tmp_dir("cached");
    let run = |out_file: &str, expected_hits: &str| {
        let args = ["--jobs", "2", "--cache-dir", "cache", "--out", out_file];
        let stdout = stdout_of(&sweep(&dir, &args));
        assert!(stdout.contains(expected_hits), "{stdout}");
        std::fs::read(dir.join(out_file)).unwrap()
    };
    let cold = run("cold.json", "cache hits: 0/4");
    let warm = run("warm.json", "cache hits: 4/4");
    assert_eq!(
        cold, warm,
        "a cached re-run repeats the cold run's artifact"
    );

    // And the uncached path writes those bytes too.
    stdout_of(&sweep(&dir, &["--jobs", "1", "--out", "plain.json"]));
    assert_eq!(std::fs::read(dir.join("plain.json")).unwrap(), cold);
    let _ = std::fs::remove_dir_all(&dir);
}
