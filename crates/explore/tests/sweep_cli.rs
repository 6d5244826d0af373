//! End-to-end tests of the `sweep` binary: it has one path (every point
//! simulates), the flags that used to select another are usage errors, and
//! a run writes its artifact and nothing else, the same bytes at every
//! worker count.

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
    for flag in [
        "--prune",
        "--fresh",
        "--resume",
        "--no-cache",
        "--cache-dir",
    ] {
        let out = sweep(&dir, &[flag]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        let usage = "usage: sweep --spec FILE [--jobs N] [--out FILE] [--markdown FILE]";
        assert!(stderr.contains(usage), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} ran before being rejected");
    }
    let written = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(written, 0, "a rejected run writes nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_run_writes_only_its_artifact() {
    let dir = tmp_dir("plain");
    let artifacts: Vec<Vec<u8>> = ["1", "2"]
        .iter()
        .map(|jobs| {
            let stdout = stdout_of(&sweep(&dir, &["--jobs", jobs]));
            assert!(stdout.contains("pareto frontier:"), "{stdout}");
            std::fs::read(dir.join("SWEEP.json")).unwrap()
        })
        .collect();
    assert_eq!(
        artifacts[0], artifacts[1],
        "--jobs 1 and --jobs 2 write the same bytes"
    );
    let left_behind: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    assert_eq!(left_behind, ["SWEEP.json"]);
    let _ = std::fs::remove_dir_all(&dir);
}
