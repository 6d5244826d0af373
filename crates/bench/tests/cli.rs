//! The binaries' shared command-line parser is strict: a typo or a bad
//! value is a usage error with exit status 2, never a silent default run.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn unknown_flags_and_bad_values_exit_2_with_usage() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let table3 = env!("CARGO_BIN_EXE_table3");
    let contract = env!("CARGO_BIN_EXE_contract");
    for (bin, args) in [
        (simulate, &["--jsn"][..]),
        (simulate, &["-r", "abc"]),
        (simulate, &["-t"]),
        (simulate, &["--full", "--shrink", "6"]),
        (table3, &["--shrink", "x"]),
        (contract, &["--out-dir", "."]),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} ran before rejecting its arguments"
        );
    }
}

#[test]
fn every_documented_simulate_flag_is_accepted() {
    let out = run(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "--app",
            "fibonacci",
            "-r",
            "4",
            "-t",
            "16",
            "-e",
            "1",
            "--shrink",
            "10",
            "--trace",
            "--json",
        ],
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("16 VSAs"), "{stdout}");
    assert!(stdout.contains(r#""scratchpad_mb":4"#), "{stdout}");
}
