//! `--compare A B`: applies every end-to-end metric's bound to two sets of
//! runs, and requires the counts the program makes to agree exactly.

use unizk_testkit::json::Json;

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// Share of `old` by which `new` is worse (negative when it is better).
pub fn worse_by(better: Better, old: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    /// Worse than the bound allows.
    Regressed,
    /// A count that must repeat exactly did not.
    CountChanged,
    /// One side has the value, the other does not.
    Missing,
    /// A run in one of the sets failed an output check.
    Incorrect,
}

#[derive(Clone, Debug)]
pub struct Finding {
    pub workload: &'static str,
    pub metric: &'static str,
    pub old: Option<f64>,
    pub new: Option<f64>,
    pub verdict: Verdict,
}

fn value(set: &Json, workload: &str, pass: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn correct(set: &Json, workload: &str, pass: &str) -> Option<bool> {
    set.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("correct")?
        .as_bool()
}

/// One finding per (workload, end-to-end metric) and per (workload, exact
/// per-layer count) that at least one of the sets holds.
pub fn compare_sets(old: &Json, new: &Json) -> Vec<Finding> {
    let mut findings = Vec::new();
    for w in &WORKLOADS {
        for pass in ["end_to_end", "per_layer"] {
            if [old, new]
                .iter()
                .any(|set| correct(set, w.name, pass) == Some(false))
            {
                findings.push(Finding {
                    workload: w.name,
                    metric: "correct",
                    old: None,
                    new: None,
                    verdict: Verdict::Incorrect,
                });
            }
        }
        for m in &END_TO_END {
            let (a, b) = (
                value(old, w.name, "end_to_end", m.name),
                value(new, w.name, "end_to_end", m.name),
            );
            let verdict = match (a, b) {
                (None, None) => continue,
                (Some(a), Some(b)) if worse_by(m.better, a, b) <= m.bound => Verdict::Within,
                (Some(_), Some(_)) => Verdict::Regressed,
                _ => Verdict::Missing,
            };
            findings.push(Finding {
                workload: w.name,
                metric: m.name,
                old: a,
                new: b,
                verdict,
            });
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (a, b) = (
                value(old, w.name, "per_layer", m.name),
                value(new, w.name, "per_layer", m.name),
            );
            let verdict = match (a, b) {
                (None, None) => continue,
                (Some(a), Some(b)) if a == b => Verdict::Within,
                (Some(_), Some(_)) => Verdict::CountChanged,
                _ => Verdict::Missing,
            };
            findings.push(Finding {
                workload: w.name,
                metric: m.name,
                old: a,
                new: b,
                verdict,
            });
        }
    }
    findings
}

/// Prints the comparison and returns how many findings are not `Within`.
pub fn report(old: &Json, new: &Json) -> usize {
    for (label, set) in [("old", old), ("new", new)] {
        if let Some(header) = set.get("header") {
            println!("{label}: {header}");
        }
    }
    let findings = compare_sets(old, new);
    let show = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| format!("{v:.4}"));
    for f in &findings {
        let change = match (f.old, f.new) {
            (Some(a), Some(b)) if a != 0.0 => format!("{:+.2}%", (b - a) / a * 100.0),
            _ => String::new(),
        };
        // Exact counts that agree are many and say nothing.
        if f.verdict == Verdict::Within && !END_TO_END.iter().any(|m| m.name == f.metric) {
            continue;
        }
        println!(
            "{:<20} {:<20} {:>16} -> {:>16} {:>9}  {:?}",
            f.workload,
            f.metric,
            show(f.old),
            show(f.new),
            change,
            f.verdict
        );
    }
    let bad = findings
        .iter()
        .filter(|f| f.verdict != Verdict::Within)
        .count();
    println!(
        "{} values compared, {bad} outside their bound",
        findings.len()
    );
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(workload: &str, e2e: &[(&str, f64)], layer: &[(&str, f64)], correct: bool) -> Json {
        let pass = |metrics: &[(&str, f64)]| {
            let metrics = metrics.iter().map(|&(name, v)| {
                (
                    name,
                    Json::obj([("value", Json::from(v)), ("unit", Json::str("x"))]),
                )
            });
            Json::obj([
                ("correct", Json::from(correct)),
                ("metrics", Json::obj(metrics)),
            ])
        };
        Json::obj([(
            "workloads",
            Json::obj([(
                workload,
                Json::obj([("end_to_end", pass(e2e)), ("per_layer", pass(layer))]),
            )]),
        )])
    }

    fn verdict_of(findings: &[Finding], metric: &str) -> Verdict {
        findings
            .iter()
            .find(|f| f.metric == metric)
            .unwrap_or_else(|| panic!("{metric}"))
            .verdict
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 120.0) < 0.0);
    }

    #[test]
    fn bounds_apply_per_metric_and_counts_must_repeat() {
        let bound = |name: &str| {
            END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect(name)
                .bound
        };
        let old = set(
            "stark_small_gl",
            &[
                ("op_ms_p50", 100.0),
                ("ops_per_s", 10.0),
                ("output_bytes", 296008.0),
                ("setup_s", 1.0),
            ],
            &[("trace.poseidon_perms", 5000.0), ("field.gl_mul_ns", 2.0)],
            true,
        );
        let new = set(
            "stark_small_gl",
            &[
                ("op_ms_p50", 100.0 * (1.0 + bound("op_ms_p50") - 0.01)),
                ("ops_per_s", 10.0 * (1.0 - bound("ops_per_s") - 0.01)),
                ("output_bytes", 296009.0),
            ],
            &[("trace.poseidon_perms", 5001.0), ("field.gl_mul_ns", 9.0)],
            true,
        );
        let findings = compare_sets(&old, &new);
        assert_eq!(verdict_of(&findings, "op_ms_p50"), Verdict::Within);
        assert_eq!(verdict_of(&findings, "ops_per_s"), Verdict::Regressed);
        assert_eq!(verdict_of(&findings, "output_bytes"), Verdict::Regressed); // exact
        assert_eq!(verdict_of(&findings, "setup_s"), Verdict::Missing);
        assert_eq!(
            verdict_of(&findings, "trace.poseidon_perms"),
            Verdict::CountChanged
        );
        // Timings of single layers carry no bound, and other workloads are
        // in neither set.
        assert!(findings.iter().all(|f| f.metric != "field.gl_mul_ns"));
        assert!(findings.iter().all(|f| f.workload == "stark_small_gl"));

        let same = compare_sets(&old, &old);
        assert!(same.iter().all(|f| f.verdict == Verdict::Within));
    }

    #[test]
    fn a_failed_check_in_either_set_is_reported() {
        let good = set("chip_sweep", &[("setup_s", 1.0)], &[], true);
        let bad = set("chip_sweep", &[("setup_s", 1.0)], &[], false);
        assert_eq!(
            verdict_of(&compare_sets(&good, &bad), "correct"),
            Verdict::Incorrect
        );
        assert!(compare_sets(&good, &good)
            .iter()
            .all(|f| f.metric != "correct"));
    }
}
