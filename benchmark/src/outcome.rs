//! What one run found: output checks (attempted / failed), the metrics it
//! measured, and the result line the driver parses.

use std::collections::BTreeMap;

use unizk_testkit::json::Json;

use crate::catalog::{END_TO_END, PER_LAYER};

/// Checks and metrics of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Counts one checked fallible operation and hands back its value.
    pub fn check_ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The result object: `correct`, `attempted`, `failed`, and every
    /// end-to-end metric (`trace` off) or every per-layer metric (`trace`
    /// on). A per-layer metric this workload did not exercise reads 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not measured, or if a metric was
    /// recorded under a name the catalog does not have: both are bugs in
    /// the workload.
    pub fn result(&self, trace: bool) -> Json {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for recorded in self.metrics.keys() {
            assert!(
                names.iter().any(|(n, _)| n == recorded),
                "unknown metric {recorded}"
            );
        }
        let metrics = names.iter().map(|&(name, unit)| {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not a number");
            (
                name,
                Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_result_lists_every_layer_metric_and_defaults_to_zero() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.check(false, || "expected failure in a unit test".to_string());
        assert_eq!(out.check_ok("parse", "7".parse::<u32>()), Some(7));
        assert_eq!(out.check_ok("parse", "x".parse::<u32>()), None);
        out.set("field.gl_mul_ns", 1.5);
        let r = out.result(true);
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(r.get("attempted").and_then(Json::as_u64), Some(4));
        assert_eq!(r.get("failed").and_then(Json::as_u64), Some(2));
        let metrics = r
            .get("metrics")
            .and_then(Json::as_obj)
            .expect("metrics object");
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |name: &str| {
            metrics
                .iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.get("value")?.as_f64())
        };
        assert_eq!(value("field.gl_mul_ns"), Some(1.5));
        assert_eq!(value("serve.pool_hit_rate"), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_a_bug() {
        let mut out = Outcome::default();
        out.set("setup_s", 1.0);
        let _ = out.result(false);
    }
}
