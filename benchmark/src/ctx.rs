//! Per-run state shared by the workloads: arguments, the span recorder,
//! the outcome, the input fingerprint, and the timed-pass loop.

use std::path::PathBuf;
use std::time::Instant;

use crate::clock::Clock;
use crate::outcome::Outcome;
use crate::spans::Recorder;
use crate::stats::{percentile, Fnv1a64};

/// One workload run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the timed pass.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) or end-to-end run (`--trace 0`).
    pub trace: bool,
    /// Tiny sizes: every code path, no meaningful numbers.
    pub smoke: bool,
    /// Cores of this host; the thread count of the `_mt`, serve and
    /// sweep workloads.
    pub nproc: usize,
    /// Set-up time counts from here.
    pub started: Instant,
    /// Probed when `started` was taken; its next lap ends set-up.
    pub clock: Clock,
    /// Stop after set-up and print how long it took (`--setup-only`).
    pub setup_only: bool,
    /// Set-up times of the fresh processes run before this one.
    pub setup_samples: Series,
    /// Where `trace-<workload>.json` and scratch files go.
    pub out_dir: PathBuf,
    pub rec: Recorder,
    pub out: Outcome,
    /// Fingerprint of everything generated from `seed`.
    pub inputs: Fnv1a64,
}

impl Ctx {
    /// Prints one metric line and records the metric.
    pub fn metric(&mut self, name: &'static str, unit: &str, value: f64) {
        println!("{:<20} {:<34} {:>16.4} {unit}", self.workload, name, value);
        self.out.set(name, value);
    }

    /// [`Ctx::metric`] for a value that came from `samples` measurements.
    pub fn metric_n(&mut self, name: &'static str, unit: &str, value: f64, samples: usize) {
        println!(
            "{:<20} {:<34} {:>16.4} {unit} (n={samples})",
            self.workload, name, value
        );
        self.out.set(name, value);
    }

    /// Records the median of `series` at the reference clock under `name`
    /// and prints the distribution beside it, and the raw wall-clock
    /// median.
    pub fn timing(&mut self, name: &'static str, unit: &str, series: &Series) {
        let samples = &series.at_reference;
        let at = |p| percentile(samples, p).unwrap_or_else(|| fatal(&format!("{name}: no sample")));
        let value = at(50.0);
        println!(
            "{:<20} {:<34} {:>16.4} {unit} (n={}; min {:.4} p25 {:.4} p75 {:.4} max {:.4}; \
             wall clock p50 {:.4})",
            self.workload,
            name,
            value,
            samples.len(),
            at(0.0),
            at(25.0),
            at(75.0),
            at(100.0),
            percentile(&series.wall, 50.0).unwrap_or(f64::NAN),
        );
        self.out.set(name, value);
    }

    /// Ends set-up. A `--setup-only` process prints its set-up time and
    /// exits here; otherwise the time joins those of the set-up-only
    /// processes run before this one and `setup_s` is their median.
    /// Set-up is measured in fresh processes because part of it (twiddle
    /// tables, lazy statics) happens once per process: repeating it inside
    /// one process would hide exactly the work that moves there.
    pub fn end_setup(&mut self) {
        let wall = self.started.elapsed().as_secs_f64();
        let at_reference = wall * self.clock.lap();
        if self.setup_only {
            println!("setup_s {wall} {at_reference}");
            std::process::exit(0);
        }
        let mut series = std::mem::take(&mut self.setup_samples);
        series.wall.push(wall);
        series.at_reference.push(at_reference);
        self.timing("setup_s", "s", &series);
    }

    /// Runs `f` inside a benchmark span named `name` (a no-op while the
    /// recorder is off).
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let token = self.rec.open(name);
        let out = f(self);
        self.rec.close(token);
        out
    }

    /// A size: the full one, or the smoke one under `--smoke`.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Samples of one timing, each both as measured and converted to the
/// reference clock (see `clock.rs`).
#[derive(Debug, Default)]
pub struct Series {
    pub wall: Vec<f64>,
    pub at_reference: Vec<f64>,
}

impl Series {
    /// Adds a sample as measured; [`Series::settle`] converts it.
    pub fn push(&mut self, wall: f64) {
        self.wall.push(wall);
    }

    /// Converts the samples pushed since the last call: a duration is
    /// multiplied by `factor`, the factor [`Clock::lap`] returned for the
    /// interval they were measured in.
    pub fn settle(&mut self, factor: f64) {
        let pending = &self.wall[self.at_reference.len()..];
        self.at_reference
            .extend(pending.iter().map(|wall| wall * factor));
    }

    /// [`Series::settle`] for samples that are rates (1 / duration).
    pub fn settle_rate(&mut self, factor: f64) {
        self.settle(1.0 / factor);
    }

    /// Adds a sample the caller has converted itself, from parts measured
    /// in more than one interval.
    pub fn push_converted(&mut self, wall: f64, at_reference: f64) {
        assert_eq!(
            self.wall.len(),
            self.at_reference.len(),
            "settle the pending samples first"
        );
        self.wall.push(wall);
        self.at_reference.push(at_reference);
    }
}

/// Ends the run without a result: the workload could not be measured at
/// all (a failed operation inside a pass is counted, not fatal).
pub fn fatal(message: &str) -> ! {
    eprintln!("FATAL: {message}");
    std::process::exit(1);
}

/// Calls `op` for `seconds`, at least `min` times, and returns the wall
/// time of the whole pass in seconds. A further call starts only while
/// half of the previous call's time still fits, so the pass overshoots
/// and undershoots `seconds` about equally.
pub fn repeat_for(seconds: f64, min: usize, mut op: impl FnMut()) -> f64 {
    let pass = Instant::now();
    let mut calls = 0;
    loop {
        let call = Instant::now();
        op();
        calls += 1;
        let elapsed = pass.elapsed().as_secs_f64();
        if calls >= min && elapsed + call.elapsed().as_secs_f64() / 2.0 >= seconds {
            return elapsed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_series_converts_only_the_samples_of_the_lap_that_ended() {
        let mut durations = Series::default();
        durations.push(10.0);
        durations.push(20.0);
        durations.settle(0.5);
        durations.push(30.0);
        durations.settle(2.0);
        durations.settle(7.0); // nothing pending
        assert_eq!(durations.wall, [10.0, 20.0, 30.0]);
        assert_eq!(durations.at_reference, [5.0, 10.0, 60.0]);

        let mut rates = Series::default();
        rates.push(4.0);
        rates.settle_rate(0.5);
        assert_eq!(rates.at_reference, [8.0]);
    }

    #[test]
    fn repeat_for_honours_the_minimum_and_the_deadline() {
        let mut calls = 0;
        let wall = repeat_for(0.0, 3, || calls += 1);
        assert_eq!(calls, 3);
        assert!(wall >= 0.0);

        let mut calls = 0;
        let wall = repeat_for(0.03, 1, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(calls >= 2, "{calls}");
        assert!((0.02..0.5).contains(&wall), "{wall}");
    }
}
