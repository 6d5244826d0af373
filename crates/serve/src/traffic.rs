//! Synthetic traffic: deterministic, seedable job streams over a weighted
//! application mix.
//!
//! The generator is pure — `TrafficSpec::generate` maps `(seed, jobs, mix)`
//! to the same job list on every machine — so the throughput benchmark and
//! the CI smoke run replay identical workloads.

use unizk_stark::StarkConfig;
use unizk_testkit::rng::TestRng;

use crate::job::{AppKind, Job, JobSpec};

/// One entry of the application mix: an app at a fixed trace height with a
/// sampling weight.
#[derive(Clone, Debug)]
pub struct MixEntry {
    /// Which app.
    pub app: AppKind,
    /// Trace height for this entry.
    pub rows: usize,
    /// Relative sampling weight (proportional, need not sum to anything).
    pub weight: u64,
}

/// A deterministic synthetic workload description.
#[derive(Clone, Debug)]
pub struct TrafficSpec {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// RNG seed; equal seeds generate equal job lists.
    pub seed: u64,
    /// Weighted application mix to sample from.
    pub mix: Vec<MixEntry>,
    /// Prover configuration shared by every job.
    pub config: StarkConfig,
}

impl TrafficSpec {
    /// The benchmark workload: `StarkConfig::standard()` over a mix of all
    /// three demo apps, dominated by the Fibonacci 2^12 job whose counters
    /// `CONTRACT.json` pins under `prover`. Job 0 is always exactly that
    /// job; `CONTRACT.json`'s `serve` section holds the one-shot proof
    /// digest of each mix entry.
    pub fn baseline(jobs: usize) -> Self {
        Self {
            jobs,
            seed: 7,
            mix: vec![
                MixEntry {
                    app: AppKind::Fibonacci,
                    rows: 1 << 12,
                    weight: 3,
                },
                MixEntry {
                    app: AppKind::Fibonacci,
                    rows: 1 << 10,
                    weight: 3,
                },
                MixEntry {
                    app: AppKind::Countdown,
                    rows: 1 << 11,
                    weight: 2,
                },
                MixEntry {
                    app: AppKind::RangeAccumulator,
                    rows: 1 << 10,
                    weight: 2,
                },
            ],
            config: StarkConfig::standard(),
        }
    }

    /// The CI workload: `StarkConfig::for_testing()` at small trace
    /// heights, cheap enough to run in the test gate.
    pub fn smoke(jobs: usize) -> Self {
        Self {
            jobs,
            seed: 7,
            mix: vec![
                MixEntry {
                    app: AppKind::Fibonacci,
                    rows: 256,
                    weight: 2,
                },
                MixEntry {
                    app: AppKind::Countdown,
                    rows: 128,
                    weight: 1,
                },
                MixEntry {
                    app: AppKind::RangeAccumulator,
                    rows: 128,
                    weight: 1,
                },
            ],
            config: StarkConfig::for_testing(),
        }
    }

    /// Generates the job list: job 0 is pinned to the first (highest-
    /// priority) mix entry; jobs `1..` sample the mix by weight.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or all weights are zero.
    ///
    /// # Example
    ///
    /// ```
    /// use unizk_serve::TrafficSpec;
    ///
    /// let spec = TrafficSpec::smoke(8);
    /// let a = spec.generate();
    /// let b = spec.generate();
    /// assert_eq!(a.len(), 8);
    /// // Determinism: the same spec always yields the same stream.
    /// for (x, y) in a.iter().zip(&b) {
    ///     assert_eq!(x.spec.key(), y.spec.key());
    /// }
    /// ```
    pub fn generate(&self) -> Vec<Job> {
        assert!(!self.mix.is_empty(), "traffic mix must not be empty");
        let total: u64 = self.mix.iter().map(|m| m.weight).sum();
        assert!(total > 0, "traffic mix weights must not all be zero");
        let mut rng = TestRng::seed_from_u64(self.seed);
        (0..self.jobs as u64)
            .map(|id| {
                let entry = if id == 0 {
                    &self.mix[0]
                } else {
                    let mut ticket = rng.gen_range(0..total);
                    self.mix
                        .iter()
                        .find(|m| {
                            if ticket < m.weight {
                                true
                            } else {
                                ticket -= m.weight;
                                false
                            }
                        })
                        .expect("ticket within total weight")
                };
                Job {
                    id,
                    spec: JobSpec {
                        app: entry.app,
                        rows: entry.rows,
                        config: self.config.clone(),
                    },
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_zero_is_pinned_to_first_entry() {
        let spec = TrafficSpec::baseline(4);
        let jobs = spec.generate();
        assert_eq!(jobs[0].spec.app, AppKind::Fibonacci);
        assert_eq!(jobs[0].spec.rows, 1 << 12);
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let spec = TrafficSpec::smoke(32);
        let a: Vec<String> = spec.generate().iter().map(|j| j.spec.key()).collect();
        let b: Vec<String> = spec.generate().iter().map(|j| j.spec.key()).collect();
        assert_eq!(a, b);

        let mut other = TrafficSpec::smoke(32);
        other.seed = 8;
        let c: Vec<String> = other.generate().iter().map(|j| j.spec.key()).collect();
        assert_ne!(a, c, "different seeds should reshuffle the mix");
    }

    #[test]
    fn mix_covers_every_entry_eventually() {
        let spec = TrafficSpec::smoke(64);
        let jobs = spec.generate();
        for entry in &spec.mix {
            assert!(
                jobs.iter()
                    .any(|j| j.spec.app == entry.app && j.spec.rows == entry.rows),
                "entry {:?} never sampled",
                entry.app
            );
        }
    }

    #[test]
    #[should_panic(expected = "mix must not be empty")]
    fn empty_mix_rejected() {
        let spec = TrafficSpec {
            jobs: 1,
            seed: 0,
            mix: vec![],
            config: StarkConfig::for_testing(),
        };
        let _ = spec.generate();
    }
}
