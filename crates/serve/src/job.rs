//! Job descriptions: which AIR to prove, at what size, under which config.

use unizk_stark::{
    prove, CountdownAir, FibonacciAir, RangeAccumulatorAir, StarkConfig, StarkError, StarkProof,
};

use crate::pipeline::NoPool;

/// The demo applications a proof-serving job can request, one per AIR the
/// STARK layer ships.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// [`FibonacciAir`] — two columns, one transition pair.
    Fibonacci,
    /// [`CountdownAir`] — one column, decrement-by-one.
    Countdown,
    /// [`RangeAccumulatorAir`] — running sum with a boundary pin.
    RangeAccumulator,
}

impl AppKind {
    /// Short stable name, used in artifacts and reports.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Fibonacci => "fibonacci",
            AppKind::Countdown => "countdown",
            AppKind::RangeAccumulator => "range_accumulator",
        }
    }
}

/// Everything needed to prove one job. Two jobs with equal specs produce
/// byte-identical proofs — the prover transcript depends only on the spec.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Which AIR to instantiate.
    pub app: AppKind,
    /// Trace height (must be a power of two).
    pub rows: usize,
    /// Prover configuration (FRI rate, queries, grinding, …).
    pub config: StarkConfig,
}

impl JobSpec {
    /// Proves the spec. `pool` is always `None` ([`NoPool`] has no values);
    /// `benchmark/` still passes it.
    ///
    /// This is the single proving entry point of the pipeline and of the
    /// one-shot reference path.
    ///
    /// # Errors
    ///
    /// Returns [`StarkError::UnsatisfiedConstraints`] if the AIR's trace
    /// fails its degree check (never for the stock AIRs above).
    pub fn prove(&self, pool: Option<NoPool>) -> Result<StarkProof, StarkError> {
        let _ = pool;
        match self.app {
            AppKind::Fibonacci => prove(&FibonacciAir::new(self.rows), &self.config),
            AppKind::Countdown => prove(&CountdownAir::new(self.rows), &self.config),
            AppKind::RangeAccumulator => prove(&RangeAccumulatorAir::new(self.rows), &self.config),
        }
    }

    /// A stable identity key for grouping equal specs (configs with equal
    /// fields compare equal through this key).
    pub fn key(&self) -> String {
        format!(
            "{}@{}r{}q{}",
            self.app.name(),
            self.rows,
            self.config.fri.rate_bits,
            self.config.fri.num_queries
        )
    }
}

/// One queued unit of work: a job id plus its spec. Ids are the pipeline's
/// determinism anchor — the report maps id `i` to the proof of job `i`
/// regardless of which worker proved it or in what order jobs completed.
#[derive(Clone, Debug)]
pub struct Job {
    /// Caller-assigned id, unique within one pipeline run.
    pub id: u64,
    /// What to prove.
    pub spec: JobSpec,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_proves_and_is_deterministic() {
        let spec = JobSpec {
            app: AppKind::Countdown,
            rows: 64,
            config: StarkConfig::for_testing(),
        };
        let a = spec.prove(None).unwrap().to_bytes();
        let b = spec.prove(None).unwrap().to_bytes();
        assert_eq!(a, b);
    }

    #[test]
    fn keys_distinguish_specs() {
        let mk = |app, rows| JobSpec {
            app,
            rows,
            config: StarkConfig::for_testing(),
        };
        assert_ne!(
            mk(AppKind::Fibonacci, 64).key(),
            mk(AppKind::Fibonacci, 128).key()
        );
        assert_ne!(
            mk(AppKind::Fibonacci, 64).key(),
            mk(AppKind::Countdown, 64).key()
        );
    }
}
