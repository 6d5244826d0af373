//! Shared latency/utilization statistics for throughput reports.
//!
//! The software serving pipeline (`unizk-serve`) and the hardware fleet
//! simulator (`unizk-fleet`) both report sojourn/service percentiles
//! and per-worker utilization. They must compute those
//! figures **identically** so the software and hardware throughput
//! surfaces are comparable; this module is the single definition.
//!
//! The percentile is the classic *nearest-rank* estimator: for `p` in
//! `1..=100` over `n` sorted samples, the value at 1-based rank
//! `max(1, ceil(n·p/100))`. It is integer-only and therefore exactly
//! reproducible across platforms, unlike interpolating estimators.

/// Nearest-rank percentile (`p` in `1..=100`) over an unsorted
/// sequence; `0` for an empty one.
///
/// # Panics
///
/// Panics if `p` is outside `1..=100`.
pub fn percentile(values: impl Iterator<Item = u64>, p: u32) -> u64 {
    assert!((1..=100).contains(&p), "percentile must be in 1..=100");
    let mut v: Vec<u64> = values.collect();
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    v[rank - 1]
}

/// The p50/p95/p99 summary every throughput artifact reports for a
/// latency population (sojourn or service times, in whatever unit the
/// caller measured — nanoseconds for wall-clock reports, cycles for
/// the simulated fleet).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PercentileSummary {
    /// Median (nearest-rank p50).
    pub p50: u64,
    /// Nearest-rank p95.
    pub p95: u64,
    /// Nearest-rank p99.
    pub p99: u64,
}

impl PercentileSummary {
    /// Summarizes an unsorted population; all-zero for an empty one.
    pub fn from_values(values: impl Iterator<Item = u64> + Clone) -> Self {
        Self {
            p50: percentile(values.clone(), 50),
            p95: percentile(values.clone(), 95),
            p99: percentile(values, 99),
        }
    }

    /// Nearest-rank percentiles are order statistics of one sorted
    /// population, so p50 ≤ p95 ≤ p99 must hold; a violation means the
    /// artifact was not produced by [`percentile`].
    pub fn is_monotone(&self) -> bool {
        self.p50 <= self.p95 && self.p95 <= self.p99
    }
}

/// Busy fraction of one worker/chip: `busy / wall`, `0.0` when the
/// wall-clock denominator is zero.
pub fn utilization(busy: u64, wall: u64) -> f64 {
    if wall == 0 {
        0.0
    } else {
        busy as f64 / wall as f64
    }
}

/// Per-worker busy fractions against a common wall-clock denominator.
pub fn utilizations(busy: &[u64], wall: u64) -> Vec<f64> {
    busy.iter().map(|&b| utilization(b, wall)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile([10, 20, 30, 40].into_iter(), 50), 20);
        assert_eq!(percentile([10, 20, 30, 40].into_iter(), 100), 40);
        assert_eq!(percentile([10, 20, 30, 40].into_iter(), 1), 10);
        assert_eq!(percentile(std::iter::empty(), 99), 0);
    }

    #[test]
    fn percentile_sorts_its_input() {
        assert_eq!(percentile([40, 10, 30, 20].into_iter(), 50), 20);
    }

    #[test]
    #[should_panic(expected = "percentile must be in 1..=100")]
    fn percentile_rejects_zero() {
        let _ = percentile([1].into_iter(), 0);
    }

    #[test]
    fn summary_is_monotone() {
        let s = PercentileSummary::from_values((1..=1000).rev());
        assert_eq!(s.p50, 500);
        assert_eq!(s.p95, 950);
        assert_eq!(s.p99, 990);
        assert!(s.is_monotone());
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = PercentileSummary::from_values(std::iter::empty());
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0));
        assert!(s.is_monotone());
    }

    #[test]
    fn utilization_handles_zero_wall() {
        assert_eq!(utilization(5, 0), 0.0);
        assert!((utilization(1, 2) - 0.5).abs() < 1e-12);
        assert_eq!(utilizations(&[0, 10, 20], 20), vec![0.0, 0.5, 1.0]);
    }
}
