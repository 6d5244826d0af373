//! Small numeric helpers: medians, the input fingerprint, and the peak
//! resident set size of this process.

use std::time::{Duration, Instant};

/// Interpolated percentile (`p` in `0.0..=100.0`) of an unsorted sample;
/// `None` for an empty one. `p = 50` is the usual median (mean of the two
/// middle values for an even count).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).expect("median of an empty sample")
}

/// Wall time of one call of `f`, in nanoseconds.
pub fn time_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ns(start.elapsed()))
}

/// Median wall time over `reps` calls of `f`, in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| time_ns(&mut f).1).collect();
    median(&samples)
}

/// A duration as fractional nanoseconds.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// FNV-1a over 64 bits: the fingerprint printed for every workload's
/// generated inputs, so two runs can be seen to have measured the same
/// thing.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a64(u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    /// Absorbs raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs one word, little-endian.
    pub fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Extracts `VmHWM` (peak resident set, in kB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = line.split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(
            percentile(&[10.0, 20.0, 30.0, 40.0, 50.0], 25.0),
            Some(20.0)
        );
        assert_eq!(percentile(&[1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 100.0), Some(2.0));
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        let digest = |s: &str| {
            let mut h = Fnv1a64::default();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
        let mut a = Fnv1a64::default();
        a.word(1);
        let mut b = Fnv1a64::default();
        b.word(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.1));
    }
}
