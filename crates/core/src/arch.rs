//! Hardware configuration of the UniZK chip (paper §4 and §6).

use unizk_dram::HbmConfig;

/// The chip configuration. Defaults reproduce the paper's evaluation
/// platform: 32 VSAs of 12×12 PEs, an 8 MB double-buffered scratchpad, a
/// 16×16 transpose buffer, an on-chip twiddle factor generator, and two
/// HBM2e PHYs (~1 TB/s) at 1 GHz.
#[derive(Clone, Debug, PartialEq)]
pub struct ChipConfig {
    /// Number of vector-systolic arrays.
    pub num_vsas: usize,
    /// PE array dimension (12 — chosen to match the Poseidon state width,
    /// §5.2).
    pub vsa_dim: usize,
    /// Scratchpad capacity in bytes (double-buffered).
    pub scratchpad_bytes: usize,
    /// Transpose buffer tile dimension `b` (`b×b` elements; §5.1 uses 16).
    pub transpose_b: usize,
    /// `log2` of the fixed NTT pipeline size (§5.1: each 12-PE row is split
    /// into two 6-PE pipelines handling size-2^5 NTTs).
    pub ntt_pipeline_log2: usize,
    /// Clock frequency in GHz.
    pub freq_ghz: f64,
    /// Off-chip memory configuration.
    pub hbm: HbmConfig,
}

impl ChipConfig {
    /// The paper's default configuration (§6).
    pub fn default_chip() -> Self {
        Self {
            num_vsas: 32,
            vsa_dim: 12,
            scratchpad_bytes: 8 << 20,
            transpose_b: 16,
            ntt_pipeline_log2: 5,
            freq_ghz: 1.0,
            hbm: HbmConfig::hbm2e_two_stacks(),
        }
    }

    /// The same chip with a different number of VSAs (Fig. 10 sweep).
    pub fn with_vsas(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one VSA");
        self.num_vsas = n;
        self
    }

    /// The same chip with a different scratchpad size (Fig. 10 sweep).
    pub fn with_scratchpad_mb(mut self, mb: usize) -> Self {
        assert!(mb > 0, "need a nonzero scratchpad");
        self.scratchpad_bytes = mb << 20;
        self
    }

    /// The same chip with memory bandwidth scaled by `num/den` (Fig. 10
    /// sweep).
    pub fn with_bandwidth_scale(mut self, num: usize, den: usize) -> Self {
        self.hbm = HbmConfig::scaled_bandwidth(num, den);
        self
    }

    /// Checks the configuration for values the mapping layer and VSA
    /// models cannot handle, naming the offending axis in the error.
    ///
    /// Called by [`Simulator::new`](crate::sim::Simulator::new) and by the
    /// explore crate's sweep-point construction, so an invalid design
    /// point fails with `chip.scratchpad_bytes: must be a nonzero power of
    /// two` instead of a deep panic inside a kernel model (e.g. the vector
    /// unit's zero-lane assertion).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_vsas == 0 {
            return Err("chip.num_vsas: need at least one VSA".into());
        }
        if self.vsa_dim == 0 {
            return Err("chip.vsa_dim: need at least one PE row/vector lane".into());
        }
        if !self.scratchpad_bytes.is_power_of_two() {
            return Err(format!(
                "chip.scratchpad_bytes: must be a nonzero power of two, got {}",
                self.scratchpad_bytes
            ));
        }
        if self.ntt_pipeline_log2 == 0 || self.ntt_pipeline_log2 > 16 {
            return Err(format!(
                "chip.ntt_pipeline_log2: must be in 1..=16 (pipeline size 2..=65536), got {}",
                self.ntt_pipeline_log2
            ));
        }
        if !self.transpose_b.is_power_of_two() {
            return Err(format!(
                "chip.transpose_b: must be a nonzero power of two, got {}",
                self.transpose_b
            ));
        }
        if !(self.freq_ghz.is_finite() && self.freq_ghz > 0.0) {
            return Err(format!(
                "chip.freq_ghz: must be finite and positive, got {}",
                self.freq_ghz
            ));
        }
        self.hbm.validate()
    }

    /// PEs per VSA.
    pub fn pes_per_vsa(&self) -> usize {
        self.vsa_dim * self.vsa_dim
    }

    /// Total PE count.
    pub fn total_pes(&self) -> usize {
        self.num_vsas * self.pes_per_vsa()
    }

    /// Elements per cycle one pipeline accepts (MDC: 2/cycle).
    pub const NTT_PIPELINE_THROUGHPUT: usize = 2;

    /// Seconds per cycle.
    pub fn cycle_time_s(&self) -> f64 {
        1e-9 / self.freq_ghz
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_time_s()
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::default_chip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = ChipConfig::default_chip();
        assert_eq!(c.num_vsas, 32);
        assert_eq!(c.pes_per_vsa(), 144);
        assert_eq!(c.total_pes(), 4608);
        assert_eq!(c.scratchpad_bytes, 8 << 20);
        assert!((c.hbm.peak_gb_per_s() - 1024.0).abs() < 1.0);
    }

    #[test]
    fn sweep_builders() {
        let c = ChipConfig::default_chip()
            .with_vsas(16)
            .with_scratchpad_mb(4)
            .with_bandwidth_scale(1, 2);
        assert_eq!(c.num_vsas, 16);
        assert_eq!(c.scratchpad_bytes, 4 << 20);
        assert!((c.hbm.peak_gb_per_s() - 512.0).abs() < 1.0);
    }

    #[test]
    fn validate_accepts_defaults_and_sweep_points() {
        assert_eq!(ChipConfig::default_chip().validate(), Ok(()));
        assert_eq!(
            ChipConfig::default_chip()
                .with_vsas(64)
                .with_scratchpad_mb(1)
                .with_bandwidth_scale(1, 4)
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn validate_names_the_bad_axis() {
        let mut c = ChipConfig::default_chip();
        c.num_vsas = 0;
        assert!(c.validate().unwrap_err().contains("chip.num_vsas"));

        let mut c = ChipConfig::default_chip();
        c.vsa_dim = 0;
        assert!(c.validate().unwrap_err().contains("chip.vsa_dim"));

        let mut c = ChipConfig::default_chip();
        c.scratchpad_bytes = 3 << 20;
        assert!(c.validate().unwrap_err().contains("chip.scratchpad_bytes"));

        let mut c = ChipConfig::default_chip();
        c.ntt_pipeline_log2 = 0;
        assert!(c.validate().unwrap_err().contains("chip.ntt_pipeline_log2"));

        let mut c = ChipConfig::default_chip();
        c.transpose_b = 12;
        assert!(c.validate().unwrap_err().contains("chip.transpose_b"));

        let mut c = ChipConfig::default_chip();
        c.freq_ghz = 0.0;
        assert!(c.validate().unwrap_err().contains("chip.freq_ghz"));

        let mut c = ChipConfig::default_chip();
        c.hbm.channels = 0;
        assert!(c.validate().unwrap_err().contains("hbm.channels"));
    }

    #[test]
    fn cycle_conversion() {
        let c = ChipConfig::default_chip();
        assert!((c.cycles_to_seconds(1_000_000_000) - 1.0).abs() < 1e-12);
    }
}
