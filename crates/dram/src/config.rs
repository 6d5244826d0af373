//! HBM geometry and timing configuration.


/// HBM2e configuration. All timings are in accelerator core cycles (1 GHz
/// in the paper, so 1 cycle = 1 ns).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HbmConfig {
    /// Independent pseudo-channels.
    pub channels: usize,
    /// Banks per pseudo-channel.
    pub banks_per_channel: usize,
    /// Row (page) size in bytes.
    pub row_bytes: usize,
    /// Transaction granularity in bytes (the artifact uses 64 B requests).
    pub burst_bytes: usize,
    /// Data-bus occupancy of one burst, in cycles.
    pub burst_cycles: u64,
    /// Activate-to-access latency (tRCD).
    pub t_rcd: u64,
    /// Precharge latency (tRP).
    pub t_rp: u64,
    /// Column-to-column delay within a bank (tCCD).
    pub t_ccd: u64,
    /// Activate-to-activate delay per channel (tRRD; also captures the
    /// tFAW activation-rate limit, which is what caps random-access
    /// bandwidth on real HBM).
    pub t_rrd: u64,
    /// Refresh interval per channel (tREFI); `0` disables refresh.
    pub t_refi: u64,
    /// Refresh duration (tRFC): the channel is blocked this long at every
    /// tREFI boundary.
    pub t_rfc: u64,
}

impl HbmConfig {
    /// The paper's configuration: two HBM2e stacks, ~1 TB/s peak at a
    /// 1 GHz core clock (32 pseudo-channels × 32 B/cycle).
    pub fn hbm2e_two_stacks() -> Self {
        Self {
            channels: 32,
            banks_per_channel: 16,
            row_bytes: 1024,
            burst_bytes: 64,
            burst_cycles: 2, // 64 B over a 32 B/cycle pseudo-channel
            t_rcd: 14,
            t_rp: 14,
            t_ccd: 2,
            t_rrd: 6,
            t_refi: 3900,
            t_rfc: 260,
        }
    }

    /// A configuration with bandwidth scaled by `num/den` relative to the
    /// paper's, by scaling the pseudo-channel count (Fig. 10's memory
    /// bandwidth axis).
    ///
    /// # Panics
    ///
    /// Panics if the scaled channel count would be zero.
    pub fn scaled_bandwidth(num: usize, den: usize) -> Self {
        let base = Self::hbm2e_two_stacks();
        let channels = (base.channels * num) / den;
        assert!(channels > 0, "scaled bandwidth too low");
        Self { channels, ..base }
    }

    /// Checks the geometry for values the channel model cannot handle,
    /// naming the offending field in the error (see
    /// `ChipConfig::validate` in `unizk-core` for the caller side).
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 {
            return Err("hbm.channels: need at least one pseudo-channel".into());
        }
        if self.banks_per_channel == 0 {
            return Err("hbm.banks_per_channel: need at least one bank".into());
        }
        if !self.burst_bytes.is_power_of_two() {
            return Err(format!(
                "hbm.burst_bytes: must be a nonzero power of two, got {}",
                self.burst_bytes
            ));
        }
        if self.row_bytes == 0 || !self.row_bytes.is_multiple_of(self.burst_bytes) {
            return Err(format!(
                "hbm.row_bytes: must be a nonzero multiple of burst_bytes ({}), got {}",
                self.burst_bytes, self.row_bytes
            ));
        }
        if self.burst_cycles == 0 {
            return Err("hbm.burst_cycles: must be nonzero".into());
        }
        Ok(())
    }

    /// `.field_value` for every field that departs from the paper's
    /// configuration (empty for the paper's own): what tells two
    /// configurations' trace counters apart.
    pub(crate) fn label_suffix(&self) -> String {
        // Destructured, so a field added to the struct cannot be left out.
        let fields = |c: &Self| {
            let &Self {
                channels,
                banks_per_channel,
                row_bytes,
                burst_bytes,
                burst_cycles,
                t_rcd,
                t_rp,
                t_ccd,
                t_rrd,
                t_refi,
                t_rfc,
            } = c;
            [
                ("channels", channels as u64),
                ("banks_per_channel", banks_per_channel as u64),
                ("row_bytes", row_bytes as u64),
                ("burst_bytes", burst_bytes as u64),
                ("burst_cycles", burst_cycles),
                ("t_rcd", t_rcd),
                ("t_rp", t_rp),
                ("t_ccd", t_ccd),
                ("t_rrd", t_rrd),
                ("t_refi", t_refi),
                ("t_rfc", t_rfc),
            ]
        };
        fields(self)
            .iter()
            .zip(fields(&Self::hbm2e_two_stacks()))
            .filter(|(ours, paper)| **ours != *paper)
            .map(|((name, value), _)| format!(".{name}_{value}"))
            .collect()
    }

    /// Peak bandwidth in bytes per core cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.channels as f64 * self.burst_bytes as f64 / self.burst_cycles as f64
    }

    /// Peak bandwidth in GB/s assuming a 1 GHz core clock.
    pub fn peak_gb_per_s(&self) -> f64 {
        self.peak_bytes_per_cycle()
    }

    /// Bursts per row (row-buffer hits available per activation).
    pub fn bursts_per_row(&self) -> usize {
        self.row_bytes / self.burst_bytes
    }
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self::hbm2e_two_stacks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_peak_bandwidth_is_one_tb_per_s() {
        let cfg = HbmConfig::hbm2e_two_stacks();
        // 32 channels × 32 B/cycle × 1 GHz = 1024 GB/s ≈ 1 TB/s.
        assert!((cfg.peak_gb_per_s() - 1024.0).abs() < 1.0);
    }

    #[test]
    fn scaling_changes_peak() {
        let half = HbmConfig::scaled_bandwidth(1, 2);
        let double = HbmConfig::scaled_bandwidth(2, 1);
        let base = HbmConfig::hbm2e_two_stacks();
        assert!((half.peak_bytes_per_cycle() - base.peak_bytes_per_cycle() / 2.0).abs() < 1e-9);
        assert!((double.peak_bytes_per_cycle() - base.peak_bytes_per_cycle() * 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "too low")]
    fn zero_bandwidth_rejected() {
        let _ = HbmConfig::scaled_bandwidth(1, 64);
    }

    #[test]
    fn validate_accepts_stock_configs() {
        assert_eq!(HbmConfig::hbm2e_two_stacks().validate(), Ok(()));
        assert_eq!(HbmConfig::scaled_bandwidth(1, 4).validate(), Ok(()));
    }

    #[test]
    fn validate_names_the_bad_field() {
        let mut c = HbmConfig::hbm2e_two_stacks();
        c.channels = 0;
        assert!(c.validate().unwrap_err().contains("hbm.channels"));

        let mut c = HbmConfig::hbm2e_two_stacks();
        c.burst_bytes = 48;
        assert!(c.validate().unwrap_err().contains("hbm.burst_bytes"));

        let mut c = HbmConfig::hbm2e_two_stacks();
        c.row_bytes = 96;
        assert!(c.validate().unwrap_err().contains("hbm.row_bytes"));

        let mut c = HbmConfig::hbm2e_two_stacks();
        c.burst_cycles = 0;
        assert!(c.validate().unwrap_err().contains("hbm.burst_cycles"));
    }

    #[test]
    fn geometry() {
        let cfg = HbmConfig::hbm2e_two_stacks();
        assert_eq!(cfg.bursts_per_row(), 16);
    }

    #[test]
    fn refresh_overhead_is_single_digit_percent() {
        let cfg = HbmConfig::hbm2e_two_stacks();
        let overhead = cfg.t_rfc as f64 / cfg.t_refi as f64;
        assert!(overhead > 0.02 && overhead < 0.10, "overhead {overhead}");
    }
}
