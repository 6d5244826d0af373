//! The fast per-kernel memory-time interface used by the accelerator
//! simulator, with pattern efficiencies measured on the transaction model.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, OnceLock};

use crate::config::HbmConfig;
use crate::system::{MemorySystem, Transaction};

/// How a kernel touches memory. Efficiencies differ sharply: the paper's
/// Table 4 shows NTTs reaching ~50% bandwidth utilization while the gate
/// evaluation's small pseudo-random accesses underutilize it (§7.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum AccessPattern {
    /// Long unit-stride streams (Merkle levels, polynomial sweeps).
    Sequential,
    /// Fixed stride in bursts (column walks, decomposed-NTT dimensions).
    Strided {
        /// Stride in multiples of the burst size.
        bursts: u32,
    },
    /// Uniform random bursts over a working set.
    Random {
        /// `log2` of the working-set size in bursts.
        log2_working_set: u32,
    },
    /// Short random runs of `run` consecutive bursts (the gate-evaluation
    /// pattern: bit-reversed bases with small contiguous extents).
    ShortRuns {
        /// Consecutive bursts per run.
        run: u32,
    },
}

impl AccessPattern {
    /// A default random pattern over a large working set.
    pub fn random_blocks() -> Self {
        AccessPattern::Random { log2_working_set: 24 }
    }

    /// A stable human-readable label (used as a trace-counter suffix and in
    /// bench artifacts).
    pub fn label(&self) -> String {
        match self {
            AccessPattern::Sequential => "sequential".to_string(),
            AccessPattern::Strided { bursts } => format!("strided_{bursts}"),
            AccessPattern::Random { log2_working_set } => format!("random_{log2_working_set}"),
            AccessPattern::ShortRuns { run } => format!("short_runs_{run}"),
        }
    }
}

/// One access pattern's efficiency on one configuration: a link of that
/// configuration's list in [`MEMO`]. Links are only ever appended, so a
/// lookup is a walk over `OnceLock` loads and never writes shared memory.
struct Measured {
    pattern: AccessPattern,
    efficiency: OnceLock<f64>,
    next: PatternList,
}

type PatternList = OnceLock<Box<Measured>>;

/// The efficiency of a pattern is a pure function of `(HbmConfig,
/// AccessPattern)`, so the process measures each pair once: every model
/// over the same configuration shares one list of measured patterns. The
/// map is locked once per [`MemoryModel::new`], never per lookup.
static MEMO: LazyLock<Mutex<HashMap<HbmConfig, Arc<PatternList>>>> =
    LazyLock::new(Mutex::default);

/// Memoized pattern-efficiency model over a fixed [`HbmConfig`].
///
/// `stream_cycles(bytes, pattern)` = `bytes / (peak · efficiency(pattern))`,
/// where the efficiency is *measured* by replaying a representative probe
/// trace through [`MemorySystem`] the first time the process sees the
/// pattern on this configuration, whichever model or thread asks first.
pub struct MemoryModel {
    config: HbmConfig,
    /// This configuration's entry of [`MEMO`], shared with every other
    /// model over it.
    measured: Arc<PatternList>,
}

impl MemoryModel {
    /// A model over `config`.
    pub fn new(config: HbmConfig) -> Self {
        let measured = Arc::clone(
            MEMO.lock()
                .expect("memo mutex poisoned")
                .entry(config.clone())
                .or_default(),
        );
        Self { config, measured }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HbmConfig {
        &self.config
    }

    /// Fraction of peak bandwidth the pattern achieves (measured, cached).
    pub fn efficiency(&self, pattern: AccessPattern) -> f64 {
        let mut link = &*self.measured;
        loop {
            // Losing the race to append means another pattern took this
            // link: walk on. Losing the race to measure means waiting for
            // the one replay, so every pair is probed exactly once.
            let entry = link.get_or_init(|| {
                Box::new(Measured {
                    pattern,
                    efficiency: OnceLock::new(),
                    next: OnceLock::new(),
                })
            });
            if entry.pattern == pattern {
                return *entry
                    .efficiency
                    .get_or_init(|| measure(&self.config, pattern));
            }
            link = &entry.next;
        }
    }

    /// Cycles to move `bytes` under `pattern`, at measured efficiency.
    #[allow(clippy::cast_possible_truncation)] // non-negative cycle count
    pub fn stream_cycles(&self, bytes: u64, pattern: AccessPattern) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let peak = self.config.peak_bytes_per_cycle();
        let eff = self.efficiency(pattern).max(1e-3);
        ((bytes as f64) / (peak * eff)).ceil() as u64
    }

    /// Achieved bytes/cycle for a pattern.
    pub fn achieved_bytes_per_cycle(&self, pattern: AccessPattern) -> f64 {
        self.config.peak_bytes_per_cycle() * self.efficiency(pattern)
    }
}

/// Replays the probe trace of `pattern` through a fresh [`MemorySystem`].
fn measure(config: &HbmConfig, pattern: AccessPattern) -> f64 {
    use unizk_testkit::trace;
    const PROBE: u64 = 50_000;
    let _probe_span = trace::span("dram.measure");
    trace::counter("dram.probes", 1);
    trace::counter("dram.probe_bursts", PROBE);
    let burst = config.burst_bytes as u64;
    let mut sys = MemorySystem::new(config.clone());
    match pattern {
        AccessPattern::Sequential => {
            sys.access_stream(0, burst, PROBE, false);
        }
        AccessPattern::Strided { bursts } => {
            sys.access_stream(0, burst * bursts as u64, PROBE, false);
        }
        AccessPattern::Random { log2_working_set } => {
            // Deterministic pseudo-random probe (splitmix64).
            let mask = (1u64 << log2_working_set) - 1;
            let mut s = 0x1234_5678_9abc_def0u64;
            for _ in 0..PROBE {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                sys.access(Transaction { addr: (z & mask) * burst, is_write: false });
            }
        }
        AccessPattern::ShortRuns { run } => {
            let mut s = 0xdead_beef_cafe_f00du64;
            let mut issued = 0;
            while issued < PROBE {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z ^= z >> 31;
                let base = (z & ((1 << 24) - 1)) * burst;
                let n = (run as u64).min(PROBE - issued);
                sys.access_stream(base, burst, n, false);
                issued += n;
            }
        }
    }
    let achieved = sys.stats().achieved_bytes_per_cycle(config.burst_bytes);
    let efficiency = (achieved / config.peak_bytes_per_cycle()).clamp(0.0, 1.0);
    // Publish the measured efficiency and mean channel occupancy in
    // parts-per-million (counters are integral). Counters add, and each
    // name is bumped once per process because each pair is measured once:
    // the name carries the configuration wherever it departs from the
    // paper's, so two configurations never sum into one value.
    #[allow(clippy::cast_possible_truncation)] // ppm of a [0, 1] ratio
    {
        let key = format!("{}{}", pattern.label(), config.label_suffix());
        trace::counter_string(
            format!("dram.efficiency_ppm.{key}"),
            (efficiency * 1e6) as u64,
        );
        trace::counter_string(
            format!("dram.channel_occupancy_ppm.{key}"),
            (sys.channel_occupancy() * 1e6) as u64,
        );
    }
    efficiency
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_testkit::prop::prelude::*;

    /// One pattern of every kind.
    const KINDS: [AccessPattern; 4] = [
        AccessPattern::Sequential,
        AccessPattern::Strided { bursts: 33 },
        AccessPattern::Random { log2_working_set: 24 },
        AccessPattern::ShortRuns { run: 2 },
    ];

    #[test]
    fn memo_equals_a_fresh_replay_bit_for_bit() {
        // The two HBM configurations of the benchmark's sweep grid.
        for config in [HbmConfig::scaled_bandwidth(1, 2), HbmConfig::hbm2e_two_stacks()] {
            let model = MemoryModel::new(config.clone());
            for pattern in KINDS {
                let fresh = measure(&config, pattern).to_bits();
                // Whoever measured first, and on every later hit.
                assert_eq!(model.efficiency(pattern).to_bits(), fresh, "{pattern:?}");
                assert_eq!(model.efficiency(pattern).to_bits(), fresh, "{pattern:?}");
            }
        }
    }

    /// `base` with its `field`-th field moved to another valid value.
    fn perturbed(base: &HbmConfig, field: usize, bump: u64) -> HbmConfig {
        let mut config = base.clone();
        // Destructured, so a field added to the struct cannot be left out.
        let HbmConfig {
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
        } = &mut config;
        #[allow(clippy::cast_possible_truncation)] // bump < 4
        let small = bump as usize;
        match field {
            0 => *channels += small,
            1 => *banks_per_channel += small,
            2 => *row_bytes <<= small,
            3 => *burst_bytes <<= small,
            4 => *burst_cycles += bump,
            5 => *t_rcd += bump,
            6 => *t_rp += bump,
            7 => *t_ccd += bump,
            8 => *t_rrd += bump,
            9 => *t_refi += bump,
            10 => *t_rfc += bump,
            _ => unreachable!("HbmConfig has {FIELDS} fields"),
        }
        config.validate().expect("perturbation stays valid");
        config
    }
    const FIELDS: usize = 11;

    prop! {
        #![cases(6)]

        /// The memo key covers every field of the configuration: a
        /// neighbour that differs in any one of them has its own entries,
        /// holding what a replay on *it* measures.
        fn every_config_field_is_part_of_the_key(bump in 1u64..4, kind in 0usize..KINDS.len()) {
            let base = HbmConfig::hbm2e_two_stacks();
            let base_model = MemoryModel::new(base.clone());
            base_model.efficiency(KINDS[kind]);
            for field in 0..FIELDS {
                let config = perturbed(&base, field, bump);
                prop_assert!(config != base, "field {field} did not move");
                let model = MemoryModel::new(config.clone());
                prop_assert!(
                    !Arc::ptr_eq(&model.measured, &base_model.measured),
                    "field {field} is not part of the key"
                );
                prop_assert_eq!(
                    model.efficiency(KINDS[kind]).to_bits(),
                    measure(&config, KINDS[kind]).to_bits()
                );
            }
        }
    }

    #[test]
    fn efficiency_ordering_matches_intuition() {
        let model = MemoryModel::new(HbmConfig::hbm2e_two_stacks());
        let seq = model.efficiency(AccessPattern::Sequential);
        let short = model.efficiency(AccessPattern::ShortRuns { run: 2 });
        let rnd = model.efficiency(AccessPattern::random_blocks());
        assert!(seq > short, "seq {seq} short {short}");
        assert!(short >= rnd * 0.9, "short {short} rnd {rnd}");
        assert!(seq > 0.8);
    }

    #[test]
    fn cycles_scale_linearly_with_bytes() {
        let model = MemoryModel::new(HbmConfig::hbm2e_two_stacks());
        let one = model.stream_cycles(1 << 20, AccessPattern::Sequential);
        let four = model.stream_cycles(4 << 20, AccessPattern::Sequential);
        let ratio = four as f64 / one as f64;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn memoization_is_stable() {
        let model = MemoryModel::new(HbmConfig::hbm2e_two_stacks());
        let a = model.efficiency(AccessPattern::Sequential);
        let b = model.efficiency(AccessPattern::Sequential);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_bytes_zero_cycles() {
        let model = MemoryModel::new(HbmConfig::hbm2e_two_stacks());
        assert_eq!(model.stream_cycles(0, AccessPattern::Sequential), 0);
    }

    #[test]
    fn longer_runs_improve_short_run_efficiency() {
        let model = MemoryModel::new(HbmConfig::hbm2e_two_stacks());
        let short = model.efficiency(AccessPattern::ShortRuns { run: 2 });
        let long = model.efficiency(AccessPattern::ShortRuns { run: 64 });
        assert!(long > short, "long {long} short {short}");
    }
}
