//! The static scheduler / cycle-level simulator.
//!
//! Follows the artifact's methodology: each kernel node contributes compute
//! cycles (from its mapping) and memory cycles (from the HBM model); under
//! double buffering the node costs `max(compute, memory) + fill`. The
//! transpose buffer hides layout transforms entirely (§7.1). Per-class
//! statistics reproduce the artifact's log output and Tables 3–4 /
//! Figs. 8–10.

use std::collections::HashMap;

use unizk_dram::MemoryModel;
use unizk_testkit::json::{Json, ToJson};

use crate::arch::ChipConfig;
use crate::graph::Graph;
use crate::kernels::KernelClassTag;
use crate::mapping::map_kernel;

/// Per-kernel-class accumulated statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassStats {
    /// Wall-clock cycles attributed to this class.
    pub cycles: u64,
    /// Cycles the class's VSAs were computing (`Σ compute × vsas_used`).
    pub vsa_busy_cycles: u64,
    /// Bytes moved to/from DRAM.
    pub bytes: u64,
    /// Number of kernel nodes.
    pub nodes: usize,
}

/// The simulation report — the numbers behind Tables 3–4 and Figs. 8–10.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// End-to-end cycles (the artifact's `memory_system_cycles` analogue).
    pub total_cycles: u64,
    /// Per-class breakdown.
    pub classes: HashMap<KernelClassTag, ClassStats>,
    /// Total 64-byte read requests (artifact log format).
    pub read_requests: u64,
    /// Total 64-byte write requests.
    pub write_requests: u64,
    /// Chip configuration echo: VSAs available.
    pub num_vsas: usize,
    /// Peak memory bytes/cycle for utilization math.
    pub peak_bytes_per_cycle: f64,
}

impl SimReport {
    /// Seconds at the configured clock (cycles × 1 ns at 1 GHz).
    pub fn seconds(&self, chip: &ChipConfig) -> f64 {
        chip.cycles_to_seconds(self.total_cycles)
    }

    /// Stats for one class (zero-default).
    pub fn class(&self, tag: KernelClassTag) -> ClassStats {
        self.classes.get(&tag).cloned().unwrap_or_default()
    }

    /// Memory-bandwidth utilization of a class while it runs (Table 4).
    pub fn memory_utilization(&self, tag: KernelClassTag) -> f64 {
        let c = self.class(tag);
        if c.cycles == 0 {
            return 0.0;
        }
        (c.bytes as f64 / c.cycles as f64) / self.peak_bytes_per_cycle
    }

    /// VSA (compute) utilization of a class while it runs (Table 4).
    pub fn vsa_utilization(&self, tag: KernelClassTag) -> f64 {
        let c = self.class(tag);
        if c.cycles == 0 {
            return 0.0;
        }
        c.vsa_busy_cycles as f64 / (c.cycles as f64 * self.num_vsas as f64)
    }

    /// Fraction of total cycles spent in a class (Fig. 8).
    pub fn cycle_fraction(&self, tag: KernelClassTag) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.class(tag).cycles as f64 / self.total_cycles as f64
    }

    /// Renders the report in the published artifact's log format
    /// (`total_num_write_requests`, `total_num_read_requests`,
    /// `memory_system_cycles`; see the paper's appendix §A.6).
    pub fn artifact_log(&self) -> String {
        format!(
            "total_num_write_requests: {}\ntotal_num_read_requests: {}\nmemory_system_cycles: {}\n",
            self.write_requests, self.read_requests, self.total_cycles
        )
    }
}

impl ToJson for ClassStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cycles", Json::from(self.cycles)),
            ("vsa_busy_cycles", Json::from(self.vsa_busy_cycles)),
            ("bytes", Json::from(self.bytes)),
            ("nodes", Json::from(self.nodes)),
        ])
    }
}

impl ToJson for SimReport {
    fn to_json(&self) -> Json {
        // HashMap iteration order is nondeterministic; emit classes in the
        // paper's fixed order so reports are byte-stable across runs.
        let classes = [
            KernelClassTag::Ntt,
            KernelClassTag::Hash,
            KernelClassTag::Poly,
            KernelClassTag::Transpose,
        ]
        .into_iter()
        .map(|tag| (tag.name(), self.class(tag).to_json()));
        Json::obj([
            ("total_cycles", Json::from(self.total_cycles)),
            ("read_requests", Json::from(self.read_requests)),
            ("write_requests", Json::from(self.write_requests)),
            ("num_vsas", Json::from(self.num_vsas)),
            ("peak_bytes_per_cycle", Json::from(self.peak_bytes_per_cycle)),
            ("classes", Json::obj(classes)),
        ])
    }
}

/// One scheduled kernel node's execution record — the "detailed schedule"
/// output of the compiler backend (paper §5.5).
#[derive(Clone, Debug)]
pub struct NodeTrace {
    /// The node's label from the computation graph.
    pub label: String,
    /// Kernel class.
    pub class: KernelClassTag,
    /// Cycle the node starts.
    pub start_cycle: u64,
    /// Cycle the node completes.
    pub end_cycle: u64,
    /// Compute cycles (VSA-busy portion).
    pub compute_cycles: u64,
    /// Memory cycles (DRAM-bound portion, overlapped with compute).
    pub memory_cycles: u64,
    /// DRAM bytes moved.
    pub bytes: u64,
    /// VSAs occupied.
    pub vsas_used: usize,
}

impl NodeTrace {
    /// Whether the node was limited by memory rather than compute.
    pub fn memory_bound(&self) -> bool {
        self.memory_cycles > self.compute_cycles
    }
}

/// The UniZK simulator.
pub struct Simulator {
    chip: ChipConfig,
    memory: MemoryModel,
}

impl Simulator {
    /// A simulator for a chip configuration.
    ///
    /// # Panics
    ///
    /// Panics with the named axis if the configuration fails
    /// [`ChipConfig::validate`] — a zero-lane or non-power-of-two design
    /// point is rejected here rather than deep inside a kernel model.
    pub fn new(chip: ChipConfig) -> Self {
        chip.validate()
            .unwrap_or_else(|e| panic!("invalid ChipConfig: {e}"));
        let memory = MemoryModel::new(chip.hbm.clone());
        Self { chip, memory }
    }

    /// The chip configuration.
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Runs a computation graph to completion and reports statistics.
    ///
    /// Nodes execute in topological (insertion) order; UniZK's static
    /// schedule dedicates the chip to one kernel at a time, with memory
    /// overlapped by double buffering.
    pub fn run(&self, graph: &Graph) -> SimReport {
        self.schedule(graph, None)
    }

    /// Like [`Simulator::run`] but also returns the per-node schedule —
    /// the compiler backend's "detailed schedules" (paper §5.5).
    pub fn run_with_trace(&self, graph: &Graph) -> (SimReport, Vec<NodeTrace>) {
        let mut trace = Vec::with_capacity(graph.len());
        let report = self.schedule(graph, Some(&mut trace));
        (report, trace)
    }

    /// The one scheduling walk behind both entry points; the per-node
    /// records (a label clone each) are built only for a caller that
    /// keeps them.
    fn schedule(&self, graph: &Graph, mut trace: Option<&mut Vec<NodeTrace>>) -> SimReport {
        // Debug builds verify every schedule before simulating it, so the
        // whole test suite exercises the static analyzer for free. Release
        // builds skip the pass; run the `lint` binary (unizk-analyze) to
        // verify explicitly.
        #[cfg(debug_assertions)]
        crate::analyze::assert_verified(graph, &self.chip);

        let _sim_span = unizk_testkit::trace::span("sim.run");
        unizk_testkit::trace::counter("sim.runs", 1);
        unizk_testkit::trace::counter("sim.nodes", graph.len() as u64);
        let mut report = SimReport {
            num_vsas: self.chip.num_vsas,
            peak_bytes_per_cycle: self.chip.hbm.peak_bytes_per_cycle(),
            ..SimReport::default()
        };

        for node in graph.nodes() {
            let cost = map_kernel(&node.kernel, &self.chip);
            let mem_cycles = self
                .memory
                .stream_cycles(cost.total_bytes(), cost.pattern);
            let node_cycles = cost.compute_cycles.max(mem_cycles) + cost.fill_cycles;

            let class = node.kernel.class();
            let entry = report.classes.entry(class).or_default();
            entry.cycles += node_cycles;
            entry.vsa_busy_cycles += cost.compute_cycles * cost.vsas_used as u64;
            entry.bytes += cost.total_bytes();
            entry.nodes += 1;

            if let Some(trace) = trace.as_deref_mut() {
                trace.push(NodeTrace {
                    label: node.label.clone(),
                    class,
                    start_cycle: report.total_cycles,
                    end_cycle: report.total_cycles + node_cycles,
                    compute_cycles: cost.compute_cycles,
                    memory_cycles: mem_cycles,
                    bytes: cost.total_bytes(),
                    vsas_used: cost.vsas_used,
                });
            }

            report.total_cycles += node_cycles;
            report.read_requests += cost.read_bytes.div_ceil(64);
            report.write_requests += cost.write_bytes.div_ceil(64);
        }

        // Publish the run's headline stats to the trace layer so bench
        // artifacts capture simulator activity alongside prover timing.
        unizk_testkit::trace::counter("sim.cycles", report.total_cycles);
        for (tag, [cycles, vsa_busy_cycles, bytes]) in CLASS_COUNTERS {
            let class = report.class(tag);
            if class.nodes > 0 {
                unizk_testkit::trace::counter(cycles, class.cycles);
                unizk_testkit::trace::counter(vsa_busy_cycles, class.vsa_busy_cycles);
                unizk_testkit::trace::counter(bytes, class.bytes);
            }
        }

        // Debug builds bracket every run against the static cost envelope:
        // per class and in total, `lower ≤ simulated ≤ upper`, and the
        // static traffic count is exact. Release CI covers the same
        // invariant through `lint --check-bounds`.
        #[cfg(debug_assertions)]
        {
            let env = crate::analyze::cost_envelope(graph, &self.chip);
            for tag in crate::analyze::CLASS_ORDER {
                let class = report.class(tag);
                let bounds = env.class(tag);
                assert!(
                    bounds.cycles_lower <= class.cycles && class.cycles <= bounds.cycles_upper,
                    "class {} simulated {} cycles outside its static envelope [{}, {}]",
                    tag.name(),
                    class.cycles,
                    bounds.cycles_lower,
                    bounds.cycles_upper
                );
                assert_eq!(
                    bounds.traffic_bytes,
                    class.bytes,
                    "class {} static traffic diverges from simulated traffic",
                    tag.name()
                );
            }
            assert!(
                env.total_lower() <= report.total_cycles
                    && report.total_cycles <= env.total_upper(),
                "simulated {} cycles outside the static envelope [{}, {}]",
                report.total_cycles,
                env.total_lower(),
                env.total_upper()
            );
        }

        report
    }
}

/// Per class, the counters one run publishes, spelled out so that a run
/// formats no names; `$name` is the class's [`KernelClassTag::name`]
/// (`class_counter_names_follow_the_tags` holds the two together).
macro_rules! class_counters {
    ($tag:ident, $name:literal) => {
        (
            KernelClassTag::$tag,
            [
                concat!("sim.class.", $name, ".cycles"),
                concat!("sim.class.", $name, ".vsa_busy_cycles"),
                concat!("sim.class.", $name, ".bytes"),
            ],
        )
    };
}
const CLASS_COUNTERS: [(KernelClassTag, [&str; 3]); 4] = [
    class_counters!(Ntt, "NTT"),
    class_counters!(Hash, "Hash"),
    class_counters!(Poly, "Poly"),
    class_counters!(Transpose, "Transpose"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_plonky2, compile_starky, Plonky2Instance, StarkyInstance};

    fn run_plonky2(rows: usize, chip: ChipConfig) -> SimReport {
        let inst = Plonky2Instance::new(rows, 135);
        Simulator::new(chip).run(&compile_plonky2(&inst))
    }

    #[test]
    fn report_is_populated() {
        let r = run_plonky2(1 << 12, ChipConfig::default_chip());
        assert!(r.total_cycles > 0);
        assert!(r.read_requests > 0);
        assert!(r.write_requests > 0);
        assert!(r.class(KernelClassTag::Hash).cycles > 0);
        assert!(r.class(KernelClassTag::Ntt).cycles > 0);
        assert!(r.class(KernelClassTag::Poly).cycles > 0);
    }

    #[test]
    fn transposes_cost_nothing() {
        let r = run_plonky2(1 << 12, ChipConfig::default_chip());
        assert_eq!(r.class(KernelClassTag::Transpose).cycles, 0);
    }

    #[test]
    fn cycles_scale_superlinearly_with_rows() {
        let small = run_plonky2(1 << 11, ChipConfig::default_chip());
        let large = run_plonky2(1 << 14, ChipConfig::default_chip());
        assert!(large.total_cycles > 6 * small.total_cycles);
    }

    #[test]
    fn hash_is_compute_bound_ntt_is_memory_bound() {
        // Reproduces Table 4's qualitative pattern at simulation scale.
        let r = run_plonky2(1 << 14, ChipConfig::default_chip());
        let hash_vsa = r.vsa_utilization(KernelClassTag::Hash);
        let hash_mem = r.memory_utilization(KernelClassTag::Hash);
        let ntt_vsa = r.vsa_utilization(KernelClassTag::Ntt);
        let ntt_mem = r.memory_utilization(KernelClassTag::Ntt);
        assert!(hash_vsa > 0.5, "hash VSA util {hash_vsa}");
        assert!(ntt_mem > ntt_vsa, "ntt mem {ntt_mem} vs vsa {ntt_vsa}");
        assert!(hash_vsa > hash_mem, "hash vsa {hash_vsa} vs mem {hash_mem}");
    }

    #[test]
    fn fewer_vsas_slow_down_hash() {
        let full = run_plonky2(1 << 13, ChipConfig::default_chip());
        let few = run_plonky2(1 << 13, ChipConfig::default_chip().with_vsas(4));
        assert!(
            few.class(KernelClassTag::Hash).cycles > 4 * full.class(KernelClassTag::Hash).cycles
        );
    }

    #[test]
    fn less_bandwidth_slows_down_ntt() {
        let full = run_plonky2(1 << 13, ChipConfig::default_chip());
        let half = run_plonky2(
            1 << 13,
            ChipConfig::default_chip().with_bandwidth_scale(1, 4),
        );
        assert!(half.class(KernelClassTag::Ntt).cycles > 2 * full.class(KernelClassTag::Ntt).cycles);
    }

    #[test]
    fn smaller_scratchpad_increases_traffic() {
        let full = run_plonky2(1 << 14, ChipConfig::default_chip());
        let tiny = run_plonky2(1 << 14, ChipConfig::default_chip().with_scratchpad_mb(1));
        assert!(tiny.class(KernelClassTag::Poly).bytes >= full.class(KernelClassTag::Poly).bytes);
        assert!(tiny.total_cycles >= full.total_cycles);
    }

    #[test]
    fn starky_is_cheaper_than_plonky2_at_same_rows() {
        let chip = ChipConfig::default_chip();
        let p = run_plonky2(1 << 13, chip.clone());
        let s = Simulator::new(chip).run(&compile_starky(&StarkyInstance::new(1 << 13, 16, 8)));
        assert!(
            s.total_cycles < p.total_cycles / 4,
            "starky {} vs plonky2 {}",
            s.total_cycles,
            p.total_cycles
        );
    }

    #[test]
    fn trace_covers_the_whole_run() {
        let inst = Plonky2Instance::new(1 << 12, 135);
        let graph = compile_plonky2(&inst);
        let (report, trace) = Simulator::new(ChipConfig::default_chip()).run_with_trace(&graph);
        assert_eq!(trace.len(), graph.len());
        // Contiguous, ordered, and summing to the total.
        let mut cursor = 0;
        for t in &trace {
            assert_eq!(t.start_cycle, cursor);
            assert!(t.end_cycle >= t.start_cycle);
            cursor = t.end_cycle;
        }
        assert_eq!(cursor, report.total_cycles);
        // NTT nodes should be memory-bound, Merkle nodes compute-bound.
        let ntt = trace.iter().find(|t| t.label.contains("LDE NTT")).expect("ntt node");
        assert!(ntt.memory_bound(), "{ntt:?}");
        let merkle = trace
            .iter()
            .find(|t| t.label.contains("Wires commitment: Merkle"))
            .expect("merkle node");
        assert!(!merkle.memory_bound(), "{merkle:?}");
    }

    #[test]
    fn class_counter_names_follow_the_tags() {
        for (tag, names) in CLASS_COUNTERS {
            let expected = ["cycles", "vsa_busy_cycles", "bytes"]
                .map(|stat| format!("sim.class.{}.{stat}", tag.name()));
            assert_eq!(names.map(str::to_string), expected);
        }
    }

    #[test]
    #[should_panic(expected = "chip.scratchpad_bytes")]
    fn invalid_config_fails_at_construction_with_named_axis() {
        let mut chip = ChipConfig::default_chip();
        chip.scratchpad_bytes = 3 << 20;
        let _ = Simulator::new(chip);
    }

    #[test]
    fn fractions_sum_to_one() {
        let r = run_plonky2(1 << 12, ChipConfig::default_chip());
        let sum: f64 = [
            KernelClassTag::Ntt,
            KernelClassTag::Hash,
            KernelClassTag::Poly,
            KernelClassTag::Transpose,
        ]
        .iter()
        .map(|&t| r.cycle_fraction(t))
        .sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
