//! Static verification of compiled kernel graphs.
//!
//! UniZK's core artifact is a *static* scheduler (paper §5, Fig. 7): the
//! compiler expands a protocol instance into a kernel DAG that the
//! simulator executes with double-buffered compute/memory overlap. Nothing
//! about that execution re-checks the schedule — a malformed mapping (a
//! dangling dependency, an element-order mismatch between producer and
//! consumer, a scratchpad overcommit) would still produce plausible-looking
//! cycle counts. This module is the lint pass that runs *before*
//! simulation and rejects ill-formed schedules with named, machine-readable
//! diagnostics.
//!
//! The rule catalog (stable ids, used by the mutation tests and the `lint`
//! binary of `unizk-analyze`):
//!
//! | id  | rule | severity | paper invariant |
//! |-----|------|----------|-----------------|
//! | S01 | `dep-out-of-range` | error | every dependency names a compiled node |
//! | S02 | `dep-not-topological` | error | insertion order is the topological (static) schedule — a forward/self edge is a cycle |
//! | S03 | `dep-duplicate` | error | dependency lists are sets |
//! | S04 | `orphan-node` | error | every kernel's output is consumed (single-sink proof pipelines, Fig. 7) |
//! | D01 | `ntt-order-mismatch` | error | §5.1 data layouts: an `NR` NTT emits bit-reversed order, which no NTT variant accepts as input |
//! | D02 | `lde-shrinks` | error | §5.1/§5.5: an NTT→NTT edge only ever *expands* data (LDE blowup), never discards it |
//! | D03 | `merkle-shape` | error | §5.3: Merkle construction assumes a full binary tree (power-of-two leaves, nonempty leaves) |
//! | D04 | `leaf-gather-mismatch` | error | §5.3: the leaf-gather transpose's matrix must match the Merkle node's (leaves × leaf length) |
//! | D05 | `reuse-inconsistent` | error | §5.4 tiling analysis: ideal traffic and working set never exceed streaming traffic |
//! | D06 | `bytes-conservation` | error | a transpose moves exactly the bytes its NTT producer made |
//! | D07 | `empty-kernel` | warning | zero-work nodes are schedule noise |
//! | R01 | `scratchpad-overcommit` | warning | §5.4: a reuse-claiming working set larger than the half-pad degrades to streaming |
//! | R02 | `infeasible-staging` | error | §5.1: the decomposed-NTT stage buffers must fit the scratchpad under double buffering |
//! | R03 | `transpose-not-hidden` | warning | §7.1: the zero-cost transpose assumption needs a neighbouring kernel at least as long |
//! | R04 | `ntt-exceeds-two-adicity` | error | §5.1: the twiddle generator cannot synthesize ω for `2^log_n` beyond the Goldilocks two-adicity (32) |
//! | L01 | `buffer-held-past-last-read` | warning | a value read ≫ later than it is produced parks an HBM-resident vector across many phases |
//! | M01 | `shard-schedule-divergent` | error | sharded proving splits one trace into identical sub-problems; shard schedules must be structurally identical |
//! | M02 | `aggregation-arity-mismatch` | error | the aggregation schedule must absorb exactly one payload per shard (and exist iff there is more than one shard) |
//! | M03 | `interconnect-payload-missing` | warning | multi-shard plans that declare zero inter-chip payload bytes leave the interconnect unmodeled |
//! | C01 | `cost-model-overflow` | error | a node's modeled cycles or traffic exceed 2^53, past which the model's f64 bandwidth arithmetic loses integer exactness |
//! | C02 | `zero-cost-schedule` | warning | a nonempty schedule whose static cycle upper bound is zero simulates as free |
//! | C03 | `bandwidth-starved-schedule` | warning | §7.1: nearly every costed kernel is memory-bound even at *peak* bandwidth — the mapping cannot feed the VSAs |
//! | C04 | `liveness-exceeds-scratchpad` | warning | §5.4: peak live bytes far beyond the scratchpad pin every inter-kernel value to HBM |
//! | P01 | `insufficient-security-bits` | error | conjectured security `min(queries·rate_bits + pow_bits, field_bits·extension_degree, field_bits·num_challenges)` must reach the target, over nonzero challenge rounds |
//! | P02 | `lde-exceeds-two-adicity` | error | `log_rows + rate_bits` must fit the base field's two-adicity (32 for Goldilocks, 24 for KoalaBear): the LDE domain needs a root of unity |
//! | P03 | `final-poly-inconsistent` | error | FRI folding must terminate on a nonempty power-of-two final polynomial smaller than the trace |
//! | P04 | `excessive-grind` | error | a `field_bits`-bit grinding challenge cannot show ≥ `field_bits` leading zero bits |
//! | P05 | `shard-aggregation-incompatible` | error | shard count (a power of two) and aggregation arity must describe the same plan |
//!
//! Entry point: [`check`] for a single chip's graph; [`check_multi`] adds
//! the M-rules over a [`MultiChipSchedule`] (every member graph still goes
//! through [`check`] individually); [`check_params`] runs the P-rules over
//! a protocol's [`ProtocolParams`]. The simulator calls [`check`] under
//! `debug_assertions`, so every test run verifies every graph it executes
//! for free; the `unizk-analyze` crate wraps it in a `lint` CLI that gates
//! CI and bench artifacts, and the fleet simulator asserts
//! [`assert_multi_verified`] on every plan it runs in debug builds.
//!
//! # Cost envelope (C-rules)
//!
//! [`cost_envelope`] derives a static roofline over the mapping (paper §5):
//! for every node the simulator will charge
//! `max(compute_cycles, stream_cycles(bytes)) + fill_cycles`, where
//! `stream_cycles = ceil(bytes / (peak · efficiency))` and the measured
//! efficiency is clamped to `[0, 1]`. Two bounds follow without running the
//! channel model:
//!
//! * **lower** — `max(compute_cycles, ceil(bytes / peak)) + fill_cycles`:
//!   memory can never beat peak bandwidth, so this floor is sound;
//! * **upper** — `compute_cycles + stream_cycles(bytes) + fill_cycles`:
//!   `max(a, b) ≤ a + b`, so dropping the compute/memory overlap is a
//!   sound ceiling.
//!
//! HBM traffic is exact (the byte counts are static), and peak scratchpad
//! liveness is the maximum over schedule positions of the bytes written by
//! producers still awaiting their last consumer. The simulator
//! debug-asserts `lower ≤ simulated ≤ upper` per kernel class on every run.

use unizk_dram::MemoryModel;

use crate::arch::ChipConfig;
use crate::graph::{Graph, NodeId};
use crate::kernels::{Kernel, KernelClassTag, NttVariant};
use crate::mapping::map_kernel;

/// Goldilocks two-adicity: the largest `log_n` for which a primitive
/// `2^log_n`-th root of unity — and therefore an NTT — exists. Mirrors
/// `unizk_field::PrimeField64::TWO_ADICITY` for Goldilocks; the analyzer
/// keeps its own copy so linting a graph does not pull in field
/// arithmetic.
pub const MAX_NTT_LOG2: usize = 32;

/// Live-range length (in schedule positions) beyond which rule L01 flags a
/// producer: its output must stay resident across that many intervening
/// kernel phases before its final read.
pub const LIVENESS_WINDOW: usize = 16;

/// Largest magnitude (`2^53`) a node's modeled cycles or traffic may reach
/// before rule C01 fires: past this, `f64` bandwidth arithmetic (the memory
/// model divides byte counts by bytes/cycle) no longer represents every
/// integer exactly, so neither simulated results nor the static envelope
/// can be trusted.
pub const MAX_EXACT_COST: u64 = 1 << 53;

/// Minimum costed-node count before rule C03 considers a schedule; tiny
/// graphs (a lone absorb, a unit test fixture) are all noise.
pub const BANDWIDTH_STARVED_MIN_NODES: usize = 4;

/// Percentage of costed nodes that must be memory-bound *at peak
/// bandwidth* for rule C03 to fire. Real proof schedules are dominated by
/// compute-bound hash kernels; only a pathological mapping starves.
pub const BANDWIDTH_STARVED_PERCENT: usize = 95;

/// Multiple of the scratchpad that peak live bytes may reach before rule
/// C04 fires. Proof schedules stream far more than one pad (that is the
/// design: HBM holds the vectors — full-scale workloads peak around
/// 3500x), so the warning triggers only when the resident set would
/// overflow even HBM: 4096 x the default 8 MiB pad is 32 GiB, about the
/// capacity of the paper's two HBM2e stacks.
pub const LIVENESS_SCRATCHPAD_FACTOR: u64 = 4096;

/// How serious a diagnostic is.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The schedule is degraded or suspicious but executable.
    Warning,
    /// The schedule is ill-formed; simulated numbers would be meaningless.
    Error,
}

/// The verification rules, with stable machine-readable identifiers.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Rule {
    /// S01: a dependency names a node the graph does not contain.
    DepOutOfRange,
    /// S02: a dependency points forward (or at the node itself) — a cycle
    /// under the static insertion-order schedule.
    DepNotTopological,
    /// S03: the same dependency is listed more than once.
    DepDuplicate,
    /// S04: a non-final node's output is never consumed.
    OrphanNode,
    /// D01: an NTT consumes another NTT's bit-reversed output, but every
    /// NTT variant expects natural input order.
    NttOrderMismatch,
    /// D02: an NTT→NTT edge shrinks the data (consumer elements fewer than
    /// producer elements) — an LDE only ever expands.
    LdeShrinks,
    /// D03: a Merkle node's shape breaks the full-binary-tree mapping.
    MerkleShape,
    /// D04: a Merkle node disagrees with its leaf-gather transpose about
    /// the committed matrix shape.
    LeafGatherMismatch,
    /// D05: a `Reuse` declaration is internally inconsistent.
    ReuseInconsistent,
    /// D06: a transpose does not move exactly what its NTT producer made.
    BytesConservation,
    /// D07: a node performs no work.
    EmptyKernel,
    /// R01: a reuse-claiming working set exceeds the double-buffered
    /// half-scratchpad, so the claimed ideal traffic degrades.
    ScratchpadOvercommit,
    /// R02: the decomposed-NTT stage buffers do not fit the scratchpad.
    InfeasibleStaging,
    /// R03: a transpose is too large to hide behind its neighbours.
    TransposeNotHidden,
    /// R04: an NTT size exceeds the field's two-adicity.
    NttExceedsTwoAdicity,
    /// L01: a producer's output is held far past the rest of its uses.
    BufferHeldPastLastRead,
    /// M01: a shard's schedule diverges structurally from shard 0's —
    /// sharded proving splits one trace into identical sub-problems.
    ShardScheduleDivergent,
    /// M02: the aggregation schedule's absorb arity disagrees with the
    /// shard count (or the stage is present/absent when it must not be).
    AggregationArityMismatch,
    /// M03: a multi-shard plan declares zero inter-chip payload bytes, so
    /// the interconnect model charges nothing for aggregation traffic.
    InterconnectPayloadMissing,
    /// C01: a node's modeled cycles or traffic exceed [`MAX_EXACT_COST`],
    /// past which the model's `f64` arithmetic loses integer exactness.
    CostModelOverflow,
    /// C02: a nonempty schedule's static cycle upper bound is zero.
    ZeroCostSchedule,
    /// C03: nearly every costed kernel is memory-bound even at peak
    /// bandwidth — the mapping cannot feed the VSAs.
    BandwidthStarvedSchedule,
    /// C04: peak scratchpad liveness exceeds the pad by
    /// [`LIVENESS_SCRATCHPAD_FACTOR`], pinning inter-kernel values to HBM.
    LivenessExceedsScratchpad,
    /// P01: conjectured security bits fall short of the target (or there
    /// are zero constraint-combination challenge rounds).
    InsufficientSecurityBits,
    /// P02: the LDE domain `2^(log_rows + rate_bits)` has no root of unity
    /// within the Goldilocks two-adicity.
    LdeExceedsTwoAdicity,
    /// P03: the FRI final polynomial is empty, not a power of two, or at
    /// least as large as the trace itself.
    FinalPolyInconsistent,
    /// P04: the proof-of-work grind demands ≥ 64 leading zero bits of a
    /// 64-bit challenge.
    ExcessiveGrind,
    /// P05: shard count and aggregation arity describe different plans.
    ShardAggregationIncompatible,
}

impl Rule {
    /// Every rule, in catalog (and diagnostic-emission) order.
    pub const ALL: [Rule; 28] = [
        Rule::DepOutOfRange,
        Rule::DepNotTopological,
        Rule::DepDuplicate,
        Rule::OrphanNode,
        Rule::NttOrderMismatch,
        Rule::LdeShrinks,
        Rule::MerkleShape,
        Rule::LeafGatherMismatch,
        Rule::ReuseInconsistent,
        Rule::BytesConservation,
        Rule::EmptyKernel,
        Rule::ScratchpadOvercommit,
        Rule::InfeasibleStaging,
        Rule::TransposeNotHidden,
        Rule::NttExceedsTwoAdicity,
        Rule::BufferHeldPastLastRead,
        Rule::ShardScheduleDivergent,
        Rule::AggregationArityMismatch,
        Rule::InterconnectPayloadMissing,
        Rule::CostModelOverflow,
        Rule::ZeroCostSchedule,
        Rule::BandwidthStarvedSchedule,
        Rule::LivenessExceedsScratchpad,
        Rule::InsufficientSecurityBits,
        Rule::LdeExceedsTwoAdicity,
        Rule::FinalPolyInconsistent,
        Rule::ExcessiveGrind,
        Rule::ShardAggregationIncompatible,
    ];

    /// Stable short identifier (`S01`, `D03`, …).
    pub fn id(&self) -> &'static str {
        match self {
            Rule::DepOutOfRange => "S01",
            Rule::DepNotTopological => "S02",
            Rule::DepDuplicate => "S03",
            Rule::OrphanNode => "S04",
            Rule::NttOrderMismatch => "D01",
            Rule::LdeShrinks => "D02",
            Rule::MerkleShape => "D03",
            Rule::LeafGatherMismatch => "D04",
            Rule::ReuseInconsistent => "D05",
            Rule::BytesConservation => "D06",
            Rule::EmptyKernel => "D07",
            Rule::ScratchpadOvercommit => "R01",
            Rule::InfeasibleStaging => "R02",
            Rule::TransposeNotHidden => "R03",
            Rule::NttExceedsTwoAdicity => "R04",
            Rule::BufferHeldPastLastRead => "L01",
            Rule::ShardScheduleDivergent => "M01",
            Rule::AggregationArityMismatch => "M02",
            Rule::InterconnectPayloadMissing => "M03",
            Rule::CostModelOverflow => "C01",
            Rule::ZeroCostSchedule => "C02",
            Rule::BandwidthStarvedSchedule => "C03",
            Rule::LivenessExceedsScratchpad => "C04",
            Rule::InsufficientSecurityBits => "P01",
            Rule::LdeExceedsTwoAdicity => "P02",
            Rule::FinalPolyInconsistent => "P03",
            Rule::ExcessiveGrind => "P04",
            Rule::ShardAggregationIncompatible => "P05",
        }
    }

    /// Kebab-case rule name.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::DepOutOfRange => "dep-out-of-range",
            Rule::DepNotTopological => "dep-not-topological",
            Rule::DepDuplicate => "dep-duplicate",
            Rule::OrphanNode => "orphan-node",
            Rule::NttOrderMismatch => "ntt-order-mismatch",
            Rule::LdeShrinks => "lde-shrinks",
            Rule::MerkleShape => "merkle-shape",
            Rule::LeafGatherMismatch => "leaf-gather-mismatch",
            Rule::ReuseInconsistent => "reuse-inconsistent",
            Rule::BytesConservation => "bytes-conservation",
            Rule::EmptyKernel => "empty-kernel",
            Rule::ScratchpadOvercommit => "scratchpad-overcommit",
            Rule::InfeasibleStaging => "infeasible-staging",
            Rule::TransposeNotHidden => "transpose-not-hidden",
            Rule::NttExceedsTwoAdicity => "ntt-exceeds-two-adicity",
            Rule::BufferHeldPastLastRead => "buffer-held-past-last-read",
            Rule::ShardScheduleDivergent => "shard-schedule-divergent",
            Rule::AggregationArityMismatch => "aggregation-arity-mismatch",
            Rule::InterconnectPayloadMissing => "interconnect-payload-missing",
            Rule::CostModelOverflow => "cost-model-overflow",
            Rule::ZeroCostSchedule => "zero-cost-schedule",
            Rule::BandwidthStarvedSchedule => "bandwidth-starved-schedule",
            Rule::LivenessExceedsScratchpad => "liveness-exceeds-scratchpad",
            Rule::InsufficientSecurityBits => "insufficient-security-bits",
            Rule::LdeExceedsTwoAdicity => "lde-exceeds-two-adicity",
            Rule::FinalPolyInconsistent => "final-poly-inconsistent",
            Rule::ExcessiveGrind => "excessive-grind",
            Rule::ShardAggregationIncompatible => "shard-aggregation-incompatible",
        }
    }

    /// The severity this rule reports at.
    pub fn severity(&self) -> Severity {
        match self {
            Rule::EmptyKernel
            | Rule::ScratchpadOvercommit
            | Rule::TransposeNotHidden
            | Rule::BufferHeldPastLastRead
            | Rule::InterconnectPayloadMissing
            | Rule::ZeroCostSchedule
            | Rule::BandwidthStarvedSchedule
            | Rule::LivenessExceedsScratchpad => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description of the invariant the rule encodes.
    pub fn description(&self) -> &'static str {
        match self {
            Rule::DepOutOfRange => "every dependency must name a node present in the graph",
            Rule::DepNotTopological => {
                "insertion order is the static schedule; forward/self deps are cycles"
            }
            Rule::DepDuplicate => "a node's dependency list must be a set",
            Rule::OrphanNode => "every non-final node's output must be consumed",
            Rule::NttOrderMismatch => {
                "NTT variants consume natural order; NR producers emit bit-reversed order"
            }
            Rule::LdeShrinks => "an NTT feeding an NTT only expands data (LDE blowup)",
            Rule::MerkleShape => "Merkle trees need a power-of-two leaf count and nonempty leaves",
            Rule::LeafGatherMismatch => {
                "a Merkle node must agree with its leaf-gather transpose on the matrix shape"
            }
            Rule::ReuseInconsistent => {
                "ideal traffic and working set can never exceed streaming traffic"
            }
            Rule::BytesConservation => {
                "a transpose moves exactly the bytes its NTT producer wrote"
            }
            Rule::EmptyKernel => "zero-work nodes are schedule noise",
            Rule::ScratchpadOvercommit => {
                "a reuse-claiming working set must fit the double-buffered half-scratchpad"
            }
            Rule::InfeasibleStaging => {
                "decomposed-NTT stage buffers must fit the scratchpad under double buffering"
            }
            Rule::TransposeNotHidden => {
                "the zero-cost transpose needs a neighbouring kernel at least as long"
            }
            Rule::NttExceedsTwoAdicity => {
                "no primitive 2^log_n-th root of unity exists past the field's two-adicity"
            }
            Rule::BufferHeldPastLastRead => {
                "a long producer-to-last-consumer range parks an HBM vector across many phases"
            }
            Rule::ShardScheduleDivergent => {
                "sharded proving splits one trace into identical sub-problems; shard schedules \
                 must be structurally identical"
            }
            Rule::AggregationArityMismatch => {
                "the aggregation schedule must absorb exactly one payload per shard, and exists \
                 exactly when there is more than one shard"
            }
            Rule::InterconnectPayloadMissing => {
                "a multi-shard plan with zero declared payload bytes leaves the interconnect \
                 unmodeled"
            }
            Rule::CostModelOverflow => {
                "modeled cycles and traffic must stay below 2^53, where f64 bandwidth \
                 arithmetic is still integer-exact"
            }
            Rule::ZeroCostSchedule => {
                "a nonempty schedule with a zero static cycle upper bound simulates as free"
            }
            Rule::BandwidthStarvedSchedule => {
                "nearly every costed kernel is memory-bound even at peak bandwidth: the \
                 mapping cannot feed the VSAs"
            }
            Rule::LivenessExceedsScratchpad => {
                "peak live bytes far beyond the scratchpad pin every inter-kernel value to HBM"
            }
            Rule::InsufficientSecurityBits => {
                "conjectured security (queries x rate_bits + pow_bits) must reach the target \
                 over nonzero challenge rounds"
            }
            Rule::LdeExceedsTwoAdicity => {
                "the LDE domain 2^(log_rows + rate_bits) needs a root of unity within the \
                 field's two-adicity"
            }
            Rule::FinalPolyInconsistent => {
                "FRI folding must terminate on a nonempty power-of-two final polynomial \
                 smaller than the trace"
            }
            Rule::ExcessiveGrind => {
                "a 64-bit grinding challenge cannot show 64 or more leading zero bits"
            }
            Rule::ShardAggregationIncompatible => {
                "shard count (a power of two) and aggregation arity must describe the same plan"
            }
        }
    }
}

/// One verification finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: Rule,
    /// `rule.severity()`, denormalized for filtering.
    pub severity: Severity,
    /// The node the finding anchors to (`None` for graph-level findings).
    pub node: Option<NodeId>,
    /// Human-readable detail, including the node label where available.
    pub message: String,
}

impl Diagnostic {
    /// Whether this diagnostic is error severity.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// `S02 dep-not-topological @ node 3 (label): message` rendering.
    pub fn render(&self) -> String {
        let at = match self.node {
            Some(n) => format!(" @ node {n}"),
            None => String::new(),
        };
        format!("{} {}{at}: {}", self.rule.id(), self.rule.name(), self.message)
    }
}

/// Number of error-severity diagnostics in a finding list.
pub fn error_count(diags: &[Diagnostic]) -> usize {
    diags.iter().filter(|d| d.is_error()).count()
}

/// Multi-line rendering of a finding list (for panics and CLI output).
pub fn render_all(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| d.render() + "\n").collect()
}

/// Kernel classes in the fixed order [`CostEnvelope`] stores them.
pub const CLASS_ORDER: [KernelClassTag; 4] = [
    KernelClassTag::Ntt,
    KernelClassTag::Hash,
    KernelClassTag::Poly,
    KernelClassTag::Transpose,
];

fn class_index(tag: KernelClassTag) -> usize {
    match tag {
        KernelClassTag::Ntt => 0,
        KernelClassTag::Hash => 1,
        KernelClassTag::Poly => 2,
        KernelClassTag::Transpose => 3,
    }
}

/// Static cycle and traffic bounds for one kernel class.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassEnvelope {
    /// Roofline floor on the class's simulated cycles: memory time at
    /// *peak* bandwidth, compute time at full issue.
    pub cycles_lower: u64,
    /// Ceiling on the class's simulated cycles: compute plus
    /// measured-efficiency memory time with no overlap.
    pub cycles_upper: u64,
    /// HBM traffic in bytes. Exact, not a bound — byte counts are static.
    pub traffic_bytes: u64,
    /// Nodes of this class in the schedule.
    pub nodes: usize,
}

/// A machine-readable static roofline over a compiled schedule: per-class
/// cycle lower/upper bounds, exact HBM traffic, and peak scratchpad
/// liveness. See the module docs for the derivation; the simulator
/// debug-asserts `lower ≤ simulated ≤ upper` against this on every run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostEnvelope {
    /// Per-class bounds, in [`CLASS_ORDER`].
    pub classes: [ClassEnvelope; 4],
    /// Maximum over schedule positions of the bytes written by producers
    /// whose output is still awaiting its last consumer.
    pub peak_live_bytes: u64,
}

impl CostEnvelope {
    /// The bounds for one kernel class.
    pub fn class(&self, tag: KernelClassTag) -> &ClassEnvelope {
        &self.classes[class_index(tag)]
    }

    /// Lower bound on total simulated cycles (sum of class floors — the
    /// simulator runs nodes serially, so per-node bounds add).
    pub fn total_lower(&self) -> u64 {
        self.classes.iter().map(|c| c.cycles_lower).sum()
    }

    /// Upper bound on total simulated cycles.
    pub fn total_upper(&self) -> u64 {
        self.classes.iter().map(|c| c.cycles_upper).sum()
    }

    /// Total HBM traffic in bytes (exact).
    pub fn total_traffic_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.traffic_bytes).sum()
    }
}

/// Derives the [`CostEnvelope`] of a compiled schedule on `chip`.
///
/// Purely static: maps every kernel, never runs the cycle-accurate channel
/// model probe beyond the memory model's own deterministic efficiency
/// measurement (identical to what the simulator uses).
pub fn cost_envelope(graph: &Graph, chip: &ChipConfig) -> CostEnvelope {
    let memory = MemoryModel::new(chip.hbm.clone());
    let nodes = graph.nodes();
    let len = nodes.len();

    // Live ranges for peak liveness: a producer's output occupies memory
    // from its own position through its last consumer's.
    let mut last_consumer: Vec<Option<NodeId>> = vec![None; len];
    for (id, node) in nodes.iter().enumerate() {
        for &d in &node.deps {
            if d < id {
                last_consumer[d] = Some(id);
            }
        }
    }

    let peak = chip.hbm.peak_bytes_per_cycle();
    let mut env = CostEnvelope::default();
    let mut live_delta = vec![0i128; len + 1];
    for (id, node) in nodes.iter().enumerate() {
        let cost = map_kernel(&node.kernel, chip);
        let bytes = cost.total_bytes();
        // The floor assumes 100% bandwidth efficiency; the measured
        // efficiency is clamped to [0, 1], so the simulator's
        // `stream_cycles` can only be at least this.
        #[allow(clippy::cast_possible_truncation)] // C01 bounds the domain
        let mem_floor = if bytes == 0 { 0 } else { ((bytes as f64) / peak).ceil() as u64 };
        let mem_ceiling = memory.stream_cycles(bytes, cost.pattern);
        let slot = &mut env.classes[class_index(node.kernel.class())];
        slot.cycles_lower += cost.compute_cycles.max(mem_floor) + cost.fill_cycles;
        slot.cycles_upper += cost.compute_cycles + mem_ceiling + cost.fill_cycles;
        slot.traffic_bytes += bytes;
        slot.nodes += 1;

        let end = last_consumer[id].unwrap_or(id);
        live_delta[id] += i128::from(cost.write_bytes);
        live_delta[end + 1] -= i128::from(cost.write_bytes);
    }

    let mut live = 0i128;
    let mut peak_live = 0i128;
    for d in &live_delta {
        live += d;
        peak_live = peak_live.max(live);
    }
    env.peak_live_bytes = u64::try_from(peak_live).expect("live bytes are a sum of u64 writes");
    env
}

/// Verifies a compiled kernel graph against a chip configuration.
///
/// Returns every finding, errors and warnings, in deterministic order
/// (nodes in schedule order, rules in catalog order within a node). An
/// empty result — or one with only warnings — means the schedule is
/// well-formed and its simulated cycle counts can be trusted.
pub fn check(graph: &Graph, chip: &ChipConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let nodes = graph.nodes();
    let len = nodes.len();

    // Last consumer of each node, for S04 (orphans) and L01 (liveness).
    let mut last_consumer: Vec<Option<NodeId>> = vec![None; len];
    for (id, node) in nodes.iter().enumerate() {
        for &d in &node.deps {
            if d < id {
                last_consumer[d] = Some(id);
            }
        }
    }

    let memory = MemoryModel::new(chip.hbm.clone());
    let node_cycles = |id: NodeId| -> u64 {
        let cost = map_kernel(&nodes[id].kernel, chip);
        let mem = memory.stream_cycles(cost.total_bytes(), cost.pattern);
        cost.compute_cycles.max(mem) + cost.fill_cycles
    };

    for (id, node) in nodes.iter().enumerate() {
        let label = &node.label;
        let mut push = |rule: Rule, node_id: NodeId, message: String| {
            diags.push(Diagnostic {
                rule,
                severity: rule.severity(),
                node: Some(node_id),
                message,
            });
        };

        // ---- cost-model domain ------------------------------------------
        let cost = map_kernel(&node.kernel, chip);
        if cost.compute_cycles > MAX_EXACT_COST || cost.total_bytes() > MAX_EXACT_COST {
            push(
                Rule::CostModelOverflow,
                id,
                format!(
                    "({label}) models {} compute cycles and {} traffic bytes; past 2^53 the \
                     f64 bandwidth arithmetic loses integer exactness and neither simulation \
                     nor the static envelope can be trusted",
                    cost.compute_cycles,
                    cost.total_bytes()
                ),
            );
        }

        // ---- structural -------------------------------------------------
        for (i, &d) in node.deps.iter().enumerate() {
            if d >= len {
                push(
                    Rule::DepOutOfRange,
                    id,
                    format!("({label}) depends on node {d}, but the graph has {len} nodes"),
                );
            } else if d >= id {
                push(
                    Rule::DepNotTopological,
                    id,
                    format!(
                        "({label}) depends on node {d}, which is not scheduled before it \
                         (cycle under the static schedule)"
                    ),
                );
            }
            if node.deps[..i].contains(&d) {
                push(
                    Rule::DepDuplicate,
                    id,
                    format!("({label}) lists dependency {d} more than once"),
                );
            }
        }
        if id + 1 < len && last_consumer[id].is_none() {
            push(
                Rule::OrphanNode,
                id,
                format!("({label}) output is never consumed and it is not the final node"),
            );
        }

        // Valid backward dependencies only, for the dataflow rules.
        let back_deps = || node.deps.iter().copied().filter(|&d| d < id);

        // ---- dataflow & resources, per kernel ---------------------------
        match &node.kernel {
            Kernel::Ntt { log_n, batch, variant, .. } => {
                if *log_n > MAX_NTT_LOG2 {
                    push(
                        Rule::NttExceedsTwoAdicity,
                        id,
                        format!(
                            "({label}) size 2^{log_n} exceeds the Goldilocks two-adicity \
                             2^{MAX_NTT_LOG2}; the twiddle generator cannot form its root of unity"
                        ),
                    );
                }
                if *batch == 0 || *log_n == 0 {
                    push(
                        Rule::EmptyKernel,
                        id,
                        format!("({label}) log_n={log_n}, batch={batch}: no work"),
                    );
                }
                // Double-buffered stage buffers of the decomposed NTT: two
                // small-transform tiles (fill + drain) per pipeline chain.
                let chains = (chip.num_vsas * chip.vsa_dim) as u64;
                let staging = chains * 2 * (1u64 << chip.ntt_pipeline_log2) * 8;
                if staging > chip.scratchpad_bytes as u64 {
                    push(
                        Rule::InfeasibleStaging,
                        id,
                        format!(
                            "({label}) decomposed-NTT staging needs {staging} B \
                             ({chains} chains x 2 x 2^{} x 8 B) but the scratchpad holds {} B",
                            chip.ntt_pipeline_log2, chip.scratchpad_bytes
                        ),
                    );
                }
                for d in back_deps() {
                    if let Kernel::Ntt {
                        log_n: p_log_n,
                        batch: p_batch,
                        variant: p_variant,
                        ..
                    } = &nodes[d].kernel
                    {
                        if p_variant.output_bit_reversed() {
                            push(
                                Rule::NttOrderMismatch,
                                id,
                                format!(
                                    "({label}) consumes node {d}'s {p_variant:?} output, which is \
                                     bit-reversed; {variant:?} expects natural input order"
                                ),
                            );
                        }
                        let consumer_elems = (*batch as u64) << (*log_n).min(63);
                        let producer_elems = (*p_batch as u64) << (*p_log_n).min(63);
                        if consumer_elems < producer_elems {
                            push(
                                Rule::LdeShrinks,
                                id,
                                format!(
                                    "({label}) covers {consumer_elems} elements but its NTT \
                                     producer (node {d}) made {producer_elems}: an LDE edge \
                                     never discards data"
                                ),
                            );
                        }
                    }
                }
            }
            Kernel::MerkleTree { num_leaves, leaf_len } => {
                if !num_leaves.is_power_of_two() || *num_leaves < 2 || *leaf_len == 0 {
                    push(
                        Rule::MerkleShape,
                        id,
                        format!(
                            "({label}) num_leaves={num_leaves}, leaf_len={leaf_len}: the §5.3 \
                             mapping needs a full binary tree over nonempty leaves"
                        ),
                    );
                }
                for d in back_deps() {
                    if let Kernel::Transpose { rows, cols } = &nodes[d].kernel {
                        if num_leaves != cols || leaf_len != rows {
                            push(
                                Rule::LeafGatherMismatch,
                                id,
                                format!(
                                    "({label}) commits {num_leaves} leaves of {leaf_len} elements \
                                     but its leaf-gather transpose (node {d}) produced a \
                                     {cols}x{rows} layout"
                                ),
                            );
                        }
                    }
                }
            }
            Kernel::Sponge { num_perms, .. } => {
                if *num_perms == 0 {
                    push(Rule::EmptyKernel, id, format!("({label}) runs zero permutations"));
                }
            }
            Kernel::PolyOp { ops, reuse } => {
                if *ops == 0 {
                    push(Rule::EmptyKernel, id, format!("({label}) performs zero operations"));
                }
                if reuse.ideal_bytes > reuse.streaming_bytes
                    || reuse.working_set_bytes > reuse.streaming_bytes
                {
                    push(
                        Rule::ReuseInconsistent,
                        id,
                        format!(
                            "({label}) reuse declares ideal={} working_set={} beyond \
                             streaming={} bytes: the tiling analysis can only reduce traffic",
                            reuse.ideal_bytes, reuse.working_set_bytes, reuse.streaming_bytes
                        ),
                    );
                } else if reuse.ideal_bytes < reuse.streaming_bytes
                    && reuse.working_set_bytes > (chip.scratchpad_bytes / 2) as u64
                {
                    push(
                        Rule::ScratchpadOvercommit,
                        id,
                        format!(
                            "({label}) claims reuse with a {} B working set, but the \
                             double-buffered half-scratchpad holds {} B: traffic degrades \
                             toward streaming",
                            reuse.working_set_bytes,
                            chip.scratchpad_bytes / 2
                        ),
                    );
                }
            }
            Kernel::GateEval { ops, bytes, run_bytes } => {
                if *ops == 0 || *bytes == 0 {
                    push(
                        Rule::EmptyKernel,
                        id,
                        format!("({label}) ops={ops}, bytes={bytes}: no work"),
                    );
                }
                if u64::from(*run_bytes) > *bytes && *bytes > 0 {
                    push(
                        Rule::ReuseInconsistent,
                        id,
                        format!(
                            "({label}) run length {run_bytes} B exceeds total traffic {bytes} B"
                        ),
                    );
                }
            }
            Kernel::PartialProducts { len } => {
                if *len == 0 {
                    push(Rule::EmptyKernel, id, format!("({label}) empty quotient vector"));
                }
            }
            Kernel::Transpose { rows, cols } => {
                if rows.saturating_mul(*cols) == 0 {
                    push(Rule::EmptyKernel, id, format!("({label}) {rows}x{cols} matrix"));
                }
                for d in back_deps() {
                    if let Kernel::Ntt { log_n, batch, .. } = &nodes[d].kernel {
                        let moved = rows.saturating_mul(*cols) as u64;
                        let produced = (*batch as u64) << (*log_n).min(63);
                        if moved != produced {
                            push(
                                Rule::BytesConservation,
                                id,
                                format!(
                                    "({label}) streams {moved} elements but its NTT producer \
                                     (node {d}) wrote {produced}: the transpose must move \
                                     exactly what was made"
                                ),
                            );
                        }
                    }
                }
                // Zero-cost assumption (§7.1): the transpose must hide
                // behind an adjacent costed kernel. Compare its buffer
                // busy time against the best neighbour at peak bandwidth.
                let b = chip.transpose_b as u64;
                let tiles =
                    (rows.div_ceil(chip.transpose_b) * cols.div_ceil(chip.transpose_b)) as u64;
                // Fill/drain double-buffered across the banks (the
                // functional model in `vsa::transpose_buffer` uses 8).
                let busy = tiles * b / 8 + b;
                let best_neighbour = back_deps()
                    .map(node_cycles)
                    .chain(last_consumer[id].map(node_cycles))
                    .max()
                    .unwrap_or(0);
                if busy > best_neighbour {
                    push(
                        Rule::TransposeNotHidden,
                        id,
                        format!(
                            "({label}) needs {busy} buffer cycles but its longest neighbour \
                             runs {best_neighbour}: the zero-cost transpose assumption fails"
                        ),
                    );
                }
            }
        }

        // ---- liveness ---------------------------------------------------
        if let Some(last) = last_consumer[id] {
            let held = last - id;
            if held > LIVENESS_WINDOW {
                push(
                    Rule::BufferHeldPastLastRead,
                    id,
                    format!(
                        "({label}) output is last read by node {last}, {held} schedule positions \
                         later: the vector stays HBM-resident across {held} kernel phases"
                    ),
                );
            }
        }
    }

    // ---- graph-level cost rules (C02–C04) -------------------------------
    let env = cost_envelope(graph, chip);
    let mut push_graph = |rule: Rule, message: String| {
        diags.push(Diagnostic { rule, severity: rule.severity(), node: None, message });
    };

    if len > 0 && env.total_upper() == 0 {
        push_graph(
            Rule::ZeroCostSchedule,
            format!(
                "{len} node(s) but a zero static cycle upper bound: the whole schedule \
                 simulates as free"
            ),
        );
    }

    // C03: count the costed nodes (nonzero modeled time) that are
    // memory-bound even if HBM ran at 100% efficiency.
    let peak = chip.hbm.peak_bytes_per_cycle();
    let (mut costed, mut starved) = (0usize, 0usize);
    for node in nodes {
        let cost = map_kernel(&node.kernel, chip);
        let bytes = cost.total_bytes();
        if cost.compute_cycles + cost.fill_cycles == 0 && bytes == 0 {
            continue;
        }
        costed += 1;
        #[allow(clippy::cast_possible_truncation)] // C01 bounds the domain
        let mem_floor = if bytes == 0 { 0 } else { ((bytes as f64) / peak).ceil() as u64 };
        if mem_floor > cost.compute_cycles {
            starved += 1;
        }
    }
    if costed >= BANDWIDTH_STARVED_MIN_NODES
        && starved * 100 >= costed * BANDWIDTH_STARVED_PERCENT
    {
        push_graph(
            Rule::BandwidthStarvedSchedule,
            format!(
                "{starved} of {costed} costed kernels are memory-bound even at peak \
                 bandwidth: the mapping cannot feed the VSAs"
            ),
        );
    }

    let live_budget = LIVENESS_SCRATCHPAD_FACTOR * chip.scratchpad_bytes as u64;
    if env.peak_live_bytes > live_budget {
        push_graph(
            Rule::LivenessExceedsScratchpad,
            format!(
                "peak live bytes {} exceed {LIVENESS_SCRATCHPAD_FACTOR}x the scratchpad \
                 ({live_budget} B): every inter-kernel value streams through HBM",
                env.peak_live_bytes
            ),
        );
    }

    diags
}

/// A multi-chip proving plan: `shards` per-shard schedules (one chip
/// each) plus the aggregation schedule that absorbs their payloads, as
/// produced by the fleet simulator's shard planner.
///
/// The M-rules verify the *relationship* between the member graphs; each
/// member graph is still a single-chip schedule that must pass [`check`]
/// on its own.
#[derive(Clone, Debug)]
pub struct MultiChipSchedule<'a> {
    /// One compiled schedule per shard, in shard order.
    pub shards: Vec<&'a Graph>,
    /// The aggregation schedule (absorb every shard payload, prove the
    /// aggregate). `None` for the degenerate single-shard plan, where the
    /// shard proof *is* the proof.
    pub aggregation: Option<&'a Graph>,
    /// Modeled bytes each shard ships to the aggregating chip (commitment
    /// caps + opening proof). Charged against the interconnect model.
    pub payload_bytes_per_shard: u64,
}

/// Verifies the cross-chip invariants of a [`MultiChipSchedule`] (rules
/// M01–M03). Member graphs are **not** re-checked here — run [`check`] on
/// each of them; the fleet simulator and the lint CLI both do.
///
/// Returned diagnostics anchor to shard indices (M01) or to no node
/// (M02/M03, plan-level findings).
pub fn check_multi(sched: &MultiChipSchedule<'_>, _chip: &ChipConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut push = |rule: Rule, node: Option<NodeId>, message: String| {
        diags.push(Diagnostic {
            rule,
            severity: rule.severity(),
            node,
            message,
        });
    };

    // M01: every shard proves a same-shape slice of one trace, so the
    // compiled schedules must be node-for-node identical (kernels and
    // dependency lists; labels are presentation and may differ).
    if let Some((first, rest)) = sched.shards.split_first() {
        for (i, shard) in rest.iter().enumerate() {
            let idx = i + 1;
            if shard.len() != first.len() {
                push(
                    Rule::ShardScheduleDivergent,
                    Some(idx),
                    format!(
                        "shard {idx} schedules {} nodes but shard 0 schedules {}: shards must \
                         prove identically-shaped sub-traces",
                        shard.len(),
                        first.len()
                    ),
                );
                continue;
            }
            let divergent = first
                .nodes()
                .iter()
                .zip(shard.nodes())
                .position(|(a, b)| a.kernel != b.kernel || a.deps != b.deps);
            if let Some(n) = divergent {
                push(
                    Rule::ShardScheduleDivergent,
                    Some(idx),
                    format!(
                        "shard {idx} diverges from shard 0 at node {n} ({}): shards must prove \
                         identically-shaped sub-traces",
                        first.nodes()[n].label
                    ),
                );
            }
        }
    }

    // M02: the aggregation stage exists iff the plan actually shards, and
    // absorbs exactly one payload per shard. Payload absorbs are the
    // aggregation graph's source nodes (empty dependency lists): each
    // shard's bytes arrive independently over the interconnect.
    let shards = sched.shards.len();
    match sched.aggregation {
        None if shards > 1 => push(
            Rule::AggregationArityMismatch,
            None,
            format!("{shards} shard proofs but no aggregation schedule to combine them"),
        ),
        Some(_) if shards <= 1 => push(
            Rule::AggregationArityMismatch,
            None,
            format!(
                "aggregation schedule present for a {shards}-shard plan: a single shard's proof \
                 is already the proof"
            ),
        ),
        Some(agg) => {
            let absorbs = agg.nodes().iter().filter(|n| n.deps.is_empty()).count();
            if absorbs != shards {
                push(
                    Rule::AggregationArityMismatch,
                    None,
                    format!(
                        "aggregation schedule has {absorbs} payload absorb(s) (source nodes) \
                         for {shards} shard(s)"
                    ),
                );
            }
        }
        None => {}
    }

    // M03: a multi-shard plan that ships zero bytes per shard makes the
    // interconnect free — almost certainly an unmodeled cost, not a real
    // design point.
    if shards > 1 && sched.payload_bytes_per_shard == 0 {
        push(
            Rule::InterconnectPayloadMissing,
            None,
            format!(
                "{shards}-shard plan declares 0 payload bytes per shard: aggregation traffic \
                 is not charged against the interconnect"
            ),
        );
    }

    diags
}

/// Panics with the rendered error list if the plan fails [`check_multi`]
/// or any member graph fails [`check`] against `chip`. The fleet
/// simulator calls this under `debug_assertions`.
pub fn assert_multi_verified(sched: &MultiChipSchedule<'_>, chip: &ChipConfig) {
    for (i, shard) in sched.shards.iter().enumerate() {
        let diags = check(shard, chip);
        let errors: Vec<&Diagnostic> = diags.iter().filter(|d| d.is_error()).collect();
        assert!(
            errors.is_empty(),
            "shard {i} schedule failed static verification with {} error(s):\n{}",
            errors.len(),
            errors.iter().map(|d| d.render() + "\n").collect::<String>()
        );
    }
    if let Some(agg) = sched.aggregation {
        assert_verified(agg, chip);
    }
    let diags = check_multi(sched, chip);
    let errors: Vec<&Diagnostic> = diags.iter().filter(|d| d.is_error()).collect();
    assert!(
        errors.is_empty(),
        "multi-chip plan failed static verification with {} error(s):\n{}",
        errors.len(),
        errors.iter().map(|d| d.render() + "\n").collect::<String>()
    );
}

/// Panics with the rendered error list if `graph` fails verification
/// against `chip`. The simulator calls this under `debug_assertions`.
pub fn assert_verified(graph: &Graph, chip: &ChipConfig) {
    let diags = check(graph, chip);
    let errors: Vec<&Diagnostic> = diags.iter().filter(|d| d.is_error()).collect();
    assert!(
        errors.is_empty(),
        "schedule failed static verification with {} error(s):\n{}",
        errors.len(),
        errors.iter().map(|d| d.render() + "\n").collect::<String>()
    );
}

/// Cryptographic protocol parameters for the P-rule checker: one flat
/// record a caller assembles from its `FriConfig`/`StarkConfig`/shard plan
/// (this crate models hardware, not protocols, so it cannot depend on
/// those crates — the fields mirror them instead, the same way
/// [`MultiChipSchedule`] mirrors the fleet planner's output).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolParams {
    /// `log2` of the trace height.
    pub log_rows: usize,
    /// `log2` of the LDE blowup factor.
    pub rate_bits: usize,
    /// FRI query rounds.
    pub num_queries: usize,
    /// Leading-zero bits demanded of the 64-bit grinding challenge.
    pub proof_of_work_bits: usize,
    /// Coefficients at which FRI folding stops.
    pub final_poly_len: usize,
    /// Independent constraint-combination challenge rounds.
    pub num_challenges: usize,
    /// Conjectured security bits the deployment demands.
    pub target_security_bits: usize,
    /// Shards the workload is split across (1 = unsharded).
    pub shards: usize,
    /// Payloads the aggregation stage absorbs (0 = no aggregation stage).
    pub aggregation_arity: usize,
    /// Bits of entropy one base-field element carries (64 for Goldilocks,
    /// 31 for KoalaBear). Caps challenge-derived soundness and the grind.
    pub field_bits: usize,
    /// Degree of the challenge extension field (2 for Goldilocks/`Ext2`,
    /// 4 for KoalaBear/`KbExt4`).
    pub extension_degree: usize,
    /// The base field's two-adicity: the largest power-of-two subgroup,
    /// and hence the largest possible LDE domain (32 for Goldilocks, 24
    /// for KoalaBear).
    pub two_adicity: usize,
}

impl ProtocolParams {
    /// The query-path heuristic: one `rate_bits` of security per query
    /// plus the grinding bits.
    pub fn query_security_bits(&self) -> usize {
        self.num_queries * self.rate_bits + self.proof_of_work_bits
    }

    /// The extension-aware conjectured security: the query-path bits
    /// capped by the Schwartz–Zippel entropy of the challenge extension
    /// (`field_bits · extension_degree`) and of the combination rounds
    /// (`field_bits · num_challenges`). Over Goldilocks both caps sit at
    /// 128 bits and the query path binds, as in the original heuristic; a
    /// 31-bit field needs a quartic extension and 4 challenge rounds to
    /// keep a 100-bit target reachable.
    pub fn conjectured_security_bits(&self) -> usize {
        self.query_security_bits()
            .min(self.field_bits * self.extension_degree)
            .min(self.field_bits * self.num_challenges)
    }
}

/// Runs the P-rules over one protocol's parameters. Diagnostics are
/// plan-level (no node anchor); an empty result means the parameters are
/// sound under the conjectured-security heuristic.
pub fn check_params(p: &ProtocolParams) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut push = |rule: Rule, message: String| {
        diags.push(Diagnostic { rule, severity: rule.severity(), node: None, message });
    };

    // P01: the conjectured-security ledger must balance.
    if p.num_challenges == 0 {
        push(
            Rule::InsufficientSecurityBits,
            "zero constraint-combination challenge rounds: the quotient identity is never \
             bound to the trace"
                .into(),
        );
    }
    let query_bits = p.query_security_bits();
    let ext_bits = p.field_bits * p.extension_degree;
    let chal_bits = p.field_bits * p.num_challenges;
    let bits = p.conjectured_security_bits();
    if bits < p.target_security_bits {
        if query_bits <= ext_bits && query_bits <= chal_bits {
            push(
                Rule::InsufficientSecurityBits,
                format!(
                    "{} queries x {} rate bits + {} pow bits = {bits} conjectured security bits, \
                     short of the {}-bit target",
                    p.num_queries, p.rate_bits, p.proof_of_work_bits, p.target_security_bits
                ),
            );
        } else if ext_bits <= chal_bits {
            push(
                Rule::InsufficientSecurityBits,
                format!(
                    "degree-{} extension of a {}-bit field caps challenge entropy at \
                     {ext_bits} bits, short of the {}-bit target",
                    p.extension_degree, p.field_bits, p.target_security_bits
                ),
            );
        } else {
            push(
                Rule::InsufficientSecurityBits,
                format!(
                    "{} combination rounds of {}-bit challenges cap soundness at {chal_bits} \
                     bits, short of the {}-bit target",
                    p.num_challenges, p.field_bits, p.target_security_bits
                ),
            );
        }
    }

    // P02: the LDE domain must have a root of unity in the base field.
    if p.log_rows + p.rate_bits > p.two_adicity {
        push(
            Rule::LdeExceedsTwoAdicity,
            format!(
                "LDE domain 2^{} (log_rows {} + rate_bits {}) exceeds the field's \
                 two-adicity 2^{}: no root of unity exists for the blowup",
                p.log_rows + p.rate_bits,
                p.log_rows,
                p.rate_bits,
                p.two_adicity
            ),
        );
    }

    // P03: folding must terminate on a sensible final polynomial.
    let trace_len = 1usize << p.log_rows.min(63);
    if p.final_poly_len == 0 || !p.final_poly_len.is_power_of_two() || p.final_poly_len >= trace_len
    {
        push(
            Rule::FinalPolyInconsistent,
            format!(
                "final_poly_len {} against a 2^{}-row trace: folding must stop on a nonempty \
                 power-of-two polynomial smaller than the trace",
                p.final_poly_len, p.log_rows
            ),
        );
    }

    // P04: the grind must be satisfiable.
    if p.proof_of_work_bits >= p.field_bits {
        push(
            Rule::ExcessiveGrind,
            format!(
                "{} proof-of-work bits: a {}-bit grinding challenge cannot show that many \
                 leading zeros",
                p.proof_of_work_bits, p.field_bits
            ),
        );
    }

    // P05: the shard plan and the aggregation stage must agree.
    if p.shards == 0 || !p.shards.is_power_of_two() {
        push(
            Rule::ShardAggregationIncompatible,
            format!("shards = {}: the trace is halved per split, so shard counts are nonzero \
                     powers of two", p.shards),
        );
    } else if p.shards > 1 && p.aggregation_arity != p.shards {
        push(
            Rule::ShardAggregationIncompatible,
            format!(
                "{} shards but an aggregation stage absorbing {} payload(s): every shard \
                 proof must be absorbed exactly once",
                p.shards, p.aggregation_arity
            ),
        );
    } else if p.shards == 1 && p.aggregation_arity != 0 {
        push(
            Rule::ShardAggregationIncompatible,
            format!(
                "single-shard plan with an aggregation stage absorbing {} payload(s): the \
                 shard proof is already the proof",
                p.aggregation_arity
            ),
        );
    }

    diags
}

/// Panics with the rendered error list if `params` fail [`check_params`].
/// `stark::prove` and the serving pipeline gate on this.
pub fn assert_params_valid(params: &ProtocolParams) {
    let diags = check_params(params);
    let errors: Vec<&Diagnostic> = diags.iter().filter(|d| d.is_error()).collect();
    assert!(
        errors.is_empty(),
        "protocol parameters failed static verification with {} error(s):\n{}",
        errors.len(),
        errors.iter().map(|d| d.render() + "\n").collect::<String>()
    );
}

impl NttVariant {
    /// Whether this variant emits its output in bit-reversed order (the
    /// `NR` transforms of §5.1). Every variant consumes natural order.
    pub fn output_bit_reversed(&self) -> bool {
        matches!(self, NttVariant::ForwardNr | NttVariant::CosetForwardNr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile_plonky2, compile_starky, Plonky2Instance, StarkyInstance};
    use crate::graph::Node;
    use crate::kernels::Layout;

    fn chip() -> ChipConfig {
        ChipConfig::default_chip()
    }

    #[test]
    fn compiled_graphs_are_error_free() {
        for rows in [10usize, 12, 14] {
            let g = compile_plonky2(&Plonky2Instance::new(1 << rows, 135));
            let diags = check(&g, &chip());
            assert_eq!(error_count(&diags), 0, "plonky2 2^{rows}:\n{}", render_all(&diags));
        }
        let g = compile_starky(&StarkyInstance::new(1 << 12, 16, 8));
        let diags = check(&g, &chip());
        assert_eq!(error_count(&diags), 0, "starky:\n{}", render_all(&diags));
    }

    #[test]
    fn rule_ids_are_unique_and_stable() {
        let mut ids: Vec<&str> = Rule::ALL.iter().map(Rule::id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Rule::ALL.len(), "duplicate rule id");
        assert_eq!(Rule::DepOutOfRange.id(), "S01");
        assert_eq!(Rule::BufferHeldPastLastRead.id(), "L01");
    }

    #[test]
    fn forward_dep_is_a_cycle() {
        let g = Graph::from_nodes_unchecked(vec![
            Node {
                kernel: Kernel::Sponge { num_perms: 1, parallel: false },
                deps: vec![1],
                label: "a".into(),
            },
            Node {
                kernel: Kernel::Sponge { num_perms: 1, parallel: false },
                deps: vec![0],
                label: "b".into(),
            },
        ]);
        let diags = check(&g, &chip());
        assert!(diags.iter().any(|d| d.rule == Rule::DepNotTopological), "{}", render_all(&diags));
    }

    #[test]
    fn dangling_dep_is_out_of_range() {
        let g = Graph::from_nodes_unchecked(vec![Node {
            kernel: Kernel::Sponge { num_perms: 1, parallel: false },
            deps: vec![9],
            label: "a".into(),
        }]);
        let diags = check(&g, &chip());
        assert!(diags.iter().any(|d| d.rule == Rule::DepOutOfRange));
    }

    #[test]
    fn assert_verified_panics_on_errors() {
        let g = Graph::from_nodes_unchecked(vec![Node {
            kernel: Kernel::Sponge { num_perms: 1, parallel: false },
            deps: vec![9],
            label: "a".into(),
        }]);
        let result = std::panic::catch_unwind(|| assert_verified(&g, &chip()));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("S01"), "{msg}");
    }

    #[test]
    fn warnings_do_not_trip_the_assertion() {
        let mut g = Graph::new();
        g.push(Kernel::Sponge { num_perms: 0, parallel: false }, vec![], "empty");
        assert_verified(&g, &chip()); // D07 is a warning
        assert_eq!(error_count(&check(&g, &chip())), 0);
        assert!(check(&g, &chip()).iter().any(|d| d.rule == Rule::EmptyKernel));
    }

    fn sponge_graph(absorbs: usize) -> Graph {
        // `absorbs` source sponges feeding one combining sponge — the
        // minimal aggregation-shaped graph.
        let mut g = Graph::new();
        let roots: Vec<NodeId> = (0..absorbs)
            .map(|i| {
                g.push(
                    Kernel::Sponge { num_perms: 4, parallel: true },
                    vec![],
                    format!("absorb {i}"),
                )
            })
            .collect();
        g.push(Kernel::Sponge { num_perms: 2, parallel: false }, roots, "combine");
        g
    }

    #[test]
    fn identical_shards_pass_multi_check() {
        let shard = compile_plonky2(&Plonky2Instance::new(1 << 10, 135));
        let agg = sponge_graph(2);
        let sched = MultiChipSchedule {
            shards: vec![&shard, &shard],
            aggregation: Some(&agg),
            payload_bytes_per_shard: 4096,
        };
        let diags = check_multi(&sched, &chip());
        assert!(diags.is_empty(), "{}", render_all(&diags));
        assert_multi_verified(&sched, &chip());
    }

    #[test]
    fn divergent_shard_fires_m01() {
        let a = compile_plonky2(&Plonky2Instance::new(1 << 10, 135));
        let b = compile_plonky2(&Plonky2Instance::new(1 << 11, 135));
        let agg = sponge_graph(2);
        let sched = MultiChipSchedule {
            shards: vec![&a, &b],
            aggregation: Some(&agg),
            payload_bytes_per_shard: 4096,
        };
        let diags = check_multi(&sched, &chip());
        assert!(
            diags.iter().any(|d| d.rule == Rule::ShardScheduleDivergent),
            "{}",
            render_all(&diags)
        );
    }

    #[test]
    fn aggregation_arity_fires_m02() {
        let shard = compile_plonky2(&Plonky2Instance::new(1 << 10, 135));
        let chip = chip();

        // Missing aggregation for a 2-shard plan.
        let sched = MultiChipSchedule {
            shards: vec![&shard, &shard],
            aggregation: None,
            payload_bytes_per_shard: 4096,
        };
        assert!(check_multi(&sched, &chip)
            .iter()
            .any(|d| d.rule == Rule::AggregationArityMismatch));

        // Wrong absorb arity: 3 sources for 2 shards.
        let agg = sponge_graph(3);
        let sched = MultiChipSchedule {
            shards: vec![&shard, &shard],
            aggregation: Some(&agg),
            payload_bytes_per_shard: 4096,
        };
        assert!(check_multi(&sched, &chip)
            .iter()
            .any(|d| d.rule == Rule::AggregationArityMismatch));

        // Superfluous aggregation for a single-shard plan.
        let agg1 = sponge_graph(1);
        let sched = MultiChipSchedule {
            shards: vec![&shard],
            aggregation: Some(&agg1),
            payload_bytes_per_shard: 0,
        };
        assert!(check_multi(&sched, &chip)
            .iter()
            .any(|d| d.rule == Rule::AggregationArityMismatch));
    }

    #[test]
    fn zero_payload_warns_m03_but_verifies() {
        let shard = compile_plonky2(&Plonky2Instance::new(1 << 10, 135));
        let agg = sponge_graph(2);
        let sched = MultiChipSchedule {
            shards: vec![&shard, &shard],
            aggregation: Some(&agg),
            payload_bytes_per_shard: 0,
        };
        let diags = check_multi(&sched, &chip());
        let m03: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.rule == Rule::InterconnectPayloadMissing)
            .collect();
        assert_eq!(m03.len(), 1);
        assert!(!m03[0].is_error());
        assert_multi_verified(&sched, &chip()); // warning only
    }

    #[test]
    fn single_shard_plan_needs_no_aggregation() {
        let shard = compile_plonky2(&Plonky2Instance::new(1 << 10, 135));
        let sched = MultiChipSchedule {
            shards: vec![&shard],
            aggregation: None,
            payload_bytes_per_shard: 0,
        };
        assert!(check_multi(&sched, &chip()).is_empty());
        assert_multi_verified(&sched, &chip());
    }

    #[test]
    fn oversized_ntt_is_rejected() {
        let mut g = Graph::new();
        g.push(
            Kernel::Ntt {
                log_n: MAX_NTT_LOG2 + 1,
                batch: 1,
                variant: NttVariant::ForwardNn,
                layout: Layout::PolyMajor,
            },
            vec![],
            "huge",
        );
        let diags = check(&g, &chip());
        assert!(diags.iter().any(|d| d.rule == Rule::NttExceedsTwoAdicity));
    }

    // ---- cost envelope & C-rules ----------------------------------------

    use crate::kernels::Reuse;

    #[test]
    fn envelope_brackets_are_ordered_and_traffic_positive() {
        let g = compile_plonky2(&Plonky2Instance::new(1 << 12, 135));
        let env = cost_envelope(&g, &chip());
        assert!(env.total_lower() > 0);
        assert!(env.total_lower() <= env.total_upper());
        for tag in CLASS_ORDER {
            let c = env.class(tag);
            assert!(c.cycles_lower <= c.cycles_upper, "{}", tag.name());
        }
        assert!(env.total_traffic_bytes() > 0);
        assert!(env.peak_live_bytes > 0);
        let nodes: usize = env.classes.iter().map(|c| c.nodes).sum();
        assert_eq!(nodes, g.len());
    }

    fn traffic_poly_op(bytes: u64) -> Kernel {
        Kernel::PolyOp {
            ops: 1,
            reuse: Reuse {
                ideal_bytes: bytes,
                working_set_bytes: 64,
                streaming_bytes: bytes,
            },
        }
    }

    #[test]
    fn cost_model_overflow_fires_c01() {
        let mut g = Graph::new();
        g.push(traffic_poly_op(1 << 60), vec![], "absurd traffic");
        let diags = check(&g, &chip());
        let hit = diags.iter().find(|d| d.rule == Rule::CostModelOverflow).unwrap();
        assert!(hit.is_error());
    }

    #[test]
    fn zero_cost_schedule_fires_c02() {
        let mut g = Graph::new();
        g.push(Kernel::Transpose { rows: 8, cols: 8 }, vec![], "lone transpose");
        let diags = check(&g, &chip());
        let hit = diags.iter().find(|d| d.rule == Rule::ZeroCostSchedule).unwrap();
        assert!(!hit.is_error());
        assert!(hit.node.is_none());
    }

    #[test]
    fn bandwidth_starved_schedule_fires_c03() {
        // Four kernels, each one op but megabytes of traffic: every node
        // is memory-bound even at peak bandwidth.
        let mut g = Graph::new();
        let mut prev = g.push(traffic_poly_op(1 << 24), vec![], "starved 0");
        for i in 1..4 {
            prev = g.push(traffic_poly_op(1 << 24), vec![prev], format!("starved {i}"));
        }
        let diags = check(&g, &chip());
        assert!(
            diags.iter().any(|d| d.rule == Rule::BandwidthStarvedSchedule),
            "{}",
            render_all(&diags)
        );
        // Real schedules are hash-compute dominated and must stay clean.
        let real = compile_plonky2(&Plonky2Instance::new(1 << 12, 135));
        assert!(!check(&real, &chip())
            .iter()
            .any(|d| d.rule == Rule::BandwidthStarvedSchedule));
    }

    #[test]
    fn liveness_exceeding_hbm_fires_c04() {
        // One producer writing ~16 TiB (beyond 4096 pads), read much later.
        let mut g = Graph::new();
        let producer = g.push(traffic_poly_op(1 << 44), vec![], "huge producer");
        g.push(Kernel::Sponge { num_perms: 4, parallel: false }, vec![producer], "consumer");
        let diags = check(&g, &chip());
        assert!(
            diags.iter().any(|d| d.rule == Rule::LivenessExceedsScratchpad),
            "{}",
            render_all(&diags)
        );
    }

    // ---- P-rules ---------------------------------------------------------

    fn sound_params() -> ProtocolParams {
        // Plonky2's standard configuration at 2^12 rows.
        ProtocolParams {
            log_rows: 12,
            rate_bits: 3,
            num_queries: 28,
            proof_of_work_bits: 16,
            final_poly_len: 8,
            num_challenges: 2,
            target_security_bits: 100,
            shards: 1,
            aggregation_arity: 0,
            field_bits: 64,
            extension_degree: 2,
            two_adicity: 32,
        }
    }

    #[test]
    fn sound_params_are_clean() {
        assert!(check_params(&sound_params()).is_empty());
        assert_params_valid(&sound_params());

        let sharded = ProtocolParams { shards: 4, aggregation_arity: 4, ..sound_params() };
        assert!(check_params(&sharded).is_empty());
    }

    #[test]
    fn security_shortfall_fires_p01_exactly_at_the_boundary() {
        // 28·3 + 16 = 100: exactly on target passes; one query fewer fails.
        let at = sound_params();
        assert_eq!(at.conjectured_security_bits(), 100);
        assert!(check_params(&at).is_empty());

        let short = ProtocolParams { num_queries: 27, ..sound_params() };
        let diags = check_params(&short);
        assert!(diags.iter().any(|d| d.rule == Rule::InsufficientSecurityBits));
        assert!(diags.iter().all(Diagnostic::is_error));

        let unchallenged = ProtocolParams { num_challenges: 0, ..sound_params() };
        assert!(check_params(&unchallenged)
            .iter()
            .any(|d| d.rule == Rule::InsufficientSecurityBits));
    }

    #[test]
    fn lde_overflow_fires_p02() {
        let p = ProtocolParams { log_rows: 30, rate_bits: 3, ..sound_params() };
        assert!(check_params(&p).iter().any(|d| d.rule == Rule::LdeExceedsTwoAdicity));
        let fits = ProtocolParams { log_rows: 29, rate_bits: 3, ..sound_params() };
        assert!(!check_params(&fits)
            .iter()
            .any(|d| d.rule == Rule::LdeExceedsTwoAdicity));
    }

    #[test]
    fn final_poly_shapes_fire_p03() {
        for (final_poly_len, log_rows) in [(0usize, 12usize), (6, 12), (1 << 12, 12), (8, 2)] {
            let p = ProtocolParams { final_poly_len, log_rows, ..sound_params() };
            assert!(
                check_params(&p).iter().any(|d| d.rule == Rule::FinalPolyInconsistent),
                "final_poly_len={final_poly_len} log_rows={log_rows}"
            );
        }
    }

    #[test]
    fn unsatisfiable_grind_fires_p04() {
        let p = ProtocolParams {
            proof_of_work_bits: 64,
            num_queries: 100,
            ..sound_params()
        };
        assert!(check_params(&p).iter().any(|d| d.rule == Rule::ExcessiveGrind));
    }

    #[test]
    fn shard_plan_mismatches_fire_p05() {
        for (shards, arity) in [(0usize, 0usize), (3, 3), (4, 3), (1, 1)] {
            let p = ProtocolParams { shards, aggregation_arity: arity, ..sound_params() };
            assert!(
                check_params(&p).iter().any(|d| d.rule == Rule::ShardAggregationIncompatible),
                "shards={shards} arity={arity}"
            );
        }
    }

    #[test]
    fn assert_params_valid_panics_with_rule_id() {
        let p = ProtocolParams { num_queries: 1, ..sound_params() };
        let result = std::panic::catch_unwind(|| assert_params_valid(&p));
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("P01"), "{msg}");
    }
}
