//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! table serialized (`--print-manifest`); a unit test keeps the two equal.

use unizk_testkit::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it is in the benchmark.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// An end-to-end metric: reported by every workload with `--trace 0`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// A per-layer metric: reported by every workload with `--trace 1`; reads
/// 0 on a workload whose traced pass does not exercise that layer.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count that two runs of the same code on the same seed must
    /// reproduce exactly.
    pub exact: bool,
}

/// Bound of a metric that must not get worse at all: counts the program
/// makes, which repeat exactly (one part in 10^12 is below one unit of
/// any count reported here).
pub const EXACT: f64 = 1e-12;

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "stark_small_gl",
        why: "Starky Fibonacci 2^12x2, Goldilocks, 1 thread: small-proof latency, ~70% one PoW grind; the only row the grind kernel and challenger move. Continuity with BENCH_PROVER.json.",
    },
    Workload {
        name: "stark_narrow_gl",
        why: "Same AIR at 2^15x2, 1 thread: ~80% Merkle over narrow leaves, ~14% polynomial, ~1% grind; a Goldilocks Poseidon/Merkle gain shows here, a grind gain does not.",
    },
    Workload {
        name: "stark_narrow_gl_mt",
        why: "Identical input on all cores: intra-proof parallelism (field::par, NTT stage split, batched Merkle). A gain bought with threads, or a serial gain that costs scaling, diverges from stark_narrow_gl.",
    },
    Workload {
        name: "plonk_fib_gl",
        why: "Plonky2 Fibonacci 2^10 rows x 135 wires, blowup 8, 1 thread: the paper's protocol and the only Plonk CPU number; wide leaves (17 permutations each), ~25% polynomial, 6-9% NTT.",
    },
    Workload {
        name: "stark_narrow_kb",
        why: "Fibonacci 2^13x2 over KoalaBear, 1 thread: scalar Poseidon2 sponge, degree-4 extension, 4 challenge rounds. A KoalaBear-only change moves this row and no other.",
    },
    Workload {
        name: "serve_mix_gl",
        why: "Closed-loop batches of the baseline job mix through serve::Pipeline, one worker per core, pooled workspaces, seed-shuffled order: queue, pool and shared caches under load; throughput vs latency.",
    },
    Workload {
        name: "chip_sweep",
        why: "Six paper apps at full scale on the default chip, then a 360-point design sweep without cache: simulated cycles repeat exactly, host points/s is what users wait for. No prover code runs.",
    },
];

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "verify_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "output_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: EXACT,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_cycles_total",
        unit: "cycles",
        better: Better::Lower,
        bound: EXACT,
    },
];

const fn timing(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

pub const PER_LAYER: [Layer; 69] = [
    // field
    timing("field.gl_mul_ns", "ns"),
    timing("field.gl_batch_inv_ns_per_elem", "ns"),
    timing("field.ext2_mul_ns", "ns"),
    timing("field.kb_mul_ns", "ns"),
    timing("field.kbext4_mul_ns", "ns"),
    rate("field.par_efficiency", "ratio"),
    // ntt
    timing("ntt.gl_ns_per_butterfly", "ns"),
    timing("ntt.kb_ns_per_butterfly", "ns"),
    timing("ntt.gl_lde_ns_per_elem", "ns"),
    timing("ntt.transpose_ns_per_elem", "ns"),
    timing("ntt.twiddle_cold_ms", "ms"),
    rate("ntt.gl_mt_speedup", "ratio"),
    // hash
    timing("hash.poseidon_batch_ns_per_perm", "ns"),
    timing("hash.poseidon_scalar_ns_per_perm", "ns"),
    timing("hash.poseidon2_kb_ns_per_perm", "ns"),
    timing("hash.merkle_narrow_ns_per_leaf", "ns"),
    timing("hash.merkle_wide_ns_per_leaf", "ns"),
    timing("hash.merkle_kb_ns_per_leaf", "ns"),
    count("hash.merkle_wide_perms_per_leaf", "count"),
    timing("hash.merkle_open_verify_ns", "ns"),
    rate("hash.merkle_mt_speedup", "ratio"),
    // fri
    timing("fri.grind_ns_per_attempt", "ns"),
    count("fri.grind_attempts", "count"),
    timing("fri.commit_ns_per_leaf", "ns"),
    timing("fri.prove_ms", "ms"),
    timing("fri.verify_ms", "ms"),
    // stark / plonk: the crates' own spans and counters over one traced
    // repetition of the workload
    timing("trace.merkle_ms", "ms"),
    timing("trace.other_hash_ms", "ms"),
    timing("trace.ntt_ms", "ms"),
    timing("trace.poly_ms", "ms"),
    timing("trace.layout_ms", "ms"),
    rate("trace.coverage", "ratio"),
    count("trace.poseidon_perms", "count"),
    count("trace.ntt_butterflies", "count"),
    count("trace.merkle_leaves", "count"),
    timing("trace.ns_per_perm", "ns"),
    timing("trace.trace_commit_ms", "ms"),
    timing("trace.quotient_ms", "ms"),
    timing("trace.quotient_commit_ms", "ms"),
    timing("trace.fri_ms", "ms"),
    timing("trace.grind_ms", "ms"),
    timing("stark.serialize_roundtrip_us", "us"),
    timing("plonk.build_ms", "ms"),
    timing("plonk.witness_ms", "ms"),
    // serve
    rate("serve.inline_proofs_per_s", "1/s"),
    rate("serve.scaling_efficiency", "ratio"),
    rate("serve.pool_off_proofs_per_s", "1/s"),
    rate("serve.pool_hit_rate", "ratio"),
    rate("serve.worker_utilization_min", "ratio"),
    timing("serve.queue_wait_ms_p50", "ms"),
    // core / dram / analyze
    count("core.sim_cycles.factorial", "cycles"),
    count("core.sim_cycles.fibonacci", "cycles"),
    count("core.sim_cycles.ecdsa", "cycles"),
    count("core.sim_cycles.sha256", "cycles"),
    count("core.sim_cycles.image_crop", "cycles"),
    count("core.sim_cycles.mvm", "cycles"),
    count("core.hash_cycle_share", "ratio"),
    count("core.ntt_cycle_share", "ratio"),
    count("core.poly_cycle_share", "ratio"),
    timing("core.compile_us_per_graph", "us"),
    timing("core.sim_us_per_node", "us"),
    timing("dram.probe_us", "us"),
    timing("analyze.envelope_us_per_graph", "us"),
    count("analyze.envelope_slack", "ratio"),
    // explore / fleet
    rate("explore.points_per_s_cold", "1/s"),
    rate("explore.points_per_s_cached", "1/s"),
    timing("fleet.sim_us_per_job", "us"),
    count("fleet.makespan_cycles", "cycles"),
    // the benchmark itself
    timing("bench.trace_overhead_pct", "%"),
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `BENCHMARK.json`, as the driver reads it.
pub fn manifest() -> Json {
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]));
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
            ("bound", Json::from(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ])
    });
    Json::obj([
        (
            "command",
            Json::arr(["bash", "benchmark/run.sh"].map(Json::str)),
        ),
        ("paths", Json::arr([Json::str("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        ("workloads", Json::arr(workloads)),
        ("end_to_end", Json::arr(end_to_end)),
        ("per_layer", Json::arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalog_is_inside_the_contract_limits() {
        let mut names: Vec<&str> = Vec::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            names.push(w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            names.push(m.name);
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = unizk_testkit::json::parse(&text).expect("BENCHMARK.json parses");
        let expected = unizk_testkit::json::parse(&manifest().to_string()).expect("round trip");
        assert_eq!(
            committed, expected,
            "regenerate with `benchmark/run.sh --print-manifest`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
