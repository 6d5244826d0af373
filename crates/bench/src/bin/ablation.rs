//! Ablation studies for UniZK's design choices (beyond the paper's own
//! figures): the fixed NTT pipeline size (§5.1), the transpose buffer tile
//! size (§5.1 "Data layouts"), the partial-round grouping of the Poseidon
//! mapping (§5.2), and the permutation-argument chunk size (§5.4).
//!
//! Run with: `cargo run --release -p unizk-bench --bin ablation`

use unizk_bench::render::table;
use unizk_core::compiler::Plonky2Instance;
use unizk_core::kernels::{Kernel, Layout, NttVariant};
use unizk_core::mapping::map_kernel;
use unizk_core::ChipConfig;
use unizk_explore::{run_sweep, SweepOptions, SweepSpec};
use unizk_workloads::{App, Scale};

/// Runs one single-axis ablation sweep through the exploration engine
/// (serial, uncached — these grids are a handful of points each).
fn sweep(spec: &SweepSpec) -> unizk_explore::SweepResult {
    run_sweep(spec, &SweepOptions::default()).unwrap_or_else(|e| panic!("ablation sweep: {e}"))
}

fn main() {
    unizk_bench::no_args();
    let rows = 1 << 14;
    // Ablations 2 and 4 simulate Fibonacci-shaped Plonky2 instances
    // (135 wires) at 2^14 rows = two bits below paper scale.
    let scale = Scale::Shrunk(App::Fibonacci.full_log_rows() - 14);

    // 1. NTT pipeline size: larger fixed pipelines need fewer decomposed
    //    dimensions (fewer passes) but more register space per PE; the
    //    paper picks 2^5 per half-row.
    println!("Ablation 1: fixed NTT pipeline size (size-2^14 NTT, batch 135)\n");
    let mut cells = Vec::new();
    for log_small in [3usize, 4, 5, 6] {
        let mut chip = ChipConfig::default_chip();
        chip.ntt_pipeline_log2 = log_small;
        let cost = map_kernel(
            &Kernel::Ntt {
                log_n: 14,
                batch: 135,
                variant: NttVariant::ForwardNr,
                layout: Layout::PolyMajor,
            },
            &chip,
        );
        let regs_per_pe = 1 << log_small; // data-buffering bound (§5.1)
        cells.push(vec![
            format!("2^{log_small}"),
            format!("{}", cost.compute_cycles),
            format!("{}", cost.read_bytes + cost.write_bytes),
            format!("{regs_per_pe} x 64b"),
        ]);
    }
    println!(
        "{}",
        table(&["pipeline size", "compute cycles", "DRAM bytes", "PE registers"], &cells)
    );

    // 2. Transpose buffer tile b: bigger tiles make index-major NTT
    //    accesses longer runs (better DRAM efficiency) at b² buffer cost.
    println!("Ablation 2: transpose buffer tile size (index-major NTT)\n");
    let transpose = sweep(
        &SweepSpec::new("ablation-transpose")
            .transpose_b([4, 8, 16, 32])
            .workload(App::Fibonacci, scale),
    );
    let cells: Vec<Vec<String>> = transpose
        .points
        .iter()
        .map(|p| {
            let b = p.chip.transpose_b;
            vec![
                format!("{b}x{b}"),
                format!("{}", p.class_cycles("NTT").unwrap()),
                format!("{} B", b * b * 8),
            ]
        })
        .collect();
    println!(
        "{}",
        table(&["tile", "NTT cycles", "buffer capacity"], &cells)
    );

    // 3. Poseidon partial-round grouping: the paper maps 4 consecutive
    //    partial rounds onto 12×3 PE regions; fewer rounds per pass means
    //    more passes per permutation.
    println!("Ablation 3: Poseidon partial-round grouping (cycles per permutation)\n");
    let mut cells = Vec::new();
    for group in [1usize, 2, 4] {
        let passes = 8 + 1 + 22usize.div_ceil(group);
        let region_cols = 3 * group; // 12×3 PEs per group of 4 in the paper
        cells.push(vec![
            format!("{group} rounds/pass"),
            format!("{passes}"),
            format!("12 x {region_cols}"),
        ]);
    }
    println!(
        "{}",
        table(&["grouping", "VSA-cycles/permutation", "PE region"], &cells)
    );

    // 4. Permutation chunk size: more factors per chunk means fewer
    //    committed partial-product polynomials but a higher constraint
    //    degree (and therefore a larger LDE blowup requirement).
    println!("Ablation 4: permutation-argument chunk size (135 wires)\n");
    let chunks = sweep(
        &[3usize, 7, 15]
            .into_iter()
            .fold(SweepSpec::new("ablation-chunk"), |s, chunk| {
                s.workload_with_chunk(App::Fibonacci, scale, chunk)
            }),
    );
    let cells: Vec<Vec<String>> = chunks
        .points
        .iter()
        .map(|p| {
            let chunk = p.workload.chunk_size.unwrap();
            let mut inst = Plonky2Instance::new(rows, 135);
            inst.chunk_size = chunk;
            let perm_polys = inst.num_chunks() * inst.num_challenges;
            let degree = chunk + 1;
            let blowup_needed = degree.next_power_of_two();
            vec![
                format!("{chunk}"),
                format!("{perm_polys}"),
                format!("{degree} (blowup ≥ {blowup_needed})"),
                format!("{}", p.total_cycles),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["chunk size", "perm polys", "constraint degree", "total cycles"],
            &cells
        )
    );
    println!("the paper's choice (7 factors, degree 8) matches the blowup-8 LDE exactly");

    // 5. Replacement policy: the compiler's hand-crafted pinning of wire
    //    data during gate evaluation vs plain LRU (§5.4).
    println!("\nAblation 5: scratchpad replacement policy (gate evaluation, 135 wires)\n");
    use std::collections::HashSet;
    use unizk_core::scratchpad::{Policy, PolyProgram, ScratchpadModel};
    let vec_kb = 64u64 << 10;
    let program = PolyProgram::gate_evaluation(135, 60, 4, vec_kb);
    let mut cells = Vec::new();
    for (label, cap_vecs) in [("tight (wires + 2)", 137u64), ("roomy (wires + 32)", 167u64)] {
        let model = ScratchpadModel::new(cap_vecs * vec_kb);
        let lru = model.simulate(&program, &Policy::Lru);
        let pinned: HashSet<usize> = (0..135).collect();
        let crafted = model.simulate(&program, &Policy::PinnedLru { pinned });
        cells.push(vec![
            label.to_string(),
            format!("{} MB", lru.total_bytes() >> 20),
            format!("{} MB", crafted.total_bytes() >> 20),
            format!("{:.2}x", lru.total_bytes() as f64 / crafted.total_bytes() as f64),
        ]);
    }
    println!(
        "{}",
        table(&["scratchpad", "LRU traffic", "pinned traffic", "saving"], &cells)
    );
}
