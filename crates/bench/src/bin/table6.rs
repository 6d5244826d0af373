//! Reproduces Table 6: Groth16/PipeZK vs Starky+Plonky2/UniZK, including
//! the multi-block 840× throughput comparison.

use unizk_bench::render::{fmt_seconds, fmt_speedup, table};
use unizk_bench::{table6, table6_throughput};

fn main() {
    unizk_bench::no_args();
    println!("Table 6: CPU and ASIC comparison across protocols (single data block)\n");
    let rows = table6();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.app.to_string(),
                fmt_seconds(r.groth16_cpu_s),
                fmt_seconds(r.starky_cpu_s),
                fmt_seconds(r.pipezk_s),
                fmt_seconds(r.unizk_s),
                fmt_speedup(r.pipezk_speedup()),
                fmt_speedup(r.unizk_speedup()),
            ]
        })
        .collect();
    println!(
        "{}",
        table(
            &["App", "Groth16 CPU", "Starky+Plonky2 CPU", "PipeZK", "UniZK",
              "PipeZK speedup", "UniZK speedup"],
            &cells
        )
    );
    println!("paper: PipeZK 102/97 ms (15×/12×), UniZK 12.6/27.7 ms (159×/123×)\n");

    let tp = table6_throughput(256);
    println!(
        "Multi-block SHA-256 throughput: UniZK {:.0} blocks/s vs PipeZK {:.0} blocks/s -> {}",
        tp.unizk_blocks_per_s,
        tp.pipezk_blocks_per_s,
        fmt_speedup(tp.ratio()),
    );
    println!("paper: >8400 blocks/s vs 10 blocks/s -> 840×");
}
