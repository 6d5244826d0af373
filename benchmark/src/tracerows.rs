//! The `trace.*` rows: the split of one traced repetition, read from the
//! spans and counters the crates already emit. No crate is changed for
//! it; what a crate does not emit reads 0.

use unizk_fri::{kernel_totals_from, KernelClass};
use unizk_testkit::trace::TraceReport;

use crate::ctx::Ctx;

/// Total nanoseconds under every outermost span called `name`.
fn span_ns(report: &TraceReport, name: &str) -> u64 {
    let mut total = 0;
    report.walk(&mut |path, node| {
        if node.name == name && !path[..path.len() - 1].contains(&name) {
            total += node.ns;
        }
    });
    total
}

/// Records the `trace.*` rows for a repetition that took `total_ns` of
/// prover time (wall time of one prove call; summed service time for a
/// served batch) and left `report` behind.
pub fn record(ctx: &mut Ctx, report: &TraceReport, total_ns: f64) {
    let totals = kernel_totals_from(report);
    let class_ms = |class: KernelClass| {
        let (_, d) = totals
            .iter()
            .find(|(c, _)| *c == class)
            .expect("class in Table 1 order");
        d.as_secs_f64() * 1e3
    };
    let merkle = class_ms(KernelClass::MerkleTree);
    let other_hash = class_ms(KernelClass::OtherHash);
    ctx.metric("trace.merkle_ms", "ms", merkle);
    ctx.metric("trace.other_hash_ms", "ms", other_hash);
    ctx.metric("trace.ntt_ms", "ms", class_ms(KernelClass::Ntt));
    ctx.metric("trace.poly_ms", "ms", class_ms(KernelClass::Polynomial));
    ctx.metric(
        "trace.layout_ms",
        "ms",
        class_ms(KernelClass::LayoutTransform),
    );
    let covered: f64 = totals.iter().map(|(_, d)| d.as_secs_f64() * 1e9).sum();
    ctx.metric("trace.coverage", "ratio", covered / total_ns);

    let perms = report.counter("poseidon.permutations")
        + report.counter("poseidon2.permutations")
        + report.counter("poseidon2_kb.permutations");
    ctx.metric("trace.poseidon_perms", "count", perms as f64);
    ctx.metric(
        "trace.ntt_butterflies",
        "count",
        report.counter("ntt.butterflies") as f64,
    );
    ctx.metric(
        "trace.merkle_leaves",
        "count",
        report.counter("merkle.leaves") as f64,
    );
    if perms > 0 {
        ctx.metric(
            "trace.ns_per_perm",
            "ns",
            (merkle + other_hash) * 1e6 / perms as f64,
        );
    }

    // Phase spans. The Plonk prover opens no `stark.*` span, so those rows
    // read 0 there; both provers run `fri.prove`.
    for (name, span) in [
        ("trace.trace_commit_ms", "stark.trace_commit"),
        ("trace.quotient_ms", "stark.quotient"),
        ("trace.quotient_commit_ms", "stark.quotient_commit"),
        ("trace.fri_ms", "fri.prove"),
        ("trace.grind_ms", "fri.grind"),
    ] {
        ctx.metric(name, "ms", span_ns(report, span) as f64 / 1e6);
    }
}
