//! The sweep engine: enumerate → (cache-check, simulate) in parallel →
//! Pareto post-process → artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use unizk_field::par::run_indexed;
use unizk_testkit::json::Json;
use unizk_testkit::render::{fmt_seconds, fmt_speedup, table};
use unizk_testkit::trace;

use crate::cache::Cache;
use crate::pareto::frontier;
use crate::point::PointResult;
use crate::spec::SweepSpec;

/// Schema identifier of sweep artifacts (`SWEEP.json`).
pub const SWEEP_SCHEMA: &str = "unizk-explore-sweep/1";

/// Execution options for [`run_sweep`].
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker count; `0` means all available cores.
    pub jobs: usize,
    /// Cache directory; `None` disables memoization entirely.
    pub cache_dir: Option<PathBuf>,
}

impl SweepOptions {
    fn resolved_jobs(&self) -> usize {
        if self.jobs != 0 {
            return self.jobs;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// The outcome of one sweep: every point's result (in enumeration order)
/// plus the Pareto frontier over (cycles, area, power).
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The spec that produced this sweep (canonical form).
    pub spec: SweepSpec,
    /// Per-point results, indexed exactly as `spec.enumerate()`.
    pub points: Vec<PointResult>,
    /// Indices into `points` that are Pareto-non-dominated, ascending.
    pub pareto: Vec<usize>,
    /// Points answered from the on-disk cache.
    pub cache_hits: usize,
    /// Points that ran the simulator.
    pub cache_misses: usize,
}

/// Runs a sweep: enumerates the spec's grid, executes every point on
/// [`run_indexed`]'s workers (answering from the cache where one is
/// given), and extracts the Pareto frontier.
///
/// The result — and the artifact serialized from it — depends only on the
/// spec: worker count, cache state, and enumeration timing never change a
/// byte (the determinism integration test pins this down).
pub fn run_sweep(spec: &SweepSpec, opts: &SweepOptions) -> Result<SweepResult, String> {
    let _span = trace::span("explore.sweep");
    let points = spec.enumerate()?;
    let cache = match &opts.cache_dir {
        Some(dir) => Some(Cache::new(dir)?),
        None => None,
    };

    let hits = AtomicUsize::new(0);
    let results = run_indexed(opts.resolved_jobs(), points, |_, _, point| {
        trace::with_span("explore.point", || {
            if let Some(cached) = cache.as_ref().and_then(|c| c.load(&point.key_hex())) {
                hits.fetch_add(1, Ordering::Relaxed);
                trace::counter("explore.cache_hits", 1);
                return Ok(cached);
            }
            trace::counter("explore.points_run", 1);
            let result = point.run();
            if let Some(c) = &cache {
                c.store(&result)?;
            }
            Ok(result)
        })
    });
    let points = results.into_iter().collect::<Result<Vec<_>, String>>()?;

    let costs: Vec<[f64; 3]> = points
        .iter()
        .map(|p| [p.total_cycles as f64, p.area_mm2, p.power_w])
        .collect();
    let pareto = frontier(&costs);

    let cache_hits = hits.into_inner();
    Ok(SweepResult {
        spec: spec.clone(),
        cache_misses: points.len() - cache_hits,
        points,
        pareto,
        cache_hits,
    })
}

impl SweepResult {
    /// The stable JSON artifact. Deliberately excludes cache statistics,
    /// timestamps, and host details so that cached re-runs and different
    /// `--jobs` values emit byte-identical files.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str(SWEEP_SCHEMA)),
            ("spec", self.spec.to_json()),
            ("num_points", Json::from(self.points.len())),
            ("points", Json::arr(self.points.iter().map(PointResult::to_json))),
            ("pareto", Json::arr(self.pareto.iter().map(|&i| Json::from(i)))),
        ])
    }

    /// A markdown report: the Pareto frontier as a table, then the full
    /// grid.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# Sweep: {}\n\n", self.spec.name));
        out.push_str(&format!(
            "{} points, {} on the Pareto frontier over (cycles, area, power).\n\n",
            self.points.len(),
            self.pareto.len()
        ));
        out.push_str("## Pareto frontier\n\n");
        out.push_str(&self.table_for(self.pareto.iter().copied()));
        out.push_str("\n## All points\n\n");
        out.push_str(&self.table_for(0..self.points.len()));
        out
    }

    fn table_for(&self, indices: impl Iterator<Item = usize>) -> String {
        let headers = [
            "#", "workload", "fleet", "vsas", "dim", "spad MiB", "B", "pipe", "ch", "cycles",
            "time", "area mm^2", "power W", "vs A100",
        ];
        let rows: Vec<Vec<String>> = indices
            .map(|i| {
                let p = &self.points[i];
                let w = &p.workload;
                let chunk = w.chunk_size.map_or(String::new(), |c| format!(" c{c}"));
                let fleet = p.fleet.as_ref().map_or("-".to_string(), |f| {
                    format!("{}c/{}s/b{}", f.chips, f.shards, f.batch)
                });
                vec![
                    i.to_string(),
                    format!("{} 2^{}{}", w.app, w.log_rows, chunk),
                    fleet,
                    p.chip.num_vsas.to_string(),
                    p.chip.vsa_dim.to_string(),
                    (p.chip.scratchpad_bytes >> 20).to_string(),
                    p.chip.transpose_b.to_string(),
                    p.chip.ntt_pipeline_log2.to_string(),
                    p.chip.hbm_channels.to_string(),
                    p.total_cycles.to_string(),
                    fmt_seconds(p.seconds),
                    format!("{:.1}", p.area_mm2),
                    format!("{:.1}", p.power_w),
                    fmt_speedup(p.gpu_speedup),
                ]
            })
            .collect();
        table(&headers, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_workloads::{App, Scale};

    fn tiny_spec() -> SweepSpec {
        SweepSpec::new("engine-test")
            .num_vsas([8, 32])
            .bandwidth_scales([(1, 2), (1, 1)])
            .workload(App::Fibonacci, Scale::Shrunk(7))
    }

    fn tmp_cache(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("unizk-explore-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sweep_runs_and_finds_a_frontier() {
        let r = run_sweep(&tiny_spec(), &SweepOptions::default()).unwrap();
        assert_eq!(r.points.len(), 4);
        assert!(!r.pareto.is_empty());
        assert_eq!(r.cache_hits, 0);
        assert_eq!(r.cache_misses, 4);
        // Frontier indices are valid, ascending, and non-dominated.
        for w in r.pareto.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn second_run_is_all_cache_hits_and_byte_identical() {
        let dir = tmp_cache("hits");
        let opts = SweepOptions { jobs: 2, cache_dir: Some(dir.clone()) };
        let spec = tiny_spec();

        let cold = run_sweep(&spec, &opts).unwrap();
        assert_eq!(cold.cache_hits, 0);
        let warm = run_sweep(&spec, &opts).unwrap();
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(
            cold.to_json().to_string_pretty(),
            warm.to_json().to_string_pretty()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fleet_sweeps_cache_and_rank_like_any_other_points() {
        let dir = tmp_cache("fleet");
        let opts = SweepOptions { jobs: 2, cache_dir: Some(dir.clone()) };
        let spec = SweepSpec::new("engine-fleet")
            .fleet_axes([1, 2], [1, 2], [1])
            .workload(App::Fibonacci, Scale::Shrunk(7));

        let cold = run_sweep(&spec, &opts).unwrap();
        assert_eq!(cold.points.len(), 4);
        assert!(cold.points.iter().all(|p| p.fleet.is_some()));
        let warm = run_sweep(&spec, &opts).unwrap();
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(
            cold.to_json().to_string_pretty(),
            warm.to_json().to_string_pretty()
        );
        assert!(cold.markdown().contains("2c/2s/b1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn markdown_mentions_every_frontier_point() {
        let r = run_sweep(&tiny_spec(), &SweepOptions::default()).unwrap();
        let md = r.markdown();
        assert!(md.contains("# Sweep: engine-test"));
        assert!(md.contains("Pareto frontier"));
        assert!(md.contains("vs A100"));
    }
}
