//! One grid point: its stable cache key, its execution, and its result
//! record.

use unizk_core::compiler::{compile_plonky2, Plonky2Instance};
use unizk_core::kernels::KernelClassTag;
use unizk_core::{AreaPowerBreakdown, ChipConfig, Simulator};
use unizk_fleet::{FleetConfig, FleetSim, InterconnectConfig, ShardPlan, StreamSpec};
use unizk_testkit::json::Json;
use unizk_testkit::trace;
use unizk_workloads::pipezk::Groth16Instance;
use unizk_workloads::{App, GpuModel, PipeZkModel};

use crate::hash::key_hex;

/// Schema identifier for per-point cache entries; bumping it invalidates
/// every cached result (it is part of the cache key).
pub const POINT_SCHEMA: &str = "unizk-explore-point/2";

/// Seed of the synthetic arrival stream every fleet point uses. Part of
/// the canonical cache key, so changing it re-keys every fleet point.
const FLEET_STREAM_SEED: u64 = 0xF1EE7;

/// The kernel classes a point records, in the paper's fixed order.
pub const CLASS_TAGS: [KernelClassTag; 4] = [
    KernelClassTag::Ntt,
    KernelClassTag::Hash,
    KernelClassTag::Poly,
    KernelClassTag::Transpose,
];

/// Fleet parameters of one grid point: how many chips serve the stream,
/// how many shards each proof splits into, and the arrival batch size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FleetParams {
    /// Chips in the fleet.
    pub chips: usize,
    /// Shards per proof (power of two).
    pub shards: usize,
    /// Jobs per arrival burst.
    pub batch: usize,
}

/// One enumerated grid point, ready to run.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// The (validated) chip configuration.
    pub chip: ChipConfig,
    /// The application (fixes the wire width).
    pub app: App,
    /// `log2` of the trace rows at the chosen scale.
    pub log_rows: usize,
    /// Optional permutation-chunk-size override.
    pub chunk_size: Option<usize>,
    /// Fleet parameters; `None` simulates a classic single-proof point.
    pub fleet: Option<FleetParams>,
}

impl SweepPoint {
    /// The Plonky2 instance this point simulates.
    pub fn instance(&self) -> Plonky2Instance {
        let mut inst = Plonky2Instance::new(1 << self.log_rows, self.app.width());
        if let Some(c) = self.chunk_size {
            inst.chunk_size = c;
        }
        inst
    }

    /// The canonical serialization the cache key hashes: every field of
    /// the chip and HBM configuration plus the workload dimensions and
    /// the point schema version, as compact JSON (ordered keys, so the
    /// string — and therefore the hash — is stable across runs).
    pub fn canonical_key(&self) -> String {
        let c = &self.chip;
        let h = &c.hbm;
        Json::obj([
            ("schema", Json::str(POINT_SCHEMA)),
            (
                "chip",
                Json::obj([
                    ("num_vsas", Json::from(c.num_vsas)),
                    ("vsa_dim", Json::from(c.vsa_dim)),
                    ("scratchpad_bytes", Json::from(c.scratchpad_bytes)),
                    ("transpose_b", Json::from(c.transpose_b)),
                    ("ntt_pipeline_log2", Json::from(c.ntt_pipeline_log2)),
                    ("freq_ghz", Json::from(c.freq_ghz)),
                ]),
            ),
            (
                "hbm",
                Json::obj([
                    ("channels", Json::from(h.channels)),
                    ("banks_per_channel", Json::from(h.banks_per_channel)),
                    ("row_bytes", Json::from(h.row_bytes)),
                    ("burst_bytes", Json::from(h.burst_bytes)),
                    ("burst_cycles", Json::from(h.burst_cycles)),
                    ("t_rcd", Json::from(h.t_rcd)),
                    ("t_rp", Json::from(h.t_rp)),
                    ("t_ccd", Json::from(h.t_ccd)),
                    ("t_rrd", Json::from(h.t_rrd)),
                    ("t_refi", Json::from(h.t_refi)),
                    ("t_rfc", Json::from(h.t_rfc)),
                ]),
            ),
            (
                "workload",
                Json::obj([
                    ("app", Json::str(self.app.id())),
                    ("log_rows", Json::from(self.log_rows)),
                    ("width", Json::from(self.app.width())),
                    (
                        "chunk_size",
                        match self.chunk_size {
                            Some(c) => Json::from(c),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            (
                "fleet",
                match &self.fleet {
                    None => Json::Null,
                    Some(f) => {
                        let link = InterconnectConfig::default_link();
                        Json::obj([
                            ("chips", Json::from(f.chips)),
                            ("shards", Json::from(f.shards)),
                            ("batch", Json::from(f.batch)),
                            ("link_bytes_per_cycle", Json::from(link.link_bytes_per_cycle)),
                            ("link_latency_cycles", Json::from(link.link_latency_cycles)),
                            ("stream_seed", Json::from(FLEET_STREAM_SEED)),
                        ])
                    }
                },
            ),
        ])
        .to_string()
    }

    /// The 16-hex-digit cache key.
    pub fn key_hex(&self) -> String {
        key_hex(&self.canonical_key())
    }

    /// Chip echo embedded in the result row.
    fn chip_summary(&self) -> ChipSummary {
        ChipSummary {
            num_vsas: self.chip.num_vsas,
            vsa_dim: self.chip.vsa_dim,
            scratchpad_bytes: self.chip.scratchpad_bytes,
            transpose_b: self.chip.transpose_b,
            ntt_pipeline_log2: self.chip.ntt_pipeline_log2,
            hbm_channels: self.chip.hbm.channels,
            peak_gb_per_s: self.chip.hbm.peak_gb_per_s(),
        }
    }

    /// Workload echo embedded in the result row.
    fn workload_summary(&self) -> WorkloadSummary {
        WorkloadSummary {
            app: self.app.id().to_string(),
            log_rows: self.log_rows,
            width: self.app.width(),
            chunk_size: self.chunk_size,
        }
    }

    /// Simulates the point and derives its area/power/baseline columns.
    /// Fleet points run the multi-chip fleet simulator; classic points
    /// run the single-chip cycle-level simulator.
    pub fn run(&self) -> PointResult {
        if let Some(f) = &self.fleet {
            return self.run_fleet(f);
        }
        let _span = trace::span("explore.point.simulate");
        let graph = compile_plonky2(&self.instance());
        let report = Simulator::new(self.chip.clone()).run(&graph);
        let budget = AreaPowerBreakdown::for_chip(&self.chip);
        let seconds = report.seconds(&self.chip);

        // Speedup-vs-baseline columns from the analytical comparators: the
        // A100 roofline model for every point, and the PipeZK/Groth16
        // model where the paper compares against it (SHA-256, Table 6).
        let gpu_seconds = GpuModel::a100().run_graph(&graph);
        let pipezk = (self.app == App::Sha256).then(|| {
            PipeZkModel::published().prove_seconds(Groth16Instance::sha256_block())
        });

        let classes = CLASS_TAGS
            .into_iter()
            .map(|tag| {
                let c = report.class(tag);
                ClassRow {
                    name: tag.name().to_string(),
                    cycles: c.cycles,
                    vsa_busy_cycles: c.vsa_busy_cycles,
                    bytes: c.bytes,
                    nodes: c.nodes as u64,
                }
            })
            .collect();

        trace::counter("explore.simulated_cycles", report.total_cycles);
        PointResult {
            key: self.key_hex(),
            chip: self.chip_summary(),
            workload: self.workload_summary(),
            total_cycles: report.total_cycles,
            seconds,
            read_requests: report.read_requests,
            write_requests: report.write_requests,
            classes,
            area_mm2: budget.total_area_mm2(),
            power_w: budget.total_power_w(),
            gpu_seconds,
            gpu_speedup: gpu_seconds / seconds,
            pipezk_seconds: pipezk,
            pipezk_speedup: pipezk.map(|s| s / seconds),
            fleet: None,
        }
    }

    /// Runs a fleet point: shards the workload, streams a batched job
    /// arrival sequence at the fleet, and reports the fleet surface
    /// (makespan, throughput, utilization, queueing percentiles) next to
    /// per-job DRAM/class aggregates.
    fn run_fleet(&self, f: &FleetParams) -> PointResult {
        let _span = trace::span("explore.point.fleet");
        let plan = ShardPlan::new(self.instance(), f.shards)
            .unwrap_or_else(|e| panic!("fleet point: {e}"));
        let mut config = FleetConfig::with_chips(f.chips);
        config.chip = self.chip.clone();

        // Per-job service cycles fix the arrival rate: bursts of `batch`
        // jobs land at intervals offering ~100% load to `chips` chips, so
        // queueing is exercised without the backlog growing unboundedly.
        let shard_rep = Simulator::new(self.chip.clone()).run(plan.shard_graph());
        let agg_rep = plan
            .aggregation_graph()
            .map(|g| Simulator::new(self.chip.clone()).run(g));
        let agg_cycles = agg_rep.as_ref().map_or(0, |r| r.total_cycles);
        let transfer_cycles = if f.shards > 1 {
            config
                .interconnect
                .transfer_cycles(f.shards as u64 * plan.payload_bytes())
        } else {
            0
        };
        let per_job = f.shards as u64 * shard_rep.total_cycles + agg_cycles + transfer_cycles;
        let jobs = 2 * f.batch * f.chips;
        let stream = StreamSpec {
            jobs,
            batch: f.batch,
            interarrival_cycles: per_job * f.batch as u64 / f.chips as u64,
            seed: FLEET_STREAM_SEED,
        };
        let report = FleetSim::new(config).run(&plan, &stream);

        let seconds = report.makespan_cycles as f64 / (self.chip.freq_ghz * 1e9);
        let budget = AreaPowerBreakdown::for_chip(&self.chip);
        let chips_f = f.chips as f64;
        let scale = f.shards as u64;

        // Per-job aggregates: `shards` shard proofs plus the aggregation
        // proof (the fleet repeats this per job, so totals scale by jobs).
        let classes = CLASS_TAGS
            .into_iter()
            .map(|tag| ClassRow {
                name: tag.name().to_string(),
                cycles: scale * shard_rep.class(tag).cycles
                    + agg_rep.as_ref().map_or(0, |r| r.class(tag).cycles),
                vsa_busy_cycles: scale * shard_rep.class(tag).vsa_busy_cycles
                    + agg_rep.as_ref().map_or(0, |r| r.class(tag).vsa_busy_cycles),
                bytes: scale * shard_rep.class(tag).bytes
                    + agg_rep.as_ref().map_or(0, |r| r.class(tag).bytes),
                nodes: scale * shard_rep.class(tag).nodes as u64
                    + agg_rep.as_ref().map_or(0, |r| r.class(tag).nodes as u64),
            })
            .collect();

        // Baseline columns cover the same job stream: one A100 (or one
        // PipeZK, for SHA-256) proving the unsharded jobs back to back.
        let gpu_seconds =
            jobs as f64 * GpuModel::a100().run_graph(&compile_plonky2(&self.instance()));
        let pipezk = (self.app == App::Sha256).then(|| {
            jobs as f64 * PipeZkModel::published().prove_seconds(Groth16Instance::sha256_block())
        });

        let utils = report.utilization();
        let sojourn = report.sojourn();
        let service = report.service();

        trace::counter("explore.simulated_cycles", report.makespan_cycles);
        PointResult {
            key: self.key_hex(),
            chip: self.chip_summary(),
            workload: self.workload_summary(),
            total_cycles: report.makespan_cycles,
            seconds,
            read_requests: scale * shard_rep.read_requests
                + agg_rep.as_ref().map_or(0, |r| r.read_requests),
            write_requests: scale * shard_rep.write_requests
                + agg_rep.as_ref().map_or(0, |r| r.write_requests),
            classes,
            area_mm2: budget.total_area_mm2() * chips_f,
            power_w: budget.total_power_w() * chips_f,
            gpu_seconds,
            gpu_speedup: gpu_seconds / seconds,
            pipezk_seconds: pipezk,
            pipezk_speedup: pipezk.map(|s| s / seconds),
            fleet: Some(FleetRow {
                chips: f.chips,
                shards: f.shards,
                batch: f.batch,
                jobs,
                shard_cycles: report.shard_cycles,
                agg_cycles: report.agg_cycles,
                transfer_cycles: report.transfer_cycles,
                payload_bytes: report.payload_bytes,
                makespan_cycles: report.makespan_cycles,
                throughput_proofs_per_sec: report.throughput_proofs_per_sec(&self.chip),
                utilization_mean: utils.iter().sum::<f64>() / chips_f,
                utilization_min: utils.iter().copied().fold(f64::INFINITY, f64::min),
                utilization_max: utils.iter().copied().fold(0.0, f64::max),
                queue_peak: report.queue_peak as u64,
                queue_mean: report.queue_mean,
                sojourn_p50_cycles: sojourn.p50,
                sojourn_p95_cycles: sojourn.p95,
                sojourn_p99_cycles: sojourn.p99,
                service_p50_cycles: service.p50,
                service_p95_cycles: service.p95,
                service_p99_cycles: service.p99,
            }),
        }
    }
}

/// Chip-configuration echo carried in each result row.
#[derive(Clone, Debug, PartialEq)]
pub struct ChipSummary {
    /// `ChipConfig::num_vsas`.
    pub num_vsas: usize,
    /// `ChipConfig::vsa_dim`.
    pub vsa_dim: usize,
    /// `ChipConfig::scratchpad_bytes`.
    pub scratchpad_bytes: usize,
    /// `ChipConfig::transpose_b`.
    pub transpose_b: usize,
    /// `ChipConfig::ntt_pipeline_log2`.
    pub ntt_pipeline_log2: usize,
    /// `HbmConfig::channels`.
    pub hbm_channels: usize,
    /// Peak bandwidth at these channels (GB/s at 1 GHz).
    pub peak_gb_per_s: f64,
}

/// Workload echo carried in each result row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadSummary {
    /// `App::id()`.
    pub app: String,
    /// `log2` of the trace rows.
    pub log_rows: usize,
    /// Wire width.
    pub width: usize,
    /// Chunk-size override, if any.
    pub chunk_size: Option<usize>,
}

/// Per-kernel-class statistics of one point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassRow {
    /// Class name (`NTT`, `Hash`, `Poly`, `Transpose`).
    pub name: String,
    /// Wall-clock cycles attributed to the class.
    pub cycles: u64,
    /// VSA-busy cycles.
    pub vsa_busy_cycles: u64,
    /// DRAM bytes moved.
    pub bytes: u64,
    /// Kernel nodes.
    pub nodes: u64,
}

/// Fleet-simulation columns of one executed fleet point.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRow {
    /// Chips in the fleet.
    pub chips: usize,
    /// Shards per proof.
    pub shards: usize,
    /// Jobs per arrival burst.
    pub batch: usize,
    /// Jobs in the simulated stream.
    pub jobs: usize,
    /// Cycles of one shard proof on one chip.
    pub shard_cycles: u64,
    /// Cycles of the aggregation proof (0 when unsharded).
    pub agg_cycles: u64,
    /// Interconnect cycles per job (0 when unsharded).
    pub transfer_cycles: u64,
    /// Modeled bytes each shard ships to the aggregator.
    pub payload_bytes: u64,
    /// Cycles from first arrival to last completion.
    pub makespan_cycles: u64,
    /// Completed proofs per second at the modeled clock.
    pub throughput_proofs_per_sec: f64,
    /// Mean per-chip busy fraction.
    pub utilization_mean: f64,
    /// Minimum per-chip busy fraction.
    pub utilization_min: f64,
    /// Maximum per-chip busy fraction.
    pub utilization_max: f64,
    /// Peak dispatch-queue occupancy.
    pub queue_peak: u64,
    /// Time-averaged dispatch-queue occupancy.
    pub queue_mean: f64,
    /// Median job sojourn (arrival → completion) in cycles.
    pub sojourn_p50_cycles: u64,
    /// 95th-percentile job sojourn in cycles.
    pub sojourn_p95_cycles: u64,
    /// 99th-percentile job sojourn in cycles.
    pub sojourn_p99_cycles: u64,
    /// Median job service (first dispatch → completion) in cycles.
    pub service_p50_cycles: u64,
    /// 95th-percentile job service in cycles.
    pub service_p95_cycles: u64,
    /// 99th-percentile job service in cycles.
    pub service_p99_cycles: u64,
}

/// The complete record of one executed grid point. Serializes to (and
/// parses back from) JSON byte-identically, which is what lets cached and
/// freshly-computed sweeps emit identical artifacts.
#[derive(Clone, Debug, PartialEq)]
pub struct PointResult {
    /// The stable cache key (hex FNV-1a 64 of [`SweepPoint::canonical_key`]).
    pub key: String,
    /// Chip echo.
    pub chip: ChipSummary,
    /// Workload echo.
    pub workload: WorkloadSummary,
    /// End-to-end cycles.
    pub total_cycles: u64,
    /// Seconds at the configured clock.
    pub seconds: f64,
    /// 64-byte DRAM read requests.
    pub read_requests: u64,
    /// 64-byte DRAM write requests.
    pub write_requests: u64,
    /// Per-class breakdown in the paper's fixed order.
    pub classes: Vec<ClassRow>,
    /// Modeled chip area (Table 2 scaling).
    pub area_mm2: f64,
    /// Modeled chip power.
    pub power_w: f64,
    /// A100 analytical-model seconds for the same graph.
    pub gpu_seconds: f64,
    /// `gpu_seconds / seconds`.
    pub gpu_speedup: f64,
    /// PipeZK analytical-model seconds (SHA-256 workloads only).
    pub pipezk_seconds: Option<f64>,
    /// `pipezk_seconds / seconds`.
    pub pipezk_speedup: Option<f64>,
    /// Fleet columns (fleet points only).
    pub fleet: Option<FleetRow>,
}

impl PointResult {
    /// Cycles attributed to one kernel class, by name.
    pub fn class_cycles(&self, name: &str) -> Option<u64> {
        self.classes.iter().find(|c| c.name == name).map(|c| c.cycles)
    }

    /// The JSON row emitted into sweep artifacts and cache entries.
    pub fn to_json(&self) -> Json {
        let classes = self.classes.iter().map(|c| {
            (
                c.name.clone(),
                Json::obj([
                    ("cycles", Json::from(c.cycles)),
                    ("vsa_busy_cycles", Json::from(c.vsa_busy_cycles)),
                    ("bytes", Json::from(c.bytes)),
                    ("nodes", Json::from(c.nodes)),
                ]),
            )
        });
        let mut obj = vec![
            ("key".to_string(), Json::str(self.key.clone())),
            (
                "chip".to_string(),
                Json::obj([
                    ("num_vsas", Json::from(self.chip.num_vsas)),
                    ("vsa_dim", Json::from(self.chip.vsa_dim)),
                    ("scratchpad_bytes", Json::from(self.chip.scratchpad_bytes)),
                    ("transpose_b", Json::from(self.chip.transpose_b)),
                    ("ntt_pipeline_log2", Json::from(self.chip.ntt_pipeline_log2)),
                    ("hbm_channels", Json::from(self.chip.hbm_channels)),
                    ("peak_gb_per_s", Json::from(self.chip.peak_gb_per_s)),
                ]),
            ),
            (
                "workload".to_string(),
                Json::obj([
                    ("app", Json::str(self.workload.app.clone())),
                    ("log_rows", Json::from(self.workload.log_rows)),
                    ("width", Json::from(self.workload.width)),
                    (
                        "chunk_size",
                        match self.workload.chunk_size {
                            Some(c) => Json::from(c),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            ("total_cycles".to_string(), Json::from(self.total_cycles)),
            ("seconds".to_string(), Json::from(self.seconds)),
            ("read_requests".to_string(), Json::from(self.read_requests)),
            ("write_requests".to_string(), Json::from(self.write_requests)),
            ("classes".to_string(), Json::obj(classes)),
            ("area_mm2".to_string(), Json::from(self.area_mm2)),
            ("power_w".to_string(), Json::from(self.power_w)),
            ("gpu_seconds".to_string(), Json::from(self.gpu_seconds)),
            ("gpu_speedup".to_string(), Json::from(self.gpu_speedup)),
        ];
        if let (Some(s), Some(x)) = (self.pipezk_seconds, self.pipezk_speedup) {
            obj.push((
                "pipezk".to_string(),
                Json::obj([("seconds", Json::from(s)), ("speedup", Json::from(x))]),
            ));
        }
        if let Some(f) = &self.fleet {
            obj.push((
                "fleet".to_string(),
                Json::obj([
                    ("chips", Json::from(f.chips)),
                    ("shards", Json::from(f.shards)),
                    ("batch", Json::from(f.batch)),
                    ("jobs", Json::from(f.jobs)),
                    ("shard_cycles", Json::from(f.shard_cycles)),
                    ("agg_cycles", Json::from(f.agg_cycles)),
                    ("transfer_cycles", Json::from(f.transfer_cycles)),
                    ("payload_bytes", Json::from(f.payload_bytes)),
                    ("makespan_cycles", Json::from(f.makespan_cycles)),
                    (
                        "throughput_proofs_per_sec",
                        Json::from(f.throughput_proofs_per_sec),
                    ),
                    ("utilization_mean", Json::from(f.utilization_mean)),
                    ("utilization_min", Json::from(f.utilization_min)),
                    ("utilization_max", Json::from(f.utilization_max)),
                    ("queue_peak", Json::from(f.queue_peak)),
                    ("queue_mean", Json::from(f.queue_mean)),
                    ("sojourn_p50_cycles", Json::from(f.sojourn_p50_cycles)),
                    ("sojourn_p95_cycles", Json::from(f.sojourn_p95_cycles)),
                    ("sojourn_p99_cycles", Json::from(f.sojourn_p99_cycles)),
                    ("service_p50_cycles", Json::from(f.service_p50_cycles)),
                    ("service_p95_cycles", Json::from(f.service_p95_cycles)),
                    ("service_p99_cycles", Json::from(f.service_p99_cycles)),
                ]),
            ));
        }
        Json::Obj(obj)
    }

    /// Parses a row back. Every failure names the missing/mistyped field
    /// — the cache treats any `Err` as a miss rather than panicking.
    pub fn from_json(v: &Json) -> Result<PointResult, String> {
        let req = |key: &str| v.get(key).ok_or_else(|| format!("point: missing {key:?}"));
        let u64_of = |val: &Json, key: &str| {
            val.as_u64().ok_or_else(|| format!("point: {key:?} is not a u64"))
        };
        let f64_of = |val: &Json, key: &str| {
            val.as_f64().ok_or_else(|| format!("point: {key:?} is not a number"))
        };

        let chip_v = req("chip")?;
        let chip_u = |key: &str| {
            chip_v
                .get(key)
                .and_then(Json::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| format!("point: chip.{key} is not a u64"))
        };
        let chip = ChipSummary {
            num_vsas: chip_u("num_vsas")?,
            vsa_dim: chip_u("vsa_dim")?,
            scratchpad_bytes: chip_u("scratchpad_bytes")?,
            transpose_b: chip_u("transpose_b")?,
            ntt_pipeline_log2: chip_u("ntt_pipeline_log2")?,
            hbm_channels: chip_u("hbm_channels")?,
            peak_gb_per_s: chip_v
                .get("peak_gb_per_s")
                .and_then(Json::as_f64)
                .ok_or("point: chip.peak_gb_per_s is not a number")?,
        };

        let wl_v = req("workload")?;
        let workload = WorkloadSummary {
            app: wl_v
                .get("app")
                .and_then(Json::as_str)
                .ok_or("point: workload.app is not a string")?
                .to_string(),
            log_rows: wl_v
                .get("log_rows")
                .and_then(Json::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("point: workload.log_rows is not a u64")?,
            width: wl_v
                .get("width")
                .and_then(Json::as_u64)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or("point: workload.width is not a u64")?,
            chunk_size: match wl_v.get("chunk_size") {
                Some(Json::Null) | None => None,
                Some(val) => Some(
                    usize::try_from(u64_of(val, "workload.chunk_size")?)
                        .expect("chunk size fits usize"),
                ),
            },
        };

        let classes_v = req("classes")?
            .as_obj()
            .ok_or("point: classes is not an object")?;
        let classes = classes_v
            .iter()
            .map(|(name, val)| {
                Ok(ClassRow {
                    name: name.clone(),
                    cycles: val
                        .get("cycles")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("point: classes.{name}.cycles"))?,
                    vsa_busy_cycles: val
                        .get("vsa_busy_cycles")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("point: classes.{name}.vsa_busy_cycles"))?,
                    bytes: val
                        .get("bytes")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("point: classes.{name}.bytes"))?,
                    nodes: val
                        .get("nodes")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("point: classes.{name}.nodes"))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;

        let fleet = match v.get("fleet") {
            Some(fv) => {
                let fu = |key: &str| {
                    fv.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("point: fleet.{key} is not a u64"))
                };
                let fus = |key: &str| {
                    fu(key).and_then(|n| {
                        usize::try_from(n).map_err(|_| format!("point: fleet.{key} overflows"))
                    })
                };
                let ff = |key: &str| {
                    fv.get(key)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| format!("point: fleet.{key} is not a number"))
                };
                Some(FleetRow {
                    chips: fus("chips")?,
                    shards: fus("shards")?,
                    batch: fus("batch")?,
                    jobs: fus("jobs")?,
                    shard_cycles: fu("shard_cycles")?,
                    agg_cycles: fu("agg_cycles")?,
                    transfer_cycles: fu("transfer_cycles")?,
                    payload_bytes: fu("payload_bytes")?,
                    makespan_cycles: fu("makespan_cycles")?,
                    throughput_proofs_per_sec: ff("throughput_proofs_per_sec")?,
                    utilization_mean: ff("utilization_mean")?,
                    utilization_min: ff("utilization_min")?,
                    utilization_max: ff("utilization_max")?,
                    queue_peak: fu("queue_peak")?,
                    queue_mean: ff("queue_mean")?,
                    sojourn_p50_cycles: fu("sojourn_p50_cycles")?,
                    sojourn_p95_cycles: fu("sojourn_p95_cycles")?,
                    sojourn_p99_cycles: fu("sojourn_p99_cycles")?,
                    service_p50_cycles: fu("service_p50_cycles")?,
                    service_p95_cycles: fu("service_p95_cycles")?,
                    service_p99_cycles: fu("service_p99_cycles")?,
                })
            }
            None => None,
        };

        let (pipezk_seconds, pipezk_speedup) = match v.get("pipezk") {
            Some(p) => (
                Some(f64_of(p.get("seconds").ok_or("point: pipezk.seconds")?, "pipezk.seconds")?),
                Some(f64_of(p.get("speedup").ok_or("point: pipezk.speedup")?, "pipezk.speedup")?),
            ),
            None => (None, None),
        };

        Ok(PointResult {
            key: req("key")?
                .as_str()
                .ok_or("point: key is not a string")?
                .to_string(),
            chip,
            workload,
            total_cycles: u64_of(req("total_cycles")?, "total_cycles")?,
            seconds: f64_of(req("seconds")?, "seconds")?,
            read_requests: u64_of(req("read_requests")?, "read_requests")?,
            write_requests: u64_of(req("write_requests")?, "write_requests")?,
            classes,
            area_mm2: f64_of(req("area_mm2")?, "area_mm2")?,
            power_w: f64_of(req("power_w")?, "power_w")?,
            gpu_seconds: f64_of(req("gpu_seconds")?, "gpu_seconds")?,
            gpu_speedup: f64_of(req("gpu_speedup")?, "gpu_speedup")?,
            pipezk_seconds,
            pipezk_speedup,
            fleet,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_workloads::Scale;

    fn demo_point() -> SweepPoint {
        SweepPoint {
            chip: ChipConfig::default_chip(),
            app: App::Fibonacci,
            log_rows: App::Fibonacci.log_rows(Scale::Shrunk(6)),
            chunk_size: None,
            fleet: None,
        }
    }

    fn fleet_point(chips: usize, shards: usize, batch: usize) -> SweepPoint {
        SweepPoint {
            fleet: Some(FleetParams { chips, shards, batch }),
            ..demo_point()
        }
    }

    #[test]
    fn key_is_stable_and_sensitive() {
        let p = demo_point();
        assert_eq!(p.key_hex(), p.key_hex());
        assert_eq!(p.key_hex().len(), 16);

        let mut q = p.clone();
        q.chip.num_vsas = 16;
        assert_ne!(p.key_hex(), q.key_hex());

        let mut q = p.clone();
        q.chunk_size = Some(7);
        assert_ne!(p.key_hex(), q.key_hex(), "chunk override must re-key");

        let mut q = p.clone();
        q.chip.hbm.t_rcd += 1;
        assert_ne!(p.key_hex(), q.key_hex(), "HBM timing must re-key");

        let f = fleet_point(2, 2, 1);
        assert_ne!(p.key_hex(), f.key_hex(), "fleet params must re-key");
        assert_ne!(
            f.key_hex(),
            fleet_point(2, 2, 2).key_hex(),
            "every fleet axis must re-key"
        );
    }

    #[test]
    fn run_produces_consistent_result() {
        let r = demo_point().run();
        assert!(r.total_cycles > 0);
        assert!(r.seconds > 0.0);
        assert_eq!(r.classes.len(), 4);
        assert_eq!(
            r.total_cycles,
            r.classes.iter().map(|c| c.cycles).sum::<u64>(),
            "class cycles partition the total"
        );
        assert!(r.gpu_speedup > 1.0, "UniZK beats the A100 model");
        assert!(r.pipezk_seconds.is_none(), "fibonacci has no PipeZK column");
        assert!((r.area_mm2 - 57.8).abs() < 0.1, "default chip is Table 2");
    }

    #[test]
    fn fleet_points_report_the_fleet_surface() {
        let r = fleet_point(2, 2, 2).run();
        let f = r.fleet.as_ref().expect("fleet points carry the fleet row");
        assert_eq!((f.chips, f.shards, f.batch), (2, 2, 2));
        assert_eq!(f.jobs, 8);
        assert!(f.transfer_cycles > 0, "sharding charges the interconnect");
        assert!(f.makespan_cycles >= f.shard_cycles + f.transfer_cycles + f.agg_cycles);
        assert_eq!(r.total_cycles, f.makespan_cycles);
        assert!(f.throughput_proofs_per_sec > 0.0);
        assert!(f.utilization_max <= 1.0 && f.utilization_min >= 0.0);
        assert!(f.utilization_min <= f.utilization_mean);
        assert!(f.utilization_mean <= f.utilization_max);
        assert!(f.sojourn_p50_cycles <= f.sojourn_p99_cycles);
        // Fleet area/power scale with the chip count.
        let single = demo_point().run();
        assert!((r.area_mm2 - 2.0 * single.area_mm2).abs() < 1e-9);
        assert!((r.power_w - 2.0 * single.power_w).abs() < 1e-9);
    }

    #[test]
    fn unsharded_fleet_point_ships_nothing() {
        let r = fleet_point(1, 1, 1).run();
        let f = r.fleet.as_ref().unwrap();
        assert_eq!(f.transfer_cycles, 0);
        assert_eq!(f.agg_cycles, 0);
        assert_eq!(
            f.shard_cycles,
            demo_point().run().total_cycles,
            "an unsharded shard proof is the whole proof"
        );
    }

    #[test]
    fn sha256_points_carry_the_pipezk_column() {
        let p = SweepPoint {
            chip: ChipConfig::default_chip(),
            app: App::Sha256,
            log_rows: 10,
            chunk_size: None,
            fleet: None,
        };
        let r = p.run();
        assert!(r.pipezk_seconds.is_some());
        assert!(r.pipezk_speedup.is_some());
    }

    #[test]
    fn json_round_trip_is_byte_identical() {
        for point in [
            demo_point(),
            SweepPoint {
                chip: ChipConfig::default_chip().with_vsas(8),
                app: App::Sha256,
                log_rows: 10,
                chunk_size: Some(3),
                fleet: None,
            },
            fleet_point(2, 2, 2),
        ] {
            let r = point.run();
            let text = r.to_json().to_string_pretty();
            let back =
                PointResult::from_json(&unizk_testkit::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.to_json().to_string_pretty(), text);
        }
    }
}
