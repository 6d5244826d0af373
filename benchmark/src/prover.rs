//! The five prover workloads: one AIR or circuit, proved and verified in a
//! closed loop by one client.
//!
//! Prover cost is data-oblivious for a fixed shape except for grind luck,
//! so the shapes are the repository's public ones and do not depend on the
//! seed; what the seed drives is in `serve.rs` and `layers.rs`.

use std::time::Instant;

use unizk_core::compiler::{compile_plonky2, compile_starky, Plonky2Instance, StarkyInstance};
use unizk_core::Graph;
use unizk_field::{Field, Goldilocks};
use unizk_hash::sponge::HashField;
use unizk_hash::SpongeBackend;
use unizk_plonk::CircuitData;
use unizk_stark::{Air, FibonacciAir, StarkConfig, StarkProof};
use unizk_testkit::trace::{self, TraceReport};
use unizk_workloads::{App, Scale};

use crate::chip::simulate_in_envelope;
use crate::clock::Clock;
use crate::ctx::{fatal, repeat_for, Ctx, Series};
use crate::stats::{median, peak_rss_mb, time_ns};
use crate::tracerows;

/// One provable statement and everything the benchmark does with its
/// proofs, through the owning crate's public API only.
pub trait Case {
    type Proof;
    /// The per-layer row the serialize → parse → serialize time goes to.
    const SERIALIZE_ROW: Option<&'static str>;

    fn prove(&self) -> Result<Self::Proof, String>;
    fn verify(&self, proof: &Self::Proof) -> Result<(), String>;
    fn to_bytes(proof: &Self::Proof) -> Vec<u8>;
    /// Parses `bytes` and serializes the result again.
    fn reserialize(bytes: &[u8]) -> Result<Vec<u8>, String>;
    /// The size the legacy `BENCH_PROVER.json` records (payload without
    /// length prefixes).
    fn size_bytes(proof: &Self::Proof) -> usize;
    /// Nonces the proof-of-work search tried: `pow_witness + 1`.
    fn grind_attempts(proof: &Self::Proof) -> u64;
    /// The same proof shape as a kernel graph for the chip simulator.
    fn chip_graph(&self) -> Graph;
    /// Rows only this kind of case has.
    fn layer_rows(&self, _ctx: &mut Ctx) {}
}

/// A Starky Fibonacci proof over the `(field, hasher)` pair of `config`.
pub struct StarkCase<F: HashField, H: SpongeBackend<F = F>> {
    air: FibonacciAir,
    config: StarkConfig<F, H>,
}

impl<F: HashField, H: SpongeBackend<F = F>> StarkCase<F, H> {
    pub fn new(log_rows: usize, config: StarkConfig<F, H>) -> Self {
        Self {
            air: FibonacciAir::new(1 << log_rows),
            config,
        }
    }
}

impl<F, H> Case for StarkCase<F, H>
where
    F: HashField,
    H: SpongeBackend<F = F>,
    FibonacciAir: Air<F>,
{
    type Proof = StarkProof<F>;
    const SERIALIZE_ROW: Option<&'static str> = Some("stark.serialize_roundtrip_us");

    fn prove(&self) -> Result<Self::Proof, String> {
        unizk_stark::prove(&self.air, &self.config).map_err(|e| e.to_string())
    }

    fn verify(&self, proof: &Self::Proof) -> Result<(), String> {
        unizk_stark::verify(&self.air, proof, &self.config).map_err(|e| e.to_string())
    }

    fn to_bytes(proof: &Self::Proof) -> Vec<u8> {
        proof.to_bytes()
    }

    fn reserialize(bytes: &[u8]) -> Result<Vec<u8>, String> {
        StarkProof::<F>::from_bytes(bytes)
            .map(|p| p.to_bytes())
            .map_err(|e| e.to_string())
    }

    fn size_bytes(proof: &Self::Proof) -> usize {
        proof.size_bytes()
    }

    fn grind_attempts(proof: &Self::Proof) -> u64 {
        proof.fri.pow_witness.as_u64() + 1
    }

    fn chip_graph(&self) -> Graph {
        // The chip models the Goldilocks datapath; over KoalaBear the graph
        // has the same shape with that stack's four challenge rounds.
        compile_starky(&StarkyInstance {
            num_challenges: self.config.num_challenges,
            ..StarkyInstance::new(
                self.air.rows(),
                self.air.width(),
                self.air.num_transition_constraints(),
            )
        })
    }
}

/// The paper's Fibonacci app as a Plonky2 circuit.
pub struct PlonkCase {
    circuit: CircuitData,
    inputs: Vec<Goldilocks>,
}

impl PlonkCase {
    /// Builds the circuit, `shrink` bits below the paper's 2^16 rows.
    pub fn build(ctx: &mut Ctx, shrink: usize) -> Self {
        let ((circuit, inputs), build_ns) =
            time_ns(|| App::Fibonacci.build_circuit(Scale::Shrunk(shrink)));
        if ctx.trace {
            ctx.metric("plonk.build_ms", "ms", build_ns / 1e6);
        }
        Self { circuit, inputs }
    }
}

impl Case for PlonkCase {
    type Proof = unizk_plonk::Proof;
    const SERIALIZE_ROW: Option<&'static str> = None;

    fn prove(&self) -> Result<Self::Proof, String> {
        self.circuit.prove(&self.inputs).map_err(|e| e.to_string())
    }

    fn verify(&self, proof: &Self::Proof) -> Result<(), String> {
        self.circuit.verify(proof).map_err(|e| e.to_string())
    }

    fn to_bytes(proof: &Self::Proof) -> Vec<u8> {
        proof.to_bytes()
    }

    fn reserialize(bytes: &[u8]) -> Result<Vec<u8>, String> {
        unizk_plonk::Proof::from_bytes(bytes)
            .map(|p| p.to_bytes())
            .map_err(|e| e.to_string())
    }

    fn size_bytes(proof: &Self::Proof) -> usize {
        proof.size_bytes()
    }

    fn grind_attempts(proof: &Self::Proof) -> u64 {
        proof.fri.pow_witness.as_u64() + 1
    }

    fn chip_graph(&self) -> Graph {
        compile_plonky2(&Plonky2Instance::new(
            self.circuit.rows,
            self.circuit.config.num_wires,
        ))
    }

    fn layer_rows(&self, ctx: &mut Ctx) {
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let (witness, t) = ctx.scope("plonk.generate_witness", |_| {
                    time_ns(|| unizk_plonk::prover::generate_witness(&self.circuit, &self.inputs))
                });
                ctx.out.check_ok("generate_witness", witness);
                t / 1e6
            })
            .collect();
        ctx.metric_n("plonk.witness_ms", "ms", median(&samples), samples.len());
    }
}

/// How a prover workload is run.
pub struct Params {
    /// `set_parallelism` for the whole process.
    pub threads: usize,
    /// Verify calls per proof in the timed pass, so that even the slowest
    /// prover collects 20 verify samples.
    pub verifies_per_proof: usize,
    /// The proof size `BENCH_PROVER.json` committed to, where it has one.
    pub expect_size_bytes: Option<usize>,
}

/// A built case after its warm-up operation.
struct Ready<C: Case> {
    case: C,
    /// Bytes of the warm-up proof: every later proof must equal them.
    reference: Vec<u8>,
    sim_cycles: u64,
}

/// Runs one prover workload: end-to-end metrics, or the per-layer rows of
/// a traced repetition.
pub fn run<C: Case>(ctx: &mut Ctx, params: &Params, build: impl FnOnce(&mut Ctx) -> C) {
    unizk_field::set_parallelism(params.threads);
    let ready = ctx.scope("setup", |ctx| {
        let case = ctx.scope("build", build);
        let sim_cycles = ctx.scope("simulate", |ctx| {
            let sim = unizk_core::Simulator::new(unizk_core::ChipConfig::default_chip());
            simulate_in_envelope(ctx, &sim, &case.chip_graph())
        });
        let proof = ctx
            .scope("warmup.prove", |_| case.prove())
            .unwrap_or_else(|e| fatal(&format!("warm-up prove failed: {e}")));
        let verified = ctx.scope("warmup.verify", |_| case.verify(&proof));
        ctx.out.check_ok("warm-up verify", verified);
        if let Some(expected) = params.expect_size_bytes {
            let got = C::size_bytes(&proof);
            ctx.out.check(got == expected, || {
                format!("proof payload is {got} bytes, BENCH_PROVER.json has {expected}")
            });
        }
        Ready {
            reference: C::to_bytes(&proof),
            case,
            sim_cycles,
        }
    });
    if ctx.trace {
        per_layer(ctx, &ready);
    } else {
        end_to_end(ctx, params, &ready);
    }
}

fn end_to_end<C: Case>(ctx: &mut Ctx, params: &Params, ready: &Ready<C>) {
    ctx.end_setup();
    let (mut prove_ms, mut verify_ms, mut loops_per_s) =
        (Series::default(), Series::default(), Series::default());
    let mut clock = Clock::start();
    repeat_for(ctx.seconds, 3, || {
        let (proof, prove_ns) = time_ns(|| ready.case.prove());
        let Some(proof) = ctx.out.check_ok("prove", proof) else {
            return;
        };
        prove_ms.push(prove_ns / 1e6);
        // A lap after each phase: the probes sit right around what they
        // convert, and the prover may run on more threads than the rest.
        let proving = clock.lap();
        prove_ms.settle(proving);

        let checking = Instant::now();
        ctx.out.check(C::to_bytes(&proof) == ready.reference, || {
            "proof bytes differ from the first repetition's".to_string()
        });
        for _ in 0..params.verifies_per_proof {
            let (verified, t) = time_ns(|| ready.case.verify(&proof));
            if ctx.out.check_ok("verify", verified).is_some() {
                verify_ms.push(t / 1e6);
            }
        }
        let check_s = checking.elapsed().as_secs_f64();
        let verifying = clock.lap();
        verify_ms.settle(verifying);
        loops_per_s.push_converted(
            1.0 / (prove_ns / 1e9 + check_s),
            1.0 / (prove_ns / 1e9 * proving + check_s * verifying),
        );
    });
    if prove_ms.at_reference.is_empty() || verify_ms.at_reference.is_empty() {
        fatal("no proof was produced and verified in the timed pass");
    }
    ctx.timing("op_ms_p50", "ms", &prove_ms);
    ctx.timing("verify_ms_p50", "ms", &verify_ms);
    ctx.timing("ops_per_s", "1/s", &loops_per_s);
    ctx.metric("output_bytes", "bytes", ready.reference.len() as f64);
    ctx.metric(
        "peak_rss_mb",
        "MB",
        peak_rss_mb().unwrap_or_else(|| fatal("no VmHWM")),
    );
    ctx.metric("sim_cycles_total", "cycles", ready.sim_cycles as f64);
}

fn per_layer<C: Case>(ctx: &mut Ctx, ready: &Ready<C>) {
    let share = ctx.seconds / 4.0;

    // The same call with the benchmark's spans off: the base the traced
    // repetitions are compared with.
    ctx.rec.set_enabled(false);
    let mut plain_ms = Vec::new();
    repeat_for(share, 2, || {
        let (proof, t) = time_ns(|| ready.case.prove());
        if ctx.out.check_ok("prove", proof).is_some() {
            plain_ms.push(t / 1e6);
        }
    });
    ctx.rec.set_enabled(true);

    let mut traced: Vec<(f64, TraceReport, u64)> = Vec::new();
    let mut roundtrip_us = Vec::new();
    let mut rep = 0;
    repeat_for(share, 2, || {
        rep += 1;
        ctx.rec.set_rep(rep);
        ctx.scope("repetition", |ctx| {
            let start = Instant::now();
            trace::reset();
            let proof = ctx.scope("prove", |_| ready.case.prove());
            let report = trace::snapshot();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let Some(proof) = ctx.out.check_ok("traced prove", proof) else {
                return;
            };
            traced.push((ms, report, C::grind_attempts(&proof)));

            let bytes = ctx.scope("to_bytes", |_| C::to_bytes(&proof));
            ctx.out.check(bytes == ready.reference, || {
                "traced proof bytes differ from the first repetition's".to_string()
            });
            let (again, t) = ctx.scope("reserialize", |_| time_ns(|| C::reserialize(&bytes)));
            roundtrip_us.push(t / 1e3);
            let again = ctx.out.check_ok("from_bytes", again);
            ctx.out.check(again.as_ref() == Some(&bytes), || {
                "parse and serialize changed the proof bytes".to_string()
            });
            let verified = ctx.scope("verify", |_| ready.case.verify(&proof));
            ctx.out.check_ok("verify", verified);
        });
    });
    ctx.rec.set_rep(0);
    if plain_ms.is_empty() || traced.is_empty() {
        fatal("no proof was produced in the traced pass");
    }

    // Report the repetition with the median time, so one slow repetition
    // does not become the split.
    traced.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (traced_ms, report, grind_attempts) = &traced[traced.len() / 2];
    tracerows::record(ctx, report, traced_ms * 1e6);
    ctx.metric("fri.grind_attempts", "count", *grind_attempts as f64);
    if let Some(row) = C::SERIALIZE_ROW {
        ctx.metric_n(row, "us", median(&roundtrip_us), roundtrip_us.len());
    }
    let plain = median(&plain_ms);
    println!(
        "{:<20} untraced prove p50 {plain:.3} ms (n={})",
        ctx.workload,
        plain_ms.len()
    );
    ctx.metric(
        "bench.trace_overhead_pct",
        "%",
        (traced_ms - plain) / plain * 100.0,
    );
    ready.case.layer_rows(ctx);
}

/// The Goldilocks Starky workloads.
pub fn stark_gl(ctx: &mut Ctx, log_rows: usize, params: &Params) {
    let config = if ctx.smoke {
        StarkConfig::for_testing()
    } else {
        StarkConfig::standard()
    };
    run(ctx, params, |_| StarkCase::new(log_rows, config));
}

/// The KoalaBear Starky workload.
pub fn stark_kb(ctx: &mut Ctx, log_rows: usize, params: &Params) {
    let config = if ctx.smoke {
        unizk_stark::KbStarkConfig::for_testing_over()
    } else {
        unizk_stark::KbStarkConfig::standard_over()
    };
    run(ctx, params, |_| StarkCase::new(log_rows, config));
}
