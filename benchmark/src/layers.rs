//! The kernel pass: public functions of `field`, `ntt`, `hash` and `fri`
//! timed from outside on vectors generated from the seed. These rows are
//! unit costs (ns per multiplication, butterfly, permutation, leaf), so a
//! layer change can be told from a protocol change; where a crate counts
//! its own work (`ntt.butterflies`, `*.permutations`), time is divided by
//! that counter rather than by a number computed here.

use std::hint::black_box;

use unizk_field::{
    batch_inverse, parallel_map, set_parallelism, Ext2, ExtensionOf, Field, Goldilocks, KbExt4,
    KoalaBear, Polynomial, PrimeField64, ProtocolField,
};
use unizk_fri::{fri_prove, fri_verify, grind, FriConfig, PolynomialBatch};
use unizk_hash::{
    hash_many, two_to_one, two_to_one_with, Challenger, Digest, GenericMerkleTree, MerkleTree,
    Poseidon2KbSponge, SpongeBackend,
};
use unizk_testkit::trace;
use unizk_testkit::TestRng;

use crate::ctx::Ctx;
use crate::stats::{median_ns, time_ns};

/// Seed-driven input vectors; everything drawn is absorbed into the
/// workload's input fingerprint.
struct Gen<'a> {
    rng: TestRng,
    ctx: &'a mut Ctx,
}

impl Gen<'_> {
    fn elem<F: PrimeField64>(&mut self) -> F {
        let x = F::random(&mut self.rng);
        self.ctx.inputs.word(x.as_u64());
        x
    }

    fn nonzero<F: PrimeField64>(&mut self) -> F {
        loop {
            let x = self.elem::<F>();
            if !x.is_zero() {
                return x;
            }
        }
    }

    fn vec<F: PrimeField64>(&mut self, len: usize) -> Vec<F> {
        (0..len).map(|_| self.elem()).collect()
    }

    fn ext<F: ProtocolField>(&mut self) -> F::Ext {
        let limbs: Vec<F> = (0..F::Ext::DEGREE).map(|_| self.nonzero()).collect();
        F::Ext::from_base_slice(&limbs)
    }

    fn table<F: PrimeField64>(&mut self, rows: usize, width: usize) -> Vec<Vec<F>> {
        (0..rows).map(|_| self.vec(width)).collect()
    }
}

/// Nanoseconds per multiplication in a chain of `ops` dependent ones.
fn mul_chain_ns<E: Field>(x: E, y: E, ops: usize) -> f64 {
    median_ns(3, || {
        let (mut acc, y) = (black_box(x), black_box(y));
        for _ in 0..ops {
            acc *= y;
        }
        black_box(acc);
    }) / ops as f64
}

/// Runs `f` on one thread and on all cores; returns the speed-up.
fn speedup(nproc: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    set_parallelism(1);
    let serial = median_ns(reps, &mut f);
    set_parallelism(nproc);
    let parallel = median_ns(reps, &mut f);
    serial / parallel
}

/// Time of `f` divided by what `counter` counted while it ran.
fn ns_per_counted(counter: &str, f: impl FnOnce()) -> (f64, u64) {
    trace::reset();
    let ((), t) = time_ns(f);
    let counted = trace::snapshot().counter(counter);
    (t / counted.max(1) as f64, counted)
}

/// First transform of this process: builds the twiddle tables its size
/// needs. Call before anything else has run an NTT.
pub fn twiddle_cold(ctx: &mut Ctx) {
    let n = 1 << ctx.size(16, 8);
    let mut values: Vec<Goldilocks> = (0..n as u64).map(Goldilocks::from_u64).collect();
    let ((), cold) = time_ns(|| unizk_ntt::ntt_nn(&mut values));
    ctx.metric("ntt.twiddle_cold_ms", "ms", cold / 1e6);
}

/// The kernel pass. Leaves `set_parallelism` at one thread.
pub fn run(ctx: &mut Ctx) {
    let token = ctx.rec.open("layers");
    let nproc = ctx.nproc;
    set_parallelism(1);
    let rng = TestRng::seed_from_u64(ctx.seed ^ 0x6c61_7965_7273); // "layers"
    let mut gen = Gen { rng, ctx };
    field_rows(&mut gen, nproc);
    ntt_rows(&mut gen, nproc);
    hash_rows(&mut gen, nproc);
    fri_rows(&mut gen);
    set_parallelism(1);
    ctx.rec.close(token);
}

fn field_rows(gen: &mut Gen<'_>, nproc: usize) {
    let ops = 1 << gen.ctx.size(22, 12);
    let (x, y) = (gen.nonzero::<Goldilocks>(), gen.nonzero::<Goldilocks>());
    gen.ctx
        .metric("field.gl_mul_ns", "ns", mul_chain_ns(x, y, ops));
    let (x, y) = (gen.ext::<Goldilocks>(), gen.ext::<Goldilocks>());
    gen.ctx
        .metric("field.ext2_mul_ns", "ns", mul_chain_ns::<Ext2>(x, y, ops));
    let (x, y) = (gen.nonzero::<KoalaBear>(), gen.nonzero::<KoalaBear>());
    gen.ctx
        .metric("field.kb_mul_ns", "ns", mul_chain_ns(x, y, ops));
    let (x, y) = (gen.ext::<KoalaBear>(), gen.ext::<KoalaBear>());
    gen.ctx.metric(
        "field.kbext4_mul_ns",
        "ns",
        mul_chain_ns::<KbExt4>(x, y, ops),
    );

    let len = 1 << gen.ctx.size(18, 10);
    let values: Vec<Goldilocks> = (0..len).map(|_| gen.nonzero()).collect();
    let t = median_ns(3, || {
        black_box(batch_inverse(black_box(&values)));
    });
    gen.ctx
        .metric("field.gl_batch_inv_ns_per_elem", "ns", t / len as f64);

    // A fixed kernel over 64 items: what `parallel_map` itself delivers.
    let chain = 1 << gen.ctx.size(15, 8);
    let seeds: Vec<Goldilocks> = (0..64).map(|_| gen.nonzero()).collect();
    let gain = speedup(nproc, 5, || {
        black_box(parallel_map(seeds.clone(), |x| {
            let mut acc = x;
            for _ in 0..chain {
                acc *= x;
            }
            acc
        }));
    });
    gen.ctx
        .metric("field.par_efficiency", "ratio", gain / nproc as f64);
    set_parallelism(1);
}

fn ntt_rows(gen: &mut Gen<'_>, nproc: usize) {
    let n = 1 << gen.ctx.size(16, 8);
    let mut gl: Vec<Goldilocks> = gen.vec(n);
    let mut kb: Vec<KoalaBear> = gen.vec(n);
    unizk_ntt::ntt_nn(&mut kb); // twiddles for this field and size
    let (per_butterfly, _) = ns_per_counted("ntt.butterflies", || {
        for _ in 0..8 {
            unizk_ntt::ntt_nn(&mut gl);
        }
    });
    gen.ctx
        .metric("ntt.gl_ns_per_butterfly", "ns", per_butterfly);
    let (per_butterfly, _) = ns_per_counted("ntt.butterflies", || {
        for _ in 0..8 {
            unizk_ntt::ntt_nn(&mut kb);
        }
    });
    gen.ctx
        .metric("ntt.kb_ns_per_butterfly", "ns", per_butterfly);

    // The wires commitment of `plonk_fib_gl`: 135 columns, 2^12 -> 2^15.
    let (log_rows, width) = (gen.ctx.size(12, 6), gen.ctx.size(135, 9));
    let columns: Vec<Vec<Goldilocks>> = gen.table(width, 1 << log_rows);
    let shift = unizk_fri::batch::coset_shift::<Goldilocks>();
    let t = median_ns(3, || {
        for column in &columns {
            black_box(unizk_ntt::lde(column, 3, shift));
        }
    });
    gen.ctx.metric(
        "ntt.gl_lde_ns_per_elem",
        "ns",
        t / (width << (log_rows + 3)) as f64,
    );

    let rows = 1 << gen.ctx.size(14, 6);
    let flat: Vec<Goldilocks> = (0..rows * width)
        .map(|i| columns[i % width][i % columns[0].len()])
        .collect();
    let t = median_ns(3, || {
        black_box(unizk_ntt::transpose(black_box(&flat), rows, width));
    });
    gen.ctx
        .metric("ntt.transpose_ns_per_elem", "ns", t / flat.len() as f64);

    let mut big: Vec<Goldilocks> = gen.vec(1 << gen.ctx.size(18, 10));
    unizk_ntt::ntt_nn(&mut big);
    let gain = speedup(nproc, 5, || unizk_ntt::ntt_nn(&mut big));
    gen.ctx.metric("ntt.gl_mt_speedup", "ratio", gain);
    set_parallelism(1);
}

fn hash_rows(gen: &mut Gen<'_>, nproc: usize) {
    let inputs: Vec<Vec<Goldilocks>> = gen.table(1 << gen.ctx.size(14, 8), 8);
    let slices: Vec<&[Goldilocks]> = inputs.iter().map(Vec::as_slice).collect();
    let (per_perm, _) = ns_per_counted("poseidon.permutations", || {
        black_box(hash_many(&slices));
    });
    gen.ctx
        .metric("hash.poseidon_batch_ns_per_perm", "ns", per_perm);

    let chain = 1 << gen.ctx.size(14, 8);
    let start = Digest::<Goldilocks>([gen.elem(), gen.elem(), gen.elem(), gen.elem()]);
    let (per_perm, _) = ns_per_counted("poseidon.permutations", || {
        let mut digest = start;
        for _ in 0..chain {
            digest = two_to_one(digest, start);
        }
        black_box(digest);
    });
    gen.ctx
        .metric("hash.poseidon_scalar_ns_per_perm", "ns", per_perm);
    let start = Digest::<KoalaBear>([gen.elem(), gen.elem(), gen.elem(), gen.elem()]);
    let (per_perm, _) = ns_per_counted(Poseidon2KbSponge::COUNTER, || {
        let mut digest = start;
        for _ in 0..chain {
            digest = two_to_one_with::<Poseidon2KbSponge>(digest, start);
        }
        black_box(digest);
    });
    gen.ctx
        .metric("hash.poseidon2_kb_ns_per_perm", "ns", per_perm);

    // Narrow leaves: the Starky trace commitment of `stark_narrow_gl`.
    let narrow: Vec<Vec<Goldilocks>> = gen.table(1 << gen.ctx.size(17, 8), 2);
    let (tree, t) = time_ns(|| MerkleTree::new(narrow.clone()));
    gen.ctx.metric(
        "hash.merkle_narrow_ns_per_leaf",
        "ns",
        t / narrow.len() as f64,
    );

    let opens = gen.ctx.size(1024, 16);
    let indices: Vec<usize> = (0..opens)
        .map(|_| gen.rng.gen_range(0..narrow.len()))
        .collect();
    let root = tree.root();
    let (all_ok, t) = time_ns(|| {
        indices
            .iter()
            .all(|&i| MerkleTree::verify(root, i, tree.leaf(i), &tree.prove(i)))
    });
    gen.ctx
        .out
        .check(all_ok, || "a Merkle opening did not verify".to_string());
    gen.ctx
        .metric("hash.merkle_open_verify_ns", "ns", t / opens as f64);

    let gain = speedup(nproc, 3, || {
        black_box(MerkleTree::new(narrow.clone()));
    });
    gen.ctx.metric("hash.merkle_mt_speedup", "ratio", gain);
    set_parallelism(1);
    drop((tree, narrow));

    // Wide leaves: the wires commitment of `plonk_fib_gl`.
    let wide: Vec<Vec<Goldilocks>> = gen.table(1 << gen.ctx.size(15, 6), gen.ctx.size(135, 9));
    let leaves = wide.len();
    let (per_perm, perms) = ns_per_counted("poseidon.permutations", || {
        black_box(MerkleTree::new(wide));
    });
    gen.ctx.metric(
        "hash.merkle_wide_ns_per_leaf",
        "ns",
        per_perm * perms as f64 / leaves as f64,
    );
    gen.ctx.metric(
        "hash.merkle_wide_perms_per_leaf",
        "count",
        perms as f64 / leaves as f64,
    );

    let kb: Vec<Vec<KoalaBear>> = gen.table(1 << gen.ctx.size(15, 8), 2);
    let leaves = kb.len();
    let ((), t) = time_ns(|| {
        black_box(GenericMerkleTree::<Poseidon2KbSponge>::new(kb));
    });
    gen.ctx
        .metric("hash.merkle_kb_ns_per_leaf", "ns", t / leaves as f64);
}

fn fri_rows(gen: &mut Gen<'_>) {
    // Grinding as throughput: 32 transcripts, time over attempts, so the
    // luck of where each winning nonce falls cancels out.
    let bits = gen.ctx.size(12, 6);
    let challengers: Vec<Challenger> = (0..32)
        .map(|_| {
            let mut challenger = Challenger::new();
            challenger.observe_slice(&gen.vec::<Goldilocks>(4));
            challenger
        })
        .collect();
    let (per_attempt, _) = ns_per_counted("poseidon.permutations", || {
        for challenger in &challengers {
            black_box(grind(challenger, bits));
        }
    });
    gen.ctx
        .metric("fri.grind_ns_per_attempt", "ns", per_attempt);

    let config = FriConfig::starky();
    let (log_rows, width) = (gen.ctx.size(15, 8), 8);
    let columns: Vec<Vec<Goldilocks>> = gen.table(width, 1 << log_rows);
    let (batch, t) = time_ns(|| PolynomialBatch::from_values(columns, &config));
    gen.ctx
        .metric("fri.commit_ns_per_leaf", "ns", t / batch.lde_size() as f64);
    drop(batch);

    let degree = 1 << gen.ctx.size(14, 8);
    let polys: Vec<Polynomial<Goldilocks>> = (0..4)
        .map(|_| Polynomial::from_coeffs(gen.vec(degree)))
        .collect();
    let batch = PolynomialBatch::from_coeffs(polys, &config);
    let zeta = gen.ext::<Goldilocks>();
    let transcript = || {
        let mut challenger = Challenger::new();
        challenger.observe_digest(batch.root());
        challenger
    };
    let (proof, t) = time_ns(|| fri_prove(&[&batch], &[zeta], &mut transcript(), &config));
    gen.ctx.metric("fri.prove_ms", "ms", t / 1e6);
    let (verified, t) = time_ns(|| {
        let roots = [batch.root()];
        fri_verify(
            &roots,
            &[batch.num_polys()],
            degree,
            &[zeta],
            &proof,
            &mut transcript(),
            &config,
        )
    });
    gen.ctx.out.check_ok("fri_verify", verified);
    gen.ctx.metric("fri.verify_ms", "ms", t / 1e6);
}
