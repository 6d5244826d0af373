//! Sponge hashing and the duplex challenger for Fiat–Shamir transforms.
//!
//! Plonky2 hashes arbitrary-length inputs with the "absorb" method (paper
//! §5.3): chunks of `RATE` elements overwrite the state prefix, followed
//! by a permutation. The challenger is a duplex construction that
//! alternately absorbs protocol messages and squeezes verifier randomness —
//! the "Get Challenges" nodes in the paper's Fig. 7 computation graph.
//!
//! Everything here is generic over a [`SpongeBackend`]: the permutation,
//! its width/rate, and — through the backend's associated field type — the
//! base field itself. The Goldilocks proof path runs [`PoseidonSponge`]
//! (width 12, rate 8); the KoalaBear path runs
//! [`crate::poseidon2_kb::Poseidon2KbSponge`] (width 16, rate 8). The
//! concrete [`Challenger`] / [`hash_no_pad`] names are aliases and
//! wrappers over the Goldilocks instantiation, so the pre-generic API (and
//! its exact trace-counter accounting) is unchanged.

use unizk_field::{ExtensionOf, Field, Goldilocks, PrimeField64, ProtocolField};

use crate::digest::Digest;
use crate::poseidon::{poseidon_permute, NoncePermutation, SPONGE_RATE, WIDTH};

/// A cryptographic permutation a sponge can be built over, together with
/// the base field it permutes.
///
/// The Goldilocks proof path runs [`PoseidonSponge`]; the trait exists so
/// the KoalaBear-field [`crate::poseidon2_kb::Poseidon2KbSponge`] — a
/// different field, width and round structure — plugs into the same
/// absorb/compress dispatchers, including the batched ones, without
/// touching the protocol code. Implementations
/// must keep [`SpongeBackend::permute_batch`] bit-identical to a loop of
/// [`SpongeBackend::permute`]; the conformance suite checks this for every
/// shipped backend.
pub trait SpongeBackend {
    /// The base field the permutation operates on.
    type F: HashField;
    /// The permutation state: `[Self::F; WIDTH]` in practice, abstracted
    /// so backends of different widths share the dispatchers.
    type State: Copy + Clone + Send + Sync + core::fmt::Debug + AsRef<[Self::F]> + AsMut<[Self::F]>;
    /// Sponge state width in field elements.
    const WIDTH: usize;
    /// Absorption rate in field elements (the capacity is `WIDTH - RATE`).
    const RATE: usize;
    /// Human-readable backend name.
    const NAME: &'static str;
    /// Trace-counter key for logical permutation counts.
    const COUNTER: &'static str;

    /// The all-zero state.
    fn zeroed() -> Self::State;

    /// Applies the permutation to one sponge state in place.
    fn permute(state: &mut Self::State);

    /// Applies the permutation to a batch of independent sponge states,
    /// however the backend likes to walk them. The results must be
    /// bit-identical to a loop of [`SpongeBackend::permute`], and trace
    /// counters are the caller's responsibility (batched dispatchers
    /// account logical permutations once, not per strategy).
    fn permute_batch(states: &mut [Self::State]);

    /// A frozen "state + pending-lane" snapshot for speculative squeezes —
    /// the per-candidate kernel of the proof-of-work grind. Backends with
    /// hoistable round structure (Poseidon's [`NoncePermutation`]) cache
    /// the static lanes' first-round work here; others store the raw state.
    type Speculative: Clone + Send + Sync + core::fmt::Debug;

    /// Freezes `state` (with any pending transcript elements already
    /// written into its prefix) for candidates injected at lane `pending`.
    fn speculative(state: &Self::State, pending: usize) -> Self::Speculative;

    /// Speculative squeezes of any number of candidates: `out[l]` is the
    /// value of `state[RATE - 1]` after a permutation with candidate `xs[l]`
    /// at the pending lane, bit-identical to writing it and running
    /// [`SpongeBackend::permute`]. How many candidates walk the rounds in
    /// lockstep is the backend's own business, as it is for
    /// [`SpongeBackend::permute_batch`]; a caller that wants whole groups
    /// hands over a multiple of 16. No trace counter is bumped — callers
    /// account logical attempts.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    fn speculative_rows(spec: &Self::Speculative, xs: &[Self::F], out: &mut [Self::F]);
}

/// A base field wired into the hashing layer: knows its default sponge.
///
/// This is the type-level switch that picks the whole `(field, hasher)`
/// stack: `StarkConfig<Goldilocks>` resolves to Poseidon over Goldilocks,
/// `StarkConfig<KoalaBear>` to Poseidon2 over KoalaBear.
pub trait HashField: ProtocolField {
    /// The field's default sponge backend.
    type Sponge: SpongeBackend<F = Self>;
}

impl HashField for Goldilocks {
    type Sponge = PoseidonSponge;
}

impl HashField for unizk_field::KoalaBear {
    type Sponge = crate::poseidon2_kb::Poseidon2KbSponge;
}

/// The default backend: the Poseidon permutation over the constants of
/// [`crate::poseidon`], on the round kernels of [`crate::packed`] — one
/// lane for a single state, groups of 32 and 8 on vector rows (8 on array
/// rows) for a batch or the grind's candidates.
#[derive(Clone, Copy, Debug)]
pub struct PoseidonSponge;

impl SpongeBackend for PoseidonSponge {
    type F = Goldilocks;
    type State = [Goldilocks; WIDTH];
    const WIDTH: usize = WIDTH;
    const RATE: usize = SPONGE_RATE;
    const NAME: &'static str = "poseidon";
    const COUNTER: &'static str = "poseidon.permutations";

    fn zeroed() -> Self::State {
        [Goldilocks::ZERO; WIDTH]
    }

    fn permute(state: &mut Self::State) {
        poseidon_permute(state);
    }

    fn permute_batch(states: &mut [Self::State]) {
        crate::packed::permute_batch(states);
    }

    type Speculative = NoncePermutation;

    fn speculative(state: &Self::State, pending: usize) -> NoncePermutation {
        NoncePermutation::new(state, pending)
    }

    /// The hoisted-nonce kernel in the groups of
    /// [`NoncePermutation::permute_many_row`]: 32 candidates per walk on
    /// vector rows, 8 on array rows, a remainder one at a time.
    fn speculative_rows(spec: &NoncePermutation, xs: &[Goldilocks], out: &mut [Goldilocks]) {
        spec.permute_many_row_into(xs, out, SPONGE_RATE - 1);
    }
}

/// The digest a sponge state squeezes: its first four elements.
fn squeeze_digest<B: SpongeBackend>(state: &B::State) -> Digest<B::F> {
    let s = state.as_ref();
    Digest([s[0], s[1], s[2], s[3]])
}

/// Absorbs `input` into a zero state with backend `B`, without touching
/// trace counters (callers account logical permutations).
fn absorb_no_pad<B: SpongeBackend>(input: &[B::F]) -> Digest<B::F> {
    let mut state = B::zeroed();
    for chunk in input.chunks(B::RATE) {
        state.as_mut()[..chunk.len()].copy_from_slice(chunk);
        B::permute(&mut state);
    }
    squeeze_digest::<B>(&state)
}

/// [`hash_no_pad`] over an arbitrary sponge backend (and hence an
/// arbitrary base field).
pub fn hash_no_pad_with<B: SpongeBackend>(input: &[B::F]) -> Digest<B::F> {
    unizk_testkit::trace::counter(B::COUNTER, input.len().div_ceil(B::RATE) as u64);
    absorb_no_pad::<B>(input)
}

/// Hashes a slice of field elements to a [`Digest`] with the absorb method,
/// no padding (lengths are fixed by the protocol, as in Plonky2).
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
/// use unizk_hash::hash_no_pad;
///
/// let a = hash_no_pad(&[Goldilocks::ONE]);
/// let b = hash_no_pad(&[Goldilocks::TWO]);
/// assert_ne!(a, b);
/// ```
pub fn hash_no_pad(input: &[Goldilocks]) -> Digest {
    hash_no_pad_with::<PoseidonSponge>(input)
}

/// Number of Poseidon permutations [`hash_no_pad`] performs for an input of
/// `len` elements — the unit the simulator's Merkle cost model charges.
/// (Both shipped sponge widths share `RATE = 8`, so the count is
/// field-independent.)
pub fn permutation_count(len: usize) -> usize {
    len.div_ceil(SPONGE_RATE).max(1)
}

/// [`two_to_one`] over an arbitrary sponge backend.
pub fn two_to_one_with<B: SpongeBackend>(left: Digest<B::F>, right: Digest<B::F>) -> Digest<B::F> {
    unizk_testkit::trace::counter(B::COUNTER, 1);
    let mut state = B::zeroed();
    state.as_mut()[..4].copy_from_slice(&left.0);
    state.as_mut()[4..8].copy_from_slice(&right.0);
    B::permute(&mut state);
    squeeze_digest::<B>(&state)
}

/// Hashes two child digests into a parent digest: 4 + 4 elements, zero
/// padded to a full state (paper §5.3).
pub fn two_to_one(left: Digest, right: Digest) -> Digest {
    two_to_one_with::<PoseidonSponge>(left, right)
}

/// Hashes many inputs with backend `B` in one batched dispatch: runs of
/// equal-length inputs absorb in lockstep through
/// [`SpongeBackend::permute_batch`], so lane-packed backends permute 8, 16
/// or 32 sponges per schedule walk instead of one.
///
/// Digest-for-digest identical to mapping [`hash_no_pad_with`] over
/// `inputs`, with the identical total `B::COUNTER` accounting (counted
/// once per logical permutation, independent of lane width or batch
/// grouping).
pub fn hash_many_with<B: SpongeBackend>(inputs: &[&[B::F]]) -> Vec<Digest<B::F>> {
    let total: u64 = inputs
        .iter()
        .map(|input| input.len().div_ceil(B::RATE) as u64)
        .sum();
    unizk_testkit::trace::counter(B::COUNTER, total);

    let mut out = Vec::with_capacity(inputs.len());
    let mut i = 0;
    while i < inputs.len() {
        let len = inputs[i].len();
        let mut j = i + 1;
        while j < inputs.len() && inputs[j].len() == len {
            j += 1;
        }
        hash_equal_run::<B>(&inputs[i..j], len, &mut out);
        i = j;
    }
    out
}

/// States the batched absorbers hand to one
/// [`SpongeBackend::permute_batch`] dispatch — 6 KiB of Poseidon state in
/// two 32-lane vector groups (eight 8-lane array groups), 4 KiB of
/// Poseidon2 state in four 16-lane groups — held on the stack. A run is
/// walked in blocks of this size instead of allocating one state per
/// input — for a 2^16-leaf level that was 6.3 MB written, permuted and
/// read back once, the largest transient of a proof.
const DISPATCH_BLOCK: usize = 64;

/// Absorbs a run of equal-length inputs in lockstep, [`DISPATCH_BLOCK`] at
/// a time.
fn hash_equal_run<B: SpongeBackend>(run: &[&[B::F]], len: usize, out: &mut Vec<Digest<B::F>>) {
    if run.len() < 2 || len == 0 {
        out.extend(run.iter().map(|input| absorb_no_pad::<B>(input)));
        return;
    }
    let mut states = [B::zeroed(); DISPATCH_BLOCK];
    for block in run.chunks(DISPATCH_BLOCK) {
        let states = &mut states[..block.len()];
        states.fill(B::zeroed());
        let mut pos = 0;
        while pos < len {
            let take = (len - pos).min(B::RATE);
            for (state, input) in states.iter_mut().zip(block.iter()) {
                state.as_mut()[..take].copy_from_slice(&input[pos..pos + take]);
            }
            B::permute_batch(states);
            pos += take;
        }
        out.extend(states.iter().map(squeeze_digest::<B>));
    }
}

/// [`hash_many_with`] over the default Poseidon backend.
pub fn hash_many(inputs: &[&[Goldilocks]]) -> Vec<Digest> {
    hash_many_with::<PoseidonSponge>(inputs)
}

/// Compresses one interior Merkle level in a single batched dispatch:
/// digest pairs `(prev[2k], prev[2k+1])` become parents via the same
/// 4+4+zero-pad rule as [`two_to_one_with`], absorbed in lockstep through
/// [`SpongeBackend::permute_batch`].
///
/// Digest-for-digest and counter-for-counter identical to mapping
/// [`two_to_one_with`] over the pairs.
///
/// # Panics
///
/// Panics if `prev.len()` is odd.
pub fn compress_level_with<B: SpongeBackend>(prev: &[Digest<B::F>]) -> Vec<Digest<B::F>> {
    assert!(prev.len().is_multiple_of(2), "pair compression needs an even level");
    let n = prev.len() / 2;
    unizk_testkit::trace::counter(B::COUNTER, n as u64);
    let mut out = Vec::with_capacity(n);
    let mut states = [B::zeroed(); DISPATCH_BLOCK];
    for block in prev.chunks(2 * DISPATCH_BLOCK) {
        let states = &mut states[..block.len() / 2];
        for (state, pair) in states.iter_mut().zip(block.chunks_exact(2)) {
            *state = B::zeroed();
            state.as_mut()[..4].copy_from_slice(&pair[0].0);
            state.as_mut()[4..8].copy_from_slice(&pair[1].0);
        }
        B::permute_batch(states);
        out.extend(states.iter().map(squeeze_digest::<B>));
    }
    out
}

/// A duplex-sponge transcript for the Fiat–Shamir transform, generic over
/// the sponge backend (and hence the field).
///
/// Both prover and verifier drive an identical challenger with the same
/// observations; the squeezed challenges then agree, making the protocol
/// non-interactive. The Goldilocks instantiation is aliased as
/// [`Challenger`].
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
/// use unizk_hash::Challenger;
///
/// let mut prover = Challenger::new();
/// prover.observe(Goldilocks::from_u64(99));
/// let c1 = prover.challenge();
///
/// let mut verifier = Challenger::new();
/// verifier.observe(Goldilocks::from_u64(99));
/// assert_eq!(c1, verifier.challenge());
/// ```
#[derive(Clone, Debug)]
pub struct GenericChallenger<B: SpongeBackend> {
    state: B::State,
    input_buffer: Vec<B::F>,
    output_buffer: Vec<B::F>,
}

/// The default (Goldilocks, Poseidon) transcript.
pub type Challenger = GenericChallenger<PoseidonSponge>;

impl<B: SpongeBackend> Default for GenericChallenger<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: SpongeBackend> GenericChallenger<B> {
    /// A fresh transcript with zero state.
    pub fn new() -> Self {
        Self {
            state: B::zeroed(),
            input_buffer: Vec::new(),
            output_buffer: Vec::new(),
        }
    }

    /// Absorbs one field element.
    pub fn observe(&mut self, x: B::F) {
        // New inputs invalidate any cached outputs.
        self.output_buffer.clear();
        self.input_buffer.push(x);
        if self.input_buffer.len() == B::RATE {
            self.duplex();
        }
    }

    /// Absorbs a slice of elements.
    pub fn observe_slice(&mut self, xs: &[B::F]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Absorbs a digest (e.g. a Merkle cap entry).
    pub fn observe_digest(&mut self, d: Digest<B::F>) {
        self.observe_slice(&d.0);
    }

    /// Absorbs an extension-field element limb by limb, lowest first.
    pub fn observe_ext(&mut self, x: <B::F as ProtocolField>::Ext) {
        self.observe_slice(x.as_base_slice());
    }

    /// Squeezes one base-field challenge.
    pub fn challenge(&mut self) -> B::F {
        if !self.input_buffer.is_empty() || self.output_buffer.is_empty() {
            self.duplex();
        }
        self.output_buffer
            .pop()
            .expect("duplex always refills the output buffer")
    }

    /// Squeezes `n` base-field challenges.
    pub fn challenges(&mut self, n: usize) -> Vec<B::F> {
        (0..n).map(|_| self.challenge()).collect()
    }

    /// Squeezes one extension-field challenge (`DEGREE` base challenges,
    /// lowest limb first).
    pub fn challenge_ext(&mut self) -> <B::F as ProtocolField>::Ext {
        let limbs = self.challenges(<B::F as ProtocolField>::Ext::DEGREE);
        <B::F as ProtocolField>::Ext::from_base_slice(&limbs)
    }

    /// Squeezes challenge bits for query-index sampling: a base challenge
    /// reduced to `bits` low bits.
    pub fn challenge_bits(&mut self, bits: usize) -> usize {
        assert!(
            bits < B::F::BITS,
            "at most {} challenge bits from one {} element",
            B::F::BITS - 1,
            B::NAME
        );
        usize::try_from(self.challenge().as_u64() & ((1 << bits) - 1))
            .expect("query-index bits fit usize")
    }

    /// Freezes the transcript for loops that ask "what would
    /// `{ let mut t = self.clone(); t.observe(x); t.challenge() }` return?"
    /// of many candidates `x` — the FRI grind — without cloning the
    /// transcript or touching the heap per candidate.
    ///
    /// Correctness: after any public-API call the input buffer holds
    /// `k <= RATE - 1` pending elements, so observing one more element
    /// followed by a squeeze performs exactly one duplex — either inside
    /// `observe` (`k == RATE - 1` fills the rate) or inside `challenge`
    /// (`k < RATE - 1` leaves the input buffer non-empty) — absorbing
    /// `pending ++ [x]` over the state prefix and popping the last rate
    /// element. Every candidate therefore sees the identical permutation
    /// input except lane `k`, and backends may hoist the static lanes'
    /// first-round work once into their [`SpongeBackend::Speculative`]
    /// snapshot (Poseidon's [`NoncePermutation`]).
    pub fn speculative_challenger(&self) -> GenericSpeculativeChallenger<B> {
        let mut state = self.state;
        state.as_mut()[..self.input_buffer.len()].copy_from_slice(&self.input_buffer);
        GenericSpeculativeChallenger {
            spec: B::speculative(&state, self.input_buffer.len()),
        }
    }

    fn duplex(&mut self) {
        unizk_testkit::trace::counter(B::COUNTER, 1);
        for (i, x) in self.input_buffer.drain(..).enumerate() {
            debug_assert!(i < B::RATE);
            self.state.as_mut()[i] = x;
        }
        B::permute(&mut self.state);
        self.output_buffer.clear();
        self.output_buffer.extend_from_slice(&self.state.as_ref()[..B::RATE]);
    }
}

/// A frozen transcript state that can answer "what challenge would `x`
/// produce?" for many candidate `x` — see
/// [`GenericChallenger::speculative_challenger`]. Holds no reference to
/// the challenger it came from; it captures the transcript state by value.
#[derive(Clone, Debug)]
pub struct GenericSpeculativeChallenger<B: SpongeBackend> {
    spec: B::Speculative,
}

impl<B: SpongeBackend> GenericSpeculativeChallenger<B> {
    /// The challenges the source transcript would emit after observing
    /// each of `LANES` candidates, permuted in lockstep — the per-attempt
    /// kernel of the grind.
    ///
    /// Lane `l` equals `{ let mut t = source.clone(); t.observe(xs[l]);
    /// t.challenge() }` bit-for-bit, but where that reference bumps
    /// `B::COUNTER` once per candidate, **no trace counter is bumped**
    /// here: grind-style callers scan past the winning nonce in blocks, so
    /// they account the *logical* attempt count (`winner + 1`) once at the
    /// end — the count-once discipline of the `ntt.*` counters — keeping
    /// `B::COUNTER` byte-identical to the serial scan for every lane width,
    /// block size, and thread count.
    pub fn challenge_batch_uncounted<const LANES: usize>(
        &self,
        xs: &[B::F; LANES],
    ) -> [B::F; LANES] {
        let mut out = [B::F::ZERO; LANES];
        B::speculative_rows(&self.spec, xs, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unizk_field::Ext2;

    fn g(n: u64) -> Goldilocks {
        Goldilocks::from_u64(n)
    }

    #[test]
    fn hash_no_pad_is_deterministic_and_sensitive() {
        let input: Vec<Goldilocks> = (0..135u64).map(g).collect();
        let d1 = hash_no_pad(&input);
        let d2 = hash_no_pad(&input);
        assert_eq!(d1, d2);

        let mut tweaked = input.clone();
        tweaked[134] += Goldilocks::ONE;
        assert_ne!(hash_no_pad(&tweaked), d1);

        // Length sensitivity within the same rate block.
        assert_ne!(hash_no_pad(&input[..8]), hash_no_pad(&input[..9]));
    }

    #[test]
    fn permutation_count_matches_absorb_rule() {
        assert_eq!(permutation_count(0), 1);
        assert_eq!(permutation_count(1), 1);
        assert_eq!(permutation_count(8), 1);
        assert_eq!(permutation_count(9), 2);
        // The paper's leaf example: 135 elements -> ceil(135/8) = 17.
        assert_eq!(permutation_count(135), 17);
    }

    #[test]
    fn two_to_one_is_order_sensitive() {
        let a = hash_no_pad(&[g(1)]);
        let b = hash_no_pad(&[g(2)]);
        assert_ne!(two_to_one(a, b), two_to_one(b, a));
    }

    #[test]
    fn challenger_reproducible_across_instances() {
        let mut c1 = Challenger::new();
        let mut c2 = Challenger::new();
        for i in 0..20u64 {
            c1.observe(g(i));
            c2.observe(g(i));
        }
        assert_eq!(c1.challenges(5), c2.challenges(5));
    }

    #[test]
    fn challenger_diverges_on_different_transcripts() {
        let mut c1 = Challenger::new();
        let mut c2 = Challenger::new();
        c1.observe(g(1));
        c2.observe(g(2));
        assert_ne!(c1.challenge(), c2.challenge());
    }

    #[test]
    fn challenger_observation_order_matters() {
        let mut c1 = Challenger::new();
        c1.observe(g(1));
        c1.observe(g(2));
        let mut c2 = Challenger::new();
        c2.observe(g(2));
        c2.observe(g(1));
        assert_ne!(c1.challenge(), c2.challenge());
    }

    #[test]
    fn challenge_then_observe_then_challenge() {
        // Interleaved duplexing: later challenges must depend on the new
        // observation.
        let mut c1 = Challenger::new();
        c1.observe(g(7));
        let first = c1.challenge();
        c1.observe(g(8));
        let second = c1.challenge();
        assert_ne!(first, second);

        let mut c2 = Challenger::new();
        c2.observe(g(7));
        assert_eq!(c2.challenge(), first);
        c2.observe(g(9));
        assert_ne!(c2.challenge(), second);
    }

    #[test]
    fn challenge_bits_in_range() {
        let mut c = Challenger::new();
        c.observe(g(3));
        for bits in 1..20 {
            let idx = c.challenge_bits(bits);
            assert!(idx < (1 << bits));
        }
    }

    #[test]
    fn ext_challenge_consumes_two() {
        let mut c1 = Challenger::new();
        c1.observe(g(5));
        let e = c1.challenge_ext();
        let mut c2 = Challenger::new();
        c2.observe(g(5));
        let a = c2.challenge();
        let b = c2.challenge();
        assert_eq!(e, Ext2::new([a, b]));
    }

    #[test]
    fn many_observations_spanning_blocks() {
        // More than one rate block absorbed before squeezing.
        let mut c = Challenger::new();
        for i in 0..100u64 {
            c.observe(g(i));
        }
        let ch = c.challenge();
        assert_ne!(ch, Goldilocks::ZERO);
    }

    /// The grind kernel against the reference it replaces, at every
    /// pending-buffer fill a public call can leave (0..RATE): one candidate,
    /// one short of a 16-group, a group, one over, a 32-group, and a
    /// 32-group with one, nine, sixteen and 25 behind it — whatever widths
    /// the backend walks them at — and through the array entry.
    fn check_speculative_rows<B: SpongeBackend + Clone>() {
        let f = B::F::from_u64;
        for pending in 0..B::RATE as u64 {
            let mut c = GenericChallenger::<B>::new();
            c.observe(f(99));
            let _ = c.challenge(); // drain the buffer
            for i in 0..pending {
                c.observe(f(1000 + i));
            }
            let edges = [0, 1, 5, 17, 12345, 1 << 30, 1 << 40, u64::MAX].map(f);
            let xs: Vec<B::F> = edges.into_iter().chain((0..49).map(|i| f(77 * i + pending))).collect();
            let want: Vec<B::F> = xs
                .iter()
                .map(|&x| {
                    let mut reference = c.clone();
                    reference.observe(x);
                    reference.challenge()
                })
                .collect();
            let spec = c.speculative_challenger();
            for len in [1, 15, 16, 17, 32, 33, 41, 48, 57] {
                let mut got = vec![B::F::ZERO; len];
                B::speculative_rows(&spec.spec, &xs[..len], &mut got);
                assert_eq!(got, want[..len], "{} pending={pending} len={len}", B::NAME);
            }
            assert_eq!(spec.challenge_batch_uncounted(&edges), want[..8], "{} pending={pending}", B::NAME);
            assert_eq!(spec.challenge_batch_uncounted(&[xs[3]]), [want[3]], "{} pending={pending}", B::NAME);
        }
    }

    #[test]
    fn speculative_challenge_matches_clone_observe_challenge() {
        check_speculative_rows::<PoseidonSponge>();
    }

    #[test]
    fn koalabear_challenger_duplexes() {
        use crate::poseidon2_kb::Poseidon2KbSponge;
        use unizk_field::{KbExt4, KoalaBear};

        let k = KoalaBear::from_u64;
        let mut c1 = GenericChallenger::<Poseidon2KbSponge>::new();
        let mut c2 = GenericChallenger::<Poseidon2KbSponge>::new();
        for i in 0..20u64 {
            c1.observe(k(i));
            c2.observe(k(i));
        }
        assert_eq!(c1.challenges(5), c2.challenges(5));
        // Extension challenges consume four base squeezes, lowest first.
        c1.observe(k(5));
        c2.observe(k(5));
        let e = c1.challenge_ext();
        let limbs = [c2.challenge(), c2.challenge(), c2.challenge(), c2.challenge()];
        assert_eq!(e, KbExt4::new(limbs));
    }

    #[test]
    fn koalabear_speculative_matches_reference() {
        check_speculative_rows::<crate::poseidon2_kb::Poseidon2KbSponge>();
    }

    #[test]
    fn koalabear_challenge_bits_cap_below_field_bits() {
        use crate::poseidon2_kb::Poseidon2KbSponge;
        use unizk_field::KoalaBear;

        let mut c = GenericChallenger::<Poseidon2KbSponge>::new();
        c.observe(KoalaBear::from_u64(3));
        for bits in 1..25 {
            assert!(c.challenge_bits(bits) < (1 << bits));
        }
    }
}
