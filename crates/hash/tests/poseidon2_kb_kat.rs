//! Known-answer tests for the width-16 Poseidon2 permutation over
//! KoalaBear (4 + 4 external rounds, 20 internal rounds).
//!
//! Three independent anchors pin the permutation:
//!
//! 1. **Committed golden vectors** — outputs recorded from this
//!    repository's implementation, so any future edit to the round
//!    constants, the `M_E = circ(2·M4, M4, M4, M4)` external matrix, the
//!    `J + diag(d)` internal layer, or the round schedule is a loud
//!    compatibility break.
//! 2. **A naive in-test reference implementation** — plain canonical
//!    `u64 % p` arithmetic (no Montgomery form, no shared-sum factoring),
//!    deriving its matrices from the published [`Poseidon2KbConstants`].
//!    The optimized kernel and the transparent one must agree on random
//!    states, which checks the Montgomery arithmetic end to end, not just
//!    frozen bytes.
//! 3. **A layer-by-layer differential** — the multiplication-free
//!    external layer against the dense `external_mat` product and the
//!    delayed-reduction internal layer against `J + diag(d)`, on random
//!    states and on the states that fill the `u64` overflow budget.

use unizk_field::{Field, KoalaBear, PrimeField64};
use unizk_hash::poseidon2_kb::{external_layer, internal_layer, KB_WIDTH};
use unizk_hash::poseidon2_kb_permute;
use unizk_testkit::prop::prelude::*;
use unizk_testkit::rng::SplitMix64;

/// (input description, input state, expected permutation output).
const KAT: [(&str, [u64; KB_WIDTH], [u64; KB_WIDTH]); 3] = [
    (
        "all-zero state",
        [0; KB_WIDTH],
        [
            0x27ff519c, 0x429b62f1, 0x5ea27edb, 0x51684d82, 0x3015f569, 0x2c848535, 0x0b32a263,
            0x6c3ecdf0, 0x38dad0dc, 0x0eafac0f, 0x78931227, 0x3c6ff442, 0x730f7f31, 0x32274691,
            0x7b6e2426, 0x79b71ccd,
        ],
    ),
    (
        "counting state 0..15",
        [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        [
            0x070ec9af, 0x4b15880a, 0x04781ce6, 0x4338887b, 0x0f06cfaa, 0x67ad1b76, 0x1121e578,
            0x06777e2b, 0x64f14732, 0x4ee4ce30, 0x356f39ce, 0x0f3dbd48, 0x6925f437, 0x106a92d8,
            0x53e23a5b, 0x4cf5da40,
        ],
    ),
    (
        "near-modulus descending state",
        [
            0x7f000000, 0x7effffff, 0x7efffffe, 0x7efffffd, 0x7efffffc, 0x7efffffb, 0x7efffffa,
            0x7efffff9, 0x7efffff8, 0x7efffff7, 0x7efffff6, 0x7efffff5, 0x7efffff4, 0x7efffff3,
            0x7efffff2, 0x7efffff1,
        ],
        [
            0x1f85124c, 0x548d4265, 0x11ab0666, 0x770f4cac, 0x71728dd1, 0x4935c91a, 0x4f274a52,
            0x2f0d3a87, 0x072d6f4e, 0x2f998143, 0x7969ab52, 0x70d0afcc, 0x2f0c795b, 0x1410a011,
            0x011aeb85, 0x26bee0dd,
        ],
    ),
];

#[test]
fn committed_golden_vectors() {
    for (what, input, expected) in KAT {
        let mut state: [KoalaBear; KB_WIDTH] =
            core::array::from_fn(|i| KoalaBear::from_u64(input[i]));
        poseidon2_kb_permute(&mut state);
        for (i, (got, want)) in state.iter().zip(expected.iter()).enumerate() {
            assert_eq!(got.as_u64(), *want, "{what}: lane {i}");
        }
    }
}

// ---- naive reference: canonical u64 arithmetic mod p, shared with the
// crate's per-row-type unit tests ----

#[path = "common/naive_poseidon2_kb.rs"]
mod naive;
use naive::{
    add, naive_constants, naive_external_matvec, naive_internal_layer, naive_permute, P,
};

#[test]
fn naive_reference_matches_golden_vectors() {
    for (what, input, expected) in KAT {
        let mut state = input;
        naive_permute(&mut state);
        assert_eq!(state, expected, "{what}");
    }
}

#[test]
fn optimized_matches_naive_on_random_states() {
    let mut rng = SplitMix64::seed_from_u64(0x4B41_5431);
    for case in 0..50 {
        let fast_in: [KoalaBear; KB_WIDTH] =
            core::array::from_fn(|_| KoalaBear::random(&mut rng));
        let mut naive: [u64; KB_WIDTH] = core::array::from_fn(|i| fast_in[i].as_u64());
        let mut fast = fast_in;
        poseidon2_kb_permute(&mut fast);
        naive_permute(&mut naive);
        for i in 0..KB_WIDTH {
            assert_eq!(fast[i].as_u64(), naive[i], "case {case}, lane {i}");
        }
    }
}

#[test]
fn outputs_are_canonical() {
    for (what, input, _) in KAT {
        let mut state: [KoalaBear; KB_WIDTH] =
            core::array::from_fn(|i| KoalaBear::from_u64(input[i]));
        poseidon2_kb_permute(&mut state);
        for (i, x) in state.iter().enumerate() {
            assert!(x.as_u64() < P, "{what}: lane {i} not canonical");
        }
    }
}

// ---- layer-by-layer differential: fast linear layers vs the naive ones ----

fn to_field(state: &[u64; KB_WIDTH]) -> [KoalaBear; KB_WIDTH] {
    core::array::from_fn(|i| KoalaBear::from_u64(state[i]))
}

fn to_canonical(state: &[KoalaBear; KB_WIDTH]) -> [u64; KB_WIDTH] {
    core::array::from_fn(|i| state[i].as_u64())
}

/// Both fast layers against their naive forms on one state; `constants`
/// is what the external layer folds into its reduction.
fn linear_layers_match_naive(state: &[u64; KB_WIDTH], constants: &[u64; KB_WIDTH]) -> bool {
    let cs = naive_constants();

    let mut fast = to_field(state);
    external_layer(&mut fast, &to_field(constants));
    let dense = naive_external_matvec(&cs, state);
    let external_ok = to_canonical(&fast) == core::array::from_fn(|i| add(dense[i], constants[i]));

    let mut fast = to_field(state);
    internal_layer(&mut fast);
    external_ok && to_canonical(&fast) == naive_internal_layer(&cs, state)
}

fn arb_state() -> impl Strategy<Value = [u64; KB_WIDTH]> {
    prop::collection::vec(0..P, KB_WIDTH).prop_map(|v| core::array::from_fn(|i| v[i]))
}

prop! {
    #![cases(128)]

    fn linear_layers_match_naive_on_random_states(state in arb_state(), constants in arb_state()) {
        prop_assert!(linear_layers_match_naive(&state, &constants));
    }
}

#[test]
fn linear_layers_match_naive_on_overflow_extremes() {
    // All lanes p - 1 with constants p - 1 is the largest sum either layer
    // can form (81·(p - 1) external, 16·(p - 1) internal); all-zero and
    // one-hot states are the other end, where a reduction must not invent
    // a multiple of p.
    let top = [P - 1; KB_WIDTH];
    let zero = [0; KB_WIDTH];
    assert!(linear_layers_match_naive(&top, &top));
    assert!(linear_layers_match_naive(&top, &zero));
    assert!(linear_layers_match_naive(&zero, &zero));
    assert!(linear_layers_match_naive(&zero, &top));
    for lane in 0..KB_WIDTH {
        for value in [1, P - 1] {
            let mut one_hot = zero;
            one_hot[lane] = value;
            assert!(linear_layers_match_naive(&one_hot, &zero), "lane {lane} value {value}");
            assert!(linear_layers_match_naive(&one_hot, &top), "lane {lane} value {value}");
        }
    }
}
