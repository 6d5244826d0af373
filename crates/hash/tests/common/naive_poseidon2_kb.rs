//! The naive Poseidon2-KoalaBear reference: plain canonical `u64 % p`
//! arithmetic (no Montgomery form, no shared-sum factoring), deriving its
//! matrices from the published `Poseidon2KbConstants`. Shared by
//! `tests/poseidon2_kb_kat.rs` and, through `#[path]`, by the unit tests
//! that hold each row type of the shipped walk to it.

use unizk_field::Field;
use unizk_hash::poseidon2_kb::{constants_kb, KB_FULL_ROUNDS, KB_PARTIAL_ROUNDS, KB_WIDTH};

pub const P: u64 = 0x7f00_0001;

pub fn add(a: u64, b: u64) -> u64 {
    (a + b) % P
}

pub fn mul(a: u64, b: u64) -> u64 {
    a * b % P
}

pub fn cube(x: u64) -> u64 {
    mul(mul(x, x), x)
}

/// The published constants rendered to canonical integers.
pub struct NaiveConstants {
    pub external_constants: Vec<[u64; KB_WIDTH]>,
    pub internal_constants: Vec<u64>,
    pub external_mat: Vec<[u64; KB_WIDTH]>,
    pub internal_diag: [u64; KB_WIDTH],
}

pub fn naive_constants() -> NaiveConstants {
    let cs = constants_kb();
    NaiveConstants {
        external_constants: cs
            .external_constants
            .iter()
            .map(|row| core::array::from_fn(|i| row[i].as_u64()))
            .collect(),
        internal_constants: cs.internal_constants.iter().map(|c| c.as_u64()).collect(),
        external_mat: cs
            .external_mat
            .iter()
            .map(|row| core::array::from_fn(|i| row[i].as_u64()))
            .collect(),
        internal_diag: core::array::from_fn(|i| cs.internal_diag[i].as_u64()),
    }
}

pub fn naive_external_matvec(cs: &NaiveConstants, state: &[u64; KB_WIDTH]) -> [u64; KB_WIDTH] {
    core::array::from_fn(|i| {
        let mut acc = 0;
        for (c, &x) in cs.external_mat[i].iter().zip(state.iter()) {
            acc = add(acc, mul(*c, x));
        }
        acc
    })
}

/// `J + diag(d)`: every output is the full sum plus `d_i·x_i`.
pub fn naive_internal_layer(cs: &NaiveConstants, state: &[u64; KB_WIDTH]) -> [u64; KB_WIDTH] {
    let sum = state.iter().fold(0, |a, &b| add(a, b));
    core::array::from_fn(|i| add(sum, mul(cs.internal_diag[i], state[i])))
}

pub fn naive_permute(state: &mut [u64; KB_WIDTH]) {
    let cs = naive_constants();
    *state = naive_external_matvec(&cs, state);
    let half = KB_FULL_ROUNDS / 2;
    for r in 0..KB_FULL_ROUNDS {
        if r == half {
            // The internal run sits between the two external halves.
            for ir in 0..KB_PARTIAL_ROUNDS {
                state[0] = cube(add(state[0], cs.internal_constants[ir]));
                *state = naive_internal_layer(&cs, state);
            }
        }
        for (x, c) in state.iter_mut().zip(cs.external_constants[r].iter()) {
            *x = cube(add(*x, *c));
        }
        *state = naive_external_matvec(&cs, state);
    }
}

