//! Number theoretic transforms for the UniZK reproduction.
//!
//! The protocol layer needs every NTT variant the paper enumerates in §5.1:
//!
//! * forward and inverse transforms ([`ntt_nn`], [`intt_nn`], …),
//! * natural / bit-reversed input and output orders (`NN`, `NR`, `RN`),
//! * coset variants for evaluating on `g·H` ([`coset_ntt_nn`],
//!   [`coset_intt_nn`], …),
//! * low-degree extension with a blowup factor `k` ([`lde()`], [`lde_nr`]),
//! * and the multi-dimensional decomposition ([`decompose`]) that the
//!   accelerator uses to map variable-length NTTs onto fixed-size pipelines
//!   (SAM-style, Fig. 4 of the paper).
//!
//! Conventions: the forward transform maps coefficients `c` to evaluations
//! `v[j] = Σ_i c[i]·ω^{ij}` on the size-`N` subgroup generated by `ω`; the
//! inverse maps evaluations back to coefficients (including the `N^{-1}`
//! scaling).
//!
//! # Example
//!
//! ```
//! use unizk_field::{Field, Goldilocks};
//! use unizk_ntt::{intt_nn, ntt_nn};
//!
//! let coeffs: Vec<Goldilocks> = (1..=8u64).map(Goldilocks::from_u64).collect();
//! let mut v = coeffs.clone();
//! ntt_nn(&mut v);
//! intt_nn(&mut v);
//! assert_eq!(v, coeffs);
//! ```

#![forbid(unsafe_code)]

pub mod decompose;
pub mod lde;
pub mod naive;
pub mod radix2;
pub mod transpose;
pub mod twiddle;

pub use decompose::{decomposed_ntt_nn, NttDecomposition};
pub use lde::{lde, lde_nr, lde_of_values};
pub use transpose::{transpose, transpose_tile_count};
pub use naive::{naive_coset_dft, naive_dft, naive_idft};
pub use radix2::{
    coset_intt_nn, coset_intt_rn_uncounted, coset_ntt_nn, coset_ntt_nr, coset_ntt_nr_zero_tail,
    intt_nn, intt_rn, ntt_nn, ntt_nr, ntt_rn,
};
