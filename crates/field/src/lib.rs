//! Finite-field arithmetic for the UniZK reproduction.
//!
//! This crate implements the algebra that every other layer of the system is
//! built on:
//!
//! * [`Goldilocks`] — the 64-bit prime field `p = 2^64 - 2^32 + 1` used by
//!   Plonky2 and Starky. All accelerator datapaths in the paper operate on
//!   64-bit Goldilocks elements (§4 of the paper).
//! * [`KoalaBear`] — the 31-bit prime field `p = 2^31 - 2^24 + 1` the
//!   Plonky3-style zkVM stacks run on.
//! * [`BinomialExtension`] — the one extension type `Fp[x] / (x^D - W)` the
//!   protocol's random challenges are drawn from: [`Ext2`] over Goldilocks
//!   (`D = 2`), [`KbExt4`] over KoalaBear (a 31-bit field needs `D = 4` for
//!   ~124 bits of Schwartz–Zippel room). A base field supplies `W` and its
//!   product hooks through [`BinomiallyExtendable`]; [`ProtocolField`] is the
//!   seam that lets the FRI/STARK layers stay generic over the
//!   `(base, extension)` pair.
//! * [`Polynomial`] — a dense univariate polynomial over any [`Field`].
//! * [`Lanes`] / [`LaneKernel`] — element-wise kernels written once over a
//!   row of lanes: every field is its own one-lane row, and
//!   [`PrimeField64::with_lanes`] runs a kernel on one AVX-512 register
//!   when the CPU has `avx512f` — eight Goldilocks lanes or sixteen
//!   KoalaBear lanes (module `lanes::avx512` and its child
//!   `lanes::avx512::koalabear`, the crate's one `unsafe` module);
//!   [`lanes::MAX_LANES`] (16) sizes a row buffer for either field.
//! * [`batch_inverse`] — Montgomery's batch-inversion trick over four
//!   interleaved chains, used by the quotient computations and the FRI
//!   combination.
//! * [`bit_reverse`] / [`reverse_index_bits`] — the bit-reversal permutations
//!   that the NTT variants (`NN`, `NR`, …) are defined in terms of.
//! * [`parallel_map`] / [`parallel_ranges`] and the other [`par`] helpers —
//!   one static split into pieces of whole grains and one worker loop, for
//!   the prover's hot loops, under the process-global [`set_parallelism`]
//!   override (`1` = single-threaded measurement mode). Workers inherit the
//!   caller's open `unizk_testkit::trace` span, and a worker's panic
//!   reaches the caller unchanged. [`run_indexed`] is the one loop for a
//!   closed batch of unequal items (sweep points, proving jobs).
//!
//! # Invariants
//!
//! * Every [`Goldilocks`] value is kept in **canonical form** `0 <= x < p`
//!   at all times — constructors reduce on entry, and all arithmetic
//!   returns reduced results, so `==`/`Ord`/`Hash` agree with field
//!   equality and serialized bytes are unique per element.
//! * [`set_parallelism`] is a process-global override latched at the entry
//!   of each parallel call; it caps, never raises, the worker count.
//!
//! # Example
//!
//! ```
//! use unizk_field::{Field, Goldilocks};
//!
//! let a = Goldilocks::from_u64(5);
//! let b = Goldilocks::from_u64(7);
//! assert_eq!((a * b).as_u64(), 35);
//! let inv = b.inverse();
//! assert_eq!(b * inv, Goldilocks::ONE);
//! ```

#![deny(unsafe_code)]

pub mod binomial;
pub mod goldilocks;
pub mod koalabear;
pub mod lanes;
pub mod par;
pub mod poly;
pub mod traits;
pub mod util;

pub use binomial::{BinomialExtension, BinomiallyExtendable};
pub use goldilocks::{Ext2, Goldilocks};
pub use koalabear::{KbExt4, KoalaBear};
pub use lanes::{LaneKernel, Lanes};
pub use par::{
    current_parallelism, parallel_chunks_mut, parallel_columns_mut, parallel_first_block,
    parallel_groups, parallel_map, parallel_ranges, run_indexed, set_parallelism,
};
pub use poly::Polynomial;
pub use traits::{ExtensionOf, Field, PrimeField64, ProtocolField};
pub use util::{batch_inverse, bit_reverse, log2_strict, powers, reverse_index_bits};

/// The [`binomial`] checks held against [`Ext2`], plus its own extreme limbs.
#[cfg(test)]
mod extension {
    mod tests {
        use crate::binomial::{binomial_suite, checks};
        use crate::{Field, Goldilocks};

        binomial_suite!(Goldilocks, 2);

        #[test]
        fn x_squares_to_w() {
            checks::x_to_the_d_is_w::<Goldilocks, 2>();
        }

        #[test]
        fn mul_folds_x_squared_into_w() {
            checks::mul_folds_x_to_the_d_into_w::<Goldilocks, 2>();
        }

        #[test]
        fn mul_matches_schoolbook_on_extreme_limbs() {
            // Canonical p − 1 and the 2^32 seams the reduction folds at.
            let gl = |v| Goldilocks::new(v);
            checks::mul_matches_schoolbook_on::<Goldilocks, 2>(&[
                Goldilocks::ZERO,
                Goldilocks::ONE,
                Goldilocks::TWO,
                gl(0xFFFF_FFFF),
                gl(1 << 32),
                gl(crate::goldilocks::P - 2),
                Goldilocks::NEG_ONE,
            ]);
        }
    }
}

/// The [`binomial`] checks held against [`KbExt4`], plus its own extreme limbs.
#[cfg(test)]
mod ext4 {
    mod tests {
        use crate::binomial::{binomial_suite, checks};
        use crate::{Field, KoalaBear, PrimeField64};

        binomial_suite!(KoalaBear, 4);

        #[test]
        fn x_to_the_fourth_is_w() {
            checks::x_to_the_d_is_w::<KoalaBear, 4>();
        }

        #[test]
        fn mul_folds_x_to_the_fourth_into_w() {
            checks::mul_folds_x_to_the_d_into_w::<KoalaBear, 4>();
        }

        #[test]
        fn mul_matches_schoolbook_on_extreme_limbs() {
            // What the one-reduction sum sees are Montgomery residues, so the
            // top residue p − 1 joins canonical p − 1 — all four limbs at it
            // make output limb 3 exactly 4(p − 1)², the bound `DOT_TERMS` is
            // sized by.
            checks::mul_matches_schoolbook_on::<KoalaBear, 4>(&[
                KoalaBear::ZERO,
                KoalaBear::ONE,
                KoalaBear::TWO,
                KoalaBear::from_u64(KoalaBear::ORDER - 1),
                KoalaBear::from_montgomery(crate::koalabear::P - 1),
            ]);
        }
    }
}
