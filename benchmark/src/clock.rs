//! The reference machine: end-to-end timings are reported as time on a
//! machine of fixed speed, not at whatever speed the host happened to run.
//!
//! The hosts this benchmark runs on are virtual machines whose speed
//! changes in phases that last from a fraction of a second to minutes,
//! many of them longer than a run: the core clock moves between about 3.1
//! and 4.0 GHz, and a busy sibling hardware thread takes up to a third of
//! the multiplier throughput. CPU time tracks wall time through all of it,
//! so there is nothing a clock could subtract, and no statistic taken
//! inside one run removes a phase that outlasts the run.
//!
//! So a fixed piece of work, the *probe*, is timed after every phase of
//! every iteration of a timed pass, and each sample is multiplied by
//! `REFERENCE_PROBE_NS / measured probe time` of the probes around it. The
//! probe is 64-bit modular arithmetic of the kind the provers spend their
//! time in (independent multiply-and-fold chains, then rounds of a
//! width-12 `x^7` layer and a dense linear layer), so it speeds up and
//! slows down with the host the way they do. It is the benchmark's own
//! code and calls nothing in the repository: no change to a crate can move
//! it. The raw wall-clock medians are printed beside the converted values.

use std::hint::black_box;
use std::time::Instant;

/// Time of one probe on the reference machine. The value is what the
/// 2-core host the bounds were set on takes in its fast, quiet state, so
/// converted times read like wall times there.
pub const REFERENCE_PROBE_NS: f64 = 12.0e6;

const CHAIN_STEPS: u64 = 1_200_000;
const ROUNDS: u64 = 36_000;

/// `x mod (2^64 - 2^32 + 1)` for `x < 2^128`, not necessarily canonical.
#[inline(always)]
fn fold(x: u128) -> u64 {
    const EPSILON: u64 = 0xffff_ffff;
    let (lo, hi) = (x as u64, (x >> 64) as u64);
    let (mut t, borrow) = lo.overflowing_sub(hi >> 32);
    if borrow {
        t = t.wrapping_sub(EPSILON);
    }
    let (r, carry) = t.overflowing_add((hi & EPSILON) * EPSILON);
    if carry {
        r.wrapping_add(EPSILON)
    } else {
        r
    }
}

#[inline(always)]
fn mul(a: u64, b: u64) -> u64 {
    fold(u128::from(a) * u128::from(b))
}

/// Runs the probe once and returns how long it took, in nanoseconds.
pub fn probe_ns() -> f64 {
    let start = Instant::now();

    // Eight independent chains of multiply, fold, add.
    let mut chains: [u64; 8] =
        std::array::from_fn(|k| black_box((k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
    for step in 0..CHAIN_STEPS {
        for k in 0..8 {
            let product = u128::from(chains[k]) * u128::from(chains[(k + 3) & 7] | 1);
            chains[k] = (product as u64)
                .wrapping_add((product >> 64) as u64)
                .wrapping_add(step);
        }
    }
    black_box(chains);

    // Rounds of a width-12 permutation: x^7 on every word, then a dense
    // linear layer with small coefficients.
    const MIX: [u64; 12] = [17, 15, 41, 16, 2, 28, 13, 13, 39, 18, 34, 20];
    let mut state: [u64; 12] = std::array::from_fn(|i| black_box(i as u64 + 1));
    for round in 0..ROUNDS {
        for word in &mut state {
            let x = word.wrapping_add(round);
            let x2 = mul(x, x);
            *word = mul(mul(x2, x), mul(x2, x2));
        }
        let mut mixed = [0_u128; 12];
        for (i, sum) in mixed.iter_mut().enumerate() {
            for (j, &coefficient) in MIX.iter().enumerate() {
                *sum += u128::from(state[(i + j) % 12]) * u128::from(coefficient);
            }
        }
        state = mixed.map(fold);
    }
    black_box(state);

    start.elapsed().as_secs_f64() * 1e9
}

/// Probes the host at the boundaries of consecutive intervals.
#[derive(Debug)]
pub struct Clock {
    last_probe_ns: f64,
}

impl Clock {
    /// Probes once: the start of the first interval.
    pub fn start() -> Self {
        Self {
            last_probe_ns: probe_ns(),
        }
    }

    /// Ends an interval: probes again and returns the factor that converts
    /// a wall time measured inside the interval to time on the reference
    /// machine (the mean of the two probes stands for the interval).
    pub fn lap(&mut self) -> f64 {
        let now = probe_ns();
        let factor = factor(self.last_probe_ns, now);
        self.last_probe_ns = now;
        factor
    }
}

fn factor(probe_ns_before: f64, probe_ns_after: f64) -> f64 {
    REFERENCE_PROBE_NS / ((probe_ns_before + probe_ns_after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_reduces_modulo_the_goldilocks_prime() {
        const P: u128 = 0xffff_ffff_0000_0001;
        for x in [
            0,
            1,
            P - 1,
            P,
            P + 1,
            u128::from(u64::MAX),
            u128::MAX,
            0x1234_5678_9abc_def0_0fed_cba9_8765_4321,
        ] {
            assert_eq!(u128::from(fold(x)) % P, x % P, "{x:#x}");
        }
        assert_eq!(
            u128::from(mul(u64::MAX, u64::MAX)) % P,
            u128::from(u64::MAX) * u128::from(u64::MAX) % P
        );
    }

    #[test]
    fn a_slower_host_than_the_reference_shortens_the_sample() {
        assert_eq!(factor(REFERENCE_PROBE_NS, REFERENCE_PROBE_NS), 1.0);
        assert_eq!(
            factor(2.0 * REFERENCE_PROBE_NS, 2.0 * REFERENCE_PROBE_NS),
            0.5
        );
        assert_eq!(factor(REFERENCE_PROBE_NS, 3.0 * REFERENCE_PROBE_NS), 0.5);
    }

    #[test]
    fn the_probe_takes_milliseconds_not_microseconds() {
        // Long enough to average over scheduler noise, short enough that
        // one per iteration costs a timed pass a few percent. (Unoptimized
        // test builds run it many times slower.)
        let mut clock = Clock::start();
        assert!(clock.last_probe_ns > 1e6, "{} ns", clock.last_probe_ns);
        assert!(clock.lap() > 0.0);
    }
}
