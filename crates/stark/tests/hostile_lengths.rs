//! Regression wall for inflated length prefixes: decoding hostile bytes
//! must return `Ok` or `Err` without reserving more than a small multiple
//! of the input.
//!
//! Every `from_bytes` allocates for the length a 4-byte prefix claims, so a
//! prefix of 2^30 used to demand gigabytes before the first element was
//! read. The decoder now bounds each prefix by the bytes left in the
//! buffer; this test stamps 2^30 over every offset of a real proof — which
//! covers every prefix position, over both fields, for the FRI and the
//! Stark decoder — and watches the allocator.
//!
//! The same proofs then try the rest of the door: a decoder accepts exactly
//! the byte strings its encoder writes, so a trailing byte or a field limb
//! at the modulus is an error and an accepted string re-encodes to itself.
//!
//! The file holds a single `#[test]` because the allocation high-water
//! mark is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use unizk_field::{Goldilocks, KoalaBear, ProtocolField};
use unizk_fri::{FriProof, WireError};
use unizk_hash::{Digest, HashField};
use unizk_stark::{prove, FibonacciAir, StarkConfig, StarkProof};

/// The system allocator, recording the largest single request.
struct Watching;

static LARGEST_REQUEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// statistic that touches no allocator state.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_REQUEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

const INFLATED: [u8; 4] = (1u32 << 30).to_le_bytes();

/// Stamps 2^30 over every offset of `bytes` and decodes; returns the
/// largest allocation any decode asked for.
fn sweep<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, WireError>) -> usize {
    LARGEST_REQUEST.store(0, Ordering::Relaxed);
    let mut hostile = bytes.to_vec();
    for offset in 0..=bytes.len() - INFLATED.len() {
        hostile.copy_from_slice(bytes);
        hostile[offset..offset + INFLATED.len()].copy_from_slice(&INFLATED);
        // Stamps that land on payload bytes may still decode; either
        // outcome is fine, a panic or a giant reservation is not.
        let _ = decode(&hostile);
    }
    LARGEST_REQUEST.load(Ordering::Relaxed)
}

fn inflated_prefixes_are_refused<F: HashField + ProtocolField>() {
    let proof = prove(&FibonacciAir::new(64), &StarkConfig::<F, F::Sponge>::for_testing_over())
        .expect("Fibonacci trace satisfies its AIR");
    let stark_bytes = proof.to_bytes();
    let fri_bytes = proof.fri.to_bytes();

    // The first prefix of each encoding is a known position: it must be
    // rejected as a length, not run into the end of the buffer.
    let mut hostile = fri_bytes.clone();
    hostile[..4].copy_from_slice(&INFLATED);
    assert_eq!(
        FriProof::<F>::from_bytes(&hostile).err(),
        Some(WireError::LengthOutOfRange(1 << 30))
    );
    let fri_start = 2 * Digest::<F>::BYTES + 8;
    let mut hostile = stark_bytes.clone();
    hostile[fri_start..fri_start + 4].copy_from_slice(&INFLATED);
    assert_eq!(
        StarkProof::<F>::from_bytes(&hostile).err(),
        Some(WireError::LengthOutOfRange(1 << 30))
    );

    // The widest decoded element is a 24-byte `Vec` header standing for a
    // 4-byte prefix, so no reservation can exceed 6x the input.
    for (what, bytes, largest) in [
        ("fri", &fri_bytes, sweep(&fri_bytes, FriProof::<F>::from_bytes)),
        ("stark", &stark_bytes, sweep(&stark_bytes, StarkProof::<F>::from_bytes)),
    ] {
        assert!(
            largest <= 6 * bytes.len(),
            "{what}: a decode of {} bytes reserved {largest} bytes at once",
            bytes.len()
        );
    }

    only_the_encoding_decodes::<F, _>("fri", &fri_bytes, FriProof::<F>::from_bytes, FriProof::to_bytes);
    only_the_encoding_decodes::<F, _>("stark", &stark_bytes, StarkProof::<F>::from_bytes, StarkProof::to_bytes);
}

/// One value, one byte string: the honest encoding round-trips, and neither
/// an appended byte nor a second spelling of a field element (the limb `p`
/// for `0`) gets through. Both encodings end in a field limb — the last
/// sibling of the last Merkle path.
fn only_the_encoding_decodes<F: ProtocolField, T>(
    what: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, WireError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let honest = decode(bytes).unwrap_or_else(|e| panic!("{what}: honest bytes refused: {e}"));
    assert_eq!(encode(&honest), bytes, "{what}: decode then encode changed the bytes");

    let mut extended = bytes.to_vec();
    extended.push(0);
    assert_eq!(decode(&extended).err(), Some(WireError::TrailingBytes(1)), "{what}: trailing byte");

    let mut aliased = bytes.to_vec();
    let limb = aliased.len() - F::BYTES;
    aliased[limb..].copy_from_slice(&F::ORDER.to_le_bytes()[..F::BYTES]);
    assert_eq!(decode(&aliased).err(), Some(WireError::NonCanonical(F::ORDER)), "{what}: limb = p");
}

#[test]
fn inflated_length_prefixes_are_refused_without_large_allocations() {
    inflated_prefixes_are_refused::<Goldilocks>();
    inflated_prefixes_are_refused::<KoalaBear>();
}
