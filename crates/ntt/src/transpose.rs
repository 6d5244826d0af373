//! Data-layout transformations between the polynomial-major and index-major
//! layouts the protocol uses (paper §5.1 "Data layouts").
//!
//! In hardware these are handled implicitly by the global transpose buffer
//! while fetching from memory; in software [`transpose`] is explicit, and
//! [`transpose_tile_count`] counts the `b×b` buffer operations the
//! simulator charges for it.

/// Transposes a row-major `rows × cols` matrix into a row-major
/// `cols × rows` matrix.
///
/// With polynomials as rows, this converts the polynomial-major layout
/// (each polynomial contiguous) into index-major (same position of all
/// polynomials contiguous) and back.
///
/// # Panics
///
/// Panics if `values.len() != rows * cols`.
pub fn transpose<T: Copy>(values: &[T], rows: usize, cols: usize) -> Vec<T> {
    assert_eq!(values.len(), rows * cols, "shape mismatch");
    let mut out = Vec::with_capacity(values.len());
    for c in 0..cols {
        for r in 0..rows {
            out.push(values[r * cols + c]);
        }
    }
    out
}

/// Number of `b × b` tile operations a tiled transpose performs, the unit
/// the simulator charges transpose-buffer occupancy in.
pub fn transpose_tile_count(rows: usize, cols: usize, b: usize) -> usize {
    rows.div_ceil(b) * cols.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_small() {
        // 2x3 -> 3x2
        let m = vec![1, 2, 3, 4, 5, 6];
        assert_eq!(transpose(&m, 2, 3), vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    fn transpose_is_involution() {
        let m: Vec<u32> = (0..12 * 7).collect();
        let t = transpose(&m, 12, 7);
        let back = transpose(&t, 7, 12);
        assert_eq!(back, m);
    }

    #[test]
    fn tile_count() {
        assert_eq!(transpose_tile_count(32, 32, 16), 4);
        assert_eq!(transpose_tile_count(33, 32, 16), 6);
        assert_eq!(transpose_tile_count(1, 1, 16), 1);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn transpose_rejects_bad_shape() {
        let _ = transpose(&[1, 2, 3], 2, 2);
    }
}
