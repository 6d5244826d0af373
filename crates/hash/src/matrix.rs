//! The leaf table of a Merkle tree: one row-major matrix, row `i` the
//! contents of leaf `i` (in FRI, the values of every polynomial of a batch at
//! one LDE position, paper Fig. 1 ③), every row of one width.
//!
//! One flat buffer instead of one heap vector per leaf: the tree is built by
//! reading it front to back (§5.3's sequential stream), and the provers'
//! lane kernels borrow its rows. The accessors a kernel calls are
//! `#[inline(always)]` and [`RowMajorMatrix::get_row`] does not panic, so a
//! kernel that reads rows leaves no call behind.

/// A matrix of `height × width` elements stored row after row.
///
/// # Example
///
/// ```
/// use unizk_field::{Field, Goldilocks};
/// use unizk_hash::RowMajorMatrix;
///
/// let g = Goldilocks::from_u64;
/// let matrix = RowMajorMatrix::from(vec![vec![g(1), g(2)], vec![g(3), g(4)]]);
/// assert_eq!((matrix.height(), matrix.width()), (2, 2));
/// assert_eq!(matrix.row(1), &[g(3), g(4)]);
/// assert_eq!(matrix.get_row(2), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowMajorMatrix<F> {
    values: Vec<F>,
    width: usize,
}

impl<F> RowMajorMatrix<F> {
    /// The matrix whose rows are the consecutive runs of `width` elements
    /// of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or does not divide `values.len()`.
    pub fn new(values: Vec<F>, width: usize) -> Self {
        assert!(width > 0, "a leaf matrix has rows of at least one element");
        assert!(
            values.len().is_multiple_of(width),
            "{} values are no whole number of rows of width {width}",
            values.len()
        );
        Self { values, width }
    }

    /// Elements per row.
    #[inline(always)]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.values.len() / self.width
    }

    /// Row `i`, or `None` past the last row.
    #[inline(always)]
    pub fn get_row(&self, i: usize) -> Option<&[F]> {
        let start = i.checked_mul(self.width)?;
        self.values.get(start..start.checked_add(self.width)?)
    }

    /// Row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.height()`.
    pub fn row(&self, i: usize) -> &[F] {
        self.get_row(i).expect("row index out of bounds")
    }

    /// Every element, row after row.
    pub fn values(&self) -> &[F] {
        &self.values
    }
}

/// One row per inner vector.
///
/// # Panics
///
/// Panics unless every row has the same, nonzero, width: a tree binds leaves
/// of one width, so a table of mixed widths is refused where it is made.
impl<F> From<Vec<Vec<F>>> for RowMajorMatrix<F> {
    fn from(rows: Vec<Vec<F>>) -> Self {
        let width = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|row| row.len() == width),
            "every row of a leaf matrix has the width of the first ({width})"
        );
        Self::new(rows.into_iter().flatten().collect(), width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_height_and_width() {
        let matrix = RowMajorMatrix::new((0..12u32).collect(), 3);
        assert_eq!((matrix.height(), matrix.width()), (4, 3));
        assert_eq!(matrix.row(0), &[0, 1, 2]);
        assert_eq!(matrix.row(3), &[9, 10, 11]);
        assert_eq!(matrix.values(), &(0..12).collect::<Vec<_>>()[..]);
        assert_eq!(RowMajorMatrix::<u32>::new(vec![], 5).height(), 0);
    }

    #[test]
    fn get_row_past_the_end_is_none() {
        let matrix = RowMajorMatrix::new((0..6u32).collect(), 2);
        assert_eq!(matrix.get_row(2), Some(&[4, 5][..]));
        for i in [3, 4, usize::MAX / 2, usize::MAX] {
            assert_eq!(matrix.get_row(i), None, "row {i}");
        }
    }

    #[test]
    #[should_panic(expected = "row index out of bounds")]
    fn row_past_the_end_panics() {
        let _ = RowMajorMatrix::new(vec![1u32, 2], 1).row(2);
    }

    #[test]
    fn round_trip_from_nested_rows() {
        for (height, width) in [(1, 1), (4, 2), (3, 135)] {
            let rows: Vec<Vec<usize>> =
                (0..height).map(|i| (0..width).map(|j| i * width + j).collect()).collect();
            let matrix = RowMajorMatrix::from(rows.clone());
            assert_eq!((matrix.height(), matrix.width()), (height, width));
            let back: Vec<Vec<usize>> = (0..height).map(|i| matrix.row(i).to_vec()).collect();
            assert_eq!(back, rows);
        }
    }

    #[test]
    #[should_panic(expected = "no whole number of rows")]
    fn a_partial_row_is_refused() {
        let _ = RowMajorMatrix::new(vec![1u32, 2, 3], 2);
    }
}
