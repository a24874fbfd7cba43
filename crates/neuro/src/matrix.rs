//! Dense row-major matrices.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// # Example
///
/// ```
/// use fusa_neuro::Matrix;
///
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(m.get(1, 0), 3.0);
/// assert_eq!(m.transpose().get(0, 1), 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have differing lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Makes this a `rows × cols` matrix, reusing its buffer; the
    /// elements are left unspecified for the caller to overwrite.
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = value;
    }

    /// Borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix product `self × other`: each output row adds
    /// `self[i,k] · other[k, :]` over `k` in order, from `+0.0`, skipping
    /// the zero entries of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for (k, &x) in self.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(other.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// `selfᵀ × other` without materializing the transpose: output row
    /// `i` adds `self[r,i] · other[r, :]` over `r` in order, from `+0.0`,
    /// skipping the zero entries of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "transpose_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for r in 0..self.rows {
            for (i, &x) in self.row(r).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(other.row(r)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    /// `self × otherᵀ`, the input gradient `G·Wᵀ` of a dense layer.
    ///
    /// Every element is the dot product `Σ_k self[i,k]·other[j,k]` of
    /// `Iterator::sum`: the products in order, from a `-0.0` start. There
    /// is no zero-skip: adding a `±0` product can flip the sign of a zero
    /// sum.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transpose shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let products = self.row(i).iter().zip(other.row(j)).map(|(&x, &y)| x * y);
                out.set(i, j, products.sum());
            }
        }
        out
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// The rows `rows` (in that order) as a new `rows.len() × cols`
    /// matrix.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            data.extend_from_slice(self.row(r));
        }
        Matrix::from_vec(rows.len(), self.cols, data)
    }

    /// Applies `f` elementwise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| a * b)
                .collect(),
        }
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Adds `row` to every row of the matrix (bias broadcast), in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()`.
    pub fn add_row_broadcast(mut self, row: &[f64]) -> Matrix {
        assert_eq!(row.len(), self.cols, "broadcast width mismatch");
        for out in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (o, &b) in out.iter_mut().zip(row) {
                *o += b;
            }
        }
        self
    }

    /// Column sums, returned as a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Index of the maximum element of each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            let cells: Vec<String> = self
                .row(r)
                .iter()
                .take(8)
                .map(|v| format!("{v:>9.4}"))
                .collect();
            writeln!(f, "  [{}]", cells.join(", "))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.transpose_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 1.0]]);
        assert_eq!(a.matmul_transpose(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn matmul_transpose_keeps_signed_zero_of_dot_product() {
        // All-(-0.0) products sum to -0.0 only from a -0.0 start, and
        // mixed-sign zero products round to +0.0 exactly as the dot does.
        let g = Matrix::from_rows(&[&[-0.0, -0.0], &[0.0, -0.0], &[0.0, 0.0]]);
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 3.0], &[-0.0, 0.0]]);
        let negative: Vec<bool> = g
            .matmul_transpose(&w)
            .as_slice()
            .iter()
            .map(|v| {
                assert_eq!(*v, 0.0);
                v.is_sign_negative()
            })
            .collect();
        let expected = [true, false, false, false, true, true, false, false, false];
        assert_eq!(negative, expected);
        // An empty inner dimension yields the sum of nothing: -0.0.
        let empty = Matrix::zeros(2, 0).matmul_transpose(&Matrix::zeros(3, 0));
        assert!(empty
            .as_slice()
            .iter()
            .all(|v| v.to_bits() == (-0.0f64).to_bits()));
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn hadamard_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, 0.0]]);
        assert_eq!(
            a.hadamard(&b),
            Matrix::from_rows(&[&[2.0, 1.0], &[3.0, 0.0]])
        );
    }

    #[test]
    fn broadcast_bias() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_broadcast(&[1.0, 2.0, 3.0]);
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn column_sums_and_norm() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[4.0, 1.0]]);
        assert_eq!(a.column_sums(), vec![7.0, 1.0]);
        assert!((a.frobenius_norm() - (9.0 + 16.0 + 1.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Matrix::from_rows(&[&[0.1, 0.9], &[0.7, 0.3]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Matrix::zeros(1, 2);
        assert!(!a.has_non_finite());
        a.set(0, 1, f64::NAN);
        assert!(a.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn ragged_rows_panics() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}

#[cfg(test)]
mod display_and_edge_tests {
    use super::*;

    #[test]
    fn display_truncates_large_matrices() {
        let m = Matrix::zeros(20, 20);
        let text = m.to_string();
        assert!(text.contains("Matrix 20x20"));
        assert!(text.contains("..."));
        // At most 8 data rows rendered.
        assert!(text.lines().count() <= 11);
    }

    #[test]
    fn zero_sized_dimensions_are_legal() {
        let m = Matrix::zeros(0, 3);
        assert_eq!(m.shape(), (0, 3));
        assert_eq!(m.column_sums(), vec![0.0; 3]);
        assert!(m.argmax_rows().is_empty());
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn map_preserves_shape() {
        let m = Matrix::from_rows(&[&[1.0, -2.0]]);
        let mapped = m.map(f64::abs);
        assert_eq!(mapped.shape(), m.shape());
        assert_eq!(mapped.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0]);
        assert_eq!(m.get(1, 0), 7.0);
        assert_eq!(m.get(1, 1), 8.0);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_get_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m.get(2, 0);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_validates_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
