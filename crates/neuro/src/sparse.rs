//! Compressed-sparse-row matrices for graph adjacency.

use crate::matrix::Matrix;

/// A square-or-rectangular sparse matrix in CSR layout.
///
/// Used for the normalized adjacency `Â = D^{-1/2}(A+I)D^{-1/2}` of
/// Equation 2: multiplication against dense feature matrices is the core
/// of every GraphConv layer, and per-edge gradients feed the explainer's
/// edge mask.
///
/// # Example
///
/// ```
/// use fusa_neuro::{CsrMatrix, Matrix};
///
/// let adj = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
/// let x = Matrix::from_rows(&[&[1.0], &[2.0]]);
/// let y = adj.matmul(&x);
/// assert_eq!(y.get(0, 0), 2.0);
/// assert_eq!(y.get(1, 0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from `(row, col, value)` triplets. Duplicate coordinates
    /// are summed.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> CsrMatrix {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));

        let mut row_counts = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut previous: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if previous == Some((r, c)) {
                *values.last_mut().expect("previous entry exists") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_counts[r + 1] += 1;
                previous = Some((r, c));
            }
        }
        let mut row_ptr = row_counts;
        for i in 1..=rows {
            row_ptr[i] += row_ptr[i - 1];
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The stored entries of row `r` as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.rows, "row out of bounds");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// The stored value at `(r, c)`, or `0.0` when the entry is absent.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.row_entries(r)
            .find(|&(col, _)| col == c)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Mutable access to the stored values (sparsity pattern fixed).
    /// Entry order matches [`CsrMatrix::triplets`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The stored values in CSR order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// All stored entries as `(row, col, value)` triplets in CSR order.
    pub fn triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                out.push((r, c, v));
            }
        }
        out
    }

    /// Sparse × dense product: each output row adds
    /// `self[r,c] · dense[c, :]` over the row's stored entries, in stored
    /// order, from `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != dense.rows()`.
    pub fn matmul(&self, dense: &Matrix) -> Matrix {
        assert_eq!(
            self.cols,
            dense.rows(),
            "spmm shape mismatch: {}x{} × {}x{}",
            self.rows,
            self.cols,
            dense.rows(),
            dense.cols()
        );
        let mut out = Matrix::zeros(self.rows, dense.cols());
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                for (o, &y) in out.row_mut(r).iter_mut().zip(dense.row(c)) {
                    *o += v * y;
                }
            }
        }
        out
    }

    /// The transposed matrix. Each of its rows lists its entries in
    /// ascending column, which is the row of `self` they come from: the
    /// order in which a scatter over the rows of `self` visits them.
    pub(crate) fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let slot = &mut next[self.col_idx[k]];
                col_idx[*slot] = r;
                values[*slot] = self.values[k];
                *slot += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The CSR arrays: row pointers, column indices and values.
    pub(crate) fn parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Per-edge gradient: for each stored entry `(r, c)`, the derivative
    /// of a scalar loss w.r.t. that entry given `grad_out = ∂L/∂(A·H)`
    /// and the multiplied dense matrix `h`:
    /// `∂L/∂A[r,c] = grad_out[r, :] · h[c, :]`.
    ///
    /// Returned in CSR entry order (aligned with [`CsrMatrix::values`]).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn edge_gradients(&self, grad_out: &Matrix, h: &Matrix) -> Vec<f64> {
        assert_eq!(grad_out.rows(), self.rows, "edge grad rows mismatch");
        assert_eq!(h.rows(), self.cols, "edge grad cols mismatch");
        assert_eq!(grad_out.cols(), h.cols(), "edge grad inner mismatch");
        let mut grads = Vec::with_capacity(self.nnz());
        for r in 0..self.rows {
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            let grow = grad_out.row(r);
            for k in lo..hi {
                let c = self.col_idx[k];
                let hrow = h.row(c);
                grads.push(grow.iter().zip(hrow).map(|(&a, &b)| a * b).sum());
            }
        }
        grads
    }

    /// A copy with the same pattern and new values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.nnz()`.
    pub fn with_values(&self, values: Vec<f64>) -> CsrMatrix {
        assert_eq!(values.len(), self.nnz(), "value count mismatch");
        CsrMatrix {
            values,
            ..self.clone()
        }
    }

    /// Sorted, deduplicated column indices stored in any of `rows`: the
    /// rows of a dense operand that `self × dense` reads to produce
    /// those output rows.
    ///
    /// # Panics
    ///
    /// Panics if a row index is out of bounds.
    pub fn columns_of(&self, rows: &[usize]) -> Vec<usize> {
        let mut read = vec![false; self.cols];
        for &r in rows {
            for (c, _) in self.row_entries(r) {
                read[c] = true;
            }
        }
        (0..self.cols).filter(|&c| read[c]).collect()
    }

    /// The submatrix of `rows` (in the given order, repeats allowed),
    /// each row keeping its entries in stored order. With `cols` (sorted
    /// and deduplicated) the columns are renumbered to positions in it,
    /// so the result multiplies a dense operand holding just those rows;
    /// without it the columns are unchanged.
    ///
    /// Row `i` of `select(rows, cols) × dense[cols]` performs exactly the
    /// operations of row `rows[i]` of `self × dense`, so it is
    /// bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of bounds or a selected row stores a column
    /// missing from `cols`.
    pub fn select(&self, rows: &[usize], cols: Option<&[usize]>) -> CsrMatrix {
        let position: Option<Vec<usize>> = cols.map(|cols| {
            let mut position = vec![usize::MAX; self.cols];
            for (i, &c) in cols.iter().enumerate() {
                position[c] = i;
            }
            position
        });
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for &r in rows {
            for (c, v) in self.row_entries(r) {
                let c = match &position {
                    Some(position) => {
                        assert!(position[c] != usize::MAX, "column {c} not selected");
                        position[c]
                    }
                    None => c,
                };
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: rows.len(),
            cols: cols.map_or(self.cols, <[usize]>::len),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Converts to a dense matrix (test/debug helper).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m.set(r, c, m.get(r, c) + v);
            }
        }
        m
    }
}

/// Row restriction of a stack of graph convolutions `Hₗ = f(Â·Hₗ₋₁·Wₗ)`:
/// which rows each layer must compute so the last layer yields exactly
/// the requested output rows.
///
/// Working back from the output, layer `l` computes the rows layer `l+1`
/// aggregates from (the columns [`CsrMatrix::columns_of`] its rows
/// store). Each layer gets `Â` restricted by [`CsrMatrix::select`] to the
/// rows it computes, with columns renumbered to the previous layer's
/// rows; the first layer keeps `Â`'s columns, so it reads the input
/// itself. Every computed row repeats the operations of the unrestricted
/// pass, so the outputs are bit-identical to the requested rows of a full
/// pass.
///
/// # Example
///
/// ```
/// use fusa_neuro::{CsrMatrix, Matrix, RowPlan};
///
/// // A path 0 - 1 - 2 - 3 with self-loops.
/// let mut triplets = vec![];
/// for i in 0..4 {
///     triplets.push((i, i, 0.5));
///     if i + 1 < 4 {
///         triplets.push((i, i + 1, 0.25));
///         triplets.push((i + 1, i, 0.25));
///     }
/// }
/// let adj = CsrMatrix::from_triplets(4, 4, &triplets);
/// let plan = RowPlan::new(&adj, &[0], 2);
/// let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
/// // Two hops from node 0 reach nodes 0..=2, never node 3.
/// let h = plan.adjacency(0, &adj).matmul(&x);
/// assert_eq!(h.rows(), 2);
/// let y = plan.adjacency(1, &adj).matmul(&h);
/// assert_eq!(y.shape(), (1, 1));
/// assert_eq!(y.get(0, 0), adj.matmul(&adj.matmul(&x)).get(0, 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowPlan {
    /// Per layer, `Â` restricted to the rows that layer computes; `None`
    /// where a layer computes every row from every input row. Empty for
    /// [`RowPlan::all`].
    layers: Vec<Option<CsrMatrix>>,
}

impl RowPlan {
    /// The unrestricted plan, valid for any depth: every layer computes
    /// every row.
    pub fn all() -> RowPlan {
        RowPlan::default()
    }

    /// A plan for `depth` stacked layers over the square adjacency `adj`
    /// whose last layer computes `rows`, in that order (repeats allowed).
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not square, `depth` is 0 or a row is out of
    /// bounds.
    pub fn new(adj: &CsrMatrix, rows: &[usize], depth: usize) -> RowPlan {
        assert_eq!(adj.rows(), adj.cols(), "row plans need a square adjacency");
        assert!(depth > 0, "row plans need at least one layer");
        let n = adj.rows();
        let is_all =
            |rows: &[usize]| rows.len() == n && rows.iter().enumerate().all(|(i, &r)| i == r);
        let mut layers = Vec::with_capacity(depth);
        let mut computed = rows.to_vec();
        let mut computed_all = is_all(&computed);
        for layer in (0..depth).rev() {
            let read = adj.columns_of(&computed);
            let read_all = read.len() == n;
            layers.push(if computed_all && read_all {
                None
            } else {
                let renumber = layer > 0 && !read_all;
                Some(adj.select(&computed, renumber.then_some(read.as_slice())))
            });
            computed = read;
            computed_all = read_all;
        }
        layers.reverse();
        RowPlan { layers }
    }

    /// Number of layers the plan restricts; `None` for [`RowPlan::all`],
    /// which fits any depth.
    pub fn depth(&self) -> Option<usize> {
        (!self.layers.is_empty()).then_some(self.layers.len())
    }

    /// The adjacency layer `layer` (0-based) multiplies by: `full` itself
    /// or its restriction.
    pub fn adjacency<'a>(&'a self, layer: usize, full: &'a CsrMatrix) -> &'a CsrMatrix {
        self.layers
            .get(layer)
            .and_then(Option::as_ref)
            .unwrap_or(full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmm_matches_dense() {
        let triplets = [(0, 0, 2.0), (0, 2, 1.0), (2, 1, 3.0)];
        let sparse = CsrMatrix::from_triplets(3, 3, &triplets);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(sparse.matmul(&x), sparse.to_dense().matmul(&x));
    }

    #[test]
    fn transpose_matches_dense_and_ascends_in_source_row() {
        let triplets = [
            (0, 1, 1.5),
            (1, 0, -1.0),
            (1, 2, 2.0),
            (2, 1, 0.5),
            (3, 1, -0.0),
        ];
        let sparse = CsrMatrix::from_triplets(4, 3, &triplets);
        let transposed = sparse.transpose();
        assert_eq!((transposed.rows(), transposed.cols()), (3, 4));
        assert_eq!(transposed.to_dense(), sparse.to_dense().transpose());
        assert_eq!(
            transposed.row_entries(1).collect::<Vec<_>>(),
            vec![(0, 1.5), (2, 0.5), (3, -0.0)]
        );
        assert_eq!(transposed.transpose(), sparse);
    }

    #[test]
    fn empty_rows_are_fine() {
        let sparse = CsrMatrix::from_triplets(4, 4, &[(3, 0, 1.0)]);
        let x = Matrix::identity(4);
        let y = sparse.matmul(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert_eq!(y.get(3, 0), 1.0);
    }

    #[test]
    fn duplicate_triplets_sum() {
        let sparse = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0), (0, 0, 2.5)]);
        assert_eq!(sparse.nnz(), 1);
        assert_eq!(sparse.get(0, 0), 3.5);
    }

    #[test]
    fn get_missing_entry_is_zero() {
        let sparse = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert_eq!(sparse.get(1, 0), 0.0);
        assert_eq!(sparse.get(0, 1), 1.0);
    }

    #[test]
    fn edge_gradients_match_finite_difference() {
        let triplets = [(0, 0, 0.5), (0, 1, 1.0), (1, 1, -2.0)];
        let sparse = CsrMatrix::from_triplets(2, 2, &triplets);
        let h = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        // Loss = sum of all entries of A*H. Then grad_out = ones.
        let grad_out = Matrix::filled(2, 2, 1.0);
        let grads = sparse.edge_gradients(&grad_out, &h);

        let loss = |s: &CsrMatrix| -> f64 { s.matmul(&h).as_slice().iter().sum() };
        let eps = 1e-6;
        for (k, _) in sparse.triplets().iter().enumerate() {
            let mut plus = sparse.clone();
            plus.values_mut()[k] += eps;
            let mut minus = sparse.clone();
            minus.values_mut()[k] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (numeric - grads[k]).abs() < 1e-6,
                "edge {k}: numeric {numeric} vs analytic {}",
                grads[k]
            );
        }
    }

    #[test]
    fn with_values_keeps_pattern() {
        let sparse = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        let swapped = sparse.with_values(vec![5.0, 6.0]);
        assert_eq!(swapped.get(0, 1), 5.0);
        assert_eq!(swapped.get(1, 0), 6.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bad_triplet_panics() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }
}
