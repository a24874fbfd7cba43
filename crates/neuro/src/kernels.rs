//! The five products of a GCN training epoch, register-tiled.
//!
//! | Kernel | Product | Called by |
//! |---|---|---|
//! | [`matmul`] | `(ÂH)·W` | `Matrix::matmul` |
//! | [`transpose_matmul`] | `(ÂH)ᵀ·G` | `Matrix::transpose_matmul` |
//! | [`matmul_transpose`] | `G·Wᵀ` | `Matrix::matmul_transpose` |
//! | [`spmm`] | `Â·H` | `CsrMatrix::matmul` |
//! | [`spmm_transpose`] | `Âᵀ·G` | `CsrMatrix::transpose_matmul` |
//!
//! The first four are one computation seen per output row: add
//! `Σₜ coefₜ · B[rowₜ, :]` to it, over a list of terms in a fixed order.
//! [`accumulate`] does that with a tile of up to [`TILE`] output columns
//! held in `[f64; T]` accumulators (registers) across the whole term
//! list, instead of loading and storing the output row once per term as
//! a row-axpy does. `Âᵀ·G` stays a row-axpy scatter.
//!
//! **Bit-identity.** Every output element performs exactly the
//! operations of the row-axpy loop it replaced (kept as a test
//! reference): the same products, multiplied then added (never fused),
//! in the same order, from the same start value (`+0.0`, or `-0.0` for
//! `G·Wᵀ`), with the same zero skips. Storing and reloading a partial sum
//! does not round it, so a kernel may also split a reduction into
//! consecutive blocks.
//!
//! **Two compiled versions.** Each kernel is one safe generic body,
//! compiled as a plain function and, on x86_64, as a
//! `#[target_feature(enable = "avx2")]` function in which LLVM keeps a
//! 16-column tile in four 256-bit registers. [`Version::detect`] picks
//! the AVX2 build when the CPU has it. Only `avx2` is enabled: with `fma`
//! the compiler still may not fuse (Rust forbids contraction), so it
//! would add nothing. There is no AVX-512 build (DESIGN.md §16 gives the
//! measurement).

use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;

/// Output columns one tile keeps in registers: four 256-bit registers.
const TILE: usize = 16;

/// Rows of the reduction `(ÂH)ᵀ·G` accumulates per pass over its
/// output; a block of `G` stays in cache while every output row reads it.
const BLOCK_ROWS: usize = 64;

/// A compiled version of the kernels. Holding one with AVX2 proves the
/// CPU runs AVX2: only [`Version::detect`] creates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Version {
    avx2: bool,
}

impl Version {
    /// The plain build, which runs on every CPU.
    pub(crate) const BASELINE: Version = Version { avx2: false };

    /// The fastest version this CPU runs (`is_x86_feature_detected!`
    /// caches its answer, so this is cheap to call per product).
    pub(crate) fn detect() -> Version {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Version { avx2: true };
        }
        Version::BASELINE
    }
}

/// `a × b`, skipping the zero entries of `a`.
pub(crate) fn matmul(version: Version, a: &Matrix, b: &Matrix) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(a: &Matrix, b: &Matrix) -> Matrix {
            matmul_body(a, b)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(a, b) };
    }
    matmul_body(a, b)
}

/// `aᵀ × g`, skipping the zero entries of `a`.
pub(crate) fn transpose_matmul(version: Version, a: &Matrix, g: &Matrix) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(a: &Matrix, g: &Matrix) -> Matrix {
            transpose_matmul_body(a, g)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(a, g) };
    }
    transpose_matmul_body(a, g)
}

/// `g × wᵀ`, every element summed from `-0.0`.
pub(crate) fn matmul_transpose(version: Version, g: &Matrix, w: &Matrix) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(g: &Matrix, w: &Matrix) -> Matrix {
            matmul_transpose_body(g, w)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(g, w) };
    }
    matmul_transpose_body(g, w)
}

/// `adj × h`, each row's entries in stored order.
pub(crate) fn spmm(version: Version, adj: &CsrMatrix, h: &Matrix) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(adj: &CsrMatrix, h: &Matrix) -> Matrix {
            spmm_body(adj, h)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(adj, h) };
    }
    spmm_body(adj, h)
}

/// `adjᵀ × g`, each output row's terms in ascending row order of `adj`.
pub(crate) fn spmm_transpose(version: Version, adj: &CsrMatrix, g: &Matrix) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(adj: &CsrMatrix, g: &Matrix) -> Matrix {
            spmm_transpose_body(adj, g)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(adj, g) };
    }
    spmm_transpose_body(adj, g)
}

/// Adds `Σₜ coefs[t] · b[rows[t], :]` to `out`, the terms in order. `b`
/// is row-major with `out.len()` columns. Each output column has its own
/// accumulator, held in a register for the whole term list.
#[inline(always)]
fn accumulate(out: &mut [f64], rows: &[usize], coefs: &[f64], b: &[f64]) {
    let width = out.len();
    let mut j = 0;
    while j + TILE <= width {
        tile::<TILE>(out, j, rows, coefs, b);
        j += TILE;
    }
    // The remainder, in tiles of 8, 4, 2 and 1 columns.
    if j + 8 <= width {
        tile::<8>(out, j, rows, coefs, b);
        j += 8;
    }
    if j + 4 <= width {
        tile::<4>(out, j, rows, coefs, b);
        j += 4;
    }
    if j + 2 <= width {
        tile::<2>(out, j, rows, coefs, b);
        j += 2;
    }
    if j < width {
        tile::<1>(out, j, rows, coefs, b);
    }
}

/// [`accumulate`] for output columns `j..j + T`.
#[inline(always)]
fn tile<const T: usize>(out: &mut [f64], j: usize, rows: &[usize], coefs: &[f64], b: &[f64]) {
    let width = out.len();
    let out: &mut [f64; T] = (&mut out[j..j + T]).try_into().expect("tile of T");
    let mut acc = *out;
    for (&row, &coef) in rows.iter().zip(coefs) {
        let start = row * width + j;
        let brow: &[f64; T] = b[start..start + T].try_into().expect("tile of T");
        for (a, &x) in acc.iter_mut().zip(brow) {
            *a += coef * x;
        }
    }
    *out = acc;
}

/// Writes the nonzero entries of `values` (NaN counts as nonzero) and
/// their positions plus `offset` to the front of `rows`/`coefs`, in
/// order, without a data-dependent branch; returns how many there are.
#[inline(always)]
fn nonzeros(
    values: impl Iterator<Item = f64>,
    offset: usize,
    rows: &mut [usize],
    coefs: &mut [f64],
) -> usize {
    let mut count = 0;
    for (i, value) in values.enumerate() {
        rows[count] = offset + i;
        coefs[count] = value;
        count += usize::from(value != 0.0);
    }
    count
}

#[inline(always)]
fn matmul_body(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k) = a.shape();
    let width = b.cols();
    let mut out = Matrix::zeros(n, width);
    if width == 0 {
        return out;
    }
    let (mut rows, mut coefs) = (vec![0; k], vec![0.0; k]);
    for (arow, orow) in a
        .as_slice()
        .chunks_exact(k.max(1))
        .zip(out.as_mut_slice().chunks_exact_mut(width))
    {
        let count = nonzeros(arow.iter().copied(), 0, &mut rows, &mut coefs);
        accumulate(orow, &rows[..count], &coefs[..count], b.as_slice());
    }
    out
}

#[inline(always)]
fn transpose_matmul_body(a: &Matrix, g: &Matrix) -> Matrix {
    let (n, k) = a.shape();
    let width = g.cols();
    let mut out = Matrix::zeros(k, width);
    if width == 0 {
        return out;
    }
    let (mut rows, mut coefs) = (vec![0; BLOCK_ROWS], vec![0.0; BLOCK_ROWS]);
    for first in (0..n).step_by(BLOCK_ROWS) {
        let block = &a.as_slice()[first * k..(first + BLOCK_ROWS).min(n) * k];
        for (i, orow) in out.as_mut_slice().chunks_exact_mut(width).enumerate() {
            let column = block.iter().skip(i).step_by(k).copied();
            let count = nonzeros(column, first, &mut rows, &mut coefs);
            accumulate(orow, &rows[..count], &coefs[..count], g.as_slice());
        }
    }
    out
}

#[inline(always)]
fn matmul_transpose_body(g: &Matrix, w: &Matrix) -> Matrix {
    let w_t = w.transpose();
    let width = w.rows();
    let mut out = Matrix::filled(g.rows(), width, -0.0);
    if width == 0 {
        return out;
    }
    let rows: Vec<usize> = (0..g.cols()).collect();
    for (grow, orow) in g
        .as_slice()
        .chunks_exact(g.cols().max(1))
        .zip(out.as_mut_slice().chunks_exact_mut(width))
    {
        accumulate(orow, &rows, grow, w_t.as_slice());
    }
    out
}

#[inline(always)]
fn spmm_body(adj: &CsrMatrix, h: &Matrix) -> Matrix {
    let width = h.cols();
    let mut out = Matrix::zeros(adj.rows(), width);
    if width == 0 {
        return out;
    }
    let (row_ptr, col_idx, values) = adj.parts();
    for (bounds, orow) in row_ptr
        .windows(2)
        .zip(out.as_mut_slice().chunks_exact_mut(width))
    {
        let entries = bounds[0]..bounds[1];
        accumulate(
            orow,
            &col_idx[entries.clone()],
            &values[entries],
            h.as_slice(),
        );
    }
    out
}

/// A scatter: row `r` of `g`, scaled by each entry `(r, c)` of `adj`, is
/// added to output row `c`, so each output row receives its terms in
/// ascending `r`. (A gather over the transposed pattern, tiled like the
/// other kernels, measured no faster once it pays for the transposition.)
#[inline(always)]
fn spmm_transpose_body(adj: &CsrMatrix, g: &Matrix) -> Matrix {
    let width = g.cols();
    let mut out = Matrix::zeros(adj.cols(), width);
    if width == 0 {
        return out;
    }
    let (row_ptr, col_idx, values) = adj.parts();
    let out_data = out.as_mut_slice();
    for (bounds, grow) in row_ptr.windows(2).zip(g.as_slice().chunks_exact(width)) {
        for (&c, &v) in col_idx[bounds[0]..bounds[1]]
            .iter()
            .zip(&values[bounds[0]..bounds[1]])
        {
            for (o, &x) in out_data[c * width..(c + 1) * width].iter_mut().zip(grow) {
                *o += v * x;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Every compiled version this CPU runs.
    fn versions() -> Vec<Version> {
        let mut versions = vec![Version::BASELINE];
        if Version::detect() != Version::BASELINE {
            versions.push(Version::detect());
        }
        versions
    }

    // The row-axpy loops the kernels replaced, and for `G·Wᵀ` the dot
    // product that defines it: the bit-identity references.

    fn matmul_reference(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let x = a.get(i, k);
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    fn transpose_matmul_reference(a: &Matrix, g: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.cols(), g.cols());
        for r in 0..a.rows() {
            for (i, &x) in a.row(r).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (o, &y) in out.row_mut(i).iter_mut().zip(g.row(r)) {
                    *o += x * y;
                }
            }
        }
        out
    }

    fn matmul_transpose_reference(g: &Matrix, w: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(g.rows(), w.rows());
        for i in 0..g.rows() {
            for j in 0..w.rows() {
                let dot: f64 = g.row(i).iter().zip(w.row(j)).map(|(&x, &y)| x * y).sum();
                out.set(i, j, dot);
            }
        }
        out
    }

    fn spmm_reference(adj: &CsrMatrix, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(adj.rows(), h.cols());
        for r in 0..adj.rows() {
            for (c, v) in adj.row_entries(r) {
                for (o, &y) in out.row_mut(r).iter_mut().zip(h.row(c)) {
                    *o += v * y;
                }
            }
        }
        out
    }

    fn spmm_transpose_reference(adj: &CsrMatrix, g: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(adj.cols(), g.cols());
        for r in 0..adj.rows() {
            for (c, v) in adj.row_entries(r) {
                for (o, &y) in out.row_mut(c).iter_mut().zip(g.row(r)) {
                    *o += v * y;
                }
            }
        }
        out
    }

    /// An element that stresses summation order and special values: a
    /// signed zero, a subnormal, a tiny or an ordinary magnitude, or
    /// (rarely, so most sums stay finite) an infinity or NaN.
    fn element(rng: &mut ChaCha8Rng) -> f64 {
        let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        match rng.gen_range(0..64u32) {
            0..=11 => sign * 0.0,
            12..=19 => sign * f64::from_bits(rng.gen_range(1u64..(1 << 52))),
            20..=27 => sign * rng.gen_range(0.0..1e-300),
            28 => sign * f64::INFINITY,
            29 => f64::NAN,
            _ => sign * rng.gen_range(0.0..1e3),
        }
    }

    /// A `rows × cols` matrix in which about a quarter of the rows are
    /// entirely (signed) zero.
    fn matrix(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows {
            if rng.gen_bool(0.25) {
                let zero = if rng.gen_bool(0.5) { -0.0 } else { 0.0 };
                data.extend(std::iter::repeat_n(zero, cols));
            } else {
                data.extend((0..cols).map(|_| element(rng)));
            }
        }
        Matrix::from_vec(rows, cols, data)
    }

    /// A `rows × cols` sparse matrix storing about a third of its cells,
    /// stored zeros included.
    fn sparse(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> CsrMatrix {
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen_bool(0.3) {
                    triplets.push((r, c, element(rng)));
                }
            }
        }
        CsrMatrix::from_triplets(rows, cols, &triplets)
    }

    /// Equal `to_bits`, except that a NaN matches any NaN: when both
    /// addends are NaN, x86 returns the payload of the operand the
    /// compiler put first, and the compiler may commute an addition.
    fn assert_bits_eq(kernel: &Matrix, reference: &Matrix, what: &str) {
        assert_eq!(kernel.shape(), reference.shape(), "{what}");
        for (i, (x, y)) in kernel
            .as_slice()
            .iter()
            .zip(reference.as_slice())
            .enumerate()
        {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}, element {i}: {x:e} ({:#x}) vs {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// All five kernels, in every compiled version, against their
    /// references on operands whose product has `n` rows, inner dimension
    /// `k` and `m` columns.
    fn check_all(seed: u64, n: usize, k: usize, m: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = matrix(&mut rng, n, k);
        let b = matrix(&mut rng, k, m);
        let g = matrix(&mut rng, n, m);
        let w = matrix(&mut rng, m, k);
        let adj = sparse(&mut rng, n, k);
        let h = matrix(&mut rng, k, m);
        for version in versions() {
            let what = |kernel: &str| format!("{kernel} {n}x{k}x{m}, {version:?}");
            assert_bits_eq(
                &matmul(version, &a, &b),
                &matmul_reference(&a, &b),
                &what("matmul"),
            );
            assert_bits_eq(
                &transpose_matmul(version, &a, &g),
                &transpose_matmul_reference(&a, &g),
                &what("transpose_matmul"),
            );
            assert_bits_eq(
                &matmul_transpose(version, &a, &w),
                &matmul_transpose_reference(&a, &w),
                &what("matmul_transpose"),
            );
            assert_bits_eq(
                &spmm(version, &adj, &h),
                &spmm_reference(&adj, &h),
                &what("spmm"),
            );
            assert_bits_eq(
                &spmm_transpose(version, &adj, &g),
                &spmm_transpose_reference(&adj, &g),
                &what("spmm_transpose"),
            );
        }
    }

    proptest! {
        #[test]
        fn kernels_are_bit_identical_to_reference_loops(
            seed: u64,
            n in 0usize..71,
            k in 0usize..71,
            m in 0usize..71,
        ) {
            check_all(seed, n, k, m);
        }
    }

    #[test]
    fn every_tile_remainder_is_bit_identical() {
        for m in 0..=2 * TILE + 7 {
            check_all(m as u64, 9, 11, m);
            check_all(m as u64, 3, 1, m);
        }
        // Reductions that span several row blocks of `(ÂH)ᵀ·G`.
        check_all(7, 3 * BLOCK_ROWS + 5, 6, 19);
    }

    #[test]
    fn matmul_transpose_keeps_signed_zero_of_dot_product() {
        // All-(-0.0) rows sum to -0.0 only from a -0.0 start; mixed-sign
        // zero products must round to +0.0 exactly as the dot does.
        let g = Matrix::from_rows(&[&[-0.0, -0.0], &[0.0, -0.0], &[0.0, 0.0]]);
        let w = Matrix::from_rows(&[&[1.0, 2.0], &[-1.0, 3.0], &[-0.0, 0.0]]);
        // An empty inner dimension yields the sum of nothing: -0.0.
        let (g0, w0) = (Matrix::zeros(2, 0), Matrix::zeros(3, 0));
        for version in versions() {
            let what = format!("{version:?}");
            assert_bits_eq(
                &matmul_transpose(version, &g, &w),
                &matmul_transpose_reference(&g, &w),
                &what,
            );
            let empty = matmul_transpose(version, &g0, &w0);
            assert_bits_eq(&empty, &matmul_transpose_reference(&g0, &w0), &what);
            assert!(empty.get(1, 2).is_sign_negative());
        }
    }
}
