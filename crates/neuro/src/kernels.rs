//! The register-tiled kernels of the graph convolutions.
//!
//! | Kernel | Computes | Called by |
//! |---|---|---|
//! | [`spmm_into`] | `Â·H` | the `∂L/∂X` gather of a [`ConvStack`] |
//! | [`conv_forward`] | a graph convolution's forward rows | every [`ConvStack`] forward, trunk and inference pass |
//! | [`conv_backward`] | a graph convolution's backward rows | every [`ConvStack`] backward pass |
//!
//! Each product is one computation seen per output row: add
//! `Σₜ coefₜ · B[rowₜ, :]` to it, over a list of terms in a fixed order.
//! [`accumulate`] does that with a tile of up to [`TILE`] output columns
//! held in `[f64; T]` accumulators (registers) across the whole term
//! list, instead of loading and storing the output row once per term as
//! a row-axpy does. The two graph-convolution kernels run every product
//! of one layer and direction inside one loop over the rows (DESIGN.md
//! §16 lists the operations of each row). A layer narrower than one
//! vector ([`NARROW`]: the 64→2 classifier head, the 64→1 regressor)
//! has too few output columns to fill a tile, so its forward product
//! runs across a block of [`ROW_BLOCK`] rows and its weight gradient
//! across the input dimension, each skipped term a masked product.
//!
//! **Bit-identity.** Every output element performs exactly the
//! operations of the plain loops the tests hold it to: `CsrMatrix::matmul`
//! for [`spmm_into`], and for the two passes the layered stack of
//! `conv/reference.rs`, built on `CsrMatrix::matmul` and the `Matrix`
//! products. It takes the same products, multiplied then added (never
//! fused), in the same order, from the same start value (`+0.0`, or
//! `-0.0` for `G·Wᵀ`), with the same zero skips. Storing and reloading a
//! partial sum does not round it, so a kernel may also split a reduction
//! into consecutive blocks or rows. Two rules change which terms a sum
//! takes without changing a bit of it: a sum that starts at `+0.0` may
//! add `+0.0` for a skipped term ([`masked`]), and `G·Wᵀ` may skip the
//! zeros of `G` when `W` is finite, summing again in full each element
//! that comes out `±0`; it does where `D` is wider than one tile
//! ([`below_row`]).
//!
//! **Two compiled versions.** Each kernel is one safe generic body,
//! compiled as a plain function and, on x86_64, as a
//! `#[target_feature(enable = "avx2")]` function in which LLVM keeps a
//! 16-column tile in four 256-bit registers. [`Version::detect`] picks
//! the AVX2 build when the CPU has it. Only `avx2` is enabled: with `fma`
//! the compiler still may not fuse (Rust forbids contraction), so it
//! would add nothing. There is no AVX-512 build (DESIGN.md §16 gives the
//! measurement).
//!
//! [`ConvStack`]: crate::conv::ConvStack

use crate::layers::log_softmax_row;
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;

/// Output columns one tile keeps in registers: four 256-bit registers.
const TILE: usize = 16;

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

/// `adj × h` into `out`, each row summed from `+0.0` over its entries
/// in stored order; `h` and `out` are row-major with `width` columns.
pub(crate) fn spmm_into(
    version: Version,
    adj: &CsrMatrix,
    width: usize,
    h: &[f64],
    out: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(adj: &CsrMatrix, width: usize, h: &[f64], out: &mut [f64]) {
            spmm_body(adj, width, h, out)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(adj, width, h, out) };
    }
    spmm_body(adj, width, h, out)
}

/// One graph convolution's forward rows; see [`Forward`].
pub(crate) fn conv_forward(version: Version, pass: Forward<'_>) {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(pass: Forward<'_>) {
            conv_forward_body(pass)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(pass) };
    }
    conv_forward_body(pass)
}

/// One graph convolution's backward rows; see [`Backward`].
pub(crate) fn conv_backward(version: Version, pass: Backward<'_>) {
    #[cfg(target_arch = "x86_64")]
    if version.avx2 {
        #[target_feature(enable = "avx2")]
        fn avx2(pass: Backward<'_>) {
            conv_backward_body(pass)
        }
        // SAFETY: a `Version` with `avx2` set comes only from `detect`,
        // which found AVX2 on this CPU.
        return unsafe { avx2(pass) };
    }
    conv_backward_body(pass)
}

/// The operands of one graph convolution's forward rows: row `r` of the
/// output is `f(Â[r,:]·H·W + b)`, where `f` is the [`Epilogue`].
///
/// Each row gathers `Â[r,:]·H` (from `+0.0`, entries in stored order),
/// multiplies its nonzero entries into `W` (from `+0.0`, in column
/// order), adds `b` and applies `f`: the operations, per element, of the
/// separate products, bias add and activation passes it replaces. A
/// layer narrower than [`NARROW`] runs its product across a block of
/// [`ROW_BLOCK`] rows, with a masked product standing in for each skipped
/// term (see [`masked`]).
pub(crate) struct Forward<'a> {
    /// `Â`: one output row per row, one row of `input` per column.
    pub(crate) adj: &'a CsrMatrix,
    /// `H`, row-major with `weight.rows()` columns; `None` when
    /// `aggregated` already holds every row's `Â·H`.
    pub(crate) input: Option<&'a [f64]>,
    /// `W`, `in × out`.
    pub(crate) weight: &'a Matrix,
    /// `b`, `out` wide.
    pub(crate) bias: &'a [f64],
    /// Where every row's `Â·H` is kept (the weight-gradient cache, `in`
    /// wide); `None` keeps only the current row.
    pub(crate) aggregated: Option<&'a mut [f64]>,
    /// The output, `out` wide.
    pub(crate) output: &'a mut [f64],
    /// What each output row goes through after the bias.
    pub(crate) epilogue: Epilogue<'a>,
}

/// What a forward row does to its output after the bias.
pub(crate) enum Epilogue<'a> {
    /// Nothing: a regression head.
    Linear,
    /// Row-wise log-softmax: a classification head.
    LogSoftmax,
    /// ReLU, writing `v > 0` per element into the mask when there is one.
    Relu(Option<&'a mut [bool]>),
}

/// The operands of one graph convolution's backward rows.
///
/// Row `r` takes its output gradient `G[r,:]` from the [`Source`], then
/// the dropout and ReLU masks. It adds `Â·H[r,k] · G[r,:]` to row `k` of
/// `∂L/∂W` for every nonzero `k`, and `G[r,:]` to `∂L/∂b`: over the rows
/// in ascending order, that is each element's order in `(Â·H)ᵀ·G` and in
/// the column sums of `G` (a narrow layer adds a masked product for
/// every `k` instead). Last it writes `D[r,:] = G[r,:]·Wᵀ` (from `-0.0`),
/// the gradient of `Â·H` that the layer below gathers ([`below_row`]).
pub(crate) struct Backward<'a> {
    /// Rows of the layer: of `Â`, `Â·H` and `G`.
    pub(crate) rows: usize,
    /// Where `G` comes from.
    pub(crate) source: Source<'a>,
    /// The forward pass's ReLU mask, `out` wide, for a hidden layer.
    pub(crate) relu: Option<&'a [bool]>,
    /// The forward pass's dropout mask, `out` wide, when it drew one.
    pub(crate) dropout: Option<&'a [f64]>,
    /// `Â·H` of every row, as the forward pass kept it.
    pub(crate) aggregated: &'a [f64],
    /// `W`, `in × out`.
    pub(crate) weight: &'a Matrix,
    /// `∂L/∂W` is added to this, which starts at `+0.0`.
    pub(crate) grad_weight: &'a mut [f64],
    /// `∂L/∂b` is added to this, which starts at `+0.0`.
    pub(crate) grad_bias: &'a mut [f64],
    /// Where `D = G·Wᵀ` goes, `in` wide; `None` skips it.
    pub(crate) below: Option<&'a mut [f64]>,
    /// The gradients of `Â`'s stored entries; needs `below`.
    pub(crate) edges: Option<Edges<'a>>,
}

/// Where a backward row's output gradient comes from.
pub(crate) enum Source<'a> {
    /// The loss gradient of the stack's output, `out` wide, taken back
    /// through the log-softmax that produced `log_probs` when given.
    Output {
        grad: &'a [f64],
        log_probs: Option<&'a [f64]>,
    },
    /// `Âᵀ·D` of the layer above, gathered from `+0.0` over the rows of
    /// `adj_t = Âᵀ`, whose entries ascend in source row: the order in
    /// which a scatter over `Â`'s rows adds them.
    Above {
        adj_t: &'a CsrMatrix,
        grad: &'a [f64],
    },
}

/// The per-entry gradients `∂L/∂Â[r,c] = D[r,:]·H[c,:]` of a backward
/// pass, added to `grads` in `adj`'s entry order.
pub(crate) struct Edges<'a> {
    /// `Â`, whose row `r` lists the entries row `r` of `D` meets.
    pub(crate) adj: &'a CsrMatrix,
    /// `H`, the layer's input, `in` wide.
    pub(crate) input: &'a [f64],
    /// One gradient per stored entry of `adj`.
    pub(crate) grads: &'a mut [f64],
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

/// Writes `Σ adj[r, c] · b[c, :]` over row `r`'s stored entries, in
/// stored order, to `out`, from `+0.0`.
#[inline(always)]
fn gather(out: &mut [f64], adj: &CsrMatrix, r: usize, b: &[f64]) {
    let (row_ptr, col_idx, values) = adj.parts();
    let entries = row_ptr[r]..row_ptr[r + 1];
    out.fill(0.0);
    accumulate(out, &col_idx[entries.clone()], &values[entries], b);
}

#[inline(always)]
fn spmm_body(adj: &CsrMatrix, width: usize, h: &[f64], out: &mut [f64]) {
    assert_eq!(h.len(), adj.cols() * width, "spmm input shape");
    assert_eq!(out.len(), adj.rows() * width, "spmm output shape");
    for r in 0..adj.rows() {
        gather(&mut out[r * width..(r + 1) * width], adj, r, h);
    }
}

/// Output widths below this, one 256-bit vector of `f64`, make a layer
/// narrow: its forward product runs across a block of rows and its weight
/// gradient across the input dimension, where a row's own terms are too
/// few to fill a vector.
const NARROW: usize = 4;

/// Rows a narrow layer's forward product runs across at once.
const ROW_BLOCK: usize = 8;

/// `h·x`, or `+0.0` where `h` is zero (NaN counts as nonzero).
///
/// Added to a sum that starts at `+0.0`, this stands in for skipping the
/// term: such a sum never holds `-0.0` (in round-to-nearest `a + b` is
/// `-0.0` only when both are), and `s + 0.0 = s` for every other `s`. So
/// the sum keeps every bit of the one that skips the zeros, also where a
/// skipped `0·∞` would have made a NaN.
#[inline(always)]
fn masked(h: f64, x: f64) -> f64 {
    let product = h * x;
    if h != 0.0 {
        product
    } else {
        0.0
    }
}

#[inline(always)]
fn conv_forward_body(pass: Forward<'_>) {
    let (in_width, out_width) = pass.weight.shape();
    let rows = pass.adj.rows();
    match (pass.input, &pass.aggregated) {
        (Some(input), _) => assert_eq!(
            input.len(),
            pass.adj.cols() * in_width,
            "forward input shape"
        ),
        (None, None) => panic!("a forward pass without input reads its cache"),
        (None, Some(_)) => {}
    }
    assert_eq!(pass.bias.len(), out_width, "forward bias shape");
    assert_eq!(pass.output.len(), rows * out_width, "forward output shape");
    if let Some(cache) = &pass.aggregated {
        assert_eq!(cache.len(), rows * in_width, "forward cache shape");
    }
    pass.epilogue.check(rows * out_width);
    match out_width {
        1 => narrow_forward::<1>(pass),
        2 => narrow_forward::<2>(pass),
        3 => narrow_forward::<3>(pass),
        _ => wide_forward(pass),
    }
}

/// Row `r`'s `Â·H` into `row`, unless the cache already holds it.
#[inline(always)]
fn aggregate(row: &mut [f64], adj: &CsrMatrix, r: usize, input: Option<&[f64]>) {
    if let Some(input) = input {
        gather(row, adj, r, input);
    }
}

/// The bias and the epilogue of output row `r`.
#[inline(always)]
fn finish_row(out: &mut [f64], r: usize, bias: &[f64], epilogue: &mut Epilogue<'_>) {
    for (o, &b) in out.iter_mut().zip(bias) {
        *o += b;
    }
    epilogue.apply(r * out.len()..(r + 1) * out.len(), out);
}

/// The forward rows one at a time: each row's nonzero `Â·H` entries
/// accumulate into a tile of its output.
#[inline(always)]
fn wide_forward(pass: Forward<'_>) {
    let Forward {
        adj,
        input,
        weight,
        bias,
        mut aggregated,
        output,
        mut epilogue,
    } = pass;
    let (in_width, out_width) = weight.shape();
    let mut row = vec![0.0; in_width];
    let (mut terms, mut coefs) = (vec![0; in_width], vec![0.0; in_width]);
    for r in 0..adj.rows() {
        let aggregated_row = match aggregated.as_deref_mut() {
            Some(cache) => &mut cache[r * in_width..(r + 1) * in_width],
            None => &mut row[..],
        };
        aggregate(aggregated_row, adj, r, input);
        let count = nonzeros(aggregated_row.iter().copied(), 0, &mut terms, &mut coefs);
        let out = &mut output[r * out_width..(r + 1) * out_width];
        out.fill(0.0);
        accumulate(out, &terms[..count], &coefs[..count], weight.as_slice());
        finish_row(out, r, bias, &mut epilogue);
    }
}

/// The forward rows of a layer `OUT` wide, [`ROW_BLOCK`] at a time: the
/// block's `Â·H` is laid out input-major, so that each step of the sum
/// over the input dimension is one vector operation across the block's
/// rows, a masked product per row and output column.
#[inline(always)]
fn narrow_forward<const OUT: usize>(pass: Forward<'_>) {
    let Forward {
        adj,
        input,
        weight,
        bias,
        mut aggregated,
        output,
        mut epilogue,
    } = pass;
    let in_width = weight.rows();
    let rows = adj.rows();
    let mut block = vec![
        0.0;
        if aggregated.is_some() {
            0
        } else {
            ROW_BLOCK * in_width
        }
    ];
    // Entry `k` holds `Â·H[first + b, k]` at position `b`; positions past a
    // short last block keep stale values, whose sums are never read.
    let mut columns = vec![[0.0; ROW_BLOCK]; in_width];
    for first in (0..rows).step_by(ROW_BLOCK) {
        let count = ROW_BLOCK.min(rows - first);
        let h = match aggregated.as_deref_mut() {
            Some(cache) => &mut cache[first * in_width..(first + count) * in_width],
            None => &mut block[..count * in_width],
        };
        for b in 0..count {
            let row = &mut h[b * in_width..(b + 1) * in_width];
            aggregate(row, adj, first + b, input);
            for (column, &v) in columns.iter_mut().zip(row.iter()) {
                column[b] = v;
            }
        }
        let mut sums = [[0.0; ROW_BLOCK]; OUT];
        for (column, w) in columns.iter().zip(weight.as_slice().chunks_exact(OUT)) {
            for (sum, &w) in sums.iter_mut().zip(w) {
                for (s, &h) in sum.iter_mut().zip(column) {
                    *s += masked(h, w);
                }
            }
        }
        for b in 0..count {
            let r = first + b;
            let out = &mut output[r * OUT..(r + 1) * OUT];
            for (o, sum) in out.iter_mut().zip(&sums) {
                *o = sum[b];
            }
            finish_row(out, r, bias, &mut epilogue);
        }
    }
}

impl Epilogue<'_> {
    /// Panics unless the mask covers `len` elements.
    fn check(&self, len: usize) {
        if let Epilogue::Relu(Some(relu)) = self {
            assert_eq!(relu.len(), len, "ReLU mask shape");
        }
    }

    /// Applies the epilogue to `out`, the output elements `span`.
    #[inline(always)]
    fn apply(&mut self, span: std::ops::Range<usize>, out: &mut [f64]) {
        match self {
            Epilogue::Linear => {}
            Epilogue::LogSoftmax => log_softmax_row(out),
            Epilogue::Relu(None) => {
                for v in out {
                    *v = v.max(0.0);
                }
            }
            Epilogue::Relu(Some(relu)) => relu_row(out, &mut relu[span]),
        }
    }
}

/// ReLU over `out`, recording `v > 0` per element in `keep`; neither
/// loop branches on the data.
#[inline(always)]
fn relu_row(out: &mut [f64], keep: &mut [bool]) {
    for (v, keep) in out.iter_mut().zip(keep) {
        *keep = *v > 0.0;
        *v = v.max(0.0);
    }
}

/// `W` as the backward rows read it: `Wᵀ` for `G·Wᵀ`, and what decides
/// whether that product may skip the zeros of `G`.
struct BelowWeight<'a> {
    /// `W`, `in × out`: a row of it sums an element again in full.
    weight: &'a Matrix,
    /// `Wᵀ`, `out × in`.
    transposed: Matrix,
    /// The zeros of `G` may be skipped: every entry of `W` is finite, so
    /// a zero of `G` makes only `±0` products, and `D` is wider than one
    /// tile, so a skipped term saves more than compacting the row costs.
    skip: bool,
}

impl BelowWeight<'_> {
    fn new(weight: &Matrix) -> BelowWeight<'_> {
        BelowWeight {
            weight,
            transposed: weight.transpose(),
            skip: weight.rows() > TILE && weight.as_slice().iter().all(|w| w.is_finite()),
        }
    }
}

/// Writes `d = g·Wᵀ`, each element summed from `-0.0` over every column
/// `j` of `g` in order, as the dot product that defines it.
///
/// When `W` is finite (and `d` wider than one tile, so that skipping
/// pays), a zero `g[j]` adds only a `±0` product, which
/// changes no running sum but a zero one, and only in its sign. So the
/// sums that skip those terms and the full sums agree wherever either is
/// nonzero: by induction, they are equal or both `±0` after every term
/// (a term both add turns equal sums into equal sums, and two zeros into
/// the term itself, or two zeros again). The sums that skip them are
/// taken, and an element that comes out `±0` is summed again in full. A
/// row without a zero, or with nothing but zeros, takes the full product:
/// the one has no term to skip, and the other would sum every element
/// again.
#[inline(always)]
fn below_row(
    d: &mut [f64],
    g: &[f64],
    below: &BelowWeight<'_>,
    every: &[usize],
    terms: &mut [usize],
    coefs: &mut [f64],
) {
    d.fill(-0.0);
    let count = if below.skip {
        nonzeros(g.iter().copied(), 0, terms, coefs)
    } else {
        g.len()
    };
    if count == 0 || count == g.len() {
        accumulate(d, every, g, below.transposed.as_slice());
        return;
    }
    accumulate(
        d,
        &terms[..count],
        &coefs[..count],
        below.transposed.as_slice(),
    );
    let out_width = g.len();
    for (i, v) in d.iter_mut().enumerate() {
        if *v == 0.0 {
            let row = &below.weight.as_slice()[i * out_width..(i + 1) * out_width];
            *v = g.iter().zip(row).fold(-0.0, |sum, (&x, &w)| sum + x * w);
        }
    }
}

#[inline(always)]
fn conv_backward_body(pass: Backward<'_>) {
    let Backward {
        rows,
        source,
        relu,
        dropout,
        aggregated,
        weight,
        grad_weight,
        grad_bias,
        mut below,
        mut edges,
    } = pass;
    let (in_width, out_width) = weight.shape();
    match &source {
        Source::Output { grad, log_probs } => {
            assert_eq!(grad.len(), rows * out_width, "output gradient shape");
            if let Some(log_probs) = log_probs {
                assert_eq!(log_probs.len(), grad.len(), "log-probability shape");
            }
        }
        Source::Above { adj_t, grad } => {
            assert_eq!(adj_t.rows(), rows, "transposed adjacency rows");
            assert_eq!(grad.len(), adj_t.cols() * out_width, "gradient above shape");
        }
    }
    for mask in [relu.map(<[bool]>::len), dropout.map(<[f64]>::len)]
        .into_iter()
        .flatten()
    {
        assert_eq!(mask, rows * out_width, "backward mask shape");
    }
    assert_eq!(aggregated.len(), rows * in_width, "backward cache shape");
    assert_eq!(
        grad_weight.len(),
        in_width * out_width,
        "weight gradient shape"
    );
    assert_eq!(grad_bias.len(), out_width, "bias gradient shape");
    if let Some(below) = &below {
        assert_eq!(below.len(), rows * in_width, "gradient below shape");
    }
    if let Some(edges) = &edges {
        assert!(below.is_some(), "edge gradients need the gradient below");
        assert_eq!(edges.adj.rows(), rows, "edge adjacency rows");
        assert_eq!(
            edges.input.len(),
            edges.adj.cols() * in_width,
            "edge input shape"
        );
        assert_eq!(edges.grads.len(), edges.adj.nnz(), "edge gradient count");
    }
    let below_weight = below.is_some().then(|| BelowWeight::new(weight));
    // A narrow layer sums `∂L/∂Wᵀ`, so that each output column's terms of
    // a row run across the input dimension at vector width.
    let narrow = out_width < NARROW;
    let mut grad_weight_t = vec![0.0; if narrow { in_width * out_width } else { 0 }];
    let every: Vec<usize> = (0..out_width).collect();
    let mut grad = vec![0.0; out_width];
    let (mut terms, mut coefs) = (vec![0; in_width], vec![0.0; in_width]);
    let (mut grad_terms, mut grad_coefs) = (vec![0; out_width], vec![0.0; out_width]);
    for r in 0..rows {
        let span = r * out_width..(r + 1) * out_width;
        match source {
            Source::Output {
                grad: output,
                log_probs,
            } => {
                grad.copy_from_slice(&output[span.clone()]);
                if let Some(log_probs) = log_probs {
                    let sum: f64 = grad.iter().sum();
                    for (g, &y) in grad.iter_mut().zip(&log_probs[span.clone()]) {
                        *g -= y.exp() * sum;
                    }
                }
            }
            Source::Above { adj_t, grad: above } => gather(&mut grad, adj_t, r, above),
        }
        if let Some(mask) = dropout {
            for (g, &m) in grad.iter_mut().zip(&mask[span.clone()]) {
                *g *= m;
            }
        }
        if let Some(mask) = relu {
            for (g, &keep) in grad.iter_mut().zip(&mask[span]) {
                *g = if keep { *g } else { 0.0 };
            }
        }
        let aggregated_row = &aggregated[r * in_width..(r + 1) * in_width];
        if narrow {
            for (j, &g) in grad.iter().enumerate() {
                let column = &mut grad_weight_t[j * in_width..(j + 1) * in_width];
                for (w, &h) in column.iter_mut().zip(aggregated_row) {
                    *w += masked(h, g);
                }
            }
        } else {
            let count = nonzeros(aggregated_row.iter().copied(), 0, &mut terms, &mut coefs);
            for (&k, &coef) in terms[..count].iter().zip(&coefs[..count]) {
                let weight_row = &mut grad_weight[k * out_width..(k + 1) * out_width];
                for (w, &g) in weight_row.iter_mut().zip(&grad) {
                    *w += coef * g;
                }
            }
        }
        for (b, &g) in grad_bias.iter_mut().zip(&grad) {
            *b += g;
        }
        let (Some(below), Some(below_weight)) = (below.as_deref_mut(), &below_weight) else {
            continue;
        };
        let d = &mut below[r * in_width..(r + 1) * in_width];
        below_row(
            d,
            &grad,
            below_weight,
            &every,
            &mut grad_terms,
            &mut grad_coefs,
        );
        if let Some(Edges { adj, input, grads }) = edges.as_mut() {
            let (row_ptr, col_idx, _) = adj.parts();
            for k in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[k];
                let h = &input[c * in_width..(c + 1) * in_width];
                let dot: f64 = d.iter().zip(h).map(|(&a, &b)| a * b).sum();
                grads[k] += dot;
            }
        }
    }
    if narrow {
        // `grad_weight` starts at `+0.0`, and `+0.0 + s = s` for a sum `s`
        // that started at `+0.0`.
        for k in 0..in_width {
            for j in 0..out_width {
                grad_weight[k * out_width + j] += grad_weight_t[j * in_width + k];
            }
        }
    }
}

/// Operands and comparisons shared by the kernel and graph-convolution
/// differential suites.
#[cfg(test)]
pub(crate) mod testing {
    use super::Version;
    use crate::matrix::Matrix;
    use crate::sparse::CsrMatrix;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Every compiled version this CPU runs.
    pub(crate) fn versions() -> Vec<Version> {
        let mut versions = vec![Version::BASELINE];
        if Version::detect() != Version::BASELINE {
            versions.push(Version::detect());
        }
        versions
    }

    /// An element that stresses summation order and special values: a
    /// signed zero, a subnormal, a tiny or an ordinary magnitude, or
    /// (rarely, so most sums stay finite) an infinity or NaN.
    pub(crate) fn element(rng: &mut ChaCha8Rng) -> f64 {
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
    pub(crate) fn matrix(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Matrix {
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
    pub(crate) fn sparse(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> CsrMatrix {
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
    pub(crate) fn assert_bits_eq(kernel: &[f64], reference: &[f64], what: &str) {
        assert_eq!(kernel.len(), reference.len(), "{what}");
        for (i, (x, y)) in kernel.iter().zip(reference).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                "{what}, element {i}: {x:e} ({:#x}) vs {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{assert_bits_eq, matrix, sparse, versions};
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// `Â·H` in every compiled version against `CsrMatrix::matmul`, the
    /// loop it replaced, on an `n × k` adjacency and `m` columns.
    fn check_all(seed: u64, n: usize, k: usize, m: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let adj = sparse(&mut rng, n, k);
        let h = matrix(&mut rng, k, m);
        let reference = adj.matmul(&h);
        for version in versions() {
            let mut out = Matrix::zeros(n, m);
            spmm_into(version, &adj, m, h.as_slice(), out.as_mut_slice());
            assert_bits_eq(
                out.as_slice(),
                reference.as_slice(),
                &format!("spmm {n}x{k}x{m}, {version:?}"),
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
    }
}
