//! Graph-convolution stacks, run in one fused row pass per layer and
//! direction over a [`Workspace`] that lives as long as the run.
//!
//! A [`ConvStack`] is `L` graph convolutions `Hₗ = f(Â·Hₗ₋₁·Wₗ + bₗ)`
//! (Kipf & Welling, Eq. 2 of the paper): ReLU after every layer but the
//! last, an inverted dropout after the ReLU of one hidden layer while
//! training, and a row-wise log-softmax or nothing after the last. It
//! holds parameters only. Every buffer as long as the graph (hidden
//! activations, the `Â·H` each weight gradient reads, masks, gradients)
//! belongs to a [`Workspace`], which a caller creates for a run, passes
//! to each pass and drops with the run; after the first pass has sized
//! them, later passes allocate nothing proportional to the graph.
//!
//! **Forward.** Each layer is one loop over the rows: a row gathers its
//! `Â·H` row and keeps it (the cache its weight gradient reads), runs the
//! nonzero entries of that row into `W`, adds `b`, and applies the ReLU,
//! the dropout or the log-softmax, writing their masks in element order.
//!
//! **Backward.** Each layer, top down, is one loop over the rows: a row
//! gathers `Âᵀ·D` from the gradient `D` of the layer above (over `Âᵀ`,
//! built once per workspace, whose rows ascend in source row), applies
//! the masks, adds its terms to `∂L/∂W` and `∂L/∂b`, and writes its row of
//! `D = G·Wᵀ` for the layer below. Activations going up and `D` coming
//! down take turns in two buffers.
//!
//! Every float keeps the exact sequence of operations of the layered
//! passes (one product per call) these replaced: the differential suite
//! below checks the outputs, masks, parameter gradients, `∂L/∂X` and edge
//! gradients by `to_bits` against those passes, kept as a test reference.

use crate::init::glorot_uniform;
use crate::kernels::{self, Backward, Edges, Epilogue, Forward, Source, Version};
use crate::layers::Dropout;
use crate::matrix::Matrix;
use crate::param::Param;
use crate::sparse::{CsrMatrix, RowPlan};

/// The parameters of one graph convolution `H' = Â·H·W + b`.
#[derive(Debug, Clone)]
pub struct GraphConv {
    /// Weight matrix, `in_features × out_features`.
    pub weight: Param,
    /// Bias row, `1 × out_features`.
    pub bias: Param,
}

impl GraphConv {
    /// A Glorot-initialized convolution with a zero bias.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> GraphConv {
        GraphConv {
            weight: Param::new(glorot_uniform(in_features, out_features, seed)),
            bias: Param::new(Matrix::zeros(1, out_features)),
        }
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.weight.value.rows()
    }

    /// Output feature width.
    pub fn out_features(&self) -> usize {
        self.weight.value.cols()
    }
}

/// A stack of graph convolutions: ReLU after every layer but the last,
/// inverted dropout after the ReLU of hidden layer `dropout_after` while
/// training, and an optional row-wise log-softmax on the output.
///
/// # Example
///
/// ```
/// use fusa_neuro::conv::{ConvStack, GraphConv, Workspace};
/// use fusa_neuro::layers::Dropout;
/// use fusa_neuro::{CsrMatrix, Matrix, RowPlan};
///
/// let convs = vec![GraphConv::new(2, 4, 1), GraphConv::new(4, 2, 2)];
/// let mut stack = ConvStack::new(convs, Dropout::new(0.0, 3), 0, true);
/// let adj = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 0.5), (1, 1, 1.0)]);
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
///
/// let mut workspace = Workspace::new(&adj);
/// let log_probs = stack.forward(&mut workspace, &x, true).clone();
/// assert_eq!(log_probs.shape(), (2, 2));
/// stack.backward_params(&mut workspace, &Matrix::from_rows(&[&[-0.5, 0.0], &[0.0, -0.5]]));
/// assert!(stack.params().iter().any(|p| p.grad.frobenius_norm() > 0.0));
///
/// // Inference reproduces the training output when nothing is dropped.
/// let inferred = stack.infer(&mut workspace, &x, &RowPlan::all());
/// assert_eq!(inferred, &log_probs);
/// ```
#[derive(Debug, Clone)]
pub struct ConvStack {
    convs: Vec<GraphConv>,
    dropout: Dropout,
    dropout_after: usize,
    log_softmax: bool,
}

/// What the last caching forward pass over a workspace kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cached {
    /// A training pass: no layer inputs; a dropout mask when it drew one.
    Training { dropout: bool },
    /// An eval pass: every layer's input, for edge gradients.
    Eval,
}

/// The buffers of a [`ConvStack`]'s passes over one square adjacency.
///
/// A workspace starts empty; each pass sizes the buffers it writes and
/// later passes reuse them, so a run allocates its graph-sized buffers in
/// its first epoch only. An inference pass has an output of its own, so
/// it may run between a forward pass and the backward pass that follows.
#[derive(Debug)]
pub struct Workspace<'a> {
    adj: &'a CsrMatrix,
    version: Version,
    /// `Âᵀ`, built by the first backward pass.
    adj_t: Option<CsrMatrix>,
    /// What the last caching forward pass kept for backward.
    cached: Option<Cached>,
    /// Per layer, `Â·H` of every row: the weight gradient's cache.
    aggregated: Vec<Vec<f64>>,
    /// Per hidden layer, its ReLU mask.
    relu: Vec<Vec<bool>>,
    /// The dropout mask of the last training pass.
    dropout: Vec<f64>,
    /// Per layer, its input, kept by an eval pass (layer 0's is `X`).
    inputs: Vec<Vec<f64>>,
    /// Hidden activations going up and `D = G·Wᵀ` coming down: layer `l`
    /// writes `buffers[l % 2]` and reads the other.
    buffers: [Vec<f64>; 2],
    /// The output of the last caching forward pass.
    output: Matrix,
    /// The output of the last inference pass.
    inferred: Matrix,
}

impl<'a> Workspace<'a> {
    /// An empty workspace for passes over `adj`.
    ///
    /// # Panics
    ///
    /// Panics if `adj` is not square.
    pub fn new(adj: &'a CsrMatrix) -> Workspace<'a> {
        assert_eq!(
            adj.rows(),
            adj.cols(),
            "graph convolutions need a square adjacency"
        );
        Workspace {
            adj,
            version: Version::detect(),
            adj_t: None,
            cached: None,
            aggregated: Vec::new(),
            relu: Vec::new(),
            dropout: Vec::new(),
            inputs: Vec::new(),
            buffers: [Vec::new(), Vec::new()],
            output: Matrix::zeros(0, 0),
            inferred: Matrix::zeros(0, 0),
        }
    }
}

/// `buf` as `len` elements, reusing its allocation.
fn sized<T: Clone + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    buf.resize(len, T::default());
    buf
}

/// The buffer layer `layer` reads and the one it writes.
fn ping_pong(buffers: &mut [Vec<f64>; 2], layer: usize) -> (&[f64], &mut Vec<f64>) {
    let [even, odd] = buffers;
    if layer.is_multiple_of(2) {
        (odd, even)
    } else {
        (even, odd)
    }
}

impl ConvStack {
    /// A stack of `convs`, bottom first. `dropout` follows the ReLU of
    /// hidden layer `dropout_after` (a stack of one convolution has no
    /// hidden layer, so neither ReLU nor dropout); `log_softmax` adds the
    /// row-wise log-softmax of a classification head.
    ///
    /// # Panics
    ///
    /// Panics if `convs` is empty, their widths do not chain, or
    /// `dropout_after` is not a hidden layer of a deeper stack.
    pub fn new(
        convs: Vec<GraphConv>,
        dropout: Dropout,
        dropout_after: usize,
        log_softmax: bool,
    ) -> ConvStack {
        assert!(!convs.is_empty(), "a stack needs at least one convolution");
        for pair in convs.windows(2) {
            assert_eq!(
                pair[0].out_features(),
                pair[1].in_features(),
                "convolution widths do not chain"
            );
        }
        assert!(
            convs.len() == 1 || dropout_after + 1 < convs.len(),
            "dropout must follow a hidden layer"
        );
        ConvStack {
            convs,
            dropout,
            dropout_after,
            log_softmax,
        }
    }

    /// Number of convolutions.
    pub fn depth(&self) -> usize {
        self.convs.len()
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.convs[0].in_features()
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.convs[self.convs.len() - 1].out_features()
    }

    /// Every weight and bias, bottom layer first.
    pub fn params(&self) -> Vec<&Param> {
        self.convs
            .iter()
            .flat_map(|c| [&c.weight, &c.bias])
            .collect()
    }

    /// Every weight and bias, bottom layer first, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.convs
            .iter_mut()
            .flat_map(|c| [&mut c.weight, &mut c.bias])
            .collect()
    }

    /// The dropout layer, whose generator a snapshot saves.
    pub fn dropout(&self) -> &Dropout {
        &self.dropout
    }

    /// The dropout layer, mutably.
    pub fn dropout_mut(&mut self) -> &mut Dropout {
        &mut self.dropout
    }

    /// Caching forward pass over every row of the workspace's adjacency;
    /// returns the output (log-probabilities under a log-softmax head).
    /// `training` draws dropout; an eval pass (`training = false`) also
    /// keeps every layer's input, which
    /// [`ConvStack::backward_with_edge_grads`] reads.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not one row of the input width per node.
    pub fn forward<'w>(
        &mut self,
        ws: &'w mut Workspace<'_>,
        x: &Matrix,
        training: bool,
    ) -> &'w Matrix {
        let n = ws.adj.rows();
        assert_eq!(x.shape(), (n, self.in_features()), "input shape");
        let depth = self.convs.len();
        let dropout = training && self.dropout.p > 0.0 && depth > 1;
        ws.aggregated.resize_with(depth, Vec::new);
        ws.relu.resize_with(depth - 1, Vec::new);
        if !training {
            ws.inputs.resize_with(depth, Vec::new);
            sized(&mut ws.inputs[0], x.as_slice().len()).copy_from_slice(x.as_slice());
        }
        for (l, conv) in self.convs.iter().enumerate() {
            let (in_width, out_width) = conv.weight.value.shape();
            let last = l + 1 == depth;
            let epilogue = if last {
                self.head()
            } else {
                let relu = sized(&mut ws.relu[l], n * out_width);
                if dropout && l == self.dropout_after {
                    Epilogue::ReluDropout {
                        relu,
                        mask: sized(&mut ws.dropout, n * out_width),
                        dropout: &mut self.dropout,
                    }
                } else {
                    Epilogue::Relu(Some(relu))
                }
            };
            let (input, output) = if training {
                let (read, write) = ping_pong(&mut ws.buffers, l);
                let input = if l == 0 { x.as_slice() } else { read };
                let output = if last {
                    ws.output.resize(n, out_width);
                    ws.output.as_mut_slice()
                } else {
                    sized(write, n * out_width)
                };
                (input, output)
            } else {
                let (kept, above) = ws.inputs.split_at_mut(l + 1);
                let output = if last {
                    ws.output.resize(n, out_width);
                    ws.output.as_mut_slice()
                } else {
                    sized(&mut above[0], n * out_width)
                };
                (&kept[l][..], output)
            };
            kernels::conv_forward(
                ws.version,
                Forward {
                    adj: ws.adj,
                    input,
                    weight: &conv.weight.value,
                    bias: conv.bias.value.as_slice(),
                    aggregated: Some(sized(&mut ws.aggregated[l], n * in_width)),
                    output,
                    epilogue,
                },
            );
        }
        ws.cached = Some(if training {
            Cached::Training { dropout }
        } else {
            Cached::Eval
        });
        &ws.output
    }

    /// Backward pass from `grad_output = ∂L/∂output` (the log-probability
    /// gradient under a log-softmax head): accumulates every parameter
    /// gradient and skips `∂L/∂X`, which training never reads.
    ///
    /// # Panics
    ///
    /// Panics unless a forward pass over `ws` came first, or if
    /// `grad_output` does not have the output's shape.
    pub fn backward_params(&mut self, ws: &mut Workspace<'_>, grad_output: &Matrix) {
        self.backward_pass(ws, grad_output, false, None);
    }

    /// Backward pass that also returns `∂L/∂X`.
    ///
    /// # Panics
    ///
    /// As [`ConvStack::backward_params`].
    pub fn backward(&mut self, ws: &mut Workspace<'_>, grad_output: &Matrix) -> Matrix {
        self.backward_pass(ws, grad_output, true, None)
            .expect("the input gradient was requested")
    }

    /// Backward pass that returns `∂L/∂X` and the per-entry adjacency
    /// gradients `∂L/∂Â[r,c]`, summed over the layers, in CSR entry order:
    /// the signal the GNN explainer's edge mask trains on.
    ///
    /// # Panics
    ///
    /// Panics unless an eval-mode forward pass over `ws` came first.
    pub fn backward_with_edge_grads(
        &mut self,
        ws: &mut Workspace<'_>,
        grad_output: &Matrix,
    ) -> (Matrix, Vec<f64>) {
        let mut edge_grads = Vec::new();
        let grad_x = self
            .backward_pass(ws, grad_output, true, Some(&mut edge_grads))
            .expect("the input gradient was requested");
        (grad_x, edge_grads)
    }

    fn backward_pass(
        &mut self,
        ws: &mut Workspace<'_>,
        grad_output: &Matrix,
        input_grad: bool,
        mut edge_grads: Option<&mut Vec<f64>>,
    ) -> Option<Matrix> {
        let cached = ws
            .cached
            .expect("a backward pass needs a forward pass over the workspace first");
        let n = ws.adj.rows();
        assert_eq!(
            grad_output.shape(),
            (n, self.out_features()),
            "output gradient shape"
        );
        if let Some(grads) = edge_grads.as_deref_mut() {
            assert_eq!(
                cached,
                Cached::Eval,
                "edge gradients need an eval-mode forward pass"
            );
            // `-0.0 + g` is `g` bit for bit: the first layer's gradients
            // land unchanged, and the others add to them.
            grads.clear();
            grads.resize(ws.adj.nnz(), -0.0);
        }
        let adj = ws.adj;
        let adj_t = &*ws.adj_t.get_or_insert_with(|| adj.transpose());
        let dropped = cached == Cached::Training { dropout: true };
        let depth = self.convs.len();
        for l in (0..depth).rev() {
            let hidden = l + 1 < depth;
            let conv = &mut self.convs[l];
            let (in_width, out_width) = conv.weight.value.shape();
            let (above, write) = ping_pong(&mut ws.buffers, l);
            let source = if !hidden {
                Source::Output {
                    grad: grad_output.as_slice(),
                    log_probs: self.log_softmax.then_some(ws.output.as_slice()),
                }
            } else {
                Source::Above { adj_t, grad: above }
            };
            let below = l > 0 || input_grad;
            let mut grad_weight = vec![0.0; in_width * out_width];
            let mut grad_bias = vec![0.0; out_width];
            kernels::conv_backward(
                ws.version,
                Backward {
                    rows: n,
                    source,
                    relu: hidden.then(|| &ws.relu[l][..]),
                    dropout: (hidden && dropped && l == self.dropout_after)
                        .then_some(&ws.dropout[..]),
                    aggregated: &ws.aggregated[l],
                    weight: &conv.weight.value,
                    grad_weight: &mut grad_weight,
                    grad_bias: &mut grad_bias,
                    below: below.then(|| sized(write, n * in_width)),
                    edges: edge_grads.as_deref_mut().map(|grads| Edges {
                        adj,
                        input: &ws.inputs[l],
                        grads,
                    }),
                },
            );
            // The gradients were summed from `+0.0`, as a product into a
            // new matrix is, and are added to the parameters' as such.
            for (param, grad) in [(&mut conv.weight, grad_weight), (&mut conv.bias, grad_bias)] {
                for (g, d) in param.grad.as_mut_slice().iter_mut().zip(grad) {
                    *g += d;
                }
            }
        }
        input_grad.then(|| {
            // Layer 0 wrote its `D` to `buffers[0]`.
            let width = self.in_features();
            let mut grad_x = Matrix::zeros(n, width);
            kernels::spmm_into(
                ws.version,
                adj_t,
                width,
                &ws.buffers[0],
                grad_x.as_mut_slice(),
            );
            grad_x
        })
    }

    /// Cache-free inference of the output rows `plan` was built for over
    /// the workspace's adjacency: every row for [`RowPlan::all`]. Each
    /// layer computes only the rows the next one reads, and every row is
    /// bit-identical to the same row of a full pass.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a different depth or `x` does not
    /// have one row of the input width per node.
    pub fn infer<'w>(&self, ws: &'w mut Workspace<'_>, x: &Matrix, plan: &RowPlan) -> &'w Matrix {
        let depth = self.convs.len();
        assert!(
            plan.depth().is_none_or(|d| d == depth),
            "row plan depth does not match the stack"
        );
        assert_eq!(
            x.shape(),
            (ws.adj.rows(), self.in_features()),
            "input shape"
        );
        let full = ws.adj;
        for (l, conv) in self.convs.iter().enumerate() {
            let adj = plan.adjacency(l, full);
            let out_width = conv.out_features();
            let last = l + 1 == depth;
            let (read, write) = ping_pong(&mut ws.buffers, l);
            let output = if last {
                ws.inferred.resize(adj.rows(), out_width);
                ws.inferred.as_mut_slice()
            } else {
                sized(write, adj.rows() * out_width)
            };
            kernels::conv_forward(
                ws.version,
                Forward {
                    adj,
                    input: if l == 0 { x.as_slice() } else { read },
                    weight: &conv.weight.value,
                    bias: conv.bias.value.as_slice(),
                    aggregated: None,
                    output,
                    epilogue: if last {
                        self.head()
                    } else {
                        Epilogue::Relu(None)
                    },
                },
            );
        }
        &ws.inferred
    }

    /// The epilogue of the last layer.
    fn head(&self) -> Epilogue<'static> {
        if self.log_softmax {
            Epilogue::LogSoftmax
        } else {
            Epilogue::Linear
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::Layered;
    use super::*;
    use crate::kernels::testing::{assert_bits_eq, element, versions};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// A random square adjacency on `n` nodes with asymmetric values:
    /// about one node in five is isolated (no entries, so an empty row
    /// and column), the others get random entries, self-loops optional.
    fn random_adjacency(rng: &mut ChaCha8Rng, n: usize, special: bool) -> CsrMatrix {
        let isolated: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.2)).collect();
        let density = rng.gen_range(0.02..0.4);
        let mut triplets = Vec::new();
        for r in (0..n).filter(|&r| !isolated[r]) {
            for c in (0..n).filter(|&c| !isolated[c]) {
                if rng.gen_bool(density) {
                    triplets.push((r, c, value(rng, special)));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &triplets)
    }

    /// An ordinary value, or one of the kernel suite's special values.
    fn value(rng: &mut ChaCha8Rng, special: bool) -> f64 {
        if special {
            element(rng)
        } else {
            rng.gen_range(-1.0..1.0)
        }
    }

    fn random_matrix(rng: &mut ChaCha8Rng, rows: usize, cols: usize, special: bool) -> Matrix {
        let data = (0..rows * cols).map(|_| value(rng, special)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// A stack of convolutions from `widths[0]` features through the
    /// other widths, with random parameters and a random dropout
    /// position.
    fn random_stack(
        rng: &mut ChaCha8Rng,
        widths: &[usize],
        p: f64,
        log_softmax: bool,
        special: bool,
    ) -> ConvStack {
        let depth = widths.len() - 1;
        let convs = widths
            .windows(2)
            .map(|pair| {
                let mut conv = GraphConv::new(pair[0], pair[1], rng.gen());
                conv.weight.value = random_matrix(rng, pair[0], pair[1], special);
                conv.bias.value = random_matrix(rng, 1, pair[1], special);
                conv
            })
            .collect();
        let dropout_after = rng.gen_range(0..depth.saturating_sub(1).max(1));
        ConvStack::new(
            convs,
            Dropout::new(p, rng.gen()),
            dropout_after,
            log_softmax,
        )
    }

    fn grads(stack: &ConvStack) -> Vec<Vec<f64>> {
        stack
            .params()
            .iter()
            .map(|p| p.grad.as_slice().to_vec())
            .collect()
    }

    /// One training step and one eval step with edge gradients, fused (in
    /// `version`) and layered, compared element by element, for a stack
    /// from `widths[0]` input features through the other widths.
    fn check(seed: u64, n: usize, widths: &[usize], p: f64, log_softmax: bool, special: bool) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let adj = random_adjacency(&mut rng, n, special);
        let depth = widths.len() - 1;
        let stack = random_stack(&mut rng, widths, p, log_softmax, special);
        let x = random_matrix(&mut rng, n, widths[0], special);
        let grad = random_matrix(&mut rng, n, stack.out_features(), special);
        for version in versions() {
            let what = |part: &str| {
                format!(
                    "{part}: n {n}, widths {widths:?}, p {p}, {log_softmax}, {special}, {version:?}"
                )
            };
            let (mut fused, mut layered) = (stack.clone(), Layered::new(&stack));
            let mut ws = Workspace::new(&adj);
            ws.version = version;
            for training in [true, false] {
                let output = fused.forward(&mut ws, &x, training).clone();
                let reference = layered.forward(&adj, &x, training);
                assert_bits_eq(output.as_slice(), reference.as_slice(), &what("output"));
                for (l, mask) in layered.relu_masks().iter().enumerate() {
                    assert_eq!(&ws.relu[l], mask, "{}", what("ReLU mask"));
                }
                if let Some(mask) = layered.dropout_mask() {
                    assert!(training);
                    assert_bits_eq(&ws.dropout, mask, &what("dropout mask"));
                }
                let (grad_x, edges) = if training {
                    (fused.backward(&mut ws, &grad), None)
                } else {
                    let (grad_x, edges) = fused.backward_with_edge_grads(&mut ws, &grad);
                    (grad_x, Some(edges))
                };
                let (reference_x, reference_edges) = layered.backward(&adj, &grad, !training);
                assert_bits_eq(grad_x.as_slice(), reference_x.as_slice(), &what("dL/dX"));
                if let (Some(edges), Some(reference)) = (edges, reference_edges) {
                    assert_bits_eq(&edges, &reference, &what("edge gradients"));
                }
                for (l, (g, r)) in grads(&fused).iter().zip(layered.grads()).enumerate() {
                    assert_bits_eq(g, &r, &what(&format!("parameter {l} gradient")));
                }
                // Parameter gradients only, from zero, as a training step runs.
                for p in fused.params_mut() {
                    p.zero_grad();
                }
                layered.zero_grads();
                fused.backward_params(&mut ws, &grad);
                layered.backward(&adj, &grad, false);
                for (l, (g, r)) in grads(&fused).iter().zip(layered.grads()).enumerate() {
                    assert_bits_eq(g, &r, &what(&format!("parameter {l} gradient only")));
                }
            }
            // Inference of every row, and of a partial, repeating row set.
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            let reference = layered.infer(&adj, &x);
            for rows in [(0..n).collect(), rows] {
                let plan = RowPlan::new(&adj, &rows, depth);
                let inferred = fused.infer(&mut ws, &x, &plan);
                assert_eq!(inferred.rows(), rows.len());
                for (i, &r) in rows.iter().enumerate() {
                    assert_bits_eq(inferred.row(i), reference.row(r), &what("inference"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn fused_passes_match_the_layered_reference(
            seed: u64,
            n in 1usize..40,
            widths in proptest::collection::vec(0usize..71, 2..6),
            dropout in any::<bool>(),
            log_softmax in any::<bool>(),
            special in any::<bool>(),
        ) {
            check(seed, n, &widths, if dropout { 0.3 } else { 0.0 }, log_softmax, special);
        }
    }

    #[test]
    fn gradients_summed_over_many_rows_match_the_layered_reference() {
        // More rows than one 64-row block of the layered weight gradient.
        for seed in 0..4 {
            check(
                seed,
                150,
                &[5, 16, 32, 64, 2],
                0.3,
                seed % 2 == 0,
                seed >= 2,
            );
        }
    }

    #[test]
    fn narrow_and_empty_layers_keep_signed_zeros() {
        // An empty sum is -0.0 in `G·Wᵀ` and in an edge gradient's dot
        // product but +0.0 in a gather; one-feature layers let the sign of
        // each zero reach the edge gradients.
        let shapes: [&[usize]; 6] = [
            &[1, 0],
            &[1, 1],
            &[0, 3],
            &[2, 0, 1],
            &[1, 0, 0, 2],
            &[3, 1, 1],
        ];
        for (seed, widths) in (0..16).zip(shapes.iter().cycle()) {
            check(seed, 6, widths, 0.3, seed % 2 == 0, seed % 4 < 2);
        }
    }

    #[test]
    fn transposed_adjacency_rows_ascend_in_source_row() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let adj = random_adjacency(&mut rng, 60, false);
        let transposed = adj.transpose();
        for c in 0..adj.cols() {
            let sources: Vec<(usize, f64)> = transposed.row_entries(c).collect();
            assert!(sources.windows(2).all(|pair| pair[0].0 < pair[1].0));
            let expected: Vec<(usize, f64)> = (0..adj.rows())
                .flat_map(|r| {
                    adj.row_entries(r)
                        .filter(|&(col, _)| col == c)
                        .map(move |(_, v)| (r, v))
                })
                .collect();
            assert_eq!(sources, expected);
        }
    }

    fn numeric_grad(f: impl Fn(&Matrix) -> f64, x: &Matrix) -> Matrix {
        let eps = 1e-6;
        let mut grad = Matrix::zeros(x.rows(), x.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                grad.set(r, c, (f(&plus) - f(&minus)) / (2.0 * eps));
            }
        }
        grad
    }

    fn one_conv(in_features: usize, out_features: usize, seed: u64) -> ConvStack {
        let convs = vec![GraphConv::new(in_features, out_features, seed)];
        ConvStack::new(convs, Dropout::new(0.0, seed), 0, false)
    }

    fn sum_of_outputs(stack: &ConvStack, adj: &CsrMatrix, x: &Matrix) -> f64 {
        let mut ws = Workspace::new(adj);
        stack
            .infer(&mut ws, x, &RowPlan::all())
            .as_slice()
            .iter()
            .sum()
    }

    #[test]
    fn graph_convolution_aggregates_neighbours() {
        let adj = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let mut stack = one_conv(1, 1, 3);
        stack.params_mut()[0].value.set(0, 0, 1.0);
        let x = Matrix::from_rows(&[&[5.0], &[7.0]]);
        let y = stack.forward(&mut Workspace::new(&adj), &x, true).clone();
        assert_eq!(y, Matrix::from_rows(&[&[7.0], &[5.0]]));
    }

    #[test]
    fn graph_convolution_input_gradient_matches_numeric() {
        let adj = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 0.5),
                (0, 1, 0.5),
                (1, 0, 0.3),
                (2, 2, 1.0),
                (1, 2, 0.7),
            ],
        );
        let mut stack = one_conv(2, 2, 21);
        let x = Matrix::from_rows(&[&[1.0, 0.5], &[-0.2, 0.8], &[0.3, -0.4]]);
        let mut ws = Workspace::new(&adj);
        stack.forward(&mut ws, &x, true);
        let grad_x = stack.backward(&mut ws, &Matrix::filled(3, 2, 1.0));
        let numeric = numeric_grad(|xx| sum_of_outputs(&stack, &adj, xx), &x);
        for (a, b) in grad_x.as_slice().iter().zip(numeric.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn graph_convolution_edge_gradients_match_numeric() {
        let adj = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 0.5), (1, 1, 0.9)]);
        let mut stack = one_conv(2, 1, 9);
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let mut ws = Workspace::new(&adj);
        stack.forward(&mut ws, &x, false);
        let (_, edge_grads) = stack.backward_with_edge_grads(&mut ws, &Matrix::filled(2, 1, 1.0));
        let eps = 1e-6;
        for k in 0..adj.nnz() {
            let mut vp = adj.values().to_vec();
            vp[k] += eps;
            let mut vm = adj.values().to_vec();
            vm[k] -= eps;
            let numeric = (sum_of_outputs(&stack, &adj.with_values(vp), &x)
                - sum_of_outputs(&stack, &adj.with_values(vm), &x))
                / (2.0 * eps);
            assert!(
                (numeric - edge_grads[k]).abs() < 1e-5,
                "edge {k}: {numeric} vs {}",
                edge_grads[k]
            );
        }
    }

    #[test]
    #[should_panic(expected = "eval-mode forward")]
    fn edge_gradients_need_an_eval_pass() {
        let adj = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]);
        let mut stack = one_conv(1, 1, 1);
        let mut ws = Workspace::new(&adj);
        stack.forward(&mut ws, &Matrix::filled(1, 1, 1.0), true);
        stack.backward_with_edge_grads(&mut ws, &Matrix::filled(1, 1, 1.0));
    }
}
