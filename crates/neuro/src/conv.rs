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
//! `D = G·Wᵀ` for the layer below, skipping the zeros of `G` where that
//! is exact. Activations going up and `D` coming down take turns in two
//! buffers.
//!
//! **One trunk pass per epoch.** The trunk is the layers up to the
//! dropout. Its output depends on the parameters only, so a training run
//! computes it once per epoch, right after the optimizer step, with its
//! caches and masks ([`ConvStack::trunk`]; `Â·X` only in the first, since
//! the features are fixed): the epoch's validation rows come from it
//! through a plan for the head layers ([`ConvStack::infer_from_trunk`]),
//! and the next epoch's forward pass starts at its dropout draw
//! ([`ConvStack::forward_from_trunk`]).
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
use std::ops::Range;

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
/// The layers up to the dropout are the *trunk* and the ones above it
/// the *head*. A training run computes the trunk once per epoch
/// ([`ConvStack::trunk`]) and runs only the head for its validation
/// rows ([`ConvStack::infer_from_trunk`]) and, from the dropout draw up,
/// for the next training forward pass ([`ConvStack::forward_from_trunk`]).
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
///
/// // A training run shares one trunk pass (here the first layer) between
/// // an epoch's validation rows and the next epoch's forward pass.
/// stack.trunk(&mut workspace, &x);
/// let validation = stack.infer_from_trunk(&mut workspace, &stack.head_plan(&adj, &[1]));
/// assert_eq!(validation.row(0), log_probs.row(1));
/// assert_eq!(stack.forward_from_trunk(&mut workspace), &log_probs);
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
///
/// A training run keeps one more thing here: the trunk, the layers up to
/// the dropout, computed once per epoch by [`ConvStack::trunk`] with its
/// `Â·H` caches and ReLU masks. Its output stays in the ping-pong buffer
/// its last layer writes, where [`ConvStack::infer_from_trunk`] (the
/// validation rows) and [`ConvStack::forward_from_trunk`] (the next
/// training forward, which draws the dropout over it in place) read it.
#[derive(Debug)]
pub struct Workspace<'a> {
    adj: &'a CsrMatrix,
    version: Version,
    /// `Âᵀ`, built by the first backward pass.
    adj_t: Option<CsrMatrix>,
    /// What the last caching forward pass kept for backward.
    cached: Option<Cached>,
    /// The input of the last trunk pass, whose `Â·X` is `aggregated[0]`.
    /// It is borrowed for the workspace's lifetime, so it cannot change.
    trunk_input: Option<&'a Matrix>,
    /// Whether a trunk pass's output, caches and masks are in place and
    /// no pass has overwritten them since.
    trunk: bool,
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
    /// Where an inference from the trunk keeps the trunk's buffer while
    /// it runs, so that a head of more than two layers may write both
    /// ping-pong buffers; the Table-1 head of two never touches it.
    spare: Vec<f64>,
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
            trunk_input: None,
            trunk: false,
            aggregated: Vec::new(),
            relu: Vec::new(),
            dropout: Vec::new(),
            inputs: Vec::new(),
            buffers: [Vec::new(), Vec::new()],
            spare: Vec::new(),
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
        // Layer 0's cache is about to hold `Â·x`, and the buffers to hold
        // this pass's activations.
        ws.trunk_input = None;
        ws.trunk = false;
        if training && depth > 1 {
            self.caching_layers(ws, x.as_slice(), 0..self.trunk_depth(), false, false);
            self.finish_training(ws);
        } else {
            if !training {
                ws.inputs.resize_with(depth, Vec::new);
                sized(&mut ws.inputs[0], x.as_slice().len()).copy_from_slice(x.as_slice());
            }
            self.caching_layers(ws, x.as_slice(), 0..depth, !training, false);
            ws.cached = Some(if training {
                Cached::Training { dropout: false }
            } else {
                Cached::Eval
            });
        }
        &ws.output
    }

    /// The trunk pass of a training run: the layers up to the dropout over
    /// every row, with the current parameters, keeping their `Â·H` caches
    /// and ReLU masks and leaving the output undropped. Then
    /// [`ConvStack::infer_from_trunk`] reads validation rows from it, and
    /// [`ConvStack::forward_from_trunk`] continues it into a training
    /// forward pass: the same operations, in the same order, as
    /// [`ConvStack::forward`] with these parameters.
    ///
    /// `Â·X` is gathered only when `x` is not the input of the workspace's
    /// last trunk pass (a training run's features are fixed, so its
    /// first). A caller that changes the parameters runs the trunk again
    /// before either pass reads it.
    ///
    /// # Panics
    ///
    /// Panics if the stack has one convolution (no hidden layer) or `x`
    /// is not one row of the input width per node.
    pub fn trunk<'a>(&self, ws: &mut Workspace<'a>, x: &'a Matrix) {
        assert_eq!(
            x.shape(),
            (ws.adj.rows(), self.in_features()),
            "input shape"
        );
        let gathered = ws.trunk_input.is_some_and(|kept| std::ptr::eq(kept, x));
        self.caching_layers(ws, x.as_slice(), 0..self.trunk_depth(), false, gathered);
        ws.trunk_input = Some(x);
        ws.trunk = true;
        // The head layers' caches belong to an earlier pass.
        ws.cached = None;
    }

    /// The training forward pass that continues the workspace's trunk
    /// pass: the dropout draw over the trunk's output, in element order,
    /// then the layers above it, caching for a backward pass. Returns the
    /// output, as [`ConvStack::forward`] with `training` does.
    ///
    /// # Panics
    ///
    /// Panics unless a [`ConvStack::trunk`] pass over `ws` came first and
    /// no other pass has overwritten it; each trunk pass serves one
    /// training forward pass.
    pub fn forward_from_trunk<'w>(&mut self, ws: &'w mut Workspace<'_>) -> &'w Matrix {
        assert!(
            std::mem::take(&mut ws.trunk),
            "a forward pass from the trunk needs a trunk pass over the workspace first"
        );
        self.finish_training(ws);
        &ws.output
    }

    /// The layers from the dropout up of a training forward pass whose
    /// trunk is in place: the draw over the trunk's output, in element
    /// order, then the caching head layers.
    fn finish_training(&mut self, ws: &mut Workspace<'_>) {
        let n = ws.adj.rows();
        let dropout = self.dropout.p > 0.0;
        if dropout {
            let width = self.convs[self.dropout_after].out_features();
            let (_, trunk) = ping_pong(&mut ws.buffers, self.dropout_after);
            self.dropout
                .draw(sized(&mut ws.dropout, n * width), &mut trunk[..n * width]);
        }
        self.caching_layers(ws, &[], self.trunk_depth()..self.convs.len(), false, false);
        ws.cached = Some(Cached::Training { dropout });
    }

    /// The caching forward rows of `layers`, each keeping its `Â·H` and,
    /// on a hidden layer, its ReLU mask. Layer 0 reads `x`, or with
    /// `gathered` its cache, which already holds `Â·X`. An eval pass
    /// (`keep_inputs`) writes each output to the next layer's kept input;
    /// otherwise the layers take turns in the ping-pong buffers.
    fn caching_layers(
        &self,
        ws: &mut Workspace<'_>,
        x: &[f64],
        layers: Range<usize>,
        keep_inputs: bool,
        gathered: bool,
    ) {
        let n = ws.adj.rows();
        let depth = self.convs.len();
        ws.aggregated.resize_with(depth, Vec::new);
        ws.relu.resize_with(depth - 1, Vec::new);
        for l in layers {
            let conv = &self.convs[l];
            let (in_width, out_width) = conv.weight.value.shape();
            let last = l + 1 == depth;
            let epilogue = if last {
                self.head()
            } else {
                Epilogue::Relu(Some(sized(&mut ws.relu[l], n * out_width)))
            };
            let (input, output) = if keep_inputs {
                let (kept, above) = ws.inputs.split_at_mut(l + 1);
                let output = if last {
                    ws.output.resize(n, out_width);
                    ws.output.as_mut_slice()
                } else {
                    sized(&mut above[0], n * out_width)
                };
                (&kept[l][..], output)
            } else {
                let (read, write) = ping_pong(&mut ws.buffers, l);
                let output = if last {
                    ws.output.resize(n, out_width);
                    ws.output.as_mut_slice()
                } else {
                    sized(write, n * out_width)
                };
                (if l == 0 { x } else { read }, output)
            };
            kernels::conv_forward(
                ws.version,
                Forward {
                    adj: ws.adj,
                    input: (l > 0 || !gathered).then_some(input),
                    weight: &conv.weight.value,
                    bias: conv.bias.value.as_slice(),
                    aggregated: Some(sized(&mut ws.aggregated[l], n * in_width)),
                    output,
                    epilogue,
                },
            );
        }
    }

    /// Layers in the trunk: up to and including the one the dropout
    /// follows.
    fn trunk_depth(&self) -> usize {
        assert!(
            self.convs.len() > 1,
            "a stack of one convolution has no trunk"
        );
        self.dropout_after + 1
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
        // The layers below write the buffer that holds the trunk.
        ws.trunk = false;
        self.infer_layers(ws, x.as_slice(), plan, 0..depth);
        &ws.inferred
    }

    /// The output rows of a plan from [`ConvStack::head_plan`], computed
    /// by the layers above the dropout from the workspace's trunk pass:
    /// each row bit-identical to the same row of [`ConvStack::infer`]
    /// with the trunk's parameters and input.
    ///
    /// # Panics
    ///
    /// Panics unless a [`ConvStack::trunk`] pass over `ws` came first and
    /// no other pass has overwritten it, or if `plan` was built for a
    /// different depth.
    pub fn infer_from_trunk<'w>(&self, ws: &'w mut Workspace<'_>, plan: &RowPlan) -> &'w Matrix {
        assert!(
            ws.trunk,
            "an inference from the trunk needs a trunk pass over the workspace first"
        );
        let head = self.trunk_depth()..self.convs.len();
        assert!(
            plan.depth().is_none_or(|d| d == head.len()),
            "row plan depth does not match the head"
        );
        // The trunk's buffer is held apart while the head runs (`spare`).
        let t = self.dropout_after % 2;
        let trunk = std::mem::replace(&mut ws.buffers[t], std::mem::take(&mut ws.spare));
        self.infer_layers(ws, &trunk, plan, head);
        ws.spare = std::mem::replace(&mut ws.buffers[t], trunk);
        &ws.inferred
    }

    /// A [`RowPlan`] for [`ConvStack::infer_from_trunk`] that yields the
    /// output rows `rows`, in that order.
    ///
    /// # Panics
    ///
    /// As [`RowPlan::new`], and if the stack has one convolution.
    pub fn head_plan(&self, adj: &CsrMatrix, rows: &[usize]) -> RowPlan {
        RowPlan::new(adj, rows, self.convs.len() - self.trunk_depth())
    }

    /// Cache-free inference through `layers`, the first reading `x` and
    /// multiplying by the plan's first adjacency.
    fn infer_layers(
        &self,
        ws: &mut Workspace<'_>,
        x: &[f64],
        plan: &RowPlan,
        layers: Range<usize>,
    ) {
        let full = ws.adj;
        let first = layers.start;
        let depth = self.convs.len();
        for l in layers {
            let conv = &self.convs[l];
            let adj = plan.adjacency(l - first, full);
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
                    input: Some(if l == first { x } else { read }),
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
        let stack = random_stack(&mut rng, widths, p, log_softmax, special);
        let x = random_matrix(&mut rng, n, widths[0], special);
        let grad = random_matrix(&mut rng, n, stack.out_features(), special);
        let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
        let what = format!("n {n}, widths {widths:?}, p {p}, {log_softmax}, {special}");
        check_stack(&adj, &stack, &x, &grad, &rows, &what);
    }

    /// [`check`] on given operands; `rows` is a partial row set to infer.
    fn check_stack(
        adj: &CsrMatrix,
        stack: &ConvStack,
        x: &Matrix,
        grad: &Matrix,
        rows: &[usize],
        what: &str,
    ) {
        let n = adj.rows();
        let depth = stack.depth();
        for version in versions() {
            let what = |part: &str| format!("{part}: {what}, {version:?}");
            let (mut fused, mut layered) = (stack.clone(), Layered::new(stack));
            let mut ws = Workspace::new(adj);
            ws.version = version;
            for training in [true, false] {
                let output = fused.forward(&mut ws, x, training).clone();
                let reference = layered.forward(adj, x, training);
                assert_bits_eq(output.as_slice(), reference.as_slice(), &what("output"));
                for (l, mask) in layered.relu_masks().iter().enumerate() {
                    assert_eq!(&ws.relu[l], mask, "{}", what("ReLU mask"));
                }
                if let Some(mask) = layered.dropout_mask() {
                    assert!(training);
                    assert_bits_eq(&ws.dropout, mask, &what("dropout mask"));
                }
                let (grad_x, edges) = if training {
                    (fused.backward(&mut ws, grad), None)
                } else {
                    let (grad_x, edges) = fused.backward_with_edge_grads(&mut ws, grad);
                    (grad_x, Some(edges))
                };
                let (reference_x, reference_edges) = layered.backward(adj, grad, !training);
                assert_bits_eq(grad_x.as_slice(), reference_x.as_slice(), &what("dL/dX"));
                // Layer 0's `G·Wᵀ` is in `buffers[0]` and layer 1's in
                // `buffers[1]`, signed zeros and all.
                for l in 0..depth.min(2) {
                    let below = layered.below(l).as_slice();
                    assert_bits_eq(&ws.buffers[l][..below.len()], below, &what("G·Wᵀ"));
                }
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
                fused.backward_params(&mut ws, grad);
                layered.backward(adj, grad, false);
                for (l, (g, r)) in grads(&fused).iter().zip(layered.grads()).enumerate() {
                    assert_bits_eq(g, &r, &what(&format!("parameter {l} gradient only")));
                }
            }
            // Inference of every row, and of a partial, repeating row set.
            let reference = layered.infer(adj, x);
            for rows in [(0..n).collect(), rows.to_vec()] {
                let plan = RowPlan::new(adj, &rows, depth);
                let inferred = fused.infer(&mut ws, x, &plan);
                assert_eq!(inferred.rows(), rows.len());
                for (i, &r) in rows.iter().enumerate() {
                    assert_bits_eq(inferred.row(i), reference.row(r), &what("inference"));
                }
            }
        }
    }

    /// A training run of `epochs` epochs through the trunk passes, fused
    /// (in each version) and layered: per epoch the forward pass from the
    /// trunk, the parameter gradients, a plain gradient step taken by
    /// both, then the trunk pass with the new parameters and the
    /// `validation` rows inferred from it.
    #[allow(clippy::too_many_arguments)]
    fn check_training(
        seed: u64,
        n: usize,
        widths: &[usize],
        p: f64,
        log_softmax: bool,
        special: bool,
        validation: &[usize],
        epochs: usize,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let adj = random_adjacency(&mut rng, n, special);
        let stack = random_stack(&mut rng, widths, p, log_softmax, special);
        let x = random_matrix(&mut rng, n, widths[0], special);
        let grad = random_matrix(&mut rng, n, stack.out_features(), special);
        for version in versions() {
            let what = |part: &str, epoch: usize| {
                format!(
                    "{part}, epoch {epoch}: n {n}, widths {widths:?}, p {p}, {log_softmax}, \
                     {special}, {} validation rows, {version:?}",
                    validation.len()
                )
            };
            let (mut fused, mut layered) = (stack.clone(), Layered::new(&stack));
            let plan = fused.head_plan(&adj, validation);
            let mut ws = Workspace::new(&adj);
            ws.version = version;
            fused.trunk(&mut ws, &x);
            for epoch in 0..epochs {
                let output = fused.forward_from_trunk(&mut ws).clone();
                let reference = layered.forward(&adj, &x, true);
                assert_bits_eq(
                    output.as_slice(),
                    reference.as_slice(),
                    &what("output", epoch),
                );
                for (l, mask) in layered.relu_masks().iter().enumerate() {
                    assert_eq!(&ws.relu[l], mask, "{}", what("ReLU mask", epoch));
                }
                if let Some(mask) = layered.dropout_mask() {
                    assert_bits_eq(&ws.dropout, mask, &what("dropout mask", epoch));
                }
                for p in fused.params_mut() {
                    p.zero_grad();
                }
                layered.zero_grads();
                fused.backward_params(&mut ws, &grad);
                layered.backward(&adj, &grad, false);
                for (l, (g, r)) in grads(&fused).iter().zip(layered.grads()).enumerate() {
                    assert_bits_eq(g, &r, &what(&format!("parameter {l} gradient"), epoch));
                }
                for param in fused.params_mut() {
                    let step = param.grad.clone();
                    for (v, g) in param.value.as_mut_slice().iter_mut().zip(step.as_slice()) {
                        *v -= 0.25 * g;
                    }
                }
                layered.set_params(&fused);
                fused.trunk(&mut ws, &x);
                let inferred = fused.infer_from_trunk(&mut ws, &plan);
                let reference = layered.infer(&adj, &x);
                assert_eq!(inferred.rows(), validation.len());
                for (i, &r) in validation.iter().enumerate() {
                    assert_bits_eq(
                        inferred.row(i),
                        reference.row(r),
                        &what("validation", epoch),
                    );
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn training_from_the_trunk_matches_the_layered_reference(
            seed: u64,
            n in 1usize..40,
            widths in proptest::collection::vec(0usize..40, 3..7),
            dropout in any::<bool>(),
            log_softmax in any::<bool>(),
            special in any::<bool>(),
            share in 0.0..1.0f64,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let validation: Vec<usize> = (0..n).filter(|_| rng.gen_bool(share)).collect();
            let p = if dropout { 0.3 } else { 0.0 };
            check_training(seed, n, &widths, p, log_softmax, special, &validation, 3);
        }
    }

    #[test]
    fn narrow_outputs_over_many_rows_match_the_layered_reference() {
        // Output widths 1–3 take the row-blocked product and the weight
        // gradient across the input dimension; 70–90 rows span several
        // blocks and end in a short one. The widths of Table 1's head,
        // and a narrow hidden layer.
        for out in 1..=3 {
            for seed in 0..4 {
                let n = 70 + 7 * seed as usize;
                let (log_softmax, special) = (seed % 2 == 0, seed >= 2);
                check(seed, n, &[5, 16, 64, out], 0.3, log_softmax, special);
                check(seed, n, &[3, out, 6, out], 0.3, log_softmax, special);
                let validation: Vec<usize> = (0..n).step_by(3).collect();
                check_training(
                    seed,
                    n,
                    &[5, 16, 32, 64, out],
                    0.3,
                    log_softmax,
                    special,
                    &validation,
                    2,
                );
            }
        }
    }

    #[test]
    fn training_without_validation_rows_or_dropout_matches_the_layered_reference() {
        // No validation rows: the trunk pass still feeds the next forward
        // pass. No dropout: the forward pass reads the trunk as it is.
        for seed in 0..6 {
            let p = if seed % 2 == 0 { 0.0 } else { 0.3 };
            check_training(seed, 30, &[5, 16, 32, 64, 2], p, true, seed >= 3, &[], 3);
            check_training(
                seed,
                30,
                &[5, 16, 32, 64, 2],
                0.0,
                true,
                seed >= 3,
                &[3, 1, 3],
                3,
            );
            // Heads of one to four layers above the dropout.
            check_training(
                seed,
                20,
                &[4, 5, 6, 7, 8, 1],
                p,
                false,
                seed >= 3,
                &[0, 19],
                2,
            );
        }
    }

    /// A one-convolution linear stack with the given weight, so that `G` is
    /// the output gradient itself, on the identity adjacency.
    fn linear_layer(weight: Matrix) -> (CsrMatrix, ConvStack) {
        let (in_features, out_features) = weight.shape();
        let n = 6;
        let identity: Vec<_> = (0..n).map(|i| (i, i, 1.0)).collect();
        let mut conv = GraphConv::new(in_features, out_features, 1);
        conv.weight.value = weight;
        let stack = ConvStack::new(vec![conv], Dropout::new(0.0, 1), 0, false);
        (CsrMatrix::from_triplets(n, n, &identity), stack)
    }

    /// `height × width`, row `i` being `rows[i % rows.len()]` repeated
    /// across the columns: the sign pattern of each row is kept.
    fn tiled(rows: &[[f64; 3]], height: usize, width: usize) -> Matrix {
        let data = (0..height)
            .flat_map(|i| (0..width).map(move |j| rows[i % rows.len()][j % 3]))
            .collect();
        Matrix::from_vec(height, width, data)
    }

    /// `n × width` inputs without zeros.
    fn inputs(n: usize, width: usize) -> Matrix {
        Matrix::from_vec(
            n,
            width,
            (0..n * width).map(|i| (i % 7) as f64 - 3.5).collect(),
        )
    }

    // `G·Wᵀ` skips zeros only where `D` is wider than one 16-column tile,
    // so the weights below have 20 rows (`D` is 20 wide).

    #[test]
    fn zero_gradient_rows_keep_the_signs_of_their_zero_products() {
        // Rows of `W` all negative, all positive (signed zeros among
        // them), mixed, and all zeros of each sign; rows of `G` all +0,
        // all -0, mixed zeros, and zeros beside nonzero entries, each
        // pattern repeated across 3, 6 and 70 output columns. An all-zero
        // row of `G` sums to -0.0 exactly where every product is -0.0,
        // and a skipped sum is -0.0 where the full one is +0.0.
        let weight_rows = [
            [-1.0, -2.0, -0.0],
            [1.0, 0.0, 3.0],
            [-1.0, 2.0, 0.5],
            [-0.0, -0.0, -0.0],
            [0.0, 0.0, 0.0],
        ];
        let grad_rows = [
            [0.0, 0.0, 0.0],
            [-0.0, -0.0, -0.0],
            [0.0, -0.0, 0.0],
            [0.0, 1.0, -0.0],
            [-0.0, -2.0, 0.0],
            [1.0, 0.0, 1.0],
        ];
        for width in [3, 6, 70] {
            let (adj, stack) = linear_layer(tiled(&weight_rows, 20, width));
            let grad = tiled(&grad_rows, 6, width);
            let what = format!("zero rows of G, {width} wide");
            check_stack(&adj, &stack, &inputs(6, 20), &grad, &[5, 0], &what);
        }
    }

    #[test]
    fn cancelling_and_vanishing_sums_are_summed_again_in_full() {
        // Row 0's nonzero products cancel to +0.0. In row 1 the one
        // nonzero product is 1·(-0.0): skipping the +0.0 product before
        // it leaves -0.0, where the full sum is +0.0. In row 2 the
        // product underflows to -0.0 beside a skipped +0.0 product.
        let weight = tiled(
            &[[1.0, -1.0, 4.0], [2.0, -0.0, -5.0], [3.0, -1e-300, 1.0]],
            20,
            3,
        );
        let grad = tiled(
            &[
                [1.0, 1.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 1e-300, -0.0],
                [2.0, 0.0, -0.0],
                [0.0, 0.0, 0.0],
                [-0.0, 3.0, 0.0],
            ],
            6,
            3,
        );
        let (adj, stack) = linear_layer(weight);
        check_stack(&adj, &stack, &inputs(6, 20), &grad, &[2], "cancelling sums");
    }

    #[test]
    fn weights_with_infinities_or_nan_take_every_product() {
        // A zero of `G` against ±∞ or NaN makes a NaN product, so no zero
        // may be skipped; against a finite row it is a signed zero.
        for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let weight = tiled(
                &[[1.0, special, 2.0], [-1.0, 0.5, -0.0], [0.0, 0.0, 1.0]],
                20,
                3,
            );
            let grad = tiled(
                &[
                    [1.0, 0.0, 2.0],
                    [0.0, 0.0, 0.0],
                    [-0.0, 1.0, 0.0],
                    [0.0, -0.0, 0.0],
                    [3.0, 1.0, -1.0],
                    [0.0, 0.0, -2.0],
                ],
                6,
                3,
            );
            let (adj, stack) = linear_layer(weight);
            let what = format!("W holding {special}");
            check_stack(&adj, &stack, &inputs(6, 20), &grad, &[4], &what);
        }
    }

    #[test]
    fn masked_products_skip_zero_aggregates_against_infinities() {
        // Rows of `Â·H` with zeros (a -0.0 input gathers to +0.0),
        // subnormals and NaN, into a 2-wide and a 1-wide layer whose `W`
        // and output gradient hold ±∞: 0·∞ is NaN, so only the mask keeps
        // a zero term out of the product and the weight gradient.
        let x = Matrix::from_rows(&[
            &[0.0, 1.0, -0.0, 2.0],
            &[-0.0, -0.0, 0.0, 0.0],
            &[f64::from_bits(1), 0.0, -1e-310, 1.0],
            &[f64::NAN, 0.0, 1.0, 0.0],
            &[1.0, 2.0, 3.0, 4.0],
            &[0.0, f64::MIN_POSITIVE, 0.0, -3.0],
        ]);
        for out in [1, 2] {
            let weight = Matrix::from_vec(
                4,
                out,
                [
                    f64::INFINITY,
                    1.0,
                    -2.0,
                    f64::NEG_INFINITY,
                    0.5,
                    -0.0,
                    3.0,
                    1.0,
                ][..4 * out]
                    .to_vec(),
            );
            let grad = Matrix::from_vec(
                6,
                out,
                [
                    1.0,
                    f64::INFINITY,
                    -1.0,
                    0.0,
                    2.0,
                    f64::NEG_INFINITY,
                    0.5,
                    1.0,
                    -3.0,
                    0.0,
                    1.0,
                    2.0,
                ][..6 * out]
                    .to_vec(),
            );
            let (adj, stack) = linear_layer(weight);
            check_stack(
                &adj,
                &stack,
                &x,
                &grad,
                &[3, 0],
                &format!("masked products, {out} wide"),
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
