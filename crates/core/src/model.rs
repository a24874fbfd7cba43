//! The GCN models: Table-1 classifier and §3.4 regressor.

use fusa_neuro::layers::{log_softmax_rows_in_place, Dropout, GraphConv, LogSoftmax, Relu};
use fusa_neuro::{CsrMatrix, Matrix, Param, RowPlan};
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;

/// Architecture hyper-parameters for [`GcnClassifier`] /
/// [`GcnRegressor`].
///
/// The default reproduces Table 1 of the paper: hidden widths
/// `[16, 32, 64]`, one dropout layer (p = 0.3) after the second
/// convolution's ReLU, and a final convolution projecting to the output
/// width (2 classes, or 1 regression score).
#[derive(Debug, Clone, PartialEq)]
pub struct GcnConfig {
    /// Input feature width `F`.
    pub in_features: usize,
    /// Hidden widths of the stacked graph convolutions.
    pub hidden: Vec<usize>,
    /// Dropout probability (applied once, after the second hidden ReLU —
    /// or after the first, for single-hidden-layer configurations).
    pub dropout: f64,
    /// RNG seed for weight initialization and dropout masks.
    pub seed: u64,
}

impl Default for GcnConfig {
    fn default() -> Self {
        GcnConfig {
            in_features: fusa_graph::FEATURE_COUNT,
            hidden: vec![16, 32, 64],
            dropout: 0.3,
            seed: 0x6C4,
        }
    }
}

impl GcnConfig {
    /// Index of the hidden layer whose ReLU output is followed by
    /// dropout (Table 1 places it after the second convolution).
    fn dropout_position(&self) -> usize {
        1.min(self.hidden.len().saturating_sub(1))
    }

    /// Renders the architecture as a Table-1-style listing.
    pub fn summary(&self, out_features: usize, with_log_softmax: bool) -> String {
        use std::fmt::Write as _;
        let mut rows: Vec<(String, String, String, String)> = Vec::new();
        let mut prev = "Input".to_string();
        for (i, &width) in self.hidden.iter().enumerate() {
            rows.push((
                "Graph convolutional layer".into(),
                prev.clone(),
                width.to_string(),
                "-".into(),
            ));
            rows.push((
                "Rectified Linear Unit".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ));
            if i == self.dropout_position() && self.dropout > 0.0 {
                rows.push((
                    "Dropout Layer".into(),
                    "-".into(),
                    "-".into(),
                    format!("{}", self.dropout),
                ));
            }
            prev = width.to_string();
        }
        rows.push((
            "Graph convolutional layer".into(),
            prev,
            out_features.to_string(),
            "-".into(),
        ));
        if with_log_softmax {
            rows.push((
                "Log Softmax".into(),
                out_features.to_string(),
                out_features.to_string(),
                "-".into(),
            ));
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<5} {:<28} {:>6} {:>6} {:>8}",
            "Layer", "Type", "In", "Out", "Values"
        );
        for (i, (ty, input, output, values)) in rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<5} {:<28} {:>6} {:>6} {:>8}",
                i + 1,
                ty,
                input,
                output,
                values
            );
        }
        out
    }
}

/// Shared GCN trunk: stacked GraphConv+ReLU with one dropout, then a
/// projection GraphConv.
///
/// Activations move through the layers by value: each GraphConv's
/// aggregated `ÂH` is owned by its dense layer's backward cache, ReLU and
/// dropout work in place, and gradients flow back the same way.
#[derive(Debug, Clone)]
struct GcnTrunk {
    convs: Vec<GraphConv>,
    relus: Vec<Relu>,
    dropout: Dropout,
    dropout_position: usize,
}

/// The parameter values (and gradients) of a trunk plus its dropout
/// generator state: enough to put a model back exactly as it was at an
/// earlier epoch, without copying any of its activation-sized caches.
#[derive(Debug, Clone)]
pub(crate) struct TrunkSnapshot {
    params: Vec<Param>,
    dropout_rng: ChaCha8Rng,
}

impl GcnTrunk {
    fn new(config: &GcnConfig, out_features: usize) -> GcnTrunk {
        assert!(!config.hidden.is_empty(), "need at least one hidden layer");
        let mut convs = Vec::new();
        let mut widths = vec![config.in_features];
        widths.extend_from_slice(&config.hidden);
        widths.push(out_features);
        for (i, pair) in widths.windows(2).enumerate() {
            convs.push(GraphConv::new(
                pair[0],
                pair[1],
                config.seed.wrapping_add(i as u64 * 7919),
            ));
        }
        let relus = vec![Relu::new(); config.hidden.len()];
        GcnTrunk {
            convs,
            relus,
            dropout: Dropout::new(config.dropout, config.seed.wrapping_add(0xD60)),
            dropout_position: config.dropout_position(),
        }
    }

    /// Caching forward pass. `training` controls dropout. An eval-mode
    /// pass also keeps every layer's input: it is the pass the edge-
    /// gradient backward (the explainer) follows.
    fn forward(&mut self, adj: &CsrMatrix, x: &Matrix, training: bool) -> Matrix {
        let keep_inputs = !training;
        let hidden_count = self.relus.len();
        let mut input = Cow::Borrowed(x);
        for i in 0..hidden_count {
            let h = self.convs[i].forward_owned(adj, input, keep_inputs);
            let mut h = self.relus[i].forward_owned(h);
            if i == self.dropout_position && training {
                h = self.dropout.forward_owned(h);
            }
            input = Cow::Owned(h);
        }
        self.convs[hidden_count].forward_owned(adj, input, keep_inputs)
    }

    /// Cache-free inference pass computing only the rows `plan` selects
    /// at each layer (every row for [`RowPlan::all`]).
    fn forward_inference(&self, adj: &CsrMatrix, x: &Matrix, plan: &RowPlan) -> Matrix {
        assert!(
            plan.depth().is_none_or(|depth| depth == self.convs.len()),
            "row plan depth does not match the model"
        );
        let input = plan.input(x);
        let mut h = self.convs[0].forward_inference(plan.adjacency(0, adj), &input);
        for (i, conv) in self.convs.iter().enumerate().skip(1) {
            h.map_in_place(|v| v.max(0.0));
            h = conv.forward_inference(plan.adjacency(i, adj), &h);
        }
        h
    }

    /// Backward through every layer above the first convolution;
    /// returns the gradient w.r.t. the first convolution's output. If
    /// `edge_grads` is `Some`, the per-CSR-entry adjacency gradients of
    /// the layers passed are accumulated into it.
    fn backward_to_first(
        &mut self,
        adj: &CsrMatrix,
        grad_output: &Matrix,
        edge_grads: &mut Option<&mut Vec<f64>>,
        training: bool,
    ) -> Matrix {
        let hidden_count = self.relus.len();
        let mut grad = self.backward_conv(hidden_count, adj, grad_output, edge_grads);
        for i in (0..hidden_count).rev() {
            if i == self.dropout_position && training {
                grad = self.dropout.backward_owned(grad);
            }
            grad = self.relus[i].backward_owned(grad);
            if i > 0 {
                grad = self.backward_conv(i, adj, &grad, edge_grads);
            }
        }
        grad
    }

    /// Backward pass. Returns `∂L/∂X`; if `edge_grads` is `Some`, the
    /// per-CSR-entry adjacency gradients of every layer are accumulated
    /// into it.
    fn backward(
        &mut self,
        adj: &CsrMatrix,
        grad_output: &Matrix,
        mut edge_grads: Option<&mut Vec<f64>>,
        training: bool,
    ) -> Matrix {
        let grad = self.backward_to_first(adj, grad_output, &mut edge_grads, training);
        self.backward_conv(0, adj, &grad, &mut edge_grads)
    }

    /// Backward pass that accumulates parameter gradients only: the
    /// first convolution skips `∂L/∂X`, which training never reads.
    fn backward_params(&mut self, adj: &CsrMatrix, grad_output: &Matrix, training: bool) {
        let grad = self.backward_to_first(adj, grad_output, &mut None, training);
        self.convs[0].backward_params(&grad);
    }

    fn backward_conv(
        &mut self,
        index: usize,
        adj: &CsrMatrix,
        grad: &Matrix,
        edge_grads: &mut Option<&mut Vec<f64>>,
    ) -> Matrix {
        match edge_grads {
            Some(acc) => {
                let (grad_x, grads) = self.convs[index].backward_with_edge_grads(adj, grad);
                if acc.is_empty() {
                    **acc = grads;
                } else {
                    for (a, g) in acc.iter_mut().zip(grads) {
                        *a += g;
                    }
                }
                grad_x
            }
            None => self.convs[index].backward(adj, grad),
        }
    }

    fn params(&self) -> Vec<&Param> {
        self.convs.iter().flat_map(|c| c.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.convs.iter_mut().flat_map(|c| c.params_mut()).collect()
    }

    fn snapshot(&self) -> TrunkSnapshot {
        TrunkSnapshot {
            params: self.params().into_iter().cloned().collect(),
            dropout_rng: self.dropout.rng().clone(),
        }
    }

    fn restore(&mut self, snapshot: TrunkSnapshot) {
        for (param, saved) in self.params_mut().into_iter().zip(snapshot.params) {
            *param = saved;
        }
        self.dropout.set_rng(snapshot.dropout_rng);
    }

    fn parameter_count(&self) -> usize {
        self.convs
            .iter()
            .map(|c| {
                c.linear.weight.value.rows() * c.linear.weight.value.cols()
                    + c.linear.bias.value.cols()
            })
            .sum()
    }
}

/// The critical-node classifier of Table 1: four graph convolutions with
/// ReLU activations, one dropout, and a log-softmax output over the two
/// classes `{Non-critical, Critical}`.
///
/// # Example
///
/// ```
/// use fusa_gcn::{GcnClassifier, GcnConfig};
/// use fusa_neuro::{CsrMatrix, Matrix};
///
/// let config = GcnConfig { in_features: 2, hidden: vec![4], ..Default::default() };
/// let mut model = GcnClassifier::new(config);
/// let adj = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let log_probs = model.forward(&adj, &x, false);
/// assert_eq!(log_probs.shape(), (2, 2));
///
/// // Inference restricted to node 1 reproduces that row bit for bit.
/// let plan = model.row_plan(&adj, &[1]);
/// let row = model.forward_inference_rows(&adj, &x, &plan);
/// assert_eq!(row.row(0), model.forward_inference(&adj, &x).row(1));
/// ```
#[derive(Debug, Clone)]
pub struct GcnClassifier {
    config: GcnConfig,
    trunk: GcnTrunk,
    log_softmax: LogSoftmax,
}

/// Number of output classes (Critical / Non-critical).
pub const NUM_CLASSES: usize = 2;

impl GcnClassifier {
    /// Builds a freshly initialized classifier.
    ///
    /// # Panics
    ///
    /// Panics if `config.hidden` is empty.
    pub fn new(config: GcnConfig) -> GcnClassifier {
        GcnClassifier {
            trunk: GcnTrunk::new(&config, NUM_CLASSES),
            log_softmax: LogSoftmax::new(),
            config,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Caching forward pass returning per-node log class probabilities
    /// (`N × 2`). Set `training` for dropout; an eval-mode pass
    /// (`training = false`) also keeps what
    /// [`GcnClassifier::backward_with_edge_grads`] needs.
    pub fn forward(&mut self, adj: &CsrMatrix, x: &Matrix, training: bool) -> Matrix {
        let logits = self.trunk.forward(adj, x, training);
        self.log_softmax.forward_owned(logits)
    }

    /// Cache-free inference pass over every node.
    pub fn forward_inference(&self, adj: &CsrMatrix, x: &Matrix) -> Matrix {
        self.forward_inference_rows(adj, x, &RowPlan::all())
    }

    /// Cache-free inference of just the output rows `plan` was built for
    /// (see [`GcnClassifier::row_plan`]), one row per requested node in
    /// request order. Each layer computes only the rows the next one
    /// reads, and every row is bit-identical to the same node's row of
    /// [`GcnClassifier::forward_inference`].
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a different depth.
    pub fn forward_inference_rows(&self, adj: &CsrMatrix, x: &Matrix, plan: &RowPlan) -> Matrix {
        let mut out = self.trunk.forward_inference(adj, x, plan);
        log_softmax_rows_in_place(&mut out);
        out
    }

    /// A [`RowPlan`] producing the output rows of nodes `rows`.
    pub fn row_plan(&self, adj: &CsrMatrix, rows: &[usize]) -> RowPlan {
        RowPlan::new(adj, rows, self.trunk.convs.len())
    }

    /// Backward pass from the log-probability gradient. Returns
    /// `∂L/∂X`.
    pub fn backward(&mut self, adj: &CsrMatrix, grad_log_probs: &Matrix, training: bool) -> Matrix {
        let grad = self.log_softmax.backward(grad_log_probs);
        self.trunk.backward(adj, &grad, None, training)
    }

    /// Backward pass that accumulates parameter gradients only, skipping
    /// `∂L/∂X` of the input features (the training step).
    pub(crate) fn backward_params(
        &mut self,
        adj: &CsrMatrix,
        grad_log_probs: Matrix,
        training: bool,
    ) {
        let grad = self.log_softmax.backward_owned(grad_log_probs);
        self.trunk.backward_params(adj, &grad, training);
    }

    /// Backward pass that also accumulates per-CSR-entry adjacency
    /// gradients (summed over all convolution layers) for the explainer.
    ///
    /// # Panics
    ///
    /// Panics unless it follows an eval-mode [`GcnClassifier::forward`].
    pub fn backward_with_edge_grads(
        &mut self,
        adj: &CsrMatrix,
        grad_log_probs: &Matrix,
    ) -> (Matrix, Vec<f64>) {
        let grad = self.log_softmax.backward(grad_log_probs);
        let mut edge_grads = Vec::new();
        let grad_x = self
            .trunk
            .backward(adj, &grad, Some(&mut edge_grads), false);
        (grad_x, edge_grads)
    }

    /// Per-node predicted class: `argmax` over the output probabilities.
    pub fn predict(&self, adj: &CsrMatrix, x: &Matrix) -> Vec<usize> {
        self.forward_inference(adj, x).argmax_rows()
    }

    /// Per-node probability of the "Critical" class (class 1).
    pub fn predict_critical_probability(&self, adj: &CsrMatrix, x: &Matrix) -> Vec<f64> {
        let log_probs = self.forward_inference(adj, x);
        (0..log_probs.rows())
            .map(|r| log_probs.get(r, 1).exp())
            .collect()
    }

    /// All trainable parameters in a stable order.
    pub fn params(&self) -> Vec<&Param> {
        self.trunk.params()
    }

    /// All trainable parameters in a stable order, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.trunk.params_mut()
    }

    /// Parameters and dropout state, for [`GcnClassifier::restore`].
    pub(crate) fn snapshot(&self) -> TrunkSnapshot {
        self.trunk.snapshot()
    }

    /// Puts parameters and dropout state back to a snapshot's.
    pub(crate) fn restore(&mut self, snapshot: TrunkSnapshot) {
        self.trunk.restore(snapshot);
    }

    /// Total scalar parameter count.
    pub fn parameter_count(&self) -> usize {
        self.trunk.parameter_count()
    }

    /// A Table-1-style architecture listing.
    pub fn summary(&self) -> String {
        self.config.summary(NUM_CLASSES, true)
    }
}

/// The criticality-score regressor of §3.4: the classifier trunk with the
/// log-softmax removed and output width 1.
///
/// Scores are trained against the Algorithm-1 criticality fractions and
/// therefore live in `[0, 1]` (predictions are not clamped, matching the
/// paper's plain regression head).
#[derive(Debug, Clone)]
pub struct GcnRegressor {
    config: GcnConfig,
    trunk: GcnTrunk,
}

impl GcnRegressor {
    /// Builds a freshly initialized regressor.
    ///
    /// # Panics
    ///
    /// Panics if `config.hidden` is empty.
    pub fn new(config: GcnConfig) -> GcnRegressor {
        GcnRegressor {
            trunk: GcnTrunk::new(&config, 1),
            config,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Caching forward pass returning an `N × 1` score matrix.
    pub fn forward(&mut self, adj: &CsrMatrix, x: &Matrix, training: bool) -> Matrix {
        self.trunk.forward(adj, x, training)
    }

    /// Cache-free inference pass over every node.
    pub fn forward_inference(&self, adj: &CsrMatrix, x: &Matrix) -> Matrix {
        self.forward_inference_rows(adj, x, &RowPlan::all())
    }

    /// Cache-free inference of just the output rows `plan` was built for;
    /// see [`GcnClassifier::forward_inference_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `plan` was built for a different depth.
    pub fn forward_inference_rows(&self, adj: &CsrMatrix, x: &Matrix, plan: &RowPlan) -> Matrix {
        self.trunk.forward_inference(adj, x, plan)
    }

    /// A [`RowPlan`] producing the output rows of nodes `rows`.
    pub fn row_plan(&self, adj: &CsrMatrix, rows: &[usize]) -> RowPlan {
        RowPlan::new(adj, rows, self.trunk.convs.len())
    }

    /// Backward pass. Returns `∂L/∂X`.
    pub fn backward(&mut self, adj: &CsrMatrix, grad_output: &Matrix, training: bool) -> Matrix {
        self.trunk.backward(adj, grad_output, None, training)
    }

    /// Backward pass that accumulates parameter gradients only (the
    /// training step).
    pub(crate) fn backward_params(
        &mut self,
        adj: &CsrMatrix,
        grad_output: &Matrix,
        training: bool,
    ) {
        self.trunk.backward_params(adj, grad_output, training);
    }

    /// Per-node predicted criticality scores.
    pub fn predict_scores(&self, adj: &CsrMatrix, x: &Matrix) -> Vec<f64> {
        let out = self.forward_inference(adj, x);
        (0..out.rows()).map(|r| out.get(r, 0)).collect()
    }

    /// All trainable parameters in a stable order.
    pub fn params(&self) -> Vec<&Param> {
        self.trunk.params()
    }

    /// All trainable parameters in a stable order, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.trunk.params_mut()
    }

    /// Parameters and dropout state, for [`GcnRegressor::restore`].
    pub(crate) fn snapshot(&self) -> TrunkSnapshot {
        self.trunk.snapshot()
    }

    /// Puts parameters and dropout state back to a snapshot's.
    pub(crate) fn restore(&mut self, snapshot: TrunkSnapshot) {
        self.trunk.restore(snapshot);
    }

    /// A Table-1-style architecture listing (no log-softmax row).
    pub fn summary(&self) -> String {
        self.config.summary(1, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_adj() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 0.5),
                (1, 1, 0.5),
                (2, 2, 0.5),
                (0, 1, 0.5),
                (1, 0, 0.5),
                (1, 2, 0.4),
                (2, 1, 0.4),
            ],
        )
    }

    fn tiny_x() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5]])
    }

    fn tiny_config() -> GcnConfig {
        GcnConfig {
            in_features: 2,
            hidden: vec![4, 4],
            dropout: 0.0,
            seed: 42,
        }
    }

    #[test]
    fn classifier_outputs_log_probabilities() {
        let mut model = GcnClassifier::new(tiny_config());
        let out = model.forward(&tiny_adj(), &tiny_x(), false);
        assert_eq!(out.shape(), (3, 2));
        for r in 0..3 {
            let total: f64 = out.row(r).iter().map(|&v| v.exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "row {r} sums to {total}");
        }
    }

    #[test]
    fn training_and_inference_paths_agree_without_dropout() {
        let mut model = GcnClassifier::new(tiny_config());
        let a = model.forward(&tiny_adj(), &tiny_x(), false);
        let b = model.forward_inference(&tiny_adj(), &tiny_x());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn classifier_input_gradient_matches_numeric() {
        let adj = tiny_adj();
        let x = tiny_x();
        let mut model = GcnClassifier::new(tiny_config());
        let targets = [1usize, 0, 1];
        let mask = [0usize, 1, 2];

        let log_probs = model.forward(&adj, &x, false);
        let (_, grad_lp) = fusa_neuro::loss::nll_loss(&log_probs, &targets, &mask);
        let grad_x = model.backward(&adj, &grad_lp, false);

        let frozen = model.clone();
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..2 {
                let mut plus = x.clone();
                plus.set(r, c, x.get(r, c) + eps);
                let mut minus = x.clone();
                minus.set(r, c, x.get(r, c) - eps);
                let lp = fusa_neuro::loss::nll_loss(
                    &frozen.forward_inference(&adj, &plus),
                    &targets,
                    &mask,
                )
                .0;
                let lm = fusa_neuro::loss::nll_loss(
                    &frozen.forward_inference(&adj, &minus),
                    &targets,
                    &mask,
                )
                .0;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - grad_x.get(r, c)).abs() < 1e-5,
                    "({r},{c}): numeric {numeric} vs {}",
                    grad_x.get(r, c)
                );
            }
        }
    }

    #[test]
    fn classifier_edge_gradients_match_numeric() {
        let adj = tiny_adj();
        let x = tiny_x();
        let mut model = GcnClassifier::new(tiny_config());
        let targets = [1usize, 0, 1];
        let mask = [0usize, 2];

        let log_probs = model.forward(&adj, &x, false);
        let (_, grad_lp) = fusa_neuro::loss::nll_loss(&log_probs, &targets, &mask);
        let (_, edge_grads) = model.backward_with_edge_grads(&adj, &grad_lp);

        let frozen = model.clone();
        let eps = 1e-6;
        for k in 0..adj.nnz() {
            let mut vp = adj.values().to_vec();
            vp[k] += eps;
            let mut vm = adj.values().to_vec();
            vm[k] -= eps;
            let lp = fusa_neuro::loss::nll_loss(
                &frozen.forward_inference(&adj.with_values(vp), &x),
                &targets,
                &mask,
            )
            .0;
            let lm = fusa_neuro::loss::nll_loss(
                &frozen.forward_inference(&adj.with_values(vm), &x),
                &targets,
                &mask,
            )
            .0;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - edge_grads[k]).abs() < 1e-5,
                "entry {k}: numeric {numeric} vs {}",
                edge_grads[k]
            );
        }
    }

    #[test]
    fn regressor_outputs_single_column() {
        let mut model = GcnRegressor::new(tiny_config());
        let out = model.forward(&tiny_adj(), &tiny_x(), false);
        assert_eq!(out.shape(), (3, 1));
        assert_eq!(model.predict_scores(&tiny_adj(), &tiny_x()).len(), 3);
    }

    #[test]
    fn default_config_matches_table_1() {
        let config = GcnConfig::default();
        assert_eq!(config.hidden, vec![16, 32, 64]);
        assert_eq!(config.dropout, 0.3);
        let model = GcnClassifier::new(config);
        let summary = model.summary();
        assert!(summary.contains("Log Softmax"), "{summary}");
        assert!(summary.contains("Dropout Layer"), "{summary}");
        // 4 conv layers like Table 1.
        assert_eq!(summary.matches("Graph convolutional layer").count(), 4);
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let model = GcnClassifier::new(tiny_config());
        // conv1: 2*4+4, conv2: 4*4+4, conv3: 4*2+2.
        assert_eq!(model.parameter_count(), 12 + 20 + 10);
    }

    #[test]
    fn predictions_are_argmax_of_probabilities() {
        let model = GcnClassifier::new(tiny_config());
        let preds = model.predict(&tiny_adj(), &tiny_x());
        let probs = model.predict_critical_probability(&tiny_adj(), &tiny_x());
        for (p, pr) in preds.iter().zip(probs) {
            assert_eq!(*p == 1, pr >= 0.5);
        }
    }

    #[test]
    fn dropout_makes_training_stochastic_but_inference_stable() {
        let config = GcnConfig {
            dropout: 0.5,
            ..tiny_config()
        };
        let mut model = GcnClassifier::new(config);
        let a = model.forward(&tiny_adj(), &tiny_x(), true);
        let b = model.forward(&tiny_adj(), &tiny_x(), true);
        assert_ne!(a, b, "dropout masks should differ across calls");
        let c = model.forward_inference(&tiny_adj(), &tiny_x());
        let d = model.forward_inference(&tiny_adj(), &tiny_x());
        assert_eq!(c, d);
    }
}
