//! The GCN model of Table 1 and the convolution stacks of both heads:
//! the classifier's log-softmax over two classes, and the §3.4
//! regressor's single score, which only
//! [`train_regressor`](crate::train::train_regressor) builds.

use fusa_neuro::conv::{ConvStack, GraphConv, Workspace};
use fusa_neuro::layers::Dropout;
use fusa_neuro::{CsrMatrix, Matrix, Param, RowPlan};
use rand_chacha::ChaCha8Rng;

/// Architecture hyper-parameters for [`GcnClassifier`] and the
/// regressor of [`train_regressor`](crate::train::train_regressor).
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

/// The convolution stack of `config` with `out_features` outputs: its
/// weights seeded per layer, its dropout after the hidden layer Table 1
/// places it. The classifier's is `(NUM_CLASSES, true)`, the
/// regressor's `(1, false)`.
pub(crate) fn conv_stack(config: &GcnConfig, out_features: usize, log_softmax: bool) -> ConvStack {
    assert!(!config.hidden.is_empty(), "need at least one hidden layer");
    let mut widths = vec![config.in_features];
    widths.extend_from_slice(&config.hidden);
    widths.push(out_features);
    let convs = widths
        .windows(2)
        .enumerate()
        .map(|(i, pair)| {
            GraphConv::new(pair[0], pair[1], config.seed.wrapping_add(i as u64 * 7919))
        })
        .collect();
    ConvStack::new(
        convs,
        Dropout::new(config.dropout, config.seed.wrapping_add(0xD60)),
        config.dropout_position(),
        log_softmax,
    )
}

/// The parameter values (and gradients) of a model plus its dropout
/// generator state: enough to put a model back exactly as it was at an
/// earlier epoch.
#[derive(Debug, Clone)]
pub(crate) struct TrunkSnapshot {
    params: Vec<Param>,
    dropout_rng: ChaCha8Rng,
}

pub(crate) fn snapshot(stack: &ConvStack) -> TrunkSnapshot {
    TrunkSnapshot {
        params: stack.params().into_iter().cloned().collect(),
        dropout_rng: stack.dropout().rng().clone(),
    }
}

pub(crate) fn restore(stack: &mut ConvStack, snapshot: TrunkSnapshot) {
    for (param, saved) in stack.params_mut().into_iter().zip(snapshot.params) {
        *param = saved;
    }
    stack.dropout_mut().set_rng(snapshot.dropout_rng);
}

/// The output rows of `plan` from a workspace of their own.
pub(crate) fn infer_once(stack: &ConvStack, adj: &CsrMatrix, x: &Matrix, plan: &RowPlan) -> Matrix {
    stack.infer(&mut Workspace::new(adj), x, plan).clone()
}

/// The critical-node classifier of Table 1: four graph convolutions with
/// ReLU activations, one dropout, and a log-softmax output over the two
/// classes `{Non-critical, Critical}`.
///
/// The model holds parameters only; its caching passes run in a
/// [`Workspace`] over one adjacency, which a training run creates once
/// and reuses in every epoch.
///
/// # Example
///
/// ```
/// use fusa_gcn::{GcnClassifier, GcnConfig};
/// use fusa_neuro::conv::Workspace;
/// use fusa_neuro::{CsrMatrix, Matrix};
///
/// let config = GcnConfig { in_features: 2, hidden: vec![4], ..Default::default() };
/// let mut model = GcnClassifier::new(config);
/// let adj = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]);
/// let x = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let mut workspace = Workspace::new(&adj);
/// let log_probs = model.forward(&mut workspace, &x, false);
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
    /// The convolutions; training drives their trunk pass directly.
    pub(crate) stack: ConvStack,
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
            stack: conv_stack(&config, NUM_CLASSES, true),
            config,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &GcnConfig {
        &self.config
    }

    /// Caching forward pass over the workspace's adjacency, returning
    /// per-node log class probabilities (`N × 2`). Set `training` for
    /// dropout; an eval-mode pass (`training = false`) also keeps what
    /// [`GcnClassifier::backward_with_edge_grads`] needs.
    pub fn forward<'w>(
        &mut self,
        ws: &'w mut Workspace<'_>,
        x: &Matrix,
        training: bool,
    ) -> &'w Matrix {
        self.stack.forward(ws, x, training)
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
        infer_once(&self.stack, adj, x, plan)
    }

    /// A [`RowPlan`] producing the output rows of nodes `rows`.
    pub fn row_plan(&self, adj: &CsrMatrix, rows: &[usize]) -> RowPlan {
        RowPlan::new(adj, rows, self.stack.depth())
    }

    /// Backward pass from the log-probability gradient, after a forward
    /// pass over `ws`. Returns `∂L/∂X`.
    pub fn backward(&mut self, ws: &mut Workspace<'_>, grad_log_probs: &Matrix) -> Matrix {
        self.stack.backward(ws, grad_log_probs)
    }

    /// Backward pass that also returns per-CSR-entry adjacency gradients
    /// (summed over all convolution layers) for the explainer.
    ///
    /// # Panics
    ///
    /// Panics unless it follows an eval-mode [`GcnClassifier::forward`]
    /// over `ws`.
    pub fn backward_with_edge_grads(
        &mut self,
        ws: &mut Workspace<'_>,
        grad_log_probs: &Matrix,
    ) -> (Matrix, Vec<f64>) {
        self.stack.backward_with_edge_grads(ws, grad_log_probs)
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
        self.stack.params()
    }

    /// All trainable parameters in a stable order, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.stack.params_mut()
    }

    /// Total scalar parameter count.
    pub fn parameter_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// A Table-1-style architecture listing.
    pub fn summary(&self) -> String {
        self.config.summary(NUM_CLASSES, true)
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
        let adj = tiny_adj();
        let mut ws = Workspace::new(&adj);
        let out = model.forward(&mut ws, &tiny_x(), false);
        assert_eq!(out.shape(), (3, 2));
        for r in 0..3 {
            let total: f64 = out.row(r).iter().map(|&v| v.exp()).sum();
            assert!((total - 1.0).abs() < 1e-9, "row {r} sums to {total}");
        }
    }

    #[test]
    fn training_and_inference_paths_agree_without_dropout() {
        let mut model = GcnClassifier::new(tiny_config());
        let adj = tiny_adj();
        let a = model
            .forward(&mut Workspace::new(&adj), &tiny_x(), false)
            .clone();
        let b = model.forward_inference(&adj, &tiny_x());
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

        let mut ws = Workspace::new(&adj);
        let log_probs = model.forward(&mut ws, &x, false);
        let (_, grad_lp) = fusa_neuro::loss::nll_loss(log_probs, &targets, &mask);
        let grad_x = model.backward(&mut ws, &grad_lp);

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

        let mut ws = Workspace::new(&adj);
        let log_probs = model.forward(&mut ws, &x, false);
        let (_, grad_lp) = fusa_neuro::loss::nll_loss(log_probs, &targets, &mask);
        let (_, edge_grads) = model.backward_with_edge_grads(&mut ws, &grad_lp);

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
        let adj = tiny_adj();
        let mut ws = Workspace::new(&adj);
        let a = model.forward(&mut ws, &tiny_x(), true).clone();
        let b = model.forward(&mut ws, &tiny_x(), true).clone();
        assert_ne!(a, b, "dropout masks should differ across calls");
        let c = model.forward_inference(&tiny_adj(), &tiny_x());
        let d = model.forward_inference(&tiny_adj(), &tiny_x());
        assert_eq!(c, d);
    }
}
