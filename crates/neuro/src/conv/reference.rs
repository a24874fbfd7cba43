//! The layered graph-convolution stack the fused passes replaced, kept as
//! their bit-identity reference. Each step is a pass of its own that
//! returns a new matrix: `Â·H`, then `(Â·H)·W + b` through [`Dense`]
//! (whose backward computes `(Â·H)ᵀ·G`, the column sums of `G` and
//! `G·Wᵀ`), ReLU, dropout and log-softmax; and `Âᵀ·D` is a row-axpy
//! scatter over the rows of `Â`.

use super::ConvStack;
use crate::layers::{Dense, Dropout, LogSoftmax};
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;

/// A [`ConvStack`]'s parameters, run layer by layer.
pub(super) struct Layered {
    linears: Vec<Dense>,
    dropout: Dropout,
    dropout_after: usize,
    log_softmax: Option<LogSoftmax>,
    relu_masks: Vec<Vec<bool>>,
    dropout_mask: Option<Vec<f64>>,
    /// Every layer's input, kept by an eval pass.
    inputs: Vec<Matrix>,
    /// Per layer, `D = G·Wᵀ` of the last backward pass.
    below: Vec<Matrix>,
}

impl Layered {
    pub(super) fn new(stack: &ConvStack) -> Layered {
        let linears = stack
            .convs
            .iter()
            .map(|conv| {
                let mut dense = Dense::new(conv.in_features(), conv.out_features(), 0);
                dense.weight = conv.weight.clone();
                dense.bias = conv.bias.clone();
                dense
            })
            .collect();
        Layered {
            linears,
            dropout: stack.dropout.clone(),
            dropout_after: stack.dropout_after,
            log_softmax: stack.log_softmax.then(LogSoftmax::new),
            relu_masks: Vec::new(),
            dropout_mask: None,
            inputs: Vec::new(),
            below: Vec::new(),
        }
    }

    /// Takes the weights and biases of `stack`, keeping the dropout
    /// generator's state.
    pub(super) fn set_params(&mut self, stack: &ConvStack) {
        for (dense, conv) in self.linears.iter_mut().zip(&stack.convs) {
            dense.weight.value = conv.weight.value.clone();
            dense.bias.value = conv.bias.value.clone();
        }
    }

    pub(super) fn forward(&mut self, adj: &CsrMatrix, x: &Matrix, training: bool) -> Matrix {
        let depth = self.linears.len();
        self.relu_masks.clear();
        self.dropout_mask = None;
        self.inputs.clear();
        let mut h = x.clone();
        for l in 0..depth {
            if !training {
                self.inputs.push(h.clone());
            }
            h = self.linears[l].forward_owned(adj.matmul(&h));
            if l + 1 < depth {
                self.relu_masks
                    .push(h.as_slice().iter().map(|&v| v > 0.0).collect());
                h.map_in_place(|v| v.max(0.0));
                if training && l == self.dropout_after && self.dropout.p > 0.0 {
                    let mut mask = vec![0.0; h.as_slice().len()];
                    self.dropout.draw(&mut mask, h.as_mut_slice());
                    self.dropout_mask = Some(mask);
                }
            }
        }
        match &mut self.log_softmax {
            Some(log_softmax) => log_softmax.forward_owned(h),
            None => h,
        }
    }

    /// Accumulates the parameter gradients and returns `∂L/∂X` and, when
    /// `edges` is set after an eval pass, the edge gradients.
    pub(super) fn backward(
        &mut self,
        adj: &CsrMatrix,
        grad_output: &Matrix,
        edges: bool,
    ) -> (Matrix, Option<Vec<f64>>) {
        let depth = self.linears.len();
        let mut grad = match &mut self.log_softmax {
            Some(log_softmax) => log_softmax.backward(grad_output),
            None => grad_output.clone(),
        };
        let mut edge_grads: Vec<f64> = Vec::new();
        self.below = vec![Matrix::zeros(0, 0); depth];
        for l in (0..depth).rev() {
            if l + 1 < depth {
                if let (Some(mask), true) = (&self.dropout_mask, l == self.dropout_after) {
                    for (g, &m) in grad.as_mut_slice().iter_mut().zip(mask) {
                        *g *= m;
                    }
                }
                for (g, &keep) in grad.as_mut_slice().iter_mut().zip(&self.relu_masks[l]) {
                    *g = if keep { *g } else { 0.0 };
                }
            }
            let grad_aggregated = self.linears[l].backward(&grad);
            if edges {
                let layer = adj.edge_gradients(&grad_aggregated, &self.inputs[l]);
                if edge_grads.is_empty() {
                    edge_grads = layer;
                } else {
                    for (a, g) in edge_grads.iter_mut().zip(layer) {
                        *a += g;
                    }
                }
            }
            grad = spmm_transpose(adj, &grad_aggregated);
            self.below[l] = grad_aggregated;
        }
        (grad, edges.then_some(edge_grads))
    }

    /// Inference over every row.
    pub(super) fn infer(&self, adj: &CsrMatrix, x: &Matrix) -> Matrix {
        let mut h = self.linears[0].forward_inference(&adj.matmul(x));
        for linear in &self.linears[1..] {
            h.map_in_place(|v| v.max(0.0));
            h = linear.forward_inference(&adj.matmul(&h));
        }
        if self.log_softmax.is_some() {
            crate::layers::log_softmax_rows_in_place(&mut h);
        }
        h
    }

    pub(super) fn relu_masks(&self) -> &[Vec<bool>] {
        &self.relu_masks
    }

    pub(super) fn dropout_mask(&self) -> Option<&[f64]> {
        self.dropout_mask.as_deref()
    }

    /// `D = G·Wᵀ` of layer `l` in the last backward pass.
    pub(super) fn below(&self, l: usize) -> &Matrix {
        &self.below[l]
    }

    /// Every weight and bias gradient, bottom layer first.
    pub(super) fn grads(&self) -> Vec<Vec<f64>> {
        self.linears
            .iter()
            .flat_map(|d| [&d.weight, &d.bias])
            .map(|p| p.grad.as_slice().to_vec())
            .collect()
    }

    pub(super) fn zero_grads(&mut self) {
        for dense in &mut self.linears {
            dense.weight.zero_grad();
            dense.bias.zero_grad();
        }
    }
}

/// `adjᵀ × g` as a scatter: row `r` of `g`, scaled by each entry `(r, c)`
/// of `adj`, is added to output row `c`, so each output row receives its
/// terms in ascending `r`.
fn spmm_transpose(adj: &CsrMatrix, g: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(adj.cols(), g.cols());
    for r in 0..adj.rows() {
        for (c, v) in adj.row_entries(r) {
            for (o, &x) in out.row_mut(c).iter_mut().zip(g.row(r)) {
                *o += v * x;
            }
        }
    }
    out
}
