//! Neural network layers with explicit forward/backward passes.
//!
//! Every layer caches whatever its backward pass needs during `forward`,
//! so the calling convention is strictly `forward` → `backward` per step
//! (the cache is overwritten by the next forward call).
//!
//! The `*_owned` passes take their input by value and work in place:
//! activations and gradients move through a layer stack without being
//! copied, and a layer that must keep its input for backward keeps the
//! moved matrix itself. The borrowing `forward`/`backward` entry points
//! clone once and delegate to them.
//!
//! Graph convolutions are not layers of this kind: a
//! [`ConvStack`](crate::conv::ConvStack) runs each of its layers in one
//! fused row pass per direction, and [`Dropout`] is the generator those
//! passes draw their masks from.

use crate::init::glorot_uniform;
use crate::matrix::Matrix;
use crate::param::Param;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Fully connected layer: `Y = X·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weight matrix, `in_features × out_features`.
    pub weight: Param,
    /// Bias row, `1 × out_features`.
    pub bias: Param,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// Creates a Glorot-initialized layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Dense {
        Dense {
            weight: Param::new(glorot_uniform(in_features, out_features, seed)),
            bias: Param::new(Matrix::zeros(1, out_features)),
            cached_input: None,
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

    /// Forward pass, caching a copy of the input for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_owned(x.clone())
    }

    /// Forward pass that takes ownership of the input and caches it for
    /// backward without copying.
    pub fn forward_owned(&mut self, x: Matrix) -> Matrix {
        let y = self.forward_inference(&x);
        self.cached_input = Some(x);
        y
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.weight.value)
            .add_row_broadcast(self.bias.value.row(0))
    }

    /// Backward pass: accumulates weight/bias gradients and returns
    /// `∂L/∂X`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.backward_params(grad_output);
        grad_output.matmul_transpose(&self.weight.value)
    }

    /// Backward pass for the parameters only: accumulates weight/bias
    /// gradients and skips `∂L/∂X` (for a first layer, whose input is
    /// data rather than an upstream activation).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_params(&mut self, grad_output: &Matrix) {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward requires a prior forward call");
        self.weight
            .accumulate_grad(&x.transpose_matmul(grad_output));
        let bias_grad = Matrix::from_vec(1, grad_output.cols(), grad_output.column_sums());
        self.bias.accumulate_grad(&bias_grad);
    }

    /// The layer's trainable parameters.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    /// The layer's trainable parameters, mutably.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Relu {
        Relu::default()
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_owned(x.clone())
    }

    /// In-place forward pass; the mask buffer is reused across calls.
    pub fn forward_owned(&mut self, mut x: Matrix) -> Matrix {
        let mut mask = self.mask.take().unwrap_or_default();
        mask.resize(x.as_slice().len(), false);
        for (v, keep) in x.as_mut_slice().iter_mut().zip(&mut mask) {
            *keep = *v > 0.0;
            *v = v.max(0.0);
        }
        self.mask = Some(mask);
        x
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.map(|v| v.max(0.0))
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.backward_owned(grad_output.clone())
    }

    /// In-place backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_owned(&mut self, mut grad: Matrix) -> Matrix {
        let mask = self
            .mask
            .as_ref()
            .expect("Relu::backward requires a prior forward call");
        for (g, &keep) in grad.as_mut_slice().iter_mut().zip(mask) {
            *g = if keep { *g } else { 0.0 };
        }
        grad
    }
}

/// Inverted dropout: scales kept activations by `1/(1-p)` during
/// training; identity at inference. Holds the drop probability and the
/// mask generator; the passes that apply it keep the mask.
#[derive(Debug, Clone)]
pub struct Dropout {
    /// Drop probability in `[0, 1)`.
    pub p: f64,
    rng: ChaCha8Rng,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f64, seed: u64) -> Dropout {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        Dropout {
            p,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Draws one mask entry per element of `x`, in element order, into
    /// `mask` and applies it. Each entry is `1/keep` or `+0.0`: the
    /// positive finite scale times the coin flip as `1.0` or `0.0`. A
    /// branch (or a select, which LLVM may turn into one) on a coin flip
    /// would mispredict half the time.
    pub(crate) fn draw(&mut self, mask: &mut [f64], x: &mut [f64]) {
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        for (v, m) in x.iter_mut().zip(mask) {
            *m = scale * f64::from(u8::from(self.rng.gen_bool(keep)));
            *v *= *m;
        }
    }

    /// The mask generator's state: with [`Dropout::set_rng`], lets a
    /// caller snapshot and restore the generator.
    pub fn rng(&self) -> &ChaCha8Rng {
        &self.rng
    }

    /// Restores a mask generator state taken with [`Dropout::rng`].
    pub fn set_rng(&mut self, rng: ChaCha8Rng) {
        self.rng = rng;
    }
}

/// Row-wise log-softmax: `y_ij = x_ij - log Σ_k exp(x_ik)`.
#[derive(Debug, Clone, Default)]
pub struct LogSoftmax {
    cached_output: Option<Matrix>,
}

impl LogSoftmax {
    /// Creates a log-softmax activation.
    pub fn new() -> LogSoftmax {
        LogSoftmax::default()
    }

    /// Numerically stable forward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_owned(x.clone())
    }

    /// In-place forward pass; caches a copy of the (class-wide, so
    /// narrow) output for backward.
    pub fn forward_owned(&mut self, mut x: Matrix) -> Matrix {
        log_softmax_rows_in_place(&mut x);
        self.cached_output = Some(x.clone());
        x
    }

    /// Forward pass without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        log_softmax_rows(x)
    }

    /// Backward pass: `∂L/∂x = g - softmax(x) · (Σ_j g_j)` per row.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        self.backward_owned(grad_output.clone())
    }

    /// In-place backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward_owned(&mut self, mut grad: Matrix) -> Matrix {
        let y = self
            .cached_output
            .as_ref()
            .expect("LogSoftmax::backward requires a prior forward call");
        for r in 0..grad.rows() {
            let row = grad.row_mut(r);
            let gsum: f64 = row.iter().sum();
            for (g, &ylog) in row.iter_mut().zip(y.row(r)) {
                *g -= ylog.exp() * gsum;
            }
        }
        grad
    }
}

/// Stand-alone numerically stable row-wise log-softmax.
pub fn log_softmax_rows(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    log_softmax_rows_in_place(&mut y);
    y
}

/// [`log_softmax_rows`] in place.
pub fn log_softmax_rows_in_place(x: &mut Matrix) {
    for r in 0..x.rows() {
        log_softmax_row(x.row_mut(r));
    }
}

/// The log-softmax of one row, in place.
#[inline(always)]
pub(crate) fn log_softmax_row(row: &mut [f64]) {
    let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let logsum = row.iter().map(|&v| (v - max).exp()).sum::<f64>().ln() + max;
    for v in row {
        *v -= logsum;
    }
}

/// Stand-alone row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    log_softmax_rows(x).map(f64::exp)
}

/// Logistic sigmoid applied elementwise.
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64, what: &str) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn dense_input_gradient_matches_numeric() {
        let mut layer = Dense::new(3, 2, 11);
        let x = Matrix::from_rows(&[&[0.5, -1.0, 2.0], &[1.5, 0.3, -0.7]]);
        // Loss = sum of outputs.
        let _ = layer.forward(&x);
        let grad_in = layer.backward(&Matrix::filled(2, 2, 1.0));
        let frozen = layer.clone();
        let numeric = numeric_grad(
            |xx| frozen.forward_inference(xx).as_slice().iter().sum(),
            &x,
        );
        assert_close(&grad_in, &numeric, 1e-5, "dense input grad");
    }

    #[test]
    fn dense_weight_gradient_matches_numeric() {
        let mut layer = Dense::new(2, 2, 5);
        let x = Matrix::from_rows(&[&[1.0, -2.0]]);
        let _ = layer.forward(&x);
        layer.backward(&Matrix::filled(1, 2, 1.0));
        let analytic = layer.weight.grad.clone();

        let eps = 1e-6;
        let mut numeric = Matrix::zeros(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                let mut plus = layer.clone();
                plus.weight
                    .value
                    .set(r, c, plus.weight.value.get(r, c) + eps);
                let mut minus = layer.clone();
                minus
                    .weight
                    .value
                    .set(r, c, minus.weight.value.get(r, c) - eps);
                let fp: f64 = plus.forward_inference(&x).as_slice().iter().sum();
                let fm: f64 = minus.forward_inference(&x).as_slice().iter().sum();
                numeric.set(r, c, (fp - fm) / (2.0 * eps));
            }
        }
        assert_close(&analytic, &numeric, 1e-5, "dense weight grad");
    }

    #[test]
    fn relu_zeroes_negative_gradients() {
        let mut relu = Relu::new();
        let x = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let y = relu.forward(&x);
        assert_eq!(y.row(0), &[0.0, 2.0]);
        let grad = relu.backward(&Matrix::filled(1, 2, 1.0));
        assert_eq!(grad.row(0), &[0.0, 1.0]);
    }

    #[test]
    fn dropout_preserves_expectation() {
        let mut dropout = Dropout::new(0.3, 7);
        let mut x = vec![1.0; 20_000];
        let mut mask = vec![0.0; 20_000];
        dropout.draw(&mut mask, &mut x);
        let mean: f64 = x.iter().sum::<f64>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.03, "mean {mean}");
        assert_eq!(x, mask);
    }

    #[test]
    fn log_softmax_rows_sum_to_one_probability() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let y = log_softmax_rows(&x);
        for r in 0..2 {
            let total: f64 = y.row(r).iter().map(|&v| v.exp()).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn log_softmax_is_stable_for_large_inputs() {
        let x = Matrix::from_rows(&[&[1000.0, 1001.0]]);
        let y = log_softmax_rows(&x);
        assert!(!y.has_non_finite());
    }

    #[test]
    fn log_softmax_backward_matches_numeric() {
        let mut layer = LogSoftmax::new();
        let x = Matrix::from_rows(&[&[0.2, -0.4, 1.1]]);
        let _ = layer.forward(&x);
        // Loss = weighted sum of outputs (weights break symmetry).
        let weights = Matrix::from_rows(&[&[1.0, 2.0, -0.5]]);
        let grad = layer.backward(&weights);
        let numeric = numeric_grad(
            |xx| {
                log_softmax_rows(xx)
                    .as_slice()
                    .iter()
                    .zip(weights.as_slice())
                    .map(|(&a, &w)| a * w)
                    .sum()
            },
            &x,
        );
        assert_close(&grad, &numeric, 1e-5, "log softmax grad");
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) < 0.001);
    }
}
