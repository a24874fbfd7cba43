//! Self-contained neural-network substrate.
//!
//! The paper implements its GCN with PyTorch + torch-geometric; neither
//! exists in the offline Rust ecosystem this reproduction targets, so this
//! crate provides the numerical stack from scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the usual BLAS-ish
//!   operations, their products plain loops (the graph convolutions run
//!   register-tiled kernels of their own);
//! * [`CsrMatrix`] — compressed-sparse-row matrices for normalized graph
//!   adjacency, with sparse×dense products and per-edge gradients (needed
//!   by the GNN explainer), and [`RowPlan`] — the rows each layer of a
//!   graph-convolution stack must compute for a chosen set of outputs;
//! * [`conv`] — graph-convolution stacks whose forward, backward and
//!   inference passes run one fused loop over the rows per layer, in
//!   buffers a [`conv::Workspace`] keeps for the whole run;
//! * [`layers`] — `Dense`, `ReLU`, `Dropout`, `LogSoftmax` with explicit
//!   forward/backward passes;
//! * [`loss`] — negative log-likelihood, mean-squared-error and binary
//!   cross-entropy with masking (semi-supervised node splits);
//! * [`optim`] — Adam and SGD over [`Param`] value/gradient pairs;
//! * [`metrics`] — accuracy, confusion counts, ROC curves, AUC, Pearson
//!   and Spearman correlation;
//! * [`split`] — seeded stratified train/validation node splits.
//!
//! # Example
//!
//! ```
//! use fusa_neuro::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

pub mod conv;
pub mod init;
mod kernels;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod metrics;
pub mod optim;
pub mod param;
pub mod sparse;
pub mod split;

pub use matrix::Matrix;
pub use param::Param;
pub use sparse::{CsrMatrix, RowPlan};
