//! GCN-based fault criticality analysis — the paper's core contribution.
//!
//! This crate assembles the substrates ([`fusa_netlist`],
//! [`fusa_logicsim`], [`fusa_faultsim`], [`fusa_graph`], [`fusa_neuro`])
//! into the framework of *"Graph Learning-based Fault Criticality
//! Analysis for Enhancing Functional Safety of E/E Systems"* (DAC 2024):
//!
//! * [`model`] — the GCN classifier of Table 1 (GC→ReLU→GC→ReLU→Dropout→
//!   GC→ReLU→GC→LogSoftmax) and the convolutions of its regression
//!   variant (§3.4), the same with one output and no LogSoftmax;
//! * [`train`] — masked semi-supervised training of both heads through
//!   one epoch loop, evaluation, and the grid-search hyper-parameter
//!   optimization of §3.3.2;
//! * [`explain`] — a GNNExplainer-style post-hoc explainer (§3.5):
//!   per-node feature/edge masks plus the Eq. 3 global feature ranking;
//! * [`pipeline`] — the end-to-end flow of Figure 2: netlist → graph →
//!   features → fault-injection ground truth → GCN training →
//!   classification, criticality scores and explanations.
//!
//! # Example
//!
//! ```no_run
//! use fusa_gcn::pipeline::{FusaPipeline, PipelineConfig};
//! use fusa_netlist::designs::or1200_icfsm;
//!
//! # fn main() -> Result<(), fusa_gcn::pipeline::PipelineError> {
//! let netlist = or1200_icfsm();
//! let analysis = FusaPipeline::new(PipelineConfig::default()).run(&netlist)?;
//! println!("accuracy {:.1}%", analysis.evaluation.accuracy * 100.0);
//! println!("AUC {:.2}", analysis.evaluation.auc);
//! # Ok(())
//! # }
//! ```

pub mod explain;
pub mod model;
pub mod persist;
pub mod pipeline;
pub mod rank;
pub mod report;
pub mod sgc;
pub mod train;

pub use explain::{Explainer, ExplainerConfig, Explanation, GlobalFeatureImportance};
pub use model::{GcnClassifier, GcnConfig};
pub use pipeline::{FusaAnalysis, FusaPipeline, PipelineConfig, PipelineError};
pub use rank::{
    parse_ground_truth, RankEvaluation, StaticRank, CHANNEL_WEIGHTS, RANK_CHANNEL_NAMES,
};
pub use sgc::{SgcClassifier, SgcConfig};
pub use train::{
    train_classifier, train_regressor, try_train_classifier, EvaluationReport, GridSearch,
    TrainConfig, TrainError, TrainHistory,
};
