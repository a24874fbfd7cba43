//! Bit-level pins of GCN training.
//!
//! Training kernels may be restructured for speed only if every float
//! keeps its exact sequence of operations. These tests hash the
//! `f64::to_bits` of everything a training run exposes — per-epoch loss
//! and validation metric, the best epoch, and the final per-node
//! outputs — on `or1200_icfsm` at the `--fast` configuration, so any
//! reordered sum, fused multiply-add or changed zero-skip shows up as a
//! hash mismatch rather than as a drift hidden inside a tolerance.

use fusa_gcn::pipeline::{FusaAnalysis, FusaPipeline, PipelineConfig};
use fusa_gcn::train::{train_regressor, TrainHistory};
use fusa_gcn::GcnConfig;
use fusa_netlist::designs::or1200_icfsm;
use fusa_obs::Fnv64;

fn fast_analysis() -> FusaAnalysis {
    FusaPipeline::new(PipelineConfig::fast())
        .run(&or1200_icfsm())
        .expect("pipeline runs on or1200_icfsm")
}

/// FNV-1a over the training trace and `outputs`, all as raw bits.
fn training_hash(history: &TrainHistory, outputs: &[f64]) -> String {
    let mut hash = Fnv64::new();
    for values in [&history.train_loss, &history.validation_metric] {
        hash.write(&(values.len() as u64).to_le_bytes());
        for v in values.iter() {
            hash.write(&v.to_bits().to_le_bytes());
        }
    }
    hash.write(&(history.best_epoch as u64).to_le_bytes());
    hash.write(&(outputs.len() as u64).to_le_bytes());
    for v in outputs {
        hash.write(&v.to_bits().to_le_bytes());
    }
    hash.hex()
}

#[test]
fn classifier_training_bits_are_pinned() {
    let analysis = fast_analysis();
    assert_eq!(analysis.history.train_loss.len(), 80);
    let hash = training_hash(&analysis.history, &analysis.evaluation.critical_probability);
    assert_eq!(
        hash, "fnv1a64:cdf540661d82ca05",
        "classifier training bits moved"
    );
}

#[test]
fn regressor_training_bits_are_pinned() {
    let analysis = fast_analysis();
    let config = PipelineConfig::fast();
    let (history, predictions) = train_regressor(
        &analysis.adjacency,
        &analysis.features,
        analysis.dataset.scores(),
        &analysis.split,
        GcnConfig {
            in_features: analysis.features.cols(),
            ..config.model
        },
        &config.train,
    );
    assert_eq!(history.train_loss.len(), 80);
    let hash = training_hash(&history, &predictions);
    assert_eq!(
        hash, "fnv1a64:a4ac85abe2165cc2",
        "regressor training bits moved"
    );
}
