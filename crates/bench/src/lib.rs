//! Shared harness for the table/figure regeneration binaries.
//!
//! Every `--bin` in this crate reproduces one artifact of the paper's
//! evaluation (see DESIGN.md §4 for the index). This library holds the
//! common plumbing: the standard experiment configuration, a per-design
//! runner ([`run_design`]) that trains the GCN and all five baselines on
//! identical splits, and small text-rendering helpers (ASCII bar charts,
//! aligned tables, CSV dumps under `results/`). Key types: [`DesignRun`]
//! (one design's GCN analysis plus [`BaselineResult`]s) and the
//! [`standard_config`] / [`smoke_config`] presets.
//!
//! # Example
//!
//! ```
//! // The smoke preset trades fidelity for speed; figure binaries use
//! // standard_config() instead.
//! let fast = fusa_bench::smoke_config();
//! let full = fusa_bench::standard_config();
//! assert!(fast.workloads.num_workloads < full.workloads.num_workloads);
//! assert_eq!(fusa_bench::bar(0.5).len(), fusa_bench::bar(1.0).len());
//! ```

use fusa_baselines::all_baselines;
use fusa_gcn::pipeline::{FusaAnalysis, FusaPipeline, PipelineConfig};
use fusa_netlist::{designs, Netlist};
use fusa_neuro::metrics::{Confusion, RocCurve};
use std::path::Path;

/// Result of one baseline classifier on one design.
pub struct BaselineResult {
    /// Display name (`MLP`, `LoR`, …).
    pub name: &'static str,
    /// Validation accuracy.
    pub accuracy: f64,
    /// Validation AUC.
    pub auc: f64,
    /// Validation ROC curve.
    pub roc: RocCurve,
}

/// Everything measured for one design: the GCN pipeline output plus all
/// baseline results on the same features and split.
pub struct DesignRun {
    /// The pipeline's analysis (GCN training, evaluation, dataset, …).
    pub analysis: FusaAnalysis,
    /// Baseline results, in [`fusa_baselines::all_baselines`] order.
    pub baselines: Vec<BaselineResult>,
}

impl DesignRun {
    /// GCN validation accuracy.
    pub fn gcn_accuracy(&self) -> f64 {
        self.analysis.evaluation.accuracy
    }

    /// GCN validation AUC.
    pub fn gcn_auc(&self) -> f64 {
        self.analysis.evaluation.auc
    }

    /// Best baseline accuracy.
    pub fn best_baseline_accuracy(&self) -> f64 {
        self.baselines
            .iter()
            .map(|b| b.accuracy)
            .fold(0.0, f64::max)
    }
}

/// The full-scale experiment configuration used by every figure/table
/// binary (24 workloads × 256 vectors, threshold 0.5, 80/20 split,
/// 200 epochs — §4.1 of the paper).
pub fn standard_config() -> PipelineConfig {
    PipelineConfig::default()
}

/// A cheaper configuration for smoke-testing the binaries.
pub fn smoke_config() -> PipelineConfig {
    PipelineConfig::fast()
}

/// The three benchmark designs in paper order.
pub fn paper_designs() -> Vec<Netlist> {
    designs::paper_designs()
}

/// Runs the GCN pipeline and all baselines on one design.
///
/// Baselines are trained on the same standardized features and the same
/// stratified split the GCN used, and evaluated on the same validation
/// nodes.
///
/// # Panics
///
/// Panics if the pipeline reports degenerate labels (the standard
/// workloads on the three benchmark designs do not).
pub fn run_design(netlist: &Netlist, config: &PipelineConfig) -> DesignRun {
    let mut analysis = FusaPipeline::new(config.clone())
        .run(netlist)
        .unwrap_or_else(|e| panic!("pipeline failed on {}: {e}", netlist.name()));
    select_best_gcn(&mut analysis, config);
    let baselines = run_baselines(&analysis);
    DesignRun {
        analysis,
        baselines,
    }
}

/// Per-design hyper-parameter selection (§3.3.2): retrains the GCN over a
/// small candidate grid (hidden stacks × dropout × init seed) and keeps
/// the model with the best validation accuracy. The paper grid-searches
/// layers, layer types and feature dimensions the same way.
pub fn select_best_gcn(analysis: &mut FusaAnalysis, config: &PipelineConfig) {
    use fusa_gcn::{try_train_classifier, GcnConfig};
    let candidates: Vec<GcnConfig> = [
        (vec![16, 32, 64], 0.3, 0x6C4u64),
        (vec![16, 32, 64], 0.1, 0x1A7),
        (vec![32, 64], 0.3, 0x2B8),
        (vec![16, 32], 0.5, 0x3C9),
    ]
    .into_iter()
    .map(|(hidden, dropout, seed)| GcnConfig {
        in_features: analysis.features.cols(),
        hidden,
        dropout,
        seed,
    })
    .collect();

    for candidate in candidates {
        if candidate == *analysis.classifier.config() {
            continue;
        }
        let (model, history, evaluation) = try_train_classifier(
            &analysis.adjacency,
            &analysis.features,
            analysis.dataset.labels(),
            &analysis.split,
            candidate,
            &config.train,
        )
        .expect("the analysis's split validates");
        if evaluation.accuracy > analysis.evaluation.accuracy {
            analysis.classifier = model;
            analysis.history = history;
            analysis.evaluation = evaluation;
        }
    }
}

/// Trains and evaluates all five baselines against an existing analysis.
pub fn run_baselines(analysis: &FusaAnalysis) -> Vec<BaselineResult> {
    let labels = analysis.labels();
    let split = &analysis.split;
    all_baselines(0xBA5E)
        .into_iter()
        .map(|mut model| {
            model.fit(&analysis.features, labels, &split.train);
            let probabilities = model.predict_proba(&analysis.features);
            let val_scores: Vec<f64> = split.validation.iter().map(|&i| probabilities[i]).collect();
            let val_predicted: Vec<bool> = val_scores.iter().map(|&p| p >= 0.5).collect();
            let val_actual: Vec<bool> = split.validation.iter().map(|&i| labels[i]).collect();
            let confusion = Confusion::from_predictions(&val_predicted, &val_actual);
            let roc = RocCurve::compute(&val_scores, &val_actual);
            BaselineResult {
                name: model.name(),
                accuracy: confusion.accuracy(),
                auc: roc.auc(),
                roc,
            }
        })
        .collect()
}

/// Renders a horizontal ASCII bar of `value` in `[0, 1]`, 40 columns
/// wide.
pub fn bar(value: f64) -> String {
    let width = 40usize;
    let filled = ((value.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "█".repeat(filled), "░".repeat(width - filled))
}

/// Writes `contents` under `results/`, creating the directory if needed.
/// Prints the path written. Errors are reported, not fatal (benches may
/// run in read-only sandboxes).
pub fn save_results(filename: &str, contents: &str) {
    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(filename);
    match std::fs::write(&path, contents) {
        Ok(()) => println!("  [saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Parses a `--smoke` flag from the binary's arguments (used by CI and
/// the integration tests to keep runtimes small).
pub fn config_from_args() -> PipelineConfig {
    if std::env::args().any(|a| a == "--smoke") {
        smoke_config()
    } else {
        standard_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_models() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let run = run_design(&netlist, &smoke_config());
        assert_eq!(run.baselines.len(), 5);
        assert!(run.gcn_accuracy() > 0.5);
        for baseline in &run.baselines {
            assert!(
                (0.0..=1.0).contains(&baseline.accuracy),
                "{}",
                baseline.name
            );
            assert!((0.0..=1.0).contains(&baseline.auc), "{}", baseline.name);
        }
    }

    #[test]
    fn bar_renders_fixed_width() {
        assert_eq!(bar(0.0).chars().count(), 40);
        assert_eq!(bar(1.0).chars().count(), 40);
        assert_eq!(bar(0.5).chars().filter(|&c| c == '█').count(), 20);
    }
}
