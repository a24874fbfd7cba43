//! The end-to-end flow of Figure 2: netlist → graph → features → fault
//! injection → GCN training → classification / scoring / explanation.

use crate::explain::{Explainer, ExplainerConfig};
use crate::model::GcnConfig;
use crate::train::{
    train_regressor, try_train_classifier, EvaluationReport, TrainConfig, TrainError, TrainHistory,
};
use fusa_faultsim::{
    CampaignConfig, CampaignError, CampaignStats, CriticalityDataset, DurabilityConfig,
    FaultCampaign, FaultList, QuarantinedUnit,
};
use fusa_graph::{normalized_adjacency, CircuitGraph, FeatureMatrix, Standardizer};
use fusa_logicsim::{SignalStats, SignalStatsConfig, WorkloadConfig, WorkloadSuite};
use fusa_netlist::{Netlist, StructuralProfile};
use fusa_neuro::split::Split;
use fusa_neuro::{CsrMatrix, Matrix};
use std::error::Error;
use std::fmt;

/// Configuration of the full pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Workload suite parameters (`N` workloads of §3.2).
    pub workloads: WorkloadConfig,
    /// Monte-Carlo signal-probability estimation parameters (§3.1).
    pub signal_stats: SignalStatsConfig,
    /// Fault campaign execution parameters.
    pub campaign: CampaignConfig,
    /// Criticality threshold `th` of Algorithm 1 (the paper uses 0.5).
    pub criticality_threshold: f64,
    /// Training fraction of the node split (the paper uses 0.8).
    pub train_fraction: f64,
    /// Seed of the stratified split.
    pub split_seed: u64,
    /// Drop statically untestable fault sites (constant or unobservable
    /// gates, found by `fusa-lint`) from the campaign fault list before
    /// simulation. The excluded gates keep criticality score 0 — the
    /// same label simulating them would produce — at zero cost.
    pub exclude_untestable_faults: bool,
    /// Append the simulation-free structural channels (SCOAP
    /// testability, graph centralities) to the node features fed to the
    /// GCN and the baselines. Off by default: the base layout is the
    /// paper's five features and keeps artifact digests stable.
    pub structural_features: bool,
    /// GCN architecture (`in_features` is set from the feature matrix).
    pub model: GcnConfig,
    /// Training hyper-parameters.
    pub train: TrainConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workloads: WorkloadConfig::default(),
            signal_stats: SignalStatsConfig::default(),
            campaign: CampaignConfig {
                // Grade danger by divergence rate (§3.2 framing:
                // "functional errors for more than X% of the time");
                // single-cycle glitches classify as latent instead.
                min_divergence_fraction: 0.2,
                ..CampaignConfig::default()
            },
            criticality_threshold: 0.5,
            train_fraction: 0.8,
            split_seed: 0x5117,
            exclude_untestable_faults: true,
            structural_features: false,
            model: GcnConfig::default(),
            train: TrainConfig::default(),
        }
    }
}

impl PipelineConfig {
    /// A reduced-cost preset for tests and smoke runs: fewer workloads,
    /// shorter vectors, fewer estimation cycles and epochs.
    pub fn fast() -> PipelineConfig {
        PipelineConfig {
            workloads: WorkloadConfig {
                num_workloads: 8,
                vectors_per_workload: 64,
                ..Default::default()
            },
            signal_stats: SignalStatsConfig {
                cycles: 128,
                warmup: 8,
                ..Default::default()
            },
            train: TrainConfig {
                epochs: 80,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Errors from [`FusaPipeline::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Every node got the same label; no classifier can be trained.
    /// Usually means the threshold or workload suite needs adjusting.
    DegenerateLabels {
        /// Number of critical nodes found.
        critical: usize,
        /// Total number of nodes.
        total: usize,
    },
    /// The stratified split left no node for validation, so a trained
    /// model could not be evaluated. Happens when each class has a single
    /// node (a two-node design).
    EmptyValidation {
        /// Total number of nodes.
        total: usize,
    },
    /// The fault campaign itself failed (lost unit result, checkpoint
    /// I/O or a resume/checkpoint mismatch).
    Campaign(CampaignError),
    /// The campaign drained early on an interruption request; ground
    /// truth is partial and no model was trained. Resume the run with
    /// `--resume` to finish the remaining units.
    Interrupted {
        /// Units whose verdicts were completed (including checkpointed).
        completed: usize,
        /// Total scheduled units.
        total: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::DegenerateLabels { critical, total } => write!(
                f,
                "degenerate labels: {critical}/{total} nodes critical; adjust threshold or workloads"
            ),
            PipelineError::EmptyValidation { total } => write!(
                f,
                "no node left for validation: the split of {total} nodes put every node in training; the design is too small to evaluate a classifier"
            ),
            PipelineError::Campaign(error) => write!(f, "fault campaign failed: {error}"),
            PipelineError::Interrupted { completed, total } => write!(
                f,
                "campaign interrupted after {completed}/{total} units; resume with --resume"
            ),
        }
    }
}

impl Error for PipelineError {}

/// Everything the pipeline produced for one design.
pub struct FusaAnalysis {
    /// Module name of the analyzed design.
    pub design_name: String,
    /// The circuit graph.
    pub graph: CircuitGraph,
    /// The normalized adjacency `Â` (Eq. 2).
    pub adjacency: CsrMatrix,
    /// Raw (unstandardized) node features.
    pub raw_features: FeatureMatrix,
    /// Standardized node features fed to the models.
    pub features: Matrix,
    /// The fitted standardizer.
    pub standardizer: Standardizer,
    /// Ground-truth criticality scores and labels (Algorithm 1).
    pub dataset: CriticalityDataset,
    /// The 80/20 stratified node split.
    pub split: Split,
    /// The trained classifier.
    pub classifier: crate::model::GcnClassifier,
    /// Training trace.
    pub history: TrainHistory,
    /// Validation evaluation (accuracy, ROC, AUC, …).
    pub evaluation: EvaluationReport,
    /// Number of statically untestable fault sites excluded from the
    /// campaign (0 when exclusion is disabled).
    pub excluded_fault_sites: usize,
    /// Timing/throughput statistics of the fault-injection campaign —
    /// the dominant cost of the pipeline.
    pub campaign_stats: CampaignStats,
    /// Units the campaign quarantined after repeated panics (empty on a
    /// clean run). Their faults default to benign in the ground truth.
    pub campaign_quarantined: Vec<QuarantinedUnit>,
}

impl fmt::Debug for FusaAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusaAnalysis")
            .field("design_name", &self.design_name)
            .field("nodes", &self.graph.node_count())
            .field("accuracy", &self.evaluation.accuracy)
            .field("auc", &self.evaluation.auc)
            .finish()
    }
}

impl FusaAnalysis {
    /// Ground-truth labels, one per node.
    pub fn labels(&self) -> &[bool] {
        self.dataset.labels()
    }

    /// Builds a GNN explainer over the trained classifier.
    pub fn explainer(&self, config: ExplainerConfig) -> Explainer<'_> {
        Explainer::new(&self.classifier, &self.graph, &self.features, config)
    }

    /// Trains the §3.4 regression variant against the Algorithm-1
    /// criticality scores; returns the per-node predicted scores.
    pub fn train_regressor(&self, train: &TrainConfig) -> Vec<f64> {
        let model_config = GcnConfig {
            in_features: self.features.cols(),
            ..self.classifier.config().clone()
        };
        let (_history, predictions) = train_regressor(
            &self.adjacency,
            &self.features,
            self.dataset.scores(),
            &self.split,
            model_config,
            train,
        );
        predictions
    }

    /// Conformity between regression scores and classifier predictions:
    /// fraction of validation nodes where thresholding the regression
    /// score agrees with the classifier's predicted class (§4.2.2
    /// reports > 85%).
    pub fn regression_conformity(&self, predicted_scores: &[f64]) -> f64 {
        let threshold = self.dataset.threshold();
        if self.split.validation.is_empty() {
            return 0.0;
        }
        let agree = self
            .split
            .validation
            .iter()
            .filter(|&&i| (predicted_scores[i] >= threshold) == self.evaluation.predicted_labels[i])
            .count();
        agree as f64 / self.split.validation.len() as f64
    }
}

/// The end-to-end pipeline (Figure 2 of the paper).
///
/// # Example
///
/// ```no_run
/// use fusa_gcn::pipeline::{FusaPipeline, PipelineConfig};
/// use fusa_netlist::designs::sdram_ctrl;
///
/// # fn main() -> Result<(), fusa_gcn::pipeline::PipelineError> {
/// let analysis = FusaPipeline::new(PipelineConfig::default()).run(&sdram_ctrl())?;
/// println!("{} critical nodes", analysis.dataset.critical_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FusaPipeline {
    config: PipelineConfig,
    campaign_durability: DurabilityConfig,
}

impl FusaPipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: PipelineConfig) -> FusaPipeline {
        FusaPipeline {
            config,
            campaign_durability: DurabilityConfig::default(),
        }
    }

    /// Installs campaign durability options (checkpointing, resume,
    /// retry budget, interruption flag). `PipelineConfig` stays `Clone +
    /// PartialEq`-comparable; the durability knobs ride alongside it.
    pub fn with_campaign_durability(mut self, durability: DurabilityConfig) -> Self {
        self.campaign_durability = durability;
        self
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full flow on one design.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::DegenerateLabels`] if the fault campaign
    /// labels every node identically (no classification task exists),
    /// and [`PipelineError::EmptyValidation`] if the split leaves no node
    /// to validate on.
    pub fn run(&self, netlist: &Netlist) -> Result<FusaAnalysis, PipelineError> {
        let obs = fusa_obs::global();

        // 1. Graph generation (§3.1).
        let (graph, adjacency) = {
            let _span = obs.span("graph");
            let graph = CircuitGraph::from_netlist(netlist);
            let adjacency = normalized_adjacency(&graph);
            (graph, adjacency)
        };

        // 2. Feature extraction (§3.1), optionally extended with the
        // simulation-free structural channels.
        let (raw_features, standardizer, features) = {
            let _span = obs.span("features");
            let stats = SignalStats::estimate(netlist, &self.config.signal_stats);
            let raw_features = if self.config.structural_features {
                let profile = StructuralProfile::analyze(netlist);
                FeatureMatrix::extract_with_structure(netlist, &stats, &profile)
            } else {
                FeatureMatrix::extract(netlist, &stats)
            };
            let standardizer = Standardizer::fit(raw_features.matrix());
            let features = standardizer.transform(raw_features.matrix());
            (raw_features, standardizer, features)
        };

        // 3. Fault-injection ground truth (§3.2, Algorithm 1).
        // Statically untestable sites (constant or unobservable gates)
        // are dropped up front: no workload can expose them, so their
        // gates score 0 either way and the campaign shrinks for free.
        let (faults, excluded_fault_sites) = {
            let _span = obs.span("fault-list");
            let full_faults = FaultList::all_gate_outputs(netlist);
            if self.config.exclude_untestable_faults {
                let untestable = fusa_lint::untestable_stuck_at_sites(netlist);
                let total = full_faults.len();
                let kept = full_faults.exclude_untestable(&untestable);
                let excluded = total - kept.len();
                (kept, excluded)
            } else {
                (full_faults, 0)
            }
        };
        obs.add("pipeline.faults", faults.len() as u64);
        obs.add("pipeline.excluded_fault_sites", excluded_fault_sites as u64);
        let workloads = WorkloadSuite::generate(netlist, &self.config.workloads);
        // FaultCampaign::run opens its own top-level "campaign" span so
        // direct callers (`fusa faults`) get the same breakdown.
        let report = FaultCampaign::new(self.config.campaign)
            .with_durability(self.campaign_durability.clone())
            .run(netlist, &faults, &workloads)
            .map_err(PipelineError::Campaign)?;
        if report.interrupted() {
            let stats = report.stats();
            return Err(PipelineError::Interrupted {
                completed: stats.units - stats.units_skipped - stats.units_quarantined,
                total: stats.units,
            });
        }
        let campaign_stats = report.stats().clone();
        let campaign_quarantined = report.quarantined().to_vec();
        let dataset = report.into_dataset(self.config.criticality_threshold);

        let critical = dataset.critical_count();
        let total = dataset.labels().len();
        if critical == 0 || critical == total {
            return Err(PipelineError::DegenerateLabels { critical, total });
        }

        // 4. Split and train (§3.3).
        let split = Split::stratified(
            dataset.labels(),
            self.config.train_fraction,
            self.config.split_seed,
        );
        let model_config = GcnConfig {
            in_features: features.cols(),
            ..self.config.model.clone()
        };
        let (classifier, history, evaluation) = obs
            .time("train", || {
                try_train_classifier(
                    &adjacency,
                    &features,
                    dataset.labels(),
                    &split,
                    model_config,
                    &self.config.train,
                )
            })
            .map_err(|error| match error {
                TrainError::EmptyValidation { total } => PipelineError::EmptyValidation { total },
            })?;

        Ok(FusaAnalysis {
            design_name: netlist.name().to_string(),
            graph,
            adjacency,
            raw_features,
            features,
            standardizer,
            dataset,
            split,
            classifier,
            history,
            evaluation,
            excluded_fault_sites,
            campaign_stats,
            campaign_quarantined,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusa_netlist::designs::or1200_icfsm;

    fn fast_analysis() -> FusaAnalysis {
        FusaPipeline::new(PipelineConfig::fast())
            .run(&or1200_icfsm())
            .expect("pipeline runs on icfsm")
    }

    #[test]
    fn pipeline_produces_consistent_shapes() {
        let analysis = fast_analysis();
        let n = analysis.graph.node_count();
        assert_eq!(analysis.features.rows(), n);
        assert_eq!(analysis.dataset.labels().len(), n);
        assert_eq!(analysis.evaluation.predicted_labels.len(), n);
        assert_eq!(analysis.split.len(), n);
    }

    #[test]
    fn pipeline_learns_something() {
        let analysis = fast_analysis();
        // Much better than chance on a balanced-ish task.
        assert!(
            analysis.evaluation.accuracy > 0.6,
            "accuracy {}",
            analysis.evaluation.accuracy
        );
        assert!(
            analysis.evaluation.auc > 0.6,
            "auc {}",
            analysis.evaluation.auc
        );
    }

    #[test]
    fn untestable_sites_are_excluded_by_default() {
        let analysis = fast_analysis();
        assert!(
            analysis.excluded_fault_sites > 0,
            "icfsm has unobservable logic; some sites must be excluded"
        );
        assert!(analysis.excluded_fault_sites < 2 * analysis.graph.node_count());
        // Gates with excluded faults still get labels (score 0).
        assert_eq!(analysis.dataset.labels().len(), analysis.graph.node_count());
    }

    #[test]
    fn exclusion_can_be_disabled() {
        let config = PipelineConfig {
            exclude_untestable_faults: false,
            ..PipelineConfig::fast()
        };
        let analysis = FusaPipeline::new(config)
            .run(&or1200_icfsm())
            .expect("pipeline runs without exclusion");
        assert_eq!(analysis.excluded_fault_sites, 0);
    }

    #[test]
    fn structural_features_widen_the_model_input() {
        let config = PipelineConfig {
            structural_features: true,
            ..PipelineConfig::fast()
        };
        let analysis = FusaPipeline::new(config)
            .run(&or1200_icfsm())
            .expect("pipeline runs with structural features");
        let expected = fusa_graph::FEATURE_COUNT + fusa_graph::STRUCTURAL_FEATURE_COUNT;
        assert_eq!(analysis.features.cols(), expected);
        assert_eq!(analysis.classifier.config().in_features, expected);
        assert!(
            analysis.evaluation.accuracy > 0.6,
            "accuracy {}",
            analysis.evaluation.accuracy
        );
    }

    #[test]
    fn campaign_stats_are_populated() {
        let analysis = fast_analysis();
        let stats = &analysis.campaign_stats;
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.fault_cycles > 0);
        assert!(stats.fault_cycles_per_second() > 0.0);
        assert!(
            stats.gate_evals < stats.gate_evals_full,
            "cone restriction should save work on icfsm"
        );
    }

    #[test]
    fn labels_are_mixed() {
        let analysis = fast_analysis();
        let critical = analysis.dataset.critical_count();
        let total = analysis.dataset.labels().len();
        assert!(critical > 0 && critical < total, "{critical}/{total}");
    }

    #[test]
    fn regressor_conforms_with_classifier() {
        let analysis = fast_analysis();
        let scores = analysis.train_regressor(&TrainConfig {
            epochs: 80,
            ..Default::default()
        });
        let conformity = analysis.regression_conformity(&scores);
        assert!(conformity > 0.6, "conformity {conformity}");
    }

    #[test]
    fn explainer_runs_on_pipeline_output() {
        let analysis = fast_analysis();
        let explainer = analysis.explainer(ExplainerConfig { iterations: 10 });
        let node = analysis.split.validation[0];
        let explanation = explainer.explain(node);
        assert_eq!(explanation.feature_importance.len(), 5);
    }

    #[test]
    fn debug_format_mentions_design() {
        let analysis = fast_analysis();
        let text = format!("{analysis:?}");
        assert!(text.contains("or1200_icfsm"));
    }
}
