//! Training, evaluation and grid-search hyper-parameter optimization.

use crate::model::{self, GcnClassifier, GcnConfig, TrunkSnapshot};
use fusa_neuro::conv::{ConvStack, Workspace};
use fusa_neuro::loss::{mse_loss, nll_loss};
use fusa_neuro::metrics::{Confusion, RocCurve};
use fusa_neuro::optim::Adam;
use fusa_neuro::split::Split;
use fusa_neuro::{CsrMatrix, Matrix, RowPlan};
use std::error::Error;
use std::fmt;

/// Training hyper-parameters (§3.3.3 / §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Training epochs (full-graph gradient steps).
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 300,
            learning_rate: 0.02,
            weight_decay: 5e-4,
        }
    }
}

/// Per-epoch training trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainHistory {
    /// Training loss per epoch.
    pub train_loss: Vec<f64>,
    /// Validation accuracy per epoch (classifier) or negative validation
    /// loss (regressor).
    pub validation_metric: Vec<f64>,
    /// Epoch index of the best validation metric.
    pub best_epoch: usize,
}

/// Validation-set evaluation of a trained classifier.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// Validation accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Area under the validation ROC curve.
    pub auc: f64,
    /// The validation ROC curve (for Figure 4).
    pub roc: RocCurve,
    /// Confusion counts on the validation set.
    pub confusion: Confusion,
    /// Predicted label per node (whole graph, not just validation).
    pub predicted_labels: Vec<bool>,
    /// Critical-class probability per node (whole graph).
    pub critical_probability: Vec<f64>,
}

/// Why [`try_train_classifier`] trained nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The split holds no validation row, so a trained classifier could
    /// not be evaluated.
    EmptyValidation {
        /// Number of nodes.
        total: usize,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::EmptyValidation { total } => write!(
                f,
                "no node left for validation: the split of {total} nodes put every node in training"
            ),
        }
    }
}

impl Error for TrainError {}

/// Trains a [`GcnClassifier`] with masked NLL loss on `split.train` and
/// returns the trained model, its history and the validation evaluation.
///
/// # Errors
///
/// Returns [`TrainError::EmptyValidation`], before the first epoch, if
/// `split` has no validation row.
///
/// # Panics
///
/// Panics if `labels.len() != features.rows()` or the split references
/// out-of-range nodes.
pub fn try_train_classifier(
    adj: &CsrMatrix,
    features: &Matrix,
    labels: &[bool],
    split: &Split,
    model_config: GcnConfig,
    train_config: &TrainConfig,
) -> Result<(GcnClassifier, TrainHistory, EvaluationReport), TrainError> {
    if split.validation.is_empty() {
        return Err(TrainError::EmptyValidation {
            total: labels.len(),
        });
    }
    assert_eq!(labels.len(), features.rows(), "label count mismatch");
    let mut model = GcnClassifier::new(model_config);
    let target = Target::labels(labels);
    let history = fit(
        &mut model.stack,
        adj,
        features,
        split,
        train_config,
        &target,
    );
    let evaluation = evaluate_classifier(&model, adj, features, labels, split);
    Ok((model, history, evaluation))
}

/// [`try_train_classifier`] for callers that take the tuple.
///
/// # Panics
///
/// Panics with the [`TrainError`] message, before the first epoch, if
/// `split` has no validation row, and where [`try_train_classifier`]
/// panics.
pub fn train_classifier(
    adj: &CsrMatrix,
    features: &Matrix,
    labels: &[bool],
    split: &Split,
    model_config: GcnConfig,
    train_config: &TrainConfig,
) -> (GcnClassifier, TrainHistory, EvaluationReport) {
    try_train_classifier(adj, features, labels, split, model_config, train_config)
        .unwrap_or_else(|error| panic!("{error}"))
}

/// What a training run fits; the only difference between the heads.
enum Target<'a> {
    /// Classes (`0` Non-critical, `1` Critical), fitted by masked NLL and
    /// validated by accuracy.
    Labels(Vec<usize>),
    /// Criticality scores, fitted by masked MSE and validated by −MSE.
    Scores {
        scores: &'a [f64],
        /// The scores of the validation rows, in split order: the order
        /// in which the restricted eval pass yields those rows.
        validation: Vec<f64>,
        /// `0..validation.len()`, the MSE mask over those rows.
        positions: Vec<usize>,
    },
}

impl<'a> Target<'a> {
    fn labels(labels: &[bool]) -> Target<'a> {
        Target::Labels(labels.iter().map(|&l| usize::from(l)).collect())
    }

    fn scores(scores: &'a [f64], split: &Split) -> Target<'a> {
        Target::Scores {
            scores,
            validation: split.validation.iter().map(|&i| scores[i]).collect(),
            positions: (0..split.validation.len()).collect(),
        }
    }

    /// The progress stage, the epoch counter and the epoch event's
    /// validation field.
    fn names(&self) -> (&'static str, &'static str, &'static str) {
        match self {
            Target::Labels(_) => ("train", "train.epochs", "val_accuracy"),
            Target::Scores { .. } => ("train-regressor", "train.regressor_epochs", "val_loss"),
        }
    }

    /// The masked loss over `train` and its gradient.
    fn loss(&self, output: &Matrix, train: &[usize]) -> (f64, Matrix) {
        match self {
            Target::Labels(classes) => nll_loss(output, classes, train),
            Target::Scores { scores, .. } => mse_loss(output, scores, train),
        }
    }

    /// The validation score, higher is better, from `output`, the rows of
    /// `validation` in split order; `0` without validation rows.
    fn score(&self, output: &Matrix, validation: &[usize]) -> f64 {
        match self {
            Target::Labels(classes) => {
                let correct = validation
                    .iter()
                    .zip(output.argmax_rows())
                    .filter(|&(&i, class)| class == classes[i])
                    .count();
                correct as f64 / validation.len().max(1) as f64
            }
            Target::Scores {
                validation,
                positions,
                ..
            } => -mse_loss(output, validation, positions).0,
        }
    }

    /// The epoch event's validation value: the accuracy, or the MSE.
    fn reported(&self, score: f64) -> f64 {
        match self {
            Target::Labels(_) => score,
            Target::Scores { .. } => -score,
        }
    }
}

/// The epochs of one training run of `stack` on `target`: the stack ends
/// with the parameters of its best validation epoch restored.
fn fit(
    stack: &mut ConvStack,
    adj: &CsrMatrix,
    features: &Matrix,
    split: &Split,
    train_config: &TrainConfig,
    target: &Target<'_>,
) -> TrainHistory {
    let obs = fusa_obs::global();
    let (stage, counter, field) = target.names();
    let mut optimizer =
        Adam::with_weight_decay(train_config.learning_rate, train_config.weight_decay);
    let mut history = TrainHistory::default();
    let mut best: Option<(f64, TrunkSnapshot)> = None;
    // Validation reads the output on validation nodes only, so its eval
    // pass computes, from the trunk, just the rows those outputs depend on.
    let validation_plan = stack.head_plan(adj, &split.validation);
    // Every graph-sized buffer of the run, sized by the first epoch.
    let mut workspace = Workspace::new(adj);
    let progress = fusa_obs::Progress::start(
        obs,
        stage,
        "epochs",
        train_config.epochs as u64,
        fusa_obs::ProgressConfig::default(),
    );

    obs.time("train.trunk", || stack.trunk(&mut workspace, features));
    for epoch in 0..train_config.epochs {
        let epoch_started = std::time::Instant::now();
        let (loss, grad) = obs.time("train.forward", || {
            target.loss(stack.forward_from_trunk(&mut workspace), &split.train)
        });
        obs.time("train.backward", || {
            for p in stack.params_mut() {
                p.zero_grad();
            }
            stack.backward_params(&mut workspace, &grad);
        });
        obs.time("train.optimizer", || {
            optimizer.step(&mut stack.params_mut())
        });
        // One trunk pass with the new parameters serves this epoch's
        // validation and the next epoch's forward pass, so it runs also
        // when there is nothing to validate.
        obs.time("train.trunk", || stack.trunk(&mut workspace, features));

        let score = obs.time("train.validation", || {
            let output = stack.infer_from_trunk(&mut workspace, &validation_plan);
            target.score(output, &split.validation)
        });
        history.train_loss.push(loss);
        history.validation_metric.push(score);
        if best.as_ref().map(|(b, _)| score > *b).unwrap_or(true) {
            history.best_epoch = history.validation_metric.len() - 1;
            best = Some((score, obs.time("train.snapshot", || model::snapshot(stack))));
        }
        obs.add(counter, 1);
        obs.observe("train.epoch_seconds", epoch_started.elapsed().as_secs_f64());
        obs.observe("train.loss", loss);
        progress.advance(1);
        progress.set_metric(loss);
        if obs.has_sink() {
            use fusa_obs::EventField::{F64, U64};
            obs.event(
                "epoch",
                &[
                    ("epoch", U64(epoch as u64)),
                    ("loss", F64(loss)),
                    (field, F64(target.reported(score))),
                    ("seconds", F64(epoch_started.elapsed().as_secs_f64())),
                ],
            );
        }
    }
    obs.gauge_set("train.best_epoch", history.best_epoch as f64);
    if let Some(&loss) = history.train_loss.last() {
        obs.gauge_set("train.final_loss", loss);
    }
    if let Some((_, snapshot)) = best {
        model::restore(stack, snapshot);
    }
    history
}

/// Evaluates a trained classifier on the validation nodes of `split`.
pub fn evaluate_classifier(
    model: &GcnClassifier,
    adj: &CsrMatrix,
    features: &Matrix,
    labels: &[bool],
    split: &Split,
) -> EvaluationReport {
    let critical_probability = model.predict_critical_probability(adj, features);
    let predicted_labels: Vec<bool> = critical_probability.iter().map(|&p| p >= 0.5).collect();

    let val_predicted: Vec<bool> = split
        .validation
        .iter()
        .map(|&i| predicted_labels[i])
        .collect();
    let val_actual: Vec<bool> = split.validation.iter().map(|&i| labels[i]).collect();
    let val_scores: Vec<f64> = split
        .validation
        .iter()
        .map(|&i| critical_probability[i])
        .collect();

    let confusion = Confusion::from_predictions(&val_predicted, &val_actual);
    let roc = RocCurve::compute(&val_scores, &val_actual);
    EvaluationReport {
        accuracy: confusion.accuracy(),
        auc: roc.auc(),
        roc,
        confusion,
        predicted_labels,
        critical_probability,
    }
}

/// Trains the §3.4 regressor, the classifier's convolutions with one
/// output and no log-softmax, against continuous criticality scores with
/// masked MSE. Returns its history and the predicted score of every node.
///
/// Scores are trained against the Algorithm-1 criticality fractions and
/// therefore live in `[0, 1]` (predictions are not clamped, matching the
/// paper's plain regression head).
///
/// # Panics
///
/// Panics if `scores.len() != features.rows()` or `model_config.hidden`
/// is empty.
pub fn train_regressor(
    adj: &CsrMatrix,
    features: &Matrix,
    scores: &[f64],
    split: &Split,
    model_config: GcnConfig,
    train_config: &TrainConfig,
) -> (TrainHistory, Vec<f64>) {
    assert_eq!(scores.len(), features.rows(), "score count mismatch");
    let mut stack = model::conv_stack(&model_config, 1, false);
    let target = Target::scores(scores, split);
    let history = fit(&mut stack, adj, features, split, train_config, &target);
    let predictions = model::infer_once(&stack, adj, features, &RowPlan::all());
    (history, predictions.as_slice().to_vec())
}

/// Grid-search hyper-parameter optimization (§3.3.2): sweeps layer
/// counts, widths and dropout, training each candidate and ranking by
/// validation accuracy.
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Candidate hidden-layer stacks.
    pub hidden_candidates: Vec<Vec<usize>>,
    /// Candidate dropout probabilities.
    pub dropout_candidates: Vec<f64>,
    /// Candidate learning rates.
    pub learning_rates: Vec<f64>,
    /// Epochs per candidate (shorter than final training).
    pub epochs: usize,
    /// Seed for model initialization.
    pub seed: u64,
}

impl Default for GridSearch {
    fn default() -> Self {
        GridSearch {
            hidden_candidates: vec![vec![16], vec![16, 32], vec![16, 32, 64], vec![32, 64, 128]],
            dropout_candidates: vec![0.1, 0.3, 0.5],
            learning_rates: vec![0.01, 0.005],
            epochs: 60,
            seed: 0x9219,
        }
    }
}

/// One grid-search trial result.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSearchResult {
    /// Hidden widths of the trial.
    pub hidden: Vec<usize>,
    /// Dropout of the trial.
    pub dropout: f64,
    /// Learning rate of the trial.
    pub learning_rate: f64,
    /// Best validation accuracy reached.
    pub validation_accuracy: f64,
}

impl GridSearch {
    /// Runs the sweep; returns all trial results sorted best-first.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::EmptyValidation`], before any training, if
    /// `split` has no validation row.
    pub fn run(
        &self,
        adj: &CsrMatrix,
        features: &Matrix,
        labels: &[bool],
        split: &Split,
    ) -> Result<Vec<GridSearchResult>, TrainError> {
        let mut results = Vec::new();
        for hidden in &self.hidden_candidates {
            for &dropout in &self.dropout_candidates {
                for &learning_rate in &self.learning_rates {
                    let model_config = GcnConfig {
                        in_features: features.cols(),
                        hidden: hidden.clone(),
                        dropout,
                        seed: self.seed,
                    };
                    let train_config = TrainConfig {
                        epochs: self.epochs,
                        learning_rate,
                        ..Default::default()
                    };
                    let (_, history, _) = try_train_classifier(
                        adj,
                        features,
                        labels,
                        split,
                        model_config,
                        &train_config,
                    )?;
                    let best = history
                        .validation_metric
                        .iter()
                        .cloned()
                        .fold(0.0, f64::max);
                    results.push(GridSearchResult {
                        hidden: hidden.clone(),
                        dropout,
                        learning_rate,
                        validation_accuracy: best,
                    });
                }
            }
        }
        results.sort_by(|a, b| {
            b.validation_accuracy
                .partial_cmp(&a.validation_accuracy)
                .expect("no NaN accuracies")
        });
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NUM_CLASSES;
    use fusa_graph::{normalized_adjacency, CircuitGraph};
    use fusa_neuro::metrics::accuracy;

    /// A synthetic two-community graph task where the label depends on
    /// the neighbourhood: nodes in a clique of "critical" nodes are
    /// critical. Feature-only models cannot solve it; a GCN can.
    fn community_task() -> (CsrMatrix, Matrix, Vec<bool>) {
        // 2 communities of 20 nodes each; identical node features but
        // distinct connectivity.
        let n = 40;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, 1.0));
        }
        let edge = |a: usize, b: usize, t: &mut Vec<(usize, usize, f64)>| {
            t.push((a, b, 0.3));
            t.push((b, a, 0.3));
        };
        for i in 0..20 {
            for j in (i + 1)..20 {
                if (i + j) % 5 == 0 {
                    edge(i, j, &mut triplets);
                }
            }
        }
        for i in 20..40 {
            for j in (i + 1)..40 {
                if (i + j) % 3 == 0 {
                    edge(i, j, &mut triplets);
                }
            }
        }
        let adj = CsrMatrix::from_triplets(n, n, &triplets);
        // Feature: a noisy scalar that weakly indicates community.
        let mut rows = Vec::new();
        for i in 0..n {
            let noise = ((i * 2654435761) % 97) as f64 / 97.0 - 0.5;
            let hint = if i < 20 { 0.2 } else { -0.2 };
            rows.push(vec![hint + noise, 1.0]);
        }
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Matrix::from_rows(&row_refs);
        let labels: Vec<bool> = (0..n).map(|i| i < 20).collect();
        (adj, x, labels)
    }

    fn tiny_train_config() -> TrainConfig {
        TrainConfig {
            epochs: 120,
            learning_rate: 0.02,
            weight_decay: 1e-4,
        }
    }

    fn tiny_model_config() -> GcnConfig {
        GcnConfig {
            in_features: 2,
            hidden: vec![8, 8],
            dropout: 0.1,
            seed: 3,
        }
    }

    #[test]
    fn classifier_learns_community_structure() {
        let (adj, x, labels) = community_task();
        let split = Split::stratified(&labels, 0.7, 5);
        let (_model, history, eval) = try_train_classifier(
            &adj,
            &x,
            &labels,
            &split,
            tiny_model_config(),
            &tiny_train_config(),
        )
        .unwrap();
        assert!(
            eval.accuracy >= 0.8,
            "GCN should solve the community task, got {}",
            eval.accuracy
        );
        assert!(eval.auc >= 0.8, "AUC {}", eval.auc);
        assert!(history.train_loss[0] > *history.train_loss.last().unwrap());
    }

    #[test]
    fn loss_decreases_during_training() {
        let (adj, x, labels) = community_task();
        let split = Split::stratified(&labels, 0.7, 5);
        let (_, history, _) = try_train_classifier(
            &adj,
            &x,
            &labels,
            &split,
            tiny_model_config(),
            &tiny_train_config(),
        )
        .unwrap();
        let early: f64 = history.train_loss[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = history.train_loss[history.train_loss.len() - 10..]
            .iter()
            .sum::<f64>()
            / 10.0;
        assert!(late < early * 0.8, "early {early}, late {late}");
    }

    #[test]
    fn training_returns_best_epoch_weights() {
        let (adj, x, labels) = community_task();
        let split = Split::stratified(&labels, 0.7, 5);
        let (model, history, eval) = try_train_classifier(
            &adj,
            &x,
            &labels,
            &split,
            tiny_model_config(),
            &tiny_train_config(),
        )
        .unwrap();
        let best_metric = history.validation_metric[history.best_epoch];
        // The returned model's evaluation matches the best epoch metric.
        let val_preds: Vec<bool> = split
            .validation
            .iter()
            .map(|&i| eval.predicted_labels[i])
            .collect();
        let val_actual: Vec<bool> = split.validation.iter().map(|&i| labels[i]).collect();
        assert!((accuracy(&val_preds, &val_actual) - best_metric).abs() < 1e-9);
        let _ = model;
    }

    #[test]
    fn validation_rows_never_change_training() {
        // The trunk pass after each optimizer step feeds validation and
        // the next forward pass alike: without validation rows, both
        // heads' losses must be the same bits. The classifier runs its
        // epochs alone, as its evaluation reads validation rows.
        let (adj, x, labels) = community_task();
        let scores: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
        let split = Split::stratified(&labels, 0.7, 5);
        let unvalidated = Split {
            train: split.train.clone(),
            validation: Vec::new(),
        };
        let config = TrainConfig {
            epochs: 12,
            ..tiny_train_config()
        };
        let bits = |history: TrainHistory| -> Vec<u64> {
            history.train_loss.iter().map(|v| v.to_bits()).collect()
        };
        let classifier = |split: &Split| {
            let mut stack = model::conv_stack(&tiny_model_config(), NUM_CLASSES, true);
            bits(fit(
                &mut stack,
                &adj,
                &x,
                split,
                &config,
                &Target::labels(&labels),
            ))
        };
        let regressor = |split: &Split| {
            let (history, _) =
                train_regressor(&adj, &x, &scores, split, tiny_model_config(), &config);
            bits(history)
        };
        assert_eq!(classifier(&split), classifier(&unvalidated));
        assert_eq!(regressor(&split), regressor(&unvalidated));
    }

    #[test]
    fn a_split_without_validation_rows_is_an_error_before_training() {
        let (adj, x, labels) = community_task();
        let split = Split {
            train: (0..labels.len()).collect(),
            validation: Vec::new(),
        };
        let trained = try_train_classifier(
            &adj,
            &x,
            &labels,
            &split,
            tiny_model_config(),
            &tiny_train_config(),
        );
        assert_eq!(
            trained.err(),
            Some(TrainError::EmptyValidation { total: 40 })
        );
    }

    #[test]
    fn regressor_fits_continuous_scores() {
        let (adj, x, labels) = community_task();
        let scores: Vec<f64> = labels.iter().map(|&l| if l { 0.8 } else { 0.2 }).collect();
        let split = Split::stratified(&labels, 0.7, 5);
        let (_, predictions) = train_regressor(
            &adj,
            &x,
            &scores,
            &split,
            tiny_model_config(),
            &tiny_train_config(),
        );
        assert_eq!(predictions.len(), scores.len());
        let mse: f64 = split
            .validation
            .iter()
            .map(|&i| (predictions[i] - scores[i]).powi(2))
            .sum::<f64>()
            / split.validation.len() as f64;
        assert!(mse < 0.05, "validation MSE {mse}");
    }

    #[test]
    fn grid_search_ranks_candidates() {
        let (adj, x, labels) = community_task();
        let split = Split::stratified(&labels, 0.7, 5);
        let grid = GridSearch {
            hidden_candidates: vec![vec![4], vec![8, 8]],
            dropout_candidates: vec![0.0, 0.3],
            learning_rates: vec![0.02],
            epochs: 40,
            seed: 1,
        };
        let results = grid.run(&adj, &x, &labels, &split).unwrap();
        assert_eq!(results.len(), 4);
        for pair in results.windows(2) {
            assert!(pair[0].validation_accuracy >= pair[1].validation_accuracy);
        }
    }

    #[test]
    fn evaluation_on_real_design_graph_has_sane_shapes() {
        let netlist = fusa_netlist::designs::or1200_icfsm();
        let graph = CircuitGraph::from_netlist(&netlist);
        let adj = normalized_adjacency(&graph);
        let n = graph.node_count();
        // Fake labels: degree-based (a structure-derived rule the GCN can
        // pick up quickly).
        let labels: Vec<bool> = (0..n).map(|i| graph.degree(i) >= 4).collect();
        let x = Matrix::filled(n, 2, 1.0);
        let split = Split::stratified(&labels, 0.8, 2);
        let (_, _, eval) = try_train_classifier(
            &adj,
            &x,
            &labels,
            &split,
            GcnConfig {
                in_features: 2,
                hidden: vec![8],
                dropout: 0.0,
                seed: 7,
            },
            &TrainConfig {
                epochs: 30,
                ..tiny_train_config()
            },
        )
        .unwrap();
        assert_eq!(eval.predicted_labels.len(), n);
        assert_eq!(eval.critical_probability.len(), n);
        assert!(eval.accuracy > 0.5);
    }
}
