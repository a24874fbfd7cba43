//! End-to-end integration tests: the paper's headline claims on a real
//! (reduced-cost) run of the full pipeline.

use fusa::baselines::all_baselines;
use fusa::gcn::pipeline::{FusaPipeline, PipelineConfig};
use fusa::gcn::{ExplainerConfig, TrainConfig};
use fusa::netlist::designs::or1200_icfsm;
use fusa::neuro::metrics::Confusion;

fn analysis() -> fusa::gcn::pipeline::FusaAnalysis {
    FusaPipeline::new(PipelineConfig::fast())
        .run(&or1200_icfsm())
        .expect("pipeline runs on or1200_icfsm")
}

#[test]
fn gcn_classifies_critical_nodes_well_above_chance() {
    let analysis = analysis();
    assert!(
        analysis.evaluation.accuracy >= 0.7,
        "accuracy {}",
        analysis.evaluation.accuracy
    );
    assert!(
        analysis.evaluation.auc >= 0.55,
        "auc {}",
        analysis.evaluation.auc
    );
}

#[test]
fn gcn_is_competitive_with_feature_only_baselines() {
    // Figure 3's claim, in soft form robust to the fast config: the GCN
    // must not lose badly to any feature-only model on the same split.
    let analysis = analysis();
    let labels = analysis.labels();
    for mut baseline in all_baselines(7) {
        baseline.fit(&analysis.features, labels, &analysis.split.train);
        let probabilities = baseline.predict_proba(&analysis.features);
        let val_predicted: Vec<bool> = analysis
            .split
            .validation
            .iter()
            .map(|&i| probabilities[i] >= 0.5)
            .collect();
        let val_actual: Vec<bool> = analysis
            .split
            .validation
            .iter()
            .map(|&i| labels[i])
            .collect();
        let baseline_accuracy = Confusion::from_predictions(&val_predicted, &val_actual).accuracy();
        assert!(
            analysis.evaluation.accuracy >= baseline_accuracy - 0.08,
            "{} at {baseline_accuracy} dominates GCN at {}",
            baseline.name(),
            analysis.evaluation.accuracy
        );
    }
}

#[test]
fn regression_scores_conform_with_classification() {
    // §4.2.2: the regressor's thresholded scores agree with the
    // classifier on most validation nodes.
    let analysis = analysis();
    let predicted = analysis.train_regressor(&TrainConfig {
        epochs: 100,
        ..Default::default()
    });
    let conformity = analysis.regression_conformity(&predicted);
    assert!(conformity >= 0.7, "conformity {conformity}");
    // The unconstrained regression head may extrapolate slightly outside
    // [0, 1], but must stay finite and centred on the score range.
    assert!(predicted.iter().all(|s| s.is_finite()));
    let mean: f64 = predicted.iter().sum::<f64>() / predicted.len() as f64;
    assert!((0.0..=1.0).contains(&mean), "mean prediction {mean}");
}

#[test]
fn explanations_cover_every_feature_and_respect_locality() {
    let analysis = analysis();
    let explainer = analysis.explainer(ExplainerConfig { iterations: 25 });
    let node = analysis.split.validation[1];
    let explanation = explainer.explain(node);
    assert_eq!(
        explanation.feature_importance.len(),
        fusa::graph::FEATURE_COUNT
    );
    assert!(explanation
        .feature_mask
        .iter()
        .all(|&m| (0.0..=1.0).contains(&m)));
    // Edges come from the node's computation neighbourhood.
    let hops = analysis.classifier.config().hidden.len() + 1;
    let hood: std::collections::HashSet<usize> = analysis
        .graph
        .k_hop_neighborhood(node, hops)
        .into_iter()
        .collect();
    for &(a, b, _) in &explanation.edge_importance {
        assert!(hood.contains(&a) && hood.contains(&b));
    }
}

#[test]
fn pipeline_is_deterministic() {
    let a = analysis();
    let b = analysis();
    assert_eq!(a.dataset.scores(), b.dataset.scores());
    assert_eq!(a.evaluation.predicted_labels, b.evaluation.predicted_labels);
    assert!((a.evaluation.accuracy - b.evaluation.accuracy).abs() < 1e-12);
}

#[test]
fn trained_model_predictions_align_with_probabilities() {
    let analysis = analysis();
    let predictions = analysis
        .classifier
        .predict(&analysis.adjacency, &analysis.features);
    for (p, &probability) in predictions
        .iter()
        .zip(&analysis.evaluation.critical_probability)
    {
        assert_eq!(*p == 1, probability >= 0.5);
    }
}

#[test]
fn uart_design_works_end_to_end() {
    // The extra (beyond-paper) benchmark also flows through the full
    // pipeline.
    let analysis = FusaPipeline::new(PipelineConfig::fast())
        .run(&fusa::netlist::designs::uart_ctrl())
        .expect("pipeline runs on uart_ctrl");
    assert!(
        analysis.evaluation.accuracy > 0.6,
        "accuracy {}",
        analysis.evaluation.accuracy
    );
    let critical = analysis.dataset.critical_count();
    let total = analysis.dataset.labels().len();
    assert!(critical > 0 && critical < total, "{critical}/{total}");
}

#[test]
fn average_precision_beats_base_rate() {
    // The GCN's ranking should beat random ordering (AP = base rate).
    let analysis = analysis();
    let val_scores: Vec<f64> = analysis
        .split
        .validation
        .iter()
        .map(|&i| analysis.evaluation.critical_probability[i])
        .collect();
    let val_labels: Vec<bool> = analysis
        .split
        .validation
        .iter()
        .map(|&i| analysis.labels()[i])
        .collect();
    let base_rate = val_labels.iter().filter(|&&l| l).count() as f64 / val_labels.len() as f64;
    let ap = fusa::neuro::metrics::average_precision(&val_scores, &val_labels);
    assert!(ap > base_rate, "AP {ap} vs base rate {base_rate}");
}
