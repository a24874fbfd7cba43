//! Criticality score regression (§3.4): beyond the binary
//! critical/non-critical label, predict *how* critical each node is, and
//! check conformity with the classifier (§4.2.2 reports > 85%).
//!
//! ```sh
//! cargo run --release --example criticality_scores
//! ```

use fusa::gcn::pipeline::{FusaPipeline, PipelineConfig};
use fusa::gcn::TrainConfig;
use fusa::netlist::designs::or1200_if;
use fusa::neuro::metrics::{pearson, spearman};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = or1200_if();
    let analysis = FusaPipeline::new(PipelineConfig::default()).run(&design)?;

    let predicted = analysis.train_regressor(&TrainConfig::default());

    // Compare predicted scores to fault-injection ground truth on the
    // held-out nodes.
    let truth: Vec<f64> = analysis
        .split
        .validation
        .iter()
        .map(|&i| analysis.dataset.scores()[i])
        .collect();
    let scores: Vec<f64> = analysis
        .split
        .validation
        .iter()
        .map(|&i| predicted[i])
        .collect();

    println!(
        "validation nodes: {} | pearson {:.3} | spearman {:.3}",
        truth.len(),
        pearson(&scores, &truth),
        spearman(&scores, &truth),
    );
    println!(
        "conformity with classifier at th=0.5: {:.1}%",
        analysis.regression_conformity(&predicted) * 100.0,
    );

    // Show a few nodes where the graded score adds information the
    // binary label cannot: both critical, different severity.
    let mut critical: Vec<(usize, f64)> = analysis
        .split
        .validation
        .iter()
        .filter(|&&i| analysis.labels()[i])
        .map(|&i| (i, predicted[i]))
        .collect();
    critical.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    println!("\ngraded criticality among CRITICAL validation nodes:");
    for (node, score) in critical.iter().take(5) {
        println!(
            "  {:<20} predicted {:.2} (truth {:.2})",
            design.gates()[*node].name,
            score,
            analysis.dataset.scores()[*node],
        );
    }
    if let (Some(first), Some(last)) = (critical.first(), critical.last()) {
        println!(
            "\nfortification priority: {} ({:.2}) before {} ({:.2})",
            design.gates()[first.0].name,
            first.1,
            design.gates()[last.0].name,
            last.1,
        );
    }
    Ok(())
}
