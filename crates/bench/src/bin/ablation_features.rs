//! Extension ablation: drop each node feature, retrain, measure the
//! accuracy delta. Causally validates the Figure 5(b) importance
//! ranking.
//!
//! Usage: `cargo run --release -p fusa-bench --bin ablation_features [-- --smoke]`

use fusa_bench::{config_from_args, paper_designs, save_results};
use fusa_gcn::pipeline::FusaPipeline;
use fusa_gcn::{try_train_classifier, GcnConfig};
use fusa_graph::{FEATURE_COUNT, FEATURE_NAMES};
use fusa_neuro::Matrix;
use std::fmt::Write as _;

fn main() {
    let config = config_from_args();
    println!("Feature ablation: validation accuracy with each feature removed.\n");

    let mut csv = String::from("design,dropped_feature,accuracy,delta\n");
    for netlist in paper_designs() {
        let analysis = FusaPipeline::new(config.clone())
            .run(&netlist)
            .expect("pipeline runs");
        let full_accuracy = analysis.evaluation.accuracy;
        println!(
            "=== {} (full-feature accuracy {:.2}%) ===",
            netlist.name(),
            full_accuracy * 100.0
        );

        for (dropped, &feature_name) in FEATURE_NAMES.iter().enumerate().take(FEATURE_COUNT) {
            // Rebuild the feature matrix without column `dropped`.
            let source = &analysis.features;
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(source.rows());
            for r in 0..source.rows() {
                rows.push(
                    source
                        .row(r)
                        .iter()
                        .enumerate()
                        .filter(|(c, _)| *c != dropped)
                        .map(|(_, &v)| v)
                        .collect(),
                );
            }
            let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let reduced = Matrix::from_rows(&refs);

            let (_, _, evaluation) = try_train_classifier(
                &analysis.adjacency,
                &reduced,
                analysis.labels(),
                &analysis.split,
                GcnConfig {
                    in_features: FEATURE_COUNT - 1,
                    ..config.model.clone()
                },
                &config.train,
            )
            .expect("the pipeline's split validates");
            let delta = evaluation.accuracy - full_accuracy;
            println!(
                "  - {:<36} {:.2}% ({:+.2}%)",
                feature_name,
                evaluation.accuracy * 100.0,
                delta * 100.0
            );
            let _ = writeln!(
                csv,
                "{},{},{:.4},{:.4}",
                netlist.name(),
                feature_name,
                evaluation.accuracy,
                delta
            );
        }
        println!();
    }
    save_results("ablation_features.csv", &csv);
}
