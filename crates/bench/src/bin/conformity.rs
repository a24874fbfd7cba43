//! E7 — §4.2.2 claim: regression scores conform with the classifier on
//! more than 85% of nodes.
//!
//! Also reports the zero-simulation [`StaticRank`] baseline on the same
//! ground truth: the learned regressor must beat (or explain why it
//! ties) a ranking that needs no campaign and no training at all.
//!
//! Usage: `cargo run --release -p fusa-bench --bin conformity [-- --smoke]`

use fusa_bench::{config_from_args, paper_designs, run_design, save_results};
use fusa_gcn::{StaticRank, TrainConfig};
use fusa_neuro::metrics::{pearson, spearman};
use std::fmt::Write as _;

fn main() {
    let config = config_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("Regression/classification conformity (§4.2.2; paper reports > 85%).\n");

    let mut csv = String::from(
        "design,conformity,pearson_vs_truth,spearman_vs_truth,\
         static_combined_rho,static_testability_rho\n",
    );
    for netlist in paper_designs() {
        let run = run_design(&netlist, &config);
        let predicted_scores = run.analysis.train_regressor(&TrainConfig {
            epochs: if smoke { 60 } else { 200 },
            ..Default::default()
        });
        let conformity = run.analysis.regression_conformity(&predicted_scores);

        // Correlation of predicted scores against ground-truth scores on
        // validation nodes.
        let truth: Vec<f64> = run
            .analysis
            .split
            .validation
            .iter()
            .map(|&i| run.analysis.dataset.scores()[i])
            .collect();
        let predicted: Vec<f64> = run
            .analysis
            .split
            .validation
            .iter()
            .map(|&i| predicted_scores[i])
            .collect();
        let linear = pearson(&predicted, &truth);
        let rank = spearman(&predicted, &truth);

        // Static structural baseline against the full ground truth: no
        // split, because the ranking never saw any of it.
        let evaluation = StaticRank::compute(&netlist).evaluate(run.analysis.dataset.scores());
        let static_combined = evaluation.combined_rho;
        let static_testability = evaluation
            .channel_rho
            .iter()
            .find(|(name, _)| *name == "testability")
            .map(|&(_, rho)| rho)
            .unwrap_or(f64::NAN);

        println!(
            "  {:<14} conformity {:>5.1}%   pearson {:.3}   spearman {:.3}   static rank {:.3}",
            netlist.name(),
            conformity * 100.0,
            linear,
            rank,
            static_combined,
        );
        let _ = writeln!(
            csv,
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}",
            netlist.name(),
            conformity,
            linear,
            rank,
            static_combined,
            static_testability,
        );
    }
    save_results("conformity.csv", &csv);
}
