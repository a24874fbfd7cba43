//! Extension ablation: 1–4 GraphConv layers (the grid-search slice of
//! §3.3.2 along the depth axis).
//!
//! Usage: `cargo run --release -p fusa-bench --bin ablation_depth [-- --smoke]`

use fusa_bench::{config_from_args, paper_designs, save_results};
use fusa_gcn::pipeline::FusaPipeline;
use fusa_gcn::{try_train_classifier, GcnConfig};
use std::fmt::Write as _;

fn main() {
    let config = config_from_args();
    println!("Depth ablation: validation accuracy vs number of GraphConv layers.\n");

    let depth_candidates: Vec<Vec<usize>> = vec![
        vec![16],
        vec![16, 32],
        vec![16, 32, 64],
        vec![16, 32, 64, 64],
    ];

    let mut csv = String::from("design,hidden_layers,accuracy,auc\n");
    for netlist in paper_designs() {
        let analysis = FusaPipeline::new(config.clone())
            .run(&netlist)
            .expect("pipeline runs");
        println!("=== {} ===", netlist.name());
        for hidden in &depth_candidates {
            let (_, _, evaluation) = try_train_classifier(
                &analysis.adjacency,
                &analysis.features,
                analysis.labels(),
                &analysis.split,
                GcnConfig {
                    in_features: analysis.features.cols(),
                    hidden: hidden.clone(),
                    ..config.model.clone()
                },
                &config.train,
            )
            .expect("the pipeline's split validates");
            println!(
                "  {} conv layers (hidden {:?}): accuracy {:.2}%, AUC {:.3}",
                hidden.len() + 1,
                hidden,
                evaluation.accuracy * 100.0,
                evaluation.auc
            );
            let _ = writeln!(
                csv,
                "{},{},{:.4},{:.4}",
                netlist.name(),
                hidden.len() + 1,
                evaluation.accuracy,
                evaluation.auc
            );
        }
        println!();
    }
    save_results("ablation_depth.csv", &csv);
}
