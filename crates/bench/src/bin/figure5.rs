//! E5/E6 — Figure 5: (a) feature importance scores for one node's
//! prediction; (b) globally aggregated feature rankings (Equation 3)
//! across all three designs.
//!
//! Usage:
//! `cargo run --release -p fusa-bench --bin figure5 [-- a|b] [-- --smoke]`

use fusa_bench::{bar, config_from_args, paper_designs, run_design, save_results};
use fusa_gcn::ExplainerConfig;
use fusa_graph::FEATURE_NAMES;
use std::fmt::Write as _;

fn main() {
    let config = config_from_args();
    let which: Option<String> = std::env::args().nth(1).filter(|a| a == "a" || a == "b");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let explainer_config = ExplainerConfig {
        iterations: if smoke { 25 } else { 100 },
    };

    if which.as_deref() != Some("b") {
        figure5a(&config, &explainer_config);
    }
    if which.as_deref() != Some("a") {
        figure5b(&config, &explainer_config, smoke);
    }
}

/// Figure 5(a): feature importance for one randomly selected SDRAM node.
fn figure5a(config: &fusa_gcn::pipeline::PipelineConfig, explainer_config: &ExplainerConfig) {
    let netlist = fusa_netlist::designs::sdram_ctrl();
    let run = run_design(&netlist, config);
    let explainer = run.analysis.explainer(explainer_config.clone());
    // Deterministic "random" pick: first validation node.
    let node = run.analysis.split.validation[0];
    let explanation = explainer.explain(node);

    println!(
        "Figure 5(a). Feature importance scores for node {} ({}) of {} — predicted {}.",
        node,
        netlist.gates()[node].name,
        netlist.name(),
        if explanation.predicted_class == 1 {
            "Critical"
        } else {
            "Non-critical"
        }
    );
    let mut csv = String::from("feature,score\n");
    for (name, score) in explanation.ranked_features() {
        println!("  {name:<36} {} {score:.2}", bar(score / 3.0));
        let _ = writeln!(csv, "{name},{score:.4}");
    }
    save_results("figure5a_node_importance.csv", &csv);
    println!();
}

/// Figure 5(b): Eq. 3 aggregated feature rankings over all designs.
fn figure5b(
    config: &fusa_gcn::pipeline::PipelineConfig,
    explainer_config: &ExplainerConfig,
    smoke: bool,
) {
    println!("Figure 5(b). Aggregated feature rankings for all three designs (Eq. 3).");
    let per_design_nodes = if smoke { 8 } else { 60 };
    let mut csv = String::from("design,feature,mean_rank,mean_score\n");
    let mut combined_ranks = vec![0.0; FEATURE_NAMES.len()];
    let mut designs_done = 0usize;

    for netlist in paper_designs() {
        let run = run_design(&netlist, config);
        let explainer = run.analysis.explainer(explainer_config.clone());
        // Explain a deterministic sample of validation nodes.
        let nodes: Vec<usize> = run
            .analysis
            .split
            .validation
            .iter()
            .copied()
            .take(per_design_nodes)
            .collect();
        let global = explainer.global_importance(&nodes);
        println!(
            "  --- {} ({} nodes explained) ---",
            netlist.name(),
            nodes.len()
        );
        for (feature, (&rank, &score)) in FEATURE_NAMES
            .iter()
            .zip(global.mean_ranks.iter().zip(&global.mean_scores))
        {
            println!("    {feature:<36} mean rank {rank:.2}  mean score {score:.2}");
            let _ = writeln!(csv, "{},{feature},{rank:.4},{score:.4}", netlist.name());
        }
        for (c, &r) in combined_ranks.iter_mut().zip(&global.mean_ranks) {
            *c += r;
        }
        designs_done += 1;
    }

    println!("  --- combined (lower rank = more important) ---");
    let mut combined: Vec<(usize, f64)> = combined_ranks
        .iter()
        .map(|&r| r / designs_done as f64)
        .enumerate()
        .collect();
    combined.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"));
    for (feature, rank) in &combined {
        println!("    {:<36} avg rank {rank:.2}", FEATURE_NAMES[*feature]);
        let _ = writeln!(csv, "combined,{},{rank:.4},", FEATURE_NAMES[*feature]);
    }
    save_results("figure5b_global_ranking.csv", &csv);
}
