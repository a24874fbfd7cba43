//! E4 — Table 2: sampled nodes with criticality classification, feature
//! importance scores and predicted criticality scores.
//!
//! Usage: `cargo run --release -p fusa-bench --bin table2 [-- --smoke]`

use fusa_bench::{config_from_args, paper_designs, run_design, save_results};
use fusa_gcn::{ExplainerConfig, TrainConfig};
use std::fmt::Write as _;

fn main() {
    let config = config_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let nodes_per_design = 4usize;

    println!(
        "Table 2. Critical node classification with feature importance and criticality scores.\n"
    );
    println!(
        "{:<14} {:<16} {:<14} {:>6} {:>6} {:>6} {:>6} {:>6}  {:>6}",
        "Design", "Node", "Class", "conn", "P(0)", "P(1)", "trans", "inv", "score"
    );

    let mut csv = String::from(
        "design,node,classification,imp_connections,imp_p0,imp_p1,imp_transition,imp_inverting,criticality_score\n",
    );
    for netlist in paper_designs() {
        let run = run_design(&netlist, &config);
        let explainer = run.analysis.explainer(ExplainerConfig {
            iterations: if smoke { 20 } else { 100 },
        });
        let scores = run.analysis.train_regressor(&TrainConfig {
            epochs: if smoke { 60 } else { 200 },
            ..Default::default()
        });

        // Sample validation nodes: alternate predicted classes so the
        // table shows both, like the paper's selection.
        let mut picked = Vec::new();
        let mut want_critical = false;
        for &node in &run.analysis.split.validation {
            if picked.len() >= nodes_per_design {
                break;
            }
            let is_critical = run.analysis.evaluation.predicted_labels[node];
            if is_critical == want_critical {
                picked.push(node);
                want_critical = !want_critical;
            }
        }
        while picked.len() < nodes_per_design {
            let extra = run.analysis.split.validation[picked.len()];
            if !picked.contains(&extra) {
                picked.push(extra);
            }
        }

        for node in picked {
            let explanation = explainer.explain(node);
            let class = if explanation.predicted_class == 1 {
                "Critical"
            } else {
                "Non-critical"
            };
            let imp = &explanation.feature_importance;
            println!(
                "{:<14} {:<16} {:<14} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>6.2}  {:>6.2}",
                netlist.name(),
                netlist.gates()[node].name,
                class,
                imp[0],
                imp[1],
                imp[2],
                imp[3],
                imp[4],
                scores[node]
            );
            let _ = writeln!(
                csv,
                "{},{},{},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                netlist.name(),
                netlist.gates()[node].name,
                class,
                imp[0],
                imp[1],
                imp[2],
                imp[3],
                imp[4],
                scores[node]
            );
        }
    }
    save_results("table2_nodes.csv", &csv);
    println!("\n(score >= 0.5 should match a Critical classification — see the conformity binary)");
}
