//! §3.3.2 — grid-search hyper-parameter optimization over layer stacks,
//! dropout and learning rate.
//!
//! Usage: `cargo run --release -p fusa-bench --bin grid_search [-- --smoke]`

use fusa_bench::{config_from_args, save_results};
use fusa_gcn::pipeline::FusaPipeline;
use fusa_gcn::GridSearch;
use std::fmt::Write as _;

fn main() {
    let config = config_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    // The paper tunes on one design; we use the SDRAM controller.
    let netlist = fusa_netlist::designs::sdram_ctrl();
    let analysis = FusaPipeline::new(config)
        .run(&netlist)
        .expect("pipeline runs");

    let grid = GridSearch {
        epochs: if smoke { 25 } else { 60 },
        ..Default::default()
    };
    println!(
        "Grid search on {} ({} candidates)…\n",
        netlist.name(),
        grid.hidden_candidates.len() * grid.dropout_candidates.len() * grid.learning_rates.len()
    );
    let results = grid
        .run(
            &analysis.adjacency,
            &analysis.features,
            analysis.labels(),
            &analysis.split,
        )
        .expect("the pipeline's split validates");

    let mut csv = String::from("hidden,dropout,learning_rate,validation_accuracy\n");
    println!(
        "{:<18} {:>8} {:>6} {:>10}",
        "hidden", "dropout", "lr", "val acc"
    );
    for result in &results {
        println!(
            "{:<18} {:>8.2} {:>6.3} {:>9.2}%",
            format!("{:?}", result.hidden),
            result.dropout,
            result.learning_rate,
            result.validation_accuracy * 100.0
        );
        let _ = writeln!(
            csv,
            "{:?},{},{},{:.4}",
            result.hidden, result.dropout, result.learning_rate, result.validation_accuracy
        );
    }
    println!(
        "\nbest: hidden {:?}, dropout {}, lr {} ({:.2}%)",
        results[0].hidden,
        results[0].dropout,
        results[0].learning_rate,
        results[0].validation_accuracy * 100.0
    );
    save_results("grid_search.csv", &csv);
}
