//! Extension: transient single-event-upset vulnerability vs stuck-at
//! criticality. Ranks flip-flops by SEU corruption rate and correlates
//! against the Algorithm-1 stuck-at criticality of the same nodes —
//! showing the stuck-at-trained view transfers (or does not) to the
//! transient-fault threat model.
//!
//! Usage: `cargo run --release -p fusa-bench --bin seu [-- --smoke]`

use fusa_bench::{config_from_args, paper_designs, save_results};
use fusa_faultsim::{FaultCampaign, FaultList, SeuCampaign};
use fusa_logicsim::WorkloadSuite;
use fusa_neuro::metrics::{pearson, spearman};
use std::fmt::Write as _;

fn main() {
    let config = config_from_args();
    println!("SEU (transient) vulnerability vs stuck-at criticality, per design.\n");

    let mut csv = String::from("design,flop,seu_corruption_rate,stuckat_score\n");
    for netlist in paper_designs() {
        let workloads = WorkloadSuite::generate(&netlist, &config.workloads);

        // Transient campaign over all flops.
        let seu_report = SeuCampaign::new().run(&netlist, &workloads);

        // Stuck-at criticality via Algorithm 1 (same settings as the
        // pipeline).
        let faults = FaultList::all_gate_outputs(&netlist);
        let dataset = FaultCampaign::new(config.campaign)
            .run(&netlist, &faults, &workloads)
            .expect("campaign runs")
            .into_dataset(config.criticality_threshold);

        let stuckat: Vec<f64> = seu_report.flops.iter().map(|&g| dataset.score(g)).collect();
        let r = pearson(&seu_report.corruption_rate, &stuckat);
        let rho = spearman(&seu_report.corruption_rate, &stuckat);
        println!(
            "=== {} ({} flops, {} experiments) ===",
            netlist.name(),
            seu_report.flops.len(),
            seu_report.experiments
        );
        println!(
            "  mean SEU corruption rate {:.3} | pearson vs stuck-at {:.3} | spearman {:.3}",
            seu_report.mean_corruption_rate(),
            r,
            rho
        );
        println!("  most SEU-vulnerable flops:");
        for (gate, rate) in seu_report.ranking().into_iter().take(5) {
            println!(
                "    {:<24} corruption {:.2}  (stuck-at score {:.2})",
                netlist.gate(gate).name,
                rate,
                dataset.score(gate)
            );
        }
        for (gate, (rate, score)) in seu_report
            .flops
            .iter()
            .zip(seu_report.corruption_rate.iter().zip(&stuckat))
        {
            let _ = writeln!(
                csv,
                "{},{},{:.4},{:.4}",
                netlist.name(),
                netlist.gate(*gate).name,
                rate,
                score
            );
        }
        println!();
    }
    save_results("seu_vs_stuckat.csv", &csv);
}
