//! Transient-fault (SEU) vulnerability analysis: which flip-flops of the
//! SDRAM controller corrupt outputs when a particle flips them once?
//!
//! ```sh
//! cargo run --release --example seu_analysis
//! ```

use fusa::faultsim::SeuCampaign;
use fusa::logicsim::{WorkloadConfig, WorkloadSuite};
use fusa::netlist::designs::sdram_ctrl;

fn main() {
    let design = sdram_ctrl();
    let workloads = WorkloadSuite::generate(
        &design,
        &WorkloadConfig {
            num_workloads: 8,
            vectors_per_workload: 128,
            ..Default::default()
        },
    );

    let report = SeuCampaign::new().run(&design, &workloads);
    println!(
        "{}: {} flip-flops, {} injection experiments each",
        design.name(),
        report.flops.len(),
        report.experiments
    );
    println!(
        "mean corruption rate {:.3} (architectural vulnerability proxy)\n",
        report.mean_corruption_rate()
    );

    println!("most SEU-vulnerable registers:");
    for (gate, rate) in report.ranking().into_iter().take(10) {
        println!("  {:<24} corruption rate {rate:.2}", design.gate(gate).name);
    }

    let masked = report
        .corruption_rate
        .iter()
        .zip(&report.latent_rate)
        .filter(|(&c, &l)| c == 0.0 && l == 0.0)
        .count();
    println!(
        "\n{} of {} registers fully masked every upset — no hardening needed there",
        masked,
        report.flops.len()
    );
}
