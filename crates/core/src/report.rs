//! Human-readable and CSV reports over a completed [`FusaAnalysis`].
//!
//! The paper's framework exists to hand a safety engineer a ranked,
//! explained criticality landscape; this module renders exactly that:
//! a summary header, the confusion matrix, the top predicted-critical
//! nodes with ground truth, and a per-node CSV suitable for downstream
//! tooling.

use crate::pipeline::FusaAnalysis;
use std::fmt::Write as _;

/// Number of top-ranked nodes the text report lists.
const TOP_NODES: usize = 15;

/// Options for [`render_text_report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportOptions {
    /// Include the campaign wall-time / throughput line. Disable when the
    /// text feeds a reproducibility digest: every other line of the
    /// report is deterministic for a seeded run, timing never is.
    pub include_stats: bool,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            include_stats: true,
        }
    }
}

/// Renders a complete text report for one analyzed design.
///
/// # Example
///
/// ```no_run
/// use fusa_gcn::pipeline::{FusaPipeline, PipelineConfig};
/// use fusa_gcn::report::{render_text_report, ReportOptions};
/// use fusa_netlist::designs::or1200_icfsm;
///
/// # fn main() -> Result<(), fusa_gcn::pipeline::PipelineError> {
/// let analysis = FusaPipeline::new(PipelineConfig::fast()).run(&or1200_icfsm())?;
/// println!("{}", render_text_report(&analysis, &or1200_icfsm(), &ReportOptions::default()));
/// # Ok(())
/// # }
/// ```
pub fn render_text_report(
    analysis: &FusaAnalysis,
    netlist: &fusa_netlist::Netlist,
    options: &ReportOptions,
) -> String {
    let mut out = String::new();
    let evaluation = &analysis.evaluation;
    let confusion = &evaluation.confusion;

    let _ = writeln!(
        out,
        "=== Fault criticality report: {} ===",
        analysis.design_name
    );
    let _ = writeln!(
        out,
        "nodes {} | edges {} | critical {} ({:.1}%) | workloads {}",
        analysis.graph.node_count(),
        analysis.graph.edge_count(),
        analysis.dataset.critical_count(),
        analysis.dataset.critical_fraction() * 100.0,
        analysis.dataset.workload_count(),
    );
    let _ = writeln!(
        out,
        "split: {} train / {} validation (stratified)",
        analysis.split.train.len(),
        analysis.split.validation.len(),
    );
    if analysis.excluded_fault_sites > 0 {
        let _ = writeln!(
            out,
            "fault list: {} statically untestable site(s) excluded by lint",
            analysis.excluded_fault_sites,
        );
    }
    let stats = &analysis.campaign_stats;
    if options.include_stats && stats.wall_seconds > 0.0 {
        let _ = writeln!(
            out,
            "campaign: {:.0} fault-cycles/s ({:.2}s wall, {} threads, {:.1}% gate-evals saved)",
            stats.fault_cycles_per_second(),
            stats.wall_seconds,
            stats.threads,
            stats.gate_evals_saved_fraction() * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "\nvalidation accuracy {:.2}% | AUC {:.3} | precision {:.3} | recall {:.3} | F1 {:.3}",
        evaluation.accuracy * 100.0,
        evaluation.auc,
        confusion.precision(),
        confusion.true_positive_rate(),
        confusion.f1(),
    );
    let _ = writeln!(
        out,
        "confusion: TP {} FP {} TN {} FN {}",
        confusion.true_positive,
        confusion.false_positive,
        confusion.true_negative,
        confusion.false_negative,
    );

    let mut ranked: Vec<(usize, f64)> = evaluation
        .critical_probability
        .iter()
        .copied()
        .enumerate()
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    let _ = writeln!(out, "\ntop predicted-critical nodes:");
    let _ = writeln!(
        out,
        "  {:<24} {:>10} {:>12} {:>8}",
        "node", "P(crit)", "truth score", "held-out"
    );
    for (node, probability) in ranked.into_iter().take(TOP_NODES) {
        let _ = writeln!(
            out,
            "  {:<24} {:>10.3} {:>12.2} {:>8}",
            netlist.gates()[node].name,
            probability,
            analysis.dataset.scores()[node],
            if analysis.split.validation.contains(&node) {
                "yes"
            } else {
                ""
            },
        );
    }
    out
}

/// Renders the full per-node prediction table as CSV:
/// `node,predicted_critical,critical_probability,truth_score,truth_label,partition`.
pub fn render_csv_report(analysis: &FusaAnalysis, netlist: &fusa_netlist::Netlist) -> String {
    let mut out = String::from(
        "node,predicted_critical,critical_probability,truth_score,truth_label,partition\n",
    );
    let in_validation: std::collections::HashSet<usize> =
        analysis.split.validation.iter().copied().collect();
    for (i, gate) in netlist.gates().iter().enumerate() {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.4},{},{}",
            gate.name,
            u8::from(analysis.evaluation.predicted_labels[i]),
            analysis.evaluation.critical_probability[i],
            analysis.dataset.scores()[i],
            u8::from(analysis.dataset.labels()[i]),
            if in_validation.contains(&i) {
                "validation"
            } else {
                "train"
            },
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FusaPipeline, PipelineConfig};
    use fusa_netlist::designs::or1200_icfsm;

    fn analysis_pair() -> (FusaAnalysis, fusa_netlist::Netlist) {
        let netlist = or1200_icfsm();
        let analysis = FusaPipeline::new(PipelineConfig::fast())
            .run(&netlist)
            .expect("pipeline runs");
        (analysis, netlist)
    }

    #[test]
    fn text_report_has_all_sections() {
        let (analysis, netlist) = analysis_pair();
        let text = render_text_report(&analysis, &netlist, &ReportOptions::default());
        assert!(text.contains("Fault criticality report: or1200_icfsm"));
        assert!(text.contains("validation accuracy"));
        assert!(text.contains("fault-cycles/s"));
        assert!(text.contains("confusion:"));
        assert!(text.contains("top predicted-critical nodes"));
    }

    #[test]
    fn csv_has_row_per_node_and_partitions() {
        let (analysis, netlist) = analysis_pair();
        let csv = render_csv_report(&analysis, &netlist);
        assert_eq!(csv.lines().count(), 1 + netlist.gate_count());
        assert!(csv.contains(",validation"));
        assert!(csv.contains(",train"));
    }
}
