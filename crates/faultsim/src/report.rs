//! Campaign reports: per-(fault, workload) outcome classification.

use crate::dataset::CriticalityDataset;
use crate::fault::FaultList;
use fusa_netlist::Netlist;
use std::fmt;

/// Outcome of one fault under one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOutcome {
    /// The fault changed at least one primary-output value — a functional
    /// error (the paper's "Dangerous" label).
    Dangerous,
    /// No output diverged, but register state differs at the end of the
    /// workload — the fault is latent and may surface later.
    Latent,
    /// The fault had no observable effect.
    Benign,
}

impl fmt::Display for FaultOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultOutcome::Dangerous => "Dangerous",
            FaultOutcome::Latent => "Latent",
            FaultOutcome::Benign => "Benign",
        };
        f.write_str(s)
    }
}

/// Results of one workload: `outcomes[i]` classifies `faults[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadReport {
    /// Name of the workload that was simulated.
    pub workload_name: String,
    /// Outcome per fault, aligned with the campaign's [`FaultList`].
    pub outcomes: Vec<FaultOutcome>,
    /// Cycle of first output divergence per fault (`None` if never).
    pub first_divergence: Vec<Option<u32>>,
}

impl WorkloadReport {
    /// Number of dangerous faults in this workload.
    pub fn dangerous_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|&&o| o == FaultOutcome::Dangerous)
            .count()
    }

    /// Fault coverage: fraction of faults classified dangerous.
    pub fn coverage(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.dangerous_count() as f64 / self.outcomes.len() as f64
    }
}

/// Timing and throughput statistics of one campaign run.
///
/// Stats are observability only: they never participate in outcome
/// equality (differential tests compare [`WorkloadReport`]s directly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// End-to-end wall time of [`crate::FaultCampaign::run`], seconds.
    pub wall_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
    /// `(workload × fault-chunk)` units in the full campaign.
    pub units: usize,
    /// Units owned by this process: equal to [`units`](Self::units) for
    /// a full campaign, the owned subset under `--shard i/n`.
    pub units_in_shard: usize,
    /// Logical campaign size: Σ faults × workload cycles. Independent of
    /// which gates are simulated and of early exit, so
    /// `fault_cycles / wall_seconds` is comparable across implementations.
    pub fault_cycles: u64,
    /// Fault-cycles actually stepped (early exit lowers this).
    pub stepped_fault_cycles: u64,
    /// Gate evaluations performed by fault machines, once per gate per
    /// pass for all of its lanes: the gates differential stepping
    /// evaluated plus the full sweeps after a dense hand-off or under
    /// `restrict_to_cone = false`. Early exit lowers it too.
    pub gate_evals: u64,
    /// Gate evaluations a full-netlist, no-early-exit run would cost.
    pub gate_evals_full: u64,
    /// Busy seconds per worker (length = `threads`).
    pub worker_busy_seconds: Vec<f64>,
    /// Units loaded from the checkpoint instead of simulated (resume).
    pub units_from_checkpoint: usize,
    /// Units quarantined after exhausting their retry budget.
    pub units_quarantined: usize,
    /// Unit attempts that panicked and were retried.
    pub unit_retries: u64,
    /// Checkpoint write attempts that failed transiently and were
    /// retried (bounded exponential backoff; see `IoRetryPolicy`).
    pub checkpoint_write_retries: u64,
    /// `true` when a checkpoint write (or the checkpoint open itself)
    /// outlived the retry budget: the campaign completed in memory but
    /// the on-disk checkpoint is untrustworthy for `--resume`.
    pub durability_degraded: bool,
    /// Units never attempted because the campaign was interrupted.
    pub units_skipped: usize,
    /// Chunk-group passes of this run that switched from differential
    /// stepping to the full sweep because one cycle evaluated more than
    /// the break-even share (0.3) of the gates.
    pub dense_handoffs: u64,
}

impl CampaignStats {
    /// Campaign throughput: logical fault-cycles per wall second.
    pub fn fault_cycles_per_second(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        self.fault_cycles as f64 / self.wall_seconds
    }

    /// Fraction of full-run gate evaluations avoided (differential
    /// stepping, lane sharing, early exit).
    pub fn gate_evals_saved_fraction(&self) -> f64 {
        if self.gate_evals_full == 0 {
            return 0.0;
        }
        1.0 - self.gate_evals as f64 / self.gate_evals_full as f64
    }

    /// Mean worker busy-time divided by wall time, in `[0, 1]`.
    pub fn mean_utilization(&self) -> f64 {
        if self.worker_busy_seconds.is_empty() || self.wall_seconds <= 0.0 {
            return 0.0;
        }
        let mean =
            self.worker_busy_seconds.iter().sum::<f64>() / self.worker_busy_seconds.len() as f64;
        (mean / self.wall_seconds).clamp(0.0, 1.0)
    }

    /// Publishes the stats into `recorder` as `campaign.*` counters and
    /// gauges, and emits one `campaign` trace event when a sink is
    /// attached. Called by [`crate::FaultCampaign::run`] so run manifests
    /// pick the numbers up without replumbing every caller.
    pub fn publish(&self, recorder: &fusa_obs::Recorder) {
        recorder.add("campaign.units", self.units as u64);
        recorder.add("campaign.fault_cycles", self.fault_cycles);
        recorder.add("campaign.stepped_fault_cycles", self.stepped_fault_cycles);
        recorder.add("campaign.gate_evals", self.gate_evals);
        recorder.add("campaign.gate_evals_full", self.gate_evals_full);
        recorder.gauge_max("campaign.threads", self.threads as f64);
        recorder.gauge_set(
            "campaign.fault_cycles_per_second",
            self.fault_cycles_per_second(),
        );
        recorder.gauge_set(
            "campaign.gate_evals_saved_fraction",
            self.gate_evals_saved_fraction(),
        );
        recorder.gauge_set("campaign.utilization", self.mean_utilization());
        recorder.add("campaign.dense_handoffs", self.dense_handoffs);
        // Durability counters are published only when nonzero so clean
        // runs keep their established manifest shape.
        if self.units_from_checkpoint > 0 {
            recorder.add(
                "campaign.units_from_checkpoint",
                self.units_from_checkpoint as u64,
            );
        }
        if self.units_quarantined > 0 {
            recorder.add("campaign.units_quarantined", self.units_quarantined as u64);
        }
        if self.unit_retries > 0 {
            recorder.add("campaign.unit_retries", self.unit_retries);
        }
        if self.checkpoint_write_retries > 0 {
            recorder.add(
                "campaign.checkpoint_write_retries",
                self.checkpoint_write_retries,
            );
        }
        if self.durability_degraded {
            recorder.add("campaign.durability_degraded", 1);
        }
        if self.units_skipped > 0 {
            recorder.add("campaign.units_skipped", self.units_skipped as u64);
        }
        // Published only for sharded runs, where ownership is a strict
        // subset, so full-campaign manifests keep their shape.
        if self.units_in_shard != self.units {
            recorder.add("campaign.units_in_shard", self.units_in_shard as u64);
        }
        if recorder.has_sink() {
            use fusa_obs::EventField::{F64, U64};
            recorder.event(
                "campaign",
                &[
                    ("fault_cycles", U64(self.fault_cycles)),
                    ("stepped_fault_cycles", U64(self.stepped_fault_cycles)),
                    ("gate_evals", U64(self.gate_evals)),
                    ("gate_evals_full", U64(self.gate_evals_full)),
                    ("units", U64(self.units as u64)),
                    ("threads", U64(self.threads as u64)),
                    ("wall_seconds", F64(self.wall_seconds)),
                    ("utilization", F64(self.mean_utilization())),
                ],
            );
        }
    }
}

/// Aggregated results of a full campaign: every workload against every
/// fault.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    pub(crate) faults: FaultList,
    pub(crate) gate_count: usize,
    pub(crate) workload_reports: Vec<WorkloadReport>,
    pub(crate) stats: CampaignStats,
    /// `true` when the campaign drained early on an interruption
    /// request; outcomes of skipped units keep their Benign default.
    pub(crate) interrupted: bool,
    /// Units excluded after exhausting their retry budget.
    pub(crate) quarantined: Vec<crate::durability::QuarantinedUnit>,
    /// The shard this run covered (`--shard i/n`), `None` for a full
    /// campaign; outcomes of other shards' units keep their Benign
    /// default until the shard checkpoints are merged.
    pub(crate) shard: Option<crate::shard::ShardSpec>,
}

impl CampaignReport {
    /// Per-workload reports, in workload order.
    pub fn workload_reports(&self) -> &[WorkloadReport] {
        &self.workload_reports
    }

    /// The fault list the outcomes are aligned with.
    pub fn faults(&self) -> &FaultList {
        &self.faults
    }

    /// Timing and throughput statistics of the run.
    pub fn stats(&self) -> &CampaignStats {
        &self.stats
    }

    /// `true` when the campaign was interrupted before every unit ran;
    /// the report then holds partial ground truth.
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// Units excluded because they panicked on every attempt.
    pub fn quarantined(&self) -> &[crate::durability::QuarantinedUnit] {
        &self.quarantined
    }

    /// The shard this run covered (`--shard i/n`), or `None` for a full
    /// campaign. A sharded report is partial ground truth by design.
    pub fn shard(&self) -> Option<crate::shard::ShardSpec> {
        self.shard
    }

    /// Number of workloads (`N` in Algorithm 1).
    pub fn workload_count(&self) -> usize {
        self.workload_reports.len()
    }

    /// Mean fault coverage across workloads.
    pub fn mean_coverage(&self) -> f64 {
        if self.workload_reports.is_empty() {
            return 0.0;
        }
        self.workload_reports
            .iter()
            .map(WorkloadReport::coverage)
            .sum::<f64>()
            / self.workload_reports.len() as f64
    }

    /// Runs Algorithm 1: aggregates per-node criticality scores (fraction
    /// of workloads in which a fault at the node was dangerous) and
    /// thresholds them at `threshold` into critical / non-critical labels.
    pub fn into_dataset(self, threshold: f64) -> CriticalityDataset {
        CriticalityDataset::from_report(&self, threshold)
    }

    /// Renders a compact text summary (one line per workload), including
    /// the throughput line. See [`CampaignReport::summary_opts`].
    pub fn summary(&self) -> String {
        self.summary_opts(true)
    }

    /// Renders the text summary, optionally omitting the wall-time /
    /// throughput line. Pass `show_stats = false` when the text feeds a
    /// reproducibility digest: outcome lines are deterministic for a
    /// seeded campaign, timing never is.
    pub fn summary_opts(&self, show_stats: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign: {} faults x {} workloads",
            self.faults.len(),
            self.workload_count()
        );
        for report in &self.workload_reports {
            let latent = report
                .outcomes
                .iter()
                .filter(|&&o| o == FaultOutcome::Latent)
                .count();
            let _ = writeln!(
                out,
                "  {:<20} dangerous {:>5} ({:>5.1}%) latent {:>5}",
                report.workload_name,
                report.dangerous_count(),
                report.coverage() * 100.0,
                latent
            );
        }
        // Degraded- and partial-run lines are part of the stable
        // (digested) summary on purpose: a partial campaign must never
        // digest identically to a complete one. Clean full runs emit
        // none of them.
        if let Some(shard) = self.shard {
            let _ = writeln!(
                out,
                "  shard {shard}: {} of {} units owned (partial ground truth; \
                 union shards with `fusa merge`)",
                self.stats.units_in_shard, self.stats.units
            );
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(
                out,
                "  quarantined: {} unit(s) excluded after retries (partial ground truth)",
                self.quarantined.len()
            );
            for q in &self.quarantined {
                let _ = writeln!(
                    out,
                    "    unit {} (workload {}, chunk {}, {} attempts): {}",
                    q.unit,
                    q.workload,
                    q.chunk,
                    q.attempts,
                    q.panic_message.lines().next().unwrap_or("")
                );
            }
        }
        if self.interrupted {
            // Against the owned total for a sharded run: the other
            // shards' units were never this process's to complete.
            let total = if self.shard.is_some() {
                self.stats.units_in_shard
            } else {
                self.stats.units
            };
            let done = total
                .saturating_sub(self.stats.units_skipped)
                .saturating_sub(self.stats.units_quarantined);
            let _ = writeln!(
                out,
                "  interrupted: {done}/{total} units completed (resume with --resume)"
            );
        }
        if self.stats.durability_degraded {
            // In the stable summary for the same reason as the lines
            // above: a run that lost its checkpoint must never digest
            // identically to one whose durability held.
            let _ = writeln!(
                out,
                "  durability: degraded (checkpoint writes failed; results completed \
                 in memory, repair with `fusa fsck --repair` before resuming)"
            );
        }
        if show_stats && self.stats.wall_seconds > 0.0 {
            let _ = writeln!(
                out,
                "  throughput: {:.0} fault-cycles/s ({:.3}s wall, {} threads, \
                 {:.1}% gate-evals saved, {:.0}% utilization)",
                self.stats.fault_cycles_per_second(),
                self.stats.wall_seconds,
                self.stats.threads,
                self.stats.gate_evals_saved_fraction() * 100.0,
                self.stats.mean_utilization() * 100.0
            );
        }
        out
    }

    /// Writes the report as CSV (`fault,workload,outcome,first_cycle`).
    pub fn to_csv(&self, netlist: &Netlist) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("gate,fault,workload,outcome,first_divergence_cycle\n");
        for report in &self.workload_reports {
            for (fault, (outcome, first)) in self
                .faults
                .iter()
                .zip(report.outcomes.iter().zip(&report.first_divergence))
            {
                let _ = writeln!(
                    out,
                    "{},{},{},{},{}",
                    netlist.gate(fault.gate).name,
                    fault.stuck_at,
                    report.workload_name,
                    outcome,
                    first.map(|c| c.to_string()).unwrap_or_default()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultSite, StuckAt};
    use fusa_netlist::{GateId, NetId};

    fn fake_report() -> CampaignReport {
        let faults: FaultList = vec![
            Fault {
                gate: GateId(0),
                net: NetId(1),
                stuck_at: StuckAt::Zero,
                site: FaultSite::Output,
            },
            Fault {
                gate: GateId(0),
                net: NetId(1),
                stuck_at: StuckAt::One,
                site: FaultSite::Output,
            },
        ]
        .into_iter()
        .collect();
        CampaignReport {
            faults,
            gate_count: 1,
            workload_reports: vec![
                WorkloadReport {
                    workload_name: "w0".into(),
                    outcomes: vec![FaultOutcome::Dangerous, FaultOutcome::Benign],
                    first_divergence: vec![Some(3), None],
                },
                WorkloadReport {
                    workload_name: "w1".into(),
                    outcomes: vec![FaultOutcome::Latent, FaultOutcome::Dangerous],
                    first_divergence: vec![None, Some(7)],
                },
            ],
            stats: CampaignStats::default(),
            interrupted: false,
            quarantined: Vec::new(),
            shard: None,
        }
    }

    #[test]
    fn coverage_counts_dangerous_only() {
        let r = fake_report();
        assert_eq!(r.workload_reports()[0].dangerous_count(), 1);
        assert!((r.workload_reports()[0].coverage() - 0.5).abs() < 1e-12);
        assert!((r.mean_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_workloads() {
        let text = fake_report().summary();
        assert!(text.contains("w0"));
        assert!(text.contains("w1"));
        assert!(text.contains("2 faults"));
    }

    #[test]
    fn degraded_runs_change_the_stable_summary() {
        let clean = fake_report();
        assert!(!clean.summary_opts(false).contains("durability"));
        let mut degraded = fake_report();
        degraded.stats.durability_degraded = true;
        let text = degraded.summary_opts(false);
        assert!(text.contains("durability: degraded"), "{text}");
        assert!(text.contains("fusa fsck"), "{text}");
        assert_ne!(
            clean.summary_opts(false),
            degraded.summary_opts(false),
            "a degraded run must never digest identically to a durable one"
        );
    }

    #[test]
    fn stats_ratios_are_safe_and_sensible() {
        let zero = CampaignStats::default();
        assert_eq!(zero.fault_cycles_per_second(), 0.0);
        assert_eq!(zero.gate_evals_saved_fraction(), 0.0);
        assert_eq!(zero.mean_utilization(), 0.0);

        let stats = CampaignStats {
            wall_seconds: 2.0,
            threads: 2,
            units: 8,
            fault_cycles: 1_000,
            stepped_fault_cycles: 800,
            gate_evals: 250,
            gate_evals_full: 1_000,
            worker_busy_seconds: vec![1.0, 3.0],
            ..CampaignStats::default()
        };
        assert!((stats.fault_cycles_per_second() - 500.0).abs() < 1e-9);
        assert!((stats.gate_evals_saved_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(stats.mean_utilization(), 1.0, "clamped to [0, 1]");
    }

    #[test]
    fn outcome_display() {
        assert_eq!(FaultOutcome::Dangerous.to_string(), "Dangerous");
        assert_eq!(FaultOutcome::Latent.to_string(), "Latent");
        assert_eq!(FaultOutcome::Benign.to_string(), "Benign");
    }
}
