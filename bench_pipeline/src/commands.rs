//! The library-call sequence behind each `fusa` command, written twice.
//!
//! [`run`] makes the calls the CLI makes (`FusaPipeline::run`,
//! `lint_netlist`, `StaticRank::compute`, `FaultCampaign::run`): it is
//! what the end-to-end metrics time. [`run_traced`] replays the same
//! command as the sequence of public calls into each layer, with a span
//! around every call, for the per-layer metrics. Both return the digests
//! of the artifacts the CLI digests into its run manifest; the harness
//! checks that the two agree, so the decomposition cannot drift from
//! the pipeline unnoticed. Manifest and `status.json` writes, which only
//! the CLI shell makes, are left out.

use crate::trace::Tracer;
use fusa_faultsim::{CampaignReport, CampaignStats, DurabilityConfig, FaultCampaign, FaultList};
use fusa_gcn::report::{render_csv_report, render_text_report, ReportOptions};
use fusa_gcn::train::{train_classifier, EvaluationReport, TrainHistory};
use fusa_gcn::{FusaAnalysis, FusaPipeline, GcnConfig, PipelineConfig, PipelineError, StaticRank};
use fusa_graph::{normalized_adjacency, CircuitGraph, FeatureMatrix, Standardizer};
use fusa_lint::{all_passes, LintContext, LintReport};
use fusa_logicsim::{SignalStats, WorkloadSuite};
use fusa_netlist::{Netlist, StructuralProfile};
use fusa_neuro::split::Split;
use fusa_obs::fnv1a64_hex;
use std::hint::black_box;
use std::path::Path;

/// A `fusa` command as the benchmark runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `fusa analyze <design>`.
    Analyze,
    /// `fusa lint <design>`.
    Lint,
    /// `fusa rank <design>`.
    Rank,
    /// `fusa faults <design>`, writing a checkpoint.
    Faults,
    /// `fusa faults <design> --resume` on the complete checkpoint the
    /// preceding [`Command::Faults`] wrote: a replay with no simulation.
    Resume,
}

impl Command {
    /// Command name, as in the labels of results and pins.
    pub fn name(self) -> &'static str {
        match self {
            Command::Analyze => "analyze",
            Command::Lint => "lint",
            Command::Rank => "rank",
            Command::Faults => "faults",
            Command::Resume => "resume",
        }
    }

    fn root_span(self) -> &'static str {
        match self {
            Command::Analyze => "command.analyze",
            Command::Lint => "command.lint",
            Command::Rank => "command.rank",
            Command::Faults => "command.faults",
            Command::Resume => "command.resume",
        }
    }
}

/// `(artifact, digest)` pairs, named as in the CLI's run manifest.
pub type Digests = Vec<(String, String)>;

/// Work counts and model quality read from a command's library results.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Facts {
    /// Logical campaign size, Σ faults × workload cycles.
    pub fault_cycles: u64,
    /// Gate evaluations the fault machines performed.
    pub gate_evals: u64,
    /// Gate evaluations a full-netlist, no-early-exit campaign would cost.
    pub gate_evals_full: u64,
    /// Campaign work units.
    pub units: u64,
    /// Units quarantined plus unit attempts retried.
    pub units_failed: u64,
    /// Campaign wall seconds, as the campaign measured them.
    pub campaign_wall_s: f64,
    /// Summed worker busy seconds.
    pub worker_busy_s: f64,
    /// Summed worker capacity: threads × campaign wall seconds.
    pub worker_capacity_s: f64,
    /// Size of the checkpoints the simulating campaigns wrote.
    pub checkpoint_bytes: u64,
    /// Training epochs run.
    pub train_epochs: u64,
    /// Validation AUC of each trained classifier.
    pub auc: Vec<f64>,
    /// Validation accuracy of each trained classifier.
    pub accuracy: Vec<f64>,
}

impl Facts {
    /// The counts that must repeat exactly between runs of one seed.
    pub fn exact_counts(&self) -> [(&'static str, u64); 5] {
        [
            ("fault_cycles", self.fault_cycles),
            ("gate_evals", self.gate_evals),
            ("gate_evals_full", self.gate_evals_full),
            ("units", self.units),
            ("train_epochs", self.train_epochs),
        ]
    }

    /// Adds `other`'s counts to these.
    pub fn absorb(&mut self, other: Facts) {
        self.fault_cycles += other.fault_cycles;
        self.gate_evals += other.gate_evals;
        self.gate_evals_full += other.gate_evals_full;
        self.units += other.units;
        self.units_failed += other.units_failed;
        self.campaign_wall_s += other.campaign_wall_s;
        self.worker_busy_s += other.worker_busy_s;
        self.worker_capacity_s += other.worker_capacity_s;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.train_epochs += other.train_epochs;
        self.auc.extend(other.auc);
        self.accuracy.extend(other.accuracy);
    }

    fn campaign(stats: &CampaignStats, checkpoint: &Path) -> Facts {
        Facts {
            fault_cycles: stats.fault_cycles,
            gate_evals: stats.gate_evals,
            gate_evals_full: stats.gate_evals_full,
            units: stats.units as u64,
            units_failed: stats.units_quarantined as u64 + stats.unit_retries,
            campaign_wall_s: stats.wall_seconds,
            worker_busy_s: stats.worker_busy_seconds.iter().sum(),
            worker_capacity_s: stats.threads as f64 * stats.wall_seconds,
            checkpoint_bytes: std::fs::metadata(checkpoint).map_or(0, |m| m.len()),
            ..Facts::default()
        }
    }

    fn training(history: &TrainHistory, evaluation: &EvaluationReport) -> Facts {
        Facts {
            train_epochs: history.train_loss.len() as u64,
            auc: vec![evaluation.auc],
            accuracy: vec![evaluation.accuracy],
            ..Facts::default()
        }
    }
}

/// What one command produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Digests of the deterministic artifacts.
    pub digests: Digests,
    /// Counts and quality figures.
    pub facts: Facts,
}

/// Runs `command` on `netlist` the way the CLI does. `checkpoint` is the
/// campaign checkpoint path, as the CLI's default `<run-dir>/checkpoint.jsonl`.
pub fn run(
    command: Command,
    netlist: &Netlist,
    config: &PipelineConfig,
    checkpoint: &Path,
) -> Result<Outcome, String> {
    match command {
        Command::Analyze => {
            let lint = lint_csv(&fusa_lint::lint_netlist(netlist));
            let analysis = FusaPipeline::new(config.clone())
                .with_campaign_durability(durability(checkpoint, false))
                .run(netlist)
                .map_err(|e| e.to_string())?;
            let mut digests = report_digests(&analysis, netlist);
            digests.push(lint);
            let mut facts = Facts::campaign(&analysis.campaign_stats, checkpoint);
            facts.absorb(Facts::training(&analysis.history, &analysis.evaluation));
            Ok(Outcome { digests, facts })
        }
        Command::Lint => {
            let report = fusa_lint::lint_netlist(netlist);
            black_box(report.render_text());
            Ok(Outcome {
                digests: vec![lint_csv(&report)],
                facts: Facts::default(),
            })
        }
        Command::Rank => {
            let rank = StaticRank::compute(netlist);
            black_box(rank.ranking());
            Ok(Outcome {
                digests: vec![rank_csv(&rank, netlist)],
                facts: Facts::default(),
            })
        }
        Command::Faults | Command::Resume => {
            let resume = command == Command::Resume;
            let faults = FaultList::all_gate_outputs(netlist);
            let workloads = WorkloadSuite::generate(netlist, &config.workloads);
            let lint = lint_csv(&fusa_lint::lint_netlist(netlist));
            let report = FaultCampaign::new(config.campaign)
                .with_durability(durability(checkpoint, resume))
                .run(netlist, &faults, &workloads)
                .map_err(|e| e.to_string())?;
            let facts = campaign_facts(&report, checkpoint, resume)?;
            let mut digests = dataset_digests(report, config, netlist);
            digests.push(lint);
            Ok(Outcome { digests, facts })
        }
    }
}

/// Runs `command` as the sequence of public layer calls, each under a
/// span, all inside one `command.<name>` root span.
pub fn run_traced(
    tracer: &mut Tracer,
    command: Command,
    netlist: &Netlist,
    config: &PipelineConfig,
    checkpoint: &Path,
) -> Result<Outcome, String> {
    tracer.span(command.root_span(), |t| match command {
        Command::Analyze => analyze_traced(t, netlist, config, checkpoint),
        Command::Lint => {
            let report = lint_report_traced(t, netlist);
            let lint = t.span("lint.report", |_| {
                black_box(report.render_text());
                lint_csv(&report)
            });
            Ok(Outcome {
                digests: vec![lint],
                facts: Facts::default(),
            })
        }
        Command::Rank => {
            let profile = t.span_peak("netlist.structural", |_| {
                StructuralProfile::analyze(netlist)
            });
            let digest = t.span("core.rank_score", |_| {
                let rank = StaticRank::from_profile(netlist, &profile);
                black_box(rank.ranking());
                rank_csv(&rank, netlist)
            });
            Ok(Outcome {
                digests: vec![digest],
                facts: Facts::default(),
            })
        }
        Command::Faults | Command::Resume => {
            let resume = command == Command::Resume;
            let faults = t.span("faultsim.fault_list", |_| {
                FaultList::all_gate_outputs(netlist)
            });
            let workloads = t.span("logicsim.workloads", |_| {
                WorkloadSuite::generate(netlist, &config.workloads)
            });
            let report = lint_report_traced(t, netlist);
            let lint = t.span("lint.report", |_| lint_csv(&report));
            let campaign =
                FaultCampaign::new(config.campaign).with_durability(durability(checkpoint, resume));
            let simulate = |_: &mut Tracer| campaign.run(netlist, &faults, &workloads);
            let report = if resume {
                t.span("faultsim.replay", simulate)
            } else {
                t.span_peak("faultsim.campaign", simulate)
            }
            .map_err(|e| e.to_string())?;
            let facts = campaign_facts(&report, checkpoint, resume)?;
            let mut digests = t.span("faultsim.dataset", |_| {
                dataset_digests(report, config, netlist)
            });
            digests.push(lint);
            Ok(Outcome { digests, facts })
        }
    })
}

/// `FusaPipeline::run` decomposed, step for step, plus the lint digest
/// and reports of `cmd_analyze`.
fn analyze_traced(
    t: &mut Tracer,
    netlist: &Netlist,
    config: &PipelineConfig,
    checkpoint: &Path,
) -> Result<Outcome, String> {
    let lint_report = lint_report_traced(t, netlist);
    let lint = t.span("lint.report", |_| lint_csv(&lint_report));
    let (graph, adjacency) = t.span("graph.build", |_| {
        let graph = CircuitGraph::from_netlist(netlist);
        let adjacency = normalized_adjacency(&graph);
        (graph, adjacency)
    });
    // The benchmark's configurations leave `structural_features` off, so
    // the feature matrix is the paper's five channels.
    let (raw_features, standardizer, features) = t.span("graph.features", |_| {
        let stats = SignalStats::estimate(netlist, &config.signal_stats);
        let raw_features = FeatureMatrix::extract(netlist, &stats);
        let standardizer = Standardizer::fit(raw_features.matrix());
        let features = standardizer.transform(raw_features.matrix());
        (raw_features, standardizer, features)
    });
    let (faults, excluded_fault_sites) = t.span("faultsim.fault_list", |t| {
        let full_faults = FaultList::all_gate_outputs(netlist);
        if config.exclude_untestable_faults {
            let untestable = t.span("lint.untestable", |_| {
                fusa_lint::untestable_stuck_at_sites(netlist)
            });
            let total = full_faults.len();
            let kept = full_faults.exclude_untestable(&untestable);
            let excluded = total - kept.len();
            (kept, excluded)
        } else {
            (full_faults, 0)
        }
    });
    let workloads = t.span("logicsim.workloads", |_| {
        WorkloadSuite::generate(netlist, &config.workloads)
    });
    let report = t
        .span_peak("faultsim.campaign", |_| {
            FaultCampaign::new(config.campaign)
                .with_durability(durability(checkpoint, false))
                .run(netlist, &faults, &workloads)
        })
        .map_err(|e| e.to_string())?;
    let mut facts = campaign_facts(&report, checkpoint, false)?;
    let campaign_stats = report.stats().clone();
    let campaign_quarantined = report.quarantined().to_vec();
    let dataset = t.span("faultsim.dataset", |_| {
        report.into_dataset(config.criticality_threshold)
    });
    let critical = dataset.critical_count();
    let total = dataset.labels().len();
    if critical == 0 || critical == total {
        return Err(PipelineError::DegenerateLabels { critical, total }.to_string());
    }
    let (split, (classifier, history, evaluation)) = t.span_peak("core.train", |_| {
        let split = Split::stratified(dataset.labels(), config.train_fraction, config.split_seed);
        let model_config = GcnConfig {
            in_features: features.cols(),
            ..config.model.clone()
        };
        let trained = train_classifier(
            &adjacency,
            &features,
            dataset.labels(),
            &split,
            model_config,
            &config.train,
        );
        (split, trained)
    });
    facts.absorb(Facts::training(&history, &evaluation));
    let analysis = FusaAnalysis {
        design_name: netlist.name().to_string(),
        graph,
        adjacency,
        raw_features,
        features,
        standardizer,
        dataset,
        split,
        classifier,
        history,
        evaluation,
        excluded_fault_sites,
        campaign_stats,
        campaign_quarantined,
    };
    let mut digests = t.span("core.report", |_| report_digests(&analysis, netlist));
    digests.push(lint);
    Ok(Outcome { digests, facts })
}

/// `lint_netlist` decomposed: the shared context, then every pass.
fn lint_report_traced(t: &mut Tracer, netlist: &Netlist) -> LintReport {
    let ctx = t.span_peak("lint.context", |_| LintContext::new(netlist));
    t.span("lint.passes", |_| {
        let mut report = LintReport::new(netlist.name());
        for pass in all_passes() {
            report.passes_run.push(pass.name());
            pass.run(&ctx, &mut report);
        }
        report
    })
}

fn durability(checkpoint: &Path, resume: bool) -> DurabilityConfig {
    DurabilityConfig {
        checkpoint: Some(checkpoint.to_path_buf()),
        resume,
        ..DurabilityConfig::default()
    }
}

/// Rejects a campaign that stopped early; counts a simulating one.
fn campaign_facts(
    report: &CampaignReport,
    checkpoint: &Path,
    resume: bool,
) -> Result<Facts, String> {
    if report.interrupted() {
        return Err("fault campaign was interrupted".to_string());
    }
    Ok(if resume {
        Facts::default()
    } else {
        Facts::campaign(report.stats(), checkpoint)
    })
}

fn digest(artifact: &str, text: &str) -> (String, String) {
    (artifact.to_string(), fnv1a64_hex(text.as_bytes()))
}

fn lint_csv(report: &LintReport) -> (String, String) {
    digest("lint.csv", &report.render_csv())
}

fn rank_csv(rank: &StaticRank, netlist: &Netlist) -> (String, String) {
    digest("rank.csv", &rank.to_csv(netlist))
}

/// The printed report plus the two digested artifacts of `cmd_analyze`.
fn report_digests(analysis: &FusaAnalysis, netlist: &Netlist) -> Digests {
    black_box(render_text_report(
        analysis,
        netlist,
        &ReportOptions::default(),
    ));
    let stable = render_text_report(
        analysis,
        netlist,
        &ReportOptions {
            include_stats: false,
            ..ReportOptions::default()
        },
    );
    vec![
        digest("report.txt", &stable),
        digest("nodes.csv", &render_csv_report(analysis, netlist)),
    ]
}

/// The summary, Algorithm-1 labels and criticality CSV of `cmd_faults`.
fn dataset_digests(report: CampaignReport, config: &PipelineConfig, netlist: &Netlist) -> Digests {
    black_box(report.summary());
    let stable = report.summary_opts(false);
    let dataset = report.into_dataset(config.criticality_threshold);
    black_box(dataset.critical_count());
    vec![
        digest("summary.txt", &stable),
        digest("criticality.csv", &dataset.to_csv(netlist)),
    ]
}
