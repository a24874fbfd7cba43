//! Cross-run manifest comparison: the `fusa compare` regression gate.
//!
//! [`compare_manifests`] diffs a baseline and a candidate
//! [`RunManifest`]:
//!
//! - **Digests** — for same-seed runs of the same design every shared
//!   artifact digest must match exactly; any mismatch is a hard
//!   regression regardless of tolerance (determinism is not subject to
//!   noise).
//! - **Wall time and per-stage times** — the candidate regresses when
//!   it exceeds the baseline by more than `tolerance_pct`. Stages whose
//!   baseline is below `min_seconds` are reported but never gate: their
//!   relative noise dwarfs any signal.
//! - **Histogram quantiles** — p50/p90/p99 of shared histograms.
//!   Time-valued histograms (names ending in `_seconds`) gate like
//!   stages; value histograms (loss, gate-evals) are informational.
//! - **Peak RSS** — tolerance-gated when both runs measured it, skipped
//!   when either platform reported it absent.
//!
//! The result renders as a text delta table or JSON.

use crate::json::Json;
use crate::manifest::RunManifest;
use std::fmt::Write as _;

/// Tuning for one comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareOptions {
    /// Relative slowdown (percent) a time metric may show before it
    /// counts as a regression.
    pub tolerance_pct: f64,
    /// Baseline stages/wall times shorter than this many seconds never
    /// gate (micro-stage noise floor).
    pub min_seconds: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            tolerance_pct: 10.0,
            min_seconds: 0.05,
        }
    }
}

/// Verdict of one delta-table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStatus {
    /// Within tolerance (or informational-only metric).
    Ok,
    /// Candidate improved beyond the tolerance band.
    Improved,
    /// Candidate regressed beyond the tolerance band.
    Regression,
    /// Not comparable (metric absent on one side).
    Skipped,
}

impl RowStatus {
    fn label(self) -> &'static str {
        match self {
            RowStatus::Ok => "ok",
            RowStatus::Improved => "improved",
            RowStatus::Regression => "REGRESSION",
            RowStatus::Skipped => "skipped",
        }
    }
}

/// One row of the delta table.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Metric name (`wall_seconds`, `stage campaign`, `hist
    /// campaign.unit_seconds p99`, `peak_rss_bytes`).
    pub metric: String,
    /// Baseline value, when present.
    pub baseline: Option<f64>,
    /// Candidate value, when present.
    pub candidate: Option<f64>,
    /// Relative change in percent, when both sides are present and the
    /// baseline is nonzero.
    pub delta_pct: Option<f64>,
    /// Verdict.
    pub status: RowStatus,
    /// Short annotation (`baseline < noise floor`, `informational`, …).
    pub note: String,
}

/// Result of [`compare_manifests`].
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Baseline run id.
    pub baseline_id: String,
    /// Candidate run id.
    pub candidate_id: String,
    /// Design under comparison (baseline's).
    pub design: String,
    /// Whether both runs used identical seeds on the same design —
    /// enables the hard digest gate.
    pub same_seed: bool,
    /// Number of artifact digests present in both manifests.
    pub digests_compared: usize,
    /// Artifact names whose digests differ (hard failure when
    /// `same_seed` and both runs are complete).
    pub digest_mismatches: Vec<String>,
    /// Whether the baseline run was interrupted (partial results).
    pub baseline_interrupted: bool,
    /// Whether the candidate run was interrupted (partial results).
    pub candidate_interrupted: bool,
    /// The baseline's `--shard index/total` spec, when it was a shard
    /// partial (rendered as `i/n`).
    pub baseline_shard: Option<String>,
    /// The candidate's `--shard index/total` spec, when it was a shard
    /// partial (rendered as `i/n`).
    pub candidate_shard: Option<String>,
    /// Build-provenance keys that differ: `(key, baseline, candidate)`.
    pub build_differs: Vec<(String, String, String)>,
    /// The delta table.
    pub rows: Vec<DeltaRow>,
    /// Options the comparison ran with.
    pub options: CompareOptions,
}

impl Comparison {
    /// Whether the candidate regressed: any `REGRESSION` row, or a
    /// digest mismatch on a same-seed comparison. An interrupted or
    /// sharded run on either side disables the digest gate — partial
    /// artifacts legitimately differ from complete ones. (A *merged*
    /// run carries no shard spec, so merged-vs-full comparisons gate
    /// normally.)
    pub fn has_regression(&self) -> bool {
        (self.same_seed
            && !self.baseline_interrupted
            && !self.candidate_interrupted
            && self.baseline_shard.is_none()
            && self.candidate_shard.is_none()
            && !self.digest_mismatches.is_empty())
            || self.rows.iter().any(|r| r.status == RowStatus::Regression)
    }

    /// Renders the human-readable delta table.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(
            out,
            "=== fusa compare: {} (baseline) vs {} (candidate) ===",
            self.baseline_id, self.candidate_id
        );
        let _ = writeln!(
            out,
            "design {} | same-seed {} | tolerance {}% | noise floor {}s",
            self.design,
            if self.same_seed { "yes" } else { "no" },
            self.options.tolerance_pct,
            self.options.min_seconds,
        );
        for (key, base, cand) in &self.build_differs {
            let _ = writeln!(out, "build differs: {key}: {base} -> {cand}");
        }
        if self.baseline_interrupted || self.candidate_interrupted {
            let which = match (self.baseline_interrupted, self.candidate_interrupted) {
                (true, true) => "both runs were",
                (true, false) => "baseline was",
                _ => "candidate was",
            };
            let _ = writeln!(
                out,
                "note: {which} interrupted (partial results); digest gate disabled"
            );
        }
        if self.baseline_shard.is_some() || self.candidate_shard.is_some() {
            let which = match (&self.baseline_shard, &self.candidate_shard) {
                (Some(b), Some(c)) => format!("both runs are shard partials ({b}, {c})"),
                (Some(b), None) => format!("baseline is a shard partial ({b})"),
                (None, Some(c)) => format!("candidate is a shard partial ({c})"),
                (None, None) => unreachable!(),
            };
            let _ = writeln!(
                out,
                "note: {which}; digest gate disabled — union shards with `fusa merge` first"
            );
        }

        let metric_width = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .max()
            .unwrap_or(0)
            .max(12);
        let _ = writeln!(
            out,
            "\n{:<metric_width$} {:>12} {:>12} {:>9}  {:<10} note",
            "metric", "baseline", "candidate", "delta", "status"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{:<metric_width$} {:>12} {:>12} {:>9}  {:<10} {}",
                row.metric,
                row.baseline.map_or_else(|| "-".into(), format_value),
                row.candidate.map_or_else(|| "-".into(), format_value),
                row.delta_pct
                    .map_or_else(|| "-".into(), |d| format!("{d:+.1}%")),
                row.status.label(),
                row.note,
            );
        }

        let _ = writeln!(
            out,
            "\ndigests: {} compared, {} mismatched{}",
            self.digests_compared,
            self.digest_mismatches.len(),
            if self.digest_mismatches.is_empty() {
                String::new()
            } else {
                format!(" ({})", self.digest_mismatches.join(", "))
            }
        );
        let regressions = self
            .rows
            .iter()
            .filter(|r| r.status == RowStatus::Regression)
            .count();
        if self.has_regression() {
            let mut reasons = Vec::new();
            if self.same_seed && !self.digest_mismatches.is_empty() {
                reasons.push(format!(
                    "{} digest mismatch(es) on a same-seed run",
                    self.digest_mismatches.len()
                ));
            }
            if regressions > 0 {
                reasons.push(format!("{regressions} metric regression(s)"));
            }
            let _ = writeln!(out, "result: REGRESSION — {}", reasons.join(", "));
        } else {
            let _ = writeln!(out, "result: OK");
        }
        out
    }

    /// Renders the comparison as a JSON document (for `--json`).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Json::Obj(vec![
                    ("metric".into(), Json::Str(row.metric.clone())),
                    ("baseline".into(), json_opt(row.baseline)),
                    ("candidate".into(), json_opt(row.candidate)),
                    ("delta_pct".into(), json_opt(row.delta_pct)),
                    ("status".into(), Json::Str(row.status.label().to_string())),
                    ("note".into(), Json::Str(row.note.clone())),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("baseline".into(), Json::Str(self.baseline_id.clone())),
            ("candidate".into(), Json::Str(self.candidate_id.clone())),
            ("design".into(), Json::Str(self.design.clone())),
            ("same_seed".into(), Json::Bool(self.same_seed)),
            (
                "baseline_interrupted".into(),
                Json::Bool(self.baseline_interrupted),
            ),
            (
                "candidate_interrupted".into(),
                Json::Bool(self.candidate_interrupted),
            ),
            (
                "baseline_shard".into(),
                self.baseline_shard.clone().map_or(Json::Null, Json::Str),
            ),
            (
                "candidate_shard".into(),
                self.candidate_shard.clone().map_or(Json::Null, Json::Str),
            ),
            (
                "tolerance_pct".into(),
                Json::Num(self.options.tolerance_pct),
            ),
            (
                "digests_compared".into(),
                Json::Num(self.digests_compared as f64),
            ),
            (
                "digest_mismatches".into(),
                Json::Arr(
                    self.digest_mismatches
                        .iter()
                        .map(|name| Json::Str(name.clone()))
                        .collect(),
                ),
            ),
            ("rows".into(), Json::Arr(rows)),
            ("regression".into(), Json::Bool(self.has_regression())),
        ])
    }
}

fn json_opt(value: Option<f64>) -> Json {
    value.map_or(Json::Null, Json::Num)
}

fn format_value(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() < 1e-3 || value.abs() >= 1e9 {
        format!("{value:.3e}")
    } else if value.abs() >= 1000.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.4}")
    }
}

fn lookup<'a, T>(map: &'a [(String, T)], key: &str) -> Option<&'a T> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Classifies a (baseline, candidate) pair against the tolerance band.
/// `gate` disables the `Regression` verdict for informational metrics.
fn classify(
    baseline: f64,
    candidate: f64,
    options: &CompareOptions,
    gate: bool,
) -> (Option<f64>, RowStatus) {
    if baseline <= 0.0 {
        let status = if candidate <= 0.0 {
            RowStatus::Ok
        } else {
            RowStatus::Skipped
        };
        return (None, status);
    }
    let delta_pct = (candidate - baseline) / baseline * 100.0;
    let status = if gate && delta_pct > options.tolerance_pct {
        RowStatus::Regression
    } else if delta_pct < -options.tolerance_pct {
        RowStatus::Improved
    } else {
        RowStatus::Ok
    };
    (Some(delta_pct), status)
}

/// Diffs `candidate` against `baseline`. Pure over the two manifests;
/// the CLI decides the exit code from [`Comparison::has_regression`].
pub fn compare_manifests(
    baseline: &RunManifest,
    candidate: &RunManifest,
    options: CompareOptions,
) -> Comparison {
    let same_seed = baseline.design == candidate.design && {
        let mut b = baseline.seeds.clone();
        let mut c = candidate.seeds.clone();
        b.sort();
        c.sort();
        b == c
    };

    let mut digests_compared = 0;
    let mut digest_mismatches = Vec::new();
    for (name, digest) in &baseline.digests {
        if let Some(other) = lookup(&candidate.digests, name) {
            digests_compared += 1;
            if other != digest {
                digest_mismatches.push(name.clone());
            }
        }
    }

    let mut build_differs = Vec::new();
    for (key, value) in &baseline.build {
        if let Some(other) = lookup(&candidate.build, key) {
            if other != value {
                build_differs.push((key.clone(), value.clone(), other.clone()));
            }
        }
    }

    let mut rows = Vec::new();

    // Wall time.
    {
        let gate = baseline.wall_seconds >= options.min_seconds;
        let (delta_pct, status) = classify(
            baseline.wall_seconds,
            candidate.wall_seconds,
            &options,
            gate,
        );
        rows.push(DeltaRow {
            metric: "wall_seconds".into(),
            baseline: Some(baseline.wall_seconds),
            candidate: Some(candidate.wall_seconds),
            delta_pct,
            status,
            note: if gate {
                String::new()
            } else {
                "baseline < noise floor".into()
            },
        });
    }

    // Per-stage wall times over the union of stage names, baseline
    // order first.
    let mut stage_names: Vec<&str> = baseline.stages.iter().map(|s| s.name.as_str()).collect();
    for stage in &candidate.stages {
        if !stage_names.contains(&stage.name.as_str()) {
            stage_names.push(&stage.name);
        }
    }
    for name in stage_names {
        let base = baseline.stages.iter().find(|s| s.name == name);
        let cand = candidate.stages.iter().find(|s| s.name == name);
        let row = match (base, cand) {
            (Some(b), Some(c)) => {
                let gate = b.seconds >= options.min_seconds;
                let (delta_pct, status) = classify(b.seconds, c.seconds, &options, gate);
                DeltaRow {
                    metric: format!("stage {name}"),
                    baseline: Some(b.seconds),
                    candidate: Some(c.seconds),
                    delta_pct,
                    status,
                    note: if gate {
                        String::new()
                    } else {
                        "baseline < noise floor".into()
                    },
                }
            }
            (b, c) => DeltaRow {
                metric: format!("stage {name}"),
                baseline: b.map(|s| s.seconds),
                candidate: c.map(|s| s.seconds),
                delta_pct: None,
                status: RowStatus::Skipped,
                note: if b.is_some() {
                    "only in baseline".into()
                } else {
                    "only in candidate".into()
                },
            },
        };
        rows.push(row);
    }

    // Histogram quantiles over the union of names, baseline order
    // first. Manifests with disjoint histogram sets (different code
    // versions, partial runs) report the asymmetry as skipped rows
    // instead of silently dropping — or erroring on — the odd ones out.
    // Only time-valued histograms gate; counts/losses are informational.
    let mut hist_names: Vec<&str> = baseline
        .histograms
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    for (name, _) in &candidate.histograms {
        if !hist_names.contains(&name.as_str()) {
            hist_names.push(name);
        }
    }
    for name in hist_names {
        let base = lookup(&baseline.histograms, name);
        let cand = lookup(&candidate.histograms, name);
        let (base, cand) = match (base, cand) {
            (Some(b), Some(c)) => (b, c),
            (b, c) => {
                rows.push(DeltaRow {
                    metric: format!("hist {name}"),
                    baseline: b.map(|h| h.p50),
                    candidate: c.map(|h| h.p50),
                    delta_pct: None,
                    status: RowStatus::Skipped,
                    note: if b.is_some() {
                        "only in baseline".into()
                    } else {
                        "only in candidate".into()
                    },
                });
                continue;
            }
        };
        let time_like = name.ends_with("_seconds");
        for (quantile, b, c) in [
            ("p50", base.p50, cand.p50),
            ("p90", base.p90, cand.p90),
            ("p99", base.p99, cand.p99),
        ] {
            let gate = time_like && b >= options.min_seconds;
            let (delta_pct, status) = classify(b, c, &options, gate);
            rows.push(DeltaRow {
                metric: format!("hist {name} {quantile}"),
                baseline: Some(b),
                candidate: Some(c),
                delta_pct,
                status,
                note: if !time_like {
                    "informational".into()
                } else if !gate {
                    "baseline < noise floor".into()
                } else {
                    String::new()
                },
            });
        }
    }

    // Lint finding counters: static-analysis drift surfaces as
    // annotated rows, never as a gate — the lint digest above is the
    // hard gate for same-seed runs, so these rows exist to say *what*
    // moved (per-severity counts) when it trips, and to flag severity
    // drift across code versions where digests legitimately differ.
    let mut counter_names: Vec<&str> = baseline
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| n.starts_with("lint.findings"))
        .collect();
    for (name, _) in &candidate.counters {
        if name.starts_with("lint.findings") && !counter_names.contains(&name.as_str()) {
            counter_names.push(name);
        }
    }
    for name in counter_names {
        let base = lookup(&baseline.counters, name).copied();
        let cand = lookup(&candidate.counters, name).copied();
        let (delta_pct, status, note) = match (base, cand) {
            (Some(b), Some(c)) => {
                let (delta_pct, _) = classify(b as f64, c as f64, &options, false);
                let status = if b == c {
                    RowStatus::Ok
                } else {
                    RowStatus::Skipped
                };
                let note = if b == c {
                    "informational".into()
                } else {
                    format!("lint drift: {b} -> {c} finding(s), non-gating")
                };
                (delta_pct, status, note)
            }
            (b, _) => (
                None,
                RowStatus::Skipped,
                if b.is_some() {
                    "only in baseline".into()
                } else {
                    "only in candidate".into()
                },
            ),
        };
        rows.push(DeltaRow {
            metric: format!("counter {name}"),
            baseline: base.map(|b| b as f64),
            candidate: cand.map(|c| c as f64),
            delta_pct,
            status,
            note,
        });
    }

    // Peak RSS: compared only when both platforms measured it.
    {
        let (delta_pct, status, note) = match (baseline.peak_rss_bytes, candidate.peak_rss_bytes) {
            (Some(b), Some(c)) => {
                let (delta_pct, status) = classify(b as f64, c as f64, &options, true);
                (delta_pct, status, String::new())
            }
            _ => (None, RowStatus::Skipped, "not measured on both runs".into()),
        };
        rows.push(DeltaRow {
            metric: "peak_rss_bytes".into(),
            baseline: baseline.peak_rss_bytes.map(|b| b as f64),
            candidate: candidate.peak_rss_bytes.map(|b| b as f64),
            delta_pct,
            status,
            note,
        });
    }

    Comparison {
        baseline_id: baseline.run_id.clone(),
        candidate_id: candidate.run_id.clone(),
        design: baseline.design.clone(),
        same_seed,
        digests_compared,
        digest_mismatches,
        baseline_interrupted: baseline.interrupted,
        candidate_interrupted: candidate.interrupted,
        baseline_shard: baseline.shard.map(|s| format!("{}/{}", s.index, s.total)),
        candidate_shard: candidate.shard.map(|s| format!("{}/{}", s.index, s.total)),
        build_differs,
        rows,
        options,
    }
}

/// Loads a manifest from `path`, accepting either the manifest file
/// itself or a run directory containing `manifest.json`.
pub fn load_manifest_arg(path: &std::path::Path) -> Result<RunManifest, String> {
    let file = if path.is_dir() {
        path.join("manifest.json")
    } else {
        path.to_path_buf()
    };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
    RunManifest::parse(&text).map_err(|e| format!("{}: {e}", file.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::HistogramSummary;
    use crate::manifest::StageTime;

    fn manifest(run_id: &str) -> RunManifest {
        RunManifest {
            run_id: run_id.into(),
            command: format!("fusa analyze d --run-dir {run_id}"),
            design: "d".into(),
            created_unix: 1_754_000_000,
            wall_seconds: 2.0,
            threads: 4,
            peak_rss_bytes: Some(100 << 20),
            build: vec![("rustc".into(), "rustc 1.95.0".into())],
            seeds: vec![("split".into(), 7), ("workloads".into(), 9)],
            stages: vec![
                StageTime {
                    name: "campaign".into(),
                    seconds: 1.5,
                    count: 1,
                },
                StageTime {
                    name: "train".into(),
                    seconds: 0.4,
                    count: 1,
                },
            ],
            histograms: vec![(
                "campaign.unit_seconds".into(),
                HistogramSummary {
                    count: 96,
                    sum: 1.44,
                    min: 0.01,
                    max: 0.3,
                    p50: 0.15,
                    p90: 0.25,
                    p99: 0.3,
                },
            )],
            digests: vec![
                ("nodes_csv".into(), "fnv1a64:1111".into()),
                ("scores_csv".into(), "fnv1a64:2222".into()),
            ],
            ..RunManifest::default()
        }
    }

    #[test]
    fn identical_runs_compare_clean() {
        let base = manifest("a");
        let cand = manifest("b");
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(cmp.same_seed);
        assert_eq!(cmp.digests_compared, 2);
        assert!(cmp.digest_mismatches.is_empty());
        assert!(!cmp.has_regression(), "{}", cmp.render_text());
        assert!(cmp.render_text().contains("result: OK"));
    }

    #[test]
    fn lint_counter_drift_annotates_without_gating() {
        let mut base = manifest("a");
        let mut cand = manifest("b");
        base.counters = vec![
            ("gate_evals".into(), 1000), // non-lint counters stay out
            ("lint.findings".into(), 5),
            ("lint.findings.warning".into(), 2),
        ];
        cand.counters = vec![
            ("gate_evals".into(), 2000),
            ("lint.findings".into(), 7),
            ("lint.findings.info".into(), 2),
        ];
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(!cmp.has_regression(), "{}", cmp.render_text());
        let row = |metric: &str| cmp.rows.iter().find(|r| r.metric == metric);
        assert!(row("counter gate_evals").is_none());
        let drift = row("counter lint.findings").unwrap();
        assert_eq!(drift.status, RowStatus::Skipped);
        assert!(drift.note.contains("5 -> 7"), "{}", drift.note);
        let warn = row("counter lint.findings.warning").unwrap();
        assert_eq!(warn.note, "only in baseline");
        let info = row("counter lint.findings.info").unwrap();
        assert_eq!(info.note, "only in candidate");
    }

    #[test]
    fn identical_lint_counters_are_informational() {
        let mut base = manifest("a");
        let mut cand = manifest("b");
        base.counters = vec![("lint.findings.error".into(), 0)];
        cand.counters = vec![("lint.findings.error".into(), 0)];
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        let row = cmp
            .rows
            .iter()
            .find(|r| r.metric == "counter lint.findings.error")
            .unwrap();
        assert_eq!(row.status, RowStatus::Ok);
        assert_eq!(row.note, "informational");
        assert!(!cmp.has_regression());
    }

    #[test]
    fn stage_slowdown_beyond_tolerance_regresses() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.stages[0].seconds = 1.5 * 1.25; // +25% > 10%
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(cmp.has_regression());
        let row = cmp
            .rows
            .iter()
            .find(|r| r.metric == "stage campaign")
            .unwrap();
        assert_eq!(row.status, RowStatus::Regression);
        assert!((row.delta_pct.unwrap() - 25.0).abs() < 1e-9);
        assert!(cmp.render_text().contains("result: REGRESSION"));
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.stages[0].seconds = 1.5 * 1.05; // +5% < 10%
        cand.wall_seconds = 2.0 * 1.05;
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(!cmp.has_regression(), "{}", cmp.render_text());
    }

    #[test]
    fn micro_stages_never_gate() {
        let mut base = manifest("a");
        base.stages[1].seconds = 0.001;
        let mut cand = manifest("b");
        cand.stages[1].seconds = 0.05; // 50x but under the noise floor
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        let row = cmp.rows.iter().find(|r| r.metric == "stage train").unwrap();
        assert_ne!(row.status, RowStatus::Regression);
        assert_eq!(row.note, "baseline < noise floor");
    }

    #[test]
    fn digest_mismatch_is_hard_failure_only_for_same_seed() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.digests[0].1 = "fnv1a64:dead".into();
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(cmp.same_seed);
        assert_eq!(cmp.digest_mismatches, vec!["nodes_csv".to_string()]);
        assert!(cmp.has_regression());

        // Different seeds: mismatched digests are expected, no failure.
        cand.seeds[0].1 = 8;
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(!cmp.same_seed);
        assert!(!cmp.has_regression(), "{}", cmp.render_text());
    }

    #[test]
    fn time_histograms_gate_and_value_histograms_inform() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.histograms[0].1.p99 = 0.3 * 1.5;
        cand.histograms.push((
            "train.loss".into(),
            HistogramSummary {
                count: 10,
                sum: 5.0,
                min: 0.1,
                max: 1.0,
                p50: 0.5,
                p90: 0.9,
                p99: 1.0,
            },
        ));
        let mut with_loss = base.clone();
        with_loss.histograms.push((
            "train.loss".into(),
            HistogramSummary {
                count: 10,
                sum: 2.0,
                min: 0.05,
                max: 0.4,
                p50: 0.2,
                p90: 0.35,
                p99: 0.4,
            },
        ));
        let cmp = compare_manifests(&with_loss, &cand, CompareOptions::default());
        let p99 = cmp
            .rows
            .iter()
            .find(|r| r.metric == "hist campaign.unit_seconds p99")
            .unwrap();
        assert_eq!(p99.status, RowStatus::Regression);
        // Loss more than doubled but is informational, never a gate.
        let loss = cmp
            .rows
            .iter()
            .find(|r| r.metric == "hist train.loss p99")
            .unwrap();
        assert_ne!(loss.status, RowStatus::Regression);
        assert_eq!(loss.note, "informational");
    }

    #[test]
    fn disjoint_histogram_sets_report_asymmetry_without_gating() {
        let mut base = manifest("a");
        base.histograms.push((
            "lint.findings".into(),
            HistogramSummary {
                count: 4,
                sum: 8.0,
                min: 1.0,
                max: 3.0,
                p50: 2.0,
                p90: 3.0,
                p99: 3.0,
            },
        ));
        let mut cand = manifest("b");
        cand.histograms.push((
            "train.epoch_seconds".into(),
            HistogramSummary {
                count: 80,
                sum: 8.0,
                min: 0.05,
                max: 0.3,
                p50: 0.1,
                p90: 0.2,
                p99: 0.3,
            },
        ));
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        let only_base = cmp
            .rows
            .iter()
            .find(|r| r.metric == "hist lint.findings")
            .expect("baseline-only histogram row");
        assert_eq!(only_base.status, RowStatus::Skipped);
        assert_eq!(only_base.note, "only in baseline");
        assert!(only_base.candidate.is_none());
        let only_cand = cmp
            .rows
            .iter()
            .find(|r| r.metric == "hist train.epoch_seconds")
            .expect("candidate-only histogram row");
        assert_eq!(only_cand.status, RowStatus::Skipped);
        assert_eq!(only_cand.note, "only in candidate");
        assert!(only_cand.baseline.is_none());
        assert!(!cmp.has_regression(), "{}", cmp.render_text());
    }

    #[test]
    fn interrupted_runs_disable_the_digest_gate() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.interrupted = true;
        cand.digests[0].1 = "fnv1a64:dead".into(); // partial artifact
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(cmp.same_seed);
        assert!(cmp.candidate_interrupted);
        assert_eq!(cmp.digest_mismatches, vec!["nodes_csv".to_string()]);
        assert!(!cmp.has_regression(), "{}", cmp.render_text());
        let text = cmp.render_text();
        assert!(text.contains("candidate was interrupted"));
        assert!(text.contains("digest gate disabled"));
        let json = cmp.to_json();
        assert_eq!(json.get("candidate_interrupted"), Some(&Json::Bool(true)));
    }

    #[test]
    fn sharded_runs_disable_the_digest_gate() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.shard = Some(crate::manifest::ShardRecord { index: 2, total: 3 });
        cand.digests[0].1 = "fnv1a64:beef".into(); // shard partial artifact
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert!(cmp.same_seed);
        assert_eq!(cmp.candidate_shard.as_deref(), Some("2/3"));
        assert!(cmp.baseline_shard.is_none());
        assert_eq!(cmp.digest_mismatches, vec!["nodes_csv".to_string()]);
        assert!(!cmp.has_regression(), "{}", cmp.render_text());
        let text = cmp.render_text();
        assert!(
            text.contains("candidate is a shard partial (2/3)"),
            "{text}"
        );
        assert!(text.contains("digest gate disabled"), "{text}");
        assert!(text.contains("fusa merge"), "{text}");
        let json = cmp.to_json();
        assert_eq!(
            json.get("candidate_shard"),
            Some(&Json::Str("2/3".to_string()))
        );
        assert_eq!(json.get("baseline_shard"), Some(&Json::Null));
    }

    #[test]
    fn sharded_metric_regressions_still_gate() {
        let mut base = manifest("a");
        let mut cand = manifest("b");
        base.shard = Some(crate::manifest::ShardRecord { index: 1, total: 2 });
        cand.shard = Some(crate::manifest::ShardRecord { index: 1, total: 2 });
        cand.stages[0].seconds = 1.5 * 1.25; // +25% > 10%
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert_eq!(cmp.baseline_shard.as_deref(), Some("1/2"));
        assert!(
            cmp.has_regression(),
            "shard partials gate on metrics even though digests are exempt"
        );
        assert!(cmp
            .render_text()
            .contains("both runs are shard partials (1/2, 1/2)"));
    }

    #[test]
    fn absent_rss_skips_the_rss_row() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.peak_rss_bytes = None;
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        let row = cmp
            .rows
            .iter()
            .find(|r| r.metric == "peak_rss_bytes")
            .unwrap();
        assert_eq!(row.status, RowStatus::Skipped);
        assert!(!cmp.has_regression());
    }

    #[test]
    fn build_differences_are_annotated_not_gated() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.build[0].1 = "rustc 1.96.0".into();
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        assert_eq!(cmp.build_differs.len(), 1);
        assert!(!cmp.has_regression());
        assert!(cmp
            .render_text()
            .contains("build differs: rustc: rustc 1.95.0 -> rustc 1.96.0"));
    }

    #[test]
    fn json_rendering_parses_and_flags_regression() {
        let base = manifest("a");
        let mut cand = manifest("b");
        cand.wall_seconds = 4.0;
        let cmp = compare_manifests(&base, &cand, CompareOptions::default());
        let json = cmp.to_json();
        let reparsed = Json::parse(&json.render()).unwrap();
        assert_eq!(reparsed.get("regression"), Some(&Json::Bool(true)));
        assert!(reparsed.get("rows").and_then(Json::as_arr).unwrap().len() > 3);
    }
}
