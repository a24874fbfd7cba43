//! Run manifests: the per-run provenance record.
//!
//! A [`RunManifest`] captures everything needed to audit or reproduce
//! one CLI run: the command line, design, flattened configuration, RNG
//! seeds, per-stage wall times (from a [`crate::Recorder`] snapshot),
//! counters/gauges, peak RSS and content digests of every output
//! artifact. It serializes to a stable, diffable JSON document
//! ([`RunManifest::to_json`]) and parses back ([`RunManifest::parse`])
//! for `fusa report`.

use crate::histogram::HistogramSummary;
use crate::json::{escape, fmt_f64, Json};
use crate::recorder::Snapshot;
use std::fmt;
use std::fmt::Write as _;

/// Schema identifier stamped into every newly written manifest.
pub const MANIFEST_SCHEMA: &str = "fusa-obs/manifest/v4";

/// One quarantined campaign unit, as recorded in the manifest (the
/// obs-side mirror of the fault simulator's quarantine record).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QuarantinedUnitRecord {
    /// Flat unit index within the campaign.
    pub unit: u64,
    /// Workload the unit belonged to.
    pub workload: String,
    /// Fault-chunk index within the workload.
    pub chunk: u64,
    /// Attempts made before quarantining.
    pub attempts: u64,
    /// Rendered panic payload of the final attempt.
    pub panic: String,
}

/// The shard slice a run covered (`--shard index/total`), as recorded
/// in the manifest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// 1-based shard index.
    pub index: u64,
    /// Total number of shards.
    pub total: u64,
}

/// Provenance of one input to a `fusa merge` run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MergeSourceRecord {
    /// Path of the shard checkpoint that was merged.
    pub path: String,
    /// Shard index from the checkpoint's header, if it was sharded.
    pub shard_index: Option<u64>,
    /// Shard total from the checkpoint's header, if it was sharded.
    pub shard_total: Option<u64>,
    /// Units the checkpoint contributed to the merge.
    pub units: u64,
}

/// Wall time aggregate of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTime {
    /// Hierarchical span path (`campaign`, `campaign/golden`, …).
    pub name: String,
    /// Total wall seconds recorded under the path.
    pub seconds: f64,
    /// Number of completed spans aggregated.
    pub count: u64,
}

/// The per-run provenance record written as `results/<run>/manifest.json`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunManifest {
    /// Run identifier (also the results directory name), e.g.
    /// `analyze-sdram_ctrl`.
    pub run_id: String,
    /// The full command line that produced the run.
    pub command: String,
    /// Module name of the analyzed design.
    pub design: String,
    /// Unix timestamp (seconds) when the run started.
    pub created_unix: u64,
    /// End-to-end wall time of the command, seconds.
    pub wall_seconds: f64,
    /// Worker threads the campaign used (0 if no campaign ran).
    pub threads: usize,
    /// `true` when the run was interrupted (SIGINT/SIGTERM) and holds
    /// partial results; such runs are resumable via `--resume`.
    pub interrupted: bool,
    /// `true` when the run's durability degraded: a storage write
    /// (checkpoint append, trace sink, …) outlived its retry budget and
    /// the run continued in memory only. Results are complete but the
    /// on-disk checkpoint is not trustworthy for `--resume`.
    pub degraded: bool,
    /// The `--shard index/total` slice this run covered; `None` for a
    /// full (or merged) campaign. Sharded runs hold partial results by
    /// design and are completed via `fusa merge`.
    pub shard: Option<ShardRecord>,
    /// Campaign units quarantined after exhausting their retry budget.
    pub quarantined: Vec<QuarantinedUnitRecord>,
    /// For a `fusa merge` run: the shard checkpoints that were unioned,
    /// in input order. Empty for every other command.
    pub merged_from: Vec<MergeSourceRecord>,
    /// Peak resident set size in bytes; `None` where the platform
    /// offers no measurement (non-Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Build/toolchain provenance (`rustc`, `target`, `opt_level`,
    /// `git_commit`). Annotates cross-build comparisons; never part of
    /// digest computation.
    pub build: Vec<(String, String)>,
    /// Flattened configuration key/value pairs.
    pub config: Vec<(String, String)>,
    /// Named RNG seeds (`split`, `workloads`, `model`, …).
    pub seeds: Vec<(String, u64)>,
    /// Per-stage wall times from the recorder's span aggregates.
    pub stages: Vec<StageTime>,
    /// Counter values at the end of the run.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at the end of the run.
    pub gauges: Vec<(String, f64)>,
    /// Latency/value distribution summaries (`campaign.unit_seconds`,
    /// `train.loss`, …) with p50/p90/p99 quantile estimates.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// `artifact name → fnv1a64:<hex>` content digests.
    pub digests: Vec<(String, String)>,
}

/// Error from [`RunManifest::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The document is not valid JSON.
    Json(crate::json::JsonError),
    /// The document is JSON but not a manifest of [`MANIFEST_SCHEMA`]:
    /// another schema, or a field missing or malformed.
    Schema(String),
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "invalid JSON: {e}"),
            ManifestError::Schema(what) => write!(f, "not a run manifest: {what}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl RunManifest {
    /// Starts a manifest for `run_id` describing `design`.
    pub fn new(run_id: &str, command: &str, design: &str) -> RunManifest {
        RunManifest {
            run_id: run_id.to_string(),
            command: command.to_string(),
            design: design.to_string(),
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            peak_rss_bytes: crate::rss::peak_rss_bytes(),
            ..RunManifest::default()
        }
    }

    /// Folds a recorder snapshot into the manifest's stages, counters,
    /// gauges and histogram summaries (replacing any previous values).
    pub fn absorb_snapshot(&mut self, snapshot: &Snapshot) {
        self.stages = snapshot
            .spans
            .iter()
            .map(|(name, stat)| StageTime {
                name: name.clone(),
                seconds: stat.seconds,
                count: stat.count,
            })
            .collect();
        self.counters = snapshot.counters.clone();
        self.gauges = snapshot.gauges.clone();
        self.histograms = snapshot
            .histograms
            .iter()
            .map(|(name, histogram)| (name.clone(), histogram.summary()))
            .collect();
    }

    /// Records a named output digest.
    pub fn add_digest(&mut self, artifact: &str, digest: String) {
        self.digests.push((artifact.to_string(), digest));
    }

    /// Sum of wall seconds over *top-level* stages (paths without `/`).
    /// Nested spans are excluded so the sum is comparable to
    /// [`RunManifest::wall_seconds`] without double counting.
    pub fn top_level_stage_seconds(&self) -> f64 {
        self.stages
            .iter()
            .filter(|s| !s.name.contains('/'))
            .map(|s| s.seconds)
            .sum()
    }

    /// Fraction of the run's wall time covered by top-level stages, in
    /// `[0, 1]`; 0 when no wall time was recorded.
    pub fn stage_coverage(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        (self.top_level_stage_seconds() / self.wall_seconds).clamp(0.0, 1.0)
    }

    /// Serializes the manifest as pretty-printed, stably ordered JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", escape(MANIFEST_SCHEMA));
        let _ = writeln!(out, "  \"run_id\": {},", escape(&self.run_id));
        let _ = writeln!(out, "  \"command\": {},", escape(&self.command));
        let _ = writeln!(out, "  \"design\": {},", escape(&self.design));
        let _ = writeln!(out, "  \"created_unix\": {},", self.created_unix);
        let _ = writeln!(out, "  \"wall_seconds\": {},", fmt_f64(self.wall_seconds));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"interrupted\": {},", self.interrupted);
        let _ = writeln!(out, "  \"degraded\": {},", self.degraded);
        match self.shard {
            Some(shard) => {
                let _ = writeln!(
                    out,
                    "  \"shard\": {{\"index\": {}, \"total\": {}}},",
                    shard.index, shard.total
                );
            }
            None => out.push_str("  \"shard\": null,\n"),
        }
        match self.peak_rss_bytes {
            Some(bytes) => {
                let _ = writeln!(out, "  \"peak_rss_bytes\": {bytes},");
            }
            None => out.push_str("  \"peak_rss_bytes\": null,\n"),
        }
        write_str_map(&mut out, "build", &self.build);
        write_str_map(&mut out, "config", &self.config);
        write_num_map(&mut out, "seeds", &self.seeds, |v| v.to_string());
        out.push_str("  \"stages\": [\n");
        for (i, stage) in self.stages.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"seconds\": {}, \"count\": {}}}",
                escape(&stage.name),
                fmt_f64(stage.seconds),
                stage.count
            );
            out.push_str(if i + 1 < self.stages.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        if self.quarantined.is_empty() {
            out.push_str("  \"quarantined\": [],\n");
        } else {
            out.push_str("  \"quarantined\": [\n");
            for (i, q) in self.quarantined.iter().enumerate() {
                let _ = write!(
                    out,
                    "    {{\"unit\": {}, \"workload\": {}, \"chunk\": {}, \
                     \"attempts\": {}, \"panic\": {}}}",
                    q.unit,
                    escape(&q.workload),
                    q.chunk,
                    q.attempts,
                    escape(&q.panic)
                );
                out.push_str(if i + 1 < self.quarantined.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  ],\n");
        }
        if self.merged_from.is_empty() {
            out.push_str("  \"merged_from\": [],\n");
        } else {
            out.push_str("  \"merged_from\": [\n");
            for (i, source) in self.merged_from.iter().enumerate() {
                let shard_num =
                    |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
                let _ = write!(
                    out,
                    "    {{\"path\": {}, \"shard_index\": {}, \"shard_total\": {}, \
                     \"units\": {}}}",
                    escape(&source.path),
                    shard_num(source.shard_index),
                    shard_num(source.shard_total),
                    source.units
                );
                out.push_str(if i + 1 < self.merged_from.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  ],\n");
        }
        write_num_map(&mut out, "counters", &self.counters, |v| v.to_string());
        write_num_map(&mut out, "gauges", &self.gauges, |v| fmt_f64(*v));
        write_num_map(&mut out, "histograms", &self.histograms, |h| {
            format!(
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                h.count,
                fmt_f64(h.sum),
                fmt_f64(h.min),
                fmt_f64(h.max),
                fmt_f64(h.p50),
                fmt_f64(h.p90),
                fmt_f64(h.p99)
            )
        });
        write_str_map_last(&mut out, "digests", &self.digests);
        out.push_str("}\n");
        out
    }

    /// Parses a manifest previously produced by [`RunManifest::to_json`].
    /// Only the current schema is accepted. The durability and shard
    /// fields (`interrupted`, `degraded`, `shard`, `merged_from`,
    /// `quarantined`) default to a clean, complete, unmerged run when
    /// absent, as `degraded` was added within the schema.
    pub fn parse(text: &str) -> Result<RunManifest, ManifestError> {
        let root = Json::parse(text).map_err(ManifestError::Json)?;
        let schema = root
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| ManifestError::Schema("missing `schema` field".into()))?;
        if schema != MANIFEST_SCHEMA {
            return Err(ManifestError::Schema(format!(
                "unsupported schema `{schema}` (expected `{MANIFEST_SCHEMA}`)"
            )));
        }
        let str_field = |key: &str| -> Result<String, ManifestError> {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ManifestError::Schema(format!("missing string `{key}`")))
        };
        let u64_field = |key: &str| -> Result<u64, ManifestError> {
            root.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| ManifestError::Schema(format!("missing integer `{key}`")))
        };
        let f64_field = |key: &str| -> Result<f64, ManifestError> {
            root.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| ManifestError::Schema(format!("missing number `{key}`")))
        };

        let mut stages = Vec::new();
        for stage in root
            .get("stages")
            .and_then(Json::as_arr)
            .ok_or_else(|| ManifestError::Schema("missing array `stages`".into()))?
        {
            stages.push(StageTime {
                name: stage
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ManifestError::Schema("stage without `name`".into()))?
                    .to_string(),
                seconds: stage
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ManifestError::Schema("stage without `seconds`".into()))?,
                count: stage.get("count").and_then(Json::as_u64).unwrap_or(1),
            });
        }

        // An unavailable RSS is written as `null`.
        let peak_rss_bytes = match root.get("peak_rss_bytes") {
            Some(Json::Null) => None,
            Some(value) => {
                let bytes = value.as_u64().ok_or_else(|| {
                    ManifestError::Schema("bad value for `peak_rss_bytes`".into())
                })?;
                Some(bytes)
            }
            None => return Err(ManifestError::Schema("missing `peak_rss_bytes`".into())),
        };

        let interrupted = matches!(root.get("interrupted"), Some(Json::Bool(true)));
        // Degraded-durability flag; lenient so pre-flag manifests parse.
        let degraded = matches!(root.get("degraded"), Some(Json::Bool(true)));

        let shard = match root.get("shard") {
            Some(Json::Null) | None => None,
            Some(value) => Some(ShardRecord {
                index: value
                    .get("index")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ManifestError::Schema("shard without `index`".into()))?,
                total: value
                    .get("total")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| ManifestError::Schema("shard without `total`".into()))?,
            }),
        };
        let mut merged_from = Vec::new();
        if let Some(items) = root.get("merged_from").and_then(Json::as_arr) {
            for item in items {
                merged_from.push(MergeSourceRecord {
                    path: item
                        .get("path")
                        .and_then(Json::as_str)
                        .ok_or_else(|| {
                            ManifestError::Schema("merged_from entry without `path`".into())
                        })?
                        .to_string(),
                    shard_index: item.get("shard_index").and_then(Json::as_u64),
                    shard_total: item.get("shard_total").and_then(Json::as_u64),
                    units: item.get("units").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        let mut quarantined = Vec::new();
        if let Some(items) = root.get("quarantined").and_then(Json::as_arr) {
            for item in items {
                quarantined.push(QuarantinedUnitRecord {
                    unit: item.get("unit").and_then(Json::as_u64).ok_or_else(|| {
                        ManifestError::Schema("quarantined unit without `unit`".into())
                    })?,
                    workload: item
                        .get("workload")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    chunk: item.get("chunk").and_then(Json::as_u64).unwrap_or(0),
                    attempts: item.get("attempts").and_then(Json::as_u64).unwrap_or(0),
                    panic: item
                        .get("panic")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                });
            }
        }

        Ok(RunManifest {
            run_id: str_field("run_id")?,
            command: str_field("command")?,
            design: str_field("design")?,
            created_unix: u64_field("created_unix")?,
            wall_seconds: f64_field("wall_seconds")?,
            threads: u64_field("threads")? as usize,
            interrupted,
            degraded,
            shard,
            quarantined,
            merged_from,
            peak_rss_bytes,
            build: parse_str_map(&root, "build")?,
            config: parse_str_map(&root, "config")?,
            seeds: parse_map(&root, "seeds", Json::as_u64)?,
            stages,
            counters: parse_map(&root, "counters", Json::as_u64)?,
            gauges: parse_map(&root, "gauges", Json::as_f64)?,
            histograms: parse_map(&root, "histograms", parse_histogram_summary)?,
            digests: parse_str_map(&root, "digests")?,
        })
    }
}

fn parse_histogram_summary(value: &Json) -> Option<HistogramSummary> {
    Some(HistogramSummary {
        count: value.get("count").and_then(Json::as_u64)?,
        sum: value.get("sum").and_then(Json::as_f64)?,
        min: value.get("min").and_then(Json::as_f64)?,
        max: value.get("max").and_then(Json::as_f64)?,
        p50: value.get("p50").and_then(Json::as_f64)?,
        p90: value.get("p90").and_then(Json::as_f64)?,
        p99: value.get("p99").and_then(Json::as_f64)?,
    })
}

fn write_str_map(out: &mut String, key: &str, map: &[(String, String)]) {
    write_map_with(out, key, map, |v| escape(v), true);
}

fn write_str_map_last(out: &mut String, key: &str, map: &[(String, String)]) {
    write_map_with(out, key, map, |v| escape(v), false);
}

fn write_num_map<T>(out: &mut String, key: &str, map: &[(String, T)], fmt: impl Fn(&T) -> String) {
    write_map_with(out, key, map, fmt, true);
}

fn write_map_with<T>(
    out: &mut String,
    key: &str,
    map: &[(String, T)],
    fmt: impl Fn(&T) -> String,
    trailing_comma: bool,
) {
    let _ = write!(out, "  {}: {{", escape(key));
    if !map.is_empty() {
        out.push('\n');
        for (i, (name, value)) in map.iter().enumerate() {
            let _ = write!(out, "    {}: {}", escape(name), fmt(value));
            out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ");
    }
    out.push('}');
    out.push_str(if trailing_comma { ",\n" } else { "\n" });
}

fn parse_str_map(root: &Json, key: &str) -> Result<Vec<(String, String)>, ManifestError> {
    parse_map(root, key, |v| v.as_str().map(str::to_string))
}

fn parse_map<T>(
    root: &Json,
    key: &str,
    convert: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, ManifestError> {
    let members = root
        .get(key)
        .and_then(Json::as_obj)
        .ok_or_else(|| ManifestError::Schema(format!("missing object `{key}`")))?;
    members
        .iter()
        .map(|(name, value)| {
            convert(value)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| ManifestError::Schema(format!("bad value for `{key}.{name}`")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        RunManifest {
            run_id: "analyze-sdram_ctrl".into(),
            command: "fusa analyze sdram_ctrl --trace-out t.jsonl".into(),
            design: "sdram_ctrl".into(),
            created_unix: 1_754_000_000,
            wall_seconds: 2.5,
            threads: 8,
            interrupted: false,
            degraded: false,
            shard: None,
            quarantined: vec![],
            merged_from: vec![],
            peak_rss_bytes: Some(12_345_678),
            build: vec![
                ("opt_level".into(), "3".into()),
                ("rustc".into(), "rustc 1.95.0".into()),
                ("target".into(), "x86_64-unknown-linux-gnu".into()),
            ],
            config: vec![
                ("workloads.num".into(), "24".into()),
                ("train.epochs".into(), "300".into()),
            ],
            seeds: vec![("split".into(), 0x5117), ("workloads".into(), 7)],
            stages: vec![
                StageTime {
                    name: "campaign".into(),
                    seconds: 1.5,
                    count: 1,
                },
                StageTime {
                    name: "campaign/golden".into(),
                    seconds: 0.25,
                    count: 24,
                },
                StageTime {
                    name: "train".into(),
                    seconds: 0.75,
                    count: 1,
                },
            ],
            counters: vec![("campaign.gate_evals".into(), 123_456_789)],
            gauges: vec![("campaign.utilization".into(), 0.875)],
            histograms: vec![(
                "campaign.unit_seconds".into(),
                HistogramSummary {
                    count: 96,
                    sum: 1.44,
                    min: 0.01,
                    max: 0.03,
                    p50: 0.015,
                    p90: 0.025,
                    p99: 0.03,
                },
            )],
            digests: vec![("nodes_csv".into(), "fnv1a64:00ff00ff00ff00ff".into())],
        }
    }

    #[test]
    fn round_trips_through_json() {
        let manifest = sample();
        let text = manifest.to_json();
        let parsed = RunManifest::parse(&text).expect("parses");
        assert_eq!(parsed, manifest);
        // And the re-rendering is byte-identical (stable ordering).
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn round_trips_empty_maps() {
        let manifest = RunManifest {
            run_id: "x".into(),
            command: "fusa".into(),
            design: "d".into(),
            ..RunManifest::default()
        };
        let parsed = RunManifest::parse(&manifest.to_json()).expect("parses");
        assert_eq!(parsed, manifest);
    }

    #[test]
    fn top_level_sum_skips_nested_stages() {
        let manifest = sample();
        assert!((manifest.top_level_stage_seconds() - 2.25).abs() < 1e-12);
        assert!((manifest.stage_coverage() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn absent_rss_round_trips_as_null() {
        let manifest = RunManifest {
            run_id: "x".into(),
            command: "fusa".into(),
            design: "d".into(),
            peak_rss_bytes: None,
            ..RunManifest::default()
        };
        let text = manifest.to_json();
        assert!(text.contains("\"peak_rss_bytes\": null"));
        assert_eq!(RunManifest::parse(&text).expect("parses"), manifest);
    }

    #[test]
    fn absent_durability_and_shard_fields_read_as_a_clean_full_run() {
        // `degraded` was added within v4, so a v4 document may lack it;
        // the other durability and shard fields default the same way.
        let clean = sample();
        let text = clean
            .to_json()
            .replace("  \"interrupted\": false,\n", "")
            .replace("  \"degraded\": false,\n", "")
            .replace("  \"shard\": null,\n", "")
            .replace("  \"quarantined\": [],\n", "")
            .replace("  \"merged_from\": [],\n", "");
        assert!(!text.contains("interrupted") && !text.contains("degraded"));
        assert!(!text.contains("shard") && !text.contains("merged_from"));
        assert_eq!(RunManifest::parse(&text).expect("parses"), clean);
    }

    #[test]
    fn shard_and_merge_fields_round_trip() {
        let mut manifest = sample();
        manifest.shard = Some(ShardRecord { index: 2, total: 3 });
        let text = manifest.to_json();
        assert!(text.contains("\"shard\": {\"index\": 2, \"total\": 3}"));
        let parsed = RunManifest::parse(&text).expect("parses");
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.to_json(), text);

        let mut merged = sample();
        merged.merged_from = vec![
            MergeSourceRecord {
                path: "shards/shard1.jsonl".into(),
                shard_index: Some(1),
                shard_total: Some(2),
                units: 5,
            },
            MergeSourceRecord {
                path: "shards/full.jsonl".into(),
                shard_index: None,
                shard_total: None,
                units: 3,
            },
        ];
        let text = merged.to_json();
        assert!(text.contains("\"merged_from\": [\n"));
        assert!(text.contains("\"shard_index\": null"));
        let parsed = RunManifest::parse(&text).expect("parses");
        assert_eq!(parsed, merged);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn durability_fields_round_trip() {
        let mut manifest = sample();
        manifest.interrupted = true;
        manifest.degraded = true;
        manifest.quarantined = vec![QuarantinedUnitRecord {
            unit: 17,
            workload: "uniform_random#0".into(),
            chunk: 3,
            attempts: 3,
            panic: "injected unit fault (unit 17, attempt 3)".into(),
        }];
        let text = manifest.to_json();
        assert!(text.contains("\"interrupted\": true"));
        assert!(text.contains("\"degraded\": true"));
        assert!(text.contains("\"quarantined\": [\n"));
        let parsed = RunManifest::parse(&text).expect("parses");
        assert_eq!(parsed, manifest);
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(matches!(
            RunManifest::parse("{}"),
            Err(ManifestError::Schema(_))
        ));
        assert!(matches!(
            RunManifest::parse("not json"),
            Err(ManifestError::Json(_))
        ));
        let wrong = r#"{"schema": "something/else"}"#;
        let err = RunManifest::parse(wrong).unwrap_err();
        assert!(err.to_string().contains("unsupported schema"));
        // An older schema is rejected the same way, even with every
        // current field present.
        let v3 = sample()
            .to_json()
            .replace("fusa-obs/manifest/v4", "fusa-obs/manifest/v3");
        let err = RunManifest::parse(&v3).unwrap_err();
        assert!(matches!(err, ManifestError::Schema(_)), "{err}");
        assert!(err.to_string().contains("fusa-obs/manifest/v3"), "{err}");
    }

    #[test]
    fn absorb_snapshot_maps_all_sections() {
        let recorder = crate::Recorder::new();
        recorder.time("stage", || recorder.add("n", 2));
        recorder.gauge_set("g", 1.0);
        let mut manifest = RunManifest::new("run", "cmd", "design");
        manifest.absorb_snapshot(&recorder.snapshot());
        assert_eq!(manifest.stages.len(), 1);
        assert_eq!(manifest.stages[0].name, "stage");
        assert_eq!(manifest.counters, vec![("n".to_string(), 2)]);
        assert_eq!(manifest.gauges, vec![("g".to_string(), 1.0)]);
    }
}
