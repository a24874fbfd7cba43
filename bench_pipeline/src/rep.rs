//! One repetition: a fresh child process that loads the workload's
//! designs and runs its commands once, untraced or traced, then writes a
//! [`RepResult`] as JSON for the harness to read.

use crate::commands::{self, Digests, Facts};
use crate::probe::{self, Occupancy, Speeds};
use crate::sys::{self, Clock};
use crate::trace::{self, Tracer};
use crate::workload::Workload;
use fusa_obs::Json;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Spans whose peak RSS the traced repetition records (`<span>_peak_mb`).
pub const PEAK_SPANS: &[&str] = &[
    "netlist.structural",
    "lint.context",
    "faultsim.campaign",
    "core.train",
];

/// One command invocation of a repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandRecord {
    /// `<command> <design>`, e.g. `lint synth_10k`.
    pub label: String,
    /// Process CPU seconds of the command's library calls, all threads.
    pub cpu_s: f64,
    /// Wall seconds of the same calls.
    pub wall_s: f64,
    /// Monotonic seconds, comparable between processes, when the
    /// command started.
    pub start_s: f64,
    /// Thread CPU seconds of the reference work where and while the
    /// command ran, filled in by the harness from its speed probe.
    pub reference_s: f64,
    /// Why the command failed (error or panic), if it did.
    pub error: Option<String>,
    /// Artifact digests of a successful command.
    pub digests: Digests,
}

impl CommandRecord {
    /// CPU seconds scaled to the reference host speed; 0 for a command
    /// that never ran.
    pub fn norm_s(&self) -> f64 {
        if self.reference_s > 0.0 {
            probe::normalize(self.cpu_s, self.reference_s)
        } else {
            0.0
        }
    }
}

/// Everything one repetition reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RepResult {
    /// Whether the commands ran as traced layer calls.
    pub traced: bool,
    /// The commands, in run order.
    pub commands: Vec<CommandRecord>,
    /// The process's peak RSS after its commands, MiB.
    pub peak_rss_mb: Option<f64>,
    /// Counts summed over the commands.
    pub facts: Facts,
    /// Traced only: `<span>_s` self CPU seconds summed by span name
    /// (scaled to the reference speed by the harness), and
    /// `<span>_peak_mb` for [`PEAK_SPANS`].
    pub layers: Vec<(String, f64)>,
    /// Traced only: share of command CPU time no layer span covers.
    pub unattributed_frac: f64,
    /// Traced only: the raw spans, for `--trace-out`.
    pub spans: Vec<Json>,
}

impl RepResult {
    /// A repetition whose process produced no result.
    pub fn lost(workload: &Workload, traced: bool, why: &str) -> RepResult {
        RepResult {
            traced,
            commands: (0..workload.commands.len())
                .map(|i| CommandRecord {
                    label: workload.label(i),
                    cpu_s: 0.0,
                    wall_s: 0.0,
                    start_s: 0.0,
                    reference_s: 0.0,
                    error: Some(why.to_string()),
                    digests: Vec::new(),
                })
                .collect(),
            peak_rss_mb: None,
            facts: Facts::default(),
            layers: Vec::new(),
            unattributed_frac: 0.0,
            spans: Vec::new(),
        }
    }

    /// Summed normalized seconds of the commands.
    pub fn command_norm_s(&self) -> f64 {
        self.commands.iter().map(CommandRecord::norm_s).sum()
    }

    /// Fills in each command's reference time from the probe's `speeds`
    /// where `occupancy` saw the repetition's threads run, and scales the
    /// layer seconds by the repetition's overall ratio of normalized to
    /// CPU time.
    pub fn scale_to_reference(&mut self, speeds: &Speeds, occupancy: &[Occupancy]) {
        for command in &mut self.commands {
            let end_s = command.start_s + command.wall_s;
            command.reference_s = speeds.reference_s(occupancy, command.start_s, end_s);
        }
        let cpu_s: f64 = self.commands.iter().map(|c| c.cpu_s).sum();
        if cpu_s > 0.0 {
            let factor = self.command_norm_s() / cpu_s;
            for (name, value) in &mut self.layers {
                if name.ends_with("_s") {
                    *value *= factor;
                }
            }
        }
    }

    /// A traced layer metric, `0` when the repetition did not record it.
    pub fn layer(&self, name: &str) -> f64 {
        self.layers
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// Serializes the result.
    pub fn to_json(&self) -> Json {
        let num_list = |values: &[f64]| Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
        let f = &self.facts;
        Json::Obj(vec![
            ("traced".into(), Json::Bool(self.traced)),
            (
                "commands".into(),
                Json::Arr(
                    self.commands
                        .iter()
                        .map(|c| {
                            Json::Obj(vec![
                                ("label".into(), Json::Str(c.label.clone())),
                                ("cpu_s".into(), Json::Num(c.cpu_s)),
                                ("wall_s".into(), Json::Num(c.wall_s)),
                                ("start_s".into(), Json::Num(c.start_s)),
                                ("reference_s".into(), Json::Num(c.reference_s)),
                                (
                                    "error".into(),
                                    c.error.clone().map_or(Json::Null, Json::Str),
                                ),
                                ("digests".into(), digests_json(&c.digests)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "peak_rss_mb".into(),
                self.peak_rss_mb.map_or(Json::Null, Json::Num),
            ),
            (
                "facts".into(),
                Json::Obj(vec![
                    ("fault_cycles".into(), Json::Num(f.fault_cycles as f64)),
                    ("gate_evals".into(), Json::Num(f.gate_evals as f64)),
                    (
                        "gate_evals_full".into(),
                        Json::Num(f.gate_evals_full as f64),
                    ),
                    ("units".into(), Json::Num(f.units as f64)),
                    ("units_failed".into(), Json::Num(f.units_failed as f64)),
                    ("campaign_wall_s".into(), Json::Num(f.campaign_wall_s)),
                    ("worker_busy_s".into(), Json::Num(f.worker_busy_s)),
                    ("worker_capacity_s".into(), Json::Num(f.worker_capacity_s)),
                    (
                        "checkpoint_bytes".into(),
                        Json::Num(f.checkpoint_bytes as f64),
                    ),
                    ("train_epochs".into(), Json::Num(f.train_epochs as f64)),
                    ("auc".into(), num_list(&f.auc)),
                    ("accuracy".into(), num_list(&f.accuracy)),
                ]),
            ),
            (
                "layers".into(),
                Json::Obj(
                    self.layers
                        .iter()
                        .map(|(name, v)| (name.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "unattributed_frac".into(),
                Json::Num(self.unattributed_frac),
            ),
            ("spans".into(), Json::Arr(self.spans.clone())),
        ])
    }

    /// Parses what [`RepResult::to_json`] wrote.
    pub fn from_json(json: &Json) -> Result<RepResult, String> {
        let field = |obj: &Json, key: &str| -> Result<Json, String> {
            obj.get(key)
                .cloned()
                .ok_or_else(|| format!("rep result lacks `{key}`"))
        };
        let num = |obj: &Json, key: &str| -> Result<f64, String> {
            field(obj, key)?
                .as_f64()
                .ok_or_else(|| format!("rep result `{key}` is not a number"))
        };
        let count = |obj: &Json, key: &str| -> Result<u64, String> {
            field(obj, key)?
                .as_u64()
                .ok_or_else(|| format!("rep result `{key}` is not a count"))
        };
        let num_list = |obj: &Json, key: &str| -> Result<Vec<f64>, String> {
            field(obj, key)?
                .as_arr()
                .ok_or_else(|| format!("rep result `{key}` is not a list"))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("rep result `{key}` holds a non-number"))
                })
                .collect()
        };
        let commands = field(json, "commands")?
            .as_arr()
            .ok_or("rep result `commands` is not a list")?
            .iter()
            .map(|c| {
                Ok(CommandRecord {
                    label: field(c, "label")?
                        .as_str()
                        .ok_or("command label is not a string")?
                        .to_string(),
                    cpu_s: num(c, "cpu_s")?,
                    wall_s: num(c, "wall_s")?,
                    start_s: num(c, "start_s")?,
                    reference_s: num(c, "reference_s")?,
                    error: field(c, "error")?.as_str().map(str::to_string),
                    digests: digests_from_json(&field(c, "digests")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let f = field(json, "facts")?;
        let facts = Facts {
            fault_cycles: count(&f, "fault_cycles")?,
            gate_evals: count(&f, "gate_evals")?,
            gate_evals_full: count(&f, "gate_evals_full")?,
            units: count(&f, "units")?,
            units_failed: count(&f, "units_failed")?,
            campaign_wall_s: num(&f, "campaign_wall_s")?,
            worker_busy_s: num(&f, "worker_busy_s")?,
            worker_capacity_s: num(&f, "worker_capacity_s")?,
            checkpoint_bytes: count(&f, "checkpoint_bytes")?,
            train_epochs: count(&f, "train_epochs")?,
            auc: num_list(&f, "auc")?,
            accuracy: num_list(&f, "accuracy")?,
        };
        let layers = field(json, "layers")?
            .as_obj()
            .ok_or("rep result `layers` is not an object")?
            .iter()
            .map(|(name, v)| {
                Ok((
                    name.clone(),
                    v.as_f64().ok_or("layer value is not a number")?,
                ))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(RepResult {
            traced: matches!(field(json, "traced")?, Json::Bool(true)),
            commands,
            peak_rss_mb: field(json, "peak_rss_mb")?.as_f64(),
            facts,
            layers,
            unattributed_frac: num(json, "unattributed_frac")?,
            spans: field(json, "spans")?
                .as_arr()
                .ok_or("rep result `spans` is not a list")?
                .to_vec(),
        })
    }
}

/// Digests as a JSON object, artifact → digest.
pub fn digests_json(digests: &Digests) -> Json {
    Json::Obj(
        digests
            .iter()
            .map(|(artifact, digest)| (artifact.clone(), Json::Str(digest.clone())))
            .collect(),
    )
}

/// Parses a JSON object of artifact → digest.
pub fn digests_from_json(json: &Json) -> Result<Digests, String> {
    json.as_obj()
        .ok_or("digests are not an object")?
        .iter()
        .map(|(artifact, digest)| {
            let digest = digest.as_str().ok_or("digest is not a string")?;
            Ok((artifact.clone(), digest.to_string()))
        })
        .collect()
}

/// Runs repetition `rep` of `workload` in this process. Each command
/// gets a fresh global recorder, as a fresh CLI process would, and its
/// checkpoint lives in `rep_dir`.
pub fn run(
    workload: &Workload,
    seed: u64,
    inputs: &Path,
    rep_dir: &Path,
    rep: usize,
    traced: bool,
) -> Result<RepResult, String> {
    let config = workload.config(seed);
    let mut tracer = Tracer::default();
    let netlists = if traced {
        tracer.span("netlist.parse", |_| workload.load(inputs))?
    } else {
        workload.load(inputs)?
    };
    let mut commands = Vec::new();
    let mut facts = Facts::default();
    for (index, &(command, design)) in workload.commands.iter().enumerate() {
        let netlist = &netlists[design];
        // One checkpoint per design: `resume` replays the one `faults` wrote.
        let checkpoint = rep_dir.join(format!("{}.checkpoint.jsonl", netlist.name()));
        fusa_obs::global().reset();
        let start_s = sys::seconds(Clock::Monotonic);
        let started = Instant::now();
        let cpu_started = sys::seconds(Clock::Process);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            if traced {
                commands::run_traced(&mut tracer, command, netlist, &config, &checkpoint)
            } else {
                commands::run(command, netlist, &config, &checkpoint)
            }
        }));
        let cpu_s = sys::seconds(Clock::Process) - cpu_started;
        let wall_s = started.elapsed().as_secs_f64();
        let (error, digests) = match result {
            Ok(Ok(outcome)) => {
                facts.absorb(outcome.facts);
                (None, outcome.digests)
            }
            Ok(Err(error)) => (Some(error), Vec::new()),
            Err(_) => (Some(format!("{} panicked", command.name())), Vec::new()),
        };
        commands.push(CommandRecord {
            label: workload.label(index),
            cpu_s,
            wall_s,
            start_s,
            reference_s: 0.0,
            error,
            digests,
        });
    }
    let peak_rss_mb = trace::peak_rss_mb();
    let layers = if traced {
        layer_metrics(&tracer)
    } else {
        Vec::new()
    };
    Ok(RepResult {
        traced,
        commands,
        peak_rss_mb,
        facts,
        layers,
        unattributed_frac: if traced {
            tracer.unattributed_frac()
        } else {
            0.0
        },
        spans: if traced {
            tracer.to_json(workload.name, rep)
        } else {
            Vec::new()
        },
    })
}

/// Self CPU seconds by layer span (command roots excluded) and the peaks
/// of [`PEAK_SPANS`].
fn layer_metrics(tracer: &Tracer) -> Vec<(String, f64)> {
    let mut layers: Vec<(String, f64)> = tracer
        .self_seconds_by_name()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("command."))
        .map(|(name, seconds)| (format!("{name}_s"), seconds))
        .collect();
    for name in PEAK_SPANS {
        if let Some(peak) = tracer.peak_mb(name) {
            layers.push((format!("{name}_peak_mb"), peak));
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::Command;
    use crate::workload::Design;

    /// Every command sequence of the four workloads on one small design,
    /// at the fast configuration, in-process.
    const SMOKE: Workload = Workload {
        name: "smoke",
        designs: &[Design::Builtin("or1200_icfsm")],
        fast: true,
        commands: &[
            (Command::Analyze, 0),
            (Command::Lint, 0),
            (Command::Rank, 0),
            (Command::Faults, 0),
            (Command::Resume, 0),
        ],
    };

    fn smoke_rep(traced: bool) -> RepResult {
        let dir = std::env::temp_dir().join(format!(
            "bench_pipeline_smoke_{}_{traced}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let rep = run(&SMOKE, 1, Path::new(""), &dir, 0, traced).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        rep
    }

    #[test]
    fn traced_and_untraced_commands_produce_identical_digests() {
        let plain = smoke_rep(false);
        let traced = smoke_rep(true);
        for (a, b) in plain.commands.iter().zip(&traced.commands) {
            assert_eq!(a.error, None, "{}", a.label);
            assert_eq!(b.error, None, "{}", b.label);
            assert!(!a.digests.is_empty(), "{}", a.label);
            assert_eq!(a.digests, b.digests, "{}", a.label);
        }
        let digests_of = |label: &str| {
            &plain
                .commands
                .iter()
                .find(|c| c.label == label)
                .unwrap()
                .digests
        };
        assert_eq!(
            digests_of("resume or1200_icfsm"),
            digests_of("faults or1200_icfsm")
        );
        assert_eq!(plain.facts.exact_counts(), traced.facts.exact_counts());
        assert!(plain.facts.fault_cycles > 0 && plain.facts.train_epochs > 0);
        assert!(
            traced.unattributed_frac < 0.10,
            "{}",
            traced.unattributed_frac
        );
        for layer in [
            "lint.context_s",
            "graph.build_s",
            "faultsim.campaign_s",
            "faultsim.replay_s",
            "core.train_s",
        ] {
            assert!(traced.layer(layer) > 0.0, "{layer} not traced");
        }
        assert!(plain.layers.is_empty() && plain.spans.is_empty());
    }

    #[test]
    fn rep_results_round_trip_through_json() {
        let rep = RepResult {
            traced: true,
            commands: vec![CommandRecord {
                label: "faults synth_10k".to_string(),
                cpu_s: 1.75,
                wall_s: 1.25,
                start_s: 1234.5,
                reference_s: 0.0015,
                error: Some("boom".to_string()),
                digests: vec![(
                    "summary.txt".to_string(),
                    "fnv1a64:0123456789abcdef".to_string(),
                )],
            }],
            peak_rss_mb: Some(42.5),
            facts: Facts {
                fault_cycles: 1 << 40,
                units: 7,
                campaign_wall_s: 0.5,
                auc: vec![0.9, 0.8],
                accuracy: vec![0.7],
                ..Facts::default()
            },
            layers: vec![("lint.context_s".to_string(), 0.125)],
            unattributed_frac: 0.01,
            spans: vec![Json::Obj(vec![(
                "name".into(),
                Json::Str("core.train".into()),
            )])],
        };
        let text = rep.to_json().render();
        let parsed = RepResult::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, rep);
        let lost = RepResult::lost(&SMOKE, false, "killed");
        let parsed = RepResult::from_json(&Json::parse(&lost.to_json().render()).unwrap()).unwrap();
        assert_eq!(parsed, lost);
        assert_eq!(parsed.commands.len(), SMOKE.commands.len());
    }
}
