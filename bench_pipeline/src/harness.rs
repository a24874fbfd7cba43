//! The harness process of one run: it makes the workload's inputs, times
//! set-up, runs repetitions as child processes in a closed loop until
//! the run's seconds are spent, checks every digest, and reports.

use crate::commands::{Digests, Facts};
use crate::probe::{self, Occupancy, Probe};
use crate::rep::{digests_from_json, digests_json, CommandRecord, RepResult};
use crate::stats::{loglog_slope, median, quartiles};
use crate::sys::{self, Clock};
use crate::workload::Workload;
use fusa_lint::LintContext;
use fusa_obs::Json;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command as Process, Stdio};
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("command_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, reported with `--trace 1`. Names
/// ending in `_s` or `_peak_mb` whose stem is a span are read from the
/// traced repetitions' spans; the rest are derived in [`per_layer`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.parse_s", "s"),
    ("netlist.structural_s", "s"),
    ("netlist.structural_peak_mb", "MiB"),
    ("core.rank_score_s", "s"),
    ("lint.context_s", "s"),
    ("lint.context_peak_mb", "MiB"),
    ("lint.passes_s", "s"),
    ("lint.report_s", "s"),
    ("lint.untestable_s", "s"),
    ("lint.context_exp", "exponent"),
    ("graph.build_s", "s"),
    ("graph.features_s", "s"),
    ("logicsim.workloads_s", "s"),
    ("faultsim.fault_list_s", "s"),
    ("faultsim.campaign_s", "s"),
    ("faultsim.campaign_peak_mb", "MiB"),
    ("faultsim.fault_cycles_per_s", "1/s"),
    ("faultsim.worker_busy_frac", "frac"),
    ("faultsim.fault_cycles", "count"),
    ("faultsim.gate_evals", "count"),
    ("faultsim.units", "count"),
    ("faultsim.gate_evals_saved_frac", "frac"),
    ("faultsim.units_failed", "count"),
    ("faultsim.checkpoint_bytes", "B"),
    ("faultsim.replay_s", "s"),
    ("faultsim.dataset_s", "s"),
    ("core.train_s", "s"),
    ("core.train_peak_mb", "MiB"),
    ("core.epoch_s", "s"),
    ("core.train_epochs", "count"),
    ("core.gcn_auc", "frac"),
    ("core.gcn_accuracy", "frac"),
    ("core.report_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
];

/// Fewest repetitions of an untraced run, even past its seconds.
const MIN_REPS: usize = 3;
/// Fewest repetitions of a traced run: one untraced, one traced.
const MIN_TRACED_RUN_REPS: usize = 2;
/// After this many seconds no repetition starts and a running one is
/// killed, so a run ends well inside the 180 s it may take.
const HARD_LIMIT_S: f64 = 150.0;
/// Set-up is timed over at least this many loads...
const MIN_LOADS: usize = 7;
/// ...and at least this many seconds, and reported as the median load.
const MIN_SETUP_S: f64 = 1.0;
/// Scratch directory, relative to the working directory; removed at exit.
const WORK_ROOT: &str = ".bench_pipeline_work";
/// File a child process writes its [`RepResult`] to, in its rep dir.
pub const RESULT_FILE: &str = "result.json";
/// Seed-1 digests of every command of every workload.
const PINS: &str = include_str!("../pins.json");

/// What one run measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the commands' stochastic inputs.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Alternate traced and untraced repetitions and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
    /// Append the run's full record, as one JSON line, to this file.
    pub out: Option<PathBuf>,
    /// Write the traced repetitions' spans, as JSONL, to this file.
    pub trace_out: Option<PathBuf>,
}

/// Runs the benchmark once and prints its result; `Ok(false)` when an
/// output was wrong.
pub fn run(options: &Options) -> Result<bool, String> {
    let started = Instant::now();
    let workload = &options.workload;
    let work = WorkDir::create()?;
    let inputs = work.0.join("inputs");
    std::fs::create_dir_all(&inputs)
        .map_err(|e| format!("cannot create `{}`: {e}", inputs.display()))?;
    workload.write_inputs(&inputs)?;
    let probe = Probe::start();
    let (setup_s, loads) = measure_setup(workload, &inputs, &probe)?;

    let window = Instant::now();
    let reps = run_reps(options, &work.0, &inputs, &probe, started)?;
    let window_s = window.elapsed().as_secs_f64();
    let verdict = verify(workload, options.seed, &reps)?;
    let metrics: Vec<(&str, &str, f64)> = if options.trace {
        per_layer(&reps, scaling_exponent(workload)?)
    } else {
        end_to_end(&reps, setup_s)
    };
    let correct = verdict.problems.is_empty();

    let traced = reps.iter().filter(|r| r.traced).count();
    println!(
        "bench_pipeline {} seed {}: {} reps ({traced} traced) in {window_s:.1} s; set-up median of {loads} loads",
        workload.name,
        options.seed,
        reps.len(),
    );
    for (index, _) in workload.commands.iter().enumerate() {
        let label = workload.label(index);
        let norm = command_samples(&reps, &label, CommandRecord::norm_s);
        if !norm.is_empty() {
            let (q1, q3) = quartiles(&norm);
            println!(
                "  {label:<22} {:>8.4} s  [{q1:.4}, {q3:.4}]  cpu {:.4} s  wall {:.4} s  n={}",
                median(&norm),
                median(&command_samples(&reps, &label, |c| c.cpu_s)),
                median(&command_samples(&reps, &label, |c| c.wall_s)),
                norm.len()
            );
        }
    }
    for (name, unit, value) in &metrics {
        println!("  {name:<30} {value:>14.6} {unit}");
    }
    for problem in &verdict.problems {
        eprintln!("bench_pipeline: {problem}");
    }

    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                let entry = Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    );
    if let Some(path) = &options.out {
        let record = run_record(options, window_s, &reps, &verdict, &metrics_json);
        append_line(path, &record.render())?;
    }
    if let Some(path) = &options.trace_out {
        let lines: String = reps
            .iter()
            .flat_map(|r| &r.spans)
            .map(|span| span.render() + "\n")
            .collect();
        std::fs::write(path, lines)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    println!(
        "{}",
        result_json(correct, verdict.attempted, verdict.failed, metrics_json).render()
    );
    Ok(correct)
}

/// The line the run ends with.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), metrics),
    ])
}

/// The run's scratch directory, removed with everything in it on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = Path::new(WORK_ROOT).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create `{}`: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the root.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

/// Median normalized seconds of one load of every design of the
/// workload, over at least [`MIN_LOADS`] loads and [`MIN_SETUP_S`]
/// seconds, and the number of loads.
fn measure_setup(
    workload: &Workload,
    inputs: &Path,
    probe: &Probe,
) -> Result<(f64, usize), String> {
    let begun = Instant::now();
    // CPU seconds of each load, with where and when it ran.
    let mut loads: Vec<(f64, Occupancy)> = Vec::new();
    while loads.len() < MIN_LOADS || begun.elapsed().as_secs_f64() < MIN_SETUP_S {
        let cpu = sys::current_cpu().unwrap_or(0);
        let (at, load) = (sys::seconds(Clock::Monotonic), sys::seconds(Clock::Thread));
        black_box(workload.load(inputs)?);
        let cpu_s = sys::seconds(Clock::Thread) - load;
        let middle = (at + sys::seconds(Clock::Monotonic)) / 2.0;
        loads.push((cpu_s, (middle, cpu)));
    }
    let speeds = probe.speeds();
    let times: Vec<f64> = loads
        .iter()
        .map(|&(cpu_s, seen)| probe::normalize(cpu_s, speeds.reference_s(&[seen], seen.0, seen.0)))
        .collect();
    Ok((median(&times), times.len()))
}

/// Repetitions, one child process at a time, until the window is spent:
/// no repetition starts that the median so far says would overrun it,
/// once the minimum count has run. A traced run alternates untraced and
/// traced repetitions, untraced first.
fn run_reps(
    options: &Options,
    work: &Path,
    inputs: &Path,
    probe: &Probe,
    started: Instant,
) -> Result<Vec<RepResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let min_reps = if options.trace {
        MIN_TRACED_RUN_REPS
    } else {
        MIN_REPS
    };
    let window = Instant::now();
    let mut reps = Vec::new();
    let mut walls = Vec::new();
    loop {
        let index = reps.len();
        let traced = options.trace && index % 2 == 1;
        let begun = Instant::now();
        let rep = spawn_rep(&exe, options, work, inputs, index, traced, started).map(
            |(mut rep, occupancy)| {
                rep.scale_to_reference(&probe.speeds(), &occupancy);
                rep
            },
        );
        walls.push(begun.elapsed().as_secs_f64());
        let lost = rep.is_err();
        reps.push(rep.unwrap_or_else(|why| RepResult::lost(&options.workload, traced, &why)));
        let elapsed = window.elapsed().as_secs_f64();
        if lost
            || started.elapsed().as_secs_f64() > HARD_LIMIT_S
            || (reps.len() >= min_reps && elapsed + median(&walls) > options.seconds)
        {
            return Ok(reps);
        }
    }
}

/// Runs repetition `index` in a child process of this executable and
/// reads its result, with where the child's threads were seen running;
/// `Err` says why the repetition produced none.
fn spawn_rep(
    exe: &Path,
    options: &Options,
    work: &Path,
    inputs: &Path,
    index: usize,
    traced: bool,
    started: Instant,
) -> Result<(RepResult, Vec<Occupancy>), String> {
    let rep_dir = work.join(format!("rep{index}"));
    std::fs::create_dir_all(&rep_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", rep_dir.display()))?;
    let result = (|| {
        let mut child = Process::new(exe)
            .args(["--one", options.workload.name])
            .args(["--seed", &options.seed.to_string()])
            .arg("--inputs")
            .arg(inputs)
            .arg("--rep-dir")
            .arg(&rep_dir)
            .args(["--rep", &index.to_string()])
            .args(["--traced", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start repetition {index}: {e}"))?;
        let mut occupancy = Vec::new();
        let status = loop {
            if let Some(status) = child
                .try_wait()
                .map_err(|e| format!("repetition {index}: {e}"))?
            {
                break status;
            }
            let at = sys::seconds(Clock::Monotonic);
            occupancy.extend(
                sys::running_cpus(child.id())
                    .into_iter()
                    .map(|cpu| (at, cpu)),
            );
            if started.elapsed().as_secs_f64() > HARD_LIMIT_S {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("repetition {index} killed after {HARD_LIMIT_S} s"));
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        if !status.success() {
            return Err(format!("repetition {index} exited with {status}"));
        }
        let path = rep_dir.join(RESULT_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("bad repetition result: {e}"))?;
        Ok((RepResult::from_json(&json)?, occupancy))
    })();
    let _ = std::fs::remove_dir_all(&rep_dir);
    result
}

/// Outcome of the correctness checks.
#[derive(Debug, Default)]
struct Verdict {
    /// Command invocations.
    attempted: u64,
    /// Invocations that errored, panicked or produced a wrong digest.
    failed: u64,
    /// Everything wrong, one line each.
    problems: Vec<String>,
}

/// The seed-1 pins of `workload`, label → digests.
fn pins(workload: &str) -> Result<Vec<(String, Digests)>, String> {
    let json = Json::parse(PINS).map_err(|e| format!("bad pins.json: {e}"))?;
    json.get(workload)
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("pins.json has no workload `{workload}`"))?
        .iter()
        .map(|(label, digests)| Ok((label.clone(), digests_from_json(digests)?)))
        .collect()
}

/// Checks every command of every repetition: it ran, its digests equal
/// the pins (seed 1) or the first repetition's (other seeds), and a
/// resume reproduces the digests of the `faults` run before it. Counts
/// must repeat exactly across repetitions.
fn verify(workload: &Workload, seed: u64, reps: &[RepResult]) -> Result<Verdict, String> {
    let pinned = if seed == 1 {
        pins(workload.name)?
    } else {
        Vec::new()
    };
    let reference = |label: &str| -> Option<Digests> {
        if seed == 1 {
            return pinned
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, d)| d.clone());
        }
        reps.iter()
            .flat_map(|r| &r.commands)
            .find(|c| c.label == label && c.error.is_none())
            .map(|c| c.digests.clone())
    };
    let mut verdict = Verdict::default();
    for (index, rep) in reps.iter().enumerate() {
        for command in &rep.commands {
            verdict.attempted += 1;
            let problem = if let Some(error) = &command.error {
                Some(error.clone())
            } else if !same_digests(Some(&command.digests), reference(&command.label).as_ref()) {
                Some(format!(
                    "digests {} differ from {} {}",
                    digests_json(&command.digests).render(),
                    if seed == 1 {
                        "the pins"
                    } else {
                        "the first repetition's"
                    },
                    reference(&command.label)
                        .map_or("(none)".to_string(), |d| digests_json(&d).render()),
                ))
            } else if let Some(design) = command.label.strip_prefix("resume ") {
                let faults = rep
                    .commands
                    .iter()
                    .find(|c| c.label == format!("faults {design}"));
                (!same_digests(Some(&command.digests), faults.map(|c| &c.digests)))
                    .then(|| "resume digests differ from the faults run's".to_string())
            } else {
                None
            };
            if let Some(problem) = problem {
                verdict.failed += 1;
                verdict
                    .problems
                    .push(format!("rep {index} `{}`: {problem}", command.label));
            }
        }
        if rep.facts.exact_counts() != reps[0].facts.exact_counts() {
            verdict.problems.push(format!(
                "rep {index} counts {:?} differ from rep 0's {:?}",
                rep.facts.exact_counts(),
                reps[0].facts.exact_counts()
            ));
        }
    }
    Ok(verdict)
}

fn same_digests(a: Option<&Digests>, b: Option<&Digests>) -> bool {
    let sorted = |d: &Digests| {
        let mut d = d.clone();
        d.sort();
        d
    };
    matches!((a, b), (Some(a), Some(b)) if sorted(a) == sorted(b))
}

/// `seconds` of the command labelled `label` over the untraced
/// repetitions.
fn command_samples(
    reps: &[RepResult],
    label: &str,
    seconds: fn(&CommandRecord) -> f64,
) -> Vec<f64> {
    reps.iter()
        .filter(|r| !r.traced)
        .flat_map(|r| &r.commands)
        .filter(|c| c.label == label)
        .map(seconds)
        .collect()
}

fn end_to_end(reps: &[RepResult], setup_s: f64) -> Vec<(&'static str, &'static str, f64)> {
    let untraced: Vec<&RepResult> = reps.iter().filter(|r| !r.traced).collect();
    let command_norm_s: Vec<f64> = untraced.iter().map(|r| r.command_norm_s()).collect();
    let peaks: Vec<f64> = untraced.iter().filter_map(|r| r.peak_rss_mb).collect();
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "command_norm_s" => median(&command_norm_s),
                "setup_s" => setup_s,
                "peak_rss_mb" => median(&peaks),
                other => unreachable!("end-to-end metric `{other}` has no source"),
            };
            (name, unit, value)
        })
        .collect()
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Per-layer metrics: medians over the traced repetitions; 0 for a layer
/// the workload does not reach.
fn per_layer(reps: &[RepResult], context_exp: f64) -> Vec<(&'static str, &'static str, f64)> {
    let traced: Vec<&RepResult> = reps.iter().filter(|r| r.traced).collect();
    let over =
        |f: &dyn Fn(&RepResult) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let fact = |f: fn(&Facts) -> f64| over(&|r| f(&r.facts));
    let mean = |values: &[f64]| ratio(values.iter().sum(), values.len() as f64);
    let untraced_s = median(
        &reps
            .iter()
            .filter(|r| !r.traced)
            .map(RepResult::command_norm_s)
            .collect::<Vec<_>>(),
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "lint.context_exp" => context_exp,
                "faultsim.fault_cycles_per_s" => {
                    fact(|f| ratio(f.fault_cycles as f64, f.campaign_wall_s))
                }
                "faultsim.worker_busy_frac" => {
                    fact(|f| ratio(f.worker_busy_s, f.worker_capacity_s))
                }
                "faultsim.fault_cycles" => fact(|f| f.fault_cycles as f64),
                "faultsim.gate_evals" => fact(|f| f.gate_evals as f64),
                "faultsim.units" => fact(|f| f.units as f64),
                "faultsim.gate_evals_saved_frac" => fact(|f| {
                    if f.gate_evals_full > 0 {
                        1.0 - f.gate_evals as f64 / f.gate_evals_full as f64
                    } else {
                        0.0
                    }
                }),
                "faultsim.units_failed" => fact(|f| f.units_failed as f64),
                "faultsim.checkpoint_bytes" => fact(|f| f.checkpoint_bytes as f64),
                "core.epoch_s" => {
                    over(&|r| ratio(r.layer("core.train_s"), r.facts.train_epochs as f64))
                }
                "core.train_epochs" => fact(|f| f.train_epochs as f64),
                "core.gcn_auc" => over(&|r| mean(&r.facts.auc)),
                "core.gcn_accuracy" => over(&|r| mean(&r.facts.accuracy)),
                "trace.overhead_frac" => over(&|r| ratio(r.command_norm_s(), untraced_s) - 1.0),
                "trace.unattributed_frac" => over(&|r| r.unattributed_frac),
                span_metric => over(&|r| r.layer(span_metric)),
            };
            (name, unit, value)
        })
        .collect()
}

/// Log–log slope of `LintContext::new` seconds against gate count over
/// the workload's designs (plus a half-size companion of a synthetic
/// one): ≈1 for a linear analysis, ≈2 or more flags a super-linear one.
fn scaling_exponent(workload: &Workload) -> Result<f64, String> {
    let mut points = Vec::new();
    for design in workload.designs {
        for netlist in design.scaling_probe()? {
            let begun = Instant::now();
            let mut times = Vec::new();
            while times.is_empty() || (begun.elapsed().as_secs_f64() < 0.2 && times.len() < 100) {
                let call = sys::seconds(Clock::Thread);
                black_box(LintContext::new(black_box(&netlist)));
                times.push(sys::seconds(Clock::Thread) - call);
            }
            points.push((netlist.gate_count() as f64, median(&times)));
        }
    }
    Ok(loglog_slope(&points))
}

/// The run's full record for `--out`: the result, per-command timing,
/// the exact counts and the digests, so `--check` can compare runs.
fn run_record(
    options: &Options,
    window_s: f64,
    reps: &[RepResult],
    verdict: &Verdict,
    metrics: &Json,
) -> Json {
    let workload = &options.workload;
    let commands = (0..workload.commands.len())
        .map(|index| {
            let label = workload.label(index);
            let samples = |seconds: fn(&CommandRecord) -> f64| {
                let values = command_samples(reps, &label, seconds);
                Json::Arr(values.iter().map(|&s| Json::Num(s)).collect())
            };
            let norm = command_samples(reps, &label, CommandRecord::norm_s);
            let (q1, q3) = quartiles(&norm);
            let stats = Json::Obj(vec![
                ("median".into(), Json::Num(median(&norm))),
                ("q1".into(), Json::Num(q1)),
                ("q3".into(), Json::Num(q3)),
                ("n".into(), Json::Num(norm.len() as f64)),
                ("norm_samples".into(), samples(CommandRecord::norm_s)),
                ("cpu_samples".into(), samples(|c| c.cpu_s)),
                ("wall_samples".into(), samples(|c| c.wall_s)),
                ("reference_samples".into(), samples(|c| c.reference_s)),
            ]);
            (label, stats)
        })
        .collect();
    let counts = reps[0]
        .facts
        .exact_counts()
        .iter()
        .map(|&(name, value)| (name.to_string(), Json::Num(value as f64)))
        .collect();
    let digests = reps[0]
        .commands
        .iter()
        .map(|c| (c.label.clone(), digests_json(&c.digests)))
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.name.into())),
        ("seed".into(), Json::Num(options.seed as f64)),
        ("trace".into(), Json::Bool(options.trace)),
        ("window_s".into(), Json::Num(window_s)),
        ("reps".into(), Json::Num(reps.len() as f64)),
        ("correct".into(), Json::Bool(verdict.problems.is_empty())),
        ("attempted".into(), Json::Num(verdict.attempted as f64)),
        ("failed".into(), Json::Num(verdict.failed as f64)),
        ("metrics".into(), metrics.clone()),
        ("commands".into(), Json::Obj(commands)),
        ("counts".into(), Json::Obj(counts)),
        ("digests".into(), Json::Obj(digests)),
    ])
}

fn append_line(path: &Path, line: &str) -> Result<(), String> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open `{}`: {e}", path.display()))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot write `{}`: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn result_line_round_trips_through_json() {
        let metrics = Json::Obj(vec![(
            "command_norm_s".to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(2.202706279)),
                ("unit".into(), Json::Str("s".into())),
            ]),
        )]);
        let line = result_json(true, 24, 0, metrics).render();
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_u64), Some(24));
        assert_eq!(parsed.get("failed").and_then(Json::as_u64), Some(0));
        let command_norm_s = parsed
            .get("metrics")
            .and_then(|m| m.get("command_norm_s"))
            .unwrap();
        assert_eq!(
            command_norm_s.get("value").and_then(Json::as_f64),
            Some(2.202706279)
        );
        assert_eq!(command_norm_s.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this binary runs and reports.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let bench = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |section: &str, key: &str| -> Vec<String> {
            bench
                .get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get(key).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let column = |table: &[(&str, &str)], unit: bool| -> Vec<String> {
            table
                .iter()
                .map(|&(name, u)| if unit { u } else { name }.to_string())
                .collect()
        };
        assert_eq!(names("end_to_end", "name"), column(END_TO_END, false));
        assert_eq!(names("end_to_end", "unit"), column(END_TO_END, true));
        assert_eq!(names("per_layer", "name"), column(PER_LAYER, false));
        assert_eq!(names("per_layer", "unit"), column(PER_LAYER, true));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        for workload in WORKLOADS {
            let pinned: Vec<String> = pins(workload.name)
                .unwrap()
                .into_iter()
                .map(|(label, _)| label)
                .collect();
            let labels: Vec<String> = (0..workload.commands.len())
                .map(|i| workload.label(i))
                .collect();
            assert_eq!(pinned, labels, "pins of {}", workload.name);
        }
    }

    #[test]
    fn verify_counts_wrong_digests_and_replays_as_failures() {
        let workload = Workload::named("faults_10k").unwrap();
        let good = || -> RepResult {
            let mut rep = RepResult::lost(&workload, false, "");
            for (command, (_, digests)) in rep.commands.iter_mut().zip(pins("faults_10k").unwrap())
            {
                command.error = None;
                command.digests = digests;
            }
            rep
        };
        assert!(verify(&workload, 1, &[good(), good()])
            .unwrap()
            .problems
            .is_empty());
        let mut bad = good();
        bad.commands[1].digests[0].1 = "fnv1a64:0000000000000000".to_string();
        let verdict = verify(&workload, 1, &[good(), bad.clone()]).unwrap();
        assert_eq!((verdict.attempted, verdict.failed), (4, 1));
        // Unpinned seeds check against the first repetition and resume
        // against the faults run of the same repetition.
        let verdict = verify(&workload, 2, &[good(), bad]).unwrap();
        assert_eq!((verdict.attempted, verdict.failed), (4, 1));
        let lost = RepResult::lost(&workload, false, "killed");
        assert_eq!(verify(&workload, 2, &[lost]).unwrap().failed, 2);
    }
}
