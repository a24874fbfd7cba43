//! `fusa` — command-line fault criticality analysis.
//!
//! The usage text is generated from [`COMMANDS`], the same table the
//! argument validator reads, so help and parser cannot drift. Run
//! `fusa` with no arguments to see it.
//!
//! `<design>` is a built-in name (`sdram_ctrl`, `or1200_if`,
//! `or1200_icfsm`, `uart_ctrl`) or a path to a structural-Verilog file.
//!
//! Every pipeline command (`analyze`, `faults`, `explain`, `seu`,
//! `harden`) records a run manifest — per-stage wall times, counters,
//! seeds, peak RSS and output digests — under
//! `results/<command>-<design>/manifest.json` (`--run-dir` overrides).
//! `fusa report <manifest.json>` renders one; `fusa compare` diffs two
//! (digests, stage times, histogram quantiles) and exits nonzero on
//! regression; `--trace-out PATH` streams JSONL trace events while the
//! run executes and `--progress` prints live heartbeat lines.

use fusa::faultsim::{
    DurabilityConfig, FaultCampaign, FaultList, QuarantinedUnit, SeuCampaign, SeuConfig, ShardSpec,
};
use fusa::gcn::pipeline::{FusaPipeline, PipelineConfig, PipelineError};
use fusa::gcn::report::{render_csv_report, render_text_report, ReportOptions};
use fusa::gcn::ExplainerConfig;
use fusa::logicsim::WorkloadSuite;
use fusa::netlist::{designs, parser::parse_verilog, Netlist, NetlistStats};
use fusa::obs::{
    discover_status_files, fnv1a64_hex, render_manifest_report, render_manifest_report_json,
    render_prometheus, set_status_target, FleetDamage, FleetOptions, FleetRun, FleetView,
    MergeSourceRecord, PromRun, QuarantinedUnitRecord, RunManifest, ShardRecord, StatusSnapshot,
    StatusTarget, TraceFilter, TraceReport,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One flag a command accepts.
struct FlagSpec {
    name: &'static str,
    /// Value placeholder (`None` for boolean flags).
    value: Option<&'static str>,
    help: &'static str,
}

/// One CLI command: the single source of truth for the usage text and
/// the flag validator.
struct CommandSpec {
    name: &'static str,
    /// Positional-argument synopsis, e.g. `<design>`.
    positionals: &'static str,
    /// Number of required positional arguments; the exact count unless
    /// `variadic`, where it becomes the minimum.
    positional_count: usize,
    /// Whether extra positional arguments beyond `positional_count` are
    /// accepted (`fusa merge <checkpoint>...`).
    variadic: bool,
    flags: &'static [FlagSpec],
    /// Whether the shared run options (RUN_FLAGS) also apply.
    run_options: bool,
    help: &'static str,
}

/// Options shared by every pipeline command.
const RUN_FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "--fast",
        value: None,
        help: "reduced-cost preset (fewer workloads, cycles, epochs)",
    },
    FlagSpec {
        name: "--threads",
        value: Some("N"),
        help: "campaign worker threads (0 = one per CPU)",
    },
    FlagSpec {
        name: "--lanes",
        value: Some("N"),
        help: "fault lanes per simulation pass: 64, 256 or 512 (default 256)",
    },
    FlagSpec {
        name: "--no-cone",
        value: None,
        help: "sweep the full netlist every cycle (the reference) instead of only the gates faults disturb",
    },
    FlagSpec {
        name: "--no-early-exit",
        value: None,
        help: "disable campaign early exit",
    },
    FlagSpec {
        name: "--trace-out",
        value: Some("PATH"),
        help: "stream JSONL trace events (spans, epochs, campaign) to PATH",
    },
    FlagSpec {
        name: "--run-dir",
        value: Some("DIR"),
        help: "manifest directory (default results/<command>-<design>)",
    },
    FlagSpec {
        name: "--quiet-stats",
        value: None,
        help: "suppress the end-of-run manifest summary",
    },
    FlagSpec {
        name: "--progress",
        value: None,
        help: "live heartbeat lines on stderr (campaign units, train epochs)",
    },
    FlagSpec {
        name: "--checkpoint",
        value: Some("PATH"),
        help: "campaign checkpoint file (default <run-dir>/checkpoint.jsonl)",
    },
    FlagSpec {
        name: "--resume",
        value: None,
        help: "resume a previously interrupted campaign from its checkpoint",
    },
    FlagSpec {
        name: "--max-unit-retries",
        value: Some("N"),
        help: "retries before a panicking campaign unit is quarantined (default 2)",
    },
    FlagSpec {
        name: "--strict",
        value: None,
        help: "exit nonzero when any campaign unit was quarantined",
    },
    FlagSpec {
        name: "--strict-durability",
        value: None,
        help: "exit nonzero when storage writes degraded (results stay printed)",
    },
    FlagSpec {
        name: "--structural-features",
        value: None,
        help: "append SCOAP/centrality node-feature channels to the model input",
    },
    FlagSpec {
        name: "--no-status",
        value: None,
        help: "disable the live <run-dir>/status.json snapshots",
    },
];

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "designs",
        positionals: "",
        positional_count: 0,
        variadic: false,
        flags: &[],
        run_options: false,
        help: "list built-in benchmark designs",
    },
    CommandSpec {
        name: "stats",
        positionals: "<design>",
        positional_count: 1,
        variadic: false,
        flags: &[],
        run_options: false,
        help: "netlist statistics",
    },
    CommandSpec {
        name: "lint",
        positionals: "<design>",
        positional_count: 1,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--json",
                value: None,
                help: "JSON findings",
            },
            FlagSpec {
                name: "--csv",
                value: None,
                help: "CSV findings",
            },
            FlagSpec {
                name: "--deny",
                value: Some("LEVEL"),
                help: "fail at level (info|warnings|errors)",
            },
        ],
        run_options: false,
        help: "static analysis",
    },
    CommandSpec {
        name: "analyze",
        positionals: "<design>",
        positional_count: 1,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--report",
                value: Some("FILE"),
                help: "write the text report",
            },
            FlagSpec {
                name: "--csv",
                value: Some("FILE"),
                help: "write the per-node CSV",
            },
            FlagSpec {
                name: "--save-model",
                value: Some("FILE"),
                help: "save the trained classifier",
            },
            FlagSpec {
                name: "--shard",
                value: Some("i/n"),
                help: "run shard i of an n-way campaign partition (see `fusa merge`)",
            },
        ],
        run_options: true,
        help: "full pipeline: campaign, GCN training, report",
    },
    CommandSpec {
        name: "faults",
        positionals: "<design>",
        positional_count: 1,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--csv",
                value: Some("FILE"),
                help: "write the criticality CSV",
            },
            FlagSpec {
                name: "--shard",
                value: Some("i/n"),
                help: "run shard i of an n-way campaign partition (see `fusa merge`)",
            },
        ],
        run_options: true,
        help: "fault campaign + Algorithm 1 only",
    },
    CommandSpec {
        name: "rank",
        positionals: "<design>",
        positional_count: 1,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--csv",
                value: Some("FILE"),
                help: "write the per-gate static-rank CSV",
            },
            FlagSpec {
                name: "--ground-truth",
                value: Some("FILE"),
                help: "criticality CSV from `fusa faults --csv` to score against",
            },
            FlagSpec {
                name: "--min-rho",
                value: Some("RHO"),
                help: "fail when combined Spearman rho falls below RHO",
            },
            FlagSpec {
                name: "--top",
                value: Some("N"),
                help: "gates to print (default 10)",
            },
            FlagSpec {
                name: "--run-dir",
                value: Some("DIR"),
                help: "manifest directory (default results/rank-<design>)",
            },
            FlagSpec {
                name: "--quiet-stats",
                value: None,
                help: "suppress the end-of-run manifest summary",
            },
        ],
        run_options: false,
        help: "simulation-free structural criticality ranking",
    },
    CommandSpec {
        name: "explain",
        positionals: "<design> <gate-name>",
        positional_count: 2,
        variadic: false,
        flags: &[],
        run_options: true,
        help: "why is this node critical?",
    },
    CommandSpec {
        name: "seu",
        positionals: "<design>",
        positional_count: 1,
        variadic: false,
        flags: &[],
        run_options: true,
        help: "transient bit-flip vulnerability",
    },
    CommandSpec {
        name: "harden",
        positionals: "<design>",
        positional_count: 1,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--budget",
                value: Some("FRACTION"),
                help: "fraction of gates to protect (default 0.1)",
            },
            FlagSpec {
                name: "--out",
                value: Some("FILE.v"),
                help: "write the hardened netlist",
            },
        ],
        run_options: true,
        help: "TMR-protect the most critical gates",
    },
    CommandSpec {
        name: "synth",
        positionals: "<size>",
        positional_count: 1,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--seed",
                value: Some("N"),
                help: "generator seed (default 1)",
            },
            FlagSpec {
                name: "--out",
                value: Some("FILE.v"),
                help: "write the netlist (default synth_<size>.v)",
            },
        ],
        run_options: false,
        help: "generate a synthetic benchmark netlist (10k | 30k | 100k gates)",
    },
    CommandSpec {
        name: "merge",
        positionals: "<checkpoint>...",
        positional_count: 1,
        variadic: true,
        flags: &[
            FlagSpec {
                name: "--out",
                value: Some("FILE"),
                help: "merged checkpoint path (default <run-dir>/checkpoint.jsonl)",
            },
            FlagSpec {
                name: "--design",
                value: Some("NAME|FILE"),
                help: "design override (default: the design named in the checkpoint header)",
            },
            FlagSpec {
                name: "--fast",
                value: None,
                help: "match shards that ran with --fast (same workload preset)",
            },
            FlagSpec {
                name: "--csv",
                value: Some("FILE"),
                help: "write the merged criticality CSV",
            },
            FlagSpec {
                name: "--run-dir",
                value: Some("DIR"),
                help: "manifest directory (default results/merge-<design>)",
            },
            FlagSpec {
                name: "--quiet-stats",
                value: None,
                help: "suppress the end-of-run manifest summary",
            },
        ],
        run_options: false,
        help: "union shard checkpoints into one full-campaign report",
    },
    CommandSpec {
        name: "fsck",
        positionals: "<run-dir|checkpoint>",
        positional_count: 1,
        variadic: false,
        flags: &[FlagSpec {
            name: "--repair",
            value: None,
            help: "rewrite a damaged checkpoint keeping every intact unit record",
        }],
        run_options: false,
        help: "validate (and repair) campaign storage: checkpoint, manifest, status",
    },
    CommandSpec {
        name: "report",
        positionals: "<manifest.json>",
        positional_count: 1,
        variadic: false,
        flags: &[FlagSpec {
            name: "--json",
            value: None,
            help: "machine-readable report (fusa-obs/report/v1)",
        }],
        run_options: false,
        help: "render a run manifest",
    },
    CommandSpec {
        name: "top",
        positionals: "<results-root|run-dir>...",
        positional_count: 1,
        variadic: true,
        flags: &[
            FlagSpec {
                name: "--once",
                value: None,
                help: "render one frame and exit (no refresh loop)",
            },
            FlagSpec {
                name: "--json",
                value: None,
                help: "one fleet snapshot as JSON (implies --once)",
            },
            FlagSpec {
                name: "--interval",
                value: Some("SECS"),
                help: "refresh period (default 2)",
            },
            FlagSpec {
                name: "--stale",
                value: Some("SECS"),
                help: "flag live runs with older heartbeats as stalled (default 30)",
            },
        ],
        run_options: false,
        help: "live fleet dashboard over status.json snapshots",
    },
    CommandSpec {
        name: "export",
        positionals: "<run-dir>...",
        positional_count: 1,
        variadic: true,
        flags: &[
            FlagSpec {
                name: "--prometheus",
                value: None,
                help: "Prometheus textfile-exporter format (the only format so far)",
            },
            FlagSpec {
                name: "--out",
                value: Some("FILE"),
                help: "write the rendered metrics (default stdout)",
            },
        ],
        run_options: false,
        help: "export run status + manifest metrics for scrapers",
    },
    CommandSpec {
        name: "trace",
        positionals: "<trace.jsonl>",
        positional_count: 1,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--kind",
                value: Some("KIND"),
                help: "keep only events of this kind (span, progress, epoch, ...)",
            },
            FlagSpec {
                name: "--name",
                value: Some("SUBSTR"),
                help: "keep only events whose name contains SUBSTR",
            },
            FlagSpec {
                name: "--json",
                value: None,
                help: "machine-readable report (fusa-obs/trace/v1)",
            },
        ],
        run_options: false,
        help: "query a --trace-out JSONL stream (span tree, self time, quantiles)",
    },
    CommandSpec {
        name: "compare",
        positionals: "<baseline> <candidate>",
        positional_count: 2,
        variadic: false,
        flags: &[
            FlagSpec {
                name: "--tolerance-pct",
                value: Some("P"),
                help: "allowed slowdown before a regression (default 10)",
            },
            FlagSpec {
                name: "--min-seconds",
                value: Some("S"),
                help: "stages below this baseline never gate (default 0.05)",
            },
            FlagSpec {
                name: "--json",
                value: None,
                help: "JSON delta table",
            },
            FlagSpec {
                name: "--append-bench",
                value: None,
                help: "append a trajectory entry to the bench file",
            },
            FlagSpec {
                name: "--bench-file",
                value: Some("FILE"),
                help: "bench file for --append-bench (default BENCH_campaign.json)",
            },
        ],
        run_options: false,
        help: "diff two run manifests; exit 1 on regression",
    },
];

/// Renders the usage text from [`COMMANDS`].
fn usage() -> String {
    let mut lines: Vec<(String, &str)> = Vec::new();
    for command in COMMANDS {
        let mut synopsis = format!("fusa {}", command.name);
        if !command.positionals.is_empty() {
            let _ = write!(synopsis, " {}", command.positionals);
        }
        for flag in command.flags {
            match flag.value {
                Some(value) => {
                    let _ = write!(synopsis, " [{} {value}]", flag.name);
                }
                None => {
                    let _ = write!(synopsis, " [{}]", flag.name);
                }
            }
        }
        if command.run_options {
            synopsis.push_str(" [run options]");
        }
        lines.push((synopsis, command.help));
    }
    let width = lines.iter().map(|(s, _)| s.len()).max().unwrap_or(0);

    let mut out = String::from("usage:\n");
    for (synopsis, help) in &lines {
        let _ = writeln!(out, "  {synopsis:<width$}  {help}");
    }
    out.push_str("\nrun options (analyze, faults, explain, seu, harden):\n");
    let flag_width = RUN_FLAGS
        .iter()
        .map(|f| f.name.len() + f.value.map_or(0, |v| v.len() + 1))
        .max()
        .unwrap_or(0);
    for flag in RUN_FLAGS {
        let name = match flag.value {
            Some(value) => format!("{} {value}", flag.name),
            None => flag.name.to_string(),
        };
        let _ = writeln!(out, "  {name:<flag_width$}  {}", flag.help);
    }
    out.push_str(
        "\n<design>: sdram_ctrl | or1200_if | or1200_icfsm | uart_ctrl | path/to/netlist.v",
    );
    out
}

/// Validates `args` against the command's spec: every `--flag` must be
/// declared (here or in the shared run options), value-taking flags must
/// have a value, and the positional count must match.
fn validate_args(spec: &CommandSpec, args: &[String]) -> Result<(), String> {
    let find_flag = |name: &str| -> Option<&FlagSpec> {
        spec.flags.iter().find(|f| f.name == name).or_else(|| {
            spec.run_options
                .then(|| RUN_FLAGS.iter().find(|f| f.name == name))
                .flatten()
        })
    };
    let mut positionals = 0usize;
    let mut i = 1; // args[0] is the command itself
    while i < args.len() {
        let arg = &args[i];
        if let Some(stripped) = arg.strip_prefix("--") {
            let flag = find_flag(arg)
                .ok_or_else(|| format!("unknown flag `--{stripped}` for `fusa {}`", spec.name))?;
            if flag.value.is_some() {
                i += 1;
                if i >= args.len() {
                    return Err(format!("flag `{}` needs a value", flag.name));
                }
            }
        } else {
            positionals += 1;
        }
        i += 1;
    }
    if spec.variadic {
        if positionals < spec.positional_count {
            return Err(format!(
                "`fusa {}` takes at least {} positional argument(s) ({}), got {}",
                spec.name, spec.positional_count, spec.positionals, positionals
            ));
        }
    } else if positionals != spec.positional_count {
        return Err(format!(
            "`fusa {}` takes {} positional argument(s) ({}), got {}",
            spec.name, spec.positional_count, spec.positionals, positionals
        ));
    }
    Ok(())
}

/// Why a command line failed. Only argument errors (unknown command,
/// arity, unknown or value-less flag) are followed by the usage text; a
/// runtime failure (unreadable or unparsable design, degenerate labels,
/// I/O) prints its one `error:` line alone.
enum CliError {
    Usage(String),
    Runtime(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
        Err(CliError::Runtime(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let command = args
        .first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == command.as_str())
        .ok_or_else(|| CliError::Usage(format!("unknown command `{command}`")))?;
    validate_args(spec, args).map_err(CliError::Usage)?;
    run_command(spec, args).map_err(CliError::Runtime)
}

fn run_command(spec: &CommandSpec, args: &[String]) -> Result<(), String> {
    match spec.name {
        "designs" => {
            for design in designs::all_designs() {
                println!("{design}");
            }
            Ok(())
        }
        "stats" => {
            let netlist = load_design(args.get(1).ok_or("missing design")?)?;
            println!("{}", NetlistStats::of(&netlist));
            Ok(())
        }
        "lint" => cmd_lint(args),
        "analyze" => cmd_analyze(args),
        "faults" => cmd_faults(args),
        "rank" => cmd_rank(args),
        "explain" => cmd_explain(args),
        "seu" => cmd_seu(args),
        "harden" => cmd_harden(args),
        "synth" => cmd_synth(args),
        "merge" => cmd_merge(args),
        "fsck" => cmd_fsck(args),
        "report" => cmd_report(args),
        "compare" => cmd_compare(args),
        "top" => cmd_top(args),
        "export" => cmd_export(args),
        "trace" => cmd_trace(args),
        other => Err(format!("unknown command `{other}`")),
    }
}

fn load_design(name: &str) -> Result<Netlist, String> {
    match name {
        "sdram_ctrl" => Ok(designs::sdram_ctrl()),
        "or1200_if" => Ok(designs::or1200_if()),
        "or1200_icfsm" => Ok(designs::or1200_icfsm()),
        "uart_ctrl" => Ok(designs::uart_ctrl()),
        path => {
            let source =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_verilog(&source).map_err(|e| format!("cannot parse `{path}`: {e}"))
        }
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Positional arguments of a validated command line, in order: walks
/// `args` skipping each value-taking flag's value, mirroring
/// [`validate_args`].
fn positional_args<'a>(spec: &CommandSpec, args: &'a [String]) -> Vec<&'a str> {
    let takes_value = |name: &str| -> bool {
        spec.flags
            .iter()
            .chain(if spec.run_options { RUN_FLAGS } else { &[] })
            .any(|f| f.name == name && f.value.is_some())
    };
    let mut out = Vec::new();
    let mut i = 1; // args[0] is the command itself
    while i < args.len() {
        let arg = &args[i];
        if arg.starts_with("--") {
            if takes_value(arg) {
                i += 1;
            }
        } else {
            out.push(arg.as_str());
        }
        i += 1;
    }
    out
}

fn pipeline_config(args: &[String]) -> Result<PipelineConfig, String> {
    let mut config = if args.iter().any(|a| a == "--fast") {
        PipelineConfig::fast()
    } else {
        PipelineConfig::default()
    };
    // Campaign accelerations are bit-identical to the naive path; these
    // knobs exist for benchmarking and cross-checking.
    if args.iter().any(|a| a == "--no-cone") {
        config.campaign.restrict_to_cone = false;
    }
    if args.iter().any(|a| a == "--no-early-exit") {
        config.campaign.early_exit = false;
    }
    if let Some(threads) = flag_value(args, "--threads").and_then(|t| t.parse().ok()) {
        config.campaign.threads = threads;
    }
    if let Some(lanes) = flag_value(args, "--lanes") {
        config.campaign.lane_words = match lanes {
            "64" => 1,
            "256" => 4,
            "512" => 8,
            other => return Err(format!("bad --lanes value `{other}`: use 64, 256 or 512")),
        };
    }
    if args.iter().any(|a| a == "--structural-features") {
        config.structural_features = true;
    }
    Ok(config)
}

/// One observed CLI run: resets the global recorder, optionally attaches
/// the `--trace-out` sink, and on [`ObsSession::finish`] assembles and
/// writes `<run-dir>/manifest.json`.
struct ObsSession {
    run_id: String,
    command_line: String,
    run_dir: PathBuf,
    quiet: bool,
    started: Instant,
    /// Set when the campaign drained early on SIGINT/SIGTERM; recorded
    /// in the manifest so `fusa report`/`compare` can tell a partial run
    /// from a complete one.
    interrupted: bool,
    /// Units the campaign quarantined after repeated panics.
    quarantined: Vec<QuarantinedUnitRecord>,
    /// The `--shard i/n` spec when this run covers one shard of a
    /// partitioned campaign; recorded in the manifest so `fusa compare`
    /// treats the run as a partial.
    shard: Option<ShardSpec>,
    /// Shard checkpoints unioned by `fusa merge`, recorded in the
    /// manifest as provenance.
    merge_sources: Vec<MergeSourceRecord>,
}

impl ObsSession {
    fn begin(command: &str, design_arg: &str, args: &[String]) -> Result<ObsSession, String> {
        let obs = fusa::obs::global();
        obs.reset();
        fusa::obs::reset_shutdown();
        fusa::obs::reset_degraded();
        // Storage chaos hooks (FUSA_IO_FAIL_*), mirroring the
        // FUSA_CAMPAIGN_* campaign hooks: no-ops unless the environment
        // schedules a failure.
        fusa::obs::arm_io_faults_from_env();
        fusa::obs::install_signal_handlers();
        fusa::obs::set_progress_stderr(args.iter().any(|a| a == "--progress"));
        if let Some(path) = flag_value(args, "--trace-out") {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
            obs.attach_sink(Box::new(std::io::BufWriter::new(file)));
        }
        let shard = match flag_value(args, "--shard") {
            Some(spec) => Some(ShardSpec::parse(spec)?),
            None => None,
        };
        // Design paths become slugs: `designs/foo.v` -> `foo`.
        let design_slug: String = std::path::Path::new(design_arg)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or(design_arg)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        // Shards get distinct run ids so N parallel shard processes
        // never race on one run directory.
        let run_id = match shard {
            Some(shard) => format!(
                "{command}-{design_slug}-shard{}of{}",
                shard.index, shard.total
            ),
            None => format!("{command}-{design_slug}"),
        };
        let run_dir = match flag_value(args, "--run-dir") {
            Some(dir) => PathBuf::from(dir),
            None => PathBuf::from("results").join(&run_id),
        };
        // Created up front so the default checkpoint path is writable
        // while the campaign runs. Failure degrades to a warning: an
        // unwritable results directory must not stop the analysis.
        if let Err(error) = std::fs::create_dir_all(&run_dir) {
            eprintln!(
                "fusa: cannot create run directory `{}` ({error}); manifest and checkpoint disabled",
                run_dir.display()
            );
        }
        // Arm live status.json snapshots for this run's progress phases
        // (campaign/train/lint heartbeats); `fusa top` watches these.
        if args.iter().any(|a| a == "--no-status") {
            set_status_target(None);
        } else {
            set_status_target(Some(StatusTarget {
                path: run_dir.join("status.json"),
                run_id: run_id.clone(),
                design: design_slug.clone(),
                shard: shard.map(|s| (s.index as u64, s.total as u64)),
            }));
        }
        Ok(ObsSession {
            run_id,
            command_line: format!("fusa {}", args.join(" ")),
            run_dir,
            quiet: args.iter().any(|a| a == "--quiet-stats"),
            started: Instant::now(),
            interrupted: false,
            quarantined: Vec::new(),
            shard,
            merge_sources: Vec::new(),
        })
    }

    /// Campaign durability options for this run: checkpoint under the
    /// run directory unless `--checkpoint` overrides, cooperative
    /// interruption through the process signal flag.
    fn durability(&self, args: &[String]) -> Result<DurabilityConfig, String> {
        let checkpoint = match flag_value(args, "--checkpoint") {
            Some(path) => PathBuf::from(path),
            None => self.run_dir.join("checkpoint.jsonl"),
        };
        let max_unit_retries = match flag_value(args, "--max-unit-retries") {
            Some(value) => value
                .parse()
                .map_err(|_| format!("bad --max-unit-retries value `{value}`"))?,
            None => DurabilityConfig::default().max_unit_retries,
        };
        Ok(DurabilityConfig {
            checkpoint: Some(checkpoint),
            resume: args.iter().any(|a| a == "--resume"),
            max_unit_retries,
            interrupt: Some(fusa::obs::shutdown_flag()),
            ..DurabilityConfig::default()
        })
    }

    /// Notes quarantined campaign units for the manifest and, under
    /// `--strict`, for the exit status.
    fn note_quarantined(&mut self, quarantined: &[QuarantinedUnit]) {
        self.quarantined = quarantined
            .iter()
            .map(|q| QuarantinedUnitRecord {
                unit: q.unit as u64,
                workload: q.workload.to_string(),
                chunk: q.chunk as u64,
                attempts: u64::from(q.attempts),
                panic: q.panic_message.clone(),
            })
            .collect();
    }

    /// Prints the interruption notice and the exact invocation that
    /// resumes this run, then exits with the conventional SIGINT status.
    fn exit_interrupted(self, design: &str, config: ConfigEntries, seeds: SeedEntries) -> ! {
        let resume = if self
            .command_line
            .split_whitespace()
            .any(|a| a == "--resume")
        {
            self.command_line.clone()
        } else {
            format!("{} --resume", self.command_line)
        };
        let mut session = self;
        session.interrupted = true;
        if let Err(error) = session.finish(design, config, seeds, vec![]) {
            eprintln!("fusa: {error}");
        }
        eprintln!("fusa: interrupted — partial results checkpointed; resume with:");
        eprintln!("  {resume}");
        std::process::exit(130);
    }

    /// Writes the manifest and (unless `--quiet-stats`) a one-screen
    /// summary. `design` is the parsed module name, not the CLI slug.
    fn finish(
        self,
        design: &str,
        config: Vec<(String, String)>,
        seeds: Vec<(String, u64)>,
        digests: Vec<(String, String)>,
    ) -> Result<(), String> {
        let obs = fusa::obs::global();
        // Disarm status snapshots: every progress phase has emitted its
        // final (finished) beat by now.
        set_status_target(None);
        obs.detach_sink();
        let snapshot = obs.snapshot();
        let mut manifest = RunManifest::new(&self.run_id, &self.command_line, design);
        manifest.wall_seconds = self.started.elapsed().as_secs_f64();
        manifest.absorb_snapshot(&snapshot);
        manifest.threads = manifest
            .gauges
            .iter()
            .find(|(name, _)| name == "campaign.threads")
            .map(|&(_, v)| v as usize)
            .unwrap_or(0);
        manifest.build = build_provenance();
        manifest.config = config;
        manifest.seeds = seeds;
        manifest.digests = digests;
        manifest.interrupted = self.interrupted;
        manifest.degraded = fusa::obs::durability_degraded();
        manifest.quarantined = self.quarantined.clone();
        manifest.shard = self.shard.map(|s| ShardRecord {
            index: s.index as u64,
            total: s.total as u64,
        });
        manifest.merged_from = self.merge_sources.clone();

        // Manifest I/O failures (disk full, read-only results dir) must
        // not turn a finished analysis into a nonzero exit: warn and
        // keep the run's stdout results.
        let path = self.run_dir.join("manifest.json");
        let written = std::fs::create_dir_all(&self.run_dir).and_then(|()| {
            fusa::obs::write_file_with_faults("manifest", &path, manifest.to_json().as_bytes())
        });
        if let Err(error) = written {
            let reason = format!("manifest write to `{}` failed: {error}", path.display());
            fusa::obs::mark_degraded(&reason);
            eprintln!("fusa: {reason}; continuing without it");
            return Ok(());
        }
        if !self.quiet {
            println!(
                "\nrun manifest: {} (wall {:.2}s, stages cover {:.0}%; `fusa report {}` for the breakdown)",
                path.display(),
                manifest.wall_seconds,
                manifest.stage_coverage() * 100.0,
                path.display(),
            );
        }
        Ok(())
    }
}

/// Build/toolchain provenance captured by `build.rs`, in sorted key
/// order. Annotates cross-build `fusa compare` runs; digests never
/// depend on these values.
fn build_provenance() -> Vec<(String, String)> {
    [
        ("git_commit", env!("FUSA_GIT_COMMIT")),
        ("opt_level", env!("FUSA_OPT_LEVEL")),
        ("rustc", env!("FUSA_RUSTC_VERSION")),
        ("target", env!("FUSA_TARGET")),
    ]
    .iter()
    .filter(|(_, value)| !value.is_empty())
    .map(|(key, value)| (key.to_string(), value.to_string()))
    .collect()
}

/// Manifest `config` entries: flattened key/value strings.
type ConfigEntries = Vec<(String, String)>;
/// Manifest `seeds` entries: named RNG seeds.
type SeedEntries = Vec<(String, u64)>;

/// Flattens the pipeline configuration into manifest `config` and
/// `seeds` key/value pairs.
fn manifest_config(config: &PipelineConfig) -> (ConfigEntries, SeedEntries) {
    let kv = vec![
        (
            "workloads.num_workloads".to_string(),
            config.workloads.num_workloads.to_string(),
        ),
        (
            "workloads.vectors_per_workload".to_string(),
            config.workloads.vectors_per_workload.to_string(),
        ),
        (
            "signal_stats.cycles".to_string(),
            config.signal_stats.cycles.to_string(),
        ),
        (
            "campaign.min_divergence_fraction".to_string(),
            config.campaign.min_divergence_fraction.to_string(),
        ),
        (
            "campaign.restrict_to_cone".to_string(),
            config.campaign.restrict_to_cone.to_string(),
        ),
        (
            "campaign.early_exit".to_string(),
            config.campaign.early_exit.to_string(),
        ),
        (
            "campaign.lane_words".to_string(),
            config.campaign.lane_words.to_string(),
        ),
        // The checkpoint unit is always a 64-fault chunk, whatever the
        // lane width packs into one pass.
        ("campaign.chunk_faults".to_string(), "64".to_string()),
        (
            "campaign.faults_per_pass".to_string(),
            (64 * config.campaign.lane_words).to_string(),
        ),
        (
            "criticality_threshold".to_string(),
            config.criticality_threshold.to_string(),
        ),
        (
            "train_fraction".to_string(),
            config.train_fraction.to_string(),
        ),
        (
            "exclude_untestable_faults".to_string(),
            config.exclude_untestable_faults.to_string(),
        ),
        (
            "structural_features".to_string(),
            config.structural_features.to_string(),
        ),
        (
            "model.hidden".to_string(),
            format!("{:?}", config.model.hidden),
        ),
        (
            "model.dropout".to_string(),
            config.model.dropout.to_string(),
        ),
        ("train.epochs".to_string(), config.train.epochs.to_string()),
        (
            "train.learning_rate".to_string(),
            config.train.learning_rate.to_string(),
        ),
    ];
    let seeds = vec![
        ("split".to_string(), config.split_seed),
        ("workloads".to_string(), config.workloads.seed),
        ("signal_stats".to_string(), config.signal_stats.seed),
        ("model".to_string(), config.model.seed),
    ];
    (kv, seeds)
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    use fusa::lint::{lint_netlist, LintSeverity};

    let netlist = load_design(args.get(1).ok_or("missing design")?)?;
    let deny = match flag_value(args, "--deny") {
        Some(level) => LintSeverity::parse(level)
            .ok_or_else(|| format!("bad --deny level `{level}` (info|warnings|errors)"))?,
        None => LintSeverity::Error,
    };
    let report = lint_netlist(&netlist);
    if args.iter().any(|a| a == "--json") {
        print!("{}", report.render_json());
    } else if args.iter().any(|a| a == "--csv") {
        print!("{}", report.render_csv());
    } else {
        print!("{}", report.render_text());
    }
    if report.has_at_least(deny) {
        let denied = report
            .findings
            .iter()
            .filter(|f| f.severity >= deny)
            .count();
        eprintln!("lint failed: {denied} finding(s) at or above `{deny}`");
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let design_arg = args.get(1).ok_or("missing design")?;
    let mut session = ObsSession::begin("analyze", design_arg, args)?;
    let netlist = load_design(design_arg)?;
    let mut config = pipeline_config(args)?;
    config.campaign.shard = session.shard;
    let (config_kv, seeds) = manifest_config(&config);
    let lint = lint_digest(&netlist);
    let analysis = match FusaPipeline::new(config)
        .with_campaign_durability(session.durability(args)?)
        .run(&netlist)
    {
        Ok(analysis) => analysis,
        Err(PipelineError::Interrupted { .. }) => {
            session.exit_interrupted(netlist.name(), config_kv, seeds)
        }
        Err(error) => return Err(error.to_string()),
    };
    session.note_quarantined(&analysis.campaign_quarantined);

    let text = render_text_report(&analysis, &netlist, &ReportOptions::default());
    println!("{text}");

    // Digests cover only deterministic artifacts: the stats-free text
    // report and the per-node CSV are identical across same-seed runs.
    let stable_text = render_text_report(
        &analysis,
        &netlist,
        &ReportOptions {
            include_stats: false,
            ..ReportOptions::default()
        },
    );
    let csv = render_csv_report(&analysis, &netlist);
    let digests = vec![
        (
            "report.txt".to_string(),
            fnv1a64_hex(stable_text.as_bytes()),
        ),
        ("nodes.csv".to_string(), fnv1a64_hex(csv.as_bytes())),
        lint,
    ];

    if let Some(path) = flag_value(args, "--report") {
        std::fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("report written to {path}");
    }
    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, &csv).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("per-node CSV written to {path}");
    }
    if let Some(path) = flag_value(args, "--save-model") {
        let file =
            std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        fusa::gcn::persist::save_classifier(&analysis.classifier, file)
            .map_err(|e| e.to_string())?;
        println!("trained model written to {path}");
    }
    session.finish(netlist.name(), config_kv, seeds, digests)?;
    exit_strict(args, analysis.campaign_quarantined.len());
    exit_strict_durability(args);
    Ok(())
}

fn cmd_faults(args: &[String]) -> Result<(), String> {
    let design_arg = args.get(1).ok_or("missing design")?;
    let mut session = ObsSession::begin("faults", design_arg, args)?;
    let netlist = load_design(design_arg)?;
    let mut config = pipeline_config(args)?;
    config.campaign.shard = session.shard;
    let (config_kv, seeds) = manifest_config(&config);
    let faults = FaultList::all_gate_outputs(&netlist);
    let workloads = WorkloadSuite::generate(&netlist, &config.workloads);
    let lint = lint_digest(&netlist);
    let report = FaultCampaign::new(config.campaign)
        .with_durability(session.durability(args)?)
        .run(&netlist, &faults, &workloads)
        .map_err(|e| e.to_string())?;
    session.note_quarantined(report.quarantined());
    if report.interrupted() {
        session.exit_interrupted(netlist.name(), config_kv, seeds);
    }
    print!("{}", report.summary());
    let stable_summary = report.summary_opts(false);
    let quarantined_count = report.quarantined().len();
    let dataset = report.into_dataset(config.criticality_threshold);
    println!(
        "\nAlgorithm 1: {} / {} nodes critical at th={}",
        dataset.critical_count(),
        dataset.labels().len(),
        dataset.threshold()
    );
    let csv = dataset.to_csv(&netlist);
    let digests = vec![
        (
            "summary.txt".to_string(),
            fnv1a64_hex(stable_summary.as_bytes()),
        ),
        ("criticality.csv".to_string(), fnv1a64_hex(csv.as_bytes())),
        lint,
    ];
    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, &csv).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("criticality CSV written to {path}");
    }
    session.finish(netlist.name(), config_kv, seeds, digests)?;
    exit_strict(args, quarantined_count);
    exit_strict_durability(args);
    Ok(())
}

/// Lints the design and returns the digest entry pinning its findings.
/// Run inside an [`ObsSession`] so the `lint.findings.*` severity
/// counters land in the manifest too; `fusa compare` hard-fails on the
/// digest and annotates counter deltas without gating on them.
///
/// Call this *before* the campaign/train phase: each phase republishes
/// `status.json`, and the run's final snapshot should come from its
/// dominant phase, not a trailing sub-second lint pass.
fn lint_digest(netlist: &Netlist) -> (String, String) {
    let report = fusa::lint::lint_netlist(netlist);
    (
        "lint.csv".to_string(),
        fnv1a64_hex(report.render_csv().as_bytes()),
    )
}

fn cmd_rank(args: &[String]) -> Result<(), String> {
    use fusa::gcn::{parse_ground_truth, StaticRank, CHANNEL_WEIGHTS, RANK_CHANNEL_NAMES};

    let design_arg = args.get(1).ok_or("missing design")?;
    let session = ObsSession::begin("rank", design_arg, args)?;
    let netlist = load_design(design_arg)?;

    // Every flag and the ground truth are checked before the analysis:
    // exact betweenness makes it the slow part at scale.
    let top: usize = match flag_value(args, "--top") {
        Some(value) => value
            .parse()
            .map_err(|_| format!("bad --top value `{value}`"))?,
        None => 10,
    };
    let min_rho = match flag_value(args, "--min-rho") {
        Some(value) => Some(
            value
                .parse::<f64>()
                .ok()
                .filter(|min| min.is_finite())
                .ok_or_else(|| format!("bad --min-rho value `{value}`: use a finite number"))?,
        ),
        None => None,
    };
    let ground_truth = match flag_value(args, "--ground-truth") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let truth = parse_ground_truth(&netlist, &text)
                .map_err(|e| format!("bad ground truth `{path}`: {e}"))?;
            Some((path, truth))
        }
        None if min_rho.is_some() => return Err("--min-rho needs --ground-truth".to_string()),
        None => None,
    };

    let rank = StaticRank::compute(&netlist);
    let ranking = rank.ranking();
    println!(
        "static criticality ranking of {} ({} gates, no simulation):",
        netlist.name(),
        ranking.len()
    );
    println!("  {:>4}  {:<24} {:>9}", "rank", "gate", "combined");
    for (position, &gate) in ranking.iter().take(top).enumerate() {
        println!(
            "  {:>4}  {:<24} {:>9.4}",
            position + 1,
            netlist.gates()[gate].name,
            rank.combined[gate],
        );
    }

    // The CSV is deterministic (pure structure, no RNG), so its digest
    // pins the whole ranking in the manifest.
    let csv = rank.to_csv(&netlist);
    let digests = vec![("rank.csv".to_string(), fnv1a64_hex(csv.as_bytes()))];
    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, &csv).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("static-rank CSV written to {path}");
    }

    let config_kv: ConfigEntries = RANK_CHANNEL_NAMES
        .iter()
        .zip(&CHANNEL_WEIGHTS)
        .map(|(name, weight)| (format!("rank.weight.{name}"), weight.to_string()))
        .collect();

    let mut failed_min_rho = None;
    if let Some((path, truth)) = ground_truth {
        let evaluation = rank.evaluate(&truth);
        let obs = fusa::obs::global();
        println!("\nSpearman rho vs campaign ground truth ({path}):");
        for &(name, rho) in &evaluation.channel_rho {
            println!("  {name:<16} {rho:>7.4}");
            obs.gauge_set(&format!("rank.rho.{name}"), rho);
        }
        println!("  {:<16} {:>7.4}", "combined", evaluation.combined_rho);
        obs.gauge_set("rank.rho.combined", evaluation.combined_rho);
        if let Some(min) = min_rho {
            // NaN rho (degenerate ground truth) must fail the gate too.
            if evaluation.combined_rho < min || evaluation.combined_rho.is_nan() {
                failed_min_rho = Some((evaluation.combined_rho, min));
            }
        }
    }

    // The manifest is written even on a --min-rho failure so the rho
    // gauges of the failing run stay inspectable.
    session.finish(netlist.name(), config_kv, Vec::new(), digests)?;
    if let Some((rho, min)) = failed_min_rho {
        eprintln!("rank failed: combined Spearman rho {rho:.4} below --min-rho {min}");
        std::process::exit(1);
    }
    Ok(())
}

/// Under `--strict`, quarantined units make the whole run fail (after
/// the manifest was written, so the partial ground truth stays
/// inspectable).
fn exit_strict(args: &[String], quarantined: usize) {
    if quarantined > 0 && args.iter().any(|a| a == "--strict") {
        eprintln!("fusa: --strict: {quarantined} campaign unit(s) quarantined");
        std::process::exit(1);
    }
}

/// Under `--strict-durability`, a degraded run — a checkpoint, trace or
/// manifest write that outlived its retry budget — fails the command
/// (after the results and manifest are out, so nothing is lost twice).
fn exit_strict_durability(args: &[String]) {
    if fusa::obs::durability_degraded() && args.iter().any(|a| a == "--strict-durability") {
        let reason = fusa::obs::degraded_reason()
            .unwrap_or_else(|| "a storage write outlived its retry budget".to_string());
        eprintln!("fusa: --strict-durability: {reason}");
        std::process::exit(1);
    }
}

fn cmd_explain(args: &[String]) -> Result<(), String> {
    let design_arg = args.get(1).ok_or("missing design")?;
    let mut session = ObsSession::begin("explain", design_arg, args)?;
    let netlist = load_design(design_arg)?;
    let gate_name = args.get(2).ok_or("missing gate name")?;
    let gate = netlist
        .find_gate(gate_name)
        .ok_or_else(|| format!("no gate named `{gate_name}`"))?;
    let config = pipeline_config(args)?;
    let (config_kv, seeds) = manifest_config(&config);
    let analysis = match FusaPipeline::new(config)
        .with_campaign_durability(session.durability(args)?)
        .run(&netlist)
    {
        Ok(analysis) => analysis,
        Err(PipelineError::Interrupted { .. }) => {
            session.exit_interrupted(netlist.name(), config_kv, seeds)
        }
        Err(error) => return Err(error.to_string()),
    };
    session.note_quarantined(&analysis.campaign_quarantined);
    let explainer = analysis.explainer(ExplainerConfig::default());
    let explanation = explainer.explain(gate.index());
    let mut text = format!(
        "{gate_name}: predicted {} (P(critical) = {:.3}, ground truth score {:.2})\n",
        if explanation.predicted_class == 1 {
            "CRITICAL"
        } else {
            "non-critical"
        },
        analysis.evaluation.critical_probability[gate.index()],
        analysis.dataset.scores()[gate.index()],
    );
    text.push_str("\nfeature importance:\n");
    for (feature, score) in explanation.ranked_features() {
        let _ = writeln!(text, "  {feature:<36} {score:.2}");
    }
    text.push_str("\nmost influential wires:\n");
    for (a, b, weight) in explanation.edge_importance.iter().take(8) {
        let _ = writeln!(
            text,
            "  {} -- {}  (mask {weight:.2})",
            netlist.gates()[*a].name,
            netlist.gates()[*b].name,
        );
    }
    print!("{text}");
    let digests = vec![("explanation.txt".to_string(), fnv1a64_hex(text.as_bytes()))];
    session.finish(netlist.name(), config_kv, seeds, digests)?;
    exit_strict(args, analysis.campaign_quarantined.len());
    exit_strict_durability(args);
    Ok(())
}

fn cmd_harden(args: &[String]) -> Result<(), String> {
    use fusa::netlist::harden::{tmr_overhead, tmr_protect};
    use fusa::netlist::GateId;

    let design_arg = args.get(1).ok_or("missing design")?;
    let mut session = ObsSession::begin("harden", design_arg, args)?;
    let netlist = load_design(design_arg)?;
    let budget: f64 = flag_value(args, "--budget")
        .map(|v| v.parse().map_err(|_| "bad --budget value".to_string()))
        .transpose()?
        .unwrap_or(0.1);
    if !(0.0..=1.0).contains(&budget) {
        return Err("--budget must be in [0, 1]".into());
    }
    let config = pipeline_config(args)?;
    let (config_kv, seeds) = manifest_config(&config);
    let analysis = match FusaPipeline::new(config)
        .with_campaign_durability(session.durability(args)?)
        .run(&netlist)
    {
        Ok(analysis) => analysis,
        Err(PipelineError::Interrupted { .. }) => {
            session.exit_interrupted(netlist.name(), config_kv, seeds)
        }
        Err(error) => return Err(error.to_string()),
    };
    session.note_quarantined(&analysis.campaign_quarantined);

    let count = ((netlist.gate_count() as f64) * budget) as usize;
    let mut ranked: Vec<(usize, f64)> = analysis
        .evaluation
        .critical_probability
        .iter()
        .copied()
        .enumerate()
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaN"));
    let selection: Vec<GateId> = ranked
        .iter()
        .take(count)
        .map(|&(i, _)| GateId(i as u32))
        .collect();

    let hardened = tmr_protect(&netlist, &selection).map_err(|e| e.to_string())?;
    println!(
        "protected {} gates ({}% budget): {} -> {} gates ({:.2}x area)",
        selection.len(),
        (budget * 100.0).round(),
        netlist.gate_count(),
        hardened.gate_count(),
        tmr_overhead(netlist.gate_count(), selection.len()),
    );
    for &gate in selection.iter().take(10) {
        println!(
            "  {:<24} P(critical) = {:.3}",
            netlist.gate(gate).name,
            analysis.evaluation.critical_probability[gate.index()],
        );
    }
    if selection.len() > 10 {
        println!("  ... and {} more", selection.len() - 10);
    }
    let hardened_verilog = fusa::netlist::writer::write_verilog(&hardened);
    let digests = vec![(
        "hardened.v".to_string(),
        fnv1a64_hex(hardened_verilog.as_bytes()),
    )];
    if let Some(path) = flag_value(args, "--out") {
        std::fs::write(path, &hardened_verilog)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("hardened netlist written to {path}");
    }
    session.finish(netlist.name(), config_kv, seeds, digests)?;
    exit_strict(args, analysis.campaign_quarantined.len());
    exit_strict_durability(args);
    Ok(())
}

fn cmd_seu(args: &[String]) -> Result<(), String> {
    let design_arg = args.get(1).ok_or("missing design")?;
    let session = ObsSession::begin("seu", design_arg, args)?;
    let netlist = load_design(design_arg)?;
    if args.iter().any(|a| a == "--resume") || flag_value(args, "--checkpoint").is_some() {
        eprintln!("fusa: note: seu campaigns re-run from scratch; --checkpoint/--resume ignored");
    }
    let config = pipeline_config(args)?;
    let (config_kv, seeds) = manifest_config(&config);
    let workloads = WorkloadSuite::generate(&netlist, &config.workloads);
    let report = SeuCampaign::new(SeuConfig {
        lane_words: config.campaign.lane_words,
        ..SeuConfig::default()
    })
    .with_interrupt(fusa::obs::shutdown_flag())
    .run(&netlist, &workloads);
    if report.interrupted {
        session.exit_interrupted(netlist.name(), config_kv, seeds);
    }
    let mut text = format!(
        "{}: {} flip-flops, mean SEU corruption rate {:.3}\n",
        netlist.name(),
        report.flops.len(),
        report.mean_corruption_rate(),
    );
    text.push_str("\nmost vulnerable registers:\n");
    for (gate, rate) in report.ranking().into_iter().take(15) {
        let _ = writeln!(text, "  {:<28} {rate:.2}", netlist.gate(gate).name);
    }
    print!("{text}");
    let digests = vec![("seu.txt".to_string(), fnv1a64_hex(text.as_bytes()))];
    session.finish(netlist.name(), config_kv, seeds, digests)?;
    exit_strict_durability(args);
    Ok(())
}

/// `fusa synth <size>`: writes a seeded synthetic benchmark netlist.
/// Generation is deterministic, so the printed digest is stable for a
/// given (size, seed) across machines and releases.
fn cmd_synth(args: &[String]) -> Result<(), String> {
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == "synth")
        .expect("synth spec");
    let positionals = positional_args(spec, args);
    let size = *positionals.first().ok_or("missing size")?;
    let seed: u64 = match flag_value(args, "--seed") {
        Some(value) => value
            .parse()
            .map_err(|_| format!("bad --seed value `{value}`"))?,
        None => 1,
    };
    let netlist = match size {
        "10k" => designs::synth_10k(seed),
        "30k" => designs::synth_30k(seed),
        "100k" => designs::synth_100k(seed),
        other => return Err(format!("unknown size `{other}`: use 10k, 30k or 100k")),
    };
    let verilog = fusa::netlist::writer::write_verilog(&netlist);
    let out = flag_value(args, "--out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("synth_{size}.v"));
    std::fs::write(&out, &verilog).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    println!("{}", NetlistStats::of(&netlist));
    println!(
        "seed {seed}, netlist digest {}, written to {out}",
        fnv1a64_hex(verilog.as_bytes())
    );
    Ok(())
}

/// `fusa merge <checkpoint>... [--out FILE]`: unions shard checkpoints
/// into one complete checkpoint, then replays the campaign from it.
/// Every unit is already complete after a valid merge, so no simulation
/// runs and the resulting summary and criticality CSV digests are
/// bit-identical to an uninterrupted single-process run.
fn cmd_merge(args: &[String]) -> Result<(), String> {
    use fusa::faultsim::{merge_checkpoints, read_header, CheckpointHeader};

    let spec = COMMANDS
        .iter()
        .find(|c| c.name == "merge")
        .expect("merge spec");
    let inputs: Vec<PathBuf> = positional_args(spec, args)
        .into_iter()
        .map(PathBuf::from)
        .collect();
    // Peek the first header for the design name; `fusa merge` wants no
    // mandatory <design> positional because the checkpoints know it.
    let first = inputs.first().ok_or("missing checkpoint")?;
    let header = read_header(first).map_err(|e| e.to_string())?;
    let design_arg = flag_value(args, "--design")
        .unwrap_or(&header.design)
        .to_string();
    let mut session = ObsSession::begin("merge", &design_arg, args)?;
    let netlist = load_design(&design_arg)?;

    let out = match flag_value(args, "--out") {
        Some(path) => PathBuf::from(path),
        None => session.run_dir.join("checkpoint.jsonl"),
    };
    if inputs.iter().any(|input| input == &out) {
        return Err(format!(
            "--out `{}` is also a merge input; pick a fresh path",
            out.display()
        ));
    }

    let outcome = {
        let _span = fusa::obs::global().span("merge");
        merge_checkpoints(&inputs, &out).map_err(|e| e.to_string())?
    };
    session.merge_sources = outcome
        .sources
        .iter()
        .map(|source| MergeSourceRecord {
            path: source.path.display().to_string(),
            shard_index: source.shard.map(|s| s.index as u64),
            shard_total: source.shard.map(|s| s.total as u64),
            units: source.units as u64,
        })
        .collect();
    println!(
        "merged {} checkpoint(s) into {}: {} units ({} duplicate unit(s) deduped, {} torn line(s) skipped)",
        outcome.sources.len(),
        out.display(),
        outcome.unit_count,
        outcome.duplicate_units,
        outcome.skipped_lines,
    );
    for source in &outcome.sources {
        let shard = match source.shard {
            Some(s) => format!("shard {s}"),
            None => "unsharded".to_string(),
        };
        println!(
            "  {} ({shard}, {} units)",
            source.path.display(),
            source.units
        );
    }

    // Reconstruct the campaign inputs the shards ran with. The merged
    // header pins the outcome-affecting configuration; the fault list
    // is rebuilt as every gate output first and with untestable sites
    // excluded (the `analyze` pipeline default) second, whichever
    // matches the header's fault digest.
    let mut config = pipeline_config(args)?;
    config.campaign.classify_latent = header.classify_latent;
    config.campaign.min_divergence_fraction = header.min_divergence_fraction;
    config.campaign.shard = None;
    let (config_kv, seeds) = manifest_config(&config);
    let workloads = WorkloadSuite::generate(&netlist, &config.workloads);
    let merged_header = &outcome.header;
    let faults = {
        let all = FaultList::all_gate_outputs(&netlist);
        let captured = CheckpointHeader::capture(&netlist, &all, &workloads, &config.campaign);
        if merged_header
            .check_compatible_ignoring_shard(&captured)
            .is_ok()
        {
            all
        } else {
            all.exclude_untestable(&fusa::lint::untestable_stuck_at_sites(&netlist))
        }
    };
    let captured = CheckpointHeader::capture(&netlist, &faults, &workloads, &config.campaign);
    if let Err(error) = merged_header.check_compatible_ignoring_shard(&captured) {
        return Err(format!(
            "merged checkpoint does not match the reconstructed campaign: {error}\n\
             hint: pass the preset flags the shards ran with (e.g. --fast) \
             and, for file designs, the same netlist via --design"
        ));
    }

    // Resume from the merged checkpoint: the pending set is empty, so
    // this replays zero units and emits the single-run report.
    let lint = lint_digest(&netlist);
    let report = FaultCampaign::new(config.campaign)
        .with_durability(DurabilityConfig {
            checkpoint: Some(out.clone()),
            resume: true,
            interrupt: Some(fusa::obs::shutdown_flag()),
            ..DurabilityConfig::default()
        })
        .run(&netlist, &faults, &workloads)
        .map_err(|e| e.to_string())?;
    print!("{}", report.summary());
    let stable_summary = report.summary_opts(false);
    let dataset = report.into_dataset(config.criticality_threshold);
    println!(
        "\nAlgorithm 1: {} / {} nodes critical at th={}",
        dataset.critical_count(),
        dataset.labels().len(),
        dataset.threshold()
    );
    let csv = dataset.to_csv(&netlist);
    let digests = vec![
        (
            "summary.txt".to_string(),
            fnv1a64_hex(stable_summary.as_bytes()),
        ),
        ("criticality.csv".to_string(), fnv1a64_hex(csv.as_bytes())),
        lint,
    ];
    if let Some(path) = flag_value(args, "--csv") {
        std::fs::write(path, &csv).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("criticality CSV written to {path}");
    }
    session.finish(netlist.name(), config_kv, seeds, digests)
}

/// `fusa fsck <run-dir|checkpoint> [--repair]`: validates campaign
/// storage line by line, reporting exact damage (file, line, unit,
/// cause); `--repair` rewrites the checkpoint keeping the valid header
/// and every intact, digest-passing unit record. Exits 1 when damage
/// remains unrepaired.
fn cmd_fsck(args: &[String]) -> Result<(), String> {
    use fusa::faultsim::{fsck_path, FsckOptions};

    let spec = COMMANDS
        .iter()
        .find(|c| c.name == "fsck")
        .expect("fsck spec");
    let positionals = positional_args(spec, args);
    let path = PathBuf::from(*positionals.first().ok_or("missing path")?);
    let options = FsckOptions {
        repair: args.iter().any(|a| a == "--repair"),
    };
    let report = fsck_path(&path, &options).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if !report.sound() {
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == "report")
        .expect("report spec");
    let positionals = positional_args(spec, args);
    let path = positionals.first().ok_or("missing manifest path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let manifest = RunManifest::parse(&text).map_err(|e| format!("`{path}`: {e}"))?;
    if args.iter().any(|a| a == "--json") {
        println!("{}", render_manifest_report_json(&manifest).render_pretty());
    } else {
        print!("{}", render_manifest_report(&manifest));
    }
    Ok(())
}

/// Builds the fleet view `fusa top` renders: discovers `status.json`
/// snapshots under the given roots and derives each run's shard-family
/// key from its checkpoint header (when one exists and parses).
fn collect_fleet(roots: &[PathBuf], stale_seconds: f64) -> Result<FleetView, String> {
    let mut runs = Vec::new();
    let mut damaged = Vec::new();
    for status_path in discover_status_files(roots) {
        let status = match StatusSnapshot::read(&status_path) {
            Ok(status) => status,
            // An unreadable or corrupt snapshot is an operational signal
            // (torn write, disk fault), not ours to crash on — and not
            // ours to hide either: it becomes a flagged DAMAGED row.
            Err(error) => {
                damaged.push(FleetDamage {
                    path: status_path,
                    error,
                });
                continue;
            }
        };
        let dir = status_path
            .parent()
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        let family = fusa::faultsim::read_header(&dir.join("checkpoint.jsonl"))
            .ok()
            .map(|header| header.family_key());
        runs.push(FleetRun {
            dir,
            status,
            family,
        });
    }
    if runs.is_empty() && damaged.is_empty() {
        return Err(format!(
            "no status.json snapshots under {} (runs write them unless --no-status; old runs predate them)",
            roots
                .iter()
                .map(|r| format!("`{}`", r.display()))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
    Ok(FleetView::build(
        runs,
        damaged,
        FleetOptions {
            stale_seconds,
            now_unix: fusa::obs::unix_now(),
        },
    ))
}

/// `fusa top <results-root|run-dir>...`: the live fleet dashboard.
fn cmd_top(args: &[String]) -> Result<(), String> {
    let spec = COMMANDS.iter().find(|c| c.name == "top").expect("top spec");
    let roots: Vec<PathBuf> = positional_args(spec, args)
        .iter()
        .map(PathBuf::from)
        .collect();
    let json = args.iter().any(|a| a == "--json");
    let once = json || args.iter().any(|a| a == "--once");
    let interval = match flag_value(args, "--interval") {
        Some(value) => value
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or_else(|| format!("bad --interval value `{value}`"))?,
        None => 2.0,
    };
    let stale_seconds = match flag_value(args, "--stale") {
        Some(value) => value
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or_else(|| format!("bad --stale value `{value}`"))?,
        None => FleetOptions::DEFAULT_STALE_SECONDS,
    };

    loop {
        let view = collect_fleet(&roots, stale_seconds)?;
        if json {
            println!("{}", view.to_json().render_pretty());
        } else {
            if !once {
                // ANSI clear + home keeps the dashboard in place.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", view.render_text());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
        }
        if once {
            return Ok(());
        }
        // Every run finished and none stalled: the fleet is done,
        // leave the final frame on screen.
        if view.live == 0 && view.stalled == 0 {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(interval));
    }
}

/// `fusa export --prometheus <run-dir>...`: render status snapshots and
/// manifests as a Prometheus textfile for node_exporter to scrape.
fn cmd_export(args: &[String]) -> Result<(), String> {
    if !args.iter().any(|a| a == "--prometheus") {
        return Err("`fusa export` needs a format; pass --prometheus".into());
    }
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == "export")
        .expect("export spec");
    let mut runs = Vec::new();
    for root in positional_args(spec, args) {
        let dir = PathBuf::from(root);
        let status = StatusSnapshot::read(&dir.join("status.json")).ok();
        let manifest = std::fs::read_to_string(dir.join("manifest.json"))
            .ok()
            .and_then(|text| RunManifest::parse(&text).ok());
        if status.is_none() && manifest.is_none() {
            return Err(format!(
                "`{root}` has neither a status.json nor a manifest.json"
            ));
        }
        runs.push(PromRun { status, manifest });
    }
    let rendered = render_prometheus(&runs);
    match flag_value(args, "--out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("fusa: metrics written to {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// `fusa trace <trace.jsonl>`: offline span/event query over a
/// `--trace-out` stream.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == "trace")
        .expect("trace spec");
    let positionals = positional_args(spec, args);
    let path = positionals.first().ok_or("missing trace path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let filter = TraceFilter {
        kind: flag_value(args, "--kind").map(str::to_string),
        name_substring: flag_value(args, "--name").map(str::to_string),
    };
    let report = TraceReport::scan(&text, &filter);
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json().render_pretty());
    } else {
        print!("{}", report.render_text());
    }
    Ok(())
}

/// `fusa compare <baseline> <candidate>`: the cross-run regression
/// gate. Arguments are manifest files or run directories. Exits 1 when
/// the candidate regressed (digest mismatch on same-seed runs, or a
/// time metric beyond tolerance).
fn cmd_compare(args: &[String]) -> Result<(), String> {
    use fusa::obs::{
        append_bench_trajectory, compare_manifests, load_manifest_arg, CompareOptions,
    };

    let spec = COMMANDS
        .iter()
        .find(|c| c.name == "compare")
        .expect("compare spec");
    let positionals = positional_args(spec, args);
    let baseline_arg = positionals.first().ok_or("missing baseline")?;
    let candidate_arg = positionals.get(1).ok_or("missing candidate")?;
    let baseline = load_manifest_arg(std::path::Path::new(baseline_arg))?;
    let candidate = load_manifest_arg(std::path::Path::new(candidate_arg))?;

    let mut options = CompareOptions::default();
    if let Some(value) = flag_value(args, "--tolerance-pct") {
        options.tolerance_pct = value
            .parse()
            .map_err(|_| format!("bad --tolerance-pct value `{value}`"))?;
    }
    if let Some(value) = flag_value(args, "--min-seconds") {
        options.min_seconds = value
            .parse()
            .map_err(|_| format!("bad --min-seconds value `{value}`"))?;
    }
    let comparison = compare_manifests(&baseline, &candidate, options);

    if args.iter().any(|a| a == "--json") {
        println!("{}", comparison.to_json().render());
    } else {
        print!("{}", comparison.render_text());
    }

    if args.iter().any(|a| a == "--append-bench") {
        let path = flag_value(args, "--bench-file").unwrap_or("BENCH_campaign.json");
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        let updated = append_bench_trajectory(&existing, &comparison, &baseline, &candidate)?;
        std::fs::write(path, updated).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        println!("trajectory entry appended to {path}");
    }

    if comparison.has_regression() {
        std::process::exit(1);
    }
    Ok(())
}
