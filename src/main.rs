//! `fusa` — command-line fault criticality analysis.
//!
//! The usage text is generated from [`COMMANDS`], the same table
//! [`Args::parse`] reads, so help and parser cannot drift. Run `fusa`
//! with no arguments to see it.
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
    CampaignReport, CheckpointHeader, DurabilityConfig, FaultCampaign, FaultList, QuarantinedUnit,
    SeuCampaign, ShardSpec,
};
use fusa::gcn::pipeline::{FusaAnalysis, FusaPipeline, PipelineConfig, PipelineError};
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

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Writes `text` to standard output and flushes it: the one writer of
/// every command's results. When the reader has gone away, as in
/// `fusa lint big.v | head -1`, the process ends quietly with status
/// 141, what a shell reports for a writer that SIGPIPE ended; any other
/// write error ends it with one `error:` line and status 1. `println!`
/// would panic (status 101, with a backtrace) on both.
fn write_stdout(text: std::fmt::Arguments) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    let Err(error) = stdout.write_fmt(text).and_then(|()| stdout.flush()) else {
        return;
    };
    if error.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(141);
    }
    eprintln!("error: cannot write to standard output: {error}");
    std::process::exit(1);
}

/// One flag a command accepts.
struct FlagSpec {
    name: &'static str,
    /// Value placeholder (`None` for boolean flags).
    value: Option<&'static str>,
    help: &'static str,
}

/// One CLI command: the single source of truth for the usage text and
/// the argument parser.
struct CommandSpec {
    name: &'static str,
    /// Positional-argument synopsis, e.g. `<design>`: one word per
    /// required argument, and a trailing `...` accepts more of the last
    /// (`fusa merge <checkpoint>...`).
    positionals: &'static str,
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
        name: "--no-cone",
        value: None,
        help: "sweep the full netlist every cycle (the reference) instead of only the gates faults disturb",
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
        flags: &[],
        run_options: false,
        help: "list built-in benchmark designs",
    },
    CommandSpec {
        name: "stats",
        positionals: "<design>",
        flags: &[],
        run_options: false,
        help: "netlist statistics",
    },
    CommandSpec {
        name: "lint",
        positionals: "<design>",
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
        flags: &[],
        run_options: true,
        help: "why is this node critical?",
    },
    CommandSpec {
        name: "seu",
        positionals: "<design>",
        flags: &[],
        run_options: true,
        help: "transient bit-flip vulnerability",
    },
    CommandSpec {
        name: "harden",
        positionals: "<design>",
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
        flags: &[
            FlagSpec {
                name: "--repair",
                value: None,
                help: "rewrite a damaged checkpoint keeping every intact unit record",
            },
            FlagSpec {
                name: "--design",
                value: Some("NAME|FILE"),
                help: "design of the resume hints (default: the design named in the checkpoint header)",
            },
        ],
        run_options: false,
        help: "validate (and repair) campaign storage: checkpoint, manifest, status",
    },
    CommandSpec {
        name: "report",
        positionals: "<manifest.json>",
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

/// A command line parsed against its [`CommandSpec`]: the positional
/// arguments in order and each given flag with the value it consumed.
/// Every `--` token is a flag, a value-taking flag consumes the next
/// token whatever it looks like, and the first occurrence of a flag
/// wins.
struct Args<'a> {
    /// The command line after `fusa`, as given; `line[0]` is the command.
    line: &'a [String],
    /// Exactly the spec's count of them, or at least it when variadic.
    positionals: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Parses `line` against `spec`: every `--flag` must be declared
    /// (there or in the shared run options), value-taking flags must
    /// have a value, and the positional count must match.
    fn parse(spec: &CommandSpec, line: &'a [String]) -> Result<Args<'a>, String> {
        let run_flags = if spec.run_options { RUN_FLAGS } else { &[] };
        let mut args = Args {
            line,
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut tokens = line[1..].iter().map(String::as_str);
        while let Some(token) = tokens.next() {
            let Some(stripped) = token.strip_prefix("--") else {
                args.positionals.push(token);
                continue;
            };
            let flag = spec
                .flags
                .iter()
                .chain(run_flags)
                .find(|f| f.name == token)
                .ok_or_else(|| format!("unknown flag `--{stripped}` for `fusa {}`", spec.name))?;
            let value = flag.value.and_then(|_| tokens.next());
            if flag.value.is_some() && value.is_none() {
                return Err(format!("flag `{}` needs a value", flag.name));
            }
            args.flags.push((flag.name, value));
        }
        let (got, wanted) = (
            args.positionals.len(),
            spec.positionals.split_whitespace().count(),
        );
        let variadic = spec.positionals.ends_with("...");
        if got < wanted || (got > wanted && !variadic) {
            let at_least = if variadic { "at least " } else { "" };
            return Err(format!(
                "`fusa {}` takes {at_least}{wanted} positional argument(s) ({}), got {got}",
                spec.name, spec.positionals
            ));
        }
        Ok(args)
    }

    /// Whether the flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|&(flag, _)| flag == name)
    }

    /// The value the flag `name` consumed, if it was given.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|&&(flag, _)| flag == name)
            .and_then(|&(_, value)| value)
    }

    /// The value of the numeric flag `name`, if it was given; a value
    /// that does not parse as `T` is an error.
    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|value| value.parse().map_err(|_| self.bad_value(name)))
            .transpose()
    }

    /// The error for a value of `name` that does not parse or is out of
    /// its domain.
    fn bad_value(&self, name: &str) -> String {
        format!(
            "bad {name} value `{}`",
            self.value(name).unwrap_or_default()
        )
    }

    /// Writes `contents` to the file the flag `name` names, if it was
    /// given, and says so on stdout.
    fn write_file(&self, name: &str, contents: &str, what: &str) -> Result<(), String> {
        if let Some(path) = self.value(name) {
            std::fs::write(path, contents).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            outln!("{what} written to {path}");
        }
        Ok(())
    }
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

fn run(line: &[String]) -> Result<(), CliError> {
    let command = line
        .first()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let spec = COMMANDS
        .iter()
        .find(|c| c.name == command.as_str())
        .ok_or_else(|| CliError::Usage(format!("unknown command `{command}`")))?;
    let args = Args::parse(spec, line).map_err(CliError::Usage)?;
    run_command(spec, &args).map_err(CliError::Runtime)
}

fn run_command(spec: &CommandSpec, args: &Args) -> Result<(), String> {
    match spec.name {
        "designs" => {
            for design in designs::all_designs() {
                outln!("{design}");
            }
            Ok(())
        }
        "stats" => {
            let netlist = load_design(args.positionals[0])?;
            outln!("{}", NetlistStats::of(&netlist));
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

fn pipeline_config(args: &Args) -> Result<PipelineConfig, String> {
    let mut config = if args.has("--fast") {
        PipelineConfig::fast()
    } else {
        PipelineConfig::default()
    };
    // The full sweep is bit-identical to differential stepping; the knob
    // exists for benchmarking and cross-checking.
    if args.has("--no-cone") {
        config.campaign.restrict_to_cone = false;
    }
    if let Some(threads) = args.number("--threads")? {
        config.campaign.threads = threads;
    }
    if args.has("--structural-features") {
        config.structural_features = true;
    }
    Ok(config)
}

/// One observed CLI run: resets the global recorder, optionally attaches
/// the `--trace-out` sink, and on [`ObsSession::finish`] assembles and
/// writes `<run-dir>/manifest.json` and applies the `--strict` gates.
struct ObsSession<'a> {
    /// The command line: its run options, `--quiet-stats` and the
    /// `--strict` flags.
    args: &'a Args<'a>,
    run_id: String,
    run_dir: PathBuf,
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

impl<'a> ObsSession<'a> {
    /// Begins the run of `args`' command on `design_arg`. Call it before
    /// the design loads, so the parser's `parse` span lands in the
    /// manifest.
    fn begin(design_arg: &str, args: &'a Args) -> Result<ObsSession<'a>, String> {
        let command = &args.line[0];
        let obs = fusa::obs::global();
        obs.reset();
        fusa::obs::reset_shutdown();
        fusa::obs::reset_degraded();
        // Storage chaos hooks (FUSA_IO_FAIL_*), mirroring the
        // FUSA_CAMPAIGN_* campaign hooks: no-ops unless the environment
        // schedules a failure.
        fusa::obs::arm_io_faults_from_env();
        fusa::obs::install_signal_handlers();
        fusa::obs::set_progress_stderr(args.has("--progress"));
        if let Some(path) = args.value("--trace-out") {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
            obs.attach_sink(Box::new(std::io::BufWriter::new(file)));
        }
        let shard = match args.value("--shard") {
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
        let run_dir = match args.value("--run-dir") {
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
        if args.has("--no-status") {
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
            args,
            run_id,
            run_dir,
            started: Instant::now(),
            interrupted: false,
            quarantined: Vec::new(),
            shard,
            merge_sources: Vec::new(),
        })
    }

    /// The command line as given, for the manifest and the resume hint.
    fn command_line(&self) -> String {
        format!("fusa {}", self.args.line.join(" "))
    }

    /// Campaign durability options for this run: checkpoint under the
    /// run directory unless `--checkpoint` overrides, cooperative
    /// interruption through the process signal flag.
    fn durability(&self) -> Result<DurabilityConfig, String> {
        let checkpoint = match self.args.value("--checkpoint") {
            Some(path) => PathBuf::from(path),
            None => self.run_dir.join("checkpoint.jsonl"),
        };
        let max_unit_retries = self
            .args
            .number("--max-unit-retries")?
            .unwrap_or(DurabilityConfig::default().max_unit_retries);
        Ok(DurabilityConfig {
            checkpoint: Some(checkpoint),
            resume: self.args.has("--resume"),
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

    /// Writes the manifest and (unless `--quiet-stats`) a one-screen
    /// summary. `design` is the parsed module name, not the CLI slug.
    ///
    /// A complete run then fails (exit 1) under `--strict` when campaign
    /// units were quarantined, and under `--strict-durability` when a
    /// checkpoint, trace or manifest write outlived its retry budget:
    /// after the results and manifest are out, so the partial ground
    /// truth stays inspectable and nothing is lost twice.
    fn finish(
        self,
        design: &str,
        config: ConfigEntries,
        seeds: SeedEntries,
        digests: Vec<(String, String)>,
    ) {
        let obs = fusa::obs::global();
        // Disarm status snapshots: every progress phase has emitted its
        // final (finished) beat by now.
        set_status_target(None);
        obs.detach_sink();
        let snapshot = obs.snapshot();
        let mut manifest = RunManifest::new(&self.run_id, &self.command_line(), design);
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
        manifest.merged_from = self.merge_sources;

        // Manifest I/O failures (disk full, read-only results dir) must
        // not turn a finished analysis into a nonzero exit: warn and
        // keep the run's stdout results.
        let path = self.run_dir.join("manifest.json");
        let written = std::fs::create_dir_all(&self.run_dir).and_then(|()| {
            fusa::obs::write_file_with_faults("manifest", &path, manifest.to_json().as_bytes())
        });
        match written {
            Err(error) => {
                let reason = format!("manifest write to `{}` failed: {error}", path.display());
                fusa::obs::mark_degraded(&reason);
                eprintln!("fusa: {reason}; continuing without it");
            }
            Ok(()) if !self.args.has("--quiet-stats") => outln!(
                "\nrun manifest: {} (wall {:.2}s, stages cover {:.0}%; `fusa report {}` for the breakdown)",
                path.display(),
                manifest.wall_seconds,
                manifest.stage_coverage() * 100.0,
                path.display(),
            ),
            Ok(()) => {}
        }

        if self.interrupted {
            return;
        }
        let quarantined = self.quarantined.len();
        if quarantined > 0 && self.args.has("--strict") {
            eprintln!("fusa: --strict: {quarantined} campaign unit(s) quarantined");
            std::process::exit(1);
        }
        if fusa::obs::durability_degraded() && self.args.has("--strict-durability") {
            let reason = fusa::obs::degraded_reason()
                .unwrap_or_else(|| "a storage write outlived its retry budget".to_string());
            eprintln!("fusa: --strict-durability: {reason}");
            std::process::exit(1);
        }
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

fn cmd_lint(args: &Args) -> Result<(), String> {
    use fusa::lint::{lint_netlist, LintSeverity};

    let netlist = load_design(args.positionals[0])?;
    let deny = match args.value("--deny") {
        Some(level) => LintSeverity::parse(level)
            .ok_or_else(|| format!("bad --deny level `{level}` (info|warnings|errors)"))?,
        None => LintSeverity::Error,
    };
    let report = lint_netlist(&netlist);
    if args.has("--json") {
        out!("{}", report.render_json());
    } else if args.has("--csv") {
        out!("{}", report.render_csv());
    } else {
        out!("{}", report.render_text());
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

/// The run of a pipeline command: its observed session, its design and
/// the configuration its run options select.
struct Run<'a> {
    session: ObsSession<'a>,
    netlist: Netlist,
    config: PipelineConfig,
}

impl<'a> Run<'a> {
    /// Begins the session, then loads `design_arg` (so the parser's
    /// `parse` span lands in the manifest) and reads the run options.
    fn begin(design_arg: &str, args: &'a Args) -> Result<Run<'a>, String> {
        let session = ObsSession::begin(design_arg, args)?;
        let netlist = load_design(design_arg)?;
        let mut config = pipeline_config(args)?;
        config.campaign.shard = session.shard;
        Ok(Run {
            session,
            netlist,
            config,
        })
    }

    /// Runs [`FusaPipeline`] with the session's durability and notes the
    /// campaign units it quarantined: the one run path of `analyze`,
    /// `explain` and `harden`.
    fn analyze(mut self) -> Result<(Run<'a>, FusaAnalysis), String> {
        let pipeline = FusaPipeline::new(self.config.clone())
            .with_campaign_durability(self.session.durability()?);
        match pipeline.run(&self.netlist) {
            Ok(analysis) => {
                self.session
                    .note_quarantined(&analysis.campaign_quarantined);
                Ok((self, analysis))
            }
            Err(PipelineError::Interrupted { .. }) => self.exit_interrupted(),
            Err(error) => Err(error.to_string()),
        }
    }

    /// Prints a finished campaign's summary and its Algorithm 1 line,
    /// writes the criticality CSV to `--csv` when given, and returns the
    /// `summary.txt` and `criticality.csv` digests followed by `lint`,
    /// the design's [`lint_digest`] taken before the campaign.
    fn report_campaign(
        &self,
        report: CampaignReport,
        lint: (String, String),
    ) -> Result<Vec<(String, String)>, String> {
        out!("{}", report.summary());
        let stable_summary = report.summary_opts(false);
        let dataset = report.into_dataset(self.config.criticality_threshold);
        outln!(
            "\nAlgorithm 1: {} / {} nodes critical at th={}",
            dataset.critical_count(),
            dataset.labels().len(),
            dataset.threshold()
        );
        let csv = dataset.to_csv(&self.netlist);
        self.session
            .args
            .write_file("--csv", &csv, "criticality CSV")?;
        Ok(vec![
            digest("summary.txt", &stable_summary),
            digest("criticality.csv", &csv),
            lint,
        ])
    }

    /// Prints the interruption notice and the exact invocation that
    /// resumes this run, then exits with the conventional SIGINT status.
    fn exit_interrupted(mut self) -> ! {
        let mut resume = self.session.command_line();
        if !self.session.args.has("--resume") {
            resume.push_str(" --resume");
        }
        self.session.interrupted = true;
        self.finish(Vec::new());
        eprintln!("fusa: interrupted — partial results checkpointed; resume with:");
        eprintln!("  {resume}");
        std::process::exit(130);
    }

    /// Closes the session with the command's artifact digests.
    fn finish(self, digests: Vec<(String, String)>) {
        let (config, seeds) = manifest_config(&self.config);
        self.session
            .finish(self.netlist.name(), config, seeds, digests);
    }
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let run = Run::begin(args.positionals[0], args)?;
    let lint = lint_digest(&run.netlist);
    let (run, analysis) = run.analyze()?;
    let netlist = &run.netlist;

    let text = render_text_report(&analysis, netlist, &ReportOptions::default());
    outln!("{text}");

    // Digests cover only deterministic artifacts: the stats-free text
    // report and the per-node CSV are identical across same-seed runs.
    let stable_text = render_text_report(
        &analysis,
        netlist,
        &ReportOptions {
            include_stats: false,
        },
    );
    let csv = render_csv_report(&analysis, netlist);
    let digests = vec![
        digest("report.txt", &stable_text),
        digest("nodes.csv", &csv),
        lint,
    ];

    args.write_file("--report", &text, "report")?;
    args.write_file("--csv", &csv, "per-node CSV")?;
    if let Some(path) = args.value("--save-model") {
        let file =
            std::fs::File::create(path).map_err(|e| format!("cannot create `{path}`: {e}"))?;
        fusa::gcn::persist::save_classifier(&analysis.classifier, file)
            .map_err(|e| e.to_string())?;
        outln!("trained model written to {path}");
    }
    run.finish(digests);
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), String> {
    let mut run = Run::begin(args.positionals[0], args)?;
    let faults = FaultList::all_gate_outputs(&run.netlist);
    let workloads = WorkloadSuite::generate(&run.netlist, &run.config.workloads);
    let lint = lint_digest(&run.netlist);
    let report = FaultCampaign::new(run.config.campaign)
        .with_durability(run.session.durability()?)
        .run(&run.netlist, &faults, &workloads)
        .map_err(|e| e.to_string())?;
    run.session.note_quarantined(report.quarantined());
    if report.interrupted() {
        run.exit_interrupted();
    }
    let digests = run.report_campaign(report, lint)?;
    run.finish(digests);
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
    digest("lint.csv", &fusa::lint::lint_netlist(netlist).render_csv())
}

/// The manifest digest entry of an artifact.
fn digest(artifact: &str, contents: &str) -> (String, String) {
    (artifact.to_string(), fnv1a64_hex(contents.as_bytes()))
}

fn cmd_rank(args: &Args) -> Result<(), String> {
    use fusa::gcn::{parse_ground_truth, StaticRank, CHANNEL_WEIGHTS, RANK_CHANNEL_NAMES};

    let design_arg = args.positionals[0];
    let session = ObsSession::begin(design_arg, args)?;
    let netlist = load_design(design_arg)?;

    // Every flag and the ground truth are checked before the analysis:
    // exact betweenness makes it the slow part at scale.
    let top = args.number("--top")?.unwrap_or(10);
    let min_rho: Option<f64> = args.number("--min-rho")?;
    if min_rho.is_some_and(|min| !min.is_finite()) {
        let bad = args.bad_value("--min-rho");
        return Err(format!("{bad}: use a finite number"));
    }
    let ground_truth = match args.value("--ground-truth") {
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
    outln!(
        "static criticality ranking of {} ({} gates, no simulation):",
        netlist.name(),
        ranking.len()
    );
    outln!("  {:>4}  {:<24} {:>9}", "rank", "gate", "combined");
    for (position, &gate) in ranking.iter().take(top).enumerate() {
        outln!(
            "  {:>4}  {:<24} {:>9.4}",
            position + 1,
            netlist.gates()[gate].name,
            rank.combined[gate],
        );
    }

    // The CSV is deterministic (pure structure, no RNG), so its digest
    // pins the whole ranking in the manifest.
    let csv = rank.to_csv(&netlist);
    let digests = vec![digest("rank.csv", &csv)];
    args.write_file("--csv", &csv, "static-rank CSV")?;

    let config_kv: ConfigEntries = RANK_CHANNEL_NAMES
        .iter()
        .zip(&CHANNEL_WEIGHTS)
        .map(|(name, weight)| (format!("rank.weight.{name}"), weight.to_string()))
        .collect();

    let mut failed_min_rho = None;
    if let Some((path, truth)) = ground_truth {
        let evaluation = rank.evaluate(&truth);
        let obs = fusa::obs::global();
        outln!("\nSpearman rho vs campaign ground truth ({path}):");
        for &(name, rho) in &evaluation.channel_rho {
            outln!("  {name:<16} {rho:>7.4}");
            obs.gauge_set(&format!("rank.rho.{name}"), rho);
        }
        outln!("  {:<16} {:>7.4}", "combined", evaluation.combined_rho);
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
    session.finish(netlist.name(), config_kv, Vec::new(), digests);
    if let Some((rho, min)) = failed_min_rho {
        eprintln!("rank failed: combined Spearman rho {rho:.4} below --min-rho {min}");
        std::process::exit(1);
    }
    Ok(())
}

fn cmd_explain(args: &Args) -> Result<(), String> {
    let run = Run::begin(args.positionals[0], args)?;
    let gate_name = args.positionals[1];
    let gate = run
        .netlist
        .find_gate(gate_name)
        .ok_or_else(|| format!("no gate named `{gate_name}`"))?;
    let (run, analysis) = run.analyze()?;
    let netlist = &run.netlist;
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
    out!("{text}");
    run.finish(vec![digest("explanation.txt", &text)]);
    Ok(())
}

fn cmd_harden(args: &Args) -> Result<(), String> {
    use fusa::netlist::harden::{tmr_overhead, tmr_protect};
    use fusa::netlist::GateId;

    let run = Run::begin(args.positionals[0], args)?;
    let budget = args.number("--budget")?.unwrap_or(0.1);
    if !(0.0..=1.0).contains(&budget) {
        return Err("--budget must be in [0, 1]".into());
    }
    let (run, analysis) = run.analyze()?;
    let netlist = &run.netlist;

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

    let hardened = tmr_protect(netlist, &selection).map_err(|e| e.to_string())?;
    outln!(
        "protected {} gates ({}% budget): {} -> {} gates ({:.2}x area)",
        selection.len(),
        (budget * 100.0).round(),
        netlist.gate_count(),
        hardened.gate_count(),
        tmr_overhead(netlist.gate_count(), selection.len()),
    );
    for &gate in selection.iter().take(10) {
        outln!(
            "  {:<24} P(critical) = {:.3}",
            netlist.gate(gate).name,
            analysis.evaluation.critical_probability[gate.index()],
        );
    }
    if selection.len() > 10 {
        outln!("  ... and {} more", selection.len() - 10);
    }
    let hardened_verilog = fusa::netlist::writer::write_verilog(&hardened);
    let digests = vec![digest("hardened.v", &hardened_verilog)];
    args.write_file("--out", &hardened_verilog, "hardened netlist")?;
    run.finish(digests);
    Ok(())
}

fn cmd_seu(args: &Args) -> Result<(), String> {
    let run = Run::begin(args.positionals[0], args)?;
    if args.has("--resume") || args.has("--checkpoint") {
        eprintln!("fusa: note: seu campaigns re-run from scratch; --checkpoint/--resume ignored");
    }
    let netlist = &run.netlist;
    let workloads = WorkloadSuite::generate(netlist, &run.config.workloads);
    let report = SeuCampaign::new()
        .with_interrupt(fusa::obs::shutdown_flag())
        .run(netlist, &workloads);
    if report.interrupted {
        run.exit_interrupted();
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
    out!("{text}");
    run.finish(vec![digest("seu.txt", &text)]);
    Ok(())
}

/// `fusa synth <size>`: writes a seeded synthetic benchmark netlist.
/// Generation is deterministic, so the printed digest is stable for a
/// given (size, seed) across machines and releases.
fn cmd_synth(args: &Args) -> Result<(), String> {
    let size = args.positionals[0];
    let seed: u64 = args.number("--seed")?.unwrap_or(1);
    let netlist = match size {
        "10k" => designs::synth_10k(seed),
        "30k" => designs::synth_30k(seed),
        "100k" => designs::synth_100k(seed),
        other => return Err(format!("unknown size `{other}`: use 10k, 30k or 100k")),
    };
    let verilog = fusa::netlist::writer::write_verilog(&netlist);
    let out = args
        .value("--out")
        .map_or_else(|| format!("synth_{size}.v"), str::to_string);
    std::fs::write(&out, &verilog).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    outln!("{}", NetlistStats::of(&netlist));
    outln!(
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
fn cmd_merge(args: &Args) -> Result<(), String> {
    use fusa::faultsim::{merge_checkpoints, read_header, MergeError};

    let inputs: Vec<PathBuf> = args.positionals.iter().map(PathBuf::from).collect();
    // Peek the first header for the design name; `fusa merge` wants no
    // mandatory <design> positional because the checkpoints know it.
    let header = read_header(&inputs[0]).map_err(|e| e.to_string())?;
    let design_arg = args.value("--design").unwrap_or(&header.design);
    let mut run = Run::begin(design_arg, args)?;
    let netlist = &run.netlist;

    let out = match args.value("--out") {
        Some(path) => PathBuf::from(path),
        None => run.session.run_dir.join("checkpoint.jsonl"),
    };
    if inputs.iter().any(|input| input == &out) {
        return Err(format!(
            "--out `{}` is also a merge input; pick a fresh path",
            out.display()
        ));
    }

    let merged = {
        let _span = fusa::obs::global().span("merge");
        merge_checkpoints(&inputs, &out)
    };
    let outcome = merged.map_err(|mut error| {
        if let MergeError::MissingUnits { rerun, .. } = &mut error {
            runnable_hints(rerun, &header, Some((design_arg, netlist)));
        }
        error.to_string()
    })?;
    run.session.merge_sources = outcome
        .sources
        .iter()
        .map(|source| MergeSourceRecord {
            path: source.path.display().to_string(),
            shard_index: source.shard.map(|s| s.index as u64),
            shard_total: source.shard.map(|s| s.total as u64),
            units: source.units as u64,
        })
        .collect();
    outln!(
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
        outln!(
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
    let config = &mut run.config;
    config.campaign.classify_latent = header.classify_latent;
    config.campaign.min_divergence_fraction = header.min_divergence_fraction;
    let workloads = WorkloadSuite::generate(netlist, &config.workloads);
    let merged_header = &outcome.header;
    let faults = {
        let all = FaultList::all_gate_outputs(netlist);
        let captured = CheckpointHeader::capture(netlist, &all, &workloads, &config.campaign);
        if merged_header
            .check_compatible_ignoring_shard(&captured)
            .is_ok()
        {
            all
        } else {
            all.exclude_untestable(&fusa::lint::untestable_stuck_at_sites(netlist))
        }
    };
    let captured = CheckpointHeader::capture(netlist, &faults, &workloads, &config.campaign);
    if let Err(error) = merged_header.check_compatible_ignoring_shard(&captured) {
        return Err(format!(
            "merged checkpoint does not match the reconstructed campaign: {error}\n\
             hint: pass the preset flags the shards ran with (e.g. --fast) \
             and, for file designs, the same netlist via --design"
        ));
    }

    // Resume from the merged checkpoint: the pending set is empty, so
    // this replays zero units and emits the single-run report.
    let lint = lint_digest(netlist);
    let report = FaultCampaign::new(config.campaign)
        .with_durability(DurabilityConfig {
            checkpoint: Some(out.clone()),
            resume: true,
            interrupt: Some(fusa::obs::shutdown_flag()),
            ..DurabilityConfig::default()
        })
        .run(netlist, &faults, &workloads)
        .map_err(|e| e.to_string())?;
    let digests = run.report_campaign(report, lint)?;
    run.finish(digests);
    Ok(())
}

/// `fusa fsck <run-dir|checkpoint> [--repair] [--design NAME|FILE]`:
/// validates campaign storage line by line, reporting exact damage
/// (file, line, unit, cause); `--repair` rewrites the checkpoint keeping
/// the valid header and every intact, digest-passing unit record. Exits
/// 1 when damage remains unrepaired. The resume hints name `--design`
/// when given (a file design's header holds only its module name), else
/// the header's design when that loads.
fn cmd_fsck(args: &Args) -> Result<(), String> {
    use fusa::faultsim::{fsck_path, FsckOptions};

    let path = PathBuf::from(args.positionals[0]);
    let options = FsckOptions {
        repair: args.has("--repair"),
    };
    let design = match args.value("--design") {
        Some(arg) => Some((arg, load_design(arg)?)),
        None => None,
    };
    let mut report = fsck_path(&path, &options).map_err(|e| e.to_string())?;
    if let Some(header) = &report.header {
        let (arg, netlist) = match design {
            Some((arg, netlist)) => (arg, Some(netlist)),
            None => (header.design.as_str(), load_design(&header.design).ok()),
        };
        runnable_hints(
            &mut report.resume_commands,
            header,
            netlist.as_ref().map(|n| (arg, n)),
        );
    }
    out!("{}", report.render());
    if !report.sound() {
        std::process::exit(1);
    }
    Ok(())
}

/// Makes the `fusa faults <design> …` hints printed for the checkpoint
/// with `header` run as they stand. The design argument becomes
/// `design`'s when that loaded the checkpoint's design, and
/// `<design.v>` otherwise (a file design's header holds its module
/// name, not its path). `--fast` is appended when the checkpoint's
/// workloads are the fast preset's: the header records no preset, but
/// its workload digest tells the two apart.
fn runnable_hints(
    hints: &mut [String],
    header: &CheckpointHeader,
    design: Option<(&str, &Netlist)>,
) {
    let preset = PipelineConfig::fast();
    let fast = |netlist: &Netlist| {
        let workloads = WorkloadSuite::generate(netlist, &preset.workloads);
        let faults = FaultList::all_gate_outputs(netlist);
        CheckpointHeader::capture(netlist, &faults, &workloads, &preset.campaign)
    };
    let (arg, flag) = match design.map(|(arg, netlist)| (arg, fast(netlist))) {
        Some((arg, fast)) if fast.design_digest == header.design_digest => {
            let same = fast.workload_digest == header.workload_digest;
            (arg, if same { " --fast" } else { "" })
        }
        _ => ("<design.v>", ""),
    };
    let prefix = format!("fusa faults {}", header.design);
    for hint in hints {
        if let Some(rest) = hint.strip_prefix(&prefix) {
            *hint = format!("fusa faults {arg}{rest}{flag}");
        }
    }
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let path = args.positionals[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let manifest = RunManifest::parse(&text).map_err(|e| format!("`{path}`: {e}"))?;
    if args.has("--json") {
        outln!("{}", render_manifest_report_json(&manifest).render_pretty());
    } else {
        out!("{}", render_manifest_report(&manifest));
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
fn cmd_top(args: &Args) -> Result<(), String> {
    let roots: Vec<PathBuf> = args.positionals.iter().map(PathBuf::from).collect();
    let json = args.has("--json");
    let once = json || args.has("--once");
    let seconds = |name: &str, default: f64| match args.number::<f64>(name)? {
        Some(seconds) if seconds > 0.0 => Ok(seconds),
        Some(_) => Err(args.bad_value(name)),
        None => Ok(default),
    };
    let interval = seconds("--interval", 2.0)?;
    let stale_seconds = seconds("--stale", FleetOptions::DEFAULT_STALE_SECONDS)?;

    loop {
        let view = collect_fleet(&roots, stale_seconds)?;
        if json {
            outln!("{}", view.to_json().render_pretty());
        } else {
            if !once {
                // ANSI clear + home keeps the dashboard in place.
                out!("\x1b[2J\x1b[H");
            }
            out!("{}", view.render_text());
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
fn cmd_export(args: &Args) -> Result<(), String> {
    if !args.has("--prometheus") {
        return Err("`fusa export` needs a format; pass --prometheus".into());
    }
    let mut runs = Vec::new();
    for &root in &args.positionals {
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
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("fusa: metrics written to {path}");
        }
        None => out!("{rendered}"),
    }
    Ok(())
}

/// `fusa trace <trace.jsonl>`: offline span/event query over a
/// `--trace-out` stream.
fn cmd_trace(args: &Args) -> Result<(), String> {
    let path = args.positionals[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let filter = TraceFilter {
        kind: args.value("--kind").map(str::to_string),
        name_substring: args.value("--name").map(str::to_string),
    };
    let report = TraceReport::scan(&text, &filter);
    if args.has("--json") {
        outln!("{}", report.to_json().render_pretty());
    } else {
        out!("{}", report.render_text());
    }
    Ok(())
}

/// `fusa compare <baseline> <candidate>`: the cross-run regression
/// gate. Arguments are manifest files or run directories. Exits 1 when
/// the candidate regressed (digest mismatch on same-seed runs, or a
/// time metric beyond tolerance).
fn cmd_compare(args: &Args) -> Result<(), String> {
    use fusa::obs::{compare_manifests, load_manifest_arg, CompareOptions};

    let baseline = load_manifest_arg(std::path::Path::new(args.positionals[0]))?;
    let candidate = load_manifest_arg(std::path::Path::new(args.positionals[1]))?;

    let mut options = CompareOptions::default();
    if let Some(tolerance_pct) = args.number("--tolerance-pct")? {
        options.tolerance_pct = tolerance_pct;
    }
    if let Some(min_seconds) = args.number("--min-seconds")? {
        options.min_seconds = min_seconds;
    }
    let comparison = compare_manifests(&baseline, &candidate, options);

    if args.has("--json") {
        outln!("{}", comparison.to_json().render());
    } else {
        out!("{}", comparison.render_text());
    }

    if comparison.has_regression() {
        std::process::exit(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[String]) -> Args<'_> {
        let spec = COMMANDS.iter().find(|c| c.name == line[0]);
        Args::parse(spec.expect("a fusa command"), line).expect("a valid command line")
    }

    #[test]
    fn parse_reads_every_token_once() {
        let words = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        // Positionals on both sides of a flag.
        let line = words("explain or1200_icfsm --fast G1");
        let args = parse(&line);
        assert_eq!(args.positionals, ["or1200_icfsm", "G1"]);
        assert!(args.has("--fast"));
        // A value-taking flag consumes the next token, even a `--` one,
        // and the first occurrence of a flag wins.
        let line = words("faults --run-dir --fast d --threads 1 --threads 2");
        let args = parse(&line);
        assert_eq!(args.positionals, ["d"]);
        assert_eq!(args.value("--run-dir"), Some("--fast"));
        assert!(!args.has("--fast"));
        assert_eq!(args.number::<usize>("--threads"), Ok(Some(1)));
    }
}
