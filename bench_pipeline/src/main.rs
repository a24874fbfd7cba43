//! `bench_pipeline`: command-level benchmark of the fusa analysis flow.
//!
//! One run measures one workload for a fixed number of seconds:
//!
//! ```text
//! cargo run --release --manifest-path bench_pipeline/Cargo.toml -- \
//!     --workload paper --seed 1 --seconds 20 --trace 0 [--out runs.jsonl] [--trace-out spans.jsonl]
//! ```
//!
//! and ends its standard output with one JSON line: `correct`,
//! `attempted`, `failed` and `metrics`, the end-to-end metrics with
//! `--trace 0` and the per-layer ones with `--trace 1`.
//! `--check A.jsonl B.jsonl [--bench BENCHMARK.json]` compares two sets
//! of runs recorded with `--out`. See README.md.

mod check;
mod commands;
mod harness;
mod probe;
mod rep;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("bench_pipeline: {message}");
            ExitCode::from(2)
        }
    }
}

/// Flags taking a value, by mode.
const RUN_FLAGS: &[&str] = &[
    "--workload",
    "--seed",
    "--seconds",
    "--trace",
    "--out",
    "--trace-out",
];
const REP_FLAGS: &[&str] = &[
    "--one",
    "--seed",
    "--inputs",
    "--rep-dir",
    "--rep",
    "--traced",
];
const CHECK_FLAGS: &[&str] = &["--check", "--bench"];

fn dispatch(args: &[String]) -> Result<bool, String> {
    if args.iter().any(|a| a == "--check") {
        let files = flag_values(args, CHECK_FLAGS, 2)?;
        let (a, b) = match files.as_slice() {
            [a, b] => (a, b),
            _ => return Err("--check takes two run files".to_string()),
        };
        let bench = value(args, "--bench").unwrap_or("BENCHMARK.json");
        return check::check(Path::new(a), Path::new(b), Path::new(bench));
    }
    if args.iter().any(|a| a == "--one") {
        flag_values(args, REP_FLAGS, 0)?;
        let workload = Workload::named(required(args, "--one")?)?;
        let rep_dir = PathBuf::from(required(args, "--rep-dir")?);
        let result = rep::run(
            &workload,
            number(args, "--seed")?,
            Path::new(required(args, "--inputs")?),
            &rep_dir,
            number(args, "--rep")?,
            required(args, "--traced")? == "1",
        )?;
        let path = rep_dir.join(harness::RESULT_FILE);
        std::fs::write(&path, result.to_json().render())
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        return Ok(true);
    }
    flag_values(args, RUN_FLAGS, 0)?;
    let seconds: f64 = number(args, "--seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    harness::run(&harness::Options {
        workload: Workload::named(required(args, "--workload")?)?,
        seed: number(args, "--seed")?,
        seconds,
        trace,
        out: value(args, "--out").map(PathBuf::from),
        trace_out: value(args, "--trace-out").map(PathBuf::from),
    })
}

/// Checks that every flag is one of `flags`, each followed by a value,
/// and returns the remaining `positionals` arguments.
fn flag_values<'a>(
    args: &'a [String],
    flags: &[&str],
    positionals: usize,
) -> Result<Vec<&'a str>, String> {
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with("--") {
            if !flags.contains(&arg) {
                return Err(format!(
                    "unknown flag `{arg}` (expected one of {})",
                    flags.join(", ")
                ));
            }
            // `--check` is followed by its two files rather than one value.
            if arg != "--check" {
                if i + 1 >= args.len() {
                    return Err(format!("flag `{arg}` needs a value"));
                }
                i += 1;
            }
        } else {
            rest.push(arg);
        }
        i += 1;
    }
    if rest.len() != positionals {
        return Err(format!("unexpected arguments: {}", rest.join(" ")));
    }
    Ok(rest)
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    value(args, flag).ok_or_else(|| format!("missing {flag}"))
}

fn number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<T, String> {
    let text = required(args, flag)?;
    text.parse()
        .map_err(|_| format!("bad {flag} value `{text}`"))
}
