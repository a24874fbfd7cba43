//! `fusa-obs`: zero-dependency observability for the fault-criticality
//! stack.
//!
//! Every stage of the reproduction pipeline — netlist parsing, graph
//! generation, fault campaigns, GCN training, baselines, explanation,
//! lint — records into a thread-safe [`Recorder`]: hierarchical **span
//! timers** (wall time per named stage, nested via a per-thread span
//! stack), named **counters** and **gauges** (gate evaluations, epochs,
//! peak RSS), log-bucketed **histograms** ([`Recorder::observe`];
//! per-unit campaign latency, per-epoch train time/loss) and an
//! optional **JSONL event sink** (`--trace-out` on the CLI) receiving
//! one JSON object per line for spans, per-epoch training metrics,
//! campaign summaries and [`Progress`] heartbeats.
//!
//! At the end of a run the CLI folds a [`Recorder`] snapshot, the run
//! configuration, RNG seeds and output digests into a [`RunManifest`] —
//! written as `results/<run>/manifest.json` — so any reported number can
//! be traced to the exact configuration, timing breakdown and content
//! hashes that produced it. `fusa report <manifest.json>` renders it
//! back into a human-readable breakdown ([`render_manifest_report`]),
//! and `fusa compare` diffs two manifests into a regression verdict
//! ([`compare_manifests`]): digests gate hard on same-seed runs, stage
//! times and histogram quantiles gate within a noise tolerance.
//!
//! Instrumented library code records into the process-wide [`global`]
//! recorder (analogous to the `log` crate's global logger); tests and
//! embedders can also use private [`Recorder`] instances.
//!
//! # Example
//!
//! ```
//! use fusa_obs::Recorder;
//!
//! let recorder = Recorder::new();
//! {
//!     let _outer = recorder.span("campaign");
//!     let _inner = recorder.span("golden");
//!     recorder.add("gate_evals", 1024);
//! } // both spans record on drop, even during panics
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter("gate_evals"), 1024);
//! assert!(snapshot.span_seconds("campaign/golden") >= 0.0);
//! assert_eq!(snapshot.spans.len(), 2);
//! ```

mod compare;
mod digest;
mod fleet;
mod histogram;
mod iofault;
mod json;
mod manifest;
mod progress;
mod prom;
mod recorder;
mod render;
mod rss;
mod shutdown;
mod status;
mod tracequery;

pub use compare::{
    compare_manifests, load_manifest_arg, CompareOptions, Comparison, DeltaRow, RowStatus,
};
pub use digest::{fnv1a64, fnv1a64_hex, Fnv64};
pub use fleet::{discover_status_files, FleetDamage, FleetOptions, FleetRow, FleetRun, FleetView};
pub use histogram::{Histogram, HistogramSummary};
pub use iofault::{
    arm_io_faults_from_env, degraded_reason, durability_degraded, mark_degraded, reset_degraded,
    set_io_fault_injection, write_file_with_faults, write_with_faults, IoFaultInjection,
    IoFaultKind,
};
pub use json::{Json, JsonError};
pub use manifest::{
    ManifestError, MergeSourceRecord, QuarantinedUnitRecord, RunManifest, ShardRecord, StageTime,
    MANIFEST_SCHEMA,
};
pub use progress::{progress_stderr, set_progress_stderr, Progress, ProgressConfig};
pub use prom::{render_prometheus, PromRun};
pub use recorder::{EventField, Recorder, Snapshot, SpanGuard, SpanStat};
pub use render::{render_manifest_report, render_manifest_report_json};
pub use rss::peak_rss_bytes;
pub use shutdown::{
    install_signal_handlers, raise_shutdown_signal, request_shutdown, reset_shutdown,
    shutdown_flag, shutdown_requested,
};
pub use status::{
    set_status_target, status_target, unix_now, StatusSnapshot, StatusTarget, STATUS_SCHEMA,
};
pub use tracequery::{TraceFilter, TraceReport};

use std::sync::OnceLock;

/// The process-wide default recorder used by instrumented library code.
///
/// The CLI resets it at the start of each command, optionally attaches a
/// JSONL sink (`--trace-out`), and snapshots it into the run manifest at
/// the end.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}
