//! Unioning shard checkpoints into one full-campaign checkpoint.
//!
//! A `--shard i/n` campaign writes a checkpoint containing only the
//! units that shard owns (see [`ShardSpec::owns`]). [`merge_checkpoints`]
//! takes the N shard checkpoints — produced on any mix of hosts and
//! thread counts — and unions their unit records into a single
//! merged checkpoint that is indistinguishable from one written by an
//! uninterrupted single-process campaign. Resuming a campaign from the
//! merged file therefore simulates nothing and reproduces the full
//! report, bit-identical digests included.
//!
//! # Validation state machine
//!
//! Merging proceeds through three checks, each with a typed error:
//!
//! 1. **Header compatibility.** Every input's header must match the
//!    first input's on all outcome-affecting fields (design, fault and
//!    workload digests, `classify_latent`, `min_divergence_fraction`) —
//!    the same rule `--resume` applies, except the shard spec is
//!    excluded from the comparison, because differing only in shard
//!    spec is exactly what shard checkpoints do. Violation:
//!    [`MergeError::HeaderMismatch`].
//! 2. **Conflict detection.** A unit may appear in several inputs (for
//!    example after overlapping shard reruns), or twice in one. Records
//!    that are identical are deduplicated; records that disagree about
//!    a unit's outcomes, within one input or across inputs, mean the
//!    inputs were not produced by the same campaign, and the merge
//!    aborts with [`MergeError::ConflictingUnit`] rather than guess.
//!    Torn or corrupt lines (a shard killed mid-write, a damaged byte)
//!    are skipped and counted, exactly as `--resume` skips them: each
//!    input is read by the checkpoint scan `--resume` and `fusa fsck`
//!    use.
//! 3. **Coverage.** After all inputs are read, every unit of the full
//!    campaign must be present. Holes — a shard never ran, or was
//!    interrupted and not resumed — abort with
//!    [`MergeError::MissingUnits`], which names the exact
//!    `fusa faults … --shard i/n` commands that fill them.
//!
//! Only when all three pass is the merged checkpoint written: the
//! common header with the shard fields stripped, then every unit line
//! in unit order.
//!
//! ```
//! use fusa_faultsim::{
//!     merge_checkpoints, CampaignConfig, DurabilityConfig, FaultCampaign, FaultList, ShardSpec,
//! };
//! use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
//!
//! let netlist = fusa_netlist::designs::or1200_icfsm();
//! let faults = FaultList::all_gate_outputs(&netlist);
//! let workloads = WorkloadSuite::generate(
//!     &netlist,
//!     &WorkloadConfig { num_workloads: 2, vectors_per_workload: 16, reset_cycles: 0, seed: 3 },
//! );
//! let dir = std::env::temp_dir().join(format!("fusa_merge_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//!
//! // Run each shard the way its own process (or host) would.
//! let mut shard_paths = Vec::new();
//! for index in 1..=2 {
//!     let path = dir.join(format!("shard{index}.jsonl"));
//!     let config = CampaignConfig {
//!         shard: Some(ShardSpec { index, total: 2 }),
//!         ..Default::default()
//!     };
//!     FaultCampaign::new(config)
//!         .with_durability(DurabilityConfig {
//!             checkpoint: Some(path.clone()),
//!             ..Default::default()
//!         })
//!         .run(&netlist, &faults, &workloads)
//!         .unwrap();
//!     shard_paths.push(path);
//! }
//!
//! // Union the shard checkpoints…
//! let merged_path = dir.join("merged.jsonl");
//! let outcome = merge_checkpoints(&shard_paths, &merged_path).unwrap();
//! assert_eq!(outcome.sources.len(), 2);
//!
//! // …then resume from the merged file: every unit is already complete,
//! // so nothing is simulated and the report covers the full campaign.
//! let report = FaultCampaign::new(CampaignConfig::default())
//!     .with_durability(DurabilityConfig {
//!         checkpoint: Some(merged_path),
//!         resume: true,
//!         ..Default::default()
//!     })
//!     .run(&netlist, &faults, &workloads)
//!     .unwrap();
//! assert_eq!(report.stats().units_from_checkpoint, outcome.unit_count);
//! assert!(report.shard().is_none());
//! std::fs::remove_dir_all(&dir).ok();
//! ```

use crate::campaign::UnitOutput;
use crate::checkpoint::{self, CheckpointError, CheckpointHeader, Skipped};
use crate::shard::{shard_of, ShardSpec};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Errors raised by [`merge_checkpoints`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No input checkpoints were given.
    NoInputs,
    /// An input could not be opened, or its header line is missing or
    /// malformed.
    Checkpoint(CheckpointError),
    /// An input's header disagrees with the first input's on an
    /// outcome-affecting field (shard spec excluded from the
    /// comparison).
    HeaderMismatch {
        /// The offending input.
        path: String,
        /// The field-level mismatch.
        mismatch: CheckpointError,
    },
    /// Two inputs record different results for the same unit — they
    /// cannot come from the same campaign.
    ConflictingUnit {
        /// Flat unit index.
        unit: usize,
        /// Input that contributed the unit first.
        first: String,
        /// Input that contradicted it.
        second: String,
    },
    /// The union does not cover the full campaign.
    MissingUnits {
        /// Design name from the common header (for the re-run hints).
        design: String,
        /// Units of the full campaign.
        unit_count: usize,
        /// The uncovered units, ascending.
        missing: Vec<usize>,
        /// Exact commands that would fill each hole.
        rerun: Vec<String>,
    },
    /// The merged output could not be written.
    Io {
        /// Path of the merged output.
        path: String,
        /// Rendered I/O error.
        message: String,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoInputs => write!(f, "no shard checkpoints to merge"),
            MergeError::Checkpoint(e) => write!(f, "{e}"),
            MergeError::HeaderMismatch { path, mismatch } => write!(
                f,
                "shard checkpoint {path} was not produced by the same campaign: {mismatch}"
            ),
            MergeError::ConflictingUnit {
                unit,
                first,
                second,
            } => write!(
                f,
                "unit {unit} has conflicting results in {first} and {second}; \
                 the inputs are not shards of one campaign"
            ),
            MergeError::MissingUnits {
                unit_count,
                missing,
                rerun,
                ..
            } => {
                write!(
                    f,
                    "merged coverage is incomplete: {} of {unit_count} units missing \
                     (units {})",
                    missing.len(),
                    preview(missing)
                )?;
                for command in rerun {
                    write!(f, "\n  fill the hole with: {command}")?;
                }
                Ok(())
            }
            MergeError::Io { path, message } => {
                write!(f, "cannot write merged checkpoint {path}: {message}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

impl From<CheckpointError> for MergeError {
    fn from(e: CheckpointError) -> Self {
        MergeError::Checkpoint(e)
    }
}

/// Renders at most the first eight entries of `units`.
fn preview(units: &[usize]) -> String {
    let shown: Vec<String> = units.iter().take(8).map(usize::to_string).collect();
    if units.len() > shown.len() {
        format!("{}, …", shown.join(", "))
    } else {
        shown.join(", ")
    }
}

/// One input's contribution to a merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeSource {
    /// The input checkpoint.
    pub path: PathBuf,
    /// Shard spec from the input's header (`None` for an unsharded or
    /// already-merged input).
    pub shard: Option<ShardSpec>,
    /// Units first contributed by this input (duplicates of earlier
    /// inputs not counted).
    pub units: usize,
}

/// Successful result of [`merge_checkpoints`].
#[derive(Debug, Clone, PartialEq)]
pub struct MergeOutcome {
    /// The common header, shard fields stripped — also the header of
    /// the merged checkpoint.
    pub header: CheckpointHeader,
    /// Per-input provenance, in input order.
    pub sources: Vec<MergeSource>,
    /// Units of the full campaign (all covered after a successful
    /// merge).
    pub unit_count: usize,
    /// Unit records that duplicated an identical earlier record and
    /// were dropped.
    pub duplicate_units: usize,
    /// Torn, corrupt or out-of-range lines that were skipped.
    pub skipped_lines: usize,
}

/// Unions the unit records of `inputs` into a merged checkpoint at
/// `out`, validating header compatibility, per-unit consistency and
/// full coverage. See the [module docs](self) for the exact rules.
pub fn merge_checkpoints(inputs: &[PathBuf], out: &Path) -> Result<MergeOutcome, MergeError> {
    if inputs.is_empty() {
        return Err(MergeError::NoInputs);
    }
    let mut header: Option<CheckpointHeader> = None;
    // BTreeMap so the merged checkpoint lists units in unit order — the
    // canonical form a fresh single-process run would also settle into
    // after sorting, and the easiest form to eyeball. Each record keeps
    // the index of the input that contributed it first.
    let mut merged: BTreeMap<usize, (usize, UnitOutput)> = BTreeMap::new();
    let mut sources: Vec<MergeSource> = Vec::new();
    let mut duplicate_units = 0usize;
    let mut skipped_lines = 0usize;

    for (source_index, path) in inputs.iter().enumerate() {
        let scan = checkpoint::scan(path)?;
        // The first input's header, shard fields stripped, is the common
        // one every input must match.
        let common = header.get_or_insert_with(|| CheckpointHeader {
            shard: None,
            ..scan.header.clone()
        });
        scan.header
            .check_compatible_ignoring_shard(common)
            .map_err(|mismatch| MergeError::HeaderMismatch {
                path: path.display().to_string(),
                mismatch,
            })?;
        let conflict = |unit, first: &Path| MergeError::ConflictingUnit {
            unit,
            first: first.display().to_string(),
            second: path.display().to_string(),
        };
        for (_, skipped) in &scan.skipped {
            match *skipped {
                Skipped::Blank => {}
                Skipped::Duplicate(_) => duplicate_units += 1,
                Skipped::Conflict(unit) => return Err(conflict(unit, path)),
                Skipped::Damaged(_) | Skipped::OutOfRange(_) => skipped_lines += 1,
            }
        }
        let mut contributed = 0usize;
        for (unit, output) in scan.units {
            match merged.entry(unit) {
                Entry::Vacant(slot) => {
                    slot.insert((source_index, output));
                    contributed += 1;
                }
                Entry::Occupied(first) if first.get().1 == output => duplicate_units += 1,
                Entry::Occupied(first) => return Err(conflict(unit, &inputs[first.get().0])),
            }
        }
        sources.push(MergeSource {
            path: path.clone(),
            shard: scan.header.shard,
            units: contributed,
        });
    }

    let header = header.expect("at least one input");
    let unit_count = header.unit_count();
    let missing: Vec<usize> = (0..unit_count)
        .filter(|unit| !merged.contains_key(unit))
        .collect();
    if !missing.is_empty() {
        let rerun = rerun_commands(&header, &sources, &missing);
        return Err(MergeError::MissingUnits {
            design: header.design.clone(),
            unit_count,
            missing,
            rerun,
        });
    }

    let write = || -> std::io::Result<()> {
        let mut writer = BufWriter::new(File::create(out)?);
        writeln!(writer, "{}", header.to_json_line())?;
        for (unit, (_, output)) in &merged {
            writeln!(writer, "{}", checkpoint::encode_unit(*unit, output))?;
        }
        writer.flush()
    };
    write().map_err(|e| MergeError::Io {
        path: out.display().to_string(),
        message: e.to_string(),
    })?;

    Ok(MergeOutcome {
        header,
        sources,
        unit_count,
        duplicate_units,
        skipped_lines,
    })
}

/// Builds the exact `fusa faults … --shard i/n` commands that would
/// fill `missing`. When every input carries a shard spec with a common
/// total, holes are grouped per owning shard and the command resumes
/// that shard's checkpoint if it was among the inputs; otherwise a
/// single unsharded resume hint is emitted, naming the checkpoint when
/// there is one input. Shared with `fsck`, which prints the same hints
/// for holes left after a `--repair`.
pub(crate) fn rerun_commands(
    header: &CheckpointHeader,
    sources: &[MergeSource],
    missing: &[usize],
) -> Vec<String> {
    let design = &header.design;
    let common_total = sources
        .iter()
        .map(|s| s.shard.map(|shard| shard.total))
        .collect::<Option<Vec<_>>>()
        .and_then(|totals| {
            let first = *totals.first()?;
            totals.iter().all(|&t| t == first).then_some(first)
        });
    let Some(total) = common_total else {
        let checkpoint = match sources {
            [only] => only.path.display().to_string(),
            _ => "<checkpoint>".to_string(),
        };
        return vec![format!(
            "fusa faults {design} --checkpoint {checkpoint} --resume"
        )];
    };
    let mut holes: BTreeMap<usize, usize> = BTreeMap::new();
    for &unit in missing {
        *holes.entry(shard_of(unit, total)).or_default() += 1;
    }
    holes
        .keys()
        .map(|&index| {
            let shard = ShardSpec { index, total };
            match sources.iter().find(|s| s.shard == Some(shard)) {
                Some(source) => format!(
                    "fusa faults {design} --shard {shard} --checkpoint {} --resume",
                    source.path.display()
                ),
                None => format!("fusa faults {design} --shard {shard}"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FaultOutcome;
    use crate::test_support::{sample_header, temp_dir};

    fn sample_output(unit: usize) -> UnitOutput {
        UnitOutput {
            outcomes: vec![
                FaultOutcome::Dangerous,
                FaultOutcome::Latent,
                FaultOutcome::Benign,
            ],
            first_divergence: vec![Some(unit as u32), None, None],
            stepped_fault_cycles: 10 + unit as u64,
            gate_evals: 100 + unit as u64,
        }
    }

    /// Writes a checkpoint containing `header` and the units of `units`.
    fn write_checkpoint(path: &Path, header: &CheckpointHeader, units: &[usize]) {
        crate::test_support::write_checkpoint(path, header, units, sample_output);
    }

    fn owned_units(shard: ShardSpec, unit_count: usize) -> Vec<usize> {
        (0..unit_count).filter(|&u| shard.owns(u)).collect()
    }

    #[test]
    fn disjoint_shards_merge_to_full_coverage_in_unit_order() {
        let dir = temp_dir("disjoint");
        let unit_count = sample_header(None).unit_count();
        assert!(unit_count >= 4, "test design too small: {unit_count} units");
        let mut paths = Vec::new();
        for index in 1..=2 {
            let shard = ShardSpec { index, total: 2 };
            let path = dir.join(format!("shard{index}.jsonl"));
            write_checkpoint(
                &path,
                &sample_header(Some(shard)),
                &owned_units(shard, unit_count),
            );
            paths.push(path);
        }
        let out = dir.join("merged.jsonl");
        let outcome = merge_checkpoints(&paths, &out).unwrap();
        assert_eq!(outcome.unit_count, unit_count);
        assert_eq!(outcome.duplicate_units, 0);
        assert_eq!(outcome.skipped_lines, 0);
        assert_eq!(
            outcome.sources.iter().map(|s| s.units).sum::<usize>(),
            unit_count
        );
        assert_eq!(outcome.header.shard, None);

        // The merged file: shard-free header, then every unit ascending.
        let text = std::fs::read_to_string(&out).unwrap();
        let mut lines = text.lines();
        let header = CheckpointHeader::parse(lines.next().unwrap()).unwrap();
        assert_eq!(header.shard, None);
        let units: Vec<usize> = lines
            .map(|l| checkpoint::decode_unit(l).unwrap().0)
            .collect();
        let expected: Vec<usize> = (0..unit_count).collect();
        assert_eq!(units, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_duplicates_dedupe_conflicting_payloads_abort() {
        let dir = temp_dir("overlap");
        let unit_count = sample_header(None).unit_count();
        let all: Vec<usize> = (0..unit_count).collect();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        // Both inputs cover everything with identical payloads: dedupe.
        write_checkpoint(&a, &sample_header(None), &all);
        write_checkpoint(&b, &sample_header(None), &all);
        let outcome = merge_checkpoints(&[a.clone(), b.clone()], &dir.join("m.jsonl")).unwrap();
        assert_eq!(outcome.duplicate_units, unit_count);

        // Flip one unit's payload in b: typed hard error naming both files.
        let mut text = sample_header(None).to_json_line();
        text.push('\n');
        for &unit in &all {
            let output = if unit == 1 {
                UnitOutput {
                    outcomes: vec![FaultOutcome::Benign],
                    first_divergence: vec![None],
                    stepped_fault_cycles: 1,
                    gate_evals: 1,
                }
            } else {
                sample_output(unit)
            };
            text.push_str(&checkpoint::encode_unit(unit, &output));
            text.push('\n');
        }
        std::fs::write(&b, text).unwrap();
        let err = merge_checkpoints(&[a, b], &dir.join("m2.jsonl")).unwrap_err();
        assert!(
            matches!(err, MergeError::ConflictingUnit { unit: 1, .. }),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shard_reports_hole_with_exact_rerun_command() {
        let dir = temp_dir("missing");
        let unit_count = sample_header(None).unit_count();
        let mut paths = Vec::new();
        // Shards 1 and 3 of 3 present, shard 2 never ran.
        for index in [1usize, 3] {
            let shard = ShardSpec { index, total: 3 };
            let path = dir.join(format!("shard{index}.jsonl"));
            write_checkpoint(
                &path,
                &sample_header(Some(shard)),
                &owned_units(shard, unit_count),
            );
            paths.push(path);
        }
        let err = merge_checkpoints(&paths, &dir.join("m.jsonl")).unwrap_err();
        let MergeError::MissingUnits {
            design,
            missing,
            rerun,
            ..
        } = &err
        else {
            panic!("expected MissingUnits, got {err}");
        };
        assert_eq!(design, "or1200_icfsm");
        let shard2 = ShardSpec { index: 2, total: 3 };
        assert_eq!(missing, &owned_units(shard2, unit_count));
        assert_eq!(rerun, &["fusa faults or1200_icfsm --shard 2/3".to_string()]);
        assert!(err.to_string().contains("--shard 2/3"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_shard_hole_suggests_resuming_its_checkpoint() {
        let dir = temp_dir("resume_hint");
        let unit_count = sample_header(None).unit_count();
        let mut paths = Vec::new();
        for index in 1..=2 {
            let shard = ShardSpec { index, total: 2 };
            let mut units = owned_units(shard, unit_count);
            if index == 2 {
                // Shard 2 was interrupted before its last unit.
                units.pop();
            }
            let path = dir.join(format!("shard{index}.jsonl"));
            write_checkpoint(&path, &sample_header(Some(shard)), &units);
            paths.push(path);
        }
        let err = merge_checkpoints(&paths, &dir.join("m.jsonl")).unwrap_err();
        let MergeError::MissingUnits { rerun, .. } = &err else {
            panic!("expected MissingUnits, got {err}");
        };
        let expected = format!(
            "fusa faults or1200_icfsm --shard 2/2 --checkpoint {} --resume",
            paths[1].display()
        );
        assert_eq!(rerun, &[expected]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn one_unsharded_input_gets_a_resume_hint_naming_it() {
        let dir = temp_dir("unsharded_hint");
        let path = dir.join("a.jsonl");
        write_checkpoint(&path, &sample_header(None), &[0]);
        let err = merge_checkpoints(&[path.clone(), path.clone()], &dir.join("m.jsonl"));
        let Err(MergeError::MissingUnits { rerun, .. }) = err else {
            panic!("expected MissingUnits, got {err:?}");
        };
        assert_eq!(
            rerun,
            ["fusa faults or1200_icfsm --checkpoint <checkpoint> --resume"]
        );
        let err = merge_checkpoints(std::slice::from_ref(&path), &dir.join("m.jsonl"));
        let Err(MergeError::MissingUnits { rerun, .. }) = err else {
            panic!("expected MissingUnits, got {err:?}");
        };
        let hint = format!(
            "fusa faults or1200_icfsm --checkpoint {} --resume",
            path.display()
        );
        assert_eq!(rerun, [hint]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_tolerated_when_covered_elsewhere() {
        let dir = temp_dir("torn");
        let unit_count = sample_header(None).unit_count();
        let shard1 = ShardSpec { index: 1, total: 2 };
        let shard2 = ShardSpec { index: 2, total: 2 };
        let a = dir.join("shard1.jsonl");
        let b = dir.join("shard2.jsonl");
        write_checkpoint(
            &a,
            &sample_header(Some(shard1)),
            &owned_units(shard1, unit_count),
        );
        write_checkpoint(
            &b,
            &sample_header(Some(shard2)),
            &owned_units(shard2, unit_count),
        );
        // Tear shard 2's final line mid-record, as a kill -9 would. The
        // unit's complete record is already in the file above the torn
        // tail, so coverage survives and the torn line is just counted.
        let last = owned_units(shard2, unit_count).pop().unwrap();
        let mut torn = std::fs::read_to_string(&b).unwrap();
        torn.push_str(&checkpoint::encode_unit(last, &sample_output(last))[..20]);
        std::fs::write(&b, &torn).unwrap();
        let outcome = merge_checkpoints(&[a.clone(), b.clone()], &dir.join("m.jsonl")).unwrap();
        assert_eq!(outcome.skipped_lines, 1);
        assert_eq!(outcome.duplicate_units, 0);

        // If the torn record was the unit's only copy, it is a hole.
        let mut units = owned_units(shard2, unit_count);
        let last = units.pop().unwrap();
        write_checkpoint(&b, &sample_header(Some(shard2)), &units);
        let mut torn = std::fs::read_to_string(&b).unwrap();
        torn.push_str(&checkpoint::encode_unit(last, &sample_output(last))[..20]);
        std::fs::write(&b, &torn).unwrap();
        let err = merge_checkpoints(&[a, b], &dir.join("m2.jsonl")).unwrap_err();
        let MergeError::MissingUnits { missing, .. } = &err else {
            panic!("expected MissingUnits, got {err}");
        };
        assert_eq!(missing, &[last]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_header_line_is_a_typed_error_naming_the_file() {
        // A tear in the *header* (disk filled while line 1 was written,
        // or truncation rewound into it) is unrepairable damage — unit
        // lines cannot be interpreted without the fingerprint. Merging
        // must fail with a typed error carrying the file path; any panic
        // here would take down a whole merge over one bad shard.
        let dir = temp_dir("torn_header");
        let unit_count = sample_header(None).unit_count();
        let shard1 = ShardSpec { index: 1, total: 2 };
        let shard2 = ShardSpec { index: 2, total: 2 };
        let a = dir.join("shard1.jsonl");
        let b = dir.join("shard2.jsonl");
        write_checkpoint(
            &a,
            &sample_header(Some(shard1)),
            &owned_units(shard1, unit_count),
        );
        write_checkpoint(
            &b,
            &sample_header(Some(shard2)),
            &owned_units(shard2, unit_count),
        );
        // Truncate shard 2 mid-header: the file opens, line 1 is garbage.
        let intact = std::fs::read_to_string(&b).unwrap();
        std::fs::write(&b, &intact[..40]).unwrap();
        let err = merge_checkpoints(&[a.clone(), b.clone()], &dir.join("m.jsonl")).unwrap_err();
        let MergeError::Checkpoint(CheckpointError::Corrupt { path, .. }) = &err else {
            panic!("expected Checkpoint(Corrupt), got {err}");
        };
        assert_eq!(path, &b.display().to_string(), "error names the file");

        // An empty file (torn before any byte of the header) is the
        // same typed error, not a panic.
        std::fs::write(&b, "").unwrap();
        let err = merge_checkpoints(&[a, b.clone()], &dir.join("m2.jsonl")).unwrap_err();
        let MergeError::Checkpoint(CheckpointError::Corrupt { path, message }) = &err else {
            panic!("expected Checkpoint(Corrupt), got {err}");
        };
        assert_eq!(path, &b.display().to_string());
        assert!(message.contains("empty"), "{message}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_mismatch_and_empty_inputs_are_typed_errors() {
        let dir = temp_dir("mismatch");
        assert_eq!(
            merge_checkpoints(&[], &dir.join("m.jsonl")).unwrap_err(),
            MergeError::NoInputs
        );

        let unit_count = sample_header(None).unit_count();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        write_checkpoint(&a, &sample_header(None), &[0]);
        let mut other = sample_header(None);
        other.workload_digest = "fnv1a64:0000000000000000".into();
        write_checkpoint(&b, &other, &(1..unit_count).collect::<Vec<_>>());
        let err = merge_checkpoints(&[a, b], &dir.join("m.jsonl")).unwrap_err();
        assert!(matches!(err, MergeError::HeaderMismatch { .. }), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
