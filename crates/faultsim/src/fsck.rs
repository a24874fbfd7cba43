//! Offline validation and repair of campaign storage (`fusa fsck`).
//!
//! A fault campaign's durable state is small and append-only — a JSONL
//! checkpoint, a `manifest.json`, a `status.json` — which makes damage
//! both diagnosable and largely repairable. This module walks that
//! state the way `--resume` and `fusa merge` would, but instead of
//! silently skipping what they tolerate it reports *exactly* what is
//! wrong (file, 1-based line number, unit id, cause) and, with
//! [`FsckOptions::repair`], rewrites the checkpoint keeping the valid
//! header and every intact unit record.
//!
//! The validation rules are deliberately the same code paths the rest
//! of the system uses: the checkpoint is read by the one scan `--resume`
//! and `fusa merge` use, so headers go through
//! [`CheckpointHeader::parse`](crate::CheckpointHeader), unit records
//! through the same decoder (damaged bytes, torn JSON, bad outcome
//! characters, lane-count mismatches, digest failures), and the unit
//! space is the header's. What fsck adds is the *diagnosis*: the scan
//! lists every line it did not take with its 1-based number and the
//! first check that failed, and fsck reports it.
//!
//! Repair is conservative by construction:
//!
//! - the rewritten file contains only records that already passed their
//!   digest — fsck never invents or interpolates results;
//! - conflicting duplicates (two *valid* records for one unit with
//!   different payloads) keep the first occurrence, the record
//!   `--resume` takes, and the conflict is reported (`fusa merge`
//!   refuses such a file until it is repaired);
//! - a corrupt header is not repairable (the header binds the campaign
//!   identity; guessing it could graft results onto the wrong design),
//!   so fsck reports it and leaves the file untouched;
//! - the rewrite goes through a temp file + atomic rename, so a crash
//!   mid-repair leaves the original damage, never new damage.
//!
//! Holes left after repair are not damage — a partial campaign is a
//! legal state with a resume path — so fsck prints the exact
//! `fusa faults … --resume` commands that would fill them, reusing the
//! shard-aware hint machinery from [`crate::merge`].

use crate::checkpoint::{self, encode_unit, CheckpointError, CheckpointHeader, Skipped};
use crate::merge::{rerun_commands, MergeSource};
use fusa_obs::{RunManifest, StatusSnapshot};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Options for [`fsck_path`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FsckOptions {
    /// Rewrite a damaged checkpoint keeping the header and every intact
    /// unit record (temp file + atomic rename; conservative — see the
    /// module docs).
    pub repair: bool,
}

/// One piece of damage found by [`fsck_path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckIssue {
    /// File the damage was found in.
    pub file: PathBuf,
    /// 1-based line number within `file`, when the damage is a line.
    pub line: Option<usize>,
    /// Unit id the damaged record claimed, when one could be read.
    pub unit: Option<usize>,
    /// What exactly is wrong (the first validation check that failed).
    pub cause: String,
    /// `true` once a `--repair` rewrite removed this damage.
    pub repaired: bool,
}

impl FsckIssue {
    fn render(&self) -> String {
        let mut text = String::new();
        let _ = write!(text, "{}", self.file.display());
        if let Some(line) = self.line {
            let _ = write!(text, ":{line}");
        }
        if let Some(unit) = self.unit {
            let _ = write!(text, " (unit {unit})");
        }
        let _ = write!(text, ": {}", self.cause);
        if self.repaired {
            text.push_str(" [repaired]");
        }
        text
    }
}

/// Result of checking (and optionally repairing) one path.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Checkpoint file that was validated, if one was found.
    pub checkpoint: Option<PathBuf>,
    /// Parsed checkpoint header (`None` when missing or corrupt).
    pub header: Option<CheckpointHeader>,
    /// Units the full campaign comprises (0 without a header).
    pub campaign_units: usize,
    /// Units this checkpoint's shard is expected to hold.
    pub expected_units: usize,
    /// Distinct units with at least one intact, digest-passing record.
    pub intact_units: usize,
    /// Expected units with no intact record (holes).
    pub missing_units: Vec<usize>,
    /// Every piece of damage found, in file order.
    pub issues: Vec<FsckIssue>,
    /// `true` when `--repair` rewrote the checkpoint.
    pub repaired: bool,
    /// Exact commands that would fill `missing_units`.
    pub resume_commands: Vec<String>,
    /// Manifest file that was validated, if present.
    pub manifest: Option<PathBuf>,
    /// Status file that was validated, if present.
    pub status: Option<PathBuf>,
    /// The manifest's durability flag (a degraded run should be
    /// repaired *and* have its holes re-run before merging).
    pub manifest_degraded: bool,
}

impl FsckReport {
    /// `true` when no unrepaired damage remains. Missing units alone do
    /// not make storage unsound — a partial campaign is a legal state
    /// with a resume path (printed in [`FsckReport::resume_commands`]).
    pub fn sound(&self) -> bool {
        self.issues.iter().all(|i| i.repaired)
    }

    /// Human-readable report, one finding per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(path) = &self.checkpoint {
            let _ = writeln!(out, "checkpoint {}", path.display());
            match &self.header {
                Some(header) => {
                    let shard = header
                        .shard
                        .map_or_else(|| "unsharded".to_string(), |s| format!("shard {s}"));
                    let _ = writeln!(
                        out,
                        "  header: ok (design {}, {} campaign units, {shard})",
                        header.design, self.campaign_units
                    );
                    let _ = writeln!(
                        out,
                        "  units: {} intact / {} expected, {} missing",
                        self.intact_units,
                        self.expected_units,
                        self.missing_units.len()
                    );
                }
                None => {
                    let _ = writeln!(out, "  header: CORRUPT (not repairable)");
                }
            }
        }
        for issue in &self.issues {
            let _ = writeln!(out, "  damage: {}", issue.render());
        }
        if self.repaired {
            let _ = writeln!(
                out,
                "  repaired: rewrote checkpoint with {} intact unit(s)",
                self.intact_units
            );
        }
        if let Some(path) = &self.manifest {
            if self.issue_free(path) {
                let degraded = if self.manifest_degraded {
                    " (flags durability: degraded)"
                } else {
                    ""
                };
                let _ = writeln!(out, "manifest {}: ok{degraded}", path.display());
            } else {
                let _ = writeln!(out, "manifest {}: DAMAGED (see above)", path.display());
            }
        }
        if let Some(path) = &self.status {
            if self.issue_free(path) {
                let _ = writeln!(out, "status {}: ok", path.display());
            } else {
                let _ = writeln!(out, "status {}: DAMAGED (see above)", path.display());
            }
        }
        if !self.missing_units.is_empty() {
            let _ = writeln!(
                out,
                "{} unit(s) missing; complete them with:",
                self.missing_units.len()
            );
            for command in &self.resume_commands {
                let _ = writeln!(out, "  {command}");
            }
        }
        let verdict = if self.sound() {
            if self.issues.is_empty() {
                "clean"
            } else {
                "repaired"
            }
        } else {
            "DAMAGED"
        };
        let _ = writeln!(out, "fsck: {verdict}");
        out
    }

    fn issue_free(&self, path: &Path) -> bool {
        !self.issues.iter().any(|i| i.file == path && !i.repaired)
    }

    fn push(&mut self, file: &Path, line: Option<usize>, unit: Option<usize>, cause: String) {
        self.issues.push(FsckIssue {
            file: file.to_path_buf(),
            line,
            unit,
            cause,
            repaired: false,
        });
    }
}

/// Errors that prevent fsck from examining anything at all (damage it
/// *can* examine is reported through [`FsckReport`] instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsckError {
    /// The path (or a file inside the run directory) could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// Rendered I/O error.
        message: String,
    },
    /// The path is a directory containing none of the files fsck knows
    /// (`checkpoint.jsonl`, `manifest.json`, `status.json`).
    NothingToCheck {
        /// The directory examined.
        path: String,
    },
}

impl std::fmt::Display for FsckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsckError::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            FsckError::NothingToCheck { path } => write!(
                f,
                "{path} contains no checkpoint.jsonl, manifest.json or status.json to check"
            ),
        }
    }
}

impl std::error::Error for FsckError {}

/// Validates `path` — a run directory (checkpoint + manifest + status,
/// each optional) or a bare checkpoint file — and, with
/// [`FsckOptions::repair`], rewrites a damaged checkpoint keeping every
/// intact record.
pub fn fsck_path(path: &Path, options: &FsckOptions) -> Result<FsckReport, FsckError> {
    let mut report = FsckReport::default();
    if path.is_dir() {
        let checkpoint = path.join("checkpoint.jsonl");
        let manifest = path.join("manifest.json");
        let status = path.join("status.json");
        let mut found = false;
        if checkpoint.is_file() {
            found = true;
            check_checkpoint(&checkpoint, options, &mut report)?;
        }
        if manifest.is_file() {
            found = true;
            check_manifest(&manifest, &mut report)?;
        }
        if status.is_file() {
            found = true;
            check_status(&status, &mut report)?;
        }
        if !found {
            return Err(FsckError::NothingToCheck {
                path: path.display().to_string(),
            });
        }
    } else {
        check_checkpoint(path, options, &mut report)?;
    }
    Ok(report)
}

/// Scans one checkpoint file, reporting every damaged line with its
/// cause, and optionally rewrites the salvageable part.
fn check_checkpoint(
    path: &Path,
    options: &FsckOptions,
    report: &mut FsckReport,
) -> Result<(), FsckError> {
    report.checkpoint = Some(path.to_path_buf());
    let scan = match checkpoint::scan(path) {
        Ok(scan) => scan,
        Err(CheckpointError::Corrupt { message, .. }) => {
            report.push(path, Some(1), None, format!("header: {message}"));
            return Ok(());
        }
        Err(CheckpointError::Io { path, message }) => return Err(FsckError::Io { path, message }),
        Err(mismatch) => {
            return Err(FsckError::Io {
                path: path.display().to_string(),
                message: mismatch.to_string(),
            })
        }
    };
    let header = scan.header;
    report.campaign_units = header.unit_count();

    // Blank lines (what the newline-guarded retry path leaves behind a
    // torn fragment) and identical duplicates (a unit rewritten after a
    // retried append) are the normal torn-write recovery pattern, not
    // damage; repair drops them with the rest.
    for (line, skipped) in &scan.skipped {
        let (unit, cause) = match skipped {
            Skipped::Blank | Skipped::Duplicate(_) => continue,
            Skipped::Damaged(e) => (None, e.to_string()),
            Skipped::OutOfRange(unit) => (
                Some(*unit),
                format!(
                    "unit {unit} out of range (campaign has {} units)",
                    report.campaign_units
                ),
            ),
            Skipped::Conflict(unit) => (
                Some(*unit),
                format!(
                    "conflicting duplicate of unit {unit} \
                     (differs from an earlier intact record; first wins)"
                ),
            ),
        };
        report.push(path, Some(*line), unit, cause);
    }

    let expected = (0..report.campaign_units)
        .filter(|&unit| header.shard.is_none_or(|shard| shard.owns(unit)));
    report.expected_units = expected.clone().count();
    report.intact_units = scan.units.len();
    report.missing_units = expected
        .filter(|unit| !scan.units.contains_key(unit))
        .collect();
    if !report.missing_units.is_empty() {
        let sources = [MergeSource {
            path: path.to_path_buf(),
            shard: header.shard,
            units: scan.units.len(),
        }];
        report.resume_commands = rerun_commands(&header, &sources, &report.missing_units);
    }

    // A valid non-canonical line re-encodes to the same record, so only
    // a skipped line forces a rewrite.
    if options.repair && !scan.skipped.is_empty() {
        let mut rebuilt = header.to_json_line();
        rebuilt.push('\n');
        for (unit, output) in &scan.units {
            rebuilt.push_str(&encode_unit(*unit, output));
            rebuilt.push('\n');
        }
        let tmp = path.with_extension("jsonl.fsck-tmp");
        fs::write(&tmp, rebuilt.as_bytes())
            .and_then(|()| fs::rename(&tmp, path))
            .map_err(|e| FsckError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
        report.repaired = true;
        for issue in &mut report.issues {
            if issue.file == path {
                issue.repaired = true;
            }
        }
    }
    report.header = Some(header);
    Ok(())
}

fn check_manifest(path: &Path, report: &mut FsckReport) -> Result<(), FsckError> {
    let text = fs::read_to_string(path).map_err(|e| FsckError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    report.manifest = Some(path.to_path_buf());
    match RunManifest::parse(&text) {
        Ok(manifest) => report.manifest_degraded = manifest.degraded,
        Err(e) => report.push(path, None, None, e.to_string()),
    }
    Ok(())
}

fn check_status(path: &Path, report: &mut FsckReport) -> Result<(), FsckError> {
    report.status = Some(path.to_path_buf());
    if let Err(e) = StatusSnapshot::read(path) {
        report.push(path, None, None, e);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, FaultCampaign, UnitOutput};
    use crate::durability::DurabilityConfig;
    use crate::merge::{merge_checkpoints, MergeError};
    use crate::report::{CampaignReport, FaultOutcome};
    use crate::shard::ShardSpec;
    use crate::test_support::{sample_campaign, sample_header, temp_dir};

    /// Runs the sample campaign, checkpointing to `path` or resuming
    /// from it.
    fn run_campaign(path: &Path, resume: bool) -> CampaignReport {
        let (netlist, faults, workloads) = sample_campaign();
        FaultCampaign::new(CampaignConfig::default())
            .with_durability(DurabilityConfig {
                checkpoint: Some(path.to_path_buf()),
                resume,
                ..Default::default()
            })
            .run(&netlist, &faults, &workloads)
            .expect("campaign runs")
    }

    fn sample_output(unit: usize) -> UnitOutput {
        UnitOutput {
            outcomes: vec![FaultOutcome::Dangerous, FaultOutcome::Benign],
            first_divergence: vec![Some(unit as u32), None],
            stepped_fault_cycles: 10 + unit as u64,
            gate_evals: 100 + unit as u64,
        }
    }

    fn write_checkpoint(path: &Path, header: &CheckpointHeader, units: &[usize]) {
        crate::test_support::write_checkpoint(path, header, units, sample_output);
    }

    #[test]
    fn clean_partial_checkpoint_reports_holes_with_resume_commands() {
        let dir = temp_dir("clean");
        let header = sample_header(None);
        let units = header.unit_count();
        let path = dir.join("checkpoint.jsonl");
        let present: Vec<usize> = (0..units).filter(|u| u % 2 == 0).collect();
        write_checkpoint(&path, &header, &present);

        let report = fsck_path(&path, &FsckOptions::default()).expect("fsck runs");
        assert!(report.sound());
        assert!(report.issues.is_empty());
        assert_eq!(report.intact_units, present.len());
        assert_eq!(report.missing_units.len(), units - present.len());
        assert_eq!(report.resume_commands.len(), 1);
        assert!(
            report.resume_commands[0].contains("--resume")
                && report.resume_commands[0].contains("checkpoint.jsonl"),
            "unsharded hint names the file: {:?}",
            report.resume_commands
        );
        let text = report.render();
        assert!(text.contains("fsck: clean"), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_is_reported_with_line_numbers_and_causes() {
        let dir = temp_dir("damage");
        let header = sample_header(None);
        let path = dir.join("checkpoint.jsonl");
        write_checkpoint(&path, &header, &[0, 1, 2]);

        // Tear unit 2's line mid-record and append garbage + a record
        // whose digest no longer matches its payload.
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let torn = lines[3].clone();
        lines[3] = torn[..torn.len() / 2].to_string();
        // `DB` only occurs in the outcomes string (crc is lowercase hex).
        let forged = encode_unit(3, &sample_output(3)).replace("DB", "DD");
        assert_ne!(forged, encode_unit(3, &sample_output(3)));
        lines.push(forged);
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let report = fsck_path(&path, &FsckOptions::default()).expect("fsck runs");
        assert!(!report.sound());
        assert_eq!(report.intact_units, 2, "units 0 and 1 survive");
        let causes: Vec<&str> = report.issues.iter().map(|i| i.cause.as_str()).collect();
        assert!(
            causes.iter().any(|c| c.contains("not valid JSON")),
            "torn line diagnosed: {causes:?}"
        );
        assert!(
            causes.iter().any(|c| c.contains("crc mismatch")),
            "forged line diagnosed: {causes:?}"
        );
        assert_eq!(report.issues[0].line, Some(4), "1-based line number");
        assert!(report.render().contains("fsck: DAMAGED"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_salvages_intact_units_and_resume_accepts_the_result() {
        let dir = temp_dir("repair");
        let path = dir.join("checkpoint.jsonl");
        let reference = run_campaign(&path, false);

        // Damage it: tear one unit line, blank another.
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let teared_at = lines.len() - 1;
        let keep = lines[teared_at].len() / 3;
        lines[teared_at].truncate(keep);
        lines[1] = String::new();
        fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

        let report = fsck_path(&path, &FsckOptions { repair: true }).expect("fsck runs");
        assert!(report.repaired, "rewrite happened");
        assert!(report.sound(), "damage repaired: {:?}", report.issues);
        assert!(report.issues.iter().all(|i| i.repaired));
        assert!(
            !report.missing_units.is_empty(),
            "torn + blanked units are holes now"
        );
        assert!(report.render().contains("fsck: repaired"));

        // The repaired checkpoint must be valid line by line…
        let repaired_report = fsck_path(&path, &FsckOptions::default()).expect("re-check");
        assert!(repaired_report.issues.is_empty(), "repair left no damage");

        // …and --resume must accept it and reproduce the reference.
        let resumed = run_campaign(&path, true);
        for (a, b) in reference
            .workload_reports()
            .iter()
            .zip(resumed.workload_reports())
        {
            assert_eq!(
                a.outcomes, b.outcomes,
                "resume after repair is bit-identical"
            );
            assert_eq!(a.first_divergence, b.first_divergence);
        }
        assert_eq!(
            reference.summary_opts(false),
            resumed.summary_opts(false),
            "repaired-then-resumed summary digests identically"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A byte that is not UTF-8 spoils its own unit line and no other,
    /// for fsck, `--resume` and merge alike.
    #[test]
    fn a_damaged_byte_spoils_only_its_line() {
        let dir = temp_dir("byte");
        let path = dir.join("checkpoint.jsonl");
        let clean = run_campaign(&path, false);
        let units = clean.stats().units;
        let text = fs::read_to_string(&path).unwrap();
        let line = 1 + units / 2;
        let at: usize = text.lines().take(line - 1).map(|l| l.len() + 1).sum();
        let mut bytes = text.into_bytes();
        bytes[at + 4] = 0xFF;
        fs::write(&path, bytes).unwrap();
        let copy = dir.join("copy.jsonl");
        fs::copy(&path, &copy).unwrap();

        let report = fsck_path(&path, &FsckOptions::default()).expect("fsck runs");
        assert_eq!(report.intact_units, units - 1);
        let issue = &report.issues[..];
        assert!(issue.len() == 1 && issue[0].line == Some(line), "{issue:?}");
        assert!(issue[0].cause.contains("UTF-8"), "{issue:?}");
        // Resume simulates that unit alone, and merge then skips the line.
        let resumed = run_campaign(&path, true);
        assert_eq!(resumed.stats().units_from_checkpoint, units - 1);
        assert_eq!(resumed.summary_opts(false), clean.summary_opts(false));
        let merged = merge_checkpoints(&[path], &dir.join("merged.jsonl")).unwrap();
        assert_eq!(merged.skipped_lines, 1);
        // Repair keeps every other unit.
        let repair = fsck_path(&copy, &FsckOptions { repair: true }).unwrap();
        assert!(repair.sound());
        assert_eq!(fs::read_to_string(&copy).unwrap().lines().count(), units);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crc-valid record that contradicts an earlier one for its unit
    /// loses to it in `--resume` as in fsck's repair; merge refuses it.
    #[test]
    fn a_conflicting_duplicate_resumes_like_its_repair() {
        let dir = temp_dir("first");
        let path = dir.join("checkpoint.jsonl");
        let clean = run_campaign(&path, false).summary_opts(false);
        let text = fs::read_to_string(&path).unwrap();
        let (unit, mut output) = checkpoint::decode_unit(text.lines().nth(1).unwrap()).unwrap();
        output.outcomes[0] = match output.outcomes[0] {
            FaultOutcome::Dangerous => FaultOutcome::Benign,
            _ => FaultOutcome::Dangerous,
        };
        fs::write(&path, format!("{text}{}\n", encode_unit(unit, &output))).unwrap();
        let repaired = dir.join("repaired.jsonl");
        fs::copy(&path, &repaired).unwrap();

        let err = merge_checkpoints(std::slice::from_ref(&path), &dir.join("m.jsonl")).unwrap_err();
        assert!(matches!(err, MergeError::ConflictingUnit { .. }), "{err}");
        let repair = fsck_path(&repaired, &FsckOptions { repair: true }).unwrap();
        assert!(repair.repaired);
        assert_eq!(run_campaign(&path, true).summary_opts(false), clean);
        assert_eq!(run_campaign(&repaired, true).summary_opts(false), clean);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_is_unrepairable() {
        let dir = temp_dir("header");
        let path = dir.join("checkpoint.jsonl");
        fs::write(&path, "{\"schema\": \"bogus/v9\"}\n").unwrap();
        let before = fs::read_to_string(&path).unwrap();
        let report = fsck_path(&path, &FsckOptions { repair: true }).expect("fsck runs");
        assert!(!report.sound());
        assert!(!report.repaired);
        assert!(report.issues[0].cause.contains("header"));
        assert_eq!(
            fs::read_to_string(&path).unwrap(),
            before,
            "unrepairable file left untouched"
        );
        assert!(report.render().contains("CORRUPT"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_checkpoint_expects_only_owned_units() {
        let dir = temp_dir("shard");
        let shard = ShardSpec { index: 1, total: 3 };
        let header = sample_header(Some(shard));
        let units = header.unit_count();
        let owned: Vec<usize> = (0..units).filter(|&u| shard.owns(u)).collect();
        let path = dir.join("checkpoint.jsonl");
        write_checkpoint(&path, &header, &owned);

        let report = fsck_path(&path, &FsckOptions::default()).expect("fsck runs");
        assert_eq!(report.expected_units, owned.len());
        assert!(
            report.missing_units.is_empty(),
            "complete shard has no holes"
        );
        assert!(report.sound());

        // Drop one owned unit: the hole's resume hint names this shard.
        write_checkpoint(&path, &header, &owned[1..]);
        let report = fsck_path(&path, &FsckOptions::default()).expect("fsck runs");
        assert_eq!(report.missing_units, vec![owned[0]]);
        assert!(
            report.resume_commands[0].contains("--shard 1/3"),
            "{:?}",
            report.resume_commands
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_directory_checks_manifest_and_status_too() {
        let dir = temp_dir("rundir");
        let header = sample_header(None);
        write_checkpoint(&dir.join("checkpoint.jsonl"), &header, &[0]);
        fs::write(dir.join("manifest.json"), "{ not json").unwrap();
        fs::write(dir.join("status.json"), "{\"schema\": \"wrong\"}").unwrap();

        let report = fsck_path(&dir, &FsckOptions::default()).expect("fsck runs");
        assert!(!report.sound());
        let files: Vec<String> = report
            .issues
            .iter()
            .map(|i| i.file.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(files.contains(&"manifest.json".to_string()), "{files:?}");
        assert!(files.contains(&"status.json".to_string()), "{files:?}");
        let text = report.render();
        assert!(text.contains("manifest"), "{text}");
        assert!(text.contains("DAMAGED"), "{text}");

        let empty = temp_dir("rundir-empty");
        assert!(matches!(
            fsck_path(&empty, &FsckOptions::default()),
            Err(FsckError::NothingToCheck { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn conflicting_duplicates_keep_first_and_are_flagged() {
        let dir = temp_dir("conflict");
        let header = sample_header(None);
        let path = dir.join("checkpoint.jsonl");
        let mut text = header.to_json_line();
        text.push('\n');
        text.push_str(&encode_unit(0, &sample_output(0)));
        text.push('\n');
        text.push_str(&encode_unit(0, &sample_output(7)));
        text.push('\n');
        fs::write(&path, text).unwrap();

        let report = fsck_path(&path, &FsckOptions { repair: true }).expect("fsck runs");
        assert_eq!(report.intact_units, 1);
        assert!(report
            .issues
            .iter()
            .any(|i| i.cause.contains("conflicting duplicate")));
        assert!(report.repaired);

        // After repair, exactly one record for unit 0 — the first one.
        let repaired = fs::read_to_string(&path).unwrap();
        let records: Vec<&str> = repaired.lines().skip(1).collect();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0], encode_unit(0, &sample_output(0)));
        let _ = fs::remove_dir_all(&dir);
    }
}
