//! Append-only JSONL campaign checkpoints.
//!
//! Line 1 is a header fingerprinting everything that determines unit
//! outcomes: the design (digest of its Verilog form), the fault list,
//! the workload suite (names and vector bits, which cover the seeds)
//! and the outcome-affecting campaign knobs. Each subsequent line is
//! one completed `(workload × chunk)` unit with its per-lane verdicts
//! and an FNV-1a64 record digest. `--resume` re-validates the header —
//! any mismatch is a hard error, because mixing results across designs
//! or configs would silently corrupt the ground truth — and skips unit
//! lines that are torn or fail their digest, so those units simply run
//! again.
//!
//! One scan reads the unit lines for `--resume`, [`merge`](crate::merge)
//! and [`fsck`](crate::fsck) alike: it keeps each unit's first intact
//! record and lists every other line with the reason it was not taken.
//!
//! # The header-binding model
//!
//! Every knob that can change a unit's *outcome* is bound into the
//! header; every knob that only changes how fast or in what order units
//! are computed is deliberately left out. Bound: the design digest, the
//! fault list digest (count, sites, polarities), the workload digest
//! (names and vector bits, which cover the seeds), `classify_latent`,
//! `min_divergence_fraction`, and — since schema v2 — the shard spec of
//! a `--shard i/n` partial campaign. Not bound: `threads` and
//! `restrict_to_cone`, which are bit-identical by construction (see the
//! differential tests), so a campaign may be resumed under a different
//! thread count or acceleration setting — the checkpoint unit is always
//! the 64-fault chunk regardless of how many chunks a pass packs
//! together.
//!
//! The shard spec sits in between: it does not change any unit's
//! outcome, but it changes which units a resumed process is allowed to
//! consider complete, so resuming binds it exactly while
//! [`merge`](crate::merge) compares headers with the shard field
//! excluded (that is the whole point of merging).
//!
//! ```
//! use fusa_faultsim::{CampaignConfig, CheckpointHeader, FaultList, ShardSpec};
//! use fusa_logicsim::{WorkloadConfig, WorkloadSuite};
//!
//! let netlist = fusa_netlist::designs::or1200_icfsm();
//! let faults = FaultList::all_gate_outputs(&netlist);
//! let workloads = WorkloadSuite::generate(
//!     &netlist,
//!     &WorkloadConfig { num_workloads: 2, vectors_per_workload: 8, reset_cycles: 0, seed: 3 },
//! );
//! let config = CampaignConfig::default();
//! let header = CheckpointHeader::capture(&netlist, &faults, &workloads, &config);
//!
//! // A checkpoint written under the same fingerprint resumes cleanly…
//! assert!(header.check_compatible(&header).is_ok());
//!
//! // …an outcome-affecting difference is a hard error…
//! let mut flipped = header.clone();
//! flipped.classify_latent = !header.classify_latent;
//! assert!(flipped.check_compatible(&header).is_err());
//!
//! // …and a shard checkpoint only resumes under the same `--shard i/n`.
//! let mut sharded = header.clone();
//! sharded.shard = Some(ShardSpec { index: 2, total: 3 });
//! assert!(sharded.check_compatible(&header).is_err());
//! ```

use crate::campaign::{CampaignConfig, UnitOutput};
use crate::durability::IoRetryPolicy;
use crate::fault::{FaultList, FaultSite};
use crate::report::FaultOutcome;
use crate::shard::ShardSpec;
use fusa_logicsim::WorkloadSuite;
use fusa_netlist::Netlist;
use fusa_obs::{Fnv64, Json};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema tag of the checkpoint header line.
///
/// v2 added the optional `shard_index`/`shard_total` header fields;
/// v1 checkpoints (no shard fields) still parse as unsharded.
pub const CHECKPOINT_SCHEMA: &str = "fusa-faultsim/checkpoint/v2";

/// Legacy schema tag, still accepted on read.
pub const CHECKPOINT_SCHEMA_V1: &str = "fusa-faultsim/checkpoint/v1";

/// Errors raised while creating, loading or validating a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint file could not be opened, read or created.
    Io {
        /// Path of the checkpoint file.
        path: String,
        /// Rendered I/O error.
        message: String,
    },
    /// The file exists but its header line is missing or malformed.
    Corrupt {
        /// Path of the checkpoint file.
        path: String,
        /// What was wrong.
        message: String,
    },
    /// The header does not match the campaign being resumed.
    Mismatch {
        /// Header field that differs (e.g. `design_digest`).
        field: String,
        /// Value expected by the current campaign.
        expected: String,
        /// Value found in the checkpoint.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "cannot access checkpoint {path}: {message}")
            }
            CheckpointError::Corrupt { path, message } => {
                write!(f, "corrupt checkpoint {path}: {message}")
            }
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this campaign: {field} is {found}, \
                 expected {expected} (delete the checkpoint or fix the invocation)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

fn io_error(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// The outcome-determining fingerprint of a campaign, written as the
/// checkpoint's first line and re-validated on `--resume`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointHeader {
    /// Design name (informational; the digest is what gates).
    pub design: String,
    /// FNV-1a64 of the design's written-out Verilog.
    pub design_digest: String,
    /// Number of faults in the campaign's fault list.
    pub fault_count: usize,
    /// FNV-1a64 over every fault's (gate, net, polarity, site).
    pub fault_digest: String,
    /// Number of workloads.
    pub workload_count: usize,
    /// FNV-1a64 over workload names and vector bits (covers the seeds).
    pub workload_digest: String,
    /// `CampaignConfig::classify_latent` (outcome-affecting).
    pub classify_latent: bool,
    /// `CampaignConfig::min_divergence_fraction` (outcome-affecting).
    pub min_divergence_fraction: f64,
    /// Shard spec of a `--shard i/n` partial campaign; `None` for a
    /// full campaign or a merged checkpoint.
    pub shard: Option<ShardSpec>,
}

impl CheckpointHeader {
    /// Fingerprints `netlist`, `faults`, `workloads` and the
    /// outcome-affecting parts of `config`.
    pub fn capture(
        netlist: &Netlist,
        faults: &FaultList,
        workloads: &WorkloadSuite,
        config: &CampaignConfig,
    ) -> CheckpointHeader {
        let design_digest =
            fusa_obs::fnv1a64_hex(fusa_netlist::writer::write_verilog(netlist).as_bytes());
        let mut fault_hash = Fnv64::new();
        for fault in faults.iter() {
            fault_hash.write(&(fault.gate.0).to_le_bytes());
            fault_hash.write(&(fault.net.0).to_le_bytes());
            fault_hash.write(&[u8::from(fault.stuck_at.value())]);
            let site = match fault.site {
                FaultSite::Output => 255u8,
                FaultSite::InputPin(pin) => pin,
            };
            fault_hash.write(&[site]);
        }
        let mut workload_hash = Fnv64::new();
        for workload in workloads.workloads() {
            workload_hash.write(workload.name.as_bytes());
            workload_hash.write(&[0]);
            for vector in &workload.vectors {
                for &bit in vector {
                    workload_hash.write(&[u8::from(bit)]);
                }
                workload_hash.write(&[2]);
            }
        }
        CheckpointHeader {
            design: netlist.name().to_string(),
            design_digest,
            fault_count: faults.len(),
            fault_digest: fault_hash.hex(),
            workload_count: workloads.len(),
            workload_digest: workload_hash.hex(),
            classify_latent: config.classify_latent,
            min_divergence_fraction: config.min_divergence_fraction,
            shard: config.shard,
        }
    }

    pub(crate) fn to_json_line(&self) -> String {
        let mut fields = vec![
            ("schema".into(), Json::Str(CHECKPOINT_SCHEMA.into())),
            ("design".into(), Json::Str(self.design.clone())),
            (
                "design_digest".into(),
                Json::Str(self.design_digest.clone()),
            ),
            ("fault_count".into(), Json::Num(self.fault_count as f64)),
            ("fault_digest".into(), Json::Str(self.fault_digest.clone())),
            (
                "workload_count".into(),
                Json::Num(self.workload_count as f64),
            ),
            (
                "workload_digest".into(),
                Json::Str(self.workload_digest.clone()),
            ),
            ("classify_latent".into(), Json::Bool(self.classify_latent)),
            (
                "min_divergence_fraction".into(),
                Json::Num(self.min_divergence_fraction),
            ),
        ];
        if let Some(shard) = self.shard {
            fields.push(("shard_index".into(), Json::Num(shard.index as f64)));
            fields.push(("shard_total".into(), Json::Num(shard.total as f64)));
        }
        fields.push(("lanes".into(), Json::Num(crate::campaign::LANES as f64)));
        Json::Obj(fields).render()
    }

    pub(crate) fn parse(line: &str) -> Result<CheckpointHeader, String> {
        let json = Json::parse(line).map_err(|e| format!("header is not JSON: {e:?}"))?;
        let schema = json
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("header has no schema field")?;
        if schema != CHECKPOINT_SCHEMA && schema != CHECKPOINT_SCHEMA_V1 {
            return Err(format!(
                "unsupported checkpoint schema {schema:?} (expected {CHECKPOINT_SCHEMA:?})"
            ));
        }
        let shard = match (
            json.get("shard_index").and_then(Json::as_u64),
            json.get("shard_total").and_then(Json::as_u64),
        ) {
            (Some(index), Some(total)) => Some(ShardSpec {
                index: index as usize,
                total: total as usize,
            }),
            (None, None) => None,
            _ => return Err("header has shard_index without shard_total (or vice versa)".into()),
        };
        let str_field = |name: &str| {
            json.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("header field {name} missing"))
        };
        let num_field = |name: &str| {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("header field {name} missing"))
        };
        Ok(CheckpointHeader {
            design: str_field("design")?,
            design_digest: str_field("design_digest")?,
            fault_count: num_field("fault_count")? as usize,
            fault_digest: str_field("fault_digest")?,
            workload_count: num_field("workload_count")? as usize,
            workload_digest: str_field("workload_digest")?,
            classify_latent: match json.get("classify_latent") {
                Some(Json::Bool(b)) => *b,
                _ => return Err("header field classify_latent missing".into()),
            },
            min_divergence_fraction: json
                .get("min_divergence_fraction")
                .and_then(Json::as_f64)
                .ok_or("header field min_divergence_fraction missing")?,
            shard,
        })
    }

    /// Validates that resuming from a checkpoint written under `self`
    /// is sound for a campaign expecting `expected`, including the
    /// shard spec: a `--shard 2/3` checkpoint only resumes under
    /// `--shard 2/3`.
    pub fn check_compatible(&self, expected: &CheckpointHeader) -> Result<(), CheckpointError> {
        self.check_compatible_ignoring_shard(expected)?;
        if self.shard != expected.shard {
            let render =
                |s: &Option<ShardSpec>| s.map_or_else(|| "none".to_string(), |s| s.to_string());
            return Err(CheckpointError::Mismatch {
                field: "shard".to_string(),
                expected: render(&expected.shard),
                found: render(&self.shard),
            });
        }
        Ok(())
    }

    /// [`check_compatible`](Self::check_compatible) minus the shard
    /// comparison — the compatibility rule `fusa merge` applies across
    /// shard checkpoints, which by design differ only in shard spec.
    pub fn check_compatible_ignoring_shard(
        &self,
        expected: &CheckpointHeader,
    ) -> Result<(), CheckpointError> {
        let mismatch = |field: &str, expected: String, found: String| {
            Err(CheckpointError::Mismatch {
                field: field.to_string(),
                expected,
                found,
            })
        };
        if self.design_digest != expected.design_digest {
            return mismatch(
                "design_digest",
                expected.design_digest.clone(),
                self.design_digest.clone(),
            );
        }
        if self.fault_count != expected.fault_count || self.fault_digest != expected.fault_digest {
            return mismatch(
                "fault_digest",
                format!(
                    "{} ({} faults)",
                    expected.fault_digest, expected.fault_count
                ),
                format!("{} ({} faults)", self.fault_digest, self.fault_count),
            );
        }
        if self.workload_count != expected.workload_count
            || self.workload_digest != expected.workload_digest
        {
            return mismatch(
                "workload_digest",
                format!(
                    "{} ({} workloads)",
                    expected.workload_digest, expected.workload_count
                ),
                format!(
                    "{} ({} workloads)",
                    self.workload_digest, self.workload_count
                ),
            );
        }
        if self.classify_latent != expected.classify_latent {
            return mismatch(
                "classify_latent",
                expected.classify_latent.to_string(),
                self.classify_latent.to_string(),
            );
        }
        if self.min_divergence_fraction != expected.min_divergence_fraction {
            return mismatch(
                "min_divergence_fraction",
                expected.min_divergence_fraction.to_string(),
                self.min_divergence_fraction.to_string(),
            );
        }
        Ok(())
    }

    /// Units of the full campaign this header describes: one per
    /// workload and 64-fault chunk.
    pub(crate) fn unit_count(&self) -> usize {
        self.workload_count * self.fault_count.div_ceil(crate::campaign::LANES)
    }

    /// Identity key of the shard *family*: a digest over every
    /// outcome-determining header field except the shard spec. Two
    /// checkpoints have equal family keys exactly when
    /// [`check_compatible_ignoring_shard`](Self::check_compatible_ignoring_shard)
    /// accepts them — the rule `fusa merge` applies — so `fusa top`
    /// uses it to group shards of the same campaign into one fleet row
    /// family.
    pub fn family_key(&self) -> String {
        fusa_obs::fnv1a64_hex(
            format!(
                "{}|{}|{}|{}|{}|{}|{}",
                self.design_digest,
                self.fault_count,
                self.fault_digest,
                self.workload_count,
                self.workload_digest,
                self.classify_latent,
                self.min_divergence_fraction,
            )
            .as_bytes(),
        )
    }
}

/// Decimal text without `fmt`: the bytes `Display` prints for an
/// integer, written from the back of a buffer.
struct Decimal {
    buf: [u8; 21],
    at: usize,
}

impl Decimal {
    fn unsigned(v: u64) -> Decimal {
        let mut text = Decimal {
            buf: [0; 21],
            at: 21,
        };
        let mut rest = v;
        loop {
            text.at -= 1;
            text.buf[text.at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                return text;
            }
        }
    }

    fn signed(v: i64) -> Decimal {
        let mut text = Decimal::unsigned(v.unsigned_abs());
        if v < 0 {
            text.at -= 1;
            text.buf[text.at] = b'-';
        }
        text
    }

    fn bytes(&self) -> &[u8] {
        &self.buf[self.at..]
    }
}

/// The record digest `crc`: FNV-1a64 of
/// `{unit}|{outcomes}|{first_divergence}|{stepped}|{evals}`, where
/// `{first_divergence}` is the lanes' entries as comma-separated
/// integers (`-1` for none). The text is streamed into the hasher, not
/// built; the writer and the reader both digest through here.
fn unit_crc(
    unit: usize,
    outcomes: &[u8],
    first_divergence: impl IntoIterator<Item = i64>,
    stepped: u64,
    evals: u64,
) -> String {
    let mut crc = Fnv64::new();
    crc.write(Decimal::unsigned(unit as u64).bytes());
    crc.write(b"|");
    crc.write(outcomes);
    crc.write(b"|");
    for (i, d) in first_divergence.into_iter().enumerate() {
        if i > 0 {
            crc.write(b",");
        }
        crc.write(Decimal::signed(d).bytes());
    }
    crc.write(b"|");
    crc.write(Decimal::unsigned(stepped).bytes());
    crc.write(b"|");
    crc.write(Decimal::unsigned(evals).bytes());
    crc.hex()
}

/// Appends counter `v` as a `Json::Num` of `v as f64` renders it: its
/// digits below 2^53, where `v as f64` is exact, and f64 `Display` from
/// there on.
fn push_counter(line: &mut Vec<u8>, v: u64) {
    if v < 1 << 53 {
        line.extend_from_slice(Decimal::unsigned(v).bytes());
    } else {
        line.extend_from_slice(Json::Num(v as f64).render().as_bytes());
    }
}

/// Serializes one completed unit as a checkpoint JSONL line (no
/// newline), written straight into one buffer: the bytes
/// [`Json::render`] gives the record's object. The counters print as a
/// `Json::Num` of `x as f64` does; a lane's first divergence (`-1` to
/// `u32::MAX`) prints the same digits as that number; and no string
/// needs escaping (outcomes are `D`, `L` or `B`, the digest
/// `fnv1a64:<hex>`).
pub(crate) fn encode_unit(unit: usize, output: &UnitOutput) -> String {
    let first_divergence = || {
        output
            .first_divergence
            .iter()
            .map(|d| d.map_or(-1, i64::from))
    };
    let mut line = Vec::with_capacity(160 + 12 * output.first_divergence.len());
    line.extend_from_slice(b"{\"unit\":");
    push_counter(&mut line, unit as u64);
    line.extend_from_slice(b",\"outcomes\":\"");
    let outcomes_at = line.len();
    line.extend(output.outcomes.iter().map(|o| match o {
        FaultOutcome::Dangerous => b'D',
        FaultOutcome::Latent => b'L',
        FaultOutcome::Benign => b'B',
    }));
    let crc = unit_crc(
        unit,
        &line[outcomes_at..],
        first_divergence(),
        output.stepped_fault_cycles,
        output.gate_evals,
    );
    line.extend_from_slice(b"\",\"first_divergence\":[");
    for (i, d) in first_divergence().enumerate() {
        if i > 0 {
            line.push(b',');
        }
        line.extend_from_slice(Decimal::signed(d).bytes());
    }
    line.extend_from_slice(b"],\"stepped_fault_cycles\":");
    push_counter(&mut line, output.stepped_fault_cycles);
    line.extend_from_slice(b",\"gate_evals\":");
    push_counter(&mut line, output.gate_evals);
    line.extend_from_slice(b",\"crc\":\"");
    line.extend_from_slice(crc.as_bytes());
    line.extend_from_slice(b"\"}");
    String::from_utf8(line).expect("a record line is ASCII")
}

/// Why a unit line does not decode: the first check the line failed,
/// in the decoder's order. `Display` is the cause `fusa fsck` reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum UnitLineError {
    /// Not UTF-8: bytes damaged on disk (checked by [`scan`]).
    NotUtf8,
    /// Not JSON at all: a torn or partial write.
    NotJson,
    /// `unit` is missing or not a non-negative integer.
    Unit,
    /// `outcomes` is missing or not a string.
    Outcomes,
    /// An outcome character other than `D`, `L` or `B`.
    OutcomeChar(char),
    /// `first_divergence` is missing or not an array.
    FirstDivergence,
    /// A `first_divergence` entry is not a number.
    FirstDivergenceEntry,
    /// `first_divergence` and `outcomes` differ in length.
    LaneCount {
        /// Entries in `first_divergence`.
        divergence: usize,
        /// Characters in `outcomes`.
        outcomes: usize,
    },
    /// A counter field is missing or not a non-negative integer.
    Counter(&'static str),
    /// `crc` is missing or not a string.
    Crc,
    /// `crc` does not match the payload.
    CrcMismatch,
}

impl fmt::Display for UnitLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnitLineError::NotUtf8 => f.write_str("not valid UTF-8 (damaged bytes)"),
            UnitLineError::NotJson => f.write_str("not valid JSON (torn or partial write)"),
            UnitLineError::Unit => f.write_str("missing or non-numeric `unit` field"),
            UnitLineError::Outcomes => f.write_str("missing `outcomes` field"),
            UnitLineError::OutcomeChar(c) => {
                write!(f, "invalid outcome character {c:?} (expected D/L/B)")
            }
            UnitLineError::FirstDivergence => {
                f.write_str("missing or malformed `first_divergence` array")
            }
            UnitLineError::FirstDivergenceEntry => {
                f.write_str("non-numeric entry in `first_divergence`")
            }
            UnitLineError::LaneCount {
                divergence,
                outcomes,
            } => write!(
                f,
                "first_divergence length {divergence} does not match {outcomes} outcomes"
            ),
            UnitLineError::Counter(field) => write!(f, "missing or non-numeric `{field}` field"),
            UnitLineError::Crc => f.write_str("missing `crc` field"),
            UnitLineError::CrcMismatch => {
                f.write_str("crc mismatch: record digest does not match its payload")
            }
        }
    }
}

/// Parses one unit line through [`Json::parse`], so any valid JSON
/// object with the record's members decodes, canonical or not (`fusa
/// fsck` re-encodes such a line). [`scan`] is its one caller.
pub(crate) fn decode_unit(line: &str) -> Result<(usize, UnitOutput), UnitLineError> {
    let json = Json::parse(line).map_err(|_| UnitLineError::NotJson)?;
    let unit = json
        .get("unit")
        .and_then(Json::as_u64)
        .ok_or(UnitLineError::Unit)? as usize;
    let outcome_text = json
        .get("outcomes")
        .and_then(Json::as_str)
        .ok_or(UnitLineError::Outcomes)?;
    let outcomes = outcome_text
        .chars()
        .map(|c| match c {
            'D' => Ok(FaultOutcome::Dangerous),
            'L' => Ok(FaultOutcome::Latent),
            'B' => Ok(FaultOutcome::Benign),
            other => Err(UnitLineError::OutcomeChar(other)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let divergence = json
        .get("first_divergence")
        .and_then(Json::as_arr)
        .ok_or(UnitLineError::FirstDivergence)?;
    let mut first_divergence = Vec::with_capacity(divergence.len());
    for item in divergence {
        let v = item.as_f64().ok_or(UnitLineError::FirstDivergenceEntry)?;
        first_divergence.push(if v < 0.0 { None } else { Some(v as u32) });
    }
    if first_divergence.len() != outcomes.len() {
        return Err(UnitLineError::LaneCount {
            divergence: first_divergence.len(),
            outcomes: outcomes.len(),
        });
    }
    let counter = |field| {
        json.get(field)
            .and_then(Json::as_u64)
            .ok_or(UnitLineError::Counter(field))
    };
    let stepped_fault_cycles = counter("stepped_fault_cycles")?;
    let gate_evals = counter("gate_evals")?;
    let crc = json
        .get("crc")
        .and_then(Json::as_str)
        .ok_or(UnitLineError::Crc)?;
    // Every entry is a number (checked above) and digests as `v as i64`,
    // so a valid non-canonical line checks against what it holds.
    let expected_crc = unit_crc(
        unit,
        outcome_text.as_bytes(),
        divergence.iter().filter_map(Json::as_f64).map(|v| v as i64),
        stepped_fault_cycles,
        gate_evals,
    );
    if crc != expected_crc {
        return Err(UnitLineError::CrcMismatch);
    }
    Ok((
        unit,
        UnitOutput {
            outcomes,
            first_divergence,
            stepped_fault_cycles,
            gate_evals,
        },
    ))
}

/// Opens checkpoint `path` and parses its header line: the header and
/// the reader at the first unit line.
fn open(path: &Path) -> Result<(CheckpointHeader, BufReader<File>), CheckpointError> {
    let file = File::open(path).map_err(|e| io_error(path, &e))?;
    let mut reader = BufReader::new(file);
    let corrupt = |message| CheckpointError::Corrupt {
        path: path.display().to_string(),
        message,
    };
    let mut line = Vec::new();
    let read = reader.read_until(b'\n', &mut line);
    if read.map_err(|e| io_error(path, &e))? == 0 {
        return Err(corrupt("file is empty (no header line)".into()));
    }
    let line = std::str::from_utf8(&line).map_err(|_| corrupt("header is not UTF-8".into()))?;
    let header = CheckpointHeader::parse(line).map_err(corrupt)?;
    Ok((header, reader))
}

/// Reads and parses the header line of `path` without touching the
/// unit records.
///
/// This is the cheap "peek" `fusa merge` uses to learn the design name
/// a shard checkpoint binds, and `fusa top` its shard family.
pub fn read_header(path: &Path) -> Result<CheckpointHeader, CheckpointError> {
    open(path).map(|(header, _)| header)
}

/// Why [`scan`] did not take a unit line into its records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Skipped {
    /// Whitespace only, as a retried append leaves behind a torn write.
    Blank,
    /// The line does not decode.
    Damaged(UnitLineError),
    /// An intact record of a unit outside the header's campaign.
    OutOfRange(usize),
    /// The same record as the unit's first: a retried append.
    Duplicate(usize),
    /// An intact record that differs from the unit's first.
    Conflict(usize),
}

/// A checkpoint read line by line.
pub(crate) struct Scan {
    /// The header line, parsed.
    pub(crate) header: CheckpointHeader,
    /// The first intact record of each unit of the header's campaign.
    pub(crate) units: BTreeMap<usize, UnitOutput>,
    /// Every other unit line, in file order: its 1-based line number
    /// and why it was not taken.
    pub(crate) skipped: Vec<(usize, Skipped)>,
}

/// Reads checkpoint `path`: the only walk over unit lines. A missing,
/// unreadable or corrupt header is an error, and so is a failed read;
/// a damaged unit line is not, whatever its bytes.
pub(crate) fn scan(path: &Path) -> Result<Scan, CheckpointError> {
    let (header, mut reader) = open(path)?;
    let unit_count = header.unit_count();
    let mut units = BTreeMap::new();
    let mut skipped = Vec::new();
    let mut line = Vec::new();
    for line_no in 2.. {
        // Each line keeps its newline, which JSON skips as whitespace.
        line.clear();
        let read = reader.read_until(b'\n', &mut line);
        if read.map_err(|e| io_error(path, &e))? == 0 {
            break;
        }
        if line.iter().all(u8::is_ascii_whitespace) {
            skipped.push((line_no, Skipped::Blank));
            continue;
        }
        let decoded = std::str::from_utf8(&line)
            .map_err(|_| UnitLineError::NotUtf8)
            .and_then(decode_unit);
        let skip = match decoded {
            Err(e) => Skipped::Damaged(e),
            Ok((unit, _)) if unit >= unit_count => Skipped::OutOfRange(unit),
            Ok((unit, output)) => match units.entry(unit) {
                Entry::Vacant(slot) => {
                    slot.insert(output);
                    continue;
                }
                Entry::Occupied(first) if *first.get() == output => Skipped::Duplicate(unit),
                Entry::Occupied(_) => Skipped::Conflict(unit),
            },
        };
        skipped.push((line_no, skip));
    }
    Ok(Scan {
        header,
        units,
        skipped,
    })
}

/// Concurrent append-only checkpoint writer. Serialization happens on
/// the worker thread; the mutex guards only the buffered write.
///
/// Write failures are retried with bounded exponential backoff
/// ([`IoRetryPolicy`]); a write that outlives the budget escalates to
/// **degraded mode** — checkpointing stops, the campaign continues in
/// memory, and the degradation is flagged in the summary, manifest and
/// status snapshots (the campaign result is not worth less because the
/// checkpoint disk filled up, but the operator must learn the run is no
/// longer resumable from disk).
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    file: Mutex<Option<BufWriter<File>>>,
    retry: IoRetryPolicy,
    /// Failed-then-retried write attempts (successful or not).
    write_retries: AtomicU64,
    /// Set when a write exhausted the retry budget.
    degraded: AtomicBool,
}

impl CheckpointWriter {
    /// Starts a fresh checkpoint: truncates `path` and writes `header`.
    pub(crate) fn create(
        path: &Path,
        header: &CheckpointHeader,
    ) -> Result<CheckpointWriter, CheckpointError> {
        let file = File::create(path).map_err(|e| io_error(path, &e))?;
        let mut file = BufWriter::new(file);
        let mut line = header.to_json_line();
        line.push('\n');
        fusa_obs::write_with_faults("checkpoint", &mut file, line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_error(path, &e))?;
        Ok(CheckpointWriter::over(path, file))
    }

    /// Reopens an existing checkpoint for appending (resume).
    pub(crate) fn append_to(path: &Path) -> Result<CheckpointWriter, CheckpointError> {
        let file = File::options()
            .append(true)
            .open(path)
            .map_err(|e| io_error(path, &e))?;
        Ok(CheckpointWriter::over(path, BufWriter::new(file)))
    }

    fn over(path: &Path, file: BufWriter<File>) -> CheckpointWriter {
        CheckpointWriter {
            path: path.to_path_buf(),
            file: Mutex::new(Some(file)),
            retry: IoRetryPolicy::default(),
            write_retries: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
        }
    }

    /// Installs the retry policy (before the writer is shared).
    pub(crate) fn set_retry_policy(&mut self, policy: IoRetryPolicy) {
        self.retry = policy;
    }

    /// Failed write attempts that were retried so far.
    pub(crate) fn write_retries(&self) -> u64 {
        self.write_retries.load(Ordering::Relaxed)
    }

    /// `true` once a write exhausted its retry budget and checkpointing
    /// was abandoned for the rest of the run.
    pub(crate) fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Appends one completed unit, flushing so a kill after return
    /// cannot tear the record.
    ///
    /// Transient failures are retried per the [`IoRetryPolicy`]. A
    /// failed attempt may have torn a partial line into the file, so
    /// every retry leads with a newline: the torn fragment becomes its
    /// own (skipped) line and the fresh record starts clean — resume and
    /// `fusa merge` already tolerate both blank and undecodable lines.
    pub(crate) fn record(&self, unit: usize, output: &UnitOutput) {
        let line = encode_unit(unit, output);
        // Recover the lock from panicked workers: the protected state is
        // a buffered file handle, valid regardless of how the owner died
        // (same idiom as the status-target lock in fusa-obs).
        let mut guard = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let Some(file) = guard.as_mut() else { return };
        let mut failed_attempts = 0u32;
        loop {
            let mut buf = String::with_capacity(line.len() + 2);
            if failed_attempts > 0 {
                buf.push('\n');
            }
            buf.push_str(&line);
            buf.push('\n');
            let outcome = fusa_obs::write_with_faults("checkpoint", file, buf.as_bytes())
                .and_then(|()| file.flush());
            let error = match outcome {
                Ok(()) => return,
                Err(error) => error,
            };
            failed_attempts += 1;
            if failed_attempts >= self.retry.max_attempts.max(1) {
                let reason = format!(
                    "checkpoint write to {} failed after {failed_attempts} attempt(s): {error}",
                    self.path.display()
                );
                eprintln!(
                    "fusa-faultsim: {reason}; continuing degraded \
                     (in memory, without checkpointing)"
                );
                self.degraded.store(true, Ordering::Relaxed);
                fusa_obs::mark_degraded(&reason);
                *guard = None;
                return;
            }
            self.write_retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.retry.delay_after(failed_attempts));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{sample_header, temp_dir};
    use proptest::prelude::*;

    fn sample_output() -> UnitOutput {
        UnitOutput {
            outcomes: vec![
                FaultOutcome::Dangerous,
                FaultOutcome::Latent,
                FaultOutcome::Benign,
            ],
            first_divergence: vec![Some(4), None, None],
            stepped_fault_cycles: 24,
            gate_evals: 480,
        }
    }

    #[test]
    fn header_round_trips() {
        let header = sample_header(None);
        let parsed = CheckpointHeader::parse(&header.to_json_line()).unwrap();
        assert_eq!(parsed, header);
        assert!(parsed.check_compatible(&header).is_ok());
    }

    #[test]
    fn mismatched_headers_are_rejected() {
        let header = sample_header(None);
        let mut other = header.clone();
        other.design_digest = "fnv1a64:0000000000000000".into();
        let err = other.check_compatible(&header).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Mismatch { ref field, .. } if field == "design_digest")
        );
        let mut other = header.clone();
        other.classify_latent = !header.classify_latent;
        assert!(other.check_compatible(&header).is_err());
    }

    #[test]
    fn sharded_header_round_trips_and_binds_shard_on_resume() {
        let mut header = sample_header(None);
        header.shard = Some(ShardSpec { index: 2, total: 3 });
        let parsed = CheckpointHeader::parse(&header.to_json_line()).unwrap();
        assert_eq!(parsed.shard, Some(ShardSpec { index: 2, total: 3 }));
        assert!(parsed.check_compatible(&header).is_ok());

        // A different shard (or no shard) cannot resume this checkpoint…
        let unsharded = sample_header(None);
        let err = parsed.check_compatible(&unsharded).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch { ref field, .. } if field == "shard"));
        // …but merge-style comparison ignores the shard spec.
        assert!(parsed.check_compatible_ignoring_shard(&unsharded).is_ok());
    }

    #[test]
    fn v1_headers_parse_as_unsharded() {
        let header = sample_header(None);
        let line = header
            .to_json_line()
            .replace(CHECKPOINT_SCHEMA, CHECKPOINT_SCHEMA_V1);
        let parsed = CheckpointHeader::parse(&line).unwrap();
        assert_eq!(parsed.shard, None);
        assert!(parsed.check_compatible(&header).is_ok());

        let unknown = header
            .to_json_line()
            .replace("checkpoint/v2", "checkpoint/v9");
        assert!(CheckpointHeader::parse(&unknown).is_err());
    }

    #[test]
    fn half_specified_shard_header_is_rejected() {
        let mut header = sample_header(None);
        header.shard = Some(ShardSpec { index: 2, total: 3 });
        let line = header.to_json_line().replace(",\"shard_total\":3", "");
        assert!(
            CheckpointHeader::parse(&line).is_err(),
            "accepted half-specified shard in {line}"
        );
    }

    #[test]
    fn unit_record_round_trips_and_detects_corruption() {
        let output = sample_output();
        let line = encode_unit(7, &output);
        let (unit, decoded) = decode_unit(&line).unwrap();
        assert_eq!(unit, 7);
        assert_eq!(decoded.outcomes, output.outcomes);
        assert_eq!(decoded.first_divergence, output.first_divergence);
        assert_eq!(decoded.stepped_fault_cycles, 24);
        assert_eq!(decoded.gate_evals, 480);
        // Any tampering breaks the record digest.
        let tampered = decode_unit(&line.replace("DLB", "DDB")).map(|_| ());
        assert_eq!(tampered, Err(UnitLineError::CrcMismatch));
        // Torn writes (truncated JSON) are skipped, not fatal.
        let torn = decode_unit(&line[..line.len() - 10]).map(|_| ());
        assert_eq!(torn, Err(UnitLineError::NotJson));
    }

    /// The reference record digest: its text built with `format!`.
    fn reference_crc(
        unit: usize,
        outcomes: &str,
        first_divergence: &str,
        stepped: u64,
        evals: u64,
    ) -> String {
        fusa_obs::fnv1a64_hex(
            format!("{unit}|{outcomes}|{first_divergence}|{stepped}|{evals}").as_bytes(),
        )
    }

    /// The reference encoder: the record built as a [`Json`] tree and
    /// rendered, its digest text joined from one string per lane.
    fn reference_encode(unit: usize, output: &UnitOutput) -> String {
        let outcomes: String = output
            .outcomes
            .iter()
            .map(|o| match o {
                FaultOutcome::Dangerous => 'D',
                FaultOutcome::Latent => 'L',
                FaultOutcome::Benign => 'B',
            })
            .collect();
        let fd_csv: String = output
            .first_divergence
            .iter()
            .map(|d| d.map_or(-1i64, i64::from).to_string())
            .collect::<Vec<_>>()
            .join(",");
        let crc = reference_crc(
            unit,
            &outcomes,
            &fd_csv,
            output.stepped_fault_cycles,
            output.gate_evals,
        );
        Json::Obj(vec![
            ("unit".into(), Json::Num(unit as f64)),
            ("outcomes".into(), Json::Str(outcomes)),
            (
                "first_divergence".into(),
                Json::Arr(
                    output
                        .first_divergence
                        .iter()
                        .map(|d| Json::Num(d.map_or(-1.0, f64::from)))
                        .collect(),
                ),
            ),
            (
                "stepped_fault_cycles".into(),
                Json::Num(output.stepped_fault_cycles as f64),
            ),
            ("gate_evals".into(), Json::Num(output.gate_evals as f64)),
            ("crc".into(), Json::Str(crc)),
        ])
        .render()
    }

    /// The reference decoder: the same checks in the same order, its
    /// digest text joined from one string per lane.
    fn reference_decode(line: &str) -> Result<(usize, UnitOutput), UnitLineError> {
        let json = Json::parse(line).map_err(|_| UnitLineError::NotJson)?;
        let unit = json
            .get("unit")
            .and_then(Json::as_u64)
            .ok_or(UnitLineError::Unit)? as usize;
        let outcome_text = json
            .get("outcomes")
            .and_then(Json::as_str)
            .ok_or(UnitLineError::Outcomes)?;
        let outcomes = outcome_text
            .chars()
            .map(|c| match c {
                'D' => Ok(FaultOutcome::Dangerous),
                'L' => Ok(FaultOutcome::Latent),
                'B' => Ok(FaultOutcome::Benign),
                other => Err(UnitLineError::OutcomeChar(other)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let divergence = json
            .get("first_divergence")
            .and_then(Json::as_arr)
            .ok_or(UnitLineError::FirstDivergence)?;
        let mut first_divergence = Vec::with_capacity(divergence.len());
        let mut fd_parts = Vec::with_capacity(divergence.len());
        for item in divergence {
            let v = item.as_f64().ok_or(UnitLineError::FirstDivergenceEntry)?;
            fd_parts.push(format!("{}", v as i64));
            first_divergence.push(if v < 0.0 { None } else { Some(v as u32) });
        }
        if first_divergence.len() != outcomes.len() {
            return Err(UnitLineError::LaneCount {
                divergence: first_divergence.len(),
                outcomes: outcomes.len(),
            });
        }
        let counter = |field| {
            json.get(field)
                .and_then(Json::as_u64)
                .ok_or(UnitLineError::Counter(field))
        };
        let stepped_fault_cycles = counter("stepped_fault_cycles")?;
        let gate_evals = counter("gate_evals")?;
        let crc = json
            .get("crc")
            .and_then(Json::as_str)
            .ok_or(UnitLineError::Crc)?;
        let expected_crc = reference_crc(
            unit,
            outcome_text,
            &fd_parts.join(","),
            stepped_fault_cycles,
            gate_evals,
        );
        if crc != expected_crc {
            return Err(UnitLineError::CrcMismatch);
        }
        Ok((
            unit,
            UnitOutput {
                outcomes,
                first_divergence,
                stepped_fault_cycles,
                gate_evals,
            },
        ))
    }

    /// A counter at 0, 2^53, `u64::MAX` or a random value.
    fn counter() -> impl Strategy<Value = u64> {
        (0usize..4, any::<u64>()).prop_map(|(pick, random)| [0, 1 << 53, u64::MAX, random][pick])
    }

    /// A unit of 0–64 lanes: every outcome, first divergences at `None`,
    /// 0, `u32::MAX` or a random value, and extreme counters.
    fn unit_record() -> impl Strategy<Value = (usize, UnitOutput)> {
        let lane = (0usize..3, 0usize..4, any::<u32>()).prop_map(|(outcome, pick, random)| {
            (
                [
                    FaultOutcome::Dangerous,
                    FaultOutcome::Latent,
                    FaultOutcome::Benign,
                ][outcome],
                [None, Some(0), Some(u32::MAX), Some(random)][pick],
            )
        });
        let unit = (0usize..3, any::<usize>()).prop_map(|(pick, random)| [7, random, 0][pick]);
        (
            unit,
            proptest::collection::vec(lane, 0..65),
            counter(),
            counter(),
        )
            .prop_map(|(unit, lanes, stepped_fault_cycles, gate_evals)| {
                let (outcomes, first_divergence) = lanes.into_iter().unzip();
                (
                    unit,
                    UnitOutput {
                        outcomes,
                        first_divergence,
                        stepped_fault_cycles,
                        gate_evals,
                    },
                )
            })
    }

    /// `line` with member `key` replaced by `value`, or removed.
    fn with_member(line: &str, key: &str, value: Option<Json>) -> String {
        let Json::Obj(mut members) = Json::parse(line).unwrap() else {
            panic!("a record is an object")
        };
        let at = members.iter().position(|(k, _)| k == key).unwrap();
        match value {
            Some(value) => members[at].1 = value,
            None => {
                members.remove(at);
            }
        }
        Json::Obj(members).render()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// The streaming codec writes the reference's bytes, and both
        /// decoders reach the same result on every canonical line.
        #[test]
        fn codec_matches_the_reference_codec(record in unit_record()) {
            let (unit, output) = record;
            let line = encode_unit(unit, &output);
            prop_assert_eq!(&line, &reference_encode(unit, &output));
            let decoded = decode_unit(&line);
            prop_assert_eq!(&decoded, &reference_decode(&line));
            if unit < 1 << 53 && output.stepped_fault_cycles < 1 << 53 && output.gate_evals < 1 << 53 {
                prop_assert_eq!(decoded, Ok((unit, output)));
            }
        }

        /// A damaged line fails the same check in both decoders.
        #[test]
        fn damaged_lines_fail_like_the_reference(record in unit_record(), cut in 1usize..40) {
            let (unit, output) = record;
            let line = encode_unit(unit, &output);
            let outcomes_at = line.find("\"outcomes\":\"").unwrap() + 12;
            let divergence_with = |extra: Json| {
                let json = Json::parse(&line).unwrap();
                let mut entries = json.get("first_divergence").unwrap().as_arr().unwrap().to_vec();
                entries.push(extra);
                with_member(&line, "first_divergence", Some(Json::Arr(entries)))
            };
            let mut damaged = vec![
                (line[..line.len() - cut].to_string(), Some(UnitLineError::NotJson)),
                (
                    divergence_with(Json::Str("x".into())),
                    Some(UnitLineError::FirstDivergenceEntry),
                ),
                (divergence_with(Json::Num(1.0)), None),
                (
                    with_member(&line, "gate_evals", None),
                    Some(UnitLineError::Counter("gate_evals")),
                ),
                (
                    with_member(&line, "stepped_fault_cycles", Some(Json::Num(-1.0))),
                    Some(UnitLineError::Counter("stepped_fault_cycles")),
                ),
                (
                    with_member(&line, "crc", Some(Json::Str(fusa_obs::fnv1a64_hex(b"")))),
                    Some(UnitLineError::CrcMismatch),
                ),
                (with_member(&line, "crc", None), Some(UnitLineError::Crc)),
                (with_member(&line, "unit", Some(Json::Num(0.5))), Some(UnitLineError::Unit)),
                (
                    with_member(&line, "first_divergence", Some(Json::Null)),
                    Some(UnitLineError::FirstDivergence),
                ),
            ];
            if !output.outcomes.is_empty() {
                let mut bad = line.clone();
                bad.replace_range(outcomes_at..outcomes_at + 1, "X");
                damaged.push((bad, Some(UnitLineError::OutcomeChar('X'))));
                let mut flipped = line.clone();
                let swapped = if &line[outcomes_at..=outcomes_at] == "D" { "B" } else { "D" };
                flipped.replace_range(outcomes_at..outcomes_at + 1, swapped);
                damaged.push((flipped, Some(UnitLineError::CrcMismatch)));
            }
            for (text, expected) in damaged {
                let decoded = decode_unit(&text).map(|_| ());
                prop_assert_eq!(&decoded, &reference_decode(&text).map(|_| ()), "{}", text);
                if let Some(expected) = expected {
                    prop_assert_eq!(decoded, Err(expected), "{}", text);
                } else {
                    prop_assert!(matches!(decoded, Err(UnitLineError::LaneCount { .. })), "{}", text);
                }
            }
        }
    }

    #[test]
    fn non_canonical_line_decodes_and_reencodes_canonically() {
        let output = sample_output();
        let canonical = encode_unit(7, &output);
        let crc = canonical
            .split("\"crc\":\"")
            .nth(1)
            .unwrap()
            .trim_end_matches("\"}");
        // Members reordered, whitespace added, numbers written other ways.
        let loose = format!(
            "  {{ \"crc\" : \"{crc}\",\t\"gate_evals\": 4.8e2 ,\"stepped_fault_cycles\":24.0,\
             \"first_divergence\" : [ 4e0 , -1, -1.0 ], \"outcomes\":\"DLB\", \"unit\" : 7 }} "
        );
        assert_ne!(loose, canonical);
        let decoded = decode_unit(&loose).unwrap();
        assert_eq!(decoded, reference_decode(&loose).unwrap());
        assert_eq!(decoded, (7, sample_output()));
        assert_eq!(encode_unit(decoded.0, &decoded.1), canonical);
    }

    #[test]
    fn digest_reads_each_divergence_entry_as_parsed() {
        // Entries no writer emits: the digest takes `v as i64` of each,
        // the output clamps them into lanes.
        let crc = reference_crc(2, "DDD", "4,5000000000,0", 1, 1);
        let line = format!(
            "{{\"unit\":2,\"outcomes\":\"DDD\",\"first_divergence\":[4.5,5e9,-0.5],\
             \"stepped_fault_cycles\":1,\"gate_evals\":1,\"crc\":\"{crc}\"}}"
        );
        let decoded = decode_unit(&line);
        assert_eq!(decoded, reference_decode(&line));
        let (_, output) = decoded.unwrap();
        assert_eq!(output.first_divergence, [Some(4), Some(u32::MAX), None]);
    }

    #[test]
    fn scan_takes_each_units_first_record_and_lists_every_other_line() {
        let header = sample_header(None);
        assert_eq!(header.unit_count(), 12, "2 workloads x 6 chunks");
        let record = |unit| encode_unit(unit, &sample_output());
        let other = UnitOutput {
            gate_evals: 481,
            ..sample_output()
        };
        let lines = [
            header.to_json_line(),
            record(0),
            record(3),
            "not json".into(),
            " ".into(),
            record(0),
            encode_unit(0, &other),
            record(99),
            record(4) + "\r",
            record(5),
            "{\"unit\":5,\"outcomes\":\"D".into(),
        ];
        let mut bytes = lines.join("\n").into_bytes();
        // Line 10 gets a byte that is not UTF-8.
        bytes[lines[..9].iter().map(|l| l.len() + 1).sum::<usize>() + 4] = 0xFF;
        let dir = temp_dir("scan");
        let path = dir.join("checkpoint.jsonl");
        std::fs::write(&path, &bytes).unwrap();

        let scan = scan(&path).unwrap();
        assert_eq!(scan.header, header);
        assert_eq!(scan.units.keys().copied().collect::<Vec<_>>(), [0, 3, 4]);
        assert_eq!(scan.units[&0], sample_output(), "the first record wins");
        assert_eq!(
            scan.skipped,
            [
                (4, Skipped::Damaged(UnitLineError::NotJson)),
                (5, Skipped::Blank),
                (6, Skipped::Duplicate(0)),
                (7, Skipped::Conflict(0)),
                (8, Skipped::OutOfRange(99)),
                (10, Skipped::Damaged(UnitLineError::NotUtf8)),
                (11, Skipped::Damaged(UnitLineError::NotJson)),
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unreadable_files_and_headers_are_errors() {
        let dir = temp_dir("unreadable");
        let path = dir.join("checkpoint.jsonl");
        assert!(matches!(scan(&path), Err(CheckpointError::Io { .. })));
        for (bytes, cause) in [
            (&b""[..], "file is empty"),
            (b"\xFF\n", "header is not UTF-8"),
            (b"{}\n", "no schema field"),
        ] {
            std::fs::write(&path, bytes).unwrap();
            let Err(CheckpointError::Corrupt { message, .. }) = scan(&path) else {
                panic!("{bytes:?} is a corrupt header");
            };
            assert!(message.contains(cause), "{message}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
