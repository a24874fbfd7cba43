//! Injectable I/O faults and the process-global durability flag.
//!
//! The storage path — checkpoint appends, `status.json` snapshots, the
//! run manifest, the `--trace-out` sink — assumes nothing about the
//! filesystem being healthy. To *prove* that, every such write funnels
//! through [`write_with_faults`] / [`write_file_with_faults`], which
//! consult a process-global [`IoFaultInjection`] armed either from the
//! `FUSA_IO_FAIL_*` environment (mirroring the `FUSA_CAMPAIGN_*`
//! compute-fault hooks) or programmatically via
//! [`set_io_fault_injection`] from tests. An armed injection makes the
//! n-th (or every k-th) matching write fail with `ENOSPC`, `EIO`, or a
//! genuine short write — a prefix of the bytes lands on disk and the
//! call still reports failure, leaving exactly the torn data that
//! recovery tooling (`fusa fsck`) must cope with.
//!
//! Disarmed, the fast path is a single relaxed atomic load.
//!
//! The same module owns the **durability-degraded** flag: when a
//! storage-side failure survives its retry budget, the writer calls
//! [`mark_degraded`] with a reason and the run *continues in memory* —
//! the campaign summary, manifest, `fusa report` and `fusa top` all
//! surface `durability: degraded`, and `--strict-durability` turns the
//! flag into exit status 1 at the end of the command.

use std::io;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The failure mode an injected fault presents to the writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoFaultKind {
    /// `write` fails outright with `ENOSPC` (disk full) — nothing lands.
    #[default]
    Enospc,
    /// `write` fails outright with `EIO` (device error) — nothing lands.
    Eio,
    /// Half the bytes land on disk, then the call reports `EIO`: a torn
    /// write, the hardest case for append-only logs.
    ShortWrite,
}

const ENOSPC: i32 = 28;
const EIO: i32 = 5;

impl IoFaultKind {
    /// Parses the `FUSA_IO_FAIL_KIND` spelling.
    pub fn parse(text: &str) -> Option<IoFaultKind> {
        match text.trim().to_ascii_lowercase().as_str() {
            "enospc" => Some(IoFaultKind::Enospc),
            "eio" => Some(IoFaultKind::Eio),
            "short" | "short-write" | "shortwrite" => Some(IoFaultKind::ShortWrite),
            _ => None,
        }
    }

    fn error(self) -> io::Error {
        match self {
            IoFaultKind::Enospc => io::Error::from_raw_os_error(ENOSPC),
            IoFaultKind::Eio | IoFaultKind::ShortWrite => io::Error::from_raw_os_error(EIO),
        }
    }
}

/// Which storage writes fail, when, and how.
///
/// Write sites are tagged with a target name — `checkpoint`, `status`,
/// `manifest`, `trace` — and only writes whose tag matches `targets`
/// (all of them, when empty) count toward the fault schedule. `fail_nth`
/// holds 1-based indices into that counted sequence; `fail_every`
/// additionally fails every k-th counted write. Timing-driven writers
/// (status heartbeats) make unfiltered counting nondeterministic, which
/// is why the target filter exists: CI pins `targets = ["checkpoint"]`
/// so "the 3rd write" means the 3rd checkpoint record on every run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoFaultInjection {
    /// 1-based indices of counted writes that fail.
    pub fail_nth: Vec<u64>,
    /// Every k-th counted write fails (`None` disables).
    pub fail_every: Option<u64>,
    /// How scheduled writes fail.
    pub kind: IoFaultKind,
    /// Write-site tags that count; empty means every tagged site.
    pub targets: Vec<String>,
}

impl IoFaultInjection {
    /// `true` when no write can ever fail under this schedule.
    pub fn is_noop(&self) -> bool {
        self.fail_nth.is_empty() && self.fail_every.is_none()
    }

    /// Builds the schedule from `FUSA_IO_FAIL_{NTH,EVERY,KIND,TARGET}`.
    ///
    /// `NTH` and `TARGET` are comma-separated lists; unparsable entries
    /// are ignored (an injection hook must never take down a production
    /// run over a typo'd variable).
    pub fn from_env() -> IoFaultInjection {
        let list = |name: &str| -> Vec<u64> {
            std::env::var(name)
                .ok()
                .map(|raw| {
                    raw.split(',')
                        .filter_map(|s| s.trim().parse().ok())
                        .collect()
                })
                .unwrap_or_default()
        };
        let every = std::env::var("FUSA_IO_FAIL_EVERY")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .filter(|&k| k > 0);
        let kind = std::env::var("FUSA_IO_FAIL_KIND")
            .ok()
            .and_then(|raw| IoFaultKind::parse(&raw))
            .unwrap_or_default();
        let targets = std::env::var("FUSA_IO_FAIL_TARGET")
            .ok()
            .map(|raw| {
                raw.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default();
        IoFaultInjection {
            fail_nth: list("FUSA_IO_FAIL_NTH"),
            fail_every: every,
            kind,
            targets,
        }
    }

    fn matches_target(&self, target: &str) -> bool {
        self.targets.is_empty() || self.targets.iter().any(|t| t == target)
    }

    /// Whether the `op`-th (1-based) counted write fails.
    fn fails_at(&self, op: u64) -> bool {
        self.fail_nth.contains(&op) || self.fail_every.is_some_and(|k| op.is_multiple_of(k))
    }
}

/// Fast-path gate: one relaxed load decides "no injection armed".
static ARMED: AtomicBool = AtomicBool::new(false);
/// Counted (target-matching) writes since the injection was armed.
static OPS: AtomicU64 = AtomicU64::new(0);
static INJECTION: Mutex<Option<Arc<IoFaultInjection>>> = Mutex::new(None);

/// Arms (or disarms, with `None`) the process-global I/O fault
/// injection and resets the write counter. Tests and the CLI call this;
/// a no-op schedule disarms.
pub fn set_io_fault_injection(injection: Option<IoFaultInjection>) {
    let injection = injection.filter(|i| !i.is_noop());
    let mut slot = INJECTION.lock().unwrap_or_else(|e| e.into_inner());
    OPS.store(0, Ordering::Relaxed);
    ARMED.store(injection.is_some(), Ordering::Release);
    *slot = injection.map(Arc::new);
}

/// Arms injection from the `FUSA_IO_FAIL_*` environment when any of the
/// variables schedule a fault; otherwise leaves the current state alone
/// (so a test-armed schedule survives an env-less `ObsSession`).
pub fn arm_io_faults_from_env() {
    let injection = IoFaultInjection::from_env();
    if !injection.is_noop() {
        set_io_fault_injection(Some(injection));
    }
}

/// The fault scheduled for the next write at `target`, if any.
/// Consumes one slot of the counted-write sequence when armed and
/// matching; the disarmed fast path is a single relaxed load.
fn injected_io_fault(target: &str) -> Option<IoFaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let injection = INJECTION
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()?;
    if !injection.matches_target(target) {
        return None;
    }
    let op = OPS.fetch_add(1, Ordering::Relaxed) + 1;
    injection.fails_at(op).then_some(injection.kind)
}

/// Writes `bytes` through `writer`, honouring any injected fault for
/// `target`. A short-write fault lands a prefix of the bytes (flushed,
/// so it genuinely reaches the file) and still reports `EIO` — exactly
/// what a torn append looks like after a crash.
pub fn write_with_faults<W: Write + ?Sized>(
    target: &str,
    writer: &mut W,
    bytes: &[u8],
) -> io::Result<()> {
    match injected_io_fault(target) {
        None => writer.write_all(bytes),
        Some(IoFaultKind::ShortWrite) => {
            writer.write_all(&bytes[..bytes.len() / 2])?;
            let _ = writer.flush();
            Err(IoFaultKind::ShortWrite.error())
        }
        Some(kind) => Err(kind.error()),
    }
}

/// `std::fs::write` with fault injection for `target`; a short-write
/// fault leaves a truncated file behind.
pub fn write_file_with_faults(target: &str, path: &Path, bytes: &[u8]) -> io::Result<()> {
    match injected_io_fault(target) {
        None => std::fs::write(path, bytes),
        Some(IoFaultKind::ShortWrite) => {
            std::fs::write(path, &bytes[..bytes.len() / 2])?;
            Err(IoFaultKind::ShortWrite.error())
        }
        Some(kind) => Err(kind.error()),
    }
}

/// First durability failure of the run, if any. `None` = fully durable.
static DEGRADED: Mutex<Option<String>> = Mutex::new(None);

/// Marks the run durability-degraded. The first reason sticks (it names
/// the original failure; later cascades are consequences). Callers keep
/// running — degraded mode means "results live in memory only", not
/// "abort" — and the CLI surfaces the flag in the summary, manifest,
/// status snapshots and exit status (`--strict-durability`).
pub fn mark_degraded(reason: &str) {
    let mut slot = DEGRADED.lock().unwrap_or_else(|e| e.into_inner());
    if slot.is_none() {
        *slot = Some(reason.to_string());
    }
}

/// `true` once any storage-side failure exhausted its retry budget.
pub fn durability_degraded() -> bool {
    DEGRADED.lock().unwrap_or_else(|e| e.into_inner()).is_some()
}

/// The first degradation reason, if the run is degraded.
pub fn degraded_reason() -> Option<String> {
    DEGRADED.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Clears the degraded flag (start of a command; tests).
pub fn reset_degraded() {
    *DEGRADED.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Injection state and the degraded flag are process-global; tests
    /// that arm them must not interleave.
    pub(crate) fn test_iofault_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_writes_pass_through() {
        let _guard = test_iofault_lock();
        set_io_fault_injection(None);
        let mut out = Vec::new();
        write_with_faults("checkpoint", &mut out, b"hello\n").unwrap();
        assert_eq!(out, b"hello\n");
    }

    #[test]
    fn nth_write_fails_with_requested_errno() {
        let _guard = test_iofault_lock();
        set_io_fault_injection(Some(IoFaultInjection {
            fail_nth: vec![2],
            kind: IoFaultKind::Enospc,
            ..IoFaultInjection::default()
        }));
        let mut out = Vec::new();
        write_with_faults("checkpoint", &mut out, b"a").unwrap();
        let err = write_with_faults("checkpoint", &mut out, b"b").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(ENOSPC));
        write_with_faults("checkpoint", &mut out, b"c").unwrap();
        assert_eq!(out, b"ac", "the failed write landed nothing");
        set_io_fault_injection(None);
    }

    #[test]
    fn short_write_lands_a_prefix_and_reports_eio() {
        let _guard = test_iofault_lock();
        set_io_fault_injection(Some(IoFaultInjection {
            fail_nth: vec![1],
            kind: IoFaultKind::ShortWrite,
            ..IoFaultInjection::default()
        }));
        let mut out = Vec::new();
        let err = write_with_faults("checkpoint", &mut out, b"0123456789").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert_eq!(out, b"01234", "exactly half the bytes are torn in");
        set_io_fault_injection(None);
    }

    #[test]
    fn target_filter_keeps_counting_deterministic() {
        let _guard = test_iofault_lock();
        set_io_fault_injection(Some(IoFaultInjection {
            fail_nth: vec![1],
            targets: vec!["checkpoint".into()],
            ..IoFaultInjection::default()
        }));
        let mut out = Vec::new();
        // Non-matching targets neither fail nor consume a slot.
        write_with_faults("status", &mut out, b"s").unwrap();
        write_with_faults("trace", &mut out, b"t").unwrap();
        assert!(write_with_faults("checkpoint", &mut out, b"c").is_err());
        set_io_fault_injection(None);
    }

    #[test]
    fn every_k_schedule_repeats() {
        let _guard = test_iofault_lock();
        set_io_fault_injection(Some(IoFaultInjection {
            fail_every: Some(2),
            ..IoFaultInjection::default()
        }));
        let mut out = Vec::new();
        let verdicts: Vec<bool> = (0..6)
            .map(|_| write_with_faults("checkpoint", &mut out, b"x").is_ok())
            .collect();
        assert_eq!(verdicts, vec![true, false, true, false, true, false]);
        set_io_fault_injection(None);
    }

    #[test]
    fn degraded_flag_keeps_first_reason() {
        let _guard = test_iofault_lock();
        reset_degraded();
        assert!(!durability_degraded());
        assert_eq!(degraded_reason(), None);
        mark_degraded("checkpoint write failed: ENOSPC");
        mark_degraded("manifest write failed: EIO");
        assert!(durability_degraded());
        assert_eq!(
            degraded_reason().as_deref(),
            Some("checkpoint write failed: ENOSPC"),
            "the original failure names the root cause"
        );
        reset_degraded();
        assert!(!durability_degraded());
    }

    #[test]
    fn env_parse_mirrors_campaign_hooks() {
        // Pure parsing only — no env mutation, the harness is parallel.
        assert!(IoFaultInjection::default().is_noop());
        assert_eq!(IoFaultKind::parse("enospc"), Some(IoFaultKind::Enospc));
        assert_eq!(IoFaultKind::parse("EIO"), Some(IoFaultKind::Eio));
        assert_eq!(IoFaultKind::parse("short"), Some(IoFaultKind::ShortWrite));
        assert_eq!(IoFaultKind::parse("bogus"), None);
        let injection = IoFaultInjection {
            fail_nth: vec![3, 7],
            fail_every: Some(5),
            ..IoFaultInjection::default()
        };
        assert!(injection.fails_at(3) && injection.fails_at(7));
        assert!(injection.fails_at(5) && injection.fails_at(10));
        assert!(!injection.fails_at(4));
    }
}
