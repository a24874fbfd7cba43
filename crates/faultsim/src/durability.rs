//! Campaign durability: typed errors, retry/quarantine policy, and
//! deterministic fault-injection hooks for testing the machinery itself.
//!
//! A production fault campaign is a long-running batch job; this module
//! holds the knobs that keep one alive: how failed units are retried and
//! quarantined, where the checkpoint lives, and which flag requests a
//! graceful drain. The injection hooks exist so the durability paths can
//! be exercised deterministically from unit, property and CLI tests.

use crate::checkpoint::CheckpointError;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;

/// Errors surfaced by [`crate::FaultCampaign::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A scheduled unit finished in no terminal state (not completed,
    /// not checkpointed, not quarantined, and the campaign was not
    /// interrupted) — a scheduler invariant violation.
    MissingUnit {
        /// Flat unit index (`workload_index * chunk_count + chunk`).
        unit: usize,
        /// Workload the unit belonged to.
        workload: String,
        /// Fault-chunk index within the workload.
        chunk: usize,
    },
    /// Checkpoint load or validation failed.
    Checkpoint(CheckpointError),
    /// `resume` was requested without a checkpoint path to resume from.
    ResumeWithoutCheckpoint,
    /// `CampaignConfig::shard` does not satisfy `1 <= index <= total`.
    InvalidShard {
        /// 1-based index of the rejected spec.
        index: usize,
        /// Shard total of the rejected spec.
        total: usize,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::MissingUnit {
                unit,
                workload,
                chunk,
            } => write!(
                f,
                "campaign unit {unit} (workload {workload}, chunk {chunk}) \
                 produced no result and was not quarantined"
            ),
            CampaignError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            CampaignError::ResumeWithoutCheckpoint => {
                write!(f, "--resume requires a checkpoint path")
            }
            CampaignError::InvalidShard { index, total } => write!(
                f,
                "invalid shard {index}/{total}: expected 1 <= index <= total"
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CheckpointError> for CampaignError {
    fn from(e: CheckpointError) -> Self {
        CampaignError::Checkpoint(e)
    }
}

/// Durability policy of a campaign run: checkpointing, resume, retry
/// budget and the cooperative interruption flag.
///
/// Kept separate from [`crate::CampaignConfig`] because none of these
/// knobs affect outcomes — an interrupted-then-resumed run is
/// bit-identical to an uninterrupted one — and because the interrupt
/// flag reference has no meaningful equality.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Append-only JSONL checkpoint file; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Load previously completed units from `checkpoint` and simulate
    /// only the missing ones. Header mismatch is a hard error.
    pub resume: bool,
    /// Retries per panicking unit before it is quarantined.
    pub max_unit_retries: u32,
    /// Cooperative interruption flag (typically the process signal
    /// flag): once set, workers drain in-flight units and stop claiming
    /// new ones.
    pub interrupt: Option<&'static AtomicBool>,
    /// Retry/backoff policy for transient checkpoint write failures.
    /// Exhausting the budget escalates to degraded mode (the campaign
    /// continues in memory), never to a panic or an abort.
    pub io_retry: IoRetryPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint: None,
            resume: false,
            max_unit_retries: 2,
            interrupt: None,
            io_retry: IoRetryPolicy::default(),
        }
    }
}

/// Bounded-exponential-backoff policy for storage writes on the
/// checkpoint append path.
///
/// A transient `ENOSPC`/`EIO` (log rotation freeing space, a wobbly
/// network filesystem) is retried with a short, bounded sleep; only a
/// write that fails every attempt degrades the run. The policy does not
/// affect outcomes — like the rest of [`DurabilityConfig`], it only
/// decides how hard the run fights to stay durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRetryPolicy {
    /// Total attempts per write, including the first (minimum 1).
    pub max_attempts: u32,
    /// Sleep before the first retry, milliseconds; doubles per retry.
    pub base_delay_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub max_delay_ms: u64,
}

impl Default for IoRetryPolicy {
    fn default() -> Self {
        IoRetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 50,
        }
    }
}

impl IoRetryPolicy {
    /// A policy that never retries (tests wanting first-fault behavior).
    pub fn none() -> IoRetryPolicy {
        IoRetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
        }
    }

    /// Backoff before retrying after `failed_attempts` failures:
    /// `base * 2^(failed_attempts-1)`, capped at `max_delay_ms`.
    pub fn delay_after(&self, failed_attempts: u32) -> std::time::Duration {
        let doublings = failed_attempts.saturating_sub(1).min(16);
        let ms = self
            .base_delay_ms
            .saturating_mul(1u64 << doublings)
            .min(self.max_delay_ms);
        std::time::Duration::from_millis(ms)
    }
}

/// One unit that panicked on every attempt and was excluded from the
/// campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedUnit {
    /// Flat unit index (`workload_index * chunk_count + chunk`).
    pub unit: usize,
    /// Workload the unit belonged to.
    pub workload: String,
    /// Fault-chunk index within the workload.
    pub chunk: usize,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// Rendered panic payload of the final attempt.
    pub panic_message: String,
}

/// Deterministic fault-injection hooks for testing the durability layer.
///
/// Library tests construct this directly; the CLI-facing hooks read the
/// `FUSA_CAMPAIGN_*` environment variables (see [`FaultInjection::from_env`])
/// so integration tests and CI can perturb a real `fusa` process.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Units that panic on every attempt (exercises quarantine).
    pub panic_units: Vec<usize>,
    /// Units that panic on their first attempt only (exercises retry).
    pub panic_once_units: Vec<usize>,
    /// Set the interrupt flag after this many units complete in this run.
    pub interrupt_after_units: Option<usize>,
    /// Raise a real SIGTERM after this many units complete in this run
    /// (exercises the signal path end to end; requires the caller to
    /// have installed handlers via `fusa_obs::install_signal_handlers`).
    pub sigterm_after_units: Option<usize>,
}

impl FaultInjection {
    /// `true` when no hook is armed.
    pub fn is_noop(&self) -> bool {
        self == &FaultInjection::default()
    }

    /// Reads hooks from `FUSA_CAMPAIGN_PANIC_UNITS` /
    /// `FUSA_CAMPAIGN_PANIC_ONCE_UNITS` (comma-separated unit indices),
    /// `FUSA_CAMPAIGN_INTERRUPT_AFTER_UNITS` and
    /// `FUSA_CAMPAIGN_SIGTERM_AFTER_UNITS` (unit counts).
    pub fn from_env() -> FaultInjection {
        fn list(name: &str) -> Vec<usize> {
            std::env::var(name)
                .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
                .unwrap_or_default()
        }
        fn count(name: &str) -> Option<usize> {
            std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
        }
        FaultInjection {
            panic_units: list("FUSA_CAMPAIGN_PANIC_UNITS"),
            panic_once_units: list("FUSA_CAMPAIGN_PANIC_ONCE_UNITS"),
            interrupt_after_units: count("FUSA_CAMPAIGN_INTERRUPT_AFTER_UNITS"),
            sigterm_after_units: count("FUSA_CAMPAIGN_SIGTERM_AFTER_UNITS"),
        }
    }

    /// Whether `unit` should panic on attempt number `attempt` (1-based).
    pub(crate) fn should_panic(&self, unit: usize, attempt: u32) -> bool {
        self.panic_units.contains(&unit) || (attempt == 1 && self.panic_once_units.contains(&unit))
    }
}

/// Renders a `catch_unwind` payload the way the default panic hook would.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_error_displays() {
        let e = CampaignError::MissingUnit {
            unit: 7,
            workload: "uniform_random#0".into(),
            chunk: 3,
        };
        let text = e.to_string();
        assert!(text.contains("unit 7"));
        assert!(text.contains("uniform_random#0"));
        assert!(CampaignError::ResumeWithoutCheckpoint
            .to_string()
            .contains("--resume"));
    }

    #[test]
    fn injection_noop_and_should_panic() {
        assert!(FaultInjection::default().is_noop());
        let inj = FaultInjection {
            panic_units: vec![2],
            panic_once_units: vec![5],
            ..Default::default()
        };
        assert!(!inj.is_noop());
        assert!(inj.should_panic(2, 1));
        assert!(inj.should_panic(2, 3));
        assert!(inj.should_panic(5, 1));
        assert!(!inj.should_panic(5, 2));
        assert!(!inj.should_panic(4, 1));
    }

    #[test]
    fn io_retry_backoff_is_bounded() {
        let policy = IoRetryPolicy {
            max_attempts: 5,
            base_delay_ms: 2,
            max_delay_ms: 10,
        };
        assert_eq!(policy.delay_after(1).as_millis(), 2);
        assert_eq!(policy.delay_after(2).as_millis(), 4);
        assert_eq!(policy.delay_after(3).as_millis(), 8);
        assert_eq!(policy.delay_after(4).as_millis(), 10, "capped");
        assert_eq!(policy.delay_after(40).as_millis(), 10, "no overflow");
        assert_eq!(IoRetryPolicy::none().max_attempts, 1);
        assert_eq!(IoRetryPolicy::none().delay_after(1).as_millis(), 0);
    }

    #[test]
    fn panic_payloads_render() {
        let s: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(s.as_ref()), "static str");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(s.as_ref()), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "<non-string panic payload>");
    }
}
