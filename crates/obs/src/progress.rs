//! Live progress heartbeats for long-running stages.
//!
//! A [`Progress`] handle wraps a background heartbeat thread that
//! periodically reads a few atomics (work done, auxiliary work units, an
//! optional metric such as training loss) and emits throttled `progress`
//! events to the recorder's JSONL sink plus, when stderr reporting is
//! enabled (`fusa … --progress`), one human-readable line per beat:
//!
//! ```text
//! [fusa] campaign: 37/96 units (38.5%), 1.21e7 work/s, ETA 3.2s
//! [fusa] train: 120/300 units (40.0%), metric 0.1234, ETA 2.1s
//! ```
//!
//! When neither a sink nor stderr reporting is active,
//! [`Progress::start`] returns a **disabled** handle: no thread is
//! spawned and every method short-circuits on a `None` check, so
//! instrumented hot paths pay nothing (asserted by the
//! `campaign_throughput` bench harness, which measures the default
//! progress-off path).

use crate::recorder::{EventField, Recorder};
use crate::status::{status_target, unix_now, StatusSnapshot, StatusTarget};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Process-wide "`--progress` was passed" switch, read by library code
/// when it opens a [`Progress`] over a long loop.
static PROGRESS_STDERR: AtomicBool = AtomicBool::new(false);

/// Enables or disables human-readable stderr heartbeats process-wide
/// (the CLI sets this from its `--progress` flag).
pub fn set_progress_stderr(enabled: bool) {
    PROGRESS_STDERR.store(enabled, Ordering::Release);
}

/// Whether stderr heartbeats are enabled process-wide.
pub fn progress_stderr() -> bool {
    PROGRESS_STDERR.load(Ordering::Acquire)
}

/// Tuning for one [`Progress`] handle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressConfig {
    /// Emit human-readable lines to stderr.
    pub stderr: bool,
    /// Beat period. Beats are throttled to this interval regardless of
    /// how fast the instrumented loop advances.
    pub interval: Duration,
}

impl Default for ProgressConfig {
    fn default() -> Self {
        ProgressConfig {
            stderr: progress_stderr(),
            interval: Duration::from_millis(500),
        }
    }
}

struct ProgressShared {
    label: String,
    /// Unit name shown on stderr (`units`, `epochs`, …).
    unit: String,
    total: u64,
    done: AtomicU64,
    /// Auxiliary work units (e.g. fault-cycles) for throughput.
    work: AtomicU64,
    /// Latest metric value as `f64` bits; `u64::MAX` sentinel = unset.
    metric_bits: AtomicU64,
    /// Worker threads serving the phase (0 until published).
    workers: AtomicU64,
    /// Cumulative nanoseconds worker threads spent inside work items.
    busy_nanos: AtomicU64,
    /// Units quarantined so far.
    quarantined: AtomicU64,
    stop: Mutex<bool>,
    wake: Condvar,
    stderr: bool,
    started: Instant,
    recorder: &'static Recorder,
    /// `status.json` destination captured when the handle started; each
    /// beat additionally publishes a [`StatusSnapshot`] there.
    status: Option<Arc<StatusTarget>>,
}

const METRIC_UNSET: u64 = u64::MAX;

impl ProgressShared {
    fn emit(&self, final_beat: bool) {
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let done = self.done.load(Ordering::Relaxed);
        let work = self.work.load(Ordering::Relaxed);
        let metric_bits = self.metric_bits.load(Ordering::Relaxed);
        let metric = (metric_bits != METRIC_UNSET).then(|| f64::from_bits(metric_bits));
        let rate = if work > 0 {
            work as f64 / elapsed
        } else {
            done as f64 / elapsed
        };
        let eta = if done > 0 && self.total > done {
            (self.total - done) as f64 * elapsed / done as f64
        } else {
            0.0
        };

        if final_beat {
            // Preserve the last live figures in the manifest so post-hoc
            // reports show what the operator saw on the heartbeat.
            self.recorder
                .gauge_set(&format!("{}.final_rate", self.label), rate);
            self.recorder
                .gauge_set(&format!("{}.final_eta_seconds", self.label), eta);
        }
        self.write_status(final_beat, done, work, rate, eta, elapsed);

        if self.recorder.has_sink() {
            let mut fields = vec![
                ("name", EventField::Str(&self.label)),
                ("done", EventField::U64(done)),
                ("total", EventField::U64(self.total)),
                ("seconds", EventField::F64(elapsed)),
                ("rate", EventField::F64(rate)),
                ("eta_seconds", EventField::F64(eta)),
            ];
            if work > 0 {
                fields.push(("work", EventField::U64(work)));
            }
            if let Some(metric) = metric {
                fields.push(("metric", EventField::F64(metric)));
            }
            if final_beat {
                fields.push(("final", EventField::U64(1)));
            }
            self.recorder.event("progress", &fields);
        }

        if self.stderr {
            let percent = if self.total > 0 {
                done as f64 * 100.0 / self.total as f64
            } else {
                0.0
            };
            let mut line = format!(
                "[fusa] {}: {}/{} {} ({:.1}%)",
                self.label, done, self.total, self.unit, percent
            );
            if work > 0 {
                line.push_str(&format!(", {rate:.3e} work/s"));
            }
            if let Some(metric) = metric {
                line.push_str(&format!(", metric {metric:.4}"));
            }
            if final_beat {
                line.push_str(&format!(", done in {elapsed:.1}s"));
            } else {
                line.push_str(&format!(", ETA {eta:.1}s"));
            }
            eprintln!("{line}");
        }
    }

    /// Publishes a `status.json` snapshot at the armed target, if any.
    /// Best-effort: a full disk or vanished run dir must not take down
    /// the instrumented run.
    fn write_status(
        &self,
        final_beat: bool,
        done: u64,
        work: u64,
        rate: f64,
        eta: f64,
        elapsed: f64,
    ) {
        let Some(target) = &self.status else {
            return;
        };
        let busy_seconds = self.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        let workers = self.workers.load(Ordering::Relaxed);
        let busy_fraction = if workers > 0 {
            (busy_seconds / (elapsed * workers as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let snapshot = StatusSnapshot {
            run_id: target.run_id.clone(),
            design: target.design.clone(),
            shard: target.shard,
            pid: std::process::id() as u64,
            phase: self.label.clone(),
            unit: self.unit.clone(),
            done,
            total: self.total,
            work,
            rate,
            eta_seconds: eta,
            elapsed_seconds: elapsed,
            quarantined: self.quarantined.load(Ordering::Relaxed),
            workers,
            busy_fraction,
            peak_rss_bytes: crate::rss::peak_rss_bytes(),
            updated_unix: unix_now(),
            finished: final_beat,
            degraded: crate::iofault::durability_degraded(),
        };
        // Best-effort on purpose: a failed heartbeat is superseded by
        // the next one and does not itself degrade durability.
        let _ = snapshot.write_atomic(&target.path);
    }
}

/// Handle over a long loop's heartbeat. Cloning is not supported;
/// worker threads advance through a shared reference.
///
/// Dropping the handle stops the heartbeat thread and emits one final
/// beat (active handles only).
pub struct Progress {
    shared: Option<Arc<ProgressShared>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Progress {
    /// A no-op handle: no thread, and every method is a branch on
    /// `None`. Hot loops can call [`Progress::advance`] unconditionally.
    pub fn disabled() -> Progress {
        Progress {
            shared: None,
            thread: None,
        }
    }

    /// Starts a heartbeat over `total` units of work named `label`.
    ///
    /// Returns a disabled handle when no output is armed: neither
    /// stderr reporting (`config.stderr`), nor a JSONL sink on
    /// `recorder`, nor a process-wide [`StatusTarget`] — the
    /// zero-overhead default. When a status target is armed, the first
    /// `status.json` snapshot is published immediately (before any
    /// heartbeat fires), so `fusa top` sees the run as soon as it
    /// starts.
    pub fn start(
        recorder: &'static Recorder,
        label: &str,
        unit: &str,
        total: u64,
        config: ProgressConfig,
    ) -> Progress {
        let status = status_target();
        if !config.stderr && !recorder.has_sink() && status.is_none() {
            return Progress::disabled();
        }
        let shared = Arc::new(ProgressShared {
            label: label.to_string(),
            unit: unit.to_string(),
            total,
            done: AtomicU64::new(0),
            work: AtomicU64::new(0),
            metric_bits: AtomicU64::new(METRIC_UNSET),
            workers: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            stop: Mutex::new(false),
            wake: Condvar::new(),
            stderr: config.stderr,
            started: Instant::now(),
            recorder,
            status,
        });
        // Publish the starting snapshot (file only — the event/stderr
        // heartbeat starts with the first periodic beat).
        shared.write_status(false, 0, 0, 0.0, 0.0, 0.0);
        let beat = Arc::clone(&shared);
        let interval = config.interval;
        let thread = std::thread::Builder::new()
            .name(format!("fusa-progress-{label}"))
            .spawn(move || {
                let mut stopped = beat.stop.lock().expect("progress lock poisoned");
                // `stop` is checked before every wait: a drop that set it
                // (and notified) before this thread first took the lock
                // would otherwise be missed for a whole interval.
                while !*stopped {
                    let (guard, timeout) = beat
                        .wake
                        .wait_timeout(stopped, interval)
                        .expect("progress lock poisoned");
                    stopped = guard;
                    if !*stopped && timeout.timed_out() {
                        beat.emit(false);
                    }
                }
            })
            .expect("spawn progress heartbeat");
        Progress {
            shared: Some(shared),
            thread: Some(thread),
        }
    }

    /// Whether a heartbeat thread is running.
    pub fn is_active(&self) -> bool {
        self.shared.is_some()
    }

    /// Marks `n` more units done.
    pub fn advance(&self, n: u64) {
        if let Some(shared) = &self.shared {
            shared.done.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` auxiliary work units (e.g. fault-cycles); when nonzero,
    /// the reported rate is work units per second instead of done/s.
    pub fn add_work(&self, n: u64) {
        if let Some(shared) = &self.shared {
            shared.work.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Publishes the latest metric value (e.g. training loss).
    pub fn set_metric(&self, value: f64) {
        if let Some(shared) = &self.shared {
            shared.metric_bits.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Publishes the number of worker threads serving the phase; status
    /// snapshots report `busy / (elapsed * workers)` as the busy
    /// fraction once this is nonzero.
    pub fn set_workers(&self, workers: u64) {
        if let Some(shared) = &self.shared {
            shared.workers.store(workers, Ordering::Relaxed);
        }
    }

    /// Accumulates wall time a worker spent inside a work item.
    pub fn add_busy_seconds(&self, seconds: f64) {
        if let Some(shared) = &self.shared {
            let nanos = (seconds.max(0.0) * 1e9) as u64;
            shared.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// Counts `n` more quarantined units.
    pub fn add_quarantined(&self, n: u64) {
        if let Some(shared) = &self.shared {
            shared.quarantined.fetch_add(n, Ordering::Relaxed);
        }
    }
}

impl Drop for Progress {
    fn drop(&mut self) {
        if let Some(shared) = self.shared.take() {
            *shared.stop.lock().expect("progress lock poisoned") = true;
            shared.wake.notify_all();
            if let Some(thread) = self.thread.take() {
                let _ = thread.join();
            }
            shared.emit(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Mutex as StdMutex;

    fn leaked_recorder() -> &'static Recorder {
        Box::leak(Box::new(Recorder::new()))
    }

    struct Shared(Arc<StdMutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn disabled_without_sink_or_stderr() {
        let _guard = crate::status::test_target_lock();
        crate::status::set_status_target(None);
        let recorder = leaked_recorder();
        let progress = Progress::start(
            recorder,
            "campaign",
            "units",
            10,
            ProgressConfig {
                stderr: false,
                interval: Duration::from_millis(1),
            },
        );
        assert!(!progress.is_active());
        // All methods are no-ops on a disabled handle.
        progress.advance(3);
        progress.add_work(100);
        progress.set_metric(0.5);
        drop(progress);
        assert_eq!(recorder.snapshot(), crate::Snapshot::default());
    }

    /// Progress events are framed as parseable JSONL with the
    /// documented fields, and a final beat is emitted on drop.
    #[test]
    fn progress_events_are_well_framed_jsonl() {
        let recorder = leaked_recorder();
        let buffer = Arc::new(StdMutex::new(Vec::<u8>::new()));
        recorder.attach_sink(Box::new(Shared(buffer.clone())));
        let progress = Progress::start(
            recorder,
            "campaign",
            "units",
            8,
            ProgressConfig {
                stderr: false,
                interval: Duration::from_millis(5),
            },
        );
        assert!(progress.is_active());
        progress.advance(3);
        progress.add_work(3000);
        progress.set_metric(0.25);
        // Let at least one periodic beat fire, then drop for the final.
        std::thread::sleep(Duration::from_millis(60));
        drop(progress);
        recorder.detach_sink();

        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let beats: Vec<crate::Json> = text
            .lines()
            .map(|line| crate::Json::parse(line).expect("beat parses as JSON"))
            .filter(|e| e.get("kind").and_then(crate::Json::as_str) == Some("progress"))
            .collect();
        assert!(beats.len() >= 2, "periodic + final beat: {text}");
        for beat in &beats {
            assert_eq!(
                beat.get("name").and_then(crate::Json::as_str),
                Some("campaign")
            );
            assert_eq!(beat.get("done").and_then(crate::Json::as_u64), Some(3));
            assert_eq!(beat.get("total").and_then(crate::Json::as_u64), Some(8));
            assert_eq!(beat.get("work").and_then(crate::Json::as_u64), Some(3000));
            assert!(beat.get("rate").and_then(crate::Json::as_f64).unwrap() > 0.0);
            assert!(beat
                .get("eta_seconds")
                .and_then(crate::Json::as_f64)
                .is_some());
            assert_eq!(beat.get("metric").and_then(crate::Json::as_f64), Some(0.25));
        }
        let finals: Vec<_> = beats.iter().filter(|b| b.get("final").is_some()).collect();
        assert_eq!(finals.len(), 1, "exactly one final beat");
    }

    /// Dropping an armed handle right after start must not wait out the
    /// heartbeat interval: the stop flag set before the thread first
    /// takes the lock is seen before its first wait.
    #[test]
    fn immediate_drop_does_not_wait_for_the_interval() {
        let recorder = leaked_recorder();
        recorder.attach_sink(Box::new(std::io::sink()));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let started = Instant::now();
        std::thread::spawn(move || {
            let progress = Progress::start(
                recorder,
                "teardown",
                "units",
                1,
                ProgressConfig {
                    stderr: false,
                    interval: Duration::from_secs(3600),
                },
            );
            assert!(progress.is_active());
            drop(progress);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("drop of a fresh heartbeat blocked on its interval");
        assert!(started.elapsed() < Duration::from_millis(900));
        recorder.detach_sink();
    }

    #[test]
    fn concurrent_advance_accumulates() {
        let recorder = leaked_recorder();
        let buffer = Arc::new(StdMutex::new(Vec::<u8>::new()));
        recorder.attach_sink(Box::new(Shared(buffer.clone())));
        let progress = Progress::start(
            recorder,
            "fanin",
            "units",
            400,
            ProgressConfig {
                stderr: false,
                interval: Duration::from_secs(3600),
            },
        );
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let progress = &progress;
                scope.spawn(move || {
                    for _ in 0..100 {
                        progress.advance(1);
                    }
                });
            }
        });
        drop(progress);
        recorder.detach_sink();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let last = text
            .lines()
            .rev()
            .map(|l| crate::Json::parse(l).unwrap())
            .find(|e| e.get("kind").and_then(crate::Json::as_str) == Some("progress"))
            .expect("final beat present");
        assert_eq!(last.get("done").and_then(crate::Json::as_u64), Some(400));
    }

    /// An armed status target alone activates the heartbeat, publishes
    /// a snapshot immediately, tracks worker/quarantine telemetry, and
    /// records final rate/ETA gauges — without any JSONL sink.
    #[test]
    fn status_target_activates_and_publishes_snapshots() {
        use crate::status::{set_status_target, StatusSnapshot, StatusTarget};
        let _guard = crate::status::test_target_lock();
        let dir = std::env::temp_dir().join(format!("fusa_progress_status_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        set_status_target(Some(StatusTarget {
            path: path.clone(),
            run_id: "faults-demo-shard0of2".into(),
            design: "demo".into(),
            shard: Some((0, 2)),
        }));
        let recorder = leaked_recorder();
        let progress = Progress::start(
            recorder,
            "campaign",
            "units",
            6,
            ProgressConfig {
                stderr: false,
                interval: Duration::from_secs(3600),
            },
        );
        set_status_target(None); // captured at start; clearing must not matter
        assert!(progress.is_active());

        // The starting snapshot is already on disk.
        let first = StatusSnapshot::read(&path).expect("initial snapshot");
        assert_eq!(first.run_id, "faults-demo-shard0of2");
        assert_eq!(first.shard, Some((0, 2)));
        assert_eq!(first.phase, "campaign");
        assert_eq!((first.done, first.total), (0, 6));
        assert!(!first.finished);

        progress.set_workers(2);
        progress.advance(6);
        progress.add_work(6000);
        progress.add_busy_seconds(0.25);
        progress.add_quarantined(1);
        drop(progress);

        let last = StatusSnapshot::read(&path).expect("final snapshot");
        assert_eq!((last.done, last.total, last.work), (6, 6, 6000));
        assert_eq!(last.workers, 2);
        assert_eq!(last.quarantined, 1);
        assert!(last.finished);
        assert!(last.rate > 0.0);
        assert!((0.0..=1.0).contains(&last.busy_fraction));
        assert!(last.updated_unix > 0.0);

        let snapshot = recorder.snapshot();
        assert!(snapshot.gauge("campaign.final_rate").unwrap() > 0.0);
        assert_eq!(snapshot.gauge("campaign.final_eta_seconds"), Some(0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn global_stderr_switch_round_trips() {
        assert!(!progress_stderr());
        set_progress_stderr(true);
        assert!(progress_stderr());
        assert!(ProgressConfig::default().stderr);
        set_progress_stderr(false);
        assert!(!progress_stderr());
    }
}
