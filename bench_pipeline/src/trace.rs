//! Spans around the calls the benchmark makes into each layer.
//!
//! The traced repetition opens one span per public layer call from the
//! outside; the library itself is not instrumented for this. A span's
//! *self time* is its CPU time minus that of its child spans, so summing
//! self time by name attributes every CPU second of a command exactly
//! once; what the command's root span keeps for itself is unattributed.

use crate::sys::{self, Clock};
use fusa_obs::Json;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `lint.context`; command roots are
    /// `command.<name>`.
    pub name: &'static str,
    /// Wall seconds since the tracer started.
    pub start_s: f64,
    /// Wall seconds since the tracer started.
    pub end_s: f64,
    /// Process CPU seconds used inside the span, all threads.
    pub cpu_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Peak resident set size during the span, MiB, for spans opened
    /// with [`Tracer::span_peak`] where the platform can measure it.
    pub peak_mb: Option<f64>,
}

/// An in-memory span recorder for one process.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let index = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_s,
            end_s: start_s,
            cpu_s: 0.0,
            parent: self.open.last().copied(),
            peak_mb: None,
        });
        self.open.push(index);
        let cpu_start = sys::seconds(Clock::Process);
        let result = f(self);
        let cpu_end = sys::seconds(Clock::Process);
        self.open.pop();
        let span = &mut self.spans[index];
        span.cpu_s = cpu_end - cpu_start;
        span.end_s = self.origin.elapsed().as_secs_f64();
        result
    }

    /// [`Tracer::span`] that also records the span's peak RSS: the
    /// kernel's high-water mark is reset to the current RSS on entry and
    /// read on exit (Linux only; elsewhere the peak stays `None`).
    pub fn span_peak<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let armed = reset_peak_rss();
        let index = self.spans.len();
        let result = self.span(name, f);
        if armed {
            self.spans[index].peak_mb = peak_rss_mb();
        }
        result
    }

    /// Self CPU seconds of every span: its CPU time minus its children's.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.cpu_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.cpu_s;
            }
        }
        own
    }

    /// Sum of self seconds by span name, in first-seen order.
    pub fn self_seconds_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_seconds()) {
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += own,
                None => totals.push((span.name, own)),
            }
        }
        totals
    }

    /// Largest recorded peak RSS of spans named `name`, MiB.
    pub fn peak_mb(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.peak_mb)
            .reduce(f64::max)
    }

    /// Unattributed share of command CPU time: the self time of the
    /// `command.*` root spans over their total CPU time.
    pub fn unattributed_frac(&self) -> f64 {
        let own = self.self_seconds();
        let (mut unattributed, mut total) = (0.0, 0.0);
        for (span, own) in self.spans.iter().zip(own) {
            if span.name.starts_with("command.") {
                unattributed += own;
                total += span.cpu_s;
            }
        }
        if total > 0.0 {
            unattributed / total
        } else {
            0.0
        }
    }

    /// The spans as JSON objects, tagged with the workload and rep.
    pub fn to_json(&self, workload: &str, rep: usize) -> Vec<Json> {
        self.spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_s".into(), Json::Num(s.start_s)),
                    ("end_s".into(), Json::Num(s.end_s)),
                    ("cpu_s".into(), Json::Num(s.cpu_s)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("workload".into(), Json::Str(workload.into())),
                    ("rep".into(), Json::Num(rep as f64)),
                    ("peak_mb".into(), s.peak_mb.map_or(Json::Null, Json::Num)),
                ])
            })
            .collect()
    }
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    fusa_obs::peak_rss_bytes().map(|bytes| bytes as f64 / (1024.0 * 1024.0))
}

/// Resets the kernel's RSS high-water mark to the current RSS. Returns
/// whether the platform supports it; never fails otherwise.
fn reset_peak_rss() -> bool {
    cfg!(target_os = "linux") && std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(seconds: f64) {
        let started = Instant::now();
        while started.elapsed().as_secs_f64() < seconds {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn self_time_subtracts_children_and_roots_keep_the_rest() {
        let mut tracer = Tracer::default();
        tracer.span("command.lint", |t| {
            busy(0.004);
            t.span("lint.context", |t| {
                busy(0.004);
                t.span("lint.passes", |_| busy(0.004));
            });
        });
        let spans = &tracer.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let own = tracer.self_seconds();
        let total: f64 = own.iter().sum();
        assert!((total - spans[0].cpu_s).abs() < 1e-9);
        assert!(own.iter().all(|&s| s > 0.0), "{own:?}");
        let frac = tracer.unattributed_frac();
        assert!((frac - own[0] / spans[0].cpu_s).abs() < 1e-12);
        let by_name = tracer.self_seconds_by_name();
        assert_eq!(by_name.len(), 3);
        assert_eq!(by_name[1].0, "lint.context");
    }

    #[test]
    fn peak_spans_never_fail() {
        let mut tracer = Tracer::default();
        let sum = tracer.span_peak("core.train", |_| {
            vec![1u8; 1 << 20]
                .iter()
                .map(|&b| u64::from(b))
                .sum::<u64>()
        });
        assert_eq!(sum, 1 << 20);
        if cfg!(target_os = "linux") {
            assert!(tracer.peak_mb("core.train").unwrap_or(0.0) > 0.0);
        }
        assert_eq!(tracer.peak_mb("absent"), None);
    }
}
