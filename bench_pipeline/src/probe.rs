//! Host-speed probe: how fast each CPU runs a fixed piece of reference
//! work, sampled all through a run, so that CPU times can be scaled to a
//! reference speed.
//!
//! On a shared host the same code runs up to twice as slow when other
//! tenants load the physical core under a CPU (caches, SMT sibling,
//! clock), in bursts that come and go within a second and differ from
//! CPU to CPU. The slowdown counts as CPU time, not as waiting, so CPU
//! time alone does not remove it. One probe thread per CPU, pinned to
//! it, runs a ~1 ms chunk of reference work every [`TICK`] and records
//! the chunk's thread CPU time. The harness samples which CPUs the
//! repetition's threads run on, and a command's reference time is the
//! probe's time on those CPUs at those moments; its normalized time is
//! `CPU seconds × REFERENCE_S / reference`. The reference work never
//! calls the program, so a change to the program cannot move it, and
//! the probe runs in the harness process, so its CPU time is never
//! counted as the program's.

use crate::sys::{self, Clock};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Thread CPU seconds of one reference chunk on the reference host, a
/// quiet 2-vCPU x86-64 VM (Intel Xeon, Sapphire Rapids): the speed
/// normalized times are expressed at.
pub const REFERENCE_S: f64 = 0.00115;

/// Pause between two chunks on one CPU.
pub const TICK: Duration = Duration::from_millis(50);

/// Where a thread of the measured process was seen running: monotonic
/// seconds and CPU.
pub type Occupancy = (f64, usize);

/// One chunk on one CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sample {
    /// Monotonic seconds at the chunk's middle.
    at_s: f64,
    /// Thread CPU seconds of the chunk.
    reference_s: f64,
}

type Samples = Arc<Mutex<Vec<Sample>>>;

/// The running probe threads; dropping it stops and joins them.
pub struct Probe {
    stop: Arc<AtomicBool>,
    cpus: Vec<(usize, Samples)>,
    threads: Vec<JoinHandle<()>>,
}

impl Probe {
    /// Starts one probe thread per CPU this process may use. Where
    /// threads cannot be pinned, no probe runs and every reference is
    /// [`REFERENCE_S`], so normalized time is plain CPU time.
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let mut probe = Probe {
            stop: Arc::clone(&stop),
            cpus: Vec::new(),
            threads: Vec::new(),
        };
        for cpu in sys::allowed_cpus() {
            let samples: Samples = Arc::default();
            let (stop, sink) = (Arc::clone(&stop), Arc::clone(&samples));
            let thread = std::thread::Builder::new()
                .name(format!("probe-cpu{cpu}"))
                .spawn(move || {
                    if !sys::pin_current_thread(cpu) {
                        return;
                    }
                    loop {
                        std::thread::park_timeout(TICK);
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let (at, cpu_at) =
                            (sys::seconds(Clock::Monotonic), sys::seconds(Clock::Thread));
                        black_box(chunk());
                        let reference_s = sys::seconds(Clock::Thread) - cpu_at;
                        let at_s = (at + sys::seconds(Clock::Monotonic)) / 2.0;
                        let mut samples = sink.lock().unwrap_or_else(|e| e.into_inner());
                        samples.push(Sample { at_s, reference_s });
                    }
                });
            if let Ok(thread) = thread {
                probe.cpus.push((cpu, samples));
                probe.threads.push(thread);
            }
        }
        probe
    }

    /// The samples taken so far.
    pub fn speeds(&self) -> Speeds {
        Speeds(
            self.cpus
                .iter()
                .map(|(cpu, samples)| {
                    let samples = samples.lock().unwrap_or_else(|e| e.into_inner());
                    (*cpu, samples.clone())
                })
                .collect(),
        )
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// Probe samples by CPU, each CPU's in time order.
#[derive(Debug, Clone, Default)]
pub struct Speeds(Vec<(usize, Vec<Sample>)>);

impl Speeds {
    /// Mean reference seconds over the monotonic interval `[from, to]`,
    /// on the CPUs and at the moments `occupancy` saw the measured
    /// threads run; from every CPU's samples in the interval when it saw
    /// none; [`REFERENCE_S`] without samples.
    pub fn reference_s(&self, occupancy: &[Occupancy], from: f64, to: f64) -> f64 {
        let seen: Vec<f64> = occupancy
            .iter()
            .filter(|&&(at, _)| from <= at && at <= to)
            .filter_map(|&(at, cpu)| self.at(cpu, at))
            .collect();
        if !seen.is_empty() {
            return mean(&seen);
        }
        let margin = TICK.as_secs_f64();
        let around: Vec<f64> = self
            .0
            .iter()
            .flat_map(|(_, samples)| samples)
            .filter(|s| from - margin <= s.at_s && s.at_s <= to + margin)
            .map(|s| s.reference_s)
            .collect();
        if around.is_empty() {
            REFERENCE_S
        } else {
            mean(&around)
        }
    }

    /// The sample on `cpu` nearest to `at_s`, if it lies within two
    /// ticks.
    fn at(&self, cpu: usize, at_s: f64) -> Option<f64> {
        let (_, samples) = self.0.iter().find(|(c, _)| *c == cpu)?;
        let after = samples.partition_point(|s| s.at_s < at_s);
        let nearest = [after.checked_sub(1), Some(after)]
            .into_iter()
            .flatten()
            .filter_map(|i| samples.get(i))
            .min_by(|a, b| (a.at_s - at_s).abs().total_cmp(&(b.at_s - at_s).abs()))?;
        ((nearest.at_s - at_s).abs() <= 2.0 * TICK.as_secs_f64()).then_some(nearest.reference_s)
    }
}

/// `cpu_s`, measured where the reference work took `reference_s`, scaled
/// to the reference speed.
pub fn normalize(cpu_s: f64, reference_s: f64) -> f64 {
    cpu_s * REFERENCE_S / reference_s
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The reference work: dense floating-point arithmetic, like training,
/// for about three quarters of the time, and integer bit mixing, like
/// the bit-parallel simulators, for the rest. The dense part slows the
/// most under contention; in this proportion the normalized time of
/// every command stays within about a tenth of its quiet-host value per
/// doubling of the reference time (measured on the four workloads; an
/// equal split left up to a quarter, and a random walk over a 4 MiB
/// table, tried as a third part, made it worse).
fn chunk() -> u64 {
    const N: usize = 64;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.25).collect();
    let mut c = vec![0.0f64; N * N];
    for _ in 0..4 {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * black_box(a[k * N + j]);
                }
            }
        }
    }
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut acc = c.iter().sum::<f64>() as u64;
    for _ in 0..100_000 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        acc = acc.wrapping_add(u64::from(state.count_ones()) ^ (state >> 3));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speeds() -> Speeds {
        let at = |at_s, reference_s| Sample { at_s, reference_s };
        Speeds(vec![
            (0, vec![at(10.0, 0.001), at(10.05, 0.002), at(10.1, 0.001)]),
            (1, vec![at(10.02, 0.004), at(10.07, 0.004)]),
        ])
    }

    #[test]
    fn references_follow_where_the_threads_ran() {
        let speeds = speeds();
        // Seen on CPU 0 near its second sample, then on CPU 1.
        let occupancy = [(10.04, 0), (10.06, 1), (11.0, 1)];
        let reference = speeds.reference_s(&occupancy, 10.0, 10.1);
        assert!((reference - 0.003).abs() < 1e-12, "{reference}");
        // Unseen: every CPU's samples around the interval.
        let reference = speeds.reference_s(&[], 10.0, 10.03);
        assert!((reference - 0.00275).abs() < 1e-12, "{reference}");
        // No samples at all: the reference speed itself.
        assert_eq!(
            Speeds::default().reference_s(&occupancy, 10.0, 10.1),
            REFERENCE_S
        );
        assert_eq!(speeds.at(1, 12.0), None);
        assert_eq!(speeds.at(2, 10.0), None);
    }

    #[test]
    fn normalizing_scales_by_the_reference() {
        assert_eq!(normalize(2.0, REFERENCE_S), 2.0);
        assert!((normalize(3.0, 1.5 * REFERENCE_S) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn the_probe_samples_and_stops() {
        let probe = Probe::start();
        std::thread::sleep(4 * TICK);
        let speeds = probe.speeds();
        drop(probe);
        if cfg!(target_os = "linux") {
            let now = sys::seconds(Clock::Monotonic);
            let reference = speeds.reference_s(&[], now - 1.0, now);
            assert!(reference > 0.0 && reference != REFERENCE_S, "{reference}");
        }
    }
}
