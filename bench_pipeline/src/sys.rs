//! The few Linux calls the benchmark needs beyond `std`: CPU-time and
//! monotonic clocks, CPU affinity, and where a process's threads run.
//! Elsewhere they degrade: the clocks fall back to wall time, and the
//! CPU queries report nothing, which turns the speed probe off.

use std::time::Instant;

/// Which clock [`seconds`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// CPU time of every thread of the process, exited ones included.
    Process,
    /// CPU time of the calling thread.
    Thread,
    /// System-wide monotonic time, comparable between processes.
    Monotonic,
}

/// Seconds `clock` has counted so far. CPU clocks count time spent
/// running, not time spent waiting for a core.
pub fn seconds(clock: Clock) -> f64 {
    linux::clock_s(clock).unwrap_or_else(|| {
        static ORIGIN: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
    })
}

/// CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    linux::allowed_cpus()
}

/// Restricts the calling thread to `cpu`; whether that worked.
pub fn pin_current_thread(cpu: usize) -> bool {
    linux::pin_current_thread(cpu)
}

/// The CPU the calling thread is running on.
pub fn current_cpu() -> Option<usize> {
    linux::current_cpu()
}

/// The CPU of every thread of process `pid` that is running or ready to
/// run, read from `/proc/<pid>/task/*/stat`.
pub fn running_cpus(pid: u32) -> Vec<usize> {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("stat")).ok())
        .filter_map(|stat| {
            // Fields after the parenthesized command name, which may
            // itself hold spaces: state is the first, processor the 37th.
            let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
            (*fields.first()? == "R").then(|| fields.get(36)?.parse().ok())?
        })
        .collect()
}

#[cfg(target_os = "linux")]
mod linux {
    use super::Clock;
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    /// Bits of a `cpu_set_t`, 1024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
        fn sched_getcpu() -> c_int;
    }

    pub fn clock_s(clock: Clock) -> Option<f64> {
        let id = match clock {
            Clock::Monotonic => 1,
            Clock::Process => 2,
            Clock::Thread => 3,
        };
        let mut time = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `time` is a valid, writable `struct timespec`.
        let status = unsafe { clock_gettime(id, &mut time) };
        (status == 0).then_some(time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9)
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of the size passed.
        let status =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        if status != 0 {
            return Vec::new();
        }
        (0..set.len() * 64)
            .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin_current_thread(cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        if cpu >= set.len() * 64 {
            return false;
        }
        set[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `set` is a readable buffer of the size passed; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
    }

    pub fn current_cpu() -> Option<usize> {
        // SAFETY: no arguments; returns -1 on error.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }
}

#[cfg(not(target_os = "linux"))]
mod linux {
    use super::Clock;

    pub fn clock_s(_clock: Clock) -> Option<f64> {
        None
    }

    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_current_thread(_cpu: usize) -> bool {
        false
    }

    pub fn current_cpu() -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_counts_running_not_sleeping() {
        let thread = seconds(Clock::Thread);
        let begun = Instant::now();
        while begun.elapsed().as_secs_f64() < 0.02 {
            std::hint::black_box(0u64);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        let thread = seconds(Clock::Thread) - thread;
        assert!(thread > 0.0, "{thread}");
        if cfg!(target_os = "linux") {
            assert!(thread < 0.06, "sleep counted as CPU time: {thread}");
        }
    }

    #[test]
    fn this_process_runs_on_an_allowed_cpu() {
        if cfg!(target_os = "linux") {
            let cpus = allowed_cpus();
            assert!(!cpus.is_empty());
            assert!(cpus.contains(&current_cpu().unwrap()));
            // This thread is running while it reads its own stat.
            assert!(!running_cpus(std::process::id()).is_empty());
        }
    }
}
