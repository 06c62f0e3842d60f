//! Host measurements taken on every run: effective parallelism and
//! peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Fixed integer work for the spin calibration: a xorshift chain the
/// compiler cannot shorten.
fn spin(rounds: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x)
}

/// Effective parallelism available to two busy threads, from a
/// two-worker spin calibration: the time one worker needs for a fixed
/// spin, times two, over the wall time two workers need for one spin
/// each. Reads 2 on two free cores and 1 when the threads share one.
/// The median of five trials is reported.
pub fn parallelism() -> f64 {
    const ROUNDS: u64 = 4_000_000;
    let mut trials = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = Instant::now();
        spin(ROUNDS);
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(ROUNDS));
            let b = s.spawn(|| spin(ROUNDS));
            a.join().expect("spin worker");
            b.join().expect("spin worker");
        });
        let two = t.elapsed().as_secs_f64();
        trials.push(2.0 * one / two);
    }
    crate::report::median(&trials)
}

/// A CPU set as `sched_setaffinity` takes it: 1 024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live CPU set of the size passed; pid 0 names
    // the calling thread, and the call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// Restricts the calling thread, and every thread it spawns from now
/// on, to the CPU it is running on. Returns `false` (and changes
/// nothing) where the platform refuses.
pub fn pin_to_one_cpu() -> bool {
    // SAFETY: sched_getcpu takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    let Ok(cpu) = usize::try_from(cpu) else {
        return false;
    };
    let mut mask: CpuSet = [0; 16];
    if cpu >= 64 * mask.len() {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&mask)
}

/// Lets the calling thread, and the threads it spawns from now on, run
/// on every CPU it is allowed (the kernel intersects the full set with
/// the process's cpuset).
pub fn unpin() -> bool {
    set_affinity(&[u64::MAX; 16])
}

/// `struct rusage` of Linux (x86-64 and aarch64 share this layout):
/// two `timeval`s followed by fourteen `long`s.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Peak resident set size of this process so far (`ru_maxrss`, the
/// kernel's high-water mark), in MB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // C layout the call fills; getrusage writes nothing else.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports ru_maxrss in KiB.
    usage.maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn parallelism_is_within_two_workers() {
        let p = parallelism();
        assert!(p > 0.5 && p < 2.5, "{p}");
    }

    fn allowed() -> String {
        std::fs::read_to_string("/proc/thread-self/status")
            .expect("status")
            .lines()
            .find(|l| l.starts_with("Cpus_allowed_list"))
            .expect("Cpus_allowed_list")
            .to_owned()
    }

    #[test]
    fn pin_and_unpin_change_the_allowed_cpus() {
        let before = allowed();
        assert!(pin_to_one_cpu());
        let pinned = allowed();
        assert!(unpin());
        assert_eq!(allowed(), before);
        assert!(!pinned.contains(',') && !pinned.contains('-'), "{pinned}");
    }
}
