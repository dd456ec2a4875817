//! What the benchmark asks of the operating system (Linux): CPU-time
//! clocks of the process and of the calling thread, and the resident
//! set size with its high-water mark.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock_id: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly laid out (`repr(C)`, two
    // 64-bit fields on 64-bit Linux) local; both clock ids are valid
    // constants of the Linux ABI, and the symbol comes from the libc
    // `std` already links.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// User + system time of every thread of the process so far.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Current resident set size in MiB.
pub fn rss_mib() -> Option<f64> {
    status_kib("VmRSS:").map(|k| k as f64 / 1024.0)
}

/// Peak resident set size in MiB since the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|k| k as f64 / 1024.0)
}

/// Resets the peak-RSS high-water mark to the current RSS; false when
/// the kernel refuses (the caller then samples `VmRSS` instead).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu(), thread_cpu());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu() > t0);
        assert!(process_cpu() > p0);
    }

    #[test]
    fn rss_is_readable() {
        assert!(rss_mib().unwrap() > 0.0);
        assert!(peak_rss_mib().unwrap() >= rss_mib().unwrap() * 0.5);
    }
}
