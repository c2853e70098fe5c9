//! Host measurements read from `/proc`, and the order statistics the
//! report uses.

/// Nanoseconds the calling thread has waited on a run queue, the second
/// field of `/proc/thread-self/schedstat`; `None` where it is unavailable.
pub fn run_queue_wait_ns() -> Option<u64> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    s.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of `values` (mean of the middle two for an even count); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `values`; NaN when empty. Host timings of repetitions
/// are summarised by it: interference from other tenants of the machine
/// only ever slows a repetition down, so the fastest repetition tracks
/// the program's own speed more steadily than any central value does.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// CPU time the calling thread has run, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`); `None` where it is unavailable. Unlike
/// wall time it leaves out time the thread waited for a CPU and, on a
/// virtual machine with paravirtual steal accounting, time the hypervisor
/// gave the virtual CPU to someone else.
pub fn thread_cpu_s() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
        // fields on 64-bit Linux) that outlives the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.sec as f64 + ts.nsec as f64 * 1e-9)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}
