//! Host measurements read from the operating system (process CPU time,
//! peak resident set, scheduler run-delay) and CPU pinning.

use std::ffi::{c_int, c_long};
use std::io;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Words of a `cpu_set_t` (1024 CPUs, the C library's fixed size).
const MASK_WORDS: usize = 16;

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// User plus system CPU time of the whole process (every thread, live
/// or already joined), in nanoseconds.
pub fn process_cpu_ns() -> io::Result<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect())
}

/// Restricts the calling thread (and processes it spawns afterwards) to
/// `cpus`.
pub fn pin_to(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        if cpu >= MASK_WORDS * 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "CPU index out of range",
            ));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// CPU (`/proc/thread-self/schedstat`, second field).
pub fn thread_run_delay_ns() -> io::Result<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    text.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("/proc/thread-self/schedstat"))
}

/// Peak resident set size of the process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> io::Result<u64> {
    let text = std::fs::read_to_string("/proc/self/status")?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad("/proc/self/status"))
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("cannot parse {what}"))
}
