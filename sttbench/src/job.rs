//! The `paper-figures` workload: the complete `figures all` job at Mini
//! size and two workers, in a fresh process per sample.
//!
//! The trace cache and result memo are process-global, so a second job in
//! one process would measure only map lookups. The benchmark therefore
//! re-executes its own binary in child mode ([`child_main`]); the child
//! runs the same library calls the `figures` binary makes, writes the
//! figures to a file standing in for its stdout, and reports its own
//! measurements on stderr as one `key=value` line.

use crate::sys;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use sttcache_bench::{figures, parallel, profile, trace_cache, SweepRunner};
use sttcache_workloads::ProblemSize;

/// Worker threads the job runs with.
pub const FIGURE_WORKERS: usize = 2;

/// The committed output of `figures all`, which every job's stdout must
/// match byte for byte.
pub const FIGURES_REFERENCE: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../figures_output.txt"
));

/// The flag that puts the binary in child mode.
pub const CHILD_FLAG: &str = "--child-figures";

const STATS_PREFIX: &str = "sttbench-child";

/// Nanoseconds since the Unix epoch.
fn unix_ns(t: SystemTime) -> u64 {
    t.duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Child mode: runs `figures all` (the same artifact printers, in the
/// same order, as the `figures` binary) timing each artifact, and
/// reports on stderr. `started` is the wall-clock time `main` was
/// entered.
pub fn child_main(started: SystemTime) -> io::Result<()> {
    parallel::set_jobs(FIGURE_WORKERS);
    let mut per_figure = Vec::new();
    for (name, print) in figures::artifacts() {
        let cpu0 = sys::process_cpu_ns()?;
        let t0 = Instant::now();
        print(ProblemSize::Mini);
        let wall = t0.elapsed().as_nanos() as u64;
        per_figure.push((name, wall, sys::process_cpu_ns()? - cpu0));
    }
    io::stdout().flush()?;
    let p = profile::snapshot();
    let cache = trace_cache::global_stats();
    let (resident_bytes, _) = trace_cache::global_footprint();
    let mut line = format!(
        "{STATS_PREFIX} start_unix_ns={} cpu_ns={} delay_ns={} hwm_kib={} workers={} \
         replay_events={} simulation_ns={} record_ns={} record_events={} \
         cache_hits={} cache_misses={} resident_bytes={} memo_hits={}",
        unix_ns(started),
        sys::process_cpu_ns()?,
        sys::thread_run_delay_ns()?,
        sys::peak_rss_kib()?,
        SweepRunner::current().workers(),
        p.replay_phase_events(),
        (p.simulation_seconds() * 1e9) as u64,
        (p.record_seconds * 1e9) as u64,
        p.record_events,
        cache.hits,
        cache.misses,
        resident_bytes,
        trace_cache::result_memo_hits(),
    );
    for (name, wall, cpu) in per_figure {
        line.push_str(&format!(" wall.{name}={wall} cpu.{name}={cpu}"));
    }
    eprintln!("{line}");
    Ok(())
}

/// One job as the parent saw it.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// Spawn to exit.
    pub wall_ns: u64,
    /// Spawn to the child entering `main` (process start-up).
    pub setup_ns: u64,
    /// Whether stdout matched [`FIGURES_REFERENCE`].
    pub stdout_ok: bool,
    /// Mean |simulated - paper| of Fig. 5's average penalties, if the
    /// output had them.
    pub penalty_gap_pp: Option<f64>,
    /// The child's own `key=value` report.
    pub stats: HashMap<String, f64>,
}

impl JobSample {
    /// A value the child reported (0 if absent).
    pub fn stat(&self, key: &str) -> f64 {
        self.stats.get(key).copied().unwrap_or(0.0)
    }
}

/// Runs one job: spawns `exe` in child mode with stdout redirected to
/// `stdout_path`, waits for it and checks its output.
pub fn run_job(exe: &Path, stdout_path: &Path) -> io::Result<JobSample> {
    let stdout = File::create(stdout_path)?;
    let spawned = SystemTime::now();
    let t0 = Instant::now();
    let out = Command::new(exe)
        .arg(CHILD_FLAG)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()?;
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "figures job failed ({}): {stderr}",
            out.status
        )));
    }
    let stats: HashMap<String, f64> = stderr
        .lines()
        .find_map(|l| l.strip_prefix(STATS_PREFIX))
        .ok_or_else(|| io::Error::other(format!("figures job sent no report: {stderr}")))?
        .split_whitespace()
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect();
    let start = stats.get("start_unix_ns").copied().unwrap_or(0.0) as u64;
    let printed = std::fs::read(stdout_path)?;
    Ok(JobSample {
        wall_ns,
        setup_ns: start.saturating_sub(unix_ns(spawned)),
        stdout_ok: printed == FIGURES_REFERENCE,
        penalty_gap_pp: fig5_penalty_gap(&String::from_utf8_lossy(&printed)),
        stats,
    })
}

/// Mean |simulated - paper| of Fig. 5's drop-in and with-optimization
/// average penalties, read from the printed figures.
pub fn fig5_penalty_gap(printed: &str) -> Option<f64> {
    let fig5 = printed.split("== Fig. 5").nth(1)?;
    let average = fig5.lines().find(|l| l.starts_with("AVERAGE"))?;
    let cols: Vec<f64> = average
        .split_whitespace()
        .skip(1)
        .map(|c| c.trim_end_matches('%').parse().ok())
        .collect::<Option<_>>()?;
    let [drop_in, _, optimized] = cols[..] else {
        return None;
    };
    let (paper_drop_in, paper_optimized) = crate::replay::PAPER_PENALTIES;
    Some(((drop_in - paper_drop_in).abs() + (optimized - paper_optimized).abs()) / 2.0)
}
