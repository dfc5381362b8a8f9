//! Experiment harness for the DATE 2015 STT-MRAM L1 D-cache paper.
//!
//! One function per table/figure of the paper's evaluation. Each returns
//! the figure's rows/series as data (so the Criterion benches, the
//! `figures` binary and the integration tests all share one source of
//! truth) and has a pretty-printer that emits the same layout the paper
//! plots.
//!
//! Penalty convention (identical to the paper): every bar is
//! `100·(cycles(config) − cycles(SRAM baseline)) / cycles(SRAM baseline)`,
//! with the SRAM D-cache platform running the *untransformed* kernels as
//! the fixed 100 % reference.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod experiments;
pub mod explain;
pub mod extensions;
pub mod figures;
pub mod multicore;
pub mod out;
pub mod parallel;
pub mod profile;
pub mod spans;
pub mod testkit;
pub mod trace_cache;
pub mod workload;

pub use experiments::{
    fig1, fig3, fig4, fig5, fig6, fig7, fig8, fig9, run_benchmark, table1, BenchResult,
    ContributionRow, Fig4Row, Fig6Row, Fig9Row, SeriesTable,
};
pub use parallel::{GridPoint, SweepError, SweepRunner};
pub use profile::{ProfileReport, ProfileSnapshot};
pub use trace_cache::{TraceCache, TraceCacheStats, TraceKey};
pub use workload::WorkloadError;

/// Parses the environment variable `name` with `parse` (after trimming
/// whitespace); `Ok(None)` when it is unset.
///
/// # Errors
///
/// Names the variable, its value and `expected` when `parse` rejects it.
pub(crate) fn env_knob<T>(
    name: &str,
    expected: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Ok(v) => parse(v.trim())
            .map(Some)
            .ok_or_else(|| format!("{name}='{v}' is invalid: expected {expected}")),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(format!("{name}={v:?} is invalid: expected {expected}"))
        }
    }
}

/// Checks the environment knobs the `figures` and `sim` binaries read
/// (`STTCACHE_THREADS`, `STTCACHE_TRACE_CACHE_BYTES`), so a malformed
/// value stops the run with a message instead of falling back to the
/// default.
///
/// # Errors
///
/// The first malformed variable, with its value.
pub fn check_env() -> Result<(), String> {
    parallel::threads_from_env()?;
    trace_cache::cap_bytes_from_env()?;
    Ok(())
}
