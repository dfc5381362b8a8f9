//! Performance benchmark for the sttcache simulator.
//!
//! Three workloads — `paper-figures`, `affine-replay` and
//! `chase-shared-l2` — each measured end to end (untraced runs) and layer
//! by layer (traced runs, spans around each call into a layer's public
//! API). See `BENCHMARK.json` at the repository root for the metric
//! list and [`metrics`] for what each metric should move.

pub mod alloc;
pub mod digest;
pub mod inputs;
pub mod job;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod spans;
pub mod sys;

/// Every allocation in the benchmark (and in tests linking it) is
/// counted per thread.
#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The complete `figures all` job at Mini size and two workers.
    PaperFigures,
    /// Small-size PolyBench traces through every organization.
    AffineReplay,
    /// Seeded pointer-chasing instances, single-core and two-core.
    ChaseSharedL2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperFigures,
        Workload::AffineReplay,
        Workload::ChaseSharedL2,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper-figures",
            Workload::AffineReplay => "affine-replay",
            Workload::ChaseSharedL2 => "chase-shared-l2",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Median of `v` (mean of the middle two for an even count; 0 if empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
