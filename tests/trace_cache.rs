//! End-to-end equivalence of the trace-cache execution path.
//!
//! Every catalog organization × PolyBench kernel × transformation set
//! must produce the identical [`RunResult`] — core report and full
//! hierarchy statistics — whether the simulation runs the kernel directly
//! through the dynamically dispatched front-end or replays the shared
//! cached trace through the concrete port [`Platform::run_trace`] picks.
//! This is the byte-identical-output guarantee the figures depend on.
//!
//! [`Platform::run_trace`]: sttcache::Platform::run_trace
//!
//! [`RunResult`]: sttcache::RunResult

use sttcache::{DCacheOrganization, Platform, PlatformConfig};
use sttcache_bench::{check, trace_cache, SweepRunner};
use sttcache_cpu::Engine;
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

/// none, all, and each transformation alone.
fn transform_sets() -> [Transformations; 5] {
    let mut v = Transformations::none();
    v.vectorize = true;
    let mut p = Transformations::none();
    p.prefetch = true;
    let mut o = Transformations::none();
    o.others = true;
    [Transformations::none(), Transformations::all(), v, p, o]
}

/// The grid points are independent, so they are spread over the sweep
/// engine's workers; the first divergence is re-raised once all are done.
#[test]
fn cached_replay_matches_direct_on_every_kernel_and_transform() {
    let size = ProblemSize::Mini;
    let mut grid = Vec::new();
    for org in check::all_organizations() {
        for bench in PolyBench::ALL {
            for t in transform_sets() {
                grid.push((org, bench, t));
            }
        }
    }
    SweepRunner::from_env().map_ok(&grid, |_, &(org, bench, t)| {
        let kernel = bench.kernel(size);
        let direct = Platform::new(org)
            .expect("canonical configuration")
            .run(|e: &mut dyn Engine| kernel.run(e, t));
        let cached = trace_cache::run_config(&PlatformConfig::new(org), bench, size, t);
        assert_eq!(
            direct,
            cached,
            "cached replay diverged on {}/{}/{t}",
            org.name(),
            bench.name()
        );
        assert_eq!(
            direct.stats_text(),
            cached.stats_text(),
            "stats report diverged on {}/{}/{t}",
            org.name(),
            bench.name()
        );
    });
}

/// Repeating a grid point answers from the result memo with the identical
/// result — memoization is invisible to callers.
#[test]
fn repeated_grid_points_are_memoized_and_identical() {
    let cfg = PlatformConfig::new(DCacheOrganization::NvmDropIn);
    let args = (PolyBench::Mvt, ProblemSize::Mini, Transformations::all());
    let first = trace_cache::run_config(&cfg, args.0, args.1, args.2);
    let hits_before = trace_cache::result_memo_hits();
    let second = trace_cache::run_config(&cfg, args.0, args.1, args.2);
    assert_eq!(first, second);
    assert!(trace_cache::result_memo_hits() > hits_before);
}

/// Distinct organizations replay the *same* shared recording: repeated
/// lookups of one (kernel, transformation) key return the identical
/// `Arc<Trace>` allocation, not a re-recording.
#[test]
fn organizations_share_one_recording_per_kernel() {
    let bench = PolyBench::Trisolv;
    let size = ProblemSize::Mini;
    // A transformation set no other test in this binary uses, so the
    // first lookup here is the recording one.
    let mut t = Transformations::none();
    t.vectorize = true;
    t.prefetch = true;
    let first = trace_cache::cached_trace(bench, size, t);
    for org in [
        DCacheOrganization::SramBaseline,
        DCacheOrganization::NvmDropIn,
        DCacheOrganization::nvm_vwb_default(),
        DCacheOrganization::nvm_l0_default(),
    ] {
        trace_cache::run_config(&PlatformConfig::new(org), bench, size, t);
    }
    let again = trace_cache::cached_trace(bench, size, t);
    assert!(
        std::sync::Arc::ptr_eq(&first, &again),
        "the recording was not shared"
    );
}
