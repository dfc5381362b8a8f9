//! End-to-end equivalence of the monomorphic replay lanes.
//!
//! The lanes are pure devirtualization: a [`ReplayLane`] selected once
//! per `(configuration, trace)` pair replaces the generic
//! `FrontEnd`-dispatch replay, and it is only allowed to change *how
//! fast the simulator runs*, never a single statistic. For every catalog
//! organization × kernel × transformation set, replaying through the
//! lane ([`LaneMode::Auto`]) must produce the identical [`RunResult`] —
//! core report and full hierarchy statistics — as the generic referee
//! ([`LaneMode::Generic`]). A lane-kind census pins which organizations
//! get a monomorphic lane so the battery
//! can never degenerate into comparing the generic path against itself.
//!
//! [`ReplayLane`]: sttcache::ReplayLane
//! [`RunResult`]: sttcache::RunResult

use sttcache::{DCacheOrganization, LaneMode, Platform};
use sttcache_bench::check;
use sttcache_bench::testkit::DEFAULT_SEED;
use sttcache_bench::trace_cache;
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

/// The stock organizations must each select their own monomorphic lane
/// under [`LaneMode::Auto`]; only ad-hoc stage stacks fall back to the
/// generic path. Under [`LaneMode::Generic`] everything is generic.
#[test]
fn stock_organizations_select_monomorphic_lanes() {
    let expected = [
        (DCacheOrganization::SramBaseline, "plain"),
        (DCacheOrganization::NvmDropIn, "plain"),
        (DCacheOrganization::nvm_vwb_default(), "vwb"),
        (DCacheOrganization::nvm_l0_default(), "l0"),
        (DCacheOrganization::nvm_emshr_default(), "emshr"),
    ];
    for (org, kind) in expected {
        let platform = Platform::new(org).expect("canonical organization validates");
        assert_eq!(
            platform.replay_lane_kind(LaneMode::Auto),
            kind,
            "lane selection changed for {}",
            org.name()
        );
        assert_eq!(platform.replay_lane_kind(LaneMode::Generic), "generic");
    }
}

/// The full battery: every catalog organization × kernel × transformation
/// set. Lane replay must be bit-identical to the generic referee, down to
/// the rendered statistics report.
#[test]
fn lane_replay_matches_generic_referee_everywhere() {
    let size = ProblemSize::Mini;
    for org in check::all_organizations() {
        let platform = Platform::new(org).expect("canonical organization validates");
        for bench in PolyBench::ALL {
            for t in transform_sets() {
                let trace = trace_cache::cached_trace(bench, size, t);
                let lane = platform.run_trace_with(&trace, LaneMode::Auto);
                let generic = platform.run_trace_with(&trace, LaneMode::Generic);
                assert_eq!(
                    lane,
                    generic,
                    "lane replay diverged on {}/{}/{t}",
                    org.name(),
                    bench.name()
                );
                assert_eq!(
                    lane.stats_text(),
                    generic.stats_text(),
                    "stats report diverged on {}/{}/{t}",
                    org.name(),
                    bench.name()
                );
            }
        }
    }
}

/// The adversarial lane cross-check layer (the `sttcache-check
/// --kind lane` leg) reports clean on every adversary family.
#[test]
fn lane_cross_check_is_clean_on_every_adversary_family() {
    for kind in check::Adversary::ALL {
        assert!(
            check::run_lane_case(kind, DEFAULT_SEED, 600).is_ok(),
            "lane cross-check failed on {}",
            kind.name()
        );
    }
}

/// ddmin works against the lane differential: an injected lane defect —
/// simulated by comparing traces with prefetches dropped from one side —
/// shrinks to a single-event reproducer through the same
/// [`check::shrink_events`] machinery `--kind lane --shrink` uses.
#[test]
fn ddmin_shrinks_a_lane_divergence_to_one_event() {
    let platform =
        Platform::new(DCacheOrganization::nvm_vwb_default()).expect("organization validates");
    let diverges = |events: &[sttcache_cpu::TraceEvent]| {
        let trace = check::trace_from_events(events);
        let stripped: sttcache_cpu::Trace = trace
            .events()
            .iter()
            .copied()
            .filter(|e| !matches!(e, sttcache_cpu::TraceEvent::Prefetch { .. }))
            .collect();
        platform.run_trace_with(&trace, LaneMode::Auto)
            != platform.run_trace_with(&stripped, LaneMode::Generic)
    };

    let trace = check::adversarial_trace(check::Adversary::PrefetchStorm, DEFAULT_SEED, 200);
    assert!(
        diverges(trace.events()),
        "the injected divergence must trip"
    );
    let minimal = check::shrink_events(trace.events(), diverges);
    assert_eq!(minimal.len(), 1, "ddmin should isolate one culprit event");
    assert!(
        matches!(minimal[0], sttcache_cpu::TraceEvent::Prefetch { .. }),
        "the culprit must be a prefetch, got {:?}",
        minimal[0]
    );
}
