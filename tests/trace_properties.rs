//! Property-based tests on the trace infrastructure: binary round-trips
//! over arbitrary event streams, and replay equivalence — a recorded
//! kernel replayed through a platform must produce the identical timing.
//!
//! Randomness comes from the in-repo seeded harness
//! (`sttcache_bench::testkit`); failures print their reproducing seed.

use sttcache::{nvm_dl1_config, sram_dl1_config, DCacheOrganization, DlOneTechnology, Platform};
use sttcache_bench::testkit::{run_cases, Rng};
use sttcache_cpu::{Engine, Trace, TraceEvent, TraceRecorder};
use sttcache_mem::Addr;
use sttcache_workloads::{PolyBench, ProblemSize, Transformations};

fn arb_event(rng: &mut Rng) -> TraceEvent {
    match rng.usize_in(0, 5) {
        0 => TraceEvent::Load {
            addr: Addr(rng.next_u64()),
            bytes: rng.u8_in(1, 65),
        },
        1 => TraceEvent::Store {
            addr: Addr(rng.next_u64()),
            bytes: rng.u8_in(1, 65),
        },
        2 => TraceEvent::Prefetch {
            addr: Addr(rng.next_u64()),
        },
        3 => TraceEvent::Compute {
            ops: rng.u32_in(1, 10_000),
        },
        _ => TraceEvent::Branch { taken: rng.bool() },
    }
}

/// Arbitrary event streams survive the binary format bit-exactly.
#[test]
fn binary_roundtrip() {
    run_cases("binary_roundtrip", 128, |rng| {
        let events = rng.vec_of(0, 300, arb_event);
        let trace: Trace = events.into_iter().collect();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("vec write");
        let back = Trace::read_from(&mut buf.as_slice()).expect("read back");
        assert_eq!(trace, back);
    });
}

/// Replaying a trace into a recorder reproduces it (replay is a
/// faithful engine driver).
#[test]
fn replay_identity() {
    run_cases("replay_identity", 128, |rng| {
        let events = rng.vec_of(0, 200, arb_event);
        let trace: Trace = events.into_iter().collect();
        let mut rec = TraceRecorder::new();
        trace.replay(&mut rec);
        let rerecorded = rec.into_trace();
        // Compute events may coalesce, so compare the summaries and the
        // total compute volume instead of exact event lists.
        assert_eq!(trace.summary(), rerecorded.summary());
        let volume = |t: &Trace| -> u64 {
            t.events()
                .iter()
                .map(|e| match e {
                    TraceEvent::Compute { ops } => *ops as u64,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(volume(&trace), volume(&rerecorded));
    });
}

/// Truncating a serialized trace anywhere inside the payload never
/// panics — it errors.
#[test]
fn truncation_is_an_error_not_a_panic() {
    run_cases("truncation_is_an_error_not_a_panic", 128, |rng| {
        let events = rng.vec_of(1, 50, arb_event);
        let cut = rng.usize_in(0, 64);
        let trace: Trace = events.into_iter().collect();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("vec write");
        let cut = cut.min(buf.len().saturating_sub(1));
        let truncated = &buf[..buf.len() - 1 - cut];
        // Either a clean error, or (if the cut removed whole trailing
        // events but the header count disagrees) still an error.
        assert!(Trace::read_from(&mut &truncated[..]).is_err());
    });
}

/// Recording a kernel and replaying the trace through a platform gives the
/// identical cycle count as running the kernel directly.
#[test]
fn trace_replay_reproduces_direct_timing() {
    for org in [
        DCacheOrganization::NvmDropIn,
        DCacheOrganization::nvm_vwb_default(),
    ] {
        let kernel = PolyBench::Atax.kernel(ProblemSize::Mini);
        let direct = Platform::new(org)
            .expect("canonical configuration")
            .run(|e: &mut dyn Engine| kernel.run(e, Transformations::all()))
            .cycles();

        let mut rec = TraceRecorder::new();
        kernel.run(&mut rec, Transformations::all());
        let trace = rec.into_trace();
        let replayed = Platform::new(org)
            .expect("canonical configuration")
            .run(|e: &mut dyn Engine| trace.replay(e))
            .cycles();

        assert_eq!(direct, replayed, "{}", org.name());
    }
}

/// The empty trace is a fixed point: it round-trips through the binary
/// format and replays as a no-op into any engine.
#[test]
fn empty_trace_roundtrips_and_replays_as_noop() {
    let trace = Trace::default();
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("vec write");
    let back = Trace::read_from(&mut buf.as_slice()).expect("read back");
    assert_eq!(trace, back);
    assert!(back.is_empty());

    let mut rec = TraceRecorder::new();
    trace.replay(&mut rec);
    assert!(rec.into_trace().is_empty());

    // An empty trace replayed through a platform costs nothing but the
    // fixed pipeline drain.
    let empty_cycles = Platform::new(DCacheOrganization::SramBaseline)
        .expect("canonical configuration")
        .run_trace(&trace)
        .cycles();
    let idle_cycles = Platform::new(DCacheOrganization::SramBaseline)
        .expect("canonical configuration")
        .run(|_: &mut dyn Engine| {})
        .cycles();
    assert_eq!(empty_cycles, idle_cycles);
}

/// Maximum-width addresses (all 64 bits set) survive the varint encoding
/// bit-exactly alongside ordinary events.
#[test]
fn max_width_addresses_roundtrip() {
    run_cases("max_width_addresses_roundtrip", 64, |rng| {
        let mut events = rng.vec_of(0, 50, arb_event);
        events.push(TraceEvent::Load {
            addr: Addr(u64::MAX),
            bytes: 64,
        });
        events.push(TraceEvent::Store {
            addr: Addr(u64::MAX),
            bytes: 1,
        });
        events.push(TraceEvent::Prefetch {
            addr: Addr(u64::MAX),
        });
        events.push(TraceEvent::Compute { ops: u32::MAX });
        let trace: Trace = events.into_iter().collect();
        let mut buf = Vec::new();
        trace.write_to(&mut buf).expect("vec write");
        let back = Trace::read_from(&mut buf.as_slice()).expect("read back");
        assert_eq!(trace, back);
    });
}

/// The monomorphic chunked replay (`replay_into` via `Platform::run_trace`)
/// and the `dyn Engine` path time out identically on `trace` under `org`.
fn assert_replays_agree(org: DCacheOrganization, trace: &Trace) {
    let platform = Platform::new(org).expect("canonical configuration");
    let via_dyn = platform.run(|e: &mut dyn Engine| trace.replay(e));
    assert_eq!(via_dyn, platform.run_trace(trace), "{}", org.name());
}

/// Every catalog organization with its DL1's `(line_bytes, sets, banks)`.
fn catalog_dl1_geometries() -> Vec<(DCacheOrganization, u64, u64, u64)> {
    sttcache::catalog::catalog()
        .into_iter()
        .map(|entry| {
            let dl1 = match entry.organization.dl1_technology() {
                DlOneTechnology::Sram => sram_dl1_config(),
                DlOneTechnology::SttMram => nvm_dl1_config(),
            }
            .expect("canonical DL1");
            (
                entry.organization,
                dl1.line_bytes() as u64,
                dl1.sets() as u64,
                dl1.banks() as u64,
            )
        })
        .collect()
}

/// The monomorphic chunked replay and the `dyn Engine` path time out
/// identically on arbitrary streams.
#[test]
fn monomorphic_replay_matches_dyn_replay_on_platforms() {
    run_cases("monomorphic_replay_matches_dyn_replay", 32, |rng| {
        let events = rng.vec_of(0, 200, arb_event);
        let trace: Trace = events.into_iter().collect();
        assert_replays_agree(DCacheOrganization::NvmDropIn, &trace);
    });
}

/// Maximum-width addresses (all 64 bits set) replay identically through
/// the monomorphic and `dyn Engine` paths on every catalog organization.
#[test]
fn compile_handles_max_width_addresses() {
    let mut rec = TraceRecorder::new();
    rec.load(Addr(u64::MAX), 64);
    rec.store(Addr(u64::MAX), 1);
    rec.prefetch(Addr(u64::MAX));
    rec.load(Addr(u64::MAX - 63), 64);
    let trace = rec.into_trace();
    for (org, ..) in catalog_dl1_geometries() {
        assert_replays_agree(org, &trace);
    }
}

/// Addresses planted exactly on set- and bank-boundary lines of each
/// catalog DL1 hit the extreme set and bank indices, and replay
/// identically through the monomorphic and `dyn Engine` paths.
#[test]
fn compile_covers_geometry_boundary_indices() {
    for (org, line, sets, banks) in catalog_dl1_geometries() {
        let mut rec = TraceRecorder::new();
        // First and last set, first and last bank, and the wrap-around
        // back to set 0 one stride later.
        for set in [0, sets - 1] {
            for bank_round in [0, banks - 1] {
                let line_index = bank_round * sets + set;
                rec.load(Addr(line_index * line), 8);
                rec.store(Addr(line_index * line + (line - 8)), 8);
            }
        }
        rec.load(Addr(sets * banks * line), 8);
        let trace = rec.into_trace();
        let seen: Vec<(usize, usize)> = trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Load { addr, .. } | TraceEvent::Store { addr, .. } => {
                    let l = addr.line(line as usize);
                    Some((l.set_index(sets as usize), l.bank(banks as usize)))
                }
                _ => None,
            })
            .collect();
        let (sets, banks) = (sets as usize, banks as usize);
        assert!(seen.iter().all(|&(s, b)| s < sets && b < banks));
        assert!(seen.iter().any(|&(s, _)| s == 0));
        assert!(seen.iter().any(|&(s, _)| s == sets - 1));
        assert!(seen.iter().any(|&(_, b)| b == 0));
        assert!(seen.iter().any(|&(_, b)| b == banks - 1));
        assert_replays_agree(org, &trace);
    }
}

/// Recording the same kernel twice yields bit-identical traces — the
/// workloads are deterministic, which is what makes a shared trace cache
/// sound in the first place.
#[test]
fn kernel_recording_is_deterministic() {
    for bench in [PolyBench::Gemm, PolyBench::Atax, PolyBench::Jacobi2d] {
        for t in [Transformations::none(), Transformations::all()] {
            let record = || {
                let mut rec = TraceRecorder::new();
                bench.kernel(ProblemSize::Mini).run(&mut rec, t);
                rec.into_trace()
            };
            assert_eq!(record(), record(), "{} with {t}", bench.name());
        }
    }
}

/// The binary format is compact: well under 16 bytes per event for
/// realistic kernels.
#[test]
fn trace_format_is_compact() {
    let mut rec = TraceRecorder::new();
    PolyBench::Gemm
        .kernel(ProblemSize::Mini)
        .run(&mut rec, Transformations::none());
    let trace = rec.into_trace();
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("vec write");
    let per_event = buf.len() as f64 / trace.len() as f64;
    assert!(per_event < 16.0, "{per_event:.2} bytes/event");
}
