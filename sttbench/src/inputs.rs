//! The benchmark's inputs: recorded traces and the two-core mixes built
//! from them.
//!
//! Everything here is generated from the workload seed and nothing else:
//! the affine sets are fixed PolyBench kernels (the seed does not touch
//! them), the chase set is built from a variant the seed selects.

use crate::spans::Tracer;
use sttcache_cpu::{Trace, TraceRecorder};
use sttcache_workloads::{
    GcMark, HashProbe, Kernel, ListChase, PolyBench, ProblemSize, Transformations,
};

/// One recorded trace.
#[derive(Debug, Clone)]
pub struct Input {
    /// Stable label, used as the key of the reference digests.
    pub label: String,
    /// The recorded event stream.
    pub trace: Trace,
    /// Index of the untransformed trace of the same kernel (its own
    /// index when it is untransformed) — the SRAM reference its penalty
    /// is taken against.
    pub baseline: usize,
    /// Whether this trace carries the code transformations.
    pub transformed: bool,
}

/// A two-core mix: indices into [`Inputs::traces`].
#[derive(Debug, Clone)]
pub struct Mix {
    /// Stable label, used as the key of the reference digests.
    pub label: String,
    /// The trace each core replays.
    pub cores: [usize; 2],
}

/// A workload's traces and mixes.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Every trace; the first [`Inputs::singles`] are replayed
    /// single-core through every organization, the rest only feed mixes.
    pub traces: Vec<Input>,
    /// Number of single-core traces.
    pub singles: usize,
    /// The two-core mixes.
    pub mixes: Vec<Mix>,
}

impl Inputs {
    /// The single-core traces.
    pub fn single_traces(&self) -> &[Input] {
        &self.traces[..self.singles]
    }

    /// Events over the single-core traces.
    pub fn single_events(&self) -> u64 {
        self.single_traces()
            .iter()
            .map(|i| i.trace.len() as u64)
            .sum()
    }

    /// Events over both cores of mix `m`.
    pub fn mix_events(&self, m: &Mix) -> u64 {
        m.cores
            .iter()
            .map(|&c| self.traces[c].trace.len() as u64)
            .sum()
    }
}

/// The PolyBench kernels of the affine sets: VWB read-hit rates of
/// 45-96 % at 91-99.9 % DL1 hit rate.
pub const AFFINE_KERNELS: [PolyBench; 6] = [
    PolyBench::Gemm,
    PolyBench::TwoMm,
    PolyBench::Mvt,
    PolyBench::Jacobi2d,
    PolyBench::Fdtd2d,
    PolyBench::Seidel2d,
];

/// Number of distinct chase instance sets; the seed selects one.
pub const CHASE_VARIANTS: u64 = 64;

/// The chase variant a seed selects.
pub fn chase_variant(seed: u64) -> u64 {
    seed % CHASE_VARIANTS
}

/// Records one kernel run, spanned as `workloads.record`.
fn record(tracer: &mut Tracer, kernel: &dyn Kernel, t: Transformations) -> Trace {
    let id = tracer.begin("workloads.record", None);
    let mut rec = TraceRecorder::new();
    kernel.run(&mut rec, t);
    let mut trace = rec.into_trace();
    trace.shrink_to_fit();
    tracer.end(id, trace.len() as u64);
    trace
}

fn affine_trace(tracer: &mut Tracer, b: PolyBench, size: ProblemSize, all: bool) -> Trace {
    let t = if all {
        Transformations::all()
    } else {
        Transformations::none()
    };
    record(tracer, &*b.kernel(size), t)
}

/// The affine set at `size`: every [`AFFINE_KERNELS`] kernel untransformed
/// and with every transformation, plus one mix of two untransformed
/// kernels (gemm beside mvt) for the multi-core rung.
pub fn affine(tracer: &mut Tracer, size: ProblemSize) -> Inputs {
    let mut traces = Vec::new();
    for b in AFFINE_KERNELS {
        let baseline = traces.len();
        for all in [false, true] {
            traces.push(Input {
                label: format!("{}/{}", b.name(), if all { "all" } else { "none" }),
                trace: affine_trace(tracer, b, size, all),
                baseline,
                transformed: all,
            });
        }
    }
    let singles = traces.len();
    let gemm = label_index(&traces, "gemm/none");
    let mvt = label_index(&traces, "mvt/none");
    Inputs {
        traces,
        singles,
        mixes: vec![Mix {
            label: "gemm+mvt".into(),
            cores: [gemm, mvt],
        }],
    }
}

fn label_index(traces: &[Input], label: &str) -> usize {
    traces
        .iter()
        .position(|i| i.label == label)
        .expect("the affine set records this kernel")
}

/// SplitMix64 finaliser: spreads a small variant number over 64 bits.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nodes of the chase instances whose working set lies between the DL1
/// (64 KB) and the L2 (2 MB).
pub const MID_NODES: usize = 1 << 16;
/// Nodes of the chase instance whose working set exceeds the L2.
pub const BIG_NODES: usize = 1 << 19;

/// The chase set of one variant: three pointer-chasing instances whose
/// working sets sit between DL1 and L2, one beyond L2, and an affine
/// partner trace; mixes put a chase beside the affine trace and two
/// chases side by side.
pub fn chase(tracer: &mut Tracer, variant: u64) -> Inputs {
    let seed = |i: u64| mix64(variant * 8 + i);
    let none = Transformations::none();
    let mut traces = Vec::new();
    let mut push = |label: &str, trace: Trace| {
        let baseline = traces.len();
        traces.push(Input {
            label: label.into(),
            trace,
            baseline,
            transformed: false,
        });
    };
    let list = ListChase::new(MID_NODES, MID_NODES / 2, seed(0));
    push("list-chase-64k", record(tracer, &list, none));
    let hash = HashProbe::new(MID_NODES, MID_NODES / 4, MID_NODES / 2, seed(1));
    push("hash-probe-64k", record(tracer, &hash, none));
    let gc = GcMark::new(MID_NODES / 2, 32, seed(2));
    push("gc-mark-32k", record(tracer, &gc, none));
    let big = ListChase::new(BIG_NODES, MID_NODES, seed(3));
    push("list-chase-512k", record(tracer, &big, none));
    let singles = traces.len();
    let partner = affine_trace(tracer, PolyBench::Mvt, ProblemSize::Small, false);
    traces.push(Input {
        label: "mvt/none".into(),
        trace: partner,
        baseline: singles,
        transformed: false,
    });
    Inputs {
        traces,
        singles,
        mixes: vec![
            Mix {
                label: "list-chase-64k+mvt".into(),
                cores: [0, singles],
            },
            Mix {
                label: "list-chase-64k+gc-mark-32k".into(),
                cores: [0, 2],
            },
        ],
    }
}
