//! One benchmark run: set-up, warm-up, the timed phase and the metrics.
//!
//! A pass is split into units: one replay (a trace through one
//! organization, or a mix at one bank count) or one artifact of the
//! `figures all` job. Every unit is timed on every pass. A time metric is
//! the sum over units of each unit's fastest sample (min-of-N), after
//! dropping samples the host descheduled. On a shared guest whose speed
//! drifts by tens of percent within seconds, the per-unit minimum is what
//! repeats between runs; the sum of per-unit medians is printed beside it.
//! The `figures all` job's CPU time is taken from jobs confined to one
//! CPU in turn, so that it too is sampled on every CPU.

use crate::digest::{Checks, Reference};
use crate::inputs::{self, chase_variant, CHASE_VARIANTS};
use crate::job::{self, JobSample, FIGURE_WORKERS};
use crate::metrics::Values;
use crate::replay::{Bench, Ladder, LadderPass, Unit, ORG_KEYS};
use crate::spans::Tracer;
use crate::{median, sys, Workload};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sttcache::{by_cli, LaneMode, Platform};
use sttcache_bench::{figures, trace_cache};
use sttcache_workloads::ProblemSize;

/// Reference digests of the `affine-replay` results.
pub const AFFINE_REFERENCE: &str = include_str!("../reference/affine-replay.txt");
/// Reference digests of the `chase-shared-l2` results, per variant.
pub const CHASE_REFERENCE: &str = include_str!("../reference/chase-shared-l2.txt");
/// Reference digests of the Mini-size ladder the traced
/// `paper-figures` run measures.
pub const FIGURES_LADDER_REFERENCE: &str = include_str!("../reference/paper-figures.txt");

/// Passes run at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// Set-ups per replay run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Unconfined `figures all` jobs per job confined to one CPU. The
/// confined jobs' CPU time varies less between jobs than the unconfined
/// jobs' wall time, so it needs fewer samples.
pub const WALL_JOBS_PER_PASS: usize = 2;
/// A sample is rejected as descheduled when its run-queue wait exceeds
/// this share of its wall time.
pub const REJECT_SHARE: f64 = 0.05;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub traced: bool,
    /// Where spans and the figures output are written.
    pub out_dir: PathBuf,
    /// This binary, re-executed for `paper-figures` jobs.
    pub exe: PathBuf,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every checked result.
    pub checks: Checks,
    /// The metrics.
    pub values: Values,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

/// Host cost of one sample.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Wall time.
    pub wall_ns: u64,
    /// Process CPU time (user + sys).
    pub cpu_ns: u64,
    /// Time the measuring thread (the job's main thread, for a
    /// `paper-figures` job) waited on the run queue.
    pub delay_ns: u64,
}

impl Sample {
    fn descheduled(&self) -> bool {
        self.delay_ns as f64 > REJECT_SHARE * self.wall_ns as f64
    }
}

/// Runs `f` on this thread and measures it.
fn measure<R>(f: impl FnOnce() -> R) -> io::Result<(R, Sample)> {
    let delay0 = sys::thread_run_delay_ns()?;
    let cpu0 = sys::process_cpu_ns()?;
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = sys::process_cpu_ns()? - cpu0;
    let delay_ns = sys::thread_run_delay_ns()? - delay0;
    Ok((
        out,
        Sample {
            wall_ns,
            cpu_ns,
            delay_ns,
        },
    ))
}

/// Every sample of every unit of a pass, over the passes of a run.
#[derive(Debug)]
struct UnitTimes {
    /// `(sample, descheduled)` per unit.
    units: Vec<Vec<(Sample, bool)>>,
}

impl UnitTimes {
    fn new(units: usize) -> Self {
        UnitTimes {
            units: vec![Vec::new(); units],
        }
    }

    fn push(&mut self, unit: usize, s: Sample, descheduled: bool) {
        self.units[unit].push((s, descheduled));
    }

    /// The samples of unit `u` that count: the kept ones, or all of them
    /// when the host descheduled every one.
    fn counted(&self, u: usize) -> impl Iterator<Item = &Sample> {
        let all = &self.units[u];
        let any_kept = all.iter().any(|(_, d)| !d);
        all.iter()
            .filter(move |(_, d)| !d || !any_kept)
            .map(|(s, _)| s)
    }

    /// Sum over units of each unit's fastest counted sample of `f`.
    fn min_sum(&self, f: impl Fn(&Sample) -> u64) -> u64 {
        (0..self.units.len())
            .map(|u| self.counted(u).map(&f).min().unwrap_or(0))
            .sum()
    }

    /// Sum over units of each unit's median counted sample of `f`.
    fn median_sum(&self, f: impl Fn(&Sample) -> u64) -> f64 {
        (0..self.units.len())
            .map(|u| median(self.counted(u).map(|s| f(s) as f64).collect()))
            .sum()
    }

    fn passes(&self) -> usize {
        self.units.first().map_or(0, Vec::len)
    }

    fn rejected(&self) -> usize {
        self.units.iter().flatten().filter(|(_, d)| *d).count()
    }

    fn note(&self, what: &str) -> String {
        format!(
            "{what}: {} passes x {} units, {} unit samples rejected as descheduled; \
             pass time: min-of-N {:.4} s, median {:.4} s; pass CPU time: min-of-N {:.4} s, \
             median {:.4} s",
            self.passes(),
            self.units.len(),
            self.rejected(),
            secs(self.min_sum(|s| s.wall_ns)),
            self.median_sum(|s| s.wall_ns) / 1e9,
            secs(self.min_sum(|s| s.cpu_ns)),
            self.median_sum(|s| s.cpu_ns) / 1e9,
        )
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Moves the measuring thread to the next allowed CPU on every pass,
/// round-robin, so each unit is sampled on every CPU. On a shared guest
/// one vCPU can run far slower than the other for minutes; min-of-N then
/// keeps the faster one instead of whichever CPU the thread sat on.
struct Rotation {
    cpus: Vec<usize>,
    next: usize,
}

impl Rotation {
    fn new() -> io::Result<Self> {
        Ok(Rotation {
            cpus: sys::allowed_cpus()?,
            next: 0,
        })
    }

    fn advance(&mut self) -> io::Result<()> {
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        sys::pin_to(&[cpu])
    }

    /// Lets the thread (and the processes it spawns) use every CPU again.
    fn release(&self) -> io::Result<()> {
        sys::pin_to(&self.cpus)
    }
}

/// Repeats `step` until `seconds` have passed and it ran at least
/// [`MIN_PASSES`] times.
fn timed_loop(seconds: u64, mut step: impl FnMut() -> io::Result<()>) -> io::Result<()> {
    let start = Instant::now();
    let budget = Duration::from_secs(seconds);
    let mut n = 0;
    while n < MIN_PASSES || start.elapsed() < budget {
        step()?;
        n += 1;
    }
    Ok(())
}

/// One untraced pass of `bench`, each unit timed into `times`.
fn timed_pass(
    bench: &Bench,
    units: &[Unit],
    times: &mut UnitTimes,
    checks: &mut Checks,
) -> io::Result<()> {
    for (k, &u) in units.iter().enumerate() {
        let (_, s) = measure(|| bench.run_unit(u, checks))?;
        times.push(k, s, s.descheduled());
    }
    Ok(())
}

/// The replay lane each pinned organization resolves to, as `key=lane`.
pub fn lanes() -> String {
    ORG_KEYS
        .iter()
        .map(|k| {
            let lane = by_cli(k)
                .and_then(|e| Platform::new(e.organization).ok())
                .map_or("invalid", |p| p.replay_lane_kind(LaneMode::from_env()));
            format!("{k}={lane}")
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The reference digests of a workload's in-process results and the
/// variant its seed selects.
pub fn reference_for(workload: Workload, seed: u64) -> Result<(Reference, String), String> {
    Ok(match workload {
        Workload::PaperFigures => (Reference::parse(FIGURES_LADDER_REFERENCE)?, "-".into()),
        Workload::AffineReplay => (Reference::parse(AFFINE_REFERENCE)?, "-".into()),
        Workload::ChaseSharedL2 => (
            Reference::parse(CHASE_REFERENCE)?,
            chase_variant(seed).to_string(),
        ),
    })
}

/// Records a workload's inputs and validates its platforms — the set-up
/// `setup_s` times on the replay workloads.
pub fn build_bench(
    workload: Workload,
    seed: u64,
    reference: &Reference,
    variant: &str,
    tracer: &mut Tracer,
) -> Result<Bench, String> {
    match workload {
        Workload::PaperFigures => Bench::new(
            inputs::affine(tracer, ProblemSize::Mini),
            false,
            reference,
            variant,
        ),
        Workload::AffineReplay => Bench::new(
            inputs::affine(tracer, ProblemSize::Small),
            false,
            reference,
            variant,
        ),
        Workload::ChaseSharedL2 => Bench::new(
            inputs::chase(tracer, chase_variant(seed)),
            true,
            reference,
            variant,
        ),
    }
}

/// Runs one benchmark run.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut out = Outcome::default();
    out.notes.push(format!("lanes: {}", lanes()));
    match (opts.workload, opts.traced) {
        (Workload::PaperFigures, false) => figures_untraced(opts, &mut out),
        (Workload::PaperFigures, true) => figures_traced(opts, &mut out),
        (_, false) => replay_untraced(opts, &mut out),
        (_, true) => replay_traced(opts, &mut out),
    }
    .map_err(|e| e.to_string())?;
    Ok(out)
}

/// Set-up repeated [`SETUP_REPS`] times; returns the last bench, the
/// set-up times and the recording cost of each repetition.
fn setup_replay(
    opts: &Options,
    tracer: &mut Tracer,
) -> Result<(Bench, Vec<f64>, Vec<f64>), String> {
    let (reference, variant) = reference_for(opts.workload, opts.seed)?;
    let mut bench = None;
    let mut setup_s = Vec::new();
    let mut record_ns = Vec::new();
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so only one is ever resident.
        drop(bench.take());
        let first_span = tracer.spans().len();
        let t0 = Instant::now();
        let b = build_bench(opts.workload, opts.seed, &reference, &variant, tracer)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let (ns, events) = tracer.spans()[first_span..]
            .iter()
            .filter(|s| s.name == "workloads.record")
            .fold((0, 0), |(n, e), s| (n + s.dur_ns, e + s.events));
        record_ns.push(ns as f64 / events.max(1) as f64);
        bench = Some(b);
    }
    let bench = bench.expect("SETUP_REPS is at least one");
    Ok((bench, setup_s, record_ns))
}

fn replay_untraced(opts: &Options, out: &mut Outcome) -> io::Result<()> {
    let mut tracer = Tracer::new();
    let (bench, setup_s, _) = setup_replay(opts, &mut tracer).map_err(io::Error::other)?;
    let checks = &mut out.checks;
    let warm = bench.pass(checks);
    let units = bench.units();
    let mut times = UnitTimes::new(units.len());
    let mut rotation = Rotation::new()?;
    timed_loop(opts.seconds, || {
        rotation.advance()?;
        timed_pass(&bench, &units, &mut times, checks)
    })?;
    rotation.release()?;
    let wall = secs(times.min_sum(|s| s.wall_ns));
    let v = &mut out.values;
    v.set("wall_s", wall);
    v.set("cpu_s", secs(times.min_sum(|s| s.cpu_ns)));
    v.set("sim_events_per_s", bench.pass_events() as f64 / wall);
    v.set("peak_rss_mib", sys::peak_rss_kib()? as f64 / 1024.0);
    v.set("setup_s", median(setup_s));
    v.set("penalty_gap_pp", bench.penalty_gap_pp(&warm));
    out.notes.push("workers: 1".into());
    out.notes.push(times.note("replay"));
    Ok(())
}

/// Names of the `paper-figures` job's units: the job outside the
/// artifacts (start-up, exit), then each artifact.
fn job_unit_names() -> Vec<&'static str> {
    std::iter::once("rest")
        .chain(figures::artifacts().iter().map(|(name, _)| *name))
        .collect()
}

/// Records one job into `times`, one sample per unit, all rejected
/// together when the job's main thread was descheduled.
fn push_job(times: &mut UnitTimes, j: &JobSample) {
    let job = Sample {
        wall_ns: j.wall_ns,
        cpu_ns: j.stat("cpu_ns") as u64,
        delay_ns: j.stat("delay_ns") as u64,
    };
    let descheduled = job.descheduled();
    let mut rest = job;
    for (u, name) in job_unit_names().into_iter().enumerate().skip(1) {
        let s = Sample {
            wall_ns: j.stat(&format!("wall.{name}")) as u64,
            cpu_ns: j.stat(&format!("cpu.{name}")) as u64,
            delay_ns: 0,
        };
        rest.wall_ns = rest.wall_ns.saturating_sub(s.wall_ns);
        rest.cpu_ns = rest.cpu_ns.saturating_sub(s.cpu_ns);
        times.push(u, s, descheduled);
    }
    times.push(0, rest, descheduled);
}

/// Runs one job and records its outcome.
fn one_job(opts: &Options, times: &mut UnitTimes, checks: &mut Checks) -> io::Result<JobSample> {
    let j = job::run_job(&opts.exe, &opts.out_dir.join("figures-stdout.txt"))?;
    checks.record_with(j.stdout_ok, || "figures all stdout".into());
    push_job(times, &j);
    Ok(j)
}

fn figures_untraced(opts: &Options, out: &mut Outcome) -> io::Result<()> {
    let mut warm_times = UnitTimes::new(job_unit_names().len());
    let warm = one_job(opts, &mut warm_times, &mut out.checks)?;
    let gap = warm
        .penalty_gap_pp
        .ok_or_else(|| io::Error::other("figures output has no Fig. 5 average"))?;
    let mut times = UnitTimes::new(job_unit_names().len());
    let mut confined_times = UnitTimes::new(job_unit_names().len());
    let mut jobs = Vec::new();
    let mut rotation = Rotation::new()?;
    timed_loop(opts.seconds, || {
        // Jobs inherit the parent's CPU mask: unconfined jobs for the
        // wall time, then one confined to the next CPU for the CPU time.
        rotation.release()?;
        for _ in 0..WALL_JOBS_PER_PASS {
            jobs.push(one_job(opts, &mut times, &mut out.checks)?);
        }
        rotation.advance()?;
        one_job(opts, &mut confined_times, &mut out.checks)?;
        Ok(())
    })?;
    rotation.release()?;
    let wall = secs(times.min_sum(|s| s.wall_ns));
    let v = &mut out.values;
    v.set("wall_s", wall);
    v.set("cpu_s", secs(confined_times.min_sum(|s| s.cpu_ns)));
    v.set("sim_events_per_s", warm.stat("replay_events") / wall);
    v.set(
        "peak_rss_mib",
        median(jobs.iter().map(|j| j.stat("hwm_kib") / 1024.0).collect()),
    );
    v.set(
        "setup_s",
        median(jobs.iter().map(|j| secs(j.setup_ns)).collect()),
    );
    v.set("penalty_gap_pp", gap);
    out.notes.push(format!("workers: {}", warm.stat("workers")));
    out.notes.push(times.note("figures all"));
    out.notes
        .push(confined_times.note("figures all, one CPU per job"));
    Ok(())
}

/// Per-layer values every workload's traced run reports from its ladder:
/// self times of the fastest calls, and the deterministic counts.
fn ladder_values(v: &mut Values, bench: &Bench, ladder: &Ladder) {
    for (name, value) in ladder.self_times().into_iter().chain(ladder.counts()) {
        v.set(name, value);
    }
    let singles = bench.inputs.single_traces();
    let bytes: usize = singles.iter().map(|s| s.trace.heap_bytes()).sum();
    v.set(
        "cpu.trace.bytes_per_event",
        bytes as f64 / bench.inputs.single_events().max(1) as f64,
    );
}

/// Ladder passes measured over a traced run.
#[derive(Default)]
struct Ladders {
    passes: Vec<LadderPass>,
    samples: Vec<Sample>,
}

impl Ladders {
    fn run(&mut self, bench: &Bench, tracer: &mut Tracer, checks: &mut Checks) -> io::Result<()> {
        let (pass, s) = measure(|| bench.ladder(tracer, checks))?;
        self.passes.push(pass);
        self.samples.push(s);
        Ok(())
    }

    /// The fastest calls over the passes the host did not deschedule
    /// (over all passes when it descheduled every one).
    fn fastest(&self) -> Ladder {
        let kept: Vec<&LadderPass> = self
            .passes
            .iter()
            .zip(&self.samples)
            .filter(|(_, s)| !s.descheduled())
            .map(|(p, _)| p)
            .collect();
        if kept.is_empty() {
            Ladder::fastest(&self.passes.iter().collect::<Vec<_>>())
        } else {
            Ladder::fastest(&kept)
        }
    }

    fn rejected(&self) -> usize {
        self.samples.iter().filter(|s| s.descheduled()).count()
    }
}

/// The tracing overhead and sampling values shared by every traced run.
fn overhead_and_sampling(
    v: &mut Values,
    bench: &Bench,
    ladders: &Ladders,
    untraced: &UnitTimes,
    rejected_elsewhere: usize,
    delays_ms: Vec<f64>,
) {
    let traced_ns = ladders.fastest().pass_equivalent_ns(bench.pass_runs_mixes) as f64;
    let untraced_ns = untraced.min_sum(|s| s.wall_ns) as f64;
    v.set(
        "bench.tracing.overhead_pct",
        (traced_ns / untraced_ns - 1.0) * 100.0,
    );
    v.set(
        "bench.sampling.rejected_samples",
        (untraced.rejected() + ladders.rejected() + rejected_elsewhere) as f64,
    );
    v.set("bench.sampling.run_delay_ms", median(delays_ms));
}

fn write_spans(opts: &Options, tracer: &Tracer, out: &mut Outcome) -> io::Result<()> {
    let path = opts.out_dir.join(format!(
        "spans-{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, tracer.to_chrome_json())?;
    out.notes.push(format!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    ));
    Ok(())
}

fn replay_traced(opts: &Options, out: &mut Outcome) -> io::Result<()> {
    let mut tracer = Tracer::new();
    let (bench, _, record_ns) = setup_replay(opts, &mut tracer).map_err(io::Error::other)?;
    let checks = &mut out.checks;
    bench.pass(checks);
    let units = bench.units();
    let mut times = UnitTimes::new(units.len());
    let mut ladders = Ladders::default();
    let mut rotation = Rotation::new()?;
    timed_loop(opts.seconds, || {
        rotation.advance()?;
        timed_pass(&bench, &units, &mut times, checks)?;
        ladders.run(&bench, &mut tracer, checks)
    })?;
    rotation.release()?;
    let v = &mut out.values;
    ladder_values(v, &bench, &ladders.fastest());
    v.set("workloads.record_ns_per_event", median(record_ns));
    v.set("workloads.events", bench.pass_events() as f64);
    // The replay workloads bypass the sweep harness; its counters read
    // as the library reports them (zero).
    let stats = trace_cache::global_stats();
    let lookups = stats.hits + stats.misses;
    v.set(
        "bench.trace_cache.hit_rate",
        stats.hits as f64 / lookups.max(1) as f64,
    );
    v.set(
        "bench.trace_cache.resident_bytes",
        trace_cache::global_footprint().0 as f64,
    );
    v.set(
        "bench.trace_cache.memo_hits",
        trace_cache::result_memo_hits() as f64,
    );
    v.set(
        "bench.parallel.utilisation",
        times.min_sum(|s| s.cpu_ns) as f64 / times.min_sum(|s| s.wall_ns) as f64,
    );
    v.set("bench.parallel.workers", 1.0);
    for name in job_unit_names().into_iter().skip(2) {
        v.set(&format!("bench.experiments.{name}_s"), 0.0);
    }
    v.set("bench.profile.unattributed_s", 0.0);
    let delays = ladders
        .samples
        .iter()
        .map(|s| s.delay_ns as f64 / 1e6)
        .collect();
    overhead_and_sampling(v, &bench, &ladders, &times, 0, delays);
    out.notes.push("workers: 1".into());
    out.notes.push(times.note("replay"));
    out.notes.push(format!(
        "ladder passes: {} ({} rejected)",
        ladders.passes.len(),
        ladders.rejected()
    ));
    write_spans(opts, &tracer, out)
}

fn figures_traced(opts: &Options, out: &mut Outcome) -> io::Result<()> {
    let mut tracer = Tracer::new();
    let (reference, variant) = reference_for(opts.workload, opts.seed).map_err(io::Error::other)?;
    let bench = build_bench(opts.workload, opts.seed, &reference, &variant, &mut tracer)
        .map_err(io::Error::other)?;
    let job_units = job_unit_names();
    let mut job_times = UnitTimes::new(job_units.len());
    let warm = one_job(opts, &mut UnitTimes::new(job_units.len()), &mut out.checks)?;
    bench.pass(&mut out.checks);
    let units = bench.units();
    let mut times = UnitTimes::new(units.len());
    let mut ladders = Ladders::default();
    let mut jobs = Vec::new();
    let mut rotation = Rotation::new()?;
    timed_loop(opts.seconds, || {
        // Jobs inherit the parent's CPU mask: spawn them unpinned.
        rotation.release()?;
        let id = tracer.begin("bench.figures_job", None);
        let j = one_job(opts, &mut job_times, &mut out.checks)?;
        tracer.end(id, j.stat("replay_events") as u64);
        jobs.push(j);
        rotation.advance()?;
        timed_pass(&bench, &units, &mut times, &mut out.checks)?;
        ladders.run(&bench, &mut tracer, &mut out.checks)
    })?;
    rotation.release()?;
    let v = &mut out.values;
    ladder_values(v, &bench, &ladders.fastest());
    let job_median = |f: &dyn Fn(&JobSample) -> f64| median(jobs.iter().map(f).collect());
    v.set(
        "workloads.record_ns_per_event",
        job_median(&|j| j.stat("record_ns") / j.stat("record_events").max(1.0)),
    );
    v.set("workloads.events", warm.stat("replay_events"));
    v.set(
        "bench.trace_cache.hit_rate",
        job_median(&|j| {
            let (h, m) = (j.stat("cache_hits"), j.stat("cache_misses"));
            h / (h + m).max(1.0)
        }),
    );
    v.set(
        "bench.trace_cache.resident_bytes",
        job_median(&|j| j.stat("resident_bytes")),
    );
    v.set(
        "bench.trace_cache.memo_hits",
        job_median(&|j| j.stat("memo_hits")),
    );
    let workers = warm.stat("workers").max(1.0);
    v.set(
        "bench.parallel.utilisation",
        job_median(&|j| j.stat("cpu_ns") / (j.wall_ns as f64 * workers)),
    );
    v.set("bench.parallel.workers", workers);
    for (u, name) in job_units.iter().enumerate().skip(2) {
        let fastest = job_times.counted(u).map(|s| s.wall_ns).min().unwrap_or(0);
        v.set(&format!("bench.experiments.{name}_s"), secs(fastest));
    }
    v.set(
        "bench.profile.unattributed_s",
        job_median(&|j| (j.wall_ns as f64 * workers - j.stat("simulation_ns")) / 1e9),
    );
    let delays = jobs.iter().map(|j| j.stat("delay_ns") / 1e6).collect();
    overhead_and_sampling(v, &bench, &ladders, &times, job_times.rejected(), delays);
    out.notes.push(format!(
        "workers: {workers} (pinned {FIGURE_WORKERS}); jobs: {}; ladder passes: {}",
        jobs.len(),
        ladders.passes.len()
    ));
    out.notes.push(job_times.note("figures all"));
    write_spans(opts, &tracer, out)
}

/// Regenerates the stored reference digests under `dir`: every result
/// of the affine set, of every chase variant and of the Mini-size ladder.
pub fn write_reference(dir: &Path) -> Result<(), String> {
    let empty = Reference::default();
    let mut tracer = Tracer::new();
    let header = "# <variant> <label> <FNV-1a digest of the result's counters>\n";
    let render = |variant: &str, bench: &Bench, text: &mut String| {
        for (label, digest) in bench.digests() {
            text.push_str(&format!("{variant} {label} {digest:016x}\n"));
        }
    };
    for workload in [Workload::AffineReplay, Workload::PaperFigures] {
        let bench = build_bench(workload, 0, &empty, "-", &mut tracer)?;
        let mut text = String::from(header);
        render("-", &bench, &mut text);
        write_file(&dir.join(format!("{}.txt", workload.name())), &text)?;
    }
    let mut text = String::from(header);
    for variant in 0..CHASE_VARIANTS {
        let bench = build_bench(Workload::ChaseSharedL2, variant, &empty, "-", &mut tracer)?;
        render(&variant.to_string(), &bench, &mut text);
    }
    write_file(&dir.join("chase-shared-l2.txt"), &text)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
