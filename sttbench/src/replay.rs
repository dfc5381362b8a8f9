//! The in-process replay workloads and the per-layer cost ladder.
//!
//! A [`Bench`] holds one workload's inputs and the validated platforms
//! that replay them. [`Bench::pass`] is the untraced unit of work: every
//! single-core trace through every organization with
//! `Platform::run_trace` (and, on `chase-shared-l2`, every two-core mix
//! at 1 and 8 shared-L2 banks). [`Bench::ladder`] is the traced run's
//! unit: the same calls plus the lower rungs (trace decode alone, the
//! core over bare memory), cold platform builds and the isolated runs
//! the multi-core rung is measured against, each inside a span.

use crate::digest::{multi_digest, run_digest, Checks, Reference};
use crate::inputs::Inputs;
use crate::spans::Tracer;
use std::collections::HashMap;
use std::hint::black_box;
use sttcache::{
    by_cli, penalty_pct, MultiPlatform, MultiPlatformConfig, MultiRunResult, Platform,
    PlatformConfig, RunResult,
};
use sttcache_bench::multicore::shared_l2_config;
use sttcache_cpu::{Core, CoreConfig, CountingEngine, MemPort};
use sttcache_mem::{CacheStats, MainMemory};

/// The catalog organizations every single-core trace replays through,
/// pinned by CLI key so a catalog addition does not change the work.
pub const ORG_KEYS: [&str; 6] = ["sram", "nvm", "vwb", "l0", "emshr", "hybrid"];
/// The span (and metric stem) of each organization's rung.
pub const ORG_RUNGS: [&str; 6] = [
    "mem.cache.sram",
    "mem.cache.nvm",
    "core.stage.vwb",
    "core.stage.l0",
    "core.stage.emshr",
    "core.stage.hybrid",
];
const SRAM: usize = 0;
const NVM: usize = 1;
const VWB: usize = 2;

/// Shared-L2 bank counts the two-core mixes run at.
pub const BANKS: [usize; 2] = [1, 8];
const MULTI_RUNGS: [&str; 2] = ["core.multi.b1", "core.multi.b8"];
const ISOLATED_RUNGS: [&str; 2] = ["core.multi.isolated.b1", "core.multi.isolated.b8"];
/// The private organization of both cores of every mix (the proposal).
pub const MULTI_ORG: &str = "vwb";

/// Cold front-end builds per organization per ladder pass.
pub const BUILDS_PER_ORG: u64 = 4;

/// Main-memory latency of the bare core rung (the platform default).
const MEMORY_LATENCY: u64 = 100;

/// The paper's average penalties (drop-in, VWB with transformations),
/// in percent.
pub const PAPER_PENALTIES: (f64, f64) = (54.0, 8.0);

/// One workload's inputs plus its validated platforms and expectations.
pub struct Bench {
    /// The traces and mixes.
    pub inputs: Inputs,
    /// Whether the untraced pass runs the two-core mixes too.
    pub pass_runs_mixes: bool,
    platforms: Vec<Platform>,
    multis: Vec<MultiPlatform>,
    isolated: Vec<Platform>,
    expect_single: Vec<Vec<Option<u64>>>,
    expect_mix: Vec<Vec<Option<u64>>>,
    expect_isolated: Vec<Vec<[Option<u64>; 2]>>,
}

/// Label of a single-core result in the reference.
pub fn single_label(trace: &str, org: usize) -> String {
    format!("{trace}/{}", ORG_KEYS[org])
}

/// Label of a two-core result in the reference.
pub fn mix_label(mix: &str, bank: usize) -> String {
    format!("{mix}/b{}", BANKS[bank])
}

/// Label of an isolated run of one core of a mix in the reference.
pub fn isolated_label(trace: &str, bank: usize) -> String {
    format!("isolated:{trace}/b{}", BANKS[bank])
}

fn org_config(key: &str) -> Result<PlatformConfig, String> {
    by_cli(key)
        .map(|e| PlatformConfig::new(e.organization))
        .ok_or_else(|| format!("organization '{key}' is not in the catalog"))
}

impl Bench {
    /// Validates every platform the inputs replay through and looks up
    /// the expected digest of every result under `variant`.
    pub fn new(
        inputs: Inputs,
        pass_runs_mixes: bool,
        reference: &Reference,
        variant: &str,
    ) -> Result<Self, String> {
        let platforms = ORG_KEYS
            .iter()
            .map(|k| Platform::with_config(org_config(k)?).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let multi_org = org_config(MULTI_ORG)?.organization;
        let mut multis = Vec::new();
        let mut isolated = Vec::new();
        for banks in BANKS {
            let mut cfg = MultiPlatformConfig::homogeneous(multi_org, 2);
            cfg.l2_override = Some(shared_l2_config(banks));
            let mp = MultiPlatform::new(cfg).map_err(|e| e.to_string())?;
            // Both cores run the same organization, so one isolated
            // platform serves either core.
            isolated.push(Platform::with_config(mp.isolated_config(0)).map_err(|e| e.to_string())?);
            multis.push(mp);
        }
        let expect_single = inputs
            .single_traces()
            .iter()
            .map(|t| {
                (0..ORG_KEYS.len())
                    .map(|o| reference.get(variant, &single_label(&t.label, o)))
                    .collect()
            })
            .collect();
        let expect_mix = inputs
            .mixes
            .iter()
            .map(|m| {
                (0..BANKS.len())
                    .map(|b| reference.get(variant, &mix_label(&m.label, b)))
                    .collect()
            })
            .collect();
        let expect_isolated = inputs
            .mixes
            .iter()
            .map(|m| {
                (0..BANKS.len())
                    .map(|b| {
                        m.cores.map(|c| {
                            reference.get(variant, &isolated_label(&inputs.traces[c].label, b))
                        })
                    })
                    .collect()
            })
            .collect();
        Ok(Bench {
            inputs,
            pass_runs_mixes,
            platforms,
            multis,
            isolated,
            expect_single,
            expect_mix,
            expect_isolated,
        })
    }

    /// Checks single-core result (trace `i`, organization `o`).
    pub fn check_single(&self, i: usize, o: usize, r: &RunResult, checks: &mut Checks) {
        let ok = self.expect_single[i][o] == Some(run_digest(r));
        checks.record_with(ok, || single_label(&self.inputs.traces[i].label, o));
    }

    fn check_mix(&self, m: usize, b: usize, r: &MultiRunResult, checks: &mut Checks) {
        let ok = self.expect_mix[m][b] == Some(multi_digest(r));
        checks.record_with(ok, || mix_label(&self.inputs.mixes[m].label, b));
    }

    fn check_isolated(&self, m: usize, c: usize, b: usize, r: &RunResult, checks: &mut Checks) {
        let ok = self.expect_isolated[m][b][c] == Some(run_digest(r));
        let trace = self.inputs.mixes[m].cores[c];
        checks.record_with(ok, || isolated_label(&self.inputs.traces[trace].label, b));
    }

    /// Trace events one [`Bench::pass`] drives through simulated cores.
    pub fn pass_events(&self) -> u64 {
        self.units().iter().map(|&u| self.unit_events(u)).sum()
    }

    /// The units of one pass, in order: every single-core trace through
    /// every organization, then (when the pass runs them) every mix at
    /// every bank count.
    pub fn units(&self) -> Vec<Unit> {
        let mut units = Vec::new();
        for trace in 0..self.inputs.singles {
            for org in 0..ORG_KEYS.len() {
                units.push(Unit::Single { trace, org });
            }
        }
        if self.pass_runs_mixes {
            for mix in 0..self.inputs.mixes.len() {
                for bank in 0..BANKS.len() {
                    units.push(Unit::Mix { mix, bank });
                }
            }
        }
        units
    }

    /// Trace events unit `u` drives through simulated cores.
    pub fn unit_events(&self, u: Unit) -> u64 {
        match u {
            Unit::Single { trace, .. } => self.inputs.traces[trace].trace.len() as u64,
            Unit::Mix { mix, .. } => self.inputs.mix_events(&self.inputs.mixes[mix]),
        }
    }

    /// Runs and checks one unit; returns its simulated cycles (summed
    /// over the cores of a mix).
    pub fn run_unit(&self, u: Unit, checks: &mut Checks) -> u64 {
        match u {
            Unit::Single { trace, org } => {
                let r = self.platforms[org].run_trace(&self.inputs.traces[trace].trace);
                self.check_single(trace, org, &r, checks);
                r.cycles()
            }
            Unit::Mix { mix, bank } => {
                let traces = self.inputs.mixes[mix]
                    .cores
                    .map(|c| &self.inputs.traces[c].trace);
                let r = self.multis[bank].run_traces(&traces);
                self.check_mix(mix, bank, &r, checks);
                r.total_cycles()
            }
        }
    }

    /// One untraced pass; returns the cycles of every single-core result
    /// (`[trace][organization]`), every result checked.
    pub fn pass(&self, checks: &mut Checks) -> Vec<[u64; 6]> {
        let mut cycles = vec![[0u64; 6]; self.inputs.singles];
        for u in self.units() {
            let c = self.run_unit(u, checks);
            if let Unit::Single { trace, org } = u {
                cycles[trace][org] = c;
            }
        }
        cycles
    }

    /// Mean |simulated - paper| of the drop-in and the VWB average
    /// penalties, in percentage points. The VWB average is taken over
    /// the transformed traces when the set has any, each against the
    /// SRAM run of its untransformed baseline.
    pub fn penalty_gap_pp(&self, cycles: &[[u64; 6]]) -> f64 {
        let singles = self.inputs.single_traces();
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let drop_in = mean(
            (0..singles.len())
                .filter(|&i| !singles[i].transformed)
                .map(|i| penalty_pct(cycles[i][SRAM], cycles[i][NVM]))
                .collect(),
        );
        let any_transformed = singles.iter().any(|s| s.transformed);
        let vwb = mean(
            (0..singles.len())
                .filter(|&i| singles[i].transformed == any_transformed)
                .map(|i| penalty_pct(cycles[singles[i].baseline][SRAM], cycles[i][VWB]))
                .collect(),
        );
        ((drop_in - PAPER_PENALTIES.0).abs() + (vwb - PAPER_PENALTIES.1).abs()) / 2.0
    }

    /// Every result the ladder produces, labelled, computed without
    /// spans — the source of the stored reference.
    pub fn digests(&self) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        for t in self.inputs.single_traces() {
            for (o, p) in self.platforms.iter().enumerate() {
                out.push((
                    single_label(&t.label, o),
                    run_digest(&p.run_trace(&t.trace)),
                ));
            }
        }
        for mix in &self.inputs.mixes {
            let traces = mix.cores.map(|c| &self.inputs.traces[c].trace);
            for (b, mp) in self.multis.iter().enumerate() {
                out.push((
                    mix_label(&mix.label, b),
                    multi_digest(&mp.run_traces(&traces)),
                ));
                for (c, t) in traces.iter().enumerate() {
                    let label = isolated_label(&self.inputs.traces[mix.cores[c]].label, b);
                    if !out.iter().any(|(l, _)| *l == label) {
                        out.push((label, run_digest(&self.isolated[b].run_trace(t))));
                    }
                }
            }
        }
        out
    }

    /// One traced ladder pass: every rung inside a span under one
    /// `ladder` span, every result checked.
    pub fn ladder(&self, tracer: &mut Tracer, checks: &mut Checks) -> LadderPass {
        let root = tracer.begin("ladder", None);
        let singles = self.inputs.single_traces();
        for s in singles {
            let n = s.trace.len() as u64;
            let counted = tracer.time("cpu.trace", Some(root), n, || {
                let mut e = CountingEngine::new();
                s.trace.replay_into(&mut e);
                e
            });
            black_box(counted);
        }
        for s in singles {
            let n = s.trace.len() as u64;
            let report = tracer.time("cpu.core_engine", Some(root), n, || {
                let port = MemPort::new(MainMemory::new(MEMORY_LATENCY));
                let mut core = Core::new(CoreConfig::default(), port);
                s.trace.replay_into(&mut core);
                core.report()
            });
            black_box(report);
        }
        let mut counters = Counters::default();
        for (i, s) in singles.iter().enumerate() {
            let n = s.trace.len() as u64;
            for (o, p) in self.platforms.iter().enumerate() {
                let r = tracer.time(ORG_RUNGS[o], Some(root), n, || p.run_trace(&s.trace));
                self.check_single(i, o, &r, checks);
                counters.add_single(o, &r);
            }
        }
        for p in &self.platforms {
            tracer.time("core.platform.build", Some(root), BUILDS_PER_ORG, || {
                for _ in 0..BUILDS_PER_ORG {
                    black_box(p.front_end().expect("the platform was validated"));
                }
            });
        }
        for (m, mix) in self.inputs.mixes.iter().enumerate() {
            let traces = mix.cores.map(|c| &self.inputs.traces[c].trace);
            let n = self.inputs.mix_events(mix);
            for (b, mp) in self.multis.iter().enumerate() {
                let r = tracer.time(MULTI_RUNGS[b], Some(root), n, || mp.run_traces(&traces));
                self.check_mix(m, b, &r, checks);
                counters.add_multi(&r);
                for (c, t) in traces.iter().enumerate() {
                    let len = t.len() as u64;
                    let r = tracer.time(ISOLATED_RUNGS[b], Some(root), len, || {
                        self.isolated[b].run_trace(t)
                    });
                    self.check_isolated(m, c, b, &r, checks);
                }
            }
        }
        tracer.end(root, 0);
        let calls = tracer.spans()[root + 1..]
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| Call {
                name: s.name,
                ns: s.dur_ns,
                events: s.events,
                allocs: s.allocs,
            })
            .collect();
        LadderPass { calls, counters }
    }
}

/// One unit of an untraced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Single-core trace `trace` through organization `org`.
    Single {
        /// Index into [`Inputs::traces`].
        trace: usize,
        /// Index into [`ORG_KEYS`].
        org: usize,
    },
    /// Two-core mix `mix` at bank count `BANKS[bank]`.
    Mix {
        /// Index into [`Inputs::mixes`].
        mix: usize,
        /// Index into [`BANKS`].
        bank: usize,
    },
}

/// Totals of one rung.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    /// Span time.
    pub ns: u64,
    /// Events driven (builds, for the build rung).
    pub events: u64,
    /// Allocations made.
    pub allocs: u64,
}

impl Rung {
    /// Nanoseconds per event.
    pub fn ns_per_event(&self) -> f64 {
        self.ns as f64 / self.events.max(1) as f64
    }

    /// Allocations per event.
    pub fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

/// Deterministic simulated counters of one ladder pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// DL1 statistics per organization, summed over the single traces.
    pub dl1: [CacheStats; 6],
    /// (reads, read hits) of each organization's outermost stage.
    pub stage_reads: [(u64, u64); 6],
    /// Shared-L2 statistics summed over every mix run.
    pub shared_l2: CacheStats,
    /// Main-memory statistics summed over every mix run.
    pub memory: CacheStats,
}

impl Counters {
    fn add_single(&mut self, o: usize, r: &RunResult) {
        self.dl1[o].merge(&r.dl1);
        if let Some(s) = r.buffers.first() {
            self.stage_reads[o].0 += s.stats.reads;
            self.stage_reads[o].1 += s.stats.read_hits;
        }
    }

    fn add_multi(&mut self, r: &MultiRunResult) {
        self.shared_l2.merge(&r.shared_l2);
        self.memory.merge(&r.memory);
    }
}

/// One call a ladder pass made, as its span recorded it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// The rung (span name).
    pub name: &'static str,
    /// Span time.
    pub ns: u64,
    /// Events driven (builds, for the build rung).
    pub events: u64,
    /// Allocations made.
    pub allocs: u64,
}

/// What one ladder pass measured: its calls in order, and the
/// deterministic counters.
#[derive(Debug, Clone)]
pub struct LadderPass {
    /// Every call, in the order it was made.
    pub calls: Vec<Call>,
    /// Deterministic counters.
    pub counters: Counters,
}

/// Rung totals over several ladder passes: each call's fastest time
/// (min-of-N over the passes), summed per rung.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Totals per rung (span name).
    pub rungs: HashMap<&'static str, Rung>,
    /// Deterministic counters.
    pub counters: Counters,
}

impl Ladder {
    /// Combines ladder passes of one bench.
    ///
    /// # Panics
    ///
    /// Panics if `passes` is empty or the passes made different calls.
    pub fn fastest(passes: &[&LadderPass]) -> Ladder {
        let first = passes[0];
        let mut rungs: HashMap<&'static str, Rung> = HashMap::new();
        for (k, call) in first.calls.iter().enumerate() {
            let ns = passes
                .iter()
                .map(|p| {
                    assert_eq!(p.calls[k].name, call.name, "ladder passes differ");
                    p.calls[k].ns
                })
                .min()
                .expect("at least one pass");
            let r = rungs.entry(call.name).or_default();
            r.ns += ns;
            r.events += call.events;
            r.allocs += call.allocs;
        }
        Ladder {
            rungs,
            counters: first.counters.clone(),
        }
    }

    /// Totals of the rung named `name` (zero if it did not run).
    pub fn rung(&self, name: &str) -> Rung {
        self.rungs.get(name).copied().unwrap_or_default()
    }

    /// Self time of each time rung, in ns per event, keyed by metric
    /// name: each rung minus the rung below it.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let ns = |n: &str| self.rung(n).ns_per_event();
        let decode = ns("cpu.trace");
        let core = ns("cpu.core_engine");
        let nvm = ns("mem.cache.nvm");
        let multi = |b: usize| {
            let co = self.rung(MULTI_RUNGS[b]);
            let alone = self.rung(ISOLATED_RUNGS[b]);
            (co.ns as f64 - alone.ns as f64) / co.events.max(1) as f64
        };
        vec![
            ("cpu.trace.decode_ns_per_event", decode),
            ("cpu.core_engine.ns_per_event", core - decode),
            ("mem.cache.sram_ns_per_event", ns("mem.cache.sram") - core),
            ("mem.cache.nvm_ns_per_event", nvm - core),
            ("core.stage.vwb_ns_per_event", ns("core.stage.vwb") - nvm),
            ("core.stage.l0_ns_per_event", ns("core.stage.l0") - nvm),
            (
                "core.stage.emshr_ns_per_event",
                ns("core.stage.emshr") - nvm,
            ),
            (
                "core.stage.hybrid_ns_per_event",
                ns("core.stage.hybrid") - nvm,
            ),
            ("core.multi.b1_ns_per_event", multi(0)),
            ("core.multi.b8_ns_per_event", multi(1)),
            ("core.platform.build_us", ns("core.platform.build") / 1e3),
        ]
    }

    /// Span time of the calls an untraced [`Bench::pass`] also makes.
    pub fn pass_equivalent_ns(&self, with_mixes: bool) -> u64 {
        let mut ns: u64 = ORG_RUNGS.iter().map(|r| self.rung(r).ns).sum();
        if with_mixes {
            ns += MULTI_RUNGS.iter().map(|r| self.rung(r).ns).sum::<u64>();
        }
        ns
    }

    /// The deterministic per-layer counts: allocations per event of each
    /// rung and per build, and the simulated DL1/stage/shared counters.
    pub fn counts(&self) -> Vec<(&'static str, f64)> {
        let allocs = |n: &str| self.rung(n).allocs_per_event();
        let multi_allocs = {
            let (a, e) = MULTI_RUNGS.iter().fold((0, 0), |(a, e), r| {
                let r = self.rung(r);
                (a + r.allocs, e + r.events)
            });
            a as f64 / e.max(1) as f64
        };
        let c = &self.counters;
        let hit_rate = |s: &CacheStats| {
            (s.read_hits + s.write_hits) as f64 / (s.reads + s.writes).max(1) as f64
        };
        let stage = |o: usize| c.stage_reads[o].1 as f64 / c.stage_reads[o].0.max(1) as f64;
        vec![
            ("cpu.trace.allocs_per_event", allocs("cpu.trace")),
            (
                "cpu.core_engine.allocs_per_event",
                allocs("cpu.core_engine"),
            ),
            ("mem.cache.sram_allocs_per_event", allocs("mem.cache.sram")),
            ("mem.cache.nvm_allocs_per_event", allocs("mem.cache.nvm")),
            ("core.stage.vwb_allocs_per_event", allocs("core.stage.vwb")),
            ("core.stage.l0_allocs_per_event", allocs("core.stage.l0")),
            (
                "core.stage.emshr_allocs_per_event",
                allocs("core.stage.emshr"),
            ),
            (
                "core.stage.hybrid_allocs_per_event",
                allocs("core.stage.hybrid"),
            ),
            (
                "core.platform.allocs_per_build",
                allocs("core.platform.build"),
            ),
            ("core.multi.allocs_per_event", multi_allocs),
            ("mem.cache.sram_hit_rate", hit_rate(&c.dl1[SRAM])),
            ("mem.cache.nvm_hit_rate", hit_rate(&c.dl1[NVM])),
            ("mem.cache.sram_fills", c.dl1[SRAM].fills as f64),
            ("mem.cache.nvm_fills", c.dl1[NVM].fills as f64),
            ("mem.cache.sram_writebacks", c.dl1[SRAM].writebacks as f64),
            ("mem.cache.nvm_writebacks", c.dl1[NVM].writebacks as f64),
            ("mem.cache.sram_mshr_merges", c.dl1[SRAM].mshr_merges as f64),
            ("mem.cache.nvm_mshr_merges", c.dl1[NVM].mshr_merges as f64),
            (
                "mem.cache.sram_bank_conflict_cycles",
                c.dl1[SRAM].bank_conflict_cycles as f64,
            ),
            (
                "mem.cache.nvm_bank_conflict_cycles",
                c.dl1[NVM].bank_conflict_cycles as f64,
            ),
            ("core.stage.vwb_read_hit_rate", stage(2)),
            ("core.stage.l0_read_hit_rate", stage(3)),
            ("core.stage.emshr_read_hit_rate", stage(4)),
            ("core.stage.hybrid_read_hit_rate", stage(5)),
            (
                "mem.shared.l2_bank_conflict_cycles",
                c.shared_l2.bank_conflict_cycles as f64,
            ),
            ("mem.shared.l2_reads", c.shared_l2.reads as f64),
            ("mem.memory.reads", c.memory.reads as f64),
        ]
    }
}
