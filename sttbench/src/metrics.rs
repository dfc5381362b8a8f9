//! The benchmark's metrics: names, units, direction, and — for every
//! per-layer metric — the end-to-end metric and workload it should move.
//!
//! `BENCHMARK.json` lists the same names; a self-test keeps the two in
//! step. An untraced run (`--trace 0`) prints exactly [`END_TO_END`], a
//! traced run (`--trace 1`) exactly [`PER_LAYER`].

use std::fmt::Write as _;

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Which workloads it applies to (end-to-end) or which end-to-end
    /// metric on which workload it should move (per-layer).
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

/// `failed_share` is not a metric: it is `failed / attempted` of the
/// result line, and is 0 on a correct run (metrics must never be 0).
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower", "all: wall time of one pass (one `figures all` job, one replay of the whole set), as the sum over its units of each unit's fastest kept sample"),
    m("cpu_s", "s", "lower", "all: user+sys CPU time of one pass, summed over units like wall_s (on paper-figures, of jobs confined to one CPU in turn)"),
    m("sim_events_per_s", "1/s", "higher", "all: trace events driven through a simulated core per host second (replay events of the job on paper-figures)"),
    m("peak_rss_mib", "MiB", "lower", "all: VmHWM of the process that ran the passes (median over jobs on paper-figures)"),
    m("setup_s", "s", "lower", "all: median set-up; process start-up on paper-figures, trace recording plus platform validation on the replay workloads"),
    m("penalty_gap_pp", "pp", "lower", "all: mean |simulated - paper| of the drop-in (54 %) and VWB+transforms (8 %) average penalties; from Fig. 5 on paper-figures, from the workload's own traces otherwise"),
];

const AFFINE: &str = "sim_events_per_s on affine-replay";
const CHASE: &str = "sim_events_per_s on chase-shared-l2";
const BOTH: &str = "sim_events_per_s on affine-replay (hit path) and chase-shared-l2 (miss path)";
const FIGURES: &str =
    "wall_s, cpu_s and peak_rss_mib on paper-figures only (0 on the replay workloads)";
const NOTHING: &str = "nothing: a model output that stays fixed unless the simulated model changes";

/// Per-layer metrics, printed by the traced run. Time rungs are self
/// times in ns per event (each rung minus the rung below it).
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    m("cpu.trace.decode_ns_per_event", "ns", "lower", "sim_events_per_s on affine-replay"),
    m("cpu.trace.bytes_per_event", "B", "lower", "sim_events_per_s on affine-replay and peak_rss_mib on paper-figures"),
    m("cpu.trace.allocs_per_event", "count", "lower", AFFINE),
    m("cpu.core_engine.ns_per_event", "ns", "lower", AFFINE),
    m("cpu.core_engine.allocs_per_event", "count", "lower", AFFINE),
    m("mem.cache.sram_ns_per_event", "ns", "lower", BOTH),
    m("mem.cache.nvm_ns_per_event", "ns", "lower", BOTH),
    m("mem.cache.sram_allocs_per_event", "count", "lower", BOTH),
    m("mem.cache.nvm_allocs_per_event", "count", "lower", BOTH),
    m("mem.cache.sram_hit_rate", "ratio", "higher", NOTHING),
    m("mem.cache.nvm_hit_rate", "ratio", "higher", NOTHING),
    m("mem.cache.sram_fills", "count", "lower", NOTHING),
    m("mem.cache.nvm_fills", "count", "lower", NOTHING),
    m("mem.cache.sram_writebacks", "count", "lower", NOTHING),
    m("mem.cache.nvm_writebacks", "count", "lower", NOTHING),
    m("mem.cache.sram_mshr_merges", "count", "lower", NOTHING),
    m("mem.cache.nvm_mshr_merges", "count", "lower", NOTHING),
    m("mem.cache.sram_bank_conflict_cycles", "cycles", "lower", NOTHING),
    m("mem.cache.nvm_bank_conflict_cycles", "cycles", "lower", NOTHING),
    m("core.stage.vwb_ns_per_event", "ns", "lower", "sim_events_per_s on affine-replay; chase-shared-l2 very little"),
    m("core.stage.l0_ns_per_event", "ns", "lower", "sim_events_per_s on affine-replay; chase-shared-l2 very little"),
    m("core.stage.emshr_ns_per_event", "ns", "lower", "sim_events_per_s on affine-replay; chase-shared-l2 very little"),
    m("core.stage.hybrid_ns_per_event", "ns", "lower", "sim_events_per_s on affine-replay; chase-shared-l2 very little"),
    m("core.stage.vwb_allocs_per_event", "count", "lower", AFFINE),
    m("core.stage.l0_allocs_per_event", "count", "lower", AFFINE),
    m("core.stage.emshr_allocs_per_event", "count", "lower", AFFINE),
    m("core.stage.hybrid_allocs_per_event", "count", "lower", AFFINE),
    m("core.stage.vwb_read_hit_rate", "ratio", "higher", NOTHING),
    m("core.stage.l0_read_hit_rate", "ratio", "higher", NOTHING),
    m("core.stage.emshr_read_hit_rate", "ratio", "higher", NOTHING),
    m("core.stage.hybrid_read_hit_rate", "ratio", "higher", NOTHING),
    m("core.platform.build_us", "us", "lower", "wall_s on paper-figures (~450 cold builds) and on the short chase-shared-l2 replays; not affine-replay"),
    m("core.platform.allocs_per_build", "count", "lower", "wall_s on paper-figures and chase-shared-l2; not affine-replay"),
    m("core.multi.b1_ns_per_event", "ns", "lower", CHASE),
    m("core.multi.b8_ns_per_event", "ns", "lower", CHASE),
    m("core.multi.allocs_per_event", "count", "lower", CHASE),
    m("mem.shared.l2_bank_conflict_cycles", "cycles", "lower", NOTHING),
    m("mem.shared.l2_reads", "count", "lower", NOTHING),
    m("mem.memory.reads", "count", "lower", NOTHING),
    m("workloads.record_ns_per_event", "ns", "lower", "wall_s on paper-figures; setup_s on affine-replay and chase-shared-l2"),
    m("workloads.events", "count", "higher", "nothing: the work of one pass, fixed by the inputs"),
    m("bench.trace_cache.hit_rate", "ratio", "higher", FIGURES),
    m("bench.trace_cache.resident_bytes", "B", "lower", FIGURES),
    m("bench.trace_cache.memo_hits", "count", "higher", FIGURES),
    m("bench.parallel.utilisation", "ratio", "higher", "wall_s on paper-figures (CPU time / (wall time x workers) of the unconfined job); 1 worker on the replay workloads"),
    m("bench.parallel.workers", "count", "higher", "nothing: the pinned worker count"),
    m("bench.experiments.fig1_s", "s", "lower", FIGURES),
    m("bench.experiments.fig3_s", "s", "lower", FIGURES),
    m("bench.experiments.fig4_s", "s", "lower", FIGURES),
    m("bench.experiments.fig5_s", "s", "lower", FIGURES),
    m("bench.experiments.fig6_s", "s", "lower", FIGURES),
    m("bench.experiments.fig7_s", "s", "lower", FIGURES),
    m("bench.experiments.fig8_s", "s", "lower", FIGURES),
    m("bench.experiments.fig9_s", "s", "lower", FIGURES),
    m("bench.experiments.ext_s", "s", "lower", FIGURES),
    m("bench.profile.unattributed_s", "s", "lower", FIGURES),
    m("bench.tracing.overhead_pct", "%", "lower", "nothing: traced minus untraced pass time, as a share of the untraced"),
    m("bench.sampling.rejected_samples", "count", "lower", "nothing: samples dropped because the host descheduled them"),
    m("bench.sampling.run_delay_ms", "ms", "lower", "nothing: median run-queue wait per ladder pass (per job on paper-figures)"),
];

/// Measured values, in the order they were produced.
#[derive(Debug, Default, Clone)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    /// Sets a metric (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Checks that exactly the metrics of `table` are set, with finite
    /// values.
    pub fn check_against(&self, table: &[MetricDef]) -> Result<(), String> {
        for d in table {
            match self.get(d.name) {
                None => return Err(format!("metric {} was not measured", d.name)),
                Some(v) if !v.is_finite() => {
                    return Err(format!("metric {} is not finite ({v})", d.name))
                }
                Some(_) => {}
            }
        }
        if let Some((n, _)) = self
            .0
            .iter()
            .find(|(n, _)| !table.iter().any(|d| d.name == n))
        {
            return Err(format!("metric {n} is not in the table"));
        }
        Ok(())
    }

    /// The `"metrics"` JSON object, in table order.
    pub fn to_json(&self, table: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, d) in table.iter().enumerate() {
            let v = self.get(d.name).unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                d.name,
                json_number(v),
                d.unit
            );
        }
        out.push('}');
        out
    }
}

/// A finite f64 as a JSON number with every digit (Rust's shortest
/// round-trip form, which is valid JSON for every finite value).
pub fn json_number(v: f64) -> String {
    format!("{v:?}")
}
