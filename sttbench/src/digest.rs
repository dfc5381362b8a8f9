//! Result digests and the reference they are checked against.
//!
//! A digest is FNV-1a over the named counters of a result — cycles, the
//! core report, DL1/L2/memory statistics and every buffer stage — so a
//! change to any simulated number changes it, while a new statistics
//! field added to the simulator does not. Reference digests were
//! generated with `--write-reference` and are stored beside the
//! benchmark, one file per replay workload.

use std::collections::HashMap;
use sttcache::{MultiRunResult, RunResult};
use sttcache_cpu::{CoreReport, Trace, TraceEvent};
use sttcache_mem::CacheStats;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    fn u64s(self, values: &[u64]) -> Self {
        values.iter().fold(self, |h, v| h.bytes(&v.to_le_bytes()))
    }
}

fn core(h: Fnv, c: &CoreReport) -> Fnv {
    h.u64s(&[
        c.cycles,
        c.instructions,
        c.loads,
        c.stores,
        c.prefetches,
        c.branches,
        c.mispredicts,
        c.read_stall_cycles,
        c.write_stall_cycles,
        c.branch_stall_cycles,
        c.fetch_stall_cycles,
    ])
}

fn cache(h: Fnv, s: &CacheStats) -> Fnv {
    h.u64s(&[
        s.reads,
        s.writes,
        s.read_hits,
        s.write_hits,
        s.fills,
        s.writebacks,
        s.bank_conflict_cycles,
        s.mshr_merges,
        s.mshr_full_stall_cycles,
        s.write_buffer_stall_cycles,
    ])
}

fn run(mut h: Fnv, r: &RunResult) -> Fnv {
    h = core(h, &r.core);
    h = cache(h, &r.dl1);
    h = cache(h, &r.l2);
    h = cache(h, &r.memory);
    for s in &r.buffers {
        let b = &s.stats;
        h = h.bytes(s.kind.as_bytes()).u64s(&[
            b.reads,
            b.read_hits,
            b.writes,
            b.write_hits,
            b.fills,
            b.dirty_evictions,
            b.prefetch_fills,
            b.prefetch_drops,
        ]);
    }
    h
}

/// Digest of a single-core result.
pub fn run_digest(r: &RunResult) -> u64 {
    run(Fnv::new(), r).0
}

/// Digest of a multi-core result: every core, the shared L2 and memory.
pub fn multi_digest(r: &MultiRunResult) -> u64 {
    let mut h = Fnv::new();
    for c in &r.cores {
        h = run(h, c);
    }
    cache(cache(h, &r.shared_l2), &r.memory).0
}

/// Digest of a trace's event stream (identifies the benchmark's inputs).
pub fn trace_digest(t: &Trace) -> u64 {
    let mut h = Fnv::new();
    for ev in t.events() {
        h = match *ev {
            TraceEvent::Load { addr, bytes } => h.u64s(&[1, addr.0, bytes as u64]),
            TraceEvent::Store { addr, bytes } => h.u64s(&[2, addr.0, bytes as u64]),
            TraceEvent::Prefetch { addr } => h.u64s(&[3, addr.0]),
            TraceEvent::Compute { ops } => h.u64s(&[4, ops as u64]),
            TraceEvent::Branch { taken } => h.u64s(&[5, taken as u64]),
        };
    }
    h.0
}

/// Reference digests keyed by (variant, label). Seed-independent inputs
/// use the variant `-`.
#[derive(Debug, Default)]
pub struct Reference {
    digests: HashMap<(String, String), u64>,
}

impl Reference {
    /// Parses `<variant> <label> <hex digest>` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digests = HashMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [variant, label, hex] = fields[..] else {
                return Err(format!("reference line {}: expected 3 fields", n + 1));
            };
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("reference line {}: {e}", n + 1))?;
            digests.insert((variant.to_string(), label.to_string()), digest);
        }
        Ok(Reference { digests })
    }

    /// The stored digest, if any.
    pub fn get(&self, variant: &str, label: &str) -> Option<u64> {
        self.digests
            .get(&(variant.to_string(), label.to_string()))
            .copied()
    }
}

/// Mismatching labels kept for the report.
const MAX_LISTED: usize = 8;

/// Tally of checked results.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Results checked.
    pub attempted: u64,
    /// Results that did not match (or had no reference).
    pub failed: u64,
    /// The first few mismatching labels, for the report.
    pub mismatches: Vec<String>,
}

impl Checks {
    /// Records one checked result; `label` names it in the report when
    /// it failed.
    pub fn record_with(&mut self, ok: bool, label: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < MAX_LISTED {
                self.mismatches.push(label());
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_LISTED.saturating_sub(self.mismatches.len());
        self.mismatches
            .extend(other.mismatches.into_iter().take(room));
    }

    /// Mismatching results over results checked.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
