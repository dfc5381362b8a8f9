//! Monomorphic replay lanes.
//!
//! Every per-event access in a generic replay crosses the [`FrontEnd`]
//! enum match plus a `Box<dyn BufferStage>` virtual call. For the
//! catalog's stock organizations the stage type is statically known, so
//! replay can run on a monomorphic port instead — a [`ReplayLane`] is
//! selected once per `(configuration, trace)` pair and the compiler
//! inlines the Plain/VWB/L0/EMSHR hit paths straight into the replay
//! loop. The generic [`FrontEnd`] stays as the fallback for ad-hoc stage
//! stacks and as the correctness referee the lane-equivalence battery
//! replays against: a lane must be byte-identical to the generic path on
//! every trace, by construction (same stage and hierarchy code, only the
//! dispatch layer differs).

use crate::baselines::{EmshrStage, L0Stage};
use crate::front_end::FrontEnd;
use crate::stage::{probe_then_fetch, BufferStage, Buffered, StageStats};
use crate::vwb::VwbStage;
use crate::Hierarchy;
use sttcache_cpu::{DataPort, MemPort};
use sttcache_mem::{Addr, CacheStats, Cycle, MemoryLevel};

/// Which dispatch [`crate::Platform::run_trace`] replays through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneMode {
    /// The monomorphic lane when the organization has one, the generic
    /// path otherwise (the default).
    Auto,
    /// Always the generic [`FrontEnd`] path — the correctness referee the
    /// equivalence battery compares lanes against.
    Generic,
}

impl LaneMode {
    /// Reads `STTCACHE_REPLAY_LANE`: `off`, `0` or `generic` force the
    /// generic path; anything else (including unset) selects
    /// [`LaneMode::Auto`].
    pub fn from_env() -> Self {
        match std::env::var("STTCACHE_REPLAY_LANE") {
            Ok(v) if matches!(v.as_str(), "off" | "0" | "generic") => LaneMode::Generic,
            _ => LaneMode::Auto,
        }
    }
}

/// The statistics surface the platform reads off a port after a run,
/// over and above [`DataPort`] — what lets the run loop stay generic
/// over monomorphic lanes and the [`FrontEnd`] fallback alike.
pub trait LanePort: DataPort {
    /// DL1 statistics.
    fn dl1_stats(&self) -> &CacheStats;
    /// L2 statistics.
    fn l2_stats(&self) -> &CacheStats;
    /// Main-memory statistics.
    fn memory_stats(&self) -> &CacheStats;
    /// Labelled statistics of every buffer stage, outermost first.
    fn stage_stats(&self) -> Vec<StageStats>;
}

impl LanePort for FrontEnd {
    fn dl1_stats(&self) -> &CacheStats {
        FrontEnd::dl1_stats(self)
    }

    fn l2_stats(&self) -> &CacheStats {
        FrontEnd::l2_stats(self)
    }

    fn memory_stats(&self) -> &CacheStats {
        FrontEnd::memory_stats(self)
    }

    fn stage_stats(&self) -> Vec<StageStats> {
        FrontEnd::stage_stats(self)
    }
}

/// The monomorphic lane for the plain organizations: a [`MemPort`] over
/// the concrete hierarchy plus the probe-then-fetch prefetch policy
/// `FrontEnd::Plain` applies (a bare [`MemPort`] drops hints).
#[derive(Debug, Clone)]
pub struct PlainLane(MemPort<Hierarchy>);

impl PlainLane {
    /// Wraps the concrete hierarchy.
    pub fn new(dl1: Hierarchy) -> Self {
        PlainLane(MemPort::new(dl1))
    }
}

impl DataPort for PlainLane {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.0.read(addr, now)
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.0.write(addr, now)
    }

    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        probe_then_fetch(self.0.level_mut(), addr, now);
    }
}

impl LanePort for PlainLane {
    fn dl1_stats(&self) -> &CacheStats {
        self.0.level().stats()
    }

    fn l2_stats(&self) -> &CacheStats {
        self.0.level().next_level().stats()
    }

    fn memory_stats(&self) -> &CacheStats {
        self.0.level().next_level().next_level().stats()
    }

    fn stage_stats(&self) -> Vec<StageStats> {
        Vec::new()
    }
}

impl<S: BufferStage> LanePort for Buffered<S, Hierarchy> {
    fn dl1_stats(&self) -> &CacheStats {
        self.below().stats()
    }

    fn l2_stats(&self) -> &CacheStats {
        self.below().next_level().stats()
    }

    fn memory_stats(&self) -> &CacheStats {
        self.below().next_level().next_level().stats()
    }

    fn stage_stats(&self) -> Vec<StageStats> {
        let mut out = Vec::new();
        self.stage().collect_stats(&mut out);
        out
    }
}

/// A replay port built once per `(configuration, trace)` pair: one
/// monomorphic variant per stock organization, with the generic
/// [`FrontEnd`] as the fallback for ad-hoc stage stacks and as the
/// referee.
#[derive(Debug)]
pub enum ReplayLane {
    /// Direct DL1 access (SRAM baseline, NVM drop-in).
    Plain(PlainLane),
    /// The VWB proposal.
    Vwb(Buffered<VwbStage, Hierarchy>),
    /// The L0-cache baseline.
    L0(Buffered<L0Stage, Hierarchy>),
    /// The enhanced-MSHR baseline.
    Emshr(Buffered<EmshrStage, Hierarchy>),
    /// The generic dynamic-dispatch path.
    Generic(FrontEnd),
}

impl ReplayLane {
    /// Short stable lane identifier (diagnostics and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            ReplayLane::Plain(_) => "plain",
            ReplayLane::Vwb(_) => "vwb",
            ReplayLane::L0(_) => "l0",
            ReplayLane::Emshr(_) => "emshr",
            ReplayLane::Generic(_) => "generic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_mode_env_parsing() {
        // Only the value spelling matters here, not the process env (the
        // figures CLI documents the variable; tests must not mutate
        // global env in a threaded harness).
        assert_eq!(LaneMode::from_env(), LaneMode::Auto);
    }

    #[test]
    fn plain_lane_matches_plain_front_end() {
        use sttcache_mem::{Cache, MainMemory};
        let build = || {
            let mut tail = Cache::new(crate::l2_config().unwrap(), MainMemory::new(100));
            tail.set_telemetry_component("l2");
            let mut dl1 = Cache::new(crate::nvm_dl1_config().unwrap(), tail);
            dl1.set_telemetry_component("dl1");
            dl1
        };
        let mut lane = PlainLane::new(build());
        let mut fe = FrontEnd::Plain(MemPort::new(build()));
        let mut t = 0;
        for i in 0..24u64 {
            let a = Addr((i % 6) * 64);
            let (l, g) = match i % 3 {
                0 => (lane.read(a, t), fe.read(a, t)),
                1 => (lane.write(a, t), fe.write(a, t)),
                _ => {
                    lane.prefetch(a, t);
                    fe.prefetch(a, t);
                    (t, t)
                }
            };
            assert_eq!(l, g, "plain lane diverged at event {i}");
            t = l + 3;
        }
        assert_eq!(lane.dl1_stats(), LanePort::dl1_stats(&fe));
        assert_eq!(lane.l2_stats(), LanePort::l2_stats(&fe));
        assert_eq!(lane.memory_stats(), LanePort::memory_stats(&fe));
        assert!(lane.stage_stats().is_empty());
    }
}
