//! The unified data-port front-end.

use crate::baselines::{EmshrStage, L0Stage};
use crate::platform::DCacheOrganization;
use crate::stage::{
    probe_then_fetch, BufferStage, Buffered, StackedStage, StageStats, StageTelemetry,
};
use crate::vwb::VwbStage;
use crate::SttError;
use sttcache_cpu::DataPort;
use sttcache_mem::{Addr, Cache, CacheConfig, CacheStats, Cycle, MainMemory, MemoryLevel};

/// The port of the plain organizations (the SRAM baseline and the NVM
/// drop-in): the core talks straight to the DL1, and a software
/// prefetch is the ARM `PLD` probe-then-fetch (a bare
/// [`MemPort`](sttcache_cpu::MemPort) drops hints).
#[derive(Debug, Clone)]
pub struct PlainPort<N>(Cache<N>);

impl<N: MemoryLevel> DataPort for PlainPort<N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.0.read(addr, now).complete_at
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.0.write(addr, now).complete_at
    }

    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        probe_then_fetch(&mut self.0, addr, now);
    }
}

/// An evaluated L1 D-cache organization over the level `N` below its DL1
/// — the private L2 of the single-core [`crate::Platform`] (the default)
/// or the [`crate::SharedL2`] handle of a [`crate::MultiPlatform`] core.
///
/// One variant per concrete stage, so a replay that matches the variant
/// once ([`crate::Platform::run_trace`]) runs statically dispatched all
/// the way down:
///
/// * `Plain` — the SRAM baseline and the drop-in NVM configuration of
///   Fig. 1;
/// * `Vwb` — the paper's proposal (Figs. 3–7, 9);
/// * `L0`, `Emshr` — the Fig. 8 comparison baselines;
/// * `Stacked` — catalog-only compositions of existing stages (the
///   beyond-paper hybrid), dispatched dynamically inside the stack.
#[derive(Debug, Clone)]
pub enum FrontEnd<N = Cache<MainMemory>> {
    /// Direct DL1 access.
    Plain(PlainPort<N>),
    /// A Very Wide Buffer in front of the DL1.
    Vwb(Buffered<VwbStage, Cache<N>>),
    /// An L0 cache in front of the DL1.
    L0(Buffered<L0Stage, Cache<N>>),
    /// An enhanced MSHR in front of the DL1.
    Emshr(Buffered<EmshrStage, Cache<N>>),
    /// A stack of buffer stages in front of the DL1.
    Stacked(Buffered<StackedStage, Cache<N>>),
}

impl<N: MemoryLevel> FrontEnd<N> {
    /// Builds `organization` cold over `next`: a DL1 of the
    /// organization's technology (or `dl1_override`) labelled
    /// `component` for telemetry, behind the organization's stage. The
    /// one constructor both platforms use.
    ///
    /// # Errors
    ///
    /// Returns an [`SttError`] when the DL1 or stage configuration is
    /// invalid.
    pub(crate) fn build(
        organization: DCacheOrganization,
        dl1_override: Option<CacheConfig>,
        next: N,
        component: &'static str,
    ) -> Result<Self, SttError> {
        use DCacheOrganization as Org;
        let mut dl1 = Cache::new(organization.dl1_config(dl1_override)?, next);
        dl1.set_telemetry_component(component);
        let line_bits = dl1.config().line_bytes() * 8;
        Ok(match organization {
            Org::SramBaseline | Org::NvmDropIn => FrontEnd::Plain(PlainPort(dl1)),
            Org::NvmVwb(cfg) => {
                FrontEnd::Vwb(Buffered::compose(VwbStage::new(cfg, line_bits)?, dl1))
            }
            Org::NvmL0(cfg) => FrontEnd::L0(Buffered::compose(L0Stage::new(cfg, line_bits)?, dl1)),
            Org::NvmEmshr(cfg) => {
                FrontEnd::Emshr(Buffered::compose(EmshrStage::new(cfg, line_bits)?, dl1))
            }
            Org::NvmStack(spec) => {
                FrontEnd::Stacked(Buffered::compose(spec.build(line_bits)?, dl1))
            }
        })
    }

    /// Short stable identifier of the variant: `plain`, `vwb`, `l0`,
    /// `emshr` or `stacked`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            FrontEnd::Plain(_) => "plain",
            FrontEnd::Vwb(_) => "vwb",
            FrontEnd::L0(_) => "l0",
            FrontEnd::Emshr(_) => "emshr",
            FrontEnd::Stacked(_) => "stacked",
        }
    }

    /// The buffer stage (`None` for `Plain`) and the DL1 behind it.
    fn parts(&self) -> (Option<&dyn BufferStage>, &Cache<N>) {
        match self {
            FrontEnd::Plain(p) => (None, &p.0),
            FrontEnd::Vwb(b) => (Some(b.stage()), b.below()),
            FrontEnd::L0(b) => (Some(b.stage()), b.below()),
            FrontEnd::Emshr(b) => (Some(b.stage()), b.below()),
            FrontEnd::Stacked(b) => (Some(b.stage()), b.below()),
        }
    }

    /// Mutable access to the buffer stage and the DL1 at once.
    fn parts_mut(&mut self) -> (Option<&mut dyn BufferStage>, &mut Cache<N>) {
        match self {
            FrontEnd::Plain(p) => (None, &mut p.0),
            FrontEnd::Vwb(b) => {
                let (s, d) = b.parts_mut();
                (Some(s), d)
            }
            FrontEnd::L0(b) => {
                let (s, d) = b.parts_mut();
                (Some(s), d)
            }
            FrontEnd::Emshr(b) => {
                let (s, d) = b.parts_mut();
                (Some(s), d)
            }
            FrontEnd::Stacked(b) => {
                let (s, d) = b.parts_mut();
                (Some(s), d)
            }
        }
    }

    /// The DL1 behind whatever buffer structure this front-end has.
    fn dl1(&self) -> &Cache<N> {
        self.parts().1
    }

    /// The DL1 statistics.
    pub fn dl1_stats(&self) -> &CacheStats {
        self.dl1().stats()
    }

    /// Labelled statistics of every buffer stage in the front-end,
    /// outermost first (empty for `Plain`).
    pub fn stage_stats(&self) -> Vec<StageStats> {
        let mut out = Vec::new();
        if let Some(stage) = self.parts().0 {
            stage.collect_stats(&mut out);
        }
        out
    }

    /// Occupancy snapshots of every buffer stage in the front-end,
    /// outermost first (empty for `Plain`); the telemetry-side companion
    /// of [`FrontEnd::stage_stats`].
    pub fn stage_telemetry(&self) -> Vec<StageTelemetry> {
        let mut out = Vec::new();
        if let (Some(stage), dl1) = self.parts() {
            stage.collect_telemetry(dl1.config().line_bytes(), &mut out);
        }
        out
    }

    /// Resets all statistics in the front-end and every level below it;
    /// cache and buffer *contents* are kept (warm-up support). Over a
    /// shared L2 this clears the shared counters for every core.
    pub fn reset_stats(&mut self) {
        let (stage, dl1) = self.parts_mut();
        if let Some(stage) = stage {
            stage.reset_stats();
        }
        dl1.reset_stats();
    }

    /// Drains the *core-private* dirty state: the buffer stage into the
    /// DL1, then the DL1 into the level below. Lines stay resident and
    /// become clean. Returns the lines written back and the cycle at
    /// which the last write-back was accepted.
    pub(crate) fn flush_private(&mut self, now: Cycle) -> (usize, Cycle) {
        let (stage, dl1) = self.parts_mut();
        let (front, done) = match stage {
            Some(stage) => stage.flush_dirty(&mut *dl1, now),
            None => (0, now),
        };
        let (n1, t1) = dl1.flush_dirty(done);
        (front + n1, t1)
    }

    /// Dirty state still held in the core-private part (buffer entries
    /// plus DL1 dirty lines). Zero after a completed
    /// [`flush_private`](Self::flush_private).
    pub(crate) fn private_dirty_lines(&self) -> usize {
        let (stage, dl1) = self.parts();
        stage.map_or(0, |s| s.dirty_entries()) + dl1.dirty_lines()
    }

    /// Base address and line size of every line resident in the
    /// core-private part (stage entries plus DL1 lines), for phantom-line
    /// verification against a functional oracle.
    pub(crate) fn private_resident_lines(&self) -> Vec<(Addr, usize)> {
        let (stage, dl1) = self.parts();
        let bytes = dl1.config().line_bytes();
        let mut lines = stage.map_or_else(Vec::new, |s| s.resident_lines(bytes));
        lines.extend(dl1.resident_lines());
        lines.into_iter().map(|a| (a, bytes)).collect()
    }

    /// End-of-run verification of the core-private part, reported
    /// through [`sttcache_mem::invariants`]: no leaked MSHR allocation
    /// and no dirty line may remain once it has been drained with
    /// [`flush_private`](Self::flush_private).
    pub(crate) fn check_private_drained(&self, now: Cycle) {
        let (stage, dl1) = self.parts();
        if let Some(stage) = stage {
            stage.check_invariants(now);
            let dirty = stage.dirty_entries();
            if dirty > 0 {
                sttcache_mem::invariants::report(
                    "front-end",
                    now,
                    None,
                    format!("{dirty} dirty buffer entries remain after drain"),
                );
            }
        }
        dl1.check_drained(now);
    }
}

/// The single-core legs: the private L2 and main memory below the DL1.
impl FrontEnd<Cache<MainMemory>> {
    /// The L2 behind the DL1.
    fn l2(&self) -> &Cache<MainMemory> {
        self.dl1().next_level()
    }

    /// The L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2().stats()
    }

    /// The main-memory statistics.
    pub fn memory_stats(&self) -> &CacheStats {
        self.l2().next_level().stats()
    }

    /// Drains every dirty line in the whole organization to backing
    /// memory: first the front buffer stages into the DL1, then the DL1
    /// into the L2, then the L2 into memory. Lines stay resident and
    /// become clean. Returns the total lines written back and the cycle
    /// at which the last write-back was accepted.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        let (n1, t1) = self.flush_private(now);
        let (n2, t2) = self.parts_mut().1.next_level_mut().flush_dirty(t1);
        (n1 + n2, t2)
    }

    /// Dirty state still held anywhere in the organization (front buffer
    /// entries plus DL1 and L2 dirty lines). Zero after a completed
    /// [`flush_dirty`](Self::flush_dirty).
    pub fn dirty_line_count(&self) -> usize {
        self.private_dirty_lines() + self.l2().dirty_lines()
    }

    /// Base address and line size of every line resident anywhere in the
    /// organization, for phantom-line verification against a functional
    /// oracle.
    pub fn resident_lines(&self) -> Vec<(Addr, usize)> {
        let mut lines = self.private_resident_lines();
        let l2_bytes = self.l2().config().line_bytes();
        lines.extend(
            self.l2()
                .resident_lines()
                .into_iter()
                .map(|a| (a, l2_bytes)),
        );
        lines
    }

    /// End-of-run verification, reported through
    /// [`sttcache_mem::invariants`]: no leaked MSHR allocation and no
    /// dirty line may remain at any level once the organization has been
    /// drained with [`flush_dirty`](Self::flush_dirty).
    pub fn check_drained(&self, now: Cycle) {
        self.check_private_drained(now);
        self.l2().check_drained(now);
    }
}

impl<N: MemoryLevel> DataPort for FrontEnd<N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> Cycle {
        match self {
            FrontEnd::Plain(p) => p.read(addr, now),
            FrontEnd::Vwb(b) => b.read(addr, now),
            FrontEnd::L0(b) => b.read(addr, now),
            FrontEnd::Emshr(b) => b.read(addr, now),
            FrontEnd::Stacked(b) => b.read(addr, now),
        }
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> Cycle {
        match self {
            FrontEnd::Plain(p) => p.write(addr, now),
            FrontEnd::Vwb(b) => b.write(addr, now),
            FrontEnd::L0(b) => b.write(addr, now),
            FrontEnd::Emshr(b) => b.write(addr, now),
            FrontEnd::Stacked(b) => b.write(addr, now),
        }
    }

    fn prefetch(&mut self, addr: Addr, now: Cycle) {
        match self {
            FrontEnd::Plain(p) => p.prefetch(addr, now),
            FrontEnd::Vwb(b) => b.prefetch(addr, now),
            FrontEnd::L0(b) => b.prefetch(addr, now),
            FrontEnd::Emshr(b) => b.prefetch(addr, now),
            FrontEnd::Stacked(b) => b.prefetch(addr, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l2_config;
    use crate::stage::{StackSpec, StageSpec};
    use crate::vwb::VwbConfig;

    fn build(org: DCacheOrganization) -> FrontEnd {
        let tail = Cache::new(l2_config().unwrap(), MainMemory::new(100));
        FrontEnd::build(org, None, tail, "dl1").unwrap()
    }

    fn test_stack() -> DCacheOrganization {
        DCacheOrganization::NvmStack(StackSpec {
            name: "test stack",
            outer: StageSpec::Vwb(VwbConfig::default()),
            inner: StageSpec::Emshr(crate::baselines::EmshrConfig::default()),
        })
    }

    #[test]
    fn plain_front_end_reaches_all_levels() {
        let mut fe = build(DCacheOrganization::NvmDropIn);
        fe.read(Addr(0), 0);
        assert_eq!(fe.dl1_stats().reads, 1);
        assert_eq!(fe.l2_stats().reads, 1);
        assert_eq!(fe.memory_stats().reads, 1);
        assert!(fe.stage_stats().is_empty());
    }

    #[test]
    fn vwb_front_end_reports_buffer_stats() {
        let mut fe = build(DCacheOrganization::nvm_vwb_default());
        let t = fe.read(Addr(0), 0);
        fe.read(Addr(8), t);
        let stages = fe.stage_stats();
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].kind, "vwb");
        assert_eq!(stages[0].stats.reads, 2);
        assert_eq!(stages[0].stats.read_hits, 1);
    }

    #[test]
    fn plain_prefetch_fetches_missing_lines_only() {
        let mut fe = build(DCacheOrganization::NvmDropIn);
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.dl1_stats().accesses(), 1);
        // A hint for a resident line is dropped after the tag probe.
        fe.prefetch(Addr(0), 500);
        assert_eq!(fe.dl1_stats().accesses(), 1);
    }

    #[test]
    fn vwb_prefetch_promotes() {
        let mut fe = build(DCacheOrganization::nvm_vwb_default());
        fe.prefetch(Addr(0), 0);
        assert_eq!(fe.stage_stats()[0].stats.prefetch_fills, 1);
    }

    #[test]
    fn stage_telemetry_reports_capacity_and_residency() {
        let plain = build(DCacheOrganization::NvmDropIn);
        assert!(plain.stage_telemetry().is_empty());
        let mut fe = build(DCacheOrganization::nvm_vwb_default());
        let t = fe.read(Addr(0), 0);
        fe.write(Addr(8), t);
        let tel = fe.stage_telemetry();
        assert_eq!(tel.len(), 1);
        assert_eq!(tel[0].kind, "vwb");
        assert_eq!(tel[0].capacity, 4);
        assert_eq!(tel[0].resident, 1);
        assert_eq!(tel[0].dirty, 1);
    }

    #[test]
    fn stacked_stage_telemetry_lists_both_constituents() {
        let mut fe = build(test_stack());
        fe.read(Addr(0), 0);
        let tel = fe.stage_telemetry();
        assert_eq!(tel.len(), 2);
        assert_eq!(tel[0].kind, "vwb");
        assert_eq!(tel[1].kind, "emshr");
        assert!(tel.iter().all(|t| t.capacity == 4));
    }

    #[test]
    fn stacked_stages_compose_without_new_variants() {
        let mut fe = build(test_stack());
        assert_eq!(fe.kind(), "stacked");
        let t = fe.read(Addr(0), 0);
        // The VWB promoted the line; a same-line read hits at buffer speed.
        let t2 = fe.read(Addr(8), t);
        assert_eq!(t2, t + 1);
        let stages = fe.stage_stats();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].kind, "vwb");
        assert_eq!(stages[1].kind, "emshr");
        assert_eq!(stages[0].stats.reads, 2);
        // The VWB's promotion read flowed *through* the EMSHR stage.
        assert!(stages[1].stats.reads >= 1);
        // Drain verification covers both stages.
        fe.write(Addr(0), t2);
        assert!(fe.dirty_line_count() > 0);
        let (_, done) = fe.flush_dirty(t2 + 100);
        assert_eq!(fe.dirty_line_count(), 0, "drain incomplete at {done}");
    }
}
