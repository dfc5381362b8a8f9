//! The timed set-associative cache.

use crate::addr::{Addr, Cycle, LineAddr};
use crate::banks::BankSchedule;
use crate::config::{CacheConfig, WritePolicy};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::set::Residency;
use crate::stats::CacheStats;
use crate::write_buffer::WriteBuffer;
use crate::MemoryLevel;

/// Which level ultimately provided the data for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServedBy {
    /// This cache level (a hit).
    ThisLevel,
    /// A lower level (this level missed).
    Lower,
    /// The main-memory backstop.
    Memory,
}

/// Timing result of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle at which the data is available (reads) or accepted (writes).
    pub complete_at: Cycle,
    /// Who served the access.
    pub served_by: ServedBy,
}

/// A timed, banked, set-associative, write-back/write-allocate cache with
/// MSHRs and an eviction write buffer.
///
/// Generic over its next level, so hierarchies compose by nesting:
/// `Cache<Cache<MainMemory>>`. All policies follow the paper's platform
/// (§VI): true LRU, write-back, write-allocate, line-interleaved banks.
///
/// # Example
///
/// ```
/// use sttcache_mem::{Addr, Cache, CacheConfig, MainMemory, MemoryLevel};
///
/// # fn main() -> Result<(), sttcache_mem::MemError> {
/// let l2 = Cache::new(
///     CacheConfig::builder()
///         .capacity_bytes(2 * 1024 * 1024)
///         .associativity(16)
///         .read_cycles(12)
///         .write_cycles(12)
///         .build()?,
///     MainMemory::new(100),
/// );
/// let mut dl1 = Cache::new(CacheConfig::builder().build()?, l2);
/// dl1.read(Addr(0), 0);
/// assert_eq!(dl1.next_level().stats().reads, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache<N> {
    config: CacheConfig,
    /// Cached [`CacheConfig::sets`]: the set count is derived by integer
    /// division, and the decode math needs it on every access.
    set_count: usize,
    /// Tag, valid, dirty and replacement state of every way: the one
    /// structure the hit path, the miss path and the audit all read.
    residency: Residency,
    banks: BankSchedule,
    mshrs: MshrFile,
    write_buffer: WriteBuffer,
    next: N,
    stats: CacheStats,
    /// Array writes performed (drives the deterministic AWARE slow-write
    /// cadence).
    array_writes: u64,
    /// Telemetry component label (`"dl1"`, `"l2"`, …).
    component: &'static str,
    /// Pre-resolved wear/share telemetry slots, re-resolved whenever the
    /// component label changes.
    slot_set_writes: crate::telemetry::Slot,
    slot_bank_writes: crate::telemetry::Slot,
    slot_bank_reads: crate::telemetry::Slot,
}

impl<N: MemoryLevel> Cache<N> {
    /// Creates a cache with the given configuration in front of `next`.
    pub fn new(config: CacheConfig, next: N) -> Self {
        Cache {
            residency: Residency::new(config.sets(), config.associativity(), config.replacement()),
            banks: BankSchedule::new(config.banks()),
            mshrs: MshrFile::new(config.mshr_entries()),
            write_buffer: WriteBuffer::new(config.write_buffer_entries()),
            set_count: config.sets(),
            config,
            next,
            stats: CacheStats::new(),
            array_writes: 0,
            component: "cache",
            slot_set_writes: crate::telemetry::Slot::indexed("cache", "set_writes"),
            slot_bank_writes: crate::telemetry::Slot::indexed("cache", "bank_writes"),
            slot_bank_reads: crate::telemetry::Slot::indexed("cache", "bank_reads"),
        }
    }

    /// Names the component this cache's telemetry is recorded under
    /// (propagated to the banks, MSHRs and write buffer). The platform
    /// labels its levels `"dl1"` and `"l2"`; standalone caches default to
    /// `"cache"`.
    pub fn set_telemetry_component(&mut self, component: &'static str) {
        self.component = component;
        self.slot_set_writes = crate::telemetry::Slot::indexed(component, "set_writes");
        self.slot_bank_writes = crate::telemetry::Slot::indexed(component, "bank_writes");
        self.slot_bank_reads = crate::telemetry::Slot::indexed(component, "bank_reads");
        self.banks.set_telemetry_component(component);
        self.mshrs.set_telemetry_component(component);
        self.write_buffer.set_telemetry_component(component);
    }

    /// Records one data-array write for the wear map and per-bank shares.
    /// Called only while an observer is armed.
    #[cold]
    fn telemetry_array_write(&self, set_index: usize, bank: usize) {
        if crate::telemetry::enabled() {
            self.slot_set_writes.add_at(set_index, 1);
            self.slot_bank_writes.add_at(bank, 1);
        }
    }

    /// Records one data/tag-array read for the per-bank shares. Called
    /// only while an observer is armed.
    #[cold]
    fn telemetry_array_read(&self, bank: usize) {
        if crate::telemetry::enabled() {
            self.slot_bank_reads.add_at(bank, 1);
        }
    }

    /// The latency of the next array write, honouring the asymmetric
    /// (AWARE) write model when configured.
    fn next_write_cycles(&mut self) -> u64 {
        self.array_writes += 1;
        match self.config.asymmetric_write() {
            Some(aw) if self.array_writes.is_multiple_of(aw.slow_period) => aw.slow_cycles,
            _ => self.config.write_cycles(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The next level (for inspecting its statistics).
    pub fn next_level(&self) -> &N {
        &self.next
    }

    /// Mutable access to the next level.
    pub fn next_level_mut(&mut self) -> &mut N {
        &mut self.next
    }

    /// Whether the line containing `addr` is present (tag probe only; no
    /// state change, no timing).
    pub fn contains(&self, addr: Addr) -> bool {
        let line = self.line_of(addr);
        self.residency
            .contains(line.set_index(self.set_count), line.tag(self.set_count))
    }

    /// Occupies the bank serving `addr` for `cycles` starting no earlier
    /// than `from`, returning the actual start cycle.
    ///
    /// Used by wide-buffer front-ends to model line promotions that keep
    /// the array busy after the critical word has been returned (paper
    /// §IV: "the promotion may take as long as 4 cache cycles").
    pub fn occupy_bank(&mut self, addr: Addr, from: Cycle, cycles: u64) -> Cycle {
        let bank = self.line_of(addr).bank(self.config.banks());
        self.banks.reserve(bank, from, cycles)
    }

    /// The cycle at which the bank serving `addr` becomes free.
    pub fn bank_free_at(&self, addr: Addr) -> Cycle {
        self.banks
            .free_at(self.line_of(addr).bank(self.config.banks()))
    }

    /// The MSHR file (for drain verification and occupancy checks).
    pub fn mshrs(&self) -> &MshrFile {
        &self.mshrs
    }

    /// The eviction write buffer (for drain verification).
    pub fn write_buffer(&self) -> &WriteBuffer {
        &self.write_buffer
    }

    /// Base addresses of every resident line, for post-run verification
    /// against a functional oracle: a drained hierarchy may only hold
    /// lines the program actually touched.
    pub fn resident_lines(&self) -> Vec<Addr> {
        self.residency
            .iter_valid()
            .map(|(set, tag, _)| {
                LineAddr::from_parts(tag, set, self.set_count).base(self.config.line_bytes())
            })
            .collect()
    }

    /// Runs the per-set structural checks and the MSHR occupancy check,
    /// reporting through [`invariants`](crate::invariants). Called on the
    /// hot paths when the gate is on; harnesses may also call it directly.
    pub fn check_invariants(&self, now: Cycle) {
        self.residency.check_invariants(now);
        self.mshrs.check_invariants(now);
        self.write_buffer.check_invariants(now);
    }

    /// End-of-run verification of this level: reports leaked MSHR
    /// allocations and any dirty line that survived draining. Levels
    /// below are checked by the caller (the front-end's drain verifier
    /// walks the hierarchy).
    pub fn check_drained(&self, now: Cycle) {
        self.mshrs.check_drained(now);
        let dirty = self.dirty_lines();
        if dirty > 0 {
            crate::invariants::report(
                "cache",
                now,
                None,
                format!("{dirty} dirty lines remain after drain"),
            );
        }
    }

    /// Number of dirty lines currently held.
    pub fn dirty_lines(&self) -> usize {
        self.residency.dirty_lines()
    }

    /// Writes every dirty line back to the next level (power-gating /
    /// checkpoint support: a volatile cache must drain before losing
    /// power; a non-volatile one keeps its contents and skips this).
    ///
    /// Lines stay resident and become clean. Returns the number of lines
    /// flushed and the cycle at which the last write-back has been
    /// accepted below.
    pub fn flush_dirty(&mut self, now: Cycle) -> (usize, Cycle) {
        let sets_count = self.set_count;
        let line_bytes = self.config.line_bytes();
        let mut flushed = 0;
        let mut done = now;
        for set_index in 0..sets_count {
            let mut dirty = self.residency.dirty_mask(set_index);
            while dirty != 0 {
                let way = dirty.trailing_zeros() as usize;
                dirty &= dirty - 1;
                let tag = self.residency.tag(set_index, way);
                let line = LineAddr::from_parts(tag, set_index, sets_count);
                // Read the line out of the array, then write it below.
                let bank = line.bank(self.config.banks());
                let start = self.banks.reserve(bank, done, self.config.read_cycles());
                let out = self
                    .next
                    .write(line.base(line_bytes), start + self.config.read_cycles());
                done = out.complete_at;
                self.residency.clean(set_index, way);
                self.stats.writebacks += 1;
                flushed += 1;
            }
        }
        (flushed, done)
    }

    /// Invalidates the line containing `addr` if present, pushing it to the
    /// write buffer when dirty. Returns whether a line was invalidated.
    pub fn invalidate(&mut self, addr: Addr, now: Cycle) -> bool {
        let line = self.line_of(addr);
        let sets = self.set_count;
        let tag = line.tag(sets);
        match self.residency.invalidate(line.set_index(sets), tag) {
            Some(dirty) => {
                if dirty {
                    self.push_writeback(line, now);
                }
                true
            }
            None => false,
        }
    }

    fn line_of(&self, addr: Addr) -> LineAddr {
        addr.line(self.config.line_bytes())
    }

    fn push_writeback(&mut self, line: LineAddr, now: Cycle) -> Cycle {
        self.stats.writebacks += 1;
        let base = line.base(self.config.line_bytes());
        let proceed_at = {
            // Drain time: one next-level write from the moment the buffer
            // entry reaches the head. Use the next level's write timing.
            let drain_done = self.next.write(base, now).complete_at;
            let drain_cycles = drain_done.saturating_sub(now).max(1);
            self.write_buffer.push(line, now, drain_cycles)
        };
        self.stats.write_buffer_stall_cycles += proceed_at - now;
        proceed_at
    }

    /// Handles the miss path shared by reads and writes: `victim` is the
    /// way [`Residency::victim`] chose right after the access missed.
    /// Returns the cycle at which the line has been delivered to this
    /// level, who served it, and the way it was installed in (`None` when
    /// the miss merged into an in-flight fill, which installs nothing).
    #[inline(never)]
    fn fill_miss(
        &mut self,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
        victim: usize,
        armed: bool,
    ) -> (Cycle, ServedBy, Option<usize>) {
        // MSHR: merge with an in-flight fill, or allocate (waiting out a
        // full file first — one wait always frees an entry because every
        // allocation is completed within this call).
        let mut at = now;
        loop {
            match self.mshrs.probe_or_allocate(line, at) {
                MshrOutcome::Merged { ready_at } => {
                    self.stats.mshr_merges += 1;
                    return (ready_at.max(at), ServedBy::Lower, None);
                }
                MshrOutcome::Allocated => break,
                MshrOutcome::Full { retry_at } => {
                    self.stats.mshr_full_stall_cycles += retry_at.saturating_sub(at);
                    at = retry_at.max(at + 1);
                }
            }
        }

        // Tag check discovered the miss after one array read; the request
        // then goes below. The bank is busy for the tag read and again for
        // the fill write.
        let rc = self.config.read_cycles();
        let lookup_start = self.banks.reserve_observed(bank, at, rc, armed);
        let lookup_done = lookup_start + rc;
        if armed {
            self.telemetry_array_read(bank);
        }

        let below = self
            .next
            .read(line.base(self.config.line_bytes()), lookup_done);

        // Victim handling: a dirty victim goes to the write buffer. A full
        // buffer back-pressures the fill. Nothing below can touch this
        // cache, so the set is as the lookup left it.
        let victim = self.residency.install_victim(set_index, victim);
        let mut fill_ready = below.complete_at;
        if let Some(dtag) = self.residency.dirty_tag(set_index, victim) {
            let victim_line = LineAddr::from_parts(dtag, set_index, self.set_count);
            let wb_ready = self.push_writeback(victim_line, fill_ready);
            fill_ready = fill_ready.max(wb_ready);
        }

        // Install the line; writing the fill occupies the bank.
        let fill_write = self.next_write_cycles();
        self.banks
            .reserve_observed(bank, fill_ready, fill_write, armed);
        self.residency.fill(
            set_index,
            victim,
            line.tag(self.set_count),
            false,
            fill_ready,
        );
        self.stats.fills += 1;
        if armed {
            self.telemetry_array_write(set_index, bank);
        }
        self.mshrs.complete(line, fill_ready);
        (fill_ready, ServedBy::Lower, Some(victim))
    }

    /// When a hit on `line` at `now` can read the array: at once, unless
    /// the line's own fill is still in flight. `fills_pending` rules out
    /// every in-flight fill with one compare, so the MSHR scan runs only
    /// while some fill is outstanding.
    #[inline]
    fn hit_ready(&self, line: LineAddr, now: Cycle) -> Cycle {
        if self.mshrs.fills_pending(now) {
            self.mshrs.ready_time(line, now).map_or(now, |r| r.max(now))
        } else {
            now
        }
    }

    /// The body of [`MemoryLevel::read`]: `line`, `set_index` and `bank`
    /// must be `addr`'s decomposition under this cache's geometry. One
    /// scan of the set finds the hit; a miss takes its victim from the
    /// same set state without scanning again. Armed observers run the
    /// same path.
    #[inline]
    fn read_at(
        &mut self,
        addr: Addr,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
    ) -> AccessOutcome {
        let armed = crate::gates::any_observer_armed();
        self.stats.reads += 1;
        let outcome = match self.residency.find(set_index, line.tag(self.set_count)) {
            Some(way) => {
                self.stats.read_hits += 1;
                let avail = self.hit_ready(line, now);
                let rc = self.config.read_cycles();
                let start = self.banks.reserve_observed(bank, avail, rc, armed);
                if armed {
                    self.telemetry_array_read(bank);
                }
                self.residency.touch(set_index, way, start, false);
                AccessOutcome {
                    complete_at: start + rc,
                    served_by: ServedBy::ThisLevel,
                }
            }
            None => self.read_miss(line, set_index, bank, now, armed),
        };
        self.finish_access(addr, now, outcome, armed)
    }

    /// The read miss path, out of line so the hit path stays small.
    #[inline(never)]
    fn read_miss(
        &mut self,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
        armed: bool,
    ) -> AccessOutcome {
        let victim = self.residency.victim(set_index);
        let (ready, served_by, _) = self.fill_miss(line, set_index, bank, now, victim, armed);
        // The critical word is forwarded to the requester as the fill
        // arrives; no second array read is charged.
        AccessOutcome {
            complete_at: ready,
            served_by,
        }
    }

    /// The body of [`MemoryLevel::write`]; arguments as for
    /// [`Cache::read_at`].
    #[inline]
    fn write_at(
        &mut self,
        addr: Addr,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
    ) -> AccessOutcome {
        let armed = crate::gates::any_observer_armed();
        self.stats.writes += 1;
        let tag = line.tag(self.set_count);
        let outcome = match (
            self.residency.find(set_index, tag),
            self.config.write_policy(),
        ) {
            (Some(way), WritePolicy::WriteBack) => {
                self.stats.write_hits += 1;
                let avail = self.hit_ready(line, now);
                self.write_hit(set_index, way, bank, avail, ServedBy::ThisLevel, armed)
            }
            (Some(way), WritePolicy::WriteThrough) => {
                self.stats.write_hits += 1;
                let wc = self.config.write_cycles();
                let start = self.banks.reserve_observed(bank, now, wc, armed);
                if armed {
                    self.telemetry_array_write(set_index, bank);
                }
                self.residency.touch(set_index, way, start, false);
                let below = self.next.write(line.base(self.config.line_bytes()), start);
                AccessOutcome {
                    complete_at: below.complete_at,
                    served_by: ServedBy::ThisLevel,
                }
            }
            (None, WritePolicy::WriteBack) => {
                self.write_allocate(line, set_index, bank, now, armed)
            }
            (None, WritePolicy::WriteThrough) => {
                // No-allocate: the write goes straight below.
                let below = self.next.write(line.base(self.config.line_bytes()), now);
                AccessOutcome {
                    complete_at: below.complete_at,
                    served_by: ServedBy::Lower,
                }
            }
        };
        self.finish_access(addr, now, outcome, armed)
    }

    /// The write-back miss path (write-allocate), out of line so the hit
    /// path stays small.
    #[inline(never)]
    fn write_allocate(
        &mut self,
        line: LineAddr,
        set_index: usize,
        bank: usize,
        now: Cycle,
        armed: bool,
    ) -> AccessOutcome {
        // Write-allocate: fetch the line, then perform the write hit ("the
        // data in the cache location is loaded in the block from the
        // L2/main memory and this is followed by the write hit operation",
        // §IV).
        let victim = self.residency.victim(set_index);
        let (mut ready, served_by, mut way) =
            self.fill_miss(line, set_index, bank, now, victim, armed);
        // A merged fill installs nothing, and the line is absent: fills
        // install eagerly at a future timestamp, so later same-set misses
        // in program order already evicted the line this request merged
        // into. Physically the merged requester arrives after that
        // eviction and has to re-fetch the line like any fresh miss. The
        // retry makes progress: a merge always returns a ready time
        // strictly past the probe time, and once the probe reaches it the
        // stale entry is reclaimed and the fill installs the line.
        let way = loop {
            if let Some(way) = way {
                break way;
            }
            match self.residency.find(set_index, line.tag(self.set_count)) {
                Some(hit) => way = Some(hit),
                None => {
                    let victim = self.residency.victim(set_index);
                    (ready, _, way) = self.fill_miss(line, set_index, bank, ready, victim, armed);
                }
            }
        };
        self.write_hit(set_index, way, bank, ready, served_by, armed)
    }

    /// Writes into resident `way` of `set_index` once the array is free
    /// after `avail`, dirtying the line. `armed` is the access's read of
    /// the combined observer gate.
    #[inline]
    fn write_hit(
        &mut self,
        set_index: usize,
        way: usize,
        bank: usize,
        avail: Cycle,
        served_by: ServedBy,
        armed: bool,
    ) -> AccessOutcome {
        let wc = self.next_write_cycles();
        let start = self.banks.reserve_observed(bank, avail, wc, armed);
        if armed {
            self.telemetry_array_write(set_index, bank);
        }
        self.residency.touch(set_index, way, start, true);
        AccessOutcome {
            complete_at: start + wc,
            served_by,
        }
    }

    /// Common tail of every access: fold the component counters into the
    /// statistics block and, when the invariant gate is armed, audit.
    /// `armed` is the access's one read of the combined observer gate.
    #[inline]
    fn finish_access(
        &mut self,
        addr: Addr,
        now: Cycle,
        outcome: AccessOutcome,
        armed: bool,
    ) -> AccessOutcome {
        // The full sync (not an incremental bump) is load-bearing: stage
        // wrappers advance the bank tally between accesses through
        // `occupy_bank`, and the sync folds those into the report.
        self.sync_component_stats();
        if armed && crate::invariants::enabled() {
            self.check_access(addr, now, outcome.complete_at);
        }
        outcome
    }

    fn sync_component_stats(&mut self) {
        self.stats.bank_conflict_cycles = self.banks.conflict_cycles();
        self.stats.mshr_merges = self.mshrs.merges();
    }

    /// Post-access checks run when the invariant gate is on: the touched
    /// set must be structurally valid, every MSHR allocation made during
    /// the access must have been completed before it returned, and time
    /// must not run backwards.
    #[cold]
    fn check_access(&self, addr: Addr, now: Cycle, complete_at: Cycle) {
        if complete_at < now {
            crate::invariants::report(
                "cache",
                now,
                Some(addr.0),
                format!("access completed in the past (at {complete_at})"),
            );
        }
        let line = self.line_of(addr);
        let set_index = line.set_index(self.set_count);
        self.residency.check_set(set_index, complete_at);
        if self.mshrs.unfinished_allocations() > 0 {
            crate::invariants::report(
                "mshr",
                now,
                Some(addr.0),
                format!(
                    "{} allocation(s) left incomplete after an access returned",
                    self.mshrs.unfinished_allocations()
                ),
            );
        }
        self.write_buffer.check_invariants(now);
    }
}

impl<N: MemoryLevel> MemoryLevel for Cache<N> {
    fn read(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        let line = self.line_of(addr);
        let set_index = line.set_index(self.set_count);
        let bank = line.bank(self.config.banks());
        self.read_at(addr, line, set_index, bank, now)
    }

    fn write(&mut self, addr: Addr, now: Cycle) -> AccessOutcome {
        let line = self.line_of(addr);
        let set_index = line.set_index(self.set_count);
        let bank = line.bank(self.config.banks());
        self.write_at(addr, line, set_index, bank, now)
    }

    fn line_bytes(&self) -> usize {
        self.config.line_bytes()
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
        self.banks.reset_stats();
        self.mshrs.reset_stats();
        self.write_buffer.reset_stats();
        self.next.reset_stats();
    }

    fn contains(&self, addr: Addr) -> bool {
        Cache::contains(self, addr)
    }

    fn occupy_bank(&mut self, addr: Addr, from: Cycle, cycles: u64) -> Cycle {
        Cache::occupy_bank(self, addr, from, cycles)
    }

    fn next_lower(&self) -> Option<&dyn MemoryLevel> {
        Some(&self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MainMemory;

    fn dl1() -> Cache<MainMemory> {
        Cache::new(
            CacheConfig::builder().build().unwrap(),
            MainMemory::new(100),
        )
    }

    fn sram_dl1() -> Cache<MainMemory> {
        Cache::new(
            CacheConfig::builder()
                .line_bytes(32)
                .read_cycles(1)
                .write_cycles(1)
                .build()
                .unwrap(),
            MainMemory::new(100),
        )
    }

    #[test]
    fn merged_write_refetches_an_evicted_line() {
        // Regression for a panic the trace fuzzer found: back-to-back
        // same-set write misses at the same cycle. The default config is
        // 2-way, so writes C and D (issued while A's fill is still in
        // flight) evict A; the second write to A then *merges* with A's
        // stale MSHR entry and used to find the line absent after
        // fill_miss returned ("line was just filled").
        let mut c = dl1();
        let sets = c.config().sets() as u64;
        let stride = sets * c.config().line_bytes() as u64;
        let a = Addr(0);
        c.write(a, 0); // allocate A; fill lands far in the future
        c.write(Addr(stride), 0); // B
        c.write(Addr(2 * stride), 0); // C — evicts A or B
        c.write(Addr(3 * stride), 0); // D — the other one is gone too
        let out = c.write(a, 1); // merges with A's in-flight entry
        assert!(out.complete_at > 1);
        assert!(c.contains(a), "the re-fetch must install the line");
    }

    #[test]
    fn cold_read_misses_to_memory() {
        let mut c = dl1();
        let out = c.read(Addr(0), 0);
        // Tag check (4) + memory (100).
        assert_eq!(out.complete_at, 104);
        assert_eq!(out.served_by, ServedBy::Lower);
        assert_eq!(c.stats().read_misses(), 1);
    }

    #[test]
    fn second_read_hits_at_read_latency() {
        let mut c = dl1();
        // Warm the line; wait out the fill-write bank shadow (2 cycles).
        let t = c.read(Addr(0), 0).complete_at + 10;
        let out = c.read(Addr(8), t);
        assert_eq!(out.complete_at, t + 4);
        assert_eq!(out.served_by, ServedBy::ThisLevel);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn hit_immediately_after_fill_waits_for_fill_write() {
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at;
        // The fill is still being written into the bank for write_cycles
        // (2); the hit read starts after it.
        assert_eq!(c.read(Addr(8), t).complete_at, t + 2 + 4);
    }

    #[test]
    fn sram_hit_is_one_cycle() {
        let mut c = sram_dl1();
        let t = c.read(Addr(0), 0).complete_at + 10;
        assert_eq!(c.read(Addr(0), t).complete_at, t + 1);
    }

    #[test]
    fn write_hit_takes_write_latency_and_dirties() {
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at + 10;
        let out = c.write(Addr(0), t);
        assert_eq!(out.complete_at, t + 2);
        assert_eq!(c.stats().write_hits, 1);
        // Evicting the dirty line later produces a write-back. Fill the set:
        // set 0 holds lines 0 and 512 (sets = 512); a third conflicting
        // line evicts LRU.
        let sets = c.config().sets() as u64;
        let lb = c.config().line_bytes() as u64;
        let t2 = c.read(Addr(sets * lb), out.complete_at).complete_at;
        let _ = c.read(Addr(2 * sets * lb), t2);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_miss_allocates() {
        let mut c = dl1();
        let out = c.write(Addr(0), 0);
        assert_eq!(c.stats().write_misses(), 1);
        assert_eq!(c.stats().fills, 1);
        // Tag check (4) + memory (100) + fill write (2) + write hit (2).
        assert_eq!(out.complete_at, 108);
        // The line is now present and dirty.
        assert!(c.contains(Addr(0)));
    }

    #[test]
    fn write_through_no_allocate() {
        let mut c = Cache::new(
            CacheConfig::builder()
                .write_policy(WritePolicy::WriteThrough)
                .build()
                .unwrap(),
            MainMemory::new(100),
        );
        let out = c.write(Addr(0), 0);
        assert!(!c.contains(Addr(0)));
        assert_eq!(out.complete_at, 100);
        // A write-through hit updates below as well.
        c.read(Addr(64), 0);
        let before = c.next_level().stats().writes;
        c.write(Addr(64), 500);
        assert_eq!(c.next_level().stats().writes, before + 1);
    }

    #[test]
    fn lru_within_set() {
        let mut c = dl1();
        let sets = c.config().sets() as u64;
        let lb = c.config().line_bytes() as u64;
        let stride = sets * lb; // same set, different tag
        let mut t = 0;
        t = c.read(Addr(0), t).complete_at;
        t = c.read(Addr(stride), t).complete_at;
        t = c.read(Addr(0), t).complete_at; // refresh line 0
        t = c.read(Addr(2 * stride), t).complete_at; // evicts `stride`
        assert!(c.contains(Addr(0)));
        assert!(!c.contains(Addr(stride)));
        let _ = t;
    }

    #[test]
    fn bank_conflicts_delay_same_bank_accesses() {
        let mut c = dl1();
        // Lines 0 and 4 share bank 0 (4 banks); warm both, plus line 1 in
        // bank 1; then wait out the fill shadows.
        let lb = c.config().line_bytes() as u64;
        let mut t = c.read(Addr(0), 0).complete_at;
        t = c.read(Addr(4 * lb), t).complete_at;
        t = c.read(Addr(lb), t).complete_at + 10;
        // Issue two same-bank reads in the same cycle: the second waits.
        let a = c.read(Addr(0), t);
        let b = c.read(Addr(4 * lb), t);
        assert_eq!(a.complete_at, t + 4);
        assert_eq!(b.complete_at, t + 8);
        assert!(c.stats().bank_conflict_cycles >= 4);
        // Different banks do not wait on each other.
        let warm = t + 100;
        let x = c.read(Addr(0), warm);
        let y = c.read(Addr(lb), warm);
        assert_eq!(x.complete_at, warm + 4);
        assert_eq!(y.complete_at, warm + 4);
    }

    #[test]
    fn mshr_merges_inflight_line() {
        let mut c = dl1();
        let a = c.read(Addr(0), 0);
        // Second access to the same line while the fill is in flight: the
        // tag is installed but data arrives with the fill, so the hit waits.
        let b = c.read(Addr(8), 1);
        assert!(b.complete_at >= a.complete_at);
    }

    #[test]
    fn occupy_bank_blocks_later_reads() {
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at + 10;
        // Simulate a 4-cycle promotion occupying bank 0 from t.
        c.occupy_bank(Addr(0), t, 4);
        let out = c.read(Addr(0), t);
        assert_eq!(out.complete_at, t + 4 + 4);
    }

    #[test]
    fn invalidate_dirty_line_writes_back() {
        let mut c = dl1();
        c.write(Addr(0), 0);
        let wb_before = c.stats().writebacks;
        assert!(c.invalidate(Addr(0), 200));
        assert_eq!(c.stats().writebacks, wb_before + 1);
        assert!(!c.contains(Addr(0)));
        assert!(!c.invalidate(Addr(0), 201));
    }

    #[test]
    fn stats_reset_cascades() {
        let mut c = dl1();
        c.read(Addr(0), 0);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.next_level().stats().accesses(), 0);
    }

    #[test]
    fn two_level_hierarchy_counts_correctly() {
        let l2 = Cache::new(
            CacheConfig::builder()
                .capacity_bytes(2 * 1024 * 1024)
                .associativity(16)
                .read_cycles(12)
                .write_cycles(12)
                .banks(1)
                .build()
                .unwrap(),
            MainMemory::new(100),
        );
        let mut dl1 = Cache::new(CacheConfig::builder().build().unwrap(), l2);
        let t = dl1.read(Addr(0), 0).complete_at;
        // DL1 tag (4) + L2 tag (12) + memory (100) = 116.
        assert_eq!(t, 116);
        // A later read hits DL1 without touching L2 again.
        let t2 = dl1.read(Addr(0), t + 10).complete_at;
        assert_eq!(t2, t + 10 + 4);
        assert_eq!(dl1.next_level().stats().reads, 1);
    }

    #[test]
    fn flush_drains_every_dirty_line() {
        let mut c = dl1();
        let mut t = 0;
        for i in 0..6u64 {
            t = c.write(Addr(i * 64), t).complete_at + 5;
        }
        assert_eq!(c.dirty_lines(), 6);
        let wb_before = c.next_level().stats().writes;
        let (flushed, done) = c.flush_dirty(t);
        assert_eq!(flushed, 6);
        assert!(done > t);
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.next_level().stats().writes, wb_before + 6);
        // Lines remain resident (flush, not invalidate).
        assert!(c.contains(Addr(0)));
        // A second flush is free.
        assert_eq!(c.flush_dirty(done).0, 0);
    }

    #[test]
    fn asymmetric_writes_follow_the_cadence() {
        use crate::config::AsymmetricWrite;
        let cfg = CacheConfig::builder()
            .asymmetric_write(AsymmetricWrite {
                slow_cycles: 6,
                slow_period: 2,
            })
            .build()
            .unwrap();
        let mut c = Cache::new(cfg, MainMemory::new(100));
        // Warm the line, wait out the fill shadow.
        let t = c.read(Addr(0), 0).complete_at + 20;
        // Array writes so far: 1 (the fill). The next write is the 2nd
        // array write -> slow (6 cycles); the one after is fast (2).
        let w1 = c.write(Addr(0), t);
        assert_eq!(w1.complete_at, t + 6);
        let t2 = w1.complete_at + 10;
        let w2 = c.write(Addr(0), t2);
        assert_eq!(w2.complete_at, t2 + 2);
    }

    #[test]
    fn invalid_asymmetric_configs_rejected() {
        use crate::config::AsymmetricWrite;
        assert!(CacheConfig::builder()
            .asymmetric_write(AsymmetricWrite {
                slow_cycles: 1,
                slow_period: 4
            })
            .build()
            .is_err());
        assert!(CacheConfig::builder()
            .asymmetric_write(AsymmetricWrite {
                slow_cycles: 8,
                slow_period: 0
            })
            .build()
            .is_err());
    }

    /// Runs a fixed stream of misses, hits, same-set evictions, same-bank
    /// conflicts, an adversarial tag and re-reads during fill shadows,
    /// returning every outcome.
    fn mixed_stream(c: &mut Cache<MainMemory>) -> Vec<AccessOutcome> {
        let lb = c.config().line_bytes() as u64;
        let stride = c.config().sets() as u64 * lb;
        let addrs = [
            0u64,
            0,
            8,
            64,
            64,
            stride,
            2 * stride,
            0,
            4 * lb,
            4 * lb,
            u64::MAX,
            u64::MAX,
            0,
        ];
        let mut t = 0;
        let mut outs = Vec::new();
        for (i, &raw) in addrs.iter().enumerate() {
            let out = if i % 3 == 2 {
                c.write(Addr(raw), t)
            } else {
                c.read(Addr(raw), t)
            };
            outs.push(out);
            // Alternate between back-to-back issue (fill shadows, bank
            // conflicts) and drained issue.
            t = if i % 2 == 0 {
                out.complete_at + 20
            } else {
                t + 1
            };
        }
        outs
    }

    #[test]
    fn armed_observers_take_the_same_hit_path() {
        // Invariant-armed runs execute the one hit path: same outcomes,
        // same statistics (hits included) and no violations.
        let mut quiet = dl1();
        let expected = mixed_stream(&mut quiet);
        assert!(quiet.stats().read_hits > 0 && quiet.stats().write_hits > 0);
        crate::invariants::take_violations();
        crate::invariants::set_enabled(true);
        let mut armed = dl1();
        let got = mixed_stream(&mut armed);
        crate::invariants::set_enabled(false);
        assert_eq!(got, expected);
        assert_eq!(armed.stats(), quiet.stats());
        assert_eq!(armed.dirty_lines(), quiet.dirty_lines());
        assert_eq!(crate::invariants::take_violations().1, 0);
    }

    #[test]
    fn fast_path_preserves_aware_cadence() {
        use crate::config::AsymmetricWrite;
        let mut c = Cache::new(
            CacheConfig::builder()
                .asymmetric_write(AsymmetricWrite {
                    slow_cycles: 6,
                    slow_period: 3,
                })
                .build()
                .unwrap(),
            MainMemory::new(100),
        );
        // Two fills (array writes 1 and 2), then write hits on drained
        // banks: the slow-write cadence counts fills and hits alike, so
        // every third array write (3, 6, ...) is slow.
        let mut t = c.read(Addr(0), 0).complete_at;
        t = c.read(Addr(64), t).complete_at + 20;
        let mut latencies = Vec::new();
        for i in 0..6u64 {
            let out = c.write(Addr((i % 2) * 64), t);
            assert_eq!(out.served_by, ServedBy::ThisLevel);
            latencies.push(out.complete_at - t);
            t = out.complete_at + 20;
        }
        assert_eq!(latencies, [6, 2, 2, 6, 2, 2]);
    }

    #[test]
    fn invalidated_line_misses_and_its_neighbour_still_hits() {
        let mut c = dl1();
        c.write(Addr(0), 0);
        let t = c.read(Addr(64), 300).complete_at + 20;
        assert!(c.invalidate(Addr(0), t));
        // The invalidated line must miss.
        let out = c.read(Addr(0), t + 10);
        assert_eq!(out.served_by, ServedBy::Lower);
        // The surviving line still hits at the read latency.
        let out2 = c.read(Addr(64), out.complete_at + 20);
        assert_eq!(out2.served_by, ServedBy::ThisLevel);
        assert_eq!(out2.complete_at, out.complete_at + 20 + 4);
    }

    #[test]
    fn hits_under_an_outstanding_fill_of_another_line_wait_only_for_the_bank() {
        // While line 64's fill is in flight, a hit on resident line 0
        // consults the MSHR file but must not wait for the other fill.
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at + 20;
        let miss = c.read(Addr(64), t);
        assert!(miss.complete_at > t + 50);
        let hit = c.read(Addr(0), t + 1);
        assert_eq!(hit.served_by, ServedBy::ThisLevel);
        assert_eq!(hit.complete_at, t + 1 + 4);
    }

    #[test]
    fn telemetry_records_wear_bank_shares_and_occupancy() {
        use crate::telemetry;
        telemetry::take();
        telemetry::set_enabled(true);
        let mut c = dl1();
        c.set_telemetry_component("dl1");
        let mut t = 0;
        for i in 0..8u64 {
            t = c.write(Addr(i * 64), t).complete_at + 1;
        }
        telemetry::set_enabled(false);
        let snap = telemetry::take();
        // Every cold write is a fill (one array write) plus the write hit
        // that follows it (another), so the wear map totals 2 per access.
        let wear = snap.indexed_for("dl1", "set_writes").unwrap();
        assert_eq!(wear.total(), 16);
        assert_eq!(
            snap.indexed_for("dl1", "bank_writes").unwrap().total(),
            wear.total()
        );
        // The tag read of each miss is a bank read.
        assert_eq!(snap.indexed_for("dl1", "bank_reads").unwrap().total(), 8);
        // MSHR occupancy was observed once per miss.
        let occ = snap.histogram("dl1", "mshr_occupancy").unwrap();
        assert_eq!(occ.total, 8);
        // The same run with telemetry off must behave identically (the
        // instrumentation is read-only).
        let mut quiet = dl1();
        let mut t2 = 0;
        for i in 0..8u64 {
            t2 = quiet.write(Addr(i * 64), t2).complete_at + 1;
        }
        assert_eq!(t, t2);
        assert_eq!(c.stats(), quiet.stats());
    }

    #[test]
    fn wide_line_cache_indexing() {
        // 512-bit (64 B) lines vs 256-bit (32 B): adjacent 32 B blocks share
        // a 64 B line.
        let mut c = dl1();
        let t = c.read(Addr(0), 0).complete_at;
        let out = c.read(Addr(32), t);
        assert_eq!(out.served_by, ServedBy::ThisLevel);
        let mut s = sram_dl1();
        let t = s.read(Addr(0), 0).complete_at;
        let out = s.read(Addr(32), t);
        assert_eq!(out.served_by, ServedBy::Lower);
    }
}
