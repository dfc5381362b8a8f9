//! The flat residency array of a set-associative cache.

use crate::addr::Cycle;
use crate::replacement::{self, ReplacementPolicy};

/// Every set's tag, valid, dirty and replacement state, held in flat
/// structure-of-arrays form: per-way arrays indexed `set * ways + way`
/// and per-set bitmasks, one bit per way.
///
/// It stores no data payload: the simulator is timing-only (the
/// functional values live in the workload itself), exactly like gem5's
/// atomic tag arrays.
///
/// # Example
///
/// ```
/// use sttcache_mem::{ReplacementPolicy, Residency};
///
/// let mut sets = Residency::new(4, 2, ReplacementPolicy::Lru);
/// assert_eq!(sets.find(1, 7), None);
/// assert_eq!(sets.victim(1), 0);
/// sets.fill(1, 0, 7, false, 10);
/// assert_eq!(sets.find(1, 7), Some(0));
/// assert!(!sets.contains(2, 7));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residency {
    ways: usize,
    policy: ReplacementPolicy,
    /// The valid mask of a full set.
    full: u64,
    tags: Vec<u64>,
    /// Last-use stamp per way (LRU, and tree-PLRU's fallback).
    last_use: Vec<Cycle>,
    /// Insertion stamp per way (FIFO).
    inserted_at: Vec<Cycle>,
    valid: Vec<u64>,
    dirty: Vec<u64>,
    /// Tree-PLRU node bits per set; empty unless the tree is in use.
    plru: Vec<u64>,
    /// Xorshift state per set; empty unless the policy is random.
    rng: Vec<u64>,
}

impl Residency {
    /// An empty array of `sets` sets of `ways` ways under `policy`. The
    /// random policy seeds set `i`'s stream with `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or above 64 (one mask bit per way).
    pub fn new(sets: usize, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(ways > 0, "a set needs at least one way");
        assert!(ways <= 64, "a set holds at most 64 ways");
        Residency {
            ways,
            policy,
            full: u64::MAX >> (64 - ways),
            tags: vec![0; sets * ways],
            last_use: vec![0; sets * ways],
            inserted_at: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            plru: if replacement::uses_tree(policy, ways) {
                vec![0; sets]
            } else {
                Vec::new()
            },
            rng: if policy == ReplacementPolicy::Random {
                (1..=sets as u64).map(replacement::random_seed).collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.valid.len()
    }

    /// The way of `set` holding `tag`, if any: the hit scan of an access,
    /// which walks the valid ways only. No state changes.
    #[inline]
    pub fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let mut mask = self.valid[set];
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if self.tags[base + way] == tag {
                return Some(way);
            }
            mask &= mask - 1;
        }
        None
    }

    /// Whether `set` holds `tag` (no state change).
    pub fn contains(&self, set: usize, tag: u64) -> bool {
        self.find(set, tag).is_some()
    }

    /// The victim way of a miss in `set`: the first invalid way or, in a
    /// full set, the policy's choice (the LRU/FIFO minimum stamp, read in
    /// place, the tree-PLRU way or a random draw). An access looks its set
    /// up once with [`Residency::find`] and, on a miss, asks for the
    /// victim here; the tags are not scanned again.
    ///
    /// The random policy draws from the set's stream on every full-set
    /// miss. A miss that goes on to install a line draws again in
    /// [`Residency::install_victim`] and fills that second way, while a
    /// miss merged into an in-flight fill stops after the first draw. That
    /// is the stream the cache always produced: it used to look the set up
    /// once per access and again before installing, drawing each time.
    pub fn victim(&mut self, set: usize) -> usize {
        let free = !self.valid[set] & self.full;
        if free != 0 {
            return free.trailing_zeros() as usize;
        }
        if !self.plru.is_empty() {
            return replacement::tree_victim(self.plru[set], self.ways);
        }
        if !self.rng.is_empty() {
            return replacement::random_draw(&mut self.rng[set], self.ways);
        }
        let base = set * self.ways;
        let stamps = if self.policy == ReplacementPolicy::Fifo {
            &self.inserted_at[base..base + self.ways]
        } else {
            &self.last_use[base..base + self.ways]
        };
        let mut oldest = (u64::MAX, 0usize);
        for (way, &stamp) in stamps.iter().enumerate() {
            if stamp < oldest.0 {
                oldest = (stamp, way);
            }
        }
        oldest.1
    }

    /// The way a miss installs into, given the victim it was first given:
    /// that victim, except that a full set under the random policy draws
    /// again (see [`Residency::victim`]).
    #[inline]
    pub fn install_victim(&mut self, set: usize, first: usize) -> usize {
        if !self.rng.is_empty() && self.valid[set] == self.full {
            replacement::random_draw(&mut self.rng[set], self.ways)
        } else {
            first
        }
    }

    /// The tag of `way` in `set` if it holds dirty data that a fill into
    /// the way must write back first.
    #[inline]
    pub fn dirty_tag(&self, set: usize, way: usize) -> Option<u64> {
        ((self.dirty[set] >> way) & 1 == 1).then(|| self.tags[set * self.ways + way])
    }

    /// Marks `way` of `set` as used at cycle `now` (replacement update)
    /// and optionally dirty.
    ///
    /// `way` must be valid (checked in debug builds; the cache only
    /// touches a way [`Residency::find`] returned or it just filled).
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize, now: Cycle, make_dirty: bool) {
        debug_assert!((self.valid[set] >> way) & 1 == 1, "touching an invalid way");
        self.last_use[set * self.ways + way] = now;
        self.dirty[set] |= u64::from(make_dirty) << way;
        self.touch_tree(set, way);
    }

    /// Installs `tag` into `way` of `set` at cycle `now`, replacing
    /// whatever was there. `dirty` sets the initial dirty bit.
    #[inline]
    pub fn fill(&mut self, set: usize, way: usize, tag: u64, dirty: bool, now: Cycle) {
        let i = set * self.ways + way;
        self.tags[i] = tag;
        self.last_use[i] = now;
        self.inserted_at[i] = now;
        self.valid[set] |= 1 << way;
        self.dirty[set] = (self.dirty[set] & !(1 << way)) | (u64::from(dirty) << way);
        self.touch_tree(set, way);
    }

    #[inline]
    fn touch_tree(&mut self, set: usize, way: usize) {
        if !self.plru.is_empty() {
            replacement::tree_touch(&mut self.plru[set], way, self.ways);
        }
    }

    /// Invalidates the way of `set` holding `tag`, returning whether it
    /// was dirty, or `None` if the tag is not present.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<bool> {
        let way = self.find(set, tag)?;
        let was_dirty = (self.dirty[set] >> way) & 1 == 1;
        self.valid[set] &= !(1 << way);
        self.dirty[set] &= !(1 << way);
        Some(was_dirty)
    }

    /// The dirty-way mask of `set`.
    pub fn dirty_mask(&self, set: usize) -> u64 {
        self.dirty[set]
    }

    /// The tag held by `way` of `set` (meaningful only for valid ways).
    pub fn tag(&self, set: usize, way: usize) -> u64 {
        self.tags[set * self.ways + way]
    }

    /// Clears the dirty bit of `way` in `set` (after a write-back).
    pub fn clean(&mut self, set: usize, way: usize) {
        self.dirty[set] &= !(1 << way);
    }

    /// Number of dirty lines held across all sets.
    pub fn dirty_lines(&self) -> usize {
        self.dirty.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Iterates over the valid `(set, tag, dirty)` lines, set-major and in
    /// way order.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, u64, bool)> + '_ {
        (0..self.sets()).flat_map(move |set| {
            (0..self.ways)
                .filter(move |&way| (self.valid[set] >> way) & 1 == 1)
                .map(move |way| (set, self.tag(set, way), (self.dirty[set] >> way) & 1 == 1))
        })
    }

    /// Structural validity of every set (see [`Residency::check_set`]).
    pub fn check_invariants(&self, now: Cycle) {
        for set in 0..self.sets() {
            self.check_set(set, now);
        }
    }

    /// Structural validity of one set, reported through
    /// [`invariants`](crate::invariants): no way may be dirty without
    /// being valid, no tag may occupy two valid ways (a double fill would
    /// make the hit scan order-dependent), and no way may have been used
    /// before it was inserted. None of these depends on global access
    /// order, so they stay sound with overlapping operations
    /// (non-blocking prefetch fills stamp sets "in the future" relative to
    /// the next demand access).
    pub fn check_set(&self, set: usize, now: Cycle) {
        let valid = self.valid[set];
        if self.dirty[set] & !valid != 0 {
            crate::invariants::report(
                "set",
                now,
                None,
                format!(
                    "set {set}: dirty ways {:#b} outside valid ways {valid:#b}",
                    self.dirty[set]
                ),
            );
        }
        let base = set * self.ways;
        let valid_ways = || (0..self.ways).filter(move |&w| (valid >> w) & 1 == 1);
        for i in valid_ways() {
            let tag = self.tags[base + i];
            if self.last_use[base + i] < self.inserted_at[base + i] {
                crate::invariants::report(
                    "set",
                    now,
                    Some(tag),
                    format!(
                        "set {set} way {i}: used at {} before insertion at {}",
                        self.last_use[base + i],
                        self.inserted_at[base + i]
                    ),
                );
            }
            for j in valid_ways().filter(|&j| j > i) {
                if self.tags[base + j] == tag {
                    crate::invariants::report(
                        "set",
                        now,
                        Some(tag),
                        format!("set {set}: tag duplicated in ways {i} and {j}"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_set(ways: usize) -> Residency {
        Residency::new(1, ways, ReplacementPolicy::Lru)
    }

    #[test]
    fn empty_set_misses_with_clean_victim() {
        let mut set = one_set(2);
        assert_eq!(set.find(0, 42), None);
        assert_eq!(set.victim(0), 0);
        assert_eq!(set.dirty_tag(0, 0), None);
    }

    #[test]
    fn fill_then_hit() {
        let mut set = one_set(2);
        set.fill(0, 0, 42, false, 1);
        assert_eq!(set.find(0, 42), Some(0));
        assert!(!set.contains(0, 43));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut set = one_set(2);
        set.fill(0, 0, 1, false, 1);
        set.fill(0, 1, 2, false, 2);
        set.touch(0, 0, 3, false); // tag 1 is now MRU
        assert_eq!(set.victim(0), 1);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut set = Residency::new(1, 2, ReplacementPolicy::Fifo);
        set.fill(0, 0, 1, false, 1);
        set.fill(0, 1, 2, false, 2);
        set.touch(0, 0, 50, false); // does not save tag 1 under FIFO
        assert_eq!(set.victim(0), 0);
    }

    #[test]
    fn plru_never_victimizes_the_most_recent() {
        let mut set = Residency::new(1, 4, ReplacementPolicy::TreePlru);
        for (i, tag) in [10, 20, 30, 40].iter().enumerate() {
            set.fill(0, i, *tag, false, i as u64);
        }
        set.touch(0, 2, 100, false);
        assert_ne!(set.victim(0), 2);
    }

    #[test]
    fn random_victims_are_reproducible() {
        let run = || {
            let mut set = Residency::new(1, 4, ReplacementPolicy::Random);
            for (i, tag) in [10, 20, 30, 40].iter().enumerate() {
                set.fill(0, i, *tag, false, i as u64);
            }
            let mut victims = Vec::new();
            for _ in 0..8 {
                let victim = set.victim(0);
                victims.push(victim);
                victims.push(set.install_victim(0, victim));
            }
            victims
        };
        let victims = run();
        assert_eq!(victims, run());
        // The install draw is a fresh one, not a copy of the first.
        assert!(victims.chunks(2).any(|pair| pair[0] != pair[1]));
    }

    #[test]
    fn dirty_victim_reports_writeback_tag() {
        let mut set = one_set(1);
        set.fill(0, 0, 5, false, 1);
        set.touch(0, 0, 2, true);
        assert_eq!(set.victim(0), 0);
        assert_eq!(set.dirty_tag(0, 0), Some(5));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut set = one_set(2);
        set.fill(0, 0, 1, true, 1);
        assert_eq!(set.invalidate(0, 1), Some(true));
        assert_eq!(set.invalidate(0, 1), None);
        assert!(!set.contains(0, 1));
        assert_eq!(set.dirty_lines(), 0);
    }

    #[test]
    fn clean_clears_dirty_bit() {
        let mut set = one_set(1);
        set.fill(0, 0, 9, true, 1);
        set.clean(0, 0);
        assert_eq!(set.victim(0), 0);
        assert_eq!(set.dirty_tag(0, 0), None);
    }

    #[test]
    fn invalid_way_preferred_as_victim() {
        let mut set = one_set(4);
        set.fill(0, 0, 1, false, 1);
        set.fill(0, 1, 2, false, 2);
        assert_eq!(set.victim(0), 2);
    }

    #[test]
    fn lru_tie_breaks_by_way_index() {
        let mut set = one_set(2);
        set.fill(0, 0, 1, false, 5);
        set.fill(0, 1, 2, false, 5);
        assert_eq!(set.victim(0), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid way")]
    fn touch_invalid_way_panics() {
        let mut set = one_set(1);
        set.touch(0, 0, 1, false);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = one_set(0);
    }

    #[test]
    fn check_invariants_flags_duplicate_tags() {
        crate::invariants::take_violations();
        let mut set = Residency::new(4, 2, ReplacementPolicy::Lru);
        set.fill(3, 0, 7, false, 5);
        set.fill(3, 1, 7, false, 6); // double fill: same tag in two ways
        set.check_invariants(10);
        let (list, _) = crate::invariants::take_violations();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].component, "set");
        assert_eq!(list[0].cycle, 10);
        assert_eq!(list[0].addr, Some(7));
        assert!(list[0].detail.contains("set 3"), "{}", list[0].detail);
        assert!(list[0].detail.contains("duplicated"), "{}", list[0].detail);

        // A clean array reports nothing.
        let mut ok = one_set(2);
        ok.fill(0, 0, 1, false, 1);
        ok.fill(0, 1, 2, true, 2);
        ok.touch(0, 0, 9, false);
        ok.check_invariants(20);
        assert_eq!(crate::invariants::take_violations().1, 0);
    }

    #[test]
    fn iter_valid_lists_contents() {
        let mut sets = Residency::new(2, 3, ReplacementPolicy::Lru);
        sets.fill(0, 0, 10, false, 1);
        sets.fill(1, 2, 20, true, 2);
        sets.fill(1, 0, 30, false, 3);
        let v: Vec<_> = sets.iter_valid().collect();
        assert_eq!(v, vec![(0, 10, false), (1, 30, false), (1, 20, true)]);
        assert_eq!(sets.dirty_lines(), 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut sets = Residency::new(2, 1, ReplacementPolicy::Lru);
        sets.fill(1, 0, 5, true, 1);
        assert!(sets.contains(1, 5));
        assert!(!sets.contains(0, 5));
        assert_eq!(sets.victim(0), 0);
        assert_eq!(sets.dirty_tag(0, 0), None);
    }
}
