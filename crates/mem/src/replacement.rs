//! Replacement policies.
//!
//! The paper's platform uses true LRU; the alternatives here (FIFO,
//! tree-PLRU, pseudo-random) are the policies a hardware team would weigh
//! against it — true LRU is expensive above a few ways — and are swept by
//! the ablation bench to show the paper's results are not an LRU artifact.

/// Victim-selection policy of a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ReplacementPolicy {
    /// True least-recently-used (paper configuration).
    #[default]
    Lru,
    /// First-in first-out (insertion order, untouched by hits).
    Fifo,
    /// Tree-based pseudo-LRU (single bit per tree node; the common
    /// hardware approximation for 4+ ways). Falls back to true LRU for
    /// non-power-of-two way counts.
    TreePlru,
    /// Pseudo-random (xorshift; deterministic per set, so simulations
    /// stay reproducible).
    Random,
}

impl ReplacementPolicy {
    /// All policies, for sweeps.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::TreePlru => "tree-plru",
            ReplacementPolicy::Random => "random",
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether `policy` keeps tree-PLRU node bits for a `ways`-way set.
/// Tree-PLRU falls back to true LRU for non-power-of-two way counts (and
/// for one way, where there is no tree).
pub(crate) fn uses_tree(policy: ReplacementPolicy, ways: usize) -> bool {
    policy == ReplacementPolicy::TreePlru && ways.is_power_of_two() && ways > 1
}

/// Records a touch of `way` (hit or fill) in a set's tree-PLRU node bits.
/// Node 1 is the root, the children of `n` are `2n` and `2n+1`, and a set
/// bit means "the hot path went left, so the victim is on the right".
pub(crate) fn tree_touch(bits: &mut u64, way: usize, ways: usize) {
    // Flip the path bits so they point *away* from `way`.
    let levels = ways.trailing_zeros();
    let mut node = 1usize;
    for level in (0..levels).rev() {
        let went_right = (way >> level) & 1 == 1;
        if went_right {
            *bits &= !(1 << node);
        } else {
            *bits |= 1 << node;
        }
        node = node * 2 + usize::from(went_right);
    }
}

/// The way a set's tree-PLRU node bits point at.
pub(crate) fn tree_victim(bits: u64, ways: usize) -> usize {
    let mut node = 1usize;
    let mut way = 0usize;
    for _ in 0..ways.trailing_zeros() {
        let bit = ((bits >> node) & 1) as usize;
        way = (way << 1) | bit;
        node = node * 2 + bit;
    }
    way
}

/// The random policy's initial stream state for a set seeded with `seed`
/// (the set index plus one). The golden-ratio mix gives adjacent sets
/// distinct streams.
pub(crate) fn random_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Advances a set's xorshift64* stream and draws a way out of `ways`.
pub(crate) fn random_draw(state: &mut u64, ways: usize) -> usize {
    *state ^= *state >> 12;
    *state ^= *state << 25;
    *state ^= *state >> 27;
    (state.wrapping_mul(0x2545F4914F6CDD1D) >> 33) as usize % ways
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Residency;

    /// The victim a one-set cache of `ways` ways picks for a fresh tag
    /// after way `i` was filled at `inserted[i]` and last used at
    /// `used[i]`.
    fn victim(policy: ReplacementPolicy, inserted: &[u64], used: &[u64]) -> usize {
        let mut set = Residency::new(1, inserted.len(), policy);
        for (way, (&ins, &use_at)) in inserted.iter().zip(used).enumerate() {
            set.fill(0, way, way as u64 + 10, false, ins);
            set.touch(0, way, use_at, false);
        }
        assert_eq!(set.find(0, 99), None);
        set.victim(0)
    }

    #[test]
    fn lru_picks_the_oldest_use() {
        assert_eq!(victim(ReplacementPolicy::Lru, &[0, 1, 2], &[5, 2, 9]), 1);
    }

    #[test]
    fn fifo_picks_the_oldest_insert_regardless_of_use() {
        assert_eq!(
            victim(ReplacementPolicy::Fifo, &[3, 1, 2], &[100, 200, 150]),
            1
        );
    }

    #[test]
    fn plru_avoids_the_most_recent_way() {
        let mut bits = 0;
        for _ in 0..16 {
            let v = tree_victim(bits, 4);
            tree_touch(&mut bits, v, 4);
            // Immediately after touching v it is never the next victim.
            assert_ne!(tree_victim(bits, 4), v);
        }
    }

    #[test]
    fn plru_cycles_through_all_ways() {
        let mut bits = 0;
        let mut seen = [false; 4];
        for _ in 0..8 {
            let v = tree_victim(bits, 4);
            seen[v] = true;
            tree_touch(&mut bits, v, 4);
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let sequence = |seed: u64| -> Vec<usize> {
            let mut st = random_seed(seed);
            (0..32).map(|_| random_draw(&mut st, 8)).collect()
        };
        let a = sequence(42);
        assert_eq!(a, sequence(42));
        assert_ne!(a, sequence(43));
        assert!(a.iter().all(|&v| v < 8));
        // Not stuck on one way.
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() > 2);
    }

    #[test]
    fn plru_non_power_of_two_falls_back_to_lru() {
        assert!(!uses_tree(ReplacementPolicy::TreePlru, 3));
        assert_eq!(
            victim(ReplacementPolicy::TreePlru, &[0, 0, 0], &[5, 2, 9]),
            1
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::TreePlru.name(), "tree-plru");
        assert_eq!(ReplacementPolicy::ALL.len(), 4);
    }
}
