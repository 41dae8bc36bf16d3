//! Mattson Stack Algorithm (MSA) stack-distance profilers.
//!
//! For a K-way associative cache, the profiler keeps — per entry kind — an
//! LRU stack of `K+1` counters (§3.1 of the paper, after Mattson et al.
//! 1970): `counter[i]` counts hits at LRU stack depth `i` (0 = MRU) and
//! `counter[K]` counts misses. Because the counters are gathered against a
//! *shadow* full-LRU tag directory rather than the (partitioned) physical
//! cache, they predict the hit rate the kind would achieve if it were
//! granted any number of ways `n`: the predicted hits are simply
//! `counter[0] + … + counter[n-1]`.
//!
//! The shadow directory can sample every `interval`-th set to bound cost,
//! exactly like hardware auxiliary tag directories.

use csalt_types::{CkptError, CkptReader, CkptWriter, EntryKind};
use serde::{Deserialize, Serialize};

/// The tag an empty shadow-stack slot stands for (no real tag reaches
/// all-ones; see the cache's invalid-tag sentinel). Slots hold tags XOR
/// `EMPTY`, so an empty slot is `0`.
const EMPTY: u64 = u64::MAX;

/// Stack-distance profiler for one cache: two shadow LRU tag directories
/// (data and TLB) plus their `K+1` hit counters.
#[derive(Debug, Clone)]
pub struct StackDistanceProfiler {
    ways: u32,
    sets: u64,
    interval: u64,
    /// Shadow tags XOR [`EMPTY`], one flat array per kind: sampled set
    /// `i` owns slots `i*K .. (i+1)*K`, an MRU-first tag list padded with
    /// `0` (an empty slot). Zero-filled arrays are empty stacks, so
    /// construction takes zeroed memory and touches none of it.
    shadow: [Vec<u64>; 2],
    counters: [Vec<u64>; 2],
}

/// A read-only snapshot of one kind's counters, for the partitioning
/// algorithms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LruStackCounts {
    counts: Vec<u64>,
}

impl LruStackCounts {
    /// Wraps raw counters (length `K+1`; last slot is the miss counter).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 slots are supplied.
    pub fn new(counts: Vec<u64>) -> Self {
        assert!(counts.len() >= 2, "need at least one way plus miss slot");
        Self { counts }
    }

    /// Associativity `K` these counters describe.
    pub fn ways(&self) -> u32 {
        (self.counts.len() - 1) as u32
    }

    /// Hits recorded at stack depth `i`.
    pub fn at(&self, i: u32) -> u64 {
        self.counts[i as usize]
    }

    /// Misses (accesses beyond depth `K`).
    pub fn misses(&self) -> u64 {
        *self.counts.last().expect("nonempty by construction")
    }

    /// Predicted hits were this kind granted `n` ways: `Σ counts[0..n]`.
    ///
    /// # Panics
    ///
    /// Panics if `n > K`.
    pub fn hits_with_ways(&self, n: u32) -> u64 {
        assert!(n <= self.ways(), "cannot grant more ways than exist");
        self.counts[..n as usize].iter().sum()
    }

    /// Total recorded accesses.
    pub fn accesses(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Raw counter slice (length `K+1`).
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }
}

impl StackDistanceProfiler {
    /// Creates a profiler for a `sets`-set, `ways`-way cache, sampling
    /// every `interval`-th set (1 = profile every set).
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `interval > sets`.
    pub fn new(sets: u64, ways: u32, interval: u64) -> Self {
        assert!(sets > 0 && ways > 0 && interval > 0, "zero dimension");
        assert!(interval <= sets, "interval exceeds set count");
        let slots = sets.div_ceil(interval) as usize * ways as usize;
        Self {
            ways,
            sets,
            interval,
            shadow: [vec![0; slots], vec![0; slots]],
            counters: [vec![0; ways as usize + 1], vec![0; ways as usize + 1]],
        }
    }

    /// Associativity being profiled.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Records one access of `kind` to `(set, tag)` and returns the stack
    /// depth observed (`ways` ⇒ shadow miss). Non-sampled sets return
    /// `None` without touching state.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn record(&mut self, set: u64, tag: u64, kind: EntryKind) -> Option<u32> {
        assert!(set < self.sets, "set {set} out of range");
        // Fast path for full profiling (interval 1): no division.
        let idx = if self.interval == 1 {
            set as usize
        } else {
            if !set.is_multiple_of(self.interval) {
                return None;
            }
            (set / self.interval) as usize
        };
        let ways = self.ways as usize;
        let stack = &mut self.shadow[kind.index()][idx * ways..(idx + 1) * ways];
        let stored = tag ^ EMPTY;
        // Tags fill a stack front to back, so the scan stops at the
        // first empty slot.
        let depth = match stack.iter().position(|&t| t == stored || t == 0) {
            Some(pos) if stack[pos] == stored => {
                // Move-to-front as one rotation instead of remove+insert.
                stack[..=pos].rotate_right(1);
                pos as u32
            }
            end => {
                // Miss: the first empty slot — or, in a full stack, the
                // LRU casualty — rotates to the front and takes the new
                // MRU tag.
                stack[..=end.unwrap_or(ways - 1)].rotate_right(1);
                stack[0] = stored;
                self.ways
            }
        };
        self.counters[kind.index()][depth as usize] += 1;
        Some(depth)
    }

    /// Records an access whose stack depth was *estimated externally*
    /// (pseudo-LRU position estimation, §3.4). Depth `>= ways` counts as
    /// a miss.
    pub fn record_estimated(&mut self, kind: EntryKind, depth: u32) {
        let d = depth.min(self.ways) as usize;
        self.counters[kind.index()][d] += 1;
    }

    /// Snapshot of one kind's counters.
    pub fn counts(&self, kind: EntryKind) -> LruStackCounts {
        LruStackCounts::new(self.counters[kind.index()].clone())
    }

    /// Total accesses recorded across both kinds this epoch.
    pub fn accesses(&self) -> u64 {
        self.counters.iter().flatten().sum()
    }

    /// Clears the counters for a new epoch. Shadow tag state is retained
    /// so the next epoch starts warm (matching hardware, where only the
    /// counters are cleared).
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            c.iter_mut().for_each(|v| *v = 0);
        }
    }

    /// Serializes the shadow tag directories and stack counters, with
    /// the profiled geometry as guard words.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u32(self.ways);
        w.u64(self.sets);
        w.u64(self.interval);
        // Slots are held XOR [`EMPTY`], so empty slots serialize as
        // zero and the sparse encode collapses them.
        for kind in &self.shadow {
            w.slice_u64(kind);
        }
        for counters in &self.counters {
            w.slice_u64(counters);
        }
    }

    /// Restores state written by [`StackDistanceProfiler::ckpt_save`],
    /// decoding shadow tags and counters in place; geometry must match
    /// this profiler's.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u32()? != self.ways || r.u64()? != self.sets || r.u64()? != self.interval {
            return Err(CkptError::Mismatch("stack profiler geometry"));
        }
        for kind in &mut self.shadow {
            r.fill_u64(kind)?;
            // A stack fills front to back: no tag may follow an empty slot.
            if kind
                .chunks_exact(self.ways as usize)
                .any(|stack| stack.windows(2).any(|p| p[0] == 0 && p[1] != 0))
            {
                return Err(CkptError::Corrupt("shadow stack has a gap"));
            }
        }
        for counters in &mut self.counters {
            r.fill_u64(counters)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits_mru() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(0, 0xa, EntryKind::Data);
        let d = p.record(0, 0xa, EntryKind::Data);
        assert_eq!(d, Some(0));
        let c = p.counts(EntryKind::Data);
        assert_eq!(c.at(0), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn stack_depth_reflects_intervening_tags() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(3, 1, EntryKind::Data); // miss
        p.record(3, 2, EntryKind::Data); // miss
        p.record(3, 3, EntryKind::Data); // miss
                                         // Tag 1 now at depth 2.
        assert_eq!(p.record(3, 1, EntryKind::Data), Some(2));
        let c = p.counts(EntryKind::Data);
        assert_eq!(c.at(2), 1);
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn capacity_eviction_counts_as_miss() {
        let mut p = StackDistanceProfiler::new(16, 2, 1);
        p.record(0, 1, EntryKind::Tlb);
        p.record(0, 2, EntryKind::Tlb);
        p.record(0, 3, EntryKind::Tlb); // evicts tag 1 from shadow
        assert_eq!(p.record(0, 1, EntryKind::Tlb), Some(2)); // miss depth == ways
        assert_eq!(p.counts(EntryKind::Tlb).misses(), 4);
    }

    #[test]
    fn kinds_have_independent_stacks() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(0, 7, EntryKind::Data);
        // Same tag as TLB is a *miss* in the TLB stack.
        assert_eq!(p.record(0, 7, EntryKind::Tlb), Some(4));
        assert_eq!(p.counts(EntryKind::Data).misses(), 1);
        assert_eq!(p.counts(EntryKind::Tlb).misses(), 1);
        assert_eq!(p.counts(EntryKind::Tlb).at(0), 0);
    }

    #[test]
    fn sampling_skips_unsampled_sets() {
        let mut p = StackDistanceProfiler::new(64, 4, 32);
        assert!(p.record(0, 1, EntryKind::Data).is_some());
        assert!(p.record(1, 1, EntryKind::Data).is_none());
        assert!(p.record(32, 1, EntryKind::Data).is_some());
        assert_eq!(p.accesses(), 2);
    }

    #[test]
    fn hits_with_ways_is_prefix_sum() {
        let c = LruStackCounts::new(vec![10, 5, 3, 1, 7]);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.hits_with_ways(0), 0);
        assert_eq!(c.hits_with_ways(1), 10);
        assert_eq!(c.hits_with_ways(4), 19);
        assert_eq!(c.misses(), 7);
        assert_eq!(c.accesses(), 26);
    }

    #[test]
    #[should_panic(expected = "cannot grant more ways")]
    fn hits_with_too_many_ways_panics() {
        LruStackCounts::new(vec![1, 2]).hits_with_ways(2);
    }

    #[test]
    fn reset_clears_counters_keeps_shadow() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record(0, 9, EntryKind::Data);
        p.reset_counters();
        assert_eq!(p.accesses(), 0);
        // Shadow retained: same tag now hits at MRU.
        assert_eq!(p.record(0, 9, EntryKind::Data), Some(0));
    }

    #[test]
    fn estimated_depths_feed_counters() {
        let mut p = StackDistanceProfiler::new(16, 4, 1);
        p.record_estimated(EntryKind::Data, 2);
        p.record_estimated(EntryKind::Data, 99); // clamps to miss
        let c = p.counts(EntryKind::Data);
        assert_eq!(c.at(2), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn counters_sum_matches_access_count() {
        let mut p = StackDistanceProfiler::new(8, 4, 1);
        for i in 0..1000u64 {
            let kind = if i % 3 == 0 {
                EntryKind::Tlb
            } else {
                EntryKind::Data
            };
            p.record(i % 8, (i * 7) % 13, kind);
        }
        assert_eq!(p.accesses(), 1000);
        let total = p.counts(EntryKind::Data).accesses() + p.counts(EntryKind::Tlb).accesses();
        assert_eq!(total, 1000);
    }
}
