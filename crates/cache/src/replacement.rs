//! Replacement policies over flat per-set state: True-LRU, NRU,
//! binary-tree pseudo-LRU and RRIP.
//!
//! CSALT's partitioning algorithms need two things from the replacement
//! policy (§3.1, §3.4 of the paper):
//!
//! 1. victim selection *restricted to a subset of ways* (the partition's
//!    range for the incoming line's kind), and
//! 2. an estimate of the accessed way's LRU *stack position*, which feeds
//!    the stack-distance profilers. With True-LRU the position is exact;
//!    for NRU and BT-PLRU the paper leverages Kędzierski et al. (IPDPS'10)
//!    to estimate it, at a small accuracy cost.
//!
//! [`Policy`] provides both operations for one structure. It owns no
//! per-set data: each call borrows the set's state words (`&mut [u64]`,
//! [`Policy::words`] long), so a structure keeps every set's state in one
//! flat array — next to the set's tags — and no set owns a heap
//! allocation. The state words per set are:
//!
//! | policy   | words      | layout                                    |
//! |----------|------------|-------------------------------------------|
//! | True-LRU | `1 + ways` | touch clock, then one stamp per way       |
//! | NRU      | 1          | not-recently-used bits                    |
//! | BT-PLRU  | 1          | internal-node direction bits, heap order  |
//! | RRIP     | `ways`     | one re-reference prediction value per way |

use csalt_types::ReplacementKind;

/// Bitmask of candidate ways (bit *i* set ⇒ way *i* may be chosen).
pub type WayMask = u64;

/// Builds a mask covering ways `lo..hi` (exclusive upper bound).
///
/// # Panics
///
/// Panics if `hi < lo` or `hi > 64`.
#[inline]
pub fn way_range_mask(lo: u32, hi: u32) -> WayMask {
    assert!(hi >= lo && hi <= 64, "invalid way range {lo}..{hi}");
    if hi == lo {
        return 0;
    }
    let width = hi - lo;
    if width == 64 {
        u64::MAX
    } else {
        ((1u64 << width) - 1) << lo
    }
}

/// One structure's replacement policy: the [`ReplacementKind`] and the
/// associativity, chosen once at construction.
///
/// Every operation takes the set's state words, laid out as the module
/// docs describe and initialized by [`Policy::initial_state`]:
/// [`touch`] (on hit), [`on_fill`] (on fill), [`victim`] (choose a way
/// to evict from a candidate mask) and [`stack_position`] (exact or
/// estimated LRU stack depth of a way).
///
/// [`touch`]: Policy::touch
/// [`on_fill`]: Policy::on_fill
/// [`victim`]: Policy::victim
/// [`stack_position`]: Policy::stack_position
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    kind: ReplacementKind,
    ways: u32,
}

impl Policy {
    /// The policy `kind` over `ways`-way sets.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0, exceeds 64, or (for BT-PLRU) is not a power
    /// of two.
    pub fn new(kind: ReplacementKind, ways: u32) -> Self {
        assert!((1..=64).contains(&ways), "ways must be in 1..=64");
        if kind == ReplacementKind::BtPlru {
            assert!(
                ways.is_power_of_two(),
                "BT-PLRU requires power-of-two associativity"
            );
        }
        Self { kind, ways }
    }

    /// State words per set.
    pub fn words(self) -> usize {
        match self.kind {
            ReplacementKind::TrueLru => 1 + self.ways as usize,
            ReplacementKind::Nru | ReplacementKind::BtPlru => 1,
            ReplacementKind::Rrip => self.ways as usize,
        }
    }

    /// A one-byte code for the kind, written into checkpoints as a guard.
    pub fn ckpt_code(self) -> u8 {
        match self.kind {
            ReplacementKind::TrueLru => 0,
            ReplacementKind::Nru => 1,
            ReplacementKind::BtPlru => 2,
            ReplacementKind::Rrip => 3,
        }
    }

    /// The state words of a fresh set.
    pub fn initial_state(self) -> Vec<u64> {
        let ways = u64::from(self.ways);
        match self.kind {
            // Initial order: way 0 is MRU ... way K-1 is LRU; with an
            // empty set, victims come from the high ways first.
            ReplacementKind::TrueLru => std::iter::once(ways).chain((1..=ways).rev()).collect(),
            ReplacementKind::Nru => vec![way_range_mask(0, self.ways)],
            ReplacementKind::BtPlru => vec![0],
            // Everything starts distant, so cold ways are victims.
            ReplacementKind::Rrip => vec![3; self.ways as usize],
        }
    }

    /// Marks `way` most-recently-used (called on every hit).
    #[inline]
    pub fn touch(self, state: &mut [u64], way: u32) {
        debug_assert!(way < self.ways, "way {way} out of range");
        match self.kind {
            ReplacementKind::TrueLru => {
                // Exact recency via monotonic stamps: a touch writes one
                // stamp, the victim is the minimum-stamp way. Stamps are
                // always distinct, so the order is total — the semantics
                // of an MRU list without moving elements on every touch.
                state[0] += 1;
                state[1 + way as usize] = state[0];
            }
            ReplacementKind::Nru => {
                let bits = &mut state[0];
                *bits &= !(1u64 << way);
                // When every way becomes recently-used, reset all other
                // bits, keeping this way marked used (standard NRU).
                if *bits == 0 {
                    *bits = way_range_mask(0, self.ways) & !(1u64 << way);
                }
            }
            ReplacementKind::BtPlru => {
                // Walk root → leaf, setting each node to point *away*
                // from the touched way.
                let tree = &mut state[0];
                let mut node = 1u32; // heap index, root = 1
                for level in (0..self.ways.trailing_zeros()).rev() {
                    let bit = (way >> level) & 1;
                    if bit == 0 {
                        *tree |= 1u64 << node; // we went left; point right
                    } else {
                        *tree &= !(1u64 << node); // we went right; point left
                    }
                    node = node * 2 + bit;
                }
            }
            ReplacementKind::Rrip => {
                // Hit promotion: predict near-immediate re-reference.
                state[way as usize] = 0;
            }
        }
    }

    /// Fill hook: establishes the inserted way's replacement state.
    /// For recency policies, `distant` leaves the way at its inherited
    /// (victim) recency — the LIP/BIP realization — while a normal fill
    /// touches it to MRU. For RRIP, `distant` is BRRIP's RRPV-3
    /// insertion and normal is SRRIP's RRPV-2 long insertion.
    #[inline]
    pub fn on_fill(self, state: &mut [u64], way: u32, distant: bool) {
        if self.kind == ReplacementKind::Rrip {
            state[way as usize] = if distant { 3 } else { 2 };
        } else if !distant {
            self.touch(state, way);
        }
    }

    /// Chooses the eviction victim among the ways allowed by `mask`.
    ///
    /// For True-LRU this is the least-recently-used allowed way. For NRU,
    /// the lowest allowed way with its NRU bit set (resetting allowed bits
    /// if none is set — the partition-local variant of NRU's global reset).
    /// For BT-PLRU, the tree is walked toward the pointed-to half whenever
    /// that half still contains an allowed way. For RRIP, the lowest
    /// allowed way predicted distant, aging the allowed ways until one is.
    ///
    /// # Panics
    ///
    /// Panics if `mask` selects no way within range.
    #[inline]
    pub fn victim(self, state: &mut [u64], mask: WayMask) -> u32 {
        let mask = mask & way_range_mask(0, self.ways);
        assert!(mask != 0, "victim mask selects no way");
        match self.kind {
            ReplacementKind::TrueLru => {
                // The lowest allowed way with the minimum stamp.
                let stamps = &state[1..];
                let mut rest = mask;
                let mut best = rest.trailing_zeros();
                let mut best_stamp = stamps[best as usize];
                rest &= rest - 1;
                while rest != 0 {
                    let w = rest.trailing_zeros();
                    let s = stamps[w as usize];
                    if s < best_stamp {
                        best = w;
                        best_stamp = s;
                    }
                    rest &= rest - 1;
                }
                best
            }
            ReplacementKind::Nru => {
                let bits = &mut state[0];
                if *bits & mask == 0 {
                    // All allowed ways recently used: age them.
                    *bits |= mask;
                }
                (*bits & mask).trailing_zeros()
            }
            ReplacementKind::BtPlru => {
                let tree = state[0];
                let mut node = 1u32;
                let mut way = 0u32;
                for level in (0..self.ways.trailing_zeros()).rev() {
                    let point_right = (tree >> node) & 1 == 1;
                    let half = 1u32 << level;
                    let go_right = if point_right {
                        mask & way_range_mask(way + half, way + 2 * half) != 0
                    } else {
                        // Pointed left, but only if an allowed way exists.
                        mask & way_range_mask(way, way + half) == 0
                    };
                    if go_right {
                        way += half;
                        node = node * 2 + 1;
                    } else {
                        node *= 2;
                    }
                }
                debug_assert!(mask & (1u64 << way) != 0);
                way
            }
            ReplacementKind::Rrip => {
                let rrpv = &mut state[..self.ways as usize];
                loop {
                    let mut rest = mask;
                    while rest != 0 {
                        let w = rest.trailing_zeros();
                        if rrpv[w as usize] >= 3 {
                            return w;
                        }
                        rest &= rest - 1;
                    }
                    let mut rest = mask;
                    while rest != 0 {
                        rrpv[rest.trailing_zeros() as usize] += 1;
                        rest &= rest - 1;
                    }
                }
            }
        }
    }

    /// Exact (True-LRU) or estimated (NRU / BT-PLRU / RRIP, per
    /// Kędzierski et al.) LRU stack position of `way`; 0 is MRU,
    /// `ways-1` is LRU.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn stack_position(self, state: &[u64], way: u32) -> u32 {
        assert!(way < self.ways, "way {way} out of range");
        match self.kind {
            ReplacementKind::TrueLru => {
                // Exact depth: the number of ways touched more recently.
                let stamps = &state[1..=self.ways as usize];
                let s = stamps[way as usize];
                stamps.iter().filter(|&&o| o > s).count() as u32
            }
            ReplacementKind::Nru => {
                // Recently-used ways are estimated to occupy the upper
                // (MRU) half of the stack, others the lower half; within a
                // half, order by way index for determinism.
                let bits = state[0];
                let used_mask = way_range_mask(0, self.ways) & !bits;
                if bits & (1u64 << way) == 0 {
                    rank_within(used_mask, way)
                } else {
                    used_mask.count_ones() + rank_within(bits, way)
                }
            }
            ReplacementKind::BtPlru => {
                // Identifier-based estimate: each tree node on the path
                // that points *toward* this way's half counts as evidence
                // the way is closer to being the victim; accumulate
                // binary weights to place it in the stack (Kędzierski et
                // al. §IV-B).
                let tree = state[0];
                let mut node = 1u32;
                let mut position = 0u32;
                for level in (0..self.ways.trailing_zeros()).rev() {
                    let bit = (way >> level) & 1;
                    let points_right = (tree >> node) & 1 == 1;
                    if (bit == 1) == points_right {
                        position += 1u32 << level;
                    }
                    node = node * 2 + bit;
                }
                position
            }
            ReplacementKind::Rrip => {
                // Estimate: quarter of the stack per RRPV step, ranked
                // by way index within a step for determinism.
                let rrpv = &state[..self.ways as usize];
                let v = rrpv[way as usize];
                let rank = rrpv[..way as usize].iter().filter(|&&o| o == v).count() as u32;
                (v as u32 * self.ways / 4 + rank).min(self.ways - 1)
            }
        }
    }
}

/// Rank (0-based) of `way` among the set bits of `mask`.
#[inline]
fn rank_within(mask: WayMask, way: u32) -> u32 {
    (mask & ((1u64 << way) - 1)).count_ones()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A policy plus one set's state, for driving the policy directly.
    struct Set {
        policy: Policy,
        state: Vec<u64>,
    }

    impl Set {
        fn new(kind: ReplacementKind, ways: u32) -> Self {
            let policy = Policy::new(kind, ways);
            Self {
                policy,
                state: policy.initial_state(),
            }
        }

        fn touch(&mut self, way: u32) {
            self.policy.touch(&mut self.state, way);
        }

        fn on_fill(&mut self, way: u32, distant: bool) {
            self.policy.on_fill(&mut self.state, way, distant);
        }

        fn victim(&mut self, mask: WayMask) -> u32 {
            self.policy.victim(&mut self.state, mask)
        }

        fn stack_position(&self, way: u32) -> u32 {
            self.policy.stack_position(&self.state, way)
        }
    }

    #[test]
    fn way_range_mask_basics() {
        assert_eq!(way_range_mask(0, 4), 0b1111);
        assert_eq!(way_range_mask(2, 5), 0b11100);
        assert_eq!(way_range_mask(3, 3), 0);
        assert_eq!(way_range_mask(0, 64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "invalid way range")]
    fn way_range_mask_rejects_inverted() {
        way_range_mask(5, 2);
    }

    #[test]
    fn state_words_match_the_layout() {
        for (kind, words) in [
            (ReplacementKind::TrueLru, 9),
            (ReplacementKind::Nru, 1),
            (ReplacementKind::BtPlru, 1),
            (ReplacementKind::Rrip, 8),
        ] {
            let p = Policy::new(kind, 8);
            assert_eq!(p.words(), words, "{kind:?}");
            assert_eq!(p.initial_state().len(), words, "{kind:?}");
        }
        assert_eq!(
            Policy::new(ReplacementKind::TrueLru, 4).initial_state(),
            vec![4, 4, 3, 2, 1]
        );
    }

    #[test]
    fn true_lru_exact_order() {
        let mut r = Set::new(ReplacementKind::TrueLru, 4);
        r.touch(2); // order: 2 0 1 3
        r.touch(1); // order: 1 2 0 3
        assert_eq!(r.stack_position(1), 0);
        assert_eq!(r.stack_position(2), 1);
        assert_eq!(r.stack_position(0), 2);
        assert_eq!(r.stack_position(3), 3);
        assert_eq!(r.victim(way_range_mask(0, 4)), 3);
        // Restricted to ways {0,1}: LRU among them is 0.
        assert_eq!(r.victim(0b0011), 0);
    }

    #[test]
    fn true_lru_victim_respects_partition() {
        let mut r = Set::new(ReplacementKind::TrueLru, 8);
        for w in [7, 6, 5, 4, 3, 2, 1, 0] {
            r.touch(w); // 0 is now MRU, 7 LRU
        }
        // Only ways 0..4 allowed: victim must be way 3 (the LRU of those).
        assert_eq!(r.victim(way_range_mask(0, 4)), 3);
        // Only ways 4..8 allowed: victim must be way 7.
        assert_eq!(r.victim(way_range_mask(4, 8)), 7);
    }

    #[test]
    fn nru_victims_prefer_unused() {
        let mut r = Set::new(ReplacementKind::Nru, 4);
        r.touch(0);
        r.touch(1);
        // Ways 2,3 still "not recently used".
        assert_eq!(r.victim(way_range_mask(0, 4)), 2);
        r.touch(2);
        r.touch(3); // all used → internal reset keeps 3 used
        let v = r.victim(way_range_mask(0, 4));
        assert_ne!(v, 3, "most recent way should not be the victim");
    }

    #[test]
    fn nru_partition_local_reset() {
        let mut r = Set::new(ReplacementKind::Nru, 4);
        for w in 0..4 {
            r.touch(w);
        }
        // After global use, restricting to {0,1} must still yield a victim.
        let v = r.victim(0b0011);
        assert!(v < 2);
    }

    #[test]
    fn nru_stack_positions_rank_used_before_unused() {
        let mut r = Set::new(ReplacementKind::Nru, 4);
        r.touch(3);
        // Used way 3 must rank above (closer to MRU than) unused ways.
        let p3 = r.stack_position(3);
        for w in 0..3 {
            assert!(p3 < r.stack_position(w));
        }
    }

    #[test]
    fn btplru_touch_protects_way() {
        let mut r = Set::new(ReplacementKind::BtPlru, 8);
        r.touch(5);
        let v = r.victim(way_range_mask(0, 8));
        assert_ne!(v, 5, "just-touched way must not be the victim");
    }

    #[test]
    fn btplru_victim_respects_partition() {
        let mut r = Set::new(ReplacementKind::BtPlru, 8);
        for w in 0..8 {
            r.touch(w);
        }
        for _ in 0..16 {
            let v = r.victim(way_range_mask(0, 3));
            assert!(v < 3, "victim {v} escaped partition");
            r.touch(v);
        }
    }

    #[test]
    fn btplru_stack_position_monotone_for_fresh_touch() {
        let mut r = Set::new(ReplacementKind::BtPlru, 8);
        r.touch(4);
        assert_eq!(r.stack_position(4), 0, "touched way estimated MRU");
        // The PLRU victim should have the maximal estimate.
        let v = r.victim(way_range_mask(0, 8));
        let pv = r.stack_position(v);
        for w in 0..8 {
            assert!(r.stack_position(w) <= pv);
        }
    }

    #[test]
    fn victim_cycle_covers_all_ways_true_lru() {
        // Repeatedly evicting + touching the victim must cycle fairly.
        let mut r = Set::new(ReplacementKind::TrueLru, 4);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let v = r.victim(way_range_mask(0, 4));
            seen.insert(v);
            r.touch(v);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "victim mask selects no way")]
    fn empty_mask_panics() {
        let mut r = Set::new(ReplacementKind::TrueLru, 4);
        r.victim(0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn btplru_rejects_non_power_of_two() {
        Policy::new(ReplacementKind::BtPlru, 12);
    }

    #[test]
    fn rrip_victims_prefer_distant_ways() {
        let mut r = Set::new(ReplacementKind::Rrip, 4);
        // Fill all 4 ways with long (SRRIP) insertions.
        for w in 0..4 {
            let v = r.victim(way_range_mask(0, 4));
            assert_eq!(v, w, "cold fill takes ways in order");
            r.on_fill(v, false);
        }
        // Touch way 1: it becomes near-immediate.
        r.touch(1);
        // Aging must find a victim and it must not be way 1.
        let v = r.victim(way_range_mask(0, 4));
        assert_ne!(v, 1);
    }

    #[test]
    fn rrip_distant_insertion_is_next_victim() {
        let mut r = Set::new(ReplacementKind::Rrip, 4);
        for w in 0..4 {
            r.on_fill(w, false); // RRPV 2
        }
        r.on_fill(2, true); // BRRIP distant insert at way 2
        assert_eq!(r.victim(way_range_mask(0, 4)), 2);
    }

    #[test]
    fn rrip_respects_partition_mask() {
        let mut r = Set::new(ReplacementKind::Rrip, 8);
        for w in 0..8 {
            r.on_fill(w, false);
            r.touch(w); // everything near-immediate
        }
        for _ in 0..16 {
            let v = r.victim(way_range_mask(2, 5));
            assert!((2..5).contains(&v), "victim {v} escaped mask");
            r.touch(v);
        }
    }

    #[test]
    fn rrip_stack_positions_rank_by_rrpv() {
        let mut r = Set::new(ReplacementKind::Rrip, 8);
        for w in 0..8 {
            r.on_fill(w, false);
        }
        r.touch(3); // RRPV 0 → most recent
        assert!(r.stack_position(3) < r.stack_position(0));
    }

    #[test]
    fn twelve_way_nru_works() {
        // The paper's L2 TLB is 12-way; NRU must handle non-power-of-two.
        let mut r = Set::new(ReplacementKind::Nru, 12);
        for w in 0..12 {
            r.touch(w);
        }
        let v = r.victim(way_range_mask(0, 12));
        assert!(v < 12);
    }
}
