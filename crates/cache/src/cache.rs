//! The set-associative data cache with way partitioning and per-line
//! Data/TLB classification.
//!
//! Implements the cache behaviour Section 3.1 of the paper specifies:
//!
//! * **Lookup** scans *all* ways of the set regardless of the partition —
//!   after a repartition, lines of either kind may temporarily reside in
//!   ways now assigned to the other kind.
//! * **Replacement** honours the partition: an incoming data line evicts
//!   the LRU line among ways `0..N`, an incoming TLB line the LRU line
//!   among ways `N..K`.
//! * Each line carries its [`EntryKind`] so occupancy scans (Figure 3) and
//!   per-kind statistics are possible; in hardware this classification is
//!   by address range and costs no metadata.

use crate::replacement::{way_range_mask, Policy, WayMask};
use csalt_types::{
    CkptError, CkptReader, CkptWriter, EntryKind, HitMissStats, LineAddr, ReplacementKind,
    LINE_BYTES,
};
use serde::{Deserialize, Serialize};

/// Where an incoming line is placed in the recency stack on a fill.
///
/// Ordinary caches insert at MRU; DIP's bimodal insertion places most
/// fills at LRU so that single-use lines are evicted quickly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InsertPos {
    /// Insert at the most-recently-used position (conventional).
    Mru,
    /// Insert at the least-recently-used position (DIP/BIP insertion).
    Lru,
}

/// A line evicted by a fill, to be written back if dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line's address.
    pub line: LineAddr,
    /// Its content classification.
    pub kind: EntryKind,
    /// Whether it must be written back to the next level.
    pub dirty: bool,
}

/// Result of [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// A line displaced by the fill (misses only; `None` if an invalid
    /// way absorbed the fill).
    pub evicted: Option<Evicted>,
}

/// Per-kind cache statistics plus fill/eviction/writeback counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Hits/misses for data-classified accesses.
    pub data: HitMissStats,
    /// Hits/misses for TLB-classified accesses.
    pub tlb: HitMissStats,
    /// Lines filled.
    pub fills: u64,
    /// Valid lines evicted.
    pub evictions: u64,
    /// Dirty evictions (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Combined hits/misses over both kinds.
    pub fn total(&self) -> HitMissStats {
        self.data + self.tlb
    }

    /// Stats for one kind.
    pub fn by_kind(&self, kind: EntryKind) -> HitMissStats {
        match kind {
            EntryKind::Data => self.data,
            EntryKind::Tlb => self.tlb,
        }
    }

    /// Counter delta relative to an `earlier` snapshot of the same
    /// cache (saturating, for telemetry epoch records).
    #[must_use]
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            data: self.data - earlier.data,
            tlb: self.tlb - earlier.tlb,
            fills: self.fills.saturating_sub(earlier.fills),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
        }
    }
}

/// Snapshot of how much of the cache each entry kind occupies (Figure 3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Occupancy {
    /// Valid lines classified as data.
    pub data_lines: u64,
    /// Valid lines classified as TLB.
    pub tlb_lines: u64,
    /// Total line capacity (valid or not).
    pub capacity_lines: u64,
}

impl Occupancy {
    /// Fraction of total capacity holding TLB entries — the quantity
    /// Figure 3 plots.
    pub fn tlb_fraction(&self) -> f64 {
        if self.capacity_lines == 0 {
            0.0
        } else {
            self.tlb_lines as f64 / self.capacity_lines as f64
        }
    }

    /// Fraction of total capacity holding valid lines of any kind.
    pub fn valid_fraction(&self) -> f64 {
        if self.capacity_lines == 0 {
            0.0
        } else {
            (self.data_lines + self.tlb_lines) as f64 / self.capacity_lines as f64
        }
    }
}

/// Sentinel tag for an invalid way (no real tag reaches all-ones: that
/// would need a line number near `u64::MAX`, far beyond any physical
/// address space).
const INVALID_TAG: u64 = u64::MAX;

/// Offset, after a set block's tags, of the word whose bit *i* marks
/// way *i* as holding a TLB line (clear: data).
const KIND: usize = 0;
/// Offset, after the tags, of the word whose bit *i* marks way *i* dirty.
const DIRTY: usize = 1;
/// Offset, after the tags, of the replacement policy's state words.
const POLICY: usize = 2;

/// A set-associative, write-back, write-allocate cache with optional way
/// partitioning between data and TLB lines.
///
/// State is set-major: one flat `u64` array of set blocks, each laid out
/// as `[tag × W | kind mask | dirty mask | policy words]`. A lookup,
/// fill or victim choice touches only its own set's block — a few
/// adjacent cache lines — and no set owns a heap allocation. Tags use
/// [`INVALID_TAG`] for empty ways, so the way scan — the hottest loop in
/// the simulator — compares one word per way. Kind and dirty bits of
/// invalid ways are clear.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: u64,
    /// `log2(sets)` — set count is a power of two, so the tag split is a
    /// shift rather than a division on the hot lookup path.
    set_shift: u32,
    ways: u32,
    policy: Policy,
    /// Words per set block: `ways + 2 + policy.words()`.
    stride: usize,
    /// Set blocks, set-major.
    blocks: Vec<u64>,
    /// `Some(n)` ⇒ ways `0..n` belong to data, `n..K` to TLB entries.
    data_ways: Option<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with `sets` sets of `ways` ways under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a positive power of two or `ways` is not in
    /// `1..=64`.
    pub fn new(sets: u64, ways: u32, policy: ReplacementKind) -> Self {
        assert!(sets > 0 && sets.is_power_of_two(), "sets must be 2^k");
        assert!((1..=64).contains(&ways), "ways must be in 1..=64");
        let policy = Policy::new(policy, ways);
        let mut block = vec![INVALID_TAG; ways as usize];
        block.extend([0, 0]);
        block.extend(policy.initial_state());
        Self {
            sets,
            set_shift: sets.trailing_zeros(),
            ways,
            policy,
            stride: block.len(),
            blocks: block.repeat(sets as usize),
            data_ways: None,
            stats: CacheStats::default(),
        }
    }

    /// Builds a cache from a [`csalt_types::CacheGeometry`].
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate; see
    /// [`Cache::try_from_geometry`] for the fallible form.
    pub fn from_geometry(geom: &csalt_types::CacheGeometry, policy: ReplacementKind) -> Self {
        Self::try_from_geometry(geom, policy).expect("cache geometry must be valid")
    }

    /// Fallible form of [`Cache::from_geometry`]: returns the first
    /// CSALT-Axxx geometry violation instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`csalt_types::ConfigError`] when the geometry fails a
    /// static invariant (zero dimensions, non-dividing capacity, …).
    pub fn try_from_geometry(
        geom: &csalt_types::CacheGeometry,
        policy: ReplacementKind,
    ) -> Result<Self, csalt_types::ConfigError> {
        geom.validate("cache")?;
        Ok(Self::new(geom.sets(), geom.ways, policy))
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Current partition: ways reserved for data, if partitioned.
    pub fn data_ways(&self) -> Option<u32> {
        self.data_ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Sets the way partition: `data_ways` ways for data lines, the rest
    /// for TLB lines. Takes effect on subsequent replacements only — no
    /// lines move (§3.1 "Cache Replacement").
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= data_ways < ways` (each kind keeps ≥ 1 way, as
    /// guaranteed by the partitioning algorithm's `Nmin`).
    pub fn set_partition(&mut self, data_ways: u32) {
        assert!(
            data_ways >= 1 && data_ways < self.ways,
            "partition must leave at least one way per kind"
        );
        self.data_ways = Some(data_ways);
    }

    /// Removes the partition (unmanaged replacement over all ways).
    pub fn clear_partition(&mut self) {
        self.data_ways = None;
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> u64 {
        line.line_number() & (self.sets - 1)
    }

    #[inline]
    fn tag(&self, line: LineAddr) -> u64 {
        let tag = line.line_number() >> self.set_shift;
        debug_assert!(tag != INVALID_TAG, "tag collides with invalid sentinel");
        tag
    }

    /// The block of `set`: its tags, then its kind/dirty/policy words.
    #[inline]
    fn block(&self, set: u64) -> (&[u64], &[u64]) {
        let base = set as usize * self.stride;
        self.blocks[base..base + self.stride].split_at(self.ways as usize)
    }

    /// Mutable form of [`Cache::block`].
    #[inline]
    fn block_mut(&mut self, set: u64) -> (&mut [u64], &mut [u64]) {
        let base = set as usize * self.stride;
        self.blocks[base..base + self.stride].split_at_mut(self.ways as usize)
    }

    /// The replacement candidate mask for an incoming line of `kind`.
    #[inline]
    fn partition_mask(&self, kind: EntryKind) -> WayMask {
        match (self.data_ways, kind) {
            (Some(n), EntryKind::Data) => way_range_mask(0, n),
            (Some(n), EntryKind::Tlb) => way_range_mask(n, self.ways),
            (None, _) => way_range_mask(0, self.ways),
        }
    }

    /// Checks for presence without disturbing replacement state or stats.
    pub fn probe(&self, line: LineAddr) -> bool {
        let (tags, _) = self.block(self.set_index(line));
        tags.contains(&self.tag(line))
    }

    /// Performs one access with conventional MRU insertion.
    ///
    /// See [`Cache::access_with_insertion`].
    pub fn access(&mut self, line: LineAddr, kind: EntryKind, write: bool) -> AccessOutcome {
        self.access_with_insertion(line, kind, write, InsertPos::Mru)
    }

    /// Performs one access: lookup over all ways; on a miss, fills the
    /// line, evicting the replacement victim from the partition's way
    /// range for `kind`. `insert` selects the fill's recency position
    /// (DIP support). Returns whether it hit and any evicted line.
    pub fn access_with_insertion(
        &mut self,
        line: LineAddr,
        kind: EntryKind,
        write: bool,
        insert: InsertPos,
    ) -> AccessOutcome {
        let set = self.set_index(line);
        let tag = self.tag(line);
        let policy = self.policy;

        // Lookup: all K ways are scanned irrespective of partition.
        let (tags, meta) = self.block_mut(set);
        if let Some(way) = tags.iter().position(|&t| t == tag) {
            meta[DIRTY] |= u64::from(write) << way;
            policy.touch(&mut meta[POLICY..], way as u32);
            self.kind_stats_mut(kind).record_hit();
            return AccessOutcome {
                hit: true,
                evicted: None,
            };
        }
        self.kind_stats_mut(kind).record_miss();

        // Fill. Prefer the lowest invalid way inside the partition range;
        // else evict the policy's victim within the range.
        let mask = self.partition_mask(kind);
        let set_shift = self.set_shift;
        let (tags, meta) = self.block_mut(set);
        let mut candidates = mask;
        let mut invalid_way = None;
        while candidates != 0 {
            let w = candidates.trailing_zeros();
            if tags[w as usize] == INVALID_TAG {
                invalid_way = Some(w);
                break;
            }
            candidates &= candidates - 1;
        }
        let (way, evicted) = match invalid_way {
            Some(w) => (w, None),
            None => {
                let w = policy.victim(&mut meta[POLICY..], mask);
                let old_tag = tags[w as usize];
                debug_assert!(old_tag != INVALID_TAG);
                let bit = 1u64 << w;
                let evicted = Evicted {
                    line: LineAddr::from_line_number((old_tag << set_shift) + set),
                    kind: kind_of(meta[KIND] & bit),
                    dirty: meta[DIRTY] & bit != 0,
                };
                (w, Some(evicted))
            }
        };

        tags[way as usize] = tag;
        let bit = 1u64 << way;
        meta[KIND] = (meta[KIND] & !bit) | (u64::from(kind == EntryKind::Tlb) << way);
        meta[DIRTY] = (meta[DIRTY] & !bit) | (u64::from(write) << way);
        // Mru: make the fill most-recent (or RRIP's SRRIP long insert);
        // Lru: leave it the preferred victim (LIP/BIP; BRRIP for RRIP
        // storage).
        policy.on_fill(&mut meta[POLICY..], way, insert == InsertPos::Lru);

        self.stats.fills += 1;
        if let Some(ev) = evicted {
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(ev.dirty);
        }
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Invalidates a line if present, returning it (for writeback by the
    /// caller if dirty). Used for inclusive-hierarchy back-invalidation.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let set = self.set_index(line);
        let tag = self.tag(line);
        let (tags, meta) = self.block_mut(set);
        let way = tags.iter().position(|&t| t == tag)?;
        tags[way] = INVALID_TAG;
        let bit = 1u64 << way;
        let evicted = Evicted {
            line,
            kind: kind_of(meta[KIND] & bit),
            dirty: meta[DIRTY] & bit != 0,
        };
        meta[KIND] &= !bit;
        meta[DIRTY] &= !bit;
        Some(evicted)
    }

    /// Scans the array and reports per-kind occupancy (Figure 3's metric;
    /// the paper's simulator does exactly this scan periodically).
    pub fn occupancy(&self) -> Occupancy {
        let mut occ = Occupancy {
            capacity_lines: self.sets * u64::from(self.ways),
            ..Occupancy::default()
        };
        for block in self.blocks.chunks_exact(self.stride) {
            let (tags, meta) = block.split_at(self.ways as usize);
            let valid = tags
                .iter()
                .enumerate()
                .fold(0u64, |m, (w, &t)| m | (u64::from(t != INVALID_TAG) << w));
            occ.tlb_lines += u64::from((valid & meta[KIND]).count_ones());
            occ.data_lines += u64::from((valid & !meta[KIND]).count_ones());
        }
        occ
    }

    /// The estimated LRU stack position the given line currently holds,
    /// if present (exact under True-LRU). Exposed for profiler coupling
    /// and tests.
    pub fn stack_position_of(&self, line: LineAddr) -> Option<u32> {
        let tag = self.tag(line);
        let (tags, meta) = self.block(self.set_index(line));
        let way = tags.iter().position(|&t| t == tag)?;
        Some(self.policy.stack_position(&meta[POLICY..], way as u32))
    }

    #[inline]
    fn kind_stats_mut(&mut self, kind: EntryKind) -> &mut HitMissStats {
        match kind {
            EntryKind::Data => &mut self.stats.data,
            EntryKind::Tlb => &mut self.stats.tlb,
        }
    }

    /// Serializes the full result-affecting cache state: geometry and
    /// policy guard words, the set blocks, partition and per-kind
    /// statistics.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.sets);
        w.u32(self.ways);
        w.u8(self.policy.ckpt_code());
        // Tags are stored XOR [`INVALID_TAG`] so invalid ways (all of
        // them in a freshly-warmed large cache) serialize as zero and
        // the sparse streaming encode collapses them.
        let mut flip = vec![0; self.stride];
        flip[..self.ways as usize].fill(INVALID_TAG);
        w.iter_u64(
            self.blocks.len(),
            self.blocks
                .iter()
                .zip(flip.iter().cycle())
                .map(|(w, f)| w ^ f),
        );
        match self.data_ways {
            Some(n) => {
                w.bool(true);
                w.u32(n);
            }
            None => {
                w.bool(false);
                w.u32(0);
            }
        }
        w.u64(self.stats.data.hits);
        w.u64(self.stats.data.misses);
        w.u64(self.stats.tlb.hits);
        w.u64(self.stats.tlb.misses);
        w.u64(self.stats.fills);
        w.u64(self.stats.evictions);
        w.u64(self.stats.writebacks);
    }

    /// Restores state written by [`Cache::ckpt_save`] into this
    /// (config-constructed) cache, decoding the set blocks in place.
    /// Geometry and policy must match.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u64()? != self.sets || r.u32()? != self.ways {
            return Err(CkptError::Mismatch("cache geometry"));
        }
        if r.u8()? != self.policy.ckpt_code() {
            return Err(CkptError::Mismatch("replacement policy"));
        }
        r.fill_u64(&mut self.blocks)?;
        let ways = self.ways as usize;
        let full = way_range_mask(0, self.ways);
        // A valid tag must rebuild a line whose byte address fits in 64
        // bits, or the next eviction of it overflows `LineAddr::base`.
        let tag_bits = u64::BITS - LINE_BYTES.trailing_zeros() - self.set_shift;
        for block in self.blocks.chunks_exact_mut(self.stride) {
            let (tags, meta) = block.split_at_mut(ways);
            let mut valid = 0u64;
            for (w, t) in tags.iter_mut().enumerate() {
                *t ^= INVALID_TAG;
                if *t != INVALID_TAG {
                    if *t >> tag_bits != 0 {
                        return Err(CkptError::Corrupt("cache tag out of range"));
                    }
                    valid |= 1 << w;
                }
            }
            if (meta[KIND] | meta[DIRTY]) & !(valid & full) != 0 {
                return Err(CkptError::Corrupt("kind/dirty bit on an invalid way"));
            }
        }
        let partitioned = r.bool()?;
        let n = r.u32()?;
        self.data_ways = if partitioned {
            if !(1..self.ways).contains(&n) {
                return Err(CkptError::Corrupt("partition out of range"));
            }
            Some(n)
        } else {
            None
        };
        self.stats.data.hits = r.u64()?;
        self.stats.data.misses = r.u64()?;
        self.stats.tlb.hits = r.u64()?;
        self.stats.tlb.misses = r.u64()?;
        self.stats.fills = r.u64()?;
        self.stats.evictions = r.u64()?;
        self.stats.writebacks = r.u64()?;
        Ok(())
    }
}

/// The entry kind a way's (isolated) kind-mask bit encodes.
#[inline]
fn kind_of(bit: u64) -> EntryKind {
    if bit == 0 {
        EntryKind::Data
    } else {
        EntryKind::Tlb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    fn small_cache() -> Cache {
        Cache::new(4, 4, ReplacementKind::TrueLru)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        let a = line(0x100);
        assert!(!c.access(a, EntryKind::Data, false).hit);
        assert!(c.access(a, EntryKind::Data, false).hit);
        assert_eq!(c.stats().data.hits, 1);
        assert_eq!(c.stats().data.misses, 1);
        assert!(c.probe(a));
    }

    #[test]
    fn distinct_tags_same_set_coexist_up_to_ways() {
        let mut c = small_cache();
        // Same set (stride = sets), 4 distinct tags fill all ways.
        for i in 0..4 {
            assert!(!c.access(line(i * 4), EntryKind::Data, false).hit);
        }
        for i in 0..4 {
            assert!(c.access(line(i * 4), EntryKind::Data, false).hit);
        }
        // Fifth tag evicts LRU (the first inserted).
        let out = c.access(line(16), EntryKind::Data, false);
        assert!(!out.hit);
        assert_eq!(out.evicted.expect("evicts").line, line(0));
    }

    #[test]
    fn write_sets_dirty_and_eviction_reports_writeback() {
        let mut c = small_cache();
        c.access(line(0), EntryKind::Data, true);
        for i in 1..4 {
            c.access(line(i * 4), EntryKind::Data, false);
        }
        let out = c.access(line(16), EntryKind::Data, false);
        let ev = out.evicted.expect("eviction");
        assert!(ev.dirty, "written line must evict dirty");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn partition_confines_victims() {
        let mut c = small_cache();
        c.set_partition(2); // ways 0-1 data, 2-3 TLB
                            // Fill 2 data lines and 2 TLB lines (same set).
        c.access(line(0), EntryKind::Data, false);
        c.access(line(4), EntryKind::Data, false);
        c.access(line(8), EntryKind::Tlb, false);
        c.access(line(12), EntryKind::Tlb, false);
        // New data line must evict a *data* line, not a TLB line.
        let out = c.access(line(16), EntryKind::Data, false);
        assert_eq!(out.evicted.expect("eviction").kind, EntryKind::Data);
        // New TLB line must evict a TLB line.
        let out = c.access(line(20), EntryKind::Tlb, false);
        assert_eq!(out.evicted.expect("eviction").kind, EntryKind::Tlb);
    }

    #[test]
    fn lookup_hits_across_partition_boundary() {
        let mut c = small_cache();
        // Fill a TLB line with no partition: it may land in any way.
        c.access(line(8), EntryKind::Tlb, false);
        // Now partition so that its way nominally belongs to data.
        c.set_partition(3);
        // Lookup must still hit (all ways scanned).
        assert!(c.access(line(8), EntryKind::Tlb, false).hit);
    }

    #[test]
    fn repartition_moves_no_lines() {
        let mut c = small_cache();
        for i in 0..4 {
            c.access(line(i * 4), EntryKind::Data, false);
        }
        let occ_before = c.occupancy();
        c.set_partition(1);
        assert_eq!(c.occupancy(), occ_before);
        c.clear_partition();
        assert_eq!(c.occupancy(), occ_before);
    }

    #[test]
    fn occupancy_counts_kinds() {
        let mut c = small_cache();
        c.access(line(0), EntryKind::Data, false);
        c.access(line(1), EntryKind::Tlb, false);
        c.access(line(2), EntryKind::Tlb, false);
        let occ = c.occupancy();
        assert_eq!(occ.data_lines, 1);
        assert_eq!(occ.tlb_lines, 2);
        assert_eq!(occ.capacity_lines, 16);
        assert!((occ.tlb_fraction() - 2.0 / 16.0).abs() < 1e-12);
        assert!((occ.valid_fraction() - 3.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn lru_insertion_is_evicted_first() {
        let mut c = small_cache();
        for i in 0..4 {
            c.access(line(i * 4), EntryKind::Data, false);
        }
        // Fill a new line at LRU position.
        c.access_with_insertion(line(16), EntryKind::Data, false, InsertPos::Lru);
        // The next miss should evict the LRU-inserted line, not an older
        // MRU-inserted one... except way recency: the LRU-inserted line
        // inherited its victim way's (LRU) position.
        let out = c.access(line(20), EntryKind::Data, false);
        assert_eq!(out.evicted.expect("eviction").line, line(16));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.access(line(7), EntryKind::Data, true);
        let ev = c.invalidate(line(7)).expect("line present");
        assert!(ev.dirty);
        assert!(!c.probe(line(7)));
        assert!(c.invalidate(line(7)).is_none());
    }

    #[test]
    fn from_geometry_derives_shape() {
        let geom = csalt_types::SystemConfig::skylake().l2;
        let c = Cache::from_geometry(&geom, ReplacementKind::TrueLru);
        assert_eq!(c.sets(), 1024);
        assert_eq!(c.ways(), 4);
    }

    #[test]
    fn stack_position_of_tracks_recency() {
        let mut c = small_cache();
        c.access(line(0), EntryKind::Data, false);
        c.access(line(4), EntryKind::Data, false);
        assert_eq!(c.stack_position_of(line(4)), Some(0));
        assert_eq!(c.stack_position_of(line(0)), Some(1));
        assert_eq!(c.stack_position_of(line(8)), None);
    }

    #[test]
    #[should_panic(expected = "at least one way per kind")]
    fn full_partition_rejected() {
        let mut c = small_cache();
        c.set_partition(4);
    }

    #[test]
    fn per_kind_stats_are_separate() {
        let mut c = small_cache();
        c.access(line(0), EntryKind::Data, false);
        c.access(line(64), EntryKind::Tlb, false);
        c.access(line(64), EntryKind::Tlb, false);
        assert_eq!(c.stats().data.misses, 1);
        assert_eq!(c.stats().tlb.misses, 1);
        assert_eq!(c.stats().tlb.hits, 1);
        assert_eq!(c.stats().total().accesses(), 3);
        assert_eq!(c.stats().by_kind(EntryKind::Tlb).hits, 1);
    }

    /// A checkpoint whose valid tag would rebuild a line past the 64-bit
    /// byte address space is corrupt: evicting that line would overflow
    /// `LineAddr::base`. The widest tag that still fits loads, and its
    /// eviction names a line whose base address is representable.
    #[test]
    fn checkpoint_tag_past_the_address_space_is_rejected() {
        let image = |tag: u64| {
            let mut c = small_cache();
            c.access(line(0), EntryKind::Data, true);
            let way = c.blocks[..4].iter().position(|&t| t != INVALID_TAG);
            c.blocks[way.expect("one valid way")] = tag;
            let mut w = CkptWriter::new();
            c.ckpt_save(&mut w);
            w.finish("t")
        };
        let load = |bytes: &[u8]| {
            let mut c = small_cache();
            let mut r = CkptReader::open(bytes, "t").expect("own framing");
            c.ckpt_load(&mut r).map(|()| c)
        };
        // 4 sets: two set-index bits below the tag, six offset bits.
        let widest = (1u64 << (64 - 6 - 2)) - 1;
        let mut c = load(&image(widest)).expect("the widest tag fits");
        let evicted = (1..=4)
            .find_map(|i| c.access(line(i * 4), EntryKind::Data, false).evicted)
            .expect("a full set evicts");
        assert_eq!(evicted.line.line_number(), widest << 2);
        assert_eq!(evicted.line.base().raw(), widest << 8);
        for tag in [widest + 1, 1 << 63, INVALID_TAG - 1] {
            assert_eq!(
                load(&image(tag)).err(),
                Some(CkptError::Corrupt("cache tag out of range")),
                "tag {tag:#x}"
            );
        }
    }
}
