//! The large memory-resident L3 TLB — POM-TLB (Ryoo et al., ISCA 2017) —
//! that CSALT uses as its substrate.
//!
//! The POM-TLB is a set-associative TLB array carved out of die-stacked
//! DRAM and given an explicit physical address range (*aperture*). Because
//! it is addressable, its entries are cacheable in the L2/L3 data caches:
//! a translation request first probes the data caches at the entry's home
//! address and only on a data-cache miss pays the die-stacked DRAM
//! latency. One set occupies exactly one 64-byte cache line (4 ways of
//! 16-byte entries, Table 2), so a single memory access resolves a
//! translation — the property that makes POM-TLB cheaper than TSB or page
//! walks in virtualized mode.
//!
//! This module models the array's *contents* (hit/miss, LRU within the
//! set) and exposes each operation's home [`LineAddr`]; the caller routes
//! that address through the cache hierarchy and DRAM timing model.

use crate::sram::{pack, size_code, TlbKey, EMPTY};
use csalt_types::{
    Asid, CkptError, CkptReader, CkptWriter, HitMissStats, LineAddr, PageSize, PhysAddr, PhysFrame,
    PomTlbConfig, VirtPage,
};

/// Result of a POM-TLB lookup: the translation (if resident) and the
/// memory line the lookup touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PomLookup {
    /// The translation, when the array holds it.
    pub frame: Option<PhysFrame>,
    /// The line address of the probed set, inside the aperture.
    pub line: LineAddr,
}

/// The memory-resident large TLB array.
///
/// Entries are packed `u64` keys (shared with the SRAM TLBs), MRU-first
/// within each set: the way scan compares one word per way and recency
/// updates are short rotations — no per-insert allocation. Valid entries
/// always form a prefix of the set.
///
/// A set is stored from its first write on. `block_of` maps every set to
/// its block in `pool`, and the pool holds the written sets' blocks in
/// first-write order. The pool is reserved for every set at
/// construction, so it never reallocates and the host faults in only the
/// blocks that get written: the array's memory follows the entries it
/// holds, not its 16 MiB capacity.
#[derive(Debug)]
pub struct PomTlb {
    cfg: PomTlbConfig,
    sets: u64,
    ways: u32,
    /// Per set, one plus its block's position in `pool`; `0` for a set
    /// never written.
    block_of: Vec<u32>,
    /// One block of `2 × ways` words per written set: `ways` packed keys
    /// XOR [`EMPTY`] (`0` marks an invalid way), then `ways` frames as
    /// `pfn << 2 | size code` (`0` where empty).
    pool: Vec<u64>,
    stats: HitMissStats,
}

/// One frame as a frame word.
#[inline]
fn pack_frame(frame: PhysFrame) -> u64 {
    frame.pfn() << 2 | u64::from(size_code(frame.size()))
}

/// The frame a frame word holds (every stored code is valid).
#[inline]
fn unpack_frame(word: u64) -> PhysFrame {
    let size = match word & 3 {
        0 => PageSize::Size4K,
        1 => PageSize::Size2M,
        _ => PageSize::Size1G,
    };
    PhysFrame::from_pfn(word >> 2, size)
}

impl PomTlb {
    /// Builds the array from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's set count is not a power of two or
    /// exceeds `u32::MAX` (CSALT-A007 rejects both).
    pub fn new(cfg: PomTlbConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "POM-TLB sets must be 2^k");
        assert!(
            sets <= u64::from(u32::MAX),
            "POM-TLB sets must fit a u32 block index"
        );
        let slots = (sets * u64::from(cfg.ways)) as usize;
        Self {
            sets,
            ways: cfg.ways,
            block_of: vec![0; sets as usize],
            pool: Vec::with_capacity(2 * slots),
            cfg,
            stats: HitMissStats::new(),
        }
    }

    /// The array's configuration.
    pub fn config(&self) -> &PomTlbConfig {
        &self.cfg
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &HitMissStats {
        &self.stats
    }

    /// Resets statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Whether a physical address belongs to the POM-TLB aperture — the
    /// address-range classification of §3.1.
    pub fn owns(&self, pa: PhysAddr) -> bool {
        self.cfg.contains(pa.raw())
    }

    #[inline]
    fn set_of(&self, key: &TlbKey) -> u64 {
        self.set_of_packed(pack(key))
    }

    /// Set index from a packed key. Hashes VPN, page size and ASID
    /// together; multiple contexts share the array, so the ASID must
    /// participate in indexing. Derived entirely from the packed word so
    /// the prepacked lookup path computes the identical index.
    #[inline]
    fn set_of_packed(&self, packed: u64) -> u64 {
        let size_salt = match csalt_types::unpack_tlb_size(packed) {
            PageSize::Size4K => 0u64,
            PageSize::Size2M => 0x9e37_79b9_7f4a_7c15,
            PageSize::Size1G => 0x6a09_e667_f3bc_c909,
        };
        let mixed = (csalt_types::unpack_tlb_vpn(packed).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ size_salt
            ^ ((packed & 0xffff) << 17);
        // Fibonacci hashing: take the *top* bits, which receive full
        // avalanche from the multiplication. Masking the low bits would
        // let strided VPNs (whose product keeps their trailing zeros)
        // alias into a fraction of the sets.
        mixed >> (64 - self.sets.trailing_zeros())
    }

    /// The aperture line that stores `set` — one set per 64-byte line.
    #[inline]
    fn line_of_set(&self, set: u64) -> LineAddr {
        PhysAddr::new(self.cfg.base + set * csalt_types::LINE_BYTES).line()
    }

    /// Where `set`'s block starts in `pool`, or `None` for a set never
    /// written.
    #[inline]
    fn block(&self, set: u64) -> Option<usize> {
        match self.block_of[set as usize] {
            0 => None,
            b => Some((b as usize - 1) * 2 * self.ways as usize),
        }
    }

    /// Where `set`'s block starts, appending an empty block on the set's
    /// first write.
    #[inline]
    fn block_or_insert(&mut self, set: u64) -> usize {
        if let Some(at) = self.block(set) {
            return at;
        }
        let at = self.pool.len();
        let stride = 2 * self.ways as usize;
        debug_assert!(at + stride <= self.pool.capacity(), "pool is reserved");
        self.pool.resize(at + stride, 0);
        // At most `sets` blocks, and `new` bounds `sets` to `u32::MAX`.
        self.block_of[set as usize] = (at / stride + 1) as u32;
        at
    }

    /// The home line a translation for (`page`, `asid`) lives in. This is
    /// the address the cache hierarchy sees for both lookups and fills.
    pub fn home_line(&self, page: VirtPage, asid: Asid) -> LineAddr {
        let key = TlbKey { page, asid };
        self.line_of_set(self.set_of(&key))
    }

    /// Looks up a translation, maintaining per-set LRU order.
    pub fn lookup(&mut self, page: VirtPage, asid: Asid) -> PomLookup {
        self.lookup_prepacked(pack(&TlbKey { page, asid }))
    }

    /// [`PomTlb::lookup`] with the key already packed (callers precompute
    /// keys ahead of the lookup; see [`csalt_types::pack_tlb_key`]).
    /// Identical semantics and statistics — `lookup` delegates here. A
    /// set never written misses without touching the pool.
    pub fn lookup_prepacked(&mut self, packed: u64) -> PomLookup {
        let set = self.set_of_packed(packed);
        let line = self.line_of_set(set);
        if let Some(at) = self.block(set) {
            let ways = self.ways as usize;
            let (keys, frames) = self.pool[at..at + 2 * ways].split_at_mut(ways);
            let stored = packed ^ EMPTY;
            if let Some(way) = keys.iter().position(|&k| k == stored) {
                let frame = unpack_frame(frames[way]);
                // Move to MRU (front) by rotating the prefix.
                keys[..=way].rotate_right(1);
                frames[..=way].rotate_right(1);
                self.stats.record_hit();
                return PomLookup {
                    frame: Some(frame),
                    line,
                };
            }
        }
        self.stats.record_miss();
        PomLookup { frame: None, line }
    }

    /// Installs a translation at MRU, evicting the set's LRU entry when
    /// full. Returns the written line (the caller issues the write
    /// through the hierarchy).
    pub fn insert(&mut self, page: VirtPage, asid: Asid, frame: PhysFrame) -> LineAddr {
        let key = TlbKey { page, asid };
        let set = self.set_of(&key);
        let line = self.line_of_set(set);
        let at = self.block_or_insert(set);
        let ways = self.ways as usize;
        let (keys, frames) = self.pool[at..at + 2 * ways].split_at_mut(ways);
        let stored = pack(&key) ^ EMPTY;
        // Rotate a stale copy (if present) — else the whole set, pushing
        // the LRU (or an empty tail slot) to the front — then overwrite
        // the front with the new MRU entry. Valid entries stay a prefix.
        let upto = keys.iter().position(|&k| k == stored).unwrap_or(ways - 1);
        keys[..=upto].rotate_right(1);
        frames[..=upto].rotate_right(1);
        keys[0] = stored;
        frames[0] = pack_frame(frame);
        line
    }

    /// Number of valid entries currently held (tests / reporting).
    pub fn valid_entries(&self) -> u64 {
        let ways = self.ways as usize;
        self.pool
            .chunks_exact(2 * ways)
            .map(|block| block[..ways].iter().filter(|&&k| k != 0).count() as u64)
            .sum()
    }

    /// Fraction of POM-TLB slots holding a valid translation, in
    /// `[0, 1]` — a telemetry gauge tracking how much of the large
    /// in-DRAM table a workload actually touches.
    pub fn utilization(&self) -> f64 {
        let capacity = self.sets * u64::from(self.ways);
        if capacity == 0 {
            0.0
        } else {
            self.valid_entries() as f64 / capacity as f64
        }
    }

    /// Serializes geometry guards, then the dense `sets × ways` key and
    /// frame arrays — packed keys in positional (MRU-first) order, with
    /// zeros for sets never written — then the hit/miss counters.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.sets);
        w.u32(self.ways);
        // Keys are held XOR [`EMPTY`] and frames are `0` where empty, so
        // empty slots serialize as zero; the encoder writes sets never
        // written as zero runs without visiting them.
        let ways = self.ways as usize;
        let slots = self.sets as usize * ways;
        for half in [0, ways] {
            let written = (0..self.sets as usize).filter_map(|set| {
                let at = self.block(set as u64)? + half;
                Some((set * ways, &self.pool[at..at + ways]))
            });
            w.runs_u64(slots, written);
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
    }

    /// Restores state written by [`PomTlb::ckpt_save`] into this
    /// (config-constructed) array; recency is positional, so restoring
    /// the key order restores it exactly. Each present word goes
    /// straight into its set's block, so a restore allocates only the
    /// blocks the image holds. A frame word with size code 3 is corrupt.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u64()? != self.sets || r.u32()? != self.ways {
            return Err(CkptError::Mismatch("pom-tlb geometry"));
        }
        // Start with no set written (a fresh array already has none).
        if !self.pool.is_empty() {
            self.block_of.fill(0);
            self.pool.clear();
        }
        let ways = self.ways as usize;
        let slots = self.sets as usize * ways;
        r.visit_u64(slots, |i, key| {
            let at = self.block_or_insert((i / ways) as u64);
            self.pool[at + i % ways] = key;
        })?;
        // The size code is checked after the whole array decodes, so a
        // framing error anywhere in it is reported first.
        let mut bad_size_code = false;
        r.visit_u64(slots, |i, frame| {
            bad_size_code |= frame & 3 == 3;
            let at = self.block_or_insert((i / ways) as u64);
            self.pool[at + ways + i % ways] = frame;
        })?;
        if bad_size_code {
            return Err(CkptError::Corrupt("pom-tlb frame size code"));
        }
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PomTlbConfig {
        PomTlbConfig {
            size_bytes: 1 << 20, // 1 MiB for tests
            ways: 4,
            entry_bytes: 16,
            base: 0x7e00_0000_0000,
        }
    }

    fn page(vpn: u64) -> VirtPage {
        VirtPage::from_vpn(vpn, PageSize::Size4K)
    }

    fn frame(pfn: u64) -> PhysFrame {
        PhysFrame::from_pfn(pfn, PageSize::Size4K)
    }

    #[test]
    fn miss_insert_hit() {
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(1);
        let r = p.lookup(page(42), a);
        assert!(r.frame.is_none());
        let wline = p.insert(page(42), a, frame(7));
        assert_eq!(wline, r.line, "fill writes the probed set's line");
        let r2 = p.lookup(page(42), a);
        assert_eq!(r2.frame, Some(frame(7)));
        assert_eq!(p.stats().hits, 1);
        assert_eq!(p.stats().misses, 1);
    }

    #[test]
    fn lines_are_inside_aperture() {
        let mut p = PomTlb::new(cfg());
        for vpn in 0..1000 {
            let r = p.lookup(page(vpn), Asid::new(3));
            assert!(p.owns(r.line.base()), "line {:?} outside aperture", r.line);
        }
    }

    #[test]
    fn home_line_is_stable_and_matches_lookup() {
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(2);
        let home = p.home_line(page(123), a);
        assert_eq!(p.lookup(page(123), a).line, home);
        assert_eq!(p.home_line(page(123), a), home);
    }

    #[test]
    fn asid_participates_in_indexing_and_matching() {
        let mut p = PomTlb::new(cfg());
        p.insert(page(5), Asid::new(1), frame(10));
        assert!(p.lookup(page(5), Asid::new(2)).frame.is_none());
        assert_eq!(p.lookup(page(5), Asid::new(1)).frame, Some(frame(10)));
    }

    #[test]
    fn set_overflow_evicts_lru() {
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(0);
        // Find 5 pages in the same set.
        let target = {
            let k = TlbKey {
                page: page(0),
                asid: a,
            };
            p.set_of(&k)
        };
        let colliders: Vec<u64> = (0..200_000u64)
            .filter(|&v| {
                p.set_of(&TlbKey {
                    page: page(v),
                    asid: a,
                }) == target
            })
            .take(5)
            .collect();
        assert_eq!(colliders.len(), 5, "need 5 colliding pages");
        for (i, &v) in colliders.iter().enumerate() {
            p.insert(page(v), a, frame(i as u64));
        }
        // First inserted (LRU) must be gone; the rest resident.
        assert!(p.lookup(page(colliders[0]), a).frame.is_none());
        for &v in &colliders[1..] {
            assert!(p.lookup(page(v), a).frame.is_some());
        }
    }

    #[test]
    fn reinsert_does_not_duplicate() {
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(0);
        p.insert(page(9), a, frame(1));
        p.insert(page(9), a, frame(2));
        assert_eq!(p.valid_entries(), 1);
        assert_eq!(p.lookup(page(9), a).frame, Some(frame(2)));
    }

    #[test]
    fn frames_of_every_page_size_round_trip() {
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(4);
        let frames = [
            PhysFrame::from_pfn(0, PageSize::Size4K),
            PhysFrame::from_pfn((1 << 40) - 1, PageSize::Size2M),
            PhysFrame::from_pfn(3, PageSize::Size1G),
        ];
        for (vpn, &f) in frames.iter().enumerate() {
            p.insert(page(vpn as u64), a, f);
        }
        for (vpn, &f) in frames.iter().enumerate() {
            assert_eq!(p.lookup(page(vpn as u64), a).frame, Some(f));
        }
    }

    #[test]
    fn checkpoint_restores_contents_and_rejects_bad_size_codes() {
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(1);
        p.insert(page(8), a, PhysFrame::from_pfn(77, PageSize::Size2M));
        let mut w = CkptWriter::new();
        p.ckpt_save(&mut w);
        let image = w.finish("fp");
        let mut q = PomTlb::new(cfg());
        let mut r = CkptReader::open(&image, "fp").expect("image opens");
        q.ckpt_load(&mut r).expect("image restores");
        assert_eq!(
            q.lookup(page(8), a).frame,
            Some(PhysFrame::from_pfn(77, PageSize::Size2M))
        );

        // A frame word whose size code names no page size is corruption.
        let slots = (p.sets * u64::from(p.ways)) as usize;
        let mut w = CkptWriter::new();
        w.u64(p.sets);
        w.u32(p.ways);
        w.iter_u64(slots, std::iter::repeat_n(0, slots));
        w.iter_u64(
            slots,
            std::iter::once(77 << 2 | 3)
                .chain(std::iter::repeat(0))
                .take(slots),
        );
        w.u64(0);
        w.u64(0);
        let image = w.finish("fp");
        let mut r = CkptReader::open(&image, "fp").expect("image opens");
        assert!(matches!(
            PomTlb::new(cfg()).ckpt_load(&mut r),
            Err(CkptError::Corrupt(_))
        ));
    }

    /// Sets written so far: the pool's block count.
    fn blocks(p: &PomTlb) -> usize {
        p.pool.len() / (2 * p.ways as usize)
    }

    #[test]
    fn sets_are_stored_from_their_first_write() {
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(1);
        for vpn in 0..100 {
            assert!(p.lookup(page(vpn), a).frame.is_none());
        }
        assert_eq!(blocks(&p), 0, "a miss in an unwritten set stores nothing");
        assert_eq!(p.pool.capacity(), 2 * cfg().entries() as usize);
        let sets: std::collections::BTreeSet<u64> = (0..100)
            .map(|vpn| {
                p.insert(page(vpn), a, frame(vpn));
                p.set_of(&TlbKey {
                    page: page(vpn),
                    asid: a,
                })
            })
            .collect();
        assert_eq!(blocks(&p), sets.len());
        assert_eq!(p.valid_entries(), 100);
        assert_eq!(
            p.pool.capacity(),
            2 * cfg().entries() as usize,
            "no regrowth"
        );
    }

    #[test]
    fn restore_allocates_only_the_blocks_the_image_holds() {
        let mut p = PomTlb::new(cfg());
        for vpn in 0..300 {
            p.insert(page(vpn * 7), Asid::new((vpn % 3) as u16 + 1), frame(vpn));
        }
        let mut w = CkptWriter::new();
        p.ckpt_save(&mut w);
        let image = w.finish("fp");

        // Into a fresh array, and into one that already holds other sets.
        let mut fresh = PomTlb::new(cfg());
        let mut used = PomTlb::new(cfg());
        for vpn in 0..5_000 {
            used.insert(page(vpn), Asid::new(9), frame(vpn));
        }
        for q in [&mut fresh, &mut used] {
            let mut r = CkptReader::open(&image, "fp").expect("image opens");
            q.ckpt_load(&mut r).expect("image restores");
            r.finish().expect("whole image read");
            assert_eq!(blocks(q), blocks(&p));
            assert_eq!(q.valid_entries(), p.valid_entries());
            let mut again = CkptWriter::new();
            q.ckpt_save(&mut again);
            assert_eq!(again.finish("fp"), image);
        }
    }

    /// The image of a fixed insert sequence over five ASIDs and both
    /// page sizes, at the default 16 MiB geometry: its checksum is
    /// pinned, so any change to the encoding or to set placement shows.
    #[test]
    fn image_of_a_fixed_insert_sequence_is_pinned() {
        let mut p = PomTlb::new(csalt_types::SystemConfig::skylake().pom_tlb);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let size = if i % 3 == 0 {
                PageSize::Size2M
            } else {
                PageSize::Size4K
            };
            let page = VirtPage::from_vpn(x % 50_000, size);
            p.insert(page, Asid::new((i % 5) as u16 + 1), frame(x >> 40));
        }
        let mut w = CkptWriter::new();
        p.ckpt_save(&mut w);
        let image = w.finish("pin");
        assert_eq!(
            (image.len(), csalt_types::ckpt::image_checksum(&image)),
            (575_535, 13_536_402_892_190_239_199),
            "recorded with the dense two-array layout (re-framed for format version 3)"
        );
    }

    #[test]
    fn large_array_holds_working_set() {
        // 1 MiB / 16 B = 65536 entries: a 40k-page working set fits,
        // which is what makes POM-TLB eliminate page walks (Figure 8).
        let mut p = PomTlb::new(cfg());
        let a = Asid::new(1);
        for vpn in 0..40_000u64 {
            p.insert(page(vpn), a, frame(vpn));
        }
        let mut hits = 0;
        for vpn in 0..40_000u64 {
            if p.lookup(page(vpn), a).frame.is_some() {
                hits += 1;
            }
        }
        assert!(
            f64::from(hits) / 40_000.0 > 0.95,
            "expected >95% resident, got {hits}"
        );
    }

    #[test]
    fn distinct_sets_map_to_distinct_lines() {
        let p = PomTlb::new(cfg());
        let l0 = p.line_of_set(0);
        let l1 = p.line_of_set(1);
        assert_ne!(l0, l1);
        assert_eq!(l1.line_number(), l0.line_number() + 1);
    }

    #[test]
    fn owns_rejects_outside_addresses() {
        let p = PomTlb::new(cfg());
        assert!(!p.owns(PhysAddr::new(0x1000)));
        assert!(p.owns(PhysAddr::new(p.config().base)));
    }
}
