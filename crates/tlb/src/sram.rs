//! On-chip SRAM TLBs: the per-core L1 (split by page size) and unified L2
//! levels of the paper's Table 2, ASID-tagged so context switches do not
//! flush them (§1).

use csalt_cache::{way_range_mask, Policy};
use csalt_types::{
    Asid, CkptError, CkptReader, CkptWriter, Cycle, HitMissStats, PageSize, PhysFrame,
    ReplacementKind, TlbGeometry, VirtPage,
};

/// Encodes a page size as a one-byte checkpoint code.
pub(crate) fn size_code(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

/// Decodes a checkpoint page-size code.
pub(crate) fn size_from_code(code: u8) -> Result<PageSize, CkptError> {
    match code {
        0 => Ok(PageSize::Size4K),
        1 => Ok(PageSize::Size2M),
        2 => Ok(PageSize::Size1G),
        _ => Err(CkptError::Corrupt("page size code")),
    }
}

/// Full lookup key: virtual page (number + size) and address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbKey {
    /// The virtual page.
    pub page: VirtPage,
    /// The owning address space.
    pub asid: Asid,
}

/// Sentinel for an empty way (no real packed key reaches all-ones: the
/// VPN would have to exceed the 48-bit address space).
pub(crate) const EMPTY: u64 = csalt_types::PACKED_TLB_EMPTY;

/// Packs a [`TlbKey`] into one comparable word so the per-set way scan
/// compares one `u64` per way instead of a multi-word struct. The layout
/// (VPN above, 2-bit page-size code, 16-bit ASID) is defined once in
/// [`csalt_types::pack_tlb_key`] so callers can precompute identical
/// keys ahead of the lookup.
#[inline]
pub(crate) fn pack(key: &TlbKey) -> u64 {
    csalt_types::pack_tlb_key(key.page.vpn(), key.page.size(), key.asid)
}

/// A set-associative, ASID-tagged SRAM TLB.
///
/// Used for both L1 TLBs (one instance per page size) and the unified L2
/// TLB (entries of both sizes coexist; the set index mixes the page size
/// so 4 KiB and 2 MiB entries of the same region do not collide).
/// Storage is struct-of-arrays: packed keys in one flat `u64` array
/// (scanned on the hot path) with frames alongside, and the True-LRU
/// state of every set in one flat array of [`Policy`] state words.
#[derive(Debug, Clone)]
pub struct SramTlb {
    sets: u32,
    ways: u32,
    latency: Cycle,
    /// Packed keys per slot; [`EMPTY`] marks an invalid way.
    keys: Vec<u64>,
    /// Frame per slot, parallel to `keys` (garbage where empty).
    frames: Vec<PhysFrame>,
    policy: Policy,
    /// Replacement state, `policy.words()` words per set.
    repl: Vec<u64>,
    stats: HitMissStats,
}

impl SramTlb {
    /// Builds a TLB from its geometry, with True-LRU replacement (SRAM
    /// TLBs are small enough that real hardware implements exact LRU).
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate; see [`SramTlb::try_new`]
    /// for the fallible form.
    pub fn new(geom: TlbGeometry) -> Self {
        Self::try_new(geom).expect("TLB geometry must be valid")
    }

    /// Fallible form of [`SramTlb::new`]: returns the first CSALT-Axxx
    /// geometry violation instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`csalt_types::ConfigError`] when the geometry fails a
    /// static invariant (a set count that is not a power of two is
    /// CSALT-A017).
    pub fn try_new(geom: TlbGeometry) -> Result<Self, csalt_types::ConfigError> {
        geom.validate("sram-tlb")?;
        let sets = geom.sets();
        let slots = (sets * geom.ways) as usize;
        let policy = Policy::new(ReplacementKind::TrueLru, geom.ways);
        Ok(Self {
            sets,
            ways: geom.ways,
            latency: geom.latency,
            keys: vec![EMPTY; slots],
            frames: vec![PhysFrame::from_pfn(0, PageSize::Size4K); slots],
            policy,
            repl: policy.initial_state().repeat(sets as usize),
            stats: HitMissStats::new(),
        })
    }

    /// Lookup latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> u32 {
        self.sets * self.ways
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &HitMissStats {
        &self.stats
    }

    /// Resets statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    #[inline]
    fn set_of(&self, key: &TlbKey) -> u32 {
        self.set_of_packed(pack(key))
    }

    /// Set index from a packed key: the VPN xor a size salt, masked to
    /// the set count. Mixing the size tag in lets a unified TLB separate
    /// 4K/2M streams. Derived entirely from the packed word so the
    /// prepacked lookup path computes the identical index.
    #[inline]
    fn set_of_packed(&self, packed: u64) -> u32 {
        let size_salt = match csalt_types::unpack_tlb_size(packed) {
            PageSize::Size4K => 0u64,
            PageSize::Size2M => 0x9e37_79b9,
            PageSize::Size1G => 0x7f4a_7c15,
        };
        ((csalt_types::unpack_tlb_vpn(packed) ^ size_salt) & (u64::from(self.sets) - 1)) as u32
    }

    #[inline]
    fn slot(&self, set: u32, way: u32) -> usize {
        (set * self.ways + way) as usize
    }

    /// The replacement state words of `set`.
    #[inline]
    fn repl_mut(&mut self, set: u32) -> &mut [u64] {
        let words = self.policy.words();
        let base = set as usize * words;
        &mut self.repl[base..base + words]
    }

    /// Looks up a translation, updating recency and statistics.
    pub fn lookup(&mut self, page: VirtPage, asid: Asid) -> Option<PhysFrame> {
        self.lookup_prepacked(pack(&TlbKey { page, asid }))
    }

    /// [`SramTlb::lookup`] with the key already packed (callers precompute
    /// keys ahead of the lookup; see [`csalt_types::pack_tlb_key`]).
    /// Identical semantics and statistics — `lookup` delegates here.
    pub fn lookup_prepacked(&mut self, packed: u64) -> Option<PhysFrame> {
        let set = self.set_of_packed(packed);
        let base = self.slot(set, 0);
        let set_keys = &self.keys[base..base + self.ways as usize];
        if let Some(way) = set_keys.iter().position(|&k| k == packed) {
            let frame = self.frames[base + way];
            let policy = self.policy;
            policy.touch(self.repl_mut(set), way as u32);
            self.stats.record_hit();
            return Some(frame);
        }
        self.stats.record_miss();
        None
    }

    /// Checks presence without updating recency or statistics.
    pub fn probe(&self, page: VirtPage, asid: Asid) -> bool {
        let key = TlbKey { page, asid };
        let set = self.set_of(&key);
        let packed = pack(&key);
        let base = self.slot(set, 0);
        self.keys[base..base + self.ways as usize].contains(&packed)
    }

    /// Installs a translation (no-op refresh if already present),
    /// evicting the set's LRU entry when full.
    pub fn insert(&mut self, page: VirtPage, asid: Asid, frame: PhysFrame) {
        let key = TlbKey { page, asid };
        let set = self.set_of(&key);
        let packed = pack(&key);
        let base = self.slot(set, 0);
        let set_keys = &self.keys[base..base + self.ways as usize];
        // Refresh in place if present; else fill the first free way; else
        // evict the set's LRU victim.
        let way = match set_keys.iter().position(|&k| k == packed) {
            Some(w) => w as u32,
            None => match set_keys.iter().position(|&k| k == EMPTY) {
                Some(w) => w as u32,
                None => {
                    let (policy, full) = (self.policy, way_range_mask(0, self.ways));
                    policy.victim(self.repl_mut(set), full)
                }
            },
        };
        let slot = base + way as usize;
        self.keys[slot] = packed;
        self.frames[slot] = frame;
        let policy = self.policy;
        policy.touch(self.repl_mut(set), way);
    }

    /// Invalidates every entry (a full TLB flush).
    pub fn flush(&mut self) {
        self.keys.fill(EMPTY);
    }

    /// Invalidates all entries belonging to `asid`.
    pub fn flush_asid(&mut self, asid: Asid) {
        let tag = u64::from(asid.raw());
        for k in &mut self.keys {
            if *k != EMPTY && *k & 0xffff == tag {
                *k = EMPTY;
            }
        }
    }

    /// Number of currently valid entries (for tests and occupancy
    /// reporting).
    pub fn valid_entries(&self) -> u32 {
        self.keys.iter().filter(|&&k| k != EMPTY).count() as u32
    }

    /// Fraction of entry slots currently holding a valid translation,
    /// in `[0, 1]` — a telemetry gauge for reach-starvation diagnosis.
    pub fn utilization(&self) -> f64 {
        f64::from(self.valid_entries()) / f64::from(self.capacity())
    }

    /// Serializes geometry guards, packed keys, frames (PFN + size
    /// code), replacement state and hit/miss counters.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u32(self.sets);
        w.u32(self.ways);
        w.slice_u64(&self.keys);
        let n = self.frames.len();
        w.iter_u64(n, self.frames.iter().map(|f| f.pfn()));
        w.iter_u8(n, self.frames.iter().map(|f| size_code(f.size())));
        w.slice_u64(&self.repl);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
    }

    /// Restores state written by [`SramTlb::ckpt_save`] into this
    /// (geometry-constructed) TLB. Keys and replacement state decode in
    /// place; frames pass through two slot-sized arrays.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u32()? != self.sets || r.u32()? != self.ways {
            return Err(CkptError::Mismatch("sram-tlb geometry"));
        }
        r.fill_u64(&mut self.keys)?;
        let mut pfns = vec![0; self.frames.len()];
        r.fill_u64(&mut pfns)?;
        let mut sizes = vec![0; self.frames.len()];
        r.fill_u8(&mut sizes)?;
        for (dst, (&pfn, &code)) in self.frames.iter_mut().zip(pfns.iter().zip(&sizes)) {
            *dst = PhysFrame::from_pfn(pfn, size_from_code(code)?);
        }
        r.fill_u64(&mut self.repl)?;
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(entries: u32, ways: u32) -> TlbGeometry {
        TlbGeometry {
            entries,
            ways,
            latency: 9,
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
        let mut t = SramTlb::new(geom(64, 4));
        let a = Asid::new(1);
        assert!(t.lookup(page(5), a).is_none());
        t.insert(page(5), a, frame(77));
        assert_eq!(t.lookup(page(5), a), Some(frame(77)));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn asid_isolation() {
        let mut t = SramTlb::new(geom(64, 4));
        t.insert(page(5), Asid::new(1), frame(10));
        assert!(t.lookup(page(5), Asid::new(2)).is_none());
        assert!(t.lookup(page(5), Asid::new(1)).is_some());
    }

    #[test]
    fn context_switch_without_flush_retains_entries() {
        // The ASID-tagged design means entries survive a switch (§1).
        let mut t = SramTlb::new(geom(64, 4));
        let (a1, a2) = (Asid::new(1), Asid::new(2));
        t.insert(page(3), a1, frame(30));
        // "Switch" to asid 2, do some work.
        t.insert(page(3), a2, frame(40));
        // Switch back: asid 1's entry is still there.
        assert_eq!(t.lookup(page(3), a1), Some(frame(30)));
    }

    #[test]
    fn set_conflict_evicts_lru() {
        let mut t = SramTlb::new(geom(8, 2)); // 4 sets, 2 ways
        let a = Asid::new(0);
        // Pages 0, 4, 8 all map to set 0 (vpn % 4 == 0).
        t.insert(page(0), a, frame(1));
        t.insert(page(4), a, frame(2));
        t.lookup(page(0), a); // page 0 now MRU; page 4 is LRU
        t.insert(page(8), a, frame(3)); // evicts page 4
        assert!(t.probe(page(0), a));
        assert!(!t.probe(page(4), a));
        assert!(t.probe(page(8), a));
    }

    #[test]
    fn unified_tlb_separates_page_sizes() {
        let mut t = SramTlb::new(geom(1536, 12));
        let a = Asid::new(1);
        let p4k = VirtPage::from_vpn(100, PageSize::Size4K);
        let p2m = VirtPage::from_vpn(100, PageSize::Size2M);
        t.insert(p4k, a, frame(1));
        assert!(t.lookup(p2m, a).is_none(), "sizes are distinct keys");
        t.insert(p2m, a, PhysFrame::from_pfn(2, PageSize::Size2M));
        assert!(t.lookup(p4k, a).is_some());
        assert!(t.lookup(p2m, a).is_some());
    }

    #[test]
    fn reinsert_updates_frame() {
        let mut t = SramTlb::new(geom(64, 4));
        let a = Asid::new(1);
        t.insert(page(9), a, frame(1));
        t.insert(page(9), a, frame(2));
        assert_eq!(t.lookup(page(9), a), Some(frame(2)));
        assert_eq!(t.valid_entries(), 1, "no duplicate entries");
    }

    #[test]
    fn flush_and_flush_asid() {
        let mut t = SramTlb::new(geom(64, 4));
        t.insert(page(1), Asid::new(1), frame(1));
        t.insert(page(2), Asid::new(2), frame(2));
        t.flush_asid(Asid::new(1));
        assert!(!t.probe(page(1), Asid::new(1)));
        assert!(t.probe(page(2), Asid::new(2)));
        t.flush();
        assert_eq!(t.valid_entries(), 0);
    }

    #[test]
    fn capacity_matches_geometry() {
        let t = SramTlb::new(geom(1536, 12));
        assert_eq!(t.capacity(), 1536);
        assert_eq!(t.latency(), 9);
    }

    #[test]
    fn probe_does_not_affect_stats() {
        let t = SramTlb::new(geom(64, 4));
        t.probe(page(1), Asid::new(0));
        assert_eq!(t.stats().accesses(), 0);
    }
}
