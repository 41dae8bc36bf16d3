//! Translation Storage Buffer (TSB) — the Oracle/Sun UltraSPARC software
//! translation cache the paper compares against (§5.2, §6).
//!
//! A TSB is a per-address-space, direct-mapped, software-managed array of
//! translation entries in ordinary memory. On a TLB miss the trap handler
//! indexes the TSB by VPN hash and reloads the TLB on a match. Like the
//! POM-TLB, TSB entries are cacheable; *unlike* the POM-TLB, resolving a
//! guest-virtual → host-physical translation in a virtualized system
//! requires **multiple dependent memory accesses** (the guest TSB lookup
//! yields a guest-physical address that itself must be located through
//! the hypervisor's structures — see the Solaris virtualization
//! architecture the paper cites). The model charges one access natively
//! and three dependent accesses when virtualized.
//!
//! Being direct-mapped, conflicting pages overwrite each other, so the
//! TSB also suffers more misses (→ page walks) than the set-associative
//! POM-TLB at equal capacity.
//!
//! Per-ASID state is flat: a dense `asid → table` index resolved once
//! per operation, with each table a boxed slot array — no hashing on
//! the access path (ASIDs are small integers; the old map-based layout
//! hashed the ASID twice per access).

use crate::sram::{size_code, size_from_code};
use csalt_types::{
    Asid, CkptError, CkptReader, CkptWriter, HitMissStats, LineAddr, PageSize, PhysAddr, PhysFrame,
    VirtPage,
};
use std::ops::Deref;

/// Sentinel in [`Tsb::asid_index`] for an ASID with no table yet.
const NO_TABLE: u32 = u32::MAX;

/// The dependent memory lines of one software lookup: an inline list
/// (1 native, 3 virtualized), so a lookup allocates nothing.
///
/// Dereferences to `[LineAddr]`; use it like a slice.
#[derive(Debug, Clone, Copy)]
pub struct TsbAccesses {
    len: u8,
    items: [LineAddr; 3],
}

impl TsbAccesses {
    fn one(line: LineAddr) -> Self {
        Self {
            len: 1,
            items: [line; 3],
        }
    }

    fn three(a: LineAddr, b: LineAddr, c: LineAddr) -> Self {
        Self {
            len: 3,
            items: [a, b, c],
        }
    }
}

impl Deref for TsbAccesses {
    type Target = [LineAddr];

    #[inline]
    fn deref(&self) -> &[LineAddr] {
        &self.items[..self.len as usize]
    }
}

impl PartialEq for TsbAccesses {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for TsbAccesses {}

impl<'a> IntoIterator for &'a TsbAccesses {
    type Item = &'a LineAddr;
    type IntoIter = std::slice::Iter<'a, LineAddr>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Result of a TSB lookup: the translation (if the slot matches) and the
/// dependent memory accesses the software walk performed, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TsbLookup {
    /// The translation, when the indexed slot holds this page.
    pub frame: Option<PhysFrame>,
    /// Memory lines touched by the software lookup (1 native,
    /// 3 virtualized), to be charged through the cache hierarchy as
    /// translation traffic.
    pub accesses: TsbAccesses,
}

#[derive(Debug, Clone, Copy)]
struct TsbSlot {
    page: VirtPage,
    frame: PhysFrame,
}

/// One ASID's direct-mapped table. Its position in [`Tsb::tables`] is
/// its first-touch order, which fixes its aperture offset.
#[derive(Debug, Clone)]
struct AsidTable {
    slots: Box<[Option<TsbSlot>]>,
}

/// The software translation-buffer model: one direct-mapped table per
/// ASID, laid out consecutively in a dedicated physical aperture.
#[derive(Debug, Clone)]
pub struct Tsb {
    /// Entries per per-ASID table (power of two).
    entries_per_table: u64,
    /// Bytes per entry (UltraSPARC TTE pairs are 16 bytes).
    entry_bytes: u64,
    /// Aperture base; table *i* starts at `base + i * table_bytes`.
    base: u64,
    virtualized: bool,
    /// Dense `asid.raw() → tables` index ([`NO_TABLE`] = unseen):
    /// resolved exactly once per lookup/insert.
    asid_index: Vec<u32>,
    tables: Vec<AsidTable>,
    stats: HitMissStats,
}

impl Tsb {
    /// Creates a TSB model.
    ///
    /// * `entries_per_table` — slots per address space (power of two).
    /// * `base` — physical base of the TSB aperture.
    /// * `virtualized` — whether lookups need the 2D (3-access) walk.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_table` is not a positive power of two.
    pub fn new(entries_per_table: u64, base: u64, virtualized: bool) -> Self {
        assert!(
            entries_per_table > 0 && entries_per_table.is_power_of_two(),
            "entries per table must be a positive power of two"
        );
        Self {
            entries_per_table,
            entry_bytes: 16,
            base,
            virtualized,
            asid_index: Vec::new(),
            tables: Vec::new(),
            stats: HitMissStats::new(),
        }
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> &HitMissStats {
        &self.stats
    }

    /// Resets statistics; contents are preserved.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Bytes occupied by one per-ASID table.
    pub fn table_bytes(&self) -> u64 {
        self.entries_per_table * self.entry_bytes
    }

    /// Resolves `asid` to its table, materializing it on first touch
    /// (first-touch order fixes the aperture offset). The single
    /// per-ASID resolution of every operation.
    fn table_id(&mut self, asid: Asid) -> usize {
        let a = asid.raw() as usize;
        if a >= self.asid_index.len() {
            self.asid_index.resize(a + 1, NO_TABLE);
        }
        if self.asid_index[a] == NO_TABLE {
            self.asid_index[a] =
                u32::try_from(self.tables.len()).expect("more tables than 16-bit ASIDs");
            self.tables.push(AsidTable {
                slots: vec![None; self.entries_per_table as usize].into_boxed_slice(),
            });
        }
        self.asid_index[a] as usize
    }

    #[inline]
    fn slot_of(&self, page: VirtPage) -> u64 {
        let salt = match page.size() {
            PageSize::Size4K => 0u64,
            PageSize::Size2M => 0x9e37_79b9,
            PageSize::Size1G => 0x517c_c1b7,
        };
        (page.vpn() ^ salt) & (self.entries_per_table - 1)
    }

    /// The aperture address of `page`'s slot in table `table`.
    fn entry_addr(&self, page: VirtPage, table: u64) -> PhysAddr {
        PhysAddr::new(
            self.base + table * self.table_bytes() + self.slot_of(page) * self.entry_bytes,
        )
    }

    /// The dependent accesses a lookup performs. Natively: the entry
    /// itself. Virtualized: the hypervisor's per-guest TSB descriptor,
    /// the nested locator for the entry's guest-physical page, then the
    /// entry (cf. the multi-step TSB translation flow in virtualized
    /// SPARC the paper references).
    fn walk_lines(&self, page: VirtPage, table: u64) -> TsbAccesses {
        let entry = self.entry_addr(page, table);
        if !self.virtualized {
            return TsbAccesses::one(entry.line());
        }
        // Descriptor region sits above all tables; one line per ASID.
        let descriptors = self.base + (self.tables.len() as u64).max(64) * self.table_bytes();
        let descriptor = PhysAddr::new(descriptors + table * csalt_types::LINE_BYTES);
        // Nested locator: hashes the entry's page within a per-ASID
        // region, modelling the hypervisor-side lookup.
        let locator_region = descriptors + (64 << 10);
        let locator = PhysAddr::new(
            locator_region
                + table * (256 << 10)
                + ((self.slot_of(page) >> 2) * csalt_types::LINE_BYTES) % (256 << 10),
        );
        TsbAccesses::three(descriptor.line(), locator.line(), entry.line())
    }

    /// Performs a software TSB lookup.
    pub fn lookup(&mut self, page: VirtPage, asid: Asid) -> TsbLookup {
        let table = self.table_id(asid);
        let accesses = self.walk_lines(page, table as u64);
        let slot = self.slot_of(page) as usize;
        let frame =
            self.tables[table].slots[slot].and_then(|s| (s.page == page).then_some(s.frame));
        self.stats.record(frame.is_some());
        TsbLookup { frame, accesses }
    }

    /// [`Tsb::lookup`] with the key already packed (callers precompute
    /// keys ahead of the lookup; see [`csalt_types::pack_tlb_key`]).
    /// Identical semantics and statistics: the packing is lossless, so
    /// the page and ASID are reconstructed exactly and `lookup` runs.
    pub fn lookup_prepacked(&mut self, packed: u64) -> TsbLookup {
        let page = VirtPage::from_vpn(
            csalt_types::unpack_tlb_vpn(packed),
            csalt_types::unpack_tlb_size(packed),
        );
        let asid = Asid::new((packed & 0xffff) as u16);
        self.lookup(page, asid)
    }

    /// Installs a translation (software reload after a page walk),
    /// returning the written line.
    pub fn insert(&mut self, page: VirtPage, asid: Asid, frame: PhysFrame) -> LineAddr {
        let table = self.table_id(asid);
        let line = self.entry_addr(page, table as u64).line();
        let slot = self.slot_of(page) as usize;
        self.tables[table].slots[slot] = Some(TsbSlot { page, frame });
        line
    }

    /// Number of dependent accesses per lookup in this configuration.
    pub fn accesses_per_lookup(&self) -> usize {
        if self.virtualized {
            3
        } else {
            1
        }
    }

    /// Serializes config guards, the dense ASID index, every table in
    /// first-touch order as two sparse slot arrays — page words
    /// (`vpn << 3 | size code << 1 | 1`, `0` where empty) and frame
    /// words (`pfn << 2 | size code`) — and the hit/miss counters.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.entries_per_table);
        w.u64(self.entry_bytes);
        w.u64(self.base);
        w.bool(self.virtualized);
        let index: Vec<u64> = self.asid_index.iter().map(|&i| u64::from(i)).collect();
        w.slice_u64(&index);
        w.len64(self.tables.len());
        for table in &self.tables {
            let n = table.slots.len();
            w.iter_u64(
                n,
                table.slots.iter().map(|slot| {
                    slot.map_or(0, |s| {
                        debug_assert!(s.page.vpn() < 1 << 61, "vpn overflows a page word");
                        s.page.vpn() << 3 | u64::from(size_code(s.page.size())) << 1 | 1
                    })
                }),
            );
            w.iter_u64(
                n,
                table.slots.iter().map(|slot| {
                    slot.map_or(0, |s| {
                        debug_assert!(s.frame.pfn() < 1 << 62, "pfn overflows a frame word");
                        s.frame.pfn() << 2 | u64::from(size_code(s.frame.size()))
                    })
                }),
            );
        }
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
    }

    /// Restores state written by [`Tsb::ckpt_save`]; table positions
    /// (first-touch order) are restored exactly, so aperture offsets —
    /// and thus every walk line — reproduce.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u64()? != self.entries_per_table
            || r.u64()? != self.entry_bytes
            || r.u64()? != self.base
            || r.bool()? != self.virtualized
        {
            return Err(CkptError::Mismatch("tsb configuration"));
        }
        let index = r.vec_u64()?;
        let table_count = r.len64()?;
        let mut asid_index = Vec::with_capacity(index.len());
        for v in index {
            let i = u32::try_from(v).map_err(|_| CkptError::Corrupt("tsb asid index"))?;
            if i != NO_TABLE && i as usize >= table_count {
                return Err(CkptError::Corrupt("tsb asid index out of range"));
            }
            asid_index.push(i);
        }
        // Each table is two sparse arrays of at least a count word and a
        // presence bitmap; bound the table count by the remaining
        // payload before allocating anything.
        let entries = self.entries_per_table as usize;
        let table_floor = 2 * (8 + entries.div_ceil(8));
        if table_count
            .checked_mul(table_floor)
            .is_none_or(|b| b > r.remaining())
        {
            return Err(CkptError::Truncated);
        }
        let mut tables = Vec::with_capacity(table_count);
        let mut pages = vec![0; entries];
        let mut frames = vec![0; entries];
        for _ in 0..table_count {
            r.fill_u64(&mut pages)?;
            r.fill_u64(&mut frames)?;
            let slots = pages
                .iter()
                .zip(&frames)
                .map(|(&page, &frame)| match (page, frame) {
                    (0, 0) => Ok(None),
                    (0, _) => Err(CkptError::Corrupt("tsb frame in an empty slot")),
                    (page, _) if page & 1 == 0 => Err(CkptError::Corrupt("tsb slot flag")),
                    (page, frame) => Ok(Some(TsbSlot {
                        page: VirtPage::from_vpn(page >> 3, size_from_code((page >> 1 & 3) as u8)?),
                        frame: PhysFrame::from_pfn(frame >> 2, size_from_code((frame & 3) as u8)?),
                    })),
                })
                .collect::<Result<_, _>>()?;
            tables.push(AsidTable { slots });
        }
        self.asid_index = asid_index;
        self.tables = tables;
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(vpn: u64) -> VirtPage {
        VirtPage::from_vpn(vpn, PageSize::Size4K)
    }

    fn frame(pfn: u64) -> PhysFrame {
        PhysFrame::from_pfn(pfn, PageSize::Size4K)
    }

    const BASE: u64 = 0x7d00_0000_0000;

    #[test]
    fn miss_insert_hit() {
        let mut t = Tsb::new(1024, BASE, false);
        let a = Asid::new(1);
        assert!(t.lookup(page(3), a).frame.is_none());
        t.insert(page(3), a, frame(9));
        assert_eq!(t.lookup(page(3), a).frame, Some(frame(9)));
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn native_lookup_is_single_access() {
        let mut t = Tsb::new(1024, BASE, false);
        let r = t.lookup(page(3), Asid::new(1));
        assert_eq!(r.accesses.len(), 1);
        assert_eq!(t.accesses_per_lookup(), 1);
    }

    #[test]
    fn virtualized_lookup_takes_three_dependent_accesses() {
        let mut t = Tsb::new(1024, BASE, true);
        let r = t.lookup(page(3), Asid::new(1));
        assert_eq!(r.accesses.len(), 3);
        assert_eq!(t.accesses_per_lookup(), 3);
        // All three distinct lines (dependent, not coalescable).
        let mut lines = r.accesses.to_vec();
        lines.dedup();
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn final_access_is_the_entry_line() {
        let mut t = Tsb::new(1024, BASE, true);
        let a = Asid::new(2);
        let written = t.insert(page(77), a, frame(5));
        let r = t.lookup(page(77), a);
        assert_eq!(*r.accesses.last().expect("nonempty"), written);
        assert_eq!(r.frame, Some(frame(5)));
    }

    #[test]
    fn direct_mapped_conflict_overwrites() {
        let mut t = Tsb::new(16, BASE, false);
        let a = Asid::new(0);
        t.insert(page(1), a, frame(1));
        t.insert(page(17), a, frame(2)); // 17 & 15 == 1: same slot
        assert!(t.lookup(page(1), a).frame.is_none(), "overwritten");
        assert_eq!(t.lookup(page(17), a).frame, Some(frame(2)));
    }

    #[test]
    fn per_asid_tables_are_disjoint() {
        let mut t = Tsb::new(64, BASE, false);
        t.insert(page(4), Asid::new(1), frame(1));
        assert!(t.lookup(page(4), Asid::new(2)).frame.is_none());
        // And their entry lines differ (distinct table regions).
        let l1 = t.insert(page(4), Asid::new(1), frame(1));
        let l2 = t.insert(page(4), Asid::new(2), frame(1));
        assert_ne!(l1, l2);
    }

    #[test]
    fn lookup_lines_stay_in_aperture_region() {
        let mut t = Tsb::new(1024, BASE, true);
        for vpn in 0..100 {
            for &l in &t.lookup(page(vpn), Asid::new(3)).accesses {
                assert!(l.base().raw() >= BASE);
            }
        }
    }

    #[test]
    fn accesses_compare_by_contents() {
        let mut t = Tsb::new(1024, BASE, true);
        let a = t.lookup(page(5), Asid::new(1)).accesses;
        let b = t.lookup(page(5), Asid::new(1)).accesses;
        assert_eq!(a, b);
        // A page in a different slot group lands on different lines.
        let c = t.lookup(page(512), Asid::new(1)).accesses;
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        Tsb::new(1000, BASE, false);
    }

    #[test]
    fn prepacked_lookup_matches_unpacked() {
        let mut a = Tsb::new(1024, BASE, true);
        let mut b = Tsb::new(1024, BASE, true);
        for asid in [1u16, 2, 1] {
            for vpn in [3u64, 19, 3, 3] {
                a.insert(page(vpn), Asid::new(asid), frame(vpn));
                b.insert(page(vpn), Asid::new(asid), frame(vpn));
                let packed = csalt_types::pack_tlb_key(vpn, PageSize::Size4K, Asid::new(asid));
                assert_eq!(
                    a.lookup_prepacked(packed),
                    b.lookup(page(vpn), Asid::new(asid))
                );
                assert_eq!(
                    a.lookup_prepacked(packed),
                    b.lookup(page(vpn), Asid::new(asid)),
                    "repeat lookups must agree too"
                );
            }
        }
        assert_eq!(a.stats().hits, b.stats().hits);
        assert_eq!(a.stats().misses, b.stats().misses);
    }
}
