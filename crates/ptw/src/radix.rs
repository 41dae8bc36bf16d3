//! A 4-level x86-64-style radix page table, built lazily over a simulated
//! physical address space.
//!
//! Each table node occupies a real 4 KiB frame in its address space, so a
//! walk yields the *physical addresses of the PTEs it reads* — these are
//! what the conventional translation scheme feeds through the data caches
//! (and what pollutes them, §2.2).
//!
//! Nodes live in two arrays indexed by arena position: `slots` holds
//! each node's 512 eight-byte words in one allocation, so a node is
//! exactly one 4 KiB page of host memory; `bases` holds each node's
//! simulated physical frame. A slot word is `0` when empty,
//! `node << 2 | 1` for a pointer to the next-level node's arena index,
//! and `pfn << 4 | size_code << 2 | 2` for a leaf. A walk step reads one
//! word of one page. Nodes are allocated one page at a time rather than
//! appended to one growing array: the array's doubling reallocations
//! copied the whole arena and left freed holes behind, which raised peak
//! memory and changed what the allocator recycled between runs. This is
//! the simulator's hottest structure — every L2 TLB miss in the
//! conventional scheme, and every large-TLB miss elsewhere, walks it
//! (several times per access when virtualized).

use crate::frames::FrameAllocator;
use csalt_types::{
    CkptError, CkptReader, CkptWriter, PageSize, PhysAddr, PhysFrame, VirtAddr, VirtPage,
};
use std::ops::Deref;

/// Entries per radix node (9 index bits per level).
const NODE_ENTRIES: usize = 512;

/// One node's slot words: exactly one 4 KiB page.
type Node = [u64; NODE_ENTRIES];

/// A node with every slot empty, taken from zeroed memory.
fn empty_node() -> Box<Node> {
    vec![EMPTY; NODE_ENTRIES]
        .into_boxed_slice()
        .try_into()
        .expect("NODE_ENTRIES words")
}

/// Low two bits of a slot word: what the slot holds.
const TAG_MASK: u64 = 3;
/// An unmapped slot (the whole word is zero).
const EMPTY: u64 = 0;
/// A pointer to the next-level node; the arena index sits above the tag.
const TAG_TABLE: u64 = 1;
/// A terminal mapping; the PFN sits above a 2-bit page-size code.
const TAG_LEAF: u64 = 2;
/// Leaf PFNs must fit the 60 bits above the size code and tag.
const PFN_LIMIT: u64 = 1 << 60;

/// The slot word pointing at arena node `node`.
#[inline]
fn table_word(node: usize) -> u64 {
    (node as u64) << 2 | TAG_TABLE
}

/// The slot word mapping `frame` (whose PFN is below [`PFN_LIMIT`]).
#[inline]
fn leaf_word(frame: PhysFrame) -> u64 {
    debug_assert!(frame.pfn() < PFN_LIMIT, "pfn overflows a slot word");
    frame.pfn() << 4 | u64::from(size_code(frame.size())) << 2 | TAG_LEAF
}

/// The frame a leaf slot word maps.
#[inline]
fn leaf_frame(word: u64) -> PhysFrame {
    let size = match (word >> 2) & 3 {
        0 => PageSize::Size4K,
        1 => PageSize::Size2M,
        _ => PageSize::Size1G,
    };
    PhysFrame::from_pfn(word >> 4, size)
}

/// A page size's 2-bit code (in slot words and checkpoint images).
#[inline]
fn size_code(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

/// One PTE reference performed during a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteRef {
    /// Physical address of the 8-byte entry that was read.
    pub addr: PhysAddr,
    /// The level it belongs to (4 = root … 1 = leaf level).
    pub level: u8,
}

/// The ordered PTE reads of one walk: an inline fixed-capacity list
/// (max 5 levels), so returning a walk allocates nothing.
///
/// Dereferences to `[PteRef]`; use it like a slice.
#[derive(Debug, Clone, Copy)]
pub struct PteRefs {
    len: u8,
    items: [PteRef; 5],
}

impl PteRefs {
    const EMPTY_REF: PteRef = PteRef {
        addr: PhysAddr::new(0),
        level: 0,
    };

    /// An empty list.
    pub const fn new() -> Self {
        Self {
            len: 0,
            items: [Self::EMPTY_REF; 5],
        }
    }

    /// Appends a reference.
    ///
    /// # Panics
    ///
    /// Panics beyond 5 entries (deeper than any supported table).
    #[inline]
    pub fn push(&mut self, r: PteRef) {
        self.items[self.len as usize] = r;
        self.len += 1;
    }
}

impl Default for PteRefs {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for PteRefs {
    type Target = [PteRef];

    #[inline]
    fn deref(&self) -> &[PteRef] {
        &self.items[..self.len as usize]
    }
}

impl PartialEq for PteRefs {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for PteRefs {}

impl<'a> IntoIterator for &'a PteRefs {
    type Item = &'a PteRef;
    type IntoIter = std::slice::Iter<'a, PteRef>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The outcome of walking (and, if needed, demand-mapping) an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPath {
    /// The terminal frame translating the address.
    pub frame: PhysFrame,
    /// The PTE reads performed, root first (1–5 entries).
    pub refs: PteRefs,
}

/// Chooses terminal page sizes for demand mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HugePagePolicy {
    /// Fraction of 2 MiB-aligned regions backed by huge pages, in
    /// `[0, 1]`. Transparent Huge Pages promotes hot regions; the
    /// decision here is a deterministic per-region hash.
    pub fraction_2m: f64,
}

impl HugePagePolicy {
    /// No huge pages: everything is 4 KiB.
    pub const NONE: HugePagePolicy = HugePagePolicy { fraction_2m: 0.0 };

    /// Decides whether the 2 MiB region containing `va` is a huge page.
    pub fn is_huge(&self, va: VirtAddr) -> bool {
        if self.fraction_2m <= 0.0 {
            return false;
        }
        if self.fraction_2m >= 1.0 {
            return true;
        }
        let region = va.raw() >> PageSize::Size2M.shift();
        let h = region
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
        ((h >> 11) as f64 / (1u64 << 53) as f64) < self.fraction_2m
    }
}

/// A lazily-populated 4-level radix page table.
///
/// The table's nodes and leaf frames live in the address space served by
/// the [`FrameAllocator`] passed to [`RadixPageTable::walk_or_map`] — a
/// guest table allocates guest-physical frames, the host table
/// host-physical frames. Node 0 of the arena is the root.
#[derive(Debug, Clone)]
pub struct RadixPageTable {
    /// Each node's slot words, by arena index.
    slots: Vec<Box<Node>>,
    /// Each node's physical frame base, by arena index.
    bases: Vec<PhysAddr>,
    policy: HugePagePolicy,
    levels: u8,
    mapped_pages: u64,
}

impl RadixPageTable {
    /// Creates an empty 4-level table whose root node is allocated from
    /// `alloc`.
    pub fn new(alloc: &mut FrameAllocator, policy: HugePagePolicy) -> Self {
        Self::with_levels(alloc, policy, 4)
    }

    /// Creates a table with the given depth: 4 (x86-64) or 5 (Intel's
    /// LA57 extension — the paper's introduction notes 5-level paging
    /// "will only strengthen the motivation" for CSALT, and the
    /// `ext_5level` bench quantifies exactly that).
    ///
    /// # Panics
    ///
    /// Panics unless `levels` is 4 or 5.
    pub fn with_levels(alloc: &mut FrameAllocator, policy: HugePagePolicy, levels: u8) -> Self {
        assert!(levels == 4 || levels == 5, "only 4- or 5-level paging");
        let root = alloc.alloc(PageSize::Size4K).base();
        Self {
            slots: vec![empty_node()],
            bases: vec![root],
            policy,
            levels,
            mapped_pages: 0,
        }
    }

    /// The table's depth (4 or 5).
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// The root node's physical address (the CR3 analogue).
    pub fn root(&self) -> PhysAddr {
        self.bases[0]
    }

    /// Number of terminal pages mapped so far.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }

    /// The address of the 8-byte PTE at (`table`, `index`).
    #[inline]
    fn pte_addr(table: PhysAddr, index: u64) -> PhysAddr {
        PhysAddr::new(table.raw() + index * 8)
    }

    /// Whether `va` maps to a 2 MiB page. The policy sees the canonical
    /// form of the bits this table indexes (the low `12 + 9 * levels`,
    /// the top one copied upward), so every address that reaches a slot
    /// gets the same answer — also a non-canonical one, which would
    /// otherwise hash differently from its slot-mates — and it is the
    /// address [`RadixPageTable::ckpt_load`] rebuilds from the slot.
    fn is_huge(&self, va: VirtAddr) -> bool {
        let unused = 64 - (12 + 9 * u32::from(self.levels));
        let canonical = ((va.raw() << unused) as i64 >> unused) as u64;
        self.policy.is_huge(VirtAddr::new(canonical))
    }

    /// Walks `va`, demand-allocating intermediate tables and the terminal
    /// frame (honouring the huge-page policy) when absent. Returns the
    /// terminal frame and the ordered PTE reads.
    pub fn walk_or_map(&mut self, va: VirtAddr, alloc: &mut FrameAllocator) -> WalkPath {
        let huge = self.is_huge(va);
        let leaf_level = if huge { 2 } else { 1 };
        let mut node = 0usize;
        let mut refs = PteRefs::new();
        for level in (1..=self.levels).rev() {
            let index = va.pt_index(level);
            refs.push(PteRef {
                addr: Self::pte_addr(self.bases[node], index),
                level,
            });
            let slot = index as usize;
            let word = self.slots[node][slot];
            if level == leaf_level {
                let frame = match word & TAG_MASK {
                    TAG_LEAF => leaf_frame(word),
                    EMPTY => {
                        let size = if huge {
                            PageSize::Size2M
                        } else {
                            PageSize::Size4K
                        };
                        let frame = alloc.alloc(size);
                        self.slots[node][slot] = leaf_word(frame);
                        self.mapped_pages += 1;
                        frame
                    }
                    _ => unreachable!("leaf level holds only leaves"),
                };
                return WalkPath { frame, refs };
            }
            node = match word & TAG_MASK {
                TAG_TABLE => (word >> 2) as usize,
                EMPTY => {
                    let next = self.bases.len();
                    self.bases.push(alloc.alloc(PageSize::Size4K).base());
                    self.slots.push(empty_node());
                    self.slots[node][slot] = table_word(next);
                    next
                }
                _ => unreachable!("leaf above leaf level"),
            };
        }
        unreachable!("loop always returns at the leaf level")
    }

    /// Walks `va` without mapping; `None` if the address is unmapped.
    pub fn walk(&self, va: VirtAddr) -> Option<WalkPath> {
        let mut node = 0usize;
        let mut refs = PteRefs::new();
        for level in (1..=self.levels).rev() {
            let index = va.pt_index(level);
            refs.push(PteRef {
                addr: Self::pte_addr(self.bases[node], index),
                level,
            });
            let word = self.slots[node][index as usize];
            match word & TAG_MASK {
                TAG_TABLE => node = (word >> 2) as usize,
                TAG_LEAF => {
                    return Some(WalkPath {
                        frame: leaf_frame(word),
                        refs,
                    })
                }
                _ => return None,
            }
        }
        None
    }

    /// The terminal virtual page `va` belongs to once mapped (size per
    /// the huge-page policy).
    pub fn terminal_page(&self, va: VirtAddr) -> VirtPage {
        let size = if self.is_huge(va) {
            PageSize::Size2M
        } else {
            PageSize::Size4K
        };
        va.page(size)
    }

    /// Serializes the node arena, the table depth guard and the
    /// mapped-page counter. Each node writes its base, a 512-byte slot
    /// tag array, and then fields only for the non-empty slots — empty
    /// slots (most of every sparsely-populated node) cost one byte. A
    /// table slot writes its target's arena index and base; a leaf its
    /// PFN and size code.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u8(self.levels);
        w.u64(self.mapped_pages);
        w.len64(self.bases.len());
        for (base, words) in self.bases.iter().zip(&self.slots) {
            w.u64(base.raw());
            w.iter_u8(
                NODE_ENTRIES,
                words.iter().map(|&word| (word & TAG_MASK) as u8),
            );
            for &word in words.iter() {
                match word & TAG_MASK {
                    TAG_TABLE => {
                        w.u64(word >> 2);
                        w.u64(self.bases[(word >> 2) as usize].raw());
                    }
                    TAG_LEAF => {
                        let frame = leaf_frame(word);
                        w.u64(frame.pfn());
                        w.u8(size_code(frame.size()));
                    }
                    _ => {}
                }
            }
        }
    }

    /// Restores state written by [`RadixPageTable::ckpt_save`],
    /// replacing this table's arena wholesale. The node count is
    /// validated against the remaining payload before any allocation.
    ///
    /// Decoding fails closed: the image must describe a table that
    /// [`RadixPageTable::walk_or_map`] could have built under this
    /// table's huge-page policy, or it is rejected as
    /// [`CkptError::Corrupt`]. Every node but the root is linked from
    /// exactly one earlier node (the arena appends a child after its
    /// parent), by a table slot whose address is the child's base;
    /// table slots sit only above the leaf level the policy gives their
    /// address, leaves only at it with that level's page size and a
    /// packable PFN; and the leaves number `mapped_pages`. A slot's
    /// address is the canonical one (upper bits copying the table's top
    /// bit), so a table that mapped non-canonical addresses is rejected.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u8()? != self.levels {
            return Err(CkptError::Mismatch("page table depth"));
        }
        let mapped_pages = r.u64()?;
        let count = r.len64()?;
        if count == 0 {
            return Err(CkptError::Corrupt("page table has no root"));
        }
        // Each node is at least 8 bytes of base + a sparse tag array's
        // count word and presence bitmap; bound the arena allocation on
        // that floor before reserving anything (slot fields validate
        // incrementally as they are read).
        let node_floor = 8u64 + 8 + (NODE_ENTRIES as u64).div_ceil(8);
        let need = (count as u64)
            .checked_mul(node_floor)
            .ok_or(CkptError::Truncated)?;
        if need > r.remaining() as u64 {
            return Err(CkptError::Truncated);
        }
        let mut slots = Vec::with_capacity(count);
        let mut bases = Vec::with_capacity(count);
        // Per node, filled in when its parent links it: its level (0 =
        // not linked yet), the first virtual address it spans, and the
        // base address its parent's slot recorded.
        let mut level_of = vec![0u8; count];
        let mut va_of = vec![0u64; count];
        let mut linked_pa = vec![0u64; count];
        level_of[0] = self.levels;
        let mut leaves = 0u64;
        for idx in 0..count {
            let level = level_of[idx];
            if level == 0 {
                return Err(CkptError::Corrupt("page-table node not linked"));
            }
            let base = r.u64()?;
            if idx > 0 && base != linked_pa[idx] {
                return Err(CkptError::Corrupt("table address differs from node base"));
            }
            let mut tags = [0u8; NODE_ENTRIES];
            r.fill_u8(&mut tags)?;
            let shift = 12 + 9 * u32::from(level - 1);
            let mut words = empty_node();
            for (slot, &tag) in tags.iter().enumerate() {
                if tag == 0 {
                    continue;
                }
                let mut va = va_of[idx] | (slot as u64) << shift;
                if idx == 0 && slot >= NODE_ENTRIES / 2 {
                    // The root's upper half maps the canonical high
                    // addresses, whose top bits copy the table's top one.
                    va |= !0 << (shift + 9);
                }
                let leaf_level = if self.policy.is_huge(VirtAddr::new(va)) {
                    2
                } else {
                    1
                };
                words[slot] = match tag {
                    1 => {
                        let child = r.u64()?;
                        let pa = r.u64()?;
                        if level <= leaf_level {
                            return Err(CkptError::Corrupt("table pointer at the leaf level"));
                        }
                        let child = usize::try_from(child)
                            .ok()
                            .filter(|&c| c > idx && c < count)
                            .ok_or(CkptError::Corrupt("node index out of range"))?;
                        if level_of[child] != 0 {
                            return Err(CkptError::Corrupt("page-table node linked twice"));
                        }
                        level_of[child] = level - 1;
                        va_of[child] = va;
                        linked_pa[child] = pa;
                        table_word(child)
                    }
                    2 => {
                        let pfn = r.u64()?;
                        let code = r.u8()?;
                        if level != leaf_level {
                            return Err(CkptError::Corrupt("leaf above the leaf level"));
                        }
                        let size = if level == 2 {
                            PageSize::Size2M
                        } else {
                            PageSize::Size4K
                        };
                        if code != size_code(size) {
                            return Err(CkptError::Corrupt("leaf page size"));
                        }
                        if pfn >= PFN_LIMIT {
                            return Err(CkptError::Corrupt("leaf frame number"));
                        }
                        leaves += 1;
                        leaf_word(PhysFrame::from_pfn(pfn, size))
                    }
                    _ => return Err(CkptError::Corrupt("pte slot tag")),
                };
            }
            slots.push(words);
            bases.push(PhysAddr::new(base));
        }
        if leaves != mapped_pages {
            return Err(CkptError::Corrupt("mapped-page count"));
        }
        self.slots = slots;
        self.bases = bases;
        self.mapped_pages = mapped_pages;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB2: u64 = 2 << 20;

    fn alloc() -> FrameAllocator {
        FrameAllocator::new(0, 256 * MB2).without_scramble()
    }

    #[test]
    fn walk_or_map_takes_four_levels_for_4k() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy::NONE);
        let va = VirtAddr::new(0x7f12_3456_7000);
        let path = pt.walk_or_map(va, &mut a);
        assert_eq!(path.refs.len(), 4);
        assert_eq!(
            path.refs.iter().map(|r| r.level).collect::<Vec<_>>(),
            vec![4, 3, 2, 1]
        );
        assert_eq!(pt.mapped_pages(), 1);
    }

    #[test]
    fn translation_is_stable() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy::NONE);
        let va = VirtAddr::new(0x1234_5678);
        let first = pt.walk_or_map(va, &mut a);
        let second = pt.walk_or_map(va, &mut a);
        assert_eq!(first.frame, second.frame);
        assert_eq!(first.refs, second.refs);
        assert_eq!(pt.mapped_pages(), 1, "no double mapping");
    }

    #[test]
    fn nearby_pages_share_upper_tables() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy::NONE);
        let p1 = pt.walk_or_map(VirtAddr::new(0x1000), &mut a);
        let p2 = pt.walk_or_map(VirtAddr::new(0x2000), &mut a);
        // Same L4..L2 tables, different leaf PTE slots.
        for i in 0..3 {
            assert_eq!(
                p1.refs[i].addr.raw() & !0xfff,
                p2.refs[i].addr.raw() & !0xfff,
                "level {} table differs",
                4 - i
            );
        }
        assert_ne!(p1.refs[3].addr, p2.refs[3].addr);
        assert_ne!(p1.frame, p2.frame);
    }

    #[test]
    fn distant_pages_use_distinct_tables() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy::NONE);
        let p1 = pt.walk_or_map(VirtAddr::new(0x0000_0000_1000), &mut a);
        let p2 = pt.walk_or_map(VirtAddr::new(0x7f00_0000_1000), &mut a);
        // Only the root is shared.
        assert_eq!(
            p1.refs[0].addr.raw() & !0xfff,
            p2.refs[0].addr.raw() & !0xfff
        );
        assert_ne!(
            p1.refs[1].addr.raw() & !0xfff,
            p2.refs[1].addr.raw() & !0xfff
        );
    }

    #[test]
    fn walk_without_map_returns_none_for_unmapped() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy::NONE);
        assert!(pt.walk(VirtAddr::new(0x5000)).is_none());
        pt.walk_or_map(VirtAddr::new(0x5000), &mut a);
        let w = pt.walk(VirtAddr::new(0x5000)).expect("mapped now");
        assert_eq!(w.refs.len(), 4);
    }

    #[test]
    fn huge_pages_terminate_at_level_2() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy { fraction_2m: 1.0 });
        let va = VirtAddr::new(0x4030_2010);
        let path = pt.walk_or_map(va, &mut a);
        assert_eq!(path.refs.len(), 3, "L4, L3, L2 only");
        assert_eq!(path.frame.size(), PageSize::Size2M);
        assert_eq!(pt.terminal_page(va).size(), PageSize::Size2M);
    }

    #[test]
    fn huge_policy_fraction_is_roughly_respected() {
        let policy = HugePagePolicy { fraction_2m: 0.3 };
        let huge = (0..10_000)
            .filter(|i| policy.is_huge(VirtAddr::new(i * MB2)))
            .count();
        assert!((2500..3500).contains(&huge), "got {huge}");
        assert!(!HugePagePolicy::NONE.is_huge(VirtAddr::new(0)));
    }

    #[test]
    fn frame_translates_full_address() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy::NONE);
        let va = VirtAddr::new(0xabc_def0);
        let path = pt.walk_or_map(va, &mut a);
        let pa = path.frame.translate(va);
        assert_eq!(
            pa.page_offset(PageSize::Size4K),
            va.page_offset(PageSize::Size4K)
        );
    }

    #[test]
    fn pte_addresses_lie_within_their_table_frame() {
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, HugePagePolicy::NONE);
        let path = pt.walk_or_map(VirtAddr::new(0x7fff_ffff_f000), &mut a);
        for r in &path.refs {
            let offset = r.addr.raw() & 0xfff;
            assert!(offset < 4096 && offset % 8 == 0);
        }
    }

    /// Addresses that differ only above the indexed bits share every
    /// slot, so they must agree on the page size: random 57-bit
    /// addresses, many of them sharing a 2 MiB region below bit 48, map
    /// through a 4-level table with half the regions huge without
    /// panicking, and the table survives a checkpoint round trip.
    #[test]
    fn non_canonical_addresses_map_and_round_trip() {
        let policy = HugePagePolicy { fraction_2m: 0.5 };
        let mut a = alloc();
        let mut pt = RadixPageTable::new(&mut a, policy);
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut addrs = Vec::new();
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 64 regions of 2 MiB below bit 48, random bits 48..57 above.
            let va = (x & (0x1ff << 48)) | ((x >> 20) % (64 * MB2));
            addrs.push(VirtAddr::new(va));
            pt.walk_or_map(VirtAddr::new(va), &mut a);
        }
        assert!(pt.mapped_pages() > 64, "both page sizes were mapped");
        let mut w = CkptWriter::new();
        pt.ckpt_save(&mut w);
        let image = w.finish("fp");
        let mut restored = RadixPageTable::new(&mut alloc(), policy);
        let mut r = CkptReader::open(&image, "fp").expect("image opens");
        restored
            .ckpt_load(&mut r)
            .expect("a table built from any addresses restores");
        for va in addrs {
            assert_eq!(restored.walk(va), pt.walk(va));
            assert_eq!(restored.terminal_page(va), pt.terminal_page(va));
        }
    }

    #[test]
    fn pte_refs_compare_by_contents() {
        let mut a = PteRefs::new();
        let mut b = PteRefs::new();
        assert_eq!(a, b);
        let r = PteRef {
            addr: PhysAddr::new(0x1000),
            level: 4,
        };
        a.push(r);
        assert_ne!(a, b);
        b.push(r);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0], r);
    }
}
