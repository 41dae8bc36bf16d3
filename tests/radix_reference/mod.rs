//! The page table's original enum-slot layout, kept as the
//! specification the dense slot-word [`csalt::ptw::RadixPageTable`] is
//! tested against. Every node is its own heap array of [`Entry`]
//! values, and a table pointer carries both the child's arena index and
//! its physical base. Its checkpoint decoder is the original permissive
//! one (it checks only that a child index is in range), which the
//! crafted-image tests use to take a saved table apart and put it back.

// Each test target uses its own subset of the model.
#![allow(dead_code)]

use csalt::ptw::{FrameAllocator, HugePagePolicy, PteRef, PteRefs, WalkPath};
use csalt::types::{CkptError, CkptReader, CkptWriter, PageSize, PhysAddr, PhysFrame, VirtAddr};

/// Entries per radix node.
pub const NODE_ENTRIES: usize = 512;

/// A page-table entry as stored in a node slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Not yet mapped.
    Empty,
    /// Points at the next-level node: its arena index and frame base.
    Table { node: u32, pa: PhysAddr },
    /// Terminal mapping.
    Leaf(PhysFrame),
}

/// One table frame: its physical base and 512 slots.
#[derive(Debug, Clone)]
pub struct Node {
    pub base: PhysAddr,
    pub slots: Vec<Entry>,
}

impl Node {
    pub fn new(base: PhysAddr) -> Self {
        Self {
            base,
            slots: vec![Entry::Empty; NODE_ENTRIES],
        }
    }
}

/// The reference radix table; node 0 is the root.
#[derive(Debug, Clone)]
pub struct ReferenceTable {
    pub nodes: Vec<Node>,
    pub policy: HugePagePolicy,
    pub levels: u8,
    pub mapped_pages: u64,
}

fn pte_addr(table: PhysAddr, index: u64) -> PhysAddr {
    PhysAddr::new(table.raw() + index * 8)
}

fn size_code(size: PageSize) -> u8 {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

impl ReferenceTable {
    pub fn with_levels(alloc: &mut FrameAllocator, policy: HugePagePolicy, levels: u8) -> Self {
        let root = alloc.alloc(PageSize::Size4K).base();
        Self {
            nodes: vec![Node::new(root)],
            policy,
            levels,
            mapped_pages: 0,
        }
    }

    pub fn walk_or_map(&mut self, va: VirtAddr, alloc: &mut FrameAllocator) -> WalkPath {
        let huge = self.policy.is_huge(va);
        let leaf_level = if huge { 2 } else { 1 };
        let mut node = 0usize;
        let mut refs = PteRefs::new();
        for level in (1..=self.levels).rev() {
            let index = va.pt_index(level);
            refs.push(PteRef {
                addr: pte_addr(self.nodes[node].base, index),
                level,
            });
            let slot = index as usize;
            if level == leaf_level {
                let frame = match self.nodes[node].slots[slot] {
                    Entry::Leaf(frame) => frame,
                    Entry::Empty => {
                        let size = if huge {
                            PageSize::Size2M
                        } else {
                            PageSize::Size4K
                        };
                        let frame = alloc.alloc(size);
                        self.nodes[node].slots[slot] = Entry::Leaf(frame);
                        self.mapped_pages += 1;
                        frame
                    }
                    Entry::Table { .. } => panic!("leaf level holds only leaves"),
                };
                return WalkPath { frame, refs };
            }
            node = match self.nodes[node].slots[slot] {
                Entry::Table { node, .. } => node as usize,
                Entry::Empty => {
                    let pa = alloc.alloc(PageSize::Size4K).base();
                    let next = self.nodes.len();
                    self.nodes[node].slots[slot] = Entry::Table {
                        node: u32::try_from(next).expect("arena outgrew u32 indexes"),
                        pa,
                    };
                    self.nodes.push(Node::new(pa));
                    next
                }
                Entry::Leaf(_) => panic!("leaf above leaf level"),
            };
        }
        unreachable!("loop always returns at the leaf level")
    }

    pub fn walk(&self, va: VirtAddr) -> Option<WalkPath> {
        let mut node = 0usize;
        let mut refs = PteRefs::new();
        for level in (1..=self.levels).rev() {
            let index = va.pt_index(level);
            refs.push(PteRef {
                addr: pte_addr(self.nodes[node].base, index),
                level,
            });
            match self.nodes[node].slots[index as usize] {
                Entry::Empty => return None,
                Entry::Leaf(frame) => return Some(WalkPath { frame, refs }),
                Entry::Table { node: next, .. } => node = next as usize,
            }
        }
        None
    }

    /// Each node's level (the root's is `levels`), found by following
    /// the table pointers down from the root.
    pub fn node_levels(&self) -> Vec<u8> {
        let mut levels = vec![0u8; self.nodes.len()];
        levels[0] = self.levels;
        for idx in 0..self.nodes.len() {
            for slot in &self.nodes[idx].slots {
                if let Entry::Table { node, .. } = slot {
                    levels[*node as usize] = levels[idx].saturating_sub(1);
                }
            }
        }
        levels
    }

    /// The checkpoint encoding `RadixPageTable::ckpt_save` must match.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u8(self.levels);
        w.u64(self.mapped_pages);
        w.len64(self.nodes.len());
        for node in &self.nodes {
            w.u64(node.base.raw());
            w.iter_u8(
                NODE_ENTRIES,
                node.slots.iter().map(|slot| match slot {
                    Entry::Empty => 0u8,
                    Entry::Table { .. } => 1u8,
                    Entry::Leaf(_) => 2u8,
                }),
            );
            for slot in &node.slots {
                match slot {
                    Entry::Empty => {}
                    Entry::Table { node, pa } => {
                        w.u64(u64::from(*node));
                        w.u64(pa.raw());
                    }
                    Entry::Leaf(frame) => {
                        w.u64(frame.pfn());
                        w.u8(size_code(frame.size()));
                    }
                }
            }
        }
    }

    /// Decodes a saved table of either depth, checking only framing,
    /// tags and that child indexes are in range.
    pub fn ckpt_load(r: &mut CkptReader<'_>, policy: HugePagePolicy) -> Result<Self, CkptError> {
        let levels = r.u8()?;
        let mapped_pages = r.u64()?;
        let count = r.len64()?;
        if count == 0 || count > r.remaining() {
            return Err(CkptError::Corrupt("node count"));
        }
        let mut nodes = Vec::with_capacity(count);
        for _ in 0..count {
            let mut node = Node::new(PhysAddr::new(r.u64()?));
            let tags = r.vec_u8()?;
            if tags.len() != NODE_ENTRIES {
                return Err(CkptError::Mismatch("node slot count"));
            }
            for (slot, &tag) in node.slots.iter_mut().zip(tags.iter()) {
                *slot = match tag {
                    0 => Entry::Empty,
                    1 => {
                        let idx = r.u64()?;
                        let pa = PhysAddr::new(r.u64()?);
                        let node = u32::try_from(idx)
                            .ok()
                            .filter(|&n| (n as usize) < count)
                            .ok_or(CkptError::Corrupt("node index"))?;
                        Entry::Table { node, pa }
                    }
                    2 => {
                        let pfn = r.u64()?;
                        let size = match r.u8()? {
                            0 => PageSize::Size4K,
                            1 => PageSize::Size2M,
                            2 => PageSize::Size1G,
                            _ => return Err(CkptError::Corrupt("leaf page size")),
                        };
                        Entry::Leaf(PhysFrame::from_pfn(pfn, size))
                    }
                    _ => return Err(CkptError::Corrupt("pte slot tag")),
                };
            }
            nodes.push(node);
        }
        Ok(Self {
            nodes,
            policy,
            levels,
            mapped_pages,
        })
    }
}
