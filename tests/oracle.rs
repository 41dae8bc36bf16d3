//! Differential oracle tests: the set-major [`Cache`], the flat
//! [`StackDistanceProfiler`] and the dense slot-word [`RadixPageTable`]
//! against reference models that keep every set's (or node's) state in
//! its own heap-allocated containers — the simulator's original
//! layouts, kept here as the specification.
//!
//! Random streams of accesses (line, kind, write, insertion position),
//! invalidations and partition changes drive both caches; every step must
//! agree on the outcome, the accessed line's stack position, the
//! occupancy and the statistics, for every replacement policy and the
//! associativities the machine configurations use. Random address
//! streams drive both page tables; every walk must agree on the frame
//! and the PTE reads, and the checkpoint encodings must be identical.
//! Random lookup/insert streams drive the set-block [`PomTlb`] and the
//! dense two-array POM-TLB it replaced, with the same checks.

mod pom_reference;
mod radix_reference;

use csalt::cache::{way_range_mask, Cache, CacheStats, Evicted, InsertPos, Occupancy, WayMask};
use csalt::profiler::StackDistanceProfiler;
use csalt::ptw::{FrameAllocator, HugePagePolicy, RadixPageTable};
use csalt::tlb::PomTlb;
use csalt::types::{
    Asid, CkptReader, CkptWriter, EntryKind, HitMissStats, LineAddr, PageSize, PhysFrame,
    PomTlbConfig, ReplacementKind, VirtAddr, VirtPage,
};
use pom_reference::DensePom;
use proptest::prelude::*;
use radix_reference::ReferenceTable;

const POLICIES: [ReplacementKind; 4] = [
    ReplacementKind::TrueLru,
    ReplacementKind::Nru,
    ReplacementKind::BtPlru,
    ReplacementKind::Rrip,
];
const WAYS: [u32; 6] = [1, 2, 4, 8, 12, 16];
const SETS: u64 = 4;

/// Reference replacement state of one set: one owning value per set.
#[derive(Debug, Clone)]
enum RefRepl {
    TrueLru { stamps: Vec<u64>, clock: u64 },
    Nru { bits: WayMask, ways: u32 },
    BtPlru { tree: u64, ways: u32 },
    Rrip { rrpv: Vec<u8> },
}

impl RefRepl {
    fn new(kind: ReplacementKind, ways: u32) -> Self {
        match kind {
            ReplacementKind::TrueLru => RefRepl::TrueLru {
                stamps: (0..u64::from(ways)).rev().map(|s| s + 1).collect(),
                clock: u64::from(ways),
            },
            ReplacementKind::Nru => RefRepl::Nru {
                bits: way_range_mask(0, ways),
                ways,
            },
            ReplacementKind::BtPlru => RefRepl::BtPlru { tree: 0, ways },
            ReplacementKind::Rrip => RefRepl::Rrip {
                rrpv: vec![3; ways as usize],
            },
        }
    }

    fn ways(&self) -> u32 {
        match self {
            RefRepl::TrueLru { stamps, .. } => stamps.len() as u32,
            RefRepl::Nru { ways, .. } | RefRepl::BtPlru { ways, .. } => *ways,
            RefRepl::Rrip { rrpv } => rrpv.len() as u32,
        }
    }

    fn touch(&mut self, way: u32) {
        match self {
            RefRepl::TrueLru { stamps, clock } => {
                *clock += 1;
                stamps[way as usize] = *clock;
            }
            RefRepl::Nru { bits, ways } => {
                *bits &= !(1u64 << way);
                if *bits == 0 {
                    *bits = way_range_mask(0, *ways) & !(1u64 << way);
                }
            }
            RefRepl::BtPlru { tree, ways } => {
                let mut node = 1u32;
                for level in (0..ways.trailing_zeros()).rev() {
                    let bit = (way >> level) & 1;
                    if bit == 0 {
                        *tree |= 1u64 << node;
                    } else {
                        *tree &= !(1u64 << node);
                    }
                    node = node * 2 + bit;
                }
            }
            RefRepl::Rrip { rrpv } => rrpv[way as usize] = 0,
        }
    }

    fn on_fill(&mut self, way: u32, distant: bool) {
        match self {
            RefRepl::Rrip { rrpv } => rrpv[way as usize] = if distant { 3 } else { 2 },
            _ => {
                if !distant {
                    self.touch(way);
                }
            }
        }
    }

    fn victim(&mut self, mask: WayMask) -> u32 {
        let mask = mask & way_range_mask(0, self.ways());
        assert!(mask != 0);
        match self {
            RefRepl::TrueLru { stamps, .. } => stamps
                .iter()
                .enumerate()
                .filter(|(w, _)| mask & (1u64 << w) != 0)
                .min_by_key(|(_, &s)| s)
                .map(|(w, _)| w as u32)
                .expect("mask nonempty"),
            RefRepl::Nru { bits, .. } => {
                if *bits & mask == 0 {
                    *bits |= mask;
                }
                (*bits & mask).trailing_zeros()
            }
            RefRepl::BtPlru { tree, ways } => {
                let mut node = 1u32;
                let mut way = 0u32;
                for level in (0..ways.trailing_zeros()).rev() {
                    let point_right = (*tree >> node) & 1 == 1;
                    let half = 1u32 << level;
                    let go_right = if point_right {
                        mask & way_range_mask(way + half, way + 2 * half) != 0
                    } else {
                        mask & way_range_mask(way, way + half) == 0
                    };
                    if go_right {
                        way += half;
                        node = node * 2 + 1;
                    } else {
                        node *= 2;
                    }
                }
                way
            }
            RefRepl::Rrip { rrpv } => loop {
                if let Some(w) = (0..rrpv.len() as u32)
                    .find(|&w| mask & (1u64 << w) != 0 && rrpv[w as usize] >= 3)
                {
                    return w;
                }
                for (w, v) in rrpv.iter_mut().enumerate() {
                    if mask & (1u64 << w) != 0 {
                        *v += 1;
                    }
                }
            },
        }
    }

    fn stack_position(&self, way: u32) -> u32 {
        match self {
            RefRepl::TrueLru { stamps, .. } => {
                let s = stamps[way as usize];
                stamps.iter().filter(|&&o| o > s).count() as u32
            }
            RefRepl::Nru { bits, ways } => {
                let used = way_range_mask(0, *ways) & !*bits;
                let rank = |m: u64| (m & ((1u64 << way) - 1)).count_ones();
                if bits & (1u64 << way) == 0 {
                    rank(used)
                } else {
                    used.count_ones() + rank(*bits)
                }
            }
            RefRepl::BtPlru { tree, ways } => {
                let mut node = 1u32;
                let mut position = 0u32;
                for level in (0..ways.trailing_zeros()).rev() {
                    let bit = (way >> level) & 1;
                    if (bit == 1) == ((*tree >> node) & 1 == 1) {
                        position += 1u32 << level;
                    }
                    node = node * 2 + bit;
                }
                position
            }
            RefRepl::Rrip { rrpv } => {
                let k = rrpv.len() as u32;
                let v = u32::from(rrpv[way as usize]);
                let rank = (0..way)
                    .filter(|&w| u32::from(rrpv[w as usize]) == v)
                    .count() as u32;
                (v * k / 4 + rank).min(k - 1)
            }
        }
    }
}

/// One reference way.
#[derive(Debug, Clone, Copy)]
struct RefLine {
    tag: u64,
    kind: EntryKind,
    dirty: bool,
}

/// Reference cache: per-set way vectors and per-set replacement state.
struct RefCache {
    ways: u32,
    sets: Vec<(Vec<Option<RefLine>>, RefRepl)>,
    data_ways: Option<u32>,
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: u64, ways: u32, kind: ReplacementKind) -> Self {
        Self {
            ways,
            sets: (0..sets)
                .map(|_| (vec![None; ways as usize], RefRepl::new(kind, ways)))
                .collect(),
            data_ways: None,
            stats: CacheStats::default(),
        }
    }

    fn split(&self, line: LineAddr) -> (usize, u64) {
        let n = line.line_number();
        let sets = self.sets.len() as u64;
        ((n % sets) as usize, n / sets)
    }

    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        self.sets[set]
            .0
            .iter()
            .position(|l| l.is_some_and(|l| l.tag == tag))
    }

    fn kind_stats(&mut self, kind: EntryKind) -> &mut HitMissStats {
        match kind {
            EntryKind::Data => &mut self.stats.data,
            EntryKind::Tlb => &mut self.stats.tlb,
        }
    }

    fn access(
        &mut self,
        line: LineAddr,
        kind: EntryKind,
        write: bool,
        insert: InsertPos,
    ) -> (bool, Option<Evicted>) {
        let (set, tag) = self.split(line);
        if let Some(way) = self.find(set, tag) {
            let (lines, repl) = &mut self.sets[set];
            lines[way].as_mut().expect("found").dirty |= write;
            repl.touch(way as u32);
            self.kind_stats(kind).record_hit();
            return (true, None);
        }
        self.kind_stats(kind).record_miss();
        let mask = match (self.data_ways, kind) {
            (Some(n), EntryKind::Data) => way_range_mask(0, n),
            (Some(n), EntryKind::Tlb) => way_range_mask(n, self.ways),
            (None, _) => way_range_mask(0, self.ways),
        };
        let sets = self.sets.len() as u64;
        let (lines, repl) = &mut self.sets[set];
        let invalid = (0..self.ways)
            .filter(|&w| mask & (1u64 << w) != 0)
            .find(|&w| lines[w as usize].is_none());
        let (way, evicted) = match invalid {
            Some(w) => (w, None),
            None => {
                let w = repl.victim(mask);
                let old = lines[w as usize].expect("victim is valid");
                let ev = Evicted {
                    line: LineAddr::from_line_number(old.tag * sets + set as u64),
                    kind: old.kind,
                    dirty: old.dirty,
                };
                (w, Some(ev))
            }
        };
        lines[way as usize] = Some(RefLine {
            tag,
            kind,
            dirty: write,
        });
        repl.on_fill(way, insert == InsertPos::Lru);
        self.stats.fills += 1;
        if let Some(ev) = evicted {
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(ev.dirty);
        }
        (false, evicted)
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let (set, tag) = self.split(line);
        let way = self.find(set, tag)?;
        let old = self.sets[set].0[way].take().expect("found");
        Some(Evicted {
            line,
            kind: old.kind,
            dirty: old.dirty,
        })
    }

    fn stack_position_of(&self, line: LineAddr) -> Option<u32> {
        let (set, tag) = self.split(line);
        self.find(set, tag)
            .map(|w| self.sets[set].1.stack_position(w as u32))
    }

    fn occupancy(&self) -> Occupancy {
        let mut occ = Occupancy {
            capacity_lines: self.sets.len() as u64 * u64::from(self.ways),
            ..Occupancy::default()
        };
        for l in self.sets.iter().flat_map(|(lines, _)| lines).flatten() {
            match l.kind {
                EntryKind::Data => occ.data_lines += 1,
                EntryKind::Tlb => occ.tlb_lines += 1,
            }
        }
        occ
    }
}

/// Reference stack-distance profiler: one owned MRU-first vector per
/// sampled set and kind.
struct RefProfiler {
    ways: u32,
    interval: u64,
    shadow: [Vec<Vec<u64>>; 2],
}

impl RefProfiler {
    fn new(sets: u64, ways: u32, interval: u64) -> Self {
        let sampled = sets.div_ceil(interval) as usize;
        Self {
            ways,
            interval,
            shadow: [vec![Vec::new(); sampled], vec![Vec::new(); sampled]],
        }
    }

    fn record(&mut self, set: u64, tag: u64, kind: EntryKind) -> Option<u32> {
        if !set.is_multiple_of(self.interval) {
            return None;
        }
        let stack = &mut self.shadow[kind.index()][(set / self.interval) as usize];
        Some(match stack.iter().position(|&t| t == tag) {
            Some(pos) => {
                let t = stack.remove(pos);
                stack.insert(0, t);
                pos as u32
            }
            None => {
                stack.insert(0, tag);
                stack.truncate(self.ways as usize);
                self.ways
            }
        })
    }
}

/// One decoded stream step.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access {
        line: LineAddr,
        kind: EntryKind,
        write: bool,
        insert: InsertPos,
    },
    Invalidate(LineAddr),
    Partition(Option<u32>),
}

/// Decodes `(line, flags, control)`: control 0..4 repartitions (0
/// clears), 4..8 invalidates, the rest access with the flag bits
/// choosing kind, write and insertion position.
fn decode(ways: u32, (line, flags, control): (u64, u32, u32)) -> Op {
    let line = LineAddr::from_line_number(line);
    match control {
        0 => Op::Partition(None),
        1..=3 if ways > 1 => Op::Partition(Some(1 + flags % (ways - 1))),
        4..=7 => Op::Invalidate(line),
        _ => Op::Access {
            line,
            kind: if flags & 1 == 0 {
                EntryKind::Data
            } else {
                EntryKind::Tlb
            },
            write: flags & 2 != 0,
            insert: if flags & 4 == 0 {
                InsertPos::Mru
            } else {
                InsertPos::Lru
            },
        },
    }
}

/// Applies `op` to both caches and asserts they agree.
fn step(cache: &mut Cache, oracle: &mut RefCache, op: Op, ctx: &str) {
    match op {
        Op::Access {
            line,
            kind,
            write,
            insert,
        } => {
            let out = cache.access_with_insertion(line, kind, write, insert);
            let want = oracle.access(line, kind, write, insert);
            assert_eq!((out.hit, out.evicted), want, "{ctx}: {op:?}");
            assert_eq!(
                cache.stack_position_of(line),
                oracle.stack_position_of(line),
                "{ctx}: stack position after {op:?}"
            );
        }
        Op::Invalidate(line) => {
            assert_eq!(
                cache.invalidate(line),
                oracle.invalidate(line),
                "{ctx}: {op:?}"
            );
        }
        Op::Partition(Some(n)) => {
            cache.set_partition(n);
            oracle.data_ways = Some(n);
        }
        Op::Partition(None) => {
            cache.clear_partition();
            oracle.data_ways = None;
        }
    }
    assert_eq!(cache.stats(), &oracle.stats, "{ctx}: stats after {op:?}");
    assert_eq!(
        cache.occupancy(),
        oracle.occupancy(),
        "{ctx}: occupancy after {op:?}"
    );
}

/// Round-trips `cache` through its checkpoint encoding into a fresh
/// cache of the same shape.
fn ckpt_round_trip(cache: &Cache, kind: ReplacementKind) -> Cache {
    let mut w = CkptWriter::new();
    cache.ckpt_save(&mut w);
    let image = w.finish("oracle");
    let mut r = CkptReader::open(&image, "oracle").expect("valid image");
    let mut fresh = Cache::new(cache.sets(), cache.ways(), kind);
    fresh.ckpt_load(&mut r).expect("image loads");
    r.finish().expect("image fully consumed");
    fresh
}

/// A framed checkpoint image of whatever `save` writes.
fn image(save: impl FnOnce(&mut CkptWriter)) -> Vec<u8> {
    let mut w = CkptWriter::new();
    save(&mut w);
    w.finish("oracle")
}

/// Round-trips `table` through its checkpoint encoding into a fresh
/// table of the same depth and policy.
fn radix_round_trip(table: &RadixPageTable, policy: HugePagePolicy) -> RadixPageTable {
    let bytes = image(|w| table.ckpt_save(w));
    let mut r = CkptReader::open(&bytes, "oracle").expect("valid image");
    let mut scratch = FrameAllocator::new(0, 2 << 20);
    let mut fresh = RadixPageTable::with_levels(&mut scratch, policy, table.levels());
    fresh.ckpt_load(&mut r).expect("image loads");
    r.finish().expect("image fully consumed");
    fresh
}

/// A POM-TLB of `sets` sets of `ways` 16-byte entries.
fn pom_config(sets: u64, ways: u32) -> PomTlbConfig {
    PomTlbConfig {
        size_bytes: sets * u64::from(ways) * 16,
        ways,
        entry_bytes: 16,
        base: 0x7e00_0000_0000,
    }
}

/// Round-trips `pom` through its checkpoint encoding into a fresh array
/// of the same geometry.
fn pom_round_trip(pom: &PomTlb) -> PomTlb {
    let bytes = image(|w| pom.ckpt_save(w));
    let mut r = CkptReader::open(&bytes, "oracle").expect("valid image");
    let mut fresh = PomTlb::new(*pom.config());
    fresh.ckpt_load(&mut r).expect("image loads");
    r.finish().expect("image fully consumed");
    fresh
}

/// Address spans the page-table streams draw from: dense ones share
/// upper-level tables, the widest fans out at the root.
const VA_SPANS: [u64; 4] = [1 << 22, 1 << 30, 1 << 40, 1 << 57];

/// `raw` as a canonical address of a `levels`-deep table: the bits
/// above the table's reach copy its top bit.
fn canonical(raw: u64, levels: u8) -> VirtAddr {
    let width = 12 + 9 * u32::from(levels);
    let low = raw & ((1 << width) - 1);
    let high = if low >> (width - 1) == 1 {
        !0 << width
    } else {
        0
    };
    VirtAddr::new((low | high) & !0xfff)
}

proptest! {
    /// Every policy and associativity: the set-major cache matches the
    /// per-set reference at every step, also after a checkpoint round
    /// trip halfway through the stream.
    #[test]
    fn cache_matches_per_set_reference(
        ops in prop::collection::vec((0u64..160, 0u32..64, 0u32..40), 1..300),
    ) {
        for kind in POLICIES {
            for ways in WAYS {
                if kind == ReplacementKind::BtPlru && !ways.is_power_of_two() {
                    continue;
                }
                let ctx = format!("{kind:?} {ways}-way");
                let mut cache = Cache::new(SETS, ways, kind);
                let mut oracle = RefCache::new(SETS, ways, kind);
                let half = ops.len() / 2;
                for (i, &raw) in ops.iter().enumerate() {
                    if i == half {
                        cache = ckpt_round_trip(&cache, kind);
                    }
                    step(&mut cache, &mut oracle, decode(ways, raw), &ctx);
                }
                let stats_before = *cache.stats();
                let restored = ckpt_round_trip(&cache, kind);
                prop_assert_eq!(restored.stats(), &stats_before);
                prop_assert_eq!(restored.occupancy(), cache.occupancy());
                prop_assert_eq!(restored.data_ways(), cache.data_ways());
            }
        }
    }

    /// Replacement victims stay inside the partition for every policy:
    /// an eviction for an incoming line of one kind only ever removes a
    /// line from that kind's way range.
    #[test]
    fn partitioned_victims_stay_in_range(
        data_ways in 1u32..8,
        ops in prop::collection::vec((0u64..256, any::<bool>()), 1..300),
    ) {
        for kind in POLICIES {
            let mut cache = Cache::new(SETS, 8, kind);
            cache.set_partition(data_ways);
            for &(line, is_tlb) in &ops {
                let entry = if is_tlb { EntryKind::Tlb } else { EntryKind::Data };
                let out = cache.access(LineAddr::from_line_number(line), entry, false);
                if let Some(ev) = out.evicted {
                    prop_assert_eq!(ev.kind, entry, "{:?}: eviction crossed the partition", kind);
                }
            }
        }
    }

    /// The flat profiler reports the reference depth for every record,
    /// for full and sampled profiling.
    #[test]
    fn profiler_matches_per_set_reference(
        ops in prop::collection::vec((0u64..8, 0u64..40, any::<bool>()), 1..400),
    ) {
        for ways in WAYS {
            for interval in [1, 2, 8] {
                let mut flat = StackDistanceProfiler::new(8, ways, interval);
                let mut oracle = RefProfiler::new(8, ways, interval);
                for &(set, tag, is_tlb) in &ops {
                    let kind = if is_tlb { EntryKind::Tlb } else { EntryKind::Data };
                    prop_assert_eq!(
                        flat.record(set, tag, kind),
                        oracle.record(set, tag, kind),
                        "{}-way interval {}: set {} tag {} {:?}", ways, interval, set, tag, kind
                    );
                }
                prop_assert_eq!(
                    flat.accesses(),
                    ops.iter().filter(|(s, _, _)| s % interval == 0).count() as u64
                );
            }
        }
    }

    /// The dense slot-word page table matches the enum-slot reference
    /// on random canonical 4 KiB-page address streams with half the 2 MiB
    /// regions huge, at both depths: every mapping walk and lookup walk
    /// returns the same frame and PTE reads, the mapped-page counts
    /// agree at every step, and the checkpoint encodings are identical
    /// (also after a round trip halfway through the stream).
    #[test]
    fn radix_table_matches_enum_slot_reference(
        levels in 4u8..=5,
        ops in prop::collection::vec((0usize..VA_SPANS.len(), any::<u64>(), any::<bool>()), 1..300),
    ) {
        let policy = HugePagePolicy { fraction_2m: 0.5 };
        let mut alloc = FrameAllocator::new(0, 1 << 40);
        let mut ref_alloc = alloc.clone();
        let mut table = RadixPageTable::with_levels(&mut alloc, policy, levels);
        let mut oracle = ReferenceTable::with_levels(&mut ref_alloc, policy, levels);
        let half = ops.len() / 2;
        for (i, &(span, offset, map)) in ops.iter().enumerate() {
            if i == half {
                table = radix_round_trip(&table, policy);
            }
            let va = canonical(offset % VA_SPANS[span], levels);
            if map {
                prop_assert_eq!(
                    table.walk_or_map(va, &mut alloc),
                    oracle.walk_or_map(va, &mut ref_alloc),
                    "step {}: walk_or_map({:#x})", i, va.raw()
                );
            } else {
                prop_assert_eq!(table.walk(va), oracle.walk(va), "step {}: walk({:#x})", i, va.raw());
            }
            prop_assert_eq!(table.mapped_pages(), oracle.mapped_pages, "step {}", i);
        }
        let bytes = image(|w| table.ckpt_save(w));
        prop_assert_eq!(&bytes, &image(|w| oracle.ckpt_save(w)));
        prop_assert_eq!(image(|w| radix_round_trip(&table, policy).ckpt_save(w)), bytes);
    }

    /// The set-block POM-TLB matches the dense two-array reference on
    /// random lookup/insert streams over five ASIDs and both page sizes,
    /// at several associativities: every lookup returns the same frame
    /// and line, every insert the same line, and the home lines, hit and
    /// miss counters and valid-entry counts agree at every step. The
    /// checkpoint encodings are identical, also after a round trip
    /// halfway through the stream, and each model restores the other's
    /// image.
    #[test]
    fn pom_matches_dense_reference(
        ops in prop::collection::vec((0u64..600, 0u16..20, 0u64..1 << 30), 1..400),
    ) {
        for ways in [1, 4, 8] {
            let cfg = pom_config(64, ways);
            let mut pom = PomTlb::new(cfg);
            let mut oracle = DensePom::new(cfg);
            let half = ops.len() / 2;
            for (i, &(vpn, control, pfn)) in ops.iter().enumerate() {
                if i == half {
                    pom = pom_round_trip(&pom);
                }
                // `control` picks the ASID, the page size and the operation.
                let (asid, huge, insert) = (control % 5, control / 5 % 2 == 1, control / 10 == 1);
                let size = if huge { PageSize::Size2M } else { PageSize::Size4K };
                let page = VirtPage::from_vpn(vpn, size);
                let asid = Asid::new(asid + 1);
                prop_assert_eq!(pom.home_line(page, asid), oracle.home_line(page, asid));
                if insert {
                    let frame = PhysFrame::from_pfn(pfn, size);
                    prop_assert_eq!(pom.insert(page, asid, frame), oracle.insert(page, asid, frame));
                } else {
                    let got = pom.lookup(page, asid);
                    prop_assert_eq!((got.frame, got.line), oracle.lookup(page, asid), "{}-way step {}", ways, i);
                }
                prop_assert_eq!(pom.stats(), &oracle.stats);
                prop_assert_eq!(pom.valid_entries(), oracle.valid_entries());
            }
            let bytes = image(|w| pom.ckpt_save(w));
            prop_assert_eq!(&bytes, &image(|w| oracle.ckpt_save(w)));
            prop_assert_eq!(&image(|w| pom_round_trip(&pom).ckpt_save(w)), &bytes);
            let mut r = CkptReader::open(&bytes, "oracle").expect("valid image");
            let mut dense = DensePom::new(cfg);
            dense.ckpt_load(&mut r).expect("dense model restores the image");
            prop_assert_eq!(image(|w| dense.ckpt_save(w)), bytes);
        }
    }
}
