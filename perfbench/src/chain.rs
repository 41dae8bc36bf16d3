//! The layer harness: a bench-side chain of the simulator's real
//! components that captures each component's input stream, and the solo
//! replays that time each captured stream through a fresh instance of
//! its component alone.
//!
//! [`Chain`] wires `SramTlb`, `PomTlb`, `NestedWalker` over
//! `GuestAddressSpace`s, `Cache`/`ManagedCache`, `DramModel` and the
//! criticality estimators together exactly as `MemoryHierarchy`'s timed
//! access path does for the Figure 7 schemes (virtualized, 4 KiB pages,
//! no TSB). Driven with the access sequence a real run commits, it
//! performs the same component calls in the same order; the traced run
//! proves that by comparing the chain's counters with the run's
//! `HierarchySnapshot` field by field. Each component is a deterministic
//! state machine, so a fresh instance fed its captured stream repeats
//! the work it did inside the run — which is what the solo replays time.

use crate::stats::{time_blocks, total_ns};
use csalt_cache::{Cache, CacheStats};
use csalt_core::{BlockAccess, CacheManagement, HierarchySnapshot, ManagedCache};
use csalt_dram::DramModel;
use csalt_profiler::{
    choose_partition, CriticalityEstimator, EpochController, StackDistanceProfiler, Weights,
};
use csalt_ptw::{FrameAllocator, GuestAddressSpace, HugePagePolicy, NestedWalker, PteRead};
use csalt_sim::SimConfig;
use csalt_tlb::{PomTlb, SramTlb};
use csalt_types::{
    Asid, EntryKind, HitMissStats, LineAddr, PageSize, PhysAddr, PhysFrame, SystemConfig,
    TranslationHint, TranslationScheme, VirtAddr, VirtPage,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per timed block in the solo replays: long enough that the two
/// clock reads per block vanish against the block's work.
const BLOCK: usize = 4096;

/// Guest-physical base and size of every VM's "RAM", and the machine
/// memory the host allocator hands out — the values `MemoryHierarchy`
/// builds its contexts with.
const GUEST_PHYS_BASE: u64 = 1 << 40;
const GUEST_PHYS_SIZE: u64 = 64 << 30;
const HOST_MEMORY: u64 = 256 << 30;

/// One call into a TLB-like structure: a probe by prepacked key, or the
/// install that follows a miss.
#[derive(Debug, Clone, Copy)]
pub enum TlbOp {
    /// `lookup_prepacked(key)`.
    Lookup(u64),
    /// `insert(page, asid, frame)`.
    Insert(VirtPage, Asid, PhysFrame),
}

/// One cache access; `unit` is the core for per-core caches.
#[derive(Debug, Clone, Copy)]
pub struct CacheOp {
    unit: u8,
    line: LineAddr,
    kind: EntryKind,
    write: bool,
}

/// One DRAM access, routed to the die-stacked device or DDR.
#[derive(Debug, Clone, Copy)]
pub struct DramOp {
    stacked: bool,
    pa: PhysAddr,
    write: bool,
}

/// Every component's input stream over one run (warmup and measured
/// phase), in call order.
#[derive(Debug, Default)]
pub struct Capture {
    l1_tlb: Vec<(u8, TlbOp)>,
    l2_tlb: Vec<(u8, TlbOp)>,
    pom: Vec<TlbOp>,
    walks: Vec<(u8, VirtAddr)>,
    l1d: Vec<CacheOp>,
    l2: Vec<CacheOp>,
    l3: Vec<CacheOp>,
    dram: Vec<DramOp>,
}

/// The component chain. See the module docs.
pub struct Chain {
    scheme: TranslationScheme,
    l1_tlb: Vec<SramTlb>,
    l2_tlb: Vec<SramTlb>,
    pom: Option<PomTlb>,
    walker: NestedWalker,
    spaces: Vec<GuestAddressSpace>,
    host_alloc: FrameAllocator,
    scratch: Vec<PteRead>,
    l1d: Vec<Cache>,
    l2: Vec<ManagedCache>,
    l3: ManagedCache,
    ddr: DramModel,
    stacked: DramModel,
    crit_l2: CriticalityEstimator,
    crit_l3: CriticalityEstimator,
    crit_samples: u64,
    page_walks: u64,
    /// The captured streams.
    pub cap: Capture,
}

/// Why a config cannot be taken apart by the chain.
pub fn unsupported(cfg: &SimConfig) -> Option<String> {
    let fig7 = matches!(
        cfg.scheme,
        TranslationScheme::Conventional
            | TranslationScheme::PomTlb
            | TranslationScheme::CsaltD
            | TranslationScheme::CsaltCd
    );
    (!fig7 || !cfg.virtualized || cfg.huge_fraction != 0.0).then(|| {
        format!(
            "the layer chain models the virtualized 4 KiB Figure 7 schemes, not {}",
            cfg.scheme.label()
        )
    })
}

fn csalt_managed(scheme: TranslationScheme) -> bool {
    matches!(
        scheme,
        TranslationScheme::CsaltD | TranslationScheme::CsaltCd
    )
}

impl Chain {
    /// Fresh components for `cfg`, constructed as `MemoryHierarchy`
    /// constructs them, with one guest address space per VM.
    pub fn new(cfg: &SimConfig) -> Self {
        let sys = &cfg.system;
        let cores = sys.cores as usize;
        let management = if csalt_managed(cfg.scheme) {
            CacheManagement::Csalt
        } else {
            CacheManagement::Unmanaged
        };
        let managed = |g: &csalt_types::CacheGeometry| {
            ManagedCache::new(
                g.sets(),
                g.ways,
                sys.replacement,
                management,
                sys.epoch_accesses,
                cfg.profiler_interval,
            )
        };
        let ddr = DramModel::new(sys.ddr, sys.core_ghz);
        let stacked = DramModel::new(sys.die_stacked, sys.core_ghz);
        let crit = |latency| {
            CriticalityEstimator::new(
                latency,
                ddr.best_case_latency(),
                stacked.best_case_latency(),
            )
        };
        let (crit_l2, crit_l3) = (crit(sys.l2.latency), crit(sys.l3.latency));
        let mut host_alloc = FrameAllocator::new(0, HOST_MEMORY);
        let spaces = new_spaces(sys, &mut host_alloc);
        Self {
            l1_tlb: (0..cores).map(|_| SramTlb::new(sys.l1_tlb_4k)).collect(),
            l2_tlb: (0..cores).map(|_| SramTlb::new(sys.l2_tlb)).collect(),
            pom: cfg.scheme.uses_pom_tlb().then(|| PomTlb::new(sys.pom_tlb)),
            walker: NestedWalker::with_levels(sys.psc, sys.pt_levels),
            spaces,
            host_alloc,
            scratch: Vec::with_capacity(64),
            l1d: (0..cores)
                .map(|_| Cache::from_geometry(&sys.l1d, sys.replacement))
                .collect(),
            l2: (0..cores).map(|_| managed(&sys.l2)).collect(),
            l3: managed(&sys.l3),
            ddr,
            stacked,
            crit_l2,
            crit_l3,
            crit_samples: 0,
            page_walks: 0,
            scheme: cfg.scheme,
            cap: Capture::default(),
        }
    }

    /// Serves one committed access.
    pub fn access(&mut self, b: &BlockAccess) {
        let core = b.core.index();
        let frame = self.translate(core, b.ctx.index(), b.acc.vaddr, &b.hint);
        let line = frame.translate(b.acc.vaddr).line();
        self.data_access(core, line, b.acc.ty.is_write());
    }

    fn translate(
        &mut self,
        core: usize,
        ctx: usize,
        va: VirtAddr,
        hint: &TranslationHint,
    ) -> PhysFrame {
        let asid = Asid::new(ctx as u16 + 1);
        let u = core as u8;
        self.cap.l1_tlb.push((u, TlbOp::Lookup(hint.packed_4k)));
        if let Some(f) = self.l1_tlb[core].lookup_prepacked(hint.packed_4k) {
            return f;
        }
        self.cap.l2_tlb.push((u, TlbOp::Lookup(hint.packed_4k)));
        if let Some(f) = self.l2_tlb[core].lookup_prepacked(hint.packed_4k) {
            self.install(core, true, va.page(f.size()), asid, f);
            return f;
        }
        let (page, frame) = if self.pom.is_some() {
            self.pom_translate(core, ctx, va, hint)
        } else {
            self.page_walk(ctx, va)
        };
        self.install(core, false, page, asid, frame);
        self.install(core, true, page, asid, frame);
        frame
    }

    /// Installs a translation into core `core`'s L1 (`l1`) or L2 TLB.
    fn install(&mut self, core: usize, l1: bool, page: VirtPage, asid: Asid, frame: PhysFrame) {
        assert_eq!(
            page.size(),
            PageSize::Size4K,
            "the chain models 4 KiB pages"
        );
        let (tlb, stream) = if l1 {
            (&mut self.l1_tlb[core], &mut self.cap.l1_tlb)
        } else {
            (&mut self.l2_tlb[core], &mut self.cap.l2_tlb)
        };
        stream.push((core as u8, TlbOp::Insert(page, asid, frame)));
        tlb.insert(page, asid, frame);
    }

    fn pom_translate(
        &mut self,
        core: usize,
        ctx: usize,
        va: VirtAddr,
        hint: &TranslationHint,
    ) -> (VirtPage, PhysFrame) {
        let pom = self.pom.as_mut().expect("POM scheme has a POM-TLB");
        self.cap.pom.push(TlbOp::Lookup(hint.packed_4k));
        let r = pom.lookup_prepacked(hint.packed_4k);
        self.l2_access(core, r.line, EntryKind::Tlb, false);
        if let Some(frame) = r.frame {
            return (va.page(PageSize::Size4K), frame);
        }
        let (page, frame) = self.page_walk(ctx, va);
        let asid = Asid::new(ctx as u16 + 1);
        self.cap.pom.push(TlbOp::Insert(page, asid, frame));
        let line = self
            .pom
            .as_mut()
            .expect("POM scheme has a POM-TLB")
            .insert(page, asid, frame);
        self.l2_access(core, line, EntryKind::Tlb, true);
        (page, frame)
    }

    fn page_walk(&mut self, ctx: usize, va: VirtAddr) -> (VirtPage, PhysFrame) {
        self.cap.walks.push((ctx as u8, va));
        self.scratch.clear();
        let t = self.walker.walk_into(
            &mut self.spaces[ctx],
            va,
            &mut self.host_alloc,
            &mut self.scratch,
        );
        // Walks go out through the walker port of core `ctx % cores`, as in
        // the hierarchy.
        let core = ctx % self.l1d.len();
        for i in 0..self.scratch.len() {
            let line = self.scratch[i].addr.line();
            self.l2_access(core, line, EntryKind::Tlb, false);
        }
        self.page_walks += 1;
        (t.page, t.frame)
    }

    fn data_access(&mut self, core: usize, line: LineAddr, write: bool) {
        self.cap.l1d.push(CacheOp {
            unit: core as u8,
            line,
            kind: EntryKind::Data,
            write,
        });
        let out = self.l1d[core].access(line, EntryKind::Data, write);
        if out.hit {
            return;
        }
        self.l2_access(core, line, EntryKind::Data, write);
        if let Some(ev) = out.evicted.filter(|e| e.dirty) {
            self.l2_access(core, ev.line, ev.kind, true);
        }
    }

    fn l2_access(&mut self, core: usize, line: LineAddr, kind: EntryKind, write: bool) {
        self.cap.l2.push(CacheOp {
            unit: core as u8,
            line,
            kind,
            write,
        });
        let cd = self.scheme == TranslationScheme::CsaltCd;
        let crit = &self.crit_l2;
        let out = self.l2[core].access(line, kind, write, || {
            if cd {
                crit.weights()
            } else {
                Weights::UNIT
            }
        });
        if out.hit {
            return;
        }
        self.l3_access(line, kind, write);
        if let Some(ev) = out.evicted.filter(|e| e.dirty) {
            self.l3_access(ev.line, ev.kind, true);
        }
    }

    fn l3_access(&mut self, line: LineAddr, kind: EntryKind, write: bool) {
        self.cap.l3.push(CacheOp {
            unit: 0,
            line,
            kind,
            write,
        });
        let cd = self.scheme == TranslationScheme::CsaltCd;
        let crit = &self.crit_l3;
        let out = self.l3.access(line, kind, write, || {
            if cd {
                crit.weights()
            } else {
                Weights::UNIT
            }
        });
        if out.hit {
            return;
        }
        self.mem_access(line.base(), false);
        if let Some(ev) = out.evicted.filter(|e| e.dirty) {
            self.mem_access(ev.line.base(), true);
        }
    }

    fn mem_access(&mut self, pa: PhysAddr, write: bool) {
        let stacked = self.pom.as_ref().is_some_and(|p| p.owns(pa));
        self.cap.dram.push(DramOp { stacked, pa, write });
        if stacked {
            let l = self.stacked.access(pa, write);
            self.crit_l2.record_pom_tlb(l);
            self.crit_l3.record_pom_tlb(l);
        } else {
            let l = self.ddr.access(pa, write);
            self.crit_l2.record_dram(l);
            self.crit_l3.record_dram(l);
        }
        self.crit_samples += 1;
        if self.crit_samples.is_multiple_of(8192) {
            self.crit_l2.decay();
            self.crit_l3.decay();
        }
    }

    /// Discards the counters at the warmup boundary, as the run does.
    pub fn reset_stats(&mut self) {
        self.l1_tlb.iter_mut().for_each(SramTlb::reset_stats);
        self.l2_tlb.iter_mut().for_each(SramTlb::reset_stats);
        if let Some(p) = &mut self.pom {
            p.reset_stats();
        }
        self.l1d.iter_mut().for_each(Cache::reset_stats);
        self.l2.iter_mut().for_each(ManagedCache::reset_stats);
        self.l3.reset_stats();
        self.ddr.reset_stats();
        self.stacked.reset_stats();
        self.page_walks = 0;
    }

    /// Walks, PTE reads made and PTE reads the PSCs skipped, so far.
    pub fn walk_counts(&self) -> (u64, u64, u64) {
        let s = self.walker.stats();
        (s.walks, s.memory_accesses, s.psc_skipped)
    }

    /// Repartition decisions taken by every managed cache so far.
    pub fn decisions(&self) -> u64 {
        self.l2.iter().map(ManagedCache::decisions).sum::<u64>() + self.l3.decisions()
    }

    /// The first counter on which the chain and the run's measured-phase
    /// snapshot disagree, if any.
    pub fn mismatch(&self, snap: &HierarchySnapshot) -> Option<String> {
        let tlbs = |t: &[SramTlb]| {
            t.iter()
                .map(|x| *x.stats())
                .fold(HitMissStats::new(), |a, b| a + b)
        };
        let caches = |c: &mut dyn Iterator<Item = CacheStats>| {
            c.fold(CacheStats::default(), |mut a, b| {
                a.data += b.data;
                a.tlb += b.tlb;
                a.fills += b.fills;
                a.evictions += b.evictions;
                a.writebacks += b.writebacks;
                a
            })
        };
        let l1d = caches(&mut self.l1d.iter().map(|c| *c.stats()));
        let l2 = caches(&mut self.l2.iter().map(|c| *c.cache().stats()));
        let checks = [
            ("l1_tlb", tlbs(&self.l1_tlb) == snap.l1_tlb),
            ("l2_tlb", tlbs(&self.l2_tlb) == snap.l2_tlb),
            ("pom", self.pom.as_ref().map(|p| *p.stats()) == snap.pom),
            ("l1d", l1d == snap.l1d),
            ("l2", l2 == snap.l2),
            ("l3", *self.l3.cache().stats() == snap.l3),
            ("page_walks", self.page_walks == snap.page_walks),
            ("ddr", *self.ddr.stats() == snap.ddr),
            ("stacked", *self.stacked.stats() == snap.stacked),
        ];
        checks
            .iter()
            .find(|(_, ok)| !ok)
            .map(|(name, _)| format!("layer chain disagrees with the run on {name} counters"))
    }
}

fn new_spaces(sys: &SystemConfig, host_alloc: &mut FrameAllocator) -> Vec<GuestAddressSpace> {
    (0..sys.contexts_per_core)
        .map(|vm| {
            GuestAddressSpace::with_levels(
                Asid::new(vm as u16 + 1),
                GUEST_PHYS_BASE,
                GUEST_PHYS_SIZE,
                HugePagePolicy::NONE,
                host_alloc,
                sys.pt_levels,
            )
        })
        .collect()
}

/// Host time one component spent on its captured stream, replayed alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct Solo {
    /// Nanoseconds over the whole stream.
    pub ns: f64,
    /// Calls the stream counts: lookups for TLBs (installs ride along
    /// in the time), walks, cache or DRAM accesses, profiler records.
    pub calls: u64,
}

/// Per-component solo replay times, summable across configs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoloTimes {
    /// L1 TLBs.
    pub l1_tlb: Solo,
    /// L2 TLBs.
    pub l2_tlb: Solo,
    /// POM-TLB.
    pub pom: Solo,
    /// Nested walker over the guest address spaces.
    pub walk: Solo,
    /// L1 data caches.
    pub l1d: Solo,
    /// L2 caches (with the run's final partition).
    pub l2: Solo,
    /// Shared L3 (with the run's final partition).
    pub l3: Solo,
    /// DDR and die-stacked DRAM.
    pub dram: Solo,
    /// Stack-distance profiler records (CSALT schemes).
    pub record: Solo,
    /// Partition decisions at epoch boundaries (CSALT schemes).
    pub repartition: Solo,
}

impl SoloTimes {
    /// Every component's time, by name.
    pub fn named(&self) -> [(&'static str, Solo); 10] {
        [
            ("l1_tlb", self.l1_tlb),
            ("l2_tlb", self.l2_tlb),
            ("pom", self.pom),
            ("walk", self.walk),
            ("l1d", self.l1d),
            ("l2", self.l2),
            ("l3", self.l3),
            ("dram", self.dram),
            ("record", self.record),
            ("repartition", self.repartition),
        ]
    }

    fn parts_mut(&mut self) -> [&mut Solo; 10] {
        [
            &mut self.l1_tlb,
            &mut self.l2_tlb,
            &mut self.pom,
            &mut self.walk,
            &mut self.l1d,
            &mut self.l2,
            &mut self.l3,
            &mut self.dram,
            &mut self.record,
            &mut self.repartition,
        ]
    }

    /// Adds another config's times.
    pub fn add(&mut self, o: &SoloTimes) {
        for (a, (_, b)) in self.parts_mut().into_iter().zip(o.named()) {
            a.ns += b.ns;
            a.calls += b.calls;
        }
    }

    /// Keeps, per component, the faster of this and another replay of
    /// the same streams.
    pub fn keep_faster(&mut self, o: &SoloTimes) {
        for (a, (_, b)) in self.parts_mut().into_iter().zip(o.named()) {
            if b.ns < a.ns {
                *a = b;
            }
        }
    }

    /// Summed replay time of every component, nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.named().iter().map(|(_, s)| s.ns).sum()
    }
}

/// Replays one TLB-like stream through fresh per-unit instances.
fn replay_tlb<T>(
    units: Vec<T>,
    ops: &[(u8, TlbOp)],
    lookup: impl Fn(&mut T, u64) -> bool,
    insert: impl Fn(&mut T, VirtPage, Asid, PhysFrame),
) -> Solo {
    let mut units = units;
    let blocks = time_blocks(ops, BLOCK, |_, &(u, op)| match op {
        TlbOp::Lookup(key) => {
            black_box(lookup(&mut units[usize::from(u)], key));
        }
        TlbOp::Insert(page, asid, frame) => insert(&mut units[usize::from(u)], page, asid, frame),
    });
    Solo {
        ns: total_ns(&blocks),
        calls: ops
            .iter()
            .filter(|(_, op)| matches!(op, TlbOp::Lookup(_)))
            .count() as u64,
    }
}

fn replay_cache(mut units: Vec<Cache>, ops: &[CacheOp]) -> Solo {
    let blocks = time_blocks(ops, BLOCK, |_, op| {
        black_box(units[usize::from(op.unit)].access(op.line, op.kind, op.write));
    });
    Solo {
        ns: total_ns(&blocks),
        calls: ops.len() as u64,
    }
}

/// Replays `cap` component by component, each through fresh instances
/// built for `cfg`. `final_partitions` is the run's final `(L2, L3)`
/// data-way split, applied to the solo caches for the whole replay.
/// `span` wraps each component's replay (for the Chrome trace).
pub fn replay_solo(
    cfg: &SimConfig,
    cap: &Capture,
    final_partitions: (Option<u32>, Option<u32>),
    span: &mut dyn FnMut(&'static str, &mut dyn FnMut()),
) -> SoloTimes {
    let sys = &cfg.system;
    let cores = sys.cores as usize;
    let mut t = SoloTimes::default();

    span("solo.l1_tlb", &mut || {
        t.l1_tlb = replay_tlb(
            (0..cores).map(|_| SramTlb::new(sys.l1_tlb_4k)).collect(),
            &cap.l1_tlb,
            |x, k| x.lookup_prepacked(k).is_some(),
            SramTlb::insert,
        );
    });
    span("solo.l2_tlb", &mut || {
        t.l2_tlb = replay_tlb(
            (0..cores).map(|_| SramTlb::new(sys.l2_tlb)).collect(),
            &cap.l2_tlb,
            |x, k| x.lookup_prepacked(k).is_some(),
            SramTlb::insert,
        );
    });
    if cfg.scheme.uses_pom_tlb() {
        span("solo.pom", &mut || {
            let ops: Vec<(u8, TlbOp)> = cap.pom.iter().map(|&op| (0, op)).collect();
            t.pom = replay_tlb(
                vec![PomTlb::new(sys.pom_tlb)],
                &ops,
                |x, k| x.lookup_prepacked(k).frame.is_some(),
                |x, page, asid, frame| {
                    black_box(x.insert(page, asid, frame));
                },
            );
        });
    }
    span("solo.walk", &mut || {
        let mut alloc = FrameAllocator::new(0, HOST_MEMORY);
        let mut spaces = new_spaces(sys, &mut alloc);
        let mut walker = NestedWalker::with_levels(sys.psc, sys.pt_levels);
        let mut scratch: Vec<PteRead> = Vec::with_capacity(64);
        let blocks = time_blocks(&cap.walks, BLOCK, |_, &(ctx, va)| {
            scratch.clear();
            black_box(walker.walk_into(
                &mut spaces[usize::from(ctx)],
                va,
                &mut alloc,
                &mut scratch,
            ));
        });
        t.walk = Solo {
            ns: total_ns(&blocks),
            calls: cap.walks.len() as u64,
        };
    });
    let partitioned = |geom: &csalt_types::CacheGeometry, data_ways: Option<u32>| {
        let mut c = Cache::new(geom.sets(), geom.ways, sys.replacement);
        if let Some(w) = data_ways {
            c.set_partition(w);
        }
        c
    };
    span("solo.l1d", &mut || {
        t.l1d = replay_cache(
            (0..cores)
                .map(|_| Cache::from_geometry(&sys.l1d, sys.replacement))
                .collect(),
            &cap.l1d,
        );
    });
    span("solo.l2", &mut || {
        t.l2 = replay_cache(
            (0..cores)
                .map(|_| partitioned(&sys.l2, final_partitions.0))
                .collect(),
            &cap.l2,
        );
    });
    span("solo.l3", &mut || {
        t.l3 = replay_cache(vec![partitioned(&sys.l3, final_partitions.1)], &cap.l3);
    });
    span("solo.dram", &mut || {
        let mut ddr = DramModel::new(sys.ddr, sys.core_ghz);
        let mut stacked = DramModel::new(sys.die_stacked, sys.core_ghz);
        let blocks = time_blocks(&cap.dram, BLOCK, |_, op| {
            let dev = if op.stacked { &mut stacked } else { &mut ddr };
            black_box(dev.access(op.pa, op.write));
        });
        t.dram = Solo {
            ns: total_ns(&blocks),
            calls: cap.dram.len() as u64,
        };
    });
    if csalt_managed(cfg.scheme) {
        span("solo.profiler", &mut || {
            (t.record, t.repartition) = replay_profiler(cfg, cap);
        });
    }
    t
}

/// Replays the managed caches' access streams through fresh
/// stack-distance profilers, one per L2 plus one for the L3, taking a
/// partition decision at every epoch boundary as `ManagedCache` does.
/// Returns `(record, repartition)` times; the decisions are timed on
/// their own and excluded from the record time.
fn replay_profiler(cfg: &SimConfig, cap: &Capture) -> (Solo, Solo) {
    let sys = &cfg.system;
    let cores = sys.cores as usize;
    let mut units: Vec<(StackDistanceProfiler, EpochController, u64)> = (0..=cores)
        .map(|u| {
            let g = if u < cores { &sys.l2 } else { &sys.l3 };
            (
                StackDistanceProfiler::new(g.sets(), g.ways, cfg.profiler_interval),
                EpochController::new(sys.epoch_accesses),
                g.sets(),
            )
        })
        .collect();
    let mut decide = Duration::ZERO;
    let mut decisions = 0u64;
    let mut blocks = Vec::new();
    for (stream, shared) in [(&cap.l2, false), (&cap.l3, true)] {
        blocks.extend(time_blocks(stream, BLOCK, |_, op| {
            let unit = if shared { cores } else { usize::from(op.unit) };
            let (prof, epoch, sets) = &mut units[unit];
            let n = op.line.line_number();
            black_box(prof.record(n & (*sets - 1), n >> sets.trailing_zeros(), op.kind));
            if epoch.tick() {
                let t = Instant::now();
                let data = prof.counts(EntryKind::Data);
                let tlb = prof.counts(EntryKind::Tlb);
                black_box(choose_partition(&data, &tlb, 1, Weights::UNIT));
                prof.reset_counters();
                decide += t.elapsed();
                decisions += 1;
            }
        }));
    }
    let decide_ns = decide.as_secs_f64() * 1e9;
    (
        Solo {
            ns: (total_ns(&blocks) - decide_ns).max(0.0),
            calls: (cap.l2.len() + cap.l3.len()) as u64,
        },
        Solo {
            ns: decide_ns,
            calls: decisions,
        },
    )
}
