//! The full memory system of Figure 4: per-core L1/L2 TLBs and L1/L2
//! data caches, a shared L3, the large L3 TLB (POM-TLB) in die-stacked
//! DRAM, the 2D page walker, and the CSALT partitioning machinery on the
//! L2/L3 data caches.
//!
//! One [`MemoryHierarchy`] instance serves all cores of the simulated
//! chip. Each program memory access is charged in two parts, mirroring
//! the paper's simulation methodology (§4.2):
//!
//! * **translation cycles** — blocking: the pipeline cannot retire past
//!   an unresolved translation, so these cycles are charged in full;
//! * **data cycles** — overlappable: the core model divides them by the
//!   configured memory-level parallelism.

use crate::managed::{CacheManagement, ManagedCache, PartitionSample};
use csalt_cache::{Cache, CacheStats, Occupancy};
use csalt_dram::{DramModel, DramStats};
use csalt_profiler::{CriticalityEstimator, CriticalityGauges, PartitionDecision, Weights};
use csalt_ptw::{
    FrameAllocator, GuestAddressSpace, HugePagePolicy, NativeWalker, NestedWalker, PteRead, WalkDim,
};
use csalt_telemetry::{ServedBy, StageSample, WalkStage};
use csalt_tlb::{PomTlb, SramTlb, Tsb};
use csalt_types::{
    Asid, CkptError, CkptReader, CkptWriter, ContextId, CoreId, Cycle, EntryKind, HitMissStats,
    LineAddr, MemAccess, PhysAddr, PhysFrame, SystemConfig, TranslationHint, TranslationScheme,
    VirtAddr,
};
use serde::{Deserialize, Serialize};

/// Machine-memory aperture for the TSB tables (outside program memory
/// and the POM-TLB aperture).
const TSB_BASE: u64 = 0x0000_7d00_0000_0000;
/// Entries per per-context TSB table (1 MiB per context at 16 B each —
/// the same order of capacity the POM-TLB grants each context).
const TSB_ENTRIES_PER_CTX: u64 = 1 << 16;

/// Per-access cycle charges returned by [`MemoryHierarchy::access`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCharge {
    /// Blocking address-translation cycles.
    pub translation_cycles: Cycle,
    /// Overlappable data-access cycles.
    pub data_cycles: Cycle,
    /// Whether translation was served by an L1 TLB.
    pub l1_tlb_hit: bool,
    /// Whether translation was served at or above the L2 TLB.
    pub l2_tlb_hit: bool,
    /// Whether a page walk was required.
    pub walked: bool,
}

/// One pre-staged access: everything [`MemoryHierarchy::access_hinted`]
/// needs. Exists only for `perfbench/` and goes with the benchmark's next change.
#[derive(Debug, Clone, Copy)]
pub struct BlockAccess {
    /// Issuing core.
    pub core: CoreId,
    /// Scheduled context.
    pub ctx: ContextId,
    /// The program access.
    pub acc: MemAccess,
    /// Prepacked TLB keys for the access under `ctx`'s ASID.
    pub hint: TranslationHint,
}

/// Access-counter readings of every level a request can touch, used to
/// attribute a traced access to the level that served it.
#[derive(Debug, Clone, Copy)]
struct ServedProbe {
    l1d: u64,
    l2: u64,
    l3: u64,
    ddr: u64,
    stacked: u64,
}

/// Serializable summary of every component's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchySnapshot {
    /// Aggregate L1 TLB (4 KiB + 2 MiB) hits/misses across cores.
    pub l1_tlb: HitMissStats,
    /// Aggregate L2 TLB hits/misses across cores.
    pub l2_tlb: HitMissStats,
    /// Aggregate L1 data-cache statistics.
    pub l1d: CacheStats,
    /// Aggregate (all cores) L2 statistics.
    pub l2: CacheStats,
    /// Shared L3 statistics.
    pub l3: CacheStats,
    /// POM-TLB array statistics, for schemes that have one.
    pub pom: Option<HitMissStats>,
    /// TSB statistics, for the TSB scheme.
    pub tsb: Option<HitMissStats>,
    /// Completed page walks.
    pub page_walks: u64,
    /// Cycles spent inside page walks.
    pub page_walk_cycles: u64,
    /// Total blocking translation cycles.
    pub translation_cycles: u64,
    /// Total overlappable data cycles.
    pub data_cycles: u64,
    /// Program accesses served.
    pub accesses: u64,
    /// Off-chip DRAM statistics.
    pub ddr: DramStats,
    /// Die-stacked DRAM statistics.
    pub stacked: DramStats,
}

impl HierarchySnapshot {
    /// Page walks per program access avoided thanks to the large TLB:
    /// `1 - walks / l2_tlb_misses` (Figure 8's metric).
    pub fn walk_elimination(&self) -> f64 {
        if self.l2_tlb.misses == 0 {
            return 0.0;
        }
        1.0 - self.page_walks as f64 / self.l2_tlb.misses as f64
    }

    /// Average page-walk cycles per walk (Table 1's metric is per L2 TLB
    /// miss in the conventional scheme, where every miss walks).
    pub fn walk_cycles_per_walk(&self) -> f64 {
        if self.page_walks == 0 {
            0.0
        } else {
            self.page_walk_cycles as f64 / self.page_walks as f64
        }
    }

    /// Component-wise counter delta relative to an `earlier` snapshot of
    /// the same hierarchy — the payload of one telemetry epoch record.
    ///
    /// All subtraction is saturating (counters are monotonic between
    /// resets); summing the deltas of every epoch reproduces the final
    /// snapshot exactly, a property the workspace proptests check.
    #[must_use]
    pub fn delta_since(&self, earlier: &Self) -> Self {
        let opt_delta = |now: Option<HitMissStats>, then: Option<HitMissStats>| match (now, then) {
            (Some(a), Some(b)) => Some(a - b),
            (a, None) => a,
            (None, Some(_)) => None,
        };
        Self {
            l1_tlb: self.l1_tlb - earlier.l1_tlb,
            l2_tlb: self.l2_tlb - earlier.l2_tlb,
            l1d: self.l1d.delta_since(&earlier.l1d),
            l2: self.l2.delta_since(&earlier.l2),
            l3: self.l3.delta_since(&earlier.l3),
            pom: opt_delta(self.pom, earlier.pom),
            tsb: opt_delta(self.tsb, earlier.tsb),
            page_walks: self.page_walks.saturating_sub(earlier.page_walks),
            page_walk_cycles: self
                .page_walk_cycles
                .saturating_sub(earlier.page_walk_cycles),
            translation_cycles: self
                .translation_cycles
                .saturating_sub(earlier.translation_cycles),
            data_cycles: self.data_cycles.saturating_sub(earlier.data_cycles),
            accesses: self.accesses.saturating_sub(earlier.accesses),
            ddr: self.ddr.delta_since(&earlier.ddr),
            stacked: self.stacked.delta_since(&earlier.stacked),
        }
    }
}

/// Per-context translation machinery.
// One instance lives inline per hierarchy and is matched on every
// translation; boxing the walker to shrink the enum would trade a few
// hundred resident bytes for a pointer chase on the hot path.
#[allow(clippy::large_enum_variant)]
enum Translator {
    Virtualized(GuestAddressSpace),
    Native(NativeWalker),
}

/// The chip's complete memory system under one translation scheme.
pub struct MemoryHierarchy {
    cfg: SystemConfig,
    scheme: TranslationScheme,
    huge: HugePagePolicy,
    virtualized: bool,

    l1d: Vec<Cache>,
    l2: Vec<ManagedCache>,
    l3: ManagedCache,
    l1_tlb_4k: Vec<SramTlb>,
    l1_tlb_2m: Vec<SramTlb>,
    l2_tlb: Vec<SramTlb>,

    pom: Option<PomTlb>,
    tsb: Option<Tsb>,
    nested: NestedWalker,
    contexts: Vec<Translator>,
    host_alloc: FrameAllocator,
    /// Reused PTE-read buffer: every page walk appends into it and it
    /// is cleared before reuse, so the steady-state access path never
    /// allocates.
    walk_scratch: Vec<PteRead>,

    ddr: DramModel,
    stacked: DramModel,

    crit_l2: CriticalityEstimator,
    crit_l3: CriticalityEstimator,

    accesses: u64,
    crit_samples: u64,
    translation_cycles: u64,
    data_cycles: u64,
    page_walks: u64,
    page_walk_cycles: u64,

    /// Stage-attribution sink for the access currently being traced;
    /// `None` (the steady state) keeps the hot path to one branch per
    /// potential stage push.
    trace: Option<Vec<StageSample>>,
}

impl MemoryHierarchy {
    /// Builds the hierarchy for `scheme`.
    ///
    /// * `virtualized` — VM contexts with 2D walks when `true`, native
    ///   address spaces with 1D walks otherwise (Figure 12).
    /// * `huge` — huge-page policy for demand mapping.
    /// * `profiler_interval` — stack-distance shadow-directory set
    ///   sampling (1 = every set).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not validate; see
    /// [`MemoryHierarchy::try_new`] for the fallible form.
    pub fn new(
        cfg: &SystemConfig,
        scheme: TranslationScheme,
        virtualized: bool,
        huge: HugePagePolicy,
        profiler_interval: u64,
    ) -> Self {
        Self::try_new(cfg, scheme, virtualized, huge, profiler_interval)
            .expect("system config must be valid")
    }

    /// Fallible form of [`MemoryHierarchy::new`]: returns the first
    /// CSALT-Axxx configuration violation instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`csalt_types::ConfigError`] when `cfg` fails a static
    /// invariant (`SystemConfig::validate`), or when `profiler_interval`
    /// is 0 or exceeds the L2 or L3 set count (the shadow directories
    /// sample every n-th set of both).
    pub fn try_new(
        cfg: &SystemConfig,
        scheme: TranslationScheme,
        virtualized: bool,
        huge: HugePagePolicy,
        profiler_interval: u64,
    ) -> Result<Self, csalt_types::ConfigError> {
        cfg.validate()?;
        let max_interval = cfg.l2.sets().min(cfg.l3.sets());
        if !(1..=max_interval).contains(&profiler_interval) {
            return Err(csalt_types::ConfigError::new(format!(
                "profiler_interval {profiler_interval} outside 1..={max_interval} \
                 (the L2/L3 set count)"
            )));
        }
        let management = match scheme {
            TranslationScheme::CsaltD
            | TranslationScheme::CsaltCd
            | TranslationScheme::TsbCsalt => CacheManagement::Csalt,
            TranslationScheme::Dip | TranslationScheme::Drrip => CacheManagement::Dip,
            TranslationScheme::StaticPartition { data_ways } => {
                CacheManagement::Static { data_ways }
            }
            _ => CacheManagement::Unmanaged,
        };
        let l2_management = match management {
            // A static split sized for the 16-way L3 would starve the
            // 4-way L2; scale it proportionally.
            CacheManagement::Static { data_ways } => CacheManagement::Static {
                data_ways: (data_ways * cfg.l2.ways / cfg.l3.ways).clamp(1, cfg.l2.ways - 1),
            },
            m => m,
        };

        // DRRIP carries its own storage policy regardless of the
        // configured recency policy.
        let managed_replacement = if matches!(scheme, TranslationScheme::Drrip) {
            csalt_types::ReplacementKind::Rrip
        } else {
            cfg.replacement
        };
        let cores = cfg.cores as usize;
        let mk_l2 = || {
            ManagedCache::new(
                cfg.l2.sets(),
                cfg.l2.ways,
                managed_replacement,
                l2_management,
                cfg.epoch_accesses,
                profiler_interval,
            )
        };
        let ddr = DramModel::new(cfg.ddr, cfg.core_ghz);
        let stacked = DramModel::new(cfg.die_stacked, cfg.core_ghz);
        let crit_l2 = CriticalityEstimator::new(
            cfg.l2.latency,
            ddr.best_case_latency(),
            stacked.best_case_latency(),
        );
        let crit_l3 = CriticalityEstimator::new(
            cfg.l3.latency,
            ddr.best_case_latency(),
            stacked.best_case_latency(),
        );

        Ok(Self {
            l1d: (0..cores)
                .map(|_| Cache::from_geometry(&cfg.l1d, cfg.replacement))
                .collect(),
            l2: (0..cores).map(|_| mk_l2()).collect(),
            l3: ManagedCache::new(
                cfg.l3.sets(),
                cfg.l3.ways,
                managed_replacement,
                management,
                cfg.epoch_accesses,
                profiler_interval,
            ),
            l1_tlb_4k: (0..cores).map(|_| SramTlb::new(cfg.l1_tlb_4k)).collect(),
            l1_tlb_2m: (0..cores).map(|_| SramTlb::new(cfg.l1_tlb_2m)).collect(),
            l2_tlb: (0..cores).map(|_| SramTlb::new(cfg.l2_tlb)).collect(),
            pom: scheme.uses_pom_tlb().then(|| PomTlb::new(cfg.pom_tlb)),
            tsb: matches!(scheme, TranslationScheme::Tsb | TranslationScheme::TsbCsalt)
                .then(|| Tsb::new(TSB_ENTRIES_PER_CTX, TSB_BASE, virtualized)),
            nested: NestedWalker::with_levels(cfg.psc, cfg.pt_levels),
            contexts: Vec::new(),
            // 35 reads is the 5-level nested worst case; 64 never grows.
            walk_scratch: Vec::with_capacity(64),
            // Program + page-table memory: everything below the TSB and
            // POM apertures. 256 GiB is far beyond any experiment's
            // footprint; allocation is lazy.
            host_alloc: FrameAllocator::new(0, 256 << 30),
            ddr,
            stacked,
            crit_l2,
            crit_l3,
            accesses: 0,
            crit_samples: 0,
            translation_cycles: 0,
            data_cycles: 0,
            page_walks: 0,
            page_walk_cycles: 0,
            cfg: cfg.clone(),
            scheme,
            huge,
            virtualized,
            trace: None,
        })
    }

    /// Registers a new schedulable context (one VM workload instance),
    /// returning its id. The context's ASID is `id + 1`.
    pub fn add_context(&mut self) -> ContextId {
        let id = ContextId::new(self.contexts.len() as u32);
        let asid = Asid::new(id.raw() as u16 + 1);
        let t = if self.virtualized {
            Translator::Virtualized(GuestAddressSpace::with_levels(
                asid,
                1 << 40,
                64 << 30,
                self.huge,
                &mut self.host_alloc,
                self.cfg.pt_levels,
            ))
        } else {
            Translator::Native(NativeWalker::with_levels(
                asid,
                &mut self.host_alloc,
                self.huge,
                self.cfg.psc,
                self.cfg.pt_levels,
            ))
        };
        self.contexts.push(t);
        id
    }

    /// The ASID assigned to a context (contexts get sequential ASIDs
    /// starting at 1; ASID 0 is never issued). Public so callers can
    /// precompute packed TLB keys for a context.
    pub fn asid_of(&self, ctx: ContextId) -> Asid {
        Asid::new(ctx.raw() as u16 + 1)
    }

    /// Serves one program memory access, returning its cycle charges.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `ctx` is out of range.
    pub fn access(&mut self, core: CoreId, ctx: ContextId, acc: MemAccess) -> AccessCharge {
        let hint = TranslationHint::compute(acc.vaddr, self.asid_of(ctx));
        self.access_hinted(core, ctx, acc, &hint)
    }

    /// [`MemoryHierarchy::access`] with the state-independent
    /// precomputation (packed TLB keys) already done — the single
    /// implementation `access` delegates to, so precomputed and inline
    /// keys charge bit-identical cycles.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `ctx` is out of range; debug builds also
    /// panic if `hint` was not computed from this access and context.
    pub fn access_hinted(
        &mut self,
        core: CoreId,
        ctx: ContextId,
        acc: MemAccess,
        hint: &TranslationHint,
    ) -> AccessCharge {
        assert!(core.index() < self.l1d.len(), "core out of range");
        assert!(ctx.index() < self.contexts.len(), "context out of range");
        debug_assert_eq!(
            *hint,
            TranslationHint::compute(acc.vaddr, self.asid_of(ctx)),
            "stale translation hint for this access/context"
        );
        self.accesses += 1;
        let (frame, translation_cycles, l1_hit, l2_hit, walked) =
            self.translate(core, ctx, acc.vaddr, hint);
        let pa = frame.translate(acc.vaddr);
        let probe = self
            .trace
            .is_some()
            .then(|| self.served_probe(core.index()));
        let data_cycles = self.data_access(core.index(), pa.line(), acc.ty.is_write());
        if let Some(p) = probe {
            let served = self.served_since(core.index(), &p);
            self.push_stage(WalkStage::Data, 0, data_cycles, None, served);
        }
        self.translation_cycles += translation_cycles;
        self.data_cycles += data_cycles;
        // Conservation laws the counters must satisfy after every access
        // (debug builds only; CSALT-A102/A103 check the same at run end).
        debug_assert!(
            self.page_walk_cycles <= self.translation_cycles,
            "walk cycles {} exceed translation cycles {}",
            self.page_walk_cycles,
            self.translation_cycles
        );
        debug_assert!(
            self.page_walks <= self.l2_tlb.iter().map(|t| t.stats().misses).sum::<u64>(),
            "page walks {} exceed cumulative L2 TLB misses",
            self.page_walks
        );
        AccessCharge {
            translation_cycles,
            data_cycles,
            l1_tlb_hit: l1_hit,
            l2_tlb_hit: l1_hit || l2_hit,
            walked,
        }
    }

    /// [`MemoryHierarchy::access_hinted`] per record, appending each
    /// charge to `charges`; exists only for `perfbench/` and goes with the benchmark's next change.
    pub fn access_block_hinted(&mut self, block: &[BlockAccess], charges: &mut Vec<AccessCharge>) {
        for b in block {
            charges.push(self.access_hinted(b.core, b.ctx, b.acc, &b.hint));
        }
    }

    /// Does nothing; exists only for `perfbench/` and goes with the benchmark's next change.
    pub fn set_l0_memo(&mut self, _enabled: bool) {}

    /// Zero hits; exists only for `perfbench/` and goes with the benchmark's next change.
    pub fn l0_stats(&self) -> HitMissStats {
        HitMissStats::new()
    }

    /// Does nothing; exists only for `perfbench/` and goes with the benchmark's next change.
    pub fn l0_note_context_switch(&mut self, _core: usize) {}

    /// Serves one access while recording its full path through the
    /// hierarchy as per-stage cycle attributions (telemetry walk traces).
    ///
    /// The returned stage cycles always sum to
    /// `translation_cycles + data_cycles`: every blocking cycle the
    /// access is charged is attributed to exactly one stage, and
    /// non-blocking work (TLB install stores, dirty writebacks) appears
    /// in no stage because it is charged to no access.
    ///
    /// # Panics
    ///
    /// Panics if `core` or `ctx` is out of range.
    pub fn access_traced(
        &mut self,
        core: CoreId,
        ctx: ContextId,
        acc: MemAccess,
    ) -> (AccessCharge, Vec<StageSample>) {
        self.trace = Some(Vec::with_capacity(8));
        let charge = self.access(core, ctx, acc);
        let stages = self.trace.take().unwrap_or_default();
        debug_assert_eq!(
            stages.iter().map(|s| s.cycles).sum::<u64>(),
            charge.translation_cycles + charge.data_cycles,
            "stage attribution must be exhaustive"
        );
        (charge, stages)
    }

    /// Appends a stage sample if an access trace is being collected.
    fn push_stage(
        &mut self,
        stage: WalkStage,
        index: u32,
        cycles: Cycle,
        hit: Option<bool>,
        served_by: Option<ServedBy>,
    ) {
        if let Some(t) = self.trace.as_mut() {
            t.push(StageSample {
                stage,
                index,
                cycles,
                hit,
                served_by,
            });
        }
    }

    /// Point-in-time access counters of every level a request can touch,
    /// taken before an access so [`Self::served_since`] can attribute it.
    fn served_probe(&self, core: usize) -> ServedProbe {
        ServedProbe {
            l1d: self.l1d[core].stats().total().accesses(),
            l2: self.l2[core].cache().stats().total().accesses(),
            l3: self.l3.cache().stats().total().accesses(),
            ddr: self.ddr.stats().accesses,
            stacked: self.stacked.stats().accesses,
        }
    }

    /// Deepest memory level whose access counter advanced since `p` was
    /// taken — i.e. the level that served the request. Writebacks riding
    /// on the same access can deepen the answer; attribution is
    /// best-effort, not part of the cycle accounting.
    fn served_since(&self, core: usize, p: &ServedProbe) -> Option<ServedBy> {
        let q = self.served_probe(core);
        if q.stacked > p.stacked {
            Some(ServedBy::StackedDram)
        } else if q.ddr > p.ddr {
            Some(ServedBy::Ddr)
        } else if q.l3 > p.l3 {
            Some(ServedBy::L3)
        } else if q.l2 > p.l2 {
            Some(ServedBy::L2)
        } else if q.l1d > p.l1d {
            Some(ServedBy::L1d)
        } else {
            None
        }
    }

    /// Resolves `va` to a frame, charging translation cycles. The SRAM
    /// TLB levels are probed through `hint`'s prepacked keys — computed
    /// either inline (`access`) or ahead of time by the caller
    /// (`access_hinted`); one code path serves both.
    fn translate(
        &mut self,
        core: CoreId,
        ctx: ContextId,
        va: VirtAddr,
        hint: &TranslationHint,
    ) -> (PhysFrame, Cycle, bool, bool, bool) {
        let asid = self.asid_of(ctx);
        let c = core.index();
        let probe_2m = self.huge.fraction_2m > 0.0;

        // L1 TLBs (looked up in parallel with the L1 data cache: a hit
        // adds no visible latency).
        if let Some(f) = self.l1_tlb_4k[c].lookup_prepacked(hint.packed_4k) {
            self.push_stage(WalkStage::L1Tlb, 0, 0, Some(true), None);
            return (f, 0, true, false, false);
        }
        if probe_2m {
            if let Some(f) = self.l1_tlb_2m[c].lookup_prepacked(hint.packed_2m) {
                self.push_stage(WalkStage::L1Tlb, 0, 0, Some(true), None);
                return (f, 0, true, false, false);
            }
        }
        self.push_stage(WalkStage::L1Tlb, 0, 0, Some(false), None);

        // Unified L2 TLB.
        let mut cycles = self.cfg.l2_tlb.latency;
        let l2_result = self.l2_tlb[c].lookup_prepacked(hint.packed_4k).or_else(|| {
            if probe_2m {
                self.l2_tlb[c].lookup_prepacked(hint.packed_2m)
            } else {
                None
            }
        });
        self.push_stage(WalkStage::L2Tlb, 0, cycles, Some(l2_result.is_some()), None);
        if let Some(f) = l2_result {
            self.install_l1(c, va, asid, f);
            return (f, cycles, false, true, false);
        }

        // L2 TLB miss: the translation request enters the memory system.
        let (page, frame, walked) = match self.scheme {
            TranslationScheme::Conventional => {
                let (page, frame, walk_cycles) = self.page_walk(ctx, va);
                cycles += walk_cycles;
                (page, frame, true)
            }
            TranslationScheme::Tsb | TranslationScheme::TsbCsalt => {
                let (page, frame, tsb_cycles, walked) = self.tsb_translate(core, ctx, va, hint);
                cycles += tsb_cycles;
                (page, frame, walked)
            }
            _ => {
                let (page, frame, pom_cycles, walked) = self.pom_translate(core, ctx, va, hint);
                cycles += pom_cycles;
                (page, frame, walked)
            }
        };

        // Install into the SRAM TLB levels.
        self.l2_tlb[c].insert(page, asid, frame);
        match page.size() {
            csalt_types::PageSize::Size4K => self.l1_tlb_4k[c].insert(page, asid, frame),
            _ => self.l1_tlb_2m[c].insert(page, asid, frame),
        }
        (frame, cycles, false, false, walked)
    }

    fn install_l1(&mut self, core: usize, va: VirtAddr, asid: Asid, frame: PhysFrame) {
        let page = va.page(frame.size());
        match frame.size() {
            csalt_types::PageSize::Size4K => self.l1_tlb_4k[core].insert(page, asid, frame),
            _ => self.l1_tlb_2m[core].insert(page, asid, frame),
        }
    }

    /// POM-TLB translation: one cacheable access to the entry's home
    /// line; on an array miss, a page walk followed by an insert. The
    /// array is probed through `hint`'s prepacked keys, same as the SRAM
    /// levels.
    fn pom_translate(
        &mut self,
        core: CoreId,
        ctx: ContextId,
        va: VirtAddr,
        hint: &TranslationHint,
    ) -> (csalt_types::VirtPage, PhysFrame, Cycle, bool) {
        let asid = self.asid_of(ctx);
        let probe_2m = self.huge.fraction_2m > 0.0;
        let mut cycles = 0;

        let sizes: &[(csalt_types::PageSize, u64)] = if probe_2m {
            &[
                (csalt_types::PageSize::Size4K, hint.packed_4k),
                (csalt_types::PageSize::Size2M, hint.packed_2m),
            ]
        } else {
            &[(csalt_types::PageSize::Size4K, hint.packed_4k)]
        };
        for (i, &(size, packed)) in sizes.iter().enumerate() {
            let page = va.page(size);
            let (lookup_line, found) = {
                let pom = self.pom.as_mut().expect("POM scheme has a POM-TLB");
                let r = pom.lookup_prepacked(packed);
                (r.line, r.frame)
            };
            // The lookup is one memory access to the home line; the data
            // caches may hold it.
            let probe = self
                .trace
                .is_some()
                .then(|| self.served_probe(core.index()));
            let lookup_cycles = self.l2_access(core.index(), lookup_line, EntryKind::Tlb, false);
            cycles += lookup_cycles;
            if let Some(p) = probe {
                let served = self.served_since(core.index(), &p);
                self.push_stage(
                    WalkStage::PomLookup,
                    i as u32,
                    lookup_cycles,
                    Some(found.is_some()),
                    served,
                );
            }
            if let Some(frame) = found {
                return (page, frame, cycles, false);
            }
        }

        // Large TLB miss: walk and install.
        let (page, frame, walk_cycles) = self.page_walk(ctx, va);
        cycles += walk_cycles;
        let write_line = self
            .pom
            .as_mut()
            .expect("POM scheme has a POM-TLB")
            .insert(page, asid, frame);
        // The install is a store: it updates the caches but does not
        // block the pipeline.
        self.l2_access(core.index(), write_line, EntryKind::Tlb, true);
        (page, frame, cycles, true)
    }

    /// TSB translation: the software buffer's dependent lookups, then a
    /// walk + reload on a miss.
    fn tsb_translate(
        &mut self,
        core: CoreId,
        ctx: ContextId,
        va: VirtAddr,
        hint: &TranslationHint,
    ) -> (csalt_types::VirtPage, PhysFrame, Cycle, bool) {
        let asid = self.asid_of(ctx);
        // The TSB stores entries at the terminal page size; probe 4K
        // (the dominant size; a 2M-policy miss simply walks). The probe
        // goes through the hint's prepacked 4K key.
        let page = va.page(csalt_types::PageSize::Size4K);
        let (frame, accesses) = {
            let tsb = self.tsb.as_mut().expect("TSB scheme has a TSB");
            let r = tsb.lookup_prepacked(hint.packed_4k);
            (r.frame, r.accesses)
        };
        let mut cycles = 0;
        let hit = frame.is_some();
        for (i, &line) in accesses.iter().enumerate() {
            let probe = self
                .trace
                .is_some()
                .then(|| self.served_probe(core.index()));
            let c = self.l2_access(core.index(), line, EntryKind::Tlb, false);
            cycles += c;
            if let Some(p) = probe {
                let served = self.served_since(core.index(), &p);
                self.push_stage(WalkStage::TsbLookup, i as u32, c, Some(hit), served);
            }
        }
        if let Some(f) = frame {
            return (page, f, cycles, false);
        }
        let (page, frame, walk_cycles) = self.page_walk(ctx, va);
        cycles += walk_cycles;
        let write_line = self
            .tsb
            .as_mut()
            .expect("TSB scheme has a TSB")
            .insert(page, asid, frame);
        self.l2_access(core.index(), write_line, EntryKind::Tlb, true);
        (page, frame, cycles, true)
    }

    /// Runs the page walk for `va`, charging every PTE read through the
    /// cache hierarchy (starting at the walker's L2 port).
    fn page_walk(
        &mut self,
        ctx: ContextId,
        va: VirtAddr,
    ) -> (csalt_types::VirtPage, PhysFrame, Cycle) {
        // Take the scratch buffer so the walkers can borrow `self`
        // mutably; put back below (keeps its capacity — no allocation).
        let mut accesses = std::mem::take(&mut self.walk_scratch);
        accesses.clear();
        let outcome = {
            let Self {
                contexts,
                nested,
                host_alloc,
                ..
            } = self;
            match &mut contexts[ctx.index()] {
                Translator::Virtualized(space) => {
                    nested.walk_into(space, va, host_alloc, &mut accesses)
                }
                Translator::Native(walker) => walker.walk_into(va, host_alloc, &mut accesses),
            }
        };
        let mut cycles = 0;
        // PTE reads are dependent: charge them sequentially. Walks issue
        // from the walker's cache port on the requesting core's L2.
        let core = (ctx.raw() as usize) % self.l1d.len();
        let mut guest_idx = 0u32;
        let mut host_idx = 0u32;
        for pte in &accesses {
            let probe = self.trace.is_some().then(|| self.served_probe(core));
            let c = self.l2_access(core, pte.addr.line(), EntryKind::Tlb, false);
            cycles += c;
            if let Some(p) = probe {
                let served = self.served_since(core, &p);
                let (stage, index) = match pte.dim {
                    WalkDim::Guest => {
                        guest_idx += 1;
                        (WalkStage::GuestPte, guest_idx - 1)
                    }
                    WalkDim::Host => {
                        host_idx += 1;
                        (WalkStage::HostPte, host_idx - 1)
                    }
                };
                self.push_stage(stage, index, c, None, served);
            }
        }
        self.walk_scratch = accesses;
        self.page_walks += 1;
        self.page_walk_cycles += cycles;
        (outcome.page, outcome.frame, cycles)
    }

    /// A data access through L1 → L2 → L3 → DRAM.
    fn data_access(&mut self, core: usize, line: LineAddr, write: bool) -> Cycle {
        let out = self.l1d[core].access(line, EntryKind::Data, write);
        if out.hit {
            return self.cfg.l1d.latency;
        }
        let mut cycles = self.cfg.l1d.latency + self.l2_access(core, line, EntryKind::Data, write);
        if let Some(ev) = out.evicted {
            if ev.dirty {
                // Writeback is off the critical path.
                self.l2_access(core, ev.line, ev.kind, true);
            }
        }
        cycles = cycles.max(self.cfg.l1d.latency);
        cycles
    }

    /// An access at the L2 level (and below), returning its latency.
    fn l2_access(&mut self, core: usize, line: LineAddr, kind: EntryKind, write: bool) -> Cycle {
        let out = {
            // Split borrows so the weight closure (evaluated only at
            // epoch boundaries) can read the estimator while the cache
            // is borrowed mutably.
            let Self {
                l2,
                crit_l2,
                scheme,
                ..
            } = self;
            let scheme = *scheme;
            l2[core].access(line, kind, write, || match scheme {
                TranslationScheme::CsaltCd | TranslationScheme::TsbCsalt => crit_l2.weights(),
                _ => Weights::UNIT,
            })
        };
        if out.hit {
            return self.cfg.l2.latency;
        }
        let mut cycles = self.cfg.l2.latency + self.l3_access(line, kind, write);
        if let Some(ev) = out.evicted {
            if ev.dirty {
                self.l3_access(ev.line, ev.kind, true);
            }
        }
        cycles = cycles.max(self.cfg.l2.latency);
        cycles
    }

    /// An access at the shared L3 (and memory), returning its latency.
    fn l3_access(&mut self, line: LineAddr, kind: EntryKind, write: bool) -> Cycle {
        let out = {
            let Self {
                l3,
                crit_l3,
                scheme,
                ..
            } = self;
            let scheme = *scheme;
            l3.access(line, kind, write, || match scheme {
                TranslationScheme::CsaltCd | TranslationScheme::TsbCsalt => crit_l3.weights(),
                _ => Weights::UNIT,
            })
        };
        if out.hit {
            return self.cfg.l3.latency;
        }
        let mem = self.mem_access(line.base(), false);
        if let Some(ev) = out.evicted {
            if ev.dirty {
                self.mem_access(ev.line.base(), true);
            }
        }
        self.cfg.l3.latency + mem
    }

    /// Routes a memory access to DDR or the die-stacked device by
    /// aperture and feeds the criticality estimators.
    fn mem_access(&mut self, pa: PhysAddr, write: bool) -> Cycle {
        let in_pom = self.pom.as_ref().is_some_and(|p| p.owns(pa));
        let lat = if in_pom {
            let l = self.stacked.access(pa, write);
            self.crit_l2.record_pom_tlb(l);
            self.crit_l3.record_pom_tlb(l);
            l
        } else {
            let l = self.ddr.access(pa, write);
            self.crit_l2.record_dram(l);
            self.crit_l3.record_dram(l);
            l
        };
        // Periodic decay keeps the criticality estimates phase-local.
        self.crit_samples += 1;
        if self.crit_samples.is_multiple_of(8192) {
            self.crit_l2.decay();
            self.crit_l3.decay();
        }
        lat
    }

    /// Resets every component's statistics while preserving all state
    /// (cache/TLB contents, partitions, page tables, open DRAM rows).
    /// Used to discard warmup before the measured phase.
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1d {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.l3.reset_stats();
        for t in self
            .l1_tlb_4k
            .iter_mut()
            .chain(self.l1_tlb_2m.iter_mut())
            .chain(self.l2_tlb.iter_mut())
        {
            t.reset_stats();
        }
        if let Some(p) = &mut self.pom {
            p.reset_stats();
        }
        if let Some(t) = &mut self.tsb {
            t.reset_stats();
        }
        self.ddr.reset_stats();
        self.stacked.reset_stats();
        self.accesses = 0;
        self.translation_cycles = 0;
        self.data_cycles = 0;
        self.page_walks = 0;
        self.page_walk_cycles = 0;
    }

    /// Aggregate L2 TLB statistics across cores.
    pub fn l2_tlb_stats(&self) -> HitMissStats {
        self.l2_tlb
            .iter()
            .map(|t| *t.stats())
            .fold(HitMissStats::new(), |a, b| a + b)
    }

    /// Mean L2 occupancy across cores and the L3 occupancy (Figure 3).
    pub fn occupancy(&self) -> (Occupancy, Occupancy) {
        let mut l2 = Occupancy::default();
        for c in &self.l2 {
            let o = c.cache().occupancy();
            l2.data_lines += o.data_lines;
            l2.tlb_lines += o.tlb_lines;
            l2.capacity_lines += o.capacity_lines;
        }
        (l2, self.l3.cache().occupancy())
    }

    /// Enables Figure 9 partition tracing on one L2 and the L3.
    pub fn enable_partition_trace(&mut self) {
        if let Some(l2) = self.l2.first_mut() {
            l2.enable_partition_trace();
        }
        self.l3.enable_partition_trace();
    }

    /// Current (first core's L2, L3) data-way partitions, if any.
    pub fn current_partitions(&self) -> (Option<u32>, Option<u32>) {
        (
            self.l2
                .first()
                .and_then(super::managed::ManagedCache::data_ways),
            self.l3.data_ways(),
        )
    }

    /// Repartition observability for core 0's L2: decisions taken so
    /// far, the latest decision, and (when partition tracing is
    /// enabled) the marginal-utility curve behind it.
    pub fn l2_decision_info(&self) -> (u64, Option<PartitionDecision>, &[(u32, f64)]) {
        self.l2.first().map_or((0, None, &[] as &[_]), |c| {
            (c.decisions(), c.last_decision(), c.last_curve())
        })
    }

    /// Repartition observability for the shared L3; see
    /// [`Self::l2_decision_info`].
    pub fn l3_decision_info(&self) -> (u64, Option<PartitionDecision>, &[(u32, f64)]) {
        (
            self.l3.decisions(),
            self.l3.last_decision(),
            self.l3.last_curve(),
        )
    }

    /// Partition samples of (first core's L2, L3).
    pub fn partition_traces(&self) -> (&[PartitionSample], &[PartitionSample]) {
        (
            self.l2
                .first()
                .map(super::managed::ManagedCache::partition_trace)
                .unwrap_or(&[]),
            self.l3.partition_trace(),
        )
    }

    /// Takes a full statistics snapshot.
    pub fn snapshot(&self) -> HierarchySnapshot {
        let agg = |iter: &[SramTlb]| {
            iter.iter()
                .map(|t| *t.stats())
                .fold(HitMissStats::new(), |a, b| a + b)
        };
        let cache_agg = |stats: Vec<CacheStats>| {
            stats.into_iter().fold(CacheStats::default(), |mut a, b| {
                a.data += b.data;
                a.tlb += b.tlb;
                a.fills += b.fills;
                a.evictions += b.evictions;
                a.writebacks += b.writebacks;
                a
            })
        };
        HierarchySnapshot {
            l1_tlb: agg(&self.l1_tlb_4k) + agg(&self.l1_tlb_2m),
            l2_tlb: agg(&self.l2_tlb),
            l1d: cache_agg(self.l1d.iter().map(|c| *c.stats()).collect()),
            l2: cache_agg(self.l2.iter().map(|c| *c.cache().stats()).collect()),
            l3: *self.l3.cache().stats(),
            pom: self.pom.as_ref().map(|p| *p.stats()),
            tsb: self.tsb.as_ref().map(|t| *t.stats()),
            page_walks: self.page_walks,
            page_walk_cycles: self.page_walk_cycles,
            translation_cycles: self.translation_cycles,
            data_cycles: self.data_cycles,
            accesses: self.accesses,
            ddr: *self.ddr.stats(),
            stacked: *self.stacked.stats(),
        }
    }

    /// Mean L2 TLB occupancy (valid entries / capacity) across cores.
    pub fn l2_tlb_utilization(&self) -> f64 {
        if self.l2_tlb.is_empty() {
            return 0.0;
        }
        self.l2_tlb.iter().map(SramTlb::utilization).sum::<f64>() / self.l2_tlb.len() as f64
    }

    /// POM-TLB array occupancy, for schemes that have one.
    pub fn pom_utilization(&self) -> Option<f64> {
        self.pom.as_ref().map(PomTlb::utilization)
    }

    /// Criticality-estimator gauges for the (L2, L3) managed caches —
    /// the §3.2 latency averages next to the weights they produce.
    pub fn criticality_gauges(&self) -> (CriticalityGauges, CriticalityGauges) {
        (self.crit_l2.gauges(), self.crit_l3.gauges())
    }

    /// The scheme this hierarchy runs.
    pub fn scheme(&self) -> TranslationScheme {
        self.scheme
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Serializes every result-affecting component of the hierarchy —
    /// cache/TLB contents and replacement state, POM-TLB/TSB tables,
    /// page tables and frame allocators, PSC prefixes, DRAM open rows,
    /// partitioner and criticality state, and the aggregate counters.
    /// Transients (the walk scratch buffer, the per-access trace sink)
    /// carry no observable state and are skipped.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.len64(self.l1d.len());
        w.bool(self.virtualized);
        w.bool(self.pom.is_some());
        w.bool(self.tsb.is_some());
        for c in &self.l1d {
            c.ckpt_save(w);
        }
        for c in &self.l2 {
            c.ckpt_save(w);
        }
        self.l3.ckpt_save(w);
        for t in self
            .l1_tlb_4k
            .iter()
            .chain(self.l1_tlb_2m.iter())
            .chain(self.l2_tlb.iter())
        {
            t.ckpt_save(w);
        }
        if let Some(p) = &self.pom {
            p.ckpt_save(w);
        }
        if let Some(t) = &self.tsb {
            t.ckpt_save(w);
        }
        self.nested.ckpt_save(w);
        w.len64(self.contexts.len());
        for ctx in &self.contexts {
            match ctx {
                Translator::Virtualized(space) => {
                    w.u8(0);
                    space.ckpt_save(w);
                }
                Translator::Native(walker) => {
                    w.u8(1);
                    walker.ckpt_save(w);
                }
            }
        }
        self.host_alloc.ckpt_save(w);
        self.ddr.ckpt_save(w);
        self.stacked.ckpt_save(w);
        self.crit_l2.ckpt_save(w);
        self.crit_l3.ckpt_save(w);
        w.u64(self.accesses);
        w.u64(self.crit_samples);
        w.u64(self.translation_cycles);
        w.u64(self.data_cycles);
        w.u64(self.page_walks);
        w.u64(self.page_walk_cycles);
    }

    /// Restores state written by [`MemoryHierarchy::ckpt_save`] into a
    /// hierarchy built from the *same* configuration with the same
    /// contexts added. Guard words (core count, virtualization mode,
    /// component presence, per-component geometry) reject a mismatched
    /// target with [`CkptError::Mismatch`] and leave partially-written
    /// state behind — callers must discard the hierarchy on error and
    /// fall back to a cold run.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.len64()? != self.l1d.len() {
            return Err(CkptError::Mismatch("core count"));
        }
        if r.bool()? != self.virtualized {
            return Err(CkptError::Mismatch("virtualization mode"));
        }
        if r.bool()? != self.pom.is_some() || r.bool()? != self.tsb.is_some() {
            return Err(CkptError::Mismatch("translation component presence"));
        }
        for c in &mut self.l1d {
            c.ckpt_load(r)?;
        }
        for c in &mut self.l2 {
            c.ckpt_load(r)?;
        }
        self.l3.ckpt_load(r)?;
        for t in self
            .l1_tlb_4k
            .iter_mut()
            .chain(self.l1_tlb_2m.iter_mut())
            .chain(self.l2_tlb.iter_mut())
        {
            t.ckpt_load(r)?;
        }
        if let Some(p) = &mut self.pom {
            p.ckpt_load(r)?;
        }
        if let Some(t) = &mut self.tsb {
            t.ckpt_load(r)?;
        }
        self.nested.ckpt_load(r)?;
        if r.len64()? != self.contexts.len() {
            return Err(CkptError::Mismatch("context count"));
        }
        for ctx in &mut self.contexts {
            let tag = r.u8()?;
            match (tag, &mut *ctx) {
                (0, Translator::Virtualized(space)) => space.ckpt_load(r)?,
                (1, Translator::Native(walker)) => walker.ckpt_load(r)?,
                _ => return Err(CkptError::Mismatch("context translator kind")),
            }
        }
        self.host_alloc.ckpt_load(r)?;
        self.ddr.ckpt_load(r)?;
        self.stacked.ckpt_load(r)?;
        self.crit_l2.ckpt_load(r)?;
        self.crit_l3.ckpt_load(r)?;
        self.accesses = r.u64()?;
        self.crit_samples = r.u64()?;
        self.translation_cycles = r.u64()?;
        self.data_cycles = r.u64()?;
        self.page_walks = r.u64()?;
        self.page_walk_cycles = r.u64()?;
        self.walk_scratch.clear();
        self.trace = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csalt_types::PageSize;

    fn access_at(addr: u64) -> MemAccess {
        MemAccess::read(VirtAddr::new(addr), 4)
    }

    fn hier(scheme: TranslationScheme, virtualized: bool) -> MemoryHierarchy {
        let mut cfg = SystemConfig::skylake();
        cfg.epoch_accesses = 10_000;
        MemoryHierarchy::new(&cfg, scheme, virtualized, HugePagePolicy::NONE, 1)
    }

    #[test]
    fn bad_profiler_interval_is_a_config_error() {
        let cfg = SystemConfig::skylake();
        let sets = cfg.l2.sets().min(cfg.l3.sets());
        for interval in [0, sets + 1, u64::MAX] {
            let Err(err) = MemoryHierarchy::try_new(
                &cfg,
                TranslationScheme::CsaltCd,
                true,
                HugePagePolicy::NONE,
                interval,
            ) else {
                panic!("interval {interval} accepted");
            };
            assert!(err.message().contains("profiler_interval"), "{err}");
        }
        for interval in [1, sets] {
            assert!(MemoryHierarchy::try_new(
                &cfg,
                TranslationScheme::Conventional,
                false,
                HugePagePolicy::NONE,
                interval,
            )
            .is_ok());
        }
    }

    /// Geometries that pass the arithmetic checks but that the TLBs,
    /// caches or BT-PLRU cannot build: each must be a typed error.
    #[test]
    fn unbuildable_geometries_are_config_errors() {
        let sky = SystemConfig::skylake();
        let l2_tlb_sets_not_pow2 = SystemConfig {
            l2_tlb: csalt_types::TlbGeometry {
                entries: 1536,
                ways: 8,
                ..sky.l2_tlb
            },
            ..sky.clone()
        };
        let l2_tlb_128_ways = SystemConfig {
            l2_tlb: csalt_types::TlbGeometry {
                entries: 2048,
                ways: 128,
                ..sky.l2_tlb
            },
            ..sky.clone()
        };
        let l3_128_ways = SystemConfig {
            l3: csalt_types::CacheGeometry {
                size_bytes: 8 << 20,
                ways: 128,
                ..sky.l3
            },
            ..sky.clone()
        };
        let l3_12_way_bt_plru = SystemConfig {
            l3: csalt_types::CacheGeometry {
                size_bytes: 8192 * 12 * 64,
                ways: 12,
                ..sky.l3
            },
            replacement: csalt_types::ReplacementKind::BtPlru,
            ..sky.clone()
        };
        for (name, cfg, code) in [
            ("l2 tlb 192 sets", l2_tlb_sets_not_pow2, "CSALT-A017"),
            ("l2 tlb 128 ways", l2_tlb_128_ways, "CSALT-A016"),
            ("l3 128 ways", l3_128_ways, "CSALT-A016"),
            ("l3 12-way bt-plru", l3_12_way_bt_plru, "CSALT-A018"),
        ] {
            let built = std::panic::catch_unwind(|| {
                MemoryHierarchy::try_new(
                    &cfg,
                    TranslationScheme::CsaltCd,
                    true,
                    HugePagePolicy::NONE,
                    1,
                )
                .map(|_| ())
            });
            let Ok(Err(err)) = built else {
                panic!("{name}: expected a config error");
            };
            assert!(err.message().contains(code), "{name}: {err}");
        }
    }

    #[test]
    fn first_touch_walks_then_l1_tlb_hits() {
        let mut h = hier(TranslationScheme::Conventional, true);
        let ctx = h.add_context();
        let core = CoreId::new(0);
        let first = h.access(core, ctx, access_at(0x1000));
        assert!(first.walked);
        assert!(!first.l1_tlb_hit);
        assert!(first.translation_cycles > 17, "walk adds cycles");
        let second = h.access(core, ctx, access_at(0x1040));
        assert!(second.l1_tlb_hit);
        assert_eq!(second.translation_cycles, 0, "L1 TLB hit is overlapped");
        assert!(!second.walked);
    }

    #[test]
    fn repeated_line_hits_l1_cache() {
        let mut h = hier(TranslationScheme::Conventional, true);
        let ctx = h.add_context();
        let core = CoreId::new(0);
        h.access(core, ctx, access_at(0x2000));
        let c = h.access(core, ctx, access_at(0x2000));
        assert_eq!(c.data_cycles, h.config().l1d.latency);
    }

    #[test]
    fn pom_serves_translations_without_walks_after_first_touch() {
        let mut h = hier(TranslationScheme::PomTlb, true);
        let ctx = h.add_context();
        let core = CoreId::new(0);
        // Touch 4000 distinct pages: far beyond the 1536-entry L2 TLB.
        for i in 0..4000u64 {
            h.access(core, ctx, access_at(0x10_0000 + i * 4096));
        }
        let walks_after_first_pass = h.snapshot().page_walks;
        assert_eq!(walks_after_first_pass, 4000, "one walk per new page");
        // Second pass: L2 TLB thrashes but the POM-TLB holds everything.
        for i in 0..4000u64 {
            h.access(core, ctx, access_at(0x10_0000 + i * 4096));
        }
        let snap = h.snapshot();
        assert_eq!(snap.page_walks, 4000, "no additional walks");
        assert!(snap.l2_tlb.misses > 4000, "L2 TLB thrashed");
        assert!(snap.walk_elimination() > 0.4);
        assert!(snap.pom.expect("pom present").hits > 0);
    }

    #[test]
    fn conventional_walks_on_every_l2_tlb_miss() {
        let mut h = hier(TranslationScheme::Conventional, true);
        let ctx = h.add_context();
        let core = CoreId::new(0);
        for i in 0..4000u64 {
            h.access(core, ctx, access_at(0x10_0000 + i * 4096));
        }
        for i in 0..4000u64 {
            h.access(core, ctx, access_at(0x10_0000 + i * 4096));
        }
        let snap = h.snapshot();
        assert_eq!(snap.page_walks, snap.l2_tlb.misses, "every miss walks");
        assert!(snap.page_walks > 4000);
    }

    #[test]
    fn pom_translation_traffic_occupies_caches() {
        let mut h = hier(TranslationScheme::PomTlb, true);
        let ctx = h.add_context();
        let core = CoreId::new(0);
        for i in 0..20_000u64 {
            h.access(core, ctx, access_at(0x10_0000 + (i * 4096) % (8 << 30)));
        }
        let (l2, l3) = h.occupancy();
        assert!(
            l2.tlb_fraction() > 0.1,
            "L2 TLB fraction {}",
            l2.tlb_fraction()
        );
        assert!(
            l3.tlb_fraction() > 0.1,
            "L3 TLB fraction {}",
            l3.tlb_fraction()
        );
    }

    #[test]
    fn csalt_partitions_both_levels() {
        let mut cfg = SystemConfig::skylake();
        cfg.epoch_accesses = 2000;
        let mut h = MemoryHierarchy::new(
            &cfg,
            TranslationScheme::CsaltD,
            true,
            HugePagePolicy::NONE,
            1,
        );
        h.enable_partition_trace();
        let ctx = h.add_context();
        let core = CoreId::new(0);
        for i in 0..30_000u64 {
            h.access(core, ctx, access_at(0x10_0000 + (i * 4096) % (1 << 28)));
        }
        let (l2_trace, l3_trace) = h.partition_traces();
        assert!(!l3_trace.is_empty(), "L3 must have repartitioned");
        assert!(!l2_trace.is_empty(), "core 0's L2 must have repartitioned");
    }

    #[test]
    fn tsb_scheme_translates_and_reuses_buffer() {
        let mut h = hier(TranslationScheme::Tsb, true);
        let ctx = h.add_context();
        let core = CoreId::new(0);
        for i in 0..3000u64 {
            h.access(core, ctx, access_at(0x10_0000 + i * 4096));
        }
        for i in 0..3000u64 {
            h.access(core, ctx, access_at(0x10_0000 + i * 4096));
        }
        let snap = h.snapshot();
        let tsb = snap.tsb.expect("tsb present");
        assert!(tsb.hits > 0, "TSB must serve reuse");
        assert!(snap.page_walks < snap.l2_tlb.misses, "TSB eliminates walks");
    }

    #[test]
    fn native_walks_are_cheaper_than_virtualized() {
        let run = |virtualized: bool| {
            let mut h = hier(TranslationScheme::Conventional, virtualized);
            let ctx = h.add_context();
            let core = CoreId::new(0);
            for i in 0..2000u64 {
                h.access(core, ctx, access_at(0x10_0000 + i * 4096 * 17));
            }
            h.snapshot().walk_cycles_per_walk()
        };
        let native = run(false);
        let virt = run(true);
        // Table 1's measured ratios are modest for PSC-friendly strides
        // (gups 43→70, canneal 53→61); require the same direction here.
        assert!(
            virt > native * 1.15,
            "virtualized {virt:.0} vs native {native:.0}"
        );
    }

    #[test]
    fn contexts_have_disjoint_translations() {
        let mut h = hier(TranslationScheme::PomTlb, true);
        let a = h.add_context();
        let b = h.add_context();
        let core = CoreId::new(0);
        h.access(core, a, access_at(0x5000));
        h.access(core, b, access_at(0x5000));
        let snap = h.snapshot();
        assert_eq!(snap.page_walks, 2, "same VA in two VMs walks twice");
    }

    #[test]
    fn multi_core_accesses_share_the_l3() {
        let mut h = hier(TranslationScheme::PomTlb, true);
        let ctx = h.add_context();
        h.access(CoreId::new(0), ctx, access_at(0x9000));
        // Another core touching the same line: misses its private L2 but
        // hits the shared L3.
        let before = h.snapshot().l3.total();
        h.access(CoreId::new(3), ctx, access_at(0x9000));
        let after = h.snapshot().l3.total();
        assert!(after.hits > before.hits, "L3 is shared");
    }

    #[test]
    fn huge_pages_install_into_the_2m_l1_tlb() {
        let mut cfg = SystemConfig::skylake();
        cfg.epoch_accesses = 10_000;
        let mut h = MemoryHierarchy::new(
            &cfg,
            TranslationScheme::PomTlb,
            true,
            HugePagePolicy { fraction_2m: 1.0 },
            1,
        );
        let ctx = h.add_context();
        let core = CoreId::new(0);
        let first = h.access(core, ctx, access_at(0x40_0000));
        assert!(first.walked);
        // Address 1 MiB away: same 2 MiB page → L1 2M TLB hit.
        let near = h.access(core, ctx, access_at(0x40_0000 + (1 << 20)));
        assert!(near.l1_tlb_hit);
    }

    #[test]
    fn snapshot_serializes() {
        let mut h = hier(TranslationScheme::CsaltCd, true);
        let ctx = h.add_context();
        h.access(CoreId::new(0), ctx, access_at(0x1000));
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).expect("serializable");
        assert!(json.contains("page_walks"));
    }

    #[test]
    fn traced_stage_cycles_sum_to_charge_for_every_scheme() {
        for scheme in [
            TranslationScheme::Conventional,
            TranslationScheme::PomTlb,
            TranslationScheme::CsaltCd,
            TranslationScheme::Tsb,
        ] {
            let mut h = hier(scheme, true);
            let ctx = h.add_context();
            for i in 0..64u64 {
                let (charge, stages) =
                    h.access_traced(CoreId::new(0), ctx, access_at(0x1000 + i * 0x1800));
                let stage_sum: u64 = stages.iter().map(|s| s.cycles).sum();
                assert_eq!(
                    stage_sum,
                    charge.translation_cycles + charge.data_cycles,
                    "scheme {scheme:?}: stage cycles must partition the charge"
                );
                assert!(
                    stages.iter().any(|s| s.stage == WalkStage::Data),
                    "every trace records the data stage"
                );
                if charge.walked {
                    assert!(
                        stages
                            .iter()
                            .any(|s| matches!(s.stage, WalkStage::GuestPte | WalkStage::HostPte)),
                        "walked accesses record PTE stages"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_walk_tags_both_dimensions_when_virtualized() {
        let mut h = hier(TranslationScheme::Conventional, true);
        let ctx = h.add_context();
        let (charge, stages) = h.access_traced(CoreId::new(0), ctx, access_at(0x5a5a_0000));
        assert!(charge.walked);
        let guests = stages
            .iter()
            .filter(|s| s.stage == WalkStage::GuestPte)
            .count();
        let hosts = stages
            .iter()
            .filter(|s| s.stage == WalkStage::HostPte)
            .count();
        assert_eq!(guests, 4, "cold 2D walk reads 4 guest PTEs");
        // Five embedded host walks (for gL4..gL1 and the final gPA); the
        // host PSC collapses all but the first to a single terminal read.
        assert!(
            (5..=20).contains(&hosts),
            "2D walk embeds 5 host walks (PSC-compressed): {hosts}"
        );
    }

    #[test]
    fn untraced_access_records_no_stages() {
        let mut h = hier(TranslationScheme::PomTlb, false);
        let ctx = h.add_context();
        h.access(CoreId::new(0), ctx, access_at(0x1000));
        let (_, stages) = h.access_traced(CoreId::new(0), ctx, access_at(0x2000));
        assert!(!stages.is_empty());
        // Tracing is one-shot: the next plain access leaves no residue.
        h.access(CoreId::new(0), ctx, access_at(0x3000));
        let (_, stages2) = h.access_traced(CoreId::new(0), ctx, access_at(0x4000));
        assert!(stages2.iter().all(|s| s.cycles < u64::MAX));
    }

    #[test]
    fn snapshot_delta_since_sums_back_to_total() {
        let mut h = hier(TranslationScheme::CsaltCd, true);
        let ctx = h.add_context();
        for i in 0..128u64 {
            h.access(CoreId::new(0), ctx, access_at(0x1000 + i * 0x940));
        }
        let mid = h.snapshot();
        for i in 0..128u64 {
            h.access(CoreId::new(0), ctx, access_at(0x90_0000 + i * 0x940));
        }
        let end = h.snapshot();
        let delta = end.delta_since(&mid);
        assert_eq!(delta.accesses, 128);
        assert_eq!(
            mid.translation_cycles + delta.translation_cycles,
            end.translation_cycles
        );
        assert_eq!(mid.data_cycles + delta.data_cycles, end.data_cycles);
        assert_eq!(mid.page_walks + delta.page_walks, end.page_walks);
        assert_eq!(
            mid.l2_tlb.accesses() + delta.l2_tlb.accesses(),
            end.l2_tlb.accesses()
        );
        assert_eq!(mid.ddr.accesses + delta.ddr.accesses, end.ddr.accesses);
    }

    #[test]
    fn utilization_gauges_are_bounded() {
        let mut h = hier(TranslationScheme::CsaltCd, false);
        let ctx = h.add_context();
        for i in 0..256u64 {
            h.access(CoreId::new(0), ctx, access_at(0x4000 + i * 0x1000));
        }
        let u = h.l2_tlb_utilization();
        assert!(u > 0.0 && u <= 1.0, "L2 TLB utilization in (0, 1]: {u}");
        let p = h.pom_utilization().expect("CSALT-CD has a POM-TLB");
        assert!((0.0..=1.0).contains(&p), "POM utilization in [0, 1]: {p}");
        let (g2, g3) = h.criticality_gauges();
        assert!(g2.s_tr >= g2.s_dat && g3.s_tr >= g3.s_dat);
    }

    #[test]
    fn page_size_of_installed_entry_matches_policy() {
        let mut h = hier(TranslationScheme::PomTlb, true);
        let ctx = h.add_context();
        let charge = h.access(CoreId::new(0), ctx, access_at(0x1234_5678));
        assert!(charge.walked);
        // 4K policy: second access in the same 4K page hits L1 TLB...
        let same_page = h.access(CoreId::new(0), ctx, access_at(0x1234_5000));
        assert!(same_page.l1_tlb_hit);
        // ...but the neighbouring 4K page misses the L1 TLBs.
        let next_page = h.access(CoreId::new(0), ctx, access_at(0x1234_7000));
        assert!(!next_page.l1_tlb_hit);
        let _ = PageSize::Size4K;
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;

    fn access_at(addr: u64) -> MemAccess {
        MemAccess::read(VirtAddr::new(addr), 4)
    }

    #[test]
    fn tsb_csalt_partitions_and_uses_the_tsb() {
        let mut cfg = SystemConfig::skylake();
        cfg.epoch_accesses = 2_000;
        let mut h = MemoryHierarchy::new(
            &cfg,
            TranslationScheme::TsbCsalt,
            true,
            HugePagePolicy::NONE,
            1,
        );
        let ctx = h.add_context();
        let core = CoreId::new(0);
        for i in 0..20_000u64 {
            h.access(core, ctx, access_at(0x10_0000 + (i * 4096) % (1 << 28)));
        }
        let snap = h.snapshot();
        assert!(snap.tsb.expect("tsb present").accesses() > 0);
        assert!(snap.pom.is_none(), "no POM-TLB in a TSB scheme");
        let (l2, l3) = h.current_partitions();
        assert!(l2.is_some() && l3.is_some(), "caches must be partitioned");
    }

    #[test]
    fn decision_info_exposes_curves_when_tracing() {
        let mut cfg = SystemConfig::skylake();
        cfg.epoch_accesses = 2_000;
        let mut h = MemoryHierarchy::new(
            &cfg,
            TranslationScheme::CsaltD,
            true,
            HugePagePolicy::NONE,
            1,
        );
        h.enable_partition_trace();
        let ctx = h.add_context();
        let core = CoreId::new(0);
        for i in 0..30_000u64 {
            h.access(core, ctx, access_at(0x10_0000 + (i * 4096) % (1 << 28)));
        }
        let (l3_n, l3_dec, l3_curve) = h.l3_decision_info();
        assert!(l3_n > 0, "L3 must have decided at least once");
        let dec = l3_dec.expect("decision recorded");
        assert_eq!(dec.data_ways + dec.tlb_ways, cfg.l3.ways);
        assert_eq!(
            l3_curve.len() as u32,
            cfg.l3.ways - 1,
            "full feasible-split curve recorded under tracing"
        );
        let (l2_n, l2_dec, _) = h.l2_decision_info();
        assert!(l2_n > 0 && l2_dec.is_some());
    }

    #[test]
    fn decision_curve_is_empty_without_tracing() {
        let mut cfg = SystemConfig::skylake();
        cfg.epoch_accesses = 2_000;
        let mut h = MemoryHierarchy::new(
            &cfg,
            TranslationScheme::CsaltD,
            true,
            HugePagePolicy::NONE,
            1,
        );
        let ctx = h.add_context();
        for i in 0..10_000u64 {
            h.access(
                CoreId::new(0),
                ctx,
                access_at(0x10_0000 + (i * 4096) % (1 << 28)),
            );
        }
        let (n, dec, curve) = h.l3_decision_info();
        assert!(n > 0 && dec.is_some(), "decisions tracked regardless");
        assert!(curve.is_empty(), "curve only recomputed under tracing");
    }

    #[test]
    fn drrip_scheme_runs_with_rrip_storage() {
        let mut cfg = SystemConfig::skylake();
        cfg.epoch_accesses = 5_000;
        let mut h = MemoryHierarchy::new(
            &cfg,
            TranslationScheme::Drrip,
            true,
            HugePagePolicy::NONE,
            4,
        );
        let ctx = h.add_context();
        for i in 0..10_000u64 {
            h.access(
                CoreId::new(0),
                ctx,
                access_at(0x10_0000 + (i * 4096) % (1 << 27)),
            );
        }
        let snap = h.snapshot();
        assert!(snap.pom.expect("POM present").accesses() > 0);
        assert!(h.current_partitions().1.is_none(), "DRRIP never partitions");
        assert_eq!(snap.accesses, 10_000);
    }

    #[test]
    fn five_level_hierarchy_walks_cost_more() {
        let run_levels = |levels: u8| {
            let mut cfg = SystemConfig::skylake();
            cfg.pt_levels = levels;
            // Disable the PSC so the depth difference is fully visible.
            cfg.psc.pml4_entries = 0;
            cfg.psc.pdp_entries = 0;
            cfg.psc.pde_entries = 0;
            let mut h = MemoryHierarchy::new(
                &cfg,
                TranslationScheme::Conventional,
                true,
                HugePagePolicy::NONE,
                1,
            );
            let ctx = h.add_context();
            for i in 0..1500u64 {
                h.access(CoreId::new(0), ctx, access_at(0x10_0000 + i * 4096 * 33));
            }
            h.snapshot().walk_cycles_per_walk()
        };
        let four = run_levels(4);
        let five = run_levels(5);
        assert!(
            five > four * 1.1,
            "5-level walks {five:.0} should cost more than 4-level {four:.0}"
        );
    }
}
