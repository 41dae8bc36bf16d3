//! Cross-crate property-based tests (proptest) on the invariants the
//! simulator's correctness rests on.

use csalt::cache::{way_range_mask, Cache, Policy};
use csalt::profiler::{choose_partition, StackDistanceProfiler, Weights};
use csalt::ptw::{FrameAllocator, HugePagePolicy, NativeWalker, RadixPageTable};
use csalt::tlb::{PomTlb, SramTlb};
use csalt::types::{
    Asid, EntryKind, LineAddr, PageSize, PhysFrame, PomTlbConfig, ReplacementKind, SystemConfig,
    TlbGeometry, VirtAddr, VirtPage,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

proptest! {
    /// A cache never holds the same tag twice in one set, and a probe
    /// after an access always hits.
    #[test]
    fn cache_no_duplicate_lines(accesses in prop::collection::vec((0u64..4096, any::<bool>()), 1..400)) {
        let mut cache = Cache::new(64, 4, ReplacementKind::TrueLru);
        let mut last = None;
        for (line, write) in accesses {
            let addr = LineAddr::from_line_number(line);
            cache.access(addr, EntryKind::Data, write);
            last = Some(addr);
        }
        prop_assert!(cache.probe(last.expect("nonempty")));
        // Re-access everything: a hit implies single residency; the
        // stats stay consistent.
        let s = *cache.stats();
        prop_assert_eq!(s.total().accesses(), s.data.accesses() + s.tlb.accesses());
    }

    /// Partitioned fills never evict the other kind's lines.
    #[test]
    fn partition_never_crosses_kinds(
        data_ways in 1u32..4,
        ops in prop::collection::vec((0u64..2048, any::<bool>()), 1..500),
    ) {
        let mut cache = Cache::new(16, 4, ReplacementKind::TrueLru);
        cache.set_partition(data_ways);
        for (line, is_tlb) in ops {
            let kind = if is_tlb { EntryKind::Tlb } else { EntryKind::Data };
            let out = cache.access(LineAddr::from_line_number(line), kind, false);
            if let Some(ev) = out.evicted {
                prop_assert_eq!(ev.kind, kind, "eviction crossed the partition");
            }
        }
    }

    /// Replacement victim always comes from the allowed mask, for every
    /// policy.
    #[test]
    fn victims_respect_masks(
        touches in prop::collection::vec(0u32..8, 0..50),
        lo in 0u32..7,
        len in 1u32..8,
    ) {
        let hi = (lo + len).min(8);
        for kind in [
            ReplacementKind::TrueLru,
            ReplacementKind::Nru,
            ReplacementKind::BtPlru,
            ReplacementKind::Rrip,
        ] {
            let policy = Policy::new(kind, 8);
            let mut state = policy.initial_state();
            for &t in &touches {
                policy.touch(&mut state, t);
            }
            let mask = way_range_mask(lo, hi);
            let v = policy.victim(&mut state, mask);
            prop_assert!(mask & (1u64 << v) != 0, "{kind:?}: victim {v} outside {lo}..{hi}");
        }
    }

    /// MSA profiler counters always sum to the number of recorded
    /// accesses, and predicted hits grow monotonically with ways.
    #[test]
    fn msa_counters_are_conservative(
        ops in prop::collection::vec((0u64..32, 0u64..64, any::<bool>()), 1..500),
    ) {
        let mut p = StackDistanceProfiler::new(32, 8, 1);
        for &(set, tag, is_tlb) in &ops {
            let kind = if is_tlb { EntryKind::Tlb } else { EntryKind::Data };
            p.record(set, tag, kind);
        }
        prop_assert_eq!(p.accesses(), ops.len() as u64);
        for kind in [EntryKind::Data, EntryKind::Tlb] {
            let c = p.counts(kind);
            let mut prev = 0;
            for n in 0..=8 {
                let h = c.hits_with_ways(n);
                prop_assert!(h >= prev, "prediction must be monotone");
                prev = h;
            }
            prop_assert!(c.hits_with_ways(8) + c.misses() == c.accesses());
        }
    }

    /// The chosen partition always maximizes weighted marginal utility
    /// over the feasible range.
    #[test]
    fn partition_choice_is_argmax(
        data in prop::collection::vec(0u64..1000, 9..=9),
        tlb in prop::collection::vec(0u64..1000, 9..=9),
        s_dat in 1.0f64..8.0,
        s_tr in 1.0f64..8.0,
    ) {
        use csalt::profiler::{weighted_marginal_utility, LruStackCounts};
        let d = LruStackCounts::new(data);
        let t = LruStackCounts::new(tlb);
        let w = Weights::new(s_dat, s_tr);
        let dec = choose_partition(&d, &t, 1, w);
        for n in 1..=7 {
            let mu = weighted_marginal_utility(&d, &t, n, w);
            prop_assert!(dec.utility >= mu, "n={n} beats the chosen split");
        }
    }

    /// Page-table translations round-trip: the same VA always yields the
    /// same frame, distinct pages yield distinct frames, and offsets are
    /// preserved.
    #[test]
    fn page_table_translations_are_stable(vas in prop::collection::vec(0u64..(1u64 << 40), 1..60)) {
        let mut alloc = FrameAllocator::new(0, 4 << 30);
        let mut pt = RadixPageTable::new(&mut alloc, HugePagePolicy::NONE);
        let mut by_page: HashMap<u64, u64> = HashMap::new();
        for raw in vas {
            let va = VirtAddr::new(raw);
            let w1 = pt.walk_or_map(va, &mut alloc);
            let w2 = pt.walk_or_map(va, &mut alloc);
            prop_assert_eq!(w1.frame, w2.frame);
            let pa = w1.frame.translate(va);
            prop_assert_eq!(pa.page_offset(PageSize::Size4K), va.page_offset(PageSize::Size4K));
            let vpn = raw >> 12;
            let pfn = w1.frame.pfn();
            if let Some(prev) = by_page.insert(vpn, pfn) {
                prop_assert_eq!(prev, pfn, "remap changed the frame");
            }
        }
        // Distinct pages map to distinct frames.
        let frames: HashSet<u64> = by_page.values().copied().collect();
        prop_assert_eq!(frames.len(), by_page.len());
    }

    /// Native page walks read at most 4 PTEs and at least 1.
    #[test]
    fn native_walk_access_counts(vas in prop::collection::vec(0u64..(1u64 << 39), 1..50)) {
        let mut alloc = FrameAllocator::new(0, 4 << 30);
        let mut w = NativeWalker::new(
            Asid::new(0),
            &mut alloc,
            HugePagePolicy::NONE,
            SystemConfig::skylake().psc,
        );
        for raw in vas {
            let out = w.walk(VirtAddr::new(raw), &mut alloc);
            prop_assert!((1..=4).contains(&out.accesses.len()));
        }
    }

    /// The POM-TLB always reports lines inside its aperture and recalls
    /// exactly what was inserted while capacity allows.
    #[test]
    fn pom_tlb_recalls_inserts(vpns in prop::collection::vec(0u64..100_000, 1..100)) {
        let cfg = PomTlbConfig {
            size_bytes: 4 << 20,
            ways: 4,
            entry_bytes: 16,
            base: 0x7e00_0000_0000,
        };
        let mut pom = PomTlb::new(cfg);
        let asid = Asid::new(3);
        let mut expected = HashMap::new();
        for (i, &vpn) in vpns.iter().enumerate() {
            let page = VirtPage::from_vpn(vpn, PageSize::Size4K);
            let frame = PhysFrame::from_pfn(i as u64 + 1, PageSize::Size4K);
            pom.insert(page, asid, frame);
            expected.insert(vpn, frame);
        }
        // With far fewer inserts than capacity (256K entries), every
        // translation must still be present.
        for (&vpn, &frame) in &expected {
            let page = VirtPage::from_vpn(vpn, PageSize::Size4K);
            let r = pom.lookup(page, asid);
            prop_assert_eq!(r.frame, Some(frame));
            prop_assert!(pom.owns(r.line.base()));
        }
    }

    /// SRAM TLB inserts are always immediately visible and ASID-scoped.
    #[test]
    fn sram_tlb_inserts_visible(vpns in prop::collection::vec(0u64..10_000, 1..60)) {
        let mut tlb = SramTlb::new(TlbGeometry { entries: 1536, ways: 12, latency: 17 });
        for &vpn in &vpns {
            let page = VirtPage::from_vpn(vpn, PageSize::Size4K);
            let frame = PhysFrame::from_pfn(vpn + 7, PageSize::Size4K);
            tlb.insert(page, Asid::new(1), frame);
            prop_assert_eq!(tlb.lookup(page, Asid::new(1)), Some(frame));
            prop_assert!(tlb.lookup(page, Asid::new(2)).is_none());
        }
    }

    /// Workload generators are deterministic and keep addresses inside
    /// their declared footprint's VA span.
    #[test]
    fn generators_deterministic_any_seed(seed in any::<u64>()) {
        use csalt::workloads::BenchKind;
        for kind in BenchKind::ALL {
            let mut a = kind.build(seed, 0.1);
            let mut b = kind.build(seed, 0.1);
            for _ in 0..50 {
                prop_assert_eq!(a.next_access(), b.next_access());
            }
        }
    }

    /// Conservation laws (CSALT-A101..A108) hold at the end of randomized
    /// short simulations, for every translation scheme: counters are never
    /// lost or double-counted regardless of seed, scheme, context count or
    /// epoch length.
    #[test]
    fn conservation_laws_hold_across_schemes(
        seed in any::<u64>(),
        scheme_idx in 0usize..9,
        contexts in 1u32..3,
        accesses in 2_000u64..6_000,
    ) {
        use csalt::audit::conservation;
        use csalt::sim::{run_in, SimConfig};
        use csalt::types::TranslationScheme;
        use csalt::workloads::{BenchKind, WorkloadSpec};

        let schemes = [
            TranslationScheme::Conventional,
            TranslationScheme::PomTlb,
            TranslationScheme::CsaltD,
            TranslationScheme::CsaltCd,
            TranslationScheme::Dip,
            TranslationScheme::Tsb,
            TranslationScheme::TsbCsalt,
            TranslationScheme::Drrip,
            TranslationScheme::StaticPartition { data_ways: 8 },
        ];
        let scheme = schemes[scheme_idx];
        let mut cfg = SimConfig::new(
            WorkloadSpec::homogeneous("gups", BenchKind::Gups),
            scheme,
        );
        cfg.system.cores = 1;
        cfg.system.contexts_per_core = contexts;
        cfg.system.cs_interval_cycles = 20_000;
        cfg.system.epoch_accesses = 1_500;
        cfg.seed = seed;
        cfg.scale = 0.05;
        cfg.accesses_per_core = accesses;
        cfg.warmup_accesses_per_core = 1_000;
        let (r, _) = run_in(&cfg, None);

        let diags = conservation::audit_snapshot(&r.workload, &r.snapshot, &scheme);
        prop_assert!(diags.is_empty(), "conservation violated: {diags:?}");
        let ipc_diags = conservation::audit_ipc(&r.workload, r.ipc(), r.instructions);
        prop_assert!(ipc_diags.is_empty(), "IPC not usable: {ipc_diags:?}");
        prop_assert_eq!(r.snapshot.accesses, accesses);
    }
}

proptest! {
    /// Per-epoch snapshot deltas recompose exactly to the final totals:
    /// for an arbitrary access stream cut into arbitrary epochs, summing
    /// `delta_since` over consecutive checkpoint pairs gives the same
    /// counters as the whole run (the invariant the telemetry stream's
    /// `EpochRecord`s rely on).
    #[test]
    fn snapshot_epoch_deltas_recompose(
        scheme_idx in 0usize..4,
        addrs in prop::collection::vec(0u64..(1u64 << 30), 32..300),
        cuts in prop::collection::vec(any::<bool>(), 32..300),
    ) {
        use csalt::core::MemoryHierarchy;
        use csalt::types::{CoreId, MemAccess, SystemConfig, TranslationScheme, VirtAddr};

        let schemes = [
            TranslationScheme::Conventional,
            TranslationScheme::PomTlb,
            TranslationScheme::CsaltCd,
            TranslationScheme::Tsb,
        ];
        let mut h = MemoryHierarchy::new(
            &SystemConfig::skylake(),
            schemes[scheme_idx],
            true,
            HugePagePolicy::NONE,
            1,
        );
        let ctx = h.add_context();
        let core = CoreId::new(0);
        let mut checkpoints = vec![h.snapshot()];
        for (i, addr) in addrs.iter().enumerate() {
            h.access(core, ctx, MemAccess::read(VirtAddr::new(addr & !0x3f), 4));
            if cuts.get(i).copied().unwrap_or(false) {
                checkpoints.push(h.snapshot());
            }
        }
        let end = h.snapshot();
        checkpoints.push(end.clone());

        let mut acc = 0u64;
        let mut xl = 0u64;
        let mut data = 0u64;
        let mut walks = 0u64;
        let mut l2t = 0u64;
        let mut ddr = 0u64;
        let mut stacked = 0u64;
        for pair in checkpoints.windows(2) {
            let d = pair[1].delta_since(&pair[0]);
            acc += d.accesses;
            xl += d.translation_cycles;
            data += d.data_cycles;
            walks += d.page_walks;
            l2t += d.l2_tlb.accesses();
            ddr += d.ddr.accesses;
            stacked += d.stacked.accesses;
        }
        prop_assert_eq!(acc, end.accesses);
        prop_assert_eq!(acc, addrs.len() as u64);
        prop_assert_eq!(xl, end.translation_cycles);
        prop_assert_eq!(data, end.data_cycles);
        prop_assert_eq!(walks, end.page_walks);
        prop_assert_eq!(l2t, end.l2_tlb.accesses());
        prop_assert_eq!(ddr, end.ddr.accesses);
        prop_assert_eq!(stacked, end.stacked.accesses);
    }

    /// Every scheme's CLI label parses back to the same scheme.
    #[test]
    fn scheme_labels_round_trip(data_ways in 1u32..16) {
        use csalt::types::TranslationScheme;
        let schemes = [
            TranslationScheme::Conventional,
            TranslationScheme::PomTlb,
            TranslationScheme::CsaltD,
            TranslationScheme::CsaltCd,
            TranslationScheme::Dip,
            TranslationScheme::Tsb,
            TranslationScheme::TsbCsalt,
            TranslationScheme::Drrip,
            TranslationScheme::StaticPartition { data_ways },
        ];
        for s in schemes {
            prop_assert_eq!(TranslationScheme::parse_label(&s.label()), Some(s));
        }
        prop_assert_eq!(TranslationScheme::parse_label("bogus"), None);
        prop_assert_eq!(TranslationScheme::parse_label("static-x"), None);
    }

    /// The sweep engine's content address of a `SimConfig` is invariant
    /// under serde round-trips: serializing a config to JSON and
    /// parsing it back may not change its canonical form or hash, for
    /// arbitrary field values (including floats, which must round-trip
    /// exactly through the shortest-form formatter). A persisted cache
    /// entry therefore always re-addresses to the key it was stored
    /// under.
    #[test]
    fn sweep_config_key_survives_serde_round_trip(
        accesses in 1_000u64..2_000_000,
        warmup in 0u64..2_000_000,
        cores in 1u32..9,
        contexts in 1u32..5,
        seed in 0u64..u64::MAX,
        scheme_idx in 0usize..9,
        data_ways in 1u32..16,
        scale_milli in 10u64..3_000,
        huge_milli in 0u64..1_001,
        virtualized in any::<bool>(),
    ) {
        use csalt::sim::sweep::{canonical_json, config_key};
        use csalt::sim::SimConfig;
        use csalt::types::TranslationScheme;
        use csalt::workloads::{BenchKind, WorkloadSpec};

        let schemes = [
            TranslationScheme::Conventional,
            TranslationScheme::PomTlb,
            TranslationScheme::CsaltD,
            TranslationScheme::CsaltCd,
            TranslationScheme::Dip,
            TranslationScheme::Tsb,
            TranslationScheme::TsbCsalt,
            TranslationScheme::Drrip,
            TranslationScheme::StaticPartition { data_ways },
        ];
        let mut cfg = SimConfig::new(
            WorkloadSpec::pair("g500_gups", BenchKind::Graph500, BenchKind::Gups),
            schemes[scheme_idx],
        );
        cfg.accesses_per_core = accesses;
        cfg.warmup_accesses_per_core = warmup;
        cfg.system.cores = cores;
        cfg.system.contexts_per_core = contexts;
        cfg.seed = seed;
        cfg.scale = scale_milli as f64 / 999.0;
        cfg.huge_fraction = huge_milli as f64 / 1000.0;
        cfg.virtualized = virtualized;

        let text = serde_json::to_string(&cfg).expect("config serializes");
        let back: SimConfig = serde_json::from_str(&text).expect("config parses");
        prop_assert_eq!(&back, &cfg, "serde round-trip is lossless");
        prop_assert_eq!(canonical_json(&back), canonical_json(&cfg));
        prop_assert_eq!(config_key(&back), config_key(&cfg));

        // And the address separates configs: flipping the seed moves
        // the canonical form.
        let mut other = cfg.clone();
        other.seed = seed.wrapping_add(1);
        prop_assert!(canonical_json(&other) != canonical_json(&cfg));
    }
}
