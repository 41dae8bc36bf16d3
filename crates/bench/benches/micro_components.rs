//! Criterion microbenchmarks for the simulator's hot components: cache
//! access, stack-distance profiling, TLB lookup, nested page walks,
//! access generation (generator step plus key packing) and DRAM timing.
//! These measure the *simulator's* performance (so the experiment
//! harness's runtime stays predictable), not the modelled machine's.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use csalt_cache::Cache;
use csalt_dram::DramModel;
use csalt_profiler::StackDistanceProfiler;
use csalt_ptw::{FrameAllocator, GuestAddressSpace, HugePagePolicy, NestedWalker, RadixPageTable};
use csalt_tlb::{SramTlb, Tsb};
use csalt_types::{
    Asid, DramTimings, EntryKind, LineAddr, PageSize, PhysAddr, PhysFrame, ReplacementKind,
    SystemConfig, TranslationHint, VirtAddr, VirtPage,
};

fn bench_cache_access(c: &mut Criterion) {
    let mut cache = Cache::from_geometry(&SystemConfig::skylake().l3, ReplacementKind::TrueLru);
    let mut i = 0u64;
    c.bench_function("l3_cache_access", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            let line = LineAddr::from_line_number(i % 300_000);
            black_box(cache.access(line, EntryKind::Data, i.is_multiple_of(7)))
        });
    });
}

fn bench_partitioned_cache_access(c: &mut Criterion) {
    let mut cache = Cache::from_geometry(&SystemConfig::skylake().l3, ReplacementKind::TrueLru);
    cache.set_partition(10);
    let mut i = 0u64;
    c.bench_function("l3_cache_access_partitioned", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            let line = LineAddr::from_line_number(i % 300_000);
            let kind = if i.is_multiple_of(3) {
                EntryKind::Tlb
            } else {
                EntryKind::Data
            };
            black_box(cache.access(line, kind, false))
        });
    });
}

fn bench_profiler_record(c: &mut Criterion) {
    let mut prof = StackDistanceProfiler::new(8192, 16, 4);
    let mut i = 0u64;
    c.bench_function("stack_distance_record", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            black_box(prof.record(i % 8192, i % 64, EntryKind::Data))
        });
    });
}

fn bench_l2_tlb_lookup(c: &mut Criterion) {
    let mut tlb = SramTlb::new(SystemConfig::skylake().l2_tlb);
    let asid = Asid::new(1);
    for vpn in 0..1536 {
        tlb.insert(
            VirtPage::from_vpn(vpn, PageSize::Size4K),
            asid,
            PhysFrame::from_pfn(vpn, PageSize::Size4K),
        );
    }
    let mut i = 0u64;
    c.bench_function("l2_tlb_lookup", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(tlb.lookup(VirtPage::from_vpn(i % 2048, PageSize::Size4K), asid))
        });
    });
}

fn bench_radix_walk(c: &mut Criterion) {
    // Read-only walks over the arena-backed radix table: the per-PTE cost
    // of every simulated page walk, without PSC or nested-dimension
    // effects.
    let mut alloc = FrameAllocator::new(0, 16 << 30);
    let mut table = RadixPageTable::new(&mut alloc, HugePagePolicy::NONE);
    for vpn in 0..4096u64 {
        table.walk_or_map(VirtAddr::new(vpn << 12), &mut alloc);
    }
    let mut i = 0u64;
    c.bench_function("radix_table_walk", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            black_box(table.walk(VirtAddr::new((i % 4096) << 12)))
        });
    });
}

fn bench_tsb_lookup(c: &mut Criterion) {
    // Single-hash TSB probe (virtualized mode: guest + host tables).
    let mut tsb = Tsb::new(1 << 16, 0x7d00_0000_0000, true);
    let asid = Asid::new(1);
    for vpn in 0..40_000u64 {
        tsb.insert(
            VirtPage::from_vpn(vpn, PageSize::Size4K),
            asid,
            PhysFrame::from_pfn(vpn, PageSize::Size4K),
        );
    }
    let mut i = 0u64;
    c.bench_function("tsb_lookup", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            black_box(tsb.lookup(VirtPage::from_vpn(i % 65_536, PageSize::Size4K), asid))
        });
    });
}

fn bench_nested_walk(c: &mut Criterion) {
    let mut host = FrameAllocator::new(0, 64 << 30);
    let mut space = GuestAddressSpace::new(
        Asid::new(1),
        1 << 40,
        16 << 30,
        HugePagePolicy::NONE,
        &mut host,
    );
    let mut walker = NestedWalker::new(SystemConfig::skylake().psc);
    let mut i = 0u64;
    c.bench_function("nested_page_walk", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x1000);
            black_box(walker.walk(&mut space, VirtAddr::new(i % (1 << 30)), &mut host))
        });
    });
}

fn bench_generator_batch(c: &mut Criterion) {
    // Per-access generation cost: one generator step plus the
    // translation-hint packing — what the engine pays per access before
    // the hierarchy sees it.
    let mut cfg = csalt_sim::SimConfig::new(
        csalt_workloads::WorkloadSpec::pair(
            "graph500_gups",
            csalt_workloads::BenchKind::Graph500,
            csalt_workloads::BenchKind::Gups,
        ),
        csalt_types::TranslationScheme::CsaltCd,
    );
    cfg.scale = 0.05;
    use csalt_workloads::TraceGenerator as _;
    let mut threads = csalt_sim::build_threads(&cfg);
    let generator = &mut threads[0][0];
    let asid = Asid::new(1);
    c.bench_function("generator_batch", |b| {
        b.iter(|| {
            let acc = generator.next_access();
            black_box((acc, TranslationHint::compute(acc.vaddr, asid)))
        });
    });
}

fn bench_dram_access(c: &mut Criterion) {
    let mut dram = DramModel::new(DramTimings::ddr4_2133(), 4.0);
    let mut i = 0u64;
    c.bench_function("dram_access", |b| {
        b.iter(|| {
            i = i.wrapping_add(0x9e37_79b9);
            black_box(dram.access(PhysAddr::new(i % (1 << 30)), false))
        });
    });
}

criterion_group!(
    benches,
    bench_cache_access,
    bench_partitioned_cache_access,
    bench_profiler_record,
    bench_l2_tlb_lookup,
    bench_radix_walk,
    bench_tsb_lookup,
    bench_nested_walk,
    bench_generator_batch,
    bench_dram_access
);
criterion_main!(benches);
