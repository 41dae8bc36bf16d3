//! The trace-generator interface, benchmark registry and the paper's
//! workload pairings (Table 3 and the Figure 7 x-axis).

use crate::benches::{Canneal, ConnectedComponent, Graph500, Gups, PageRank, StreamCluster};
use crate::trace_file::TraceFile;
use csalt_types::MemAccess;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An infinite, deterministic stream of memory accesses with the
/// page-locality profile of one benchmark.
///
/// Generators are seeded; the same seed yields the same trace, which is
/// what makes every experiment in the harness reproducible.
pub trait TraceGenerator: Send {
    /// Produces the next memory access of the trace.
    fn next_access(&mut self) -> MemAccess;

    /// The benchmark's short name (Figure 1/7 labels).
    fn name(&self) -> &'static str;

    /// Total bytes of the benchmark's data footprint.
    fn footprint_bytes(&self) -> u64;
}

/// A virtual-address region used by a benchmark, addressed by *logical*
/// byte offsets.
///
/// A region may be *spread*: logical pages are placed `spread` pages
/// apart in the virtual address space. This reproduces, at simulation
/// scale, a property of the paper's multi-GB footprints that dense
/// scaled-down regions would hide: when a workload touches hundreds of
/// thousands of pages, consecutive *touched* pages do not share leaf
/// page-table lines (one 64-byte PTE line covers 8 contiguous pages),
/// so the walker's working set grows with the page count instead of
/// being amortized 8:1. Scattered regions use `spread = 9`: large
/// enough that touched pages land on distinct PTE lines, and odd so
/// that touched VPNs cover every set-index residue of the TLBs and
/// caches (a power-of-two stride would alias them into a fraction of
/// the sets). Streamed regions stay dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    size: u64,
    spread: u64,
}

const PAGE: u64 = 4096;

impl Region {
    /// Creates a dense region at `base` spanning `size` logical bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(base: u64, size: u64) -> Self {
        Self::with_spread(base, size, 1)
    }

    /// Creates a region whose logical pages sit `spread` pages apart.
    ///
    /// # Panics
    ///
    /// Panics if `size` or `spread` is zero.
    pub fn with_spread(base: u64, size: u64, spread: u64) -> Self {
        assert!(size > 0, "empty region");
        assert!(spread > 0, "zero spread");
        Self { base, size, spread }
    }

    /// Logical region size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The virtual address `offset` logical bytes into the region
    /// (wraps).
    #[inline]
    pub fn at(&self, offset: u64) -> csalt_types::VirtAddr {
        let offset = offset % self.size;
        let page = offset / PAGE;
        let within = offset % PAGE;
        csalt_types::VirtAddr::new(self.base + page * self.spread * PAGE + within)
    }
}

/// The six benchmarks of the paper's evaluation (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BenchKind {
    /// PARSEC canneal: simulated-annealing netlist swaps — large
    /// footprint, scattered pairs of random touches.
    Canneal,
    /// GraphChi connected component: phased label propagation — the
    /// active-vertex list changes per iteration, producing the phase
    /// behaviour of Figure 9.
    ConnectedComponent,
    /// graph500 BFS: power-law vertex visits with adjacency bursts.
    Graph500,
    /// HPCC GUPS/RandomAccess: uniform random read-modify-writes over a
    /// giant table — the TLB worst case.
    Gups,
    /// PageRank: sequential edge streaming plus power-law rank updates.
    PageRank,
    /// PARSEC streamcluster: point streaming against a small hot centre
    /// set — the TLB-friendly end of the spectrum (Table 1).
    StreamCluster,
}

impl BenchKind {
    /// All benchmarks, in the paper's alphabetical order.
    pub const ALL: [BenchKind; 6] = [
        BenchKind::Canneal,
        BenchKind::ConnectedComponent,
        BenchKind::Graph500,
        BenchKind::Gups,
        BenchKind::PageRank,
        BenchKind::StreamCluster,
    ];

    /// The benchmark's short name.
    pub fn name(&self) -> &'static str {
        match self {
            BenchKind::Canneal => "canneal",
            BenchKind::ConnectedComponent => "ccomp",
            BenchKind::Graph500 => "graph500",
            BenchKind::Gups => "gups",
            BenchKind::PageRank => "pagerank",
            BenchKind::StreamCluster => "streamcluster",
        }
    }

    /// Instantiates the generator behind a trait object. Convenient for
    /// heterogeneous collections; the simulator's per-access loop uses
    /// [`BenchKind::build_generator`] instead to avoid the virtual call.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn build(&self, seed: u64, scale: f64) -> Box<dyn TraceGenerator> {
        Box::new(self.build_generator(seed, scale))
    }

    /// Instantiates the generator as the monomorphized [`AnyGenerator`]
    /// dispatcher.
    ///
    /// * `seed` — RNG seed; distinct VM instances of the same benchmark
    ///   use distinct seeds.
    /// * `scale` — footprint multiplier (1.0 = the defaults below, which
    ///   are already scaled to simulation length; experiments shrink or
    ///   grow them together with the context-switch quantum).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn build_generator(&self, seed: u64, scale: f64) -> AnyGenerator {
        assert!(scale > 0.0, "scale must be positive");
        match self {
            BenchKind::Canneal => AnyGenerator::Canneal(Canneal::new(seed, scale)),
            BenchKind::ConnectedComponent => {
                AnyGenerator::ConnectedComponent(ConnectedComponent::new(seed, scale))
            }
            BenchKind::Graph500 => AnyGenerator::Graph500(Graph500::new(seed, scale)),
            BenchKind::Gups => AnyGenerator::Gups(Gups::new(seed, scale)),
            BenchKind::PageRank => AnyGenerator::PageRank(PageRank::new(seed, scale)),
            BenchKind::StreamCluster => {
                AnyGenerator::StreamCluster(StreamCluster::new(seed, scale))
            }
        }
    }
}

/// Enum dispatcher over the six benchmark generators.
///
/// The simulator calls `next_access` once per simulated access; behind
/// `Box<dyn TraceGenerator>` that is an indirect call the compiler can
/// neither inline nor hoist. The enum's match dispatches to the
/// monomorphized generator bodies instead (the same pattern the sim
/// engine uses for its phase hooks), at the cost of each value being as
/// large as the largest variant — irrelevant for a handful of
/// per-(VM, core) generators.
#[derive(Debug)]
pub enum AnyGenerator {
    /// PARSEC canneal.
    Canneal(Canneal),
    /// GraphChi connected component.
    ConnectedComponent(ConnectedComponent),
    /// graph500 BFS.
    Graph500(Graph500),
    /// HPCC GUPS/RandomAccess.
    Gups(Gups),
    /// PageRank.
    PageRank(PageRank),
    /// PARSEC streamcluster.
    StreamCluster(StreamCluster),
    /// A recorded trace replayed from a file (Pin-style replay).
    Trace(TraceFile),
}

impl AnyGenerator {
    /// The trace being replayed, if this generator is a replay. Lets
    /// the engine restage packed keys for the run's ASIDs and pop
    /// prepacked records without repacking.
    pub fn as_trace_mut(&mut self) -> Option<&mut TraceFile> {
        match self {
            AnyGenerator::Trace(t) => Some(t),
            _ => None,
        }
    }

    /// Whether this generator replays a trace whose records carry
    /// packed TLB keys for `asid` — the zero-repack staging path.
    #[must_use]
    pub fn is_staged_replay(&self, asid: csalt_types::Asid) -> bool {
        matches!(self, AnyGenerator::Trace(t) if t.is_staged_for(asid))
    }
}

impl TraceGenerator for AnyGenerator {
    #[inline]
    fn next_access(&mut self) -> MemAccess {
        match self {
            AnyGenerator::Canneal(g) => g.next_access(),
            AnyGenerator::ConnectedComponent(g) => g.next_access(),
            AnyGenerator::Graph500(g) => g.next_access(),
            AnyGenerator::Gups(g) => g.next_access(),
            AnyGenerator::PageRank(g) => g.next_access(),
            AnyGenerator::StreamCluster(g) => g.next_access(),
            AnyGenerator::Trace(g) => g.next_access(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyGenerator::Canneal(g) => g.name(),
            AnyGenerator::ConnectedComponent(g) => g.name(),
            AnyGenerator::Graph500(g) => g.name(),
            AnyGenerator::Gups(g) => g.name(),
            AnyGenerator::PageRank(g) => g.name(),
            AnyGenerator::StreamCluster(g) => g.name(),
            AnyGenerator::Trace(g) => g.name(),
        }
    }

    fn footprint_bytes(&self) -> u64 {
        match self {
            AnyGenerator::Canneal(g) => g.footprint_bytes(),
            AnyGenerator::ConnectedComponent(g) => g.footprint_bytes(),
            AnyGenerator::Graph500(g) => g.footprint_bytes(),
            AnyGenerator::Gups(g) => g.footprint_bytes(),
            AnyGenerator::PageRank(g) => g.footprint_bytes(),
            AnyGenerator::StreamCluster(g) => g.footprint_bytes(),
            AnyGenerator::Trace(g) => g.footprint_bytes(),
        }
    }
}

impl fmt::Display for BenchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One evaluated workload: the pair of multi-threaded benchmark
/// instances that context-switch on the machine (two VM contexts per
/// core by default; homogeneous pairs are two instances of the same
/// program, heterogeneous pairs follow Table 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// The label used on the paper's x-axes.
    pub name: String,
    /// The two VM contexts' benchmarks.
    pub contexts: [BenchKind; 2],
}

impl WorkloadSpec {
    /// Homogeneous pair: two instances of `bench`.
    pub fn homogeneous(name: impl Into<String>, bench: BenchKind) -> Self {
        Self {
            contexts: [bench, bench],
            name: name.into(),
        }
    }

    /// Heterogeneous pair.
    pub fn pair(name: impl Into<String>, a: BenchKind, b: BenchKind) -> Self {
        Self {
            contexts: [a, b],
            name: name.into(),
        }
    }

    /// The benchmark scheduled as the `i`-th context on a core (cycles
    /// through the pair for > 2 contexts, per the Figure 14 sweep).
    pub fn context_bench(&self, i: u32) -> BenchKind {
        self.contexts[(i % 2) as usize]
    }
}

/// The ten workloads on the x-axis of Figures 1, 7, 8, 10–16.
pub fn paper_workloads() -> Vec<WorkloadSpec> {
    use BenchKind::*;
    vec![
        WorkloadSpec::homogeneous("canneal", Canneal),
        WorkloadSpec::pair("can_ccomp", Canneal, ConnectedComponent),
        WorkloadSpec::pair("can_stream", Canneal, StreamCluster),
        WorkloadSpec::homogeneous("ccomp", ConnectedComponent),
        WorkloadSpec::homogeneous("graph500", Graph500),
        WorkloadSpec::pair("graph500_gups", Graph500, Gups),
        WorkloadSpec::homogeneous("gups", Gups),
        WorkloadSpec::homogeneous("pagerank", PageRank),
        WorkloadSpec::pair("page_stream", PageRank, StreamCluster),
        WorkloadSpec::homogeneous("streamcluster", StreamCluster),
    ]
}

/// Table 3's heterogeneous compositions.
pub fn table3_pairs() -> Vec<WorkloadSpec> {
    use BenchKind::*;
    vec![
        WorkloadSpec::pair("can_ccomp", Canneal, ConnectedComponent),
        WorkloadSpec::pair("can_stream", Canneal, StreamCluster),
        WorkloadSpec::pair("graph500_gups", Graph500, Gups),
        WorkloadSpec::pair("page_stream", PageRank, StreamCluster),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_workload_list_matches_figure7() {
        let w = paper_workloads();
        assert_eq!(w.len(), 10);
        let names: Vec<_> = w.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "canneal",
                "can_ccomp",
                "can_stream",
                "ccomp",
                "graph500",
                "graph500_gups",
                "gups",
                "pagerank",
                "page_stream",
                "streamcluster"
            ]
        );
    }

    #[test]
    fn table3_pairs_are_heterogeneous() {
        for spec in table3_pairs() {
            assert_ne!(spec.contexts[0], spec.contexts[1], "{}", spec.name);
        }
    }

    #[test]
    fn context_bench_cycles_through_pair() {
        let spec = WorkloadSpec::pair("x", BenchKind::Gups, BenchKind::Canneal);
        assert_eq!(spec.context_bench(0), BenchKind::Gups);
        assert_eq!(spec.context_bench(1), BenchKind::Canneal);
        assert_eq!(spec.context_bench(2), BenchKind::Gups);
        assert_eq!(spec.context_bench(3), BenchKind::Canneal);
    }

    #[test]
    fn every_bench_builds_and_produces_accesses() {
        for kind in BenchKind::ALL {
            let mut g = kind.build(1, 0.1);
            assert_eq!(g.name(), kind.name());
            assert!(g.footprint_bytes() > 0);
            for _ in 0..1000 {
                let a = g.next_access();
                assert!(a.gap < 1000, "absurd gap in {kind}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        for kind in BenchKind::ALL {
            let mut a = kind.build(7, 0.1);
            let mut b = kind.build(7, 0.1);
            for _ in 0..500 {
                assert_eq!(a.next_access(), b.next_access(), "{kind}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = BenchKind::Gups.build(1, 0.1);
        let mut b = BenchKind::Gups.build(2, 0.1);
        let same = (0..100)
            .filter(|_| a.next_access().vaddr == b.next_access().vaddr)
            .count();
        assert!(same < 10, "seeds should decorrelate traces");
    }

    #[test]
    fn region_wraps() {
        let r = Region::new(0x1000, 0x100);
        assert_eq!(r.at(0).raw(), 0x1000);
        assert_eq!(r.at(0x100).raw(), 0x1000);
        assert_eq!(r.at(0x1ff).raw(), 0x10ff);
        assert_eq!(r.size(), 0x100);
    }

    #[test]
    fn spread_region_separates_pages() {
        let r = Region::with_spread(0, 0x4000, 8); // 4 logical pages
        assert_eq!(r.at(0).raw(), 0);
        assert_eq!(r.at(0xfff).raw(), 0xfff);
        // Logical page 1 starts 8 pages after logical page 0.
        assert_eq!(r.at(0x1000).raw(), 8 * 0x1000);
        assert_eq!(r.at(0x2000).raw(), 16 * 0x1000);
        // Wrap-around still respects the logical size.
        assert_eq!(r.at(0x4000).raw(), 0);
    }

    #[test]
    fn scale_shrinks_footprint() {
        let big = BenchKind::Gups.build(1, 1.0).footprint_bytes();
        let small = BenchKind::Gups.build(1, 0.25).footprint_bytes();
        assert!(small < big);
    }
}
