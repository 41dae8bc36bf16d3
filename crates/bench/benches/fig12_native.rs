//! Regenerates Figure 12: CSALT-CD in the native (non-virtualized)
//! context, normalized to POM-TLB.

fn main() {
    let table = csalt_sim::experiments::fig12(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Figure 12: native-mode CSALT-CD gains ~5% geomean over \
                      POM-TLB, up to ~30% on connected component.",
        },
    );
}
