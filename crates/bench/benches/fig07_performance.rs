//! Regenerates Figure 7: performance of Conventional / POM-TLB /
//! CSALT-D / CSALT-CD, normalized to POM-TLB.

fn main() {
    let cmp = csalt_sim::experiments::main_comparison(&csalt_bench::harness());
    csalt_bench::report(
        &cmp.fig07(),
        &csalt_bench::PaperReference {
            summary: "Figure 7 geomeans (normalized to POM-TLB): conventional \
                      ~0.68, CSALT-D ~1.11, CSALT-CD ~1.25; ccomp reaches \
                      2.24 under CSALT-CD; gups/graph500 gain ~nothing over \
                      POM-TLB.",
        },
    );
}
