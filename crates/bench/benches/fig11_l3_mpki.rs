//! Regenerates Figure 11: relative L3 data-cache MPKI vs POM-TLB.

fn main() {
    let cmp = csalt_sim::experiments::main_comparison(&csalt_bench::harness());
    csalt_bench::report(
        &cmp.fig11(),
        &csalt_bench::PaperReference {
            summary: "Figure 11: CSALT-CD reduces L3 MPKI by up to 26% \
                      (ccomp); geomean reduction ~10%.",
        },
    );
}
