//! Regenerates Figure 10: relative L2 data-cache MPKI vs POM-TLB.

fn main() {
    let cmp = csalt_sim::experiments::main_comparison(&csalt_bench::harness());
    csalt_bench::report(
        &cmp.fig10(),
        &csalt_bench::PaperReference {
            summary: "Figure 10: CSALT-D/CD reduce L2 MPKI by up to 30% \
                      (ccomp); geomean reduction is modest (~5-10%).",
        },
    );
}
