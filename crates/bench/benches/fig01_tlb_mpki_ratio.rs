//! Regenerates Figure 1: the L2 TLB MPKI blow-up caused by VM context
//! switching (2 contexts/core vs 1).

fn main() {
    let table = csalt_sim::experiments::fig01(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Figure 1 reports L2 TLB MPKI ratios per workload with a \
                      geomean above 6x when a second VM context is added.",
        },
    );
}
