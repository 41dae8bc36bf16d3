//! Regenerates Figure 8: fraction of page walks the POM-TLB eliminates.

fn main() {
    let cmp = csalt_sim::experiments::main_comparison(&csalt_bench::harness());
    csalt_bench::report(
        &cmp.fig08(),
        &csalt_bench::PaperReference {
            summary: "Figure 8: the POM-TLB eliminates 97% of page walks on \
                      average (all workloads above ~0.8).",
        },
    );
}
