//! Regenerates Figure 14: sensitivity to the number of VM contexts.

fn main() {
    let table = csalt_sim::experiments::fig14(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Figure 14: CSALT's gain over POM-TLB grows with context \
                      count — smallest at 1 context, ~25% at 2, ~33% at 4.",
        },
    );
}
