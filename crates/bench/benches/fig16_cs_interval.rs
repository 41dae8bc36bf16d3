//! Regenerates Figure 16: sensitivity to the context-switch interval.

fn main() {
    let table = csalt_sim::experiments::fig16(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Figure 16: CSALT-CD's gain over POM-TLB is steady at \
                      5/10/30 ms, ~8% lower at 30 ms than at 10 ms.",
        },
    );
}
