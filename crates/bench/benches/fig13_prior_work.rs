//! Regenerates Figure 13: comparison against TSB and DIP.

fn main() {
    let table = csalt_sim::experiments::fig13(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Figure 13 (normalized to POM-TLB): TSB underperforms \
                      every other scheme on most workloads; DIP tracks \
                      POM-TLB (~1.0); CSALT-CD wins by ~30% over DIP.",
        },
    );
}
