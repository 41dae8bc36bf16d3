//! Regenerates Figure 15: sensitivity to the repartitioning epoch length.

fn main() {
    let table = csalt_sim::experiments::fig15(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Figure 15 (normalized to the 256K default): the default \
                      epoch is best on most workloads; ccomp and \
                      streamcluster slightly prefer other lengths.",
        },
    );
}
