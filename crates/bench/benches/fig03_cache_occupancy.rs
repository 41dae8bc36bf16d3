//! Regenerates Figure 3: fraction of L2/L3 data-cache capacity occupied
//! by translation entries under POM-TLB.

fn main() {
    let table = csalt_sim::experiments::fig03(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Figure 3: TLB entries occupy ~60% of cache capacity on \
                      average, up to ~80% for connected component.",
        },
    );
}
