//! Extension — 5-level paging should widen CSALT's advantage over the conventional walker (the paper's intro argument).

fn main() {
    let table = csalt_sim::experiments::ext_5level(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "the paper's introduction predicts 5-level paging strengthens the case for large-TLB schemes; conventional walk cost grows with depth, CSALT-CD's does not.",
        },
    );
}
