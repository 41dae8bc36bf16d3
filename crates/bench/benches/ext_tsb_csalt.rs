//! Extension — CSALT partitioning layered over the TSB.

fn main() {
    let table = csalt_sim::experiments::ext_tsb_csalt(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "§5.2/§6 state the TSB organization can leverage CSALT partitioning and 'also sees performance improvement'.",
        },
    );
}
