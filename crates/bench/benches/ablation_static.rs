//! Ablation — static partitions vs dynamic CSALT (footnote 6).

fn main() {
    let table = csalt_sim::experiments::ablation_static(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "footnote 6: no single static partition performs well across all workloads, motivating the dynamic scheme.",
        },
    );
}
