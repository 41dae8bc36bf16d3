//! Regenerates Table 1: average page-walk cycles, native vs virtualized.

fn main() {
    let table = csalt_sim::experiments::tab01(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "Table 1 (native/virtualized cycles): canneal 53/61, \
                      connectedcomponent 44/1158, graph500 79/80, gups 43/70, \
                      pagerank 51/61, streamcluster 74/76 — virtualization \
                      never helps and hurts scattered workloads most.",
        },
    );
}
