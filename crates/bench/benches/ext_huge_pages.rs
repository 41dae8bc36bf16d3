//! Extension — THP sensitivity of CSALT-CD's gain.

fn main() {
    let table = csalt_sim::experiments::ext_huge_pages(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "§6 notes the POM-TLB supports multiple page sizes; huge pages shrink the translation working set, so partitioning gains shrink as the THP fraction rises.",
        },
    );
}
