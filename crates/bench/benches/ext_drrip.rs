//! Extension — DRRIP replacement baseline from the related work (§6).

fn main() {
    let table = csalt_sim::experiments::ext_drrip(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "§6 argues content-oblivious replacement (DIP, DRRIP, \
                      SHiP...) cannot separate data from TLB traffic; like \
                      DIP, DRRIP should track POM-TLB while CSALT-CD wins.",
        },
    );
}
