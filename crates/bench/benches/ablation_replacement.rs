//! Ablation — pseudo-LRU replacement under CSALT (§3.4).

fn main() {
    let table = csalt_sim::experiments::ablation_replacement(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "§3.4 (after Kędzierski et al.) expects only minor degradation when NRU or BT-PLRU stack-position estimates replace True-LRU.",
        },
    );
}
