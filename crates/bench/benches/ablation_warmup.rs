//! Ablation — functional (state-only) vs timed warmup drift (§5
//! methodology: SMARTS-style sampled simulation).

fn main() {
    let table = csalt_sim::experiments::ablation_warmup(&csalt_bench::harness());
    csalt_bench::report(
        &table,
        &csalt_bench::PaperReference {
            summary: "not in the paper: quantifies the measured-phase L2 TLB MPKI drift \
                      from fast-forwarding warmup through the functional path.",
        },
    );
}
