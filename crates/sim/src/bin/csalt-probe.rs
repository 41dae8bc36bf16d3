//! Quick single-workload probe: runs one workload under several schemes
//! and prints IPC, TLB/cache MPKIs, walk counts and occupancy.
//!
//! Usage: `csalt-probe [workload] [accesses_per_core]`
//! where `workload` is one of the Figure 7 labels (default `gups`).

use csalt_sim::experiments::Harness;
use csalt_sim::{run, Sweep, SweepOptions};
use csalt_types::TranslationScheme;
use csalt_workloads::paper_workloads;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("gups");
    let accesses: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(150_000);

    let workload = paper_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload {name}; use a Figure 7 label");
            std::process::exit(1);
        });

    // Only the harness's default configuration is used, not its sweep.
    let harness = Harness::new(Sweep::new(SweepOptions::default()));
    println!(
        "{:<14}{:>8}{:>10}{:>10}{:>10}{:>10}{:>10}{:>9}{:>9}{:>10}",
        "scheme",
        "ipc",
        "tlb_mpki",
        "l2_mpki",
        "l3_mpki",
        "walks",
        "walk_cyc",
        "l2_occ",
        "l3_occ",
        "xl_cyc/acc"
    );
    for scheme in [
        TranslationScheme::Conventional,
        TranslationScheme::PomTlb,
        TranslationScheme::CsaltD,
        TranslationScheme::CsaltCd,
        TranslationScheme::Dip,
        TranslationScheme::Tsb,
    ] {
        let mut cfg = harness.default_config(workload.clone(), scheme);
        cfg.accesses_per_core = accesses;
        cfg.occupancy_scan_interval = accesses / 16;
        let r = run(&cfg);
        let (l2o, l3o) = r.mean_occupancy();
        let part = match r.final_partitions {
            (Some(a), Some(b)) => format!("{a}/{b}"),
            _ => "-".into(),
        };
        // Never-probed TLB partitions print "-" rather than a fake 0%.
        let pct = |rate: Option<f64>| {
            rate.map_or_else(|| "-".to_owned(), |v| format!("{:.2}", v * 100.0))
        };
        println!(
            "{:<14}{:>8.4}{:>10.2}{:>10.2}{:>10.2}{:>10}{:>10.0}{:>9.3}{:>9.3}{:>10.1}  part(d):{} l2t%:{} l3t%:{} stk:{} ddr:{}",
            scheme.label(),
            r.ipc(),
            r.l2_tlb_mpki(),
            r.l2_cache_mpki(),
            r.l3_cache_mpki(),
            r.snapshot.page_walks,
            r.snapshot.walk_cycles_per_walk(),
            l2o,
            l3o,
            r.snapshot.translation_cycles as f64 / r.snapshot.accesses as f64,
            part,
            pct(r.snapshot.l2.tlb.hit_rate()),
            pct(r.snapshot.l3.tlb.hit_rate()),
            r.snapshot.stacked.accesses,
            r.snapshot.ddr.accesses,
        );
    }
}
