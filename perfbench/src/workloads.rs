//! The four benchmark workloads and the simulator configs they submit.
//!
//! Every config uses the program's defaults except for the fields set
//! here (workload pairing, contexts, quantum, epoch, run length, seed),
//! so the benchmark measures the simulator as users run it.

use csalt_sim::experiments::{scaled, FIG7_SCHEMES};
use csalt_sim::SimConfig;
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};

/// One benchmark workload (`--workload <name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline Figure 7 configuration: `graph500_gups`,
    /// 2 contexts per core, 10 ms quantum, 256K epoch. Translation-heavy.
    Fig07Mix,
    /// `streamcluster` ×2 on the same system: nearly every access hits
    /// the L1/L2 TLB — the control for translation work.
    PageLocal,
    /// `can_ccomp` with 4 contexts per core, 5 ms quantum, 128K epoch:
    /// context-switch churn and twice as many repartitions.
    CsStorm,
    /// A 60-config (48 unique) figure suite through `Sweep::run_batch`
    /// on two workers: the only workload that exercises dedup, the
    /// checkpoint leader/restore path, the trace store and the result
    /// cache.
    ColdSweep,
}

/// Run-length knobs. [`Size::FULL`] is what the benchmark measures; the
/// unit tests shrink every dimension so the whole pipeline runs in a
/// debug build in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Simulated cores of the single-run workloads.
    pub cores: u32,
    /// Warmup and measured accesses per core of the single-run workloads.
    pub accesses: u64,
    /// Warmup and measured accesses per core of the sweep suite's base
    /// configs.
    pub suite_accesses: u64,
    /// Workload footprint scale.
    pub scale: f64,
    /// Divisor applied to every quantum and epoch length.
    pub shrink: u64,
}

impl Size {
    /// The measured size: 8 cores, 120K warmup + 120K measured accesses
    /// per core, full footprints and the scaled paper quanta and epochs.
    pub const FULL: Size = Size {
        cores: 8,
        accesses: 120_000,
        suite_accesses: 120_000,
        scale: scaled::SCALE,
        shrink: 1,
    };
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig07Mix,
        Workload::PageLocal,
        Workload::CsStorm,
        Workload::ColdSweep,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig07Mix => "fig07_mix",
            Workload::PageLocal => "page_local",
            Workload::CsStorm => "cs_storm",
            Workload::ColdSweep => "cold_sweep",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The configs one round submits, in their canonical (fingerprinted)
    /// order. Single-run workloads submit the four Figure 7 schemes;
    /// `cold_sweep` submits its whole suite, duplicates included.
    pub fn configs(self, seed: u64, size: Size) -> Vec<SimConfig> {
        let single = |spec: WorkloadSpec, contexts: u32, quantum: u64, epoch: u64| {
            FIG7_SCHEMES
                .iter()
                .map(|&scheme| {
                    let mut c = SimConfig::new(spec.clone(), scheme);
                    c.system.cores = size.cores;
                    c.system.contexts_per_core = contexts;
                    c.system.cs_interval_cycles = quantum / size.shrink;
                    c.system.epoch_accesses = epoch / size.shrink;
                    c.accesses_per_core = size.accesses;
                    c.warmup_accesses_per_core = size.accesses;
                    c.scale = size.scale;
                    c.seed = seed;
                    c
                })
                .collect()
        };
        match self {
            Workload::Fig07Mix => single(
                WorkloadSpec::pair("graph500_gups", BenchKind::Graph500, BenchKind::Gups),
                2,
                scaled::QUANTUM_10MS,
                scaled::EPOCH_256K,
            ),
            Workload::PageLocal => single(
                WorkloadSpec::homogeneous("streamcluster", BenchKind::StreamCluster),
                2,
                scaled::QUANTUM_10MS,
                scaled::EPOCH_256K,
            ),
            Workload::CsStorm => single(
                WorkloadSpec::pair(
                    "can_ccomp",
                    BenchKind::Canneal,
                    BenchKind::ConnectedComponent,
                ),
                4,
                scaled::QUANTUM_5MS,
                scaled::EPOCH_128K,
            ),
            Workload::ColdSweep => sweep_suite(seed, size),
        }
    }

    /// The configs whose layers a traced run takes apart: the four
    /// Figure 7 schemes of the workload (for `cold_sweep`, of its
    /// `g500_gups` base row). They share one access stream.
    pub fn layer_configs(self, seed: u64, size: Size) -> Vec<SimConfig> {
        let mut configs = self.configs(seed, size);
        configs.truncate(FIG7_SCHEMES.len());
        configs
    }
}

/// The figure-suite stand-in of the sweep bench (`crates/bench/benches/
/// sweep.rs`), full size: the Figure 7 grid over three workloads, the
/// Figure 8/13-style re-submissions of its baselines, and per-config
/// measured-phase variants (occupancy scan, half and quarter length)
/// that share their base config's warmup prefix — 60 configs, 48
/// unique.
fn sweep_suite(seed: u64, size: Size) -> Vec<SimConfig> {
    let accesses = size.suite_accesses;
    let mk = |w: &WorkloadSpec, s: TranslationScheme| {
        let mut c = SimConfig::new(w.clone(), s);
        c.system.cores = 2;
        c.system.cs_interval_cycles = scaled::QUANTUM_10MS / size.shrink;
        c.system.epoch_accesses = scaled::EPOCH_256K / size.shrink;
        c.accesses_per_core = accesses;
        c.warmup_accesses_per_core = accesses;
        c.scale = size.scale;
        c.seed = seed;
        c
    };
    let workloads = [
        WorkloadSpec::pair("g500_gups", BenchKind::Graph500, BenchKind::Gups),
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        WorkloadSpec::homogeneous("canneal", BenchKind::Canneal),
    ];
    let mut configs = Vec::new();
    for w in &workloads {
        for s in FIG7_SCHEMES {
            configs.push(mk(w, s));
        }
    }
    for w in &workloads {
        for s in [TranslationScheme::Conventional, TranslationScheme::PomTlb] {
            configs.push(mk(w, s));
        }
        for s in [TranslationScheme::PomTlb, TranslationScheme::CsaltCd] {
            configs.push(mk(w, s));
        }
    }
    for w in &workloads {
        for s in FIG7_SCHEMES {
            let mut occ = mk(w, s);
            occ.occupancy_scan_interval = accesses / 32;
            configs.push(occ);
            let mut zoom = mk(w, s);
            zoom.accesses_per_core = accesses / 2;
            configs.push(zoom);
            let mut quarter = mk(w, s);
            quarter.accesses_per_core = accesses / 4;
            configs.push(quarter);
        }
    }
    configs
}

/// Warmup plus measured accesses over all cores: the work one run of
/// `cfg` simulates.
pub fn total_accesses(cfg: &SimConfig) -> u64 {
    (cfg.warmup_accesses_per_core + cfg.accesses_per_core) * u64::from(cfg.system.cores)
}

/// The distinct configs of `configs` (by canonical JSON, first
/// occurrence order) — the jobs a deduplicating sweep simulates.
pub fn unique(configs: &[SimConfig]) -> Vec<SimConfig> {
    let mut seen = std::collections::BTreeSet::new();
    configs
        .iter()
        .filter(|c| seen.insert(csalt_sim::sweep::canonical_json(*c)))
        .cloned()
        .collect()
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A size small enough for debug-build tests.
    pub const TINY: Size = Size {
        cores: 2,
        accesses: 3_000,
        suite_accesses: 2_000,
        scale: 0.05,
        shrink: 40,
    };

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_suite_has_sixty_configs_and_forty_eight_jobs() {
        let configs = Workload::ColdSweep.configs(1, Size::FULL);
        assert_eq!(configs.len(), 60);
        assert_eq!(unique(&configs).len(), 48);
        assert!(configs.iter().all(|c| c.seed == 1));
    }

    #[test]
    fn layer_configs_share_one_access_stream() {
        for w in Workload::ALL {
            let configs = w.layer_configs(5, Size::FULL);
            assert_eq!(configs.len(), 4);
            let keys: Vec<String> = configs
                .iter()
                .map(csalt_sim::trace_store::trace_key)
                .collect();
            assert!(keys.windows(2).all(|p| p[0] == p[1]), "{}", w.name());
            let schemes: Vec<TranslationScheme> = configs.iter().map(|c| c.scheme).collect();
            assert_eq!(schemes, FIG7_SCHEMES.to_vec());
        }
    }

    #[test]
    fn full_size_matches_the_documented_runs() {
        let c = &Workload::CsStorm.configs(9, Size::FULL)[0];
        assert_eq!(c.system.cores, 8);
        assert_eq!(c.system.contexts_per_core, 4);
        assert_eq!(c.system.cs_interval_cycles, scaled::QUANTUM_5MS);
        assert_eq!(c.system.epoch_accesses, scaled::EPOCH_128K);
        assert_eq!(total_accesses(c), 8 * 240_000);
    }
}
