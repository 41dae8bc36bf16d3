//! One runner per table/figure of the paper's evaluation (§5).
//!
//! # Scaling
//!
//! The paper simulates 10 billion instructions per workload with 10 ms
//! context-switch quanta and 256 K-access repartitioning epochs. This
//! harness reproduces the *regime*, not the instruction count:
//!
//! * workload footprints stay at their full size (64–256 MiB per
//!   region) so every scattered region exceeds both the L2 TLB reach
//!   (6 MiB) and the PDE paging-structure-cache reach (64 MiB) — the
//!   two thresholds below which the translation problem disappears;
//! * scattered regions *spread* their pages (stride 9) so each touched
//!   page owns its own leaf-PTE line, as it would in the paper's
//!   multi-GB footprints;
//! * quantum and epoch are scaled down ~100× together with the run
//!   length, preserving the quantum : epoch : phase-length ratios;
//! * every run warms up for a full measurement-length window and then
//!   resets statistics, so results are steady-state (the paper's
//!   10-billion-instruction runs are overwhelmingly steady state).
//!
//! Absolute IPCs therefore differ from the paper; the *shape* — who
//! wins, by roughly what factor, where the crossovers sit — is the
//! reproduction target (see EXPERIMENTS.md for paper-vs-measured).
//!
//! Every runner takes a [`Harness`]: the [`Sweep`] its configs run
//! through (result cache, dedup, scheduling, warmup checkpoints) plus
//! the per-core access count, warmup length and footprint multiplier
//! of [`Harness::default_config`]. Nothing is read from the
//! environment; `csalt-experiments` builds the harness from its flags
//! and the bench targets from `csalt_bench::harness`.

use crate::simulator::{SimConfig, SimResult};
use crate::sweep::Sweep;
use csalt_types::{geomean, Cycle, TranslationScheme};
use csalt_workloads::{paper_workloads, BenchKind, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// Scaled stand-ins for the paper's time-like parameters.
pub mod scaled {
    use csalt_types::Cycle;

    /// Per-core program accesses per run (the same number again is
    /// spent on warmup).
    pub const ACCESSES_PER_CORE: u64 = 120_000;
    /// Workload footprint multiplier. Kept at 1.0: the generators'
    /// default footprints (64–256 MiB per region) are already the
    /// minimum that keeps every scattered region larger than both the
    /// L2 TLB reach (6 MiB) *and* the PDE paging-structure-cache reach
    /// (32 × 2 MiB = 64 MiB) — below that, PSC-accelerated walks become
    /// nearly free and the entire translation problem vanishes.
    pub const SCALE: f64 = 1.0;
    /// ≙ the paper's 10 ms quantum (40 M cycles at 4 GHz).
    pub const QUANTUM_10MS: Cycle = 400_000;
    /// ≙ 5 ms.
    pub const QUANTUM_5MS: Cycle = 200_000;
    /// ≙ 30 ms.
    pub const QUANTUM_30MS: Cycle = 1_200_000;
    /// ≙ the paper's 256 K-access epoch.
    pub const EPOCH_256K: u64 = 32_000;
    /// ≙ 128 K accesses.
    pub const EPOCH_128K: u64 = 16_000;
    /// ≙ 512 K accesses.
    pub const EPOCH_512K: u64 = 64_000;
}

/// What every figure runner takes from its caller: the sweep its
/// configs run through and the run-size knobs of
/// [`Harness::default_config`].
pub struct Harness {
    /// Runs every figure's batch: cached and duplicate configs are
    /// never re-simulated, the rest are scheduled longest-first over
    /// its workers. Results are bit-identical to sequential execution —
    /// see `crates/sim/tests/sweep.rs` and `tests/determinism.rs`.
    pub sweep: Sweep,
    /// Per-core measured accesses of every config.
    pub accesses_per_core: u64,
    /// Per-core warmup accesses of every config.
    pub warmup_accesses_per_core: u64,
    /// Workload footprint multiplier.
    pub scale: f64,
}

impl Harness {
    /// The paper-scaled run sizes ([`scaled::ACCESSES_PER_CORE`], a
    /// warmup of the same length, [`scaled::SCALE`]) over `sweep`.
    #[must_use]
    pub fn new(sweep: Sweep) -> Self {
        Self {
            sweep,
            accesses_per_core: scaled::ACCESSES_PER_CORE,
            warmup_accesses_per_core: scaled::ACCESSES_PER_CORE,
            scale: scaled::SCALE,
        }
    }

    /// The default configuration for one (workload, scheme) pair:
    /// virtualized, 2 contexts/core, scaled quantum and epoch, and this
    /// harness's run sizes.
    #[must_use]
    pub fn default_config(&self, workload: WorkloadSpec, scheme: TranslationScheme) -> SimConfig {
        let mut cfg = SimConfig::new(workload, scheme);
        cfg.accesses_per_core = self.accesses_per_core;
        cfg.warmup_accesses_per_core = self.warmup_accesses_per_core;
        cfg.scale = self.scale;
        cfg.system.cs_interval_cycles = scaled::QUANTUM_10MS;
        cfg.system.epoch_accesses = scaled::EPOCH_256K;
        cfg
    }
}

/// A generic labelled series row: one workload, one value per column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Workload (or benchmark) label.
    pub label: String,
    /// Values in column order.
    pub values: Vec<f64>,
}

/// A complete experiment outcome: column names plus per-workload rows
/// and the geometric-mean row the paper appends to every figure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Experiment id ("Figure 7", "Table 1", …).
    pub id: String,
    /// What the values mean.
    pub columns: Vec<String>,
    /// Per-workload rows.
    pub rows: Vec<Row>,
    /// Geometric mean across rows (same arity as `columns`).
    pub geomean: Vec<f64>,
}

impl Table {
    fn new(id: &str, columns: &[&str], rows: Vec<Row>) -> Self {
        let n = columns.len();
        let geomean = (0..n)
            .map(|c| geomean(rows.iter().map(|r| r.values[c])).unwrap_or(0.0))
            .collect();
        Self {
            id: id.to_string(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows,
            geomean,
        }
    }

    /// Renders the table as a GitHub-flavoured markdown table (used to
    /// assemble EXPERIMENTS.md from the persisted results).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| workload |");
        for c in &self.columns {
            out.push_str(&format!(" {c} |"));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.columns {
            out.push_str("---|");
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("| {} |", r.label));
            for v in &r.values {
                out.push_str(&format!(" {v:.3} |"));
            }
            out.push('\n');
        }
        out.push_str("| **geomean** |");
        for v in &self.geomean {
            out.push_str(&format!(" **{v:.3}** |"));
        }
        out.push('\n');
        out
    }

    /// Renders the table as aligned plain text (the bench harness's
    /// stdout format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.id));
        out.push_str(&format!("{:<18}", "workload"));
        for c in &self.columns {
            out.push_str(&format!("{c:>16}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:<18}", r.label));
            for v in &r.values {
                out.push_str(&format!("{v:>16.3}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<18}", "geomean"));
        for v in &self.geomean {
            out.push_str(&format!("{v:>16.3}"));
        }
        out.push('\n');
        out
    }
}

/// The six standalone benchmarks of Tables 1 and Figure 3.
fn homogeneous_six() -> Vec<WorkloadSpec> {
    BenchKind::ALL
        .iter()
        .map(|&b| WorkloadSpec::homogeneous(b.name(), b))
        .collect()
}

// ---------------------------------------------------------------------
// Figure 1 — L2 TLB MPKI ratio, context-switched vs not.
// ---------------------------------------------------------------------

/// Figure 1: ratio of L2 TLB MPKI with 2 contexts/core over the
/// non-context-switched baseline, conventional translation. For
/// heterogeneous pairs the baseline is the instruction-weighted blend
/// of each benchmark run alone with a single context (the paper's
/// non-context-switch case runs each program by itself). Paper:
/// geomean > 6×.
pub fn fig01(h: &Harness) -> Table {
    let mut configs = Vec::new();
    for w in paper_workloads() {
        // The context-switched pair.
        configs.push(h.default_config(w.clone(), TranslationScheme::Conventional));
        // Each member alone, one context per core.
        for i in 0..2 {
            let b = w.context_bench(i);
            let mut c = h.default_config(
                WorkloadSpec::homogeneous(b.name(), b),
                TranslationScheme::Conventional,
            );
            c.system.contexts_per_core = 1;
            configs.push(c);
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(3)
        .map(|group| {
            let cs = &group[0];
            let solo_misses: u64 = group[1..].iter().map(|r| r.snapshot.l2_tlb.misses).sum();
            let solo_instructions: u64 = group[1..].iter().map(|r| r.instructions).sum();
            let nocs_mpki = solo_misses as f64 * 1000.0 / solo_instructions as f64;
            let ratio = if nocs_mpki > 0.0 {
                cs.l2_tlb_mpki() / nocs_mpki
            } else {
                0.0
            };
            Row {
                label: cs.workload.clone(),
                values: vec![cs.l2_tlb_mpki(), nocs_mpki, ratio],
            }
        })
        .collect();
    Table::new(
        "Figure 1: L2 TLB MPKI ratio (context-switch / no-context-switch)",
        &["mpki_2ctx", "mpki_1ctx", "ratio"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Table 1 — page-walk cycles per L2 TLB miss, native vs virtualized.
// ---------------------------------------------------------------------

/// Table 1: average page-walk cycles per walk under the conventional
/// scheme, native vs virtualized. Paper: canneal 53/61, ccomp 44/1158,
/// graph500 79/80, gups 43/70, pagerank 51/61, streamcluster 74/76.
pub fn tab01(h: &Harness) -> Table {
    let mut configs = Vec::new();
    for w in homogeneous_six() {
        for virtualized in [false, true] {
            let mut c = h.default_config(w.clone(), TranslationScheme::Conventional);
            c.virtualized = virtualized;
            configs.push(c);
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(2)
        .map(|pair| Row {
            label: pair[0].workload.clone(),
            values: vec![
                pair[0].snapshot.walk_cycles_per_walk(),
                pair[1].snapshot.walk_cycles_per_walk(),
            ],
        })
        .collect();
    Table::new(
        "Table 1: page-walk cycles per walk (native vs virtualized)",
        &["native", "virtualized"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Figure 3 — fraction of cache capacity occupied by TLB entries.
// ---------------------------------------------------------------------

/// Figure 3: mean fraction of L2/L3 data-cache capacity holding
/// translation entries under POM-TLB. Paper: ~60% average, up to 80%
/// for connected component.
pub fn fig03(h: &Harness) -> Table {
    let five = [
        BenchKind::Canneal,
        BenchKind::ConnectedComponent,
        BenchKind::Graph500,
        BenchKind::Gups,
        BenchKind::PageRank,
    ];
    let configs: Vec<SimConfig> = five
        .iter()
        .map(|&b| {
            let mut c = h.default_config(
                WorkloadSpec::homogeneous(b.name(), b),
                TranslationScheme::PomTlb,
            );
            c.occupancy_scan_interval = c.accesses_per_core / 32;
            c
        })
        .collect();
    let results = h.sweep.run_batch(configs);
    let rows = results
        .iter()
        .map(|r| {
            let (l2, l3) = r.mean_occupancy();
            Row {
                label: r.workload.clone(),
                values: vec![l2, l3],
            }
        })
        .collect();
    Table::new(
        "Figure 3: fraction of cache capacity occupied by TLB entries",
        &["l2_dcache", "l3_dcache"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Figures 7, 8, 10, 11 — the main performance comparison.
// ---------------------------------------------------------------------

/// The four schemes of Figure 7, in presentation order.
pub const FIG7_SCHEMES: [TranslationScheme; 4] = [
    TranslationScheme::Conventional,
    TranslationScheme::PomTlb,
    TranslationScheme::CsaltD,
    TranslationScheme::CsaltCd,
];

/// Raw results of the main comparison, reused by Figures 7, 8, 10, 11.
pub struct MainComparison {
    /// `results[w][s]` for workload `w`, scheme `s` (Figure 7 order).
    pub results: Vec<Vec<SimResult>>,
}

/// Runs the 10 workloads × 4 schemes grid once. Figures 7, 8, 10 and
/// 11 — four views of the same grid — share a single computation: the
/// harness's sweep dedups the grid in-process and persists it
/// content-addressed across invocations when it has a cache directory.
pub fn main_comparison(h: &Harness) -> MainComparison {
    let workloads = paper_workloads();
    let mut configs = Vec::new();
    for w in &workloads {
        for s in FIG7_SCHEMES {
            configs.push(h.default_config(w.clone(), s));
        }
    }
    let flat = h.sweep.run_batch(configs);
    let results: Vec<Vec<SimResult>> = flat
        .chunks(FIG7_SCHEMES.len())
        .map(<[SimResult]>::to_vec)
        .collect();
    MainComparison { results }
}

impl MainComparison {
    /// Figure 7: IPC of every scheme normalized to POM-TLB. Paper
    /// geomeans: conventional ≈ 0.68, CSALT-D ≈ 1.11, CSALT-CD ≈ 1.25
    /// (ccomp: 2.24 for CSALT-CD).
    pub fn fig07(&self) -> Table {
        let rows = self
            .results
            .iter()
            .map(|per_scheme| {
                let pom_ipc = per_scheme[1].ipc();
                Row {
                    label: per_scheme[0].workload.clone(),
                    values: per_scheme.iter().map(|r| r.ipc() / pom_ipc).collect(),
                }
            })
            .collect();
        Table::new(
            "Figure 7: performance normalized to POM-TLB",
            &["conventional", "pom-tlb", "csalt-d", "csalt-cd"],
            rows,
        )
    }

    /// Figure 8: fraction of page walks eliminated by the POM-TLB
    /// (relative to the conventional scheme's walks). Paper: avg 97%.
    pub fn fig08(&self) -> Table {
        let rows = self
            .results
            .iter()
            .map(|per_scheme| {
                let conv_walks = per_scheme[0].snapshot.page_walks as f64;
                let pom_walks = per_scheme[1].snapshot.page_walks as f64;
                let eliminated = if conv_walks > 0.0 {
                    1.0 - pom_walks / conv_walks
                } else {
                    0.0
                };
                Row {
                    label: per_scheme[0].workload.clone(),
                    values: vec![eliminated],
                }
            })
            .collect();
        Table::new(
            "Figure 8: fraction of page walks eliminated by POM-TLB",
            &["fraction_eliminated"],
            rows,
        )
    }

    /// Figure 10: L2 data-cache MPKI relative to POM-TLB. Paper: up to
    /// 30% reduction (ccomp), geomean ≈ 0.92 for CSALT-CD.
    pub fn fig10(&self) -> Table {
        self.relative_mpki(false)
    }

    /// Figure 11: L3 data-cache MPKI relative to POM-TLB. Paper: up to
    /// 26% reduction (ccomp) for CSALT-CD.
    pub fn fig11(&self) -> Table {
        self.relative_mpki(true)
    }

    fn relative_mpki(&self, l3: bool) -> Table {
        let rows = self
            .results
            .iter()
            .map(|per_scheme| {
                let mpki = |r: &SimResult| {
                    if l3 {
                        r.l3_cache_mpki()
                    } else {
                        r.l2_cache_mpki()
                    }
                };
                let pom = mpki(&per_scheme[1]).max(1e-9);
                Row {
                    label: per_scheme[0].workload.clone(),
                    values: vec![1.0, mpki(&per_scheme[2]) / pom, mpki(&per_scheme[3]) / pom],
                }
            })
            .collect();
        Table::new(
            if l3 {
                "Figure 11: relative L3 data-cache MPKI vs POM-TLB"
            } else {
                "Figure 10: relative L2 data-cache MPKI vs POM-TLB"
            },
            &["pom-tlb", "csalt-d", "csalt-cd"],
            rows,
        )
    }
}

// ---------------------------------------------------------------------
// Figure 9 — partition allocation over time (connected component).
// ---------------------------------------------------------------------

/// Figure 9's time series: (progress, L2 TLB fraction, L3 TLB fraction)
/// of the way partition under CSALT-CD for connected component.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionTraceResult {
    /// (fraction of run completed, fraction of L2 ways granted to TLB).
    pub l2: Vec<(f64, f64)>,
    /// Same for the shared L3.
    pub l3: Vec<(f64, f64)>,
}

/// Figure 9: runs ccomp under CSALT-CD with partition tracing. Paper:
/// the TLB allocation tracks the workload's iteration phases, and L3
/// TLB allocation dips when L2 allocation rises.
pub fn fig09(h: &Harness) -> PartitionTraceResult {
    let mut cfg = h.default_config(
        WorkloadSpec::homogeneous("ccomp", BenchKind::ConnectedComponent),
        TranslationScheme::CsaltCd,
    );
    cfg.trace_partitions = true;
    let r = h.sweep.run_batch(vec![cfg]).remove(0);
    let normalize = |series: &[(u64, f64)]| {
        let max = series.iter().map(|&(a, _)| a).max().unwrap_or(1).max(1) as f64;
        series
            .iter()
            .map(|&(a, f)| (a as f64 / max, f))
            .collect::<Vec<_>>()
    };
    PartitionTraceResult {
        l2: normalize(&r.l2_partition_trace),
        l3: normalize(&r.l3_partition_trace),
    }
}

// ---------------------------------------------------------------------
// Figure 12 — native (non-virtualized) CSALT.
// ---------------------------------------------------------------------

/// Figure 12: CSALT-CD speedup over POM-TLB with native 1D walks.
/// Paper: geomean ≈ 1.05, up to 1.30 on connected component.
pub fn fig12(h: &Harness) -> Table {
    let mut configs = Vec::new();
    for w in paper_workloads() {
        for s in [TranslationScheme::PomTlb, TranslationScheme::CsaltCd] {
            let mut c = h.default_config(w.clone(), s);
            c.virtualized = false;
            configs.push(c);
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(2)
        .map(|pair| Row {
            label: pair[0].workload.clone(),
            values: vec![pair[1].ipc() / pair[0].ipc()],
        })
        .collect();
    Table::new(
        "Figure 12: CSALT-CD speedup over POM-TLB (native)",
        &["speedup"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Figure 13 — prior-work comparison: TSB, DIP, CSALT-CD.
// ---------------------------------------------------------------------

/// Figure 13: TSB, DIP and CSALT-CD normalized to POM-TLB. Paper:
/// TSB mostly < 1, DIP ≈ 1, CSALT-CD ≈ 1.25–1.3 over DIP on average.
pub fn fig13(h: &Harness) -> Table {
    let schemes = [
        TranslationScheme::PomTlb,
        TranslationScheme::Tsb,
        TranslationScheme::Dip,
        TranslationScheme::CsaltCd,
    ];
    let mut configs = Vec::new();
    for w in paper_workloads() {
        for s in schemes {
            configs.push(h.default_config(w.clone(), s));
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(schemes.len())
        .map(|group| {
            let pom = group[0].ipc();
            Row {
                label: group[0].workload.clone(),
                values: group[1..].iter().map(|r| r.ipc() / pom).collect(),
            }
        })
        .collect();
    Table::new(
        "Figure 13: prior-work comparison (normalized to POM-TLB)",
        &["tsb", "dip", "csalt-cd"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Figure 14 — context-count sensitivity.
// ---------------------------------------------------------------------

/// Figure 14: CSALT-CD speedup over POM-TLB at 1, 2 and 4 contexts per
/// core. Paper: gains grow with contexts (1 < 2 < 4; ~1.33 at 4).
pub fn fig14(h: &Harness) -> Table {
    let counts = [1u32, 2, 4];
    let mut configs = Vec::new();
    for w in paper_workloads() {
        for &n in &counts {
            for s in [TranslationScheme::PomTlb, TranslationScheme::CsaltCd] {
                let mut c = h.default_config(w.clone(), s);
                c.system.contexts_per_core = n;
                configs.push(c);
            }
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(counts.len() * 2)
        .map(|group| {
            let values = group
                .chunks(2)
                .map(|pair| pair[1].ipc() / pair[0].ipc())
                .collect();
            Row {
                label: group[0].workload.clone(),
                values,
            }
        })
        .collect();
    Table::new(
        "Figure 14: CSALT-CD speedup over POM-TLB by context count",
        &["1_context", "2_contexts", "4_contexts"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Figure 15 — epoch-length sensitivity.
// ---------------------------------------------------------------------

/// Figure 15: CSALT-CD IPC at epoch lengths ≙128 K / 256 K / 512 K,
/// normalized to the default (256 K). Paper: the default wins on most
/// workloads, with ccomp/streamcluster preferring other lengths.
pub fn fig15(h: &Harness) -> Table {
    let epochs = [scaled::EPOCH_128K, scaled::EPOCH_256K, scaled::EPOCH_512K];
    let mut configs = Vec::new();
    for w in paper_workloads() {
        for &e in &epochs {
            let mut c = h.default_config(w.clone(), TranslationScheme::CsaltCd);
            c.system.epoch_accesses = e;
            configs.push(c);
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(epochs.len())
        .map(|group| {
            let base = group[1].ipc();
            Row {
                label: group[0].workload.clone(),
                values: group.iter().map(|r| r.ipc() / base).collect(),
            }
        })
        .collect();
    Table::new(
        "Figure 15: epoch-length sensitivity (normalized to 256K)",
        &["epoch_128K", "epoch_256K", "epoch_512K"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Figure 16 — context-switch-interval sensitivity.
// ---------------------------------------------------------------------

/// Figure 16: CSALT-CD speedup over POM-TLB at 5 / 10 / 30 ms quanta.
/// Paper: steady gains, slightly lower (-8%) at 30 ms than 10 ms.
pub fn fig16(h: &Harness) -> Table {
    let quanta: [Cycle; 3] = [
        scaled::QUANTUM_5MS,
        scaled::QUANTUM_10MS,
        scaled::QUANTUM_30MS,
    ];
    let mut configs = Vec::new();
    for w in paper_workloads() {
        for &q in &quanta {
            for s in [TranslationScheme::PomTlb, TranslationScheme::CsaltCd] {
                let mut c = h.default_config(w.clone(), s);
                c.system.cs_interval_cycles = q;
                configs.push(c);
            }
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(quanta.len() * 2)
        .map(|group| {
            let values = group
                .chunks(2)
                .map(|pair| pair[1].ipc() / pair[0].ipc())
                .collect();
            Row {
                label: group[0].workload.clone(),
                values,
            }
        })
        .collect();
    Table::new(
        "Figure 16: CSALT-CD speedup over POM-TLB by CS interval",
        &["5ms", "10ms", "30ms"],
        rows,
    )
}

// ---------------------------------------------------------------------
// Extensions and ablations beyond the paper's figures.
// ---------------------------------------------------------------------

/// Extension: 5-level paging (Intel LA57). The paper's introduction
/// argues deeper tables "only strengthen the motivation" for CSALT;
/// this experiment quantifies it: conventional walk cost grows with
/// depth while CSALT-CD's large-TLB path is unaffected, so CSALT's gain
/// over conventional widens at 5 levels.
pub fn ext_5level(h: &Harness) -> Table {
    let mut configs = Vec::new();
    for w in homogeneous_six() {
        for levels in [4u8, 5] {
            for s in [TranslationScheme::Conventional, TranslationScheme::CsaltCd] {
                let mut c = h.default_config(w.clone(), s);
                c.system.pt_levels = levels;
                configs.push(c);
            }
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(4)
        .map(|g| {
            let (conv4, csalt4, conv5, csalt5) = (g[0].ipc(), g[1].ipc(), g[2].ipc(), g[3].ipc());
            Row {
                label: g[0].workload.clone(),
                values: vec![conv5 / conv4, csalt4 / conv4, csalt5 / conv5],
            }
        })
        .collect();
    Table::new(
        "Extension: 5-level paging (LA57)",
        &["conv_5lvl_vs_4lvl", "csalt_gain_4lvl", "csalt_gain_5lvl"],
        rows,
    )
}

/// Extension: CSALT partitioning layered over the TSB (§5.2/§6 claim
/// the TSB organization "can leverage CSALT cache partitioning").
pub fn ext_tsb_csalt(h: &Harness) -> Table {
    let mut configs = Vec::new();
    for w in paper_workloads() {
        for s in [TranslationScheme::Tsb, TranslationScheme::TsbCsalt] {
            configs.push(h.default_config(w.clone(), s));
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(2)
        .map(|pair| Row {
            label: pair[0].workload.clone(),
            values: vec![1.0, pair[1].ipc() / pair[0].ipc()],
        })
        .collect();
    Table::new(
        "Extension: CSALT partitioning over the TSB",
        &["tsb", "tsb_csalt"],
        rows,
    )
}

/// Extension: Transparent Huge Pages. The POM-TLB "supports caching TLB
/// entries for multiple page sizes" (§6); sweep the 2 MiB-backed
/// fraction and report CSALT-CD's speedup over POM-TLB at each point —
/// huge pages shrink the translation working set, so partitioning's
/// opportunity shrinks with them.
pub fn ext_huge_pages(h: &Harness) -> Table {
    let four = [
        BenchKind::Canneal,
        BenchKind::Graph500,
        BenchKind::Gups,
        BenchKind::PageRank,
    ];
    let fractions = [0.0f64, 0.5, 1.0];
    let mut configs = Vec::new();
    for &b in &four {
        for &f in &fractions {
            for s in [TranslationScheme::PomTlb, TranslationScheme::CsaltCd] {
                let mut c = h.default_config(WorkloadSpec::homogeneous(b.name(), b), s);
                c.huge_fraction = f;
                configs.push(c);
            }
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(fractions.len() * 2)
        .map(|g| {
            let values = g
                .chunks(2)
                .map(|pair| pair[1].ipc() / pair[0].ipc())
                .collect();
            Row {
                label: g[0].workload.clone(),
                values,
            }
        })
        .collect();
    Table::new(
        "Extension: CSALT-CD speedup over POM-TLB under THP",
        &["thp_0%", "thp_50%", "thp_100%"],
        rows,
    )
}

/// Extension: DRRIP (Jaleel et al., ISCA'10) over POM-TLB — the second
/// content-oblivious replacement baseline the related work (§6)
/// discusses. Like DIP, DRRIP cannot exploit the data/TLB distinction,
/// so it should track POM-TLB while CSALT-CD pulls ahead.
pub fn ext_drrip(h: &Harness) -> Table {
    let schemes = [
        TranslationScheme::PomTlb,
        TranslationScheme::Dip,
        TranslationScheme::Drrip,
        TranslationScheme::CsaltCd,
    ];
    let mut configs = Vec::new();
    for w in paper_workloads() {
        for s in schemes {
            configs.push(h.default_config(w.clone(), s));
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(schemes.len())
        .map(|group| {
            let pom = group[0].ipc();
            Row {
                label: group[0].workload.clone(),
                values: group[1..].iter().map(|r| r.ipc() / pom).collect(),
            }
        })
        .collect();
    Table::new(
        "Extension: DRRIP vs DIP vs CSALT-CD (normalized to POM-TLB)",
        &["dip", "drrip", "csalt-cd"],
        rows,
    )
}

/// Ablation (§3.4): CSALT-CD under True-LRU, NRU and BT-PLRU
/// replacement, normalized to True-LRU. The paper (citing Kędzierski et
/// al.) expects only minor degradation from pseudo-LRU stack-position
/// estimation.
pub fn ablation_replacement(h: &Harness) -> Table {
    use csalt_types::ReplacementKind;
    let kinds = [
        ReplacementKind::TrueLru,
        ReplacementKind::Nru,
        ReplacementKind::BtPlru,
    ];
    let mut configs = Vec::new();
    for w in homogeneous_six() {
        for &k in &kinds {
            let mut c = h.default_config(w.clone(), TranslationScheme::CsaltCd);
            c.system.replacement = k;
            configs.push(c);
        }
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(kinds.len())
        .map(|g| {
            let base = g[0].ipc();
            Row {
                label: g[0].workload.clone(),
                values: g.iter().map(|r| r.ipc() / base).collect(),
            }
        })
        .collect();
    Table::new(
        "Ablation: replacement policy under CSALT-CD (normalized to True-LRU)",
        &["true-lru", "nru", "bt-plru"],
        rows,
    )
}

/// Ablation (footnote 6): static way partitions vs dynamic CSALT-CD,
/// normalized to unpartitioned POM-TLB. The paper found "no one static
/// scheme performed well across all workloads".
pub fn ablation_static(h: &Harness) -> Table {
    let statics = [4u32, 8, 12];
    let mut configs = Vec::new();
    for w in homogeneous_six() {
        configs.push(h.default_config(w.clone(), TranslationScheme::PomTlb));
        for &d in &statics {
            configs.push(h.default_config(
                w.clone(),
                TranslationScheme::StaticPartition { data_ways: d },
            ));
        }
        configs.push(h.default_config(w.clone(), TranslationScheme::CsaltCd));
    }
    let results = h.sweep.run_batch(configs);
    let rows = results
        .chunks(statics.len() + 2)
        .map(|g| {
            let base = g[0].ipc();
            Row {
                label: g[0].workload.clone(),
                values: g[1..].iter().map(|r| r.ipc() / base).collect(),
            }
        })
        .collect();
    Table::new(
        "Ablation: static partitions vs CSALT-CD (normalized to POM-TLB)",
        &["static-4", "static-8", "static-12", "csalt-cd"],
        rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepOptions;

    #[test]
    fn table_render_is_aligned_and_complete() {
        let t = Table::new(
            "Test",
            &["a", "b"],
            vec![
                Row {
                    label: "w1".into(),
                    values: vec![1.0, 2.0],
                },
                Row {
                    label: "w2".into(),
                    values: vec![4.0, 8.0],
                },
            ],
        );
        assert_eq!(t.geomean, vec![2.0, 4.0]);
        let s = t.render();
        assert!(s.contains("w1"));
        assert!(s.contains("geomean"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn default_config_uses_scaled_parameters() {
        let mut h = Harness::new(Sweep::new(SweepOptions::default()));
        h.accesses_per_core = 7_000;
        h.warmup_accesses_per_core = 3_000;
        h.scale = 0.5;
        let w = WorkloadSpec::homogeneous("gups", BenchKind::Gups);
        let c = h.default_config(w, TranslationScheme::CsaltCd);
        assert_eq!(c.system.epoch_accesses, scaled::EPOCH_256K);
        assert_eq!(c.system.cs_interval_cycles, scaled::QUANTUM_10MS);
        assert!(c.virtualized);
        assert_eq!(
            (c.accesses_per_core, c.warmup_accesses_per_core, c.scale),
            (7_000, 3_000, 0.5)
        );
    }

    /// The batch path behind every figure, on a sweep without a cache
    /// directory so the test leaves no files.
    #[test]
    fn run_batch_preserves_order() {
        let mk = |scheme| {
            let mut c = SimConfig::new(WorkloadSpec::homogeneous("gups", BenchKind::Gups), scheme);
            c.system.cores = 1;
            c.accesses_per_core = 2_000;
            c.scale = 0.05;
            c
        };
        let sweep = Sweep::new(SweepOptions::default());
        let results = sweep.run_batch(vec![
            mk(TranslationScheme::Conventional),
            mk(TranslationScheme::PomTlb),
            mk(TranslationScheme::CsaltCd),
        ]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].scheme, TranslationScheme::Conventional);
        assert_eq!(results[1].scheme, TranslationScheme::PomTlb);
        assert_eq!(results[2].scheme, TranslationScheme::CsaltCd);
    }
}
