//! # csalt — a reproduction of *CSALT: Context Switch Aware Large TLB*
//! (Marathe et al., MICRO-50, 2017)
//!
//! CSALT attacks two compounding problems of virtualized machines under
//! VM context switching: L2 TLB miss rates explode (>6× with just two
//! contexts), and the resulting translation traffic — page-table
//! entries for a conventional walker, large-L3-TLB (POM-TLB) entries
//! for state-of-the-art designs — floods the L2/L3 data caches, often
//! occupying more than half their capacity. CSALT's answer is a
//! **TLB-aware dynamic cache partitioning** scheme: per-kind
//! stack-distance profilers predict the hit rate data and translation
//! entries would each achieve at every possible way split, and each
//! epoch the split maximizing (criticality-weighted) marginal utility
//! is enforced at replacement time.
//!
//! This crate re-exports the whole simulator workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`types`] | addresses, IDs, Table 2 configuration, statistics |
//! | [`dram`] | DDR4 + die-stacked DRAM bank/row timing |
//! | [`cache`] | set-associative caches, way partitioning, NRU/BT-PLRU, DIP |
//! | [`profiler`] | MSA stack-distance profilers, MU/CWMU (Algorithms 1–3) |
//! | [`tlb`] | SRAM TLBs, the memory-resident POM-TLB, the TSB baseline |
//! | [`ptw`] | radix page tables, PSC MMU caches, 1D + 2D (nested) walkers |
//! | [`workloads`] | synthetic trace generators for the six benchmarks |
//! | [`core`] | the assembled hierarchy with every translation scheme |
//! | [`sim`] | the multi-core simulator and per-figure experiments |
//! | [`telemetry`] | recorders, per-epoch records, walk traces, latency histograms |
//! | [`audit`] | CSALT-Axxx static rules and conservation-law auditing |
//!
//! # Quickstart
//!
//! ```
//! use csalt::sim::{run_in, SimConfig};
//! use csalt::types::TranslationScheme;
//! use csalt::workloads::{BenchKind, WorkloadSpec};
//!
//! let mut cfg = SimConfig::new(
//!     WorkloadSpec::homogeneous("gups", BenchKind::Gups),
//!     TranslationScheme::CsaltCd,
//! );
//! cfg.system.cores = 1;            // keep the doctest fast
//! cfg.accesses_per_core = 5_000;
//! cfg.warmup_accesses_per_core = 5_000;
//! cfg.scale = 0.05;
//! let (result, _restored) = run_in(&cfg, None); // no warmup checkpoints
//! println!("IPC = {:.3}", result.ipc());
//! # assert!(result.ipc() > 0.0);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/benches/` for the harnesses that regenerate every
//! table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use csalt_audit as audit;
pub use csalt_cache as cache;
pub use csalt_core as core;
pub use csalt_dram as dram;
pub use csalt_profiler as profiler;
pub use csalt_ptw as ptw;
pub use csalt_sim as sim;
pub use csalt_telemetry as telemetry;
pub use csalt_tlb as tlb;
pub use csalt_types as types;
pub use csalt_workloads as workloads;
