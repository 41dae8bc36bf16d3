//! The CSALT experiment simulator: multi-core trace-driven runs with VM
//! context switching, plus one experiment runner per table/figure of
//! the paper's evaluation.
//!
//! * [`SimConfig`] / [`run`] — simulate one (workload, scheme)
//!   configuration on the 8-core machine of Table 2.
//! * [`experiments`] — the per-figure harnesses (`fig01` … `fig16`,
//!   `tab01`), each returning a printable [`experiments::Table`].
//!
//! # Example
//!
//! ```
//! use csalt_sim::{run, SimConfig};
//! use csalt_types::TranslationScheme;
//! use csalt_workloads::{BenchKind, WorkloadSpec};
//!
//! let mut cfg = SimConfig::new(
//!     WorkloadSpec::homogeneous("gups", BenchKind::Gups),
//!     TranslationScheme::CsaltCd,
//! );
//! cfg.system.cores = 1;          // keep the doctest fast
//! cfg.accesses_per_core = 5_000;
//! cfg.scale = 0.05;
//! let result = run(&cfg);
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod experiments;
mod fastforward;
mod simulator;
pub mod sweep;
pub mod trace_store;

pub use checkpoint::{CkptRequest, CkptStats};
pub use simulator::{
    build_threads, run, run_with_generators, OccupancySample, SimConfig, SimResult, WarmupMode,
};
pub use sweep::{Sweep, SweepOptions, SweepStats};

#[cfg(feature = "telemetry")]
pub use simulator::{run_instrumented, Instrumentation};
