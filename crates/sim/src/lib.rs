//! The CSALT experiment simulator: multi-core trace-driven runs with VM
//! context switching, plus one experiment runner per table/figure of
//! the paper's evaluation.
//!
//! * [`SimConfig`] / [`run`] — simulate one (workload, scheme)
//!   configuration on the 8-core machine of Table 2; [`run_in`] picks
//!   the warmup-checkpoint directory (or none), and [`run_group`]
//!   answers configs that differ only in measured-phase length or
//!   occupancy scans from one run.
//! * [`experiments`] — the per-figure runners (`fig01` … `fig16`,
//!   `tab01`) on an [`experiments::Harness`], each returning a
//!   printable [`experiments::Table`].
//!
//! The library reads no environment variables: every setting arrives
//! as an argument, and the binaries build those arguments from their
//! flags.
//!
//! # Example
//!
//! ```
//! use csalt_sim::{run_in, SimConfig};
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
//! let (result, _restored) = run_in(&cfg, None); // no warmup checkpoints
//! assert!(result.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod experiments;
mod simulator;
pub mod sweep;
pub mod trace_store;

pub use checkpoint::CkptStats;
pub use simulator::{
    build_threads, run, run_group, run_in, run_with_generators, OccupancySample, SimConfig,
    SimResult,
};
pub use sweep::{Sweep, SweepOptions, SweepStats};

#[cfg(feature = "telemetry")]
pub use simulator::{run_instrumented, Instrumentation};
