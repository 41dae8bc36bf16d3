//! Observability layer for the CSALT simulator.
//!
//! The paper's evaluation is built from *time-resolved* behaviour —
//! per-epoch partition movement, walk-latency distributions, per-scheme
//! miss breakdowns — while an uninstrumented run only surfaces an
//! end-of-run snapshot. This crate provides the plumbing between the
//! two without taxing the simulator's hot loop:
//!
//! - [`Recorder`] — the sink trait with counter / gauge / log2-histogram
//!   instruments plus structured-record emission. [`NullRecorder`]
//!   drops everything (`is_enabled() == false`), [`StreamRecorder`]
//!   writes bounded-buffer JSONL or CSV, [`SharedRecorder`] multiplexes
//!   parallel runs onto one stream with clone-local instruments, and
//!   [`MemoryRecorder`] backs tests.
//! - [`Log2Histogram`] — 65 power-of-two buckets with exact min/max/sum,
//!   used for translation- and data-path latency distributions.
//! - [`TelemetryRecord`] — the stream schema: a provenance header,
//!   per-epoch metric deltas, sampled walk traces with per-stage cycle
//!   attribution, and end-of-run histogram summaries.
//! - [`report`] — consumer-side parsing and percentile tables for
//!   `csalt-report --telemetry`.
//!
//! The crate sits just above `csalt-types` in the workspace graph so
//! every model crate (and `csalt-core`'s hierarchy) can attribute
//! stages without dependency cycles.

pub mod histogram;
pub mod record;
pub mod recorder;
pub mod report;

pub use histogram::{Log2Histogram, BUCKETS};
pub use record::{
    EpochRecord, HistogramRecord, InstrumentsRecord, ProvenanceRecord, ServedBy, StageSample,
    TelemetryRecord, WalkStage, WalkTraceRecord, FORMAT_VERSION,
};
pub use recorder::{
    MemoryRecorder, NullRecorder, Recorder, SharedRecorder, StreamFormat, StreamRecorder,
    DEFAULT_BUFFER_CAPACITY,
};
pub use report::{summarize_stream, StreamSummary};
