//! Span-based tracing for the CSALT simulator (ISSUE 7).
//!
//! The engine's headline mechanism is *dynamic* — every epoch the
//! partitioner re-splits cache ways between data and translation
//! entries — yet counters and histograms only show aggregates. This
//! crate records *when* things happened, as begin/end/instant events on
//! named tracks, and exports them in the Chrome Trace Event Format so a
//! run can be opened in Perfetto or `chrome://tracing`.
//!
//! Two clock domains keep determinism intact:
//!
//! * [`Domain::Cycles`] — simulated core cycles. Engine events (epoch
//!   boundaries, repartition decisions, context switches, sampled page
//!   walks) live here; their timestamps are pure functions of
//!   (config, seed), so a trace of the engine domain is bit-identical
//!   across runs.
//! * [`Domain::Wall`] — microseconds of host wall clock since process
//!   start. Infrastructure events (sweep jobs, commit batches) live
//!   here; they never feed back into simulated results.
//!
//! The only wall-clock read in the crate is [`timing::wall_micros`],
//! registered as a timing module in `crates/audit/srclint.manifest`
//! (S002); everything else is integer-only (S005 `float-deny` scope),
//! which is why [`ArgValue`] has no float variant — callers format
//! fractional values (marginal utilities, ratios) as strings.
//!
//! Exported JSON maps each domain to a Chrome *process* (pid 1 =
//! simulated cycles, pid 2 = wall clock) and each track to a *thread*,
//! rendering one simulated cycle / one microsecond per Chrome `ts`
//! unit. [`reader::validate`] checks an exported trace: balanced
//! begin/end nesting per track and monotonic timestamps per domain.

pub mod chrome;
pub mod reader;
pub mod span;
pub mod timing;

pub use chrome::write_chrome;
pub use reader::{validate, SpanAggregate, TraceSummary, TrackSummary};
pub use span::{ArgValue, Domain, NullSink, Phase, TraceBuffer, TraceEvent, TraceSink};
