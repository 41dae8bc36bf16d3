//! Structured records carried by a telemetry stream.
//!
//! Every record is one line of JSONL (or one row of CSV for epoch
//! records). The enum is externally tagged — `{"Epoch": {"record":
//! {...}}}` — so consumers can dispatch on the first key without a
//! schema. All payloads use named fields and derive both `Serialize`
//! and `Deserialize`, which is what makes the round-trip tests and
//! `csalt-report --telemetry` possible.

use csalt_types::HitMissStats;
use serde::{Deserialize, Serialize};

use crate::histogram::Log2Histogram;

/// Version stamp written into every provenance record so readers can
/// reject streams from an incompatible writer.
pub const FORMAT_VERSION: u32 = 1;

/// Run provenance: the first record of every stream.
///
/// `config_json` carries the full serialized `SimConfig` as a nested
/// JSON string; it is opaque to this crate (which sits below `csalt-sim`
/// in the dependency graph) but round-trips through
/// `serde_json::from_str::<SimConfig>` on the consumer side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProvenanceRecord {
    /// Name of the producing tool, e.g. `csalt-experiments`.
    pub tool: String,
    /// Stream format version ([`FORMAT_VERSION`]).
    pub format_version: u32,
    /// Workload label of the run.
    pub workload: String,
    /// Translation scheme label of the run.
    pub scheme: String,
    /// Walk-trace sampling interval (`0` = no walk traces).
    pub sample_interval: u64,
    /// Full `SimConfig` serialized as JSON.
    pub config_json: String,
}

/// Counter deltas and instantaneous gauges for one simulation epoch.
///
/// Delta fields cover exactly the interval since the previous epoch
/// record, so summing them across a stream reproduces the final
/// `HierarchySnapshot` totals (a property the workspace proptests pin
/// down). Gauge fields are sampled at the epoch boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Workload label.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Epoch ordinal within the measured phase (starting at 0).
    pub epoch: u64,
    /// Cumulative accesses (all cores) at this boundary.
    pub at_access: u64,
    /// Accesses served this epoch.
    pub accesses: u64,
    /// Instructions retired this epoch (all cores).
    pub instructions: u64,
    /// Blocking translation cycles charged this epoch.
    pub translation_cycles: u64,
    /// Data-path cycles charged this epoch.
    pub data_cycles: u64,
    /// Full page walks performed this epoch.
    pub page_walks: u64,
    /// Cycles spent inside page walks this epoch.
    pub page_walk_cycles: u64,
    /// L1 TLB hits/misses this epoch (all sizes, all cores).
    pub l1_tlb: HitMissStats,
    /// L2 TLB hits/misses this epoch.
    pub l2_tlb: HitMissStats,
    /// POM-TLB hits/misses this epoch, when the scheme has one.
    pub pom: Option<HitMissStats>,
    /// TSB hits/misses this epoch, when the scheme has one.
    pub tsb: Option<HitMissStats>,
    /// L2 cache hits/misses this epoch (data + TLB lines).
    pub l2_cache: HitMissStats,
    /// L3 cache hits/misses this epoch (data + TLB lines).
    pub l3_cache: HitMissStats,
    /// DDR accesses this epoch.
    pub ddr_accesses: u64,
    /// DDR row-buffer hits this epoch.
    pub ddr_row_hits: u64,
    /// Die-stacked DRAM accesses this epoch.
    pub stacked_accesses: u64,
    /// Die-stacked DRAM row-buffer hits this epoch.
    pub stacked_row_hits: u64,
    /// Context switches taken this epoch (all cores).
    pub context_switches: u64,
    /// Cycles charged for context-switch overhead this epoch.
    pub switch_overhead_cycles: u64,
    /// L1 TLB misses per kilo-instruction this epoch.
    pub l1_tlb_mpki: f64,
    /// L2 TLB misses per kilo-instruction this epoch.
    pub l2_tlb_mpki: f64,
    /// L2 cache misses per kilo-instruction this epoch.
    pub l2_cache_mpki: f64,
    /// L3 cache misses per kilo-instruction this epoch.
    pub l3_cache_mpki: f64,
    /// Translation cycles per instruction this epoch (walk CPI).
    pub translation_cpi: f64,
    /// Mean cycles per completed page walk this epoch.
    pub walk_cycles_per_walk: f64,
    /// DDR row hit rate this epoch, `None` if DDR was idle.
    pub ddr_row_hit_rate: Option<f64>,
    /// Stacked-DRAM row hit rate this epoch, `None` if idle.
    pub stacked_row_hit_rate: Option<f64>,
    /// Ways currently granted to data in the partitioned L2 (gauge).
    pub l2_data_ways: Option<u32>,
    /// Ways currently granted to data in the partitioned L3 (gauge).
    pub l3_data_ways: Option<u32>,
    /// Fraction of L2 cache lines holding TLB entries (gauge).
    pub l2_tlb_occupancy: f64,
    /// Fraction of L3 cache lines holding TLB entries (gauge).
    pub l3_tlb_occupancy: f64,
    /// Mean valid-entry fraction of the per-core SRAM L2 TLBs (gauge).
    pub l2_tlb_utilization: f64,
    /// Valid-entry fraction of the POM-TLB, when present (gauge).
    pub pom_utilization: Option<f64>,
    /// Criticality weight of data misses at L2 (gauge).
    pub l2_weight_data: f64,
    /// Criticality weight of translation misses at L2 (gauge).
    pub l2_weight_translation: f64,
    /// Criticality weight of data misses at L3 (gauge).
    pub l3_weight_data: f64,
    /// Criticality weight of translation misses at L3 (gauge).
    pub l3_weight_translation: f64,
}

/// Which hierarchy stage a [`StageSample`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkStage {
    /// Per-core L1 TLB probe (both page sizes).
    L1Tlb,
    /// Per-core SRAM L2 TLB probe.
    L2Tlb,
    /// POM-TLB probe through the cache hierarchy (one per page size tried).
    PomLookup,
    /// TSB probe (dependent line accesses).
    TsbLookup,
    /// One guest-dimension page-table entry read.
    GuestPte,
    /// One host-dimension page-table entry read (nested walks, or every
    /// step of a native walk).
    HostPte,
    /// The data access itself, after translation.
    Data,
}

/// Which level ultimately served a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedBy {
    /// Per-core L1 data cache.
    L1d,
    /// Per-core partitioned L2.
    L2,
    /// Shared partitioned L3.
    L3,
    /// Off-chip DDR channel.
    Ddr,
    /// Die-stacked DRAM (POM-TLB aperture).
    StackedDram,
}

/// One attributed stage of a sampled translation + data access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageSample {
    /// Stage kind.
    pub stage: WalkStage,
    /// Ordinal within the stage kind (e.g. walk step number).
    pub index: u32,
    /// Cycles charged to this stage.
    pub cycles: u64,
    /// Hit/miss outcome where the stage has one.
    pub hit: Option<bool>,
    /// Deepest level touched while serving this stage's memory access.
    pub served_by: Option<ServedBy>,
}

/// A sampled end-to-end walk trace for one memory access.
///
/// The per-stage cycles are exhaustive: `stages` sums to
/// `translation_cycles + data_cycles == total_cycles` (asserted by the
/// integration tests and checked by `csalt-report --check`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalkTraceRecord {
    /// Workload label.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Measured-phase access ordinal that was sampled.
    pub access_index: u64,
    /// Core that issued the access.
    pub core: usize,
    /// Raw context (ASID) identifier.
    pub context: u64,
    /// Virtual address of the access.
    pub vaddr: u64,
    /// Whether the access was a store.
    pub write: bool,
    /// Blocking translation cycles for this access.
    pub translation_cycles: u64,
    /// Data-path cycles for this access.
    pub data_cycles: u64,
    /// `translation_cycles + data_cycles`.
    pub total_cycles: u64,
    /// Whether the L1 TLB hit.
    pub l1_tlb_hit: bool,
    /// Whether the L2 TLB hit.
    pub l2_tlb_hit: bool,
    /// Whether a full page walk was needed.
    pub walked: bool,
    /// Ordered per-stage attribution.
    pub stages: Vec<StageSample>,
}

/// End-of-run summary of one latency histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramRecord {
    /// Instrument name, e.g. `translation_cycles`.
    pub name: String,
    /// Workload label.
    pub workload: String,
    /// Scheme label.
    pub scheme: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (saturating).
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
    /// Bucketed p50 upper-bound estimate.
    pub p50: u64,
    /// Bucketed p95 upper-bound estimate.
    pub p95: u64,
    /// Bucketed p99 upper-bound estimate.
    pub p99: u64,
    /// Non-empty `(lower, upper, count)` buckets.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistogramRecord {
    /// Builds a summary record from a live histogram. Returns `None`
    /// when the histogram is empty (no record is worth emitting).
    #[must_use]
    pub fn from_histogram(
        name: &str,
        workload: &str,
        scheme: &str,
        hist: &Log2Histogram,
    ) -> Option<Self> {
        let count = hist.total();
        if count == 0 {
            return None;
        }
        Some(Self {
            name: name.to_owned(),
            workload: workload.to_owned(),
            scheme: scheme.to_owned(),
            count,
            sum: hist.sum(),
            min: hist.min()?,
            max: hist.max()?,
            mean: hist.mean()?,
            p50: hist.percentile(0.50)?,
            p95: hist.percentile(0.95)?,
            p99: hist.percentile(0.99)?,
            buckets: hist.nonzero_buckets(),
        })
    }

    /// Reconstructs the mergeable histogram this record summarizes.
    #[must_use]
    pub fn to_histogram(&self) -> Log2Histogram {
        Log2Histogram::from_parts(&self.buckets, self.sum, self.min, self.max)
    }
}

/// End-of-stream integrity footer.
///
/// Emitted by `StreamRecorder` only when the stream is incomplete —
/// records were dropped by a bounded buffer or writes failed — so
/// clean streams stay byte-identical to earlier format versions while
/// truncated ones are self-describing (`csalt-report --check` fails on
/// a footer with drops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FooterRecord {
    /// Records serialized into the stream before this footer.
    pub records_written: u64,
    /// Whole records discarded by the bounded buffer (never torn).
    pub records_dropped: u64,
    /// Failed sink writes or serialization errors.
    pub write_errors: u64,
}

/// Stream-wide counter and gauge values accumulated by a recorder's
/// instrument API, flushed as the last record before shutdown.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InstrumentsRecord {
    /// Monotonic counters as `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Last-written gauges as `(name, value)`.
    pub gauges: Vec<(String, f64)>,
}

/// One line of a telemetry stream.
///
/// The `Epoch` variant dominates the enum's size, but records are built
/// once per epoch/sample — never on the per-access path — and boxing
/// would leak into every construction and match site as well as the
/// vendored serde derive, so the size imbalance is accepted.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TelemetryRecord {
    /// Run provenance header.
    Provenance {
        /// Payload.
        record: ProvenanceRecord,
    },
    /// Per-epoch metric deltas and gauges.
    Epoch {
        /// Payload.
        record: EpochRecord,
    },
    /// Sampled request-level walk trace.
    WalkTrace {
        /// Payload.
        record: WalkTraceRecord,
    },
    /// End-of-run latency histogram summary.
    Histogram {
        /// Payload.
        record: HistogramRecord,
    },
    /// Recorder instrument dump (counters and gauges).
    Instruments {
        /// Payload.
        record: InstrumentsRecord,
    },
    /// Stream-integrity footer (only present on truncated streams).
    Footer {
        /// Payload.
        record: FooterRecord,
    },
}

impl TelemetryRecord {
    /// Short tag used in summaries and CSV type columns.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Provenance { .. } => "provenance",
            Self::Epoch { .. } => "epoch",
            Self::WalkTrace { .. } => "walk_trace",
            Self::Histogram { .. } => "histogram",
            Self::Instruments { .. } => "instruments",
            Self::Footer { .. } => "footer",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_json() {
        let rec = TelemetryRecord::WalkTrace {
            record: WalkTraceRecord {
                workload: "gups".into(),
                scheme: "CSALT-D".into(),
                access_index: 4000,
                core: 3,
                context: 7,
                vaddr: 0xdead_beef,
                write: false,
                translation_cycles: 41,
                data_cycles: 120,
                total_cycles: 161,
                l1_tlb_hit: false,
                l2_tlb_hit: false,
                walked: true,
                stages: vec![
                    StageSample {
                        stage: WalkStage::L2Tlb,
                        index: 0,
                        cycles: 17,
                        hit: Some(false),
                        served_by: None,
                    },
                    StageSample {
                        stage: WalkStage::HostPte,
                        index: 0,
                        cycles: 24,
                        hit: None,
                        served_by: Some(ServedBy::L2),
                    },
                ],
            },
        };
        let line = serde_json::to_string(&rec).expect("serialize");
        let back: TelemetryRecord = serde_json::from_str(&line).expect("deserialize");
        assert_eq!(back, rec);
    }

    #[test]
    fn histogram_record_summarizes_and_rebuilds() {
        let mut h = Log2Histogram::new();
        for v in [3u64, 9, 9, 200, 4096] {
            h.record(v);
        }
        let rec = HistogramRecord::from_histogram("translation_cycles", "w", "s", &h)
            .expect("nonempty histogram");
        assert_eq!(rec.count, 5);
        assert_eq!(rec.max, 4096);
        assert_eq!(rec.to_histogram(), h);
        assert!(HistogramRecord::from_histogram("x", "w", "s", &Log2Histogram::new()).is_none());
    }
}
