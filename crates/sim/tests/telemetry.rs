//! Integration tests for the instrumented run path: provenance-first
//! ordering, config round-tripping, epoch-delta conservation, walk-trace
//! cycle attribution, and behavioral equivalence with the plain `run`.
#![cfg(feature = "telemetry")]

use csalt_sim::{run_in, run_instrumented, Instrumentation, SimConfig};
use csalt_telemetry::{summarize_stream, MemoryRecorder, StreamRecorder, TelemetryRecord};
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};

/// Two cores, three exact epochs of 4k accesses each, short warmup.
fn small_cfg(scheme: TranslationScheme) -> SimConfig {
    let mut cfg = SimConfig::new(WorkloadSpec::homogeneous("gups", BenchKind::Gups), scheme);
    cfg.system.cores = 2;
    cfg.accesses_per_core = 6_000;
    cfg.warmup_accesses_per_core = 1_000;
    cfg.scale = 0.05;
    cfg.system.epoch_accesses = 4_000;
    cfg
}

fn instrumented(cfg: &SimConfig, sample_interval: u64) -> (csalt_sim::SimResult, MemoryRecorder) {
    let mut rec = MemoryRecorder::new();
    let mut inst = Instrumentation {
        recorder: &mut rec,
        sample_interval,
        progress_every_epochs: 0,
        trace: None,
        cache_dir: None,
    };
    let result = run_instrumented(cfg, &mut inst);
    (result, rec)
}

#[test]
fn provenance_comes_first_and_round_trips_the_config() {
    let cfg = small_cfg(TranslationScheme::CsaltCd);
    let (_, rec) = instrumented(&cfg, 0);
    let records = rec.records();
    assert!(!records.is_empty());
    let TelemetryRecord::Provenance { record } = &records[0] else {
        panic!("first record must be provenance, got {:?}", records[0]);
    };
    assert_eq!(record.workload, "gups");
    assert_eq!(record.scheme, "csalt-cd");
    let parsed: SimConfig =
        serde_json::from_str(&record.config_json).expect("provenance config parses back");
    assert_eq!(parsed, cfg, "config JSON must round-trip exactly");
}

#[test]
fn epoch_deltas_sum_to_the_final_snapshot() {
    let cfg = small_cfg(TranslationScheme::CsaltCd);
    let (result, rec) = instrumented(&cfg, 0);
    let epochs: Vec<_> = rec
        .records()
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Epoch { record } => Some(record),
            _ => None,
        })
        .collect();
    // 12k total accesses / 4k epoch length = 3 exact epochs, no partial.
    assert_eq!(epochs.len(), 3);
    assert_eq!(epochs.last().expect("nonempty").at_access, 12_000);
    let sum =
        |f: fn(&csalt_telemetry::EpochRecord) -> u64| -> u64 { epochs.iter().map(|e| f(e)).sum() };
    assert_eq!(sum(|e| e.accesses), result.snapshot.accesses);
    assert_eq!(sum(|e| e.instructions), result.instructions);
    assert_eq!(sum(|e| e.page_walks), result.snapshot.page_walks);
    assert_eq!(
        sum(|e| e.translation_cycles),
        result.snapshot.translation_cycles
    );
    assert_eq!(sum(|e| e.data_cycles), result.snapshot.data_cycles);
    assert_eq!(sum(|e| e.context_switches), result.context_switches);
    assert_eq!(sum(|e| e.ddr_accesses), result.snapshot.ddr.accesses);
    assert_eq!(
        sum(|e| e.l2_tlb.accesses()),
        result.snapshot.l2_tlb.accesses()
    );
}

#[test]
fn partial_final_epoch_is_emitted() {
    let mut cfg = small_cfg(TranslationScheme::PomTlb);
    cfg.accesses_per_core = 5_000; // 10k total = 2 full epochs + 2k tail
    let (result, rec) = instrumented(&cfg, 0);
    let epochs: Vec<_> = rec
        .records()
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Epoch { record } => Some(record),
            _ => None,
        })
        .collect();
    assert_eq!(epochs.len(), 3, "two full epochs plus the partial tail");
    assert_eq!(epochs.last().expect("nonempty").at_access, 10_000);
    let total: u64 = epochs.iter().map(|e| e.accesses).sum();
    assert_eq!(total, result.snapshot.accesses);
}

#[test]
fn walk_traces_are_sampled_and_cycle_consistent() {
    let cfg = small_cfg(TranslationScheme::CsaltCd);
    let (_, rec) = instrumented(&cfg, 500);
    let traces: Vec<_> = rec
        .records()
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::WalkTrace { record } => Some(record),
            _ => None,
        })
        .collect();
    // Indices 0, 500, ..., 11500 of the 12k measured accesses.
    assert_eq!(traces.len(), 24);
    for t in traces {
        let stage_sum: u64 = t.stages.iter().map(|s| s.cycles).sum();
        assert_eq!(
            stage_sum, t.total_cycles,
            "stage cycles must sum to the recorded total for {t:?}"
        );
        assert_eq!(t.total_cycles, t.translation_cycles + t.data_cycles);
    }
}

#[test]
fn histograms_cover_every_measured_access() {
    let cfg = small_cfg(TranslationScheme::Conventional);
    let (result, rec) = instrumented(&cfg, 0);
    let hists: Vec<_> = rec
        .records()
        .iter()
        .filter_map(|r| match r {
            TelemetryRecord::Histogram { record } => Some(record),
            _ => None,
        })
        .collect();
    let names: Vec<&str> = hists.iter().map(|h| h.name.as_str()).collect();
    for expected in ["translation_cycles", "data_cycles", "total_cycles"] {
        assert!(names.contains(&expected), "missing histogram {expected}");
    }
    for h in hists {
        assert_eq!(
            h.to_histogram().total(),
            result.snapshot.accesses,
            "histogram {} must have one sample per measured access",
            h.name
        );
    }
}

#[test]
fn instrumented_run_is_behaviorally_identical_to_plain_run() {
    for scheme in [
        TranslationScheme::Conventional,
        TranslationScheme::CsaltCd,
        TranslationScheme::Tsb,
    ] {
        let cfg = small_cfg(scheme);
        let (plain, _) = run_in(&cfg, None);
        let (inst, _) = instrumented(&cfg, 250);
        assert_eq!(
            plain.snapshot, inst.snapshot,
            "{scheme:?}: tracing must not perturb the simulation"
        );
        assert_eq!(plain.instructions, inst.instructions);
        assert_eq!(plain.core_cycles, inst.core_cycles);
        assert_eq!(plain.context_switches, inst.context_switches);
        assert_eq!(plain.final_partitions, inst.final_partitions);
    }
}

#[test]
fn jsonl_stream_parses_back_clean() {
    let path =
        std::env::temp_dir().join(format!("csalt-telemetry-test-{}.jsonl", std::process::id()));
    let cfg = small_cfg(TranslationScheme::CsaltCd);
    {
        let mut rec = StreamRecorder::create(&path).expect("create temp stream");
        let mut inst = Instrumentation {
            recorder: &mut rec,
            sample_interval: 1_000,
            progress_every_epochs: 0,
            trace: None,
            cache_dir: None,
        };
        run_instrumented(&cfg, &mut inst);
        assert_eq!(rec.records_skipped(), 0);
    }
    let file = std::fs::File::open(&path).expect("reopen stream");
    let summary = summarize_stream(std::io::BufReader::new(file)).expect("summarize");
    std::fs::remove_file(&path).ok();
    assert!(summary.is_clean(), "stream must be clean: {summary:?}");
    assert_eq!(summary.provenance, 1);
    assert_eq!(summary.epochs, 3);
    assert_eq!(summary.walk_traces, 12);
    assert!(summary
        .percentile_table("total_cycles", "Total")
        .expect("table renders")
        .contains("csalt-cd"));
}
