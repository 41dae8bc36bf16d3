//! Round-trip tests for the span trace: a traced run must (a) leave
//! the simulated results bit-identical to an untraced run, and (b)
//! export a Chrome trace that the validating reader accepts — balanced
//! spans, per-track monotonic timestamps — with the engine events the
//! timeline promises (epoch spans, at least one repartition instant per
//! epoch boundary for a CSALT scheme, context switches, sampled walks).
#![cfg(feature = "telemetry")]

use csalt_sim::{run_in, run_instrumented, Instrumentation, SimConfig};
use csalt_telemetry::MemoryRecorder;
use csalt_trace::{reader, write_chrome, Domain, TraceBuffer};
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};

/// Two cores, three exact epochs of 4k accesses, a context-switch
/// quantum short enough to fire several times per epoch, and the
/// partition trace on (as `--trace` would set it).
fn traced_cfg() -> SimConfig {
    let mut cfg = SimConfig::new(
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        TranslationScheme::CsaltCd,
    );
    cfg.system.cores = 2;
    cfg.accesses_per_core = 6_000;
    cfg.warmup_accesses_per_core = 1_000;
    cfg.scale = 0.05;
    cfg.system.epoch_accesses = 4_000;
    cfg.system.cs_interval_cycles = 20_000;
    cfg.trace_partitions = true;
    cfg
}

/// Runs the config with a trace buffer attached and returns the result
/// plus the buffer.
fn traced_run(cfg: &SimConfig, sample_interval: u64) -> (csalt_sim::SimResult, TraceBuffer) {
    let mut rec = MemoryRecorder::new();
    let mut buf = TraceBuffer::new();
    let mut inst = Instrumentation {
        recorder: &mut rec,
        sample_interval,
        progress_every_epochs: 0,
        trace: Some(&mut buf),
        cache_dir: None,
    };
    let result = run_instrumented(cfg, &mut inst);
    (result, buf)
}

fn export(buf: &TraceBuffer) -> String {
    let mut bytes = Vec::new();
    write_chrome(buf, &mut bytes).expect("write to Vec");
    String::from_utf8(bytes).expect("chrome export is utf8")
}

/// Sampled (every 500th access) and exhaustive (every access takes the
/// traced branch, so walk spans fill every core track between its
/// context-switch instants) tracing both leave the results bit-identical
/// and export a valid Chrome trace.
#[test]
fn tracing_does_not_perturb_results() {
    let cfg = traced_cfg();
    let (plain, _) = run_in(&cfg, None);
    for sample_interval in [500, 1] {
        let (traced, buf) = traced_run(&cfg, sample_interval);
        assert!(!buf.is_empty(), "trace buffer captured events");
        assert_eq!(
            serde_json::to_string(&plain.snapshot).expect("snapshot serializes"),
            serde_json::to_string(&traced.snapshot).expect("snapshot serializes"),
            "traced run (every {sample_interval}) must be bit-identical to the plain run"
        );
        assert_eq!(plain.instructions, traced.instructions);
        assert_eq!(plain.core_cycles, traced.core_cycles);
        let summary = reader::validate(&export(&buf)).expect("export parses");
        assert!(
            summary.is_valid(),
            "structural violations (every {sample_interval}): {:?}",
            summary.errors
        );
    }
}

#[test]
fn exported_chrome_trace_round_trips_through_the_reader() {
    let cfg = traced_cfg();
    let (_, buf) = traced_run(&cfg, 500);
    let summary = reader::validate(&export(&buf)).expect("export parses");
    assert!(
        summary.is_valid(),
        "structural violations: {:?}",
        summary.errors
    );

    // Three exact epochs of the measured phase.
    let epochs = summary.span_count(1, "epoch");
    assert_eq!(epochs, 3, "4k-access epochs over 12k measured accesses");
    // At least one repartition instant per epoch boundary: csalt-cd
    // partitions the L3 from the first epoch on.
    assert!(
        summary.instant_count(1, "repartition") >= epochs,
        "every epoch boundary must carry a repartition instant"
    );
    // The short quantum forces context switches on the core tracks.
    assert!(summary.instant_count(1, "context_switch") > 0);
    // Sampled page walks appear as nested spans on core tracks.
    assert!(summary.span_count(1, "walk") > 0);
    let walk_agg = summary
        .spans
        .iter()
        .find(|a| a.pid == 1 && a.name == "walk")
        .expect("walk aggregate");
    assert!(walk_agg.total_duration > 0, "walks accumulate cycles");
    // One wall-domain commit span per epoch.
    assert_eq!(summary.span_count(2, "commit"), epochs);

    // Track metadata: the partitioner track plus one per core in the
    // cycles domain, the commit stage in the wall domain.
    let name_of = |pid: u64, tid: u64| {
        summary
            .tracks
            .iter()
            .find(|t| t.pid == pid && t.tid == tid)
            .and_then(|t| t.name.clone())
    };
    assert_eq!(name_of(1, 0).as_deref(), Some("partitioner"));
    assert_eq!(name_of(1, 1).as_deref(), Some("core 0"));
    assert_eq!(name_of(2, 0).as_deref(), Some("commit stage"));
}

#[test]
fn trace_events_carry_both_clock_domains() {
    let cfg = traced_cfg();
    let (_, buf) = traced_run(&cfg, 0);
    let cycles = buf
        .events()
        .iter()
        .filter(|e| e.domain == Domain::Cycles)
        .count();
    let wall = buf
        .events()
        .iter()
        .filter(|e| e.domain == Domain::Wall)
        .count();
    assert!(cycles > 0, "engine events on the simulated-cycles clock");
    assert!(wall > 0, "infrastructure events on the wall clock");
}
