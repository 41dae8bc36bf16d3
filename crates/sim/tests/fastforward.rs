//! Functional fast-forward guarantees: determinism of the state-only
//! path across every scheme × native/virtualized, state equivalence
//! with timed warmup on timing-independent configurations, the
//! sampled-window accounting contract, and generator replay that never
//! checkpoints. No test here passes a cache directory, so the
//! process-wide checkpoint counters only move if a run checkpoints on
//! its own.

use csalt_sim::{build_threads, run_in, run_with_generators, SimConfig, SimResult, WarmupMode};
use csalt_types::TranslationScheme;
use csalt_workloads::BenchKind;
use csalt_workloads::{AnyGenerator, TraceFile, TraceGenerator, WorkloadSpec};

/// Runs `cfg` without warmup checkpoints, so the tests leave no files.
fn run(cfg: &SimConfig) -> SimResult {
    run_in(cfg, None).0
}

/// Every scheme the engine supports, including one static partition.
const SCHEMES: [TranslationScheme; 9] = [
    TranslationScheme::Conventional,
    TranslationScheme::PomTlb,
    TranslationScheme::CsaltD,
    TranslationScheme::CsaltCd,
    TranslationScheme::Dip,
    TranslationScheme::Tsb,
    TranslationScheme::TsbCsalt,
    TranslationScheme::Drrip,
    TranslationScheme::StaticPartition { data_ways: 8 },
];

fn quick(scheme: TranslationScheme) -> SimConfig {
    let mut cfg = SimConfig::new(WorkloadSpec::homogeneous("gups", BenchKind::Gups), scheme);
    cfg.system.cores = 2;
    cfg.system.cs_interval_cycles = 50_000;
    cfg.system.epoch_accesses = 20_000;
    cfg.system.psc.pml4_entries = 0;
    cfg.system.psc.pdp_entries = 0;
    cfg.system.psc.pde_entries = 0;
    cfg.accesses_per_core = 8_000;
    cfg.warmup_accesses_per_core = 8_000;
    cfg.scale = 0.05;
    cfg
}

fn json(r: &csalt_sim::SimResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

#[test]
fn functional_warmup_is_deterministic_across_schemes_and_modes() {
    for scheme in SCHEMES {
        for virtualized in [false, true] {
            let mut cfg = quick(scheme);
            cfg.virtualized = virtualized;
            cfg.warmup_mode = WarmupMode::Functional;
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(
                json(&a),
                json(&b),
                "functional warmup must be bit-deterministic \
                 ({scheme:?}, virtualized={virtualized})"
            );
        }
    }
}

#[test]
fn sampled_windows_are_deterministic() {
    let mut cfg = quick(TranslationScheme::CsaltCd);
    cfg.accesses_per_core = 24_000;
    cfg.sample_windows = 3;
    cfg.window_accesses = 4_000;
    cfg.warmup_mode = WarmupMode::Functional;
    let a = run(&cfg);
    let b = run(&cfg);
    assert_eq!(json(&a), json(&b));
}

/// On a timing-independent configuration — one context per core (no
/// quantum scheduling) and a scheme whose replacement never reads the
/// cycle-derived criticality weights — the state after functional
/// warmup must equal the state after timed warmup exactly, so the
/// measured phases land bit-identical counters.
#[test]
fn functional_warmup_matches_timed_state_when_timing_independent() {
    for scheme in [
        TranslationScheme::Conventional,
        TranslationScheme::PomTlb,
        TranslationScheme::CsaltD,
        TranslationScheme::Dip,
    ] {
        let mut timed = quick(scheme);
        timed.system.contexts_per_core = 1;
        timed.warmup_mode = WarmupMode::Timed;
        let mut functional = timed.clone();
        functional.warmup_mode = WarmupMode::Functional;
        let a = run(&timed);
        let b = run(&functional);
        assert_eq!(
            a.snapshot, b.snapshot,
            "warmup mode changed steady state on a timing-independent config ({scheme:?})"
        );
        assert_eq!(a.core_cycles, b.core_cycles, "{scheme:?}");
    }
}

/// Sampled-window runs report exactly the windows' accesses: the
/// functional gaps consume the stream but never the counters.
#[test]
fn sampled_windows_report_only_window_accesses() {
    let mut cfg = quick(TranslationScheme::PomTlb);
    cfg.accesses_per_core = 20_000;
    cfg.sample_windows = 4;
    cfg.window_accesses = 2_000;
    let r = run(&cfg);
    let cores = u64::from(cfg.system.cores);
    let measured = cfg.sample_windows * cfg.window_accesses * cores;
    assert_eq!(r.snapshot.accesses, measured);
    assert_eq!(r.snapshot.l1d.total().accesses(), measured);
    assert!(
        r.instructions > measured,
        "timed windows retire instructions"
    );
    assert!(r.ipc() > 0.0);

    // The same config without sampling measures the full stream — the
    // sampled run is a strict subset.
    let mut full = cfg.clone();
    full.sample_windows = 0;
    full.window_accesses = 0;
    let f = run(&full);
    assert_eq!(f.snapshot.accesses, cfg.accesses_per_core * cores);
    assert!(f.instructions > r.instructions);
}

#[test]
#[should_panic(expected = "sample windows")]
fn oversized_windows_are_rejected() {
    let mut cfg = quick(TranslationScheme::PomTlb);
    cfg.accesses_per_core = 1_000;
    cfg.sample_windows = 2;
    cfg.window_accesses = 1_000;
    let _ = run(&cfg);
}

/// A staged (v2) trace matrix replays through the zero-repack source;
/// the result must be bit-identical to replaying the same records
/// unstaged (v1 semantics) through the classic inline source.
#[test]
fn staged_replay_matches_unstaged_replay_bit_for_bit() {
    let cfg = quick(TranslationScheme::CsaltCd);
    let per_core = cfg.accesses_per_core + cfg.warmup_accesses_per_core;

    // One recorded stream per (vm, core), from the exact generators a
    // generated run would use.
    let mut recording = build_threads(&cfg);
    let record = |g: &mut AnyGenerator| {
        let mut v = Vec::with_capacity(per_core as usize);
        for _ in 0..per_core {
            v.push(g.next_access());
        }
        v
    };
    let records: Vec<Vec<Vec<_>>> = recording
        .iter_mut()
        .map(|row| row.iter_mut().map(record).collect())
        .collect();

    let matrix = |staged: bool| -> Vec<Vec<AnyGenerator>> {
        records
            .iter()
            .enumerate()
            .map(|(vm, row)| {
                row.iter()
                    .map(|recs| {
                        let mut t = TraceFile::from_records(recs.clone());
                        if staged {
                            // Deliberately stage for the wrong ASID: the
                            // engine must restage for the run's ASIDs.
                            t.restage(csalt_types::Asid::new(40 + vm as u16));
                        }
                        AnyGenerator::Trace(t)
                    })
                    .collect()
            })
            .collect()
    };

    let unstaged = run_with_generators(&cfg, matrix(false));
    let staged = run_with_generators(&cfg, matrix(true));
    assert_eq!(json(&unstaged), json(&staged));

    // And both match the generated run they were recorded from.
    let generated = run(&cfg);
    assert_eq!(json(&generated), json(&staged));
}

/// A replay through caller-supplied generators never checkpoints: the
/// warmup key hashes the config, not the generators, so an image saved
/// by one replay could be restored into a replay of another stream.
#[test]
fn generator_replay_never_checkpoints() {
    let mut cfg = SimConfig::new(
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        TranslationScheme::CsaltCd,
    );
    cfg.system.cores = 1;
    cfg.accesses_per_core = 4_000;
    cfg.warmup_accesses_per_core = 2_000;
    cfg.scale = 0.05;
    let mut other_cfg = cfg.clone();
    other_cfg.workload = WorkloadSpec::homogeneous("canneal", BenchKind::Canneal);

    let before = csalt_sim::checkpoint::stats();
    let first = run_with_generators(&cfg, build_threads(&other_cfg));
    let second = run_with_generators(&cfg, build_threads(&other_cfg));
    let after = csalt_sim::checkpoint::stats();
    assert_eq!(after.saves, before.saves, "a replay saved a warmup image");
    assert_eq!(
        after.restores, before.restores,
        "a replay restored a warmup image"
    );
    assert_eq!(json(&first), json(&second));
}
