//! Trace replay through caller-supplied generators: staged (prepacked)
//! and unstaged replay land bit-identical results, replay never
//! checkpoints, and damaged trace files never panic. No test here
//! passes a cache directory, so the process-wide checkpoint counters
//! only move if a run checkpoints on its own.

use csalt_sim::{build_threads, run_in, run_with_generators, SimConfig, SimResult};
use csalt_types::TranslationScheme;
use csalt_workloads::BenchKind;
use csalt_workloads::{AnyGenerator, TraceFile, TraceGenerator, WorkloadSpec};

/// Runs `cfg` without warmup checkpoints, so the tests leave no files.
fn run(cfg: &SimConfig) -> SimResult {
    run_in(cfg, None).0
}

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

/// A staged trace matrix replays through the zero-repack source; the
/// result must be bit-identical to replaying the same records unstaged
/// (keys packed per access) through the inline generator source.
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

/// Evenly spread body offsets flipped by the trace mutation test (every
/// header byte is flipped as well).
const BODY_MUTATIONS: usize = 48;

/// Whole-file mutation of a recorded v2 trace: every header byte and
/// evenly spread record bytes, each flipped with three masks. Opening
/// the damaged file, and replaying it through the simulator whenever
/// `TraceFile::open` accepts it, must never panic.
#[test]
fn mutated_trace_files_never_panic() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut cfg = SimConfig::new(
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        TranslationScheme::CsaltCd,
    );
    cfg.system.cores = 1;
    cfg.system.contexts_per_core = 1;
    cfg.accesses_per_core = 300;
    cfg.warmup_accesses_per_core = 100;
    cfg.scale = 0.05;
    let dir = std::env::temp_dir().join(format!("csalt-trace-mutation-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.bin");
    let mut g = build_threads(&cfg).remove(0).remove(0);
    // Fewer records than the run pops, so replay wraps around.
    TraceFile::record_v2(&path, &mut g, 128, csalt_types::Asid::new(1)).expect("record");
    let file = std::fs::read(&path).expect("read trace");
    let offsets =
        (0..32).chain((0..BODY_MUTATIONS).map(|k| 32 + k * (file.len() - 32) / BODY_MUTATIONS));

    let mut replayed = 0;
    for at in offsets {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut damaged = file.clone();
            damaged[at] ^= mask;
            std::fs::write(&path, &damaged).expect("write damaged trace");
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                TraceFile::open(&path).ok().map(|t| {
                    run_with_generators(&cfg, vec![vec![AnyGenerator::Trace(t)]]);
                })
            }));
            match outcome {
                Ok(ran) => replayed += usize::from(ran.is_some()),
                Err(_) => {
                    let _ = std::fs::remove_dir_all(&dir);
                    panic!("trace byte {at} ^ {mask:#04x} panicked");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(replayed > 0, "no damaged trace was accepted and replayed");
}
