//! Determinism snapshot: pins the exact counter values of a small
//! fixed-seed run for every [`TranslationScheme`].
//!
//! The hot-path engine (arena page tables, flattened TSB, enum-dispatched
//! generators) is free to get faster, but it is NOT free to change
//! results: every figure in the reproduction depends on these counters
//! being a pure function of (config, seed). Any change that alters them —
//! a reordered allocation, a different hash iteration order leaking into
//! frame placement, an off-by-one in a scratch buffer — fails this test
//! loudly instead of silently skewing every experiment table.
//!
//! If a change is *intended* to alter results (a model change, not an
//! optimization), regenerate the table below with
//! `cargo test --test determinism -- --nocapture print_fingerprints`
//! and say so in the commit message.

use csalt::sim::{run_in, SimConfig, SimResult};
use csalt::types::TranslationScheme;
use csalt::workloads::{BenchKind, WorkloadSpec};
use std::path::{Path, PathBuf};

/// Runs `cfg` without warmup checkpoints, so the tests leave no files.
fn run(cfg: &SimConfig) -> SimResult {
    run_in(cfg, None).0
}

/// The schemes under pinning, with stable labels for the table.
fn schemes() -> Vec<TranslationScheme> {
    vec![
        TranslationScheme::Conventional,
        TranslationScheme::PomTlb,
        TranslationScheme::CsaltD,
        TranslationScheme::CsaltCd,
        TranslationScheme::Dip,
        TranslationScheme::Tsb,
        TranslationScheme::StaticPartition { data_ways: 12 },
        TranslationScheme::TsbCsalt,
        TranslationScheme::Drrip,
    ]
}

/// A small but non-trivial fixed-seed configuration: two cores, two
/// contexts per core, context switches and repartitioning epochs all
/// exercised, small enough to run in the debug test suite.
fn config(scheme: TranslationScheme) -> SimConfig {
    let mut cfg = SimConfig::new(
        WorkloadSpec::pair("g500_gups", BenchKind::Graph500, BenchKind::Gups),
        scheme,
    );
    cfg.system.cores = 2;
    cfg.system.cs_interval_cycles = 40_000;
    cfg.system.epoch_accesses = 10_000;
    cfg.accesses_per_core = 12_000;
    cfg.warmup_accesses_per_core = 6_000;
    cfg.scale = 0.05;
    cfg
}

/// The counter fingerprint one run pins: enough to catch any behavioural
/// divergence (cycle charges, walk counts, TLB traffic, per-core timing).
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    translation_cycles: u64,
    data_cycles: u64,
    page_walks: u64,
    page_walk_cycles: u64,
    l2_tlb_hits: u64,
    l2_tlb_misses: u64,
    total_core_cycles: u64,
    context_switches: u64,
}

fn fingerprint(r: &SimResult) -> Fingerprint {
    Fingerprint {
        translation_cycles: r.snapshot.translation_cycles,
        data_cycles: r.snapshot.data_cycles,
        page_walks: r.snapshot.page_walks,
        page_walk_cycles: r.snapshot.page_walk_cycles,
        l2_tlb_hits: r.snapshot.l2_tlb.hits,
        l2_tlb_misses: r.snapshot.l2_tlb.misses,
        total_core_cycles: r.core_cycles.iter().sum(),
        context_switches: r.context_switches,
    }
}

/// Pinned values. Regenerate with `print_fingerprints` (see module docs).
fn expected(scheme: TranslationScheme) -> Fingerprint {
    let v: [u64; 8] = match scheme {
        TranslationScheme::Conventional => [965950, 2436468, 6312, 816384, 2486, 6312, 1697140, 40],
        TranslationScheme::PomTlb => [1358104, 2459871, 2560, 593133, 2488, 6407, 2113527, 49],
        TranslationScheme::CsaltD => [1367737, 2468844, 2553, 598995, 2494, 6390, 2127451, 50],
        TranslationScheme::CsaltCd => [1366702, 2481240, 2554, 597204, 2498, 6406, 2127669, 49],
        TranslationScheme::Dip => [1355753, 2462676, 2561, 594141, 2490, 6406, 2111944, 49],
        TranslationScheme::Tsb => [1986534, 2409600, 2686, 605451, 2673, 5916, 2758006, 64],
        TranslationScheme::StaticPartition { .. } => {
            [1626660, 2429733, 2543, 660822, 2519, 6277, 2385950, 55]
        }
        TranslationScheme::TsbCsalt => [1937333, 2433063, 2680, 601713, 2667, 5893, 2712975, 63],
        TranslationScheme::Drrip => [1347060, 2466444, 2560, 592230, 2486, 6406, 2104200, 49],
    };
    Fingerprint {
        translation_cycles: v[0],
        data_cycles: v[1],
        page_walks: v[2],
        page_walk_cycles: v[3],
        l2_tlb_hits: v[4],
        l2_tlb_misses: v[5],
        total_core_cycles: v[6],
        context_switches: v[7],
    }
}

/// Prints the current fingerprint table in the exact form `expected`
/// wants, for regeneration after an intended model change.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_fingerprints() {
    for scheme in schemes() {
        let r = run(&config(scheme));
        let f = fingerprint(&r);
        println!(
            "TranslationScheme::{scheme:?} => [{}, {}, {}, {}, {}, {}, {}, {}],",
            f.translation_cycles,
            f.data_cycles,
            f.page_walks,
            f.page_walk_cycles,
            f.l2_tlb_hits,
            f.l2_tlb_misses,
            f.total_core_cycles,
            f.context_switches,
        );
    }
}

#[test]
fn every_scheme_matches_its_pinned_fingerprint() {
    for scheme in schemes() {
        let r = run(&config(scheme));
        assert_eq!(
            fingerprint(&r),
            expected(scheme),
            "scheme {scheme:?} diverged from its pinned counters"
        );
    }
}

/// The pinned run on native (non-virtualized) translation — one-level
/// walks, no nested dimension — so the checkpoint matrix below covers
/// both walker shapes.
fn native_config(scheme: TranslationScheme) -> SimConfig {
    let mut cfg = config(scheme);
    cfg.virtualized = false;
    cfg
}

/// Pinned values for the native run. Regenerate with
/// `print_native_fingerprints`.
fn expected_native(scheme: TranslationScheme) -> Fingerprint {
    let v: [u64; 8] = match scheme {
        TranslationScheme::Conventional => [705913, 2420298, 6286, 557622, 2437, 6286, 1418730, 33],
        TranslationScheme::PomTlb => [1230380, 2472333, 2574, 461154, 2486, 6456, 1985107, 47],
        TranslationScheme::CsaltD => [1240092, 2474184, 2573, 462180, 2486, 6450, 1995255, 47],
        TranslationScheme::CsaltCd => [1236905, 2476614, 2574, 461982, 2485, 6446, 1992685, 47],
        TranslationScheme::Dip => [1225903, 2476431, 2571, 460191, 2484, 6450, 1981671, 47],
        TranslationScheme::Tsb => [1172979, 2391240, 2718, 456363, 2599, 5963, 1899816, 44],
        TranslationScheme::StaticPartition { .. } => {
            [1425118, 2432748, 2546, 460758, 2497, 6289, 2177220, 51]
        }
        TranslationScheme::TsbCsalt => [1164361, 2409015, 2719, 457326, 2601, 5969, 1895870, 44],
        TranslationScheme::Drrip => [1214624, 2478867, 2568, 457899, 2480, 6441, 1967036, 45],
    };
    Fingerprint {
        translation_cycles: v[0],
        data_cycles: v[1],
        page_walks: v[2],
        page_walk_cycles: v[3],
        l2_tlb_hits: v[4],
        l2_tlb_misses: v[5],
        total_core_cycles: v[6],
        context_switches: v[7],
    }
}

/// Prints the native fingerprint table in the exact form
/// `expected_native` wants.
#[test]
#[ignore = "regeneration helper, run with --ignored --nocapture"]
fn print_native_fingerprints() {
    for scheme in schemes() {
        let r = run(&native_config(scheme));
        let f = fingerprint(&r);
        println!(
            "TranslationScheme::{scheme:?} => [{}, {}, {}, {}, {}, {}, {}, {}],",
            f.translation_cycles,
            f.data_cycles,
            f.page_walks,
            f.page_walk_cycles,
            f.l2_tlb_hits,
            f.l2_tlb_misses,
            f.total_core_cycles,
            f.context_switches,
        );
    }
}

/// A fresh directory under the system temp dir, removed on drop (also
/// when an assertion fails first).
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("csalt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The checkpointed-warmup contract: restored runs are bit-identical to
/// straight-through runs. Every scheme × virtualized/native runs twice
/// without a checkpoint directory and twice with a fresh one — there
/// the first pass of a warmup prefix saves the snapshot and the second
/// restores it, so both the save path and the restore path must
/// reproduce the pinned tables byte-for-byte.
#[test]
fn pinned_fingerprints_hold_with_checkpointing_off_and_on() {
    let tmp = TempDir::new("determinism-ckpt");
    for dir in [None, Some(tmp.path())] {
        for scheme in schemes() {
            for pass in 0..2 {
                let (r, restored) = run_in(&config(scheme), dir);
                assert_eq!(
                    fingerprint(&r),
                    expected(scheme),
                    "scheme {scheme:?} diverged with checkpoint dir {dir:?} (pass {pass})"
                );
                assert_eq!(
                    restored,
                    dir.is_some() && pass == 1,
                    "scheme {scheme:?}: restore state with dir {dir:?} (pass {pass})"
                );
                let (r, restored) = run_in(&native_config(scheme), dir);
                assert_eq!(
                    fingerprint(&r),
                    expected_native(scheme),
                    "native {scheme:?} diverged with checkpoint dir {dir:?} (pass {pass})"
                );
                assert_eq!(
                    restored,
                    dir.is_some() && pass == 1,
                    "native {scheme:?}: restore state with dir {dir:?} (pass {pass})"
                );
            }
        }
    }
}
