//! Sweep-engine contract tests: the cached, deduped and
//! freshly-simulated paths must agree bit-for-bit, a warm re-run must
//! simulate nothing, and a damaged cache must degrade to simulation —
//! never to wrong results.

use csalt_sim::sweep::config_key;
use csalt_sim::{checkpoint, run_in, SimConfig, SimResult, Sweep, SweepOptions};
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

fn small(scheme: TranslationScheme) -> SimConfig {
    let mut c = SimConfig::new(
        WorkloadSpec::pair("g500_gups", BenchKind::Graph500, BenchKind::Gups),
        scheme,
    );
    c.system.cores = 1;
    c.accesses_per_core = 2_000;
    c.warmup_accesses_per_core = 1_000;
    c.scale = 0.05;
    c
}

/// A per-test scratch cache directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("csalt-sweep-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json(r: &SimResult) -> String {
    serde_json::to_string(r).expect("result serializes")
}

#[test]
fn warm_rerun_performs_zero_simulations() {
    let tmp = TempDir::new("warm");
    let configs = vec![
        small(TranslationScheme::Conventional),
        small(TranslationScheme::PomTlb),
        small(TranslationScheme::CsaltCd),
    ];

    let cold = Sweep::new(SweepOptions::with_dir(&tmp.0));
    let first = cold.run_batch(configs.clone());
    assert_eq!(cold.stats().simulated, 3);
    assert_eq!(cold.stats().cache_hits, 0);

    let warm = Sweep::new(SweepOptions::with_dir(&tmp.0));
    assert_eq!(warm.stats().persisted_loaded, 3);
    let second = warm.run_batch(configs);
    assert_eq!(warm.stats().simulated, 0, "warm re-run must not simulate");
    assert_eq!(warm.stats().cache_hits, 3);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(json(a), json(b), "cached result must be bit-identical");
    }
}

#[test]
fn corrupt_cache_entries_fall_back_to_simulating() {
    let tmp = TempDir::new("corrupt");
    let configs = vec![
        small(TranslationScheme::PomTlb),
        small(TranslationScheme::CsaltD),
    ];
    let cold = Sweep::new(SweepOptions::with_dir(&tmp.0));
    let first = cold.run_batch(configs.clone());
    assert_eq!(cold.stats().simulated, 2);

    // Damage the store: keep the first line, replace the second with a
    // torn tail (as if the process died mid-append) plus pure garbage.
    let file = std::fs::read_dir(&tmp.0)
        .expect("cache dir readable")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("results-"))
        })
        .expect("results file written");
    let text = std::fs::read_to_string(&file).expect("cache readable");
    let mut lines = text.lines();
    let intact = lines.next().expect("two entries persisted");
    let torn = &lines.next().expect("two entries persisted")[..40];
    std::fs::write(&file, format!("{intact}\n{torn}\nnot json at all\n")).expect("cache writable");

    let warm = Sweep::new(SweepOptions::with_dir(&tmp.0));
    assert_eq!(warm.stats().persisted_loaded, 1);
    assert_eq!(warm.stats().cache_errors, 2, "torn + garbage lines counted");
    let second = warm.run_batch(configs);
    assert_eq!(
        warm.stats().simulated,
        1,
        "only the damaged entry re-simulates"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(json(a), json(b), "fallback must reproduce the run exactly");
    }
}

#[test]
fn cached_deduped_and_fresh_paths_agree() {
    let tmp = TempDir::new("agree");
    let cfg = small(TranslationScheme::CsaltCd);
    let other = small(TranslationScheme::Dip);

    // Fresh: the plain sequential path every figure is pinned against.
    let fresh = json(&run_in(&cfg, None).0);

    // Deduped: three copies interleaved with another config, one batch.
    let sweep = Sweep::new(SweepOptions::with_dir(&tmp.0));
    let batch = sweep.run_batch(vec![cfg.clone(), other.clone(), cfg.clone(), cfg.clone()]);
    assert_eq!(sweep.stats().simulated, 2);
    assert_eq!(sweep.stats().deduped, 2);
    assert_eq!(batch[0].scheme, cfg.scheme, "submission order preserved");
    assert_eq!(batch[1].scheme, other.scheme);
    assert_eq!(json(&batch[0]), fresh);
    assert_eq!(json(&batch[2]), fresh);
    assert_eq!(json(&batch[3]), fresh);

    // Cached: a new sweep over the persisted store.
    let warm = Sweep::new(SweepOptions::with_dir(&tmp.0));
    let cached = warm.run_batch(vec![cfg]);
    assert_eq!(warm.stats().simulated, 0);
    assert_eq!(json(&cached[0]), fresh);
}

/// Warmup images in a sweep's cache directory.
fn images(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
            .count()
    })
}

/// One warmup prefix, three measured lengths and an occupancy variant:
/// one engine run answers all four, saves no image, and each answer is
/// the straight run's, byte for byte. The save counter is process-wide;
/// no other test in this file passes a checkpoint directory.
#[test]
fn a_warmup_group_is_one_run() {
    let tmp = TempDir::new("grouped");
    let mut group: Vec<SimConfig> = [2_000, 3_000, 4_000]
        .into_iter()
        .map(|n| SimConfig {
            accesses_per_core: n,
            ..small(TranslationScheme::CsaltCd)
        })
        .collect();
    group.push(SimConfig {
        accesses_per_core: 3_000,
        occupancy_scan_interval: 1_000,
        ..small(TranslationScheme::CsaltCd)
    });
    let before = checkpoint::stats();
    let sweep = Sweep::new(SweepOptions::with_dir(&tmp.0));
    let results = sweep.run_batch(group.clone());
    assert_eq!(sweep.stats().runs, 1);
    assert_eq!(sweep.stats().simulated, 4);
    assert_eq!(sweep.stats().restored, 0);
    assert_eq!(checkpoint::stats().saves - before.saves, 0);
    assert_eq!(images(&tmp.0), 0);
    assert_eq!(results[3].occupancy.len(), 3);
    for (cfg, r) in group.iter().zip(&results) {
        assert_eq!(json(r), json(&run_in(cfg, None).0), "a member is its run");
    }
}

/// The base config of warmup group `g`: different schemes and warmups,
/// one of them zero.
fn group_base(g: u64) -> SimConfig {
    match g {
        0 => small(TranslationScheme::CsaltCd),
        1 => SimConfig {
            warmup_accesses_per_core: 0,
            ..small(TranslationScheme::PomTlb)
        },
        _ => SimConfig {
            warmup_accesses_per_core: 700,
            ..small(TranslationScheme::CsaltD)
        },
    }
}

/// Measured lengths a member draws from, zero included.
const LENGTHS: [u64; 5] = [0, 600, 1_000, 1_500, 2_000];
/// Scan intervals: none, dividing most lengths, dividing few, and
/// longer than every length.
const SCANS: [u64; 4] = [0, 250, 700, 5_000];

proptest! {
    /// A batch of random warmup groups, with a duplicate and a config
    /// answered by an earlier batch mixed in: one run per group that
    /// simulates anything, and every config's result is its straight
    /// run's, in submission order.
    #[test]
    fn random_groups_match_their_straight_runs(
        members in prop::collection::vec((0u64..3, 0usize..5, 0usize..4), 1..7),
    ) {
        let mut configs: Vec<SimConfig> = members
            .iter()
            .map(|&(g, len, scan)| SimConfig {
                accesses_per_core: LENGTHS[len],
                occupancy_scan_interval: SCANS[scan],
                ..group_base(g)
            })
            .collect();
        configs.push(configs[0].clone());
        let sweep = Sweep::new(SweepOptions::default());
        let cached = configs[configs.len() / 2].clone();
        sweep.run_batch(vec![cached.clone()]);

        let mut straight: BTreeMap<String, String> = BTreeMap::new();
        let mut groups = BTreeSet::new();
        for cfg in &configs {
            if let Entry::Vacant(slot) = straight.entry(config_key(cfg)) {
                slot.insert(json(&run_in(cfg, None).0));
                if *cfg != cached {
                    groups.insert(checkpoint::warmup_prefix_json(cfg));
                }
            }
        }
        let results = sweep.run_batch(configs.clone());
        prop_assert_eq!(results.len(), configs.len());
        for (cfg, r) in configs.iter().zip(&results) {
            prop_assert_eq!(&json(r), &straight[&config_key(cfg)]);
        }
        prop_assert_eq!(sweep.stats().runs, 1 + groups.len() as u64);
        prop_assert_eq!(sweep.stats().simulated, straight.len() as u64);
    }
}

#[test]
fn single_worker_override_matches_parallel_results() {
    let configs = vec![
        small(TranslationScheme::Conventional),
        small(TranslationScheme::Tsb),
        small(TranslationScheme::Drrip),
    ];
    let serial = Sweep::new(SweepOptions {
        cache_dir: None,
        jobs: Some(1),
    });
    let parallel = Sweep::new(SweepOptions {
        cache_dir: None,
        jobs: Some(4),
    });
    let a = serial.run_batch(configs.clone());
    let b = parallel.run_batch(configs);
    assert_eq!(serial.stats().simulated, 3);
    assert_eq!(parallel.stats().simulated, 3);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(json(x), json(y), "worker count must not affect results");
    }
}

#[test]
fn cost_model_persists_observed_timings() {
    let tmp = TempDir::new("costs");
    let cfg = small(TranslationScheme::PomTlb);
    let sweep = Sweep::new(SweepOptions::with_dir(&tmp.0));
    sweep.run_batch(vec![cfg.clone()]);

    let costs = std::fs::read_to_string(tmp.0.join("costs.jsonl")).expect("cost model persisted");
    let key = config_key(&cfg);
    let line = costs
        .lines()
        .find(|l| l.contains(&key))
        .expect("an observation for the simulated config");
    assert!(line.contains("wall_secs"), "observation carries wall-clock");
}

#[cfg(feature = "telemetry")]
#[test]
fn per_job_timing_flows_through_telemetry() {
    use csalt_telemetry::{NullRecorder, StreamRecorder};

    let tmp = TempDir::new("telemetry");
    std::fs::create_dir_all(&tmp.0).expect("scratch dir");
    let stream_path = tmp.0.join("sweep.jsonl");
    let sweep = Sweep::new(SweepOptions::default());
    let stream = StreamRecorder::create(&stream_path).expect("stream opens");
    sweep.set_recorder(Box::new(stream));
    sweep.run_batch(vec![
        small(TranslationScheme::PomTlb),
        small(TranslationScheme::CsaltCd),
    ]);
    // Swap the stream back out; dropping it flushes the buffer.
    drop(sweep.set_recorder(Box::new(NullRecorder)));

    let text = std::fs::read_to_string(&stream_path).expect("stream written");
    assert!(
        text.contains("sweep.jobs_simulated"),
        "job counter recorded: {text}"
    );
    assert!(
        text.contains("sweep.job_wall_us"),
        "per-job wall-clock histogram recorded: {text}"
    );
}
