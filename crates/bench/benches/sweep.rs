//! Sweep-engine timing: cold vs. warm wall-clock for a deduplicated
//! figure-style suite, recorded in `BENCH_sweep.json` at the repo root.
//!
//! Where `throughput.rs` tracks how fast one simulation runs, this
//! bench tracks how fast the *suite* layer turns the evaluation crank:
//! a cold pass (fresh cache directory) must simulate each unique config
//! exactly once with cross-figure duplicates folded, and a warm pass
//! over the same cache must simulate **nothing** and reproduce
//! byte-identical results. Both invariants are asserted here (the CI
//! cache gate asserts them again at merge time via
//! `csalt-experiments cache-gate`); the timings and hit/dedup counts
//! are what gets recorded.
//!
//! The warmup-group speedup is judged on alternating pairs of cold
//! passes (every unique config simulated straight through, then a
//! sweep over a fresh directory, which runs each warmup group once),
//! so a slow or fast host window lands on both sides of a pair; the
//! verdict is the median pair ratio.
//!
//! Modes:
//!
//! * default (`cargo bench -p csalt-bench --bench sweep`) —
//!   full-length suite, 3 straight/grouped pairs; **rewrites**
//!   `BENCH_sweep.json`.
//! * `CSALT_SMOKE=1` — shorter suite, one pair, asserts the same
//!   invariants, never writes the file.

use csalt_sim::sweep::{engine_fingerprint, git_dirty, git_rev};
use csalt_sim::{SimConfig, SimResult, Sweep, SweepOptions, SweepStats};
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The recorded sweep trajectory: `BENCH_sweep.json`.
#[derive(Debug, Serialize, Deserialize)]
struct SweepRecord {
    /// `git rev-parse --short HEAD` at measurement time (shared
    /// fingerprint helper).
    git_rev: String,
    /// Whether the tree had uncommitted changes at measurement time.
    /// Record mode refuses to replace a clean record for the same
    /// revision with dirty numbers (`CSALT_BENCH_FORCE=1` overrides).
    dirty: bool,
    /// Full engine fingerprint the cache was scoped to.
    engine_fingerprint: String,
    /// Configs submitted across the simulated "figures".
    configs_submitted: usize,
    /// Distinct configs among them.
    configs_unique: usize,
    /// Warmup groups among the distinct configs (one engine run each).
    warmup_groups: usize,
    /// Per-core accesses (measured phase) of each config.
    accesses_per_core: u64,
    /// Baseline cold pass: every unique config simulated straight
    /// through on the sweep's worker count. Median over the pairs.
    cold_secs: f64,
    /// Cold sweep over a fresh directory: one run per warmup group,
    /// byte-identical results. Median over the pairs.
    cold_grouped_secs: f64,
    /// Each pair's `cold / cold_grouped` ratio, in run order.
    pair_speedups: Vec<f64>,
    /// Median of `pair_speedups` — the warmup-group speedup.
    group_speedup: f64,
    /// Warm pass: same cache, zero simulations.
    warm_secs: f64,
    /// Grouped cold sweep counters (`runs` equals `warmup_groups`).
    cold_grouped: SweepStats,
    /// Warm-pass sweep counters.
    warm: SweepStats,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A figure-suite stand-in with genuine cross-figure overlap: the
/// fig07 grid (4 schemes × workloads) plus fig08/fig13-style
/// re-submissions of its baselines, plus — like the real figure
/// harnesses — per-config measured-phase variants (an occupancy-scan
/// figure, a half-length zoom and a quarter-length convergence row)
/// that share the base config's warmup prefix exactly, so each base
/// config and its variants form one warmup group. Warmup equals
/// the measured length, matching `experiments::Harness::default_config`.
///
/// Full mode runs the real per-figure system parameters
/// (`scaled::QUANTUM_10MS` / `scaled::EPOCH_256K` / full scale) so the
/// warmup share of each run is what the actual figure suite pays;
/// smoke mode shrinks them along with the access count to stay fast.
fn suite(accesses: u64, smoke: bool) -> Vec<SimConfig> {
    let mk = |w: &WorkloadSpec, s: TranslationScheme| {
        let mut c = SimConfig::new(w.clone(), s);
        c.system.cores = 2;
        c.system.cs_interval_cycles = if smoke { 40_000 } else { 400_000 };
        c.system.epoch_accesses = if smoke { 10_000 } else { 32_000 };
        c.accesses_per_core = accesses;
        c.warmup_accesses_per_core = accesses;
        c.scale = if smoke { 0.1 } else { 1.0 };
        c
    };
    let workloads = [
        WorkloadSpec::pair("g500_gups", BenchKind::Graph500, BenchKind::Gups),
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        WorkloadSpec::homogeneous("canneal", BenchKind::Canneal),
    ];
    let fig07 = [
        TranslationScheme::Conventional,
        TranslationScheme::PomTlb,
        TranslationScheme::CsaltD,
        TranslationScheme::CsaltCd,
    ];
    let mut configs = Vec::new();
    for w in &workloads {
        for s in fig07 {
            configs.push(mk(w, s));
        }
    }
    // "fig08": conventional + pom-tlb again; "fig13": pom-tlb + csalt-cd.
    for w in &workloads {
        for s in [TranslationScheme::Conventional, TranslationScheme::PomTlb] {
            configs.push(mk(w, s));
        }
        for s in [TranslationScheme::PomTlb, TranslationScheme::CsaltCd] {
            configs.push(mk(w, s));
        }
    }
    // Measured-phase variants of every fig07 config: an occupancy-scan
    // figure, a half-length zoom and a quarter-length convergence row.
    // All share their base's warmup prefix — the warmup groups a cold
    // sweep runs once each.
    for w in &workloads {
        for s in fig07 {
            let mut occ = mk(w, s);
            occ.occupancy_scan_interval = accesses / 32;
            configs.push(occ);
            let mut zoom = mk(w, s);
            zoom.accesses_per_core = accesses / 2;
            configs.push(zoom);
            let mut quarter = mk(w, s);
            quarter.accesses_per_core = accesses / 4;
            configs.push(quarter);
        }
    }
    configs
}

fn json(results: &[SimResult]) -> String {
    serde_json::to_string(results).expect("results serialize")
}

/// The sweep's default worker count for `jobs` jobs.
fn workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, std::num::NonZero::get)
        .clamp(1, jobs.max(1))
}

/// The baseline pass: every unique config simulated straight through
/// (`run_in`, no checkpoints) over an atomic claim index on the sweep's
/// worker count. Returns wall seconds and the results, in submission
/// order, as JSON.
fn straight_pass(configs: &[SimConfig]) -> (f64, String) {
    let t = Instant::now();
    let keys: Vec<String> = configs.iter().map(csalt_sim::sweep::config_key).collect();
    let mut unique: Vec<&SimConfig> = Vec::new();
    let mut index_of = std::collections::BTreeMap::new();
    for (key, cfg) in keys.iter().zip(configs) {
        if !index_of.contains_key(key) {
            index_of.insert(key, unique.len());
            unique.push(cfg);
        }
    }
    let slots: Vec<OnceLock<SimResult>> = unique.iter().map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers(unique.len()) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cfg) = unique.get(i) else { break };
                let (r, _) = csalt_sim::run_in(cfg, None);
                assert!(slots[i].set(r).is_ok(), "one run per unique config");
            });
        }
    });
    let results: Vec<SimResult> = keys
        .iter()
        .map(|k| slots[index_of[k]].get().expect("every config ran").clone())
        .collect();
    (t.elapsed().as_secs_f64(), json(&results))
}

/// One pass of the suite through a new sweep over `dir` (`None`: no
/// persistence): wall seconds, the results as JSON and the sweep's
/// counters.
fn suite_pass(dir: Option<&Path>, configs: &[SimConfig]) -> (f64, String, SweepStats) {
    let t = Instant::now();
    let sweep = Sweep::new(SweepOptions {
        cache_dir: dir.map(Path::to_path_buf),
        jobs: None,
    });
    let results = sweep.run_batch(configs.to_vec());
    let secs = t.elapsed().as_secs_f64();
    (secs, json(&results), sweep.stats())
}

/// Median of an odd-length sample (the pair counts are 1 and 3).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Same guard as `throughput.rs`: never silently replace a clean-tree
/// record for the current revision with dirty-tree numbers. Parses the
/// old file leniently so any schema vintage still protects itself.
fn refuse_dirty_overwrite(path: &Path, rev: &str, dirty: bool) {
    if !dirty || std::env::var("CSALT_BENCH_FORCE").is_ok() {
        return;
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let Ok(old) = serde_json::from_str::<serde_json::Value>(&text) else {
        return;
    };
    let field = |name: &str| {
        old.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == name).map(|(_, v)| v))
    };
    let old_rev = match field("git_rev") {
        Some(serde_json::Value::Str(s)) => Some(s.as_str()),
        _ => None,
    };
    let old_dirty = matches!(field("dirty"), Some(serde_json::Value::Bool(true)));
    if old_rev == Some(rev) && !old_dirty {
        panic!(
            "refusing to overwrite {}: it records rev {rev} from a clean tree, and the \
             tree is now dirty — commit first, or set CSALT_BENCH_FORCE=1 to override",
            path.display(),
        );
    }
}

fn main() {
    let smoke = std::env::var_os("CSALT_SMOKE").is_some();
    // Full mode runs the real per-figure scale (`scaled::ACCESSES_PER_CORE`
    // with warmup = accesses): at smaller sizes the timed warmup is a
    // trivial fraction of a run and a warmup checkpoint has nothing to
    // save, which would understate — not overstate — the suite effect.
    let accesses: u64 = if smoke { 6_000 } else { 120_000 };
    let configs = suite(accesses, smoke);
    let unique = configs
        .iter()
        .map(csalt_sim::sweep::config_key)
        .collect::<std::collections::HashSet<_>>()
        .len();
    let groups = configs
        .iter()
        .map(csalt_sim::checkpoint::warmup_prefix_json)
        .collect::<std::collections::HashSet<_>>()
        .len();

    // Alternating cold pairs: first every unique config simulated
    // straight through (the baseline), then a sweep over a fresh
    // directory, which must run each warmup group once and reproduce
    // the baseline byte-for-byte.
    let pairs = if smoke { 1 } else { 3 };
    let dir = std::env::temp_dir().join(format!("csalt-bench-sweep-{}", std::process::id()));
    let mut cold_times = Vec::new();
    let mut grouped_times = Vec::new();
    let mut pair_speedups = Vec::new();
    let mut baseline: Option<String> = None;
    let mut cold_grouped = SweepStats::default();
    for pair in 0..pairs {
        let (cold_secs, results) = straight_pass(&configs);
        let baseline = baseline.get_or_insert(results);

        let _ = std::fs::remove_dir_all(&dir);
        let (grouped_secs, results, stats) = suite_pass(Some(&dir), &configs);
        assert_eq!(
            stats.simulated as usize, unique,
            "the cold sweep must answer each unique config by simulation"
        );
        assert_eq!(
            stats.deduped as usize,
            configs.len() - unique,
            "cross-figure duplicates must be folded"
        );
        assert_eq!(
            *baseline, results,
            "grouped cold results must be byte-identical to the baseline"
        );
        assert_eq!(
            stats.runs as usize, groups,
            "the cold sweep must make one run per warmup group"
        );
        cold_grouped = stats;
        let ratio = cold_secs / grouped_secs.max(f64::MIN_POSITIVE);
        println!(
            "pair {}: cold {cold_secs:.2}s -> grouped cold {grouped_secs:.2}s ({ratio:.2}x)",
            pair + 1
        );
        cold_times.push(cold_secs);
        grouped_times.push(grouped_secs);
        pair_speedups.push(ratio);
    }
    let cold_json = baseline.expect("at least one pair ran");
    let cold_secs = median(&cold_times);
    let cold_grouped_secs = median(&grouped_times);
    let group_speedup = median(&pair_speedups);

    // Warm: same cache as the last grouped pass, zero simulations.
    let (warm_secs, warm_json, warm) = suite_pass(Some(&dir), &configs);
    assert_eq!(warm.simulated, 0, "warm pass must not simulate");
    assert_eq!(cold_json, warm_json, "warm results must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);

    let record = SweepRecord {
        git_rev: git_rev(),
        dirty: git_dirty(),
        engine_fingerprint: engine_fingerprint(),
        configs_submitted: configs.len(),
        configs_unique: unique,
        warmup_groups: groups,
        accesses_per_core: accesses,
        cold_secs,
        cold_grouped_secs,
        pair_speedups,
        group_speedup,
        warm_secs,
        cold_grouped,
        warm,
    };
    println!(
        "sweep [{}]: {} configs ({} unique, {} deduped) cold {:.2}s -> grouped cold {:.2}s \
         ({:.2}x median of {} pairs, {} runs) -> warm {:.3}s ({} cache hits, 0 simulations){}",
        record.engine_fingerprint,
        record.configs_submitted,
        record.configs_unique,
        record.cold_grouped.deduped,
        record.cold_secs,
        record.cold_grouped_secs,
        record.group_speedup,
        record.pair_speedups.len(),
        record.cold_grouped.runs,
        record.warm_secs,
        record.warm.cache_hits,
        if smoke { " [smoke]" } else { "" },
    );

    // The acceptance bar: a grouped cold suite ≥1.5× the baseline in
    // the median pair (full mode; smoke sizes are dominated by fixed
    // per-run costs and only report). Below 2× is a warning.
    // Checked after the summary line so a failure still prints every
    // pass timing, but before the record is written.
    if !smoke {
        assert!(
            group_speedup >= 1.5,
            "grouped cold suite speedup {group_speedup:.2}x is below the 1.5x bar"
        );
        if group_speedup < 2.0 {
            eprintln!("warning: grouped cold speedup {group_speedup:.2}x is below 2x");
        }
    }

    if !smoke {
        let path = repo_root().join("BENCH_sweep.json");
        refuse_dirty_overwrite(&path, &record.git_rev, record.dirty);
        let mut text = serde_json::to_string_pretty(&record).expect("record serializes");
        text.push('\n');
        std::fs::write(&path, text).expect("BENCH_sweep.json written");
        println!("recorded to {}", path.display());
        csalt_bench::append_history(
            "sweep",
            record.dirty,
            &[
                ("cold_secs".to_owned(), record.cold_secs, "lower"),
                (
                    "cold_grouped_secs".to_owned(),
                    record.cold_grouped_secs,
                    "lower",
                ),
                ("warm_secs".to_owned(), record.warm_secs, "lower"),
            ],
        );
    }
}
