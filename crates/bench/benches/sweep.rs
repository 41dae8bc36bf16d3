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
//! The checkpoint speedup is judged on alternating pairs of cold passes
//! (checkpointing off, then on, each into a fresh directory), so a slow
//! or fast host window lands on both sides of a pair; the verdict is the
//! median pair ratio.
//!
//! Modes:
//!
//! * default (`cargo bench -p csalt-bench --bench sweep`) —
//!   full-length suite, 3 off/on pairs; **rewrites** `BENCH_sweep.json`.
//! * `CSALT_SMOKE=1` — shorter suite, one pair, asserts the same
//!   invariants, never writes the file.

use csalt_sim::sweep::{engine_fingerprint, git_dirty, git_rev};
use csalt_sim::{SimConfig, SimResult, Sweep, SweepOptions, SweepStats};
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
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
    /// Per-core accesses (measured phase) of each config.
    accesses_per_core: u64,
    /// Cold pass with checkpointing disabled: fresh cache directory,
    /// every unique config simulated straight through (the
    /// pre-checkpoint baseline). Median over the pairs.
    cold_secs: f64,
    /// Cold pass with checkpointed warmup enabled: same suite, fresh
    /// directory, byte-identical results. Median over the pairs.
    cold_ckpt_secs: f64,
    /// Each off/on pair's `cold / cold_ckpt` ratio, in run order.
    pair_speedups: Vec<f64>,
    /// Median of `pair_speedups` — the fork-from-snapshot speedup.
    ckpt_speedup: f64,
    /// Warm pass: same cache, zero simulations.
    warm_secs: f64,
    /// Cold-baseline sweep counters.
    cold: SweepStats,
    /// Checkpointed-cold sweep counters (`restored` > 0 proves the
    /// fork path ran).
    cold_ckpt: SweepStats,
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
/// that share the base config's warmup prefix exactly. Warmup equals
/// the measured length, matching `experiments::default_config`.
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
    // All share their base's warmup prefix — the fork-from-snapshot
    // groups a cold suite restores in.
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

/// One pass of the suite through a new sweep over `dir`: wall seconds,
/// the results as JSON and the sweep's counters.
fn suite_pass(dir: &Path, configs: &[SimConfig]) -> (f64, String, SweepStats) {
    let t = Instant::now();
    let sweep = Sweep::new(SweepOptions::with_dir(dir.to_path_buf()));
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

    // Alternating cold pairs, each pass into a fresh cache directory:
    // first with checkpointing disabled (every unique config simulated
    // straight through — the pre-checkpoint baseline), then with
    // checkpointed warmup on, which must reproduce the baseline
    // byte-for-byte and actually fork from snapshots.
    let pairs = if smoke { 1 } else { 3 };
    let dir = std::env::temp_dir().join(format!("csalt-bench-sweep-{}", std::process::id()));
    let mut cold_times = Vec::new();
    let mut ckpt_times = Vec::new();
    let mut pair_speedups = Vec::new();
    let mut baseline: Option<String> = None;
    let (mut cold, mut cold_ckpt) = (SweepStats::default(), SweepStats::default());
    for pair in 0..pairs {
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("CSALT_CKPT", "off");
        let (cold_secs, results, stats) = suite_pass(&dir, &configs);
        assert_eq!(
            stats.simulated as usize, unique,
            "cold pass must simulate each unique config exactly once"
        );
        assert_eq!(
            stats.deduped as usize,
            configs.len() - unique,
            "cross-figure duplicates must be folded"
        );
        let baseline = baseline.get_or_insert(results);
        cold = stats;

        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("CSALT_CKPT", "on");
        let (ckpt_secs, results, stats) = suite_pass(&dir, &configs);
        assert_eq!(
            stats.simulated as usize, unique,
            "checkpointed cold pass must still simulate each unique config"
        );
        assert_eq!(
            *baseline, results,
            "checkpointed cold results must be byte-identical to the baseline"
        );
        assert!(
            stats.restored > 0,
            "checkpointed cold pass must restore at least one warmup snapshot"
        );
        cold_ckpt = stats;
        let ratio = cold_secs / ckpt_secs.max(f64::MIN_POSITIVE);
        println!(
            "pair {}: cold {cold_secs:.2}s -> ckpt cold {ckpt_secs:.2}s ({ratio:.2}x)",
            pair + 1
        );
        cold_times.push(cold_secs);
        ckpt_times.push(ckpt_secs);
        pair_speedups.push(ratio);
    }
    let cold_json = baseline.expect("at least one pair ran");
    let cold_secs = median(&cold_times);
    let cold_ckpt_secs = median(&ckpt_times);
    let ckpt_speedup = median(&pair_speedups);

    // Warm: same cache as the last checkpointed pass, zero simulations.
    let (warm_secs, warm_json, warm) = suite_pass(&dir, &configs);
    assert_eq!(warm.simulated, 0, "warm pass must not simulate");
    assert_eq!(cold_json, warm_json, "warm results must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::remove_var("CSALT_CKPT");

    let record = SweepRecord {
        git_rev: git_rev(),
        dirty: git_dirty(),
        engine_fingerprint: engine_fingerprint(),
        configs_submitted: configs.len(),
        configs_unique: unique,
        accesses_per_core: accesses,
        cold_secs,
        cold_ckpt_secs,
        pair_speedups,
        ckpt_speedup,
        warm_secs,
        cold,
        cold_ckpt,
        warm,
    };
    println!(
        "sweep [{}]: {} configs ({} unique, {} deduped) cold {:.2}s -> ckpt cold {:.2}s \
         ({:.2}x median of {} pairs, {} restored) -> warm {:.3}s ({} cache hits, 0 simulations){}",
        record.engine_fingerprint,
        record.configs_submitted,
        record.configs_unique,
        record.cold.deduped,
        record.cold_secs,
        record.cold_ckpt_secs,
        record.ckpt_speedup,
        record.pair_speedups.len(),
        record.cold_ckpt.restored,
        record.warm_secs,
        record.warm.cache_hits,
        if smoke { " [smoke]" } else { "" },
    );

    // The acceptance bar: a checkpointed cold suite ≥1.5× the
    // baseline in the median pair (full mode; smoke sizes are dominated
    // by fixed per-checkpoint costs and only report). Below 2× is a
    // warning.
    // Checked after the summary line so a failure still prints every
    // pass timing, but before the record is written.
    if !smoke {
        assert!(
            ckpt_speedup >= 1.5,
            "checkpointed cold suite speedup {ckpt_speedup:.2}x is below the 1.5x bar"
        );
        if ckpt_speedup < 2.0 {
            eprintln!("warning: checkpointed cold speedup {ckpt_speedup:.2}x is below 2x");
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
                ("cold_ckpt_secs".to_owned(), record.cold_ckpt_secs, "lower"),
                ("warm_secs".to_owned(), record.warm_secs, "lower"),
            ],
        );
    }
}
