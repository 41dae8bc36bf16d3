//! Steady-state simulator throughput per translation scheme — the
//! perf-trajectory gate.
//!
//! Every figure replays hundreds of millions of accesses through
//! `MemoryHierarchy::access`, so accesses/sec is the binding constraint
//! on how many scenarios the harness can afford. This bench measures it
//! on a fig07-style configuration (virtualized, 2 contexts/core, scaled
//! quantum and epoch, the `graph500_gups` pairing) for the four Figure 7
//! schemes and records the result in `BENCH_throughput.json` at the repo
//! root, so future PRs are held to the recorded floor.
//!
//! Modes:
//!
//! * default (`cargo bench -p csalt-bench --bench throughput`) —
//!   full-length measurement, best of 3 rounds per scheme; **rewrites**
//!   `BENCH_throughput.json` with the new numbers and the current git
//!   revision. Run this after any intentional perf change.
//! * `CSALT_SMOKE=1` — short run used by `ci.sh`: measures each scheme
//!   at the *smoke* length, compares against the recorded smoke-length
//!   floor (like-for-like: short runs are systematically slower than
//!   the full-length rate because less of the modelled state is warm),
//!   and **fails** if any scheme drops more than 20% below it. The
//!   trace-replay floor is held in the same pass.
//!   Retries a failing comparison up to two more times, keeping each
//!   case's best rate, so a transient co-tenant noise burst does not
//!   fail the gate. Never writes the file.
//!
//! The throughput metric counts every simulated access (warmup +
//! measured phase — both run the identical hot path) divided by the
//! run's wall time, minimized over rounds to reject scheduler noise.
//! Every round is cold: `run` takes no cache directory and never
//! checkpoints, so no round restores a warmup image another round
//! saved.

use csalt_sim::{experiments, run, SimConfig};
use csalt_types::{Asid, TranslationScheme};
use csalt_workloads::{BenchKind, TraceFile, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tolerated drop below the recorded accesses/sec before the smoke
/// gate fails (covers machine-to-machine and co-tenant noise).
const MAX_REGRESSION: f64 = 0.20;

/// The recorded perf trajectory: `BENCH_throughput.json`.
#[derive(Debug, Serialize, Deserialize)]
struct ThroughputRecord {
    /// `git rev-parse --short HEAD` at measurement time.
    git_rev: String,
    /// Whether the tree had uncommitted changes at measurement time.
    /// Record mode refuses to replace a clean record for the same
    /// revision with dirty numbers (see `refuse_dirty_overwrite`).
    dirty: bool,
    /// Workload pairing measured (fig07 x-axis label).
    workload: String,
    /// Simulated cores.
    cores: u32,
    /// Measured-phase accesses per core.
    accesses_per_core: u64,
    /// Warmup accesses per core (also counted — same hot path).
    warmup_accesses_per_core: u64,
    /// Per-scheme steady-state throughput, in fig07 presentation order.
    schemes: Vec<SchemeThroughput>,
    /// v2 staged replay: records/sec through a bare staging loop
    /// with prepacked TLB keys (`TraceFile::next_staged`).
    trace_replay_v2_accesses_per_sec: f64,
    /// Smoke-length v2 staged replay rate — the floor the
    /// `CSALT_SMOKE=1` gate holds trace replay to, inside the same
    /// noise-retry loop as the scheme floors.
    trace_replay_v2_smoke_accesses_per_sec: f64,
}

/// One scheme's recorded measurement at both run lengths.
#[derive(Debug, Serialize, Deserialize)]
struct SchemeThroughput {
    /// `TranslationScheme::label()`.
    scheme: String,
    /// Simulated accesses per wall-clock second (full-length run).
    accesses_per_sec: f64,
    /// Same metric at the smoke-length run — the floor `CSALT_SMOKE=1`
    /// compares against (short runs are systematically slower).
    smoke_accesses_per_sec: f64,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Revision stamped into the record — the sweep engine's shared
/// fingerprint helper, so every BENCH_*.json agrees on provenance.
fn git_rev() -> String {
    csalt_sim::sweep::git_rev()
}

/// The fig07-style configuration: `Harness::default_config` knobs with
/// this bench's own run sizes, so the recorded number is reproducible.
fn config(scheme: TranslationScheme, accesses: u64, warmup: u64) -> SimConfig {
    let mut cfg = SimConfig::new(
        WorkloadSpec::pair("graph500_gups", BenchKind::Graph500, BenchKind::Gups),
        scheme,
    );
    cfg.accesses_per_core = accesses;
    cfg.warmup_accesses_per_core = warmup;
    cfg.scale = experiments::scaled::SCALE;
    cfg.system.cs_interval_cycles = experiments::scaled::QUANTUM_10MS;
    cfg.system.epoch_accesses = experiments::scaled::EPOCH_256K;
    cfg
}

/// Best-of-`rounds` accesses/sec for one configuration. Every round
/// must run its warmup: a restored round would divide warmup plus
/// measured accesses by the measured phase's wall time alone.
fn measure(cfg: &SimConfig, rounds: u32) -> f64 {
    let total_accesses =
        (cfg.accesses_per_core + cfg.warmup_accesses_per_core) * u64::from(cfg.system.cores);
    let restores = csalt_sim::checkpoint::stats().restores;
    let mut best = 0.0f64;
    for _ in 0..rounds {
        let t = Instant::now();
        let r = run(cfg);
        let elapsed = t.elapsed().as_secs_f64();
        assert!(r.instructions > 0, "run produced no work");
        best = best.max(total_accesses as f64 / elapsed);
    }
    assert_eq!(
        csalt_sim::checkpoint::stats().restores,
        restores,
        "a timed round restored a warmup checkpoint"
    );
    best
}

/// Distinct records in the replay micro-loop (wraps like the engine).
const REPLAY_RECORDS: u64 = 65_536;
/// Accesses replayed per full-length timing round.
const REPLAY_ACCESSES: u64 = 4_000_000;
/// Accesses replayed per smoke-length replay timing round.
const REPLAY_SMOKE_ACCESSES: u64 = 500_000;

/// Staged (prepacked keys) replay rate through a bare staging loop:
/// records/sec, best of `rounds`.
fn measure_trace_replay(rounds: u32, accesses: u64) -> f64 {
    let mut g = BenchKind::Graph500.build(1, experiments::scaled::SCALE);
    let records: Vec<_> = (0..REPLAY_RECORDS).map(|_| g.next_access()).collect();
    let mut trace = TraceFile::from_records(records);
    trace.restage(Asid::new(1));

    let mut best = 0.0f64;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..accesses {
            std::hint::black_box(trace.next_staged());
        }
        best = best.max(accesses as f64 / t.elapsed().as_secs_f64());
    }
    best
}

/// (accesses, warmup, rounds) for the smoke-length run.
const SMOKE_RUN: (u64, u64, u32) = (20_000, 20_000, 2);
/// (accesses, warmup, rounds) for the full-length run.
const FULL_RUN: (u64, u64, u32) = (60_000, 60_000, 3);
/// Smoke attempts before a regression verdict sticks (noise bursts).
const SMOKE_ATTEMPTS: u32 = 3;

/// One smoke-length measurement of every fig07 scheme.
fn measure_smoke_all() -> Vec<(String, f64)> {
    let (accesses, warmup, rounds) = SMOKE_RUN;
    experiments::FIG7_SCHEMES
        .into_iter()
        .map(|scheme| {
            let cfg = config(scheme, accesses, warmup);
            (scheme.label(), measure(&cfg, rounds))
        })
        .collect()
}

fn run_smoke_gate(path: &Path) {
    let recorded: ThroughputRecord = serde_json::from_str(&std::fs::read_to_string(path).expect(
        "BENCH_throughput.json missing — record it with \
         `cargo bench -p csalt-bench --bench throughput`",
    ))
    .expect("BENCH_throughput.json must parse");

    /// Prints one floor comparison and says whether it passed.
    fn check(label: &str, now: f64, floor: f64) -> bool {
        let ratio = now / floor;
        let ok = ratio >= 1.0 - MAX_REGRESSION;
        println!(
            "{label:>15}: {now:>12.0} vs recorded {floor:>12.0} ({:+.1}%) {}",
            (ratio - 1.0) * 100.0,
            if ok { "ok" } else { "REGRESSION" },
        );
        ok
    }

    // Keep each case's best rate across attempts: one quiet window is
    // enough to prove the engine is not slower. The trace-replay floor
    // rides the same retry loop as the scheme floors, so a noise burst
    // on any one case costs a retry, never a one-shot verdict.
    let mut best: Vec<(String, f64)> = Vec::new();
    let mut best_replay = 0.0f64;
    for attempt in 1..=SMOKE_ATTEMPTS {
        for (label, aps) in measure_smoke_all() {
            match best.iter_mut().find(|(l, _)| *l == label) {
                Some((_, b)) => *b = b.max(aps),
                None => best.push((label, aps)),
            }
        }
        best_replay = best_replay.max(measure_trace_replay(1, REPLAY_SMOKE_ACCESSES));
        let mut failed = false;
        for rec in &recorded.schemes {
            let Some(now) = best
                .iter()
                .find(|(l, _)| *l == rec.scheme)
                .map(|&(_, aps)| aps)
            else {
                continue;
            };
            failed |= !check(&rec.scheme, now, rec.smoke_accesses_per_sec);
        }
        failed |= !check(
            "trace_replay_v2",
            best_replay,
            recorded.trace_replay_v2_smoke_accesses_per_sec,
        );
        if !failed {
            println!("throughput smoke ok (attempt {attempt}/{SMOKE_ATTEMPTS})");
            return;
        }
        if attempt < SMOKE_ATTEMPTS {
            println!("attempt {attempt}/{SMOKE_ATTEMPTS} below floor; retrying (noise?)");
        }
    }
    panic!(
        "throughput fell more than {:.0}% below the smoke floor recorded in \
         BENCH_throughput.json (rev {}) on {} consecutive attempts; if the \
         slowdown is intended, re-record with \
         `cargo bench -p csalt-bench --bench throughput`",
        MAX_REGRESSION * 100.0,
        recorded.git_rev,
        SMOKE_ATTEMPTS,
    );
}

/// Refuses (exit with a panic) to replace an existing record measured
/// at the *same* revision with a clean tree by one measured with
/// uncommitted changes — dirty-tree numbers would masquerade as that
/// commit's official floor. Parses the old file leniently (any schema
/// vintage) and honors `CSALT_BENCH_FORCE=1` as the escape hatch.
fn refuse_dirty_overwrite(path: &Path, rev: &str, dirty: bool) {
    if !dirty || std::env::var("CSALT_BENCH_FORCE").is_ok() {
        return;
    }
    let Ok(text) = std::fs::read_to_string(path) else {
        return; // Nothing recorded yet: a dirty first record is fine.
    };
    let Ok(old) = serde_json::from_str::<serde_json::Value>(&text) else {
        return; // A corrupt record protects nothing.
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
    let path = repo_root().join("BENCH_throughput.json");
    if std::env::var("CSALT_SMOKE").is_ok() {
        run_smoke_gate(&path);
        return;
    }

    let rev = git_rev();
    let dirty = csalt_sim::sweep::git_dirty();
    refuse_dirty_overwrite(&path, &rev, dirty);

    let (accesses, warmup, rounds) = FULL_RUN;
    let smoke_rates = measure_smoke_all();
    let rate_for = |rates: &[(String, f64)], label: &str| {
        rates
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, aps)| aps)
            .expect("smoke pass covers every fig07 scheme")
    };
    let mut schemes = Vec::new();
    for scheme in experiments::FIG7_SCHEMES {
        let cfg = config(scheme, accesses, warmup);
        let label = scheme.label();
        let aps = measure(&cfg, rounds);
        println!("{label:>14}: {aps:>12.0} acc/s");
        schemes.push(SchemeThroughput {
            scheme: label.clone(),
            accesses_per_sec: aps,
            smoke_accesses_per_sec: rate_for(&smoke_rates, &label),
        });
    }

    let replay_v2 = measure_trace_replay(rounds, REPLAY_ACCESSES);
    println!("trace_replay_v2: {replay_v2:>12.0} rec/s");

    // Smoke-length replay floor, recorded like-for-like so the gate's
    // retry loop compares short runs against short runs.
    let replay_v2_smoke = measure_trace_replay(1, REPLAY_SMOKE_ACCESSES);

    let record = ThroughputRecord {
        git_rev: rev,
        dirty,
        workload: "graph500_gups".to_owned(),
        cores: config(TranslationScheme::Conventional, accesses, warmup)
            .system
            .cores,
        accesses_per_core: accesses,
        warmup_accesses_per_core: warmup,
        schemes,
        trace_replay_v2_accesses_per_sec: replay_v2,
        trace_replay_v2_smoke_accesses_per_sec: replay_v2_smoke,
    };
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    std::fs::write(&path, json + "\n").expect("write BENCH_throughput.json");
    println!("recorded -> {} (dirty: {dirty})", path.display());

    // Trajectory: the same numbers, appended (never rewritten) so
    // `csalt-report bench-diff` can compare sessions over time.
    let mut history: Vec<csalt_bench::HistoryMetric> = Vec::new();
    for s in &record.schemes {
        history.push((
            format!("{}/accesses_per_sec", s.scheme),
            s.accesses_per_sec,
            "higher",
        ));
    }
    history.push((
        "trace_replay_v2/accesses_per_sec".to_owned(),
        record.trace_replay_v2_accesses_per_sec,
        "higher",
    ));
    csalt_bench::append_history("throughput", dirty, &history);
}
