//! Sweep engine v2: content-addressed result caching, in-process
//! dedup, and a cost-model scheduler for the full figure suite.
//!
//! Reproducing the paper's evaluation (§5) means running hundreds of
//! [`SimConfig`]s across 17+ bench targets, many byte-identical across
//! figures (the fig07 baseline grid reappears in fig08/10/11/13), and
//! every run pays a measurement-length warmup. This module makes the
//! sweep layer — not the simulator — do the saving, in four layers:
//!
//! 1. **Content-addressed result cache.** Every config is keyed by
//!    [`config_key`] — an FNV-1a hash of its canonical JSON (sorted
//!    object keys, shortest-round-trip floats) — and results persist as
//!    JSONL under a cache directory, in a file scoped to the current
//!    [`engine_fingerprint`] (workspace version + git revision + a
//!    dirty-diff hash). A warm re-run of an unchanged suite performs
//!    *zero* simulations; any engine change invalidates everything
//!    automatically because the fingerprint (and hence the file) moves.
//!    Correctness never rests on the 64-bit hash: the in-memory store
//!    is keyed by the full canonical JSON text, so a colliding key can
//!    at worst miss, never alias.
//!
//! 2. **In-process dedup.** Identical configs submitted by different
//!    figures within one process run once and share the result, both
//!    within a batch (duplicates are folded before scheduling) and
//!    across batches (the in-memory store survives between
//!    [`Sweep::run_batch`] calls on the same engine).
//!
//! 3. **Warmup groups.** Configs that differ only in
//!    `accesses_per_core` or `occupancy_scan_interval` are one
//!    simulation stopped at different points or watched more often.
//!    A batch groups its unique configs by the full warmup-prefix text
//!    (`checkpoint::warmup_prefix_json`, never its hash) and runs each
//!    group once ([`crate::run_group`]): one warmup, one measured phase
//!    to the longest member, every member's result taken as the phase
//!    passes its length.
//!
//! 4. **Cost-model scheduler.** Groups are pre-sorted longest-first,
//!    each predicted from its longest member's persisted wall-clock
//!    observation (falling back to an `accesses × cores` estimate
//!    calibrated against everything seen so far), then claimed by
//!    workers through an atomic index — no job mutex, no LIFO
//!    tail-straggling — and each worker writes its results into a
//!    disjoint [`OnceLock`] slot, so there is no results mutex either.
//!    Per-run timings flow back into the persisted cost model and out
//!    through a [`csalt_telemetry::Recorder`], so the schedule
//!    self-improves run over run.
//!
//! A [`Sweep`] is an ordinary value built from the [`SweepOptions`] its
//! caller passes — cache directory and worker count; nothing here reads
//! the environment or keeps a process-wide sweep.
//!
//! Results are bit-identical to sequential execution: a group's run
//! gives each member exactly what `run` of that config gives, the
//! vendored JSON layer round-trips `f64`s exactly (shortest-round-trip
//! formatting), and the sweep-level tests pin that cached, deduped,
//! grouped and freshly-simulated paths agree.

use crate::simulator::{run_group, SimConfig, SimResult};
use csalt_telemetry::{HistogramRecord, NullRecorder, Recorder, TelemetryRecord};
use csalt_trace::{ArgValue, Domain, TraceBuffer, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------
// Canonical hashing and the engine fingerprint.
// ---------------------------------------------------------------------

/// FNV-1a over `bytes`; the workspace's standard cheap stable hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Recursively sorts every object's keys so that serialization order
/// can never leak into the hash.
fn sort_content(value: serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    match value {
        Value::Seq(items) => Value::Seq(items.into_iter().map(sort_content).collect()),
        Value::Map(entries) => {
            let mut entries: Vec<(String, Value)> = entries
                .into_iter()
                .map(|(k, v)| (k, sort_content(v)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Map(entries)
        }
        other => other,
    }
}

/// Canonical JSON for any serializable value: compact, object keys
/// sorted recursively, floats in shortest-round-trip form. Two values
/// have the same canonical JSON iff serde sees them identically, so it
/// is invariant under serde round-trips.
pub fn canonical_json<T: Serialize + ?Sized>(value: &T) -> String {
    let sorted = sort_content(value.to_content());
    serde_json::to_string(&sorted).unwrap_or_else(|_| String::from("null"))
}

/// The content address of one [`SimConfig`]: 16 hex digits of FNV-1a
/// over [`canonical_json`]. Used to key persisted cache entries and the
/// cost model; equality of full canonical text (collision-proof) gates
/// every actual result reuse.
pub fn config_key(cfg: &SimConfig) -> String {
    format!("{:016x}", fnv1a(canonical_json(cfg).as_bytes()))
}

/// The workspace root (compile-time, like every other on-disk anchor in
/// this repo).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn git_output(args: &[&str]) -> Option<Vec<u8>> {
    std::process::Command::new("git")
        .args(args)
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| o.stdout)
}

/// `git rev-parse --short HEAD` at the workspace root, or `"unknown"`.
/// Shared by the bench harness (`BENCH_throughput.json`,
/// `BENCH_sweep.json`) and the engine fingerprint below.
pub fn git_rev() -> String {
    git_output(&["rev-parse", "--short", "HEAD"])
        .and_then(|out| String::from_utf8(out).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Whether the working tree differs from HEAD (`git status --porcelain`
/// non-empty, untracked files included). The bench recorders embed this
/// in `BENCH_*.json` and refuse to overwrite a clean-tree record for
/// the same revision with dirty-tree numbers.
pub fn git_dirty() -> bool {
    git_output(&["status", "--porcelain"]).is_some_and(|out| !out.is_empty())
}

/// Identifies the simulation engine build: workspace version + git
/// revision, plus a hash of the uncommitted diff when the tree is
/// dirty. Any engine change moves the fingerprint and thereby orphans
/// every persisted result (conservative over-invalidation: doc-only
/// commits also invalidate, which costs one cold run and risks nothing).
pub fn engine_fingerprint() -> String {
    static FP: OnceLock<String> = OnceLock::new();
    FP.get_or_init(|| {
        let mut fp = format!("v{}-{}", env!("CARGO_PKG_VERSION"), git_rev());
        let status = git_output(&["status", "--porcelain"]).unwrap_or_default();
        if !status.is_empty() {
            // Untracked files only appear in the status listing, so hash
            // both it and the tracked-content diff.
            let mut bytes = status;
            bytes.extend(git_output(&["diff", "HEAD"]).unwrap_or_default());
            fp.push_str(&format!("-d{:08x}", fnv1a(&bytes) as u32));
        }
        fp.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect()
    })
    .clone()
}

// ---------------------------------------------------------------------
// Options and statistics.
// ---------------------------------------------------------------------

/// Construction-time knobs for a [`Sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Where persisted results and the cost model live; `None`
    /// disables persistence (in-process dedup and warmup groups still
    /// apply).
    pub cache_dir: Option<PathBuf>,
    /// Fixed worker count; `None` = available parallelism.
    pub jobs: Option<usize>,
}

impl SweepOptions {
    /// Persist under `dir` with default parallelism.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            cache_dir: Some(dir.into()),
            jobs: None,
        }
    }

    /// `target/csalt-cache/` at the workspace root: where the binaries
    /// persist unless told otherwise.
    pub fn default_cache_dir() -> PathBuf {
        repo_root().join("target/csalt-cache")
    }
}

/// What one [`Sweep`] has done so far (monotonic counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct SweepStats {
    /// Configs answered by simulation (each warmup group's members).
    pub simulated: u64,
    /// Engine runs: one per warmup group, however many members it
    /// answered.
    pub runs: u64,
    /// Configs resolved without simulating: from the persisted store or
    /// from an earlier batch in this process.
    pub cache_hits: u64,
    /// Duplicate configs folded within batches (beyond the first copy).
    pub deduped: u64,
    /// Persisted results loaded for the current engine fingerprint.
    pub persisted_loaded: u64,
    /// Corrupt or mismatched cache lines skipped (each falls back to
    /// simulation).
    pub cache_errors: u64,
    /// Simulations that restored a warmup checkpoint. A sweep runs
    /// each warmup group once and never checkpoints, so this is always
    /// 0; it stays for readers of older records and `perfbench`'s
    /// `sweep.restored_ratio`.
    pub restored: u64,
}

// Manual deserialization: the vendored derive has no `default`
// attribute, and `BENCH_sweep.json` records written before `runs`
// existed must keep loading. Back then every simulated config was its
// own run, so a missing `runs` reads as `simulated`.
impl Deserialize for SweepStats {
    fn from_content(content: &serde_json::Value) -> Result<Self, serde::DeError> {
        let entries = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("object for struct SweepStats", content))?;
        let simulated = serde::field(entries, "simulated", "SweepStats")?;
        Ok(SweepStats {
            simulated,
            runs: serde::field(entries, "runs", "SweepStats").unwrap_or(simulated),
            cache_hits: serde::field(entries, "cache_hits", "SweepStats")?,
            deduped: serde::field(entries, "deduped", "SweepStats")?,
            persisted_loaded: serde::field(entries, "persisted_loaded", "SweepStats")?,
            cache_errors: serde::field(entries, "cache_errors", "SweepStats")?,
            restored: serde::field(entries, "restored", "SweepStats").unwrap_or(0),
        })
    }
}

#[derive(Debug, Default)]
struct Counters {
    simulated: AtomicU64,
    runs: AtomicU64,
    cache_hits: AtomicU64,
    deduped: AtomicU64,
    persisted_loaded: AtomicU64,
    cache_errors: AtomicU64,
}

// ---------------------------------------------------------------------
// Persistence schema.
// ---------------------------------------------------------------------

/// One persisted result line in `results-<fingerprint>.jsonl`.
#[derive(Debug, Serialize, Deserialize)]
struct CacheEntry {
    /// [`config_key`] of the config (debugging + cost-model join).
    key: String,
    /// Full canonical config JSON — the collision-proof identity.
    config: String,
    /// Observed simulation wall-clock, seconds.
    wall_secs: f64,
    /// The simulation outcome, bit-identical under JSON round-trip.
    result: SimResult,
}

/// One persisted cost observation in `costs.jsonl` (append-only, later
/// lines win; deliberately *not* fingerprint-scoped — stale timings
/// still sort a fresh engine's jobs far better than the heuristic).
#[derive(Debug)]
struct CostEntry {
    /// [`config_key`] of the config.
    key: String,
    /// Observed wall-clock, seconds.
    wall_secs: f64,
    /// Total simulated accesses (warmup + measured, all cores), for
    /// calibrating the fallback estimate.
    accesses: u64,
    /// Whether the config shared its warmup group's run with a longer
    /// member, whose timing that run was. Shared timings are recorded
    /// but kept out of the cost model — they would make the scheduler
    /// (and the fallback throughput calibration) underestimate a run.
    shared: bool,
}

// Manual serde: the vendored derive has no `default` attribute. Lines
// written before `shared` existed carry `restored` (a run that skipped
// its warmup, likewise not a full run's cost) or neither (a full run).
impl Serialize for CostEntry {
    fn to_content(&self) -> serde_json::Value {
        serde_json::Value::Map(vec![
            ("key".to_owned(), self.key.to_content()),
            ("wall_secs".to_owned(), self.wall_secs.to_content()),
            ("accesses".to_owned(), self.accesses.to_content()),
            ("shared".to_owned(), self.shared.to_content()),
        ])
    }
}

impl Deserialize for CostEntry {
    fn from_content(content: &serde_json::Value) -> Result<Self, serde::DeError> {
        let entries = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("object for struct CostEntry", content))?;
        Ok(CostEntry {
            key: serde::field(entries, "key", "CostEntry")?,
            wall_secs: serde::field(entries, "wall_secs", "CostEntry")?,
            accesses: serde::field(entries, "accesses", "CostEntry")?,
            shared: serde::field(entries, "shared", "CostEntry")
                .or_else(|_| serde::field(entries, "restored", "CostEntry"))
                .unwrap_or(false),
        })
    }
}

/// Warmup + measured accesses across all cores: the cost heuristic's
/// size proxy for a config never timed before.
fn total_accesses(cfg: &SimConfig) -> u64 {
    (cfg.accesses_per_core + cfg.warmup_accesses_per_core) * u64::from(cfg.system.cores)
}

// ---------------------------------------------------------------------
// The sweep engine.
// ---------------------------------------------------------------------

fn lock<'a, T>(m: &'a Mutex<T>, _what: &str) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A content-addressed, deduplicating, cost-model-scheduled batch
/// runner for [`SimConfig`]s. See the module docs for the design.
pub struct Sweep {
    fingerprint: String,
    jobs: Option<usize>,
    /// canonical config JSON → result (persisted hits + this process's
    /// completed runs).
    results: Mutex<BTreeMap<String, SimResult>>,
    /// [`config_key`] → (wall seconds, total accesses).
    costs: Mutex<BTreeMap<String, (f64, u64)>>,
    results_file: Mutex<Option<File>>,
    costs_file: Mutex<Option<File>>,
    recorder: Mutex<Box<dyn Recorder>>,
    /// Wall-domain span sink (`--trace` on figure suites): per-job
    /// `simulate` spans on per-worker tracks plus batch-level
    /// cache-hit/dedup instants. `None` keeps the engine untraced.
    trace: Mutex<Option<TraceBuffer>>,
    counters: Counters,
}

/// One traced engine run: `(worker, group index, begin µs, end µs)`.
type RunSpan = (usize, usize, u64, u64);

impl Sweep {
    /// Builds a sweep, loading any persisted results for the current
    /// engine fingerprint and the full cost model from `cache_dir`.
    pub fn new(options: SweepOptions) -> Self {
        let mut sweep = Self {
            fingerprint: engine_fingerprint(),
            jobs: options.jobs,
            results: Mutex::new(BTreeMap::new()),
            costs: Mutex::new(BTreeMap::new()),
            results_file: Mutex::new(None),
            costs_file: Mutex::new(None),
            recorder: Mutex::new(Box::new(NullRecorder)),
            trace: Mutex::new(None),
            counters: Counters::default(),
        };
        if let Some(dir) = options.cache_dir {
            sweep.attach_cache_dir(&dir);
        }
        sweep
    }

    /// The engine fingerprint this sweep's persistence is scoped to.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            simulated: self.counters.simulated.load(Ordering::Relaxed),
            runs: self.counters.runs.load(Ordering::Relaxed),
            cache_hits: self.counters.cache_hits.load(Ordering::Relaxed),
            deduped: self.counters.deduped.load(Ordering::Relaxed),
            persisted_loaded: self.counters.persisted_loaded.load(Ordering::Relaxed),
            cache_errors: self.counters.cache_errors.load(Ordering::Relaxed),
            restored: 0,
        }
    }

    /// Swaps in a telemetry recorder for per-job timing records
    /// (`sweep.jobs_simulated`, `sweep.job_wall_us`, batch gauges),
    /// returning the previous one so callers can inspect or flush it.
    pub fn set_recorder(&self, recorder: Box<dyn Recorder>) -> Box<dyn Recorder> {
        std::mem::replace(&mut *lock(&self.recorder, "recorder"), recorder)
    }

    /// Installs a span-trace sink, mirroring [`Self::set_recorder`]:
    /// subsequent batches emit wall-domain `simulate` spans (one per
    /// job, on its worker's track) and batch instants into it.
    pub fn set_trace(&self, buffer: TraceBuffer) -> Option<TraceBuffer> {
        lock(&self.trace, "trace").replace(buffer)
    }

    /// Removes and returns the installed trace sink, if any — callers
    /// export it with [`csalt_trace::write_chrome`].
    pub fn take_trace(&self) -> Option<TraceBuffer> {
        lock(&self.trace, "trace").take()
    }

    fn attach_cache_dir(&mut self, dir: &Path) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("csalt-sweep: cannot create {}: {e}", dir.display());
            return;
        }
        let results_path = dir.join(format!("results-{}.jsonl", self.fingerprint));
        let costs_path = dir.join("costs.jsonl");
        self.load_results(&results_path);
        self.load_costs(&costs_path);
        let open = |path: &Path| OpenOptions::new().append(true).create(true).open(path).ok();
        *self
            .results_file
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = open(&results_path);
        *self
            .costs_file
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = open(&costs_path);
    }

    /// Loads persisted results, skipping (and counting) any corrupt or
    /// inconsistent line — a truncated tail or a damaged entry just
    /// means that config simulates again.
    fn load_results(&mut self, path: &Path) {
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let results = self
            .results
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<CacheEntry>(line) {
                Ok(entry) if entry.key == format!("{:016x}", fnv1a(entry.config.as_bytes())) => {
                    results.insert(entry.config, entry.result);
                    *self.counters.persisted_loaded.get_mut() += 1;
                }
                _ => *self.counters.cache_errors.get_mut() += 1,
            }
        }
    }

    fn load_costs(&mut self, path: &Path) {
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let costs = self.costs.get_mut().unwrap_or_else(PoisonError::into_inner);
        for line in text.lines() {
            if let Ok(entry) = serde_json::from_str::<CostEntry>(line) {
                // Shared timings never enter the model (see
                // `CostEntry::shared`).
                if !entry.shared {
                    costs.insert(entry.key, (entry.wall_secs, entry.accesses));
                }
            }
        }
    }

    /// Predicted wall-clock for a job: its own last observation if the
    /// cost model has one, else its access count over the calibrated
    /// throughput of everything observed so far (fallback 1M acc/s).
    fn predicted_secs(&self, key: &str, cfg: &SimConfig) -> f64 {
        let costs = lock(&self.costs, "costs");
        if let Some(&(secs, _)) = costs.get(key) {
            return secs;
        }
        let (mut sum_acc, mut sum_secs) = (0.0f64, 0.0f64);
        for &(secs, accesses) in costs.values() {
            sum_acc += accesses as f64;
            sum_secs += secs;
        }
        let throughput = if sum_secs > 0.0 && sum_acc > 0.0 {
            sum_acc / sum_secs
        } else {
            1.0e6
        };
        total_accesses(cfg) as f64 / throughput
    }

    fn worker_count(&self, jobs: usize) -> usize {
        self.jobs
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZero::get)
                    .unwrap_or(4)
            })
            .clamp(1, jobs.max(1))
    }

    /// Runs a batch of configurations, returning one result per config
    /// in submission order. Cached and duplicate configs are never
    /// simulated; the rest are grouped by warmup prefix, each group is
    /// one engine run, and the groups are scheduled longest-first over
    /// `jobs` workers. Outcomes (plus timings) are persisted.
    pub fn run_batch(&self, configs: Vec<SimConfig>) -> Vec<SimResult> {
        let canon: Vec<String> = configs.iter().map(canonical_json).collect();
        let mut out: Vec<Option<SimResult>> = vec![None; configs.len()];

        // Layer 1+2a: resolve against the in-memory store (persisted
        // hits and earlier batches).
        let mut batch_hits: u64 = 0;
        {
            let mem = lock(&self.results, "results");
            for (slot, text) in out.iter_mut().zip(&canon) {
                if let Some(r) = mem.get(text) {
                    *slot = Some(r.clone());
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    batch_hits += 1;
                }
            }
        }

        // Layer 2b: fold duplicates within the batch.
        let mut batch_deduped: u64 = 0;
        let mut job_of: BTreeMap<&str, usize> = BTreeMap::new();
        let mut jobs: Vec<(&str, &SimConfig)> = Vec::new();
        for (i, text) in canon.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            if job_of.contains_key(text.as_str()) {
                self.counters.deduped.fetch_add(1, Ordering::Relaxed);
                batch_deduped += 1;
            } else {
                job_of.insert(text, jobs.len());
                jobs.push((text, &configs[i]));
            }
        }

        // Layer 3: one engine run per warmup group — the jobs whose
        // configs differ only in measured-phase knobs, grouped by the
        // full warmup-prefix text (never by its hash). The groups go
        // longest-first, each predicted from its longest member, over
        // an atomic claim index into disjoint slots. (Execution order
        // cannot affect results — a run is a pure function of its
        // configs — it only shapes the parallel schedule's tail.)
        if !jobs.is_empty() {
            let mut group_of: BTreeMap<String, usize> = BTreeMap::new();
            let mut groups: Vec<Vec<usize>> = Vec::new();
            for (j, (_, cfg)) in jobs.iter().enumerate() {
                let prefix = crate::checkpoint::warmup_prefix_json(cfg);
                let g = *group_of.entry(prefix).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[g].push(j);
            }
            let longest: Vec<usize> = groups
                .iter()
                .map(|members| {
                    members
                        .iter()
                        .copied()
                        .max_by_key(|&j| jobs[j].1.accesses_per_core)
                        .expect("a group has a member")
                })
                .collect();
            let mut order: Vec<(f64, usize)> = longest
                .iter()
                .enumerate()
                .map(|(g, &j)| {
                    let (text, cfg) = jobs[j];
                    let key = format!("{:016x}", fnv1a(text.as_bytes()));
                    (self.predicted_secs(&key, cfg), g)
                })
                .collect();
            order.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            let schedule: Vec<usize> = order.into_iter().map(|(_, g)| g).collect();

            let slots: Vec<OnceLock<(Vec<SimResult>, f64)>> =
                (0..groups.len()).map(|_| OnceLock::new()).collect();
            let workers = self.worker_count(groups.len());
            // Workers push one span after each run, so contention is
            // one lock per run.
            let tracing = lock(&self.trace, "trace").is_some();
            let run_spans: Mutex<Vec<RunSpan>> = Mutex::new(Vec::new());
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let (next, jobs, groups, slots, spans) =
                    (&next, &jobs, &groups, &slots, &run_spans);
                let schedule = &schedule;
                for w in 0..workers {
                    s.spawn(move || loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&g) = schedule.get(pos) else {
                            break;
                        };
                        let begin = if tracing {
                            csalt_trace::timing::wall_micros()
                        } else {
                            0
                        };
                        let t = Instant::now();
                        let members: Vec<SimConfig> =
                            groups[g].iter().map(|&j| jobs[j].1.clone()).collect();
                        let results = run_group(&members);
                        let secs = t.elapsed().as_secs_f64();
                        self.counters
                            .simulated
                            .fetch_add(members.len() as u64, Ordering::Relaxed);
                        self.counters.runs.fetch_add(1, Ordering::Relaxed);
                        if tracing {
                            let end = csalt_trace::timing::wall_micros();
                            lock(spans, "run spans").push((w, g, begin, end));
                        }
                        assert!(slots[g].set((results, secs)).is_ok(), "disjoint slots");
                    });
                }
            });
            self.trace_runs(
                run_spans
                    .into_inner()
                    .unwrap_or_else(PoisonError::into_inner),
                &jobs,
                &groups,
                &longest,
            );

            // Integrate: memory store, persistence, cost model,
            // telemetry — all on the cold path, once per batch. Only
            // the longest member's timing is the run's cost; the
            // others shared that run and are flagged so.
            let mut mem = lock(&self.results, "results");
            let mut recorder = lock(&self.recorder, "recorder");
            for ((slot, members), &lead) in slots.into_iter().zip(&groups).zip(&longest) {
                let (results, secs) = slot.into_inner().expect("every claimed run completed");
                for (&j, result) in members.iter().zip(results) {
                    let (text, cfg) = jobs[j];
                    let key = format!("{:016x}", fnv1a(text.as_bytes()));
                    let accesses = total_accesses(cfg);
                    let shared = j != lead;
                    self.persist_result(&key, text, secs, &result);
                    self.persist_cost(&key, secs, accesses, shared);
                    if !shared {
                        lock(&self.costs, "costs").insert(key, (secs, accesses));
                    }
                    if recorder.is_enabled() {
                        recorder.counter("sweep.jobs_simulated", 1);
                    }
                    mem.insert(text.to_owned(), result);
                }
                if recorder.is_enabled() {
                    recorder.observe("sweep.job_wall_us", (secs * 1.0e6) as u64);
                }
            }
            drop(mem);
            if recorder.is_enabled() {
                let stats = self.stats();
                recorder.gauge("sweep.cache_hits", stats.cache_hits as f64);
                recorder.gauge("sweep.deduped", stats.deduped as f64);
                recorder.gauge("sweep.runs", stats.runs as f64);
                if let Some(h) = recorder.take_histogram("sweep.job_wall_us") {
                    if let Some(record) = HistogramRecord::from_histogram(
                        "sweep.job_wall_us",
                        "sweep",
                        &self.fingerprint,
                        &h,
                    ) {
                        recorder.record(&TelemetryRecord::Histogram { record });
                    }
                }
                recorder.flush();
            }
        }

        // Batch-level trace instants: how much of the batch the cache
        // and dedup layers absorbed (emitted even for all-hit batches,
        // where no worker ever spawns — the warm pass IS the story).
        if let Some(t) = lock(&self.trace, "trace").as_mut() {
            let now = csalt_trace::timing::wall_micros();
            t.set_track_name(Domain::Wall, 0, "sweep batch");
            if batch_hits > 0 {
                t.instant(
                    Domain::Wall,
                    0,
                    now,
                    "cache_hit",
                    vec![("count", ArgValue::U64(batch_hits))],
                );
            }
            if batch_deduped > 0 {
                t.instant(
                    Domain::Wall,
                    0,
                    now,
                    "dedup",
                    vec![("count", ArgValue::U64(batch_deduped))],
                );
            }
        }

        // Fill every unresolved slot from the store (its own run for
        // unique configs, the first copy's run for duplicates).
        let mem = lock(&self.results, "results");
        out.into_iter()
            .zip(&canon)
            .map(|(slot, text)| {
                slot.unwrap_or_else(|| mem.get(text).expect("batch resolved every config").clone())
            })
            .collect()
    }

    /// Emits one wall-domain `simulate` span per engine run onto its
    /// worker's track, labelled with its longest member and its member
    /// count. Spans are sorted by `(worker, begin)` before emission:
    /// each worker ran its groups serially, so the sort makes every
    /// track's event order monotonic regardless of the order the
    /// workers' pushes interleaved in.
    fn trace_runs(
        &self,
        mut spans: Vec<RunSpan>,
        jobs: &[(&str, &SimConfig)],
        groups: &[Vec<usize>],
        longest: &[usize],
    ) {
        if spans.is_empty() {
            return;
        }
        let mut trace = lock(&self.trace, "trace");
        let Some(t) = trace.as_mut() else { return };
        spans.sort_unstable_by_key(|&(w, _, begin, _)| (w, begin));
        for (w, g, begin, end) in spans {
            let tid = 1 + w as u32;
            t.set_track_name(Domain::Wall, tid, format!("sweep worker {w}"));
            let cfg = jobs[longest[g]].1;
            t.begin_args(
                Domain::Wall,
                tid,
                begin,
                "simulate",
                vec![
                    ("workload", ArgValue::from(cfg.workload.name.clone())),
                    ("scheme", ArgValue::from(cfg.scheme.label())),
                    ("accesses", ArgValue::U64(total_accesses(cfg))),
                    ("members", ArgValue::U64(groups[g].len() as u64)),
                ],
            );
            t.end(Domain::Wall, tid, end.max(begin), "simulate");
        }
    }

    fn persist_result(&self, key: &str, config: &str, wall_secs: f64, result: &SimResult) {
        let mut file = lock(&self.results_file, "results file");
        if let Some(f) = file.as_mut() {
            let entry = CacheEntry {
                key: key.to_owned(),
                config: config.to_owned(),
                wall_secs,
                result: result.clone(),
            };
            if let Ok(mut line) = serde_json::to_string(&entry) {
                line.push('\n');
                // One write per line: concurrent appenders from other
                // processes interleave at line granularity, and a torn
                // tail is skipped (and counted) at load time.
                if f.write_all(line.as_bytes()).is_err() {
                    self.counters.cache_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn persist_cost(&self, key: &str, wall_secs: f64, accesses: u64, shared: bool) {
        let mut file = lock(&self.costs_file, "costs file");
        if let Some(f) = file.as_mut() {
            let entry = CostEntry {
                key: key.to_owned(),
                wall_secs,
                accesses,
                shared,
            };
            if let Ok(mut line) = serde_json::to_string(&entry) {
                line.push('\n');
                let _ = f.write_all(line.as_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csalt_types::TranslationScheme;
    use csalt_workloads::{BenchKind, WorkloadSpec};

    fn tiny(scheme: TranslationScheme) -> SimConfig {
        let mut c = SimConfig::new(WorkloadSpec::homogeneous("gups", BenchKind::Gups), scheme);
        c.system.cores = 1;
        c.accesses_per_core = 1_500;
        c.warmup_accesses_per_core = 500;
        c.scale = 0.05;
        c
    }

    #[test]
    fn canonical_json_sorts_keys_and_round_trips() {
        let cfg = tiny(TranslationScheme::CsaltCd);
        let text = canonical_json(&cfg);
        let back: SimConfig = serde_json::from_str(&text).expect("canonical json parses");
        assert_eq!(canonical_json(&back), text);
        assert_eq!(config_key(&back), config_key(&cfg));
        // Sorted: "accesses_per_core" precedes "system" in the text.
        let a = text.find("accesses_per_core").expect("field present");
        let s = text.find("\"system\"").expect("field present");
        assert!(a < s, "object keys are sorted");
    }

    #[test]
    fn config_key_separates_configs() {
        let a = tiny(TranslationScheme::CsaltCd);
        let mut b = a.clone();
        b.seed ^= 1;
        assert_ne!(canonical_json(&a), canonical_json(&b));
        assert_ne!(config_key(&a), config_key(&b));
    }

    #[test]
    fn fingerprint_is_stable_and_filename_safe() {
        let fp = engine_fingerprint();
        assert_eq!(fp, engine_fingerprint());
        assert!(fp
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')));
    }

    #[test]
    fn stats_of_records_without_runs_still_parse() {
        let old = r#"{"simulated": 48, "cache_hits": 0, "deduped": 12,
            "persisted_loaded": 0, "cache_errors": 0, "restored": 36}"#;
        let stats: SweepStats = serde_json::from_str(old).expect("an old record parses");
        assert_eq!((stats.simulated, stats.runs, stats.restored), (48, 48, 36));
        let now = serde_json::to_string(&stats).expect("stats serialize");
        assert_eq!(serde_json::from_str::<SweepStats>(&now).ok(), Some(stats));
    }

    #[test]
    fn shared_and_restored_cost_lines_stay_out_of_the_model() {
        let shared = |line: &str| {
            serde_json::from_str::<CostEntry>(line)
                .expect("a cost line parses")
                .shared
        };
        let line = |flag: &str| format!(r#"{{"key": "k", "wall_secs": 1.5, "accesses": 9{flag}}}"#);
        assert!(shared(&line(r#", "shared": true"#)));
        assert!(shared(&line(r#", "restored": true"#)));
        assert!(!shared(&line("")));
    }

    #[test]
    fn unpersisted_sweep_dedups_in_process() {
        let sweep = Sweep::new(SweepOptions::default());
        let cfg = tiny(TranslationScheme::PomTlb);
        let first = sweep.run_batch(vec![cfg.clone(), cfg.clone()]);
        assert_eq!(sweep.stats().simulated, 1);
        assert_eq!(sweep.stats().deduped, 1);
        let second = sweep.run_batch(vec![cfg]);
        assert_eq!(sweep.stats().simulated, 1, "second batch hit memory");
        assert_eq!(sweep.stats().cache_hits, 1);
        let json = |r: &SimResult| serde_json::to_string(r).expect("result serializes");
        assert_eq!(json(&first[0]), json(&first[1]));
        assert_eq!(json(&first[0]), json(&second[0]));
    }
}
