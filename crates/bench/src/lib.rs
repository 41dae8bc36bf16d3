//! Shared plumbing for the per-figure bench targets.
//!
//! Every `cargo bench --bench figNN_*` target regenerates one table or
//! figure of the paper: it runs the corresponding experiment from
//! `csalt_sim::experiments` on the [`harness`], prints the paper-style
//! rows to stdout, and appends the machine-readable result to
//! `target/csalt-results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use csalt_sim::experiments::{Harness, Table};
use csalt_sim::{Sweep, SweepOptions};
use std::io::Write;
use std::path::PathBuf;

/// The figure harness for a bench target, from the environment (a
/// bench binary takes no arguments of its own):
///
/// * `CSALT_CACHE_DIR` — result and checkpoint directory (default
///   `target/csalt-cache/`); `CSALT_NO_CACHE` set — none;
/// * `CSALT_JOBS` — sweep workers (default: all CPUs);
/// * `CSALT_ACCESSES` — per-core measured accesses;
/// * `CSALT_WARMUP` — per-core warmup accesses (default: the access
///   count);
/// * `CSALT_SCALE` — workload footprint multiplier.
///
/// Unset or unparsable values keep the paper-scaled defaults.
#[must_use]
pub fn harness() -> Harness {
    fn env<T: std::str::FromStr>(key: &str) -> Option<T> {
        std::env::var(key).ok()?.parse().ok()
    }
    let cache_dir = if std::env::var_os("CSALT_NO_CACHE").is_some() {
        None
    } else {
        Some(
            std::env::var_os("CSALT_CACHE_DIR")
                .map_or_else(SweepOptions::default_cache_dir, PathBuf::from),
        )
    };
    let jobs = env::<usize>("CSALT_JOBS").filter(|&n| n > 0);
    let mut h = Harness::new(Sweep::new(SweepOptions { cache_dir, jobs }));
    if let Some(n) = env("CSALT_ACCESSES") {
        h.accesses_per_core = n;
        h.warmup_accesses_per_core = n;
    }
    if let Some(n) = env("CSALT_WARMUP") {
        h.warmup_accesses_per_core = n;
    }
    if let Some(x) = env("CSALT_SCALE") {
        h.scale = x;
    }
    h
}

/// Paper-reported reference values for one experiment, printed next to
/// the measured rows so divergence is visible at a glance.
pub struct PaperReference {
    /// Human-readable summary of what the paper measured.
    pub summary: &'static str,
}

/// Runs one experiment end to end: prints the measured table, the
/// paper's reference summary, and persists JSON for EXPERIMENTS.md.
pub fn report(table: &Table, reference: &PaperReference) {
    println!("{}", table.render());
    println!("paper: {}\n", reference.summary);
    if let Err(e) = persist(table) {
        eprintln!("warning: could not persist results: {e}");
    }
}

/// Writes the table as JSON under `target/csalt-results/<id>.json`.
fn persist(table: &Table) -> std::io::Result<()> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    // Slug from the full id (not just the part before the colon) so
    // distinct extensions/ablations never collide on one file.
    let slug: String = table
        .id
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                ' '
            }
        })
        .collect::<String>()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join("_")
        .chars()
        .take(60)
        .collect();
    let path = dir.join(format!("{slug}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(
        serde_json::to_string_pretty(table)
            .expect("table serializes")
            .as_bytes(),
    )?;
    println!("(results written to {})", path.display());
    Ok(())
}

/// One line of `BENCH_history.jsonl`: a single scalar measurement with
/// enough provenance to compare across sessions. The file is
/// append-only — every record-mode bench session adds its numbers, and
/// `csalt-report bench-diff` reads the trajectory back.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct HistoryLine {
    /// Bench target the number came from (`throughput`, `sweep`, …).
    pub bench: String,
    /// Metric path within the bench, e.g. `csalt-cd/accesses_per_sec`.
    pub metric: String,
    /// The measured value.
    pub value: f64,
    /// Which direction is an improvement: `higher` or `lower`.
    pub better: String,
    /// `git rev-parse --short HEAD` at measurement time.
    pub git_rev: String,
    /// Whether the tree had uncommitted changes. `bench-diff` baselines
    /// only against clean-tree lines.
    pub dirty: bool,
    /// `available_parallelism` of the measuring host.
    pub host_threads: usize,
    /// Unix timestamp (seconds) of the append.
    pub timestamp: u64,
}

/// A metric to append: `(path, value, better-direction)`.
pub type HistoryMetric = (String, f64, &'static str);

/// Appends one line per metric to `BENCH_history.jsonl` at the repo
/// root. `dirty` is the tree state the bench read before it measured:
/// by now the bench has rewritten its own record file, so a fresh
/// read would mark every line dirty. Best-effort: history is
/// observability, so failures warn on stderr instead of failing the
/// bench that produced the numbers.
pub fn append_history(bench: &str, dirty: bool, metrics: &[HistoryMetric]) {
    let path = history_path();
    let git_rev = csalt_sim::sweep::git_rev();
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut out = String::new();
    for (metric, value, better) in metrics {
        let line = HistoryLine {
            bench: bench.to_owned(),
            metric: metric.clone(),
            value: *value,
            better: (*better).to_owned(),
            git_rev: git_rev.clone(),
            dirty,
            host_threads,
            timestamp,
        };
        out.push_str(&serde_json::to_string(&line).expect("history line serializes"));
        out.push('\n');
    }
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()));
    match appended {
        Ok(()) => println!(
            "history: {} metrics appended to {}",
            metrics.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: could not append {}: {e}", path.display()),
    }
}

/// `BENCH_history.jsonl` at the repo root.
pub fn history_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_history.jsonl")
}

/// Directory for machine-readable experiment outputs: the *workspace*
/// target directory (cargo runs bench binaries with the package root as
/// CWD, so a relative path would land under `crates/bench/`).
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("csalt-results");
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/csalt-results")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_under_target() {
        let d = results_dir();
        assert!(d.ends_with("csalt-results"));
    }
}
