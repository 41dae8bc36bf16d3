//! Assembles a markdown report from the JSON results the bench targets
//! persist under `target/csalt-results/`, or summarizes a telemetry
//! stream produced by `csalt-experiments run --telemetry`.
//!
//! Usage:
//! * `csalt-report [results_dir]` — markdown tables to stdout.
//! * `csalt-report --telemetry <file> [--check]` — stream counts,
//!   the per-epoch partition timeline, and per-scheme latency
//!   percentile tables; `--check` exits nonzero on parse errors or walk
//!   traces whose stage cycles don't sum to the recorded total.
//! * `csalt-report trace <file.json> [--check] [--expect-repartitions
//!   <N>]` — validates a Chrome trace exported by `csalt-experiments
//!   run --trace` (balanced spans, per-track monotonic timestamps) and
//!   prints track and span-attribution tables; `--check` exits nonzero
//!   on structural violations or a repartition-instant shortfall.
//! * `csalt-report bench-diff [--history <file>] [--warn-threshold
//!   <pct>] [--strict]` — compares the latest `BENCH_history.jsonl`
//!   entries against the previous clean-tree session per metric
//!   (skipping metrics a bench no longer emits) and warns on
//!   regressions past the threshold (default 10%); exit code stays 0
//!   unless `--strict`.

use csalt_sim::experiments::Table;
use csalt_telemetry::summarize_stream;
use std::io::Write;
use std::path::PathBuf;

/// Prints to stdout, exiting quietly when the reader closes the pipe
/// (e.g. `csalt-report | head`).
fn emit(text: &str) {
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}

/// Summarizes one JSONL telemetry stream: record counts, validation
/// verdict, and a percentile table per latency instrument.
fn telemetry_report(path: &PathBuf, check: bool) {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", path.display());
        std::process::exit(1);
    });
    let summary = summarize_stream(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(1);
    });

    emit(&format!("## Telemetry stream: {}\n", path.display()));
    emit(&format!(
        "{} records ({} provenance, {} epochs, {} walk traces, {} histograms); \
         {} parse errors, {} stage-sum violations\n",
        summary.lines,
        summary.provenance,
        summary.epochs,
        summary.walk_traces,
        summary.histograms,
        summary.parse_errors,
        summary.stage_sum_violations,
    ));
    if let Some(timeline) = partition_timeline(&summary.epoch_records) {
        emit(&timeline);
    }
    for (instrument, title) in [
        ("translation_cycles", "Translation latency (cycles)"),
        ("data_cycles", "Data-path latency (cycles)"),
        ("total_cycles", "Total access latency (cycles)"),
    ] {
        if let Some(table) = summary.percentile_table(instrument, title) {
            emit(&table);
        }
    }
    if check && !summary.is_clean() {
        eprintln!(
            "telemetry check FAILED: {} parse errors, {} stage-sum violations",
            summary.parse_errors, summary.stage_sum_violations,
        );
        std::process::exit(1);
    }
}

/// Renders the per-epoch partition timeline from the stream's epoch
/// records: one row per epoch, with the way split of each partitioned
/// cache as numbers and the L3 data allocation as an ASCII bar. `None`
/// when no epoch carries a partition gauge (unpartitioned schemes).
fn partition_timeline(epochs: &[csalt_telemetry::EpochRecord]) -> Option<String> {
    if !epochs
        .iter()
        .any(|e| e.l2_data_ways.is_some() || e.l3_data_ways.is_some())
    {
        return None;
    }
    let bar_width = epochs
        .iter()
        .filter_map(|e| e.l3_data_ways)
        .max()
        .unwrap_or(0) as usize;
    let ways = |w: Option<u32>| w.map_or_else(|| "-".to_owned(), |w| w.to_string());
    let mut out = String::from("## Partition timeline (data ways per epoch)\n\n");
    out.push_str(&format!(
        "| epoch | accesses | l2 data | l3 data | l3 data bar{} | tlb occ l2 / l3 |\n",
        " ".repeat(bar_width.saturating_sub(11)),
    ));
    out.push_str(&format!(
        "|------:|---------:|--------:|--------:|:-{}|----------------:|\n",
        "-".repeat(bar_width.max(11)),
    ));
    for e in epochs {
        let bar: String = match e.l3_data_ways {
            Some(dw) => "#".repeat(dw as usize),
            None => "-".to_owned(),
        };
        out.push_str(&format!(
            "| {:>5} | {:>8} | {:>7} | {:>7} | {:<width$} | {:>6.1}% / {:.1}% |\n",
            e.epoch,
            e.accesses,
            ways(e.l2_data_ways),
            ways(e.l3_data_ways),
            bar,
            e.l2_tlb_occupancy * 100.0,
            e.l3_tlb_occupancy * 100.0,
            width = bar_width.max(11),
        ));
    }
    Some(out)
}

/// Validates a Chrome trace and prints the track table plus per-domain
/// span attribution. `--check` semantics: exit 1 on structural errors
/// or fewer `repartition` instants than `expect_repartitions`.
fn trace_report(path: &PathBuf, check: bool, expect_repartitions: Option<u64>) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(1);
    });
    let summary = csalt_trace::reader::validate(&text).unwrap_or_else(|e| {
        eprintln!("{}: {e}", path.display());
        std::process::exit(1);
    });

    emit(&format!("## Trace: {}\n", path.display()));
    emit(&format!(
        "{} events across {} tracks; {}\n",
        summary.events,
        summary.tracks.len(),
        if summary.is_valid() {
            "structurally valid (balanced spans, monotonic timestamps)".to_owned()
        } else {
            format!("{} structural violations", summary.errors.len())
        },
    ));
    for e in summary.errors.iter().take(10) {
        emit(&format!("  violation: {e}"));
    }

    emit("| domain | track | spans | instants | max depth | last ts |");
    emit("|:-------|:------|------:|---------:|----------:|--------:|");
    for t in &summary.tracks {
        let domain = match t.pid {
            1 => "cycles",
            2 => "wall",
            _ => "?",
        };
        emit(&format!(
            "| {} | {} | {} | {} | {} | {} |",
            domain,
            t.name.as_deref().unwrap_or("(unnamed)"),
            t.ends,
            t.instants,
            t.max_depth,
            t.last_ts,
        ));
    }
    emit("");

    // Attribution: summed span durations per name, per clock domain.
    // Nested spans (walk stages inside `walk`) count toward both their
    // own row and the enclosing span's, like any flame graph.
    for (pid, title, unit) in [
        (1, "Cycle attribution (simulated)", "cycles"),
        (2, "Wall-time attribution (infrastructure)", "us"),
    ] {
        let rows: Vec<_> = summary.spans.iter().filter(|a| a.pid == pid).collect();
        if rows.is_empty() {
            continue;
        }
        let longest: u64 = rows.iter().map(|a| a.total_duration).max().unwrap_or(0);
        emit(&format!("### {title}\n"));
        emit(&format!("| span | count | total ({unit}) | share |"));
        emit("|:-----|------:|-------------:|------:|");
        for a in &rows {
            emit(&format!(
                "| {} | {} | {} | {:.1}% |",
                a.name,
                a.count,
                a.total_duration,
                if longest == 0 {
                    0.0
                } else {
                    a.total_duration as f64 / longest as f64 * 100.0
                },
            ));
        }
        emit("");
    }

    let repartitions = summary.instant_count(1, "repartition");
    let switches = summary.instant_count(1, "context_switch");
    emit(&format!(
        "instants: {repartitions} repartitions, {switches} context switches\n"
    ));

    let mut failed = false;
    if check && !summary.is_valid() {
        eprintln!(
            "trace check FAILED: {} structural violations",
            summary.errors.len()
        );
        failed = true;
    }
    if let Some(expected) = expect_repartitions {
        if repartitions < expected {
            eprintln!(
                "trace check FAILED: {repartitions} repartition instants, expected >= {expected}"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// One parsed line of `BENCH_history.jsonl` (see `csalt_bench`'s
/// writer). Lines that fail to parse — e.g. older schema vintages —
/// are skipped with a warning, never fatal.
#[derive(Debug, serde::Deserialize)]
struct HistoryLine {
    bench: String,
    metric: String,
    value: f64,
    better: String,
    git_rev: String,
    dirty: bool,
    timestamp: u64,
}

/// One `(bench, metric)` series: its history lines in file order.
type Series = ((String, String), Vec<HistoryLine>);

/// Groups history lines into `(bench, metric)` series, keeping only
/// the series its bench still emits: those with a line in the bench's
/// newest session (greatest timestamp). A metric the bench has stopped
/// recording would otherwise compare its last value forever.
fn current_series(lines: Vec<HistoryLine>) -> Vec<Series> {
    let mut newest: Vec<(String, u64)> = Vec::new();
    for l in &lines {
        match newest.iter_mut().find(|(b, _)| *b == l.bench) {
            Some((_, t)) => *t = (*t).max(l.timestamp),
            None => newest.push((l.bench.clone(), l.timestamp)),
        }
    }
    // Linear scans: a handful of benches and metrics.
    let mut series: Vec<Series> = Vec::new();
    for line in lines {
        let key = (line.bench.clone(), line.metric.clone());
        match series.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(line),
            None => series.push((key, vec![line])),
        }
    }
    series.retain(|((bench, _), v)| {
        newest
            .iter()
            .any(|(b, t)| b == bench && v.iter().any(|l| l.timestamp == *t))
    });
    series
}

/// Compares the latest history entry per `(bench, metric)` against the
/// previous clean-tree entry and reports deltas; regressions beyond
/// `warn_pct` warn (exit 0) unless `strict`.
fn bench_diff(path: &PathBuf, warn_pct: f64, strict: bool) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            // No history yet is a state, not a failure — first sessions
            // must be able to run the gate before anything is recorded.
            println!(
                "bench-diff: no history at {} ({e}); nothing to compare",
                path.display()
            );
            return;
        }
    };
    let mut lines = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        if raw.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<HistoryLine>(raw) {
            Ok(line) if line.bench != "session" => lines.push(line),
            Ok(_) => {}
            Err(e) => eprintln!("bench-diff: skipping line {}: {e}", i + 1),
        }
    }
    let series = current_series(lines);
    if series.is_empty() {
        println!(
            "bench-diff: {} has no metric lines; nothing to compare",
            path.display()
        );
        return;
    }

    emit(&format!("## Bench trajectory: {}\n", path.display()));
    emit("| bench | metric | previous | latest | delta | verdict |");
    emit("|:------|:-------|---------:|-------:|------:|:--------|");
    let mut regressions = 0u32;
    for ((bench, metric), lines) in &series {
        let latest = lines.last().expect("series are non-empty");
        // Baseline: the most recent *clean-tree* entry from an earlier
        // timestamp (dirty numbers never become the floor).
        let baseline = lines
            .iter()
            .rev()
            .skip(1)
            .find(|l| !l.dirty && l.timestamp <= latest.timestamp);
        let Some(base) = baseline else {
            emit(&format!(
                "| {bench} | {metric} | - | {} | - | first clean sample |",
                latest.value,
            ));
            continue;
        };
        let delta_pct = if base.value == 0.0 {
            0.0
        } else {
            (latest.value - base.value) / base.value * 100.0
        };
        // `better: lower` metrics (elapsed seconds) regress upward.
        let signed = if latest.better == "lower" {
            -delta_pct
        } else {
            delta_pct
        };
        let regressed = signed < -warn_pct;
        if regressed {
            regressions += 1;
        }
        // The delta column shows the direction-adjusted sign, so "+"
        // always reads as improvement regardless of the metric's
        // `better` direction; shortest-round-trip value display keeps
        // sub-second timings legible.
        emit(&format!(
            "| {bench} | {metric} | {} | {} | {signed:+.1}% | {} |",
            base.value,
            latest.value,
            if regressed {
                format!("REGRESSION vs {}", base.git_rev)
            } else {
                format!("ok vs {}", base.git_rev)
            },
        ));
    }
    emit("");
    if regressions > 0 {
        eprintln!(
            "bench-diff: {regressions} metrics regressed more than {warn_pct:.0}% \
             against the previous clean session{}",
            if strict { "" } else { " (warn-only)" },
        );
        if strict {
            std::process::exit(1);
        }
    } else {
        println!("bench-diff: no regressions past {warn_pct:.0}%");
    }
}

fn parse_f64_or_die(text: &str, flag: &str) -> f64 {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: '{text}' is not a number");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--telemetry") {
        let Some(path) = args.get(1).map(PathBuf::from) else {
            eprintln!("usage: csalt-report --telemetry <file> [--check]");
            std::process::exit(2);
        };
        let check = args.iter().any(|a| a == "--check");
        telemetry_report(&path, check);
        return;
    }
    if args.first().is_some_and(|a| a == "trace") {
        let Some(path) = args.get(1).map(PathBuf::from) else {
            eprintln!(
                "usage: csalt-report trace <file.json> [--check] [--expect-repartitions <N>]"
            );
            std::process::exit(2);
        };
        let check = args.iter().any(|a| a == "--check");
        let expect = args
            .iter()
            .position(|a| a == "--expect-repartitions")
            .map(|i| {
                args.get(i + 1)
                    .map(|v| {
                        v.parse().unwrap_or_else(|_| {
                            eprintln!("--expect-repartitions: '{v}' is not an integer");
                            std::process::exit(2);
                        })
                    })
                    .unwrap_or_else(|| {
                        eprintln!("--expect-repartitions needs a value");
                        std::process::exit(2);
                    })
            });
        trace_report(&path, check, expect);
        return;
    }
    if args.first().is_some_and(|a| a == "bench-diff") {
        let mut path = PathBuf::from("BENCH_history.jsonl");
        let mut warn_pct = 10.0;
        let mut strict = false;
        let mut it = args.iter().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--history" => {
                    path = it.next().map(PathBuf::from).unwrap_or_else(|| {
                        eprintln!("--history needs a value");
                        std::process::exit(2);
                    });
                }
                "--warn-threshold" => {
                    let v = it.next().map(String::as_str).unwrap_or_else(|| {
                        eprintln!("--warn-threshold needs a value");
                        std::process::exit(2);
                    });
                    warn_pct = parse_f64_or_die(v, "--warn-threshold");
                }
                "--strict" => strict = true,
                other => {
                    eprintln!("bench-diff: unknown flag {other}");
                    std::process::exit(2);
                }
            }
        }
        bench_diff(&path, warn_pct, strict);
        return;
    }
    let dir: PathBuf = args
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/csalt-results"));
    let mut entries: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(std::result::Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "json")
                    && p.file_name().is_some_and(|n| n != "main_comparison.json")
            })
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e} — run the benches first", dir.display());
            std::process::exit(1);
        }
    };
    entries.sort();
    for path in entries {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("skipping {}: {e}", path.display());
                continue;
            }
        };
        match serde_json::from_slice::<Table>(&bytes) {
            Ok(table) => {
                emit(&format!("### {}\n", table.id));
                emit(&table.render_markdown());
            }
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(bench: &str, metric: &str, timestamp: u64) -> HistoryLine {
        HistoryLine {
            bench: bench.to_owned(),
            metric: metric.to_owned(),
            value: 1.0,
            better: "higher".to_owned(),
            git_rev: "abc1234".to_owned(),
            dirty: false,
            timestamp,
        }
    }

    #[test]
    fn series_a_bench_stopped_emitting_are_dropped() {
        let lines = vec![
            line("throughput", "pom-tlb/accesses_per_sec", 10),
            line("throughput", "l0_speedup/geomean", 10),
            line("sweep", "cold_secs", 15),
            line("throughput", "pom-tlb/accesses_per_sec", 20),
        ];
        let keys: Vec<(String, String)> =
            current_series(lines).into_iter().map(|(k, _)| k).collect();
        // The sweep's newest session is its only one, so its series
        // stays even though the throughput bench recorded later.
        assert_eq!(
            keys,
            [
                (
                    "throughput".to_owned(),
                    "pom-tlb/accesses_per_sec".to_owned()
                ),
                ("sweep".to_owned(), "cold_secs".to_owned()),
            ]
        );
    }
}
