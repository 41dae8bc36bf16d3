//! Host-time benchmark of the CSALT simulator.
//!
//! ```text
//! perfbench --workload <fig07_mix|page_local|cs_storm|cold_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs cold rounds of the workload for about `--seconds`
//! (at least five rounds) and prints the end-to-end metrics; `--trace 1`
//! runs one traced pass and prints the per-layer metrics. Either way the
//! last line of standard output is the JSON result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `README.md` for the workloads, the metrics and how to read the
//! traced run.

mod chain;
mod checks;
mod metrics;
mod rounds;
mod stats;
mod traced;
mod workloads;

use rounds::{RoundOutcome, RunOptions};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Size, Workload};

/// `SimConfig`'s default seed — pinned in `pins.json`.
pub const DEFAULT_SEED: u64 = 0xC5A1_7000;
/// The held-out seed pinned next to the default one.
pub const HELD_OUT_SEED: u64 = 7;
/// Rounds an untraced run makes even past its time budget, so every
/// median rests on at least this many cold runs.
const MIN_ROUNDS: usize = 5;

const USAGE: &str = "usage: perfbench --workload <fig07_mix|page_local|cs_storm|cold_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--round <k>`: run round `k` alone and print its outcome (the
    /// child processes of an untraced run).
    round: Option<usize>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut round = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--round" => round = Some(value.parse::<usize>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        round,
    })
}

/// Removes every `CSALT_*` variable (`CSALT_PIPELINE`, `CSALT_L0`,
/// `CSALT_CKPT`, `CSALT_TRACE_STORE`, `CSALT_JOBS`, `CSALT_NO_CACHE`,
/// `CSALT_ACCESSES`, `CSALT_WARMUP`, `CSALT_SCALE`, …) so the program
/// runs in its default configuration. The rounds then set only
/// `CSALT_CACHE_DIR` (see `rounds::fresh_cache`).
fn clean_env() {
    let keys: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CSALT_"))
        .collect();
    for k in keys {
        std::env::remove_var(k);
    }
}

/// Runs round `round` of an untraced run in a child process — this
/// binary with `--round` — and parses the outcome from the last line of
/// its standard output. The child inherits the cleaned environment and
/// standard error.
fn round_in_child(args: &Args, round: usize) -> Result<RoundOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "0", "--trace", "0"])
        .args(["--round", &round.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the round process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("round process exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last).map_err(|e| format!("bad round outcome {last:?}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    clean_env();
    let work = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work"));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    // The engine fingerprint shells out to git once per process; pay
    // that before anything is timed.
    let _ = csalt_sim::sweep::engine_fingerprint();
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        size: Size::FULL,
        min_rounds: MIN_ROUNDS,
        work,
    };
    if let Some(k) = args.round {
        let outcome = rounds::round(args.workload, &opts, k);
        println!(
            "{}",
            serde_json::to_string(&outcome).expect("outcome serializes")
        );
        return ExitCode::SUCCESS;
    }
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "perfbench {} seed {} ({} host threads)",
        args.workload.name(),
        args.seed,
        host_threads
    );
    let (report, catalogue) = if args.trace {
        (traced::run(args.workload, &opts), metrics::PER_LAYER)
    } else {
        let exec = |k| round_in_child(&args, k);
        (rounds::run(args.workload, &opts, exec), metrics::END_TO_END)
    };
    match report.render(catalogue) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::TINY;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = args(&[
            "--workload",
            "cs_storm",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Workload::CsStorm);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "page_local", "--seed", "-1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "page_local", "--seed", "1", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "page_local", "--seed", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "page_local",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--bogus", "1"]).is_err());
        let child = args(&[
            "--workload",
            "cold_sweep",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--round",
            "4",
        ])
        .expect("valid");
        assert_eq!((child.round, a.round), (Some(4), None));
    }

    fn tiny(work: &str) -> RunOptions {
        let work =
            std::env::temp_dir().join(format!("perfbench-test-{work}-{}", std::process::id()));
        std::fs::create_dir_all(&work).expect("temp dir");
        RunOptions {
            seed: 11,
            seconds: 0.0,
            size: TINY,
            min_rounds: 2,
            work,
        }
    }

    /// Every metric the binary prints is in the catalogue (and so in
    /// `BENCHMARK.json`), and every catalogued metric is printed, in
    /// both modes, on a single-run workload and on the sweep.
    #[test]
    fn both_modes_print_exactly_the_catalogue() {
        for w in [Workload::Fig07Mix, Workload::ColdSweep] {
            let opts = tiny(w.name());
            let untraced = rounds::run(w, &opts, |k| Ok(rounds::round(w, &opts, k)));
            let text = untraced
                .render(metrics::END_TO_END)
                .expect("end-to-end set");
            assert!(untraced.correct && untraced.failed == 0, "{}", w.name());
            assert!(text
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": true")));
            let traced = traced::run(w, &opts);
            traced.render(metrics::PER_LAYER).expect("per-layer set");
            assert!(traced.correct && traced.failed == 0, "{} traced", w.name());
            assert!(traced.value("core.access_ns").is_some_and(|v| v > 0.0));
            assert!(traced
                .value("tlb.l1_calls")
                .is_some_and(|v| (v - 1.0).abs() < 1e-12));
            let _ = std::fs::remove_dir_all(&opts.work);
        }
    }
}
