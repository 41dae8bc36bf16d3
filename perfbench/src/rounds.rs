//! Untraced runs (`--trace 0`): cold rounds of one workload and the
//! end-to-end metrics over them.
//!
//! Every round is a true cold run in a process of its own: the
//! benchmark re-runs its own binary with `--round <k>`, and that child
//! gets a fresh, empty cache directory and an empty resident trace
//! store, so no round can restore a checkpoint, reuse a trace or reuse
//! heap an earlier round left behind. The child reports its
//! [`RoundOutcome`] as one JSON line; the parent checks the outcomes and
//! computes the metrics. The single-run workloads rotate their scheme
//! order each round, so host drift lands on all four schemes alike.

use crate::checks::{audit, fingerprint, fnv_hex, pinned, result_json};
use crate::metrics::Report;
use crate::stats::geomean;
use crate::workloads::{total_accesses, unique, Size, Workload};
use csalt_core::MemoryHierarchy;
use csalt_ptw::HugePagePolicy;
use csalt_sim::{build_threads, run_with_generators, SimConfig, SimResult, Sweep, SweepOptions};
use csalt_types::{ContextId, TranslationScheme};
use csalt_workloads::AnyGenerator;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Sweep workers of `cold_sweep`: the host's two hardware threads.
pub const SWEEP_JOBS: usize = 2;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed (goes into `SimConfig.seed`).
    pub seed: u64,
    /// Measuring budget: rounds continue while the next one is expected
    /// to finish within it.
    pub seconds: f64,
    /// Run size.
    pub size: Size,
    /// Rounds run even past the budget.
    pub min_rounds: usize,
    /// Working directory for cache directories and the Chrome trace.
    pub work: PathBuf,
}

/// Points the process at a fresh, empty cache directory and empties the
/// resident trace store.
///
/// The directory is exported through `CSALT_CACHE_DIR` as well as
/// passed to `SweepOptions`: `checkpoint::plan` (and the trace store's
/// disk layer) read the cache directory from the environment, or its
/// `target/csalt-cache/` default, and ignore `SweepOptions.cache_dir`.
/// Without the variable every round would share one checkpoint
/// directory and all but the first would restore warm images.
pub fn fresh_cache(work: &Path, tag: &str) -> PathBuf {
    let dir = work.join(format!("cache-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache directory is creatable");
    std::env::set_var("CSALT_CACHE_DIR", &dir);
    csalt_sim::trace_store::clear_resident();
    dir
}

/// A fresh hierarchy for `cfg`, built as the engine builds it (L0
/// hit-way memos on, the program's default), with one context per VM.
pub fn new_hierarchy(cfg: &SimConfig) -> Result<(MemoryHierarchy, Vec<ContextId>), String> {
    let mut hier = MemoryHierarchy::try_new(
        &cfg.system,
        cfg.scheme,
        cfg.virtualized,
        HugePagePolicy {
            fraction_2m: cfg.huge_fraction,
        },
        cfg.profiler_interval,
    )
    .map_err(|e| e.to_string())?;
    hier.set_l0_memo(true);
    let ctx = (0..cfg.system.contexts_per_core)
        .map(|_| hier.add_context())
        .collect();
    Ok((hier, ctx))
}

/// The set-up a run performs before its first access, timed by direct
/// calls: the generator matrix plus a hierarchy with every VM context
/// registered. Returns the generators for the measured run.
pub fn setup(cfg: &SimConfig) -> Result<Vec<Vec<AnyGenerator>>, String> {
    let threads = build_threads(cfg);
    new_hierarchy(cfg)?;
    Ok(threads)
}

/// One job of one round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Host seconds of the job's run (for the sweep: of the batch).
    pub run_s: f64,
    /// FNV-1a of the result's JSON; `None` when set-up failed or the
    /// run panicked.
    pub result: Option<String>,
    /// The result's A101–A108 violations.
    pub violations: Vec<String>,
}

/// One round's outcome, as the round's process reports it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundOutcome {
    /// Host seconds of the round (single-run workloads: set-up plus the
    /// four runs; the sweep: the batch).
    pub wall_s: f64,
    /// Σ over the round's jobs of the timed set-up.
    pub setup_s: f64,
    /// Peak resident set of the round's process (`VmHWM` at the end of
    /// the round), MiB.
    pub peak_rss_mib: Option<f64>,
    /// Per job, in canonical order (unique jobs for the sweep).
    pub jobs: Vec<JobOutcome>,
    /// The workload fingerprint, if every config produced a result.
    pub fingerprint: Option<String>,
    /// CSALT-CD IPC over POM-TLB IPC, if both ran.
    pub cd_speedup: Option<f64>,
}

fn job_outcome(run_s: f64, result: Option<&SimResult>) -> JobOutcome {
    JobOutcome {
        run_s,
        result: result.map(|r| fnv_hex(result_json(r).as_bytes())),
        violations: result.map(audit).unwrap_or_default(),
    }
}

fn finish(
    wall_s: f64,
    setup_s: f64,
    peak_rss_mib: Option<f64>,
    jobs: Vec<JobOutcome>,
    results: Option<Vec<SimResult>>,
) -> RoundOutcome {
    RoundOutcome {
        wall_s,
        setup_s,
        peak_rss_mib,
        jobs,
        fingerprint: results.as_deref().map(fingerprint),
        cd_speedup: results.as_deref().and_then(cd_speedup),
    }
}

fn single_run_round(configs: &[SimConfig], round: usize, work: &Path) -> RoundOutcome {
    fresh_cache(work, &format!("round{round}"));
    let n = configs.len();
    let mut jobs: Vec<Option<(f64, f64, Option<SimResult>)>> = vec![None; n];
    let t_round = Instant::now();
    for k in 0..n {
        let i = (k + round) % n;
        let cfg = &configs[i];
        let t = Instant::now();
        let threads = catch_unwind(AssertUnwindSafe(|| setup(cfg)))
            .unwrap_or_else(|_| Err("set-up panicked".into()));
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = threads.ok().and_then(|threads| {
            catch_unwind(AssertUnwindSafe(|| run_with_generators(cfg, threads))).ok()
        });
        jobs[i] = Some((setup_s, t.elapsed().as_secs_f64(), result));
    }
    let wall_s = t_round.elapsed().as_secs_f64();
    let jobs: Vec<(f64, f64, Option<SimResult>)> = jobs
        .into_iter()
        .map(|j| j.expect("every job ran"))
        .collect();
    finish(
        wall_s,
        jobs.iter().map(|j| j.0).sum(),
        peak_rss_mib(),
        jobs.iter()
            .map(|j| job_outcome(j.1, j.2.as_ref()))
            .collect(),
        jobs.into_iter().map(|j| j.2).collect(),
    )
}

fn sweep_round(configs: &[SimConfig], round: usize, work: &Path) -> RoundOutcome {
    let dir = fresh_cache(work, &format!("round{round}"));
    let t = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| {
        Sweep::new(SweepOptions {
            cache_dir: Some(dir),
            jobs: Some(SWEEP_JOBS),
        })
        .run_batch(configs.to_vec())
    }))
    .ok();
    let wall_s = t.elapsed().as_secs_f64();
    // Read before the set-up probes, so the peak is the batch's own.
    let peak = peak_rss_mib();

    // The jobs' set-up, timed by direct calls (the batch's workers set
    // the same jobs up internally). An untimed pass first faults the
    // heap in, as the workers find theirs warm after their first job:
    // timed cold, the median of this sum swung by a third from one
    // minute to the next on a shared VM.
    let jobs_cfg = unique(configs);
    let probe = || -> Vec<bool> {
        jobs_cfg
            .iter()
            .map(|cfg| catch_unwind(AssertUnwindSafe(|| setup(cfg))).is_ok_and(|r| r.is_ok()))
            .collect()
    };
    probe();
    let t = Instant::now();
    let set_up = probe();
    let setup_s = t.elapsed().as_secs_f64();

    let canon: Vec<String> = configs
        .iter()
        .map(csalt_sim::sweep::canonical_json)
        .collect();
    let jobs = jobs_cfg
        .iter()
        .zip(set_up)
        .map(|(cfg, ok)| {
            let key = csalt_sim::sweep::canonical_json(cfg);
            let at = canon
                .iter()
                .position(|c| *c == key)
                .expect("job comes from the suite");
            job_outcome(wall_s, results.as_ref().filter(|_| ok).map(|r| &r[at]))
        })
        .collect();
    finish(wall_s, setup_s, peak, jobs, results)
}

/// Runs round `round` of `workload` in this process.
pub fn round(workload: Workload, opts: &RunOptions, round: usize) -> RoundOutcome {
    let configs = workload.configs(opts.seed, opts.size);
    if workload == Workload::ColdSweep {
        sweep_round(&configs, round, &opts.work)
    } else {
        single_run_round(&configs, round, &opts.work)
    }
}

/// `VmHWM` (peak resident set) of this process from
/// `/proc/self/status`, in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Runs cold rounds of `workload` until the budget is spent (at least
/// `opts.min_rounds`), checks every job, and reports the end-to-end
/// metrics. `exec(k)` runs round `k` — in a child process of its own
/// when measuring, in this process in the unit tests — and errors if the
/// round produced no outcome.
pub fn run(
    workload: Workload,
    opts: &RunOptions,
    mut exec: impl FnMut(usize) -> Result<RoundOutcome, String>,
) -> Report {
    let configs = workload.configs(opts.seed, opts.size);
    let sweep = workload == Workload::ColdSweep;
    let jobs_cfg = if sweep {
        unique(&configs)
    } else {
        configs.clone()
    };

    let mut report = Report::new();
    let start = Instant::now();
    let mut rounds: Vec<RoundOutcome> = Vec::new();
    for k in 0.. {
        let t = Instant::now();
        let outcome = exec(k);
        let _ = std::fs::remove_dir_all(opts.work.join(format!("cache-round{k}")));
        match outcome {
            Ok(r) if r.jobs.len() == jobs_cfg.len() => {
                eprintln!(
                    "{} round {}: wall {:.3} s, set-up {:.4} s, peak {:.1} MiB",
                    workload.name(),
                    k + 1,
                    r.wall_s,
                    r.setup_s,
                    r.peak_rss_mib.unwrap_or(f64::NAN)
                );
                rounds.push(r);
            }
            other => {
                let why = other.err().unwrap_or_else(|| "wrong job count".into());
                eprintln!("{} round {} failed: {why}", workload.name(), k + 1);
                report.attempted += jobs_cfg.len() as u64;
                report.failed += jobs_cfg.len() as u64;
            }
        }
        let took = t.elapsed().as_secs_f64();
        if k + 1 >= opts.min_rounds && start.elapsed().as_secs_f64() + took > opts.seconds {
            break;
        }
    }
    if rounds.is_empty() {
        report.correct = false;
        return report;
    }
    check_rounds(&mut report, &rounds, workload, opts.seed);

    // Host time on a shared machine only ever gains interference, so the
    // fastest round is the steadiest estimate of the simulator's own
    // speed: over ten seeded runs per workload on a shared 2-vCPU VM, the
    // quartile spread of the fastest round was 3–11% against 6–18% for
    // the median round. The printed median and quartiles still show
    // every round.
    //
    // Throughput: simulated accesses (warmup + measured) per second of
    // wall time. Single-run workloads take each scheme's best round and
    // report the geometric mean over schemes; the sweep reports its
    // unique jobs' accesses over the fastest batch.
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let fastest = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (value, per_round): (f64, Vec<f64>) = if sweep {
        let work = jobs_cfg.iter().map(total_accesses).sum::<u64>() as f64;
        (work / fastest, walls.iter().map(|w| work / w).collect())
    } else {
        let rate =
            |r: &RoundOutcome, i: usize| total_accesses(&configs[i]) as f64 / r.jobs[i].run_s;
        let per_scheme: Vec<f64> = (0..configs.len())
            .map(|i| rounds.iter().map(|r| rate(r, i)).fold(0.0, f64::max))
            .collect();
        for (cfg, aps) in configs.iter().zip(&per_scheme) {
            println!(
                "{:>14}: {aps:>12.0} acc/s (best of {} rounds)",
                cfg.scheme.label(),
                rounds.len()
            );
        }
        let per_round = rounds
            .iter()
            .map(|r| {
                let v: Vec<f64> = (0..configs.len()).map(|i| rate(r, i)).collect();
                geomean(&v).unwrap_or(f64::NAN)
            })
            .collect();
        (geomean(&per_scheme).unwrap_or(f64::NAN), per_round)
    };
    report.with_samples("accesses_per_s", value, per_round);
    report.with_samples("wall_s", fastest, walls);
    report.median_of("setup_s", rounds.iter().map(|r| r.setup_s).collect());
    // The sweep's peak depends on how its two workers' jobs happen to
    // overlap, which only ever adds memory, so the resident set too
    // takes the best round.
    let peaks: Vec<f64> = rounds
        .iter()
        .map(|r| r.peak_rss_mib.unwrap_or(f64::NAN))
        .collect();
    let smallest = peaks.iter().copied().fold(f64::INFINITY, f64::min);
    report.with_samples("peak_rss_mib", smallest, peaks);
    if let Some(s) = rounds[0].cd_speedup {
        print_model_reference(s, &configs[0]);
    }
    report
}

/// Feeds every check into the report: a job fails if it panicked,
/// violates A101–A108, or differs from the same job in the first round;
/// a round whose workload fingerprint misses its pin fails every job.
fn check_rounds(report: &mut Report, rounds: &[RoundOutcome], workload: Workload, seed: u64) {
    let pin = pinned(workload.name(), seed);
    for (n, round) in rounds.iter().enumerate() {
        let pin_ok = match (&pin, &round.fingerprint) {
            (Some(p), Some(f)) => p == f,
            _ => true,
        };
        if n == 0 {
            println!(
                "fingerprint {} seed {seed}: {} ({})",
                workload.name(),
                round.fingerprint.as_deref().unwrap_or("incomplete"),
                match pin {
                    Some(_) if pin_ok => "matches its pin",
                    Some(_) => "MISMATCHES its pin",
                    None => "unpinned seed",
                }
            );
        }
        for (i, job) in round.jobs.iter().enumerate() {
            report.attempted += 1;
            let problem = if job.result.is_none() {
                Some("panicked or failed set-up".to_owned())
            } else if !job.violations.is_empty() {
                Some(job.violations.join("; "))
            } else if job.result != rounds[0].jobs[i].result {
                Some("result differs from the first round".to_owned())
            } else if !pin_ok {
                Some("workload fingerprint misses its pin".to_owned())
            } else {
                None
            };
            if let Some(p) = problem {
                eprintln!("round {} job {i} failed: {p}", n + 1);
                report.failed += 1;
            }
        }
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "job_failure_ratio {ratio} ({} of {} jobs failed)",
        report.failed, report.attempted
    );
}

/// CSALT-CD IPC over POM-TLB IPC among `results`, if both ran.
pub fn cd_speedup(results: &[SimResult]) -> Option<f64> {
    let ipc = |s| results.iter().find(|r| r.scheme == s).map(SimResult::ipc);
    Some(ipc(TranslationScheme::CsaltCd)? / ipc(TranslationScheme::PomTlb)?)
}

/// Prints CSALT-CD's simulated speedup over POM-TLB next to the
/// paper's figure. The model is unvalidated against hardware, so no
/// error figure is given.
pub fn print_model_reference(speedup: f64, cfg: &SimConfig) {
    println!(
        "sim.csalt_cd_speedup {speedup:.4} (CSALT-CD IPC / POM-TLB IPC, {}; paper: 1.25; unvalidated model)",
        cfg.workload.name
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_outcome_survives_the_process_boundary() {
        let outcome = RoundOutcome {
            wall_s: 1.25,
            setup_s: 0.0625,
            peak_rss_mib: Some(87.5),
            jobs: vec![
                JobOutcome {
                    run_s: 0.5,
                    result: Some("00ff00ff00ff00ff".into()),
                    violations: vec![],
                },
                JobOutcome {
                    run_s: 0.75,
                    result: None,
                    violations: vec!["A101: broken".into()],
                },
            ],
            fingerprint: None,
            cd_speedup: Some(1.0902320308428886),
        };
        let line = serde_json::to_string(&outcome).expect("serializes");
        assert!(!line.contains('\n'), "one line");
        let back: RoundOutcome = serde_json::from_str(&line).expect("parses");
        assert_eq!(back, outcome);
    }
}
