//! Telemetry overhead gate: `run_instrumented` with a [`NullRecorder`]
//! (sampling off) must stay within 2% of the plain `run` path.
//!
//! A disabled recorder routes `run_instrumented` onto the same
//! monomorphized no-op-hooks engine as `run`, so this gate guards that
//! fast path against regressions (someone accidentally forcing the
//! live-hook engine, or adding per-access work ahead of the
//! `is_enabled` check). This harness times alternating plain/
//! instrumented pairs, prints every pair, and fails loudly if the median
//! of the per-pair ratios exceeds the budget. It judges no per-path
//! minimum: heap state moves those by more than the budget on identical
//! code, while a pair's two runs share it.
//!
//! `CSALT_SMOKE=1` shrinks the run for CI.

use csalt_sim::{run_in, run_instrumented, Instrumentation, SimConfig};
use csalt_telemetry::NullRecorder;
use csalt_types::TranslationScheme;
use csalt_workloads::{BenchKind, WorkloadSpec};
use std::path::Path;
use std::time::{Duration, Instant};

const MAX_OVERHEAD: f64 = 0.02;

fn config(accesses: u64) -> SimConfig {
    let mut cfg = SimConfig::new(
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        TranslationScheme::CsaltCd,
    );
    cfg.system.cores = 2;
    cfg.accesses_per_core = accesses;
    cfg.warmup_accesses_per_core = accesses / 4;
    cfg.scale = 0.05;
    cfg
}

fn time_plain(cfg: &SimConfig, cache_dir: &Path) -> Duration {
    let t = Instant::now();
    let (r, _) = run_in(cfg, Some(cache_dir));
    assert!(r.instructions > 0);
    t.elapsed()
}

fn time_instrumented(cfg: &SimConfig, cache_dir: &Path) -> Duration {
    let mut rec = NullRecorder;
    // The same checkpoint directory as the plain path, so both timed
    // paths do identical work.
    let mut inst = Instrumentation {
        recorder: &mut rec,
        sample_interval: 0,
        progress_every_epochs: 0,
        trace: None,
        cache_dir: Some(cache_dir),
    };
    let t = Instant::now();
    let r = run_instrumented(cfg, &mut inst);
    assert!(r.instructions > 0);
    t.elapsed()
}

/// The median of `ratios` (sorted in place; at least one).
fn median(ratios: &mut [f64]) -> f64 {
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    if !n.is_multiple_of(2) {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    }
}

fn main() {
    let smoke = std::env::var("CSALT_SMOKE").is_ok();
    let (accesses, rounds) = if smoke { (15_000, 9) } else { (100_000, 11) };
    let cfg = config(accesses);
    let dir = std::env::temp_dir().join(format!("csalt-telemetry-overhead-{}", std::process::id()));

    // One untimed round of each path warms allocator and caches (and
    // saves the warmup checkpoint every timed round restores).
    time_plain(&cfg, &dir);
    time_instrumented(&cfg, &dir);

    // Each round is one plain/instrumented pair, its order alternating
    // round to round; the pair's ratio is judged, never a time across
    // rounds, so slow drift (thermal, co-tenant load, heap state) that
    // moves both members of a pair together cancels.
    let pair = |round: usize| {
        let (p, i) = if round.is_multiple_of(2) {
            let p = time_plain(&cfg, &dir);
            let i = time_instrumented(&cfg, &dir);
            (p, i)
        } else {
            let i = time_instrumented(&cfg, &dir);
            let p = time_plain(&cfg, &dir);
            (p, i)
        };
        let ratio = i.as_secs_f64() / p.as_secs_f64();
        println!("pair {round}: plain {p:>8.3?}  instrumented {i:>8.3?}  ratio {ratio:.4}");
        ratio
    };
    let mut ratios: Vec<f64> = (0..rounds).map(pair).collect();

    // A median over a few pairs can still carry a few percent of noise.
    // Extra pairs tighten it; only if the gap persists is it a real
    // regression (the paths are meant to be identical).
    let mut extra = 0;
    while median(&mut ratios.clone()) - 1.0 > MAX_OVERHEAD && extra < 4 * rounds {
        ratios.push(pair(rounds + extra));
        extra += 1;
    }
    if extra > 0 {
        println!("took {extra} extra pairs to separate noise from regression");
    }

    let _ = std::fs::remove_dir_all(&dir);

    let pairs = ratios.len();
    let overhead = median(&mut ratios) - 1.0;
    println!(
        "median instrumented(NullRecorder)/plain ratio over {pairs} pairs \
         -> overhead {:+.2}% (budget {:.0}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0,
    );
    assert!(
        overhead <= MAX_OVERHEAD,
        "NullRecorder instrumentation overhead {:.2}% exceeds {:.0}% budget",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0,
    );
}
