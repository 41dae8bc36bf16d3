//! Experiment runner CLI: regenerate any of the paper's tables/figures
//! (or the extensions) without going through `cargo bench`.
//!
//! ```sh
//! csalt-experiments list
//! csalt-experiments fig07 fig08
//! csalt-experiments all --jobs 4
//! csalt-experiments run gups csalt-cd --telemetry out.jsonl --telemetry-sample 1000
//! csalt-experiments cache-gate
//! ```
//!
//! Flags taken in any position and applied to every subcommand:
//! `--accesses N` (per-core measured accesses), `--warmup N` (per-core
//! warmup accesses, default: the access count), `--scale F` (footprint
//! multiplier), `--jobs N` (sweep workers), `--cache-dir <path>` (where
//! results, and the warmup checkpoints of `run`, persist, default
//! `target/csalt-cache/`) and `--no-cache` (no persistence and no
//! checkpoints; in-process dedup and warmup groups remain). The
//! environment is not read.

use csalt_sim::experiments as exp;
#[cfg(feature = "telemetry")]
use csalt_sim::{run_instrumented, Instrumentation};
use csalt_sim::{sweep, SimConfig, Sweep, SweepOptions};
#[cfg(feature = "telemetry")]
use csalt_telemetry::{NullRecorder, Recorder, StreamRecorder};
#[cfg(feature = "telemetry")]
use csalt_trace::TraceBuffer;
use csalt_types::{Asid, TranslationScheme};
#[cfg(feature = "telemetry")]
use csalt_workloads::paper_workloads;
use csalt_workloads::{BenchKind, TraceFile, WorkloadSpec};
use std::path::PathBuf;

struct Entry {
    name: &'static str,
    about: &'static str,
    run: fn(&exp::Harness) -> Option<exp::Table>,
}

fn registry() -> Vec<Entry> {
    vec![
        Entry {
            name: "fig01",
            about: "L2 TLB MPKI ratio, context-switch vs not",
            run: |h| Some(exp::fig01(h)),
        },
        Entry {
            name: "tab01",
            about: "page-walk cycles, native vs virtualized",
            run: |h| Some(exp::tab01(h)),
        },
        Entry {
            name: "fig03",
            about: "TLB entries' share of cache capacity",
            run: |h| Some(exp::fig03(h)),
        },
        Entry {
            name: "fig07",
            about: "main comparison, normalized to POM-TLB",
            run: |h| Some(exp::main_comparison(h).fig07()),
        },
        Entry {
            name: "fig08",
            about: "page walks eliminated by POM-TLB",
            run: |h| Some(exp::main_comparison(h).fig08()),
        },
        Entry {
            name: "fig09",
            about: "partition allocation over time (ccomp)",
            run: |h| {
                let t = exp::fig09(h);
                println!("L3 trace: {:?}", t.l3);
                println!("L2 trace: {:?}", t.l2);
                None
            },
        },
        Entry {
            name: "fig10",
            about: "relative L2 data-cache MPKI",
            run: |h| Some(exp::main_comparison(h).fig10()),
        },
        Entry {
            name: "fig11",
            about: "relative L3 data-cache MPKI",
            run: |h| Some(exp::main_comparison(h).fig11()),
        },
        Entry {
            name: "fig12",
            about: "native-mode CSALT-CD",
            run: |h| Some(exp::fig12(h)),
        },
        Entry {
            name: "fig13",
            about: "TSB vs DIP vs CSALT-CD",
            run: |h| Some(exp::fig13(h)),
        },
        Entry {
            name: "fig14",
            about: "context-count sensitivity",
            run: |h| Some(exp::fig14(h)),
        },
        Entry {
            name: "fig15",
            about: "epoch-length sensitivity",
            run: |h| Some(exp::fig15(h)),
        },
        Entry {
            name: "fig16",
            about: "context-switch-interval sensitivity",
            run: |h| Some(exp::fig16(h)),
        },
        Entry {
            name: "ext_5level",
            about: "extension: 5-level (LA57) paging",
            run: |h| Some(exp::ext_5level(h)),
        },
        Entry {
            name: "ext_tsb_csalt",
            about: "extension: CSALT partitioning over the TSB",
            run: |h| Some(exp::ext_tsb_csalt(h)),
        },
        Entry {
            name: "ext_huge_pages",
            about: "extension: THP sensitivity",
            run: |h| Some(exp::ext_huge_pages(h)),
        },
        Entry {
            name: "ext_drrip",
            about: "extension: DRRIP replacement baseline",
            run: |h| Some(exp::ext_drrip(h)),
        },
        Entry {
            name: "ablation_replacement",
            about: "ablation: pseudo-LRU replacement under CSALT",
            run: |h| Some(exp::ablation_replacement(h)),
        },
        Entry {
            name: "ablation_static",
            about: "ablation: static partitions vs dynamic",
            run: |h| Some(exp::ablation_static(h)),
        },
    ]
}

/// `csalt-experiments run <workload> [scheme] [flags]` — one
/// instrumented simulation with the telemetry stream on disk.
///
/// Flags: `--telemetry <path>` (JSONL or CSV by extension; omitted =
/// discard records, still useful with `--progress`),
/// `--telemetry-sample <N>` (trace every Nth translation; 0 = off),
/// `--trace <path>` (span trace in Chrome Trace Event JSON — open in
/// Perfetto/`chrome://tracing`, or inspect with `csalt-report trace`),
/// `--progress <N>` (heartbeat every N epochs on stderr).
#[cfg(feature = "telemetry")]
fn run_single(args: &[String], flags: &GlobalFlags) {
    let mut workload_name: Option<&str> = None;
    let mut scheme = TranslationScheme::CsaltCd;
    let mut telemetry_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut sample_interval: u64 = 0;
    let mut progress: u64 = 0;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--telemetry" => telemetry_path = Some(PathBuf::from(value("--telemetry"))),
            "--trace" => trace_path = Some(PathBuf::from(value("--trace"))),
            "--telemetry-sample" => {
                sample_interval = parse_or_die(value("--telemetry-sample"), "--telemetry-sample");
            }
            "--progress" => progress = parse_or_die(value("--progress"), "--progress"),
            name if workload_name.is_none() => workload_name = Some(name),
            label => {
                scheme = TranslationScheme::parse_label(label).unwrap_or_else(|| {
                    eprintln!(
                        "unknown scheme '{label}' — try conventional, pom-tlb, csalt-d, \
                         csalt-cd, dip, tsb, tsb-csalt, drrip or static-<ways>"
                    );
                    std::process::exit(2);
                });
            }
        }
    }

    let Some(name) = workload_name else {
        eprintln!("usage: csalt-experiments run <workload> [scheme] [--telemetry <path>] [--telemetry-sample <N>] [--trace <path>] [--progress <N>] [--accesses <N>] [--warmup <N>] [--scale <F>]");
        std::process::exit(2);
    };
    let workload = paper_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| {
            let known: Vec<String> = paper_workloads().into_iter().map(|w| w.name).collect();
            eprintln!("unknown workload '{name}' — one of: {}", known.join(", "));
            std::process::exit(2);
        });

    // One run needs the harness's configuration, not its sweep.
    let mut cfg = flags
        .harness(SweepOptions::default())
        .default_config(workload, scheme);
    // The span trace reads repartition decisions (and their
    // marginal-utility curves) off the partition trace, so turn it on.
    if trace_path.is_some() {
        cfg.trace_partitions = true;
    }

    let mut stream: Option<StreamRecorder> = telemetry_path.as_deref().map(|path| {
        StreamRecorder::create(path).unwrap_or_else(|e| {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        })
    });
    let mut null = NullRecorder;
    let recorder: &mut dyn Recorder = match stream.as_mut() {
        Some(s) => s,
        None => &mut null,
    };
    let mut trace_buf = trace_path.as_ref().map(|_| TraceBuffer::new());
    let mut inst = Instrumentation {
        recorder,
        sample_interval,
        progress_every_epochs: progress,
        trace: trace_buf.as_mut(),
        cache_dir: flags.sweep.cache_dir.as_deref(),
    };
    let result = run_instrumented(&cfg, &mut inst);

    println!(
        "{} / {}: ipc {:.4}, l2-tlb mpki {:.2}, walks {}, translation cyc/acc {:.1}",
        cfg.workload.name,
        scheme.label(),
        result.ipc(),
        result.l2_tlb_mpki(),
        result.snapshot.page_walks,
        result.snapshot.translation_cycles as f64 / result.snapshot.accesses.max(1) as f64,
    );
    if let Some(s) = &stream {
        if let Some(path) = &telemetry_path {
            println!(
                "telemetry: {} records to {} ({} skipped)",
                s.records_written(),
                path.display(),
                s.records_skipped(),
            );
        }
    }
    if let (Some(buf), Some(path)) = (&trace_buf, &trace_path) {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot open {}: {e}", path.display());
            std::process::exit(1);
        });
        let mut out = std::io::BufWriter::new(file);
        csalt_trace::write_chrome(buf, &mut out).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        println!(
            "trace: {} span events to {} (load in Perfetto, or `csalt-report trace`)",
            buf.len(),
            path.display(),
        );
    }
}

fn parse_or_die(text: &str, flag: &str) -> u64 {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: '{text}' is not a non-negative integer");
        std::process::exit(2);
    })
}

/// `csalt-experiments trace-record <bench> <out.trace>` — record a
/// benchmark's access stream to a (v2, staged) trace file.
///
/// Flags: `--count <N>` records (default 1,000,000), `--seed <N>`,
/// `--asid <N>` the ASID the packed keys are staged for (default 1 —
/// what a single-VM replay run assigns). The global `--scale` sets the
/// footprint multiplier.
fn trace_record(args: &[String], scale: f64) {
    let mut bench: Option<BenchKind> = None;
    let mut out: Option<PathBuf> = None;
    let mut count: u64 = 1_000_000;
    let mut seed: u64 = 0xC5A1_7000;
    let mut asid: u64 = 1;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next().map(String::as_str).unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--count" => count = parse_or_die(value("--count"), "--count"),
            "--seed" => seed = parse_or_die(value("--seed"), "--seed"),
            "--asid" => asid = parse_or_die(value("--asid"), "--asid"),
            name if bench.is_none() => {
                bench = Some(
                    BenchKind::ALL
                        .into_iter()
                        .find(|b| b.name() == name)
                        .unwrap_or_else(|| {
                            let known: Vec<&str> =
                                BenchKind::ALL.iter().map(BenchKind::name).collect();
                            eprintln!("unknown benchmark '{name}' — one of: {}", known.join(", "));
                            std::process::exit(2);
                        }),
                );
            }
            path if out.is_none() => out = Some(PathBuf::from(path)),
            extra => {
                eprintln!("unexpected argument '{extra}'");
                std::process::exit(2);
            }
        }
    }
    let (Some(bench), Some(out)) = (bench, out) else {
        eprintln!(
            "usage: csalt-experiments trace-record <bench> <out.trace> \
             [--count <N>] [--seed <N>] [--scale <F>] [--asid <N>]"
        );
        std::process::exit(2);
    };
    let asid = u16::try_from(asid).unwrap_or_else(|_| {
        eprintln!("--asid: {asid} does not fit in 16 bits");
        std::process::exit(2);
    });
    if count == 0 {
        eprintln!("--count must be nonzero (a valid trace is never empty)");
        std::process::exit(2);
    }
    let mut generator = bench.build(seed, scale);
    if let Err(e) = TraceFile::record_v2(&out, generator.as_mut(), count, Asid::new(asid)) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!(
        "recorded {count} {} accesses to {} (v2, staged for asid {asid})",
        bench.name(),
        out.display(),
    );
}

/// The flags every subcommand takes, in any position.
struct GlobalFlags {
    /// `--cache-dir` (default [`SweepOptions::default_cache_dir`]),
    /// `None` under `--no-cache`; `--jobs`.
    sweep: SweepOptions,
    /// `--accesses`: per-core measured accesses.
    accesses: Option<u64>,
    /// `--warmup`: per-core warmup accesses (default: the access count).
    warmup: Option<u64>,
    /// `--scale`: workload footprint multiplier.
    scale: Option<f64>,
}

impl GlobalFlags {
    /// Removes the global flags from `args` and parses them.
    fn extract(args: &mut Vec<String>) -> Self {
        let mut flags = GlobalFlags {
            sweep: SweepOptions::with_dir(SweepOptions::default_cache_dir()),
            accesses: None,
            warmup: None,
            scale: None,
        };
        let mut no_cache = false;
        let mut i = 0;
        while i < args.len() {
            let take_value = |args: &mut Vec<String>, flag: &str| {
                args.remove(i);
                if i < args.len() {
                    args.remove(i)
                } else {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                }
            };
            match args[i].as_str() {
                "--jobs" => {
                    let v = take_value(args, "--jobs");
                    match v.parse::<usize>() {
                        Ok(n) if n > 0 => flags.sweep.jobs = Some(n),
                        _ => {
                            eprintln!("--jobs: '{v}' is not a positive integer");
                            std::process::exit(2);
                        }
                    }
                }
                "--cache-dir" => {
                    flags.sweep.cache_dir = Some(PathBuf::from(take_value(args, "--cache-dir")));
                }
                "--no-cache" => {
                    args.remove(i);
                    no_cache = true;
                }
                "--accesses" => {
                    let v = take_value(args, "--accesses");
                    flags.accesses = Some(parse_or_die(&v, "--accesses"));
                }
                "--warmup" => {
                    let v = take_value(args, "--warmup");
                    flags.warmup = Some(parse_or_die(&v, "--warmup"));
                }
                "--scale" => {
                    let v = take_value(args, "--scale");
                    match v.parse::<f64>() {
                        Ok(x) if x.is_finite() && x > 0.0 => flags.scale = Some(x),
                        _ => {
                            eprintln!("--scale: '{v}' is not a positive number");
                            std::process::exit(2);
                        }
                    }
                }
                _ => i += 1,
            }
        }
        if no_cache {
            flags.sweep.cache_dir = None;
        }
        flags
    }

    /// The figure harness these flags describe, over a sweep built
    /// from `sweep`.
    fn harness(&self, sweep: SweepOptions) -> exp::Harness {
        let mut h = exp::Harness::new(Sweep::new(sweep));
        if let Some(n) = self.accesses {
            h.accesses_per_core = n;
            h.warmup_accesses_per_core = n;
        }
        if let Some(n) = self.warmup {
            h.warmup_accesses_per_core = n;
        }
        if let Some(x) = self.scale {
            h.scale = x;
        }
        h
    }
}

/// The cache-gate suite: a fig07-style grid plus the cross-figure
/// duplicate submissions fig13-style harnesses produce, at smoke size.
/// 12 configs, 8 unique — the gate pins both numbers.
fn gate_configs() -> Vec<SimConfig> {
    let mk = |w: &WorkloadSpec, s: TranslationScheme| {
        let mut c = SimConfig::new(w.clone(), s);
        c.system.cores = 2;
        c.system.cs_interval_cycles = 40_000;
        c.system.epoch_accesses = 10_000;
        c.accesses_per_core = 4_000;
        c.warmup_accesses_per_core = 2_000;
        c.scale = 0.05;
        c
    };
    let pair = WorkloadSpec::pair("g500_gups", BenchKind::Graph500, BenchKind::Gups);
    let gups = WorkloadSpec::homogeneous("gups", BenchKind::Gups);
    let mut configs = Vec::new();
    for w in [&pair, &gups] {
        for s in exp::FIG7_SCHEMES {
            configs.push(mk(w, s));
        }
    }
    // A second "figure" re-submitting two of the same baselines.
    for w in [&pair, &gups] {
        for s in [TranslationScheme::PomTlb, TranslationScheme::CsaltCd] {
            configs.push(mk(w, s));
        }
    }
    configs
}

/// `csalt-experiments cache-gate`: runs the smoke suite cold into a
/// fresh cache directory, then warm from it, and fails (exit 1) unless
/// the cold pass simulated exactly the unique configs, the warm pass
/// simulated **nothing**, and both passes produced byte-identical
/// results. This is the CI proof of the sweep engine's contract.
fn cache_gate() {
    let dir = std::env::temp_dir().join(format!("csalt-cache-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let configs = gate_configs();
    let unique = configs
        .iter()
        .map(sweep::config_key)
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;
    let total = configs.len() as u64;

    let json = |results: &[csalt_sim::SimResult]| {
        serde_json::to_string(results).expect("results serialize")
    };
    let fail = |msg: &str| -> ! {
        eprintln!("cache gate FAILED: {msg}");
        std::process::exit(1);
    };

    let t = std::time::Instant::now();
    let cold_sweep = Sweep::new(SweepOptions::with_dir(dir.clone()));
    let cold = cold_sweep.run_batch(configs.clone());
    let cold_secs = t.elapsed().as_secs_f64();
    let s = cold_sweep.stats();
    if s.simulated != unique {
        fail(&format!(
            "cold pass simulated {} configs, expected {unique} unique",
            s.simulated
        ));
    }
    if s.deduped != total - unique {
        fail(&format!(
            "cold pass deduped {} configs, expected {}",
            s.deduped,
            total - unique
        ));
    }

    let t = std::time::Instant::now();
    let warm_sweep = Sweep::new(SweepOptions::with_dir(dir.clone()));
    let warm = warm_sweep.run_batch(configs);
    let warm_secs = t.elapsed().as_secs_f64();
    let s = warm_sweep.stats();
    if s.simulated != 0 {
        fail(&format!(
            "warm pass simulated {} configs, expected 0 (cache_errors: {})",
            s.simulated, s.cache_errors
        ));
    }
    if json(&cold) != json(&warm) {
        fail("warm results are not byte-identical to the cold run");
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "cache gate OK [{}]: cold {unique} sims ({} deduped of {total}) in {cold_secs:.2}s; \
         warm 0 sims ({} hits) in {warm_secs:.2}s; results byte-identical",
        sweep::engine_fingerprint(),
        total - unique,
        s.cache_hits,
    );
}

/// `csalt-experiments ckpt-gate`: proof of the fork-from-snapshot
/// contract and of the sweep's warmup groups. Runs a suite whose
/// configs share warmup prefixes three ways: every unique config
/// straight through with no checkpoints; each warmup group's first
/// config (its leader) and then the rest (its followers) through
/// `run_in` over a fresh checkpoint directory; and the whole suite
/// through one sweep batch. Fails (exit 1) unless the checkpointed runs
/// are byte-identical to the straight ones, no image was rejected (zero
/// fallbacks), every follower restored, and the sweep made one run per
/// warmup group with results byte-identical to the straight runs. A
/// decoder that rejected its own images would otherwise pass as silent
/// cold runs.
fn ckpt_gate() {
    // Base suite plus, per unique config, a variant that differs only
    // in measured-phase length — same warmup prefix, different config
    // key — so every warmup group has a leader and a follower.
    let mut configs = gate_configs();
    let variants: Vec<SimConfig> = {
        let mut seen = std::collections::BTreeSet::new();
        configs
            .iter()
            .filter(|c| seen.insert(sweep::config_key(c)))
            .map(|c| {
                let mut v = c.clone();
                v.accesses_per_core *= 2;
                v
            })
            .collect()
    };
    configs.extend(variants);
    // Unique configs in submission order, and their warmup groups in
    // order of first appearance.
    let mut unique: Vec<&SimConfig> = Vec::new();
    let mut index_of = std::collections::BTreeMap::new();
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for c in &configs {
        if index_of.contains_key(&sweep::config_key(c)) {
            continue;
        }
        index_of.insert(sweep::config_key(c), unique.len());
        let prefix = csalt_sim::checkpoint::warmup_prefix_json(c);
        match groups.iter_mut().find(|(p, _)| *p == prefix) {
            Some((_, members)) => members.push(unique.len()),
            None => groups.push((prefix, vec![unique.len()])),
        }
        unique.push(c);
    }
    let followers = (unique.len() - groups.len()) as u64;

    let json = |r: &csalt_sim::SimResult| serde_json::to_string(r).expect("result serializes");
    let fail = |msg: &str| -> ! {
        eprintln!("ckpt gate FAILED: {msg}");
        std::process::exit(1);
    };
    if followers == 0 {
        fail("the gate suite has no follower configs — nothing can restore");
    }

    let t = std::time::Instant::now();
    let straight: Vec<String> = unique
        .iter()
        .map(|c| json(&csalt_sim::run_in(c, None).0))
        .collect();
    let straight_secs = t.elapsed().as_secs_f64();

    let dir = std::env::temp_dir().join(format!("csalt-ckpt-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let before = csalt_sim::checkpoint::stats();
    let t = std::time::Instant::now();
    let mut followers_restored = 0u64;
    for (_, members) in &groups {
        for (rank, &u) in members.iter().enumerate() {
            let (r, restored) = csalt_sim::run_in(unique[u], Some(&dir));
            if json(&r) != straight[u] {
                let _ = std::fs::remove_dir_all(&dir);
                fail("a checkpointed run is not byte-identical to its straight run");
            }
            if rank > 0 && restored {
                followers_restored += 1;
            }
        }
    }
    let ckpt_secs = t.elapsed().as_secs_f64();
    let after = csalt_sim::checkpoint::stats();
    let _ = std::fs::remove_dir_all(&dir);
    let restores = after.restores.saturating_sub(before.restores);
    let saves = after.saves.saturating_sub(before.saves);
    let fallbacks = after.fallbacks.saturating_sub(before.fallbacks);
    if fallbacks != 0 {
        fail(&format!(
            "{fallbacks} checkpoint image(s) were rejected and ran cold ({restores} restores)"
        ));
    }
    if restores < followers || followers_restored < followers {
        fail(&format!(
            "{restores} restores ({followers_restored} by followers) for {followers} follower \
             configs — some followers warmed up cold"
        ));
    }

    let t = std::time::Instant::now();
    let sweep = Sweep::new(SweepOptions {
        cache_dir: None,
        jobs: None,
    });
    let results = sweep.run_batch(configs.clone());
    let sweep_secs = t.elapsed().as_secs_f64();
    let stats = sweep.stats();
    if stats.runs != groups.len() as u64 {
        fail(&format!(
            "the sweep made {} runs for {} warmup groups",
            stats.runs,
            groups.len()
        ));
    }
    for (c, r) in configs.iter().zip(&results) {
        if json(r) != straight[index_of[&sweep::config_key(c)]] {
            fail("a sweep result is not byte-identical to its straight run");
        }
    }
    println!(
        "ckpt gate OK [{}]: {} configs in {} warmup groups; straight {straight_secs:.2}s, \
         checkpointed {ckpt_secs:.2}s ({saves} saves, {restores} restores for {followers} \
         followers, 0 fallbacks), sweep {sweep_secs:.2}s ({} runs); results byte-identical",
        sweep::engine_fingerprint(),
        unique.len(),
        groups.len(),
        stats.runs,
    );
}

/// Every GC-eligible artifact in the cache dir: regenerable,
/// fingerprint-scoped (or content-keyed) files only. `costs.jsonl` is
/// exempt — it is tiny, append-only, and useful across fingerprints.
fn cache_artifacts(dir: &std::path::Path) -> Vec<(PathBuf, u64, std::time::SystemTime)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let eligible = name.starts_with("results-") || name.starts_with("ckpt-");
        if !eligible {
            continue;
        }
        if let Ok(meta) = entry.metadata() {
            if meta.is_file() {
                let modified = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                files.push((entry.path(), meta.len(), modified));
            }
        }
    }
    files
}

/// `csalt-experiments cache-gc [--max-bytes N]`: bounds the cache
/// directory's artifact footprint by deleting oldest-modified files
/// first until the total fits (default cap 1 GiB). Everything removed
/// is regenerable — at worst the next sweep re-simulates or re-warms.
fn cache_gc(args: &[String], cache_dir: Option<&std::path::Path>) {
    let mut cap: u64 = 1 << 30;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--max-bytes" {
            cap = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!("--max-bytes needs an integer byte count");
                    std::process::exit(2);
                });
            i += 2;
        } else {
            eprintln!("cache-gc: unknown argument '{}'", args[i]);
            std::process::exit(2);
        }
    }
    let Some(dir) = cache_dir else {
        println!("cache-gc: caching disabled (--no-cache), nothing to do");
        return;
    };
    let mut files = cache_artifacts(dir);
    let mut total: u64 = files.iter().map(|(_, len, _)| len).sum();
    if total <= cap {
        println!(
            "cache-gc: {} files, {total} bytes <= cap {cap} — nothing evicted",
            files.len()
        );
        return;
    }
    files.sort_by_key(|&(_, _, modified)| modified);
    let mut evicted = 0u64;
    let mut freed = 0u64;
    for (path, len, _) in files {
        if total <= cap {
            break;
        }
        if std::fs::remove_file(&path).is_ok() {
            total -= len;
            freed += len;
            evicted += 1;
        }
    }
    println!("cache-gc: evicted {evicted} files ({freed} bytes), {total} bytes retained");
}

/// `csalt-experiments cache-stats`: what the cache directory holds —
/// per-artifact-class counts and sizes, plus the cost model's line
/// count — so `cache-gc` caps can be chosen from facts.
fn cache_stats(cache_dir: Option<&std::path::Path>) {
    let Some(dir) = cache_dir else {
        println!("cache-stats: caching disabled (--no-cache)");
        return;
    };
    let files = cache_artifacts(dir);
    let class = |prefix: &str| -> (usize, u64) {
        files
            .iter()
            .filter(|(p, _, _)| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with(prefix))
                    .unwrap_or(false)
            })
            .fold((0, 0), |(n, b), (_, len, _)| (n + 1, b + len))
    };
    let (res_n, res_b) = class("results-");
    let (ckpt_n, ckpt_b) = class("ckpt-");
    let (costs_n, costs_b) =
        std::fs::metadata(dir.join("costs.jsonl")).map_or((0, 0), |m| (1, m.len()));
    println!("cache dir: {}", dir.display());
    println!("  results:     {res_n:>5} files  {res_b:>12} bytes");
    println!("  checkpoints: {ckpt_n:>5} files  {ckpt_b:>12} bytes");
    println!(
        "  cost model:  {costs_n:>5} {}  {costs_b:>12} bytes",
        if costs_n == 1 { "file " } else { "files" }
    );
    println!(
        "  total:       {:>5} files  {:>12} bytes (gc-eligible)",
        res_n + ckpt_n,
        res_b + ckpt_b
    );
    println!("current fingerprint: {}", sweep::engine_fingerprint());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let flags = GlobalFlags::extract(&mut args);
    let registry = registry();
    if args.is_empty() || args[0] == "list" || args[0] == "--help" {
        println!("usage: csalt-experiments <name>... | all | list | cache-gate | ckpt-gate | cache-gc [--max-bytes N] | cache-stats | run <workload> [scheme] [--telemetry <path>] | trace-record <bench> <out>\n");
        for e in &registry {
            println!("  {:<22} {}", e.name, e.about);
        }
        println!(
            "  {:<22} one instrumented run: --telemetry <path> --telemetry-sample <N> --trace <path> --progress <N>",
            "run"
        );
        println!(
            "  {:<22} prove the result cache: cold run, warm run, 0 re-simulations",
            "cache-gate"
        );
        println!(
            "  {:<22} prove checkpointed warmup and warmup groups: byte-identical, every follower restores, one run per group",
            "ckpt-gate"
        );
        println!(
            "  {:<22} bound the cache dir: evict oldest artifacts past --max-bytes",
            "cache-gc"
        );
        println!(
            "  {:<22} show cache dir contents by artifact class",
            "cache-stats"
        );
        println!(
            "  {:<22} record a benchmark stream to a v2 (staged) trace file",
            "trace-record"
        );
        println!(
            "\nflags (any position): --accesses <N>, --warmup <N>, --scale <F>, --jobs <N>, \
             --cache-dir <path>, --no-cache"
        );
        return;
    }
    if args[0] == "cache-gate" {
        cache_gate();
        return;
    }
    if args[0] == "ckpt-gate" {
        ckpt_gate();
        return;
    }
    if args[0] == "cache-gc" {
        cache_gc(&args[1..], flags.sweep.cache_dir.as_deref());
        return;
    }
    if args[0] == "cache-stats" {
        cache_stats(flags.sweep.cache_dir.as_deref());
        return;
    }
    if args[0] == "trace-record" {
        trace_record(&args[1..], flags.scale.unwrap_or(exp::scaled::SCALE));
        return;
    }
    if args[0] == "run" {
        #[cfg(feature = "telemetry")]
        {
            run_single(&args[1..], &flags);
            return;
        }
        #[cfg(not(feature = "telemetry"))]
        {
            eprintln!("`run` needs the `telemetry` feature (on by default)");
            std::process::exit(2);
        }
    }
    // Figure suites run through the harness's sweep; `--trace`
    // installs a wall-domain sink there (per-job simulate spans,
    // cache-hit/dedup instants) and exports it when the suite is done.
    let trace_path = args.iter().position(|a| a == "--trace").map(|i| {
        args.remove(i);
        if i < args.len() {
            PathBuf::from(args.remove(i))
        } else {
            eprintln!("--trace needs a value");
            std::process::exit(2);
        }
    });
    let harness = flags.harness(flags.sweep.clone());
    if trace_path.is_some() {
        harness.sweep.set_trace(csalt_trace::TraceBuffer::new());
    }
    let wanted: Vec<&Entry> = if args.iter().any(|a| a == "all") {
        registry.iter().collect()
    } else {
        let mut out = Vec::new();
        for a in &args {
            match registry.iter().find(|e| e.name == a.as_str()) {
                Some(e) => out.push(e),
                None => {
                    eprintln!("unknown experiment '{a}' — try `csalt-experiments list`");
                    std::process::exit(1);
                }
            }
        }
        out
    };
    for e in wanted {
        eprintln!("running {} ({})...", e.name, e.about);
        if let Some(table) = (e.run)(&harness) {
            println!("{}", table.render());
        }
    }
    if let Some(path) = trace_path {
        let Some(buf) = harness.sweep.take_trace() else {
            return;
        };
        let write = std::fs::File::create(&path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            csalt_trace::write_chrome(&buf, &mut out)
        });
        match write {
            Ok(()) => eprintln!(
                "trace: {} span events to {} (sweep wall domain)",
                buf.len(),
                path.display(),
            ),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
