//! The traced run (`--trace 1`): one pass that takes a workload's
//! simulation apart layer by layer and reports the per-layer metrics.
//!
//! For each layer config (the workload's four Figure 7 schemes; for
//! `cold_sweep`, those of its `g500_gups` row) it:
//!
//! 1. drains `build_threads`' generators and stages the streams into v2
//!    `TraceFile`s (once per workload: the schemes share the streams);
//! 2. runs the generated config and the staged replay through
//!    `run_with_generators` — the replay must be bit-identical;
//! 3. drives a fresh `MemoryHierarchy` over the same streams with a
//!    round-robin scheduler that mirrors the engine's schedule, recording
//!    the committed access sequence (its counters must equal the run's);
//! 4. replays that sequence through another fresh hierarchy in timed
//!    blocks — the hierarchy's own share of an access;
//! 5. replays it through the component chain, capturing every
//!    component's input stream (its counters must equal the run's too);
//! 6. replays each captured stream through a fresh component alone.
//!
//! Calls per access come from the real run's `HierarchySnapshot`; host
//! time per call comes from the solo replays. `cold_sweep` also runs
//! its batch once with a job-wall recorder and reads the sweep,
//! checkpoint and trace-store counters. Wall-domain spans around each
//! phase go to a Chrome trace that `csalt-report trace --check` reads.

use crate::chain::{replay_solo, unsupported, Chain, SoloTimes};
use crate::checks::{audit, fingerprint, pinned, result_json};
use crate::metrics::{ratio, Report};
use crate::rounds::{
    cd_speedup, fresh_cache, new_hierarchy, print_model_reference, RunOptions, SWEEP_JOBS,
};
use crate::stats::{fit_two, time_blocks};
use crate::workloads::{unique, Workload};
use csalt_core::{BlockAccess, HierarchySnapshot, MemoryHierarchy};
use csalt_sim::checkpoint::HierarchyCheckpoint;
use csalt_sim::{build_threads, run_with_generators, SimConfig, SimResult, Sweep, SweepOptions};
use csalt_telemetry::{Recorder, TelemetryRecord};
use csalt_trace::{timing::wall_micros, ArgValue, Domain, TraceBuffer, TraceSink};
use csalt_types::{Asid, CoreId, Cycle};
use csalt_workloads::{AnyGenerator, TraceFile, TraceGenerator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Sweeps per timed block of the hierarchy replay (about 512 accesses
/// on 8 cores). Short blocks give the hit/walk regression many
/// differently mixed samples; the two clock reads per block still cost
/// well under 0.1 ns per access.
const SWEEPS_PER_BLOCK: usize = 64;

/// Repetitions of each host-time measurement of a layer config.
const REPS: usize = 3;

/// The Chrome-trace track (wall domain) the benchmark's spans go on,
/// clear of the sweep's per-worker tracks.
const TRACK: u32 = 1000;

/// Wall-domain span recorder over a [`TraceBuffer`].
struct Tracer {
    buf: TraceBuffer,
    open: Vec<&'static str>,
}

impl Tracer {
    fn new() -> Self {
        let mut buf = TraceBuffer::new();
        buf.set_track_name(Domain::Wall, TRACK, "perfbench");
        Self {
            buf,
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) {
        self.begin_args(name, Vec::new());
    }

    fn begin_args(&mut self, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
        self.buf
            .begin_args(Domain::Wall, TRACK, wall_micros(), name, args);
        self.open.push(name);
    }

    fn end(&mut self) {
        let name = self.open.pop().expect("a span is open");
        self.buf.end(Domain::Wall, TRACK, wall_micros(), name);
    }

    /// Closes the spans a panicking phase left open, innermost first.
    fn end_all(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.end();
        }
    }
}

/// The workload's access streams, staged once and shared by every
/// layer config.
struct Staged {
    /// `[vm][core]` v2 traces, each staged for its VM's ASID.
    matrix: Vec<Vec<TraceFile>>,
    records: u64,
    build_s: f64,
    gen_s: f64,
    stage_s: f64,
}

fn stage(cfg: &SimConfig, tr: &mut Tracer) -> Staged {
    tr.begin("workloads.build_threads");
    let t = Instant::now();
    let mut threads = build_threads(cfg);
    let build_s = t.elapsed().as_secs_f64();
    tr.end();
    // Long enough that no stream can wrap: one core's whole budget could
    // come from a single VM's stream.
    let needed = cfg.warmup_accesses_per_core + cfg.accesses_per_core;
    let (mut gen, mut stage) = (Duration::ZERO, Duration::ZERO);
    tr.begin("workloads.generate_and_stage");
    let matrix = threads
        .iter_mut()
        .enumerate()
        .map(|(vm, row)| {
            row.iter_mut()
                .map(|g| {
                    let t = Instant::now();
                    let records = (0..needed).map(|_| g.next_access()).collect();
                    gen += t.elapsed();
                    let t = Instant::now();
                    let mut trace = TraceFile::from_records(records);
                    trace.restage(Asid::new(vm as u16 + 1));
                    stage += t.elapsed();
                    trace
                })
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    tr.end();
    Staged {
        records: needed * matrix.iter().map(Vec::len).sum::<usize>() as u64,
        matrix,
        build_s,
        gen_s: gen.as_secs_f64(),
        stage_s: stage.as_secs_f64(),
    }
}

/// The access sequence a run commits, as the scheduler recorded it.
struct Committed {
    seq: Vec<BlockAccess>,
    /// Whether each access walked.
    walked: Vec<bool>,
    /// Each sweep's accesses, as a range of `seq`: the blocks the
    /// engine commits through `access_block_hinted`.
    sweeps: Vec<std::ops::Range<usize>>,
    /// `(index of the sweep's first access, core)` per context switch:
    /// the engine drops the switching core's L0 memos while gathering
    /// a sweep, before any of its accesses commit.
    switches: Vec<(usize, usize)>,
    warmup_len: usize,
    /// Where the warmup left the schedule — what a checkpoint records:
    /// each core's resident VM and each `[vm][core]` stream's pops.
    current_vms: Vec<u32>,
    pops: Vec<Vec<u64>>,
}

/// One core's scheduling state, as the engine keeps it.
#[derive(Clone, Copy)]
struct CoreState {
    cycles: Cycle,
    done: u64,
    vm: usize,
    next_switch: Cycle,
    switches: u64,
}

/// Step 3: drives a fresh hierarchy over the staged streams with the
/// engine's round-robin schedule (quantum-driven context switches,
/// block-gathered sweeps, the retire-stage cycle model) through the
/// timed warmup and the measured phase. The outcome must equal `run`'s.
fn drive(cfg: &SimConfig, matrix: &[Vec<TraceFile>], run: &SimResult) -> Result<Committed, String> {
    let sys = &cfg.system;
    let (cores, vms) = (sys.cores as usize, sys.contexts_per_core as usize);
    let (mut hier, ctx) = new_hierarchy(cfg)?;
    let mut src: Vec<Vec<TraceFile>> = matrix.to_vec();
    let mut c = Committed {
        seq: Vec::new(),
        walked: Vec::new(),
        sweeps: Vec::new(),
        switches: Vec::new(),
        warmup_len: 0,
        current_vms: Vec::new(),
        pops: vec![vec![0; cores]; vms],
    };
    let fresh = CoreState {
        cycles: 0,
        done: 0,
        vm: 0,
        next_switch: sys.cs_interval_cycles,
        switches: 0,
    };
    let mut state = vec![fresh; cores];
    let mut block = Vec::with_capacity(cores);
    let mut charges = Vec::with_capacity(cores);
    for (phase, total) in [cfg.warmup_accesses_per_core, cfg.accesses_per_core]
        .into_iter()
        .enumerate()
    {
        if phase == 1 {
            c.warmup_len = c.seq.len();
            c.current_vms = state.iter().map(|s| s.vm as u32).collect();
            hier.reset_stats();
            for s in &mut state {
                *s = CoreState { vm: s.vm, ..fresh };
            }
        }
        let mut remaining = state.iter().filter(|s| s.done < total).count();
        while remaining > 0 {
            block.clear();
            for (core, s) in state.iter_mut().enumerate() {
                if s.done >= total {
                    continue;
                }
                if vms > 1 && s.cycles >= s.next_switch {
                    s.vm = (s.vm + 1) % vms;
                    s.cycles += cfg.switch_overhead_cycles;
                    s.next_switch = s.cycles + sys.cs_interval_cycles;
                    s.switches += 1;
                    hier.l0_note_context_switch(core);
                    c.switches.push((c.seq.len(), core));
                }
                let (acc, hint) = src[s.vm][core].next_staged();
                if phase == 0 {
                    c.pops[s.vm][core] += 1;
                }
                block.push(BlockAccess {
                    core: CoreId::new(core as u8),
                    ctx: ctx[s.vm],
                    acc,
                    hint,
                });
            }
            charges.clear();
            hier.access_block_hinted(&block, &mut charges);
            for (b, ch) in block.iter().zip(&charges) {
                let s = &mut state[b.core.index()];
                let compute = (b.acc.instructions() as f64 * sys.base_cpi).ceil() as Cycle;
                let stall = ch.data_cycles.saturating_sub(sys.l1d.latency);
                let overlapped = (stall as f64 / sys.mlp).round() as Cycle;
                s.cycles += compute + ch.translation_cycles + overlapped;
                s.done += 1;
                if s.done >= total {
                    remaining -= 1;
                }
                c.walked.push(ch.walked);
            }
            c.sweeps.push(c.seq.len()..c.seq.len() + block.len());
            c.seq.extend_from_slice(&block);
        }
    }
    let cycles: Vec<Cycle> = state.iter().map(|s| s.cycles).collect();
    if hier.snapshot() != run.snapshot
        || cycles != run.core_cycles
        || state.iter().map(|s| s.switches).sum::<u64>() != run.context_switches
    {
        return Err("the round-robin scheduler's outcome differs from the run's".into());
    }
    Ok(c)
}

/// Step 4's outcome.
struct CoreTiming {
    total_ns: f64,
    /// `(non-walk accesses, walk accesses, ns)` per block.
    blocks: Vec<(f64, f64, f64)>,
    l0_hits: u64,
    l0_lookups: u64,
    encode_s: f64,
    decode_s: f64,
    image_bytes: usize,
}

/// Step 4: replays the committed sequence through a fresh hierarchy in
/// timed blocks, and times a checkpoint encode and decode of the
/// post-warmup state.
fn timed_replay(cfg: &SimConfig, c: &Committed, run: &SimResult) -> Result<CoreTiming, String> {
    let (mut hier, _) = new_hierarchy(cfg)?;
    let mut switch = 0;
    let mut blocks = Vec::new();
    let mut charges = Vec::with_capacity(cfg.system.cores as usize);
    let mut replay = |hier: &mut MemoryHierarchy, sweeps: &[std::ops::Range<usize>]| {
        let times = time_blocks(sweeps, SWEEPS_PER_BLOCK, |_, r| {
            while c.switches.get(switch).is_some_and(|&(at, _)| at == r.start) {
                hier.l0_note_context_switch(c.switches[switch].1);
                switch += 1;
            }
            charges.clear();
            hier.access_block_hinted(&c.seq[r.clone()], &mut charges);
        });
        for (group, d) in sweeps.chunks(SWEEPS_PER_BLOCK).zip(&times) {
            let (lo, hi) = (group[0].start, group[group.len() - 1].end);
            let walks = c.walked[lo..hi].iter().filter(|&&w| w).count() as f64;
            blocks.push(((hi - lo) as f64 - walks, walks, d.as_secs_f64() * 1e9));
        }
    };
    let warm = c.sweeps.partition_point(|r| r.start < c.warmup_len);
    replay(&mut hier, &c.sweeps[..warm]);
    hier.reset_stats();

    let fp = csalt_sim::sweep::engine_fingerprint();
    let meta = HierarchyCheckpoint {
        current_vms: c.current_vms.clone(),
        pops: c.pops.clone(),
    };
    let t = Instant::now();
    let image = meta.encode(&hier, &fp);
    let encode_s = t.elapsed().as_secs_f64();
    let (mut restored, _) = new_hierarchy(cfg)?;
    let t = Instant::now();
    let decoded = HierarchyCheckpoint::decode_into(
        &image,
        &fp,
        &mut restored,
        cfg.system.cores as usize,
        cfg.system.contexts_per_core as usize,
    );
    let decode_s = t.elapsed().as_secs_f64();
    if decoded.map_err(|e| format!("checkpoint decode failed: {e:?}"))? != meta {
        return Err("checkpoint metadata did not round-trip".into());
    }
    drop(restored);

    replay(&mut hier, &c.sweeps[warm..]);
    let snap = hier.snapshot();
    if snap != run.snapshot {
        return Err("the timed hierarchy replay's counters differ from the run's".into());
    }
    Ok(CoreTiming {
        total_ns: blocks.iter().map(|b| b.2).sum(),
        blocks,
        l0_hits: hier.l0_stats().hits,
        l0_lookups: lookups(&snap),
        encode_s,
        decode_s,
        image_bytes: image.len(),
    })
}

/// Structure lookups an L0 memo can serve: TLB, POM-TLB and cache
/// probes.
fn lookups(s: &HierarchySnapshot) -> u64 {
    s.l1_tlb.accesses()
        + s.l2_tlb.accesses()
        + s.pom.map_or(0, |p| p.accesses())
        + s.l1d.total().accesses()
        + s.l2.total().accesses()
        + s.l3.total().accesses()
}

/// Everything one layer config contributes to the per-layer metrics.
struct ConfigLayers {
    accesses: u64,
    generated_s: f64,
    replay_s: f64,
    result: SimResult,
    core: CoreTiming,
    solo: SoloTimes,
    /// Measured-phase walks, PTE reads and PSC-skipped reads.
    walks: (u64, u64, u64),
    decisions: u64,
}

fn analyze(
    cfg: &SimConfig,
    staged: &Staged,
    opts: &RunOptions,
    tr: &mut Tracer,
) -> Result<ConfigLayers, String> {
    if let Some(why) = unsupported(cfg) {
        return Err(why);
    }
    // Each timing is the best of REPS interleaved repetitions: on a
    // shared host, interference only ever adds time, and the engine's
    // own share (replay minus hierarchy) is smaller than one noise burst.
    let (mut generated_s, mut replay_s) = (f64::INFINITY, f64::INFINITY);
    let mut found: Option<(SimResult, String, Committed)> = None;
    let mut core: Option<CoreTiming> = None;
    for _ in 0..REPS {
        tr.begin("sim.generated");
        fresh_cache(&opts.work, "traced");
        let threads = build_threads(cfg);
        let t = Instant::now();
        let generated = run_with_generators(cfg, threads);
        generated_s = generated_s.min(t.elapsed().as_secs_f64());
        tr.end();

        tr.begin("sim.replay");
        fresh_cache(&opts.work, "traced");
        let gens: Vec<Vec<AnyGenerator>> = staged
            .matrix
            .iter()
            .map(|row| row.iter().cloned().map(AnyGenerator::Trace).collect())
            .collect();
        let t = Instant::now();
        let replayed = run_with_generators(cfg, gens);
        replay_s = replay_s.min(t.elapsed().as_secs_f64());
        tr.end();

        let json = result_json(&generated);
        if result_json(&replayed) != json {
            return Err("staged replay is not bit-identical to the generated run".into());
        }
        let (result, first_json, committed) = match found.take() {
            Some(f) if f.1 != json => return Err("repeated runs differ".into()),
            Some(f) => f,
            None => {
                let diags = audit(&generated);
                if !diags.is_empty() {
                    return Err(diags.join("; "));
                }
                tr.begin("core.drive");
                let committed = drive(cfg, &staged.matrix, &generated);
                tr.end();
                (generated, json, committed?)
            }
        };

        tr.begin("core.timed_replay");
        let timing = timed_replay(cfg, &committed, &result);
        tr.end();
        let timing = timing?;
        if core.as_ref().is_none_or(|c| timing.total_ns < c.total_ns) {
            core = Some(timing);
        }
        found = Some((result, first_json, committed));
    }
    let (result, _, committed) = found.expect("REPS > 0");
    let core = core.expect("REPS > 0");

    tr.begin("chain.capture");
    let mut chain = Chain::new(cfg);
    for b in &committed.seq[..committed.warmup_len] {
        chain.access(b);
    }
    chain.reset_stats();
    let at_warmup = chain.walk_counts();
    for b in &committed.seq[committed.warmup_len..] {
        chain.access(b);
    }
    tr.end();
    if let Some(why) = chain.mismatch(&result.snapshot) {
        return Err(why);
    }
    let end = chain.walk_counts();
    let walks = (
        end.0 - at_warmup.0,
        end.1 - at_warmup.1,
        end.2 - at_warmup.2,
    );
    let decisions = chain.decisions();
    let accesses = committed.seq.len() as u64;
    drop(committed);

    let cap = std::mem::take(&mut chain.cap);
    drop(chain);
    let mut solo: Option<SoloTimes> = None;
    for _ in 0..REPS {
        let times = replay_solo(cfg, &cap, result.final_partitions, &mut |name, f| {
            tr.begin(name);
            f();
            tr.end();
        });
        match &mut solo {
            Some(s) => s.keep_faster(&times),
            None => solo = Some(times),
        }
    }
    let solo = solo.expect("REPS > 0");
    Ok(ConfigLayers {
        accesses,
        generated_s,
        replay_s,
        result,
        core,
        solo,
        walks,
        decisions,
    })
}

/// Records the sweep's per-job wall samples (`sweep.job_wall_us`).
struct JobWalls(Arc<Mutex<Vec<u64>>>);

impl Recorder for JobWalls {
    fn observe(&mut self, name: &'static str, value: u64) {
        if name == "sweep.job_wall_us" {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(value);
        }
    }

    fn record(&mut self, _rec: &TelemetryRecord) {}
}

/// The cold sweep batch, run once with a job-wall recorder and the
/// benchmark's trace buffer installed. Returns its results (or why it
/// failed) and fills the `sweep.*` metrics.
fn traced_sweep(
    configs: &[SimConfig],
    opts: &RunOptions,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<SimResult>, String> {
    let dir = fresh_cache(&opts.work, "traced");
    let store_before = csalt_sim::trace_store::stats();
    let sweep = Sweep::new(SweepOptions {
        cache_dir: Some(dir),
        jobs: Some(SWEEP_JOBS),
    });
    let walls = Arc::new(Mutex::new(Vec::new()));
    sweep.set_recorder(Box::new(JobWalls(Arc::clone(&walls))));
    tr.begin("sweep.run_batch");
    sweep.set_trace(std::mem::take(&mut tr.buf));
    let t = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| sweep.run_batch(configs.to_vec())));
    let wall_s = t.elapsed().as_secs_f64();
    tr.buf = sweep.take_trace().unwrap_or_default();
    tr.end();
    let stats = sweep.stats();
    let busy_us: u64 = walls
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .sum();
    report.set("sweep.simulated", stats.simulated as f64);
    report.set("sweep.deduped", stats.deduped as f64);
    report.set(
        "sweep.restored_ratio",
        ratio(stats.restored as f64, stats.simulated as f64),
    );
    report.set("sweep.cache_errors", stats.cache_errors as f64);
    report.set(
        "sweep.store_materialized",
        (csalt_sim::trace_store::stats().materialized - store_before.materialized) as f64,
    );
    report.set(
        "sweep.worker_busy_ratio",
        ratio(busy_us as f64 / 1e6, SWEEP_JOBS as f64 * wall_s),
    );
    println!(
        "sweep: {} configs, {} simulated, {} deduped, {} restored, batch {wall_s:.3} s",
        configs.len(),
        stats.simulated,
        stats.deduped,
        stats.restored
    );
    results.map_err(|_| "the sweep batch panicked".to_owned())
}

/// Runs the traced pass of `workload` and reports the per-layer metrics.
pub fn run(workload: Workload, opts: &RunOptions) -> Report {
    let mut report = Report::new();
    let mut tr = Tracer::new();
    let ckpt_before = csalt_sim::checkpoint::stats();
    let configs = workload.layer_configs(opts.seed, opts.size);
    let pin = pinned(workload.name(), opts.seed);
    let mut problems: Vec<String> = Vec::new();

    // The workload's own results, checked against the pin.
    let workload_results = if workload == Workload::ColdSweep {
        let suite = workload.configs(opts.seed, opts.size);
        report.attempted += unique(&suite).len() as u64;
        match traced_sweep(&suite, opts, &mut tr, &mut report) {
            Ok(results) => {
                for r in &results {
                    let diags = audit(r);
                    if !diags.is_empty() {
                        problems.push(diags.join("; "));
                    }
                }
                Some(results)
            }
            Err(e) => {
                report.failed += unique(&suite).len() as u64;
                problems.push(e);
                None
            }
        }
    } else {
        for m in [
            "sweep.simulated",
            "sweep.deduped",
            "sweep.restored_ratio",
            "sweep.cache_errors",
            "sweep.store_materialized",
            "sweep.worker_busy_ratio",
        ] {
            // Single-run workloads bypass the sweep layers entirely.
            report.set(m, 0.0);
        }
        None
    };

    let staged = stage(&configs[0], &mut tr);
    let mut layers: Vec<ConfigLayers> = Vec::new();
    for cfg in &configs {
        report.attempted += 1;
        let depth = tr.open.len();
        tr.begin_args(
            "layers",
            vec![("scheme", ArgValue::Str(cfg.scheme.label()))],
        );
        let outcome = catch_unwind(AssertUnwindSafe(|| analyze(cfg, &staged, opts, &mut tr)))
            .unwrap_or_else(|_| Err("layer analysis panicked".into()));
        tr.end_all(depth);
        match outcome {
            Ok(l) => {
                let per_acc = |s: f64| s * 1e9 / l.accesses as f64;
                eprintln!(
                    "{}: hierarchy {:.1} ns/acc, staged replay {:.1} ns/acc, generated run {:.1} ns/acc",
                    cfg.scheme.label(),
                    l.core.total_ns / l.accesses as f64,
                    per_acc(l.replay_s),
                    per_acc(l.generated_s)
                );
                layers.push(l);
            }
            Err(e) => {
                report.failed += 1;
                problems.push(format!("{}: {e}", cfg.scheme.label()));
            }
        }
    }
    let _ = std::fs::remove_dir_all(opts.work.join("cache-traced"));

    let results: Vec<SimResult> = layers.iter().map(|l| l.result.clone()).collect();
    let fp_results = workload_results.as_deref().unwrap_or(&results);
    if workload_results.is_some() || layers.len() == configs.len() {
        let fp = fingerprint(fp_results);
        let verdict = match &pin {
            Some(p) if *p == fp => "matches its pin",
            Some(_) => {
                problems.push(format!("workload fingerprint {fp} misses its pin"));
                report.failed = report.attempted;
                "MISMATCHES its pin"
            }
            None => "unpinned seed",
        };
        println!(
            "fingerprint {} seed {}: {fp} ({verdict})",
            workload.name(),
            opts.seed
        );
    }
    if layers.is_empty() {
        problems.push("no layer config could be analysed".into());
    }

    layer_metrics(&mut report, &layers, &results, &staged);
    let ckpt = csalt_sim::checkpoint::stats();
    report.set("ckpt.saves", (ckpt.saves - ckpt_before.saves) as f64);
    report.set(
        "ckpt.restores",
        (ckpt.restores - ckpt_before.restores) as f64,
    );
    report.set(
        "ckpt.fallbacks",
        (ckpt.fallbacks - ckpt_before.fallbacks) as f64,
    );
    if let Some(s) = cd_speedup(&results) {
        print_model_reference(s, &configs[0]);
    }

    match write_trace(&tr.buf, workload, opts) {
        Ok(path) => {
            println!("chrome trace: {path} (check with `csalt-report trace {path} --check`)")
        }
        Err(e) => problems.push(e),
    }
    for p in &problems {
        eprintln!("traced run problem: {p}");
    }
    report.correct = problems.is_empty();
    report
}

/// Writes the Chrome trace under the work directory and validates it
/// with the reader `csalt-report trace --check` uses.
fn write_trace(buf: &TraceBuffer, workload: Workload, opts: &RunOptions) -> Result<String, String> {
    let path = opts
        .work
        .join(format!("trace-{}-{}.json", workload.name(), opts.seed));
    let mut bytes = Vec::new();
    csalt_trace::write_chrome(buf, &mut bytes).map_err(|e| e.to_string())?;
    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
    let summary = csalt_trace::validate(&text)?;
    if !summary.is_valid() {
        return Err(format!(
            "chrome trace invalid: {}",
            summary.errors.join("; ")
        ));
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Pools the layer configs into the per-layer metrics: counters are
/// summed across configs before dividing, and each host-time figure is
/// total time over total calls.
fn layer_metrics(
    report: &mut Report,
    layers: &[ConfigLayers],
    results: &[SimResult],
    staged: &Staged,
) {
    let sum = |f: &dyn Fn(&ConfigLayers) -> f64| layers.iter().map(f).sum::<f64>();
    let snap = |f: &dyn Fn(&HierarchySnapshot) -> u64| sum(&|l| f(&l.result.snapshot) as f64);
    let mut solo = SoloTimes::default();
    for l in layers {
        solo.add(&l.solo);
    }
    let stream = sum(&|l| l.accesses as f64);
    let measured = snap(&|s| s.accesses);
    let instr = sum(&|l| l.result.instructions as f64);
    let per_call = |s: crate::chain::Solo| ratio(s.ns, s.calls as f64);
    let per_acc = |n: f64| ratio(n, measured);
    let kinstr = |n: f64| ratio(n * 1000.0, instr);

    let gen_ns = ratio(staged.gen_s * 1e9, staged.records as f64);
    let stage_ns = ratio(staged.stage_s * 1e9, staged.records as f64);
    report.set("workloads.gen_ns", gen_ns);
    report.set("workloads.stage_ns", stage_ns);
    report.set("workloads.build_ms", staged.build_s * 1e3);

    report.set("tlb.l1_ns", per_call(solo.l1_tlb));
    report.set("tlb.l2_ns", per_call(solo.l2_tlb));
    report.set("tlb.pom_ns", per_call(solo.pom));
    report.set("tlb.l1_calls", per_acc(snap(&|s| s.l1_tlb.accesses())));
    report.set("tlb.l2_calls", per_acc(snap(&|s| s.l2_tlb.accesses())));
    report.set(
        "tlb.pom_calls",
        per_acc(snap(&|s| s.pom.map_or(0, |p| p.accesses()))),
    );
    report.set("tlb.l2_mpki", kinstr(snap(&|s| s.l2_tlb.misses)));
    report.set(
        "tlb.pom_hit_ratio",
        ratio(
            snap(&|s| s.pom.map_or(0, |p| p.hits)),
            snap(&|s| s.pom.map_or(0, |p| p.accesses())),
        ),
    );

    let (walks, reads, skipped) = (
        sum(&|l| l.walks.0 as f64),
        sum(&|l| l.walks.1 as f64),
        sum(&|l| l.walks.2 as f64),
    );
    report.set("ptw.walk_ns", per_call(solo.walk));
    report.set(
        "ptw.walks_per_kacc",
        ratio(snap(&|s| s.page_walks) * 1000.0, measured),
    );
    report.set(
        "ptw.walk_elimination",
        1.0 - ratio(snap(&|s| s.page_walks), snap(&|s| s.l2_tlb.misses)),
    );
    report.set("ptw.pte_reads_per_walk", ratio(reads, walks));
    report.set("ptw.psc_skip_ratio", ratio(skipped, reads + skipped));

    report.set("cache.l1d_ns", per_call(solo.l1d));
    report.set("cache.l2_ns", per_call(solo.l2));
    report.set("cache.l3_ns", per_call(solo.l3));
    report.set(
        "cache.l1d_calls",
        per_acc(snap(&|s| s.l1d.total().accesses())),
    );
    report.set(
        "cache.l2_calls",
        per_acc(snap(&|s| s.l2.total().accesses())),
    );
    report.set(
        "cache.l3_calls",
        per_acc(snap(&|s| s.l3.total().accesses())),
    );
    report.set("cache.l2_mpki", kinstr(snap(&|s| s.l2.total().misses)));
    report.set("cache.l3_mpki", kinstr(snap(&|s| s.l3.total().misses)));
    report.set(
        "cache.l3_tlb_share",
        ratio(
            snap(&|s| s.l3.tlb.accesses()),
            snap(&|s| s.l3.total().accesses()),
        ),
    );

    report.set("dram.access_ns", per_call(solo.dram));
    report.set("dram.ddr_calls", per_acc(snap(&|s| s.ddr.accesses)));
    report.set("dram.stacked_calls", per_acc(snap(&|s| s.stacked.accesses)));
    report.set(
        "dram.row_hit_ratio",
        ratio(
            snap(&|s| s.ddr.row_hits + s.stacked.row_hits),
            snap(&|s| s.ddr.accesses + s.stacked.accesses),
        ),
    );

    report.set("profiler.record_ns", per_call(solo.record));
    report.set("profiler.repartition_us", per_call(solo.repartition) / 1e3);
    report.set("profiler.epochs", sum(&|l| l.decisions as f64));

    // The core share: host time inside `MemoryHierarchy` per access of
    // the replayed stream, split into walk and non-walk accesses by a
    // least-squares fit over the timed blocks. Glue is what the
    // hierarchy spends beyond its components' solo time on that same
    // stream.
    let core_ns = ratio(sum(&|l| l.core.total_ns), stream);
    let blocks: Vec<(f64, f64, f64)> = layers
        .iter()
        .flat_map(|l| l.core.blocks.iter().copied())
        .collect();
    let (hit_ns, walk_ns) = fit_two(&blocks).unwrap_or((core_ns, core_ns));
    report.set("core.access_ns", core_ns);
    report.set("core.walk_access_ns", walk_ns);
    report.set("core.hit_access_ns", hit_ns);
    report.set("core.glue_ns", core_ns - ratio(solo.total_ns(), stream));
    report.set(
        "core.l0_hit_ratio",
        ratio(
            sum(&|l| l.core.l0_hits as f64),
            sum(&|l| l.core.l0_lookups as f64),
        ),
    );

    let replay_ns = ratio(sum(&|l| l.replay_s) * 1e9, stream);
    report.set("sim.replay_ns", replay_ns);
    report.set("sim.engine_ns", replay_ns - core_ns);
    report.set(
        "sim.context_switches_per_kacc",
        ratio(
            sum(&|l| l.result.context_switches as f64) * 1000.0,
            measured,
        ),
    );
    report.set(
        "sim.cycles_per_access",
        ratio(
            sum(&|l| l.result.core_cycles.iter().sum::<u64>() as f64),
            measured,
        ),
    );
    report.set("sim.csalt_cd_speedup", cd_speedup(results).unwrap_or(0.0));

    let n = layers.len() as f64;
    report.set("ckpt.encode_ms", ratio(sum(&|l| l.core.encode_s) * 1e3, n));
    report.set("ckpt.decode_ms", ratio(sum(&|l| l.core.decode_s) * 1e3, n));
    report.set(
        "ckpt.image_kib",
        ratio(sum(&|l| l.core.image_bytes as f64) / 1024.0, n),
    );

    // Traced decomposition against the untraced generated run of the
    // same configs: generation + staging + staged replay per access over
    // the generated run's host time per access.
    let generated_ns = ratio(sum(&|l| l.generated_s) * 1e9, stream);
    report.set(
        "trace.overhead_ratio",
        ratio(gen_ns + stage_ns + replay_ns, generated_ns),
    );
    for (name, s) in solo.named() {
        eprintln!(
            "  {name:<12} {:>8.2} ns/access of the stream ({} calls, {:.2} ns/call)",
            ratio(s.ns, stream),
            s.calls,
            per_call(s)
        );
    }
    eprintln!(
        "  reconciliation: components {:.2} ns vs core {core_ns:.2} ns per access ({:.3}x); \
         gen + stage + replay {:.2} ns vs generated run {generated_ns:.2} ns",
        ratio(solo.total_ns(), stream),
        ratio(ratio(solo.total_ns(), stream), core_ns),
        gen_ns + stage_ns + replay_ns,
    );
}
