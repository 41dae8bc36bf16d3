//! The multi-core, trace-driven simulator: cores, VM contexts, the
//! context-switch scheduler and the cycle model (§4.2 of the paper).
//!
//! # Model
//!
//! The machine runs `contexts_per_core` VMs; each VM executes one
//! multi-threaded workload with one thread per core (the paper's `x8`
//! suffix). All threads of a VM share one guest address space (one
//! ASID); each thread has its own trace generator seeded per
//! (VM, core). Every core round-robins between the VMs' threads with a
//! fixed cycle quantum — the 10 ms context-switch interval of §4.2,
//! scaled together with the workload footprint.
//!
//! # Cycle accounting
//!
//! Per retired instruction the core charges `base_cpi`. A memory
//! access additionally charges its **translation** cycles in full — a
//! TLB miss blocks the pipeline, the property the paper's simulator is
//! careful to model — and its **data** stall cycles beyond the L1 hit
//! latency divided by the configured memory-level parallelism (data
//! misses overlap through MSHRs; translations do not).

use csalt_core::{AccessCharge, HierarchySnapshot, MemoryHierarchy, PartitionSample, StageSample};
use csalt_ptw::HugePagePolicy;
use csalt_types::{
    geomean, Asid, ContextId, CoreId, Cycle, MemAccess, SystemConfig, TranslationHint,
    TranslationScheme,
};
use csalt_workloads::{AnyGenerator, TraceGenerator, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::path::Path;

#[cfg(feature = "telemetry")]
use csalt_telemetry::{
    EpochRecord, HistogramRecord, Log2Histogram, ProvenanceRecord, Recorder, TelemetryRecord,
    WalkStage, WalkTraceRecord, FORMAT_VERSION,
};
#[cfg(feature = "telemetry")]
use csalt_trace::{ArgValue, Domain, TraceBuffer, TraceSink};

/// Everything one simulation run needs.
///
/// Round-trips through JSON: experiment provenance (the first record of
/// every telemetry stream) can be re-parsed to reproduce a run exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The machine (Table 2 plus scaled epoch / quantum).
    pub system: SystemConfig,
    /// Translation scheme under test.
    pub scheme: TranslationScheme,
    /// Virtualized (2D walks) or native (1D walks, Figure 12).
    pub virtualized: bool,
    /// The workload pairing.
    pub workload: WorkloadSpec,
    /// Program memory accesses simulated per core in the measured phase.
    pub accesses_per_core: u64,
    /// Warmup accesses per core executed before statistics are reset —
    /// the measured phase then observes steady-state behaviour instead
    /// of compulsory cold misses (the paper's 10-billion-instruction
    /// runs are overwhelmingly steady state).
    pub warmup_accesses_per_core: u64,
    /// Workload footprint scale (1.0 = the generators' defaults).
    pub scale: f64,
    /// Fraction of 2 MiB-backed regions (0 = all 4 KiB pages).
    pub huge_fraction: f64,
    /// RNG seed; distinct VMs/threads derive distinct sub-seeds.
    pub seed: u64,
    /// Stack-distance shadow-directory sampling interval.
    pub profiler_interval: u64,
    /// Record per-epoch partition samples (Figure 9).
    pub trace_partitions: bool,
    /// Scan cache occupancy every this many per-core accesses
    /// (0 = never; Figure 3 / 9 use it).
    pub occupancy_scan_interval: u64,
    /// Fixed software cost charged to a core at each context switch.
    pub switch_overhead_cycles: Cycle,
}

impl SimConfig {
    /// A ready-to-run configuration for one workload and scheme with the
    /// experiment harness's scaled defaults (see `experiments`).
    pub fn new(workload: WorkloadSpec, scheme: TranslationScheme) -> Self {
        Self {
            system: SystemConfig::skylake(),
            scheme,
            virtualized: true,
            workload,
            accesses_per_core: 300_000,
            warmup_accesses_per_core: 300_000,
            scale: 1.0,
            huge_fraction: 0.0,
            seed: 0xC5A1_7000,
            profiler_interval: 4,
            trace_partitions: false,
            occupancy_scan_interval: 0,
            switch_overhead_cycles: 2_000,
        }
    }
}

/// One periodic occupancy observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OccupancySample {
    /// Fraction of the run completed when the scan happened.
    pub progress: f64,
    /// Fraction of (all cores') L2 capacity holding TLB entries.
    pub l2_tlb_fraction: f64,
    /// Fraction of L3 capacity holding TLB entries.
    pub l3_tlb_fraction: f64,
}

/// The outcome of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Workload label.
    pub workload: String,
    /// Scheme simulated.
    pub scheme: TranslationScheme,
    /// Instructions retired, summed over cores.
    pub instructions: u64,
    /// Per-core cycle counts.
    pub core_cycles: Vec<Cycle>,
    /// Per-core IPC.
    pub core_ipc: Vec<f64>,
    /// Component counters at the end of the run.
    pub snapshot: HierarchySnapshot,
    /// Periodic occupancy scans (empty unless requested).
    pub occupancy: Vec<OccupancySample>,
    /// Partition samples for (first core's L2, shared L3); empty unless
    /// requested.
    pub l2_partition_trace: Vec<(u64, f64)>,
    /// See [`SimResult::l2_partition_trace`].
    pub l3_partition_trace: Vec<(u64, f64)>,
    /// Context switches performed across all cores.
    pub context_switches: u64,
    /// Final (L2 core 0, L3) data-way partitions, if partitioned.
    pub final_partitions: (Option<u32>, Option<u32>),
}

impl SimResult {
    /// Geometric-mean IPC across cores — the paper's per-configuration
    /// performance figure (§4.2).
    pub fn ipc(&self) -> f64 {
        geomean(self.core_ipc.iter().copied()).unwrap_or(0.0)
    }

    /// Aggregate L2 TLB misses per kilo-instruction.
    pub fn l2_tlb_mpki(&self) -> f64 {
        self.snapshot.l2_tlb.mpki(self.instructions)
    }

    /// Aggregate L2 data-cache misses per kilo-instruction.
    pub fn l2_cache_mpki(&self) -> f64 {
        let t = self.snapshot.l2.total();
        t.mpki(self.instructions)
    }

    /// Aggregate L3 misses per kilo-instruction.
    pub fn l3_cache_mpki(&self) -> f64 {
        let t = self.snapshot.l3.total();
        t.mpki(self.instructions)
    }

    /// Mean TLB occupancy over the recorded scans: (L2, L3).
    pub fn mean_occupancy(&self) -> (f64, f64) {
        if self.occupancy.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.occupancy.len() as f64;
        (
            self.occupancy
                .iter()
                .map(|s| s.l2_tlb_fraction)
                .sum::<f64>()
                / n,
            self.occupancy
                .iter()
                .map(|s| s.l3_tlb_fraction)
                .sum::<f64>()
                / n,
        )
    }
}

struct CoreState {
    cycles: Cycle,
    instructions: u64,
    accesses_done: u64,
    current_vm: u32,
    next_switch: Cycle,
    switches: u64,
}

/// Observation points of the measured phase. The engine is monomorphized
/// over the implementation: [`run`] passes [`NoHooks`], whose no-op
/// defaults inline away entirely, so the uninstrumented path pays
/// nothing for the existence of telemetry.
trait PhaseHooks {
    /// Whether the access with this measured-phase ordinal should run
    /// through [`MemoryHierarchy::access_traced`].
    fn wants_trace(&mut self, _index: u64) -> bool {
        false
    }
    /// Called once per retired access with its cycle charges.
    fn on_access(&mut self, _charge: &AccessCharge) {}
    /// Called for accesses selected by [`PhaseHooks::wants_trace`] with
    /// the full per-stage attribution. `at_cycles` is the issuing core's
    /// cycle count when the access was issued.
    #[allow(clippy::too_many_arguments)]
    fn on_traced(
        &mut self,
        _index: u64,
        _core: usize,
        _ctx: ContextId,
        _acc: &MemAccess,
        _charge: &AccessCharge,
        _stages: Vec<StageSample>,
        _at_cycles: Cycle,
    ) {
    }
    /// Called when a core's quantum expires and it switches VMs, with
    /// the core's cycle count after the switch overhead was charged.
    fn on_context_switch(&mut self, _core: usize, _from_vm: u32, _to_vm: u32, _at_cycles: Cycle) {}
    /// Called after every round-robin sweep over the cores with the
    /// phase's cumulative access count and target.
    fn after_sweep(
        &mut self,
        _hier: &MemoryHierarchy,
        _cores: &[CoreState],
        _total: u64,
        _target: u64,
    ) {
    }
}

/// The zero-cost hook set used by the plain [`run`] path.
struct NoHooks;
impl PhaseHooks for NoHooks {}

/// One access plus its pure precomputation: the generator's
/// [`MemAccess`] and its packed `(vpn, size, asid)` TLB keys.
#[derive(Clone, Copy)]
struct StagedAccess {
    /// The access exactly as the generator produced it.
    acc: MemAccess,
    /// Prepacked TLB keys for the access under its VM's ASID.
    hint: TranslationHint,
}

/// Where the engine gets its next access for a `(core, VM)` stream.
/// The engine is monomorphized over the implementation, mirroring
/// [`PhaseHooks`], so each source compiles to its own per-access code.
trait AccessSource {
    /// The next access of `(core, vm)`'s stream, with its pure
    /// precomputation (packed TLB keys) done.
    fn next(&mut self, core: usize, vm: usize) -> StagedAccess;

    /// Advances `(core, vm)`'s stream by `n` accesses without
    /// committing them. Checkpoint restore uses this to fast-forward
    /// every stream past the warmup prefix a restored hierarchy
    /// already consumed, keeping the measured phase's records
    /// bit-identical to a straight-through run. The default pops and
    /// discards (generators regenerate the prefix deterministically);
    /// sources with a random-access cursor override with an O(1) seek.
    fn skip(&mut self, core: usize, vm: usize, n: u64) {
        for _ in 0..n {
            let _ = self.next(core, vm);
        }
    }
}

/// Wraps a source during a cold checkpointed warmup to count how many
/// records each `(vm, core)` stream yielded — exactly what a restore
/// must later [`AccessSource::skip`] to resume the streams where the
/// snapshot left them.
struct CountingSource<'a, S: AccessSource> {
    inner: &'a mut S,
    /// Pop counts, `[vm][core]`.
    pops: Vec<Vec<u64>>,
}

impl<S: AccessSource> AccessSource for CountingSource<'_, S> {
    #[inline]
    fn next(&mut self, core: usize, vm: usize) -> StagedAccess {
        self.pops[vm][core] += 1;
        self.inner.next(core, vm)
    }
}

/// Generator source: drives the generators as the engine consumes their
/// accesses, packing each access's TLB keys on the way.
struct InlineSource {
    /// Generator matrix, `[vm][core]`.
    threads: Vec<Vec<AnyGenerator>>,
    /// ASID per VM (what the hierarchy will assign; see [`vm_asids`]).
    asids: Vec<Asid>,
}

impl AccessSource for InlineSource {
    #[inline]
    fn next(&mut self, core: usize, vm: usize) -> StagedAccess {
        let acc = self.threads[vm][core].next_access();
        StagedAccess {
            acc,
            hint: TranslationHint::compute(acc.vaddr, self.asids[vm]),
        }
    }
}

/// Zero-repack replay source: pops prepacked records straight out of
/// staged (v2) traces. The fixed-width trace record *is* the staged
/// payload, so `next` is a copy — no key packing, no generator math.
struct StagedReplaySource {
    /// Trace matrix, `[vm][core]`, every trace staged for its VM's ASID.
    threads: Vec<Vec<csalt_workloads::TraceFile>>,
}

impl AccessSource for StagedReplaySource {
    #[inline]
    fn next(&mut self, core: usize, vm: usize) -> StagedAccess {
        let (acc, hint) = self.threads[vm][core].next_staged();
        StagedAccess { acc, hint }
    }

    fn skip(&mut self, core: usize, vm: usize, n: u64) {
        self.threads[vm][core].skip(n);
    }
}

/// Builds the per-(VM, core) generator matrix (`[vm][core]`) a run of
/// `cfg` executes: one hierarchy context per VM, one seeded generator
/// per (VM, core) — the VM's per-core thread. Public so callers can
/// substitute recorded-trace generators (`AnyGenerator::Trace`) via
/// [`run_with_generators`].
#[must_use]
pub fn build_threads(cfg: &SimConfig) -> Vec<Vec<AnyGenerator>> {
    let cores = cfg.system.cores as usize;
    (0..cfg.system.contexts_per_core)
        .map(|vm| {
            (0..cores)
                .map(|core| {
                    let bench = cfg.workload.context_bench(vm);
                    let seed = cfg
                        .seed
                        .wrapping_add(u64::from(vm) * 0x9e37_79b9)
                        .wrapping_add(core as u64 * 0x85eb_ca6b);
                    bench.build_generator(seed, cfg.scale)
                })
                .collect()
        })
        .collect()
}

/// The ASID each VM's accesses translate under. Contexts are registered
/// with the hierarchy in VM order and ASIDs are assigned sequentially
/// from 1 (`MemoryHierarchy::asid_of`); `simulate` debug-asserts the
/// two agree, so staged records always carry the keys the commit
/// stage's lookups expect.
fn vm_asids(vms: u32) -> Vec<Asid> {
    (0..vms).map(|vm| Asid::new(vm as u16 + 1)).collect()
}

/// Shared dispatch behind every entry point: builds the
/// [`AccessSource`] for the generator matrix and runs the engine, with
/// warmup checkpoints under `cache_dir` (`None`: no checkpoints).
/// Returns the result and whether the warmup was restored.
fn execute<H: PhaseHooks>(
    cfg: &SimConfig,
    mut threads: Vec<Vec<AnyGenerator>>,
    hooks: &mut H,
    cache_dir: Option<&Path>,
) -> (SimResult, bool) {
    // Staged traces recorded under a different ASID get their packed
    // keys recomputed once, up front, so replay stays zero-repack per
    // access no matter which ASID the trace was recorded for.
    let asids = vm_asids(cfg.system.contexts_per_core);
    for (vm, row) in threads.iter_mut().enumerate() {
        for g in row.iter_mut() {
            if let Some(t) = g.as_trace_mut() {
                if t.is_staged() {
                    t.restage(asids[vm]);
                }
            }
        }
    }
    // A matrix of staged (v2) traces replays its prepacked records
    // directly: the records already carry the packed keys, so popping
    // them is the fastest path. Bit-identical to the generator source.
    if threads
        .iter()
        .enumerate()
        .all(|(vm, row)| !row.is_empty() && row.iter().all(|g| g.is_staged_replay(asids[vm])))
    {
        let traces = threads
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|g| match g {
                        AnyGenerator::Trace(t) => t,
                        _ => unreachable!("every generator was checked to be a staged trace"),
                    })
                    .collect()
            })
            .collect();
        simulate(
            cfg,
            hooks,
            &mut StagedReplaySource { threads: traces },
            cache_dir,
        )
    } else {
        simulate(cfg, hooks, &mut InlineSource { threads, asids }, cache_dir)
    }
}

/// Panics with every diagnostic if any is error-severity. Warnings are
/// swallowed: the run is still meaningful, and the static sweep reports
/// them separately.
#[cfg(feature = "audit")]
fn enforce_audit(context: &str, diags: &[csalt_audit::Diagnostic]) {
    use csalt_types::Severity;
    if diags.iter().any(|d| d.severity == Severity::Error) {
        let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
        panic!(
            "conservation-law audit failed at {context}:\n{}",
            rendered.join("\n")
        );
    }
}

/// Runs one configuration to completion, without warmup checkpoints.
///
/// # Panics
///
/// Panics if the configuration is invalid (zero cores, bad geometry…).
pub fn run(cfg: &SimConfig) -> SimResult {
    run_in(cfg, None).0
}

/// [`run`] with warmup checkpoints under `cache_dir` (`None`: no
/// checkpoints), also reporting whether the warmup was restored. The
/// sweep's workers run every job through here, so a sweep keeps its
/// checkpoints in its own cache directory.
///
/// # Panics
///
/// Panics if the configuration is invalid (zero cores, bad geometry…).
pub fn run_in(cfg: &SimConfig, cache_dir: Option<&Path>) -> (SimResult, bool) {
    execute(cfg, build_threads(cfg), &mut NoHooks, cache_dir)
}

/// Runs one configuration over caller-supplied generators instead of
/// the ones `cfg.workload` would build — the entry point for recorded-
/// trace replay (`AnyGenerator::Trace`). `threads[vm][core]` must match
/// the config's VM and core counts. Never checkpoints: the warmup key
/// describes `cfg`, not the generators, so an image saved for one
/// matrix would be restored into a replay of another.
///
/// # Panics
///
/// Panics if the configuration is invalid or the generator matrix does
/// not match its shape.
pub fn run_with_generators(cfg: &SimConfig, threads: Vec<Vec<AnyGenerator>>) -> SimResult {
    assert_eq!(
        threads.len(),
        cfg.system.contexts_per_core as usize,
        "one generator row per VM context"
    );
    assert!(
        threads
            .iter()
            .all(|row| row.len() == cfg.system.cores as usize),
        "one generator per core in every VM row"
    );
    execute(cfg, threads, &mut NoHooks, None).0
}

/// One timed scheduling phase: run every core from zero to
/// `total_per_core` accesses with full cycle accounting. `hooks` is
/// `None` during warmup (warmup is never observed) and `Some` during
/// the measured phase.
#[allow(clippy::too_many_arguments)]
fn timed_phase<H: PhaseHooks, S: AccessSource>(
    cfg: &SimConfig,
    vm_ctx: &[ContextId],
    source: &mut S,
    hier: &mut MemoryHierarchy,
    cores_state: &mut [CoreState],
    mut occupancy: Option<&mut Vec<OccupancySample>>,
    total_per_core: u64,
    mut hooks: Option<&mut H>,
) {
    if total_per_core == 0 {
        return;
    }
    let system = &cfg.system;
    let cores = cores_state.len();
    let vms = system.contexts_per_core;
    let quantum = system.cs_interval_cycles;
    let scan_every = cfg.occupancy_scan_interval;
    let target_total = total_per_core * cores as u64;
    debug_assert!(cores_state.iter().all(|c| c.accesses_done == 0));
    let mut total_done: u64 = 0;
    let mut next_scan = if scan_every == 0 {
        u64::MAX
    } else {
        scan_every
    };
    // With the `audit` feature, verify the conservation laws every
    // time the phase's total access count crosses an epoch boundary —
    // the moment the partitioner has just acted on those counters.
    // Counters reset between phases, so the threshold is per-phase.
    #[cfg(feature = "audit")]
    let mut next_audit_at = system.epoch_accesses.max(1);
    let mut remaining = cores;
    // Sweep scratch, reused so the loop never allocates: each active
    // core's `(core, vm, access)`.
    let mut sweep: Vec<(usize, usize, StagedAccess)> = Vec::with_capacity(cores);
    while remaining > 0 {
        // Schedule every active core (quantum check, stream pop) before
        // committing any access: back-to-back pops overlap their host
        // cache misses, which one pop per commit would serialize
        // (DESIGN §4e). A core's schedule reads only its own state,
        // which this sweep's commits do not touch, so results are
        // bit-identical to scheduling each core just before its commit.
        sweep.clear();
        for (core, state) in cores_state.iter_mut().enumerate() {
            if state.accesses_done >= total_per_core {
                continue;
            }

            // Context switch when the quantum expires.
            if vms > 1 && state.cycles >= state.next_switch {
                let from_vm = state.current_vm;
                state.current_vm = (state.current_vm + 1) % vms;
                state.cycles += cfg.switch_overhead_cycles;
                state.next_switch = state.cycles + quantum;
                state.switches += 1;
                if let Some(h) = hooks.as_deref_mut() {
                    h.on_context_switch(core, from_vm, state.current_vm, state.cycles);
                }
            }

            let vm = state.current_vm as usize;
            sweep.push((core, vm, source.next(core, vm)));
        }

        // Commit and retire each access in core order.
        for &(core, vm, StagedAccess { acc, hint }) in &sweep {
            let state = &mut cores_state[core];
            let core_id = CoreId::new(core as u8);
            let traced = hooks
                .as_deref_mut()
                .is_some_and(|h| h.wants_trace(total_done));
            let charge = if traced {
                let (charge, stages) = hier.access_traced(core_id, vm_ctx[vm], acc);
                if let Some(h) = hooks.as_deref_mut() {
                    h.on_traced(
                        total_done,
                        core,
                        vm_ctx[vm],
                        &acc,
                        &charge,
                        stages,
                        state.cycles,
                    );
                }
                charge
            } else {
                hier.access_hinted(core_id, vm_ctx[vm], acc, &hint)
            };
            if let Some(h) = hooks.as_deref_mut() {
                h.on_access(&charge);
            }
            total_done += 1;

            // Cycle model: compute instructions + blocking
            // translation + overlapped data stalls.
            let compute = (acc.instructions() as f64 * system.base_cpi).ceil() as Cycle;
            let data_stall = charge.data_cycles.saturating_sub(system.l1d.latency);
            let overlapped = (data_stall as f64 / system.mlp).round() as Cycle;
            state.cycles += compute + charge.translation_cycles + overlapped;
            state.instructions += acc.instructions();
            state.accesses_done += 1;
            if state.accesses_done >= total_per_core {
                remaining -= 1;
            }
        }

        if let Some(h) = hooks.as_deref_mut() {
            h.after_sweep(hier, cores_state, total_done, target_total);
        }

        #[cfg(feature = "audit")]
        if total_done >= next_audit_at {
            next_audit_at = total_done + system.epoch_accesses.max(1);
            let snap = hier.snapshot();
            enforce_audit(
                &format!("epoch boundary ({total_done} accesses)"),
                &csalt_audit::conservation::audit_snapshot("epoch", &snap, &cfg.scheme),
            );
            let (l2_occ, l3_occ) = hier.occupancy();
            enforce_audit(
                "epoch occupancy",
                &[
                    csalt_audit::conservation::audit_occupancy("l2", &l2_occ),
                    csalt_audit::conservation::audit_occupancy("l3", &l3_occ),
                ]
                .concat(),
            );
        }

        // Periodic occupancy scan, keyed on core 0's progress.
        if cores_state[0].accesses_done >= next_scan {
            next_scan += scan_every;
            if let Some(occ) = occupancy.as_deref_mut() {
                let (l2, l3) = hier.occupancy();
                occ.push(OccupancySample {
                    progress: cores_state[0].accesses_done as f64 / total_per_core as f64,
                    l2_tlb_fraction: l2.tlb_fraction(),
                    l3_tlb_fraction: l3.tlb_fraction(),
                });
            }
        }
    }
}

/// The engine shared by [`run`] and the instrumented path, monomorphized
/// over the hook set and the access source (generators vs staged replay).
fn simulate<H: PhaseHooks, S: AccessSource>(
    cfg: &SimConfig,
    hooks: &mut H,
    source: &mut S,
    cache_dir: Option<&Path>,
) -> (SimResult, bool) {
    let system = &cfg.system;
    system.validate().expect("system config must be valid");
    let cores = system.cores as usize;
    let vms = system.contexts_per_core;
    assert!(vms >= 1, "at least one context per core");

    let huge = HugePagePolicy {
        fraction_2m: cfg.huge_fraction,
    };
    let mut hier = MemoryHierarchy::new(
        system,
        cfg.scheme,
        cfg.virtualized,
        huge,
        cfg.profiler_interval,
    );
    if cfg.trace_partitions {
        hier.enable_partition_trace();
    }

    // One hierarchy context (address space) per VM; the generators (one
    // per (VM, core) — the VM's per-core thread) live behind `source`.
    let vm_ctx: Vec<ContextId> = (0..vms).map(|_| hier.add_context()).collect();
    // The staged records' packed keys assume this ASID assignment.
    debug_assert!(vm_ctx
        .iter()
        .zip(vm_asids(vms))
        .all(|(ctx, asid)| hier.asid_of(*ctx) == asid));

    let quantum = system.cs_interval_cycles;
    let mut cores_state: Vec<CoreState> = (0..cores)
        .map(|_| CoreState {
            cycles: 0,
            instructions: 0,
            accesses_done: 0,
            current_vm: 0,
            next_switch: quantum,
            switches: 0,
        })
        .collect();

    let mut occupancy = Vec::new();

    // Warmup: populate page tables, TLBs, caches and the POM-TLB, then
    // discard the counters. Scheduling state (cycle counters, switch
    // phase) restarts cleanly for the measured phase; `current_vm`
    // carries over, so the measured phase resumes from the schedule
    // position warmup ended on.
    //
    // Given a cache directory to keep images in, the post-warmup state
    // is content-addressed by the config's warmup-prefix key: the first
    // run of a prefix simulates warmup and snapshots `(hierarchy,
    // per-core VM, per-stream pop counts)`; every later run restores
    // the snapshot, fast-forwards its access streams past the recorded
    // pop counts, and enters the measured phase directly —
    // bit-identical to the straight-through run, which
    // `tests/determinism.rs` pins.
    let ckpt_plan = crate::checkpoint::plan(cfg, cache_dir);
    let mut restored = false;
    if let Some(plan) = &ckpt_plan {
        match plan.try_restore(&mut hier, cores, vms as usize) {
            Ok(Some(meta)) => {
                // Freshly-initialized cores already equal the
                // post-warmup reset state; only the schedule position
                // (which VM each core was running) carries over.
                for (s, vm) in cores_state.iter_mut().zip(&meta.current_vms) {
                    s.current_vm = *vm;
                }
                for (vm, row) in meta.pops.iter().enumerate() {
                    for (core, &n) in row.iter().enumerate() {
                        if n > 0 {
                            source.skip(core, vm, n);
                        }
                    }
                }
                restored = true;
            }
            Ok(None) => {}
            Err(_) => {
                // A rejected image may have part-written the
                // hierarchy mid-decode; rebuild it and run cold (the
                // fallback counter already recorded the event).
                hier = MemoryHierarchy::new(
                    system,
                    cfg.scheme,
                    cfg.virtualized,
                    huge,
                    cfg.profiler_interval,
                );
                if cfg.trace_partitions {
                    hier.enable_partition_trace();
                }
                let rebuilt: Vec<ContextId> = (0..vms).map(|_| hier.add_context()).collect();
                debug_assert_eq!(rebuilt, vm_ctx);
            }
        }
    }
    if !restored {
        let pops = if ckpt_plan.is_some() {
            let mut counting = CountingSource {
                inner: source,
                pops: vec![vec![0; cores]; vms as usize],
            };
            timed_phase::<H, _>(
                cfg,
                &vm_ctx,
                &mut counting,
                &mut hier,
                &mut cores_state,
                None,
                cfg.warmup_accesses_per_core,
                None,
            );
            Some(counting.pops)
        } else {
            timed_phase::<H, S>(
                cfg,
                &vm_ctx,
                source,
                &mut hier,
                &mut cores_state,
                None,
                cfg.warmup_accesses_per_core,
                None,
            );
            None
        };
        hier.reset_stats();
        for s in &mut cores_state {
            s.cycles = 0;
            s.instructions = 0;
            s.accesses_done = 0;
            s.next_switch = quantum;
            s.switches = 0;
        }
        // Snapshot *after* the reset so a restore reproduces exactly
        // this state: zeroed counters, fresh schedule, carried VMs.
        if let (Some(plan), Some(pops)) = (&ckpt_plan, pops) {
            let meta = crate::checkpoint::HierarchyCheckpoint {
                current_vms: cores_state.iter().map(|s| s.current_vm).collect(),
                pops,
            };
            plan.save(&hier, &meta);
        }
    }

    timed_phase(
        cfg,
        &vm_ctx,
        source,
        &mut hier,
        &mut cores_state,
        Some(&mut occupancy),
        cfg.accesses_per_core,
        Some(hooks),
    );
    let snapshot = hier.snapshot();

    let (l2_trace, l3_trace) = hier.partition_traces();
    let to_series = |t: &[PartitionSample]| {
        t.iter()
            .map(|s| (s.at_access, s.tlb_fraction()))
            .collect::<Vec<_>>()
    };
    let l2_partition_trace = to_series(l2_trace);
    let l3_partition_trace = to_series(l3_trace);

    let instructions: u64 = cores_state.iter().map(|c| c.instructions).sum();
    let core_ipc: Vec<f64> = cores_state
        .iter()
        .map(|c| {
            if c.cycles == 0 {
                0.0
            } else {
                c.instructions as f64 / c.cycles as f64
            }
        })
        .collect();

    let result = SimResult {
        workload: cfg.workload.name.clone(),
        scheme: cfg.scheme,
        instructions,
        core_cycles: cores_state.iter().map(|c| c.cycles).collect(),
        core_ipc,
        snapshot,
        occupancy,
        l2_partition_trace,
        l3_partition_trace,
        context_switches: cores_state.iter().map(|c| c.switches).sum(),
        final_partitions: hier.current_partitions(),
    };

    #[cfg(feature = "audit")]
    {
        let mut diags = csalt_audit::conservation::audit_snapshot(
            result.workload.as_str(),
            &result.snapshot,
            &cfg.scheme,
        );
        let (l2_occ, l3_occ) = hier.occupancy();
        diags.extend(csalt_audit::conservation::audit_occupancy("l2", &l2_occ));
        diags.extend(csalt_audit::conservation::audit_occupancy("l3", &l3_occ));
        diags.extend(csalt_audit::conservation::audit_ipc(
            result.workload.as_str(),
            result.ipc(),
            result.instructions,
        ));
        enforce_audit("run completion", &diags);
    }

    (result, restored)
}

/// Options for [`run_instrumented`]: where telemetry goes and how much
/// of it to produce.
#[cfg(feature = "telemetry")]
pub struct Instrumentation<'a> {
    /// Destination for every emitted [`TelemetryRecord`].
    pub recorder: &'a mut dyn Recorder,
    /// Record a full walk trace every `N` measured accesses (0 = none).
    pub sample_interval: u64,
    /// Print a heartbeat line to stderr every `N` epochs (0 = none).
    pub progress_every_epochs: u64,
    /// Span-event sink for `--trace`: engine events on the simulated-
    /// cycles clock, infrastructure events on the wall clock. `None`
    /// (the default) keeps the uninstrumented fast path.
    pub trace: Option<&'a mut TraceBuffer>,
    /// Warmup-checkpoint directory, as for [`run_in`] (`None`: no
    /// checkpoints).
    pub cache_dir: Option<&'a Path>,
}

/// Runs one configuration with telemetry: a provenance header, one
/// [`EpochRecord`] per repartitioning epoch (plus a final partial
/// epoch, so the per-epoch deltas sum exactly to the run totals),
/// sampled [`WalkTraceRecord`]s, and end-of-run latency histograms.
///
/// The simulated machine behaves identically to [`run`] — tracing reads
/// counters, it never charges cycles — so results are bit-equal.
///
/// # Panics
///
/// Panics if the configuration is invalid (zero cores, bad geometry…).
#[cfg(feature = "telemetry")]
pub fn run_instrumented(cfg: &SimConfig, inst: &mut Instrumentation<'_>) -> SimResult {
    // A disabled recorder (e.g. `NullRecorder`) drops everything, so
    // skip the hook bookkeeping entirely and take the same monomorphized
    // no-op path as `run` — this is what keeps a telemetry-capable build
    // free when telemetry is not requested.
    if !inst.recorder.is_enabled() && inst.progress_every_epochs == 0 && inst.trace.is_none() {
        return run_in(cfg, inst.cache_dir).0;
    }
    let cores = cfg.system.cores as usize;
    let wall_start = if let Some(t) = inst.trace.as_deref_mut() {
        t.set_track_name(Domain::Cycles, 0, "partitioner");
        for core in 0..cores {
            t.set_track_name(Domain::Cycles, 1 + core as u32, format!("core {core}"));
        }
        t.set_track_name(Domain::Wall, 0, "commit stage");
        Some(csalt_trace::timing::wall_micros())
    } else {
        None
    };
    let workload = cfg.workload.name.clone();
    let scheme = cfg.scheme.label();
    inst.recorder.record(&TelemetryRecord::Provenance {
        record: ProvenanceRecord {
            tool: "csalt-sim".to_owned(),
            format_version: FORMAT_VERSION,
            workload: workload.clone(),
            scheme: scheme.clone(),
            sample_interval: inst.sample_interval,
            config_json: serde_json::to_string(cfg).unwrap_or_default(),
        },
    });
    let switch_overhead = cfg.switch_overhead_cycles;
    let epoch_len = cfg.system.epoch_accesses.max(1);
    let mut hooks = LiveHooks {
        inst,
        workload,
        scheme,
        epoch_len,
        next_epoch_at: epoch_len,
        epoch: 0,
        last_emit_total: 0,
        prev: None,
        prev_instructions: 0,
        prev_switches: 0,
        switch_overhead,
        translation_hist: Log2Histogram::new(),
        data_hist: Log2Histogram::new(),
        total_hist: Log2Histogram::new(),
        epoch_start_ts: 0,
        core_last_ts: vec![0; cores],
        l2_decisions_seen: 0,
        l3_decisions_seen: 0,
        last_commit_wall: wall_start.unwrap_or(0),
    };
    let cache_dir = hooks.inst.cache_dir;
    let (result, _) = execute(cfg, build_threads(cfg), &mut hooks, cache_dir);
    hooks.finish();
    result
}

/// The live hook set behind [`run_instrumented`].
#[cfg(feature = "telemetry")]
struct LiveHooks<'a, 'b> {
    inst: &'a mut Instrumentation<'b>,
    workload: String,
    scheme: String,
    epoch_len: u64,
    next_epoch_at: u64,
    epoch: u64,
    last_emit_total: u64,
    prev: Option<HierarchySnapshot>,
    prev_instructions: u64,
    prev_switches: u64,
    switch_overhead: Cycle,
    translation_hist: Log2Histogram,
    data_hist: Log2Histogram,
    total_hist: Log2Histogram,
    /// Cycles timestamp where the currently accumulating epoch began.
    epoch_start_ts: u64,
    /// Per-core monotonicity clamp for the cycles-domain core tracks:
    /// walk spans are sized by raw stage cycles, which can exceed the
    /// core's charged (MLP-overlapped) advance, so back-to-back traced
    /// accesses could otherwise overlap on the track.
    core_last_ts: Vec<u64>,
    l2_decisions_seen: u64,
    l3_decisions_seen: u64,
    /// Wall timestamp where the current commit span began.
    last_commit_wall: u64,
}

/// Cycles-domain track id of a core (`tid` 0 is the partitioner).
#[cfg(feature = "telemetry")]
fn core_tid(core: usize) -> u32 {
    1 + core as u32
}

/// Span label for a walk stage.
#[cfg(feature = "telemetry")]
fn stage_label(stage: WalkStage) -> &'static str {
    match stage {
        WalkStage::L1Tlb => "l1_tlb",
        WalkStage::L2Tlb => "l2_tlb",
        WalkStage::PomLookup => "pom_lookup",
        WalkStage::TsbLookup => "tsb_lookup",
        WalkStage::GuestPte => "guest_pte",
        WalkStage::HostPte => "host_pte",
        WalkStage::Data => "data",
    }
}

#[cfg(feature = "telemetry")]
impl LiveHooks<'_, '_> {
    /// Emits the trace events of one epoch boundary: the cycles-domain
    /// epoch span on the partitioner track, one `repartition` instant
    /// per partitioned cache (with the fresh decision's utility and
    /// marginal-utility curve when the partitioner acted this epoch),
    /// and the wall-domain commit span.
    fn trace_epoch(&mut self, hier: &MemoryHierarchy, cores: &[CoreState], total: u64) {
        let ts = cores
            .iter()
            .map(|c| c.cycles)
            .max()
            .unwrap_or(0)
            .max(self.epoch_start_ts);
        let (l2_ways, l3_ways) = hier.current_partitions();
        let accesses = total.saturating_sub(self.last_emit_total);
        let epoch = self.epoch;
        let Some(t) = self.inst.trace.as_deref_mut() else {
            return;
        };
        t.begin_args(
            Domain::Cycles,
            0,
            self.epoch_start_ts,
            "epoch",
            vec![
                ("epoch", ArgValue::U64(epoch)),
                ("accesses", ArgValue::U64(accesses)),
            ],
        );
        t.end(Domain::Cycles, 0, ts, "epoch");
        self.epoch_start_ts = ts;

        // Repartition instants: one per partitioned cache, every epoch
        // boundary, so the timeline always shows the split in force.
        // Decision detail (utility, MU curve) rides along only when the
        // partitioner actually decided since the last boundary.
        let mut repartition = |cache: &'static str,
                               data_ways: Option<u32>,
                               total_ways: u32,
                               info: (
            u64,
            Option<csalt_profiler::PartitionDecision>,
            &[(u32, f64)],
        ),
                               seen: &mut u64| {
            let Some(dw) = data_ways else { return };
            let (decisions, decision, curve) = info;
            let mut args = vec![
                ("cache", ArgValue::from(cache)),
                ("data_ways", ArgValue::U64(u64::from(dw))),
                ("tlb_ways", ArgValue::U64(u64::from(total_ways - dw))),
                ("decisions", ArgValue::U64(decisions)),
            ];
            if decisions > *seen {
                *seen = decisions;
                if let Some(d) = decision {
                    args.push(("utility", ArgValue::Str(format!("{:.1}", d.utility))));
                }
                if !curve.is_empty() {
                    let rendered = curve
                        .iter()
                        .map(|(n, u)| format!("{n}:{u:.1}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    args.push(("mu_curve", ArgValue::Str(rendered)));
                }
            }
            t.instant(Domain::Cycles, 0, ts, "repartition", args);
        };
        repartition(
            "l2",
            l2_ways,
            hier.config().l2.ways,
            hier.l2_decision_info(),
            &mut self.l2_decisions_seen,
        );
        repartition(
            "l3",
            l3_ways,
            hier.config().l3.ways,
            hier.l3_decision_info(),
            &mut self.l3_decisions_seen,
        );

        // Wall domain: the engine's slice of real time spent on this
        // epoch.
        let now = csalt_trace::timing::wall_micros().max(self.last_commit_wall);
        let args = vec![
            ("epoch", ArgValue::U64(epoch)),
            ("accesses", ArgValue::U64(accesses)),
        ];
        t.begin_args(Domain::Wall, 0, self.last_commit_wall, "commit", args);
        t.end(Domain::Wall, 0, now, "commit");
        self.last_commit_wall = now;
    }

    /// Emits the epoch record covering `(last emission, total]`.
    fn emit_epoch(&mut self, hier: &MemoryHierarchy, cores: &[CoreState], total: u64) {
        if self.inst.trace.is_some() {
            self.trace_epoch(hier, cores, total);
        }
        let snap = hier.snapshot();
        let delta = match &self.prev {
            Some(p) => snap.delta_since(p),
            None => snap.clone(),
        };
        let instructions: u64 = cores.iter().map(|c| c.instructions).sum();
        let instr_delta = instructions.saturating_sub(self.prev_instructions);
        let switches: u64 = cores.iter().map(|c| c.switches).sum();
        let switch_delta = switches.saturating_sub(self.prev_switches);
        let (l2_occ, l3_occ) = hier.occupancy();
        let (l2_ways, l3_ways) = hier.current_partitions();
        let (g2, g3) = hier.criticality_gauges();
        let per_walk = if delta.page_walks == 0 {
            0.0
        } else {
            delta.page_walk_cycles as f64 / delta.page_walks as f64
        };
        let cpi = if instr_delta == 0 {
            0.0
        } else {
            delta.translation_cycles as f64 / instr_delta as f64
        };
        let rate = |hits: u64, accesses: u64| (accesses > 0).then(|| hits as f64 / accesses as f64);
        let record = EpochRecord {
            workload: self.workload.clone(),
            scheme: self.scheme.clone(),
            epoch: self.epoch,
            at_access: total,
            accesses: delta.accesses,
            instructions: instr_delta,
            translation_cycles: delta.translation_cycles,
            data_cycles: delta.data_cycles,
            page_walks: delta.page_walks,
            page_walk_cycles: delta.page_walk_cycles,
            l1_tlb: delta.l1_tlb,
            l2_tlb: delta.l2_tlb,
            pom: delta.pom,
            tsb: delta.tsb,
            l2_cache: delta.l2.total(),
            l3_cache: delta.l3.total(),
            ddr_accesses: delta.ddr.accesses,
            ddr_row_hits: delta.ddr.row_hits,
            stacked_accesses: delta.stacked.accesses,
            stacked_row_hits: delta.stacked.row_hits,
            context_switches: switch_delta,
            switch_overhead_cycles: switch_delta * self.switch_overhead,
            l1_tlb_mpki: delta.l1_tlb.mpki(instr_delta),
            l2_tlb_mpki: delta.l2_tlb.mpki(instr_delta),
            l2_cache_mpki: delta.l2.total().mpki(instr_delta),
            l3_cache_mpki: delta.l3.total().mpki(instr_delta),
            translation_cpi: cpi,
            walk_cycles_per_walk: per_walk,
            ddr_row_hit_rate: rate(delta.ddr.row_hits, delta.ddr.accesses),
            stacked_row_hit_rate: rate(delta.stacked.row_hits, delta.stacked.accesses),
            l2_data_ways: l2_ways,
            l3_data_ways: l3_ways,
            l2_tlb_occupancy: l2_occ.tlb_fraction(),
            l3_tlb_occupancy: l3_occ.tlb_fraction(),
            l2_tlb_utilization: hier.l2_tlb_utilization(),
            pom_utilization: hier.pom_utilization(),
            l2_weight_data: g2.s_dat,
            l2_weight_translation: g2.s_tr,
            l3_weight_data: g3.s_dat,
            l3_weight_translation: g3.s_tr,
        };
        self.inst
            .recorder
            .record(&TelemetryRecord::Epoch { record });
        self.prev = Some(snap);
        self.prev_instructions = instructions;
        self.prev_switches = switches;
        self.last_emit_total = total;
        self.epoch += 1;
    }

    /// Emits the end-of-run latency histograms and flushes the sink.
    fn finish(&mut self) {
        for (name, hist) in [
            ("translation_cycles", &self.translation_hist),
            ("data_cycles", &self.data_hist),
            ("total_cycles", &self.total_hist),
        ] {
            if let Some(record) =
                HistogramRecord::from_histogram(name, &self.workload, &self.scheme, hist)
            {
                self.inst
                    .recorder
                    .record(&TelemetryRecord::Histogram { record });
            }
        }
        self.inst.recorder.flush();
    }
}

#[cfg(feature = "telemetry")]
impl PhaseHooks for LiveHooks<'_, '_> {
    fn wants_trace(&mut self, index: u64) -> bool {
        self.inst.sample_interval > 0 && index.is_multiple_of(self.inst.sample_interval)
    }

    fn on_access(&mut self, charge: &AccessCharge) {
        self.translation_hist.record(charge.translation_cycles);
        self.data_hist.record(charge.data_cycles);
        self.total_hist
            .record(charge.translation_cycles + charge.data_cycles);
    }

    fn on_traced(
        &mut self,
        index: u64,
        core: usize,
        ctx: ContextId,
        acc: &MemAccess,
        charge: &AccessCharge,
        stages: Vec<StageSample>,
        at_cycles: Cycle,
    ) {
        if let Some(t) = self.inst.trace.as_deref_mut() {
            // The walk span plus one nested span per stage, sized by the
            // stage's raw cycles; clamped so spans on a core track never
            // overlap (see `core_last_ts`).
            let tid = core_tid(core);
            let total: u64 = stages.iter().map(|s| s.cycles).sum();
            let t0 = at_cycles.max(self.core_last_ts[core]);
            t.begin_args(
                Domain::Cycles,
                tid,
                t0,
                "walk",
                vec![
                    ("index", ArgValue::U64(index)),
                    ("walked", ArgValue::U64(u64::from(charge.walked))),
                    (
                        "translation_cycles",
                        ArgValue::U64(charge.translation_cycles),
                    ),
                    ("data_cycles", ArgValue::U64(charge.data_cycles)),
                ],
            );
            let mut at = t0;
            for s in &stages {
                let name = stage_label(s.stage);
                t.begin(Domain::Cycles, tid, at, name);
                at += s.cycles;
                t.end(Domain::Cycles, tid, at, name);
            }
            t.end(Domain::Cycles, tid, t0 + total, "walk");
            self.core_last_ts[core] = t0 + total;
        }
        let record = WalkTraceRecord {
            workload: self.workload.clone(),
            scheme: self.scheme.clone(),
            access_index: index,
            core,
            context: u64::from(ctx.raw()),
            vaddr: acc.vaddr.raw(),
            write: acc.ty.is_write(),
            translation_cycles: charge.translation_cycles,
            data_cycles: charge.data_cycles,
            total_cycles: charge.translation_cycles + charge.data_cycles,
            l1_tlb_hit: charge.l1_tlb_hit,
            l2_tlb_hit: charge.l2_tlb_hit,
            walked: charge.walked,
            stages,
        };
        self.inst
            .recorder
            .record(&TelemetryRecord::WalkTrace { record });
    }

    fn on_context_switch(&mut self, core: usize, from_vm: u32, to_vm: u32, at_cycles: Cycle) {
        if let Some(t) = self.inst.trace.as_deref_mut() {
            let tid = core_tid(core);
            let ts = at_cycles.max(self.core_last_ts[core]);
            t.instant(
                Domain::Cycles,
                tid,
                ts,
                "context_switch",
                vec![
                    ("from_vm", ArgValue::U64(u64::from(from_vm))),
                    ("to_vm", ArgValue::U64(u64::from(to_vm))),
                ],
            );
            self.core_last_ts[core] = ts;
        }
    }

    fn after_sweep(
        &mut self,
        hier: &MemoryHierarchy,
        cores: &[CoreState],
        total: u64,
        target: u64,
    ) {
        while total >= self.next_epoch_at {
            self.next_epoch_at += self.epoch_len;
            self.emit_epoch(hier, cores, total);
            if self.inst.progress_every_epochs > 0
                && self.epoch.is_multiple_of(self.inst.progress_every_epochs)
            {
                let (l2_ways, l3_ways) = hier.current_partitions();
                let ways = |w: Option<u32>| w.map_or_else(|| "-".to_owned(), |w| w.to_string());
                eprintln!(
                    "[csalt] {} / {}: epoch {}, {total} of {target} accesses retired ({} remaining), data ways l2/l3 {}/{}",
                    self.workload,
                    self.scheme,
                    self.epoch,
                    target.saturating_sub(total),
                    ways(l2_ways),
                    ways(l3_ways),
                );
            }
        }
        // The final (usually partial) epoch: emitted exactly once, when
        // the phase target is reached, so delta sums equal run totals.
        if total >= target && total > self.last_emit_total {
            self.emit_epoch(hier, cores, total);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csalt_workloads::{BenchKind, WorkloadSpec};

    /// Runs `cfg` without warmup checkpoints, so tests leave no files.
    fn run(cfg: &SimConfig) -> SimResult {
        run_in(cfg, None).0
    }

    fn quick(scheme: TranslationScheme) -> SimConfig {
        let mut cfg = SimConfig::new(WorkloadSpec::homogeneous("gups", BenchKind::Gups), scheme);
        cfg.system.cores = 2;
        cfg.system.cs_interval_cycles = 50_000;
        cfg.system.epoch_accesses = 20_000;
        // Disable the paging-structure caches: at this test's tiny
        // footprint their 64 MiB reach would cover the whole table and
        // hide the walk costs the schemes differ on (the experiment
        // harness instead uses full-scale footprints).
        cfg.system.psc.pml4_entries = 0;
        cfg.system.psc.pdp_entries = 0;
        cfg.system.psc.pde_entries = 0;
        cfg.accesses_per_core = 30_000;
        cfg.scale = 0.05;
        cfg
    }

    #[test]
    fn run_completes_and_counts_work() {
        let r = run(&quick(TranslationScheme::PomTlb));
        assert_eq!(r.core_cycles.len(), 2);
        assert!(r.instructions > 60_000);
        assert!(r.ipc() > 0.0 && r.ipc() < 2.0, "ipc {}", r.ipc());
        assert!(r.context_switches > 0);
        assert_eq!(r.snapshot.accesses, 60_000);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(&quick(TranslationScheme::CsaltCd));
        let b = run(&quick(TranslationScheme::CsaltCd));
        assert_eq!(a.core_cycles, b.core_cycles);
        assert_eq!(a.snapshot, b.snapshot);
    }

    #[test]
    fn pom_outperforms_conventional_on_gups() {
        let pom = run(&quick(TranslationScheme::PomTlb));
        let conv = run(&quick(TranslationScheme::Conventional));
        assert!(
            pom.ipc() > conv.ipc(),
            "pom {} vs conventional {}",
            pom.ipc(),
            conv.ipc()
        );
        assert!(pom.snapshot.page_walks < conv.snapshot.page_walks);
    }

    #[test]
    fn single_context_never_switches() {
        let mut cfg = quick(TranslationScheme::PomTlb);
        cfg.system.contexts_per_core = 1;
        let r = run(&cfg);
        assert_eq!(r.context_switches, 0);
    }

    #[test]
    fn more_contexts_raise_tlb_mpki() {
        let mut one = quick(TranslationScheme::PomTlb);
        one.system.contexts_per_core = 1;
        let mut two = quick(TranslationScheme::PomTlb);
        two.system.contexts_per_core = 2;
        let r1 = run(&one);
        let r2 = run(&two);
        assert!(
            r2.l2_tlb_mpki() > r1.l2_tlb_mpki(),
            "2ctx {} vs 1ctx {}",
            r2.l2_tlb_mpki(),
            r1.l2_tlb_mpki()
        );
    }

    #[test]
    fn occupancy_scans_are_recorded() {
        let mut cfg = quick(TranslationScheme::PomTlb);
        cfg.occupancy_scan_interval = 10_000;
        let r = run(&cfg);
        assert!(!r.occupancy.is_empty());
        for s in &r.occupancy {
            assert!((0.0..=1.0).contains(&s.l3_tlb_fraction));
        }
    }

    #[test]
    fn partition_traces_only_when_requested() {
        let mut cfg = quick(TranslationScheme::CsaltD);
        let r = run(&cfg);
        assert!(r.l3_partition_trace.is_empty());
        cfg.trace_partitions = true;
        let r2 = run(&cfg);
        assert!(!r2.l3_partition_trace.is_empty());
    }

    #[test]
    fn result_serializes() {
        let r = run(&quick(TranslationScheme::PomTlb));
        let json = serde_json::to_string(&r).expect("serialize");
        let back: SimResult = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.instructions, r.instructions);
    }
}
