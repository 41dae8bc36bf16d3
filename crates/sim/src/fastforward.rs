//! Functional fast-forward: state-only execution for warmup and for the
//! gaps between sampled measurement windows.
//!
//! The loop drives the same per-core round-robin schedule as the timed
//! phase — including context-switch ASID churn — but commits accesses
//! through [`MemoryHierarchy::access_functional`], which updates TLB,
//! cache and page-table *state* (fills, replacement stamps, radix-table
//! population) while skipping all cycle accounting, DRAM charging and
//! partitioner utility math. That is the classic functional/timing
//! split ("Fast TLB Simulation for RISC-V Systems"): state transitions
//! are cheap, timing is expensive, and warmup only needs the former.
//!
//! This module is integer-only by policy (srclint `float-deny`): it has
//! no cycle clock, so switches are scheduled by retired instructions —
//! the quantum's instruction equivalent is computed by the caller and
//! arrives here as a plain integer.

use crate::simulator::{AccessSource, CoreState};
use csalt_core::{BlockAccess, MemoryHierarchy};
use csalt_types::{ContextId, CoreId};

/// Accesses gathered per batched functional commit. Unlike the timed
/// phase, a block may span multiple sweeps: the functional schedule
/// keys on instruction counts recorded at gather time and has no
/// feedback from commit, so gathering ahead is exact.
const BLOCK: usize = 64;

/// The integer context-switch schedule of a functional phase.
///
/// The timed phase switches a core when its cycle counter crosses the
/// quantum; with no cycles here, the equivalent instruction count
/// (`quantum / base_cpi`, precomputed by the caller) stands in. The
/// approximation only shifts *where* in the stream switches land, not
/// whether the ASID churn the paper studies happens.
pub(crate) struct FunctionalSchedule {
    /// Instructions a core retires between context switches (≥ 1).
    pub(crate) instr_per_switch: u64,
}

/// Runs every core `accesses_per_core` further accesses through the
/// functional (state-only) path.
///
/// Mirrors the timed phase's sweep order — core 0..n per round — so a
/// functional phase consumes each `(core, vm)` stream in the same
/// deterministic interleaving. Per-phase progress is tracked locally:
/// `CoreState::accesses_done`, cycle and instruction counters are left
/// untouched (fast-forwarded work is by definition unmeasured), but
/// `current_vm` *does* advance so the measured phase resumes from the
/// schedule position warmup ended on, exactly like a timed warmup.
pub(crate) fn functional_phase<S: AccessSource>(
    hier: &mut MemoryHierarchy,
    source: &mut S,
    vm_ctx: &[ContextId],
    cores_state: &mut [CoreState],
    accesses_per_core: u64,
    sched: &FunctionalSchedule,
) {
    if accesses_per_core == 0 {
        return;
    }
    let vms = vm_ctx.len() as u32;
    let cores = cores_state.len();
    let mut done = vec![0u64; cores];
    let mut instr = vec![0u64; cores];
    let mut remaining = cores;
    // Gather whole sweeps into a block, then commit the block through
    // the batched functional entry point. Commit order equals gather
    // order equals the historical interleaved order, so the state
    // transitions are bit-identical; only the call granularity changes.
    let mut block: Vec<BlockAccess> = Vec::with_capacity(BLOCK + cores);
    while remaining > 0 {
        block.clear();
        while remaining > 0 && block.len() < BLOCK {
            for core in 0..cores {
                if done[core] >= accesses_per_core {
                    continue;
                }
                if vms > 1 && instr[core] >= sched.instr_per_switch {
                    instr[core] = 0;
                    cores_state[core].current_vm = (cores_state[core].current_vm + 1) % vms;
                }
                let vm = cores_state[core].current_vm as usize;
                let staged = source.next(core, vm);
                instr[core] += staged.acc.instructions();
                block.push(BlockAccess {
                    core: CoreId::new(core as u8),
                    ctx: vm_ctx[vm],
                    acc: staged.acc,
                    hint: staged.hint,
                });
                done[core] += 1;
                if done[core] >= accesses_per_core {
                    remaining -= 1;
                }
            }
        }
        hier.access_block_functional(&block);
    }
}
