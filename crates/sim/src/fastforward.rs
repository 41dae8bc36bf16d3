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

use crate::simulator::{AccessSource, CoreState, StagedAccess};
use csalt_core::MemoryHierarchy;
use csalt_types::{ContextId, CoreId};

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
    // As in the timed phase, a sweep pops every active core's access
    // before committing any, so the pops' host cache misses overlap.
    // The switch schedule keys on instruction counts known at pop time,
    // so the commit order — core order — is the historical one.
    let mut sweep: Vec<(usize, usize, StagedAccess)> = Vec::with_capacity(cores);
    while remaining > 0 {
        sweep.clear();
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
            sweep.push((core, vm, staged));
            done[core] += 1;
            if done[core] >= accesses_per_core {
                remaining -= 1;
            }
        }
        for &(core, vm, s) in &sweep {
            hier.access_functional(CoreId::new(core as u8), vm_ctx[vm], s.acc, &s.hint);
        }
    }
}
