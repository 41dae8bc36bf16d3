//! DRAM timing model for the CSALT simulator.
//!
//! Models the two memories of the paper's Table 2 — off-chip DDR4-2133 and
//! the on-package die-stacked DRAM that hosts the POM-TLB — at the level
//! the evaluation is sensitive to: per-bank open-row state, so that each
//! access resolves to a row-buffer *hit*, *closed-row miss* or *conflict*
//! with the corresponding tCAS / tRCD / tRP timing, plus the burst time for
//! a 64-byte line over the configured bus.
//!
//! The model is deliberately queueing-free: it returns the service latency
//! of an access in core cycles and leaves overlap/contention accounting to
//! the core model (see `csalt-sim`), mirroring how the paper separates
//! translation stalls (blocking) from data stalls (overlapped).
//!
//! # Example
//!
//! ```
//! use csalt_dram::DramModel;
//! use csalt_types::{DramTimings, PhysAddr};
//!
//! let mut ddr = DramModel::new(DramTimings::ddr4_2133(), 4.0);
//! let first = ddr.access(PhysAddr::new(0x1000), false);
//! let second = ddr.access(PhysAddr::new(0x1040), false);
//! assert!(second < first, "second access hits the open row");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use csalt_types::{CkptError, CkptReader, CkptWriter, Cycle, DramTimings, PhysAddr, LINE_BYTES};
use serde::{Deserialize, Serialize};

/// Outcome of an access with respect to the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowOutcome {
    /// The addressed row was already open: column access only (tCAS).
    Hit,
    /// The bank was idle: activate + column access (tRCD + tCAS).
    ClosedMiss,
    /// Another row was open: precharge + activate + column access
    /// (tRP + tRCD + tCAS).
    Conflict,
}

/// Aggregate statistics for one DRAM device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DramStats {
    /// Total accesses served.
    pub accesses: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Closed-row activations.
    pub row_closed: u64,
    /// Row conflicts (precharge needed).
    pub row_conflicts: u64,
    /// Writes among the accesses.
    pub writes: u64,
    /// Sum of returned latencies (core cycles), for averaging.
    pub total_latency: u64,
}

impl DramStats {
    /// Average access latency in core cycles (0 if no accesses).
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Row-buffer hit rate in `[0, 1]`, or `None` when the device was
    /// never accessed (matches `HitMissStats::hit_rate` semantics so an
    /// idle channel never reports a fake 0%).
    pub fn row_hit_rate(&self) -> Option<f64> {
        if self.accesses == 0 {
            None
        } else {
            Some(self.row_hits as f64 / self.accesses as f64)
        }
    }

    /// Counter delta relative to an `earlier` snapshot of the same
    /// device (saturating, for telemetry epoch records).
    #[must_use]
    pub fn delta_since(&self, earlier: &Self) -> Self {
        Self {
            accesses: self.accesses.saturating_sub(earlier.accesses),
            row_hits: self.row_hits.saturating_sub(earlier.row_hits),
            row_closed: self.row_closed.saturating_sub(earlier.row_closed),
            row_conflicts: self.row_conflicts.saturating_sub(earlier.row_conflicts),
            writes: self.writes.saturating_sub(earlier.writes),
            total_latency: self.total_latency.saturating_sub(earlier.total_latency),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
}

/// A single DRAM device with per-bank open-row tracking.
///
/// Latencies are returned in **core** cycles; the conversion uses the core
/// clock supplied at construction (4 GHz in the paper).
#[derive(Debug, Clone)]
pub struct DramModel {
    timings: DramTimings,
    banks: Vec<BankState>,
    stats: DramStats,
    /// Core cycles per memory-bus cycle, precomputed.
    core_per_bus: f64,
    /// Fixed controller/interconnect overhead in core cycles.
    controller_overhead: Cycle,
    row_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
    /// Precomputed total latency per row outcome (hit / closed miss /
    /// conflict) — an access only ever takes one of three values, so the
    /// float timing math runs once at construction.
    latency_hit: Cycle,
    latency_closed: Cycle,
    latency_conflict: Cycle,
}

impl DramModel {
    /// Builds a model for `timings` driven by a core clocked at `core_ghz`.
    ///
    /// # Panics
    ///
    /// Panics if the timing parameters describe a degenerate device
    /// (zero banks, zero bus width, or a row buffer smaller than a line).
    pub fn new(timings: DramTimings, core_ghz: f64) -> Self {
        assert!(timings.banks > 0, "DRAM must have at least one bank");
        assert!(timings.bus_bits >= 8, "bus must be at least one byte wide");
        assert!(
            timings.row_buffer_bytes >= LINE_BYTES,
            "row buffer must hold at least one line"
        );
        assert!(
            timings.row_buffer_bytes.is_power_of_two() && timings.banks.is_power_of_two(),
            "row buffer and bank count must be powers of two"
        );
        let row_shift = timings.row_buffer_bytes.trailing_zeros();
        let bank_shift = row_shift;
        let bank_mask = u64::from(timings.banks) - 1;
        let mut model = Self {
            banks: vec![BankState::default(); timings.banks as usize],
            stats: DramStats::default(),
            core_per_bus: timings.core_cycles_per_bus_cycle(core_ghz),
            // A small fixed cost for the on-chip network + memory
            // controller, common to both devices.
            controller_overhead: 10,
            timings,
            row_shift,
            bank_mask,
            bank_shift,
            latency_hit: 0,
            latency_closed: 0,
            latency_conflict: 0,
        };
        model.latency_hit = model.outcome_latency(RowOutcome::Hit);
        model.latency_closed = model.outcome_latency(RowOutcome::ClosedMiss);
        model.latency_conflict = model.outcome_latency(RowOutcome::Conflict);
        model
    }

    /// Total latency for one access with the given row outcome, in core
    /// cycles (the timing formula; evaluated once per outcome at build).
    fn outcome_latency(&self, outcome: RowOutcome) -> Cycle {
        let bus_cycles = match outcome {
            RowOutcome::Hit => f64::from(self.timings.t_cas),
            RowOutcome::ClosedMiss => f64::from(self.timings.t_rcd + self.timings.t_cas),
            RowOutcome::Conflict => {
                f64::from(self.timings.t_rp + self.timings.t_rcd + self.timings.t_cas)
            }
        };
        (bus_cycles * self.core_per_bus + self.burst_cycles()).round() as Cycle
            + self.controller_overhead
    }

    /// The device's timing parameters.
    pub fn timings(&self) -> &DramTimings {
        &self.timings
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets statistics (open-row state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Maps a physical address to (bank index, row number).
    #[inline]
    fn map(&self, pa: PhysAddr) -> (usize, u64) {
        let row_addr = pa.raw() >> self.row_shift;
        let bank = (row_addr & self.bank_mask) as usize;
        let row = pa.raw() >> (self.bank_shift + self.timings.banks.trailing_zeros());
        (bank, row)
    }

    /// Burst transfer time for one 64-byte line, in core cycles.
    #[inline]
    fn burst_cycles(&self) -> f64 {
        // Double data rate: bus_bits/8 bytes per half bus cycle.
        let bytes_per_bus_cycle = (f64::from(self.timings.bus_bits) / 8.0) * 2.0;
        (LINE_BYTES as f64 / bytes_per_bus_cycle) * self.core_per_bus
    }

    /// Classifies an access against the bank's open row and updates it.
    fn row_outcome(&mut self, bank: usize, row: u64) -> RowOutcome {
        let state = &mut self.banks[bank];
        let outcome = match state.open_row {
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::ClosedMiss,
        };
        state.open_row = Some(row);
        outcome
    }

    /// Serves one line-granular access and returns its latency in core
    /// cycles. `is_write` only affects statistics — write latency to the
    /// row buffer is modelled identically to reads, as in the paper's
    /// simplified Ramulator front-end.
    pub fn access(&mut self, pa: PhysAddr, is_write: bool) -> Cycle {
        let (bank, row) = self.map(pa);
        let outcome = self.row_outcome(bank, row);
        let latency = match outcome {
            RowOutcome::Hit => self.latency_hit,
            RowOutcome::ClosedMiss => self.latency_closed,
            RowOutcome::Conflict => self.latency_conflict,
        };

        self.stats.accesses += 1;
        self.stats.total_latency += latency;
        if is_write {
            self.stats.writes += 1;
        }
        match outcome {
            RowOutcome::Hit => self.stats.row_hits += 1,
            RowOutcome::ClosedMiss => self.stats.row_closed += 1,
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
        }
        latency
    }

    /// Latency of a row-buffer hit, in core cycles — the best case this
    /// device can serve. Useful for latency estimators.
    pub fn best_case_latency(&self) -> Cycle {
        (f64::from(self.timings.t_cas) * self.core_per_bus + self.burst_cycles()).round() as Cycle
            + self.controller_overhead
    }

    /// Latency of a row conflict, in core cycles — the worst case.
    pub fn worst_case_latency(&self) -> Cycle {
        (f64::from(self.timings.t_rp + self.timings.t_rcd + self.timings.t_cas) * self.core_per_bus
            + self.burst_cycles())
        .round() as Cycle
            + self.controller_overhead
    }

    /// Serializes the per-bank open-row registers (one sparse array of
    /// `row + 1`, `0` for a closed bank) and statistics. Timing
    /// parameters are config-derived; the array's length guards the
    /// bank count.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.iter_u64(
            self.banks.len(),
            self.banks.iter().map(|bank| {
                bank.open_row.map_or(0, |row| {
                    debug_assert!(row < u64::MAX, "row overflows its register word");
                    row + 1
                })
            }),
        );
        w.u64(self.stats.accesses);
        w.u64(self.stats.row_hits);
        w.u64(self.stats.row_closed);
        w.u64(self.stats.row_conflicts);
        w.u64(self.stats.writes);
        w.u64(self.stats.total_latency);
    }

    /// Restores state written by [`DramModel::ckpt_save`]; the bank count
    /// must match this model's geometry.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        let mut rows = vec![0; self.banks.len()];
        r.fill_u64(&mut rows)?;
        for (bank, &row) in self.banks.iter_mut().zip(&rows) {
            bank.open_row = row.checked_sub(1);
        }
        self.stats.accesses = r.u64()?;
        self.stats.row_hits = r.u64()?;
        self.stats.row_closed = r.u64()?;
        self.stats.row_conflicts = r.u64()?;
        self.stats.writes = r.u64()?;
        self.stats.total_latency = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csalt_types::DramKind;

    fn ddr() -> DramModel {
        DramModel::new(DramTimings::ddr4_2133(), 4.0)
    }

    fn stacked() -> DramModel {
        DramModel::new(DramTimings::die_stacked(), 4.0)
    }

    #[test]
    fn first_access_is_closed_miss() {
        let mut m = ddr();
        m.access(PhysAddr::new(0x4000), false);
        assert_eq!(m.stats().row_closed, 1);
        assert_eq!(m.stats().row_hits, 0);
    }

    #[test]
    fn same_row_hits_and_is_faster() {
        let mut m = ddr();
        let miss = m.access(PhysAddr::new(0x0), false);
        let hit = m.access(PhysAddr::new(0x40), false);
        assert_eq!(m.stats().row_hits, 1);
        assert!(hit < miss, "row hit {hit} must be faster than miss {miss}");
        assert_eq!(hit, m.best_case_latency());
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let mut m = ddr();
        let row_bytes = m.timings().row_buffer_bytes;
        let banks = u64::from(m.timings().banks);
        m.access(PhysAddr::new(0), false);
        // Same bank, different row: stride = row_buffer * banks.
        let conflict = m.access(PhysAddr::new(row_bytes * banks), false);
        assert_eq!(m.stats().row_conflicts, 1);
        assert_eq!(conflict, m.worst_case_latency());
        assert!(conflict > m.best_case_latency());
    }

    #[test]
    fn die_stacked_is_faster_than_ddr() {
        let mut s = stacked();
        let mut d = ddr();
        // Compare best cases: wider bus + lower CAS + faster clock.
        assert!(s.best_case_latency() < d.best_case_latency());
        let sl = s.access(PhysAddr::new(0x80), false);
        let dl = d.access(PhysAddr::new(0x80), false);
        assert!(sl < dl);
        assert_eq!(s.timings().kind, DramKind::DieStacked);
    }

    #[test]
    fn ddr_latencies_are_plausible() {
        // ~14+14 bus cycles @ 3.75 core/bus + burst(4 bus) + 10 ≈ 130 core
        // cycles: a realistic ~32 ns DDR4 access at 4 GHz.
        let mut m = ddr();
        let lat = m.access(PhysAddr::new(0), false);
        assert!((80..220).contains(&(lat as i64)), "got {lat}");
    }

    #[test]
    fn stats_average_matches_sum() {
        let mut m = ddr();
        let mut total = 0;
        for i in 0..100u64 {
            total += m.access(PhysAddr::new(i * 4096), i % 3 == 0);
        }
        assert_eq!(m.stats().accesses, 100);
        assert_eq!(m.stats().total_latency, total);
        assert!((m.stats().avg_latency() - total as f64 / 100.0).abs() < 1e-9);
        assert_eq!(m.stats().writes, 34);
        m.reset_stats();
        assert_eq!(m.stats().accesses, 0);
    }

    #[test]
    fn outcome_counts_partition_accesses() {
        let mut m = stacked();
        for i in 0..1000u64 {
            m.access(PhysAddr::new((i * 197) % (1 << 22)), false);
        }
        let s = m.stats();
        assert_eq!(s.accesses, s.row_hits + s.row_closed + s.row_conflicts);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let mut t = DramTimings::ddr4_2133();
        t.banks = 0;
        DramModel::new(t, 4.0);
    }

    #[test]
    fn sequential_stream_mostly_row_hits() {
        let mut m = ddr();
        for i in 0..512u64 {
            m.access(PhysAddr::new(i * LINE_BYTES), false);
        }
        // A 2 KiB row holds 32 lines; expect ~31/32 hit rate.
        assert!(m.stats().row_hit_rate().expect("accesses recorded") > 0.9);
        // An untouched device reports no rate at all, not 0%.
        assert_eq!(DramStats::default().row_hit_rate(), None);
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let mut m = ddr();
        for i in 0..64u64 {
            m.access(PhysAddr::new(i * LINE_BYTES), i % 2 == 0);
        }
        let mid = *m.stats();
        for i in 0..64u64 {
            m.access(PhysAddr::new(i * 7919 * LINE_BYTES), false);
        }
        let delta = m.stats().delta_since(&mid);
        assert_eq!(delta.accesses, 64);
        assert_eq!(delta.writes, 0);
        assert_eq!(
            delta.accesses,
            delta.row_hits + delta.row_closed + delta.row_conflicts
        );
    }
}
