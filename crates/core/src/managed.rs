//! A data cache bundled with its CSALT machinery: stack-distance
//! profilers, epoch controller and (optionally) DIP set dueling.
//!
//! This is the per-cache slice of Figure 6's flowchart: every access
//! updates the profilers; at each epoch boundary the marginal utilities
//! are computed and the way partition adjusted.

use csalt_cache::{AccessOutcome, Cache, DipController};
use csalt_profiler::{
    choose_partition, utility_curve, EpochController, PartitionDecision, StackDistanceProfiler,
    Weights,
};
use csalt_types::{CkptError, CkptReader, CkptWriter, EntryKind, LineAddr, ReplacementKind};

/// How a managed cache decides its partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheManagement {
    /// No partition, MRU insertion — the POM-TLB / conventional baseline.
    Unmanaged,
    /// CSALT dynamic partitioning; criticality weights are supplied per
    /// epoch by the caller (unit weights ⇒ CSALT-D, estimated ⇒ CSALT-CD).
    Csalt,
    /// Fixed way split (footnote-6 static ablation).
    Static {
        /// Ways permanently reserved for data lines.
        data_ways: u32,
    },
    /// DIP set dueling over all traffic (no partition).
    Dip,
}

/// One epoch-boundary snapshot of the partition, for Figure 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSample {
    /// Accesses seen by this cache when the sample was taken.
    pub at_access: u64,
    /// Ways assigned to TLB entries.
    pub tlb_ways: u32,
    /// Total ways.
    pub total_ways: u32,
}

impl PartitionSample {
    /// Fraction of the cache's ways assigned to TLB entries.
    pub fn tlb_fraction(&self) -> f64 {
        f64::from(self.tlb_ways) / f64::from(self.total_ways)
    }
}

/// A cache plus its management state.
#[derive(Debug)]
pub struct ManagedCache {
    cache: Cache,
    management: CacheManagement,
    profiler: StackDistanceProfiler,
    epoch: EpochController,
    dip: Option<DipController>,
    accesses: u64,
    partition_trace: Vec<PartitionSample>,
    trace_enabled: bool,
    decisions: u64,
    last_decision: Option<PartitionDecision>,
    last_curve: Vec<(u32, f64)>,
}

impl ManagedCache {
    /// Builds a managed cache.
    ///
    /// `profiler_interval` samples every n-th set in the shadow
    /// directories (1 = all sets); `epoch_accesses` is the
    /// repartitioning cadence.
    pub fn new(
        sets: u64,
        ways: u32,
        policy: ReplacementKind,
        management: CacheManagement,
        epoch_accesses: u64,
        profiler_interval: u64,
    ) -> Self {
        let mut cache = Cache::new(sets, ways, policy);
        let dip = match management {
            CacheManagement::Dip => Some(DipController::new(sets)),
            _ => None,
        };
        if let CacheManagement::Static { data_ways } = management {
            cache.set_partition(data_ways);
        }
        Self {
            cache,
            management,
            profiler: StackDistanceProfiler::new(sets, ways, profiler_interval),
            epoch: EpochController::new(epoch_accesses),
            dip,
            accesses: 0,
            partition_trace: Vec::new(),
            trace_enabled: false,
            decisions: 0,
            last_decision: None,
            last_curve: Vec::new(),
        }
    }

    /// Enables recording of per-epoch partition samples (Figure 9).
    pub fn enable_partition_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// The recorded partition samples.
    pub fn partition_trace(&self) -> &[PartitionSample] {
        &self.partition_trace
    }

    /// The underlying cache (stats, occupancy).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Resets the cache's statistics; contents, partition state and the
    /// partition trace are preserved (used to discard warmup).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Total accesses served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Performs one access. `weights` is only evaluated at epoch
    /// boundaries (pass `|| Weights::UNIT` for CSALT-D / unmanaged), so
    /// estimator-backed weights cost nothing on ordinary accesses.
    pub fn access(
        &mut self,
        line: LineAddr,
        kind: EntryKind,
        write: bool,
        weights: impl FnOnce() -> Weights,
    ) -> AccessOutcome {
        self.accesses += 1;

        // Profilers observe every access, managed or not (the paper's
        // monitors run continuously; unmanaged configurations simply
        // never consult them) — the set/tag split is only computed when
        // a profiler is actually listening.
        if matches!(self.management, CacheManagement::Csalt) {
            let sets = self.cache.sets();
            // Set counts are powers of two (asserted by `Cache::new`), so
            // the tag split is a shift, not a division.
            let set = line.line_number() & (sets - 1);
            let tag = line.line_number() >> sets.trailing_zeros();
            self.profiler.record(set, tag, kind);
        }

        let outcome = match (&self.management, &mut self.dip) {
            (CacheManagement::Dip, Some(dip)) => {
                // With recency policies this is DIP (LRU vs BIP insert);
                // with RRIP storage the same dueling selects SRRIP vs
                // BRRIP insertion depth — i.e. DRRIP.
                let set = line.line_number() & (self.cache.sets() - 1);
                let insert = dip.insertion_for(set);
                let out = self.cache.access_with_insertion(line, kind, write, insert);
                if !out.hit {
                    dip.record_miss(set);
                }
                out
            }
            _ => self.cache.access(line, kind, write),
        };

        if matches!(self.management, CacheManagement::Csalt) && self.epoch.tick() {
            self.repartition(weights());
        }
        outcome
    }

    /// Recomputes the partition from the epoch's profiles (Algorithm 1).
    fn repartition(&mut self, weights: Weights) {
        let data = self.profiler.counts(EntryKind::Data);
        let tlb = self.profiler.counts(EntryKind::Tlb);
        let decision = choose_partition(&data, &tlb, 1, weights);
        self.cache.set_partition(decision.data_ways);
        self.decisions += 1;
        self.last_decision = Some(decision);
        if self.trace_enabled {
            // The curve is pure recomputation over the same profiles the
            // argmax already scanned — it cannot change the decision.
            self.last_curve = utility_curve(&data, &tlb, 1, weights);
            self.partition_trace.push(PartitionSample {
                at_access: self.accesses,
                tlb_ways: decision.tlb_ways,
                total_ways: self.cache.ways(),
            });
        }
        self.profiler.reset_counters();
    }

    /// Repartition decisions taken so far (epoch boundaries crossed).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The most recent repartition decision, if one has been taken.
    pub fn last_decision(&self) -> Option<PartitionDecision> {
        self.last_decision
    }

    /// The marginal-utility curve `[(data_ways, utility)]` behind the
    /// most recent decision. Populated only when the partition trace is
    /// enabled; empty otherwise.
    pub fn last_curve(&self) -> &[(u32, f64)] {
        &self.last_curve
    }

    /// Current ways reserved for data, if partitioned.
    pub fn data_ways(&self) -> Option<u32> {
        self.cache.data_ways()
    }

    /// Serializes the cache, profiler, epoch, DIP and decision state.
    /// Floats (utilities, curve points) are stored as IEEE-754 bit
    /// patterns for an exact round trip.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        self.cache.ckpt_save(w);
        self.profiler.ckpt_save(w);
        self.epoch.ckpt_save(w);
        w.bool(self.dip.is_some());
        if let Some(dip) = &self.dip {
            dip.ckpt_save(w);
        }
        w.u64(self.accesses);
        w.len64(self.partition_trace.len());
        for s in &self.partition_trace {
            w.u64(s.at_access);
            w.u32(s.tlb_ways);
            w.u32(s.total_ways);
        }
        w.bool(self.trace_enabled);
        w.u64(self.decisions);
        w.bool(self.last_decision.is_some());
        if let Some(d) = &self.last_decision {
            w.u32(d.data_ways);
            w.u32(d.tlb_ways);
            w.u64(d.utility.to_bits());
        }
        w.len64(self.last_curve.len());
        for (ways, utility) in &self.last_curve {
            w.u32(*ways);
            w.u64(utility.to_bits());
        }
    }

    /// Restores state written by [`ManagedCache::ckpt_save`]; geometry
    /// and management mode (via the DIP presence flag) must match.
    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.cache.ckpt_load(r)?;
        self.profiler.ckpt_load(r)?;
        self.epoch.ckpt_load(r)?;
        if r.bool()? != self.dip.is_some() {
            return Err(CkptError::Mismatch("dip controller presence"));
        }
        if let Some(dip) = &mut self.dip {
            dip.ckpt_load(r)?;
        }
        self.accesses = r.u64()?;
        let trace_len = r.len64()?;
        if trace_len
            .checked_mul(16)
            .is_none_or(|bytes| bytes > r.remaining())
        {
            return Err(CkptError::Corrupt("partition trace length"));
        }
        self.partition_trace.clear();
        for _ in 0..trace_len {
            self.partition_trace.push(PartitionSample {
                at_access: r.u64()?,
                tlb_ways: r.u32()?,
                total_ways: r.u32()?,
            });
        }
        self.trace_enabled = r.bool()?;
        self.decisions = r.u64()?;
        self.last_decision = if r.bool()? {
            Some(PartitionDecision {
                data_ways: r.u32()?,
                tlb_ways: r.u32()?,
                utility: f64::from_bits(r.u64()?),
            })
        } else {
            None
        };
        let curve_len = r.len64()?;
        if curve_len
            .checked_mul(12)
            .is_none_or(|bytes| bytes > r.remaining())
        {
            return Err(CkptError::Corrupt("utility curve length"));
        }
        self.last_curve.clear();
        for _ in 0..curve_len {
            let ways = r.u32()?;
            let utility = f64::from_bits(r.u64()?);
            self.last_curve.push((ways, utility));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::from_line_number(n)
    }

    #[test]
    fn unmanaged_cache_never_partitions() {
        let mut m = ManagedCache::new(
            64,
            8,
            ReplacementKind::TrueLru,
            CacheManagement::Unmanaged,
            100,
            1,
        );
        for i in 0..1000 {
            m.access(line(i), EntryKind::Data, false, || Weights::UNIT);
        }
        assert_eq!(m.data_ways(), None);
        assert_eq!(m.accesses(), 1000);
    }

    #[test]
    fn static_partition_is_applied_immediately() {
        let m = ManagedCache::new(
            64,
            8,
            ReplacementKind::TrueLru,
            CacheManagement::Static { data_ways: 6 },
            100,
            1,
        );
        assert_eq!(m.data_ways(), Some(6));
    }

    #[test]
    fn csalt_partitions_at_epoch_boundary() {
        let mut m = ManagedCache::new(
            64,
            8,
            ReplacementKind::TrueLru,
            CacheManagement::Csalt,
            500,
            1,
        );
        assert_eq!(m.data_ways(), None);
        for i in 0..500u64 {
            // Hot data (reused), streaming TLB.
            m.access(line(i % 16), EntryKind::Data, false, || Weights::UNIT);
        }
        let dw = m.data_ways().expect("partitioned after epoch");
        assert!((1..8).contains(&dw));
    }

    #[test]
    fn data_heavy_epoch_grants_data_most_ways() {
        let mut m = ManagedCache::new(
            16,
            8,
            ReplacementKind::TrueLru,
            CacheManagement::Csalt,
            2000,
            1,
        );
        for i in 0..2000u64 {
            if i % 10 == 0 {
                // Streaming TLB: no reuse → no marginal utility.
                m.access(line(0x10000 + i), EntryKind::Tlb, false, || Weights::UNIT);
            } else {
                // Data with deep reuse across 6 ways per set.
                m.access(line(i % (16 * 6)), EntryKind::Data, false, || Weights::UNIT);
            }
        }
        assert_eq!(m.data_ways(), Some(7), "data deserves the maximum");
    }

    #[test]
    fn tlb_heavy_epoch_grants_tlb_most_ways() {
        let mut m = ManagedCache::new(
            16,
            8,
            ReplacementKind::TrueLru,
            CacheManagement::Csalt,
            2000,
            1,
        );
        for i in 0..2000u64 {
            if i % 10 == 0 {
                m.access(line(0x10000 + i), EntryKind::Data, false, || Weights::UNIT);
            } else {
                m.access(line(i % (16 * 6)), EntryKind::Tlb, false, || Weights::UNIT);
            }
        }
        // All TLB hits sit at stack depth 5, so every n ≤ 2 satisfies
        // them fully; the tie breaks to the largest such n.
        assert_eq!(m.data_ways(), Some(2), "tlb deserves the maximum");
    }

    #[test]
    fn weights_can_flip_a_balanced_decision() {
        let run = |weights: Weights| {
            let mut m = ManagedCache::new(
                16,
                8,
                ReplacementKind::TrueLru,
                CacheManagement::Csalt,
                4000,
                1,
            );
            for i in 0..4000u64 {
                // Data reuses at stack depth 3 (4 tags/set); TLB at
                // depth 5 (6 tags/set). Unweighted, satisfying data
                // (4 ways) or TLB (6 ways) yields equal utility and the
                // tie breaks to the data side; weighting TLB flips it.
                m.access(line(i % (16 * 4)), EntryKind::Data, false, || weights);
                m.access(
                    line(0x10000 + (i % (16 * 6))),
                    EntryKind::Tlb,
                    false,
                    || weights,
                );
            }
            m.data_ways().expect("partitioned")
        };
        let balanced = run(Weights::UNIT);
        let tlb_critical = run(Weights::new(1.0, 8.0));
        assert_eq!(balanced, 7, "tie breaks toward data");
        assert_eq!(tlb_critical, 2, "criticality weight flips to TLB");
    }

    #[test]
    fn partition_trace_records_epochs() {
        let mut m = ManagedCache::new(
            16,
            8,
            ReplacementKind::TrueLru,
            CacheManagement::Csalt,
            100,
            1,
        );
        m.enable_partition_trace();
        for i in 0..350u64 {
            m.access(line(i % 32), EntryKind::Data, false, || Weights::UNIT);
        }
        assert_eq!(m.partition_trace().len(), 3);
        for s in m.partition_trace() {
            assert_eq!(s.total_ways, 8);
            assert!(s.tlb_fraction() > 0.0 && s.tlb_fraction() < 1.0);
        }
    }

    #[test]
    fn dip_management_runs_set_dueling() {
        let mut m = ManagedCache::new(
            64,
            8,
            ReplacementKind::TrueLru,
            CacheManagement::Dip,
            1000,
            1,
        );
        // A thrashing pattern (working set slightly exceeding capacity)
        // should still be served without panicking and never partition.
        for i in 0..10_000u64 {
            m.access(line(i % 600), EntryKind::Data, false, || Weights::UNIT);
        }
        assert_eq!(m.data_ways(), None);
        assert!(m.cache().stats().total().accesses() == 10_000);
    }
}
