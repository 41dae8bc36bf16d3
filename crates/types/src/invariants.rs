//! Structured configuration invariants — the single source of truth the
//! audit rule engine (`csalt-audit`) and the `validate()` methods on
//! [`CacheGeometry`], [`TlbGeometry`], and [`SystemConfig`] all consume.
//!
//! Each check returns [`Violation`]s carrying a stable diagnostic code in
//! the `CSALT-Axxx` space (see DESIGN.md). Codes `A001`–`A049` are static
//! configuration rules (checkable without running a simulation); codes
//! `A101`+ are conservation laws over runtime counters and are emitted by
//! `csalt-audit`'s conservation module.
//!
//! Severity semantics: an [`Error`](Severity::Error) means the model is
//! *wrong* (downstream counter arithmetic would silently corrupt); a
//! [`Warning`](Severity::Warning) means the configuration is suspicious
//! relative to the paper's machine (Table 2) but still simulable.

use crate::addr::LINE_BYTES;
use crate::config::{
    CacheGeometry, DramTimings, PomTlbConfig, ReplacementKind, SystemConfig, TlbGeometry,
    TranslationScheme,
};
use serde::Serialize;
use std::fmt;

/// How bad a violated invariant is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Severity {
    /// Suspicious relative to the modelled machine; simulation proceeds.
    Warning,
    /// The model is inconsistent; results would be silently corrupt.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One violated invariant: a stable code, the component it concerns, and
/// a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// Stable diagnostic code (`CSALT-Axxx`); never renumbered.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// The component the violation concerns (`"l1d"`, `"pom-tlb"`, …).
    pub subject: String,
    /// What is wrong and why it matters.
    pub message: String,
}

impl Violation {
    fn error(code: &'static str, subject: &str, message: impl Into<String>) -> Self {
        Violation {
            code,
            severity: Severity::Error,
            subject: subject.to_string(),
            message: message.into(),
        }
    }

    fn warning(code: &'static str, subject: &str, message: impl Into<String>) -> Self {
        Violation {
            code,
            severity: Severity::Warning,
            subject: subject.to_string(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code, self.severity, self.subject, self.message
        )
    }
}

/// The first error-severity violation, if any — what `validate()` methods
/// surface as their `ConfigError`.
pub fn first_error(violations: &[Violation]) -> Option<&Violation> {
    violations.iter().find(|v| v.severity == Severity::Error)
}

/// Most ways a cache or SRAM TLB set may have: replacement state and
/// partition masks hold one bit per way in a `u64`.
const MAX_WAYS: u32 = 64;

/// CSALT-A016: associativity within the 64-way masks.
fn check_ways(name: &str, ways: u32) -> Option<Violation> {
    (ways > MAX_WAYS).then(|| {
        Violation::error(
            "CSALT-A016",
            name,
            format!(
                "{ways} ways exceed {MAX_WAYS}: replacement state holds one bit per way in a u64"
            ),
        )
    })
}

/// CSALT-A001..A004 and A016: cache geometry consistency.
pub fn check_cache_geometry(name: &str, geom: &CacheGeometry) -> Vec<Violation> {
    let mut out = Vec::new();
    if geom.size_bytes == 0 || geom.ways == 0 || geom.line_bytes == 0 {
        out.push(Violation::error(
            "CSALT-A001",
            name,
            "zero-sized dimension (size, ways, and line bytes must all be positive)",
        ));
        // The remaining arithmetic would divide by zero.
        return out;
    }
    out.extend(check_ways(name, geom.ways));
    if !geom
        .size_bytes
        .is_multiple_of(geom.line_bytes * u64::from(geom.ways))
    {
        out.push(Violation::error(
            "CSALT-A002",
            name,
            format!(
                "capacity {} is not divisible by ways*line ({}); sets would be fractional",
                geom.size_bytes,
                geom.line_bytes * u64::from(geom.ways)
            ),
        ));
        return out;
    }
    if !geom.sets().is_power_of_two() {
        out.push(Violation::error(
            "CSALT-A003",
            name,
            format!(
                "set count {} is not a power of two (bit-sliced indexing requires it)",
                geom.sets()
            ),
        ));
    }
    if geom.line_bytes != LINE_BYTES {
        out.push(Violation::warning(
            "CSALT-A004",
            name,
            format!(
                "line size {} differs from the paper's {LINE_BYTES} B; \
                 POM-TLB entry packing assumes {LINE_BYTES} B lines",
                geom.line_bytes
            ),
        ));
    }
    out
}

/// CSALT-A005..A006, A016 and A017: SRAM TLB geometry consistency.
pub fn check_tlb_geometry(name: &str, geom: &TlbGeometry) -> Vec<Violation> {
    let mut out = Vec::new();
    if geom.entries == 0 || geom.ways == 0 {
        out.push(Violation::error(
            "CSALT-A005",
            name,
            "zero-sized TLB (entries and ways must be positive)",
        ));
        return out;
    }
    out.extend(check_ways(name, geom.ways));
    if !geom.entries.is_multiple_of(geom.ways) {
        out.push(Violation::error(
            "CSALT-A006",
            name,
            format!(
                "{} entries not divisible by {} ways; sets would be fractional",
                geom.entries, geom.ways
            ),
        ));
    } else if !geom.sets().is_power_of_two() {
        out.push(Violation::error(
            "CSALT-A017",
            name,
            format!(
                "set count {} is not a power of two (the set index is a bit slice)",
                geom.sets()
            ),
        ));
    }
    out
}

/// CSALT-A007: POM-TLB organization and aperture consistency.
pub fn check_pom_tlb(pom: &PomTlbConfig) -> Vec<Violation> {
    let subject = "pom-tlb";
    let mut out = Vec::new();
    if pom.entry_bytes == 0 || pom.ways == 0 || pom.size_bytes == 0 {
        out.push(Violation::error(
            "CSALT-A007",
            subject,
            "zero-sized dimension (size, ways, and entry bytes must all be positive)",
        ));
        return out;
    }
    if !pom.entries().is_multiple_of(u64::from(pom.ways)) {
        out.push(Violation::error(
            "CSALT-A007",
            subject,
            format!(
                "{} entries not divisible by {} ways",
                pom.entries(),
                pom.ways
            ),
        ));
        return out;
    }
    if !pom.sets().is_power_of_two() {
        out.push(Violation::error(
            "CSALT-A007",
            subject,
            format!("set count {} is not a power of two", pom.sets()),
        ));
    }
    if pom.sets() > u64::from(u32::MAX) {
        out.push(Violation::error(
            "CSALT-A007",
            subject,
            format!(
                "set count {} exceeds {}: sets are indexed by a u32 block number",
                pom.sets(),
                u32::MAX
            ),
        ));
    }
    if pom.base.checked_add(pom.size_bytes).is_none() {
        out.push(Violation::error(
            "CSALT-A007",
            subject,
            "aperture base + size overflows the physical address space",
        ));
    }
    out
}

/// CSALT-A008: DRAM timing consistency (the same constraints the DRAM
/// model asserts at construction, surfaced as diagnostics first).
pub fn check_dram_timings(name: &str, dram: &DramTimings) -> Vec<Violation> {
    let mut out = Vec::new();
    if dram.bus_mhz == 0 || dram.t_cas == 0 || dram.t_rcd == 0 || dram.t_rp == 0 {
        out.push(Violation::error(
            "CSALT-A008",
            name,
            "zero timing parameter (bus MHz, tCAS, tRCD, tRP must be positive)",
        ));
    }
    if dram.bus_bits < 8 || !dram.bus_bits.is_power_of_two() {
        out.push(Violation::error(
            "CSALT-A008",
            name,
            format!(
                "bus width {} bits must be a power of two >= 8",
                dram.bus_bits
            ),
        ));
    }
    if dram.banks == 0 || !dram.banks.is_power_of_two() {
        out.push(Violation::error(
            "CSALT-A008",
            name,
            format!("bank count {} must be a power of two >= 1", dram.banks),
        ));
    }
    if dram.row_buffer_bytes < LINE_BYTES {
        out.push(Violation::error(
            "CSALT-A008",
            name,
            format!(
                "row buffer {} B smaller than one cache line ({LINE_BYTES} B)",
                dram.row_buffer_bytes
            ),
        ));
    }
    out
}

/// Most cores a system may have: core ids are 8-bit.
const MAX_CORES: u32 = 256;

/// Most contexts per core: context `i` translates under ASID `i + 1`, a
/// 16-bit id of which 0 is never assigned.
const MAX_CONTEXTS_PER_CORE: u32 = 65_535;

/// CSALT-A009..A013 and A018: whole-system parameters and cross-component
/// relationships. Includes every sub-geometry check.
pub fn check_system(cfg: &SystemConfig) -> Vec<Violation> {
    let mut out = Vec::new();
    let system = "system";

    if cfg.cores == 0 {
        out.push(Violation::error("CSALT-A009", system, "zero cores"));
    } else if cfg.cores > MAX_CORES {
        out.push(Violation::error(
            "CSALT-A009",
            system,
            format!("{} cores exceed {MAX_CORES}: core ids are 8-bit", cfg.cores),
        ));
    }
    if !(cfg.core_ghz.is_finite() && cfg.core_ghz > 0.0) {
        out.push(Violation::error(
            "CSALT-A009",
            system,
            format!(
                "core clock {} GHz must be finite and positive",
                cfg.core_ghz
            ),
        ));
    }
    if cfg.contexts_per_core == 0 {
        out.push(Violation::error(
            "CSALT-A009",
            system,
            "zero contexts per core",
        ));
    } else if cfg.contexts_per_core > MAX_CONTEXTS_PER_CORE {
        out.push(Violation::error(
            "CSALT-A009",
            system,
            format!(
                "{} contexts per core exceed {MAX_CONTEXTS_PER_CORE}: ASIDs are \
                 16-bit and ASID 0 is never assigned",
                cfg.contexts_per_core
            ),
        ));
    }
    if !(cfg.mlp.is_finite() && cfg.mlp >= 1.0) {
        out.push(Violation::error(
            "CSALT-A009",
            system,
            format!(
                "mlp {} must be finite and >= 1 (it divides stall cycles)",
                cfg.mlp
            ),
        ));
    }
    if !(cfg.base_cpi.is_finite() && cfg.base_cpi > 0.0) {
        out.push(Violation::error(
            "CSALT-A009",
            system,
            format!("base CPI {} must be finite and positive", cfg.base_cpi),
        ));
    }
    if cfg.cs_interval_cycles == 0 {
        out.push(Violation::error(
            "CSALT-A009",
            system,
            "zero context-switch interval (every access would context switch)",
        ));
    }

    out.extend(check_cache_geometry("l1d", &cfg.l1d));
    out.extend(check_cache_geometry("l2", &cfg.l2));
    out.extend(check_cache_geometry("l3", &cfg.l3));
    out.extend(check_tlb_geometry("l1-tlb-4k", &cfg.l1_tlb_4k));
    out.extend(check_tlb_geometry("l1-tlb-2m", &cfg.l1_tlb_2m));
    out.extend(check_tlb_geometry("l2-tlb", &cfg.l2_tlb));
    out.extend(check_pom_tlb(&cfg.pom_tlb));
    out.extend(check_dram_timings("ddr", &cfg.ddr));
    out.extend(check_dram_timings("die-stacked", &cfg.die_stacked));
    if cfg.replacement == ReplacementKind::BtPlru {
        for (name, geom) in [("l1d", &cfg.l1d), ("l2", &cfg.l2), ("l3", &cfg.l3)] {
            if !geom.ways.is_power_of_two() {
                out.push(Violation::error(
                    "CSALT-A018",
                    name,
                    format!(
                        "{} ways under BT-PLRU: its binary tree needs a power-of-two associativity",
                        geom.ways
                    ),
                ));
            }
        }
    }

    if cfg.epoch_accesses == 0 {
        out.push(Violation::error(
            "CSALT-A010",
            "epoch",
            "zero epoch length (repartitioning would never trigger sanely)",
        ));
    } else if cfg.epoch_accesses < 1024 {
        out.push(Violation::warning(
            "CSALT-A010",
            "epoch",
            format!(
                "epoch of {} accesses is far below the paper's 256 K; \
                 stack-distance profiles will be too noisy to rank way splits",
                cfg.epoch_accesses
            ),
        ));
    }

    if !(cfg.pt_levels == 4 || cfg.pt_levels == 5) {
        out.push(Violation::error(
            "CSALT-A011",
            system,
            format!("pt_levels {} must be 4 (x86-64) or 5 (LA57)", cfg.pt_levels),
        ));
    }

    // Latency monotonicity: each level must cost more than the previous,
    // and a DRAM page-walk step must be slower than an L3 hit — otherwise
    // the premise of caching translation entries is inverted.
    if cfg.l1d.latency >= cfg.l2.latency || cfg.l2.latency >= cfg.l3.latency {
        out.push(Violation::warning(
            "CSALT-A012",
            "latency",
            format!(
                "cache latencies not strictly increasing (L1 {} / L2 {} / L3 {})",
                cfg.l1d.latency, cfg.l2.latency, cfg.l3.latency
            ),
        ));
    }
    if cfg.core_ghz > 0.0 && cfg.ddr.bus_mhz > 0 {
        let dram_access = f64::from(cfg.ddr.t_rcd + cfg.ddr.t_cas)
            * cfg.ddr.core_cycles_per_bus_cycle(cfg.core_ghz);
        if dram_access <= cfg.l3.latency as f64 {
            out.push(Violation::warning(
                "CSALT-A012",
                "latency",
                format!(
                    "DDR access ({dram_access:.0} core cycles) is not slower than an L3 hit \
                     ({}); walks would be cheaper than the caches meant to avoid them",
                    cfg.l3.latency
                ),
            ));
        }
    }
    if cfg.l1_tlb_4k.latency > cfg.l2_tlb.latency || cfg.l1_tlb_2m.latency > cfg.l2_tlb.latency {
        out.push(Violation::warning(
            "CSALT-A013",
            "latency",
            format!(
                "L1 TLB latency ({} / {}) exceeds L2 TLB latency ({})",
                cfg.l1_tlb_4k.latency, cfg.l1_tlb_2m.latency, cfg.l2_tlb.latency
            ),
        ));
    }

    out
}

/// CSALT-A014..A015: per-scheme constraints — partition bounds and
/// large-TLB sizing for the scheme actually being simulated.
pub fn check_scheme(cfg: &SystemConfig, scheme: &TranslationScheme) -> Vec<Violation> {
    let mut out = Vec::new();
    let subject = scheme.label();

    let partitions_caches = matches!(
        scheme,
        TranslationScheme::CsaltD
            | TranslationScheme::CsaltCd
            | TranslationScheme::TsbCsalt
            | TranslationScheme::StaticPartition { .. }
    );
    if partitions_caches {
        // `choose_partition` requires n_min >= 1 per class, so a
        // partitioned cache needs at least two ways.
        for (name, geom) in [("l2", &cfg.l2), ("l3", &cfg.l3)] {
            if geom.ways < 2 {
                out.push(Violation::error(
                    "CSALT-A014",
                    &subject,
                    format!(
                        "{name} has {} way(s); partitioning requires >= 2 so each \
                         entry kind keeps at least one way",
                        geom.ways
                    ),
                ));
            }
        }
    }
    if let TranslationScheme::StaticPartition { data_ways } = scheme {
        // `data_ways` is expressed against the L3; the hierarchy derives
        // the L2's split by proportional scaling, clamped into range, so
        // only the L3 bound is a hard constraint.
        if *data_ways == 0 || *data_ways >= cfg.l3.ways {
            out.push(Violation::error(
                "CSALT-A014",
                &subject,
                format!(
                    "static split reserves {data_ways} data ways of l3's {}; \
                     both kinds need at least one way (1 <= data_ways <= {})",
                    cfg.l3.ways,
                    cfg.l3.ways.saturating_sub(1)
                ),
            ));
        }
    }

    if scheme.uses_pom_tlb() && cfg.pom_tlb.entries() <= u64::from(cfg.l2_tlb.entries) {
        out.push(Violation::warning(
            "CSALT-A015",
            &subject,
            format!(
                "POM-TLB holds {} entries, not larger than the {}-entry L2 TLB; \
                 the 'large TLB' premise does not hold",
                cfg.pom_tlb.entries(),
                cfg.l2_tlb.entries
            ),
        ));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skylake() -> SystemConfig {
        SystemConfig::skylake()
    }

    #[test]
    fn skylake_is_clean() {
        let violations = check_system(&skylake());
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn every_scheme_is_clean_on_skylake() {
        let cfg = skylake();
        for scheme in [
            TranslationScheme::Conventional,
            TranslationScheme::PomTlb,
            TranslationScheme::CsaltD,
            TranslationScheme::CsaltCd,
            TranslationScheme::Dip,
            TranslationScheme::Tsb,
            TranslationScheme::TsbCsalt,
            TranslationScheme::Drrip,
            TranslationScheme::StaticPartition { data_ways: 2 },
        ] {
            let violations = check_scheme(&cfg, &scheme);
            assert!(violations.is_empty(), "{scheme}: {violations:?}");
        }
    }

    #[test]
    fn core_and_context_counts_are_bounded_by_their_id_widths() {
        for (cores, contexts_per_core, ok) in [
            (256, 2, true),
            (257, 2, false),
            (8, 65_535, true),
            (8, 65_536, false),
        ] {
            let cfg = SystemConfig {
                cores,
                contexts_per_core,
                ..skylake()
            };
            let a009 = check_system(&cfg)
                .iter()
                .any(|v| v.code == "CSALT-A009" && v.severity == Severity::Error);
            assert_eq!(a009, !ok, "{cores} cores, {contexts_per_core} contexts");
        }
    }

    fn has_error(violations: &[Violation], code: &str) -> bool {
        violations
            .iter()
            .any(|v| v.code == code && v.severity == Severity::Error)
    }

    #[test]
    fn pom_set_count_is_bounded_by_the_block_index() {
        for (sets, ok) in [(1u64 << 31, true), (1 << 32, false)] {
            let pom = PomTlbConfig {
                size_bytes: sets * 4 * 16,
                ..skylake().pom_tlb
            };
            assert_eq!(pom.sets(), sets);
            assert_eq!(has_error(&check_pom_tlb(&pom), "CSALT-A007"), !ok, "{sets}");
        }
    }

    #[test]
    fn ways_are_bounded_by_the_way_masks() {
        for (ways, ok) in [(64, true), (128, false)] {
            let tlb = TlbGeometry {
                entries: 16 * ways,
                ways,
                latency: 1,
            };
            assert_eq!(
                has_error(&check_tlb_geometry("l2-tlb", &tlb), "CSALT-A016"),
                !ok
            );
            let cache = CacheGeometry {
                size_bytes: 1024 * 64 * u64::from(ways),
                ways,
                ..skylake().l3
            };
            assert_eq!(
                has_error(&check_cache_geometry("l3", &cache), "CSALT-A016"),
                !ok
            );
        }
    }

    #[test]
    fn tlb_sets_must_be_a_power_of_two() {
        for (entries, ok) in [(1024, true), (1536, false)] {
            let tlb = TlbGeometry {
                entries,
                ways: 8,
                latency: 1,
            };
            assert_eq!(
                has_error(&check_tlb_geometry("l2-tlb", &tlb), "CSALT-A017"),
                !ok
            );
        }
    }

    #[test]
    fn bt_plru_needs_power_of_two_ways() {
        let mut cfg = skylake();
        cfg.l3 = CacheGeometry {
            size_bytes: 2048 * 12 * 64,
            ways: 12,
            ..cfg.l3
        };
        assert!(
            !has_error(&check_system(&cfg), "CSALT-A018"),
            "True-LRU takes 12 ways"
        );
        cfg.replacement = ReplacementKind::BtPlru;
        assert!(has_error(&check_system(&cfg), "CSALT-A018"));
    }

    #[test]
    fn first_error_skips_warnings() {
        let violations = vec![
            Violation::warning("CSALT-A012", "latency", "w"),
            Violation::error("CSALT-A003", "l2", "e"),
        ];
        assert_eq!(first_error(&violations).map(|v| v.code), Some("CSALT-A003"));
        assert!(first_error(&violations[..1]).is_none());
    }

    #[test]
    fn violation_display_includes_code_and_subject() {
        let v = Violation::error("CSALT-A001", "l1d", "zero-sized dimension");
        let text = v.to_string();
        assert!(text.contains("CSALT-A001"));
        assert!(text.contains("l1d"));
    }
}
