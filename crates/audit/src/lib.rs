//! `csalt-audit` — static invariant analysis and conservation-law
//! auditing for the CSALT simulator workspace.
//!
//! CSALT's evaluation is counter arithmetic: walks eliminated, partition
//! way sums, MPKI ratios. A silent invariant violation corrupts every
//! figure downstream without crashing, so this crate gives the workspace
//! a machine-checkable definition of "the model is still sane":
//!
//! * **Static rules** (`CSALT-A001`–`A018`, [`static_rules`] /
//!   [`audit_config`]) — checked without running a simulation, over every
//!   built-in [`SystemConfig`] preset × [`TranslationScheme`]. The
//!   predicates themselves live in [`csalt_types::invariants`] so the
//!   `validate()` methods on config types consume the exact same source
//!   of truth.
//! * **Conservation laws** (`CSALT-A101`–`A108`, [`conservation`]) —
//!   checked on a [`HierarchySnapshot`] after runs and at epoch
//!   boundaries when `csalt-sim` is built with its `audit` feature.
//!
//! * **Source lints** (`CSALT-S000`–`S009`, [`srclint`]) — a hand-rolled
//!   lexical analysis over every `crates/*/src` file that enforces the
//!   determinism contract at the source level: no hash-order iteration in
//!   result-affecting crates, no wall-clock reads outside timing modules,
//!   `// SAFETY:` on every unsafe block, integer-only counters, and no
//!   environment variables in library code.
//!
//! The `csalt-audit` binary (`cargo run -p csalt-audit -- --all-presets`)
//! drives the static layer and exits non-zero on any error-severity
//! diagnostic; `--format json` emits machine-readable output. The
//! `srclint` subcommand drives the source lints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use csalt_core::HierarchySnapshot;
use csalt_types::invariants::{self, Severity, Violation};
use csalt_types::{SystemConfig, TranslationScheme};
use serde::Serialize;
use std::fmt;

pub mod fixtures;
pub mod lexer;
pub mod srclint;

pub use csalt_types::invariants::{check_scheme, check_system};

/// Version stamped into every JSON report this crate emits
/// (`AuditReport`, `SrclintReport`). Bumped whenever
/// a report's shape changes so downstream consumers can dispatch.
pub const SCHEMA_VERSION: u32 = 2;

/// One finding, located in the preset × scheme space the audit swept.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Diagnostic {
    /// Stable diagnostic code (`CSALT-Axxx`).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Where the finding applies: `preset/scheme/component` for static
    /// rules, `run/component` for conservation laws.
    pub subject: String,
    /// What is wrong and why it matters.
    pub message: String,
}

impl Diagnostic {
    /// Wraps a types-layer violation, prefixing the sweep context.
    pub fn from_violation(context: &str, v: &Violation) -> Self {
        Diagnostic {
            code: v.code,
            severity: v.severity,
            subject: if context.is_empty() {
                v.subject.clone()
            } else {
                format!("{context}/{}", v.subject)
            },
            message: v.message.clone(),
        }
    }

    fn error(code: &'static str, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            subject: subject.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.code, self.severity, self.subject, self.message
        )
    }
}

/// Registry entry describing one rule for `--list-rules` and DESIGN.md.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Rule {
    /// Stable code.
    pub code: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line summary of the invariant.
    pub summary: &'static str,
}

/// Every rule in the `CSALT-Axxx` code space. Codes are never renumbered;
/// retired rules keep their slot.
pub fn static_rules() -> &'static [Rule] {
    &[
        Rule {
            code: "CSALT-A001",
            name: "cache-nonzero",
            summary: "cache size, ways, and line bytes are positive",
        },
        Rule {
            code: "CSALT-A002",
            name: "cache-divisible",
            summary: "cache capacity divides into ways x line bytes",
        },
        Rule {
            code: "CSALT-A003",
            name: "cache-sets-pow2",
            summary: "cache set count is a power of two",
        },
        Rule {
            code: "CSALT-A004",
            name: "cache-line-size",
            summary: "line size matches the paper's 64 B (warning)",
        },
        Rule {
            code: "CSALT-A005",
            name: "tlb-nonzero",
            summary: "TLB entries and ways are positive",
        },
        Rule {
            code: "CSALT-A006",
            name: "tlb-divisible",
            summary: "TLB entries divide into ways",
        },
        Rule {
            code: "CSALT-A007",
            name: "pom-geometry",
            summary: "POM-TLB geometry and aperture are consistent",
        },
        Rule {
            code: "CSALT-A008",
            name: "dram-timings",
            summary: "DRAM timing/organization parameters are consistent",
        },
        Rule {
            code: "CSALT-A009",
            name: "core-params",
            summary: "core count, clock, contexts, CPI, and MLP are sane",
        },
        Rule {
            code: "CSALT-A010",
            name: "epoch-sanity",
            summary: "repartitioning epoch is positive and statistically useful",
        },
        Rule {
            code: "CSALT-A011",
            name: "pt-levels",
            summary: "page-table depth is 4 or 5",
        },
        Rule {
            code: "CSALT-A012",
            name: "latency-monotone",
            summary: "L1 < L2 < L3 < DRAM latency ordering (warning)",
        },
        Rule {
            code: "CSALT-A013",
            name: "tlb-latency-order",
            summary: "L1 TLB is not slower than the L2 TLB (warning)",
        },
        Rule {
            code: "CSALT-A014",
            name: "partition-bounds",
            summary: "every partition scheme leaves >= 1 way per entry kind",
        },
        Rule {
            code: "CSALT-A015",
            name: "large-tlb-premise",
            summary: "POM-TLB is larger than the SRAM L2 TLB (warning)",
        },
        Rule {
            code: "CSALT-A016",
            name: "ways-bound",
            summary: "cache and SRAM TLB associativity is at most 64",
        },
        Rule {
            code: "CSALT-A017",
            name: "tlb-sets-pow2",
            summary: "SRAM TLB set count is a power of two",
        },
        Rule {
            code: "CSALT-A018",
            name: "bt-plru-ways",
            summary: "BT-PLRU caches have power-of-two associativity",
        },
    ]
}

/// Conservation-law rules checked on runtime counters.
pub fn conservation_rules() -> &'static [Rule] {
    &[
        Rule {
            code: "CSALT-A101",
            name: "access-conservation",
            summary: "L1D accesses equal program accesses; hits + misses add up",
        },
        Rule {
            code: "CSALT-A102",
            name: "walks-bounded",
            summary: "page walks never exceed L2 TLB misses",
        },
        Rule {
            code: "CSALT-A103",
            name: "walk-cycles-bounded",
            summary: "walk cycles never exceed total translation cycles",
        },
        Rule {
            code: "CSALT-A104",
            name: "occupancy-bounded",
            summary: "valid lines never exceed cache capacity",
        },
        Rule {
            code: "CSALT-A105",
            name: "dram-row-conservation",
            summary: "DRAM row outcomes partition DRAM accesses",
        },
        Rule {
            code: "CSALT-A106",
            name: "cache-flow",
            summary: "fills <= misses, evictions <= fills, writebacks <= evictions",
        },
        Rule {
            code: "CSALT-A107",
            name: "ipc-finite",
            summary: "IPC is finite and positive when instructions retired",
        },
        Rule {
            code: "CSALT-A108",
            name: "scheme-components",
            summary: "POM-TLB/TSB statistics exist exactly for schemes using them",
        },
    ]
}

/// Translation schemes the sweep enumerates: all unit variants plus
/// representative static splits.
pub fn all_schemes(cfg: &SystemConfig) -> Vec<TranslationScheme> {
    let mut schemes = vec![
        TranslationScheme::Conventional,
        TranslationScheme::PomTlb,
        TranslationScheme::CsaltD,
        TranslationScheme::CsaltCd,
        TranslationScheme::Dip,
        TranslationScheme::Tsb,
        TranslationScheme::TsbCsalt,
        TranslationScheme::Drrip,
    ];
    // Static splits: the paper's footnote-6 ablation sweeps data-way
    // reservations; cover the edges and the middle of the L3's range.
    let max_data = cfg.l3.ways.saturating_sub(1).max(1);
    for data_ways in [1, cfg.l3.ways / 2, max_data] {
        let scheme = TranslationScheme::StaticPartition {
            data_ways: data_ways.clamp(1, max_data),
        };
        if !schemes.contains(&scheme) {
            schemes.push(scheme);
        }
    }
    schemes
}

/// Audits one configuration under one scheme: all static rules.
pub fn audit_config(
    context: &str,
    cfg: &SystemConfig,
    scheme: &TranslationScheme,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = invariants::check_system(cfg)
        .iter()
        .map(|v| Diagnostic::from_violation(context, v))
        .collect();
    // check_scheme violations already carry the scheme label as their
    // subject, so the preset context alone is enough.
    out.extend(
        invariants::check_scheme(cfg, scheme)
            .iter()
            .map(|v| Diagnostic::from_violation(context, v)),
    );
    out
}

/// Audits every built-in preset against every scheme — the binary's
/// `--all-presets` sweep.
pub fn audit_all_presets() -> AuditReport {
    let mut diagnostics = Vec::new();
    let mut combinations = 0u64;
    for (name, cfg) in SystemConfig::presets() {
        for scheme in all_schemes(&cfg) {
            combinations += 1;
            diagnostics.extend(audit_config(name, &cfg, &scheme));
        }
    }
    AuditReport::new(combinations, diagnostics)
}

/// Outcome of a sweep: counts plus every finding.
#[derive(Debug, Clone, Serialize)]
pub struct AuditReport {
    /// JSON schema version ([`SCHEMA_VERSION`]).
    pub version: u32,
    /// Preset × scheme combinations checked.
    pub combinations: u64,
    /// Error-severity findings.
    pub errors: u64,
    /// Warning-severity findings.
    pub warnings: u64,
    /// All findings, errors first.
    pub diagnostics: Vec<Diagnostic>,
}

impl AuditReport {
    /// Builds a report, sorting errors ahead of warnings.
    pub fn new(combinations: u64, mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| a.subject.cmp(&b.subject))
        });
        let errors = diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count() as u64;
        let warnings = diagnostics.len() as u64 - errors;
        AuditReport {
            version: SCHEMA_VERSION,
            combinations,
            errors,
            warnings,
            diagnostics,
        }
    }

    /// Whether the sweep found no error-severity diagnostics.
    pub fn clean(&self) -> bool {
        self.errors == 0
    }
}

/// Conservation-law checks over runtime counters (`CSALT-A101`+).
pub mod conservation {
    use super::{Diagnostic, HierarchySnapshot, TranslationScheme};
    use csalt_cache::{CacheStats, Occupancy};

    /// Audits a statistics snapshot against every conservation law that
    /// is decidable from counters alone. `context` names the run (e.g.
    /// the workload label); an empty string is fine.
    pub fn audit_snapshot(
        context: &str,
        snap: &HierarchySnapshot,
        scheme: &TranslationScheme,
    ) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let at = |component: &str| {
            if context.is_empty() {
                component.to_string()
            } else {
                format!("{context}/{component}")
            }
        };

        // A101: every program access is exactly one L1D access — the
        // translation path never touches the L1D, and nothing else does.
        let l1d_accesses = snap.l1d.total().accesses();
        if l1d_accesses != snap.accesses {
            out.push(Diagnostic::error(
                "CSALT-A101",
                at("l1d"),
                format!(
                    "L1D saw {l1d_accesses} accesses but the hierarchy served {} program \
                     accesses; hit/miss bookkeeping is corrupt",
                    snap.accesses
                ),
            ));
        }
        // A101 (cont.): the L1 TLB is probed at least once per access.
        if snap.l1_tlb.accesses() < snap.accesses {
            out.push(Diagnostic::error(
                "CSALT-A101",
                at("l1-tlb"),
                format!(
                    "L1 TLB recorded {} lookups for {} program accesses; every access \
                     must probe it at least once",
                    snap.l1_tlb.accesses(),
                    snap.accesses
                ),
            ));
        }

        // A102: a walk happens only after an L2 TLB miss, so eliminated
        // walks can never be negative (Figure 8's denominator).
        if snap.page_walks > snap.l2_tlb.misses {
            out.push(Diagnostic::error(
                "CSALT-A102",
                at("walker"),
                format!(
                    "{} page walks exceed {} L2 TLB misses; walk elimination would be \
                     negative",
                    snap.page_walks, snap.l2_tlb.misses
                ),
            ));
        }

        // A103: walk cycles are a component of translation cycles.
        if snap.page_walk_cycles > snap.translation_cycles {
            out.push(Diagnostic::error(
                "CSALT-A103",
                at("walker"),
                format!(
                    "{} walk cycles exceed {} total translation cycles",
                    snap.page_walk_cycles, snap.translation_cycles
                ),
            ));
        }

        // A105/A106 per component.
        for (name, dram) in [("ddr", &snap.ddr), ("die-stacked", &snap.stacked)] {
            let outcomes = dram.row_hits + dram.row_closed + dram.row_conflicts;
            if outcomes != dram.accesses {
                out.push(Diagnostic::error(
                    "CSALT-A105",
                    at(name),
                    format!(
                        "row outcomes {} ({} hit / {} closed / {} conflict) do not \
                         partition {} accesses",
                        outcomes, dram.row_hits, dram.row_closed, dram.row_conflicts, dram.accesses
                    ),
                ));
            }
            if dram.writes > dram.accesses {
                out.push(Diagnostic::error(
                    "CSALT-A105",
                    at(name),
                    format!("{} writes exceed {} accesses", dram.writes, dram.accesses),
                ));
            }
        }
        for (name, cache) in [("l1d", &snap.l1d), ("l2", &snap.l2), ("l3", &snap.l3)] {
            out.extend(audit_cache_flow(&at(name), cache));
        }

        // A108: component statistics exist exactly for schemes that have
        // the component.
        if snap.pom.is_some() != scheme.uses_pom_tlb() {
            out.push(Diagnostic::error(
                "CSALT-A108",
                at("pom-tlb"),
                format!(
                    "POM statistics {} but scheme {scheme} {}",
                    if snap.pom.is_some() {
                        "present"
                    } else {
                        "absent"
                    },
                    if scheme.uses_pom_tlb() {
                        "uses the POM-TLB"
                    } else {
                        "does not use it"
                    },
                ),
            ));
        }
        let tsb_scheme = matches!(scheme, TranslationScheme::Tsb | TranslationScheme::TsbCsalt);
        if snap.tsb.is_some() != tsb_scheme {
            out.push(Diagnostic::error(
                "CSALT-A108",
                at("tsb"),
                format!(
                    "TSB statistics {} but scheme {scheme} {}",
                    if snap.tsb.is_some() {
                        "present"
                    } else {
                        "absent"
                    },
                    if tsb_scheme {
                        "uses the TSB"
                    } else {
                        "does not use it"
                    },
                ),
            ));
        }
        out
    }

    /// A106: fill/eviction/writeback flow conservation for one cache.
    pub fn audit_cache_flow(subject: &str, stats: &CacheStats) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let misses = stats.total().misses;
        if stats.fills > misses {
            out.push(Diagnostic::error(
                "CSALT-A106",
                subject,
                format!(
                    "{} fills exceed {} misses (write-allocate fills once per miss)",
                    stats.fills, misses
                ),
            ));
        }
        if stats.evictions > stats.fills {
            out.push(Diagnostic::error(
                "CSALT-A106",
                subject,
                format!("{} evictions exceed {} fills", stats.evictions, stats.fills),
            ));
        }
        if stats.writebacks > stats.evictions {
            out.push(Diagnostic::error(
                "CSALT-A106",
                subject,
                format!(
                    "{} writebacks exceed {} evictions (only dirty evictions write back)",
                    stats.writebacks, stats.evictions
                ),
            ));
        }
        out
    }

    /// A104: a cache can never hold more valid lines than its capacity,
    /// and a partitioned scan can never observe negative occupancy.
    pub fn audit_occupancy(subject: &str, occ: &Occupancy) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if occ.data_lines + occ.tlb_lines > occ.capacity_lines {
            out.push(Diagnostic::error(
                "CSALT-A104",
                subject,
                format!(
                    "{} data + {} TLB lines exceed capacity {}",
                    occ.data_lines, occ.tlb_lines, occ.capacity_lines
                ),
            ));
        }
        out
    }

    /// A107: the headline performance figure must be a usable number.
    pub fn audit_ipc(subject: &str, ipc: f64, instructions: u64) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if instructions > 0 && !(ipc.is_finite() && ipc > 0.0) {
            out.push(Diagnostic::error(
                "CSALT-A107",
                subject,
                format!("IPC {ipc} is not finite and positive despite {instructions} retired instructions"),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csalt_types::invariants::Severity;

    #[test]
    fn all_presets_by_all_schemes_is_clean() {
        let report = audit_all_presets();
        assert!(
            report.combinations >= 25,
            "sweep too small: {}",
            report.combinations
        );
        assert!(
            report.clean(),
            "built-in presets must audit clean:\n{:#?}",
            report.diagnostics
        );
        assert_eq!(report.warnings, 0, "{:#?}", report.diagnostics);
    }

    #[test]
    fn rule_codes_are_unique_and_well_formed() {
        let mut codes: Vec<&str> = static_rules()
            .iter()
            .chain(conservation_rules())
            .map(|r| r.code)
            .collect();
        let total = codes.len();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), total, "duplicate rule codes");
        for code in codes {
            assert!(code.starts_with("CSALT-A"), "bad code {code}");
            assert_eq!(code.len(), "CSALT-A000".len(), "bad code {code}");
        }
    }

    #[test]
    fn broken_geometry_is_reported_with_its_code() {
        let mut cfg = SystemConfig::skylake();
        cfg.l2.ways = 3; // capacity no longer divides
        let diags = audit_config("broken", &cfg, &TranslationScheme::CsaltCd);
        assert!(diags.iter().any(|d| d.code == "CSALT-A002"), "{diags:?}");
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
        assert!(diags[0].subject.starts_with("broken/"));
    }

    #[test]
    fn static_partition_bounds_are_enforced() {
        let cfg = SystemConfig::skylake();
        let bad = TranslationScheme::StaticPartition {
            data_ways: cfg.l3.ways,
        };
        let diags = audit_config("t", &cfg, &bad);
        assert!(diags.iter().any(|d| d.code == "CSALT-A014"), "{diags:?}");

        let good = TranslationScheme::StaticPartition { data_ways: 4 };
        assert!(audit_config("t", &cfg, &good).is_empty());
    }

    #[test]
    fn latency_inversion_is_a_warning_not_an_error() {
        let mut cfg = SystemConfig::skylake();
        cfg.l3.latency = cfg.l2.latency; // no longer strictly increasing
        let diags = audit_config("t", &cfg, &TranslationScheme::Conventional);
        assert!(diags
            .iter()
            .any(|d| d.code == "CSALT-A012" && d.severity == Severity::Warning));
        assert!(diags.iter().all(|d| d.severity != Severity::Error));
        // ...and validate() still accepts it: warnings are advisory.
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn reports_serialize_to_json() {
        let report = audit_all_presets();
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        assert!(json.contains("\"combinations\""));
        assert!(json.contains("\"errors\": 0"));
        assert!(json.contains(&format!("\"version\": {SCHEMA_VERSION}")));
    }

    #[test]
    fn diagnostics_sort_errors_first() {
        let mut cfg = SystemConfig::skylake();
        cfg.l2.latency = 1; // warning (latency order)
        cfg.epoch_accesses = 0; // error
        let report = AuditReport::new(1, audit_config("x", &cfg, &TranslationScheme::Conventional));
        assert!(report.errors >= 1 && report.warnings >= 1);
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert!(!report.clean());
    }
}
