//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit. A run collects values by name and [`Report::render`] refuses to
//! print a result whose names differ from the catalogue for its mode, so
//! the binary and `BENCHMARK.json` cannot drift apart silently (the
//! unit tests compare the catalogue against `BENCHMARK.json`).

use crate::stats;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Host-time metrics a user of the simulator sees, printed by untraced
/// runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("accesses_per_s", "acc/s"),
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    m("workloads.gen_ns", "ns"),
    m("workloads.stage_ns", "ns"),
    m("workloads.build_ms", "ms"),
    m("tlb.l1_ns", "ns"),
    m("tlb.l2_ns", "ns"),
    m("tlb.pom_ns", "ns"),
    m("tlb.l1_calls", "calls/acc"),
    m("tlb.l2_calls", "calls/acc"),
    m("tlb.pom_calls", "calls/acc"),
    m("tlb.l2_mpki", "1/kinstr"),
    m("tlb.pom_hit_ratio", "ratio"),
    m("ptw.walk_ns", "ns"),
    m("ptw.walks_per_kacc", "1/kacc"),
    m("ptw.walk_elimination", "ratio"),
    m("ptw.pte_reads_per_walk", "reads/walk"),
    m("ptw.psc_skip_ratio", "ratio"),
    m("cache.l1d_ns", "ns"),
    m("cache.l2_ns", "ns"),
    m("cache.l3_ns", "ns"),
    m("cache.l1d_calls", "calls/acc"),
    m("cache.l2_calls", "calls/acc"),
    m("cache.l3_calls", "calls/acc"),
    m("cache.l2_mpki", "1/kinstr"),
    m("cache.l3_mpki", "1/kinstr"),
    m("cache.l3_tlb_share", "ratio"),
    m("dram.access_ns", "ns"),
    m("dram.ddr_calls", "calls/acc"),
    m("dram.stacked_calls", "calls/acc"),
    m("dram.row_hit_ratio", "ratio"),
    m("profiler.record_ns", "ns"),
    m("profiler.repartition_us", "us"),
    m("profiler.epochs", "count"),
    m("core.access_ns", "ns"),
    m("core.walk_access_ns", "ns"),
    m("core.hit_access_ns", "ns"),
    m("core.glue_ns", "ns"),
    m("core.l0_hit_ratio", "ratio"),
    m("sim.replay_ns", "ns"),
    m("sim.engine_ns", "ns"),
    m("sim.context_switches_per_kacc", "1/kacc"),
    m("sim.cycles_per_access", "cycles/acc"),
    m("sim.csalt_cd_speedup", "ratio"),
    m("ckpt.encode_ms", "ms"),
    m("ckpt.decode_ms", "ms"),
    m("ckpt.image_kib", "KiB"),
    m("ckpt.saves", "count"),
    m("ckpt.restores", "count"),
    m("ckpt.fallbacks", "count"),
    m("sweep.simulated", "count"),
    m("sweep.deduped", "count"),
    m("sweep.restored_ratio", "ratio"),
    m("sweep.cache_errors", "count"),
    m("sweep.store_materialized", "count"),
    m("sweep.worker_busy_ratio", "ratio"),
    m("trace.overhead_ratio", "ratio"),
];

/// `num / den`, or 0 when nothing was counted (a layer the workload
/// bypasses reads 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One metric's reported value and the per-round samples behind it.
struct Entry {
    metric: Metric,
    value: f64,
    samples: Vec<f64>,
}

/// A run's outcome: correctness counts plus named metric values.
pub struct Report {
    /// Jobs (simulations) attempted.
    pub attempted: u64,
    /// Jobs that failed a check.
    pub failed: u64,
    /// Whether every correctness check of the run passed.
    pub correct: bool,
    entries: Vec<Entry>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            correct: true,
            entries: Vec::new(),
        }
    }

    /// Records a metric reported as the median of `samples`.
    pub fn median_of(&mut self, name: &str, samples: Vec<f64>) {
        let value = stats::median(&samples).unwrap_or(0.0);
        self.with_samples(name, value, samples);
    }

    /// Records a metric whose reported value is `value`, with the
    /// per-round `samples` its spread is printed from.
    pub fn with_samples(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let metric = *END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(
            self.entries.iter().all(|e| e.metric.name != name),
            "metric {name} recorded twice"
        );
        self.entries.push(Entry {
            metric,
            value,
            samples,
        });
    }

    /// Records a single-sample metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.with_samples(name, value, vec![value]);
    }

    /// The recorded value of `name`, if any.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|e| e.metric.name == name)
            .map(|e| e.value)
    }

    /// The human-readable table (one line per metric: name, value,
    /// unit, median, quartiles and sample count) followed by the final
    /// result line. Errors if the recorded names are not exactly
    /// `catalogue` or a value is not finite.
    pub fn render(&self, catalogue: &[Metric]) -> Result<String, String> {
        let missing: Vec<&str> = catalogue
            .iter()
            .filter(|m| self.entries.iter().all(|e| e.metric != **m))
            .map(|m| m.name)
            .collect();
        let extra: Vec<&str> = self
            .entries
            .iter()
            .filter(|e| !catalogue.contains(&e.metric))
            .map(|e| e.metric.name)
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "metric set mismatch: missing {missing:?}, unexpected {extra:?}"
            ));
        }
        if let Some(e) = self.entries.iter().find(|e| !e.value.is_finite()) {
            return Err(format!(
                "metric {} is not finite: {}",
                e.metric.name, e.value
            ));
        }
        let mut out = String::new();
        for m in catalogue {
            let e = self
                .entries
                .iter()
                .find(|e| e.metric == *m)
                .expect("checked above");
            let (q1, q3) = stats::quartiles(&e.samples).unwrap_or((e.value, e.value));
            let _ = writeln!(
                out,
                "{:<32} {:>16.6} {:<10} median {:.6} IQR [{:.6}, {:.6}] n={}",
                m.name,
                e.value,
                m.unit,
                stats::median(&e.samples).unwrap_or(e.value),
                q1,
                q3,
                e.samples.len()
            );
        }
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|m| {
                let e = self
                    .entries
                    .iter()
                    .find(|e| e.metric == *m)
                    .expect("checked above");
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, e.value, m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `BENCHMARK.json` from the repository root (the parent of
    /// this package) as `(section, name, unit)` triples.
    fn listed() -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let root = doc.as_map().expect("top-level object");
        let mut out = Vec::new();
        for section in ["end_to_end", "per_layer"] {
            let items = root
                .iter()
                .find(|(k, _)| k == section)
                .and_then(|(_, v)| v.as_seq())
                .expect("metric section present");
            for item in items {
                let fields = item.as_map().expect("metric object");
                let get = |key: &str| match fields.iter().find(|(k, _)| k == key) {
                    Some((_, serde_json::Value::Str(s))) => s.clone(),
                    other => panic!("{section} entry lacks string {key}: {other:?}"),
                };
                out.push((section.to_owned(), get("name"), get("unit")));
            }
        }
        out
    }

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!m.name.is_empty() && m.name.len() <= 64, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{} has a character outside [A-Za-z0-9_.-]",
                m.name
            );
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {} of {}",
                m.unit,
                m.name
            );
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let ours: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|m| ("end_to_end", m))
            .chain(PER_LAYER.iter().map(|m| ("per_layer", m)))
            .map(|(s, m)| (s.to_owned(), m.name.to_owned(), m.unit.to_owned()))
            .collect();
        assert_eq!(ours, listed());
    }

    #[test]
    fn render_refuses_a_partial_metric_set() {
        let mut r = Report::new();
        r.attempted = 1;
        r.set("wall_s", 1.5);
        assert!(r.render(END_TO_END).is_err());
        r.set("accesses_per_s", 2.0e6);
        r.median_of("setup_s", vec![0.2, 0.1, 0.3]);
        r.set("peak_rss_mib", 100.0);
        let text = r.render(END_TO_END).expect("complete set");
        let last = text.lines().last().expect("result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(last.contains("\"setup_s\": {\"value\": 0.2, \"unit\": \"s\"}"));
        let doc: serde_json::Value = serde_json::from_str(last).expect("result line is JSON");
        assert!(doc.as_map().is_some());
        assert!(r.render(PER_LAYER).is_err());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
