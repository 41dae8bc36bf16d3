//! What is left of the shared staged-trace store: the workload-tuple
//! key and two inert stubs. The store itself is gone — every sweep job
//! drives its own generators — and `perfbench/` still calls these
//! three items; they go with the benchmark's next change.

use crate::simulator::SimConfig;
use crate::sweep::canonical_json;
use csalt_types::ckpt::fnv1a_bytes;
use serde::Serialize;

/// Zero counters returned by [`stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStoreStats {
    /// Always zero: no tuple is ever materialized.
    pub materialized: u64,
}

/// Zeros; exists only for `perfbench/` and goes with the benchmark's next change.
#[must_use]
pub fn stats() -> TraceStoreStats {
    TraceStoreStats::default()
}

/// Does nothing; exists only for `perfbench/` and goes with the benchmark's next change.
pub fn clear_resident() {}

/// Canonical JSON of the stream-determining subset of `cfg`: the
/// workload pairing, seed, footprint scale, and the matrix shape
/// (cores × contexts per core). Nothing else reaches the generators.
fn trace_tuple_json(cfg: &SimConfig) -> String {
    use serde_json::Value;
    let mut keep: Vec<(String, Value)> = Vec::new();
    if let Value::Map(entries) = cfg.to_content() {
        for (k, v) in entries {
            match k.as_str() {
                "workload" | "seed" | "scale" => keep.push((k, v)),
                "system" => {
                    if let Value::Map(sys) = v {
                        for (sk, sv) in sys {
                            if matches!(sk.as_str(), "cores" | "contexts_per_core") {
                                keep.push((format!("system.{sk}"), sv));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    canonical_json(&Value::Map(keep))
}

/// The workload-tuple key: 16 hex digits of FNV-1a over
/// [`trace_tuple_json`]; configs with equal keys drive byte-identical
/// generator streams. Exists only for `perfbench/` and goes with the
/// benchmark's next change.
#[must_use]
pub fn trace_key(cfg: &SimConfig) -> String {
    format!("{:016x}", fnv1a_bytes(trace_tuple_json(cfg).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csalt_types::TranslationScheme;
    use csalt_workloads::WorkloadSpec;

    fn cfg() -> SimConfig {
        let mut c = SimConfig::new(
            WorkloadSpec::homogeneous("gups", csalt_workloads::BenchKind::Gups),
            TranslationScheme::CsaltCd,
        );
        c.system.cores = 2;
        c.accesses_per_core = 1_000;
        c.warmup_accesses_per_core = 500;
        c
    }

    #[test]
    fn trace_key_ignores_scheme_and_measured_knobs() {
        let a = cfg();
        let mut b = a.clone();
        b.scheme = TranslationScheme::Tsb;
        b.virtualized = false;
        b.accesses_per_core *= 7;
        b.warmup_accesses_per_core = 0;
        b.system.epoch_accesses = 999;
        assert_eq!(trace_key(&a), trace_key(&b));
    }

    #[test]
    fn trace_key_tracks_stream_determining_fields() {
        let base = cfg();
        let mut seed = base.clone();
        seed.seed ^= 1;
        assert_ne!(trace_key(&base), trace_key(&seed));
        let mut cores = base.clone();
        cores.system.cores = 4;
        assert_ne!(trace_key(&base), trace_key(&cores));
        let mut wl = base.clone();
        wl.workload = WorkloadSpec::homogeneous("gups2", csalt_workloads::BenchKind::Gups);
        assert_ne!(trace_key(&base), trace_key(&wl));
    }
}
