//! Correctness checks on simulated results. Simulated results are
//! deterministic, so they are checked by exact equality — against the
//! pinned fingerprints in `pins.json`, against earlier rounds of the
//! same run, and between replay paths — and against the A101–A108
//! conservation laws.

use csalt_sim::SimResult;
use csalt_types::ckpt::fnv1a_bytes;
use csalt_types::Severity;

/// Pinned fingerprints: `{workload: {seed: fingerprint}}`, recorded
/// for the program's default seed and one held-out seed.
const PINS: &str = include_str!("../pins.json");

/// The JSON the fingerprints hash: `SimResult`'s serde encoding.
pub fn result_json(r: &SimResult) -> String {
    serde_json::to_string(r).expect("SimResult serializes")
}

/// 16 hex digits of FNV-1a over `bytes`.
pub fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a_bytes(bytes))
}

/// The workload fingerprint: FNV-1a over the results' JSON in the
/// canonical config order, one result per line.
pub fn fingerprint(results: &[SimResult]) -> String {
    let text: Vec<String> = results.iter().map(result_json).collect();
    fnv_hex(text.join("\n").as_bytes())
}

/// The pinned fingerprint for `(workload, seed)`, if one is recorded.
pub fn pinned(workload: &str, seed: u64) -> Option<String> {
    let doc: serde_json::Value = serde_json::from_str(PINS).expect("pins.json parses");
    let seeds = doc
        .as_map()?
        .iter()
        .find(|(k, _)| k == workload)?
        .1
        .as_map()?;
    match seeds.iter().find(|(k, _)| *k == seed.to_string()) {
        Some((_, serde_json::Value::Str(fp))) => Some(fp.clone()),
        _ => None,
    }
}

/// Error-severity A101–A108 violations of one result, rendered.
pub fn audit(r: &SimResult) -> Vec<String> {
    use csalt_audit::conservation::{audit_ipc, audit_snapshot};
    let label = format!("{}/{}", r.workload, r.scheme.label());
    let mut diags = audit_snapshot(&label, &r.snapshot, &r.scheme);
    diags.extend(audit_ipc(&label, r.ipc(), r.instructions));
    diags
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn pins_cover_every_workload_for_two_seeds() {
        for w in Workload::ALL {
            for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
                let fp = pinned(w.name(), seed)
                    .unwrap_or_else(|| panic!("no pin for {} seed {seed}", w.name()));
                assert_eq!(fp.len(), 16);
                assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
            }
        }
        assert_eq!(pinned("fig07_mix", 424_242), None);
        assert_eq!(pinned("nope", crate::DEFAULT_SEED), None);
    }

    #[test]
    fn fnv_hex_is_stable() {
        // FNV-1a 64 offset basis for the empty input.
        assert_eq!(fnv_hex(b""), "cbf29ce484222325");
        assert_ne!(fnv_hex(b"a"), fnv_hex(b"b"));
    }
}
