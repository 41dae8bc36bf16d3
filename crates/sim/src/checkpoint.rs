//! Checkpointed warmup: fork-from-snapshot cold runs.
//!
//! A run's warmup phase is a pure function of the *warmup-determining*
//! subset of its [`SimConfig`] — the machine, scheme, workload, seed
//! and warmup length, but **not** the measured-phase knobs (access
//! budget, sample windows, occupancy scans). Two configs that agree on
//! that subset land in byte-identical post-warmup state, so the first
//! one to run can serialize the whole simulator ([`HierarchyCheckpoint`])
//! and every sibling can restore it and run only its measured phase.
//!
//! A run checkpoints exactly when its caller gives it a cache
//! directory: a sweep's `SweepOptions::cache_dir` for its jobs,
//! `run_in`'s `cache_dir` or `Instrumentation::cache_dir` for one run.
//! `run` and `run_with_generators` take none and never checkpoint (a
//! caller-supplied generator matrix is not what the warmup key hashes).
//! Images are named `ckpt-<engine-fingerprint>-<warmup-key>.bin`
//! and framed by the [`csalt_types::ckpt`] envelope: magic, version,
//! fingerprint, length-validated payload, trailing checksum. A torn,
//! stale or corrupt image is *never* an error — the run falls back to a
//! cold warmup and the rejection is counted ([`stats`]).
//!
//! The hard contract — a restored run is bit-identical to a
//! straight-through run — is pinned by `tests/determinism.rs` across
//! every scheme and both virtualization modes, and re-proven by the
//! `ckpt-gate` CI step.
//!
//! This module is integer-only (the envelope stores `f64` state as bit
//! patterns) and never reads a clock; `srclint` pins both properties.

use crate::simulator::SimConfig;
use crate::sweep::{canonical_json, engine_fingerprint};
use csalt_core::MemoryHierarchy;
use csalt_types::ckpt::fnv1a_bytes;
use csalt_types::{CkptError, CkptReader, CkptWriter};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Telemetry counters.
// ---------------------------------------------------------------------

static SAVES: AtomicU64 = AtomicU64::new(0);
static RESTORES: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide checkpoint activity (monotonic counters): what the
/// sweep's telemetry records and the CI gate asserts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CkptStats {
    /// Images written after a cold warmup.
    pub saves: u64,
    /// Runs that skipped warmup by restoring an image.
    pub restores: u64,
    /// Images that existed but were rejected (torn tail, bad checksum,
    /// stale fingerprint, geometry mismatch) — each fell back to a cold
    /// warmup.
    pub fallbacks: u64,
}

/// Snapshot of the process-wide checkpoint counters.
#[must_use]
pub fn stats() -> CkptStats {
    CkptStats {
        saves: SAVES.load(Ordering::Relaxed),
        restores: RESTORES.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------
// The warmup-prefix key.
// ---------------------------------------------------------------------

/// The [`SimConfig`] fields (by serde name) that only shape the
/// measured phase, which runs *after* the checkpoint capture point.
/// Every other field — including any added later — is part of the
/// warmup key, so a field missing here can only split checkpoint
/// groups, never let a sibling restore the wrong image.
const MEASURED_ONLY_FIELDS: [&str; 2] = ["accesses_per_core", "occupancy_scan_interval"];

/// Canonical JSON of the warmup-determining subset of `cfg` (sorted
/// keys, shortest-round-trip floats — same canonical form as the sweep
/// result cache).
fn warmup_prefix_json(cfg: &SimConfig) -> String {
    use serde_json::Value;
    let mut keep: Vec<(String, Value)> = Vec::new();
    if let Value::Map(entries) = cfg.to_content() {
        for (k, v) in entries {
            if !MEASURED_ONLY_FIELDS.contains(&k.as_str()) {
                keep.push((k, v));
            }
        }
    }
    canonical_json(&Value::Map(keep))
}

/// The warmup-prefix key of a config: 16 hex digits of FNV-1a over the
/// canonical warmup-subset JSON. Configs with equal keys share
/// post-warmup state (and therefore a checkpoint image); the sweep
/// groups jobs by this key to run one warmup materializer per group.
#[must_use]
pub fn warmup_key(cfg: &SimConfig) -> String {
    format!("{:016x}", fnv1a_bytes(warmup_prefix_json(cfg).as_bytes()))
}

// ---------------------------------------------------------------------
// The checkpoint image.
// ---------------------------------------------------------------------

/// Section tag for the scheduling/stream metadata.
const SECTION_META: u32 = 0x4d45_5441; // "META"
/// Section tag for the serialized hierarchy.
const SECTION_HIER: u32 = 0x4849_4552; // "HIER"

/// Everything a restored run needs beyond the hierarchy itself: where
/// each core's round-robin schedule stood, and how many records each
/// `(vm, core)` generator stream had popped — the restore path
/// fast-forwards the streams by those counts instead of serializing
/// generator internals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyCheckpoint {
    /// Per-core VM the scheduler had resident at the capture point.
    pub current_vms: Vec<u32>,
    /// Warmup pops per `[vm][core]` stream.
    pub pops: Vec<Vec<u64>>,
}

impl HierarchyCheckpoint {
    /// Serializes scheduling metadata plus the full hierarchy into a
    /// framed image scoped to `fingerprint`.
    #[must_use]
    pub fn encode(&self, hier: &MemoryHierarchy, fingerprint: &str) -> Vec<u8> {
        let mut w = CkptWriter::new();
        let m = w.begin_section(SECTION_META);
        w.len64(self.current_vms.len());
        for &vm in &self.current_vms {
            w.u32(vm);
        }
        w.len64(self.pops.len());
        for row in &self.pops {
            w.slice_u64(row);
        }
        w.end_section(m);
        let m = w.begin_section(SECTION_HIER);
        hier.ckpt_save(&mut w);
        w.end_section(m);
        w.finish(fingerprint)
    }

    /// Validates `data` against `fingerprint` and restores it into
    /// `hier`, returning the scheduling metadata. `cores`/`vms` guard
    /// the metadata's shape against the receiving config.
    ///
    /// On *any* error the caller must discard `hier` — the hierarchy
    /// may be partially overwritten — and run cold.
    pub fn decode_into(
        data: &[u8],
        fingerprint: &str,
        hier: &mut MemoryHierarchy,
        cores: usize,
        vms: usize,
    ) -> Result<Self, CkptError> {
        let mut r = CkptReader::open(data, fingerprint)?;
        let end = r.begin_section(SECTION_META)?;
        let n_cores = r.len64()?;
        if n_cores != cores {
            return Err(CkptError::Mismatch("checkpoint core count"));
        }
        let mut current_vms = Vec::with_capacity(n_cores);
        for _ in 0..n_cores {
            let vm = r.u32()?;
            if vm as usize >= vms {
                return Err(CkptError::Corrupt("resident vm out of range"));
            }
            current_vms.push(vm);
        }
        let n_vms = r.len64()?;
        if n_vms != vms {
            return Err(CkptError::Mismatch("checkpoint vm count"));
        }
        let mut pops = Vec::with_capacity(n_vms);
        for _ in 0..n_vms {
            let row = r.vec_u64()?;
            if row.len() != cores {
                return Err(CkptError::Mismatch("pop-count row width"));
            }
            pops.push(row);
        }
        r.end_section(end)?;
        let end = r.begin_section(SECTION_HIER)?;
        hier.ckpt_load(&mut r)?;
        r.end_section(end)?;
        r.finish()?;
        Ok(Self { current_vms, pops })
    }
}

// ---------------------------------------------------------------------
// On-disk plumbing.
// ---------------------------------------------------------------------

/// One run's checkpoint plan: resolved once before warmup. `None`
/// (from [`plan`]) means the layer is off for this run.
#[derive(Debug, Clone)]
pub(crate) struct CkptPlan {
    path: PathBuf,
    fingerprint: String,
}

/// Decides whether (and where) this run checkpoints: requires a cache
/// directory and a nonzero warmup (a zero-warmup checkpoint would save
/// nothing).
pub(crate) fn plan(cfg: &SimConfig, cache_dir: Option<&Path>) -> Option<CkptPlan> {
    let dir = cache_dir.filter(|_| cfg.warmup_accesses_per_core > 0)?;
    let fingerprint = engine_fingerprint();
    let path = dir.join(format!("ckpt-{}-{}.bin", fingerprint, warmup_key(cfg)));
    Some(CkptPlan { path, fingerprint })
}

impl CkptPlan {
    /// Attempts to restore this plan's image into `hier`.
    ///
    /// * `Ok(Some(meta))` — restored; counted.
    /// * `Ok(None)` — no image on disk; run cold (not a fallback).
    /// * `Err(_)` — image present but rejected; counted as a fallback.
    ///   `hier` may be partially overwritten: rebuild it before use.
    pub(crate) fn try_restore(
        &self,
        hier: &mut MemoryHierarchy,
        cores: usize,
        vms: usize,
    ) -> Result<Option<HierarchyCheckpoint>, CkptError> {
        let Ok(data) = std::fs::read(&self.path) else {
            return Ok(None);
        };
        match HierarchyCheckpoint::decode_into(&data, &self.fingerprint, hier, cores, vms) {
            Ok(meta) => {
                RESTORES.fetch_add(1, Ordering::Relaxed);
                Ok(Some(meta))
            }
            Err(e) => {
                FALLBACKS.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Writes the image atomically (unique temp file + rename), so a
    /// concurrent reader sees either no file or a complete one. Write
    /// failures are swallowed — the checkpoint layer must never break a
    /// run — and simply leave the next sibling to warm up cold.
    pub(crate) fn save(&self, hier: &MemoryHierarchy, meta: &HierarchyCheckpoint) {
        static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let image = meta.encode(hier, &self.fingerprint);
        let tmp = self.path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, &image).is_ok() {
            if std::fs::rename(&tmp, &self.path).is_ok() {
                SAVES.fetch_add(1, Ordering::Relaxed);
            } else {
                let _ = std::fs::remove_file(&tmp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csalt_types::TranslationScheme;
    use csalt_workloads::{BenchKind, WorkloadSpec};

    fn cfg() -> SimConfig {
        let mut c = SimConfig::new(
            WorkloadSpec::homogeneous("gups", BenchKind::Gups),
            TranslationScheme::CsaltCd,
        );
        c.system.cores = 2;
        c.accesses_per_core = 4_000;
        c.warmup_accesses_per_core = 2_000;
        c
    }

    #[test]
    fn warmup_key_ignores_measured_phase_knobs() {
        let a = cfg();
        let mut b = a.clone();
        b.accesses_per_core *= 3;
        b.occupancy_scan_interval = 500;
        assert_eq!(warmup_key(&a), warmup_key(&b));
    }

    #[test]
    fn warmup_key_tracks_warmup_determining_fields() {
        let base = cfg();
        let mut seed = base.clone();
        seed.seed ^= 1;
        assert_ne!(warmup_key(&base), warmup_key(&seed));
        let mut scheme = base.clone();
        scheme.scheme = TranslationScheme::Tsb;
        assert_ne!(warmup_key(&base), warmup_key(&scheme));
        let mut warm = base.clone();
        warm.warmup_accesses_per_core += 1;
        assert_ne!(warmup_key(&base), warmup_key(&warm));
        let mut native = base.clone();
        native.virtualized = false;
        assert_ne!(warmup_key(&base), warmup_key(&native));
    }

    /// A value of the same serde shape that differs from `v`: numbers
    /// step, booleans flip, strings change (to another enum variant
    /// name when `v` is one), and maps or sequences change one entry.
    /// Returns every candidate; the caller keeps the first that still
    /// deserializes.
    fn perturbations(v: &serde_json::Value) -> Vec<serde_json::Value> {
        use serde_json::Value;
        match v {
            Value::Null => vec![Value::Bool(true)],
            Value::Bool(b) => vec![Value::Bool(!b)],
            Value::U64(n) => vec![Value::U64(n + 1)],
            Value::I64(n) => vec![Value::I64(n - 1)],
            Value::F64(x) => vec![Value::F64(x + 0.25)],
            Value::Str(s) => ["Conventional".to_owned(), format!("{s}x")]
                .into_iter()
                .filter(|w| w != s)
                .map(Value::Str)
                .collect(),
            Value::Seq(items) => (0..items.len())
                .flat_map(|i| {
                    perturbations(&items[i]).into_iter().map(move |p| {
                        let mut items = items.clone();
                        items[i] = p;
                        Value::Seq(items)
                    })
                })
                .collect(),
            Value::Map(entries) => (0..entries.len())
                .flat_map(|i| {
                    perturbations(&entries[i].1).into_iter().map(move |p| {
                        let mut entries = entries.clone();
                        entries[i].1 = p;
                        Value::Map(entries)
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn warmup_key_covers_every_field_off_the_measured_only_list() {
        use serde::Deserialize;
        use serde_json::Value;
        let base = cfg();
        let Value::Map(entries) = base.to_content() else {
            panic!("SimConfig serializes as an object");
        };
        for name in MEASURED_ONLY_FIELDS {
            assert!(
                entries.iter().any(|(k, _)| k == name),
                "measured-only field {name} is not a SimConfig field"
            );
        }
        for (i, (name, value)) in entries.iter().enumerate() {
            let changed = perturbations(value)
                .into_iter()
                .find_map(|p| {
                    let mut e = entries.clone();
                    e[i].1 = p;
                    SimConfig::from_content(&Value::Map(e)).ok()
                })
                .unwrap_or_else(|| panic!("no valid change of field {name}"));
            assert_ne!(changed, base, "field {name}");
            let measured_only = MEASURED_ONLY_FIELDS.contains(&name.as_str());
            assert_eq!(
                warmup_key(&changed) == warmup_key(&base),
                measured_only,
                "field {name}: the warmup key must change unless it is measured-only"
            );
        }
    }
}
