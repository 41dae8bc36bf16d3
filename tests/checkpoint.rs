//! Checkpoint-image integrity tests: property-based round-trips of
//! [`HierarchyCheckpoint`] over reachable simulator states, plus the
//! rejection guarantees the fork-from-snapshot sweep relies on — a
//! torn tail at *every* byte length, a garbage header, and a stale
//! engine fingerprint must all decode to a clean error (never a panic,
//! never a silently wrong hierarchy). Crafted images whose page tables
//! are well framed but could never have been built are rejected as
//! corrupt too, and a run handed one falls back to a cold warmup, as
//! does a run that finds another config's image under its own name.

mod radix_reference;

use csalt::core::MemoryHierarchy;
use csalt::ptw::HugePagePolicy;
use csalt::sim::checkpoint::{self, HierarchyCheckpoint};
use csalt::sim::{run_in, SimConfig, SimResult};
use csalt::types::ckpt::{image_checksum, CKPT_MAGIC, CKPT_VERSION};
use csalt::types::{
    CkptError, CkptReader, CkptWriter, ContextId, CoreId, MemAccess, PageSize, PhysAddr, PhysFrame,
    SystemConfig, TranslationScheme, VirtAddr,
};
use csalt::workloads::{BenchKind, WorkloadSpec};
use proptest::prelude::*;
use radix_reference::{Entry, Node, ReferenceTable};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

/// Held by the tests that assert on the process-wide checkpoint
/// counters, so that one test's fallbacks never land in another's
/// before/after window.
static COUNTERS: Mutex<()> = Mutex::new(());

/// A shrunken two-core machine: same shapes as `skylake()`, but small
/// enough that whole-image scans (every torn-tail length) stay cheap.
fn small_config() -> SystemConfig {
    let mut cfg = SystemConfig::skylake();
    cfg.cores = 2;
    cfg.l2.size_bytes = 64 << 10;
    cfg.l3.size_bytes = 256 << 10;
    cfg.pom_tlb.size_bytes = 64 << 10;
    cfg.epoch_accesses = 10_000;
    cfg
}

fn hier(cfg: &SystemConfig, scheme: TranslationScheme, virtualized: bool) -> MemoryHierarchy {
    MemoryHierarchy::new(cfg, scheme, virtualized, HugePagePolicy::NONE, 1)
}

/// Drives `h` through `addrs`, alternating cores and contexts. Each
/// tuple is `(address, selector, write)` where the selector's low bit
/// picks the core and the next bit the context.
fn drive(h: &mut MemoryHierarchy, cores: usize, vms: usize, addrs: &[(u64, usize, bool)]) {
    let ctxs: Vec<_> = (0..vms).map(|_| h.add_context()).collect();
    replay(h, cores, &ctxs, addrs);
}

/// [`drive`] over contexts the hierarchy already has.
fn replay(h: &mut MemoryHierarchy, cores: usize, ctxs: &[ContextId], addrs: &[(u64, usize, bool)]) {
    let vms = ctxs.len();
    for &(addr, sel, write) in addrs {
        let a = VirtAddr::new(addr & !0x3f);
        let acc = if write {
            MemAccess::write(a, 4)
        } else {
            MemAccess::read(a, 4)
        };
        h.access(
            CoreId::new((sel % cores) as u8),
            ctxs[(sel / cores) % vms],
            acc,
        );
    }
}

/// A reference image over a nontrivial state: the richest scheme
/// (csalt-cd, virtualized) after a mixed read/write stream.
fn reference_image() -> (SystemConfig, Vec<u8>) {
    (small_config(), scheme_image(TranslationScheme::CsaltCd))
}

/// The reference image's state and stream, under `scheme`.
fn scheme_image(scheme: TranslationScheme) -> Vec<u8> {
    let cfg = small_config();
    let mut h = hier(&cfg, scheme, true);
    let addrs: Vec<(u64, usize, bool)> = (0..600)
        .map(|i: u64| ((i * 0x1_013) << 6, (i % 4) as usize, i.is_multiple_of(5)))
        .collect();
    drive(&mut h, 2, 2, &addrs);
    let meta = HierarchyCheckpoint {
        current_vms: vec![1, 0],
        pops: vec![vec![300, 150], vec![75, 75]],
    };
    meta.encode(&h, "fp-reference")
}

/// Schemes whose images the round-trip property covers: between them
/// every component's in-place loader runs — POM-TLB, TSB, the MSA
/// profilers and partitioner, DIP and DRRIP replacement state, and a
/// fixed partition.
const SCHEMES: [TranslationScheme; 9] = [
    TranslationScheme::Conventional,
    TranslationScheme::PomTlb,
    TranslationScheme::CsaltD,
    TranslationScheme::CsaltCd,
    TranslationScheme::Tsb,
    TranslationScheme::TsbCsalt,
    TranslationScheme::Dip,
    TranslationScheme::Drrip,
    TranslationScheme::StaticPartition { data_ways: 2 },
];

proptest! {
    /// Encode → decode-into-fresh → re-encode is the identity on the
    /// image, for arbitrary reachable states across schemes and both
    /// native/virtualized walkers: the decoded hierarchy contains
    /// exactly the serialized state, and the scheduling metadata
    /// round-trips field-for-field.
    #[test]
    fn image_round_trips_over_reachable_states(
        scheme_idx in 0usize..SCHEMES.len(),
        virtualized in any::<bool>(),
        vm0 in 0u32..2,
        vm1 in 0u32..2,
        pops in prop::collection::vec(prop::collection::vec(0u64..1_000, 2), 2),
        addrs in prop::collection::vec(
            (0u64..(1u64 << 32), 0usize..4, any::<bool>()),
            1..250,
        ),
    ) {
        let cfg = small_config();
        let mut h = hier(&cfg, SCHEMES[scheme_idx], virtualized);
        drive(&mut h, 2, 2, &addrs);
        let meta = HierarchyCheckpoint { current_vms: vec![vm0, vm1], pops };
        let image = meta.encode(&h, "fp-prop");

        let mut fresh = hier(&cfg, SCHEMES[scheme_idx], virtualized);
        for _ in 0..2 {
            fresh.add_context();
        }
        let got = HierarchyCheckpoint::decode_into(&image, "fp-prop", &mut fresh, 2, 2)
            .expect("image decodes into a same-shape hierarchy");
        prop_assert_eq!(&got, &meta, "scheduling metadata round-trips");
        prop_assert_eq!(
            got.encode(&fresh, "fp-prop"),
            image,
            "restored hierarchy re-encodes to the identical image"
        );
    }
}

/// Every proper prefix of a valid image — a write torn at any byte —
/// must be rejected. The decoder validates lengths before it allocates
/// or copies, so this also bounds allocation on hostile input.
#[test]
fn torn_tail_rejected_at_every_length() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    for len in 0..image.len() {
        let r = HierarchyCheckpoint::decode_into(&image[..len], "fp-reference", &mut scratch, 2, 2);
        assert!(
            r.is_err(),
            "truncation to {len} of {} bytes must fail",
            image.len()
        );
    }
    // The untruncated image still decodes — the scratch hierarchy's
    // partial overwrites never make it unusable as a decode target.
    HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 2, 2)
        .expect("full image decodes after every torn-tail attempt");
}

/// A corrupted header (any damage to the leading magic/version bytes)
/// is rejected outright.
#[test]
fn garbage_header_rejected() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    for byte in 0..16.min(image.len()) {
        let mut bad = image.clone();
        bad[byte] ^= 0xa5;
        let r = HierarchyCheckpoint::decode_into(&bad, "fp-reference", &mut scratch, 2, 2);
        assert!(r.is_err(), "flipping header byte {byte} must fail");
    }
    // All-garbage input of various sizes: clean errors, no panics.
    for n in [0usize, 1, 7, 16, 64, 4096] {
        let junk = vec![0x5au8; n];
        assert!(
            HierarchyCheckpoint::decode_into(&junk, "fp-reference", &mut scratch, 2, 2).is_err(),
            "{n} bytes of junk must fail"
        );
    }
}

/// An image saved under a different engine fingerprint — a stale cache
/// entry surviving an engine change — must be rejected, and the exact
/// same bytes must decode under the fingerprint they were saved with.
#[test]
fn stale_fingerprint_rejected() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    assert!(
        HierarchyCheckpoint::decode_into(&image, "fp-other-engine", &mut scratch, 2, 2).is_err(),
        "stale fingerprint must be rejected"
    );
    HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 2, 2)
        .expect("the matching fingerprint still decodes");
}

/// Shape mismatches between the image and the receiving run — wrong
/// core count or VM count — are rejected before any state is trusted.
#[test]
fn shape_mismatch_rejected() {
    let (cfg, image) = reference_image();
    let mut scratch = hier(&cfg, TranslationScheme::CsaltCd, true);
    for _ in 0..2 {
        scratch.add_context();
    }
    assert!(
        HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 4, 2).is_err(),
        "wrong core count must be rejected"
    );
    assert!(
        HierarchyCheckpoint::decode_into(&image, "fp-reference", &mut scratch, 2, 3).is_err(),
        "wrong vm count must be rejected"
    );
}

// ---------------------------------------------------------------------
// Crafted page tables and damaged payloads.
// ---------------------------------------------------------------------

/// The fingerprint and payload of a framed image.
fn unframe(image: &[u8]) -> (String, Vec<u8>) {
    let word = |at: usize, n: usize| {
        let mut b = [0u8; 8];
        b[..n].copy_from_slice(&image[at..at + n]);
        u64::from_le_bytes(b) as usize
    };
    let fp_len = word(12, 4);
    let fp = String::from_utf8(image[16..16 + fp_len].to_vec()).expect("utf-8 fingerprint");
    let at = 16 + fp_len;
    let len = word(at, 8);
    (fp, image[at + 8..at + 8 + len].to_vec())
}

/// `payload` framed under `fingerprint` by hand, as the format
/// describes it: magic, version, fingerprint length and bytes, payload
/// length, payload, then the image checksum over all of that.
fn reframe(payload: &[u8], fingerprint: &str) -> Vec<u8> {
    let mut out = CKPT_MAGIC.to_vec();
    out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    out.extend_from_slice(&(fingerprint.len() as u32).to_le_bytes());
    out.extend_from_slice(fingerprint.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = image_checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The encoding of a reference table, as raw payload bytes.
fn table_bytes(table: &ReferenceTable) -> Vec<u8> {
    let mut w = CkptWriter::new();
    table.ckpt_save(&mut w);
    unframe(&w.finish("raw")).1
}

/// The first page table in `payload` with at least `min_nodes` nodes:
/// its offset, its encoded length and its decoded form. A candidate
/// starts with a depth byte of 4, a node count and the root's base,
/// then the root's 512-entry tag array.
fn find_table(payload: &[u8], min_nodes: u64) -> (usize, usize, ReferenceTable) {
    let word = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    for at in 0..payload.len().saturating_sub(33) {
        let count = word(at + 9);
        if payload[at] != 4 || count < min_nodes || count > 1 << 20 || word(at + 25) != 512 {
            continue;
        }
        let framed = reframe(&payload[at..], "raw");
        let mut r = CkptReader::open(&framed, "raw").expect("own framing");
        if let Ok(table) = ReferenceTable::ckpt_load(&mut r, HugePagePolicy::NONE) {
            return (at, payload.len() - at - r.remaining(), table);
        }
    }
    panic!("no page table of {min_nodes}+ nodes in the image");
}

/// `image` with the page table at `at` (`len` bytes) replaced by
/// `table`, the HIER section's length patched, and framed again under
/// the image's own fingerprint.
fn splice(image: &[u8], at: usize, len: usize, table: &ReferenceTable) -> Vec<u8> {
    let (fp, payload) = unframe(image);
    let new = table_bytes(table);
    let mut out = payload[..at].to_vec();
    out.extend_from_slice(&new);
    out.extend_from_slice(&payload[at + len..]);
    // META section: tag(4) + length(8) + body; HIER's length word
    // follows its own tag.
    let meta_len = u64::from_le_bytes(payload[4..12].try_into().expect("8 bytes")) as usize;
    let hier_len_at = 12 + meta_len + 4;
    let hier_len = u64::from_le_bytes(out[hier_len_at..hier_len_at + 8].try_into().expect("8"));
    let patched = hier_len + new.len() as u64 - len as u64;
    out[hier_len_at..hier_len_at + 8].copy_from_slice(&patched.to_le_bytes());
    reframe(&out, &fp)
}

/// The first `(node, slot)` of a node at `level` whose entry satisfies
/// `pick`.
fn find_slot(table: &ReferenceTable, level: u8, pick: fn(&Entry) -> bool) -> (usize, usize) {
    let levels = table.node_levels();
    table
        .nodes
        .iter()
        .enumerate()
        .filter(|(idx, _)| levels[*idx] == level)
        .find_map(|(idx, node)| node.slots.iter().position(pick).map(|slot| (idx, slot)))
        .expect("table has such a slot")
}

/// Well-framed page tables that `walk_or_map` could never have built,
/// each one edit away from a valid table (`HugePagePolicy::NONE`).
fn crafted_tables(valid: &ReferenceTable) -> Vec<(&'static str, ReferenceTable)> {
    let is_empty = |e: &Entry| *e == Entry::Empty;
    let mut out = Vec::new();

    // An empty leaf-level slot pointing at a new, empty node.
    let mut t = valid.clone();
    let (node, slot) = find_slot(&t, 1, is_empty);
    let pa = PhysAddr::new(1 << 40);
    t.nodes[node].slots[slot] = Entry::Table {
        node: t.nodes.len() as u32,
        pa,
    };
    t.nodes.push(Node::new(pa));
    out.push(("table pointer at the leaf level", t));

    // A 2 MiB leaf in a level-2 slot; the policy allows no huge pages.
    let mut t = valid.clone();
    let (node, slot) = find_slot(&t, 2, is_empty);
    t.nodes[node].slots[slot] = Entry::Leaf(PhysFrame::from_pfn(0x800, PageSize::Size2M));
    t.mapped_pages += 1;
    out.push(("leaf above the leaf level", t));

    // A table pointer whose address is not its node's base.
    let mut t = valid.clone();
    let (node, slot) = find_slot(&t, 2, |e| matches!(e, Entry::Table { .. }));
    if let Entry::Table { pa, .. } = &mut t.nodes[node].slots[slot] {
        *pa = PhysAddr::new(pa.raw() + 0x1000);
    }
    out.push(("table address differs from node base", t));

    // A leaf whose frame number does not fit a slot word.
    let mut t = valid.clone();
    let (node, slot) = find_slot(&t, 1, |e| matches!(e, Entry::Leaf(_)));
    t.nodes[node].slots[slot] = Entry::Leaf(PhysFrame::from_pfn(1 << 60, PageSize::Size4K));
    out.push(("leaf frame number", t));
    out
}

/// A small checkpointed run: native page tables, no huge pages.
fn crafted_run_config() -> SimConfig {
    let mut cfg = SimConfig::new(
        WorkloadSpec::homogeneous("gups", BenchKind::Gups),
        TranslationScheme::CsaltCd,
    );
    cfg.system.cores = 2;
    cfg.virtualized = false;
    cfg.huge_fraction = 0.0;
    cfg.accesses_per_core = 3_000;
    cfg.warmup_accesses_per_core = 3_000;
    cfg.scale = 0.05;
    cfg
}

/// A fresh per-test directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("csalt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every crafted table decodes to `CkptError::Corrupt` — never a panic
/// in a later walk — and a run that finds it in its cache directory
/// counts a fallback, warms up cold and reproduces the cold run. The
/// same splice with the table unchanged restores, so each rejection is
/// the edit's doing and not the re-framing's.
#[test]
fn crafted_page_tables_fall_back_to_cold_warmup() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let cfg = crafted_run_config();
    let tmp = TempDir::new("crafted-tables");
    let (cold, restored) = run_in(&cfg, Some(&tmp.0));
    assert!(!restored, "a fresh directory has no image");
    let json = |r: &SimResult| serde_json::to_string(r).expect("result serializes");
    let path = std::fs::read_dir(&tmp.0)
        .expect("cache directory")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .expect("the cold run saved an image");
    let image = std::fs::read(&path).expect("read image");
    let (fp, payload) = unframe(&image);
    let (at, len, valid) = find_table(&payload, 4);

    let prefix = checkpoint::warmup_prefix_json(&cfg);
    let decode = |image: &[u8]| {
        let mut h = MemoryHierarchy::new(
            &cfg.system,
            cfg.scheme,
            cfg.virtualized,
            HugePagePolicy::NONE,
            cfg.profiler_interval,
        );
        for _ in 0..cfg.system.contexts_per_core {
            h.add_context();
        }
        let vms = cfg.system.contexts_per_core as usize;
        HierarchyCheckpoint::decode_for(image, &fp, &prefix, &mut h, 2, vms).map(|_| ())
    };

    let same = splice(&image, at, len, &valid);
    assert_eq!(same, image, "re-encoding the decoded table is the identity");
    for (what, table) in crafted_tables(&valid) {
        let bad = splice(&image, at, len, &table);
        assert_eq!(decode(&bad), Err(CkptError::Corrupt(what)), "{what}");
        std::fs::write(&path, &bad).expect("write crafted image");
        let before = checkpoint::stats();
        let (r, restored) = run_in(&cfg, Some(&tmp.0));
        let after = checkpoint::stats();
        assert!(!restored, "{what}: crafted image restored");
        assert_eq!(
            after.fallbacks - before.fallbacks,
            1,
            "{what}: no fallback counted"
        );
        assert_eq!(
            json(&r),
            json(&cold),
            "{what}: fallback differs from the cold run"
        );
    }
    std::fs::write(&path, &image).expect("restore the saved image");
    let (r, restored) = run_in(&cfg, Some(&tmp.0));
    assert!(restored, "the untouched image restores");
    assert_eq!(json(&r), json(&cold));
}

/// Image names carry only the 64-bit warmup key, so a colliding key
/// would put one prefix's image under another's name. Copying a real
/// image under a config of another seed (same shape) plays that out:
/// the run rejects it on the warmup prefix its META section records,
/// counts a fallback and reproduces its own cold run.
#[test]
fn an_image_under_another_configs_name_falls_back() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let saved_for = crafted_run_config();
    let cfg = SimConfig {
        seed: saved_for.seed ^ 1,
        ..saved_for.clone()
    };
    let tmp = TempDir::new("foreign-image");
    let (_, restored) = run_in(&saved_for, Some(&tmp.0));
    assert!(!restored, "a fresh directory has no image");
    let image = std::fs::read_dir(&tmp.0)
        .expect("cache directory")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "bin"))
        .expect("the cold run saved an image");
    let name = format!(
        "ckpt-{}-{}.bin",
        csalt::sim::sweep::engine_fingerprint(),
        checkpoint::warmup_key(&cfg)
    );
    std::fs::copy(&image, tmp.0.join(name)).expect("copy the image");

    let before = checkpoint::stats();
    let (r, restored) = run_in(&cfg, Some(&tmp.0));
    let after = checkpoint::stats();
    assert!(!restored, "another config's image restored");
    assert_eq!(after.fallbacks - before.fallbacks, 1, "no fallback counted");
    assert_eq!(after.restores, before.restores);
    let json = |r: &SimResult| serde_json::to_string(r).expect("result serializes");
    assert_eq!(json(&r), json(&run_in(&cfg, None).0));
}

/// Payload offsets sampled per image by the mutation test.
const MUTATION_OFFSETS: usize = 20;

/// Damaged payload words, re-framed under a valid checksum so they get
/// past the framing checks and into the component decoders, must
/// decode to an error or to a hierarchy that keeps running: no decoder
/// panics, and no state it accepts makes a later access panic. Each
/// image's sample of offsets is spread evenly over the payload, and
/// every sampled byte is flipped with three masks.
#[test]
fn mutated_payloads_never_panic() {
    let cfg = small_config();
    // New lines of the pages the image's stream mapped: translation
    // mostly hits, while the caches fill and evict.
    let stream: Vec<(u64, usize, bool)> = (0..3_000)
        .map(|i: u64| {
            (
                ((i % 600) * 0x1_013 + 1 + i / 600) << 6,
                (i % 4) as usize,
                i.is_multiple_of(3),
            )
        })
        .collect();
    for scheme in [
        TranslationScheme::CsaltCd,
        TranslationScheme::TsbCsalt,
        TranslationScheme::Drrip,
    ] {
        let (fp, payload) = unframe(&scheme_image(scheme));
        let mut decoded = 0;
        for k in 0..MUTATION_OFFSETS {
            let at = (k * payload.len() + payload.len() / 2) / MUTATION_OFFSETS;
            for mask in [0x01u8, 0x80, 0xff] {
                let mut damaged = payload.clone();
                damaged[at] ^= mask;
                let image = reframe(&damaged, &fp);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    let mut h = hier(&cfg, scheme, true);
                    let ctxs: Vec<_> = (0..2).map(|_| h.add_context()).collect();
                    let ok = HierarchyCheckpoint::decode_into(&image, &fp, &mut h, 2, 2).is_ok();
                    if ok {
                        replay(&mut h, 2, &ctxs, &stream);
                    }
                    ok
                }));
                match outcome {
                    Ok(ok) => decoded += usize::from(ok),
                    Err(_) => panic!("{scheme:?}: payload byte {at} ^ {mask:#04x} panicked"),
                }
            }
        }
        assert!(decoded > 0, "{scheme:?}: no damaged image decoded");
    }
}
