//! Trace recording and replay.
//!
//! The paper drives its simulator from Pin traces; this module gives the
//! reproduction the same capability: any [`TraceGenerator`]'s stream can
//! be recorded to a compact binary file and replayed later, and traces
//! converted from real instrumentation tools (Pin, DynamoRIO, QEMU
//! plugins) can be fed to the simulator by writing this format.
//!
//! # Format
//!
//! Little-endian, version 2: a 32-byte header (magic `"CSLT"`,
//! `version = 2: u32`, `record count: u64`, `asid: u16`, 14 reserved
//! zero bytes) followed by fixed-width 32-byte records of four `u64`
//! words: `vaddr`, `gap << 1 | is_write`, `packed_4k`, `packed_2m` —
//! an access plus its precomputed
//! [`csalt_types::TranslationHint`]. Replay pops records with **zero key
//! packing**: the TLB lookup keys were precomputed at record time for
//! the header's ASID (they are a pure function of `(vaddr, asid)`), and
//! [`TraceFile::restage`] recomputes them in one bulk pass if a run
//! replays under a different ASID. Records are 32-byte aligned so the
//! whole-file read decodes at memory bandwidth.
//!
//! Files are written through a `BufWriter` and opened with one
//! whole-file read (`mmap`-style: a single contiguous image, decoded in
//! one pass). The header's record count is validated against the file
//! length **before** any allocation, so a garbage header cannot trigger
//! a huge reservation and a torn tail is rejected as `InvalidData`
//! rather than a short-read surprise mid-parse.
//!
//! # Example
//!
//! ```no_run
//! use csalt_workloads::{BenchKind, TraceFile, TraceGenerator};
//! use csalt_types::Asid;
//!
//! # fn main() -> std::io::Result<()> {
//! let mut gups = BenchKind::Gups.build(1, 0.1);
//! TraceFile::record_v2("gups.trace", gups.as_mut(), 100_000, Asid::new(1))?;
//!
//! let mut replay = TraceFile::open("gups.trace")?;
//! let (first, keys) = replay.next_staged();
//! # let _ = (first, keys);
//! # Ok(())
//! # }
//! ```

use crate::gen::TraceGenerator;
use csalt_types::{AccessType, Asid, MemAccess, TranslationHint, VirtAddr};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"CSLT";
const V2: u32 = 2;
const V2_HEADER_BYTES: usize = 32;
const V2_RECORD_BYTES: usize = 32;

/// A recorded trace replayed as a [`TraceGenerator`].
///
/// Replay loops: when the recorded stream is exhausted it restarts from
/// the beginning, so a finite file can drive an arbitrarily long
/// simulation (matching how the paper replays finite Pin traces).
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Wire words per record: `vaddr`, `gap << 1 | is_write`, and (for
    /// staged traces) the two packed TLB keys. Shared behind an `Arc`
    /// so cloning a trace for replay is a cursor copy, not a buffer
    /// copy; `restage` for a new ASID is the only copy-on-write.
    records: std::sync::Arc<Vec<[u64; 4]>>,
    /// Whether words 2/3 hold valid packed keys (opened files, or after
    /// [`TraceFile::restage`]).
    staged: bool,
    /// The ASID the packed keys were computed under (meaningful only
    /// when `staged`).
    asid: u16,
    pos: usize,
    footprint: u64,
}

/// Exclusive bound on a record's vaddr: 57 bits, the widest (5-level)
/// virtual address space the page tables index.
const VADDR_LIMIT: u64 = 1 << 57;

/// `InvalidData` error with a formatted message.
fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl TraceFile {
    /// Records `count` accesses from `generator` into `path` in the v2
    /// (32-byte, staged) format: each record carries the packed TLB
    /// keys for `asid`, so replay skips key packing entirely.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn record_v2<P: AsRef<Path>>(
        path: P,
        generator: &mut dyn TraceGenerator,
        count: u64,
        asid: Asid,
    ) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(MAGIC)?;
        w.write_all(&V2.to_le_bytes())?;
        w.write_all(&count.to_le_bytes())?;
        w.write_all(&asid.raw().to_le_bytes())?;
        w.write_all(&[0u8; 14])?;
        for _ in 0..count {
            let a = generator.next_access();
            let hint = TranslationHint::compute(a.vaddr, asid);
            for word in encode_words(&a, Some(&hint)) {
                w.write_all(&word.to_le_bytes())?;
            }
        }
        w.flush()
    }

    /// Opens and fully loads a recorded (v2) trace. The file is read in
    /// one contiguous image and its length is validated against the
    /// header's record count before anything is allocated. Any other
    /// version, the retired 13-byte v1 format included, is rejected.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the header or record framing is wrong
    /// (bad magic, any version but 2, length/count mismatch, torn tail),
    /// if any record's vaddr is at or above 2^57 (past the 5-level
    /// address space, and past what a packed TLB key holds), if any
    /// record's gap word has bits above the 32-bit gap and the write
    /// bit (replay would drop them), if any record's packed TLB keys
    /// are not the ones its vaddr packs to under the header's ASID
    /// (replay would probe the TLBs with them), or any underlying I/O
    /// error.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        if bytes.len() < 8 || &bytes[0..4] != MAGIC {
            return Err(bad("bad magic"));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != V2 {
            return Err(bad(format!("unsupported trace version {version}")));
        }
        if bytes.len() < V2_HEADER_BYTES {
            return Err(bad(format!("truncated header: {} bytes", bytes.len())));
        }
        let count = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        if count == 0 {
            return Err(bad("empty trace"));
        }
        // Validate declared count against actual length before the
        // records vector is sized from it: a corrupt count must not
        // drive the allocator, and a torn tail must fail loudly.
        let expected = count
            .checked_mul(V2_RECORD_BYTES as u64)
            .and_then(|body| body.checked_add(V2_HEADER_BYTES as u64));
        if expected != Some(bytes.len() as u64) {
            return Err(bad(format!(
                "file length {} does not match header: {count} records of \
                 {V2_RECORD_BYTES} bytes after a {V2_HEADER_BYTES}-byte header",
                bytes.len()
            )));
        }
        let asid = u16::from_le_bytes(bytes[16..18].try_into().expect("2 bytes"));
        if bytes[18..32].iter().any(|&b| b != 0) {
            return Err(bad("reserved header bytes must be zero"));
        }

        let mut records = Vec::with_capacity(count as usize);
        let mut max_addr = 0u64;
        for (i, chunk) in bytes[V2_HEADER_BYTES..]
            .chunks_exact(V2_RECORD_BYTES)
            .enumerate()
        {
            let word = |w: usize| {
                u64::from_le_bytes(chunk[w * 8..(w + 1) * 8].try_into().expect("8 bytes"))
            };
            let rec = [word(0), word(1), word(2), word(3)];
            if rec[0] >= VADDR_LIMIT {
                return Err(bad(format!(
                    "record {i}: vaddr {:#x} is not below 2^57, the widest \
                     (5-level) virtual address space",
                    rec[0]
                )));
            }
            if rec[1] >> 33 != 0 {
                return Err(bad(format!(
                    "record {i}: gap word {:#x} does not fit a 32-bit gap and a write bit",
                    rec[1]
                )));
            }
            let hint = TranslationHint::compute(VirtAddr::new(rec[0]), Asid::new(asid));
            if [rec[2], rec[3]] != [hint.packed_4k, hint.packed_2m] {
                return Err(bad(format!(
                    "record {i}: packed TLB keys do not match vaddr {:#x} under ASID {asid}",
                    rec[0]
                )));
            }
            max_addr = max_addr.max(rec[0]);
            records.push(rec);
        }
        Ok(Self {
            records: std::sync::Arc::new(records),
            staged: true,
            asid,
            pos: 0,
            footprint: max_addr + 1,
        })
    }

    /// Builds a replay generator from in-memory records — accesses
    /// captured by a harness or test rather than loaded from disk. The
    /// result is unstaged; call [`TraceFile::restage`] to precompute
    /// keys.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty: the replay loop needs at least one
    /// record (a valid trace file can never be empty either).
    pub fn from_records(records: Vec<MemAccess>) -> Self {
        assert!(!records.is_empty(), "replay needs at least one record");
        let mut max_addr = 0u64;
        let records: Vec<[u64; 4]> = records
            .into_iter()
            .map(|a| {
                max_addr = max_addr.max(a.vaddr.raw());
                encode_words(&a, None)
            })
            .collect();
        Self {
            records: std::sync::Arc::new(records),
            staged: false,
            asid: 0,
            pos: 0,
            footprint: max_addr + 1,
        }
    }

    /// Recomputes the packed TLB keys of every record for `asid` in one
    /// bulk pass. Replay under a different ASID than the trace was
    /// recorded for stays zero-repack per access: the cost is paid once
    /// here, not in the hot loop.
    pub fn restage(&mut self, asid: Asid) {
        if self.staged && self.asid == asid.raw() {
            return;
        }
        for rec in std::sync::Arc::make_mut(&mut self.records).iter_mut() {
            let hint = TranslationHint::compute(VirtAddr::new(rec[0]), asid);
            rec[2] = hint.packed_4k;
            rec[3] = hint.packed_2m;
        }
        self.staged = true;
        self.asid = asid.raw();
    }

    /// Whether every record carries valid packed TLB keys.
    #[must_use]
    pub fn is_staged(&self) -> bool {
        self.staged
    }

    /// Whether the records' packed keys were computed for `asid` — the
    /// precondition for [`TraceFile::next_staged`] feeding a context
    /// translating under that ASID.
    #[must_use]
    pub fn is_staged_for(&self, asid: Asid) -> bool {
        self.staged && self.asid == asid.raw()
    }

    /// The ASID the staged keys were packed under, if staged.
    #[must_use]
    pub fn asid(&self) -> Option<Asid> {
        self.staged.then(|| Asid::new(self.asid))
    }

    /// The next record with its prepacked TLB keys — the zero-repack
    /// replay path. Wraps like [`TraceGenerator::next_access`].
    ///
    /// # Panics
    ///
    /// Debug builds panic if the trace is not staged; release builds
    /// would silently return empty keys, so callers must check
    /// [`TraceFile::is_staged_for`] when planning replay.
    #[inline]
    pub fn next_staged(&mut self) -> (MemAccess, TranslationHint) {
        debug_assert!(self.staged, "next_staged on an unstaged trace");
        let rec = self.records[self.pos];
        self.pos = (self.pos + 1) % self.records.len();
        (
            decode_access(&rec),
            TranslationHint {
                packed_4k: rec[2],
                packed_2m: rec[3],
            },
        )
    }

    /// Advances the replay cursor by `n` records in O(1) — exactly what
    /// `n` calls to [`TraceFile::next_staged`] would do to the cursor,
    /// with the same wrap-around, but without touching the records.
    /// Checkpoint restore uses this to fast-forward a stream past a
    /// warmup prefix that was never re-simulated.
    pub fn skip(&mut self, n: u64) {
        let len = self.records.len() as u64;
        self.pos = ((self.pos as u64 + n % len) % len) as usize;
    }

    /// Number of recorded accesses.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if no records are loaded (never true for a valid file).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Packs one access (and optionally its keys) into the four-word record.
fn encode_words(a: &MemAccess, hint: Option<&TranslationHint>) -> [u64; 4] {
    [
        a.vaddr.raw(),
        (u64::from(a.gap) << 1) | u64::from(a.ty.is_write()),
        hint.map_or(0, |h| h.packed_4k),
        hint.map_or(0, |h| h.packed_2m),
    ]
}

/// Decodes the access half of a record (words 0 and 1).
#[inline]
fn decode_access(rec: &[u64; 4]) -> MemAccess {
    MemAccess {
        vaddr: VirtAddr::new(rec[0]),
        ty: if rec[1] & 1 == 1 {
            AccessType::Write
        } else {
            AccessType::Read
        },
        gap: (rec[1] >> 1) as u32,
    }
}

impl TraceGenerator for TraceFile {
    fn next_access(&mut self) -> MemAccess {
        let rec = self.records[self.pos];
        self.pos = (self.pos + 1) % self.records.len();
        decode_access(&rec)
    }

    fn name(&self) -> &'static str {
        "trace-file"
    }

    fn footprint_bytes(&self) -> u64 {
        self.footprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::BenchKind;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("csalt-trace-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn record_then_replay_is_identical() {
        let path = tmp("roundtrip");
        let mut gen_a = BenchKind::Gups.build(11, 0.05);
        TraceFile::record_v2(&path, gen_a.as_mut(), 5_000, Asid::new(1)).expect("record");

        let mut replay = TraceFile::open(&path).expect("open");
        assert_eq!(replay.len(), 5_000);
        assert!(replay.is_staged());
        let mut gen_b = BenchKind::Gups.build(11, 0.05);
        for _ in 0..5_000 {
            assert_eq!(replay.next_access(), gen_b.next_access());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_record_then_replay_matches_fields_and_keys() {
        let path = tmp("v2-roundtrip");
        let asid = Asid::new(3);
        let mut gen_a = BenchKind::Graph500.build(5, 0.05);
        TraceFile::record_v2(&path, gen_a.as_mut(), 3_000, asid).expect("record");

        let mut replay = TraceFile::open(&path).expect("open");
        assert_eq!(replay.len(), 3_000);
        assert!(replay.is_staged_for(asid));
        assert_eq!(replay.asid(), Some(asid));
        let mut gen_b = BenchKind::Graph500.build(5, 0.05);
        for _ in 0..3_000 {
            let (acc, hint) = replay.next_staged();
            let want = gen_b.next_access();
            assert_eq!(acc, want);
            assert_eq!(hint, TranslationHint::compute(want.vaddr, asid));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restage_changes_keys_with_asid() {
        let mut t = TraceFile::from_records(vec![MemAccess {
            vaddr: VirtAddr::new(0x7000_1000),
            ty: AccessType::Write,
            gap: 4,
        }]);
        t.restage(Asid::new(1));
        let (_, k1) = t.next_staged();
        t.restage(Asid::new(2));
        let (acc, k2) = t.next_staged();
        assert_ne!(k1, k2, "keys embed the ASID");
        assert_eq!(k2, TranslationHint::compute(acc.vaddr, Asid::new(2)));
        assert!(t.is_staged_for(Asid::new(2)));
        assert!(!t.is_staged_for(Asid::new(1)));
    }

    #[test]
    fn replay_wraps_around() {
        let path = tmp("wrap");
        let mut g = BenchKind::Canneal.build(2, 0.05);
        TraceFile::record_v2(&path, g.as_mut(), 10, Asid::new(1)).expect("record");
        let mut replay = TraceFile::open(&path).expect("open");
        let first: Vec<_> = (0..10).map(|_| replay.next_access()).collect();
        let second: Vec<_> = (0..10).map(|_| replay.next_access()).collect();
        assert_eq!(first, second, "replay loops the file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_files_are_rejected() {
        // A well-formed file of the retired v1 format: a 16-byte header
        // and one 13-byte `(vaddr, gap, is_write)` record.
        let path = tmp("v1");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0x1000u64.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.push(0);
        std::fs::write(&path, &bytes).expect("write");
        let err = TraceFile::open(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOPE0000000000000000").expect("write");
        let err = TraceFile::open(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let path = tmp("trunc");
        let mut g = BenchKind::Gups.build(1, 0.05);
        TraceFile::record_v2(&path, g.as_mut(), 100, Asid::new(1)).expect("record");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 5]).expect("truncate");
        assert!(TraceFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_v2_tail_is_rejected_with_clear_error() {
        let path = tmp("torn-v2");
        let mut g = BenchKind::Gups.build(4, 0.05);
        TraceFile::record_v2(&path, g.as_mut(), 50, Asid::new(1)).expect("record");
        let bytes = std::fs::read(&path).expect("read");
        // Tear the last record in half.
        std::fs::write(&path, &bytes[..bytes.len() - 16]).expect("tear");
        let err = TraceFile::open(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("does not match header"),
            "explains the mismatch: {err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_count_does_not_drive_allocation() {
        // A header declaring u64::MAX records must be rejected by the
        // length check, never by an allocator blow-up.
        let path = tmp("hugecount");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&V2.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        std::fs::write(&path, &bytes).expect("write");
        let err = TraceFile::open(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nonzero_reserved_header_bytes_are_rejected() {
        let path = tmp("reserved");
        let mut g = BenchKind::Gups.build(4, 0.05);
        TraceFile::record_v2(&path, g.as_mut(), 5, Asid::new(1)).expect("record");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[25] = 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let err = TraceFile::open(&path).expect_err("must fail");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vaddrs_past_57_bits_are_rejected() {
        for (va, ok) in [((1 << 57) - 1, true), (1 << 57, false), (u64::MAX, false)] {
            let path = tmp("wide-vaddr");
            let mut t = TraceFile::from_records(vec![MemAccess::read(VirtAddr::new(0x1000), 4)]);
            TraceFile::record_v2(&path, &mut t, 1, Asid::new(1)).expect("record");
            // Patch the one record's vaddr word, past the header, and
            // (for an address keys can pack) its keys to match it.
            let mut bytes = std::fs::read(&path).expect("read");
            let mut patch = |word: usize, v: u64| {
                let at = V2_HEADER_BYTES + 8 * word;
                bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            };
            patch(0, va);
            if ok {
                let hint = TranslationHint::compute(VirtAddr::new(va), Asid::new(1));
                patch(2, hint.packed_4k);
                patch(3, hint.packed_2m);
            }
            std::fs::write(&path, &bytes).expect("write");
            let opened = TraceFile::open(&path);
            std::fs::remove_file(&path).ok();
            match opened {
                Ok(_) => assert!(ok, "{va:#x} must be rejected"),
                Err(e) => {
                    assert!(!ok, "{va:#x} must open: {e}");
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                }
            }
        }
    }

    /// A gap word with a bit above the 32-bit gap and the write bit is
    /// rejected: decoding would silently drop it.
    #[test]
    fn gap_words_past_33_bits_are_rejected() {
        for (word, ok) in [((1 << 33) - 1, true), (1 << 33, false), (1 << 63, false)] {
            let path = tmp("wide-gap");
            let mut t = TraceFile::from_records(vec![MemAccess::read(VirtAddr::new(0x1000), 4)]);
            TraceFile::record_v2(&path, &mut t, 1, Asid::new(1)).expect("record");
            let mut bytes = std::fs::read(&path).expect("read");
            let at = V2_HEADER_BYTES + 8;
            bytes[at..at + 8].copy_from_slice(&u64::to_le_bytes(word));
            std::fs::write(&path, &bytes).expect("write");
            let opened = TraceFile::open(&path);
            std::fs::remove_file(&path).ok();
            match opened {
                Ok(mut t) => {
                    assert!(ok, "{word:#x} must be rejected");
                    assert_eq!(t.next_access().gap, u32::MAX);
                }
                Err(e) => {
                    assert!(!ok, "{word:#x} must open: {e}");
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                }
            }
        }
    }

    /// A record whose stored keys are not the ones its vaddr packs to
    /// under the header's ASID is rejected: replay would hand those keys
    /// to the TLBs as the access's translation hint.
    #[test]
    fn records_with_stale_packed_keys_are_rejected() {
        let path = tmp("stale-keys");
        let mut g = BenchKind::Gups.build(3, 0.05);
        TraceFile::record_v2(&path, g.as_mut(), 500, Asid::new(1)).expect("record");
        let clean = std::fs::read(&path).expect("read");
        assert!(TraceFile::open(&path).is_ok(), "the recorded file opens");
        for word in [2, 3] {
            let mut bytes = clean.clone();
            for rec in (0..500).step_by(10) {
                // Bit 20 of the packed key: inside the page number.
                bytes[V2_HEADER_BYTES + rec * V2_RECORD_BYTES + 8 * word + 2] ^= 0x10;
            }
            std::fs::write(&path, &bytes).expect("write");
            let err = TraceFile::open(&path).expect_err("stale keys must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        // The same file claiming another ASID: every key is stale.
        let mut bytes = clean;
        bytes[16..18].copy_from_slice(&2u16.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        let opened = TraceFile::open(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(
            opened.expect_err("keys of another ASID").kind(),
            io::ErrorKind::InvalidData
        );
    }

    use proptest::prelude::*;

    proptest! {
        /// Every field combination a record can carry — any vaddr below
        /// 2^57 (the widest address space `open` accepts), full-width
        /// gap, either access type, any ASID —
        /// survives the record → open round-trip bit-exactly, keys
        /// included.
        #[test]
        fn v2_roundtrip_preserves_arbitrary_records(
            fields in prop::collection::vec(
                (0u64..1 << 57, any::<u32>(), any::<bool>()),
                1..64,
            ),
            asid_raw in 1u16..512,
        ) {
            let records: Vec<MemAccess> = fields
                .iter()
                .map(|&(va, gap, write)| MemAccess {
                    vaddr: VirtAddr::new(va),
                    ty: if write { AccessType::Write } else { AccessType::Read },
                    gap,
                })
                .collect();
            let asid = Asid::new(asid_raw);
            let mut t = TraceFile::from_records(records.clone());
            let path = tmp("prop-v2");
            TraceFile::record_v2(&path, &mut t, records.len() as u64, asid).expect("record");
            let reopened = TraceFile::open(&path);
            std::fs::remove_file(&path).ok();
            let mut r = reopened.expect("open");
            prop_assert_eq!(r.len(), records.len());
            prop_assert!(r.is_staged_for(asid));
            for want in &records {
                let (acc, hint) = r.next_staged();
                prop_assert_eq!(acc, *want);
                prop_assert_eq!(hint, TranslationHint::compute(want.vaddr, asid));
            }
        }
    }

    #[test]
    fn footprint_reflects_max_address() {
        let path = tmp("footprint");
        let mut g = BenchKind::Gups.build(1, 0.05);
        TraceFile::record_v2(&path, g.as_mut(), 1000, Asid::new(1)).expect("record");
        let replay = TraceFile::open(&path).expect("open");
        assert!(replay.footprint_bytes() > 0x1000_0000_0000);
        std::fs::remove_file(&path).ok();
    }
}
