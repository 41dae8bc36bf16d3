//! Checkpoint serialization primitives: a versioned, fixed-width,
//! length-validated binary format for `HierarchyCheckpoint` images.
//!
//! The framing mirrors the staged-trace v2 file format: an 8-byte
//! magic, a `u32` version, a length-prefixed engine-fingerprint
//! string, a `u64` payload length, the payload itself, and a trailing
//! [`image_checksum`] over everything before it. Every length is
//! validated against the remaining bytes *before* any allocation, so
//! a torn tail or garbage header is rejected with a [`CkptError`]
//! instead of an OOM or a panic — callers treat any error as "no
//! checkpoint" and fall back to a cold run.
//!
//! The payload is a flat sequence of little-endian integers organized
//! into tagged, length-framed sections (one per component). Floating
//! point values never appear in the format: the few `f64` fields in
//! simulator state are stored as `f64::to_bits` words by the callers,
//! keeping this module integer-only.
//!
//! Fixed-shape arrays decode in place: [`CkptReader::fill_u64`] and
//! [`CkptReader::fill_u8`] write straight into the owning component's
//! slice, visiting only the elements the presence bitmap marks, so a
//! restore allocates no temporary copy of a multi-megabyte array. A
//! component that stores its array sparsely decodes through
//! [`CkptReader::visit_u64`] instead, which hands it each present
//! `(index, word)` and needs no dense slice at all.

use std::fmt;

/// File magic for checkpoint images.
pub const CKPT_MAGIC: [u8; 8] = *b"CSALTCKP";

/// Current checkpoint format version. Bumped whenever any section
/// layout changes; older images are rejected (fall back to cold run).
/// Version 2 replaced the byte-wise FNV-1a trailer with
/// [`image_checksum`] and the POM-TLB's separate frame-number and
/// size-code arrays with one array of packed frame words.
pub const CKPT_VERSION: u32 = 2;

/// FNV-1a offset basis (matches the sweep cache's key hash).
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice: the sweep's cache and warmup keys hash
/// with it.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    let mut h = FNV_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Odd multiplier of the checksum lanes (2^64 / golden ratio).
const LANE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One checksum lane step. For a fixed lane state it is a bijection of
/// the word, and for a fixed word a bijection of the state, so two
/// inputs that differ in one word always leave different lane states.
#[inline]
fn lane(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(LANE_MUL).rotate_left(31)
}

/// The trailing checksum of a checkpoint image: four independent lanes,
/// each taking every fourth little-endian 8-byte word (the last word
/// zero-padded), folded together with the byte length and finished with
/// the MurmurHash3 64-bit mixer. The lanes keep four multiplies in
/// flight, so a multi-megabyte image sums in well under a millisecond,
/// where byte-wise FNV-1a took several; every step is invertible, so a
/// change confined to one word is always detected.
pub fn image_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_BASIS,
        FNV_BASIS ^ LANE_MUL,
        FNV_BASIS.rotate_left(16),
        FNV_BASIS.rotate_left(32),
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (h, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *h = lane(*h, u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
    }
    for (h, w) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        *h = lane(*h, u64::from_le_bytes(word));
    }
    let mut h = (bytes.len() as u64).wrapping_mul(LANE_MUL);
    for l in lanes {
        h = lane(h, l);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ h >> 33
}

/// Why a checkpoint image was rejected. Every variant means the same
/// thing to callers — ignore the file and run cold — but the variants
/// are distinguished for tests and telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The first 8 bytes are not [`CKPT_MAGIC`].
    BadMagic,
    /// The version word is not [`CKPT_VERSION`].
    BadVersion(u32),
    /// The embedded engine fingerprint does not match the running
    /// engine — the image was written by different code.
    StaleFingerprint,
    /// The file ends before a declared length is satisfied (torn
    /// write), or a declared length exceeds the bytes present.
    Truncated,
    /// The trailing [`image_checksum`] does not match the content.
    BadChecksum,
    /// Structurally well-formed but internally inconsistent (bad
    /// section tag, unconsumed section bytes, invalid enum tag).
    Corrupt(&'static str),
    /// The restored state does not match the receiving component's
    /// configured geometry (e.g. way count or set count differs).
    Mismatch(&'static str),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "checkpoint: bad magic"),
            CkptError::BadVersion(v) => write!(f, "checkpoint: unsupported version {v}"),
            CkptError::StaleFingerprint => write!(f, "checkpoint: stale engine fingerprint"),
            CkptError::Truncated => write!(f, "checkpoint: truncated image"),
            CkptError::BadChecksum => write!(f, "checkpoint: checksum mismatch"),
            CkptError::Corrupt(what) => write!(f, "checkpoint: corrupt image ({what})"),
            CkptError::Mismatch(what) => write!(f, "checkpoint: geometry mismatch ({what})"),
        }
    }
}

impl std::error::Error for CkptError {}

/// Builder for a checkpoint image: accumulates the payload, then
/// [`CkptWriter::finish`] wraps it in the header and checksum.
#[derive(Debug, Default)]
pub struct CkptWriter {
    buf: Vec<u8>,
}

impl CkptWriter {
    /// New writer with an empty payload.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn len64(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a length-prefixed byte slice (`u64` count + raw bytes).
    pub fn bytes(&mut self, v: &[u8]) {
        self.len64(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed `u64` slice in sparse form: a `u64`
    /// element count, a presence bitmap (bit i set iff `v[i] != 0`,
    /// `ceil(n / 8)` bytes), then only the nonzero words in order.
    /// Checkpoint arrays are dominated by empty slots (untouched
    /// DRAM-TLB entries, invalid cache lines), so this shrinks images
    /// by more than an order of magnitude while dense arrays pay only
    /// a 1/64 size overhead.
    pub fn slice_u64(&mut self, v: &[u64]) {
        self.iter_u64(v.len(), v.iter().copied());
    }

    /// Streaming form of [`CkptWriter::slice_u64`]: encodes `n` words
    /// from an iterator in one pass, so callers can map large arrays —
    /// sentinel-XOR'd keys, cache tags — without collecting an
    /// intermediate vector.
    ///
    /// # Panics
    ///
    /// Panics if the iterator does not yield exactly `n` items.
    pub fn iter_u64<I: Iterator<Item = u64>>(&mut self, n: usize, values: I) {
        self.sparse(n, values, u64::to_le_bytes);
    }

    /// [`CkptWriter::slice_u64`] for an `n`-word array that is zero
    /// outside the runs `present` yields as `(start, words)`, in
    /// increasing order. It writes the same bytes as `slice_u64` over
    /// the whole array, but its cost follows the runs: the bitmap starts
    /// zeroed and only the runs' words are visited.
    ///
    /// # Panics
    ///
    /// Panics if a run starts before the previous one ends or reaches
    /// past `n`.
    pub fn runs_u64<'r>(
        &mut self,
        n: usize,
        present: impl IntoIterator<Item = (usize, &'r [u64])>,
    ) {
        self.len64(n);
        let bm = self.buf.len();
        self.buf.resize(bm + n.div_ceil(8), 0);
        let mut end = 0;
        for (start, words) in present {
            assert!(
                start >= end && start + words.len() <= n,
                "runs overlap or reach past the array"
            );
            for (i, &w) in (start..).zip(words) {
                if w != 0 {
                    self.buf[bm + i / 8] |= 1 << (i % 8);
                    self.buf.extend_from_slice(&w.to_le_bytes());
                }
            }
            end = start + words.len();
        }
    }

    /// Append a length-prefixed `u8` slice in sparse form (same scheme
    /// as [`CkptWriter::slice_u64`]: count, presence bitmap, nonzero
    /// bytes). For the mostly-zero code arrays (cache line kinds, dirty
    /// bits, page-table slot tags) this stores ~1 bit per empty slot
    /// instead of a byte.
    pub fn slice_u8(&mut self, v: &[u8]) {
        self.iter_u8(v.len(), v.iter().copied());
    }

    /// Streaming form of [`CkptWriter::slice_u8`] (see
    /// [`CkptWriter::iter_u64`]).
    ///
    /// # Panics
    ///
    /// Panics if the iterator does not yield exactly `n` items.
    pub fn iter_u8<I: Iterator<Item = u8>>(&mut self, n: usize, values: I) {
        self.sparse(n, values, |b| [b]);
    }

    /// The sparse encoding behind [`CkptWriter::iter_u64`] and
    /// [`CkptWriter::iter_u8`], eight values (one bitmap byte) at a
    /// time: every value is staged at the stage cursor, which advances
    /// only past nonzero ones, so the loop has no data-dependent branch;
    /// a group with any value present is then appended as one
    /// fixed-size copy and trimmed to the present values. The buffer is
    /// reserved up front for the bitmap and every value being present,
    /// so it never reallocates inside the array.
    fn sparse<T, const W: usize, I>(&mut self, n: usize, mut values: I, bytes: fn(T) -> [u8; W])
    where
        T: Copy + Default + PartialEq,
        I: Iterator<Item = T>,
    {
        self.len64(n);
        let bm = self.buf.len();
        let bitmap_len = n.div_ceil(8);
        self.buf
            .reserve(bitmap_len + n.saturating_mul(W).saturating_add(8 * W));
        self.buf.resize(bm + bitmap_len, 0);
        let mut staged = [[0u8; W]; 8];
        for b in 0..bitmap_len {
            let mut byte = 0u8;
            let mut count = 0;
            for i in 0..(n - 8 * b).min(8) {
                let v = values.next().expect("sparse array yielded too few items");
                staged[count] = bytes(v);
                let present = v != T::default();
                byte |= u8::from(present) << i;
                count += usize::from(present);
            }
            self.buf[bm + b] = byte;
            if byte != 0 {
                let end = self.buf.len() + count * W;
                self.buf.extend_from_slice(staged.as_flattened());
                self.buf.truncate(end);
            }
        }
        assert!(
            values.next().is_none(),
            "sparse array yielded more than {n} items"
        );
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Open a tagged section: writes the tag and a placeholder length,
    /// returning a mark for [`CkptWriter::end_section`].
    pub fn begin_section(&mut self, tag: u32) -> usize {
        self.u32(tag);
        self.u64(0); // placeholder, patched by end_section
        self.buf.len()
    }

    /// Close a section opened at `mark`, patching its byte length.
    pub fn end_section(&mut self, mark: usize) {
        let len = (self.buf.len() - mark) as u64;
        self.buf[mark - 8..mark].copy_from_slice(&len.to_le_bytes());
    }

    /// Assemble the final image: header (magic, version, fingerprint,
    /// payload length), payload, and trailing checksum. The header is
    /// inserted in front of the payload in the same buffer, so a
    /// multi-megabyte image is never held twice.
    pub fn finish(self, fingerprint: &str) -> Vec<u8> {
        let fp = fingerprint.as_bytes();
        let mut header = Vec::with_capacity(8 + 4 + 4 + fp.len() + 8);
        header.extend_from_slice(&CKPT_MAGIC);
        header.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        header.extend_from_slice(&(fp.len() as u32).to_le_bytes());
        header.extend_from_slice(fp);
        header.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        let mut out = self.buf;
        out.reserve_exact(header.len() + 8);
        out.splice(0..0, header);
        let sum = image_checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Cursor over a validated checkpoint image. [`CkptReader::open`]
/// checks magic, version, fingerprint, payload length, and checksum
/// before handing out a reader positioned at the payload start.
#[derive(Debug)]
pub struct CkptReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> CkptReader<'a> {
    /// Validate the image header and checksum against the running
    /// engine's fingerprint; on success the reader covers the payload.
    ///
    /// Validation order: magic → version → fingerprint → declared
    /// payload length vs. bytes present → trailing checksum. Every
    /// length is checked against the remaining bytes before use.
    pub fn open(data: &'a [u8], expected_fingerprint: &str) -> Result<Self, CkptError> {
        // Fixed prefix: magic(8) + version(4) + fp_len(4).
        if data.len() < 16 {
            return Err(if data.len() >= 8 && data[..8] != CKPT_MAGIC {
                CkptError::BadMagic
            } else {
                CkptError::Truncated
            });
        }
        if data[..8] != CKPT_MAGIC {
            return Err(CkptError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != CKPT_VERSION {
            return Err(CkptError::BadVersion(version));
        }
        let fp_len = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
        // fp + payload_len word must fit before any slicing.
        if data.len() < 16 + fp_len + 8 {
            return Err(CkptError::Truncated);
        }
        let fp = &data[16..16 + fp_len];
        if fp != expected_fingerprint.as_bytes() {
            return Err(CkptError::StaleFingerprint);
        }
        let at = 16 + fp_len;
        let payload_len =
            u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes")) as usize;
        let payload_start = at + 8;
        // payload + trailing checksum(8) must be exactly the rest.
        let want = payload_start
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(8))
            .ok_or(CkptError::Truncated)?;
        if data.len() < want {
            return Err(CkptError::Truncated);
        }
        if data.len() != want {
            return Err(CkptError::Corrupt("trailing garbage after checksum"));
        }
        let body_end = payload_start + payload_len;
        let declared = u64::from_le_bytes(data[body_end..body_end + 8].try_into().expect("8"));
        if image_checksum(&data[..body_end]) != declared {
            return Err(CkptError::BadChecksum);
        }
        Ok(Self {
            payload: &data[payload_start..body_end],
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated)?;
        if end > self.payload.len() {
            return Err(CkptError::Truncated);
        }
        let s = &self.payload[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.payload.len() - self.pos
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    /// Read a `u32`.
    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a `u64` and convert to `usize`.
    pub fn len64(&mut self) -> Result<usize, CkptError> {
        usize::try_from(self.u64()?).map_err(|_| CkptError::Truncated)
    }

    /// Read a bool (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, CkptError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt("bool byte not 0/1")),
        }
    }

    /// Read a length-prefixed byte slice. The count is validated
    /// against the remaining bytes before any allocation.
    pub fn bytes(&mut self) -> Result<&'a [u8], CkptError> {
        let n = self.len64()?;
        if n > self.remaining() {
            return Err(CkptError::Truncated);
        }
        self.take(n)
    }

    /// Validates a sparse array's framing (see [`CkptWriter::slice_u64`])
    /// for values `width` bytes wide, returning its element count,
    /// presence bitmap and packed present values. The bitmap length —
    /// `ceil(count / 8)` — is checked against the remaining bytes
    /// before anything is read, then the value bytes the bitmap implies
    /// the same way, so a hostile count can never cause a large
    /// allocation or read.
    fn sparse(&mut self, width: usize) -> Result<(usize, &'a [u8], &'a [u8]), CkptError> {
        let n = self.len64()?;
        let bitmap_len = n.div_ceil(8);
        if bitmap_len > self.remaining() {
            return Err(CkptError::Truncated);
        }
        let bitmap = self.take(bitmap_len)?;
        let set: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
        let byte_len = set.checked_mul(width).ok_or(CkptError::Truncated)?;
        if byte_len > self.remaining() {
            return Err(CkptError::Truncated);
        }
        // Bits beyond the declared element count must be clear, or two
        // different images would decode to the same array.
        if n % 8 != 0 && bitmap[n / 8] >> (n % 8) != 0 {
            return Err(CkptError::Corrupt("bitmap bits past element count"));
        }
        Ok((n, bitmap, self.take(byte_len)?))
    }

    /// Read a sparse length-prefixed `u64` vector (see
    /// [`CkptWriter::slice_u64`] for the encoding). The allocation is
    /// bounded to 64x the bitmap bytes actually present. For arrays of
    /// a length the receiver already knows, [`CkptReader::fill_u64`]
    /// decodes in place instead.
    pub fn vec_u64(&mut self) -> Result<Vec<u64>, CkptError> {
        let (n, bitmap, raw) = self.sparse(8)?;
        let mut out = vec![0u64; n];
        scatter(bitmap, raw, &mut out, u64::from_le_bytes)?;
        Ok(out)
    }

    /// Read a sparse length-prefixed `u8` vector (see
    /// [`CkptWriter::slice_u8`]), with the same validate-before-allocate
    /// bounds as [`CkptReader::vec_u64`].
    pub fn vec_u8(&mut self) -> Result<Vec<u8>, CkptError> {
        let (n, bitmap, raw) = self.sparse(1)?;
        let mut out = vec![0u8; n];
        scatter(bitmap, raw, &mut out, |[b]| b)?;
        Ok(out)
    }

    /// Decode a sparse `u64` array straight into `dst`, which must have
    /// exactly the encoded length (else [`CkptError::Mismatch`]). It
    /// accepts and rejects exactly the images [`CkptReader::vec_u64`]
    /// does and leaves `dst` holding the words that would return; on
    /// an error `dst` may be partly overwritten.
    pub fn fill_u64(&mut self, dst: &mut [u64]) -> Result<(), CkptError> {
        let (n, bitmap, raw) = self.sparse(8)?;
        if n != dst.len() {
            return Err(CkptError::Mismatch("sparse array length"));
        }
        scatter(bitmap, raw, dst, u64::from_le_bytes)
    }

    /// Decode a sparse `u64` array of `n` elements without a destination
    /// slice: `visit(index, word)` receives each present (nonzero) word
    /// in index order. It accepts and rejects exactly the images
    /// [`CkptReader::fill_u64`] does into an `n`-element slice, so a
    /// receiver that stores its array sparsely restores only what the
    /// image holds. On an error `visit` may already have seen a prefix.
    pub fn visit_u64(
        &mut self,
        n: usize,
        mut visit: impl FnMut(usize, u64),
    ) -> Result<(), CkptError> {
        let (len, bitmap, raw) = self.sparse(8)?;
        if len != n {
            return Err(CkptError::Mismatch("sparse array length"));
        }
        // `sparse` has checked that `raw` holds one word per set bit and
        // that no bit lies past `n`.
        let mut values = raw.chunks_exact(8);
        for (group, bits) in bitmap.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..bits.len()].copy_from_slice(bits);
            let mut bits = u64::from_le_bytes(word);
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = values
                    .next()
                    .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                    .ok_or(CkptError::Truncated)?;
                if v == 0 {
                    return Err(CkptError::Corrupt("zero value marked present"));
                }
                visit(group * 64 + i, v);
            }
        }
        Ok(())
    }

    /// The `u8` form of [`CkptReader::fill_u64`], matching
    /// [`CkptReader::vec_u8`].
    pub fn fill_u8(&mut self, dst: &mut [u8]) -> Result<(), CkptError> {
        let (n, bitmap, raw) = self.sparse(1)?;
        if n != dst.len() {
            return Err(CkptError::Mismatch("sparse array length"));
        }
        scatter(bitmap, raw, dst, |[b]| b)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CkptError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CkptError::Corrupt("non-UTF-8 string"))
    }

    /// Open a section: checks the tag, validates the declared byte
    /// length against the remainder, and returns the payload offset
    /// where the section must end (pass to [`CkptReader::end_section`]).
    pub fn begin_section(&mut self, tag: u32) -> Result<usize, CkptError> {
        let got = self.u32()?;
        if got != tag {
            return Err(CkptError::Corrupt("unexpected section tag"));
        }
        let len = self.len64()?;
        if len > self.remaining() {
            return Err(CkptError::Truncated);
        }
        Ok(self.pos + len)
    }

    /// Close a section: the cursor must sit exactly at the recorded
    /// end offset, i.e. the section body was fully consumed.
    pub fn end_section(&mut self, end: usize) -> Result<(), CkptError> {
        if self.pos != end {
            return Err(CkptError::Corrupt("section length mismatch"));
        }
        Ok(())
    }

    /// Finish reading: the whole payload must have been consumed.
    pub fn finish(self) -> Result<(), CkptError> {
        if self.pos != self.payload.len() {
            return Err(CkptError::Corrupt("unconsumed payload bytes"));
        }
        Ok(())
    }
}

/// Writes a validated sparse array into `dst` (`dst.len()` elements,
/// `bitmap` of `ceil(len / 8)` bytes with no bit set past `len`, and
/// one `W`-byte value in `raw` per set bit). The walk takes the bitmap
/// 64 bits at a time and visits only the set bits; an all-clear group
/// is zeroed only if it holds something, so restoring a mostly-empty
/// array into freshly zeroed memory writes — and faults in — just the
/// pages that hold values.
fn scatter<T: Copy + Default + PartialEq, const W: usize>(
    bitmap: &[u8],
    raw: &[u8],
    dst: &mut [T],
    decode: impl Fn([u8; W]) -> T,
) -> Result<(), CkptError> {
    let zero = T::default();
    let mut values = raw.chunks_exact(W);
    for (group, bits) in dst.chunks_mut(64).zip(bitmap.chunks(8)) {
        let mut word = [0u8; 8];
        word[..bits.len()].copy_from_slice(bits);
        let mut bits = u64::from_le_bytes(word);
        if bits == 0 {
            if group.iter().any(|&v| v != zero) {
                group.fill(zero);
            }
            continue;
        }
        group.fill(zero);
        while bits != 0 {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let v = values
                .next()
                .map(|b| decode(b.try_into().expect("W bytes")))
                .ok_or(CkptError::Truncated)?;
            if v == zero {
                return Err(CkptError::Corrupt("zero value marked present"));
            }
            *group
                .get_mut(i)
                .ok_or(CkptError::Corrupt("bitmap bits past element count"))? = v;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn image() -> Vec<u8> {
        let mut w = CkptWriter::new();
        let m = w.begin_section(0x11);
        w.u64(42);
        w.slice_u64(&[1, 2, 3]);
        w.slice_u8(&[0, 5, 0, 0, 7]);
        w.bool(true);
        w.str("hello");
        w.end_section(m);
        w.finish("v0-test")
    }

    #[test]
    fn round_trip() {
        let img = image();
        let mut r = CkptReader::open(&img, "v0-test").expect("opens");
        let end = r.begin_section(0x11).expect("section");
        assert_eq!(r.u64().expect("u64"), 42);
        assert_eq!(r.vec_u64().expect("vec_u64"), vec![1, 2, 3]);
        assert_eq!(r.vec_u8().expect("vec_u8"), vec![0, 5, 0, 0, 7]);
        assert!(r.bool().expect("bool"));
        assert_eq!(r.str().expect("str"), "hello");
        r.end_section(end).expect("consumed");
        r.finish().expect("done");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut img = image();
        img[0] ^= 0xff;
        assert_eq!(
            CkptReader::open(&img, "v0-test").err(),
            Some(CkptError::BadMagic)
        );
    }

    #[test]
    fn rejects_bad_version() {
        let mut img = image();
        img[8] = 0xee;
        assert!(matches!(
            CkptReader::open(&img, "v0-test"),
            Err(CkptError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_stale_fingerprint() {
        let img = image();
        assert_eq!(
            CkptReader::open(&img, "v1-other").err(),
            Some(CkptError::StaleFingerprint)
        );
    }

    #[test]
    fn rejects_torn_tail_at_every_length() {
        let img = image();
        for cut in 0..img.len() {
            let torn = &img[..cut];
            assert!(
                CkptReader::open(torn, "v0-test").is_err(),
                "torn image of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn rejects_flipped_payload_byte() {
        let mut img = image();
        let mid = img.len() / 2;
        img[mid] ^= 0x5a;
        assert!(CkptReader::open(&img, "v0-test").is_err());
    }

    #[test]
    fn rejects_oversized_vec_count() {
        // Hand-build a payload whose vec count wildly exceeds the
        // remaining bytes; the reader must reject before allocating.
        let mut w = CkptWriter::new();
        w.u64(u64::MAX / 2); // bogus element count
        let img = w.finish("v0-test");
        let mut r = CkptReader::open(&img, "v0-test").expect("frame is valid");
        assert!(r.vec_u64().is_err());
    }

    #[test]
    fn sparse_slices_round_trip_at_the_extremes() {
        let cases_u64: &[&[u64]] = &[&[], &[0; 100], &[u64::MAX; 9], &[0, 1, 0, u64::MAX, 0]];
        let cases_u8: &[&[u8]] = &[&[], &[0; 100], &[0xff; 9], &[0, 1, 0, 0xff, 0]];
        for (words, bytes) in cases_u64.iter().zip(cases_u8) {
            let mut w = CkptWriter::new();
            w.slice_u64(words);
            w.slice_u8(bytes);
            let img = w.finish("v0-test");
            let mut r = CkptReader::open(&img, "v0-test").expect("opens");
            assert_eq!(r.vec_u64().expect("vec_u64"), *words);
            assert_eq!(r.vec_u8().expect("vec_u8"), *bytes);
            r.finish().expect("done");
        }
        // All-zero runs shrink to ~1 bit per element.
        let mut w = CkptWriter::new();
        w.slice_u64(&[0; 1024]);
        let img = w.finish("v0-test");
        assert!(img.len() < 8 + 1024 / 8 + 64, "zero run must stay sparse");
    }

    #[test]
    fn rejects_unconsumed_section() {
        let mut w = CkptWriter::new();
        let m = w.begin_section(7);
        w.u64(1);
        w.u64(2);
        w.end_section(m);
        let img = w.finish("v0-test");
        let mut r = CkptReader::open(&img, "v0-test").expect("opens");
        let end = r.begin_section(7).expect("section");
        let _ = r.u64().expect("u64");
        assert_eq!(
            r.end_section(end),
            Err(CkptError::Corrupt("section length mismatch"))
        );
    }

    #[test]
    fn rejects_garbage() {
        let garbage = vec![0xabu8; 64];
        assert!(CkptReader::open(&garbage, "v0-test").is_err());
        assert!(CkptReader::open(&[], "v0-test").is_err());
    }

    #[test]
    fn checksum_sees_every_word_and_the_length() {
        let data: Vec<u8> = (0..100u8).collect();
        let sum = image_checksum(&data);
        for i in 0..data.len() {
            let mut flipped = data.clone();
            flipped[i] ^= 1;
            assert_ne!(image_checksum(&flipped), sum, "byte {i}");
        }
        for n in 0..data.len() {
            assert_ne!(image_checksum(&data[..n]), sum, "prefix {n}");
        }
        // A trailing zero byte is not absorbed by the word padding.
        let mut padded = data.clone();
        padded.push(0);
        assert_ne!(image_checksum(&padded), sum);
    }

    #[test]
    fn fill_checks_the_length_and_clears_stale_values() {
        let mut w = CkptWriter::new();
        w.slice_u64(&[0, 7, 0]);
        w.slice_u8(&[0; 70]);
        let img = w.finish("v0-test");
        let mut r = CkptReader::open(&img, "v0-test").expect("opens");
        assert_eq!(
            r.fill_u64(&mut [0; 4]),
            Err(CkptError::Mismatch("sparse array length"))
        );
        let mut r = CkptReader::open(&img, "v0-test").expect("opens");
        let mut words = [9u64; 3];
        r.fill_u64(&mut words).expect("fills");
        assert_eq!(words, [0, 7, 0]);
        let mut bytes = [5u8; 70];
        r.fill_u8(&mut bytes).expect("fills");
        assert_eq!(bytes, [0; 70]);
        r.finish().expect("done");

        // A zero marked present has a second encoding; reject it.
        let mut w = CkptWriter::new();
        w.u64(1);
        w.u8(1);
        w.u64(0);
        let img = w.finish("v0-test");
        let mut r = CkptReader::open(&img, "v0-test").expect("opens");
        assert_eq!(
            r.fill_u64(&mut [0]),
            Err(CkptError::Corrupt("zero value marked present"))
        );
    }

    /// Well-framed images of `payload` and of damaged copies of it:
    /// each of `edits` applied on its own (a byte XOR, the index taken
    /// modulo the length), the last one to three bytes cut off, and the
    /// leading element count stepped up and down by one.
    fn variants(payload: &[u8], edits: &[(usize, u8)]) -> Vec<Vec<u8>> {
        let mut out = vec![payload.to_vec()];
        for &(at, x) in edits {
            let mut p = payload.to_vec();
            let len = p.len();
            p[at % len] ^= x.max(1);
            out.push(p);
        }
        for cut in 1..=3.min(payload.len()) {
            out.push(payload[..payload.len() - cut].to_vec());
        }
        let n = u64::from_le_bytes(payload[..8].try_into().expect("count word"));
        for m in [n.wrapping_add(1), n.wrapping_sub(1)] {
            let mut p = payload.to_vec();
            p[..8].copy_from_slice(&m.to_le_bytes());
            out.push(p);
        }
        out.into_iter()
            .map(|p| {
                let mut w = CkptWriter::new();
                w.buf = p;
                w.finish("v0-test")
            })
            .collect()
    }

    /// The destination length a receiver would pass: the declared
    /// count, when it is small enough to allocate.
    fn declared(img: &[u8]) -> usize {
        let r = CkptReader::open(img, "v0-test").expect("own framing");
        let n = u64::from_le_bytes(r.payload[..8].try_into().expect("count word"));
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= 1 << 16)
            .unwrap_or(0)
    }

    /// Runs `vec` and `fill` (into a `stale`-filled slice of the
    /// declared length) over the same image and checks they agree:
    /// the same error, or the same values and the same cursor.
    fn agree<'i, T: Copy + PartialEq + std::fmt::Debug>(
        img: &'i [u8],
        stale: T,
        vec: fn(&mut CkptReader<'i>) -> Result<Vec<T>, CkptError>,
        fill: fn(&mut CkptReader<'i>, &mut [T]) -> Result<(), CkptError>,
    ) {
        let mut a = CkptReader::open(img, "v0-test").expect("own framing");
        let mut b = CkptReader::open(img, "v0-test").expect("own framing");
        let mut dst = vec![stale; declared(img)];
        let filled = fill(&mut b, &mut dst);
        match vec(&mut a) {
            Ok(v) => {
                assert_eq!(filled, Ok(()));
                assert_eq!(v, dst);
                assert_eq!(a.remaining(), b.remaining());
            }
            Err(e) => assert_eq!(filled, Err(e)),
        }
    }

    /// `visit_u64` as a fill: a zeroed slice of the declared length that
    /// receives every visited word, checking that indices rise.
    fn visit_fill(r: &mut CkptReader<'_>, dst: &mut [u64]) -> Result<(), CkptError> {
        dst.fill(0);
        let mut last = None;
        r.visit_u64(dst.len(), |i, v| {
            assert!(last < Some(i), "indices rise");
            last = Some(i);
            dst[i] = v;
        })
    }

    #[test]
    fn visit_reports_present_words_and_checks_the_length() {
        let mut w = CkptWriter::new();
        w.slice_u64(&[0, 7, 0, 9]);
        let img = w.finish("v0-test");
        let mut r = CkptReader::open(&img, "v0-test").expect("opens");
        assert_eq!(
            r.visit_u64(5, |_, _| panic!("no word before the length check")),
            Err(CkptError::Mismatch("sparse array length"))
        );
        let mut r = CkptReader::open(&img, "v0-test").expect("opens");
        let mut seen = Vec::new();
        r.visit_u64(4, |i, v| seen.push((i, v))).expect("visits");
        assert_eq!(seen, [(1, 7), (3, 9)]);
        r.finish().expect("done");
    }

    proptest! {
        /// `fill_u64` accepts and rejects exactly what `vec_u64` does —
        /// the same error, or the same words and cursor — over valid
        /// sparse arrays and damaged copies of them, whatever `dst`
        /// held before. `visit_u64` agrees with both.
        #[test]
        fn fill_u64_agrees_with_vec_u64(
            cells in prop::collection::vec((any::<u64>(), 0u8..4), 0..200),
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
            stale in any::<u64>(),
        ) {
            let words: Vec<u64> = cells.iter().map(|&(v, keep)| if keep == 0 { v } else { 0 }).collect();
            let mut w = CkptWriter::new();
            w.slice_u64(&words);
            for img in variants(&w.buf, &edits) {
                agree(&img, stale, CkptReader::vec_u64, CkptReader::fill_u64);
                agree(&img, stale, CkptReader::vec_u64, visit_fill);
            }
        }

        /// `runs_u64` writes the same bytes as `slice_u64` over the array
        /// its runs describe: each run follows a gap of zeros, some of
        /// its own words are zero, and zeros may trail the last run.
        #[test]
        fn runs_u64_writes_what_slice_u64_does(
            runs in prop::collection::vec(
                (0usize..20, prop::collection::vec((any::<u64>(), 0u8..3), 0..6)),
                0..30,
            ),
            tail in 0usize..20,
        ) {
            let mut dense = Vec::new();
            let mut present = Vec::new();
            for (gap, cells) in &runs {
                dense.resize(dense.len() + gap, 0);
                let words: Vec<u64> = cells.iter().map(|&(v, keep)| if keep == 0 { 0 } else { v }).collect();
                present.push((dense.len(), words.clone()));
                dense.extend(words);
            }
            dense.resize(dense.len() + tail, 0);
            let mut a = CkptWriter::new();
            a.slice_u64(&dense);
            let mut b = CkptWriter::new();
            b.runs_u64(dense.len(), present.iter().map(|(at, w)| (*at, w.as_slice())));
            prop_assert_eq!(a.buf, b.buf);
        }

        /// The `u8` twin of `fill_u64_agrees_with_vec_u64`.
        #[test]
        fn fill_u8_agrees_with_vec_u8(
            cells in prop::collection::vec((any::<u8>(), 0u8..4), 0..600),
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
            stale in any::<u8>(),
        ) {
            let bytes: Vec<u8> = cells.iter().map(|&(v, keep)| if keep == 0 { v } else { 0 }).collect();
            let mut w = CkptWriter::new();
            w.slice_u8(&bytes);
            for img in variants(&w.buf, &edits) {
                agree(&img, stale, CkptReader::vec_u8, CkptReader::fill_u8);
            }
        }
    }
}
