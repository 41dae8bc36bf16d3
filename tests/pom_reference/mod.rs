//! The POM-TLB's original dense layout, kept as the specification the
//! set-block [`csalt::tlb::PomTlb`] is tested against. Keys and frames
//! live in two arrays of `sets × ways` words each, allocated in full at
//! construction; set `s` owns slots `s * ways .. (s + 1) * ways` of both.

// Each test target uses its own subset of the model.
#![allow(dead_code)]

use csalt::types::{
    pack_tlb_key, unpack_tlb_size, unpack_tlb_vpn, Asid, CkptError, CkptReader, CkptWriter,
    HitMissStats, LineAddr, PageSize, PhysAddr, PhysFrame, PomTlbConfig, VirtPage, LINE_BYTES,
    PACKED_TLB_EMPTY as EMPTY,
};

/// The dense POM-TLB: MRU-first valid prefix per set, keys held XOR
/// [`EMPTY`] and frames as `pfn << 2 | size code`, `0` where empty.
#[derive(Debug, Clone)]
pub struct DensePom {
    pub cfg: PomTlbConfig,
    pub sets: u64,
    pub ways: u32,
    pub keys: Vec<u64>,
    pub frames: Vec<u64>,
    pub stats: HitMissStats,
}

fn pack(page: VirtPage, asid: Asid) -> u64 {
    pack_tlb_key(page.vpn(), page.size(), asid)
}

fn pack_frame(frame: PhysFrame) -> u64 {
    let code = match frame.size() {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    frame.pfn() << 2 | code
}

fn unpack_frame(word: u64) -> PhysFrame {
    let size = match word & 3 {
        0 => PageSize::Size4K,
        1 => PageSize::Size2M,
        _ => PageSize::Size1G,
    };
    PhysFrame::from_pfn(word >> 2, size)
}

impl DensePom {
    pub fn new(cfg: PomTlbConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "POM-TLB sets must be 2^k");
        let slots = (sets * u64::from(cfg.ways)) as usize;
        Self {
            sets,
            ways: cfg.ways,
            keys: vec![0; slots],
            frames: vec![0; slots],
            cfg,
            stats: HitMissStats::new(),
        }
    }

    fn set_of_packed(&self, packed: u64) -> u64 {
        let size_salt = match unpack_tlb_size(packed) {
            PageSize::Size4K => 0u64,
            PageSize::Size2M => 0x9e37_79b9_7f4a_7c15,
            PageSize::Size1G => 0x6a09_e667_f3bc_c909,
        };
        let mixed = (unpack_tlb_vpn(packed).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            ^ size_salt
            ^ ((packed & 0xffff) << 17);
        mixed >> (64 - self.sets.trailing_zeros())
    }

    fn line_of_set(&self, set: u64) -> LineAddr {
        PhysAddr::new(self.cfg.base + set * LINE_BYTES).line()
    }

    pub fn home_line(&self, page: VirtPage, asid: Asid) -> LineAddr {
        self.line_of_set(self.set_of_packed(pack(page, asid)))
    }

    /// Returns the frame (if resident) and the probed line.
    pub fn lookup(&mut self, page: VirtPage, asid: Asid) -> (Option<PhysFrame>, LineAddr) {
        let packed = pack(page, asid);
        let set = self.set_of_packed(packed);
        let line = self.line_of_set(set);
        let base = (set * u64::from(self.ways)) as usize;
        let ways = self.ways as usize;
        let stored = packed ^ EMPTY;
        if let Some(way) = self.keys[base..base + ways]
            .iter()
            .position(|&k| k == stored)
        {
            let frame = unpack_frame(self.frames[base + way]);
            self.keys[base..=base + way].rotate_right(1);
            self.frames[base..=base + way].rotate_right(1);
            self.stats.record_hit();
            return (Some(frame), line);
        }
        self.stats.record_miss();
        (None, line)
    }

    pub fn insert(&mut self, page: VirtPage, asid: Asid, frame: PhysFrame) -> LineAddr {
        let packed = pack(page, asid);
        let set = self.set_of_packed(packed);
        let line = self.line_of_set(set);
        let base = (set * u64::from(self.ways)) as usize;
        let ways = self.ways as usize;
        let stored = packed ^ EMPTY;
        let upto = self.keys[base..base + ways]
            .iter()
            .position(|&k| k == stored)
            .unwrap_or(ways - 1);
        self.keys[base..=base + upto].rotate_right(1);
        self.frames[base..=base + upto].rotate_right(1);
        self.keys[base] = stored;
        self.frames[base] = pack_frame(frame);
        line
    }

    pub fn valid_entries(&self) -> u64 {
        self.keys.iter().filter(|&&k| k != 0).count() as u64
    }

    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.sets);
        w.u32(self.ways);
        w.slice_u64(&self.keys);
        w.slice_u64(&self.frames);
        w.u64(self.stats.hits);
        w.u64(self.stats.misses);
    }

    pub fn ckpt_load(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        if r.u64()? != self.sets || r.u32()? != self.ways {
            return Err(CkptError::Mismatch("pom-tlb geometry"));
        }
        r.fill_u64(&mut self.keys)?;
        r.fill_u64(&mut self.frames)?;
        if self.frames.iter().any(|&f| f & 3 == 3) {
            return Err(CkptError::Corrupt("pom-tlb frame size code"));
        }
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        Ok(())
    }
}
