//! Pure translation precomputation shared between the TLB crate, the
//! simulator's access sources and staged (v2) traces.
//!
//! Every TLB lookup begins by packing `(virtual page, page size, ASID)`
//! into one comparable `u64` (see `csalt-tlb`'s struct-of-arrays way
//! scan). That packing is a pure function of the access — it depends on
//! no hierarchy state — so it can be computed once, ahead of the lookup,
//! or even stored in a trace at record time. This module holds the one
//! canonical packing and the [`TranslationHint`] bundle of precomputed
//! keys, so generated and replayed accesses go through literally the
//! same code and stay bit-identical.

use crate::addr::{PageSize, VirtAddr};
use crate::ids::Asid;

/// Sentinel for an empty TLB way. No real packed key reaches all-ones:
/// the VPN would have to exceed the 48-bit address space.
pub const PACKED_TLB_EMPTY: u64 = u64::MAX;

/// Packs a TLB lookup key into one comparable word — VPN above, then a
/// 2-bit page-size code, then the 16-bit ASID.
///
/// The layout is load-bearing for `csalt-tlb`: way scans compare one
/// `u64` per way, and ASID-selective flushes mask the low 16 bits.
#[inline]
#[must_use]
pub fn pack_tlb_key(vpn: u64, size: PageSize, asid: Asid) -> u64 {
    let size_code = match size {
        PageSize::Size4K => 0u64,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    };
    debug_assert!(vpn < 1u64 << 46, "vpn overflows packed TLB key");
    (vpn << 18) | (size_code << 16) | u64::from(asid.raw())
}

/// Page size encoded in a packed key (the inverse of the 2-bit code in
/// [`pack_tlb_key`]).
#[inline]
#[must_use]
pub fn unpack_tlb_size(packed: u64) -> PageSize {
    match (packed >> 16) & 0b11 {
        0 => PageSize::Size4K,
        1 => PageSize::Size2M,
        _ => PageSize::Size1G,
    }
}

/// VPN encoded in a packed key.
#[inline]
#[must_use]
pub fn unpack_tlb_vpn(packed: u64) -> u64 {
    packed >> 18
}

/// The state-independent part of one address translation, computed once
/// per access.
///
/// The hierarchy probes the 4 KiB L1/L2 TLB entries and (when huge
/// pages are enabled) the 2 MiB entries for the same `(address, ASID)`;
/// both packed keys are pure functions of the access, so the simulator
/// computes them as it pulls the access (or a staged trace stores them)
/// and `MemoryHierarchy::access` computes them itself otherwise. Either
/// way the lookup code consumes the same two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationHint {
    /// Packed `(4 KiB page of the address, ASID)` key.
    pub packed_4k: u64,
    /// Packed `(2 MiB page of the address, ASID)` key.
    pub packed_2m: u64,
}

impl TranslationHint {
    /// Computes the hint for one access. Branch-free: the 2 MiB key is
    /// always derived (it is two shifts and an or), whether or not the
    /// run's huge-page policy will probe it.
    #[inline]
    #[must_use]
    pub fn compute(va: VirtAddr, asid: Asid) -> Self {
        Self {
            packed_4k: pack_tlb_key(va.page(PageSize::Size4K).vpn(), PageSize::Size4K, asid),
            packed_2m: pack_tlb_key(va.page(PageSize::Size2M).vpn(), PageSize::Size2M, asid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips_vpn_and_size() {
        for (size, vpn) in [
            (PageSize::Size4K, 0x1234_5678u64),
            (PageSize::Size2M, 0x91u64),
            (PageSize::Size1G, 3u64),
        ] {
            let p = pack_tlb_key(vpn, size, Asid::new(7));
            assert_eq!(unpack_tlb_vpn(p), vpn);
            assert_eq!(unpack_tlb_size(p), size);
            assert_eq!(p & 0xffff, 7);
            assert_ne!(p, PACKED_TLB_EMPTY);
        }
    }

    #[test]
    fn hint_matches_manual_packing() {
        let va = VirtAddr::new(0x7f12_3456_789a);
        let asid = Asid::new(3);
        let h = TranslationHint::compute(va, asid);
        assert_eq!(
            h.packed_4k,
            pack_tlb_key(va.page(PageSize::Size4K).vpn(), PageSize::Size4K, asid)
        );
        assert_eq!(
            h.packed_2m,
            pack_tlb_key(va.page(PageSize::Size2M).vpn(), PageSize::Size2M, asid)
        );
        assert_ne!(h.packed_4k, h.packed_2m);
    }

    #[test]
    fn distinct_asids_never_collide() {
        let va = VirtAddr::new(0x1000);
        let a = TranslationHint::compute(va, Asid::new(1));
        let b = TranslationHint::compute(va, Asid::new(2));
        assert_ne!(a.packed_4k, b.packed_4k);
    }
}
