//! Shared foundation types for the CSALT simulator workspace.
//!
//! This crate defines the vocabulary that every other crate in the
//! reproduction of *CSALT: Context Switch Aware Large TLB* (MICRO-50, 2017)
//! speaks:
//!
//! * strongly-typed addresses ([`VirtAddr`], [`PhysAddr`]) and their
//!   page/cache-line views,
//! * identifiers ([`Asid`], [`CoreId`]) and time ([`Cycle`]),
//! * the data-vs-translation classification at the heart of the paper
//!   ([`EntryKind`]),
//! * the full machine configuration of the paper's Table 2
//!   ([`SystemConfig`] and friends), and
//! * small hit/miss statistics helpers shared by caches and TLBs.
//!
//! # Example
//!
//! ```
//! use csalt_types::{PageSize, SystemConfig, VirtAddr};
//!
//! let cfg = SystemConfig::skylake();
//! assert_eq!(cfg.cores, 8);
//!
//! let va = VirtAddr::new(0x7f32_1234_5678);
//! assert_eq!(va.page(PageSize::Size4K).base().raw(), 0x7f32_1234_5000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod ckpt;
pub mod config;
pub mod error;
pub mod hint;
pub mod ids;
pub mod invariants;
pub mod request;
pub mod stats;

pub use addr::{LineAddr, PageSize, PhysAddr, PhysFrame, VirtAddr, VirtPage, LINE_BYTES};
pub use ckpt::{CkptError, CkptReader, CkptWriter};
pub use config::{
    CacheGeometry, DramKind, DramTimings, PomTlbConfig, PscConfig, ReplacementKind, SystemConfig,
    TlbGeometry, TranslationScheme,
};
pub use error::ConfigError;
pub use hint::{pack_tlb_key, unpack_tlb_size, unpack_tlb_vpn, TranslationHint, PACKED_TLB_EMPTY};
pub use ids::{Asid, ContextId, CoreId, Cycle};
pub use invariants::{Severity, Violation};
pub use request::{AccessType, EntryKind, MemAccess};
pub use stats::{geomean, HitMissStats};
