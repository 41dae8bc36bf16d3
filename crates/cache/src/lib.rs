//! Set-associative cache substrate for the CSALT simulator.
//!
//! Provides the data-cache machinery the paper's evaluation rests on:
//!
//! * [`Cache`] — a write-back, write-allocate set-associative cache whose
//!   lines carry the Data/TLB classification, with **way partitioning**
//!   enforced at replacement time exactly as §3.1 specifies (lookups scan
//!   all ways; fills evict only within the partition's way range).
//!   Its state is set-major: one flat array of per-set blocks holding the
//!   tags, kind and dirty masks and replacement state side by side.
//! * [`Policy`] — True-LRU, NRU, binary-tree pseudo-LRU and RRIP
//!   replacement over a set's borrowed state words, with
//!   partition-restricted victim selection and LRU stack-position
//!   estimation (§3.4).
//! * [`DipController`] — the set-dueling Dynamic Insertion Policy baseline
//!   the paper compares against (§5.2).
//!
//! # Example
//!
//! ```
//! use csalt_cache::Cache;
//! use csalt_types::{EntryKind, LineAddr, ReplacementKind};
//!
//! let mut l2 = Cache::new(1024, 4, ReplacementKind::TrueLru);
//! l2.set_partition(3); // 3 ways for data, 1 way for TLB entries
//!
//! let line = LineAddr::from_line_number(0x40);
//! assert!(!l2.access(line, EntryKind::Data, false).hit);
//! assert!(l2.access(line, EntryKind::Data, false).hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dip;
mod replacement;

pub use cache::{AccessOutcome, Cache, CacheStats, Evicted, InsertPos, Occupancy};
pub use dip::{DipController, DuelRole};
pub use replacement::{way_range_mask, Policy, WayMask};
