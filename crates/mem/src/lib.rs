//! Memory substrate for the GPS multi-GPU memory-management reproduction.
//!
//! This crate models the virtual-memory machinery that §5 of the paper
//! builds on:
//!
//! * [`FrameAllocator`] — per-GPU physical frame allocation over the 16 GB
//!   device memory of a GV100.
//! * [`Tlb`] — a generic set-associative, LRU translation lookaside buffer
//!   used both for the conventional last-level GPU TLB and for the wide
//!   GPS-TLB.
//! * [`GpsPte`] / [`GpsPageTable`] — the secondary *GPS page table* whose
//!   wide leaf entries record the physical page address of every remote
//!   subscriber's replica (§5.2).
//! * [`VaSpace`] — allocation of ranges in the shared 49-bit virtual address
//!   space.
//! * [`AccessBitmap`] — the one-bit-per-page DRAM bitmap maintained by the
//!   access tracking unit during profiling (§5.2, "Access tracking unit").
//! * [`ResidencyMap`] — page-residency and read-duplication state used by
//!   the Unified Memory baselines (fault-based migration, read-duplication
//!   collapse on write).
//! * [`ResidentSet`] / [`VictimPolicy`] — per-GPU resident-set tracking and
//!   victim selection for the oversubscription/eviction model (§8 future
//!   work: swap-out when subscriptions exceed physical memory).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod evict;
mod frame;
mod gps_page_table;
mod residency;
mod tlb;
mod va_space;

pub use bitmap::AccessBitmap;
pub use evict::{ResidentSet, VictimPolicy};
pub use frame::FrameAllocator;
pub use gps_page_table::{GpsPageTable, GpsPte};
pub use residency::{CollapseOutcome, ResidencyMap, ResidencyState};
pub use tlb::{Tlb, TlbConfig, TlbStats};
pub use va_space::{VaRange, VaSpace};
