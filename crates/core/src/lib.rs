//! The GPS publish-subscribe multi-GPU memory-management core.
//!
//! This crate implements the paper's contribution (§3–§5):
//!
//! * [`RemoteWriteQueue`] — the fully associative, virtually addressed,
//!   cache-line-granular write-combining buffer that exploits the weak GPU
//!   memory model to coalesce non-sys-scoped stores before broadcast
//!   (§3.3, §5.2). 512 entries of 135 bytes ≈ 68 KB of SRAM.
//! * [`GpsTlb`] — the small, wide TLB over the secondary GPS page table
//!   that translates draining stores to every subscriber's replica (§5.2;
//!   32 entries suffice, §7.4).
//! * [`AccessTrackingUnit`] — the one-bit-per-page DRAM bitmap fed by
//!   last-level TLB misses during the profiling phase (§5.2).
//! * [`GpsRuntime`] — the programming interface of §4: `malloc_gps`
//!   (`cudaMallocGPS`), `mem_advise` subscribe/unsubscribe hints
//!   (`cuMemAdvise` + `CU_MEM_ADVISE_GPS_(UN)SUBSCRIBE`), and
//!   `tracking_start`/`tracking_stop` (`cuGPSTrackingStart/Stop`), plus the
//!   driver state: the GPS page table, per-GPU replica frames, GPS bits and
//!   single-subscriber downgrade.
//! * [`GpsUnit`] — one GPU's write queue and GPS-TLB: the store/load/atomic
//!   decisions of Figure 7 (drain-at-watermark, flush-at-synchronisation,
//!   sys-scoped collapse, remote fallback for non-subscribers), made from a
//!   read-only [`DriverView`] and reported as effects to the caller.
//! * [`GpsSystem`] — one object wiring all per-GPU units to the driver
//!   state: it applies each unit's effects at once (broadcasts on the
//!   fabric, collapses §5.3) and subscribes on first touch under
//!   unsubscribed-by-default profiling.
//!
//! The simulation glue (a `MemoryPolicy` implementation) lives in
//! `gps-paradigms`; everything in this crate is independent of the engine
//! and usable directly, as the examples demonstrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atu;
mod config;
mod gps_tlb;
mod runtime;
mod rwq;
mod system;
mod unit;

pub use atu::AccessTrackingUnit;
pub use config::{
    GpsConfig, ProfilingMode, COLLAPSE_LATENCY, GPS_TLB_WALK_LATENCY, RWQ_ENTRY_BYTES,
};
pub use gps_tlb::GpsTlb;
pub use runtime::{AllocationKind, DriverView, EvictionOutcome, GpsRuntime, MemAdvise, PageState};
pub use rwq::{InsertOutcome, RemoteWriteQueue, RwqStats};
pub use system::{GpsLoad, GpsStore, GpsSystem};
pub use unit::GpsUnit;
