//! Common vocabulary types for the GPS multi-GPU memory-management
//! reproduction.
//!
//! This crate defines the newtypes shared by every other crate in the
//! workspace: device and execution identifiers ([`GpuId`], [`SmId`],
//! [`WarpId`]), byte-addressable virtual and physical addresses
//! ([`VirtAddr`], [`PhysAddr`]) with their line- and page-granular
//! counterparts ([`LineAddr`], [`Vpn`], [`Ppn`]), the page-size menu studied
//! by the paper ([`PageSize`]), the PTX-style memory-operation scope
//! ([`Scope`]), the time/bandwidth units used by the timing models
//! ([`Cycle`], [`Bandwidth`], [`Latency`]), and the dependency-free JSON
//! codec ([`Json`]) shared by the harness result store and the telemetry
//! exporter.
//!
//! Everything here is a plain data type: cheap to copy, `Send + Sync`,
//! and totally ordered where that is meaningful, so experiment results
//! built from them can be persisted by the harness.
//!
//! # Example
//!
//! ```
//! use gps_types::{GpuId, PageSize, VirtAddr};
//!
//! let va = VirtAddr::new(0x7f00_0123_4567);
//! let page = va.vpn(PageSize::Standard64K);
//! assert_eq!(page.base(PageSize::Standard64K).as_u64() & 0xFFFF, 0);
//! let gpu = GpuId::new(2);
//! assert_eq!(gpu.index(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod error;
mod ids;
pub mod json;
mod mem_op;
mod page;
pub mod rng;
mod scope;
mod units;

pub use addr::{LineAddr, PhysAddr, Ppn, VirtAddr, Vpn, CACHE_LINE_BYTES, CACHE_LINE_SHIFT};
pub use error::GpsError;
pub use ids::{CtaId, GpuId, KernelId, SmId, StreamId, WarpId};
pub use json::Json;
pub use mem_op::LineRange;
pub use page::PageSize;
pub use scope::Scope;
pub use units::{Bandwidth, Cycle, Latency, CYCLES_PER_SECOND, GIB, KIB, MIB};

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, GpsError>;
