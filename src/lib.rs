//! `gps` — facade crate for the GPS multi-GPU memory-management
//! reproduction (MICRO 2021).
//!
//! This crate re-exports the public API of every workspace member so that
//! examples, integration tests and downstream users can depend on a single
//! crate:
//!
//! * [`types`] — identifiers, addresses, page sizes, scopes, units.
//! * [`mem`] — TLBs, frame allocators, the wide GPS page table, VA-space
//!   allocation, access bitmaps and resident-set state.
//! * [`interconnect`] — PCIe/NVLink fabric models and traffic accounting.
//! * [`sim`] — the trace-driven multi-GPU timing simulator.
//! * [`obs`] — cycle-resolved telemetry: probes, time series, span
//!   tracing, Chrome-trace export.
//! * [`core`] — the GPS hardware units ([`core::RemoteWriteQueue`],
//!   [`core::GpsTlb`], [`core::AccessTrackingUnit`]) and the
//!   `cudaMallocGPS`-style runtime ([`core::GpsRuntime`],
//!   [`core::GpsSystem`]).
//! * [`paradigms`] — UM, UM+hints, RDL, memcpy, GPS and infinite-bandwidth
//!   memory-management policies.
//! * [`workloads`] — the eight-application evaluation suite (Table 2).
//!
//! # Quickstart
//!
//! ```
//! use gps::interconnect::LinkGen;
//! use gps::paradigms::{run_paradigm, Paradigm};
//! use gps::workloads::{jacobi, ScaleProfile};
//!
//! // Simulate a small Jacobi solve on 2 GPUs under the GPS paradigm.
//! let wl = jacobi::build(2, ScaleProfile::Tiny);
//! let report = run_paradigm(Paradigm::Gps, &wl, 2, LinkGen::Pcie3)?;
//! assert!(report.total_cycles.as_u64() > 0);
//! # Ok::<(), gps::types::GpsError>(())
//! ```

#![forbid(unsafe_code)]

pub use gps_core as core;
pub use gps_interconnect as interconnect;
pub use gps_mem as mem;
pub use gps_obs as obs;
pub use gps_paradigms as paradigms;
pub use gps_sim as sim;
pub use gps_types as types;
pub use gps_workloads as workloads;
