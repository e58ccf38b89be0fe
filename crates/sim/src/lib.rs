//! A trace-driven, discrete-event multi-GPU timing simulator.
//!
//! This crate is the reproduction's stand-in for NVAS, the proprietary
//! NVIDIA Architectural Simulator the paper extends (§6). Like NVAS it is a
//! *system-level* simulator: it runs warp-level memory traces, generated
//! per warp by the workload programs, against architectural timing models
//! rather than executing SASS cycle-exactly,
//! and it "respects all functional dependencies such as work scheduling,
//! barrier synchronization, and load dependencies".
//!
//! The pieces:
//!
//! * [`GpuConfig`] / [`SimConfig`] — Table 1 machine parameters plus timing
//!   constants.
//! * [`WarpInstr`] / [`WarpProgram`] — the warp-level trace format
//!   (post-SM-coalescer: a fully coalesced 32-lane access is one 128 B
//!   line).
//! * [`Workload`] — allocations, phases and kernel launches for one
//!   application.
//! * [`MemoryPolicy`] — the hook through which memory-management paradigms
//!   (UM, UM+hints, RDL, memcpy, GPS, infinite-BW) observe every coalesced
//!   access and route it.
//! * [`Engine`] — the deterministic event-driven core: per-SM issue ports,
//!   CTA residency scheduling, per-SM L1s, per-GPU L2 + TLB + DRAM, kernel
//!   launch and phase-barrier orchestration, run on event lanes that own
//!   every GPU (the reference lane) or one GPU each.
//! * [`SimReport`] — cycle counts, cache/TLB statistics, DRAM and
//!   interconnect traffic for the figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod config;
mod dram;
mod engine;
mod instr;
mod lanes;
mod pipeline;
mod policy;
mod stats;
mod workload;

pub use cache::{Cache, CacheConfig, CacheStats, Evicted, Lookup};
pub use config::{GpuConfig, MemoryPressure, SimConfig};
pub use dram::DramModel;
pub use engine::Engine;
pub use instr::{FillProgram, WarpCtx, WarpInstr, WarpProgram};
pub use policy::{
    AllLocalPolicy, LaneMode, LaneRouter, LoadRoute, MemCtx, MemoryPolicy, StoreRoute,
};
pub use stats::{GpuReport, SimReport, TlbCounts};
pub use workload::{AllocSpec, KernelSpec, Phase, SharedIndex, Workload, WorkloadBuilder};
