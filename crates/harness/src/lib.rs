//! # gps-harness — resumable, failure-isolated experiment orchestration
//!
//! The evaluation of the GPS paper (MICRO '21) is a large cross product:
//! applications × memory paradigms × GPU counts × interconnect generations
//! × problem scales. This crate turns such a sweep into a deterministic,
//! restartable batch job:
//!
//! - **Content-addressed runs** ([`key`]): every run is identified by a
//!   stable hash of everything that determines its result, so a result
//!   store never serves stale data after a config change.
//! - **Durable results** ([`store`]): each finished run is appended to a
//!   JSON-lines store and flushed immediately; a torn trailing line from a
//!   killed process is tolerated on load.
//! - **Resume** ([`sweep`]): a sweep subtracts completed keys from its job
//!   set before executing — interrupting and re-invoking a sweep only pays
//!   for what has not finished.
//! - **Failure isolation** ([`pool`]): each run executes under
//!   `catch_unwind` with bounded retries; a panicking configuration is
//!   quarantined and reported, never aborting sibling jobs.
//!
//! The `gps-run` binary exposes this as a CLI (`sweep`, `resume`,
//! `serve`, `report`, `timeline`, `gc`, `lint`); the `gps-bench` crate
//! builds the paper's figures on top of the same machinery. The
//! simulator's host-time benchmark is the repository benchmark under
//! `benchmark/`, not part of this crate.

#![warn(missing_docs)]

pub mod html;
pub mod key;
pub mod pool;
pub mod runner;
pub mod serve;
pub mod store;
pub mod sweep;
pub mod telemetry;

pub use html::{html_report, write_html_report};
pub use key::{run_key, run_key_default_machine, serve_key};
pub use pool::{parallel_map, run_jobs, JobResult};
pub use runner::{
    baseline, geomean, measure, measure_probed, measure_with_policy, speedup,
    steady_cycles_per_iteration, steady_traffic_per_iteration, Measurement, RunSpec,
};
pub use serve::{
    run_serve, run_serve_telemetry, serve_record, serve_telemetry_summary, ServeTelemetryPaths,
};
pub use store::{ResultStore, RunRecord, RunStatus, STORE_VERSION};
pub use sweep::{run_sweep, run_units, RunUnit, SweepOptions, SweepOutcome, SweepSpec};
pub use telemetry::{
    recording_probe, timeline, validate_chrome_trace, write_run_telemetry, TelemetryPaths,
    TimelineOutput, TraceStats,
};
