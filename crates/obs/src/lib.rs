//! `gps-obs`: cycle-resolved telemetry for the GPS simulator.
//!
//! The simulator's [`SimReport`](../gps_sim) aggregates are end-of-run
//! totals; this crate adds the *time axis*. Instrumented components hold a
//! clonable [`ProbeHandle`] and emit five kinds of signal:
//!
//! * **counters** — cycle-bucketed accumulations ([`TimeSeries`]): bytes
//!   per link, RWQ stores/coalesces, TLB hits/misses;
//! * **gauges** — sampled levels: RWQ occupancy, serve queue depth;
//! * **spans** — `[start, end)` intervals in a bounded [`EventRing`]:
//!   kernels, phases, drains, served jobs;
//! * **instants** — point events: barriers;
//! * **latencies** — integer samples collected into power-of-two
//!   [`Histogram`]s: per-tenant sojourn times.
//!
//! Disabled (the default), a handle is a `None` and every emission is one
//! predictable branch — no recorder, lock or allocation exists. Probes
//! observe copies of already-computed values and never feed back into the
//! simulation, so enabling one cannot change a `SimReport`.
//!
//! Counters that tick on every simulated access (TLB lookups, DRAM and
//! link bytes) skip the handle: their owners sum them per bucket in
//! [`BucketSums`], and the engine hands the sums to the run's probe once
//! per phase, one counter call per touched bucket. The recorded series
//! are the same numbers (see [`BucketSums`] for why), but a streaming
//! sink attached to a simulator run sees those bucket sums at phase ends
//! instead of one call per access.
//!
//! A handle fans out to an in-memory [`Recorder`], to streaming [`Sink`]s
//! that write incrementally through a caller-supplied `io::Write`
//! ([`JsonlSink`], [`ChromeTraceSink`]), or to both at once. A finished
//! recording ([`Telemetry`]) exports as a Chrome trace-event document
//! ([`chrome_trace`], loadable in `chrome://tracing` / Perfetto) or a
//! per-phase text breakdown ([`phase_breakdown`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod names;
pub mod probe;
pub mod recorder;
pub mod ring;
pub mod series;
pub mod sink;

pub use export::{chrome_trace, phase_breakdown};
pub use hist::Histogram;
pub use probe::{Probe, ProbeHandle, Track};
pub use recorder::{
    HistData, Recorder, SeriesData, SeriesKind, Telemetry, BUCKET_CYCLES, SPAN_CAPACITY,
};
pub use ring::{EventRing, SpanEvent};
pub use series::{BucketSums, TimeSeries};
pub use sink::{ChromeTraceSink, JsonlSink, Sink};
