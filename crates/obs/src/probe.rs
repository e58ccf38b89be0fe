//! The probe sink interface and the shared, clonable [`ProbeHandle`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use gps_types::Cycle;

use crate::recorder::{Recorder, Telemetry};
use crate::ring::SpanEvent;
use crate::sink::Sink;

/// First track id of the per-tenant lane space (see [`Track::tenant`]).
const TENANT_BASE: u32 = 1 << 16;

/// A row of the timeline: the whole system, one GPU, or one tenant lane.
///
/// Tracks map to Chrome trace-event *processes*, so every GPU gets its own
/// swimlane in `chrome://tracing`/Perfetto and per-GPU series with the same
/// name (`"dram_read_bytes"` on every GPU) stay distinguishable without
/// allocating per-GPU metric names. Tenant lanes live in a disjoint id
/// range above the GPUs, so a serving run can carry per-GPU *and*
/// per-tenant series side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Track(u32);

impl Track {
    /// The system-wide track (phase spans, barriers).
    pub const SYSTEM: Track = Track(0);

    /// The track of GPU `index`.
    pub const fn gpu(index: usize) -> Track {
        Track(1 + index as u32)
    }

    /// The track of tenant lane `index` (serving-mix position): per-tenant
    /// in-flight gauges and sojourn histograms in `gps-serve`.
    pub const fn tenant(index: usize) -> Track {
        Track(TENANT_BASE + index as u32)
    }

    /// Stable numeric id (Chrome trace `pid`).
    pub const fn id(self) -> u32 {
        self.0
    }

    /// Human-readable row label (`system`, `gpu0`, ..., `tenant0`, ...).
    pub fn label(self) -> String {
        if self.0 == 0 {
            "system".to_owned()
        } else if self.0 >= TENANT_BASE {
            format!("tenant{}", self.0 - TENANT_BASE)
        } else {
            format!("gpu{}", self.0 - 1)
        }
    }
}

/// A telemetry sink. Every method has a no-op default, so a sink only
/// implements the signals it cares about; [`NoopProbe`] implements none and
/// compiles down to nothing.
///
/// Determinism contract: probes *observe* the simulation and must never
/// feed back into it — the instrumented components call sinks with copies
/// of already-computed values and ignore any sink state. Enabling a probe
/// therefore cannot perturb a `SimReport`.
pub trait Probe: Send {
    /// Adds `delta` to the cycle-bucketed counter series `name` on `track`
    /// at time `now` (monotone accumulations: bytes moved, misses taken).
    fn counter(&mut self, track: Track, name: &'static str, now: Cycle, delta: f64) {
        let _ = (track, name, now, delta);
    }

    /// Samples the instantaneous level `value` of gauge series `name`
    /// (occupancies, queue depths); the last sample per bucket wins.
    fn gauge(&mut self, track: Track, name: &'static str, now: Cycle, value: f64) {
        let _ = (track, name, now, value);
    }

    /// Records a completed span `[start, end)` (kernels, phases, drains).
    fn span(&mut self, track: Track, name: &str, cat: &'static str, start: Cycle, end: Cycle) {
        let _ = (track, name, cat, start, end);
    }

    /// Records a point event (barriers, collapses).
    fn instant(&mut self, track: Track, name: &'static str, now: Cycle) {
        let _ = (track, name, now);
    }

    /// Records one integer sample (a sojourn time, a queue wait) into the
    /// power-of-two latency histogram `name` on `track`; `now` timestamps
    /// the observation for streaming sinks.
    fn latency(&mut self, track: Track, name: &'static str, now: Cycle, value: u64) {
        let _ = (track, name, now, value);
    }
}

/// The do-nothing sink: every hook inherits the empty default body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

/// One emission in transit: what a buffering [`ProbeHandle`] queues until
/// [`ProbeHandle::replay_merged`] re-emits it, and what every handle hands
/// its target. Field meanings match the [`Probe`] methods exactly.
///
/// `Copy` and 40 bytes: a span's name is free-form, so a span travels out
/// of line as an index into a [`SpanEvent`] table beside the records.
#[derive(Debug, Clone, Copy)]
enum Record {
    /// A [`Probe::counter`] call.
    Counter {
        track: Track,
        name: &'static str,
        now: Cycle,
        delta: f64,
    },
    /// A [`Probe::gauge`] call.
    Gauge {
        track: Track,
        name: &'static str,
        now: Cycle,
        value: f64,
    },
    /// A [`Probe::instant`] call.
    Instant {
        track: Track,
        name: &'static str,
        now: Cycle,
    },
    /// A [`Probe::latency`] call.
    Latency {
        track: Track,
        name: &'static str,
        now: Cycle,
        value: u64,
    },
    /// A [`Probe::span`] call: the span at this index of the table that
    /// travels with the record.
    Span(usize),
}

impl Record {
    /// Re-emits this call into `p`, reading a span from `spans`.
    #[inline]
    fn replay_into<P: Probe + ?Sized>(self, p: &mut P, spans: &[SpanEvent]) {
        match self {
            Record::Counter {
                track,
                name,
                now,
                delta,
            } => p.counter(track, name, now, delta),
            Record::Gauge {
                track,
                name,
                now,
                value,
            } => p.gauge(track, name, now, value),
            Record::Instant { track, name, now } => p.instant(track, name, now),
            Record::Latency {
                track,
                name,
                now,
                value,
            } => p.latency(track, name, now, value),
            Record::Span(index) => {
                if let Some(s) = spans.get(index) {
                    p.span(s.track, &s.name, s.cat, s.start, s.end);
                }
            }
        }
    }
}

/// A run of consecutive buffered records that share one merge tag:
/// `records[start..end]` of its [`LaneBuffer`].
#[derive(Debug, Clone, Copy)]
struct TagRun {
    tag: u64,
    start: usize,
    end: usize,
}

/// The queue behind a buffering handle: records in emission order, the
/// runs of equal merge tags over them, and the out-of-line spans.
///
/// The buffer is cleared, not freed, after each replay, so a lane reuses
/// its capacity from phase to phase instead of regrowing it.
#[derive(Debug, Default)]
struct LaneBuffer {
    records: Vec<Record>,
    runs: Vec<TagRun>,
    spans: Vec<SpanEvent>,
}

impl LaneBuffer {
    /// Queues `record` under `tag`; a span record's payload is copied from
    /// `spans` into this buffer's own table.
    #[inline]
    fn push(&mut self, tag: u64, record: Record, spans: &[SpanEvent]) {
        let record = match record {
            Record::Span(index) => {
                let Some(span) = spans.get(index) else {
                    return;
                };
                self.spans.push(span.clone());
                Record::Span(self.spans.len() - 1)
            }
            other => other,
        };
        let at = self.records.len();
        match self.runs.last_mut() {
            Some(run) if run.tag == tag => run.end = at + 1,
            _ => self.runs.push(TagRun {
                tag,
                start: at,
                end: at + 1,
            }),
        }
        self.records.push(record);
    }

    fn clear(&mut self) {
        self.records.clear();
        self.runs.clear();
        self.spans.clear();
    }
}

/// The run's side of an enabled handle: an optional in-memory
/// [`Recorder`] and any number of streaming [`Sink`]s, fed the same
/// emission stream.
struct Fanout {
    recorder: Option<Recorder>,
    sinks: Vec<Box<dyn Sink>>,
}

impl Fanout {
    #[inline]
    fn apply(&mut self, record: Record, spans: &[SpanEvent]) {
        if let Some(r) = &mut self.recorder {
            record.replay_into(r, spans);
        }
        for s in &mut self.sinks {
            record.replay_into(s.as_mut(), spans);
        }
    }
}

impl std::fmt::Debug for Fanout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fanout")
            .field("recorder", &self.recorder)
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

/// Where an enabled handle's emissions go.
#[derive(Debug)]
enum Target {
    /// Recorded and/or streamed as they arrive.
    Run(Box<Fanout>),
    /// Queued, tagged, for [`ProbeHandle::replay_merged`].
    Lane(LaneBuffer),
}

/// The state every clone of an enabled [`ProbeHandle`] shares.
#[derive(Debug)]
struct Shared {
    /// The merge tag stamped onto buffered records. Outside the mutex so
    /// that [`ProbeHandle::set_tag`], which a lane calls once per stepped
    /// event, is a plain store. `Relaxed` suffices: a lane's tag is only
    /// written and read by the thread currently driving that lane, and
    /// the lane pool's barriers order every hand-off between threads.
    tag: AtomicU64,
    target: Mutex<Target>,
}

impl Shared {
    fn new(target: Target) -> Arc<Self> {
        Arc::new(Self {
            tag: AtomicU64::new(0),
            target: Mutex::new(target),
        })
    }

    #[inline]
    fn lock(&self) -> MutexGuard<'_, Target> {
        // gps-lint: allow(no_expect) -- poison implies a prior panic; probes never panic themselves
        self.target.lock().expect("probe target lock")
    }

    // The atomic's methods are called by path: gps-lint's name-based call
    // graph would otherwise edge `.load`/`.store` to workspace methods of
    // those names.

    #[inline]
    fn tag(&self) -> u64 {
        AtomicU64::load(&self.tag, Ordering::Relaxed)
    }

    #[inline]
    fn set_tag(&self, tag: u64) {
        AtomicU64::store(&self.tag, tag, Ordering::Relaxed);
    }

    /// Records or streams one emission, or queues it under the current
    /// tag. Kept out of line: probe sites inline only the null check.
    fn emit(&self, record: Record, spans: &[SpanEvent]) {
        let tag = self.tag();
        match &mut *self.lock() {
            Target::Run(run) => run.apply(record, spans),
            Target::Lane(lane) => lane.push(tag, record, spans),
        }
    }
}

/// Feeds every record of `lanes` to `replay` in `(tag, lane, queue
/// position)` order: each lane's tag runs are stable-sorted by tag unless
/// they are tag-ordered already (a lane steps its events in time order, so
/// they normally are), then the lanes are k-way merged on `(tag, lane)`
/// through a heap of each lane's next `(tag, lane)`.
fn merge(lanes: &mut [&mut LaneBuffer], mut replay: impl FnMut(Record, &[SpanEvent])) {
    for lane in lanes.iter_mut() {
        if !lane.runs.is_sorted_by_key(|r| r.tag) {
            // Stable: equal tags keep their queue order.
            lane.runs.sort_by_key(|r| r.tag);
        }
    }
    let mut next = vec![0usize; lanes.len()];
    let mut heads: BinaryHeap<Reverse<(u64, usize)>> = lanes
        .iter()
        .enumerate()
        .filter_map(|(lane, b)| Some(Reverse((b.runs.first()?.tag, lane))))
        .collect();
    while let Some(Reverse((_, lane))) = heads.pop() {
        let (Some(b), Some(cursor)) = (lanes.get(lane), next.get_mut(lane)) else {
            continue;
        };
        // Replay this lane's runs for as long as they stay ahead of every
        // other lane's next emission.
        let bound = heads.peek().map(|h| h.0);
        while let Some(run) = b.runs.get(*cursor) {
            if bound.is_some_and(|bound| (run.tag, lane) >= bound) {
                heads.push(Reverse((run.tag, lane)));
                break;
            }
            for &record in b.records.get(run.start..run.end).unwrap_or_default() {
                replay(record, &b.spans);
            }
            *cursor += 1;
        }
    }
}

/// A clonable handle that instrumented components hold.
///
/// Disabled (the default) it is `None` inside: every emission is a single
/// predictable branch and no recorder, lock or allocation exists anywhere —
/// the price of having telemetry compiled in is one null check per probe
/// site. Enabled, all clones share one target behind a mutex: either the
/// run's in-memory [`Recorder`] and/or streaming [`Sink`]s, or — for a
/// per-GPU lane — a buffer of tagged 40-byte records. An emission builds
/// its record on the stack, takes the lock and hands the record over: the
/// recorder finds its series by the name's address, a lane pushes it. The
/// reference lane never contends the lock; on per-GPU lanes each lane
/// holds its *own* buffering handle, so the lock stays per-thread and
/// uncontended there too (it exists to keep the handle `Send` for the
/// harness worker pool and the lane threads). At each phase end the lane
/// engine hands every lane handle to the run's handle in one
/// [`replay_merged`](ProbeHandle::replay_merged) call.
#[derive(Debug, Clone, Default)]
pub struct ProbeHandle(Option<Arc<Shared>>);

impl ProbeHandle {
    /// The disabled handle: all emissions are no-ops.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// A recording handle with the given bucket width and span capacity.
    pub fn recording(bucket_cycles: u64, span_capacity: usize) -> Self {
        Self::recording_with_sinks(bucket_cycles, span_capacity, Vec::new())
    }

    /// A streaming handle: every emission goes to each sink, nothing is
    /// buffered in memory ([`finish`](ProbeHandle::finish) returns `None`).
    pub fn streaming(sinks: Vec<Box<dyn Sink>>) -> Self {
        Self(Some(Shared::new(Target::Run(Box::new(Fanout {
            recorder: None,
            sinks,
        })))))
    }

    /// A buffering handle for one per-GPU lane: every emission is queued
    /// as a 40-byte record under the lane's current
    /// [`set_tag`](ProbeHandle::set_tag) value instead of being recorded
    /// (span names are kept out of line). The coordinator later passes all
    /// lane handles to the run's handle's
    /// [`replay_merged`](ProbeHandle::replay_merged), which replays the
    /// records in place and clears the buffer for the next phase.
    pub fn buffering() -> Self {
        Self(Some(Shared::new(Target::Lane(LaneBuffer::default()))))
    }

    /// A handle that both records in memory and streams to `sinks`.
    pub fn recording_with_sinks(
        bucket_cycles: u64,
        span_capacity: usize,
        sinks: Vec<Box<dyn Sink>>,
    ) -> Self {
        Self(Some(Shared::new(Target::Run(Box::new(Fanout {
            recorder: Some(Recorder::new(bucket_cycles, span_capacity)),
            sinks,
        })))))
    }

    /// Whether emissions are recorded. Use to skip *preparing* expensive
    /// arguments (formatting names, diffing stats) — the emission methods
    /// already check internally.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    fn emit(&self, record: Record) {
        if let Some(shared) = &self.0 {
            shared.emit(record, &[]);
        }
    }

    /// Forwards to [`Probe::counter`] when enabled.
    #[inline]
    pub fn counter(&self, track: Track, name: &'static str, now: Cycle, delta: f64) {
        self.emit(Record::Counter {
            track,
            name,
            now,
            delta,
        });
    }

    /// Forwards to [`Probe::gauge`] when enabled.
    #[inline]
    pub fn gauge(&self, track: Track, name: &'static str, now: Cycle, value: f64) {
        self.emit(Record::Gauge {
            track,
            name,
            now,
            value,
        });
    }

    /// Forwards to [`Probe::span`] when enabled.
    #[inline]
    pub fn span(&self, track: Track, name: &str, cat: &'static str, start: Cycle, end: Cycle) {
        if let Some(shared) = &self.0 {
            let span = SpanEvent {
                track,
                name: name.to_owned(),
                cat,
                start,
                end,
            };
            shared.emit(Record::Span(0), std::slice::from_ref(&span));
        }
    }

    /// Forwards to [`Probe::instant`] when enabled.
    #[inline]
    pub fn instant(&self, track: Track, name: &'static str, now: Cycle) {
        self.emit(Record::Instant { track, name, now });
    }

    /// Forwards to [`Probe::latency`] when enabled.
    #[inline]
    pub fn latency(&self, track: Track, name: &'static str, now: Cycle, value: u64) {
        self.emit(Record::Latency {
            track,
            name,
            now,
            value,
        });
    }

    /// Sets the merge tag stamped onto subsequent buffered emissions (the
    /// simulated time of the event the lane is about to step). A lock-free
    /// store; a non-buffering handle ignores the tag.
    #[inline]
    pub fn set_tag(&self, tag: u64) {
        if let Some(shared) = &self.0 {
            shared.set_tag(tag);
        }
    }

    /// Drains every buffering handle in `lanes` and replays the union of
    /// their emissions into this handle in `(tag, lane, queue position)`
    /// order, where `lane` is the handle's position in `lanes`. The result
    /// does not depend on how the lanes' emissions interleaved in host
    /// time. Non-buffering handles in `lanes` — this handle included —
    /// contribute nothing.
    ///
    /// The merge streams by reference (the private `merge`): every record goes
    /// straight from its lane's buffer into this handle's target, under
    /// one lock of each. The lane buffers are cleared, keeping their
    /// capacity.
    pub fn replay_merged<'a>(&self, lanes: impl IntoIterator<Item = &'a ProbeHandle>) {
        let mut locked: Vec<&Shared> = Vec::new();
        for shared in lanes.into_iter().filter_map(|h| h.0.as_deref()) {
            let is_self = self.0.as_deref().is_some_and(|me| std::ptr::eq(me, shared));
            if !is_self && !locked.iter().any(|l| std::ptr::eq(*l, shared)) {
                locked.push(shared);
            }
        }
        let mut guards: Vec<MutexGuard<'_, Target>> = locked.iter().map(|l| l.lock()).collect();
        let mut buffers: Vec<&mut LaneBuffer> = guards
            .iter_mut()
            .filter_map(|g| match &mut **g {
                Target::Lane(lane) => Some(lane),
                Target::Run(_) => None,
            })
            .collect();
        if let Some(shared) = self.0.as_deref() {
            let tag = shared.tag();
            match &mut *shared.lock() {
                Target::Run(run) => merge(&mut buffers, |r, spans| run.apply(r, spans)),
                Target::Lane(lane) => merge(&mut buffers, |r, spans| lane.push(tag, r, spans)),
            }
        }
        for lane in buffers {
            lane.clear();
        }
    }

    /// Extracts everything the in-memory recorder captured so far,
    /// resetting it. Returns `None` for a disabled, purely streaming or
    /// buffering handle. Attached sinks are unaffected — close them
    /// separately with [`close_sinks`](ProbeHandle::close_sinks).
    pub fn finish(&self) -> Option<Telemetry> {
        let mut guard = self.0.as_deref()?.lock();
        let Target::Run(run) = &mut *guard else {
            return None;
        };
        Some(run.recorder.as_mut()?.take().finish())
    }

    /// Closes and detaches every attached sink (format trailers, flush),
    /// returning the first I/O error any sink latched. A second call — or
    /// a call on a disabled/recorder-only handle — is a no-op.
    ///
    /// # Errors
    ///
    /// Returns the first latched or trailing write error across the sinks.
    pub fn close_sinks(&self) -> io::Result<()> {
        let Some(shared) = self.0.as_deref() else {
            return Ok(());
        };
        let mut sinks = match &mut *shared.lock() {
            Target::Run(run) => std::mem::take(&mut run.sinks),
            Target::Lane(_) => Vec::new(),
        };
        let mut first_err = None;
        for sink in &mut sinks {
            if let Err(e) = sink.close() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::JsonlSink;
    use std::io::Write;

    #[test]
    fn tracks_are_stable_and_labelled() {
        assert_eq!(Track::SYSTEM.id(), 0);
        assert_eq!(Track::gpu(0).id(), 1);
        assert_eq!(Track::gpu(3).label(), "gpu3");
        assert_eq!(Track::SYSTEM.label(), "system");
        assert!(Track::gpu(0) > Track::SYSTEM);
        assert_eq!(Track::tenant(0).label(), "tenant0");
        assert_eq!(Track::tenant(2).label(), "tenant2");
        // Tenant lanes never collide with any plausible GPU index.
        assert!(Track::tenant(0) > Track::gpu(60_000));
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = ProbeHandle::disabled();
        assert!(!h.is_enabled());
        h.counter(Track::SYSTEM, "x", Cycle::ZERO, 1.0);
        h.span(Track::SYSTEM, "s", "cat", Cycle::ZERO, Cycle::new(5));
        h.latency(Track::SYSTEM, "l", Cycle::ZERO, 9);
        assert!(h.finish().is_none());
        assert!(h.close_sinks().is_ok());
    }

    #[test]
    fn noop_probe_accepts_everything() {
        let mut p = NoopProbe;
        p.counter(Track::SYSTEM, "x", Cycle::ZERO, 1.0);
        p.gauge(Track::SYSTEM, "x", Cycle::ZERO, 1.0);
        p.span(Track::SYSTEM, "s", "c", Cycle::ZERO, Cycle::ZERO);
        p.instant(Track::SYSTEM, "i", Cycle::ZERO);
        p.latency(Track::SYSTEM, "l", Cycle::ZERO, 1);
    }

    #[test]
    fn clones_share_one_recorder() {
        let h = ProbeHandle::recording(100, 16);
        let h2 = h.clone();
        h.counter(Track::SYSTEM, "bytes", Cycle::new(50), 1.0);
        h2.counter(Track::SYSTEM, "bytes", Cycle::new(150), 2.0);
        let t = h.finish().unwrap();
        assert_eq!(t.counters.len(), 1);
        assert_eq!(t.counters[0].series.total(), 3.0);
        // finish() resets: a second finish sees an empty recorder.
        let t2 = h2.finish().unwrap();
        assert!(t2.counters.is_empty());
    }

    #[derive(Clone, Default)]
    struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn recorder_and_sink_see_the_same_stream() {
        let buf = Shared::default();
        let h =
            ProbeHandle::recording_with_sinks(100, 16, vec![Box::new(JsonlSink::new(buf.clone()))]);
        h.counter(Track::gpu(1), "bytes", Cycle::new(5), 64.0);
        h.latency(Track::tenant(0), "sojourn", Cycle::new(9), 31);
        let t = h.finish().unwrap();
        assert_eq!(t.counters.len(), 1);
        assert_eq!(t.hists.len(), 1);
        h.close_sinks().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"k\":\"counter\""));
        assert!(text.contains("\"k\":\"latency\""));
        assert!(text.contains("\"k\":\"summary\""));
        // Sinks are detached after close: further closes are no-ops.
        h.close_sinks().unwrap();
    }

    /// The merge tag of every record a handle has queued, in queue order
    /// (empty for a non-buffering handle).
    fn queued_tags(h: &ProbeHandle) -> Vec<u64> {
        let Some(shared) = h.0.as_deref() else {
            return Vec::new();
        };
        match &*shared.lock() {
            Target::Lane(lane) => lane
                .runs
                .iter()
                .flat_map(|r| (r.start..r.end).map(move |_| r.tag))
                .collect(),
            Target::Run(_) => Vec::new(),
        }
    }

    #[test]
    fn lane_records_are_copy_and_at_most_40_bytes() {
        fn is_copy<T: Copy>() {}
        is_copy::<Record>();
        assert!(
            std::mem::size_of::<Record>() <= 40,
            "{} bytes",
            std::mem::size_of::<Record>()
        );
    }

    #[test]
    fn buffering_handle_queues_tagged_emissions_for_replay() {
        let lane = ProbeHandle::buffering();
        assert!(lane.is_enabled());
        lane.set_tag(7);
        lane.counter(Track::gpu(0), "bytes", Cycle::new(700), 64.0);
        lane.gauge(Track::gpu(0), "occ", Cycle::new(700), 2.0);
        lane.set_tag(9);
        lane.span(Track::gpu(0), "mv", "kernel", Cycle::ZERO, Cycle::new(900));
        assert_eq!(queued_tags(&lane), vec![7, 7, 9]);
        // Nothing was recorded: a lane has no recorder.
        assert!(lane.finish().is_none());

        // Replaying into a recording handle lands the events for real and
        // clears the lane.
        let master = ProbeHandle::recording(100, 16);
        master.replay_merged([&lane]);
        assert!(queued_tags(&lane).is_empty(), "replay drains the lane");
        let t = master.finish().unwrap();
        assert_eq!(t.counters.len(), 1);
        assert_eq!(t.counters[0].series.total(), 64.0);
        assert_eq!(t.gauges.len(), 1);
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].name, "mv");
        // The cleared lane queues afresh, spans included.
        lane.span(Track::gpu(0), "mv2", "kernel", Cycle::ZERO, Cycle::new(5));
        master.replay_merged([&lane]);
        assert_eq!(master.finish().unwrap().spans[0].name, "mv2");
    }

    #[test]
    fn set_tag_and_drain_are_noops_on_other_handles() {
        let h = ProbeHandle::recording(100, 16);
        h.set_tag(3);
        h.counter(Track::SYSTEM, "x", Cycle::ZERO, 1.0);
        assert!(queued_tags(&h).is_empty());
        // A non-buffering lane contributes nothing, even when it is the
        // replay target itself.
        h.replay_merged([&h, &ProbeHandle::disabled()]);
        assert_eq!(h.finish().unwrap().counters.len(), 1);
        let d = ProbeHandle::disabled();
        d.set_tag(3);
        assert!(queued_tags(&d).is_empty());
        let lane = ProbeHandle::buffering();
        lane.instant(Track::SYSTEM, "barrier", Cycle::ZERO);
        d.replay_merged([&lane, &lane]);
        assert!(queued_tags(&lane).is_empty(), "drained even when disabled");
    }

    #[test]
    fn replay_into_a_buffering_handle_requeues_under_its_tag() {
        let (lane, outer) = (ProbeHandle::buffering(), ProbeHandle::buffering());
        lane.set_tag(1);
        lane.span(Track::gpu(0), "k", "kernel", Cycle::ZERO, Cycle::new(4));
        lane.counter(Track::gpu(0), "bytes", Cycle::ZERO, 1.0);
        outer.set_tag(5);
        // A lane listed twice, and the target itself, are not locked twice.
        outer.replay_merged([&lane, &outer, &lane]);
        assert!(queued_tags(&lane).is_empty());
        assert_eq!(queued_tags(&outer), vec![5, 5]);
        let master = ProbeHandle::recording(100, 16);
        master.replay_merged([&outer]);
        let t = master.finish().unwrap();
        assert_eq!((t.spans.len(), t.counters.len()), (1, 1));
        assert_eq!(t.spans[0].name, "k");
    }

    /// One scripted emission: `(lane, tag, kind, value)`. The value makes
    /// every emission distinguishable in the sink's output.
    type Scripted = (usize, u64, u8, u64);

    fn emit_scripted(h: &ProbeHandle, kind: u8, value: u64) {
        let (track, now) = (Track::gpu(value as usize % 3), Cycle::new(value));
        match kind % 5 {
            0 => h.counter(track, "c", now, value as f64),
            1 => h.gauge(track, "g", now, value as f64),
            2 => h.span(track, &format!("s{value}"), "k", now, Cycle::new(value + 2)),
            3 => h.instant(track, "i", now),
            _ => h.latency(track, "l", now, value),
        }
    }

    fn jsonl_stream(feed: impl FnOnce(&ProbeHandle)) -> String {
        let buf = Shared::default();
        let h = ProbeHandle::streaming(vec![Box::new(JsonlSink::new(buf.clone()))]);
        feed(&h);
        h.close_sinks().unwrap();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    /// `replay_merged` against the order it replaces: a stable sort of
    /// every lane's buffer concatenated, by `(tag, lane, queue position)`.
    fn assert_merge_matches_oracle(lane_count: usize, script: &[Scripted]) {
        let lanes: Vec<ProbeHandle> = (0..lane_count).map(|_| ProbeHandle::buffering()).collect();
        for &(lane, tag, kind, value) in script {
            lanes[lane].set_tag(tag);
            emit_scripted(&lanes[lane], kind, value);
        }
        let merged = jsonl_stream(|h| h.replay_merged(&lanes));

        let mut oracle: Vec<(u64, usize, usize, u8, u64)> = script
            .iter()
            .enumerate()
            .map(|(seq, &(lane, tag, kind, value))| (tag, lane, seq, kind, value))
            .collect();
        oracle.sort_by_key(|o| (o.0, o.1, o.2));
        let expected = jsonl_stream(|h| {
            for &(_, _, _, kind, value) in &oracle {
                emit_scripted(h, kind, value);
            }
        });
        assert_eq!(merged, expected, "script {script:?}");
        assert_eq!(
            merged.lines().count(),
            script.len() + 1,
            "plus the summary line"
        );
    }

    #[test]
    fn replay_merged_matches_the_sorted_concatenation() {
        // Equal tags across lanes, an empty lane (1), a lane whose tags are
        // not monotone (3) and a lane with one repeated tag (2).
        let script: Vec<Scripted> = vec![
            (0, 1, 0, 10),
            (3, 5, 1, 11),
            (0, 3, 2, 12),
            (2, 3, 3, 13),
            (3, 1, 4, 14),
            (0, 3, 0, 15),
            (2, 3, 1, 16),
            (3, 3, 2, 17),
            (3, 1, 3, 18),
            (0, 5, 4, 19),
            (2, 3, 0, 20),
        ];
        assert_merge_matches_oracle(4, &script);
        assert_merge_matches_oracle(4, &[]);
        assert_merge_matches_oracle(1, &script[..1]);

        // Seeded random scripts: many lanes, few distinct tags (so ties
        // are common), monotone and non-monotone lanes mixed.
        let mut rng = gps_types::rng::SmallRng::seed_from_u64(0x5eed);
        for _ in 0..200 {
            let lane_count = rng.gen_range_usize(1..17);
            let monotone = rng.gen_bool(0.5);
            let mut clock = vec![0u64; lane_count];
            let script: Vec<Scripted> = (0..rng.gen_range(0..120))
                .map(|value| {
                    let lane = rng.gen_range_usize(0..lane_count);
                    let tag = if monotone {
                        clock[lane] += rng.gen_range(0..3);
                        clock[lane]
                    } else {
                        rng.gen_range(0..8)
                    };
                    (lane, tag, rng.gen_range(0..5) as u8, value)
                })
                .collect();
            assert_merge_matches_oracle(lane_count, &script);
        }
    }

    #[test]
    fn streaming_handle_has_no_recorder() {
        let buf = Shared::default();
        let h = ProbeHandle::streaming(vec![Box::new(JsonlSink::new(buf.clone()))]);
        assert!(h.is_enabled());
        h.gauge(Track::SYSTEM, "depth", Cycle::ZERO, 1.0);
        assert!(h.finish().is_none());
        h.close_sinks().unwrap();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"k\":\"gauge\""));
    }
}
