//! Streaming telemetry sinks: incremental writers behind [`ProbeHandle`].
//!
//! The in-memory [`Recorder`](crate::Recorder) answers "what happened?"
//! after a run finishes; a [`Sink`] answers it *while the run executes*,
//! writing each signal incrementally through a caller-supplied
//! [`io::Write`]. Two sinks ship with the crate:
//!
//! * [`JsonlSink`] — one self-describing JSON line per emission plus a
//!   closing summary line; the format the serve-loop determinism smoke
//!   diffs byte-for-byte across same-seed runs.
//! * [`ChromeTraceSink`] — a Chrome trace-event document streamed as
//!   events arrive (loadable in `chrome://tracing` / Perfetto), instead
//!   of being buffered whole in a `Recorder` first.
//!
//! Determinism contract: a sink receives exactly the deterministic
//! emission stream of the instrumented run, performs no reordering or
//! time-dependent formatting, and therefore produces byte-identical
//! output for identical runs. I/O errors never panic a run: the first
//! error is latched and reported by [`Sink::close`].
//!
//! [`ProbeHandle`]: crate::ProbeHandle

use std::collections::BTreeSet;
use std::io::{self, Write};

use gps_types::{Cycle, Json};

use crate::probe::{Probe, Track};

/// A streaming telemetry sink: a [`Probe`] that writes somewhere and must
/// be [`close`](Sink::close)d to flush buffered output and append any
/// trailer the format needs.
///
/// Emission methods cannot return errors (probe sites fire on the
/// simulator's hot path and must never unwind); implementations latch the
/// first I/O error instead and surface it from `close`.
pub trait Sink: Probe {
    /// Writes any format trailer, flushes, and returns the first I/O
    /// error encountered over the sink's whole lifetime. Emissions after
    /// `close` are discarded.
    ///
    /// # Errors
    ///
    /// Returns the latched write error, if any emission or the trailer
    /// failed to write.
    fn close(&mut self) -> io::Result<()>;
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Writes one JSON line per telemetry emission through a buffered writer.
///
/// Line shapes (`track` is the [`Track`] label, every name routed through
/// the shared `gps-types` JSON codec so quotes and backslashes always
/// escape correctly):
///
/// ```text
/// {"k":"counter","track":"gpu0","name":"tlb_hit","cycle":4096,"v":1}
/// {"k":"gauge","track":"system","name":"serve_queue_depth","cycle":9,"v":3}
/// {"k":"span","track":"tenant0","name":"jacobi","cat":"job","start":0,"end":10}
/// {"k":"instant","track":"system","name":"barrier","cycle":10}
/// {"k":"latency","track":"tenant0","name":"serve_sojourn_cycles","cycle":10,"v":7}
/// {"k":"summary","counters":9,"gauges":4,"spans":2,"instants":1,"latencies":2,"dropped_spans":0}
/// ```
///
/// The closing `summary` line makes truncation detectable (a torn file
/// has no summary) and carries `dropped_spans`: like the in-memory
/// recorder's bounded span ring, a sink constructed with
/// [`with_max_spans`](JsonlSink::with_max_spans) stops writing span lines
/// past the cap and counts the overflow instead of dropping it silently.
pub struct JsonlSink<W: Write + Send> {
    out: io::BufWriter<W>,
    error: Option<io::Error>,
    closed: bool,
    max_spans: Option<u64>,
    counters: u64,
    gauges: u64,
    spans: u64,
    instants: u64,
    latencies: u64,
    dropped_spans: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing every emission to `out`, spans unbounded.
    pub fn new(out: W) -> Self {
        Self {
            out: io::BufWriter::new(out),
            error: None,
            closed: false,
            max_spans: None,
            counters: 0,
            gauges: 0,
            spans: 0,
            instants: 0,
            latencies: 0,
            dropped_spans: 0,
        }
    }

    /// Caps span/instant lines at `max_spans`; overflow is counted in the
    /// summary's `dropped_spans` instead of written.
    pub fn with_max_spans(mut self, max_spans: u64) -> Self {
        self.max_spans = Some(max_spans);
        self
    }

    /// Spans and instants rejected by the
    /// [`with_max_spans`](JsonlSink::with_max_spans) cap so far.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    fn line(&mut self, value: &Json) {
        if self.closed || self.error.is_some() {
            return;
        }
        let mut text = value.emit();
        text.push('\n');
        if let Err(e) = self.out.write_all(text.as_bytes()) {
            self.error = Some(e);
        }
    }

    /// Whether another span/instant line may be written under the cap.
    fn admit_span(&mut self) -> bool {
        let admitted = self
            .max_spans
            .is_none_or(|cap| self.spans + self.instants < cap);
        if !admitted {
            self.dropped_spans += 1;
        }
        admitted
    }
}

impl<W: Write + Send> Probe for JsonlSink<W> {
    fn counter(&mut self, track: Track, name: &'static str, now: Cycle, delta: f64) {
        self.counters += 1;
        self.line(&obj(vec![
            ("k", Json::Str("counter".into())),
            ("track", Json::Str(track.label())),
            ("name", Json::Str(name.into())),
            ("cycle", Json::Num(now.as_u64() as f64)),
            ("v", Json::Num(delta)),
        ]));
    }

    fn gauge(&mut self, track: Track, name: &'static str, now: Cycle, value: f64) {
        self.gauges += 1;
        self.line(&obj(vec![
            ("k", Json::Str("gauge".into())),
            ("track", Json::Str(track.label())),
            ("name", Json::Str(name.into())),
            ("cycle", Json::Num(now.as_u64() as f64)),
            ("v", Json::Num(value)),
        ]));
    }

    fn span(&mut self, track: Track, name: &str, cat: &'static str, start: Cycle, end: Cycle) {
        if !self.admit_span() {
            return;
        }
        self.spans += 1;
        self.line(&obj(vec![
            ("k", Json::Str("span".into())),
            ("track", Json::Str(track.label())),
            ("name", Json::Str(name.to_owned())),
            ("cat", Json::Str(cat.into())),
            ("start", Json::Num(start.as_u64() as f64)),
            ("end", Json::Num(end.as_u64() as f64)),
        ]));
    }

    fn instant(&mut self, track: Track, name: &'static str, now: Cycle) {
        if !self.admit_span() {
            return;
        }
        self.instants += 1;
        self.line(&obj(vec![
            ("k", Json::Str("instant".into())),
            ("track", Json::Str(track.label())),
            ("name", Json::Str(name.into())),
            ("cycle", Json::Num(now.as_u64() as f64)),
        ]));
    }

    fn latency(&mut self, track: Track, name: &'static str, now: Cycle, value: u64) {
        self.latencies += 1;
        self.line(&obj(vec![
            ("k", Json::Str("latency".into())),
            ("track", Json::Str(track.label())),
            ("name", Json::Str(name.into())),
            ("cycle", Json::Num(now.as_u64() as f64)),
            ("v", Json::Num(value as f64)),
        ]));
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn close(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        let summary = obj(vec![
            ("k", Json::Str("summary".into())),
            ("counters", Json::Num(self.counters as f64)),
            ("gauges", Json::Num(self.gauges as f64)),
            ("spans", Json::Num(self.spans as f64)),
            ("instants", Json::Num(self.instants as f64)),
            ("latencies", Json::Num(self.latencies as f64)),
            ("dropped_spans", Json::Num(self.dropped_spans as f64)),
        ]);
        self.line(&summary);
        self.closed = true;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Simulated cycles per Chrome-trace microsecond, matching the batch
/// exporter in [`crate::export`].
const CYCLES_PER_US: f64 = 1000.0;

/// Streams a Chrome trace-event document (`chrome://tracing`, Perfetto)
/// as emissions arrive, instead of buffering a whole
/// [`Recorder`](crate::Recorder) first.
///
/// Differences from the batch [`chrome_trace`](crate::chrome_trace)
/// exporter, inherent to streaming: counter/gauge emissions become one
/// `ph:"C"` event each (no cycle-bucket aggregation), a track's
/// `process_name` metadata event is written at the track's first
/// appearance rather than up front, and latency samples are carried as
/// `ph:"C"` events too (a stream has no finished histogram to summarise).
/// Every name is routed through the shared `gps-types` JSON codec, so
/// names containing `"` or `\` stay valid trace JSON.
pub struct ChromeTraceSink<W: Write + Send> {
    out: io::BufWriter<W>,
    error: Option<io::Error>,
    closed: bool,
    wrote_prefix: bool,
    any_event: bool,
    tracks_seen: BTreeSet<u32>,
}

impl<W: Write + Send> ChromeTraceSink<W> {
    /// A sink streaming a trace document to `out`.
    pub fn new(out: W) -> Self {
        Self {
            out: io::BufWriter::new(out),
            error: None,
            closed: false,
            wrote_prefix: false,
            any_event: false,
            tracks_seen: BTreeSet::new(),
        }
    }

    fn write_raw(&mut self, text: &str) {
        if self.closed || self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.write_all(text.as_bytes()) {
            self.error = Some(e);
        }
    }

    fn event(&mut self, value: &Json) {
        if !self.wrote_prefix {
            self.write_raw("{\"traceEvents\":[\n");
            self.wrote_prefix = true;
        }
        let lead = if self.any_event { ",\n" } else { "" };
        self.any_event = true;
        let text = format!("{lead}{}", value.emit());
        self.write_raw(&text);
    }

    /// Emits the `process_name` metadata event the first time `track`
    /// appears, so every swimlane is labelled without pre-registration.
    fn ensure_track(&mut self, track: Track) {
        if !self.tracks_seen.insert(track.id()) {
            return;
        }
        self.event(&obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(f64::from(track.id()))),
            ("tid", Json::Num(0.0)),
            ("args", obj(vec![("name", Json::Str(track.label()))])),
        ]));
    }

    fn counter_event(&mut self, track: Track, name: &str, now: Cycle, value: f64) {
        self.ensure_track(track);
        self.event(&obj(vec![
            ("name", Json::Str(name.to_owned())),
            ("ph", Json::Str("C".into())),
            ("pid", Json::Num(f64::from(track.id()))),
            ("tid", Json::Num(0.0)),
            ("ts", Json::Num(now.as_u64() as f64 / CYCLES_PER_US)),
            ("args", obj(vec![(name, Json::Num(value))])),
        ]));
    }
}

impl<W: Write + Send> Probe for ChromeTraceSink<W> {
    fn counter(&mut self, track: Track, name: &'static str, now: Cycle, delta: f64) {
        self.counter_event(track, name, now, delta);
    }

    fn gauge(&mut self, track: Track, name: &'static str, now: Cycle, value: f64) {
        self.counter_event(track, name, now, value);
    }

    fn span(&mut self, track: Track, name: &str, cat: &'static str, start: Cycle, end: Cycle) {
        self.ensure_track(track);
        let dur = end.as_u64().saturating_sub(start.as_u64()) as f64 / CYCLES_PER_US;
        self.event(&obj(vec![
            ("name", Json::Str(name.to_owned())),
            ("cat", Json::Str(cat.into())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::Num(f64::from(track.id()))),
            ("tid", Json::Num(0.0)),
            ("ts", Json::Num(start.as_u64() as f64 / CYCLES_PER_US)),
            ("dur", Json::Num(dur)),
        ]));
    }

    fn instant(&mut self, track: Track, name: &'static str, now: Cycle) {
        self.ensure_track(track);
        self.event(&obj(vec![
            ("name", Json::Str(name.into())),
            ("cat", Json::Str("mark".into())),
            ("ph", Json::Str("i".into())),
            ("pid", Json::Num(f64::from(track.id()))),
            ("tid", Json::Num(0.0)),
            ("ts", Json::Num(now.as_u64() as f64 / CYCLES_PER_US)),
        ]));
    }

    fn latency(&mut self, track: Track, name: &'static str, now: Cycle, value: u64) {
        self.counter_event(track, name, now, value as f64);
    }
}

impl<W: Write + Send> Sink for ChromeTraceSink<W> {
    fn close(&mut self) -> io::Result<()> {
        if self.closed {
            return Ok(());
        }
        if !self.wrote_prefix {
            self.write_raw("{\"traceEvents\":[\n");
            self.wrote_prefix = true;
        }
        self.write_raw("\n],\"displayTimeUnit\":\"ms\"}\n");
        self.closed = true;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    /// A `Write` handing its bytes to a shared buffer, so tests can read
    /// what a sink wrote after the sink is boxed away.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drive(p: &mut dyn Probe) {
        p.counter(Track::gpu(0), "tlb_hit", Cycle::new(5), 2.0);
        p.gauge(Track::SYSTEM, "serve_queue_depth", Cycle::new(9), 3.0);
        p.span(Track::gpu(0), "mv", "kernel", Cycle::ZERO, Cycle::new(10));
        p.instant(Track::SYSTEM, "barrier", Cycle::new(10));
        p.latency(Track::tenant(0), "serve_sojourn_cycles", Cycle::new(10), 7);
    }

    #[test]
    fn jsonl_lines_parse_and_summarise() {
        let buf = Shared::default();
        let mut sink = JsonlSink::new(buf.clone());
        drive(&mut sink);
        sink.close().unwrap();
        let text = buf.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "five emissions + summary");
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("line {line:?}: {e}"));
        }
        let summary = Json::parse(lines[5]).unwrap();
        assert_eq!(summary.get("k").and_then(Json::as_str), Some("summary"));
        assert_eq!(summary.get("counters").and_then(Json::as_u64), Some(1));
        assert_eq!(summary.get("latencies").and_then(Json::as_u64), Some(1));
        assert_eq!(summary.get("dropped_spans").and_then(Json::as_u64), Some(0));
        assert!(lines[4].contains("tenant0"));
        // Close is idempotent and emissions after close are discarded.
        sink.counter(Track::gpu(0), "tlb_hit", Cycle::new(6), 1.0);
        sink.close().unwrap();
        assert_eq!(buf.text(), text);
    }

    #[test]
    fn jsonl_span_cap_counts_drops() {
        let buf = Shared::default();
        let mut sink = JsonlSink::new(buf.clone()).with_max_spans(2);
        for n in 0..5 {
            sink.span(
                Track::SYSTEM,
                "s",
                "phase",
                Cycle::new(n),
                Cycle::new(n + 1),
            );
        }
        sink.instant(Track::SYSTEM, "barrier", Cycle::new(9));
        assert_eq!(sink.dropped_spans(), 4);
        sink.close().unwrap();
        let text = buf.text();
        assert_eq!(text.matches("\"k\":\"span\"").count(), 2);
        assert!(text.contains("\"dropped_spans\":4"));
    }

    #[test]
    fn jsonl_escapes_hostile_names() {
        let buf = Shared::default();
        let mut sink = JsonlSink::new(buf.clone());
        sink.span(
            Track::SYSTEM,
            "evil \"quote\" and \\slash",
            "phase",
            Cycle::ZERO,
            Cycle::new(1),
        );
        sink.close().unwrap();
        for line in buf.text().lines() {
            let v = Json::parse(line).expect("hostile names stay valid JSON");
            if v.get("k").and_then(Json::as_str) == Some("span") {
                assert_eq!(
                    v.get("name").and_then(Json::as_str),
                    Some("evil \"quote\" and \\slash")
                );
            }
        }
    }

    #[test]
    fn chrome_stream_is_a_valid_trace() {
        let buf = Shared::default();
        let mut sink = ChromeTraceSink::new(buf.clone());
        drive(&mut sink);
        sink.close().unwrap();
        let doc = Json::parse(&buf.text()).expect("streamed trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        // Tracks: gpu0, system, tenant0 -> three metadata events.
        assert_eq!(count("M"), 3);
        assert_eq!(count("X"), 1);
        assert_eq!(count("i"), 1);
        // counter + gauge + latency all stream as ph:"C".
        assert_eq!(count("C"), 3);
    }

    #[test]
    fn chrome_stream_escapes_hostile_names_and_empty_close() {
        let buf = Shared::default();
        let mut sink = ChromeTraceSink::new(buf.clone());
        sink.span(
            Track::SYSTEM,
            "k\\er\"nel",
            "kernel",
            Cycle::ZERO,
            Cycle::new(2),
        );
        sink.close().unwrap();
        let doc = Json::parse(&buf.text()).expect("hostile names stay valid trace JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(span.get("name").and_then(Json::as_str), Some("k\\er\"nel"));

        // A never-fed sink still closes into a parseable document.
        let empty = Shared::default();
        let mut sink = ChromeTraceSink::new(empty.clone());
        sink.close().unwrap();
        let doc = Json::parse(&empty.text()).unwrap();
        assert_eq!(
            doc.get("traceEvents")
                .and_then(Json::as_arr)
                .map(<[_]>::len),
            Some(0)
        );
    }

    #[test]
    fn io_errors_latch_and_surface_at_close() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        // Emissions must not panic even though every write fails...
        drive(&mut sink);
        // ...and the close reports the latched error exactly once.
        assert!(sink.close().is_err());
        assert!(sink.close().is_ok(), "second close is a no-op");
    }
}
