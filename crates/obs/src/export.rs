//! Exporters: Chrome trace-event JSON and a per-phase text breakdown.

use gps_types::{Cycle, Json};

use crate::probe::Track;
use crate::recorder::{SeriesKind, Telemetry, BUCKET_CYCLES};

/// Simulated cycles per Chrome-trace microsecond. The trace format carries
/// timestamps in µs; dividing by 1000 renders one "millisecond" per million
/// cycles, a comfortable zoom level in Perfetto for paper-scale runs.
const CYCLES_PER_US: f64 = 1000.0;

fn us(c: Cycle) -> f64 {
    c.as_u64() as f64 / CYCLES_PER_US
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// Renders a [`Telemetry`] as a Chrome trace-event document — an object
/// with a `traceEvents` array loadable in `chrome://tracing` and Perfetto.
///
/// Mapping: each [`Track`] becomes a trace *process* (`pid`, named via a
/// `process_name` metadata event); spans become complete (`ph:"X"`) events
/// with `ts`/`dur` in trace-µs (cycles / 1000); counter and gauge series
/// become one counter (`ph:"C"`) event per non-zero bucket.
pub fn chrome_trace(telemetry: &Telemetry) -> Json {
    let mut events = Vec::new();

    // Name each track's swimlane. Tracks are discovered from whatever the
    // recording actually touched, so empty tracks never clutter the view.
    let mut tracks: Vec<Track> = telemetry
        .all_series()
        .map(|s| s.track)
        .chain(telemetry.spans.iter().map(|s| s.track))
        .collect();
    tracks.sort();
    tracks.dedup();
    for track in &tracks {
        events.push(obj(vec![
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(f64::from(track.id()))),
            ("tid", Json::Num(0.0)),
            ("args", obj(vec![("name", Json::Str(track.label()))])),
        ]));
    }

    for span in &telemetry.spans {
        let dur = span.duration() as f64 / CYCLES_PER_US;
        events.push(obj(vec![
            ("name", Json::Str(span.name.clone())),
            ("cat", Json::Str(span.cat.into())),
            (
                "ph",
                Json::Str(if span.cat == "mark" { "i" } else { "X" }.into()),
            ),
            ("pid", Json::Num(f64::from(span.track.id()))),
            ("tid", Json::Num(0.0)),
            ("ts", Json::Num(us(span.start))),
            ("dur", Json::Num(dur)),
        ]));
    }

    for data in telemetry.all_series() {
        for (t, v) in data.series.points() {
            events.push(obj(vec![
                ("name", Json::Str(data.name.into())),
                ("ph", Json::Str("C".into())),
                ("pid", Json::Num(f64::from(data.track.id()))),
                ("tid", Json::Num(0.0)),
                ("ts", Json::Num(us(t))),
                ("args", obj(vec![(data.name, Json::Num(v))])),
            ]));
        }
    }

    obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
        (
            "otherData",
            obj(vec![
                ("bucket_cycles", Json::Num(BUCKET_CYCLES as f64)),
                ("dropped_spans", Json::Num(telemetry.dropped_spans as f64)),
            ]),
        ),
    ])
}

/// Renders a per-phase text breakdown: one block per `phase` span giving
/// its cycle range and, for every counter series, the amount accumulated
/// inside that phase (buckets attribute to the phase containing their
/// start).
pub fn phase_breakdown(telemetry: &Telemetry) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let phases: Vec<_> = telemetry.spans_of("phase").collect();
    if phases.is_empty() {
        out.push_str("no phase spans recorded\n");
        return out;
    }
    if telemetry.dropped_spans > 0 {
        let _ = writeln!(
            out,
            "warning: {} spans dropped from the bounded ring; early phases may be missing",
            telemetry.dropped_spans
        );
    }
    for phase in phases {
        let _ = writeln!(
            out,
            "{} [{} .. {}) = {} cycles",
            phase.name,
            phase.start.as_u64(),
            phase.end.as_u64(),
            phase.duration()
        );
        for data in &telemetry.counters {
            if data.kind != SeriesKind::Counter {
                continue;
            }
            let amount = data.series.sum_range(phase.start, phase.end);
            if amount != 0.0 {
                let _ = writeln!(
                    out,
                    "  {:<10} {:<22} {}",
                    data.track.label(),
                    data.name,
                    amount
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::Probe;
    use crate::recorder::Recorder;

    /// `n` tenths of a series bucket.
    fn at(tenths: u64) -> Cycle {
        Cycle::new(tenths * BUCKET_CYCLES / 10)
    }

    fn sample_telemetry() -> Telemetry {
        let mut r = Recorder::new();
        r.span(Track::SYSTEM, "phase 0", "phase", Cycle::ZERO, at(20));
        r.span(Track::SYSTEM, "phase 1", "phase", at(20), at(50));
        r.span(Track::gpu(0), "mv", "kernel", Cycle::ZERO, at(18));
        r.instant(Track::SYSTEM, "barrier", at(20));
        r.counter(Track::gpu(0), "link_egress_bytes", at(5), 77.0);
        r.counter(Track::gpu(0), "link_egress_bytes", at(25), 333.0);
        r.gauge(Track::gpu(1), "rwq_occupancy", at(12), 3.0);
        r.finish()
    }

    #[test]
    fn trace_roundtrips_and_has_complete_events() {
        let doc = chrome_trace(&sample_telemetry());
        let parsed = Json::parse(&doc.emit()).expect("trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("X"), 3, "phase+kernel complete events");
        assert_eq!(count("C"), 3, "one per non-zero bucket");
        assert_eq!(count("i"), 1, "barrier instant");
        // Tracks touched: system, gpu0, gpu1 -> three metadata events.
        assert_eq!(count("M"), 3);
        // µs conversion: phase 1 starts at cycle 8192 -> ts 8.192.
        let phase1 = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("phase 1"))
            .unwrap();
        assert_eq!(phase1.get("ts").and_then(Json::as_f64), Some(8.192));
        assert_eq!(phase1.get("dur").and_then(Json::as_f64), Some(12.288));
    }

    #[test]
    fn trace_escapes_hostile_span_names() {
        // Span names are free-form (kernels label themselves), so the
        // exporter must route every name through the JSON codec: quotes,
        // backslashes and control characters may not corrupt the document.
        let hostile = "mv \"fused\"\\\u{1}\n\ttail";
        let mut r = Recorder::new();
        r.span(
            Track::gpu(0),
            hostile,
            "kernel",
            Cycle::ZERO,
            Cycle::new(10),
        );
        let doc = chrome_trace(&r.finish());
        let parsed = Json::parse(&doc.emit()).expect("hostile names stay valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .expect("the span survived");
        assert_eq!(
            span.get("name").and_then(Json::as_str),
            Some(hostile),
            "name round-trips exactly"
        );
    }

    #[test]
    fn breakdown_attributes_counters_to_phases() {
        let text = phase_breakdown(&sample_telemetry());
        assert!(text.contains("phase 0 [0 .. 8192) = 8192 cycles"));
        assert!(text.contains("phase 1 [8192 .. 20480) = 12288 cycles"));
        // 77 bytes land in phase 0's range, 333 in phase 1's.
        let p0 = text.find("phase 0").unwrap();
        let p1 = text.find("phase 1").unwrap();
        let phase0_block = &text[p0..p1];
        assert!(phase0_block.contains("link_egress_bytes"));
        assert!(phase0_block.contains("77"));
        assert!(!phase0_block.contains("333"));
        assert!(text[p1..].contains("333"));
    }

    #[test]
    fn breakdown_without_phases_is_explicit() {
        let t = Recorder::new().finish();
        assert!(phase_breakdown(&t).contains("no phase spans"));
    }
}
