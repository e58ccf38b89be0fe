//! The in-memory recorder and the finished [`Telemetry`] bundle.

use std::collections::BTreeMap;

use gps_types::Cycle;

use crate::hist::Histogram;
use crate::probe::{Probe, Track};
use crate::ring::{EventRing, SpanEvent};
use crate::series::TimeSeries;

/// Counter/gauge bucket width of every recording: 4096 cycles keeps even
/// paper-scale runs (tens of millions of cycles) to a few thousand buckets
/// per series.
pub const BUCKET_CYCLES: u64 = 4096;

/// Span-ring capacity of every recording; older spans are dropped and
/// counted ([`Telemetry::dropped_spans`]).
pub const SPAN_CAPACITY: usize = 65_536;

/// Whether a series accumulated deltas or sampled levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Per-bucket sums of deltas ([`Probe::counter`]).
    Counter,
    /// Last level sampled per bucket ([`Probe::gauge`]).
    Gauge,
}

/// One named, track-scoped series of a finished recording.
#[derive(Debug, Clone)]
pub struct SeriesData {
    /// Timeline row.
    pub track: Track,
    /// Metric name.
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: SeriesKind,
    /// The bucketed samples.
    pub series: TimeSeries,
}

/// One named, track-scoped latency histogram of a finished recording.
#[derive(Debug, Clone)]
pub struct HistData {
    /// Timeline row.
    pub track: Track,
    /// Metric name.
    pub name: &'static str,
    /// The power-of-two-bucketed samples.
    pub hist: Histogram,
}

/// Everything one recording captured, ready for export. Every series is
/// bucketed at [`BUCKET_CYCLES`].
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Counter series, ordered by `(track, name)`.
    pub counters: Vec<SeriesData>,
    /// Gauge series, ordered by `(track, name)`.
    pub gauges: Vec<SeriesData>,
    /// Latency histograms, ordered by `(track, name)`.
    pub hists: Vec<HistData>,
    /// Spans and instants, oldest first.
    pub spans: Vec<SpanEvent>,
    /// Spans evicted from the bounded ring (0 = complete).
    pub dropped_spans: u64,
}

impl Telemetry {
    /// All series, counters then gauges.
    pub fn all_series(&self) -> impl Iterator<Item = &SeriesData> {
        self.counters.iter().chain(self.gauges.iter())
    }

    /// The counter series `name` on `track`, if recorded.
    pub fn counter(&self, track: Track, name: &str) -> Option<&TimeSeries> {
        self.counters
            .iter()
            .find(|s| s.track == track && s.name == name)
            .map(|s| &s.series)
    }

    /// The gauge series `name` on `track`, if recorded.
    pub fn gauge(&self, track: Track, name: &str) -> Option<&TimeSeries> {
        self.gauges
            .iter()
            .find(|s| s.track == track && s.name == name)
            .map(|s| &s.series)
    }

    /// The latency histogram `name` on `track`, if recorded.
    pub fn hist(&self, track: Track, name: &str) -> Option<&Histogram> {
        self.hists
            .iter()
            .find(|h| h.track == track && h.name == name)
            .map(|h| &h.hist)
    }

    /// Spans of category `cat`, in recorded order.
    pub fn spans_of<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a SpanEvent> + 'a {
        self.spans.iter().filter(move |s| s.cat == cat)
    }
}

/// The standard [`Probe`] implementation: series bucketed at
/// [`BUCKET_CYCLES`] per `(track, name)` plus a span ring of
/// [`SPAN_CAPACITY`].
///
/// Each `(track, name)` resolves to a dense row the first time it is
/// emitted (the private `Rows`); later emissions find the row by the
/// name's address.
/// [`finish`](Recorder::finish) sorts the rows by `(track, name)`, so a
/// finished [`Telemetry`] is deterministic for a deterministic simulation
/// regardless of insertion order.
#[derive(Debug)]
pub struct Recorder {
    counters: Rows<TimeSeries>,
    gauges: Rows<TimeSeries>,
    hists: Rows<Histogram>,
    ring: EventRing,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self {
            counters: Rows::default(),
            gauges: Rows::default(),
            hists: Rows::default(),
            ring: EventRing::new(SPAN_CAPACITY),
        }
    }

    /// Replaces `self` with an empty recorder and returns the previous
    /// contents.
    pub fn take(&mut self) -> Recorder {
        std::mem::take(self)
    }

    /// Finishes the recording into an exportable [`Telemetry`].
    pub fn finish(self) -> Telemetry {
        let pack = |rows: Rows<TimeSeries>, kind| {
            rows.into_sorted()
                .map(|(track, name, series)| SeriesData {
                    track,
                    name,
                    kind,
                    series,
                })
                .collect()
        };
        Telemetry {
            counters: pack(self.counters, SeriesKind::Counter),
            gauges: pack(self.gauges, SeriesKind::Gauge),
            hists: self
                .hists
                .into_sorted()
                .map(|(track, name, hist)| HistData { track, name, hist })
                .collect(),
            dropped_spans: self.ring.dropped(),
            spans: self.ring.into_events(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe for Recorder {
    fn counter(&mut self, track: Track, name: &'static str, now: Cycle, delta: f64) {
        if let Some(series) = self
            .counters
            .row(track, name, || TimeSeries::new(BUCKET_CYCLES))
        {
            series.add(now, delta);
        }
    }

    fn gauge(&mut self, track: Track, name: &'static str, now: Cycle, value: f64) {
        if let Some(series) = self
            .gauges
            .row(track, name, || TimeSeries::new(BUCKET_CYCLES))
        {
            series.sample(now, value);
        }
    }

    fn span(&mut self, track: Track, name: &str, cat: &'static str, start: Cycle, end: Cycle) {
        self.ring.push(SpanEvent {
            track,
            name: name.to_owned(),
            cat,
            start,
            end,
        });
    }

    fn instant(&mut self, track: Track, name: &'static str, now: Cycle) {
        self.ring.push(SpanEvent {
            track,
            name: name.to_owned(),
            cat: "mark",
            start: now,
            end: now,
        });
    }

    fn latency(&mut self, track: Track, name: &'static str, _now: Cycle, value: u64) {
        if let Some(hist) = self.hists.row(track, name, Histogram::new) {
            hist.record(value);
        }
    }
}

/// An address-index key: a name literal's address and length, on a track.
type AddrKey = (Track, usize, usize);

/// Dense rows of per-`(track, name)` state in first-emission order.
///
/// A row is found by the name's *address*: an open-addressed table of
/// `(track, address, length)` keys, so a repeat emission from the same
/// literal costs one multiply and a compare. A key missing there falls
/// back to a by-content map before a row is made, so equal names from
/// different literals share one row.
#[derive(Debug)]
struct Rows<T> {
    rows: Vec<(Track, &'static str, T)>,
    /// Linear-probing `(key, row)` slots; empty or a power of two long,
    /// at most half full.
    slots: Vec<Option<(AddrKey, usize)>>,
    filled: usize,
    by_content: BTreeMap<(Track, &'static str), usize>,
}

impl<T> Default for Rows<T> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            slots: Vec::new(),
            filled: 0,
            by_content: BTreeMap::new(),
        }
    }
}

impl<T> Rows<T> {
    /// The first slot to probe for `key`.
    fn home(&self, (track, addr, len): AddrKey) -> usize {
        let key = (addr as u64) ^ ((len as u64) << 40) ^ u64::from(track.id()).rotate_left(20);
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & self.slots.len().wrapping_sub(1)
    }

    /// The first slot at or after `key`'s home that is empty or holds it.
    fn probe(&self, key: AddrKey) -> usize {
        let mut at = self.home(key);
        while let Some(Some((k, _))) = self.slots.get(at) {
            if *k == key {
                break;
            }
            at = (at + 1) & (self.slots.len() - 1);
        }
        at
    }

    /// The row of `(track, name)`, made with `make` on its first emission.
    /// Always `Some`; the `Option` only spares an index expression.
    fn row(
        &mut self,
        track: Track,
        name: &'static str,
        make: impl FnOnce() -> T,
    ) -> Option<&mut T> {
        let key = (track, name.as_ptr() as usize, name.len());
        let row = match self.slots.get(self.probe(key)) {
            Some(Some((_, row))) => *row,
            _ => {
                let rows = &mut self.rows;
                let row = *self.by_content.entry((track, name)).or_insert_with(|| {
                    rows.push((track, name, make()));
                    rows.len() - 1
                });
                self.insert(key, row);
                row
            }
        };
        self.rows.get_mut(row).map(|r| &mut r.2)
    }

    /// Adds `key` to the address index, doubling the table first when it
    /// would pass half full.
    fn insert(&mut self, key: AddrKey, row: usize) {
        if 2 * (self.filled + 1) > self.slots.len() {
            let grown = vec![None; (2 * self.slots.len()).max(16)];
            self.filled = 0;
            for (k, r) in std::mem::replace(&mut self.slots, grown)
                .into_iter()
                .flatten()
            {
                self.insert(k, r);
            }
        }
        let at = self.probe(key);
        if let Some(slot) = self.slots.get_mut(at) {
            *slot = Some((key, row));
            self.filled += 1;
        }
    }

    /// The rows in `(track, name)` order.
    fn into_sorted(mut self) -> impl Iterator<Item = (Track, &'static str, T)> {
        self.rows
            .sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        self.rows.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_are_keyed_by_track_and_name() {
        let mut r = Recorder::new();
        r.counter(Track::gpu(1), "bytes", Cycle::ZERO, 1.0);
        r.counter(Track::gpu(0), "bytes", Cycle::ZERO, 2.0);
        r.counter(Track::gpu(0), "bytes", Cycle::new(50), 3.0);
        r.gauge(Track::gpu(0), "occ", Cycle::ZERO, 4.0);
        let t = r.finish();
        assert_eq!(t.counters.len(), 2);
        // BTreeMap order: gpu0 before gpu1.
        assert_eq!(t.counters[0].track, Track::gpu(0));
        assert_eq!(t.counters[0].series.total(), 5.0);
        assert_eq!(t.counter(Track::gpu(1), "bytes").unwrap().total(), 1.0);
        assert_eq!(t.gauge(Track::gpu(0), "occ").unwrap().bucket(0), 4.0);
        assert!(t.counter(Track::gpu(2), "bytes").is_none());
    }

    #[test]
    fn spans_and_instants_share_the_ring() {
        let mut r = Recorder::new();
        r.span(
            Track::SYSTEM,
            "phase 0",
            "phase",
            Cycle::ZERO,
            Cycle::new(10),
        );
        r.instant(Track::SYSTEM, "barrier", Cycle::new(10));
        let t = r.finish();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans_of("phase").count(), 1);
        assert_eq!(t.spans_of("mark").next().unwrap().duration(), 0);
        assert_eq!(t.dropped_spans, 0);
    }

    #[test]
    fn latency_samples_collect_into_histograms() {
        let mut r = Recorder::new();
        r.latency(Track::tenant(0), "sojourn", Cycle::new(10), 100);
        r.latency(Track::tenant(0), "sojourn", Cycle::new(20), 300);
        r.latency(Track::tenant(1), "sojourn", Cycle::new(30), 7);
        let t = r.finish();
        assert_eq!(t.hists.len(), 2);
        let h = t.hist(Track::tenant(0), "sojourn").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(100));
        assert_eq!(h.max(), Some(300));
        assert_eq!(t.hist(Track::tenant(1), "sojourn").unwrap().count(), 1);
        assert!(t.hist(Track::tenant(2), "sojourn").is_none());
    }

    #[test]
    fn span_ring_overflow_is_counted_not_silent() {
        let mut r = Recorder::new();
        let total = SPAN_CAPACITY as u64 + 6;
        for n in 0..total {
            r.span(
                Track::SYSTEM,
                &format!("phase {n}"),
                "phase",
                Cycle::new(n * 10),
                Cycle::new(n * 10 + 10),
            );
        }
        let t = r.finish();
        assert_eq!(t.spans.len(), SPAN_CAPACITY, "ring keeps the newest spans");
        assert_eq!(t.spans[0].name, "phase 6");
        assert_eq!(t.dropped_spans, 6, "every eviction is counted");
    }

    #[test]
    fn equal_names_from_different_literals_share_one_series() {
        let leaked: &'static str = Box::leak(String::from("bytes").into_boxed_str());
        assert_ne!(leaked.as_ptr(), "bytes".as_ptr(), "distinct addresses");
        let mut r = Recorder::new();
        r.counter(Track::gpu(0), "bytes", Cycle::ZERO, 1.0);
        r.counter(Track::gpu(0), leaked, Cycle::new(50), 2.0);
        r.counter(Track::gpu(0), "bytes", Cycle::new(150), 4.0);
        r.counter(Track::gpu(0), leaked, Cycle::new(150), 8.0);
        r.latency(Track::tenant(0), leaked, Cycle::ZERO, 3);
        r.latency(Track::tenant(0), "bytes", Cycle::ZERO, 5);
        // A prefix shares the literal's address but is another name.
        let whole: &'static str = "bytes_moved";
        r.gauge(Track::SYSTEM, whole, Cycle::ZERO, 1.0);
        r.gauge(Track::SYSTEM, &whole[..5], Cycle::ZERO, 2.0);
        let t = r.finish();
        assert_eq!(t.counters.len(), 1);
        assert_eq!(t.counters[0].series.total(), 15.0);
        assert_eq!(t.counters[0].series.samples(), 4);
        assert_eq!(t.hists.len(), 1);
        assert_eq!(t.hists[0].hist.count(), 2);
        assert_eq!(t.gauges.len(), 2);
        assert_eq!(t.gauge(Track::SYSTEM, "bytes").unwrap().bucket(0), 2.0);
        assert_eq!(t.gauge(Track::SYSTEM, whole).unwrap().bucket(0), 1.0);
    }

    #[test]
    fn finish_orders_series_by_track_then_name() {
        const NAMES: [&str; 7] = ["tlb_miss", "a", "rwq_stores", "b", "zz", "dram", "tlb_hit"];
        let tracks = [
            Track::tenant(1),
            Track::gpu(3),
            Track::SYSTEM,
            Track::gpu(0),
        ];
        let mut r = Recorder::new();
        let mut expected = Vec::new();
        // Enough keys to grow the address index several times, emitted in
        // an order unrelated to the sorted one.
        for (i, name) in NAMES.iter().cycle().take(NAMES.len() * 3).enumerate() {
            let track = tracks[i % tracks.len()];
            r.counter(track, name, Cycle::new(i as u64), 1.0);
            r.latency(track, name, Cycle::new(i as u64), 1);
            expected.push((track, *name));
        }
        expected.sort();
        expected.dedup();
        let t = r.finish();
        let counters: Vec<_> = t.counters.iter().map(|s| (s.track, s.name)).collect();
        let hists: Vec<_> = t.hists.iter().map(|h| (h.track, h.name)).collect();
        assert_eq!(counters, expected);
        assert_eq!(hists, expected);
    }

    #[test]
    fn take_resets_in_place() {
        let mut r = Recorder::new();
        r.counter(Track::SYSTEM, "x", Cycle::ZERO, 1.0);
        let old = r.take();
        assert_eq!(old.finish().counters.len(), 1);
        assert!(r.take().finish().counters.is_empty());
    }
}
