//! In-memory spans for the traced run, and the per-layer self-time split.
//!
//! Spans are recorded only by the benchmark's own code, around its calls
//! into each crate. They are kept in memory and written out when the run
//! ends. Each span names the layer (crate) whose call it wraps.

use std::collections::BTreeMap;
use std::time::Instant;

use gps_types::Json;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The span that was open when this one began (`None` for a root).
    pub parent: Option<SpanId>,
    /// Layer the wrapped call belongs to (`harness`, `sim`, ..., `bench`).
    pub layer: &'static str,
    /// What the span wraps.
    pub name: String,
    /// Id of the run unit the span serves, shared by all its spans.
    pub unit: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Parallel tracks the span's children ran on (1 = one after another).
    pub tracks: u32,
    /// True when the duration was measured away from the tracer (a store
    /// record's `wall_ms`, or a worker thread); its start is then the
    /// parent's.
    pub detached: bool,
}

/// Records spans when enabled; every call is a no-op when disabled, so the
/// timed runs execute the same code with tracing off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Every recorded span, parents before children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(
        &mut self,
        layer: &'static str,
        name: &str,
        unit: Option<usize>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name: name.to_owned(),
            unit,
            start_ns: self.now_ns(),
            dur_ns: 0,
            tracks: 1,
            detached: false,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        unit: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.enter(layer, name, unit);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Declares that the children of `id` ran on `tracks` parallel tracks.
    pub fn set_tracks(&mut self, id: Option<SpanId>, tracks: u32) {
        if let Some(id) = id {
            self.spans[id].tracks = tracks.max(1);
        }
    }

    /// Adds a child of `parent` whose duration was measured away from the
    /// tracer.
    pub fn record_child(
        &mut self,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &str,
        unit: Option<usize>,
        dur_ns: u64,
    ) {
        let Some(parent) = parent else { return };
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            parent: Some(parent),
            layer,
            name: name.to_owned(),
            unit,
            start_ns,
            dur_ns,
            tracks: 1,
            detached: true,
        });
    }

    /// The spans as JSON, with the per-layer self time of every root.
    pub fn to_json(&self) -> Json {
        let selfs = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("layer".into(), Json::Str(s.layer.into())),
                    ("name".into(), Json::Str(s.name.clone())),
                    (
                        "unit".into(),
                        s.unit.map_or(Json::Null, |u| Json::Num(u as f64)),
                    ),
                    ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur_us".into(), Json::Num(s.dur_ns as f64 / 1e3)),
                    ("self_us".into(), Json::Num(selfs[id] / 1e3)),
                    ("tracks".into(), Json::Num(f64::from(s.tracks))),
                    ("detached".into(), Json::Bool(s.detached)),
                ])
            })
            .collect();
        let roots = (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .map(|root| {
                let layers = layer_self_ns(&self.spans, root)
                    .into_iter()
                    .map(|(layer, ns)| (layer.to_owned(), Json::Num(ns / 1e6)))
                    .collect();
                Json::Obj(vec![
                    ("root".into(), Json::Str(self.spans[root].name.clone())),
                    (
                        "root_ms".into(),
                        Json::Num(self.spans[root].dur_ns as f64 / 1e6),
                    ),
                    ("self_ms".into(), Json::Obj(layers)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("roots".into(), Json::Arr(roots)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

/// The wall-clock self time of every span, in nanoseconds: its duration
/// minus the part its children cover.
///
/// Children on one track run one after another, so they cover the sum of
/// their durations. Children spread over `k` parallel tracks cover that sum
/// divided by `k`, and each of them counts with weight `1/k` (never more
/// than the parent's interval). The self times of a root and all its
/// descendants therefore add up to the root's duration.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_sum = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_sum[p] += s.dur_ns as f64;
        }
    }
    let mut weight = vec![1.0f64; spans.len()];
    let mut scale = vec![0.0f64; spans.len()];
    let mut out = vec![0.0f64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            weight[i] = weight[p] * scale[p];
        }
        let dur = s.dur_ns as f64;
        if child_sum[i] > 0.0 {
            scale[i] = (1.0 / f64::from(s.tracks.max(1))).min(dur / child_sum[i]);
        }
        out[i] = (dur - child_sum[i] * scale[i]) * weight[i];
    }
    out
}

/// Self time per layer over the tree under `root`, in nanoseconds.
pub fn layer_self_ns(spans: &[Span], root: SpanId) -> BTreeMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut root_of: Vec<SpanId> = (0..spans.len()).collect();
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            root_of[i] = root_of[p];
        }
        if root_of[i] == root {
            *out.entry(s.layer).or_insert(0.0) += selfs[i];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, layer: &'static str, start: u64, dur: u64) -> Span {
        Span {
            parent,
            layer,
            name: layer.to_owned(),
            unit: None,
            start_ns: start,
            dur_ns: dur,
            tracks: 1,
            detached: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span(None, "bench", 0, 100),
            span(Some(0), "harness", 5, 40),
            span(Some(1), "sim", 10, 10),
            span(Some(0), "sim", 50, 30),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 30.0, 10.0, 30.0]);
        let layers = layer_self_ns(&spans, 0);
        assert_eq!(layers["bench"], 30.0);
        assert_eq!(layers["harness"], 30.0);
        assert_eq!(layers["sim"], 40.0);
        assert_eq!(layers.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn parallel_children_count_once_per_track() {
        let mut spans = vec![span(None, "harness", 0, 100)];
        spans[0].tracks = 2;
        for _ in 0..4 {
            spans.push(span(Some(0), "sim", 0, 40));
        }
        let layers = layer_self_ns(&spans, 0);
        assert_eq!(layers["harness"], 20.0);
        assert_eq!(layers["sim"], 80.0);

        // Children that claim more than the parent's interval are scaled
        // down to it, so the layers still sum to the root.
        spans[0].dur_ns = 50;
        spans.truncate(3);
        spans[1].dur_ns = 60;
        spans[2].dur_ns = 60;
        let layers = layer_self_ns(&spans, 0);
        assert!(layers["harness"].abs() < 1e-9);
        assert!((layers["sim"] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn each_root_sums_only_its_own_tree() {
        let spans = vec![
            span(None, "bench", 0, 10),
            span(Some(0), "sim", 0, 4),
            span(None, "bench", 20, 7),
            span(Some(2), "obs", 21, 7),
        ];
        let first = layer_self_ns(&spans, 0);
        assert_eq!(first.values().sum::<f64>(), 10.0);
        assert!(!first.contains_key("obs"));
        assert_eq!(layer_self_ns(&spans, 2)["obs"], 7.0);
    }

    #[test]
    fn tracer_nests_spans_and_ignores_calls_when_disabled() {
        let mut t = Tracer::new(true);
        t.span("bench", "root", None, |t| {
            t.span("sim", "run", Some(3), |_| std::hint::black_box(1 + 1));
            let p = t.enter("harness", "pool", None);
            t.set_tracks(p, 2);
            t.record_child(p, "sim", "unit", Some(1), 1_000);
            t.exit(p);
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].unit, Some(3));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[3].detached);
        assert!(s.iter().all(|x| x.start_ns >= s[0].start_ns));

        let mut off = Tracer::new(false);
        let v = off.span("bench", "root", None, |t| {
            let id = t.enter("sim", "x", None);
            t.exit(id);
            7
        });
        assert_eq!(v, 7);
        assert!(off.spans().is_empty());
    }
}
