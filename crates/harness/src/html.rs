//! The self-contained HTML report: hand-rolled SVG charts over the
//! result store, no external assets, no scripts.
//!
//! [`html_report`] renders two chart families from one store:
//!
//! * **Paradigm-vs-app slowdown grids** — grouped by GPU count, then one
//!   grid per fabric shape (link × scale × topology) in the sweep lane: a
//!   grouped bar chart of each paradigm's steady-state slowdown per
//!   application, normalised to the GPS row of the same group (or the
//!   group's fastest paradigm when GPS was not swept). The GPU-count
//!   grouping puts the paper's scaling story side by side — the 4-GPU and
//!   16-GPU grids of the same fabric read top to bottom.
//! * **QPS-vs-tail-latency curves** — for every serving configuration
//!   (mix × paradigm × machine × slots), the p50/p95/p99 job latency
//!   against sustained QPS across that configuration's stored points.
//!
//! Determinism: rows are grouped in `BTreeMap`s, every float is printed
//! with a fixed precision, and nothing samples clocks or filesystem
//! order — identical stores render byte-identical HTML.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use crate::store::{ResultStore, RunRecord, RunStatus};

/// Fixed qualitative palette; paradigms (or curve roles) index into it in
/// sorted order, so colour assignment is deterministic.
const PALETTE: &[&str] = &[
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc949", "#b07aa1", "#9c755f",
];

/// Escapes `text` for HTML text nodes and attribute values.
fn esc(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
    out
}

/// Whether a record came through the serving lane ([`crate::run_serve`]
/// stamps a `qps` metric; sweep runs never do).
fn is_serve(record: &RunRecord) -> bool {
    record.metric("qps").is_some()
}

/// One bar of a slowdown grid.
struct Bar {
    app: String,
    paradigm: String,
    slowdown: f64,
}

/// Renders one grouped-bar SVG: apps along the x axis, one bar per
/// paradigm, height = slowdown (1.0 marked with a reference line).
fn slowdown_svg(bars: &[Bar], paradigms: &[String]) -> String {
    const BAR_W: f64 = 18.0;
    const BAR_GAP: f64 = 3.0;
    const GROUP_GAP: f64 = 22.0;
    const MARGIN_L: f64 = 52.0;
    const MARGIN_R: f64 = 12.0;
    const MARGIN_T: f64 = 30.0;
    const MARGIN_B: f64 = 42.0;
    const PLOT_H: f64 = 180.0;

    let apps: Vec<&String> = {
        let mut seen = BTreeSet::new();
        bars.iter()
            .filter(|b| seen.insert(&b.app))
            .map(|b| &b.app)
            .collect()
    };
    let group_w = paradigms.len() as f64 * (BAR_W + BAR_GAP) - BAR_GAP;
    let width = MARGIN_L + apps.len() as f64 * (group_w + GROUP_GAP) + MARGIN_R;
    let height = MARGIN_T + PLOT_H + MARGIN_B;
    let y_max = bars
        .iter()
        .map(|b| b.slowdown)
        .fold(1.0f64, f64::max)
        .mul_add(1.08, 0.0);
    let y_of = |v: f64| MARGIN_T + PLOT_H - (v / y_max) * PLOT_H;

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\" \
         viewBox=\"0 0 {width:.0} {height:.0}\" role=\"img\">",
    );
    // Axes and the slowdown-1.0 reference line.
    let _ = write!(
        svg,
        "<line x1=\"{MARGIN_L:.0}\" y1=\"{MARGIN_T:.0}\" x2=\"{MARGIN_L:.0}\" y2=\"{:.1}\" class=\"axis\"/>\
         <line x1=\"{MARGIN_L:.0}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" class=\"axis\"/>",
        MARGIN_T + PLOT_H,
        MARGIN_T + PLOT_H,
        width - MARGIN_R,
        MARGIN_T + PLOT_H,
    );
    let y1 = y_of(1.0);
    let _ = write!(
        svg,
        "<line x1=\"{MARGIN_L:.0}\" y1=\"{y1:.1}\" x2=\"{:.1}\" y2=\"{y1:.1}\" class=\"ref\"/>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\">1.0x</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\">{y_max:.1}x</text>\
         <text x=\"14\" y=\"{:.1}\" class=\"tick\" transform=\"rotate(-90 14 {:.1})\">slowdown</text>",
        width - MARGIN_R,
        MARGIN_L - 46.0,
        y1 + 4.0,
        MARGIN_L - 46.0,
        MARGIN_T + 4.0,
        MARGIN_T + PLOT_H / 2.0,
        MARGIN_T + PLOT_H / 2.0,
    );
    for (gi, app) in apps.iter().enumerate() {
        let gx = MARGIN_L + gi as f64 * (group_w + GROUP_GAP) + GROUP_GAP / 2.0;
        for (pi, paradigm) in paradigms.iter().enumerate() {
            let Some(bar) = bars
                .iter()
                .find(|b| &b.app == *app && &b.paradigm == paradigm)
            else {
                continue;
            };
            let x = gx + pi as f64 * (BAR_W + BAR_GAP);
            let y = y_of(bar.slowdown);
            let h = MARGIN_T + PLOT_H - y;
            let color = PALETTE[pi % PALETTE.len()]; // gps-lint: allow(no_slice_index) -- index is modulo PALETTE.len()
            let _ = write!(
                svg,
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{BAR_W:.0}\" height=\"{h:.1}\" \
                 fill=\"{color}\"><title>{}/{}: {:.2}x</title></rect>",
                esc(app),
                esc(paradigm),
                bar.slowdown,
            );
        }
        let _ = write!(
            svg,
            "<text x=\"{:.1}\" y=\"{:.1}\" class=\"label\" text-anchor=\"middle\">{}</text>",
            gx + group_w / 2.0,
            MARGIN_T + PLOT_H + 16.0,
            esc(app),
        );
    }
    // Legend: one swatch per paradigm, laid out along the bottom.
    for (pi, paradigm) in paradigms.iter().enumerate() {
        let x = MARGIN_L + pi as f64 * 92.0;
        let y = height - 12.0;
        let color = PALETTE[pi % PALETTE.len()]; // gps-lint: allow(no_slice_index) -- index is modulo PALETTE.len()
        let _ = write!(
            svg,
            "<rect x=\"{x:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{:.1}\" y=\"{y:.1}\" class=\"label\">{}</text>",
            y - 9.0,
            x + 14.0,
            esc(paradigm),
        );
    }
    svg.push_str("</svg>");
    svg
}

/// One point of a QPS-latency curve, latencies in milliseconds.
struct QpsPoint {
    qps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// Renders one QPS-vs-latency SVG: three polylines (p50/p95/p99) with
/// point markers over the configuration's stored operating points.
fn qps_latency_svg(points: &[QpsPoint]) -> String {
    const WIDTH: f64 = 460.0;
    const HEIGHT: f64 = 250.0;
    const MARGIN_L: f64 = 58.0;
    const MARGIN_R: f64 = 14.0;
    const MARGIN_T: f64 = 14.0;
    const MARGIN_B: f64 = 56.0;
    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;

    let x_max = points.iter().map(|p| p.qps).fold(0.0f64, f64::max).max(1.0) * 1.05;
    let y_max = points
        .iter()
        .map(|p| p.p99_ms)
        .fold(0.0f64, f64::max)
        .max(1e-6)
        * 1.08;
    let x_of = |q: f64| MARGIN_L + (q / x_max) * plot_w;
    let y_of = |ms: f64| MARGIN_T + plot_h - (ms / y_max) * plot_h;

    let mut svg = String::new();
    let _ = write!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH:.0}\" height=\"{HEIGHT:.0}\" \
         viewBox=\"0 0 {WIDTH:.0} {HEIGHT:.0}\" role=\"img\">",
    );
    let _ = write!(
        svg,
        "<line x1=\"{MARGIN_L:.0}\" y1=\"{MARGIN_T:.0}\" x2=\"{MARGIN_L:.0}\" y2=\"{:.1}\" class=\"axis\"/>\
         <line x1=\"{MARGIN_L:.0}\" y1=\"{:.1}\" x2=\"{:.1}\" y2=\"{:.1}\" class=\"axis\"/>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"middle\">QPS</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\" text-anchor=\"middle\">{x_max:.0}</text>\
         <text x=\"{:.1}\" y=\"{:.1}\" class=\"tick\">{y_max:.2}</text>\
         <text x=\"14\" y=\"{:.1}\" class=\"tick\" transform=\"rotate(-90 14 {:.1})\">latency (ms)</text>",
        MARGIN_T + plot_h,
        MARGIN_T + plot_h,
        WIDTH - MARGIN_R,
        MARGIN_T + plot_h,
        MARGIN_L + plot_w / 2.0,
        HEIGHT - 40.0,
        MARGIN_L + plot_w,
        MARGIN_T + plot_h + 16.0,
        MARGIN_L - 52.0,
        MARGIN_T + 6.0,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0,
    );
    type Percentile = fn(&QpsPoint) -> f64;
    let curves: [(&str, Percentile); 3] = [
        ("p50", |p| p.p50_ms),
        ("p95", |p| p.p95_ms),
        ("p99", |p| p.p99_ms),
    ];
    for (ci, (label, value)) in curves.iter().enumerate() {
        let color = PALETTE[ci % PALETTE.len()]; // gps-lint: allow(no_slice_index) -- index is modulo PALETTE.len()
        if points.len() > 1 {
            let path: Vec<String> = points
                .iter()
                .map(|p| format!("{:.1},{:.1}", x_of(p.qps), y_of(value(p))))
                .collect();
            let _ = write!(
                svg,
                "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"2\"/>",
                path.join(" "),
            );
        }
        for p in points {
            let _ = write!(
                svg,
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{color}\">\
                 <title>{label} @ {:.1} qps: {:.3} ms</title></circle>",
                x_of(p.qps),
                y_of(value(p)),
                p.qps,
                value(p),
            );
        }
        let lx = MARGIN_L + ci as f64 * 64.0;
        let _ = write!(
            svg,
            "<rect x=\"{lx:.1}\" y=\"{:.1}\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" class=\"label\">{label}</text>",
            HEIGHT - 21.0,
            lx + 14.0,
            HEIGHT - 12.0,
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Renders the full self-contained HTML report over `records`.
///
/// The input order does not matter — records are regrouped into sorted
/// maps — so the output depends only on the store's (deduplicated)
/// contents: identical stores render byte-identical HTML.
pub fn html_report(records: &[RunRecord]) -> String {
    let ok: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.status == RunStatus::Ok)
        .collect();
    let (serve_rows, sweep_rows): (Vec<&RunRecord>, Vec<&RunRecord>) =
        ok.iter().partition(|r| is_serve(r));

    let mut body = String::new();
    let _ = write!(
        body,
        "<h1>gps-run report</h1>\
         <p>{} sweep record(s), {} serving record(s), {} quarantined.</p>",
        sweep_rows.len(),
        serve_rows.len(),
        records
            .iter()
            .filter(|r| r.status == RunStatus::Quarantined)
            .count(),
    );

    // Sweep lane: grids grouped by GPU count, one grid per fabric shape
    // (link × scale × topology) within each count.
    body.push_str("<h2>Paradigm slowdown by application</h2>");
    type FabricShape = (String, String, String);
    let mut machines: BTreeMap<u64, BTreeMap<FabricShape, Vec<&RunRecord>>> = BTreeMap::new();
    for r in &sweep_rows {
        if r.steady_cycles > 0.0 {
            machines
                .entry(r.gpus)
                .or_default()
                .entry((r.link.clone(), r.scale.clone(), r.topology.clone()))
                .or_default()
                .push(r);
        }
    }
    if machines.is_empty() {
        body.push_str("<p>No successful sweep records in the store.</p>");
    }
    for (gpus, shapes) in &machines {
        let _ = write!(body, "<h3>{gpus} GPU</h3>");
        for ((link, scale, topology), rows) in shapes {
            // Baseline per app: the GPS row when swept, else the app's
            // fastest.
            let mut baselines: BTreeMap<&str, f64> = BTreeMap::new();
            for r in rows {
                if r.paradigm == "gps" {
                    baselines.insert(r.app.as_str(), r.steady_cycles);
                }
            }
            for r in rows {
                let e = baselines.entry(r.app.as_str()).or_insert(f64::INFINITY);
                if !rows.iter().any(|o| o.app == r.app && o.paradigm == "gps") {
                    *e = e.min(r.steady_cycles);
                }
            }
            let mut bars: Vec<Bar> = rows
                .iter()
                .filter_map(|r| {
                    let base = *baselines.get(r.app.as_str())?;
                    (base > 0.0 && base.is_finite()).then(|| Bar {
                        app: r.app.clone(),
                        paradigm: r.paradigm.clone(),
                        slowdown: r.steady_cycles / base,
                    })
                })
                .collect();
            bars.sort_by(|a, b| (&a.app, &a.paradigm).cmp(&(&b.app, &b.paradigm)));
            let paradigms: Vec<String> = {
                let set: BTreeSet<&String> = bars.iter().map(|b| &b.paradigm).collect();
                set.into_iter().cloned().collect()
            };
            let _ = write!(
                body,
                "<h4>{} &middot; {} scale &middot; {} fabric</h4>{}",
                esc(link),
                esc(scale),
                esc(topology),
                slowdown_svg(&bars, &paradigms),
            );
        }
    }

    // Serving lane: one latency curve per configuration.
    body.push_str("<h2>Serving: QPS vs tail latency</h2>");
    type ServeGroup = (String, String, u64, String, String, u64);
    let mut groups: BTreeMap<ServeGroup, Vec<QpsPoint>> = BTreeMap::new();
    for r in &serve_rows {
        let (Some(qps), Some(p50), Some(p95), Some(p99)) = (
            r.metric("qps"),
            r.metric("p50_cycles"),
            r.metric("p95_cycles"),
            r.metric("p99_cycles"),
        ) else {
            continue;
        };
        let slots = r.metric("slots").unwrap_or(0.0) as u64;
        groups
            .entry((
                r.app.clone(),
                r.paradigm.clone(),
                r.gpus,
                r.link.clone(),
                r.scale.clone(),
                slots,
            ))
            .or_default()
            .push(QpsPoint {
                qps,
                p50_ms: p50 / 1e6,
                p95_ms: p95 / 1e6,
                p99_ms: p99 / 1e6,
            });
    }
    if groups.is_empty() {
        body.push_str("<p>No serving records in the store.</p>");
    }
    for ((mix, paradigm, gpus, link, scale, slots), points) in &mut groups {
        points.sort_by(|a, b| a.qps.total_cmp(&b.qps));
        let _ = write!(
            body,
            "<h3>{} &middot; {} &middot; {gpus} GPU {} {} &middot; {slots} slot(s)</h3>{}",
            esc(mix),
            esc(paradigm),
            esc(link),
            esc(scale),
            qps_latency_svg(points),
        );
    }

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>gps-run report</title><style>\
         body{{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:60rem;color:#1b1f24}}\
         h1{{font-size:1.4rem}}h2{{font-size:1.15rem;margin-top:2rem}}h3{{font-size:1rem;margin-top:1.5rem}}\
         h4{{font-size:0.9rem;color:#57606a;margin:0.8rem 0 0}}\
         svg{{display:block;margin:0.5rem 0 1.5rem}}\
         svg .axis{{stroke:#57606a;stroke-width:1}}\
         svg .ref{{stroke:#d0d7de;stroke-width:1;stroke-dasharray:4 3}}\
         svg .tick{{font:11px system-ui,sans-serif;fill:#57606a}}\
         svg .label{{font:11px system-ui,sans-serif;fill:#1b1f24}}\
         </style></head>\n<body>{body}</body></html>\n"
    )
}

/// Loads the store at `store_path` (latest record per key) and writes the
/// rendered report to `out_path`, creating parent directories as needed.
/// Returns the number of SVG charts emitted.
///
/// # Errors
///
/// Returns a description if the store cannot be read or the report cannot
/// be written.
pub fn write_html_report(store_path: &Path, out_path: &Path) -> Result<usize, String> {
    let (records, _) =
        ResultStore::load_latest(store_path).map_err(|e| format!("load store: {e}"))?;
    let html = html_report(&records);
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(out_path, &html).map_err(|e| format!("write {}: {e}", out_path.display()))?;
    Ok(html.matches("<svg").count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_sim::MemoryPressure;

    fn sweep_record(app: &str, paradigm: &str, steady: f64) -> RunRecord {
        RunRecord {
            key: format!("{app}-{paradigm}"),
            app: app.to_owned(),
            paradigm: paradigm.to_owned(),
            gpus: 4,
            link: "pcie3".to_owned(),
            scale: "tiny".to_owned(),
            topology: "switch".to_owned(),
            parallel: 0,
            pressure: MemoryPressure::NONE,
            status: RunStatus::Ok,
            attempts: 1,
            wall_ms: 1.0,
            steady_cycles: steady,
            total_cycles: steady as u64 * 10,
            interconnect_bytes: 0,
            interconnect_transfers: 0,
            metrics: Vec::new(),
            error: None,
        }
    }

    fn serve_point(qps: f64, p99: f64) -> RunRecord {
        RunRecord {
            metrics: vec![
                ("qps".to_owned(), qps),
                ("p50_cycles".to_owned(), p99 / 3.0),
                ("p95_cycles".to_owned(), p99 / 1.5),
                ("p99_cycles".to_owned(), p99),
                ("slots".to_owned(), 2.0),
            ],
            key: format!("serve-{qps}"),
            app: "jacobi+pagerank".to_owned(),
            ..sweep_record("jacobi+pagerank", "gps", 0.0)
        }
    }

    #[test]
    fn report_renders_both_chart_families() {
        let records = vec![
            sweep_record("jacobi", "gps", 100.0),
            sweep_record("jacobi", "um", 700.0),
            sweep_record("pagerank", "gps", 200.0),
            sweep_record("pagerank", "um", 900.0),
            serve_point(1000.0, 3_000_000.0),
            serve_point(2000.0, 9_000_000.0),
        ];
        let html = html_report(&records);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert_eq!(html.matches("<svg").count(), 2, "one grid + one curve");
        assert!(html.contains("4 sweep record(s), 2 serving record(s)"));
        // um at 7x gps must render a 7.00x bar.
        assert!(html.contains("jacobi/um: 7.00x"));
        assert!(html.contains("polyline"), "two points draw a curve");
        assert!(!html.contains("<script"), "self-contained, no scripts");
    }

    #[test]
    fn slowdown_grids_group_by_gpu_count_then_fabric_shape() {
        let mut sixteen = sweep_record("jacobi", "gps", 100.0);
        sixteen.gpus = 16;
        sixteen.topology = "nvswitch".to_owned();
        sixteen.key = "sixteen".to_owned();
        let records = vec![
            sweep_record("jacobi", "gps", 100.0),
            sweep_record("jacobi", "um", 700.0),
            sixteen,
        ];
        let html = html_report(&records);
        assert_eq!(html.matches("<svg").count(), 2, "one grid per machine");
        let four = html.find("<h3>4 GPU</h3>").expect("4-GPU section");
        let six = html.find("<h3>16 GPU</h3>").expect("16-GPU section");
        assert!(four < six, "sections ordered by GPU count");
        assert!(html.contains("<h4>pcie3 &middot; tiny scale &middot; switch fabric</h4>"));
        assert!(html.contains("<h4>pcie3 &middot; tiny scale &middot; nvswitch fabric</h4>"));
    }

    #[test]
    fn report_is_byte_deterministic_and_order_insensitive() {
        let a = vec![
            sweep_record("jacobi", "gps", 100.0),
            sweep_record("jacobi", "um", 700.0),
            serve_point(1000.0, 3_000_000.0),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(html_report(&a), html_report(&b));
    }

    #[test]
    fn hostile_names_are_escaped() {
        let records = vec![sweep_record("evil<app>&\"x\"", "gps", 100.0)];
        let html = html_report(&records);
        assert!(html.contains("evil&lt;app&gt;&amp;&quot;x&quot;"));
        assert!(!html.contains("evil<app>"));
    }

    #[test]
    fn hostile_names_are_escaped_in_every_rendered_field() {
        // The store is plain JSON lines anyone can hand-edit; every string
        // the report renders must go through esc(), not just the app name.
        // One record poisons every rendered dimension at once.
        let mut sweep = sweep_record("a<b", "gps", 100.0);
        sweep.paradigm = "par<adigm>&".to_owned();
        sweep.link = "li\"nk&".to_owned();
        sweep.scale = "sc<ale".to_owned();
        sweep.topology = "to&po'".to_owned();

        let mut serve = serve_point(1000.0, 3_000_000.0);
        serve.app = "mix<&\"jacobi".to_owned();
        serve.paradigm = "gps<'".to_owned();
        serve.link = "l<k".to_owned();
        serve.scale = "t<y".to_owned();

        let html = html_report(&[sweep, serve]);
        for escaped in [
            "par&lt;adigm&gt;&amp;",
            "li&quot;nk&amp;",
            "sc&lt;ale",
            "to&amp;po&#39;",
            "mix&lt;&amp;&quot;jacobi",
            "gps&lt;&#39;",
            "l&lt;k",
            "t&lt;y",
        ] {
            assert!(html.contains(escaped), "missing escaped form {escaped:?}");
        }
        for raw in [
            "par<adigm>",
            "li\"nk&",
            "sc<ale",
            "to&po'",
            "mix<&\"",
            "gps<'",
            "l<k",
            "t<y",
        ] {
            assert!(!html.contains(raw), "raw hostile string {raw:?} leaked");
        }
    }

    #[test]
    fn empty_store_still_renders() {
        let html = html_report(&[]);
        assert!(html.contains("No successful sweep records"));
        assert!(html.contains("No serving records"));
    }
}
