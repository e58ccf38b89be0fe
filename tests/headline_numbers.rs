//! The headline numbers `EXPERIMENTS.md` quotes, re-derived from the
//! committed capture `results_paper_scale.txt`. Nothing is re-run: a
//! re-capture that moves one of these numbers, or an edit to either file,
//! fails here and names the quote to re-derive.

const CAPTURE: &str = include_str!("../results_paper_scale.txt");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// One printed figure table: its column headers and its rows in order.
struct Table {
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// The table printed under the first title line starting with `title`.
    fn parse(title: &str) -> Table {
        let mut lines = CAPTURE
            .lines()
            .skip_while(|l| !l.starts_with(title))
            .skip(1);
        let header = lines.next().unwrap_or_else(|| panic!("no {title} block"));
        // Headers are right-aligned and may contain single spaces.
        let columns = header
            .split("  ")
            .map(str::trim)
            .filter(|c| !c.is_empty())
            .map(str::to_owned)
            .collect::<Vec<_>>();
        let rows = lines
            .take_while(|l| !l.trim().is_empty())
            .map(|l| {
                let mut cells = l.split_whitespace();
                let label = cells.next().expect("row label").to_owned();
                let values = cells
                    .map(|c| c.parse().unwrap_or_else(|e| panic!("{title}: {c:?}: {e}")))
                    .collect::<Vec<f64>>();
                assert_eq!(values.len(), columns.len(), "{title}: row {label}");
                (label, values)
            })
            .collect();
        Table { columns, rows }
    }

    fn column(&self, name: &str) -> usize {
        self.columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("no column {name:?} in {:?}", self.columns))
    }

    fn value(&self, row: &str, column: &str) -> f64 {
        let (_, values) = self
            .rows
            .iter()
            .find(|(label, _)| label == row)
            .unwrap_or_else(|| panic!("no row {row:?}"));
        values[self.column(column)]
    }

    /// The per-application rows (everything but the geomean row).
    fn apps(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.rows
            .iter()
            .filter(|(label, _)| label != "geomean")
            .map(|(_, values)| values.as_slice())
    }
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0.0), |(s, n), v: f64| (s + v.ln(), n + 1.0));
    (sum / n).exp()
}

/// The `## Headline claims` section of EXPERIMENTS.md.
fn headline() -> &'static str {
    let start = EXPERIMENTS
        .find("## Headline claims")
        .expect("headline section");
    let len = EXPERIMENTS[start..]
        .find("## Per-figure record")
        .expect("section after the headline");
    &EXPERIMENTS[start..start + len]
}

fn assert_quoted(quote: &str) {
    assert!(
        headline().contains(quote),
        "EXPERIMENTS.md's headline table must quote {quote:?} (re-derived from results_paper_scale.txt)"
    );
}

/// The printed GPS and infinite-bandwidth geomeans agree with the
/// per-application rows above them (to the capture's rounding), so the
/// headline numbers below cannot come from an edited summary line.
fn assert_geomean_row_is_consistent(table: &Table) {
    for name in ["GPS", "Infinite BW"] {
        let c = table.column(name);
        let derived = geomean(table.apps().map(|row| row[c]));
        let printed = table.value("geomean", name);
        assert!(
            (derived - printed).abs() < 0.002,
            "geomean of {name}: rows give {derived:.4}, the capture prints {printed}"
        );
    }
}

#[test]
fn four_gpu_headline_matches_the_capture() {
    let fig8 = Table::parse("== Figure 8:");
    assert_geomean_row_is_consistent(&fig8);
    let gps = fig8.value("geomean", "GPS");
    let infinite = fig8.value("geomean", "Infinite BW");
    assert_quoted(&format!("(geomean {gps:.3})"));
    assert_quoted(&format!(
        "**{:.1} %** ({gps:.3}/{infinite:.3})",
        100.0 * gps / infinite
    ));

    // Per app, GPS over the best of the four baselines.
    let gps_col = fig8.column("GPS");
    let baselines = ["UM", "UM + hints", "RDL", "Memcpy"].map(|c| fig8.column(c));
    let next_best = geomean(
        fig8.apps()
            .map(|row| row[gps_col] / baselines.iter().map(|&c| row[c]).fold(0.0, f64::max)),
    );
    assert_quoted(&format!("**{next_best:.2}×**"));

    assert_quoted(&format!("**{:.2}×**", fig8.value("eqwp", "GPS")));
}

#[test]
fn sixteen_gpu_headline_matches_the_capture() {
    let fig12 = Table::parse("== Figure 12:");
    assert_geomean_row_is_consistent(&fig12);
    let gps = fig12.value("geomean", "GPS");
    let infinite = fig12.value("geomean", "Infinite BW");
    assert_quoted(&format!("({gps:.3})"));
    assert_quoted(&format!(
        "**{:.1} %** ({gps:.3}/{infinite:.3})",
        100.0 * gps / infinite
    ));
}
