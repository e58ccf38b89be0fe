//! The metric catalog, read from `BENCHMARK.json`, and the result line.

use std::collections::BTreeMap;

use gps_types::Json;

/// `BENCHMARK.json` at the repository root: the one list of the metrics
/// the benchmark reports.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The layers spans are attributed to: the crates, plus the benchmark's
/// own code.
pub const LAYERS: &[&str] = &[
    "harness",
    "sim",
    "mem",
    "paradigms",
    "core",
    "interconnect",
    "workloads",
    "obs",
    "bench",
];

/// A list of metrics in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// What a user of the system sees; reported by the timed runs.
    EndToEnd,
    /// Single layers; reported by the traced run. A metric a workload does
    /// not exercise reads 0.
    PerLayer,
}

impl Section {
    fn key(self) -> &'static str {
        match self {
            Section::EndToEnd => "end_to_end",
            Section::PerLayer => "per_layer",
        }
    }
}

/// The `(name, unit)` of every metric `section` lists, in file order.
///
/// # Errors
///
/// Describes a `BENCHMARK.json` that does not parse or lacks the section.
pub fn catalog(section: Section) -> Result<Vec<(String, String)>, String> {
    let json = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let entries = json
        .get(section.key())
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {} list", section.key()))?;
    entries
        .iter()
        .map(|e| {
            let field = |k| e.get(k).and_then(Json::as_str).map(str::to_owned);
            field("name").zip(field("unit")).ok_or_else(|| {
                format!(
                    "BENCHMARK.json: a {} entry lacks name or unit",
                    section.key()
                )
            })
        })
        .collect()
}

/// Metric values of one section.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalog: Vec<(String, String)>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// An empty set over the metrics `section` lists.
    ///
    /// # Errors
    ///
    /// As [`catalog`].
    pub fn new(section: Section) -> Result<Metrics, String> {
        Ok(Metrics {
            catalog: catalog(section)?,
            values: BTreeMap::new(),
        })
    }

    /// Sets `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line, in catalog order.
    ///
    /// # Errors
    ///
    /// Names a listed metric that was not set or is not finite, or a set
    /// metric that `BENCHMARK.json` does not list.
    pub fn to_json(&self) -> Result<Json, String> {
        if let Some(stray) = self
            .values
            .keys()
            .find(|k| !self.catalog.iter().any(|(name, _)| name == *k))
        {
            return Err(format!("metric {stray} is not listed in BENCHMARK.json"));
        }
        self.catalog
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .get(name)
                    .ok_or_else(|| format!("metric {name} was not measured"))?;
                if !v.is_finite() {
                    return Err(format!("metric {name} is {v}"));
                }
                Ok((
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(unit.clone())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Json::Obj)
    }
}

/// The last line a run prints.
///
/// # Errors
///
/// As [`Metrics::to_json`].
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> Result<String, String> {
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0 && attempted > 0)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), metrics.to_json()?),
    ])
    .emit())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a well-formed metric name.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn listed_metric_names_follow_the_pattern_and_are_unique() {
        let mut all = Vec::new();
        for section in [Section::EndToEnd, Section::PerLayer] {
            for (name, _) in catalog(section).unwrap() {
                assert!(valid_name(&name), "{name} is not [A-Za-z0-9_.-]+");
                all.push(name);
            }
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "metric names are unique");
        let per_layer = catalog(Section::PerLayer).unwrap();
        for layer in LAYERS {
            let self_ms = format!("{layer}.self_ms");
            assert!(
                per_layer.iter().any(|(name, _)| *name == self_ms),
                "{self_ms}"
            );
        }
    }

    #[test]
    fn the_result_line_needs_every_metric_and_refuses_strays() {
        let mut m = Metrics::new(Section::EndToEnd).unwrap();
        assert!(m.to_json().is_err());
        for (i, (name, _)) in catalog(Section::EndToEnd).unwrap().iter().enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        let line = result_line(48, 0, &m).unwrap();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Json::as_u64), Some(48));
        let wall = back.get("metrics").and_then(|x| x.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert!(result_line(48, 1, &m)
            .unwrap()
            .starts_with("{\"correct\":false"));

        let mut stray = m.clone();
        stray.set("nope", 1.0);
        assert!(stray.to_json().is_err());
        m.set("wall_s", f64::NAN);
        assert!(m.to_json().is_err());
    }

    #[test]
    fn names_follow_the_pattern() {
        assert!(valid_name("sim.classic_ms.infinite-bw"));
        assert!(!valid_name("sim.classic_ms.um+hints"));
        assert!(!valid_name(".x"));
        assert!(!valid_name(""));
    }
}
