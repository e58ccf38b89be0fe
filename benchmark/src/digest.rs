//! The correctness gate: a per-unit digest of the simulated outputs,
//! compared with the reference committed beside the benchmark.
//!
//! Simulated cycles and counts are exact, so a digest that differs in any
//! field means the program simulated something else, and the unit fails.

use std::collections::BTreeMap;

use gps_harness::{
    steady_cycles_per_iteration, steady_traffic_per_iteration, RunRecord, RunSpec, RunUnit,
};
use gps_sim::SimReport;

/// The committed reference digests (`reference.txt`).
const COMMITTED: &str = include_str!("../reference.txt");

/// What a unit simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    /// End-to-end simulated cycles.
    pub total_cycles: u64,
    /// Steady-state cycles per iteration.
    pub steady_cycles: f64,
    /// Bytes over the inter-GPU fabric.
    pub interconnect_bytes: u64,
    /// Discrete fabric transfers.
    pub interconnect_transfers: u64,
    /// Simulated warp instructions (`None` when the path that ran the unit
    /// does not expose the report, as with store records).
    pub instructions: Option<u64>,
    /// Policy metrics plus the steady traffic per iteration, in report order.
    pub metrics: Vec<(String, f64)>,
}

impl Digest {
    /// The digest of a simulator report of a workload with
    /// `phases_per_iteration` phases per application iteration, holding the
    /// same fields a store record carries.
    pub fn from_report(report: &SimReport, phases_per_iteration: usize) -> Digest {
        let mut metrics = report.policy_metrics.clone();
        metrics.push((
            "steady_traffic_per_iteration".to_owned(),
            steady_traffic_per_iteration(report, phases_per_iteration),
        ));
        Digest {
            total_cycles: report.total_cycles.as_u64(),
            steady_cycles: steady_cycles_per_iteration(report, phases_per_iteration),
            interconnect_bytes: report.interconnect_bytes,
            interconnect_transfers: report.interconnect_transfers,
            instructions: Some(report.instructions()),
            metrics,
        }
    }

    /// The digest of a store record.
    pub fn from_record(record: &RunRecord) -> Digest {
        Digest {
            total_cycles: record.total_cycles,
            steady_cycles: record.steady_cycles,
            interconnect_bytes: record.interconnect_bytes,
            interconnect_transfers: record.interconnect_transfers,
            instructions: None,
            metrics: record.metrics.clone(),
        }
    }

    /// A policy metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// One reference line: the unit key, then `field=value` pairs.
    pub fn line(&self, key: &str) -> String {
        let mut out = format!(
            "{key} total={} steady={:?} bytes={} transfers={}",
            self.total_cycles,
            self.steady_cycles,
            self.interconnect_bytes,
            self.interconnect_transfers
        );
        if let Some(i) = self.instructions {
            out.push_str(&format!(" instr={i}"));
        }
        for (k, v) in &self.metrics {
            out.push_str(&format!(" m.{k}={v:?}"));
        }
        out
    }

    /// Parses a [`Digest::line`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    pub fn parse_line(line: &str) -> Result<(String, Digest), String> {
        let mut fields = line.split_whitespace();
        let key = fields.next().ok_or("empty digest line")?.to_owned();
        let mut d = Digest {
            total_cycles: 0,
            steady_cycles: 0.0,
            interconnect_bytes: 0,
            interconnect_transfers: 0,
            instructions: None,
            metrics: Vec::new(),
        };
        let mut seen = 0;
        for field in fields {
            let (name, value) = field
                .split_once('=')
                .ok_or_else(|| format!("{key}: field {field:?} has no '='"))?;
            let bad = || format!("{key}: bad value in {field:?}");
            match name {
                "total" => (d.total_cycles, seen) = (value.parse().map_err(|_| bad())?, seen | 1),
                "steady" => (d.steady_cycles, seen) = (value.parse().map_err(|_| bad())?, seen | 2),
                "bytes" => {
                    (d.interconnect_bytes, seen) = (value.parse().map_err(|_| bad())?, seen | 4)
                }
                "transfers" => {
                    (d.interconnect_transfers, seen) = (value.parse().map_err(|_| bad())?, seen | 8)
                }
                "instr" => d.instructions = Some(value.parse().map_err(|_| bad())?),
                _ => {
                    let metric = name
                        .strip_prefix("m.")
                        .ok_or_else(|| format!("{key}: unknown field {name:?}"))?;
                    let v: f64 = value.parse().map_err(|_| bad())?;
                    d.metrics.push((metric.to_owned(), v));
                }
            }
        }
        if seen != 15 {
            return Err(format!(
                "{key}: digest needs total, steady, bytes and transfers"
            ));
        }
        Ok((key, d))
    }

    /// The first field in which `self` differs from `reference`, or `None`
    /// when they agree. Floats must match bit for bit; instructions are
    /// compared when both sides carry them.
    pub fn diff(&self, reference: &Digest) -> Option<String> {
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        if self.total_cycles != reference.total_cycles {
            return Some(format!(
                "total cycles {} != {}",
                self.total_cycles, reference.total_cycles
            ));
        }
        if !same(self.steady_cycles, reference.steady_cycles) {
            return Some(format!(
                "steady cycles {:?} != {:?}",
                self.steady_cycles, reference.steady_cycles
            ));
        }
        if self.interconnect_bytes != reference.interconnect_bytes {
            return Some(format!(
                "interconnect bytes {} != {}",
                self.interconnect_bytes, reference.interconnect_bytes
            ));
        }
        if self.interconnect_transfers != reference.interconnect_transfers {
            return Some(format!(
                "interconnect transfers {} != {}",
                self.interconnect_transfers, reference.interconnect_transfers
            ));
        }
        if let (Some(a), Some(b)) = (self.instructions, reference.instructions) {
            if a != b {
                return Some(format!("instructions {a} != {b}"));
            }
        }
        if self.metrics.len() != reference.metrics.len() {
            return Some(format!(
                "{} policy metrics != {}",
                self.metrics.len(),
                reference.metrics.len()
            ));
        }
        for ((ka, va), (kb, vb)) in self.metrics.iter().zip(&reference.metrics) {
            if ka != kb || !same(*va, *vb) {
                return Some(format!("metric {ka}={va:?} != {kb}={vb:?}"));
            }
        }
        None
    }
}

/// The key a unit's digest is filed under: its run label with the worker
/// count folded to the engine choice (0 = classic loop, 1 = lane engine),
/// because reports are worker-count invariant.
pub fn unit_key(u: &RunUnit) -> String {
    RunUnit {
        key: String::new(),
        app: u.app.clone(),
        spec: RunSpec {
            parallel: u.spec.parallel.min(1),
            ..u.spec
        },
    }
    .label()
}

/// Reference digests by unit key.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reference {
    digests: BTreeMap<String, Digest>,
}

impl Reference {
    /// The reference committed beside the benchmark.
    ///
    /// # Errors
    ///
    /// Describes the first malformed line.
    pub fn committed() -> Result<Reference, String> {
        Reference::parse(COMMITTED)
    }

    /// Parses reference text: one [`Digest::line`] per line, `#` comments.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or duplicated line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut digests = BTreeMap::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, d) = Digest::parse_line(line)?;
            if digests.insert(key.clone(), d).is_some() {
                return Err(format!("{key}: listed twice"));
            }
        }
        Ok(Reference { digests })
    }

    /// Adds (or replaces) a digest.
    pub fn insert(&mut self, key: String, digest: Digest) {
        self.digests.insert(key, digest);
    }

    /// The reference text, one line per unit in key order.
    pub fn emit(&self) -> String {
        self.digests.iter().map(|(k, d)| d.line(k) + "\n").collect()
    }

    /// The reference digest of `key`.
    pub fn get(&self, key: &str) -> Option<&Digest> {
        self.digests.get(key)
    }

    /// Checks `observed` against the reference of `key`.
    ///
    /// # Errors
    ///
    /// Names the unit and the first differing field, or a missing reference.
    pub fn check(&self, key: &str, observed: &Digest) -> Result<(), String> {
        let reference = self
            .get(key)
            .ok_or_else(|| format!("{key}: no reference digest"))?;
        match observed.diff(reference) {
            None => Ok(()),
            Some(d) => Err(format!("{key}: {d}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_interconnect::{LinkGen, Topology};
    use gps_paradigms::Paradigm;
    use gps_sim::MemoryPressure;
    use gps_workloads::{suite, ScaleProfile};

    fn tiny_spec(paradigm: Paradigm, parallel: usize) -> RunSpec {
        RunSpec {
            paradigm,
            gpus: 2,
            link: LinkGen::Pcie3,
            scale: ScaleProfile::Tiny,
            pressure: MemoryPressure::NONE,
            topology: Topology::Switch,
            parallel,
        }
    }

    fn tiny_digest(paradigm: Paradigm) -> Digest {
        let app = suite::by_name("jacobi").unwrap();
        let m = gps_harness::measure(&app, tiny_spec(paradigm, 0)).unwrap();
        Digest::from_report(&m.report, m.phases_per_iteration)
    }

    #[test]
    fn lines_round_trip_exactly() {
        let d = tiny_digest(Paradigm::Gps);
        assert!(d.metrics.iter().any(|(k, _)| k == "rwq_hit_rate"));
        let (key, back) = Digest::parse_line(&d.line("k/1")).unwrap();
        assert_eq!(key, "k/1");
        assert_eq!(back, d);
        assert_eq!(back.diff(&d), None);
    }

    #[test]
    fn a_one_byte_divergence_is_caught() {
        let d = tiny_digest(Paradigm::Um);
        let mut reference = Reference::default();
        reference.insert("u".into(), d.clone());
        let reference = Reference::parse(&reference.emit()).unwrap();
        assert_eq!(reference.check("u", &d), Ok(()));

        // One more fabric byte than the reference.
        let mut planted = d.clone();
        planted.interconnect_bytes += 1;
        let err = reference.check("u", &planted).unwrap_err();
        assert!(err.contains("interconnect bytes"), "{err}");

        // Every single-byte edit of a digit in the committed line is caught.
        let line = d.line("u");
        let mut edits = 0;
        for (i, c) in line.char_indices().skip(2) {
            if let Some(v) = c.to_digit(10) {
                let mut text = line.clone();
                text.replace_range(i..=i, &((v + 1) % 10).to_string());
                if let Ok((_, edited)) = Digest::parse_line(&text) {
                    assert!(
                        edited.diff(&d).is_some(),
                        "edit at {i} slipped through: {text}"
                    );
                    edits += 1;
                }
            }
        }
        assert!(edits > 10);

        // A record that only loses its instruction count still matches.
        let record_view = Digest {
            instructions: None,
            ..d.clone()
        };
        assert_eq!(reference.check("u", &record_view), Ok(()));
        assert!(reference
            .check("missing", &d)
            .unwrap_err()
            .contains("no reference"));
    }

    #[test]
    fn malformed_references_are_refused() {
        assert!(Reference::parse("k total=1 steady=2.0 bytes=3").is_err());
        assert!(Reference::parse("k total=x steady=2.0 bytes=3 transfers=4").is_err());
        assert!(Reference::parse("k total=1 steady=2.0 bytes=3 transfers=4 odd=1").is_err());
        let twice =
            "k total=1 steady=2.0 bytes=3 transfers=4\nk total=1 steady=2.0 bytes=3 transfers=4";
        assert!(Reference::parse(twice).is_err());
        assert!(Reference::parse("# comment\n\nk total=1 steady=2.0 bytes=3 transfers=4").is_ok());
    }

    #[test]
    fn unit_keys_fold_worker_counts_to_the_engine() {
        let key = |parallel| {
            unit_key(&RunUnit {
                key: String::new(),
                app: "jacobi".into(),
                spec: tiny_spec(Paradigm::Gps, parallel),
            })
        };
        let (lane2, lane1, classic) = (key(2), key(1), key(0));
        assert_eq!(lane1, lane2);
        assert_ne!(lane1, classic);
        assert_eq!(classic, "jacobi/gps/2gpu/pcie3/tiny");
    }

    #[test]
    fn the_committed_reference_parses() {
        let r = Reference::committed().unwrap();
        assert!(r
            .get("pagerank/gps/16gpu/nvlink3/paper/nvswitch/par1")
            .is_some());
    }
}
