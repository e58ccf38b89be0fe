//! Bounds the drift of the `Epochs` lane tier from the reference lane.
//!
//! gps and rdl on per-GPU lanes (`parallel >= 1`) buffer every cross-GPU
//! effect until the window barrier, so their results deliberately differ
//! from the reference lane (`parallel: 0`), where one lane owns every GPU
//! and routes each access as it happens. Nothing else limits how far they
//! may differ. This suite runs every application × {gps, rdl} × every
//! topology × {4, 16} GPUs on NVLink 3 at tiny scale on both lane shapes,
//! and fails if the relative difference in steady cycles or in fabric bytes
//! grows beyond the bound of its (paradigm, topology). Each bound is the
//! largest drift measured when the suite was written, rounded up to a
//! multiple of 0.5 percentage points; a change that brings the tiers
//! closer should tighten it.

use gps_harness::{measure, parallel_map, RunSpec};
use gps_interconnect::{LinkGen, Topology};
use gps_paradigms::Paradigm;
use gps_sim::MemoryPressure;
use gps_workloads::{suite, ScaleProfile};

/// Largest allowed drift in percent: `(paradigm, topology, steady, bytes)`.
const BOUNDS: [(Paradigm, Topology, f64, f64); 8] = [
    (Paradigm::Gps, Topology::Switch, 1.0, 0.0),
    (Paradigm::Gps, Topology::Ring, 8.5, 0.0),
    (Paradigm::Gps, Topology::NvSwitch, 1.0, 0.0),
    (Paradigm::Gps, Topology::PcieTree, 1.0, 0.0),
    (Paradigm::Rdl, Topology::Switch, 8.0, 9.0),
    (Paradigm::Rdl, Topology::Ring, 10.0, 7.0),
    (Paradigm::Rdl, Topology::NvSwitch, 9.0, 9.0),
    (Paradigm::Rdl, Topology::PcieTree, 8.0, 9.0),
];

/// Relative difference of `lanes` from `reference`, in percent.
fn drift_pct(reference: f64, lanes: f64) -> f64 {
    if reference == lanes {
        return 0.0;
    }
    (lanes - reference).abs() / reference.abs().max(1.0) * 100.0
}

#[test]
fn epoch_tier_drift_stays_within_its_bounds() {
    let mut cases = Vec::new();
    for app in suite::all() {
        for &(paradigm, topology, steady_bound, bytes_bound) in &BOUNDS {
            for gpus in [4, 16] {
                cases.push((
                    app.name,
                    paradigm,
                    topology,
                    gpus,
                    steady_bound,
                    bytes_bound,
                ));
            }
        }
    }
    let drifts = parallel_map(
        cases
            .into_iter()
            .map(
                |(app, paradigm, topology, gpus, steady_bound, bytes_bound)| {
                    move || {
                        let app = suite::by_name(app).expect("suite app");
                        let spec = |parallel| RunSpec {
                            paradigm,
                            gpus,
                            link: LinkGen::NvLink3,
                            scale: ScaleProfile::Tiny,
                            pressure: MemoryPressure::NONE,
                            topology,
                            parallel,
                        };
                        let reference = measure(&app, spec(0)).expect("reference lane runs");
                        let lanes = measure(&app, spec(1)).expect("per-GPU lanes run");
                        let steady = drift_pct(reference.steady_cycles, lanes.steady_cycles);
                        let bytes = drift_pct(
                            reference.report.interconnect_bytes as f64,
                            lanes.report.interconnect_bytes as f64,
                        );
                        let label = format!(
                            "{}/{}/{}/{gpus}gpu: steady {steady:.2} % (bound {steady_bound}), \
                         bytes {bytes:.2} % (bound {bytes_bound})",
                            app.name,
                            paradigm.label(),
                            topology.label(),
                        );
                        (label, steady <= steady_bound && bytes <= bytes_bound)
                    }
                },
            )
            .collect(),
    );
    assert_eq!(drifts.len(), suite::all().len() * BOUNDS.len() * 2);
    let over: Vec<&str> = drifts
        .iter()
        .filter(|(_, within)| !within)
        .map(|(label, _)| label.as_str())
        .collect();
    assert!(
        over.is_empty(),
        "epoch-tier drift beyond its bound:\n{}",
        over.join("\n")
    );
}
