//! `timeline_4gpu`: the `gps-run timeline` / `sweep --telemetry` path.
//! {pagerank, jacobi} × {gps on the lane engine with one worker, um on the
//! classic loop} on 4 GPUs at `small` scale. Each unit records telemetry,
//! harvests it, writes the Chrome trace and phase breakdown, and validates
//! the trace it wrote.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use gps_harness::{
    measure, measure_probed, recording_probe, validate_chrome_trace, write_run_telemetry, RunSpec,
    RunUnit,
};
use gps_interconnect::{LinkGen, Topology};
use gps_paradigms::Paradigm;
use gps_sim::{MemoryPressure, Workload};
use gps_workloads::{suite, ScaleProfile};

use crate::digest::{unit_key, Reference};
use crate::host::cpu_seconds;
use crate::spans::Tracer;
use crate::units::{
    build_key, build_workloads, observe_report, plan_units, Batch, BenchWorkload, Extras,
    ObsCounts, UnitObs,
};

/// The telemetry workload.
pub struct Timeline {
    reference: Reference,
    dir: PathBuf,
    units: Vec<RunUnit>,
    builds: BTreeMap<String, Workload>,
    build_ms: f64,
}

impl Timeline {
    /// The workload, writing its traces under `dir`.
    pub fn new(reference: Reference, dir: PathBuf) -> Timeline {
        Timeline {
            reference,
            dir,
            units: Vec::new(),
            builds: BTreeMap::new(),
            build_ms: 0.0,
        }
    }

    fn run_unit(&self, i: usize, t: &mut Tracer) -> Result<UnitObs, String> {
        let u = &self.units[i];
        let key = unit_key(u);
        let app = suite::by_name(&u.app).ok_or_else(|| format!("{key}: unknown app"))?;
        t.span("bench", "unit", Some(i), |t| {
            let probe = t.span("obs", "recording_probe", Some(i), |_| recording_probe());
            let begun = Instant::now();
            let m = t.span("sim", "measure_probed", Some(i), |_| {
                measure_probed(&app, u.spec, probe.clone())
            });
            let probed_ms = begun.elapsed().as_secs_f64() * 1e3;
            let m = m.map_err(|e| format!("{key}: {e}"))?;

            let begun = Instant::now();
            let telemetry = t.span("obs", "finish", Some(i), |_| probe.finish());
            let finish_ms = begun.elapsed().as_secs_f64() * 1e3;
            let telemetry =
                telemetry.ok_or_else(|| format!("{key}: the probe recorded nothing"))?;

            let begun = Instant::now();
            let paths = t.span("obs", "write_run_telemetry", Some(i), |_| {
                write_run_telemetry(&self.dir, &u.key, &telemetry)
            });
            let export_ms = begun.elapsed().as_secs_f64() * 1e3;
            let paths = paths.map_err(|e| format!("{key}: writing telemetry: {e}"))?;

            let stats = t.span("harness", "validate_chrome_trace", Some(i), |_| {
                let text = std::fs::read_to_string(&paths.trace)
                    .map_err(|e| format!("reading {}: {e}", paths.trace.display()))?;
                validate_chrome_trace(&text).map(|s| (s, text.len()))
            });
            let (stats, trace_bytes) = stats.map_err(|e| format!("{key}: invalid trace: {e}"))?;

            let obs = observe_report(
                u,
                u.spec.parallel,
                probed_ms,
                &m.report,
                m.phases_per_iteration,
                i,
                t,
            );
            // Warp counts are checked where the workloads were prebuilt
            // (the traced run).
            let warps = obs.counts.map_or(0, |c| c.warps);
            let built = self
                .builds
                .get(&build_key(&u.app, u.spec))
                .map(Workload::total_warps);
            if !self.builds.is_empty() && built != Some(warps) {
                return Err(format!("{key}: simulated {warps} warps, built {built:?}"));
            }
            Ok(UnitObs {
                probed: true,
                obs: Some(ObsCounts {
                    probed_ms,
                    finish_ms,
                    export_ms,
                    trace_bytes: trace_bytes as u64,
                    trace_events: stats.events as u64,
                }),
                ..obs
            })
        })
    }
}

impl BenchWorkload for Timeline {
    fn setup(&mut self, seed: u64, t: &mut Tracer) -> Result<(), String> {
        let spec = |paradigm, parallel| RunSpec {
            paradigm,
            gpus: 4,
            link: LinkGen::Pcie3,
            scale: ScaleProfile::Small,
            pressure: MemoryPressure::NONE,
            topology: Topology::Switch,
            parallel,
        };
        self.units = plan_units(
            &["pagerank", "jacobi"],
            &[spec(Paradigm::Gps, 1), spec(Paradigm::Um, 0)],
            seed,
            t,
        );
        t.span("bench", "telemetry_dir", None, |_| {
            std::fs::create_dir_all(&self.dir)
        })
        .map_err(|e| format!("creating {}: {e}", self.dir.display()))?;
        Ok(())
    }

    fn prebuild(&mut self, t: &mut Tracer) -> Result<(), String> {
        (self.builds, self.build_ms) = build_workloads(&self.units, t)?;
        Ok(())
    }

    fn batch(&mut self, t: &mut Tracer) -> Result<Batch, String> {
        let mut batch = Batch::default();
        let cpu0 = cpu_seconds().unwrap_or(0.0);
        let begun = Instant::now();
        for i in 0..self.units.len() {
            match self.run_unit(i, t) {
                Ok(obs) => batch.file(&self.reference, obs),
                Err(e) => batch.fail(e),
            }
        }
        batch.wall_s = begun.elapsed().as_secs_f64();
        batch.cpu_s = cpu_seconds().unwrap_or(0.0) - cpu0;
        Ok(batch)
    }

    /// Runs every unit again without a probe: what telemetry adds.
    fn extras(&mut self, batch: &Batch, t: &mut Tracer) -> Result<Extras, String> {
        let mut legs = Batch::default();
        let root = t.enter("bench", "timeline_4gpu.unprobed", None);
        for (i, u) in self.units.iter().enumerate() {
            let key = unit_key(u);
            let Some(app) = suite::by_name(&u.app) else {
                legs.fail(format!("{key}: unknown app"));
                continue;
            };
            let begun = Instant::now();
            let m = t.span("sim", "measure", Some(i), |_| measure(&app, u.spec));
            let host_ms = begun.elapsed().as_secs_f64() * 1e3;
            match m {
                Ok(m) => {
                    let obs = observe_report(
                        u,
                        u.spec.parallel,
                        host_ms,
                        &m.report,
                        m.phases_per_iteration,
                        i,
                        t,
                    );
                    legs.file(&self.reference, obs);
                }
                Err(e) => legs.fail(format!("{key}: {e}")),
            }
        }
        t.exit(root);
        let telemetry_ms: f64 = batch
            .units
            .iter()
            .filter_map(|u| u.obs)
            .map(|o| o.probed_ms + o.finish_ms + o.export_ms)
            .sum();
        let unprobed_ms: f64 = legs.units.iter().map(|u| u.host_ms).sum();
        let obs_overhead = (unprobed_ms > 0.0).then(|| telemetry_ms / unprobed_ms - 1.0);
        Ok(Extras {
            legs,
            obs_overhead,
            ..Extras::default()
        })
    }

    fn build_ms(&self) -> f64 {
        self.build_ms
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
