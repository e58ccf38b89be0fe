//! `lanes_16gpu`: the 16-GPU lane-engine path behind the scaling results.
//! {pagerank, jacobi} × {gps (GpsEpochs tier), rdl (WriterEpochs tier)} on
//! 16 GPUs over NVLink 3 through an NVSwitch at `paper` scale, with a
//! 2-worker lane pool, one unit at a time.
//!
//! pagerank is load-dominated, jacobi broadcast-store-dominated, so a gain
//! on the publish path that costs the load path shows here.

use std::collections::BTreeMap;
use std::time::Instant;

use gps_harness::{RunSpec, RunUnit};
use gps_interconnect::{LinkGen, Topology};
use gps_paradigms::{make_policy, Paradigm};
use gps_sim::{Engine, MemoryPressure, Workload};
use gps_workloads::ScaleProfile;

use crate::digest::{unit_key, Reference};
use crate::host::cpu_seconds;
use crate::spans::Tracer;
use crate::units::{
    build_key, build_workloads, observe_report, plan_units, Batch, BenchWorkload, Extras, UnitObs,
    JOBS,
};

/// The 16-GPU lane-engine workload.
pub struct Lanes {
    reference: Reference,
    units: Vec<RunUnit>,
    builds: BTreeMap<String, Workload>,
    build_ms: f64,
}

impl Lanes {
    /// The workload, checked against `reference`.
    pub fn new(reference: Reference) -> Lanes {
        Lanes {
            reference,
            units: Vec::new(),
            builds: BTreeMap::new(),
            build_ms: 0.0,
        }
    }

    /// Runs unit `i` on the lane engine with `workers` pool workers, on the
    /// workload built at set-up.
    fn run_unit(&self, i: usize, workers: usize, t: &mut Tracer) -> Result<UnitObs, String> {
        let u = &self.units[i];
        let key = unit_key(u);
        let wl = self
            .builds
            .get(&build_key(&u.app, u.spec))
            .ok_or_else(|| format!("{key}: workload not built"))?;
        t.span("bench", "unit", Some(i), |t| {
            let mut policy = t.span("paradigms", "make_policy", Some(i), |_| {
                make_policy(u.spec.paradigm)
            });
            // As `gps_paradigms::run_paradigm_configured`, on the prebuilt workload.
            let mut config = u.spec.machine().with_parallel_workers(workers);
            config.page_size = wl.page_size;
            let cpu0 = cpu_seconds();
            let begun = Instant::now();
            let report = t.span("sim", "engine_run", Some(i), |_| {
                Engine::new(config, u.spec.link, wl, policy.as_mut()).map(Engine::run)
            });
            let host_ms = begun.elapsed().as_secs_f64() * 1e3;
            let cpu_s = cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
            let report = report.map_err(|e| format!("{key}: {e}"))?;
            let obs = observe_report(u, workers, host_ms, &report, wl.phases_per_iteration, i, t);
            Ok(UnitObs { cpu_s, ..obs })
        })
    }

    fn run_all(&self, workers: usize, t: &mut Tracer) -> Batch {
        let mut batch = Batch::default();
        let cpu0 = cpu_seconds().unwrap_or(0.0);
        let begun = Instant::now();
        for i in 0..self.units.len() {
            match self.run_unit(i, workers, t) {
                Ok(obs) => batch.file(&self.reference, obs),
                Err(e) => batch.fail(e),
            }
        }
        batch.wall_s = begun.elapsed().as_secs_f64();
        batch.cpu_s = cpu_seconds().unwrap_or(0.0) - cpu0;
        batch
    }
}

impl BenchWorkload for Lanes {
    fn setup(&mut self, seed: u64, t: &mut Tracer) -> Result<(), String> {
        let spec = |paradigm| RunSpec {
            paradigm,
            gpus: 16,
            link: LinkGen::NvLink3,
            scale: ScaleProfile::Paper,
            pressure: MemoryPressure::NONE,
            topology: Topology::NvSwitch,
            parallel: JOBS,
        };
        self.units = plan_units(
            &["pagerank", "jacobi"],
            &[spec(Paradigm::Gps), spec(Paradigm::Rdl)],
            seed,
            t,
        );
        (self.builds, self.build_ms) = build_workloads(&self.units, t)?;
        Ok(())
    }

    fn batch(&mut self, t: &mut Tracer) -> Result<Batch, String> {
        Ok(self.run_all(JOBS, t))
    }

    /// Runs every unit again on one worker: the pool's speed-up over one
    /// worker, on the GPS and RDL tiers. Reports are worker-count
    /// invariant, so the twins are checked against the same reference.
    fn extras(&mut self, batch: &Batch, t: &mut Tracer) -> Result<Extras, String> {
        let legs = t.span("bench", "lanes_16gpu.one_worker", None, |t| {
            self.run_all(1, t)
        });
        let ms = |b: &Batch| b.units.iter().map(|u| u.host_ms).sum::<f64>();
        let pool_speedup = (ms(batch) > 0.0).then(|| ms(&legs) / ms(batch));
        Ok(Extras {
            legs,
            pool_speedup,
            ..Extras::default()
        })
    }

    fn build_ms(&self) -> f64 {
        self.build_ms
    }

    fn cleanup(&mut self) {}
}
