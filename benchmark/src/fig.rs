//! `fig_sweep_4gpu`: the Figure-8 sweep users run to regenerate Figures
//! 8 and 12 — 8 apps × 6 paradigms on 4 GPUs over PCIe 3.0 at `small`
//! scale, on the classic engine, through `gps_harness::run_units` with two
//! jobs into a fresh store.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use gps_harness::{
    measure, parallel_map, run_units, ResultStore, RunSpec, RunStatus, RunUnit, SweepOptions,
};
use gps_interconnect::{LinkGen, Topology};
use gps_paradigms::Paradigm;
use gps_sim::{MemoryPressure, Workload};
use gps_workloads::{suite, ScaleProfile};

use crate::digest::{unit_key, Digest, Reference};
use crate::host::{cpu_seconds, nproc};
use crate::spans::Tracer;
use crate::units::{
    build_key, build_workloads, layer_counts, observe_report, plan_units, Batch, BenchWorkload,
    Extras, UnitObs, JOBS,
};

/// The figure sweep.
pub struct FigSweep {
    reference: Reference,
    work: PathBuf,
    units: Vec<RunUnit>,
    builds: BTreeMap<String, Workload>,
    build_ms: f64,
    batches: usize,
}

impl FigSweep {
    /// A sweep writing its stores under `work`.
    pub fn new(reference: Reference, work: PathBuf) -> FigSweep {
        FigSweep {
            reference,
            work,
            units: Vec::new(),
            builds: BTreeMap::new(),
            build_ms: 0.0,
            batches: 0,
        }
    }

    fn store(&self, batch: usize) -> PathBuf {
        self.work.join(format!("batch{batch}")).join("store.jsonl")
    }
}

/// The sweep's machine: every unit of the workload shares it.
fn spec(paradigm: Paradigm) -> RunSpec {
    RunSpec {
        paradigm,
        gpus: 4,
        link: LinkGen::Pcie3,
        scale: ScaleProfile::Small,
        pressure: MemoryPressure::NONE,
        topology: Topology::Switch,
        parallel: 0,
    }
}

impl BenchWorkload for FigSweep {
    fn setup(&mut self, seed: u64, t: &mut Tracer) -> Result<(), String> {
        let apps: Vec<&str> = suite::all().iter().map(|a| a.name).collect();
        let specs: Vec<RunSpec> = Paradigm::FIGURE8.iter().map(|&p| spec(p)).collect();
        self.units = plan_units(&apps, &specs, seed, t);
        let store = self.store(self.batches);
        t.span("harness", "open_store", None, |_| -> std::io::Result<()> {
            if let Some(dir) = store.parent() {
                std::fs::create_dir_all(dir)?;
            }
            ResultStore::open_append(&store).map(drop)
        })
        .map_err(|e| format!("creating {}: {e}", store.display()))?;
        Ok(())
    }

    fn prebuild(&mut self, t: &mut Tracer) -> Result<(), String> {
        (self.builds, self.build_ms) = build_workloads(&self.units, t)?;
        Ok(())
    }

    fn batch(&mut self, t: &mut Tracer) -> Result<Batch, String> {
        let store = self.store(self.batches);
        self.batches += 1;
        if let Some(dir) = store.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        let opts = SweepOptions {
            workers: JOBS,
            retries: 0,
            ..SweepOptions::default()
        };
        let cpu0 = cpu_seconds().unwrap_or(0.0);
        let begun = Instant::now();
        let pool = t.enter("harness", "run_units", None);
        t.set_tracks(pool, JOBS as u32);
        let outcome = run_units(self.units.clone(), &store, &opts);
        let wall_s = begun.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds().unwrap_or(0.0) - cpu0;
        let outcome = outcome.map_err(|e| format!("run_units on {}: {e}", store.display()))?;
        let records: BTreeMap<&str, _> = outcome
            .records
            .iter()
            .map(|r| (r.key.as_str(), r))
            .collect();
        for (i, u) in self.units.iter().enumerate() {
            if let Some(r) = records.get(u.key.as_str()) {
                t.record_child(pool, "sim", &u.label(), Some(i), (r.wall_ms * 1e6) as u64);
            }
        }
        t.exit(pool);

        let mut batch = Batch {
            wall_s,
            cpu_s,
            pool: Some((wall_s, JOBS)),
            ..Batch::default()
        };
        t.span("bench", "check", None, |t| {
            for (i, u) in self.units.iter().enumerate() {
                let key = unit_key(u);
                match records.get(u.key.as_str()) {
                    Some(r) if r.status == RunStatus::Ok => {
                        let digest = Digest::from_record(r);
                        let layers = layer_counts(&digest, i, t);
                        // Records carry no instruction count; it is the same
                        // for every paradigm, so the reference supplies it.
                        let instructions = self
                            .reference
                            .get(&key)
                            .and_then(|d| d.instructions)
                            .unwrap_or(0);
                        let obs = UnitObs::new(u, 0, r.wall_ms, digest, layers);
                        batch.file(
                            &self.reference,
                            UnitObs {
                                instructions,
                                ..obs
                            },
                        );
                    }
                    Some(r) => batch.fail(format!(
                        "{key}: quarantined: {}",
                        r.error.as_deref().unwrap_or("no message")
                    )),
                    None => batch.fail(format!("{key}: no store record")),
                }
            }
        });
        if let Some(dir) = store.parent() {
            // The store has been read back; a leftover only costs disk.
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(batch)
    }

    /// Store records carry no simulator report, so the traced run re-runs
    /// every unit through `gps_harness::measure` for the report counts,
    /// checking each against the reference again — this time including its
    /// instruction count and built warp count.
    fn extras(&mut self, _batch: &Batch, t: &mut Tracer) -> Result<Extras, String> {
        let root = t.enter("bench", "fig_sweep_4gpu.count_pass", None);
        let pool = t.enter("sim", "measure_pool", None);
        let jobs = self
            .units
            .iter()
            .map(|u| {
                move || {
                    let begun = Instant::now();
                    let result = suite::by_name(&u.app)
                        .ok_or_else(|| format!("unknown app {}", u.app))
                        .and_then(|app| measure(&app, u.spec).map_err(|e| e.to_string()));
                    (result, begun.elapsed().as_secs_f64() * 1e3)
                }
            })
            .collect();
        let done = parallel_map(jobs);
        t.set_tracks(pool, nproc().min(self.units.len()) as u32);
        for (i, (_, ms)) in done.iter().enumerate() {
            t.record_child(
                pool,
                "sim",
                &self.units[i].label(),
                Some(i),
                (ms * 1e6) as u64,
            );
        }
        t.exit(pool);

        let mut legs = Batch::default();
        for (i, (result, ms)) in done.into_iter().enumerate() {
            let u = &self.units[i];
            let key = unit_key(u);
            let m = match result {
                Ok(m) => m,
                Err(e) => {
                    legs.fail(format!("{key}: {e}"));
                    continue;
                }
            };
            let obs = observe_report(u, 0, ms, &m.report, m.phases_per_iteration, i, t);
            let warps = obs.counts.map_or(0, |c| c.warps);
            let built = self
                .builds
                .get(&build_key(&u.app, u.spec))
                .map(Workload::total_warps);
            if built != Some(warps) {
                legs.fail(format!("{key}: simulated {warps} warps, built {built:?}"));
                continue;
            }
            legs.file(&self.reference, obs);
        }
        t.exit(root);
        Ok(Extras {
            legs,
            counts_in_legs: true,
            ..Extras::default()
        })
    }

    fn build_ms(&self) -> f64 {
        self.build_ms
    }

    fn cleanup(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}
