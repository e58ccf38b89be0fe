//! What every workload shares: planned units, per-unit observations, batch
//! results and the counter harvest.

use std::collections::BTreeMap;
use std::time::Instant;

use gps_harness::{run_key_default_machine, RunSpec, RunUnit};
use gps_paradigms::Paradigm;
use gps_sim::{SimReport, Workload};
use gps_types::rng::SmallRng;
use gps_workloads::suite;

use crate::digest::{unit_key, Digest, Reference};
use crate::spans::Tracer;

/// Host worker threads every workload stays within (the 2-core host the
/// benchmark is sized for).
pub const JOBS: usize = 2;

/// Expands `apps × specs` into run units (the `harness` layer derives each
/// content-addressed key) and permutes them with `seed`.
pub fn plan_units(apps: &[&str], specs: &[RunSpec], seed: u64, t: &mut Tracer) -> Vec<RunUnit> {
    let mut units = t.span("harness", "expand_units", None, |_| {
        apps.iter()
            .flat_map(|app| {
                specs.iter().map(move |&spec| RunUnit {
                    key: run_key_default_machine(app, spec),
                    app: (*app).to_owned(),
                    spec,
                })
            })
            .collect::<Vec<_>>()
    });
    permute(&mut units, seed);
    units
}

/// Fisher–Yates shuffle driven by `seed`.
pub fn permute<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range_usize(0..i + 1);
        items.swap(i, j);
    }
}

/// Builds each distinct `(app, gpus, scale)` workload of `units` once, in a
/// `workloads` span per build. Returns the workloads and the build time.
pub fn build_workloads(
    units: &[RunUnit],
    t: &mut Tracer,
) -> Result<(BTreeMap<String, Workload>, f64), String> {
    let mut built = BTreeMap::new();
    let begun = Instant::now();
    for u in units {
        let name = build_key(&u.app, u.spec);
        if built.contains_key(&name) {
            continue;
        }
        let app = suite::by_name(&u.app).ok_or_else(|| format!("unknown app {}", u.app))?;
        let wl = t.span("workloads", &format!("build.{name}"), None, |_| {
            (app.build)(u.spec.gpus, u.spec.scale)
        });
        built.insert(name, wl);
    }
    Ok((built, begun.elapsed().as_secs_f64() * 1e3))
}

/// The key of a built workload: `app/gpus/scale`.
pub fn build_key(app: &str, spec: RunSpec) -> String {
    format!("{app}/{}gpu/{}", spec.gpus, spec.scale.label())
}

/// Counts read from a simulator report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReportCounts {
    /// Warps.
    pub warps: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// DRAM bytes read and written.
    pub dram_bytes: u64,
    /// Last-level TLB hits.
    pub tlb_hits: u64,
    /// Last-level TLB misses.
    pub tlb_misses: u64,
}

/// Telemetry of a probed unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObsCounts {
    /// The probed simulation.
    pub probed_ms: f64,
    /// `ProbeHandle::finish`.
    pub finish_ms: f64,
    /// `write_run_telemetry`.
    pub export_ms: f64,
    /// Bytes of the written Chrome trace.
    pub trace_bytes: u64,
    /// Events in the Chrome trace.
    pub trace_events: u64,
}

/// What one unit did.
#[derive(Debug, Clone)]
pub struct UnitObs {
    /// Digest key ([`unit_key`]).
    pub key: String,
    /// Paradigm.
    pub paradigm: Paradigm,
    /// Application.
    pub app: String,
    /// Lane-engine workers (0 = classic loop).
    pub workers: usize,
    /// Whether a telemetry probe was attached.
    pub probed: bool,
    /// Host milliseconds of the simulation.
    pub host_ms: f64,
    /// Process CPU seconds during the simulation, where measured.
    pub cpu_s: Option<f64>,
    /// Simulated instructions (from the report, or the reference where
    /// the unit ran through the store).
    pub instructions: u64,
    /// The simulated outputs.
    pub digest: Digest,
    /// Counters of the paradigm, core and fabric layers.
    pub layers: LayerCounts,
    /// Report counts, where the path exposes the report.
    pub counts: Option<ReportCounts>,
    /// Telemetry counts of a probed unit.
    pub obs: Option<ObsCounts>,
}

impl UnitObs {
    /// An unprobed observation of `u` on `workers` lane workers (0 = the
    /// classic loop), without report counts.
    pub fn new(
        u: &RunUnit,
        workers: usize,
        host_ms: f64,
        digest: Digest,
        layers: LayerCounts,
    ) -> UnitObs {
        UnitObs {
            key: unit_key(u),
            paradigm: u.spec.paradigm,
            app: u.app.clone(),
            workers,
            probed: false,
            host_ms,
            cpu_s: None,
            instructions: digest.instructions.unwrap_or(0),
            digest,
            layers,
            counts: None,
            obs: None,
        }
    }
}

/// Reads the report's counters, in a span per layer that owns them.
fn harvest(report: &SimReport, unit: usize, t: &mut Tracer) -> ReportCounts {
    let mut c = ReportCounts::default();
    t.span("sim", "report_counts", Some(unit), |_| {
        for g in &report.per_gpu {
            c.warps += g.warps;
            c.l2_misses += g.l2_misses;
            c.dram_bytes += g.dram_read_bytes + g.dram_write_bytes;
        }
    });
    t.span("mem", "tlb_counts", Some(unit), |_| {
        for g in &report.per_gpu {
            c.tlb_hits += g.tlb.hits;
            c.tlb_misses += g.tlb.misses;
        }
    });
    c
}

/// The counters the paradigm, GPS-core and fabric layers report for a unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// UM page faults.
    pub um_faults: f64,
    /// Pages UM migrated.
    pub um_migrated_pages: f64,
    /// RDL loads served remotely.
    pub rdl_remote_loads: f64,
    /// GPS remote-write-queue hit rate (GPS units only).
    pub rwq_hit_rate: Option<f64>,
    /// GPS-TLB hit rate (GPS units only).
    pub gps_tlb_hit_rate: Option<f64>,
    /// Subscriptions GPS pruned.
    pub pruned_subscriptions: f64,
    /// Bytes over the fabric.
    pub fabric_bytes: u64,
    /// Fabric transfers.
    pub fabric_transfers: u64,
}

/// Reads each layer's counters out of a unit's digest, in a span per layer.
pub fn layer_counts(d: &Digest, unit: usize, t: &mut Tracer) -> LayerCounts {
    let mut c = LayerCounts::default();
    let get = |name| d.metric(name).unwrap_or(0.0);
    t.span("paradigms", "policy_counters", Some(unit), |_| {
        c.um_faults = get("um_faults");
        c.um_migrated_pages = get("um_migrated_pages");
        c.rdl_remote_loads = get("rdl_remote_loads");
    });
    t.span("core", "gps_counters", Some(unit), |_| {
        c.rwq_hit_rate = d.metric("rwq_hit_rate");
        c.gps_tlb_hit_rate = d.metric("gps_tlb_hit_rate");
        c.pruned_subscriptions = get("pruned_subscriptions");
    });
    t.span("interconnect", "fabric_counters", Some(unit), |_| {
        c.fabric_bytes = d.interconnect_bytes;
        c.fabric_transfers = d.interconnect_transfers;
    });
    c
}

/// An observation of a unit that ran through a path exposing its report.
pub fn observe_report(
    u: &RunUnit,
    workers: usize,
    host_ms: f64,
    report: &SimReport,
    phases_per_iteration: usize,
    unit: usize,
    t: &mut Tracer,
) -> UnitObs {
    let digest = Digest::from_report(report, phases_per_iteration);
    let layers = layer_counts(&digest, unit, t);
    let counts = harvest(report, unit, t);
    UnitObs {
        counts: Some(counts),
        ..UnitObs::new(u, workers, host_ms, digest, layers)
    }
}

/// The outcome of one batch over every unit of a workload.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// Host seconds for the batch.
    pub wall_s: f64,
    /// Process CPU seconds for the batch.
    pub cpu_s: f64,
    /// Simulated instructions over the batch.
    pub instructions: u64,
    /// Units attempted.
    pub attempted: u64,
    /// Why each failed unit failed.
    pub failures: Vec<String>,
    /// Per-unit observations.
    pub units: Vec<UnitObs>,
    /// `run_units` wall seconds and jobs, where the harness pool ran it.
    pub pool: Option<(f64, usize)>,
}

impl Batch {
    /// Checks `obs` against the reference and files it.
    pub fn file(&mut self, reference: &Reference, obs: UnitObs) {
        self.attempted += 1;
        if let Err(e) = reference.check(&obs.key, &obs.digest) {
            self.failures.push(e);
        }
        self.instructions += obs.instructions;
        self.units.push(obs);
    }

    /// Files a unit that produced no result.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failures.push(why);
    }
}

/// Legs only the traced run makes, beside its one traced batch.
#[derive(Debug, Clone, Default)]
pub struct Extras {
    /// The units these legs ran, checked against the reference like any
    /// batch.
    pub legs: Batch,
    /// Whether the report counts come from `legs` (the figure sweep's
    /// store records carry no report) rather than the traced batch.
    pub counts_in_legs: bool,
    /// One-worker over pool wall time of the lane-engine units.
    pub pool_speedup: Option<f64>,
    /// Host time telemetry adds over the unprobed twin runs, as a share of
    /// the unprobed time.
    pub obs_overhead: Option<f64>,
}

/// One benchmark workload: a closed batch of units.
pub trait BenchWorkload {
    /// One set-up pass: what the program does before its first unit
    /// begins simulating (unit expansion, key derivation, store and
    /// directory creation, and workload builds where the units run on
    /// prebuilt workloads). Units are permuted with `seed`.
    ///
    /// # Errors
    ///
    /// Describes a set-up step that failed.
    fn setup(&mut self, seed: u64, t: &mut Tracer) -> Result<(), String>;

    /// Builds the workloads the traced run checks simulated warp counts
    /// against, where set-up builds none: those units build their own
    /// workload inside the simulation call, so these builds are the
    /// benchmark's alone and the timed runs skip them.
    ///
    /// # Errors
    ///
    /// Describes a build that failed.
    fn prebuild(&mut self, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Runs every unit once and checks each against the reference.
    ///
    /// # Errors
    ///
    /// Describes an I/O failure of the batch itself; failed units are
    /// recorded in the batch instead.
    fn batch(&mut self, t: &mut Tracer) -> Result<Batch, String>;

    /// The traced run's extra legs, run after `batch` was traced.
    ///
    /// # Errors
    ///
    /// As [`BenchWorkload::batch`].
    fn extras(&mut self, batch: &Batch, t: &mut Tracer) -> Result<Extras, String>;

    /// Host milliseconds the last set-up or prebuild spent building
    /// workloads.
    fn build_ms(&self) -> f64;

    /// Removes what the workload wrote to disk.
    fn cleanup(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_shuffle() {
        let base: Vec<u32> = (0..48).collect();
        let (mut a, mut b, mut c) = (base.clone(), base.clone(), base.clone());
        permute(&mut a, 1);
        permute(&mut b, 1);
        permute(&mut c, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, base);
        a.sort_unstable();
        assert_eq!(a, base);
    }
}
