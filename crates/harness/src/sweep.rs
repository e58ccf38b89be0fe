//! Sweep expansion, resumable execution and reporting.
//!
//! A [`SweepSpec`] is the cross product the paper's evaluation runs —
//! applications × paradigms × GPU counts × interconnects × scales.
//! [`run_sweep`] turns it into a job set, subtracts everything the result
//! store already has a completed record for (the *resume* path: run keys
//! are content-addressed, so a completed key can be skipped soundly),
//! executes the rest on the worker pool with panic quarantine, and
//! appends each result to the store the moment it finishes.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use gps_interconnect::{LinkGen, Topology};
use gps_obs::ProbeHandle;
use gps_paradigms::Paradigm;
use gps_sim::MemoryPressure;
use gps_workloads::{suite, ScaleProfile};

use crate::key::run_key_default_machine;
use crate::pool::{run_jobs, JobResult};
use crate::runner::{measure_probed, RunSpec};
use crate::store::{ResultStore, RunRecord, RunStatus};
use crate::telemetry;

/// The cross product a sweep executes.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Application names (must exist in [`gps_workloads::suite`]).
    pub apps: Vec<String>,
    /// Paradigms to run.
    pub paradigms: Vec<Paradigm>,
    /// GPU counts.
    pub gpu_counts: Vec<usize>,
    /// Interconnect generations.
    pub links: Vec<LinkGen>,
    /// Problem scales.
    pub scales: Vec<ScaleProfile>,
    /// Memory-pressure points (`[MemoryPressure::NONE]` for the classic
    /// in-capacity sweep; `gps-run sweep --oversubscribe` adds more).
    pub pressures: Vec<MemoryPressure>,
    /// Fabric topologies (`[Topology::Switch]` reproduces the paper;
    /// `gps-run sweep --topologies` adds the switch-based fabrics).
    pub topologies: Vec<Topology>,
    /// Lane-engine workers applied to every run (0 = the reference lane,
    /// the default; `gps-run sweep --parallel N` opts runs into per-GPU
    /// lanes).
    pub parallel: usize,
}

impl SweepSpec {
    /// The full paper suite: 8 applications × the 6 Figure-8 paradigms ×
    /// {4, 16} GPUs × PCIe 3.0–6.0 at paper scale (Figures 11–15).
    pub fn paper_suite() -> SweepSpec {
        SweepSpec {
            apps: suite::all().iter().map(|a| a.name.to_owned()).collect(),
            paradigms: Paradigm::FIGURE8.to_vec(),
            gpu_counts: vec![4, 16],
            links: LinkGen::PCIE_SWEEP.to_vec(),
            scales: vec![ScaleProfile::Paper],
            pressures: vec![MemoryPressure::NONE],
            topologies: vec![Topology::Switch],
            parallel: 0,
        }
    }

    /// The superpod scaling study: all apps × the Figure-8 paradigms at
    /// {32, 64} GPUs on both superpod fabrics (NVSwitch scale-up, PCIe-tree
    /// scale-out), small scale, executed on the 8-worker lane engine.
    pub fn superpod() -> SweepSpec {
        SweepSpec {
            apps: suite::all().iter().map(|a| a.name.to_owned()).collect(),
            paradigms: Paradigm::FIGURE8.to_vec(),
            gpu_counts: vec![32, 64],
            links: vec![LinkGen::NvLink3],
            scales: vec![ScaleProfile::Small],
            pressures: vec![MemoryPressure::NONE],
            topologies: vec![Topology::NvSwitch, Topology::PcieTree],
            parallel: 8,
        }
    }

    /// A tiny smoke sweep (all apps, all Figure-8 paradigms, 4 GPUs,
    /// PCIe 3.0, tiny scale) — the default of `gps-run sweep`.
    pub fn smoke() -> SweepSpec {
        SweepSpec {
            apps: suite::all().iter().map(|a| a.name.to_owned()).collect(),
            paradigms: Paradigm::FIGURE8.to_vec(),
            gpu_counts: vec![4],
            links: vec![LinkGen::Pcie3],
            scales: vec![ScaleProfile::Tiny],
            pressures: vec![MemoryPressure::NONE],
            topologies: vec![Topology::Switch],
            parallel: 0,
        }
    }

    /// Expands the cross product into run units in a deterministic order
    /// (apps outermost, scales innermost), validating application names.
    ///
    /// # Errors
    ///
    /// Returns the first unknown application name.
    pub fn units(&self) -> Result<Vec<RunUnit>, String> {
        let mut units = Vec::new();
        for app in &self.apps {
            if suite::by_name(app).is_none() {
                return Err(format!("unknown application {app:?}"));
            }
            for &paradigm in &self.paradigms {
                for &gpus in &self.gpu_counts {
                    for &link in &self.links {
                        for &scale in &self.scales {
                            for &pressure in &self.pressures {
                                for &topology in &self.topologies {
                                    let spec = RunSpec {
                                        paradigm,
                                        gpus,
                                        link,
                                        scale,
                                        pressure,
                                        topology,
                                        parallel: self.parallel,
                                    };
                                    units.push(RunUnit {
                                        key: run_key_default_machine(app, spec),
                                        app: app.clone(),
                                        spec,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(units)
    }
}

/// One expanded job of a sweep.
#[derive(Debug, Clone)]
pub struct RunUnit {
    /// Content-addressed run key.
    pub key: String,
    /// Application name.
    pub app: String,
    /// The simulation request.
    pub spec: RunSpec,
}

impl RunUnit {
    /// `app/paradigm/gpus/link/scale`, the human-facing run label; active
    /// memory pressure appends an `/oversub<ratio>x<policy>` suffix, a
    /// non-default topology appends its label, and the lane engine appends
    /// `/par<workers>`.
    pub fn label(&self) -> String {
        let mut label = format!(
            "{}/{}/{}gpu/{}/{}",
            self.app,
            self.spec.paradigm.label(),
            self.spec.gpus,
            self.spec.link.label(),
            self.spec.scale.label()
        );
        if self.spec.pressure.is_active() {
            label.push_str(&format!(
                "/oversub{:.2}x{}",
                self.spec.pressure.ratio(),
                self.spec.pressure.victim_policy.label()
            ));
        }
        if self.spec.topology != Topology::Switch {
            label.push_str(&format!("/{}", self.spec.topology.label()));
        }
        if self.spec.parallel > 0 {
            label.push_str(&format!("/par{}", self.spec.parallel));
        }
        label
    }
}

/// Execution knobs of one sweep invocation.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (0 = host parallelism).
    pub workers: usize,
    /// Extra attempts per panicking run before quarantine.
    pub retries: u32,
    /// Stop after launching at most this many jobs (used to simulate and
    /// test interrupted sweeps; remaining jobs stay pending for resume).
    pub max_jobs: Option<usize>,
    /// Applications whose runs deliberately panic (failure injection for
    /// quarantine testing).
    pub inject_panic: Vec<String>,
    /// Emit per-run log lines and a live progress line to stderr.
    pub log: bool,
    /// When set, record cycle-resolved telemetry for every executed run and
    /// write `<key>.trace.json` (Chrome trace) plus `<key>.phases.txt`
    /// (per-phase counter breakdown) into this directory. Probes only
    /// observe, so the stored results are identical with or without it.
    pub telemetry_dir: Option<PathBuf>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: 0,
            retries: 1,
            max_jobs: None,
            inject_panic: Vec::new(),
            log: false,
            telemetry_dir: None,
        }
    }
}

/// The outcome of one sweep invocation.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The merged store view after this invocation: latest record per key,
    /// sorted by key (deterministic regardless of worker count or
    /// completion order).
    pub records: Vec<RunRecord>,
    /// Jobs executed by this invocation.
    pub executed: usize,
    /// Jobs skipped because the store already had a completed record
    /// (run-key cache hits).
    pub skipped: usize,
    /// Jobs left pending (`max_jobs` cut the queue short).
    pub pending: usize,
    /// Jobs quarantined by this invocation.
    pub quarantined: usize,
    /// Corrupt (torn) store lines dropped on load.
    pub corrupt_lines: usize,
    /// Completed records carried over from an older `KEY_VERSION`: their
    /// stored key no longer matches the one this build derives, so they
    /// were re-appended under their re-derived key and count as cache hits
    /// instead of being silently re-run.
    pub migrated: usize,
}

/// Re-derives the content-addressed key of a stored record from its own
/// fields (sweeps always key the spec's default machine, so the key is a
/// pure function of the record). `None` when a stored label no longer
/// parses — a record from a dimension this build does not know cannot be
/// migrated and is left alone.
fn rederived_key(r: &RunRecord) -> Option<String> {
    let spec = RunSpec {
        paradigm: r.paradigm.parse().ok()?,
        gpus: r.gpus as usize,
        link: r.link.parse().ok()?,
        scale: r.scale.parse().ok()?,
        pressure: r.pressure,
        topology: r.topology.parse().ok()?,
        parallel: r.parallel as usize,
    };
    Some(run_key_default_machine(&r.app, spec))
}

/// Key-version migration: re-homes completed records whose stored key no
/// longer matches the key this build derives for the same run (a store
/// written under an older `KEY_VERSION`, e.g. before `SimConfig` grew the
/// topology/engine fields). Each such record is re-appended under its
/// re-derived key — the store stays append-only; `gps-run gc` drops the
/// stale line — so a resume treats the old result as the cache hit it is.
/// Records under a key that already has a (newer) record are left alone:
/// a fresh result must never be shadowed by a migrated one.
fn migrate_stale_keys(existing: &mut Vec<RunRecord>, store_path: &Path) -> std::io::Result<usize> {
    let have: std::collections::BTreeSet<String> = existing.iter().map(|r| r.key.clone()).collect();
    let mut moved = Vec::new();
    for r in existing.iter() {
        if r.status != RunStatus::Ok {
            continue;
        }
        if let Some(key) = rederived_key(r) {
            if key != r.key && !have.contains(&key) {
                let mut m = r.clone();
                m.key = key;
                moved.push(m);
            }
        }
    }
    if !moved.is_empty() {
        let mut store = ResultStore::open_append(store_path)?;
        for m in &moved {
            store.append(m)?;
        }
    }
    let migrated = moved.len();
    existing.append(&mut moved);
    Ok(migrated)
}

fn quarantine_record(unit: &RunUnit, attempts: u32, error: &str) -> RunRecord {
    RunRecord {
        key: unit.key.clone(),
        app: unit.app.clone(),
        paradigm: unit.spec.paradigm.label().to_owned(),
        gpus: unit.spec.gpus as u64,
        link: unit.spec.link.label().to_owned(),
        scale: unit.spec.scale.label().to_owned(),
        topology: unit.spec.topology.label().to_owned(),
        parallel: unit.spec.parallel as u64,
        pressure: unit.spec.pressure,
        status: RunStatus::Quarantined,
        attempts,
        wall_ms: 0.0,
        steady_cycles: 0.0,
        total_cycles: 0,
        interconnect_bytes: 0,
        interconnect_transfers: 0,
        metrics: Vec::new(),
        error: Some(error.to_owned()),
    }
}

/// Runs (or resumes) `spec` against the store at `store_path`.
///
/// Completed keys already in the store are skipped — each skip is logged as
/// a `cache hit` when `opts.log` is set. Quarantined keys are re-attempted
/// (a later record for the same key supersedes the earlier one on load).
///
/// # Errors
///
/// Returns `InvalidInput` for unknown application names; propagates store
/// I/O errors. Individual run panics are *not* errors — they quarantine.
pub fn run_sweep(
    spec: &SweepSpec,
    store_path: &Path,
    opts: &SweepOptions,
) -> std::io::Result<SweepOutcome> {
    let to_io = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
    let units = spec.units().map_err(to_io)?;
    run_units(units, store_path, opts)
}

/// Executes an explicit list of [`RunUnit`]s against the store — the engine
/// underneath [`run_sweep`], exposed so other producers of run units (the
/// figure functions, ad-hoc job lists) get the same resume/quarantine/store
/// machinery without going through a cross-product [`SweepSpec`].
///
/// # Errors
///
/// Propagates store I/O errors. Individual run panics are *not* errors —
/// they quarantine.
pub fn run_units(
    units: Vec<RunUnit>,
    store_path: &Path,
    opts: &SweepOptions,
) -> std::io::Result<SweepOutcome> {
    if let Some(dir) = &opts.telemetry_dir {
        std::fs::create_dir_all(dir)?;
    }

    let (mut existing, corrupt_lines) = ResultStore::load_latest(store_path)?;
    let migrated = migrate_stale_keys(&mut existing, store_path)?;
    if migrated > 0 && opts.log {
        eprintln!("[gps-run] migrated {migrated} stale-key records to the current key version");
    }
    let done: std::collections::BTreeSet<&str> = existing
        .iter()
        .filter(|r| r.status == RunStatus::Ok)
        .map(|r| r.key.as_str())
        .collect();

    let mut pending_units = Vec::new();
    let mut skipped = 0usize;
    for unit in units {
        if done.contains(unit.key.as_str()) {
            skipped += 1;
            if opts.log {
                eprintln!("[gps-run] cache hit {} {}", unit.key, unit.label());
            }
        } else {
            pending_units.push(unit);
        }
    }

    let total_pending = pending_units.len();
    let cut = opts.max_jobs.unwrap_or(total_pending).min(total_pending);
    let pending = total_pending - cut;
    pending_units.truncate(cut);

    let workers = if opts.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        opts.workers
    };

    let store = Mutex::new(ResultStore::open_append(store_path)?);
    let started = Instant::now();
    let progress = Mutex::new((0usize, 0usize)); // (finished, quarantined)
                                                 // First append failure; checked after the pool drains so a full disk
                                                 // aborts the sweep instead of silently dropping results.
    let append_failure: Mutex<Option<std::io::Error>> = Mutex::new(None);

    let results = run_jobs(
        &pending_units,
        workers,
        opts.retries,
        |unit: &RunUnit| {
            if opts.inject_panic.iter().any(|a| a == &unit.app) {
                panic!("injected failure for {}", unit.label());
            }
            // gps-lint: allow(no_expect) -- unit app names were resolved against the suite at plan time
            let app = suite::by_name(&unit.app).expect("validated");
            let begun = Instant::now();
            let probe = match &opts.telemetry_dir {
                Some(_) => telemetry::recording_probe(),
                None => ProbeHandle::disabled(),
            };
            // A workload/machine mismatch is a typed error now; raising it
            // here routes the unit through the quarantine path instead of
            // aborting the whole sweep.
            let m = match measure_probed(&app, unit.spec, probe.clone()) {
                Ok(m) => m,
                Err(e) => panic!("{}: {e}", unit.label()),
            };
            let wall_ms = begun.elapsed().as_secs_f64() * 1e3;
            if let (Some(dir), Some(recording)) = (&opts.telemetry_dir, probe.finish()) {
                // Telemetry is a side artifact: a write failure must not
                // quarantine an otherwise healthy run.
                if let Err(e) = telemetry::write_run_telemetry(dir, &unit.key, &recording) {
                    eprintln!("[gps-run] telemetry write failed for {}: {e}", unit.key);
                }
            }
            (m, wall_ms)
        },
        |i, result| {
            // gps-lint: allow(no_slice_index) -- run_jobs only hands out i < pending_units.len()
            let unit = &pending_units[i];
            let (record, quarantined) = match result {
                JobResult::Ok {
                    value: (m, wall_ms),
                    attempts,
                } => (RunRecord::ok(unit, m, *attempts, *wall_ms), false),
                JobResult::Quarantined { attempts, error } => {
                    (quarantine_record(unit, *attempts, error), true)
                }
            };
            let appended = store
                .lock()
                // gps-lint: allow(no_expect) -- poison implies a prior panic in this callback
                .expect("store lock")
                .append(&record);
            if let Err(e) = appended {
                // gps-lint: allow(no_expect) -- poison implies a prior panic
                let mut slot = append_failure.lock().expect("failure slot");
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
            // gps-lint: allow(no_expect) -- poison implies a prior panic
            let mut p = progress.lock().expect("progress lock");
            p.0 += 1;
            p.1 += quarantined as usize;
            if opts.log {
                let elapsed = started.elapsed().as_secs_f64();
                let done_count = p.0;
                let rate = done_count as f64 / elapsed.max(1e-9);
                eprint!(
                    "\r[gps-run] {done_count}/{} done, {} quarantined, {skipped} cached, {elapsed:.1}s ({rate:.2} runs/s) ",
                    pending_units.len(),
                    p.1,
                );
                if quarantined {
                    eprintln!();
                    eprintln!("[gps-run] quarantined {} {}", unit.key, unit.label());
                }
                std::io::stderr().flush().ok();
            }
        },
    );
    if opts.log && !pending_units.is_empty() {
        eprintln!();
    }

    let failed = append_failure
        .into_inner()
        // gps-lint: allow(no_expect) -- poison implies a prior panic that already failed the run
        .expect("failure slot");
    if let Some(e) = failed {
        return Err(e);
    }

    let quarantined = results
        .iter()
        .filter(|r| matches!(r, JobResult::Quarantined { .. }))
        .count();

    drop(store);
    let (mut records, corrupt_after) = ResultStore::load_latest(store_path)?;
    records.sort_by(|a, b| a.key.cmp(&b.key));

    Ok(SweepOutcome {
        records,
        executed: results.len(),
        skipped,
        pending,
        quarantined,
        corrupt_lines: corrupt_lines.max(corrupt_after),
        migrated,
    })
}
