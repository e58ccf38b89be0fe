//! Per-figure/table reproduction runners (§7 of the paper).
//!
//! Every function regenerates the rows/series of one table or figure and
//! returns them as a [`Figure`] so integration tests can assert the
//! *shapes* (who wins, rough factors, crossovers) without parsing text.
//!
//! Figures that run the default machine — the speedup tables (1, 8, 11,
//! 12, 13), fig9/fig10, and the link/scaling sweeps — execute through
//! [`gps_harness::run_units`] when their [`FigureCtx`] carries a
//! result-store path: runs are content-addressed, completed keys are cache
//! hits, so an interrupted or repeated regeneration only simulates what is
//! missing, and a store shared with `gps-run sweep` reuses its results.
//! Figures that need a custom policy or machine configuration (fig14 and
//! the TLB/watermark/profiling/topology/page-size ablations) fall outside
//! the run-key space and always execute in memory.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use gps_core::GpsConfig;
use gps_harness::{
    baseline, geomean, measure, measure_with_policy, parallel_map, run_key_default_machine,
    run_units, steady_cycles_per_iteration, steady_traffic_per_iteration, Measurement, RunRecord,
    RunSpec, RunStatus, RunUnit, SweepOptions,
};
use gps_interconnect::{LinkGen, PLATFORMS};
use gps_paradigms::{GpsPolicy, Paradigm};
use gps_sim::{GpuConfig, MemoryPressure};
use gps_types::PageSize;
use gps_workloads::{suite, ScaleProfile};

/// One reproduced figure: a label per series column and one row per
/// application (or sweep point).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id and caption.
    pub title: String,
    /// Column headers (after the row label).
    pub columns: Vec<String>,
    /// `(row label, values)` in presentation order.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Figure {
    /// Value at `(row_label, column_label)`.
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|c| c == column)?;
        self.rows
            .iter()
            .find(|(r, _)| r == row)
            .and_then(|(_, vals)| vals.get(c).copied())
    }

    /// All values of one column, in row order.
    pub fn column(&self, column: &str) -> Vec<f64> {
        let Some(c) = self.columns.iter().position(|c| c == column) else {
            return Vec::new();
        };
        self.rows
            .iter()
            .filter_map(|(_, vals)| vals.get(c).copied())
            .collect()
    }

    /// Renders the figure as CSV (header row, then one row per label).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "label");
        for c in &self.columns {
            let _ = write!(out, ",{}", c.replace(',', ";"));
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "{}", label.replace(',', ";"));
            for v in vals {
                let _ = write!(out, ",{v}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(r, _)| r.len())
            .chain([9])
            .max()
            .unwrap_or(9);
        let col_w = self
            .columns
            .iter()
            .map(|c| c.len())
            .chain([9])
            .max()
            .unwrap_or(9)
            + 2;
        let _ = write!(out, "{:label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, "{c:>col_w$}");
        }
        let _ = writeln!(out);
        for (label, vals) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for v in vals {
                let _ = write!(out, "{v:>col_w$.3}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn spec(paradigm: Paradigm, gpus: usize, link: LinkGen, scale: ScaleProfile) -> RunSpec {
    RunSpec {
        paradigm,
        gpus,
        link,
        scale,
        pressure: MemoryPressure::NONE,
        topology: gps_interconnect::Topology::Switch,
        parallel: 0,
    }
}

/// Execution context of the figure runners.
#[derive(Debug, Clone, Default)]
pub struct FigureCtx {
    /// When set, default-machine runs execute through
    /// [`gps_harness::run_units`] against the JSON-lines result store at
    /// this path: completed run keys are skipped (resume) and fresh
    /// results are appended as they finish.
    pub store: Option<PathBuf>,
}

impl FigureCtx {
    /// Run every simulation in memory (no store, no resume).
    pub fn in_memory() -> FigureCtx {
        FigureCtx { store: None }
    }

    /// Resume from (and append to) the result store at `path`.
    pub fn with_store(path: impl Into<PathBuf>) -> FigureCtx {
        FigureCtx {
            store: Some(path.into()),
        }
    }
}

/// The slice of one run the figure math consumes — distilled from an
/// in-memory [`Measurement`] or read back from a stored [`RunRecord`];
/// identical either way (the JSON codec round-trips `f64` exactly).
struct FigRun {
    steady_cycles: f64,
    total_cycles: f64,
    metrics: Vec<(String, f64)>,
}

impl FigRun {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    }

    fn steady_traffic(&self) -> f64 {
        self.metric("steady_traffic_per_iteration")
    }
}

/// Mirrors what the sweep executor stores per run ([`RunRecord::metrics`]),
/// so both execution paths feed the figure math the same numbers.
fn fig_run(m: &Measurement) -> FigRun {
    let mut metrics = m.report.policy_metrics.clone();
    metrics.push((
        "steady_traffic_per_iteration".to_owned(),
        steady_traffic_per_iteration(&m.report, m.phases_per_iteration),
    ));
    FigRun {
        steady_cycles: m.steady_cycles,
        total_cycles: m.report.total_cycles.as_u64() as f64,
        metrics,
    }
}

/// The single-GPU run every speedup is normalised to (same spec as
/// [`baseline`]).
fn baseline_spec(scale: ScaleProfile) -> RunSpec {
    spec(Paradigm::InfiniteBw, 1, LinkGen::Pcie3, scale)
}

/// Executes `jobs` (application name × default-machine spec) and returns
/// one [`FigRun`] per job, in order.
///
/// Without a store this is a plain [`parallel_map`] over [`measure`]. With
/// one, the jobs become deduplicated [`RunUnit`]s handed to [`run_units`],
/// which skips keys the store has already completed and appends the rest —
/// repeated regeneration, and figures sharing runs (the per-link sweeps
/// share their baselines), only simulate what is missing. A quarantined
/// run panics: figure math cannot proceed on a placeholder record.
fn run_default_machine(ctx: &FigureCtx, jobs: &[(&'static str, RunSpec)]) -> Vec<FigRun> {
    let Some(store) = &ctx.store else {
        return parallel_map(
            jobs.iter()
                .map(|&(name, s)| {
                    let app = suite::by_name(name).expect("known app");
                    move || fig_run(&measure(&app, s).expect("workload/machine mismatch"))
                })
                .collect(),
        );
    };

    let mut units = Vec::new();
    let mut seen = BTreeSet::new();
    for &(name, s) in jobs {
        let key = run_key_default_machine(name, s);
        if seen.insert(key.clone()) {
            units.push(RunUnit {
                key,
                app: name.to_owned(),
                spec: s,
            });
        }
    }
    let outcome =
        run_units(units, store, &SweepOptions::default()).expect("figure result store I/O");
    let by_key: BTreeMap<&str, &RunRecord> = outcome
        .records
        .iter()
        .map(|r| (r.key.as_str(), r))
        .collect();
    jobs.iter()
        .map(|&(name, s)| {
            let key = run_key_default_machine(name, s);
            let r = by_key
                .get(key.as_str())
                .unwrap_or_else(|| panic!("result store is missing run {key}"));
            assert!(
                r.status == RunStatus::Ok,
                "figure run quarantined: {} ({})",
                r.key,
                r.error.as_deref().unwrap_or("unknown error"),
            );
            FigRun {
                steady_cycles: r.steady_cycles,
                total_cycles: r.total_cycles as f64,
                metrics: r.metrics.clone(),
            }
        })
        .collect()
}

/// Speedup table over the application suite: one row per app plus a
/// geomean row, one column per `(paradigm, link)` pair.
fn speedup_figure(
    ctx: &FigureCtx,
    title: &str,
    columns: Vec<(String, Paradigm, LinkGen)>,
    gpus: usize,
    scale: ScaleProfile,
) -> Figure {
    let apps = suite::all();
    // Baselines first, then the grid, as one job list — a store-backed
    // regeneration resolves all of it in a single `run_units` invocation.
    let mut jobs: Vec<(&'static str, RunSpec)> = apps
        .iter()
        .map(|app| (app.name, baseline_spec(scale)))
        .collect();
    for app in &apps {
        for (_, paradigm, link) in &columns {
            jobs.push((app.name, spec(*paradigm, gpus, *link, scale)));
        }
    }
    let runs = run_default_machine(ctx, &jobs);
    let (bases, grid) = runs.split_at(apps.len());

    let ncols = columns.len();
    let mut rows = Vec::new();
    let mut per_column: Vec<Vec<f64>> = vec![Vec::new(); ncols];
    for (ai, app) in apps.iter().enumerate() {
        let mut vals = Vec::with_capacity(ncols);
        for ci in 0..ncols {
            let s = bases[ai].steady_cycles / grid[ai * ncols + ci].steady_cycles;
            per_column[ci].push(s);
            vals.push(s);
        }
        rows.push((app.name.to_owned(), vals));
    }
    rows.push((
        "geomean".to_owned(),
        per_column.iter().map(|c| geomean(c)).collect(),
    ));
    Figure {
        title: title.to_owned(),
        columns: columns.into_iter().map(|(n, _, _)| n).collect(),
        rows,
    }
}

/// Table 1: the simulated machine.
pub fn table1() -> String {
    let g = GpuConfig::gv100();
    let c = GpsConfig::paper();
    let mut out = String::new();
    let mut row = |k: &str, v: String| {
        let _ = writeln!(out, "{k:<34}{v}");
    };
    row("== Table 1: simulation settings ==", String::new());
    row("Cache block size", "128 bytes".into());
    row("Global memory", format!("{} GB", g.dram_bytes >> 30));
    row("Streaming multiprocessors (SM)", g.sms.to_string());
    row("CUDA cores/SM", "64".into());
    row("L2 cache size", format!("{} MB", g.l2_bytes >> 20));
    row("Warp size", g.warp_size.to_string());
    row("Maximum threads per SM", g.max_threads_per_sm.to_string());
    row("Maximum threads per CTA", g.max_threads_per_cta.to_string());
    row("Remote write queue", format!("{} entries", c.rwq_entries));
    row(
        "Remote write queue entry size",
        format!("{} bytes", c.rwq_entry_bytes),
    );
    row("GPS-TLB", format!("{}-way set associative", c.gps_tlb.ways));
    row("GPS-TLB size", format!("{} entries", c.gps_tlb.entries()));
    row("Virtual address", "49 bits".into());
    row("Physical address", "47 bits".into());
    out
}

/// Table 2: the application suite, augmented with the generators'
/// measured access-mix characteristics (tiny-scale, 4 GPUs).
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table 2: applications under study ==");
    let _ = writeln!(
        out,
        "{:<10} {:<14} {:>10} {:>9} {:>9}  description",
        "app", "pattern", "cy/line", "atomic%", "dom.deg"
    );
    for app in suite::all() {
        let c = gps_workloads::characterize(&(app.build)(4, ScaleProfile::Tiny));
        let _ = writeln!(
            out,
            "{:<10} {:<14} {:>10.0} {:>8.0}% {:>9}  {}",
            app.name,
            app.pattern.to_string(),
            c.compute_per_line(),
            c.atomic_write_fraction() * 100.0,
            c.dominant_degree().unwrap_or(0),
            app.description
        );
    }
    out
}

/// Figure 1: 4-GPU strong scaling of the bulk-synchronous (memcpy)
/// programming style under PCIe 3.0, projected PCIe 6.0 and an infinite
/// interconnect.
pub fn fig1(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    speedup_figure(
        ctx,
        "Figure 1: 4-GPU scaling vs interconnect (memcpy programming model)",
        vec![
            ("PCIe3.0".into(), Paradigm::Memcpy, LinkGen::Pcie3),
            ("PCIe6(projected)".into(), Paradigm::Memcpy, LinkGen::Pcie6),
            ("InfiniteBW".into(), Paradigm::InfiniteBw, LinkGen::Infinite),
        ],
        4,
        scale,
    )
}

/// Figure 3: local vs remote bandwidth across platform generations.
pub fn fig3() -> Figure {
    Figure {
        title: "Figure 3: local and remote bandwidths across GPU platforms (GB/s)".into(),
        columns: vec!["Local".into(), "Remote".into(), "Gap".into()],
        rows: PLATFORMS
            .iter()
            .map(|p| {
                (
                    p.name.to_owned(),
                    vec![p.local_gbps, p.remote_gbps, p.gap()],
                )
            })
            .collect(),
    }
}

/// Figure 8: 4-GPU speedup of every paradigm over one GPU (PCIe 3.0).
pub fn fig8(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    speedup_figure(
        ctx,
        "Figure 8: 4-GPU speedup of different paradigms (PCIe 3.0)",
        Paradigm::FIGURE8
            .iter()
            .map(|p| (p.to_string(), *p, LinkGen::Pcie3))
            .collect(),
        4,
        scale,
    )
}

/// Figure 9: subscriber distribution of shared GPS pages (percent of
/// multi-subscriber pages with 2, 3 and 4 subscribers) on 4 GPUs.
pub fn fig9(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let apps = suite::all();
    let jobs: Vec<(&'static str, RunSpec)> = apps
        .iter()
        .map(|app| (app.name, spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale)))
        .collect();
    let runs = run_default_machine(ctx, &jobs);
    let rows = apps
        .iter()
        .zip(&runs)
        .map(|(app, run)| {
            let count = |k: usize| run.metric(&format!("pages_{k}_subscribers"));
            let shared: f64 = (2..=4).map(count).sum();
            let pct = |k: usize| {
                if shared > 0.0 {
                    100.0 * count(k) / shared
                } else {
                    0.0
                }
            };
            (app.name.to_owned(), vec![pct(4), pct(3), pct(2)])
        })
        .collect();
    Figure {
        title: "Figure 9: subscriber distribution of shared pages (% of multi-subscriber pages)"
            .into(),
        columns: vec![
            "4 subscribers".into(),
            "3 subscribers".into(),
            "2 subscribers".into(),
        ],
        rows,
    }
}

/// Figure 10: steady-state interconnect traffic per iteration, normalised
/// to the memcpy paradigm (4 GPUs, PCIe 3.0).
pub fn fig10(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let apps = suite::all();
    let paradigms = [
        Paradigm::Um,
        Paradigm::UmHints,
        Paradigm::Rdl,
        Paradigm::Memcpy,
        Paradigm::Gps,
    ];
    let jobs: Vec<(&'static str, RunSpec)> = apps
        .iter()
        .flat_map(|app| {
            paradigms
                .iter()
                .map(move |&p| (app.name, spec(p, 4, LinkGen::Pcie3, scale)))
        })
        .collect();
    let runs = run_default_machine(ctx, &jobs);
    let rows = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            let traffic: Vec<f64> = (0..paradigms.len())
                .map(|ci| runs[ai * paradigms.len() + ci].steady_traffic())
                .collect();
            let memcpy = traffic[3].max(1.0);
            (
                app.name.to_owned(),
                vec![
                    traffic[0] / memcpy,
                    traffic[1] / memcpy,
                    traffic[2] / memcpy,
                    traffic[4] / memcpy,
                ],
            )
        })
        .collect();
    Figure {
        title: "Figure 10: data moved over interconnect normalised to memcpy".into(),
        columns: vec!["UM".into(), "UM+hints".into(), "RDL".into(), "GPS".into()],
        rows,
    }
}

/// Figure 11: GPS with vs without subscription tracking (4 GPUs, PCIe 3.0).
pub fn fig11(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    speedup_figure(
        ctx,
        "Figure 11: performance sensitivity to subscription (4 GPUs, PCIe 3.0)",
        vec![
            (
                "GPS w/o subscription".into(),
                Paradigm::GpsNoSubscription,
                LinkGen::Pcie3,
            ),
            (
                "GPS with subscription".into(),
                Paradigm::Gps,
                LinkGen::Pcie3,
            ),
        ],
        4,
        scale,
    )
}

/// Figure 12: 16-GPU speedups under projected PCIe 6.0.
pub fn fig12(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    speedup_figure(
        ctx,
        "Figure 12: 16-GPU performance of different paradigms (PCIe 6.0 projected)",
        Paradigm::FIGURE8
            .iter()
            .map(|p| (p.to_string(), *p, LinkGen::Pcie6))
            .collect(),
        16,
        scale,
    )
}

/// Figure 13: geomean 4-GPU speedup per paradigm as the interconnect
/// improves from PCIe 3.0 to projected PCIe 6.0.
pub fn fig13(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let mut rows = Vec::new();
    for link in LinkGen::PCIE_SWEEP {
        let fig = speedup_figure(
            ctx,
            "inner",
            Paradigm::FIGURE8
                .iter()
                .map(|p| (p.to_string(), *p, link))
                .collect(),
            4,
            scale,
        );
        let geo = fig.rows.last().expect("geomean row").1.clone();
        rows.push((link.to_string(), geo));
    }
    Figure {
        title: "Figure 13: geomean speedup vs interconnect bandwidth (4 GPUs)".into(),
        columns: Paradigm::FIGURE8.iter().map(|p| p.to_string()).collect(),
        rows,
    }
}

/// Figure 14: GPS remote-write-queue hit rate vs queue size.
pub fn fig14(scale: ScaleProfile) -> Figure {
    let sizes = [0usize, 32, 64, 128, 256, 512, 1024];
    let apps = suite::all();
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            sizes.iter().map(move |&size| {
                let app = suite::by_name(app.name).expect("known app");
                move || {
                    let mut policy =
                        GpsPolicy::with_config(GpsConfig::paper().with_rwq_entries(size));
                    let m = measure_with_policy(
                        &app,
                        spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale),
                        &mut policy,
                    )
                    .expect("workload/machine mismatch");
                    m.report.metric("rwq_hit_rate").unwrap_or(0.0) * 100.0
                }
            })
        })
        .collect();
    let results = parallel_map(jobs);
    let rows = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            (
                app.name.to_owned(),
                results[ai * sizes.len()..(ai + 1) * sizes.len()].to_vec(),
            )
        })
        .collect();
    Figure {
        title: "Figure 14: GPS write queue hit rate (%) vs queue size".into(),
        columns: sizes.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

/// §7.4: GPS-TLB hit rate vs entry count (the paper finds ~100 % at 32).
pub fn gps_tlb_sensitivity(scale: ScaleProfile) -> Figure {
    let geometries = [(1usize, 8usize), (2, 8), (4, 8), (8, 8)]; // 8..64 entries
    let apps = suite::all();
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            geometries.iter().map(move |&(sets, ways)| {
                let app = suite::by_name(app.name).expect("known app");
                move || {
                    let mut cfg = GpsConfig::paper();
                    cfg.gps_tlb = gps_mem::TlbConfig { sets, ways };
                    let mut policy = GpsPolicy::with_config(cfg);
                    let m = measure_with_policy(
                        &app,
                        spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale),
                        &mut policy,
                    )
                    .expect("workload/machine mismatch");
                    m.report.metric("gps_tlb_hit_rate").unwrap_or(0.0) * 100.0
                }
            })
        })
        .collect();
    let results = parallel_map(jobs);
    let rows = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            (
                app.name.to_owned(),
                results[ai * geometries.len()..(ai + 1) * geometries.len()].to_vec(),
            )
        })
        .collect();
    Figure {
        title: "GPS-TLB hit rate (%) vs entries (4 GPUs, PCIe 3.0)".into(),
        columns: geometries
            .iter()
            .map(|(s, w)| (s * w).to_string())
            .collect(),
        rows,
    }
}

/// Ablation (beyond the paper): drain-watermark sensitivity. The paper
/// fixes the high watermark at capacity - 1 "to maximize coalescing
/// opportunity" (§5.2); sweeping it shows the coalescing lost by draining
/// earlier.
pub fn watermark_sensitivity(scale: ScaleProfile) -> Figure {
    let watermarks = [63usize, 127, 255, 383, 511];
    let apps: Vec<_> = ["ct", "eqwp", "diffusion", "hit"]
        .iter()
        .map(|n| suite::by_name(n).expect("known app"))
        .collect();
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            watermarks.iter().map(move |&wm| {
                let app = suite::by_name(app.name).expect("known app");
                move || {
                    let mut cfg = GpsConfig::paper();
                    cfg.drain_watermark = wm;
                    let mut policy = GpsPolicy::with_config(cfg);
                    let m = measure_with_policy(
                        &app,
                        spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale),
                        &mut policy,
                    )
                    .expect("workload/machine mismatch");
                    m.report.metric("rwq_hit_rate").unwrap_or(0.0) * 100.0
                }
            })
        })
        .collect();
    let results = parallel_map(jobs);
    let rows = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            (
                app.name.to_owned(),
                results[ai * watermarks.len()..(ai + 1) * watermarks.len()].to_vec(),
            )
        })
        .collect();
    Figure {
        title: "Ablation: write-queue hit rate (%) vs drain watermark (512-entry queue)".into(),
        columns: watermarks.iter().map(|w| w.to_string()).collect(),
        rows,
    }
}

/// Ablation (§3.2/§5.2 discussion): subscribed-by-default vs
/// unsubscribed-by-default profiling. The former over-transfers during
/// iteration 0; the latter pays first-touch remote reads instead.
pub fn profiling_mode(scale: ScaleProfile) -> Figure {
    let apps = suite::all();
    let modes = [
        gps_core::ProfilingMode::SubscribedByDefault,
        gps_core::ProfilingMode::UnsubscribedByDefault,
    ];
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            modes.iter().map(move |&mode| {
                let app = suite::by_name(app.name).expect("known app");
                move || {
                    let mut cfg = GpsConfig::paper();
                    cfg.profiling = mode;
                    let mut policy = GpsPolicy::with_config(cfg);
                    let m = measure_with_policy(
                        &app,
                        spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale),
                        &mut policy,
                    )
                    .expect("workload/machine mismatch");
                    let ppi = 2;
                    let iter0 = m.report.phase_ends[ppi - 1].as_u64() as f64;
                    (iter0, m.steady_cycles)
                }
            })
        })
        .collect();
    let results = parallel_map(jobs);
    let rows = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            let (sub0, sub_steady) = results[ai * 2];
            let (unsub0, unsub_steady) = results[ai * 2 + 1];
            (
                app.name.to_owned(),
                vec![sub0, unsub0, sub_steady, unsub_steady],
            )
        })
        .collect();
    Figure {
        title: "Ablation: profiling mode (cycles; sub-by-default vs unsub-by-default)".into(),
        columns: vec![
            "iter0 sub".into(),
            "iter0 unsub".into(),
            "steady sub".into(),
            "steady unsub".into(),
        ],
        rows,
    }
}

/// Extension: geomean speedups on NVLink-class fabrics (Figure 3's
/// platforms, applied to the Figure 13 sweep).
pub fn nvlink_sweep(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let mut rows = Vec::new();
    for link in [
        LinkGen::Pcie3,
        LinkGen::NvLink1,
        LinkGen::NvLink2,
        LinkGen::NvLink3,
    ] {
        let fig = speedup_figure(
            ctx,
            "inner",
            Paradigm::FIGURE8
                .iter()
                .map(|p| (p.to_string(), *p, link))
                .collect(),
            4,
            scale,
        );
        let geo = fig.rows.last().expect("geomean row").1.clone();
        rows.push((link.to_string(), geo));
    }
    Figure {
        title: "Extension: geomean speedup on NVLink-class interconnects (4 GPUs)".into(),
        columns: Paradigm::FIGURE8.iter().map(|p| p.to_string()).collect(),
        rows,
    }
}

/// Extension: GPS strong-scaling curve across GPU counts (PCIe 6.0),
/// interpolating between the paper's 4-GPU and 16-GPU systems.
pub fn scaling_curve(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let counts = [2usize, 4, 8, 16];
    let paradigms = [Paradigm::Memcpy, Paradigm::Gps, Paradigm::InfiniteBw];
    let apps = suite::all();
    let mut jobs: Vec<(&'static str, RunSpec)> = apps
        .iter()
        .map(|app| (app.name, baseline_spec(scale)))
        .collect();
    for &gpus in &counts {
        for &p in &paradigms {
            for app in &apps {
                jobs.push((app.name, spec(p, gpus, LinkGen::Pcie6, scale)));
            }
        }
    }
    let runs = run_default_machine(ctx, &jobs);
    let (bases, grid) = runs.split_at(apps.len());
    let napps = apps.len();
    let mut rows = Vec::new();
    for (ci, &gpus) in counts.iter().enumerate() {
        let mut geo = Vec::new();
        for (pi, _) in paradigms.iter().enumerate() {
            let start = ci * paradigms.len() * napps + pi * napps;
            let speedups: Vec<f64> = (0..napps)
                .map(|ai| bases[ai].steady_cycles / grid[start + ai].steady_cycles)
                .collect();
            geo.push(geomean(&speedups));
        }
        rows.push((format!("{gpus} GPUs"), geo));
    }
    Figure {
        title: "Extension: geomean strong scaling vs GPU count (PCIe 6.0)".into(),
        columns: paradigms.iter().map(|p| p.to_string()).collect(),
        rows,
    }
}

/// Extension: switch vs ring topology at NVLink-1 bandwidth. The paper
/// evaluates switch-attached systems; a switchless ring (NVLink bridges)
/// makes transit traffic contend on neighbour links, hurting the
/// all-to-all applications most.
pub fn topology_comparison(scale: ScaleProfile) -> Figure {
    use gps_interconnect::Topology;
    let apps = suite::all();
    let topologies = [Topology::Switch, Topology::Ring];
    let bases: Vec<Measurement> = parallel_map(
        apps.iter()
            .map(|app| {
                let app = suite::by_name(app.name).expect("known app");
                move || baseline(&app, scale).expect("workload/machine mismatch")
            })
            .collect(),
    );
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            topologies.iter().map(move |&topo| {
                let app = suite::by_name(app.name).expect("known app");
                move || {
                    let workload = (app.build)(4, scale);
                    let mut policy = GpsPolicy::new();
                    let mut config = gps_sim::SimConfig::gv100_system(4);
                    config.page_size = workload.page_size;
                    config.topology = topo;
                    let report =
                        gps_sim::Engine::new(config, LinkGen::NvLink1, &workload, &mut policy)
                            .expect("consistent build")
                            .run();
                    steady_cycles_per_iteration(&report, workload.phases_per_iteration)
                }
            })
        })
        .collect();
    let results = parallel_map(jobs);
    let rows = apps
        .iter()
        .enumerate()
        .map(|(ai, app)| {
            let sw = bases[ai].steady_cycles / results[ai * 2];
            let ring = bases[ai].steady_cycles / results[ai * 2 + 1];
            (app.name.to_owned(), vec![sw, ring])
        })
        .collect();
    Figure {
        title: "Extension: GPS speedup, central switch vs ring topology (4 GPUs, NVLink 1)".into(),
        columns: vec!["Switch".into(), "Ring".into()],
        rows,
    }
}

/// §8 extension: GPS slowdown under memory oversubscription. Per-GPU
/// capacity is shrunk to `demand / ratio`; the driver swaps replicas out
/// at subscription time (LRU-approx victims via the ATU access bitmaps)
/// and evicted replicas re-fault to remote reads. Columns are subscription
/// ratios (end-to-end slowdown normalised to the in-capacity 1.0× run;
/// total time, not steady state, because eviction and shootdown costs are
/// front-loaded into iteration 0 and stencil apps hide steady-state fault
/// stalls behind warp parallelism) plus the evicted-replica count at the
/// highest ratio.
pub fn oversubscription_sweep(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let ratios = [1.0f64, 1.5, 2.0, 3.0];
    let apps = suite::all();
    let mut jobs: Vec<(&'static str, RunSpec)> = Vec::new();
    for app in &apps {
        for &r in &ratios {
            let mut s = spec(Paradigm::GpsOversub, 4, LinkGen::Pcie3, scale);
            s.pressure = MemoryPressure::from_ratio(r);
            jobs.push((app.name, s));
        }
    }
    let runs = run_default_machine(ctx, &jobs);

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut slow_cols: Vec<Vec<f64>> = vec![Vec::new(); ratios.len()];
    let mut evicted_total = 0.0;
    for (ai, app) in apps.iter().enumerate() {
        let at = |ri: usize| &runs[ai * ratios.len() + ri];
        let base = at(0).total_cycles.max(1.0);
        let mut vals: Vec<f64> = (0..ratios.len())
            .map(|ri| {
                let s = at(ri).total_cycles / base;
                slow_cols[ri].push(s);
                s
            })
            .collect();
        let evicted = at(ratios.len() - 1).metric("evicted_replicas");
        evicted_total += evicted;
        vals.push(evicted);
        rows.push((app.name.to_owned(), vals));
    }
    let mut geo: Vec<f64> = slow_cols.iter().map(|c| geomean(c)).collect();
    geo.push(evicted_total);
    rows.push(("geomean".to_owned(), geo));

    let mut columns: Vec<String> = ratios.iter().map(|r| format!("{r:.1}x")).collect();
    columns.push(format!("evicted@{:.1}x", ratios[ratios.len() - 1]));
    Figure {
        title: "Oversubscription: GPS slowdown vs subscription ratio (4 GPUs, PCIe 3.0)".into(),
        columns,
        rows,
    }
}

/// Extension: multi-tenant serving capacity sweep. An open arrival
/// process offers a jacobi+pagerank mix at increasing rates against one
/// shared machine (two tenant slots); columns track how achieved QPS
/// saturates and tail latency inflates as the offered load crosses the
/// machine's capacity. Always runs in memory: serving runs are keyed by
/// [`gps_harness::serve_key`], not the sweep run-key space.
pub fn serve_sweep(scale: ScaleProfile) -> Figure {
    use gps_serve::{serve, ArrivalModel, ServeConfig};
    use gps_types::CYCLES_PER_SECOND;
    let rates = [500.0f64, 1000.0, 2000.0, 4000.0, 8000.0];
    let jobs: Vec<_> = rates
        .iter()
        .map(|&rate| {
            move || {
                let mean = (CYCLES_PER_SECOND as f64 / rate).round();
                let cfg = ServeConfig {
                    scale,
                    jobs: 32,
                    arrival: ArrivalModel::Open {
                        mean_interarrival: (mean as u64).max(1),
                    },
                    ..ServeConfig::default()
                };
                let r = serve(&cfg).expect("default mix serves");
                vec![
                    r.qps(),
                    r.p50() as f64 / 1e6,
                    r.p99() as f64 / 1e6,
                    r.utilization() * 100.0,
                    r.peak_queue_depth as f64,
                ]
            }
        })
        .collect();
    let results = parallel_map(jobs);
    Figure {
        title: "Serving: QPS and tail latency vs offered load (jacobi+pagerank, 2 slots)".into(),
        columns: vec![
            "achieved QPS".into(),
            "p50 ms".into(),
            "p99 ms".into(),
            "util %".into(),
            "peak queue".into(),
        ],
        rows: rates
            .iter()
            .zip(results)
            .map(|(rate, vals)| (format!("{rate:.0}/s offered"), vals))
            .collect(),
    }
}

/// §7.4: GPS performance at 4 KiB / 64 KiB / 2 MiB pages, normalised to
/// 64 KiB (the paper: 4 KiB 42 % slower, 2 MiB 15 % slower).
pub fn page_size_sensitivity(scale: ScaleProfile) -> Figure {
    let apps = suite::all();
    let sizes = [PageSize::Small4K, PageSize::Standard64K, PageSize::Huge2M];
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            sizes.iter().map(move |&page| {
                let app = suite::by_name(app.name).expect("known app");
                move || {
                    let workload = (app.build_paged)(4, scale, page);
                    let report =
                        gps_paradigms::run_paradigm(Paradigm::Gps, &workload, 4, LinkGen::Pcie3)
                            .expect("workload/machine mismatch");
                    steady_cycles_per_iteration(&report, workload.phases_per_iteration)
                }
            })
        })
        .collect();
    let results = parallel_map(jobs);
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut norm_cols: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    for (ai, app) in apps.iter().enumerate() {
        let t = &results[ai * sizes.len()..(ai + 1) * sizes.len()];
        let base = t[1];
        let vals: Vec<f64> = t.iter().map(|&x| base / x).collect();
        for (ci, v) in vals.iter().enumerate() {
            norm_cols[ci].push(*v);
        }
        rows.push((app.name.to_owned(), vals));
    }
    rows.push((
        "geomean".to_owned(),
        norm_cols.iter().map(|c| geomean(c)).collect(),
    ));
    Figure {
        title: "Page-size sensitivity: GPS performance relative to 64 KiB pages".into(),
        columns: vec!["4KiB".into(), "64KiB".into(), "2MiB".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        Figure {
            title: "t".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![("x".into(), vec![1.0, 2.0]), ("y".into(), vec![3.0, 4.0])],
        }
    }

    #[test]
    fn value_and_column_lookup() {
        let f = sample();
        assert_eq!(f.value("x", "b"), Some(2.0));
        assert_eq!(f.value("y", "a"), Some(3.0));
        assert_eq!(f.value("z", "a"), None);
        assert_eq!(f.value("x", "c"), None);
        assert_eq!(f.column("a"), vec![1.0, 3.0]);
        assert!(f.column("missing").is_empty());
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("label,a,b"));
        assert_eq!(lines.next(), Some("x,1,2"));
        assert_eq!(lines.next(), Some("y,3,4"));
    }

    #[test]
    fn text_rendering_is_aligned() {
        let rendered = sample().render();
        assert!(rendered.starts_with("== t =="));
        assert_eq!(rendered.lines().count(), 4);
    }
}
