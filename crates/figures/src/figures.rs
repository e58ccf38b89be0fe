//! Per-figure/table reproduction runners (§7 of the paper).
//!
//! Every function regenerates the rows/series of one table or figure and
//! returns them as a [`Figure`] so integration tests can assert the
//! *shapes* (who wins, rough factors, crossovers) without parsing text.
//!
//! Figures that run the default machine — the speedup tables (1, 8, 11,
//! 12, 13), fig9/fig10, and the link, scaling, topology and
//! oversubscription sweeps — read one [`RunRecord`] per run. When their
//! [`FigureCtx`] carries a result-store path, the records come from
//! [`gps_harness::run_units`]: runs are content-addressed, completed keys
//! are cache hits, so an interrupted or repeated regeneration only
//! simulates what is missing, and a store shared with `gps-run sweep`
//! reuses its results. Figures that need a custom policy or workload
//! (fig14 and the TLB/watermark/profiling/page-size ablations) fall
//! outside the run-key space and always execute in memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use gps_core::GpsConfig;
use gps_harness::{
    geomean, measure, measure_with_policy, parallel_map, run_key_default_machine, run_units,
    steady_cycles_per_iteration, Measurement, RunRecord, RunSpec, RunStatus, RunUnit, SweepOptions,
};
use gps_interconnect::{LinkGen, Topology, PLATFORMS};
use gps_paradigms::{GpsPolicy, Paradigm};
use gps_sim::{GpuConfig, MemoryPressure};
use gps_types::PageSize;
use gps_workloads::suite::{self, AppEntry};
use gps_workloads::ScaleProfile;

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
        topology: Topology::Switch,
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

/// The single-GPU run every speedup is normalised to.
fn baseline_spec(scale: ScaleProfile) -> RunSpec {
    spec(Paradigm::InfiniteBw, 1, LinkGen::Pcie3, scale)
}

/// Runs every suite application under every spec on the default machine
/// and returns one row of [`RunRecord`]s per application, in spec order.
///
/// The (application, spec) pairs are planned once as deduplicated
/// [`RunUnit`]s. Without a store they run as a [`parallel_map`] over
/// [`measure`]; with one they go to [`run_units`], which skips keys the
/// store has already completed and appends the rest, so repeated
/// regeneration only simulates what is missing. Both paths build the
/// records with [`RunRecord::ok`], and the JSON codec round-trips `f64`
/// exactly, so the figure math reads the same numbers either way. A
/// quarantined run panics: figure math cannot proceed on a placeholder.
fn run_default_machine(ctx: &FigureCtx, specs: &[RunSpec]) -> Vec<(String, Vec<RunRecord>)> {
    let apps = suite::all();
    let mut units: Vec<RunUnit> = Vec::new();
    let mut unit_of: BTreeMap<String, usize> = BTreeMap::new();
    let slots: Vec<usize> = apps
        .iter()
        .flat_map(|app| specs.iter().map(move |&s| (app.name, s)))
        .map(|(name, s)| {
            *unit_of
                .entry(run_key_default_machine(name, s))
                .or_insert_with_key(|key| {
                    units.push(RunUnit {
                        key: key.clone(),
                        app: name.to_owned(),
                        spec: s,
                    });
                    units.len() - 1
                })
        })
        .collect();

    let records: Vec<RunRecord> = match &ctx.store {
        None => parallel_map(
            units
                .iter()
                .map(|unit| {
                    move || {
                        let app = suite::by_name(&unit.app).expect("known app");
                        let m = measure(&app, unit.spec).expect("workload/machine mismatch");
                        RunRecord::ok(unit, &m, 1, 0.0)
                    }
                })
                .collect(),
        ),
        Some(store) => {
            let outcome = run_units(units.clone(), store, &SweepOptions::default())
                .expect("figure result store I/O");
            let mut by_key: BTreeMap<String, RunRecord> = outcome
                .records
                .into_iter()
                .map(|r| (r.key.clone(), r))
                .collect();
            units
                .iter()
                .map(|unit| {
                    let r = by_key
                        .remove(&unit.key)
                        .unwrap_or_else(|| panic!("result store is missing run {}", unit.key));
                    assert!(
                        r.status == RunStatus::Ok,
                        "figure run quarantined: {} ({})",
                        r.key,
                        r.error.as_deref().unwrap_or("unknown error"),
                    );
                    r
                })
                .collect()
        }
    };
    apps.iter()
        .zip(slots.chunks(specs.len()))
        .map(|(app, row)| {
            let runs = row.iter().map(|&i| records[i].clone()).collect();
            (app.name.to_owned(), runs)
        })
        .collect()
}

/// Runs `run` for every application × setting on [`parallel_map`] and
/// returns one row per application, its values in setting order.
fn grid<S, T, F>(apps: &[AppEntry], settings: &[S], run: F) -> Vec<(String, Vec<T>)>
where
    S: Copy + Send + Sync,
    T: Send,
    F: Fn(&AppEntry, S) -> T + Sync,
{
    let run = &run;
    let mut results = parallel_map(
        apps.iter()
            .flat_map(|app| settings.iter().map(move |&s| move || run(app, s)))
            .collect(),
    )
    .into_iter();
    apps.iter()
        .map(|app| {
            let row = results.by_ref().take(settings.len()).collect();
            (app.name.to_owned(), row)
        })
        .collect()
}

/// GPS with a custom configuration on the default machine (4 GPUs,
/// PCIe 3.0): the runs that fall outside the run-key space.
fn gps_with(app: &AppEntry, scale: ScaleProfile, config: GpsConfig) -> Measurement {
    measure_with_policy(
        app,
        spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale),
        &mut GpsPolicy::with_config(config),
    )
    .expect("workload/machine mismatch")
}

/// Steady-state speedup of every suite application under each spec over
/// its single-GPU baseline: one row per application, one value per spec.
fn speedups(ctx: &FigureCtx, specs: &[RunSpec], scale: ScaleProfile) -> Vec<(String, Vec<f64>)> {
    let with_baseline: Vec<RunSpec> = std::iter::once(baseline_spec(scale))
        .chain(specs.iter().copied())
        .collect();
    run_default_machine(ctx, &with_baseline)
        .into_iter()
        .map(|(app, runs)| {
            let (base, runs) = runs.split_first().expect("the baseline column");
            let vals = runs
                .iter()
                .map(|r| base.steady_cycles / r.steady_cycles)
                .collect();
            (app, vals)
        })
        .collect()
}

/// Geometric mean of each column of `rows`.
fn column_geomeans(rows: &[(String, Vec<f64>)]) -> Vec<f64> {
    let width = rows.first().map_or(0, |(_, vals)| vals.len());
    (0..width)
        .map(|c| geomean(&rows.iter().map(|(_, vals)| vals[c]).collect::<Vec<_>>()))
        .collect()
}

/// Speedup table over the application suite: one row per app plus a
/// geomean row, one column per named spec.
fn speedup_figure(
    ctx: &FigureCtx,
    title: &str,
    columns: Vec<(String, RunSpec)>,
    scale: ScaleProfile,
) -> Figure {
    let specs: Vec<RunSpec> = columns.iter().map(|(_, s)| *s).collect();
    let mut rows = speedups(ctx, &specs, scale);
    rows.push(("geomean".to_owned(), column_geomeans(&rows)));
    Figure {
        title: title.to_owned(),
        columns: columns.into_iter().map(|(name, _)| name).collect(),
        rows,
    }
}

/// One column per Figure-8 paradigm on `gpus` GPUs over `link`.
fn figure8_columns(gpus: usize, link: LinkGen, scale: ScaleProfile) -> Vec<(String, RunSpec)> {
    Paradigm::FIGURE8
        .iter()
        .map(|&p| (p.to_string(), spec(p, gpus, link, scale)))
        .collect()
}

/// Geomean speedups at a series of sweep points: one row per point, each
/// value the suite geomean of one of the point's specs, named by `columns`.
fn geomean_sweep(
    ctx: &FigureCtx,
    title: &str,
    columns: Vec<String>,
    points: Vec<(String, Vec<RunSpec>)>,
    scale: ScaleProfile,
) -> Figure {
    let specs: Vec<RunSpec> = points.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    let mut geo = column_geomeans(&speedups(ctx, &specs, scale)).into_iter();
    Figure {
        title: title.to_owned(),
        columns,
        rows: points
            .into_iter()
            .map(|(label, s)| (label, geo.by_ref().take(s.len()).collect()))
            .collect(),
    }
}

/// Geomean speedup of every Figure-8 paradigm on 4 GPUs, one row per link.
fn link_sweep(ctx: &FigureCtx, title: &str, links: &[LinkGen], scale: ScaleProfile) -> Figure {
    geomean_sweep(
        ctx,
        title,
        Paradigm::FIGURE8.iter().map(|p| p.to_string()).collect(),
        links
            .iter()
            .map(|&link| {
                let specs = Paradigm::FIGURE8
                    .iter()
                    .map(|&p| spec(p, 4, link, scale))
                    .collect();
                (link.to_string(), specs)
            })
            .collect(),
        scale,
    )
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
            (
                "PCIe3.0".into(),
                spec(Paradigm::Memcpy, 4, LinkGen::Pcie3, scale),
            ),
            (
                "PCIe6(projected)".into(),
                spec(Paradigm::Memcpy, 4, LinkGen::Pcie6, scale),
            ),
            (
                "InfiniteBW".into(),
                spec(Paradigm::InfiniteBw, 4, LinkGen::Infinite, scale),
            ),
        ],
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
        figure8_columns(4, LinkGen::Pcie3, scale),
        scale,
    )
}

/// Figure 9: subscriber distribution of shared GPS pages (percent of
/// multi-subscriber pages with 2, 3 and 4 subscribers) on 4 GPUs.
pub fn fig9(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let rows = run_default_machine(ctx, &[spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale)])
        .into_iter()
        .map(|(app, runs)| {
            let count = |k: usize| {
                runs[0]
                    .metric(&format!("pages_{k}_subscribers"))
                    .unwrap_or(0.0)
            };
            let shared: f64 = (2..=4).map(count).sum();
            let pct = |k: usize| {
                if shared > 0.0 {
                    100.0 * count(k) / shared
                } else {
                    0.0
                }
            };
            (app, vec![pct(4), pct(3), pct(2)])
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
    let specs = [
        Paradigm::Um,
        Paradigm::UmHints,
        Paradigm::Rdl,
        Paradigm::Memcpy,
        Paradigm::Gps,
    ]
    .map(|p| spec(p, 4, LinkGen::Pcie3, scale));
    let rows = run_default_machine(ctx, &specs)
        .into_iter()
        .map(|(app, runs)| {
            let traffic: Vec<f64> = runs
                .iter()
                .map(|r| r.metric("steady_traffic_per_iteration").unwrap_or(0.0))
                .collect();
            let memcpy = traffic[3].max(1.0);
            let vals = [0, 1, 2, 4].map(|i| traffic[i] / memcpy).to_vec();
            (app, vals)
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
                spec(Paradigm::GpsNoSubscription, 4, LinkGen::Pcie3, scale),
            ),
            (
                "GPS with subscription".into(),
                spec(Paradigm::Gps, 4, LinkGen::Pcie3, scale),
            ),
        ],
        scale,
    )
}

/// Figure 12: 16-GPU speedups under projected PCIe 6.0.
pub fn fig12(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    speedup_figure(
        ctx,
        "Figure 12: 16-GPU performance of different paradigms (PCIe 6.0 projected)",
        figure8_columns(16, LinkGen::Pcie6, scale),
        scale,
    )
}

/// Figure 13: geomean 4-GPU speedup per paradigm as the interconnect
/// improves from PCIe 3.0 to projected PCIe 6.0.
pub fn fig13(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    link_sweep(
        ctx,
        "Figure 13: geomean speedup vs interconnect bandwidth (4 GPUs)",
        &LinkGen::PCIE_SWEEP,
        scale,
    )
}

/// Figure 14: GPS remote-write-queue hit rate vs queue size.
pub fn fig14(scale: ScaleProfile) -> Figure {
    let sizes = [0usize, 32, 64, 128, 256, 512, 1024];
    let rows = grid(&suite::all(), &sizes, |app, size| {
        let m = gps_with(app, scale, GpsConfig::paper().with_rwq_entries(size));
        m.report.metric("rwq_hit_rate").unwrap_or(0.0) * 100.0
    });
    Figure {
        title: "Figure 14: GPS write queue hit rate (%) vs queue size".into(),
        columns: sizes.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

/// §7.4: GPS-TLB hit rate vs entry count (the paper finds ~100 % at 32).
pub fn gps_tlb_sensitivity(scale: ScaleProfile) -> Figure {
    let geometries = [(1usize, 8usize), (2, 8), (4, 8), (8, 8)]; // 8..64 entries
    let rows = grid(&suite::all(), &geometries, |app, (sets, ways)| {
        let mut cfg = GpsConfig::paper();
        cfg.gps_tlb = gps_mem::TlbConfig { sets, ways };
        let m = gps_with(app, scale, cfg);
        m.report.metric("gps_tlb_hit_rate").unwrap_or(0.0) * 100.0
    });
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
    let apps: Vec<AppEntry> = ["ct", "eqwp", "diffusion", "hit"]
        .iter()
        .map(|n| suite::by_name(n).expect("known app"))
        .collect();
    let rows = grid(&apps, &watermarks, |app, wm| {
        let mut cfg = GpsConfig::paper();
        cfg.drain_watermark = wm;
        let m = gps_with(app, scale, cfg);
        m.report.metric("rwq_hit_rate").unwrap_or(0.0) * 100.0
    });
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
    let modes = [
        gps_core::ProfilingMode::SubscribedByDefault,
        gps_core::ProfilingMode::UnsubscribedByDefault,
    ];
    let rows = grid(&suite::all(), &modes, |app, mode| {
        let mut cfg = GpsConfig::paper();
        cfg.profiling = mode;
        let m = gps_with(app, scale, cfg);
        let iter0 = m.report.phase_ends[m.phases_per_iteration - 1].as_u64() as f64;
        (iter0, m.steady_cycles)
    })
    .into_iter()
    .map(|(app, r)| {
        let ((sub0, sub_steady), (unsub0, unsub_steady)) = (r[0], r[1]);
        (app, vec![sub0, unsub0, sub_steady, unsub_steady])
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
    link_sweep(
        ctx,
        "Extension: geomean speedup on NVLink-class interconnects (4 GPUs)",
        &[
            LinkGen::Pcie3,
            LinkGen::NvLink1,
            LinkGen::NvLink2,
            LinkGen::NvLink3,
        ],
        scale,
    )
}

/// Extension: GPS strong-scaling curve across GPU counts (PCIe 6.0),
/// interpolating between the paper's 4-GPU and 16-GPU systems.
pub fn scaling_curve(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let paradigms = [Paradigm::Memcpy, Paradigm::Gps, Paradigm::InfiniteBw];
    geomean_sweep(
        ctx,
        "Extension: geomean strong scaling vs GPU count (PCIe 6.0)",
        paradigms.iter().map(|p| p.to_string()).collect(),
        [2usize, 4, 8, 16]
            .iter()
            .map(|&gpus| {
                let specs = paradigms
                    .iter()
                    .map(|&p| spec(p, gpus, LinkGen::Pcie6, scale))
                    .collect();
                (format!("{gpus} GPUs"), specs)
            })
            .collect(),
        scale,
    )
}

/// Extension: switch vs ring topology at NVLink-1 bandwidth. The paper
/// evaluates switch-attached systems; a switchless ring (NVLink bridges)
/// makes transit traffic contend on neighbour links, hurting the
/// all-to-all applications most.
pub fn topology_comparison(ctx: &FigureCtx, scale: ScaleProfile) -> Figure {
    let specs = [Topology::Switch, Topology::Ring].map(|topology| RunSpec {
        topology,
        ..spec(Paradigm::Gps, 4, LinkGen::NvLink1, scale)
    });
    Figure {
        title: "Extension: GPS speedup, central switch vs ring topology (4 GPUs, NVLink 1)".into(),
        columns: vec!["Switch".into(), "Ring".into()],
        rows: speedups(ctx, &specs, scale),
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
    let specs = ratios.map(|r| RunSpec {
        pressure: MemoryPressure::from_ratio(r),
        ..spec(Paradigm::GpsOversub, 4, LinkGen::Pcie3, scale)
    });
    let mut rows: Vec<(String, Vec<f64>)> = run_default_machine(ctx, &specs)
        .into_iter()
        .map(|(app, runs)| {
            let base = (runs[0].total_cycles as f64).max(1.0);
            let mut vals: Vec<f64> = runs.iter().map(|r| r.total_cycles as f64 / base).collect();
            vals.push(
                runs[ratios.len() - 1]
                    .metric("evicted_replicas")
                    .unwrap_or(0.0),
            );
            (app, vals)
        })
        .collect();
    // Geomean slowdowns; the evicted column sums instead.
    let mut geo = column_geomeans(&rows);
    geo[ratios.len()] = rows.iter().map(|(_, vals)| vals[ratios.len()]).sum();
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
    let sizes = [PageSize::Small4K, PageSize::Standard64K, PageSize::Huge2M];
    let mut rows: Vec<(String, Vec<f64>)> = grid(&suite::all(), &sizes, |app, page| {
        let workload = (app.build_paged)(4, scale, page);
        let report = gps_paradigms::run_paradigm(Paradigm::Gps, &workload, 4, LinkGen::Pcie3)
            .expect("workload/machine mismatch");
        steady_cycles_per_iteration(&report, workload.phases_per_iteration)
    })
    .into_iter()
    .map(|(app, t)| {
        let base = t[1];
        (app, t.iter().map(|&x| base / x).collect())
    })
    .collect();
    rows.push(("geomean".to_owned(), column_geomeans(&rows)));
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
