//! `gps-run bench` — the streaming-replay and engine micro-suite.
//!
//! A fixed set of benchmark cases at several scales:
//!
//! * **trace-replay cases** — a replay-bound micro workload (many short
//!   warps, single-line accesses) is recorded once, then simulated two
//!   ways: `Trace::replay_materialised` (the pre-streaming behaviour: one
//!   `Vec<WarpInstr>` per warp, cloned at every spawn) and
//!   [`Trace::replay`] (zero-copy cursors over the shared trace bytes).
//!   Both must produce bit-identical [`SimReport`]s — the bench *fails*
//!   if they diverge.
//! * **engine cases** — a suite application simulated three ways on the
//!   case's fabric topology: the reference lane that owns every GPU
//!   (`parallel_workers = 0`), per-GPU lanes on the simulation thread
//!   (`parallel_workers = 1`), and per-GPU lanes on a real worker pool
//!   (`parallel_workers = N`). All legs must produce bit-identical
//!   [`SimReport`]s; the interesting numbers are `speedup_parallel`
//!   (per-GPU lanes) and `speedup_multiworker` (what the thread pool adds
//!   on top), measured up to 64-GPU superpod scale.
//!
//! Results are written to `BENCH_sim.json` (wall-clock milliseconds and
//! peak RSS per leg). The schema is versioned and checked by CI; the
//! timings themselves are host-dependent and are *not* gated there.
//!
//! [`Trace::replay`]: gps_sim::Trace::replay
//! [`SimReport`]: gps_sim::SimReport

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gps_interconnect::{LinkGen, Topology};
use gps_sim::{
    AllLocalPolicy, Engine, KernelSpec, SimConfig, SimReport, Trace, WarpCtx, WarpInstr, Workload,
    WorkloadBuilder,
};
use gps_types::{GpuId, Json, PageSize};
use gps_workloads::{suite, ScaleProfile};

/// Bump when the shape of `BENCH_sim.json` changes; CI greps for this.
///
/// v2: `peak_rss_kb` became nullable — `null` when `/proc` is unreadable
/// instead of a fake `0` masquerading as a measurement.
///
/// v3: `engine` cases (sequential vs parallel lane-engine legs) with a
/// per-leg `workers` field and a per-case `speedup_parallel`.
///
/// v4: engine cases grew a `parallel_pool` leg (the lane engine on a real
/// worker pool) and a `speedup_multiworker`, every case carries its fabric
/// `topology`, and the full suite scales to 32/64-GPU superpod cases.
///
/// v5: the overlapped-expansion pipeline is gone, and with it the
/// top-level and per-leg depth fields, the pipelined legs and the
/// generator-only `synthetic` cases.
pub const BENCH_SCHEMA_VERSION: u64 = 5;

/// Options for [`run_bench`].
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Run the reduced suite (small cases only, one repetition) — used by
    /// the CI schema smoke test.
    pub quick: bool,
    /// Where to write the JSON report.
    pub out: PathBuf,
}

impl Default for BenchOptions {
    fn default() -> Self {
        Self {
            quick: false,
            out: PathBuf::from("BENCH_sim.json"),
        }
    }
}

/// One timed execution.
#[derive(Debug, Clone)]
pub struct BenchLeg {
    /// Leg label (`materialised`, `streaming`, `sequential`, `parallel`, ...).
    pub mode: &'static str,
    /// Lane-engine workers the leg ran with (`0` = the reference lane;
    /// engine cases only, `0` elsewhere).
    pub workers: usize,
    /// Best-of-reps wall-clock milliseconds.
    pub wall_ms: f64,
    /// Peak RSS in KiB after the leg (`VmHWM`); `None` — serialised as
    /// JSON `null` — when `/proc` is unavailable, so a missing measurement
    /// is never mistaken for a zero-byte footprint.
    pub peak_rss_kb: Option<u64>,
    /// Simulated cycles of the report (identical across legs of a case).
    pub total_cycles: u64,
}

/// One benchmark case: several legs over the same simulation.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Case name (`replay_paper_4gpu`, ...).
    pub name: String,
    /// `trace_replay` or `engine`.
    pub kind: &'static str,
    /// GPU count.
    pub gpus: usize,
    /// Fabric topology label the case simulated on (`switch` unless the
    /// case says otherwise; engine cases at superpod scale use `nvswitch`
    /// or `pcietree`).
    pub topology: String,
    /// Total warps simulated.
    pub total_warps: u64,
    /// Serialised trace size (0 for engine cases).
    pub trace_bytes: u64,
    /// Repetitions per leg (wall time is the minimum).
    pub reps: u32,
    /// The timed legs.
    pub legs: Vec<BenchLeg>,
    /// Whether every leg produced a bit-identical report.
    pub reports_identical: bool,
}

impl BenchCase {
    fn leg_wall(&self, mode: &str) -> Option<f64> {
        self.legs.iter().find(|l| l.mode == mode).map(|l| l.wall_ms)
    }

    /// Wall-clock speedup of the streaming leg over the materialised one
    /// (trace-replay cases only).
    pub fn speedup_streaming(&self) -> Option<f64> {
        Some(self.leg_wall("materialised")? / self.leg_wall("streaming")?)
    }

    /// Wall-clock speedup of the per-GPU-lane leg over the reference lane
    /// (engine cases only).
    pub fn speedup_parallel(&self) -> Option<f64> {
        Some(self.leg_wall("sequential")? / self.leg_wall("parallel")?)
    }

    /// Wall-clock speedup of the worker-pool leg over the reference lane
    /// (engine cases only).
    pub fn speedup_multiworker(&self) -> Option<f64> {
        Some(self.leg_wall("sequential")? / self.leg_wall("parallel_pool")?)
    }
}

/// The full suite result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether the reduced suite ran.
    pub quick: bool,
    /// Whether `/proc/self/clear_refs` accepted a peak-RSS reset (when it
    /// does not, `VmHWM` is monotone across legs and only the first leg's
    /// reading is a true per-leg peak).
    pub rss_reset_supported: bool,
    /// The cases, in execution order.
    pub cases: Vec<BenchCase>,
}

impl BenchReport {
    /// Renders the report as the `BENCH_sim.json` document.
    pub fn to_json(&self) -> Json {
        let cases = self
            .cases
            .iter()
            .map(|c| {
                let legs = c
                    .legs
                    .iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("mode".into(), Json::Str(l.mode.into())),
                            ("workers".into(), Json::Num(l.workers as f64)),
                            ("wall_ms".into(), Json::Num(l.wall_ms)),
                            (
                                "peak_rss_kb".into(),
                                l.peak_rss_kb.map_or(Json::Null, |kb| Json::Num(kb as f64)),
                            ),
                            ("total_cycles".into(), Json::Num(l.total_cycles as f64)),
                        ])
                    })
                    .collect();
                let mut fields = vec![
                    ("name".into(), Json::Str(c.name.clone())),
                    ("kind".into(), Json::Str(c.kind.into())),
                    ("gpus".into(), Json::Num(c.gpus as f64)),
                    ("topology".into(), Json::Str(c.topology.clone())),
                    ("total_warps".into(), Json::Num(c.total_warps as f64)),
                    ("trace_bytes".into(), Json::Num(c.trace_bytes as f64)),
                    ("reps".into(), Json::Num(f64::from(c.reps))),
                    ("legs".into(), Json::Arr(legs)),
                    ("reports_identical".into(), Json::Bool(c.reports_identical)),
                ];
                if let Some(s) = c.speedup_streaming() {
                    fields.push(("speedup_streaming".into(), Json::Num(round3(s))));
                }
                if let Some(s) = c.speedup_parallel() {
                    fields.push(("speedup_parallel".into(), Json::Num(round3(s))));
                }
                if let Some(s) = c.speedup_multiworker() {
                    fields.push(("speedup_multiworker".into(), Json::Num(round3(s))));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(BENCH_SCHEMA_VERSION as f64),
            ),
            (
                "bench".into(),
                Json::Str("gps streaming-replay & engine micro-suite".into()),
            ),
            ("quick".into(), Json::Bool(self.quick)),
            (
                "rss_reset_supported".into(),
                Json::Bool(self.rss_reset_supported),
            ),
            ("cases".into(), Json::Arr(cases)),
        ])
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Peak resident set (`VmHWM`) in KiB; `None` when `/proc` is unavailable
/// or the field cannot be parsed.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Attempts to reset the peak-RSS watermark so each leg reads its own peak
/// (`echo 5 > /proc/self/clear_refs`; not supported on every kernel).
fn try_reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The replay-bound micro workload: `gpus × ctas_per_gpu × warps_per_cta`
/// warps, each issuing a *single* instruction — alternating between a
/// compute and a single-line load on a small cache-hot per-GPU window of
/// a shared array. Millions of one-instruction warps put the per-warp
/// fixed costs (decode, allocation, copy at every spawn) in the
/// numerator: the case measures trace expansion, not the memory system,
/// which is precisely what streaming replay optimises.
fn replay_micro(gpus: usize, ctas_per_gpu: u32, warps_per_cta: u32) -> Workload {
    // Each GPU cycles through a window that fits its L1/L2, so almost
    // every access hits and the per-instruction simulation cost stays
    // near its floor.
    const WINDOW_LINES: u64 = 256;
    let mut b = WorkloadBuilder::new("replay_micro", PageSize::Standard64K, gpus);
    let data = b
        .alloc_shared("data", gpus as u64 * WINDOW_LINES * 128)
        // gps-lint: allow(no_expect) -- fixed-size allocation far below any VA limit
        .expect("micro allocation");
    let launches = (0..gpus)
        .map(|g| {
            let base = data.line_at(g as u64 * WINDOW_LINES);
            KernelSpec {
                name: format!("micro{g}"),
                gpu: GpuId::new(g as u16),
                cta_count: ctas_per_gpu,
                warps_per_cta,
                program: Arc::new(move |ctx: WarpCtx| {
                    let w = ctx.global_warp() as u64;
                    vec![if w.is_multiple_of(2) {
                        WarpInstr::Compute(4 + (w % 13) as u32)
                    } else {
                        WarpInstr::load1(base.offset(w % WINDOW_LINES))
                    }]
                }),
            }
        })
        .collect();
    b.phase(launches);
    // gps-lint: allow(no_expect) -- builder is fully constrained above; validation cannot fail
    b.build(1).expect("micro workload validates")
}

/// Simulates `workload` under the all-local policy (the bench isolates
/// trace expansion from paradigm behaviour).
fn simulate(workload: &Workload) -> SimReport {
    let mut config = SimConfig::gv100_system(workload.gpu_count);
    config.page_size = workload.page_size;
    let mut policy = AllLocalPolicy::new();
    Engine::new(config, LinkGen::Pcie3, workload, &mut policy)
        // gps-lint: allow(no_expect) -- config is derived from the workload's own gpu_count/page_size
        .expect("bench workload/machine mismatch")
        .run()
}

/// Simulates `workload` under the all-local policy on `topology` with the
/// given number of lane-engine workers (`0` = the reference lane). Engine
/// cases run over NVLink so the conservative epoch
/// window matches the fabric the paper configurations use.
fn simulate_engine(workload: &Workload, workers: usize, topology: Topology) -> SimReport {
    let mut config = SimConfig::gv100_system(workload.gpu_count).with_parallel_workers(workers);
    config.topology = topology;
    config.page_size = workload.page_size;
    let mut policy = AllLocalPolicy::new();
    Engine::new(config, LinkGen::NvLink2, workload, &mut policy)
        // gps-lint: allow(no_expect) -- config is derived from the workload's own gpu_count/page_size
        .expect("bench workload/machine mismatch")
        .run()
}

/// One leg description: how to rebuild the workload and how to simulate
/// it — with the default machine (`workers: None`) or with the given
/// lane-engine worker count (`workers: Some(n)`) over `topology`.
struct LegSpec<'a> {
    mode: &'static str,
    workers: Option<usize>,
    topology: Topology,
    build: Box<dyn Fn() -> Workload + 'a>,
}

/// Times every leg `reps` times in *interleaved rounds* (leg A, leg B,
/// ..., then again), taking each leg's minimum. Interleaving matters on
/// shared hosts: a noisy burst that lands inside one round slows every
/// leg of that round equally instead of poisoning one leg's entire
/// sample, so the min-of-rounds ratio reflects the structural difference.
fn run_legs(legs: &[LegSpec<'_>], reps: u32) -> (Vec<BenchLeg>, Vec<SimReport>) {
    struct LegState {
        wall_ms: f64,
        rss_kb: Option<u64>,
        report: Option<SimReport>,
    }
    let mut states: Vec<LegState> = legs
        .iter()
        .map(|_| LegState {
            wall_ms: f64::INFINITY,
            rss_kb: None,
            report: None,
        })
        .collect();
    for _ in 0..reps.max(1) {
        for (leg, state) in legs.iter().zip(states.iter_mut()) {
            try_reset_peak_rss();
            let start = Instant::now();
            let wl = (leg.build)();
            let r = match leg.workers {
                Some(workers) => simulate_engine(&wl, workers, leg.topology),
                None => simulate(&wl),
            };
            drop(wl);
            let wall = start.elapsed().as_secs_f64() * 1e3;
            state.wall_ms = state.wall_ms.min(wall);
            state.rss_kb = match (state.rss_kb, peak_rss_kb()) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, None) => a,
                (None, b) => b,
            };
            state.report = Some(r);
        }
    }
    let mut bench_legs = Vec::with_capacity(legs.len());
    let mut reports = Vec::with_capacity(legs.len());
    for (leg, state) in legs.iter().zip(states) {
        // reps.max(1) guarantees every leg ran at least once.
        // gps-lint: allow(no_expect) -- loop above runs >= 1 round for every leg
        let report = state.report.expect("at least one round ran");
        bench_legs.push(BenchLeg {
            mode: leg.mode,
            workers: leg.workers.unwrap_or(0),
            wall_ms: state.wall_ms,
            peak_rss_kb: state.rss_kb,
            total_cycles: report.total_cycles.as_u64(),
        });
        reports.push(report);
    }
    (bench_legs, reports)
}

fn reports_identical(reports: &[SimReport]) -> bool {
    let Some((first, rest)) = reports.split_first() else {
        return true;
    };
    let canon = format!("{first:?}");
    rest.iter().all(|r| format!("{r:?}") == canon)
}

fn trace_replay_case(
    name: &str,
    gpus: usize,
    ctas_per_gpu: u32,
    warps_per_cta: u32,
    reps: u32,
    log: bool,
) -> BenchCase {
    let workload = replay_micro(gpus, ctas_per_gpu, warps_per_cta);
    let total_warps = workload.total_warps();
    let trace = Trace::record(&workload);
    drop(workload);
    let trace_bytes = trace.len() as u64;
    if log {
        println!("[bench] {name}: {total_warps} warps, {trace_bytes} trace bytes");
    }

    // The streaming leg comes first in each round: without a peak-RSS
    // reset `VmHWM` is monotone, and this order keeps the streaming
    // numbers untainted by the materialised leg's larger footprint.
    let legs = vec![
        LegSpec {
            mode: "streaming",
            workers: None,
            topology: Topology::Switch,
            // gps-lint: allow(no_expect) -- trace was recorded in-process two lines up
            build: Box::new(|| trace.replay("bench").expect("recorded trace replays")),
        },
        LegSpec {
            mode: "materialised",
            workers: None,
            topology: Topology::Switch,
            build: Box::new(|| {
                trace
                    .replay_materialised("bench")
                    // gps-lint: allow(no_expect) -- trace was recorded in-process above
                    .expect("recorded trace replays")
            }),
        },
    ];
    let (timed, reports) = run_legs(&legs, reps);

    let case = BenchCase {
        name: name.to_owned(),
        kind: "trace_replay",
        gpus,
        topology: Topology::Switch.label().to_owned(),
        total_warps,
        trace_bytes,
        reps,
        legs: timed,
        reports_identical: reports_identical(&reports),
    };
    if log {
        println!(
            "[bench] {name}: streaming {:.1} ms, materialised {:.1} ms \
             (speedup {:.2}x, identical: {})",
            case.leg_wall("streaming").unwrap_or(0.0),
            case.leg_wall("materialised").unwrap_or(0.0),
            case.speedup_streaming().unwrap_or(0.0),
            case.reports_identical,
        );
    }
    case
}

/// The shape of one engine case: which application, at what scale, on
/// which fabric, and how many pool workers the `parallel_pool` leg spawns.
struct EngineCaseSpec {
    name: &'static str,
    app: &'static str,
    gpus: usize,
    scale: ScaleProfile,
    topology: Topology,
    pool_workers: usize,
    reps: u32,
}

/// An engine case: the same suite application on the reference lane
/// (`workers = 0`), on per-GPU lanes on the simulation thread
/// (`workers = 1`), and on per-GPU lanes on a real worker pool
/// (`workers = pool_workers`). The legs run in interleaved rounds
/// like every other case; the bench fails if their reports diverge, so the
/// published speedups are always speedups over a bit-identical result.
fn engine_case(spec: EngineCaseSpec, log: bool) -> std::io::Result<BenchCase> {
    let EngineCaseSpec {
        name,
        app,
        gpus,
        scale,
        topology,
        pool_workers,
        reps,
    } = spec;
    let entry = suite::by_name(app).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("bench case {name} names unknown suite application {app:?}"),
        )
    })?;
    let total_warps = (entry.build)(gpus, scale).total_warps();
    // The sequential leg goes first in each round for the same reason the
    // streaming leg does: without a peak-RSS reset `VmHWM` is monotone.
    let legs = vec![
        LegSpec {
            mode: "sequential",
            workers: Some(0),
            topology,
            build: Box::new(move || (entry.build)(gpus, scale)),
        },
        LegSpec {
            mode: "parallel",
            workers: Some(1),
            topology,
            build: Box::new(move || (entry.build)(gpus, scale)),
        },
        LegSpec {
            mode: "parallel_pool",
            workers: Some(pool_workers.max(2)),
            topology,
            build: Box::new(move || (entry.build)(gpus, scale)),
        },
    ];
    let (timed, reports) = run_legs(&legs, reps);
    let case = BenchCase {
        name: name.to_owned(),
        kind: "engine",
        gpus,
        topology: topology.label().to_owned(),
        total_warps,
        trace_bytes: 0,
        reps,
        legs: timed,
        reports_identical: reports_identical(&reports),
    };
    if log {
        println!(
            "[bench] {name}: sequential {:.1} ms, parallel {:.1} ms, \
             pool {:.1} ms (speedup {:.2}x / {:.2}x, identical: {})",
            case.leg_wall("sequential").unwrap_or(0.0),
            case.leg_wall("parallel").unwrap_or(0.0),
            case.leg_wall("parallel_pool").unwrap_or(0.0),
            case.speedup_parallel().unwrap_or(0.0),
            case.speedup_multiworker().unwrap_or(0.0),
            case.reports_identical,
        );
    }
    Ok(case)
}

/// Runs the micro-suite and writes `BENCH_sim.json` to `opts.out`.
///
/// # Errors
///
/// Fails if any case's legs produce diverging [`SimReport`]s (a
/// correctness bug, not a measurement artefact) or the report cannot be
/// written.
pub fn run_bench(opts: &BenchOptions) -> std::io::Result<BenchReport> {
    run_bench_logged(opts, true)
}

/// [`run_bench`] with progress printing controlled (tests run silent).
///
/// # Errors
///
/// Same contract as [`run_bench`].
pub fn run_bench_logged(opts: &BenchOptions, log: bool) -> std::io::Result<BenchReport> {
    let rss_reset_supported = try_reset_peak_rss();

    let mut cases = Vec::new();
    if opts.quick {
        cases.push(trace_replay_case("replay_small_1gpu", 1, 512, 2, 1, log));
        cases.push(engine_case(
            EngineCaseSpec {
                name: "engine_jacobi_tiny_2gpu",
                app: "jacobi",
                gpus: 2,
                scale: ScaleProfile::Tiny,
                topology: Topology::Switch,
                pool_workers: 2,
                reps: 1,
            },
            log,
        )?);
    } else {
        cases.push(trace_replay_case("replay_small_1gpu", 1, 512, 2, 3, log));
        cases.push(trace_replay_case("replay_medium_2gpu", 2, 4096, 4, 2, log));
        cases.push(trace_replay_case("replay_paper_4gpu", 4, 32768, 8, 3, log));
        // The engine cases back the parallel-engine acceptance claim: the
        // worker pool has to win at >= 16-GPU scale, and keep winning on
        // both superpod fabrics (32-GPU NVSwitch, 64-GPU PCIe tree).
        cases.push(engine_case(
            EngineCaseSpec {
                name: "engine_jacobi_paper_4gpu",
                app: "jacobi",
                gpus: 4,
                scale: ScaleProfile::Paper,
                topology: Topology::Switch,
                pool_workers: 4,
                reps: 3,
            },
            log,
        )?);
        cases.push(engine_case(
            EngineCaseSpec {
                name: "engine_pagerank_paper_16gpu",
                app: "pagerank",
                gpus: 16,
                scale: ScaleProfile::Paper,
                topology: Topology::NvSwitch,
                pool_workers: 8,
                reps: 3,
            },
            log,
        )?);
        cases.push(engine_case(
            EngineCaseSpec {
                name: "engine_pagerank_superpod_32gpu",
                app: "pagerank",
                gpus: 32,
                scale: ScaleProfile::Paper,
                topology: Topology::NvSwitch,
                pool_workers: 8,
                reps: 2,
            },
            log,
        )?);
        cases.push(engine_case(
            EngineCaseSpec {
                name: "engine_jacobi_superpod_64gpu",
                app: "jacobi",
                gpus: 64,
                scale: ScaleProfile::Small,
                topology: Topology::PcieTree,
                pool_workers: 8,
                reps: 2,
            },
            log,
        )?);
    }

    if let Some(bad) = cases.iter().find(|c| !c.reports_identical) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "bench case {} produced diverging SimReports across legs",
                bad.name
            ),
        ));
    }

    let report = BenchReport {
        quick: opts.quick,
        rss_reset_supported,
        cases,
    };
    write_bench_json(&report, &opts.out)?;
    if log {
        println!("[bench] wrote {}", opts.out.display());
    }
    Ok(report)
}

fn write_bench_json(report: &BenchReport, out: &Path) -> std::io::Result<()> {
    if let Some(parent) = out.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(out, report.to_json().emit() + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_workload_validates_and_scales() {
        let wl = replay_micro(2, 8, 2);
        assert_eq!(wl.gpu_count, 2);
        assert_eq!(wl.total_warps(), 32);
        let r = simulate(&wl);
        assert_eq!(r.gpu_count, 2);
        assert!(r.total_cycles.as_u64() > 0);
    }

    #[test]
    fn quick_bench_writes_versioned_schema() {
        let dir = std::env::temp_dir().join(format!("gps_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("BENCH_sim.json");
        let opts = BenchOptions {
            quick: true,
            out: out.clone(),
        };
        let report = run_bench_logged(&opts, false).expect("quick bench runs");
        assert!(report.cases.iter().all(|c| c.reports_identical));

        let doc = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("valid json");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(BENCH_SCHEMA_VERSION)
        );
        let cases = doc.get("cases").and_then(Json::as_arr).expect("cases");
        assert!(!cases.is_empty());
        for case in cases {
            for key in [
                "name",
                "kind",
                "gpus",
                "topology",
                "legs",
                "reports_identical",
            ] {
                assert!(case.get(key).is_some(), "case missing {key}");
            }
            for leg in case.get("legs").and_then(Json::as_arr).unwrap() {
                for key in ["mode", "workers", "wall_ms", "peak_rss_kb", "total_cycles"] {
                    assert!(leg.get(key).is_some(), "leg missing {key}");
                }
            }
        }
        let replay = cases
            .iter()
            .find(|c| c.get("kind").and_then(Json::as_str) == Some("trace_replay"))
            .expect("a trace_replay case");
        assert!(replay.get("speedup_streaming").is_some());
        let engine = cases
            .iter()
            .find(|c| c.get("kind").and_then(Json::as_str) == Some("engine"))
            .expect("an engine case");
        assert!(engine.get("speedup_parallel").is_some());
        assert!(engine.get("speedup_multiworker").is_some());
        let modes: Vec<_> = engine
            .get("legs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|l| l.get("mode").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(modes, ["sequential", "parallel", "parallel_pool"]);
        let pool_workers = engine
            .get("legs")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|l| l.get("mode").and_then(Json::as_str) == Some("parallel_pool"))
            .and_then(|l| l.get("workers").and_then(Json::as_u64))
            .expect("pool leg records its worker count");
        assert!(pool_workers >= 2, "pool leg must use a real worker pool");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_peak_rss_serialises_as_null_not_zero() {
        let report = BenchReport {
            quick: true,
            rss_reset_supported: false,
            cases: vec![BenchCase {
                name: "c".into(),
                kind: "trace_replay",
                gpus: 1,
                topology: "switch".into(),
                total_warps: 1,
                trace_bytes: 0,
                reps: 1,
                legs: vec![
                    BenchLeg {
                        mode: "streaming",
                        workers: 0,
                        wall_ms: 1.0,
                        peak_rss_kb: None,
                        total_cycles: 1,
                    },
                    BenchLeg {
                        mode: "materialised",
                        workers: 0,
                        wall_ms: 1.0,
                        peak_rss_kb: Some(4096),
                        total_cycles: 1,
                    },
                ],
                reports_identical: true,
            }],
        };
        let text = report.to_json().emit();
        assert!(text.contains("\"peak_rss_kb\":null"), "{text}");
        assert!(text.contains("\"peak_rss_kb\":4096"), "{text}");
        assert!(!text.contains("\"peak_rss_kb\":0"), "{text}");
    }

    #[test]
    fn identical_report_check_spots_divergence() {
        let wl = replay_micro(1, 4, 2);
        let a = simulate(&wl);
        let mut b = simulate(&wl);
        assert!(reports_identical(&[a.clone(), b.clone()]));
        b.interconnect_bytes += 1;
        assert!(!reports_identical(&[a, b]));
    }
}
