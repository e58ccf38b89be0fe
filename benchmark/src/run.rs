//! The timed run, the traced run and reference regeneration.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use gps_paradigms::Paradigm;
use gps_types::Json;

use crate::digest::Reference;
use crate::fig::FigSweep;
use crate::host::peak_rss_mb;
use crate::lanes::Lanes;
use crate::metrics::{Metrics, Section, LAYERS};
use crate::spans::{layer_self_ns, Span, Tracer};
use crate::stats::{median, summarize};
use crate::timeline::Timeline;
use crate::units::{Batch, BenchWorkload, Extras, LayerCounts, ObsCounts, ReportCounts, UnitObs};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fig_sweep_4gpu", "lanes_16gpu", "timeline_4gpu"];

/// Set-up passes per timed run, each in a fresh process; `setup_s` is
/// their median.
pub const SETUP_REPS: u32 = 11;

/// What a `--setup-only` process prints once its set-up is done.
const READY: &str = "ready";

/// Untimed batches before the timed ones: the first batch in a process
/// runs slower (page faults, allocator growth, thread start-up).
pub const WARMUP_REPS: u32 = 1;

/// The seed of the unit order of the warm-up pass that `peak_rss_mb` is
/// taken over, whatever the run's `--seed`.
const PEAK_ORDER_SEED: u64 = 0;

/// Where runs write, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Units attempted, warm-up and extra legs included.
    pub attempted: u64,
    /// Why each failed unit failed.
    pub failures: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
    /// The recorded spans (traced runs only).
    pub spans: Option<Json>,
    /// Per-batch samples behind the medians (timed runs only).
    pub samples: Option<Json>,
}

impl Outcome {
    fn absorb(&mut self, batch: &Batch) {
        self.attempted += batch.attempted;
        self.failures.extend(batch.failures.iter().cloned());
    }
}

fn make(
    workload: &str,
    reference: Reference,
    work: PathBuf,
) -> Result<Box<dyn BenchWorkload>, String> {
    match workload {
        "fig_sweep_4gpu" => Ok(Box::new(FigSweep::new(reference, work))),
        "lanes_16gpu" => Ok(Box::new(Lanes::new(reference))),
        "timeline_4gpu" => Ok(Box::new(Timeline::new(reference, work))),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn work_dir(workload: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("work-{workload}-{}", std::process::id()))
}

/// One set-up pass in this process, as a `--setup-only` run does it:
/// everything before the first unit begins simulating. Prints [`READY`]
/// when done, then removes what the pass wrote.
///
/// # Errors
///
/// Describes a set-up step that failed.
pub fn setup_only(workload: &str, seed: u64) -> Result<(), String> {
    let mut w = make(workload, Reference::committed()?, work_dir(workload))?;
    let done = w.setup(seed, &mut Tracer::new(false)).and_then(|()| {
        let mut out = std::io::stdout().lock();
        writeln!(out, "{READY}")
            .and_then(|()| out.flush())
            .map_err(|e| format!("writing to standard output: {e}"))
    });
    w.cleanup();
    done
}

/// Host seconds from spawning this program with `--setup-only` until it
/// reports its set-up done: process start, reading the reference, and the
/// workload's set-up pass. Waits for the process to end.
fn setup_in_child(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let begun = Instant::now();
    let mut child = Command::new(exe)
        .args(["--setup-only", workload, "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    let mut line = String::new();
    let read = match child.stdout.take() {
        Some(out) => BufReader::new(out).read_line(&mut line).map(drop),
        None => Ok(()),
    };
    let elapsed = begun.elapsed().as_secs_f64();
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a set-up process: {e}"))?;
    match read {
        Ok(()) if status.success() && line.trim_end() == READY => Ok(elapsed),
        Ok(()) => Err(format!("a set-up process failed ({status})")),
        Err(e) => Err(format!("reading a set-up process: {e}")),
    }
}

/// The timed run: `SETUP_REPS` set-up passes, each in a fresh process,
/// then set-up in this process and `WARMUP_REPS` warm-up batches in the
/// `PEAK_ORDER_SEED` order, then set-up in the `seed` order and an odd
/// number of batches, until `seconds` have passed. Reports the end-to-end
/// metrics as medians.
///
/// # Errors
///
/// Describes a set-up or batch I/O failure.
pub fn timed(workload: &str, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let setups = (0..SETUP_REPS)
        .map(|_| setup_in_child(workload, seed))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut w = make(workload, Reference::committed()?, work_dir(workload))?;
    let mut off = Tracer::new(false);
    w.cleanup();
    w.setup(PEAK_ORDER_SEED, &mut off)?;
    let mut out = Outcome {
        attempted: 0,
        failures: Vec::new(),
        metrics: Metrics::new(Section::EndToEnd)?,
        spans: None,
        samples: None,
    };
    for _ in 0..WARMUP_REPS {
        out.absorb(&w.batch(&mut off)?);
    }
    // The peak of set-up and one pass over the workload, as one run of the
    // program would see it. Repeating the batch in one process only adds
    // allocator fragmentation, which grows with the run's length. Which
    // unit runs first sets how far the heap grows (up to 10% apart on
    // lanes_16gpu), so the pass runs in one fixed order.
    let peak_rss = peak_rss_mb().ok_or("VmHWM is unreadable: peak_rss_mb cannot be measured")?;
    w.cleanup();
    w.setup(seed, &mut off)?;
    let started = Instant::now();
    let mut batches = Vec::new();
    loop {
        let b = w.batch(&mut off)?;
        out.absorb(&b);
        batches.push(b);
        // An odd count makes the nearest-rank median the middle batch.
        if started.elapsed().as_secs_f64() >= seconds as f64 && batches.len() % 2 == 1 {
            break;
        }
    }
    w.cleanup();

    let series =
        |f: &dyn Fn(&Batch) -> f64| Json::Arr(batches.iter().map(|b| Json::Num(f(b))).collect());
    out.samples = Some(Json::Obj(vec![
        (
            "setup_s".into(),
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("wall_s".into(), series(&|b| b.wall_s)),
        ("cpu_s".into(), series(&|b| b.cpu_s)),
    ]));
    let med = |f: &dyn Fn(&Batch) -> f64| {
        median(&batches.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    out.metrics.set("setup_s", median(&setups).unwrap_or(0.0));
    out.metrics.set("wall_s", med(&|b| b.wall_s));
    out.metrics.set(
        "sim_kinstr_per_s",
        med(&|b| b.instructions as f64 / b.wall_s / 1e3),
    );
    out.metrics.set("cpu_s", med(&|b| b.cpu_s));
    out.metrics.set("peak_rss_mb", peak_rss);
    Ok(out)
}

/// The traced run: one warm-up and one untraced batch, then set-up, the
/// builds the warp-count check needs and a batch under a root span with
/// every layer call spanned, then the workload's extra legs. Reports the
/// per-layer metrics.
///
/// # Errors
///
/// Describes a set-up or batch I/O failure.
pub fn traced(workload: &str, seed: u64) -> Result<Outcome, String> {
    let mut w = make(workload, Reference::committed()?, work_dir(workload))?;
    let mut out = Outcome {
        attempted: 0,
        failures: Vec::new(),
        metrics: Metrics::new(Section::PerLayer)?,
        spans: None,
        samples: None,
    };
    let mut off = Tracer::new(false);
    w.cleanup();
    w.setup(seed, &mut off)?;
    w.prebuild(&mut off)?;
    for _ in 0..WARMUP_REPS {
        out.absorb(&w.batch(&mut off)?);
    }
    let untraced = w.batch(&mut off)?;
    out.absorb(&untraced);
    w.cleanup();

    let mut t = Tracer::new(true);
    let root = t.enter("bench", workload, None);
    w.setup(seed, &mut t)?;
    w.prebuild(&mut t)?;
    let batch = w.batch(&mut t)?;
    t.exit(root);
    out.absorb(&batch);
    let extras = w.extras(&batch, &mut t)?;
    out.absorb(&extras.legs);
    w.cleanup();

    layer_metrics(&mut out.metrics, &batch, &extras, w.build_ms());
    span_metrics(
        &mut out.metrics,
        t.spans(),
        batch.wall_s / untraced.wall_s - 1.0,
    );
    let fail_ratio = out.failures.len() as f64 / out.attempted.max(1) as f64;
    out.metrics.set("fail_ratio", fail_ratio);
    out.spans = Some(t.to_json());
    Ok(out)
}

/// The self time of every layer under the first root span, the root's
/// duration, and the tracing overhead.
fn span_metrics(m: &mut Metrics, spans: &[Span], trace_overhead: f64) {
    let selfs = layer_self_ns(spans, 0);
    for layer in LAYERS {
        m.set(
            &format!("{layer}.self_ms"),
            selfs.get(layer).copied().unwrap_or(0.0) / 1e6,
        );
    }
    m.set(
        "bench.root_ms",
        spans.first().map_or(0.0, |s| s.dur_ns as f64 / 1e6),
    );
    m.set("bench.trace_overhead_ratio", trace_overhead);
}

/// Sums `f` over `units`.
fn sum(units: &[&UnitObs], f: impl Fn(&UnitObs) -> f64) -> f64 {
    units.iter().map(|u| f(u)).sum::<f64>() + 0.0
}

/// Host nanoseconds per simulated instruction over `units`, 0 without any.
fn ns_per_instr(units: &[&UnitObs], ms: impl Fn(&UnitObs) -> f64) -> f64 {
    let instr = sum(units, |u| u.instructions as f64);
    if instr > 0.0 {
        sum(units, ms) * 1e6 / instr
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced batch and its extra legs.
fn layer_metrics(m: &mut Metrics, batch: &Batch, extras: &Extras, build_ms: f64) {
    let units: Vec<&UnitObs> = batch.units.iter().collect();
    let pick = |keep: &dyn Fn(&UnitObs) -> bool| {
        units
            .iter()
            .copied()
            .filter(|u| keep(u))
            .collect::<Vec<_>>()
    };

    // harness: the run_units pool (figure sweep only).
    let (busy, p50, p75, n) = match batch.pool {
        Some((wall_s, jobs)) => {
            let ms: Vec<f64> = units.iter().map(|u| u.host_ms).collect();
            let s = summarize(&ms);
            (
                sum(&units, |u| u.host_ms) / 1e3 / (wall_s * jobs as f64),
                s.map_or(0.0, |s| s.p50),
                s.map_or(0.0, |s| s.p75),
                ms.len() as f64,
            )
        }
        None => (0.0, 0.0, 0.0, 0.0),
    };
    m.set("harness.pool_busy_ratio", busy);
    m.set("harness.unit_ms_p50", p50);
    m.set("harness.unit_ms_p75", p75);
    m.set("harness.unit_samples", n);

    // sim: the classic loop, the lane tiers and probed runs.
    let classic = pick(&|u| u.workers == 0 && !u.probed);
    for p in Paradigm::FIGURE8 {
        let ms = sum(&classic, |u| if u.paradigm == p { u.host_ms } else { 0.0 });
        m.set(
            &format!("sim.classic_ms.{}", p.label().replace('+', "_")),
            ms,
        );
    }
    m.set(
        "sim.ns_per_instr.classic",
        ns_per_instr(&classic, |u| u.host_ms),
    );
    let lanes = pick(&|u| u.workers > 0 && !u.probed);
    for p in [Paradigm::Gps, Paradigm::Rdl] {
        for app in ["pagerank", "jacobi"] {
            let ms = sum(&lanes, |u| {
                if u.paradigm == p && u.app == app {
                    u.host_ms
                } else {
                    0.0
                }
            });
            m.set(&format!("sim.lane_ms.{}.{app}", p.label()), ms);
        }
    }
    let tier = |p: Paradigm| {
        lanes
            .iter()
            .copied()
            .filter(|u| u.paradigm == p)
            .collect::<Vec<_>>()
    };
    m.set(
        "sim.ns_per_instr.gps_epochs",
        ns_per_instr(&tier(Paradigm::Gps), |u| u.host_ms),
    );
    m.set(
        "sim.ns_per_instr.writer_epochs",
        ns_per_instr(&tier(Paradigm::Rdl), |u| u.host_ms),
    );
    let pool_wall = sum(&lanes, |u| u.host_ms / 1e3 * u.workers as f64);
    let pool_cpu = sum(&lanes, |u| u.cpu_s.unwrap_or(0.0));
    m.set(
        "sim.pool_cpu_ratio",
        if pool_wall > 0.0 {
            pool_cpu / pool_wall
        } else {
            0.0
        },
    );
    m.set("sim.pool_speedup", extras.pool_speedup.unwrap_or(0.0));
    let probed = pick(&|u| u.probed);
    m.set(
        "sim.ns_per_instr.probed",
        ns_per_instr(&probed, |u| u.host_ms),
    );

    // Report counts: from the batch, or from the legs that expose them.
    let counted: Vec<&UnitObs> = if extras.counts_in_legs {
        extras.legs.units.iter().collect()
    } else {
        units.clone()
    };
    let counts = |f: &dyn Fn(&ReportCounts) -> u64| {
        sum(&counted, |u| u.counts.as_ref().map_or(0.0, |c| f(c) as f64))
    };
    m.set("sim.instructions", sum(&counted, |u| u.instructions as f64));
    m.set("sim.warps", counts(&|c| c.warps));
    m.set("sim.l2_misses", counts(&|c| c.l2_misses));
    m.set("sim.dram_bytes", counts(&|c| c.dram_bytes));
    let (hits, misses) = (counts(&|c| c.tlb_hits), counts(&|c| c.tlb_misses));
    m.set("mem.tlb_misses", misses);
    m.set(
        "mem.tlb_hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );

    // paradigms, core, interconnect: the units' simulated counters.
    let layer = |f: &dyn Fn(&LayerCounts) -> f64| sum(&units, |u| f(&u.layers));
    m.set("paradigms.um_faults", layer(&|c| c.um_faults));
    m.set(
        "paradigms.um_migrated_pages",
        layer(&|c| c.um_migrated_pages),
    );
    m.set("paradigms.rdl_remote_loads", layer(&|c| c.rdl_remote_loads));
    let mean = |f: &dyn Fn(&LayerCounts) -> Option<f64>| {
        let rates: Vec<f64> = units.iter().filter_map(|u| f(&u.layers)).collect();
        if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        }
    };
    m.set("core.rwq_hit_rate", mean(&|c| c.rwq_hit_rate));
    m.set("core.gps_tlb_hit_rate", mean(&|c| c.gps_tlb_hit_rate));
    m.set(
        "core.pruned_subscriptions",
        layer(&|c| c.pruned_subscriptions),
    );
    m.set("interconnect.bytes", layer(&|c| c.fabric_bytes as f64));
    m.set(
        "interconnect.transfers",
        layer(&|c| c.fabric_transfers as f64),
    );

    m.set("workloads.build_ms", build_ms);

    // obs: the probed units' telemetry.
    let obs = |f: &dyn Fn(&ObsCounts) -> f64| sum(&probed, |u| u.obs.as_ref().map_or(0.0, f));
    m.set("obs.probed_run_ms", obs(&|o| o.probed_ms));
    m.set("obs.finish_ms", obs(&|o| o.finish_ms));
    m.set("obs.export_ms", obs(&|o| o.export_ms));
    m.set("obs.overhead_ratio", extras.obs_overhead.unwrap_or(0.0));
    m.set("obs.trace_bytes", obs(&|o| o.trace_bytes as f64));
    m.set("obs.trace_events", obs(&|o| o.trace_events as f64));
}

/// Runs every workload once and returns reference digests for every unit.
/// Digests of one unit reached by two paths (store record and report,
/// pool and one worker, probed and unprobed, two workloads) must agree.
///
/// # Errors
///
/// Describes a failed unit or two paths that disagree.
pub fn generate_reference() -> Result<Reference, String> {
    let mut reference = Reference::default();
    let mut add = |key: &str, digest: &crate::digest::Digest| -> Result<(), String> {
        match reference.get(key) {
            Some(have) => match have.diff(digest).or_else(|| digest.diff(have)) {
                None => Ok(()),
                Some(d) => Err(format!("{key}: two paths disagree: {d}")),
            },
            None => {
                reference.insert(key.to_owned(), digest.clone());
                Ok(())
            }
        }
    };
    for &name in WORKLOADS {
        let mut w = make(name, Reference::default(), work_dir(name))?;
        let mut off = Tracer::new(false);
        w.cleanup();
        w.setup(0, &mut off)?;
        w.prebuild(&mut off)?;
        let batch = w.batch(&mut off)?;
        let extras = w.extras(&batch, &mut off)?;
        w.cleanup();
        // Report digests (with instruction counts) first, then the others.
        let (first, second) = if extras.counts_in_legs {
            (&extras.legs, &batch)
        } else {
            (&batch, &extras.legs)
        };
        for b in [first, second] {
            if b.units.len() as u64 != b.attempted {
                return Err(format!("{name}: a unit failed to run: {:?}", b.failures));
            }
            for u in &b.units {
                add(&u.key, &u.digest)?;
            }
        }
    }
    Ok(reference)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_traced_run_sets_every_per_layer_metric() {
        let mut m = Metrics::new(Section::PerLayer).unwrap();
        layer_metrics(&mut m, &Batch::default(), &Extras::default(), 0.0);
        let mut t = Tracer::new(true);
        t.span("bench", "root", None, |t| {
            t.span("sim", "run", None, |_| ())
        });
        span_metrics(&mut m, t.spans(), 0.0);
        m.set("fail_ratio", 0.0);
        let json = m.to_json().expect("every per-layer metric is set");
        let root = json
            .get("bench.root_ms")
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64);
        let parts: f64 = LAYERS
            .iter()
            .filter_map(|l| json.get(&format!("{l}.self_ms"))?.get("value")?.as_f64())
            .sum();
        assert!((parts - root.unwrap()).abs() < 1e-9);
    }
}
