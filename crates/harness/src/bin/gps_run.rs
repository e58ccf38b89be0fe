//! `gps-run` — the sweep CLI of the GPS experiment harness.
//!
//! ```text
//! gps-run sweep    [flags]     expand a sweep, skip completed runs, execute the rest
//! gps-run resume   [flags]     alias of sweep that refuses --fresh (resume-only)
//! gps-run serve    [flags]     multi-tenant serving simulation (QPS + tail latency)
//! gps-run report   [flags]     print the result store as a table or CSV
//! gps-run timeline <run-key>   reconstruct a run's cycle-resolved Chrome trace
//! gps-run gc       [flags]     compact the store to the latest record per key
//! gps-run lint     [flags]     run the determinism & panic-hygiene analyzer
//! ```
//!
//! Run `gps-run help` for the flag reference.

use std::path::PathBuf;
use std::process::ExitCode;

use gps_harness::store::{ResultStore, RunStatus};
use gps_harness::sweep::{run_sweep, SweepOptions, SweepSpec};
use gps_interconnect::{LinkGen, Topology};
use gps_paradigms::Paradigm;
use gps_serve::{ArrivalModel, ServeConfig};
use gps_sim::{MemoryPressure, VictimPolicy};
use gps_types::CYCLES_PER_SECOND;
use gps_workloads::{suite, ScaleProfile};

const USAGE: &str = "\
gps-run — resumable parallel sweeps over the GPS evaluation space

USAGE:
    gps-run <sweep|resume|serve|report|timeline|gc|lint|help> [flags]

SWEEP / RESUME FLAGS:
    --store <path>        result store (JSON lines), default results/store.jsonl
    --apps <a,b,..|all>   applications, default all
    --paradigms <p,..|figure8|all>
                          paradigms, default figure8
    --gpus <n,..>         GPU counts, default 4
    --links <l,..|pcie>   interconnects, default pcie3 (pcie = the PCIe sweep)
    --scales <s,..>       problem scales (tiny|small|paper), default tiny
    --paper               shorthand for the full paper suite
                          (all apps, figure8, 4+16 GPUs, PCIe sweep, paper scale)
    --superpod            shorthand for the superpod scaling study (all apps,
                          figure8, 32+64 GPUs, nvlink3, nvswitch + pcietree
                          fabrics, small scale, 8 lane threads)
    --workers <n>         worker threads, default = host parallelism
    --retries <n>         extra attempts before quarantine, default 1
    --max-jobs <n>        stop after launching n jobs (interrupt simulation)
    --inject-panic <app>  make runs of <app> panic (quarantine testing);
                          may be repeated
    --fresh               delete the store first (sweep only)
    --quiet               suppress per-run progress output
    --telemetry <dir>     record cycle-resolved telemetry per executed run and
                          write <key>.trace.json + <key>.phases.txt into <dir>
    --oversubscribe <r,..>
                          memory-pressure ratios (subscription demand over
                          per-GPU capacity, e.g. 1.5); each ratio is one sweep
                          point, ratios <= 1.0 behave like no pressure
    --victim-policy <lru|random>
                          eviction victim policy under pressure, default lru
    --topologies <t,..|all>
                          fabric topologies (switch|ring|nvswitch|pcietree),
                          default switch; each topology is one sweep point
    --parallel <n>        run every unit on per-GPU lanes drained by n threads
                          in total where the paradigm allows it (n >= 1;
                          omit the flag for the reference lane that owns
                          every GPU, the default); thread counts beyond 1
                          change wall-clock only, results and run keys are
                          thread-invariant

SERVE FLAGS:
    simulates a stream of jobs from an application mix sharing one machine
    (tenants split TLB ways, link bandwidth, RWQ entries and — under the
    oversubscribing paradigm — frame capacity); reports sustained QPS,
    utilization and p50/p95/p99 job latency, bit-identical per seed
    --mix <a,b,..>        application mix (round-robin), default jacobi,pagerank
    --paradigm <p>        memory paradigm, default gps
    --gpus <n>            GPUs in the shared machine, default 4
    --link <l>            interconnect generation, default pcie3
    --scale <s>           problem scale, default tiny
    --seed <n>            arrival-process seed, default 42
    --mode <open|closed>  arrival model, default closed
    --concurrency <n>     closed mode: jobs kept in flight, default = mix size
    --arrival-rate <r>    open mode: offered jobs/second, default 200
    --jobs <n>            total jobs to submit, default 16
    --slots <n>           tenant slots, default = concurrency (or mix size)
    --store <path>        result store, default results/serve.jsonl
    --json                emit the full JSON report on stdout
    --telemetry <dir>     stream per-event telemetry during the run:
                          <key>.metrics.jsonl (one JSON line per probe
                          emission; byte-identical per seed),
                          <key>.trace.json (Chrome trace / Perfetto) and
                          <key>.summary.txt (per-tenant sojourn histograms)

REPORT FLAGS:
    --store <path>        result store to read
    --csv                 emit CSV instead of an aligned table
    --html <path>         write a self-contained HTML report (inline SVG
                          slowdown grids + QPS-vs-latency curves; serving
                          rows come from the serve lane's store)

TIMELINE (gps-run timeline <run-key> [flags]):
    re-runs the stored run (deterministic, content-addressed) with probes on
    and exports a Chrome trace; <run-key> may be a unique key prefix
    --store <path>        result store to look the key up in
    --out <dir>           output directory, default results/telemetry

GC FLAGS:
    --store <path>        store to compact (latest record per key, sorted)

LINT FLAGS:
    runs gps-lint (see crates/lint): determinism, panic-hygiene,
    probe-coverage and call-graph reachability rules over every .rs
    file, scoped by lint.toml; exit 1 on unwaivered findings, exit 2 on
    I/O or configuration errors
    --root <dir>          workspace root to scan, default .
    --config <path>       lint configuration, default <root>/lint.toml
    --json                machine-readable output (the CI gate)
    --stats               per-pass wall time and finding counts (text only)
";

struct ParsedArgs {
    store: PathBuf,
    spec: SweepSpec,
    opts: SweepOptions,
    fresh: bool,
    csv: bool,
    html: Option<PathBuf>,
}

/// A rejected sweep/report command line. Typed (rather than ad-hoc strings)
/// so each rejection class renders one canonical message and the CLI
/// integration tests can pin them.
#[derive(Debug, PartialEq, Eq)]
enum ArgError {
    /// A flag that takes a value appeared last on the line.
    MissingValue { flag: String },
    /// A flag the command does not know.
    UnknownFlag { flag: String },
    /// A list flag whose value dissolved to nothing (`--apps ""`, `--gpus ,`).
    EmptyList { flag: &'static str },
    /// A sweep-shaping flag given twice — the first value would be silently
    /// discarded, so the contradiction is refused instead.
    Duplicate { flag: String },
    /// A suite preset (`--paper`/`--superpod`) combined with another
    /// sweep-shaping flag; presets fix the whole cross product.
    PresetConflict { preset: String, other: String },
    /// `--gpus` listed a zero GPU count.
    ZeroGpus,
    /// `--gpus` listed a count beyond the 16-bit GPU id space.
    TooManyGpus { count: usize },
    /// `--parallel 0`: the reference lane (one lane owning every GPU) is
    /// selected by omitting the flag, not by a zero worker count.
    ZeroParallel,
    /// `resume --fresh`: resume exists to keep the store.
    FreshOnResume,
    /// Anything else (unparsable numbers, unknown labels), with the
    /// offending flag baked into the message.
    Invalid { message: String },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            ArgError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
            ArgError::EmptyList { flag } => write!(f, "{flag} needs at least one value"),
            ArgError::Duplicate { flag } => {
                write!(f, "{flag} given twice; pass one comma-separated list")
            }
            ArgError::PresetConflict { preset, other } => {
                write!(
                    f,
                    "{preset} cannot be combined with {other}: a preset fixes the whole sweep"
                )
            }
            ArgError::ZeroGpus => write!(f, "--gpus: a GPU count must be at least 1"),
            ArgError::TooManyGpus { count } => {
                write!(f, "--gpus: {count} GPUs exceed the maximum of {}", u16::MAX)
            }
            ArgError::ZeroParallel => write!(
                f,
                "--parallel: worker count must be at least 1 (omit the flag for the reference lane)"
            ),
            ArgError::FreshOnResume => write!(f, "resume cannot take --fresh (use sweep)"),
            ArgError::Invalid { message } => write!(f, "{message}"),
        }
    }
}

fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// The flags that shape the sweep cross product. Repeating one of these, or
/// mixing one with a suite preset, is a contradiction the parser refuses
/// (`--inject-panic` is deliberately repeatable and not listed).
const SPEC_FLAGS: &[&str] = &[
    "--apps",
    "--paradigms",
    "--gpus",
    "--links",
    "--scales",
    "--topologies",
    "--parallel",
    "--oversubscribe",
    "--victim-policy",
    "--paper",
    "--superpod",
];

fn parse_args(args: &[String], is_resume: bool) -> Result<ParsedArgs, ArgError> {
    let mut parsed = ParsedArgs {
        store: PathBuf::from("results/store.jsonl"),
        spec: SweepSpec::smoke(),
        opts: SweepOptions {
            log: true,
            ..SweepOptions::default()
        },
        fresh: false,
        csv: false,
        html: None,
    };
    let mut ratios: Vec<f64> = Vec::new();
    let mut victim: Option<VictimPolicy> = None;
    let invalid = |message: String| ArgError::Invalid { message };

    let mut preset: Option<String> = None;
    let mut spec_flags_seen: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // Contradiction checks for the sweep-shaping flags: no repeats, and
        // no mixing with a preset in either order (a preset replaces the
        // whole spec, so the other flag's value would be silently lost).
        if SPEC_FLAGS.contains(&flag.as_str()) {
            let is_preset = flag == "--paper" || flag == "--superpod";
            if let Some(preset) = &preset {
                if flag == preset {
                    return Err(ArgError::Duplicate { flag: flag.clone() });
                }
                return Err(ArgError::PresetConflict {
                    preset: preset.clone(),
                    other: flag.clone(),
                });
            }
            if is_preset {
                if let Some(other) = spec_flags_seen.first() {
                    return Err(ArgError::PresetConflict {
                        preset: flag.clone(),
                        other: other.clone(),
                    });
                }
                preset = Some(flag.clone());
            }
            if spec_flags_seen.contains(flag) {
                return Err(ArgError::Duplicate { flag: flag.clone() });
            }
            spec_flags_seen.push(flag.clone());
        }
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| ArgError::MissingValue { flag: flag.clone() })
        };
        match flag.as_str() {
            "--store" => parsed.store = PathBuf::from(value()?),
            "--apps" => {
                let v = value()?;
                parsed.spec.apps = if v == "all" {
                    suite::all().iter().map(|a| a.name.to_owned()).collect()
                } else {
                    split_list(v).map(str::to_owned).collect()
                };
                if parsed.spec.apps.is_empty() {
                    return Err(ArgError::EmptyList { flag: "--apps" });
                }
            }
            "--paradigms" => {
                let v = value()?;
                parsed.spec.paradigms = match v {
                    "figure8" => Paradigm::FIGURE8.to_vec(),
                    // Figure 8's bar order, then the rest in declaration
                    // order, so sweep and store order stay put.
                    "all" => Paradigm::FIGURE8
                        .into_iter()
                        .chain(
                            Paradigm::ALL
                                .into_iter()
                                .filter(|p| !Paradigm::FIGURE8.contains(p)),
                        )
                        .collect(),
                    list => split_list(list)
                        .map(|s| s.parse::<Paradigm>().map_err(|e| invalid(e.to_string())))
                        .collect::<Result<_, _>>()?,
                };
                if parsed.spec.paradigms.is_empty() {
                    return Err(ArgError::EmptyList {
                        flag: "--paradigms",
                    });
                }
            }
            "--gpus" => {
                parsed.spec.gpu_counts = split_list(value()?)
                    .map(|s| {
                        s.parse::<usize>()
                            .map_err(|e| invalid(format!("--gpus: {e}")))
                    })
                    .collect::<Result<_, _>>()?;
                if parsed.spec.gpu_counts.is_empty() {
                    return Err(ArgError::EmptyList { flag: "--gpus" });
                }
                if parsed.spec.gpu_counts.contains(&0) {
                    return Err(ArgError::ZeroGpus);
                }
                let max = usize::from(u16::MAX);
                if let Some(&count) = parsed.spec.gpu_counts.iter().find(|&&c| c > max) {
                    return Err(ArgError::TooManyGpus { count });
                }
            }
            "--links" => {
                let v = value()?;
                parsed.spec.links = if v == "pcie" {
                    LinkGen::PCIE_SWEEP.to_vec()
                } else {
                    split_list(v)
                        .map(|s| s.parse::<LinkGen>().map_err(|e| invalid(e.to_string())))
                        .collect::<Result<_, _>>()?
                };
                if parsed.spec.links.is_empty() {
                    return Err(ArgError::EmptyList { flag: "--links" });
                }
            }
            "--scales" => {
                parsed.spec.scales = split_list(value()?)
                    .map(|s| {
                        s.parse::<ScaleProfile>()
                            .map_err(|e| invalid(e.to_string()))
                    })
                    .collect::<Result<_, _>>()?;
                if parsed.spec.scales.is_empty() {
                    return Err(ArgError::EmptyList { flag: "--scales" });
                }
            }
            "--paper" => parsed.spec = SweepSpec::paper_suite(),
            "--superpod" => parsed.spec = SweepSpec::superpod(),
            "--workers" => {
                parsed.opts.workers = value()?
                    .parse()
                    .map_err(|e| invalid(format!("--workers: {e}")))?;
            }
            "--retries" => {
                parsed.opts.retries = value()?
                    .parse()
                    .map_err(|e| invalid(format!("--retries: {e}")))?;
            }
            "--max-jobs" => {
                parsed.opts.max_jobs = Some(
                    value()?
                        .parse()
                        .map_err(|e| invalid(format!("--max-jobs: {e}")))?,
                );
            }
            "--inject-panic" => parsed.opts.inject_panic.push(value()?.to_owned()),
            "--telemetry" => parsed.opts.telemetry_dir = Some(PathBuf::from(value()?)),
            "--oversubscribe" => {
                ratios = split_list(value()?)
                    .map(|s| {
                        s.parse::<f64>()
                            .map_err(|e| invalid(format!("--oversubscribe: {e}")))
                            .and_then(|r| {
                                if r.is_finite() && r > 0.0 {
                                    Ok(r)
                                } else {
                                    Err(invalid(format!(
                                        "--oversubscribe: ratio {s:?} must be > 0"
                                    )))
                                }
                            })
                    })
                    .collect::<Result<_, _>>()?;
                if ratios.is_empty() {
                    return Err(ArgError::EmptyList {
                        flag: "--oversubscribe",
                    });
                }
            }
            "--victim-policy" => {
                victim = Some(
                    value()?
                        .parse::<VictimPolicy>()
                        .map_err(|e| invalid(e.to_string()))?,
                );
            }
            "--topologies" => {
                let v = value()?;
                parsed.spec.topologies = if v == "all" {
                    Topology::ALL.to_vec()
                } else {
                    split_list(v)
                        .map(|s| s.parse::<Topology>().map_err(|e| invalid(e.to_string())))
                        .collect::<Result<_, _>>()?
                };
                if parsed.spec.topologies.is_empty() {
                    return Err(ArgError::EmptyList {
                        flag: "--topologies",
                    });
                }
            }
            "--parallel" => {
                parsed.spec.parallel = value()?
                    .parse()
                    .map_err(|e| invalid(format!("--parallel: {e}")))?;
                if parsed.spec.parallel == 0 {
                    return Err(ArgError::ZeroParallel);
                }
            }
            "--fresh" => {
                if is_resume {
                    return Err(ArgError::FreshOnResume);
                }
                parsed.fresh = true;
            }
            "--quiet" => parsed.opts.log = false,
            "--csv" => parsed.csv = true,
            "--html" => parsed.html = Some(PathBuf::from(value()?)),
            other => {
                return Err(ArgError::UnknownFlag {
                    flag: other.to_owned(),
                })
            }
        }
    }
    if !ratios.is_empty() || victim.is_some() {
        let victim = victim.unwrap_or_default();
        let ratios = if ratios.is_empty() { vec![1.0] } else { ratios };
        parsed.spec.pressures = ratios
            .iter()
            .map(|&r| MemoryPressure::from_ratio(r).with_victim_policy(victim))
            .collect();
    }
    Ok(parsed)
}

fn cmd_sweep(args: &[String], is_resume: bool) -> Result<(), String> {
    let parsed = parse_args(args, is_resume).map_err(|e| e.to_string())?;
    if parsed.fresh && parsed.store.exists() {
        std::fs::remove_file(&parsed.store).map_err(|e| format!("--fresh: {e}"))?;
    }
    let outcome = run_sweep(&parsed.spec, &parsed.store, &parsed.opts)
        .map_err(|e| format!("sweep failed: {e}"))?;
    println!(
        "executed {} (skipped {} cached, {} pending), quarantined {}, store {} ({} records{})",
        outcome.executed,
        outcome.skipped,
        outcome.pending,
        outcome.quarantined,
        parsed.store.display(),
        outcome.records.len(),
        match (outcome.corrupt_lines, outcome.migrated) {
            (0, 0) => String::new(),
            (c, 0) => format!(", {c} torn lines dropped"),
            (0, m) => format!(", {m} stale keys migrated"),
            (c, m) => format!(", {c} torn lines dropped, {m} stale keys migrated"),
        },
    );
    let quarantined: Vec<_> = outcome
        .records
        .iter()
        .filter(|r| r.status == RunStatus::Quarantined)
        .collect();
    if !quarantined.is_empty() {
        println!("quarantined runs:");
        for r in &quarantined {
            println!(
                "  {} {}/{}/{}gpu/{}/{} after {} attempts: {}",
                r.key,
                r.app,
                r.paradigm,
                r.gpus,
                r.link,
                r.scale,
                r.attempts,
                r.error.as_deref().unwrap_or("?"),
            );
        }
        return Err(format!("{} runs quarantined", quarantined.len()));
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut store = PathBuf::from("results/serve.jsonl");
    let mut json = false;
    let mut telemetry_dir: Option<PathBuf> = None;
    let mut mode: Option<String> = None;
    let mut concurrency: Option<u32> = None;
    let mut slots: Option<u32> = None;
    let mut arrival_rate: Option<f64> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--mix" => config.mix = split_list(value()?).map(str::to_owned).collect(),
            "--paradigm" => {
                config.paradigm = value()?.parse::<Paradigm>().map_err(|e| e.to_string())?;
            }
            "--gpus" => config.gpus = value()?.parse().map_err(|e| format!("--gpus: {e}"))?,
            "--link" => config.link = value()?.parse::<LinkGen>().map_err(|e| e.to_string())?,
            "--scale" => {
                config.scale = value()?
                    .parse::<ScaleProfile>()
                    .map_err(|e| e.to_string())?;
            }
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--mode" => mode = Some(value()?.to_owned()),
            "--concurrency" => {
                concurrency = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--concurrency: {e}"))?,
                );
            }
            "--arrival-rate" => {
                let rate: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--arrival-rate: {e}"))?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("--arrival-rate must be a positive jobs/second".to_owned());
                }
                arrival_rate = Some(rate);
            }
            "--jobs" => config.jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            "--slots" => slots = Some(value()?.parse().map_err(|e| format!("--slots: {e}"))?),
            "--store" => store = PathBuf::from(value()?),
            "--json" => json = true,
            "--telemetry" => telemetry_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let default_width = config.mix.len().max(1) as u32;
    let concurrency = concurrency.unwrap_or(default_width);
    config.slots = slots.unwrap_or(concurrency);
    config.arrival = match mode.as_deref().unwrap_or("closed") {
        "closed" => {
            if arrival_rate.is_some() {
                return Err("--arrival-rate only applies to --mode open".to_owned());
            }
            ArrivalModel::Closed { concurrency }
        }
        "open" => {
            let rate = arrival_rate.unwrap_or(200.0);
            let mean = (CYCLES_PER_SECOND as f64 / rate).round();
            ArrivalModel::Open {
                mean_interarrival: (mean as u64).max(1),
            }
        }
        other => return Err(format!("--mode must be open or closed, got {other:?}")),
    };

    let (report, record, paths) = match &telemetry_dir {
        Some(dir) => {
            let (report, record, paths) = gps_harness::run_serve_telemetry(&config, &store, dir)?;
            (report, record, Some(paths))
        }
        None => {
            let (report, record) = gps_harness::run_serve(&config, &store)?;
            (report, record, None)
        }
    };
    if json {
        println!("{}", report.to_json().emit());
    } else {
        println!(
            "serve {} [{}] on {}x{} {}: {} jobs over {} slots ({})",
            report.paradigm,
            record.app,
            report.gpus,
            report.scale,
            report.link,
            report.jobs,
            report.slots,
            report.mode,
        );
        println!(
            "  qps {:.1}  utilization {:.1}%  makespan {:.3} ms",
            report.qps(),
            report.utilization() * 100.0,
            report.makespan.as_u64() as f64 / 1e6,
        );
        println!(
            "  latency p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  peak queue {}",
            report.p50() as f64 / 1e6,
            report.p95() as f64 / 1e6,
            report.p99() as f64 / 1e6,
            report.peak_queue_depth,
        );
        println!("  recorded {} -> {}", record.key, store.display());
        if let Some(paths) = &paths {
            println!("  metrics {}", paths.metrics.display());
            println!("  trace   {}", paths.trace.display());
            println!("  summary {}", paths.summary.display());
        }
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    use std::fmt::Write as _;

    let parsed = parse_args(args, false).map_err(|e| e.to_string())?;
    if let Some(out) = &parsed.html {
        let charts = gps_harness::write_html_report(&parsed.store, out)?;
        println!("wrote {} ({charts} charts)", out.display());
        return Ok(());
    }
    let (mut records, corrupt) =
        ResultStore::load_latest(&parsed.store).map_err(|e| format!("load: {e}"))?;
    records.sort_by(|a, b| {
        (&a.app, &a.scale, a.gpus, &a.link, &a.paradigm).cmp(&(
            &b.app,
            &b.scale,
            b.gpus,
            &b.link,
            &b.paradigm,
        ))
    });
    let mut out = String::new();
    if parsed.csv {
        out.push_str(
            "key,app,paradigm,gpus,link,scale,status,attempts,wall_ms,steady_cycles,total_cycles,interconnect_bytes,interconnect_transfers\n",
        );
        for r in &records {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{:.3},{},{},{},{}",
                r.key,
                r.app,
                r.paradigm,
                r.gpus,
                r.link,
                r.scale,
                r.status.as_str(),
                r.attempts,
                r.wall_ms,
                r.steady_cycles,
                r.total_cycles,
                r.interconnect_bytes,
                r.interconnect_transfers,
            );
        }
    } else {
        let _ = writeln!(
            out,
            "{:<10} {:<12} {:>4} {:<8} {:<6} {:<11} {:>14} {:>16} {:>9}",
            "app",
            "paradigm",
            "gpus",
            "link",
            "scale",
            "status",
            "steady_cyc",
            "link_bytes",
            "wall_ms"
        );
        for r in &records {
            let _ = writeln!(
                out,
                "{:<10} {:<12} {:>4} {:<8} {:<6} {:<11} {:>14.1} {:>16} {:>9.1}",
                r.app,
                r.paradigm,
                r.gpus,
                r.link,
                r.scale,
                r.status.as_str(),
                r.steady_cycles,
                r.interconnect_bytes,
                r.wall_ms,
            );
        }
        let _ = writeln!(
            out,
            "{} records ({} quarantined{})",
            records.len(),
            records
                .iter()
                .filter(|r| r.status == RunStatus::Quarantined)
                .count(),
            if corrupt > 0 {
                format!(", {corrupt} torn lines dropped")
            } else {
                String::new()
            },
        );
    }
    // One buffered write; a closed pipe (report | head) is not an error.
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(out.as_bytes());
    Ok(())
}

fn cmd_timeline(args: &[String]) -> Result<(), String> {
    let mut store = PathBuf::from("results/store.jsonl");
    let mut out = PathBuf::from("results/telemetry");
    let mut key: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        match arg.as_str() {
            "--store" => store = PathBuf::from(value()?),
            "--out" => out = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            k if key.is_none() => key = Some(k.to_owned()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let key = key.ok_or("timeline requires a run key (or unique key prefix)")?;
    let tl = gps_harness::timeline(&store, &key, &out)?;
    println!("reconstructed {} ({})", tl.key, tl.label);
    println!(
        "trace   {} ({} events: {} spans, {} counter samples, {} instants)",
        tl.paths.trace.display(),
        tl.stats.events,
        tl.stats.complete,
        tl.stats.counters,
        tl.stats.instants,
    );
    println!("phases  {}", tl.paths.phases.display());
    print!("{}", tl.breakdown);
    Ok(())
}

fn cmd_gc(args: &[String]) -> Result<(), String> {
    let mut store = PathBuf::from("results/store.jsonl");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store" => {
                store = PathBuf::from(it.next().ok_or("--store requires a value")?);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let (kept, dropped) = ResultStore::compact(&store).map_err(|e| format!("compact: {e}"))?;
    println!(
        "compacted {}: kept {kept} records, dropped {dropped} superseded lines",
        store.display()
    );
    Ok(())
}

/// `gps-run lint`: the source analyzer, wired into the main CLI so a
/// checkout needs only one binary. Returns the number of findings; the
/// caller maps a non-zero count to exit 1 and an `Err` (I/O, config) to
/// exit 2, so CI can tell a dirty tree from a broken setup.
fn cmd_lint(args: &[String]) -> Result<usize, String> {
    let mut root = PathBuf::from(".");
    let mut config: Option<PathBuf> = None;
    let mut json = false;
    let mut stats = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => root = PathBuf::from(it.next().ok_or("--root requires a value")?),
            "--config" => {
                config = Some(PathBuf::from(it.next().ok_or("--config requires a value")?));
            }
            "--json" => json = true,
            "--stats" => stats = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let config = config.unwrap_or_else(|| root.join("lint.toml"));
    let report = gps_lint::lint_with_config_file(&root, &config)?;
    if json {
        println!("{}", report.to_json());
        if stats {
            // Keep stdout pure JSON for the CI gate; timings are wall
            // time and never machine-parsed.
            eprint!("{}", report.stats_text());
        }
    } else {
        print!("{}", report.to_text());
        if stats {
            print!("{}", report.stats_text());
        }
    }
    Ok(report.findings.len())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd {
        "sweep" => cmd_sweep(rest, false),
        "resume" => cmd_sweep(rest, true),
        "serve" => cmd_serve(rest),
        "report" => cmd_report(rest),
        "timeline" => cmd_timeline(rest),
        "gc" => cmd_gc(rest),
        // Distinct exit codes: 1 = unwaivered findings (dirty tree), 2 =
        // I/O or configuration error (broken setup) — the generic Err
        // path below exits 1, which would conflate the two.
        "lint" => {
            return match cmd_lint(rest) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(findings) => {
                    eprintln!("gps-run: {findings} unwaivered finding(s)");
                    ExitCode::from(1)
                }
                Err(e) => {
                    eprintln!("gps-run: {e}");
                    ExitCode::from(2)
                }
            };
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gps-run: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Vec<String> {
        line.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn gpu_counts_beyond_16_bit_ids_are_rejected() {
        let parsed = parse_args(&args(&["--gpus", "65535"]), false).unwrap();
        assert_eq!(parsed.spec.gpu_counts, vec![65535]);
        for count in ["65536", "65537"] {
            let err = parse_args(&args(&["--gpus", &format!("4,{count}")]), false).err();
            let want = ArgError::TooManyGpus {
                count: count.parse().unwrap(),
            };
            assert_eq!(err, Some(want));
        }
    }

    #[test]
    fn paradigms_all_lists_every_paradigm_once_after_figure8() {
        let parsed = parse_args(&args(&["--paradigms", "all"]), false).unwrap();
        let all = parsed.spec.paradigms;
        assert_eq!(all[..Paradigm::FIGURE8.len()], Paradigm::FIGURE8);
        assert_eq!(all.len(), Paradigm::ALL.len());
        for p in Paradigm::ALL {
            assert_eq!(all.iter().filter(|&&q| q == p).count(), 1, "{p:?}");
        }
    }

    /// A command line that sets every sweep flag (one value each).
    const BASE: &str = "--store s.jsonl --apps jacobi,pagerank --paradigms gps,um \
        --gpus 2,4 --links pcie3 --scales tiny --topologies nvswitch --parallel 2 \
        --oversubscribe 1.5,2 --victim-policy lru --max-jobs 3 --workers 2 --retries 1 \
        --inject-panic jacobi --telemetry tel --html r.html --quiet --csv --fresh";

    /// `|`-separated tokens spliced into mutants: presets, list keywords
    /// and edge values (the empty token included).
    const POOL: &str = "--paper|--superpod|all|figure8|pcie||,|0|-1|65535|65536|\
        18446744073709551616|nan|inf|-inf|1e308|0.0|--|é";

    /// SplitMix64-driven token flips, drops, duplicates and splices of a
    /// full command line: `parse_args` must answer `Ok` or `Err` for every
    /// mutant, never panic.
    #[test]
    fn mutated_command_lines_never_panic_the_parser() {
        let base: Vec<&str> = BASE.split_whitespace().collect();
        let pool: Vec<&str> = POOL.split('|').collect();
        assert!(parse_args(&args(&base), false).is_ok());
        let mut rng = gps_types::rng::SmallRng::seed_from_u64(18);
        let (mut ok, mut err) = (0usize, 0usize);
        for _ in 0..10_000 {
            let mut line = args(&base);
            for _ in 0..=rng.gen_range(0..3) {
                let at = rng.gen_range_usize(0..line.len() + 1);
                match rng.gen_range(0..4) {
                    0 if at < line.len() => {
                        // Flip one character to a printable one.
                        let mut chars: Vec<char> = line[at].chars().collect();
                        if !chars.is_empty() {
                            let c = rng.gen_range_usize(0..chars.len());
                            chars[c] = char::from(b' ' + rng.gen_range(0..95) as u8);
                        }
                        line[at] = chars.into_iter().collect();
                    }
                    1 if at < line.len() => {
                        line.remove(at);
                    }
                    2 if at < line.len() => line.insert(at, line[at].clone()),
                    _ => {
                        let tokens = if rng.gen_bool(0.5) { &pool } else { &base };
                        let token = tokens[rng.gen_range_usize(0..tokens.len())];
                        line.insert(at, token.to_owned());
                    }
                }
            }
            match parse_args(&line, rng.gen_bool(0.5)) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
        assert!(
            ok > 0 && err > 0,
            "mutations hit both outcomes: {ok} ok, {err} err"
        );
    }
}
