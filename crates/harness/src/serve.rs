//! Serving runs through the harness: key, store record, execution, and
//! the streaming `--telemetry` lane.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gps_obs::{names, ChromeTraceSink, JsonlSink, ProbeHandle, Sink, Telemetry, Track};
use gps_serve::{serve, serve_probed, ServeConfig, ServeReport};
use gps_sim::MemoryPressure;

use crate::key::serve_key;
use crate::store::{ResultStore, RunRecord, RunStatus};
use crate::telemetry::validate_chrome_trace;

/// Maps a serving report onto the result store's record shape: the mix
/// joins into the `app` column (`jacobi+pagerank`), `total_cycles` carries
/// the makespan, `steady_cycles` the median job latency, and the serving
/// rates land in `metrics`. Interconnect totals stay zero — per-job
/// traffic is already aggregated inside the service-time oracle's runs.
pub fn serve_record(config: &ServeConfig, report: &ServeReport, wall_ms: f64) -> RunRecord {
    RunRecord {
        key: serve_key(config),
        app: config.mix.join("+"),
        paradigm: report.paradigm.clone(),
        gpus: config.gpus as u64,
        link: report.link.clone(),
        scale: report.scale.clone(),
        topology: "switch".to_owned(),
        parallel: 0,
        pressure: MemoryPressure::NONE,
        status: RunStatus::Ok,
        attempts: 1,
        wall_ms,
        steady_cycles: report.p50() as f64,
        total_cycles: report.makespan.as_u64(),
        interconnect_bytes: 0,
        interconnect_transfers: 0,
        metrics: vec![
            ("qps".to_owned(), report.qps()),
            ("utilization".to_owned(), report.utilization()),
            ("p50_cycles".to_owned(), report.p50() as f64),
            ("p95_cycles".to_owned(), report.p95() as f64),
            ("p99_cycles".to_owned(), report.p99() as f64),
            ("jobs".to_owned(), report.jobs as f64),
            ("slots".to_owned(), f64::from(report.slots)),
            (
                "peak_queue_depth".to_owned(),
                report.peak_queue_depth as f64,
            ),
        ],
        error: None,
    }
}

/// Runs one serving simulation and appends its record to the store at
/// `store_path` (creating the store and its parent directory as needed).
///
/// Serving runs always execute — there is no resume-skip here. The
/// content-addressed key still matters: `gps-run report` rows from
/// repeated identical configs dedup to the latest record, and any config
/// change gets a fresh key.
///
/// # Errors
///
/// Returns a description if the configuration is invalid or the store
/// cannot be written.
pub fn run_serve(
    config: &ServeConfig,
    store_path: &Path,
) -> Result<(ServeReport, RunRecord), String> {
    let started = Instant::now();
    let report = serve(config)?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let record = serve_record(config, &report, wall_ms);
    append_serve_record(store_path, &record)?;
    Ok((report, record))
}

/// Appends `record` to the store at `store_path`, creating the store and
/// its parent directory as needed.
fn append_serve_record(store_path: &Path, record: &RunRecord) -> Result<(), String> {
    if let Some(parent) = store_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
    }
    let mut store = ResultStore::open_append(store_path)
        .map_err(|e| format!("open {}: {e}", store_path.display()))?;
    store
        .append(record)
        .map_err(|e| format!("append {}: {e}", store_path.display()))?;
    Ok(())
}

/// Where [`run_serve_telemetry`] put the artifacts of one serving run.
#[derive(Debug, Clone)]
pub struct ServeTelemetryPaths {
    /// One JSON line per probe emission plus a closing summary line —
    /// byte-identical across same-seed runs (the CI determinism diff).
    pub metrics: PathBuf,
    /// Chrome trace-event JSON streamed during the run
    /// (`chrome://tracing`, Perfetto).
    pub trace: PathBuf,
    /// Human-readable per-tenant sojourn summary.
    pub summary: PathBuf,
}

/// Renders the per-tenant sojourn summary written next to the streamed
/// artifacts: one line per tenant lane with exact count/mean/min/max and
/// the histogram's bucketed p50/p95/p99 upper bounds, plus the span-ring
/// overflow count. All inputs are integers, so the text is byte-identical
/// for identical runs.
pub fn serve_telemetry_summary(report: &ServeReport, telemetry: &Telemetry) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "serve {} [{}] on {}x{} {}: {} jobs over {} slots ({})",
        report.paradigm,
        report.mix.join("+"),
        report.gpus,
        report.scale,
        report.link,
        report.jobs,
        report.slots,
        report.mode,
    );
    let _ = writeln!(
        out,
        "makespan {} cycles  peak queue {}  dropped_spans {}",
        report.makespan.as_u64(),
        report.peak_queue_depth,
        telemetry.dropped_spans,
    );
    let _ = writeln!(
        out,
        "tenant sojourn cycles (histogram p* are bucket upper bounds):"
    );
    for (idx, (app, _)) in report.per_app_jobs.iter().enumerate() {
        let lane = Track::tenant(idx);
        let Some(h) = telemetry.hist(lane, names::SERVE_SOJOURN_CYCLES) else {
            continue;
        };
        let _ = writeln!(
            out,
            "  {:<8} {:<12} jobs {:>6}  mean {:>12}  p50 <= {:>12}  p95 <= {:>12}  p99 <= {:>12}  min {:>12}  max {:>12}",
            lane.label(),
            app,
            h.count(),
            h.mean(),
            h.percentile(50),
            h.percentile(95),
            h.percentile(99),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0),
        );
    }
    out
}

/// [`run_serve`] with the streaming telemetry lane attached: the serve
/// loop runs once with a probe that both records in memory and streams to
/// two sinks, writing `<key>.metrics.jsonl` and `<key>.trace.json` into
/// `telemetry_dir` incrementally, then `<key>.summary.txt` from the
/// in-memory recording. The report — and the store record appended — is
/// bit-identical to an unprobed [`run_serve`] of the same config, and the
/// two streamed files are byte-identical across same-seed runs.
///
/// # Errors
///
/// Returns a description if the configuration is invalid, any artifact
/// cannot be written, or the streamed trace fails validation.
pub fn run_serve_telemetry(
    config: &ServeConfig,
    store_path: &Path,
    telemetry_dir: &Path,
) -> Result<(ServeReport, RunRecord, ServeTelemetryPaths), String> {
    std::fs::create_dir_all(telemetry_dir)
        .map_err(|e| format!("create {}: {e}", telemetry_dir.display()))?;
    let key = serve_key(config);
    let paths = ServeTelemetryPaths {
        metrics: telemetry_dir.join(format!("{key}.metrics.jsonl")),
        trace: telemetry_dir.join(format!("{key}.trace.json")),
        summary: telemetry_dir.join(format!("{key}.summary.txt")),
    };
    let create =
        |path: &Path| File::create(path).map_err(|e| format!("create {}: {e}", path.display()));
    let sinks: Vec<Box<dyn Sink>> = vec![
        Box::new(JsonlSink::new(create(&paths.metrics)?)),
        Box::new(ChromeTraceSink::new(create(&paths.trace)?)),
    ];
    let probe = ProbeHandle::recording_with_sinks(sinks);

    let started = Instant::now();
    let report = serve_probed(config, probe.clone())?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    probe
        .close_sinks()
        .map_err(|e| format!("close telemetry sinks: {e}"))?;
    let telemetry = probe
        .finish()
        .ok_or_else(|| "recording probe yielded no recording".to_owned())?;

    std::fs::write(&paths.summary, serve_telemetry_summary(&report, &telemetry))
        .map_err(|e| format!("write {}: {e}", paths.summary.display()))?;
    let trace_text = std::fs::read_to_string(&paths.trace)
        .map_err(|e| format!("read back {}: {e}", paths.trace.display()))?;
    validate_chrome_trace(&trace_text)
        .map_err(|e| format!("streamed trace failed validation: {e}"))?;

    let record = serve_record(config, &report, wall_ms);
    append_serve_record(store_path, &record)?;
    Ok((report, record, paths))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_carries_mix_key_and_metrics() {
        let config = ServeConfig::default();
        let report = serve(&config).unwrap();
        let record = serve_record(&config, &report, 1.0);
        assert_eq!(record.key, serve_key(&config));
        assert_eq!(record.app, "jacobi+pagerank");
        assert_eq!(record.total_cycles, report.makespan.as_u64());
        assert!(record.metrics.iter().any(|(k, _)| k == "qps"));
        assert!(record.metrics.iter().any(|(k, _)| k == "p99_cycles"));
        // Round-trips through the store codec.
        let line = record.to_json();
        let back = RunRecord::from_json(&line).unwrap();
        assert_eq!(back.key, record.key);
        assert_eq!(back.metrics, record.metrics);
    }

    #[test]
    fn run_serve_appends_to_the_store() {
        let dir = std::env::temp_dir().join(format!("gps-serve-test-{}", std::process::id()));
        let path = dir.join("serve.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig::default();
        let (report, record) = run_serve(&config, &path).unwrap();
        assert_eq!(report.jobs, config.jobs);
        let (records, corrupt) = ResultStore::load_latest(&path).unwrap();
        assert_eq!(corrupt, 0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, record.key);
        // A second identical run supersedes (same key), not duplicates.
        run_serve(&config, &path).unwrap();
        let (records, _) = ResultStore::load_latest(&path).unwrap();
        assert_eq!(records.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
