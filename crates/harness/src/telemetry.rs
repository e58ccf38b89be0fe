//! Telemetry capture for harness runs: recording probes, trace-file
//! output, Chrome-trace validation and the `timeline` reconstruction.
//!
//! The simulator is deterministic and runs are content-addressed, so a
//! timeline for any stored run can be *recomputed* instead of stored:
//! [`timeline`] looks the run up by key, re-executes it with a recording
//! [`ProbeHandle`], and exports the capture. This keeps the result store
//! small (scalars only) while making full cycle-resolved traces available
//! after the fact for any run that was ever swept.

use std::io;
use std::path::{Path, PathBuf};

use gps_obs::{chrome_trace, phase_breakdown, ProbeHandle, Telemetry};
use gps_types::Json;
use gps_workloads::suite;

use crate::key::run_key_default_machine;
use crate::runner::{measure_probed, RunSpec};
use crate::store::ResultStore;

/// A recording probe (4096-cycle buckets, 64 Ki span ring) — what
/// `gps-run sweep --telemetry` and `gps-run timeline` attach to a run.
pub fn recording_probe() -> ProbeHandle {
    ProbeHandle::recording()
}

/// Where [`write_run_telemetry`] put the artifacts of one run.
#[derive(Debug, Clone)]
pub struct TelemetryPaths {
    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub trace: PathBuf,
    /// Human-readable per-phase counter breakdown.
    pub phases: PathBuf,
}

/// Writes `<key>.trace.json` and `<key>.phases.txt` into `dir`.
///
/// # Errors
///
/// Propagates filesystem errors; `dir` must already exist.
pub fn write_run_telemetry(
    dir: &Path,
    key: &str,
    telemetry: &Telemetry,
) -> io::Result<TelemetryPaths> {
    let paths = TelemetryPaths {
        trace: dir.join(format!("{key}.trace.json")),
        phases: dir.join(format!("{key}.phases.txt")),
    };
    std::fs::write(&paths.trace, chrome_trace(telemetry).emit())?;
    std::fs::write(&paths.phases, phase_breakdown(telemetry))?;
    Ok(paths)
}

/// What a parsed Chrome trace contained, per `ph` type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete events (`ph:"X"` — kernel and phase spans).
    pub complete: usize,
    /// Counter samples (`ph:"C"` — time-series buckets).
    pub counters: usize,
    /// Instants (`ph:"i"` — barriers, marks).
    pub instants: usize,
}

/// Parses `text` as Chrome trace-event JSON and checks it is well-formed:
/// an object with a `traceEvents` array whose members all carry a `ph`
/// string, containing at least one complete (`ph:"X"`) event.
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let root = Json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no traceEvents array")?;
    let mut stats = TraceStats {
        events: events.len(),
        complete: 0,
        counters: 0,
        instants: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} has no ph"))?;
        match ph {
            "X" => {
                if ev.get("dur").and_then(Json::as_f64).is_none() {
                    return Err(format!("complete event {i} has no dur"));
                }
                stats.complete += 1;
            }
            "C" => stats.counters += 1,
            "i" => stats.instants += 1,
            "M" => {}
            other => return Err(format!("event {i} has unknown ph {other:?}")),
        }
        if ph != "M" && ev.get("ts").and_then(Json::as_f64).is_none() {
            return Err(format!("event {i} has no ts"));
        }
    }
    if stats.complete == 0 {
        return Err("trace has no complete (ph:\"X\") events".to_owned());
    }
    Ok(stats)
}

/// The result of a [`timeline`] reconstruction.
#[derive(Debug)]
pub struct TimelineOutput {
    /// The full key of the run that was reconstructed.
    pub key: String,
    /// `app/paradigm/gpus/link/scale` of that run.
    pub label: String,
    /// Where the artifacts were written.
    pub paths: TelemetryPaths,
    /// Validation summary of the emitted trace.
    pub stats: TraceStats,
    /// The per-phase counter breakdown (also written to `paths.phases`).
    pub breakdown: String,
    /// Unreadable store lines skipped while looking the run up.
    pub corrupt_lines: usize,
}

/// Reconstructs the cycle-resolved timeline of a stored run: finds the
/// unique record whose key starts with `key_prefix`, re-executes it with a
/// recording probe (sound because runs are deterministic and keys are
/// content-addressed), writes the Chrome trace and phase breakdown into
/// `out_dir`, and validates the emitted trace by parsing it back.
///
/// # Errors
///
/// Returns a message if the store cannot be read, the prefix matches zero
/// or several runs, the stored labels no longer parse, the stored key does
/// not match the current machine configuration, or the artifacts cannot be
/// written.
pub fn timeline(
    store_path: &Path,
    key_prefix: &str,
    out_dir: &Path,
) -> Result<TimelineOutput, String> {
    let (records, corrupt_lines) =
        ResultStore::load_latest(store_path).map_err(|e| format!("load store: {e}"))?;
    let matches: Vec<_> = records
        .iter()
        .filter(|r| r.key.starts_with(key_prefix))
        .collect();
    let record = match matches.as_slice() {
        [] => {
            return Err(format!(
                "no run with key prefix {key_prefix:?} in {} ({} records)",
                store_path.display(),
                records.len()
            ))
        }
        [one] => *one,
        many => {
            let shown: Vec<_> = many.iter().take(4).map(|r| r.key.as_str()).collect();
            return Err(format!(
                "key prefix {key_prefix:?} is ambiguous: {} matches ({}, ...)",
                many.len(),
                shown.join(", ")
            ));
        }
    };

    let bad = |what: &str, e: String| format!("stored {what} of {}: {e}", record.key);
    let spec = RunSpec {
        paradigm: record
            .paradigm
            .parse()
            .map_err(|e: gps_types::GpsError| bad("paradigm", e.to_string()))?,
        gpus: record.gpus as usize,
        link: record
            .link
            .parse()
            .map_err(|e: gps_types::GpsError| bad("link", e.to_string()))?,
        scale: record
            .scale
            .parse()
            .map_err(|e: gps_types::GpsError| bad("scale", e.to_string()))?,
        pressure: record.pressure,
        topology: record
            .topology
            .parse()
            .map_err(|e: gps_types::GpsError| bad("topology", e.to_string()))?,
        parallel: record.parallel as usize,
    };
    let app = suite::by_name(&record.app)
        .ok_or_else(|| format!("stored app {:?} is not in the suite", record.app))?;
    // Re-deriving the key proves the re-run will reproduce the recorded
    // result; a mismatch means the machine config changed since the sweep.
    let rederived = run_key_default_machine(&record.app, spec);
    if rederived != record.key {
        return Err(format!(
            "key mismatch: store has {} but the current machine config derives {rederived} — \
             re-sweep before reconstructing timelines",
            record.key
        ));
    }

    let probe = recording_probe();
    measure_probed(&app, spec, probe.clone()).map_err(|e| format!("re-run failed: {e}"))?;
    let telemetry = probe
        .finish()
        .ok_or_else(|| "recording probe yielded no recording".to_owned())?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let paths = write_run_telemetry(out_dir, &record.key, &telemetry)
        .map_err(|e| format!("write telemetry: {e}"))?;
    let text = std::fs::read_to_string(&paths.trace)
        .map_err(|e| format!("read back {}: {e}", paths.trace.display()))?;
    let stats = validate_chrome_trace(&text)
        .map_err(|e| format!("emitted trace failed validation: {e}"))?;

    Ok(TimelineOutput {
        key: record.key.clone(),
        label: format!(
            "{}/{}/{}gpu/{}/{}",
            record.app, record.paradigm, record.gpus, record.link, record.scale
        ),
        paths,
        stats,
        breakdown: phase_breakdown(&telemetry),
        corrupt_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        // Structurally valid but empty of complete events.
        assert!(validate_chrome_trace(r#"{"traceEvents":[]}"#).is_err());
        let only_counter = r#"{"traceEvents":[{"ph":"C","ts":1,"args":{"x":1}}]}"#;
        assert!(validate_chrome_trace(only_counter).is_err());
    }

    #[test]
    fn validate_accepts_a_minimal_trace() {
        let text = r#"{"traceEvents":[
            {"ph":"M","pid":0,"name":"process_name"},
            {"ph":"X","ts":0.0,"dur":1.5,"name":"k","pid":1,"tid":0},
            {"ph":"i","ts":2.0,"name":"barrier","pid":0,"tid":0},
            {"ph":"C","ts":0.0,"name":"bytes","pid":1,"args":{"bytes":64}}
        ]}"#;
        let stats = validate_chrome_trace(text).unwrap();
        assert_eq!(
            stats,
            TraceStats {
                events: 4,
                complete: 1,
                counters: 1,
                instants: 1,
            }
        );
    }
}
