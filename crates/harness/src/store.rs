//! The on-disk, JSON-lines result store.
//!
//! One line per completed run. Records are appended (and the file
//! flushed) the moment a run finishes, so a sweep killed at any point
//! loses at most the in-flight runs; a torn final line — the crash window
//! is one `write` — is detected by the parser and dropped on load, which
//! is exactly the resume semantics the sweep wants: anything not fully
//! persisted is simply re-run. The reader takes the file as bytes, so a
//! line that is not valid UTF-8 is one more corrupt line, not a failed
//! load.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use gps_sim::{MemoryPressure, VictimPolicy};

use gps_types::Json;

use crate::runner::{steady_traffic_per_iteration, Measurement};
use crate::sweep::RunUnit;

/// Schema version stamped on every record.
pub const STORE_VERSION: u32 = 1;

/// Completion status of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// The run finished and its metrics are valid.
    Ok,
    /// Every attempt panicked; the record carries the panic message and no
    /// metrics.
    Quarantined,
}

impl RunStatus {
    /// Short machine-friendly label (`ok` / `quarantined`).
    pub fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Quarantined => "quarantined",
        }
    }
}

/// One persisted run result.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Content-addressed run key ([`crate::key::run_key`]).
    pub key: String,
    /// Application name.
    pub app: String,
    /// Paradigm label (`gps`, `um`, ...).
    pub paradigm: String,
    /// GPU count.
    pub gpus: u64,
    /// Interconnect label (`pcie3`, ...).
    pub link: String,
    /// Scale label (`tiny`/`small`/`paper`).
    pub scale: String,
    /// Fabric topology label (`switch`/`ring`/`nvswitch`/`pcietree`;
    /// absent in stores written before switch-based fabrics → `switch`).
    pub topology: String,
    /// Lane-engine workers the run was executed with (0 = the reference
    /// lane; absent in older stores → 0).
    pub parallel: u64,
    /// Memory pressure the run was simulated under (absent in stores
    /// written before the oversubscription sweeps → [`MemoryPressure::NONE`]).
    pub pressure: MemoryPressure,
    /// Outcome.
    pub status: RunStatus,
    /// Attempts consumed (1 = succeeded first try).
    pub attempts: u32,
    /// Wall-clock milliseconds of the successful attempt (non-deterministic;
    /// excluded from store-equality comparisons).
    pub wall_ms: f64,
    /// Steady-state cycles per iteration.
    pub steady_cycles: f64,
    /// End-to-end simulated cycles.
    pub total_cycles: u64,
    /// Total bytes over the inter-GPU fabric.
    pub interconnect_bytes: u64,
    /// Discrete fabric transfers.
    pub interconnect_transfers: u64,
    /// Paradigm-specific metrics.
    pub metrics: Vec<(String, f64)>,
    /// Panic message for quarantined runs.
    pub error: Option<String>,
}

impl RunRecord {
    /// The record of a run that finished: `unit`'s identity, `m`'s results,
    /// and `m`'s policy metrics followed by `steady_traffic_per_iteration`.
    /// The sweep executor stores exactly this, and the figure harness builds
    /// the same record for a run it keeps in memory.
    pub fn ok(unit: &RunUnit, m: &Measurement, attempts: u32, wall_ms: f64) -> RunRecord {
        let mut metrics = m.report.policy_metrics.clone();
        metrics.push((
            "steady_traffic_per_iteration".to_owned(),
            steady_traffic_per_iteration(&m.report, m.phases_per_iteration),
        ));
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
            status: RunStatus::Ok,
            attempts,
            wall_ms,
            steady_cycles: m.steady_cycles,
            total_cycles: m.report.total_cycles.as_u64(),
            interconnect_bytes: m.report.interconnect_bytes,
            interconnect_transfers: m.report.interconnect_transfers,
            metrics,
            error: None,
        }
    }

    /// The value of the metric `name`, if the record carries it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Serialises the record as one JSON line (no newline).
    pub fn to_json(&self) -> String {
        let mut members = vec![
            ("v".to_owned(), Json::Num(STORE_VERSION as f64)),
            ("key".to_owned(), Json::Str(self.key.clone())),
            ("app".to_owned(), Json::Str(self.app.clone())),
            ("paradigm".to_owned(), Json::Str(self.paradigm.clone())),
            ("gpus".to_owned(), Json::Num(self.gpus as f64)),
            ("link".to_owned(), Json::Str(self.link.clone())),
            ("scale".to_owned(), Json::Str(self.scale.clone())),
            ("topology".to_owned(), Json::Str(self.topology.clone())),
            ("parallel".to_owned(), Json::Num(self.parallel as f64)),
            (
                "oversub_pct".to_owned(),
                Json::Num(self.pressure.oversubscription_pct as f64),
            ),
            (
                "victim".to_owned(),
                Json::Str(self.pressure.victim_policy.label().to_owned()),
            ),
            (
                "status".to_owned(),
                Json::Str(self.status.as_str().to_owned()),
            ),
            ("attempts".to_owned(), Json::Num(self.attempts as f64)),
            ("wall_ms".to_owned(), Json::Num(self.wall_ms)),
            ("steady_cycles".to_owned(), Json::Num(self.steady_cycles)),
            (
                "total_cycles".to_owned(),
                Json::Num(self.total_cycles as f64),
            ),
            (
                "interconnect_bytes".to_owned(),
                Json::Num(self.interconnect_bytes as f64),
            ),
            (
                "interconnect_transfers".to_owned(),
                Json::Num(self.interconnect_transfers as f64),
            ),
            (
                "metrics".to_owned(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ];
        if let Some(e) = &self.error {
            members.push(("error".to_owned(), Json::Str(e.clone())));
        }
        Json::Obj(members).emit()
    }

    /// Parses one stored line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem (used by the
    /// loader to drop torn trailing lines).
    pub fn from_json(line: &str) -> Result<RunRecord, String> {
        let v = Json::parse(line)?;
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field {k:?}"))
        };
        let num_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing numeric field {k:?}"))
        };
        let int_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing integer field {k:?}"))
        };
        if int_field("v")? != STORE_VERSION as u64 {
            return Err("unsupported store version".to_owned());
        }
        let status = match str_field("status")?.as_str() {
            "ok" => RunStatus::Ok,
            "quarantined" => RunStatus::Quarantined,
            other => return Err(format!("unknown status {other:?}")),
        };
        let metrics = match v.get("metrics") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|f| (k.clone(), f))
                        .ok_or_else(|| format!("non-numeric metric {k:?}"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing metrics object".to_owned()),
        };
        // Pre-oversubscription stores lack these two fields; default to
        // "no pressure" rather than rejecting the record.
        let pressure = MemoryPressure {
            oversubscription_pct: match v.get("oversub_pct") {
                Some(j) => j
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| "oversub_pct is not a u32".to_owned())?,
                None => MemoryPressure::NONE.oversubscription_pct,
            },
            victim_policy: match v.get("victim").and_then(Json::as_str) {
                Some(s) => s
                    .parse::<VictimPolicy>()
                    .map_err(|e| format!("bad victim policy: {e}"))?,
                None => VictimPolicy::default(),
            },
        };
        Ok(RunRecord {
            key: str_field("key")?,
            app: str_field("app")?,
            paradigm: str_field("paradigm")?,
            gpus: int_field("gpus")?,
            link: str_field("link")?,
            scale: str_field("scale")?,
            // Stores written before switch-based fabrics and the parallel
            // engine lack these; default to the classic configuration.
            topology: match v.get("topology").and_then(Json::as_str) {
                Some(s) => s.to_owned(),
                None => "switch".to_owned(),
            },
            parallel: match v.get("parallel") {
                Some(j) => j
                    .as_u64()
                    .ok_or_else(|| "non-integer parallel".to_owned())?,
                None => 0,
            },
            pressure,
            status,
            attempts: u32::try_from(int_field("attempts")?)
                .map_err(|_| "attempts out of range".to_owned())?,
            wall_ms: num_field("wall_ms")?,
            steady_cycles: num_field("steady_cycles")?,
            total_cycles: int_field("total_cycles")?,
            interconnect_bytes: int_field("interconnect_bytes")?,
            interconnect_transfers: int_field("interconnect_transfers")?,
            metrics,
            error: v.get("error").and_then(Json::as_str).map(str::to_owned),
        })
    }

    /// The deterministic identity of a record: everything except wall-clock
    /// time and (for quarantined runs) the panic backtrace wording, which
    /// may embed addresses. Two sweeps over the same configs must agree on
    /// this projection — the determinism tests compare it.
    pub fn deterministic_fields(&self) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            &self.key,
            &self.app,
            &self.paradigm,
            self.gpus,
            &self.link,
            &self.scale,
            &self.topology,
            self.parallel,
            self.pressure,
            self.status,
            (
                self.steady_cycles.to_bits(),
                self.total_cycles,
                self.interconnect_bytes,
                self.interconnect_transfers,
            ),
            self.metrics
                .iter()
                .map(|(k, v)| (k.as_str(), v.to_bits()))
                .collect::<Vec<_>>(),
        )
    }
}

/// An append-only JSON-lines store of [`RunRecord`]s.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl ResultStore {
    /// Opens (creating if needed) the store at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(path: impl Into<PathBuf>) -> std::io::Result<ResultStore> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(ResultStore {
            path,
            writer: BufWriter::new(file),
        })
    }

    /// The store's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record and flushes it to the OS, so a kill after this
    /// call cannot lose the record.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&mut self, record: &RunRecord) -> std::io::Result<()> {
        let mut line = record.to_json();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Loads every well-formed record from `path`; a missing file is an
    /// empty store. Torn or corrupt lines — including lines that are not
    /// valid UTF-8 — are skipped (counted in the second return value)
    /// rather than fatal: the partial-write crash window of an interrupted
    /// sweep lands here.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than "not found".
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<(Vec<RunRecord>, usize)> {
        Ok(read_store(path.as_ref())?.unwrap_or_default())
    }

    /// Loads the store and keeps only the *latest* record per key (a
    /// resumed sweep may re-run quarantined keys, appending a newer
    /// verdict).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn load_latest(path: impl AsRef<Path>) -> std::io::Result<(Vec<RunRecord>, usize)> {
        let (records, corrupt) = Self::load(path)?;
        Ok((latest_per_key(records), corrupt))
    }

    /// Compacts the store in place (`gps-run gc`): keeps only the latest
    /// record per key — superseded quarantine verdicts, re-runs and corrupt
    /// lines are dropped — sorted by key. The rewrite goes through a
    /// temporary file in the same directory followed by a rename, so a
    /// crash mid-compaction leaves the original store intact.
    ///
    /// Returns `(kept, dropped)` line counts. A missing store compacts to
    /// `(0, 0)` without creating a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn compact(path: impl AsRef<Path>) -> std::io::Result<(usize, usize)> {
        let path = path.as_ref();
        let Some((records, corrupt)) = read_store(path)? else {
            return Ok((0, 0));
        };
        let total_lines = records.len() + corrupt;
        // Already sorted by key (BTreeMap order).
        let records = latest_per_key(records);
        let tmp = path.with_extension("jsonl.compact-tmp");
        {
            let file = File::create(&tmp)?;
            let mut w = BufWriter::new(file);
            for r in &records {
                let mut line = r.to_json();
                line.push('\n');
                w.write_all(line.as_bytes())?;
            }
            w.flush()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok((records.len(), total_lines - records.len()))
    }
}

/// Reads and parses the store at `path`; `None` if it does not exist.
fn read_store(path: &Path) -> std::io::Result<Option<(Vec<RunRecord>, usize)>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(parse_lines(&bytes))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Parses store bytes line by line into the well-formed records and the
/// count of non-blank lines that are not (invalid UTF-8, bad JSON or a
/// bad record). Line endings are `\n` or `\r\n`.
fn parse_lines(bytes: &[u8]) -> (Vec<RunRecord>, usize) {
    let mut records = Vec::new();
    let mut corrupt = 0usize;
    for line in bytes.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let parsed = match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => RunRecord::from_json(text),
            Err(e) => Err(e.to_string()),
        };
        match parsed {
            Ok(r) => records.push(r),
            Err(_) => corrupt += 1,
        }
    }
    (records, corrupt)
}

/// The last record of each key, sorted by key.
fn latest_per_key(records: Vec<RunRecord>) -> Vec<RunRecord> {
    let mut by_key: BTreeMap<String, RunRecord> = BTreeMap::new();
    for r in records {
        by_key.insert(r.key.clone(), r);
    }
    by_key.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &str, status: RunStatus) -> RunRecord {
        RunRecord {
            key: key.to_owned(),
            app: "jacobi".into(),
            paradigm: "gps".into(),
            gpus: 4,
            link: "pcie3".into(),
            scale: "tiny".into(),
            topology: "switch".into(),
            parallel: 0,
            pressure: MemoryPressure::NONE,
            status,
            attempts: 1,
            wall_ms: 12.5,
            steady_cycles: 1234.5,
            total_cycles: 99999,
            interconnect_bytes: 4096,
            interconnect_transfers: 7,
            metrics: vec![("rwq_hit_rate".into(), 0.75)],
            error: match status {
                RunStatus::Ok => None,
                RunStatus::Quarantined => Some("panic: boom".into()),
            },
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "gps-store-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn record_roundtrips_through_json() {
        for status in [RunStatus::Ok, RunStatus::Quarantined] {
            let r = sample("k1", status);
            let line = r.to_json();
            assert_eq!(RunRecord::from_json(&line).unwrap(), r);
        }
    }

    #[test]
    fn pressured_record_roundtrips_and_legacy_lines_default_to_none() {
        let mut r = sample("k1", RunStatus::Ok);
        r.pressure = MemoryPressure::from_ratio(1.5).with_victim_policy(VictimPolicy::Random);
        assert_eq!(RunRecord::from_json(&r.to_json()).unwrap(), r);

        // A line written before the pressure fields existed.
        let legacy = sample("k2", RunStatus::Ok)
            .to_json()
            .replace(",\"oversub_pct\":100,\"victim\":\"lru\"", "");
        assert!(!legacy.contains("oversub_pct"), "replacement must fire");
        let parsed = RunRecord::from_json(&legacy).unwrap();
        assert_eq!(parsed.pressure, MemoryPressure::NONE);
    }

    #[test]
    fn legacy_lines_default_to_switch_topology_and_sequential_engine() {
        // A line written before switch-based fabrics / the parallel engine.
        let legacy = sample("k3", RunStatus::Ok)
            .to_json()
            .replace(",\"topology\":\"switch\",\"parallel\":0", "");
        assert!(!legacy.contains("topology"), "replacement must fire");
        let parsed = RunRecord::from_json(&legacy).unwrap();
        assert_eq!(parsed.topology, "switch");
        assert_eq!(parsed.parallel, 0);
    }

    #[test]
    fn append_then_load() {
        let path = temp_path("append");
        let mut store = ResultStore::open_append(&path).unwrap();
        store.append(&sample("a", RunStatus::Ok)).unwrap();
        store.append(&sample("b", RunStatus::Quarantined)).unwrap();
        drop(store);
        let (records, corrupt) = ResultStore::load(&path).unwrap();
        assert_eq!(corrupt, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].key, "a");
        assert_eq!(records[1].status, RunStatus::Quarantined);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_skipped() {
        let path = temp_path("torn");
        let mut store = ResultStore::open_append(&path).unwrap();
        store.append(&sample("a", RunStatus::Ok)).unwrap();
        drop(store);
        // Simulate a crash mid-write: append half a record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"key\":\"b\",\"app\":").unwrap();
        drop(f);
        let (records, corrupt) = ResultStore::load(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(corrupt, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_latest_dedups_by_key() {
        let path = temp_path("latest");
        let mut store = ResultStore::open_append(&path).unwrap();
        store.append(&sample("a", RunStatus::Quarantined)).unwrap();
        store.append(&sample("a", RunStatus::Ok)).unwrap();
        drop(store);
        let (records, _) = ResultStore::load_latest(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].status, RunStatus::Ok);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_keeps_latest_per_key_sorted() {
        let path = temp_path("compact");
        let mut store = ResultStore::open_append(&path).unwrap();
        store.append(&sample("b", RunStatus::Ok)).unwrap();
        store.append(&sample("a", RunStatus::Quarantined)).unwrap();
        store.append(&sample("a", RunStatus::Ok)).unwrap();
        drop(store);
        // Torn trailing line from a crashed sweep.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"key\":\"c\"").unwrap();
        drop(f);

        let (kept, dropped) = ResultStore::compact(&path).unwrap();
        assert_eq!((kept, dropped), (2, 2));
        let (records, corrupt) = ResultStore::load(&path).unwrap();
        assert_eq!(corrupt, 0, "compacted store has no corrupt lines");
        assert_eq!(
            records.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"],
            "sorted by key"
        );
        assert_eq!(records[0].status, RunStatus::Ok, "latest verdict wins");

        // Idempotent: a second pass drops nothing.
        assert_eq!(ResultStore::compact(&path).unwrap(), (2, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_truncation_of_a_line_is_dropped_and_counted() {
        let line = sample("a", RunStatus::Ok).to_json();
        let whole = sample("w", RunStatus::Ok).to_json();
        for cut in 1..line.len() {
            let text = format!("{whole}\n{}\n", &line[..cut]);
            let (records, corrupt) = parse_lines(text.as_bytes());
            assert_eq!((records.len(), corrupt), (1, 1), "cut at {cut}");
        }
    }

    #[test]
    fn garbled_lines_are_counted_not_fatal() {
        let path = temp_path("garbled");
        let mut store = ResultStore::open_append(&path).unwrap();
        store.append(&sample("a", RunStatus::Ok)).unwrap();
        drop(store);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        // Invalid UTF-8 inside an otherwise plausible line, then bad JSON.
        f.write_all(b"{\"v\":1,\"key\":\"\xff\xfe\"}\n").unwrap();
        f.write_all(b"not json at all\n").unwrap();
        drop(f);
        let mut store = ResultStore::open_append(&path).unwrap();
        store.append(&sample("b", RunStatus::Ok)).unwrap();
        drop(store);

        let (records, corrupt) = ResultStore::load(&path).unwrap();
        assert_eq!(corrupt, 2);
        assert_eq!(
            records.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        assert_eq!(ResultStore::compact(&path).unwrap(), (2, 2));
        assert_eq!(ResultStore::load(&path).unwrap().1, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicated_lines_load_twice_and_compact_once() {
        let line = sample("a", RunStatus::Ok).to_json();
        let text = format!("{line}\n{line}\r\n\n{line}");
        let (records, corrupt) = parse_lines(text.as_bytes());
        assert_eq!((records.len(), corrupt), (3, 0));
        assert_eq!(latest_per_key(records).len(), 1);
    }

    #[test]
    fn interleaved_writers_keep_whole_lines() {
        // Two appenders on one file: each flushes whole lines, so every
        // record survives in append order.
        let path = temp_path("interleaved");
        let mut w1 = ResultStore::open_append(&path).unwrap();
        let mut w2 = ResultStore::open_append(&path).unwrap();
        for i in 0..4 {
            w1.append(&sample(&format!("x{i}"), RunStatus::Ok)).unwrap();
            w2.append(&sample(&format!("y{i}"), RunStatus::Quarantined))
                .unwrap();
        }
        drop((w1, w2));
        let (records, corrupt) = ResultStore::load(&path).unwrap();
        assert_eq!((records.len(), corrupt), (8, 0));
        assert_eq!(records[0].key, "x0");
        assert_eq!(records[1].key, "y0");
        std::fs::remove_file(&path).ok();

        // Writers that tore each other's lines: a prefix of one record
        // spliced into another costs exactly the spliced line.
        let a = sample("a", RunStatus::Ok).to_json();
        let b = sample("b", RunStatus::Ok).to_json();
        let c = sample("c", RunStatus::Ok).to_json();
        let text = format!("{}{b}\n{c}\n", &a[..a.len() / 2]);
        let (records, corrupt) = parse_lines(text.as_bytes());
        assert_eq!(corrupt, 1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].key, "c");
    }

    #[test]
    fn out_of_range_integers_are_errors_not_truncations() {
        let line = sample("a", RunStatus::Ok).to_json();
        let big = (u64::from(u32::MAX) + 1).to_string();
        let attempts = line.replace("\"attempts\":1", &format!("\"attempts\":{big}"));
        assert_ne!(attempts, line, "replacement must fire");
        assert!(RunRecord::from_json(&attempts)
            .unwrap_err()
            .contains("attempts"));
        let oversub = line.replace("\"oversub_pct\":100", &format!("\"oversub_pct\":{big}"));
        assert_ne!(oversub, line, "replacement must fire");
        assert!(RunRecord::from_json(&oversub)
            .unwrap_err()
            .contains("oversub_pct"));
    }

    #[test]
    fn mutated_store_lines_and_traces_never_panic_the_parser() {
        // SplitMix64-driven byte flips, truncations and splices over real
        // emitted documents: every input must come back Ok or Err.
        let probe = gps_obs::ProbeHandle::recording(100, 16);
        probe.counter(
            gps_obs::Track::gpu(0),
            "bytes",
            gps_types::Cycle::new(50),
            64.0,
        );
        probe.span(
            gps_obs::Track::SYSTEM,
            "phase \"0\"\n",
            "phase",
            gps_types::Cycle::ZERO,
            gps_types::Cycle::new(900),
        );
        let trace = gps_obs::chrome_trace(&probe.finish().unwrap()).emit();
        let mut quarantined = sample("q", RunStatus::Quarantined);
        quarantined.error = Some("panic: é \u{1} \"boom\"".into());
        let seeds = [
            sample("a", RunStatus::Ok).to_json(),
            quarantined.to_json(),
            trace,
        ];
        let mut rng = gps_types::rng::SmallRng::seed_from_u64(16);
        let (mut ok, mut err) = (0usize, 0usize);
        for case in 0..10_000 {
            let base = seeds[case % seeds.len()].as_bytes();
            let mut bytes = base.to_vec();
            for _ in 0..=rng.gen_range(0..3) {
                let len = bytes.len().max(1);
                match rng.gen_range(0..4) {
                    0 => {
                        let at = rng.gen_range_usize(0..len);
                        if let Some(b) = bytes.get_mut(at) {
                            *b ^= 1 << rng.gen_range(0..8);
                        }
                    }
                    1 => bytes.truncate(rng.gen_range_usize(0..len)),
                    2 => {
                        // Splice a slice of another document in.
                        let other = seeds[rng.gen_range_usize(0..seeds.len())].as_bytes();
                        let from = rng.gen_range_usize(0..other.len());
                        let to = rng.gen_range_usize(from..other.len() + 1);
                        let at = rng.gen_range_usize(0..bytes.len() + 1);
                        bytes.splice(at..at, other[from..to].iter().copied());
                    }
                    _ => {
                        let at = rng.gen_range_usize(0..bytes.len() + 1);
                        let syntax = b"\"\\{}[],:0e-u";
                        bytes.insert(at, syntax[rng.gen_range_usize(0..syntax.len())]);
                    }
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            match Json::parse(&text) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
            let _ = RunRecord::from_json(&text);
            let _ = parse_lines(&bytes);
        }
        assert_eq!(ok + err, 10_000);
        assert!(
            ok > 0 && err > 0,
            "mutations hit both outcomes: {ok} ok, {err} err"
        );
    }

    #[test]
    fn compact_missing_store_is_noop() {
        let path = temp_path("compact-missing");
        assert_eq!(ResultStore::compact(&path).unwrap(), (0, 0));
        assert!(!path.exists());
    }

    #[test]
    fn missing_store_is_empty() {
        let (records, corrupt) = ResultStore::load(temp_path("missing-never-created")).unwrap();
        assert!(records.is_empty());
        assert_eq!(corrupt, 0);
    }
}
