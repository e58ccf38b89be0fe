//! Golden telemetry fingerprints: the exported Chrome trace and phase
//! breakdown of a probed run, pinned across code changes.
//!
//! `golden_reports.rs` pins every `SimReport` field, but a report says
//! nothing about the *order* of the emissions behind `--telemetry`. This
//! file pins that order for every paradigm on the reference engine
//! (`parallel_workers == 0`) — including the paradigms that only ever run
//! there (um, um+hints, memcpy, gps-oversub) — plus the two epoch tiers on
//! per-GPU lanes. One line per run: an FNV-1a digest over both artifacts
//! and their byte lengths.
//!
//! Regenerate (only when a telemetry change is *intended* and understood):
//!
//! ```text
//! GPS_UPDATE_GOLDENS=1 cargo test --test golden_telemetry
//! ```

use std::fmt::Write as _;

use gps::interconnect::LinkGen;
use gps::obs::{chrome_trace, phase_breakdown};
use gps::paradigms::{run_paradigm_configured, Paradigm};
use gps::sim::SimConfig;
use gps::workloads::{suite, ScaleProfile};
use gps_harness::recording_probe;

const GOLDEN_PATH: &str = "tests/goldens/telemetry_tiny.txt";
const APP: &str = "jacobi";
const GPUS: usize = 4;

/// Every paradigm on the reference engine, then the epoch tiers on lanes.
const RUNS: [(Paradigm, usize); 10] = [
    (Paradigm::Um, 0),
    (Paradigm::UmHints, 0),
    (Paradigm::Rdl, 0),
    (Paradigm::Memcpy, 0),
    (Paradigm::Gps, 0),
    (Paradigm::GpsNoSubscription, 0),
    (Paradigm::GpsOversub, 0),
    (Paradigm::InfiniteBw, 0),
    (Paradigm::Gps, 1),
    (Paradigm::Rdl, 1),
];

/// 64-bit FNV-1a, chained over several byte strings.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn current_lines() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Telemetry fingerprints: {APP}, {GPUS} GPUs, pcie3, tiny scale."
    );
    let _ = writeln!(
        out,
        "# Regenerate with GPS_UPDATE_GOLDENS=1 cargo test --test golden_telemetry"
    );
    let app = suite::by_name(APP).expect("suite app");
    let wl = (app.build)(GPUS, ScaleProfile::Tiny);
    for (paradigm, workers) in RUNS {
        let probe = recording_probe();
        let config = SimConfig::gv100_system(GPUS).with_parallel_workers(workers);
        run_paradigm_configured(paradigm, &wl, config, LinkGen::Pcie3, probe.clone())
            .expect("tiny run succeeds");
        let telemetry = probe.finish().expect("recording probe yields a recording");
        let trace = chrome_trace(&telemetry).emit();
        let breakdown = phase_breakdown(&telemetry);
        let _ = writeln!(
            out,
            "{APP}/{}/parallel{workers}: digest={:016x} trace_bytes={} breakdown_bytes={}",
            paradigm.label(),
            fnv1a(&[trace.as_bytes(), breakdown.as_bytes()]),
            trace.len(),
            breakdown.len(),
        );
    }
    out
}

#[test]
fn telemetry_matches_committed_goldens() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let current = current_lines();
    if std::env::var_os("GPS_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
            .expect("create goldens dir");
        std::fs::write(&path, &current).expect("write goldens");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with GPS_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    let drift: Vec<&str> = committed
        .lines()
        .zip(current.lines())
        .filter(|(old, new)| old != new)
        .map(|(old, _)| old.split(':').next().unwrap_or("?"))
        .collect();
    assert!(
        committed == current,
        "telemetry fingerprints drifted from {} for {} run(s): {:?}\n\
         A drift here means a code change altered the emitted telemetry. If\n\
         that is intended, regenerate with GPS_UPDATE_GOLDENS=1 and explain\n\
         the change in the commit.",
        path.display(),
        drift.len(),
        drift
    );
}
