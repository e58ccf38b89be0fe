//! Cross-crate integration for streaming trace replay.
//!
//! Zero-copy trace replay and pooled instruction buffers are pure
//! wall-clock optimisations: they must produce a [`gps::sim::SimReport`]
//! bit-identical to the materialised path. These tests pin that invariant across the whole
//! application suite, plus the failure mode (truncated traces error, never
//! panic) and the `gps-run bench` output schema the CI smoke step greps.

use gps::interconnect::LinkGen;
use gps::paradigms::{run_paradigm, Paradigm};
use gps::sim::Trace;
use gps::workloads::{suite, ScaleProfile};

/// Streaming (zero-copy cursor) replay vs materialised replay of the same
/// trace: identical reports for every suite application.
#[test]
fn streaming_replay_matches_materialised_across_the_suite() {
    for app in suite::all() {
        let wl = (app.build)(2, ScaleProfile::Tiny);
        let trace = Trace::record(&wl);
        let streamed = trace.replay(&wl.name).unwrap();
        let materialised = trace.replay_materialised(&wl.name).unwrap();
        for paradigm in [Paradigm::Gps, Paradigm::Memcpy] {
            let a = run_paradigm(paradigm, &streamed, 2, LinkGen::Pcie3).unwrap();
            let b = run_paradigm(paradigm, &materialised, 2, LinkGen::Pcie3).unwrap();
            assert_eq!(a, b, "{}/{paradigm}: streaming decode diverged", app.name);
        }
    }
}

/// Every truncation of a real recorded trace must be rejected by `replay`
/// as an error — the lazy streaming decoder must never reach malformed
/// bytes at simulation time.
#[test]
fn truncated_traces_error_instead_of_panicking() {
    let app = suite::by_name("jacobi").unwrap();
    let wl = (app.build)(2, ScaleProfile::Tiny);
    let bytes = Trace::record(&wl).as_bytes().to_vec();
    assert!(Trace::from_bytes(bytes.clone()).replay("full").is_ok());
    for cut in (0..bytes.len()).step_by(251) {
        assert!(
            Trace::from_bytes(bytes[..cut].to_vec())
                .replay("cut")
                .is_err(),
            "truncation at {cut}/{} bytes was accepted",
            bytes.len()
        );
    }
}

/// The quick benchmark writes the versioned schema the CI smoke step (and
/// any downstream tooling) relies on: schema version, per-case legs with
/// wall-clock and peak-RSS readings, and the reports-identical flag.
#[test]
fn bench_quick_output_schema_is_stable() {
    use gps_harness::{BenchOptions, Json, BENCH_SCHEMA_VERSION};

    let dir = std::env::temp_dir().join(format!("gps_bench_schema_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_sim.json");
    let report = gps_harness::bench::run_bench_logged(
        &BenchOptions {
            quick: true,
            out: out.clone(),
        },
        false,
    )
    .unwrap();
    assert!(report.cases.iter().all(|c| c.reports_identical));

    let json = Json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(
        json.get("schema_version").and_then(Json::as_u64),
        Some(BENCH_SCHEMA_VERSION)
    );
    let cases = json.get("cases").and_then(Json::as_arr).unwrap();
    assert!(!cases.is_empty());
    for case in cases {
        assert!(case.get("name").and_then(Json::as_str).is_some());
        assert_eq!(case.get("reports_identical"), Some(&Json::Bool(true)));
        let legs = case.get("legs").and_then(Json::as_arr).unwrap();
        assert!(legs.len() >= 2);
        for leg in legs {
            assert!(leg.get("mode").and_then(Json::as_str).is_some());
            assert!(leg.get("wall_ms").and_then(Json::as_f64).unwrap() > 0.0);
            assert!(leg.get("peak_rss_kb").and_then(Json::as_u64).is_some());
            assert!(leg.get("total_cycles").and_then(Json::as_u64).unwrap() > 0);
        }
    }
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_dir(&dir);
}
