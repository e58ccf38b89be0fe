//! End-to-end tests of the telemetry pipeline: the probes-are-free
//! determinism contract, Chrome-trace content and round-tripping, sweep
//! telemetry artifacts, timeline reconstruction and store compaction.

use std::path::PathBuf;

use gps_harness::store::ResultStore;
use gps_harness::sweep::{run_sweep, SweepOptions, SweepSpec};
use gps_harness::{measure_probed, recording_probe, timeline, validate_chrome_trace, RunSpec};
use gps_interconnect::LinkGen;
use gps_obs::{chrome_trace, ProbeHandle};
use gps_paradigms::Paradigm;
use gps_workloads::{suite, ScaleProfile};

fn temp_dir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    let dir = std::env::temp_dir().join(format!(
        "gps-telemetry-test-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn gps_spec() -> RunSpec {
    RunSpec {
        paradigm: Paradigm::Gps,
        gpus: 2,
        link: LinkGen::Pcie3,
        scale: ScaleProfile::Tiny,
        pressure: gps_sim::MemoryPressure::NONE,
        topology: gps_interconnect::Topology::Switch,
        parallel: 0,
    }
}

/// The central contract of the whole subsystem: attaching a recording
/// probe must not perturb the simulation. Bit-identical reports, enforced
/// by `SimReport`'s exhaustive `PartialEq`.
#[test]
fn probed_and_unprobed_runs_are_bit_identical() {
    // `hit` exercises the RWQ coalescing path; jacobi covers the stencil
    // path. Both must be untouched by observation.
    for app_name in ["hit", "jacobi"] {
        let app = suite::by_name(app_name).unwrap();
        let unprobed = measure_probed(&app, gps_spec(), ProbeHandle::disabled()).unwrap();
        let probed = measure_probed(&app, gps_spec(), recording_probe()).unwrap();
        assert_eq!(
            unprobed.report, probed.report,
            "{app_name}: probing changed the simulation"
        );
        assert_eq!(unprobed.steady_cycles, probed.steady_cycles);
    }
}

/// A GPS run's trace must carry the signals the paper's analysis needs:
/// kernel/phase spans, per-link bandwidth counters, and the RWQ
/// occupancy/coalescing series — and the emitted JSON must round-trip a
/// parser.
#[test]
fn gps_trace_contains_the_papers_signals_and_roundtrips() {
    let app = suite::by_name("hit").unwrap();
    let probe = recording_probe();
    measure_probed(&app, gps_spec(), probe.clone()).unwrap();
    let telemetry = probe.finish().unwrap();

    assert!(telemetry.spans_of("kernel").next().is_some());
    assert!(telemetry.spans_of("phase").next().is_some());

    let text = chrome_trace(&telemetry).emit();
    let stats = validate_chrome_trace(&text).unwrap();
    assert!(stats.complete >= 1, "no complete events");
    for needle in [
        "rwq_occupancy",
        "rwq_stores",
        "rwq_coalesced",
        "link_egress_bytes",
        "link_ingress_bytes",
        "tlb_miss",
        "dram_read_bytes",
    ] {
        assert!(text.contains(needle), "trace is missing {needle}");
    }
}

/// `sweep --telemetry` writes one trace + one breakdown per executed run,
/// and the stored records are identical to an unprobed sweep's.
#[test]
fn sweep_telemetry_writes_artifacts_without_changing_results() {
    let spec = SweepSpec {
        apps: vec!["hit".into()],
        paradigms: vec![Paradigm::Gps],
        gpu_counts: vec![2],
        links: vec![LinkGen::Pcie3],
        scales: vec![ScaleProfile::Tiny],
        pressures: vec![gps_sim::MemoryPressure::NONE],
        topologies: vec![gps_interconnect::Topology::Switch],
        parallel: 0,
    };
    let dir = temp_dir("sweep");
    let plain_store = dir.join("plain.jsonl");
    let probed_store = dir.join("probed.jsonl");
    let telemetry_dir = dir.join("telemetry");

    let plain = run_sweep(&spec, &plain_store, &SweepOptions::default()).unwrap();
    let probed = run_sweep(
        &spec,
        &probed_store,
        &SweepOptions {
            telemetry_dir: Some(telemetry_dir.clone()),
            ..SweepOptions::default()
        },
    )
    .unwrap();

    assert_eq!(probed.executed, 1);
    let key = &probed.records[0].key;
    let trace = telemetry_dir.join(format!("{key}.trace.json"));
    let phases = telemetry_dir.join(format!("{key}.phases.txt"));
    validate_chrome_trace(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    assert!(std::fs::read_to_string(&phases)
        .unwrap()
        .contains("phase 0"));

    let a: Vec<_> = plain
        .records
        .iter()
        .map(|r| r.deterministic_fields())
        .collect();
    let b: Vec<_> = probed
        .records
        .iter()
        .map(|r| r.deterministic_fields())
        .collect();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// `timeline` reconstructs a stored run from its key prefix and the
/// emitted trace validates; unknown and ambiguous prefixes are errors.
#[test]
fn timeline_reconstructs_a_stored_run_by_key_prefix() {
    let spec = SweepSpec {
        apps: vec!["hit".into(), "jacobi".into()],
        paradigms: vec![Paradigm::Gps],
        gpu_counts: vec![2],
        links: vec![LinkGen::Pcie3],
        scales: vec![ScaleProfile::Tiny],
        pressures: vec![gps_sim::MemoryPressure::NONE],
        topologies: vec![gps_interconnect::Topology::Switch],
        parallel: 0,
    };
    let dir = temp_dir("timeline");
    let store = dir.join("store.jsonl");
    let outcome = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    let key = outcome
        .records
        .iter()
        .find(|r| r.app == "hit")
        .unwrap()
        .key
        .clone();

    let out = dir.join("out");
    let tl = timeline(&store, &key[..12], &out).unwrap();
    assert_eq!(tl.key, key);
    assert!(tl.label.starts_with("hit/gps/2gpu/"));
    assert!(tl.stats.complete >= 1);
    assert!(tl.breakdown.contains("phase 0"));
    let text = std::fs::read_to_string(&tl.paths.trace).unwrap();
    assert!(text.contains("rwq_occupancy"));
    validate_chrome_trace(&text).unwrap();

    assert!(
        timeline(&store, "ffffffff", &out).is_err(),
        "unknown prefix"
    );
    assert!(timeline(&store, "", &out).is_err(), "ambiguous prefix");
}

/// The ambiguous-prefix error names the candidate keys (so the user can
/// extend the prefix), and an oversubscribed run's stored pressure
/// survives the store round-trip and the key re-derivation that timeline
/// reconstruction depends on.
#[test]
fn timeline_prefix_errors_list_candidates_and_pressure_rederives() {
    let spec = SweepSpec {
        apps: vec!["hit".into()],
        paradigms: vec![Paradigm::GpsOversub],
        gpu_counts: vec![2],
        links: vec![LinkGen::Pcie3],
        scales: vec![ScaleProfile::Tiny],
        pressures: vec![
            gps_sim::MemoryPressure::from_ratio(1.5),
            gps_sim::MemoryPressure::from_ratio(2.0),
        ],
        topologies: vec![gps_interconnect::Topology::Switch],
        parallel: 0,
    };
    let dir = temp_dir("prefix");
    let store = dir.join("store.jsonl");
    let out = dir.join("out");
    let outcome = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(outcome.executed, 2);

    // The empty prefix matches both runs and the error lists each key.
    let err = timeline(&store, "", &out).unwrap_err();
    for record in &outcome.records {
        assert!(
            err.contains(record.key.as_str()),
            "ambiguous-prefix error must list {}, got: {err}",
            record.key
        );
    }

    // A full key is unique; reconstruction re-derives the same key from
    // the stored record — which only holds if the record's memory
    // pressure round-tripped through the store intact.
    for record in &outcome.records {
        let tl = timeline(&store, &record.key, &out).unwrap();
        assert_eq!(tl.key, record.key);
        assert!(tl.stats.complete >= 1);
    }
}

/// A line the store cannot read, such as a record of the retired random
/// victim policy, is counted in the timeline's output instead of vanishing.
#[test]
fn timeline_counts_the_store_lines_it_drops() {
    let spec = SweepSpec {
        apps: vec!["hit".into()],
        paradigms: vec![Paradigm::GpsOversub],
        gpu_counts: vec![2],
        links: vec![LinkGen::Pcie3],
        scales: vec![ScaleProfile::Tiny],
        pressures: vec![gps_sim::MemoryPressure::from_ratio(1.5)],
        topologies: vec![gps_interconnect::Topology::Switch],
        parallel: 0,
    };
    let dir = temp_dir("dropped");
    let store = dir.join("store.jsonl");
    let outcome = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    let key = outcome.records[0].key.clone();
    let line = std::fs::read_to_string(&store).unwrap();
    let random = line.replace(&key, &"0".repeat(32)).replace(
        "\"oversub_pct\":150",
        "\"oversub_pct\":150,\"victim\":\"random\"",
    );
    assert!(random.contains("random"), "replacement must fire");
    std::fs::write(&store, format!("{line}{random}")).unwrap();

    let tl = timeline(&store, &key, &dir.join("out")).unwrap();
    assert_eq!(tl.key, key);
    assert_eq!(tl.corrupt_lines, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-sweeping a compacted store is all cache hits: compaction preserves
/// exactly the records resume depends on.
#[test]
fn compacted_store_still_resumes_clean() {
    let spec = SweepSpec {
        apps: vec!["jacobi".into()],
        paradigms: vec![Paradigm::Gps, Paradigm::Um],
        gpu_counts: vec![2],
        links: vec![LinkGen::Pcie3],
        scales: vec![ScaleProfile::Tiny],
        pressures: vec![gps_sim::MemoryPressure::NONE],
        topologies: vec![gps_interconnect::Topology::Switch],
        parallel: 0,
    };
    let dir = temp_dir("gc");
    let store = dir.join("store.jsonl");
    let first = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(first.executed, 2);

    let (kept, _) = ResultStore::compact(&store).unwrap();
    assert_eq!(kept, 2);

    let again = run_sweep(&spec, &store, &SweepOptions::default()).unwrap();
    assert_eq!(again.executed, 0);
    assert_eq!(again.skipped, 2);
}
