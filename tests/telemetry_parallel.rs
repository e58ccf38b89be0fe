//! Byte-identity of telemetry between the reference lane and per-GPU lanes.
//!
//! Each per-GPU lane buffers its emissions tagged with the event cycle; at
//! every phase end `ProbeHandle::replay_merged` k-way merges the lane
//! buffers into the master probe in `(cycle, lane, queue position)` order.
//! So the exported artifacts — the Chrome trace JSON and the per-phase
//! counter breakdown — must be *byte-identical* to the reference lane for
//! PureLocal-tier paradigms, and invariant to the worker count for the
//! epoch tier (RDL and GPS through their lane routers), at 4 GPUs and at
//! 16 (sixteen lane buffers in the merge).

use gps::interconnect::{LinkGen, Topology};
use gps::obs::{chrome_trace, phase_breakdown, ProbeHandle, Telemetry};
use gps::paradigms::{run_paradigm_configured, Paradigm};
use gps::sim::SimConfig;
use gps::workloads::{suite, ScaleProfile};
use gps_harness::recording_probe;

const GPUS: usize = 4;

fn capture(app: &str, paradigm: Paradigm, workers: usize) -> Telemetry {
    let config = SimConfig::gv100_system(GPUS).with_parallel_workers(workers);
    capture_with(app, paradigm, config, LinkGen::Pcie3)
}

fn capture_with(app: &str, paradigm: Paradigm, config: SimConfig, link: LinkGen) -> Telemetry {
    let app = suite::by_name(app).unwrap();
    let wl = (app.build)(config.gpu_count, ScaleProfile::Tiny);
    let probe = recording_probe();
    run_paradigm_configured(paradigm, &wl, config, link, probe.clone()).unwrap();
    probe.finish().expect("recording probe yields a recording")
}

fn artifacts(t: &Telemetry) -> (String, String) {
    (chrome_trace(t).emit(), phase_breakdown(t))
}

#[test]
fn pure_tier_telemetry_is_byte_identical_to_sequential() {
    // GPS left this set when it moved to the conservative Epochs tier
    // (its telemetry pin is worker invariance, below); GpsOversub stays
    // because memory pressure keeps it on the reference lane (Fallback).
    for paradigm in [Paradigm::GpsOversub, Paradigm::InfiniteBw] {
        let sequential = artifacts(&capture("jacobi", paradigm, 0));
        let parallel = artifacts(&capture("jacobi", paradigm, 2));
        assert_eq!(
            sequential.0,
            parallel.0,
            "chrome trace diverged for {}",
            paradigm.label()
        );
        assert_eq!(
            sequential.1,
            parallel.1,
            "phase breakdown diverged for {}",
            paradigm.label()
        );
    }
}

#[test]
fn gps_lane_telemetry_is_worker_invariant() {
    let one = artifacts(&capture("jacobi", Paradigm::Gps, 1));
    for workers in [2usize, 4] {
        let n = artifacts(&capture("jacobi", Paradigm::Gps, workers));
        assert_eq!(one.0, n.0, "chrome trace diverged at {workers} workers");
        assert_eq!(one.1, n.1, "phase breakdown diverged at {workers} workers");
    }
}

#[test]
fn rdl_lane_telemetry_is_worker_invariant() {
    let one = artifacts(&capture("pagerank", Paradigm::Rdl, 1));
    for workers in [2usize, 4] {
        let n = artifacts(&capture("pagerank", Paradigm::Rdl, workers));
        assert_eq!(one.0, n.0, "chrome trace diverged at {workers} workers");
        assert_eq!(one.1, n.1, "phase breakdown diverged at {workers} workers");
    }
}

#[test]
fn sixteen_gpu_nvswitch_lane_telemetry_is_worker_invariant() {
    for (app, paradigm) in [("jacobi", Paradigm::Gps), ("pagerank", Paradigm::Rdl)] {
        let capture16 = |workers| {
            let mut config = SimConfig::gv100_system(16).with_parallel_workers(workers);
            config.topology = Topology::NvSwitch;
            artifacts(&capture_with(app, paradigm, config, LinkGen::NvLink3))
        };
        let one = capture16(1);
        let label = paradigm.label();
        assert!(
            one.0.contains("\"gpu15\""),
            "{label}: all 16 GPU tracks exported"
        );
        for workers in [2usize, 3] {
            let n = capture16(workers);
            assert_eq!(
                one.0, n.0,
                "{label}: chrome trace diverged at {workers} workers"
            );
            assert_eq!(
                one.1, n.1,
                "{label}: phase breakdown diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn disabled_probe_parallel_run_still_matches_sequential_report() {
    // Telemetry off is the common case; buffering must be skipped without
    // perturbing results (the `buffered` guard in the lane engine).
    // InfiniteBw pins reference-vs-per-GPU-lane identity; GPS (whose
    // conservative tier deviates from the reference lane by design) pins
    // 1-vs-2 workers.
    let app = suite::by_name("jacobi").unwrap();
    let wl = (app.build)(GPUS, ScaleProfile::Tiny);
    let run = |paradigm, workers| {
        run_paradigm_configured(
            paradigm,
            &wl,
            SimConfig::gv100_system(GPUS).with_parallel_workers(workers),
            LinkGen::Pcie3,
            ProbeHandle::disabled(),
        )
        .unwrap()
    };
    assert_eq!(run(Paradigm::InfiniteBw, 0), run(Paradigm::InfiniteBw, 2));
    assert_eq!(run(Paradigm::Gps, 1), run(Paradigm::Gps, 2));
}
