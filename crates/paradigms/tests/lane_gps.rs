//! Goldens for the GPS conservative lane tier (`LaneMode::GpsEpochs`).
//!
//! The lane engine buffers RWQ publishes per writer epoch and applies the
//! subscriber-visible effects at the window barrier, so GPS timing is *not*
//! bit-identical to the classic engine. What must hold instead, and what
//! these tests pin across the paper's eight-application suite:
//!
//! * worker-count invariance — `SimReport` and the full telemetry stream
//!   are bit-identical for 1 vs N pool workers;
//! * determinism — repeated multi-worker runs produce identical bytes;
//! * subscription semantics — ATU-derived metrics (subscriber histogram,
//!   pruned subscriptions) and atomic broadcast counts are set-based, so
//!   they must match the classic engine exactly.

use gps_interconnect::LinkGen;
use gps_obs::{chrome_trace, ProbeHandle};
use gps_paradigms::{run_paradigm_configured, Paradigm};
use gps_sim::{SimConfig, SimReport, Workload};
use gps_workloads::{suite, ScaleProfile};

/// Runs `paradigm` with a recording probe and returns the report plus the
/// serialised telemetry (Chrome-trace JSON — a stable, total rendering of
/// every counter, gauge, histogram and span the run emitted).
fn run(paradigm: Paradigm, wl: &Workload, gpus: usize, workers: usize) -> (SimReport, String) {
    let probe = ProbeHandle::recording(1024, 512);
    let cfg = SimConfig::gv100_system(gpus).with_parallel_workers(workers);
    let report = run_paradigm_configured(paradigm, wl, cfg, LinkGen::NvLink2, probe.clone())
        .expect("suite workload must run");
    let telemetry = probe.finish().expect("recording probe yields telemetry");
    (report, chrome_trace(&telemetry).emit())
}

fn metric(report: &SimReport, name: &str) -> f64 {
    report
        .policy_metrics
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn gps_lane_tier_is_worker_invariant_across_suite() {
    const GPUS: usize = 4;
    for app in suite::all() {
        let wl = (app.build)(GPUS, ScaleProfile::Tiny);
        for paradigm in [Paradigm::Gps, Paradigm::GpsNoSubscription] {
            let (r1, t1) = run(paradigm, &wl, GPUS, 1);
            let (r4, t4) = run(paradigm, &wl, GPUS, 4);
            assert_eq!(
                r1, r4,
                "{}/{paradigm:?}: report differs between 1 and 4 workers",
                app.name
            );
            assert_eq!(
                t1, t4,
                "{}/{paradigm:?}: telemetry differs between 1 and 4 workers",
                app.name
            );
        }
    }
}

#[test]
fn gps_lane_tier_multi_worker_runs_are_deterministic() {
    let wl = (suite::all()[0].build)(4, ScaleProfile::Tiny);
    let (ra, ta) = run(Paradigm::Gps, &wl, 4, 4);
    let (rb, tb) = run(Paradigm::Gps, &wl, 4, 4);
    assert_eq!(ra, rb, "repeated 4-worker runs must agree bit-for-bit");
    assert_eq!(ta, tb, "repeated 4-worker telemetry must agree bit-for-bit");
}

#[test]
fn gps_lane_tier_preserves_subscription_metrics_vs_classic() {
    const GPUS: usize = 4;
    for app in suite::all() {
        let wl = (app.build)(GPUS, ScaleProfile::Tiny);
        let (classic, _) = run(Paradigm::Gps, &wl, GPUS, 0);
        let (lane, _) = run(Paradigm::Gps, &wl, GPUS, 1);

        // The access *sets* behind these metrics are workload properties:
        // every page a GPU touches misses its ATU at least once regardless
        // of interleaving, and every atomic to a gps page broadcasts.
        for name in ["pruned_subscriptions", "atomic_broadcasts"] {
            assert_eq!(
                metric(&classic, name),
                metric(&lane, name),
                "{}: {name} diverged between classic and lane engines",
                app.name
            );
        }
        for k in 0..=GPUS {
            let name = format!("pages_{k}_subscribers");
            assert_eq!(
                metric(&classic, &name),
                metric(&lane, &name),
                "{}: subscriber histogram bucket {k} diverged",
                app.name
            );
        }
        // Same machine, same instruction stream.
        assert_eq!(classic.instructions(), lane.instructions(), "{}", app.name);
        assert_eq!(classic.kernels(), lane.kernels(), "{}", app.name);
    }
}

#[test]
fn gps_oversubscribed_falls_back_to_the_reference_lane() {
    // Memory pressure keeps the eviction machinery on the reference lane:
    // a workers=1 run must pick it and agree with an explicit workers=0
    // run bit-for-bit.
    let wl = (suite::all()[0].build)(2, ScaleProfile::Tiny);
    let mk = |workers: usize| {
        let cfg = SimConfig::gv100_system(2)
            .with_memory_pressure(gps_sim::MemoryPressure::from_ratio(1.5))
            .with_parallel_workers(workers);
        run_paradigm_configured(
            Paradigm::GpsOversub,
            &wl,
            cfg,
            LinkGen::NvLink2,
            ProbeHandle::disabled(),
        )
        .expect("oversubscribed run")
    };
    assert_eq!(mk(0), mk(4));
}
