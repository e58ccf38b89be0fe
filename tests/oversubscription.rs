//! Cross-crate integration: GPS under memory oversubscription (§8).
//!
//! The oversubscribed paradigm sizes per-GPU capacity below the
//! subscription demand, evicts replicas at registration time, and charges
//! a fault-latency stall on the first remote touch of an evicted page.
//! These tests pin the contract: runs stay deterministic, pressure only
//! ever slows a workload down, and with no pressure the paradigm is
//! bit-identical to plain GPS.

use gps::interconnect::LinkGen;
use gps::obs::ProbeHandle;
use gps::paradigms::{run_paradigm_configured, Paradigm};
use gps::sim::{MemoryPressure, SimConfig, SimReport};
use gps::workloads::{suite, ScaleProfile};

const GPUS: usize = 4;

fn oversub_report(app: &str, pressure: MemoryPressure) -> SimReport {
    let app = suite::by_name(app).unwrap();
    let wl = (app.build)(GPUS, ScaleProfile::Tiny);
    let config = SimConfig::gv100_system(GPUS).with_memory_pressure(pressure);
    run_paradigm_configured(
        Paradigm::GpsOversub,
        &wl,
        config,
        LinkGen::Pcie3,
        ProbeHandle::disabled(),
    )
    .unwrap()
}

fn metric(report: &SimReport, name: &str) -> f64 {
    report
        .policy_metrics
        .iter()
        .find(|(k, _)| k == name)
        .map(|&(_, v)| v)
        .unwrap_or_else(|| panic!("report has no {name:?} metric"))
}

#[test]
fn oversubscribed_runs_are_bit_identical_across_repeats() {
    let pressure = MemoryPressure::from_ratio(2.0);
    let a = oversub_report("jacobi", pressure);
    let b = oversub_report("jacobi", pressure);
    assert_eq!(a, b, "repeat run diverged under oversubscription");
    assert!(
        metric(&a, "evicted_replicas") + metric(&a, "skipped_subscriptions") > 0.0,
        "2x oversubscription on 4 GPUs must actually evict"
    );
}

#[test]
fn slowdown_is_monotone_in_the_subscription_ratio() {
    let ratios = [1.0, 1.5, 2.0, 3.0];
    // A representative slice of the suite: halo-exchange (jacobi, hit),
    // broadcast-heavy (pagerank) and eqwp, whose broadcast-dominated
    // profiling iteration makes eviction savings largest relative to the
    // fault cost — the hardest case for monotonicity.
    for app_name in ["jacobi", "pagerank", "eqwp", "hit"] {
        let app = suite::by_name(app_name).unwrap();
        let reports: Vec<SimReport> = ratios
            .iter()
            .map(|&r| oversub_report(app.name, MemoryPressure::from_ratio(r)))
            .collect();
        for (w, r) in reports.windows(2).zip(ratios.windows(2)) {
            assert!(
                w[0].total_cycles <= w[1].total_cycles,
                "{}: tighter memory ({}x -> {}x) must not speed the run up ({:?} vs {:?})",
                app.name,
                r[0],
                r[1],
                w[0].total_cycles,
                w[1].total_cycles
            );
        }
        assert!(
            reports[0].total_cycles < reports[3].total_cycles,
            "{}: 3x oversubscription should cost real time over the resident run",
            app.name
        );
        // Eviction pressure itself is monotone too.
        let evicted: Vec<f64> = reports
            .iter()
            .map(|rep| metric(rep, "evicted_replicas") + metric(rep, "skipped_subscriptions"))
            .collect();
        for w in evicted.windows(2) {
            assert!(
                w[0] <= w[1],
                "{}: evictions must grow with the ratio {evicted:?}",
                app.name
            );
        }
        assert!(evicted[3] > 0.0, "{}: 3x pressure must evict", app.name);
    }
}

#[test]
fn no_pressure_degenerates_to_plain_gps_bit_for_bit() {
    for app_name in ["jacobi", "hit"] {
        // Ratios at or below 1.0 mean demand fits: the paradigm must not
        // perturb the simulation at all, only its policy label differs.
        let mut oversub = oversub_report(app_name, MemoryPressure::from_ratio(1.0));
        assert_eq!(oversub.policy, "gps-oversub");
        for name in ["evicted_replicas", "skipped_subscriptions", "refaults"] {
            assert_eq!(metric(&oversub, name), 0.0, "{app_name}: {name}");
        }

        let app = suite::by_name(app_name).unwrap();
        let wl = (app.build)(GPUS, ScaleProfile::Tiny);
        let plain = run_paradigm_configured(
            Paradigm::Gps,
            &wl,
            SimConfig::gv100_system(GPUS),
            LinkGen::Pcie3,
            ProbeHandle::disabled(),
        )
        .unwrap();
        oversub.policy = plain.policy.clone();
        assert_eq!(
            oversub, plain,
            "{app_name}: inactive pressure changed the run"
        );
    }
}
