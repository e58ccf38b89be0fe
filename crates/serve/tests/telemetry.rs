//! The serve loop's observability contract: probes see everything, the
//! report sees nothing.
//!
//! Two invariants pinned here back the `--telemetry` CLI lane:
//!
//! 1. **Bit-identity** — a probed run's [`ServeReport`] equals the
//!    unprobed run's, field for field (`ServeReport` derives `Eq`; every
//!    latency and cycle count is an integer, so "equal" means identical
//!    bits, not approximately close).
//! 2. **Histogram agreement** — the per-tenant `serve_sojourn_cycles`
//!    histograms, merged, bracket the report's exact nearest-rank
//!    percentiles from the same rank rule: the histogram quantile `q`
//!    lands in the same power-of-two bucket as the exact value `e`, with
//!    `e <= q < 2e`.

use gps_obs::{names, Histogram, ProbeHandle, Track};
use gps_serve::{serve, serve_probed, ArrivalModel, ServeConfig};

/// An open-arrival config busy enough to exercise queueing, both tenant
/// lanes, and every probe site.
fn probed_config() -> ServeConfig {
    ServeConfig {
        arrival: ArrivalModel::Open {
            mean_interarrival: 200_000,
        },
        jobs: 14,
        ..ServeConfig::default()
    }
}

#[test]
fn probed_report_is_bit_identical_to_unprobed() {
    let cfg = probed_config();
    let unprobed = serve(&cfg).unwrap();
    let handle = ProbeHandle::recording();
    let probed = serve_probed(&cfg, handle.clone()).unwrap();
    assert_eq!(
        unprobed, probed,
        "probes observe; they must never perturb the report"
    );
    assert_eq!(unprobed.to_json().emit(), probed.to_json().emit());
    // And the probe actually saw the run.
    let t = handle.finish().unwrap();
    assert!(!t.counters.is_empty());
}

#[test]
fn serve_sites_cover_every_series_and_lane() {
    let cfg = probed_config();
    let handle = ProbeHandle::recording();
    let report = serve_probed(&cfg, handle.clone()).unwrap();
    let t = handle.finish().unwrap();

    // System track: one arrival per job, gauges sampled every event.
    let arrivals = t
        .counter(Track::SYSTEM, names::SERVE_ARRIVALS)
        .expect("arrival counter");
    assert_eq!(arrivals.total() as u64, cfg.jobs);
    for gauge in [
        names::SERVE_ACTIVE_JOBS,
        names::SERVE_QUEUE_DEPTH,
        names::SERVE_FREE_SLOTS,
    ] {
        assert!(t.gauge(Track::SYSTEM, gauge).is_some(), "{gauge} sampled");
    }

    // Per-slot completions sum to the job count.
    let completions: f64 = (0..cfg.slots as usize)
        .filter_map(|slot| t.counter(Track::gpu(slot), names::SERVE_COMPLETIONS))
        .map(|s| s.total())
        .sum();
    assert_eq!(completions as u64, cfg.jobs);

    // Tenant lanes: an in-flight gauge and a sojourn histogram per mix
    // position, histogram counts matching the per-app completion tally.
    for (idx, (app, jobs)) in report.per_app_jobs.iter().enumerate() {
        let lane = Track::tenant(idx);
        assert!(
            t.gauge(lane, names::SERVE_TENANT_IN_FLIGHT).is_some(),
            "{app}: in-flight gauge"
        );
        let hist = t
            .hist(lane, names::SERVE_SOJOURN_CYCLES)
            .expect("sojourn histogram");
        assert_eq!(hist.count(), *jobs, "{app}: one sample per completion");
    }

    // One "job" span per job, tenant-laned, durations matching the exact
    // sojourn multiset.
    let mut durations: Vec<u64> = t.spans_of("job").map(|s| s.duration()).collect();
    durations.sort_unstable();
    assert_eq!(durations, report.latencies);
}

#[test]
fn merged_histograms_agree_with_exact_percentiles() {
    let cfg = probed_config();
    let handle = ProbeHandle::recording();
    let report = serve_probed(&cfg, handle.clone()).unwrap();
    let t = handle.finish().unwrap();

    let mut merged = Histogram::new();
    for (idx, _) in cfg.mix.iter().enumerate() {
        merged.merge(
            t.hist(Track::tenant(idx), names::SERVE_SOJOURN_CYCLES)
                .expect("sojourn histogram"),
        );
    }
    assert_eq!(merged.count(), cfg.jobs);
    assert_eq!(merged.min(), report.latencies.first().copied());
    assert_eq!(merged.max(), report.latencies.last().copied());
    assert_eq!(
        merged.sum(),
        report
            .latencies
            .iter()
            .map(|&l| u128::from(l))
            .sum::<u128>()
    );

    // Same nearest-rank rule, so the histogram's bucket upper bound
    // brackets the exact percentile within its power-of-two bucket.
    for p in [50u32, 95, 99] {
        let exact = report.latency_percentile(p);
        let coarse = merged.percentile(p);
        assert!(exact <= coarse, "p{p}: exact {exact} <= hist {coarse}");
        assert_eq!(
            Histogram::bucket_of(exact),
            Histogram::bucket_of(coarse),
            "p{p}: same power-of-two bucket"
        );
    }
}
