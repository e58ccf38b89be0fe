//! Telemetry totals against the report's counters.
//!
//! The per-access TLB, DRAM and link counters are summed per bucket by the
//! components that count them and reach the probe only when the engine
//! flushes those sums at each phase end. A flush that is lost, doubled or
//! misplaced shows here: every series total must equal the matching
//! `SimReport` counter, for every paradigm, on the reference lane and on
//! per-GPU lanes.

use gps::interconnect::LinkGen;
use gps::obs::{names, Telemetry, Track};
use gps::paradigms::{run_paradigm_configured, Paradigm};
use gps::sim::{SimConfig, SimReport};
use gps::workloads::{suite, ScaleProfile};
use gps_harness::recording_probe;

const GPUS: usize = 4;

fn probed_run(app: &str, paradigm: Paradigm, workers: usize) -> (SimReport, Telemetry) {
    let app = suite::by_name(app).expect("suite app");
    let wl = (app.build)(GPUS, ScaleProfile::Tiny);
    let config = SimConfig::gv100_system(GPUS).with_parallel_workers(workers);
    let probe = recording_probe();
    let report = run_paradigm_configured(paradigm, &wl, config, LinkGen::Pcie3, probe.clone())
        .expect("tiny run succeeds");
    let telemetry = probe.finish().expect("recording probe yields a recording");
    (report, telemetry)
}

/// The total of counter `name` on GPU `g` (0 when never emitted).
fn total(t: &Telemetry, g: usize, name: &str) -> u64 {
    let total = t.counter(Track::gpu(g), name).map_or(0.0, |s| s.total());
    assert!(
        total >= 0.0 && total.fract() == 0.0,
        "{name} on gpu{g}: {total}"
    );
    total as u64
}

#[test]
fn tlb_dram_and_link_totals_equal_the_report() {
    let mut fabric_runs = 0;
    for app in ["pagerank", "jacobi"] {
        for paradigm in Paradigm::ALL {
            for workers in [0, 1] {
                let case = format!("{app}/{}/parallel{workers}", paradigm.label());
                let (report, t) = probed_run(app, paradigm, workers);
                for (g, gpu) in report.per_gpu.iter().enumerate() {
                    let got = [
                        total(&t, g, names::TLB_HIT),
                        total(&t, g, names::TLB_MISS),
                        total(&t, g, names::DRAM_READ_BYTES),
                        total(&t, g, names::DRAM_WRITE_BYTES),
                    ];
                    let want = [
                        gpu.tlb.hits,
                        gpu.tlb.misses,
                        gpu.dram_read_bytes,
                        gpu.dram_write_bytes,
                    ];
                    assert_eq!(got, want, "{case} gpu{g}: tlb hit/miss, dram read/write");
                }
                let sum = |name| (0..GPUS).map(|g| total(&t, g, name)).sum::<u64>();
                assert_eq!(
                    (
                        sum(names::LINK_EGRESS_BYTES),
                        sum(names::LINK_INGRESS_BYTES)
                    ),
                    (report.interconnect_bytes, report.interconnect_bytes),
                    "{case}: link egress/ingress"
                );
                // Not vacuous: every run translates and reads DRAM, and
                // most move data.
                assert!(
                    report
                        .per_gpu
                        .iter()
                        .all(|g| g.tlb.hits > 0 && g.dram_read_bytes > 0),
                    "{case}"
                );
                fabric_runs += usize::from(report.interconnect_bytes > 0);
            }
        }
    }
    assert!(fabric_runs >= 16, "{fabric_runs} of 32 runs moved data");
}
