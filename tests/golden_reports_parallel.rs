//! Golden guarantees for the parallel lane engine across the evaluation
//! grid.
//!
//! Three pins, in increasing order of subtlety:
//!
//! 1. For every paradigm on the PureLocal or Fallback tier, a
//!    `parallel_workers >= 1` run must be **bit-identical** to the
//!    reference lane on every suite application (the PureLocal tier
//!    proves identity, the Fallback tier runs the reference lane itself). GPS and GPS-nosub are not in
//!    this set any more: they run the conservative `Epochs` tier,
//!    whose window-buffered publishes legitimately deviate — their
//!    one-worker reports are pinned by their own committed golden file
//!    (every suite app at 4 GPUs, plus jacobi and pagerank at 16 GPUs on
//!    NVSwitch), and their worker invariance by
//!    `crates/paradigms/tests/lane_gps.rs` and `lane_boundary.rs`.
//! 2. RDL runs on the `Epochs` tier too, through its last-writer lane
//!    router, whose bounded-stale writer
//!    visibility legitimately (and deterministically) deviates from the
//!    reference lane; its reports are pinned by their own committed golden
//!    file, regenerated with `GPS_UPDATE_GOLDENS=1` like the sequential
//!    goldens.
//! 3. Every lane-engine report must be invariant to the worker count —
//!    threads are a wall-clock knob, never a result knob — including at
//!    the paper's 16-GPU scale on the switch-based topologies.

use std::fmt::Write as _;

use gps::interconnect::{LinkGen, Topology};
use gps::obs::ProbeHandle;
use gps::paradigms::{run_paradigm_configured, Paradigm};
use gps::sim::{SimConfig, SimReport};
use gps::workloads::{suite, ScaleProfile};

const GOLDEN_PATH: &str = "tests/goldens/sim_reports_tiny_rdl_lanes.txt";
const GPS_GOLDEN_PATH: &str = "tests/goldens/sim_reports_tiny_gps_lanes.txt";
const GPUS: usize = 4;

/// Paradigms whose lane tier (PureLocal or Fallback) promises bit-identity
/// with the reference lane. GPS-oversub qualifies: memory pressure keeps
/// it on the reference lane even though plain GPS runs conservative epochs.
const BIT_IDENTICAL: [Paradigm; 5] = [
    Paradigm::Um,
    Paradigm::UmHints,
    Paradigm::Memcpy,
    Paradigm::GpsOversub,
    Paradigm::InfiniteBw,
];

fn run(paradigm: Paradigm, wl: &gps::sim::Workload, config: SimConfig) -> SimReport {
    run_paradigm_configured(
        paradigm,
        wl,
        config,
        LinkGen::Pcie3,
        ProbeHandle::disabled(),
    )
    .unwrap()
}

/// Same lossless rendering as the sequential golden suite.
fn fingerprint(r: &SimReport) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "total={} phase_ends={:?} phase_traffic={:?} bytes={} transfers={}",
        r.total_cycles.as_u64(),
        r.phase_ends.iter().map(|c| c.as_u64()).collect::<Vec<_>>(),
        r.phase_traffic,
        r.interconnect_bytes,
        r.interconnect_transfers,
    );
    for (i, g) in r.per_gpu.iter().enumerate() {
        let _ = write!(
            s,
            " gpu{i}=[l1:{}/{} l2:{}/{}/{} tlb:{}/{} busy:{} dram:{}/{} instr:{} warps:{} kernels:{}]",
            g.l1_hits,
            g.l1_misses,
            g.l2_hits,
            g.l2_misses,
            g.l2_writebacks,
            g.tlb.hits,
            g.tlb.misses,
            g.sm_busy_cycles,
            g.dram_read_bytes,
            g.dram_write_bytes,
            g.instructions,
            g.warps,
            g.kernels,
        );
    }
    for (k, v) in &r.policy_metrics {
        let _ = write!(s, " {k}={:#018x}", v.to_bits());
    }
    s
}

/// Compares `out` with the committed golden file at `path` (relative to
/// the workspace root), or rewrites the file when `GPS_UPDATE_GOLDENS` is
/// set. `tier` names the lane tier in the drift message.
fn check_golden(path: &str, out: &str, tier: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("GPS_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden path has a parent"))
            .expect("create goldens dir");
        std::fs::write(&path, out).expect("write goldens");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with GPS_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    if committed == out {
        return;
    }
    let mut drift = Vec::new();
    for (old, new) in committed.lines().zip(out.lines()) {
        if old != new {
            drift.push(old.split(':').next().unwrap_or("?").to_owned());
        }
    }
    panic!(
        "{tier} lane-engine fingerprints drifted from {} for {} config(s): {:?}\n\
         A drift means a code change altered the epoch tier's results.\n\
         If intended, regenerate with GPS_UPDATE_GOLDENS=1 and explain the\n\
         change in the commit; if not, you just caught a determinism bug.",
        path.display(),
        drift.len(),
        drift
    );
}

#[test]
fn parallel_engine_is_bit_identical_for_pure_and_fallback_tiers() {
    for app in suite::all() {
        let wl = (app.build)(GPUS, ScaleProfile::Tiny);
        for paradigm in BIT_IDENTICAL {
            let sequential = run(paradigm, &wl, SimConfig::gv100_system(GPUS));
            let parallel = run(
                paradigm,
                &wl,
                SimConfig::gv100_system(GPUS).with_parallel_workers(2),
            );
            assert_eq!(
                sequential,
                parallel,
                "{}/{} diverged between engines",
                app.name,
                paradigm.label()
            );
        }
    }
}

#[test]
fn rdl_lane_reports_are_worker_invariant_and_match_goldens() {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# RDL writer-epoch lane-engine fingerprints: suite, {GPUS} GPUs, pcie3, tiny scale."
    );
    let _ = writeln!(
        out,
        "# Regenerate with GPS_UPDATE_GOLDENS=1 cargo test --test golden_reports_parallel"
    );
    for app in suite::all() {
        let wl = (app.build)(GPUS, ScaleProfile::Tiny);
        let one = run(
            Paradigm::Rdl,
            &wl,
            SimConfig::gv100_system(GPUS).with_parallel_workers(1),
        );
        for workers in [2usize, 3, 4] {
            let n = run(
                Paradigm::Rdl,
                &wl,
                SimConfig::gv100_system(GPUS).with_parallel_workers(workers),
            );
            assert_eq!(
                one, n,
                "{}: rdl lanes diverged at {workers} workers",
                app.name
            );
        }
        let _ = writeln!(out, "{}/rdl-lanes: {}", app.name, fingerprint(&one));
    }

    check_golden(GOLDEN_PATH, &out, "RDL writer-epoch");
}

#[test]
fn rdl_lanes_are_worker_invariant_at_16_gpus_on_switch_fabrics() {
    let app = suite::by_name("jacobi").unwrap();
    let wl = (app.build)(16, ScaleProfile::Tiny);
    for topology in [Topology::NvSwitch, Topology::PcieTree] {
        let mut cfg = SimConfig::gv100_system(16);
        cfg.topology = topology;
        let one = run(Paradigm::Rdl, &wl, cfg.with_parallel_workers(1));
        let four = run(Paradigm::Rdl, &wl, cfg.with_parallel_workers(4));
        assert_eq!(one, four, "rdl lanes diverged on {topology}");
        assert_eq!(one.gpu_count, 16);
    }
}

#[test]
fn gps_lane_reports_match_goldens() {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# GPS epoch-tier lane-engine fingerprints (parallel_workers 1): suite, {GPUS} GPUs,"
    );
    let _ = writeln!(
        out,
        "# pcie3, tiny scale; then jacobi and pagerank, 16 GPUs, nvswitch, tiny scale."
    );
    let _ = writeln!(
        out,
        "# Regenerate with GPS_UPDATE_GOLDENS=1 cargo test --test golden_reports_parallel"
    );
    let paradigms = [Paradigm::Gps, Paradigm::GpsNoSubscription];
    for app in suite::all() {
        let wl = (app.build)(GPUS, ScaleProfile::Tiny);
        for paradigm in paradigms {
            let r = run(
                paradigm,
                &wl,
                SimConfig::gv100_system(GPUS).with_parallel_workers(1),
            );
            let _ = writeln!(
                out,
                "{}/{}-lanes: {}",
                app.name,
                paradigm.label(),
                fingerprint(&r)
            );
        }
    }
    for name in ["jacobi", "pagerank"] {
        let app = suite::by_name(name).unwrap();
        let wl = (app.build)(16, ScaleProfile::Tiny);
        let mut cfg = SimConfig::gv100_system(16);
        cfg.topology = Topology::NvSwitch;
        for paradigm in paradigms {
            let r = run(paradigm, &wl, cfg.with_parallel_workers(1));
            let _ = writeln!(
                out,
                "{name}/{}-lanes-16gpu-nvswitch: {}",
                paradigm.label(),
                fingerprint(&r)
            );
        }
    }
    check_golden(GPS_GOLDEN_PATH, &out, "GPS epoch-tier");
}
