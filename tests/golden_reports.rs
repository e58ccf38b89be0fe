//! Golden `SimReport` fingerprints across the whole evaluation grid.
//!
//! The determinism story of this repo is bit-identity: the same config must
//! produce the same report on every machine, every run, forever — PRs 2–4
//! pinned it across probes, streaming depths and oversubscription ratios.
//! This test pins it across *code changes*: the committed goldens were
//! generated from the pre-`BTreeMap` tree (when report-affecting crates
//! still used `HashMap`), so a passing run proves the `HashMap`→`BTreeMap`
//! migration left every `SimReport` field bit-identical, and any future
//! change that silently perturbs a report fails here before it can
//! masquerade as an architecture result.
//!
//! Regenerate (only when a report change is *intended* and understood):
//!
//! ```text
//! GPS_UPDATE_GOLDENS=1 cargo test --test golden_reports
//! ```

use std::fmt::Write as _;

use gps::interconnect::LinkGen;
use gps::paradigms::{run_paradigm, Paradigm};
use gps::sim::SimReport;
use gps::workloads::{suite, ScaleProfile};

const GOLDEN_PATH: &str = "tests/goldens/sim_reports_tiny.txt";
const GPUS: usize = 4;

/// Every report field, rendered losslessly (floats as IEEE-754 bit
/// patterns, so `==` here really is bit-identity).
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

fn current_grid() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# SimReport fingerprints: suite x paradigms, {GPUS} GPUs, pcie3, tiny scale."
    );
    let _ = writeln!(
        out,
        "# Regenerate with GPS_UPDATE_GOLDENS=1 cargo test --test golden_reports"
    );
    for app in suite::all() {
        let wl = (app.build)(GPUS, ScaleProfile::Tiny);
        for paradigm in Paradigm::ALL {
            let report = run_paradigm(paradigm, &wl, GPUS, LinkGen::Pcie3).unwrap();
            let _ = writeln!(
                out,
                "{}/{}: {}",
                app.name,
                paradigm.label(),
                fingerprint(&report)
            );
        }
    }
    out
}

#[test]
fn reports_match_committed_goldens() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    let current = current_grid();
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
    if committed == current {
        return;
    }
    // Diff line-by-line so a failure names the exact configs that moved.
    let mut drift = Vec::new();
    for (old, new) in committed.lines().zip(current.lines()) {
        if old != new {
            let label = old.split(':').next().unwrap_or("?");
            drift.push(label.to_owned());
        }
    }
    panic!(
        "SimReport fingerprints drifted from {} for {} config(s): {:?}\n\
         A drift here means a code change altered simulation results. If that\n\
         is intended, regenerate with GPS_UPDATE_GOLDENS=1 and explain the\n\
         change in the commit; if not, you just caught a determinism bug.",
        path.display(),
        drift.len(),
        drift
    );
}
