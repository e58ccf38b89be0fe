//! The multi-GPU memory-management paradigms of the paper's evaluation
//! (§6, "Experimental Methodology").
//!
//! Each paradigm implements [`gps_sim::MemoryPolicy`] and routes every
//! coalesced line access of a workload:
//!
//! * [`UmPolicy`] — baseline Unified Memory: first-touch placement, then
//!   fault-based page migration on every remote access. Faults serialise on
//!   a per-GPU handling queue and migrate the whole page, reproducing UM's
//!   characteristic thrashing.
//! * [`UmHintsPolicy`] — hand-tuned UM: preferred location at the producer,
//!   `accessed-by` mappings that convert faults into remote reads, and
//!   per-phase prefetching of read sets learned from the previous
//!   iteration. Writes to read-duplicated pages collapse them (TLB
//!   shootdown), the fundamental UM limitation the paper highlights.
//! * [`RdlPolicy`] — remote demand loads: stores stay local, loads go to
//!   the page's most recent writer ("representative of an expert programmer
//!   who manually tracks writers to each page").
//! * [`MemcpyPolicy`] — bulk-synchronous replication: every GPU keeps a full
//!   replica; pages dirtied during a phase are broadcast to all peers at
//!   the phase barrier with no compute/transfer overlap.
//! * [`GpsPolicy`] — the paper's proposal, wiring [`gps_core::GpsSystem`]
//!   into the simulator: subscribed-by-default profiling in iteration 0,
//!   coalesced proactive broadcast stores, local loads, remote fallback.
//! * [`InfiniteBwPolicy`] — the upper bound: all data always local, all
//!   transfer costs elided.
//!
//! [`run_paradigm`] / [`run_single_gpu_baseline`] are the entry points the
//! figure harness uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod gps_lane;
mod gps_policy;
mod infinite;
mod memcpy;
mod rdl;
mod um;
mod um_hints;

pub use common::{FaultCosts, Paradigm};
pub use gps_policy::GpsPolicy;
pub use infinite::InfiniteBwPolicy;
pub use memcpy::MemcpyPolicy;
pub use rdl::RdlPolicy;
pub use um::UmPolicy;
pub use um_hints::UmHintsPolicy;

use gps_interconnect::LinkGen;
use gps_obs::ProbeHandle;
use gps_sim::{Engine, MemoryPolicy, SimConfig, SimReport, Workload};
use gps_types::GpsError;

/// Builds the policy object for `paradigm`. The engine initialises the
/// policy against the workload before simulation starts.
pub fn make_policy(paradigm: Paradigm) -> Box<dyn MemoryPolicy> {
    match paradigm {
        Paradigm::Um => Box::new(UmPolicy::new()),
        Paradigm::UmHints => Box::new(UmHintsPolicy::new()),
        Paradigm::Rdl => Box::new(RdlPolicy::new()),
        Paradigm::Memcpy => Box::new(MemcpyPolicy::new()),
        Paradigm::Gps => Box::new(GpsPolicy::new()),
        Paradigm::GpsNoSubscription => Box::new(GpsPolicy::without_subscription()),
        Paradigm::GpsOversub => Box::new(GpsPolicy::oversubscribed()),
        Paradigm::InfiniteBw => Box::new(InfiniteBwPolicy::new()),
    }
}

/// Runs `workload` under `paradigm` on a `gpu_count`-GPU GV100 system with
/// the given interconnect and returns the report.
///
/// ```
/// use gps_interconnect::LinkGen;
/// use gps_paradigms::{run_paradigm, Paradigm};
/// use gps_workloads::{als, ScaleProfile};
///
/// let wl = als::build(2, ScaleProfile::Tiny);
/// let gps = run_paradigm(Paradigm::Gps, &wl, 2, LinkGen::Pcie3)?;
/// let um = run_paradigm(Paradigm::Um, &wl, 2, LinkGen::Pcie3)?;
/// assert!(gps.total_cycles < um.total_cycles);
/// # Ok::<(), gps_types::GpsError>(())
/// ```
///
/// # Errors
///
/// Returns [`GpsError::Config`] if the workload is inconsistent with the
/// machine (wrong GPU count or page size).
pub fn run_paradigm(
    paradigm: Paradigm,
    workload: &Workload,
    gpu_count: usize,
    link: LinkGen,
) -> Result<SimReport, GpsError> {
    run_paradigm_probed(paradigm, workload, gpu_count, link, ProbeHandle::disabled())
}

/// [`run_paradigm`] with a telemetry probe attached to the engine, the
/// fabric, every DRAM model and the policy. Probes only observe: for any
/// `probe`, the returned report is bit-identical to the unprobed run's.
/// Harvest the recording afterwards with [`ProbeHandle::finish`].
///
/// # Errors
///
/// Returns [`GpsError::Config`] if the workload is inconsistent with the
/// machine.
pub fn run_paradigm_probed(
    paradigm: Paradigm,
    workload: &Workload,
    gpu_count: usize,
    link: LinkGen,
    probe: ProbeHandle,
) -> Result<SimReport, GpsError> {
    run_paradigm_configured(
        paradigm,
        workload,
        SimConfig::gv100_system(gpu_count),
        link,
        probe,
    )
}

/// [`run_paradigm_probed`] against an explicit machine configuration (the
/// workload's page size is applied on top). This is how the harness passes
/// host-side knobs such as [`SimConfig::parallel_workers`] alongside
/// genuine machine parameters.
///
/// # Errors
///
/// Returns [`GpsError::Config`] if the workload is inconsistent with the
/// machine.
pub fn run_paradigm_configured(
    paradigm: Paradigm,
    workload: &Workload,
    mut config: SimConfig,
    link: LinkGen,
    probe: ProbeHandle,
) -> Result<SimReport, GpsError> {
    config.page_size = workload.page_size;
    let mut policy = make_policy(paradigm);
    let link = if paradigm == Paradigm::InfiniteBw {
        LinkGen::Infinite
    } else {
        link
    };
    Ok(Engine::new(config, link, workload, policy.as_mut())?
        .with_probe(probe)
        .run())
}

/// Runs the single-GPU baseline of a workload builder: the same application
/// partitioned for one GPU, every access local.
///
/// # Errors
///
/// Returns [`GpsError::Config`] if the workload is inconsistent with a
/// single-GPU machine.
pub fn run_single_gpu_baseline(workload: &Workload) -> Result<SimReport, GpsError> {
    run_paradigm(Paradigm::InfiniteBw, workload, 1, LinkGen::Pcie3)
}
