//! The discrete-event simulation engine.
//!
//! One [`Engine`] run replays a [`Workload`] against a machine described by
//! [`SimConfig`] under a [`MemoryPolicy`], producing a [`SimReport`].
//!
//! This module holds the machine model — per-GPU state, warps, kernel
//! runs and the L2 paths; the event loop that drives it lives in the lane
//! engine (`lanes.rs`), which runs every configuration.
//!
//! # Execution model
//!
//! * Warps are the schedulable entities. Warp resume events are ordered by
//!   `(time, sequence)`: over every GPU at once on the reference lane, so
//!   cross-GPU fabric contention is booked in event order, or per GPU on
//!   the per-GPU lanes. Runs are deterministic either way.
//! * Each SM owns an issue port: one warp instruction issues per cycle;
//!   `Compute(c)` occupies the port for `c` cycles (other warps on other
//!   SMs proceed; other warps on the *same* SM queue behind it — the
//!   standard throughput abstraction for a system-level model).
//! * Loads stall their warp until every line of the coalesced range has
//!   arrived; stores and atomics never stall (the asymmetry GPS exploits).
//! * CTAs are scheduled onto SMs with bounded residency
//!   ([`GpuConfig::cta_slots_per_sm`]); finished CTAs free their slot for
//!   pending CTAs of the same grid.
//! * Kernels launched on the same GPU within a phase run back-to-back with
//!   a launch overhead; a phase ends with a global barrier at which the
//!   policy may copy data (memcpy paradigm) or drain write queues (GPS).
//!
//! [`GpuConfig::cta_slots_per_sm`]: crate::GpuConfig::cta_slots_per_sm

use std::collections::VecDeque;

use gps_interconnect::LinkGen;
use gps_mem::{Tlb, TlbConfig};
use gps_obs::{BucketSums, ProbeHandle};
use gps_types::{Cycle, GpsError, GpuId, LineAddr, Result, CACHE_LINE_BYTES};

use crate::cache::{Cache, CacheConfig, Lookup};
use crate::config::{GpuConfig, SimConfig};
use crate::dram::DramModel;
use crate::instr::WarpStream;
use crate::policy::MemoryPolicy;
use crate::stats::{GpuReport, SimReport, TlbCounts};
use crate::workload::{KernelSpec, Workload};

/// Replays one workload under one memory policy.
///
/// ```
/// use std::sync::Arc;
/// use gps_sim::{AllLocalPolicy, Engine, KernelSpec, SimConfig,
///               WarpCtx, WarpInstr, WorkloadBuilder};
/// use gps_interconnect::LinkGen;
/// use gps_types::{GpuId, PageSize};
///
/// let mut b = WorkloadBuilder::new("demo", PageSize::Standard64K, 1);
/// let data = b.alloc_shared("data", 1 << 20)?;
/// let line = data.base().line();
/// b.phase(vec![KernelSpec {
///     name: "touch".into(),
///     gpu: GpuId::new(0),
///     cta_count: 4,
///     warps_per_cta: 2,
///     program: Arc::new(move |_: WarpCtx| vec![WarpInstr::load1(line)]),
/// }]);
/// let workload = b.build(1)?;
///
/// let mut policy = AllLocalPolicy::new();
/// let report = Engine::new(SimConfig::gv100_system(1), LinkGen::Pcie3,
///                          &workload, &mut policy)?
///     .run();
/// assert_eq!(report.per_gpu[0].warps, 8);
/// # Ok::<(), gps_types::GpsError>(())
/// ```
pub struct Engine<'a> {
    pub(crate) config: SimConfig,
    pub(crate) link: LinkGen,
    pub(crate) workload: &'a Workload,
    pub(crate) policy: &'a mut dyn MemoryPolicy,
    pub(crate) probe: ProbeHandle,
}

pub(crate) struct GpuState {
    pub(crate) sm_issue: Vec<Cycle>,
    pub(crate) sm_busy: u64,
    pub(crate) l1: Vec<Cache>,
    pub(crate) l1_hits: u64,
    pub(crate) l1_misses: u64,
    pub(crate) l2: Cache,
    pub(crate) dram: DramModel,
    pub(crate) tlb: Tlb<()>,
    /// Telemetry: TLB hits and misses per bucket since the lane's last
    /// flush.
    pub(crate) tlb_hit_sums: BucketSums,
    pub(crate) tlb_miss_sums: BucketSums,
    /// Next time the shared page walker can start a new walk.
    pub(crate) walker_free: Cycle,
    pub(crate) instructions: u64,
    pub(crate) warps_done: u64,
    pub(crate) kernels_done: u64,
    /// This phase's kernels not yet launched, in launch order.
    pub(crate) queue: VecDeque<KernelSpec>,
    /// The kernel currently running (one at a time per GPU).
    pub(crate) running: Option<KernelRun>,
    /// When the GPU finished its last kernel of the phase.
    pub(crate) done: Option<Cycle>,
    /// Kernel-end release awaiting the next barrier's visibility horizon
    /// ([`LaneMode::Epochs`] only, when the router's flush asks to wait):
    /// the next launch (or phase completion) happens at
    /// `max(horizon, last_done)`.
    ///
    /// [`LaneMode::Epochs`]: crate::LaneMode::Epochs
    pub(crate) pending_kernel: Option<Cycle>,
}

impl GpuState {
    /// Fresh per-GPU machine state: a [`GpuConfig::gv100`] shared by
    /// `config.tenants`. Tenancy shrinks the last-level TLB's ways (sets
    /// stay a power of two); with one tenant this reduces to the exclusive
    /// machine exactly.
    pub(crate) fn new(config: &SimConfig) -> Self {
        let gpu_cfg = GpuConfig::gv100();
        let tlb_cfg = TlbConfig {
            sets: gpu_cfg.tlb_entries / gpu_cfg.tlb_assoc,
            ways: gpu_cfg.tlb_assoc,
        }
        .with_way_share(config.tenants.max(1));
        GpuState {
            sm_issue: vec![Cycle::ZERO; gpu_cfg.sms],
            sm_busy: 0,
            l1: (0..gpu_cfg.sms)
                .map(|_| Cache::new(CacheConfig::new(gpu_cfg.l1_bytes, gpu_cfg.l1_assoc)))
                .collect(),
            l1_hits: 0,
            l1_misses: 0,
            l2: Cache::new(CacheConfig::new(gpu_cfg.l2_bytes, gpu_cfg.l2_assoc)),
            dram: DramModel::new(gpu_cfg.dram_bandwidth, gpu_cfg.dram_latency),
            tlb: Tlb::new(tlb_cfg),
            tlb_hit_sums: BucketSums::default(),
            tlb_miss_sums: BucketSums::default(),
            walker_free: Cycle::ZERO,
            instructions: 0,
            warps_done: 0,
            kernels_done: 0,
            queue: VecDeque::new(),
            running: None,
            done: None,
            pending_kernel: None,
        }
    }

    /// Starts summing TLB and DRAM telemetry per bucket.
    pub(crate) fn enable_telemetry(&mut self) {
        self.tlb_hit_sums = BucketSums::enabled();
        self.tlb_miss_sums = BucketSums::enabled();
        self.dram.enable_telemetry();
    }

    /// Snapshot of this GPU's counters for the final report.
    pub(crate) fn report(&self) -> GpuReport {
        GpuReport {
            l1_hits: self.l1_hits,
            l1_misses: self.l1_misses,
            l2_hits: self.l2.stats().hits,
            l2_misses: self.l2.stats().misses,
            l2_writebacks: self.l2.stats().writebacks,
            tlb: TlbCounts {
                hits: self.tlb.stats().hits,
                misses: self.tlb.stats().misses,
            },
            sm_busy_cycles: self.sm_busy,
            dram_read_bytes: self.dram.read_bytes(),
            dram_write_bytes: self.dram.write_bytes(),
            instructions: self.instructions,
            warps: self.warps_done,
            kernels: self.kernels_done,
        }
    }
}

pub(crate) struct Warp {
    /// The GPU the warp runs on (an index into the machine's GPUs).
    pub(crate) gpu: usize,
    pub(crate) sm: usize,
    pub(crate) cta: u32,
    /// The warp's instructions (a buffer from the lane's pool) and the
    /// cursor of the next one to issue.
    pub(crate) stream: WarpStream,
    pub(crate) ready: Cycle,
}

/// Per-GPU state of the kernel currently running (one at a time per GPU).
pub(crate) struct KernelRun {
    pub(crate) spec: KernelSpec,
    /// Next CTA index not yet launched.
    pub(crate) next_cta: u32,
    /// Live warps per launched CTA (indexed by CTA id).
    pub(crate) cta_live: Vec<u32>,
    /// Warps still running across the grid.
    pub(crate) live_warps: u64,
    /// Launch time (telemetry kernel-span start).
    pub(crate) started: Cycle,
    /// Latest warp completion seen so far.
    pub(crate) last_done: Cycle,
    /// Round-robin SM cursor for CTA placement.
    pub(crate) sm_cursor: usize,
    /// Resident CTAs per SM.
    pub(crate) sm_resident: Vec<u32>,
}

impl KernelRun {
    /// A grid launched at `at` on a GPU with `sms` SMs, no CTA placed yet.
    pub(crate) fn new(spec: KernelSpec, at: Cycle, sms: usize) -> Self {
        KernelRun {
            next_cta: 0,
            cta_live: vec![0; spec.cta_count as usize],
            live_warps: spec.total_warps(),
            started: at,
            last_done: at,
            sm_cursor: 0,
            sm_resident: vec![0; sms],
            spec,
        }
    }
}

impl<'a> Engine<'a> {
    /// Creates an engine.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] if the machine configuration is invalid,
    /// the workload was partitioned for a different GPU count, or the page
    /// sizes disagree.
    pub fn new(
        config: SimConfig,
        link: LinkGen,
        workload: &'a Workload,
        policy: &'a mut dyn MemoryPolicy,
    ) -> Result<Self> {
        config.validate()?;
        workload.validate()?;
        if workload.gpu_count != config.gpu_count {
            return Err(GpsError::Config {
                reason: format!(
                    "workload partitioned for {} GPUs, machine has {}",
                    workload.gpu_count, config.gpu_count
                ),
            });
        }
        if workload.page_size != config.page_size {
            return Err(GpsError::PageSizeMismatch {
                expected: config.page_size,
                actual: workload.page_size,
            });
        }
        Ok(Self {
            config,
            link,
            workload,
            policy,
            probe: ProbeHandle::disabled(),
        })
    }

    /// Attaches a telemetry probe for this run. The handle is cloned into
    /// the fabric, every GPU's DRAM model and the policy, so one recorder
    /// sees the whole machine. Probes only observe — a probed run produces
    /// a bit-identical [`SimReport`] to an unprobed one.
    #[must_use]
    pub fn with_probe(mut self, probe: ProbeHandle) -> Self {
        self.probe = probe;
        self
    }

    /// Runs the workload to completion.
    ///
    /// [`SimConfig::parallel_workers`] selects the lane shape: `0` runs
    /// the reference lane, which owns every GPU and routes each access
    /// through the policy as it happens; `N >= 1` runs one lane per GPU on
    /// `N` workers whenever the policy's [`LaneMode`](crate::LaneMode)
    /// and the fabric admit it, and the reference lane otherwise.
    pub fn run(self) -> SimReport {
        crate::lanes::run(self)
    }
}

/// L2 -> DRAM read path for a locally-homed line.
pub(crate) fn l2_read(gpu: &mut GpuState, line: LineAddr, home: GpuId, t: Cycle) -> Cycle {
    let l2_latency = GpuConfig::gv100().l2_latency;
    match gpu.l2.access_read(line, home) {
        Lookup::Hit => t + l2_latency,
        Lookup::Miss { evicted } => {
            if let Some(e) = evicted {
                if e.dirty {
                    gpu.dram.write(CACHE_LINE_BYTES, t);
                }
            }
            gpu.dram.read(CACHE_LINE_BYTES, t + l2_latency)
        }
    }
}

/// Write-validate L2 store path.
pub(crate) fn l2_write(gpu: &mut GpuState, line: LineAddr, home: GpuId, t: Cycle) {
    if let Lookup::Miss { evicted: Some(e) } = gpu.l2.access_write(line, home) {
        if e.dirty {
            gpu.dram.write(CACHE_LINE_BYTES, t);
        }
    }
}
