//! The memory-policy interface: how paradigms observe and route accesses.

use std::any::Any;

use gps_interconnect::Fabric;
use gps_obs::ProbeHandle;
use gps_types::{Cycle, GpuId, LineAddr, PageSize, Scope, Vpn};

use crate::config::SimConfig;
use crate::workload::Workload;

/// Mutable simulation context handed to every policy hook.
///
/// `now` is the time the access (or event) reaches the memory system —
/// after SM issue and TLB translation. Policies book proactive transfers on
/// `fabric` directly; its booked-next-free-time semantics make asynchronous
/// background traffic cheap to model.
#[derive(Debug)]
pub struct MemCtx<'a> {
    /// Current simulated time of the triggering event.
    pub now: Cycle,
    /// The inter-GPU fabric (bandwidth booking + traffic counters).
    pub fabric: &'a mut Fabric,
    /// Page size of the run.
    pub page_size: PageSize,
}

impl MemCtx<'_> {
    /// The page containing `line`.
    pub fn vpn_of(&self, line: LineAddr) -> Vpn {
        line.vpn(self.page_size)
    }
}

/// How a coalesced load should be serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadRoute {
    /// Serve from the issuing GPU's local hierarchy (L2 -> DRAM).
    Local,
    /// Demand-read the line from `from`'s memory over the fabric.
    Remote {
        /// The GPU whose DRAM holds the data.
        from: GpuId,
    },
    /// The value was forwarded from a buffering structure (e.g. a GPS
    /// remote-write-queue hit): small fixed latency, no DRAM access.
    Forwarded,
    /// The warp stalls until `ready` (page fault + migration), after which
    /// the access completes locally.
    StallThenLocal {
        /// When the fault resolves.
        ready: Cycle,
    },
    /// The warp stalls until `ready` (re-fault on an evicted replica),
    /// after which the line is demand-read from `from` over the fabric.
    /// This is the oversubscription path: the first access to a page whose
    /// local replica was swapped out pays the fault overhead, then the
    /// access — like every later one — resolves remotely.
    StallThenRemote {
        /// The GPU whose DRAM still holds a replica.
        from: GpuId,
        /// When the re-fault resolves.
        ready: Cycle,
    },
}

/// How a coalesced store should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRoute {
    /// Write to the local hierarchy only.
    Local,
    /// Peer store: send to `to`'s memory, nothing kept locally.
    Remote {
        /// Destination GPU.
        to: GpuId,
    },
    /// Write locally; the policy has already arranged (and charged) any
    /// replication to other GPUs itself. This is the GPS path.
    LocalReplicated,
    /// The warp stalls until `ready` (write fault / collapse), after which
    /// the store completes locally.
    StallThenLocal {
        /// When the fault resolves.
        ready: Cycle,
    },
}

/// How the engine may run a policy on per-GPU lanes.
///
/// With `parallel_workers >= 1` the engine simulates each GPU on its own
/// event lane. A policy declares, via [`MemoryPolicy::lane_mode`], which
/// of the two per-GPU tiers its routing semantics admit; the engine runs
/// the reference lane — one lane owning every GPU, calling the policy's
/// hooks as each access happens — whenever the declared tier (or the
/// configured fabric) rules per-GPU lanes out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneMode {
    /// Every access routes `Local` and no hook observes cross-GPU state:
    /// per-GPU lanes are fully independent and bit-identical to the
    /// reference lane.
    PureLocal,
    /// The conservative epoch tier. Each lane routes through a
    /// [`LaneRouter`] the policy hands out ([`MemoryPolicy::lane_routers`]),
    /// which decides every access from lane-local state plus a snapshot of
    /// the policy's shared state and *buffers* every cross-lane effect.
    /// Lanes advance in windows of the fabric's minimum cross-GPU latency;
    /// at each window barrier the policy applies the buffered effects in
    /// global `(cycle, gpu, program order)` order
    /// ([`MemoryPolicy::lane_barrier`]). A router runs the same routing
    /// rule as the policy's eager hooks and only defers the effects: GPS
    /// routers carry the GPU's GPS unit (write queue and GPS-TLB) and
    /// publish broadcasts; RDL routers carry a last-writer snapshot and
    /// publish writer updates. The result is deterministic and
    /// worker-count-invariant but bounded-stale (one window) versus the
    /// reference lane, so this tier is pinned by its own golden reports.
    Epochs,
    /// The policy's hooks need globally ordered state that per-GPU lanes
    /// cannot provide; the engine runs the reference lane, whose single
    /// queue orders every GPU's events and routes through the hooks
    /// eagerly.
    Fallback,
}

/// Per-lane routing state for [`LaneMode::Epochs`]: the engine's one
/// channel between a per-GPU lane and the policy.
///
/// A router owns everything one GPU's accesses need inside a window — for
/// GPS the GPU's GPS unit (write queue and GPS-TLB) plus a shared,
/// read-only view of the driver state as of the last barrier that changed
/// it, for RDL a snapshot of the last-writer map plus the GPU's own
/// writes since the last barrier. It decides with the same rule as the
/// policy's eager hooks and answers in their vocabulary ([`LoadRoute`],
/// [`StoreRoute`]), but cross-lane effects (broadcasts, peer stores,
/// collapses, access-tracking records, writer updates) are *buffered*,
/// never applied: the owning policy drains and applies them at each
/// window barrier ([`MemoryPolicy::lane_barrier`]) in deterministic
/// order. The engine knows no policy's routing rule; it only forwards
/// accesses here. Routers cross thread boundaries with their lane, hence
/// `Send`.
pub trait LaneRouter: Send + 'static {
    /// Hands the router its lane's buffering probe (before the run).
    fn attach_probe(&mut self, probe: ProbeHandle);

    /// Routes one coalesced load of `line`. A [`LoadRoute::Remote`] read
    /// is booked at the next window barrier.
    fn load(&mut self, line: LineAddr) -> LoadRoute;

    /// Routes one coalesced store to `line` at (translated) time `now`. A
    /// [`StoreRoute::Remote`] peer store is already buffered by the router
    /// for the barrier: the engine books nothing for it.
    fn store(&mut self, line: LineAddr, scope: Scope, now: Cycle) -> StoreRoute;

    /// Routes one atomic to `line` at (translated) time `now`, like
    /// [`LaneRouter::store`].
    fn atomic(&mut self, line: LineAddr, now: Cycle) -> StoreRoute;

    /// A last-level conventional TLB miss at `now` (pre-walk), feeding the
    /// access tracking unit at the next barrier.
    fn tlb_miss(&mut self, vpn: Vpn, now: Cycle);

    /// A release at `now`: a grid-end implicit release or a sys-scoped
    /// fence. Returns whether the release waits for the next barrier's
    /// visibility horizon (GPS queues a full write-queue flush); `false`
    /// lets the fence complete and the next kernel launch at once.
    fn flush(&mut self, now: Cycle) -> bool;

    /// Downcast hook: the owning policy recovers its concrete router type
    /// inside [`MemoryPolicy::lane_barrier`] and friends.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Owned downcast hook for [`MemoryPolicy::absorb_lane_routers`].
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

/// A multi-GPU memory-management paradigm.
///
/// The simulation engine consults the policy on every coalesced line
/// access, on fences, at kernel ends (the implicit grid-wide release) and
/// around phase barriers. Policies route accesses, book proactive traffic
/// on the fabric, and expose paradigm-specific metrics (e.g. the GPS write
/// queue hit rate of Figure 14).
pub trait MemoryPolicy {
    /// Paradigm name for reports.
    fn name(&self) -> &'static str;

    /// Called once before simulation with the workload and machine.
    fn init(&mut self, workload: &Workload, config: &SimConfig) {
        let _ = (workload, config);
    }

    /// Hands the policy the run's telemetry probe (before [`init`]).
    /// Policies that emit paradigm-internal series (e.g. GPS RWQ occupancy)
    /// keep the handle; the default discards it. Probes must only observe —
    /// routing decisions may not depend on the probe in any way.
    ///
    /// [`init`]: MemoryPolicy::init
    fn attach_probe(&mut self, probe: ProbeHandle) {
        let _ = probe;
    }

    /// Routes one coalesced load of `line` by `gpu`.
    fn route_load(&mut self, gpu: GpuId, line: LineAddr, ctx: &mut MemCtx<'_>) -> LoadRoute;

    /// Routes one coalesced store to `line` by `gpu`.
    fn route_store(
        &mut self,
        gpu: GpuId,
        line: LineAddr,
        scope: Scope,
        ctx: &mut MemCtx<'_>,
    ) -> StoreRoute;

    /// Routes one atomic to `line` by `gpu`. Defaults to the store route at
    /// device scope.
    fn route_atomic(&mut self, gpu: GpuId, line: LineAddr, ctx: &mut MemCtx<'_>) -> StoreRoute {
        self.route_store(gpu, line, Scope::Gpu, ctx)
    }

    /// Notifies the policy of a last-level TLB miss (feeds the GPS access
    /// tracking unit, §5.2).
    fn on_tlb_miss(&mut self, gpu: GpuId, vpn: Vpn, ctx: &mut MemCtx<'_>) {
        let _ = (gpu, vpn, ctx);
    }

    /// A memory fence at `scope` executed by `gpu`; returns when the fence
    /// completes (sys fences drain write buffers).
    fn on_fence(&mut self, gpu: GpuId, scope: Scope, ctx: &mut MemCtx<'_>) -> Cycle {
        let _ = (gpu, scope);
        ctx.now
    }

    /// A kernel on `gpu` finished at `ctx.now` — the implicit grid-end
    /// release. Returns when all the kernel's memory effects are globally
    /// visible.
    fn on_kernel_end(&mut self, gpu: GpuId, ctx: &mut MemCtx<'_>) -> Cycle {
        let _ = gpu;
        ctx.now
    }

    /// Phase `phase_idx` is about to start at `ctx.now`. Returns the time
    /// the phase's kernels may launch — policies whose host-side work
    /// blocks the stream (e.g. synchronous `cudaMemPrefetchAsync` chains
    /// before the kernel, §6) return a later time.
    fn on_phase_start(&mut self, phase_idx: usize, ctx: &mut MemCtx<'_>) -> Cycle {
        let _ = phase_idx;
        ctx.now
    }

    /// All GPUs reached the barrier ending phase `phase_idx` at `ctx.now`;
    /// returns when the barrier may release (bulk-synchronous paradigms do
    /// their copying here).
    fn on_phase_end(&mut self, phase_idx: usize, ctx: &mut MemCtx<'_>) -> Cycle {
        let _ = phase_idx;
        ctx.now
    }

    /// Paradigm-specific metrics for reports (name, value).
    fn metrics(&self) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Which per-GPU tier this policy's semantics admit. The conservative
    /// default keeps a policy on the reference lane under
    /// `parallel_workers >= 1`.
    fn lane_mode(&self) -> LaneMode {
        LaneMode::Fallback
    }

    /// Builds one [`LaneRouter`] per GPU for [`LaneMode::Epochs`], moving
    /// the per-GPU routing state out of the policy. Called once, after
    /// [`init`]. Returning any other count (the default returns none)
    /// means the policy cannot run this workload on per-GPU lanes and the
    /// engine runs the reference lane.
    ///
    /// [`init`]: MemoryPolicy::init
    fn lane_routers(&mut self) -> Vec<Box<dyn LaneRouter>> {
        Vec::new()
    }

    /// Window barrier for [`LaneMode::Epochs`]: drains every router's
    /// buffered cross-lane effects and applies them to `fabric` (and the
    /// policy's shared state) in deterministic `(cycle, gpu, program order)`
    /// order. Returns, per GPU, the visibility horizon after the barrier —
    /// the lane engine resolves releases whose [`LaneRouter::flush`]
    /// returned `true` against it.
    fn lane_barrier(
        &mut self,
        routers: &mut [&mut dyn LaneRouter],
        fabric: &mut Fabric,
    ) -> Vec<Cycle> {
        let _ = fabric;
        vec![Cycle::ZERO; routers.len()]
    }

    /// Called after [`on_phase_end`] in a [`LaneMode::Epochs`] run:
    /// resynchronises the routers with shared state that the phase hook may
    /// have changed (GPS subscription pruning, GPS-TLB shootdowns).
    ///
    /// [`on_phase_end`]: MemoryPolicy::on_phase_end
    fn lane_phase_sync(&mut self, routers: &mut [&mut dyn LaneRouter]) {
        let _ = routers;
    }

    /// Returns the routers after a [`LaneMode::Epochs`] run so the policy
    /// can reabsorb their state (write-queue and GPS-TLB statistics, load
    /// counters) for [`metrics`]. Called once, before [`metrics`].
    ///
    /// [`metrics`]: MemoryPolicy::metrics
    fn absorb_lane_routers(&mut self, routers: Vec<Box<dyn LaneRouter>>) {
        let _ = routers;
    }
}

/// The trivial policy: every access is local.
///
/// Used for single-GPU baselines and as the infinite-bandwidth *placement*
/// component (all data resident everywhere, transfers free).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllLocalPolicy;

impl AllLocalPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl MemoryPolicy for AllLocalPolicy {
    fn name(&self) -> &'static str {
        "all-local"
    }

    fn route_load(&mut self, _gpu: GpuId, _line: LineAddr, _ctx: &mut MemCtx<'_>) -> LoadRoute {
        LoadRoute::Local
    }

    fn route_store(
        &mut self,
        _gpu: GpuId,
        _line: LineAddr,
        _scope: Scope,
        _ctx: &mut MemCtx<'_>,
    ) -> StoreRoute {
        StoreRoute::Local
    }

    fn lane_mode(&self) -> LaneMode {
        LaneMode::PureLocal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_interconnect::{FabricConfig, LinkGen};

    #[test]
    fn all_local_routes_everything_locally() {
        let mut fabric = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3));
        let mut ctx = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut fabric,
            page_size: PageSize::Standard64K,
        };
        let mut p = AllLocalPolicy::new();
        assert_eq!(
            p.route_load(GpuId::new(0), LineAddr::new(5), &mut ctx),
            LoadRoute::Local
        );
        assert_eq!(
            p.route_store(GpuId::new(0), LineAddr::new(5), Scope::Weak, &mut ctx),
            StoreRoute::Local
        );
        assert_eq!(
            p.route_atomic(GpuId::new(0), LineAddr::new(5), &mut ctx),
            StoreRoute::Local
        );
        // Default hooks are no-ops that return `now`.
        assert_eq!(p.on_fence(GpuId::new(0), Scope::Sys, &mut ctx), Cycle::ZERO);
        assert_eq!(p.on_kernel_end(GpuId::new(0), &mut ctx), Cycle::ZERO);
        assert_eq!(p.on_phase_end(0, &mut ctx), Cycle::ZERO);
        assert!(p.metrics().is_empty());
    }

    #[test]
    fn vpn_of_uses_configured_page_size() {
        let mut fabric = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3));
        let ctx = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut fabric,
            page_size: PageSize::Small4K,
        };
        // Line 32 = byte 4096 = second 4 KiB page.
        assert_eq!(ctx.vpn_of(LineAddr::new(32)), Vpn::new(1));
    }
}
