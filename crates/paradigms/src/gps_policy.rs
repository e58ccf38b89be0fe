//! The GPS paradigm: wiring [`GpsSystem`] into the simulator.

use std::collections::BTreeSet;
use std::sync::Arc;

use gps_core::{GpsConfig, GpsLoad, GpsStore, GpsSystem, GpsUnit, ProfilingMode, RwqStats};
use gps_interconnect::Fabric;
use gps_obs::{names, ProbeHandle, Track};
use gps_sim::{
    LaneMode, LaneRouter, LoadRoute, MemCtx, MemoryPolicy, SimConfig, StoreRoute, Workload,
};
use gps_types::{Cycle, GpuId, LineAddr, Scope, Vpn};

use crate::common::{FAULT_OVERHEAD, SHOOTDOWN};
use crate::gps_lane::{self, GpsLaneRouter};

/// GPS with automatic subscription management (§6):
///
/// * Every shared allocation is registered as an automatic GPS region
///   (`cudaMallocGPS`), i.e. all GPUs tentatively subscribe.
/// * Iteration 0 runs under `cuGPSTrackingStart`; at its last phase
///   barrier, `cuGPSTrackingStop` unsubscribes each GPU from the pages it
///   never touched.
/// * Stores to GPS pages coalesce in the per-GPU remote write queue and
///   broadcast to subscribers; loads are local (or forwarded / remote
///   fallback for non-subscribers); atomics broadcast uncoalesced;
///   sys-scoped stores collapse their page.
/// * The queue drains fully at sys-scoped fences and at every grid-end
///   implicit release, and kernel completion waits for broadcast
///   visibility.
#[derive(Debug)]
pub struct GpsPolicy {
    config: GpsConfig,
    subscription: bool,
    pressure: bool,
    sys: Option<GpsSystem>,
    phases_per_iter: usize,
    profiled: bool,
    pruned: usize,
    evicted: BTreeSet<(GpuId, Vpn)>,
    faulted_this_iter: BTreeSet<(GpuId, Vpn)>,
    fault_queue: Vec<Cycle>,
    evicted_replicas: u64,
    skipped_subs: u64,
    refaults: u64,
    /// Lane-tier bookkeeping: `tracking_stop` on the subscription path
    /// shoots down every GPS-TLB; the lane TLBs live in the routers, so
    /// the flush is deferred to the next [`MemoryPolicy::lane_phase_sync`].
    lane_tlb_flush: bool,
    probe: ProbeHandle,
}

impl GpsPolicy {
    /// GPS as evaluated in the paper (Table 1 hardware, subscription
    /// tracking on).
    pub fn new() -> Self {
        Self::with_config(GpsConfig::paper())
    }

    /// GPS with custom hardware parameters (write-queue sweeps, profiling
    /// mode...).
    pub fn with_config(config: GpsConfig) -> Self {
        Self {
            config,
            subscription: true,
            pressure: false,
            sys: None,
            phases_per_iter: 1,
            profiled: false,
            pruned: 0,
            evicted: BTreeSet::new(),
            faulted_this_iter: BTreeSet::new(),
            fault_queue: Vec::new(),
            evicted_replicas: 0,
            skipped_subs: 0,
            refaults: 0,
            lane_tlb_flush: false,
            probe: ProbeHandle::disabled(),
        }
    }

    /// The Figure 11 ablation: subscription tracking disabled, every GPS
    /// page stays all-to-all subscribed.
    pub fn without_subscription() -> Self {
        let mut p = Self::new();
        p.subscription = false;
        p
    }

    /// GPS under memory oversubscription (§8): per-GPU frame capacity is
    /// shrunk to `demand / SimConfig::memory_pressure.ratio()`, the driver
    /// evicts replicas at registration time (unsubscribe + GPS-TLB
    /// shootdown, §5.3's swap-out path), and a load that touches a
    /// swapped-out replica pays a UM-style fault that swaps the page back
    /// in, displacing a victim — demand-paging thrash whose fault cost
    /// grows with how far demand exceeds capacity. With pressure at or
    /// below 1.0 this is bit-identical to [`GpsPolicy::new`] apart from
    /// the policy name.
    pub fn oversubscribed() -> Self {
        let mut p = Self::new();
        p.pressure = true;
        p
    }

    /// The assembled GPS machine (after `init`).
    pub fn system(&self) -> Option<&GpsSystem> {
        self.sys.as_ref()
    }

    fn sys_mut(&mut self) -> &mut GpsSystem {
        // gps-lint: allow(no_expect) -- init_memory runs before any routing callback can borrow the system
        self.sys.as_mut().expect("policy used before init")
    }

    /// RWQ telemetry for the store/atomic `gpu` just routed, when a probe
    /// took the `before` stats.
    fn emit_rwq(&self, gpu: GpuId, before: Option<RwqStats>, now: Cycle) {
        if let (Some(before), Some(sys)) = (before, self.sys.as_ref()) {
            emit_rwq_delta(&self.probe, sys.unit(gpu), before, now);
        }
    }
}

/// The engine's route for a GPS load decision.
pub(crate) fn load_route(load: GpsLoad) -> LoadRoute {
    match load {
        GpsLoad::LocalReplica => LoadRoute::Local,
        GpsLoad::Forwarded => LoadRoute::Forwarded,
        GpsLoad::RemoteFallback { from } => LoadRoute::Remote { from },
    }
}

/// The engine's route for a GPS store or atomic decision. On a routed
/// lane a peer store is already buffered for the barrier.
pub(crate) fn store_route(store: GpsStore) -> StoreRoute {
    match store {
        GpsStore::Local => StoreRoute::Local,
        GpsStore::RemoteOwner { to } => StoreRoute::Remote { to },
        GpsStore::Replicated => StoreRoute::LocalReplicated,
        GpsStore::CollapseStall { ready } => StoreRoute::StallThenLocal { ready },
    }
}

/// Emits the RWQ telemetry for one store/atomic on `unit`: the stats
/// delta across the operation (stores presented, coalescing hits) plus
/// the resulting queue depth. Only called when a probe is attached; pure
/// observation, never fed back into routing.
pub(crate) fn emit_rwq_delta(probe: &ProbeHandle, unit: &GpsUnit, before: RwqStats, now: Cycle) {
    let after = unit.rwq_stats();
    let presented = (after.hits + after.inserts + after.bypasses)
        - (before.hits + before.inserts + before.bypasses);
    if presented == 0 {
        return; // non-GPS page: the queue never saw the store
    }
    let track = Track::gpu(unit.gpu().index());
    probe.counter(track, names::RWQ_STORES, now, presented as f64);
    probe.counter(
        track,
        names::RWQ_COALESCED,
        now,
        (after.hits - before.hits) as f64,
    );
    probe.gauge(track, names::RWQ_OCCUPANCY, now, unit.rwq_len() as f64);
}

impl Default for GpsPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryPolicy for GpsPolicy {
    fn name(&self) -> &'static str {
        if self.pressure {
            "gps-oversub"
        } else if self.subscription {
            "gps"
        } else {
            "gps-nosub"
        }
    }

    fn attach_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    fn init(&mut self, workload: &Workload, config: &SimConfig) {
        self.evicted.clear();
        self.faulted_this_iter.clear();
        self.fault_queue = vec![Cycle::ZERO; config.gpu_count];
        self.evicted_replicas = 0;
        self.skipped_subs = 0;
        self.refaults = 0;
        self.lane_tlb_flush = false;
        // Total subscription demand: with subscribed-by-default profiling
        // every GPU tentatively hosts a replica of every shared page.
        let demand: u64 = workload.shared_allocs().map(|a| a.range.pages()).sum();
        let pressure = config.memory_pressure;
        // Tenancy: each co-resident application keeps 1/tenants of the GPS
        // structures (RWQ entries, GPS-TLB ways) and of the per-GPU frame
        // budget — co-tenants' resident sets multiply the effective
        // oversubscription. With one tenant both reduce to the exclusive
        // machine exactly.
        let tenants = config.tenants.max(1);
        let gps_cfg = self.config.for_tenant_share(tenants);
        let pct = u64::from(pressure.oversubscription_pct).saturating_mul(u64::from(tenants));
        let apply = self.pressure && pct > 100 && demand > 0;
        let mut sys = if apply {
            // Per-GPU capacity = demand / ratio, floored so that spreading
            // first copies round-robin always fits (aggregate capacity >=
            // demand), keeping registration infallible.
            let capacity_pages = (demand.saturating_mul(100) / pct)
                .max(demand.div_ceil(config.gpu_count as u64))
                .max(1);
            let mut sys = GpsSystem::with_memory(
                config.gpu_count,
                workload.page_size,
                gps_cfg,
                capacity_pages.saturating_mul(workload.page_size.bytes()),
            )
            // gps-lint: allow(no_expect) -- gps_cfg is derived from a machine description already validated by the harness
            .expect("invalid GPS configuration");
            sys.enable_eviction();
            sys
        } else {
            GpsSystem::new(config.gpu_count, workload.page_size, gps_cfg)
                // gps-lint: allow(no_expect) -- gps_cfg is derived from a machine description already validated by the harness
                .expect("invalid GPS configuration")
        };
        sys.set_subscription_enabled(self.subscription);
        for alloc in workload.shared_allocs() {
            if apply {
                let outcome = sys
                    .register_region_evicting(alloc.range)
                    // gps-lint: allow(no_expect) -- the eviction planner sized the pool to cover aggregate demand
                    .expect("aggregate capacity covers the demand");
                self.evicted_replicas += outcome.evicted.len() as u64;
                self.skipped_subs += outcome.skipped.len() as u64;
                // Both dropped and never-placed replicas re-fault on first
                // touch: the GPU no longer hosts the page.
                self.evicted.extend(outcome.evicted);
                self.evicted.extend(outcome.skipped);
            } else {
                sys.register_region(alloc.range)
                    // gps-lint: allow(no_expect) -- the workload builder allocates disjoint ranges by construction
                    .expect("workload ranges are disjoint");
            }
        }
        if apply && self.probe.is_enabled() {
            for (g, &n) in sys.runtime().evictions().iter().enumerate() {
                if n > 0 {
                    self.probe
                        .counter(Track::gpu(g), names::EVICTIONS, Cycle::ZERO, n as f64);
                }
            }
        }
        self.phases_per_iter = workload.phases_per_iteration.max(1);
        self.profiled = false;
        self.pruned = 0;
        // cuGPSTrackingStart at the top of iteration 0 (Listing 1). With no
        // shared allocations there is nothing to profile.
        if sys.runtime().allocated_span().is_some() {
            // gps-lint: allow(no_expect) -- tracking_start is called once per run, right after system construction
            sys.tracking_start().expect("fresh tracking session");
        } else {
            self.profiled = true;
        }
        self.sys = Some(sys);
    }

    fn route_load(&mut self, gpu: GpuId, line: LineAddr, ctx: &mut MemCtx<'_>) -> LoadRoute {
        match self.sys_mut().load(gpu, line) {
            GpsLoad::RemoteFallback { from } => {
                // Touching a swapped-out replica takes a page fault: the
                // driver tries to swap the page back *in* (re-subscribing
                // this GPU, displacing a victim if its memory is full,
                // §5.3) and the replica fills with a whole-page migration
                // over the fabric. Later loads hit the restored local copy
                // — until the page is displaced again; each (GPU, page)
                // pair faults at most once per iteration so thrash degrades
                // instead of livelocking. Faults on one GPU serialise
                // through its fault-handling unit (same model as UM
                // far-faults), making fault cost additive in the number of
                // swapped-out pages touched.
                let vpn = line.vpn(ctx.page_size);
                if self.pressure
                    && self.evicted.contains(&(gpu, vpn))
                    && self.faulted_this_iter.insert((gpu, vpn))
                {
                    self.refaults += 1;
                    self.probe
                        .counter(Track::gpu(gpu.index()), names::REFAULTS, ctx.now, 1.0);
                    let start = self.fault_queue[gpu.index()].max(ctx.now);
                    let handled = start + FAULT_OVERHEAD;
                    let swapped_in = match self.sys_mut().fault_in(gpu, vpn) {
                        Ok(displaced) => {
                            self.evicted.remove(&(gpu, vpn));
                            self.evicted.extend(displaced);
                            true
                        }
                        // No evictable frame (only last copies): the page
                        // stays swapped out and remote; it may retry next
                        // iteration.
                        Err(_) => false,
                    };
                    let ready = if swapped_in {
                        ctx.fabric
                            .transfer(from, gpu, ctx.page_size.bytes(), handled)
                            .map(|t| t.arrived)
                            .unwrap_or(handled)
                    } else {
                        handled
                    };
                    self.fault_queue[gpu.index()] = ready;
                    if swapped_in {
                        LoadRoute::StallThenLocal { ready }
                    } else {
                        LoadRoute::StallThenRemote { from, ready }
                    }
                } else {
                    LoadRoute::Remote { from }
                }
            }
            route => load_route(route),
        }
    }

    fn route_store(
        &mut self,
        gpu: GpuId,
        line: LineAddr,
        scope: Scope,
        ctx: &mut MemCtx<'_>,
    ) -> StoreRoute {
        let before = self
            .probe
            .is_enabled()
            .then(|| self.sys_mut().unit(gpu).rwq_stats());
        let route = self.sys_mut().store(gpu, line, scope, ctx.now, ctx.fabric);
        self.emit_rwq(gpu, before, ctx.now);
        store_route(route)
    }

    fn route_atomic(&mut self, gpu: GpuId, line: LineAddr, ctx: &mut MemCtx<'_>) -> StoreRoute {
        let before = self
            .probe
            .is_enabled()
            .then(|| self.sys_mut().unit(gpu).rwq_stats());
        // gps-lint: allow(lane_tier_purity) -- reference-lane path: route_atomic runs outside the parallel lane window
        let route = self.sys_mut().atomic(gpu, line, ctx.now, ctx.fabric);
        self.emit_rwq(gpu, before, ctx.now);
        store_route(route)
    }

    fn on_tlb_miss(&mut self, gpu: GpuId, vpn: Vpn, ctx: &mut MemCtx<'_>) {
        self.probe
            .counter(Track::gpu(gpu.index()), names::ATU_TLB_MISS, ctx.now, 1.0);
        // gps-lint: allow(lane_tier_purity) -- reference-lane path: TLB misses are serviced outside the parallel lane window
        self.sys_mut().tlb_miss(gpu, vpn);
    }

    fn on_fence(&mut self, gpu: GpuId, scope: Scope, ctx: &mut MemCtx<'_>) -> Cycle {
        if scope.drains_write_queue() {
            let done = self.sys_mut().flush(gpu, ctx.now, ctx.fabric);
            if done > ctx.now {
                self.probe
                    .span(Track::gpu(gpu.index()), "rwq_drain", "gps", ctx.now, done);
            }
            done
        } else {
            ctx.now
        }
    }

    fn on_kernel_end(&mut self, gpu: GpuId, ctx: &mut MemCtx<'_>) -> Cycle {
        // The implicit release at the end of every grid (§3.3).
        let done = self.sys_mut().flush(gpu, ctx.now, ctx.fabric);
        if done > ctx.now {
            self.probe
                .span(Track::gpu(gpu.index()), "rwq_drain", "gps", ctx.now, done);
        }
        // Under pressure the grid also waits for the GPU's fault-handling
        // unit to drain: a kernel is not complete while the driver is still
        // servicing its page faults, so accumulated refault time lands on
        // the critical path instead of hiding behind other warps.
        let faults_done = self
            .fault_queue
            .get(gpu.index())
            .copied()
            .unwrap_or(Cycle::ZERO);
        done.max(faults_done)
    }

    fn on_phase_start(&mut self, phase_idx: usize, ctx: &mut MemCtx<'_>) -> Cycle {
        if self.pressure && phase_idx == 0 && self.evicted_replicas > 0 {
            // Swapping out replicas at registration is synchronous driver
            // work on the critical path: each eviction pays an unmap plus
            // an all-GPU GPS-TLB shootdown before any kernel may launch.
            return ctx.now + SHOOTDOWN * self.evicted_replicas;
        }
        ctx.now
    }

    fn on_phase_end(&mut self, phase_idx: usize, ctx: &mut MemCtx<'_>) -> Cycle {
        if !self.profiled && phase_idx + 1 == self.phases_per_iter {
            // cuGPSTrackingStop at the end of iteration 0 (Listing 1).
            // gps-lint: allow(no_expect) -- tracking_stop pairs with the tracking_start gated by the same profiled flag
            self.pruned = self.sys_mut().tracking_stop().expect("tracking active");
            self.profiled = true;
            // The stop's GPS-TLB shootdown only happens on the subscription
            // path (the ablation aborts tracking without touching TLBs).
            self.lane_tlb_flush = self.subscription;
            self.probe
                .instant(Track::SYSTEM, names::TRACKING_STOP, ctx.now);
        }
        if self.pressure && (phase_idx + 1).is_multiple_of(self.phases_per_iter) {
            // Pages displaced after their fault become eligible to fault
            // back in at the next iteration.
            self.faulted_this_iter.clear();
        }
        ctx.now
    }

    fn lane_mode(&self) -> LaneMode {
        // The conservative GPS tier covers the subscribed-by-default
        // profiling modes (gps and gps-nosub). Oversubscription routes
        // through fault state that mutates mid-window, and
        // unsubscribed-by-default profiling subscribes on first touch:
        // both stay on the reference lane.
        if !self.pressure && self.config.profiling == ProfilingMode::SubscribedByDefault {
            LaneMode::Epochs
        } else {
            LaneMode::Fallback
        }
    }

    fn lane_routers(&mut self) -> Vec<Box<dyn LaneRouter>> {
        let Some(sys) = self.sys.as_mut() else {
            return Vec::new();
        };
        let view = sys.runtime().shared_view();
        sys.detach_lane_state()
            .into_iter()
            .map(|unit| {
                Box::new(GpsLaneRouter::new(unit, Arc::clone(&view))) as Box<dyn LaneRouter>
            })
            .collect()
    }

    fn lane_barrier(
        &mut self,
        routers: &mut [&mut dyn LaneRouter],
        fabric: &mut Fabric,
    ) -> Vec<Cycle> {
        // gps-lint: allow(no_expect) -- init_memory runs before any routing callback can borrow the system
        let sys = self.sys.as_mut().expect("policy used before init");
        gps_lane::apply_barrier(routers, sys, fabric)
    }

    fn lane_phase_sync(&mut self, routers: &mut [&mut dyn LaneRouter]) {
        let flush_tlbs = std::mem::take(&mut self.lane_tlb_flush);
        // gps-lint: allow(no_expect) -- init_memory runs before any routing callback can borrow the system
        let sys = self.sys.as_ref().expect("policy used before init");
        gps_lane::phase_sync(routers, sys, flush_tlbs);
    }

    fn absorb_lane_routers(&mut self, routers: Vec<Box<dyn LaneRouter>>) {
        let units = routers
            .into_iter()
            .map(|router| {
                router
                    .into_any()
                    .downcast::<GpsLaneRouter>()
                    // gps-lint: allow(no_expect) -- lane runs construct every router as GpsLaneRouter; a foreign type is an engine bug
                    .expect("foreign router in a GPS lane run")
                    .into_unit()
            })
            .collect();
        self.sys_mut().attach_lane_state(units);
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        let Some(sys) = self.sys.as_ref() else {
            return Vec::new();
        };
        let hist = sys.subscriber_histogram();
        let mut m = vec![
            ("rwq_hit_rate".to_owned(), sys.rwq_overall_hit_rate()),
            ("gps_tlb_hit_rate".to_owned(), sys.gps_tlb_hit_rate()),
            ("pruned_subscriptions".to_owned(), self.pruned as f64),
            (
                "atomic_broadcasts".to_owned(),
                sys.atomic_broadcasts() as f64,
            ),
        ];
        for (k, &count) in hist.iter().enumerate() {
            m.push((format!("pages_{k}_subscribers"), count as f64));
        }
        // Oversubscription counters ride at the tail so the positional
        // metrics above keep their indices; all zero unless pressure is on.
        m.push(("evicted_replicas".to_owned(), self.evicted_replicas as f64));
        m.push(("skipped_subscriptions".to_owned(), self.skipped_subs as f64));
        m.push((names::REFAULTS.to_owned(), self.refaults as f64));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_interconnect::{Fabric, FabricConfig, LinkGen};
    use gps_types::PageSize;

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);

    fn workload() -> Workload {
        let mut b = gps_sim::WorkloadBuilder::new("t", PageSize::Standard64K, 2);
        b.alloc_shared("s", 2 * 65536).unwrap();
        b.alloc_private("p", 65536).unwrap();
        for _ in 0..2 {
            b.phase(vec![gps_sim::KernelSpec {
                name: "k".into(),
                gpu: G0,
                cta_count: 1,
                warps_per_cta: 1,
                program: std::sync::Arc::new(|_: gps_sim::WarpCtx| {
                    vec![gps_sim::WarpInstr::Compute(1)]
                }),
            }]);
        }
        b.build(1).unwrap()
    }

    fn setup() -> (GpsPolicy, Fabric) {
        let wl = workload();
        let mut p = GpsPolicy::new();
        p.init(&wl, &SimConfig::gv100_system(2));
        (p, Fabric::new(FabricConfig::new(2, LinkGen::Pcie3)))
    }

    fn sline(page: u64) -> LineAddr {
        gps_types::VirtAddr::new((1 << 32) + page * 65536).line()
    }

    #[test]
    fn loads_local_stores_replicated() {
        let (mut p, mut f) = setup();
        let mut c = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut f,
            page_size: PageSize::Standard64K,
        };
        assert_eq!(p.route_load(G1, sline(0), &mut c), LoadRoute::Local);
        assert_eq!(
            p.route_store(G0, sline(0), Scope::Weak, &mut c),
            StoreRoute::LocalReplicated
        );
        // Grid-end release drains the queue and costs fabric time.
        let done = p.on_kernel_end(G0, &mut c);
        assert!(done > Cycle::ZERO);
        assert_eq!(c.fabric.counters().total_bytes(), 128);
    }

    #[test]
    fn profiling_stops_at_end_of_first_iteration() {
        let (mut p, mut f) = setup();
        assert!(p.system().unwrap().is_tracking());
        {
            let mut c = MemCtx {
                now: Cycle::ZERO,
                fabric: &mut f,
                page_size: PageSize::Standard64K,
            };
            // Only G0 touches page 0; nobody touches page 1.
            p.on_tlb_miss(G0, sline(0).vpn(PageSize::Standard64K), &mut c);
            // Two phases per iteration in this workload? phases_per_iter=1,
            // so the first phase end stops tracking.
            let _ = p.on_phase_end(0, &mut c);
        }
        assert!(!p.system().unwrap().is_tracking());
        // Page 0 loses G1; untouched page 1 keeps one survivor (loses one
        // of two GPUs): 2 prunes total.
        assert_eq!(p.metrics()[2].1, 2.0);
        // Both pages are single-subscriber now.
        let hist = p.system().unwrap().subscriber_histogram();
        assert_eq!(hist[1], 2);
    }

    #[test]
    fn non_shared_lines_bypass_gps() {
        let (mut p, mut f) = setup();
        let private = gps_types::VirtAddr::new((1 << 32) + 2 * 65536).line();
        let mut c = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut f,
            page_size: PageSize::Standard64K,
        };
        assert_eq!(
            p.route_store(G0, private, Scope::Weak, &mut c),
            StoreRoute::Local
        );
        assert_eq!(p.route_load(G1, private, &mut c), LoadRoute::Local);
        assert_eq!(c.fabric.counters().total_bytes(), 0);
    }

    #[test]
    fn sys_fence_drains_gpu_and_cta_fences_do_not() {
        let (mut p, mut f) = setup();
        let mut c = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut f,
            page_size: PageSize::Standard64K,
        };
        p.route_store(G0, sline(0), Scope::Weak, &mut c);
        assert_eq!(p.on_fence(G0, Scope::Gpu, &mut c), Cycle::ZERO);
        assert_eq!(c.fabric.counters().total_bytes(), 0);
        let done = p.on_fence(G0, Scope::Sys, &mut c);
        assert!(done > Cycle::ZERO);
        assert_eq!(c.fabric.counters().total_bytes(), 128);
    }

    #[test]
    fn atomics_broadcast_immediately() {
        let (mut p, mut f) = setup();
        let mut c = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut f,
            page_size: PageSize::Standard64K,
        };
        assert_eq!(
            p.route_atomic(G1, sline(0), &mut c),
            StoreRoute::LocalReplicated
        );
        assert_eq!(c.fabric.counters().total_bytes(), 128);
        assert_eq!(p.metrics()[0].1, 0.0, "atomics keep the rwq hit rate at 0");
    }

    #[test]
    fn ablation_name_differs() {
        assert_eq!(GpsPolicy::new().name(), "gps");
        assert_eq!(GpsPolicy::without_subscription().name(), "gps-nosub");
        assert_eq!(GpsPolicy::oversubscribed().name(), "gps-oversub");
    }

    #[test]
    fn oversub_without_pressure_matches_plain_gps() {
        let wl = workload();
        let mut p = GpsPolicy::oversubscribed();
        p.init(&wl, &SimConfig::gv100_system(2));
        let mut plain = GpsPolicy::new();
        plain.init(&wl, &SimConfig::gv100_system(2));
        assert_eq!(
            p.system().unwrap().subscriber_histogram(),
            plain.system().unwrap().subscriber_histogram()
        );
        let m = p.metrics();
        for name in ["evicted_replicas", "skipped_subscriptions", names::REFAULTS] {
            let v = m.iter().find(|(k, _)| k == name).unwrap().1;
            assert_eq!(v, 0.0, "{name} must stay zero without pressure");
        }
    }

    /// A 4-GPU, 4-shared-page workload under 2x pressure: per-GPU capacity
    /// is 2 frames, aggregate 8 frames for 4 pages, so replicas exist to
    /// displace and the thrash path is reachable (unlike the 2-GPU
    /// workload, where every resident page is a last copy).
    fn pressured() -> GpsPolicy {
        let mut b = gps_sim::WorkloadBuilder::new("t", PageSize::Standard64K, 4);
        b.alloc_shared("s", 4 * 65536).unwrap();
        b.phase(vec![gps_sim::KernelSpec {
            name: "k".into(),
            gpu: G0,
            cta_count: 1,
            warps_per_cta: 1,
            program: std::sync::Arc::new(|_: gps_sim::WarpCtx| {
                vec![gps_sim::WarpInstr::Compute(1)]
            }),
        }]);
        let wl = b.build(1).unwrap();
        let cfg = SimConfig::gv100_system(4)
            .with_memory_pressure(gps_sim::MemoryPressure::from_ratio(2.0));
        let mut p = GpsPolicy::oversubscribed();
        p.init(&wl, &cfg);
        p
    }

    #[test]
    fn pressure_evicts_and_a_refault_swaps_the_replica_back_in() {
        let mut p = pressured();
        assert!(
            p.evicted_replicas + p.skipped_subs > 0,
            "2x pressure must shed replicas"
        );
        let mut f = Fabric::new(FabricConfig::new(4, LinkGen::Pcie3));
        let mut c = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut f,
            page_size: PageSize::Standard64K,
        };
        // Find a swapped-out pair whose fault-in succeeds (a victim frame
        // exists): after the fault the GPU subscribes again and later loads
        // hit the restored local replica.
        let mut swapped: Vec<(GpuId, Vpn)> = p.evicted.iter().copied().collect();
        swapped.sort();
        let mut swapped_in = false;
        for (gpu, vpn) in swapped {
            let line = vpn.first_line(PageSize::Standard64K);
            match p.route_load(gpu, line, &mut c) {
                LoadRoute::StallThenLocal { ready } => {
                    assert!(ready > Cycle::ZERO);
                    assert!(
                        !p.evicted.contains(&(gpu, vpn)),
                        "a swapped-in page is resident"
                    );
                    let again = p.route_load(gpu, line, &mut c);
                    assert!(
                        matches!(again, LoadRoute::Local),
                        "after the swap-in the load is local, got {again:?}"
                    );
                    swapped_in = true;
                    break;
                }
                LoadRoute::StallThenRemote { ready, .. } => {
                    // No evictable frame: the page stays swapped out and
                    // this iteration's accesses go remote.
                    assert!(ready > Cycle::ZERO);
                }
                other => panic!("touching a swapped-out replica pays a fault, got {other:?}"),
            }
        }
        assert!(
            swapped_in,
            "at least one refault must swap its page back in"
        );
        assert!(
            p.metrics()
                .iter()
                .find(|(k, _)| k == names::REFAULTS)
                .unwrap()
                .1
                >= 1.0
        );
        // Every page still has at least one replica somewhere.
        assert_eq!(p.system().unwrap().subscriber_histogram()[0], 0);
    }

    #[test]
    fn back_to_back_refaults_serialise_through_the_fault_queue() {
        let mut p = pressured();
        let mut swapped: Vec<(GpuId, Vpn)> = p.evicted.iter().copied().collect();
        swapped.sort();
        let gpu = swapped[0].0;
        let on_gpu: Vec<Vpn> = swapped
            .iter()
            .filter(|&&(g, _)| g == gpu)
            .map(|&(_, v)| v)
            .collect();
        let mut f = Fabric::new(FabricConfig::new(4, LinkGen::Pcie3));
        let mut c = MemCtx {
            now: Cycle::ZERO,
            fabric: &mut f,
            page_size: PageSize::Standard64K,
        };
        let mut last_ready = Cycle::ZERO;
        let mut faults = 0;
        for vpn in on_gpu {
            if !p.evicted.contains(&(gpu, vpn)) {
                continue; // displaced set changed as pages swapped in
            }
            let route = p.route_load(gpu, vpn.first_line(PageSize::Standard64K), &mut c);
            let ready = match route {
                LoadRoute::StallThenLocal { ready } => ready,
                LoadRoute::StallThenRemote { ready, .. } => ready,
                other => panic!("swapped-out page must fault, got {other:?}"),
            };
            assert!(
                ready > last_ready,
                "each fault queues behind the previous one"
            );
            last_ready = ready;
            faults += 1;
        }
        assert!(faults >= 1, "at least one swapped-out page must fault");
    }
}
