//! The assembled GPS machine: per-GPU hardware units around the shared
//! driver state — the store/load pipeline of Figure 7.

use gps_interconnect::Fabric;
use gps_mem::VictimPolicy;
use gps_types::{
    Cycle, GpsError, GpuId, LineAddr, PageSize, Result, Scope, Vpn, CACHE_LINE_BYTES, GIB,
};

use crate::atu::AccessTrackingUnit;
use crate::config::{GpsConfig, ProfilingMode};
use crate::gps_tlb::GpsTlb;
use crate::runtime::{AllocationKind, DriverView, EvictionOutcome, GpsRuntime};
use crate::unit::GpsUnit;

/// How a store interacts with GPS (the W1–W6 path of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpsStore {
    /// The page is conventional and locally owned (or not GPS-managed):
    /// an ordinary local store.
    Local,
    /// The page is conventional but owned by another GPU (e.g. downgraded
    /// after unsubscription): a peer store to the owner.
    RemoteOwner {
        /// The owning GPU.
        to: GpuId,
    },
    /// A GPS page: the local replica is written and replication to remote
    /// subscribers has been coalesced or booked internally.
    Replicated,
    /// A sys-scoped store hit a GPS page: the page collapsed to a single
    /// conventional copy (§5.3) and the warp stalls until `ready`.
    CollapseStall {
        /// When the fault resolves.
        ready: Cycle,
    },
}

/// How a load is serviced by GPS (the R1–R3 path of Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpsLoad {
    /// Served from the local replica (or the page is conventional and
    /// local): full local bandwidth.
    LocalReplica,
    /// The issuing GPU is not a subscriber but its own remote write queue
    /// holds the line: the value is forwarded (§5.1).
    Forwarded,
    /// Not a subscriber: the load issues remotely to a serving subscriber.
    RemoteFallback {
        /// The GPU that will service the read.
        from: GpuId,
    },
}

/// One GPS-equipped multi-GPU system: the [`GpsRuntime`] driver state plus
/// a [`GpsUnit`] (write queue and GPS-TLB) per GPU and the shared
/// [`AccessTrackingUnit`].
///
/// Each unit decides its GPU's accesses; the system applies the effects
/// it reports at once — broadcasts on the [`Fabric`], collapses on the
/// driver state. The object is deliberately independent of the simulation
/// engine and can equally be driven directly (see the crate examples).
#[derive(Debug)]
pub struct GpsSystem {
    config: GpsConfig,
    runtime: GpsRuntime,
    /// One per GPU, in GPU order; empty while detached to lane routers.
    units: Vec<GpsUnit>,
    atu: Option<AccessTrackingUnit>,
    /// Latest broadcast arrival booked by each GPU (visibility horizon).
    last_arrival: Vec<Cycle>,
    /// Figure 11 ablation: when `false`, `tracking_stop` prunes nothing and
    /// every GPS page stays all-to-all subscribed.
    subscription_enabled: bool,
}

impl GpsSystem {
    /// Creates a GPS system for `gpu_count` GPUs.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] for invalid hardware configurations.
    pub fn new(gpu_count: usize, page_size: PageSize, config: GpsConfig) -> Result<Self> {
        Self::with_memory(gpu_count, page_size, config, 16 * GIB)
    }

    /// Creates a GPS system whose GPUs each hold `dram_bytes` of physical
    /// memory — the oversubscription experiments size this below the
    /// subscription demand.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] for invalid hardware configurations.
    pub fn with_memory(
        gpu_count: usize,
        page_size: PageSize,
        config: GpsConfig,
        dram_bytes: u64,
    ) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            runtime: GpsRuntime::with_memory(gpu_count, page_size, dram_bytes),
            units: GpuId::all(gpu_count)
                .map(|gpu| GpsUnit::new(gpu, &config))
                .collect(),
            atu: None,
            last_arrival: vec![Cycle::ZERO; gpu_count],
            subscription_enabled: true,
        })
    }

    /// Disables subscription tracking (the "GPS without subscription"
    /// ablation of Figure 11): pages stay all-to-all subscribed.
    pub fn set_subscription_enabled(&mut self, enabled: bool) {
        self.subscription_enabled = enabled;
    }

    /// The driver/runtime state.
    pub fn runtime(&self) -> &GpsRuntime {
        &self.runtime
    }

    /// Mutable driver/runtime state (manual subscription management).
    pub fn runtime_mut(&mut self) -> &mut GpsRuntime {
        &mut self.runtime
    }

    /// Allocates an automatic GPS region (convenience for
    /// [`GpsRuntime::malloc_gps`]).
    ///
    /// # Errors
    ///
    /// Propagates allocation failures.
    pub fn malloc_gps(&mut self, bytes: u64) -> Result<gps_mem::VaRange> {
        self.runtime.malloc_gps(bytes, AllocationKind::Automatic)
    }

    /// Adopts an externally allocated shared range as an automatic GPS
    /// region (see [`GpsRuntime::register_region`]).
    ///
    /// # Errors
    ///
    /// Propagates registration failures.
    pub fn register_region(&mut self, range: gps_mem::VaRange) -> Result<()> {
        match self.config.profiling {
            ProfilingMode::SubscribedByDefault => self
                .runtime
                .register_region(range, AllocationKind::Automatic),
            ProfilingMode::UnsubscribedByDefault => {
                // Minimal backing: one replica; GPUs subscribe on their
                // first access during profiling (§3.2).
                self.runtime.register_region_with(
                    range,
                    AllocationKind::Automatic,
                    &[GpuId::new(0)],
                )
            }
        }
    }

    /// Turns on the eviction layer (see [`GpsRuntime::enable_eviction`]).
    pub fn enable_eviction(&mut self, policy: VictimPolicy) {
        self.runtime.enable_eviction(policy);
    }

    /// Adopts a shared range as an automatic GPS region under memory
    /// pressure: when a GPU's frames are exhausted the driver swaps out a
    /// victim replica instead of failing (§5.3 / §8).
    ///
    /// Invalidation ordering for each evicted replica: the GPS page table
    /// is updated first (inside the runtime), and only then is the stale
    /// wide entry shot down in *every* GPU's GPS-TLB — a re-walk after the
    /// shootdown therefore cannot re-cache the dropped broadcast target.
    /// RWQ entries are virtually addressed and translate against the
    /// updated table at drain time, so buffered stores simply stop
    /// broadcasting to the evicted replica; the evicting GPU's own loads
    /// re-fault to remote reads through [`GpsSystem::load`].
    ///
    /// # Errors
    ///
    /// As for [`GpsRuntime::register_region_evicting`].
    pub fn register_region_evicting(&mut self, range: gps_mem::VaRange) -> Result<EvictionOutcome> {
        let atu = &self.atu;
        let recently_used =
            |gpu: GpuId, vpn: Vpn| atu.as_ref().is_some_and(|a| a.accessed(gpu, vpn));
        let outcome = self.runtime.register_region_evicting(
            range,
            AllocationKind::Automatic,
            &recently_used,
        )?;
        for &(_, vpn) in &outcome.evicted {
            for unit in &mut self.units {
                unit.invalidate_translation(vpn);
            }
        }
        Ok(outcome)
    }

    /// Demand-fetches `gpu`'s replica of `vpn` after a §5.3 swap-out: the
    /// driver allocates a local frame (swapping out victims when the GPU's
    /// memory is full), re-subscribes the GPU, and then shoots down stale
    /// GPS-TLB entries for every page displaced — the same
    /// page-table-first, TLB-second ordering as
    /// [`GpsSystem::register_region_evicting`]. Returns the displaced
    /// `(gpu, page)` pairs; they access their page remotely until their own
    /// re-fault.
    ///
    /// # Errors
    ///
    /// As for [`GpsRuntime::fault_in`]: unknown pages, or no evictable
    /// frame on `gpu`.
    pub fn fault_in(&mut self, gpu: GpuId, vpn: Vpn) -> Result<Vec<(GpuId, Vpn)>> {
        let atu = &self.atu;
        let recently_used = |g: GpuId, v: Vpn| atu.as_ref().is_some_and(|a| a.accessed(g, v));
        let displaced = self.runtime.fault_in(vpn, gpu, &recently_used)?;
        for unit in &mut self.units {
            // The faulted page's subscriber mask changed too: wide entries
            // caching the old mask would skip the new replica on broadcast.
            unit.invalidate_translation(vpn);
            for &(_, v) in &displaced {
                unit.invalidate_translation(v);
            }
        }
        Ok(displaced)
    }

    /// Starts the profiling phase (`cuGPSTrackingStart`), sizing the access
    /// tracking bitmaps to the allocated GPS span.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Profiling`] on misuse or if nothing is
    /// allocated.
    pub fn tracking_start(&mut self) -> Result<()> {
        let (first, pages) = self.runtime.allocated_span().ok_or(GpsError::Profiling {
            reason: "no GPS allocations to profile".to_owned(),
        })?;
        let gpu_count = self.runtime.gpu_count();
        let atu = self
            .atu
            .get_or_insert_with(|| AccessTrackingUnit::new(gpu_count, first, pages));
        self.runtime.tracking_start(atu)
    }

    /// Ends the profiling phase (`cuGPSTrackingStop`), pruning
    /// subscriptions (unless disabled) and shooting down stale GPS-TLB
    /// entries. Returns the number of `(gpu, page)` unsubscriptions.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Profiling`] if tracking is not active.
    pub fn tracking_stop(&mut self) -> Result<usize> {
        let atu = self.atu.as_mut().ok_or(GpsError::Profiling {
            reason: "tracking not active".to_owned(),
        })?;
        if !self.subscription_enabled {
            // Ablation: observe but never prune.
            self.runtime.tracking_abort(atu)?;
            return Ok(0);
        }
        let removed = self.runtime.tracking_stop(atu)?;
        for unit in &mut self.units {
            unit.flush_translations();
        }
        Ok(removed.len())
    }

    /// Whether the profiling phase is recording.
    pub fn is_tracking(&self) -> bool {
        self.runtime.is_tracking()
    }

    /// Feeds a last-level conventional TLB miss to the access tracking
    /// unit (T1 in Figure 7).
    pub fn tlb_miss(&mut self, gpu: GpuId, vpn: Vpn) {
        if let Some(atu) = self.atu.as_mut() {
            atu.record(gpu, vpn);
        }
    }

    /// Routes one load (R-path of Figure 7).
    pub fn load(&mut self, gpu: GpuId, line: LineAddr) -> GpsLoad {
        let route = self.units[gpu.index()].load(self.runtime.view(), line);
        let vpn = line.vpn(self.runtime.page_size());
        if matches!(route, GpsLoad::RemoteFallback { .. }) && self.subscribes_on_touch(vpn) {
            // The read still goes remote, but subscribes the GPU for the
            // next ones.
            self.subscribe_touched(gpu, vpn);
            return self.units[gpu.index()].fallback(self.runtime.view(), vpn);
        }
        route
    }

    /// Subscribes `gpu` to `vpn` on its first touch and shoots down every
    /// unit's GPS-TLB entry for the page: its subscriber set changed, so a
    /// cached wide entry anywhere is stale.
    fn subscribe_touched(&mut self, gpu: GpuId, vpn: Vpn) {
        let _ = self.runtime.subscribe_page(vpn, gpu);
        for unit in &mut self.units {
            unit.invalidate_translation(vpn);
        }
    }

    /// Unsubscribed-by-default profiling (§3.2): while tracking, a GPU's
    /// first access to a non-collapsed GPS page subscribes it. Never runs
    /// on per-GPU lanes (the GPS policy keeps this mode on the reference
    /// lane).
    fn subscribes_on_touch(&self, vpn: Vpn) -> bool {
        self.config.profiling == ProfilingMode::UnsubscribedByDefault
            && self.runtime.is_tracking()
            && self
                .runtime
                .view()
                .page_state(vpn)
                .is_some_and(|s| s.collapsed.is_none())
    }

    /// Routes one store (W-path of Figure 7), booking any broadcast
    /// traffic on `fabric` and applying a sys-scoped collapse at once.
    pub fn store(
        &mut self,
        gpu: GpuId,
        line: LineAddr,
        scope: Scope,
        now: Cycle,
        fabric: &mut Fabric,
    ) -> GpsStore {
        let vpn = line.vpn(self.runtime.page_size());
        if self.subscribes_on_touch(vpn) && !self.runtime.view().is_subscriber(gpu, vpn) {
            self.subscribe_touched(gpu, vpn);
        }
        let Self {
            runtime,
            units,
            last_arrival,
            ..
        } = self;
        let view = runtime.view();
        let horizon = &mut last_arrival[gpu.index()];
        let route = units[gpu.index()].store(view, line, scope, now, &mut |line, at| {
            Self::broadcast(view, fabric, horizon, gpu, line, at)
        });
        if let GpsStore::CollapseStall { .. } = route {
            runtime.collapse_sys_store(units, gpu, vpn);
        }
        route
    }

    /// Routes one atomic: follows the store path but is never coalesced
    /// (§5.1, §7.4) — each atomic broadcasts to subscribers immediately.
    pub fn atomic(
        &mut self,
        gpu: GpuId,
        line: LineAddr,
        now: Cycle,
        fabric: &mut Fabric,
    ) -> GpsStore {
        let view = self.runtime.view();
        let horizon = &mut self.last_arrival[gpu.index()];
        self.units[gpu.index()].atomic(view, line, now, &mut |line, at| {
            Self::broadcast(view, fabric, horizon, gpu, line, at)
        })
    }

    /// Drains `gpu`'s remote write queue completely (sys-scoped fence or
    /// the implicit grid-end release) and returns when every outstanding
    /// broadcast from this GPU is visible.
    pub fn flush(&mut self, gpu: GpuId, now: Cycle, fabric: &mut Fabric) -> Cycle {
        let view = self.runtime.view();
        let horizon = &mut self.last_arrival[gpu.index()];
        self.units[gpu.index()].flush(view, now, &mut |line, at| {
            Self::broadcast(view, fabric, horizon, gpu, line, at)
        });
        self.last_arrival[gpu.index()].max(now)
    }

    /// Subscriber-count histogram (Figure 9).
    pub fn subscriber_histogram(&self) -> Vec<u64> {
        self.runtime.subscriber_histogram()
    }

    /// Aggregate remote-write-queue hit rate over *all* writes presented
    /// (plain stores and atomics) — the Figure 14 metric. Applications
    /// dominated by atomics therefore report ≈0.
    pub fn rwq_overall_hit_rate(&self) -> f64 {
        let mut hits = 0u64;
        let mut total = 0u64;
        for unit in &self.units {
            let s = unit.rwq_stats();
            hits += s.hits;
            total += s.hits + s.inserts + s.bypasses;
        }
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Mean GPS-TLB hit rate across GPUs that translated at least once.
    pub fn gps_tlb_hit_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .units
            .iter()
            .map(GpsUnit::tlb)
            .filter(|t| t.stats().lookups() > 0)
            .map(GpsTlb::hit_rate)
            .collect();
        if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        }
    }

    /// `gpu`'s GPS unit.
    pub fn unit(&self, gpu: GpuId) -> &GpsUnit {
        &self.units[gpu.index()]
    }

    /// Atomics broadcast uncoalesced so far.
    pub fn atomic_broadcasts(&self) -> u64 {
        self.units.iter().map(GpsUnit::atomic_broadcasts).sum()
    }

    /// Moves every GPU's [`GpsUnit`] out of the system, in GPU order, so
    /// the lane engine can give each per-GPU lane exclusive ownership of
    /// its own. Until [`GpsSystem::attach_lane_state`] returns them, the
    /// system holds no units: only its driver-state, access-tracking and
    /// broadcast paths ([`GpsSystem::publish_line`]) may run.
    pub fn detach_lane_state(&mut self) -> Vec<GpsUnit> {
        std::mem::take(&mut self.units)
    }

    /// Restores the units detached by [`GpsSystem::detach_lane_state`] (in
    /// GPU order) so aggregate statistics see the lanes' history.
    pub fn attach_lane_state(&mut self, units: Vec<GpsUnit>) {
        assert_eq!(units.len(), self.runtime.gpu_count(), "one unit per GPU");
        self.units = units;
    }

    /// Broadcasts one line `gpu`'s unit published, translated at
    /// `translated_at`, to the page's remote subscribers: one fabric
    /// transfer per replica, advancing the writer's visibility horizon.
    /// The lane engine calls this at each epoch barrier for the publishes
    /// its routers buffered during the window.
    pub fn publish_line(
        &mut self,
        gpu: GpuId,
        line: LineAddr,
        translated_at: Cycle,
        fabric: &mut Fabric,
    ) {
        let horizon = &mut self.last_arrival[gpu.index()];
        Self::broadcast(
            self.runtime.view(),
            fabric,
            horizon,
            gpu,
            line,
            translated_at,
        );
    }

    /// Books one published line (W6 of Figure 7) against the driver state
    /// in `view`.
    fn broadcast(
        view: &DriverView,
        fabric: &mut Fabric,
        horizon: &mut Cycle,
        gpu: GpuId,
        line: LineAddr,
        at: Cycle,
    ) {
        let Some(entry) = view.table().entry(line.vpn(view.page_size())) else {
            return;
        };
        for (dst, _) in entry.remote_replicas(gpu) {
            if let Ok(t) = fabric.transfer(gpu, dst, CACHE_LINE_BYTES, at) {
                *horizon = (*horizon).max(t.arrived);
            }
        }
    }

    /// The latest broadcast arrival `gpu` has booked so far (its release
    /// visibility horizon).
    pub fn visibility(&self, gpu: GpuId) -> Cycle {
        self.last_arrival[gpu.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_interconnect::{FabricConfig, LinkGen};
    use gps_types::PageSize;

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);
    const G2: GpuId = GpuId::new(2);
    const G3: GpuId = GpuId::new(3);

    fn system() -> (GpsSystem, Fabric) {
        let sys = GpsSystem::new(4, PageSize::Standard64K, GpsConfig::paper()).unwrap();
        let fabric = Fabric::new(FabricConfig::new(4, LinkGen::Pcie3));
        (sys, fabric)
    }

    #[test]
    fn subscriber_loads_are_local_and_stores_replicate() {
        let (mut sys, mut fabric) = system();
        let r = sys.malloc_gps(65536).unwrap();
        let line = r.base().line();
        assert_eq!(sys.load(G0, line), GpsLoad::LocalReplica);
        assert_eq!(
            sys.store(G0, line, Scope::Weak, Cycle::ZERO, &mut fabric),
            GpsStore::Replicated
        );
        // Still buffered: nothing on the wire yet.
        assert_eq!(fabric.counters().total_bytes(), 0);
        // Flush broadcasts to the 3 remote subscribers.
        sys.flush(G0, Cycle::ZERO, &mut fabric);
        assert_eq!(fabric.counters().total_bytes(), 3 * 128);
    }

    #[test]
    fn coalesced_stores_broadcast_once() {
        let (mut sys, mut fabric) = system();
        let r = sys.malloc_gps(65536).unwrap();
        let line = r.base().line();
        for _ in 0..100 {
            sys.store(G0, line, Scope::Weak, Cycle::ZERO, &mut fabric);
        }
        sys.flush(G0, Cycle::ZERO, &mut fabric);
        assert_eq!(
            fabric.counters().total_bytes(),
            3 * 128,
            "100 stores to one line must broadcast a single line"
        );
        assert!((sys.unit(G0).rwq_stats().hit_rate() - 0.99).abs() < 0.011);
    }

    #[test]
    fn watermark_drain_translates_and_broadcasts() {
        let cfg = GpsConfig::paper().with_rwq_entries(4);
        let mut sys = GpsSystem::new(2, PageSize::Standard64K, cfg).unwrap();
        let mut fabric = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3));
        let r = sys.malloc_gps(65536).unwrap();
        // Four distinct lines fill to the watermark (3); the 4th insert
        // pushes occupancy past it and drains the oldest.
        for i in 0..4 {
            sys.store(G0, r.line_at(i), Scope::Weak, Cycle::ZERO, &mut fabric);
        }
        assert_eq!(fabric.counters().total_bytes(), 128, "one line drained");
        assert_eq!(sys.unit(G0).rwq_stats().watermark_drains, 1);
    }

    #[test]
    fn tracking_prunes_and_saves_bandwidth() {
        let (mut sys, mut fabric) = system();
        let r = sys.malloc_gps(2 * 65536).unwrap();
        let p0 = r.base().vpn(PageSize::Standard64K);
        let p1 = p0.next();
        sys.tracking_start().unwrap();
        // Only GPUs 0 and 1 touch page 0; page 1 is touched by all.
        sys.tlb_miss(G0, p0);
        sys.tlb_miss(G1, p0);
        for g in [G0, G1, G2, G3] {
            sys.tlb_miss(g, p1);
        }
        let pruned = sys.tracking_stop().unwrap();
        assert_eq!(pruned, 2, "page0 loses G2 and G3");

        // A store to page 0 now reaches one remote subscriber, not three.
        sys.store(G0, r.base().line(), Scope::Weak, Cycle::ZERO, &mut fabric);
        sys.flush(G0, Cycle::ZERO, &mut fabric);
        assert_eq!(fabric.counters().total_bytes(), 128);

        // Figure 9 data: one 2-subscriber page, one 4-subscriber page.
        let hist = sys.subscriber_histogram();
        assert_eq!(hist[2], 1);
        assert_eq!(hist[4], 1);
    }

    #[test]
    fn ablation_keeps_all_to_all() {
        let (mut sys, mut fabric) = system();
        sys.set_subscription_enabled(false);
        let r = sys.malloc_gps(65536).unwrap();
        sys.tracking_start().unwrap();
        sys.tlb_miss(G0, r.base().vpn(PageSize::Standard64K));
        let pruned = sys.tracking_stop().unwrap();
        assert_eq!(pruned, 0);
        sys.store(G0, r.base().line(), Scope::Weak, Cycle::ZERO, &mut fabric);
        sys.flush(G0, Cycle::ZERO, &mut fabric);
        assert_eq!(fabric.counters().total_bytes(), 3 * 128);
    }

    #[test]
    fn non_subscriber_load_falls_back_remotely_without_fault() {
        let (mut sys, _fabric) = system();
        let r = sys.malloc_gps(65536).unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        sys.runtime_mut().unsubscribe_page(vpn, G3).unwrap();
        match sys.load(G3, r.base().line()) {
            GpsLoad::RemoteFallback { from } => assert_ne!(from, G3),
            other => panic!("expected remote fallback, got {other:?}"),
        }
    }

    #[test]
    fn rwq_forwards_to_non_subscriber_loads() {
        let (mut sys, mut fabric) = system();
        let r = sys.malloc_gps(65536).unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        sys.runtime_mut().unsubscribe_page(vpn, G3).unwrap();
        // G3 writes the line (non-subscriber store still replicates) and
        // then reads it back while it is buffered: forwarded.
        let line = r.base().line();
        sys.store(G3, line, Scope::Weak, Cycle::ZERO, &mut fabric);
        assert_eq!(sys.load(G3, line), GpsLoad::Forwarded);
        sys.flush(G3, Cycle::ZERO, &mut fabric);
        assert_ne!(sys.load(G3, line), GpsLoad::Forwarded);
    }

    #[test]
    fn sys_scoped_store_collapses_page() {
        let (mut sys, mut fabric) = system();
        let r = sys.malloc_gps(65536).unwrap();
        let line = r.base().line();
        let vpn = r.base().vpn(PageSize::Standard64K);
        // Buffer a weak store first; the collapse must invalidate it.
        sys.store(G1, line, Scope::Weak, Cycle::ZERO, &mut fabric);
        match sys.store(G0, line, Scope::Sys, Cycle::new(100), &mut fabric) {
            GpsStore::CollapseStall { ready } => {
                assert_eq!(ready, Cycle::new(100) + GpsConfig::paper().collapse_latency);
            }
            other => panic!("expected collapse, got {other:?}"),
        }
        let state = sys.runtime().view().page_state(vpn).unwrap();
        assert_eq!(state.collapsed, Some(G0));
        assert!(!state.gps_bit);
        // G1's buffered store was invalidated: flushing moves nothing.
        sys.flush(G1, Cycle::new(200), &mut fabric);
        assert_eq!(fabric.counters().total_bytes(), 0);
        // Subsequent stores by others go to the owner as peer stores.
        assert_eq!(
            sys.store(G2, line, Scope::Weak, Cycle::new(300), &mut fabric),
            GpsStore::RemoteOwner { to: G0 }
        );
        // And the owner stores locally.
        assert_eq!(
            sys.store(G0, line, Scope::Weak, Cycle::new(300), &mut fabric),
            GpsStore::Local
        );
    }

    #[test]
    fn atomics_broadcast_uncoalesced() {
        let (mut sys, mut fabric) = system();
        let r = sys.malloc_gps(65536).unwrap();
        let line = r.base().line();
        for _ in 0..5 {
            sys.atomic(G0, line, Cycle::ZERO, &mut fabric);
        }
        // 5 atomics x 3 subscribers, no coalescing.
        assert_eq!(fabric.counters().total_bytes(), 5 * 3 * 128);
        assert_eq!(sys.atomic_broadcasts(), 5);
        assert_eq!(sys.rwq_overall_hit_rate(), 0.0);
    }

    #[test]
    fn non_gps_lines_pass_through() {
        let (mut sys, mut fabric) = system();
        let line = LineAddr::new(42); // outside any GPS allocation
        assert_eq!(sys.load(G0, line), GpsLoad::LocalReplica);
        assert_eq!(
            sys.store(G0, line, Scope::Weak, Cycle::ZERO, &mut fabric),
            GpsStore::Local
        );
        assert_eq!(fabric.counters().total_bytes(), 0);
    }

    #[test]
    fn flush_reports_visibility_horizon() {
        let (mut sys, mut fabric) = system();
        let r = sys.malloc_gps(65536).unwrap();
        sys.store(G0, r.base().line(), Scope::Weak, Cycle::ZERO, &mut fabric);
        let done = sys.flush(G0, Cycle::new(10), &mut fabric);
        assert!(done > Cycle::new(10), "broadcast takes fabric time");
        // Idempotent: a second flush with nothing buffered returns now.
        let again = sys.flush(G0, Cycle::new(1_000_000), &mut fabric);
        assert_eq!(again, Cycle::new(1_000_000));
    }

    #[test]
    fn unsubscribed_by_default_subscribes_on_first_read() {
        let mut cfg = GpsConfig::paper();
        cfg.profiling = ProfilingMode::UnsubscribedByDefault;
        let mut sys = GpsSystem::new(3, PageSize::Standard64K, cfg).unwrap();
        let r = sys
            .runtime_mut()
            .malloc_gps(65536, AllocationKind::Manual)
            .unwrap();
        // A second subscriber makes the page a GPS page, so G0's stores
        // drain through its GPS-TLB.
        sys.runtime_mut()
            .mem_advise(&r, G2, crate::runtime::MemAdvise::Subscribe)
            .unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        sys.tracking_start().unwrap();
        // G0's next translation of the page, tried on a copy of its GPS-TLB.
        let g0_translation = |sys: &GpsSystem| {
            let mut tlb = sys.unit(G0).tlb().clone();
            let (entry, at) = tlb.translate(vpn, sys.runtime().view().table(), Cycle::ZERO);
            (entry.map(|pte| pte.subscriber_count()), at)
        };
        // G0 drains a store to the page, caching its wide entry.
        let mut fabric = Fabric::new(FabricConfig::new(3, LinkGen::Pcie3));
        sys.store(G0, r.base().line(), Scope::Weak, Cycle::ZERO, &mut fabric);
        sys.flush(G0, Cycle::ZERO, &mut fabric);
        assert_eq!(g0_translation(&sys), (Some(2), Cycle::ZERO));
        // G1 is not subscribed (manual alloc backs G0, advice G2); its first read
        // goes remote but subscribes it for the future.
        match sys.load(G1, r.base().line()) {
            GpsLoad::RemoteFallback { from } => assert_eq!(from, G0),
            other => panic!("{other:?}"),
        }
        assert!(sys.runtime().view().is_subscriber(G1, vpn));
        assert_eq!(sys.load(G1, r.base().line()), GpsLoad::LocalReplica);
        // The subscriber set changed, so G0's entry was shot down too: its
        // next translation walks and sees the new replica.
        let walk = Cycle::ZERO + GpsConfig::paper().gps_tlb_walk_latency;
        assert_eq!(g0_translation(&sys), (Some(3), walk));
    }
}
