//! Remote demand loads: the converse of GPS (§6).

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use gps_interconnect::Fabric;
use gps_obs::ProbeHandle;
use gps_sim::{
    LaneMode, LaneRouter, LoadRoute, MemCtx, MemoryPolicy, SharedIndex, SimConfig, StoreRoute,
    Workload,
};
use gps_types::{Cycle, GpuId, LineAddr, Scope, Vpn};

/// The last GPU to store to each shared page.
type Writers = BTreeMap<Vpn, GpuId>;

/// Shared-line loads by where they went (private lines are not counted).
#[derive(Debug, Default, Clone, Copy)]
struct LoadCounts {
    remote: u64,
    local: u64,
}

/// The last-writer rule, shared by the eager hooks and [`RdlLaneRouter`]:
/// a load of a shared line by `gpu` goes to the GPU that last wrote its
/// page (`writer_of`), and stays local when `gpu` wrote it last or nobody
/// has. Returns the GPU to read from remotely.
fn last_writer_route(
    index: &SharedIndex,
    gpu: GpuId,
    line: LineAddr,
    writer_of: impl FnOnce(Vpn) -> Option<GpuId>,
    loads: &mut LoadCounts,
) -> Option<GpuId> {
    if !index.is_shared(line) {
        return None;
    }
    let remote = writer_of(line.vpn(index.page_size())).filter(|&w| w != gpu);
    if remote.is_some() {
        loads.remote += 1;
    } else {
        loads.local += 1;
    }
    remote
}

/// Remote Demand Loads.
///
/// "While GPS performs all loads locally by issuing the stores to all
/// subscribers, RDL performs the converse: it issues stores to local memory
/// and loads to the most recent GPU to issue a store to a given page. We
/// believe that this paradigm is representative of an expert programmer who
/// manually tracks writers to each page" (§6). The simulator tracks the
/// latest writer per page exactly as the paper's does.
///
/// Remote loads stall the issuing warp for the interconnect round trip
/// unless enough warp parallelism hides it — which is why RDL "performs
/// well for applications where multi-threading is sufficient to hide remote
/// load latencies; however, for others, these loads lie in the critical
/// path" (§7.1).
#[derive(Debug, Default)]
pub struct RdlPolicy {
    index: Option<SharedIndex>,
    gpu_count: usize,
    /// Written by each store on the reference lane, or at each window
    /// barrier on the epoch tier, where the routers share it read-only.
    last_writer: Arc<Writers>,
    /// Parked in the routers while a barrier updates `last_writer`, so the
    /// map is updated in place rather than copied.
    parked: Arc<Writers>,
    loads: LoadCounts,
}

impl RdlPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The concrete router behind one of the engine's trait objects.
fn rdl_router(router: &mut dyn LaneRouter) -> &mut RdlLaneRouter {
    router
        .as_any_mut()
        .downcast_mut()
        // gps-lint: allow(no_expect) -- RdlPolicy::lane_routers builds every router of an RDL lane run; a foreign type is an engine bug
        .expect("foreign router in an RDL lane run")
}

impl MemoryPolicy for RdlPolicy {
    fn name(&self) -> &'static str {
        "rdl"
    }

    fn init(&mut self, workload: &Workload, config: &SimConfig) {
        self.index = Some(workload.index());
        self.gpu_count = config.gpu_count;
    }

    /// Per-GPU lanes route through `RdlLaneRouter`s, bounded-stale by
    /// one conservative window.
    fn lane_mode(&self) -> LaneMode {
        LaneMode::Epochs
    }

    fn route_load(&mut self, gpu: GpuId, line: LineAddr, _ctx: &mut MemCtx<'_>) -> LoadRoute {
        let Some(index) = &self.index else {
            return LoadRoute::Local;
        };
        let writers = &self.last_writer;
        let writer_of = |vpn| writers.get(&vpn).copied();
        match last_writer_route(index, gpu, line, writer_of, &mut self.loads) {
            Some(from) => LoadRoute::Remote { from },
            None => LoadRoute::Local,
        }
    }

    fn route_store(
        &mut self,
        gpu: GpuId,
        line: LineAddr,
        _scope: Scope,
        ctx: &mut MemCtx<'_>,
    ) -> StoreRoute {
        if self.index.as_ref().is_some_and(|i| i.is_shared(line)) {
            Arc::make_mut(&mut self.last_writer).insert(ctx.vpn_of(line), gpu);
        }
        StoreRoute::Local
    }

    fn lane_routers(&mut self) -> Vec<Box<dyn LaneRouter>> {
        let Some(index) = &self.index else {
            return Vec::new();
        };
        (0..self.gpu_count)
            .map(|g| {
                Box::new(RdlLaneRouter {
                    gpu: GpuId::new(g as u16),
                    index: index.clone(),
                    writers: Arc::clone(&self.last_writer),
                    overlay: BTreeSet::new(),
                    writes: Vec::new(),
                    loads: LoadCounts::default(),
                }) as Box<dyn LaneRouter>
            })
            .collect()
    }

    /// Merges every router's buffered writes into the last-writer map in
    /// `(cycle, gpu, program order)` order and hands the routers the new
    /// snapshot. The overlays are cleared: their pages now sit in the map
    /// at their true merge rank, so a peer's later write steals the page.
    /// RDL releases never wait, so the visibility horizons are unused.
    fn lane_barrier(
        &mut self,
        routers: &mut [&mut dyn LaneRouter],
        _fabric: &mut Fabric,
    ) -> Vec<Cycle> {
        let mut rs: Vec<&mut RdlLaneRouter> =
            routers.iter_mut().map(|r| rdl_router(&mut **r)).collect();
        let mut writes: Vec<(Cycle, GpuId, Vpn)> = Vec::new();
        for r in rs.iter_mut() {
            let gpu = r.gpu;
            writes.extend(r.writes.drain(..).map(|(t, vpn)| (t, gpu, vpn)));
            r.overlay.clear();
        }
        if !writes.is_empty() {
            // Stable, so one router's writes keep their program order.
            writes.sort_by_key(|&(t, gpu, _)| (t, gpu));
            for r in rs.iter_mut() {
                r.writers = Arc::clone(&self.parked);
            }
            let map = Arc::make_mut(&mut self.last_writer);
            for (_, gpu, vpn) in writes {
                map.insert(vpn, gpu);
            }
            for r in rs.iter_mut() {
                r.writers = Arc::clone(&self.last_writer);
            }
        }
        vec![Cycle::ZERO; rs.len()]
    }

    fn absorb_lane_routers(&mut self, routers: Vec<Box<dyn LaneRouter>>) {
        for mut router in routers {
            let loads = rdl_router(router.as_mut()).loads;
            self.loads.remote += loads.remote;
            self.loads.local += loads.local;
        }
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("rdl_remote_loads".to_owned(), self.loads.remote as f64),
            ("rdl_local_loads".to_owned(), self.loads.local as f64),
        ]
    }
}

/// RDL's per-GPU router on the epoch tier: loads follow the last-writer
/// map as of the previous barrier, except that the GPU's own writes since
/// are visible to it at once; a peer's write shows only after the barrier
/// merges it. Stores complete locally and are recorded for the merge.
pub(crate) struct RdlLaneRouter {
    gpu: GpuId,
    index: SharedIndex,
    /// The policy's last-writer map as of the previous barrier.
    writers: Arc<Writers>,
    /// Shared pages this GPU wrote since the previous barrier.
    overlay: BTreeSet<Vpn>,
    /// Those writes in program order, `(cycle, page)`.
    writes: Vec<(Cycle, Vpn)>,
    loads: LoadCounts,
}

impl RdlLaneRouter {
    fn record_write(&mut self, line: LineAddr, now: Cycle) -> StoreRoute {
        if self.index.is_shared(line) {
            let vpn = line.vpn(self.index.page_size());
            self.overlay.insert(vpn);
            self.writes.push((now, vpn));
        }
        StoreRoute::Local
    }
}

impl LaneRouter for RdlLaneRouter {
    fn attach_probe(&mut self, _probe: ProbeHandle) {}

    fn load(&mut self, line: LineAddr) -> LoadRoute {
        let (gpu, overlay, writers) = (self.gpu, &self.overlay, &self.writers);
        let writer_of = |vpn| match overlay.contains(&vpn) {
            true => Some(gpu),
            false => writers.get(&vpn).copied(),
        };
        match last_writer_route(&self.index, gpu, line, writer_of, &mut self.loads) {
            Some(from) => LoadRoute::Remote { from },
            None => LoadRoute::Local,
        }
    }

    fn store(&mut self, line: LineAddr, _scope: Scope, now: Cycle) -> StoreRoute {
        self.record_write(line, now)
    }

    fn atomic(&mut self, line: LineAddr, now: Cycle) -> StoreRoute {
        self.record_write(line, now)
    }

    fn tlb_miss(&mut self, _vpn: Vpn, _now: Cycle) {}

    fn flush(&mut self, _now: Cycle) -> bool {
        false
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
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

    /// An initialised policy over `gpus` GPUs whose workload holds two
    /// shared pages and a private one; returns a line of each.
    fn policy(gpus: usize) -> (RdlPolicy, [LineAddr; 3]) {
        let ps = PageSize::Standard64K;
        let mut b = gps_sim::WorkloadBuilder::new("t", ps, gpus);
        let shared = b.alloc_shared("s", 2 * ps.bytes()).unwrap().base().line();
        let private = b.alloc_private("p", ps.bytes()).unwrap().base().line();
        b.phase(vec![gps_sim::KernelSpec {
            name: "k".into(),
            gpu: G0,
            cta_count: 1,
            warps_per_cta: 1,
            program: Arc::new(|_: gps_sim::WarpCtx| vec![gps_sim::WarpInstr::Compute(1)]),
        }]);
        let mut p = RdlPolicy::new();
        p.init(&b.build(1).unwrap(), &SimConfig::gv100_system(gpus));
        (p, [shared, shared.offset(ps.lines()), private])
    }

    fn fabric(gpus: usize) -> Fabric {
        Fabric::new(FabricConfig::new(gpus, LinkGen::Pcie3))
    }

    fn ctx(fabric: &mut Fabric) -> MemCtx<'_> {
        MemCtx {
            now: Cycle::ZERO,
            fabric,
            page_size: PageSize::Standard64K,
        }
    }

    fn barrier(p: &mut RdlPolicy, routers: &mut [Box<dyn LaneRouter>]) {
        let mut fabric = fabric(routers.len());
        let mut refs: Vec<&mut dyn LaneRouter> = routers.iter_mut().map(|r| &mut **r).collect();
        p.lane_barrier(&mut refs, &mut fabric);
    }

    #[test]
    fn loads_follow_the_last_writer() {
        let (mut p, [s, ..]) = policy(2);
        let mut fabric = fabric(2);
        let mut c = ctx(&mut fabric);
        // Untouched page: local.
        assert_eq!(p.route_load(G1, s, &mut c), LoadRoute::Local);
        // G0 writes; G1's loads go to G0.
        p.route_store(G0, s, Scope::Weak, &mut c);
        assert_eq!(p.route_load(G1, s, &mut c), LoadRoute::Remote { from: G0 });
        // The writer itself reads locally.
        assert_eq!(p.route_load(G0, s, &mut c), LoadRoute::Local);
        // Ownership follows the most recent writer.
        p.route_store(G1, s, Scope::Weak, &mut c);
        assert_eq!(p.route_load(G0, s, &mut c), LoadRoute::Remote { from: G1 });
        assert_eq!(p.metrics()[0].1, 2.0);
    }

    #[test]
    fn stores_never_leave_the_gpu() {
        let (mut p, [s, ..]) = policy(2);
        let mut fabric = fabric(2);
        let mut c = ctx(&mut fabric);
        assert_eq!(p.route_store(G0, s, Scope::Weak, &mut c), StoreRoute::Local);
        assert_eq!(c.fabric.counters().total_bytes(), 0);
    }

    #[test]
    fn a_gpus_own_write_is_visible_to_it_inside_the_window() {
        let (mut p, [a, ..]) = policy(2);
        let mut rs = p.lane_routers();
        rs[0].store(a, Scope::Weak, Cycle::new(3));
        barrier(&mut p, &mut rs);
        assert_eq!(rs[1].load(a), LoadRoute::Remote { from: G0 });
        // G1 writes: its own loads turn local at once, though the snapshot
        // still names G0.
        assert_eq!(rs[1].atomic(a, Cycle::new(9)), StoreRoute::Local);
        assert_eq!(rs[1].load(a), LoadRoute::Local);
    }

    #[test]
    fn a_peer_write_is_invisible_until_the_barrier() {
        let (mut p, [a, ..]) = policy(2);
        let mut rs = p.lane_routers();
        assert_eq!(
            rs[0].store(a, Scope::Weak, Cycle::new(3)),
            StoreRoute::Local
        );
        assert_eq!(rs[1].load(a), LoadRoute::Local);
        barrier(&mut p, &mut rs);
        assert_eq!(rs[1].load(a), LoadRoute::Remote { from: G0 });
        assert_eq!(rs[0].load(a), LoadRoute::Local);
    }

    #[test]
    fn the_merge_takes_the_later_cycle_then_the_higher_gpu() {
        let (mut p, [a, b, _]) = policy(3);
        let mut rs = p.lane_routers();
        // Page a: the later cycle wins over the higher GPU.
        rs[1].store(a, Scope::Weak, Cycle::new(5));
        rs[0].store(a, Scope::Weak, Cycle::new(9));
        // Page b: equal cycles, the higher GPU wins.
        rs[1].store(b, Scope::Weak, Cycle::new(7));
        rs[0].store(b, Scope::Weak, Cycle::new(7));
        barrier(&mut p, &mut rs);
        assert_eq!(rs[2].load(a), LoadRoute::Remote { from: G0 });
        assert_eq!(rs[2].load(b), LoadRoute::Remote { from: G1 });
        assert_eq!(rs[1].load(a), LoadRoute::Remote { from: G0 });
        assert_eq!(rs[0].load(b), LoadRoute::Remote { from: G1 });
    }

    #[test]
    fn eager_routing_and_the_router_agree_without_a_barrier_in_between() {
        let (mut eager, [a, b, private]) = policy(3);
        let (mut laned, _) = policy(3);
        let mut rs = laned.lane_routers();
        let mut fabric = fabric(3);
        let mut c = ctx(&mut fabric);
        // The same starting map: G0 wrote page a.
        eager.route_store(G0, a, Scope::Weak, &mut c);
        rs[0].store(a, Scope::Weak, Cycle::ZERO);
        barrier(&mut laned, &mut rs);
        // One window in which each page has at most one writer, so no
        // load can see a peer's write pending: (gpu, line, is a store).
        let script = [
            (G1, a, false),
            (G1, private, false),
            (G1, private, true),
            (G2, b, false),
            (G2, b, true),
            (G2, b, false),
            (G0, a, false),
            (G2, a, false),
        ];
        for (i, (gpu, line, store)) in script.into_iter().enumerate() {
            let router = &mut rs[gpu.index()];
            if store {
                eager.route_store(gpu, line, Scope::Weak, &mut c);
                router.store(line, Scope::Weak, Cycle::new(i as u64));
                continue;
            }
            let laned_route = router.load(line);
            assert_eq!(eager.route_load(gpu, line, &mut c), laned_route, "step {i}");
        }
        laned.absorb_lane_routers(rs);
        assert_eq!(laned.metrics(), eager.metrics());
        // Two remote and three local shared loads; the private line is
        // never counted.
        assert_eq!(eager.metrics()[0].1, 2.0);
        assert_eq!(eager.metrics()[1].1, 3.0);
    }
}
