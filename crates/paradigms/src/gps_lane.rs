//! GPS on the conservative lane tier: per-GPU routers for
//! [`gps_sim::LaneMode::Epochs`].
//!
//! A router is a thin adapter around its GPU's [`GpsUnit`] (write queue
//! and GPS-TLB, detached from the [`GpsSystem`]) and a shared
//! [`DriverView`]. The unit makes every routing decision — the same code
//! the reference lane runs through [`GpsSystem::load`] and friends — and
//! the router *buffers* each cross-GPU effect it reports instead of
//! applying it: broadcast publishes, peer stores to conventional pages,
//! sys-scoped collapses, plus access-tracking records. [`apply_barrier`]
//! drains the buffers at each epoch barrier and applies them to the shared
//! system and fabric in `(cycle, gpu, program order)` order, making the
//! run deterministic and worker-count-invariant.
//!
//! Semantics vs the reference lane: a subscriber sees a peer's publish
//! only after the barrier that applies it (bounded staleness of at most
//! one window — the fabric's minimum cross-GPU latency), and the driver
//! state a router routes from is at most one window old. Timing-wise the
//! same broadcasts hit the same fabric; their interleave differs, so the
//! tier is pinned by worker-count invariance and its own golden reports,
//! with subscription metrics (exact by construction) cross-checked
//! against the reference lane.

use std::any::Any;
use std::sync::Arc;

use gps_core::{DriverView, GpsStore, GpsSystem, GpsUnit};
use gps_interconnect::Fabric;
use gps_obs::{names, ProbeHandle, Track};
use gps_sim::{LaneRouter, LoadRoute, StoreRoute};
use gps_types::{Cycle, GpuId, LineAddr, Scope, Vpn, CACHE_LINE_BYTES};

use crate::gps_policy::{emit_rwq_delta, load_route, store_route};

/// One buffered cross-lane effect.
#[derive(Clone, Copy)]
enum LaneEffect {
    /// Broadcast `line` to the writer's remote subscribers (the GPS-TLB
    /// translation already happened lane-side).
    Publish { line: LineAddr },
    /// Peer store to a conventional page owned by `to` (one line-sized
    /// transfer; the fabric booking doesn't carry the address).
    Peer { to: GpuId },
    /// Sys-scoped store: collapse the page to one owner.
    Collapse { vpn: Vpn },
}

/// The per-GPU router handed to the lane engine.
pub(crate) struct GpsLaneRouter {
    unit: GpsUnit,
    /// The driver state as of the last barrier that changed it.
    view: Arc<DriverView>,
    probe: ProbeHandle,
    /// This window's cross-lane effects `(cycle, effect)`, in program
    /// order.
    effects: Vec<(Cycle, LaneEffect)>,
    /// Conventional-TLB misses for the access tracking unit, in lane
    /// order.
    atu: Vec<Vpn>,
}

impl GpsLaneRouter {
    pub(crate) fn new(unit: GpsUnit, view: Arc<DriverView>) -> Self {
        GpsLaneRouter {
            unit,
            view,
            probe: ProbeHandle::disabled(),
            effects: Vec::new(),
            atu: Vec::new(),
        }
    }

    /// Returns the GPU's unit so the policy can restore it into the
    /// system.
    pub(crate) fn into_unit(self) -> GpsUnit {
        self.unit
    }

    /// Routes one store (`Some(scope)`) or atomic (`None`) through the
    /// unit, buffering the publishes, peer store or collapse it reports.
    fn write(&mut self, line: LineAddr, scope: Option<Scope>, now: Cycle) -> StoreRoute {
        let before = self.probe.is_enabled().then(|| self.unit.rwq_stats());
        let Self {
            unit,
            view,
            effects,
            ..
        } = self;
        let mut publish = |line, at| effects.push((at, LaneEffect::Publish { line }));
        let route = match scope {
            Some(scope) => unit.store(view, line, scope, now, &mut publish),
            None => unit.atomic(view, line, now, &mut publish),
        };
        match route {
            GpsStore::RemoteOwner { to } => effects.push((now, LaneEffect::Peer { to })),
            GpsStore::CollapseStall { .. } => {
                let vpn = line.vpn(view.page_size());
                effects.push((now, LaneEffect::Collapse { vpn }));
            }
            GpsStore::Local | GpsStore::Replicated => {}
        }
        if let Some(before) = before {
            emit_rwq_delta(&self.probe, &self.unit, before, now);
        }
        store_route(route)
    }
}

impl LaneRouter for GpsLaneRouter {
    fn attach_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    fn load(&mut self, line: LineAddr) -> LoadRoute {
        load_route(self.unit.load(&self.view, line))
    }

    fn store(&mut self, line: LineAddr, scope: Scope, now: Cycle) -> StoreRoute {
        self.write(line, Some(scope), now)
    }

    fn atomic(&mut self, line: LineAddr, now: Cycle) -> StoreRoute {
        self.write(line, None, now)
    }

    fn tlb_miss(&mut self, vpn: Vpn, now: Cycle) {
        self.probe.counter(
            Track::gpu(self.unit.gpu().index()),
            names::ATU_TLB_MISS,
            now,
            1.0,
        );
        self.atu.push(vpn);
    }

    /// Queues the full write-queue drain; the release waits for the
    /// barrier's broadcast-visibility horizon.
    fn flush(&mut self, now: Cycle) -> bool {
        let Self {
            unit,
            view,
            effects,
            ..
        } = self;
        unit.flush(view, now, &mut |line, at| {
            effects.push((at, LaneEffect::Publish { line }))
        });
        true
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Downcasts the engine's trait objects back to [`GpsLaneRouter`]s.
fn concrete<'r>(routers: &'r mut [&mut dyn LaneRouter]) -> Vec<&'r mut GpsLaneRouter> {
    routers
        .iter_mut()
        .map(|r| {
            r.as_any_mut()
                .downcast_mut::<GpsLaneRouter>()
                // gps-lint: allow(no_expect) -- lane runs construct every router as GpsLaneRouter; a foreign type is an engine bug
                .expect("foreign router in a GPS lane run")
        })
        .collect()
}

/// The GPS epoch barrier: drains every router's buffered effects and
/// applies them to the shared system and fabric in `(cycle, gpu, program
/// order)` order, feeds the buffered access-tracking records to the ATU, and
/// returns each GPU's broadcast-visibility horizon. Hands the routers the
/// new driver state if a collapse changed it.
pub(crate) fn apply_barrier(
    routers: &mut [&mut dyn LaneRouter],
    sys: &mut GpsSystem,
    fabric: &mut Fabric,
) -> Vec<Cycle> {
    let mut rs = concrete(routers);

    let mut all: Vec<(Cycle, GpuId, LaneEffect)> = Vec::new();
    for r in rs.iter_mut() {
        let gpu = r.unit.gpu();
        all.extend(r.effects.drain(..).map(|(t, effect)| (t, gpu, effect)));
    }
    // Stable, so one router's effects keep their program order.
    all.sort_by_key(|&(t, gpu, _)| (t, gpu));

    let mut collapsed = false;
    for (t, gpu, effect) in all {
        match effect {
            LaneEffect::Publish { line } => sys.publish_line(gpu, line, t, fabric),
            LaneEffect::Peer { to } => {
                // Same shape as the classic engine's peer store: one
                // line-sized transfer, failure (self-transfer) ignored.
                let _ = fabric.transfer(gpu, to, CACHE_LINE_BYTES, t);
            }
            LaneEffect::Collapse { vpn } => {
                let units = rs.iter_mut().map(|r| &mut r.unit);
                sys.runtime_mut().collapse_sys_store(units, gpu, vpn);
                collapsed = true;
            }
        }
    }

    // Access-tracking records observe driver state like the classic
    // engine's inline calls: strictly before the phase barrier that may
    // run `tracking_stop`.
    for r in rs.iter_mut() {
        let gpu = r.unit.gpu();
        for vpn in std::mem::take(&mut r.atu) {
            sys.tlb_miss(gpu, vpn);
        }
    }

    if collapsed {
        for r in rs.iter_mut() {
            r.view = sys.runtime().shared_view();
        }
    }

    (0..rs.len())
        .map(|g| sys.visibility(GpuId::new(g as u16)))
        .collect()
}

/// Phase-boundary resynchronisation: hands the routers the driver state
/// after the policy's phase hook (subscription pruning at `tracking_stop`)
/// and optionally flushes the lane GPS-TLBs (the classic engine's
/// shootdown on the subscription path).
pub(crate) fn phase_sync(routers: &mut [&mut dyn LaneRouter], sys: &GpsSystem, flush_tlbs: bool) {
    for r in concrete(routers) {
        if flush_tlbs {
            r.unit.flush_translations();
        }
        r.view = sys.runtime().shared_view();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GpsPolicy;
    use gps_core::GpsConfig;
    use gps_interconnect::{FabricConfig, LinkGen};
    use gps_sim::{MemCtx, MemoryPolicy, SimConfig};
    use gps_types::PageSize;

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);
    const G2: GpuId = GpuId::new(2);
    const PS: PageSize = PageSize::Standard64K;

    /// A 3-GPU GPS policy with a 4-entry write queue, profiled so that
    /// shared page `a` has subscribers G0 and G1, page `b` only G0 (a
    /// conventional page) and page `c` all three; returns lines of the
    /// three pages and of a private page.
    fn policy() -> (GpsPolicy, [LineAddr; 4]) {
        let mut b = gps_sim::WorkloadBuilder::new("t", PS, 3);
        let shared = b.alloc_shared("s", 3 * PS.bytes()).unwrap().base().line();
        let private = b.alloc_private("p", PS.bytes()).unwrap().base().line();
        b.phase(vec![gps_sim::KernelSpec {
            name: "k".into(),
            gpu: G0,
            cta_count: 1,
            warps_per_cta: 1,
            program: Arc::new(|_: gps_sim::WarpCtx| vec![gps_sim::WarpInstr::Compute(1)]),
        }]);
        let mut p = GpsPolicy::with_config(GpsConfig::paper().with_rwq_entries(4));
        p.init(&b.build(1).unwrap(), &SimConfig::gv100_system(3));
        let [a, b, c] = [0, 1, 2].map(|i| shared.offset(i * PS.lines()));
        let mut fabric = fabric();
        let mut ctx = ctx(&mut fabric);
        for (gpu, line) in [(G0, a), (G1, a), (G0, b), (G0, c), (G1, c), (G2, c)] {
            p.on_tlb_miss(gpu, line.vpn(PS), &mut ctx);
        }
        p.on_phase_end(0, &mut ctx);
        (p, [a, b, c, private])
    }

    fn fabric() -> Fabric {
        Fabric::new(FabricConfig::new(3, LinkGen::Pcie3))
    }

    fn ctx(fabric: &mut Fabric) -> MemCtx<'_> {
        MemCtx {
            now: Cycle::ZERO,
            fabric,
            page_size: PS,
        }
    }

    /// One scripted access and the route both shapes must take.
    #[derive(Clone, Copy)]
    enum Op {
        Load(LoadRoute),
        Store(StoreRoute),
        Atomic(StoreRoute),
    }

    #[test]
    fn eager_routing_and_the_router_agree_without_a_barrier_in_between() {
        let (mut eager, [a, b, c, private]) = policy();
        let (mut laned, _) = policy();
        let mut rs = laned.lane_routers();
        let (mut eager_fabric, mut laned_fabric) = (fabric(), fabric());
        let line = |i: u64| c.offset(i);
        let (local, replicated) = (StoreRoute::Local, StoreRoute::LocalReplicated);
        // One window: local and forwarded loads, remote fallbacks,
        // coalescing and two watermark drains, an uncoalesced atomic, a
        // peer store to a conventional page and private traffic.
        let script = [
            (G2, a, Op::Load(LoadRoute::Remote { from: G0 })),
            (G2, a, Op::Store(replicated)),
            (G2, a, Op::Load(LoadRoute::Forwarded)),
            (G0, a, Op::Load(LoadRoute::Local)),
            (G1, b, Op::Store(StoreRoute::Remote { to: G0 })),
            (G1, b, Op::Load(LoadRoute::Remote { from: G0 })),
            (G0, b, Op::Store(local)),
            (G0, line(0), Op::Store(replicated)),
            (G0, line(0), Op::Store(replicated)),
            (G0, line(1), Op::Store(replicated)),
            (G0, line(2), Op::Store(replicated)),
            (G0, line(3), Op::Store(replicated)),
            (G0, line(4), Op::Store(replicated)),
            (G1, line(5), Op::Atomic(replicated)),
            (G2, private, Op::Store(local)),
            (G2, private, Op::Load(LoadRoute::Local)),
        ];
        for (i, (gpu, line, op)) in script.into_iter().enumerate() {
            let mut c = ctx(&mut eager_fabric);
            c.now = Cycle::new(i as u64);
            let router = &mut rs[gpu.index()];
            let route = match op {
                Op::Load(want) => {
                    assert_eq!(eager.route_load(gpu, line, &mut c), want, "step {i}");
                    assert_eq!(router.load(line), want, "step {i}");
                    continue;
                }
                Op::Store(want) => {
                    let route = eager.route_store(gpu, line, Scope::Weak, &mut c);
                    assert_eq!(router.store(line, Scope::Weak, c.now), want, "step {i}");
                    (route, want)
                }
                Op::Atomic(want) => {
                    let route = eager.route_atomic(gpu, line, &mut c);
                    assert_eq!(router.atomic(line, c.now), want, "step {i}");
                    (route, want)
                }
            };
            assert_eq!(route.0, route.1, "step {i}");
            // The engine books an eager peer store; the router buffered
            // its own for the barrier.
            if let StoreRoute::Remote { to } = route.0 {
                let _ = c.fabric.transfer(gpu, to, CACHE_LINE_BYTES, c.now);
            }
        }
        assert_eq!(
            eager
                .system()
                .unwrap()
                .unit(G0)
                .rwq_stats()
                .watermark_drains,
            2
        );
        // The grid-end release drains every queue on both sides.
        let end = Cycle::new(100);
        for gpu in [G0, G1, G2] {
            let mut c = ctx(&mut eager_fabric);
            c.now = end;
            eager.on_kernel_end(gpu, &mut c);
            assert!(rs[gpu.index()].flush(end));
        }
        let mut refs: Vec<&mut dyn LaneRouter> = rs.iter_mut().map(|r| &mut **r).collect();
        laned.lane_barrier(&mut refs, &mut laned_fabric);
        let (e, l) = (eager_fabric.counters(), laned_fabric.counters());
        assert_eq!(e.transfer_count(), l.transfer_count());
        for src in [G0, G1, G2] {
            for dst in [G0, G1, G2] {
                assert_eq!(
                    e.pair_bytes(src, dst),
                    l.pair_bytes(src, dst),
                    "{src}->{dst}"
                );
            }
        }
        laned.absorb_lane_routers(rs);
        assert_eq!(laned.metrics(), eager.metrics());
    }
}
