//! Baseline Unified Memory: fault-based page migration (§2.1, §6).

use gps_mem::PageMap;
use gps_sim::{LoadRoute, MemCtx, MemoryPolicy, SharedIndex, SimConfig, StoreRoute, Workload};
use gps_types::{Cycle, GpuId, LineAddr, Scope, Vpn};

use crate::common::FAULT_OVERHEAD;

/// Unified Memory without hints.
///
/// Pages materialise on the first GPU that touches them (§6: "the
/// simulator allocates pages on the first GPU that touches the page");
/// any access from a non-resident GPU takes a page fault: the faulting
/// warp stalls while the driver services the fault and migrates the whole
/// page over the interconnect. Faults serialise on a per-GPU handling
/// queue — the mechanism that makes UM "performance prohibitive" for these
/// workloads — and concurrent faults to the same page piggyback on the
/// in-flight migration.
#[derive(Debug)]
pub struct UmPolicy {
    /// The GPU holding each touched shared page: UM keeps one copy.
    owners: PageMap<GpuId>,
    index: Option<SharedIndex>,
    /// In-flight fault per page: accesses before `ready` join it.
    inflight: PageMap<Cycle>,
    /// Per-GPU fault-handling serialisation point.
    fault_queue: Vec<Cycle>,
    faults: u64,
    migrated_pages: u64,
}

impl UmPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self {
            owners: PageMap::new(),
            index: None,
            inflight: PageMap::new(),
            fault_queue: Vec::new(),
            faults: 0,
            migrated_pages: 0,
        }
    }

    /// Routes an access by `gpu` to the shared page `vpn`: the first touch
    /// places the page on `gpu`, and a page living elsewhere migrates to
    /// it. Returns when the access may complete if it must stall.
    fn route_page(&mut self, gpu: GpuId, vpn: Vpn, ctx: &mut MemCtx<'_>) -> Option<Cycle> {
        let owner = self.owners.get_or_insert_with(vpn, || gpu);
        if *owner == gpu {
            // Resident, but a migration for this page may still be in
            // flight; the access cannot complete before it lands.
            self.inflight
                .get(vpn)
                .copied()
                .filter(|&ready| ready > ctx.now)
        } else {
            let from = std::mem::replace(owner, gpu);
            Some(self.fault(gpu, vpn, from, ctx))
        }
    }

    /// Books the fault-plus-migration for `vpn` moving from `from` to
    /// `gpu`; returns when the warp may retry.
    fn fault(&mut self, gpu: GpuId, vpn: Vpn, from: GpuId, ctx: &mut MemCtx<'_>) -> Cycle {
        if let Some(&ready) = self.inflight.get(vpn) {
            if ready > ctx.now {
                // Piggyback on the in-flight migration.
                return ready;
            }
        }
        self.faults += 1;
        self.migrated_pages += 1;
        let start = self.fault_queue[gpu.index()].max(ctx.now);
        let handled = start + FAULT_OVERHEAD;
        let ready = ctx
            .fabric
            .transfer(from, gpu, ctx.page_size.bytes(), handled)
            .map(|t| t.arrived)
            .unwrap_or(handled);
        self.fault_queue[gpu.index()] = ready;
        self.inflight.insert(vpn, ready);
        ready
    }

    fn is_shared(&self, line: LineAddr) -> bool {
        self.index.as_ref().is_some_and(|i| i.is_shared(line))
    }
}

impl Default for UmPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryPolicy for UmPolicy {
    fn name(&self) -> &'static str {
        "um"
    }

    fn init(&mut self, workload: &Workload, config: &SimConfig) {
        self.index = Some(workload.index());
        self.fault_queue = vec![Cycle::ZERO; config.gpu_count];
    }

    fn route_load(&mut self, gpu: GpuId, line: LineAddr, ctx: &mut MemCtx<'_>) -> LoadRoute {
        if !self.is_shared(line) {
            return LoadRoute::Local;
        }
        match self.route_page(gpu, ctx.vpn_of(line), ctx) {
            Some(ready) => LoadRoute::StallThenLocal { ready },
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
        if !self.is_shared(line) {
            return StoreRoute::Local;
        }
        match self.route_page(gpu, ctx.vpn_of(line), ctx) {
            Some(ready) => StoreRoute::StallThenLocal { ready },
            None => StoreRoute::Local,
        }
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("um_faults".to_owned(), self.faults as f64),
            ("um_migrated_pages".to_owned(), self.migrated_pages as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_interconnect::{Fabric, FabricConfig, LinkGen};
    use gps_types::PageSize;

    fn harness() -> (UmPolicy, Fabric, SharedIndex) {
        let mut b = gps_sim::WorkloadBuilder::new("t", PageSize::Standard64K, 2);
        let shared = b.alloc_shared("s", 2 * 65536).unwrap();
        let _private = b.alloc_private("p", 65536).unwrap();
        b.phase(vec![gps_sim::KernelSpec {
            name: "k".into(),
            gpu: GpuId::new(0),
            cta_count: 1,
            warps_per_cta: 1,
            program: std::sync::Arc::new(|_: gps_sim::WarpCtx| {
                vec![gps_sim::WarpInstr::Compute(1)]
            }),
        }]);
        let wl = b.build(1).unwrap();
        let mut p = UmPolicy::new();
        p.init(&wl, &SimConfig::gv100_system(2));
        let fabric = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3));
        let _ = shared;
        (p, fabric, wl.index())
    }

    fn shared_line() -> LineAddr {
        // First shared allocation begins at VA 1<<32.
        gps_types::VirtAddr::new(1 << 32).line()
    }

    fn ctx<'a>(fabric: &'a mut Fabric, now: u64) -> MemCtx<'a> {
        MemCtx {
            now: Cycle::new(now),
            fabric,
            page_size: PageSize::Standard64K,
        }
    }

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);

    #[test]
    fn first_touch_is_local() {
        let (mut p, mut fabric, _) = harness();
        let mut c = ctx(&mut fabric, 0);
        assert_eq!(p.route_load(G0, shared_line(), &mut c), LoadRoute::Local);
        assert_eq!(p.metrics()[0].1, 0.0, "no faults yet");
    }

    #[test]
    fn remote_access_faults_and_migrates() {
        let (mut p, mut fabric, _) = harness();
        {
            let mut c = ctx(&mut fabric, 0);
            p.route_load(G0, shared_line(), &mut c);
        }
        let route = {
            let mut c = ctx(&mut fabric, 100);
            p.route_load(G1, shared_line(), &mut c)
        };
        match route {
            LoadRoute::StallThenLocal { ready } => {
                // 20us fault + 64 KiB / 13 B/cy ~ 5041 cy + latency.
                assert!(ready > Cycle::new(100 + 20_000));
            }
            other => panic!("expected fault, got {other:?}"),
        }
        assert_eq!(fabric.counters().total_bytes(), 65536);
        // The page now lives on G1: reading again is local.
        let mut c = ctx(&mut fabric, 1_000_000);
        assert_eq!(p.route_load(G1, shared_line(), &mut c), LoadRoute::Local);
    }

    #[test]
    fn concurrent_faults_to_same_page_piggyback() {
        let (mut p, mut fabric, _) = harness();
        {
            let mut c = ctx(&mut fabric, 0);
            p.route_store(G0, shared_line(), Scope::Weak, &mut c);
        }
        let r1 = {
            let mut c = ctx(&mut fabric, 10);
            p.route_load(G1, shared_line(), &mut c)
        };
        let r2 = {
            let mut c = ctx(&mut fabric, 20);
            p.route_load(G1, shared_line().next(), &mut c)
        };
        let (LoadRoute::StallThenLocal { ready: t1 }, LoadRoute::StallThenLocal { ready: t2 }) =
            (r1, r2)
        else {
            panic!("expected stalls");
        };
        assert_eq!(t1, t2, "same page: one migration");
        assert_eq!(fabric.counters().total_bytes(), 65536);
    }

    #[test]
    fn faults_serialise_per_gpu() {
        let (mut p, mut fabric, _) = harness();
        let line_a = shared_line();
        let line_b = shared_line().offset(512); // second page
        {
            let mut c = ctx(&mut fabric, 0);
            p.route_store(G0, line_a, Scope::Weak, &mut c);
            p.route_store(G0, line_b, Scope::Weak, &mut c);
        }
        let (t1, t2) = {
            let mut c = ctx(&mut fabric, 0);
            let LoadRoute::StallThenLocal { ready: t1 } = p.route_load(G1, line_a, &mut c) else {
                panic!()
            };
            let LoadRoute::StallThenLocal { ready: t2 } = p.route_load(G1, line_b, &mut c) else {
                panic!()
            };
            (t1, t2)
        };
        assert!(
            t2 >= t1 + gps_types::Latency::from_micros(20),
            "second fault queues behind the first: {t1} then {t2}"
        );
        assert_eq!(p.metrics()[0].1, 2.0);
    }

    #[test]
    fn ping_pong_migrations_thrash() {
        let (mut p, mut fabric, _) = harness();
        let mut now = 0u64;
        for i in 0..6 {
            let gpu = if i % 2 == 0 { G0 } else { G1 };
            let mut c = ctx(&mut fabric, now);
            let _ = p.route_store(gpu, shared_line(), Scope::Weak, &mut c);
            now += 1_000_000;
        }
        // First store places; each subsequent alternation migrates.
        assert_eq!(p.metrics()[1].1, 5.0);
        assert_eq!(fabric.counters().total_bytes(), 5 * 65536);
    }

    #[test]
    fn private_data_never_faults() {
        let (mut p, mut fabric, _) = harness();
        let private_line = gps_types::VirtAddr::new((1 << 32) + 2 * 65536).line();
        let mut c = ctx(&mut fabric, 0);
        assert_eq!(p.route_load(G1, private_line, &mut c), LoadRoute::Local);
        assert_eq!(
            p.route_store(G0, private_line, Scope::Weak, &mut c),
            StoreRoute::Local
        );
        assert_eq!(fabric.counters().total_bytes(), 0);
    }
}
