//! Unified Memory with expert hints (§6).

use gps_mem::PageMap;
use gps_sim::{LoadRoute, MemCtx, MemoryPolicy, SharedIndex, SimConfig, StoreRoute, Workload};
use gps_types::{Cycle, GpuId, LineAddr, Scope, Vpn};

use crate::common::SHOOTDOWN;

/// Hand-tuned Unified Memory, following the paper's §6 recipe:
///
/// * **Preferred location** pins each page at its producer (the first
///   writer — "each producer of a page is always also a consumer [...] a
///   convenient and close-to-optimal choice").
/// * **Accessed-by** mappings let remote readers and writers reach the page
///   without faulting (remote accesses instead of migrations).
/// * **Prefetch** hints run "before each kernel launch": once the access
///   pattern of a phase class has been observed (one full iteration), the
///   pages a GPU read remotely are duplicated to it at phase start; loads
///   that land after the copy arrives are local.
/// * **Collapse on write**: UM "does not support the replication of pages
///   with at least one writer" (§2.1) — the producer's first store to a
///   duplicated page shoots the replicas down (TLB shootdown stall) and
///   later reads go remote again.
///
/// The result is the partial benefit the paper reports: better than raw UM,
/// clearly behind GPS.
#[derive(Debug)]
pub struct UmHintsPolicy {
    index: Option<SharedIndex>,
    phases_per_iter: usize,
    /// Every touched shared page.
    pages: PageMap<HintedPage>,
    /// Learned remote-read sets: `read_sets[class][gpu]`.
    read_sets: Vec<Vec<PageMap<()>>>,
    current_class: usize,
    pattern_known: bool,
    prefetch_bytes: u64,
    shootdowns: u64,
    remote_reads: u64,
    remote_writes: u64,
}

impl UmHintsPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self {
            index: None,
            phases_per_iter: 1,
            pages: PageMap::new(),
            read_sets: Vec::new(),
            current_class: 0,
            pattern_known: false,
            prefetch_bytes: 0,
            shootdowns: 0,
            remote_reads: 0,
            remote_writes: 0,
        }
    }

    fn is_shared(&self, line: LineAddr) -> bool {
        self.index.as_ref().is_some_and(|i| i.is_shared(line))
    }
}

/// What the hints know of one shared page.
#[derive(Debug)]
struct HintedPage {
    /// Preferred location: the first GPU to touch the page.
    owner: GpuId,
    /// Live prefetch replicas, `(gpu, arrival time)` in GPU order.
    replicas: Vec<(GpuId, Cycle)>,
}

impl HintedPage {
    fn owned_by(owner: GpuId) -> Self {
        Self {
            owner,
            replicas: Vec::new(),
        }
    }
}

impl Default for UmHintsPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryPolicy for UmHintsPolicy {
    fn name(&self) -> &'static str {
        "um+hints"
    }

    fn init(&mut self, workload: &Workload, config: &SimConfig) {
        self.index = Some(workload.index());
        self.phases_per_iter = workload.phases_per_iteration.max(1);
        self.read_sets = (0..self.phases_per_iter)
            .map(|_| (0..config.gpu_count).map(|_| PageMap::new()).collect())
            .collect();
    }

    fn route_load(&mut self, gpu: GpuId, line: LineAddr, ctx: &mut MemCtx<'_>) -> LoadRoute {
        if !self.is_shared(line) {
            return LoadRoute::Local;
        }
        let vpn = ctx.vpn_of(line);
        let page = self
            .pages
            .get_or_insert_with(vpn, || HintedPage::owned_by(gpu));
        let owner = page.owner;
        if owner == gpu {
            return LoadRoute::Local;
        }
        self.read_sets[self.current_class][gpu.index()].insert(vpn, ());
        if let Some(&(_, arrival)) = page.replicas.iter().find(|&&(g, _)| g == gpu) {
            if arrival <= ctx.now {
                return LoadRoute::Local;
            }
            // The prefetch for this page is still in flight: accesses to a
            // migrating page block until the copy lands.
            return LoadRoute::StallThenLocal { ready: arrival };
        }
        self.remote_reads += 1;
        LoadRoute::Remote { from: owner }
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
        let vpn = ctx.vpn_of(line);
        let page = self
            .pages
            .get_or_insert_with(vpn, || HintedPage::owned_by(gpu));
        let replicated = !page.replicas.is_empty();
        page.replicas.clear();
        if page.owner == gpu {
            if replicated {
                // Writes to read-duplicated pages collapse them (§2.1).
                self.shootdowns += 1;
                return StoreRoute::StallThenLocal {
                    ready: ctx.now + SHOOTDOWN,
                };
            }
            StoreRoute::Local
        } else {
            // Accessed-by mapping: remote store to the preferred location.
            self.remote_writes += 1;
            StoreRoute::Remote { to: page.owner }
        }
    }

    fn on_phase_start(&mut self, phase_idx: usize, ctx: &mut MemCtx<'_>) -> Cycle {
        self.current_class = phase_idx % self.phases_per_iter;
        self.pattern_known = phase_idx >= self.phases_per_iter;
        // Previous phase's replicas have been (or are about to be)
        // invalidated by their producers; start clean.
        for page in self.pages.values_mut() {
            page.replicas.clear();
        }

        if !self.pattern_known {
            return ctx.now;
        }
        // cudaMemPrefetchAsync before the kernel launches (§6: "Before each
        // kernel launch, we enable GPUs to prefetch remote regions they may
        // access"). Two effects the paper calls out:
        //
        // * The hints are range-granular and conservative, so each GPU
        //   prefetches the whole span between the first and last foreign
        //   page it reads — the over-fetching §7.2 describes for diffusion.
        // * The prefetch chain runs on the stream ahead of the kernel, so
        //   the kernels wait for the copies (achieving compute/transfer
        //   overlap with hints "is challenging even for expert
        //   programmers", §2.1). The returned gate delays the launch.
        let class = self.current_class;
        let mut plan: Vec<(GpuId, Vpn, GpuId)> = Vec::new();
        for (g, set) in self.read_sets[class].iter().enumerate() {
            let gpu = GpuId::new(g as u16);
            // Read sets iterate in page order: the first and last foreign
            // pages bound the span.
            let mut foreign = set
                .keys()
                .filter(|&v| self.pages.get(v).is_some_and(|p| p.owner != gpu));
            let Some(lo) = foreign.next() else {
                continue;
            };
            let hi = foreign.last().unwrap_or(lo);
            for page in lo.as_u64()..=hi.as_u64() {
                let page = Vpn::new(page);
                let Some(owner) = self.pages.get(page).map(|p| p.owner) else {
                    continue;
                };
                if owner != gpu {
                    plan.push((gpu, page, owner));
                }
            }
        }
        plan.sort_unstable();
        let mut gate = ctx.now;
        for (gpu, vpn, owner) in plan {
            let arrival = ctx
                .fabric
                .transfer(owner, gpu, ctx.page_size.bytes(), ctx.now)
                .map(|t| t.arrived)
                .unwrap_or(ctx.now);
            if let Some(page) = self.pages.get_mut(vpn) {
                page.replicas.push((gpu, arrival));
            }
            self.prefetch_bytes += ctx.page_size.bytes();
            gate = gate.max(arrival);
        }
        gate
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("umh_prefetch_bytes".to_owned(), self.prefetch_bytes as f64),
            ("umh_shootdowns".to_owned(), self.shootdowns as f64),
            ("umh_remote_reads".to_owned(), self.remote_reads as f64),
            ("umh_remote_writes".to_owned(), self.remote_writes as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_interconnect::{Fabric, FabricConfig, LinkGen};
    use gps_types::{PageSize, VirtAddr};

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);

    fn policy() -> UmHintsPolicy {
        let mut b = gps_sim::WorkloadBuilder::new("t", PageSize::Standard64K, 2);
        b.alloc_shared("s", 4 * 65536).unwrap();
        b.phase(vec![kernel()]);
        b.phase(vec![kernel()]);
        let wl = b.build(2).unwrap();
        let mut p = UmHintsPolicy::new();
        p.init(&wl, &SimConfig::gv100_system(2));
        p
    }

    fn kernel() -> gps_sim::KernelSpec {
        gps_sim::KernelSpec {
            name: "k".into(),
            gpu: G0,
            cta_count: 1,
            warps_per_cta: 1,
            program: std::sync::Arc::new(|_: gps_sim::WarpCtx| {
                vec![gps_sim::WarpInstr::Compute(1)]
            }),
        }
    }

    fn sline(page: u64) -> LineAddr {
        VirtAddr::new((1 << 32) + page * 65536).line()
    }

    fn fabric() -> Fabric {
        Fabric::new(FabricConfig::new(2, LinkGen::Pcie3))
    }

    fn cx<'a>(f: &'a mut Fabric, now: u64) -> MemCtx<'a> {
        MemCtx {
            now: Cycle::new(now),
            fabric: f,
            page_size: PageSize::Standard64K,
        }
    }

    #[test]
    fn remote_reads_do_not_fault() {
        let mut p = policy();
        let mut f = fabric();
        {
            let mut c = cx(&mut f, 0);
            p.on_phase_start(0, &mut c);
            p.route_store(G0, sline(0), Scope::Weak, &mut c);
        }
        let mut c = cx(&mut f, 10);
        assert_eq!(
            p.route_load(G1, sline(0), &mut c),
            LoadRoute::Remote { from: G0 },
            "accessed-by: remote read, no migration"
        );
    }

    #[test]
    fn second_iteration_prefetches_learned_read_set() {
        let mut p = policy();
        let mut f = fabric();
        // Iteration 0 (phases 0, 1): G0 writes page 0; G1 reads it in both
        // phases of the iteration.
        {
            let mut c = cx(&mut f, 0);
            p.on_phase_start(0, &mut c);
            p.route_store(G0, sline(0), Scope::Weak, &mut c);
            p.route_load(G1, sline(0), &mut c);
        }
        {
            let mut c = cx(&mut f, 100);
            p.on_phase_start(1, &mut c);
            p.route_load(G1, sline(0), &mut c);
        }
        let before = f.counters().total_bytes();
        // Iteration 1, phase class 0: prefetch fires.
        {
            let mut c = cx(&mut f, 1_000_000);
            p.on_phase_start(2, &mut c);
        }
        assert_eq!(
            f.counters().total_bytes() - before,
            65536,
            "one page prefetched to G1"
        );
        // After the copy lands the read is local.
        let mut c = cx(&mut f, 2_000_000);
        assert_eq!(p.route_load(G1, sline(0), &mut c), LoadRoute::Local);
        // Before arrival it would have been remote.
        let mut p2 = policy();
        let mut f2 = fabric();
        {
            let mut c = cx(&mut f2, 0);
            p2.on_phase_start(0, &mut c);
            p2.route_store(G0, sline(0), Scope::Weak, &mut c);
            p2.route_load(G1, sline(0), &mut c);
        }
        {
            let mut c = cx(&mut f2, 100);
            p2.on_phase_start(1, &mut c);
        }
        {
            let mut c = cx(&mut f2, 200);
            p2.on_phase_start(2, &mut c);
            // Prefetch booked at t=200 cannot have arrived by t=200: the
            // access blocks on the in-flight migration.
            match p2.route_load(G1, sline(0), &mut c) {
                LoadRoute::StallThenLocal { ready } => {
                    assert!(ready > Cycle::new(200));
                }
                other => panic!("expected stall on in-flight prefetch, got {other:?}"),
            }
        }
    }

    #[test]
    fn producer_write_collapses_replicas() {
        let mut p = policy();
        let mut f = fabric();
        {
            let mut c = cx(&mut f, 0);
            p.on_phase_start(0, &mut c);
            p.route_store(G0, sline(0), Scope::Weak, &mut c);
            p.route_load(G1, sline(0), &mut c);
        }
        {
            let mut c = cx(&mut f, 10);
            p.on_phase_start(1, &mut c);
        }
        {
            let mut c = cx(&mut f, 20);
            p.on_phase_start(2, &mut c); // prefetch to G1
        }
        // G0 (owner) writes: shootdown.
        let route = {
            let mut c = cx(&mut f, 10_000_000);
            p.route_store(G0, sline(0), Scope::Weak, &mut c)
        };
        assert!(
            matches!(route, StoreRoute::StallThenLocal { .. }),
            "first write to replicated page stalls for shootdown, got {route:?}"
        );
        // Second write is clean.
        let mut c = cx(&mut f, 10_000_100);
        assert_eq!(
            p.route_store(G0, sline(0), Scope::Weak, &mut c),
            StoreRoute::Local
        );
        // And G1's subsequent read is remote again.
        assert_eq!(
            p.route_load(G1, sline(0), &mut c),
            LoadRoute::Remote { from: G0 }
        );
        assert_eq!(p.metrics()[1].1, 1.0);
    }

    #[test]
    fn non_owner_writes_go_remote() {
        let mut p = policy();
        let mut f = fabric();
        let mut c = cx(&mut f, 0);
        p.on_phase_start(0, &mut c);
        p.route_store(G0, sline(0), Scope::Weak, &mut c);
        assert_eq!(
            p.route_store(G1, sline(0), Scope::Weak, &mut c),
            StoreRoute::Remote { to: G0 },
            "preferred location pins the page at its producer"
        );
    }
}
