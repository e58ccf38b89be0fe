//! Bulk-synchronous replication via `cudaMemcpy` at barriers (§6).

use gps_mem::PageMap;
use gps_sim::{LoadRoute, MemCtx, MemoryPolicy, SharedIndex, SimConfig, StoreRoute, Workload};
use gps_types::{Cycle, GpuId, LineAddr, Scope};

/// The memcpy paradigm.
///
/// "This paradigm duplicates data structures among all GPUs and broadcasts
/// updates via `cudaMemcpy()` calls at the synchronization barriers. This
/// duplication ensures that all data structures are resident in local GPU
/// memory when accessed by kernels in the subsequent synchronization phase;
/// there are no remote accesses during kernel execution. However, there is
/// also no overlap between data transfers and compute" (§6).
///
/// Every kernel-time access is local. At each barrier, every writer
/// broadcasts the *shared* pages it dirtied — the pages some other GPU is
/// known to consume — to **all** peers, at page granularity, exactly once
/// per page ("it copies all shared data exactly once across all the GPUs",
/// §7.2). Copying to every peer regardless of need is the inefficiency the
/// paper calls out for Jacobi and CT ("memcpy needlessly copying data to
/// GPUs that do not access them", §7.2).
///
/// Which pages are consumed remotely is what the hand-written memcpy
/// application encodes statically; the policy learns it by watching loads
/// (a page read by a GPU other than its last writer is shared). During the
/// first iteration — before anything is known — all dirty pages broadcast,
/// like the initial full synchronisation such codes perform.
#[derive(Debug, Default)]
pub struct MemcpyPolicy {
    index: Option<SharedIndex>,
    gpu_count: usize,
    phases_per_iter: usize,
    /// Pages dirtied this phase, with their (last) writer.
    dirty: PageMap<GpuId>,
    /// Last writer of each page across the run.
    last_writer: PageMap<GpuId>,
    /// Pages ever read by a GPU other than their writer.
    shared_pages: PageMap<()>,
    broadcast_bytes: u64,
    broadcast_pages: u64,
}

impl MemcpyPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn is_shared_alloc(&self, line: LineAddr) -> bool {
        self.index.as_ref().is_some_and(|i| i.is_shared(line))
    }
}

impl MemoryPolicy for MemcpyPolicy {
    fn name(&self) -> &'static str {
        "memcpy"
    }

    fn init(&mut self, workload: &Workload, config: &SimConfig) {
        self.index = Some(workload.index());
        self.gpu_count = config.gpu_count;
        self.phases_per_iter = workload.phases_per_iteration.max(1);
    }

    fn route_load(&mut self, gpu: GpuId, line: LineAddr, ctx: &mut MemCtx<'_>) -> LoadRoute {
        // Full replication: every load is local; but record remote
        // consumption so the barrier knows which pages are truly shared.
        if self.is_shared_alloc(line) {
            let vpn = ctx.vpn_of(line);
            match self.last_writer.get(vpn) {
                Some(&w) if w != gpu => {
                    self.shared_pages.insert(vpn, ());
                }
                _ => {}
            }
        }
        LoadRoute::Local
    }

    fn route_store(
        &mut self,
        gpu: GpuId,
        line: LineAddr,
        _scope: Scope,
        ctx: &mut MemCtx<'_>,
    ) -> StoreRoute {
        if self.is_shared_alloc(line) {
            let vpn = ctx.vpn_of(line);
            self.dirty.insert(vpn, gpu);
            self.last_writer.insert(vpn, gpu);
        }
        StoreRoute::Local
    }

    fn on_phase_end(&mut self, phase_idx: usize, ctx: &mut MemCtx<'_>) -> Cycle {
        // Host-driven bulk DMA: each writer broadcasts its shared dirty
        // pages to every peer; the barrier releases when the last transfer
        // lands. The first iteration broadcasts everything dirty.
        let first_iteration = phase_idx < self.phases_per_iter;
        let plan: Vec<GpuId> = self
            .dirty
            .iter()
            .filter(|&(vpn, _)| first_iteration || self.shared_pages.contains_key(vpn))
            .map(|(_, &writer)| writer)
            .collect();
        self.dirty.clear();
        let mut release = ctx.now;
        let page_bytes = ctx.page_size.bytes();
        for writer in plan {
            for dst in 0..self.gpu_count {
                let dst = GpuId::new(dst as u16);
                if dst == writer {
                    continue;
                }
                if let Ok(t) = ctx.fabric.transfer(writer, dst, page_bytes, ctx.now) {
                    release = release.max(t.arrived);
                }
                self.broadcast_bytes += page_bytes;
            }
            self.broadcast_pages += 1;
        }
        release
    }

    fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            (
                "memcpy_broadcast_bytes".to_owned(),
                self.broadcast_bytes as f64,
            ),
            (
                "memcpy_broadcast_pages".to_owned(),
                self.broadcast_pages as f64,
            ),
            (
                "memcpy_shared_pages".to_owned(),
                self.shared_pages.len() as f64,
            ),
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

    fn policy(gpus: usize) -> MemcpyPolicy {
        let mut b = gps_sim::WorkloadBuilder::new("t", PageSize::Standard64K, gpus);
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
        b.phase(vec![gps_sim::KernelSpec {
            name: "k2".into(),
            gpu: G0,
            cta_count: 1,
            warps_per_cta: 1,
            program: std::sync::Arc::new(|_: gps_sim::WarpCtx| {
                vec![gps_sim::WarpInstr::Compute(1)]
            }),
        }]);
        let wl = b.build(1).unwrap();
        let mut p = MemcpyPolicy::new();
        let mut cfg = SimConfig::gv100_system(gpus);
        cfg.page_size = PageSize::Standard64K;
        p.init(&wl, &cfg);
        p
    }

    fn sline(page: u64) -> LineAddr {
        VirtAddr::new((1 << 32) + page * 65536).line()
    }

    fn cx<'a>(f: &'a mut Fabric, now: u64) -> MemCtx<'a> {
        MemCtx {
            now: Cycle::new(now),
            fabric: f,
            page_size: PageSize::Standard64K,
        }
    }

    #[test]
    fn kernel_time_accesses_are_always_local() {
        let mut p = policy(4);
        let mut fabric = Fabric::new(FabricConfig::new(4, LinkGen::Pcie3));
        let mut c = cx(&mut fabric, 0);
        assert_eq!(p.route_load(G1, sline(0), &mut c), LoadRoute::Local);
        assert_eq!(
            p.route_store(G0, sline(0), Scope::Weak, &mut c),
            StoreRoute::Local
        );
        assert_eq!(
            c.fabric.counters().total_bytes(),
            0,
            "no kernel-time traffic"
        );
    }

    #[test]
    fn first_iteration_broadcasts_all_dirty_pages() {
        let mut p = policy(4);
        let mut fabric = Fabric::new(FabricConfig::new(4, LinkGen::Pcie3));
        {
            let mut c = cx(&mut fabric, 0);
            for _ in 0..10 {
                p.route_store(G0, sline(0), Scope::Weak, &mut c);
            }
            p.route_store(G0, sline(1), Scope::Weak, &mut c);
            p.route_store(G1, sline(2), Scope::Weak, &mut c);
        }
        let release = {
            let mut c = cx(&mut fabric, 1000);
            p.on_phase_end(0, &mut c)
        };
        // 3 dirty pages x 3 peers x 64 KiB, each page exactly once.
        assert_eq!(fabric.counters().total_bytes(), 3 * 3 * 65536);
        assert!(release > Cycle::new(1000));
    }

    #[test]
    fn steady_state_broadcasts_only_consumed_pages() {
        let mut p = policy(2);
        let mut fabric = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3));
        // Iteration 0: G0 writes pages 0 and 1; G1 reads only page 0.
        {
            let mut c = cx(&mut fabric, 0);
            p.route_store(G0, sline(0), Scope::Weak, &mut c);
            p.route_store(G0, sline(1), Scope::Weak, &mut c);
            p.on_phase_end(0, &mut c);
        }
        {
            let mut c = cx(&mut fabric, 1_000_000);
            p.route_load(G1, sline(0), &mut c);
        }
        fabric.reset();
        // Steady state: same writes, but only page 0 is known-shared.
        {
            let mut c = cx(&mut fabric, 2_000_000);
            p.route_store(G0, sline(0), Scope::Weak, &mut c);
            p.route_store(G0, sline(1), Scope::Weak, &mut c);
            p.on_phase_end(1, &mut c);
        }
        assert_eq!(
            fabric.counters().total_bytes(),
            65536,
            "only the consumed page broadcasts after learning"
        );
    }

    #[test]
    fn own_reads_do_not_mark_pages_shared() {
        let mut p = policy(2);
        let mut fabric = Fabric::new(FabricConfig::new(2, LinkGen::Pcie3));
        let mut c = cx(&mut fabric, 0);
        p.route_store(G0, sline(0), Scope::Weak, &mut c);
        p.route_load(G0, sline(0), &mut c);
        assert_eq!(p.metrics()[2].1, 0.0, "writer reading its own page");
        p.route_load(G1, sline(0), &mut c);
        assert_eq!(p.metrics()[2].1, 1.0);
    }
}
