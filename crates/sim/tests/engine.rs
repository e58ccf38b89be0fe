//! Behavioural tests of the simulation engine.

use std::sync::Arc;

use gps_interconnect::LinkGen;
use gps_sim::{
    AllLocalPolicy, Engine, KernelSpec, LoadRoute, MemCtx, MemoryPolicy, SimConfig, StoreRoute,
    WarpCtx, WarpInstr, Workload, WorkloadBuilder,
};
use gps_types::{Cycle, GpuId, LineRange, PageSize, Scope};

fn kernel(
    gpu: u16,
    ctas: u32,
    warps: u32,
    prog: impl gps_sim::WarpProgram + 'static,
) -> KernelSpec {
    KernelSpec {
        name: format!("k{gpu}"),
        gpu: GpuId::new(gpu),
        cta_count: ctas,
        warps_per_cta: warps,
        program: Arc::new(prog),
    }
}

fn run(workload: &Workload, gpus: usize, link: LinkGen) -> gps_sim::SimReport {
    let mut policy = AllLocalPolicy::new();
    Engine::new(SimConfig::gv100_system(gpus), link, workload, &mut policy)
        .unwrap()
        .run()
}

/// A streaming workload: every warp loads then stores a private run of
/// lines.
fn streaming_workload(gpus: usize, ctas_per_gpu: u32) -> Workload {
    let mut b = WorkloadBuilder::new("stream", PageSize::Standard64K, gpus);
    let data = b.alloc_shared("data", 64 * 1024 * 1024).unwrap();
    let base = data.base().line();
    for phase in 0..2 {
        let _ = phase;
        let mut launches = Vec::new();
        for g in 0..gpus {
            let lines_per_warp = 32u64;
            launches.push(kernel(g as u16, ctas_per_gpu, 4, move |ctx: WarpCtx| {
                let warp = ctx.global_warp() as u64;
                let gpu = ctx.gpu.index() as u64;
                let offset = (gpu * 1_000_000 + warp * lines_per_warp) % (512 * 1024 - 64);
                let start = base.offset(offset);
                vec![
                    WarpInstr::Load(LineRange::contiguous(start, lines_per_warp as u32)),
                    WarpInstr::Compute(64),
                    WarpInstr::Store(
                        LineRange::contiguous(start, lines_per_warp as u32),
                        Scope::Weak,
                    ),
                ]
            }));
        }
        b.phase(launches);
    }
    b.build(1).unwrap()
}

#[test]
fn single_gpu_run_produces_sane_report() {
    let wl = streaming_workload(1, 64);
    let r = run(&wl, 1, LinkGen::Pcie3);
    assert!(r.total_cycles > Cycle::new(10_000), "{:?}", r.total_cycles);
    assert_eq!(r.gpu_count, 1);
    assert_eq!(r.per_gpu[0].kernels, 2);
    assert_eq!(r.per_gpu[0].warps, 2 * 64 * 4);
    assert_eq!(r.per_gpu[0].instructions, 2 * 64 * 4 * 3);
    assert_eq!(r.interconnect_bytes, 0, "all-local policy moves no data");
    assert!(r.per_gpu[0].dram_read_bytes > 0);
    assert_eq!(r.phase_ends.len(), 2);
}

#[test]
fn runs_are_deterministic() {
    let wl = streaming_workload(2, 32);
    let a = run(&wl, 2, LinkGen::Pcie3);
    let b = run(&wl, 2, LinkGen::Pcie3);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.per_gpu[0].l2_hits, b.per_gpu[0].l2_hits);
    assert_eq!(a.per_gpu[1].dram_read_bytes, b.per_gpu[1].dram_read_bytes);
}

#[test]
fn more_gpus_with_partitioned_work_run_faster() {
    // Strong scaling under the ideal all-local policy: each GPU gets the
    // same per-GPU work in the 1- and 4-GPU builds, but the 4-GPU system
    // does 4x the total work in roughly the same time; compare equal total
    // work instead by giving the single GPU 4x the CTAs.
    let wl1 = streaming_workload(1, 4096);
    let wl4 = streaming_workload(4, 1024);
    let r1 = run(&wl1, 1, LinkGen::Pcie3);
    let r4 = run(&wl4, 4, LinkGen::Pcie3);
    let speedup = r4.speedup_over(&r1);
    assert!(
        speedup > 2.0 && speedup < 4.5,
        "expected near-linear scaling, got {speedup}"
    );
}

#[test]
fn compute_heavy_kernels_scale_with_warp_count() {
    let build = |ctas: u32| {
        let mut b = WorkloadBuilder::new("compute", PageSize::Standard64K, 1);
        b.alloc_private("unused", 1).unwrap();
        b.phase(vec![kernel(0, ctas, 8, |_: WarpCtx| {
            vec![WarpInstr::Compute(1000)]
        })]);
        b.build(1).unwrap()
    };
    let small = run(&build(80), 1, LinkGen::Pcie3);
    let large = run(&build(800), 1, LinkGen::Pcie3);
    // 10x the CTAs ~ 10x the SM work once residency saturates.
    let ratio = large.total_cycles.as_u64() as f64 / small.total_cycles.as_u64() as f64;
    assert!(ratio > 5.0, "got {ratio}");
}

#[test]
fn l2_reuse_is_visible_in_hit_rate() {
    // Two phases touching the same small working set: the second pass hits.
    let mut b = WorkloadBuilder::new("reuse", PageSize::Standard64K, 1);
    let data = b.alloc_shared("data", 2 * 1024 * 1024).unwrap();
    let base = data.base().line();
    for _ in 0..2 {
        b.phase(vec![kernel(0, 64, 4, move |ctx: WarpCtx| {
            let warp = ctx.global_warp() as u64;
            let start = base.offset((warp * 32) % 16_000);
            vec![WarpInstr::Load(LineRange::contiguous(start, 32))]
        })]);
    }
    let wl = b.build(1).unwrap();
    let r = run(&wl, 1, LinkGen::Pcie3);
    assert!(
        r.per_gpu[0].l2_hit_rate() > 0.3,
        "second pass should hit: {}",
        r.per_gpu[0].l2_hit_rate()
    );
}

#[test]
fn engine_rejects_mismatched_gpu_count() {
    let wl = streaming_workload(2, 4);
    let mut policy = AllLocalPolicy::new();
    let err = Engine::new(SimConfig::gv100_system(4), LinkGen::Pcie3, &wl, &mut policy);
    assert!(err.is_err());
}

#[test]
fn engine_rejects_mismatched_page_size() {
    let mut b = WorkloadBuilder::new("p4k", PageSize::Small4K, 1);
    b.alloc_shared("d", 4096).unwrap();
    b.phase(vec![kernel(0, 1, 1, |_: WarpCtx| {
        vec![WarpInstr::Compute(1)]
    })]);
    let wl = b.build(1).unwrap();
    let mut policy = AllLocalPolicy::new();
    let err = Engine::new(SimConfig::gv100_system(1), LinkGen::Pcie3, &wl, &mut policy);
    assert!(err.is_err());
}

/// A policy that forces every shared-line load remote, to exercise fabric
/// paths and remote caching.
struct AlwaysRemote;

impl MemoryPolicy for AlwaysRemote {
    fn name(&self) -> &'static str {
        "always-remote"
    }
    fn route_load(
        &mut self,
        gpu: GpuId,
        _line: gps_types::LineAddr,
        _ctx: &mut MemCtx<'_>,
    ) -> LoadRoute {
        LoadRoute::Remote {
            from: GpuId::new((gpu.index() as u16 + 1) % 2),
        }
    }
    fn route_store(
        &mut self,
        _gpu: GpuId,
        _line: gps_types::LineAddr,
        _scope: Scope,
        _ctx: &mut MemCtx<'_>,
    ) -> StoreRoute {
        StoreRoute::Local
    }
}

#[test]
fn remote_loads_move_bytes_and_slow_execution() {
    let wl = streaming_workload(2, 32);
    let mut local = AllLocalPolicy::new();
    let r_local = Engine::new(SimConfig::gv100_system(2), LinkGen::Pcie3, &wl, &mut local)
        .unwrap()
        .run();
    let mut remote = AlwaysRemote;
    let r_remote = Engine::new(SimConfig::gv100_system(2), LinkGen::Pcie3, &wl, &mut remote)
        .unwrap()
        .run();
    assert!(r_remote.interconnect_bytes > 0);
    assert!(
        r_remote.total_cycles > r_local.total_cycles,
        "remote {} vs local {}",
        r_remote.total_cycles,
        r_local.total_cycles
    );
}

#[test]
fn remote_lines_are_cached_in_l1_within_a_kernel() {
    // One GPU loads the same lines twice in one kernel: the second access
    // should hit the per-SM L1 (peer data is never cached in the local
    // L2) under the always-remote policy.
    let mut b = WorkloadBuilder::new("cache-remote", PageSize::Standard64K, 2);
    let data = b.alloc_shared("d", 1 << 20).unwrap();
    let base = data.base().line();
    b.phase(vec![kernel(0, 1, 1, move |_: WarpCtx| {
        vec![
            WarpInstr::Load(LineRange::contiguous(base, 16)),
            WarpInstr::Load(LineRange::contiguous(base, 16)),
        ]
    })]);
    let wl = b.build(1).unwrap();
    let mut remote = AlwaysRemote;
    let r = Engine::new(SimConfig::gv100_system(2), LinkGen::Pcie3, &wl, &mut remote)
        .unwrap()
        .run();
    // 16 lines fetched remotely once; the L1 serves the second access.
    assert_eq!(r.interconnect_bytes, 16 * 128);
}

#[test]
fn faster_links_shorten_remote_workloads() {
    let wl = streaming_workload(2, 64);
    let mut p3 = AlwaysRemote;
    let r3 = Engine::new(SimConfig::gv100_system(2), LinkGen::Pcie3, &wl, &mut p3)
        .unwrap()
        .run();
    let mut p6 = AlwaysRemote;
    let r6 = Engine::new(SimConfig::gv100_system(2), LinkGen::Pcie6, &wl, &mut p6)
        .unwrap()
        .run();
    assert!(
        r6.total_cycles < r3.total_cycles,
        "pcie6 {} should beat pcie3 {}",
        r6.total_cycles,
        r3.total_cycles
    );
}

#[test]
fn fences_invoke_policy() {
    struct FenceCounter(u64);
    impl MemoryPolicy for FenceCounter {
        fn name(&self) -> &'static str {
            "fence-counter"
        }
        fn route_load(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: &mut MemCtx<'_>,
        ) -> LoadRoute {
            LoadRoute::Local
        }
        fn route_store(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: Scope,
            _: &mut MemCtx<'_>,
        ) -> StoreRoute {
            StoreRoute::Local
        }
        fn on_fence(&mut self, _: GpuId, _: Scope, ctx: &mut MemCtx<'_>) -> Cycle {
            self.0 += 1;
            ctx.now + gps_types::Latency::from_micros(1)
        }
        fn metrics(&self) -> Vec<(String, f64)> {
            vec![("fences".into(), self.0 as f64)]
        }
    }

    let mut b = WorkloadBuilder::new("fences", PageSize::Standard64K, 1);
    b.alloc_shared("d", 1).unwrap();
    b.phase(vec![kernel(0, 2, 2, |_: WarpCtx| {
        vec![WarpInstr::Compute(10), WarpInstr::Fence(Scope::Sys)]
    })]);
    let wl = b.build(1).unwrap();
    let mut p = FenceCounter(0);
    let r = Engine::new(SimConfig::gv100_system(1), LinkGen::Pcie3, &wl, &mut p)
        .unwrap()
        .run();
    assert_eq!(r.metric("fences"), Some(4.0));
}

#[test]
fn atomics_follow_the_atomic_route() {
    struct AtomicCounter(u64);
    impl MemoryPolicy for AtomicCounter {
        fn name(&self) -> &'static str {
            "atomic-counter"
        }
        fn route_load(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: &mut MemCtx<'_>,
        ) -> LoadRoute {
            LoadRoute::Local
        }
        fn route_store(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: Scope,
            _: &mut MemCtx<'_>,
        ) -> StoreRoute {
            StoreRoute::Local
        }
        fn route_atomic(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: &mut MemCtx<'_>,
        ) -> StoreRoute {
            self.0 += 1;
            StoreRoute::Local
        }
        fn metrics(&self) -> Vec<(String, f64)> {
            vec![("atomics".into(), self.0 as f64)]
        }
    }

    let mut b = WorkloadBuilder::new("atomics", PageSize::Standard64K, 1);
    let d = b.alloc_shared("d", 1).unwrap();
    let line = d.base().line();
    b.phase(vec![kernel(0, 3, 1, move |_: WarpCtx| {
        vec![WarpInstr::Atomic(line)]
    })]);
    let wl = b.build(1).unwrap();
    let mut p = AtomicCounter(0);
    let r = Engine::new(SimConfig::gv100_system(1), LinkGen::Pcie3, &wl, &mut p)
        .unwrap()
        .run();
    assert_eq!(r.metric("atomics"), Some(3.0));
}

#[test]
fn stall_then_local_delays_the_warp() {
    struct FaultOnce {
        faulted: bool,
    }
    impl MemoryPolicy for FaultOnce {
        fn name(&self) -> &'static str {
            "fault-once"
        }
        fn route_load(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            ctx: &mut MemCtx<'_>,
        ) -> LoadRoute {
            if self.faulted {
                LoadRoute::Local
            } else {
                self.faulted = true;
                LoadRoute::StallThenLocal {
                    ready: ctx.now + gps_types::Latency::from_micros(50),
                }
            }
        }
        fn route_store(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: Scope,
            _: &mut MemCtx<'_>,
        ) -> StoreRoute {
            StoreRoute::Local
        }
    }

    let mut b = WorkloadBuilder::new("fault", PageSize::Standard64K, 1);
    let d = b.alloc_shared("d", 1).unwrap();
    let line = d.base().line();
    b.phase(vec![kernel(0, 1, 1, move |_: WarpCtx| {
        vec![WarpInstr::load1(line)]
    })]);
    let wl = b.build(1).unwrap();

    let mut faulting = FaultOnce { faulted: false };
    let r_fault = Engine::new(
        SimConfig::gv100_system(1),
        LinkGen::Pcie3,
        &wl,
        &mut faulting,
    )
    .unwrap()
    .run();
    let mut clean = AllLocalPolicy::new();
    let r_clean = Engine::new(SimConfig::gv100_system(1), LinkGen::Pcie3, &wl, &mut clean)
        .unwrap()
        .run();
    let delta = r_fault.total_cycles.as_u64() - r_clean.total_cycles.as_u64();
    assert!(
        delta >= 50_000,
        "fault should add at least its 50us stall, added {delta}"
    );
}

#[test]
fn tlb_misses_reach_the_policy_once_per_page() {
    use std::collections::HashSet;
    #[derive(Default)]
    struct TlbSpy {
        pages: HashSet<(u16, u64)>,
        events: u64,
    }
    impl MemoryPolicy for TlbSpy {
        fn name(&self) -> &'static str {
            "tlb-spy"
        }
        fn route_load(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: &mut MemCtx<'_>,
        ) -> LoadRoute {
            LoadRoute::Local
        }
        fn route_store(
            &mut self,
            _: GpuId,
            _: gps_types::LineAddr,
            _: Scope,
            _: &mut MemCtx<'_>,
        ) -> StoreRoute {
            StoreRoute::Local
        }
        fn on_tlb_miss(&mut self, gpu: GpuId, vpn: gps_types::Vpn, _: &mut MemCtx<'_>) {
            self.pages.insert((gpu.raw(), vpn.as_u64()));
            self.events += 1;
        }
        fn metrics(&self) -> Vec<(String, f64)> {
            vec![
                ("pages".into(), self.pages.len() as f64),
                ("events".into(), self.events as f64),
            ]
        }
    }

    // Touch 4 distinct pages, each several times, from one warp.
    let mut b = WorkloadBuilder::new("tlb", PageSize::Standard64K, 1);
    let d = b.alloc_shared("d", 4 * 65536).unwrap();
    let base = d.base().line();
    b.phase(vec![kernel(0, 1, 1, move |_: WarpCtx| {
        let mut v = Vec::new();
        for rep in 0..3 {
            let _ = rep;
            for page in 0..4u64 {
                v.push(WarpInstr::load1(base.offset(page * 512)));
            }
        }
        v
    })]);
    let wl = b.build(1).unwrap();
    let mut p = TlbSpy::default();
    let r = Engine::new(SimConfig::gv100_system(1), LinkGen::Pcie3, &wl, &mut p)
        .unwrap()
        .run();
    assert_eq!(r.metric("pages"), Some(4.0));
    // The working set fits the TLB: exactly one miss per page. (The engine
    // only translates on L1 misses, and repeated loads hit the L1.)
    assert_eq!(r.metric("events"), Some(4.0));
}

#[test]
fn cta_waves_respect_residency_limits() {
    // 8-warp CTAs: 64/8 = 8 resident CTAs per SM x 80 SMs = 640 slots.
    // A 2000-CTA grid therefore runs in several waves and must take
    // proportionally longer than a 500-CTA grid (single wave).
    let build = |ctas: u32| {
        let mut b = WorkloadBuilder::new("waves", PageSize::Standard64K, 1);
        b.alloc_private("p", 1).unwrap();
        b.phase(vec![kernel(0, ctas, 8, |_: WarpCtx| {
            vec![WarpInstr::Compute(500)]
        })]);
        b.build(1).unwrap()
    };
    let one_wave = run(&build(500), 1, LinkGen::Pcie3);
    let four_waves = run(&build(2000), 1, LinkGen::Pcie3);
    let ratio = four_waves.total_cycles.as_u64() as f64 / one_wave.total_cycles.as_u64() as f64;
    assert!(ratio > 3.0, "expected ~4x the issue work, got {ratio}");
}

#[test]
fn warps_of_partial_last_cta_still_run() {
    // Grid sizes that do not divide the CTA capacity exactly must still
    // retire every warp.
    let mut b = WorkloadBuilder::new("odd", PageSize::Standard64K, 1);
    b.alloc_private("p", 1).unwrap();
    b.phase(vec![kernel(0, 1283, 3, |_: WarpCtx| {
        vec![WarpInstr::Compute(7)]
    })]);
    let wl = b.build(1).unwrap();
    let r = run(&wl, 1, LinkGen::Pcie3);
    assert_eq!(r.per_gpu[0].warps, 1283 * 3);
}

#[test]
fn page_walker_pressure_slows_sparse_access_patterns() {
    // Touching one line per 4 KiB page defeats the TLB and serialises on
    // the page walker; the same access count within a few pages does not.
    let build = |stride: u32| {
        let mut b = WorkloadBuilder::new("walker", PageSize::Small4K, 1);
        let d = b.alloc_shared("d", 512 * 1024 * 1024).unwrap();
        let base = d.base().line();
        b.phase(vec![kernel(0, 512, 4, move |ctx: WarpCtx| {
            let w = ctx.global_warp() as u64;
            vec![WarpInstr::Load(LineRange::new(
                base.offset((w * 64) % 4_000_000),
                16,
                stride,
            ))]
        })]);
        b.build(1).unwrap()
    };
    // Stride 32 lines = one access per 4 KiB page; stride 1 = dense.
    let run4k = |wl: &Workload| {
        let mut policy = AllLocalPolicy::new();
        let mut cfg = SimConfig::gv100_system(1);
        cfg.page_size = PageSize::Small4K;
        Engine::new(cfg, LinkGen::Pcie3, wl, &mut policy)
            .unwrap()
            .run()
    };
    let dense = run4k(&build(1));
    let sparse = run4k(&build(32));
    // Sparse access defeats the TLB: walker serialisation shows up as a
    // clear slowdown (the exact factor depends on how much latency the
    // resident warps hide).
    assert!(
        sparse.total_cycles.as_u64() as f64 > dense.total_cycles.as_u64() as f64 * 1.5,
        "sparse {} vs dense {}",
        sparse.total_cycles,
        dense.total_cycles
    );
    let dense_tlb = dense.per_gpu[0].tlb.hit_rate();
    let sparse_tlb = sparse.per_gpu[0].tlb.hit_rate();
    assert!(sparse_tlb < dense_tlb);
}

#[test]
fn per_gpu_kernels_in_a_phase_run_sequentially() {
    // Two kernels on the same GPU serialise; the same two kernels on
    // different GPUs overlap.
    let make = |gpu_b: u16| {
        let mut b = WorkloadBuilder::new("seq", PageSize::Standard64K, 2);
        b.alloc_private("p", 1).unwrap();
        b.phase(vec![
            kernel(0, 320, 4, |_: WarpCtx| vec![WarpInstr::Compute(1000)]),
            kernel(gpu_b, 320, 4, |_: WarpCtx| vec![WarpInstr::Compute(1000)]),
        ]);
        b.build(1).unwrap()
    };
    let serial = run(&make(0), 2, LinkGen::Pcie3);
    let overlap = run(&make(1), 2, LinkGen::Pcie3);
    assert!(
        serial.total_cycles.as_u64() as f64 > overlap.total_cycles.as_u64() as f64 * 1.5,
        "serial {} vs overlapped {}",
        serial.total_cycles,
        overlap.total_cycles
    );
}
