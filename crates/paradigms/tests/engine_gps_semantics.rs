//! End-to-end GPS semantics through the simulation engine: sys-scoped
//! collapse, fences, remote fallback after mispredicted profiling, and
//! write-queue behaviour under real kernel schedules.
//!
//! Every scenario runs on both lane shapes: the reference lane
//! (`parallel_workers` 0, eager routing through `GpsSystem`) and per-GPU
//! lanes (`parallel_workers` 1, the epoch tier, whose lane routers buffer
//! each effect for the window barrier). The assertions are the ones both
//! shapes must meet.

use std::sync::Arc;

use gps_interconnect::LinkGen;
use gps_paradigms::GpsPolicy;
use gps_sim::{
    Engine, KernelSpec, SimConfig, SimReport, WarpCtx, WarpInstr, Workload, WorkloadBuilder,
};
use gps_types::{GpuId, LineRange, PageSize, Scope};

/// Worker counts selecting the two lane shapes: 0 is the reference lane,
/// 1 runs per-GPU lanes through the GPS lane routers.
const SHAPES: [usize; 2] = [0, 1];

/// Runs `wl` under plain GPS on `gpus` GPUs with `workers` lane workers.
fn run(wl: &Workload, gpus: usize, workers: usize) -> (SimReport, GpsPolicy) {
    let mut policy = GpsPolicy::new();
    let cfg = SimConfig::gv100_system(gpus).with_parallel_workers(workers);
    let report = Engine::new(cfg, LinkGen::Pcie3, wl, &mut policy)
        .unwrap()
        .run();
    (report, policy)
}

fn kernel(
    gpu: u16,
    ctas: u32,
    warps: u32,
    prog: impl Fn(WarpCtx) -> Vec<WarpInstr> + Send + Sync + 'static,
) -> KernelSpec {
    KernelSpec {
        name: format!("k{gpu}"),
        gpu: GpuId::new(gpu),
        cta_count: ctas,
        warps_per_cta: warps,
        program: Arc::new(prog),
    }
}

#[test]
fn sys_scoped_store_collapses_page_and_stops_broadcasts() {
    // Phase 0 (profiling): both GPUs touch the page; weak stores broadcast.
    // Phase 1: GPU 0 issues a sys-scoped store -> the page collapses.
    // Phase 2: further weak stores by GPU 0 are conventional (no traffic).
    // Phase 3: a weak store by GPU 1 is a peer store to the owner.
    let mut b = WorkloadBuilder::new("collapse", PageSize::Standard64K, 2);
    let d = b.alloc_shared("d", 65536).unwrap();
    let line = d.base().line();

    let touch = move |_: WarpCtx| {
        vec![
            WarpInstr::Load(LineRange::single(line)),
            WarpInstr::store1(line),
        ]
    };
    b.phase(vec![kernel(0, 1, 1, touch), kernel(1, 1, 1, touch)]);
    b.phase(vec![kernel(0, 1, 1, move |_: WarpCtx| {
        vec![WarpInstr::Store(LineRange::single(line), Scope::Sys)]
    })]);
    b.phase(vec![kernel(0, 1, 1, move |_: WarpCtx| {
        vec![WarpInstr::store1(line)]
    })]);
    b.phase(vec![kernel(1, 1, 1, move |_: WarpCtx| {
        vec![WarpInstr::store1(line)]
    })]);
    let wl = b.build(1).unwrap();

    for workers in SHAPES {
        let (report, policy) = run(&wl, 2, workers);
        // After the collapse the page has a single conventional copy.
        let sys = policy.system().unwrap();
        let vpn = d.base().vpn(PageSize::Standard64K);
        let state = sys.runtime().view().page_state(vpn).unwrap();
        assert!(
            !state.gps_bit,
            "workers={workers}: collapsed page must be conventional"
        );
        assert_eq!(state.collapsed, Some(GpuId::new(0)), "workers={workers}");
        // Phase 2 produced no new interconnect traffic.
        let t = &report.phase_traffic;
        assert_eq!(
            t[2], t[1],
            "workers={workers}: post-collapse stores must stay local"
        );
        assert_eq!(
            t[3] - t[2],
            128,
            "workers={workers}: a peer's store goes to the owner"
        );
    }
}

#[test]
fn mispredicted_profiling_falls_back_to_remote_loads() {
    // GPU 1 never touches the region during iteration 0, so it is
    // unsubscribed; in iteration 1 it reads anyway. Execution must proceed
    // (remote fallback, §3.2: subscriptions "are not functional
    // requirements for correct application execution") and the reads must
    // show up as fabric traffic.
    let mut b = WorkloadBuilder::new("mispredict", PageSize::Standard64K, 2);
    let d = b.alloc_shared("d", 65536).unwrap();
    let line = d.base().line();

    // Iteration 0: only GPU 0 runs.
    b.phase(vec![kernel(0, 1, 1, move |_: WarpCtx| {
        vec![WarpInstr::store1(line)]
    })]);
    // Iteration 1: GPU 1 suddenly reads 32 lines it never subscribed to.
    b.phase(vec![kernel(1, 1, 1, move |_: WarpCtx| {
        vec![WarpInstr::Load(LineRange::contiguous(line, 32))]
    })]);
    let wl = b.build(1).unwrap();

    for workers in SHAPES {
        let (report, _) = run(&wl, 2, workers);
        let t = &report.phase_traffic;
        let phase1_traffic = t[1] - t[0];
        assert_eq!(
            phase1_traffic,
            32 * 128,
            "workers={workers}: 32 remote-fallback line reads expected"
        );
    }
}

#[test]
fn cta_and_gpu_scoped_fences_do_not_drain_but_sys_fences_do() {
    let mut b = WorkloadBuilder::new("fences", PageSize::Standard64K, 2);
    let d = b.alloc_shared("d", 65536).unwrap();
    let line = d.base().line();
    // A store followed by cta- and gpu-scoped fences and a long compute:
    // the store must still be buffered at the compute (only the sys fence
    // drains).
    b.phase(vec![
        kernel(0, 1, 1, move |_: WarpCtx| {
            vec![
                WarpInstr::store1(line),
                WarpInstr::Fence(Scope::Cta),
                WarpInstr::Fence(Scope::Gpu),
                WarpInstr::Compute(10_000),
                WarpInstr::Fence(Scope::Sys),
                WarpInstr::Compute(10_000),
            ]
        }),
        kernel(1, 1, 1, move |_: WarpCtx| {
            vec![WarpInstr::Load(LineRange::single(line))]
        }),
    ]);
    let wl = b.build(1).unwrap();
    for workers in SHAPES {
        let (report, _) = run(&wl, 2, workers);
        // Exactly one broadcast of one line happened (at the sys fence),
        // not two (the kernel-end flush found an empty queue).
        assert_eq!(report.interconnect_bytes, 128, "workers={workers}");
    }
}

#[test]
fn atomics_from_multiple_gpus_broadcast_to_each_other() {
    let mut b = WorkloadBuilder::new("atomics", PageSize::Standard64K, 2);
    let d = b.alloc_shared("d", 65536).unwrap();
    let line = d.base().line();
    let prog = move |ctx: WarpCtx| {
        // Both GPUs read (subscribing) and atomically update the line.
        let _ = ctx;
        vec![
            WarpInstr::Load(LineRange::single(line)),
            WarpInstr::Atomic(line),
        ]
    };
    b.phase(vec![kernel(0, 1, 1, prog), kernel(1, 1, 1, prog)]);
    b.phase(vec![kernel(0, 1, 1, prog), kernel(1, 1, 1, prog)]);
    let wl = b.build(1).unwrap();
    for workers in SHAPES {
        let (report, _) = run(&wl, 2, workers);
        // Each atomic broadcasts one line to the peer: 2 per phase, 2
        // phases.
        assert_eq!(report.interconnect_bytes, 4 * 128, "workers={workers}");
        assert_eq!(
            report.metric("rwq_hit_rate"),
            Some(0.0),
            "workers={workers}"
        );
        assert_eq!(
            report.metric("atomic_broadcasts"),
            Some(4.0),
            "workers={workers}"
        );
    }
}

#[test]
fn single_subscriber_pages_are_downgraded_after_profiling() {
    let mut b = WorkloadBuilder::new("downgrade", PageSize::Standard64K, 4);
    let d = b.alloc_shared("d", 2 * 65536).unwrap();
    let page0 = d.base().line();
    let page1 = d.line_at(512);
    // Page 0: GPU 0 only. Page 1: GPUs 0 and 2.
    b.phase(vec![
        kernel(0, 1, 1, move |_: WarpCtx| {
            vec![WarpInstr::store1(page0), WarpInstr::store1(page1)]
        }),
        kernel(2, 1, 1, move |_: WarpCtx| {
            vec![WarpInstr::Load(LineRange::single(page1))]
        }),
    ]);
    // Steady iteration: same pattern.
    b.phase(vec![
        kernel(0, 1, 1, move |_: WarpCtx| {
            vec![WarpInstr::store1(page0), WarpInstr::store1(page1)]
        }),
        kernel(2, 1, 1, move |_: WarpCtx| {
            vec![WarpInstr::Load(LineRange::single(page1))]
        }),
    ]);
    let wl = b.build(1).unwrap();
    for workers in SHAPES {
        let (report, policy) = run(&wl, 4, workers);
        let view = policy.system().unwrap().runtime().view();
        let vpn0 = d.base().vpn(PageSize::Standard64K);
        assert!(
            !view.page_state(vpn0).unwrap().gps_bit,
            "workers={workers}: single-subscriber page must be conventional"
        );
        assert!(
            view.page_state(vpn0.next()).unwrap().gps_bit,
            "workers={workers}"
        );
        // Steady phase traffic: only page 1's store broadcasts (1 line to
        // one subscriber).
        let t = &report.phase_traffic;
        assert_eq!(t[1] - t[0], 128, "workers={workers}");
    }
}
