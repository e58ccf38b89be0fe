//! Determinism guarantees of the parallel lane engine.
//!
//! The PureLocal tier must reproduce the classic engine's `SimReport`
//! bit-for-bit; every tier must be invariant to the worker count; and a
//! lane with no work must never hold the conservative window back.

use std::sync::Arc;

use gps_interconnect::{LinkGen, Topology};
use gps_sim::{
    AllLocalPolicy, Engine, KernelSpec, SimConfig, WarpCtx, WarpInstr, Workload, WorkloadBuilder,
};
use gps_types::{GpuId, LineRange, PageSize, Scope};

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

/// A mixed workload exercising loads, stores, compute, atomics and fences
/// across two phases.
fn mixed_workload(gpus: usize, ctas_per_gpu: u32) -> Workload {
    let mut b = WorkloadBuilder::new("mixed", PageSize::Standard64K, gpus);
    let data = b.alloc_shared("data", 64 * 1024 * 1024).unwrap();
    let base = data.base().line();
    for _phase in 0..2 {
        let mut launches = Vec::new();
        for g in 0..gpus {
            launches.push(kernel(g as u16, ctas_per_gpu, 4, move |ctx: WarpCtx| {
                let warp = ctx.global_warp() as u64;
                let gpu = ctx.gpu.index() as u64;
                let start = base.offset((gpu * 700_000 + warp * 32) % (512 * 1024 - 64));
                vec![
                    WarpInstr::Load(LineRange::contiguous(start, 32)),
                    WarpInstr::Compute(64),
                    WarpInstr::Store(LineRange::contiguous(start, 16), Scope::Weak),
                    WarpInstr::Atomic(start),
                    WarpInstr::Fence(Scope::Gpu),
                ]
            }));
        }
        b.phase(launches);
    }
    b.build(1).unwrap()
}

fn run_with(workload: &Workload, config: SimConfig, link: LinkGen) -> gps_sim::SimReport {
    let mut policy = AllLocalPolicy::new();
    Engine::new(config, link, workload, &mut policy)
        .unwrap()
        .run()
}

#[test]
fn pure_tier_is_bit_identical_to_classic() {
    for gpus in [1usize, 2, 4] {
        let wl = mixed_workload(gpus, 32);
        let classic = run_with(&wl, SimConfig::gv100_system(gpus), LinkGen::NvLink2);
        for workers in [1usize, 2, 3, 4] {
            let lanes = run_with(
                &wl,
                SimConfig::gv100_system(gpus).with_parallel_workers(workers),
                LinkGen::NvLink2,
            );
            assert_eq!(classic, lanes, "gpus={gpus} workers={workers}");
        }
    }
}

#[test]
fn pure_tier_matches_classic_at_16_gpus_on_every_topology() {
    let wl = mixed_workload(16, 8);
    for topology in Topology::ALL {
        let mut cfg = SimConfig::gv100_system(16);
        cfg.topology = topology;
        let classic = run_with(&wl, cfg, LinkGen::NvLink2);
        let lanes = run_with(&wl, cfg.with_parallel_workers(2), LinkGen::NvLink2);
        assert_eq!(classic, lanes, "topology={topology}");
    }
}

#[test]
fn paper_16gpu_preset_runs_parallel_and_matches_classic() {
    let wl = mixed_workload(16, 8);
    let classic = run_with(&wl, SimConfig::paper_16gpu(), LinkGen::NvLink2);
    let lanes = run_with(
        &wl,
        SimConfig::paper_16gpu().with_parallel_workers(4),
        LinkGen::NvLink2,
    );
    assert_eq!(classic, lanes);
}

#[test]
fn superpod_presets_run_parallel_and_match_classic() {
    // The superpod scale-ups: 32 GPUs behind one NVSwitch plane and 64
    // GPUs on a PCIe host-bridge tree. The pure tier must stay
    // bit-identical to the classic engine at these counts, including with
    // more workers than a desktop host has cores (the pool just queues).
    for (cfg, gpus) in [
        (SimConfig::superpod_32(), 32usize),
        (SimConfig::superpod_64(), 64),
    ] {
        assert_eq!(cfg.gpu_count, gpus);
        let wl = mixed_workload(gpus, 2);
        let classic = run_with(&wl, cfg, LinkGen::NvLink3);
        for workers in [1usize, 8, 16] {
            let lanes = run_with(&wl, cfg.with_parallel_workers(workers), LinkGen::NvLink3);
            assert_eq!(classic, lanes, "gpus={gpus} workers={workers}");
        }
    }
}

#[test]
fn epoch_window_size_never_leaks_into_pure_tier_results() {
    // The two superpod fabrics give the lane engine different conservative
    // window sizes (NVSwitch adds a hop to the minimum cross-GPU latency,
    // the PCIe tree does not). Under the all-local policy nothing crosses
    // the fabric, so the window size is pure scheduling: the report must be
    // identical across both fabrics and equal to the classic engine's.
    let wl = mixed_workload(32, 2);
    let mut nvswitch_cfg = SimConfig::superpod_32().with_parallel_workers(8);
    nvswitch_cfg.topology = Topology::NvSwitch;
    let mut tree_cfg = nvswitch_cfg;
    tree_cfg.topology = Topology::PcieTree;
    let nvswitch = run_with(&wl, nvswitch_cfg, LinkGen::NvLink3);
    let tree = run_with(&wl, tree_cfg, LinkGen::NvLink3);
    assert_eq!(
        nvswitch.interconnect_bytes, 0,
        "all-local: fabric untouched"
    );
    assert_eq!(
        nvswitch, tree,
        "window size is scheduling only; it must not perturb the result"
    );
    let mut classic = nvswitch_cfg;
    classic.parallel_workers = 0;
    assert_eq!(nvswitch, run_with(&wl, classic, LinkGen::NvLink3));
}

#[test]
fn idle_lane_does_not_stall_the_window_loop() {
    // GPU 1 has no launches in either phase: the window loop must ignore
    // its empty heap and finish, and the report must match classic.
    let mut b = WorkloadBuilder::new("lopsided", PageSize::Standard64K, 2);
    let data = b.alloc_shared("data", 1 << 20).unwrap();
    let base = data.base().line();
    for _phase in 0..2 {
        b.phase(vec![kernel(0, 16, 4, move |ctx: WarpCtx| {
            let warp = ctx.global_warp() as u64;
            vec![
                WarpInstr::Load(LineRange::contiguous(base.offset(warp * 32 % 4096), 32)),
                WarpInstr::Store(
                    LineRange::contiguous(base.offset(warp * 8 % 4096), 8),
                    Scope::Sys,
                ),
            ]
        })]);
    }
    let wl = b.build(1).unwrap();
    let classic = run_with(&wl, SimConfig::gv100_system(2), LinkGen::Pcie3);
    let lanes = run_with(
        &wl,
        SimConfig::gv100_system(2).with_parallel_workers(2),
        LinkGen::Pcie3,
    );
    assert_eq!(classic, lanes);
    assert_eq!(lanes.per_gpu[1].warps, 0);
}
