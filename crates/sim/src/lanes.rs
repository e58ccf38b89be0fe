//! The event loop: GPUs simulated on deterministic event *lanes*.
//!
//! A lane owns a set of GPUs — their caches, TLBs, DRAM and kernel queues
//! — and one private `(time, sequence)` event queue ([`LaneQueue`]) over
//! all of their warps. [`run`] drives the lanes through time windows,
//! MGSim-style, and every configuration runs on one of two lane shapes:
//!
//! * **The reference lane** owns every GPU and drains each phase in one
//!   window of unbounded length. It routes *eagerly*: each load, store,
//!   atomic, TLB miss, fence and kernel end calls the policy's hook
//!   mid-step against the shared fabric, and a remote read is booked at
//!   once against the owner GPU's DRAM, which this lane also owns. With a
//!   single queue the pop order is the global `(time, sequence)` order
//!   over all GPUs, and the lane emits straight into the run's probe.
//!   `parallel_workers == 0` and the [`LaneMode::Fallback`] tier run here.
//! * **Per-GPU lanes** own one GPU each. Cross-lane effects are exchanged
//!   only at window barriers, so the lanes may be driven by any number of
//!   worker threads without changing the result.
//!
//! Per-GPU tiers (declared by the policy via [`MemoryPolicy::lane_mode`]):
//!
//! * [`LaneMode::PureLocal`] — every access is local, so the lanes never
//!   interact inside a phase: one window of infinite length per phase.
//!   Within a lane, the pop order under `(time, lane seq)` equals the
//!   reference lane's `(time, seq)` order restricted to that GPU
//!   (relative sequence order is push order in both), and every timing
//!   input is GPU-local, so the [`SimReport`] is **bit-identical** to the
//!   reference lane's.
//! * [`LaneMode::Epochs`] — the conservative tier. Each lane owns a
//!   [`LaneRouter`] handed out by the policy, the engine's one per-GPU
//!   routing channel: the router decides every load, store, atomic, TLB
//!   miss and release from lane-local state plus a snapshot of the
//!   policy's shared state, and *buffers* every cross-lane effect. It
//!   answers with the eager hooks' routes, so both lane shapes share one
//!   route→action mapping. Lanes advance in windows of the fabric's
//!   minimum cross-GPU latency `E`
//!   ([`Topology::min_cross_gpu_latency`]): an access at `t < W + E`
//!   cannot observe data published after `W`, so applying the buffered
//!   effects at the barrier in `(cycle, gpu, program order)` order
//!   ([`MemoryPolicy::lane_barrier`]) is *conservative*. Remote loads
//!   suspend their warp; the barrier books them against the owner's DRAM
//!   and the shared fabric in deterministic order and resumes the warp at
//!   its arrival (which lands at or after `W + E` because the request
//!   leaves at `t >= W` and pays at least `E` in flight). A release whose
//!   [`LaneRouter::flush`] asks to wait (GPS's write-queue drain at a
//!   kernel end or sys-scoped fence) resumes at the per-GPU visibility
//!   horizon the barrier returns. GPS routers publish broadcasts, RDL
//!   routers publish last-writer updates; the engine knows neither rule.
//!   Results are deterministic and worker-count-invariant, but cross-GPU
//!   visibility is bounded-stale (at most one window), so the tier is
//!   pinned by its own golden reports rather than the reference lane's.
//!
//! A latency-free fabric admits no conservative window, and a policy that
//! cannot hand out one router per GPU cannot run the epoch tier: both run
//! on the reference lane instead.
//!
//! # Epoch-window boundary
//!
//! [`LaneQueue::pop_before`] is *strictly* exclusive: an event at exactly
//! `W + E` stays queued when the window `[W, W + E)` drains. This is
//! load-bearing, not an off-by-one — an access at `W + E` may legally
//! observe a cross-GPU effect published at `W` (the fabric's minimum
//! latency has elapsed), so it must execute only after the barrier has
//! merged the window's publishes. Conversely every barrier-resolved
//! remote load lands at or after `W + E` (request leaves at `t >= W`,
//! pays at least `E` in flight — asserted in [`resolve_suspended`]), so
//! re-queued warps never reenter the closed window.
//!
//! # Worker threads
//!
//! `SimConfig::parallel_workers > 1` splits the per-GPU lanes into that
//! many fixed contiguous chunks (sizes differ by at most one) and drains
//! each window with one fork-join: the calling thread drains the first
//! chunk, a [`std::thread::scope`] thread each of the others, and the
//! scope's join is the window's barrier. Between windows the calling
//! thread owns every lane and runs the policy, the shared fabric and all
//! barrier work. Each drain reads only its own lane, the read-only run
//! config and the window end, so reports *and* telemetry are
//! bit-identical for 1 vs `N` workers (pinned by tests), whichever chunk
//! a lane lands in. A panicking drain reaches the caller at the join.
//!
//! Telemetry: the per-access counters never touch a probe mid-phase.
//! Each lane sums its GPUs' TLB hits and misses, each [`DramModel`] its
//! read and write bytes, and the coordinator's fabric its per-GPU link
//! bytes, per bucket ([`BucketSums`]). At each phase end, after the join,
//! the coordinator flushes the lanes' sums into the run's probe, then the
//! fabric's once the policy's phase hook has booked its transfers: one
//! counter call per touched bucket, so a streaming sink sees bucket sums
//! rather than accesses. Sums do not depend on order. Every other
//! emission of a per-GPU lane (router RWQ/ATU series, kernel spans) is
//! buffered, tagged with the event time ([`ProbeHandle::buffering`]); at
//! the same phase end the coordinator passes every lane's handle to the
//! run's probe in one [`ProbeHandle::replay_merged`] call, which k-way
//! merges the buffers by `(tag, lane, queue position)` and replays them
//! under one lock, so `--telemetry` output is independent of lane
//! interleaving. The reference lane emits those straight into the run's
//! probe and buffers nothing.
//!
//! [`MemoryPolicy::lane_mode`]: crate::MemoryPolicy::lane_mode
//! [`MemoryPolicy::lane_barrier`]: crate::MemoryPolicy::lane_barrier
//! [`LaneMode::PureLocal`]: crate::LaneMode::PureLocal
//! [`LaneMode::Epochs`]: crate::LaneMode::Epochs
//! [`LaneMode::Fallback`]: crate::LaneMode::Fallback
//! [`BucketSums`]: gps_obs::BucketSums
//! [`LaneRouter`]: crate::LaneRouter
//! [`LaneRouter::flush`]: crate::LaneRouter::flush
//! [`SimReport`]: crate::SimReport
//! [`Topology::min_cross_gpu_latency`]: gps_interconnect::Topology::min_cross_gpu_latency

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gps_interconnect::{Fabric, FabricConfig, LinkGen};
use gps_obs::{names, ProbeHandle, Track};
use gps_types::{Cycle, GpuId, LineAddr, PageSize, Scope, CACHE_LINE_BYTES};

use crate::config::{GpuConfig, SimConfig};
use crate::dram::DramModel;
use crate::engine::{l2_read, l2_write, Engine, GpuState, KernelRun, Warp};
use crate::instr::WarpInstr;
use crate::pipeline::{expand_cta, BufferArena};
use crate::policy::{LaneMode, LaneRouter, LoadRoute, MemCtx, MemoryPolicy, StoreRoute};
use crate::stats::SimReport;
use crate::workload::Workload;

/// Per-lane event queue: a binary heap of `(time, sequence, slot)` keys
/// packed into one `u128` — time in the top 56 bits, a per-lane push
/// sequence in the middle 48, the warp slot in the low 24 — so a sift
/// compare is a single branch on 16-byte keys instead of a
/// lexicographic tuple walk.
///
/// The sequence is assigned in push order, so two events at the same
/// cycle pop in the order they were pushed. The slot bits are never
/// reached as a tie-break (sequences are unique); they just ride along so
/// the pop returns the payload.
struct LaneQueue {
    heap: BinaryHeap<Reverse<u128>>,
    seq: u64,
}

/// Bit layout of the packed key.
const KEY_SLOT_BITS: u32 = 24;
const KEY_SEQ_BITS: u32 = 48;

impl LaneQueue {
    fn new() -> Self {
        LaneQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn push(&mut self, t: u64, slot: usize) {
        debug_assert!(t < 1 << (128 - 72), "cycle overflows the packed key");
        debug_assert!(slot < 1 << KEY_SLOT_BITS, "slot overflows the packed key");
        debug_assert!(
            self.seq < (1 << KEY_SEQ_BITS) - 1,
            "push seq overflows the packed key"
        );
        self.seq += 1;
        let key = ((t as u128) << (KEY_SEQ_BITS + KEY_SLOT_BITS))
            | ((self.seq as u128) << KEY_SLOT_BITS)
            | slot as u128;
        self.heap.push(Reverse(key));
    }

    /// The earliest queued event's cycle, if any.
    fn peek_time(&self) -> Option<u64> {
        self.heap
            .peek()
            .map(|&Reverse(key)| (key >> (KEY_SEQ_BITS + KEY_SLOT_BITS)) as u64)
    }

    /// Pops the earliest event as `(cycle, slot)` if it lies strictly
    /// before `limit`. Strictness is the epoch-boundary invariant: an
    /// event at exactly the window end may observe that window's merged
    /// publishes, so it must drain only after the barrier (see module
    /// docs).
    fn pop_before(&mut self, limit: u64) -> Option<(u64, usize)> {
        let &Reverse(key) = self.heap.peek()?;
        let t = (key >> (KEY_SEQ_BITS + KEY_SLOT_BITS)) as u64;
        if t >= limit {
            return None;
        }
        self.heap.pop();
        Some((t, (key & ((1 << KEY_SLOT_BITS) - 1)) as usize))
    }
}

/// Shared, read-only inputs every lane needs while draining a window.
#[derive(Clone, Copy)]
struct LaneCtx<'w> {
    config: &'w SimConfig,
    /// GPU count the workload was partitioned for (CTA stream expansion).
    gpu_count: u32,
}

/// Eager routing, the reference lane's mode: the policy and the shared
/// fabric, handed to the step so every hook runs in event order.
struct Eager<'e> {
    policy: &'e mut dyn MemoryPolicy,
    fabric: &'e mut Fabric,
    page_size: PageSize,
}

impl Eager<'_> {
    /// Calls one policy hook with a memory context at `now`.
    fn call<R>(
        &mut self,
        now: Cycle,
        hook: impl FnOnce(&mut dyn MemoryPolicy, &mut MemCtx<'_>) -> R,
    ) -> R {
        let mut ctx = MemCtx {
            now,
            fabric: self.fabric,
            page_size: self.page_size,
        };
        hook(self.policy, &mut ctx)
    }
}

/// Books one cache line from `from` to `to` on the shared fabric at `at`;
/// returns its arrival (`at` itself when the fabric refuses the pair).
fn book_line(fabric: &mut Fabric, from: GpuId, to: GpuId, at: Cycle) -> Cycle {
    // gps-lint: allow(lane_tier_purity) -- the lane's single fabric booking point: mid-window only the reference lane reaches it (eager routing, one lane on one worker); per-GPU lanes reach it from coordinator barrier work
    let booked = fabric.transfer(from, to, CACHE_LINE_BYTES, at);
    booked.map(|tr| tr.arrived).unwrap_or(at)
}

/// Demand-read of one line from a peer GPU's DRAM over the fabric: request
/// hop, owner DRAM, fabric transfer back. Returns the data arrival.
///
/// Peer loads are not cached in the local L2 — remote data is not kept
/// coherent, which is exactly the gap proposals like CARVE fill (§8). The
/// caller fills the requester's per-SM L1, which provides the short
/// intra-kernel reuse window real hardware exhibits.
fn remote_read(
    owner: &mut DramModel,
    fabric: &mut Fabric,
    from: GpuId,
    to: GpuId,
    t: Cycle,
) -> Cycle {
    let data_at = owner.read(CACHE_LINE_BYTES, t + fabric.link().latency());
    book_line(fabric, from, to, data_at)
}

/// A warp parked mid-instruction: its completion depends on cross-lane
/// state and resolves at the next window barrier.
struct Suspend {
    slot: usize,
    /// Max over the local lines' arrivals (and `issue + 1`); the barrier
    /// raises it to cover the remote arrivals.
    ready: Cycle,
    /// `(owner, line, issue time)` per remote line.
    pending: Vec<(GpuId, LineAddr, Cycle)>,
    /// Sys-scoped fence whose release waits for the barrier (the router's
    /// [`LaneRouter::flush`] said so): the barrier resumes the warp no
    /// earlier than the GPU's visibility horizon and the window end.
    flush: bool,
}

enum Stepped {
    Ready,
    Suspended(Suspend),
}

/// How one coalesced load routes, after the mode-specific lookup.
enum RoutedLoad {
    /// Local hierarchy from the given cycle (past the translated time when
    /// a fault stalls the access first).
    Local(Cycle),
    /// Serviced by the issuing GPU's own write queue (§5.1 forwarding):
    /// L2-latency hit, no fill, no L2 access.
    Forwarded,
    /// Demand-read from the owner, issued at the given cycle: booked at
    /// once by the reference lane, at the next window barrier otherwise.
    Remote(GpuId, Cycle),
}

/// The simulation state of the GPUs `first..first + gpus.len()`.
struct Lane {
    first: usize,
    gpus: Vec<GpuState>,
    warps: Vec<Warp>,
    free_slots: Vec<usize>,
    events: LaneQueue,
    arena: BufferArena,
    suspended: Vec<Suspend>,
    /// The GPU's routing channel to the policy ([`LaneMode::Epochs`]
    /// only, so "this lane" and "this lane's GPU" coincide).
    router: Option<Box<dyn LaneRouter>>,
    /// The run's probe on the reference lane; a buffering handle on a
    /// per-GPU lane when telemetry is on; disabled otherwise.
    probe: ProbeHandle,
    buffered: bool,
}

impl Lane {
    fn new(
        first: usize,
        count: usize,
        config: &SimConfig,
        probe: ProbeHandle,
        buffered: bool,
    ) -> Self {
        let gpus = (0..count)
            .map(|_| {
                let mut gpu = GpuState::new(config);
                if probe.is_enabled() {
                    gpu.enable_telemetry();
                }
                gpu
            })
            .collect();
        Lane {
            first,
            gpus,
            warps: Vec::new(),
            free_slots: Vec::new(),
            events: LaneQueue::new(),
            arena: BufferArena::new(),
            suspended: Vec::new(),
            router: None,
            probe,
            buffered,
        }
    }

    /// Processes every queued event strictly before `window_end`.
    fn drain_window(
        &mut self,
        ctx: &LaneCtx<'_>,
        mut eager: Option<&mut Eager<'_>>,
        window_end: u64,
    ) {
        'events: while let Some((t, slot)) = self.events.pop_before(window_end) {
            let mut t = t;
            loop {
                if self.buffered {
                    self.probe.set_tag(t);
                }
                match self.step(ctx, eager.as_deref_mut(), slot) {
                    Stepped::Ready => {
                        if self.warps[slot].stream.is_exhausted() {
                            let done_at = self.warps[slot].ready;
                            self.retire_warp(ctx, eager.as_deref_mut(), slot, done_at);
                            continue 'events;
                        }
                        let ready = self.warps[slot].ready.as_u64();
                        // Run-ahead: if this warp's next event strictly
                        // precedes everything queued (and fits the
                        // window), it would be the next pop anyway — step
                        // it now and skip the push/pop round trip. Strict
                        // inequality keeps `(time, seq)` order: a tie
                        // must yield to the already-queued event.
                        if ready < window_end
                            && self.events.peek_time().is_none_or(|next| ready < next)
                        {
                            t = ready;
                            continue;
                        }
                        self.events.push(ready, slot);
                        continue 'events;
                    }
                    Stepped::Suspended(s) => {
                        self.suspended.push(s);
                        continue 'events;
                    }
                }
            }
        }
    }

    /// Executes one instruction of warp `slot`, routing through the policy
    /// (`eager`, the reference lane) or the lane's [`LaneRouter`] (per-GPU
    /// lanes of the epoch tier); a per-GPU lane without a router routes
    /// everything locally.
    fn step(
        &mut self,
        ctx: &LaneCtx<'_>,
        mut eager: Option<&mut Eager<'_>>,
        slot: usize,
    ) -> Stepped {
        let gcfg = GpuConfig::gv100();
        let (g, sm, instr) = {
            let w = &mut self.warps[slot];
            // gps-lint: allow(no_expect) -- queued slots always hold a next instruction; retire removes exhausted warps
            let instr = w.stream.next().expect("stepped an exhausted warp");
            (w.gpu, w.sm, instr)
        };
        let lg = g - self.first;
        let gpu_id = GpuId::new(g as u16);
        let issue = self.warps[slot].ready.max(self.gpus[lg].sm_issue[sm]);
        self.gpus[lg].instructions += 1;

        match instr {
            WarpInstr::Compute(c) => {
                let gpu = &mut self.gpus[lg];
                let end = Cycle::new(issue.as_u64() + c as u64);
                gpu.sm_issue[sm] = end.max(Cycle::new(issue.as_u64() + 1));
                gpu.sm_busy += (c as u64).max(1);
                self.warps[slot].ready = end.max(Cycle::new(issue.as_u64() + 1));
                Stepped::Ready
            }
            WarpInstr::Load(range) => {
                let gpu = &mut self.gpus[lg];
                gpu.sm_busy += range.len().max(1) as u64;
                gpu.sm_issue[sm] = Cycle::new(issue.as_u64() + range.len().max(1) as u64);
                let mut ready = Cycle::new(issue.as_u64() + 1);
                let mut pending: Vec<(GpuId, LineAddr, Cycle)> = Vec::new();
                for (i, line) in range.iter().enumerate() {
                    let t0 = Cycle::new(issue.as_u64() + i as u64);
                    let gpu = &mut self.gpus[lg];
                    if gpu.l1[sm].probe(line) {
                        gpu.l1_hits += 1;
                        ready = ready.max(t0 + gcfg.l1_latency);
                        continue;
                    }
                    gpu.l1_misses += 1;
                    let t = self.translate(ctx, eager.as_deref_mut(), lg, line, t0);
                    match self.route_load(eager.as_deref_mut(), gpu_id, line, t) {
                        RoutedLoad::Local(at) => {
                            let gpu = &mut self.gpus[lg];
                            let arrival = l2_read(gpu, line, gpu_id, at);
                            gpu.l1[sm].fill(line, gpu_id);
                            ready = ready.max(arrival);
                        }
                        RoutedLoad::Forwarded => {
                            ready = ready.max(t + gcfg.l2_latency);
                        }
                        RoutedLoad::Remote(from, at) => match eager.as_deref_mut() {
                            Some(ex) => {
                                let owner = &mut self.gpus[from.index() - self.first].dram;
                                let arrival = remote_read(owner, ex.fabric, from, gpu_id, at);
                                self.gpus[lg].l1[sm].fill(line, from);
                                ready = ready.max(arrival);
                            }
                            None => pending.push((from, line, at)),
                        },
                    }
                }
                if pending.is_empty() {
                    self.warps[slot].ready = ready;
                    Stepped::Ready
                } else {
                    Stepped::Suspended(Suspend {
                        slot,
                        ready,
                        pending,
                        flush: false,
                    })
                }
            }
            WarpInstr::Store(range, scope) => {
                let gpu = &mut self.gpus[lg];
                gpu.sm_busy += range.len().max(1) as u64;
                gpu.sm_issue[sm] = Cycle::new(issue.as_u64() + range.len().max(1) as u64);
                let mut ready = Cycle::new(issue.as_u64() + 1);
                for (i, line) in range.iter().enumerate() {
                    let t0 = Cycle::new(issue.as_u64() + i as u64);
                    let t = self.translate(ctx, eager.as_deref_mut(), lg, line, t0);
                    if let Some(stall) =
                        self.store_line(eager.as_deref_mut(), lg, sm, line, scope, t, false)
                    {
                        ready = ready.max(stall);
                    }
                }
                self.warps[slot].ready = ready;
                Stepped::Ready
            }
            WarpInstr::Atomic(line) => {
                let gpu = &mut self.gpus[lg];
                gpu.sm_busy += 1;
                gpu.sm_issue[sm] = Cycle::new(issue.as_u64() + 1);
                let t = self.translate(ctx, eager.as_deref_mut(), lg, line, issue);
                let mut ready = Cycle::new(issue.as_u64() + 1);
                if let Some(stall) = self.store_line(eager, lg, sm, line, Scope::Gpu, t, true) {
                    ready = ready.max(stall);
                }
                self.warps[slot].ready = ready;
                Stepped::Ready
            }
            WarpInstr::Fence(scope) => {
                let gpu = &mut self.gpus[lg];
                gpu.sm_busy += 1;
                gpu.sm_issue[sm] = Cycle::new(issue.as_u64() + 1);
                let ready = Cycle::new(issue.as_u64() + 1);
                if let Some(ex) = eager {
                    let done = ex.call(issue, |p, c| p.on_fence(gpu_id, scope, c));
                    self.warps[slot].ready = done.max(ready);
                    return Stepped::Ready;
                }
                // Sys-scoped fence: a release the router makes wait resolves
                // at the barrier; any other fence never stalls past issue.
                if scope.drains_write_queue()
                    && self.router.as_mut().is_some_and(|r| r.flush(issue))
                {
                    return Stepped::Suspended(Suspend {
                        slot,
                        ready,
                        pending: Vec::new(),
                        flush: true,
                    });
                }
                self.warps[slot].ready = ready;
                Stepped::Ready
            }
        }
    }

    /// Conventional-TLB translation of `line` on owned GPU `lg`, charging a
    /// walk on a miss; returns when translation completes. A miss is
    /// reported at the pre-walk time `t0` to the policy (eager) or the
    /// lane's router (access tracking).
    fn translate(
        &mut self,
        ctx: &LaneCtx<'_>,
        eager: Option<&mut Eager<'_>>,
        lg: usize,
        line: LineAddr,
        t0: Cycle,
    ) -> Cycle {
        let g = self.first + lg;
        let gcfg = GpuConfig::gv100();
        let gpu = &mut self.gpus[lg];
        let vpn = line.vpn(ctx.config.page_size);
        if gpu.tlb.lookup(vpn).is_some() {
            gpu.tlb_hit_sums.add(t0, 1);
            return t0;
        }
        gpu.tlb_miss_sums.add(t0, 1);
        gpu.tlb.insert(vpn, ());
        // Walks serialise on the GPU's shared page walker.
        let start = gpu.walker_free.max(t0);
        gpu.walker_free = start + gcfg.tlb_walker_interval;
        if let Some(ex) = eager {
            ex.call(t0, |p, c| p.on_tlb_miss(GpuId::new(g as u16), vpn, c));
        } else if let Some(router) = self.router.as_mut() {
            // gps-lint: allow(lane_tier_purity) -- receiver is the per-lane router, the sanctioned channel; name-based resolution cannot see receiver types
            router.tlb_miss(vpn, t0);
        }
        start + gcfg.tlb_walk_latency
    }

    /// Routes one coalesced load by `gpu` at translated time `t`: through
    /// the policy (eager) or the lane's router ([`LaneMode::Epochs`]);
    /// local otherwise.
    fn route_load(
        &mut self,
        eager: Option<&mut Eager<'_>>,
        gpu: GpuId,
        line: LineAddr,
        t: Cycle,
    ) -> RoutedLoad {
        let route = if let Some(ex) = eager {
            ex.call(t, |p, c| p.route_load(gpu, line, c))
        } else if let Some(router) = self.router.as_mut() {
            router.load(line)
        } else {
            LoadRoute::Local
        };
        match route {
            LoadRoute::Local => RoutedLoad::Local(t),
            LoadRoute::Remote { from } => RoutedLoad::Remote(from, t),
            LoadRoute::Forwarded => RoutedLoad::Forwarded,
            LoadRoute::StallThenLocal { ready } => RoutedLoad::Local(ready.max(t)),
            // Re-fault on an evicted replica: the warp stalls for the
            // fault overhead, then the access resolves remotely like any
            // other peer read.
            LoadRoute::StallThenRemote { from, ready } => RoutedLoad::Remote(from, ready.max(t)),
        }
    }

    /// One coalesced store (or atomic) to `line` by owned GPU `lg` at
    /// translated time `t`. Returns the stall completion for stores the
    /// route stalls (faults, collapses).
    #[allow(clippy::too_many_arguments)]
    fn store_line(
        &mut self,
        eager: Option<&mut Eager<'_>>,
        lg: usize,
        sm: usize,
        line: LineAddr,
        scope: Scope,
        t: Cycle,
        atomic: bool,
    ) -> Option<Cycle> {
        let gpu_id = GpuId::new((self.first + lg) as u16);
        let route = if let Some(ex) = eager {
            let route = ex.call(t, |p, c| {
                if atomic {
                    p.route_atomic(gpu_id, line, c)
                } else {
                    p.route_store(gpu_id, line, scope, c)
                }
            });
            // A routed lane's router buffers its peer stores for the
            // barrier; the eager hooks leave the booking to the engine.
            if let StoreRoute::Remote { to } = route {
                let _ = book_line(ex.fabric, gpu_id, to, t);
            }
            route
        } else if let Some(router) = self.router.as_mut() {
            if atomic {
                // gps-lint: allow(lane_tier_purity) -- receiver is the per-lane router, the sanctioned channel; name-based resolution cannot see receiver types
                router.atomic(line, t)
            } else {
                // gps-lint: allow(lane_tier_purity) -- receiver is the per-lane router, the sanctioned channel; name-based resolution cannot see receiver types
                router.store(line, scope, t)
            }
        } else {
            StoreRoute::Local
        };
        // Write-through L1: update in place if present (probe refreshes
        // LRU); no allocation on store miss.
        let gpu = &mut self.gpus[lg];
        let _ = gpu.l1[sm].probe(line);
        match route {
            StoreRoute::Local | StoreRoute::LocalReplicated => {
                l2_write(gpu, line, gpu_id, t);
                None
            }
            // Peer store: booked above (eager) or buffered by the router
            // for the barrier; nothing is written locally.
            StoreRoute::Remote { .. } => None,
            StoreRoute::StallThenLocal { ready } => {
                let at = ready.max(t);
                l2_write(gpu, line, gpu_id, at);
                Some(at)
            }
        }
    }

    /// Emits every owned GPU's TLB and DRAM sums since the last flush
    /// into the run's `probe`.
    fn flush_telemetry(&mut self, probe: &ProbeHandle) {
        for (lg, gpu) in self.gpus.iter_mut().enumerate() {
            let track = Track::gpu(self.first + lg);
            for (at, hits) in gpu.tlb_hit_sums.drain() {
                probe.counter(track, names::TLB_HIT, at, hits as f64);
            }
            for (at, misses) in gpu.tlb_miss_sums.drain() {
                probe.counter(track, names::TLB_MISS, at, misses as f64);
            }
            gpu.dram.flush_telemetry(probe, track);
        }
    }

    /// Retires warp `slot` at `done_at`: frees the slot, recycles the
    /// stream buffer and runs the kernel bookkeeping (CTA refill, kernel
    /// finish, next launch or phase completion).
    fn retire_warp(
        &mut self,
        ctx: &LaneCtx<'_>,
        eager: Option<&mut Eager<'_>>,
        slot: usize,
        done_at: Cycle,
    ) {
        let Warp {
            gpu: g, sm, cta, ..
        } = self.warps[slot];
        let lg = g - self.first;
        self.gpus[lg].warps_done += 1;
        self.free_slots.push(slot);
        std::mem::take(&mut self.warps[slot].stream).recycle(&mut self.arena);

        // gps-lint: allow(no_expect) -- a live warp's GPU always has a running kernel
        let mut run = self.gpus[lg].running.take().expect("warp without kernel");
        run.live_warps -= 1;
        run.last_done = run.last_done.max(done_at);
        run.cta_live[cta as usize] -= 1;
        if run.cta_live[cta as usize] == 0 {
            run.sm_resident[sm] -= 1;
            // Launch a pending CTA into the freed slot.
            if run.next_cta < run.spec.cta_count {
                self.spawn_cta(&mut run, g, sm, done_at, ctx.gpu_count);
            }
        }
        if run.live_warps > 0 {
            self.gpus[lg].running = Some(run);
            return;
        }

        let gpu_id = GpuId::new(g as u16);
        self.gpus[lg].kernels_done += 1;
        self.probe.span(
            Track::gpu(g),
            &run.spec.name,
            "kernel",
            run.started,
            run.last_done,
        );
        // Grid-end implicit release: L1s drop everything, the L2 drops
        // peer-homed lines, the policy drains.
        let gpu = &mut self.gpus[lg];
        for l1 in &mut gpu.l1[..] {
            l1.invalidate_all();
        }
        gpu.l2.invalidate_remote(gpu_id);
        let last_done = run.last_done;
        let visible = if let Some(ex) = eager {
            ex.call(last_done, |p, c| p.on_kernel_end(gpu_id, c))
        } else if self.router.as_mut().is_some_and(|r| r.flush(last_done)) {
            // The release waits for the barrier: the next launch happens
            // at the GPU's visibility horizon.
            self.gpus[lg].pending_kernel = Some(last_done);
            return;
        } else {
            last_done
        };
        self.advance_kernel(ctx, lg, visible);
    }

    /// Launches owned GPU `lg`'s next queued kernel at `visible` plus the
    /// launch overhead, spawning its first wave of CTAs round-robin over
    /// the SMs until residency is full or CTAs run out; with no kernel
    /// left, marks the GPU done for the phase at `visible`.
    fn advance_kernel(&mut self, ctx: &LaneCtx<'_>, lg: usize, visible: Cycle) {
        let Some(spec) = self.gpus[lg].queue.pop_front() else {
            self.gpus[lg].done = Some(visible);
            return;
        };
        let gpu_cfg = GpuConfig::gv100();
        let at = visible + gpu_cfg.kernel_launch_overhead;
        let slots_per_sm = gpu_cfg.cta_slots_per_sm(spec.warps_per_cta);
        let mut run = KernelRun::new(spec, at, gpu_cfg.sms);
        let capacity = slots_per_sm as u64 * gpu_cfg.sms as u64;
        let first_wave = (run.spec.cta_count as u64).min(capacity) as u32;
        for _ in 0..first_wave {
            // Find next SM with room.
            let mut sm = run.sm_cursor;
            while run.sm_resident[sm] >= slots_per_sm {
                sm = (sm + 1) % gpu_cfg.sms;
            }
            run.sm_cursor = (sm + 1) % gpu_cfg.sms;
            self.spawn_cta(&mut run, self.first + lg, sm, at, ctx.gpu_count);
        }
        self.gpus[lg].running = Some(run);
    }

    /// Places `run`'s next CTA on SM `sm` of GPU `g` and schedules its
    /// warps at `at`.
    fn spawn_cta(&mut self, run: &mut KernelRun, g: usize, sm: usize, at: Cycle, wl_gc: u32) {
        let cta = run.next_cta;
        run.next_cta += 1;
        run.sm_resident[sm] += 1;
        run.cta_live[cta as usize] = run.spec.warps_per_cta;
        let streams = expand_cta(
            run.spec.program.as_ref(),
            &mut self.arena,
            GpuId::new(g as u16),
            wl_gc,
            cta,
            run.spec.cta_count,
            run.spec.warps_per_cta,
        );
        for mut stream in streams {
            // Degenerate empty warp: give it a single no-op so the retire
            // bookkeeping path still sees it.
            stream.ensure_nonempty();
            let warp = Warp {
                gpu: g,
                sm,
                cta,
                stream,
                ready: at,
            };
            let slot = match self.free_slots.pop() {
                Some(s) => {
                    self.warps[s] = warp;
                    s
                }
                None => {
                    self.warps.push(warp);
                    self.warps.len() - 1
                }
            };
            self.events.push(at.as_u64(), slot);
        }
    }
}

/// Books every suspended warp's remote lines against the owners' DRAM and
/// the shared fabric in deterministic `(issue time, lane, position)` order,
/// then resumes (or retires) each warp at its merged arrival time. Fence
/// (flush) suspends resume at the GPU's visibility horizon (`vis`,
/// [`LaneMode::Epochs`] only), no earlier than the window end.
fn resolve_suspended(
    lanes: &mut [Lane],
    fabric: &mut Fabric,
    ctx: &LaneCtx<'_>,
    window_end: u64,
    vis: Option<&[Cycle]>,
) {
    if lanes.iter().all(|l| l.suspended.is_empty()) {
        return;
    }
    struct Req {
        key: (u64, usize, usize, usize),
        lane: usize,
        sidx: usize,
        from: GpuId,
        line: LineAddr,
    }
    let mut reqs: Vec<Req> = Vec::new();
    for (li, lane) in lanes.iter().enumerate() {
        for (si, susp) in lane.suspended.iter().enumerate() {
            for (pi, &(from, line, t)) in susp.pending.iter().enumerate() {
                reqs.push(Req {
                    key: (t.as_u64(), li, si, pi),
                    lane: li,
                    sidx: si,
                    from,
                    line,
                });
            }
        }
    }
    reqs.sort_unstable_by_key(|r| r.key);

    for r in reqs {
        let slot = lanes[r.lane].suspended[r.sidx].slot;
        let (g, sm) = (lanes[r.lane].warps[slot].gpu, lanes[r.lane].warps[slot].sm);
        let owner = lanes
            .iter_mut()
            .find_map(|l| l.gpus.get_mut(r.from.index().checked_sub(l.first)?))
            // gps-lint: allow(no_expect) -- the lanes together own every GPU
            .expect("remote owner outside every lane");
        let arrived = remote_read(
            &mut owner.dram,
            fabric,
            r.from,
            GpuId::new(g as u16),
            Cycle::new(r.key.0),
        );
        debug_assert!(
            window_end == u64::MAX || arrived.as_u64() >= window_end,
            "a barrier-resolved remote load must land at or after the window end"
        );
        let lane = &mut lanes[r.lane];
        lane.gpus[g - lane.first].l1[sm].fill(r.line, r.from);
        let susp = &mut lane.suspended[r.sidx];
        susp.ready = susp.ready.max(arrived);
    }

    for lane in lanes.iter_mut() {
        let susps = std::mem::take(&mut lane.suspended);
        for susp in susps {
            let mut ready = susp.ready;
            if susp.flush {
                if let Some(vis) = vis {
                    ready = ready.max(vis[lane.warps[susp.slot].gpu]);
                }
                if window_end != u64::MAX {
                    // A resumed fence must not reenter the closed window.
                    ready = ready.max(Cycle::new(window_end));
                }
            }
            lane.warps[susp.slot].ready = ready;
            if !lane.warps[susp.slot].stream.is_exhausted() {
                lane.events.push(ready.as_u64(), susp.slot);
            } else {
                if lane.buffered {
                    lane.probe.set_tag(ready.as_u64());
                }
                lane.retire_warp(ctx, None, susp.slot, ready);
            }
        }
    }
}

/// Drains every lane's events strictly before `window_end`: inline for
/// one worker and on the reference lane (`eager` routing), otherwise as
/// one fork-join over `workers` fixed chunks (see "Worker threads" in the
/// module docs).
fn drain_lanes(
    lanes: &mut [Lane],
    workers: usize,
    ctx: &LaneCtx<'_>,
    mut eager: Option<&mut Eager<'_>>,
    window_end: u64,
) {
    if workers == 1 || eager.is_some() {
        for lane in lanes.iter_mut() {
            lane.drain_window(ctx, eager.as_deref_mut(), window_end);
        }
        return;
    }
    let drain_chunk = |chunk: &mut [Lane]| {
        for lane in chunk {
            lane.drain_window(ctx, None, window_end);
        }
    };
    // `workers <= lanes.len()`, so every chunk holds at least one lane.
    let (base, extra) = (lanes.len() / workers, lanes.len() % workers);
    let (head, mut rest) = lanes.split_at_mut(base + usize::from(extra > 0));
    std::thread::scope(|s| {
        for i in 1..workers {
            let (chunk, tail) =
                std::mem::take(&mut rest).split_at_mut(base + usize::from(i < extra));
            rest = tail;
            s.spawn(move || drain_chunk(chunk));
        }
        drain_chunk(head);
    });
}

/// Runs `engine`'s workload: on per-GPU lanes when `parallel_workers >= 1`,
/// the policy's tier admits them and (for the epoch tier) the fabric has
/// a non-zero cross-GPU latency and the policy hands out one router per
/// GPU; on the reference lane otherwise.
pub(crate) fn run(engine: Engine<'_>) -> SimReport {
    let Engine {
        config,
        link,
        workload,
        policy,
        probe,
    } = engine;
    let gc = config.gpu_count;
    let declared = if config.parallel_workers == 0 {
        LaneMode::Fallback
    } else {
        policy.lane_mode()
    };
    let epoch = match declared {
        LaneMode::Epochs => config.topology.min_cross_gpu_latency(link).as_u64(),
        LaneMode::PureLocal | LaneMode::Fallback => 0,
    };
    // A latency-free fabric admits no conservative window.
    let mut mode = if declared != LaneMode::PureLocal && epoch == 0 {
        LaneMode::Fallback
    } else {
        declared
    };
    let telemetry = probe.is_enabled();

    // Coordinator-owned fabric: books barrier-resolved remote reads and
    // publishes, backs the policy's phase hooks, and — on the reference
    // lane only — serves the policy's mid-step routing.
    let mut fabric = Fabric::new(
        FabricConfig::new(gc, link)
            .with_topology(config.topology)
            .with_bandwidth_share(config.tenants.max(1)),
    );
    if telemetry {
        fabric.enable_telemetry();
    }

    policy.attach_probe(probe.clone());
    policy.init(workload, &config);

    // Epoch tier: one router per GPU, moved out of the policy. Any other
    // count means the policy cannot run this workload on lanes.
    let routers = if mode == LaneMode::Epochs {
        policy.lane_routers()
    } else {
        Vec::new()
    };
    if mode == LaneMode::Epochs && routers.len() != gc {
        mode = LaneMode::Fallback;
    }

    let mut lanes: Vec<Lane> = if mode == LaneMode::Fallback {
        vec![Lane::new(0, gc, &config, probe.clone(), false)]
    } else {
        (0..gc)
            .map(|g| {
                let lane_probe = if telemetry {
                    ProbeHandle::buffering()
                } else {
                    ProbeHandle::disabled()
                };
                Lane::new(g, 1, &config, lane_probe, telemetry)
            })
            .collect()
    };
    for (lane, mut router) in lanes.iter_mut().zip(routers) {
        router.attach_probe(lane.probe.clone());
        lane.router = Some(router);
    }

    let ctx = LaneCtx {
        config: &config,
        gpu_count: workload.gpu_count as u32,
    };
    let workers = config.parallel_workers.min(lanes.len()).max(1);

    run_phases(
        &mut lanes,
        workers,
        policy,
        workload,
        &ctx,
        link,
        &probe,
        &mut fabric,
        mode,
        epoch,
    )
}

/// The coordinator loop: phases, windows, barriers, telemetry merge and
/// the final report.
#[allow(clippy::too_many_arguments)]
fn run_phases(
    lanes: &mut [Lane],
    workers: usize,
    policy: &mut dyn MemoryPolicy,
    workload: &Workload,
    ctx: &LaneCtx<'_>,
    link: LinkGen,
    master_probe: &ProbeHandle,
    fabric: &mut Fabric,
    mode: LaneMode,
    epoch: u64,
) -> SimReport {
    let config = ctx.config;
    // The epoch tier: every lane routes through its policy router.
    let routed = mode == LaneMode::Epochs;
    let eager = mode == LaneMode::Fallback;
    let gpu_cfg = GpuConfig::gv100();
    let telemetry = master_probe.is_enabled();

    let mut phase_ends: Vec<Cycle> = Vec::new();
    let mut phase_traffic: Vec<u64> = Vec::new();
    let mut phase_start = Cycle::ZERO;

    for (phase_idx, phase) in workload.phases.iter().enumerate() {
        {
            let mut ctx = MemCtx {
                now: phase_start,
                fabric,
                page_size: config.page_size,
            };
            let gate = policy.on_phase_start(phase_idx, &mut ctx);
            phase_start = phase_start.max(gate);
        }
        let phase_began = phase_start;

        for lane in lanes.iter_mut() {
            for lg in 0..lane.gpus.len() {
                let gpu = &mut lane.gpus[lg];
                let id = GpuId::new((lane.first + lg) as u16);
                gpu.queue = phase.launches_for(id).cloned().collect();
                gpu.done = None;
                gpu.pending_kernel = None;
                lane.advance_kernel(ctx, lg, phase_start);
            }
        }

        // Window loop. Each window starts at the earliest pending event
        // across non-empty lanes (idle lanes never hold the epoch back)
        // and spans `E` cycles — unbounded on the reference lane and the
        // PureLocal tier; barrier work re-queues events at or after the
        // window's end, so the loop terminates when every lane drains.
        // On the epoch tier a kernel-end release may leave a lane with no
        // events but a launch pending on the barrier's visibility horizon:
        // those rounds run barrier work only.
        let mut last_window_end = phase_start.as_u64();
        loop {
            let next = lanes.iter().filter_map(|l| l.events.peek_time()).min();
            let has_pending = lanes
                .iter()
                .any(|l| l.gpus.iter().any(|g| g.pending_kernel.is_some()));
            if next.is_none() && !has_pending {
                break;
            }
            let window_end = match next {
                Some(_) if epoch == 0 => u64::MAX,
                Some(n) => n.saturating_add(epoch),
                None => last_window_end,
            };
            last_window_end = window_end;
            if next.is_some() {
                let mut routing = eager.then_some(Eager {
                    policy: &mut *policy,
                    fabric: &mut *fabric,
                    page_size: config.page_size,
                });
                drain_lanes(lanes, workers, ctx, routing.as_mut(), window_end);
            }
            let vis = routed.then(|| {
                let mut routers: Vec<&mut dyn LaneRouter> = lanes
                    .iter_mut()
                    .filter_map(|l| l.router.as_deref_mut())
                    .collect();
                policy.lane_barrier(&mut routers, fabric)
            });
            if let Some(vis) = vis.as_deref() {
                for lane in lanes.iter_mut() {
                    for lg in 0..lane.gpus.len() {
                        if let Some(t) = lane.gpus[lg].pending_kernel.take() {
                            let g = lane.first + lg;
                            lane.advance_kernel(ctx, lg, vis[g].max(t));
                        }
                    }
                }
            }
            resolve_suspended(lanes, fabric, ctx, window_end, vis.as_deref());
        }

        let barrier = lanes
            .iter()
            .flat_map(|l| &l.gpus)
            // gps-lint: allow(no_expect) -- the window loop only exits once every lane drained
            .map(|g| g.done.expect("phase drained with running GPU"))
            .max()
            .unwrap_or(phase_start);

        if telemetry {
            for lane in lanes.iter_mut() {
                lane.flush_telemetry(master_probe);
            }
            master_probe.replay_merged(lanes.iter().map(|l| &l.probe));
        }

        master_probe.instant(Track::SYSTEM, names::BARRIER, barrier);
        let release = {
            let mut ctx = MemCtx {
                now: barrier,
                fabric,
                page_size: config.page_size,
            };
            policy.on_phase_end(phase_idx, &mut ctx)
        };
        if routed {
            // The phase hook may have changed shared state (GPS prunes
            // subscriptions, shoots down GPS TLBs): resynchronise every
            // router's snapshot.
            let mut routers: Vec<&mut dyn LaneRouter> = lanes
                .iter_mut()
                .filter_map(|l| l.router.as_deref_mut())
                .collect();
            policy.lane_phase_sync(&mut routers);
        }
        if telemetry {
            // After the phase hook: barrier publishes book transfers there.
            fabric.flush_link_telemetry(master_probe);
            master_probe.span(
                Track::SYSTEM,
                &format!("phase {phase_idx}"),
                "phase",
                phase_began,
                release,
            );
        }
        phase_ends.push(release);
        phase_traffic.push(fabric.counters().total_bytes());
        phase_start = release + gpu_cfg.phase_sync_overhead;
    }

    if routed {
        let routers = lanes.iter_mut().filter_map(|l| l.router.take()).collect();
        policy.absorb_lane_routers(routers);
    }

    let per_gpu = lanes
        .iter()
        .flat_map(|l| &l.gpus)
        .map(GpuState::report)
        .collect();

    let total = phase_ends.last().copied().unwrap_or(Cycle::ZERO);
    let mut report = SimReport {
        workload: workload.name.clone(),
        policy: policy.name().to_owned(),
        gpu_count: config.gpu_count,
        link: link.label().to_owned(),
        total_cycles: total,
        phase_ends,
        phase_traffic,
        interconnect_bytes: 0,
        interconnect_transfers: 0,
        per_gpu,
        policy_metrics: policy.metrics(),
    };
    report.absorb_traffic(fabric.counters());
    report
}

#[cfg(test)]
mod tests {
    use super::LaneQueue;

    fn drain(q: &mut LaneQueue) -> Vec<(u64, usize)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop_before(u64::MAX) {
            out.push(ev);
        }
        out
    }

    #[test]
    fn pops_in_cycle_order_with_fifo_ties() {
        let mut q = LaneQueue::new();
        q.push(5, 0);
        q.push(3, 1);
        q.push(5, 2);
        q.push(3, 3);
        q.push(4, 4);
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(drain(&mut q), vec![(3, 1), (3, 3), (4, 4), (5, 0), (5, 2)]);
        assert!(q.pop_before(u64::MAX).is_none());
    }

    #[test]
    fn pop_is_bounded_and_cycles_at_the_limit_stay_pushable() {
        let mut q = LaneQueue::new();
        q.push(4, 0);
        q.push(9, 1);
        assert_eq!(q.pop_before(8), Some((4, 0)));
        assert_eq!(q.pop_before(8), None);
        // A window barrier re-queues a resumed warp exactly at the window
        // end; it must order ahead of the later event already queued.
        q.push(8, 2);
        assert_eq!(drain(&mut q), vec![(8, 2), (9, 1)]);
    }

    #[test]
    fn packed_keys_round_trip_large_cycles_and_slots() {
        let mut q = LaneQueue::new();
        let t = 1 << 40; // far beyond any realistic run length
        let slot = (1 << 24) - 1;
        q.push(t, slot);
        q.push(t - 1, 0);
        assert_eq!(drain(&mut q), vec![(t - 1, 0), (t, slot)]);
    }

    #[test]
    fn same_cycle_order_is_push_order_across_many_events() {
        let mut q = LaneQueue::new();
        for slot in 0..100 {
            q.push(7, slot);
        }
        let popped: Vec<usize> = drain(&mut q).into_iter().map(|(_, s)| s).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }
}
