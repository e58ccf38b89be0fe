//! GPS on the conservative lane tier: per-GPU routers for
//! [`gps_sim::LaneMode::Epochs`].
//!
//! Each router owns its GPU's remote write queue and GPS-TLB (detached
//! from the [`GpsSystem`]) plus an immutable [`RouteSnapshot`] of the
//! driver state. Inside a window the router makes every routing decision
//! locally and *buffers* cross-lane effects — RWQ broadcast publishes,
//! peer stores to conventional pages, sys-scoped collapses, and
//! access-tracking records. [`apply_barrier`] drains the buffers at each
//! epoch barrier and applies them to the shared system and fabric in
//! `(cycle, gpu, sequence)` order, making the run deterministic and
//! worker-count-invariant.
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
use std::collections::BTreeMap;
use std::sync::Arc;

use gps_core::{GpsSystem, GpsTlb, InsertOutcome, PageState, RemoteWriteQueue, RwqStats};
use gps_interconnect::Fabric;
use gps_mem::GpsPageTable;
use gps_obs::{names, ProbeHandle, Track};
use gps_sim::{LaneLoad, LaneRouter, LaneStore};
use gps_types::{Cycle, GpuId, Latency, LineAddr, PageSize, Scope, Vpn, CACHE_LINE_BYTES};

/// Immutable driver-state snapshot the routers route from: the GPS page
/// table (subscription sets), the per-page driver state (GPS bit, collapse
/// owner) and the page size. Rebuilt whenever barrier-time work mutates
/// driver state (collapse, subscription pruning).
pub(crate) struct RouteSnapshot {
    page_size: PageSize,
    table: GpsPageTable,
    pages: BTreeMap<Vpn, PageState>,
}

impl RouteSnapshot {
    /// Snapshots `sys`'s current driver state.
    pub(crate) fn capture(sys: &GpsSystem) -> Self {
        RouteSnapshot {
            page_size: sys.runtime().page_size(),
            table: sys.runtime().table().clone(),
            pages: sys.runtime().page_states().collect(),
        }
    }

    fn page(&self, vpn: Vpn) -> Option<PageState> {
        self.pages.get(&vpn).copied()
    }

    /// Mirrors [`gps_core::GpsRuntime::is_subscriber`].
    fn is_subscriber(&self, gpu: GpuId, vpn: Vpn) -> bool {
        self.table.entry(vpn).is_some_and(|e| e.is_subscriber(gpu))
    }

    /// Mirrors [`gps_core::GpsRuntime::serving_gpu`]: the collapse target
    /// if collapsed, else the first subscriber.
    fn serving_gpu(&self, vpn: Vpn) -> Option<GpuId> {
        if let Some(state) = self.pages.get(&vpn) {
            if let Some(owner) = state.collapsed {
                return Some(owner);
            }
        }
        self.table.entry(vpn).and_then(|e| e.subscribers().next())
    }
}

/// One buffered cross-lane effect.
#[derive(Clone, Copy)]
enum LaneEffect {
    /// Broadcast `line` to the writer's remote subscribers (a drained or
    /// bypassed RWQ entry; the GPS-TLB walk already happened lane-side).
    Publish { line: LineAddr },
    /// Peer store to a conventional page owned by `to` (one line-sized
    /// transfer; the fabric booking doesn't carry the address).
    Peer { to: GpuId },
    /// Sys-scoped store: collapse the page to one owner.
    Collapse { vpn: Vpn },
}

struct Buffered {
    t: Cycle,
    seq: u64,
    effect: LaneEffect,
}

/// The per-GPU router handed to the lane engine.
pub(crate) struct GpsLaneRouter {
    gpu: GpuId,
    snap: Arc<RouteSnapshot>,
    rwq: RemoteWriteQueue,
    tlb: GpsTlb,
    collapse_latency: Latency,
    probe: ProbeHandle,
    /// Per-router effect sequence: preserves program order inside one
    /// lane's window at the barrier merge.
    seq: u64,
    effects: Vec<Buffered>,
    /// Conventional-TLB misses for the access tracking unit, in lane
    /// order.
    atu: Vec<Vpn>,
    /// Atomics broadcast by this router (credited back on absorb).
    atomics: u64,
}

impl GpsLaneRouter {
    pub(crate) fn new(
        gpu: GpuId,
        snap: Arc<RouteSnapshot>,
        rwq: RemoteWriteQueue,
        tlb: GpsTlb,
        collapse_latency: Latency,
    ) -> Self {
        GpsLaneRouter {
            gpu,
            snap,
            rwq,
            tlb,
            collapse_latency,
            probe: ProbeHandle::disabled(),
            seq: 0,
            effects: Vec::new(),
            atu: Vec::new(),
            atomics: 0,
        }
    }

    /// Returns the per-GPU units (and the atomic-broadcast count) so the
    /// policy can restore them into the system.
    pub(crate) fn into_units(self) -> (RemoteWriteQueue, GpsTlb, u64) {
        (self.rwq, self.tlb, self.atomics)
    }

    fn buffer(&mut self, t: Cycle, effect: LaneEffect) {
        self.seq += 1;
        self.effects.push(Buffered {
            t,
            seq: self.seq,
            effect,
        });
    }

    /// Queues one line's broadcast: GPS-TLB translation now (lane-local
    /// timing and statistics), fabric transfers at the barrier. Mirrors
    /// [`GpsSystem`]'s `drain_line` split across the window boundary.
    fn publish(&mut self, line: LineAddr, now: Cycle) {
        let vpn = line.vpn(self.snap.page_size);
        let (entry, translated_at) = self.tlb.translate(vpn, &self.snap.table, now);
        if entry.is_some() {
            self.buffer(translated_at, LaneEffect::Publish { line });
        }
    }

    /// Mirror of `GpsPolicy::emit_rwq_delta` over this lane's own queue.
    fn emit_rwq_delta(&self, before: RwqStats, now: Cycle) {
        let after = self.rwq.stats();
        let presented = (after.hits + after.inserts + after.bypasses)
            - (before.hits + before.inserts + before.bypasses);
        if presented == 0 {
            return; // non-GPS page: the queue never saw the store
        }
        let track = Track::gpu(self.gpu.index());
        self.probe
            .counter(track, names::RWQ_STORES, now, presented as f64);
        self.probe.counter(
            track,
            names::RWQ_COALESCED,
            now,
            (after.hits - before.hits) as f64,
        );
        self.probe
            .gauge(track, names::RWQ_OCCUPANCY, now, self.rwq.len() as f64);
    }
}

impl LaneRouter for GpsLaneRouter {
    fn attach_probe(&mut self, probe: ProbeHandle) {
        self.probe = probe;
    }

    /// Mirrors [`GpsSystem::load`] against the snapshot (the
    /// subscribed-by-default tier never subscribes on read).
    fn load(&mut self, line: LineAddr) -> LaneLoad {
        let vpn = line.vpn(self.snap.page_size);
        if self.snap.page(vpn).is_none() {
            return LaneLoad::Local; // not GPS-managed
        }
        if self.snap.is_subscriber(self.gpu, vpn) {
            return LaneLoad::Local;
        }
        if self.rwq.contains(line) {
            return LaneLoad::Forwarded;
        }
        match self.snap.serving_gpu(vpn) {
            Some(from) if from != self.gpu => LaneLoad::Remote { from },
            _ => LaneLoad::Local,
        }
    }

    /// Mirrors [`GpsSystem::store`], buffering broadcasts, peer stores and
    /// collapses for the barrier.
    fn store(&mut self, line: LineAddr, scope: Scope, now: Cycle) -> LaneStore {
        let vpn = line.vpn(self.snap.page_size);
        let Some(state) = self.snap.page(vpn) else {
            return LaneStore::Local;
        };
        if !state.gps_bit {
            // Conventional (collapsed or single-subscriber) page.
            return match self.snap.serving_gpu(vpn) {
                Some(owner) if owner != self.gpu => {
                    self.buffer(now, LaneEffect::Peer { to: owner });
                    LaneStore::Remote
                }
                _ => LaneStore::Local,
            };
        }
        if scope == Scope::Sys {
            self.buffer(now, LaneEffect::Collapse { vpn });
            return LaneStore::Stall {
                ready: now + self.collapse_latency,
            };
        }
        let before = self.probe.is_enabled().then(|| self.rwq.stats());
        let (outcome, drained) = self.rwq.insert(line, scope);
        match outcome {
            InsertOutcome::Coalesced => {}
            InsertOutcome::Inserted => {
                if let Some(old) = drained {
                    self.publish(old, now);
                }
            }
            InsertOutcome::Bypassed => {
                // Zero-capacity queue: broadcast uncoalesced immediately.
                self.publish(line, now);
            }
        }
        if let Some(before) = before {
            self.emit_rwq_delta(before, now);
        }
        LaneStore::Replicated
    }

    /// Mirrors [`GpsSystem::atomic`]: never coalesced, broadcasts at the
    /// barrier.
    fn atomic(&mut self, line: LineAddr, now: Cycle) -> LaneStore {
        let vpn = line.vpn(self.snap.page_size);
        let Some(state) = self.snap.page(vpn) else {
            return LaneStore::Local;
        };
        if !state.gps_bit {
            return match self.snap.serving_gpu(vpn) {
                Some(owner) if owner != self.gpu => {
                    self.buffer(now, LaneEffect::Peer { to: owner });
                    LaneStore::Remote
                }
                _ => LaneStore::Local,
            };
        }
        let before = self.probe.is_enabled().then(|| self.rwq.stats());
        self.rwq.note_atomic_bypass();
        self.atomics += 1;
        self.publish(line, now);
        if let Some(before) = before {
            self.emit_rwq_delta(before, now);
        }
        LaneStore::Replicated
    }

    fn tlb_miss(&mut self, vpn: Vpn, now: Cycle) {
        self.probe
            .counter(Track::gpu(self.gpu.index()), names::ATU_TLB_MISS, now, 1.0);
        self.atu.push(vpn);
    }

    /// Queues the full write-queue drain; the release waits for the
    /// barrier's broadcast-visibility horizon.
    fn flush(&mut self, now: Cycle) -> bool {
        for line in self.rwq.flush() {
            self.publish(line, now);
        }
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
/// applies them to the shared system and fabric in `(cycle, gpu, sequence)`
/// order, feeds the buffered access-tracking records to the ATU, and
/// returns each GPU's broadcast-visibility horizon. Rebuilds and
/// redistributes the snapshot if a collapse changed driver state.
pub(crate) fn apply_barrier(
    routers: &mut [&mut dyn LaneRouter],
    sys: &mut GpsSystem,
    fabric: &mut Fabric,
) -> Vec<Cycle> {
    let mut rs = concrete(routers);

    let mut all: Vec<(Cycle, usize, u64, LaneEffect)> = Vec::new();
    for r in rs.iter_mut() {
        let g = r.gpu.index();
        all.extend(r.effects.drain(..).map(|b| (b.t, g, b.seq, b.effect)));
    }
    all.sort_unstable_by_key(|&(t, g, s, _)| (t, g, s));

    let mut collapsed = false;
    for (t, g, _, effect) in all {
        let gpu = GpuId::new(g as u16);
        match effect {
            LaneEffect::Publish { line } => sys.publish_line(gpu, line, t, fabric),
            LaneEffect::Peer { to } => {
                // Same shape as the classic engine's peer store: one
                // line-sized transfer, failure (self-transfer) ignored.
                let _ = fabric.transfer(gpu, to, CACHE_LINE_BYTES, t);
            }
            LaneEffect::Collapse { vpn } => {
                apply_collapse(&mut rs, sys, gpu, vpn);
                collapsed = true;
            }
        }
    }

    // Access-tracking records observe driver state like the classic
    // engine's inline calls: strictly before the phase barrier that may
    // run `tracking_stop`.
    for r in rs.iter_mut() {
        let gpu = r.gpu;
        for vpn in std::mem::take(&mut r.atu) {
            sys.tlb_miss(gpu, vpn);
        }
    }

    if collapsed {
        let snap = Arc::new(RouteSnapshot::capture(sys));
        for r in rs.iter_mut() {
            r.snap = Arc::clone(&snap);
        }
    }

    (0..rs.len())
        .map(|g| sys.visibility(GpuId::new(g as u16)))
        .collect()
}

/// Applies one buffered sys-scoped collapse: mirrors [`GpsSystem`]'s
/// `collapse`, but invalidates the page's in-flight lines in the *lane*
/// write queues and TLBs (the system's own units are detached stand-ins).
/// A page already collapsed by an earlier effect this barrier keeps its
/// first owner (`collapse_page` refuses non-subscribers; double collapse
/// is benign).
fn apply_collapse(rs: &mut [&mut GpsLaneRouter], sys: &mut GpsSystem, writer: GpuId, vpn: Vpn) {
    let target = if sys.runtime().is_subscriber(writer, vpn) {
        writer
    } else {
        sys.runtime().serving_gpu(vpn).unwrap_or(writer)
    };
    let page_size = sys.runtime().page_size();
    let first = vpn.first_line(page_size);
    for r in rs.iter_mut() {
        for i in 0..page_size.lines() {
            let _ = r.rwq.invalidate(first.offset(i));
        }
        r.tlb.invalidate(vpn);
    }
    let _ = sys.runtime_mut().collapse_page(vpn, target);
}

/// Phase-boundary resynchronisation: rebuilds the snapshot after the
/// policy's phase hook (subscription pruning at `tracking_stop`) and
/// optionally flushes the lane GPS-TLBs (the classic engine's shootdown on
/// the subscription path).
pub(crate) fn phase_sync(routers: &mut [&mut dyn LaneRouter], sys: &GpsSystem, flush_tlbs: bool) {
    let snap = Arc::new(RouteSnapshot::capture(sys));
    for r in concrete(routers) {
        if flush_tlbs {
            r.tlb.flush();
        }
        r.snap = Arc::clone(&snap);
    }
}
