//! One GPU's GPS unit: the remote write queue and GPS-TLB in front of the
//! shared GPS page table (Figure 7).

use gps_types::{Cycle, GpuId, LineAddr, PageSize, Scope, Vpn};

use crate::config::{GpsConfig, COLLAPSE_LATENCY};
use crate::gps_tlb::GpsTlb;
use crate::runtime::DriverView;
use crate::rwq::{InsertOutcome, RemoteWriteQueue, RwqStats};
use crate::system::{GpsLoad, GpsStore};

/// One GPU's GPS unit: its [`RemoteWriteQueue`] and [`GpsTlb`].
///
/// The unit makes its GPU's load, store and atomic decisions (the R- and
/// W-paths of Figure 7) from a read-only [`DriverView`]. It applies no
/// cross-GPU effect itself but reports each one to its caller:
///
/// * a broadcast, through the `publish` callback, with the line and the
///   time its GPS-TLB translation completed;
/// * a peer store, as [`GpsStore::RemoteOwner`];
/// * a page collapse, as [`GpsStore::CollapseStall`] — the caller runs
///   [`GpsRuntime::collapse_sys_store`](crate::GpsRuntime::collapse_sys_store).
///
/// [`GpsSystem`](crate::GpsSystem) applies every effect at once; the
/// epoch-tier lane routers buffer them for the next window barrier.
#[derive(Debug, Clone)]
pub struct GpsUnit {
    gpu: GpuId,
    rwq: RemoteWriteQueue,
    tlb: GpsTlb,
    atomic_broadcasts: u64,
}

impl GpsUnit {
    /// The unit of `gpu`, sized by `config`.
    pub fn new(gpu: GpuId, config: &GpsConfig) -> Self {
        Self {
            gpu,
            rwq: RemoteWriteQueue::new(config.rwq_entries, config.drain_watermark),
            tlb: GpsTlb::new(config.gps_tlb),
            atomic_broadcasts: 0,
        }
    }

    /// The GPU this unit belongs to.
    pub fn gpu(&self) -> GpuId {
        self.gpu
    }

    /// Routes one load (R-path of Figure 7).
    pub fn load(&self, view: &DriverView, line: LineAddr) -> GpsLoad {
        let vpn = line.vpn(view.page_size());
        if view.page_state(vpn).is_none() || view.is_subscriber(self.gpu, vpn) {
            return GpsLoad::LocalReplica; // not GPS-managed, or a replica
        }
        if self.rwq.contains(line) {
            return GpsLoad::Forwarded;
        }
        self.fallback(view, vpn)
    }

    /// Where a non-subscriber's load of `vpn` goes: the serving GPU.
    pub(crate) fn fallback(&self, view: &DriverView, vpn: Vpn) -> GpsLoad {
        match view.serving_gpu(vpn) {
            Some(from) if from != self.gpu => GpsLoad::RemoteFallback { from },
            _ => GpsLoad::LocalReplica,
        }
    }

    /// Routes one store (W-path of Figure 7): coalesces it in the write
    /// queue and reports any line the queue drains to `publish`.
    pub fn store(
        &mut self,
        view: &DriverView,
        line: LineAddr,
        scope: Scope,
        now: Cycle,
        publish: &mut impl FnMut(LineAddr, Cycle),
    ) -> GpsStore {
        if let Some(route) = self.bypass(view, line) {
            return route;
        }
        if scope == Scope::Sys {
            return GpsStore::CollapseStall {
                ready: now + COLLAPSE_LATENCY,
            };
        }
        let (outcome, drained) = self.rwq.insert(line, scope);
        match outcome {
            InsertOutcome::Coalesced => {}
            InsertOutcome::Inserted => {
                if let Some(old) = drained {
                    self.drain_line(view, old, now, publish);
                }
            }
            InsertOutcome::Bypassed => {
                // Zero-capacity queue: broadcast uncoalesced immediately.
                self.drain_line(view, line, now, publish);
            }
        }
        GpsStore::Replicated
    }

    /// Routes one atomic: the store path, but never coalesced (§5.1, §7.4)
    /// — each atomic to a GPS page is published at once.
    pub fn atomic(
        &mut self,
        view: &DriverView,
        line: LineAddr,
        now: Cycle,
        publish: &mut impl FnMut(LineAddr, Cycle),
    ) -> GpsStore {
        if let Some(route) = self.bypass(view, line) {
            return route;
        }
        self.rwq.note_atomic_bypass();
        self.atomic_broadcasts += 1;
        self.drain_line(view, line, now, publish);
        GpsStore::Replicated
    }

    /// Drains the whole write queue (sys-scoped fence or grid-end release),
    /// reporting every line to `publish`.
    pub fn flush(
        &mut self,
        view: &DriverView,
        now: Cycle,
        publish: &mut impl FnMut(LineAddr, Cycle),
    ) {
        for line in self.rwq.flush() {
            self.drain_line(view, line, now, publish);
        }
    }

    /// The route of a write that bypasses the unit, `None` for a GPS
    /// page: local for a page GPS does not manage, and for a conventional
    /// page (collapsed or single-subscriber) local if this GPU owns it,
    /// else a peer store to the owner.
    fn bypass(&self, view: &DriverView, line: LineAddr) -> Option<GpsStore> {
        let vpn = line.vpn(view.page_size());
        match view.page_state(vpn) {
            Some(state) if state.gps_bit => None,
            Some(_) => match view.serving_gpu(vpn) {
                Some(owner) if owner != self.gpu => Some(GpsStore::RemoteOwner { to: owner }),
                _ => Some(GpsStore::Local),
            },
            None => Some(GpsStore::Local),
        }
    }

    /// Translates one drained line through the GPS-TLB (W5 of Figure 7)
    /// and publishes it at the time translation completes.
    fn drain_line(
        &mut self,
        view: &DriverView,
        line: LineAddr,
        now: Cycle,
        publish: &mut impl FnMut(LineAddr, Cycle),
    ) {
        let vpn = line.vpn(view.page_size());
        let (entry, translated_at) = self.tlb.translate(vpn, view.table(), now);
        if entry.is_some() {
            publish(line, translated_at);
        }
    }

    /// Drops the unit's buffered writes to `vpn` and its GPS-TLB entry
    /// (the page collapsed).
    pub(crate) fn forget_page(&mut self, vpn: Vpn, page_size: PageSize) {
        let first = vpn.first_line(page_size);
        for i in 0..page_size.lines() {
            let _ = self.rwq.invalidate(first.offset(i));
        }
        self.tlb.invalidate(vpn);
    }

    /// Shoots down this unit's GPS-TLB entry for `vpn`.
    pub fn invalidate_translation(&mut self, vpn: Vpn) {
        self.tlb.invalidate(vpn);
    }

    /// Shoots down every GPS-TLB entry (bulk subscription changes).
    pub fn flush_translations(&mut self) {
        self.tlb.flush();
    }

    /// Write-queue statistics.
    pub fn rwq_stats(&self) -> RwqStats {
        self.rwq.stats()
    }

    /// Lines currently buffered in the write queue.
    pub fn rwq_len(&self) -> usize {
        self.rwq.len()
    }

    /// The GPS-TLB (hit-rate statistics).
    pub fn tlb(&self) -> &GpsTlb {
        &self.tlb
    }

    /// Atomics this unit has published uncoalesced.
    pub fn atomic_broadcasts(&self) -> u64 {
        self.atomic_broadcasts
    }
}
