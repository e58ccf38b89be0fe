//! The GPS programming interface and driver state (§4).

use std::collections::BTreeMap;
use std::sync::Arc;

use gps_mem::{FrameAllocator, GpsPageTable, GpsPte, ResidentSet, VaRange, VaSpace, VictimPolicy};
use gps_types::{GpsError, GpuId, PageSize, Ppn, Result, Vpn, GIB};

use crate::atu::AccessTrackingUnit;
use crate::unit::GpsUnit;

/// How subscriptions of an allocation are managed (§4: the optional
/// `manual` parameter of `cudaMallocGPS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationKind {
    /// GPS manages subscriptions automatically: all GPUs are tentatively
    /// subscribed at allocation (subscribed-by-default profiling) and
    /// pruned at `tracking_stop`.
    Automatic,
    /// The programmer manages subscriptions through
    /// [`GpsRuntime::mem_advise`]; allocation backs the region on one GPU.
    Manual,
}

/// The two new `cuMemAdvise` hints GPS adds (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemAdvise {
    /// `CU_MEM_ADVISE_GPS_SUBSCRIBE`: back the region with physical memory
    /// on the given GPU and add it to the subscriber set.
    Subscribe,
    /// `CU_MEM_ADVISE_GPS_UNSUBSCRIBE`: remove the GPU from the subscriber
    /// set and free its replica. Fails on the last subscriber.
    Unsubscribe,
}

/// What a pressure-aware region registration did to make everything fit
/// (empty on an unpressured system).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvictionOutcome {
    /// Replicas the driver swapped out to make room, in eviction order.
    pub evicted: Vec<(GpuId, Vpn)>,
    /// Subscriptions skipped outright because the GPU was full of
    /// last-copy pages and nothing could be evicted; the GPU accesses
    /// these pages remotely from the start.
    pub skipped: Vec<(GpuId, Vpn)>,
}

/// Per-GPU resident-set tracking, enabled by
/// [`GpsRuntime::enable_eviction`].
#[derive(Debug)]
struct EvictionState {
    policy: VictimPolicy,
    sets: Vec<ResidentSet>,
    evictions: Vec<u64>,
}

/// Driver-visible state of one GPS page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageState {
    /// The GPS bit of the conventional PTE: set when stores must be
    /// forwarded to the GPS unit (i.e. the page has remote subscribers).
    pub gps_bit: bool,
    /// When a sys-scoped store collapsed the page (§5.3), the GPU holding
    /// the single surviving copy.
    pub collapsed: Option<GpuId>,
    /// Subscription management mode inherited from the allocation.
    pub kind: AllocationKind,
}

/// The part of the driver state every GPS routing decision reads: the GPS
/// page table (subscription sets), each page's [`PageState`] and the page
/// size.
///
/// [`GpsRuntime`] owns it and [`GpsUnit`](crate::GpsUnit)s route from it.
/// Lane routers of the epoch tier share it read-only through
/// [`GpsRuntime::shared_view`]; the runtime's next mutation then copies it,
/// so a router sees the state as of its last refresh.
#[derive(Debug, Clone)]
pub struct DriverView {
    page_size: PageSize,
    table: GpsPageTable,
    pages: BTreeMap<Vpn, PageState>,
}

impl DriverView {
    /// Page size of the GPS address space.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Driver state of `vpn`; `None` if the page is not GPS-managed.
    pub fn page_state(&self, vpn: Vpn) -> Option<PageState> {
        self.pages.get(&vpn).copied()
    }

    /// Whether `gpu` holds a local replica of `vpn`.
    pub fn is_subscriber(&self, gpu: GpuId, vpn: Vpn) -> bool {
        self.table.entry(vpn).is_some_and(|e| e.is_subscriber(gpu))
    }

    /// A GPU that can serve remote accesses to `vpn`: the collapse target
    /// if collapsed, else the first subscriber.
    pub fn serving_gpu(&self, vpn: Vpn) -> Option<GpuId> {
        if let Some(state) = self.pages.get(&vpn) {
            if let Some(owner) = state.collapsed {
                return Some(owner);
            }
        }
        self.table.entry(vpn).and_then(|e| e.subscribers().next())
    }

    /// The GPS page table.
    pub fn table(&self) -> &GpsPageTable {
        &self.table
    }
}

/// The GPS runtime: `cudaMallocGPS`, `cuMemAdvise` subscription hints and
/// `cuGPSTrackingStart/Stop`, backed by the GPS page table, per-GPU frame
/// allocators and per-page GPS bits.
///
/// ```
/// use gps_core::{AllocationKind, GpsRuntime, MemAdvise};
/// use gps_types::{GpuId, PageSize};
///
/// let mut rt = GpsRuntime::new(4, PageSize::Standard64K);
/// let region = rt.malloc_gps(256 * 1024, AllocationKind::Automatic)?;
/// // Automatic allocations start all-to-all subscribed...
/// let vpn = region.base().vpn(PageSize::Standard64K);
/// assert_eq!(rt.subscribers(vpn).unwrap().subscriber_count(), 4);
/// // ...and pages with >1 subscriber carry the GPS bit.
/// assert!(rt.view().page_state(vpn).unwrap().gps_bit);
/// rt.mem_advise(&region, GpuId::new(3), MemAdvise::Unsubscribe)?;
/// assert_eq!(rt.subscribers(vpn).unwrap().subscriber_count(), 3);
/// # Ok::<(), gps_types::GpsError>(())
/// ```
#[derive(Debug)]
pub struct GpsRuntime {
    gpu_count: usize,
    space: VaSpace,
    /// Copy-on-write: GPS units on per-GPU lanes hold clones for a window,
    /// so every mutation goes through [`Arc::make_mut`].
    view: Arc<DriverView>,
    frames: Vec<FrameAllocator>,
    allocs: Vec<(VaRange, AllocationKind)>,
    tracking: bool,
    eviction: Option<EvictionState>,
}

impl GpsRuntime {
    /// Creates a runtime for a `gpu_count`-GPU system with 16 GB GPUs.
    pub fn new(gpu_count: usize, page_size: PageSize) -> Self {
        Self::with_memory(gpu_count, page_size, 16 * GIB)
    }

    /// Creates a runtime with `dram_bytes` of device memory per GPU.
    pub fn with_memory(gpu_count: usize, page_size: PageSize, dram_bytes: u64) -> Self {
        Self {
            gpu_count,
            space: VaSpace::new(page_size),
            view: Arc::new(DriverView {
                page_size,
                table: GpsPageTable::new(),
                pages: BTreeMap::new(),
            }),
            frames: (0..gpu_count)
                .map(|g| FrameAllocator::new(GpuId::new(g as u16), dram_bytes, page_size))
                .collect(),
            allocs: Vec::new(),
            tracking: false,
            eviction: None,
        }
    }

    /// Turns on per-GPU resident-set tracking so that registration under
    /// memory pressure can swap replicas out with `policy` instead of
    /// failing. Must be enabled before any region is registered.
    pub fn enable_eviction(&mut self, policy: VictimPolicy) {
        self.eviction = Some(EvictionState {
            policy,
            // One fixed-seed stream per GPU keeps the random control
            // policy bit-reproducible run to run.
            sets: (0..self.gpu_count)
                .map(|g| ResidentSet::new(0xE51C_7E57 ^ (g as u64)))
                .collect(),
            evictions: vec![0; self.gpu_count],
        });
    }

    /// Whether eviction tracking is enabled.
    pub fn eviction_enabled(&self) -> bool {
        self.eviction.is_some()
    }

    /// Replicas evicted so far, per GPU (all zeros when eviction is
    /// disabled or never triggered).
    pub fn evictions(&self) -> Vec<u64> {
        self.eviction
            .as_ref()
            .map(|ev| ev.evictions.clone())
            .unwrap_or_else(|| vec![0; self.gpu_count])
    }

    /// Pages currently resident (holding a replica) on `gpu`. Only
    /// meaningful once eviction tracking is enabled.
    pub fn resident_pages(&self, gpu: GpuId) -> usize {
        self.eviction
            .as_ref()
            .map_or(0, |ev| ev.sets[gpu.index()].len())
    }

    fn note_subscribed(&mut self, gpu: GpuId, vpn: Vpn) {
        if let Some(ev) = self.eviction.as_mut() {
            ev.sets[gpu.index()].insert(vpn);
        }
    }

    fn note_unsubscribed(&mut self, gpu: GpuId, vpn: Vpn) {
        if let Some(ev) = self.eviction.as_mut() {
            ev.sets[gpu.index()].remove(vpn);
        }
    }

    /// Number of GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpu_count
    }

    /// Page size of the GPS address space.
    pub fn page_size(&self) -> PageSize {
        self.view.page_size
    }

    /// Whether a profiling phase is active.
    pub fn is_tracking(&self) -> bool {
        self.tracking
    }

    /// The live GPS allocations.
    pub fn allocations(&self) -> impl Iterator<Item = (&VaRange, AllocationKind)> + '_ {
        self.allocs.iter().map(|(r, k)| (r, *k))
    }

    fn check_gpu(&self, gpu: GpuId) -> Result<()> {
        if gpu.index() >= self.gpu_count {
            Err(GpsError::UnknownGpu {
                gpu,
                system_size: self.gpu_count,
            })
        } else {
            Ok(())
        }
    }

    /// `cudaMallocGPS`: allocates `bytes` in the GPS address space.
    ///
    /// Automatic allocations subscribe every GPU immediately
    /// (subscribed-by-default, §5.2); manual allocations back the region on
    /// GPU 0 only ("backs it with physical memory in at least one GPU",
    /// §4) and await explicit [`MemAdvise::Subscribe`] hints.
    ///
    /// # Errors
    ///
    /// Propagates VA-space or physical-memory exhaustion.
    pub fn malloc_gps(&mut self, bytes: u64, kind: AllocationKind) -> Result<VaRange> {
        let range = self.space.allocate(bytes)?;
        let subscribers: Vec<GpuId> = match kind {
            AllocationKind::Automatic => GpuId::all(self.gpu_count).collect(),
            AllocationKind::Manual => vec![GpuId::new(0)],
        };
        for vpn in range.vpns() {
            for &gpu in &subscribers {
                let ppn = self.frames[gpu.index()].allocate()?;
                self.table_mut().subscribe(vpn, gpu, ppn);
                self.note_subscribed(gpu, vpn);
            }
            self.pages_mut().insert(
                vpn,
                PageState {
                    gps_bit: subscribers.len() > 1,
                    collapsed: None,
                    kind,
                },
            );
        }
        self.allocs.push((range, kind));
        Ok(range)
    }

    /// Adopts an *externally allocated* VA range into the GPS address
    /// space, as if it had been returned by [`GpsRuntime::malloc_gps`].
    ///
    /// The simulation workloads allocate their virtual ranges up front (the
    /// trace determines the addresses); the GPS memory policy registers the
    /// shared ones here, exactly as a real driver marks an existing VA
    /// range GPS-managed when `cudaMallocGPS` backs it.
    ///
    /// # Errors
    ///
    /// * [`GpsError::PageSizeMismatch`] if the range uses a different page
    ///   size.
    /// * [`GpsError::InvalidRange`] if any page of the range is already
    ///   GPS-managed.
    /// * Physical-memory exhaustion.
    pub fn register_region(&mut self, range: VaRange, kind: AllocationKind) -> Result<()> {
        let subscribers: Vec<GpuId> = match kind {
            AllocationKind::Automatic => GpuId::all(self.gpu_count).collect(),
            AllocationKind::Manual => vec![GpuId::new(0)],
        };
        self.register_region_with(range, kind, &subscribers)
    }

    /// Like [`GpsRuntime::register_region`] but with an explicit initial
    /// subscriber set — used by unsubscribed-by-default profiling, which
    /// backs each region minimally and subscribes GPUs on first access
    /// (§3.2).
    ///
    /// # Errors
    ///
    /// As for [`GpsRuntime::register_region`]; additionally
    /// [`GpsError::Subscription`] if `initial` is empty.
    pub fn register_region_with(
        &mut self,
        range: VaRange,
        kind: AllocationKind,
        initial: &[GpuId],
    ) -> Result<()> {
        if range.page_size() != self.view.page_size {
            return Err(GpsError::PageSizeMismatch {
                expected: self.view.page_size,
                actual: range.page_size(),
            });
        }
        if range.vpns().any(|v| self.view.pages.contains_key(&v)) {
            return Err(GpsError::InvalidRange {
                reason: "range overlaps an existing GPS region".to_owned(),
            });
        }
        if initial.is_empty() {
            return Err(GpsError::Subscription {
                reason: "a GPS region needs at least one initial subscriber".to_owned(),
            });
        }
        let subscribers: Vec<GpuId> = initial.to_vec();
        for vpn in range.vpns() {
            for &gpu in &subscribers {
                let ppn = self.frames[gpu.index()].allocate()?;
                self.table_mut().subscribe(vpn, gpu, ppn);
                self.note_subscribed(gpu, vpn);
            }
            self.pages_mut().insert(
                vpn,
                PageState {
                    gps_bit: subscribers.len() > 1,
                    collapsed: None,
                    kind,
                },
            );
        }
        self.allocs.push((range, kind));
        Ok(())
    }

    /// Like [`GpsRuntime::register_region`], but when a GPU's frame
    /// allocator is exhausted the driver *swaps out* a resident replica
    /// (§5.3) instead of failing — the oversubscription model of §8.
    ///
    /// For each page the first replica is mandatory: GPUs are tried in
    /// order until one can host it (evicting if its memory is full).
    /// Further replicas are best-effort: a GPU whose memory holds only
    /// last-copy pages simply skips the subscription and accesses the
    /// page remotely. `recently_used` feeds ATU access bits into the
    /// LRU-approx victim policy (`|_, _| false` when no history exists).
    ///
    /// # Errors
    ///
    /// As for [`GpsRuntime::register_region`]; additionally
    /// [`GpsError::OutOfMemory`] if no GPU at all can host a page's first
    /// replica (aggregate capacity below one copy of the data).
    pub fn register_region_evicting(
        &mut self,
        range: VaRange,
        kind: AllocationKind,
        recently_used: &dyn Fn(GpuId, Vpn) -> bool,
    ) -> Result<EvictionOutcome> {
        if range.page_size() != self.view.page_size {
            return Err(GpsError::PageSizeMismatch {
                expected: self.view.page_size,
                actual: range.page_size(),
            });
        }
        if range.vpns().any(|v| self.view.pages.contains_key(&v)) {
            return Err(GpsError::InvalidRange {
                reason: "range overlaps an existing GPS region".to_owned(),
            });
        }
        let subscribers: Vec<GpuId> = match kind {
            AllocationKind::Automatic => GpuId::all(self.gpu_count).collect(),
            AllocationKind::Manual => vec![GpuId::new(0)],
        };
        let mut outcome = EvictionOutcome::default();
        for vpn in range.vpns() {
            // The page must be registered before replicas can be placed:
            // victim selection consults `pages`/`table` state.
            self.pages_mut().insert(
                vpn,
                PageState {
                    gps_bit: false,
                    collapsed: None,
                    kind,
                },
            );
            let mut hosted = false;
            for &gpu in &subscribers {
                match self.allocate_evicting(gpu, recently_used, &mut outcome.evicted) {
                    Ok(ppn) => {
                        self.table_mut().subscribe(vpn, gpu, ppn);
                        self.note_subscribed(gpu, vpn);
                        hosted = true;
                    }
                    Err(_) => outcome.skipped.push((gpu, vpn)),
                }
            }
            if !hosted {
                // Every listed subscriber was full of last copies; fall
                // back to any GPU with a free frame (the aggregate-
                // capacity argument guarantees one exists when per-GPU
                // capacity is at least `demand / gpu_count`).
                let host = GpuId::all(self.gpu_count)
                    .find(|g| self.frames[g.index()].free_pages() > 0)
                    .ok_or(GpsError::OutOfMemory {
                        gpu: subscribers[0],
                        requested: self.view.page_size.bytes(),
                    })?;
                let ppn = self.frames[host.index()].allocate()?;
                self.table_mut().subscribe(vpn, host, ppn);
                self.note_subscribed(host, vpn);
            }
            self.refresh_page(vpn);
        }
        self.allocs.push((range, kind));
        Ok(outcome)
    }

    /// Allocates one frame on `gpu`, swapping out victims until one is
    /// free. Fails with the allocator's `OutOfMemory` when eviction is
    /// disabled or nothing eligible remains.
    fn allocate_evicting(
        &mut self,
        gpu: GpuId,
        recently_used: &dyn Fn(GpuId, Vpn) -> bool,
        evicted: &mut Vec<(GpuId, Vpn)>,
    ) -> Result<Ppn> {
        loop {
            match self.frames[gpu.index()].allocate() {
                Ok(ppn) => return Ok(ppn),
                Err(oom) => {
                    let Some(victim) = self.pick_victim(gpu, recently_used) else {
                        return Err(oom);
                    };
                    self.unsubscribe_page(victim, gpu)?;
                    if let Some(ev) = self.eviction.as_mut() {
                        ev.evictions[gpu.index()] += 1;
                    }
                    evicted.push((gpu, victim));
                }
            }
        }
    }

    /// The page `gpu` should swap out next: never a last surviving copy,
    /// preferring (under LRU-approx) the oldest replica whose access bit
    /// is clear.
    fn pick_victim(
        &mut self,
        gpu: GpuId,
        recently_used: &dyn Fn(GpuId, Vpn) -> bool,
    ) -> Option<Vpn> {
        let table = &self.view.table;
        let ev = self.eviction.as_mut()?;
        let policy = ev.policy;
        ev.sets[gpu.index()].select_victim(
            policy,
            |v| table.entry(v).is_some_and(|e| e.subscriber_count() > 1),
            |v| recently_used(gpu, v),
        )
    }

    /// `cudaFree`: releases a GPS region, freeing every replica.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::InvalidRange`] if `range` is not a live GPS
    /// allocation.
    pub fn free(&mut self, range: &VaRange) -> Result<()> {
        let idx = self
            .allocs
            .iter()
            .position(|(r, _)| r == range)
            .ok_or_else(|| GpsError::InvalidRange {
                reason: "not a live GPS allocation".to_owned(),
            })?;
        self.allocs.swap_remove(idx);
        for vpn in range.vpns() {
            if let Some(entry) = self.table_mut().remove(vpn) {
                for &(gpu, ppn) in entry.replicas() {
                    self.frames[gpu.index()].free(ppn);
                    self.note_unsubscribed(gpu, vpn);
                }
            }
            self.pages_mut().remove(&vpn);
        }
        self.space.free(range)
    }

    /// `cuMemAdvise` with the GPS subscribe/unsubscribe hints over a range.
    ///
    /// # Errors
    ///
    /// * [`GpsError::UnknownGpu`] for out-of-range GPUs.
    /// * [`GpsError::LastSubscriber`] when unsubscribing would leave a page
    ///   without any subscriber (the paper requires the call to fail and
    ///   leave the allocation in place, §4). Pages already processed keep
    ///   their new state; the failing page is untouched.
    pub fn mem_advise(&mut self, range: &VaRange, gpu: GpuId, advise: MemAdvise) -> Result<()> {
        self.check_gpu(gpu)?;
        for vpn in range.vpns() {
            match advise {
                MemAdvise::Subscribe => self.subscribe_page(vpn, gpu)?,
                MemAdvise::Unsubscribe => self.unsubscribe_page(vpn, gpu)?,
            }
        }
        Ok(())
    }

    /// Subscribes `gpu` to a single page, backing it with a local frame.
    ///
    /// # Errors
    ///
    /// Propagates unknown pages and memory exhaustion. Subscribing an
    /// existing subscriber is a no-op.
    pub fn subscribe_page(&mut self, vpn: Vpn, gpu: GpuId) -> Result<()> {
        self.check_gpu(gpu)?;
        let view = &self.view;
        if view.page_state(vpn).is_none() || view.table.entry(vpn).is_none() {
            return Err(GpsError::Unmapped { vpn });
        }
        if view.is_subscriber(gpu, vpn) {
            return Ok(());
        }
        let ppn = self.frames[gpu.index()].allocate()?;
        self.table_mut().subscribe(vpn, gpu, ppn);
        self.note_subscribed(gpu, vpn);
        // A collapsed page that regains subscribers becomes GPS again.
        self.refresh_page(vpn);
        Ok(())
    }

    /// Unsubscribes `gpu` from a single page, freeing its replica.
    ///
    /// # Errors
    ///
    /// * [`GpsError::LastSubscriber`] if `gpu` is the only subscriber.
    /// * [`GpsError::Subscription`] if `gpu` does not subscribe.
    pub fn unsubscribe_page(&mut self, vpn: Vpn, gpu: GpuId) -> Result<()> {
        self.check_gpu(gpu)?;
        let ppn = self.table_mut().unsubscribe(vpn, gpu)?;
        self.frames[gpu.index()].free(ppn);
        self.note_unsubscribed(gpu, vpn);
        self.refresh_page(vpn);
        Ok(())
    }

    /// Re-derives a page's GPS bit from its subscriber count: pages with a
    /// single subscriber are downgraded to conventional pages (§5.2).
    fn refresh_page(&mut self, vpn: Vpn) {
        let subs = self
            .view
            .table
            .entry(vpn)
            .map_or(0, GpsPte::subscriber_count);
        if let Some(state) = self.pages_mut().get_mut(&vpn) {
            state.gps_bit = subs > 1 && state.collapsed.is_none();
        }
    }

    /// `cuGPSTrackingStart`: begins a profiling phase, (re)subscribing all
    /// GPUs to every *automatic* allocation (subscribed-by-default) unless
    /// the unsubscribed-by-default mode left them pruned.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Profiling`] if tracking is already active.
    pub fn tracking_start(&mut self, atu: &mut AccessTrackingUnit) -> Result<()> {
        if self.tracking {
            return Err(GpsError::Profiling {
                reason: "tracking already active".to_owned(),
            });
        }
        self.tracking = true;
        atu.set_active(true);
        Ok(())
    }

    /// `cuGPSTrackingStop`: ends profiling and unsubscribes each GPU from
    /// every automatic-allocation page it did not touch, downgrading pages
    /// left with one subscriber. Returns `(gpu, vpn)` pairs unsubscribed.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Profiling`] if tracking is not active.
    pub fn tracking_stop(&mut self, atu: &mut AccessTrackingUnit) -> Result<Vec<(GpuId, Vpn)>> {
        if !self.tracking {
            return Err(GpsError::Profiling {
                reason: "tracking not active".to_owned(),
            });
        }
        self.tracking = false;
        atu.set_active(false);

        let mut removed = Vec::new();
        let auto_ranges: Vec<VaRange> = self
            .allocs
            .iter()
            .filter(|(_, k)| *k == AllocationKind::Automatic)
            .map(|(r, _)| *r)
            .collect();
        for range in auto_ranges {
            for vpn in range.vpns() {
                for gpu in GpuId::all(self.gpu_count) {
                    if atu.accessed(gpu, vpn) {
                        continue;
                    }
                    if !self.view.is_subscriber(gpu, vpn) {
                        continue;
                    }
                    match self.table_mut().unsubscribe(vpn, gpu) {
                        Ok(ppn) => {
                            self.frames[gpu.index()].free(ppn);
                            self.note_unsubscribed(gpu, vpn);
                            removed.push((gpu, vpn));
                        }
                        Err(GpsError::LastSubscriber { .. }) => {
                            // Nobody touched the page; keep the final copy.
                        }
                        Err(e) => return Err(e),
                    }
                }
                self.refresh_page(vpn);
            }
        }
        Ok(removed)
    }

    /// Simulates the driver swapping out `gpu`'s replica of `vpn` under
    /// memory oversubscription (§5.3: "If the GPU driver swaps out a page
    /// from a subscriber due to oversubscription, that GPU will be
    /// unsubscribed and will access that page remotely"). Equivalent to an
    /// unsubscription, except that evicting the *last* copy is also legal —
    /// the page then migrates to (is re-homed on) another GPU with free
    /// memory, chosen round-robin.
    ///
    /// # Errors
    ///
    /// * [`GpsError::Unmapped`] / [`GpsError::Subscription`] if `gpu` holds
    ///   no replica of `vpn`.
    /// * [`GpsError::OutOfMemory`] if no other GPU can host the final copy.
    pub fn evict_page(&mut self, vpn: Vpn, gpu: GpuId) -> Result<()> {
        self.check_gpu(gpu)?;
        match self.unsubscribe_page(vpn, gpu) {
            Ok(()) => Ok(()),
            Err(GpsError::LastSubscriber { .. }) => {
                // Re-home the final copy on the first other GPU with room.
                let target = GpuId::all(self.gpu_count)
                    .find(|&g| g != gpu && self.frames[g.index()].free_pages() > 0)
                    .ok_or(GpsError::OutOfMemory {
                        gpu,
                        requested: self.view.page_size.bytes(),
                    })?;
                self.subscribe_page(vpn, target)?;
                self.unsubscribe_page(vpn, gpu)?;
                if let Some(state) = self.pages_mut().get_mut(&vpn) {
                    if state.collapsed == Some(gpu) {
                        state.collapsed = Some(target);
                    }
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Swaps `gpu`'s replica of `vpn` back in after a demand fault under
    /// oversubscription: allocates a local frame — swapping out victims
    /// (§5.3) if the GPU's memory is full — and re-subscribes the GPU.
    /// Returns the `(gpu, page)` pairs displaced to make room. A no-op
    /// returning no victims if `gpu` already subscribes.
    ///
    /// # Errors
    ///
    /// * [`GpsError::Unmapped`] if `vpn` is not a registered GPS page.
    /// * [`GpsError::OutOfMemory`] if no frame can be freed (every
    ///   resident page is a last surviving copy).
    pub fn fault_in(
        &mut self,
        vpn: Vpn,
        gpu: GpuId,
        recently_used: &dyn Fn(GpuId, Vpn) -> bool,
    ) -> Result<Vec<(GpuId, Vpn)>> {
        self.check_gpu(gpu)?;
        if !self.view.pages.contains_key(&vpn) {
            return Err(GpsError::Unmapped { vpn });
        }
        if self.view.is_subscriber(gpu, vpn) {
            return Ok(Vec::new());
        }
        let mut displaced = Vec::new();
        let ppn = self.allocate_evicting(gpu, recently_used, &mut displaced)?;
        self.table_mut().subscribe(vpn, gpu, ppn);
        self.note_subscribed(gpu, vpn);
        // A collapsed page that regains subscribers becomes GPS again.
        self.refresh_page(vpn);
        Ok(displaced)
    }

    /// Ends a profiling phase *without* applying any unsubscriptions —
    /// used by the Figure 11 "GPS without subscription" ablation.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Profiling`] if tracking is not active.
    pub fn tracking_abort(&mut self, atu: &mut AccessTrackingUnit) -> Result<()> {
        if !self.tracking {
            return Err(GpsError::Profiling {
                reason: "tracking not active".to_owned(),
            });
        }
        self.tracking = false;
        atu.set_active(false);
        Ok(())
    }

    /// Collapses a page to a single conventional copy on `to` after a
    /// sys-scoped store (§5.3): every other replica is freed and the GPS
    /// bit cleared.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Unmapped`] for unknown pages and
    /// [`GpsError::Subscription`] if `to` does not subscribe to the page.
    pub fn collapse_page(&mut self, vpn: Vpn, to: GpuId) -> Result<()> {
        self.check_gpu(to)?;
        let entry = self.view.table.entry(vpn);
        let entry = entry.ok_or(GpsError::Unmapped { vpn })?;
        if !entry.is_subscriber(to) {
            return Err(GpsError::Subscription {
                reason: format!("{to} holds no replica of {vpn} to collapse onto"),
            });
        }
        let others: Vec<GpuId> = entry.subscribers().filter(|&g| g != to).collect();
        for gpu in others {
            let ppn = self.table_mut().unsubscribe(vpn, gpu)?;
            self.frames[gpu.index()].free(ppn);
            self.note_unsubscribed(gpu, vpn);
        }
        if let Some(state) = self.pages_mut().get_mut(&vpn) {
            state.collapsed = Some(to);
            state.gps_bit = false;
        }
        Ok(())
    }

    /// Collapses GPS page `vpn` after a sys-scoped store by `writer`
    /// (§5.3): every unit in `units` drops its buffered writes to the page
    /// and its GPS-TLB entry, and the page keeps one conventional copy —
    /// on `writer` if it subscribes, else on the serving GPU. A page
    /// already collapsed keeps its first owner.
    pub fn collapse_sys_store<'u>(
        &mut self,
        units: impl IntoIterator<Item = &'u mut GpsUnit>,
        writer: GpuId,
        vpn: Vpn,
    ) {
        let target = if self.view.is_subscriber(writer, vpn) {
            writer
        } else {
            self.view.serving_gpu(vpn).unwrap_or(writer)
        };
        for unit in units {
            unit.forget_page(vpn, self.page_size());
        }
        let _ = self.collapse_page(vpn, target);
    }

    /// The wide subscriber entry for `vpn`.
    pub fn subscribers(&self, vpn: Vpn) -> Option<&GpsPte> {
        self.view.table.entry(vpn)
    }

    /// The driver state GPS units route from: page states, subscriptions
    /// and the GPS page table.
    pub fn view(&self) -> &DriverView {
        &self.view
    }

    /// A shared handle on the current [`DriverView`]: later mutations copy
    /// the state rather than change what the handle sees.
    pub fn shared_view(&self) -> Arc<DriverView> {
        Arc::clone(&self.view)
    }

    fn table_mut(&mut self) -> &mut GpsPageTable {
        &mut Arc::make_mut(&mut self.view).table
    }

    fn pages_mut(&mut self) -> &mut BTreeMap<Vpn, PageState> {
        &mut Arc::make_mut(&mut self.view).pages
    }

    /// Subscriber-count histogram over all GPS pages (Figure 9); index `k`
    /// counts pages with `k` subscribers.
    pub fn subscriber_histogram(&self) -> Vec<u64> {
        self.view.table.subscriber_histogram(self.gpu_count)
    }

    /// Span of the GPS address space actually allocated: `(first_vpn,
    /// pages)`; `None` when nothing is allocated. Sizes the ATU bitmaps.
    pub fn allocated_span(&self) -> Option<(Vpn, u64)> {
        let first = self
            .allocs
            .iter()
            .map(|(r, _)| r.base().vpn(self.view.page_size).as_u64())
            .min()?;
        let last = self
            .allocs
            .iter()
            .map(|(r, _)| r.base().vpn(self.view.page_size).as_u64() + r.pages())
            .max()?;
        Some((Vpn::new(first), last - first))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);
    const G2: GpuId = GpuId::new(2);
    const G3: GpuId = GpuId::new(3);

    fn rt() -> GpsRuntime {
        GpsRuntime::new(4, PageSize::Standard64K)
    }

    #[test]
    fn automatic_alloc_subscribes_everyone() {
        let mut rt = rt();
        let r = rt.malloc_gps(3 * 65536, AllocationKind::Automatic).unwrap();
        for vpn in r.vpns() {
            let e = rt.subscribers(vpn).unwrap();
            assert_eq!(e.subscriber_count(), 4);
            assert!(rt.view().page_state(vpn).unwrap().gps_bit);
        }
        // Each GPU backs 3 pages.
        assert_eq!(rt.subscriber_histogram()[4], 3);
    }

    #[test]
    fn manual_alloc_backs_one_gpu_without_gps_bit() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Manual).unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        assert_eq!(rt.subscribers(vpn).unwrap().subscriber_count(), 1);
        assert!(
            !rt.view().page_state(vpn).unwrap().gps_bit,
            "single subscriber"
        );
        rt.mem_advise(&r, G2, MemAdvise::Subscribe).unwrap();
        assert!(rt.view().page_state(vpn).unwrap().gps_bit);
    }

    #[test]
    fn unsubscribe_last_fails_and_keeps_allocation() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Manual).unwrap();
        let err = rt.mem_advise(&r, G0, MemAdvise::Unsubscribe).unwrap_err();
        assert!(matches!(err, GpsError::LastSubscriber { .. }));
        let vpn = r.base().vpn(PageSize::Standard64K);
        assert_eq!(rt.subscribers(vpn).unwrap().subscriber_count(), 1);
    }

    #[test]
    fn free_releases_all_frames() {
        let mut rt = rt();
        let r = rt.malloc_gps(4 * 65536, AllocationKind::Automatic).unwrap();
        let used_before: u64 = (0..4).map(|g| 16 * GIB / 65536 - free_frames(&rt, g)).sum();
        assert_eq!(used_before, 16);
        rt.free(&r).unwrap();
        let used_after: u64 = (0..4).map(|g| 16 * GIB / 65536 - free_frames(&rt, g)).sum();
        assert_eq!(used_after, 0);
        assert!(rt.free(&r).is_err(), "double free rejected");
    }

    fn free_frames(rt: &GpsRuntime, gpu: usize) -> u64 {
        rt.frames[gpu].free_pages()
    }

    #[test]
    fn tracking_prunes_untouched_pages() {
        let mut rt = rt();
        let r = rt.malloc_gps(2 * 65536, AllocationKind::Automatic).unwrap();
        let (first, pages) = rt.allocated_span().unwrap();
        let mut atu = AccessTrackingUnit::new(4, first, pages);
        rt.tracking_start(&mut atu).unwrap();

        let p0 = r.base().vpn(PageSize::Standard64K);
        let p1 = p0.next();
        // GPUs 0 and 1 touch page 0; only GPU 2 touches page 1.
        atu.record(G0, p0);
        atu.record(G1, p0);
        atu.record(G2, p1);

        let removed = rt.tracking_stop(&mut atu).unwrap();
        // Page 0 loses GPUs 2, 3; page 1 loses 0, 1, 3.
        assert_eq!(removed.len(), 5);
        assert_eq!(rt.subscribers(p0).unwrap().subscriber_count(), 2);
        assert!(rt.view().page_state(p0).unwrap().gps_bit);
        assert_eq!(rt.subscribers(p1).unwrap().subscriber_count(), 1);
        assert!(
            !rt.view().page_state(p1).unwrap().gps_bit,
            "single-subscriber page downgraded to conventional"
        );
        assert_eq!(rt.view().serving_gpu(p1), Some(G2));
    }

    #[test]
    fn totally_untouched_page_keeps_one_subscriber() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Automatic).unwrap();
        let (first, pages) = rt.allocated_span().unwrap();
        let mut atu = AccessTrackingUnit::new(4, first, pages);
        rt.tracking_start(&mut atu).unwrap();
        let removed = rt.tracking_stop(&mut atu).unwrap();
        assert_eq!(removed.len(), 3);
        let vpn = r.base().vpn(PageSize::Standard64K);
        assert_eq!(rt.subscribers(vpn).unwrap().subscriber_count(), 1);
    }

    #[test]
    fn tracking_misuse_is_rejected() {
        let mut rt = rt();
        let mut atu = AccessTrackingUnit::new(4, Vpn::new(0), 1);
        assert!(rt.tracking_stop(&mut atu).is_err());
        rt.tracking_start(&mut atu).unwrap();
        assert!(rt.tracking_start(&mut atu).is_err());
    }

    #[test]
    fn collapse_leaves_single_conventional_copy() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Automatic).unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        rt.collapse_page(vpn, G3).unwrap();
        let state = rt.view().page_state(vpn).unwrap();
        assert_eq!(state.collapsed, Some(G3));
        assert!(!state.gps_bit);
        assert_eq!(rt.subscribers(vpn).unwrap().subscriber_count(), 1);
        assert_eq!(rt.view().serving_gpu(vpn), Some(G3));
        assert!(!rt.view().is_subscriber(G0, vpn));
    }

    #[test]
    fn collapse_onto_non_subscriber_fails() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Manual).unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        assert!(matches!(
            rt.collapse_page(vpn, G2),
            Err(GpsError::Subscription { .. })
        ));
    }

    #[test]
    fn unknown_gpu_rejected_everywhere() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Manual).unwrap();
        let bad = GpuId::new(9);
        assert!(rt.mem_advise(&r, bad, MemAdvise::Subscribe).is_err());
        let vpn = r.base().vpn(PageSize::Standard64K);
        assert!(rt.collapse_page(vpn, bad).is_err());
    }

    #[test]
    fn allocated_span_covers_all_allocations() {
        let mut rt = rt();
        assert!(rt.allocated_span().is_none());
        let a = rt.malloc_gps(65536, AllocationKind::Automatic).unwrap();
        let b = rt.malloc_gps(2 * 65536, AllocationKind::Automatic).unwrap();
        let (first, pages) = rt.allocated_span().unwrap();
        assert_eq!(first, a.base().vpn(PageSize::Standard64K));
        let end = b.base().vpn(PageSize::Standard64K).as_u64() + 2;
        assert_eq!(pages, end - first.as_u64());
    }

    #[test]
    fn eviction_unsubscribes_and_rehomes_last_copy() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Manual).unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        // Manual alloc: only G0 holds the page; evicting it must re-home
        // the copy, not lose it.
        rt.evict_page(vpn, G0).unwrap();
        let e = rt.subscribers(vpn).unwrap();
        assert_eq!(e.subscriber_count(), 1);
        assert!(!e.is_subscriber(G0));
        assert!(rt.view().serving_gpu(vpn).is_some());
        // Multi-subscriber eviction is a plain unsubscription.
        let r2 = rt.malloc_gps(65536, AllocationKind::Automatic).unwrap();
        let v2 = r2.base().vpn(PageSize::Standard64K);
        rt.evict_page(v2, G1).unwrap();
        assert!(!rt.view().is_subscriber(G1, v2));
        assert_eq!(rt.subscribers(v2).unwrap().subscriber_count(), 3);
        // Evicting a non-subscriber fails.
        assert!(rt.evict_page(v2, G1).is_err());
    }

    #[test]
    fn pressured_registration_evicts_instead_of_failing() {
        use gps_types::VirtAddr;
        // 2 GPUs with room for 2 frames each, registering 4 pages for
        // both: demand is 2x capacity.
        let mut rt = GpsRuntime::with_memory(2, PageSize::Standard64K, 2 * 65536);
        rt.enable_eviction(VictimPolicy::LruApprox);
        let range = VaRange::new(VirtAddr::new(1 << 32), 4 * 65536, PageSize::Standard64K);
        let outcome = rt
            .register_region_evicting(range, AllocationKind::Automatic, &|_, _| false)
            .unwrap();
        assert!(!outcome.evicted.is_empty(), "pressure must evict");
        // Every page still has at least one replica, and no GPU exceeds
        // its physical capacity.
        for vpn in range.vpns() {
            assert!(rt.subscribers(vpn).unwrap().subscriber_count() >= 1);
        }
        assert!(rt.resident_pages(G0) <= 2);
        assert!(rt.resident_pages(G1) <= 2);
        let evictions = rt.evictions();
        assert_eq!(evictions.iter().sum::<u64>(), outcome.evicted.len() as u64);
        // A second identical run is bit-deterministic.
        let mut rt2 = GpsRuntime::with_memory(2, PageSize::Standard64K, 2 * 65536);
        rt2.enable_eviction(VictimPolicy::LruApprox);
        let outcome2 = rt2
            .register_region_evicting(range, AllocationKind::Automatic, &|_, _| false)
            .unwrap();
        assert_eq!(outcome, outcome2);
    }

    #[test]
    fn unpressured_evicting_registration_matches_plain_registration() {
        use gps_types::VirtAddr;
        let range = VaRange::new(VirtAddr::new(1 << 32), 2 * 65536, PageSize::Standard64K);
        let mut a = GpsRuntime::new(2, PageSize::Standard64K);
        a.enable_eviction(VictimPolicy::LruApprox);
        let outcome = a
            .register_region_evicting(range, AllocationKind::Automatic, &|_, _| false)
            .unwrap();
        assert_eq!(outcome, EvictionOutcome::default());
        let mut b = GpsRuntime::new(2, PageSize::Standard64K);
        b.register_region(range, AllocationKind::Automatic).unwrap();
        for vpn in range.vpns() {
            assert_eq!(
                a.subscribers(vpn).unwrap().replicas(),
                b.subscribers(vpn).unwrap().replicas()
            );
            assert_eq!(a.view().page_state(vpn), b.view().page_state(vpn));
        }
        assert_eq!(a.evictions(), vec![0, 0]);
    }

    #[test]
    fn resubscribe_after_prune_restores_replica() {
        let mut rt = rt();
        let r = rt.malloc_gps(65536, AllocationKind::Automatic).unwrap();
        let vpn = r.base().vpn(PageSize::Standard64K);
        rt.unsubscribe_page(vpn, G1).unwrap();
        assert!(!rt.view().is_subscriber(G1, vpn));
        rt.subscribe_page(vpn, G1).unwrap();
        assert!(rt.view().is_subscriber(G1, vpn));
        // Mispredicted-hint round trip keeps frames balanced.
        rt.unsubscribe_page(vpn, G1).unwrap();
        rt.subscribe_page(vpn, G1).unwrap();
        assert_eq!(rt.subscribers(vpn).unwrap().subscriber_count(), 4);
    }
}
