//! The GPS-TLB: a small, wide TLB over the GPS page table (§5.2).

use gps_mem::{GpsPageTable, GpsPte, Tlb, TlbConfig};
use gps_types::{Cycle, Latency, Vpn};

/// Caches wide GPS page-table entries (every subscriber's replica frame)
/// for the drain path of the remote write queue.
///
/// §7.4 finds that 32 entries reach ≈100 % hit rate: the GPS-TLB services
/// only drained GPS stores (a small fraction of the address space, never
/// loads), so it is under far less pressure than the general-purpose GPU
/// TLBs. Misses trigger a hardware walk of the GPS page table; the latency
/// lands on the *drain*, never on the issuing warp (§5.2: the GPS page
/// table "lies off the critical path for memory operations").
///
/// ```
/// use gps_core::GpsTlb;
/// use gps_mem::GpsPageTable;
/// use gps_types::{Cycle, GpuId, Latency, Ppn, Vpn};
///
/// let mut table = GpsPageTable::new();
/// table.subscribe(Vpn::new(7), GpuId::new(0), Ppn::new(1));
/// let mut tlb = GpsTlb::paper(Latency::from_nanos(400));
/// // First translation walks; the repeat hits. Both borrow the wide
/// // entry instead of copying it.
/// let (e, t) = tlb.translate(Vpn::new(7), &table, Cycle::ZERO);
/// assert_eq!(e.map(|pte| pte.subscriber_count()), Some(1));
/// assert_eq!(t, Cycle::new(400));
/// let (_, t2) = tlb.translate(Vpn::new(7), &table, Cycle::ZERO);
/// assert_eq!(t2, Cycle::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct GpsTlb {
    tlb: Tlb<GpsPte>,
    walk_latency: Latency,
}

impl GpsTlb {
    /// Creates a GPS-TLB with the given geometry and walk penalty.
    pub fn new(config: TlbConfig, walk_latency: Latency) -> Self {
        Self {
            tlb: Tlb::new(config),
            walk_latency,
        }
    }

    /// The Table 1 geometry: 32 entries, 8-way.
    pub fn paper(walk_latency: Latency) -> Self {
        Self::new(TlbConfig::gps_tlb(), walk_latency)
    }

    /// Translates `vpn` against `table`, walking on a miss.
    ///
    /// Returns the wide entry — the cached one on a hit (stale until shot
    /// down), the table's on a walk, `None` if the page has no GPS mapping
    /// at all — and the time translation completes. Only a walk copies an
    /// entry, into the TLB.
    pub fn translate<'a>(
        &'a mut self,
        vpn: Vpn,
        table: &'a GpsPageTable,
        now: Cycle,
    ) -> (Option<&'a GpsPte>, Cycle) {
        if self.tlb.lookup(vpn).is_some() {
            return (self.tlb.peek(vpn), now);
        }
        // Hardware walk of the GPS page table.
        let entry = table.entry(vpn);
        if let Some(entry) = entry {
            self.tlb.insert(vpn, entry.clone());
        }
        (entry, now + self.walk_latency)
    }

    /// Invalidates the cached entry for `vpn` (subscription change or page
    /// collapse — the driver must shoot down stale wide entries).
    pub fn invalidate(&mut self, vpn: Vpn) {
        self.tlb.invalidate(vpn);
    }

    /// Invalidates everything (bulk subscription updates at
    /// `tracking_stop`).
    pub fn flush(&mut self) {
        self.tlb.flush();
    }

    /// Hit rate so far (the §7.4 sensitivity metric).
    pub fn hit_rate(&self) -> f64 {
        self.tlb.stats().hit_rate()
    }

    /// Raw lookup counters.
    pub fn stats(&self) -> gps_mem::TlbStats {
        self.tlb.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_types::{GpuId, Ppn};

    fn table_with(vpns: &[u64]) -> GpsPageTable {
        let mut t = GpsPageTable::new();
        for &v in vpns {
            t.subscribe(Vpn::new(v), GpuId::new(0), Ppn::new(v));
            t.subscribe(Vpn::new(v), GpuId::new(1), Ppn::new(v + 100));
        }
        t
    }

    #[test]
    fn miss_walks_then_hits() {
        let table = table_with(&[1]);
        let mut tlb = GpsTlb::paper(Latency::from_nanos(400));
        let (e, t) = tlb.translate(Vpn::new(1), &table, Cycle::new(10));
        assert_eq!(e.unwrap().subscriber_count(), 2);
        assert_eq!(t, Cycle::new(410));
        let (_, t2) = tlb.translate(Vpn::new(1), &table, Cycle::new(10));
        assert_eq!(t2, Cycle::new(10));
        assert!((tlb.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_page_walks_and_returns_none() {
        let table = GpsPageTable::new();
        let mut tlb = GpsTlb::paper(Latency::from_nanos(400));
        let (e, t) = tlb.translate(Vpn::new(9), &table, Cycle::ZERO);
        assert!(e.is_none());
        assert_eq!(t, Cycle::new(400));
    }

    #[test]
    fn invalidate_forces_rewalk() {
        let table = table_with(&[5]);
        let mut tlb = GpsTlb::paper(Latency::from_nanos(100));
        tlb.translate(Vpn::new(5), &table, Cycle::ZERO);
        tlb.invalidate(Vpn::new(5));
        let (_, t) = tlb.translate(Vpn::new(5), &table, Cycle::ZERO);
        assert_eq!(t, Cycle::new(100), "invalidated entry must walk again");
    }

    #[test]
    fn thirty_two_entries_cover_a_typical_drain_stream() {
        // §7.4: the GPS-TLB approaches 100% hit rate at 32 entries because
        // drains exhibit page locality. Simulate a drain stream sweeping 16
        // pages repeatedly.
        let table = table_with(&(0..16).collect::<Vec<_>>());
        let mut tlb = GpsTlb::paper(Latency::from_nanos(400));
        for round in 0..100 {
            let _ = round;
            for v in 0..16 {
                tlb.translate(Vpn::new(v), &table, Cycle::ZERO);
            }
        }
        assert!(tlb.hit_rate() > 0.98, "got {}", tlb.hit_rate());
    }

    #[test]
    fn stale_entries_after_subscription_change_need_shootdown() {
        let mut table = table_with(&[3]);
        let mut tlb = GpsTlb::paper(Latency::from_nanos(1));
        let (before, _) = tlb.translate(Vpn::new(3), &table, Cycle::ZERO);
        assert_eq!(before.unwrap().subscriber_count(), 2);
        // Driver unsubscribes GPU 1...
        table.unsubscribe(Vpn::new(3), GpuId::new(1)).unwrap();
        // ...without shootdown the TLB still serves the wide entry:
        let (stale, _) = tlb.translate(Vpn::new(3), &table, Cycle::ZERO);
        assert_eq!(stale.unwrap().subscriber_count(), 2);
        // After shootdown the fresh entry is fetched.
        tlb.invalidate(Vpn::new(3));
        let (fresh, _) = tlb.translate(Vpn::new(3), &table, Cycle::ZERO);
        assert_eq!(fresh.unwrap().subscriber_count(), 1);
    }
}
