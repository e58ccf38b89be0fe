//! The secondary GPS page table with wide, multi-subscriber leaf entries.

use gps_types::{GpsError, GpuId, Ppn, Result, Vpn};

use crate::PageMap;

/// A wide GPS page-table entry: the physical page address of every
/// subscriber's replica of one virtual page (§5.2).
///
/// The paper sizes the entry at GPU initialisation based on GPU count; with
/// 64 KB pages, a 33-bit VPN and 31-bit PPNs, a 4-GPU entry is 126 bits
/// (the VPN tag plus one PPN per remote subscriber).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GpsPte {
    /// `(subscriber, local replica frame)` pairs, kept sorted by GPU id.
    replicas: Vec<(GpuId, Ppn)>,
}

impl GpsPte {
    /// Creates an entry with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The subscribers and their replica frames, ordered by GPU id.
    pub fn replicas(&self) -> &[(GpuId, Ppn)] {
        &self.replicas
    }

    /// The subscriber GPUs, ordered by id.
    pub fn subscribers(&self) -> impl Iterator<Item = GpuId> + '_ {
        self.replicas.iter().map(|&(g, _)| g)
    }

    /// Number of subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.replicas.len()
    }

    /// Whether `gpu` subscribes to this page.
    pub fn is_subscriber(&self, gpu: GpuId) -> bool {
        self.replica_of(gpu).is_some()
    }

    /// The replica frame held by `gpu`, if it subscribes.
    pub fn replica_of(&self, gpu: GpuId) -> Option<Ppn> {
        self.replicas
            .binary_search_by_key(&gpu, |&(g, _)| g)
            .ok()
            .map(|i| self.replicas[i].1)
    }

    /// Adds (or updates) `gpu`'s replica frame.
    pub fn add_replica(&mut self, gpu: GpuId, ppn: Ppn) {
        match self.replicas.binary_search_by_key(&gpu, |&(g, _)| g) {
            Ok(i) => self.replicas[i].1 = ppn,
            Err(i) => self.replicas.insert(i, (gpu, ppn)),
        }
    }

    /// Removes `gpu`'s replica, returning its frame if it was a subscriber.
    pub fn remove_replica(&mut self, gpu: GpuId) -> Option<Ppn> {
        match self.replicas.binary_search_by_key(&gpu, |&(g, _)| g) {
            Ok(i) => Some(self.replicas.remove(i).1),
            Err(_) => None,
        }
    }

    /// Remote subscribers from the perspective of `writer`: every replica
    /// except the writer's own. This is the broadcast fan-out a GPS store
    /// incurs.
    pub fn remote_replicas(&self, writer: GpuId) -> impl Iterator<Item = (GpuId, Ppn)> + '_ {
        self.replicas
            .iter()
            .copied()
            .filter(move |&(g, _)| g != writer)
    }
}

/// The GPS page table: a map from virtual page to the wide [`GpsPte`].
///
/// The structure is system-global (one logical table configured by the
/// driver), lies off the critical load path, and is consulted only when
/// coalesced GPS stores drain toward the interconnect (§5.2).
#[derive(Debug, Clone, Default)]
pub struct GpsPageTable {
    entries: PageMap<GpsPte>,
}

impl GpsPageTable {
    /// Creates an empty GPS page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of GPS-mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the entry for `vpn`.
    pub fn entry(&self, vpn: Vpn) -> Option<&GpsPte> {
        self.entries.get(vpn)
    }

    /// Subscribes `gpu` to `vpn` with replica frame `ppn`, creating the
    /// entry if needed.
    pub fn subscribe(&mut self, vpn: Vpn, gpu: GpuId, ppn: Ppn) {
        self.entries
            .get_or_insert_with(vpn, GpsPte::default)
            .add_replica(gpu, ppn);
    }

    /// Unsubscribes `gpu` from `vpn`, returning the freed replica frame.
    ///
    /// # Errors
    ///
    /// * [`GpsError::Unmapped`] if `vpn` has no GPS entry.
    /// * [`GpsError::LastSubscriber`] if `gpu` is the only subscriber — the
    ///   paper requires at least one subscriber to survive (§4).
    /// * [`GpsError::Subscription`] if `gpu` does not subscribe to `vpn`.
    pub fn unsubscribe(&mut self, vpn: Vpn, gpu: GpuId) -> Result<Ppn> {
        let entry = self
            .entries
            .get_mut(vpn)
            .ok_or(GpsError::Unmapped { vpn })?;
        if !entry.is_subscriber(gpu) {
            return Err(GpsError::Subscription {
                reason: format!("{gpu} does not subscribe to {vpn}"),
            });
        }
        if entry.subscriber_count() == 1 {
            return Err(GpsError::LastSubscriber { vpn, gpu });
        }
        // gps-lint: allow(no_expect) -- membership was checked by the subscriber guards above
        Ok(entry.remove_replica(gpu).expect("checked membership above"))
    }

    /// Removes the whole entry for `vpn` (page collapse or region free),
    /// returning the replicas it held.
    pub fn remove(&mut self, vpn: Vpn) -> Option<GpsPte> {
        self.entries.remove(vpn)
    }

    /// Iterates over all `(vpn, entry)` pairs in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &GpsPte)> + '_ {
        self.entries.iter()
    }

    /// Distribution of subscriber counts over all GPS pages: index `k` of
    /// the returned vector counts pages with exactly `k` subscribers.
    ///
    /// This is the data behind Figure 9.
    pub fn subscriber_histogram(&self, gpu_count: usize) -> Vec<u64> {
        let mut hist = vec![0u64; gpu_count + 1];
        for entry in self.entries.values() {
            let k = entry.subscriber_count().min(gpu_count);
            hist[k] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_and_lookup() {
        let mut t = GpsPageTable::new();
        t.subscribe(Vpn::new(1), GpuId::new(0), Ppn::new(10));
        t.subscribe(Vpn::new(1), GpuId::new(2), Ppn::new(20));
        let e = t.entry(Vpn::new(1)).unwrap();
        assert_eq!(e.subscriber_count(), 2);
        assert_eq!(e.replica_of(GpuId::new(2)), Some(Ppn::new(20)));
        assert!(e.is_subscriber(GpuId::new(0)));
        assert!(!e.is_subscriber(GpuId::new(1)));
    }

    #[test]
    fn replicas_stay_sorted_by_gpu() {
        let mut e = GpsPte::new();
        e.add_replica(GpuId::new(3), Ppn::new(3));
        e.add_replica(GpuId::new(0), Ppn::new(0));
        e.add_replica(GpuId::new(2), Ppn::new(2));
        let gpus: Vec<_> = e.subscribers().collect();
        assert_eq!(gpus, vec![GpuId::new(0), GpuId::new(2), GpuId::new(3)]);
    }

    #[test]
    fn remote_replicas_excludes_writer() {
        let mut e = GpsPte::new();
        for g in 0..4 {
            e.add_replica(GpuId::new(g), Ppn::new(g as u64));
        }
        let remotes: Vec<_> = e.remote_replicas(GpuId::new(1)).map(|(g, _)| g).collect();
        assert_eq!(remotes, vec![GpuId::new(0), GpuId::new(2), GpuId::new(3)]);
    }

    #[test]
    fn unsubscribe_last_subscriber_fails() {
        let mut t = GpsPageTable::new();
        t.subscribe(Vpn::new(5), GpuId::new(1), Ppn::new(0));
        let err = t.unsubscribe(Vpn::new(5), GpuId::new(1)).unwrap_err();
        assert_eq!(
            err,
            GpsError::LastSubscriber {
                vpn: Vpn::new(5),
                gpu: GpuId::new(1)
            }
        );
        // The entry must still be intact.
        assert_eq!(t.entry(Vpn::new(5)).unwrap().subscriber_count(), 1);
    }

    #[test]
    fn unsubscribe_non_member_fails() {
        let mut t = GpsPageTable::new();
        t.subscribe(Vpn::new(5), GpuId::new(1), Ppn::new(0));
        assert!(matches!(
            t.unsubscribe(Vpn::new(5), GpuId::new(0)),
            Err(GpsError::Subscription { .. })
        ));
        assert!(matches!(
            t.unsubscribe(Vpn::new(6), GpuId::new(0)),
            Err(GpsError::Unmapped { .. })
        ));
    }

    #[test]
    fn unsubscribe_returns_frame() {
        let mut t = GpsPageTable::new();
        t.subscribe(Vpn::new(5), GpuId::new(0), Ppn::new(7));
        t.subscribe(Vpn::new(5), GpuId::new(1), Ppn::new(8));
        assert_eq!(
            t.unsubscribe(Vpn::new(5), GpuId::new(0)).unwrap(),
            Ppn::new(7)
        );
        assert_eq!(t.entry(Vpn::new(5)).unwrap().subscriber_count(), 1);
    }

    #[test]
    fn histogram_counts_pages_by_subscribers() {
        let mut t = GpsPageTable::new();
        for (vpn, nsub) in [(0u64, 2usize), (1, 2), (2, 4), (3, 3)] {
            for g in 0..nsub {
                t.subscribe(Vpn::new(vpn), GpuId::new(g as u16), Ppn::new(0));
            }
        }
        let hist = t.subscriber_histogram(4);
        assert_eq!(hist, vec![0, 0, 2, 1, 1]);
    }

    #[test]
    fn add_replica_twice_updates_frame() {
        let mut e = GpsPte::new();
        e.add_replica(GpuId::new(0), Ppn::new(1));
        e.add_replica(GpuId::new(0), Ppn::new(2));
        assert_eq!(e.subscriber_count(), 1);
        assert_eq!(e.replica_of(GpuId::new(0)), Some(Ppn::new(2)));
    }
}
