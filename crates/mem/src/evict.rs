//! Eviction layer: per-GPU resident-set tracking and victim selection.
//!
//! GPS §8 leaves memory oversubscription as future work: a
//! subscribed-by-default model multiplies footprint by the subscriber
//! count, so replicas can exceed a GPU's physical memory. When that
//! happens the driver must *unsubscribe* a resident page (swap-out,
//! §5.3) to make room, after which the evicting GPU re-faults accesses
//! to that page into remote reads over the fabric.
//!
//! This module supplies the bookkeeping half of that story:
//!
//! * [`ResidentSet`] — the ordered set of GPS pages holding a replica on
//!   one GPU, maintained alongside the [`FrameAllocator`](crate::FrameAllocator).
//!   Victims are chosen LRU-approximate: the oldest page whose ATU
//!   access bit is clear.
//!
//! Victim *selection* is deliberately read-only: the caller owns the
//! page-table/TLB invalidation ordering and calls [`ResidentSet::remove`]
//! through its normal unsubscribe path.

use std::collections::{BTreeSet, VecDeque};

use gps_types::Vpn;

/// The ordered set of GPS pages with a resident replica on one GPU.
///
/// Insertion order is preserved (oldest first), giving victim selection
/// its age ordering; membership is a lookup in a side set.
#[derive(Debug, Clone, Default)]
pub struct ResidentSet {
    order: VecDeque<Vpn>,
    members: BTreeSet<Vpn>,
}

impl ResidentSet {
    /// Creates an empty resident set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `vpn` now holds a replica here. Re-inserting an
    /// already-resident page is a no-op (it keeps its age).
    pub fn insert(&mut self, vpn: Vpn) {
        if self.members.insert(vpn) {
            self.order.push_back(vpn);
        }
    }

    /// Records that `vpn` no longer holds a replica here. Returns whether
    /// the page was resident.
    pub fn remove(&mut self, vpn: Vpn) -> bool {
        if self.members.remove(&vpn) {
            self.order.retain(|&v| v != vpn);
            true
        } else {
            false
        }
    }

    /// Whether `vpn` holds a replica here.
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.members.contains(&vpn)
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Resident pages, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.order.iter().copied()
    }

    /// Chooses a victim among resident pages that satisfy `eligible`
    /// (typically: not the last surviving replica), or `None` if no page
    /// qualifies: the oldest such page whose access bit is clear, else the
    /// oldest such page.
    ///
    /// Selection does not mutate residency — the caller evicts through
    /// its unsubscribe path and then calls [`remove`](Self::remove).
    /// `recently_used` feeds in the ATU access bitmap; pass `|_| false`
    /// when no access history exists.
    pub fn select_victim(
        &self,
        mut eligible: impl FnMut(Vpn) -> bool,
        mut recently_used: impl FnMut(Vpn) -> bool,
    ) -> Option<Vpn> {
        let mut candidates = self
            .order
            .iter()
            .copied()
            .filter(|&v| eligible(v))
            .peekable();
        let oldest = *candidates.peek()?;
        Some(candidates.find(|&v| !recently_used(v)).unwrap_or(oldest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: u64) -> Vpn {
        Vpn::new(n)
    }

    #[test]
    fn insert_remove_preserves_age_order() {
        let mut set = ResidentSet::new();
        for n in [3, 1, 2] {
            set.insert(v(n));
        }
        set.insert(v(3)); // re-insert keeps original age
        assert_eq!(set.len(), 3);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![v(3), v(1), v(2)]);
        assert!(set.remove(v(1)));
        assert!(!set.remove(v(1)));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![v(3), v(2)]);
        assert!(set.contains(v(2)));
        assert!(!set.contains(v(1)));
    }

    #[test]
    fn lru_approx_skips_recently_used_and_falls_back_to_oldest() {
        let mut set = ResidentSet::new();
        for n in 0..4 {
            set.insert(v(n));
        }
        // Pages 0 and 1 were recently accessed: the oldest cold page wins.
        let victim = set.select_victim(|_| true, |p| p.as_u64() < 2);
        assert_eq!(victim, Some(v(2)));
        // Everything recently used: fall back to the oldest eligible.
        let victim = set.select_victim(|_| true, |_| true);
        assert_eq!(victim, Some(v(0)));
        // Eligibility filters before recency.
        let victim = set.select_victim(|p| p.as_u64() >= 3, |_| false);
        assert_eq!(victim, Some(v(3)));
        // No eligible page at all.
        let victim = set.select_victim(|_| false, |_| false);
        assert_eq!(victim, None);
    }
}
