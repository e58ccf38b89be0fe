//! The GPS remote write queue: a write-combining buffer for broadcast
//! stores (§5.2, "Coalescing remote writes").

use std::collections::{BTreeSet, VecDeque};

use gps_types::{LineAddr, Scope};

/// Outcome of presenting a store to the [`RemoteWriteQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The store coalesced into an entry already buffering its cache line —
    /// no new interconnect traffic will result from it.
    Coalesced,
    /// A new entry was allocated for the line.
    Inserted,
    /// The store is not coalescable (sys-scoped, or the queue has zero
    /// capacity) and must be handled by the caller directly.
    Bypassed,
}

/// Occupancy/coalescing counters of a [`RemoteWriteQueue`].
///
/// `hit_rate()` is the quantity Figure 14 sweeps against queue size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RwqStats {
    /// Stores that coalesced into an existing entry.
    pub hits: u64,
    /// Stores that allocated a new entry.
    pub inserts: u64,
    /// Stores that bypassed the queue (sys scope / zero capacity).
    pub bypasses: u64,
    /// Entries drained because the high watermark was reached.
    pub watermark_drains: u64,
    /// Entries drained by an explicit flush (synchronisation points).
    pub flush_drains: u64,
}

impl RwqStats {
    /// Coalescable stores presented to the queue.
    pub fn coalescable(&self) -> u64 {
        self.hits + self.inserts
    }

    /// Fraction of coalescable stores that combined with a buffered line —
    /// the Figure 14 hit rate. Zero when nothing was presented.
    pub fn hit_rate(&self) -> f64 {
        if self.coalescable() == 0 {
            0.0
        } else {
            self.hits as f64 / self.coalescable() as f64
        }
    }
}

/// The fully associative, virtually addressed write-combining buffer that
/// sits between a GPU's store path and the inter-GPU fabric.
///
/// Semantics from §5.2:
///
/// * Entries are cache-line granular and virtually addressed (translation
///   happens *after* coalescing, at drain, so one entry covers all
///   subscribers).
/// * All non-sys-scoped stores to the same line coalesce, consecutive or
///   not — the weak memory model permits store-store reordering until the
///   next sys-scoped synchronisation (§3.3).
/// * When occupancy reaches the high watermark, the **least recently
///   added** entry drains.
/// * Synchronisation points (sys fences, grid end) fully drain the queue.
/// * Atomics are never coalesced (§7.4) — callers bypass the queue.
///
/// ```
/// use gps_core::{InsertOutcome, RemoteWriteQueue};
/// use gps_types::{LineAddr, Scope};
///
/// let mut q = RemoteWriteQueue::new(4, 3);
/// assert_eq!(q.insert(LineAddr::new(1), Scope::Weak).0, InsertOutcome::Inserted);
/// assert_eq!(q.insert(LineAddr::new(1), Scope::Weak).0, InsertOutcome::Coalesced);
/// assert!((q.stats().hit_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct RemoteWriteQueue {
    capacity: usize,
    watermark: usize,
    /// The lines with a buffered entry.
    entries: BTreeSet<LineAddr>,
    /// Insertion order for least-recently-added draining.
    order: VecDeque<LineAddr>,
    stats: RwqStats,
}

impl RemoteWriteQueue {
    /// Creates an empty queue of `capacity` entries draining at
    /// `watermark` occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `watermark >= capacity` for a non-zero capacity.
    pub fn new(capacity: usize, watermark: usize) -> Self {
        assert!(
            capacity == 0 || watermark < capacity,
            "watermark {watermark} must be below capacity {capacity}"
        );
        Self {
            capacity,
            watermark,
            entries: BTreeSet::new(),
            order: VecDeque::new(),
            stats: RwqStats::default(),
        }
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RwqStats {
        self.stats
    }

    /// Whether `line` currently has a buffered entry (used by the load
    /// path's store-forwarding check, §5.1).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.entries.contains(&line)
    }

    /// Presents one store to the queue. Returns the outcome plus the lines
    /// (zero or one) that must drain to the fabric as a consequence of
    /// reaching the watermark.
    pub fn insert(&mut self, line: LineAddr, scope: Scope) -> (InsertOutcome, Option<LineAddr>) {
        if !scope.is_coalescable() || self.capacity == 0 {
            self.stats.bypasses += 1;
            return (InsertOutcome::Bypassed, None);
        }
        if !self.entries.insert(line) {
            self.stats.hits += 1;
            return (InsertOutcome::Coalesced, None);
        }
        self.order.push_back(line);
        self.stats.inserts += 1;

        let drained = if self.len() > self.watermark {
            self.stats.watermark_drains += 1;
            self.pop_oldest()
        } else {
            None
        };
        (InsertOutcome::Inserted, drained)
    }

    fn pop_oldest(&mut self) -> Option<LineAddr> {
        let line = self.order.pop_front()?;
        self.entries.remove(&line);
        Some(line)
    }

    /// Drains every buffered entry (a synchronisation point), oldest first.
    pub fn flush(&mut self) -> Vec<LineAddr> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(line) = self.pop_oldest() {
            self.stats.flush_drains += 1;
            out.push(line);
        }
        out
    }

    /// Records an atomic that bypassed the queue (atomics are never
    /// coalesced, §5.1/§7.4); only the counters are affected.
    pub fn note_atomic_bypass(&mut self) {
        self.stats.bypasses += 1;
    }

    /// Removes the entry for `line` if present (page collapse invalidation,
    /// §5.3 flushes in-flight accesses to the collapsing page).
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        if self.entries.remove(&line) {
            self.order.retain(|&l| l != line);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn coalesces_repeat_stores_to_same_line() {
        let mut q = RemoteWriteQueue::new(8, 7);
        assert_eq!(q.insert(line(1), Scope::Weak).0, InsertOutcome::Inserted);
        for _ in 0..5 {
            assert_eq!(q.insert(line(1), Scope::Weak).0, InsertOutcome::Coalesced);
        }
        assert_eq!(q.len(), 1);
        assert_eq!(q.stats().hits, 5);
        assert_eq!(q.stats().inserts, 1);
    }

    #[test]
    fn non_consecutive_stores_still_coalesce() {
        // §3.3: stores need not be consecutive to be coalesced.
        let mut q = RemoteWriteQueue::new(8, 7);
        q.insert(line(1), Scope::Weak);
        q.insert(line(2), Scope::Weak);
        q.insert(line(3), Scope::Weak);
        assert_eq!(q.insert(line(1), Scope::Weak).0, InsertOutcome::Coalesced);
    }

    #[test]
    fn gpu_and_cta_scoped_stores_coalesce_but_sys_bypasses() {
        let mut q = RemoteWriteQueue::new(8, 7);
        assert_eq!(q.insert(line(1), Scope::Cta).0, InsertOutcome::Inserted);
        assert_eq!(q.insert(line(1), Scope::Gpu).0, InsertOutcome::Coalesced);
        assert_eq!(q.insert(line(1), Scope::Sys).0, InsertOutcome::Bypassed);
        assert_eq!(q.stats().bypasses, 1);
    }

    #[test]
    fn watermark_drains_least_recently_added() {
        let mut q = RemoteWriteQueue::new(4, 3);
        q.insert(line(10), Scope::Weak);
        q.insert(line(11), Scope::Weak);
        q.insert(line(12), Scope::Weak);
        // Coalescing into 10 must NOT refresh its age.
        q.insert(line(10), Scope::Weak);
        let (_, drained) = q.insert(line(13), Scope::Weak);
        assert_eq!(drained, Some(line(10)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.stats().watermark_drains, 1);
    }

    #[test]
    fn flush_drains_everything_oldest_first() {
        let mut q = RemoteWriteQueue::new(8, 7);
        for n in [5, 3, 9] {
            q.insert(line(n), Scope::Weak);
        }
        assert_eq!(q.flush(), vec![line(5), line(3), line(9)]);
        assert!(q.is_empty());
        assert_eq!(q.stats().flush_drains, 3);
    }

    #[test]
    fn zero_capacity_queue_bypasses_everything() {
        // Figure 14's origin: no queue, no coalescing.
        let mut q = RemoteWriteQueue::new(0, 0);
        assert_eq!(q.insert(line(1), Scope::Weak).0, InsertOutcome::Bypassed);
        assert_eq!(q.stats().hit_rate(), 0.0);
    }

    #[test]
    fn drained_lines_stop_forwarding() {
        let mut q = RemoteWriteQueue::new(2, 1);
        q.insert(line(1), Scope::Weak);
        assert!(q.contains(line(1)));
        let (_, drained) = q.insert(line(2), Scope::Weak);
        assert_eq!(drained, Some(line(1)));
        assert!(!q.contains(line(1)));
        assert!(q.contains(line(2)));
    }

    #[test]
    fn invalidate_removes_without_draining() {
        let mut q = RemoteWriteQueue::new(8, 7);
        q.insert(line(1), Scope::Weak);
        q.insert(line(2), Scope::Weak);
        assert!(q.invalidate(line(1)));
        assert!(!q.invalidate(line(1)));
        assert_eq!(q.flush(), vec![line(2)]);
    }

    #[test]
    fn hit_rate_matches_definition() {
        let mut q = RemoteWriteQueue::new(8, 7);
        q.insert(line(1), Scope::Weak);
        q.insert(line(1), Scope::Weak);
        q.insert(line(2), Scope::Weak);
        q.insert(line(1), Scope::Sys); // bypass: not counted as coalescable
        let s = q.stats();
        assert_eq!(s.coalescable(), 3);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "watermark")]
    fn invalid_watermark_panics() {
        let _ = RemoteWriteQueue::new(4, 4);
    }
}
