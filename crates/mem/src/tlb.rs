//! A generic set-associative, LRU translation lookaside buffer.

use gps_types::{GpsError, Result, Vpn};

/// Geometry of a [`Tlb`].
///
/// Table 1 specifies the GPS-TLB as 8-way set-associative with 32 entries
/// (i.e. 4 sets); [`TlbConfig::gps_tlb`] builds exactly that. The
/// conventional last-level GPU TLB is much larger
/// ([`TlbConfig::conventional_l2_tlb`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of sets; must be a power of two.
    pub sets: usize,
    /// Associativity (entries per set).
    pub ways: usize,
}

impl TlbConfig {
    /// The GPS-TLB of Table 1: 32 entries, 8-way set-associative.
    pub const fn gps_tlb() -> Self {
        Self { sets: 4, ways: 8 }
    }

    /// A conventional last-level GPU TLB (thousands of entries; the paper
    /// cites GPU last-level TLBs "sized to provide full coverage").
    pub const fn conventional_l2_tlb() -> Self {
        Self { sets: 512, ways: 8 }
    }

    /// Total entry count.
    pub const fn entries(self) -> usize {
        self.sets * self.ways
    }

    /// This geometry's share when `share` tenants split the structure
    /// way-wise: the set count is untouched (it must stay a power of two)
    /// and each tenant keeps `ways / share` ways, floored at one. A share
    /// of zero or one returns the geometry unchanged.
    #[must_use]
    pub const fn with_way_share(mut self, share: u32) -> Self {
        if share > 1 {
            self.ways = self.ways / share as usize;
            if self.ways == 0 {
                self.ways = 1;
            }
        }
        self
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] if `sets` is not a power of two or either
    /// dimension is zero.
    pub fn validate(self) -> Result<()> {
        if self.sets == 0 || self.ways == 0 {
            return Err(GpsError::Config {
                reason: format!("TLB geometry {self:?} has a zero dimension"),
            });
        }
        if !self.sets.is_power_of_two() {
            return Err(GpsError::Config {
                reason: format!("TLB set count {} is not a power of two", self.sets),
            });
        }
        Ok(())
    }
}

/// Hit/miss counters for a [`Tlb`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that found their translation.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

impl TlbStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no lookups occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry<T> {
    vpn: Vpn,
    payload: T,
    /// Monotonic recency stamp; larger is more recent.
    last_use: u64,
}

/// A set-associative, LRU-replacement TLB caching translations of type `T`.
///
/// The payload type is generic: the GPS-TLB caches the wide [`GpsPte`]
/// (all subscribers' physical addresses), while the simulator's
/// conventional TLB only models hits and misses and caches `()`.
///
/// [`GpsPte`]: crate::GpsPte
///
/// ```
/// use gps_mem::{Tlb, TlbConfig};
/// use gps_types::Vpn;
///
/// let mut tlb: Tlb<u32> = Tlb::new(TlbConfig { sets: 1, ways: 2 });
/// tlb.insert(Vpn::new(1), 10);
/// tlb.insert(Vpn::new(2), 20);
/// assert_eq!(tlb.lookup(Vpn::new(1)), Some(&10));
/// // Inserting a third entry evicts the LRU entry (vpn 2).
/// tlb.insert(Vpn::new(3), 30);
/// assert_eq!(tlb.lookup(Vpn::new(2)), None);
/// assert_eq!(tlb.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Tlb<T> {
    config: TlbConfig,
    sets: Vec<Vec<Entry<T>>>,
    clock: u64,
    stats: TlbStats,
}

impl<T> Tlb<T> {
    /// Creates an empty TLB with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`TlbConfig::validate`]).
    pub fn new(config: TlbConfig) -> Self {
        // gps-lint: allow(no_expect) -- documented panic: the constructor's # Panics contract covers invalid geometry
        config.validate().expect("invalid TLB geometry");
        Self {
            config,
            sets: (0..config.sets).map(|_| Vec::new()).collect(),
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// The TLB geometry.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Resets the hit/miss counters (but not the cached translations).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    fn set_index(&self, vpn: Vpn) -> usize {
        (vpn.as_u64() as usize) & (self.config.sets - 1)
    }

    /// Looks up `vpn`, updating recency and hit/miss counters.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<&T> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_index(vpn);
        let found = self.sets[set].iter_mut().find(|e| e.vpn == vpn);
        match found {
            Some(entry) => {
                entry.last_use = clock;
                self.stats.hits += 1;
                Some(&entry.payload)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks for `vpn` without disturbing recency or counters.
    pub fn peek(&self, vpn: Vpn) -> Option<&T> {
        let set = self.set_index(vpn);
        self.sets[set]
            .iter()
            .find(|e| e.vpn == vpn)
            .map(|e| &e.payload)
    }

    /// Inserts (or refreshes) the translation for `vpn`, evicting the
    /// least-recently-used entry of the set if it is full. Returns the
    /// evicted `(vpn, payload)` if an eviction occurred.
    pub fn insert(&mut self, vpn: Vpn, payload: T) -> Option<(Vpn, T)> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.config.ways;
        let set_idx = self.set_index(vpn);
        let set = &mut self.sets[set_idx];

        if let Some(entry) = set.iter_mut().find(|e| e.vpn == vpn) {
            entry.payload = payload;
            entry.last_use = clock;
            return None;
        }

        let mut evicted = None;
        if set.len() >= ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                // gps-lint: allow(no_expect) -- the eviction branch only runs when the set is full, so it is non-empty
                .expect("set is non-empty");
            let old = set.swap_remove(lru);
            evicted = Some((old.vpn, old.payload));
        }
        set.push(Entry {
            vpn,
            payload,
            last_use: clock,
        });
        evicted
    }

    /// Removes the translation for `vpn` (TLB shootdown of one page).
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        let set = self.set_index(vpn);
        let before = self.sets[set].len();
        self.sets[set].retain(|e| e.vpn != vpn);
        self.sets[set].len() != before
    }

    /// Removes every cached translation (full TLB shootdown).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Whether the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb<u64> {
        Tlb::new(TlbConfig { sets: 2, ways: 2 })
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut tlb = tiny();
        assert!(tlb.lookup(Vpn::new(0)).is_none());
        tlb.insert(Vpn::new(0), 99);
        assert_eq!(tlb.lookup(Vpn::new(0)), Some(&99));
        let stats = tlb.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut tlb = tiny();
        // VPNs 0, 2, 4 all map to set 0 (sets=2).
        tlb.insert(Vpn::new(0), 0);
        tlb.insert(Vpn::new(2), 2);
        // Touch 0 so 2 becomes LRU.
        tlb.lookup(Vpn::new(0));
        let evicted = tlb.insert(Vpn::new(4), 4);
        assert_eq!(evicted, Some((Vpn::new(2), 2)));
        assert!(tlb.peek(Vpn::new(0)).is_some());
        assert!(tlb.peek(Vpn::new(2)).is_none());
    }

    #[test]
    fn sets_are_independent() {
        let mut tlb = tiny();
        tlb.insert(Vpn::new(0), 0); // set 0
        tlb.insert(Vpn::new(2), 2); // set 0
        tlb.insert(Vpn::new(1), 1); // set 1
        tlb.insert(Vpn::new(3), 3); // set 1
                                    // All four fit: 2 sets x 2 ways.
        assert_eq!(tlb.len(), 4);
    }

    #[test]
    fn reinsert_updates_payload_without_eviction() {
        let mut tlb = tiny();
        tlb.insert(Vpn::new(0), 1);
        assert_eq!(tlb.insert(Vpn::new(0), 2), None);
        assert_eq!(tlb.peek(Vpn::new(0)), Some(&2));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut tlb = tiny();
        tlb.insert(Vpn::new(0), 0);
        tlb.insert(Vpn::new(1), 1);
        assert!(tlb.invalidate(Vpn::new(0)));
        assert!(!tlb.invalidate(Vpn::new(0)));
        assert_eq!(tlb.len(), 1);
        tlb.flush();
        assert!(tlb.is_empty());
    }

    #[test]
    fn peek_does_not_touch_counters() {
        let mut tlb = tiny();
        tlb.insert(Vpn::new(0), 0);
        let before = tlb.stats();
        let _ = tlb.peek(Vpn::new(0));
        let _ = tlb.peek(Vpn::new(9));
        assert_eq!(tlb.stats(), before);
    }

    #[test]
    fn gps_tlb_geometry_matches_table1() {
        let cfg = TlbConfig::gps_tlb();
        assert_eq!(cfg.entries(), 32);
        assert_eq!(cfg.ways, 8);
        cfg.validate().unwrap();
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(TlbConfig { sets: 3, ways: 2 }.validate().is_err());
        assert!(TlbConfig { sets: 0, ways: 2 }.validate().is_err());
        assert!(TlbConfig { sets: 2, ways: 0 }.validate().is_err());
    }

    #[test]
    fn way_share_keeps_sets_and_floors_at_one_way() {
        let cfg = TlbConfig::gps_tlb();
        assert_eq!(cfg.with_way_share(0), cfg);
        assert_eq!(cfg.with_way_share(1), cfg);
        let half = cfg.with_way_share(2);
        assert_eq!(half, TlbConfig { sets: 4, ways: 4 });
        half.validate().unwrap();
        // Oversharing never produces a zero-way TLB.
        let floor = cfg.with_way_share(100);
        assert_eq!(floor.ways, 1);
        floor.validate().unwrap();
    }
}
