//! A set-associative, write-back cache model used for both L1 and L2.

use gps_types::{GpuId, LineAddr, CACHE_LINE_BYTES};

/// Geometry of a [`Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Capacity in bytes.
    pub bytes: u64,
    /// Associativity.
    pub assoc: usize,
}

impl CacheConfig {
    /// Creates a configuration.
    pub fn new(bytes: u64, assoc: usize) -> Self {
        Self { bytes, assoc }
    }

    /// Number of sets (rounded down to a power of two).
    pub fn sets(&self) -> usize {
        let lines = (self.bytes / CACHE_LINE_BYTES) as usize;
        let sets = (lines / self.assoc).max(1);
        // Round down to a power of two so the index mask is well-formed.
        1usize << (usize::BITS - 1 - sets.leading_zeros())
    }
}

/// Hit/miss/write-back counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineAddr,
    /// Whether it was dirty (requires a write-back).
    pub dirty: bool,
    /// The GPU whose memory backs the line.
    pub home: GpuId,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated; the caller must fetch it
    /// (loads) or may treat it as write-validated (full-line stores).
    Miss {
        /// A line displaced by the allocation, if the set was full.
        evicted: Option<Evicted>,
    },
}

impl Lookup {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// The tag of a way that holds no line. No simulated line reaches it:
/// line addresses are virtual addresses shifted right by seven bits.
const INVALID: u64 = u64::MAX;

/// A set-associative, LRU, write-back, write-validate cache.
///
/// * Loads allocate on miss (fill from the next level, booked by the
///   caller).
/// * Stores allocate on miss *without* a fill (write-validate): the traces
///   are post-coalescer, so stores overwhelmingly cover whole 128 B lines.
/// * Each line remembers its *home* GPU so that remotely-sourced lines can
///   be dropped at kernel boundaries (peer data is not kept coherent across
///   grids).
///
/// ```
/// use gps_sim::{Cache, CacheConfig};
/// use gps_types::{GpuId, LineAddr};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2)); // 8 lines, 4 sets
/// let home = GpuId::new(0);
/// assert!(!c.access_read(LineAddr::new(1), home).is_hit());
/// assert!(c.access_read(LineAddr::new(1), home).is_hit());
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// Way state in parallel arrays, `sets * assoc` long, set-major: the
    /// line held ([`INVALID`] if none), its last use, its home GPU and
    /// whether it is dirty.
    tags: Vec<u64>,
    last_use: Vec<u64>,
    homes: Vec<GpuId>,
    dirty: Vec<bool>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let ways = sets * config.assoc;
        Self {
            config,
            sets,
            tags: vec![INVALID; ways],
            last_use: vec![0; ways],
            homes: vec![GpuId::new(0); ways],
            dirty: vec![false; ways],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.as_u64() as usize) & (self.sets - 1);
        let start = set * self.config.assoc;
        start..start + self.config.assoc
    }

    /// Ticks the LRU clock and looks `line` up in its set, marking it used
    /// on a hit. Returns the set's ways and the hit way, if any.
    fn lookup(&mut self, line: LineAddr) -> (std::ops::Range<usize>, Option<usize>) {
        self.clock += 1;
        let range = self.set_range(line);
        let tag = line.as_u64();
        let hit = self.tags[range.clone()]
            .iter()
            .position(|&t| t == tag)
            .map(|i| range.start + i);
        if let Some(way) = hit {
            self.last_use[way] = self.clock;
        }
        (range, hit)
    }

    /// Installs `line` in `range`'s victim way: the first invalid way,
    /// else the first least recently used. Returns what it displaced.
    fn install(
        &mut self,
        range: std::ops::Range<usize>,
        line: LineAddr,
        home: GpuId,
        dirty: bool,
    ) -> Option<Evicted> {
        let victim = range.start
            + match self.tags[range.clone()].iter().position(|&t| t == INVALID) {
                Some(i) => i,
                None => self.last_use[range.clone()]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &t)| t)
                    .map(|(i, _)| i)
                    // gps-lint: allow(no_expect) -- assoc >= 1 by construction, so min_by_key sees a non-empty iterator
                    .expect("assoc > 0"),
            };
        let evicted = (self.tags[victim] != INVALID).then(|| Evicted {
            line: LineAddr::new(self.tags[victim]),
            dirty: self.dirty[victim],
            home: self.homes[victim],
        });
        self.tags[victim] = line.as_u64();
        self.last_use[victim] = self.clock;
        self.homes[victim] = home;
        self.dirty[victim] = dirty;
        evicted
    }

    fn access(&mut self, line: LineAddr, home: GpuId, write: bool) -> Lookup {
        let (range, hit) = self.lookup(line);
        if let Some(way) = hit {
            self.dirty[way] |= write;
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        self.stats.misses += 1;
        let evicted = self.install(range, line, home, write);
        if evicted.is_some_and(|e| e.dirty) {
            self.stats.writebacks += 1;
        }
        Lookup::Miss { evicted }
    }

    /// Read access: allocates on miss.
    pub fn access_read(&mut self, line: LineAddr, home: GpuId) -> Lookup {
        self.access(line, home, false)
    }

    /// Write access: allocates dirty on miss (write-validate).
    pub fn access_write(&mut self, line: LineAddr, home: GpuId) -> Lookup {
        self.access(line, home, true)
    }

    /// Allocates `line` without touching the hit/miss counters. Used to
    /// install a fetched line whose miss was already counted elsewhere
    /// (e.g. the L1 fill after a miss that was probed first).
    pub fn fill(&mut self, line: LineAddr, home: GpuId) -> Option<Evicted> {
        match self.lookup(line) {
            (_, Some(_)) => None,
            (range, None) => self.install(range, line, home, false),
        }
    }

    /// Probes for `line` without allocating; updates LRU and counters on
    /// hit only. Used by the write-through L1 store path.
    pub fn probe(&mut self, line: LineAddr) -> bool {
        self.lookup(line).1.is_some()
    }

    /// Drops every line whose home is not `local`, returning how many were
    /// dropped. Remote lines are never dirty in this model (peer stores do
    /// not allocate), so no write-backs result.
    pub fn invalidate_remote(&mut self, local: GpuId) -> u64 {
        let mut dropped = 0;
        for (tag, &home) in self.tags.iter_mut().zip(&self.homes) {
            if *tag != INVALID && home != local {
                *tag = INVALID;
                dropped += 1;
            }
        }
        dropped
    }

    /// Invalidates everything, returning the dirty lines that would be
    /// written back.
    pub fn flush(&mut self) -> Vec<Evicted> {
        let mut out = Vec::new();
        for (way, tag) in self.tags.iter_mut().enumerate() {
            if *tag != INVALID && self.dirty[way] {
                self.stats.writebacks += 1;
                out.push(Evicted {
                    line: LineAddr::new(*tag),
                    dirty: true,
                    home: self.homes[way],
                });
            }
            *tag = INVALID;
        }
        out
    }

    /// Invalidates everything without tracking write-backs (L1s at kernel
    /// boundaries; L1 is write-through so nothing is lost).
    pub fn invalidate_all(&mut self) {
        self.tags.fill(INVALID);
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: GpuId = GpuId::new(0);
    const PEER: GpuId = GpuId::new(1);

    fn tiny() -> Cache {
        // 8 lines, 2-way => 4 sets.
        Cache::new(CacheConfig::new(8 * 128, 2))
    }

    #[test]
    fn sets_geometry() {
        assert_eq!(CacheConfig::new(6 * 1024 * 1024, 16).sets(), 2048);
        assert_eq!(CacheConfig::new(1024, 2).sets(), 4);
        // Non-power-of-two set counts round down.
        assert_eq!(CacheConfig::new(3 * 128 * 2, 2).sets(), 2);
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access_read(LineAddr::new(0), HOME).is_hit());
        assert!(c.access_read(LineAddr::new(0), HOME).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = tiny();
        // Lines 0, 4, 8 share set 0 (4 sets).
        c.access_write(LineAddr::new(0), HOME);
        c.access_read(LineAddr::new(4), HOME);
        // Touch 4 so 0 becomes LRU... actually touch 0's rival:
        c.access_read(LineAddr::new(4), HOME);
        match c.access_read(LineAddr::new(8), HOME) {
            Lookup::Miss { evicted: Some(e) } => {
                assert_eq!(e.line, LineAddr::new(0));
                assert!(e.dirty, "written line must evict dirty");
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_validate_marks_dirty_without_prior_fill() {
        let mut c = tiny();
        assert!(!c.access_write(LineAddr::new(3), HOME).is_hit());
        let dirty = c.flush();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].line, LineAddr::new(3));
    }

    #[test]
    fn invalidate_remote_keeps_local_lines() {
        let mut c = tiny();
        c.access_read(LineAddr::new(0), HOME);
        c.access_read(LineAddr::new(1), PEER);
        c.access_read(LineAddr::new(2), PEER);
        assert_eq!(c.invalidate_remote(HOME), 2);
        assert_eq!(c.len(), 1);
        assert!(c.probe(LineAddr::new(0)));
        assert!(!c.probe(LineAddr::new(1)));
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.probe(LineAddr::new(9)));
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().accesses(), 0);
    }

    #[test]
    fn flush_empties_and_reports_only_dirty() {
        let mut c = tiny();
        c.access_read(LineAddr::new(0), HOME);
        c.access_write(LineAddr::new(1), HOME);
        let dirty = c.flush();
        assert_eq!(dirty.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn hit_rate_improves_with_capacity() {
        // The EQWP L2 effect in miniature: a working set that thrashes a
        // small cache fits a larger one.
        let small = CacheConfig::new(8 * 128, 2);
        let large = CacheConfig::new(64 * 128, 2);
        let mut misses = [0u64; 2];
        for (i, cfg) in [small, large].into_iter().enumerate() {
            let mut c = Cache::new(cfg);
            for _round in 0..4 {
                for line in 0..32u64 {
                    c.access_read(LineAddr::new(line), HOME);
                }
            }
            misses[i] = c.stats().misses;
        }
        assert!(misses[1] < misses[0]);
        assert_eq!(misses[1], 32, "large cache misses only compulsorily");
    }
}
