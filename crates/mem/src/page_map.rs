//! A map keyed by virtual page number, stored densely.

use std::fmt;

use gps_types::Vpn;

/// A key within this many pages of a run joins it; a key farther from
/// every run starts a run of its own, so one stray key costs one slot
/// rather than the whole gap.
const REACH: u64 = 1 << 16;

/// One dense run of slots: `slots[i]` holds the value of page `base + i`.
#[derive(Clone)]
struct Run<T> {
    base: u64,
    slots: Vec<Option<T>>,
}

impl<T> Run<T> {
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }
}

/// A map from [`Vpn`] to `T`, held as `Vec<Option<T>>` indexed by
/// `vpn − base`.
///
/// Every simulator page comes from one bump-allocated
/// [`VaSpace`](crate::VaSpace), so the keys a policy tracks are dense and a
/// lookup is an index instead of a tree search. Iteration is in ascending
/// VPN order, the order of a `BTreeMap<Vpn, T>`.
///
/// Memory is proportional to the span the keys cover, not to their
/// number. A key within 65 536 pages of the keys already held extends
/// their span; a key farther from all of them starts a separate span, so
/// a stray far key neither panics nor allocates the gap.
///
/// ```
/// use gps_mem::PageMap;
/// use gps_types::Vpn;
///
/// let mut m = PageMap::new();
/// m.insert(Vpn::new(12), 'b');
/// m.insert(Vpn::new(10), 'a');
/// assert_eq!(m.get(Vpn::new(12)), Some(&'b'));
/// assert_eq!(m.get(Vpn::new(11)), None);
/// let keys: Vec<u64> = m.keys().map(Vpn::as_u64).collect();
/// assert_eq!(keys, [10, 12]);
/// ```
#[derive(Clone)]
pub struct PageMap<T> {
    /// Disjoint runs sorted by base.
    runs: Vec<Run<T>>,
    len: usize,
}

impl<T> Default for PageMap<T> {
    fn default() -> Self {
        Self {
            runs: Vec::new(),
            len: 0,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for PageMap<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T> PageMap<T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pages with a value.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no page has a value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The run that holds page `key` if any does: the last run starting
    /// at or below it.
    fn run_below(&self, key: u64) -> Option<usize> {
        self.runs.partition_point(|r| r.base <= key).checked_sub(1)
    }

    fn existing_slot_mut(&mut self, vpn: Vpn) -> Option<&mut Option<T>> {
        let i = self.run_below(vpn.as_u64())?;
        let run = &mut self.runs[i];
        run.slots
            .get_mut(usize::try_from(vpn.as_u64() - run.base).ok()?)
    }

    /// The value of `vpn`, if any.
    pub fn get(&self, vpn: Vpn) -> Option<&T> {
        let run = &self.runs[self.run_below(vpn.as_u64())?];
        run.slots
            .get(usize::try_from(vpn.as_u64() - run.base).ok()?)?
            .as_ref()
    }

    /// Whether `vpn` has a value.
    pub fn contains_key(&self, vpn: Vpn) -> bool {
        self.get(vpn).is_some()
    }

    /// The value of `vpn`, mutably, if any.
    pub fn get_mut(&mut self, vpn: Vpn) -> Option<&mut T> {
        self.existing_slot_mut(vpn)?.as_mut()
    }

    /// Sets the value of `vpn`, returning the one it replaces.
    pub fn insert(&mut self, vpn: Vpn, value: T) -> Option<T> {
        let old = slot_mut(&mut self.runs, vpn.as_u64()).replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the value of `vpn`, returning it. The slot stays allocated.
    pub fn remove(&mut self, vpn: Vpn) -> Option<T> {
        let old = self.existing_slot_mut(vpn)?.take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// The value of `vpn`, first setting it to `make()` if it has none.
    pub fn get_or_insert_with(&mut self, vpn: Vpn, make: impl FnOnce() -> T) -> &mut T {
        let slot = slot_mut(&mut self.runs, vpn.as_u64());
        if slot.is_none() {
            self.len += 1;
        }
        slot.get_or_insert_with(make)
    }

    /// Removes every value, keeping the slots allocated.
    pub fn clear(&mut self) {
        // Lane routers clear their write overlays at every window barrier,
        // and most windows leave them empty.
        if self.len == 0 {
            return;
        }
        for run in &mut self.runs {
            run.slots.iter_mut().for_each(|s| *s = None);
        }
        self.len = 0;
    }

    /// `(vpn, value)` pairs in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &T)> + '_ {
        self.runs.iter().flat_map(|run| {
            run.slots
                .iter()
                .enumerate()
                .filter_map(move |(i, s)| s.as_ref().map(|v| (Vpn::new(run.base + i as u64), v)))
        })
    }

    /// The pages with a value, in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.iter().map(|(vpn, _)| vpn)
    }

    /// The values in ascending VPN order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.runs.iter().flat_map(|run| run.slots.iter().flatten())
    }

    /// The values in ascending VPN order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.runs
            .iter_mut()
            .flat_map(|run| run.slots.iter_mut().flatten())
    }
}

/// The slot of page `key`, growing a run or starting one to hold it.
fn slot_mut<T>(runs: &mut Vec<Run<T>>, key: u64) -> &mut Option<T> {
    // Runs `..p` start at or below `key`; runs `p..` start above it.
    let p = runs.partition_point(|r| r.base <= key);
    if let Some(below) = p.checked_sub(1) {
        let run = &mut runs[below];
        let off = key - run.base;
        let len = run.slots.len() as u64;
        if off < len || off - len < REACH {
            // `off` is at most `len + REACH`: it fits in memory.
            let off = off as usize;
            if off >= run.slots.len() {
                run.slots.resize_with(off + 1, || None);
                // Merge with the next run if the two now touch.
                if runs.get(p).is_some_and(|next| next.base == key + 1) {
                    let next = runs.remove(p);
                    runs[below].slots.extend(next.slots);
                }
            }
            return &mut runs[below].slots[off];
        }
    }
    if let Some(run) = runs.get(p) {
        let need = run.base - key;
        if need <= REACH {
            // Grow down geometrically so keys arriving in descending order
            // cost amortised O(1), but never into the run below.
            let floor = p.checked_sub(1).map_or(0, |b| runs[b].end());
            let run = &mut runs[p];
            let grow = need
                .max((run.slots.len() as u64).min(REACH))
                .min(run.base - floor);
            let mut slots = Vec::with_capacity(grow as usize + run.slots.len());
            slots.resize_with(grow as usize, || None);
            slots.append(&mut run.slots);
            run.slots = slots;
            run.base -= grow;
            return &mut run.slots[(grow - need) as usize];
        }
    }
    runs.insert(
        p,
        Run {
            base: key,
            slots: vec![None],
        },
    );
    &mut runs[p].slots[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slots<T>(m: &PageMap<T>) -> usize {
        m.runs.iter().map(|r| r.slots.len()).sum()
    }

    #[test]
    fn far_keys_start_their_own_runs() {
        let mut m = PageMap::new();
        for v in (1 << 20)..(1 << 20) + 0x100 {
            m.insert(Vpn::new(v), v);
        }
        // The farthest keys a u64 holds, on both sides: each costs one
        // slot, not the gap to the others.
        m.insert(Vpn::new(u64::MAX), 1);
        m.insert(Vpn::new(0), 2);
        assert_eq!(m.len(), 0x102);
        assert_eq!(slots(&m), 0x102);
        assert_eq!(m.runs.len(), 3);
        assert_eq!(m.get(Vpn::new(u64::MAX)), Some(&1));
        assert_eq!(m.get(Vpn::new(u64::MAX - 1)), None);
        assert_eq!(m.get(Vpn::new(1 << 40)), None);
        assert_eq!(m.remove(Vpn::new(1 << 40)), None);
        let keys: Vec<u64> = m.keys().map(Vpn::as_u64).collect();
        assert_eq!(keys.first(), Some(&0));
        assert_eq!(keys.last(), Some(&u64::MAX));
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_run_that_grows_into_the_next_joins_it() {
        let mut m = PageMap::new();
        m.insert(Vpn::new(100), 0);
        m.insert(Vpn::new(100 + REACH + 50), 1);
        assert_eq!(m.runs.len(), 2);
        for v in 101..100 + REACH + 50 {
            m.insert(Vpn::new(v), 2);
        }
        assert_eq!(m.runs.len(), 1);
        assert_eq!(slots(&m), REACH as usize + 51);
        assert_eq!(m.get(Vpn::new(100 + REACH + 50)), Some(&1));
    }

    #[test]
    fn descending_inserts_grow_down_geometrically() {
        let mut m = PageMap::new();
        for v in (3..5000u64).rev() {
            m.insert(Vpn::new(v), ());
        }
        assert_eq!(m.len(), 4997);
        assert_eq!(m.runs.len(), 1);
        // Growth stops at page 0 instead of wrapping below it.
        assert_eq!(m.runs[0].base, 0);
        assert!(slots(&m) <= 5000);
    }
}
