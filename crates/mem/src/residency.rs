//! Page residency and read-duplication state for the Unified Memory
//! baselines.

use gps_types::{GpuId, Vpn};

use crate::PageMap;

/// Where a UM-managed page currently lives.
///
/// Unified Memory keeps exactly one writable copy of a page, migrating it on
/// faults. With `read-mostly`-style duplication a page may temporarily have
/// extra read-only replicas, but any write *collapses* the page back to a
/// single copy and triggers a TLB shootdown on the other GPUs (§2.1: "Writes
/// to read-duplicated pages 'collapse' the page to a single GPU (usually the
/// writer) and trigger an expensive TLB shootdown").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyState {
    /// The GPU holding the authoritative copy.
    pub owner: GpuId,
    /// GPUs (other than `owner`) holding read-only replicas.
    pub readers: Vec<GpuId>,
}

impl ResidencyState {
    /// A page resident solely on `owner`.
    pub fn solely(owner: GpuId) -> Self {
        Self {
            owner,
            readers: Vec::new(),
        }
    }

    /// Whether `gpu` can read the page locally (owner or replica holder).
    pub fn readable_by(&self, gpu: GpuId) -> bool {
        self.owner == gpu || self.readers.contains(&gpu)
    }

    /// Total copies of the page in the system.
    pub fn copies(&self) -> usize {
        1 + self.readers.len()
    }
}

/// Result of a write to a page under UM semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollapseOutcome {
    /// The write hit the sole copy on the writing GPU: no migration, no
    /// shootdown.
    LocalWrite,
    /// The page had replicas that were invalidated; a TLB shootdown of
    /// `invalidated` remote copies was required.
    Collapsed {
        /// How many remote copies were destroyed.
        invalidated: usize,
    },
    /// The page lived elsewhere and migrated to the writer (fault +
    /// transfer); any replicas were also invalidated.
    Migrated {
        /// The previous owner.
        from: GpuId,
        /// How many remote copies (including the old owner's) were
        /// destroyed.
        invalidated: usize,
    },
}

/// Tracks UM residency for every touched page.
///
/// Pages are populated lazily on first touch (CUDA's default first-touch
/// placement, §6: "the simulator allocates pages on the first GPU that
/// touches the page").
#[derive(Debug, Clone, Default)]
pub struct ResidencyMap {
    pages: PageMap<ResidencyState>,
}

impl ResidencyMap {
    /// Creates an empty residency map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The residency of `vpn`, if it has been touched.
    pub fn state(&self, vpn: Vpn) -> Option<&ResidencyState> {
        self.pages.get(vpn)
    }

    /// Number of touched pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether no pages have been touched.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Forces the page to live on `owner` with no replicas (used for
    /// preferred-location hints and memcpy-style placement).
    pub fn place(&mut self, vpn: Vpn, owner: GpuId) {
        self.pages.insert(vpn, ResidencyState::solely(owner));
    }

    /// Records a read by `gpu`. Returns `true` if the read was local
    /// (already readable), `false` if the page had to fault/migrate to
    /// `gpu` — in which case the page is now owned by `gpu` (fault-based
    /// migration semantics, no duplication).
    pub fn read_migrate(&mut self, vpn: Vpn, gpu: GpuId) -> bool {
        match self.pages.get_mut(vpn) {
            None => {
                // First touch: page materialises on the reader.
                self.pages.insert(vpn, ResidencyState::solely(gpu));
                true
            }
            Some(state) if state.readable_by(gpu) => true,
            Some(state) => {
                state.owner = gpu;
                state.readers.clear();
                false
            }
        }
    }

    /// Records a read by `gpu` under read-duplication semantics: the page
    /// stays put and `gpu` gains a replica. Returns `true` if the read was
    /// already local.
    pub fn read_duplicate(&mut self, vpn: Vpn, gpu: GpuId) -> bool {
        match self.pages.get_mut(vpn) {
            None => {
                self.pages.insert(vpn, ResidencyState::solely(gpu));
                true
            }
            Some(state) if state.readable_by(gpu) => true,
            Some(state) => {
                state.readers.push(gpu);
                false
            }
        }
    }

    /// Records a write by `gpu`, applying UM collapse semantics.
    pub fn write(&mut self, vpn: Vpn, gpu: GpuId) -> CollapseOutcome {
        match self.pages.get_mut(vpn) {
            None => {
                self.pages.insert(vpn, ResidencyState::solely(gpu));
                CollapseOutcome::LocalWrite
            }
            Some(state) => {
                if state.owner == gpu {
                    if state.readers.is_empty() {
                        CollapseOutcome::LocalWrite
                    } else {
                        let invalidated = state.readers.len();
                        state.readers.clear();
                        CollapseOutcome::Collapsed { invalidated }
                    }
                } else {
                    let from = state.owner;
                    // The writer's own stale replica (if any) is upgraded,
                    // not shot down; every other copy is invalidated.
                    let invalidated = 1 + state.readers.iter().filter(|&&r| r != gpu).count();
                    state.owner = gpu;
                    state.readers.clear();
                    CollapseOutcome::Migrated { from, invalidated }
                }
            }
        }
    }

    /// Iterates over all `(vpn, state)` pairs in ascending VPN order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &ResidencyState)> + '_ {
        self.pages.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G0: GpuId = GpuId::new(0);
    const G1: GpuId = GpuId::new(1);
    const G2: GpuId = GpuId::new(2);
    const P: Vpn = Vpn::new(7);

    #[test]
    fn first_touch_places_page_locally() {
        let mut m = ResidencyMap::new();
        assert!(m.read_migrate(P, G1));
        assert_eq!(m.state(P).unwrap().owner, G1);
    }

    #[test]
    fn remote_read_migrates() {
        let mut m = ResidencyMap::new();
        m.place(P, G0);
        assert!(!m.read_migrate(P, G1));
        assert_eq!(m.state(P).unwrap().owner, G1);
        // Reading again is now local.
        assert!(m.read_migrate(P, G1));
    }

    #[test]
    fn thrashing_alternating_readers() {
        let mut m = ResidencyMap::new();
        m.place(P, G0);
        let mut faults = 0;
        for i in 0..6 {
            let gpu = if i % 2 == 0 { G1 } else { G2 };
            if !m.read_migrate(P, gpu) {
                faults += 1;
            }
        }
        // Every access migrates: classic UM ping-pong.
        assert_eq!(faults, 6);
    }

    #[test]
    fn read_duplication_keeps_owner() {
        let mut m = ResidencyMap::new();
        m.place(P, G0);
        assert!(!m.read_duplicate(P, G1));
        assert!(m.read_duplicate(P, G1));
        let s = m.state(P).unwrap();
        assert_eq!(s.owner, G0);
        assert_eq!(s.copies(), 2);
    }

    #[test]
    fn write_collapses_replicas() {
        let mut m = ResidencyMap::new();
        m.place(P, G0);
        m.read_duplicate(P, G1);
        m.read_duplicate(P, G2);
        assert_eq!(
            m.write(P, G0),
            CollapseOutcome::Collapsed { invalidated: 2 }
        );
        assert_eq!(m.state(P).unwrap().copies(), 1);
    }

    #[test]
    fn remote_write_migrates_and_invalidates() {
        let mut m = ResidencyMap::new();
        m.place(P, G0);
        m.read_duplicate(P, G2);
        let outcome = m.write(P, G1);
        assert_eq!(
            outcome,
            CollapseOutcome::Migrated {
                from: G0,
                invalidated: 2
            }
        );
        assert_eq!(m.state(P).unwrap().owner, G1);
    }

    #[test]
    fn writer_with_replica_does_not_invalidate_itself() {
        let mut m = ResidencyMap::new();
        m.place(P, G0);
        m.read_duplicate(P, G1);
        let outcome = m.write(P, G1);
        // G0's copy invalidated; G1's replica upgraded in place.
        assert_eq!(
            outcome,
            CollapseOutcome::Migrated {
                from: G0,
                invalidated: 1
            }
        );
    }

    #[test]
    fn local_write_of_sole_copy_is_free() {
        let mut m = ResidencyMap::new();
        assert_eq!(m.write(P, G0), CollapseOutcome::LocalWrite);
        assert_eq!(m.write(P, G0), CollapseOutcome::LocalWrite);
    }
}
