//! The access tracking unit's one-bit-per-page DRAM bitmap (§5.2).

use gps_types::Vpn;

/// A dense bitmap with one bit per virtual page, covering a contiguous VPN
/// window.
///
/// The paper's access tracking unit "maintains a bitmap in DRAM with one bit
/// per page in the GPS address space"; last-level TLB misses set the bit for
/// the missing page, and the driver reads the bitmap at
/// `cuGPSTrackingStop()` to decide unsubscriptions. Tracking a 32 GB range
/// with 64 KB pages costs 64 KB of DRAM — [`AccessBitmap::storage_bytes`]
/// reproduces that arithmetic.
///
/// ```
/// use gps_mem::AccessBitmap;
/// use gps_types::Vpn;
///
/// let mut bm = AccessBitmap::new(Vpn::new(100), 64);
/// bm.set(Vpn::new(103));
/// assert!(bm.get(Vpn::new(103)));
/// assert!(!bm.get(Vpn::new(104)));
/// assert_eq!(bm.count_set(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct AccessBitmap {
    first_vpn: Vpn,
    pages: u64,
    words: Vec<u64>,
}

impl AccessBitmap {
    /// Creates a cleared bitmap covering `pages` pages starting at
    /// `first_vpn`.
    pub fn new(first_vpn: Vpn, pages: u64) -> Self {
        let words = pages.div_ceil(64) as usize;
        Self {
            first_vpn,
            pages,
            words: vec![0; words],
        }
    }

    /// First page covered.
    pub fn first_vpn(&self) -> Vpn {
        self.first_vpn
    }

    /// Number of pages covered.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// DRAM footprint of the bitmap in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    fn index(&self, vpn: Vpn) -> Option<(usize, u32)> {
        let off = vpn.as_u64().checked_sub(self.first_vpn.as_u64())?;
        if off >= self.pages {
            return None;
        }
        Some(((off / 64) as usize, (off % 64) as u32))
    }

    /// Marks `vpn` as accessed. Pages outside the window are ignored (the
    /// hardware unit only observes the GPS address space).
    pub fn set(&mut self, vpn: Vpn) {
        if let Some((w, b)) = self.index(vpn) {
            self.words[w] |= 1 << b;
        }
    }

    /// Reads the bit for `vpn`; pages outside the window read as untouched.
    pub fn get(&self, vpn: Vpn) -> bool {
        match self.index(vpn) {
            Some((w, b)) => self.words[w] & (1 << b) != 0,
            None => false,
        }
    }

    /// Clears every bit (start of a new profiling phase).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of pages marked accessed.
    pub fn count_set(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Iterates over the VPNs whose bits are set, in ascending order.
    pub fn iter_set(&self) -> impl Iterator<Item = Vpn> + '_ {
        let base = self.first_vpn.as_u64();
        let pages = self.pages;
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            (0..64).filter_map(move |b| {
                let off = wi as u64 * 64 + b;
                if off < pages && word & (1u64 << b) != 0 {
                    Some(Vpn::new(base + off))
                } else {
                    None
                }
            })
        })
    }

    /// Iterates over the VPNs whose bits are clear (pages never touched
    /// during profiling — the ones GPS unsubscribes), in ascending order.
    pub fn iter_clear(&self) -> impl Iterator<Item = Vpn> + '_ {
        let base = self.first_vpn.as_u64();
        (0..self.pages)
            .map(move |off| Vpn::new(base + off))
            .filter(move |&v| !self.get(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bm = AccessBitmap::new(Vpn::new(0), 130);
        bm.set(Vpn::new(0));
        bm.set(Vpn::new(64));
        bm.set(Vpn::new(129));
        assert!(bm.get(Vpn::new(0)));
        assert!(bm.get(Vpn::new(64)));
        assert!(bm.get(Vpn::new(129)));
        assert!(!bm.get(Vpn::new(1)));
        assert_eq!(bm.count_set(), 3);
        bm.clear();
        assert_eq!(bm.count_set(), 0);
    }

    #[test]
    fn out_of_window_accesses_are_ignored() {
        let mut bm = AccessBitmap::new(Vpn::new(10), 8);
        bm.set(Vpn::new(9));
        bm.set(Vpn::new(18));
        assert_eq!(bm.count_set(), 0);
        assert!(!bm.get(Vpn::new(9)));
        bm.set(Vpn::new(17));
        assert!(bm.get(Vpn::new(17)), "the window's last page is inside");
    }

    #[test]
    fn iter_set_ascends() {
        let mut bm = AccessBitmap::new(Vpn::new(5), 100);
        for v in [70u64, 5, 33] {
            bm.set(Vpn::new(v));
        }
        let got: Vec<u64> = bm.iter_set().map(|v| v.as_u64()).collect();
        assert_eq!(got, vec![5, 33, 70]);
    }

    #[test]
    fn iter_clear_complements_iter_set() {
        let mut bm = AccessBitmap::new(Vpn::new(0), 10);
        bm.set(Vpn::new(2));
        bm.set(Vpn::new(7));
        let clear: Vec<u64> = bm.iter_clear().map(|v| v.as_u64()).collect();
        assert_eq!(clear, vec![0, 1, 3, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn storage_matches_paper_arithmetic() {
        // 32 GB / 64 KB pages = 524288 pages = 64 KB of bitmap.
        let pages = 32 * gps_types::GIB / (64 * 1024);
        let bm = AccessBitmap::new(Vpn::new(0), pages);
        assert_eq!(bm.storage_bytes(), 64 * 1024);
    }
}
