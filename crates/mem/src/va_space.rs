//! Allocation of ranges in the shared multi-GPU virtual address space.

use gps_types::{GpsError, LineAddr, PageSize, Result, VirtAddr, Vpn, CACHE_LINE_BYTES};

/// A contiguous, page-aligned range of virtual addresses returned by
/// [`VaSpace::allocate`].
///
/// ```
/// use gps_mem::VaSpace;
/// use gps_types::PageSize;
///
/// let mut space = VaSpace::new(PageSize::Standard64K);
/// let r = space.allocate(100_000)?; // rounds up to 2 pages
/// assert_eq!(r.pages(), 2);
/// assert_eq!(r.bytes(), 2 * 65536);
/// assert!(r.contains(r.base()));
/// # Ok::<(), gps_types::GpsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VaRange {
    base: VirtAddr,
    bytes: u64,
    page_size: PageSize,
}

impl VaRange {
    /// Constructs a range directly; used by the allocator and by tests.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `bytes` is not page-aligned or `bytes` is zero.
    pub fn new(base: VirtAddr, bytes: u64, page_size: PageSize) -> Self {
        assert!(bytes > 0, "empty VA range");
        assert!(
            base.is_aligned(page_size.bytes()) && bytes.is_multiple_of(page_size.bytes()),
            "VA range must be page-aligned"
        );
        Self {
            base,
            bytes,
            page_size,
        }
    }

    /// First byte of the range.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Size in bytes (always a multiple of the page size).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// One past the last byte of the range.
    pub fn end(&self) -> VirtAddr {
        self.base + self.bytes
    }

    /// The page size the range was allocated with.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Number of pages in the range.
    pub fn pages(&self) -> u64 {
        self.bytes / self.page_size.bytes()
    }

    /// Number of cache lines in the range.
    pub fn lines(&self) -> u64 {
        self.bytes / CACHE_LINE_BYTES
    }

    /// Whether `addr` falls inside the range.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Iterates over the virtual page numbers of the range.
    pub fn vpns(&self) -> impl Iterator<Item = Vpn> + Clone + '_ {
        let first = self.base.vpn(self.page_size).as_u64();
        (first..first + self.pages()).map(Vpn::new)
    }

    /// The byte address `offset` bytes into the range.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= bytes()`.
    pub fn at(&self, offset: u64) -> VirtAddr {
        assert!(offset < self.bytes, "offset {offset} outside range");
        self.base + offset
    }

    /// The cache line `index` lines into the range.
    ///
    /// # Panics
    ///
    /// Panics if `index >= lines()`.
    pub fn line_at(&self, index: u64) -> LineAddr {
        assert!(index < self.lines(), "line index {index} outside range");
        self.base.line().offset(index)
    }
}

/// A bump allocator over the shared 49-bit virtual address space (Table 1).
///
/// Allocations are rounded up to whole pages of the configured size and are
/// never reused after [`VaSpace::free`] — matching the monotone VA behaviour
/// of real CUDA allocators within one process, and keeping every range
/// distinct for the lifetime of a simulation (which simplifies traffic
/// attribution).
#[derive(Debug, Clone)]
pub struct VaSpace {
    page_size: PageSize,
    next: u64,
    limit: u64,
    live_ranges: Vec<VaRange>,
}

/// The paper's virtual address width (Table 1).
pub(crate) const VA_BITS: u32 = 49;

/// Allocations start above zero so that null-ish addresses are never valid.
const VA_BASE: u64 = 1 << 32;

impl VaSpace {
    /// Creates an empty address space handing out pages of `page_size`.
    pub fn new(page_size: PageSize) -> Self {
        Self {
            page_size,
            next: VA_BASE,
            limit: 1 << VA_BITS,
            live_ranges: Vec::new(),
        }
    }

    /// The page size of this space.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Allocates `bytes` (rounded up to whole pages).
    ///
    /// # Errors
    ///
    /// * [`GpsError::InvalidRange`] if `bytes` is zero.
    /// * [`GpsError::OutOfAddressSpace`] if the 49-bit space is exhausted.
    pub fn allocate(&mut self, bytes: u64) -> Result<VaRange> {
        if bytes == 0 {
            return Err(GpsError::InvalidRange {
                reason: "zero-byte allocation".to_owned(),
            });
        }
        let rounded = self
            .page_size
            .pages_for(bytes)
            .checked_mul(self.page_size.bytes())
            .ok_or(GpsError::OutOfAddressSpace { requested: bytes })?;
        let base = self.next;
        let end = base
            .checked_add(rounded)
            .ok_or(GpsError::OutOfAddressSpace { requested: bytes })?;
        if end > self.limit {
            return Err(GpsError::OutOfAddressSpace { requested: bytes });
        }
        self.next = end;
        let range = VaRange::new(VirtAddr::new(base), rounded, self.page_size);
        self.live_ranges.push(range);
        Ok(range)
    }

    /// Releases a range. The VA region is retired, never reused.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::InvalidRange`] if `range` is not a live allocation
    /// of this space.
    pub fn free(&mut self, range: &VaRange) -> Result<()> {
        match self.live_ranges.iter().position(|r| r == range) {
            Some(i) => {
                self.live_ranges.swap_remove(i);
                Ok(())
            }
            None => Err(GpsError::InvalidRange {
                reason: format!("{range:?} is not a live allocation"),
            }),
        }
    }

    /// The live allocations, in allocation order (after frees, order of the
    /// survivors is unspecified).
    pub fn live_ranges(&self) -> &[VaRange] {
        &self.live_ranges
    }

    /// Finds the live range containing `addr`, if any.
    pub fn range_of(&self, addr: VirtAddr) -> Option<&VaRange> {
        self.live_ranges.iter().find(|r| r.contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_do_not_overlap() {
        let mut space = VaSpace::new(PageSize::Standard64K);
        let a = space.allocate(1).unwrap();
        let b = space.allocate(65_537).unwrap();
        assert!(a.end() <= b.base());
        assert_eq!(a.pages(), 1);
        assert_eq!(b.pages(), 2);
    }

    #[test]
    fn zero_allocation_rejected() {
        let mut space = VaSpace::new(PageSize::Standard64K);
        assert!(matches!(
            space.allocate(0),
            Err(GpsError::InvalidRange { .. })
        ));
    }

    #[test]
    fn exhaustion_of_49_bit_space() {
        let mut space = VaSpace::new(PageSize::Huge2M);
        let err = space.allocate(1 << 50).unwrap_err();
        assert!(matches!(err, GpsError::OutOfAddressSpace { .. }));
    }

    #[test]
    fn vpn_iteration_covers_range() {
        let mut space = VaSpace::new(PageSize::Standard64K);
        let r = space.allocate(3 * 65536).unwrap();
        let vpns: Vec<_> = r.vpns().collect();
        assert_eq!(vpns.len(), 3);
        assert_eq!(vpns[0], r.base().vpn(PageSize::Standard64K));
        assert_eq!(vpns[2].as_u64(), vpns[0].as_u64() + 2);
    }

    #[test]
    fn line_iteration_matches_byte_count() {
        let mut space = VaSpace::new(PageSize::Small4K);
        let r = space.allocate(4096).unwrap();
        assert_eq!(r.lines(), 4096 / CACHE_LINE_BYTES);
        assert_eq!(r.line_at(0), r.base().line());
    }

    #[test]
    fn free_retires_ranges() {
        let mut space = VaSpace::new(PageSize::Standard64K);
        let a = space.allocate(1).unwrap();
        assert_eq!(space.live_ranges().len(), 1);
        space.free(&a).unwrap();
        assert!(space.live_ranges().is_empty());
        assert!(space.free(&a).is_err());
        // VA is never reused.
        let b = space.allocate(1).unwrap();
        assert!(b.base() >= a.end());
    }

    #[test]
    fn range_of_finds_containing_allocation() {
        let mut space = VaSpace::new(PageSize::Standard64K);
        let a = space.allocate(2 * 65536).unwrap();
        let inside = a.at(70_000);
        assert_eq!(space.range_of(inside), Some(&a));
        assert_eq!(space.range_of(VirtAddr::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn at_rejects_out_of_bounds() {
        let mut space = VaSpace::new(PageSize::Small4K);
        let r = space.allocate(4096).unwrap();
        let _ = r.at(4096);
    }
}
