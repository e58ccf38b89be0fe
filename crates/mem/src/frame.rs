//! Per-GPU physical frame allocation.

use gps_types::{GpsError, GpuId, PageSize, Ppn, Result};

/// Allocates physical page frames within one GPU's device memory.
///
/// The paper's GV100 configuration has 16 GB of global memory (Table 1).
/// Frames are handed out in units of the configured [`PageSize`]; a simple
/// bump pointer plus free list suffices because the model never fragments
/// across page sizes (one allocator instance is always used with one size).
///
/// ```
/// use gps_mem::FrameAllocator;
/// use gps_types::{GpuId, PageSize};
///
/// let mut fa = FrameAllocator::new(GpuId::new(0), 1 << 20, PageSize::Standard64K);
/// let a = fa.allocate()?;
/// let b = fa.allocate()?;
/// assert_ne!(a, b);
/// fa.free(a);
/// assert_eq!(fa.allocated_pages(), 1);
/// # Ok::<(), gps_types::GpsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    gpu: GpuId,
    page_size: PageSize,
    total_pages: u64,
    next_fresh: u64,
    free_list: Vec<Ppn>,
}

impl FrameAllocator {
    /// Creates an allocator over `capacity_bytes` of device memory on `gpu`,
    /// handing out frames of `page_size`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is smaller than one page.
    pub fn new(gpu: GpuId, capacity_bytes: u64, page_size: PageSize) -> Self {
        let total_pages = capacity_bytes / page_size.bytes();
        assert!(
            total_pages > 0,
            "capacity {capacity_bytes} B is smaller than one {page_size} page"
        );
        Self {
            gpu,
            page_size,
            total_pages,
            next_fresh: 0,
            free_list: Vec::new(),
        }
    }

    /// The GPU that owns this memory.
    pub fn gpu(&self) -> GpuId {
        self.gpu
    }

    /// The frame granularity.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Total frames in the device memory.
    pub fn total_pages(&self) -> u64 {
        self.total_pages
    }

    /// Frames currently allocated.
    pub fn allocated_pages(&self) -> u64 {
        self.next_fresh - self.free_list.len() as u64
    }

    /// Frames still available.
    pub fn free_pages(&self) -> u64 {
        self.total_pages - self.allocated_pages()
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::OutOfMemory`] when the device memory is exhausted.
    pub fn allocate(&mut self) -> Result<Ppn> {
        if let Some(ppn) = self.free_list.pop() {
            return Ok(ppn);
        }
        if self.next_fresh < self.total_pages {
            let ppn = Ppn::new(self.next_fresh);
            self.next_fresh += 1;
            Ok(ppn)
        } else {
            Err(GpsError::OutOfMemory {
                gpu: self.gpu,
                requested: self.page_size.bytes(),
            })
        }
    }

    /// Returns a frame to the allocator.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `ppn` was never handed out.
    pub fn free(&mut self, ppn: Ppn) {
        debug_assert!(
            ppn.as_u64() < self.next_fresh,
            "freeing frame {ppn} that was never allocated"
        );
        self.free_list.push(ppn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FrameAllocator {
        // 4 frames of 64 KiB.
        FrameAllocator::new(GpuId::new(1), 4 * 64 * 1024, PageSize::Standard64K)
    }

    #[test]
    fn allocates_distinct_frames() {
        let mut fa = small();
        let a = fa.allocate().unwrap();
        let b = fa.allocate().unwrap();
        let c = fa.allocate().unwrap();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(fa.allocated_pages(), 3);
        assert_eq!(fa.free_pages(), 1);
    }

    #[test]
    fn exhaustion_returns_out_of_memory() {
        let mut fa = small();
        for _ in 0..4 {
            fa.allocate().unwrap();
        }
        let err = fa.allocate().unwrap_err();
        assert!(matches!(err, GpsError::OutOfMemory { gpu, .. } if gpu == GpuId::new(1)));
    }

    #[test]
    fn free_enables_reuse() {
        let mut fa = small();
        let frames: Vec<_> = (0..4).map(|_| fa.allocate().unwrap()).collect();
        fa.free(frames[2]);
        let again = fa.allocate().unwrap();
        assert_eq!(again, frames[2]);
    }

    #[test]
    fn sixteen_gb_of_64k_pages() {
        let fa = FrameAllocator::new(GpuId::new(0), 16 * gps_types::GIB, PageSize::Standard64K);
        assert_eq!(fa.total_pages(), 262_144);
    }
}
