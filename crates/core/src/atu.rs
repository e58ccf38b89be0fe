//! The access tracking unit (§5.2, "Access tracking unit").

use gps_mem::AccessBitmap;
use gps_types::{GpuId, Vpn};

/// Hardware support for runtime subscription profiling: one DRAM-resident
/// bitmap per GPU with a bit per GPS page, fed by last-level TLB misses.
///
/// "Misses at the last level conventional GPU TLBs to pages in the GPS
/// virtual address space are forwarded to the access tracking unit, which
/// sets the bit corresponding to the page. [...] TLB misses are infrequent
/// yet cover all pages accessed by the GPU" (§5.2). The driver reads the
/// bitmaps at `tracking_stop` and unsubscribes GPUs from untouched pages.
///
/// ```
/// use gps_core::AccessTrackingUnit;
/// use gps_types::{GpuId, Vpn};
///
/// let mut atu = AccessTrackingUnit::new(2, Vpn::new(100), 16);
/// atu.set_active(true);
/// atu.record(GpuId::new(0), Vpn::new(103));
/// assert!(atu.accessed(GpuId::new(0), Vpn::new(103)));
/// assert!(!atu.accessed(GpuId::new(1), Vpn::new(103)));
/// ```
#[derive(Debug, Clone)]
pub struct AccessTrackingUnit {
    bitmaps: Vec<AccessBitmap>,
    active: bool,
}

impl AccessTrackingUnit {
    /// Creates a tracking unit for `gpu_count` GPUs over `pages` GPS pages
    /// starting at `first_vpn`. Tracking starts inactive.
    pub fn new(gpu_count: usize, first_vpn: Vpn, pages: u64) -> Self {
        Self {
            bitmaps: (0..gpu_count)
                .map(|_| AccessBitmap::new(first_vpn, pages))
                .collect(),
            active: false,
        }
    }

    /// Whether profiling is currently recording.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Starts or stops recording. Starting clears the bitmaps (a fresh
    /// profiling phase).
    pub fn set_active(&mut self, active: bool) {
        if active && !self.active {
            for bm in &mut self.bitmaps {
                bm.clear();
            }
        }
        self.active = active;
    }

    /// Records a last-level TLB miss by `gpu` for `vpn`. Ignored while
    /// inactive or for pages outside the GPS window.
    pub fn record(&mut self, gpu: GpuId, vpn: Vpn) {
        if self.active {
            if let Some(bm) = self.bitmaps.get_mut(gpu.index()) {
                bm.set(vpn);
            }
        }
    }

    /// Whether `gpu` touched `vpn` during the (last) profiling phase.
    pub fn accessed(&self, gpu: GpuId, vpn: Vpn) -> bool {
        self.bitmaps.get(gpu.index()).is_some_and(|bm| bm.get(vpn))
    }

    /// The pages `gpu` never touched, ascending — the unsubscription
    /// candidates the driver processes at `tracking_stop`.
    pub fn untouched(&self, gpu: GpuId) -> impl Iterator<Item = Vpn> + '_ {
        self.bitmaps[gpu.index()].iter_clear()
    }

    /// The pages `gpu` touched, ascending.
    pub fn touched(&self, gpu: GpuId) -> impl Iterator<Item = Vpn> + '_ {
        self.bitmaps[gpu.index()].iter_set()
    }

    /// DRAM consumed by the bitmaps across all GPUs, in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.bitmaps.iter().map(AccessBitmap::storage_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_unit_records_nothing() {
        let mut atu = AccessTrackingUnit::new(1, Vpn::new(0), 8);
        atu.record(GpuId::new(0), Vpn::new(3));
        assert!(!atu.accessed(GpuId::new(0), Vpn::new(3)));
        assert_eq!(atu.touched(GpuId::new(0)).count(), 0);
    }

    #[test]
    fn restart_clears_previous_phase() {
        let mut atu = AccessTrackingUnit::new(1, Vpn::new(0), 8);
        atu.set_active(true);
        atu.record(GpuId::new(0), Vpn::new(3));
        atu.set_active(false);
        atu.set_active(true);
        assert!(!atu.accessed(GpuId::new(0), Vpn::new(3)));
    }

    #[test]
    fn untouched_is_complement_of_touched() {
        let mut atu = AccessTrackingUnit::new(2, Vpn::new(10), 6);
        atu.set_active(true);
        atu.record(GpuId::new(1), Vpn::new(12));
        atu.record(GpuId::new(1), Vpn::new(15));
        let touched: Vec<u64> = atu.touched(GpuId::new(1)).map(|v| v.as_u64()).collect();
        let untouched: Vec<u64> = atu.untouched(GpuId::new(1)).map(|v| v.as_u64()).collect();
        assert_eq!(touched, vec![12, 15]);
        assert_eq!(untouched, vec![10, 11, 13, 14]);
        // GPU 0 touched nothing.
        assert_eq!(atu.untouched(GpuId::new(0)).count(), 6);
    }

    #[test]
    fn out_of_window_pages_ignored() {
        let mut atu = AccessTrackingUnit::new(1, Vpn::new(10), 4);
        atu.set_active(true);
        atu.record(GpuId::new(0), Vpn::new(3));
        assert_eq!(atu.touched(GpuId::new(0)).count(), 0);
    }

    #[test]
    fn storage_scales_with_gpus() {
        // 32 GB window per GPU at 64 KB pages = 64 KB per bitmap (§5.2).
        let pages = 32 * gps_types::GIB / (64 * 1024);
        let atu = AccessTrackingUnit::new(4, Vpn::new(0), pages);
        assert_eq!(atu.storage_bytes(), 4 * 64 * 1024);
    }
}
