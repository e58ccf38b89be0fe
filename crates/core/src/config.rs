//! GPS hardware-unit configuration (Table 1, "GPS Structures").

use gps_mem::TlbConfig;
use gps_types::{GpsError, Latency, Result};

/// How automatic subscription profiling captures sharers (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfilingMode {
    /// "Indiscriminate all-to-all subscription followed by an
    /// unsubscription phase" — the implementation the paper evaluates
    /// (§5.2): over-subscription costs bandwidth during iteration 0 but
    /// never stalls.
    #[default]
    SubscribedByDefault,
    /// "A GPU subscribes to a page only when it issues the first read
    /// request to that page" — first touches go remote (or fault),
    /// trading profiling bandwidth for stalls.
    UnsubscribedByDefault,
}

/// Bytes of SRAM per remote-write-queue entry (Table 1: 135 — a 128-byte
/// data block plus tag/valid metadata).
pub const RWQ_ENTRY_BYTES: u64 = 135;

/// Penalty of a GPS-TLB miss (hardware walk of the GPS page table). Off the
/// critical path: it delays the drain, never the warp (§5.2).
pub const GPS_TLB_WALK_LATENCY: Latency = Latency::from_nanos(400);

/// Cost of a sys-scoped store to a GPS page: fault, flush in-flight
/// accesses, collapse the page to one copy and demote it (§5.3).
pub const COLLAPSE_LATENCY: Latency = Latency::from_micros(20);

/// Configuration of the GPS hardware units: the structures a figure sweeps.
///
/// Defaults reproduce Table 1's "GPS Structures" block: a 512-entry remote
/// write queue of [`RWQ_ENTRY_BYTES`]-byte entries (≈68 KB of SRAM, §5.2)
/// drained at a high watermark of capacity − 1, and a 32-entry, 8-way
/// GPS-TLB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsConfig {
    /// Remote write queue capacity in cache-line entries (Table 1: 512).
    pub rwq_entries: usize,
    /// Occupancy at which the queue starts draining its oldest entry. The
    /// paper sets this "to one less than the buffer's capacity to maximize
    /// coalescing opportunity" (§5.2).
    pub drain_watermark: usize,
    /// GPS-TLB geometry (Table 1: 32 entries, 8-way).
    pub gps_tlb: TlbConfig,
    /// Automatic profiling flavour.
    pub profiling: ProfilingMode,
}

impl GpsConfig {
    /// The Table 1 configuration.
    pub fn paper() -> Self {
        Self {
            rwq_entries: 512,
            drain_watermark: 511,
            gps_tlb: TlbConfig::gps_tlb(),
            profiling: ProfilingMode::SubscribedByDefault,
        }
    }

    /// The paper configuration with a different write-queue capacity
    /// (Figure 14 sweeps 0–1024 entries). The watermark follows at
    /// `entries - 1`.
    pub fn with_rwq_entries(mut self, entries: usize) -> Self {
        self.rwq_entries = entries;
        self.drain_watermark = entries.saturating_sub(1);
        self
    }

    /// This configuration's share when `tenants` applications split the
    /// GPS structures: each tenant keeps `rwq_entries / tenants` RWQ
    /// entries, floored at one (the watermark follows at capacity − 1),
    /// and the GPS-TLB loses ways proportionally
    /// ([`TlbConfig::with_way_share`]). A share of zero or one returns the
    /// configuration unchanged — single tenancy is exact.
    #[must_use]
    pub fn for_tenant_share(self, tenants: u32) -> Self {
        if tenants <= 1 {
            return self;
        }
        let entries = (self.rwq_entries / tenants as usize).max(1);
        let mut shared = self.with_rwq_entries(entries);
        shared.gps_tlb = shared.gps_tlb.with_way_share(tenants);
        shared
    }

    /// Total SRAM footprint of the remote write queue in bytes.
    ///
    /// ```
    /// use gps_core::GpsConfig;
    /// // §5.2: "with 512 entries, the GPS-write buffer requires 68 KB".
    /// let kb = GpsConfig::paper().rwq_sram_bytes() / 1024;
    /// assert_eq!(kb, 67); // 512 * 135 = 69120 B = 67.5 KiB ≈ "68 KB"
    /// ```
    pub fn rwq_sram_bytes(&self) -> u64 {
        self.rwq_entries as u64 * RWQ_ENTRY_BYTES
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] if the watermark exceeds capacity or
    /// the GPS-TLB geometry is invalid.
    pub fn validate(&self) -> Result<()> {
        if self.rwq_entries > 0 && self.drain_watermark >= self.rwq_entries {
            return Err(GpsError::Config {
                reason: format!(
                    "drain watermark {} must be below capacity {}",
                    self.drain_watermark, self.rwq_entries
                ),
            });
        }
        self.gps_tlb.validate()
    }
}

impl Default for GpsConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = GpsConfig::paper();
        assert_eq!(c.rwq_entries, 512);
        assert_eq!(RWQ_ENTRY_BYTES, 135);
        assert_eq!(c.drain_watermark, 511);
        assert_eq!(c.gps_tlb.entries(), 32);
        c.validate().unwrap();
    }

    #[test]
    fn rwq_resizing_moves_watermark() {
        let c = GpsConfig::paper().with_rwq_entries(64);
        assert_eq!(c.rwq_entries, 64);
        assert_eq!(c.drain_watermark, 63);
        c.validate().unwrap();
        // Degenerate zero-entry queue (Figure 14's origin) is allowed.
        let c0 = GpsConfig::paper().with_rwq_entries(0);
        assert_eq!(c0.drain_watermark, 0);
        c0.validate().unwrap();
    }

    #[test]
    fn tenant_share_divides_rwq_and_tlb_ways() {
        let base = GpsConfig::paper();
        assert_eq!(base.for_tenant_share(0), base);
        assert_eq!(base.for_tenant_share(1), base);
        let half = base.for_tenant_share(2);
        assert_eq!(half.rwq_entries, 256);
        assert_eq!(half.drain_watermark, 255);
        assert_eq!(half.gps_tlb.ways, 4);
        assert_eq!(half.gps_tlb.sets, 4);
        half.validate().unwrap();
        // Extreme sharing still yields a usable (1-entry, 1-way) config.
        let sliver = base.for_tenant_share(10_000);
        assert_eq!(sliver.rwq_entries, 1);
        assert_eq!(sliver.gps_tlb.ways, 1);
        sliver.validate().unwrap();
    }

    #[test]
    fn invalid_watermark_rejected() {
        let mut c = GpsConfig::paper();
        c.drain_watermark = 512;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_profiling_is_subscribed_by_default() {
        assert_eq!(
            GpsConfig::default().profiling,
            ProfilingMode::SubscribedByDefault
        );
    }
}
