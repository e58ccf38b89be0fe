//! Machine and timing configuration (Table 1 plus timing constants).

use gps_interconnect::Topology;
use gps_mem::VictimPolicy;
use gps_types::{Bandwidth, GpsError, Latency, PageSize, Result, GIB, KIB, MIB};

/// Memory-oversubscription knob: how much subscription demand the
/// pressure-aware paradigms squeeze into each GPU's frame capacity.
///
/// Expressed as an integer percentage so the config stays `Eq` and its
/// `Debug` rendering (which harness run keys hash) is exact: `150` means
/// each GPU's physical capacity is sized to `demand / 1.5`, forcing the
/// eviction layer to swap out a third of every GPU's replicas. Values at
/// or below `100` mean capacity covers demand — no pressure, no
/// evictions, reports bit-identical to the unpressured baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryPressure {
    /// Subscription demand as a percentage of per-GPU frame capacity
    /// (`150` = 1.5x oversubscribed). `100` or less disables pressure.
    pub oversubscription_pct: u32,
    /// Victim-selection policy used when a GPU must evict.
    pub victim_policy: VictimPolicy,
}

impl MemoryPressure {
    /// No pressure: capacity covers demand, eviction never triggers.
    pub const NONE: MemoryPressure = MemoryPressure {
        oversubscription_pct: 100,
        victim_policy: VictimPolicy::LruApprox,
    };

    /// Pressure from a subscription ratio (`1.5` -> 150 %), keeping the
    /// default LRU-approx victim policy. Ratios at or below 1.0 disable
    /// pressure.
    pub fn from_ratio(ratio: f64) -> Self {
        MemoryPressure {
            oversubscription_pct: (ratio.max(0.0) * 100.0).round() as u32,
            victim_policy: VictimPolicy::LruApprox,
        }
    }

    /// Replaces the victim policy.
    #[must_use]
    pub fn with_victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }

    /// The subscription ratio (`150` -> 1.5).
    pub fn ratio(&self) -> f64 {
        f64::from(self.oversubscription_pct) / 100.0
    }

    /// Whether demand actually exceeds capacity.
    pub fn is_active(&self) -> bool {
        self.oversubscription_pct > 100
    }
}

impl Default for MemoryPressure {
    fn default() -> Self {
        MemoryPressure::NONE
    }
}

/// Architectural and timing parameters of one simulated GPU.
///
/// Defaults ([`GpuConfig::gv100`]) encode Table 1's NVIDIA V100 settings:
/// 80 SMs, 128 B cache blocks, 6 MB L2, 2048 threads (64 warps) per SM,
/// 16 GB of global memory — augmented with the timing constants a
/// system-level simulator needs (latencies, DRAM bandwidth, launch
/// overheads), chosen to match public V100 microbenchmark numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessors per GPU (Table 1: 80).
    pub sms: usize,
    /// Threads per warp (Table 1: 32).
    pub warp_size: u32,
    /// Maximum resident threads per SM (Table 1: 2048 -> 64 warps).
    pub max_threads_per_sm: u32,
    /// Maximum threads per CTA (Table 1: 1024).
    pub max_threads_per_cta: u32,
    /// Maximum resident CTAs per SM (V100: 32).
    pub max_ctas_per_sm: u32,

    /// Per-SM L1 data cache capacity in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: Latency,

    /// L2 capacity in bytes (Table 1: 6 MB).
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: Latency,

    /// Device memory capacity (Table 1: 16 GB).
    pub dram_bytes: u64,
    /// Device memory bandwidth (V100 HBM2: ~900 GB/s).
    pub dram_bandwidth: Bandwidth,
    /// DRAM access latency beyond L2 (row access + return).
    pub dram_latency: Latency,

    /// Last-level TLB entries.
    pub tlb_entries: usize,
    /// Last-level TLB associativity.
    pub tlb_assoc: usize,
    /// Page-walk penalty applied on a last-level TLB miss.
    pub tlb_walk_latency: Latency,
    /// Service interval of the (shared) hardware page walker: successive
    /// walks on one GPU are at least this far apart. Finite walker
    /// throughput is what makes 4 KiB pages expensive (§7.4: "it
    /// significantly increases the pressure on all the TLBs in the GPU").
    pub tlb_walker_interval: Latency,

    /// Host-side kernel launch overhead.
    pub kernel_launch_overhead: Latency,
    /// Additional host-side synchronisation cost at each phase barrier.
    pub phase_sync_overhead: Latency,
}

impl GpuConfig {
    /// Table 1's GV100 configuration.
    pub fn gv100() -> Self {
        Self {
            sms: 80,
            warp_size: 32,
            max_threads_per_sm: 2048,
            max_threads_per_cta: 1024,
            max_ctas_per_sm: 32,
            l1_bytes: 32 * KIB,
            l1_assoc: 4,
            l1_latency: Latency::from_nanos(28),
            l2_bytes: 6 * MIB,
            l2_assoc: 16,
            l2_latency: Latency::from_nanos(190),
            dram_bytes: 16 * GIB,
            dram_bandwidth: Bandwidth::gb_per_sec(900.0),
            dram_latency: Latency::from_nanos(240),
            tlb_entries: 2048,
            tlb_assoc: 8,
            tlb_walk_latency: Latency::from_nanos(320),
            tlb_walker_interval: Latency::from_nanos(40),
            kernel_launch_overhead: Latency::from_micros(6),
            phase_sync_overhead: Latency::from_micros(10),
        }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Resident CTA slots per SM for a kernel whose CTAs hold
    /// `warps_per_cta` warps.
    pub fn cta_slots_per_sm(&self, warps_per_cta: u32) -> u32 {
        (self.max_warps_per_sm() / warps_per_cta.max(1)).clamp(1, self.max_ctas_per_sm)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] on zero-sized structures or impossible
    /// geometry.
    pub fn validate(&self) -> Result<()> {
        let reject = |reason: String| Err(GpsError::Config { reason });
        if self.sms == 0 {
            return reject("sms must be positive".into());
        }
        if self.warp_size == 0 || self.max_threads_per_sm < self.warp_size {
            return reject("SM must hold at least one warp".into());
        }
        if self.max_threads_per_cta > self.max_threads_per_sm {
            return reject("CTA cannot exceed SM thread capacity".into());
        }
        if self.l1_bytes == 0 || self.l2_bytes == 0 || self.dram_bytes == 0 {
            return reject("memory levels must be non-empty".into());
        }
        if self.tlb_entries == 0 || self.tlb_assoc == 0 {
            return reject("TLB must be non-empty".into());
        }
        if !(self.tlb_entries / self.tlb_assoc).is_power_of_two() {
            return reject(format!(
                "TLB sets ({}) must be a power of two",
                self.tlb_entries / self.tlb_assoc
            ));
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gv100()
    }
}

/// Full simulation configuration: the machine an [`Engine`] models.
///
/// [`Engine`]: crate::Engine
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of GPUs.
    pub gpu_count: usize,
    /// Per-GPU architecture.
    pub gpu: GpuConfig,
    /// Page size used by all address spaces in the run (64 KiB default).
    pub page_size: PageSize,
    /// Inter-GPU link arrangement (central switch by default, as in the
    /// paper's evaluated systems).
    pub topology: Topology,
    /// Memory-oversubscription pressure applied by the pressure-aware
    /// paradigms ([`MemoryPressure::NONE`] by default). A simulated-machine
    /// parameter: it participates in harness run keys.
    pub memory_pressure: MemoryPressure,
    /// Lane-shape selector: `0` (the default) runs the reference lane —
    /// one event lane owning every GPU, routing each access through the
    /// policy as it happens. Any value `N >= 1` runs one lane per GPU
    /// whenever the policy's [`LaneMode`](crate::LaneMode) admits it, and
    /// the reference lane otherwise. Per-GPU lanes drain on `N` host
    /// threads in total, the simulation thread included (`1` = on it
    /// alone; `N` is clamped to the lane count): each window splits the
    /// lanes into `N` contiguous chunks, one per thread. Per-GPU results
    /// are independent of `N`, so harness run keys normalise it to
    /// `min(parallel_workers, 1)`: they distinguish *which lane shape* ran
    /// (the epoch tiers are a different, still deterministic, model for
    /// writer-tracking and GPS paradigms) but never the thread count.
    pub parallel_workers: usize,
    /// Number of tenants (concurrently served applications) sharing this
    /// machine. `1` — the default — is the exclusive single-application
    /// machine and changes nothing. Values above `1` shrink each tenant's
    /// share of the contended resources: last-level TLB ways, fabric link
    /// bandwidth, RWQ entries and GPS-TLB ways (via
    /// [`GpsConfig::for_tenant_share`]), and — for the pressure-aware
    /// paradigms — per-GPU frame capacity. An integer (like
    /// [`MemoryPressure::oversubscription_pct`]) so the config stays `Eq`
    /// and its `Debug` rendering hashes exactly in harness run keys.
    ///
    /// [`GpsConfig::for_tenant_share`]: ../gps_core/struct.GpsConfig.html
    pub tenants: u32,
}

impl SimConfig {
    /// A `gpu_count`-GPU GV100 system with 64 KiB pages.
    pub fn gv100_system(gpu_count: usize) -> Self {
        Self {
            gpu_count,
            gpu: GpuConfig::gv100(),
            page_size: PageSize::Standard64K,
            topology: Topology::default(),
            memory_pressure: MemoryPressure::NONE,
            parallel_workers: 0,
            tenants: 1,
        }
    }

    /// The paper's second evaluation platform (Fig. 13): a 16-GPU GV100
    /// system on a single-hop NVSwitch fabric (the DGX-2 arrangement).
    pub fn paper_16gpu() -> Self {
        Self {
            topology: Topology::NvSwitch,
            ..Self::gv100_system(16)
        }
    }

    /// A 32-GPU GV100 system on a single-hop NVSwitch fabric — the scale-up
    /// extrapolation of the paper's DGX-2 platform (two drawers behind one
    /// switch plane).
    pub fn superpod_32() -> Self {
        Self {
            topology: Topology::NvSwitch,
            ..Self::gv100_system(32)
        }
    }

    /// A 64-GPU GV100 system on a PCIe host-bridge tree — the scale-out
    /// extrapolation: sixteen 4-GPU leaves under a root complex, the
    /// cheapest fabric that reaches this count.
    pub fn superpod_64() -> Self {
        Self {
            topology: Topology::PcieTree,
            ..Self::gv100_system(64)
        }
    }

    /// Sets the memory-oversubscription pressure.
    #[must_use]
    pub fn with_memory_pressure(mut self, pressure: MemoryPressure) -> Self {
        self.memory_pressure = pressure;
        self
    }

    /// Selects the lane shape: `0` = the reference lane, `N >= 1` = one
    /// lane per GPU, drained on `N` threads in total, where the policy's
    /// tier admits it.
    #[must_use]
    pub fn with_parallel_workers(mut self, workers: usize) -> Self {
        self.parallel_workers = workers;
        self
    }

    /// Sets the tenant count (concurrent applications sharing the machine).
    #[must_use]
    pub fn with_tenants(mut self, tenants: u32) -> Self {
        self.tenants = tenants;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] if `gpu_count` is zero or the GPU
    /// configuration is invalid.
    pub fn validate(&self) -> Result<()> {
        if self.gpu_count == 0 {
            return Err(GpsError::Config {
                reason: "gpu_count must be positive".into(),
            });
        }
        // GPU ids are 16-bit: a larger count would wrap when ids are built.
        if self.gpu_count > usize::from(u16::MAX) {
            return Err(GpsError::Config {
                reason: format!("gpu_count must be at most {}", u16::MAX),
            });
        }
        if self.memory_pressure.oversubscription_pct == 0 {
            return Err(GpsError::Config {
                reason: "oversubscription_pct must be positive".into(),
            });
        }
        if self.tenants == 0 {
            return Err(GpsError::Config {
                reason: "tenants must be positive".into(),
            });
        }
        self.gpu.validate()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::gv100_system(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gv100_matches_table1() {
        let g = GpuConfig::gv100();
        assert_eq!(g.sms, 80);
        assert_eq!(g.warp_size, 32);
        assert_eq!(g.max_threads_per_sm, 2048);
        assert_eq!(g.max_threads_per_cta, 1024);
        assert_eq!(g.l2_bytes, 6 * MIB);
        assert_eq!(g.dram_bytes, 16 * GIB);
        assert_eq!(g.max_warps_per_sm(), 64);
        g.validate().unwrap();
    }

    #[test]
    fn cta_slots_respect_both_limits() {
        let g = GpuConfig::gv100();
        // 64 warps / 2 warps-per-CTA = 32 slots (hits the CTA cap exactly).
        assert_eq!(g.cta_slots_per_sm(2), 32);
        // 64 / 1 = 64 would exceed the 32-CTA cap.
        assert_eq!(g.cta_slots_per_sm(1), 32);
        // 64 / 32 = 2 slots of full-size CTAs.
        assert_eq!(g.cta_slots_per_sm(32), 2);
        // Degenerate: zero-warp CTA treated as one warp.
        assert_eq!(g.cta_slots_per_sm(0), 32);
        // Oversized CTA still gets one slot.
        assert_eq!(g.cta_slots_per_sm(128), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut g = GpuConfig::gv100();
        g.sms = 0;
        assert!(g.validate().is_err());

        let mut g = GpuConfig::gv100();
        g.max_threads_per_cta = 4096;
        assert!(g.validate().is_err());

        let mut g = GpuConfig::gv100();
        g.tlb_entries = 24; // 3 sets at assoc 8
        assert!(g.validate().is_err());

        let mut s = SimConfig::gv100_system(4);
        s.gpu_count = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn default_system_is_4_gpus() {
        let s = SimConfig::default();
        assert_eq!(s.gpu_count, 4);
        assert_eq!(s.page_size, PageSize::Standard64K);
        assert_eq!(s.memory_pressure, MemoryPressure::NONE);
        s.validate().unwrap();
    }

    #[test]
    fn memory_pressure_ratio_roundtrips_and_gates_activity() {
        assert!(!MemoryPressure::NONE.is_active());
        assert!(!MemoryPressure::from_ratio(0.5).is_active());
        assert!(!MemoryPressure::from_ratio(1.0).is_active());
        let p = MemoryPressure::from_ratio(1.5);
        assert!(p.is_active());
        assert_eq!(p.oversubscription_pct, 150);
        assert!((p.ratio() - 1.5).abs() < 1e-12);
        assert_eq!(p.victim_policy, VictimPolicy::LruApprox);
        assert_eq!(
            p.with_victim_policy(VictimPolicy::Random).victim_policy,
            VictimPolicy::Random
        );
        let mut s = SimConfig::gv100_system(2);
        s.memory_pressure.oversubscription_pct = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn paper_16gpu_is_nvswitch_at_16() {
        let s = SimConfig::paper_16gpu();
        assert_eq!(s.gpu_count, 16);
        assert_eq!(s.topology, Topology::NvSwitch);
        assert_eq!(s.parallel_workers, 0);
        s.validate().unwrap();
    }

    #[test]
    fn parallel_workers_default_to_the_reference_lane() {
        let s = SimConfig::gv100_system(4);
        assert_eq!(s.parallel_workers, 0);
        assert_eq!(s.with_parallel_workers(3).parallel_workers, 3);
    }

    #[test]
    fn tenants_default_to_one_and_zero_is_rejected() {
        let s = SimConfig::gv100_system(4);
        assert_eq!(s.tenants, 1);
        s.validate().unwrap();
        let shared = s.with_tenants(3);
        assert_eq!(shared.tenants, 3);
        shared.validate().unwrap();
        assert!(s.with_tenants(0).validate().is_err());
    }

    #[test]
    fn gpu_counts_beyond_16_bit_ids_are_rejected() {
        SimConfig::gv100_system(usize::from(u16::MAX))
            .validate()
            .unwrap();
        for count in [usize::from(u16::MAX) + 1, usize::from(u16::MAX) + 2] {
            match SimConfig::gv100_system(count).validate() {
                Err(GpsError::Config { reason }) => assert!(reason.contains("at most 65535")),
                other => panic!("{count} GPUs must be rejected, got {other:?}"),
            }
        }
    }
}
