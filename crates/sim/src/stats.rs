//! Simulation results.

use gps_interconnect::TrafficCounters;
use gps_types::Cycle;

/// Plain-data TLB hit/miss counters (mirrors `gps_mem::TlbStats` as a
/// copyable report value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbCounts {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page walks).
    pub misses: u64,
}

impl TlbCounts {
    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        rate(self.hits, self.misses)
    }
}

/// Per-GPU statistics of one simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpuReport {
    /// Aggregate L1 hits/misses across the GPU's SMs.
    pub l1_hits: u64,
    /// Aggregate L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L2 dirty write-backs.
    pub l2_writebacks: u64,
    /// Last-level TLB counters.
    pub tlb: TlbCounts,
    /// Total SM issue-port busy cycles (sum over the GPU's SMs).
    pub sm_busy_cycles: u64,
    /// Bytes read from local DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to local DRAM.
    pub dram_write_bytes: u64,
    /// Warp instructions executed on this GPU.
    pub instructions: u64,
    /// Warps completed on this GPU.
    pub warps: u64,
    /// Kernels completed on this GPU.
    pub kernels: u64,
}

impl GpuReport {
    /// L2 hit rate in `[0, 1]`.
    pub fn l2_hit_rate(&self) -> f64 {
        rate(self.l2_hits, self.l2_misses)
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// The result of one simulation run.
///
/// `PartialEq` compares every field (f64 metrics by IEEE equality), which
/// is what the trace round-trip and determinism tests rely on: two runs of
/// the same deterministic simulation must produce *bit-identical* reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Workload name.
    pub workload: String,
    /// Memory paradigm name.
    pub policy: String,
    /// GPUs simulated.
    pub gpu_count: usize,
    /// Interconnect label.
    pub link: String,
    /// End-to-end execution time.
    pub total_cycles: Cycle,
    /// Completion time of each phase barrier.
    pub phase_ends: Vec<Cycle>,
    /// Cumulative interconnect bytes at each phase barrier.
    pub phase_traffic: Vec<u64>,
    /// Total bytes moved over the inter-GPU fabric.
    pub interconnect_bytes: u64,
    /// Discrete fabric transfers.
    pub interconnect_transfers: u64,
    /// Per-GPU statistics.
    pub per_gpu: Vec<GpuReport>,
    /// Paradigm-specific metrics (e.g. GPS write-queue hit rate).
    pub policy_metrics: Vec<(String, f64)>,
}

impl SimReport {
    /// Total warp instructions across GPUs.
    pub fn instructions(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.instructions).sum()
    }

    /// Total kernels launched.
    pub fn kernels(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.kernels).sum()
    }

    /// Mean L2 hit rate across GPUs that performed L2 accesses.
    pub fn mean_l2_hit_rate(&self) -> f64 {
        let active: Vec<f64> = self
            .per_gpu
            .iter()
            .filter(|g| g.l2_hits + g.l2_misses > 0)
            .map(GpuReport::l2_hit_rate)
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Speedup of this run relative to `baseline` (wall-clock ratio).
    ///
    /// # Panics
    ///
    /// Panics if this run took zero cycles.
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        assert!(self.total_cycles.as_u64() > 0, "degenerate run");
        baseline.total_cycles.as_u64() as f64 / self.total_cycles.as_u64() as f64
    }

    /// Value of a policy metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.policy_metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Captures fabric counters into the report.
    pub(crate) fn absorb_traffic(&mut self, counters: &TrafficCounters) {
        self.interconnect_bytes = counters.total_bytes();
        self.interconnect_transfers = counters.transfer_count();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cycles: u64) -> SimReport {
        SimReport {
            workload: "w".into(),
            policy: "p".into(),
            gpu_count: 1,
            link: "pcie3".into(),
            total_cycles: Cycle::new(cycles),
            phase_ends: vec![],
            phase_traffic: vec![],
            interconnect_bytes: 0,
            interconnect_transfers: 0,
            per_gpu: vec![GpuReport::default()],
            policy_metrics: vec![("rwq_hit_rate".into(), 0.25)],
        }
    }

    #[test]
    fn speedup_is_baseline_over_self() {
        let fast = report(100);
        let slow = report(400);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn metric_lookup() {
        let r = report(1);
        assert_eq!(r.metric("rwq_hit_rate"), Some(0.25));
        assert_eq!(r.metric("absent"), None);
    }

    #[test]
    fn hit_rates_handle_empty_counters() {
        let g = GpuReport::default();
        assert_eq!(g.l2_hit_rate(), 0.0);
        let r = report(1);
        assert_eq!(r.mean_l2_hit_rate(), 0.0);
    }

    #[test]
    fn mean_l2_ignores_idle_gpus() {
        let mut r = report(1);
        r.per_gpu = vec![
            GpuReport {
                l2_hits: 3,
                l2_misses: 1,
                ..Default::default()
            },
            GpuReport::default(),
        ];
        assert!((r.mean_l2_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn debug_rendering_includes_policy_metrics() {
        let r = report(42);
        assert!(format!("{r:?}").contains("rwq_hit_rate"));
    }
}
