//! Static workload characterisation.
//!
//! Walks a workload's expanded warp streams (no simulation) and reports
//! the access-mix statistics that determine paradigm behaviour: footprints,
//! read/write/atomic volumes, the fraction of pages shared between GPUs and
//! with whom. The suite tests use these to pin each application to its
//! Table 2 communication pattern, and `figures table2` readers can inspect
//! them to understand the generators.

use std::collections::{BTreeMap, BTreeSet};

use gps_sim::{WarpCtx, WarpInstr, Workload};
use gps_types::{GpuId, Vpn};

/// Aggregate statistics of one workload's first iteration.
#[derive(Debug, Clone, Default)]
pub struct Characterization {
    /// Warp instructions per phase class (averaged over one iteration).
    pub instructions: u64,
    /// Cache lines loaded (line-accesses, counting repeats).
    pub lines_loaded: u64,
    /// Cache lines stored.
    pub lines_stored: u64,
    /// Atomic operations.
    pub atomics: u64,
    /// Arithmetic cycles issued.
    pub compute_cycles: u64,
    /// Pages of shared allocations touched by exactly one GPU.
    pub private_use_pages: u64,
    /// Pages of shared allocations touched by more than one GPU, keyed by
    /// subscriber count.
    pub shared_pages_by_degree: BTreeMap<usize, u64>,
}

impl Characterization {
    /// Fraction of write operations that are atomics.
    pub fn atomic_write_fraction(&self) -> f64 {
        let writes = self.lines_stored + self.atomics;
        if writes == 0 {
            0.0
        } else {
            self.atomics as f64 / writes as f64
        }
    }

    /// Arithmetic cycles per line accessed — the compute intensity that
    /// decides whether an app is interconnect- or compute-bound.
    pub fn compute_per_line(&self) -> f64 {
        let lines = self.lines_loaded + self.lines_stored + self.atomics;
        if lines == 0 {
            0.0
        } else {
            self.compute_cycles as f64 / lines as f64
        }
    }

    /// The dominant sharing degree among multi-GPU pages (2..=N), if any.
    pub fn dominant_degree(&self) -> Option<usize> {
        self.shared_pages_by_degree
            .iter()
            .max_by_key(|(_, &count)| count)
            .map(|(&deg, _)| deg)
    }
}

/// Characterises the *first iteration* of `workload` by walking every
/// warp's instruction stream.
///
/// ```
/// use gps_workloads::{characterize, jacobi, ScaleProfile};
///
/// let wl = jacobi::build(4, ScaleProfile::Tiny);
/// let c = characterize(&wl);
/// assert_eq!(c.atomics, 0, "stencils use plain stores");
/// assert_eq!(c.dominant_degree(), Some(2), "halo pages have 2 sharers");
/// ```
pub fn characterize(workload: &Workload) -> Characterization {
    let mut out = Characterization::default();
    let index = workload.index();
    let mut touchers: BTreeMap<Vpn, BTreeSet<GpuId>> = BTreeMap::new();

    let phases = workload
        .phases
        .iter()
        .take(workload.phases_per_iteration.max(1));
    for phase in phases {
        for k in &phase.launches {
            for cta in 0..k.cta_count {
                for warp in 0..k.warps_per_cta {
                    let ctx = WarpCtx {
                        gpu: k.gpu,
                        gpu_count: workload.gpu_count as u32,
                        cta: gps_types::CtaId::new(cta),
                        cta_count: k.cta_count,
                        warp_in_cta: warp,
                        warps_per_cta: k.warps_per_cta,
                    };
                    for instr in k.program.warp_instrs(ctx) {
                        out.instructions += 1;
                        match instr {
                            WarpInstr::Compute(c) => out.compute_cycles += c as u64,
                            WarpInstr::Load(r) => {
                                out.lines_loaded += r.len() as u64;
                                for line in r {
                                    if index.is_shared(line) {
                                        touchers
                                            .entry(line.vpn(workload.page_size))
                                            .or_default()
                                            .insert(k.gpu);
                                    }
                                }
                            }
                            WarpInstr::Store(r, _) => {
                                out.lines_stored += r.len() as u64;
                                for line in r {
                                    if index.is_shared(line) {
                                        touchers
                                            .entry(line.vpn(workload.page_size))
                                            .or_default()
                                            .insert(k.gpu);
                                    }
                                }
                            }
                            WarpInstr::Atomic(line) => {
                                out.atomics += 1;
                                if index.is_shared(line) {
                                    touchers
                                        .entry(line.vpn(workload.page_size))
                                        .or_default()
                                        .insert(k.gpu);
                                }
                            }
                            WarpInstr::Fence(_) => {}
                        }
                    }
                }
            }
        }
    }

    for set in touchers.values() {
        if set.len() <= 1 {
            out.private_use_pages += 1;
        } else {
            *out.shared_pages_by_degree.entry(set.len()).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ScaleProfile;
    use crate::suite;

    fn ch(name: &str, gpus: usize) -> Characterization {
        let app = suite::by_name(name).unwrap();
        characterize(&(app.build)(gpus, ScaleProfile::Tiny))
    }

    #[test]
    fn graph_apps_write_through_atomics() {
        for name in ["pagerank", "sssp", "als"] {
            let c = ch(name, 4);
            assert!(
                c.atomic_write_fraction() > 0.95,
                "{name}: writes should be atomics, got {}",
                c.atomic_write_fraction()
            );
        }
    }

    #[test]
    fn stencils_write_through_plain_stores() {
        for name in ["jacobi", "diffusion", "eqwp", "hit", "ct"] {
            let c = ch(name, 4);
            assert_eq!(c.atomics, 0, "{name}: stencils issue no atomics");
            assert!(c.lines_stored > 0);
        }
    }

    #[test]
    fn sharing_degrees_match_table2() {
        assert_eq!(ch("jacobi", 4).dominant_degree(), Some(2), "p2p halos");
        assert_eq!(ch("als", 4).dominant_degree(), Some(4), "all-to-all");
        assert_eq!(ch("ct", 4).dominant_degree(), Some(4), "all-to-all");
        let sssp = ch("sssp", 4);
        assert!(
            sssp.shared_pages_by_degree.len() >= 2,
            "many-to-many should mix degrees: {:?}",
            sssp.shared_pages_by_degree
        );
    }

    #[test]
    fn ct_is_the_most_compute_intense() {
        let ct = ch("ct", 4).compute_per_line();
        for name in ["jacobi", "pagerank", "sssp"] {
            assert!(
                ct > ch(name, 4).compute_per_line(),
                "CT should out-compute {name}"
            );
        }
    }

    #[test]
    fn single_gpu_builds_share_nothing() {
        for app in suite::all() {
            let c = characterize(&(app.build)(1, ScaleProfile::Tiny));
            assert!(
                c.shared_pages_by_degree.is_empty(),
                "{}: one GPU cannot share",
                app.name
            );
            assert!(c.instructions > 0);
        }
    }

    #[test]
    fn strong_scaling_keeps_total_volume_roughly_constant() {
        for app in suite::all() {
            let c1 = characterize(&(app.build)(1, ScaleProfile::Tiny));
            let c4 = characterize(&(app.build)(4, ScaleProfile::Tiny));
            let lines = |c: &Characterization| (c.lines_loaded + c.lines_stored + c.atomics) as f64;
            let (v1, v4) = (lines(&c1), lines(&c4));
            // Partitioned work plus halo duplication: within 50 %.
            assert!(
                v4 > v1 * 0.8 && v4 < v1 * 1.5,
                "{}: 1-GPU {v1} vs 4-GPU {v4}",
                app.name
            );
        }
    }
}
