//! Workload description: allocations, phases and kernel launches.

use std::fmt;
use std::sync::Arc;

use gps_mem::{PageMap, VaRange, VaSpace};
use gps_types::{GpsError, GpuId, LineAddr, PageSize, Result, Vpn};

use crate::instr::WarpProgram;

/// One memory allocation of a workload.
#[derive(Debug, Clone)]
pub struct AllocSpec {
    /// Human-readable name ("matrix", "halo_east", ...).
    pub name: String,
    /// The virtual range backing the allocation.
    pub range: VaRange,
    /// Whether the allocation holds *shared* data (accessed by more than
    /// one GPU). Shared allocations are the ones `cudaMallocGPS` would
    /// cover; private per-GPU scratch stays conventional.
    pub shared: bool,
}

/// One kernel launch.
#[derive(Clone)]
pub struct KernelSpec {
    /// Kernel name for reports.
    pub name: String,
    /// The GPU the grid runs on.
    pub gpu: GpuId,
    /// CTAs in the grid.
    pub cta_count: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Per-warp trace generator.
    pub program: Arc<dyn WarpProgram>,
}

impl fmt::Debug for KernelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelSpec")
            .field("name", &self.name)
            .field("gpu", &self.gpu)
            .field("cta_count", &self.cta_count)
            .field("warps_per_cta", &self.warps_per_cta)
            .field("program", &self.program.label())
            .finish()
    }
}

impl KernelSpec {
    /// Total warps in the grid.
    pub fn total_warps(&self) -> u64 {
        self.cta_count as u64 * self.warps_per_cta as u64
    }
}

/// A bulk-synchronous phase: kernels that run concurrently across GPUs
/// (kernels listed for the same GPU run back-to-back in order), terminated
/// by a global barrier.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// The launches of the phase.
    pub launches: Vec<KernelSpec>,
}

impl Phase {
    /// Creates a phase from its launches.
    pub fn new(launches: Vec<KernelSpec>) -> Self {
        Self { launches }
    }

    /// The launches destined for `gpu`, in order.
    pub fn launches_for(&self, gpu: GpuId) -> impl Iterator<Item = &KernelSpec> + '_ {
        self.launches.iter().filter(move |k| k.gpu == gpu)
    }
}

/// A complete multi-GPU workload: what an application's NVBit trace plus
/// allocation log would contain.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Application name (Table 2 row).
    pub name: String,
    /// Page size of the shared address space.
    pub page_size: PageSize,
    /// All allocations.
    pub allocs: Vec<AllocSpec>,
    /// The bulk-synchronous phases, in execution order.
    pub phases: Vec<Phase>,
    /// Phases per application iteration; iterative policies use
    /// `phase_idx % phases_per_iteration` to recognise repeats.
    pub phases_per_iteration: usize,
    /// GPU count the workload was partitioned for.
    pub gpu_count: usize,
}

impl Workload {
    /// The shared allocations.
    pub fn shared_allocs(&self) -> impl Iterator<Item = &AllocSpec> + '_ {
        self.allocs.iter().filter(|a| a.shared)
    }

    /// Total bytes of shared data.
    pub fn shared_bytes(&self) -> u64 {
        self.shared_allocs().map(|a| a.range.bytes()).sum()
    }

    /// Total warps across all phases (a proxy for trace size).
    pub fn total_warps(&self) -> u64 {
        self.phases
            .iter()
            .flat_map(|p| p.launches.iter())
            .map(KernelSpec::total_warps)
            .sum()
    }

    /// Builds a line/page classifier over this workload's allocations.
    ///
    /// # Panics
    ///
    /// If an allocation's pages are not the workload's pages; every range
    /// [`WorkloadBuilder`] allocates comes from one [`VaSpace`] of the
    /// workload's page size.
    pub fn index(&self) -> SharedIndex {
        SharedIndex::new(self)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Config`] if a launch targets a GPU outside
    /// `gpu_count`, a grid is empty, or `phases_per_iteration` does not
    /// divide the phase count.
    pub fn validate(&self) -> Result<()> {
        for phase in &self.phases {
            for k in &phase.launches {
                if k.gpu.index() >= self.gpu_count {
                    return Err(GpsError::Config {
                        reason: format!(
                            "kernel {} targets {} in a {}-GPU workload",
                            k.name, k.gpu, self.gpu_count
                        ),
                    });
                }
                if k.cta_count == 0 || k.warps_per_cta == 0 {
                    return Err(GpsError::Config {
                        reason: format!("kernel {} has an empty grid", k.name),
                    });
                }
            }
        }
        if self.phases_per_iteration == 0
            || !self.phases.len().is_multiple_of(self.phases_per_iteration)
        {
            return Err(GpsError::Config {
                reason: format!(
                    "{} phases is not a multiple of {} phases per iteration",
                    self.phases.len(),
                    self.phases_per_iteration
                ),
            });
        }
        Ok(())
    }
}

/// A page-indexed table classifying lines and pages as shared or private.
///
/// Memory policies build one in `init` and consult it on every access.
/// Allocations are page-aligned, so every line of a page belongs to the
/// same allocation and one entry per page answers for all of them. Clones
/// share the table.
#[derive(Debug, Clone)]
pub struct SharedIndex {
    /// `(allocation index, shared)` of every allocated page.
    pages: Arc<PageMap<(u32, bool)>>,
    page_size: PageSize,
}

impl SharedIndex {
    fn new(workload: &Workload) -> Self {
        let page_size = workload.page_size;
        let mut pages = PageMap::new();
        for (i, a) in (0u32..).zip(&workload.allocs) {
            assert_eq!(
                a.range.page_size(),
                page_size,
                "allocation {} does not use the workload's page size",
                a.name
            );
            for vpn in a.range.vpns() {
                pages.insert(vpn, (i, a.shared));
            }
        }
        Self {
            pages: Arc::new(pages),
            page_size,
        }
    }

    /// Whether `line` belongs to a shared allocation.
    pub fn is_shared(&self, line: LineAddr) -> bool {
        self.is_shared_page(line.vpn(self.page_size))
    }

    /// The allocation index containing `line`, if any.
    pub fn alloc_of(&self, line: LineAddr) -> Option<usize> {
        let &(alloc, _) = self.pages.get(line.vpn(self.page_size))?;
        Some(alloc as usize)
    }

    /// Whether the page `vpn` belongs to a shared allocation.
    pub fn is_shared_page(&self, vpn: Vpn) -> bool {
        self.pages.get(vpn).is_some_and(|&(_, shared)| shared)
    }

    /// The page size the index classifies at.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }
}

/// Incrementally constructs a [`Workload`].
///
/// ```
/// use std::sync::Arc;
/// use gps_sim::{WorkloadBuilder, WarpInstr, WarpCtx, KernelSpec};
/// use gps_types::{GpuId, PageSize};
///
/// let mut b = WorkloadBuilder::new("demo", PageSize::Standard64K, 2);
/// let data = b.alloc_shared("data", 1 << 20)?;
/// let first = data.base().line();
/// b.phase(vec![KernelSpec {
///     name: "touch".into(),
///     gpu: GpuId::new(0),
///     cta_count: 1,
///     warps_per_cta: 1,
///     program: Arc::new(move |_ctx: WarpCtx| vec![WarpInstr::load1(first)]),
/// }]);
/// let wl = b.build(1)?;
/// assert_eq!(wl.phases.len(), 1);
/// # Ok::<(), gps_types::GpsError>(())
/// ```
#[derive(Debug)]
pub struct WorkloadBuilder {
    name: String,
    space: VaSpace,
    gpu_count: usize,
    allocs: Vec<AllocSpec>,
    phases: Vec<Phase>,
}

impl WorkloadBuilder {
    /// Starts a workload named `name` for `gpu_count` GPUs with the given
    /// page size.
    pub fn new(name: impl Into<String>, page_size: PageSize, gpu_count: usize) -> Self {
        Self {
            name: name.into(),
            space: VaSpace::new(page_size),
            gpu_count,
            allocs: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Allocates `bytes` of shared (multi-GPU) data.
    ///
    /// # Errors
    ///
    /// Propagates address-space exhaustion / invalid-size errors.
    pub fn alloc_shared(&mut self, name: impl Into<String>, bytes: u64) -> Result<VaRange> {
        let range = self.space.allocate(bytes)?;
        self.allocs.push(AllocSpec {
            name: name.into(),
            range,
            shared: true,
        });
        Ok(range)
    }

    /// Allocates `bytes` of private (single-GPU) data.
    ///
    /// # Errors
    ///
    /// Propagates address-space exhaustion / invalid-size errors.
    pub fn alloc_private(&mut self, name: impl Into<String>, bytes: u64) -> Result<VaRange> {
        let range = self.space.allocate(bytes)?;
        self.allocs.push(AllocSpec {
            name: name.into(),
            range,
            shared: false,
        });
        Ok(range)
    }

    /// Appends a phase.
    pub fn phase(&mut self, launches: Vec<KernelSpec>) -> &mut Self {
        self.phases.push(Phase::new(launches));
        self
    }

    /// Finalises the workload, declaring `phases_per_iteration`.
    ///
    /// # Errors
    ///
    /// Propagates [`Workload::validate`] failures.
    pub fn build(self, phases_per_iteration: usize) -> Result<Workload> {
        let wl = Workload {
            name: self.name,
            page_size: self.space.page_size(),
            allocs: self.allocs,
            phases: self.phases,
            phases_per_iteration,
            gpu_count: self.gpu_count,
        };
        wl.validate()?;
        Ok(wl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{WarpCtx, WarpInstr};

    fn nop_kernel(gpu: u16) -> KernelSpec {
        KernelSpec {
            name: format!("nop{gpu}"),
            gpu: GpuId::new(gpu),
            cta_count: 1,
            warps_per_cta: 1,
            program: Arc::new(|_: WarpCtx| vec![WarpInstr::Compute(1)]),
        }
    }

    fn demo() -> WorkloadBuilder {
        WorkloadBuilder::new("demo", PageSize::Standard64K, 2)
    }

    #[test]
    fn builder_accumulates_allocs_and_phases() {
        let mut b = demo();
        b.alloc_shared("a", 1).unwrap();
        b.alloc_private("b", 1).unwrap();
        b.phase(vec![nop_kernel(0), nop_kernel(1)]);
        b.phase(vec![nop_kernel(0)]);
        let wl = b.build(2).unwrap();
        assert_eq!(wl.allocs.len(), 2);
        assert_eq!(wl.phases.len(), 2);
        assert_eq!(wl.shared_bytes(), 65536);
        assert_eq!(wl.total_warps(), 3);
    }

    #[test]
    fn validate_rejects_bad_gpu() {
        let mut b = demo();
        b.phase(vec![nop_kernel(5)]);
        assert!(matches!(b.build(1), Err(GpsError::Config { .. })));
    }

    #[test]
    fn validate_rejects_empty_grid() {
        let mut b = demo();
        let mut k = nop_kernel(0);
        k.cta_count = 0;
        b.phase(vec![k]);
        assert!(b.build(1).is_err());
    }

    #[test]
    fn validate_rejects_nondivisible_iteration_length() {
        let mut b = demo();
        b.phase(vec![nop_kernel(0)]);
        b.phase(vec![nop_kernel(0)]);
        b.phase(vec![nop_kernel(0)]);
        assert!(b.build(2).is_err());
    }

    #[test]
    fn shared_index_classifies_lines_and_pages() {
        let mut b = demo();
        let shared = b.alloc_shared("s", 65536).unwrap();
        let private = b.alloc_private("p", 65536).unwrap();
        b.phase(vec![nop_kernel(0)]);
        let wl = b.build(1).unwrap();
        let idx = wl.index();
        assert!(idx.is_shared(shared.base().line()));
        assert!(!idx.is_shared(private.base().line()));
        assert_eq!(idx.alloc_of(shared.line_at(511)), Some(0));
        assert_eq!(idx.alloc_of(private.base().line()), Some(1));
        assert_eq!(idx.alloc_of(private.line_at(511).next()), None);
        assert!(idx.is_shared_page(shared.base().vpn(PageSize::Standard64K)));
        assert!(!idx.is_shared_page(private.base().vpn(PageSize::Standard64K)));
    }

    #[test]
    fn launches_for_filters_by_gpu() {
        let phase = Phase::new(vec![nop_kernel(0), nop_kernel(1), nop_kernel(0)]);
        assert_eq!(phase.launches_for(GpuId::new(0)).count(), 2);
        assert_eq!(phase.launches_for(GpuId::new(1)).count(), 1);
    }

    #[test]
    fn kernel_debug_shows_label_not_pointer() {
        let k = nop_kernel(0);
        let dbg = format!("{k:?}");
        assert!(dbg.contains("nop0"));
    }
}
