//! Warp-level instructions, the programs that generate them, and the
//! pooled stream each running warp issues from.

use std::fmt;
use std::sync::Arc;

use gps_types::{CtaId, GpuId, LineAddr, LineRange, Scope};

use crate::pipeline::BufferArena;

/// One warp-level instruction, *after* the SM memory coalescer.
///
/// The paper drives NVAS with SASS-level traces; the timing-relevant
/// residue of a SASS stream at system level is (a) how many cycles of
/// arithmetic separate memory operations and (b) which cache lines each
/// coalesced warp access touches. `WarpInstr` encodes exactly that. A fully
/// coalesced 32-lane x 4 B access is a single 128 B line
/// (`LineRange::single`); strided accesses cover multiple lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpInstr {
    /// `cycles` of arithmetic dependent on prior results. Occupies the SM
    /// issue pipeline for the duration; other resident warps hide it.
    Compute(u32),
    /// A coalesced load. The warp stalls until every line has returned
    /// (lines within the range overlap — memory-level parallelism of an
    /// unrolled load batch).
    Load(LineRange),
    /// A coalesced store at the given scope. Fire-and-forget: the warp does
    /// not stall (§2.1: "peer-to-peer stores typically do not stall GPU
    /// thread execution").
    Store(LineRange, Scope),
    /// A read-modify-write on one line. Follows the store path through GPS
    /// (§5.1) but is never coalesced by the remote write queue.
    Atomic(LineAddr),
    /// A memory fence at the given scope. `sys` fences drain the GPS remote
    /// write queue (§5.2).
    Fence(Scope),
}

impl WarpInstr {
    /// A weak store covering one line.
    pub fn store1(line: LineAddr) -> Self {
        WarpInstr::Store(LineRange::single(line), Scope::Weak)
    }

    /// A load covering one line.
    pub fn load1(line: LineAddr) -> Self {
        WarpInstr::Load(LineRange::single(line))
    }

    /// Number of cache lines this instruction touches.
    pub fn lines_touched(&self) -> u32 {
        match self {
            WarpInstr::Compute(_) | WarpInstr::Fence(_) => 0,
            WarpInstr::Load(r) | WarpInstr::Store(r, _) => r.len(),
            WarpInstr::Atomic(_) => 1,
        }
    }
}

impl fmt::Display for WarpInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarpInstr::Compute(c) => write!(f, "compute({c})"),
            WarpInstr::Load(r) => write!(f, "load {r}"),
            WarpInstr::Store(r, s) => write!(f, "store.{s} {r}"),
            WarpInstr::Atomic(l) => write!(f, "atomic {l}"),
            WarpInstr::Fence(s) => write!(f, "fence.{s}"),
        }
    }
}

/// The coordinates handed to a [`WarpProgram`] when a warp's trace is
/// generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpCtx {
    /// The GPU running the kernel.
    pub gpu: GpuId,
    /// Number of GPUs participating in the workload.
    pub gpu_count: u32,
    /// The CTA within the grid.
    pub cta: CtaId,
    /// Total CTAs in the grid.
    pub cta_count: u32,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
}

impl WarpCtx {
    /// Grid-global warp index.
    pub fn global_warp(&self) -> u32 {
        self.cta.raw() * self.warps_per_cta + self.warp_in_cta
    }

    /// Total warps in the grid.
    pub fn total_warps(&self) -> u32 {
        self.cta_count * self.warps_per_cta
    }
}

/// The instructions of one warp and the index of the next to issue — the
/// engine's unit of instruction supply.
///
/// The buffer is taken from the lane's [`BufferArena`] when the warp spawns
/// and returned to it via [`WarpStream::recycle`] when the warp retires,
/// so steady-state simulation allocates nothing per warp.
#[derive(Debug, Default)]
pub(crate) struct WarpStream {
    buf: Vec<WarpInstr>,
    pos: usize,
}

impl WarpStream {
    /// Wraps a materialised instruction buffer.
    pub(crate) fn new(buf: Vec<WarpInstr>) -> Self {
        WarpStream { buf, pos: 0 }
    }

    /// True once every instruction has been yielded.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Gives an empty stream a single trivial `Compute(0)` so every
    /// launched warp executes at least one instruction (the engine's
    /// longstanding convention for degenerate warps).
    pub(crate) fn ensure_nonempty(&mut self) {
        if self.buf.is_empty() {
            self.buf.push(WarpInstr::Compute(0));
        }
    }

    /// Consumes the stream, returning its buffer to `arena` for reuse.
    pub(crate) fn recycle(self, arena: &mut BufferArena) {
        arena.put(self.buf);
    }
}

/// Yields the warp's instructions in issue order; `None` when exhausted.
impl Iterator for WarpStream {
    type Item = WarpInstr;

    fn next(&mut self) -> Option<WarpInstr> {
        let instr = self.buf.get(self.pos).copied()?;
        self.pos += 1;
        Some(instr)
    }
}

/// Generates the instruction trace of each warp of a kernel.
///
/// Implementations must be deterministic in `ctx` — the simulator may
/// regenerate a warp's trace and two simulations of the same workload must
/// agree cycle-for-cycle. Workload generators seed any pseudo-randomness
/// from the warp coordinates.
///
/// Only [`warp_instrs`](WarpProgram::warp_instrs) is required. Programs on
/// the hot path can additionally override
/// [`fill_warp`](WarpProgram::fill_warp) to write into the engine's pooled
/// buffer directly, with no per-warp allocation (see [`FillProgram`]).
pub trait WarpProgram: Send + Sync {
    /// Produces the full instruction list for the warp at `ctx`.
    fn warp_instrs(&self, ctx: WarpCtx) -> Vec<WarpInstr>;

    /// Writes the warp's instructions into `out` (cleared first). The
    /// default delegates to [`warp_instrs`](WarpProgram::warp_instrs) and
    /// copies, preserving `out`'s capacity so pooled buffers stay warm;
    /// fill-style implementations override this to skip the intermediate
    /// vector entirely.
    fn fill_warp(&self, ctx: WarpCtx, out: &mut Vec<WarpInstr>) {
        out.clear();
        out.extend_from_slice(&self.warp_instrs(ctx));
    }

    /// Short label for debugging and reports.
    fn label(&self) -> &str {
        "kernel"
    }
}

impl<F> WarpProgram for F
where
    F: Fn(WarpCtx) -> Vec<WarpInstr> + Send + Sync,
{
    fn warp_instrs(&self, ctx: WarpCtx) -> Vec<WarpInstr> {
        self(ctx)
    }
}

impl WarpProgram for Arc<dyn WarpProgram> {
    fn warp_instrs(&self, ctx: WarpCtx) -> Vec<WarpInstr> {
        (**self).warp_instrs(ctx)
    }

    fn fill_warp(&self, ctx: WarpCtx, out: &mut Vec<WarpInstr>) {
        (**self).fill_warp(ctx, out)
    }

    fn label(&self) -> &str {
        (**self).label()
    }
}

/// A [`WarpProgram`] built from a fill-style closure
/// `Fn(WarpCtx, &mut Vec<WarpInstr>)`.
///
/// Fill-style generators append into a caller-supplied buffer instead of
/// returning a fresh `Vec`, which lets the engine's pooled instruction
/// buffers recycle one allocation across every warp a program ever
/// launches. The workload generators in `gps-workloads` are all expressed
/// this way.
pub struct FillProgram<F> {
    fill: F,
    label: &'static str,
}

impl<F> FillProgram<F>
where
    F: Fn(WarpCtx, &mut Vec<WarpInstr>) + Send + Sync,
{
    /// Wraps `fill` with the default `"kernel"` label.
    pub fn new(fill: F) -> Self {
        Self {
            fill,
            label: "kernel",
        }
    }

    /// Wraps `fill` with a custom label.
    pub fn with_label(fill: F, label: &'static str) -> Self {
        Self { fill, label }
    }
}

impl<F> WarpProgram for FillProgram<F>
where
    F: Fn(WarpCtx, &mut Vec<WarpInstr>) + Send + Sync,
{
    fn warp_instrs(&self, ctx: WarpCtx) -> Vec<WarpInstr> {
        let mut out = Vec::new();
        (self.fill)(ctx, &mut out);
        out
    }

    fn fill_warp(&self, ctx: WarpCtx, out: &mut Vec<WarpInstr>) {
        out.clear();
        (self.fill)(ctx, out);
    }

    fn label(&self) -> &str {
        self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::expand_cta;

    #[test]
    fn lines_touched() {
        assert_eq!(WarpInstr::Compute(5).lines_touched(), 0);
        assert_eq!(WarpInstr::load1(LineAddr::new(0)).lines_touched(), 1);
        assert_eq!(
            WarpInstr::Store(LineRange::contiguous(LineAddr::new(0), 4), Scope::Weak)
                .lines_touched(),
            4
        );
        assert_eq!(WarpInstr::Atomic(LineAddr::new(9)).lines_touched(), 1);
        assert_eq!(WarpInstr::Fence(Scope::Sys).lines_touched(), 0);
    }

    #[test]
    fn warp_ctx_indexing() {
        let ctx = WarpCtx {
            gpu: GpuId::new(0),
            gpu_count: 4,
            cta: CtaId::new(3),
            cta_count: 10,
            warp_in_cta: 2,
            warps_per_cta: 8,
        };
        assert_eq!(ctx.global_warp(), 26);
        assert_eq!(ctx.total_warps(), 80);
    }

    #[test]
    fn closures_are_programs() {
        let prog = |_ctx: WarpCtx| vec![WarpInstr::Compute(1)];
        let ctx = WarpCtx {
            gpu: GpuId::new(0),
            gpu_count: 1,
            cta: CtaId::new(0),
            cta_count: 1,
            warp_in_cta: 0,
            warps_per_cta: 1,
        };
        assert_eq!(prog.warp_instrs(ctx), vec![WarpInstr::Compute(1)]);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(WarpInstr::Compute(3).to_string(), "compute(3)");
        assert_eq!(WarpInstr::Fence(Scope::Sys).to_string(), "fence.sys");
    }

    fn ctx0() -> WarpCtx {
        WarpCtx {
            gpu: GpuId::new(0),
            gpu_count: 1,
            cta: CtaId::new(0),
            cta_count: 1,
            warp_in_cta: 0,
            warps_per_cta: 1,
        }
    }

    #[test]
    fn stream_yields_in_order_and_exhausts() {
        let mut s = WarpStream::new(vec![WarpInstr::Compute(1), WarpInstr::Compute(2)]);
        assert!(!s.is_exhausted());
        assert_eq!(s.next(), Some(WarpInstr::Compute(1)));
        assert_eq!(s.next(), Some(WarpInstr::Compute(2)));
        assert!(s.is_exhausted());
        assert_eq!(s.next(), None);
    }

    #[test]
    fn empty_streams_gain_a_trivial_instruction() {
        let mut s = WarpStream::new(Vec::new());
        s.ensure_nonempty();
        assert_eq!(s.next(), Some(WarpInstr::Compute(0)));
        assert_eq!(s.next(), None);
    }

    #[test]
    fn default_warp_stream_uses_the_arena() {
        let mut arena = BufferArena::new();
        let prog = |_ctx: WarpCtx| vec![WarpInstr::Compute(7)];
        let expand = |arena: &mut BufferArena| {
            let mut streams = expand_cta(&prog, arena, GpuId::new(0), 1, 0, 1, 1);
            assert_eq!(streams.len(), 1);
            streams.remove(0)
        };
        let mut s = expand(&mut arena);
        assert_eq!(s.next(), Some(WarpInstr::Compute(7)));
        assert_eq!(s.next(), None);
        s.recycle(&mut arena);
        assert_eq!(arena.pooled(), 1);
        // The next stream reuses the pooled buffer.
        let s2 = expand(&mut arena);
        assert_eq!(arena.pooled(), 0);
        s2.recycle(&mut arena);
        assert_eq!(arena.pooled(), 1);
    }

    #[test]
    fn fill_programs_match_their_vec_form() {
        let fill = FillProgram::with_label(
            |ctx: WarpCtx, out: &mut Vec<WarpInstr>| {
                out.push(WarpInstr::Compute(ctx.warp_in_cta + 1));
                out.push(WarpInstr::load1(LineAddr::new(3)));
            },
            "fill-test",
        );
        assert_eq!(
            fill.warp_instrs(ctx0()),
            vec![WarpInstr::Compute(1), WarpInstr::load1(LineAddr::new(3))]
        );
        let mut out = vec![WarpInstr::Fence(Scope::Sys)]; // stale content is cleared
        fill.fill_warp(ctx0(), &mut out);
        assert_eq!(
            out,
            vec![WarpInstr::Compute(1), WarpInstr::load1(LineAddr::new(3))]
        );
        assert_eq!(fill.label(), "fill-test");
    }
}
