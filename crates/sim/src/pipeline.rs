//! Warp-program expansion and instruction-buffer pooling.
//!
//! At paper scale the engine launches millions of warps, and materialising
//! a fresh `Vec<WarpInstr>` per launch puts millions of short-lived heap
//! allocations on the simulation's critical path. [`BufferArena`] takes
//! that work off the hot path: each lane owns one, a warp's owned buffer
//! is returned to it when the warp retires and handed to the next warp
//! the lane spawns, so steady-state simulation performs no per-warp
//! allocation at all.

use gps_types::{CtaId, GpuId};

use crate::instr::{WarpCtx, WarpInstr, WarpProgram, WarpStream};

/// Buffers kept in the arena beyond which returned buffers are dropped
/// instead of pooled (bounds arena memory on pathological retire bursts).
const ARENA_MAX_BUFFERS: usize = 4096;

/// A free list of instruction buffers, owned by one lane.
#[derive(Debug, Default)]
pub struct BufferArena {
    free: Vec<Vec<WarpInstr>>,
}

impl BufferArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool (or a fresh one if the pool is
    /// empty).
    pub fn take(&mut self) -> Vec<WarpInstr> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool. The buffer is cleared; its capacity is
    /// what the pool recycles.
    pub fn put(&mut self, mut buf: Vec<WarpInstr>) {
        if buf.capacity() == 0 || self.free.len() >= ARENA_MAX_BUFFERS {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// Expands the warp streams of one CTA in `warp_in_cta` order.
pub(crate) fn expand_cta(
    program: &dyn WarpProgram,
    arena: &mut BufferArena,
    gpu: GpuId,
    gpu_count: u32,
    cta: u32,
    cta_count: u32,
    warps_per_cta: u32,
) -> Vec<WarpStream> {
    (0..warps_per_cta)
        .map(|warp_in_cta| {
            program.warp_stream(
                WarpCtx {
                    gpu,
                    gpu_count,
                    cta: CtaId::new(cta),
                    cta_count,
                    warp_in_cta,
                    warps_per_cta,
                },
                arena,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_recycles_capacity() {
        let mut arena = BufferArena::new();
        let mut buf = arena.take();
        buf.reserve(64);
        let cap = buf.capacity();
        buf.push(WarpInstr::Compute(1));
        arena.put(buf);
        assert_eq!(arena.pooled(), 1);
        let reused = arena.take();
        assert!(reused.is_empty());
        assert_eq!(reused.capacity(), cap);
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn arena_drops_capacityless_buffers() {
        let mut arena = BufferArena::new();
        arena.put(Vec::new());
        assert_eq!(arena.pooled(), 0);
    }
}
