//! Warp-program expansion and instruction-buffer pooling.
//!
//! At paper scale the engine launches millions of warps, and materialising
//! a fresh `Vec<WarpInstr>` per launch puts millions of short-lived heap
//! allocations on the simulation's critical path. [`BufferArena`] takes
//! that work off the hot path: a warp's owned buffer is returned to the
//! arena when the warp retires and handed to the next warp spawned, so
//! steady-state simulation performs no per-warp allocation at all.

use std::sync::{Arc, Mutex};

use gps_types::{CtaId, GpuId};

use crate::instr::{WarpCtx, WarpInstr, WarpProgram, WarpStream};

/// Buffers kept in the arena beyond which returned buffers are dropped
/// instead of pooled (bounds arena memory on pathological retire bursts).
const ARENA_MAX_BUFFERS: usize = 4096;

/// A shared pool of instruction buffers.
///
/// Cloning an arena is cheap and produces a handle to the *same* pool:
/// every clone recycles through one free list.
#[derive(Debug, Clone, Default)]
pub struct BufferArena {
    free: Arc<Mutex<Vec<Vec<WarpInstr>>>>,
}

impl BufferArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a cleared buffer from the pool (or a fresh one if the pool is
    /// empty).
    pub fn take(&self) -> Vec<WarpInstr> {
        self.free
            .lock()
            // gps-lint: allow(no_expect) -- poison implies a prior panic; arena users never panic while holding the lock
            .expect("arena lock")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a buffer to the pool. The buffer is cleared; its capacity is
    /// what the pool recycles.
    pub fn put(&self, mut buf: Vec<WarpInstr>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        // gps-lint: allow(no_expect) -- poison implies a prior panic; arena users never panic while holding the lock
        let mut free = self.free.lock().expect("arena lock");
        if free.len() < ARENA_MAX_BUFFERS {
            free.push(buf);
        }
    }

    /// Returns a batch of buffers in one lock acquisition, draining `bufs`
    /// (the batched form of [`BufferArena::put`], for the engine's retire
    /// path).
    pub fn put_n(&self, bufs: &mut Vec<Vec<WarpInstr>>) {
        // gps-lint: allow(no_expect) -- poison implies a prior panic; arena users never panic while holding the lock
        let mut free = self.free.lock().expect("arena lock");
        for mut buf in bufs.drain(..) {
            if buf.capacity() == 0 || free.len() >= ARENA_MAX_BUFFERS {
                continue;
            }
            buf.clear();
            free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        // gps-lint: allow(no_expect) -- poison implies a prior panic; arena users never panic while holding the lock
        self.free.lock().expect("arena lock").len()
    }
}

/// Expands the warp streams of one CTA in `warp_in_cta` order.
pub(crate) fn expand_cta(
    program: &dyn WarpProgram,
    arena: &BufferArena,
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
        let arena = BufferArena::new();
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
        let arena = BufferArena::new();
        arena.put(Vec::new());
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn arena_clones_share_one_pool() {
        let arena = BufferArena::new();
        let clone = arena.clone();
        let mut buf = arena.take();
        buf.reserve(8);
        clone.put(buf);
        assert_eq!(arena.pooled(), 1);
    }
}
