//! Trace recording and replay.
//!
//! NVAS is driven by application traces collected with NVBit on real
//! hardware (§6: "CUDA API events, GPU kernel instructions, and memory
//! addresses accessed, but no pre-recorded timing events"). This module
//! provides the equivalent artifact for this simulator: a [`Workload`] can
//! be *recorded* — every warp's instruction stream expanded and serialised
//! to a compact binary format — and later *replayed* as a workload whose
//! kernels read from the recorded streams instead of generating them.
//!
//! Recorded traces are self-contained (allocations, phase structure,
//! launches, instructions) and replay bit-identically: the same trace under
//! the same machine and policy produces the same [`SimReport`].
//!
//! [`SimReport`]: crate::SimReport
//!
//! # Format
//!
//! Little-endian, length-prefixed:
//!
//! ```text
//! magic "GPSTRACE" | version u32 | gpu_count u32 | page_size u8
//! | phases_per_iteration u32
//! | alloc_count u32 | allocs: { name, base u64, bytes u64, shared u8 }
//! | phase_count u32 | phases: { launch_count u32 | launches: {
//!       name, gpu u16, cta_count u32, warps_per_cta u32,
//!       warps: cta_count*warps_per_cta x { instr_count u32 | instrs } } }
//! ```

use std::fmt;
use std::sync::Arc;

use gps_mem::VaRange;
use gps_types::{GpsError, GpuId, LineAddr, LineRange, PageSize, Result, Scope, VirtAddr};

use crate::instr::{WarpCtx, WarpInstr, WarpProgram, WarpStream};
use crate::pipeline::BufferArena;
use crate::workload::{AllocSpec, KernelSpec, Phase, Workload};

const MAGIC: &[u8; 8] = b"GPSTRACE";
const VERSION: u32 = 1;

/// A recorded, replayable warp-level trace of a workload.
///
/// ```
/// use std::sync::Arc;
/// use gps_sim::{KernelSpec, Trace, WarpCtx, WarpInstr, WorkloadBuilder};
/// use gps_types::{GpuId, PageSize};
///
/// let mut b = WorkloadBuilder::new("demo", PageSize::Standard64K, 1);
/// let d = b.alloc_shared("d", 1)?;
/// let line = d.base().line();
/// b.phase(vec![KernelSpec {
///     name: "k".into(),
///     gpu: GpuId::new(0),
///     cta_count: 1,
///     warps_per_cta: 1,
///     program: Arc::new(move |_: WarpCtx| vec![WarpInstr::store1(line)]),
/// }]);
/// let wl = b.build(1)?;
///
/// let trace = Trace::record(&wl);
/// let replayed = trace.replay("replay")?;
/// assert_eq!(replayed.total_warps(), wl.total_warps());
/// # Ok::<(), gps_types::GpsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    bytes: Arc<Vec<u8>>,
}

/// A little-endian reader over a byte slice; every accessor returns `None`
/// on underrun instead of panicking, so truncated traces parse cleanly
/// into errors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(len)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    /// A capacity for `count` decoded items: every item takes at least one
    /// byte, so a corrupt count cannot ask for more than the bytes left.
    fn capacity(&self, count: usize) -> usize {
        count.min(self.buf.len().saturating_sub(self.pos))
    }
}

impl Trace {
    /// Records `workload` by expanding every warp's instruction stream.
    ///
    /// The expansion walks each launch's full grid, so recording a
    /// paper-scale workload produces a few megabytes and takes a moment;
    /// the result is independent of the generator closures that produced
    /// it.
    pub fn record(workload: &Workload) -> Trace {
        let mut buf = Vec::with_capacity(1 << 20);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(workload.gpu_count as u32).to_le_bytes());
        buf.push(page_size_tag(workload.page_size));
        buf.extend_from_slice(&(workload.phases_per_iteration as u32).to_le_bytes());

        buf.extend_from_slice(&(workload.allocs.len() as u32).to_le_bytes());
        for alloc in &workload.allocs {
            put_str(&mut buf, &alloc.name);
            buf.extend_from_slice(&alloc.range.base().as_u64().to_le_bytes());
            buf.extend_from_slice(&alloc.range.bytes().to_le_bytes());
            buf.push(alloc.shared as u8);
        }

        buf.extend_from_slice(&(workload.phases.len() as u32).to_le_bytes());
        for phase in &workload.phases {
            buf.extend_from_slice(&(phase.launches.len() as u32).to_le_bytes());
            for k in &phase.launches {
                put_str(&mut buf, &k.name);
                buf.extend_from_slice(&k.gpu.raw().to_le_bytes());
                buf.extend_from_slice(&k.cta_count.to_le_bytes());
                buf.extend_from_slice(&k.warps_per_cta.to_le_bytes());
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
                        let instrs = k.program.warp_instrs(ctx);
                        buf.extend_from_slice(&(instrs.len() as u32).to_le_bytes());
                        for i in &instrs {
                            put_instr(&mut buf, i);
                        }
                    }
                }
            }
        }
        Trace {
            bytes: Arc::new(buf),
        }
    }

    /// The serialised bytes (for writing to a file).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps serialised bytes produced by [`Trace::record`].
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Trace {
        Trace {
            bytes: Arc::new(bytes.into()),
        }
    }

    /// Size of the trace in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the trace is empty (an empty buffer is never a valid trace).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reconstructs a [`Workload`] that replays the recorded streams.
    ///
    /// The trace is validated up front with a cheap skip-scan that records
    /// each warp's byte offset, and warps decode their instructions lazily
    /// through zero-copy [`TraceCursor`]s over the shared trace bytes — no
    /// per-warp `Vec<WarpInstr>` is ever materialised. The skip-scan
    /// performs the exact same checks as a full decode (tag dispatch,
    /// bounds, scope tags, stride rule), so a trace that validates here can
    /// never fail to decode later.
    ///
    /// # Errors
    ///
    /// Returns [`GpsError::Parse`] on malformed input and propagates
    /// workload validation failures.
    pub fn replay(&self, name: impl Into<String>) -> Result<Workload> {
        let name = name.into();
        let mut buf = Cursor::new(&self.bytes);
        let fail = |what: &'static str| GpsError::Parse {
            what,
            input: "trace".to_owned(),
        };

        if buf.take(8) != Some(&MAGIC[..]) {
            return Err(fail("trace magic"));
        }
        if read_u32(&mut buf).ok_or(fail("version"))? != VERSION {
            return Err(fail("trace version"));
        }
        let gpu_count = read_u32(&mut buf).ok_or(fail("gpu count"))? as usize;
        let page_size = page_size_from_tag(read_u8(&mut buf).ok_or(fail("page size"))?)
            .ok_or(fail("page size tag"))?;
        let ppi = read_u32(&mut buf).ok_or(fail("phases per iteration"))? as usize;

        let alloc_count = read_u32(&mut buf).ok_or(fail("alloc count"))?;
        let mut allocs = Vec::with_capacity(buf.capacity(alloc_count as usize));
        for _ in 0..alloc_count {
            let name = read_str(&mut buf).ok_or(fail("alloc name"))?;
            let base = read_u64(&mut buf).ok_or(fail("alloc base"))?;
            let bytes = read_u64(&mut buf).ok_or(fail("alloc bytes"))?;
            let shared = read_u8(&mut buf).ok_or(fail("alloc shared"))? != 0;
            // `VaRange::new` asserts these; a corrupt trace must error.
            let page = page_size.bytes();
            if bytes == 0 || !base.is_multiple_of(page) || !bytes.is_multiple_of(page) {
                return Err(fail("alloc range alignment"));
            }
            allocs.push(AllocSpec {
                name,
                range: VaRange::new(VirtAddr::new(base), bytes, page_size),
                shared,
            });
        }

        let phase_count = read_u32(&mut buf).ok_or(fail("phase count"))?;
        let mut phases = Vec::with_capacity(buf.capacity(phase_count as usize));
        for _ in 0..phase_count {
            let launch_count = read_u32(&mut buf).ok_or(fail("launch count"))?;
            let mut launches = Vec::with_capacity(buf.capacity(launch_count as usize));
            for _ in 0..launch_count {
                let name = read_str(&mut buf).ok_or(fail("kernel name"))?;
                let gpu = GpuId::new(read_u16(&mut buf).ok_or(fail("kernel gpu"))?);
                let cta_count = read_u32(&mut buf).ok_or(fail("cta count"))?;
                let warps_per_cta = read_u32(&mut buf).ok_or(fail("warps per cta"))?;
                let total = cta_count as usize * warps_per_cta as usize;
                // Skip-scan: validate each instruction and remember only
                // where each warp's stream starts.
                let mut warps = Vec::with_capacity(buf.capacity(total));
                for _ in 0..total {
                    let n = read_u32(&mut buf).ok_or(fail("instr count"))?;
                    warps.push((buf.pos as u64, n));
                    for _ in 0..n {
                        skip_instr(&mut buf).ok_or(fail("instr"))?;
                    }
                }
                let program: Arc<dyn WarpProgram> = Arc::new(StreamedProgram {
                    bytes: Arc::clone(&self.bytes),
                    warps: Arc::new(warps),
                    warps_per_cta,
                });
                launches.push(KernelSpec {
                    name,
                    gpu,
                    cta_count,
                    warps_per_cta,
                    program,
                });
            }
            phases.push(Phase::new(launches));
        }

        let wl = Workload {
            name,
            page_size,
            allocs,
            phases,
            phases_per_iteration: ppi,
            gpu_count,
        };
        wl.validate()?;
        Ok(wl)
    }
}

/// A zero-copy instruction cursor over the shared bytes of a recorded
/// [`Trace`].
///
/// Decodes one [`WarpInstr`] per [`TraceCursor::next`] call, straight out
/// of the `Arc<Vec<u8>>` trace buffer — no per-warp vector, no copy of the
/// trace. Cloning the cursor is cheap (an `Arc` bump plus two integers).
///
/// On malformed bytes the cursor ends the stream (`None`) instead of
/// panicking. Cursors handed out by [`Trace::replay`] can never hit that
/// path because replay validates every instruction up front.
#[derive(Debug, Clone)]
pub struct TraceCursor {
    bytes: Arc<Vec<u8>>,
    pos: usize,
    remaining: u32,
}

impl TraceCursor {
    /// A cursor yielding `count` instructions starting at byte `pos`.
    pub(crate) fn new(bytes: Arc<Vec<u8>>, pos: usize, count: u32) -> Self {
        TraceCursor {
            bytes,
            pos,
            remaining: count,
        }
    }

    /// True once every instruction has been yielded.
    pub fn is_exhausted(&self) -> bool {
        self.remaining == 0
    }
}

/// Decodes the next instruction, or `None` when exhausted (or, for a
/// cursor over unvalidated bytes, on the first malformed instruction —
/// the cursor ends cleanly rather than panicking).
impl Iterator for TraceCursor {
    type Item = WarpInstr;

    fn next(&mut self) -> Option<WarpInstr> {
        if self.remaining == 0 {
            return None;
        }
        let mut buf = Cursor {
            buf: &self.bytes,
            pos: self.pos,
        };
        match read_instr(&mut buf) {
            Some(instr) => {
                self.pos = buf.pos;
                self.remaining -= 1;
                Some(instr)
            }
            None => {
                self.remaining = 0; // malformed: end cleanly, never panic
                None
            }
        }
    }
}

/// A warp program that replays a recorded trace by handing out zero-copy
/// [`TraceCursor`] streams over the shared trace bytes.
struct StreamedProgram {
    bytes: Arc<Vec<u8>>,
    /// Per grid-global warp: (byte offset of the stream, instruction count).
    warps: Arc<Vec<(u64, u32)>>,
    warps_per_cta: u32,
}

impl fmt::Debug for StreamedProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamedProgram")
            .field("warps", &self.warps.len())
            .finish()
    }
}

impl StreamedProgram {
    fn cursor(&self, ctx: WarpCtx) -> TraceCursor {
        let idx = (ctx.cta.raw() * self.warps_per_cta + ctx.warp_in_cta) as usize;
        let (pos, count) = self.warps.get(idx).copied().unwrap_or((0, 0));
        TraceCursor::new(Arc::clone(&self.bytes), pos as usize, count)
    }
}

impl WarpProgram for StreamedProgram {
    fn warp_instrs(&self, ctx: WarpCtx) -> Vec<WarpInstr> {
        let mut out = Vec::new();
        self.fill_warp(ctx, &mut out);
        out
    }

    fn fill_warp(&self, ctx: WarpCtx, out: &mut Vec<WarpInstr>) {
        let cursor = self.cursor(ctx);
        out.clear();
        out.reserve(cursor.remaining as usize);
        out.extend(cursor);
    }

    fn warp_stream(&self, ctx: WarpCtx, _arena: &mut BufferArena) -> WarpStream {
        WarpStream::Replay(self.cursor(ctx))
    }

    fn label(&self) -> &str {
        "recorded"
    }
}

fn page_size_tag(p: PageSize) -> u8 {
    match p {
        PageSize::Small4K => 0,
        PageSize::Standard64K => 1,
        PageSize::Huge2M => 2,
    }
}

fn page_size_from_tag(t: u8) -> Option<PageSize> {
    match t {
        0 => Some(PageSize::Small4K),
        1 => Some(PageSize::Standard64K),
        2 => Some(PageSize::Huge2M),
        _ => None,
    }
}

fn scope_tag(s: Scope) -> u8 {
    match s {
        Scope::Weak => 0,
        Scope::Cta => 1,
        Scope::Gpu => 2,
        Scope::Sys => 3,
    }
}

fn scope_from_tag(t: u8) -> Option<Scope> {
    match t {
        0 => Some(Scope::Weak),
        1 => Some(Scope::Cta),
        2 => Some(Scope::Gpu),
        3 => Some(Scope::Sys),
        _ => None,
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_instr(buf: &mut Vec<u8>, i: &WarpInstr) {
    match *i {
        WarpInstr::Compute(c) => {
            buf.push(0);
            buf.extend_from_slice(&c.to_le_bytes());
        }
        WarpInstr::Load(r) => {
            buf.push(1);
            put_range(buf, r);
        }
        WarpInstr::Store(r, scope) => {
            buf.push(2);
            put_range(buf, r);
            buf.push(scope_tag(scope));
        }
        WarpInstr::Atomic(line) => {
            buf.push(3);
            buf.extend_from_slice(&line.as_u64().to_le_bytes());
        }
        WarpInstr::Fence(scope) => {
            buf.push(4);
            buf.push(scope_tag(scope));
        }
    }
}

fn put_range(buf: &mut Vec<u8>, r: LineRange) {
    buf.extend_from_slice(&r.start().as_u64().to_le_bytes());
    buf.extend_from_slice(&r.len().to_le_bytes());
    buf.extend_from_slice(&r.stride().to_le_bytes());
}

fn read_u8(buf: &mut Cursor<'_>) -> Option<u8> {
    buf.take(1).map(|b| b[0])
}

fn read_u16(buf: &mut Cursor<'_>) -> Option<u16> {
    buf.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
}

fn read_u32(buf: &mut Cursor<'_>) -> Option<u32> {
    buf.take(4)
        // gps-lint: allow(no_expect) -- take(4) returns exactly 4 bytes
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

fn read_u64(buf: &mut Cursor<'_>) -> Option<u64> {
    buf.take(8)
        // gps-lint: allow(no_expect) -- take(8) returns exactly 8 bytes
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
}

fn read_str(buf: &mut Cursor<'_>) -> Option<String> {
    let len = read_u32(buf)? as usize;
    let raw = buf.take(len)?;
    String::from_utf8(raw.to_vec()).ok()
}

fn read_range(buf: &mut Cursor<'_>) -> Option<LineRange> {
    let start = read_u64(buf)?;
    let count = read_u32(buf)?;
    let stride = read_u32(buf)?;
    if count > 1 && stride == 0 {
        return None;
    }
    Some(LineRange::new(LineAddr::new(start), count, stride.max(1)))
}

/// Validates and skips one serialised instruction without constructing it.
///
/// Performs the same checks as [`read_instr`] — unknown tags, truncation,
/// scope tags, and the `count > 1 && stride == 0` range rule all fail — so
/// a skip-scanned stream is guaranteed decodable by [`TraceCursor`].
fn skip_instr(buf: &mut Cursor<'_>) -> Option<()> {
    match read_u8(buf)? {
        0 => buf.take(4).map(|_| ()),
        1 => read_range(buf).map(|_| ()),
        2 => {
            read_range(buf)?;
            scope_from_tag(read_u8(buf)?).map(|_| ())
        }
        3 => buf.take(8).map(|_| ()),
        4 => scope_from_tag(read_u8(buf)?).map(|_| ()),
        _ => None,
    }
}

fn read_instr(buf: &mut Cursor<'_>) -> Option<WarpInstr> {
    match read_u8(buf)? {
        0 => Some(WarpInstr::Compute(read_u32(buf)?)),
        1 => Some(WarpInstr::Load(read_range(buf)?)),
        2 => {
            let r = read_range(buf)?;
            let s = scope_from_tag(read_u8(buf)?)?;
            Some(WarpInstr::Store(r, s))
        }
        3 => Some(WarpInstr::Atomic(LineAddr::new(read_u64(buf)?))),
        4 => Some(WarpInstr::Fence(scope_from_tag(read_u8(buf)?)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_mem::VaSpace;

    fn sample_workload() -> Workload {
        let mut space = VaSpace::new(PageSize::Standard64K);
        let data = space.allocate(2 * 65536).unwrap();
        let base = data.base().line();
        let program = move |ctx: WarpCtx| {
            let w = ctx.global_warp() as u64;
            vec![
                WarpInstr::Load(LineRange::contiguous(base.offset(w * 4), 4)),
                WarpInstr::Compute(10 + w as u32),
                WarpInstr::Store(LineRange::new(base.offset(w), 2, 3), Scope::Gpu),
                WarpInstr::Atomic(base.offset(w + 100)),
                WarpInstr::Fence(Scope::Sys),
            ]
        };
        Workload {
            name: "sample".into(),
            page_size: PageSize::Standard64K,
            allocs: vec![AllocSpec {
                name: "data".into(),
                range: data,
                shared: true,
            }],
            phases: vec![Phase::new(vec![
                KernelSpec {
                    name: "k0".into(),
                    gpu: GpuId::new(0),
                    cta_count: 3,
                    warps_per_cta: 2,
                    program: Arc::new(program),
                },
                KernelSpec {
                    name: "k1".into(),
                    gpu: GpuId::new(1),
                    cta_count: 1,
                    warps_per_cta: 4,
                    program: Arc::new(program),
                },
            ])],
            phases_per_iteration: 1,
            gpu_count: 2,
        }
    }

    fn all_instrs(wl: &Workload) -> Vec<Vec<WarpInstr>> {
        let mut out = Vec::new();
        for phase in &wl.phases {
            for k in &phase.launches {
                for cta in 0..k.cta_count {
                    for warp in 0..k.warps_per_cta {
                        out.push(k.program.warp_instrs(WarpCtx {
                            gpu: k.gpu,
                            gpu_count: wl.gpu_count as u32,
                            cta: gps_types::CtaId::new(cta),
                            cta_count: k.cta_count,
                            warp_in_cta: warp,
                            warps_per_cta: k.warps_per_cta,
                        }));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn record_replay_roundtrips_instruction_streams() {
        let wl = sample_workload();
        let trace = Trace::record(&wl);
        assert!(!trace.is_empty());
        let replayed = trace.replay("replayed").unwrap();
        assert_eq!(replayed.gpu_count, wl.gpu_count);
        assert_eq!(replayed.page_size, wl.page_size);
        assert_eq!(replayed.phases_per_iteration, wl.phases_per_iteration);
        assert_eq!(replayed.allocs.len(), 1);
        assert_eq!(replayed.allocs[0].range, wl.allocs[0].range);
        assert!(replayed.allocs[0].shared);
        assert_eq!(all_instrs(&replayed), all_instrs(&wl));
    }

    #[test]
    fn serialised_bytes_roundtrip() {
        let wl = sample_workload();
        let trace = Trace::record(&wl);
        let copied = Trace::from_bytes(trace.as_bytes().to_vec());
        assert_eq!(copied.len(), trace.len());
        let replayed = copied.replay("copy").unwrap();
        assert_eq!(all_instrs(&replayed), all_instrs(&wl));
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(Trace::from_bytes(vec![]).replay("x").is_err());
        assert!(Trace::from_bytes(b"NOTATRACE".to_vec())
            .replay("x")
            .is_err());
        // Truncated mid-stream.
        let wl = sample_workload();
        let full = Trace::record(&wl);
        let cut = Trace::from_bytes(full.as_bytes()[..full.len() / 2].to_vec());
        assert!(cut.replay("x").is_err());
    }

    #[test]
    fn kernel_metadata_survives() {
        let wl = sample_workload();
        let replayed = Trace::record(&wl).replay("r").unwrap();
        let k = &replayed.phases[0].launches[1];
        assert_eq!(k.name, "k1");
        assert_eq!(k.gpu, GpuId::new(1));
        assert_eq!(k.cta_count, 1);
        assert_eq!(k.warps_per_cta, 4);
        assert_eq!(k.program.label(), "recorded");
    }

    #[test]
    fn streaming_replay_matches_the_generator() {
        let wl = sample_workload();
        let streaming = Trace::record(&wl).replay("s").unwrap();
        assert_eq!(all_instrs(&streaming), all_instrs(&wl));
    }

    #[test]
    fn replayed_warps_stream_through_zero_copy_cursors() {
        let wl = sample_workload();
        let replayed = Trace::record(&wl).replay("s").unwrap();
        let k = &replayed.phases[0].launches[0];
        let mut arena = BufferArena::new();
        let ctx = WarpCtx {
            gpu: k.gpu,
            gpu_count: wl.gpu_count as u32,
            cta: gps_types::CtaId::new(1),
            cta_count: k.cta_count,
            warp_in_cta: 1,
            warps_per_cta: k.warps_per_cta,
        };
        let mut stream = k.program.warp_stream(ctx, &mut arena);
        assert!(
            matches!(stream, WarpStream::Replay(_)),
            "replayed programs must hand out zero-copy cursors"
        );
        let decoded: Vec<_> = stream.by_ref().collect();
        assert_eq!(decoded, k.program.warp_instrs(ctx));
        // Recycling a replay stream is a no-op: no buffer to pool.
        stream.recycle(&mut arena);
        assert_eq!(arena.pooled(), 0);
    }

    #[test]
    fn truncated_cursors_end_cleanly_instead_of_panicking() {
        let wl = sample_workload();
        let full = Trace::record(&wl);
        let bytes = full.as_bytes();
        // Replay (which validates) must reject every truncation...
        for cut in (0..bytes.len()).step_by(7) {
            assert!(
                Trace::from_bytes(bytes[..cut].to_vec())
                    .replay("x")
                    .is_err(),
                "truncation at {cut} accepted"
            );
        }
        // ...and a raw cursor pointed anywhere into truncated bytes — even
        // with a wildly wrong remaining-count — must drain to None rather
        // than panic.
        for cut in (0..bytes.len()).step_by(13) {
            let truncated = Arc::new(bytes[..cut].to_vec());
            for start in (0..cut.max(1)).step_by(11) {
                let mut cursor = TraceCursor::new(Arc::clone(&truncated), start, u32::MAX);
                let mut yielded = 0u32;
                while cursor.next().is_some() {
                    yielded += 1;
                    assert!(yielded as usize <= cut, "cursor yielded past the buffer");
                }
                assert!(cursor.is_exhausted());
                assert_eq!(cursor.next(), None);
            }
        }
    }
}
