//! Cross-crate integration for streaming trace replay.
//!
//! Zero-copy trace replay and pooled instruction buffers are pure
//! wall-clock optimisations: replaying a recorded trace must produce a
//! [`gps::sim::SimReport`] bit-identical to running the generator-built
//! workload it was recorded from. These tests pin that invariant across the
//! whole application suite and the compared paradigms, plus the failure
//! modes (truncated traces error; mutated traces error or decode, never
//! panic).

use gps::interconnect::LinkGen;
use gps::paradigms::{run_paradigm, Paradigm};
use gps::sim::{BufferArena, Trace, WarpCtx, WarpProgram, Workload};
use gps::types::rng::SmallRng;
use gps::types::CtaId;
use gps::workloads::{suite, ScaleProfile};

/// Streaming (zero-copy cursor) replay of a recorded trace vs the
/// generator-built workload it was recorded from: identical reports for
/// every suite application under every paradigm family of the comparison.
#[test]
fn streaming_replay_matches_the_generator_across_the_suite() {
    for app in suite::all() {
        let wl = (app.build)(2, ScaleProfile::Tiny);
        let streamed = Trace::record(&wl).replay(&wl.name).unwrap();
        for paradigm in [Paradigm::Gps, Paradigm::Memcpy, Paradigm::Um, Paradigm::Rdl] {
            let generated = run_paradigm(paradigm, &wl, 2, LinkGen::Pcie3).unwrap();
            let replayed = run_paradigm(paradigm, &streamed, 2, LinkGen::Pcie3).unwrap();
            assert_eq!(
                generated, replayed,
                "{}/{paradigm}: streaming replay diverged from the generator",
                app.name
            );
        }
    }
}

/// Every truncation of a real recorded trace must be rejected by `replay`
/// as an error — the lazy streaming decoder must never reach malformed
/// bytes at simulation time.
#[test]
fn truncated_traces_error_instead_of_panicking() {
    let app = suite::by_name("jacobi").unwrap();
    let wl = (app.build)(2, ScaleProfile::Tiny);
    let bytes = Trace::record(&wl).as_bytes().to_vec();
    assert!(Trace::from_bytes(bytes.clone()).replay("full").is_ok());
    for cut in (0..bytes.len()).step_by(251) {
        assert!(
            Trace::from_bytes(bytes[..cut].to_vec())
                .replay("cut")
                .is_err(),
            "truncation at {cut}/{} bytes was accepted",
            bytes.len()
        );
    }
}

/// Pulls every instruction of every warp of `wl` through its stream.
fn drain_every_warp(wl: &Workload, arena: &mut BufferArena) -> u64 {
    let mut instrs = 0;
    for k in wl.phases.iter().flat_map(|p| &p.launches) {
        for cta in 0..k.cta_count {
            for warp_in_cta in 0..k.warps_per_cta {
                let ctx = WarpCtx {
                    gpu: k.gpu,
                    gpu_count: wl.gpu_count as u32,
                    cta: CtaId::new(cta),
                    cta_count: k.cta_count,
                    warp_in_cta,
                    warps_per_cta: k.warps_per_cta,
                };
                let stream = k.program.warp_stream(ctx, arena);
                instrs += stream.count() as u64;
            }
        }
    }
    instrs
}

/// SplitMix64-driven byte flips, truncations and splices of a recorded
/// trace: `replay` must answer `Ok` or `Err` for every mutant, and an
/// accepted mutant's warp streams must all drain to their end.
#[test]
fn mutated_traces_never_panic_the_decoder() {
    let app = suite::by_name("jacobi").unwrap();
    let wl = (app.build)(2, ScaleProfile::Tiny);
    let base = Trace::record(&wl).as_bytes().to_vec();
    let mut arena = BufferArena::new();
    let recorded = Trace::from_bytes(base.clone()).replay("base").unwrap();
    assert!(drain_every_warp(&recorded, &mut arena) > 0);

    let mut rng = SmallRng::seed_from_u64(17);
    let (mut ok, mut err) = (0usize, 0usize);
    for _ in 0..10_000 {
        let mut bytes = base.clone();
        for _ in 0..=rng.gen_range(0..3) {
            let len = bytes.len().max(1);
            match rng.gen_range(0..3) {
                0 => {
                    let at = rng.gen_range_usize(0..len);
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1 << rng.gen_range(0..8);
                    }
                }
                1 => bytes.truncate(rng.gen_range_usize(0..len)),
                _ => {
                    // Splice a slice of the recorded trace in.
                    let from = rng.gen_range_usize(0..base.len());
                    let to = rng.gen_range_usize(from..(from + 64).min(base.len()) + 1);
                    let at = rng.gen_range_usize(0..bytes.len() + 1);
                    bytes.splice(at..at, base[from..to].iter().copied());
                }
            }
        }
        match Trace::from_bytes(bytes).replay("mutant") {
            Ok(mutant) => {
                drain_every_warp(&mutant, &mut arena);
                ok += 1;
            }
            Err(_) => err += 1,
        }
    }
    assert!(
        ok > 0 && err > 0,
        "mutations hit both outcomes: {ok} ok, {err} err"
    );
}
