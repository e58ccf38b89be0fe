//! Cross-crate integration for streaming trace replay.
//!
//! Zero-copy trace replay and pooled instruction buffers are pure
//! wall-clock optimisations: replaying a recorded trace must produce a
//! [`gps::sim::SimReport`] bit-identical to running the generator-built
//! workload it was recorded from. These tests pin that invariant across the
//! whole application suite and the compared paradigms, plus the failure
//! mode (truncated traces error, never panic).

use gps::interconnect::LinkGen;
use gps::paradigms::{run_paradigm, Paradigm};
use gps::sim::Trace;
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
