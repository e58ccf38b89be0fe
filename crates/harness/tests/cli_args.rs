//! Exit-code and diagnostics tests for `gps-run` argument validation.
//!
//! Each rejected command line must fail with a non-zero exit code and one
//! canonical message on stderr, and must not create or touch the store.

use std::path::PathBuf;
use std::process::{Command, Output};

fn gps_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gps-run"))
        .args(args)
        .output()
        .expect("gps-run spawns")
}

fn temp_store(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "gps-cli-args-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

/// Asserts the invocation fails before running anything: non-zero exit,
/// `needle` on stderr, and no store file created.
fn assert_rejected(tag: &str, args: &[&str], needle: &str) {
    let store = temp_store(tag);
    let store_str = store.to_str().expect("utf-8 temp path").to_owned();
    let mut full: Vec<&str> = vec!["sweep", "--store", &store_str];
    full.extend_from_slice(args);
    let out = gps_run(&full);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "{tag}: expected failure, got success; stderr: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{tag}: stderr missing {needle:?}; got: {stderr}"
    );
    assert!(
        !store.exists(),
        "{tag}: rejected run must not touch the store"
    );
}

#[test]
fn parallel_zero_is_rejected() {
    assert_rejected(
        "par0",
        &["--parallel", "0"],
        "omit the flag for the reference lane",
    );
}

#[test]
fn zero_gpu_count_is_rejected() {
    assert_rejected("gpus0", &["--gpus", "4,0"], "GPU count must be at least 1");
}

#[test]
fn empty_lists_are_rejected() {
    assert_rejected("apps", &["--apps", ","], "--apps needs at least one value");
    assert_rejected("gpus", &["--gpus", ""], "--gpus needs at least one value");
    assert_rejected(
        "topo",
        &["--topologies", " , "],
        "--topologies needs at least one value",
    );
    assert_rejected(
        "scales",
        &["--scales", ","],
        "--scales needs at least one value",
    );
}

#[test]
fn duplicate_spec_flags_are_rejected() {
    assert_rejected(
        "dup-gpus",
        &["--gpus", "2", "--gpus", "4"],
        "--gpus given twice",
    );
    assert_rejected(
        "dup-paradigms",
        &["--paradigms", "gps", "--paradigms", "um"],
        "--paradigms given twice",
    );
}

#[test]
fn presets_conflict_with_spec_flags_and_each_other() {
    assert_rejected(
        "paper-superpod",
        &["--paper", "--superpod"],
        "--paper cannot be combined with --superpod",
    );
    assert_rejected(
        "superpod-gpus",
        &["--superpod", "--gpus", "2"],
        "--superpod cannot be combined with --gpus",
    );
    assert_rejected(
        "gpus-paper",
        &["--gpus", "2", "--paper"],
        "--paper cannot be combined with --gpus",
    );
}

#[test]
fn missing_value_and_unknown_flag_are_rejected() {
    assert_rejected("missing", &["--gpus"], "--gpus requires a value");
    assert_rejected("unknown", &["--frobnicate"], "unknown flag --frobnicate");
    // LRU-approximate is the only victim policy, so the flag is gone.
    assert_rejected(
        "victim",
        &["--victim-policy", "lru"],
        "unknown flag --victim-policy",
    );
}

#[test]
fn resume_refuses_fresh() {
    let out = gps_run(&["resume", "--fresh"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("resume cannot take --fresh"), "{stderr}");
}

#[test]
fn inject_panic_stays_repeatable() {
    // Two --inject-panic flags are legitimate (a list of apps to fail);
    // the rejection machinery must not flag them as duplicates. The run
    // itself quarantines both apps, which also exits non-zero — so assert
    // on the message, not the code.
    let store = temp_store("inject");
    let out = gps_run(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--apps",
        "jacobi,pagerank",
        "--paradigms",
        "gps",
        "--gpus",
        "2",
        "--inject-panic",
        "jacobi",
        "--inject-panic",
        "pagerank",
        "--retries",
        "0",
        "--quiet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("given twice"),
        "--inject-panic must stay repeatable; got: {stderr}"
    );
    assert!(
        stderr.contains("quarantined")
            || String::from_utf8_lossy(&out.stdout).contains("quarantined"),
        "both injected apps should quarantine"
    );
    std::fs::remove_file(&store).ok();
}

#[test]
fn valid_superpod_preset_parses_and_a_tiny_slice_runs() {
    // The preset itself must parse; prove the plumbing end-to-end by
    // letting it expand but launching zero jobs.
    let store = temp_store("superpod-ok");
    let out = gps_run(&[
        "sweep",
        "--store",
        store.to_str().unwrap(),
        "--superpod",
        "--max-jobs",
        "0",
        "--quiet",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "superpod preset rejected: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("executed 0"), "{stdout}");
    // all apps x figure8 x {32,64} x nvlink3 x small x 2 fabrics pending
    assert!(stdout.contains("192 pending"), "{stdout}");
    std::fs::remove_file(&store).ok();
}

#[test]
fn unreadable_store_lines_are_counted_not_called_torn() {
    // One real record, then a torn line and a well-formed record this
    // build rejects (a pre-v7 random-victim run): both are unreadable,
    // only the first is torn.
    let store = temp_store("unreadable");
    let store_str = store.to_str().expect("utf-8 temp path").to_owned();
    let sweep = [
        "sweep",
        "--store",
        &store_str,
        "--apps",
        "hit",
        "--paradigms",
        "gps-oversub",
        "--gpus",
        "2",
        "--scales",
        "tiny",
        "--oversubscribe",
        "1.5",
        "--quiet",
    ];
    assert!(gps_run(&sweep).status.success());
    let line = std::fs::read_to_string(&store).expect("sweep wrote the store");
    let key_at = line.find("\"key\":\"").expect("record has a key") + "\"key\":\"".len();
    let key = &line[key_at..key_at + 32];
    let random = line.replace(key, &"0".repeat(32)).replace(
        "\"oversub_pct\":150",
        "\"oversub_pct\":150,\"victim\":\"random\"",
    );
    assert!(random.contains("random"), "replacement must fire");
    let torn = &line[..line.len() / 2];
    std::fs::write(&store, format!("{line}{random}{torn}\n")).expect("rewrite store");

    let report = gps_run(&["report", "--store", &store_str]);
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(
        stdout.contains("1 records (0 quarantined, 2 unreadable lines dropped)"),
        "{stdout}"
    );
    let resumed = gps_run(&sweep);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(stdout.contains(", 2 unreadable lines dropped"), "{stdout}");
    assert!(!stdout.contains("torn"), "{stdout}");
    std::fs::remove_file(&store).ok();
}
