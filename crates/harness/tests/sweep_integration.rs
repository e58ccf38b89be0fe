//! End-to-end tests of the sweep orchestrator: worker-count determinism,
//! interrupt-and-resume equivalence, and panic quarantine.

use std::path::PathBuf;

use gps_harness::store::{ResultStore, RunStatus};
use gps_harness::sweep::{run_sweep, SweepOptions, SweepSpec};
use gps_interconnect::LinkGen;
use gps_paradigms::Paradigm;
use gps_workloads::ScaleProfile;

fn temp_store(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "gps-sweep-test-{}-{tag}-{n}.jsonl",
        std::process::id()
    ))
}

fn small_spec() -> SweepSpec {
    SweepSpec {
        apps: vec!["jacobi".into(), "pagerank".into()],
        paradigms: vec![Paradigm::Gps, Paradigm::Um],
        gpu_counts: vec![2],
        links: vec![LinkGen::Pcie3],
        scales: vec![ScaleProfile::Tiny],
        pressures: vec![gps_sim::MemoryPressure::NONE],
        topologies: vec![gps_interconnect::Topology::Switch],
        parallel: 0,
    }
}

fn quiet(workers: usize) -> SweepOptions {
    SweepOptions {
        workers,
        retries: 1,
        ..SweepOptions::default()
    }
}

/// Projects the store-independent identity of a record set (wall-clock
/// excluded) for cross-sweep comparison.
fn fingerprint(records: &[gps_harness::RunRecord]) -> Vec<String> {
    records
        .iter()
        .map(|r| format!("{:?}", r.deterministic_fields()))
        .collect()
}

#[test]
fn one_worker_and_many_workers_agree() {
    let store1 = temp_store("w1");
    let store4 = temp_store("w4");
    let spec = small_spec();

    let a = run_sweep(&spec, &store1, &quiet(1)).unwrap();
    let b = run_sweep(&spec, &store4, &quiet(4)).unwrap();

    assert_eq!(a.executed, 4);
    assert_eq!(b.executed, 4);
    assert_eq!(fingerprint(&a.records), fingerprint(&b.records));

    std::fs::remove_file(&store1).ok();
    std::fs::remove_file(&store4).ok();
}

#[test]
fn interrupted_then_resumed_sweep_matches_uninterrupted() {
    let interrupted = temp_store("interrupted");
    let straight = temp_store("straight");
    let spec = small_spec();

    // Simulate a sweep killed after 2 of 4 jobs.
    let first = run_sweep(
        &spec,
        &interrupted,
        &SweepOptions {
            max_jobs: Some(2),
            ..quiet(2)
        },
    )
    .unwrap();
    assert_eq!(first.executed, 2);
    assert_eq!(first.pending, 2);

    // Resume: the completed keys must be skipped, only the rest executed.
    let resumed = run_sweep(&spec, &interrupted, &quiet(2)).unwrap();
    assert_eq!(resumed.skipped, 2, "completed runs must be cache hits");
    assert_eq!(resumed.executed, 2);
    assert_eq!(resumed.pending, 0);

    let uninterrupted = run_sweep(&spec, &straight, &quiet(2)).unwrap();
    assert_eq!(
        fingerprint(&resumed.records),
        fingerprint(&uninterrupted.records),
        "resumed store diverged from an uninterrupted sweep"
    );

    // A third invocation has nothing left to do.
    let noop = run_sweep(&spec, &interrupted, &quiet(2)).unwrap();
    assert_eq!(noop.executed, 0);
    assert_eq!(noop.skipped, 4);

    std::fs::remove_file(&interrupted).ok();
    std::fs::remove_file(&straight).ok();
}

#[test]
fn stale_key_records_migrate_instead_of_rerunning() {
    // A store written under an older KEY_VERSION holds completed results
    // whose keys this build will never derive. Resume must re-home them
    // under the re-derived key — zero re-execution — and keep the store
    // append-only (the stale line survives until gc).
    let store = temp_store("migrate");
    let spec = small_spec();

    let first = run_sweep(&spec, &store, &quiet(2)).unwrap();
    assert_eq!(first.executed, 4);
    assert_eq!(first.migrated, 0);

    // Age the store: rewrite every key to what an older key encoding
    // would have produced (any 32-hex string this build cannot derive).
    let text = std::fs::read_to_string(&store).unwrap();
    let mut aged = String::new();
    for (i, line) in text.lines().enumerate() {
        let stale = format!("{i:032x}");
        let key_field_start = line.find("\"key\":\"").unwrap() + "\"key\":\"".len();
        let old_key = &line[key_field_start..key_field_start + 32];
        aged.push_str(&line.replace(old_key, &stale));
        aged.push('\n');
    }
    std::fs::write(&store, aged).unwrap();

    // Resume: all four runs are recognised as done under stale keys,
    // re-homed, and skipped — nothing executes.
    let resumed = run_sweep(&spec, &store, &quiet(2)).unwrap();
    assert_eq!(resumed.migrated, 4, "all four stale keys must re-home");
    assert_eq!(resumed.executed, 0, "migration must not re-run anything");
    assert_eq!(resumed.skipped, 4);

    // The migrated view matches a fresh sweep of the same spec.
    let fresh_store = temp_store("migrate-fresh");
    let fresh = run_sweep(&spec, &fresh_store, &quiet(2)).unwrap();
    let migrated_current: Vec<_> = resumed
        .records
        .iter()
        .filter(|r| !r.key.starts_with("000000000000000000000000000000"))
        .cloned()
        .collect();
    assert_eq!(
        fingerprint(&migrated_current),
        fingerprint(&fresh.records),
        "migrated records must be identical to freshly computed ones"
    );

    // Append-only: the stale lines are still in the raw store (gc's job),
    // and a further resume migrates nothing new.
    let (all, _) = ResultStore::load(&store).unwrap();
    assert_eq!(all.len(), 8, "4 stale lines + 4 migrated lines");
    let again = run_sweep(&spec, &store, &quiet(2)).unwrap();
    assert_eq!(again.migrated, 0);
    assert_eq!(again.executed, 0);

    std::fs::remove_file(&store).ok();
    std::fs::remove_file(&fresh_store).ok();
}

#[test]
fn v6_lru_records_migrate_and_random_victim_records_do_not() {
    // Before KEY_VERSION 7 a pressured record named its victim policy.
    // An LRU record is the run its fields describe now and re-homes under
    // its v7 key; a random-victim record is a different run, so the store
    // drops it as unreadable and the sweep re-runs that unit.
    let store = temp_store("victim");
    let spec = SweepSpec {
        paradigms: vec![Paradigm::GpsOversub],
        pressures: vec![gps_sim::MemoryPressure::from_ratio(1.5)],
        ..small_spec()
    };
    let first = run_sweep(&spec, &store, &quiet(2)).unwrap();
    assert_eq!(first.executed, 2);

    let text = std::fs::read_to_string(&store).unwrap();
    assert!(!text.contains("\"victim\""), "v7 records carry no victim");
    let mut aged = String::new();
    for (i, line) in text.lines().enumerate() {
        let key_field_start = line.find("\"key\":\"").unwrap() + "\"key\":\"".len();
        let old_key = &line[key_field_start..key_field_start + 32];
        let victim = if i == 0 { "lru" } else { "random" };
        let v6 = line.replace(old_key, &format!("{i:032x}")).replace(
            "\"oversub_pct\":150",
            &format!("\"oversub_pct\":150,\"victim\":\"{victim}\""),
        );
        assert!(v6.contains(victim), "replacement must fire");
        aged.push_str(&v6);
        aged.push('\n');
    }
    std::fs::write(&store, aged).unwrap();

    let resumed = run_sweep(&spec, &store, &quiet(2)).unwrap();
    assert_eq!(
        resumed.corrupt_lines, 1,
        "the random-victim line is dropped"
    );
    assert_eq!(resumed.migrated, 1, "only the LRU record re-homes");
    assert_eq!(resumed.executed, 1, "the random-victim unit runs again");
    assert_eq!(resumed.skipped, 1);
    let current: Vec<_> = resumed
        .records
        .iter()
        .filter(|r| !r.key.starts_with("000000000000000000000000000000"))
        .cloned()
        .collect();
    assert_eq!(fingerprint(&current), fingerprint(&first.records));

    std::fs::remove_file(&store).ok();
}

#[test]
fn injected_panics_quarantine_without_aborting_siblings() {
    let store = temp_store("quarantine");
    let spec = small_spec();

    let outcome = run_sweep(
        &spec,
        &store,
        &SweepOptions {
            inject_panic: vec!["jacobi".into()],
            retries: 1,
            ..quiet(2)
        },
    )
    .unwrap();

    // Both jacobi runs quarantined after 1 try + 1 retry; both pagerank
    // runs unaffected.
    assert_eq!(outcome.executed, 4);
    assert_eq!(outcome.quarantined, 2);
    for r in &outcome.records {
        if r.app == "jacobi" {
            assert_eq!(r.status, RunStatus::Quarantined);
            assert_eq!(r.attempts, 2);
            assert!(r.error.as_deref().unwrap().contains("injected failure"));
        } else {
            assert_eq!(r.status, RunStatus::Ok);
            assert!(r.steady_cycles > 0.0);
        }
    }

    // Resuming without injection re-runs exactly the quarantined keys and
    // heals the store.
    let healed = run_sweep(&spec, &store, &quiet(2)).unwrap();
    assert_eq!(healed.skipped, 2, "healthy runs stay cached");
    assert_eq!(healed.executed, 2, "quarantined keys are re-attempted");
    assert!(healed.records.iter().all(|r| r.status == RunStatus::Ok));

    // The raw store keeps the full history; the latest view hides it.
    let (all, _) = ResultStore::load(&store).unwrap();
    assert_eq!(all.len(), 6, "2 quarantine records + 4 ok records");

    std::fs::remove_file(&store).ok();
}
