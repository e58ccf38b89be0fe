//! End-to-end determinism of the serve `--telemetry` lane and the HTML
//! report: same config, same bytes — run to run, and against a committed
//! digest of the streamed artifacts.
//!
//! Regenerate the digest (only when a telemetry change is *intended* and
//! understood):
//!
//! ```text
//! GPS_UPDATE_GOLDENS=1 cargo test -p gps-harness --test serve_telemetry
//! ```

use std::path::PathBuf;

use gps_harness::{run_serve_telemetry, serve_key, write_html_report, ResultStore};
use gps_serve::{serve, ArrivalModel, ServeConfig};

const GOLDEN_PATH: &str = "tests/goldens/serve_telemetry.txt";

/// 64-bit FNV-1a, chained over several byte strings.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gps-serve-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_config() -> ServeConfig {
    ServeConfig {
        arrival: ArrivalModel::Open {
            mean_interarrival: 300_000,
        },
        jobs: 10,
        ..ServeConfig::default()
    }
}

#[test]
fn telemetry_artifacts_are_byte_identical_across_runs() {
    let dir = scratch("bytes");
    let config = test_config();
    let (report_a, record_a, paths_a) = run_serve_telemetry(
        &config,
        &dir.join("a/serve.jsonl"),
        &dir.join("a/telemetry"),
    )
    .unwrap();
    let (report_b, _, paths_b) = run_serve_telemetry(
        &config,
        &dir.join("b/serve.jsonl"),
        &dir.join("b/telemetry"),
    )
    .unwrap();

    // The probed report matches the unprobed lane bit for bit.
    assert_eq!(report_a, serve(&config).unwrap());
    assert_eq!(report_a, report_b);
    assert_eq!(record_a.key, serve_key(&config));

    // Every streamed/derived artifact is byte-identical per seed.
    for (a, b) in [
        (&paths_a.metrics, &paths_b.metrics),
        (&paths_a.trace, &paths_b.trace),
        (&paths_a.summary, &paths_b.summary),
    ] {
        let bytes_a = std::fs::read(a).unwrap();
        let bytes_b = std::fs::read(b).unwrap();
        assert!(!bytes_a.is_empty(), "{} must not be empty", a.display());
        assert_eq!(bytes_a, bytes_b, "{} vs {}", a.display(), b.display());
    }

    // The metrics stream ends in an intact summary line with no drops.
    let metrics = std::fs::read_to_string(&paths_a.metrics).unwrap();
    let last = metrics.lines().last().unwrap();
    assert!(last.contains("\"k\":\"summary\""));
    assert!(last.contains("\"dropped_spans\":0"));
    // One span line per job (arrival-to-completion), tenant-laned.
    assert_eq!(
        metrics.matches("\"k\":\"span\"").count() as u64,
        config.jobs
    );
    assert!(metrics.contains("\"track\":\"tenant0\""));
    assert!(metrics.contains("serve_sojourn_cycles"));

    // The store got exactly one (deduplicated) record.
    let (records, corrupt) = ResultStore::load_latest(dir.join("a/serve.jsonl")).unwrap();
    assert_eq!((records.len(), corrupt), (1, 0));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_artifacts_match_committed_digest() {
    let dir = scratch("golden");
    let (_, _, paths) = run_serve_telemetry(
        &test_config(),
        &dir.join("serve.jsonl"),
        &dir.join("telemetry"),
    )
    .unwrap();
    let metrics = std::fs::read(&paths.metrics).unwrap();
    let trace = std::fs::read(&paths.trace).unwrap();
    let summary = std::fs::read(&paths.summary).unwrap();
    let current = format!(
        "# Serve telemetry fingerprint: test_config(), metrics.jsonl + trace.json + summary.txt.\n\
         digest={:016x} metrics_bytes={} trace_bytes={} summary_bytes={}\n",
        fnv1a(&[&metrics, &trace, &summary]),
        metrics.len(),
        trace.len(),
        summary.len(),
    );
    let _ = std::fs::remove_dir_all(&dir);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH);
    if std::env::var_os("GPS_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &current).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with GPS_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        committed,
        current,
        "serve telemetry streams drifted from {}: a code change altered the\n\
         emitted bytes. If that is intended, regenerate with GPS_UPDATE_GOLDENS=1\n\
         and explain the change in the commit.",
        path.display()
    );
}

#[test]
fn html_report_is_byte_identical_for_identical_stores() {
    let dir = scratch("html");
    let store = dir.join("serve.jsonl");
    let config = test_config();
    run_serve_telemetry(&config, &store, &dir.join("telemetry")).unwrap();
    // A second operating point so the serve section has a real curve.
    let faster = ServeConfig {
        arrival: ArrivalModel::Open {
            mean_interarrival: 150_000,
        },
        ..test_config()
    };
    run_serve_telemetry(&faster, &store, &dir.join("telemetry")).unwrap();

    let out_a = dir.join("report-a.html");
    let out_b = dir.join("report-b.html");
    let (charts_a, _) = write_html_report(&store, &out_a).unwrap();
    let (charts_b, _) = write_html_report(&store, &out_b).unwrap();
    assert_eq!(charts_a, charts_b);
    assert!(charts_a >= 1, "the serve lane renders at least one chart");

    let html_a = std::fs::read(&out_a).unwrap();
    let html_b = std::fs::read(&out_b).unwrap();
    assert_eq!(html_a, html_b, "identical stores render identical bytes");
    let text = String::from_utf8(html_a).unwrap();
    assert!(text.contains("QPS vs tail latency"));
    assert!(text.contains("jacobi+pagerank"));
    assert!(text.contains("polyline"), "two points draw a curve");

    let _ = std::fs::remove_dir_all(&dir);
}
