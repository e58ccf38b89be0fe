//! The figure harness must reproduce the paper's qualitative shapes even
//! at tiny test scale: these tests run the actual figure code and assert
//! the relationships the paper's evaluation narrative rests on.

use gps_figures::figures;
use gps_figures::figures::FigureCtx;
use gps_workloads::ScaleProfile;

const SCALE: ScaleProfile = ScaleProfile::Tiny;

fn mem() -> FigureCtx {
    FigureCtx::in_memory()
}

#[test]
fn fig3_gap_narrows_but_persists() {
    let fig = figures::fig3();
    let gaps = fig.column("Gap");
    assert_eq!(gaps.len(), 5);
    // The local/remote gap shrinks monotonically across generations...
    for w in gaps.windows(2) {
        assert!(w[1] <= w[0]);
    }
    // ...but never closes (the paper's ~3x motivation).
    assert!(*gaps.last().unwrap() > 2.0);
    assert!(gaps[0] > 10.0);
}

#[test]
fn fig8_gps_dominates_baselines_in_geomean() {
    let fig = figures::fig8(&mem(), SCALE);
    let geo = |col: &str| fig.value("geomean", col).unwrap();
    let gps = geo("GPS");
    for baseline in ["UM", "UM + hints", "RDL", "Memcpy"] {
        assert!(
            gps > geo(baseline),
            "GPS ({gps}) must beat {baseline} ({})",
            geo(baseline)
        );
    }
    assert!(geo("Infinite BW") >= gps);
    assert!(geo("UM") < 1.0, "UM must lose to a single GPU");
}

#[test]
fn fig9_distributions_match_table2_patterns() {
    let fig = figures::fig9(&mem(), SCALE);
    // Halo-exchange stencils: dominated by 2-subscriber pages.
    for app in ["jacobi", "eqwp", "diffusion", "hit"] {
        let two = fig.value(app, "2 subscribers").unwrap();
        assert!(two > 60.0, "{app}: expected 2-sub dominance, got {two}%");
    }
    // All-to-all apps: dominated by 4-subscriber pages.
    for app in ["als", "ct"] {
        let four = fig.value(app, "4 subscribers").unwrap();
        assert!(four > 90.0, "{app}: expected 4-sub dominance, got {four}%");
    }
    // Many-to-many: a genuine mix.
    let sssp4 = figures::fig9(&mem(), SCALE); // deterministic: same values
    let _ = sssp4;
    let (s2, s3) = (
        fig.value("sssp", "2 subscribers").unwrap(),
        fig.value("sssp", "3 subscribers").unwrap(),
    );
    assert!(s2 > 10.0 && s3 > 10.0, "sssp should mix: {s2}% / {s3}%");
}

#[test]
fn fig11_subscription_is_the_primary_factor_for_p2p_apps() {
    let fig = figures::fig11(&mem(), SCALE);
    for app in ["jacobi", "diffusion", "hit", "eqwp"] {
        let with = fig.value(app, "GPS with subscription").unwrap();
        let without = fig.value(app, "GPS w/o subscription").unwrap();
        assert!(
            with > without * 1.2,
            "{app}: subscription should matter ({with} vs {without})"
        );
    }
    // ALS and CT are all-to-all: subscription changes nothing.
    for app in ["als", "ct"] {
        let with = fig.value(app, "GPS with subscription").unwrap();
        let without = fig.value(app, "GPS w/o subscription").unwrap();
        assert!(
            (with - without).abs() / with < 0.05,
            "{app}: all-to-all should be insensitive ({with} vs {without})"
        );
    }
}

#[test]
fn fig14_zero_rows_and_rising_rows() {
    let fig = figures::fig14(SCALE);
    for app in ["jacobi", "pagerank", "sssp", "als"] {
        for col in ["0", "512", "1024"] {
            assert_eq!(
                fig.value(app, col).unwrap(),
                0.0,
                "{app} must have a 0% hit rate (SM coalescer / atomics)"
            );
        }
    }
    for app in ["ct", "eqwp", "diffusion", "hit"] {
        let at0 = fig.value(app, "0").unwrap();
        let at32 = fig.value(app, "32").unwrap();
        let at512 = fig.value(app, "512").unwrap();
        assert_eq!(at0, 0.0);
        assert!(at512 > 0.0, "{app} must coalesce at 512 entries");
        assert!(at512 >= at32, "{app}: hit rate must not fall with capacity");
    }
}

#[test]
fn fig13_baselines_converge_with_bandwidth_but_gps_stays_ahead() {
    let fig = figures::fig13(&mem(), SCALE);
    let first = &fig.rows.first().unwrap().0;
    let last = &fig.rows.last().unwrap().0;
    let memcpy_3 = fig.value(first, "Memcpy").unwrap();
    let memcpy_6 = fig.value(last, "Memcpy").unwrap();
    assert!(memcpy_6 > memcpy_3, "memcpy must improve with bandwidth");
    for row in [first.clone(), last.clone()] {
        let gps = fig.value(&row, "GPS").unwrap();
        let memcpy = fig.value(&row, "Memcpy").unwrap();
        assert!(gps > memcpy, "{row}: GPS must stay ahead of memcpy");
    }
}

#[test]
fn extension_scaling_curve_is_monotone_for_gps() {
    let fig = figures::scaling_curve(&mem(), SCALE);
    let gps = fig.column("GPS");
    assert_eq!(gps.len(), 4); // 2, 4, 8, 16 GPUs
    for w in gps.windows(2) {
        assert!(
            w[1] > w[0] * 0.95,
            "GPS scaling should not regress: {gps:?}"
        );
    }
    let inf = fig.column("Infinite BW");
    for (g, i) in gps.iter().zip(&inf) {
        assert!(g <= i);
    }
}

#[test]
fn figures_resume_from_result_store() {
    let dir = std::env::temp_dir().join(format!("gps_fig_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("figures.jsonl");
    let _ = std::fs::remove_file(&store);
    let lines = || {
        std::fs::read_to_string(&store)
            .map(|s| s.lines().count())
            .unwrap_or(0)
    };

    let ctx = FigureCtx::with_store(&store);
    let runners: [fn(&FigureCtx, ScaleProfile) -> figures::Figure; 2] =
        [figures::fig9, figures::topology_comparison];
    for run in runners {
        let before = lines();
        let first = run(&ctx, SCALE);
        let after = lines();
        assert!(
            after >= before + 8,
            "expected at least one record per suite app, got {}",
            after - before
        );

        // Regenerating against the same store must be all cache hits: no
        // new records appended, identical figure values.
        let second = run(&ctx, SCALE);
        assert_eq!(
            after,
            lines(),
            "regeneration must not re-run completed keys"
        );
        assert_eq!(first.rows, second.rows);

        // The store path and the in-memory path feed the figure math the
        // same numbers (the JSON codec round-trips f64 exactly).
        let in_memory = run(&mem(), SCALE);
        assert_eq!(first.rows, in_memory.rows, "{}", first.title);
        assert_eq!(first.columns, in_memory.columns);
    }

    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn table_renderers_contain_the_key_rows() {
    let t1 = figures::table1();
    assert!(t1.contains("512 entries"));
    assert!(t1.contains("135 bytes"));
    assert!(t1.contains("49 bits"));
    let t2 = figures::table2();
    for app in [
        "jacobi",
        "pagerank",
        "sssp",
        "als",
        "ct",
        "eqwp",
        "diffusion",
        "hit",
    ] {
        assert!(t2.contains(app), "{app} missing from Table 2");
    }
    // Figure rendering produces an aligned table with all rows.
    let rendered = figures::fig3().render();
    assert!(rendered.contains("DGX-A100"));
    assert!(rendered.lines().count() >= 7);
}
