//! Pins the observability counters of the full reduce + sweep pipeline
//! on a known RC ladder — the counts are exact, not bounds, so any
//! silent change in the numerical path (an extra deflation, a dense-LU
//! fallback, a second symbolic analysis) trips a test instead of a
//! performance regression three PRs later.
//!
//! Capture-based tests live in their own integration-test binary: the
//! obs sink is process-global, and `mpvl_obs::capture` holds recording
//! open while it runs — unit tests of the same crate running on sibling
//! threads would leak events into the capture.

use mpvl_circuit::generators::{peec, rc_ladder, PeecParams};
use mpvl_circuit::MnaSystem;
use mpvl_sim::{ac_sweep_with_threads, log_space};
use sympvl::{sympvl, SympvlOptions};

fn ladder_system() -> MnaSystem {
    MnaSystem::assemble(&rc_ladder(64, 10.0, 1e-12)).expect("assemble")
}

#[test]
fn rc_ladder_reduction_counters_are_pinned() {
    let sys = ladder_system();
    let opts = SympvlOptions::default();
    let ((), cap) = mpvl_obs::capture(|| {
        sympvl(&sys, 8, &opts).expect("reduce");
    });

    // A single-port RC ladder is the benign case: no starting-block or
    // in-iteration deflations, and every look-ahead cluster closes on
    // its own (well-conditioned Δ), never by hitting `max_cluster`.
    assert_eq!(cap.counter("lanczos", "deflations"), 0);
    assert_eq!(cap.counter("lanczos", "forced_cluster_closes"), 0);
    assert_eq!(cap.counter("lanczos", "clusters_closed"), 8);
    // 8 accepted candidates + the flush pass that drains the queue once
    // the requested order is reached.
    assert_eq!(cap.counter("lanczos", "iterations"), 9);
    assert_eq!(cap.counter("lanczos", "accepted_vectors"), 8);
    assert!(cap.events_named("lanczos", "deflation").is_empty());
}

#[test]
fn ungrounded_ladder_auto_skips_the_unshifted_factor() {
    // The ladder has no resistor to ground, so G is singular by
    // topology: Auto factors the shifted matrix straight away, and
    // neither attempt needs the dense fallback.
    let sys = ladder_system();
    assert!(sys.g_structurally_singular);
    let opts = SympvlOptions::default();
    let ((), cap) = mpvl_obs::capture(|| {
        sympvl(&sys, 8, &opts).expect("reduce");
    });
    assert_eq!(cap.counter("factor", "auto_structural_skips"), 1);
    assert_eq!(cap.counter("factor", "dense_fallbacks"), 0);
    // The counter export, byte for byte; CI reruns this binary at
    // MPVL_THREADS=2 and 4 against the same text.
    let export = cap.to_json_lines();
    let counters: Vec<&str> = export
        .lines()
        .filter(|l| l.starts_with("{\"kind\":\"counter\""))
        .collect();
    assert_eq!(
        counters,
        [
            r#"{"kind":"counter","stage":"factor","name":"auto_structural_skips","value":1}"#,
            r#"{"kind":"counter","stage":"lanczos","name":"accepted_vectors","value":8}"#,
            r#"{"kind":"counter","stage":"lanczos","name":"clusters_closed","value":8}"#,
            r#"{"kind":"counter","stage":"lanczos","name":"iterations","value":9}"#,
            r#"{"kind":"counter","stage":"ldlt","name":"numeric_refactor","value":1}"#,
            r#"{"kind":"counter","stage":"ldlt","name":"supernodes","value":64}"#,
            r#"{"kind":"counter","stage":"ldlt","name":"symbolic_analyze","value":1}"#,
        ]
    );

    // Without the flag (a hand-built system), Auto still probes G: the
    // sparse factor breaks down and the dense fallback runs, only for
    // its result to be rejected.
    let probed = MnaSystem {
        g_structurally_singular: false,
        ..sys
    };
    let ((), cap) = mpvl_obs::capture(|| {
        sympvl(&probed, 8, &opts).expect("reduce");
    });
    assert_eq!(cap.counter("factor", "auto_structural_skips"), 0);
    assert_eq!(cap.counter("factor", "dense_fallbacks"), 1);
}

#[test]
fn rc_ladder_sweep_counters_are_pinned() {
    let sys = ladder_system();
    let freqs = log_space(1e6, 1e10, 21);
    let (res, cap) = mpvl_obs::capture(|| ac_sweep_with_threads(&sys, &freqs, 1));
    res.expect("sweep");

    // One symbolic analysis on the union pattern, one numeric refactor
    // per frequency point, and the sparse path never falls back to the
    // dense LU on this well-posed system.
    assert_eq!(cap.counter("ac", "points"), freqs.len() as u64);
    assert_eq!(cap.counter("ac", "dense_lu_fallbacks"), 0);
    assert_eq!(cap.counter("ldlt", "symbolic_analyze"), 1);
    assert_eq!(cap.counter("ldlt", "numeric_refactor"), freqs.len() as u64);
    assert_eq!(cap.counter("ldlt", "zero_pivots"), 0);

    // Every point records its solve kind, tagged with its input index.
    let points = cap.events_named("ac", "point");
    assert_eq!(points.len(), freqs.len());
    for (i, ev) in points.iter().enumerate() {
        assert_eq!(ev.index, i as u64);
        match ev.field("solve") {
            Some(mpvl_obs::Value::Str(kind)) => assert_eq!(*kind, "sparse_refactor"),
            other => panic!("point {i}: bad solve field {other:?}"),
        }
    }
}

#[test]
fn exported_events_are_identical_across_thread_counts() {
    let sys = ladder_system();
    let freqs = log_space(1e6, 1e10, 33);
    let (r1, cap1) = mpvl_obs::capture(|| ac_sweep_with_threads(&sys, &freqs, 1));
    let (r4, cap4) = mpvl_obs::capture(|| ac_sweep_with_threads(&sys, &freqs, 4));
    r1.expect("serial sweep");
    r4.expect("parallel sweep");

    // The determinism rule: the event/counter export carries no worker
    // tags and is sorted by (stage, index), so scheduling cannot show
    // through — byte-identical JSON at any thread count.
    let lines1 = cap1.to_json_lines();
    let lines4 = cap4.to_json_lines();
    assert!(!lines1.is_empty());
    assert_eq!(lines1, lines4);
    mpvl_obs::validate_json_lines(&lines1).expect("valid JSON lines");
}

#[test]
fn symbolic_analysis_spans_its_stages_and_counts_dense_rows() {
    // The PEEC inductance matrix is dense, so every one of its 100 rows
    // is above the ordering's dense threshold and set aside.
    let sys = peec(&PeecParams::default()).system;
    let opts = SympvlOptions::default();
    let ((), cap) = mpvl_obs::capture(|| {
        sympvl(&sys, 8, &opts).expect("reduce");
    });
    let analyses = cap.counter("ldlt", "symbolic_analyze");
    assert!(analyses >= 1);
    assert_eq!(cap.counter("ldlt", "dense_rows"), 100 * analyses);
    let spans = |name: &str| -> u64 {
        cap.timings
            .iter()
            .filter(|t| t.stage == "ldlt" && t.name == name)
            .map(|t| t.count)
            .sum()
    };
    assert_eq!(spans("order"), analyses);
    assert_eq!(spans("symbolic"), analyses);

    // The ladder's rows are all sparse: the counter stays out of the
    // export (the pinned export above has no dense_rows line).
    let ((), cap) = mpvl_obs::capture(|| {
        sympvl(&ladder_system(), 8, &opts).expect("reduce");
    });
    assert!(!cap.to_json_lines().contains("dense_rows"));
}
