//! End-to-end integration: every application runs through the full
//! stack (trace generation → coherence model → timing engine) and
//! produces structurally sound results.

use cluster_study::study::{run_cell, StudySpec};
use coherence::config::CacheSpec;
use splash::{suite, ProblemSize, SplashApp};

#[test]
fn every_app_runs_end_to_end_at_16_procs() {
    for app in suite(ProblemSize::Small) {
        let trace = app.generate(16);
        trace
            .validate()
            .unwrap_or_else(|e| panic!("{}: invalid trace: {e}", app.name()));
        let rs = run_cell(&trace, 4, CacheSpec::PerProcBytes(4096), None)
            .unwrap()
            .0;
        assert!(rs.exec_time > 0, "{}: empty run", app.name());
        assert!(
            rs.mem.total_misses() > 0,
            "{}: no misses at all?",
            app.name()
        );
        for (p, bd) in rs.per_proc.iter().enumerate() {
            assert_eq!(
                bd.total(),
                rs.exec_time,
                "{} proc {p}: breakdown does not sum",
                app.name()
            );
        }
    }
}

#[test]
fn every_app_is_deterministic_end_to_end() {
    for app in suite(ProblemSize::Small) {
        let t1 = app.generate(8);
        let t2 = app.generate(8);
        assert_eq!(
            t1.per_proc,
            t2.per_proc,
            "{}: trace generation not deterministic",
            app.name()
        );
        let m1 = run_cell(&t1, 2, CacheSpec::Infinite, None).unwrap().0;
        let m2 = run_cell(&t2, 2, CacheSpec::Infinite, None).unwrap().0;
        assert_eq!(m1.exec_time, m2.exec_time, "{}", app.name());
        assert_eq!(m1.mem, m2.mem, "{}", app.name());
    }
}

#[test]
fn all_apps_touch_every_processor() {
    for app in suite(ProblemSize::Small) {
        let trace = app.generate(8);
        for (p, ops) in trace.per_proc.iter().enumerate() {
            assert!(
                ops.len() > 1,
                "{} proc {p}: only {} ops",
                app.name(),
                ops.len()
            );
        }
    }
}

#[test]
fn cluster_sweep_baseline_is_100_percent() {
    let trace = splash::lu::Lu::small().generate(16);
    let sweep = StudySpec::for_trace(&trace)
        .caches([CacheSpec::Infinite])
        .cluster_sizes(&[1, 2, 4, 8])
        .run_sweep();
    let totals = sweep.normalized_totals();
    assert_eq!(totals[0].0, 1);
    assert!((totals[0].1 - 100.0).abs() < 1e-9);
    // Default cluster sizes (no .cluster_sizes call) are the paper's.
    let default_sweep = StudySpec::for_trace(&trace)
        .caches([CacheSpec::Infinite])
        .run_sweep();
    assert_eq!(
        default_sweep.runs.len(),
        cluster_study::study::CLUSTER_SIZES.len()
    );
}

#[test]
fn umbrella_crate_reexports_whole_stack() {
    // The root crate is the public face; make sure the documented API
    // path works.
    use clustered_smp::{cluster_study as cs, coherence as ch, simcore as sc, splash as sp};
    let app = sp::fft::Fft::small();
    let trace = sp::SplashApp::generate(&app, 8);
    let rs = cs::study::run_cell(&trace, 2, ch::config::CacheSpec::Infinite, None)
        .unwrap()
        .0;
    assert!(rs.exec_time > 0);
    let _ = sc::addr::line_of(128);
    let _ = clustered_smp::tango::EngineOptions::default();
}
