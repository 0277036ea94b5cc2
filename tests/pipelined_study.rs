//! The pipelined executor's determinism contract, end to end through
//! the manifest layer: a `StudySpec` study folded into a [`Manifest`]
//! must produce a `stats_json()` **byte-identical** across any job
//! count — and byte-identical to a hand-written serial reference that
//! uses no study or pool machinery at all, just nested loops over the
//! same matrix.

use std::sync::atomic::{AtomicUsize, Ordering};

use cluster_study::manifest::Manifest;
use cluster_study::study::{run_cell, StudyEvent, StudySpec};
use coherence::config::CacheSpec;
use splash::{by_name, ProblemSize};

const APPS: [&str; 2] = ["lu", "fft"];
const CACHES: [CacheSpec; 2] = [CacheSpec::PerProcBytes(4096), CacheSpec::Infinite];
const SIZES: [u32; 3] = [1, 2, 8];
const PROCS: usize = 8;

/// The old-style reference: generate each trace, then plain nested
/// loops app → cache → cluster size, recording into a manifest.
fn serial_reference() -> Manifest {
    let mut m = Manifest::new("pipelined_study", "small", PROCS, 1);
    for app in APPS {
        let trace = by_name(app, ProblemSize::Small).unwrap().generate(PROCS);
        for cache in CACHES {
            for c in SIZES {
                let rs = run_cell(&trace, c, cache, None).unwrap().0;
                m.record_run(app, &cache.label(), c, &rs, None);
            }
        }
    }
    m
}

/// The same matrix through the pipelined executor at `jobs`, folded
/// into a manifest the same way the bench tools do.
fn study_manifest(jobs: usize) -> (Manifest, usize, usize) {
    let gens = AtomicUsize::new(0);
    let sims = AtomicUsize::new(0);
    let run = StudySpec::generate(&APPS, ProblemSize::Small, PROCS)
        .caches(CACHES)
        .cluster_sizes(&SIZES)
        .jobs(jobs)
        .run_with(|e| match e {
            StudyEvent::GenDone { .. } => {
                gens.fetch_add(1, Ordering::Relaxed);
            }
            StudyEvent::SimDone { .. } => {
                sims.fetch_add(1, Ordering::Relaxed);
            }
            StudyEvent::GenFailed { name, error, .. } => {
                panic!("unexpected gen failure for {name}: {error}")
            }
            StudyEvent::SimFailed { name, error, .. } => {
                panic!("unexpected sim failure for {name}: {error}")
            }
        });
    let mut m = Manifest::new("pipelined_study", "small", PROCS, jobs);
    for (name, cap) in run.names.iter().zip(run.per_trace()) {
        for sweep in &cap.sweeps {
            m.record_sweep(name, sweep, None);
        }
    }
    m.timing = Some(run.timing);
    (m, gens.into_inner(), sims.into_inner())
}

#[test]
fn stats_identical_across_job_counts_and_to_serial_reference() {
    let reference = serial_reference().stats_json().to_string();
    for jobs in [1usize, 2, 8] {
        let (m, gens, sims) = study_manifest(jobs);
        // Every work item ran exactly once, whatever the schedule.
        assert_eq!(gens, APPS.len(), "jobs={jobs}: gen item count");
        assert_eq!(
            sims,
            APPS.len() * CACHES.len() * SIZES.len(),
            "jobs={jobs}: sim item count"
        );
        assert_eq!(
            m.stats_json().to_string(),
            reference,
            "jobs={jobs}: stats view diverged from the serial reference"
        );
        assert_eq!(
            m.to_csv(),
            serial_reference().to_csv(),
            "jobs={jobs}: CSV diverged"
        );
    }
}

#[test]
fn manifest_json_carries_the_phase_timing_fields() {
    let (m, _, _) = study_manifest(2);
    let body = m.to_json().to_string();
    let doc = simcore::json::parse(&body).expect("manifest JSON parses");
    let timing = doc.get("timing").expect("timing block present");
    for key in [
        "items",
        "jobs",
        "cumulative_seconds",
        "wall_seconds",
        "speedup",
        "gen_wall_seconds",
        "sim_wall_seconds",
        "serial_estimate_seconds",
        "wall_speedup",
    ] {
        assert!(timing.get(key).is_some(), "timing missing {key}");
    }
    assert_eq!(
        timing.get("items").and_then(simcore::json::Json::as_u64),
        Some((APPS.len() * CACHES.len() * SIZES.len()) as u64),
        "timing.items counts simulation items only"
    );
    assert_eq!(
        timing.get("jobs").and_then(simcore::json::Json::as_u64),
        Some(2)
    );
    // The timing block is provenance, not results: the stats view
    // must not contain it.
    let stats = m.stats_json().to_string();
    assert!(!stats.contains("gen_wall_seconds"));
    assert!(!stats.contains("\"timing\""));
}

#[test]
fn serial_run_records_its_own_measured_baseline() {
    let (m, _, _) = study_manifest(1);
    let timing = m.timing.expect("timing recorded");
    // jobs=1 *is* the serial path, so the measured baseline is the
    // run's own wall and the honest speedup is exactly 1.
    assert_eq!(timing.serial_baseline, Some(timing.wall));
    assert!((timing.wall_speedup() - 1.0).abs() < 1e-9);
    let body = timing.to_json().to_string();
    assert!(body.contains("serial_baseline_seconds"));
}
