//! The parallel study runner must be a pure speedup: fanning the
//! experiment matrix out over threads — including the pipelined
//! two-phase executor with chunked stealing — may not change a single
//! bit of any result. These tests pin that contract for every
//! application in the small suite, comparing whole `RunStats` values
//! (exact integer cycle counts and counters) between the serial path
//! and the threaded path at several job counts.

use cluster_study::parallel::{resolve_jobs, run_items};
use cluster_study::study::{run_cell, StudySpec, CLUSTER_SIZES};
use coherence::config::CacheSpec;
use simcore::ops::Trace;
use splash::{by_name, suite, ProblemSize};

fn small_traces(n_procs: usize) -> Vec<(String, Trace)> {
    suite(ProblemSize::Small)
        .iter()
        .map(|app| (app.name().to_string(), app.generate(n_procs)))
        .collect()
}

fn small_trace(name: &str, n_procs: usize) -> Trace {
    by_name(name, ProblemSize::Small).unwrap().generate(n_procs)
}

/// `--jobs 1` must be *literally* the serial path, and any higher job
/// count must reproduce it bit-identically, for every app.
#[test]
fn parallel_sweep_matches_serial_for_every_small_app() {
    for (name, trace) in small_traces(8) {
        // Serial reference, plain loop with no thread machinery.
        let serial: Vec<_> = CLUSTER_SIZES
            .iter()
            .map(|&c| {
                (
                    c,
                    run_cell(&trace, c, CacheSpec::PerProcBytes(4096), None)
                        .unwrap()
                        .0,
                )
            })
            .collect();
        for jobs in [1, 3] {
            let sweep = StudySpec::for_trace(&trace)
                .caches([CacheSpec::PerProcBytes(4096)])
                .cluster_sizes(&CLUSTER_SIZES)
                .jobs(jobs)
                .run_sweep();
            assert_eq!(
                sweep.runs, serial,
                "{name}: jobs={jobs} diverged from the serial sweep"
            );
        }
    }
}

/// The full capacity matrix (cache × cluster) must also be
/// order-stable and bit-identical under fan-out, at any job count.
#[test]
fn parallel_capacity_sweep_matches_serial() {
    let (name, trace) = ("lu", small_trace("lu", 8));
    let serial = StudySpec::for_trace(&trace).jobs(1).run_one();
    for jobs in [2, 4, 16] {
        let parallel = StudySpec::for_trace(&trace).jobs(jobs).run_one();
        assert_eq!(serial.sweeps.len(), parallel.sweeps.len());
        for (s, p) in serial.sweeps.iter().zip(&parallel.sweeps) {
            assert_eq!(s.cache, p.cache, "{name}: cache order changed");
            assert_eq!(
                s.runs, p.runs,
                "{name}: {:?} runs diverged at jobs={jobs}",
                s.cache
            );
        }
    }
}

/// The flat multi-app study fan-out must return per-app results in
/// input order, identical to running each app alone.
#[test]
fn study_fanout_preserves_app_order_and_results() {
    // Three apps exercise the flat pool; all nine is just slower.
    let named: Vec<(String, Trace)> = ["ocean", "mp3d", "volrend"]
        .iter()
        .map(|&n| (n.to_string(), small_trace(n, 8)))
        .collect();
    let traces: Vec<Trace> = named.iter().map(|(_, t)| t.clone()).collect();
    let study = StudySpec::new(&traces).jobs(3).run();
    assert_eq!(study.len(), traces.len());
    for ((name, trace), got) in named.iter().zip(&study) {
        let alone = StudySpec::for_trace(trace).jobs(1).run_one();
        for (s, p) in alone.sweeps.iter().zip(&got.sweeps) {
            assert_eq!(s.runs, p.runs, "{name}: study fan-out diverged");
        }
    }
}

/// The pipelined generated-source path (gen work items on the worker
/// pool) must agree with the pre-built-trace path exactly.
#[test]
fn generated_study_matches_prebuilt_traces() {
    let apps = ["lu", "fft"];
    let traces: Vec<Trace> = apps.iter().map(|&a| small_trace(a, 8)).collect();
    let prebuilt = StudySpec::new(&traces).jobs(1).run();
    for jobs in [1, 4] {
        let generated = StudySpec::generate(&apps, ProblemSize::Small, 8)
            .jobs(jobs)
            .run_with(|_| {});
        assert_eq!(generated.names, vec!["lu", "fft"]);
        for (t, (pre, gen)) in prebuilt.iter().zip(generated.per_trace()).enumerate() {
            for (s, p) in pre.sweeps.iter().zip(&gen.sweeps) {
                assert_eq!(
                    s.runs, p.runs,
                    "{}: pipelined gen at jobs={jobs} diverged",
                    apps[t]
                );
            }
        }
    }
}

/// run_items itself: input order, every item exactly once, and job
/// counts beyond the item count are harmless.
#[test]
fn run_items_orders_and_covers() {
    let items: Vec<u64> = (0..37).collect();
    for jobs in [1, 2, 3, 5, 64] {
        let out = run_items(&items, jobs, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }
}

/// The job-count resolution chain: explicit beats env beats default,
/// and the result is always at least 1.
#[test]
fn resolve_jobs_prefers_explicit() {
    assert_eq!(resolve_jobs(Some(7)), 7);
    assert_eq!(resolve_jobs(Some(1)), 1);
    assert!(resolve_jobs(None) >= 1);
}
