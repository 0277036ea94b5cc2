//! Differential tests of sampled studies against full replays: the
//! sampled path keeps every determinism guarantee the full path has
//! (bit-identical across job counts), its estimates stay inside the
//! declared error bounds on real cells, warmup operations are replayed
//! for cache state but never counted, and checkpoint/cache prefill
//! entries only stand in for runs under the *same* sampling spec.

use std::time::Duration;

use cluster_study::parallel::RunStatus;
use cluster_study::study::{run_cell, CellOutcome, StudySpec};
use cluster_study::JournalEntry;
use coherence::config::CacheSpec;
use simcore::ops::Op;
use simcore::sample::{self, OpClass, SampleMode, SamplePlan, SampleSpec, SamplingStats};
use splash::ProblemSize;
use tango::EngineOptions;

/// Runs one single-app sampled study and returns each cell's
/// `(cluster, stats, sampling)` in matrix order.
fn sampled_cells(
    jobs: usize,
    spec: SampleSpec,
) -> Vec<(u32, simcore::stats::RunStats, Option<SamplingStats>)> {
    let run = StudySpec::generate(&["lu"], ProblemSize::Small, 8)
        .caches([CacheSpec::PerProcBytes(4096)])
        .sampling(spec)
        .jobs(jobs)
        .run_with(|_| {});
    run.cells
        .iter()
        .map(|c| match &c.outcome {
            CellOutcome::Done {
                stats, sampling, ..
            } => (c.cluster, stats.clone(), *sampling),
            CellOutcome::Failed { error, .. } => panic!("cell failed: {error}"),
        })
        .collect()
}

#[test]
fn sampled_studies_are_bit_identical_across_job_counts() {
    for mode in SampleMode::ALL {
        let spec = SampleSpec::new(mode);
        let serial = sampled_cells(1, spec);
        let fanned = sampled_cells(4, spec);
        assert_eq!(serial, fanned, "{mode:?}: job count changed results");
        for (_, _, sampling) in &serial {
            let s = sampling.expect("sampled cell must carry provenance");
            assert_eq!(s.spec(), spec, "{mode:?}: provenance spec drifted");
            assert!(s.ops_measured < s.ops_total, "{mode:?}: nothing skipped");
        }
    }
}

#[test]
fn sampled_estimates_stay_inside_declared_bounds_on_small_cells() {
    // Three real cells of the paper matrix, one per application.
    let cells = [
        ("lu", CacheSpec::Infinite, 2u32),
        ("fft", CacheSpec::PerProcBytes(4096), 4),
        ("radix", CacheSpec::PerProcBytes(16 * 1024), 1),
    ];
    for (app, cache, cluster) in cells {
        let trace = cluster_study::apps::trace_for(app, ProblemSize::Small, 8);
        let full = run_cell(&trace, cluster, cache, None).unwrap().0;
        for mode in SampleMode::ALL {
            let spec = SampleSpec::new(mode);
            let (sampled, Some(ss)) = run_cell(&trace, cluster, cache, Some(&spec)).unwrap() else {
                panic!("a sampled cell carries its provenance");
            };
            let miss_err = sample::rel_err(
                ss.estimated_read_miss_rate(&sampled.mem),
                full.mem.read_miss_rate(),
                sample::MISS_RATE_FLOOR,
            );
            assert!(
                miss_err <= sample::MISS_RATE_BOUND,
                "{app}/{cluster}p {mode:?}: miss-rate error {miss_err:.4} over bound"
            );
            let exec_err = sample::rel_err(
                ss.estimated_exec_time(sampled.exec_time),
                full.exec_time as f64,
                1.0,
            );
            assert!(
                exec_err <= sample::EXEC_TIME_BOUND,
                "{app}/{cluster}p {mode:?}: exec-time error {exec_err:.4} over bound"
            );
        }
    }
}

/// Counts the memory operations of a single-processor trace that a
/// plan classifies `Measure`.
fn measured_mem_ops(trace: &simcore::ops::Trace, plan: &SamplePlan) -> u64 {
    trace.per_proc[0]
        .iter()
        .enumerate()
        .filter(|(idx, op)| {
            matches!(op.unpack(), Op::Read(_) | Op::Write(_))
                && plan.class(0, *idx) == OpClass::Measure
        })
        .count() as u64
}

#[test]
fn warmup_ops_touch_caches_but_never_count_in_stats() {
    // Single processor: no contention, so every measured access lands
    // in exactly one hit-or-miss counter and the counts are exact.
    let trace = cluster_study::apps::trace_for("lu", ProblemSize::Small, 1);
    let spec = SampleSpec {
        rate: 0.25,
        interval_ops: 128,
        warmup_ops: 256,
        ..SampleSpec::new(SampleMode::Periodic)
    };
    let plan = SamplePlan::for_trace(&trace, &spec);
    assert!(plan.stats().ops_warm > 0, "spec must produce warm ranges");
    let machine = coherence::MachineConfig {
        n_procs: 1,
        per_cluster: 1,
        cache: CacheSpec::PerProcBytes(4096),
        lat: coherence::LatencyTable::paper(),
    };
    let rs = tango::try_run_sampled(&trace, machine, EngineOptions::default(), &plan).unwrap();
    // Every measured access lands in exactly one of these counters
    // (a write to a locally-shared line counts as an upgrade miss).
    let counted = |m: &simcore::stats::MissStats| {
        m.read_hits + m.read_misses + m.write_hits + m.write_misses + m.upgrade_misses
    };
    let measured = counted(&rs.stats.mem);
    assert_eq!(
        measured,
        measured_mem_ops(&trace, &plan),
        "stats must count exactly the measured accesses, never warmup"
    );
    // The warm accesses surface as functional outcomes on the side —
    // never in the deterministic stats view.
    assert!(
        counted(&rs.warm_mem) > 0,
        "warm replay must report functional outcomes"
    );
    // The planted-bug lever counts warmup accesses too, so the same
    // replay under it inflates the counters — proof the engine really
    // replays warm ops and that only classification keeps them out.
    let buggy = plan.clone().with_warm_counted();
    let rs_buggy =
        tango::try_run_sampled(&trace, machine, EngineOptions::default(), &buggy).unwrap();
    assert!(
        counted(&rs_buggy.stats.mem) > measured,
        "warm-counting plan must inflate the access counters"
    );
}

/// A result-cache entry for one lu cell, recorded under `sampling`.
fn entry(cluster: u32, sampling: Option<SamplingStats>) -> JournalEntry {
    let trace = cluster_study::apps::trace_for("lu", ProblemSize::Small, 8);
    let stats = run_cell(&trace, cluster, CacheSpec::PerProcBytes(4096), None)
        .unwrap()
        .0;
    JournalEntry {
        app: "lu".to_string(),
        cache: CacheSpec::PerProcBytes(4096).label(),
        cluster,
        stats,
        wall: Some(Duration::from_millis(1)),
        status: RunStatus::Ok,
        attempts: 1,
        sampling,
    }
}

#[test]
fn prefill_entries_only_match_the_same_sampling_spec() {
    let spec = SampleSpec::new(SampleMode::Periodic);
    let trace = cluster_study::apps::trace_for("lu", ProblemSize::Small, 8);
    let plan_stats = SamplePlan::for_trace(&trace, &spec).stats();

    // A full-run entry must not be served to a sampled study.
    let run = StudySpec::generate(&["lu"], ProblemSize::Small, 8)
        .caches([CacheSpec::PerProcBytes(4096)])
        .cluster_sizes(&[1, 2])
        .sampling(spec)
        .cache_prefill(vec![entry(1, None), entry(2, None)])
        .run_with(|_| {});
    assert_eq!(run.cached_cells(), 0, "full entries served a sampled study");

    // A sampled entry must not be served to a full study.
    let sampled_entries = vec![entry(1, Some(plan_stats)), entry(2, Some(plan_stats))];
    let run = StudySpec::generate(&["lu"], ProblemSize::Small, 8)
        .caches([CacheSpec::PerProcBytes(4096)])
        .cluster_sizes(&[1, 2])
        .cache_prefill(sampled_entries.clone())
        .run_with(|_| {});
    assert_eq!(run.cached_cells(), 0, "sampled entries served a full study");

    // The same spec matches — and a *different* spec does not.
    let run = StudySpec::generate(&["lu"], ProblemSize::Small, 8)
        .caches([CacheSpec::PerProcBytes(4096)])
        .cluster_sizes(&[1, 2])
        .sampling(spec)
        .cache_prefill(sampled_entries.clone())
        .run_with(|_| {});
    assert_eq!(run.cached_cells(), 2, "matching spec must be served");
    let other = SampleSpec { rate: 0.5, ..spec };
    let run = StudySpec::generate(&["lu"], ProblemSize::Small, 8)
        .caches([CacheSpec::PerProcBytes(4096)])
        .cluster_sizes(&[1, 2])
        .sampling(other)
        .cache_prefill(sampled_entries)
        .run_with(|_| {});
    assert_eq!(run.cached_cells(), 0, "different spec must re-execute");
}
