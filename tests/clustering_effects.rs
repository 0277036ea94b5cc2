//! Integration tests of the paper's qualitative claims — the
//! directional results the reproduction must preserve regardless of
//! calibration details.

use cluster_study::study::{run_cell, ClusterSweep, StudySpec};
use coherence::config::CacheSpec;
use simcore::ops::{Trace, TraceBuilder};
use splash::SplashApp;

fn sweep_sizes(trace: &Trace, cache: CacheSpec, sizes: &[u32]) -> ClusterSweep {
    StudySpec::for_trace(trace)
        .caches([cache])
        .cluster_sizes(sizes)
        .run_sweep()
}

/// Ocean: "the nearest neighbor communication in this application is
/// being captured by the cluster cache" — clustering reduces load
/// stall roughly by half per doubling.
#[test]
fn ocean_clustering_halves_border_traffic() {
    let trace = splash::ocean::Ocean::small().generate(16);
    let sweep = sweep_sizes(&trace, CacheSpec::Infinite, &[1, 2, 4]);
    let load = |i: usize| sweep.runs[i].1.per_proc.iter().map(|b| b.load).sum::<u64>() as f64;
    assert!(
        load(1) < load(0) * 0.75,
        "2-way clustering cut load only {} -> {}",
        load(0),
        load(1)
    );
    assert!(load(2) < load(1));
}

/// FFT: all-to-all communication — clustering can only remove the
/// (C-1)/(P-1) fraction of transpose traffic, so the benefit is small.
#[test]
fn fft_all_to_all_limits_clustering() {
    let trace = splash::fft::Fft::small().generate(16);
    let sweep = sweep_sizes(&trace, CacheSpec::Infinite, &[1, 4]);
    let totals = sweep.normalized_totals();
    // 4-way clustering on 16 procs removes at most 3/15 = 20% of
    // communication; total time must not improve by more than ~12%.
    assert!(
        totals[1].1 > 88.0,
        "FFT improved too much from clustering: {totals:?}"
    );
    assert!(totals[1].1 <= 100.5, "clustering must not hurt here");
}

/// MP3D: high unstructured communication — clustering gives the largest
/// infinite-cache benefit of the suite's unstructured codes.
#[test]
fn mp3d_benefits_more_than_barnes() {
    let mp3d = splash::mp3d::Mp3d::small().generate(16);
    let barnes = splash::barnes::Barnes::small().generate(16);
    let gain = |t: &simcore::ops::Trace| {
        let s = sweep_sizes(t, CacheSpec::Infinite, &[1, 8]);
        100.0 - s.normalized_totals()[1].1
    };
    assert!(
        gain(&mp3d) > gain(&barnes),
        "mp3d gain {} should exceed barnes gain {}",
        gain(&mp3d),
        gain(&barnes)
    );
}

/// Section 5's central result: with caches smaller than the working
/// set, clustering helps far more than with infinite caches, because
/// the overlapped working sets suddenly fit.
#[test]
fn working_set_overlap_beats_infinite_cache_gain() {
    let trace = splash::raytrace::Raytrace::small().generate(16);
    let small = sweep_sizes(&trace, CacheSpec::PerProcBytes(2048), &[1, 8]);
    let inf = sweep_sizes(&trace, CacheSpec::Infinite, &[1, 8]);
    let small_gain = 100.0 - small.normalized_totals()[1].1;
    let inf_gain = 100.0 - inf.normalized_totals()[1].1;
    assert!(
        small_gain > inf_gain,
        "finite-cache gain {small_gain:.1} should exceed infinite-cache gain {inf_gain:.1}"
    );
}

/// Merge stalls grow with clustering: beyond the occasional
/// read-behind-own-write-miss merge a lone processor can suffer,
/// cluster mates merge on each other's outstanding fills (the paper's
/// prefetching effect showing up as merge time).
#[test]
fn merges_grow_with_clustering() {
    let trace = splash::radix::Radix::small().generate(16);
    let alone = run_cell(&trace, 1, CacheSpec::Infinite, None).unwrap().0;
    let grouped = run_cell(&trace, 4, CacheSpec::Infinite, None).unwrap().0;
    assert!(
        grouped.mem.merge_stalls > alone.mem.merge_stalls,
        "radix should merge on its shared histogram tree: {} vs {}",
        grouped.mem.merge_stalls,
        alone.mem.merge_stalls
    );
}

/// Prefetching: the producer-consumer hand-off becomes cluster-local.
#[test]
fn producer_consumer_handoff_captured_by_cluster() {
    let mut b = TraceBuilder::new(4);
    let blk = b.space_mut().alloc_owned(64 * 64, 0);
    for round in 0..10u64 {
        b.compute(0, 100);
        b.write_span(0, blk, 64 * 64);
        b.barrier_all();
        b.compute(1, 50 + round);
        b.read_span(1, blk, 64 * 64);
        b.barrier_all();
    }
    let t = b.finish();
    let split = run_cell(&t, 1, CacheSpec::Infinite, None).unwrap().0;
    let together = run_cell(&t, 2, CacheSpec::Infinite, None).unwrap().0;
    assert!(
        together.exec_time * 10 < split.exec_time * 9,
        "sharing a cluster should cut the hand-off substantially: {} vs {}",
        together.exec_time,
        split.exec_time
    );
}

/// The cost side (Section 6): applying the shared-cache factor makes
/// clustering strictly less attractive.
#[test]
fn shared_cache_costs_reduce_attractiveness() {
    let trace = splash::lu::Lu::small().generate(16);
    let sweep = sweep_sizes(&trace, CacheSpec::Infinite, &[1, 2, 4, 8]);
    let factors = cluster_study::measure_latency_factors(&trace).unwrap();
    let costed = cluster_study::report::costed_relative_times(&sweep, &factors);
    let raw = sweep.normalized_totals();
    for ((_, c), (_, r)) in costed.iter().zip(&raw).skip(1) {
        assert!(*c > r / 100.0, "costed {c} should exceed raw {r}%");
    }
}

/// Limited associativity (the paper's future work): destructive
/// interference makes a 1-way shared cache worse than fully
/// associative at the same capacity.
#[test]
fn direct_mapped_shared_cache_interferes() {
    let trace = splash::ocean::Ocean::small().generate(16);
    let full = run_cell(&trace, 4, CacheSpec::PerProcBytes(4096), None)
        .unwrap()
        .0;
    let direct = run_cell(
        &trace,
        4,
        CacheSpec::PerProcSetAssoc {
            bytes: 4096,
            ways: 1,
        },
        None,
    )
    .unwrap()
    .0;
    assert!(
        direct.mem.read_misses > full.mem.read_misses,
        "direct-mapped should conflict-miss more: {} vs {}",
        direct.mem.read_misses,
        full.mem.read_misses
    );
}
