//! Benches that exercise each paper figure/table pipeline at reduced
//! problem size — one bench per table/figure, so `cargo bench` covers
//! the full evaluation surface quickly. The paper-size regenerators
//! live in `src/figures.rs` and run as `paper_run --figure <id>`
//! (fig2_infinite, fig3_ocean_small, fig4..fig8, table3..table7);
//! run those for the actual reproduction numbers.
//!
//! Built on the in-tree `cluster_bench::timer` (the workspace is
//! hermetic; Criterion is a registry dependency and was dropped).

use std::hint::black_box;

use cluster_bench::timer::bench;
use cluster_study::apps::trace_for;
use cluster_study::study::{run_cell, StudySpec};
use cluster_study::{bank_conflict_probability, measure_latency_factors};
use coherence::config::CacheSpec;
use splash::ProblemSize;

/// The single-cache infinite sweep the figure benches time.
fn infinite_sweep(trace: &simcore::ops::Trace) -> cluster_study::study::ClusterSweep {
    StudySpec::for_trace(trace)
        .caches([CacheSpec::Infinite])
        .run_sweep()
}

fn fig2_benches() {
    for app in cluster_study::apps::FIG2_APPS {
        let trace = trace_for(app, ProblemSize::Small, 16);
        bench(&format!("fig2_infinite_small/{app}"), 1, 10, || {
            black_box(infinite_sweep(&trace))
        });
    }
}

fn fig3_bench() {
    let trace = cluster_study::apps::ocean_small_grid_trace(ProblemSize::Small, 16);
    bench("fig3_ocean_small_grid/ocean66", 1, 10, || {
        black_box(infinite_sweep(&trace))
    });
}

fn capacity_figure_benches() {
    // Figures 4-8: one capacity point per app keeps the bench quick
    // while touching the whole finite-cache path.
    for app in cluster_study::apps::CAPACITY_APPS {
        let trace = trace_for(app, ProblemSize::Small, 16);
        bench(&format!("fig4_to_8_capacity_small/{app}"), 1, 10, || {
            black_box(
                run_cell(&trace, 4, CacheSpec::PerProcBytes(4096), None).expect("cell replays"),
            )
        });
    }
}

fn table4_bench() {
    bench("table4_conflict_model", 3, 20, || {
        for n in [1u32, 2, 4, 8] {
            black_box(bank_conflict_probability(n, 4 * n.max(1)));
        }
    });
}

fn table5_bench() {
    let trace = trace_for("lu", ProblemSize::Small, 16);
    bench("table5_factors_small/lu", 1, 10, || {
        black_box(measure_latency_factors(&trace).expect("lu replays"))
    });
}

fn table6_7_bench() {
    let trace = trace_for("barnes", ProblemSize::Small, 16);
    bench("table6_7_costed_small/barnes_4kb_costed", 1, 10, || {
        let sweep = StudySpec::for_trace(&trace)
            .caches([CacheSpec::PerProcBytes(4096)])
            .run_sweep();
        let f = measure_latency_factors(&trace).expect("barnes replays");
        black_box(cluster_study::report::costed_relative_times(&sweep, &f))
    });
}

fn main() {
    fig2_benches();
    fig3_bench();
    capacity_figure_benches();
    table4_bench();
    table5_bench();
    table6_7_bench();
}
