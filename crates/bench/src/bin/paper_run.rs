//! The full paper study in one driver: every application × cluster
//! sizes {1,2,4,8} × caches {4K,16K,32K,∞}, run through the pipelined
//! two-phase executor (`--jobs`): per-app trace generation is
//! scheduled on the same worker pool as the simulations, so with
//! `--jobs ≥ 2` the driver log shows `[gen ...]` and `[sim ...]`
//! lines interleaving instead of all generation strictly preceding
//! the first simulation. Prints the normalized execution-time totals
//! per app plus per-run wall-clock, with the honest **wall speedup**
//! (measured serial baseline — or the serial estimate — ÷ elapsed
//! wall) as the headline and cumulative÷wall reported as *occupancy*
//! (on an oversubscribed host occupancy reads ≈ jobs even when the
//! run got slower). `results/paper_run_small.txt` holds a recorded
//! run; `--emit-manifest` (or `--format json|csv`) also writes the
//! full simulation matrix as a machine-readable run manifest (default
//! `results/paper_run.json`).
//!
//! Fault tolerance: a panicking run is isolated, retried up to
//! `--retries` times, and — if it never succeeds — recorded in the
//! manifest's `errors[]` while every other run's results are still
//! emitted; the process then exits 1. `--cache DIR` durably records
//! each completed run in a `cluster_serve` result store and serves
//! every already-recorded run from it, so rerunning an interrupted
//! study over the same directory re-executes only the missing runs
//! (`SERVE_KILL_AFTER_RECORDS=N` is the CI crash-injection lever).
//! `STUDY_FAULT_RATE` / `STUDY_FAULT_SEED` / `STUDY_FAULT_DEPTH`
//! inject deterministic faults to exercise all of the above.
//!
//! `--figure ID` runs one of the paper's figure or table regenerators
//! (`cluster_bench::figures`: `fig2_infinite` … `fig8_volrend`,
//! `table3_wsets` … `table7_inf`, the ablations and diagnostics)
//! instead of the matrix; `--help` lists every id. The capacity
//! figures (fig4–fig8) run through the same study path, so they honour
//! `--cache`, `--retries` and `--timeout-secs` too.

use cluster_bench::{run_study, Cli, Reporter};
use cluster_study::apps::FIG2_APPS;
use cluster_study::study::{CellOutcome, StudyEvent, CLUSTER_SIZES};

fn main() {
    let cli = Cli::parse();
    if let Some(id) = cli.figure {
        cluster_bench::figures::run(id, &cli);
        return;
    }
    let apps: Vec<&str> = FIG2_APPS.iter().copied().filter(|a| cli.wants(a)).collect();
    if cli.validate_sampling {
        // Sampled-vs-full validation harness instead of the study:
        // exits non-zero when any strategy exceeds its error bound.
        std::process::exit(cluster_bench::sampling::run_validation(&cli, &apps));
    }
    let sampling = cli.sample_spec();
    println!(
        "paper_run: {} apps x {} cluster sizes x 4 caches, {} procs, {} sizes, {} jobs\n",
        apps.len(),
        CLUSTER_SIZES.len(),
        cli.procs,
        cli.size_label(),
        cli.jobs
    );
    if let Some(s) = &sampling {
        println!(
            "sampling: {} intervals at rate {}, warmup {} ops (estimates carry error bounds)\n",
            s.mode.label(),
            s.rate,
            s.warmup_ops
        );
    }

    // The whole matrix through the pipelined executor; completed
    // items log as they finish, so the gen/sim interleave is visible.
    let run = run_study(&cli, &apps, |e| match e {
        StudyEvent::GenDone { name, wall, .. } => {
            eprintln!("[gen {name}: {:.2}s]", wall.as_secs_f64());
        }
        StudyEvent::SimDone {
            name,
            cache,
            cluster,
            wall,
            ..
        } => {
            eprintln!(
                "[sim {name} {} {cluster}p: {:.2}s]",
                cache.label(),
                wall.as_secs_f64()
            );
        }
        StudyEvent::GenFailed {
            name,
            attempts,
            error,
            ..
        } => {
            eprintln!("[gen {name}: FAILED after {attempts} attempts: {error}]");
        }
        StudyEvent::SimFailed {
            name,
            cache,
            cluster,
            attempts,
            error,
            ..
        } => {
            if *attempts == 0 {
                eprintln!(
                    "[sim {name} {} {cluster}p: SKIPPED: {error}]",
                    cache.label()
                );
            } else {
                eprintln!(
                    "[sim {name} {} {cluster}p: FAILED after {attempts} attempts: {error}]",
                    cache.label()
                );
            }
        }
    });

    // Report, grouped app-by-app in input order. Traces with failed
    // cells keep their completed runs in the manifest but print an
    // error summary instead of a table.
    let mut reporter = Reporter::new("paper_run", &cli);
    reporter.record_study(&run);
    let cached = run.cached_cells();
    if cached > 0 {
        println!("(served {cached} runs from the result cache)\n");
    }
    for (t, name) in run.names.iter().enumerate() {
        println!(
            "== {name} ==  (trace gen {:.2}s)",
            run.gen_wall(t).as_secs_f64()
        );
        if !run.trace_complete(t) {
            println!("  INCOMPLETE: see errors below\n");
            continue;
        }
        for (i, sweep) in run.sweeps_for(t).sweeps.iter().enumerate() {
            let totals = sweep.normalized_totals();
            let times: Vec<String> = run
                .sim_walls_for(t, i)
                .iter()
                .map(|w| format!("{:.2}s", w.as_secs_f64()))
                .collect();
            println!(
                "  {:<5} total {}   wall [{}]",
                sweep.cache.label(),
                totals
                    .iter()
                    .map(|(c, v)| format!("{c}p {v:6.1}"))
                    .collect::<Vec<_>>()
                    .join("  "),
                times.join(", ")
            );
        }
        println!();
    }

    let timing = run.timing;
    println!(
        "timing: {} simulations on {} jobs — wall {:.2}s, wall speedup {:.2}x \
         (serial {} {:.2}s; gen {:.2}s + sim {:.2}s cumulative), \
         occupancy {:.2}x (cumulative/wall; reads ~jobs when oversubscribed)",
        timing.items,
        timing.jobs,
        timing.wall.as_secs_f64(),
        timing.wall_speedup(),
        if timing.serial_baseline.is_some() {
            "measured"
        } else {
            "estimated"
        },
        timing
            .serial_baseline
            .unwrap_or_else(|| timing.serial_estimate())
            .as_secs_f64(),
        timing.gen_wall.as_secs_f64(),
        timing.sim_wall.as_secs_f64(),
        timing.occupancy(),
    );

    let m = &mut reporter.manifest.metrics;
    m.gauge("gen_wall_seconds", timing.gen_wall.as_secs_f64());
    m.gauge("total_wall_seconds", timing.wall.as_secs_f64());
    if cli.cache.is_some() {
        let fresh = run
            .cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Done { cached: false, .. }))
            .count();
        m.gauge("cache.hits", cached as f64);
        m.gauge("cache.misses", fresh as f64);
    }
    let errors = run.errors();
    reporter.finish();
    if !errors.is_empty() {
        eprintln!("paper_run: {} run(s) failed permanently:", errors.len());
        for e in &errors {
            eprintln!(
                "  {} {}/{}/{}: {} ({} attempts)",
                e.phase.label(),
                e.app,
                e.cache.as_deref().unwrap_or("-"),
                e.cluster.map_or_else(|| "-".to_string(), |c| c.to_string()),
                e.error,
                e.attempts
            );
        }
        std::process::exit(1);
    }
}
