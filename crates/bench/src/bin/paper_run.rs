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
//! emitted; the process then exits 1. `--checkpoint PATH` journals
//! each completed run so `--resume` can pick up an interrupted study,
//! re-executing only the missing runs (`STUDY_KILL_AFTER_RECORDS=N`
//! is the CI crash-injection lever). `STUDY_FAULT_RATE` /
//! `STUDY_FAULT_SEED` / `STUDY_FAULT_DEPTH` inject deterministic
//! faults to exercise all of the above.
//!
//! `--figure ID` runs one of the paper's figure or table regenerators
//! (`cluster_bench::figures`: `fig2_infinite` … `fig8_volrend`,
//! `table3_wsets` … `table7_inf`, the ablations and diagnostics)
//! instead of the matrix; `--help` lists every id.

use cluster_bench::{cache_prefill, cache_sink, open_cache, open_journal, Cli, Reporter};
use cluster_study::apps::FIG2_APPS;
use cluster_study::checkpoint::JournalEntry;
use cluster_study::study::{CellOutcome, StudyEvent, StudySpec, CLUSTER_SIZES};

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
    let sampling_label = sampling.map(|s| s.key_label());
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
    let journal = open_journal("paper_run", &cli);
    let cache = open_cache(&cli);
    let from_cache = cache
        .as_ref()
        .map(|store| {
            cache_prefill(
                store,
                &apps,
                cli.size_label(),
                cli.procs,
                sampling_label.as_deref(),
            )
        })
        .unwrap_or_default();
    let sink = cache
        .as_ref()
        .map(|store| cache_sink(store, cli.size_label(), cli.procs, sampling_label.clone()));
    let run = {
        let mut spec = StudySpec::generate(&apps, cli.size, cli.procs)
            .jobs(cli.jobs)
            .policy(cli.policy());
        if let Some(s) = sampling {
            spec = spec.sampling(s);
        }
        if let Some((j, prefill)) = &journal {
            spec = spec.checkpoint(j).prefill(prefill.clone());
        }
        if !from_cache.is_empty() {
            spec = spec.cache_prefill(from_cache.clone());
        }
        if let Some(sink) = &sink {
            spec = spec.on_complete(sink);
        }
        spec.run_with(|e| match e {
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
        })
    };

    // Report, grouped app-by-app in input order. Traces with failed
    // cells keep their completed runs in the manifest but print an
    // error summary instead of a table.
    let mut reporter = Reporter::new("paper_run", &cli);
    reporter.record_study(&run);
    let resumed = run.resumed_cells();
    if resumed > 0 {
        println!("(restored {resumed} runs from checkpoint journal)\n");
    }
    let cached = run.cached_cells();
    if cached > 0 {
        println!("(served {cached} runs from the result cache)\n");
    }
    // Backfill: cells restored from the journal (or just simulated —
    // record() is insert-if-absent) also belong in the cache, so the
    // next sweep hits them no matter how this one obtained them.
    if let Some(store) = &cache {
        for cell in &run.cells {
            if let CellOutcome::Done {
                stats,
                wall,
                status,
                attempts,
                sampling,
                ..
            } = &cell.outcome
            {
                let entry = JournalEntry {
                    app: run.names[cell.trace].clone(),
                    cache: cell.cache.label(),
                    cluster: cell.cluster,
                    stats: stats.clone(),
                    wall: *wall,
                    status: *status,
                    attempts: *attempts,
                    sampling: *sampling,
                };
                let key = store.key_sampled(
                    &entry.app,
                    cli.size_label(),
                    cli.procs,
                    &entry.cache,
                    entry.cluster,
                    sampling_label.as_deref(),
                );
                if let Err(e) = store.record(&key, cli.size_label(), cli.procs, &entry) {
                    eprintln!("[cache: backfill failed for {}: {e}]", entry.app);
                }
            }
        }
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
    if cache.is_some() {
        let fresh = run
            .cells
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome,
                    CellOutcome::Done {
                        cached: false,
                        resumed: false,
                        ..
                    }
                )
            })
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
