//! Sampled-vs-full validation harness: the machine-checked claim that
//! "sampling is safe at rate R".
//!
//! For every application in the matrix this module runs the full
//! Section 5 grid (caches × cluster sizes) twice per strategy — once
//! full-trace, once sampled — and records the **max relative error**
//! each strategy produces on each reported metric:
//!
//! * `read_miss_rate` — the estimated miss rate (measured counters
//!   plus the warm replay's functional outcomes,
//!   [`SamplingStats::estimated_read_miss_rate`]) vs the full run's
//!   (floored at [`sample::MISS_RATE_FLOOR`] so near-zero rates do
//!   not explode the relative error);
//! * `speedup` — the cluster-size speedup ratio (baseline exec time ÷
//!   cell exec time) computed from raw sampled cycles, which is
//!   scale-free because every cell of a sweep measures the *same*
//!   intervals;
//! * `exec_time` — the full-run execution-time estimate
//!   ([`SamplingStats::estimated_exec_time`]) vs the true total;
//! * `breakdown` — the largest absolute difference between the
//!   estimated CPU/load/merge/sync fractions
//!   ([`SamplingStats::estimated_breakdown_fractions`]) and the full
//!   run's.
//!
//! The result is written to `results/sampling_validation.json`
//! (schema `clustered-smp/sampling-validation/v1`) and checked in;
//! `crates/bench/tests/sampling_validation.rs` re-runs a slice and
//! fails if any error exceeds the declared bound, so a regression in
//! a sampler is a failing test, not a quietly wrong paper figure.

use cluster_study::parallel::run_items;
use cluster_study::study::{run_cell, section5_caches, CLUSTER_SIZES};
use cluster_study::write_atomic;
use simcore::sample::{self, SampleMode, SampleSpec, SamplingStats};
use simcore::stats::RunStats;
use simcore::Json;
use splash::ProblemSize;
use std::collections::HashMap;
use std::path::PathBuf;

use crate::Cli;

/// Schema identifier of the validation artifact.
pub const VALIDATION_SCHEMA: &str = "clustered-smp/sampling-validation/v1";

/// Relative-error floor for speedup ratios (speedups are O(1), so a
/// tiny absolute floor only guards exact-zero degeneracy).
const SPEEDUP_FLOOR: f64 = 1e-9;

/// Max relative error one strategy produced on each metric, over
/// every validated cell.
#[derive(Debug, Clone, Copy)]
pub struct StrategyReport {
    /// The sampling strategy validated.
    pub mode: SampleMode,
    /// Cells compared (apps × caches × cluster sizes).
    pub cells: usize,
    /// Max relative read-miss-rate error.
    pub miss_rate_err: f64,
    /// Max relative cluster-speedup error.
    pub speedup_err: f64,
    /// Max relative error of the extrapolated execution-time estimate.
    pub exec_time_err: f64,
    /// Max absolute breakdown-fraction difference.
    pub breakdown_err: f64,
}

impl StrategyReport {
    /// Whether every metric stayed inside its declared bound.
    pub fn pass(&self) -> bool {
        self.miss_rate_err <= sample::MISS_RATE_BOUND
            && self.speedup_err <= sample::SPEEDUP_BOUND
            && self.exec_time_err <= sample::EXEC_TIME_BOUND
            && self.breakdown_err <= sample::BREAKDOWN_BOUND
    }

    /// One strategy's entry in the artifact.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("mode", self.mode.label())
            .with("cells", self.cells)
            .with(
                "max_rel_err",
                Json::obj()
                    .with("read_miss_rate", self.miss_rate_err)
                    .with("speedup", self.speedup_err)
                    .with("exec_time", self.exec_time_err)
                    .with("breakdown", self.breakdown_err),
            )
            .with(
                "bounds",
                Json::obj()
                    .with("read_miss_rate", sample::MISS_RATE_BOUND)
                    .with("speedup", sample::SPEEDUP_BOUND)
                    .with("exec_time", sample::EXEC_TIME_BOUND)
                    .with("breakdown", sample::BREAKDOWN_BOUND),
            )
            .with("pass", self.pass())
    }
}

/// The whole validation: every strategy's max errors on one matrix.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Problem-size label.
    pub size: String,
    /// Simulated processors.
    pub procs: usize,
    /// Applications validated.
    pub apps: Vec<String>,
    /// The sampling rate every strategy was run at.
    pub rate: f64,
    /// The warmup window every strategy was run with.
    pub warmup_ops: u64,
    /// The interval length every strategy was run with.
    pub interval_ops: u64,
    /// Per-strategy maxima, in [`SampleMode::ALL`] order.
    pub strategies: Vec<StrategyReport>,
}

impl ValidationReport {
    /// Whether every strategy passed every bound.
    pub fn pass(&self) -> bool {
        self.strategies.iter().all(StrategyReport::pass)
    }

    /// The artifact document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema", VALIDATION_SCHEMA)
            .with("size", self.size.as_str())
            .with("procs", self.procs)
            .with(
                "apps",
                Json::Arr(self.apps.iter().map(|a| Json::Str(a.clone())).collect()),
            )
            .with("rate", self.rate)
            .with("warmup_ops", self.warmup_ops)
            .with("interval_ops", self.interval_ops)
            .with(
                "strategies",
                Json::Arr(
                    self.strategies
                        .iter()
                        .map(StrategyReport::to_json)
                        .collect(),
                ),
            )
            .with("pass", self.pass())
    }
}

/// Breakdown fractions of one run.
fn fractions(stats: &RunStats) -> [f64; 4] {
    let bd = stats.total_breakdown();
    bd.fractions_of(bd.total())
}

/// Runs the sampled-vs-full comparison for `apps` at `size`/`procs`,
/// every strategy at the given rate/warmup (defaults when `None`).
/// Simulations fan out over `jobs` worker threads.
pub fn validate(
    size: ProblemSize,
    procs: usize,
    apps: &[&str],
    rate: Option<f64>,
    warmup_ops: Option<u64>,
    jobs: usize,
) -> ValidationReport {
    let spec_for = |mode: SampleMode| {
        let mut spec = SampleSpec::new(mode);
        if let Some(r) = rate {
            spec.rate = r;
        }
        if let Some(w) = warmup_ops {
            spec.warmup_ops = w;
        }
        spec
    };
    let base_spec = spec_for(SampleMode::Periodic);

    let traces: Vec<_> = apps
        .iter()
        .map(|a| cluster_study::apps::trace_for(a, size, procs))
        .collect();
    let caches = section5_caches();

    // One work item per (app, cache, cluster, full-or-strategy).
    type ItemKey = (usize, String, u32);
    let mut items: Vec<(usize, coherence::config::CacheSpec, u32, Option<SampleMode>)> = Vec::new();
    for a in 0..apps.len() {
        for &cache in &caches {
            for &cluster in &CLUSTER_SIZES {
                items.push((a, cache, cluster, None));
                for &mode in &SampleMode::ALL {
                    items.push((a, cache, cluster, Some(mode)));
                }
            }
        }
    }
    let results = run_items(&items, jobs, |&(a, cache, cluster, mode)| {
        let (stats, ss) = run_cell(&traces[a], cluster, cache, mode.map(spec_for).as_ref())
            .expect("a generated trace fits the study's machine");
        ((a, cache.label(), cluster), mode, stats, ss)
    });

    let mut full: HashMap<ItemKey, RunStats> = HashMap::new();
    let mut sampled: HashMap<(SampleMode, ItemKey), (RunStats, SamplingStats)> = HashMap::new();
    for (key, mode, stats, ss) in results {
        match mode {
            None => {
                full.insert(key, stats);
            }
            Some(m) => {
                sampled.insert((m, key), (stats, ss.expect("sampled run has stats")));
            }
        }
    }

    let strategies = SampleMode::ALL
        .iter()
        .map(|&mode| {
            let mut rep = StrategyReport {
                mode,
                cells: 0,
                miss_rate_err: 0.0,
                speedup_err: 0.0,
                exec_time_err: 0.0,
                breakdown_err: 0.0,
            };
            for a in 0..apps.len() {
                for &cache in &caches {
                    let base_key = (a, cache.label(), CLUSTER_SIZES[0]);
                    let full_base = &full[&base_key];
                    let (samp_base, _) = &sampled[&(mode, base_key.clone())];
                    for &cluster in &CLUSTER_SIZES {
                        let key = (a, cache.label(), cluster);
                        let f = &full[&key];
                        let (s, ss) = &sampled[&(mode, key)];
                        rep.cells += 1;
                        rep.miss_rate_err = rep.miss_rate_err.max(sample::rel_err(
                            ss.estimated_read_miss_rate(&s.mem),
                            f.mem.read_miss_rate(),
                            sample::MISS_RATE_FLOOR,
                        ));
                        rep.exec_time_err = rep.exec_time_err.max(sample::rel_err(
                            ss.estimated_exec_time(s.exec_time),
                            f.exec_time as f64,
                            1.0,
                        ));
                        let (sf, ff) = (ss.estimated_breakdown_fractions(s), fractions(f));
                        for i in 0..4 {
                            rep.breakdown_err = rep.breakdown_err.max((sf[i] - ff[i]).abs());
                        }
                        if cluster != CLUSTER_SIZES[0] {
                            let full_speedup = full_base.exec_time as f64 / f.exec_time as f64;
                            let samp_speedup = samp_base.exec_time as f64 / s.exec_time as f64;
                            rep.speedup_err = rep.speedup_err.max(sample::rel_err(
                                samp_speedup,
                                full_speedup,
                                SPEEDUP_FLOOR,
                            ));
                        }
                    }
                }
            }
            rep
        })
        .collect();

    ValidationReport {
        size: match size {
            ProblemSize::Paper => "paper".to_string(),
            ProblemSize::Small => "small".to_string(),
        },
        procs,
        apps: apps.iter().map(|a| a.to_string()).collect(),
        rate: base_spec.rate,
        warmup_ops: base_spec.warmup_ops,
        interval_ops: base_spec.interval_ops,
        strategies,
    }
}

/// The `paper_run --validate-sampling` entry point: validates, prints
/// the per-strategy table, writes the artifact (`--out` or
/// `results/sampling_validation.json`), and returns the process exit
/// code (0 = every strategy inside every bound).
pub fn run_validation(cli: &Cli, apps: &[&str]) -> i32 {
    println!(
        "paper_run --validate-sampling: {} apps x {} caches x {} cluster sizes, \
         {} procs, {} sizes, {} jobs",
        apps.len(),
        section5_caches().len(),
        CLUSTER_SIZES.len(),
        cli.procs,
        cli.size_label(),
        cli.jobs
    );
    let report = crate::timed("sampled-vs-full validation", || {
        validate(
            cli.size,
            cli.procs,
            apps,
            cli.sample_rate,
            cli.warmup_ops,
            cli.jobs,
        )
    });
    println!(
        "\nrate {}, warmup {} ops, interval {} ops — max relative error per strategy:",
        report.rate, report.warmup_ops, report.interval_ops
    );
    println!(
        "  {:<10} {:>6} {:>12} {:>10} {:>11} {:>11}  verdict",
        "strategy", "cells", "miss_rate", "speedup", "exec_time", "breakdown"
    );
    for s in &report.strategies {
        println!(
            "  {:<10} {:>6} {:>11.2}% {:>9.2}% {:>10.2}% {:>10.4}   {}",
            s.mode.label(),
            s.cells,
            s.miss_rate_err * 100.0,
            s.speedup_err * 100.0,
            s.exec_time_err * 100.0,
            s.breakdown_err,
            if s.pass() { "pass" } else { "FAIL" }
        );
    }
    let path = cli
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/sampling_validation.json"));
    let mut body = report.to_json().pretty();
    body.push('\n');
    write_atomic(&path, body.as_bytes())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\n[validation artifact: {}]", path.display());
    if report.pass() {
        0
    } else {
        eprintln!("error: at least one sampling strategy exceeded its error bound");
        1
    }
}
