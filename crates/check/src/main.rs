//! `cluster_check` — the repo's verification CLI (DESIGN.md §11, §15).
//!
//! ```text
//! cluster_check model   [--random-walks N] [--seed S] [--mutation M]
//! cluster_check lint    [--root DIR]
//! cluster_check race    [TRACE.json | --app NAME] [--size small|paper]
//!                       [--procs N] [--mutate drop-barrier:P:N|skip-lock:P:N]
//!                       [--out FILE]
//! cluster_check certify [--size small|paper] [--procs N] [--out FILE]
//! cluster_check all
//! ```
//!
//! `model` exhaustively enumerates the standard bounded configurations
//! and reports per-configuration reachable-state counts; with
//! `--random-walks N` it additionally fuzzes each configuration with N
//! seeded random walks (deterministic per `--seed`). `--mutation`
//! plants one of the deliberate protocol bugs
//! (`drop-upgrade-invalidation`, `drop-replacement-hint`,
//! `skip-owner-downgrade`) to demonstrate a counterexample. `lint`
//! runs the workspace lint pass.
//!
//! `race` runs happens-before race detection over a trace: a JSON
//! trace file, one generator (`--app`), or — with neither — the whole
//! SPLASH suite. `--mutate` plants a sync-removal mutation
//! (`drop-barrier:PROC:NTH` / `skip-lock:PROC:NTH`) to demonstrate a
//! shrunk counterexample. `certify` replays the small matrix (every
//! app × cluster sizes × infinite and 4 KB caches) with the witness
//! tap and checks the shadow-directory ordering invariants, writing a
//! manifest with the certification summary to `--out`.
//!
//! `all` is model + lint, as CI's check job runs them (the race pass
//! has its own CI job). Every mode exits non-zero on any violation or
//! finding.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cluster_check::lint::lint_workspace;
use cluster_check::model::{explore, random_walks, ModelConfig};
use cluster_check::{certify, race};
use cluster_study::manifest::{write_atomic, CertificationSummary, Manifest};
use cluster_study::study::CLUSTER_SIZES;
use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig, Mutation};
use simcore::witness::race_report_json;
use simcore::{Json, Trace};
use splash::ProblemSize;
use tango::EngineOptions;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cluster_check <model [--random-walks N] [--seed S] [--mutation M] \
         | lint [--root DIR] \
         | race [TRACE.json | --app NAME] [--size small|paper] [--procs N] \
         [--mutate drop-barrier:P:N|skip-lock:P:N] [--out FILE] \
         | certify [--size small|paper] [--procs N] [--out FILE] \
         | all>"
    );
    ExitCode::from(2)
}

fn parse_mutation(name: &str) -> Option<Mutation> {
    match name {
        "drop-upgrade-invalidation" => Some(Mutation::DropUpgradeInvalidation),
        "drop-replacement-hint" => Some(Mutation::DropReplacementHint),
        "skip-owner-downgrade" => Some(Mutation::SkipOwnerDowngrade),
        _ => None,
    }
}

/// Parses `drop-barrier:PROC:NTH` / `skip-lock:PROC:NTH`.
fn parse_trace_mutation(spec: &str) -> Option<splash::mutate::Mutation> {
    let mut it = spec.split(':');
    let kind = it.next()?;
    let proc: u32 = it.next()?.parse().ok()?;
    let nth: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    match kind {
        "drop-barrier" => Some(splash::mutate::Mutation::DropBarrier { proc, nth }),
        "skip-lock" => Some(splash::mutate::Mutation::SkipLock { proc, nth }),
        _ => None,
    }
}

fn run_model(walks: u64, seed: u64, mutation: Option<Mutation>) -> bool {
    let mut ok = true;
    for cfg in ModelConfig::standard() {
        let r = explore(&cfg, mutation);
        match (&r.violation, r.truncated) {
            (Some(v), _) => {
                println!(
                    "model {}: VIOLATION after {} states, {} transitions",
                    r.config, r.states, r.transitions
                );
                println!("{v}");
                ok = false;
            }
            (None, true) => {
                println!(
                    "model {}: TRUNCATED at {} states (bound too small)",
                    r.config, r.states
                );
                ok = false;
            }
            (None, false) => println!(
                "model {}: {} reachable states, {} transitions, all invariants hold",
                r.config, r.states, r.transitions
            ),
        }
        if walks > 0 {
            let r = random_walks(&cfg, mutation, walks, seed);
            match &r.violation {
                Some(v) => {
                    println!("model {}: VIOLATION", r.config);
                    println!("{v}");
                    ok = false;
                }
                None => println!(
                    "model {}: {} walks x {} events, {} distinct states, all invariants hold",
                    r.config,
                    walks,
                    cluster_check::model::WALK_DEPTH,
                    r.states
                ),
            }
        }
    }
    ok
}

fn run_lint(root: &Path) -> bool {
    let findings = lint_workspace(root);
    for f in &findings {
        println!("lint: {f}");
    }
    if findings.is_empty() {
        println!("lint: workspace clean ({})", root.display());
        true
    } else {
        println!("lint: {} finding(s)", findings.len());
        false
    }
}

/// Loads the traces for a `race` invocation: one JSON file, one named
/// generator, or the whole suite.
fn race_targets(
    trace_path: Option<&str>,
    app: Option<&str>,
    size: ProblemSize,
    procs: usize,
) -> Result<Vec<(String, Trace)>, String> {
    if let Some(path) = trace_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = simcore::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let trace = Trace::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        // A structurally invalid trace (an unbalanced lock, a barrier
        // not every processor reaches) has no meaningful happens-before
        // order, so it is rejected rather than certified.
        trace
            .validate()
            .map_err(|e| format!("{path}: invalid trace: {e}"))?;
        return Ok(vec![(path.to_string(), trace)]);
    }
    let apps: Vec<Box<dyn splash::SplashApp>> = match app {
        Some(name) => {
            vec![splash::by_name(name, size).ok_or_else(|| format!("unknown app `{name}`"))?]
        }
        None => splash::suite(size),
    };
    Ok(apps
        .into_iter()
        .map(|a| (a.name().to_string(), a.generate(procs)))
        .collect())
}

fn run_race(
    trace_path: Option<&str>,
    app: Option<&str>,
    size: ProblemSize,
    procs: usize,
    mutate: Option<splash::mutate::Mutation>,
    out: Option<&str>,
) -> bool {
    let targets = match race_targets(trace_path, app, size, procs) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("race: {e}");
            return false;
        }
    };
    let mut ok = true;
    let mut docs: Vec<Json> = Vec::new();
    for (name, trace) in &targets {
        let trace = match mutate {
            Some(m) => match splash::mutate::apply(trace, m) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("race {name}: mutation failed: {e}");
                    return false;
                }
            },
            None => trace.clone(),
        };
        let reports = race::analyze(&trace);
        if reports.is_empty() {
            println!("race {name}: race-free ({} procs)", trace.n_procs());
        } else {
            ok = false;
            for r in &reports {
                println!(
                    "race {name}: RACE on line {:#x}: {:?} {:?} vs {:?} {:?} \
                     ({}-op witness)",
                    r.line,
                    r.first.kind,
                    r.first.proc,
                    r.second.kind,
                    r.second.proc,
                    r.witness.len()
                );
                for (p, op) in &r.witness {
                    println!("  proc {p}: {op:?}");
                }
            }
        }
        docs.push(race_report_json(name, trace.n_procs(), &reports));
    }
    if let Some(path) = out {
        let doc = if docs.len() == 1 {
            docs.remove(0)
        } else {
            Json::Arr(docs)
        };
        if let Err(e) = write_atomic(Path::new(path), doc.pretty().as_bytes()) {
            eprintln!("race: write {path}: {e}");
            return false;
        }
        println!("race: report written to {path}");
    }
    ok
}

/// The certify matrix caches: the paper's infinite cache and its
/// smallest finite cache (the ordering invariants are cache-shape
/// independent; two shapes exercise both directory paths).
fn certify_caches() -> [CacheSpec; 2] {
    [CacheSpec::Infinite, CacheSpec::PerProcBytes(4096)]
}

fn run_certify(size: ProblemSize, procs: usize, out: Option<&str>) -> bool {
    let size_label = match size {
        ProblemSize::Paper => "paper",
        ProblemSize::Small => "small",
    };
    let mut manifest = Manifest::new("cluster_check_certify", size_label, procs, 1);
    let mut ok = true;
    let mut race_checked = true;
    let mut order_certified = true;
    let mut events = 0u64;
    let apps = splash::suite(size);
    for app in &apps {
        let trace = app.generate(procs);
        let races = race::detect(&trace);
        if !races.is_empty() {
            println!(
                "certify {}: {} race(s) in trace — pass 1 failed",
                app.name(),
                races.len()
            );
            race_checked = false;
            ok = false;
        }
        for per_cluster in CLUSTER_SIZES {
            if !(procs as u32).is_multiple_of(per_cluster) {
                continue;
            }
            for cache in certify_caches() {
                let machine = MachineConfig {
                    n_procs: procs as u32,
                    per_cluster,
                    cache,
                    lat: LatencyTable::paper(),
                };
                match certify::certify_trace(&trace, machine) {
                    Ok((stats, cert)) => {
                        events += cert.events_checked;
                        manifest.record_run(app.name(), &cache.label(), per_cluster, &stats, None);
                        if !cert.certified {
                            order_certified = false;
                            ok = false;
                            println!(
                                "certify {} pc={} {}: {} VIOLATION(S)",
                                app.name(),
                                per_cluster,
                                cache.label(),
                                cert.violation_count
                            );
                            for v in &cert.violations {
                                println!("  {v}");
                            }
                        }
                    }
                    Err(e) => {
                        println!(
                            "certify {} pc={} {}: error: {e}",
                            app.name(),
                            per_cluster,
                            cache.label()
                        );
                        ok = false;
                        order_certified = false;
                    }
                }
            }
        }
    }
    // Observation overhead on a representative configuration (mp3d is
    // the heaviest sharer, in the largest cluster size `procs` allows):
    // observed replay + shadow checks vs the plain replay, timed in
    // one alternating window, against `OVERHEAD_BUDGET`. A replay that
    // fails is a certify failure, never a ratio.
    let trace = splash::by_name("mp3d", size)
        .map(|a| a.generate(procs))
        .unwrap_or_else(|| apps[0].generate(procs));
    let machine = MachineConfig {
        n_procs: procs as u32,
        per_cluster: CLUSTER_SIZES
            .into_iter()
            .filter(|&c| (procs as u32).is_multiple_of(c))
            .max()
            .unwrap_or(1),
        cache: CacheSpec::PerProcBytes(4096),
        lat: LatencyTable::paper(),
    };
    let overhead = time_overhead(
        || {
            tango::try_run_with(&trace, machine, EngineOptions::default())
                .map_err(|e| e.to_string())
        },
        || certify::certify_trace(&trace, machine),
    );
    let overhead_ratio = match overhead {
        Ok(ratio) => ratio,
        Err(e) => {
            println!("certify: overhead replay failed: {e}");
            ok = false;
            f64::NAN
        }
    };
    manifest.set_certification(CertificationSummary {
        race_checked,
        order_certified,
        events_checked: events,
        overhead_ratio,
    });
    println!(
        "certify: {} runs, {events} events checked, race_checked={race_checked}, \
         order_certified={order_certified}, overhead {overhead_ratio:.2}x",
        manifest.runs.len()
    );
    if overhead_ratio > OVERHEAD_BUDGET {
        println!("certify: overhead {overhead_ratio:.2}x exceeds the {OVERHEAD_BUDGET}x budget");
        ok = false;
    }
    if let Some(path) = out {
        if let Err(e) = write_atomic(Path::new(path), manifest.to_json().pretty().as_bytes()) {
            eprintln!("certify: write {path}: {e}");
            return false;
        }
        println!("certify: manifest written to {path}");
    }
    ok
}

/// The most the observed replay may cost, as a multiple of the plain
/// one.
const OVERHEAD_BUDGET: f64 = 1.5;

/// The least wall time each side of the overhead ratio is timed for.
const OVERHEAD_WINDOW: Duration = Duration::from_millis(500);

/// The fewest replays each side of the overhead ratio is timed over.
const OVERHEAD_MIN_REPLAYS: u32 = 3;

/// Per-call wall time of `observed` over that of `plain`. After one
/// untimed warm-up each, the two alternate until each has run at least
/// [`OVERHEAD_MIN_REPLAYS`] times and for at least [`OVERHEAD_WINDOW`],
/// so a shift in machine load weighs on both sides alike. Both run the
/// same number of times, so the ratio of their totals is the ratio of
/// their per-call times. The first `Err` ends the measurement.
fn time_overhead<A, B>(
    mut plain: impl FnMut() -> Result<A, String>,
    mut observed: impl FnMut() -> Result<B, String>,
) -> Result<f64, String> {
    black_box(plain()?);
    black_box(observed()?);
    let (mut plain_t, mut observed_t) = (Duration::ZERO, Duration::ZERO);
    let mut replays = 0;
    while replays < OVERHEAD_MIN_REPLAYS || plain_t.min(observed_t) < OVERHEAD_WINDOW {
        let start = Instant::now();
        black_box(plain()?);
        plain_t += start.elapsed();
        let start = Instant::now();
        black_box(observed()?);
        observed_t += start.elapsed();
        replays += 1;
    }
    Ok(observed_t.as_secs_f64() / plain_t.as_secs_f64().max(1e-9))
}

/// The workspace root: `--root` if given, else the manifest dir's
/// grandparent (this crate lives at `<root>/crates/check`).
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.to_path_buf())
        .unwrap_or(manifest)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let mut walks = 0u64;
    let mut seed = 0u64;
    let mut mutation = None;
    let mut root = default_root();
    let mut app: Option<String> = None;
    let mut size = ProblemSize::Small;
    let mut procs = 16usize;
    let mut trace_mutation = None;
    let mut out: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--random-walks" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => walks = n,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => return usage(),
            },
            "--mutation" => match it.next().map(|v| parse_mutation(v)) {
                Some(Some(m)) => mutation = Some(m),
                _ => return usage(),
            },
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage(),
            },
            "--app" => match it.next() {
                Some(name) => app = Some(name.clone()),
                None => return usage(),
            },
            "--size" => match it.next().map(String::as_str) {
                Some("small") => size = ProblemSize::Small,
                Some("paper") => size = ProblemSize::Paper,
                _ => return usage(),
            },
            "--procs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => procs = n,
                _ => return usage(),
            },
            "--mutate" => match it.next().map(|v| parse_trace_mutation(v)) {
                Some(Some(m)) => trace_mutation = Some(m),
                _ => return usage(),
            },
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => return usage(),
            },
            other if !other.starts_with("--") && trace_path.is_none() => {
                trace_path = Some(other.to_string());
            }
            _ => return usage(),
        }
    }
    let ok = match cmd.as_str() {
        "model" => run_model(walks, seed, mutation),
        "lint" => run_lint(&root),
        "race" => run_race(
            trace_path.as_deref(),
            app.as_deref(),
            size,
            procs,
            trace_mutation,
            out.as_deref(),
        ),
        "certify" => run_certify(size, procs, out.as_deref()),
        "all" => {
            let m = run_model(walks, seed, mutation);
            let l = run_lint(&root);
            m && l
        }
        _ => return usage(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
