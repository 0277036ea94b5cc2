//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
//! perfbench --all [--runs N] [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
//! perfbench compare A.json B.json
//! perfbench record
//! ```
//!
//! One run sets a workload's inputs up, measures it for `--seconds`
//! (by default `run_seconds` from `BENCHMARK.json`, the length the
//! benchmark's command is always run with), checks every result
//! against `fingerprints.json`, and prints each metric with its unit
//! and sample count, then one JSON result line.
//! `--trace 1` makes the run a traced one that reports the per-layer
//! metrics instead and writes its spans as JSONL under `out/`.
//! `--all` runs every workload in a child process of its own, so peak
//! memory is per workload. See README.md.

mod compare;
mod layers;
mod serve;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use simcore::ops::Trace;
use simcore::{Json, Rng64};
use splash::ProblemSize;

use trace::Tracer;
use util::{median, out_dir, peak_rss_mb, Ledger, Metric};
use workloads::{Kind, Throughput, Workload, WORKLOADS};

const USAGE: &str = "usage:
  perfbench --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
  perfbench --all [--runs N] [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
  perfbench compare A.json B.json
  perfbench record";

/// How one run is made.
struct Options {
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Replaces every workload's problem size (the smoke test's
    /// `ProblemSize::Small`).
    size: Option<ProblemSize>,
}

/// A workload's inputs once set up.
enum Inputs {
    /// Generated traces and the app each one belongs to.
    Traces(Vec<Trace>, Vec<usize>),
    /// A warm server.
    Server(serve::Warm),
}

fn measure(
    w: &Workload,
    size: ProblemSize,
    inputs: &mut Inputs,
    budget: Duration,
    rng: &mut Rng64,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Result<Throughput, String> {
    match inputs {
        Inputs::Traces(traces, apps) if w.kind == Kind::Study => Ok(workloads::measure_study(
            w, size, traces, apps, budget, rng, tracer, ledger,
        )),
        Inputs::Traces(traces, _) => Ok(workloads::measure_replay(
            w, size, traces, budget, rng, tracer, ledger,
        )),
        Inputs::Server(warm) => serve::measure(w, size, warm, budget, rng, tracer, ledger),
    }
}

/// Releases the inputs: stops a server, frees traces.
fn release(inputs: Inputs) -> Result<(), String> {
    match inputs {
        Inputs::Server(warm) => warm.stop(),
        Inputs::Traces(..) => Ok(()),
    }
}

/// Runs one workload: its end-to-end metrics untraced, or its
/// per-layer metrics traced.
fn run_workload(w: &Workload, o: &Options, ledger: &Ledger) -> Result<Vec<Metric>, String> {
    let size = o.size.unwrap_or(w.size);
    let budget = Duration::from_secs_f64(o.seconds);
    let mut rng = Rng64::new(o.seed);
    let tracer = Tracer::new(w.name, o.traced);
    let quiet = Tracer::new(w.name, false);

    let (mut inputs, setup) = if w.is_serve() {
        let (warm, times) = serve::setup(w, size, &tracer, ledger)?;
        (Inputs::Server(warm), times)
    } else {
        let (traces, times) = workloads::setup_traces(w, size, &tracer);
        (Inputs::Traces(traces, (0..w.apps.len()).collect()), times)
    };

    if !o.traced {
        let thr = measure(w, size, &mut inputs, budget, &mut rng, &quiet, ledger)?;
        release(inputs)?;
        return Ok(vec![
            Metric::new("setup_s", "s", median(&setup), setup.len()),
            Metric::new("throughput", "items/s", thr.value, thr.samples),
            Metric::new("peak_rss_mb", "MB", peak_rss_mb(), 1),
        ]);
    }

    // The same measurement untraced and traced, half the budget each:
    // their ratio is the tracing overhead.
    let plain = measure(w, size, &mut inputs, budget / 2, &mut rng, &quiet, ledger)?;
    let traced = measure(w, size, &mut inputs, budget / 2, &mut rng, &tracer, ledger)?;
    release(inputs)?;
    let mut m = layers::probe(w, size, &tracer, ledger)?;
    m.push(Metric::new(
        "trace.overhead",
        "ratio",
        plain.value / traced.value,
        plain.samples + traced.samples,
    ));
    let spans = tracer.span_count();
    m.push(Metric::new("trace.spans", "count", spans as f64, spans));
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", w.name, o.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {spans} written to {}", path.display());
    Ok(m)
}

/// One run's result.
struct Report {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric a `value` and a `unit`.
    fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj().with("value", m.value).with("unit", m.unit);
                (m.name.to_string(), v)
            })
            .collect();
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", Json::Obj(metrics))
            .to_string()
    }

    /// The full report, with sample counts, as `--out` writes it.
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::obj()
                    .with("value", m.value)
                    .with("unit", m.unit)
                    .with("samples", m.samples);
                (m.name.to_string(), v)
            })
            .collect();
        Json::obj()
            .with("schema", "perfbench/report/v1")
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("trace", self.traced)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", Json::Obj(metrics))
    }

    fn print(&self) {
        for m in &self.metrics {
            println!(
                "  {:<28} {:>16.6} {:<9} ({} samples)",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!(
            "  {} of {} operations failed{}",
            self.failed,
            self.attempted,
            if self.correct() { "" } else { " -- INCORRECT" }
        );
    }
}

struct Args {
    workload: Option<String>,
    all: bool,
    runs: u64,
    seed: u64,
    /// `None`: `run_seconds` from `BENCHMARK.json`.
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        runs: 1,
        seed: 1,
        seconds: None,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            a.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--runs" => a.runs = value.parse().map_err(|_| bad("a count"))?,
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("a duration in seconds"))?,
                )
            }
            "--trace" => {
                a.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".to_string());
    }
    Ok(a)
}

/// `--workload`: one run in this process.
fn single(a: &Args, name: &str, seconds: f64) -> Result<bool, String> {
    let w = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let ledger = Ledger::checking()?;
    let o = Options {
        seed: a.seed,
        seconds,
        traced: a.traced,
        size: None,
    };
    println!(
        "perfbench {} seed {} for {seconds} s, {}",
        w.name,
        a.seed,
        if a.traced { "traced" } else { "untraced" }
    );
    let metrics = run_workload(w, &o, &ledger)?;
    let report = Report {
        workload: w.name.to_string(),
        seed: a.seed,
        seconds,
        traced: a.traced,
        attempted: ledger.attempted(),
        failed: ledger.failed(),
        metrics,
    };
    report.print();
    if let Some(path) = &a.out {
        cluster_study::write_atomic(path, report.to_json().pretty().as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// `--all`: every workload (`--runs` times, seeds counting up from
/// `--seed`) in a child process each; writes the set to `--out`.
/// A child that stops without its result (exit status other than 0
/// or 1) adds nothing to the set.
fn all(a: &Args, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut reports = Vec::new();
    let mut ok = true;
    for r in 0..a.runs {
        let seed = a.seed + r;
        for w in &WORKLOADS {
            let out = out_dir().join(format!(
                "{}-seed{seed}-trace{}.json",
                w.name,
                u8::from(a.traced)
            ));
            // A report left by an earlier set must not stand in for
            // this child's.
            match std::fs::remove_file(&out) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(format!("removing {}: {e}", out.display()))
                }
                _ => {}
            }
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if a.traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out)
                .status()
                .map_err(|e| format!("starting {}: {e}", w.name))?;
            ok &= status.success();
            let report = match status.code() {
                Some(0 | 1) => std::fs::read_to_string(&out)
                    .ok()
                    .and_then(|t| simcore::json::parse(&t).ok()),
                _ => None,
            };
            match report {
                Some(report) => reports.push(report),
                None => {
                    eprintln!(
                        "perfbench: {} seed {seed} left no report ({status})",
                        w.name
                    );
                    ok = false;
                }
            }
        }
    }
    println!("\nperfbench set: {} runs", reports.len());
    for r in &reports {
        let name = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        if let Some(Json::Obj(metrics)) = r.get("metrics") {
            for (metric, v) in metrics {
                println!(
                    "  {name:<16} {metric:<28} {:>16.6} {:<9} ({} samples)",
                    v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    v.get("unit").and_then(Json::as_str).unwrap_or("?"),
                    v.get("samples").and_then(Json::as_u64).unwrap_or(0)
                );
            }
        }
    }
    if let Some(path) = &a.out {
        let set = Json::obj()
            .with("schema", "perfbench/set/v1")
            .with("reports", reports);
        cluster_study::write_atomic(path, set.pretty().as_bytes())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("set written to {}", path.display());
    }
    Ok(ok)
}

/// `record`: rewrites `fingerprints.json` from one untraced and one
/// traced run of every workload, at its own size and at the smoke
/// test's small size.
fn record() -> Result<bool, String> {
    let ledger = Ledger::recording();
    for traced in [false, true] {
        for size in [None, Some(ProblemSize::Small)] {
            for w in &WORKLOADS {
                let o = Options {
                    seed: 1,
                    seconds: 0.0,
                    traced,
                    size,
                };
                eprintln!("recording {} traced={traced} size={size:?}", w.name);
                run_workload(w, &o, &ledger)?;
            }
        }
    }
    if ledger.failed() > 0 {
        return Err(format!(
            "{} operations failed; nothing recorded",
            ledger.failed()
        ));
    }
    let seen = ledger.seen();
    util::write_fingerprints(&seen).map_err(|e| format!("writing fingerprints: {e}"))?;
    println!("recorded {} fingerprints", seen.len());
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("record") if args.len() == 1 => record(),
        _ => parse_args(&args).and_then(|a| {
            let seconds = match a.seconds {
                Some(s) => s,
                None => compare::run_seconds()?,
            };
            match &a.workload {
                Some(name) => single(&a, name, seconds),
                None => all(&a, seconds),
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric a section of `BENCHMARK.json`
    /// declares.
    fn declared(section: &str) -> Vec<(String, String)> {
        let bench = compare::benchmark_json().expect("BENCHMARK.json parses");
        bench
            .get(section)
            .and_then(Json::as_arr)
            .expect("section is a list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// Every workload, untraced and traced, at the small problem size
    /// with one sample per cell: each report names every declared
    /// metric with its unit, and no operation fails.
    #[test]
    fn every_workload_reports_every_metric() {
        let bench = compare::benchmark_json().expect("BENCHMARK.json parses");
        let names: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

        let ledger = Ledger::checking().expect("fingerprints load");
        for w in &WORKLOADS {
            for traced in [false, true] {
                let o = Options {
                    seed: 7,
                    seconds: 0.0,
                    traced,
                    size: Some(ProblemSize::Small),
                };
                let metrics = run_workload(w, &o, &ledger).expect("workload runs");
                let report = Report {
                    workload: w.name.to_string(),
                    seed: o.seed,
                    seconds: o.seconds,
                    traced,
                    attempted: ledger.attempted(),
                    failed: ledger.failed(),
                    metrics,
                };
                let path =
                    out_dir().join(format!("test-{}-trace{}.json", w.name, u8::from(traced)));
                cluster_study::write_atomic(&path, report.to_json().pretty().as_bytes())
                    .expect("report written");
                let back =
                    simcore::json::parse(&std::fs::read_to_string(&path).expect("report read"))
                        .expect("report parses");
                let got: Vec<(String, String)> = match back.get("metrics") {
                    Some(Json::Obj(ms)) => ms
                        .iter()
                        .map(|(k, v)| {
                            assert!(
                                v.get("value")
                                    .and_then(Json::as_f64)
                                    .is_some_and(f64::is_finite),
                                "{} {k} is not a finite number",
                                w.name
                            );
                            (
                                k.clone(),
                                v.get("unit")
                                    .and_then(Json::as_str)
                                    .unwrap_or("")
                                    .to_string(),
                            )
                        })
                        .collect(),
                    _ => panic!("report has no metrics"),
                };
                let section = if traced { "per_layer" } else { "end_to_end" };
                assert_eq!(got, declared(section), "{} {section}", w.name);
            }
        }
        assert!(ledger.attempted() > 0);
        assert_eq!(ledger.failed(), 0, "operations failed");
    }

    #[test]
    fn flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload serve-run --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve-run"));
        assert_eq!((a.seed, a.seconds, a.traced), (3, Some(2.0), true));
        assert_eq!(parse_args(&args("--all")).unwrap().seconds, None);
        assert!(parse_args(&args("--all --workload x")).is_err());
        assert!(parse_args(&args("--workload x --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seconds -1")).is_err());
        assert!(parse_args(&args("--workload")).is_err());
    }
}
