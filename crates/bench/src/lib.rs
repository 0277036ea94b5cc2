//! The study drivers behind `paper_run` and `serve_soak`: CLI
//! parsing, the paper's figure and table regenerators ([`figures`],
//! selected with `paper_run --figure ID`), the sampled-vs-full
//! validation ([`sampling`]) and the manifest [`Reporter`]. Host-time
//! benchmarks live in the standalone `perfbench` package.

use std::path::PathBuf;

use cluster_serve::ResultStore;
use cluster_study::apps::FIG2_APPS;
use cluster_study::manifest::{Manifest, ServedBy};
use cluster_study::parallel::RunPolicy;
use cluster_study::study::{ClusterSweep, StudyEvent, StudyRun, StudySpec};
use cluster_study::JournalEntry;
use simcore::fault::FaultPlan;
use simcore::sample::{SampleError, SampleMode, SampleSpec};
use simcore::stats::RunStats;
use splash::ProblemSize;
use std::time::Duration;

pub mod figures;
pub mod sampling;

/// Output format for the machine-readable artifact. Text (the
/// human-readable tables) is always printed to stdout regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// No artifact: stdout text only (the default).
    Text,
    /// Pretty-printed JSON run manifest.
    Json,
    /// Flat per-simulation CSV.
    Csv,
}

impl Format {
    /// File extension for the artifact.
    pub fn extension(self) -> &'static str {
        match self {
            Format::Csv => "csv",
            _ => "json",
        }
    }
}

/// Options shared by `paper_run` (matrix, `--figure` and
/// `--validate-sampling` modes) and `serve_soak`.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Problem size: `--paper` (default) or `--small`.
    pub size: ProblemSize,
    /// Simulated processors (default 64, the paper's machine).
    pub procs: usize,
    /// Optional application filter (`--apps lu,fft`).
    pub apps: Option<Vec<String>>,
    /// Simulation fan-out threads (`--jobs N`; default `STUDY_JOBS`
    /// or all cores). `--jobs 1` forces the serial path.
    pub jobs: usize,
    /// Artifact format (`--format text|json|csv`).
    pub format: Format,
    /// Artifact destination (`--out PATH`); default
    /// `results/<tool>[_small].<ext>`.
    pub out: Option<PathBuf>,
    /// `--emit-manifest`: shorthand for `--format json` at the
    /// default path.
    pub emit_manifest: bool,
    /// `--retries N`: per-item deterministic retry budget for
    /// failed work items (default 0).
    pub retries: u32,
    /// `--timeout-secs X`: soft per-item timeout; items that exceed
    /// it are flagged `timeout` in the manifest, never killed.
    pub timeout_secs: Option<f64>,
    /// `--cache DIR`: serve already-simulated cells from (and durably
    /// record fresh cells into) a `cluster_serve` content-addressed
    /// result store in this directory — the resume path of an
    /// interrupted study.
    pub cache: Option<PathBuf>,
    /// `--figure ID`: run one paper figure/table regenerator from
    /// [`figures`] instead of the study matrix (paper_run).
    pub figure: Option<&'static str>,
    /// `--sample MODE`: replay only sampled intervals
    /// (`periodic|reservoir|phase`) instead of the full trace.
    pub sample: Option<SampleMode>,
    /// `--sample-rate R`: fraction of intervals measured, in `(0, 1]`
    /// (default [`simcore::sample::DEFAULT_RATE`]). Needs `--sample`
    /// or `--validate-sampling`.
    pub sample_rate: Option<f64>,
    /// `--warmup-ops K`: ops replayed for cache state before each
    /// measured region, excluded from statistics (default
    /// [`simcore::sample::DEFAULT_WARMUP_OPS`]). Needs `--sample` or
    /// `--validate-sampling`.
    pub warmup_ops: Option<u64>,
    /// `--validate-sampling`: run the sampled-vs-full validation
    /// harness over every strategy instead of the normal study, and
    /// record per-metric max relative errors in
    /// `results/sampling_validation.json` (paper_run).
    pub validate_sampling: bool,
}

/// A parse failure (or `--help` request) from [`Cli::parse_from`]:
/// carries the full usage text naming the actual tool, so callers —
/// and tests — never need process state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// `None` for `--help`/`-h` (print usage, exit 0); `Some(msg)`
    /// for a real parse error (print error + usage, exit 2).
    pub message: Option<String>,
    /// Usage text, first line `usage: <tool> ...`.
    pub usage: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(msg) = &self.message {
            writeln!(f, "error: {msg}")?;
        }
        write!(f, "{}", self.usage)
    }
}

impl Cli {
    /// Parses `std::env::args`, exiting with usage on error. The
    /// usage text names the invoked binary. One-line wrapper over
    /// [`Cli::parse_from`].
    pub fn parse() -> Cli {
        let mut argv = std::env::args();
        let tool = argv
            .next()
            .as_deref()
            .map(tool_name)
            .unwrap_or_else(|| "cluster-bench".to_string());
        Cli::parse_from(&tool, argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(if e.message.is_some() { 2 } else { 0 })
        })
    }

    /// Parses an explicit argument list (without the `argv[0]` program
    /// name) for the named tool. Pure: no process exit, no stdio — a
    /// `--help` request or bad flag comes back as a [`CliError`], so
    /// every flag and every error path is unit-testable.
    pub fn parse_from(tool: &str, args: impl Iterator<Item = String>) -> Result<Cli, CliError> {
        let fail = |msg: &str| CliError {
            message: Some(msg.to_string()),
            usage: usage_text(tool),
        };
        let mut size = ProblemSize::Paper;
        let mut procs = 64usize;
        let mut apps = None;
        let mut jobs = None;
        let mut format = Format::Text;
        let mut out = None;
        let mut emit_manifest = false;
        let mut retries = None;
        let mut timeout_secs = None;
        let mut cache = None;
        let mut figure = None;
        let mut sample = None;
        let mut sample_rate = None;
        let mut warmup_ops = None;
        let mut validate_sampling = false;
        let mut args = args;
        while let Some(a) = args.next() {
            match a.as_str() {
                "--small" => size = ProblemSize::Small,
                "--paper" => size = ProblemSize::Paper,
                "--procs" => {
                    procs = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| fail("--procs needs a number"))?;
                }
                "--apps" => {
                    let list = args.next().ok_or_else(|| fail("--apps needs a list"))?;
                    let names: Vec<String> =
                        list.split(',').map(|s| s.trim().to_string()).collect();
                    // A typo must not silently shrink the study.
                    if let Some(bad) = names.iter().find(|n| !FIG2_APPS.contains(&n.as_str())) {
                        return Err(fail(&format!(
                            "--apps: unknown application `{bad}` (valid: {})",
                            FIG2_APPS.join(", ")
                        )));
                    }
                    apps = Some(names);
                }
                "--jobs" => {
                    jobs = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&j: &usize| j >= 1)
                            .ok_or_else(|| fail("--jobs needs a positive number"))?,
                    );
                }
                "--format" => {
                    format = match args.next().as_deref() {
                        Some("text") => Format::Text,
                        Some("json") => Format::Json,
                        Some("csv") => Format::Csv,
                        _ => return Err(fail("--format needs text|json|csv")),
                    };
                }
                "--out" => {
                    out = Some(PathBuf::from(
                        args.next().ok_or_else(|| fail("--out needs a path"))?,
                    ));
                }
                "--emit-manifest" => emit_manifest = true,
                "--retries" => {
                    retries = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| fail("--retries needs a number"))?,
                    );
                }
                "--timeout-secs" => {
                    timeout_secs = Some(
                        args.next()
                            .and_then(|v| v.parse::<f64>().ok())
                            .filter(|&t| t > 0.0 && Duration::try_from_secs_f64(t).is_ok())
                            .ok_or_else(|| fail("--timeout-secs needs a positive number"))?,
                    );
                }
                "--sample" => {
                    let v = args
                        .next()
                        .ok_or_else(|| fail("--sample needs periodic|reservoir|phase"))?;
                    sample =
                        Some(SampleMode::parse(&v).map_err(|e: SampleError| fail(&e.to_string()))?);
                }
                "--sample-rate" => {
                    let r: f64 = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| fail("--sample-rate needs a number in (0, 1]"))?;
                    if !(r > 0.0 && r <= 1.0) {
                        return Err(fail(&SampleError::RateOutOfRange(r).to_string()));
                    }
                    sample_rate = Some(r);
                }
                "--warmup-ops" => {
                    warmup_ops = Some(
                        args.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| fail("--warmup-ops needs a number"))?,
                    );
                }
                "--validate-sampling" => validate_sampling = true,
                "--cache" => {
                    cache = Some(PathBuf::from(
                        args.next()
                            .ok_or_else(|| fail("--cache needs a directory"))?,
                    ));
                }
                "--figure" => {
                    let id = args.next().ok_or_else(|| fail("--figure needs an id"))?;
                    figure = Some(figures::lookup(&id).map_err(|e| fail(&e))?);
                }
                "--help" | "-h" => {
                    return Err(CliError {
                        message: None,
                        usage: usage_text(tool),
                    })
                }
                other => return Err(fail(&format!("unknown flag {other}"))),
            }
        }
        if let Some(id) = figure {
            // Only the study rows read the study flags, and no
            // regenerator reads the sampling flags: accepting them would
            // print numbers that look cached, retried or sampled but
            // are not.
            let study = figures::is_study(id);
            let unread = [
                ("--cache", cache.is_some() && !study),
                ("--retries", retries.is_some() && !study),
                ("--timeout-secs", timeout_secs.is_some() && !study),
                ("--sample", sample.is_some()),
                ("--sample-rate", sample_rate.is_some()),
                ("--warmup-ops", warmup_ops.is_some()),
                ("--validate-sampling", validate_sampling),
            ];
            if let Some((flag, _)) = unread.iter().find(|(_, set)| *set) {
                return Err(fail(&format!("--figure cannot be combined with {flag}")));
            }
        }
        if sample.is_none() && !validate_sampling {
            if sample_rate.is_some() {
                return Err(fail("--sample-rate needs --sample"));
            }
            if warmup_ops.is_some() {
                return Err(fail("--warmup-ops needs --sample"));
            }
        }
        Ok(Cli {
            size,
            procs,
            apps,
            jobs: cluster_study::parallel::resolve_jobs(jobs),
            format,
            out,
            emit_manifest,
            retries: retries.unwrap_or(0),
            timeout_secs,
            cache,
            figure,
            sample,
            sample_rate,
            warmup_ops,
            validate_sampling,
        })
    }

    /// The sampling spec `--sample`/`--sample-rate`/`--warmup-ops`
    /// ask for; `None` without `--sample` (a full-trace run).
    pub fn sample_spec(&self) -> Option<SampleSpec> {
        let mut spec = SampleSpec::new(self.sample?);
        if let Some(r) = self.sample_rate {
            spec.rate = r;
        }
        if let Some(w) = self.warmup_ops {
            spec.warmup_ops = w;
        }
        Some(spec)
    }

    /// The execution policy the flags ask for: retry budget, soft
    /// timeout, and whatever fault injection `STUDY_FAULT_*` requests.
    pub fn policy(&self) -> RunPolicy {
        RunPolicy {
            retries: self.retries,
            timeout: self.timeout_secs.map(Duration::from_secs_f64),
            fault: FaultPlan::from_env(),
        }
    }

    /// Whether this invocation should write a manifest artifact.
    pub fn wants_artifact(&self) -> bool {
        self.emit_manifest || self.out.is_some() || self.format != Format::Text
    }

    /// Whether `app` passes the `--apps` filter.
    pub fn wants(&self, app: &str) -> bool {
        self.apps
            .as_ref()
            .map(|list| list.iter().any(|a| a == app))
            .unwrap_or(true)
    }

    /// Label for the chosen size.
    pub fn size_label(&self) -> &'static str {
        match self.size {
            ProblemSize::Paper => "paper",
            ProblemSize::Small => "small",
        }
    }
}

/// The binary name from an argv[0] path.
fn tool_name(argv0: &str) -> String {
    std::path::Path::new(argv0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("cluster-bench")
        .to_string()
}

/// Usage text naming the actual tool.
fn usage_text(tool: &str) -> String {
    let ids: Vec<&str> = figures::ids().collect();
    let ids = ids
        .chunks(4)
        .map(|row| format!("                 {}", row.join(" ")))
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        "usage: {tool} [--paper|--small] [--procs N] [--apps a,b,c] [--jobs N]\n\
         \u{20}            [--format text|json|csv] [--out PATH] [--emit-manifest]\n\
         \u{20}            [--retries N] [--timeout-secs X] [--cache DIR]\n\
         \u{20}            [--sample periodic|reservoir|phase] [--sample-rate R]\n\
         \u{20}            [--warmup-ops K] [--validate-sampling] [--figure ID]\n\
         \n\
         --paper          paper problem sizes (default)\n\
         --small          reduced sizes for quick runs\n\
         --procs          simulated processors (default 64)\n\
         --apps           comma-separated application filter\n\
         --jobs           simulation threads (default: STUDY_JOBS or all\n\
         \u{20}                cores; 1 = serial)\n\
         --format         also write a run manifest artifact in this format\n\
         \u{20}                (text = none; stdout tables are always printed)\n\
         --out            artifact path (default results/{tool}[_small].<ext>,\n\
         \u{20}                or results/<ID>[_small].<ext> with --figure)\n\
         --emit-manifest  shorthand for --format json at the default path\n\
         --retries        re-run a failed work item up to N times\n\
         \u{20}                (default 0; deterministic per-item backoff-free)\n\
         --timeout-secs   flag items slower than X seconds as `timeout`\n\
         \u{20}                in the manifest (soft: never kills the item)\n\
         --cache          serve already-simulated cells from (and durably\n\
         \u{20}                record new cells into) a cluster_serve result\n\
         \u{20}                store; rerunning a killed study over it resumes\n\
         --sample         replay only sampled intervals with the given\n\
         \u{20}                strategy instead of the full trace\n\
         --sample-rate    fraction of intervals measured, in (0, 1]\n\
         \u{20}                (default 0.25; needs --sample)\n\
         --warmup-ops     ops replayed for cache state before each measured\n\
         \u{20}                region, excluded from stats (needs --sample)\n\
         --validate-sampling\n\
         \u{20}                run sampled-vs-full over every strategy and\n\
         \u{20}                record max relative errors (paper_run)\n\
         --figure         run one paper figure/table instead of the matrix\n\
         \u{20}                (paper_run; never with the sampling flags, and\n\
         \u{20}                --cache/--retries/--timeout-secs only with the\n\
         \u{20}                capacity figures fig4..fig8), ID one of:\n\
         {ids}"
    )
}

/// Opens the `--cache DIR` content-addressed result store (if any).
/// An unreadable or corrupt store is fatal (exit 2): silently
/// re-simulating everything would defeat the cache and the resume it
/// provides.
/// `SERVE_KILL_AFTER_RECORDS=N` arms the store's crash-injection hook.
fn open_cache(cli: &Cli) -> Option<ResultStore> {
    let dir = cli.cache.as_ref()?;
    let store = ResultStore::open(dir).unwrap_or_else(|e| {
        eprintln!("error: result cache {}: {e}", dir.display());
        std::process::exit(2)
    });
    if let Ok(v) = std::env::var("SERVE_KILL_AFTER_RECORDS") {
        match v.parse() {
            Ok(n) => store.set_kill_after(n),
            Err(_) => eprintln!("[cache: ignoring non-numeric SERVE_KILL_AFTER_RECORDS={v}]"),
        }
    }
    Some(store)
}

/// The store's entries covering `apps` × the Section 5 study matrix,
/// ready for [`cluster_study::study::StudySpec::cache_prefill`]: each
/// is served as a `cache_hit` cell instead of re-simulating.
/// `sampling` is the run's `SampleSpec::key_label` (sampled and full
/// results live under distinct keys and never substitute for each
/// other).
pub fn cache_prefill(
    store: &ResultStore,
    apps: &[&str],
    size: &str,
    procs: usize,
    sampling: Option<&str>,
) -> Vec<JournalEntry> {
    let mut out = Vec::new();
    for &app in apps {
        for cache in cluster_study::study::section5_caches() {
            for &cluster in &cluster_study::study::CLUSTER_SIZES {
                let key = store.key_sampled(app, size, procs, &cache.label(), cluster, sampling);
                if let Some(e) = store.peek(&key) {
                    out.push(e.cell);
                }
            }
        }
    }
    out
}

/// A study `on_complete` sink durably recording every freshly
/// simulated cell into the result store as it finishes — the
/// client-side twin of the server's append-on-compute, so a killed
/// study still leaves its completed prefix cached. `sampling` must be
/// the same key label the prefill used.
pub fn cache_sink<'a>(
    store: &'a ResultStore,
    size: &'a str,
    procs: usize,
    sampling: Option<String>,
) -> impl Fn(&JournalEntry) + Sync + 'a {
    move |entry: &JournalEntry| {
        let key = store.key_sampled(
            &entry.app,
            size,
            procs,
            &entry.cache,
            entry.cluster,
            sampling.as_deref(),
        );
        if let Err(e) = store.record(&key, size, procs, entry) {
            eprintln!(
                "[cache: failed to record {}/{}/{}: {e}]",
                entry.app, entry.cache, entry.cluster
            );
        }
    }
}

/// Runs the Section 5 study matrix over `apps` the way the CLI asks:
/// `--jobs`, the retry/timeout policy, `--sample`, and — with
/// `--cache DIR` — the result store's prefill plus a sink that durably
/// records each fresh cell as it finishes, so a killed run resumes by
/// rerunning it over the same store. `progress` sees every settled
/// item. `paper_run`'s matrix and the capacity figures both run
/// through here.
pub fn run_study(cli: &Cli, apps: &[&str], progress: impl Fn(&StudyEvent) + Sync) -> StudyRun {
    let sampling = cli.sample_spec();
    let label = sampling.map(|s| s.key_label());
    let store = open_cache(cli);
    let size = cli.size_label();
    let sink = store
        .as_ref()
        .map(|store| cache_sink(store, size, cli.procs, label.clone()));
    let mut spec = StudySpec::generate(apps, cli.size, cli.procs)
        .jobs(cli.jobs)
        .policy(cli.policy());
    if let Some(s) = sampling {
        spec = spec.sampling(s);
    }
    if let (Some(store), Some(sink)) = (&store, &sink) {
        spec = spec
            .cache_prefill(cache_prefill(
                store,
                apps,
                size,
                cli.procs,
                label.as_deref(),
            ))
            .on_complete(sink);
    }
    spec.run_with(progress)
}

/// Collects run records and metrics during a tool's execution and
/// writes the manifest artifact at the end, honoring the shared
/// `--format/--out/--emit-manifest` surface. Construction is cheap;
/// when the Cli asks for no artifact, [`Reporter::finish`] is a no-op,
/// so every tool can record unconditionally.
pub struct Reporter {
    /// The manifest being accumulated.
    pub manifest: Manifest,
    format: Format,
    out: Option<PathBuf>,
    emit: bool,
}

impl Reporter {
    /// A reporter for `tool` (the binary name or `--figure` id, which
    /// also names the default artifact `results/<tool>[_small].<ext>`).
    pub fn new(tool: &str, cli: &Cli) -> Reporter {
        Reporter {
            manifest: Manifest::new(tool, cli.size_label(), cli.procs, cli.jobs),
            format: if cli.format == Format::Text && cli.wants_artifact() {
                Format::Json
            } else {
                cli.format
            },
            out: cli.out.clone(),
            emit: cli.wants_artifact(),
        }
    }

    /// Records one simulation (see [`Manifest::record_run`]).
    pub fn record_run(
        &mut self,
        app: &str,
        cache: &str,
        cluster: u32,
        stats: &RunStats,
        wall: Option<Duration>,
    ) {
        self.manifest.record_run(app, cache, cluster, stats, wall);
    }

    /// Records a whole cluster sweep (see [`Manifest::record_sweep`]).
    pub fn record_sweep(&mut self, app: &str, sweep: &ClusterSweep, walls: Option<&[Duration]>) {
        self.manifest.record_sweep(app, sweep, walls);
    }

    /// Records everything a pipelined [`StudyRun`] measured: every
    /// completed cell with status/attempts and per-simulation wall,
    /// per-app generation-wall gauges, every permanent failure into
    /// `errors[]`, and the aggregate two-phase timing. Partial runs
    /// are fine — the manifest keeps whatever completed.
    pub fn record_study(&mut self, run: &cluster_study::study::StudyRun) {
        use cluster_study::study::{CellOutcome, GenOutcome};
        for (t, name) in run.names.iter().enumerate() {
            if let GenOutcome::Done { wall, .. } = run.gens[t] {
                self.manifest
                    .metrics
                    .gauge(&format!("{name}.gen_wall_seconds"), wall.as_secs_f64());
            }
        }
        for cell in &run.cells {
            if let CellOutcome::Done {
                stats,
                wall,
                status,
                attempts,
                cached,
                sampling,
            } = &cell.outcome
            {
                let served_by = if *cached {
                    ServedBy::Cache
                } else {
                    ServedBy::Sim
                };
                self.manifest.record_outcome(
                    &run.names[cell.trace],
                    &cell.cache.label(),
                    cell.cluster,
                    stats,
                    *wall,
                    *status,
                    *attempts,
                    served_by,
                    *sampling,
                );
            }
        }
        self.manifest.errors.extend(run.errors());
        self.manifest.timing = Some(run.timing);
    }

    /// Writes the artifact if one was requested, returning its path.
    /// Failures are fatal: a requested-but-unwritable artifact should
    /// fail the invocation, not silently produce text only.
    pub fn finish(self) -> Option<PathBuf> {
        if !self.emit {
            return None;
        }
        let path = self.out.unwrap_or_else(|| {
            let suffix = if self.manifest.size == "small" {
                "_small"
            } else {
                ""
            };
            PathBuf::from(format!(
                "results/{}{}.{}",
                self.manifest.tool,
                suffix,
                self.format.extension()
            ))
        });
        let body = match self.format {
            Format::Csv => self.manifest.to_csv(),
            _ => {
                let mut s = self.manifest.to_json().pretty();
                s.push('\n');
                s
            }
        };
        cluster_study::write_atomic(&path, body.as_bytes())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("[manifest: {}]", path.display());
        Some(path)
    }
}

/// Wall-clock timing helper for progress output.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let r = f();
    eprintln!("[{label}: {:.1}s]", start.elapsed().as_secs_f64());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cli(size: ProblemSize, apps: Option<Vec<String>>) -> Cli {
        Cli {
            size,
            procs: 64,
            apps,
            jobs: 1,
            format: Format::Text,
            out: None,
            emit_manifest: false,
            retries: 0,
            timeout_secs: None,
            cache: None,
            figure: None,
            sample: None,
            sample_rate: None,
            warmup_ops: None,
            validate_sampling: false,
        }
    }

    #[test]
    fn wants_filters_by_app_list() {
        let cli = test_cli(ProblemSize::Small, Some(vec!["lu".into(), "fft".into()]));
        assert!(cli.wants("lu"));
        assert!(cli.wants("fft"));
        assert!(!cli.wants("ocean"));
        let all = Cli {
            apps: None,
            ..cli.clone()
        };
        assert!(all.wants("anything"));
    }

    #[test]
    fn size_labels() {
        let mut cli = test_cli(ProblemSize::Paper, None);
        assert_eq!(cli.size_label(), "paper");
        cli.size = ProblemSize::Small;
        assert_eq!(cli.size_label(), "small");
    }

    #[test]
    fn wants_artifact_triggers() {
        let mut cli = test_cli(ProblemSize::Paper, None);
        assert!(!cli.wants_artifact());
        cli.emit_manifest = true;
        assert!(cli.wants_artifact());
        cli.emit_manifest = false;
        cli.format = Format::Csv;
        assert!(cli.wants_artifact());
        cli.format = Format::Text;
        cli.out = Some(PathBuf::from("x.json"));
        assert!(cli.wants_artifact());
    }

    #[test]
    fn reporter_without_artifact_is_a_noop() {
        let cli = test_cli(ProblemSize::Small, None);
        let reporter = Reporter::new("nowhere", &cli);
        assert_eq!(reporter.finish(), None);
        assert!(!std::path::Path::new("results/nowhere_small.json").exists());
    }

    #[test]
    fn reporter_writes_requested_artifact() {
        let dir = std::env::temp_dir().join(format!("bench_reporter_{}", std::process::id()));
        let path = dir.join("artifact.json");
        let mut cli = test_cli(ProblemSize::Small, None);
        cli.emit_manifest = true;
        cli.out = Some(path.clone());
        let reporter = Reporter::new("unit_test", &cli);
        assert_eq!(reporter.finish(), Some(path.clone()));
        let body = std::fs::read_to_string(&path).unwrap();
        let doc = simcore::json::parse(&body).unwrap();
        assert_eq!(
            doc.get("tool").and_then(simcore::Json::as_str),
            Some("unit_test")
        );
        assert_eq!(
            doc.get("schema").and_then(simcore::Json::as_str),
            Some(cluster_study::manifest::SCHEMA)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timed_passes_value_through() {
        assert_eq!(timed("noop", || 42), 42);
    }
}
