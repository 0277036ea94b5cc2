//! Machine-readable run manifests: the results layer.
//!
//! The paper's claims are tables and figures of execution-time
//! breakdowns; the regenerator binaries print them as text. This
//! module gives every run a second, *diffable* form: a *run manifest*
//! recording what was simulated (app, machine shape, problem size),
//! how (jobs, git revision, RNG seeding scheme) and what came out
//! (cycle totals, breakdown fractions, every miss counter, wall-clock)
//! — serialized as JSON or CSV under `results/`.
//!
//! Two invariants the schema tests (`crates/bench/tests/
//! manifest_schema.rs`) pin down:
//!
//! * **Determinism across parallelism.** [`Manifest::stats_json`]
//!   excludes everything wall-clock- or environment-dependent (per-run
//!   wall, the fan-out timing section, job count, git revision); what
//!   remains is a pure function of `(trace, machine config)`, so a
//!   `--jobs 1` and a `--jobs N` run serialize **byte-identically**.
//! * **Breakdown fractions sum to 1** (or are all zero for a
//!   degenerate zero-cycle run, per `Breakdown::fractions_of`):
//!   fractions are computed from the aggregate per-processor
//!   breakdown over its own exact total, never a rounded mean.
//!
//! Schema stability: `clustered-smp/run-manifest/v2`. Fields may be
//! *added* within v2; removing or re-typing a field bumps the version.
//! Units are cycles (integers) and seconds (floats) throughout.
//!
//! v1 → v2: every run gained `status` (`ok` / `retried` / `timeout`)
//! and `attempts`, and the manifest gained a top-level `errors[]`
//! section listing work items that failed permanently (so a study with
//! K failures still emits the other N−K results). All v1 fields are
//! unchanged — a v1 reader that ignores unknown fields parses a v2
//! manifest, except for the `schema` string itself. Like wall-clock
//! and job count, the new fields describe the *execution*, not the
//! simulated machine, so they live in the full [`Manifest::to_json`]
//! view only; the deterministic [`Manifest::stats_json`] view is
//! byte-identical to v1's.
//!
//! The serving layer (`cluster_serve`, DESIGN.md §12) added two more
//! v2-additive per-run execution fields: `cache_hit` (bool) and
//! `served_by` (`sim` / `cache`, see [`ServedBy`]) —
//! again full-view only, so cache-served results remain byte-identical
//! to fresh ones in the stats view. Readers must keep treating
//! unknown full-view fields as ignorable (the §9 `schema_version`
//! negotiation note in DESIGN.md).
//!
//! The sampling layer (`simcore::sample`, DESIGN.md §13) added three
//! more v2-additive per-run objects, present only when the run was
//! sampled: `sampling` (mode, rate, warmup, ops_simulated/ops_total
//! provenance), `estimates` (full-run metric estimates extrapolated
//! from the measured intervals) and `error_bounds` (the relative
//! error each estimate is validated to stay inside — see
//! `results/sampling_validation.json`). They describe *how* the
//! statistics were obtained, not the simulated machine, so they live
//! in the full view only; an unsampled run's records carry none of
//! the three keys.

use std::io::Write as _;
use std::path::Path;
use std::time::Duration;

use simcore::sample::{self, SamplingStats};
use simcore::stats::RunStats;
use simcore::{Json, Metrics};

use crate::parallel::{FanoutTiming, Phase, RunStatus};
use crate::study::ClusterSweep;

/// Schema identifier embedded in every manifest.
pub const SCHEMA: &str = "clustered-smp/run-manifest/v2";

/// How workload inputs are seeded (see `splash::util::rng_for`):
/// recorded so a manifest is reproducible from a checkout alone.
pub const SEED_SCHEME: &str = "xoshiro256** seeded by fnv1a(app name) ^ salt";

/// The CSV column header, one row per simulation.
pub const CSV_HEADER: &str = "tool,size,procs,app,cache,cluster,exec_time_cycles,\
     cpu_cycles,load_cycles,merge_cycles,sync_cycles,\
     frac_cpu,frac_load,frac_merge,frac_sync,\
     read_hits,write_hits,read_misses,write_misses,upgrade_misses,merge_stalls,\
     lat_local_clean,lat_local_dirty_remote,lat_remote_clean,lat_remote_dirty_third,\
     invalidations,evictions,writebacks,local_satisfied,bus_transfers,bus_invalidations,\
     wall_seconds,status,attempts,cache_hit,served_by";

/// Where a recorded run's result came from. Like wall-clock and
/// status, an *execution* property: serialized (as the v2-additive
/// `cache_hit` / `served_by` pair) in the full manifest view only,
/// never in the deterministic stats view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServedBy {
    /// Freshly simulated by this invocation.
    #[default]
    Sim,
    /// Served from a content-addressed result cache (a `cache_hit`).
    Cache,
}

impl ServedBy {
    /// Serialized label.
    pub fn label(self) -> &'static str {
        match self {
            ServedBy::Sim => "sim",
            ServedBy::Cache => "cache",
        }
    }

    /// Parses a serialized label back.
    pub fn parse(s: &str) -> Option<ServedBy> {
        match s {
            "sim" => Some(ServedBy::Sim),
            "cache" => Some(ServedBy::Cache),
            _ => None,
        }
    }

    /// Whether this run was a result-cache hit.
    pub fn is_cache_hit(self) -> bool {
        self == ServedBy::Cache
    }
}

/// One simulation's record: what ran and what it measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Application (or synthetic workload) name.
    pub app: String,
    /// Cache specification label (`"4k"`, `"inf"`, `"16k-priv"`, ...).
    pub cache: String,
    /// Processors per cluster.
    pub cluster: u32,
    /// The full simulation result.
    pub stats: RunStats,
    /// Wall-clock of this simulation, when measured. Excluded from the
    /// deterministic stats view.
    pub wall: Option<Duration>,
    /// How the run completed. Like `wall`, an execution property:
    /// serialized in the full view only.
    pub status: RunStatus,
    /// Attempts the run took (1 = first try). A run served from the
    /// result cache keeps the attempt count it was recorded with.
    pub attempts: u32,
    /// Where the result came from: fresh simulation or result cache.
    /// Full view only, like `wall` and `status`.
    pub served_by: ServedBy,
    /// Sampling provenance when the run replayed only selected
    /// intervals; `None` for a full-trace run. Serialized (with its
    /// derived `estimates` and `error_bounds` objects) in the full
    /// view only.
    pub sampling: Option<SamplingStats>,
}

/// One permanently failed work item: recorded in the manifest's
/// `errors[]` section so a study that loses K runs still documents
/// what it lost alongside the N−K results it kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunError {
    /// Application name.
    pub app: String,
    /// Cache label, for failed simulations; `None` for failed trace
    /// generation (which has no per-cache identity).
    pub cache: Option<String>,
    /// Cluster size, for failed simulations.
    pub cluster: Option<u32>,
    /// Which pipeline phase failed.
    pub phase: Phase,
    /// Attempts made (0 = skipped because its generator failed).
    pub attempts: u32,
    /// The failure, usually a panic payload.
    pub error: String,
}

impl RunError {
    /// JSON rendering for the manifest's `errors[]` array.
    pub fn to_json(&self) -> Json {
        let mut e = Json::obj().with("app", self.app.as_str());
        if let Some(cache) = &self.cache {
            e.push("cache", cache.as_str());
        }
        if let Some(cluster) = self.cluster {
            e.push("cluster", cluster);
        }
        e.push("phase", self.phase.label());
        e.push("attempts", self.attempts);
        e.push("error", self.error.as_str());
        e
    }
}

impl RunRecord {
    /// Breakdown components as fractions of the aggregate total (sum
    /// to 1.0 up to float rounding, or all zero for a zero-cycle run).
    pub fn fractions(&self) -> [f64; 4] {
        let total = self.stats.total_breakdown();
        total.fractions_of(total.total())
    }

    /// JSON rendering. `with_wall` controls whether the
    /// non-deterministic wall-clock field is included.
    pub fn to_json(&self, with_wall: bool) -> Json {
        let bd = self.stats.total_breakdown();
        let f = self.fractions();
        let mem = &self.stats.mem;
        let mut run = Json::obj()
            .with("app", self.app.as_str())
            .with("cache", self.cache.as_str())
            .with("cluster", self.cluster)
            .with("procs", self.stats.per_proc.len())
            .with("exec_time_cycles", self.stats.exec_time)
            .with(
                "breakdown_cycles",
                Json::obj()
                    .with("cpu", bd.cpu)
                    .with("load", bd.load)
                    .with("merge", bd.merge)
                    .with("sync", bd.sync),
            )
            .with(
                "breakdown_fractions",
                Json::Arr(f.iter().map(|&x| Json::Float(x)).collect()),
            )
            .with(
                "mem",
                Json::obj()
                    .with("read_hits", mem.read_hits)
                    .with("write_hits", mem.write_hits)
                    .with("read_misses", mem.read_misses)
                    .with("write_misses", mem.write_misses)
                    .with("upgrade_misses", mem.upgrade_misses)
                    .with("merge_stalls", mem.merge_stalls)
                    .with(
                        "by_latency",
                        Json::Arr(mem.by_latency.iter().map(|&x| Json::UInt(x)).collect()),
                    )
                    .with("invalidations", mem.invalidations)
                    .with("evictions", mem.evictions)
                    .with("writebacks", mem.writebacks)
                    .with("local_satisfied", mem.local_satisfied)
                    .with("bus_transfers", mem.bus_transfers)
                    .with("bus_invalidations", mem.bus_invalidations),
            );
        if with_wall {
            if let Some(w) = self.wall {
                run.push("wall_seconds", w.as_secs_f64());
            }
            run.push("status", self.status.label());
            run.push("attempts", self.attempts);
            run.push("cache_hit", self.served_by.is_cache_hit());
            run.push("served_by", self.served_by.label());
            if let Some(s) = &self.sampling {
                run.push("sampling", s.to_json());
                run.push(
                    "estimates",
                    Json::obj()
                        .with(
                            "exec_time_cycles",
                            s.estimated_exec_time(self.stats.exec_time),
                        )
                        .with("read_miss_rate", s.estimated_read_miss_rate(mem)),
                );
                run.push(
                    "error_bounds",
                    Json::obj()
                        .with("exec_time_cycles", sample::EXEC_TIME_BOUND)
                        .with("read_miss_rate", sample::MISS_RATE_BOUND),
                );
            }
        }
        run
    }

    /// One CSV row matching [`CSV_HEADER`].
    pub fn csv_row(&self, tool: &str, size: &str) -> String {
        let bd = self.stats.total_breakdown();
        let f = self.fractions();
        let mem = &self.stats.mem;
        let wall = self
            .wall
            .map(|w| format!("{:?}", w.as_secs_f64()))
            .unwrap_or_default();
        format!(
            "{tool},{size},{procs},{app},{cache},{cluster},{exec},\
             {cpu},{load},{merge},{sync},\
             {f0:?},{f1:?},{f2:?},{f3:?},\
             {rh},{wh},{rm},{wm},{um},{ms},\
             {l0},{l1},{l2},{l3},\
             {inv},{ev},{wb},{ls},{bt},{bi},{wall},{status},{attempts},\
             {cache_hit},{served_by}",
            status = self.status.label(),
            attempts = self.attempts,
            cache_hit = self.served_by.is_cache_hit(),
            served_by = self.served_by.label(),
            procs = self.stats.per_proc.len(),
            app = self.app,
            cache = self.cache,
            cluster = self.cluster,
            exec = self.stats.exec_time,
            cpu = bd.cpu,
            load = bd.load,
            merge = bd.merge,
            sync = bd.sync,
            f0 = f[0],
            f1 = f[1],
            f2 = f[2],
            f3 = f[3],
            rh = mem.read_hits,
            wh = mem.write_hits,
            rm = mem.read_misses,
            wm = mem.write_misses,
            um = mem.upgrade_misses,
            ms = mem.merge_stalls,
            l0 = mem.by_latency[0],
            l1 = mem.by_latency[1],
            l2 = mem.by_latency[2],
            l3 = mem.by_latency[3],
            inv = mem.invalidations,
            ev = mem.evictions,
            wb = mem.writebacks,
            ls = mem.local_satisfied,
            bt = mem.bus_transfers,
            bi = mem.bus_invalidations,
        )
    }
}

/// A whole tool invocation's worth of records plus provenance.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Emitting tool: `"paper_run"`, the `paper_run --figure` id
    /// (`"fig2_infinite"`, ...), or `"serve_soak"`.
    pub tool: String,
    /// Problem-size label (`"paper"` / `"small"`).
    pub size: String,
    /// Simulated processors.
    pub procs: usize,
    /// Fan-out threads used (provenance, not stats).
    pub jobs: usize,
    /// `git describe` of the working tree, or `"unknown"`.
    pub git: String,
    /// Simulation records, in deterministic tool order.
    pub runs: Vec<RunRecord>,
    /// Work items that failed permanently. A tool whose manifest has
    /// errors should exit non-zero after writing it.
    pub errors: Vec<RunError>,
    /// Tool-specific named metrics (factors, knees, probabilities...).
    pub metrics: Metrics,
    /// Fan-out timing of the run, when the tool measured one.
    pub timing: Option<FanoutTiming>,
    /// Verification outcome of the `cluster_race` passes over this
    /// matrix, when the tool ran them (additive; absent otherwise).
    pub certification: Option<CertificationSummary>,
}

/// Summary of the `cluster_race` verification passes (DESIGN.md §15)
/// over a manifest's configuration matrix: whether the traces were
/// race-checked, whether every replay's witness stream certified, and
/// what observation cost on top of a plain replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertificationSummary {
    /// Every trace in the matrix passed happens-before race detection.
    pub race_checked: bool,
    /// Every replay's committed-access stream passed the shadow
    /// directory's ordering invariants.
    pub order_certified: bool,
    /// Total committed accesses checked across the matrix.
    pub events_checked: u64,
    /// Observed-replay wall time over plain-replay wall time (medians);
    /// the certify budget is ≤ 2.0.
    pub overhead_ratio: f64,
}

impl CertificationSummary {
    /// The JSON block emitted under the manifest's `certification` key.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("race_checked", self.race_checked)
            .with("order_certified", self.order_certified)
            .with("events_checked", self.events_checked)
            .with("overhead_ratio", self.overhead_ratio)
    }
}

impl Manifest {
    /// A new manifest; queries `git describe` once for provenance.
    pub fn new(tool: &str, size: &str, procs: usize, jobs: usize) -> Manifest {
        Manifest {
            tool: tool.to_string(),
            size: size.to_string(),
            procs,
            jobs,
            git: git_describe(),
            runs: Vec::new(),
            errors: Vec::new(),
            metrics: Metrics::new(),
            timing: None,
            certification: None,
        }
    }

    /// Records one first-try successful simulation.
    pub fn record_run(
        &mut self,
        app: &str,
        cache: &str,
        cluster: u32,
        stats: &RunStats,
        wall: Option<Duration>,
    ) {
        self.record_outcome(
            app,
            cache,
            cluster,
            stats,
            wall,
            RunStatus::Ok,
            1,
            ServedBy::Sim,
            None,
        );
    }

    /// Records one simulation with its execution status, attempt
    /// count and result provenance (for runs under a fault-tolerance
    /// policy or served from the result cache).
    #[allow(clippy::too_many_arguments)]
    pub fn record_outcome(
        &mut self,
        app: &str,
        cache: &str,
        cluster: u32,
        stats: &RunStats,
        wall: Option<Duration>,
        status: RunStatus,
        attempts: u32,
        served_by: ServedBy,
        sampling: Option<SamplingStats>,
    ) {
        self.runs.push(RunRecord {
            app: app.to_string(),
            cache: cache.to_string(),
            cluster,
            stats: stats.clone(),
            wall,
            status,
            attempts,
            served_by,
            sampling,
        });
    }

    /// Records one permanently failed work item.
    pub fn record_error(
        &mut self,
        app: &str,
        cache: Option<&str>,
        cluster: Option<u32>,
        phase: Phase,
        attempts: u32,
        error: &str,
    ) {
        self.errors.push(RunError {
            app: app.to_string(),
            cache: cache.map(str::to_string),
            cluster,
            phase,
            attempts,
            error: error.to_string(),
        });
    }

    /// Records every run of a cluster sweep, with optional per-run
    /// walls (parallel to `sweep.runs`).
    pub fn record_sweep(&mut self, app: &str, sweep: &ClusterSweep, walls: Option<&[Duration]>) {
        let label = sweep.cache.label();
        for (i, (cluster, stats)) in sweep.runs.iter().enumerate() {
            self.record_run(app, &label, *cluster, stats, walls.map(|w| w[i]));
        }
    }

    /// Records the `cluster_race` verification outcome for this
    /// manifest's matrix (DESIGN.md §15).
    pub fn set_certification(&mut self, c: CertificationSummary) {
        self.certification = Some(c);
    }

    /// The full manifest, provenance and timing included.
    pub fn to_json(&self) -> Json {
        let mut doc = self.stats_json_inner(true);
        if let Some(c) = self.certification {
            doc.push("certification", c.to_json());
        }
        if let Some(t) = self.timing {
            doc.push("timing", t.to_json());
        }
        doc
    }

    /// The deterministic subtree only: a pure function of the
    /// simulated configurations. Byte-identical between `--jobs 1` and
    /// `--jobs N` runs of the same tool on the same checkout.
    pub fn stats_json(&self) -> Json {
        self.stats_json_inner(false)
    }

    fn stats_json_inner(&self, with_env: bool) -> Json {
        let mut doc = Json::obj()
            .with("schema", SCHEMA)
            .with("tool", self.tool.as_str())
            .with("size", self.size.as_str())
            .with("procs", self.procs);
        if with_env {
            doc.push("jobs", self.jobs);
            doc.push("git", self.git.as_str());
        }
        doc.push("seed_scheme", SEED_SCHEME);
        doc.push(
            "runs",
            Json::Arr(self.runs.iter().map(|r| r.to_json(with_env)).collect()),
        );
        if with_env {
            // Always present (even empty) so consumers can assert
            // `errors | length == 0` without an existence check.
            doc.push(
                "errors",
                Json::Arr(self.errors.iter().map(RunError::to_json).collect()),
            );
        }
        doc.push("metrics", self.metrics.to_json());
        doc
    }

    /// CSV rendering: [`CSV_HEADER`] plus one row per run. Metrics and
    /// timing are JSON-only (CSV is the flat per-simulation view).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(CSV_HEADER);
        out.push('\n');
        for r in &self.runs {
            out.push_str(&r.csv_row(&self.tool, &self.size));
            out.push('\n');
        }
        out
    }

    /// Writes the manifest to `path` — pretty JSON for `.json`, CSV
    /// for `.csv` (by extension) — atomically, creating parent
    /// directories.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let body = if path.extension().and_then(|e| e.to_str()) == Some("csv") {
            self.to_csv()
        } else {
            self.to_json().pretty()
        };
        write_atomic(path, body.as_bytes())
    }
}

/// Writes `bytes` to `path` atomically: the content goes to
/// `path.tmp`, is fsynced, and is renamed into place, so a crash (or
/// an injected fault) mid-write never leaves a truncated artifact —
/// readers see either the old file or the new one. Parent directories
/// are created as needed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// `git describe --always --dirty --tags` of the current directory,
/// or `"unknown"` outside a git checkout / without git installed.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::stats::{Breakdown, MissStats};

    fn fake_stats(t: u64) -> RunStats {
        RunStats {
            per_proc: vec![
                Breakdown {
                    cpu: t / 2,
                    load: t / 4,
                    merge: 0,
                    sync: t - t / 2 - t / 4,
                },
                Breakdown {
                    cpu: t,
                    load: 0,
                    merge: 0,
                    sync: 0,
                },
            ],
            mem: MissStats {
                read_hits: 10,
                read_misses: 2,
                ..MissStats::default()
            },
            exec_time: t,
        }
    }

    #[test]
    fn fractions_sum_to_one_or_zero() {
        let rec = RunRecord {
            app: "lu".into(),
            cache: "4k".into(),
            cluster: 2,
            stats: fake_stats(1000),
            wall: None,
            status: RunStatus::Ok,
            attempts: 1,
            served_by: ServedBy::Sim,
            sampling: None,
        };
        assert!((rec.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let zero = RunRecord {
            stats: RunStats {
                per_proc: vec![Breakdown::default()],
                mem: MissStats::default(),
                exec_time: 0,
            },
            ..rec
        };
        assert_eq!(zero.fractions(), [0.0; 4]);
    }

    #[test]
    fn stats_json_excludes_environment() {
        let mut m = Manifest::new("t", "small", 8, 4);
        m.record_run(
            "lu",
            "inf",
            1,
            &fake_stats(100),
            Some(Duration::from_millis(5)),
        );
        let full = m.to_json().to_string();
        let stats = m.stats_json().to_string();
        assert!(full.contains("\"jobs\""));
        assert!(full.contains("\"wall_seconds\""));
        assert!(!stats.contains("\"jobs\""));
        assert!(!stats.contains("\"git\""));
        assert!(!stats.contains("\"wall_seconds\""));
        // Same stats, different jobs/wall: deterministic view agrees.
        let mut m2 = Manifest::new("t", "small", 8, 1);
        m2.record_run("lu", "inf", 1, &fake_stats(100), None);
        assert_eq!(stats, m2.stats_json().to_string());
    }

    #[test]
    fn csv_has_header_and_matching_columns() {
        let mut m = Manifest::new("t", "small", 8, 1);
        m.record_run(
            "lu",
            "4k",
            2,
            &fake_stats(1000),
            Some(Duration::from_secs(1)),
        );
        m.record_run("lu", "4k", 4, &fake_stats(900), None);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
        assert!(lines[1].starts_with("t,small,2,lu,4k,2,1000,"));
    }

    #[test]
    fn manifest_json_parses_back() {
        let mut m = Manifest::new("t", "small", 8, 2);
        m.record_run("lu", "inf", 1, &fake_stats(100), None);
        m.metrics.gauge("knee_kb", 16.0);
        let doc = simcore::json::parse(&m.to_json().pretty()).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].get("app").and_then(Json::as_str), Some("lu"));
        assert_eq!(
            doc.get("metrics").and_then(|ms| ms.get("knee_kb")),
            Some(&Json::Float(16.0))
        );
    }

    /// v2 fields: status/attempts per run and the errors[] section
    /// appear in the full view only — the deterministic stats view is
    /// byte-identical to a v1-shaped document.
    #[test]
    fn v2_execution_fields_live_in_full_view_only() {
        let mut m = Manifest::new("t", "small", 8, 2);
        m.record_outcome(
            "lu",
            "inf",
            1,
            &fake_stats(100),
            None,
            RunStatus::Retried,
            3,
            ServedBy::Cache,
            None,
        );
        m.record_error(
            "ocean",
            Some("4k"),
            Some(2),
            Phase::Sim,
            4,
            "injected fault",
        );
        m.record_error("water", None, None, Phase::Gen, 1, "gen blew up");
        let full = m.to_json();
        let stats = m.stats_json().to_string();
        assert!(!stats.contains("\"status\""));
        assert!(!stats.contains("\"attempts\""));
        assert!(!stats.contains("\"errors\""));
        assert!(!stats.contains("\"cache_hit\""));
        assert!(!stats.contains("\"served_by\""));
        let runs = full.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(
            runs[0].get("status").and_then(Json::as_str),
            Some("retried")
        );
        assert_eq!(runs[0].get("attempts").and_then(Json::as_u64), Some(3));
        assert_eq!(runs[0].get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(
            runs[0].get("served_by").and_then(Json::as_str),
            Some("cache")
        );
        let errs = full.get("errors").and_then(Json::as_arr).unwrap();
        assert_eq!(errs.len(), 2);
        assert_eq!(errs[0].get("app").and_then(Json::as_str), Some("ocean"));
        assert_eq!(errs[0].get("cache").and_then(Json::as_str), Some("4k"));
        assert_eq!(errs[0].get("cluster").and_then(Json::as_u64), Some(2));
        assert_eq!(errs[0].get("phase").and_then(Json::as_str), Some("sim"));
        assert_eq!(errs[1].get("cache"), None);
        assert_eq!(errs[1].get("phase").and_then(Json::as_str), Some("gen"));
        // A clean manifest still carries an (empty) errors array.
        let clean = Manifest::new("t", "small", 8, 2).to_json();
        assert_eq!(
            clean.get("errors").and_then(Json::as_arr).map(|a| a.len()),
            Some(0)
        );
    }

    /// A sampled run's record carries sampling / estimates /
    /// error_bounds in the full view only; the deterministic stats
    /// view and unsampled records carry none of the three keys.
    #[test]
    fn sampling_fields_live_in_full_view_only() {
        use simcore::sample::SampleMode;
        let s = SamplingStats {
            mode: SampleMode::Periodic,
            rate: 0.25,
            warmup_ops: 2048,
            interval_ops: 256,
            seed: 7,
            ops_total: 4000,
            ops_measured: 1000,
            ops_warm: 600,
            weight_total: 8000,
            weight_measured: 2000,
            weight_warm: 0,
            warm_read_hits: 0,
            warm_read_misses: 0,
            warm_write_hits: 0,
            warm_write_misses: 0,
            warm_upgrade_misses: 0,
            warm_cpu_cycles: 0,
            warm_load_cycles: 0,
            warm_merge_cycles: 0,
        };
        let mut m = Manifest::new("t", "small", 8, 2);
        m.record_outcome(
            "lu",
            "inf",
            1,
            &fake_stats(100),
            None,
            RunStatus::Ok,
            1,
            ServedBy::Sim,
            Some(s),
        );
        m.record_run("lu", "inf", 2, &fake_stats(90), None);
        let full = m.to_json();
        let stats = m.stats_json().to_string();
        for key in ["\"sampling\"", "\"estimates\"", "\"error_bounds\""] {
            assert!(!stats.contains(key), "{key} leaked into the stats view");
        }
        let runs = full.get("runs").and_then(Json::as_arr).unwrap();
        let sj = runs[0].get("sampling").unwrap();
        assert_eq!(sj.get("mode").and_then(Json::as_str), Some("periodic"));
        assert_eq!(sj.get("ops_simulated").and_then(Json::as_u64), Some(1600));
        assert_eq!(sj.get("ops_total").and_then(Json::as_u64), Some(4000));
        let est = runs[0].get("estimates").unwrap();
        // scale = weight_total / weight_measured = 4.0.
        assert_eq!(
            est.get("exec_time_cycles").and_then(Json::as_f64),
            Some(400.0)
        );
        assert!(est.get("read_miss_rate").and_then(Json::as_f64).is_some());
        let bounds = runs[0].get("error_bounds").unwrap();
        assert_eq!(
            bounds.get("read_miss_rate").and_then(Json::as_f64),
            Some(sample::MISS_RATE_BOUND)
        );
        // The unsampled record of the same manifest has no such keys.
        assert_eq!(runs[1].get("sampling"), None);
        assert_eq!(runs[1].get("estimates"), None);
        assert_eq!(runs[1].get("error_bounds"), None);
    }

    /// CSV rows carry the v2 status/attempts tail and stay rectangular.
    #[test]
    fn csv_includes_status_and_attempts() {
        let mut m = Manifest::new("t", "small", 8, 1);
        m.record_outcome(
            "lu",
            "4k",
            2,
            &fake_stats(1000),
            None,
            RunStatus::Timeout,
            1,
            ServedBy::Cache,
            None,
        );
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with("wall_seconds,status,attempts,cache_hit,served_by"));
        assert!(lines[1].ends_with(",timeout,1,true,cache"));
        assert_eq!(
            lines[0].split(',').count(),
            lines[1].split(',').count(),
            "ragged csv"
        );
    }

    /// write_atomic leaves no .tmp behind and replaces content whole.
    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = std::env::temp_dir().join("clustered-smp-manifest-test");
        let path = dir.join("m.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!std::path::Path::new(&tmp).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
