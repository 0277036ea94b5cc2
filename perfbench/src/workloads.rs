//! The workload table and the measurement loops of the replay and
//! study workloads. The serving workloads live in `serve.rs`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cluster_study::{CellOutcome, StudyEvent, StudySpec};
use coherence::config::CacheSpec;
use coherence::MachineConfig;
use simcore::ops::Trace;
use simcore::sample::{SampleMode, SamplePlan, SampleSpec, SamplingStats};
use simcore::stats::RunStats;
use simcore::{stable_key, Json, Rng64};
use splash::ProblemSize;
use tango::EngineOptions;

use crate::trace::Tracer;
use crate::util::Ledger;

/// Simulated processors in every cell, as in the paper.
pub const PROCS: usize = 64;

/// Worker threads for the study executor and the server: the host's
/// two cores.
pub const JOBS: usize = 2;

/// How many times a run sets its inputs up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Full replays through `tango::try_run_with`.
    Replay,
    /// `SamplePlan::for_trace` plus `tango::try_run_sampled`.
    Sampled,
    /// Passes of the study executor over pre-generated traces.
    Study,
    /// Warm whole-matrix `batch` requests to a live server.
    ServeBatch,
    /// Warm single-cell `run` requests to a live server.
    ServeRun,
}

/// One workload: a kind and the cells it runs, the cross product of
/// `apps × caches × clusters` at `size` on 64 processors. Caches start
/// empty in every cell, as in the paper.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub apps: &'static [&'static str],
    pub size: ProblemSize,
    pub caches: &'static [CacheSpec],
    pub clusters: &'static [u32],
}

const KB16: CacheSpec = CacheSpec::PerProcBytes(16 * 1024);
const SECTION5: [CacheSpec; 4] = [
    CacheSpec::PerProcBytes(4 * 1024),
    CacheSpec::PerProcBytes(16 * 1024),
    CacheSpec::PerProcBytes(32 * 1024),
    CacheSpec::Infinite,
];

/// Why each workload exists is recorded in `BENCHMARK.json` and the
/// README. The cell sets are sized so that one sample takes at most
/// about a second, giving several samples per cell in a 12-second run.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "replay-capacity",
        kind: Kind::Replay,
        apps: &["lu", "ocean", "mp3d"],
        size: ProblemSize::Paper,
        caches: &[KB16],
        clusters: &[1, 8],
    },
    Workload {
        name: "replay-hits",
        kind: Kind::Replay,
        apps: &["volrend", "raytrace"],
        size: ProblemSize::Paper,
        caches: &[CacheSpec::Infinite],
        clusters: &[8],
    },
    Workload {
        name: "replay-sampled",
        kind: Kind::Sampled,
        apps: &["lu", "ocean", "mp3d"],
        size: ProblemSize::Paper,
        caches: &[KB16],
        clusters: &[8],
    },
    Workload {
        name: "study-mixed",
        kind: Kind::Study,
        apps: &["fft", "ocean", "mp3d", "lu"],
        size: ProblemSize::Paper,
        caches: &[KB16, CacheSpec::Infinite],
        clusters: &[8],
    },
    Workload {
        name: "serve-batch",
        kind: Kind::ServeBatch,
        apps: &cluster_study::apps::FIG2_APPS,
        size: ProblemSize::Small,
        caches: &SECTION5,
        clusters: &[1, 2, 4, 8],
    },
    Workload {
        name: "serve-run",
        kind: Kind::ServeRun,
        apps: &cluster_study::apps::FIG2_APPS,
        size: ProblemSize::Small,
        caches: &SECTION5,
        clusters: &[1, 2, 4, 8],
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One `(app, cache, cluster)` cell; `app` indexes `Workload::apps`.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub app: usize,
    pub cache: CacheSpec,
    pub cluster: u32,
}

impl Cell {
    pub fn machine(&self) -> MachineConfig {
        MachineConfig::paper(self.cluster, self.cache)
    }
}

impl Workload {
    /// Every cell, in canonical `(app, cache, cluster)` order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for app in 0..self.apps.len() {
            for &cache in self.caches {
                for &cluster in self.clusters {
                    out.push(Cell {
                        app,
                        cache,
                        cluster,
                    });
                }
            }
        }
        out
    }

    /// The cell's name, which keys its fingerprint.
    pub fn cell_id(&self, size: ProblemSize, c: &Cell) -> String {
        cell_name(self.apps[c.app], size, &c.cache.label(), c.cluster.into())
    }

    pub fn is_serve(&self) -> bool {
        matches!(self.kind, Kind::ServeBatch | Kind::ServeRun)
    }
}

/// A cell's name from its parts, as a served cell reports them.
pub fn cell_name(app: &str, size: ProblemSize, cache: &str, cluster: u64) -> String {
    let size = cluster_serve::size_label(size);
    format!("{app}/{size}/p{PROCS}/{cache}/c{cluster}")
}

/// The sampling spec of the sampled workload: the defaults (periodic,
/// rate 0.25, warmup 2048, interval 256).
pub fn sample_spec() -> SampleSpec {
    SampleSpec::new(SampleMode::Periodic)
}

/// The fingerprint of a full replay: 128-bit FNV-1a over the canonical
/// named-metrics view of its `RunStats`.
pub fn fingerprint(rs: &RunStats) -> String {
    stable_key(&rs.metrics().to_json())
}

/// The fingerprint of a sampled replay: its measured statistics plus
/// the sampling provenance with the warm outcomes.
pub fn fingerprint_sampled(rs: &RunStats, sampling: &SamplingStats) -> String {
    stable_key(
        &Json::obj()
            .with("stats", rs.metrics().to_json())
            .with("sampling", sampling.to_json()),
    )
}

/// Plans and replays one sampled cell; the plan is part of the cost a
/// user pays per cell.
pub fn replay_sampled(trace: &Trace, cell: &Cell) -> Result<String, String> {
    let plan = SamplePlan::for_trace(trace, &sample_spec());
    let run = tango::try_run_sampled(trace, cell.machine(), EngineOptions::default(), &plan)
        .map_err(|e| e.to_string())?;
    let sampling = plan.stats().with_warm(&run.warm_mem, &run.warm_bd);
    Ok(fingerprint_sampled(&run.stats, &sampling))
}

/// Generates every app's trace once, one `splash` span per app.
pub fn generate(w: &Workload, size: ProblemSize, tracer: &Tracer, parent: u64) -> Vec<Trace> {
    w.apps
        .iter()
        .map(|app| {
            tracer
                .timed(parent, "splash", "gen", app, |_| {
                    cluster_study::apps::trace_for(app, size, PROCS)
                })
                .0
        })
        .collect()
}

/// The set-up of the trace-driven workloads: generate the traces
/// [`SETUP_REPEATS`] times, dropping each set before the next so peak
/// memory holds one set. Returns the last set and every set-up time.
pub fn setup_traces(w: &Workload, size: ProblemSize, tracer: &Tracer) -> (Vec<Trace>, Vec<f64>) {
    let mut traces = Vec::new();
    let mut times = Vec::new();
    for _ in 0..SETUP_REPEATS {
        drop(std::mem::take(&mut traces));
        let (t, secs) = tracer.timed(0, "perfbench", "setup", "", |id| {
            generate(w, size, tracer, id)
        });
        traces = t;
        times.push(secs);
    }
    (traces, times)
}

/// A measured throughput and the number of timed samples behind it.
pub struct Throughput {
    pub value: f64,
    pub samples: usize,
}

/// Whether a time-boxed loop that has finished `done` iterations in
/// `start.elapsed()` should start another: always once, then only if
/// an average iteration still fits in `budget`.
pub fn keep_going(start: Instant, done: u32, budget: Duration) -> bool {
    if done == 0 {
        return true;
    }
    let spent = start.elapsed();
    spent + spent / done <= budget
}

/// Replays every cell once per round, in a seeded order per round,
/// until the budget is spent. Throughput is the trace ops of all cells
/// over the sum of each cell's fastest replay: interference on a
/// shared host only ever slows a replay down, so the minimum of k
/// interleaved samples is the stable estimator.
pub fn measure_replay(
    w: &Workload,
    size: ProblemSize,
    traces: &[Trace],
    budget: Duration,
    rng: &mut Rng64,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Throughput {
    let cells = w.cells();
    let mut best = vec![f64::INFINITY; cells.len()];
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let start = Instant::now();
    let mut rounds = 0u32;
    while keep_going(start, rounds, budget) {
        rng.shuffle(&mut order);
        tracer.timed(0, "perfbench", "round", "", |round| {
            for &i in &order {
                let cell = &cells[i];
                let trace = &traces[cell.app];
                let id = w.cell_id(size, cell);
                let (result, secs) = if w.kind == Kind::Sampled {
                    tracer.timed(round, "tango", "replay_sampled", &id, |_| {
                        replay_sampled(trace, cell)
                    })
                } else {
                    let (run, secs) = tracer.timed(round, "tango", "replay", &id, |_| {
                        tango::try_run_with(trace, cell.machine(), EngineOptions::default())
                    });
                    (
                        run.map(|rs| fingerprint(&rs)).map_err(|e| e.to_string()),
                        secs,
                    )
                };
                let key = if w.kind == Kind::Sampled {
                    format!("sampled:{id}")
                } else {
                    id
                };
                ledger.op(&key, result);
                best[i] = best[i].min(secs);
            }
        });
        rounds += 1;
    }
    let ops: u64 = cells.iter().map(|c| traces[c.app].total_ops()).sum();
    Throughput {
        value: ops as f64 / best.iter().sum::<f64>(),
        samples: cells.len() * rounds as usize,
    }
}

/// One study pass: the executor's outcome, when the pass started, how
/// long it took, and when each simulation ended, with its duration and
/// its cell.
pub struct Pass {
    pub run: cluster_study::StudyRun,
    pub start: Instant,
    pub secs: f64,
    pub sims: Vec<(Instant, Duration, String)>,
}

/// Runs one study pass over `traces` (whose apps are `apps`, in that
/// order) through the guarded pipelined executor, recording a span per
/// simulated cell and checking every cell.
pub fn study_pass(
    w: &Workload,
    size: ProblemSize,
    traces: &[Trace],
    apps: &[usize],
    tracer: &Tracer,
    ledger: &Ledger,
) -> Pass {
    let sims = Mutex::new(Vec::new());
    let mut spec = StudySpec::new(traces)
        .caches(w.caches.iter().copied())
        .cluster_sizes(w.clusters)
        .jobs(JOBS);
    if w.kind == Kind::Sampled {
        spec = spec.sampling(sample_spec());
    }
    let start = Instant::now();
    let ((run, pass), secs) = tracer.timed(0, "study", "pass", "", |pass| {
        let run = spec.run_with(|e| {
            if let StudyEvent::SimDone {
                trace,
                cache,
                cluster,
                wall,
                ..
            } = e
            {
                let cell = Cell {
                    app: apps[*trace],
                    cache: *cache,
                    cluster: *cluster,
                };
                sims.lock()
                    .expect("event lock poisoned by a panicking worker")
                    .push((Instant::now(), *wall, w.cell_id(size, &cell)));
            }
        });
        (run, pass)
    });
    let sims = sims
        .into_inner()
        .expect("event lock poisoned by a panicking worker");
    for c in &run.cells {
        let cell = Cell {
            app: apps[c.trace],
            cache: c.cache,
            cluster: c.cluster,
        };
        let id = w.cell_id(size, &cell);
        match &c.outcome {
            CellOutcome::Done {
                stats,
                sampling: Some(s),
                ..
            } => ledger.op(&format!("sampled:{id}"), Ok(fingerprint_sampled(stats, s))),
            CellOutcome::Done { stats, .. } => ledger.op(&id, Ok(fingerprint(stats))),
            CellOutcome::Failed { error, .. } => ledger.op(&id, Err(error.clone())),
        }
    }
    for (end, wall, id) in &sims {
        tracer.record(pass, "study", "sim", id, *end - *wall, *end);
    }
    Pass {
        run,
        start,
        secs,
        sims,
    }
}

/// Study passes until the budget is spent, each over a seeded
/// permutation of the apps. Throughput is the trace ops of every cell
/// over the fastest pass.
#[allow(clippy::too_many_arguments)]
pub fn measure_study(
    w: &Workload,
    size: ProblemSize,
    traces: &mut Vec<Trace>,
    apps: &mut Vec<usize>,
    budget: Duration,
    rng: &mut Rng64,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Throughput {
    let per_trace = w.caches.len() * w.clusters.len();
    let ops: u64 = traces.iter().map(|t| t.total_ops()).sum::<u64>() * per_trace as u64;
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut passes = 0u32;
    while keep_going(start, passes, budget) {
        let mut pairs: Vec<(usize, Trace)> = std::mem::take(apps)
            .into_iter()
            .zip(std::mem::take(traces))
            .collect();
        rng.shuffle(&mut pairs);
        (*apps, *traces) = pairs.into_iter().unzip();
        best = best.min(study_pass(w, size, traces, apps, tracer, ledger).secs);
        passes += 1;
    }
    Throughput {
        value: ops as f64 / best,
        samples: passes as usize,
    }
}
