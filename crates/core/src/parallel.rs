//! Std-thread fan-out for the study's embarrassingly parallel sweeps.
//!
//! The paper's core experiment — 9 applications × 4 cluster sizes × 4
//! cache specifications — replays independent deterministic
//! simulations, so the only thing serial execution buys is wasted
//! wall-clock. This module provides two executors, both with a
//! `--jobs` knob (`STUDY_JOBS` env var, default: all available cores):
//!
//! * [`run_pipeline_guarded`] — the two-phase pipelined executor behind
//!   [`crate::study::StudySpec`]: per-app input *generation* and the
//!   *simulations* that consume those inputs are scheduled on the same
//!   worker pool, so generation overlaps simulation instead of strictly
//!   preceding it. A worker that generates an app's trace immediately
//!   simulates that app (per-app affinity: the trace is consumed hot by
//!   the worker that built it) and only then steals chunks of other
//!   apps' work. Every item runs under a [`RunPolicy`] and settles into
//!   an [`ItemReport`]. One worker (`--jobs 1`) runs inline on the
//!   calling thread.
//! * [`run_items_streamed`] — a flat scoped-thread work-stealing loop
//!   over one homogeneous item pool (`cluster_serve` cells, the
//!   sampling harness) that hands results to the caller in input order
//!   as they complete; [`run_items`] is the same loop without the
//!   callback. Workers steal *chunks* of consecutive indices rather
//!   than one index at a time, so a 144-item matrix costs a handful of
//!   atomic RMWs per worker instead of one per item.
//!
//! Simulations are pure functions of `(trace, machine config)`, so
//! both executors are **bit-identical** to the serial path: results
//! are returned in input order regardless of completion order, and a
//! root integration test asserts `RunStats` equality per item.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use simcore::fault::FaultPlan;

/// Resolves a job count: explicit request, else `STUDY_JOBS`, else
/// every available core.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    requested
        .or_else(|| {
            std::env::var("STUDY_JOBS")
                .ok()
                .and_then(|v| v.parse().ok())
        })
        .filter(|&j| j >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Steal-chunk size of the flat runner: aim for a few chunks per
/// worker so the tail stays balanced while the atomic counter stays
/// cool.
fn default_chunk(items: usize, jobs: usize) -> usize {
    (items / (jobs.max(1) * 4)).clamp(1, 64)
}

/// Runs `f` over every item on up to `jobs` scoped threads, returning
/// outputs **in input order**: [`run_items_streamed`] with no
/// delivery callback.
pub fn run_items<I, O, F>(items: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    run_items_streamed(items, jobs, f, |_, _| {})
}

/// Runs `f` over every item on up to `jobs` scoped threads, returning
/// outputs **in input order** and additionally delivering them
/// **incrementally, in input order** to `on_ready` on the calling
/// thread — the study hook behind `cluster_serve`'s streaming cursor
/// op: a client sees cell 0 the moment it (and nothing before it) is
/// done, instead of waiting for the whole matrix.
///
/// Workers steal chunks of consecutive indices off a shared counter
/// and send `(index, output)` over a channel; the caller's thread
/// parks out-of-order completions and flushes the contiguous prefix,
/// so `on_ready(i, &out)` fires exactly once per item, strictly in
/// index order, and never concurrently (it is `FnMut`, not `Sync`).
/// `jobs <= 1` degenerates to a plain serial loop that calls
/// `on_ready` after each item with no threads spawned — the comparison
/// baseline for the bit-identical guarantee.
pub fn run_items_streamed<I, O, F, C>(items: &[I], jobs: usize, f: F, mut on_ready: C) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
    C: FnMut(usize, &O),
{
    if jobs <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let out = f(item);
                on_ready(i, &out);
                out
            })
            .collect();
    }
    let chunk = default_chunk(items.len(), jobs);
    let next = AtomicUsize::new(0);
    let workers = jobs.min(items.len());
    let mut slots: Vec<Option<O>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, O)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                let end = (start + chunk).min(items.len());
                for (i, item) in items.iter().enumerate().take(end).skip(start) {
                    // A send only fails if the receiver is gone, and
                    // the receiver outlives the scope.
                    let _ = tx.send((i, f(item)));
                }
            });
        }
        drop(tx); // workers hold the remaining senders
        let mut frontier = 0usize;
        while let Ok((i, out)) = rx.recv() {
            slots[i] = Some(out);
            while frontier < items.len() {
                match slots[frontier].as_ref() {
                    Some(out) => {
                        on_ready(frontier, out);
                        frontier += 1;
                    }
                    None => break,
                }
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("worker filled every slot"))
        .collect()
}

/// Which pipeline phase a work item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Input (trace) generation.
    Gen,
    /// Simulation replay.
    Sim,
}

impl Phase {
    /// Short lowercase label (`"gen"` / `"sim"`) for logs and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Gen => "gen",
            Phase::Sim => "sim",
        }
    }
}

/// Fault-tolerance policy for one pipelined run: how many times to
/// retry a panicking work item, the soft per-item timeout, and the
/// (normally disabled) deterministic fault-injection plan.
///
/// [`RunPolicy::none`] reproduces the historical behavior — zero
/// retries, no timeout, no injection — except that a panicking item
/// no longer poisons the worker pool: it is caught, recorded, and the
/// rest of the matrix still completes.
#[derive(Debug, Clone)]
pub struct RunPolicy {
    /// Extra attempts after a failed first attempt (`--retries N`;
    /// 0 = fail on the first panic or returned error).
    pub retries: u32,
    /// Soft per-item timeout: an item whose final attempt ran longer
    /// is *flagged* [`RunStatus::Timeout`], never killed (simulations
    /// are pure functions — killing one buys nothing, losing its
    /// result costs a re-run).
    pub timeout: Option<Duration>,
    /// Deterministic fault injection (see `simcore::fault`); disabled
    /// by default.
    pub fault: FaultPlan,
}

impl RunPolicy {
    /// No retries, no timeout, no injection.
    pub fn none() -> RunPolicy {
        RunPolicy {
            retries: 0,
            timeout: None,
            fault: FaultPlan::disabled(),
        }
    }
}

impl Default for RunPolicy {
    fn default() -> RunPolicy {
        RunPolicy::none()
    }
}

/// How one work item (or one whole run record) ended up, for the
/// manifest's per-run `status` field. Permanent failure is *not* a
/// status: failed items carry an error and land in the manifest's
/// `errors[]` section instead of `runs[]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Succeeded on the first attempt within the timeout.
    Ok,
    /// Succeeded after at least one retried panic.
    Retried,
    /// Succeeded, but the final attempt exceeded the soft timeout
    /// (takes precedence over [`RunStatus::Retried`]).
    Timeout,
}

impl RunStatus {
    /// Serialized form (`"ok"` / `"retried"` / `"timeout"`).
    pub fn label(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Retried => "retried",
            RunStatus::Timeout => "timeout",
        }
    }

    /// Parses a serialized status label.
    pub fn parse(s: &str) -> Option<RunStatus> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "retried" => Some(RunStatus::Retried),
            "timeout" => Some(RunStatus::Timeout),
            _ => None,
        }
    }
}

/// The guarded executor's per-item verdict: how many attempts it
/// took, the final attempt's wall, whether the soft timeout tripped,
/// and — for a permanently failed item — the panic payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemReport {
    /// Which phase the item belonged to.
    pub phase: Phase,
    /// Index into the phase's input slice.
    pub index: usize,
    /// Attempts consumed (1 = clean first try; 0 = never attempted,
    /// i.e. a simulation skipped because its generator failed).
    pub attempts: u32,
    /// Wall-clock of the final attempt alone.
    pub wall: Duration,
    /// Whether the final attempt exceeded [`RunPolicy::timeout`].
    pub timed_out: bool,
    /// The last attempt's panic payload or returned error when every
    /// attempt failed (`None` = the item succeeded).
    pub error: Option<String>,
}

impl ItemReport {
    /// Whether the item permanently failed.
    pub fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// Status of a *successful* item (`None` when it failed).
    pub fn status(&self) -> Option<RunStatus> {
        if self.error.is_some() {
            None
        } else if self.timed_out {
            Some(RunStatus::Timeout)
        } else if self.attempts > 1 {
            Some(RunStatus::Retried)
        } else {
            Some(RunStatus::Ok)
        }
    }

    /// `"ok"` / `"retried"` / `"timeout"` / `"failed"`, for logs.
    pub fn status_label(&self) -> &'static str {
        self.status().map(RunStatus::label).unwrap_or("failed")
    }
}

/// Renders a caught panic payload: `&str` and `String` payloads pass
/// through (covering `panic!` with a message, which is everything the
/// workspace throws); anything else gets a placeholder.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one work item under the policy: up to `1 + retries` attempts,
/// each wrapped in `catch_unwind` (with fault injection applied
/// first), returning the value of the first successful attempt plus
/// the [`ItemReport`]. An attempt fails by panicking or by returning
/// `Err`; both are retried alike and leave their text as the error.
fn attempt_item<R, E: std::fmt::Display>(
    policy: &RunPolicy,
    phase: Phase,
    index: usize,
    f: impl Fn() -> Result<R, E>,
) -> (Option<R>, ItemReport) {
    let max_attempts = policy.retries.saturating_add(1);
    // The injection key is a pure function of the item's coordinates,
    // so a fault schedule selects the same items at any job count.
    let key = policy
        .fault
        .is_active()
        .then(|| format!("{}:{index}", phase.label()));
    let mut last_error = None;
    let mut wall = Duration::ZERO;
    for attempt in 0..max_attempts {
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(key) = &key {
                policy.fault.apply(key, attempt);
            }
            f()
        }));
        wall = t0.elapsed();
        let timed_out = policy.timeout.is_some_and(|t| wall > t);
        match outcome {
            Ok(Ok(value)) => {
                return (
                    Some(value),
                    ItemReport {
                        phase,
                        index,
                        attempts: attempt + 1,
                        wall,
                        timed_out,
                        error: None,
                    },
                );
            }
            Ok(Err(e)) => last_error = Some(e.to_string()),
            Err(payload) => last_error = Some(panic_message(payload.as_ref())),
        }
    }
    let report = ItemReport {
        phase,
        index,
        attempts: max_attempts,
        wall,
        timed_out: policy.timeout.is_some_and(|t| wall > t),
        error: last_error,
    };
    (None, report)
}

/// The report given to a simulation that was never attempted because
/// its generator permanently failed.
fn skipped_report(index: usize, gen: usize) -> ItemReport {
    ItemReport {
        phase: Phase::Sim,
        index,
        attempts: 0,
        wall: Duration::ZERO,
        timed_out: false,
        error: Some(format!("skipped: generator {gen} failed")),
    }
}

/// Everything a *guarded* pipelined fan-out produced: per-item values
/// where the item succeeded (`None` where it failed or was skipped),
/// a full [`ItemReport`] per item, and the aggregate timing over the
/// successful items.
#[derive(Debug)]
pub struct GuardedRun<T, O> {
    /// Generated values with per-item gen wall, in `gen_inputs` order;
    /// `None` = the generator permanently failed.
    pub gen: Vec<Option<(T, Duration)>>,
    /// Simulation outputs with per-item sim wall, in `sim_items`
    /// order; `None` = failed or skipped.
    pub sims: Vec<Option<(O, Duration)>>,
    /// One report per generator, in input order.
    pub gen_reports: Vec<ItemReport>,
    /// One report per simulation, in input order.
    pub sim_reports: Vec<ItemReport>,
    /// Aggregate timing over the successful items.
    pub timing: FanoutTiming,
}

impl<T, O> GuardedRun<T, O> {
    /// Whether every item of both phases succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures().next().is_none()
    }

    /// Reports of permanently failed (or skipped) items, generators
    /// first, in input order.
    pub fn failures(&self) -> impl Iterator<Item = &ItemReport> {
        self.gen_reports
            .iter()
            .chain(&self.sim_reports)
            .filter(|r| r.failed())
    }
}

/// One completed (or permanently failed) item of a guarded pipeline,
/// delivered to the progress callback the moment the item settles.
/// `value` is the simulation output for successful [`Phase::Sim`]
/// items — the hook the result store records from — and `None`
/// for generators and failures.
#[derive(Debug)]
pub struct GuardedEvent<'a, O> {
    /// The item's verdict.
    pub report: &'a ItemReport,
    /// Successful sim items only: the freshly computed output.
    pub value: Option<&'a O>,
}

/// The fault-tolerant pipelined two-phase executor.
///
/// `gen_inputs[g]` is turned into a value `T` by `gen_f`; each sim
/// item `(g, s)` consumes the generated `T` of its `g` via `sim_f`,
/// which returns its output or a typed error.
/// Generation items and simulation items are scheduled on the *same*
/// worker pool: a simulation becomes runnable the moment its
/// generator finishes, so generation overlaps simulation instead of
/// forming a serial prefix. Scheduling policy:
///
/// 1. **Affinity first** — a worker that just generated input `g`
///    drains chunks of `g`'s simulations (the generated value is
///    still hot in its cache).
/// 2. **Generate next** — otherwise it claims the next ungenerated
///    input.
/// 3. **Steal last** — otherwise it steals a chunk of simulations
///    from any input already generated (`chunk` consecutive items per
///    claim).
///
/// With one worker (`jobs <= 1`) the loop runs inline on the calling
/// thread — no threads at all — and the rules reduce to the serial
/// order: generate `g`, run `g`'s simulations in input order, move to
/// `g+1`; a failed generator's skips follow its report. Outputs are
/// keyed by input index either way, so results are bit-identical
/// across any job count.
///
/// Every work item runs under the [`RunPolicy`]:
///
/// * each attempt is wrapped in `std::panic::catch_unwind`, so a
///   panicking item is *recorded* — phase, index, attempts, payload —
///   instead of poisoning the worker pool;
/// * a simulation returning `Err` is recorded exactly as a panic is,
///   with the error's `Display` text as the payload;
/// * a failed item is retried up to `policy.retries` times
///   (deterministically: simulations are pure functions, so a retry
///   that succeeds yields the bit-identical result);
/// * an item whose final attempt exceeds `policy.timeout` is flagged
///   [`RunStatus::Timeout`], never killed;
/// * the simulations of a permanently failed generator are marked
///   skipped (attempts = 0) without being attempted.
///
/// `progress` fires exactly once per item — success, failure or skip
/// — with the [`ItemReport`] and, for successful simulations, a
/// reference to the output (the result store's record hook).
#[allow(clippy::too_many_arguments)]
pub fn run_pipeline_guarded<GI, T, SI, O, E, GF, SF, PF>(
    gen_inputs: &[GI],
    sim_items: &[(usize, SI)],
    jobs: usize,
    chunk: usize,
    policy: &RunPolicy,
    gen_f: GF,
    sim_f: SF,
    progress: PF,
) -> GuardedRun<T, O>
where
    GI: Sync,
    T: Send + Sync,
    SI: Sync,
    O: Send,
    E: std::fmt::Display,
    GF: Fn(&GI) -> T + Sync,
    SF: Fn(&T, &SI) -> Result<O, E> + Sync,
    PF: Fn(GuardedEvent<'_, O>) + Sync,
{
    for (i, (g, _)) in sim_items.iter().enumerate() {
        assert!(
            *g < gen_inputs.len(),
            "sim item {i} references generator {g}, but only {} exist",
            gen_inputs.len()
        );
    }
    let chunk = chunk.max(1);
    let start = Instant::now();

    // Per-generator lists of sim item indices: the per-app queues the
    // affinity and stealing rules operate on.
    let mut per_gen: Vec<Vec<usize>> = vec![Vec::new(); gen_inputs.len()];
    for (i, (g, _)) in sim_items.iter().enumerate() {
        per_gen[*g].push(i);
    }

    let total = gen_inputs.len() + sim_items.len();
    let gen_next = AtomicUsize::new(0);
    let sim_next: Vec<AtomicUsize> = gen_inputs.iter().map(|_| AtomicUsize::new(0)).collect();
    // `Some(Some(..))` = generated, `Some(None)` = permanently failed.
    let generated: Vec<OnceLock<Option<(T, Duration)>>> =
        gen_inputs.iter().map(|_| OnceLock::new()).collect();
    let gen_report_slots: Vec<OnceLock<ItemReport>> =
        gen_inputs.iter().map(|_| OnceLock::new()).collect();
    let sim_slots: Vec<Mutex<Option<(O, Duration)>>> =
        sim_items.iter().map(|_| Mutex::new(None)).collect();
    let sim_report_slots: Vec<OnceLock<ItemReport>> =
        sim_items.iter().map(|_| OnceLock::new()).collect();
    let done = AtomicUsize::new(0);

    // Runs one simulation under the policy and settles its slots.
    let run_sim = |si: usize, val: &T| {
        let (out, rep) = attempt_item(policy, Phase::Sim, si, || sim_f(val, &sim_items[si].1));
        let out = out.map(|o| (o, rep.wall));
        progress(GuardedEvent {
            report: &rep,
            value: out.as_ref().map(|(o, _)| o),
        });
        *sim_slots[si].lock().unwrap() = out;
        sim_report_slots[si]
            .set(rep)
            .expect("sim settled exactly once");
        done.fetch_add(1, Ordering::Release);
    };

    // Claims a chunk of generator `g`'s simulations and runs it.
    // Returns false when `g` has nothing left. Only called for
    // successfully generated inputs.
    let drain_chunk = |g: usize| -> bool {
        let list = &per_gen[g];
        if sim_next[g].load(Ordering::Relaxed) >= list.len() {
            return false;
        }
        let at = sim_next[g].fetch_add(chunk, Ordering::Relaxed);
        if at >= list.len() {
            return false;
        }
        let (val, _) = generated[g]
            .get()
            .expect("drained before generation")
            .as_ref()
            .expect("drained a failed generator");
        for &si in &list[at..(at + chunk).min(list.len())] {
            run_sim(si, val);
        }
        true
    };

    // Marks every simulation of permanently failed generator `g` as
    // skipped. Only the worker that failed the generation claims them
    // (the steal rule never touches a failed generator's queue), but
    // claiming through `sim_next` keeps the accounting uniform.
    let skip_all = |g: usize| {
        let list = &per_gen[g];
        loop {
            let at = sim_next[g].fetch_add(chunk, Ordering::Relaxed);
            if at >= list.len() {
                break;
            }
            for &si in &list[at..(at + chunk).min(list.len())] {
                let rep = skipped_report(si, g);
                progress(GuardedEvent {
                    report: &rep,
                    value: None,
                });
                sim_report_slots[si]
                    .set(rep)
                    .expect("sim settled exactly once");
                done.fetch_add(1, Ordering::Release);
            }
        }
    };

    // The one scheduling loop, run by every worker.
    let worker = || {
        let mut affinity: Option<usize> = None;
        loop {
            // 1. Affinity: drain the app this worker generated.
            if let Some(g) = affinity {
                if drain_chunk(g) {
                    continue;
                }
                affinity = None;
            }
            // 2. Generate the next ungenerated input.
            let g = gen_next.fetch_add(1, Ordering::Relaxed);
            if g < gen_inputs.len() {
                let (val, report) = attempt_item(policy, Phase::Gen, g, || {
                    Ok::<T, Infallible>(gen_f(&gen_inputs[g]))
                });
                let failed = val.is_none();
                if generated[g].set(val.map(|v| (v, report.wall))).is_err() {
                    unreachable!("generator {g} claimed twice");
                }
                progress(GuardedEvent {
                    report: &report,
                    value: None,
                });
                gen_report_slots[g]
                    .set(report)
                    .expect("gen settled exactly once");
                done.fetch_add(1, Ordering::Release);
                if failed {
                    skip_all(g);
                    affinity = None;
                } else {
                    affinity = Some(g);
                }
                continue;
            }
            // 3. Steal a chunk from any generated input.
            let mut stole = false;
            for (g, cell) in generated.iter().enumerate() {
                if matches!(cell.get(), Some(Some(_))) && drain_chunk(g) {
                    affinity = Some(g);
                    stole = true;
                    break;
                }
            }
            if stole {
                continue;
            }
            // 4. Nothing runnable: either all done, or a gen still in
            // flight will unlock more sims — yield.
            if done.load(Ordering::Acquire) >= total {
                break;
            }
            std::thread::yield_now();
        }
    };

    let workers = jobs.min(total.max(1));
    if workers <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker);
            }
        });
    }

    let gen: Vec<Option<(T, Duration)>> = generated
        .into_iter()
        .map(|c| c.into_inner().expect("every input settled"))
        .collect();
    let gen_reports: Vec<ItemReport> = gen_report_slots
        .into_iter()
        .map(|c| c.into_inner().expect("every generator reported"))
        .collect();
    let sims: Vec<Option<(O, Duration)>> = sim_slots
        .into_iter()
        .map(|s| s.into_inner().unwrap())
        .collect();
    let sim_reports: Vec<ItemReport> = sim_report_slots
        .into_iter()
        .map(|c| c.into_inner().expect("every sim reported"))
        .collect();
    let timing = guarded_timing(&gen, &sims, jobs.max(1), start.elapsed());
    GuardedRun {
        gen,
        sims,
        gen_reports,
        sim_reports,
        timing,
    }
}

/// [`FanoutTiming`] over the *successful* items of a guarded run. A
/// one-job run *is* a measured serial baseline and is recorded as
/// such.
fn guarded_timing<T, O>(
    gen: &[Option<(T, Duration)>],
    sims: &[Option<(O, Duration)>],
    jobs: usize,
    wall: Duration,
) -> FanoutTiming {
    let gen_wall: Duration = gen.iter().flatten().map(|(_, d)| *d).sum();
    let sim_wall: Duration = sims.iter().flatten().map(|(_, d)| *d).sum();
    FanoutTiming {
        items: sims.iter().flatten().count(),
        jobs,
        cumulative: gen_wall + sim_wall,
        wall,
        gen_wall,
        sim_wall,
        serial_baseline: (jobs <= 1).then_some(wall),
    }
}

/// Aggregate timing of one fan-out: how much cumulative work ran in
/// how much wall-clock on how many jobs, split by phase. This is the
/// machine-readable form of the `paper_run` timing line, persisted in
/// run manifests so speedup tracking can be automated (see
/// `cluster_study::manifest`).
///
/// Two speedup figures with very different honesty guarantees:
///
/// * [`FanoutTiming::occupancy`] (serialized as `speedup` for schema
///   continuity) is cumulative ÷ wall — how many serial runs' worth
///   of work fit in the elapsed time. On an **oversubscribed** host
///   this reads ≈ `jobs` even when wall-clock got *worse*, because
///   time-slicing inflates every per-item wall. It measures worker
///   occupancy, not time saved.
/// * [`FanoutTiming::wall_speedup`] is the headline number: measured
///   serial wall (when a baseline is available) — or the
///   [`FanoutTiming::serial_estimate`] — divided by the actual
///   elapsed wall. This is the honest "how much faster was this run".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanoutTiming {
    /// Simulation work items executed (generation items are counted
    /// separately via `gen_wall`).
    pub items: usize,
    /// Worker threads requested (`--jobs`).
    pub jobs: usize,
    /// Sum of *all* per-item run times, generation and simulation
    /// (what a serial run would cost).
    pub cumulative: Duration,
    /// Elapsed wall-clock of the whole fan-out.
    pub wall: Duration,
    /// Cumulative wall of generation-phase items.
    pub gen_wall: Duration,
    /// Cumulative wall of simulation-phase items.
    pub sim_wall: Duration,
    /// A *measured* serial wall-clock of the same matrix, when one is
    /// available (the run itself was serial). Preferred over the
    /// estimate by [`FanoutTiming::wall_speedup`].
    pub serial_baseline: Option<Duration>,
}

impl FanoutTiming {
    /// What a serial run of the same items would cost: the sum of
    /// per-item walls across both phases.
    pub fn serial_estimate(&self) -> Duration {
        self.cumulative
    }

    /// Cumulative ÷ wall: **occupancy**, not time saved. How many
    /// serial runs' worth of work fit in the elapsed time; on an
    /// oversubscribed host this reads ≈ `jobs` even when the run got
    /// slower (time-slicing inflates per-item walls). Serialized as
    /// `speedup` for schema continuity; prefer
    /// [`FanoutTiming::wall_speedup`] as the headline.
    pub fn occupancy(&self) -> f64 {
        self.cumulative.as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Occupancy ÷ jobs: 1.0 means every worker was busy the whole
    /// time.
    pub fn utilization(&self) -> f64 {
        self.occupancy() / self.jobs.max(1) as f64
    }

    /// The honest headline: measured serial baseline (when available,
    /// else the serial estimate) ÷ elapsed wall. Unlike
    /// [`FanoutTiming::occupancy`] this goes *below* 1.0 when
    /// threading makes the run slower.
    pub fn wall_speedup(&self) -> f64 {
        self.serial_baseline
            .unwrap_or_else(|| self.serial_estimate())
            .as_secs_f64()
            / self.wall.as_secs_f64().max(1e-9)
    }

    /// JSON rendering for the manifest `timing` section.
    pub fn to_json(&self) -> simcore::Json {
        let mut j = simcore::Json::obj()
            .with("items", self.items)
            .with("jobs", self.jobs)
            .with("cumulative_seconds", self.cumulative.as_secs_f64())
            .with("wall_seconds", self.wall.as_secs_f64())
            .with("gen_wall_seconds", self.gen_wall.as_secs_f64())
            .with("sim_wall_seconds", self.sim_wall.as_secs_f64())
            .with(
                "serial_estimate_seconds",
                self.serial_estimate().as_secs_f64(),
            )
            .with("speedup", self.occupancy())
            .with("utilization", self.utilization())
            .with("wall_speedup", self.wall_speedup());
        if let Some(b) = self.serial_baseline {
            j.push("serial_baseline_seconds", b.as_secs_f64());
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn outputs_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for jobs in [1, 2, 4, 16] {
            let out = run_items(&items, jobs, |&x| x * x);
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<u64>>());
        }
    }

    /// Item and job counts whose steal chunks range from 1 to 64
    /// indices: every index runs exactly once.
    #[test]
    fn chunked_stealing_covers_every_index_once() {
        for n in [2usize, 9, 97, 2100] {
            let items: Vec<u64> = (0..n as u64).collect();
            for jobs in [2, 5, 8] {
                let calls = AtomicUsize::new(0);
                let out = run_items(&items, jobs, |&x| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    x + 1
                });
                assert_eq!(
                    out,
                    items.iter().map(|&x| x + 1).collect::<Vec<u64>>(),
                    "n={n} jobs={jobs}"
                );
                assert_eq!(calls.into_inner(), n, "n={n} jobs={jobs}");
            }
        }
    }

    /// The streamed runner delivers every result exactly once, in
    /// input order, on the calling thread, and returns the same
    /// vector as run_items — at any job count.
    #[test]
    fn streamed_delivery_is_in_order_and_complete() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 7).collect();
        for jobs in [1, 2, 4, 16] {
            let mut seen: Vec<(usize, u64)> = Vec::new();
            let out = run_items_streamed(&items, jobs, |&x| x * 7, |i, &o| seen.push((i, o)));
            assert_eq!(out, expect, "jobs={jobs}");
            assert_eq!(seen.len(), items.len(), "jobs={jobs}");
            for (pos, (i, o)) in seen.iter().enumerate() {
                assert_eq!(*i, pos, "in-order delivery, jobs={jobs}");
                assert_eq!(*o, expect[pos]);
            }
        }
        // Degenerate shapes.
        let none: Vec<u64> = vec![];
        assert!(run_items_streamed(&none, 8, |&x| x, |_, _| {}).is_empty());
        let mut hits = 0;
        assert_eq!(
            run_items_streamed(&[9u64], 8, |&x| x, |_, _| hits += 1),
            vec![9]
        );
        assert_eq!(hits, 1);
    }

    #[test]
    fn default_chunk_is_sane() {
        assert_eq!(default_chunk(0, 8), 1);
        assert_eq!(default_chunk(4, 4), 1);
        assert_eq!(default_chunk(144, 4), 9);
        assert!(default_chunk(1_000_000, 2) <= 64);
    }

    #[test]
    fn serial_path_spawns_no_threads() {
        // jobs = 1 must work even for closures that would not enjoy
        // contention: detectable only behaviorally — order of side
        // effects is exactly input order.
        let log = Mutex::new(Vec::new());
        let items: Vec<u32> = (0..10).collect();
        run_items(&items, 1, |&x| log.lock().unwrap().push(x));
        assert_eq!(*log.lock().unwrap(), items);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = run_items(&[1u32, 2], 64, |&x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = vec![];
        assert!(run_items(&none, 8, |&x| x).is_empty());
        assert_eq!(run_items(&[7u32], 8, |&x| x), vec![7]);
    }

    #[test]
    fn resolve_jobs_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }

    /// An infallible sim output.
    fn ok<O>(o: O) -> Result<O, Infallible> {
        Ok(o)
    }

    /// [`run_pipeline_guarded`] with an infallible sim and no-op
    /// progress.
    fn pipeline<T, O>(
        gens: &[u64],
        sims: &[(usize, u64)],
        jobs: usize,
        chunk: usize,
        policy: &RunPolicy,
        gen_f: impl Fn(&u64) -> T + Sync,
        sim_f: impl Fn(&T, &u64) -> O + Sync,
    ) -> GuardedRun<T, O>
    where
        T: Send + Sync,
        O: Send,
    {
        run_pipeline_guarded(
            gens,
            sims,
            jobs,
            chunk,
            policy,
            gen_f,
            |t, s| ok(sim_f(t, s)),
            |_| {},
        )
    }

    /// Values of one phase of a complete guarded run, in input order.
    fn values<V: Copy>(slots: &[Option<(V, Duration)>]) -> Vec<V> {
        slots
            .iter()
            .map(|s| s.as_ref().expect("item succeeded").0)
            .collect()
    }

    /// The pipeline must return gen values and sim outputs in input
    /// order, identical across job counts and chunk sizes.
    #[test]
    fn pipeline_matches_serial_for_any_jobs_and_chunk() {
        let gens: Vec<u64> = (0..5).collect();
        // Uneven per-gen sim counts, interleaved across gens.
        let sims: Vec<(usize, u64)> = (0..37).map(|i| (i % 5, i as u64)).collect();
        let expect_gen = vec![0, 10, 20, 30, 40];
        let expect_sims: Vec<u64> = sims.iter().map(|&(g, s)| g as u64 * 10 + s).collect();
        let none = RunPolicy::none();
        for jobs in [1, 2, 3, 8] {
            for chunk in [1, 2, 5] {
                let run = pipeline(&gens, &sims, jobs, chunk, &none, |&g| g * 10, |t, &s| t + s);
                assert!(run.is_complete());
                assert_eq!(values(&run.gen), expect_gen, "jobs={jobs} chunk={chunk}");
                assert_eq!(values(&run.sims), expect_sims, "jobs={jobs} chunk={chunk}");
            }
        }
    }

    /// Every item reports exactly once — success, failure or skip —
    /// inline and on the worker pool; a generator's report arrives
    /// before any sim that consumes its value; and only successful
    /// sims carry a value.
    #[test]
    fn pipeline_progress_reports_every_item() {
        let gens: Vec<u64> = (0..4).collect();
        let sims: Vec<(usize, u64)> = (0..16).map(|i| (i / 4, i as u64)).collect();
        for jobs in [1, 4] {
            let events = Mutex::new(Vec::new());
            run_pipeline_guarded(
                &gens,
                &sims,
                jobs,
                2,
                &RunPolicy::none(),
                |&g| {
                    if g == 0 {
                        panic!("gen 0 down");
                    }
                    g
                },
                |t, &s| ok(t + s),
                |ev: GuardedEvent<'_, u64>| {
                    let event = (ev.report.phase, ev.report.index, ev.value.copied());
                    events.lock().unwrap().push(event)
                },
            );
            let events = events.into_inner().unwrap();
            assert_eq!(events.len(), gens.len() + sims.len());
            let unique: HashSet<(Phase, usize)> = events.iter().map(|&(p, i, _)| (p, i)).collect();
            assert_eq!(unique.len(), events.len(), "each item reports once");
            let mut ready: HashSet<usize> = HashSet::new();
            for &(phase, index, value) in &events {
                match phase {
                    Phase::Gen => {
                        ready.insert(index);
                    }
                    Phase::Sim => {
                        let g = sims[index].0;
                        assert!(ready.contains(&g), "sim {index} ran before its generator");
                        // Generator 0 failed, so its sims were skipped.
                        assert_eq!(value, (g != 0).then_some(g as u64 + index as u64));
                    }
                }
            }
        }
    }

    #[test]
    fn pipeline_handles_empty_and_sim_free_inputs() {
        let none = RunPolicy::none();
        for jobs in [1, 4] {
            let empty: GuardedRun<u64, u64> =
                pipeline(&[], &[], jobs, 2, &none, |_: &u64| 0, |t, _: &u64| *t);
            assert!(empty.gen.is_empty() && empty.sims.is_empty());
            assert!(empty.is_complete());
            // Generators with no sims still run.
            let run = pipeline(&[1, 2, 3], &[], jobs, 2, &none, |&g| g * 2, |t, _: &u64| *t);
            assert_eq!(values(&run.gen), vec![2, 4, 6]);
        }
    }

    #[test]
    #[should_panic(expected = "references generator")]
    fn pipeline_rejects_dangling_sim_item() {
        let none = RunPolicy::none();
        let _ = pipeline(&[0], &[(1, 0)], 2, 1, &none, |&g| g, |t, &s| t + s);
    }

    /// The exact event order of a one-worker run, which is the
    /// result store's append order at `--jobs 1`: generate g,
    /// then g's sims in input order (skipped right after a failed
    /// generator), then g+1. The steal-chunk size never reorders it.
    #[test]
    fn single_worker_event_order_is_pinned() {
        let gens = [0u64, 1, 2];
        // Uneven and interleaved: gen 0 owns sims 0, 2, 5; gen 1 owns
        // 1, 4; gen 2 owns 3.
        let items: Vec<(usize, u64)> = vec![(0, 0), (1, 1), (0, 2), (2, 3), (1, 4), (0, 5)];
        for chunk in [1, 2, 5] {
            let events = Mutex::new(Vec::new());
            run_pipeline_guarded(
                &gens,
                &items,
                1,
                chunk,
                &RunPolicy::none(),
                |g| {
                    if *g == 1 {
                        panic!("gen 1 down");
                    }
                    *g
                },
                |g, s| ok(g + s),
                |ev: GuardedEvent<'_, u64>| {
                    events.lock().unwrap().push((
                        ev.report.phase,
                        ev.report.index,
                        ev.report.failed(),
                        ev.value.copied(),
                    ))
                },
            );
            assert_eq!(
                events.into_inner().unwrap(),
                vec![
                    (Phase::Gen, 0, false, None),
                    (Phase::Sim, 0, false, Some(0)),
                    (Phase::Sim, 2, false, Some(2)),
                    (Phase::Sim, 5, false, Some(5)),
                    (Phase::Gen, 1, true, None),
                    (Phase::Sim, 1, true, None),
                    (Phase::Sim, 4, true, None),
                    (Phase::Gen, 2, false, None),
                    (Phase::Sim, 3, false, Some(5)),
                ],
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn fanout_timing_summarizes() {
        let t = FanoutTiming {
            items: 3,
            jobs: 4,
            cumulative: Duration::from_secs(8),
            wall: Duration::from_secs(2),
            gen_wall: Duration::ZERO,
            sim_wall: Duration::from_secs(8),
            serial_baseline: None,
        };
        assert!((t.occupancy() - 4.0).abs() < 1e-9);
        assert!((t.utilization() - 1.0).abs() < 1e-9);
        // No measured baseline: wall_speedup falls back to the
        // estimate (= occupancy here).
        assert!((t.wall_speedup() - 4.0).abs() < 1e-9);
        let j = t.to_json();
        assert_eq!(j.get("items").and_then(simcore::Json::as_u64), Some(3));
        assert_eq!(
            j.get("speedup").and_then(simcore::Json::as_f64),
            Some(t.occupancy())
        );
        assert_eq!(
            j.get("wall_speedup").and_then(simcore::Json::as_f64),
            Some(t.wall_speedup())
        );
        assert_eq!(
            j.get("gen_wall_seconds").and_then(simcore::Json::as_f64),
            Some(0.0)
        );
        assert!(j.get("sim_wall_seconds").is_some());
        assert!(j.get("serial_estimate_seconds").is_some());
        assert!(j.get("serial_baseline_seconds").is_none());
    }

    /// A measured baseline beats the estimate, and can honestly read
    /// below 1.0 on an oversubscribed host.
    #[test]
    fn wall_speedup_prefers_measured_baseline() {
        let mut t = FanoutTiming {
            items: 4,
            jobs: 2,
            cumulative: Duration::from_secs(8),
            wall: Duration::from_secs(4),
            gen_wall: Duration::from_secs(2),
            sim_wall: Duration::from_secs(6),
            serial_baseline: None,
        };
        assert!((t.wall_speedup() - 2.0).abs() < 1e-9);
        t.serial_baseline = Some(Duration::from_secs(3));
        assert!((t.wall_speedup() - 0.75).abs() < 1e-9);
        let j = t.to_json();
        assert_eq!(
            j.get("serial_baseline_seconds")
                .and_then(simcore::Json::as_f64),
            Some(3.0)
        );
    }

    /// Guarded timing splits phases, counts only successful items,
    /// and records a one-job run as its own baseline.
    #[test]
    fn guarded_timing_phase_split_and_serial_baseline() {
        let gen = vec![Some(((), Duration::from_secs(1)))];
        let sims = vec![
            Some(((), Duration::from_secs(2))),
            None,
            Some(((), Duration::from_secs(3))),
        ];
        let par = guarded_timing(&gen, &sims, 4, Duration::from_secs(2));
        assert_eq!(par.items, 2);
        assert_eq!(par.gen_wall, Duration::from_secs(1));
        assert_eq!(par.sim_wall, Duration::from_secs(5));
        assert_eq!(par.cumulative, Duration::from_secs(6));
        assert_eq!(par.serial_baseline, None);
        let ser = guarded_timing(&gen, &sims, 1, Duration::from_secs(6));
        assert_eq!(ser.serial_baseline, Some(Duration::from_secs(6)));
        assert!((ser.wall_speedup() - 1.0).abs() < 1e-9);
    }

    /// A panicking sim item is isolated: every other item completes,
    /// and the failure is recorded with its phase, index and payload.
    #[test]
    fn guarded_isolates_panicking_sim() {
        for jobs in [1, 4] {
            let gens = [10u64, 20];
            let items: Vec<(usize, u64)> = vec![(0, 1), (0, 2), (1, 3), (1, 4)];
            let run = pipeline(
                &gens,
                &items,
                jobs,
                1,
                &RunPolicy::none(),
                |g| *g,
                |g, s| {
                    if *s == 3 {
                        panic!("boom {s}");
                    }
                    g + s
                },
            );
            assert!(!run.is_complete());
            let fails: Vec<&ItemReport> = run.failures().collect();
            assert_eq!(fails.len(), 1);
            assert_eq!(fails[0].phase, Phase::Sim);
            assert_eq!(fails[0].index, 2);
            assert_eq!(fails[0].attempts, 1);
            assert_eq!(fails[0].error.as_deref(), Some("boom 3"));
            assert_eq!(fails[0].status(), None);
            assert_eq!(fails[0].status_label(), "failed");
            let vals: Vec<Option<u64>> = run
                .sims
                .iter()
                .map(|s| s.as_ref().map(|(o, _)| *o))
                .collect();
            assert_eq!(vals, vec![Some(11), Some(12), None, Some(24)]);
            assert_eq!(run.timing.items, 3, "timing counts successes only");
        }
    }

    /// A permanently failing generator marks its simulations skipped
    /// (attempts = 0) without attempting them; other apps complete.
    #[test]
    fn guarded_failed_generator_skips_its_sims() {
        for jobs in [1, 3] {
            let gens = [0u64, 5];
            let items: Vec<(usize, u64)> = vec![(0, 1), (0, 2), (1, 3)];
            let attempts = AtomicUsize::new(0);
            let policy = RunPolicy {
                retries: 1,
                ..RunPolicy::none()
            };
            let gen_f = |g: &u64| {
                if *g == 0 {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    panic!("gen down");
                }
                *g
            };
            let run = pipeline(&gens, &items, jobs, 1, &policy, gen_f, |g, s| g + s);
            assert_eq!(attempts.swap(0, Ordering::Relaxed), 2, "retried once");
            assert!(run.gen[0].is_none());
            assert_eq!(run.gen_reports[0].attempts, 2);
            assert_eq!(run.gen_reports[0].error.as_deref(), Some("gen down"));
            for si in [0, 1] {
                assert!(run.sims[si].is_none());
                let rep = &run.sim_reports[si];
                assert_eq!(rep.attempts, 0);
                assert_eq!(rep.error.as_deref(), Some("skipped: generator 0 failed"));
            }
            assert_eq!(run.sims[2].as_ref().map(|(o, _)| *o), Some(8));
            assert_eq!(run.failures().count(), 3);
        }
    }

    /// With an injected fault of depth 1 and one retry, every item
    /// recovers deterministically: same outputs as a fault-free run,
    /// statuses flip to `retried`.
    #[test]
    fn guarded_retries_recover_injected_faults() {
        let gens = [100u64, 200, 300];
        let items: Vec<(usize, u64)> = (0..9).map(|i| (i % 3, i as u64)).collect();
        let none = RunPolicy::none();
        let clean = pipeline(&gens, &items, 1, 1, &none, |g| *g, |g, s| g * 10 + s);
        for jobs in [1, 4] {
            let policy = RunPolicy {
                retries: 1,
                timeout: None,
                fault: FaultPlan::new(1.0, 42),
            };
            let run = pipeline(&gens, &items, jobs, 2, &policy, |g| *g, |g, s| g * 10 + s);
            assert!(run.is_complete());
            assert_eq!(
                values(&run.sims),
                values(&clean.sims),
                "retried results are bit-identical"
            );
            for rep in run.gen_reports.iter().chain(run.sim_reports.iter()) {
                assert_eq!(rep.attempts, 2);
                assert_eq!(rep.status(), Some(RunStatus::Retried));
                assert_eq!(rep.status_label(), "retried");
            }
        }
    }

    /// Fewer retries than the fault depth provably fails the selected
    /// items; everything else still completes.
    #[test]
    fn guarded_insufficient_retries_leave_failures() {
        let gens = [7u64];
        let items: Vec<(usize, u64)> = (0..4).map(|i| (0usize, i as u64)).collect();
        // Pick a seed that spares the generator and selects a strict
        // subset of the sims — selection is deterministic, so this
        // scan always lands on the same seed.
        let seed = (0..1000u64)
            .find(|&s| {
                let f = FaultPlan::new(0.5, s);
                let picked = (0..4).filter(|i| f.selects(&format!("sim:{i}"))).count();
                !f.selects("gen:0") && picked > 0 && picked < 4
            })
            .expect("some seed selects a strict sim subset");
        let mut policy = RunPolicy {
            retries: 0,
            timeout: None,
            fault: FaultPlan::new(0.5, seed),
        };
        policy.fault.depth = 2;
        let selected: Vec<usize> = (0..4)
            .filter(|i| policy.fault.selects(&format!("sim:{i}")))
            .collect();
        // One retry is below the fault depth of 2: still fails.
        policy.retries = 1;
        let run = pipeline(&gens, &items, 2, 1, &policy, |g| *g, |g, s| g + s);
        let failed: Vec<usize> = run
            .sim_reports
            .iter()
            .filter(|r| r.failed())
            .map(|r| r.index)
            .collect();
        assert_eq!(failed, selected);
        for &i in &selected {
            assert_eq!(run.sim_reports[i].attempts, 2);
            let err = run.sim_reports[i].error.as_deref().unwrap();
            assert!(err.starts_with(simcore::fault::PANIC_PREFIX), "{err}");
        }
        // Matching the depth recovers everything.
        policy.retries = 2;
        let run = pipeline(&gens, &items, 2, 1, &policy, |g| *g, |g, s| g + s);
        assert!(run.is_complete());
    }

    /// A zero timeout flags every item as a straggler without killing
    /// it: results are intact, statuses read `timeout`.
    #[test]
    fn guarded_timeout_flags_without_killing() {
        let gens = [1u64];
        let items: Vec<(usize, u64)> = vec![(0, 2), (0, 3)];
        let policy = RunPolicy {
            retries: 0,
            timeout: Some(Duration::ZERO),
            fault: FaultPlan::disabled(),
        };
        let run = pipeline(&gens, &items, 1, 1, &policy, |g| *g, |g, s| g + s);
        assert!(run.is_complete(), "timeouts never kill items");
        for rep in run.gen_reports.iter().chain(run.sim_reports.iter()) {
            assert!(rep.timed_out);
            assert_eq!(rep.status(), Some(RunStatus::Timeout));
        }
        assert_eq!(run.sims[0].as_ref().map(|(o, _)| *o), Some(3));
    }

    /// A sim returning `Err` settles exactly as a panicking one does:
    /// retried `policy.retries` times, then recorded with the error's
    /// text; one that errs once and then succeeds reads `retried`.
    #[test]
    fn guarded_records_returned_errors_like_panics() {
        for jobs in [1, 3] {
            let calls = [AtomicUsize::new(0), AtomicUsize::new(0)];
            let policy = RunPolicy {
                retries: 2,
                ..RunPolicy::none()
            };
            let items: Vec<(usize, u64)> = vec![(0, 0), (0, 1), (0, 2)];
            let run = run_pipeline_guarded(
                &[10u64],
                &items,
                jobs,
                1,
                &policy,
                |g| *g,
                |g, &s| match s {
                    0 => Err(format!("bad cell {s}")).inspect_err(|_| {
                        calls[0].fetch_add(1, Ordering::Relaxed);
                    }),
                    1 if calls[1].fetch_add(1, Ordering::Relaxed) == 0 => {
                        Err("transient".to_string())
                    }
                    _ => Ok(g + s),
                },
                |_| {},
            );
            assert_eq!(calls[0].load(Ordering::Relaxed), 3, "1 + retries attempts");
            let failed = &run.sim_reports[0];
            assert_eq!(failed.attempts, 3);
            assert_eq!(failed.error.as_deref(), Some("bad cell 0"));
            assert_eq!(failed.status(), None);
            assert!(run.sims[0].is_none());
            assert_eq!(run.sim_reports[1].attempts, 2);
            assert_eq!(run.sim_reports[1].status(), Some(RunStatus::Retried));
            assert_eq!(values(&run.sims[1..]), vec![11, 12]);
            assert_eq!(run.sim_reports[2].status(), Some(RunStatus::Ok));
            assert_eq!(run.failures().count(), 1);
        }
    }
}
