//! Std-thread fan-out for the study's embarrassingly parallel sweeps,
//! plus the per-item fault policy and timing shared with the study's
//! pipelined scheduler.
//!
//! The paper's core experiment — 9 applications × 4 cluster sizes × 4
//! cache specifications — replays independent deterministic
//! simulations, so the only thing serial execution buys is wasted
//! wall-clock. Every executor takes a `--jobs` knob (`STUDY_JOBS` env
//! var, default: all available cores; see [`resolve_jobs`]):
//!
//! * [`run_items_streamed`] — a flat scoped-thread work-stealing loop
//!   over one homogeneous item pool (`cluster_serve` cells, the
//!   sampling harness) that hands results to the caller in input order
//!   as they complete; [`run_items`] is the same loop without the
//!   callback. Workers steal *chunks* of consecutive indices rather
//!   than one index at a time, so a 144-item matrix costs a handful of
//!   atomic RMWs per worker instead of one per item.
//! * The two-phase generate-and-simulate scheduler behind
//!   [`crate::study::StudySpec`] lives in `study.rs`. It runs each of
//!   its items under a [`RunPolicy`] (panic isolation, bounded
//!   retries, soft timeout, fault injection) and sums their walls into
//!   a [`FanoutTiming`]; both are defined here.
//!
//! Simulations are pure functions of `(trace, machine config)`, so
//! both executors are **bit-identical** to the serial path: results
//! are returned in input order regardless of completion order, and a
//! root integration test asserts `RunStats` equality per item.

use std::sync::atomic::{AtomicUsize, Ordering};
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

/// How one work item settled under a [`RunPolicy`]: the first
/// successful attempt's value or the last failed attempt's text, the
/// attempts consumed, and the final attempt's wall.
pub(crate) struct Settled<R> {
    pub(crate) result: Result<R, String>,
    pub(crate) attempts: u32,
    pub(crate) wall: Duration,
    /// Whether the final attempt exceeded [`RunPolicy::timeout`].
    pub(crate) timed_out: bool,
}

impl<R> Settled<R> {
    /// Status of a successful item: a soft timeout outranks a retry.
    pub(crate) fn status(&self) -> RunStatus {
        if self.timed_out {
            RunStatus::Timeout
        } else if self.attempts > 1 {
            RunStatus::Retried
        } else {
            RunStatus::Ok
        }
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

impl RunPolicy {
    /// Runs one work item: up to `1 + retries` attempts, each wrapped
    /// in `catch_unwind` with fault injection applied first. An
    /// attempt fails by panicking or by returning `Err`; both are
    /// retried alike and leave their text as the error. Simulations
    /// are pure functions, so a retry that succeeds yields the
    /// bit-identical result.
    ///
    /// The injection key `"{phase}:{index}"` is a pure function of the
    /// item's coordinates, so a fault schedule selects the same items
    /// at any job count.
    pub(crate) fn attempt<R, E: std::fmt::Display>(
        &self,
        phase: Phase,
        index: usize,
        f: impl Fn() -> Result<R, E>,
    ) -> Settled<R> {
        let max_attempts = self.retries.saturating_add(1);
        let key = self
            .fault
            .is_active()
            .then(|| format!("{}:{index}", phase.label()));
        let mut attempts = 0;
        loop {
            let t0 = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if let Some(key) = &key {
                    self.fault.apply(key, attempts);
                }
                f()
            }));
            let wall = t0.elapsed();
            attempts += 1;
            let result = match outcome {
                Ok(r) => r.map_err(|e| e.to_string()),
                Err(payload) => Err(panic_message(payload.as_ref())),
            };
            if result.is_ok() || attempts == max_attempts {
                return Settled {
                    result,
                    attempts,
                    wall,
                    timed_out: self.timeout.is_some_and(|t| wall > t),
                };
            }
        }
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
    use std::sync::Mutex;

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

    /// A returned `Err` settles exactly as a panic does: retried
    /// `retries` times, then recorded with its text; an item that errs
    /// once and then succeeds reads `retried`.
    #[test]
    fn attempt_retries_errors_and_panics_alike() {
        let policy = RunPolicy {
            retries: 2,
            ..RunPolicy::none()
        };
        let calls = AtomicUsize::new(0);
        let failed = policy.attempt(Phase::Sim, 0, || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err::<u64, _>("bad cell 0")
        });
        assert_eq!(calls.swap(0, Ordering::Relaxed), 3, "1 + retries attempts");
        assert_eq!(failed.attempts, 3);
        assert_eq!(failed.result, Err("bad cell 0".to_string()));
        let panicked = policy.attempt(Phase::Gen, 0, || -> Result<u64, String> {
            panic!("gen down");
        });
        assert_eq!(panicked.attempts, 3);
        assert_eq!(panicked.result, Err("gen down".to_string()));
        let transient = policy.attempt(Phase::Sim, 1, || {
            match calls.fetch_add(1, Ordering::Relaxed) {
                0 => Err("transient"),
                _ => Ok(11u64),
            }
        });
        assert_eq!(transient.result, Ok(11));
        assert_eq!(transient.attempts, 2);
        assert_eq!(transient.status(), RunStatus::Retried);
        let clean = RunPolicy::none().attempt(Phase::Sim, 2, || Ok::<_, String>(12u64));
        assert_eq!(clean.status(), RunStatus::Ok);
        assert_eq!((clean.result, clean.attempts), (Ok(12), 1));
    }

    /// Retries below the fault depth leave the injected failure; a
    /// budget matching the depth recovers the item.
    #[test]
    fn attempt_recovers_injected_faults_up_to_their_depth() {
        let mut policy = RunPolicy {
            retries: 1,
            timeout: None,
            fault: FaultPlan::new(1.0, 42),
        };
        let run = |p: &RunPolicy| p.attempt(Phase::Sim, 3, || Ok::<_, String>(7u64));
        let recovered = run(&policy);
        assert_eq!((recovered.result, recovered.attempts), (Ok(7), 2));
        policy.fault.depth = 2;
        let failed = run(&policy);
        assert_eq!(failed.attempts, 2);
        let err = failed.result.unwrap_err();
        assert!(err.starts_with(simcore::fault::PANIC_PREFIX), "{err}");
        assert!(err.contains("sim:3"), "the key names the item: {err}");
        policy.retries = 2;
        assert_eq!(run(&policy).result, Ok(7));
    }

    /// A zero timeout flags the item without killing it.
    #[test]
    fn attempt_timeout_flags_without_killing() {
        let policy = RunPolicy {
            retries: 0,
            timeout: Some(Duration::ZERO),
            fault: FaultPlan::disabled(),
        };
        let s = policy.attempt(Phase::Sim, 0, || {
            std::thread::sleep(Duration::from_millis(1));
            Ok::<_, String>(3u64)
        });
        assert_eq!(s.result, Ok(3));
        assert!(s.timed_out);
        assert_eq!(s.status(), RunStatus::Timeout);
    }
}
