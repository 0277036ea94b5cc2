//! The discrete-event replay engine.
//!
//! **Scheduler.** Every processor has a local clock. The running
//! processor keeps running while its clock is at most the smallest
//! clock among the other runnable processors, so a tie keeps the
//! running processor (the sticky tie rule); once its clock is strictly
//! later, the runnable processor with the smallest `(clock, id)` runs
//! next. The other runnable processors sit in a binary min-heap keyed
//! by `(clock, id)`. A switch replaces the heap's top with the running
//! processor's key in place (one sift-down, no push), which is exact:
//! that key is above the top, so a push and a pop would return the old
//! top. Only a block (barrier, held lock) or a finish pops, and only a
//! wake-up (barrier release, lock grant) pushes.
//!
//! **Taps.** The one replay loop is generic over a `Tap` that
//! classifies each compute and memory operation and receives each
//! access's outcome: `PlainTap` for [`try_run_with`], `ObserverTap` for
//! [`try_run_observed`] and `PlanTap` for [`try_run_sampled`]. Each
//! entry point compiles to its own step loop; the plain one measures
//! every operation and observes none, with no per-op branch for either.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use coherence::{MachineConfig, MemorySystem, Outcome, ProtocolError};
use simcore::cast::usize_from;
use simcore::ops::{Op, Trace};
use simcore::sample::{OpClass, SamplePlan};
use simcore::stats::{Breakdown, MissStats, RunStats};
use simcore::witness::{CommitKind, WitnessEvent};

/// A replay failure reachable from user input: a trace whose shape
/// does not match the machine, one that touches unallocated memory or
/// whose synchronization cannot complete, or out-of-range options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The protocol rejected the configuration or an access.
    Protocol(ProtocolError),
    /// The trace was generated for a different processor count than
    /// the machine provides.
    ProcCountMismatch {
        /// Processors in the trace.
        trace: usize,
        /// Processors in the machine configuration.
        machine: u32,
    },
    /// [`EngineOptions::load_latency`] is zero.
    InvalidOptions {
        /// Name of the offending field.
        field: &'static str,
    },
    /// A processor reached a barrier other than the next one in id
    /// order.
    BarrierOutOfOrder {
        /// The processor.
        proc: u32,
        /// The barrier id every processor must reach next.
        expected: u32,
        /// The barrier id this processor reached.
        found: u32,
    },
    /// The replay ran out of runnable processors with some still
    /// blocked on a barrier or a lock.
    Deadlock {
        /// Processors that never finished.
        stuck: usize,
    },
    /// A processor named a lock id beyond the trace's lock count, or
    /// released a lock it does not hold.
    BadLock {
        /// The processor.
        proc: u32,
        /// The lock id it named.
        lock: u32,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Protocol(e) => write!(f, "{e}"),
            EngineError::ProcCountMismatch { trace, machine } => write!(
                f,
                "trace has {trace} processors but machine expects {machine}"
            ),
            EngineError::InvalidOptions { field } => {
                write!(f, "engine option {field} must be at least 1")
            }
            EngineError::BarrierOutOfOrder {
                proc,
                expected,
                found,
            } => write!(
                f,
                "barrier out of order on proc {proc}: reached {found}, expected {expected}"
            ),
            EngineError::Deadlock { stuck } => {
                write!(f, "deadlock: {stuck} processors never finished")
            }
            EngineError::BadLock { proc, lock } => write!(
                f,
                "bad lock op on proc {proc}: lock {lock} is out of range or not held"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for EngineError {
    fn from(e: ProtocolError) -> EngineError {
        EngineError::Protocol(e)
    }
}

/// Tunables beyond the machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Effective load latency in cycles for the Pixie-analogue
    /// measurements of Table 5. The default of 1 reproduces the paper's
    /// simulation proper (single-cycle hits). Values 2–4 charge
    /// `load_latency - 1` extra cycles on *dependent* loads: one
    /// explicit read in every `DEPENDENT_LOAD_PERIOD` (4) and one
    /// implicit load per `IMPLICIT_LOAD_PERIOD` (18) compute cycles.
    pub load_latency: u64,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions { load_latency: 1 }
    }
}

/// One explicit load in every this many is treated as having its
/// destination register consumed before the pipeline can hide extra
/// latency ("the processor will not stall on a load instruction until
/// the register destination of the load is used"): a compiler that
/// hides ~75% of the added latency.
const DEPENDENT_LOAD_PERIOD: u64 = 4;

/// `Compute(k)` blocks stand for dense loops whose element loads were
/// coalesced at trace generation (see DESIGN.md); for the
/// Pixie-analogue factor measurements they must still feel the longer
/// load latency. One *dependent* implicit load is assumed per this many
/// compute cycles (≈25% load density with 1-in-4 unhideable), which
/// puts the measured Table 5 factors in the paper's band.
const IMPLICIT_LOAD_PERIOD: u64 = 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcStatus {
    Runnable,
    InBarrier,
    WaitingLock,
    Done,
}

#[derive(Debug)]
struct ProcState {
    clock: u64,
    idx: usize,
    bd: Breakdown,
    status: ProcStatus,
    reads_issued: u64,
    /// Clock value when the processor blocked (barrier arrival or lock
    /// request time).
    blocked_at: u64,
    /// Cycles spent on warm-classified operations, broken down the
    /// same way [`Breakdown`] splits measured time: charged to the
    /// clock (so interleaving stays realistic) but kept out of `bd`
    /// (so warmup never enters the statistics).
    warm_bd: Breakdown,
}

#[derive(Debug, Default)]
struct LockState {
    holder: Option<u32>,
    queue: VecDeque<u32>,
}

/// Result of a sampled replay: the measured statistics plus the warm
/// replay's functional memory outcomes, which feed the estimate side
/// of the results layer and never the deterministic stats view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledRun {
    /// Statistics of the measured operations (plus the always-executed
    /// synchronization skeleton), exactly as a full replay would
    /// report them for those operations.
    pub stats: RunStats,
    /// Functional hit/miss outcomes of the warm-classified operations.
    pub warm_mem: MissStats,
    /// Cycles the warm-classified operations spent, split into the
    /// same components as the measured breakdown (sync is always
    /// measured in full, so its warm share is zero).
    pub warm_bd: Breakdown,
}

/// Full replay of `trace` on `machine`: the run statistics, or the
/// typed reason the trace does not fit the machine.
pub fn try_run_with(
    trace: &Trace,
    machine: MachineConfig,
    opts: EngineOptions,
) -> Result<RunStats, EngineError> {
    replay(trace, machine, opts, &mut PlainTap).map(|r| r.stats)
}

/// Full replay with a witness observer: `observer` is called once for
/// every *committed* memory access, in the engine's serialization
/// order, with the access's issue time, processor, byte address, and
/// functional outcome. Merge waits retry and are not commits, so they
/// never reach the observer. The replay itself is bit-identical to
/// [`try_run_with`] — observation cannot perturb timing.
///
/// This is the certification tap (DESIGN.md §15): `cluster_check
/// certify` replays a trace observed and checks coherence ordering
/// invariants over the event stream.
pub fn try_run_observed(
    trace: &Trace,
    machine: MachineConfig,
    opts: EngineOptions,
    observer: &mut dyn FnMut(WitnessEvent),
) -> Result<RunStats, EngineError> {
    replay(trace, machine, opts, &mut ObserverTap(observer)).map(|r| r.stats)
}

/// The witness classification of a memory outcome: `None` for a merge
/// wait (the access retries; nothing committed yet).
fn commit_of(o: &Outcome) -> Option<CommitKind> {
    match o {
        Outcome::ReadHit => Some(CommitKind::ReadHit),
        Outcome::ReadMiss { .. } => Some(CommitKind::ReadMiss),
        Outcome::ReadBus { .. } => Some(CommitKind::ReadBus),
        Outcome::WriteHit => Some(CommitKind::WriteHit),
        Outcome::WriteMiss => Some(CommitKind::WriteMiss),
        Outcome::Upgrade => Some(CommitKind::Upgrade),
        Outcome::MergeWait { .. } => None,
    }
}

/// What one replay does beyond plain timing: how it classifies each
/// compute or memory operation, and what it does with each memory
/// access's outcome. [`replay`] is generic over it, so each entry
/// point compiles to its own step loop and the plain one carries no
/// per-op classification, observer call or ledger swap.
trait Tap {
    /// Class of operation `idx` of processor `pid`.
    fn class(&self, pid: usize, idx: usize) -> OpClass;
    /// The outcome of processor `proc`'s access to `addr` issued at
    /// `time` (merge waits included; they are not commits).
    fn access(&mut self, time: u64, proc: u32, addr: u64, outcome: &Outcome);
}

/// Full replay: everything measured, nothing observed.
struct PlainTap;

impl Tap for PlainTap {
    #[inline(always)]
    fn class(&self, _: usize, _: usize) -> OpClass {
        OpClass::Measure
    }
    #[inline(always)]
    fn access(&mut self, _: u64, _: u32, _: u64, _: &Outcome) {}
}

/// Full replay with every committed access handed to an observer.
struct ObserverTap<'a>(&'a mut dyn FnMut(WitnessEvent));

impl Tap for ObserverTap<'_> {
    #[inline(always)]
    fn class(&self, _: usize, _: usize) -> OpClass {
        OpClass::Measure
    }
    #[inline]
    fn access(&mut self, time: u64, proc: u32, addr: u64, outcome: &Outcome) {
        if let Some(commit) = commit_of(outcome) {
            (self.0)(WitnessEvent {
                time,
                proc,
                addr,
                commit,
            });
        }
    }
}

/// Sampled replay: each operation classified by the plan.
struct PlanTap<'a>(&'a SamplePlan);

impl Tap for PlanTap<'_> {
    #[inline]
    fn class(&self, pid: usize, idx: usize) -> OpClass {
        self.0.class(pid, idx)
    }
    #[inline(always)]
    fn access(&mut self, _: u64, _: u32, _: u64, _: &Outcome) {}
}

/// Sampled replay under a [`SamplePlan`]. Measured and warm
/// operations take the same replay step — warm operations touch the
/// memory system and advance the processor clock by their full-replay
/// cost (computes by their cycle count, read misses by their miss
/// latency, merge stalls waited out and retried), so cross-processor
/// interleaving and synchronization waits track the full replay
/// exactly. The class only picks the ledger: measured operations are
/// charged to [`SampledRun::stats`], warm ones to
/// [`SampledRun::warm_mem`] and [`SampledRun::warm_bd`]. The
/// dependent-load refinement of [`EngineOptions::load_latency`] is a
/// measured-only model and never applies to warm operations. Skipped
/// operations are not replayed: each skipped range collapses to zero
/// cycles, which is where sampled timing diverges from the full
/// replay. Synchronization operations always execute in full,
/// preserving the sync skeleton. A plan whose rate is 1.0 reproduces
/// the full replay bit-for-bit, and any plan with no skipped
/// operations reproduces its exact timing.
pub fn try_run_sampled(
    trace: &Trace,
    machine: MachineConfig,
    opts: EngineOptions,
    plan: &SamplePlan,
) -> Result<SampledRun, EngineError> {
    replay(trace, machine, opts, &mut PlanTap(plan))
}

fn replay<T: Tap>(
    trace: &Trace,
    machine: MachineConfig,
    opts: EngineOptions,
    tap: &mut T,
) -> Result<SampledRun, EngineError> {
    let n = trace.n_procs();
    if n != usize_from(machine.n_procs) {
        return Err(EngineError::ProcCountMismatch {
            trace: n,
            machine: machine.n_procs,
        });
    }
    if opts.load_latency == 0 {
        return Err(EngineError::InvalidOptions {
            field: "load_latency",
        });
    }

    let mut mem = MemorySystem::try_new(machine, &trace.space)?;
    let mut procs: Vec<ProcState> = (0..n)
        .map(|_| ProcState {
            clock: 0,
            idx: 0,
            bd: Breakdown::default(),
            status: ProcStatus::Runnable,
            reads_issued: 0,
            blocked_at: 0,
            warm_bd: Breakdown::default(),
        })
        .collect();
    let mut warm_mem = MissStats::default();
    let mut locks: Vec<LockState> = (0..trace.n_locks).map(|_| LockState::default()).collect();

    // Barrier bookkeeping: every processor participates in every
    // barrier, in id order (Trace::validate guarantees this).
    let mut barrier_waiting: Vec<u32> = Vec::with_capacity(n);
    let mut barrier_id: u32 = 0;

    // The runnable processors other than the running one, keyed by
    // (clock, pid); the module docs give the switch rule.
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..machine.n_procs).map(|p| Reverse((0, p))).collect();
    let mut done = 0usize;
    let extra_load = opts.load_latency - 1;

    let mut next = heap.pop();
    while let Some(Reverse((t, pid))) = next {
        let pidx = usize_from(pid);
        debug_assert_eq!(procs[pidx].clock, t, "stale heap entry");
        debug_assert_eq!(procs[pidx].status, ProcStatus::Runnable);
        let ops = &trace.per_proc[pidx];

        // Run this processor while it remains the globally earliest.
        next = 'steps: loop {
            let clock = procs[pidx].clock;
            if let Some(mut top) = heap.peek_mut() {
                if clock > top.0 .0 {
                    let Reverse(earliest) = std::mem::replace(&mut *top, Reverse((clock, pid)));
                    break 'steps Some(Reverse(earliest));
                }
            }
            if procs[pidx].idx >= ops.len() {
                procs[pidx].status = ProcStatus::Done;
                done += 1;
                break 'steps heap.pop();
            }
            let op = ops[procs[pidx].idx].unpack();
            // Sampling classification applies only to compute and
            // memory operations; synchronization always executes so
            // barrier ordering and FIFO lock grants are preserved.
            let class = match op {
                Op::Compute(_) | Op::Read(_) | Op::Write(_) => tap.class(pidx, procs[pidx].idx),
                _ => OpClass::Measure,
            };
            if class == OpClass::Skip {
                procs[pidx].idx += 1;
                continue 'steps;
            }
            // Warm operations pay their full-replay cost on the clock,
            // so interleaving and the sync skeleton track the full
            // replay exactly, but charge it to the warm ledger.
            let measure = class == OpClass::Measure;
            match op {
                Op::Compute(c) => {
                    let p = &mut procs[pidx];
                    p.clock += c;
                    p.idx += 1;
                    if !measure {
                        p.warm_bd.cpu += c;
                        continue 'steps;
                    }
                    p.bd.cpu += c;
                    if extra_load > 0 {
                        // Dependent implicit loads inside the coalesced
                        // dense loop feel the longer latency.
                        let stall = c / IMPLICIT_LOAD_PERIOD * extra_load;
                        p.bd.load += stall;
                        p.clock += stall;
                    }
                }
                Op::Read(a) | Op::Write(a) => {
                    let now = procs[pidx].clock;
                    let is_read = matches!(op, Op::Read(_));
                    // Warm functional outcomes land in `warm_mem`: the
                    // swap makes it the counter set this access bumps.
                    if !measure {
                        std::mem::swap(&mut mem.stats, &mut warm_mem);
                    }
                    let r = if is_read {
                        mem.try_read(pid, a, now)
                    } else {
                        mem.try_write(pid, a, now)
                    };
                    if !measure {
                        std::mem::swap(&mut mem.stats, &mut warm_mem);
                    }
                    let outcome = r?;
                    tap.access(now, pid, a, &outcome);
                    let p = &mut procs[pidx];
                    let bd = if measure { &mut p.bd } else { &mut p.warm_bd };
                    match outcome {
                        Outcome::MergeWait { ready_at } => {
                            // Wait out the outstanding fill, then retry
                            // the same op (the line may have been
                            // invalidated meanwhile): idx not advanced.
                            debug_assert!(ready_at > p.clock);
                            bd.merge += ready_at - p.clock;
                            p.clock = ready_at;
                            continue 'steps;
                        }
                        Outcome::ReadMiss { stall, .. } | Outcome::ReadBus { stall } => {
                            bd.cpu += 1;
                            bd.load += stall;
                            p.clock += 1 + stall;
                        }
                        // Hits, and writes: the paper never stalls the
                        // processor on a write.
                        _ => {
                            bd.cpu += 1;
                            p.clock += 1;
                        }
                    }
                    p.idx += 1;
                    if measure && is_read {
                        p.reads_issued += 1;
                        if extra_load > 0 && p.reads_issued.is_multiple_of(DEPENDENT_LOAD_PERIOD) {
                            p.bd.load += extra_load;
                            p.clock += extra_load;
                        }
                    }
                }
                Op::Barrier(id) => {
                    if id != barrier_id {
                        return Err(EngineError::BarrierOutOfOrder {
                            proc: pid,
                            expected: barrier_id,
                            found: id,
                        });
                    }
                    let p = &mut procs[pidx];
                    p.bd.cpu += 1;
                    p.clock += 1;
                    p.idx += 1;
                    p.blocked_at = p.clock;
                    if barrier_waiting.len() + 1 == n {
                        // Last arrival: release everyone at this time.
                        // Because the heap serves smallest clocks first,
                        // this arrival time is the maximum.
                        let release = p.clock;
                        barrier_id += 1;
                        for w in barrier_waiting.drain(..) {
                            let wp = &mut procs[usize_from(w)];
                            debug_assert!(wp.blocked_at <= release);
                            wp.bd.sync += release - wp.blocked_at;
                            wp.clock = release;
                            wp.status = ProcStatus::Runnable;
                            heap.push(Reverse((release, w)));
                        }
                        // This processor continues immediately.
                    } else {
                        barrier_waiting.push(pid);
                        procs[pidx].status = ProcStatus::InBarrier;
                        break 'steps heap.pop();
                    }
                }
                Op::Lock(id) => {
                    let lock = locks.get_mut(usize_from(id)).ok_or(EngineError::BadLock {
                        proc: pid,
                        lock: id,
                    })?;
                    if lock.holder.is_none() {
                        lock.holder = Some(pid);
                        let p = &mut procs[pidx];
                        p.bd.cpu += 1;
                        p.clock += 1;
                        p.idx += 1;
                    } else {
                        lock.queue.push_back(pid);
                        let p = &mut procs[pidx];
                        p.blocked_at = p.clock;
                        p.status = ProcStatus::WaitingLock;
                        p.idx += 1; // acquisition completes at grant time
                        break 'steps heap.pop();
                    }
                }
                Op::Unlock(id) => {
                    let lock = locks
                        .get_mut(usize_from(id))
                        .filter(|l| l.holder == Some(pid))
                        .ok_or(EngineError::BadLock {
                            proc: pid,
                            lock: id,
                        })?;
                    let p = &mut procs[pidx];
                    p.bd.cpu += 1;
                    p.clock += 1;
                    p.idx += 1;
                    let release = p.clock;
                    match lock.queue.pop_front() {
                        Some(w) => {
                            lock.holder = Some(w);
                            let wp = &mut procs[usize_from(w)];
                            debug_assert!(wp.blocked_at <= release);
                            wp.bd.sync += release - wp.blocked_at;
                            // The grant itself costs the acquire cycle.
                            wp.bd.cpu += 1;
                            wp.clock = release + 1;
                            wp.status = ProcStatus::Runnable;
                            heap.push(Reverse((wp.clock, w)));
                        }
                        None => lock.holder = None,
                    }
                }
            }
        };
    }

    if done != n {
        return Err(EngineError::Deadlock { stuck: n - done });
    }
    let exec_time = procs.iter().map(|p| p.clock).max().unwrap_or(0);
    // The terminal barrier aligns all clocks; fold any residue (possible
    // only for truncated traces without one) into sync wait. Warm
    // cycles advance the clock without a breakdown component, so the
    // invariant is `breakdown + warm == exec_time` (warm is zero for
    // full replays).
    let mut warm_bd = Breakdown::default();
    for p in &mut procs {
        p.bd.sync += exec_time - p.clock;
        debug_assert_eq!(
            p.bd.total() + p.warm_bd.total(),
            exec_time,
            "breakdown plus warm cycles must sum to exec time"
        );
        warm_bd += p.warm_bd;
    }
    Ok(SampledRun {
        stats: RunStats {
            per_proc: procs.into_iter().map(|p| p.bd).collect(),
            mem: mem.stats,
            exec_time,
        },
        warm_mem,
        warm_bd,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coherence::config::CacheSpec;
    use simcore::ops::{PackedOp, TraceBuilder};

    fn full_run(t: &Trace, m: MachineConfig) -> RunStats {
        try_run_with(t, m, EngineOptions::default()).expect("fixture replays")
    }

    fn sampled_run(t: &Trace, m: MachineConfig, plan: &SamplePlan) -> SampledRun {
        try_run_sampled(t, m, EngineOptions::default(), plan).expect("fixture replays")
    }

    fn cfg(n_procs: u32, per_cluster: u32) -> MachineConfig {
        MachineConfig {
            n_procs,
            per_cluster,
            cache: CacheSpec::Infinite,
            lat: coherence::LatencyTable::paper(),
        }
    }

    #[test]
    fn single_proc_breakdown() {
        let mut b = TraceBuilder::new(1);
        let a = b.space_mut().alloc_shared(64);
        b.compute(0, 10);
        b.read(0, a); // miss: home local (only cluster) => 30
        b.read(0, a); // hit
        b.write(0, a); // upgrade, free
        let t = b.finish();
        let rs = full_run(&t, cfg(1, 1));
        let bd = rs.per_proc[0];
        // cpu: 10 compute + 2 reads + 1 write + 1 barrier = 14
        assert_eq!(bd.cpu, 14);
        assert_eq!(bd.load, 30);
        assert_eq!(bd.merge, 0);
        assert_eq!(bd.sync, 0);
        assert_eq!(rs.exec_time, 44);
    }

    /// A region far past the dense directory's cap is a typed error
    /// from the replay, never an allocation abort. The trace reads the
    /// region's last line that a packed op can address (2^61 - 64; the
    /// region itself ends at 2^62 + 64).
    #[test]
    fn huge_address_space_is_a_typed_error() {
        use simcore::addr::LINE_BYTES;
        use simcore::ops::MAX_PAYLOAD;
        use simcore::space::Placement;
        let mut b = TraceBuilder::new(1);
        let base = b.space_mut().try_alloc(1 << 62, Placement::RoundRobin);
        assert_eq!(base, Some(LINE_BYTES));
        b.read(0, MAX_PAYLOAD & !(LINE_BYTES - 1));
        let t = b.finish();
        let err = try_run_with(&t, cfg(1, 1), EngineOptions::default()).unwrap_err();
        assert_eq!(
            err,
            EngineError::Protocol(ProtocolError::DirectoryTooLarge {
                lines: (1 << 56) + 1
            })
        );
    }

    /// Replays one read on a 1-processor cluster under a
    /// set-associative cache of `bytes` and `ways` ways.
    fn set_assoc_replay(bytes: u64, ways: usize) -> Result<RunStats, EngineError> {
        let mut b = TraceBuilder::new(1);
        let a = b.space_mut().alloc_shared(64);
        b.read(0, a);
        let m = MachineConfig {
            cache: CacheSpec::PerProcSetAssoc { bytes, ways },
            ..cfg(1, 1)
        };
        try_run_with(&b.finish(), m, EngineOptions::default())
    }

    /// A bad set-associative geometry is a typed error from the
    /// replay, never a panic.
    #[test]
    fn set_count_not_power_of_two_is_a_typed_error() {
        use coherence::ConfigError;
        use simcore::cache::CacheError;
        // 64 lines in 3 ways: 21 sets.
        assert_eq!(
            set_assoc_replay(4096, 3).unwrap_err(),
            EngineError::Protocol(ProtocolError::Config(ConfigError::Cache(
                CacheError::SetsNotPowerOfTwo { sets: 21 }
            )))
        );
        assert!(set_assoc_replay(4096, 4).is_ok());
    }

    /// A set-associative spec smaller than one set is rejected as
    /// given, never grown to fit: 128 bytes is 2 lines, below 4 ways.
    #[test]
    fn set_assoc_capacity_below_ways_is_a_typed_error() {
        use coherence::ConfigError;
        use simcore::cache::CacheError;
        assert_eq!(
            set_assoc_replay(128, 4).unwrap_err(),
            EngineError::Protocol(ProtocolError::Config(ConfigError::Cache(
                CacheError::CapacityBelowWays { lines: 2, ways: 4 }
            )))
        );
    }

    #[test]
    fn zero_ways_is_a_typed_error() {
        use coherence::ConfigError;
        use simcore::cache::CacheError;
        assert_eq!(
            set_assoc_replay(4096, 0).unwrap_err(),
            EngineError::Protocol(ProtocolError::Config(ConfigError::Cache(
                CacheError::ZeroWays
            )))
        );
    }

    #[test]
    fn barrier_sync_accounting() {
        let mut b = TraceBuilder::new(2);
        b.compute(0, 5);
        b.compute(1, 100);
        b.barrier_all();
        let t = b.finish();
        let rs = full_run(&t, cfg(2, 1));
        // Proc 0 arrives at 6 (5 compute + 1 barrier cycle), proc 1 at
        // 101; release at 101.
        assert_eq!(rs.per_proc[0].sync, 95);
        assert_eq!(rs.per_proc[1].sync, 0);
        assert_eq!(rs.exec_time, 102); // + final barrier cycle
        for bd in &rs.per_proc {
            assert_eq!(bd.total(), rs.exec_time);
        }
    }

    #[test]
    fn lock_contention_fifo_and_sync() {
        let mut b = TraceBuilder::new(3);
        let l = b.new_lock();
        for p in 0..3 {
            b.compute(p, p as u64); // stagger arrival: 0, 1, 2
            b.lock(p, l);
            b.compute(p, 50); // critical section
            b.unlock(p, l);
        }
        let t = b.finish();
        let rs = full_run(&t, cfg(3, 1));
        // Critical sections serialize: three 50-cycle sections plus
        // acquire/release overhead must exceed 150 cycles end to end.
        assert!(rs.exec_time > 150, "exec {} not serialized", rs.exec_time);
        // Everyone waited: the two lock waiters on the lock, the first
        // holder at the final barrier.
        for bd in &rs.per_proc {
            assert!(bd.sync > 0);
            assert_eq!(bd.total(), rs.exec_time);
        }
        // FIFO grant: exec time is exactly the fully serialized span.
        // proc0 unlocks at 52; proc1 granted (clock 53), unlocks at 104;
        // proc2 granted (clock 105), unlocks at 156; final barrier +1.
        assert_eq!(rs.exec_time, 157);
    }

    #[test]
    fn merge_stall_charged_to_cluster_mate() {
        // Two procs in one cluster read the same cold line back to back.
        let mut b = TraceBuilder::new(2);
        let a = b.space_mut().alloc_shared(64);
        b.read(0, a);
        b.compute(1, 5); // proc 1 slightly behind
        b.read(1, a);
        let t = b.finish();
        let rs = full_run(&t, cfg(2, 2));
        assert_eq!(rs.mem.read_misses, 1, "one miss for the cluster");
        assert_eq!(rs.mem.merge_stalls, 1);
        assert!(rs.per_proc[1].merge > 0, "follower merge-stalled");
        assert_eq!(rs.per_proc[0].merge, 0);
    }

    #[test]
    fn clustering_reduces_exec_time_on_shared_reads() {
        // 4 procs all read the same 64-line region; clustered they
        // prefetch for each other.
        let build = || {
            let mut b = TraceBuilder::new(4);
            let base = b.space_mut().alloc_shared(64 * 64);
            for p in 0..4u32 {
                b.compute(p, p as u64 * 200); // stagger so merges resolve
                for l in 0..64u64 {
                    b.read(p, base + l * 64);
                    b.compute(p, 10);
                }
            }
            b.finish()
        };
        let t = build();
        let solo = full_run(&t, cfg(4, 1));
        let clustered = full_run(&t, cfg(4, 4));
        assert!(
            clustered.exec_time < solo.exec_time,
            "clustered {} !< unclustered {}",
            clustered.exec_time,
            solo.exec_time
        );
        assert!(clustered.mem.read_misses < solo.mem.read_misses);
    }

    #[test]
    fn determinism() {
        let mut b = TraceBuilder::new(4);
        let a = b.space_mut().alloc_shared(64 * 32);
        let l = b.new_lock();
        for p in 0..4u32 {
            for i in 0..32u64 {
                b.read(p, a + ((i * 7 + p as u64 * 13) % 32) * 64);
                if i % 8 == 0 {
                    b.lock(p, l);
                    b.write(p, a);
                    b.unlock(p, l);
                }
            }
        }
        b.barrier_all();
        let t = b.finish();
        let r1 = full_run(&t, cfg(4, 2));
        let r2 = full_run(&t, cfg(4, 2));
        assert_eq!(r1.exec_time, r2.exec_time);
        assert_eq!(r1.mem, r2.mem);
    }

    #[test]
    fn extra_load_latency_slows_execution() {
        let mut b = TraceBuilder::new(1);
        let a = b.space_mut().alloc_shared(64 * 16);
        for i in 0..160u64 {
            b.read(0, a + (i % 16) * 64);
            b.compute(0, 2);
        }
        let t = b.finish();
        let base = full_run(&t, cfg(1, 1));
        let slow = try_run_with(&t, cfg(1, 1), EngineOptions { load_latency: 4 }).unwrap();
        assert!(slow.exec_time > base.exec_time);
        // 160 reads, every 4th dependent => 40 * 3 extra cycles.
        assert_eq!(slow.exec_time, base.exec_time + 40 * 3);
    }

    #[test]
    fn merge_retry_observes_invalidation() {
        // Cluster 0 (procs 0,1) reads; while pending, cluster 1 (proc 2)
        // writes, invalidating the pending line. Proc 1's merged read
        // must re-miss rather than silently hit stale data.
        let mut b = TraceBuilder::new(4);
        let a = b.space_mut().alloc_shared(64 * 4);
        b.read(0, a); // t=0 miss, pending until ~30 or 100
        b.compute(1, 2);
        b.read(1, a); // merges at t=2
        b.compute(2, 10);
        b.write(2, a); // t=10: invalidates cluster 0's pending line
        let t = b.finish();
        let rs = full_run(&t, cfg(4, 2));
        // Proc 1 retried and missed again: at least 2 read misses total.
        assert!(
            rs.mem.read_misses >= 2,
            "expected retry to re-miss, got {:?}",
            rs.mem
        );
    }

    #[test]
    fn wrong_proc_count_is_a_typed_error() {
        let t = TraceBuilder::new(2).finish();
        assert_eq!(
            try_run_with(&t, cfg(4, 1), EngineOptions::default()),
            Err(EngineError::ProcCountMismatch {
                trace: 2,
                machine: 4
            })
        );
    }

    #[test]
    fn empty_trace_runs() {
        let b = TraceBuilder::new(3);
        let t = b.finish(); // just the final barrier
        let rs = full_run(&t, cfg(3, 1));
        assert_eq!(rs.exec_time, 1);
        assert_eq!(rs.mem.total_misses(), 0);
    }

    fn sampled_fixture() -> Trace {
        let mut b = TraceBuilder::new(4);
        let a = b.space_mut().alloc_shared(64 * 128);
        let l = b.new_lock();
        for p in 0..4u32 {
            for i in 0..600u64 {
                b.read(p, a + ((i * 5 + p as u64 * 17) % 128) * 64);
                b.compute(p, 3);
                if i % 97 == 0 {
                    b.lock(p, l);
                    b.write(p, a);
                    b.unlock(p, l);
                }
            }
        }
        b.barrier_all();
        for p in 0..4u32 {
            for i in 0..200u64 {
                b.write(p, a + ((i + p as u64 * 31) % 128) * 64);
            }
        }
        b.finish()
    }

    #[test]
    fn sampled_rate_one_is_bit_identical_to_full_replay() {
        use simcore::sample::{SampleMode, SampleSpec};
        let t = sampled_fixture();
        let full = full_run(&t, cfg(4, 2));
        for mode in SampleMode::ALL {
            let spec = SampleSpec {
                rate: 1.0,
                ..SampleSpec::new(mode)
            };
            let plan = SamplePlan::for_trace(&t, &spec);
            let sampled = sampled_run(&t, cfg(4, 2), &plan);
            assert_eq!(
                sampled.stats, full,
                "{mode:?} at rate 1.0 must be full replay"
            );
            assert_eq!(
                sampled.warm_mem,
                simcore::stats::MissStats::default(),
                "{mode:?} at rate 1.0 must have no warm outcomes"
            );
        }
    }

    #[test]
    fn sampled_replay_is_deterministic_and_preserves_sync() {
        use simcore::sample::{SampleMode, SampleSpec};
        let t = sampled_fixture();
        for mode in SampleMode::ALL {
            let spec = SampleSpec {
                rate: 0.25,
                interval_ops: 64,
                warmup_ops: 128,
                ..SampleSpec::new(mode)
            };
            let plan = SamplePlan::for_trace(&t, &spec);
            let a = sampled_run(&t, cfg(4, 2), &plan);
            let b = sampled_run(&t, cfg(4, 2), &plan);
            assert_eq!(a, b, "{mode:?}: sampled replay must be deterministic");
            assert!(a.stats.exec_time > 0);
            // Fewer measured ops than the trace holds: the sampled
            // replay must do strictly less measured work, with the
            // warm remainder reported functionally on the side.
            let full = full_run(&t, cfg(4, 2));
            assert!(
                a.stats.mem.reads() < full.mem.reads(),
                "{mode:?}: sampling must measure fewer reads"
            );
            assert!(
                a.warm_mem.reads() > 0,
                "{mode:?}: warm replay must observe functional outcomes"
            );
            // Warm time is on the clock but in no breakdown component.
            for bd in &a.stats.per_proc {
                assert!(bd.total() <= a.stats.exec_time);
            }
        }
    }

    #[test]
    fn zero_options_are_typed_errors() {
        let mut b = TraceBuilder::new(1);
        b.compute(0, 40);
        let t = b.finish();
        let err = try_run_with(&t, cfg(1, 1), EngineOptions { load_latency: 0 }).unwrap_err();
        assert_eq!(
            err,
            EngineError::InvalidOptions {
                field: "load_latency"
            }
        );
        assert!(err.to_string().contains("load_latency"), "{err}");
    }

    #[test]
    fn swapped_barriers_are_a_typed_error() {
        let mut b = TraceBuilder::new(2);
        b.barrier_all();
        b.barrier_all();
        let mut t = b.finish();
        t.per_proc[0].swap(0, 1);
        let err = try_run_with(&t, cfg(2, 1), EngineOptions::default()).unwrap_err();
        assert_eq!(
            err,
            EngineError::BarrierOutOfOrder {
                proc: 0,
                expected: 0,
                found: 1
            }
        );
        assert!(err.to_string().contains("barrier out of order"), "{err}");
    }

    #[test]
    fn relocking_a_held_lock_is_a_deadlock_error() {
        let mut b = TraceBuilder::new(1);
        let l = b.new_lock();
        b.lock(0, l);
        b.lock(0, l);
        let t = b.finish();
        let err = try_run_with(&t, cfg(1, 1), EngineOptions::default()).unwrap_err();
        assert_eq!(err, EngineError::Deadlock { stuck: 1 });
        assert!(err.to_string().contains("deadlock"), "{err}");
    }

    #[test]
    fn out_of_range_lock_is_a_typed_error() {
        let mut b = TraceBuilder::new(1);
        b.compute(0, 1);
        let mut t = b.finish();
        // No lock was allocated, so id 7 is out of range (n_locks = 0).
        t.per_proc[0].insert(0, PackedOp::pack(Op::Lock(7)));
        let err = try_run_with(&t, cfg(1, 1), EngineOptions::default()).unwrap_err();
        assert_eq!(err, EngineError::BadLock { proc: 0, lock: 7 });
        assert!(err.to_string().contains("lock 7"), "{err}");
        t.per_proc[0][0] = PackedOp::pack(Op::Unlock(7));
        let err = try_run_with(&t, cfg(1, 1), EngineOptions::default()).unwrap_err();
        assert_eq!(err, EngineError::BadLock { proc: 0, lock: 7 });
    }

    #[test]
    fn unlocking_a_lock_not_held_is_a_typed_error() {
        let mut b = TraceBuilder::new(2);
        let l = b.new_lock();
        b.lock(0, l);
        b.unlock(0, l);
        b.compute(1, 10);
        b.unlock(1, l);
        let t = b.finish();
        let err = try_run_with(&t, cfg(2, 1), EngineOptions::default()).unwrap_err();
        assert_eq!(err, EngineError::BadLock { proc: 1, lock: l });
    }
}
