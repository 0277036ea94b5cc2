//! Pass 1 of the `cluster_race` layer: happens-before race detection
//! over `simcore::ops` traces (DESIGN.md §15).
//!
//! The detector replays every per-processor stream under a *canonical
//! logical schedule* — a deterministic priority queue by `(time, proc)`
//! where every op costs one tick, barriers release when all their
//! participants arrive, and locks grant FIFO — while maintaining
//! FastTrack-style happens-before state: one [`VectorClock`] per
//! processor, a last-write epoch plus last-read-per-processor set per
//! cache line. Synchronization edges:
//!
//! * `Barrier(id)` — all-to-all join among the barrier's participants
//!   (the processors whose stream contains that id — a processor that
//!   dropped an arrival simply is not a participant, so a mutated
//!   trace cannot deadlock the detector);
//! * `Lock(id)`/`Unlock(id)` — release publishes the holder's clock to
//!   the lock, the next acquire joins it, so two critical sections of
//!   the same lock are always ordered.
//!
//! Two same-line accesses from different processors, at least one a
//! write, with neither happening-before the other, are a race. Each
//! reported race carries a minimal witness schedule: the race-relevant
//! ops are re-recorded in canonical order and shrunk with
//! `simcore::propcheck` until every remaining op is load-bearing —
//! typically just the two conflicting accesses.
//!
//! The detector is deliberately lenient about malformed streams
//! (shrink candidates drop arbitrary ops): an unlock by a non-holder is
//! a no-op, and if the schedule wedges — a barrier whose participant is
//! blocked elsewhere — the detector force-releases the smallest wedged
//! barrier (then force-grants the smallest wedged lock) rather than
//! giving up on the executed prefix.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

use simcore::cast::usize_from;
use simcore::ops::{Op, PackedOp};
use simcore::propcheck::{drop_each, halves, shrink_to_minimal};
use simcore::space::ProcId;
use simcore::vclock::{Epoch, VectorClock};
use simcore::witness::{AccessKind, RaceAccess, RaceReport};
use simcore::{line_of, LineAddr, Trace};

/// Cap on distinct racing lines reported per trace (the first race is
/// the actionable one; a single missing barrier floods thousands).
const MAX_RACES: usize = 8;

/// Cap on accepted shrink steps per witness.
const MAX_SHRINK_STEPS: u32 = 4096;

/// Below this witness length the shrinker tries exact one-op drops;
/// above it, chunked drops keep the descent polynomial.
const EXACT_DROP_LIMIT: usize = 64;

/// A race as the detector first sees it, before witness extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRace {
    /// The contested cache line.
    pub line: LineAddr,
    /// The access already recorded in the line state (earlier in the
    /// canonical schedule).
    pub first: RaceAccess,
    /// The access whose processing exposed the race.
    pub second: RaceAccess,
}

impl RawRace {
    /// Whether `other` witnesses the same contention as `self`: same
    /// line, same unordered processor pair. Kinds are deliberately not
    /// compared — dropping sync ops from a candidate can change *which*
    /// conflicting pair the detector reports first while the underlying
    /// contention is identical, and pinning kinds wedges the shrinker.
    fn same_pair(&self, other: &RawRace) -> bool {
        self.line == other.line
            && ((self.first.proc, self.second.proc) == (other.first.proc, other.second.proc)
                || (self.first.proc, self.second.proc) == (other.second.proc, other.first.proc))
    }
}

/// Per-line happens-before state: the last write epoch and the last
/// read per processor (same-processor clocks are monotonic, so keeping
/// only the latest read per processor is sound).
#[derive(Default)]
struct LineState {
    write: Option<(Epoch, u64)>,
    reads: Vec<(ProcId, u64, u64)>,
}

/// What a processor is currently doing in the canonical schedule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    AtBarrier(u32),
    WaitsLock(u32),
    Done,
}

struct Detector<'a> {
    streams: &'a [Vec<PackedOp>],
    idx: Vec<usize>,
    state: Vec<ProcState>,
    clocks: Vec<VectorClock>,
    heap: BinaryHeap<Reverse<(u64, ProcId)>>,
    now: u64,
    /// Per barrier id: how many streams contain it.
    participants: HashMap<u32, u32>,
    /// Per barrier id: who has arrived so far.
    arrived: HashMap<u32, Vec<ProcId>>,
    lock_holder: HashMap<u32, ProcId>,
    lock_waiters: HashMap<u32, VecDeque<ProcId>>,
    lock_vc: HashMap<u32, VectorClock>,
    lines: HashMap<LineAddr, LineState>,
}

impl<'a> Detector<'a> {
    fn new(streams: &'a [Vec<PackedOp>]) -> Detector<'a> {
        let n = streams.len();
        let mut participants: HashMap<u32, u32> = HashMap::new();
        for ops in streams {
            let mut seen: HashSet<u32> = HashSet::new();
            for op in ops {
                if let Op::Barrier(id) = op.unpack() {
                    if seen.insert(id) {
                        *participants.entry(id).or_insert(0) += 1;
                    }
                }
            }
        }
        let mut heap = BinaryHeap::new();
        let mut state = vec![ProcState::Runnable; n];
        for (p, ops) in streams.iter().enumerate() {
            if ops.is_empty() {
                state[p] = ProcState::Done;
            } else {
                heap.push(Reverse((0u64, p as ProcId)));
            }
        }
        // Each processor's own component starts at 1: a fresh epoch
        // `(p, 0)` would be vacuously dominated by every zero clock.
        let mut clocks = vec![VectorClock::new(n); n];
        for (p, c) in clocks.iter_mut().enumerate() {
            c.bump(p as ProcId);
        }
        Detector {
            streams,
            idx: vec![0; n],
            state,
            clocks,
            heap,
            now: 0,
            participants,
            arrived: HashMap::new(),
            lock_holder: HashMap::new(),
            lock_waiters: HashMap::new(),
            lock_vc: HashMap::new(),
            lines: HashMap::new(),
        }
    }

    /// Advances `p` past its current op; reschedules or retires it.
    fn advance(&mut self, p: ProcId, next_at: u64) {
        let pi = usize_from(p);
        self.idx[pi] += 1;
        if self.idx[pi] < self.streams[pi].len() {
            self.state[pi] = ProcState::Runnable;
            self.heap.push(Reverse((next_at, p)));
        } else {
            self.state[pi] = ProcState::Done;
        }
    }

    /// Grants lock `id` to `p` (acquire joins the lock's clock) and
    /// moves `p` past its `Lock` op.
    fn grant(&mut self, p: ProcId, id: u32, at: u64, exec: &mut impl FnMut(ProcId, Op)) {
        self.lock_holder.insert(id, p);
        if let Some(l) = self.lock_vc.get(&id) {
            self.clocks[usize_from(p)].join(l);
        }
        exec(p, Op::Lock(id));
        self.advance(p, at + 1);
    }

    /// Releases barrier `id`: all arrivals join, then each bumps its
    /// own component. With a forced release (wedged schedule) the
    /// arrived subset syncs — the absent processors keep their clocks,
    /// which is exactly the missing-edge semantics a mutation plants.
    fn release_barrier(&mut self, id: u32, at: u64) {
        let arrived = self.arrived.remove(&id).unwrap_or_default();
        let mut merged = VectorClock::new(self.streams.len());
        for &q in &arrived {
            merged.join(&self.clocks[usize_from(q)]);
        }
        for &q in &arrived {
            let qc = &mut self.clocks[usize_from(q)];
            *qc = merged.clone();
            qc.bump(q);
            self.advance(q, at + 1);
        }
    }

    /// When the heap drains with processors still blocked, break the
    /// wedge deterministically. Returns false when everything is done.
    fn force_unblock(&mut self, exec: &mut impl FnMut(ProcId, Op)) -> bool {
        if let Some(&id) = self.arrived.keys().min() {
            self.release_barrier(id, self.now + 1);
            return true;
        }
        let wedged = self
            .lock_waiters
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&id, _)| id)
            .min();
        if let Some(id) = wedged {
            if let Some(q) = self.lock_waiters.get_mut(&id).and_then(VecDeque::pop_front) {
                self.grant(q, id, self.now + 1, exec);
                return true;
            }
        }
        false
    }

    fn check_read(&mut self, p: ProcId, addr: u64, race: &mut impl FnMut(RawRace)) {
        let line = line_of(addr);
        let my = &self.clocks[usize_from(p)];
        let st = self.lines.entry(line).or_default();
        if let Some((w, waddr)) = st.write {
            if w.proc != p && !my.dominates(w) {
                race(RawRace {
                    line,
                    first: RaceAccess {
                        proc: w.proc,
                        addr: waddr,
                        kind: AccessKind::Write,
                    },
                    second: RaceAccess {
                        proc: p,
                        addr,
                        kind: AccessKind::Read,
                    },
                });
            }
        }
        let c = my.get(p);
        if let Some(e) = st.reads.iter_mut().find(|e| e.0 == p) {
            (e.1, e.2) = (c, addr);
        } else {
            st.reads.push((p, c, addr));
        }
    }

    fn check_write(&mut self, p: ProcId, addr: u64, race: &mut impl FnMut(RawRace)) {
        let line = line_of(addr);
        let my = &self.clocks[usize_from(p)];
        let st = self.lines.entry(line).or_default();
        if let Some((w, waddr)) = st.write {
            if w.proc != p && !my.dominates(w) {
                race(RawRace {
                    line,
                    first: RaceAccess {
                        proc: w.proc,
                        addr: waddr,
                        kind: AccessKind::Write,
                    },
                    second: RaceAccess {
                        proc: p,
                        addr,
                        kind: AccessKind::Write,
                    },
                });
            }
        }
        for &(q, qc, qaddr) in &st.reads {
            if q != p && !my.dominates(Epoch { proc: q, clock: qc }) {
                race(RawRace {
                    line,
                    first: RaceAccess {
                        proc: q,
                        addr: qaddr,
                        kind: AccessKind::Read,
                    },
                    second: RaceAccess {
                        proc: p,
                        addr,
                        kind: AccessKind::Write,
                    },
                });
            }
        }
        st.write = Some((
            Epoch {
                proc: p,
                clock: my.get(p),
            },
            addr,
        ));
        st.reads.clear();
    }

    fn run(&mut self, race: &mut impl FnMut(RawRace), exec: &mut impl FnMut(ProcId, Op)) {
        loop {
            let Some(Reverse((tm, p))) = self.heap.pop() else {
                if !self.force_unblock(exec) {
                    break;
                }
                continue;
            };
            self.now = self.now.max(tm);
            let pi = usize_from(p);
            let op = self.streams[pi][self.idx[pi]].unpack();
            match op {
                Op::Compute(_) => {
                    exec(p, op);
                    self.advance(p, tm + 1);
                }
                Op::Read(a) => {
                    self.check_read(p, a, race);
                    exec(p, op);
                    self.advance(p, tm + 1);
                }
                Op::Write(a) => {
                    self.check_write(p, a, race);
                    exec(p, op);
                    self.advance(p, tm + 1);
                }
                Op::Barrier(id) => {
                    exec(p, op);
                    self.state[pi] = ProcState::AtBarrier(id);
                    self.arrived.entry(id).or_default().push(p);
                    let all = self.participants.get(&id).copied().unwrap_or(0);
                    if self.arrived.get(&id).map(Vec::len).unwrap_or(0) as u32 >= all {
                        self.release_barrier(id, tm);
                    }
                }
                Op::Lock(id) => match self.lock_holder.get(&id) {
                    Some(&h) if h != p => {
                        self.state[pi] = ProcState::WaitsLock(id);
                        self.lock_waiters.entry(id).or_default().push_back(p);
                    }
                    _ => self.grant(p, id, tm, exec),
                },
                Op::Unlock(id) => {
                    if self.lock_holder.get(&id) == Some(&p) {
                        self.lock_vc.insert(id, self.clocks[pi].clone());
                        self.clocks[pi].bump(p);
                        self.lock_holder.remove(&id);
                        exec(p, op);
                        self.advance(p, tm + 1);
                        if let Some(q) =
                            self.lock_waiters.get_mut(&id).and_then(VecDeque::pop_front)
                        {
                            self.grant(q, id, tm + 1, exec);
                        }
                    } else {
                        // Unlock by a non-holder (a shrink candidate
                        // dropped the acquire): no-op.
                        exec(p, op);
                        self.advance(p, tm + 1);
                    }
                }
            }
        }
    }
}

/// Runs the canonical-schedule detector over raw streams, reporting
/// every race occurrence to `race` and every executed op to `exec`.
fn simulate(
    streams: &[Vec<PackedOp>],
    race: &mut impl FnMut(RawRace),
    exec: &mut impl FnMut(ProcId, Op),
) {
    Detector::new(streams).run(race, exec);
}

/// Detects races in `trace`, reporting the first race per line, up to
/// `MAX_RACES` distinct lines. Empty means race-free.
pub fn detect(trace: &Trace) -> Vec<RawRace> {
    detect_streams(&trace.per_proc)
}

fn detect_streams(streams: &[Vec<PackedOp>]) -> Vec<RawRace> {
    let mut seen: HashSet<LineAddr> = HashSet::new();
    let mut races = Vec::new();
    simulate(
        streams,
        &mut |r| {
            if races.len() < MAX_RACES && seen.insert(r.line) {
                races.push(r);
            }
        },
        &mut |_, _| {},
    );
    races
}

/// Whether `candidate` (a flat schedule) still exhibits `target`: some
/// race on the same line between the same `(proc, kind)` pair.
fn exhibits(candidate: &[(ProcId, Op)], n_procs: usize, target: &RawRace) -> bool {
    let mut streams: Vec<Vec<PackedOp>> = vec![Vec::new(); n_procs];
    for &(p, op) in candidate {
        if let Some(s) = streams.get_mut(usize_from(p)) {
            s.push(PackedOp::pack(op));
        }
    }
    let mut found = false;
    simulate(
        &streams,
        &mut |r| {
            if r.same_pair(target) {
                found = true;
            }
        },
        &mut |_, _| {},
    );
    found
}

/// Witness shrinker. Three candidate families:
///
/// * drop **all sync ops** — two pure access streams have no
///   happens-before edges at all, so if the contention is real this
///   candidate always still races, and from there every further drop
///   is monotone (removing accesses can never create order, while
///   removing a lock op from a mixed schedule can);
/// * `halves` — coarse bisection;
/// * exact one-op drops once the schedule is small (chunked drops
///   above that, so a witness that starts at hundreds of thousands of
///   ops still descends in polynomial time).
// `shrink_to_minimal` wants `Fn(&T) -> Vec<T>` with `T = Vec<_>`,
// so the argument must be `&Vec`, not a slice.
#[allow(clippy::ptr_arg)]
fn witness_shrinker(xs: &Vec<(ProcId, Op)>) -> Vec<Vec<(ProcId, Op)>> {
    let mut out = Vec::new();
    let accesses_only: Vec<(ProcId, Op)> = xs
        .iter()
        .copied()
        .filter(|(_, op)| matches!(op, Op::Read(_) | Op::Write(_)))
        .collect();
    if accesses_only.len() < xs.len() {
        out.push(accesses_only);
    }
    out.extend(halves(xs));
    if xs.len() <= EXACT_DROP_LIMIT {
        out.extend(drop_each(xs));
    } else {
        let chunk = (xs.len() / 16).max(1);
        let mut start = 0;
        while start < xs.len() {
            let end = (start + chunk).min(xs.len());
            let mut v = xs.clone();
            v.drain(start..end);
            out.push(v);
            start = end;
        }
    }
    out
}

/// Full pass-1 analysis: detect races and shrink a minimal witness for
/// each. The witness pool for a race is the canonical-order record of
/// the two racing processors' ops that could matter — their accesses
/// to the racing line plus all their sync ops — which `propcheck`'s
/// greedy descent then reduces until every op is load-bearing.
pub fn analyze(trace: &Trace) -> Vec<RaceReport> {
    let raws = detect(trace);
    if raws.is_empty() {
        return Vec::new();
    }
    // One recording pass, filtering per race.
    let mut pools: Vec<Vec<(ProcId, Op)>> = vec![Vec::new(); raws.len()];
    {
        let mut exec = |p: ProcId, op: Op| {
            for (raw, pool) in raws.iter().zip(pools.iter_mut()) {
                if p != raw.first.proc && p != raw.second.proc {
                    continue;
                }
                let keep = match op {
                    Op::Read(a) | Op::Write(a) => line_of(a) == raw.line,
                    Op::Barrier(_) | Op::Lock(_) | Op::Unlock(_) => true,
                    Op::Compute(_) => false,
                };
                if keep {
                    pool.push((p, op));
                }
            }
        };
        simulate(&trace.per_proc, &mut |_| {}, &mut exec);
    }

    raws.into_iter()
        .zip(pools)
        .map(|(raw, pool)| {
            let mut raw = raw;
            // Preferred start: the full two-processor pool (sync ops
            // included). If replaying just those two processors orders
            // the pair away (the race needed a third processor's lock
            // timing), start from the pure access streams instead —
            // with no sync ops nothing is ordered, so genuine
            // contention always shows.
            let pool = if exhibits(&pool, trace.n_procs(), &raw) {
                pool
            } else {
                pool.into_iter()
                    .filter(|(_, op)| matches!(op, Op::Read(_) | Op::Write(_)))
                    .collect()
            };
            let witness = if exhibits(&pool, trace.n_procs(), &raw) {
                let prop = |cand: &Vec<(ProcId, Op)>| {
                    if exhibits(cand, trace.n_procs(), &raw) {
                        Err("race persists".to_string())
                    } else {
                        Ok(())
                    }
                };
                let (minimal, _, _) = shrink_to_minimal(
                    pool,
                    "race persists".to_string(),
                    witness_shrinker,
                    prop,
                    MAX_SHRINK_STEPS,
                );
                // Re-derive the reported pair from the minimal witness
                // itself, so the report's accesses are exactly the ones
                // the witness schedule exhibits.
                let mut streams: Vec<Vec<PackedOp>> = vec![Vec::new(); trace.n_procs()];
                for &(p, op) in &minimal {
                    if let Some(s) = streams.get_mut(usize_from(p)) {
                        s.push(PackedOp::pack(op));
                    }
                }
                for r in detect_streams(&streams) {
                    if r.same_pair(&raw) {
                        raw = r;
                        break;
                    }
                }
                minimal
            } else {
                // The filtered pool lost the race (it needed a third
                // processor's sync structure); fall back to the
                // unshrunk pool as context.
                pool
            };
            RaceReport {
                line: raw.line,
                first: raw.first,
                second: raw.second,
                witness,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::TraceBuilder;

    fn streams_of(ops: &[(ProcId, Op)], n: usize) -> Vec<Vec<PackedOp>> {
        let mut streams = vec![Vec::new(); n];
        for &(p, op) in ops {
            streams[p as usize].push(PackedOp::pack(op));
        }
        streams
    }

    #[test]
    fn unsynchronized_conflict_is_a_race() {
        let races = detect_streams(&streams_of(&[(0, Op::Write(64)), (1, Op::Read(64))], 2));
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].line, 1);
    }

    #[test]
    fn same_line_different_bytes_still_conflict() {
        let races = detect_streams(&streams_of(&[(0, Op::Write(64)), (1, Op::Write(100))], 2));
        assert_eq!(races.len(), 1, "false sharing is a line conflict");
    }

    #[test]
    fn reads_do_not_conflict() {
        let races = detect_streams(&streams_of(&[(0, Op::Read(64)), (1, Op::Read(64))], 2));
        assert!(races.is_empty());
    }

    #[test]
    fn barrier_orders_conflicting_accesses() {
        let races = detect_streams(&streams_of(
            &[
                (0, Op::Write(64)),
                (0, Op::Barrier(0)),
                (1, Op::Barrier(0)),
                (1, Op::Read(64)),
            ],
            2,
        ));
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn missing_barrier_arrival_breaks_the_edge() {
        // Proc 1 never arrives at barrier 0: the read is unordered.
        let races = detect_streams(&streams_of(
            &[(0, Op::Write(64)), (0, Op::Barrier(0)), (1, Op::Read(64))],
            2,
        ));
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn lock_mutual_exclusion_orders_critical_sections() {
        let races = detect_streams(&streams_of(
            &[
                (0, Op::Lock(0)),
                (0, Op::Write(64)),
                (0, Op::Unlock(0)),
                (1, Op::Lock(0)),
                (1, Op::Write(64)),
                (1, Op::Unlock(0)),
            ],
            2,
        ));
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn different_locks_do_not_order() {
        let races = detect_streams(&streams_of(
            &[
                (0, Op::Lock(0)),
                (0, Op::Write(64)),
                (0, Op::Unlock(0)),
                (1, Op::Lock(1)),
                (1, Op::Write(64)),
                (1, Op::Unlock(1)),
            ],
            2,
        ));
        assert_eq!(races.len(), 1);
    }

    #[test]
    fn transitive_ordering_through_a_third_processor() {
        // 0 writes, syncs with 2 via barrier 0; 2 syncs with 1 via
        // barrier 1; 1 reads. Ordered transitively.
        let races = detect_streams(&streams_of(
            &[
                (0, Op::Write(64)),
                (0, Op::Barrier(0)),
                (2, Op::Barrier(0)),
                (2, Op::Barrier(1)),
                (1, Op::Barrier(1)),
                (1, Op::Read(64)),
            ],
            3,
        ));
        assert!(races.is_empty(), "{races:?}");
    }

    #[test]
    fn analyze_shrinks_to_the_conflicting_pair() {
        let mut b = TraceBuilder::new(2);
        let a = b.space_mut().alloc_shared(64);
        let noise = b.space_mut().alloc_shared(1024);
        // Racy write/read on `a` buried in synchronized noise.
        for i in 0..8 {
            b.read(0, noise + i * 64);
            b.read(1, noise + i * 64);
            b.barrier_all();
        }
        b.write(0, a);
        b.read(1, a); // no barrier between: race
        let t = b.finish();
        let reports = analyze(&t);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert!(
            r.witness.len() >= 2 && r.witness.len() <= 4,
            "witness not minimal: {:?}",
            r.witness
        );
        // The conflicting pair must be in the witness.
        assert!(r.witness.contains(&(0, Op::Write(a))));
        assert!(r.witness.contains(&(1, Op::Read(a))));
    }

    #[test]
    fn clean_builder_trace_is_race_free() {
        let mut b = TraceBuilder::new(4);
        let arr = b.space_mut().alloc_shared(4 * 64);
        for p in 0..4u32 {
            b.write(p, arr + u64::from(p) * 64);
        }
        b.barrier_all();
        for p in 0..4u32 {
            // Everyone reads everything after the barrier.
            for q in 0..4u64 {
                b.read(p, arr + q * 64);
            }
        }
        let t = b.finish();
        assert!(detect(&t).is_empty());
    }
}
