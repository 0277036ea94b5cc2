//! An independent check of the engine's scheduler: a deliberately slow
//! replay that picks the next processor by a linear scan and restates
//! the timing rules from DESIGN.md §4 and the paper's §3.1, sharing
//! nothing with `tango` beyond the memory system it drives. Its
//! `RunStats` must equal [`tango::try_run_with`]'s exactly, over the
//! random scripts of the engine's property suite, on every cache
//! organization, at cluster sizes 1, 2 and 4 and load latencies 1
//! and 3.
//!
//! The rules it restates:
//! * **Order.** The running processor keeps running while its clock is
//!   at most every other runnable processor's clock (ties keep the
//!   running processor); once it is strictly later, the runnable
//!   processor with the smallest `(clock, id)` runs next. A processor
//!   that blocks or finishes hands over the same way.
//! * **Compute.** `Compute(k)` is `k` busy cycles.
//! * **Memory.** Every access costs one busy cycle; a read miss (or a
//!   bus transfer in a shared-memory cluster) stalls for its latency as
//!   load time; writes never stall. A read of a line still pending in
//!   the cluster waits until the fill returns, charged as merge time,
//!   and then retries the same access.
//! * **Barriers.** Arriving costs one busy cycle; the last arrival
//!   releases every waiter at its own arrival time, each waiter charged
//!   the wait as sync time.
//! * **Locks.** Acquiring costs one busy cycle. A held lock queues the
//!   requester; the release (one busy cycle) grants the lock to the
//!   oldest requester, which is charged the wait as sync time and the
//!   acquire cycle on top, at the release time.
//! * **Load latency** `L > 1` (Table 5's measurement): every fourth
//!   read adds `L - 1` load cycles, and `Compute(k)` adds
//!   `k / 18 * (L - 1)`.
//! * **End.** Execution time is the last clock; each processor's
//!   remaining gap to it is sync time.

mod common;

use std::collections::VecDeque;

use coherence::config::CacheSpec;
use coherence::{MachineConfig, MemorySystem, Outcome};
use common::{arb_scripts, build_trace, machine, shrink_scripts, CACHES};
use simcore::ops::{Op, Trace, TraceBuilder};
use simcore::propcheck;
use simcore::stats::{Breakdown, RunStats};
use simcore::{prop_ensure_eq, LINE_BYTES};
use tango::EngineOptions;

/// Every fourth read is dependent (DESIGN.md, Table 5 factors).
const DEPENDENT_READ_EVERY: u64 = 4;
/// One dependent implicit load per this many compute cycles.
const COMPUTE_CYCLES_PER_LOAD: u64 = 18;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Ready,
    AtBarrier { since: u64 },
    WantsLock { since: u64 },
    Finished,
}

struct Cpu {
    clock: u64,
    pc: usize,
    reads: u64,
    bd: Breakdown,
    state: State,
}

/// The slow restatement. Panics on a trace the engine would reject:
/// it is only ever given valid traces.
fn reference_run(trace: &Trace, m: MachineConfig, load_latency: u64) -> RunStats {
    let extra = load_latency - 1;
    let mut mem = MemorySystem::try_new(m, &trace.space).expect("valid machine");
    let n = trace.per_proc.len();
    let mut cpus: Vec<Cpu> = (0..n)
        .map(|_| Cpu {
            clock: 0,
            pc: 0,
            reads: 0,
            bd: Breakdown::default(),
            state: State::Ready,
        })
        .collect();
    let mut holder: Vec<Option<usize>> = vec![None; trace.n_locks as usize];
    let mut queue: Vec<VecDeque<usize>> = vec![VecDeque::new(); trace.n_locks as usize];

    // The earliest ready processor other than `skip`, by (clock, id).
    let earliest = |cpus: &[Cpu], skip: Option<usize>| -> Option<usize> {
        (0..n)
            .filter(|&q| Some(q) != skip && cpus[q].state == State::Ready)
            .min_by_key(|&q| (cpus[q].clock, q))
    };

    let mut running = earliest(&cpus, None);
    while let Some(p) = running {
        if let Some(q) = earliest(&cpus, Some(p)) {
            if cpus[q].clock < cpus[p].clock {
                running = Some(q);
                continue;
            }
        }
        let Some(&packed) = trace.per_proc[p].get(cpus[p].pc) else {
            cpus[p].state = State::Finished;
            running = earliest(&cpus, None);
            continue;
        };
        let now = cpus[p].clock;
        match packed.unpack() {
            Op::Compute(k) => {
                let stall = k / COMPUTE_CYCLES_PER_LOAD * extra;
                let c = &mut cpus[p];
                c.bd.cpu += k;
                c.bd.load += stall;
                c.clock += k + stall;
                c.pc += 1;
            }
            op @ (Op::Read(a) | Op::Write(a)) => {
                let is_read = matches!(op, Op::Read(_));
                let out = if is_read {
                    mem.try_read(p as u32, a, now)
                } else {
                    mem.try_write(p as u32, a, now)
                }
                .expect("allocated access");
                let c = &mut cpus[p];
                if let Outcome::MergeWait { ready_at } = out {
                    c.bd.merge += ready_at - now;
                    c.clock = ready_at;
                    continue; // retry the same access
                }
                let stall = match out {
                    Outcome::ReadMiss { stall, .. } | Outcome::ReadBus { stall } => stall,
                    _ => 0,
                };
                c.bd.cpu += 1;
                c.bd.load += stall;
                c.clock += 1 + stall;
                c.pc += 1;
                if is_read {
                    c.reads += 1;
                    if c.reads.is_multiple_of(DEPENDENT_READ_EVERY) {
                        c.bd.load += extra;
                        c.clock += extra;
                    }
                }
            }
            Op::Barrier(_) => {
                let c = &mut cpus[p];
                c.bd.cpu += 1;
                c.clock += 1;
                c.pc += 1;
                let release = c.clock;
                let waiting = (0..n)
                    .filter(|&q| matches!(cpus[q].state, State::AtBarrier { .. }))
                    .count();
                if waiting + 1 < n {
                    cpus[p].state = State::AtBarrier { since: release };
                    running = earliest(&cpus, None);
                    continue;
                }
                for w in &mut cpus {
                    if let State::AtBarrier { since } = w.state {
                        w.bd.sync += release - since;
                        w.clock = release;
                        w.state = State::Ready;
                    }
                }
            }
            Op::Lock(l) => {
                let l = l as usize;
                cpus[p].pc += 1;
                if holder[l].is_none() {
                    holder[l] = Some(p);
                    cpus[p].bd.cpu += 1;
                    cpus[p].clock += 1;
                } else {
                    queue[l].push_back(p);
                    cpus[p].state = State::WantsLock { since: now };
                    running = earliest(&cpus, None);
                }
            }
            Op::Unlock(l) => {
                let l = l as usize;
                assert_eq!(holder[l], Some(p), "unlock by a non-holder");
                let c = &mut cpus[p];
                c.bd.cpu += 1;
                c.clock += 1;
                c.pc += 1;
                let release = c.clock;
                holder[l] = queue[l].pop_front();
                if let Some(w) = holder[l] {
                    let State::WantsLock { since } = cpus[w].state else {
                        panic!("queued processor {w} is not waiting for a lock");
                    };
                    let wc = &mut cpus[w];
                    wc.bd.sync += release - since;
                    wc.bd.cpu += 1;
                    wc.clock = release + 1;
                    wc.state = State::Ready;
                }
            }
        }
    }

    assert!(
        cpus.iter().all(|c| c.state == State::Finished),
        "reference replay deadlocked"
    );
    let exec_time = cpus.iter().map(|c| c.clock).max().unwrap_or(0);
    RunStats {
        per_proc: cpus
            .iter()
            .map(|c| Breakdown {
                sync: c.bd.sync + (exec_time - c.clock),
                ..c.bd
            })
            .collect(),
        mem: mem.stats,
        exec_time,
    }
}

#[test]
fn engine_matches_the_linear_scan_reference() {
    propcheck::check_cases(
        48,
        "engine_matches_the_linear_scan_reference",
        |g| {
            (
                arb_scripts(g, 4),
                g.pick(&[1u32, 2, 4]),
                g.usize_in(0..CACHES.len()),
                g.pick(&[1u64, 3]),
            )
        },
        |(s, pc, c, l)| {
            shrink_scripts(s)
                .into_iter()
                .map(|s| (s, *pc, *c, *l))
                .collect()
        },
        |(scripts, per_cluster, cache, load_latency)| {
            let trace = build_trace(scripts);
            let m = machine(4, *per_cluster, CACHES[*cache]);
            let opts = EngineOptions {
                load_latency: *load_latency,
            };
            let engine = tango::try_run_with(&trace, m, opts).map_err(|e| e.to_string())?;
            prop_ensure_eq!(engine, reference_run(&trace, m, *load_latency));
            Ok(())
        },
    );
}

/// Two processors of one cluster compute to the same clock and read
/// the same cold line. The tie keeps the processor that got there
/// second (processor 1, which ran its compute after processor 0), so
/// it misses and processor 0, despite its lower id, merge-stalls on
/// the fill: at cycle 5 processor 1 misses (local clean, 30 cycles,
/// the line pending until 35), processor 0 waits 5 → 35 and then hits
/// at 35, and both meet at the final barrier at cycle 37.
#[test]
fn the_tie_rule_decides_who_misses_and_who_merges() {
    let mut b = TraceBuilder::new(2);
    let a = b.space_mut().alloc_shared(LINE_BYTES);
    for p in 0..2 {
        b.compute(p, 5);
        b.read(p, a);
    }
    let trace = b.finish();
    let m = machine(2, 2, CacheSpec::Infinite);
    let rs = tango::try_run_with(&trace, m, EngineOptions::default()).unwrap();
    assert_eq!(
        rs.per_proc,
        vec![
            Breakdown {
                cpu: 7,
                load: 0,
                merge: 30,
                sync: 0
            },
            Breakdown {
                cpu: 7,
                load: 30,
                merge: 0,
                sync: 0
            },
        ]
    );
    assert_eq!(rs.exec_time, 37);
    assert_eq!(
        (rs.mem.read_misses, rs.mem.read_hits, rs.mem.merge_stalls),
        (1, 1, 1)
    );
    assert_eq!(rs, reference_run(&trace, m, 1));
}
