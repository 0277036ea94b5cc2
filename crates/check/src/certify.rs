//! Pass 2 of the `cluster_race` layer: replay-order certification
//! (DESIGN.md §15).
//!
//! The race detector (pass 1, [`crate::race`]) proves the *program*
//! well-synchronized; this pass proves the *machine* coherent on a
//! real replay. `tango::try_run_observed` taps every committed memory
//! access of a full replay, in serialization order, and a **shadow
//! directory** checks three invariants over the stream:
//!
//! 1. **Read hits see a present line** — a `ReadHit` (or `Upgrade`,
//!    which is a write hit on a shared line) from a cache unit must
//!    find that unit in the shadow's valid set. A unit reading a line
//!    it never filled — or one invalidated by a foreign write since —
//!    is a coherence violation.
//! 2. **Single writer per epoch** — a `WriteHit` requires the shadow's
//!    exclusive owner to be exactly the writing unit: between two
//!    serialization points, at most one unit may write without
//!    re-acquiring ownership.
//! 3. **Per-line write serialization** — write issue times on a line
//!    are nondecreasing in serialization order (ties allowed: two
//!    writes may commit at the same cycle, but the engine may never
//!    serialize a write *behind* a later-issued one).
//!
//! A *cache unit* is what the protocol keeps coherence state for: the
//! cluster normally (processors in a cluster share a cache), the
//! processor when the cache spec is private. The shadow never evicts,
//! so capacity misses in the real cache can only *weaken* the checks
//! (a miss where the shadow still holds the line updates state and
//! asserts nothing) — the shadow has no false positives by
//! construction.

use coherence::MachineConfig;
use simcore::cast::usize_from;
use simcore::witness::{CommitKind, WitnessEvent};
use simcore::{line_of, Trace, LINE_SHIFT};
use tango::EngineOptions;

/// Cap on recorded violation detail strings (the count keeps climbing;
/// the first few are the actionable ones).
const MAX_VIOLATION_DETAILS: usize = 8;

/// Result of certifying one replay.
#[derive(Debug, Clone)]
pub struct Certification {
    /// True when every event satisfied every invariant.
    pub certified: bool,
    /// Committed accesses checked.
    pub events_checked: u64,
    /// Total invariant violations (not capped).
    pub violation_count: u64,
    /// First few violations, human-readable.
    pub violations: Vec<String>,
}

/// Shadow line state: which units hold the line, who may write it
/// without a new ownership acquisition, and the last serialized write
/// issue time.
#[derive(Clone, Copy)]
struct ShadowLine {
    valid: u64,
    exclusive: Option<u32>,
    last_write: u64,
}

const EMPTY_LINE: ShadowLine = ShadowLine {
    valid: 0,
    exclusive: None,
    last_write: 0,
};

/// The shadow directory: one `ShadowLine` per allocated cache line,
/// dense-indexed (the address space is bump-allocated from line 1, so
/// a `Vec` beats any hash map — the certify overhead budget is 2× the
/// plain replay).
pub struct ShadowDirectory {
    /// Processor → cache unit.
    unit_of: Vec<u32>,
    lines: Vec<ShadowLine>,
    events: u64,
    violation_count: u64,
    violations: Vec<String>,
}

impl ShadowDirectory {
    /// Builds the shadow for `machine` over `trace`'s address space.
    /// Errors when the machine has more than 64 cache units (the valid
    /// set is a `u64` bitmask; the study tops out at 64 processors).
    pub fn new(trace: &Trace, machine: &MachineConfig) -> Result<ShadowDirectory, String> {
        let private = machine.cache.is_private();
        let unit_of: Vec<u32> = (0..machine.n_procs)
            .map(|p| if private { p } else { machine.cluster_of(p) })
            .collect();
        let n_units = unit_of.iter().copied().max().map_or(0, |m| m + 1);
        if n_units > 64 {
            return Err(format!(
                "shadow directory supports at most 64 cache units, machine has {n_units}"
            ));
        }
        let n_lines = usize::try_from(trace.space.allocated_bytes() >> LINE_SHIFT)
            .map_err(|_| "address space too large for shadow directory".to_string())?;
        Ok(ShadowDirectory {
            unit_of,
            lines: vec![EMPTY_LINE; n_lines + 1],
            events: 0,
            violation_count: 0,
            violations: Vec::new(),
        })
    }

    fn violate(&mut self, detail: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_VIOLATION_DETAILS {
            self.violations.push(detail);
        }
    }

    /// Feeds one committed access through the invariant checks and the
    /// shadow state update. `ShadowLine` is `Copy`: checks run on a
    /// snapshot, then the update is written back — keeping the borrow
    /// of `self.lines` disjoint from violation recording.
    pub fn observe(&mut self, ev: WitnessEvent) {
        self.events += 1;
        let unit = self
            .unit_of
            .get(usize_from(ev.proc))
            .copied()
            .unwrap_or(u32::MAX);
        let line = line_of(ev.addr);
        let li = usize_from_line(line);
        let Some(&st) = self.lines.get(li) else {
            self.violate(format!(
                "proc {} accessed unallocated line {line:#x}",
                ev.proc
            ));
            return;
        };
        let bit = 1u64 << (unit % 64);
        let mut next = st;
        match ev.commit {
            CommitKind::ReadHit => {
                if st.valid & bit == 0 {
                    self.violate(format!(
                        "read hit at t={} by proc {} (unit {unit}) on line {line:#x} not in valid set {:#b}",
                        ev.time, ev.proc, st.valid
                    ));
                }
                read_fill(&mut next, unit);
            }
            CommitKind::ReadMiss | CommitKind::ReadBus => {
                read_fill(&mut next, unit);
            }
            CommitKind::WriteHit => {
                if st.exclusive != Some(unit) {
                    self.violate(format!(
                        "write hit at t={} by proc {} (unit {unit}) on line {line:#x} but exclusive owner is {:?}",
                        ev.time, ev.proc, st.exclusive
                    ));
                }
                self.check_write_order(&st, line, &ev);
                write_commit(&mut next, unit, ev.time);
            }
            CommitKind::Upgrade => {
                if st.valid & bit == 0 {
                    self.violate(format!(
                        "upgrade at t={} by proc {} (unit {unit}) on line {line:#x} not in valid set {:#b}",
                        ev.time, ev.proc, st.valid
                    ));
                }
                self.check_write_order(&st, line, &ev);
                write_commit(&mut next, unit, ev.time);
            }
            CommitKind::WriteMiss => {
                self.check_write_order(&st, line, &ev);
                write_commit(&mut next, unit, ev.time);
            }
        }
        self.lines[li] = next;
    }

    /// Invariant 3: per-line write issue times are nondecreasing in
    /// serialization (stream) order.
    fn check_write_order(&mut self, st: &ShadowLine, line: u64, ev: &WitnessEvent) {
        if ev.time < st.last_write {
            self.violate(format!(
                "write serialization reversed on line {line:#x}: t={} after t={} (proc {})",
                ev.time, st.last_write, ev.proc
            ));
        }
    }

    /// Finishes the pass and returns the verdict.
    pub fn finish(self) -> Certification {
        Certification {
            certified: self.violation_count == 0,
            events_checked: self.events,
            violation_count: self.violation_count,
            violations: self.violations,
        }
    }
}

/// Read fill: the unit now holds the line; a foreign read demotes an
/// exclusive owner.
fn read_fill(st: &mut ShadowLine, unit: u32) {
    st.valid |= 1u64 << (unit % 64);
    if st.exclusive.is_some_and(|e| e != unit) {
        st.exclusive = None;
    }
}

/// Write commit: the writer becomes the sole valid holder and the
/// exclusive owner.
fn write_commit(st: &mut ShadowLine, unit: u32, time: u64) {
    st.valid = 1u64 << (unit % 64);
    st.exclusive = Some(unit);
    st.last_write = st.last_write.max(time);
}

fn usize_from_line(line: u64) -> usize {
    usize::try_from(line).unwrap_or(usize::MAX)
}

/// Replays `trace` on `machine` with the witness tap and certifies the
/// event stream, returning the replay's statistics (bit-identical to
/// an unobserved replay) alongside the verdict. Errors when the trace
/// does not fit the machine or the machine has too many cache units.
pub fn certify_trace(
    trace: &Trace,
    machine: MachineConfig,
) -> Result<(simcore::stats::RunStats, Certification), String> {
    let mut shadow = ShadowDirectory::new(trace, &machine)?;
    let stats = tango::try_run_observed(trace, machine, EngineOptions::default(), &mut |ev| {
        shadow.observe(ev);
    })
    .map_err(|e| e.to_string())?;
    Ok((stats, shadow.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coherence::config::CacheSpec;
    use simcore::TraceBuilder;

    fn machine(n_procs: u32, per_cluster: u32, cache: CacheSpec) -> MachineConfig {
        MachineConfig {
            n_procs,
            per_cluster,
            cache,
            lat: coherence::LatencyTable::paper(),
        }
    }

    fn sharing_trace(n_procs: usize) -> Trace {
        let mut b = TraceBuilder::new(n_procs);
        let arr = b.space_mut().alloc_shared(n_procs as u64 * 64);
        for round in 0..3u64 {
            for p in 0..n_procs as u32 {
                b.write(p, arr + u64::from(p) * 64);
            }
            b.barrier_all();
            for p in 0..n_procs as u32 {
                for q in 0..n_procs as u64 {
                    b.read(p, arr + q * 64 + round % 8);
                }
            }
            b.barrier_all();
        }
        b.finish()
    }

    #[test]
    fn real_replay_certifies_clean() {
        for per_cluster in [1u32, 2, 4] {
            let (_, c) = certify_trace(
                &sharing_trace(4),
                machine(4, per_cluster, CacheSpec::Infinite),
            )
            .unwrap();
            assert!(c.certified, "per_cluster={per_cluster}: {:?}", c.violations);
            assert!(c.events_checked > 0);
        }
    }

    #[test]
    fn finite_and_private_caches_certify_clean() {
        for cache in [
            CacheSpec::PerProcBytes(4096),
            CacheSpec::PrivatePerProc {
                bytes: 4096,
                bus_cycles: 10,
            },
        ] {
            let (_, c) = certify_trace(&sharing_trace(4), machine(4, 2, cache)).unwrap();
            assert!(c.certified, "{cache:?}: {:?}", c.violations);
        }
    }

    #[test]
    fn tampered_stream_is_rejected() {
        // Drive the shadow directly with an impossible stream: a read
        // hit on a line the unit never filled.
        let t = sharing_trace(2);
        let m = machine(2, 1, CacheSpec::Infinite);
        let mut shadow = ShadowDirectory::new(&t, &m).unwrap();
        let addr = t.space.regions().next().unwrap().base;
        shadow.observe(WitnessEvent {
            time: 0,
            proc: 1,
            addr,
            commit: CommitKind::ReadHit,
        });
        let c = shadow.finish();
        assert!(!c.certified);
        assert_eq!(c.violation_count, 1);
    }

    #[test]
    fn reversed_write_serialization_is_rejected() {
        let t = sharing_trace(2);
        let m = machine(2, 1, CacheSpec::Infinite);
        let mut shadow = ShadowDirectory::new(&t, &m).unwrap();
        let addr = t.space.regions().next().unwrap().base;
        for (time, proc) in [(10u64, 0u32), (5, 1)] {
            shadow.observe(WitnessEvent {
                time,
                proc,
                addr,
                commit: CommitKind::WriteMiss,
            });
        }
        let c = shadow.finish();
        assert!(!c.certified, "write at t=5 serialized after t=10");
    }

    #[test]
    fn foreign_write_hit_without_ownership_is_rejected() {
        let t = sharing_trace(2);
        let m = machine(2, 1, CacheSpec::Infinite);
        let mut shadow = ShadowDirectory::new(&t, &m).unwrap();
        let addr = t.space.regions().next().unwrap().base;
        shadow.observe(WitnessEvent {
            time: 0,
            proc: 0,
            addr,
            commit: CommitKind::WriteMiss,
        });
        // Unit 1 claims a write *hit* without ever acquiring the line.
        shadow.observe(WitnessEvent {
            time: 1,
            proc: 1,
            addr,
            commit: CommitKind::WriteHit,
        });
        let c = shadow.finish();
        assert!(!c.certified);
    }

    #[test]
    fn observed_replay_matches_plain_replay() {
        let t = sharing_trace(4);
        let m = machine(4, 2, CacheSpec::PerProcBytes(4096));
        let plain = tango::try_run_with(&t, m, EngineOptions::default()).unwrap();
        let mut n = 0u64;
        let observed =
            tango::try_run_observed(&t, m, EngineOptions::default(), &mut |_| n += 1).unwrap();
        assert_eq!(plain, observed, "observation perturbed the replay");
        assert!(n > 0);
    }
}
