//! Property tests of the timing engine: accounting identities,
//! determinism, and ordering laws hold for arbitrary generated traces.
//! Runs on the in-tree `simcore::propcheck` harness (48 cases by
//! default, matching the old proptest config; `PROPCHECK_CASES`
//! overrides). Cases are the per-processor op scripts of
//! [`common::arb_scripts`]; the trace is rebuilt inside each property.

mod common;

use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig};
use common::{arb_scripts, build_trace, machine, shrink_scripts, CACHES};
use simcore::ops::{Op, Trace, TraceBuilder};
use simcore::propcheck::{self, halves};
use simcore::sample::SamplePlan;
use simcore::stats::RunStats;
use simcore::{prop_ensure, prop_ensure_eq};
use tango::{EngineOptions, SampledRun};

const CASES: u32 = 48;

/// Full replay under default options; an engine error fails the case.
fn replay(trace: &Trace, m: MachineConfig) -> Result<RunStats, String> {
    tango::try_run_with(trace, m, EngineOptions::default()).map_err(|e| e.to_string())
}

/// Sampled replay under default options; an engine error fails the case.
fn replay_sampled(
    trace: &Trace,
    m: MachineConfig,
    plan: &SamplePlan,
) -> Result<SampledRun, String> {
    tango::try_run_sampled(trace, m, EngineOptions::default(), plan).map_err(|e| e.to_string())
}

#[test]
fn breakdowns_sum_to_exec_time() {
    propcheck::check_cases(
        CASES,
        "breakdowns_sum_to_exec_time",
        |g| (arb_scripts(g, 4), g.pick(&[1u32, 2, 4])),
        |(s, pc)| shrink_scripts(s).into_iter().map(|c| (c, *pc)).collect(),
        |(scripts, per_cluster)| {
            let trace = build_trace(scripts);
            trace
                .validate()
                .map_err(|e| format!("invalid trace: {e}"))?;
            let rs = replay(&trace, machine(4, *per_cluster, CacheSpec::Infinite))?;
            for bd in &rs.per_proc {
                prop_ensure_eq!(bd.total(), rs.exec_time);
            }
            Ok(())
        },
    );
}

#[test]
fn runs_are_deterministic() {
    propcheck::check_cases(
        CASES,
        "runs_are_deterministic",
        |g| arb_scripts(g, 4),
        |s| shrink_scripts(s),
        |scripts| {
            let trace = build_trace(scripts);
            let m = machine(4, 2, CacheSpec::PerProcBytes(4096));
            let a = replay(&trace, m)?;
            let b = replay(&trace, m)?;
            prop_ensure_eq!(a.exec_time, b.exec_time);
            prop_ensure_eq!(a.mem, b.mem);
            prop_ensure_eq!(a.per_proc, b.per_proc);
            Ok(())
        },
    );
}

#[test]
fn total_cpu_is_config_independent() {
    propcheck::check_cases(
        CASES,
        "total_cpu_is_config_independent",
        |g| arb_scripts(g, 4),
        |s| shrink_scripts(s),
        |scripts| {
            // CPU busy time depends only on the trace, never on the memory
            // system (hits are single-cycle in every configuration).
            let trace = build_trace(scripts);
            let sum_cpu = |cache| {
                let rs = replay(&trace, machine(4, 1, cache))?;
                Ok::<u64, String>(rs.per_proc.iter().map(|b| b.cpu).sum())
            };
            let a = sum_cpu(CacheSpec::Infinite)?;
            let b = sum_cpu(CacheSpec::PerProcBytes(1024))?;
            prop_ensure_eq!(a, b);
            let rs = replay(&trace, machine(4, 4, CacheSpec::Infinite))?;
            prop_ensure_eq!(rs.per_proc.iter().map(|b| b.cpu).sum::<u64>(), a);
            Ok(())
        },
    );
}

#[test]
fn infinite_cache_never_loses_to_finite_read_only() {
    propcheck::check_cases(
        CASES,
        "infinite_cache_never_loses_to_finite_read_only",
        |g| g.vec_of(1..50, |g| g.u64_in(0..64)),
        |lines| {
            halves(lines)
                .into_iter()
                .filter(|h| !h.is_empty())
                .collect()
        },
        |lines| {
            // Only claimed for read-only traffic: with writes, a dirty
            // eviction *cleans the directory*, so a finite cache can turn a
            // later 150-cycle three-hop miss into a 100-cycle home miss and
            // finish earlier than the infinite cache — a real (and
            // documented) property of the DASH-style protocol.
            let mut b = TraceBuilder::new(4);
            let base = b.space_mut().alloc_shared(64 * 64);
            for p in 0..4u32 {
                b.compute(p, p as u64 * 13);
                for &l in lines {
                    b.read(p, base + l * 64);
                    b.compute(p, 3);
                }
            }
            let trace = b.finish();
            let inf = replay(&trace, machine(4, 1, CacheSpec::Infinite))?;
            let fin = replay(&trace, machine(4, 1, CacheSpec::PerProcBytes(512)))?;
            prop_ensure!(inf.exec_time <= fin.exec_time, "infinite slower");
            prop_ensure!(
                inf.mem.read_misses <= fin.mem.read_misses,
                "infinite missed more"
            );
            Ok(())
        },
    );
}

#[test]
fn zero_latency_is_lower_bound() {
    propcheck::check_cases(
        CASES,
        "zero_latency_is_lower_bound",
        |g| arb_scripts(g, 4),
        |s| shrink_scripts(s),
        |scripts| {
            let trace = build_trace(scripts);
            let paper = replay(&trace, machine(4, 1, CacheSpec::Infinite))?;
            let free = replay(
                &trace,
                MachineConfig {
                    n_procs: 4,
                    per_cluster: 1,
                    cache: CacheSpec::Infinite,
                    lat: LatencyTable::uniform(0),
                },
            )?;
            prop_ensure!(free.exec_time <= paper.exec_time, "free run slower");
            // With zero miss latency there is no load stall at all.
            for bd in &free.per_proc {
                prop_ensure_eq!(bd.load, 0);
            }
            Ok(())
        },
    );
}

#[test]
fn miss_counts_are_cluster_monotone_for_read_only() {
    propcheck::check_cases(
        CASES,
        "miss_counts_are_cluster_monotone_for_read_only",
        |g| g.vec_of(1..40, |g| g.u64_in(0..64)),
        |lines| {
            halves(lines)
                .into_iter()
                .filter(|h| !h.is_empty())
                .collect()
        },
        |lines| {
            // For a read-only workload (no invalidations, infinite cache),
            // merging processors into clusters can only remove misses.
            let mut b = TraceBuilder::new(8);
            let base = b.space_mut().alloc_shared(64 * 64);
            for p in 0..8u32 {
                b.compute(p, p as u64 * 97);
                for &l in lines {
                    b.read(p, base + l * 64);
                    b.compute(p, 11);
                }
            }
            let t = b.finish();
            let mut prev = u64::MAX;
            for per_cluster in [1u32, 2, 4, 8] {
                let rs = replay(&t, machine(8, per_cluster, CacheSpec::Infinite))?;
                prop_ensure!(
                    rs.mem.read_misses <= prev,
                    "misses rose at per_cluster {per_cluster}"
                );
                prev = rs.mem.read_misses;
            }
            Ok(())
        },
    );
}

#[test]
fn sampled_ledgers_conserve_the_full_replay() {
    use simcore::sample::{SampleMode, SampleSpec};
    use simcore::stats::Breakdown;
    use std::cell::Cell;
    // Short intervals with a warmup window longer than any gap between
    // samples: the plan skips nothing, so every op is measured or warm
    // and the two ledgers must add up to the full replay exactly, with
    // the warm ledger holding exactly what the warm ops cost.
    let non_vacuous = Cell::new(0u32);
    propcheck::check_cases(
        CASES,
        "sampled_ledgers_conserve_the_full_replay",
        |g| (arb_scripts(g, 4), g.pick(&[1u32, 2, 4])),
        |(s, pc)| shrink_scripts(s).into_iter().map(|c| (c, *pc)).collect(),
        |(scripts, per_cluster)| {
            let trace = build_trace(scripts);
            let m = machine(4, *per_cluster, CacheSpec::PerProcBytes(1024));
            let full = replay(&trace, m)?;
            let full_bd = full
                .per_proc
                .iter()
                .fold(Breakdown::default(), |acc, &b| acc + b);
            for mode in SampleMode::ALL {
                let spec = SampleSpec {
                    interval_ops: 4,
                    warmup_ops: 64,
                    ..SampleSpec::new(mode)
                };
                let plan = SamplePlan::for_trace(&trace, &spec);
                let ps = plan.stats();
                prop_ensure_eq!(ps.ops_measured + ps.ops_warm, ps.ops_total);
                if ps.ops_warm > 0 {
                    non_vacuous.set(non_vacuous.get() + 1);
                }
                // What the warm ops alone must cost: one cpu cycle per
                // access, c per compute, and one write counter each.
                let (mut warm_cpu, mut warm_writes) = (0u64, 0u64);
                for (pid, ops) in trace.per_proc.iter().enumerate() {
                    for &(lo, hi) in plan.warm_ranges(pid) {
                        for op in &ops[lo..hi] {
                            match op.unpack() {
                                Op::Compute(c) => warm_cpu += c,
                                Op::Read(_) => warm_cpu += 1,
                                Op::Write(_) => {
                                    warm_cpu += 1;
                                    warm_writes += 1;
                                }
                                _ => {}
                            }
                        }
                    }
                }
                let s = replay_sampled(&trace, m, &plan)?;
                prop_ensure_eq!(s.warm_bd.cpu, warm_cpu);
                let w = s.warm_mem;
                prop_ensure_eq!(
                    w.write_hits + w.write_misses + w.upgrade_misses,
                    warm_writes
                );
                let mut mem = s.stats.mem;
                mem += s.warm_mem;
                prop_ensure_eq!(mem, full.mem);
                prop_ensure_eq!(s.stats.exec_time, full.exec_time);
                let bd = s.stats.per_proc.iter().fold(s.warm_bd, |acc, &b| acc + b);
                prop_ensure_eq!(bd, full_bd);
            }
            Ok(())
        },
    );
    assert!(
        non_vacuous.get() > 0,
        "no generated case warmed any operation"
    );
}

#[test]
fn observed_replay_matches_plain_and_commits_in_time_order() {
    propcheck::check_cases(
        CASES,
        "observed_replay_matches_plain_and_commits_in_time_order",
        |g| {
            (
                arb_scripts(g, 4),
                g.pick(&[1u32, 2, 4]),
                g.usize_in(0..CACHES.len()),
            )
        },
        |(s, pc, c)| {
            shrink_scripts(s)
                .into_iter()
                .map(|s| (s, *pc, *c))
                .collect()
        },
        |(scripts, per_cluster, cache)| {
            let trace = build_trace(scripts);
            let m = machine(4, *per_cluster, CACHES[*cache]);
            let plain = replay(&trace, m)?;
            let mut times = Vec::new();
            let observed =
                tango::try_run_observed(&trace, m, EngineOptions::default(), &mut |ev| {
                    times.push(ev.time)
                })
                .map_err(|e| e.to_string())?;
            prop_ensure_eq!(observed, plain);
            // Every access commits once; merge waits are not commits.
            prop_ensure_eq!(times.len() as u64, trace.total_refs());
            if let Some(i) = times.windows(2).position(|w| w[1] < w[0]) {
                return Err(format!(
                    "commit {} at time {} after one at {}",
                    i + 1,
                    times[i + 1],
                    times[i]
                ));
            }
            Ok(())
        },
    );
}
