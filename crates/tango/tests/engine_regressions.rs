//! Explicit regression cases for the timing engine.
//!
//! The old proptest suite kept a `prop_engine.proptest-regressions`
//! file with the shrunk failing trace proptest had found historically.
//! That harness is gone (the workspace builds with zero external
//! dependencies), so the recorded case is re-encoded here verbatim —
//! the exact packed-op streams, byte for byte — and pinned as explicit
//! `#[test]` cases: one per engine property it originally guarded,
//! so the coverage survives the proptest removal.
//!
//! The trace is a 4-processor, two-phase program over a 4 KB shared
//! region and a lock-protected counter word: processor 0 hammers the
//! lock, processors 1 and 3 mix lock sections with reads/writes/
//! computes, processor 2 is nearly idle. It originally exposed an
//! accounting bug where lock hand-off cycles were double-counted into
//! both `sync` and `cpu`, breaking `breakdown.total() == exec_time`.

use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig};
use simcore::ops::{PackedOp, Trace};
use simcore::space::AddressSpace;
use simcore::stats::RunStats;
use tango::EngineOptions;

/// The recorded shrunk trace from the old regressions file.
fn regression_trace() -> Trace {
    let per_proc: Vec<Vec<u64>> = vec![
        vec![
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            2305843009213694336,
            2496,
            4611686018427387915,
            64,
            192,
            64,
            64,
            6917529027641081856,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            2305843009213694336,
            2496,
            4611686018427387915,
            64,
            192,
            64,
            64,
            6917529027641081857,
            6917529027641081858,
        ],
        vec![
            256,
            64,
            2305843009213694272,
            4611686018427387924,
            2624,
            4611686018427387936,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            4611686018427387937,
            2305843009213696640,
            2305843009213696256,
            2305843009213694912,
            3648,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            3328,
            6917529027641081856,
            256,
            64,
            2305843009213694272,
            4611686018427387924,
            2624,
            4611686018427387936,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            4611686018427387937,
            2305843009213696640,
            2305843009213696256,
            2305843009213694912,
            3648,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            3328,
            6917529027641081857,
            6917529027641081858,
        ],
        vec![
            2305843009213697728,
            2944,
            2432,
            6917529027641081856,
            2305843009213697728,
            2944,
            2432,
            6917529027641081857,
            6917529027641081858,
        ],
        vec![
            3648,
            4611686018427387950,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            2305843009213694144,
            4611686018427387927,
            1856,
            1920,
            4611686018427387950,
            320,
            2305843009213697728,
            6917529027641081856,
            3648,
            4611686018427387950,
            9223372036854775808,
            4160,
            2305843009213698112,
            11529215046068469760,
            2305843009213694144,
            4611686018427387927,
            1856,
            1920,
            4611686018427387950,
            320,
            2305843009213697728,
            6917529027641081857,
            6917529027641081858,
        ],
    ];
    // Address space of the recorded case: a 4 KB shared region at 64
    // and the 64-byte lock-protected counter at 4160.
    let mut space = AddressSpace::new();
    assert_eq!(space.alloc_shared(4096), 64);
    assert_eq!(space.alloc_shared(64), 4160);
    Trace {
        per_proc: per_proc
            .into_iter()
            .map(|ops| ops.into_iter().map(PackedOp).collect())
            .collect(),
        space,
        n_barriers: 3,
        n_locks: 1,
    }
}

fn replay(t: &Trace, m: MachineConfig) -> RunStats {
    tango::try_run_with(t, m, EngineOptions::default()).expect("regression trace replays")
}

fn machine(per_cluster: u32, cache: CacheSpec) -> MachineConfig {
    MachineConfig {
        n_procs: 4,
        per_cluster,
        cache,
        lat: LatencyTable::paper(),
    }
}

#[test]
fn regression_trace_is_structurally_valid() {
    regression_trace().validate().unwrap();
}

#[test]
fn regression_breakdowns_sum_to_exec_time() {
    // The property this trace was recorded against: per-processor
    // breakdown components must account for every cycle.
    let t = regression_trace();
    for per_cluster in [1u32, 2, 4] {
        let rs = replay(&t, machine(per_cluster, CacheSpec::Infinite));
        for (p, bd) in rs.per_proc.iter().enumerate() {
            assert_eq!(
                bd.total(),
                rs.exec_time,
                "proc {p} at per_cluster {per_cluster}: {bd:?}"
            );
        }
    }
}

#[test]
fn regression_run_is_deterministic() {
    let t = regression_trace();
    let m = machine(2, CacheSpec::PerProcBytes(4096));
    let a = replay(&t, m);
    let b = replay(&t, m);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.mem, b.mem);
    assert_eq!(a.per_proc, b.per_proc);
}

#[test]
fn regression_cpu_is_config_independent() {
    let t = regression_trace();
    let sum_cpu = |cache, per_cluster| {
        let rs = replay(&t, machine(per_cluster, cache));
        rs.per_proc.iter().map(|b| b.cpu).sum::<u64>()
    };
    let a = sum_cpu(CacheSpec::Infinite, 1);
    assert_eq!(a, sum_cpu(CacheSpec::PerProcBytes(1024), 1));
    assert_eq!(a, sum_cpu(CacheSpec::Infinite, 4));
}

#[test]
fn regression_zero_latency_is_lower_bound() {
    let t = regression_trace();
    let paper = replay(&t, machine(1, CacheSpec::Infinite));
    let free = replay(
        &t,
        MachineConfig {
            n_procs: 4,
            per_cluster: 1,
            cache: CacheSpec::Infinite,
            lat: LatencyTable::uniform(0),
        },
    );
    assert!(free.exec_time <= paper.exec_time);
    for bd in &free.per_proc {
        assert_eq!(bd.load, 0);
    }
}

#[test]
fn regression_infinite_cache_not_slower_than_tiny_cache() {
    // The trace's traffic includes writes, so only the miss-count
    // direction is pinned (see prop_engine for why exec_time can
    // legitimately invert with writes).
    let t = regression_trace();
    let inf = replay(&t, machine(1, CacheSpec::Infinite));
    let fin = replay(&t, machine(1, CacheSpec::PerProcBytes(512)));
    assert!(inf.mem.read_misses <= fin.mem.read_misses);
    assert!(inf.mem.total_misses() <= fin.mem.total_misses());
}

#[test]
fn regression_exec_time_is_cluster_monotone_here() {
    // Not a general law, but true for this trace (its sharing is all
    // positive): clustering must not slow it down. Pins the measured
    // ordering so engine changes that break it are flagged.
    let t = regression_trace();
    let mut prev = u64::MAX;
    for per_cluster in [1u32, 2, 4] {
        let rs = replay(&t, machine(per_cluster, CacheSpec::Infinite));
        assert!(
            rs.exec_time <= prev,
            "exec_time rose at per_cluster {per_cluster}"
        );
        prev = rs.exec_time;
    }
}
