//! The random multi-processor scripts the engine's property suites
//! replay: per processor a mix of reads, writes and computes over a
//! shared region plus balanced lock sections, built into a two-phase,
//! barrier-separated trace. Cases are the scripts, not the trace, so
//! shrinking by halving a script yields a smaller but still
//! structurally valid trace.

use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig};
use simcore::ops::{Trace, TraceBuilder};
use simcore::propcheck::{halves, Gen};

/// One scripted action: `(kind, value)` with kind 0=read line, 1=write
/// line, 2=compute cycles, 3=locked counter bump.
pub type Script = Vec<(u8, u64)>;

/// Random but structurally valid scripts, one per processor.
pub fn arb_scripts(g: &mut Gen, n_procs: usize) -> Vec<Script> {
    (0..n_procs)
        .map(|_| {
            g.vec_of(1..60, |g| match g.u8_in(0..4) {
                0 => (0u8, g.u64_in(0..64)), // read line l
                1 => (1u8, g.u64_in(0..64)), // write line l
                2 => (2u8, g.u64_in(1..50)), // compute c
                _ => (3u8, 0),               // locked counter bump
            })
        })
        .collect()
}

/// Shrink candidates: halve one processor's script at a time (keeping
/// at least one op so the structure assumptions hold).
pub fn shrink_scripts(scripts: &[Script]) -> Vec<Vec<Script>> {
    let mut out = Vec::new();
    for (p, script) in scripts.iter().enumerate() {
        for smaller in halves(script) {
            if smaller.is_empty() {
                continue;
            }
            let mut candidate = scripts.to_vec();
            candidate[p] = smaller;
            out.push(candidate);
        }
    }
    out
}

/// The two-phase trace of `scripts`: the same script replayed in each
/// phase, with a shared data region, a lock-protected counter, and a
/// global barrier after every phase.
pub fn build_trace(scripts: &[Script]) -> Trace {
    let mut b = TraceBuilder::new(scripts.len());
    let base = b.space_mut().alloc_shared(64 * 64);
    let counter = b.space_mut().alloc_shared(64);
    let lock = b.new_lock();
    for _phase in 0..2 {
        for (p, script) in scripts.iter().enumerate() {
            let pid = p as u32;
            for &(kind, v) in script {
                match kind {
                    0 => b.read(pid, base + v * 64),
                    1 => b.write(pid, base + v * 64),
                    2 => b.compute(pid, v),
                    _ => {
                        b.lock(pid, lock);
                        b.read(pid, counter);
                        b.write(pid, counter);
                        b.unlock(pid, lock);
                    }
                }
            }
        }
        b.barrier_all();
    }
    b.finish()
}

/// Every cache organization a cell can ask for, small enough that the
/// 64-line scripts evict.
pub const CACHES: [CacheSpec; 4] = [
    CacheSpec::Infinite,
    CacheSpec::PerProcBytes(1024),
    CacheSpec::PerProcSetAssoc {
        bytes: 1024,
        ways: 2,
    },
    CacheSpec::PrivatePerProc {
        bytes: 512,
        bus_cycles: 10,
    },
];

/// A machine of `n_procs` processors in clusters of `per_cluster`,
/// with the paper's latencies.
pub fn machine(n_procs: u32, per_cluster: u32, cache: CacheSpec) -> MachineConfig {
    MachineConfig {
        n_procs,
        per_cluster,
        cache,
        lat: LatencyTable::paper(),
    }
}
