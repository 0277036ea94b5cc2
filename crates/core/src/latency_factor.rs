//! Pixie-analogue load-latency execution-time factors (Table 5).
//!
//! The paper used Pixie basic-block profiles to find "the relative
//! increase in execution time of increasing the load latency from 1 to
//! 2 cycles, 1 to 3 cycles, and 1 to 4 cycles". We measure the same
//! quantity by replaying each application's trace on an unclustered
//! machine with the engine's load-latency knob at 1–4 cycles and taking
//! execution-time ratios. The engine charges the added latency only on
//! *dependent* loads (one in four), modelling the compiler's ability to
//! schedule past most loads — "the processor will not stall on a load
//! instruction until the register destination of the load is used".

use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig};
use simcore::ops::Trace;
use tango::{EngineError, EngineOptions};

/// Execution-time expansion per load latency: `by_latency[l-1]` is the
/// factor at an `l`-cycle load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyFactors {
    /// Factors for latencies 1..=4; `by_latency[0]` is always 1.0.
    pub by_latency: [f64; 4],
}

impl LatencyFactors {
    /// The factor at `latency` cycles (1..=4).
    pub fn at(&self, latency: u64) -> f64 {
        assert!((1..=4).contains(&latency));
        self.by_latency[latency as usize - 1]
    }
}

/// Measures the Table 5 factors for one application trace. Uses an
/// infinite-cache, *zero-miss-latency* unclustered machine so the
/// measurement reflects only the instruction stream — exactly what
/// Pixie's basic-block profile measured. A trace the engine rejects is
/// the typed [`EngineError`].
pub fn measure_latency_factors(trace: &Trace) -> Result<LatencyFactors, EngineError> {
    let machine = MachineConfig {
        n_procs: trace.n_procs() as u32,
        per_cluster: 1,
        cache: CacheSpec::Infinite,
        lat: LatencyTable::uniform(0),
    };
    let exec_time = |load_latency| {
        tango::try_run_with(trace, machine, EngineOptions { load_latency }).map(|rs| rs.exec_time)
    };
    let base = exec_time(1)?;
    let mut by_latency = [1.0f64; 4];
    for l in 2..=4u64 {
        by_latency[l as usize - 1] = exec_time(l)? as f64 / base as f64;
    }
    Ok(LatencyFactors { by_latency })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ops::TraceBuilder;

    fn loady_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        let a = b.space_mut().alloc_shared(64 * 32);
        for p in 0..2u32 {
            for i in 0..400u64 {
                b.read(p, a + (i % 32) * 64);
                b.compute(p, 3);
            }
        }
        b.finish()
    }

    #[test]
    fn factors_monotone_and_start_at_one() {
        let f = measure_latency_factors(&loady_trace()).unwrap();
        assert_eq!(f.by_latency[0], 1.0);
        for w in f.by_latency.windows(2) {
            assert!(w[1] >= w[0], "factors must be nondecreasing: {f:?}");
        }
        assert!(f.by_latency[3] > 1.0);
    }

    #[test]
    fn factors_bounded_by_full_stall_model() {
        // With 1-in-4 dependent loads, a trace of r reads and c compute
        // can expand at most by r·(l-1)/4 cycles.
        let t = loady_trace();
        let f = measure_latency_factors(&t).unwrap();
        // reads per proc = 400, compute = 1200, so base ≈ 1600; at
        // l=4 the bound is (1600 + 300)/1600.
        assert!(f.at(4) <= (1600.0 + 300.0) / 1600.0 + 0.05, "factor {f:?}");
    }

    #[test]
    #[should_panic]
    fn at_rejects_out_of_range() {
        let f = LatencyFactors {
            by_latency: [1.0; 4],
        };
        let _ = f.at(5);
    }
}
