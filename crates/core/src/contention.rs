//! The Section 6 analytic shared-cache cost model.
//!
//! "To estimate the amount of contention at the multi-banked
//! non-blocking cache, we assume that each processor makes a reference
//! to the cache every cycle. If the reference stream is random, the
//! probability C that any reference will conflict with at least one
//! other reference is C = 1 - ((m-1)/m)^(n-1) where m is the number of
//! banks and n is the number of processors" (§6, Table 4). The cache
//! has four banks per processor.
//!
//! The overall execution-time factor weights the Pixie-analogue
//! latency factors (Table 5) by the conflict probability: a conflict-
//! free reference sees the Table 1 hit time `h(n)`, a conflicting one
//! sees `h(n) + 1`.

use crate::latency_factor::LatencyFactors;
use coherence::LatencyTable;

/// Banks per processor in the shared cache (§3.1: "the shared cache
/// has four banks for each processor in the cluster").
pub const BANKS_PER_PROC: u64 = 4;

/// Number of banks for a cluster of `n` processors (Table 4: a single
/// processor uses an unbanked cache). Widened to `u64`, so no `u32`
/// cluster size overflows it.
pub fn banks_for(n: u32) -> u64 {
    if n <= 1 {
        1
    } else {
        u64::from(n) * BANKS_PER_PROC
    }
}

/// Probability that a reference conflicts with at least one other
/// reference: `1 - ((m-1)/m)^(n-1)`.
pub fn bank_conflict_probability(n_procs: u32, m_banks: u64) -> f64 {
    assert!(n_procs >= 1 && m_banks >= 1);
    if n_procs == 1 {
        return 0.0;
    }
    1.0 - ((m_banks as f64 - 1.0) / m_banks as f64).powi(n_procs as i32 - 1)
}

/// The paper's Table 4 rows: `(processors, banks, conflict
/// probability)` for the studied cluster sizes.
pub fn table4() -> Vec<(u32, u64, f64)> {
    [1u32, 2, 4, 8]
        .iter()
        .map(|&n| {
            let m = banks_for(n);
            (n, m, bank_conflict_probability(n, m))
        })
        .collect()
}

/// The combined execution-time factor for a cluster of `n` processors:
/// `(1-C)·factor(h(n)) + C·factor(h(n)+1)`, where `h(n)` is the Table 1
/// shared-cache hit time and `factor` the app's latency expansion
/// factors.
pub fn shared_cache_factor(n_procs: u32, factors: &LatencyFactors) -> f64 {
    let h = LatencyTable::hit_cycles(n_procs);
    let c = bank_conflict_probability(n_procs, banks_for(n_procs));
    (1.0 - c) * factors.at(h) + c * factors.at(h + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper() {
        let t = table4();
        let want = [(1, 1, 0.0), (2, 8, 0.125), (4, 16, 0.176), (8, 32, 0.199)];
        for ((n, m, c), (wn, wm, wc)) in t.iter().zip(want) {
            assert_eq!(*n, wn);
            assert_eq!(*m, wm);
            assert!((c - wc).abs() < 5e-4, "n={n}: C={c} want {wc}");
        }
    }

    #[test]
    fn conflict_probability_monotone_in_procs() {
        let m = 32;
        let mut prev = 0.0;
        for n in 1..=8 {
            let c = bank_conflict_probability(n, m);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn more_banks_fewer_conflicts() {
        assert!(bank_conflict_probability(4, 32) < bank_conflict_probability(4, 8));
    }

    #[test]
    fn factor_is_identity_for_single_processor() {
        let f = LatencyFactors {
            by_latency: [1.0, 1.05, 1.11, 1.17],
        };
        assert!((shared_cache_factor(1, &f) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_weights_conflicting_references() {
        let f = LatencyFactors {
            by_latency: [1.0, 1.05, 1.11, 1.17],
        };
        // 8 procs: h=3, C≈0.199 => F ≈ 0.801·1.11 + 0.199·1.17.
        let want = 0.801_f64 * 1.11 + 0.199 * 1.17;
        assert!((shared_cache_factor(8, &f) - want).abs() < 1e-3);
    }
}
