//! Event-driven multiprocessor timing engine (Tango-lite analogue).
//!
//! Replays a multi-processor [`simcore::Trace`] against a
//! [`coherence::MemorySystem`], producing per-processor execution-time
//! breakdowns (CPU busy / load stall / merge stall / sync wait) exactly
//! as the paper's simulator does (§3.1, §4).
//!
//! Scheduling: each logical processor has a local clock; the engine
//! always advances the runnable processor with the smallest clock (a
//! binary heap; on a tie the running processor keeps running, see
//! [`engine`]), so every memory-system interaction is observed in
//! global timestamp order. Cache hits cost a single cycle ("This
//! simulator produces application execution times by simulating with
//! single cycle cache hits"); READ misses stall for the Table 1
//! latency; reads of pending lines merge-stall until the outstanding
//! fill returns and then *retry*, so an invalidation arriving during
//! the wait is observed faithfully.
//!
//! Three entry points, all returning a typed [`EngineError`] instead of
//! panicking on a trace that does not fit the machine:
//! [`try_run_with`] (full replay), [`try_run_observed`] (full replay
//! with a witness tap on every committed access) and
//! [`try_run_sampled`] (replay under a sample plan).

pub mod engine;

pub use engine::{
    try_run_observed, try_run_sampled, try_run_with, EngineError, EngineOptions, SampledRun,
};
