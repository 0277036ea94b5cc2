//! Event-driven multiprocessor timing engine (Tango-lite analogue).
//!
//! Replays a multi-processor [`simcore::Trace`] against a
//! [`coherence::MemorySystem`], producing per-processor execution-time
//! breakdowns (CPU busy / load stall / merge stall / sync wait) exactly
//! as the paper's simulator does (§3.1, §4).
//!
//! Scheduling: each logical processor has a local clock; the engine
//! always advances the runnable processor with the smallest clock (a
//! binary heap), so every memory-system interaction is observed in
//! global timestamp order. Cache hits cost a single cycle ("This
//! simulator produces application execution times by simulating with
//! single cycle cache hits"); READ misses stall for the Table 1
//! latency; reads of pending lines merge-stall until the outstanding
//! fill returns and then *retry*, so an invalidation arriving during
//! the wait is observed faithfully.

pub mod engine;

pub use engine::{
    run, run_instrumented, run_sampled, run_with, try_run_observed, try_run_sampled, try_run_with,
    EngineError, EngineOptions, SampledRun,
};
