//! Memory-system substrate for the clustered shared-address-space
//! multiprocessor study (Erlichson et al., SC'95).
//!
//! This crate provides the timing- and protocol-agnostic building blocks
//! shared by the rest of the workspace:
//!
//! * [`addr`] — cache-line address arithmetic (64-byte lines, as in the
//!   paper).
//! * [`space`] — a shared virtual address space with an allocator and the
//!   *placement policies* the paper describes (round-robin first touch,
//!   owner-local for stacks and explicitly placed data).
//! * [`ops`] — the packed trace-operation encoding used by the workload
//!   suite and replayed by the timing engine.
//! * [`cache`] — the fully-associative LRU cache (the paper's
//!   configuration) and set-associative caches built from it, one LRU
//!   stack per set (the paper's stated future work on limited
//!   associativity); a fully-associative cache is the one-set case.
//! * [`stats`] — execution-time breakdowns (CPU busy / load stall / merge
//!   stall / sync wait) and miss classification counters.
//! * [`rng`] — self-contained seedable PRNG (SplitMix64-seeded
//!   xoshiro256**), so workload generation needs no external crates.
//! * [`fault`] — deterministic fault injection (`STUDY_FAULT_*`):
//!   seed-keyed panic/delay schedules the guarded study executor uses
//!   to prove panic isolation, retry determinism and resume
//!   correctness.
//! * [`propcheck`] — an in-tree deterministic property-test harness
//!   (seeded cases, `PROPCHECK_CASES`, structural and element-wise
//!   shrinking).
//! * [`hash`] — stable 128-bit FNV-1a content hashing for the serving
//!   layer's content-addressed result/trace stores.
//! * [`json`] — minimal JSON value/writer/reader for the
//!   machine-readable results layer (run manifests, CI artifacts).
//! * [`metrics`] — insertion-ordered registry of named counters,
//!   gauges and timers reported through the manifests.
//! * [`sample`] — sampled/interval simulation plans: periodic,
//!   reservoir and phase-detecting interval selection with warmup
//!   windows replayed for cache state but excluded from statistics.
//! * [`vclock`] — vector clocks and FastTrack-style epochs for
//!   happens-before analysis of traces.
//! * [`witness`] — race-report and order-certificate types shared by
//!   the `cluster_check` race detector and replay certifier.
//! * [`cast`] — named lossless integer conversions (the `no-lossy-cast`
//!   lint forbids bare `as u32`/`as usize` in the simulation crates).

pub mod addr;
pub mod cache;
pub mod cast;
pub mod fault;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod ops;
pub mod propcheck;
pub mod rng;
pub mod sample;
pub mod space;
pub mod stats;
pub mod vclock;
pub mod witness;

pub use addr::{line_of, LineAddr, LINE_BYTES, LINE_SHIFT};
pub use cache::{CacheError, CacheKind, EvictedLine, FullLruCache, SetAssocCache};
pub use cast::usize_from;
pub use fault::{DiskFault, DiskFaultKind, FaultKind, FaultPlan, IoFaultPlan, NetFault};
pub use hash::{fnv1a128, stable_key};
pub use json::Json;
pub use metrics::{MetricValue, Metrics};
pub use ops::{Op, PackedOp, Trace, TraceBuilder};
pub use rng::Rng64;
pub use sample::{OpClass, SampleError, SampleMode, SamplePlan, SampleSpec, SamplingStats};
pub use space::{AddressSpace, Placement, ProcId, Region, SharedArray};
pub use stats::{Breakdown, MissClass, MissStats, RunStats};
pub use vclock::{Epoch, VectorClock};
pub use witness::{
    certificate_json, race_report_json, AccessKind, CommitKind, RaceAccess, RaceReport,
    WitnessEvent,
};
