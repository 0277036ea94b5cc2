//! The SC'95 clustering study (Erlichson, Nayfeh, Singh, Olukotun):
//! experiment sweeps, the analytic shared-cache cost model, and the
//! figure/table drivers.
//!
//! * [`study`] — run an application trace across cluster sizes
//!   {1,2,4,8} and cache sizes {4K,16K,32K,∞} per processor (Sections
//!   4 and 5). Every cell is one [`run_cell`], full or sampled, which
//!   returns the engine's typed error instead of panicking.
//! * [`contention`] — the multi-banked shared-cache bank-conflict model
//!   and the combined execution-time cost factor (Section 6, Table 4).
//! * [`latency_factor`] — the Pixie-analogue load-latency execution-
//!   time expansion factors (Section 6, Table 5).
//! * [`apps`] — the workload registry binding the `splash` suite to the
//!   study.
//! * [`report`] — text renderings of every figure and table.
//! * [`paper_data`] — the paper's published numbers, embedded for
//!   side-by-side comparison.
//! * [`parallel`] — the two executors for the embarrassingly parallel
//!   experiment matrix (`--jobs` / `STUDY_JOBS`): the guarded
//!   pipelined gen+sim executor behind [`StudySpec`], and the flat
//!   chunk-stealing runner that streams results in input order.
//! * [`manifest`] — machine-readable run manifests (JSON/CSV) with a
//!   stable schema, emitted by the `cluster-bench` regenerators.

pub mod apps;
pub mod checkpoint;
pub mod contention;
pub mod latency_factor;
pub mod manifest;
pub mod paper_data;
pub mod parallel;
pub mod report;
pub mod study;

pub use checkpoint::JournalEntry;
pub use contention::{bank_conflict_probability, shared_cache_factor};
pub use latency_factor::{measure_latency_factors, LatencyFactors};
pub use manifest::{write_atomic, Manifest, RunError, RunRecord, ServedBy};
pub use parallel::{
    resolve_jobs, run_items, run_pipeline_guarded, FanoutTiming, GuardedEvent, GuardedRun,
    ItemReport, Phase, RunPolicy, RunStatus,
};
pub use study::{
    run_cell, CapacitySweep, CellOutcome, ClusterSweep, GenOutcome, StudyCell, StudyEvent,
    StudyRun, StudySpec,
};
