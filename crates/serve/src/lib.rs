//! `cluster_serve`: a long-lived study service in front of the
//! clustering study's executor, with a content-addressed result cache.
//!
//! A sweep like the paper's Section 5 matrix re-simulates nothing
//! that has ever been simulated before under the same inputs: every
//! finished cell is recorded in an on-disk store keyed by a stable
//! hash of `(app, size, procs, cache, cluster, seed scheme)`, and a
//! re-submitted cell is served from the store byte-identically to a
//! fresh run — with a `cache_hit` marker so clients and manifests can
//! tell the difference. Traces are memoized in memory by
//! `(app, size, procs)`, so sweeps that vary only the cluster
//! configuration never regenerate them.
//!
//! * [`protocol`] — the line-delimited JSON request/response surface
//!   (v1 and the negotiated `clustered-smp/serve/v2`), strict
//!   parsing, the [`protocol::Response`] enum, typed error kinds, and
//!   the bounded line reader ([`protocol::LineAccum`]) every transport
//!   cuts requests with.
//! * [`store`] — the sharded content-addressed [`store::ResultStore`]
//!   (JSONL shards, torn-tail recovery, per-shard single-flight,
//!   LRU-by-last-served eviction with journal-rewrite compaction)
//!   and the in-memory [`store::TraceStore`].
//! * [`server`] — [`server::ServeState`], per-connection
//!   [`server::Session`] version state, and the panic-free dispatch
//!   shared by every transport.
//! * [`event_loop`] — the nonblocking TCP loop
//!   ([`event_loop::serve_poll`]) multiplexing many clients over the
//!   worker pool with explicit backpressure. It blocks only in
//!   `poll(2)`, woken by socket readiness or by a worker through a
//!   wake pipe, never on a timer.
//! * [`client`] — a typed TCP client ([`client::ServeClient`]) used
//!   by the `serve_soak` throughput harness, `perfbench`'s serve
//!   workloads and the test suites, with socket deadlines,
//!   seeded-jitter retry, transparent reconnect, and cursor resume
//!   ([`client::ClientConfig`]).
//! * [`chaos`] — deterministic socket-level fault injection
//!   ([`chaos::ChaosStream`]) driven by `simcore`'s seeded
//!   [`simcore::fault::IoFaultPlan`] (`SERVE_FAULT_*`).
//!
//! The binary (`cluster_serve`) speaks the protocol over
//! stdin/stdout, a TCP listener (nonblocking event loop), or a Unix
//! socket; `paper_run --cache DIR` uses the same store in-process as
//! a client-side memo. Protocol and layout are documented in
//! `DESIGN.md` §12, and every behavior above is pinned by the
//! serving-layer test suite in `crates/serve/tests/`.

pub mod chaos;
pub mod client;
pub mod event_loop;
pub mod protocol;
pub mod server;
pub mod store;

pub use chaos::{ChaosCounters, ChaosStream};
pub use client::{ClientConfig, ClientError, CursorSummary, ServeClient};
pub use event_loop::{serve_poll, OUTBOX_HIGH_WATERMARK};
pub use protocol::{
    parse_request, ErrorKind, JobSpec, LineAccum, Op, ProtoVersion, ProtocolError, Request,
    Response, DEFAULT_MAX_LINE, PROTOCOL_SCHEMA, PROTOCOL_SCHEMA_V2,
};
pub use server::{serve_connection, ServeOptions, ServeState, Session, DEFAULT_QUEUE};
pub use store::{
    cell_key, cell_key_sampled, scan_store, scan_store_dir, shard_file_name, size_label, KeyMode,
    ResultStore, StoreConfig, StoreEntry, StoreError, TraceStore, DEFAULT_SHARDS, KILL_EXIT_CODE,
    STORE_FILE, STORE_FILE_V1_BACKUP, STORE_SCHEMA, STORE_SCHEMA_V2,
};
