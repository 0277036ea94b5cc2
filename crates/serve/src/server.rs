//! The serve loop: protocol in, study cells out.
//!
//! [`ServeState`] owns the result store, the trace store, and a
//! bounded job queue; a [`Session`] tracks one connection's
//! negotiated protocol version. [`serve_connection`] drives one
//! line-delimited request stream on a blocking transport;
//! `crate::event_loop` multiplexes many nonblocking sockets over the
//! same dispatch. The loop is panic-free by construction (enforced by
//! `cluster_check lint`'s no-panic rule over this crate): every
//! failure becomes a typed error response, and only transport I/O
//! errors — the peer vanishing — end a connection.
//!
//! A `run` whose every cell is already stored is answered from the
//! result store alone ([`ResultStore::serve_cached`]), with no trace
//! lookup and no pool; this is the first step of every `run`, so the
//! event loop can take it on its own thread and the blocking
//! transports take it too. Any other `run`, and every `batch`, fans
//! its `caches` × `clusters` matrix onto the work-stealing pool
//! ([`cluster_study::parallel::run_items`]); `cursor` requests use
//! [`cluster_study::parallel::run_items_streamed`] so every finished
//! cell is emitted the moment it (and everything before it) is done.
//! The result store's single-flight discipline keeps concurrent
//! requests from duplicating work.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cluster_study::apps::FIG2_APPS;
use cluster_study::manifest::{RunRecord, ServedBy};
use cluster_study::parallel::{run_items, run_items_streamed, RunStatus};
use cluster_study::run_cell;
use cluster_study::JournalEntry;
use coherence::config::CacheSpec;
use simcore::fault::IoFaultPlan;
use simcore::ops::Trace;
use simcore::Json;

use crate::chaos::ChaosCounters;
use crate::protocol::{
    parse_request, read_bounded_line, write_response, BatchJob, CellResult, ErrorKind, JobSpec,
    LineRead, Op, ProtoVersion, ProtocolError, Request, Response, ServeStats, DEFAULT_MAX_LINE,
    PROTOCOL_SCHEMA_V2,
};
use crate::store::{size_label, ResultStore, TraceStore};

/// Default bound on concurrently executing `run` requests.
pub const DEFAULT_QUEUE: usize = 4;

/// Default per-connection pipelined-op budget (the event loop sheds
/// parsed-but-unserved requests beyond it with `overloaded`).
pub const DEFAULT_OP_BUDGET: usize = 256;

/// Backoff hint carried by `queue_full` (v2 only) and `overloaded`
/// responses.
pub const RETRY_AFTER_MS: u64 = 25;

/// Tunables for a server instance.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads per `run` request (the `run_items` pool width).
    pub jobs: usize,
    /// Per-line byte cap; longer lines answer `oversized`.
    pub max_line: usize,
    /// Bound on concurrently executing `run` requests; excess answers
    /// `queue_full` instead of piling unbounded work onto the pool.
    pub queue: usize,
    /// Per-connection bound on pipelined ops parsed but not yet
    /// served; excess requests are shed with `overloaded` instead of
    /// accumulating unbounded state for one greedy peer.
    pub op_budget: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            jobs: cluster_study::resolve_jobs(None),
            max_line: DEFAULT_MAX_LINE,
            queue: DEFAULT_QUEUE,
            op_budget: DEFAULT_OP_BUDGET,
        }
    }
}

/// One connection's protocol state: the negotiated version. Every
/// connection starts at [`ProtoVersion::V1`] (full PR 6
/// compatibility) until a `hello` upgrades it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Session {
    version: ProtoVersion,
}

impl Session {
    /// A fresh v1 session.
    pub fn new() -> Session {
        Session::default()
    }

    /// A session pinned at `version` (the event loop's worker threads
    /// dispatch with a snapshot of the connection's session).
    pub fn with_version(version: ProtoVersion) -> Session {
        Session { version }
    }

    /// The version currently in force.
    pub fn version(&self) -> ProtoVersion {
        self.version
    }
}

/// Shared server state: stores, counters, and the job-queue gate.
pub struct ServeState {
    store: ResultStore,
    traces: TraceStore,
    opts: ServeOptions,
    active: AtomicUsize,
    requests: AtomicU64,
    shutdown: AtomicBool,
    shed: AtomicU64,
    chaos: Mutex<IoFaultPlan>,
    chaos_counters: Arc<ChaosCounters>,
}

/// Releases a job-queue slot when a `run` request finishes, on every
/// path including panicked simulations.
struct SlotGuard<'a> {
    state: &'a ServeState,
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.state.active.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ServeState {
    /// Builds a server over an opened store.
    pub fn new(store: ResultStore, opts: ServeOptions) -> ServeState {
        ServeState {
            store,
            traces: TraceStore::new(),
            opts,
            active: AtomicUsize::new(0),
            requests: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shed: AtomicU64::new(0),
            chaos: Mutex::new(IoFaultPlan::disabled()),
            chaos_counters: Arc::new(ChaosCounters::default()),
        }
    }

    /// Installs (or replaces) the chaos plan. Socket faults apply to
    /// connections accepted *after* this call; disk faults are
    /// forwarded to the store and apply to every later append.
    pub fn set_chaos_plan(&self, plan: IoFaultPlan) {
        *self.chaos.lock().unwrap_or_else(|e| e.into_inner()) = plan;
        self.store.set_fault_plan(plan);
    }

    /// The chaos plan in force for newly accepted connections.
    pub fn chaos_plan(&self) -> IoFaultPlan {
        *self.chaos.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counters the event loop's [`crate::chaos::ChaosStream`]s share.
    pub fn chaos_counters(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.chaos_counters)
    }

    /// The underlying result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The server's options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// True once a `shutdown` op has been acknowledged.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Current counter snapshot.
    pub fn stats(&self) -> ServeStats {
        let sc = self.store.counters();
        let tc = self.traces.counters();
        ServeStats {
            requests: self.requests.load(Ordering::SeqCst),
            cells_served: sc.hits + sc.misses,
            cache_hits: sc.hits,
            sims_run: sc.misses,
            trace_hits: tc.hits,
            trace_gens: tc.gens,
            store_entries: sc.entries as u64,
            store_bytes: sc.bytes,
            evictions: sc.evictions,
            compactions: sc.compactions,
            shards: sc.shards as u64,
            shed: self.shed.load(Ordering::SeqCst),
            net_faults: self.chaos_counters.total(),
            disk_faults: sc.disk_faults,
            append_failures: sc.append_failures,
        }
    }

    /// Counts one request (any op, including unparseable and
    /// oversized lines).
    pub(crate) fn note_request(&self) {
        self.requests.fetch_add(1, Ordering::SeqCst);
    }

    /// The typed response for a line that blew the byte cap.
    pub(crate) fn oversized(&self, length: usize) -> Json {
        Response::Error {
            id: None,
            err: ProtocolError::new(
                ErrorKind::Oversized,
                format!(
                    "line of {length} bytes exceeds the {} byte cap",
                    self.opts.max_line
                ),
            ),
        }
        .to_json()
    }

    fn acquire_slot(&self, version: ProtoVersion) -> Result<SlotGuard<'_>, ProtocolError> {
        let prev = self.active.fetch_add(1, Ordering::SeqCst);
        if prev >= self.opts.queue {
            self.active.fetch_sub(1, Ordering::SeqCst);
            let mut err = ProtocolError::new(
                ErrorKind::QueueFull,
                format!("job queue full ({} run requests active)", self.opts.queue),
            );
            // Additive backoff hint: v2 only, so v1 responses stay
            // byte-identical to the PR 6 shape.
            if version == ProtoVersion::V2 {
                err = err.with_retry_after(RETRY_AFTER_MS);
            }
            return Err(err);
        }
        Ok(SlotGuard { state: self })
    }

    /// The typed response for a request shed under the per-connection
    /// op budget; counts the shed. `overloaded` is a new (v2-era)
    /// error kind, so it always carries the backoff hint.
    pub(crate) fn shed_response(&self, line: &str) -> Json {
        self.shed.fetch_add(1, Ordering::SeqCst);
        Response::Error {
            id: lenient_id(line),
            err: ProtocolError::new(
                ErrorKind::Overloaded,
                format!(
                    "connection exceeded {} pipelined ops; request shed",
                    self.opts.op_budget
                ),
            )
            .with_retry_after(RETRY_AFTER_MS),
        }
        .to_json()
    }

    fn require_v2(&self, sess: &Session, op: &str) -> Result<(), ProtocolError> {
        if sess.version() == ProtoVersion::V2 {
            Ok(())
        } else {
            Err(ProtocolError::new(
                ErrorKind::Protocol,
                format!("op `{op}` requires {PROTOCOL_SCHEMA_V2}; negotiate with `hello` first"),
            ))
        }
    }

    /// Handles one request line against a session, emitting zero or
    /// more response lines through `emit` (exactly one for every op
    /// except `cursor`). Returns whether an orderly shutdown was
    /// requested.
    pub fn handle_line_session(
        &self,
        sess: &mut Session,
        line: &str,
        emit: &mut dyn FnMut(Json),
    ) -> bool {
        self.note_request();
        match parse_request(line) {
            Err(e) => {
                emit(
                    Response::Error {
                        id: lenient_id(line),
                        err: e,
                    }
                    .to_json(),
                );
                false
            }
            Ok(req) => self.handle_request(sess, req, emit),
        }
    }

    /// Dispatches one parsed request. The event loop calls this from
    /// worker threads with a pinned [`Session`] snapshot for heavy
    /// ops; blocking transports call it inline via
    /// [`ServeState::handle_line_session`].
    pub fn handle_request(
        &self,
        sess: &mut Session,
        req: Request,
        emit: &mut dyn FnMut(Json),
    ) -> bool {
        let id = req.id;
        match req.op {
            Op::Ping => {
                emit(Response::Pong { id }.to_json());
                false
            }
            Op::Stats => {
                emit(
                    Response::Stats {
                        id,
                        stats: self.stats(),
                        version: sess.version(),
                    }
                    .to_json(),
                );
                false
            }
            Op::Health => {
                let sc = self.store.counters();
                emit(
                    Response::Health {
                        id,
                        active: self.active.load(Ordering::SeqCst) as u64,
                        queue: self.opts.queue as u64,
                        shed: self.shed.load(Ordering::SeqCst),
                        net_faults: self.chaos_counters.total(),
                        disk_faults: sc.disk_faults,
                        append_failures: sc.append_failures,
                        store_entries: sc.entries as u64,
                        store_bytes: sc.bytes,
                    }
                    .to_json(),
                );
                false
            }
            Op::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                emit(Response::ShutdownAck { id }.to_json());
                true
            }
            Op::Hello(version) => {
                *sess = Session::with_version(version);
                emit(Response::Hello { id, version }.to_json());
                false
            }
            Op::Run(spec) => {
                emit(self.run_json(id, &spec, sess.version()));
                false
            }
            Op::Batch(specs) => {
                emit(match self.require_v2(sess, "batch") {
                    Ok(()) => self.batch_json(id, &specs),
                    Err(e) => Response::Error { id, err: e }.to_json(),
                });
                false
            }
            Op::Cursor { spec, from } => {
                match self.require_v2(sess, "cursor") {
                    Ok(()) => self.handle_cursor(id, &spec, from, emit),
                    Err(e) => emit(Response::Error { id, err: e }.to_json()),
                }
                false
            }
        }
    }

    /// Handles one request line under a throwaway v1 session,
    /// returning the single response line — the PR 6 surface, kept
    /// for harnesses that drive the server line by line.
    pub fn handle_line(&self, line: &str) -> (Json, bool) {
        let mut sess = Session::new();
        let mut out: Option<Json> = None;
        let shutdown = self.handle_line_session(&mut sess, line, &mut |j| {
            out.get_or_insert(j);
        });
        let resp = out.unwrap_or_else(|| {
            Response::Error {
                id: None,
                err: ProtocolError::new(ErrorKind::Internal, "request produced no response"),
            }
            .to_json()
        });
        (resp, shutdown)
    }

    fn unknown_app(&self, spec: &JobSpec) -> ProtocolError {
        ProtocolError::new(
            ErrorKind::UnknownApp,
            format!("unknown application `{}`", spec.app),
        )
    }

    fn cell_items(spec: &JobSpec) -> Vec<(CacheSpec, u32)> {
        spec.caches
            .iter()
            .flat_map(|&c| spec.clusters.iter().map(move |&cl| (c, cl)))
            .collect()
    }

    /// Serves one cell of `spec` — store hit or fresh simulation —
    /// building the response-side [`CellResult`] (with the full
    /// journal document attached when `with_journal`).
    fn compute_cell(
        &self,
        spec: &JobSpec,
        trace: &Trace,
        size: &str,
        cache: CacheSpec,
        cluster: u32,
        with_journal: bool,
    ) -> Result<CellResult, String> {
        let label = cache.label();
        let key = self.store.key(&spec.app, size, spec.procs, &label, cluster);
        let (cell, hit) = self
            .store
            .serve_cell(&key, size, spec.procs, || {
                let start = Instant::now();
                let (stats, _) = run_cell(trace, cluster, cache, None)
                    // cluster_check: allow(no-panic) — parse_spec admits
                    // only (procs, cluster) shapes MachineConfig::validate
                    // accepts, and the trace store builds each trace for
                    // exactly spec.procs, so this replay cannot be rejected.
                    .expect("a parsed spec fits its machine");
                JournalEntry {
                    app: spec.app.clone(),
                    cache: label.clone(),
                    cluster,
                    stats,
                    wall: Some(start.elapsed()),
                    status: RunStatus::Ok,
                    attempts: 1,
                    sampling: None,
                }
            })
            .map_err(|e| e.to_string())?;
        Ok(cell_result(label, cluster, key, cell, hit, with_journal))
    }

    /// The whole `run` response straight from the result store, or
    /// `None` when some cell is missing (or the app is unknown) and
    /// the request needs the trace store and a simulation. Touches
    /// neither the trace store nor the pool.
    fn cached_run(&self, id: Option<u64>, spec: &JobSpec) -> Option<Json> {
        // Unknown apps answer `unknown_app` on the full path, even if
        // a store file holds cells under that name.
        if !FIG2_APPS.contains(&spec.app.as_str()) {
            return None;
        }
        let size = size_label(spec.size);
        let (cells, keys): (Vec<(String, u32)>, Vec<String>) = Self::cell_items(spec)
            .into_iter()
            .map(|(cache, cluster)| {
                let label = cache.label();
                let key = self.store.key(&spec.app, size, spec.procs, &label, cluster);
                ((label, cluster), key)
            })
            .unzip();
        let stored = self.store.serve_cached(&keys)?;
        let cells = cells
            .into_iter()
            .zip(keys)
            .zip(stored)
            .map(|(((label, cluster), key), cell)| {
                cell_result(label, cluster, key, cell, true, false)
            })
            .collect();
        Some(
            Response::Run {
                id,
                app: spec.app.clone(),
                cells,
            }
            .to_json(),
        )
    }

    /// Runs one spec's full matrix on the pool; the shared body of
    /// `run` and `batch`.
    fn run_cells(&self, spec: &JobSpec) -> Result<Vec<CellResult>, ProtocolError> {
        let trace = self
            .traces
            .get_or_generate(&spec.app, spec.size, spec.procs)
            .ok_or_else(|| self.unknown_app(spec))?;
        let size = size_label(spec.size);
        let items = Self::cell_items(spec);
        let results = run_items(&items, self.opts.jobs, |&(cache, cluster)| {
            self.compute_cell(spec, &trace, size, cache, cluster, false)
        });
        let mut cells = Vec::with_capacity(results.len());
        for r in results {
            cells.push(r.map_err(|e| ProtocolError::new(ErrorKind::Internal, e))?);
        }
        Ok(cells)
    }

    /// Answers a `run` under one queue slot: from the store alone when
    /// every cell is there, otherwise through the trace store and the
    /// pool.
    fn run_json(&self, id: Option<u64>, spec: &JobSpec, version: ProtoVersion) -> Json {
        let _slot = match self.acquire_slot(version) {
            Ok(s) => s,
            Err(e) => return Response::Error { id, err: e }.to_json(),
        };
        if let Some(resp) = self.cached_run(id, spec) {
            return resp;
        }
        match self.run_cells(spec) {
            Ok(cells) => Response::Run {
                id,
                app: spec.app.clone(),
                cells,
            }
            .to_json(),
            Err(e) => Response::Error { id, err: e }.to_json(),
        }
    }

    /// The first step of [`ServeState::run_json`] alone, for a caller
    /// that must not block: the response when the queue is full or
    /// every cell is stored, `None` when the request needs a worker.
    /// The slot is taken and released exactly as on the full path.
    pub(crate) fn run_cached(
        &self,
        id: Option<u64>,
        spec: &JobSpec,
        version: ProtoVersion,
    ) -> Option<Json> {
        let _slot = match self.acquire_slot(version) {
            Ok(s) => s,
            Err(e) => return Some(Response::Error { id, err: e }.to_json()),
        };
        self.cached_run(id, spec)
    }

    /// Runs every spec of a batch under one queue slot. The batch is
    /// atomic: the first failing spec fails the whole request with a
    /// single error line (specs are already schema-validated, so the
    /// only failures left are `unknown_app` and store I/O).
    fn batch_json(&self, id: Option<u64>, specs: &[JobSpec]) -> Json {
        // Batch is v2-only, so the queue-full hint is unconditional.
        let _slot = match self.acquire_slot(ProtoVersion::V2) {
            Ok(s) => s,
            Err(e) => return Response::Error { id, err: e }.to_json(),
        };
        let mut jobs = Vec::with_capacity(specs.len());
        for spec in specs {
            match self.run_cells(spec) {
                Ok(cells) => jobs.push(BatchJob {
                    app: spec.app.clone(),
                    cells,
                }),
                Err(e) => return Response::Error { id, err: e }.to_json(),
            }
        }
        Response::Batch { id, jobs }.to_json()
    }

    /// Streams one spec's matrix: a `cursor` start line, one `cell`
    /// line per finished cell **in request order** (each carrying the
    /// full journal document), inline error lines for failed cells,
    /// and a `cursor_done` trailer.
    ///
    /// A resume request (`from > 0`) skips the first `from` cells —
    /// the client already acked them on a previous connection, and
    /// content-addressed keys make recomputing the rest idempotent —
    /// then streams the remainder with their original `seq` numbers.
    fn handle_cursor(
        &self,
        id: Option<u64>,
        spec: &JobSpec,
        from: u64,
        emit: &mut dyn FnMut(Json),
    ) {
        let _slot = match self.acquire_slot(ProtoVersion::V2) {
            Ok(s) => s,
            Err(e) => return emit(Response::Error { id, err: e }.to_json()),
        };
        let trace = match self
            .traces
            .get_or_generate(&spec.app, spec.size, spec.procs)
        {
            Some(t) => t,
            None => {
                return emit(
                    Response::Error {
                        id,
                        err: self.unknown_app(spec),
                    }
                    .to_json(),
                )
            }
        };
        let size = size_label(spec.size);
        let items = Self::cell_items(spec);
        if from > items.len() as u64 {
            return emit(
                Response::Error {
                    id,
                    err: ProtocolError::new(
                        ErrorKind::Protocol,
                        format!("`from` ({from}) beyond the {}-cell matrix", items.len()),
                    ),
                }
                .to_json(),
            );
        }
        emit(
            Response::CursorStart {
                id,
                app: spec.app.clone(),
                total: items.len() as u64,
            }
            .to_json(),
        );
        let rest = &items[from as usize..];
        let mut hits = 0u64;
        let mut sims = 0u64;
        let mut failed = 0u64;
        let results = run_items_streamed(
            rest,
            self.opts.jobs,
            |&(cache, cluster)| self.compute_cell(spec, &trace, size, cache, cluster, true),
            |i, result| match result {
                Ok(cell) => {
                    if cell.cache_hit() {
                        hits += 1;
                    } else {
                        sims += 1;
                    }
                    emit(
                        Response::CursorCell {
                            id,
                            seq: i as u64 + from,
                            cell: cell.clone(),
                        }
                        .to_json(),
                    );
                }
                Err(e) => {
                    failed += 1;
                    emit(
                        Response::Error {
                            id,
                            err: ProtocolError::new(ErrorKind::Internal, e.clone()),
                        }
                        .to_json(),
                    );
                }
            },
        );
        drop(results);
        emit(
            Response::CursorDone {
                id,
                cells: items.len() as u64,
                cache_hits: hits,
                sims,
                failed,
                skipped: from,
            }
            .to_json(),
        );
    }
}

/// The response-side [`CellResult`] of one served cell, with the
/// manifest's deterministic stats view and, when `with_journal`, the
/// full journal document.
fn cell_result(
    label: String,
    cluster: u32,
    key: String,
    cell: JournalEntry,
    hit: bool,
    with_journal: bool,
) -> CellResult {
    let journal = with_journal.then(|| cell.to_json());
    let rec = RunRecord {
        app: cell.app,
        cache: cell.cache,
        cluster: cell.cluster,
        stats: cell.stats,
        wall: cell.wall,
        status: cell.status,
        attempts: cell.attempts,
        served_by: if hit { ServedBy::Cache } else { ServedBy::Sim },
        sampling: cell.sampling,
    };
    let mut out = CellResult::new(label, cluster, key, rec.to_json(false));
    if hit {
        out = out.served_from_cache();
    }
    if let Some(j) = journal {
        out = out.with_journal(j);
    }
    out
}

/// Dispatches one already-parsed heavy request (`run`/`batch`/
/// `cursor`) against a pinned session version, emitting response
/// lines through `emit`. The event loop's worker threads call this;
/// `hello`/`ping`/`stats`/`shutdown` and fully cached `run`s stay on
/// the loop thread.
pub fn dispatch_heavy(
    state: &Arc<ServeState>,
    version: ProtoVersion,
    req: Request,
    emit: &mut dyn FnMut(Json),
) {
    let mut sess = Session::with_version(version);
    let _ = state.handle_request(&mut sess, req, emit);
}

/// Best-effort correlation id for error responses: when the offending
/// line still parses as an object with an unsigned `id`, echo it.
pub fn lenient_id(line: &str) -> Option<u64> {
    simcore::json::parse(line)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
}

/// Drives one request stream to completion on a blocking transport.
/// Responses (including incremental `cursor` lines) are written and
/// flushed as they are produced. Returns `Ok(true)` when the peer
/// asked for an orderly shutdown, `Ok(false)` on EOF.
pub fn serve_connection(
    state: &ServeState,
    r: &mut dyn BufRead,
    w: &mut dyn Write,
) -> std::io::Result<bool> {
    let mut sess = Session::new();
    loop {
        match read_bounded_line(r, state.opts.max_line)? {
            LineRead::Eof => return Ok(false),
            LineRead::Oversized { length } => {
                state.note_request();
                write_response(w, &state.oversized(length))?;
            }
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let mut io_err: Option<std::io::Error> = None;
                let shutdown = state.handle_line_session(&mut sess, &line, &mut |j| {
                    if io_err.is_none() {
                        if let Err(e) = write_response(w, &j) {
                            io_err = Some(e);
                        }
                    }
                });
                if let Some(e) = io_err {
                    return Err(e);
                }
                if shutdown {
                    return Ok(true);
                }
            }
        }
    }
}
