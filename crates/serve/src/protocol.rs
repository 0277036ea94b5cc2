//! The `cluster_serve` wire protocol: line-delimited JSON.
//!
//! One request per line; responses come back on the same stream in
//! request order. Requests are parsed *strictly* — unknown fields,
//! wrong types, out-of-range values and malformed JSON all produce a
//! typed error response (see [`ErrorKind`]) and never terminate the
//! serve loop. Oversized lines are drained to the next newline and
//! answered with an `oversized` error, so one hostile client line
//! cannot wedge the stream. The full grammar is documented in
//! `DESIGN.md` §12.
//!
//! Two protocol versions share this surface. Every connection starts
//! in [`ProtoVersion::V1`], where the PR 6 ops (`run`, `ping`,
//! `stats`, `shutdown`) behave byte-identically to the original
//! release. A `hello` handshake naming [`PROTOCOL_SCHEMA_V2`]
//! upgrades the session and unlocks `batch` (many specs, one
//! response line) and `cursor` (per-cell streaming) plus extended
//! `stats` counters.
//!
//! Every response-body key the server can emit is written in this
//! module and nowhere else; `cluster_check lint`'s schema-sync rule
//! pairs this file against the conformance suite
//! (`crates/serve/tests/protocol.rs`) so the two cannot drift apart
//! silently.

use std::io::{BufRead, Write};

use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig};
use simcore::Json;
use splash::ProblemSize;

/// Protocol identifier of the original (PR 6) surface.
pub const PROTOCOL_SCHEMA: &str = "clustered-smp/serve/v1";

/// Protocol identifier of the negotiated v2 surface.
pub const PROTOCOL_SCHEMA_V2: &str = "clustered-smp/serve/v2";

/// Default cap on one request line, in bytes.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// Hard cap on simulated processors per request.
pub const MAX_PROCS: usize = 256;

/// Hard cap on entries in a request's `caches` / `clusters` /
/// `specs` lists.
pub const MAX_LIST: usize = 16;

/// A negotiated protocol version. Connections start at [`V1`] and
/// may upgrade with a `hello` request; see [`Op::Hello`].
///
/// [`V1`]: ProtoVersion::V1
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtoVersion {
    /// The PR 6 surface: `run`/`ping`/`stats`/`shutdown`.
    #[default]
    V1,
    /// Adds `batch`, `cursor` and extended `stats` counters.
    V2,
}

impl ProtoVersion {
    /// Wire schema string of this version.
    pub fn schema(self) -> &'static str {
        match self {
            ProtoVersion::V1 => PROTOCOL_SCHEMA,
            ProtoVersion::V2 => PROTOCOL_SCHEMA_V2,
        }
    }

    /// Parses a schema string offered in a `hello` request.
    pub fn from_schema(s: &str) -> Option<ProtoVersion> {
        match s {
            PROTOCOL_SCHEMA => Some(ProtoVersion::V1),
            PROTOCOL_SCHEMA_V2 => Some(ProtoVersion::V2),
            _ => None,
        }
    }
}

/// Typed failure categories carried in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not valid JSON.
    Parse,
    /// Valid JSON that violates the request schema.
    Protocol,
    /// The `op` names no operation in either protocol version.
    UnknownOp,
    /// The line exceeded the server's line cap.
    Oversized,
    /// The bounded job queue is full; retry later.
    QueueFull,
    /// The connection exceeded its pipelined-op budget and this
    /// request was shed; retry later (v2 responses carry a
    /// `retry_after_ms` hint).
    Overloaded,
    /// The requested application is not in the registry.
    UnknownApp,
    /// The server failed internally (e.g. store I/O).
    Internal,
}

impl ErrorKind {
    /// Wire label of this kind.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::Protocol => "protocol",
            ErrorKind::UnknownOp => "unknown_op",
            ErrorKind::Oversized => "oversized",
            ErrorKind::QueueFull => "queue_full",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::UnknownApp => "unknown_app",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A request that could not be honored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Failure category.
    pub kind: ErrorKind,
    /// Human-readable specifics.
    pub detail: String,
    /// Backoff hint for retryable kinds (`queue_full`, `overloaded`);
    /// additive — v1 responses never carry it.
    pub retry_after_ms: Option<u64>,
}

impl ProtocolError {
    /// Shorthand constructor.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> ProtocolError {
        ProtocolError {
            kind,
            detail: detail.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a backoff hint, rendered as `retry_after_ms` inside
    /// the error object.
    pub fn with_retry_after(mut self, ms: u64) -> ProtocolError {
        self.retry_after_ms = Some(ms);
        self
    }
}

/// The study cells one `run` request asks for: the cross product of
/// `caches` × `clusters` over a single generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Application name (validated against the registry by the server).
    pub app: String,
    /// Problem size.
    pub size: ProblemSize,
    /// Simulated processors.
    pub procs: usize,
    /// Cache configurations to sweep.
    pub caches: Vec<CacheSpec>,
    /// Cluster sizes to sweep.
    pub clusters: Vec<u32>,
}

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Simulate (or serve from cache) a matrix of study cells.
    Run(JobSpec),
    /// Simulate several specs, answered as one response line
    /// (v2 only).
    Batch(Vec<JobSpec>),
    /// Simulate one spec, streaming each finished cell as its own
    /// response line (v2 only).
    Cursor {
        /// The spec to stream.
        spec: JobSpec,
        /// Resume point: cells with `seq < from` are skipped (their
        /// content-addressed results were already acked downstream).
        /// 0 — the default when the request omits `from` — streams
        /// the whole matrix.
        from: u64,
    },
    /// Negotiate the protocol version for the rest of the session.
    Hello(ProtoVersion),
    /// Liveness probe.
    Ping,
    /// Counter snapshot.
    Stats,
    /// Load/degradation probe: queue depth, shed count, fault
    /// counters, store pressure. Available in every version.
    Health,
    /// Orderly stop: acknowledged, then the connection closes.
    Shutdown,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The operation.
    pub op: Op,
}

/// Parses a size label.
pub fn parse_size(s: &str) -> Option<ProblemSize> {
    match s {
        "small" => Some(ProblemSize::Small),
        "paper" => Some(ProblemSize::Paper),
        _ => None,
    }
}

/// Parses a cache label: `"inf"` or `"<N>k"` (per-processor KiB).
/// Inverse of [`CacheSpec::label`] over the shapes the study sweeps.
pub fn parse_cache(s: &str) -> Option<CacheSpec> {
    if s == "inf" {
        return Some(CacheSpec::Infinite);
    }
    let kib: u64 = s.strip_suffix('k')?.parse().ok()?;
    if kib == 0 || kib > 1 << 20 {
        return None;
    }
    Some(CacheSpec::PerProcBytes(kib * 1024))
}

fn bad(detail: impl Into<String>) -> ProtocolError {
    ProtocolError::new(ErrorKind::Protocol, detail)
}

fn check_fields(j: &Json, allowed: &[&str], what: &str) -> Result<(), ProtocolError> {
    match j {
        Json::Obj(pairs) => {
            for (k, _) in pairs {
                if !allowed.contains(&k.as_str()) {
                    return Err(bad(format!("unknown {what} field `{k}`")));
                }
            }
            Ok(())
        }
        _ => Err(bad(format!("{what} must be a JSON object"))),
    }
}

fn parse_spec(j: &Json) -> Result<JobSpec, ProtocolError> {
    check_fields(j, &["app", "size", "procs", "caches", "clusters"], "spec")?;
    let app = match j.get("app") {
        Some(v) => v
            .as_str()
            .ok_or_else(|| bad("`app` must be a string"))?
            .to_string(),
        None => return Err(bad("missing required field `app`")),
    };
    if app.is_empty() || app.len() > 64 {
        return Err(bad("`app` must be 1..=64 characters"));
    }
    let size = match j.get("size") {
        Some(v) => {
            let s = v.as_str().ok_or_else(|| bad("`size` must be a string"))?;
            parse_size(s).ok_or_else(|| bad(format!("unknown size `{s}` (small|paper)")))?
        }
        None => ProblemSize::Small,
    };
    let procs = match j.get("procs") {
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad("`procs` must be an integer"))? as usize,
        None => 8,
    };
    if procs == 0 || procs > MAX_PROCS {
        return Err(bad(format!("`procs` must be 1..={MAX_PROCS}")));
    }
    let caches = match j.get("caches") {
        Some(v) => {
            let xs = v.as_arr().ok_or_else(|| bad("`caches` must be an array"))?;
            if xs.is_empty() || xs.len() > MAX_LIST {
                return Err(bad(format!("`caches` must hold 1..={MAX_LIST} labels")));
            }
            let mut out = Vec::with_capacity(xs.len());
            for x in xs {
                let s = x
                    .as_str()
                    .ok_or_else(|| bad("`caches` entries must be strings"))?;
                out.push(
                    parse_cache(s)
                        .ok_or_else(|| bad(format!("unknown cache label `{s}` (inf|<N>k)")))?,
                );
            }
            out
        }
        None => cluster_study::study::section5_caches(),
    };
    // Every cluster size must give a machine the replay can take: one
    // that tiles the processors with no more clusters than the
    // directory's sharer vector holds.
    let machine = |per_cluster: u32| {
        MachineConfig {
            n_procs: procs as u32,
            per_cluster,
            cache: CacheSpec::Infinite,
            lat: LatencyTable::paper(),
        }
        .validate()
    };
    let clusters = match j.get("clusters") {
        Some(v) => {
            let xs = v
                .as_arr()
                .ok_or_else(|| bad("`clusters` must be an array"))?;
            if xs.is_empty() || xs.len() > MAX_LIST {
                return Err(bad(format!("`clusters` must hold 1..={MAX_LIST} sizes")));
            }
            let mut out = Vec::with_capacity(xs.len());
            for x in xs {
                let c = x
                    .as_u64()
                    .ok_or_else(|| bad("`clusters` entries must be integers"))?;
                if c == 0 || c > MAX_PROCS as u64 {
                    return Err(bad(format!("cluster sizes must be 1..={MAX_PROCS}")));
                }
                machine(c as u32).map_err(|e| bad(e.to_string()))?;
                out.push(c as u32);
            }
            out
        }
        None => {
            let sizes = cluster_study::study::CLUSTER_SIZES;
            let out: Vec<u32> = sizes.into_iter().filter(|&c| machine(c).is_ok()).collect();
            if out.is_empty() {
                return Err(bad(format!(
                    "no cluster size in {sizes:?} fits {procs} procs"
                )));
            }
            out
        }
    };
    Ok(JobSpec {
        app,
        size,
        procs,
        caches,
        clusters,
    })
}

/// Rejects payload fields an op does not take. `spec`, `specs`,
/// `schema` and `from` are all legal *request* fields, but each
/// belongs to specific ops; carrying one elsewhere is a schema
/// violation.
fn reject_extras(j: &Json, op: &str, takes: &[&str]) -> Result<(), ProtocolError> {
    for field in ["spec", "specs", "schema", "from"] {
        if j.get(field).is_some() && !takes.contains(&field) {
            return Err(bad(format!("op `{op}` takes no `{field}`")));
        }
    }
    Ok(())
}

fn required<'a>(j: &'a Json, op: &str, field: &str, what: &str) -> Result<&'a Json, ProtocolError> {
    j.get(field)
        .ok_or_else(|| bad(format!("op `{op}` requires a `{field}` {what}")))
}

/// Parses one request line. Any failure maps to a typed error the
/// serve loop answers with — never a panic, never a dropped stream.
///
/// Parsing is version-independent: `batch` and `cursor` parse under
/// a v1 session too, and the server rejects them *after* parsing if
/// the session has not negotiated v2. An op name neither version
/// knows yields [`ErrorKind::UnknownOp`], not shutdown semantics.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let j = simcore::json::parse(line)
        .map_err(|e| ProtocolError::new(ErrorKind::Parse, e.to_string()))?;
    check_fields(
        &j,
        &["op", "id", "spec", "specs", "schema", "from"],
        "request",
    )?;
    let id = match j.get("id") {
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| bad("`id` must be an unsigned integer"))?,
        ),
        None => None,
    };
    let op = j
        .get("op")
        .ok_or_else(|| bad("missing required field `op`"))?
        .as_str()
        .ok_or_else(|| bad("`op` must be a string"))?;
    let op = match op {
        "run" => {
            reject_extras(&j, op, &["spec"])?;
            Op::Run(parse_spec(required(&j, op, "spec", "object")?)?)
        }
        "cursor" => {
            reject_extras(&j, op, &["spec", "from"])?;
            let from = match j.get("from") {
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| bad("`from` must be an unsigned integer"))?,
                None => 0,
            };
            Op::Cursor {
                spec: parse_spec(required(&j, op, "spec", "object")?)?,
                from,
            }
        }
        "batch" => {
            reject_extras(&j, op, &["specs"])?;
            let xs = required(&j, op, "specs", "array")?
                .as_arr()
                .ok_or_else(|| bad("`specs` must be an array"))?;
            if xs.is_empty() || xs.len() > MAX_LIST {
                return Err(bad(format!(
                    "`specs` must hold 1..={MAX_LIST} spec objects"
                )));
            }
            let mut specs = Vec::with_capacity(xs.len());
            for x in xs {
                specs.push(parse_spec(x)?);
            }
            Op::Batch(specs)
        }
        "hello" => {
            reject_extras(&j, op, &["schema"])?;
            let s = required(&j, op, "schema", "string")?
                .as_str()
                .ok_or_else(|| bad("`schema` must be a string"))?;
            let v = ProtoVersion::from_schema(s).ok_or_else(|| {
                bad(format!(
                    "unsupported schema `{s}` ({PROTOCOL_SCHEMA}|{PROTOCOL_SCHEMA_V2})"
                ))
            })?;
            Op::Hello(v)
        }
        "ping" | "stats" | "health" | "shutdown" => {
            reject_extras(&j, op, &[])?;
            match op {
                "ping" => Op::Ping,
                "stats" => Op::Stats,
                "health" => Op::Health,
                _ => Op::Shutdown,
            }
        }
        other => {
            return Err(ProtocolError::new(
                ErrorKind::UnknownOp,
                format!("unknown op `{other}`"),
            ))
        }
    };
    Ok(Request { id, op })
}

/// One served cell in a `run`, `batch` or `cursor` response.
///
/// Built with [`CellResult::new`] (required fields) plus the
/// builder-style refinements [`served_from_cache`] and
/// [`with_journal`]; fields are private so every construction names
/// what it must.
///
/// [`served_from_cache`]: CellResult::served_from_cache
/// [`with_journal`]: CellResult::with_journal
#[derive(Debug, Clone)]
pub struct CellResult {
    cache: String,
    cluster: u32,
    key: String,
    cache_hit: bool,
    served_by: &'static str,
    stats: Json,
    journal: Option<Json>,
}

impl CellResult {
    /// A freshly simulated cell (`served_by: "sim"`). `stats` is the
    /// deterministic stats view (`RunRecord::to_json(false)`),
    /// byte-identical between a fresh simulation and a cache hit.
    pub fn new(
        cache: impl Into<String>,
        cluster: u32,
        key: impl Into<String>,
        stats: Json,
    ) -> CellResult {
        CellResult {
            cache: cache.into(),
            cluster,
            key: key.into(),
            cache_hit: false,
            served_by: "sim",
            stats,
            journal: None,
        }
    }

    /// Marks the cell as answered from the result store.
    pub fn served_from_cache(mut self) -> CellResult {
        self.cache_hit = true;
        self.served_by = "cache";
        self
    }

    /// Attaches the full journal-entry document (v2 cursor cells
    /// carry it so clients can prefill their own stores).
    pub fn with_journal(mut self, journal: Json) -> CellResult {
        self.journal = Some(journal);
        self
    }

    /// Cache label of this cell.
    pub fn cache(&self) -> &str {
        &self.cache
    }

    /// Cluster size of this cell.
    pub fn cluster(&self) -> u32 {
        self.cluster
    }

    /// Content-addressed store key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// True when the cell was served from the result store.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// `"cache"` or `"sim"`.
    pub fn served_by(&self) -> &'static str {
        self.served_by
    }

    /// The deterministic stats view.
    pub fn stats(&self) -> &Json {
        &self.stats
    }
}

/// Counter snapshot rendered by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests handled (any op, including failed ones).
    pub requests: u64,
    /// Study cells served (hits + fresh simulations).
    pub cells_served: u64,
    /// Cells served from the result store.
    pub cache_hits: u64,
    /// Cells that ran a fresh simulation.
    pub sims_run: u64,
    /// Traces served from the in-memory trace store.
    pub trace_hits: u64,
    /// Traces generated fresh.
    pub trace_gens: u64,
    /// Entries currently in the result store.
    pub store_entries: u64,
    /// Bytes the result store holds on disk (v2 only).
    pub store_bytes: u64,
    /// Entries evicted under the byte budget (v2 only).
    pub evictions: u64,
    /// Shard-journal compaction rewrites (v2 only).
    pub compactions: u64,
    /// Shard journals backing the store (v2 only).
    pub shards: u64,
    /// Requests shed under the per-connection op budget (v2 only).
    pub shed: u64,
    /// Injected network faults (v2 only).
    pub net_faults: u64,
    /// Injected disk faults (v2 only).
    pub disk_faults: u64,
    /// Appends that failed to reach disk durably (v2 only).
    pub append_failures: u64,
}

/// One spec's worth of cells inside a `batch` response.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Application name of this spec.
    pub app: String,
    /// Served cells, in `caches` × `clusters` request order.
    pub cells: Vec<CellResult>,
}

/// Every line the server can write, rendered by one [`to_json`].
///
/// The v1 shapes (`Pong`, `ShutdownAck`, `Error`, `Run`, and `Stats`
/// under [`ProtoVersion::V1`]) are byte-identical to the original v1
/// wire format, pinned by the serve protocol suite.
///
/// [`to_json`]: Response::to_json
#[derive(Debug, Clone)]
pub enum Response {
    /// `ping` acknowledgement.
    Pong {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `shutdown` acknowledgement; the connection closes after this
    /// line.
    ShutdownAck {
        /// Echoed request id.
        id: Option<u64>,
    },
    /// `hello` acknowledgement carrying the negotiated schema.
    Hello {
        /// Echoed request id.
        id: Option<u64>,
        /// The version now in force for the session.
        version: ProtoVersion,
    },
    /// Any failed request.
    Error {
        /// Echoed request id, when one could be recovered.
        id: Option<u64>,
        /// What went wrong.
        err: ProtocolError,
    },
    /// Successful `run`: one entry per requested cell, in `caches` ×
    /// `clusters` request order.
    Run {
        /// Echoed request id.
        id: Option<u64>,
        /// Application name.
        app: String,
        /// Served cells.
        cells: Vec<CellResult>,
    },
    /// Successful `batch`: one job per spec, in request order.
    Batch {
        /// Echoed request id.
        id: Option<u64>,
        /// Per-spec results.
        jobs: Vec<BatchJob>,
    },
    /// `stats` snapshot. V1 sessions see exactly the PR 6 counters;
    /// v2 sessions additionally get store bytes/eviction/shard
    /// counters.
    Stats {
        /// Echoed request id.
        id: Option<u64>,
        /// The counters.
        stats: ServeStats,
        /// Controls whether extended counters are emitted.
        version: ProtoVersion,
    },
    /// First line of a `cursor` stream: announces the cell count.
    CursorStart {
        /// Echoed request id.
        id: Option<u64>,
        /// Application name.
        app: String,
        /// Cells the stream will attempt.
        total: u64,
    },
    /// One streamed cell (op `cell`), tagged with its position.
    CursorCell {
        /// Echoed request id.
        id: Option<u64>,
        /// 0-based position in `caches` × `clusters` request order.
        seq: u64,
        /// The cell.
        cell: CellResult,
    },
    /// Final line of a `cursor` stream (op `cursor_done`).
    CursorDone {
        /// Echoed request id.
        id: Option<u64>,
        /// Cells in the full matrix (skipped ones included).
        cells: u64,
        /// Cells served from the store.
        cache_hits: u64,
        /// Cells freshly simulated.
        sims: u64,
        /// Cells that failed (each was reported as an inline error
        /// line before `cursor_done`).
        failed: u64,
        /// Cells skipped by a resume `from` (the `skipped` key is
        /// emitted only when nonzero, keeping from-0 streams
        /// byte-identical to their pre-resume shape).
        skipped: u64,
    },
    /// `health` probe answer: load and degradation counters.
    Health {
        /// Echoed request id.
        id: Option<u64>,
        /// Run requests executing right now.
        active: u64,
        /// Max concurrently executing run requests.
        queue: u64,
        /// Requests shed under the per-connection op budget.
        shed: u64,
        /// Injected network faults.
        net_faults: u64,
        /// Injected disk faults.
        disk_faults: u64,
        /// Appends that failed to reach disk durably.
        append_failures: u64,
        /// Entries in the result store.
        store_entries: u64,
        /// Bytes the result store holds on disk.
        store_bytes: u64,
    },
}

fn ok_base(id: Option<u64>, op: &str) -> Json {
    let mut j = Json::obj();
    if let Some(id) = id {
        j.push("id", id);
    }
    j.push("ok", true);
    j.push("op", op);
    j
}

fn cell_json(c: &CellResult) -> Json {
    let mut j = Json::obj()
        .with("cache", c.cache.as_str())
        .with("cluster", c.cluster)
        .with("key", c.key.as_str())
        .with("cache_hit", c.cache_hit)
        .with("served_by", c.served_by)
        .with("stats", c.stats.clone());
    if let Some(journal) = &c.journal {
        j.push("journal", journal.clone());
    }
    j
}

fn job_json(app: &str, cells: &[CellResult]) -> Json {
    let hits = cells.iter().filter(|c| c.cache_hit).count();
    let mut arr = Vec::with_capacity(cells.len());
    for c in cells {
        arr.push(cell_json(c));
    }
    Json::obj()
        .with("app", app)
        .with("cache_hits", hits)
        .with("sims", cells.len() - hits)
        .with("cells", Json::Arr(arr))
}

impl Response {
    /// Renders this response as its wire JSON document.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Pong { id } => ok_base(*id, "ping"),
            Response::ShutdownAck { id } => ok_base(*id, "shutdown"),
            Response::Hello { id, version } => {
                ok_base(*id, "hello").with("schema", version.schema())
            }
            Response::Error { id, err } => {
                let mut j = Json::obj();
                if let Some(id) = id {
                    j.push("id", *id);
                }
                j.push("ok", false);
                let mut e = Json::obj()
                    .with("kind", err.kind.label())
                    .with("detail", err.detail.as_str());
                if let Some(ms) = err.retry_after_ms {
                    e.push("retry_after_ms", ms);
                }
                j.push("error", e);
                j
            }
            Response::Run { id, app, cells } => {
                // Flatten the single job into the v1 shape: the keys
                // live directly on the response line.
                let job = job_json(app, cells);
                let mut j = ok_base(*id, "run");
                if let Json::Obj(pairs) = job {
                    for (k, v) in pairs {
                        j.push(&k, v);
                    }
                }
                j
            }
            Response::Batch { id, jobs } => {
                let mut arr = Vec::with_capacity(jobs.len());
                for job in jobs {
                    arr.push(job_json(&job.app, &job.cells));
                }
                ok_base(*id, "batch").with("jobs", Json::Arr(arr))
            }
            Response::Stats { id, stats, version } => {
                let mut j = ok_base(*id, "stats")
                    .with("requests", stats.requests)
                    .with("cells_served", stats.cells_served)
                    .with("cache_hits", stats.cache_hits)
                    .with("sims_run", stats.sims_run)
                    .with("trace_hits", stats.trace_hits)
                    .with("trace_gens", stats.trace_gens)
                    .with("store_entries", stats.store_entries);
                if *version == ProtoVersion::V2 {
                    j.push("store_bytes", stats.store_bytes);
                    j.push("evictions", stats.evictions);
                    j.push("compactions", stats.compactions);
                    j.push("shards", stats.shards);
                    j.push("shed", stats.shed);
                    j.push("net_faults", stats.net_faults);
                    j.push("disk_faults", stats.disk_faults);
                    j.push("append_failures", stats.append_failures);
                }
                j
            }
            Response::CursorStart { id, app, total } => ok_base(*id, "cursor")
                .with("app", app.as_str())
                .with("total", *total),
            Response::CursorCell { id, seq, cell } => ok_base(*id, "cell")
                .with("seq", *seq)
                .with("cell", cell_json(cell)),
            Response::CursorDone {
                id,
                cells,
                cache_hits,
                sims,
                failed,
                skipped,
            } => {
                let mut j = ok_base(*id, "cursor_done")
                    .with("cells", *cells)
                    .with("cache_hits", *cache_hits)
                    .with("sims", *sims)
                    .with("failed", *failed);
                if *skipped > 0 {
                    j.push("skipped", *skipped);
                }
                j
            }
            Response::Health {
                id,
                active,
                queue,
                shed,
                net_faults,
                disk_faults,
                append_failures,
                store_entries,
                store_bytes,
            } => ok_base(*id, "health")
                .with("active", *active)
                .with("queue", *queue)
                .with("shed", *shed)
                .with("net_faults", *net_faults)
                .with("disk_faults", *disk_faults)
                .with("append_failures", *append_failures)
                .with("store_entries", *store_entries)
                .with("store_bytes", *store_bytes),
        }
    }
}

/// One read from the request stream.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (newline stripped; one trailing `\r` is also
    /// stripped, so CRLF clients work). A torn final line at EOF is
    /// also surfaced here, so the parser can answer it with a typed
    /// error instead of dropping it silently.
    Line(String),
    /// A line longer than the cap; the stream has been drained to the
    /// next newline (or EOF) and is safe to keep reading.
    Oversized {
        /// Bytes the line held before the terminator.
        length: usize,
    },
    /// End of stream.
    Eof,
}

fn finish_line(buf: &mut Vec<u8>) -> LineRead {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    LineRead::Line(String::from_utf8_lossy(buf).into_owned())
}

/// Incremental line accumulator for nonblocking transports.
///
/// The poll loop feeds whatever bytes a readiness wakeup produced;
/// complete lines come out as [`LineRead`] events with exactly the
/// [`read_bounded_line`] semantics (byte cap counted before the
/// newline, CRLF stripped, oversized lines swallowed until their
/// terminating newline so the stream never desyncs). Partial lines
/// persist across `feed` calls until their newline arrives.
#[derive(Debug)]
pub struct LineAccum {
    max: usize,
    buf: Vec<u8>,
    total: usize,
    overflow: bool,
}

impl LineAccum {
    /// An empty accumulator with a `max`-byte line cap.
    pub fn new(max: usize) -> LineAccum {
        LineAccum {
            max,
            buf: Vec::new(),
            total: 0,
            overflow: false,
        }
    }

    /// Consumes one chunk of stream bytes, returning every line event
    /// it completes (never [`LineRead::Eof`]).
    pub fn feed(&mut self, chunk: &[u8]) -> Vec<LineRead> {
        let mut out = Vec::new();
        for &b in chunk {
            if b == b'\n' {
                out.push(if self.overflow {
                    LineRead::Oversized { length: self.total }
                } else {
                    finish_line(&mut self.buf)
                });
                self.buf.clear();
                self.total = 0;
                self.overflow = false;
            } else {
                self.total += 1;
                if !self.overflow {
                    self.buf.push(b);
                    if self.total > self.max {
                        self.overflow = true;
                        self.buf.clear();
                    }
                }
            }
        }
        out
    }

    /// Surfaces a torn (unterminated) final line at EOF, if any, and
    /// resets the accumulator.
    pub fn finish(&mut self) -> Option<LineRead> {
        let ev = if self.overflow {
            Some(LineRead::Oversized { length: self.total })
        } else if self.total == 0 {
            None
        } else {
            Some(finish_line(&mut self.buf))
        };
        self.buf.clear();
        self.total = 0;
        self.overflow = false;
        ev
    }

    /// True when no partial line is pending.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

/// Reads one `\n`-terminated line, holding at most `max` bytes in
/// memory. Invalid UTF-8 is replaced, never fatal. One trailing `\r`
/// is stripped.
pub fn read_bounded_line(r: &mut dyn BufRead, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut total = 0usize;
    let mut overflow = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if overflow {
                LineRead::Oversized { length: total }
            } else if buf.is_empty() && total == 0 {
                LineRead::Eof
            } else {
                finish_line(&mut buf)
            });
        }
        if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            if !overflow {
                buf.extend_from_slice(&chunk[..pos]);
            }
            total += pos;
            r.consume(pos + 1);
            if total > max {
                overflow = true;
            }
            return Ok(if overflow {
                LineRead::Oversized { length: total }
            } else {
                finish_line(&mut buf)
            });
        }
        let n = chunk.len();
        if !overflow {
            buf.extend_from_slice(chunk);
        }
        total += n;
        r.consume(n);
        if total > max {
            overflow = true;
            buf = Vec::new();
        }
    }
}

/// Writes one response line and flushes, so pipelined clients see
/// answers promptly.
pub fn write_response(w: &mut dyn Write, resp: &Json) -> std::io::Result<()> {
    writeln!(w, "{resp}")?;
    w.flush()
}
