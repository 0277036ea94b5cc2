//! A production-grade typed client for the serve protocol over TCP.
//!
//! Speaks v1 out of the box and upgrades to
//! [`PROTOCOL_SCHEMA_V2`] via
//! [`ServeClient::hello_v2`]. Every request carries a fresh `id` and
//! the response's echo is checked, so a desynced stream surfaces as a
//! typed [`ClientError`] instead of silently mismatched data.
//!
//! Resilience ([`ClientConfig`]):
//!
//! * **Deadlines** — sockets carry read/write timeouts, so a stalled
//!   server surfaces as an I/O error instead of hanging forever.
//! * **Bounded retries with seeded jitter** — idempotent requests
//!   (everything except `shutdown`) retry transport and
//!   `queue_full`/`overloaded` failures with exponential backoff;
//!   the jitter RNG is seeded, so a test run's retry schedule is
//!   reproducible. Server `retry_after_ms` hints override the
//!   computed delay.
//! * **Transparent reconnect** — a broken connection is re-dialed and
//!   the v2 handshake re-negotiated before the request is re-sent.
//! * **Cursor resume** — a cursor cut mid-stream re-issues the
//!   request with `from` set to the first unacked `seq`, so the
//!   stream finishes instead of restarting; duplicate cells from
//!   overlap are dropped. Content-addressed cell keys make the
//!   re-issue idempotent.
//!
//! The bench harness (`serve_soak`), the chaos
//! torture suite and the concurrency suite all drive servers through
//! this type.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use simcore::rng::Rng64;
use simcore::Json;

use crate::protocol::{PROTOCOL_SCHEMA, PROTOCOL_SCHEMA_V2};

/// Client-side failure: transport, malformed traffic, or a typed
/// error response from the server.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed.
    Io(std::io::Error),
    /// The server sent something the client cannot make sense of.
    Protocol(String),
    /// The server answered with a typed error response.
    Server {
        /// The error `kind` label (e.g. `unknown_op`, `queue_full`).
        kind: String,
        /// The human-readable detail string.
        detail: String,
        /// Backoff hint from `queue_full`/`overloaded` responses.
        retry_after_ms: Option<u64>,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { kind, detail, .. } => {
                write!(f, "server error [{kind}]: {detail}")
            }
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// Deadline and retry policy for a [`ServeClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Per-read socket deadline (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Retry budget per logical operation (0 = fail fast). Transport
    /// errors reconnect before re-sending; `queue_full`/`overloaded`
    /// just back off.
    pub retries: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter, so retry schedules replay
    /// deterministically.
    pub seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            retries: 4,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            seed: 0,
        }
    }
}

/// Counters from a finished `cursor` stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorSummary {
    /// Cells the server enumerated (`total` from the start line).
    pub cells: u64,
    /// Cells served from the store.
    pub cache_hits: u64,
    /// Cells freshly simulated.
    pub sims: u64,
    /// Cells that failed (each produced an inline error line).
    pub failed: u64,
}

/// One TCP connection to a serve instance (re-dialed transparently
/// under the retry policy).
pub struct ServeClient {
    addr: String,
    config: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    schema: &'static str,
    rng: Rng64,
}

/// Whether a failed attempt is worth retrying, and how.
enum Retry {
    /// Back off (honoring any hint), then re-send on the same socket.
    Backoff(Option<u64>),
    /// Back off, re-dial (and re-negotiate v2), then re-send.
    Reconnect,
}

fn retry_mode(e: &ClientError) -> Option<Retry> {
    match e {
        ClientError::Io(_) | ClientError::Protocol(_) => Some(Retry::Reconnect),
        ClientError::Server {
            kind,
            retry_after_ms,
            ..
        } if kind == "queue_full" || kind == "overloaded" => Some(Retry::Backoff(*retry_after_ms)),
        ClientError::Server { .. } => None,
    }
}

fn dial(addr: &str, config: &ClientConfig) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    // Request lines are small; leaving Nagle on costs a delayed-ACK
    // round trip (~40ms) per request.
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(config.read_timeout)?;
    stream.set_write_timeout(config.write_timeout)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

impl ServeClient {
    /// Connects to `addr` with the default deadlines and retry policy
    /// (a v1 session until [`ServeClient::hello_v2`]).
    pub fn connect(addr: &str) -> Result<ServeClient, ClientError> {
        ServeClient::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit [`ClientConfig`].
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<ServeClient, ClientError> {
        let (reader, writer) = dial(addr, &config)?;
        Ok(ServeClient {
            addr: addr.to_string(),
            config,
            reader,
            writer,
            next_id: 1,
            schema: PROTOCOL_SCHEMA,
            rng: Rng64::new(config.seed),
        })
    }

    /// The schema currently negotiated.
    pub fn schema(&self) -> &'static str {
        self.schema
    }

    /// Sleeps the attempt's backoff: the server hint when present,
    /// else `base << attempt` capped, both with seeded jitter in
    /// `[delay/2, delay]`.
    fn backoff(&mut self, attempt: u32, hint: Option<u64>) {
        let computed = self
            .config
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.config.backoff_cap);
        let ms = hint.unwrap_or(computed.as_millis() as u64);
        if ms == 0 {
            return;
        }
        let jittered = ms / 2 + self.rng.bounded_u64(ms / 2 + 1);
        std::thread::sleep(Duration::from_millis(jittered));
    }

    /// Re-dials the server and restores the session's negotiated
    /// version (one `hello` round trip when the session was v2).
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let (reader, writer) = dial(&self.addr, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        if self.schema == PROTOCOL_SCHEMA_V2 {
            self.hello_v2_once()?;
        }
        Ok(())
    }

    fn read_json(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-conversation".to_string(),
            ));
        }
        simcore::json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response line: {e}")))
    }

    fn server_error(j: &Json) -> ClientError {
        let err = j.get("error");
        let field = |k: &str| {
            err.and_then(|e| e.get(k))
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string()
        };
        ClientError::Server {
            kind: field("kind"),
            detail: field("detail"),
            retry_after_ms: err
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_u64),
        }
    }

    fn check_ok(&self, j: &Json, id: u64) -> Result<(), ClientError> {
        if j.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(Self::server_error(j));
        }
        match j.get("id").and_then(Json::as_u64) {
            Some(got) if got == id => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "response id {other:?} does not match request id {id}"
            ))),
        }
    }

    fn send(&mut self, mut req: Json) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        req.push("id", id);
        writeln!(self.writer, "{req}")?;
        self.writer.flush()?;
        Ok(id)
    }

    /// One request, one checked response; no retries.
    fn round_trip(&mut self, req: Json) -> Result<Json, ClientError> {
        let id = self.send(req)?;
        let resp = self.read_json()?;
        self.check_ok(&resp, id)?;
        Ok(resp)
    }

    /// [`round_trip`](Self::round_trip) under the retry policy. Only
    /// for idempotent requests: transport failures reconnect and
    /// re-send; `queue_full`/`overloaded` back off and re-send.
    fn round_trip_retrying(&mut self, req: Json) -> Result<Json, ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.round_trip(req.clone()) {
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            let mode = match retry_mode(&err) {
                Some(m) if attempt < self.config.retries => m,
                _ => return Err(err),
            };
            self.backoff(
                attempt,
                if let Retry::Backoff(h) = &mode {
                    *h
                } else {
                    None
                },
            );
            if matches!(mode, Retry::Reconnect) {
                // A failed reconnect burns this attempt; the loop
                // retries the dial until the budget runs out.
                if let Err(e) = self.reconnect() {
                    if attempt >= self.config.retries {
                        return Err(e);
                    }
                }
            }
            attempt += 1;
        }
    }

    fn hello_v2_once(&mut self) -> Result<(), ClientError> {
        let resp = self.round_trip(
            Json::obj()
                .with("op", "hello")
                .with("schema", PROTOCOL_SCHEMA_V2),
        )?;
        match resp.get("schema").and_then(Json::as_str) {
            Some(s) if s == PROTOCOL_SCHEMA_V2 => {
                self.schema = PROTOCOL_SCHEMA_V2;
                Ok(())
            }
            other => Err(ClientError::Protocol(format!(
                "hello answered with schema {other:?}"
            ))),
        }
    }

    /// Upgrades the session to protocol v2 (retried; after a
    /// reconnect the negotiated version sticks to the session).
    pub fn hello_v2(&mut self) -> Result<(), ClientError> {
        let mut attempt = 0u32;
        loop {
            let err = match self.hello_v2_once() {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            if attempt >= self.config.retries || retry_mode(&err).is_none() {
                return Err(err);
            }
            self.backoff(attempt, None);
            if let Err(e) = self.reconnect() {
                if attempt >= self.config.retries {
                    return Err(e);
                }
            }
            attempt += 1;
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.round_trip_retrying(Json::obj().with("op", "ping"))
            .map(|_| ())
    }

    /// Counter snapshot.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.round_trip_retrying(Json::obj().with("op", "stats"))
    }

    /// Load/degradation probe (queue depth, shed and fault counters,
    /// store pressure).
    pub fn health(&mut self) -> Result<Json, ClientError> {
        self.round_trip_retrying(Json::obj().with("op", "health"))
    }

    /// One `run` request; returns the full response document.
    pub fn run(&mut self, spec: Json) -> Result<Json, ClientError> {
        self.round_trip_retrying(Json::obj().with("op", "run").with("spec", spec))
    }

    /// One v2 `batch` request; returns the full response document.
    pub fn batch(&mut self, specs: Vec<Json>) -> Result<Json, ClientError> {
        self.round_trip_retrying(
            Json::obj()
                .with("op", "batch")
                .with("specs", Json::Arr(specs)),
        )
    }

    /// One v2 `cursor` request: `on_cell(seq, cell_doc)` fires for
    /// every streamed cell line in order; inline error lines (failed
    /// cells) are counted, not fatal. Returns the trailer's counters.
    ///
    /// Under the retry policy a stream cut mid-flight *resumes*: the
    /// request is re-issued with `from` set to the first unacked
    /// `seq`, already-delivered cells are never replayed to
    /// `on_cell`, and the summary merges client-side hit/sim counts
    /// across segments.
    pub fn cursor(
        &mut self,
        spec: Json,
        mut on_cell: impl FnMut(u64, &Json),
    ) -> Result<CursorSummary, ClientError> {
        let mut next_seq = 0u64;
        let mut hits = 0u64;
        let mut sims = 0u64;
        let mut attempt = 0u32;
        loop {
            let resumed = next_seq > 0;
            let err = match self.cursor_segment(
                spec.clone(),
                &mut next_seq,
                &mut hits,
                &mut sims,
                &mut on_cell,
            ) {
                Ok(mut summary) => {
                    if resumed {
                        // The trailer counts only the final segment;
                        // the client-side tallies span all of them.
                        summary.cache_hits = hits;
                        summary.sims = sims;
                    }
                    return Ok(summary);
                }
                Err(e) => e,
            };
            let mode = match retry_mode(&err) {
                Some(m) if attempt < self.config.retries => m,
                _ => return Err(err),
            };
            self.backoff(
                attempt,
                if let Retry::Backoff(h) = &mode {
                    *h
                } else {
                    None
                },
            );
            if matches!(mode, Retry::Reconnect) {
                if let Err(e) = self.reconnect() {
                    if attempt >= self.config.retries {
                        return Err(e);
                    }
                }
            }
            attempt += 1;
        }
    }

    /// Drives one cursor request from `*next_seq` to its trailer,
    /// advancing `*next_seq` past every delivered cell so a cut
    /// stream can resume where it stopped.
    fn cursor_segment(
        &mut self,
        spec: Json,
        next_seq: &mut u64,
        hits: &mut u64,
        sims: &mut u64,
        on_cell: &mut impl FnMut(u64, &Json),
    ) -> Result<CursorSummary, ClientError> {
        let from = *next_seq;
        let mut req = Json::obj().with("op", "cursor").with("spec", spec);
        if from > 0 {
            req.push("from", from);
        }
        let id = self.send(req)?;
        let start = self.read_json()?;
        self.check_ok(&start, id)?;
        if start.get("op").and_then(Json::as_str) != Some("cursor") {
            return Err(ClientError::Protocol(format!(
                "expected a cursor start line, got {start}"
            )));
        }
        let total = start.get("total").and_then(Json::as_u64).unwrap_or(0);
        let mut summary = CursorSummary::default();
        loop {
            let line = self.read_json()?;
            if line.get("ok").and_then(Json::as_bool) != Some(true) {
                // A failed cell: the server streams an error line and
                // keeps going; the trailer accounts for it.
                summary.failed += 1;
                continue;
            }
            match line.get("op").and_then(Json::as_str) {
                Some("cell") => {
                    let seq = line.get("seq").and_then(Json::as_u64).unwrap_or(0);
                    if seq < *next_seq {
                        continue; // overlap from a resume; already delivered
                    }
                    if let Some(cell) = line.get("cell") {
                        if cell.get("served_by").and_then(Json::as_str) == Some("cache") {
                            *hits += 1;
                        } else {
                            *sims += 1;
                        }
                        on_cell(seq, cell);
                    }
                    *next_seq = seq + 1;
                }
                Some("cursor_done") => {
                    self.check_ok(&line, id)?;
                    let field = |k: &str| line.get(k).and_then(Json::as_u64).unwrap_or(0);
                    summary.cells = field("cells");
                    summary.cache_hits = field("cache_hits");
                    summary.sims = field("sims");
                    if field("failed") != summary.failed {
                        return Err(ClientError::Protocol(format!(
                            "cursor trailer reports {} failed cells, client saw {}",
                            field("failed"),
                            summary.failed
                        )));
                    }
                    if summary.cells != total {
                        return Err(ClientError::Protocol(format!(
                            "cursor trailer reports {} cells, start line promised {total}",
                            summary.cells
                        )));
                    }
                    if from > 0 && field("skipped") != from {
                        return Err(ClientError::Protocol(format!(
                            "resumed cursor skipped {} cells, client asked for {from}",
                            field("skipped")
                        )));
                    }
                    return Ok(summary);
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected op {other:?} inside a cursor stream"
                    )))
                }
            }
        }
    }

    /// Asks the server to shut down after acknowledging. Never
    /// retried: shutdown is not idempotent from the cluster's point
    /// of view, and a vanished peer usually *is* the shutdown.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.round_trip(Json::obj().with("op", "shutdown"))
            .map(|_| ())
    }
}
