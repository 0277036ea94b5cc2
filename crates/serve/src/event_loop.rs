//! Nonblocking poll-based TCP event loop.
//!
//! One thread owns every socket: it accepts, reads, parses, answers
//! light ops (`ping`/`stats`/`hello`/`shutdown`/errors) inline, and
//! hands heavy ops (`run`/`batch`/`cursor`) to a per-connection
//! worker thread so hundreds of idle clients cost nothing while the
//! `run_items` pool does the real work. Request order is preserved
//! per connection: at most one worker is in flight per connection,
//! and buffered lines behind it wait their turn.
//!
//! Backpressure is explicit in both directions. A worker that
//! produces faster than the peer drains (a `cursor` against a warm
//! store) blocks in `Outbox::push` once the connection's outbox
//! passes its high-watermark; the loop thread never blocks — it
//! simply stops reading from (and parsing for) connections whose
//! outbox is above the watermark, which in turn stalls the peer's
//! TCP window. Everything here is panic-free (no-panic lint applies
//! to this file).

use std::collections::VecDeque;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use simcore::Json;

use crate::chaos::ChaosStream;
use crate::protocol::{parse_request, LineAccum, LineRead, Op};
use crate::server::{dispatch_heavy, lenient_id, ServeState, Session};

/// Outbox high-watermark: a worker pushing response lines blocks once
/// this many bytes are queued unwritten, and the loop stops reading
/// request bytes from the connection until it drains below it.
pub const OUTBOX_HIGH_WATERMARK: usize = 4 << 20;

/// How long the loop sleeps when a full pass made no progress.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Bytes read per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Default)]
struct OutboxInner {
    queue: VecDeque<Vec<u8>>,
    bytes: usize,
    closed: bool,
}

/// The queue of serialized response lines between a worker thread and
/// the loop thread.
struct Outbox {
    inner: Mutex<OutboxInner>,
    space: Condvar,
}

impl Outbox {
    fn new() -> Arc<Outbox> {
        Arc::new(Outbox {
            inner: Mutex::new(OutboxInner::default()),
            space: Condvar::new(),
        })
    }

    /// Queues one line, blocking while the outbox is over the
    /// high-watermark. Lines pushed after [`Outbox::close`] are
    /// dropped (the peer is gone; the worker just drains).
    fn push(&self, line: Vec<u8>) {
        let mut g = lock(&self.inner);
        while g.bytes >= OUTBOX_HIGH_WATERMARK && !g.closed {
            g = self.space.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        if g.closed {
            return;
        }
        g.bytes += line.len();
        g.queue.push_back(line);
    }

    /// Moves queued lines into the connection's write buffer, at most
    /// `max` bytes worth, and wakes any worker blocked on space.
    fn drain_into(&self, wr: &mut Vec<u8>, max: usize) {
        let mut g = lock(&self.inner);
        while wr.len() < max {
            match g.queue.pop_front() {
                Some(line) => {
                    g.bytes -= line.len();
                    wr.extend_from_slice(&line);
                }
                None => break,
            }
        }
        drop(g);
        self.space.notify_all();
    }

    fn bytes(&self) -> usize {
        lock(&self.inner).bytes
    }

    fn is_empty(&self) -> bool {
        let g = lock(&self.inner);
        g.queue.is_empty()
    }

    /// Marks the peer gone: pending lines are dropped and future
    /// pushes become no-ops, so a blocked worker always unsticks.
    fn close(&self) {
        let mut g = lock(&self.inner);
        g.closed = true;
        g.queue.clear();
        g.bytes = 0;
        drop(g);
        self.space.notify_all();
    }
}

/// A buffered input line awaiting dispatch, in arrival order.
enum Pending {
    Line(String),
    Oversized(usize),
}

/// Releases a connection's worker slot when the worker thread ends —
/// even by panic (simulation code outside this crate can panic). An
/// abandoned run answers an `internal` error instead of wedging the
/// connection behind a `busy` flag nothing will ever clear.
struct WorkerSlot {
    busy: Arc<AtomicBool>,
    outbox: Arc<Outbox>,
    completed: bool,
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        if !self.completed {
            let resp = crate::protocol::Response::Error {
                id: None,
                err: crate::protocol::ProtocolError::new(
                    crate::protocol::ErrorKind::Internal,
                    "worker thread panicked mid-request",
                ),
            }
            .to_json();
            self.outbox.push(line_bytes(&resp));
        }
        self.busy.store(false, Ordering::SeqCst);
    }
}

struct Conn {
    stream: ChaosStream,
    accum: LineAccum,
    pending: VecDeque<Pending>,
    outbox: Arc<Outbox>,
    /// Write buffer: drained outbox bytes not yet accepted by the
    /// socket.
    wr: Vec<u8>,
    wr_pos: usize,
    session: Session,
    /// True while this connection's worker thread is in flight.
    busy: Arc<AtomicBool>,
    read_eof: bool,
    /// Read error or worker-spawn failure: drop once drained.
    dead: bool,
    /// This connection sent `shutdown`; the loop exits once its
    /// acknowledgment is flushed.
    initiated_shutdown: bool,
}

impl Conn {
    fn new(stream: ChaosStream, max_line: usize) -> Conn {
        Conn {
            stream,
            accum: LineAccum::new(max_line),
            pending: VecDeque::new(),
            outbox: Outbox::new(),
            wr: Vec::new(),
            wr_pos: 0,
            session: Session::new(),
            busy: Arc::new(AtomicBool::new(false)),
            read_eof: false,
            dead: false,
            initiated_shutdown: false,
        }
    }

    fn has_unwritten(&self) -> bool {
        self.wr_pos < self.wr.len() || !self.outbox.is_empty()
    }

    /// Everything parsed, dispatched, and flushed?
    fn finished(&self) -> bool {
        (self.read_eof || self.dead)
            && !self.busy.load(Ordering::SeqCst)
            && self.pending.is_empty()
            && !self.has_unwritten()
    }
}

fn line_bytes(j: &Json) -> Vec<u8> {
    let mut v = j.to_string().into_bytes();
    v.push(b'\n');
    v
}

/// Reads as much as the socket offers. Returns true on progress.
fn pump_read(conn: &mut Conn) -> bool {
    let mut progressed = false;
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_eof = true;
                if let Some(tail) = conn.accum.finish() {
                    match tail {
                        LineRead::Line(l) => conn.pending.push_back(Pending::Line(l)),
                        LineRead::Oversized { length } => {
                            conn.pending.push_back(Pending::Oversized(length))
                        }
                        LineRead::Eof => {}
                    }
                }
                return true;
            }
            Ok(n) => {
                progressed = true;
                for line in conn.accum.feed(&buf[..n]) {
                    match line {
                        LineRead::Line(l) => conn.pending.push_back(Pending::Line(l)),
                        LineRead::Oversized { length } => {
                            conn.pending.push_back(Pending::Oversized(length))
                        }
                        LineRead::Eof => {}
                    }
                }
                // Don't monopolize the loop on one chatty peer.
                if conn.pending.len() >= 256 {
                    return true;
                }
            }
            Err(e) if e.kind() == IoKind::WouldBlock => return progressed,
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                conn.read_eof = true;
                return true;
            }
        }
    }
}

/// Writes as much of the buffered output as the socket accepts.
/// Returns true on progress.
fn pump_write(conn: &mut Conn) -> bool {
    let mut progressed = false;
    loop {
        if conn.wr_pos == conn.wr.len() {
            conn.wr.clear();
            conn.wr_pos = 0;
            conn.outbox.drain_into(&mut conn.wr, OUTBOX_HIGH_WATERMARK);
            if conn.wr.is_empty() {
                return progressed;
            }
        }
        match conn.stream.write(&conn.wr[conn.wr_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return true;
            }
            Ok(n) => {
                conn.wr_pos += n;
                progressed = true;
            }
            Err(e) if e.kind() == IoKind::WouldBlock => return progressed,
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }
}

/// Dispatches buffered lines in order until a heavy op takes the
/// connection's worker slot, the outbox passes the watermark, or the
/// buffer runs dry. Returns true if the whole server should shut
/// down once this connection's output is flushed.
fn dispatch_pending(state: &Arc<ServeState>, conn: &mut Conn) -> bool {
    while !conn.busy.load(Ordering::SeqCst)
        && !conn.dead
        && conn.outbox.bytes() < OUTBOX_HIGH_WATERMARK
    {
        let item = match conn.pending.pop_front() {
            Some(p) => p,
            None => return false,
        };
        match item {
            Pending::Oversized(length) => {
                state.note_request();
                conn.outbox.push(line_bytes(&state.oversized(length)));
            }
            Pending::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                state.note_request();
                match parse_request(&line) {
                    Err(e) => {
                        let resp = crate::protocol::Response::Error {
                            id: lenient_id(&line),
                            err: e,
                        }
                        .to_json();
                        conn.outbox.push(line_bytes(&resp));
                    }
                    Ok(req) => match req.op {
                        Op::Run(_) | Op::Batch(_) | Op::Cursor { .. } => {
                            conn.busy.store(true, Ordering::SeqCst);
                            let state = Arc::clone(state);
                            let version = conn.session.version();
                            let outbox = Arc::clone(&conn.outbox);
                            let busy = Arc::clone(&conn.busy);
                            let spawned = std::thread::Builder::new()
                                .name("serve-worker".to_string())
                                .spawn(move || {
                                    let mut slot = WorkerSlot {
                                        busy,
                                        outbox: Arc::clone(&outbox),
                                        completed: false,
                                    };
                                    dispatch_heavy(&state, version, req, &mut |j| {
                                        outbox.push(line_bytes(&j));
                                    });
                                    slot.completed = true;
                                });
                            if let Err(e) = spawned {
                                conn.busy.store(false, Ordering::SeqCst);
                                let resp = crate::protocol::Response::Error {
                                    id: None,
                                    err: crate::protocol::ProtocolError::new(
                                        crate::protocol::ErrorKind::Internal,
                                        format!("spawning worker: {e}"),
                                    ),
                                }
                                .to_json();
                                conn.outbox.push(line_bytes(&resp));
                            }
                            // One heavy op in flight per connection:
                            // later lines wait so responses stay in
                            // request order.
                            return false;
                        }
                        _ => {
                            let mut sess = conn.session;
                            let outbox = Arc::clone(&conn.outbox);
                            let shutdown = state.handle_request(&mut sess, req, &mut |j| {
                                outbox.push(line_bytes(&j));
                            });
                            conn.session = sess;
                            if shutdown {
                                conn.initiated_shutdown = true;
                                return true;
                            }
                        }
                    },
                }
            }
        }
    }
    false
}

/// Serves `listener` with the nonblocking event loop until a client
/// requests an orderly shutdown (its acknowledgment is flushed before
/// the loop returns) or the listener dies.
pub fn serve_poll(state: &Arc<ServeState>, listener: TcpListener) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut conns: Vec<Conn> = Vec::new();
    let mut shutting_down = false;
    let counters = state.chaos_counters();
    let mut next_conn: u64 = 0;

    loop {
        let mut progressed = false;

        // Accept every waiting connection (unless winding down).
        if !shutting_down {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let id = next_conn;
                        next_conn += 1;
                        // Snapshot the plan per accept: each
                        // connection's fault schedule is pinned for
                        // its lifetime.
                        let plan = state.chaos_plan();
                        if plan.refuse_accept(id) {
                            counters.refusals.fetch_add(1, Ordering::Relaxed);
                            drop(stream); // injected accept refusal
                            progressed = true;
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let stream = ChaosStream::new(stream, plan, id, Arc::clone(&counters));
                        conns.push(Conn::new(stream, state.options().max_line));
                        progressed = true;
                    }
                    Err(e) if e.kind() == IoKind::WouldBlock => break,
                    Err(e) if e.kind() == IoKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        for conn in conns.iter_mut() {
            // Write first: frees outbox space, unblocks workers.
            progressed |= pump_write(conn);
            // Read only while the peer's output is keeping up.
            if !conn.read_eof && !conn.dead && conn.outbox.bytes() < OUTBOX_HIGH_WATERMARK {
                progressed |= pump_read(conn);
            }
            // Load shedding: a peer that pipelines past its op budget
            // gets the newest overflow answered `overloaded` (with a
            // retry hint) instead of growing unbounded server state.
            while conn.pending.len() > state.options().op_budget {
                match conn.pending.pop_back() {
                    Some(Pending::Line(line)) => {
                        state.note_request();
                        conn.outbox.push(line_bytes(&state.shed_response(&line)));
                        progressed = true;
                    }
                    Some(Pending::Oversized(length)) => {
                        // Answering oversized is already O(1); no need
                        // to reclassify it as overload.
                        state.note_request();
                        conn.outbox.push(line_bytes(&state.oversized(length)));
                        progressed = true;
                    }
                    None => break,
                }
            }
            if !conn.pending.is_empty() {
                let had = conn.pending.len();
                if dispatch_pending(state, conn) {
                    shutting_down = true;
                }
                progressed |= conn.pending.len() != had;
            }
            progressed |= pump_write(conn);
        }

        if shutting_down {
            // The shutdown acknowledgment must reach its peer; other
            // connections are torn down.
            let mut acked = true;
            for conn in conns.iter_mut() {
                if conn.initiated_shutdown && !conn.dead {
                    progressed |= pump_write(conn);
                    acked &= !conn.has_unwritten();
                }
            }
            if acked {
                for conn in conns.iter() {
                    conn.outbox.close();
                }
                return Ok(());
            }
        }

        conns.retain(|c| {
            let done = c.finished() || (c.dead && !c.busy.load(Ordering::SeqCst));
            if done {
                c.outbox.close();
            }
            !done
        });

        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
}
