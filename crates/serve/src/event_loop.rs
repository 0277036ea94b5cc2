//! Nonblocking poll-based TCP event loop.
//!
//! One thread owns every socket: it accepts, reads, parses, answers
//! light ops (`ping`/`stats`/`hello`/`shutdown`/errors) inline, and
//! answers a `run` inline too when every cell it asks for is already
//! in the result store. Every other heavy op (`batch`, `cursor`, a
//! `run` with a missing cell) goes to a per-connection worker thread,
//! so hundreds of idle clients cost nothing while the `run_items`
//! pool does the real work. Request order is preserved per
//! connection: at most one worker is in flight per connection, and
//! buffered lines behind it, cached `run`s included, wait their turn.
//!
//! The loop never sleeps on a timer. A pass that made no progress
//! blocks in one `poll(2)` call with no timeout, over the listener,
//! every connection the loop would read or has bytes to write, and
//! the read end of a wake pipe. Workers write a byte to that pipe
//! after queueing a response line and after releasing their slot, so
//! a finished result or a freed slot wakes the loop at once, and an
//! idle server uses no CPU.
//!
//! Backpressure is explicit in both directions. A worker that
//! produces faster than the peer drains (a `cursor` against a warm
//! store) blocks in `Outbox::push` once the connection's outbox
//! passes its high-watermark; the loop thread never blocks on a
//! peer or a worker — it simply stops reading from (and parsing
//! for) connections whose outbox is above the watermark, which in
//! turn stalls the peer's TCP window. Everything here is panic-free
//! (no-panic lint applies to this file).

use std::collections::VecDeque;
use std::ffi::{c_int, c_short};
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use simcore::Json;

use crate::chaos::ChaosStream;
use crate::protocol::{parse_request, LineAccum, LineRead, Op, Request};
use crate::server::{dispatch_heavy, lenient_id, ServeState, Session};

/// Outbox high-watermark: a worker pushing response lines blocks once
/// this many bytes are queued unwritten, and the loop stops reading
/// request bytes from the connection until it drains below it.
pub const OUTBOX_HIGH_WATERMARK: usize = 4 << 20;

/// Bytes read per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One entry of the `poll(2)` set (`struct pollfd`).
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
}

impl PollFd {
    /// An entry for `fd`; with no interest the fd is −1, which
    /// `poll(2)` skips — a hung-up peer whose worker still runs would
    /// otherwise report `POLLHUP` on every call and spin the loop.
    fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }
}

/// Blocks until some entry of `fds` is ready. No timeout: every event
/// the loop waits for is an fd, the wake pipe included. `EINTR`
/// returns as a wakeup.
fn wait_ready(fds: &mut [PollFd]) -> std::io::Result<()> {
    let nfds = NFds::try_from(fds.len())
        .map_err(|_| std::io::Error::new(IoKind::InvalidInput, "poll set too large"))?;
    // cluster_check: allow(no-unsafe) — std has no readiness wait;
    // this is one FFI call over a caller-owned `Vec<PollFd>`.
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd`s and `nfds` is exactly its length, so `poll`
    // reads and writes only inside it, and only during the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), nfds, -1) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != IoKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// The loop's wake pipe: workers write a byte to `tx`, the loop polls
/// and drains `rx`. Workers share it with the loop, so both ends stay
/// open until the last worker is gone, even after the loop returns.
struct WakePipe {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakePipe {
    fn new() -> std::io::Result<Arc<WakePipe>> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Arc::new(WakePipe { rx, tx }))
    }

    /// Makes the loop's pending or next `poll(2)` return. A full pipe
    /// (`WouldBlock`) is fine: the loop is already due to wake.
    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    fn drain(&self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => {}
                Err(e) if e.kind() == IoKind::Interrupted => {}
                _ => return,
            }
        }
    }
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
    wake: Arc<WakePipe>,
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
        // After the store: a loop woken earlier could see the slot
        // still busy, go back to `poll(2)`, and strand the lines
        // queued behind this request.
        self.wake.wake();
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
    /// The socket failed: nothing is read from or written to it
    /// again, and it is dropped once its worker ends.
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

    /// Reads only while the peer's output is keeping up.
    fn wants_read(&self) -> bool {
        !self.read_eof && !self.dead && self.outbox.bytes() < OUTBOX_HIGH_WATERMARK
    }

    /// Marks the socket failed. The outbox closes at once, so a worker
    /// blocked in [`Outbox::push`] returns and ends, and the unwritten
    /// bytes are dropped, so the loop neither retries the socket nor
    /// polls it for `POLLOUT`.
    fn kill(&mut self) {
        self.dead = true;
        self.outbox.close();
        self.wr.clear();
        self.wr_pos = 0;
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
                conn.kill();
                return true;
            }
        }
    }
}

/// Writes as much of the buffered output as the socket accepts.
/// Returns true on progress; a dead connection never makes any.
fn pump_write(conn: &mut Conn) -> bool {
    if conn.dead {
        return false;
    }
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
            Ok(n) if n > 0 => {
                conn.wr_pos += n;
                progressed = true;
            }
            Err(e) if e.kind() == IoKind::WouldBlock => return progressed,
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            _ => {
                conn.kill();
                return true;
            }
        }
    }
}

/// Hands one heavy request to a new worker thread that owns the
/// connection's worker slot until it ends.
fn spawn_worker(state: &Arc<ServeState>, conn: &mut Conn, wake: &Arc<WakePipe>, req: Request) {
    conn.busy.store(true, Ordering::SeqCst);
    let state = Arc::clone(state);
    let version = conn.session.version();
    let outbox = Arc::clone(&conn.outbox);
    let busy = Arc::clone(&conn.busy);
    let wake = Arc::clone(wake);
    let spawned = std::thread::Builder::new()
        .name("serve-worker".to_string())
        .spawn(move || {
            let mut slot = WorkerSlot {
                busy,
                outbox: Arc::clone(&outbox),
                wake: Arc::clone(&wake),
                completed: false,
            };
            dispatch_heavy(&state, version, req, &mut |j| {
                outbox.push(line_bytes(&j));
                wake.wake();
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
}

/// Dispatches buffered lines in order until a heavy op takes the
/// connection's worker slot, the outbox passes the watermark, or the
/// buffer runs dry. A `run` whose every cell is stored is answered
/// here on the loop thread; any other heavy op goes to a worker.
/// Returns true if the whole server should shut down once this
/// connection's output is flushed.
fn dispatch_pending(state: &Arc<ServeState>, conn: &mut Conn, wake: &Arc<WakePipe>) -> bool {
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
                    Ok(req) => {
                        if let Op::Run(spec) = &req.op {
                            let version = conn.session.version();
                            if let Some(resp) = state.run_cached(req.id, spec, version) {
                                conn.outbox.push(line_bytes(&resp));
                                continue;
                            }
                        }
                        match req.op {
                            Op::Run(_) | Op::Batch(_) | Op::Cursor { .. } => {
                                spawn_worker(state, conn, wake, req);
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
                        }
                    }
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
    let wake = WakePipe::new()?;
    let mut fds: Vec<PollFd> = Vec::new();
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
            if conn.wants_read() {
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
                if dispatch_pending(state, conn, &wake) {
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
            fds.clear();
            fds.push(PollFd::new(wake.rx.as_raw_fd(), POLLIN));
            let accepting = if shutting_down { 0 } else { POLLIN };
            fds.push(PollFd::new(listener.as_raw_fd(), accepting));
            for conn in &conns {
                let mut events = 0;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.wr_pos < conn.wr.len() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.get_ref().as_raw_fd(), events));
            }
            wait_ready(&mut fds)?;
            if fds[0].revents != 0 {
                wake.drain();
            }
        }
    }
}
