//! Concurrency and crash-recovery contract of the serving layer.
//!
//! * Dogpile breaking: N clients racing on overlapping jobs produce
//!   exactly one simulation per unique cell key — proven at the store
//!   layer with an instrumented compute, and at the server layer with
//!   threaded connections sharing one [`ServeState`].
//! * Crash recovery: a server killed mid-study by the
//!   `SERVE_KILL_AFTER_RECORDS` hook (the same lever `paper_run
//!   --cache` resumes from) restarts over a valid store; a torn final
//!   entry is dropped and healed per shard (the store's crash
//!   contract), and the surviving prefix serves as cache hits —
//!   byte-identical, across the process boundary, to a fresh run.
//! * Wakeups: the poll loop blocks in `poll(2)` with no timeout, so a
//!   lost wakeup would hang a client forever. Each wakeup path — a
//!   worker releasing its slot, a socket turning readable after an
//!   idle spell, a slow reader draining a stream over the outbox
//!   watermark — is driven by a client with a 10 s read timeout, so a
//!   lost wakeup fails the test instead of hanging it.
//! * Dead peers: a client that vanishes while its worker is blocked on
//!   a full outbox must free that worker and leave the loop idle in
//!   `poll(2)`; the server binary's own CPU ticks and its `health`
//!   counter are checked against a deadline, so a livelock fails the
//!   test instead of hanging it.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_serve::store::{cell_key, ResultStore};
use cluster_serve::{
    scan_store_dir, serve_connection, serve_poll, ServeClient, ServeOptions, ServeState, Session,
    KILL_EXIT_CODE,
};
use cluster_study::parallel::RunStatus;
use cluster_study::run_cell;
use cluster_study::JournalEntry;
use coherence::config::CacheSpec;
use simcore::Json;
use splash::ProblemSize;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("serve-concurrency-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Every shard journal file in a store directory.
fn shard_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".jsonl"))
        })
        .collect();
    out.sort();
    out
}

fn drive(state: &ServeState, input: &str) -> Vec<Json> {
    let mut r = std::io::Cursor::new(input.as_bytes().to_vec());
    let mut out: Vec<u8> = Vec::new();
    serve_connection(state, &mut r, &mut out).expect("in-memory transport");
    String::from_utf8(out)
        .expect("UTF-8 responses")
        .lines()
        .map(|l| simcore::json::parse(l).expect("response parses"))
        .collect()
}

fn sample_cell(cluster: u32) -> JournalEntry {
    let trace = splash::by_name("lu", ProblemSize::Small)
        .expect("registry")
        .generate(4);
    JournalEntry {
        app: "lu".to_string(),
        cache: "inf".to_string(),
        cluster,
        stats: run_cell(&trace, cluster, CacheSpec::Infinite, None)
            .unwrap()
            .0,
        wall: None,
        status: RunStatus::Ok,
        attempts: 1,
        sampling: None,
    }
}

#[test]
fn racing_clients_simulate_each_unique_key_exactly_once() {
    let dir = tmp_dir("dogpile-store");
    let store = ResultStore::open(&dir).expect("open");
    let computes = AtomicUsize::new(0);
    let key = cell_key("lu", "small", 4, "inf", 2);
    const CLIENTS: usize = 8;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let (cell, _) = store
                    .serve_cell(&key, "small", 4, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Hold the flight open long enough that every
                        // other client arrives while it is in progress.
                        std::thread::sleep(Duration::from_millis(50));
                        sample_cell(2)
                    })
                    .expect("serve");
                assert_eq!(cell.cluster, 2);
            });
        }
    });
    assert_eq!(
        computes.load(Ordering::SeqCst),
        1,
        "one simulation per unique key, no dogpile"
    );
    let c = store.counters();
    assert_eq!((c.hits, c.misses, c.entries), (CLIENTS as u64 - 1, 1, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overlapping_server_connections_share_one_simulation_per_cell() {
    let dir = tmp_dir("dogpile-server");
    let st = ServeState::new(
        ResultStore::open(&dir).expect("open"),
        ServeOptions {
            jobs: 2,
            max_line: 1 << 16,
            queue: 8,
            op_budget: 256,
        },
    );
    // Three clients, overlapping matrices. The union covers 4 unique
    // cells: (inf,1) (inf,2) (4k,1) (4k,2).
    let reqs = [
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"procs\":4,\"caches\":[\"inf\",\"4k\"],\"clusters\":[1,2]}}\n",
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"procs\":4,\"caches\":[\"inf\"],\"clusters\":[1,2]}}\n",
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"procs\":4,\"caches\":[\"4k\"],\"clusters\":[1,2]}}\n",
    ];
    let responses: Vec<Vec<Json>> = std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .iter()
            .map(|req| scope.spawn(|| drive(&st, req)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for resps in &responses {
        assert_eq!(resps[0].get("ok").and_then(Json::as_bool), Some(true));
    }
    let c = st.store().counters();
    assert_eq!(c.misses, 4, "exactly one simulation per unique cell");
    assert_eq!(c.entries, 4);
    assert_eq!(c.hits + c.misses, 8, "every requested cell was served");
    // Same cell, different connections: byte-identical stats.
    let stats_of = |resps: &Vec<Json>, cache: &str, cluster: u64| -> String {
        resps[0]
            .get("cells")
            .and_then(Json::as_arr)
            .expect("cells")
            .iter()
            .find(|cell| {
                cell.get("cache").and_then(Json::as_str) == Some(cache)
                    && cell.get("cluster").and_then(Json::as_u64) == Some(cluster)
            })
            .expect("cell present")
            .get("stats")
            .expect("stats")
            .to_string()
    };
    assert_eq!(
        stats_of(&responses[0], "inf", 1),
        stats_of(&responses[1], "inf", 1)
    );
    assert_eq!(
        stats_of(&responses[0], "4k", 2),
        stats_of(&responses[2], "4k", 2)
    );
    std::fs::remove_dir_all(&dir).ok();
}

const RUN_REQ: &str = "{\"op\":\"run\",\"id\":1,\"spec\":{\"app\":\"lu\",\"procs\":4,\"caches\":[\"inf\",\"4k\"],\"clusters\":[1,2]}}\n";

fn serve_binary(
    store: &std::path::Path,
    input: &str,
    kill_after: Option<usize>,
) -> (Vec<Json>, Option<i32>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cluster_serve"));
    cmd.arg("--store")
        .arg(store)
        .arg("--jobs")
        .arg("1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match kill_after {
        Some(n) => cmd.env("SERVE_KILL_AFTER_RECORDS", n.to_string()),
        None => cmd.env_remove("SERVE_KILL_AFTER_RECORDS"),
    };
    let mut child = cmd.spawn().expect("spawn cluster_serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write requests");
    // stdin drops here: EOF ends the connection unless the kill fires.
    let out = child.wait_with_output().expect("wait");
    let responses = String::from_utf8(out.stdout)
        .expect("UTF-8 responses")
        .lines()
        .map(|l| simcore::json::parse(l).expect("response parses"))
        .collect();
    (responses, out.status.code())
}

#[test]
fn killed_server_restarts_with_a_valid_store_and_serves_the_prefix() {
    let dir = tmp_dir("kill-restart");

    // Phase 1: the kill hook fires on the 2nd store append, so the
    // child dies mid-request with the distinct crash exit code and no
    // run response on the wire.
    let (responses, code) = serve_binary(&dir, RUN_REQ, Some(2));
    assert_eq!(code, Some(KILL_EXIT_CODE), "crash hook exit code");
    assert!(
        responses.is_empty(),
        "killed mid-run, the response never flushed: {responses:?}"
    );

    // The sharded store is a valid prefix: exactly the 2 cells that
    // were appended before the kill (--jobs 1 appends in request
    // order: inf/1 then inf/2, each routed to its own shard).
    let (entries, torn) = scan_store_dir(&dir).expect("store strict-parses");
    assert!(!torn);
    assert_eq!(entries.len(), 2);
    let mut cells: Vec<(String, u32)> = entries
        .iter()
        .map(|e| (e.cell.cache.clone(), e.cell.cluster))
        .collect();
    cells.sort();
    assert_eq!(
        cells,
        vec![("inf".to_string(), 1), ("inf".to_string(), 2)],
        "the surviving prefix is the first two appends"
    );

    // Phase 2: tear the final entry of a shard that holds one, as a
    // kill landing mid-write(2) would. The restarted server must drop
    // and heal exactly that line — the store's crash contract, per
    // shard.
    let torn_shard = shard_files(&dir)
        .into_iter()
        .find(|p| {
            std::fs::read_to_string(p)
                .expect("read shard")
                .lines()
                .count()
                > 1
        })
        .expect("some shard holds an entry");
    let text = std::fs::read_to_string(&torn_shard).expect("read shard");
    let torn_text = format!("{text}{{\"store_key\":\"feedface\",\"si");
    std::fs::write(&torn_shard, &torn_text).expect("tear");

    // Phase 3: restart over the damaged store and resubmit. The two
    // surviving cells are cache hits; the rest simulate.
    let (responses, code) = serve_binary(
        &dir,
        &format!("{RUN_REQ}{}", "{\"op\":\"shutdown\"}\n"),
        None,
    );
    assert_eq!(code, Some(0));
    assert_eq!(responses.len(), 2, "run response + shutdown ack");
    let run = &responses[0];
    assert_eq!(run.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(run.get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(run.get("sims").and_then(Json::as_u64), Some(2));
    let cells = run.get("cells").and_then(Json::as_arr).expect("cells");
    let hit_of = |cache: &str, cluster: u64| {
        cells
            .iter()
            .find(|c| {
                c.get("cache").and_then(Json::as_str) == Some(cache)
                    && c.get("cluster").and_then(Json::as_u64) == Some(cluster)
            })
            .expect("cell")
            .get("cache_hit")
            .and_then(Json::as_bool)
            .expect("cache_hit")
    };
    assert!(
        hit_of("inf", 1) && hit_of("inf", 2),
        "journaled prefix hits"
    );
    assert!(
        !hit_of("4k", 1) && !hit_of("4k", 2),
        "lost cells re-simulate"
    );

    // The heal removed the torn fragment durably, from every shard.
    for shard in shard_files(&dir) {
        let healed = std::fs::read_to_string(&shard).expect("shard file");
        assert!(!healed.contains("feedface"), "{}", shard.display());
    }
    let (entries, torn) = scan_store_dir(&dir).expect("healed store strict-parses");
    assert!(!torn);
    assert_eq!(entries.len(), 4, "full matrix recorded after restart");

    // Phase 4: the end-to-end determinism proof across the process
    // boundary — every cell the restarted binary served (two from
    // cache, two fresh) is byte-identical to an uncached in-process
    // run of the same spec.
    let fresh_dir = tmp_dir("kill-restart-fresh");
    let st = ServeState::new(
        ResultStore::open(&fresh_dir).expect("open"),
        ServeOptions {
            jobs: 1,
            max_line: 1 << 16,
            queue: 1,
            op_budget: 256,
        },
    );
    let fresh = drive(&st, RUN_REQ);
    let fresh_cells = fresh[0].get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(fresh_cells.len(), cells.len());
    for (a, b) in fresh_cells.iter().zip(cells) {
        assert_eq!(
            a.get("stats").map(Json::to_string),
            b.get("stats").map(Json::to_string),
            "cache-vs-fresh byte identity across processes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}

/// Boots the poll loop over a fresh store on an ephemeral port;
/// returns the address and the loop's join handle.
fn start_poll_server(
    dir: &std::path::Path,
    op_budget: usize,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    start_poll_state(poll_state(dir, op_budget))
}

fn poll_state(dir: &std::path::Path, op_budget: usize) -> Arc<ServeState> {
    Arc::new(ServeState::new(
        ResultStore::open(dir).expect("open store"),
        ServeOptions {
            jobs: 1,
            max_line: 1 << 16,
            queue: 8,
            op_budget,
        },
    ))
}

/// Boots the poll loop over `state` on an ephemeral port.
fn start_poll_state(
    state: Arc<ServeState>,
) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || serve_poll(&state, listener));
    (addr, handle)
}

/// A raw connection whose reads give up after 10 s: a lost wakeup
/// surfaces as a read error, not a hung test.
fn raw_client(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .expect("response within the read timeout (a lost wakeup?)");
    assert!(n > 0, "early EOF");
    simcore::json::parse(line.trim_end()).expect("response parses")
}

fn stop_poll_server(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    ServeClient::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join().expect("join").expect("clean exit");
}

#[test]
fn pipelined_runs_behind_a_busy_slot_are_all_answered_in_order() {
    let dir = tmp_dir("wake-slot");
    let (addr, handle) = start_poll_server(&dir, 256);
    let (mut stream, mut reader) = raw_client(&addr);
    // Three cold runs and a ping in one write: runs 2 and 3 and the
    // ping wait behind run 1's worker slot, so only the worker's
    // wake after releasing the slot gets them dispatched.
    let mut burst = String::new();
    for (id, cluster) in [(1, 1), (2, 2), (3, 4)] {
        burst.push_str(&format!(
            "{{\"op\":\"run\",\"id\":{id},\"spec\":{{\"app\":\"lu\",\"procs\":4,\"caches\":[\"inf\"],\"clusters\":[{cluster}]}}}}\n"
        ));
    }
    burst.push_str("{\"op\":\"ping\",\"id\":4}\n");
    stream.write_all(burst.as_bytes()).expect("burst write");
    for (id, op) in [(1, "run"), (2, "run"), (3, "run"), (4, "ping")] {
        let j = read_json(&mut reader);
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(id), "{j}");
        assert_eq!(j.get("op").and_then(Json::as_str), Some(op), "{j}");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{j}");
        if op == "run" {
            assert_eq!(j.get("sims").and_then(Json::as_u64), Some(1), "cold: {j}");
        }
    }
    drop(reader);
    drop(stream);
    stop_poll_server(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

fn run_line(id: u64, app: &str, procs: usize, clusters: &str) -> String {
    format!(
        "{{\"op\":\"run\",\"id\":{id},\"spec\":{{\"app\":\"{app}\",\"procs\":{procs},\"caches\":[\"inf\",\"4k\"],\"clusters\":[{clusters}]}}}}"
    )
}

/// Reads one response line as the exact bytes the server sent.
fn read_raw(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .expect("response within the read timeout (a lost wakeup?)");
    assert!(n > 0, "early EOF");
    line.trim_end().to_string()
}

/// The event loop answers a fully cached `run` on its own thread. Its
/// lines must be the bytes `handle_line_session` gives for the same
/// request on a v1 and a v2 session. A partly cached spec must go to
/// the worker, which looks the trace up and counts each cell once,
/// and lines pipelined behind a slow uncached run keep their order.
#[test]
fn cached_runs_on_the_loop_thread_match_the_session_path() {
    let dir = tmp_dir("loop-cached");
    let state = poll_state(&dir, 256);
    let (addr, handle) = start_poll_state(Arc::clone(&state));
    let hello = "{\"op\":\"hello\",\"id\":1,\"schema\":\"clustered-smp/serve/v2\"}";

    // Warm four cells: lu at 4 processors, both caches, clusters 1 and 2.
    let (mut v1, mut v1_reader) = raw_client(&addr);
    v1.write_all(format!("{}\n", run_line(2, "lu", 4, "1,2")).as_bytes())
        .expect("write");
    let cold = read_json(&mut v1_reader);
    assert_eq!(cold.get("sims").and_then(Json::as_u64), Some(4), "{cold}");

    // Fully cached, on a v1 and on a v2 connection.
    let (mut v2, mut v2_reader) = raw_client(&addr);
    v2.write_all(format!("{hello}\n").as_bytes())
        .expect("write");
    let hello_resp = read_raw(&mut v2_reader);
    let cached = run_line(3, "lu", 4, "1,2");
    let before = state.stats();
    v1.write_all(format!("{cached}\n").as_bytes())
        .expect("write");
    let v1_line = read_raw(&mut v1_reader);
    v2.write_all(format!("{cached}\n").as_bytes())
        .expect("write");
    let v2_line = read_raw(&mut v2_reader);
    let after = state.stats();
    assert_eq!(after.cache_hits - before.cache_hits, 8);
    assert_eq!(after.sims_run, before.sims_run);
    assert_eq!(
        after.trace_hits, before.trace_hits,
        "a fully cached run is answered without its trace"
    );

    let mut want = Vec::new();
    let mut v1_sess = Session::new();
    state.handle_line_session(&mut v1_sess, &cached, &mut |j| want.push(j.to_string()));
    let mut v2_sess = Session::new();
    state.handle_line_session(&mut v2_sess, hello, &mut |j| want.push(j.to_string()));
    state.handle_line_session(&mut v2_sess, &cached, &mut |j| want.push(j.to_string()));
    assert_eq!(want, [v1_line, hello_resp, v2_line]);

    // Partly cached: clusters 1 and 2 are stored, 4 is not.
    let before = state.stats();
    v2.write_all(format!("{}\n", run_line(4, "lu", 4, "1,2,4")).as_bytes())
        .expect("write");
    let partial = read_json(&mut v2_reader);
    assert_eq!(
        partial.get("cache_hits").and_then(Json::as_u64),
        Some(4),
        "{partial}"
    );
    assert_eq!(
        partial.get("sims").and_then(Json::as_u64),
        Some(2),
        "{partial}"
    );
    let after = state.stats();
    let hits = after.cache_hits - before.cache_hits;
    let sims = after.sims_run - before.sims_run;
    let served = after.cells_served - before.cells_served;
    assert_eq!((hits, sims), (4, 2), "each cell counts exactly once");
    assert_eq!(hits + sims, served);
    assert_eq!(served, 6);
    assert_eq!(
        after.trace_hits - before.trace_hits,
        1,
        "a partly cached run goes to the worker, which looks its trace up"
    );

    // Pipelined behind a slow uncached run: cached runs and a ping wait
    // for its worker and come back in request order.
    let mut burst = format!("{}\n", run_line(5, "fft", 8, "1,2,4,8"));
    burst.push_str(&format!("{cached}\n").replace("\"id\":3", "\"id\":6"));
    burst.push_str("{\"op\":\"ping\",\"id\":7}\n");
    burst.push_str(&format!("{}\n", run_line(8, "lu", 4, "1,2,4")));
    v1.write_all(burst.as_bytes()).expect("burst write");
    for (id, sims) in [(5, Some(8)), (6, Some(0)), (7, None), (8, Some(0))] {
        let j = read_json(&mut v1_reader);
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(id), "{j}");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{j}");
        if sims.is_some() {
            assert_eq!(j.get("sims").and_then(Json::as_u64), sims, "{j}");
        }
    }

    drop((v1, v1_reader, v2, v2_reader));
    stop_poll_server(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_request_after_an_idle_spell_is_answered() {
    let dir = tmp_dir("wake-idle");
    let (addr, handle) = start_poll_server(&dir, 256);
    let (mut stream, mut reader) = raw_client(&addr);
    for id in 1..=3u64 {
        // The loop has long gone back to `poll(2)`: only the socket
        // turning readable can wake it.
        std::thread::sleep(Duration::from_millis(200));
        stream
            .write_all(format!("{{\"op\":\"ping\",\"id\":{id}}}\n").as_bytes())
            .expect("write");
        let j = read_json(&mut reader);
        assert_eq!(j.get("id").and_then(Json::as_u64), Some(id), "{j}");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{j}");
    }
    drop(reader);
    drop(stream);
    stop_poll_server(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// The slow-reader burst: a v2 `hello` and 480 pipelined cursors over
/// lu's small matrix (16 cells of about 2.4 KB at 64 processors),
/// about 19 MB of output in all: more than the loopback socket
/// buffers (about 4 MB), the write buffer and the 4 MiB outbox
/// watermark together.
const CURSORS: u64 = 480;
const CELLS: u64 = 16;

fn cursor_burst() -> String {
    let mut burst = String::from("{\"op\":\"hello\",\"schema\":\"clustered-smp/serve/v2\"}\n");
    for id in 1..=CURSORS {
        burst.push_str(&format!(
            "{{\"op\":\"cursor\",\"id\":{id},\"spec\":{{\"app\":\"lu\",\"size\":\"small\",\"procs\":64}}}}\n"
        ));
    }
    burst
}

/// Waits, while the burst's client reads nothing, until the worker
/// has stalled on the outbox watermark: 200 ms, then until the served
/// cell count stops moving, which must be short of the whole burst.
fn wait_for_watermark_stall(addr: &str) {
    std::thread::sleep(Duration::from_millis(200));
    let mut probe = ServeClient::connect(addr).expect("probe connect");
    let served = |probe: &mut ServeClient| {
        probe
            .stats()
            .expect("stats")
            .get("cells_served")
            .and_then(Json::as_u64)
            .expect("cells_served")
    };
    let mut last = served(&mut probe);
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(100));
        let now = served(&mut probe);
        if now == last {
            break;
        }
        last = now;
    }
    assert!(
        last < CURSORS * CELLS,
        "the worker must stall on the watermark ({last} cells served)"
    );
}

#[test]
fn a_slow_reader_receives_every_cursor_line() {
    // While the client reads nothing the worker blocks in
    // `Outbox::push`, the loop stops reading the connection, and only
    // `POLLOUT` can restart it.
    let dir = tmp_dir("wake-slow-reader");
    let (addr, handle) = start_poll_server(&dir, 1024);
    let (mut stream, mut reader) = raw_client(&addr);
    stream
        .write_all(cursor_burst().as_bytes())
        .expect("burst write");
    // The drain below starts with the server idle in `poll(2)` and no
    // worker wakeup left to mask a missing `POLLOUT`.
    wait_for_watermark_stall(&addr);

    let hello = read_json(&mut reader);
    assert_eq!(
        hello.get("ok").and_then(Json::as_bool),
        Some(true),
        "{hello}"
    );
    for id in 1..=CURSORS {
        let start = read_json(&mut reader);
        assert_eq!(
            start.get("op").and_then(Json::as_str),
            Some("cursor"),
            "{start}"
        );
        assert_eq!(start.get("id").and_then(Json::as_u64), Some(id), "{start}");
        assert_eq!(start.get("total").and_then(Json::as_u64), Some(CELLS));
        for seq in 0..CELLS {
            let cell = read_json(&mut reader);
            assert_eq!(
                cell.get("op").and_then(Json::as_str),
                Some("cell"),
                "{cell}"
            );
            assert_eq!(cell.get("seq").and_then(Json::as_u64), Some(seq), "{cell}");
        }
        let done = read_json(&mut reader);
        assert_eq!(done.get("op").and_then(Json::as_str), Some("cursor_done"));
        assert_eq!(done.get("cells").and_then(Json::as_u64), Some(CELLS));
        assert_eq!(done.get("failed").and_then(Json::as_u64), Some(0));
    }
    drop(reader);
    drop(stream);
    stop_poll_server(&addr, handle);
    std::fs::remove_dir_all(&dir).ok();
}

/// A `cluster_serve` child process, killed on drop so a failed
/// assertion never leaks a server.
struct ServeChild(std::process::Child);

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU time of process `pid`, in clock ticks
/// (fields 14 and 15 of `/proc/<pid>/stat`).
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read proc stat");
    // Fields restart after the parenthesized command name, at field 3.
    let after_comm = &stat[stat.rfind(')').expect("command name") + 1..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let field = |n: usize| fields[n - 3].parse::<u64>().expect("tick count");
    field(14) + field(15)
}

#[test]
#[cfg(target_os = "linux")]
fn a_peer_that_vanishes_mid_stream_frees_its_worker_and_idles_the_loop() {
    // The slow-reader burst, but the client reads nothing and then
    // closes: the socket dies while the worker is blocked in
    // `Outbox::push`.
    let dir = tmp_dir("dead-peer");
    let mut child = Command::new(env!("CARGO_BIN_EXE_cluster_serve"))
        .arg("--store")
        .arg(&dir)
        .args([
            "--jobs",
            "1",
            "--op-budget",
            "1024",
            "--listen",
            "127.0.0.1:0",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cluster_serve");
    // Held to the end: a closed pipe would fail the server's logging.
    let mut log = BufReader::new(child.stderr.take().expect("stderr"));
    let server = ServeChild(child);
    let pid = server.0.id();
    let mut addr = String::new();
    while !addr.contains("listening on") {
        addr.clear();
        let n = log.read_line(&mut addr).expect("server log");
        assert!(n > 0, "server exited before listening");
    }
    let addr = addr.trim().rsplit(' ').next().expect("address").to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(cursor_burst().as_bytes())
        .expect("burst write");
    std::thread::sleep(Duration::from_secs(1));
    wait_for_watermark_stall(&addr);
    // Unread bytes make the close a reset: the server's next write
    // to this socket fails.
    drop(stream);

    let mut probe = ServeClient::connect(&addr).expect("probe connect");
    let deadline = Instant::now() + Duration::from_secs(20);
    let active = loop {
        let active = probe
            .health()
            .expect("health")
            .get("active")
            .and_then(Json::as_u64)
            .expect("active");
        if active == 0 || Instant::now() >= deadline {
            break active;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    drop(probe);
    let before = cpu_ticks(pid);
    std::thread::sleep(Duration::from_secs(1));
    let burned = cpu_ticks(pid) - before;
    assert_eq!(
        active, 0,
        "the vanished peer's worker is still running after 20 s (the server then burned {burned} CPU ticks in 1 s)"
    );
    assert!(
        burned <= 5,
        "an idle server burned {burned} CPU ticks in 1 s"
    );
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}
