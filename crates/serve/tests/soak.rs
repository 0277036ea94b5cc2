//! Multi-client soak of the nonblocking poll loop, and the crash
//! drill over TCP: a server killed mid-cursor restarts over a valid
//! store and finishes the stream from the surviving prefix.
//!
//! The soak's contract is the acceptance bar for the event loop:
//! ≥ 32 concurrent connections, mixed v1 and v2 sessions, and *zero*
//! dropped or interleaved response lines — every client validates
//! every response id, every cursor stream arrives strictly in
//! sequence, and every matrix comes back complete.

use std::io::BufRead;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use cluster_serve::{
    scan_store_dir, serve_poll, ResultStore, ServeClient, ServeOptions, ServeState, KILL_EXIT_CODE,
};
use simcore::Json;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("serve-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SPEC: &str = "{\"app\":\"lu\",\"procs\":4,\"caches\":[\"inf\",\"4k\"],\"clusters\":[1,2]}";

fn spec_json() -> Json {
    simcore::json::parse(SPEC).expect("spec literal")
}

/// Boots a poll-loop server on an ephemeral port; returns the state,
/// the address, and the join handle (resolved by a `shutdown` op).
fn start_poll_server(
    dir: &std::path::Path,
    opts: ServeOptions,
) -> (
    Arc<ServeState>,
    String,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let store = ResultStore::open(dir).expect("open store");
    let state = Arc::new(ServeState::new(store, opts));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let st = Arc::clone(&state);
    let handle = std::thread::spawn(move || serve_poll(&st, listener));
    (state, addr, handle)
}

#[test]
fn thirty_two_mixed_clients_soak_the_poll_loop() {
    let dir = tmp_dir("mixed");
    let (state, addr, handle) = start_poll_server(
        &dir,
        ServeOptions {
            jobs: 1,
            max_line: 1 << 20,
            queue: 64,
            op_budget: 256,
        },
    );

    // Prewarm the 4-cell matrix so the soak measures the serving
    // path, not 32× redundant simulations (single-flight would
    // collapse them anyway, but warm keeps the test fast).
    let mut warm = ServeClient::connect(&addr).expect("connect");
    let resp = warm.run(spec_json()).expect("prewarm run");
    assert_eq!(
        resp.get("cells").and_then(Json::as_arr).map(|c| c.len()),
        Some(4)
    );

    const CLIENTS: usize = 32;
    let addr_ref: &str = &addr;
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                scope.spawn(move || -> Result<(), String> {
                    let e = |what: &str, err: cluster_serve::ClientError| {
                        format!("client {i} {what}: {err}")
                    };
                    let mut c = ServeClient::connect(addr_ref).map_err(|x| e("connect", x))?;
                    c.ping().map_err(|x| e("ping", x))?;
                    if i % 2 == 0 {
                        // v1 session: plain run, full matrix, all hits.
                        let resp = c.run(spec_json()).map_err(|x| e("run", x))?;
                        let cells = resp
                            .get("cells")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| format!("client {i}: run without cells"))?;
                        if cells.len() != 4 {
                            return Err(format!("client {i}: {} cells", cells.len()));
                        }
                        if resp.get("cache_hits").and_then(Json::as_u64) != Some(4) {
                            return Err(format!("client {i}: warm run not all hits: {resp}"));
                        }
                    } else {
                        // v2 session: handshake, streamed cursor (strict
                        // sequence), then a batch.
                        c.hello_v2().map_err(|x| e("hello", x))?;
                        let mut seqs = Vec::new();
                        let summary = c
                            .cursor(spec_json(), |seq, cell| {
                                seqs.push(seq);
                                assert!(
                                    cell.get("journal").is_some(),
                                    "cursor cells carry journal"
                                );
                            })
                            .map_err(|x| e("cursor", x))?;
                        if seqs != [0, 1, 2, 3] {
                            return Err(format!("client {i}: out-of-order stream {seqs:?}"));
                        }
                        if summary.cells != 4 || summary.failed != 0 {
                            return Err(format!("client {i}: bad summary {summary:?}"));
                        }
                        let resp = c
                            .batch(vec![spec_json(), spec_json()])
                            .map_err(|x| e("batch", x))?;
                        let jobs = resp
                            .get("jobs")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| format!("client {i}: batch without jobs"))?;
                        if jobs.len() != 2 {
                            return Err(format!("client {i}: {} jobs", jobs.len()));
                        }
                    }
                    c.ping().map_err(|x| e("final ping", x))?;
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("client thread").err())
            .collect()
    });
    assert!(errors.is_empty(), "soak failures:\n{}", errors.join("\n"));

    // Only the prewarm simulated; everything else was served warm.
    assert_eq!(state.stats().sims_run, 4);

    let mut closer = ServeClient::connect(&addr).expect("connect");
    closer.shutdown().expect("shutdown");
    handle
        .join()
        .expect("event loop thread")
        .expect("event loop exits cleanly");
    std::fs::remove_dir_all(&dir).ok();
}

/// Spawns the real binary on an ephemeral TCP port, returning the
/// child, the address scraped from its stderr banner, and the stderr
/// reader — which the caller must keep alive, or the child's next
/// diagnostic write lands on a closed pipe.
fn spawn_listen_binary(
    dir: &std::path::Path,
    kill_after: Option<usize>,
) -> (
    std::process::Child,
    String,
    std::io::BufReader<std::process::ChildStderr>,
) {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cluster_serve"));
    cmd.arg("--store")
        .arg(dir)
        .arg("--jobs")
        .arg("1")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped());
    match kill_after {
        Some(n) => cmd.env("SERVE_KILL_AFTER_RECORDS", n.to_string()),
        None => cmd.env_remove("SERVE_KILL_AFTER_RECORDS"),
    };
    let mut child = cmd.spawn().expect("spawn cluster_serve");
    let stderr = child.stderr.take().expect("stderr");
    let mut reader = std::io::BufReader::new(stderr);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .rsplit(' ')
        .next()
        .expect("addr in banner")
        .to_string();
    assert!(
        addr.starts_with("127.0.0.1:"),
        "unexpected banner: {banner:?}"
    );
    (child, addr, reader)
}

#[test]
fn killed_mid_cursor_server_restarts_and_finishes_the_stream() {
    let dir = tmp_dir("kill-cursor");

    // Phase 1: the kill hook fires on the 2nd store append — mid-way
    // through a 4-cell cursor stream.
    let (mut child, addr, _stderr) = spawn_listen_binary(&dir, Some(2));
    let mut c = ServeClient::connect(&addr).expect("connect");
    c.hello_v2().expect("hello");
    let mut streamed = 0u64;
    let result = c.cursor(spec_json(), |_, _| streamed += 1);
    assert!(
        result.is_err(),
        "cursor must fail when the server dies mid-stream: {result:?}"
    );
    assert!(streamed < 4, "the stream was cut short, not completed");
    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(KILL_EXIT_CODE), "crash hook exit");

    // The store survived as a valid 2-entry prefix.
    let (entries, torn) = scan_store_dir(&dir).expect("store strict-parses");
    assert!(!torn);
    assert_eq!(entries.len(), 2, "exactly the appends before the kill");

    // Phase 2: restart over the same store. The cursor now completes:
    // the surviving prefix serves as cache hits, the lost cells
    // resimulate, and nothing failed.
    let (mut child, addr, _stderr) = spawn_listen_binary(&dir, None);
    let mut c = ServeClient::connect(&addr).expect("reconnect");
    c.hello_v2().expect("hello");
    let mut seqs = Vec::new();
    let summary = c
        .cursor(spec_json(), |seq, _| seqs.push(seq))
        .expect("cursor completes after restart");
    assert_eq!(seqs, [0, 1, 2, 3], "in-order, gapless stream");
    assert_eq!(
        (
            summary.cells,
            summary.cache_hits,
            summary.sims,
            summary.failed
        ),
        (4, 2, 2, 0),
        "prefix hits + resimulated remainder"
    );
    c.shutdown().expect("shutdown");
    // The event loop flushes the ack before exiting; give it a moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert_eq!(status.code(), Some(0), "orderly shutdown");
                break;
            }
            None if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            None => {
                let _ = child.kill();
                panic!("server did not exit after shutdown ack");
            }
        }
    }
    let (entries, torn) = scan_store_dir(&dir).expect("final store");
    assert!(!torn);
    assert_eq!(entries.len(), 4, "full matrix recorded after restart");
    std::fs::remove_dir_all(&dir).ok();
}
