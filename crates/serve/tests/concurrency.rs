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

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use cluster_serve::store::{cell_key, ResultStore};
use cluster_serve::{scan_store_dir, serve_connection, ServeOptions, ServeState, KILL_EXIT_CODE};
use cluster_study::checkpoint::JournalEntry;
use cluster_study::parallel::RunStatus;
use cluster_study::run_cell;
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
