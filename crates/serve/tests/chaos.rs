//! Chaos suite: the serving stack under deterministic fault
//! injection.
//!
//! The torture test is the acceptance bar for the chaos layer
//! (DESIGN.md §14): a seeded sweep drives the 32-client soak workload
//! through a server with network faults (short reads/writes,
//! EINTR/WouldBlock storms, mid-stream connection drops, accept
//! refusals) *and* store faults (failed writes, failed fsyncs, torn
//! appends) armed — and every retrying client still converges on
//! results bit-identical to a fault-free run, the store reopens
//! cleanly, and the fault counters prove the faults actually fired.
//!
//! Around it: deterministic unit drills for each resilience
//! mechanism — deadlines against a stalled server, `retry_after_ms`
//! honored on `overloaded`, pipeline overflow shed with typed
//! responses, cursor resume across a mid-stream cut, store appends
//! degrading to memory-only entries that a compaction later persists,
//! and a propcheck sweep proving shard journals heal at *any* torn
//! cut point.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_serve::store::{cell_key, shard_file_name, ResultStore, StoreConfig};
use cluster_serve::{
    scan_store_dir, serve_poll, ClientConfig, ClientError, KeyMode, ServeClient, ServeOptions,
    ServeState,
};
use cluster_study::checkpoint::JournalEntry;
use cluster_study::parallel::RunStatus;
use cluster_study::run_cell;
use coherence::config::CacheSpec;
use simcore::fault::{DiskFaultKind, IoFaultPlan};
use simcore::propcheck::{self, Gen};
use simcore::{prop_ensure, prop_ensure_eq, Json};
use splash::ProblemSize;

const SPEC: &str = "{\"app\":\"lu\",\"procs\":4,\"caches\":[\"inf\",\"4k\"],\"clusters\":[1,2]}";

fn spec_json() -> Json {
    simcore::json::parse(SPEC).expect("spec literal")
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("serve-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

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

fn default_opts() -> ServeOptions {
    ServeOptions {
        jobs: 1,
        max_line: 1 << 20,
        queue: 64,
        op_budget: 256,
    }
}

/// A client policy tuned for the torture loop: tight deadlines, a
/// deep retry budget, fast seeded backoff.
fn chaos_client(seed: u64) -> ClientConfig {
    ClientConfig {
        read_timeout: Some(Duration::from_secs(10)),
        write_timeout: Some(Duration::from_secs(10)),
        retries: 12,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        seed,
    }
}

/// The stable identity of a cell: its content address plus the full
/// simulator statistics. Excludes `served_by`/`cache_hit` (warm vs
/// cold) and the journal's wall times (nondeterministic by nature).
fn cell_identity(cell: &Json) -> String {
    format!(
        "key={} stats={}",
        cell.get("key").and_then(Json::as_str).unwrap_or("?"),
        cell.get("stats").map(|j| j.to_string()).unwrap_or_default(),
    )
}

/// Collects the reference matrix (seq → cell identity) from a
/// fault-free server.
fn reference_cells() -> Vec<String> {
    let dir = tmp_dir("reference");
    let (_state, addr, handle) = start_poll_server(&dir, default_opts());
    let mut c = ServeClient::connect(&addr).expect("connect");
    c.hello_v2().expect("hello");
    let mut cells: Vec<(u64, String)> = Vec::new();
    let summary = c
        .cursor(spec_json(), |seq, cell| {
            cells.push((seq, cell_identity(cell)))
        })
        .expect("reference cursor");
    assert_eq!(summary.cells, 4);
    c.shutdown().expect("shutdown");
    handle.join().expect("join").expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
    let mut ids: Vec<String> = cells.into_iter().map(|(_, id)| id).collect();
    ids.sort();
    ids
}

#[test]
fn torture_sweep_converges_bit_identically_under_chaos() {
    let reference = reference_cells();
    assert_eq!(reference.len(), 4);

    for plan_seed in [7u64, 1984] {
        let dir = tmp_dir(&format!("torture-{plan_seed}"));
        let (state, addr, handle) = start_poll_server(&dir, default_opts());
        state.set_chaos_plan(IoFaultPlan {
            seed: plan_seed,
            net_rate: 0.05,
            drop_rate: 0.15,
            accept_rate: 0.10,
            disk_rate: 0.25,
            disk_kind: DiskFaultKind::Mix,
        });

        const CLIENTS: usize = 32;
        let addr_ref: &str = &addr;
        let reference_ref: &[String] = &reference;
        let errors: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    scope.spawn(move || -> Result<(), String> {
                        let e = |what: &str, err: ClientError| format!("client {i} {what}: {err}");
                        let mut c = ServeClient::connect_with(addr_ref, chaos_client(i as u64))
                            .map_err(|x| e("connect", x))?;
                        if i % 2 == 0 {
                            // v1 session: retried runs; validate the
                            // matrix against the reference.
                            let resp = c.run(spec_json()).map_err(|x| e("run", x))?;
                            let cells = resp
                                .get("cells")
                                .and_then(Json::as_arr)
                                .ok_or_else(|| format!("client {i}: run without cells"))?;
                            let mut got: Vec<String> = cells.iter().map(cell_identity).collect();
                            got.sort();
                            if got != reference_ref {
                                return Err(format!("client {i}: run diverged from reference"));
                            }
                        } else {
                            // v2 session: a cursor that must survive
                            // drops via resume, gapless and in order.
                            c.hello_v2().map_err(|x| e("hello", x))?;
                            let mut cells: Vec<(u64, String)> = Vec::new();
                            let summary = c
                                .cursor(spec_json(), |seq, cell| {
                                    cells.push((seq, cell_identity(cell)))
                                })
                                .map_err(|x| e("cursor", x))?;
                            let seqs: Vec<u64> = cells.iter().map(|(s, _)| *s).collect();
                            if seqs != [0, 1, 2, 3] {
                                return Err(format!("client {i}: stream seqs {seqs:?}"));
                            }
                            if summary.cells != 4 || summary.failed != 0 {
                                return Err(format!("client {i}: bad summary {summary:?}"));
                            }
                            let mut got: Vec<String> =
                                cells.into_iter().map(|(_, id)| id).collect();
                            got.sort();
                            if got != reference_ref {
                                return Err(format!("client {i}: cursor diverged from reference"));
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("client thread").err())
                .collect()
        });
        assert!(
            errors.is_empty(),
            "seed {plan_seed} torture failures:\n{}",
            errors.join("\n")
        );

        // The sweep must actually have hurt: injected faults fired.
        let injected = state.chaos_counters().total() + state.store().counters().disk_faults;
        assert!(injected > 0, "seed {plan_seed}: no faults fired");

        // Disarm before the control connection: `shutdown` is not
        // retried, so it must not be a chaos victim.
        state.set_chaos_plan(IoFaultPlan::disabled());
        let mut closer = ServeClient::connect(&addr).expect("closer");
        closer.shutdown().expect("shutdown");
        handle.join().expect("join").expect("clean exit");

        // The journal survived every torn append: a strict reopen
        // heals, and a fault-free restart over the same store still
        // serves the reference matrix.
        let (_, torn) = scan_store_dir(&dir).expect("store strict-parses");
        assert!(!torn, "seed {plan_seed}: torn tail left behind");
        let (_state2, addr2, handle2) = start_poll_server(&dir, default_opts());
        let mut c = ServeClient::connect(&addr2).expect("reconnect");
        c.hello_v2().expect("hello");
        let mut got: Vec<String> = Vec::new();
        let summary = c
            .cursor(spec_json(), |_, cell| got.push(cell_identity(cell)))
            .expect("post-chaos cursor");
        got.sort();
        assert_eq!(got, reference, "seed {plan_seed}: restart diverged");
        assert_eq!((summary.cells, summary.failed), (4, 0));
        c.shutdown().expect("shutdown");
        handle2.join().expect("join").expect("clean exit");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn deadline_turns_a_stalled_server_into_a_fast_error() {
    // A listener that accepts and then says nothing, forever.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let stall = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

    let cfg = ClientConfig {
        read_timeout: Some(Duration::from_millis(150)),
        retries: 0,
        ..ClientConfig::default()
    };
    let started = Instant::now();
    let mut c = ServeClient::connect_with(&addr, cfg).expect("connect");
    let err = c.ping().expect_err("stalled server must time out");
    assert!(
        matches!(err, ClientError::Io(_)),
        "want a transport deadline error, got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "deadline took {:?}",
        started.elapsed()
    );
    drop(stall.join().expect("stall thread").expect("accept"));
}

/// A hand-scripted server: answers the first request `overloaded`
/// (with a `retry_after_ms` hint) and the second with a pong.
fn scripted_overload_server() -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        for attempt in 0..2 {
            let mut line = String::new();
            if reader.read_line(&mut line).expect("read") == 0 {
                return; // client gave up early (retries: 0 case)
            }
            let req = simcore::json::parse(line.trim_end()).expect("request parses");
            let id = req.get("id").and_then(Json::as_u64).expect("request id");
            let resp = if attempt == 0 {
                Json::obj().with("id", id).with("ok", false).with(
                    "error",
                    Json::obj()
                        .with("kind", "overloaded")
                        .with("detail", "scripted shed")
                        .with("retry_after_ms", 5u64),
                )
            } else {
                Json::obj()
                    .with("ok", true)
                    .with("id", id)
                    .with("op", "ping")
            };
            writeln!(writer, "{resp}").expect("write");
        }
    });
    (addr, handle)
}

#[test]
fn overloaded_hint_is_retried_on_the_same_connection() {
    let (addr, handle) = scripted_overload_server();
    let cfg = ClientConfig {
        retries: 2,
        backoff_base: Duration::from_millis(1),
        ..ClientConfig::default()
    };
    let mut c = ServeClient::connect_with(&addr, cfg).expect("connect");
    c.ping().expect("retry after the overloaded hint succeeds");
    drop(c);
    handle.join().expect("scripted server");
}

#[test]
fn overloaded_error_surfaces_the_hint_when_retries_are_exhausted() {
    let (addr, handle) = scripted_overload_server();
    let cfg = ClientConfig {
        retries: 0,
        ..ClientConfig::default()
    };
    let mut c = ServeClient::connect_with(&addr, cfg).expect("connect");
    match c.ping().expect_err("no retry budget") {
        ClientError::Server {
            kind,
            retry_after_ms,
            ..
        } => {
            assert_eq!(kind, "overloaded");
            assert_eq!(retry_after_ms, Some(5));
        }
        other => panic!("want a typed overloaded error, got {other}"),
    }
    drop(c);
    handle.join().expect("scripted server");
}

#[test]
fn pipelined_overflow_is_shed_with_typed_responses() {
    let dir = tmp_dir("shed");
    let (state, addr, handle) = start_poll_server(
        &dir,
        ServeOptions {
            op_budget: 2,
            ..default_opts()
        },
    );

    // One raw connection, ten pings blasted in a single write: the
    // op budget keeps two, the other eight answer `overloaded`.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    let mut burst = String::new();
    for i in 1..=10 {
        burst.push_str(&format!("{{\"op\":\"ping\",\"id\":{i}}}\n"));
    }
    stream.write_all(burst.as_bytes()).expect("burst write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (mut pongs, mut shed) = (0u64, 0u64);
    for _ in 0..10 {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "early EOF");
        let j = simcore::json::parse(line.trim_end()).expect("response parses");
        if j.get("ok").and_then(Json::as_bool) == Some(true) {
            pongs += 1;
        } else {
            let err = j.get("error").expect("typed error");
            assert_eq!(err.get("kind").and_then(Json::as_str), Some("overloaded"));
            assert!(
                err.get("retry_after_ms").and_then(Json::as_u64).is_some(),
                "overloaded must carry a backoff hint: {j}"
            );
            assert!(j.get("id").is_some(), "shed responses echo the request id");
            shed += 1;
        }
    }
    assert_eq!(pongs + shed, 10);
    assert!(shed >= 1, "no requests were shed");
    assert!(pongs >= 2, "the op budget's worth must still be answered");
    drop(reader);
    drop(stream);

    // The `health` op accounts for the shedding.
    let mut c = ServeClient::connect(&addr).expect("connect");
    let health = c.health().expect("health");
    assert_eq!(health.get("op").and_then(Json::as_str), Some("health"));
    assert_eq!(health.get("shed").and_then(Json::as_u64), Some(shed));
    assert_eq!(state.stats().shed, shed);
    c.shutdown().expect("shutdown");
    handle.join().expect("join").expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

/// A fully scripted two-connection server proving cursor resume: the
/// first connection streams two cells and dies; the reconnect must
/// carry `from: 2`, and gets the remainder plus a trailer with
/// `skipped` set.
#[test]
fn cursor_resumes_from_the_first_unacked_seq_after_a_cut() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let hello_ok = |id: u64| {
        Json::obj()
            .with("ok", true)
            .with("id", id)
            .with("op", "hello")
            .with("schema", "clustered-smp/serve/v2")
    };
    let cell = |id: u64, seq: u64, by: &str| {
        Json::obj()
            .with("ok", true)
            .with("id", id)
            .with("op", "cell")
            .with("seq", seq)
            .with("cell", Json::obj().with("served_by", by))
    };
    let server = std::thread::spawn(move || {
        let read_req = |reader: &mut BufReader<TcpStream>| -> (Json, u64) {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read request");
            let req = simcore::json::parse(line.trim_end()).expect("request parses");
            let id = req.get("id").and_then(Json::as_u64).expect("request id");
            (req, id)
        };
        // Connection 1: handshake, then a stream cut after two cells.
        let (stream, _) = listener.accept().expect("accept 1");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut w = stream;
        let (_, id) = read_req(&mut reader);
        writeln!(w, "{}", hello_ok(id)).expect("hello 1");
        let (req, id) = read_req(&mut reader);
        assert_eq!(req.get("op").and_then(Json::as_str), Some("cursor"));
        assert!(req.get("from").is_none(), "first attempt starts at 0");
        let start = Json::obj()
            .with("ok", true)
            .with("id", id)
            .with("op", "cursor")
            .with("total", 4u64);
        writeln!(w, "{start}").expect("start 1");
        writeln!(w, "{}", cell(id, 0, "cache")).expect("cell 0");
        writeln!(w, "{}", cell(id, 1, "cache")).expect("cell 1");
        drop(w); // cut mid-stream
        drop(reader);

        // Connection 2: the resume. `from` must be the first unacked
        // seq; the segment streams the remainder only.
        let (stream, _) = listener.accept().expect("accept 2");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut w = stream;
        let (_, id) = read_req(&mut reader);
        writeln!(w, "{}", hello_ok(id)).expect("hello 2");
        let (req, id) = read_req(&mut reader);
        assert_eq!(req.get("from").and_then(Json::as_u64), Some(2));
        let start = Json::obj()
            .with("ok", true)
            .with("id", id)
            .with("op", "cursor")
            .with("total", 4u64);
        writeln!(w, "{start}").expect("start 2");
        writeln!(w, "{}", cell(id, 2, "sim")).expect("cell 2");
        writeln!(w, "{}", cell(id, 3, "sim")).expect("cell 3");
        let done = Json::obj()
            .with("ok", true)
            .with("id", id)
            .with("op", "cursor_done")
            .with("cells", 4u64)
            .with("cache_hits", 0u64)
            .with("sims", 2u64)
            .with("failed", 0u64)
            .with("skipped", 2u64);
        writeln!(w, "{done}").expect("trailer");
    });

    let cfg = ClientConfig {
        retries: 2,
        backoff_base: Duration::from_millis(1),
        ..ClientConfig::default()
    };
    let mut c = ServeClient::connect_with(&addr, cfg).expect("connect");
    c.hello_v2().expect("hello");
    let mut seqs = Vec::new();
    let summary = c
        .cursor(spec_json(), |seq, _| seqs.push(seq))
        .expect("cursor");
    assert_eq!(seqs, [0, 1, 2, 3], "gapless across the cut");
    // The merged summary spans both segments: two cells arrived
    // before the cut (cache) and two after (sim).
    assert_eq!(
        (
            summary.cells,
            summary.cache_hits,
            summary.sims,
            summary.failed
        ),
        (4, 2, 2, 0)
    );
    server.join().expect("scripted server");
}

fn sample_entry(app: &str, cluster: u32) -> JournalEntry {
    let trace = splash::by_name(app, ProblemSize::Small)
        .expect("known app")
        .generate(8);
    let stats = run_cell(&trace, cluster, CacheSpec::Infinite, None)
        .unwrap()
        .0;
    JournalEntry {
        app: app.to_string(),
        cache: CacheSpec::Infinite.label(),
        cluster,
        stats,
        wall: None,
        status: RunStatus::Ok,
        attempts: 1,
        sampling: None,
    }
}

fn plan_all_disk(kind: DiskFaultKind) -> IoFaultPlan {
    IoFaultPlan {
        seed: 1,
        disk_rate: 1.0,
        disk_kind: kind,
        ..IoFaultPlan::disabled()
    }
}

#[test]
fn disk_faults_degrade_to_memory_and_the_journal_stays_clean() {
    for (kind, survives_reopen) in [
        (DiskFaultKind::Write, false),
        (DiskFaultKind::Torn, false),
        // A failed fsync leaves the line in the file (not yet
        // durable); a clean process exit still carries it over.
        (DiskFaultKind::Fsync, true),
    ] {
        let dir = tmp_dir(&format!("degrade-{kind:?}"));
        let entry = sample_entry("lu", 2);
        let key = cell_key("lu", "small", 8, "inf", 2);
        {
            let store = ResultStore::open(&dir).expect("open");
            store.set_fault_plan(plan_all_disk(kind));
            let (cell, hit) = store
                .serve_cell(&key, "small", 8, || entry.clone())
                .expect("a failed append degrades, not errors");
            assert!(!hit);
            assert_eq!(cell.to_json().to_string(), entry.to_json().to_string());
            // The entry serves from memory despite the failed append.
            assert!(store.peek(&key).is_some(), "{kind:?}: not published");
            let c = store.counters();
            assert!(c.disk_faults >= 1, "{kind:?}: fault not counted");
            assert!(c.append_failures >= 1, "{kind:?}: failure not counted");
        }
        // Reopen heals: strict parse, no torn tail on disk.
        let (entries, torn) = scan_store_dir(&dir).expect("strict reopen");
        assert!(!torn, "{kind:?}: torn tail survived the repair");
        assert_eq!(
            entries.len(),
            usize::from(survives_reopen),
            "{kind:?}: unexpected survivors"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn compaction_persists_a_memory_only_entry() {
    let dir = tmp_dir("compact-persist");
    let entry = sample_entry("lu", 1);
    let keys: Vec<String> = (0..4)
        .map(|i| cell_key("lu", "small", 8, "inf", 1 << i))
        .collect();

    // Measure one entry line so the budget can be pitched to evict on
    // the third on-disk append.
    let line_len = {
        let probe = tmp_dir("compact-probe");
        let store = ResultStore::open(&probe).expect("open probe");
        let before = store.counters().bytes;
        store
            .record(&keys[1], "small", 8, &entry)
            .expect("probe record");
        let len = store.counters().bytes - before;
        std::fs::remove_dir_all(&probe).ok();
        len
    };

    let cfg = StoreConfig {
        shards: 1,
        byte_budget: Some(2 * line_len + line_len / 2),
        mode: KeyMode::Full,
    };
    {
        let store = ResultStore::open_with_config(&dir, cfg).expect("open");
        // keys[0] lands during a torn-append fault: memory-only.
        store.set_fault_plan(plan_all_disk(DiskFaultKind::Torn));
        store
            .record(&keys[0], "small", 8, &entry)
            .expect("degraded record");
        store.set_fault_plan(IoFaultPlan::disabled());
        // Two healthy appends, then refresh the degraded entry's
        // recency so the budget evicts the healthy ones first.
        store.record(&keys[1], "small", 8, &entry).expect("record");
        store.record(&keys[2], "small", 8, &entry).expect("record");
        let (_, hit) = store
            .serve_cell(&keys[0], "small", 8, || unreachable!("still published"))
            .expect("refresh");
        assert!(hit);
        // The third on-disk append blows the budget: evict + compact.
        store.record(&keys[3], "small", 8, &entry).expect("record");
        let c = store.counters();
        assert!(c.compactions >= 1, "budget never compacted: {c:?}");
    }
    // The compaction rewrite wrote the memory-only entry to disk: it
    // survives a restart even though its original append failed.
    let store = ResultStore::open(&dir).expect("reopen");
    assert!(
        store.peek(&keys[0]).is_some(),
        "compaction must persist the degraded entry"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: shard journals heal from a tear at *any* byte offset —
/// the recovered entry set is exactly the complete lines, across
/// every shard file and across compaction rewrites.
#[derive(Debug, Clone, PartialEq)]
struct TornCase {
    /// Entries appended before the tear.
    entries: usize,
    /// Which shard file to cut.
    shard: usize,
    /// Cut offset as a fraction (numerator over 1000) of the bytes
    /// past the header.
    frac: usize,
    /// Compact (via a budget-driven rewrite) before tearing.
    compacted: bool,
}

#[test]
fn prop_shard_journals_heal_at_any_cut_point() {
    const SHARDS: usize = 3;
    let entry = sample_entry("lu", 1);
    let entry_ref = &entry;
    propcheck::check_cases(
        24,
        "shard journals heal at any cut point",
        |g: &mut Gen| TornCase {
            entries: g.usize_in(2..9),
            shard: g.usize_in(0..SHARDS),
            frac: g.usize_in(0..1001),
            compacted: g.usize_in(0..2) == 1,
        },
        |case| {
            let mut smaller = Vec::new();
            if case.entries > 2 {
                smaller.push(TornCase {
                    entries: case.entries - 1,
                    ..case.clone()
                });
            }
            if case.shard > 0 {
                smaller.push(TornCase {
                    shard: 0,
                    ..case.clone()
                });
            }
            if case.frac > 0 {
                smaller.push(TornCase {
                    frac: case.frac / 2,
                    ..case.clone()
                });
            }
            if case.compacted {
                smaller.push(TornCase {
                    compacted: false,
                    ..case.clone()
                });
            }
            smaller
        },
        move |case| {
            let dir = std::env::temp_dir().join(format!(
                "serve-chaos-prop-{}-{}-{}-{}-{}",
                std::process::id(),
                case.entries,
                case.shard,
                case.frac,
                case.compacted
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = StoreConfig {
                shards: SHARDS,
                byte_budget: None,
                mode: KeyMode::Full,
            };
            {
                let store = ResultStore::open_with_config(&dir, cfg).map_err(|e| e.to_string())?;
                for i in 0..case.entries {
                    let key = cell_key("lu", "small", 8, "inf", i as u32);
                    store
                        .record(&key, "small", 8, entry_ref)
                        .map_err(|e| e.to_string())?;
                }
            }
            let path = dir.join(shard_file_name(case.shard));
            if case.compacted {
                // Force a rewrite through the private compaction path
                // by reopening with a generous budget and appending
                // until it trips would be indirect; instead reopen
                // and rewrite via the public surface: a reopen plus
                // re-record keeps the file byte-stable, so emulate a
                // compacted file by rewriting it from its own parsed
                // entries (header + sorted lines), the same shape
                // `rewrite_shard` produces.
                let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                let mut lines: Vec<&str> = text.lines().collect();
                let header = lines.remove(0).to_string();
                lines.sort_unstable();
                let mut body = format!("{header}\n");
                for l in lines {
                    body.push_str(l);
                    body.push('\n');
                }
                std::fs::write(&path, &body).map_err(|e| e.to_string())?;
            }
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let header_end = text.find('\n').map(|i| i + 1).unwrap_or(text.len());
            let cut = header_end + (text.len() - header_end) * case.frac / 1000;
            let kept = &text[..cut];

            // Expected survivors in this shard: its complete lines.
            let mut expect: Vec<String> = kept
                .split_inclusive('\n')
                .skip(1)
                .filter(|l| l.ends_with('\n'))
                .map(|l| {
                    simcore::json::parse(l.trim_end())
                        .ok()
                        .and_then(|j| j.get("store_key").and_then(Json::as_str).map(String::from))
                        .unwrap_or_default()
                })
                .collect();
            prop_ensure!(
                !expect.iter().any(String::is_empty),
                "a complete line failed to parse"
            );

            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .and_then(|f| f.set_len(cut as u64))
                .map_err(|e| e.to_string())?;

            // Every other shard keeps everything it had.
            for s in 0..SHARDS {
                if s == case.shard {
                    continue;
                }
                let other = std::fs::read_to_string(dir.join(shard_file_name(s)))
                    .map_err(|e| e.to_string())?;
                for l in other.lines().skip(1) {
                    let j = simcore::json::parse(l).map_err(|e| e.to_string())?;
                    if let Some(k) = j.get("store_key").and_then(Json::as_str) {
                        expect.push(k.to_string());
                    }
                }
            }
            expect.sort();

            let store = ResultStore::open(&dir)
                .map_err(|e| format!("reopen after cut at byte {cut} must heal, got: {e}"))?;
            let mut got: Vec<String> = store.entries().into_iter().map(|e| e.key).collect();
            got.sort();
            prop_ensure_eq!(got, expect, "recovered set mismatch (cut at byte {cut})");
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
            Ok(())
        },
    );
}
