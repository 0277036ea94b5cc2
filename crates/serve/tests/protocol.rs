//! Protocol conformance suite for `cluster_serve`.
//!
//! Drives [`cluster_serve::serve_connection`] in-process over byte
//! buffers: every response-schema behavior documented in DESIGN.md
//! §12 is pinned here, and `cluster_check lint`'s schema-sync rule
//! pairs this file against `crates/serve/src/protocol.rs`, so a
//! response key the server can emit that no test reads (or vice
//! versa) fails the lint.
//!
//! The invariant under test throughout: a hostile or confused client
//! gets a *typed error response* — parse, protocol, oversized,
//! queue_full, unknown_app — and the serve loop keeps answering
//! later requests. Nothing a client writes may kill the loop.

use std::io::Cursor;
use std::path::PathBuf;

use cluster_serve::{serve_connection, ResultStore, ServeOptions, ServeState};
use simcore::Json;

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("serve-protocol-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn state(tag: &str, opts: ServeOptions) -> (ServeState, PathBuf) {
    let dir = tmp_dir(tag);
    let store = ResultStore::open(&dir).expect("open store");
    (ServeState::new(store, opts), dir)
}

fn small_opts() -> ServeOptions {
    ServeOptions {
        jobs: 2,
        max_line: 4096,
        queue: 2,
        op_budget: 256,
    }
}

/// Feeds `input` through one connection and returns the parsed
/// response lines plus the shutdown flag.
fn drive(state: &ServeState, input: &str) -> (Vec<Json>, bool) {
    let mut r = Cursor::new(input.as_bytes().to_vec());
    let mut out: Vec<u8> = Vec::new();
    let shutdown = serve_connection(state, &mut r, &mut out).expect("in-memory transport");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let responses = text
        .lines()
        .map(|l| simcore::json::parse(l).expect("every response line parses"))
        .collect();
    (responses, shutdown)
}

fn error_kind(resp: &Json) -> &str {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .expect("error responses carry error.kind")
}

fn error_detail(resp: &Json) -> &str {
    resp.get("error")
        .and_then(|e| e.get("detail"))
        .and_then(Json::as_str)
        .expect("error responses carry error.detail")
}

fn assert_ok(resp: &Json, op: &str) {
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(resp.get("op").and_then(Json::as_str), Some(op));
}

#[test]
fn malformed_json_yields_parse_error_and_loop_survives() {
    let (st, dir) = state("parse", small_opts());
    let (resps, _) = drive(&st, "{this is not json\n{\"op\":\"ping\",\"id\":7}\n");
    assert_eq!(resps.len(), 2);
    assert_eq!(error_kind(&resps[0]), "parse");
    assert!(!error_detail(&resps[0]).is_empty());
    assert_ok(&resps[1], "ping");
    assert_eq!(resps[1].get("id").and_then(Json::as_u64), Some(7));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_final_line_is_answered_not_dropped() {
    let (st, dir) = state("torn", small_opts());
    // No trailing newline: a client died mid-write. The fragment is
    // still answered (as a parse error), not silently discarded.
    let (resps, shutdown) = drive(&st, "{\"op\":\"ping\",\"id\":1}\n{\"op\":\"pi");
    assert_eq!(resps.len(), 2);
    assert_ok(&resps[0], "ping");
    assert_eq!(error_kind(&resps[1]), "parse");
    assert!(!shutdown);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_fields_and_bad_values_are_protocol_errors() {
    let (st, dir) = state("strict", small_opts());
    let cases: &[(&str, &str)] = &[
        // unknown top-level field
        ("{\"op\":\"ping\",\"extra\":1}", "extra"),
        // unknown spec field
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"bogus\":2}}",
            "bogus",
        ),
        // wrong id type
        ("{\"op\":\"ping\",\"id\":\"seven\"}", "id"),
        // run without spec
        ("{\"op\":\"run\"}", "spec"),
        // spec without app
        ("{\"op\":\"run\",\"spec\":{}}", "app"),
        // unknown size label
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"size\":\"huge\"}}",
            "huge",
        ),
        // unknown cache label
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"caches\":[\"9q\"]}}",
            "9q",
        ),
        // zero procs
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"procs\":0}}",
            "procs",
        ),
        // zero cluster size
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"clusters\":[0]}}",
            "cluster",
        ),
        // cluster size that does not tile the machine — unvalidated,
        // this would panic a simulation worker and kill the server
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"procs\":4,\"clusters\":[8]}}",
            "divide",
        ),
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"procs\":8,\"clusters\":[3]}}",
            "divide",
        ),
        // more clusters than the directory's 64-bit sharer vector
        // holds — unvalidated, this would panic the replay
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"size\":\"small\",\"procs\":128,\"caches\":[\"inf\"],\"clusters\":[1]}}",
            "exceed the directory bit vector's 64",
        ),
        // no default cluster size gives 127 procs a legal machine
        (
            "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"procs\":127}}",
            "fits 127 procs",
        ),
        // spec on a spec-less op
        ("{\"op\":\"ping\",\"spec\":{}}", "spec"),
        // non-object request
        ("[1,2,3]", "object"),
    ];
    for (line, needle) in cases {
        let (resps, _) = drive(&st, &format!("{line}\n"));
        assert_eq!(resps.len(), 1, "one response for {line}");
        assert_eq!(error_kind(&resps[0]), "protocol", "kind for {line}");
        assert!(
            error_detail(&resps[0]).contains(needle),
            "detail for {line} should mention {needle}: {}",
            error_detail(&resps[0])
        );
    }
    // An oversized list is also a protocol error, not a panic.
    let many: Vec<String> = (1..=17).map(|c| c.to_string()).collect();
    let line = format!(
        "{{\"op\":\"run\",\"spec\":{{\"app\":\"lu\",\"clusters\":[{}]}}}}",
        many.join(",")
    );
    let (resps, _) = drive(&st, &format!("{line}\n"));
    assert_eq!(error_kind(&resps[0]), "protocol");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn oversized_line_is_drained_and_later_requests_survive() {
    let (st, dir) = state("oversized", small_opts());
    let pad = "x".repeat(8192); // 2× the 4096 cap
    let input = format!("{{\"op\":\"ping\",\"pad\":\"{pad}\"}}\n{{\"op\":\"ping\",\"id\":2}}\n");
    let (resps, _) = drive(&st, &input);
    assert_eq!(resps.len(), 2);
    assert_eq!(error_kind(&resps[0]), "oversized");
    assert!(error_detail(&resps[0]).contains("cap"));
    assert_ok(&resps[1], "ping");
    assert_eq!(resps[1].get("id").and_then(Json::as_u64), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn error_responses_echo_the_request_id_when_recoverable() {
    let (st, dir) = state("echo", small_opts());
    let (resps, _) = drive(&st, "{\"op\":\"dance\",\"id\":9}\n");
    assert_eq!(resps[0].get("id").and_then(Json::as_u64), Some(9));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_app_is_a_typed_error() {
    let (st, dir) = state("unknown-app", small_opts());
    let (resps, _) = drive(
        &st,
        "{\"op\":\"run\",\"id\":3,\"spec\":{\"app\":\"no-such-app\"}}\n",
    );
    assert_eq!(error_kind(&resps[0]), "unknown_app");
    assert_eq!(resps[0].get("id").and_then(Json::as_u64), Some(3));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_queue_answers_queue_full() {
    // A zero-width queue rejects every run up front: the gate itself
    // is what's under test, single-threaded transport or not.
    let (st, dir) = state(
        "queue",
        ServeOptions {
            queue: 0,
            ..small_opts()
        },
    );
    let (resps, _) = drive(
        &st,
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}}\n{\"op\":\"ping\",\"id\":5}\n",
    );
    assert_eq!(error_kind(&resps[0]), "queue_full");
    assert_ok(&resps[1], "ping");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_stream_answers_in_order_and_run_cells_are_complete() {
    let (st, dir) = state("pipeline", small_opts());
    let input = "{\"op\":\"ping\",\"id\":1}\n\n   \n{\"op\":\"run\",\"id\":2,\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\",\"4k\"],\"clusters\":[1,2]}}\n{\"op\":\"stats\",\"id\":3}\n";
    let (resps, shutdown) = drive(&st, input);
    assert!(!shutdown);
    // Blank lines are skipped; three real requests, three responses,
    // ids echoed in order.
    assert_eq!(resps.len(), 3);
    for (i, id) in [1u64, 2, 3].iter().enumerate() {
        assert_eq!(resps[i].get("id").and_then(Json::as_u64), Some(*id));
    }
    assert_ok(&resps[0], "ping");
    assert_ok(&resps[1], "run");
    assert_eq!(resps[1].get("app").and_then(Json::as_str), Some("lu"));
    assert_eq!(resps[1].get("cache_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(resps[1].get("sims").and_then(Json::as_u64), Some(4));
    let cells = resps[1]
        .get("cells")
        .and_then(Json::as_arr)
        .expect("run responses carry cells");
    assert_eq!(cells.len(), 4);
    // caches × clusters in request order.
    let want = [("inf", 1u64), ("inf", 2), ("4k", 1), ("4k", 2)];
    for (cell, (cache, cluster)) in cells.iter().zip(want) {
        assert_eq!(cell.get("cache").and_then(Json::as_str), Some(cache));
        assert_eq!(cell.get("cluster").and_then(Json::as_u64), Some(cluster));
        assert_eq!(cell.get("cache_hit").and_then(Json::as_bool), Some(false));
        assert_eq!(cell.get("served_by").and_then(Json::as_str), Some("sim"));
        let key = cell.get("key").and_then(Json::as_str).expect("cell key");
        assert_eq!(key.len(), 32, "content address is 128-bit hex");
        let stats = cell.get("stats").expect("cell stats");
        assert!(stats.get("app").is_some(), "stats is the manifest view");
    }
    // All four cells share one generated trace.
    assert_ok(&resps[2], "stats");
    assert_eq!(resps[2].get("trace_gens").and_then(Json::as_u64), Some(1));
    assert_eq!(resps[2].get("sims_run").and_then(Json::as_u64), Some(4));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resubmission_is_served_from_cache_byte_identically() {
    let (st, dir) = state("cache-hit", small_opts());
    let run = "{\"op\":\"run\",\"id\":1,\"spec\":{\"app\":\"fft\",\"caches\":[\"inf\"],\"clusters\":[1,4]}}\n";
    let (first, _) = drive(&st, run);
    let (second, _) = drive(&st, run);
    assert_eq!(second[0].get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(second[0].get("sims").and_then(Json::as_u64), Some(0));
    let a = first[0].get("cells").and_then(Json::as_arr).expect("cells");
    let b = second[0]
        .get("cells")
        .and_then(Json::as_arr)
        .expect("cells");
    for (fresh, cached) in a.iter().zip(b) {
        assert_eq!(cached.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(
            cached.get("served_by").and_then(Json::as_str),
            Some("cache")
        );
        assert_eq!(
            fresh.get("key").and_then(Json::as_str),
            cached.get("key").and_then(Json::as_str)
        );
        // The load-bearing guarantee: the stats view of a cache hit is
        // byte-identical to the fresh simulation's.
        assert_eq!(
            fresh.get("stats").map(Json::to_string),
            cached.get("stats").map(Json::to_string)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_response_carries_every_counter() {
    let (st, dir) = state("stats", small_opts());
    drive(
        &st,
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}}\n",
    );
    drive(
        &st,
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}}\n",
    );
    let (resps, _) = drive(&st, "{\"op\":\"stats\",\"id\":42}\n");
    let s = &resps[0];
    assert_ok(s, "stats");
    for key in [
        "requests",
        "cells_served",
        "cache_hits",
        "sims_run",
        "trace_hits",
        "trace_gens",
        "store_entries",
    ] {
        assert!(
            s.get(key).and_then(Json::as_u64).is_some(),
            "stats response must carry `{key}`"
        );
    }
    assert_eq!(s.get("requests").and_then(Json::as_u64), Some(3));
    assert_eq!(s.get("cells_served").and_then(Json::as_u64), Some(2));
    assert_eq!(s.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert_eq!(s.get("sims_run").and_then(Json::as_u64), Some(1));
    // The second run is fully cached, so it is answered from the
    // result store alone and never looks its trace up: only the first
    // run's generation touches the trace store.
    assert_eq!(s.get("trace_hits").and_then(Json::as_u64), Some(0));
    assert_eq!(s.get("trace_gens").and_then(Json::as_u64), Some(1));
    assert_eq!(s.get("store_entries").and_then(Json::as_u64), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_op_is_a_typed_error_not_shutdown() {
    let (st, dir) = state("unknown-op", small_opts());
    // PR 6's parser had a catch-all `_ => Op::Shutdown`: a typo'd op
    // silently closed the connection. It is now a typed error and the
    // loop keeps serving.
    let (resps, shutdown) = drive(
        &st,
        "{\"op\":\"dance\",\"id\":4}\n{\"op\":\"ping\",\"id\":5}\n",
    );
    assert!(!shutdown, "a typo'd op must not shut the server down");
    assert!(!st.shutdown_requested());
    assert_eq!(resps.len(), 2);
    assert_eq!(error_kind(&resps[0]), "unknown_op");
    assert!(error_detail(&resps[0]).contains("dance"));
    assert_eq!(resps[0].get("id").and_then(Json::as_u64), Some(4));
    assert_ok(&resps[1], "ping");
    std::fs::remove_dir_all(&dir).ok();
}

const HELLO_V2: &str = "{\"op\":\"hello\",\"id\":1,\"schema\":\"clustered-smp/serve/v2\"}\n";

#[test]
fn hello_negotiates_v2_and_rejects_unknown_schemas() {
    let (st, dir) = state("hello", small_opts());
    let (resps, _) = drive(&st, HELLO_V2);
    assert_ok(&resps[0], "hello");
    assert_eq!(
        resps[0].get("schema").and_then(Json::as_str),
        Some("clustered-smp/serve/v2")
    );
    // Re-negotiating down to v1 also works (and is the default).
    let (resps, _) = drive(
        &st,
        "{\"op\":\"hello\",\"schema\":\"clustered-smp/serve/v1\"}\n",
    );
    assert_eq!(
        resps[0].get("schema").and_then(Json::as_str),
        Some("clustered-smp/serve/v1")
    );
    // An unknown schema is a protocol error naming the alternatives,
    // and the session stays alive at its previous version.
    let (resps, shutdown) = drive(
        &st,
        "{\"op\":\"hello\",\"schema\":\"clustered-smp/serve/v9\"}\n{\"op\":\"ping\",\"id\":2}\n",
    );
    assert!(!shutdown);
    assert_eq!(error_kind(&resps[0]), "protocol");
    assert!(error_detail(&resps[0]).contains("v9"));
    assert!(error_detail(&resps[0]).contains("clustered-smp/serve/v2"));
    assert_ok(&resps[1], "ping");
    // A hello without a schema is also a protocol error.
    let (resps, _) = drive(&st, "{\"op\":\"hello\"}\n");
    assert_eq!(error_kind(&resps[0]), "protocol");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_and_cursor_are_gated_behind_the_v2_handshake() {
    let (st, dir) = state("v2-gate", small_opts());
    let batch = "{\"op\":\"batch\",\"id\":1,\"specs\":[{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}]}\n";
    let cursor = "{\"op\":\"cursor\",\"id\":2,\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}}\n";
    for req in [batch, cursor] {
        let (resps, shutdown) = drive(&st, req);
        assert!(!shutdown);
        assert_eq!(resps.len(), 1, "gated op answers exactly one line");
        assert_eq!(error_kind(&resps[0]), "protocol");
        assert!(
            error_detail(&resps[0]).contains("hello"),
            "the error must point at the handshake: {}",
            error_detail(&resps[0])
        );
    }
    // Nothing ran: the store is untouched.
    assert_eq!(st.store().counters().entries, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_batch_serves_every_spec_in_one_response_line() {
    let (st, dir) = state("batch", small_opts());
    let input = format!(
        "{HELLO_V2}{}",
        "{\"op\":\"batch\",\"id\":2,\"specs\":[\
         {\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1,2]},\
         {\"app\":\"fft\",\"caches\":[\"inf\"],\"clusters\":[1]}]}\n"
    );
    let (resps, _) = drive(&st, &input);
    assert_eq!(resps.len(), 2, "hello ack + one batch line");
    assert_ok(&resps[1], "batch");
    let jobs = resps[1]
        .get("jobs")
        .and_then(Json::as_arr)
        .expect("batch responses carry jobs");
    assert_eq!(jobs.len(), 2, "one job per spec, in request order");
    assert_eq!(jobs[0].get("app").and_then(Json::as_str), Some("lu"));
    assert_eq!(jobs[1].get("app").and_then(Json::as_str), Some("fft"));
    assert_eq!(
        jobs[0].get("cells").and_then(Json::as_arr).map(|c| c.len()),
        Some(2)
    );
    assert_eq!(jobs[0].get("sims").and_then(Json::as_u64), Some(2));
    assert_eq!(jobs[0].get("cache_hits").and_then(Json::as_u64), Some(0));
    // An empty specs list is rejected at parse time.
    let (resps, _) = drive(
        &st,
        &format!("{HELLO_V2}{}", "{\"op\":\"batch\",\"specs\":[]}\n"),
    );
    assert_eq!(error_kind(&resps[1]), "protocol");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_cursor_streams_the_same_cells_as_a_v1_run() {
    let (st, dir) = state("cursor", small_opts());
    let spec = "{\"app\":\"lu\",\"caches\":[\"inf\",\"4k\"],\"clusters\":[1,2]}";
    // Reference: one v1 run line (fresh simulations).
    let (v1, _) = drive(
        &st,
        &format!("{{\"op\":\"run\",\"id\":1,\"spec\":{spec}}}\n"),
    );
    let run_cells = v1[0].get("cells").and_then(Json::as_arr).expect("cells");
    assert_eq!(run_cells.len(), 4);

    // v2 cursor over the same spec: start line, one line per cell in
    // request order, trailer. (Cache hits now — byte-identity of the
    // stats view is exactly the property under test.)
    let (v2, _) = drive(
        &st,
        &format!("{HELLO_V2}{{\"op\":\"cursor\",\"id\":2,\"spec\":{spec}}}\n"),
    );
    assert_eq!(v2.len(), 1 + 1 + 4 + 1, "hello + start + 4 cells + done");
    let start = &v2[1];
    assert_ok(start, "cursor");
    assert_eq!(start.get("app").and_then(Json::as_str), Some("lu"));
    assert_eq!(start.get("total").and_then(Json::as_u64), Some(4));
    for (i, (line, run_cell)) in v2[2..6].iter().zip(run_cells).enumerate() {
        assert_ok(line, "cell");
        assert_eq!(line.get("id").and_then(Json::as_u64), Some(2));
        assert_eq!(line.get("seq").and_then(Json::as_u64), Some(i as u64));
        let cell = line.get("cell").expect("cell lines carry the cell");
        // Same cell the v1 run produced, byte-identical stats.
        assert_eq!(
            cell.get("key").and_then(Json::as_str),
            run_cell.get("key").and_then(Json::as_str)
        );
        assert_eq!(
            cell.get("cache").and_then(Json::as_str),
            run_cell.get("cache").and_then(Json::as_str)
        );
        assert_eq!(
            cell.get("cluster").and_then(Json::as_u64),
            run_cell.get("cluster").and_then(Json::as_u64)
        );
        assert_eq!(
            cell.get("stats").map(Json::to_string),
            run_cell.get("stats").map(Json::to_string),
            "cursor cells must be byte-identical to v1 run cells"
        );
        assert_eq!(cell.get("cache_hit").and_then(Json::as_bool), Some(true));
        // Cursor cells carry the full journal document so clients can
        // prefill their own stores; v1 run cells do not.
        let journal = cell.get("journal").expect("cursor cells carry journal");
        assert_eq!(journal.get("app").and_then(Json::as_str), Some("lu"));
        assert!(run_cell.get("journal").is_none());
    }
    let done = &v2[6];
    assert_ok(done, "cursor_done");
    assert_eq!(done.get("cells").and_then(Json::as_u64), Some(4));
    assert_eq!(done.get("cache_hits").and_then(Json::as_u64), Some(4));
    assert_eq!(done.get("sims").and_then(Json::as_u64), Some(0));
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stats_gains_store_counters_only_after_the_v2_handshake() {
    let (st, dir) = state("stats-v2", small_opts());
    drive(
        &st,
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}}\n",
    );
    // v1 session: byte-compatible with PR 6 — no extended counters.
    let (v1, _) = drive(&st, "{\"op\":\"stats\"}\n");
    assert!(v1[0].get("store_bytes").is_none());
    assert!(v1[0].get("shards").is_none());
    assert!(v1[0].get("shed").is_none());
    // v2 session: the same counters plus store shape, eviction, and
    // the degradation ledger (shed requests, injected faults).
    let (v2, _) = drive(
        &st,
        &format!("{HELLO_V2}{}", "{\"op\":\"stats\",\"id\":2}\n"),
    );
    let s = &v2[1];
    assert_ok(s, "stats");
    for key in [
        "store_bytes",
        "evictions",
        "compactions",
        "shards",
        "shed",
        "net_faults",
        "disk_faults",
        "append_failures",
    ] {
        assert!(
            s.get(key).and_then(Json::as_u64).is_some(),
            "v2 stats must carry `{key}`"
        );
    }
    assert_eq!(s.get("shed").and_then(Json::as_u64), Some(0));
    assert_eq!(s.get("net_faults").and_then(Json::as_u64), Some(0));
    assert_eq!(s.get("disk_faults").and_then(Json::as_u64), Some(0));
    assert_eq!(s.get("append_failures").and_then(Json::as_u64), Some(0));
    assert_eq!(s.get("store_entries").and_then(Json::as_u64), Some(1));
    assert!(s.get("store_bytes").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert_eq!(s.get("evictions").and_then(Json::as_u64), Some(0));
    assert_eq!(s.get("compactions").and_then(Json::as_u64), Some(0));
    assert_eq!(s.get("shards").and_then(Json::as_u64), Some(4));
    std::fs::remove_dir_all(&dir).ok();
}

/// The v1 response shapes, pinned byte for byte: `Response::to_json`
/// must render exactly the original v1 wire lines.
#[test]
fn v1_responses_are_byte_identical_to_the_v1_wire() {
    use cluster_serve::protocol::{CellResult, ProtocolError, ServeStats};
    use cluster_serve::{ErrorKind, ProtoVersion, Response};

    assert_eq!(
        Response::Pong { id: Some(7) }.to_json().to_string(),
        "{\"id\":7,\"ok\":true,\"op\":\"ping\"}"
    );
    assert_eq!(
        Response::ShutdownAck { id: None }.to_json().to_string(),
        "{\"ok\":true,\"op\":\"shutdown\"}"
    );
    let err = ProtocolError::new(ErrorKind::Protocol, "nope");
    assert_eq!(
        Response::Error { id: Some(1), err }.to_json().to_string(),
        "{\"id\":1,\"ok\":false,\"error\":{\"kind\":\"protocol\",\"detail\":\"nope\"}}"
    );
    let cells = vec![
        CellResult::new("inf", 2, "deadbeef", Json::obj().with("app", "lu")),
        CellResult::new("4k", 4, "feedface", Json::obj().with("app", "lu")).served_from_cache(),
    ];
    assert_eq!(
        Response::Run {
            id: Some(3),
            app: "lu".to_string(),
            cells
        }
        .to_json()
        .to_string(),
        "{\"id\":3,\"ok\":true,\"op\":\"run\",\"app\":\"lu\",\"cache_hits\":1,\"sims\":1,\"cells\":[{\"cache\":\"inf\",\"cluster\":2,\"key\":\"deadbeef\",\"cache_hit\":false,\"served_by\":\"sim\",\"stats\":{\"app\":\"lu\"}},{\"cache\":\"4k\",\"cluster\":4,\"key\":\"feedface\",\"cache_hit\":true,\"served_by\":\"cache\",\"stats\":{\"app\":\"lu\"}}]}"
    );
    let stats = ServeStats {
        requests: 5,
        cells_served: 4,
        cache_hits: 1,
        sims_run: 3,
        trace_hits: 2,
        trace_gens: 2,
        store_entries: 4,
        store_bytes: 999,
        shards: 4,
        ..ServeStats::default()
    };
    assert_eq!(
        Response::Stats {
            id: Some(9),
            stats,
            version: ProtoVersion::V1
        }
        .to_json()
        .to_string(),
        "{\"id\":9,\"ok\":true,\"op\":\"stats\",\"requests\":5,\"cells_served\":4,\"cache_hits\":1,\"sims_run\":3,\"trace_hits\":2,\"trace_gens\":2,\"store_entries\":4}"
    );
}

#[test]
fn health_reports_load_and_degradation_counters() {
    let (st, dir) = state("health", small_opts());
    drive(
        &st,
        "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}}\n",
    );
    let (resps, _) = drive(&st, "{\"op\":\"health\",\"id\":6}\n");
    let h = &resps[0];
    assert_ok(h, "health");
    assert_eq!(h.get("id").and_then(Json::as_u64), Some(6));
    for key in [
        "active",
        "queue",
        "shed",
        "net_faults",
        "disk_faults",
        "append_failures",
        "store_entries",
        "store_bytes",
    ] {
        assert!(
            h.get(key).and_then(Json::as_u64).is_some(),
            "health response must carry `{key}`"
        );
    }
    assert_eq!(h.get("active").and_then(Json::as_u64), Some(0));
    assert_eq!(h.get("queue").and_then(Json::as_u64), Some(2));
    assert_eq!(h.get("shed").and_then(Json::as_u64), Some(0));
    assert_eq!(h.get("store_entries").and_then(Json::as_u64), Some(1));
    // Strictness holds for the new op too: stray fields are rejected.
    let (resps, _) = drive(&st, "{\"op\":\"health\",\"spec\":{}}\n");
    assert_eq!(error_kind(&resps[0]), "protocol");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_full_backoff_hint_is_v2_only() {
    let (st, dir) = state(
        "queue-hint",
        ServeOptions {
            queue: 0,
            ..small_opts()
        },
    );
    let run = "{\"op\":\"run\",\"spec\":{\"app\":\"lu\",\"caches\":[\"inf\"],\"clusters\":[1]}}\n";
    // v1 stays byte-compatible with PR 6: no hint field.
    let (v1, _) = drive(&st, run);
    assert_eq!(error_kind(&v1[0]), "queue_full");
    assert!(v1[0]
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .is_none());
    // v2 sessions get the additive `retry_after_ms` hint.
    let (v2, _) = drive(&st, &format!("{HELLO_V2}{run}"));
    assert_eq!(error_kind(&v2[1]), "queue_full");
    let hint = v2[1]
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_u64);
    assert!(hint.is_some_and(|ms| ms > 0), "v2 queue_full hints backoff");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cursor_from_resumes_the_stream_and_reports_skipped() {
    let (st, dir) = state("cursor-resume", small_opts());
    let spec = "{\"app\":\"lu\",\"caches\":[\"inf\",\"4k\"],\"clusters\":[1,2]}";
    // Warm the 4-cell matrix so the resumed segment is all hits.
    drive(&st, &format!("{{\"op\":\"run\",\"spec\":{spec}}}\n"));

    // A resumed cursor: skip the first two cells, stream the rest.
    let (resps, _) = drive(
        &st,
        &format!("{HELLO_V2}{{\"op\":\"cursor\",\"id\":2,\"spec\":{spec},\"from\":2}}\n"),
    );
    assert_eq!(resps.len(), 1 + 1 + 2 + 1, "hello + start + 2 cells + done");
    let start = &resps[1];
    assert_ok(start, "cursor");
    assert_eq!(
        start.get("total").and_then(Json::as_u64),
        Some(4),
        "the start line still promises the full matrix"
    );
    for (line, want_seq) in resps[2..4].iter().zip([2u64, 3]) {
        assert_ok(line, "cell");
        assert_eq!(line.get("seq").and_then(Json::as_u64), Some(want_seq));
    }
    let done = &resps[4];
    assert_ok(done, "cursor_done");
    assert_eq!(done.get("cells").and_then(Json::as_u64), Some(4));
    assert_eq!(done.get("skipped").and_then(Json::as_u64), Some(2));
    assert_eq!(done.get("cache_hits").and_then(Json::as_u64), Some(2));
    assert_eq!(done.get("sims").and_then(Json::as_u64), Some(0));
    assert_eq!(done.get("failed").and_then(Json::as_u64), Some(0));

    // `from: 0` keeps the PR 8 wire shape: no `skipped` key at all.
    let (resps, _) = drive(
        &st,
        &format!("{HELLO_V2}{{\"op\":\"cursor\",\"id\":3,\"spec\":{spec},\"from\":0}}\n"),
    );
    let done = resps.last().expect("trailer");
    assert_ok(done, "cursor_done");
    assert!(done.get("skipped").is_none(), "from 0 is byte-identical");

    // A cursor past the end of the matrix is a typed protocol error.
    let (resps, _) = drive(
        &st,
        &format!("{HELLO_V2}{{\"op\":\"cursor\",\"id\":4,\"spec\":{spec},\"from\":9}}\n"),
    );
    assert_eq!(error_kind(&resps[1]), "protocol");
    assert!(error_detail(&resps[1]).contains("from"));
    // `from` is a v2/cursor-only field.
    let (resps, _) = drive(&st, "{\"op\":\"ping\",\"from\":1}\n");
    assert_eq!(error_kind(&resps[0]), "protocol");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_acknowledges_then_closes_the_stream() {
    let (st, dir) = state("shutdown", small_opts());
    let (resps, shutdown) = drive(&st, "{\"op\":\"shutdown\",\"id\":8}\n{\"op\":\"ping\"}\n");
    assert!(shutdown, "serve_connection reports the orderly shutdown");
    assert!(st.shutdown_requested());
    assert_eq!(resps.len(), 1, "nothing is answered after the ack");
    assert_ok(&resps[0], "shutdown");
    assert_eq!(resps[0].get("id").and_then(Json::as_u64), Some(8));
    std::fs::remove_dir_all(&dir).ok();
}
