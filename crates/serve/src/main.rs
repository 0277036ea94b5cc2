//! `cluster_serve` — the study service binary.
//!
//! Speaks the line-delimited JSON protocol of `DESIGN.md` §12 over
//! stdin/stdout (default), a TCP listener (`--listen`, nonblocking
//! multi-client event loop), or a Unix socket (`--socket`), backed by
//! the sharded content-addressed result store in `--store DIR`.
//!
//! `SERVE_KILL_AFTER_RECORDS=N` arms the crash-injection hook: the
//! process exits with code 42 immediately after the Nth store append,
//! which the concurrency suite uses to prove restart recovery.

use std::io::BufWriter;
use std::os::unix::fs::FileTypeExt;
use std::sync::Arc;

use cluster_serve::event_loop::serve_poll;
use cluster_serve::protocol::DEFAULT_MAX_LINE;
use cluster_serve::server::{
    serve_connection, ServeOptions, ServeState, DEFAULT_OP_BUDGET, DEFAULT_QUEUE,
};
use cluster_serve::store::{KeyMode, ResultStore, StoreConfig, DEFAULT_SHARDS};
use simcore::fault::IoFaultPlan;

const USAGE: &str = "\
cluster_serve — study service with a content-addressed result cache

USAGE:
    cluster_serve --store DIR [OPTIONS]

OPTIONS:
    --store DIR            result store directory (required; created if absent)
    --shards N             journal shards for a NEW store [default: 4]
                           (an existing store keeps its on-disk shard count)
    --store-budget BYTES   evict least-recently-served cells once a shard's
                           journal exceeds its share of this budget
                           [default: unbounded]
    --jobs N               worker threads per run request [default: cores, STUDY_JOBS]
    --queue N              max concurrently executing run requests [default: 4]
    --op-budget N          per-connection pipelined-op bound; overflow is shed
                           with a typed `overloaded` response [default: 256]
    --max-line BYTES       per-request line cap [default: 1048576]
    --listen ADDR          serve a TCP listener (nonblocking event loop,
                           many concurrent clients) instead of stdin/stdout
    --socket PATH          serve a Unix socket instead of stdin/stdout
    --help                 print this help

ENVIRONMENT:
    SERVE_KILL_AFTER_RECORDS=N  exit 42 after the Nth store append (crash drill)
    STUDY_JOBS=N                default for --jobs
    SERVE_FAULT_SEED=N          seed for the deterministic chaos plan
    SERVE_FAULT_NET_RATE=P      per-I/O-call fault probability (short reads/
                                writes, EINTR/WouldBlock storms)
    SERVE_FAULT_DROP_RATE=P     per-connection mid-stream drop probability
    SERVE_FAULT_ACCEPT_RATE=P   per-connection accept-refusal probability
    SERVE_FAULT_DISK_RATE=P     per-append store fault probability
    SERVE_FAULT_DISK_KIND=K     write | fsync | torn | mix [default: mix]

One JSON request per line. Sessions start at clustered-smp/serve/v1
(one response line per request); `hello` upgrades to v2, which adds
`batch` and the streaming `cursor` op. See DESIGN.md §12.
";

struct Args {
    store: String,
    shards: usize,
    store_budget: Option<u64>,
    jobs: Option<usize>,
    queue: usize,
    op_budget: usize,
    max_line: usize,
    listen: Option<String>,
    socket: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut store = None;
    let mut shards = DEFAULT_SHARDS;
    let mut store_budget = None;
    let mut jobs = None;
    let mut queue = DEFAULT_QUEUE;
    let mut op_budget = DEFAULT_OP_BUDGET;
    let mut max_line = DEFAULT_MAX_LINE;
    let mut listen = None;
    let mut socket = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--store" => store = Some(value("--store")?),
            "--shards" => {
                shards = value("--shards")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| (1..=256).contains(&n))
                    .ok_or("--shards wants an integer in 1..=256")?
            }
            "--store-budget" => {
                store_budget = Some(
                    value("--store-budget")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--store-budget wants a positive byte count")?,
                )
            }
            "--jobs" => {
                jobs = Some(
                    value("--jobs")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or("--jobs wants a positive integer")?,
                )
            }
            "--queue" => {
                queue = value("--queue")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--queue wants a positive integer")?
            }
            "--op-budget" => {
                op_budget = value("--op-budget")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--op-budget wants a positive integer")?
            }
            "--max-line" => {
                max_line = value("--max-line")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 64)
                    .ok_or("--max-line wants an integer >= 64")?
            }
            "--listen" => listen = Some(value("--listen")?),
            "--socket" => socket = Some(value("--socket")?),
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    let store = store.ok_or("--store DIR is required (try --help)")?;
    if listen.is_some() && socket.is_some() {
        return Err("--listen and --socket are mutually exclusive".to_string());
    }
    Ok(Args {
        store,
        shards,
        store_budget,
        jobs,
        queue,
        op_budget,
        max_line,
        listen,
        socket,
    })
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let cfg = StoreConfig {
        shards: args.shards,
        byte_budget: args.store_budget,
        mode: KeyMode::Full,
    };
    let store = ResultStore::open_with_config(std::path::Path::new(&args.store), cfg)
        .map_err(|e| format!("opening store {}: {e}", args.store))?;
    if let Ok(v) = std::env::var("SERVE_KILL_AFTER_RECORDS") {
        let n = v
            .parse::<usize>()
            .map_err(|_| "SERVE_KILL_AFTER_RECORDS wants an integer".to_string())?;
        store.set_kill_after(n);
    }
    let opts = ServeOptions {
        jobs: cluster_study::resolve_jobs(args.jobs),
        max_line: args.max_line,
        queue: args.queue,
        op_budget: args.op_budget,
    };
    let state = ServeState::new(store, opts);
    let chaos = IoFaultPlan::from_env();
    if chaos.is_active() {
        state.set_chaos_plan(chaos);
        eprintln!(
            "cluster_serve: chaos plan armed (seed {}, net {}, drop {}, accept {}, disk {})",
            chaos.seed, chaos.net_rate, chaos.drop_rate, chaos.accept_rate, chaos.disk_rate
        );
    }

    if let Some(addr) = &args.listen {
        let listener =
            std::net::TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
        // Tests bind port 0; print the resolved address so they can
        // find us.
        match listener.local_addr() {
            Ok(local) => eprintln!("cluster_serve: listening on {local}"),
            Err(_) => eprintln!("cluster_serve: listening on {addr}"),
        }
        serve_poll(&Arc::new(state), listener).map_err(|e| format!("event loop: {e}"))
    } else if let Some(path) = &args.socket {
        // Clear a stale socket from an earlier run, but never delete
        // anything else that happens to sit at PATH.
        match std::fs::symlink_metadata(path) {
            Ok(meta) if meta.file_type().is_socket() => {
                std::fs::remove_file(path).map_err(|e| format!("removing {path}: {e}"))?
            }
            Ok(_) => return Err(format!("{path} exists and is not a socket")),
            Err(_) => {}
        }
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| format!("binding {path}: {e}"))?;
        eprintln!("cluster_serve: listening on {path}");
        serve_unix(&state, listener)
    } else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut r = stdin.lock();
        let mut w = BufWriter::new(stdout.lock());
        serve_connection(&state, &mut r, &mut w)
            .map(|_| ())
            .map_err(|e| format!("stdio transport: {e}"))
    }
}

/// Accepts Unix-socket connections until one requests shutdown,
/// serving them one at a time over the blocking path. TCP gets the
/// multi-client event loop; the Unix transport stays the simple
/// local-pipe escape hatch.
fn serve_unix(
    state: &ServeState,
    listener: std::os::unix::net::UnixListener,
) -> Result<(), String> {
    for conn in listener.incoming() {
        match conn {
            Ok(stream) => {
                // `&UnixStream` is duplex: shared borrows give
                // independent read and write halves.
                let mut r = std::io::BufReader::new(&stream);
                let mut w = &stream;
                match serve_connection(state, &mut r, &mut w) {
                    Ok(true) => return Ok(()),
                    Ok(false) => {}
                    Err(e) => eprintln!("cluster_serve: connection error: {e}"),
                }
            }
            Err(e) => eprintln!("cluster_serve: accept error: {e}"),
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = run(&argv) {
        if msg.is_empty() {
            print!("{USAGE}");
            return;
        }
        eprintln!("cluster_serve: {msg}");
        std::process::exit(2);
    }
}
