//! The serving workloads: an in-process `cluster_serve` event loop on
//! an ephemeral loopback port over a fresh result store, driven by
//! closed-loop v2 clients.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cluster_serve::{serve_poll, ResultStore, ServeClient, ServeOptions, ServeState};
use simcore::{stable_key, Json, Rng64};
use splash::ProblemSize;

use crate::trace::Tracer;
use crate::util::{scratch_dir, Ledger};
use crate::workloads::{
    cell_name, keep_going, Cell, Kind, Throughput, Workload, JOBS, PROCS, SETUP_REPEATS,
};

/// Length of one warm measurement block; throughput is the best block.
/// Host slowdowns here come and go within seconds, so many short blocks
/// give the best one a chance to be clean.
const BLOCK: Duration = Duration::from_millis(250);

/// A running event loop.
pub struct Server {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Serves `state` on 127.0.0.1 at a port the OS picks.
    pub fn start(state: &Arc<ServeState>) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("binding: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local address: {e}"))?
            .to_string();
        let state = Arc::clone(state);
        let thread = std::thread::spawn(move || serve_poll(&state, listener));
        Ok(Server { addr, thread })
    }

    /// A new v2 session.
    pub fn client(&self) -> Result<ServeClient, String> {
        let mut c = ServeClient::connect(&self.addr).map_err(|e| format!("connecting: {e}"))?;
        c.hello_v2().map_err(|e| format!("hello: {e}"))?;
        Ok(c)
    }

    /// Asks the loop to shut down and waits for it.
    pub fn stop(self) -> Result<(), String> {
        self.client()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("event loop: {e}")),
            Err(_) => Err("event loop panicked".to_string()),
        }
    }
}

/// Server state over `store`, with the benchmark's job count.
pub fn state(store: ResultStore) -> Arc<ServeState> {
    Arc::new(ServeState::new(
        store,
        ServeOptions {
            jobs: JOBS,
            ..ServeOptions::default()
        },
    ))
}

fn spec(
    w: &Workload,
    size: ProblemSize,
    app: usize,
    caches: Vec<Json>,
    clusters: Vec<Json>,
) -> Json {
    Json::obj()
        .with("app", w.apps[app])
        .with("size", cluster_serve::size_label(size))
        .with("procs", PROCS)
        .with("caches", caches)
        .with("clusters", clusters)
}

/// One app's whole `caches × clusters` matrix.
pub fn app_spec(w: &Workload, size: ProblemSize, app: usize) -> Json {
    let caches = w.caches.iter().map(|c| Json::from(c.label())).collect();
    let clusters = w.clusters.iter().map(|&c| Json::from(c)).collect();
    spec(w, size, app, caches, clusters)
}

/// One cell as a single-cache, single-cluster spec.
pub fn cell_spec(w: &Workload, size: ProblemSize, cell: &Cell) -> Json {
    spec(
        w,
        size,
        cell.app,
        vec![Json::from(cell.cache.label())],
        vec![Json::from(cell.cluster)],
    )
}

/// What a response's cells are checked against.
enum Expect<'a> {
    /// A cold pass: every cell simulated, fingerprinted as served.
    Cold,
    /// A warm pass: every cell from the store and byte-identical to
    /// its cold-pass cell.
    Warm(&'a HashMap<String, String>),
}

/// Checks the cells of one job of a `run` or `batch` response,
/// counting each in the ledger; returns `(cell id, stats document)`
/// for each.
fn check_job(
    size: ProblemSize,
    job: &Json,
    expect: &Expect,
    ledger: &Ledger,
) -> Vec<(String, String)> {
    let app = job.get("app").and_then(Json::as_str).unwrap_or("?");
    let cells = job.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    let mut out = Vec::with_capacity(cells.len());
    for c in cells {
        let id = cell_name(
            app,
            size,
            c.get("cache").and_then(Json::as_str).unwrap_or("?"),
            c.get("cluster").and_then(Json::as_u64).unwrap_or(0),
        );
        let stats = c.get("stats").map(Json::to_string).unwrap_or_default();
        let hit = c.get("cache_hit").and_then(Json::as_bool);
        match expect {
            Expect::Cold => ledger.op(
                &format!("served:{id}"),
                match hit {
                    Some(false) => Ok(stable_key(c.get("stats").unwrap_or(&Json::Null))),
                    _ => Err("cold cell not simulated".to_string()),
                },
            ),
            Expect::Warm(reference) => ledger.plain(
                &format!("warm {id}"),
                match (hit, reference.get(&id)) {
                    (Some(true), Some(r)) if *r == stats => Ok(()),
                    (Some(true), Some(_)) => Err("differs from its cold-pass cell".to_string()),
                    (Some(true), None) => Err("not served in the cold pass".to_string()),
                    _ => Err("warm cell not served from the store".to_string()),
                },
            ),
        }
        out.push((id, stats));
    }
    out
}

/// Checks a whole response: `ok`, and the expected number of cells.
fn check_response(
    size: ProblemSize,
    resp: Result<Json, String>,
    want_cells: usize,
    expect: &Expect,
    ledger: &Ledger,
) -> Vec<(String, String)> {
    let resp = match resp {
        Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => r,
        Ok(r) => {
            ledger.plain("request", Err(format!("error response {r}")));
            return Vec::new();
        }
        Err(e) => {
            ledger.plain("request", Err(e));
            return Vec::new();
        }
    };
    let cells: Vec<(String, String)> = match resp.get("jobs").and_then(Json::as_arr) {
        Some(jobs) => jobs
            .iter()
            .flat_map(|j| check_job(size, j, expect, ledger))
            .collect(),
        None => check_job(size, &resp, expect, ledger),
    };
    if cells.len() != want_cells {
        ledger.plain(
            "response",
            Err(format!("{} cells, expected {want_cells}", cells.len())),
        );
    }
    cells
}

/// A warm server and the cold-pass cells its warm answers must match.
pub struct Warm {
    server: Server,
    dir: PathBuf,
    reference: HashMap<String, String>,
}

impl Warm {
    pub fn stop(self) -> Result<(), String> {
        self.server.stop()?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("removing store: {e}"))
    }
}

/// One cold pass: a fresh store and server, and one `batch` client that
/// asks for the whole matrix, so every cell is simulated and appended.
fn cold_pass(
    w: &Workload,
    size: ProblemSize,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Result<(Warm, f64), String> {
    let dir = scratch_dir("store");
    let specs: Vec<Json> = (0..w.apps.len()).map(|a| app_spec(w, size, a)).collect();
    let (started, secs) = tracer.timed(0, "serve", "cold_pass", "", |_| {
        let store = ResultStore::open(&dir).map_err(|e| format!("opening store: {e}"))?;
        let server = Server::start(&state(store))?;
        let resp = server
            .client()
            .and_then(|mut c| c.batch(specs).map_err(|e| e.to_string()));
        Ok::<_, String>((server, resp))
    });
    let (server, resp) = started?;
    let cells = check_response(size, resp, w.cells().len(), &Expect::Cold, ledger);
    Ok((
        Warm {
            server,
            dir,
            reference: cells.into_iter().collect(),
        },
        secs,
    ))
}

/// The set-up of the serving workloads: [`SETUP_REPEATS`] cold passes,
/// each on a fresh store; the last one's server stays up, warm.
pub fn setup(
    w: &Workload,
    size: ProblemSize,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Result<(Warm, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut warm: Option<Warm> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(prev) = warm.take() {
            prev.stop()?;
        }
        let (next, secs) = cold_pass(w, size, tracer, ledger)?;
        times.push(secs);
        warm = Some(next);
    }
    Ok((warm.expect("SETUP_REPEATS is at least one"), times))
}

/// One closed-loop client: its session, its seeded order, and where it
/// is in that order.
struct Client {
    conn: ServeClient,
    rng: Rng64,
    order: Vec<usize>,
    pos: usize,
}

/// Runs short blocks of warm requests from closed-loop clients until
/// the budget is spent. `serve-batch` has one client sending the whole
/// matrix as one `batch` per request, apps in a seeded order: a batch
/// keeps the server and the client busy on the CPU, and a second client
/// would mostly measure how the host shares its two cores. `serve-run`
/// has [`JOBS`] clients sending one `run` per cell, cells in a seeded
/// order; a run request waits mostly on the event loop, so two clients
/// measure it under concurrency. Throughput is the cells served in the
/// best block over its length.
pub fn measure(
    w: &Workload,
    size: ProblemSize,
    warm: &Warm,
    budget: Duration,
    rng: &mut Rng64,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Result<Throughput, String> {
    let cells = w.cells();
    let (n_clients, per_request, units) = if w.kind == Kind::ServeBatch {
        (1, cells.len(), w.apps.len())
    } else {
        (JOBS, 1, cells.len())
    };
    let mut clients = Vec::with_capacity(n_clients);
    for _ in 0..n_clients {
        clients.push(Client {
            conn: warm.server.client()?,
            rng: rng.fork(),
            order: (0..units).collect(),
            pos: units,
        });
    }
    let expect = Expect::Warm(&warm.reference);
    let mut best = 0.0f64;
    let mut blocks = 0u32;
    let start = Instant::now();
    while keep_going(start, blocks, budget) {
        let block_start = Instant::now();
        let deadline = block_start + BLOCK.min(budget);
        let done = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .drain(..)
                .map(|mut c| {
                    let (cells, expect) = (&cells, &expect);
                    s.spawn(move || {
                        let mut served = 0usize;
                        loop {
                            let (resp, _) = if w.kind == Kind::ServeBatch {
                                c.rng.shuffle(&mut c.order);
                                let specs = c.order.iter().map(|&a| app_spec(w, size, a)).collect();
                                tracer.timed(0, "serve", "batch", "", |_| c.conn.batch(specs))
                            } else {
                                if c.pos == c.order.len() {
                                    c.rng.shuffle(&mut c.order);
                                    c.pos = 0;
                                }
                                let cell = &cells[c.order[c.pos]];
                                c.pos += 1;
                                let id = w.cell_id(size, cell);
                                let spec = cell_spec(w, size, cell);
                                tracer.timed(0, "serve", "run", &id, |_| c.conn.run(spec))
                            };
                            let resp = resp.map_err(|e| e.to_string());
                            served += check_response(size, resp, per_request, expect, ledger).len();
                            if Instant::now() >= deadline {
                                return (c, served, Instant::now());
                            }
                        }
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join()).collect::<Vec<_>>()
        });
        let mut served = 0usize;
        let mut end = block_start;
        for d in done {
            let (c, n, t) = d.map_err(|_| "client thread panicked".to_string())?;
            clients.push(c);
            served += n;
            end = end.max(t);
        }
        best = best.max(served as f64 / end.duration_since(block_start).as_secs_f64());
        blocks += 1;
    }
    Ok(Throughput {
        value: best,
        samples: blocks as usize,
    })
}
