//! Warm-cache serve throughput: the ROADMAP's "a speed PR that
//! doesn't measure isn't one" number for the v2 protocol redesign.
//!
//! Boots the nonblocking poll loop in-process on an ephemeral port,
//! prewarms the requested study matrix once, then measures two client
//! shapes against the same warm store:
//!
//! * **before** — one v1 client, one cell per `run` request (the
//!   blocking-era protocol: a full write/read round trip per cell);
//! * **after** — [`CLIENTS`] concurrent v2 clients, each submitting
//!   the whole matrix as a single `batch` request.
//!
//! A third pass re-runs the 32-client batch workload with a 5%
//! seeded connection-drop plan armed: the retrying client absorbs
//! the chaos, and `serve.chaos_speedup` (chaos throughput over the
//! v1 baseline) proves resilience is not paid for in warm-path
//! throughput.
//!
//! Each shape repeats its pass over one timed window (at least
//! [`WINDOW`] and [`MIN_PASSES`] passes) and reports cells served over
//! the window's elapsed time, so one scheduling stall weighs against
//! the whole window rather than one 10–15 ms pass. The v1 and v2
//! windows run as [`PAIRS`] interleaved pairs: `serve.speedup` is the
//! median of the pair ratios and each shape's rate is the median of
//! its windows, so a host stall lands in one pair, not on one side of
//! every ratio. The cells/second for each shape, and the speedups, go
//! to stdout; `--emit-manifest`/`--out` records them as manifest
//! metrics (`serve.v1_cells_per_sec`, `serve.v2_batch_cells_per_sec_32c`,
//! `serve.speedup`, `serve.chaos_cells_per_sec`, `serve.chaos_speedup`)
//! for CI to assert against.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster_bench::{Cli, Reporter};
use cluster_serve::{serve_poll, ClientConfig, ResultStore, ServeClient, ServeOptions, ServeState};
use cluster_study::apps::FIG2_APPS;
use cluster_study::study::{section5_caches, CLUSTER_SIZES};
use simcore::fault::IoFaultPlan;
use simcore::Json;

/// Concurrent v2 clients in the "after" measurement.
const CLIENTS: usize = 32;

/// Shortest timed window per client shape.
const WINDOW: Duration = Duration::from_secs(1);

/// Fewest passes per client shape, however long each pass takes.
const MIN_PASSES: u64 = 3;

/// Interleaved v1/v2 window pairs (odd, so each median is one window).
const PAIRS: usize = 3;

fn fatal(msg: &str) -> ! {
    eprintln!("serve_soak: {msg}");
    std::process::exit(2)
}

/// The per-app full-matrix spec.
fn app_spec(app: &str, size: &str, procs: usize) -> Json {
    let caches: Vec<Json> = section5_caches()
        .iter()
        .map(|c| Json::from(c.label()))
        .collect();
    let clusters: Vec<Json> = CLUSTER_SIZES
        .iter()
        .map(|&c| Json::from(u64::from(c)))
        .collect();
    Json::obj()
        .with("app", app)
        .with("size", size)
        .with("procs", procs as u64)
        .with("caches", caches)
        .with("clusters", clusters)
}

/// One cell as its own one-cache one-cluster spec (the v1 shape: a
/// client that wants per-cell results must round-trip per cell).
fn cell_specs(apps: &[&str], size: &str, procs: usize) -> Vec<Json> {
    let mut out = Vec::new();
    for &app in apps {
        for cache in section5_caches() {
            for &cluster in &CLUSTER_SIZES {
                out.push(
                    Json::obj()
                        .with("app", app)
                        .with("size", size)
                        .with("procs", procs as u64)
                        .with("caches", vec![Json::from(cache.label())])
                        .with("clusters", vec![Json::from(u64::from(cluster))]),
                );
            }
        }
    }
    out
}

fn cells_in(resp: &Json) -> u64 {
    resp.get("cells")
        .and_then(Json::as_arr)
        .map(|c| c.len() as u64)
        .unwrap_or(0)
}

/// The middle value of an odd-length sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Repeats `pass` (which serves `cells` cells) until both [`WINDOW`]
/// and [`MIN_PASSES`] have elapsed, and returns the cells served per
/// second of the whole window.
fn cells_per_sec(name: &str, cells: u64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut passes = 0u64;
    while passes < MIN_PASSES || start.elapsed() < WINDOW {
        pass();
        passes += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    let rate = (cells * passes) as f64 / secs;
    println!("{name:<44} {passes:>4} passes in {secs:.2}s  {rate:>10.0} cells/s");
    rate
}

/// One pass of [`CLIENTS`] concurrent v2 sessions, client `i`
/// configured by `config(i)`, each batching the whole matrix of
/// `specs` in one request line. Exits unless all `cells` cells are
/// served.
fn batch_pass(
    what: &str,
    addr: &str,
    specs: &[Json],
    cells: u64,
    config: impl Fn(u64) -> ClientConfig,
) {
    let served: u64 = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS as u64)
            .map(|i| {
                let cfg = config(i);
                scope.spawn(move || {
                    let mut c = ServeClient::connect_with(addr, cfg)
                        .unwrap_or_else(|e| fatal(&format!("{what} client: {e}")));
                    c.hello_v2()
                        .unwrap_or_else(|e| fatal(&format!("{what} hello: {e}")));
                    let resp = c
                        .batch(specs.to_vec())
                        .unwrap_or_else(|e| fatal(&format!("{what} batch: {e}")));
                    resp.get("jobs")
                        .and_then(Json::as_arr)
                        .map(|jobs| jobs.iter().map(cells_in).sum::<u64>())
                        .unwrap_or(0)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|_| fatal(&format!("{what} client panicked")))
            })
            .sum()
    });
    if served != cells {
        fatal(&format!("{what} pass served {served} of {cells} cells"));
    }
}

fn main() {
    let cli = Cli::parse();
    let apps: Vec<&str> = FIG2_APPS.iter().copied().filter(|a| cli.wants(a)).collect();
    if apps.is_empty() {
        fatal("--apps filtered out every application");
    }
    let size = cli.size_label();
    let total_cells = (apps.len() * section5_caches().len() * CLUSTER_SIZES.len()) as u64;
    println!(
        "serve_soak: {} apps x {} caches x {} clusters = {total_cells} cells, \
         {} procs, {size} sizes, {} jobs, {CLIENTS} v2 clients",
        apps.len(),
        section5_caches().len(),
        CLUSTER_SIZES.len(),
        cli.procs,
        cli.jobs
    );

    // The store: `--cache DIR` reuses (and leaves behind) a real
    // store; the default is a throwaway under the temp dir.
    let (store_dir, throwaway) = match &cli.cache {
        Some(dir) => (dir.clone(), false),
        None => (
            std::env::temp_dir().join(format!("serve-soak-{}", std::process::id())),
            true,
        ),
    };
    let store = ResultStore::open(&store_dir)
        .unwrap_or_else(|e| fatal(&format!("opening store {}: {e}", store_dir.display())));
    let state = Arc::new(ServeState::new(
        store,
        ServeOptions {
            jobs: cli.jobs,
            max_line: 1 << 20,
            queue: CLIENTS + 2,
            op_budget: 256,
        },
    ));
    let listener =
        TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| fatal(&format!("binding: {e}")));
    let addr = listener
        .local_addr()
        .unwrap_or_else(|e| fatal(&format!("local addr: {e}")))
        .to_string();
    let loop_state = Arc::clone(&state);
    let server = std::thread::spawn(move || serve_poll(&loop_state, listener));

    let connect_v2 = |what: &str| -> ServeClient {
        let mut c = ServeClient::connect(&addr)
            .unwrap_or_else(|e| fatal(&format!("{what}: connecting {addr}: {e}")));
        c.hello_v2()
            .unwrap_or_else(|e| fatal(&format!("{what}: hello: {e}")));
        c
    };

    // Prewarm: one v2 batch of the whole matrix simulates every cold
    // cell exactly once; the measurements below run against the warm
    // store only.
    let specs: Vec<Json> = apps.iter().map(|a| app_spec(a, size, cli.procs)).collect();
    let mut warm = connect_v2("prewarm");
    let resp = cluster_bench::timed("prewarm", || {
        warm.batch(specs.clone())
            .unwrap_or_else(|e| fatal(&format!("prewarm batch: {e}")))
    });
    let warmed: u64 = resp
        .get("jobs")
        .and_then(Json::as_arr)
        .map(|jobs| jobs.iter().map(cells_in).sum())
        .unwrap_or(0);
    if warmed != total_cells {
        fatal(&format!("prewarm served {warmed} of {total_cells} cells"));
    }

    // Before: one v1 client, one cell per request. No handshake — the
    // connection stays on the v1 compatibility surface.
    let singles = cell_specs(&apps, size, cli.procs);
    let mut v1_pass = || {
        let mut c = ServeClient::connect(&addr)
            .unwrap_or_else(|e| fatal(&format!("v1 client: connecting {addr}: {e}")));
        let mut served = 0u64;
        for spec in &singles {
            let resp = c
                .run(spec.clone())
                .unwrap_or_else(|e| fatal(&format!("v1 run: {e}")));
            served += cells_in(&resp);
        }
        if served != total_cells {
            fatal(&format!("v1 pass served {served} of {total_cells} cells"));
        }
    };
    // After: CLIENTS concurrent v2 sessions, each batching the whole
    // matrix in one request line.
    let matrix_cells = total_cells * CLIENTS as u64;
    let mut v2_pass = || {
        batch_pass("v2", &addr, &specs, matrix_cells, |_| {
            ClientConfig::default()
        })
    };
    let (mut v1_rates, mut v2_rates, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PAIRS {
        let v1 = cells_per_sec(
            "serve.v1 single-cell requests (1 client)",
            total_cells,
            &mut v1_pass,
        );
        let v2 = cells_per_sec(
            "serve.v2 whole-matrix batch (32 clients)",
            matrix_cells,
            &mut v2_pass,
        );
        v1_rates.push(v1);
        v2_rates.push(v2);
        ratios.push(v2 / v1);
    }
    let v1_cells_per_sec = median(v1_rates);
    let v2_cells_per_sec = median(v2_rates);
    let speedup = median(ratios);

    // Chaos: the same 32-client whole-matrix workload with a 5%
    // mid-stream connection-drop plan armed (fixed seed, so every CI
    // run injects the same drops). The retrying client absorbs the
    // chaos; the gauge proves resilience costs little on the warm
    // path.
    state.set_chaos_plan(IoFaultPlan {
        seed: 0xC4A05,
        drop_rate: 0.05,
        ..IoFaultPlan::disabled()
    });
    let chaos_cells_per_sec = cells_per_sec(
        "serve.v2 batch under 5% connection drops",
        matrix_cells,
        || {
            batch_pass("chaos", &addr, &specs, matrix_cells, |i| ClientConfig {
                retries: 8,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(20),
                seed: i,
                ..ClientConfig::default()
            })
        },
    );
    let drops = state
        .chaos_counters()
        .drops
        .load(std::sync::atomic::Ordering::Relaxed);
    // Disarm before the control connection: `shutdown` is not retried.
    state.set_chaos_plan(IoFaultPlan::disabled());

    let mut closer = connect_v2("shutdown");
    closer
        .shutdown()
        .unwrap_or_else(|e| fatal(&format!("shutdown: {e}")));
    match server.join() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => fatal(&format!("event loop: {e}")),
        Err(_) => fatal("event loop thread panicked"),
    }

    let chaos_speedup = chaos_cells_per_sec / v1_cells_per_sec;
    println!(
        "\nwarm-cache throughput (medians of {PAIRS} pairs): v1 single-cell \
         {v1_cells_per_sec:.0} cells/s, v2 batch x{CLIENTS} {v2_cells_per_sec:.0} cells/s, \
         speedup {speedup:.1}x"
    );
    println!(
        "chaos (5% drops, {drops} injected): {chaos_cells_per_sec:.0} cells/s, \
         {chaos_speedup:.1}x over v1"
    );

    let mut reporter = Reporter::new("serve_soak", &cli);
    let m = &mut reporter.manifest.metrics;
    m.gauge("serve.cells", total_cells as f64);
    m.gauge("serve.clients", CLIENTS as f64);
    m.gauge("serve.v1_cells_per_sec", v1_cells_per_sec);
    m.gauge("serve.v2_batch_cells_per_sec_32c", v2_cells_per_sec);
    m.gauge("serve.speedup", speedup);
    m.gauge("serve.chaos_cells_per_sec", chaos_cells_per_sec);
    m.gauge("serve.chaos_speedup", chaos_speedup);
    m.gauge("serve.chaos_drops", drops as f64);
    reporter.finish();
    if throwaway {
        std::fs::remove_dir_all(&store_dir).ok();
    }
}
