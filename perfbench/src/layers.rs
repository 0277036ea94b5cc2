//! The per-layer probes of a traced run. Each probe times calls into
//! one layer's public functions from outside, over the workload's own
//! cells, so every workload reports every layer.

use cluster_serve::{parse_request, ResultStore, Session};
use cluster_study::{JournalEntry, RunStatus};
use coherence::{MemorySystem, ProtocolError};
use simcore::cache::{CacheKind, FullLruCache};
use simcore::ops::Trace;
use simcore::sample::SamplePlan;
use simcore::stats::{MissStats, RunStats};
use simcore::witness::WitnessEvent;
use simcore::{line_of, stable_key, Json};
use splash::ProblemSize;
use tango::EngineOptions;

use crate::serve::{self, cell_spec, Server};
use crate::trace::Tracer;
use crate::util::{median, quantile, scratch_dir, Ledger, Metric};
use crate::workloads::{
    fingerprint, fingerprint_sampled, generate, sample_spec, study_pass, Cell, Workload, JOBS,
    PROCS,
};

/// Samples per serving-path probe; a workload with fewer cells repeats
/// them.
const SERVE_SAMPLES: usize = 200;

/// Store opens timed per run.
const OPENS: usize = 5;

/// One committed access as the engine serialized it.
struct Access {
    time: u64,
    addr: u64,
    proc: u32,
    write: bool,
}

impl From<WitnessEvent> for Access {
    fn from(e: WitnessEvent) -> Access {
        Access {
            time: e.time,
            addr: e.addr,
            proc: e.proc,
            write: e.commit.is_write(),
        }
    }
}

/// Totals over a workload's cells.
#[derive(Default)]
struct Totals {
    replay_s: f64,
    ops: u64,
    refs: u64,
    merges: u64,
    sync_cycles: u64,
    cycles: u64,
    protocol_s: f64,
    accesses: u64,
    mem: MissStats,
    dir_lines: u64,
    lru_s: f64,
    probes: u64,
    lru_hits: u64,
    lru_evictions: u64,
    resident: u64,
    plan_s: f64,
    sampled_s: f64,
    warm_ops: u64,
    measured_ops: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Replays the committed accesses of one cell into a fresh memory
/// system, at their recorded times.
fn protocol_replay(mem: &mut MemorySystem, accesses: &[Access]) -> Result<(), ProtocolError> {
    for a in accesses {
        if a.write {
            mem.try_write(a.proc, a.addr, a.time)?;
        } else {
            mem.try_read(a.proc, a.addr, a.time)?;
        }
    }
    Ok(())
}

/// Feeds each cluster's line stream through an LRU cache of the cell's
/// capacity; returns `(hits, evictions)`.
fn lru_replay(caches: &mut [FullLruCache<()>], accesses: &[Access], cluster: u32) -> (u64, u64) {
    let (mut hits, mut evictions) = (0u64, 0u64);
    for a in accesses {
        let cache = &mut caches[(a.proc / cluster) as usize];
        let line = line_of(a.addr);
        if cache.get_mut(line).is_some() {
            hits += 1;
        } else if cache.insert(line, ()).is_some() {
            evictions += 1;
        }
    }
    (hits, evictions)
}

/// Probes `tango`, `coherence`, `cache` and sampling on one cell,
/// adding to `t`; returns the cell's full-replay statistics.
fn probe_cell(
    w: &Workload,
    size: ProblemSize,
    trace: &Trace,
    cell: &Cell,
    t: &mut Totals,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Option<RunStats> {
    let id = w.cell_id(size, cell);
    let machine = cell.machine();
    let opts = EngineOptions::default();

    let (run, secs) = tracer.timed(0, "tango", "replay", &id, |_| {
        tango::try_run_with(trace, machine, opts)
    });
    let rs = match run {
        Ok(rs) => rs,
        Err(e) => {
            ledger.op(&id, Err(e.to_string()));
            return None;
        }
    };
    ledger.op(&id, Ok(fingerprint(&rs)));
    t.replay_s += secs;
    t.ops += trace.total_ops();
    t.refs += trace.total_refs();
    t.merges += rs.mem.merge_stalls;
    let bd = rs.total_breakdown();
    t.sync_cycles += bd.sync;
    t.cycles += bd.total();

    // Capture the committed accesses once, outside any timed section
    // of the protocol or the caches.
    let mut accesses: Vec<Access> = Vec::new();
    let (observed, _) = tracer.timed(0, "coherence", "capture", &id, |_| {
        tango::try_run_observed(trace, machine, opts, &mut |e| accesses.push(e.into()))
    });
    ledger.plain(
        &format!("{id} observed replay"),
        match observed {
            Ok(o) if o == rs => Ok(()),
            Ok(_) => Err("observation changed the replay".to_string()),
            Err(e) => Err(e.to_string()),
        },
    );

    match MemorySystem::try_new(machine, &trace.space) {
        Ok(mut mem) => {
            let (res, secs) = tracer.timed(0, "coherence", "protocol", &id, |_| {
                protocol_replay(&mut mem, &accesses)
            });
            ledger.plain(
                &format!("{id} protocol replay"),
                res.map_err(|e| e.to_string()),
            );
            t.protocol_s += secs;
            t.accesses += accesses.len() as u64;
            t.mem += mem.stats;
            t.dir_lines += mem.snapshot().dir.len() as u64;
        }
        Err(e) => ledger.plain(&format!("{id} memory system"), Err(e.to_string())),
    }

    let n_caches = (PROCS as u32 / cell.cluster) as usize;
    let mut caches: Vec<FullLruCache<()>> = (0..n_caches)
        .map(|_| match cell.cache.to_kind(cell.cluster) {
            CacheKind::FullLru { lines } => FullLruCache::new(lines),
            _ => FullLruCache::infinite(),
        })
        .collect();
    let ((hits, evictions), secs) = tracer.timed(0, "cache", "lru", &id, |_| {
        lru_replay(&mut caches, &accesses, cell.cluster)
    });
    t.lru_s += secs;
    t.probes += accesses.len() as u64;
    t.lru_hits += hits;
    t.lru_evictions += evictions;
    t.resident += caches.iter().map(|c| c.len() as u64).sum::<u64>();
    drop(accesses);

    let (plan, plan_s) = tracer.timed(0, "tango", "sample_plan", &id, |_| {
        SamplePlan::for_trace(trace, &sample_spec())
    });
    let (run, run_s) = tracer.timed(0, "tango", "replay_sampled", &id, |_| {
        tango::try_run_sampled(trace, machine, opts, &plan)
    });
    let st = plan.stats();
    t.plan_s += plan_s;
    t.sampled_s += plan_s + run_s;
    t.warm_ops += st.ops_warm;
    t.measured_ops += st.ops_measured;
    ledger.op(
        &format!("sampled:{id}"),
        run.map(|r| fingerprint_sampled(&r.stats, &st.with_warm(&r.warm_mem, &r.warm_bd)))
            .map_err(|e| e.to_string()),
    );
    Some(rs)
}

/// Every per-layer metric of `w`, in `BENCHMARK.json` order.
pub fn probe(
    w: &Workload,
    size: ProblemSize,
    tracer: &Tracer,
    ledger: &Ledger,
) -> Result<Vec<Metric>, String> {
    let mut m = Vec::new();

    let (traces, gen_s) = tracer.timed(0, "perfbench", "probe", "splash", |id| {
        generate(w, size, tracer, id)
    });
    let ops: u64 = traces.iter().map(Trace::total_ops).sum();
    let refs: u64 = traces.iter().map(Trace::total_refs).sum();
    let apps = w.apps.len();
    m.push(Metric::new("splash.gen_s", "s", gen_s, apps));
    m.push(Metric::new("splash.ops", "count", ops as f64, apps));
    m.push(Metric::new("splash.refs", "count", refs as f64, apps));
    m.push(Metric::new(
        "splash.gen_ns_per_op",
        "ns",
        gen_s * 1e9 / ops as f64,
        apps,
    ));
    m.push(Metric::new(
        "splash.trace_mb",
        "MB",
        ops as f64 * 8.0 / (1 << 20) as f64,
        apps,
    ));

    let cells = w.cells();
    let n = cells.len();
    let mut t = Totals::default();
    let mut done = Vec::new();
    for cell in &cells {
        if let Some(rs) = probe_cell(w, size, &traces[cell.app], cell, &mut t, tracer, ledger) {
            done.push((*cell, rs));
        }
    }
    let self_s = t.replay_s - t.protocol_s;
    m.push(Metric::new("tango.replay_s", "s", t.replay_s, n));
    m.push(Metric::new(
        "tango.ns_per_op",
        "ns",
        t.replay_s * 1e9 / t.ops as f64,
        n,
    ));
    m.push(Metric::new("tango.self_s", "s", self_s, n));
    m.push(Metric::new(
        "tango.self_frac",
        "fraction",
        ratio(self_s, t.replay_s),
        n,
    ));
    m.push(Metric::new(
        "tango.merge_retries",
        "count",
        t.merges as f64,
        n,
    ));
    m.push(Metric::new(
        "tango.retry_frac",
        "fraction",
        ratio(t.merges as f64, (t.refs + t.merges) as f64),
        n,
    ));
    m.push(Metric::new(
        "tango.sync_frac",
        "fraction",
        ratio(t.sync_cycles as f64, t.cycles as f64),
        n,
    ));
    m.push(Metric::new("tango.sample.plan_s", "s", t.plan_s, n));
    m.push(Metric::new(
        "tango.sample.warm_ops",
        "count",
        t.warm_ops as f64,
        n,
    ));
    m.push(Metric::new(
        "tango.sample.measured_ops",
        "count",
        t.measured_ops as f64,
        n,
    ));
    m.push(Metric::new(
        "tango.sample.overhead",
        "ratio",
        ratio(t.sampled_s, t.replay_s),
        n,
    ));

    let misses = t.mem.read_misses + t.mem.write_misses + t.mem.upgrade_misses;
    m.push(Metric::new("coherence.protocol_s", "s", t.protocol_s, n));
    m.push(Metric::new(
        "coherence.ns_per_access",
        "ns",
        t.protocol_s * 1e9 / t.accesses as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.accesses",
        "count",
        t.accesses as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.read_misses",
        "count",
        t.mem.read_misses as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.write_misses",
        "count",
        t.mem.write_misses as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.upgrades",
        "count",
        t.mem.upgrade_misses as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.invalidations",
        "count",
        t.mem.invalidations as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.evictions",
        "count",
        t.mem.evictions as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.writebacks",
        "count",
        t.mem.writebacks as f64,
        n,
    ));
    m.push(Metric::new(
        "coherence.miss_frac",
        "fraction",
        ratio(misses as f64, t.accesses as f64),
        n,
    ));
    m.push(Metric::new(
        "coherence.dir_lines",
        "count",
        t.dir_lines as f64,
        n,
    ));

    m.push(Metric::new("cache.lru_s", "s", t.lru_s, n));
    m.push(Metric::new(
        "cache.ns_per_probe",
        "ns",
        t.lru_s * 1e9 / t.probes as f64,
        n,
    ));
    m.push(Metric::new("cache.probes", "count", t.probes as f64, n));
    m.push(Metric::new(
        "cache.hit_frac",
        "fraction",
        ratio(t.lru_hits as f64, t.probes as f64),
        n,
    ));
    m.push(Metric::new(
        "cache.evictions",
        "count",
        t.lru_evictions as f64,
        n,
    ));
    m.push(Metric::new(
        "cache.resident_lines",
        "count",
        t.resident as f64,
        n,
    ));

    m.extend(probe_study(w, size, &traces, tracer, ledger));
    drop(traces);
    m.extend(probe_serve(w, size, &done, tracer, ledger)?);
    Ok(m)
}

/// One pass of the study executor over the workload's cells.
fn probe_study(
    w: &Workload,
    size: ProblemSize,
    traces: &[Trace],
    tracer: &Tracer,
    ledger: &Ledger,
) -> Vec<Metric> {
    let apps: Vec<usize> = (0..traces.len()).collect();
    let pass = study_pass(w, size, traces, &apps, tracer, ledger);
    let timing = &pass.run.timing;
    let walls: Vec<f64> = pass.sims.iter().map(|(_, d, _)| d.as_secs_f64()).collect();
    let first = pass
        .sims
        .iter()
        .map(|(end, _, _)| end.duration_since(pass.start).as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let retries: u32 = pass
        .run
        .cells
        .iter()
        .map(|c| match c.outcome {
            cluster_study::CellOutcome::Done { attempts, .. } => attempts.saturating_sub(1),
            cluster_study::CellOutcome::Failed { .. } => 0,
        })
        .sum();
    let cells = pass.run.cells.len();
    let capacity = JOBS as f64 * timing.wall.as_secs_f64();
    vec![
        Metric::new("study.sim_s", "s", walls.iter().sum(), walls.len()),
        Metric::new(
            "study.sim_max_s",
            "s",
            walls.iter().copied().fold(0.0, f64::max),
            walls.len(),
        ),
        Metric::new("study.first_sim_s", "s", first, 1),
        Metric::new("study.wall_s", "s", pass.secs, 1),
        Metric::new("study.occupancy", "ratio", timing.occupancy(), cells),
        Metric::new(
            "study.idle_frac",
            "fraction",
            1.0 - ratio(timing.cumulative.as_secs_f64(), capacity),
            cells,
        ),
        Metric::new("study.cells", "count", cells as f64, cells),
        Metric::new("study.retries", "count", f64::from(retries), cells),
    ]
}

/// Per-sample statistics helper: `(p50, p99)` of `xs` scaled by `k`.
fn p50_p99(xs: &[f64], k: f64) -> (f64, f64) {
    (quantile(xs, 0.5) * k, quantile(xs, 0.99) * k)
}

/// The serving path over the workload's cells: store appends into a
/// fresh store, reopens and lookups, request parsing, in-process
/// handling on a v2 session, and the same requests over a socket.
fn probe_serve(
    w: &Workload,
    size: ProblemSize,
    done: &[(Cell, RunStats)],
    tracer: &Tracer,
    ledger: &Ledger,
) -> Result<Vec<Metric>, String> {
    let label = cluster_serve::size_label(size);
    let dir = scratch_dir("probe");
    let rounds = SERVE_SAMPLES.div_ceil(done.len().max(1));
    let ids: Vec<String> = done.iter().map(|(c, _)| w.cell_id(size, c)).collect();

    let store = ResultStore::open(&dir).map_err(|e| format!("opening store: {e}"))?;
    let mut keys = Vec::with_capacity(done.len());
    let mut record_s = Vec::with_capacity(done.len());
    for ((cell, rs), id) in done.iter().zip(&ids) {
        let app = w.apps[cell.app];
        let cache = cell.cache.label();
        let entry = JournalEntry {
            app: app.to_string(),
            cache: cache.clone(),
            cluster: cell.cluster,
            stats: rs.clone(),
            wall: None,
            status: RunStatus::Ok,
            attempts: 1,
            sampling: None,
        };
        let key = store.key(app, label, PROCS, &cache, cell.cluster);
        let (res, secs) = tracer.timed(0, "serve", "store_record", id, |_| {
            store.record(&key, label, PROCS, &entry)
        });
        ledger.plain(
            &format!("{id} record"),
            match res {
                Ok(true) => Ok(()),
                Ok(false) => Err("record did not append".to_string()),
                Err(e) => Err(e.to_string()),
            },
        );
        record_s.push(secs);
        keys.push(key);
    }
    drop(store);

    let mut open_s = Vec::with_capacity(OPENS);
    let mut store = None;
    for _ in 0..OPENS {
        drop(store.take());
        let (s, secs) = tracer.timed(0, "serve", "store_open", "", |_| ResultStore::open(&dir));
        store = Some(s.map_err(|e| format!("reopening store: {e}"))?);
        open_s.push(secs);
    }
    let store = store.expect("OPENS is at least one");
    let bytes = store.counters().bytes;

    let mut peek_s = Vec::new();
    for _ in 0..rounds {
        for (key, id) in keys.iter().zip(&ids) {
            let (hit, secs) = tracer.timed(0, "serve", "store_peek", id, |_| store.peek(key));
            if hit.is_none() {
                ledger.plain(
                    &format!("{id} peek"),
                    Err("recorded cell missing".to_string()),
                );
            }
            peek_s.push(secs);
        }
    }

    let specs: Vec<Json> = done.iter().map(|(c, _)| cell_spec(w, size, c)).collect();
    let lines: Vec<String> = specs
        .iter()
        .zip(1u64..)
        .map(|(s, i)| {
            Json::obj()
                .with("op", "run")
                .with("id", i)
                .with("spec", s.clone())
                .to_string()
        })
        .collect();
    let mut parse_s = Vec::new();
    for _ in 0..rounds {
        for (line, id) in lines.iter().zip(&ids) {
            let (req, secs) = tracer.timed(0, "serve", "parse", id, |_| parse_request(line));
            if let Err(e) = req {
                ledger.plain(&format!("{id} parse"), Err(e.detail));
            }
            parse_s.push(secs);
        }
    }

    // In-process handling. The first request per app generates its
    // trace into the server's trace store and is not timed.
    let state = serve::state(store);
    let mut sess = Session::new();
    let hello = Json::obj()
        .with("op", "hello")
        .with("schema", cluster_serve::PROTOCOL_SCHEMA_V2)
        .to_string();
    state.handle_line_session(&mut sess, &hello, &mut |_| {});
    let check = |id: &str, resp: Option<Json>| {
        let cell = resp
            .as_ref()
            .filter(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
            .and_then(|r| r.get("cells"))
            .and_then(Json::as_arr)
            .and_then(|c| c.first());
        ledger.op(
            &format!("served:{id}"),
            match cell {
                Some(c) if c.get("cache_hit").and_then(Json::as_bool) == Some(true) => {
                    Ok(stable_key(c.get("stats").unwrap_or(&Json::Null)))
                }
                Some(_) => Err("warm cell not served from the store".to_string()),
                None => Err(format!("bad response {resp:?}")),
            },
        );
    };
    let mut warmed = vec![false; w.apps.len()];
    for ((cell, _), line) in done.iter().zip(&lines) {
        if !std::mem::replace(&mut warmed[cell.app], true) {
            state.handle_line_session(&mut sess, line, &mut |_| {});
        }
    }
    let mut handle_s = Vec::new();
    for _ in 0..rounds {
        for (line, id) in lines.iter().zip(&ids) {
            let mut out = None;
            let (_, secs) = tracer.timed(0, "serve", "handle", id, |_| {
                state.handle_line_session(&mut sess, line, &mut |j| {
                    out.get_or_insert(j);
                })
            });
            check(id, out);
            handle_s.push(secs);
        }
    }

    let server = Server::start(&state)?;
    let mut client = server.client()?;
    let mut run_s = Vec::new();
    for _ in 0..rounds {
        for (spec, id) in specs.iter().zip(&ids) {
            let (resp, secs) = tracer.timed(0, "serve", "run", id, |_| client.run(spec.clone()));
            check(id, resp.ok());
            run_s.push(secs);
        }
    }
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    drop(client);
    server.stop()?;
    drop(state);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing store: {e}"))?;

    let count = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
    let (record_p50, record_p99) = p50_p99(&record_s, 1e3);
    let (peek_p50, peek_p99) = p50_p99(&peek_s, 1e6);
    let (handle_p50, handle_p99) = p50_p99(&handle_s, 1e6);
    let (run_p50, run_p99) = p50_p99(&run_s, 1e3);
    Ok(vec![
        Metric::new("serve.store.open_ms", "ms", median(&open_s) * 1e3, OPENS),
        Metric::new(
            "serve.store.record_ms_p50",
            "ms",
            record_p50,
            record_s.len(),
        ),
        Metric::new(
            "serve.store.record_ms_p99",
            "ms",
            record_p99,
            record_s.len(),
        ),
        Metric::new("serve.store.peek_us_p50", "us", peek_p50, peek_s.len()),
        Metric::new("serve.store.peek_us_p99", "us", peek_p99, peek_s.len()),
        Metric::new("serve.store.bytes", "B", bytes as f64, keys.len()),
        Metric::new(
            "serve.codec.parse_us_p50",
            "us",
            quantile(&parse_s, 0.5) * 1e6,
            parse_s.len(),
        ),
        Metric::new("serve.handle_us_p50", "us", handle_p50, handle_s.len()),
        Metric::new("serve.handle_us_p99", "us", handle_p99, handle_s.len()),
        Metric::new("serve.run_ms_p50", "ms", run_p50, run_s.len()),
        Metric::new("serve.run_ms_p99", "ms", run_p99, run_s.len()),
        Metric::new(
            "serve.socket_us_p50",
            "us",
            run_p50 * 1e3 - handle_p50,
            run_s.len(),
        ),
        Metric::new("serve.requests", "count", count("requests"), 1),
        Metric::new("serve.cache_hits", "count", count("cache_hits"), 1),
    ])
}
