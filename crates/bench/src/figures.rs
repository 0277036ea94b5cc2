//! The paper's figure and table regenerators, plus the extension
//! ablations and calibration diagnostics, as one table keyed by id.
//! `paper_run --figure ID` runs one of them instead of the study
//! matrix. The id names the manifest `tool` and the default artifact
//! `results/<id>[_small].<ext>`. The capacity figures are `Study`
//! rows: they run through [`crate::run_study`], so they alone accept
//! `--cache` (crash-resume through the result store), `--retries` and
//! `--timeout-secs`; the parser rejects those flags for every `Plain`
//! row.
//!
//! | id | artifact |
//! |----|----------|
//! | `fig2_infinite` | Figure 2: all nine apps, infinite caches |
//! | `fig3_ocean_small` | Figure 3: Ocean on the 66×66 grid |
//! | `fig4_raytrace` … `fig8_volrend` | Figures 4–8: finite-capacity sweeps |
//! | `table3_wsets` | Table 3: measured working-set curves |
//! | `table4_conflicts` | Table 4: bank-conflict probabilities |
//! | `table5_factors` | Table 5: load-latency execution-time factors |
//! | `table6_4kb`, `table7_inf` | Tables 6–7: clustering incl. shared-cache costs |
//! | `cluster_types` | §2: shared-cache vs shared-memory clusters |
//! | `ablation_assoc`, `ablation_latency`, `ablation_line` | §7 future-work ablations |
//! | `appstats`, `wscheck` | calibration diagnostics, not paper artifacts |

use cluster_study::apps::{
    ocean_small_grid_trace, trace_for, FIG2_APPS, TABLE5_APPS, TABLE6_APPS, TABLE7_APPS,
};
use cluster_study::measure_latency_factors;
use cluster_study::paper_data::{self, Totals};
use cluster_study::report::{
    cluster_header, costed_relative_times, direction_agrees, render_costed_row, render_sweep,
    render_table5_row, shape_distance,
};
use cluster_study::study::{run_cell, ClusterSweep, StudySpec, CLUSTER_SIZES};
use coherence::config::CacheSpec;
use coherence::{LatencyTable, MachineConfig};
use simcore::ops::{Op, Trace, TraceBuilder};
use simcore::stats::RunStats;
use simcore::Metrics;
use tango::EngineOptions;

use crate::{run_study, timed, Cli, Reporter};

/// One row of the `--figure` table.
enum Figure {
    /// A regenerator taking its own id (the manifest tool name) and
    /// the CLI.
    Plain(fn(&str, &Cli)),
    /// A Figures 4–8 capacity sweep through the study pipeline (see
    /// [`capacity`]): the figure title and the one application swept.
    Study(&'static str, &'static str),
}

use Figure::{Plain, Study};

/// Every regenerator `--figure` can select, in paper order.
const FIGURES: [(&str, Figure); 18] = [
    ("fig2_infinite", Plain(fig2_infinite)),
    ("fig3_ocean_small", Plain(fig3_ocean_small)),
    ("fig4_raytrace", Study("Figure 4", "raytrace")),
    ("fig5_mp3d", Study("Figure 5", "mp3d")),
    ("fig6_barnes", Study("Figure 6", "barnes")),
    ("fig7_fmm", Study("Figure 7", "fmm")),
    ("fig8_volrend", Study("Figure 8", "volrend")),
    ("table3_wsets", Plain(table3_wsets)),
    ("table4_conflicts", Plain(table4_conflicts)),
    ("table5_factors", Plain(table5_factors)),
    (
        "table6_4kb",
        Plain(|id, cli| {
            costed_table(
                id,
                cli,
                "Table 6: clustering with 4KB caches",
                CacheSpec::PerProcBytes(4096),
                &TABLE6_APPS,
                paper_data::table6,
            )
        }),
    ),
    (
        "table7_inf",
        Plain(|id, cli| {
            costed_table(
                id,
                cli,
                "Table 7: clustering with infinite caches",
                CacheSpec::Infinite,
                &TABLE7_APPS,
                paper_data::table7,
            )
        }),
    ),
    ("cluster_types", Plain(cluster_types)),
    ("ablation_assoc", Plain(ablation_assoc)),
    ("ablation_latency", Plain(ablation_latency)),
    ("ablation_line", Plain(ablation_line)),
    ("appstats", Plain(appstats)),
    ("wscheck", Plain(wscheck)),
];

fn row(id: &str) -> Option<&'static (&'static str, Figure)> {
    FIGURES.iter().find(|(name, _)| *name == id)
}

/// Runs the regenerator named `id`. An unknown id exits 2; the CLI
/// parser rejects one before this is ever reached.
pub fn run(id: &str, cli: &Cli) {
    match row(id) {
        Some((name, Plain(figure))) => figure(name, cli),
        Some((name, Study(fig, app))) => capacity(name, fig, app, cli),
        None => {
            eprintln!("error: {}", unknown(id));
            std::process::exit(2)
        }
    }
}

/// Whether `id` is a [`Figure::Study`] row, the only kind that reads
/// `--cache`, `--retries` and `--timeout-secs`.
pub(crate) fn is_study(id: &str) -> bool {
    matches!(row(id), Some((_, Study(..))))
}

/// The table's copy of `id`, or the unknown-id message listing every
/// valid id.
pub(crate) fn lookup(id: &str) -> Result<&'static str, String> {
    row(id).map(|(name, _)| *name).ok_or_else(|| unknown(id))
}

/// Every id, in table order.
pub(crate) fn ids() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|(name, _)| *name)
}

fn unknown(id: &str) -> String {
    format!(
        "unknown figure `{id}` (one of: {})",
        ids().collect::<Vec<_>>().join(", ")
    )
}

/// The `--apps`-filtered members of `apps`, each with its trace,
/// generated lazily so only one trace is alive at a time.
fn traces<'a>(
    cli: &'a Cli,
    apps: &'a [&'static str],
) -> impl Iterator<Item = (&'static str, Trace)> + 'a {
    apps.iter()
        .copied()
        .filter(|app| cli.wants(app))
        .map(|app| {
            let trace = timed(&format!("{app} gen"), || {
                trace_for(app, cli.size, cli.procs)
            });
            (app, trace)
        })
}

/// The cluster-size sweep of `trace` at one cache spec.
fn sweep(trace: &Trace, cache: CacheSpec, cli: &Cli) -> ClusterSweep {
    StudySpec::for_trace(trace)
        .caches([cache])
        .jobs(cli.jobs)
        .run_sweep()
}

/// How closely a measured sweep tracks the paper's totals.
fn shape(sweep: &ClusterSweep, paper: Totals) -> String {
    let totals = sweep.normalized_totals();
    format!(
        "  shape: mean |Δ| = {:.1} points vs paper, direction {}",
        shape_distance(&totals, paper),
        if direction_agrees(&totals, paper) {
            "agrees"
        } else {
            "DISAGREES"
        }
    )
}

/// The `1p 2p 4p 8p` column header under a `width`-wide label column.
fn cluster_columns(label: &str, width: usize) {
    println!(
        "  {label:<width$} {:>8} {:>8} {:>8} {:>8}",
        "1p", "2p", "4p", "8p"
    );
}

/// Full replay of one figure cell. The figures replay their own traces
/// at the paper's cluster sizes, so only a `--procs` the directory
/// cannot hold (over 64 unclustered processors) stops a figure here.
fn replay(trace: &Trace, per_cluster: u32, cache: CacheSpec) -> RunStats {
    run_cell(trace, per_cluster, cache, None)
        .expect("--procs fits the directory")
        .0
}

/// One labelled row of `trace` at every cluster size, each cell the
/// run's execution time as a percent of `base`, recorded as `app`.
fn cluster_row(
    reporter: &mut Reporter,
    (label, width): (&str, usize),
    app: &str,
    trace: &Trace,
    cache: CacheSpec,
    base: u64,
) {
    print!("  {label:<width$}");
    for c in CLUSTER_SIZES {
        let rs = replay(trace, c, cache);
        reporter.record_run(app, &cache.label(), c, &rs, None);
        print!(" {:>8.1}", rs.percent_total_of(base));
    }
    println!();
}

/// Figure 2: "The Benefits with Infinite Caches" — all nine
/// applications, cluster sizes 1/2/4/8, infinite cluster caches,
/// execution time normalized to the 1-processor-per-cluster run and
/// decomposed into cpu / load / merge / sync.
fn fig2_infinite(id: &str, cli: &Cli) {
    println!(
        "Figure 2: infinite caches, {} processors, {} problem sizes\n",
        cli.procs,
        cli.size_label()
    );
    let mut reporter = Reporter::new(id, cli);
    for (app, trace) in traces(cli, &FIG2_APPS) {
        let sweep = timed(&format!("{app} sim"), || {
            sweep(&trace, CacheSpec::Infinite, cli)
        });
        reporter.record_sweep(app, &sweep, None);
        let paper = paper_data::fig2_totals(app);
        print!("{}", render_sweep(app, &sweep, paper));
        if let Some(p) = paper {
            println!("{}\n", shape(&sweep, p));
        }
    }
    reporter.finish();
}

/// Figure 3: Ocean on the smaller 66×66 grid with infinite caches —
/// higher communication miss rates make the clustering benefit larger,
/// at the cost of growing load imbalance.
fn fig3_ocean_small(id: &str, cli: &Cli) {
    println!(
        "Figure 3: Ocean 66x66, infinite caches, {} processors\n",
        cli.procs
    );
    let trace = timed("ocean-66 gen", || {
        ocean_small_grid_trace(cli.size, cli.procs)
    });
    let sweep = timed("ocean-66 sim", || sweep(&trace, CacheSpec::Infinite, cli));
    let mut reporter = Reporter::new(id, cli);
    reporter.record_sweep("ocean-66", &sweep, None);
    let paper = paper_data::fig3_ocean_small_totals();
    print!("{}", render_sweep("ocean (66x66)", &sweep, Some(paper)));
    println!("{}", shape(&sweep, paper));
    reporter.finish();
}

/// Figures 4–8: one app swept over cluster sizes at 4K/16K/32K/∞
/// per-processor caches through [`run_study`] (parallel over the 16
/// cache × cluster cells, honouring `--cache` and the retry policy),
/// printed next to the paper's approximate bar-chart values. A cell
/// that never succeeds exits 1 after the manifest is written.
fn capacity(id: &str, fig: &str, app: &str, cli: &Cli) {
    println!(
        "{fig}: {app}, finite capacity, {} processors, {} sizes, {} jobs\n",
        cli.procs,
        cli.size_label(),
        cli.jobs
    );
    let mut reporter = Reporter::new(id, cli);
    let run = timed(&format!("{app} gen+sim"), || run_study(cli, &[app], |_| {}));
    reporter.record_study(&run);
    if !run.is_complete() {
        for e in run.errors() {
            eprintln!(
                "error: {} {}/{}/{} failed after {} attempts: {}",
                e.phase.label(),
                e.app,
                e.cache.as_deref().unwrap_or("-"),
                e.cluster.map_or_else(|| "-".to_string(), |c| c.to_string()),
                e.attempts,
                e.error
            );
        }
        reporter.finish();
        std::process::exit(1);
    }
    for sweep in &run.per_trace()[0].sweeps {
        let paper = paper_data::capacity_totals(app, &sweep.cache.label());
        print!("{}", render_sweep(app, sweep, paper));
        if let Some(p) = paper {
            println!("{}\n", shape(sweep, p));
        }
    }
    reporter.finish();
}

/// Table 3 (working-set column): each application's per-processor
/// working set, measured by sweeping the unclustered cache size and
/// reporting the read miss rate at each size — the knee of the curve
/// is the working set the paper tabulates.
fn table3_wsets(id: &str, cli: &Cli) {
    const SIZES: [u64; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];
    println!(
        "Table 3 (measured): read miss rate vs per-processor cache size, 1p clusters ({} sizes)\n",
        cli.size_label()
    );
    let mut reporter = Reporter::new(id, cli);
    print!("  app       ");
    for s in SIZES {
        print!(" {:>6}", format!("{}k", s / 1024));
    }
    println!("    inf   knee (paper)");
    for (app, trace) in traces(cli, &FIG2_APPS) {
        print!("  {app:<10}");
        let mut rates = Vec::new();
        for s in SIZES {
            let spec = CacheSpec::PerProcBytes(s);
            let rs = replay(&trace, 1, spec);
            let r = rs.mem.read_miss_rate() * 100.0;
            rates.push(r);
            reporter.record_run(app, &spec.label(), 1, &rs, None);
            print!(" {r:>6.2}");
        }
        let inf = replay(&trace, 1, CacheSpec::Infinite);
        let inf_rate = inf.mem.read_miss_rate() * 100.0;
        reporter.record_run(app, &CacheSpec::Infinite.label(), 1, &inf, None);
        print!(" {inf_rate:>6.2}");
        // Knee: first size whose miss rate is within 25% of infinite.
        let knee_bytes = SIZES
            .iter()
            .zip(&rates)
            .find(|(_, &r)| r <= inf_rate * 1.25 + 0.05)
            .map(|(s, _)| *s);
        if let Some(b) = knee_bytes {
            reporter
                .manifest
                .metrics
                .gauge(&format!("{app}.knee_kb"), b as f64 / 1024.0);
        }
        let knee = knee_bytes
            .map(|s| format!("{}k", s / 1024))
            .unwrap_or_else(|| ">64k".into());
        let paper = match app {
            "barnes" => "12k",
            "fmm" => "4k",
            "fft" => "4k",
            "lu" => "2k",
            "mp3d" => "large",
            "ocean" => "partition",
            "radix" => "small+large",
            "raytrace" => "large",
            "volrend" => "small",
            _ => "?",
        };
        println!("   {knee} ({paper})");
    }
    reporter.finish();
}

/// Table 4: probabilities of bank conflict at the multi-banked shared
/// cache, `C = 1 - ((m-1)/m)^(n-1)` with four banks per processor.
fn table4_conflicts(id: &str, cli: &Cli) {
    print!("{}", cluster_study::report::render_table4());
    let mut reporter = Reporter::new(id, cli);
    for (n, m, c) in cluster_study::contention::table4() {
        reporter
            .manifest
            .metrics
            .gauge(&format!("p_conflict.{n}p_{m}banks"), c);
    }
    reporter.finish();
}

/// Table 5: load-latency execution-time factors. The paper measured
/// these with Pixie on the uniprocessor instruction streams; here each
/// trace is replayed with the engine's load latency at 1–4 cycles and
/// the execution-time ratios taken.
fn table5_factors(id: &str, cli: &Cli) {
    println!(
        "Table 5: load-latency execution-time factors ({} sizes)\n",
        cli.size_label()
    );
    let mut reporter = Reporter::new(id, cli);
    println!("  app          1 cyc   2 cyc   3 cyc   4 cyc");
    for (app, trace) in traces(cli, &TABLE5_APPS) {
        let f = timed(&format!("{app} factors"), || {
            measure_latency_factors(&trace).expect("--procs fits the directory")
        });
        for l in 1..=4u64 {
            reporter
                .manifest
                .metrics
                .gauge(&format!("{app}.factor_{l}cyc"), f.at(l));
        }
        print!("{}", render_table5_row(app, &f));
    }
    reporter.finish();
}

/// Tables 6 and 7: relative execution time of clustering at one cache
/// spec, including the Section 6 shared-cache cost model (bank
/// conflicts × latency factors applied to the simulated times).
fn costed_table(
    id: &str,
    cli: &Cli,
    title: &str,
    cache: CacheSpec,
    apps: &[&'static str],
    paper: fn(&str) -> Option<[f64; 4]>,
) {
    println!(
        "{title} incl. shared-cache costs ({} sizes)\n",
        cli.size_label()
    );
    print!("{}", cluster_header());
    let mut reporter = Reporter::new(id, cli);
    for (app, trace) in traces(cli, apps) {
        let (sweep, factors) = timed(&format!("{app} sim"), || {
            (
                sweep(&trace, cache, cli),
                measure_latency_factors(&trace).expect("--procs fits the directory"),
            )
        });
        reporter.record_sweep(app, &sweep, None);
        let rel = costed_relative_times(&sweep, &factors);
        for (c, r) in &rel {
            reporter
                .manifest
                .metrics
                .gauge(&format!("{app}.costed_rel_{c}p"), *r);
        }
        print!("{}", render_costed_row(app, &rel, paper(app)));
    }
    reporter.finish();
}

/// The paper's §2 comparison, simulated: shared-**cache** clusters vs
/// shared-**main-memory** clusters (private per-processor caches kept
/// coherent over an intra-cluster snoopy bus).
///
/// §2 predicts: the shared cache deduplicates read-shared working sets
/// (one copy per cluster) but suffers destructive interference and a
/// longer hit time; the shared-memory cluster keeps caches private (no
/// interference, 1-cycle hits) but duplicates working sets, gaining
/// only cache-to-cache transfer opportunities.
fn cluster_types(id: &str, cli: &Cli) {
    // Intra-cluster snoopy-bus transfer latency (between the 1-cycle
    // hit and the 30-cycle local-memory miss of Table 1).
    const BUS_CYCLES: u64 = 15;
    println!(
        "Cluster organizations compared (§2): shared cache vs shared memory\n\
         ({} sizes, bus transfer = {BUS_CYCLES} cycles)\n",
        cli.size_label()
    );
    let mut reporter = Reporter::new(id, cli);
    for (app, trace) in traces(cli, &["barnes", "mp3d", "ocean", "volrend"]) {
        for bytes in [4096u64, 16384] {
            let private = CacheSpec::PrivatePerProc {
                bytes,
                bus_cycles: BUS_CYCLES,
            };
            // Normalize both organizations to the *unclustered private
            // cache* machine: that is the build-nothing baseline both
            // cluster types compete against.
            let base = replay(&trace, 1, private).exec_time;
            println!("{app} @ {}KB/processor:", bytes / 1024);
            cluster_columns("organization", 26);
            for (name, spec) in [
                ("shared-memory cluster", private),
                ("shared-cache cluster", CacheSpec::PerProcBytes(bytes)),
            ] {
                cluster_row(&mut reporter, (name, 26), app, &trace, spec, base);
            }
            println!();
        }
    }
    println!(
        "Shared caches win where read-shared working sets overlap (one\n\
         copy serves the cluster); shared-memory clusters win where the\n\
         streams interfere, and capture communication as cheap bus\n\
         transfers rather than eliminating it."
    );
    reporter.finish();
}

/// Ablation (the paper's stated future work, §7): limited
/// associativity in the shared cluster cache. "The main disadvantages
/// of clustering are ... the interference among the reference streams
/// of the clustered processors, particularly when the clustered level
/// of the hierarchy is a cache with small associativity." Sweeps
/// associativity {1, 2, 4, full} at 4 KB/processor: destructive
/// interference shows up as the direct-mapped clustered cache losing
/// the benefit the fully-associative one gains.
fn ablation_assoc(id: &str, cli: &Cli) {
    println!(
        "Ablation: shared-cache associativity at 4KB/processor ({} sizes)\n",
        cli.size_label()
    );
    let mut reporter = Reporter::new(id, cli);
    let full = CacheSpec::PerProcBytes(4096);
    let ways = |ways| CacheSpec::PerProcSetAssoc { bytes: 4096, ways };
    for (app, trace) in traces(cli, &["barnes", "ocean", "volrend"]) {
        println!("{app}:");
        cluster_columns("assoc", 8);
        // Normalize everything to the fully-associative 1p run so the
        // interference cost is directly visible.
        let base = replay(&trace, 1, full).exec_time;
        for (name, spec) in [
            ("1-way", ways(1)),
            ("2-way", ways(2)),
            ("4-way", ways(4)),
            ("full", full),
        ] {
            cluster_row(&mut reporter, (name, 8), app, &trace, spec, base);
        }
        println!();
    }
    reporter.finish();
}

/// Ablation: how the clustering benefit depends on the remote/local
/// latency ratio. The paper's Table 1 machine has a 100/30 remote/local
/// ratio; as machines integrate more tightly (or networks get slower),
/// the value of keeping traffic inside the cluster changes.
fn ablation_latency(id: &str, cli: &Cli) {
    println!(
        "Ablation: clustering benefit vs remote-miss latency ({} sizes)\n",
        cli.size_label()
    );
    println!("  latency model          app        1p -> 8p (normalized)");
    let mut reporter = Reporter::new(id, cli);
    for (app, trace) in traces(cli, &["ocean", "mp3d"]) {
        for (name, scale) in [
            ("0.5x remote", 0.5f64),
            ("1x (paper)", 1.0),
            ("2x remote", 2.0),
            ("4x remote", 4.0),
        ] {
            let paper = LatencyTable::paper();
            let lat = LatencyTable {
                local_clean: paper.local_clean,
                local_dirty_remote: (paper.local_dirty_remote as f64 * scale) as u64,
                remote_clean: (paper.remote_clean as f64 * scale) as u64,
                remote_dirty_third: (paper.remote_dirty_third as f64 * scale) as u64,
            };
            let run = |per_cluster: u32| {
                let m = MachineConfig {
                    n_procs: cli.procs as u32,
                    per_cluster,
                    cache: CacheSpec::Infinite,
                    lat,
                }
                .validated();
                tango::try_run_with(&trace, m, EngineOptions::default())
                    .expect("--procs fits the directory")
                    .exec_time
            };
            let norm = run(8) as f64 / run(1) as f64 * 100.0;
            reporter
                .manifest
                .metrics
                .gauge(&format!("{app}.norm8p_remote_{scale}x"), norm);
            println!("  {name:<20}   {app:<9}  100.0 -> {norm:>5.1}");
        }
    }
    println!(
        "\nThe slower the network relative to the cluster, the more\n\
         clustering helps — and at tight integration the benefit shrinks\n\
         toward the paper's conclusion that engineering constraints, not\n\
         application behavior, should decide."
    );
    reporter.finish();
}

/// Ablation: cluster size interacts with spatial prefetching. The
/// paper notes that the prefetching component of clustering "is
/// dependent on cache line size and application data layout"; this
/// quantifies the sharing-vs-false-sharing balance by contrasting an
/// element-strided and a line-dense synthetic workload under the
/// paper's machine.
fn ablation_line(id: &str, cli: &Cli) {
    println!("Ablation: spatial sharing density vs clustering benefit\n");
    cluster_columns("stride (elements)", 22);
    let mut reporter = Reporter::new(id, cli);
    for stride in [1u64, 2, 4, 8] {
        let trace = strided_trace(cli.procs, stride);
        let base = replay(&trace, 1, CacheSpec::Infinite).exec_time;
        let label = format!("{stride} ({} per line)", 8 / stride);
        let app = format!("stride{stride}");
        cluster_row(
            &mut reporter,
            (&label, 22),
            &app,
            &trace,
            CacheSpec::Infinite,
            base,
        );
    }
    println!(
        "\nDense layouts (several processors' data per 64-byte line) let the\n\
         cluster cache prefetch for neighbors; strided layouts get nothing."
    );
    reporter.finish();
}

/// A workload where `n_procs` processors sweep a shared array;
/// `stride_elems` controls how many 8-byte elements apart consecutive
/// processors' accesses land — stride 1 packs 8 processors' data per
/// line (heavy true sharing), stride 8 gives one line each (none).
fn strided_trace(n_procs: usize, stride_elems: u64) -> Trace {
    let mut b = TraceBuilder::new(n_procs);
    let arr = b
        .space_mut()
        .alloc_array(64 * 1024, 8, simcore::space::Placement::RoundRobin);
    // Stagger the processors so an early cluster mate can genuinely
    // prefetch for a later one (without stagger the paper's LU effect
    // appears instead: load stall merely converts to merge stall).
    for p in 0..n_procs as u32 {
        b.compute(p, p as u64 * 1500);
    }
    for round in 0..6u64 {
        for p in 0..n_procs as u32 {
            b.compute(p, 50 + round);
            for i in 0..512u64 {
                let idx = (i * n_procs as u64 + p as u64) * stride_elems % arr.len;
                b.read(p, arr.addr(idx));
                b.compute(p, 8);
            }
        }
        b.barrier_all();
    }
    b.finish()
}

/// Diagnostic: per-app trace composition and miss breakdown at one
/// configuration — a calibration tool, not a paper artifact. With
/// `--format json` every app's trace composition (`trace_*`), machine
/// shape and engine counters land in the manifest's `metrics` section,
/// prefixed by app name.
fn appstats(id: &str, cli: &Cli) {
    let mut reporter = Reporter::new(id, cli);
    for (app, trace) in traces(cli, &FIG2_APPS) {
        let (mut reads, mut writes, mut compute, mut barriers, mut locks) = (0u64, 0, 0, 0, 0);
        for ops in &trace.per_proc {
            for op in ops {
                match op.unpack() {
                    Op::Read(_) => reads += 1,
                    Op::Write(_) => writes += 1,
                    Op::Compute(c) => compute += c,
                    Op::Barrier(_) => barriers += 1,
                    Op::Lock(_) => locks += 1,
                    Op::Unlock(_) => {}
                }
            }
        }
        let rs = replay(&trace, 1, CacheSpec::Infinite);
        reporter.record_run(app, "inf", 1, &rs, None);
        let mut counters = Metrics::new();
        counters.counter("clusters", trace.n_procs() as u64);
        counters.counter("per_cluster", 1);
        counters.counter("trace_reads", reads);
        counters.counter("trace_writes", writes);
        counters.counter("trace_compute_cycles", compute);
        counters.counter("trace_barriers", barriers);
        counters.counter("trace_lock_acquires", locks);
        counters.merge_prefixed("", &rs.metrics());
        reporter.manifest.metrics.merge_prefixed(app, &counters);
        let m = &rs.mem;
        println!(
            "{app}: ops={} reads={reads} writes={writes} compute={compute} locks={locks}",
            trace.total_ops()
        );
        println!(
            "  1p/inf: exec={} read_miss={} ({:.1}% of reads) write_miss={} upgrades={} inval={} merges={}",
            rs.exec_time,
            m.read_misses,
            100.0 * m.read_misses as f64 / (m.read_hits + m.read_misses).max(1) as f64,
            m.write_misses,
            m.upgrade_misses,
            m.invalidations,
            m.merge_stalls,
        );
        println!(
            "  lat classes [local30, localdirty100, remote100, third150] = {:?}",
            m.by_latency
        );
    }
    reporter.finish();
}

/// Diagnostic: absolute execution-time ratios across cache sizes and
/// cluster sizes, relative to the unclustered infinite-cache run.
fn wscheck(id: &str, cli: &Cli) {
    let mut reporter = Reporter::new(id, cli);
    for (app, trace) in traces(cli, &FIG2_APPS) {
        let inf_stats = replay(&trace, 1, CacheSpec::Infinite);
        reporter.record_run(app, "inf", 1, &inf_stats, None);
        let inf = inf_stats.exec_time as f64;
        print!("{app:<10} inf=1.0 ");
        for s in [4096u64, 16384, 32768] {
            for c in CLUSTER_SIZES {
                let spec = CacheSpec::PerProcBytes(s);
                let rs = replay(&trace, c, spec);
                reporter.record_run(app, &spec.label(), c, &rs, None);
                print!("{}k/{c}p={:.2} ", s / 1024, rs.exec_time as f64 / inf);
            }
        }
        println!();
    }
    reporter.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for id in ids() {
            assert!(seen.insert(id), "duplicate figure id {id}");
        }
        assert_eq!(seen.len(), FIGURES.len());
    }
}
