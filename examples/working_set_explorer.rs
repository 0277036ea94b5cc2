//! Working-set explorer: sweep the per-processor cache size for one
//! application and watch the miss-rate knee — then watch clustering
//! move the knee by overlapping the working sets (the paper's Section
//! 5 mechanism). Accepts the shared bench CLI: pick the application
//! with `--apps barnes`, and `--emit-manifest` makes the output
//! diffable in CI.
//!
//! ```text
//! cargo run --release --example working_set_explorer -- [--apps lu]
//! ```

use cluster_bench::{Cli, Reporter};
use cluster_study::apps::trace_for;
use cluster_study::study::run_cell;
use coherence::config::CacheSpec;

fn main() {
    let cli = Cli::parse();
    let app = cli
        .apps
        .as_ref()
        .and_then(|list| list.first().cloned())
        .unwrap_or_else(|| "barnes".into());
    let trace = trace_for(&app, cli.size, cli.procs);
    // One full replay per cell; a shape the machine cannot take (say,
    // `--procs 128` with unclustered caches) is a typed error.
    let replay =
        |per_cluster: u32, cache: CacheSpec| match run_cell(&trace, per_cluster, cache, None) {
            Ok((stats, _)) => stats,
            Err(e) => {
                eprintln!("{app}: {e}");
                std::process::exit(1);
            }
        };
    let mut reporter = Reporter::new("example_working_set_explorer", &cli);
    println!("{app}: read miss rate (%) vs per-processor cache size\n");
    println!(
        "  {:>8} {:>8} {:>8} {:>8} {:>8}",
        "cache", "1p", "2p", "4p", "8p"
    );
    for kb in [2u64, 4, 8, 16, 32, 64] {
        print!("  {:>7}k", kb);
        for per_cluster in [1u32, 2, 4, 8] {
            let rs = replay(per_cluster, CacheSpec::PerProcBytes(kb * 1024));
            print!(" {:>8.2}", rs.mem.read_miss_rate() * 100.0);
            reporter.record_run(&app, &format!("{kb}k"), per_cluster, &rs, None);
        }
        println!();
    }
    let inf = replay(1, CacheSpec::Infinite);
    reporter.record_run(&app, "inf", 1, &inf, None);
    println!(
        "  {:>8} {:>8.2} (compulsory + coherence misses only)",
        "inf",
        inf.mem.read_miss_rate() * 100.0
    );
    println!(
        "\nReading across a row: the same total cache per processor, shared\n\
         by more processors, misses less once the overlapped working set\n\
         fits — the knee shifts left with cluster size."
    );
    reporter.finish();
}
