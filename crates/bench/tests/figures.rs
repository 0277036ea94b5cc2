//! `paper_run --figure ID` dispatch, end to end through the built
//! binary. Only cheap figures run here: the suite runs debug builds.

use std::process::{Command, Output};

fn paper_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_run"))
        .args(args)
        .output()
        .expect("paper_run runs")
}

#[test]
fn table4_figure_prints_the_rendered_table() {
    let out = paper_run(&["--figure", "table4_conflicts"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        cluster_study::report::render_table4()
    );
}

#[test]
fn unknown_figure_exits_2_naming_the_valid_ids() {
    let out = paper_run(&["--figure", "nope"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure `nope`"), "{stderr}");
    assert!(stderr.contains("fig2_infinite"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn figure_with_sampling_exits_2() {
    let out = paper_run(&["--figure", "fig2_infinite", "--sample", "periodic"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no figure ran");
}

#[test]
fn study_flags_on_a_plain_figure_exit_2() {
    for args in [
        &["--figure", "fig2_infinite", "--cache", "d"][..],
        &["--figure", "table4_conflicts", "--retries", "1"],
    ] {
        let out = paper_run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "no figure ran");
        assert!(!std::path::Path::new("d").exists(), "no store was opened");
    }
}

#[test]
fn checkpoint_and_resume_are_unknown_flags() {
    for flag in ["--checkpoint", "--resume"] {
        let out = paper_run(&["--small", flag, "j.jsonl"]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

/// `appstats` counts each app's trace composition once and reports it,
/// with the machine shape and every `RunStats` counter, as the app's
/// metric set in the JSON manifest; the counters agree with the app's
/// run record.
#[test]
fn appstats_metrics_count_trace_composition_and_match_the_run() {
    use simcore::Json;
    const KEYS: [&str; 30] = [
        "clusters",
        "per_cluster",
        "trace_reads",
        "trace_writes",
        "trace_compute_cycles",
        "trace_barriers",
        "trace_lock_acquires",
        "procs",
        "exec_time_cycles",
        "cpu_cycles",
        "load_cycles",
        "merge_cycles",
        "sync_cycles",
        "read_hits",
        "write_hits",
        "read_misses",
        "write_misses",
        "upgrade_misses",
        "merge_stalls",
        "lat_local_clean",
        "lat_local_dirty_remote",
        "lat_remote_clean",
        "lat_remote_dirty_third",
        "invalidations",
        "evictions",
        "writebacks",
        "local_satisfied",
        "bus_transfers",
        "bus_invalidations",
        "read_miss_rate",
    ];
    let path = std::env::temp_dir().join(format!("appstats-{}.json", std::process::id()));
    let out = paper_run(&[
        "--figure",
        "appstats",
        "--small",
        "--procs",
        "8",
        "--format",
        "json",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let doc = simcore::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("manifest has a metrics object");
    };
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
    assert_eq!(runs.len(), cluster_study::apps::FIG2_APPS.len());
    for run in runs {
        let app = run.get("app").and_then(Json::as_str).unwrap();
        let prefix = format!("{app}.");
        let keys: Vec<&str> = metrics
            .iter()
            .filter_map(|(k, _)| k.strip_prefix(&prefix))
            .collect();
        assert_eq!(keys, KEYS, "{app}'s metric key set");
        let counter = |k: &str| {
            let key = format!("{app}.{k}");
            let value = metrics.iter().find(|(name, _)| *name == key);
            value.and_then(|(_, v)| v.as_u64()).expect("a counter")
        };
        assert_eq!(
            counter("exec_time_cycles"),
            run.get("exec_time_cycles").and_then(Json::as_u64).unwrap(),
            "{app}"
        );
        assert_eq!(
            (counter("clusters"), counter("per_cluster")),
            (8, 1),
            "{app}"
        );
        // Every processor reaches every barrier, the trailing one too.
        let barriers = counter("trace_barriers");
        assert!(
            barriers > 0 && barriers % 8 == 0,
            "{app}: {barriers} barriers"
        );
        assert!(counter("trace_reads") > 0, "{app}");
    }
}
