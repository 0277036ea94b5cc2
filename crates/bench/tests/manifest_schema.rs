//! Golden-schema tests for the run-manifest layer: the emitted JSON is
//! parsed back with the in-tree `simcore::json` reader and validated
//! field by field, the breakdown-fraction invariant is checked, and
//! the deterministic stats view is asserted **byte-identical** between
//! a `--jobs 1` and a `--jobs 3` run of the same matrix. The
//! checked-in `results/paper_run.json` (regenerated by
//! `paper_run --paper --emit-manifest`) is validated too, so schema
//! drift against the recorded artifact fails in CI.

use std::path::PathBuf;

use cluster_study::manifest::{Manifest, CSV_HEADER, SCHEMA};
use cluster_study::parallel::run_items;
use cluster_study::study::{run_cell, CLUSTER_SIZES};
use coherence::config::CacheSpec;
use simcore::json::{self, Json};
use splash::ProblemSize;

/// Runs a small real simulation matrix (lu, 8 processors, one finite
/// and one infinite cache, all cluster sizes) at the given fan-out and
/// folds it into a manifest.
fn build_manifest(jobs: usize) -> Manifest {
    let trace = cluster_study::apps::trace_for("lu", ProblemSize::Small, 8);
    let caches = [CacheSpec::PerProcBytes(4096), CacheSpec::Infinite];
    let items: Vec<(CacheSpec, u32)> = caches
        .iter()
        .flat_map(|&c| CLUSTER_SIZES.iter().map(move |&n| (c, n)))
        .collect();
    let runs = run_items(&items, jobs, |&(cache, n)| {
        run_cell(&trace, n, cache, None).unwrap().0
    });
    let mut m = Manifest::new("schema_test", "small", 8, jobs);
    for ((cache, n), rs) in items.iter().zip(&runs) {
        m.record_run("lu", &cache.label(), *n, rs, None);
    }
    m.metrics.counter("simulations", runs.len() as u64);
    m
}

/// Asserts every schema-v1 field of one run record, returning the
/// parsed fractions.
fn validate_run(run: &Json) -> Vec<f64> {
    for key in ["app", "cache"] {
        assert!(
            run.get(key).and_then(Json::as_str).is_some(),
            "run missing string field {key}"
        );
    }
    for key in ["cluster", "procs", "exec_time_cycles"] {
        assert!(
            run.get(key).and_then(Json::as_u64).is_some(),
            "run missing integer field {key}"
        );
    }
    let bd = run.get("breakdown_cycles").expect("breakdown_cycles");
    let mut bd_sum = 0u64;
    for key in ["cpu", "load", "merge", "sync"] {
        bd_sum += bd
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("breakdown missing {key}"));
    }
    // The aggregate breakdown accounts for every cycle of every
    // processor: its total is exactly procs × exec_time. Sampled runs
    // keep their warm-replay cycles in the sampling provenance rather
    // than the measured breakdown, so those complete the sum.
    let procs = run.get("procs").and_then(Json::as_u64).unwrap();
    let exec = run.get("exec_time_cycles").and_then(Json::as_u64).unwrap();
    let mut covered = bd_sum;
    if let Some(s) = run.get("sampling") {
        for key in ["warm_cpu_cycles", "warm_load_cycles", "warm_merge_cycles"] {
            covered += s
                .get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("sampling missing {key}"));
        }
    }
    assert_eq!(covered, procs * exec, "breakdown does not cover all cycles");
    let mem = run.get("mem").expect("mem section");
    for key in [
        "read_hits",
        "write_hits",
        "read_misses",
        "write_misses",
        "upgrade_misses",
        "merge_stalls",
        "invalidations",
        "evictions",
        "writebacks",
        "local_satisfied",
        "bus_transfers",
        "bus_invalidations",
    ] {
        assert!(
            mem.get(key).and_then(Json::as_u64).is_some(),
            "mem missing counter {key}"
        );
    }
    assert_eq!(
        mem.get("by_latency")
            .and_then(Json::as_arr)
            .map(|a| a.len()),
        Some(4),
        "by_latency must have the four Table 1 classes"
    );
    let fr = run
        .get("breakdown_fractions")
        .and_then(Json::as_arr)
        .expect("breakdown_fractions");
    assert_eq!(fr.len(), 4);
    // Schema v2: every run in the full view says how its execution
    // went.
    let status = run
        .get("status")
        .and_then(Json::as_str)
        .expect("run missing v2 status");
    assert!(
        ["ok", "retried", "timeout"].contains(&status),
        "unknown run status {status:?}"
    );
    assert!(
        run.get("attempts").and_then(Json::as_u64).is_some(),
        "run missing v2 attempts"
    );
    // Cache-additive fields: manifests written since the serving layer
    // carry result provenance. Recorded artifacts may predate the
    // fields, so they are validated when present, not required — but
    // when one appears the pair must be present and consistent.
    if let Some(served) = run.get("served_by").and_then(Json::as_str) {
        assert!(
            ["sim", "cache"].contains(&served),
            "unknown served_by {served:?}"
        );
        let hit = run
            .get("cache_hit")
            .and_then(Json::as_bool)
            .expect("served_by implies cache_hit");
        assert_eq!(hit, served == "cache", "cache_hit must mirror served_by");
    } else {
        assert!(
            run.get("cache_hit").is_none(),
            "cache_hit without served_by"
        );
    }
    // Sampling-additive fields: present only for sampled runs, and
    // only in the full view. When `sampling` appears, the derived
    // `estimates` / `error_bounds` objects must come with it, each
    // carrying the same metric keys.
    if run.get("sampling").is_some() {
        let est = run.get("estimates").expect("sampling implies estimates");
        let bounds = run
            .get("error_bounds")
            .expect("sampling implies error_bounds");
        for key in ["exec_time_cycles", "read_miss_rate"] {
            assert!(
                est.get(key).and_then(Json::as_f64).is_some(),
                "estimates missing {key}"
            );
            assert!(
                bounds.get(key).and_then(Json::as_f64).is_some(),
                "error_bounds missing {key}"
            );
        }
    } else {
        assert!(run.get("estimates").is_none(), "estimates without sampling");
        assert!(
            run.get("error_bounds").is_none(),
            "error_bounds without sampling"
        );
    }
    fr.iter().map(|f| f.as_f64().expect("fraction")).collect()
}

/// Full-document validation shared by the synthetic and the checked-in
/// manifests. Returns the number of runs.
fn validate_manifest(doc: &Json) -> usize {
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    for key in ["tool", "size", "git", "seed_scheme"] {
        assert!(
            doc.get(key).and_then(Json::as_str).is_some(),
            "manifest missing string field {key}"
        );
    }
    for key in ["procs", "jobs"] {
        assert!(
            doc.get(key).and_then(Json::as_u64).is_some(),
            "manifest missing integer field {key}"
        );
    }
    assert!(doc.get("metrics").is_some(), "manifest missing metrics");
    // Schema v2: the errors section is always present in the full
    // view, so `jq '.errors | length == 0'` is a valid health check.
    assert!(
        doc.get("errors").and_then(Json::as_arr).is_some(),
        "manifest missing v2 errors array"
    );
    // Certification-additive block (written by `cluster_check
    // certify`, DESIGN.md §15): validated when present — manifests
    // from tools that never ran the verification passes omit it.
    if let Some(cert) = doc.get("certification") {
        for key in ["race_checked", "order_certified"] {
            assert!(
                cert.get(key).and_then(Json::as_bool).is_some(),
                "certification missing flag {key}"
            );
        }
        assert!(
            cert.get("events_checked").and_then(Json::as_u64).is_some(),
            "certification missing events_checked"
        );
        assert!(
            cert.get("overhead_ratio").and_then(Json::as_f64).is_some(),
            "certification missing overhead_ratio"
        );
    }
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    for run in runs {
        let fractions = validate_run(run);
        let sum: f64 = fractions.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9 || fractions.iter().all(|&f| f == 0.0),
            "fractions sum to {sum}, neither 1 nor all-zero: {fractions:?}"
        );
    }
    runs.len()
}

#[test]
fn emitted_json_has_every_schema_field() {
    let m = build_manifest(1);
    // Round-trip through the serialized text, exactly as a consumer
    // reads the artifact — both compact and pretty forms.
    for body in [m.to_json().to_string(), m.to_json().pretty()] {
        let doc = json::parse(&body).expect("emitted JSON must parse");
        assert_eq!(validate_manifest(&doc), 8);
        assert_eq!(doc.get("tool").and_then(Json::as_str), Some("schema_test"));
        assert_eq!(
            doc.get("metrics").and_then(|ms| ms.get("simulations")),
            Some(&Json::UInt(8))
        );
    }
}

#[test]
fn sampled_run_records_validate_and_stay_out_of_stats_view() {
    use cluster_study::manifest::ServedBy;
    use cluster_study::parallel::RunStatus;
    use simcore::sample::{SampleMode, SampleSpec};

    let trace = cluster_study::apps::trace_for("lu", ProblemSize::Small, 8);
    let spec = SampleSpec::new(SampleMode::Periodic);
    let (stats, ss) = run_cell(&trace, 1, CacheSpec::Infinite, Some(&spec)).unwrap();
    let mut m = Manifest::new("schema_test", "small", 8, 1);
    m.record_outcome(
        "lu",
        "inf",
        1,
        &stats,
        None,
        RunStatus::Ok,
        1,
        ServedBy::Sim,
        ss,
    );
    let doc = json::parse(&m.to_json().to_string()).unwrap();
    assert_eq!(validate_manifest(&doc), 1);
    let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
    assert!(
        run.get("sampling").is_some(),
        "sampled run keeps provenance"
    );
    // The deterministic stats view stays sampling-free, like the other
    // execution-provenance fields.
    let stats_doc = json::parse(&m.stats_json().to_string()).unwrap();
    let run = &stats_doc.get("runs").and_then(Json::as_arr).unwrap()[0];
    for key in ["sampling", "estimates", "error_bounds"] {
        assert!(run.get(key).is_none(), "{key} leaked into the stats view");
    }
}

#[test]
fn certification_block_validates_and_stays_out_of_stats_view() {
    use cluster_study::manifest::CertificationSummary;

    let mut m = build_manifest(1);
    m.set_certification(CertificationSummary {
        race_checked: true,
        order_certified: true,
        events_checked: 123,
        overhead_ratio: 1.25,
    });
    let doc = json::parse(&m.to_json().to_string()).unwrap();
    assert_eq!(validate_manifest(&doc), 8);
    let cert = doc.get("certification").expect("certification block");
    assert_eq!(cert.get("race_checked").and_then(Json::as_bool), Some(true));
    assert_eq!(cert.get("events_checked").and_then(Json::as_u64), Some(123));
    // The verification outcome describes this execution of the
    // checker, not the simulated machine — it stays out of the
    // deterministic stats view like the other environment fields.
    let stats = json::parse(&m.stats_json().to_string()).unwrap();
    assert!(
        stats.get("certification").is_none(),
        "certification leaked into the stats view"
    );
}

#[test]
fn serial_and_parallel_stats_are_byte_identical() {
    let serial = build_manifest(1);
    let parallel = build_manifest(3);
    // The full manifests differ (jobs provenance), but the
    // deterministic stats view must agree to the byte.
    assert_ne!(serial.to_json().to_string(), parallel.to_json().to_string());
    assert_eq!(
        serial.stats_json().to_string(),
        parallel.stats_json().to_string()
    );
    assert_eq!(serial.stats_json().pretty(), parallel.stats_json().pretty());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn csv_is_rectangular_and_matches_json() {
    let m = build_manifest(1);
    let csv = m.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(CSV_HEADER));
    let n_cols = CSV_HEADER.split(',').count();
    let doc = m.to_json();
    let runs = doc.get("runs").and_then(Json::as_arr).unwrap();
    let mut rows = 0;
    for (row, run) in lines.zip(runs) {
        let cols: Vec<&str> = row.split(',').collect();
        assert_eq!(cols.len(), n_cols, "ragged CSV row: {row}");
        // Spot-check the cycle totals against the JSON record.
        assert_eq!(
            cols[6].parse::<u64>().ok(),
            run.get("exec_time_cycles").and_then(Json::as_u64),
            "CSV exec_time disagrees with JSON"
        );
        rows += 1;
    }
    assert_eq!(rows, runs.len());
}

#[test]
fn checked_in_paper_run_manifest_validates() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/paper_run.json");
    let body = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let doc = json::parse(&body).expect("checked-in manifest must parse");
    // The full paper matrix: 9 applications × 4 caches × 4 cluster
    // sizes on the 64-processor machine.
    assert_eq!(validate_manifest(&doc), 144);
    assert_eq!(doc.get("tool").and_then(Json::as_str), Some("paper_run"));
    assert_eq!(doc.get("size").and_then(Json::as_str), Some("paper"));
    assert_eq!(doc.get("procs").and_then(Json::as_u64), Some(64));
    // The recorded reference run is fault-free: no errors, all ok.
    assert_eq!(
        doc.get("errors").and_then(Json::as_arr).map(|a| a.len()),
        Some(0),
        "checked-in manifest must record a clean run"
    );
    for run in doc.get("runs").and_then(Json::as_arr).unwrap() {
        assert_eq!(run.get("status").and_then(Json::as_str), Some("ok"));
    }
    let timing = doc.get("timing").expect("paper_run records fan-out timing");
    for key in [
        "items",
        "jobs",
        "cumulative_seconds",
        "wall_seconds",
        "speedup",
        "utilization",
        "gen_wall_seconds",
        "sim_wall_seconds",
        "serial_estimate_seconds",
        "wall_speedup",
    ] {
        assert!(timing.get(key).is_some(), "timing missing {key}");
    }
    assert_eq!(timing.get("items").and_then(Json::as_u64), Some(144));
}
