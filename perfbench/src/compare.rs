//! `perfbench compare A.json B.json`: each end-to-end metric's median
//! in set B against set A, per workload, as a relative change against
//! the bound `BENCHMARK.json` fixes for it. The comparison fails on a
//! metric outside its bound, on a workload missing from B, on any
//! report that is not correct, and on sets measured for different
//! lengths of time.

use std::collections::{BTreeMap, BTreeSet};

use simcore::Json;

use crate::util::{median, package_dir};

/// The repository's `BENCHMARK.json`.
pub fn benchmark_json() -> Result<Json, String> {
    let path = package_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    simcore::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// How long one run measures unless `--seconds` says otherwise:
/// `run_seconds` in `BENCHMARK.json`.
pub fn run_seconds() -> Result<f64, String> {
    benchmark_json()?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// The untraced reports in a report or set file, by workload.
fn load(path: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = simcore::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let reports = match doc.get("reports").and_then(Json::as_arr) {
        Some(rs) => rs.to_vec(),
        None => vec![doc],
    };
    let mut by_workload: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for r in reports {
        if r.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let name = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: a report names no workload"))?
            .to_string();
        by_workload.entry(name).or_default().push(r);
    }
    Ok(by_workload)
}

fn values(reports: &[Json], metric: &str) -> Vec<f64> {
    reports
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How many of `reports` are not correct runs.
fn incorrect(reports: &[Json]) -> usize {
    reports
        .iter()
        .filter(|r| r.get("correct").and_then(Json::as_bool) != Some(true))
        .count()
}

/// The distinct run lengths of a set's reports.
fn run_lengths(set: &BTreeMap<String, Vec<Json>>) -> BTreeSet<String> {
    set.values()
        .flatten()
        .map(|r| match r.get("seconds").and_then(Json::as_f64) {
            Some(s) => format!("{s} s"),
            None => "unknown".to_string(),
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`: positive is a
/// regression whichever direction is better.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let rel = (b - a) / a;
    if lower_is_better {
        rel
    } else {
        -rel
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes two report or set files".to_string());
    };
    let bench = benchmark_json()?;
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  (A: {a_path}, B: {b_path})",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut ok = true;
    let (la, lb) = (run_lengths(&a), run_lengths(&b));
    if la.len() != 1 || la != lb {
        println!("run lengths differ: A {la:?}, B {lb:?}");
        ok = false;
    }
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else {
            println!("{workload:<16} only in A");
            ok = false;
            continue;
        };
        let (ia, ib) = (incorrect(ra), incorrect(rb));
        if ia + ib > 0 {
            println!(
                "{workload:<16} incorrect runs: {ia} of {} in A, {ib} of {} in B",
                ra.len(),
                rb.len()
            );
            ok = false;
        }
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (values(ra, name), values(rb, name));
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {name:<14} missing");
                ok = false;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = worsening(ma, mb, lower);
            let within = worse <= bound;
            ok &= within;
            println!(
                "{workload:<16} {name:<14} {ma:>14.6} {mb:>14.6} {:>8.2}% {:>6.1}%  {} ({}+{} runs)",
                worse * 100.0,
                bound * 100.0,
                if within { "ok" } else { "OUTSIDE BOUND" },
                va.len(),
                vb.len()
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload:<16} only in B");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An untraced report naming every end-to-end metric.
    fn report(workload: &str, seconds: f64, failed: u64) -> Json {
        let bench = benchmark_json().expect("BENCHMARK.json parses");
        let metrics = bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end list")
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("metric name");
                (name.to_string(), Json::obj().with("value", 1.0))
            })
            .collect();
        Json::obj()
            .with("workload", workload)
            .with("seconds", seconds)
            .with("trace", false)
            .with("correct", failed == 0)
            .with("attempted", 10u64)
            .with("failed", failed)
            .with("metrics", Json::Obj(metrics))
    }

    /// Runs `compare` on two sets written to files.
    fn compare(a: Vec<Json>, b: Vec<Json>) -> bool {
        let dir = crate::util::scratch_dir("compare");
        let paths: Vec<String> = [a, b]
            .into_iter()
            .enumerate()
            .map(|(i, reports)| {
                let path = dir.join(format!("set{i}.json"));
                let set = Json::obj().with("reports", reports);
                cluster_study::write_atomic(&path, set.pretty().as_bytes()).expect("set written");
                path.display().to_string()
            })
            .collect();
        let ok = main(&paths).expect("compare runs");
        std::fs::remove_dir_all(&dir).expect("scratch removed");
        ok
    }

    #[test]
    fn compare_fails_on_missing_incorrect_or_differently_timed_runs() {
        let seconds = run_seconds().expect("run_seconds");
        assert!(seconds >= 1.0);
        let good = |w| report(w, seconds, 0);
        assert!(compare(
            vec![good("x"), good("y")],
            vec![good("y"), good("x")]
        ));
        assert!(!compare(vec![good("x"), good("y")], vec![good("x")]));
        assert!(!compare(vec![good("x")], vec![report("x", seconds, 1)]));
        assert!(!compare(vec![report("x", seconds, 1)], vec![good("x")]));
        assert!(!compare(
            vec![good("x")],
            vec![report("x", seconds + 1.0, 0)]
        ));
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, false) - 0.1).abs() < 1e-12);
    }
}
