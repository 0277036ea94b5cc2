//! Small shared pieces: sample statistics, peak RSS, the output
//! directory, and the ledger that counts operations and checks every
//! result against the recorded fingerprints.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use simcore::Json;

/// The benchmark package directory. Everything the benchmark writes
/// goes under `out/` in it, so a run stays inside its checkout.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Reports, span files and scratch stores.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// A fresh, empty scratch directory under [`out_dir`], unique within
/// this process.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = out_dir().join(format!("tmp-{}-{tag}-{n}", std::process::id()));
    // A leftover from a killed run with the same pid; start clean.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs` (unsorted). `NaN`
/// for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value was computed from.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Where the recorded fingerprints live.
pub fn fingerprint_path() -> PathBuf {
    package_dir().join("fingerprints.json")
}

const FINGERPRINT_SCHEMA: &str = "perfbench/fingerprints/v1";

/// Counts attempted and failed operations and checks each result's
/// fingerprint against the recorded set — or, when recording, collects
/// the fingerprints instead.
pub struct Ledger {
    attempted: AtomicU64,
    failed: AtomicU64,
    known: BTreeMap<String, String>,
    recording: bool,
    seen: Mutex<BTreeMap<String, String>>,
}

impl Ledger {
    /// A ledger that checks against `fingerprints.json`.
    pub fn checking() -> Result<Ledger, String> {
        let path = fingerprint_path();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = simcore::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(FINGERPRINT_SCHEMA) {
            return Err(format!(
                "{}: not a {FINGERPRINT_SCHEMA} file",
                path.display()
            ));
        }
        let mut known = BTreeMap::new();
        if let Some(Json::Obj(pairs)) = doc.get("cells") {
            for (k, v) in pairs {
                let v = v
                    .as_str()
                    .ok_or_else(|| format!("fingerprint of {k} is not a string"))?;
                known.insert(k.clone(), v.to_string());
            }
        }
        Ok(Ledger::new(known, false))
    }

    /// A ledger that records every fingerprint it sees.
    pub fn recording() -> Ledger {
        Ledger::new(BTreeMap::new(), true)
    }

    fn new(known: BTreeMap<String, String>, recording: bool) -> Ledger {
        Ledger {
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            known,
            recording,
            seen: Mutex::new(BTreeMap::new()),
        }
    }

    /// Counts one operation on the cell `key`: its result's
    /// fingerprint, or the error it ended with.
    pub fn op(&self, key: &str, result: Result<String, String>) {
        self.count(key, result.map(|fp| self.check(key, fp)));
    }

    /// Counts one operation that has no fingerprint of its own.
    pub fn plain(&self, what: &str, result: Result<(), String>) {
        self.count(what, result.map(|()| true));
    }

    fn count(&self, what: &str, result: Result<bool, String>) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        let ok = result.unwrap_or_else(|e| {
            eprintln!("perfbench: {what}: {e}");
            false
        });
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn check(&self, key: &str, fp: String) -> bool {
        let mut seen = self
            .seen
            .lock()
            .expect("ledger lock poisoned by a panicking worker");
        if let Some(prev) = seen.get(key) {
            if *prev != fp {
                eprintln!("perfbench: {key}: result changed between repeats ({prev} vs {fp})");
                return false;
            }
        }
        seen.insert(key.to_string(), fp.clone());
        if self.recording {
            return true;
        }
        match self.known.get(key) {
            Some(want) if *want == fp => true,
            Some(want) => {
                eprintln!("perfbench: {key}: fingerprint {fp}, recorded {want}");
                false
            }
            None => {
                eprintln!("perfbench: {key}: no recorded fingerprint (run `perfbench record`)");
                false
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Every fingerprint seen, for `perfbench record`.
    pub fn seen(&self) -> BTreeMap<String, String> {
        self.seen
            .lock()
            .expect("ledger lock poisoned by a panicking worker")
            .clone()
    }
}

/// Writes `cells` as the fingerprint file.
pub fn write_fingerprints(cells: &BTreeMap<String, String>) -> std::io::Result<()> {
    let map = Json::Obj(
        cells
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
            .collect(),
    );
    let doc = Json::obj()
        .with("schema", FINGERPRINT_SCHEMA)
        .with("cells", map);
    cluster_study::write_atomic(&fingerprint_path(), doc.pretty().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
