//! Crash-resume contract of the one durable cell log, end to end: a
//! study recording into the `cluster_serve` result store
//! (`paper_run --cache DIR`) and killed after *any* prefix of its
//! appends resumes, over the same store, to a final manifest whose
//! deterministic stats view is byte-identical to an uninterrupted
//! run's — re-executing only the missing cells. Plus property
//! coverage of the store's entry lines and its torn-final-line
//! healing.

use std::path::{Path, PathBuf};
use std::time::Duration;

use cluster_bench::{cache_prefill, cache_sink};
use cluster_serve::store::{
    scan_store, scan_store_dir, shard_file_name, KeyMode, ResultStore, StoreConfig, StoreEntry,
};
use cluster_study::manifest::Manifest;
use cluster_study::parallel::RunStatus;
use cluster_study::study::{StudyRun, StudySpec};
use cluster_study::JournalEntry;
use coherence::config::CacheSpec;
use simcore::propcheck::{self, shrink_u64, Gen};
use simcore::sample::{SampleMode, SampleSpec};
use simcore::stats::{Breakdown, MissStats, RunStats};
use simcore::{prop_ensure, prop_ensure_eq};
use splash::ProblemSize;

const APPS: [&str; 2] = ["lu", "fft"];
const CACHES: [CacheSpec; 2] = [CacheSpec::PerProcBytes(4096), CacheSpec::Infinite];
const SIZES: [u32; 3] = [1, 2, 8];
const PROCS: usize = 8;
const TOTAL_SIMS: usize = APPS.len() * CACHES.len() * SIZES.len();

fn spec() -> StudySpec<'static> {
    StudySpec::generate(&APPS, ProblemSize::Small, PROCS)
        .caches(CACHES)
        .cluster_sizes(&SIZES)
        .jobs(1)
}

/// Runs the study over `store` the way `paper_run --cache` does:
/// every recorded cell is served, every fresh cell is recorded.
fn run_over(store: &ResultStore) -> StudyRun {
    let sink = cache_sink(store, "small", PROCS, None);
    spec()
        .cache_prefill(cache_prefill(store, &APPS, "small", PROCS, None))
        .on_complete(&sink)
        .run_with(|_| {})
}

fn manifest_of(run: &StudyRun) -> Manifest {
    let mut m = Manifest::new("resume_from_store", "small", PROCS, 1);
    for (name, cap) in run.names.iter().zip(run.per_trace()) {
        for sweep in &cap.sweeps {
            m.record_sweep(name, sweep, None);
        }
    }
    m
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clustered-smp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline property: for **every** prefix length k of the
/// store's appends — i.e. a kill at any instant between appends —
/// rerunning over the store serves exactly k cells, re-executes
/// exactly the missing `TOTAL_SIMS - k`, reconstructs a byte-identical
/// stats view, and leaves the store holding every cell once.
#[test]
fn resume_from_any_store_prefix_reconstructs_identical_manifest() {
    let dir = temp_dir("resume-store-prop");

    // The uninterrupted reference run, capturing the append order.
    let appended = std::sync::Mutex::new(Vec::new());
    let full = ResultStore::open(&dir.join("full")).unwrap();
    let record = cache_sink(&full, "small", PROCS, None);
    let sink = |e: &JournalEntry| {
        record(e);
        appended.lock().unwrap().push(e.clone());
    };
    let run = spec().on_complete(&sink).run_with(|_| {});
    let reference = manifest_of(&run).stats_json().to_string();
    let entries = appended.into_inner().unwrap();
    assert_eq!(entries.len(), TOTAL_SIMS, "every sim is recorded");
    assert_eq!(full.counters().entries, TOTAL_SIMS);

    for k in 0..=TOTAL_SIMS {
        let path = dir.join(format!("prefix_{k}"));
        {
            // The store a kill after the k-th append leaves behind.
            let store = ResultStore::open(&path).unwrap();
            let record = cache_sink(&store, "small", PROCS, None);
            entries[..k].iter().for_each(&record);
        }
        let store = ResultStore::open(&path).unwrap();
        let resumed = run_over(&store);
        assert!(resumed.is_complete(), "prefix {k}: resume incomplete");
        assert_eq!(resumed.cached_cells(), k, "prefix {k}: served cells");
        assert_eq!(
            resumed.timing.items,
            TOTAL_SIMS - k,
            "prefix {k}: only missing cells re-execute"
        );
        assert_eq!(
            manifest_of(&resumed).stats_json().to_string(),
            reference,
            "prefix {k}: stats view diverged from the uninterrupted run"
        );
        drop(store);
        // The log is whole again: every cell present once, on disk.
        let (after, torn) = scan_store_dir(&path).unwrap();
        assert!(!torn, "prefix {k}: torn store");
        assert_eq!(after.len(), TOTAL_SIMS, "prefix {k}: store completeness");
        let mut keys: Vec<&str> = after.iter().map(|e| e.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), TOTAL_SIMS, "prefix {k}: duplicate store keys");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A rerun over a complete store executes *nothing* — not even trace
/// generation — and still reproduces the reference bytes.
#[test]
fn resume_from_complete_store_executes_nothing() {
    let dir = temp_dir("resume-store-full");
    let store = ResultStore::open(&dir).unwrap();
    let run = run_over(&store);
    assert_eq!(run.timing.items, TOTAL_SIMS);
    let reference = manifest_of(&run).stats_json().to_string();
    drop(store);

    let store = ResultStore::open(&dir).unwrap();
    let resumed = spec()
        .cache_prefill(cache_prefill(&store, &APPS, "small", PROCS, None))
        .run_with(|e| panic!("nothing may execute over a complete store: {e:?}"));
    assert_eq!(resumed.cached_cells(), TOTAL_SIMS);
    assert_eq!(resumed.timing.items, 0, "no simulation re-executed");
    assert_eq!(manifest_of(&resumed).stats_json().to_string(), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// The store key binds the study shape, so a store filled by one
/// shape serves nothing to another — the check a per-file header
/// would make, implied by every key: a different processor count,
/// problem size or sampling spec misses every cell.
#[test]
fn store_cells_of_another_shape_never_serve() {
    let dir = temp_dir("resume-store-shape");
    let store = ResultStore::open(&dir).unwrap();
    run_over(&store);
    assert_eq!(store.counters().entries, TOTAL_SIMS);
    for (size, procs) in [("small", PROCS / 2), ("paper", PROCS)] {
        let served = cache_prefill(&store, &APPS, size, procs, None);
        assert!(served.is_empty(), "{size}/{procs} served {served:?}");
    }
    let sampled = SampleSpec::new(SampleMode::Periodic).key_label();
    assert!(cache_prefill(&store, &APPS, "small", PROCS, Some(&sampled)).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

fn entry_with(app: &str, cache: &str, cluster: u32, salt: u64) -> JournalEntry {
    JournalEntry {
        app: app.to_string(),
        cache: cache.to_string(),
        cluster,
        stats: RunStats {
            per_proc: vec![Breakdown {
                cpu: salt,
                load: salt / 3,
                merge: 1,
                sync: 2,
            }],
            mem: MissStats {
                read_hits: salt,
                write_hits: 1,
                read_misses: 2,
                write_misses: 3,
                upgrade_misses: 4,
                merge_stalls: 5,
                by_latency: [salt, 1, 2, 3],
                invalidations: 6,
                evictions: 7,
                writebacks: 8,
                local_satisfied: 9,
                bus_transfers: 10,
                bus_invalidations: 11,
            },
            exec_time: salt + 1,
        },
        // Multiples of 1/4 s are exact in binary, so the f64
        // wall_seconds round-trips bit-exactly through the JSON text.
        wall: salt
            .is_multiple_of(2)
            .then(|| Duration::from_millis((salt % 64) * 250)),
        status: match salt % 3 {
            0 => RunStatus::Ok,
            1 => RunStatus::Retried,
            _ => RunStatus::Timeout,
        },
        attempts: (salt % 4) as u32 + 1,
        sampling: None,
    }
}

fn gen_entries(g: &mut Gen, max: usize) -> Vec<JournalEntry> {
    g.vec_of(0..max, |g| {
        let app = g.pick(&["lu", "fft", "ocean", "mp3d"]);
        let cache = g.pick(&["4k", "16k", "32k", "inf"]);
        let cluster = g.pick(&[1u32, 2, 4, 8]);
        entry_with(app, cache, cluster, g.u64_in(0..1_000_000))
    })
}

/// A one-shard store, so every entry lands in `shard-000.jsonl`.
fn one_shard(dir: &Path) -> ResultStore {
    let cfg = StoreConfig {
        shards: 1,
        byte_budget: None,
        mode: KeyMode::Full,
    };
    ResultStore::open_with_config(dir, cfg).unwrap()
}

/// Records `entries` under distinct keys (the i-th entry under key
/// `i`), returning the keys.
fn record_all(store: &ResultStore, entries: &[JournalEntry]) -> Vec<String> {
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let key = format!("{i:032x}");
            assert!(store.record(&key, "small", PROCS, e).unwrap());
            key
        })
        .collect()
}

/// The store's entry lines round-trip arbitrary entries exactly,
/// whatever the statuses, walls and counter values, across a reopen.
#[test]
fn prop_store_roundtrips_arbitrary_entries() {
    let dir = temp_dir("store-roundtrip-prop");
    propcheck::check(
        "store-entry-roundtrip",
        |g: &mut Gen| gen_entries(g, 20),
        |v| propcheck::halves(v.as_slice()),
        |entries| {
            let _ = std::fs::remove_dir_all(&dir);
            let keys = record_all(&one_shard(&dir), entries);
            let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
            prop_ensure_eq!(store.counters().entries, entries.len());
            for (key, e) in keys.iter().zip(entries) {
                let back = store.peek(key).ok_or(format!("key {key} lost"))?;
                prop_ensure_eq!(&back.cell, e);
            }
            Ok(())
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Torn-tail property: an append can be killed mid-`write(2)`,
/// leaving any byte-prefix of the shard's final line. For arbitrary
/// entries and an arbitrary cut point, `scan_store` returns exactly
/// the clean prefix, and `ResultStore::open` heals the shard so strict
/// scanning and appending both work again.
#[test]
fn prop_open_heals_any_torn_final_line() {
    let dir = temp_dir("store-torn-prop");
    propcheck::check(
        "store-torn-final-line",
        |g: &mut Gen| (gen_entries(g, 8), g.u64_in(0..200) as usize),
        |(entries, cut)| {
            let mut out: Vec<(Vec<JournalEntry>, usize)> = shrink_u64(*cut as u64)
                .into_iter()
                .map(|c| (entries.clone(), c as usize))
                .collect();
            out.extend(
                propcheck::halves(entries.as_slice())
                    .into_iter()
                    .map(|e| (e, *cut)),
            );
            out
        },
        |(entries, cut)| {
            let _ = std::fs::remove_dir_all(&dir);
            record_all(&one_shard(&dir), entries);
            let shard = dir.join(shard_file_name(0));
            let clean = std::fs::read_to_string(&shard).unwrap();
            // Tear the next append at byte offset `cut`.
            let extra = StoreEntry {
                key: "torn".to_string(),
                size: "small".to_string(),
                procs: PROCS,
                cell: entry_with("mp3d", "16k", 2, 999),
            }
            .to_json()
            .to_string();
            let frag = &extra[..(*cut).min(extra.len() - 1)];
            let torn_text = format!("{clean}{frag}");
            std::fs::write(&shard, &torn_text).unwrap();

            let (back, torn) = scan_store(&torn_text).map_err(|e| e.to_string())?;
            let cells: Vec<JournalEntry> = back.into_iter().map(|e| e.cell).collect();
            prop_ensure_eq!(&cells, entries, "clean prefix must survive");
            prop_ensure_eq!(torn, !frag.is_empty(), "torn-line report (frag {frag:?})");

            // Reopening heals the shard back to the clean prefix...
            let store = ResultStore::open(&dir).map_err(|e| format!("torn open: {e}"))?;
            prop_ensure_eq!(store.counters().entries, entries.len());
            let healed = std::fs::read_to_string(&shard).unwrap();
            prop_ensure!(!healed.contains("\"torn\""), "fragment survived the heal");
            // ...and further appends extend the healed shard.
            store
                .record(
                    "appended",
                    "small",
                    PROCS,
                    &entry_with("water", "inf", 8, 7),
                )
                .map_err(|e| e.to_string())?;
            drop(store);
            let text = std::fs::read_to_string(&shard).unwrap();
            let (after, torn) = scan_store(&text).map_err(|e| e.to_string())?;
            prop_ensure!(!torn, "healed shard must scan strictly");
            prop_ensure_eq!(
                after.len(),
                entries.len() + 1,
                "healed shard holds the new append"
            );
            Ok(())
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}
