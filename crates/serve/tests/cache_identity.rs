//! The serving layer's load-bearing property: a cell served from the
//! content-addressed cache is *byte-identical* to a fresh
//! `cluster_study` simulation of the same inputs — across arbitrary
//! small job specs, across a server restart, and with the second
//! submission marked `cache_hit`.
//!
//! Plus the planted-bug shrink test the issue demands: a deliberately
//! weakened key derivation ([`KeyMode::Truncated`]) makes distinct
//! cells collide; the property harness must catch the collision and
//! shrink it to a minimal pair of specs, and the collision must be
//! *observable* — the weak store serves the wrong cell's statistics.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use cluster_serve::store::{cell_key, KeyMode, ResultStore, StoreConfig};
use cluster_serve::{serve_connection, ServeOptions, ServeState};
use cluster_study::manifest::{RunRecord, ServedBy};
use cluster_study::parallel::RunStatus;
use cluster_study::run_cell;
use cluster_study::JournalEntry;
use coherence::config::CacheSpec;
use simcore::propcheck::{self, drop_each, halves_and_each, shrink_to_minimal, shrink_u64, Gen};
use simcore::{prop_ensure, prop_ensure_eq, Json};
use splash::ProblemSize;

const APPS: [&str; 3] = ["lu", "fft", "radix"];
const CACHE_LABELS: [&str; 3] = ["inf", "4k", "16k"];

static CASE_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let n = CASE_SEQ.fetch_add(1, Ordering::SeqCst);
    let d = std::env::temp_dir().join(format!("serve-identity-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn drive(state: &ServeState, input: &str) -> Vec<Json> {
    let mut r = std::io::Cursor::new(input.as_bytes().to_vec());
    let mut out: Vec<u8> = Vec::new();
    serve_connection(state, &mut r, &mut out).expect("in-memory transport");
    String::from_utf8(out)
        .expect("UTF-8 responses")
        .lines()
        .map(|l| simcore::json::parse(l).expect("response parses"))
        .collect()
}

/// One randomly drawn job spec, kept small enough that a property
/// case is a handful of sub-second simulations.
#[derive(Debug, Clone, PartialEq)]
struct SpecCase {
    app: usize,
    procs: usize,
    caches: Vec<usize>,
    clusters: Vec<u32>,
}

impl SpecCase {
    fn request(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|&i| format!("\"{}\"", CACHE_LABELS[i]))
            .collect();
        let clusters: Vec<String> = self.clusters.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"op\":\"run\",\"spec\":{{\"app\":\"{}\",\"procs\":{},\"caches\":[{}],\"clusters\":[{}]}}}}\n",
            APPS[self.app],
            self.procs,
            caches.join(","),
            clusters.join(",")
        )
    }
}

fn gen_case(g: &mut Gen) -> SpecCase {
    let mut caches = g.vec_of(1..3, |g| g.usize_in(0..CACHE_LABELS.len()));
    caches.sort_unstable();
    caches.dedup();
    let procs = g.pick(&[2usize, 4, 8]);
    // Cluster sizes must tile the machine (the protocol enforces it).
    let divisors: Vec<u32> = [1u32, 2, 4, 8]
        .into_iter()
        .filter(|&c| procs.is_multiple_of(c as usize))
        .collect();
    let mut clusters = g.vec_of(1..3, |g| g.pick(&divisors));
    clusters.sort_unstable();
    clusters.dedup();
    SpecCase {
        app: g.usize_in(0..APPS.len()),
        procs,
        caches,
        clusters,
    }
}

fn shrink_case(c: &SpecCase) -> Vec<SpecCase> {
    let mut out = Vec::new();
    if c.app > 0 {
        out.push(SpecCase {
            app: 0,
            ..c.clone()
        });
    }
    if c.procs > 2
        && c.clusters
            .iter()
            .all(|&cl| (c.procs / 2).is_multiple_of(cl as usize))
    {
        out.push(SpecCase {
            procs: c.procs / 2,
            ..c.clone()
        });
    }
    for caches in drop_each(&c.caches) {
        if !caches.is_empty() {
            out.push(SpecCase {
                caches,
                ..c.clone()
            });
        }
    }
    for clusters in drop_each(&c.clusters) {
        if !clusters.is_empty() {
            out.push(SpecCase {
                clusters,
                ..c.clone()
            });
        }
    }
    out
}

/// The stats view a *direct* `cluster_study` run would put in the
/// manifest for this cell — the reference the serve path must match
/// byte for byte.
fn direct_stats(app: &str, trace: &simcore::ops::Trace, cache: CacheSpec, cluster: u32) -> String {
    let stats = run_cell(trace, cluster, cache, None).unwrap().0;
    let rec = RunRecord {
        app: app.to_string(),
        cache: cache.label(),
        cluster,
        stats,
        wall: None,
        status: RunStatus::Ok,
        attempts: 1,
        served_by: ServedBy::Sim,
        sampling: None,
    };
    rec.to_json(false).to_string()
}

#[test]
fn served_cells_match_direct_study_runs_byte_for_byte() {
    propcheck::check_cases(
        6,
        "serve/cache-identity",
        gen_case,
        shrink_case,
        |case: &SpecCase| {
            let dir = tmp_dir("prop");
            let app = APPS[case.app];
            let opts = ServeOptions {
                jobs: 2,
                max_line: 1 << 16,
                queue: 2,
                op_budget: 256,
            };
            let request = case.request();

            // First submission: everything simulates fresh.
            let st = ServeState::new(ResultStore::open(&dir).map_err(|e| e.to_string())?, opts);
            let first = drive(&st, &request);
            prop_ensure_eq!(first.len(), 1);
            prop_ensure_eq!(
                first[0].get("ok").and_then(Json::as_bool),
                Some(true),
                "first run response: {}",
                first[0]
            );
            let trace = splash::by_name(app, ProblemSize::Small)
                .ok_or("app registry")?
                .generate(case.procs);
            let cells = first[0]
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("cells")?;
            prop_ensure_eq!(cells.len(), case.caches.len() * case.clusters.len());
            let mut i = 0;
            for &ci in &case.caches {
                for &cluster in &case.clusters {
                    let cell = &cells[i];
                    i += 1;
                    let cache =
                        cluster_serve::protocol::parse_cache(CACHE_LABELS[ci]).ok_or("cache")?;
                    prop_ensure_eq!(
                        cell.get("cache_hit").and_then(Json::as_bool),
                        Some(false),
                        "fresh store must simulate"
                    );
                    let served = cell.get("stats").ok_or("stats")?.to_string();
                    let direct = direct_stats(app, &trace, cache, cluster);
                    prop_ensure_eq!(
                        served,
                        direct,
                        "served stats must be byte-identical to a direct run \
                         ({app} {} cluster {cluster})",
                        CACHE_LABELS[ci]
                    );
                }
            }

            // Second submission on the same server: pure cache hits,
            // byte-identical payloads.
            let second = drive(&st, &request);
            let again = second[0]
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("cells")?;
            for (a, b) in cells.iter().zip(again) {
                prop_ensure_eq!(b.get("cache_hit").and_then(Json::as_bool), Some(true));
                prop_ensure_eq!(b.get("served_by").and_then(Json::as_str), Some("cache"));
                prop_ensure_eq!(
                    a.get("stats").map(Json::to_string),
                    b.get("stats").map(Json::to_string),
                    "cache hit must not perturb a single byte"
                );
            }

            // Restarted server over the same directory: the disk copy,
            // not the memory map, is what serves.
            let st2 = ServeState::new(ResultStore::open(&dir).map_err(|e| e.to_string())?, opts);
            let third = drive(&st2, &request);
            let reopened = third[0]
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("cells")?;
            for (a, b) in cells.iter().zip(reopened) {
                prop_ensure_eq!(b.get("cache_hit").and_then(Json::as_bool), Some(true));
                prop_ensure_eq!(
                    a.get("stats").map(Json::to_string),
                    b.get("stats").map(Json::to_string),
                    "restart must not perturb a single byte"
                );
            }

            // Eviction step: reopen under a byte budget small enough
            // to force evictions at open, then re-drive. Evicted cells
            // miss and recompute, survivors still hit — and either way
            // the payload is bit-identical to the original run.
            let full_bytes = st2.store().counters().bytes;
            let budget = (full_bytes / 2).max(1);
            drop(st2);
            let st3 = ServeState::new(
                ResultStore::open_with_config(
                    &dir,
                    StoreConfig {
                        byte_budget: Some(budget),
                        ..StoreConfig::default()
                    },
                )
                .map_err(|e| e.to_string())?,
                opts,
            );
            let evicted = st3.store().counters().evictions;
            prop_ensure!(
                evicted > 0,
                "budget {budget} of {full_bytes} bytes must evict something"
            );
            let fourth = drive(&st3, &request);
            let after = fourth[0]
                .get("cells")
                .and_then(Json::as_arr)
                .ok_or("cells")?;
            let mut resimulated = 0u64;
            for (a, b) in cells.iter().zip(after) {
                if b.get("cache_hit").and_then(Json::as_bool) == Some(false) {
                    resimulated += 1;
                }
                prop_ensure_eq!(
                    a.get("stats").map(Json::to_string),
                    b.get("stats").map(Json::to_string),
                    "eviction must be loss-correct: a recomputed cell is \
                     bit-identical to the evicted one"
                );
            }
            prop_ensure!(
                resimulated >= evicted,
                "every cell evicted at open ({evicted}) must resimulate \
                 (saw {resimulated})"
            );
            std::fs::remove_dir_all(&dir).ok();
            Ok(())
        },
    );
}

#[test]
fn full_keys_never_collide_across_the_study_matrix() {
    let mut seen = std::collections::HashMap::new();
    for app in APPS {
        for size in ["small", "paper"] {
            for procs in [2usize, 4, 8, 64] {
                for cache in ["inf", "4k", "16k", "32k"] {
                    for cluster in [1u32, 2, 4, 8] {
                        let k = cell_key(app, size, procs, cache, cluster);
                        if let Some(prev) =
                            seen.insert(k.clone(), (app, size, procs, cache, cluster))
                        {
                            panic!(
                                "key collision: {prev:?} vs {:?} on {k}",
                                (app, size, procs, cache, cluster)
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Entry whose stats don't matter — only which *cell* it claims to be.
fn marker_entry(cluster: u32) -> JournalEntry {
    let trace = splash::by_name("lu", ProblemSize::Small)
        .expect("registry")
        .generate(2);
    JournalEntry {
        app: "lu".to_string(),
        cache: "inf".to_string(),
        cluster,
        stats: run_cell(&trace, 1, CacheSpec::Infinite, None).unwrap().0,
        wall: None,
        status: RunStatus::Ok,
        attempts: 1,
        sampling: None,
    }
}

fn weak_key(cluster: u32) -> String {
    cell_key("lu", "small", 2, "inf", cluster)[..1].to_string()
}

/// The planted bug: with keys truncated to one hex digit, distinct
/// cells collide. The harness must (a) detect the collision as a
/// property failure and (b) shrink every counterexample down to a
/// minimal pair of specs that still collide.
#[test]
fn planted_key_collision_is_caught_and_shrunk_to_a_minimal_spec_pair() {
    // Property: distinct cells get distinct keys. True for the real
    // (full) key, false by construction for the truncated one.
    let prop = |clusters: &Vec<u64>| -> Result<(), String> {
        let mut distinct = clusters.clone();
        distinct.sort_unstable();
        distinct.dedup();
        for (i, &a) in distinct.iter().enumerate() {
            for &b in &distinct[i + 1..] {
                prop_ensure!(
                    weak_key(a as u32) != weak_key(b as u32),
                    "cells cluster={a} and cluster={b} share a store key"
                );
            }
        }
        Ok(())
    };
    let gen = |g: &mut Gen| g.vec_of(8..17, |g| g.u64_in(1..65));
    let mut found = 0;
    for seed in 0..40u64 {
        let case = gen(&mut Gen::from_seed(seed));
        let Err(first_err) = prop(&case) else {
            continue;
        };
        found += 1;
        let (minimal, err, _) = shrink_to_minimal(
            case.clone(),
            first_err,
            |v| {
                let mut cands = halves_and_each(v, |&x| shrink_u64(x));
                cands.extend(drop_each(v));
                cands
            },
            prop,
            10_000,
        );
        // Minimal counterexample: exactly two distinct specs whose
        // truncated keys collide while their full keys do not.
        let mut d = minimal.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(
            d.len(),
            2,
            "seed {seed}: {case:?} shrank to {minimal:?} ({err}), not a minimal pair"
        );
        let (a, b) = (d[0] as u32, d[1] as u32);
        assert_eq!(weak_key(a), weak_key(b), "the pair still collides");
        assert_ne!(
            cell_key("lu", "small", 2, "inf", a),
            cell_key("lu", "small", 2, "inf", b),
            "full keys must distinguish what the planted bug conflates"
        );
    }
    assert!(
        found >= 10,
        "generator found only {found} colliding cases out of 40 seeds"
    );
}

/// The collision is not an abstract property violation: a store built
/// on truncated keys observably serves the *wrong cell's* results,
/// while the full-key store keeps the cells apart.
#[test]
fn weak_store_serves_wrong_cell_full_store_does_not() {
    // Find the smallest colliding cluster pair under the weak key.
    let mut by_key: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
    let mut pair = None;
    for c in 1..=64u32 {
        if let Some(&prev) = by_key.get(&weak_key(c)) {
            pair = Some((prev, c));
            break;
        }
        by_key.insert(weak_key(c), c);
    }
    let (a, b) = pair.expect("1-hex-digit keys collide within 64 cells");

    let weak_dir = tmp_dir("weak");
    let weak = ResultStore::open_with_mode(&weak_dir, KeyMode::Truncated(1)).expect("open");
    let ka = weak.key("lu", "small", 2, "inf", a);
    let kb = weak.key("lu", "small", 2, "inf", b);
    assert_eq!(ka, kb, "the planted bug conflates the two cells");
    let (got_a, hit_a) = weak
        .serve_cell(&ka, "small", 2, || marker_entry(a))
        .expect("serve");
    assert!(!hit_a);
    assert_eq!(got_a.cluster, a);
    let (got_b, hit_b) = weak
        .serve_cell(&kb, "small", 2, || marker_entry(b))
        .expect("serve");
    assert!(hit_b, "the colliding cell is (wrongly) a cache hit");
    assert_eq!(
        got_b.cluster, a,
        "the weak store hands cell {b} the results of cell {a}"
    );

    let full_dir = tmp_dir("full");
    let full = ResultStore::open(&full_dir).expect("open");
    let ka = full.key("lu", "small", 2, "inf", a);
    let kb = full.key("lu", "small", 2, "inf", b);
    assert_ne!(ka, kb);
    let (_, hit_a) = full
        .serve_cell(&ka, "small", 2, || marker_entry(a))
        .expect("serve");
    let (got_b, hit_b) = full
        .serve_cell(&kb, "small", 2, || marker_entry(b))
        .expect("serve");
    assert!(!hit_a && !hit_b, "distinct cells both simulate");
    assert_eq!(got_b.cluster, b, "each cell gets its own results");
    std::fs::remove_dir_all(&weak_dir).ok();
    std::fs::remove_dir_all(&full_dir).ok();
}

/// Sampled and full runs of the same cell must never alias in the
/// content-addressed store: the canonical key document names the full
/// sampling configuration, so every parameter of the spec — mode,
/// rate, warmup, interval, seed — lands in the key, while full-trace
/// keys stay byte-identical to their pre-sampling form.
#[test]
fn sampled_and_full_cells_never_share_a_key() {
    use cluster_serve::store::{cell_key_doc_sampled, cell_key_sampled};
    use simcore::sample::{SampleMode, SampleSpec};

    let cell = ("lu", "small", 8usize, "4k", 2u32);
    let (app, size, procs, cache, cluster) = cell;
    let full = cell_key(app, size, procs, cache, cluster);
    let spec = SampleSpec::new(SampleMode::Periodic);
    let label = spec.key_label();
    let sampled = cell_key_sampled(app, size, procs, cache, cluster, Some(&label));
    assert_ne!(full, sampled, "sampled cell aliases the full-trace cell");

    // The canonical document carries the label verbatim for sampled
    // runs and omits the field entirely for full runs (so every key
    // minted before sampling existed is still the same key).
    let doc = cell_key_doc_sampled(app, size, procs, cache, cluster, Some(&label));
    assert_eq!(
        doc.get("sampling").and_then(Json::as_str),
        Some(label.as_str()),
        "sampling parameters must be in the canonical key document"
    );
    let full_doc = cell_key_doc_sampled(app, size, procs, cache, cluster, None);
    assert!(
        full_doc.get("sampling").is_none(),
        "full-trace key documents must not grow a sampling field"
    );

    // Every spec parameter is key-relevant: varying each one alone
    // yields a distinct key; repeating the same spec does not.
    let variants = [
        SampleSpec::new(SampleMode::Reservoir),
        SampleSpec::new(SampleMode::PhaseDetect),
        SampleSpec { rate: 0.5, ..spec },
        SampleSpec {
            warmup_ops: 1024,
            ..spec
        },
        SampleSpec {
            interval_ops: 512,
            ..spec
        },
        SampleSpec {
            seed: spec.seed + 1,
            ..spec
        },
    ];
    for v in variants {
        let vl = v.key_label();
        assert_ne!(vl, label, "variant spec must have a distinct label");
        let k = cell_key_sampled(app, size, procs, cache, cluster, Some(&vl));
        assert_ne!(k, sampled, "spec {vl} aliases spec {label}");
        assert_ne!(k, full, "spec {vl} aliases the full-trace key");
    }
    assert_eq!(
        cell_key_sampled(app, size, procs, cache, cluster, Some(&label)),
        sampled,
        "identical specs must reproduce the identical key"
    );
}
