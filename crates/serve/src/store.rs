//! The content-addressed result store and the in-memory trace store.
//!
//! # Result store
//!
//! [`ResultStore`] memoizes finished study cells on disk. The unit of
//! storage is one *cell*: a single simulation of `(app, size, procs,
//! cache, cluster)` under the workspace's deterministic seeding scheme
//! ([`SEED_SCHEME`]). The key is content-addressed: a stable 128-bit
//! FNV-1a hash ([`simcore::stable_key`]) of a canonical JSON document
//! naming every input that can change the result — see [`cell_key`].
//! Anything *not* in the key (wall-clock, jobs, host) must never
//! change simulated statistics; that invariant is what the
//! serving-layer test suite proves end to end.
//!
//! # Shards
//!
//! On disk the store is a directory of `N` JSONL *shard journals*
//! (`shard-000.jsonl` …), each cell routed by an FNV-1a hash of its
//! key. Line 1 of each shard is a header object carrying
//! [`STORE_SCHEMA_V2`] plus the shard index and count; every further
//! line is one [`StoreEntry`] — the key plus the complete
//! [`JournalEntry`] (full `RunStats`, so a cache hit can reproduce the
//! manifest's deterministic view byte for byte).
//!
//! # Crash contract
//!
//! The store is the workspace's one durable cell log: the server
//! records every computed cell in it, and `paper_run --cache DIR`
//! records every fresh cell as it finishes, so rerunning a killed
//! study over the same directory resumes it. Appends are a single
//! `write(2)` followed by `fdatasync`, so every completed append
//! survives a kill at any instant. A kill mid-`write(2)` can tear only
//! a shard's *final* line: [`scan_store`] drops it and
//! [`ResultStore::open`] heals the shard through `write_atomic`; a
//! malformed line anywhere earlier is a hard error. The shard count
//! on disk wins over the configured one, so reopening an existing
//! store with a different [`StoreConfig::shards`] never re-routes
//! keys. A PR 6 single-file store (`store.jsonl`, [`STORE_SCHEMA`])
//! found at open time is migrated into shards and kept as
//! `store.jsonl.v1`.
//!
//! # Eviction
//!
//! With a [`StoreConfig::byte_budget`], each shard holds at most
//! `budget / N` bytes. When an append (or a reopen) pushes a shard
//! over, least-recently-*served* entries are evicted until the shard
//! is comfortably under its slice, and the shard journal is rewritten
//! through `write_atomic` (a *compaction*). Eviction is loss-correct
//! by construction: an evicted cell simply recomputes — and, keys
//! being content addresses, recomputes bit-identically.
//!
//! # Single flight
//!
//! [`ResultStore::serve_cell`] is the dogpile breaker: concurrent
//! requests for the same key produce exactly one simulation. The first
//! caller claims the key in the shard's in-flight set and computes
//! outside the lock; later callers block on the shard's condvar and
//! are served from the freshly recorded entry. A panicking compute
//! releases its claim via a drop guard, so a poisoned cell never
//! wedges other clients.
//!
//! # Key modes
//!
//! [`KeyMode::Truncated`] deliberately shortens keys to a prefix. It
//! exists only as a planted-bug lever for the property suite, which
//! must detect the resulting key collisions and shrink them to a
//! minimal colliding spec pair. Production callers use
//! [`KeyMode::Full`].

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use cluster_study::manifest::{write_atomic, SEED_SCHEME};
use cluster_study::JournalEntry;
use simcore::fault::{DiskFault, IoFaultPlan};
use simcore::ops::Trace;
use simcore::{stable_key, Json};
use splash::ProblemSize;

/// Schema identifier on a PR 6 single-file store's header line.
pub const STORE_SCHEMA: &str = "clustered-smp/result-store/v1";

/// Schema identifier on every shard journal's header line.
pub const STORE_SCHEMA_V2: &str = "clustered-smp/result-store/v2";

/// Schema identifier inside every cell key document.
pub const CELL_KEY_SCHEMA: &str = "clustered-smp/cell-key/v1";

/// File name of the legacy (v1) single-file store.
pub const STORE_FILE: &str = "store.jsonl";

/// Name the legacy store file is parked under after shard migration.
pub const STORE_FILE_V1_BACKUP: &str = "store.jsonl.v1";

/// Shard count a fresh store is created with.
pub const DEFAULT_SHARDS: usize = 4;

/// Process exit code of the `kill_after` crash-injection hook
/// (`SERVE_KILL_AFTER_RECORDS`), chosen to be distinguishable from
/// both success and a panic.
pub const KILL_EXIT_CODE: i32 = 42;

/// File name of shard `i` inside the store directory.
pub fn shard_file_name(i: usize) -> String {
    format!("shard-{i:03}.jsonl")
}

/// How cell keys are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyMode {
    /// The full 32-hex-digit stable key. Production mode.
    #[default]
    Full,
    /// Only the first `n` hex digits — a *planted bug* that makes
    /// distinct cells collide, used by the property suite to prove
    /// collisions are caught and shrunk. Never use outside tests.
    Truncated(usize),
}

/// How a [`ResultStore`] is opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Shard journals a *fresh* store is split into (an existing
    /// store keeps its on-disk count). Clamped to at least 1.
    pub shards: usize,
    /// Total on-disk byte budget across all shards; `None` grows
    /// without bound (the PR 6 behavior).
    pub byte_budget: Option<u64>,
    /// Key derivation; tests only ever change this.
    pub mode: KeyMode,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            shards: DEFAULT_SHARDS,
            byte_budget: None,
            mode: KeyMode::Full,
        }
    }
}

/// The canonical key document for one study cell. Everything that can
/// change the simulated statistics is named here; nothing else is:
/// app, problem size, processor count, cache spec, cluster size, the
/// seeding scheme — and, for sampled runs, the full sampling
/// configuration (mode, rate, warmup, interval, seed via
/// `SampleSpec::key_label`), so a sampled and a full run of the same
/// cell never alias in the store. A full-trace run (`sampling: None`)
/// omits the field entirely, keeping every pre-sampling key valid.
pub fn cell_key_doc_sampled(
    app: &str,
    size: &str,
    procs: usize,
    cache: &str,
    cluster: u32,
    sampling: Option<&str>,
) -> Json {
    let mut doc = Json::obj()
        .with("schema", CELL_KEY_SCHEMA)
        .with("app", app)
        .with("size", size)
        .with("procs", procs)
        .with("cache", cache)
        .with("cluster", cluster)
        .with("seed_scheme", SEED_SCHEME);
    if let Some(s) = sampling {
        doc.push("sampling", s);
    }
    doc
}

/// [`cell_key_doc_sampled`] for a full-trace (unsampled) cell.
pub fn cell_key_doc(app: &str, size: &str, procs: usize, cache: &str, cluster: u32) -> Json {
    cell_key_doc_sampled(app, size, procs, cache, cluster, None)
}

/// The content-addressed key of one study cell under [`KeyMode::Full`],
/// `sampling` being a `SampleSpec::key_label` for sampled runs.
pub fn cell_key_sampled(
    app: &str,
    size: &str,
    procs: usize,
    cache: &str,
    cluster: u32,
    sampling: Option<&str>,
) -> String {
    stable_key(&cell_key_doc_sampled(
        app, size, procs, cache, cluster, sampling,
    ))
}

/// The content-addressed key of one full-trace study cell under
/// [`KeyMode::Full`].
pub fn cell_key(app: &str, size: &str, procs: usize, cache: &str, cluster: u32) -> String {
    cell_key_sampled(app, size, procs, cache, cluster, None)
}

/// Label for a [`ProblemSize`], matching a store entry's `size`.
pub fn size_label(size: ProblemSize) -> &'static str {
    match size {
        ProblemSize::Paper => "paper",
        ProblemSize::Small => "small",
    }
}

/// One persisted cell: the content address plus the complete result.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreEntry {
    /// Content-addressed cell key (hex).
    pub key: String,
    /// Problem-size label (`"small"` / `"paper"`).
    pub size: String,
    /// Simulated processors.
    pub procs: usize,
    /// The complete result, identical in shape to a journal entry.
    pub cell: JournalEntry,
}

impl StoreEntry {
    /// One JSONL line of a shard journal.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("store_key", self.key.as_str())
            .with("size", self.size.as_str())
            .with("procs", self.procs)
            .with("cell", self.cell.to_json())
    }

    /// Parses one store line.
    pub fn from_json(j: &Json) -> Result<StoreEntry, String> {
        let key = j
            .get("store_key")
            .and_then(Json::as_str)
            .ok_or("missing string field `store_key`")?
            .to_string();
        let size = j
            .get("size")
            .and_then(Json::as_str)
            .ok_or("missing string field `size`")?
            .to_string();
        let procs = j
            .get("procs")
            .and_then(Json::as_u64)
            .ok_or("missing integer field `procs`")? as usize;
        let cell = JournalEntry::from_json(j.get("cell").ok_or("missing object field `cell`")?)?;
        Ok(StoreEntry {
            key,
            size,
            procs,
            cell,
        })
    }
}

/// A store operation that failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// A line that does not parse as the schema demands.
    Malformed {
        /// 1-based line number in the store file.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Malformed { line, reason } => {
                write!(f, "store line {line} malformed: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Counters a store exposes for the `stats` op and CI artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Cells served straight from the store.
    pub hits: u64,
    /// Cells that required a fresh simulation.
    pub misses: u64,
    /// Entries currently held (disk + this process's appends).
    pub entries: usize,
    /// On-disk bytes across all shard journals (headers included).
    pub bytes: u64,
    /// Entries evicted under the byte budget.
    pub evictions: u64,
    /// Shard-journal compaction rewrites.
    pub compactions: u64,
    /// Shard journals backing the store.
    pub shards: usize,
    /// Disk faults injected by the chaos plan (`SERVE_FAULT_DISK_*`).
    pub disk_faults: u64,
    /// Appends that failed to reach disk durably (injected or real);
    /// each degraded to a memory-only entry instead of an error.
    pub append_failures: u64,
}

struct Slot {
    entry: StoreEntry,
    line_len: u64,
    last_served: u64,
}

struct ShardInner {
    file: File,
    map: HashMap<String, Slot>,
    inflight: HashSet<String>,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    compactions: u64,
    appends: u64,
}

struct Shard {
    idx: usize,
    path: PathBuf,
    header: Json,
    inner: Mutex<ShardInner>,
    done: Condvar,
}

/// The on-disk content-addressed result cache. Thread safe; each
/// shard mutates under its own mutex, with computes running outside
/// it under single-flight claims, so requests for different shards
/// never contend.
pub struct ResultStore {
    dir: PathBuf,
    mode: KeyMode,
    byte_budget: Option<u64>,
    shards: Vec<Shard>,
    clock: AtomicU64,
    appended: AtomicUsize,
    kill_after: AtomicUsize, // 0 = disarmed
    kill_gate: Mutex<()>,
    fault: Mutex<IoFaultPlan>,
    disk_faults: AtomicU64,
    append_failures: AtomicU64,
}

/// Recovers poisoned locks: a panic inside a lock scope here can only
/// abandon counters mid-update, never corrupt the on-disk format.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a over the key string routes a cell to its shard. Hashing the
/// key *string* (not the key document) keeps routing well-defined for
/// truncated test keys too.
fn shard_of(key: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

fn shard_header(i: usize, shards: usize) -> Json {
    Json::obj()
        .with("schema", STORE_SCHEMA_V2)
        .with("shard", i)
        .with("shards", shards)
}

fn entry_line(e: &StoreEntry) -> String {
    format!("{}\n", e.to_json())
}

/// Rewrites one shard journal as header + survivors (LRU order, so a
/// reopen reconstructs the same eviction order) and reopens the
/// append handle. The caller updates counters.
fn rewrite_shard(inner: &mut ShardInner, path: &Path, header: &Json) -> Result<(), StoreError> {
    let mut order: Vec<(u64, String)> = inner
        .map
        .iter()
        .map(|(k, s)| (s.last_served, k.clone()))
        .collect();
    order.sort();
    let mut body = format!("{header}\n");
    for (_, key) in &order {
        if let Some(s) = inner.map.get_mut(key) {
            let line = entry_line(&s.entry);
            // A memory-only entry (degraded append, line_len 0) is
            // persisted by this rewrite; refresh its byte accounting.
            s.line_len = line.len() as u64;
            body.push_str(&line);
        }
    }
    write_atomic(path, body.as_bytes())?;
    inner.file = OpenOptions::new().append(true).open(path)?;
    inner.bytes = body.len() as u64;
    inner.compactions += 1;
    Ok(())
}

/// Evicts least-recently-served entries until the shard holds at most
/// `low` bytes (or nothing but its header), then compacts. No-op when
/// already under `high`.
fn enforce_budget(
    inner: &mut ShardInner,
    path: &Path,
    header: &Json,
    high: u64,
    low: u64,
) -> Result<(), StoreError> {
    if inner.bytes <= high || inner.map.is_empty() {
        return Ok(());
    }
    let mut order: Vec<(u64, String)> = inner
        .map
        .iter()
        .map(|(k, s)| (s.last_served, k.clone()))
        .collect();
    order.sort();
    for (_, key) in order {
        if inner.bytes <= low {
            break;
        }
        if let Some(slot) = inner.map.remove(&key) {
            inner.bytes = inner.bytes.saturating_sub(slot.line_len);
            inner.evictions += 1;
        }
    }
    rewrite_shard(inner, path, header)
}

/// Clears a single-flight claim if the compute panics, so waiting
/// clients retry instead of blocking forever.
struct FlightGuard<'a> {
    shard: &'a Shard,
    key: String,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut g = lock(&self.shard.inner);
            g.inflight.remove(&self.key);
            drop(g);
            self.shard.done.notify_all();
        }
    }
}

impl ResultStore {
    /// Opens (or creates) the store in `dir` with production keys and
    /// default sharding, no byte budget.
    pub fn open(dir: &Path) -> Result<ResultStore, StoreError> {
        ResultStore::open_with_config(dir, StoreConfig::default())
    }

    /// Opens the store with an explicit [`KeyMode`]. Only tests pass
    /// anything but [`KeyMode::Full`].
    pub fn open_with_mode(dir: &Path, mode: KeyMode) -> Result<ResultStore, StoreError> {
        ResultStore::open_with_config(
            dir,
            StoreConfig {
                mode,
                ..StoreConfig::default()
            },
        )
    }

    /// Opens the store with full control over sharding and budget.
    pub fn open_with_config(dir: &Path, cfg: StoreConfig) -> Result<ResultStore, StoreError> {
        std::fs::create_dir_all(dir)?;
        let mut on_disk = 0usize;
        while dir.join(shard_file_name(on_disk)).exists() {
            on_disk += 1;
        }
        let shards = if on_disk > 0 {
            on_disk // the on-disk count wins; re-routing keys would orphan entries
        } else {
            let n = cfg.shards.max(1);
            let legacy = dir.join(STORE_FILE);
            let mut buckets: Vec<Vec<StoreEntry>> = (0..n).map(|_| Vec::new()).collect();
            if legacy.exists() {
                let text = std::fs::read_to_string(&legacy)?;
                let (entries, _torn) = scan_store(&text)?;
                for e in entries {
                    buckets[shard_of(&e.key, n)].push(e);
                }
            }
            for (i, bucket) in buckets.iter().enumerate() {
                let mut body = format!("{}\n", shard_header(i, n));
                for e in bucket {
                    body.push_str(&entry_line(e));
                }
                write_atomic(&dir.join(shard_file_name(i)), body.as_bytes())?;
            }
            if legacy.exists() {
                std::fs::rename(&legacy, dir.join(STORE_FILE_V1_BACKUP))?;
            }
            n
        };

        let per_high = cfg.byte_budget.map(|b| (b / shards as u64).max(1));
        let mut clock = 0u64;
        let mut loaded = Vec::with_capacity(shards);
        for i in 0..shards {
            let path = dir.join(shard_file_name(i));
            let header = shard_header(i, shards);
            let text = std::fs::read_to_string(&path)?;
            let (entries, torn) = scan_store(&text)?;
            let mut inner = ShardInner {
                file: OpenOptions::new().append(true).open(&path)?,
                map: HashMap::new(),
                inflight: HashSet::new(),
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                compactions: 0,
                appends: 0,
            };
            for e in entries {
                let line_len = entry_line(&e).len() as u64;
                clock += 1;
                inner.map.insert(
                    e.key.clone(),
                    Slot {
                        entry: e,
                        line_len,
                        last_served: clock,
                    },
                );
            }
            if torn {
                // Heal: rewrite the clean prefix atomically, then append.
                rewrite_shard(&mut inner, &path, &header)?;
                inner.compactions = 0; // healing is not a budget compaction
            } else {
                inner.bytes = std::fs::metadata(&path)?.len();
            }
            if let Some(high) = per_high {
                let low = high.saturating_sub(high / 4);
                enforce_budget(&mut inner, &path, &header, high, low)?;
            }
            loaded.push(Shard {
                idx: i,
                path,
                header,
                inner: Mutex::new(inner),
                done: Condvar::new(),
            });
        }
        Ok(ResultStore {
            dir: dir.to_path_buf(),
            mode: cfg.mode,
            byte_budget: cfg.byte_budget,
            shards: loaded,
            clock: AtomicU64::new(clock + 1),
            appended: AtomicUsize::new(0),
            kill_after: AtomicUsize::new(0),
            kill_gate: Mutex::new(()),
            fault: Mutex::new(IoFaultPlan::disabled()),
            disk_faults: AtomicU64::new(0),
            append_failures: AtomicU64::new(0),
        })
    }

    /// Directory holding the shard journals.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of shard journals backing this store.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cell key under this store's [`KeyMode`].
    pub fn key(&self, app: &str, size: &str, procs: usize, cache: &str, cluster: u32) -> String {
        self.key_sampled(app, size, procs, cache, cluster, None)
    }

    /// The cell key under this store's [`KeyMode`], for a sampled run
    /// (`sampling` = the run's `SampleSpec::key_label`).
    pub fn key_sampled(
        &self,
        app: &str,
        size: &str,
        procs: usize,
        cache: &str,
        cluster: u32,
        sampling: Option<&str>,
    ) -> String {
        let full = cell_key_sampled(app, size, procs, cache, cluster, sampling);
        match self.mode {
            KeyMode::Full => full,
            KeyMode::Truncated(n) => full[..n.min(full.len())].to_string(),
        }
    }

    /// Arms the crash-injection hook: the process exits with
    /// [`KILL_EXIT_CODE`] immediately after the `n`-th append
    /// (counted across all shards). While armed, appends serialize, so
    /// exactly `n` entries land however many threads are recording.
    pub fn set_kill_after(&self, n: usize) {
        self.kill_after.store(n, Ordering::SeqCst);
    }

    /// Installs (or replaces) the chaos plan consulted on every
    /// append. Disk faults degrade the append to a memory-only entry
    /// — the cell is still served, and a later compaction or restart
    /// recomputation makes it durable — so an injected (or real) disk
    /// failure can never corrupt the journal or kill the server.
    pub fn set_fault_plan(&self, plan: IoFaultPlan) {
        *lock(&self.fault) = plan;
    }

    /// The currently installed chaos plan (disabled by default).
    pub fn fault_plan(&self) -> IoFaultPlan {
        *lock(&self.fault)
    }

    fn shard(&self, key: &str) -> &Shard {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Looks a key up without counting a hit or miss (and without
    /// refreshing its eviction age).
    pub fn peek(&self, key: &str) -> Option<StoreEntry> {
        lock(&self.shard(key).inner)
            .map
            .get(key)
            .map(|s| s.entry.clone())
    }

    /// All entries. Iteration order is unspecified; callers sort by
    /// key when order matters.
    pub fn entries(&self) -> Vec<StoreEntry> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(lock(&shard.inner).map.values().map(|s| s.entry.clone()));
        }
        out
    }

    /// Current counters, aggregated across shards.
    pub fn counters(&self) -> StoreCounters {
        let mut c = StoreCounters {
            shards: self.shards.len(),
            ..StoreCounters::default()
        };
        for shard in &self.shards {
            let g = lock(&shard.inner);
            c.hits += g.hits;
            c.misses += g.misses;
            c.entries += g.map.len();
            c.bytes += g.bytes;
            c.evictions += g.evictions;
            c.compactions += g.compactions;
        }
        c.disk_faults = self.disk_faults.load(Ordering::Relaxed);
        c.append_failures = self.append_failures.load(Ordering::Relaxed);
        c
    }

    /// Serves one cell: from the store when present (a *cache hit*),
    /// otherwise by running `compute` exactly once per key across all
    /// concurrent callers, durably recording the result before any
    /// waiter sees it. Returns the entry and whether it was a hit.
    pub fn serve_cell(
        &self,
        key: &str,
        size: &str,
        procs: usize,
        compute: impl FnOnce() -> JournalEntry,
    ) -> Result<(JournalEntry, bool), StoreError> {
        let shard = self.shard(key);
        let mut g = lock(&shard.inner);
        loop {
            if let Some(slot) = g.map.get_mut(key) {
                slot.last_served = self.clock.fetch_add(1, Ordering::Relaxed);
                let cell = slot.entry.cell.clone();
                g.hits += 1;
                return Ok((cell, true));
            }
            if !g.inflight.contains(key) {
                g.inflight.insert(key.to_string());
                break;
            }
            g = shard.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        g.misses += 1;
        drop(g);

        let guard = FlightGuard {
            shard,
            key: key.to_string(),
            armed: true,
        };
        let cell = compute();
        let entry = StoreEntry {
            key: key.to_string(),
            size: size.to_string(),
            procs,
            cell,
        };
        self.record_entry(entry.clone(), guard)?;
        Ok((entry.cell, false))
    }

    /// Serves every key from the store, or none of them. When all are
    /// present it counts one hit per key (a repeated key counts again)
    /// and refreshes each one's eviction age, as
    /// [`ResultStore::serve_cell`] does for a hit. When any is absent,
    /// a key still in flight included, it counts nothing and returns
    /// `None`. The shards involved are locked together in index order,
    /// so the check and the hits are one step; no other path holds two
    /// shard locks, so this cannot deadlock.
    pub fn serve_cached(&self, keys: &[String]) -> Option<Vec<JournalEntry>> {
        let route: Vec<usize> = keys
            .iter()
            .map(|k| shard_of(k, self.shards.len()))
            .collect();
        let mut held = route.clone();
        held.sort_unstable();
        held.dedup();
        let mut guards: Vec<MutexGuard<'_, ShardInner>> =
            held.iter().map(|&i| lock(&self.shards[i].inner)).collect();
        let mut at = Vec::with_capacity(keys.len());
        for (key, shard) in keys.iter().zip(&route) {
            let g = held.binary_search(shard).ok()?;
            if !guards[g].map.contains_key(key) {
                return None;
            }
            at.push(g);
        }
        let mut cells = Vec::with_capacity(keys.len());
        for (key, g) in keys.iter().zip(at) {
            let inner = &mut *guards[g];
            let slot = inner.map.get_mut(key)?;
            slot.last_served = self.clock.fetch_add(1, Ordering::Relaxed);
            cells.push(slot.entry.cell.clone());
            inner.hits += 1;
        }
        Some(cells)
    }

    /// Records an externally computed cell (the `--cache` client path)
    /// if the key is absent. Returns whether the entry was appended.
    pub fn record(
        &self,
        key: &str,
        size: &str,
        procs: usize,
        cell: &JournalEntry,
    ) -> Result<bool, StoreError> {
        let shard = self.shard(key);
        let mut g = lock(&shard.inner);
        if g.map.contains_key(key) {
            return Ok(false);
        }
        // Claim so a concurrent serve_cell of the same key waits for
        // this append instead of double-simulating.
        if g.inflight.contains(key) {
            // Someone is computing it right now; let them win.
            return Ok(false);
        }
        g.inflight.insert(key.to_string());
        drop(g);
        let guard = FlightGuard {
            shard,
            key: key.to_string(),
            armed: true,
        };
        let entry = StoreEntry {
            key: key.to_string(),
            size: size.to_string(),
            procs,
            cell: cell.clone(),
        };
        self.record_entry(entry, guard)?;
        Ok(true)
    }

    /// Appends an entry to its shard under the shard lock, publishes
    /// it to the map, releases the single-flight claim, and enforces
    /// the byte budget. Honors the kill hook and the chaos plan.
    ///
    /// A failed append — injected by the plan or a real I/O error —
    /// *degrades* instead of erroring: any partial line is truncated
    /// away (so the journal stays strictly parseable) and the entry
    /// is published in memory only, to be persisted by a later
    /// compaction or recomputed after a restart. The only hard error
    /// left is a failed truncation repair.
    fn record_entry(
        &self,
        entry: StoreEntry,
        mut guard: FlightGuard<'_>,
    ) -> Result<(), StoreError> {
        let shard = self.shard(&entry.key);
        let key = entry.key.clone();
        // An armed kill hook exits while holding the gate, so no other
        // shard's append can land after the n-th.
        let _gate = (self.kill_after.load(Ordering::SeqCst) != 0).then(|| lock(&self.kill_gate));
        let mut g = lock(&shard.inner);
        let line = entry_line(&entry);
        g.appends += 1;
        let fault = self
            .fault_plan()
            .disk_fault(shard.idx as u64, g.appends, line.len());
        if fault.is_some() {
            self.disk_faults.fetch_add(1, Ordering::Relaxed);
        }

        // Phase 1: get the line onto disk. `on_disk` = the full line
        // landed; `durable` = its fdatasync succeeded too.
        let (on_disk, durable) = match fault {
            Some(DiskFault::WriteErr) => (false, false),
            Some(DiskFault::Torn { keep }) => {
                // A torn append: only a prefix reaches the file (the
                // write "failed" partway). Repaired by truncation
                // below, exactly like a real partial write.
                let _ = g.file.write_all(&line.as_bytes()[..keep]);
                (false, false)
            }
            Some(DiskFault::FsyncErr) => (g.file.write_all(line.as_bytes()).is_ok(), false),
            None => match g.file.write_all(line.as_bytes()) {
                Ok(()) => (true, g.file.sync_data().is_ok()),
                Err(_) => (false, false),
            },
        };

        if on_disk {
            g.bytes += line.len() as u64;
        } else {
            // Truncate any partial write so every line before EOF
            // stays well formed (a torn tail mid-journal would turn
            // later appends into malformed *middle* lines). `g.bytes`
            // tracks the exact pre-append file length.
            let repair_to = g.bytes;
            if let Err(e) = g.file.set_len(repair_to) {
                // The journal may hold a torn line we cannot remove;
                // reopen-time healing still recovers it, but this
                // append must report the failure.
                drop(g);
                return Err(StoreError::Io(e));
            }
        }
        if !durable {
            self.append_failures.fetch_add(1, Ordering::Relaxed);
        }

        // Phase 2: publish. Even a failed append serves its cell —
        // the entry just lives in memory only (line_len 0: it holds
        // no journal bytes) until a compaction rewrite or a restart
        // recomputation makes it durable.
        g.map.insert(
            key.clone(),
            Slot {
                entry,
                line_len: if on_disk { line.len() as u64 } else { 0 },
                last_served: self.clock.fetch_add(1, Ordering::Relaxed),
            },
        );
        g.inflight.remove(&key);
        guard.armed = false;
        if on_disk {
            if let Some(budget) = self.byte_budget {
                let high = (budget / self.shards.len() as u64).max(1);
                let low = high.saturating_sub(high / 4);
                enforce_budget(&mut g, &shard.path, &shard.header, high, low)?;
            }
        }
        let kill = if on_disk {
            let appended = self.appended.fetch_add(1, Ordering::SeqCst) + 1;
            let target = self.kill_after.load(Ordering::SeqCst);
            target != 0 && appended >= target
        } else {
            false
        };
        drop(g);
        shard.done.notify_all();
        if kill {
            // Not eprintln!: a closed stderr (the harness may
            // have dropped the pipe) must not panic this
            // thread before the exit below gets to run.
            let _ = writeln!(
                std::io::stderr(),
                "cluster_serve: kill_after hook tripped; exiting {KILL_EXIT_CODE}"
            );
            std::process::exit(KILL_EXIT_CODE);
        }
        Ok(())
    }
}

/// Scans one store file's text — a shard journal or a legacy v1
/// store: returns the clean entries and whether a torn final line was
/// dropped. A malformed line that is *not* final is a hard error (the
/// crash contract in the module docs). Never panics, whatever the
/// bytes.
pub fn scan_store(text: &str) -> Result<(Vec<StoreEntry>, bool), StoreError> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.is_empty() {
        return Err(StoreError::Malformed {
            line: 1,
            reason: "empty store file (missing header)".to_string(),
        });
    }
    let header = simcore::json::parse(lines[0]).map_err(|e| StoreError::Malformed {
        line: 1,
        reason: format!("header does not parse: {e}"),
    })?;
    match header.get("schema").and_then(Json::as_str) {
        Some(s) if s == STORE_SCHEMA || s == STORE_SCHEMA_V2 => {}
        other => {
            return Err(StoreError::Malformed {
                line: 1,
                reason: format!(
                    "header schema {other:?}, want {STORE_SCHEMA:?} or {STORE_SCHEMA_V2:?}"
                ),
            })
        }
    }
    let mut entries = Vec::new();
    let mut torn = false;
    for (i, raw) in lines.iter().enumerate().skip(1) {
        if raw.trim().is_empty() {
            continue;
        }
        let parsed = simcore::json::parse(raw)
            .map_err(|e| e.to_string())
            .and_then(|j| StoreEntry::from_json(&j));
        match parsed {
            Ok(e) => entries.push(e),
            Err(reason) => {
                if i == lines.len() - 1 {
                    // Torn final line: a kill landed mid-append.
                    torn = true;
                } else {
                    return Err(StoreError::Malformed {
                        line: i + 1,
                        reason,
                    });
                }
            }
        }
    }
    Ok((entries, torn))
}

/// Scans every shard journal (and a legacy `store.jsonl`, if still
/// unmigrated) in a store directory. Returns all entries plus whether
/// any file had a torn final line. Shard order, then file order.
pub fn scan_store_dir(dir: &Path) -> Result<(Vec<StoreEntry>, bool), StoreError> {
    let mut entries = Vec::new();
    let mut torn = false;
    let legacy = dir.join(STORE_FILE);
    if legacy.exists() {
        let (es, t) = scan_store(&std::fs::read_to_string(&legacy)?)?;
        entries.extend(es);
        torn |= t;
    }
    let mut i = 0usize;
    loop {
        let path = dir.join(shard_file_name(i));
        if !path.exists() {
            break;
        }
        let (es, t) = scan_store(&std::fs::read_to_string(&path)?)?;
        entries.extend(es);
        torn |= t;
        i += 1;
    }
    Ok((entries, torn))
}

/// Counters the trace store exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Traces served from memory.
    pub hits: u64,
    /// Traces generated fresh.
    pub gens: u64,
}

struct TraceInner {
    map: HashMap<(String, String, usize), Arc<Trace>>,
    inflight: HashSet<(String, String, usize)>,
    hits: u64,
    gens: u64,
}

/// In-memory memo of generated traces keyed by `(app, size, procs)`,
/// with the same single-flight discipline as the result store: a
/// sweep that varies only the cluster configuration generates each
/// trace exactly once, no matter how requests interleave.
pub struct TraceStore {
    inner: Mutex<TraceInner>,
    done: Condvar,
}

impl Default for TraceStore {
    fn default() -> TraceStore {
        TraceStore::new()
    }
}

impl TraceStore {
    /// An empty trace store.
    pub fn new() -> TraceStore {
        TraceStore {
            inner: Mutex::new(TraceInner {
                map: HashMap::new(),
                inflight: HashSet::new(),
                hits: 0,
                gens: 0,
            }),
            done: Condvar::new(),
        }
    }

    /// Returns the trace for `(app, size, procs)`, generating it at
    /// most once across all concurrent callers. `None` when the app
    /// name is unknown to the `splash` registry.
    pub fn get_or_generate(
        &self,
        app: &str,
        size: ProblemSize,
        procs: usize,
    ) -> Option<Arc<Trace>> {
        let key = (app.to_string(), size_label(size).to_string(), procs);
        let mut g = lock(&self.inner);
        loop {
            if let Some(t) = g.map.get(&key) {
                let t = Arc::clone(t);
                g.hits += 1;
                return Some(t);
            }
            if !g.inflight.contains(&key) {
                g.inflight.insert(key.clone());
                break;
            }
            g = self.done.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        drop(g);

        // Generate outside the lock; release the claim on all paths.
        let generated = splash::by_name(app, size).map(|a| Arc::new(a.generate(procs)));
        let mut g = lock(&self.inner);
        g.inflight.remove(&key);
        match generated {
            Some(t) => {
                g.gens += 1;
                g.map.insert(key, Arc::clone(&t));
                drop(g);
                self.done.notify_all();
                Some(t)
            }
            None => {
                drop(g);
                self.done.notify_all();
                None
            }
        }
    }

    /// Current counters.
    pub fn counters(&self) -> TraceCounters {
        let g = lock(&self.inner);
        TraceCounters {
            hits: g.hits,
            gens: g.gens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_study::parallel::RunStatus;
    use cluster_study::run_cell;
    use coherence::config::CacheSpec;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn sample_entry(app: &str, cluster: u32) -> JournalEntry {
        let trace = splash::by_name(app, ProblemSize::Small)
            .expect("known app")
            .generate(8);
        let stats = run_cell(&trace, cluster, CacheSpec::Infinite, None)
            .unwrap()
            .0;
        JournalEntry {
            app: app.to_string(),
            cache: CacheSpec::Infinite.label(),
            cluster,
            stats,
            wall: None,
            status: RunStatus::Ok,
            attempts: 1,
            sampling: None,
        }
    }

    #[test]
    fn cell_key_is_stable_and_input_sensitive() {
        let a = cell_key("ocean", "small", 8, "inf", 4);
        assert_eq!(a, cell_key("ocean", "small", 8, "inf", 4));
        assert_eq!(a.len(), 32);
        assert_ne!(a, cell_key("ocean", "small", 8, "inf", 2));
        assert_ne!(a, cell_key("ocean", "small", 8, "4k", 4));
        assert_ne!(a, cell_key("ocean", "paper", 8, "inf", 4));
        assert_ne!(a, cell_key("ocean", "small", 16, "inf", 4));
        assert_ne!(a, cell_key("lu", "small", 8, "inf", 4));
    }

    #[test]
    fn round_trips_entries_across_reopen() {
        let dir = tmp_dir("roundtrip");
        let entry = sample_entry("ocean", 4);
        let key = cell_key("ocean", "small", 8, "inf", 4);
        {
            let store = ResultStore::open(&dir).expect("open");
            assert_eq!(store.shard_count(), DEFAULT_SHARDS);
            let (cell, hit) = store
                .serve_cell(&key, "small", 8, || entry.clone())
                .expect("serve");
            assert!(!hit);
            assert_eq!(cell.to_json().to_string(), entry.to_json().to_string());
        }
        let store = ResultStore::open(&dir).expect("reopen");
        let (cell, hit) = store
            .serve_cell(&key, "small", 8, || {
                unreachable!("must be served from disk")
            })
            .expect("serve");
        assert!(hit);
        assert_eq!(cell.to_json().to_string(), entry.to_json().to_string());
        assert_eq!(store.counters().hits, 1);
        assert_eq!(store.counters().entries, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_healed_on_open() {
        let dir = tmp_dir("torn");
        let key = cell_key("ocean", "small", 8, "inf", 4);
        {
            let store = ResultStore::open(&dir).expect("open");
            store
                .serve_cell(&key, "small", 8, || sample_entry("ocean", 4))
                .expect("serve");
        }
        let path = dir.join(shard_file_name(shard_of(&key, DEFAULT_SHARDS)));
        let mut text = std::fs::read_to_string(&path).expect("read");
        assert!(text.contains(&key), "entry must land in its routed shard");
        text.push_str("{\"store_key\":\"deadbeef\",\"si"); // torn append
        std::fs::write(&path, &text).expect("tear");
        let store = ResultStore::open(&dir).expect("heal");
        assert_eq!(store.counters().entries, 1);
        let healed = std::fs::read_to_string(&path).expect("read healed");
        assert!(!healed.contains("deadbeef"));
        // A malformed line that is NOT final stays a hard error.
        let mut bad = String::new();
        bad.push_str(healed.lines().next().expect("header line"));
        bad.push_str("\ngarbage\n");
        bad.push_str(healed.lines().nth(1).expect("entry line"));
        bad.push('\n');
        std::fs::write(&path, &bad).expect("corrupt");
        assert!(matches!(
            ResultStore::open(&dir),
            Err(StoreError::Malformed { line: 2, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_v1_store_migrates_into_shards() {
        let dir = tmp_dir("migrate");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let entry = sample_entry("ocean", 4);
        let keys: Vec<String> = (0..4)
            .map(|i| cell_key("ocean", "small", 8, "inf", 1 << i))
            .collect();
        let mut body = format!("{}\n", Json::obj().with("schema", STORE_SCHEMA));
        for k in &keys {
            body.push_str(&entry_line(&StoreEntry {
                key: k.clone(),
                size: "small".to_string(),
                procs: 8,
                cell: entry.clone(),
            }));
        }
        std::fs::write(dir.join(STORE_FILE), &body).expect("write legacy");
        let store = ResultStore::open(&dir).expect("migrate");
        assert_eq!(store.counters().entries, 4);
        for k in &keys {
            assert!(store.peek(k).is_some(), "migrated key must resolve");
        }
        assert!(!dir.join(STORE_FILE).exists(), "legacy file is parked");
        assert!(dir.join(STORE_FILE_V1_BACKUP).exists());
        // Reopen: entries come from shards now, not the backup.
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.counters().entries, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn on_disk_shard_count_wins_over_config() {
        let dir = tmp_dir("shardcount");
        {
            let store = ResultStore::open_with_config(
                &dir,
                StoreConfig {
                    shards: 2,
                    ..StoreConfig::default()
                },
            )
            .expect("open");
            assert_eq!(store.shard_count(), 2);
        }
        let store = ResultStore::open_with_config(
            &dir,
            StoreConfig {
                shards: 8,
                ..StoreConfig::default()
            },
        )
        .expect("reopen");
        assert_eq!(store.shard_count(), 2, "disk layout wins");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_evicts_lru_and_compacts() {
        let dir = tmp_dir("evict");
        // One shard so the LRU order is fully deterministic.
        let cfg = StoreConfig {
            shards: 1,
            byte_budget: None,
            mode: KeyMode::Full,
        };
        let clusters = [1u32, 2, 4, 8];
        let keys: Vec<String> = clusters
            .iter()
            .map(|&c| cell_key("ocean", "small", 8, "inf", c))
            .collect();
        let line_bytes: u64;
        {
            let store = ResultStore::open_with_config(&dir, cfg).expect("open");
            for (&c, k) in clusters.iter().zip(&keys) {
                store
                    .serve_cell(k, "small", 8, || sample_entry("ocean", c))
                    .expect("serve");
            }
            line_bytes = store.counters().bytes;
        }
        // Re-serve cell 0 so it is the most recently served, then
        // reopen with a budget that can hold roughly half the store:
        // the LRU tail (not cell 0) must go.
        {
            let store = ResultStore::open_with_config(&dir, cfg).expect("reopen");
            store
                .serve_cell(&keys[0], "small", 8, || unreachable!("hit"))
                .expect("serve");
        }
        let budget = line_bytes / 2;
        let store = ResultStore::open_with_config(
            &dir,
            StoreConfig {
                byte_budget: Some(budget),
                ..cfg
            },
        )
        .expect("open with budget");
        let c = store.counters();
        assert!(c.evictions > 0, "must evict: {c:?}");
        assert!(c.compactions > 0, "eviction rewrites the shard: {c:?}");
        assert!(c.bytes <= budget, "stays under budget: {c:?}");
        assert!(c.entries < 4);
        // Whichever cells went, the loss-correctness contract holds:
        // an evicted cell recomputes bit-identically and the store
        // resumes serving it.
        let victim = keys
            .iter()
            .find(|k| store.peek(k).is_none())
            .expect("some cell was evicted");
        let victim_cluster = clusters[keys.iter().position(|k| k == victim).expect("pos")];
        let (cell, hit) = store
            .serve_cell(victim, "small", 8, || sample_entry("ocean", victim_cluster))
            .expect("recompute");
        assert!(!hit, "evicted cell must recompute");
        assert_eq!(
            cell.to_json().to_string(),
            sample_entry("ocean", victim_cluster).to_json().to_string(),
            "recompute is bit-identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_bump_survives_compaction_within_one_process() {
        let dir = tmp_dir("lru");
        let cfg = StoreConfig {
            shards: 1,
            byte_budget: None,
            mode: KeyMode::Full,
        };
        let clusters = [1u32, 2, 4, 8];
        let keys: Vec<String> = clusters
            .iter()
            .map(|&c| cell_key("ocean", "small", 8, "inf", c))
            .collect();
        let total: u64;
        {
            let store = ResultStore::open_with_config(&dir, cfg).expect("open");
            for (&c, k) in clusters.iter().zip(&keys) {
                store
                    .serve_cell(k, "small", 8, || sample_entry("ocean", c))
                    .expect("serve");
            }
            total = store.counters().bytes;
        }
        // Budget of exactly the current size: the reopen stays under
        // it, the 5th append crosses it. Serving key[0] first bumps
        // it to most-recent, so the eviction pass that follows the
        // append must take key[1] (now LRU) and spare key[0].
        let store = ResultStore::open_with_config(
            &dir,
            StoreConfig {
                byte_budget: Some(total),
                ..cfg
            },
        )
        .expect("open with budget");
        store
            .serve_cell(&keys[0], "small", 8, || unreachable!("hit"))
            .expect("bump");
        let k5 = cell_key("lu", "small", 8, "inf", 4);
        store
            .serve_cell(&k5, "small", 8, || sample_entry("lu", 4))
            .expect("append 5th");
        let c = store.counters();
        assert!(c.evictions > 0, "{c:?}");
        assert!(store.peek(&keys[0]).is_some(), "recently served survives");
        assert!(store.peek(&keys[1]).is_none(), "LRU entry evicted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_key_mode_collides_full_mode_does_not() {
        let dir = tmp_dir("keymode");
        let weak = ResultStore::open_with_mode(&dir, KeyMode::Truncated(1)).expect("open");
        // With 1 hex digit there are only 16 possible keys; 17 distinct
        // cells must collide somewhere.
        let mut seen = HashSet::new();
        let mut collided = false;
        for cluster in 1..=17u32 {
            let k = weak.key("ocean", "small", 8, "inf", cluster);
            assert_eq!(k.len(), 1);
            collided |= !seen.insert(k);
        }
        assert!(collided, "truncated keys must collide");
        let full = cell_key("ocean", "small", 8, "inf", 1);
        assert_eq!(full.len(), 32);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_store_generates_each_key_once() {
        let ts = TraceStore::new();
        let a = ts
            .get_or_generate("ocean", ProblemSize::Small, 8)
            .expect("known app");
        let b = ts
            .get_or_generate("ocean", ProblemSize::Small, 8)
            .expect("known app");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ts.counters(), TraceCounters { hits: 1, gens: 1 });
        assert!(ts
            .get_or_generate("no-such-app", ProblemSize::Small, 8)
            .is_none());
        assert_eq!(ts.counters().gens, 1);
    }
}
