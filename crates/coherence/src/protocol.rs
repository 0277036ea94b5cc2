//! The invalidation-based coherence protocol over clustered shared
//! caches and a distributed full-bit-vector directory (§3.1).
//!
//! Cache states are INVALID / SHARED / EXCLUSIVE; the directory tracks
//! NOT CACHED / SHARED / EXCLUSIVE with a full bit vector of sharer
//! clusters and receives *replacement hints* on every eviction, so
//! directory state never goes stale. Invalidations are instantaneous
//! ("For simulation simplicity, invalidations occur instantaneously,
//! possibly invalidating a line still pending in the cache").
//!
//! Only READ misses are assigned latency; WRITE and UPGRADE misses are
//! assumed hidden by store buffers and relaxed consistency, but WRITE
//! misses still open a *pending window* on the fetched line so that
//! subsequent reads by cluster-mates MERGE on it ("READ misses to lines
//! pending in the cache from outstanding READ or WRITE misses are said
//! to MERGE MISS and will block till the associated data returns").

use std::collections::HashMap;

use simcore::addr::{line_base, line_of, LineAddr};
use simcore::cache::{CacheKind, EvictedLine, FullLruCache, SetAssocCache};
use simcore::cast::usize_from;
use simcore::space::{AddressSpace, Placement, ProcId};
use simcore::stats::{LatencyClass, MissStats};

use crate::config::{ConfigError, MachineConfig};

/// A protocol-level failure reachable from user input (a bad machine
/// shape, or a trace touching memory its address space never
/// allocated). Every construction and access path propagates this
/// typed error ([`MemorySystem::try_new`] / `try_read` / `try_write`);
/// panicking convenience wrappers were removed so the `cluster_check`
/// no-panic lint holds over this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// An access touched a line no allocation covers — a malformed
    /// trace, not a protocol invariant.
    UnallocatedAccess {
        /// The offending line address.
        line: LineAddr,
    },
    /// The machine configuration is invalid (shape or the directory's
    /// 64-cluster sharer-vector limit).
    Config(ConfigError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnallocatedAccess { line } => {
                write!(f, "access to unallocated line {line:#x}")
            }
            ProtocolError::Config(e) => write!(f, "invalid machine configuration: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for ProtocolError {
    fn from(e: ConfigError) -> ProtocolError {
        ProtocolError::Config(e)
    }
}

/// Cache-line state within a cluster cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LineState {
    /// Readable copy; other clusters may also hold SHARED copies.
    #[default]
    Shared,
    /// Sole, writable (dirty) copy in the machine.
    Exclusive,
}

/// Payload stored per resident line in a cluster cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachedLine {
    /// Coherence state.
    pub state: LineState,
    /// Cycle at which the fill completes; reads before this merge-stall.
    pub pending_until: u64,
}

/// One cluster's shared cache, in whichever organization the
/// configuration selects.
#[derive(Debug, Clone)]
enum ClusterCache {
    Lru(FullLruCache<CachedLine>),
    Assoc(SetAssocCache<CachedLine>),
}

impl ClusterCache {
    fn new(kind: CacheKind) -> Self {
        match kind {
            CacheKind::Infinite => ClusterCache::Lru(FullLruCache::infinite()),
            CacheKind::FullLru { lines } => ClusterCache::Lru(FullLruCache::new(lines)),
            CacheKind::SetAssoc { lines, ways } => {
                ClusterCache::Assoc(SetAssocCache::new(lines, ways))
            }
        }
    }

    #[inline]
    fn get_mut(&mut self, line: LineAddr) -> Option<&mut CachedLine> {
        match self {
            ClusterCache::Lru(c) => c.get_mut(line),
            ClusterCache::Assoc(c) => c.get_mut(line),
        }
    }

    #[inline]
    fn peek(&self, line: LineAddr) -> Option<&CachedLine> {
        match self {
            ClusterCache::Lru(c) => c.peek(line),
            ClusterCache::Assoc(c) => c.peek(line),
        }
    }

    #[inline]
    fn peek_mut(&mut self, line: LineAddr) -> Option<&mut CachedLine> {
        match self {
            ClusterCache::Lru(c) => c.peek_mut(line),
            ClusterCache::Assoc(c) => c.peek_mut(line),
        }
    }

    #[inline]
    fn insert(&mut self, line: LineAddr, val: CachedLine) -> Option<EvictedLine<CachedLine>> {
        match self {
            ClusterCache::Lru(c) => c.insert(line, val),
            ClusterCache::Assoc(c) => c.insert(line, val),
        }
    }

    #[inline]
    fn remove(&mut self, line: LineAddr) -> Option<CachedLine> {
        match self {
            ClusterCache::Lru(c) => c.remove(line),
            ClusterCache::Assoc(c) => c.remove(line),
        }
    }

    fn len(&self) -> usize {
        match self {
            ClusterCache::Lru(c) => c.len(),
            ClusterCache::Assoc(c) => c.len(),
        }
    }

    /// Every resident line, in no particular order.
    fn iter_lines(&self) -> Box<dyn Iterator<Item = (LineAddr, &CachedLine)> + '_> {
        match self {
            ClusterCache::Lru(c) => Box::new(c.iter_mru()),
            ClusterCache::Assoc(c) => Box::new(c.iter()),
        }
    }
}

/// Directory entry for one line: its (sticky) home cluster, the sharer
/// bit vector, and whether the single sharer holds it EXCLUSIVE.
#[derive(Debug, Clone, Copy)]
struct DirEntry {
    home: u32,
    sharers: u64,
    dirty: bool,
}

impl DirEntry {
    fn owner(&self) -> u32 {
        debug_assert!(self.dirty && self.sharers.count_ones() == 1);
        self.sharers.trailing_zeros()
    }
}

/// Result of snooping the cluster bus for a line.
enum Snoop {
    /// No cluster mate holds the line.
    Absent,
    /// A mate's fill is still outstanding; merge until this cycle.
    Pending(u64),
    /// A mate supplied the line (downgrading a dirty copy).
    Supplied,
}

/// A deliberately planted protocol bug, for the `cluster_check` model
/// checker's planted-mutation tests (the same philosophy as
/// `simcore::fault`: to prove the verifier catches a class of bug, the
/// repo must be able to *cause* that bug on demand). Each variant
/// disables exactly one correct transition; the model checker must
/// report an invariant violation with a short counterexample for every
/// variant, and zero violations with no mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// An UPGRADE no longer invalidates the other clusters' SHARED
    /// copies (directory is updated as if it had).
    DropUpgradeInvalidation,
    /// A capacity eviction no longer sends the replacement hint, so
    /// the directory keeps a sharer bit for a departed line.
    DropReplacementHint,
    /// A read miss to a dirty line no longer downgrades the owner's
    /// EXCLUSIVE copy to SHARED (directory goes clean as if it had).
    SkipOwnerDowngrade,
}

impl Mutation {
    /// Every variant, for exhaustive planted-mutation sweeps.
    pub const ALL: [Mutation; 3] = [
        Mutation::DropUpgradeInvalidation,
        Mutation::DropReplacementHint,
        Mutation::SkipOwnerDowngrade,
    ];
}

/// One resident line of one cache, as reported by
/// [`MemorySystem::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLineView {
    /// The line address.
    pub line: LineAddr,
    /// Its coherence state.
    pub state: LineState,
    /// Cycle at which its outstanding fill completes (reads before
    /// this merge-stall).
    pub pending_until: u64,
}

/// One directory entry, as reported by [`MemorySystem::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntryView {
    /// The line address.
    pub line: LineAddr,
    /// Home cluster (sticky after first touch).
    pub home: u32,
    /// Sharer bit vector over clusters.
    pub sharers: u64,
    /// Whether the single sharer holds the line EXCLUSIVE.
    pub dirty: bool,
}

/// A complete, deterministic view of the protocol state: every cache's
/// resident lines and every directory entry, sorted by line address.
/// This is the inspection surface the `cluster_check` model checker
/// canonicalizes reachable states over; it deliberately excludes the
/// statistics counters (monotonic, not protocol state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSnapshot {
    /// Per cache (cluster cache, or per-processor private cache in
    /// shared-memory-cluster mode): resident lines sorted by address.
    pub caches: Vec<Vec<CacheLineView>>,
    /// Directory entries sorted by line address.
    pub dir: Vec<DirEntryView>,
    /// Next round-robin home assignment (placement state).
    pub rr_next: u32,
}

/// Result of one memory access, consumed by the timing engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Read found a resident, ready line. Costs the base (1-cycle) hit.
    ReadHit,
    /// Read missed; the processor stalls `stall` cycles (Table 1).
    ReadMiss {
        /// Stall cycles charged to load-stall time.
        stall: u64,
        /// Which Table 1 case applied.
        class: LatencyClass,
    },
    /// Read found the line pending from an earlier miss; the processor
    /// must wait until `ready_at` and retry (merge stall).
    MergeWait {
        /// Cycle at which the outstanding fill completes.
        ready_at: u64,
    },
    /// Shared-memory-cluster mode: the private cache missed but a
    /// cluster mate supplied the line over the snoopy bus.
    ReadBus {
        /// Bus-transfer stall cycles.
        stall: u64,
    },
    /// Write found an EXCLUSIVE line. No cost.
    WriteHit,
    /// Write missed; latency hidden, but the line is fetched EXCLUSIVE
    /// and a pending window opens.
    WriteMiss,
    /// Write found a SHARED line (UPGRADE): other copies invalidated
    /// instantly, no cost to the writer.
    Upgrade,
}

/// The clustered memory system: per-cluster caches plus the distributed
/// directory.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: MachineConfig,
    /// One cache per cluster in shared-cache mode; one per *processor*
    /// in shared-memory-cluster mode.
    caches: Vec<ClusterCache>,
    dir: HashMap<LineAddr, DirEntry>,
    space: AddressSpace,
    rr_next: u32,
    /// Shared-memory-cluster mode (private caches + snoopy bus).
    private: bool,
    /// Intra-cluster cache-to-cache transfer latency.
    bus_cycles: u64,
    /// Planted protocol bug, if any (see [`Mutation`]).
    mutation: Option<Mutation>,
    /// Aggregate statistics.
    pub stats: MissStats,
}

impl MemorySystem {
    /// Builds the memory system for `cfg`, resolving placement policies
    /// against `space` (cloned; the allocator is not consulted again),
    /// or returns the typed reason the configuration is rejected.
    pub fn try_new(cfg: MachineConfig, space: &AddressSpace) -> Result<Self, ProtocolError> {
        let cfg = cfg.validate()?;
        let kind = cfg.cluster_cache_kind();
        let (private, bus_cycles) = match cfg.cache {
            crate::config::CacheSpec::PrivatePerProc { bus_cycles, .. } => (true, bus_cycles),
            _ => (false, 0),
        };
        let n_caches = if private {
            cfg.n_procs
        } else {
            cfg.n_clusters()
        };
        Ok(MemorySystem {
            cfg,
            caches: (0..n_caches).map(|_| ClusterCache::new(kind)).collect(),
            dir: HashMap::new(),
            space: space.clone(),
            rr_next: 0,
            private,
            bus_cycles,
            mutation: None,
            stats: MissStats::default(),
        })
    }

    /// Plants (or clears) a deliberate protocol bug. Verification
    /// machinery only: the model checker's planted-mutation tests use
    /// this to prove the invariant oracle catches each bug class.
    pub fn set_mutation(&mut self, mutation: Option<Mutation>) {
        self.mutation = mutation;
    }

    /// Cache index used by processor `p`.
    #[inline]
    fn cache_of(&self, p: ProcId) -> usize {
        if self.private {
            usize_from(p)
        } else {
            usize_from(self.cfg.cluster_of(p))
        }
    }

    /// Cache indices belonging to cluster `c`.
    fn member_caches(&self, c: u32) -> std::ops::Range<usize> {
        if self.private {
            let start = usize_from(c) * usize_from(self.cfg.per_cluster);
            start..start + usize_from(self.cfg.per_cluster)
        } else {
            usize_from(c)..usize_from(c) + 1
        }
    }

    /// Whether any cache of cluster `c` holds `line`.
    fn cluster_holds(&self, c: u32, line: LineAddr) -> bool {
        self.member_caches(c)
            .any(|i| self.caches[i].peek(line).is_some())
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Home cluster of `line`, assigning it on first touch. Errors
    /// when the line was never allocated — a malformed trace, which is
    /// user input, not a protocol invariant.
    fn home_of(&mut self, line: LineAddr) -> Result<u32, ProtocolError> {
        if let Some(e) = self.dir.get(&line) {
            return Ok(e.home);
        }
        let placement = self
            .space
            .placement_of(line_base(line))
            .ok_or(ProtocolError::UnallocatedAccess { line })?;
        let home = match placement {
            Placement::RoundRobin => {
                let h = self.rr_next % self.cfg.n_clusters();
                self.rr_next = self.rr_next.wrapping_add(1);
                h
            }
            Placement::Owner(p) => self.cfg.cluster_of(p),
        };
        self.dir.insert(
            line,
            DirEntry {
                home,
                sharers: 0,
                dirty: false,
            },
        );
        Ok(home)
    }

    /// Classifies a miss by cluster `c` to `line` per Table 1. Must be
    /// called after `home_of` so the entry exists.
    fn classify_miss(&self, c: u32, line: LineAddr) -> LatencyClass {
        let e = &self.dir[&line];
        let local = e.home == c;
        if e.dirty {
            let owner = e.owner();
            debug_assert_ne!(owner, c, "requester cannot miss on a line it owns dirty");
            if local {
                // Dirty in a remote cluster, home is ours: 100 cycles.
                LatencyClass::LocalDirtyRemote
            } else if owner == e.home {
                // The home itself holds the dirty copy and satisfies the
                // request directly: two hops, 100 cycles.
                LatencyClass::RemoteClean
            } else {
                // Dirty in a third cluster: three hops, 150 cycles.
                LatencyClass::RemoteDirtyThird
            }
        } else if local {
            LatencyClass::LocalClean
        } else {
            LatencyClass::RemoteClean
        }
    }

    /// Handles a capacity eviction: sends the replacement hint to the
    /// directory (clearing the sharer bit) and counts a writeback for
    /// dirty lines.
    fn on_evicted(&mut self, c: u32, ev: EvictedLine<CachedLine>) {
        self.stats.evictions += 1;
        if ev.val.state == LineState::Exclusive {
            self.stats.writebacks += 1;
        }
        if self.mutation == Some(Mutation::DropReplacementHint) {
            // Planted bug: the hint never reaches the directory, which
            // keeps a sharer bit for the departed line.
            return;
        }
        // In shared-memory-cluster mode another member may still hold a
        // copy; the hint only clears the cluster's directory bit once
        // the last copy leaves.
        let still_held = self.private && self.cluster_holds(c, ev.line);
        let e = self
            .dir
            .get_mut(&ev.line)
            // cluster_check: allow(no-panic) — internal invariant:
            // every resident line has a directory entry (checked by
            // check_invariants and the model checker).
            .expect("evicted line must have a directory entry");
        debug_assert!(e.sharers & (1 << c) != 0, "directory out of sync");
        if ev.val.state == LineState::Exclusive {
            // The (sole) dirty copy left the machine: written back.
            e.dirty = false;
        }
        if !still_held {
            e.sharers &= !(1 << c);
        }
    }

    /// Invalidates every cached copy of `line` outside cluster `keep`.
    fn invalidate_others(&mut self, line: LineAddr, keep: u32) {
        let e = match self.dir.get_mut(&line) {
            Some(e) => e,
            None => return,
        };
        let mut others = e.sharers & !(1u64 << keep);
        e.sharers &= 1u64 << keep;
        e.dirty = false;
        while others != 0 {
            let b = others.trailing_zeros();
            others &= others - 1;
            let mut removed_any = false;
            for i in self.member_caches(b) {
                if self.caches[i].remove(line).is_some() {
                    removed_any = true;
                    self.stats.invalidations += 1;
                }
            }
            debug_assert!(removed_any, "directory said cluster {b} had a copy");
        }
    }

    /// Shared-memory-cluster mode: invalidates copies held by `p`'s
    /// cluster mates (the snoopy-bus invalidation that "keeps ownership
    /// within the cluster", §2).
    fn invalidate_mates(&mut self, p: ProcId, line: LineAddr) {
        let own = self.cache_of(p);
        for i in self.member_caches(self.cfg.cluster_of(p)) {
            if i != own && self.caches[i].remove(line).is_some() {
                self.stats.bus_invalidations += 1;
            }
        }
    }

    /// Shared-memory-cluster mode: looks for a cluster mate able to
    /// supply `line` at time `now`.
    fn snoop_mates(&mut self, p: ProcId, line: LineAddr, now: u64) -> Snoop {
        let own = self.cache_of(p);
        let members: Vec<usize> = self.member_caches(self.cfg.cluster_of(p)).collect();
        for i in members {
            if i == own {
                continue;
            }
            let Some(mcl) = self.caches[i].peek_mut(line) else {
                continue;
            };
            if mcl.pending_until > now {
                // The mate's own fill is still in flight: merge on it.
                return Snoop::Pending(mcl.pending_until);
            }
            if mcl.state == LineState::Exclusive {
                // Supplying a dirty line writes it back: both copies
                // become SHARED and the directory goes clean.
                mcl.state = LineState::Shared;
                self.dir
                    .get_mut(&line)
                    // cluster_check: allow(no-panic) — internal
                    // invariant: a cached line always has an entry.
                    .expect("cached line has entry")
                    .dirty = false;
            }
            return Snoop::Supplied;
        }
        Snoop::Absent
    }

    /// Processor `p` issues a load of byte address `addr` at cycle
    /// `now`. Errors on an access to unallocated memory (a malformed
    /// trace, which is user input, not a protocol invariant).
    pub fn try_read(&mut self, p: ProcId, addr: u64, now: u64) -> Result<Outcome, ProtocolError> {
        let line = line_of(addr);
        let c = self.cfg.cluster_of(p);
        let ci = self.cache_of(p);
        if let Some(cl) = self.caches[ci].get_mut(line) {
            if cl.pending_until > now {
                self.stats.merge_stalls += 1;
                return Ok(Outcome::MergeWait {
                    ready_at: cl.pending_until,
                });
            }
            self.stats.read_hits += 1;
            return Ok(Outcome::ReadHit);
        }
        // Shared-memory-cluster mode: snoop the cluster bus before
        // going off-cluster.
        if self.private {
            match self.snoop_mates(p, line, now) {
                Snoop::Pending(ready_at) => {
                    self.stats.merge_stalls += 1;
                    return Ok(Outcome::MergeWait { ready_at });
                }
                Snoop::Supplied => {
                    let stall = self.bus_cycles;
                    if let Some(ev) = self.caches[ci].insert(
                        line,
                        CachedLine {
                            state: LineState::Shared,
                            pending_until: now + stall,
                        },
                    ) {
                        self.on_evicted(c, ev);
                    }
                    // The cluster's directory bit is already set.
                    self.stats.bus_transfers += 1;
                    return Ok(Outcome::ReadBus { stall });
                }
                Snoop::Absent => {}
            }
        }
        // Miss: resolve home, classify, downgrade any dirty owner, fill
        // SHARED with a pending window.
        self.home_of(line)?;
        let class = self.classify_miss(c, line);
        let stall = self.cfg.lat.of(class);
        {
            // cluster_check: allow(no-panic) — home_of above inserted
            // the entry (internal invariant).
            let e = self.dir.get_mut(&line).expect("home_of inserted entry");
            let dirty_owner = e.dirty.then(|| e.owner());
            e.dirty = false;
            e.sharers |= 1 << c;
            let downgrade = self.mutation != Some(Mutation::SkipOwnerDowngrade);
            if let Some(owner) = dirty_owner.filter(|_| downgrade) {
                // The owning cluster keeps a SHARED copy (cache-to-cache
                // transfer + sharing writeback to home). Find the member
                // cache actually holding it.
                let holder = self
                    .member_caches(owner)
                    .find(|&i| self.caches[i].peek(line).is_some())
                    // cluster_check: allow(no-panic) — internal
                    // invariant: the directory's dirty owner holds the
                    // line (checked by check_invariants).
                    .expect("dirty owner cluster must hold the line");
                // cluster_check: allow(no-panic) — found just above.
                let oc = self.caches[holder].peek_mut(line).expect("just found it");
                oc.state = LineState::Shared;
            }
        }
        if let Some(ev) = self.caches[ci].insert(
            line,
            CachedLine {
                state: LineState::Shared,
                pending_until: now + stall,
            },
        ) {
            self.on_evicted(c, ev);
        }
        self.stats.read_misses += 1;
        self.stats.by_latency[class.idx()] += 1;
        if class == LatencyClass::LocalClean {
            self.stats.local_satisfied += 1;
        }
        Ok(Outcome::ReadMiss { stall, class })
    }

    /// Processor `p` issues a store to byte address `addr` at cycle
    /// `now`. Errors on an access to unallocated memory (a malformed
    /// trace, which is user input, not a protocol invariant).
    pub fn try_write(&mut self, p: ProcId, addr: u64, now: u64) -> Result<Outcome, ProtocolError> {
        let line = line_of(addr);
        let c = self.cfg.cluster_of(p);
        let ci = self.cache_of(p);
        if let Some(cl) = self.caches[ci].get_mut(line) {
            match cl.state {
                LineState::Exclusive => {
                    self.stats.write_hits += 1;
                    return Ok(Outcome::WriteHit);
                }
                LineState::Shared => {
                    // UPGRADE: invalidate other copies instantly; the
                    // pending window (if any) is preserved — the data is
                    // still in flight for cluster-mates' reads.
                    // cluster_check: allow(no-panic) — get_mut above
                    // proved residency (internal invariant).
                    let cl = self.caches[ci].peek_mut(line).expect("just found it");
                    cl.state = LineState::Exclusive;
                    if self.mutation != Some(Mutation::DropUpgradeInvalidation) {
                        self.invalidate_others(line, c);
                        if self.private {
                            self.invalidate_mates(p, line);
                        }
                    }
                    // cluster_check: allow(no-panic) — internal
                    // invariant: a resident line has an entry.
                    let e = self.dir.get_mut(&line).expect("resident line has entry");
                    e.sharers = 1 << c;
                    e.dirty = true;
                    self.stats.upgrade_misses += 1;
                    return Ok(Outcome::Upgrade);
                }
            }
        }
        // Shared-memory-cluster mode: a mate may hold the line, in
        // which case the write acquires ownership over the bus —
        // "the invalidations are sent to processors that have copies of
        // the data item, but ownership is kept within the cluster" (§2)
        // — with no network traffic.
        if self.private && self.cluster_holds(c, line) {
            self.invalidate_others(line, c);
            self.invalidate_mates(p, line);
            {
                // cluster_check: allow(no-panic) — cluster_holds above
                // proved a resident copy (internal invariant).
                let e = self.dir.get_mut(&line).expect("resident line has entry");
                e.sharers = 1 << c;
                e.dirty = true;
            }
            if let Some(ev) = self.caches[ci].insert(
                line,
                CachedLine {
                    state: LineState::Exclusive,
                    pending_until: now + self.bus_cycles,
                },
            ) {
                self.on_evicted(c, ev);
            }
            self.stats.upgrade_misses += 1;
            return Ok(Outcome::Upgrade);
        }
        // WRITE miss: latency hidden, but classify for statistics and
        // to size the pending window.
        self.home_of(line)?;
        let class = self.classify_miss(c, line);
        let stall = self.cfg.lat.of(class);
        self.invalidate_others(line, c);
        {
            // cluster_check: allow(no-panic) — home_of above inserted
            // the entry (internal invariant).
            let e = self.dir.get_mut(&line).expect("home_of inserted entry");
            e.sharers = 1 << c;
            e.dirty = true;
        }
        if let Some(ev) = self.caches[ci].insert(
            line,
            CachedLine {
                state: LineState::Exclusive,
                pending_until: now + stall,
            },
        ) {
            self.on_evicted(c, ev);
        }
        self.stats.write_misses += 1;
        self.stats.by_latency[class.idx()] += 1;
        Ok(Outcome::WriteMiss)
    }

    /// Lines resident in cache `i` — a cluster's cache in shared-cache
    /// mode, a processor's private cache in shared-memory-cluster mode
    /// (for tests and working-set inspection).
    pub fn resident_lines(&self, i: u32) -> usize {
        self.caches[usize_from(i)].len()
    }

    /// A complete, canonical view of the protocol state (caches,
    /// directory, placement counter), sorted so that two equal machine
    /// states always produce equal snapshots regardless of internal
    /// iteration order. The `cluster_check` model checker keys its
    /// visited-state set on this.
    pub fn snapshot(&self) -> ProtocolSnapshot {
        let caches = self
            .caches
            .iter()
            .map(|cache| {
                let mut lines: Vec<CacheLineView> = cache
                    .iter_lines()
                    .map(|(line, cl)| CacheLineView {
                        line,
                        state: cl.state,
                        pending_until: cl.pending_until,
                    })
                    .collect();
                lines.sort_by_key(|v| v.line);
                lines
            })
            .collect();
        let mut dir: Vec<DirEntryView> = self
            .dir
            .iter()
            .map(|(&line, e)| DirEntryView {
                line,
                home: e.home,
                sharers: e.sharers,
                dirty: e.dirty,
            })
            .collect();
        dir.sort_by_key(|v| v.line);
        ProtocolSnapshot {
            caches,
            dir,
            rr_next: self.rr_next,
        }
    }

    /// Checks the protocol's global invariants; returns the first
    /// violation found. Used heavily by property tests.
    ///
    /// * a dirty line has exactly one sharer, holding it EXCLUSIVE;
    /// * a clean line's sharers all hold it SHARED;
    /// * every directory sharer bit corresponds to a resident copy and
    ///   vice versa;
    /// * at most one EXCLUSIVE copy exists machine-wide.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (&line, e) in &self.dir {
            if e.dirty && e.sharers.count_ones() != 1 {
                return Err(format!(
                    "line {line:#x}: dirty with {} sharers",
                    e.sharers.count_ones()
                ));
            }
            for c in 0..self.cfg.n_clusters() {
                let bit = e.sharers & (1 << c) != 0;
                let copies: Vec<&CachedLine> = self
                    .member_caches(c)
                    .filter_map(|i| self.caches[i].peek(line))
                    .collect();
                if bit && copies.is_empty() {
                    return Err(format!("line {line:#x}: dir says cluster {c} has it"));
                }
                if !bit && !copies.is_empty() {
                    return Err(format!(
                        "line {line:#x}: cluster {c} caches it but dir bit clear"
                    ));
                }
                if bit {
                    if e.dirty {
                        // The dirty cluster holds exactly one copy,
                        // EXCLUSIVE (a mate read would have downgraded
                        // and cleaned it).
                        if copies.len() != 1 || copies[0].state != LineState::Exclusive {
                            return Err(format!(
                                "line {line:#x} cluster {c}: dirty but {} copies, first {:?}",
                                copies.len(),
                                copies[0].state
                            ));
                        }
                    } else if copies.iter().any(|cl| cl.state != LineState::Shared) {
                        return Err(format!(
                            "line {line:#x} cluster {c}: clean but holds an EXCLUSIVE copy"
                        ));
                    }
                }
            }
        }
        // No cached line may lack a directory entry.
        for cache in &self.caches {
            for (line, _) in cache.iter_lines() {
                if !self.dir.contains_key(&line) {
                    return Err(format!("line {line:#x} cached without directory entry"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheSpec;
    use crate::latency::LatencyTable;
    use simcore::addr::LINE_BYTES;

    fn machine(per_cluster: u32, cache: CacheSpec) -> (MemorySystem, u64, u64) {
        // Two regions: `a` homed round-robin (first touch -> cluster 0),
        // `b` owned by the last processor.
        let mut space = AddressSpace::new();
        let a = space.alloc_shared(LINE_BYTES * 16);
        let b = space.alloc_owned(LINE_BYTES * 16, 63);
        let cfg = MachineConfig::paper(per_cluster, cache);
        (MemorySystem::try_new(cfg, &space).unwrap(), a, b)
    }

    #[test]
    fn try_new_rejects_bad_shapes_with_typed_errors() {
        let space = AddressSpace::new();
        let cfg = MachineConfig {
            n_procs: 64,
            per_cluster: 3,
            cache: CacheSpec::Infinite,
            lat: LatencyTable::paper(),
        };
        assert_eq!(
            MemorySystem::try_new(cfg, &space).err(),
            Some(ProtocolError::Config(ConfigError::ClusterDoesNotDivide {
                per_cluster: 3,
                n_procs: 64
            }))
        );
        let too_many = MachineConfig {
            n_procs: 128,
            per_cluster: 1,
            ..cfg
        };
        assert_eq!(
            MemorySystem::try_new(too_many, &space).err(),
            Some(ProtocolError::Config(ConfigError::TooManyClusters {
                clusters: 128,
                max: 64
            }))
        );
    }

    #[test]
    fn try_read_rejects_unallocated_access() {
        let (mut m, _, _) = machine(1, CacheSpec::Infinite);
        let bogus = 0xdead_0000u64;
        let err = m.try_read(0, bogus, 0).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::UnallocatedAccess {
                line: line_of(bogus)
            }
        );
        assert!(err.to_string().contains("unallocated line"));
        assert!(m.try_write(0, bogus, 0).is_err());
        // The typed path leaves no half-built directory state behind.
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn cold_read_local_home_costs_30() {
        let (mut m, a, _) = machine(1, CacheSpec::Infinite);
        // First touch: round-robin gives home cluster 0. Processor 0 is
        // in cluster 0, so the miss is local-clean.
        match m.try_read(0, a, 0).unwrap() {
            Outcome::ReadMiss { stall, class } => {
                assert_eq!(stall, 30);
                assert_eq!(class, LatencyClass::LocalClean);
            }
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(m.try_read(0, a, 100).unwrap(), Outcome::ReadHit);
        m.check_invariants().unwrap();
    }

    #[test]
    fn round_robin_homes_cycle() {
        let (mut m, a, _) = machine(1, CacheSpec::Infinite);
        // Touch 3 distinct lines from processor 5; homes go 0, 1, 2.
        for i in 0..3u64 {
            match m.try_read(5, a + i * LINE_BYTES, 0).unwrap() {
                Outcome::ReadMiss { class, .. } => {
                    // Only the line homed at cluster 5 would be local;
                    // none of 0,1,2 are.
                    assert_eq!(class, LatencyClass::RemoteClean);
                }
                o => panic!("unexpected {o:?}"),
            }
        }
        // Fourth line from processor 3: home is cluster 3 => local.
        match m.try_read(3, a + 3 * LINE_BYTES, 0).unwrap() {
            Outcome::ReadMiss { class, .. } => assert_eq!(class, LatencyClass::LocalClean),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn owner_placement_homes_at_owner_cluster() {
        let (mut m, _, b) = machine(8, CacheSpec::Infinite);
        // Region `b` is owned by processor 63 => cluster 7.
        match m.try_read(56, b, 0).unwrap() {
            // Processor 56 is in cluster 7 too: local home.
            Outcome::ReadMiss { stall, .. } => assert_eq!(stall, 30),
            o => panic!("unexpected {o:?}"),
        }
        match m.try_read(0, b + LINE_BYTES, 0).unwrap() {
            Outcome::ReadMiss { stall, .. } => assert_eq!(stall, 100),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn merge_on_pending_line_then_hit() {
        let (mut m, a, _) = machine(2, CacheSpec::Infinite);
        // Processor 0 misses at t=0 (remote home? first touch -> home 0,
        // proc 0 is cluster 0 => local, 30 cycles, ready at 30).
        assert!(matches!(
            m.try_read(0, a, 0).unwrap(),
            Outcome::ReadMiss { stall: 30, .. }
        ));
        // Cluster-mate processor 1 reads at t=10: merge until 30.
        match m.try_read(1, a, 10).unwrap() {
            Outcome::MergeWait { ready_at } => assert_eq!(ready_at, 30),
            o => panic!("unexpected {o:?}"),
        }
        // Retry at 30: hit.
        assert_eq!(m.try_read(1, a, 30).unwrap(), Outcome::ReadHit);
        assert_eq!(m.stats.merge_stalls, 1);
        assert_eq!(m.stats.read_hits, 1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn write_miss_opens_pending_window_for_merges() {
        let (mut m, a, _) = machine(2, CacheSpec::Infinite);
        assert_eq!(m.try_write(0, a, 0).unwrap(), Outcome::WriteMiss);
        match m.try_read(1, a, 5).unwrap() {
            Outcome::MergeWait { ready_at } => assert_eq!(ready_at, 30),
            o => panic!("unexpected {o:?}"),
        }
        assert_eq!(m.try_read(1, a, 30).unwrap(), Outcome::ReadHit);
    }

    #[test]
    fn upgrade_invalidates_other_clusters() {
        let (mut m, a, _) = machine(1, CacheSpec::Infinite);
        // Clusters 0 and 1 both read the line.
        let _ = m.try_read(0, a, 0).unwrap();
        let _ = m.try_read(1, a, 100).unwrap();
        m.check_invariants().unwrap();
        // Cluster 0 writes: UPGRADE, cluster 1 invalidated.
        assert_eq!(m.try_write(0, a, 200).unwrap(), Outcome::Upgrade);
        assert_eq!(m.stats.invalidations, 1);
        m.check_invariants().unwrap();
        // Cluster 1 re-reads: miss, satisfied three-hop? Home is cluster
        // 0 (first touch rr), dirty at cluster 0 == home => remote clean
        // (satisfied by home), 100 cycles.
        match m.try_read(1, a, 300).unwrap() {
            Outcome::ReadMiss { stall, class } => {
                assert_eq!(class, LatencyClass::RemoteClean);
                assert_eq!(stall, 100);
            }
            o => panic!("unexpected {o:?}"),
        }
        // The dirty copy was downgraded, not invalidated.
        assert_eq!(m.try_read(0, a, 400).unwrap(), Outcome::ReadHit);
        m.check_invariants().unwrap();
    }

    #[test]
    fn three_hop_miss_costs_150() {
        let (mut m, a, _) = machine(1, CacheSpec::Infinite);
        // Line homed at cluster 0 (first touch). Cluster 2 writes it
        // (dirty at 2). Cluster 5 reads: remote home (0), dirty third
        // party (2) => 150.
        let _ = m.try_write(2, a, 0).unwrap();
        match m.try_read(5, a, 100).unwrap() {
            Outcome::ReadMiss { stall, class } => {
                assert_eq!(class, LatencyClass::RemoteDirtyThird);
                assert_eq!(stall, 150);
            }
            o => panic!("unexpected {o:?}"),
        }
        m.check_invariants().unwrap();
    }

    #[test]
    fn local_home_dirty_remote_costs_100() {
        let (mut m, a, _) = machine(1, CacheSpec::Infinite);
        let _ = m.try_write(2, a, 0).unwrap(); // home 0, dirty at 2
        match m.try_read(0, a, 50).unwrap() {
            Outcome::ReadMiss { stall, class } => {
                assert_eq!(class, LatencyClass::LocalDirtyRemote);
                assert_eq!(stall, 100);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn write_hit_on_exclusive() {
        let (mut m, a, _) = machine(1, CacheSpec::Infinite);
        let _ = m.try_write(0, a, 0).unwrap();
        assert_eq!(m.try_write(0, a, 10).unwrap(), Outcome::WriteHit);
        assert_eq!(m.stats.write_hits, 1);
        assert_eq!(m.stats.write_misses, 1);
    }

    #[test]
    fn eviction_sends_replacement_hint() {
        // 1 processor per cluster, cache of exactly 1 line.
        let mut space = AddressSpace::new();
        let a = space.alloc_shared(LINE_BYTES * 4);
        let cfg = MachineConfig {
            n_procs: 4,
            per_cluster: 1,
            cache: CacheSpec::PerProcBytes(LINE_BYTES),
            lat: LatencyTable::paper(),
        };
        let mut m = MemorySystem::try_new(cfg, &space).unwrap();
        let _ = m.try_read(0, a, 0).unwrap();
        let _ = m.try_read(0, a + LINE_BYTES, 100).unwrap(); // evicts line 0
        assert_eq!(m.stats.evictions, 1);
        m.check_invariants().unwrap();
        // Re-read of line 0 must miss again (capacity).
        assert!(matches!(
            m.try_read(0, a, 200).unwrap(),
            Outcome::ReadMiss { .. }
        ));
    }

    #[test]
    fn dirty_eviction_counts_writeback_and_cleans_dir() {
        let mut space = AddressSpace::new();
        let a = space.alloc_shared(LINE_BYTES * 4);
        let cfg = MachineConfig {
            n_procs: 2,
            per_cluster: 1,
            cache: CacheSpec::PerProcBytes(LINE_BYTES),
            lat: LatencyTable::paper(),
        };
        let mut m = MemorySystem::try_new(cfg, &space).unwrap();
        let _ = m.try_write(0, a, 0).unwrap();
        let _ = m.try_read(0, a + LINE_BYTES, 100).unwrap(); // evicts dirty line
        assert_eq!(m.stats.writebacks, 1);
        m.check_invariants().unwrap();
        // Other cluster now reads the line: home has it clean => no
        // three-hop penalty.
        match m.try_read(1, a, 200).unwrap() {
            Outcome::ReadMiss { class, .. } => {
                assert_ne!(class, LatencyClass::RemoteDirtyThird);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn clustering_turns_remote_misses_into_hits() {
        // The core clustering effect: two processors touching the same
        // line. Unclustered -> two misses; clustered -> one miss + hit.
        let (mut m1, a, _) = machine(1, CacheSpec::Infinite);
        let _ = m1.try_read(0, a, 0).unwrap();
        assert!(matches!(
            m1.try_read(1, a, 1000).unwrap(),
            Outcome::ReadMiss { .. }
        ));

        let (mut m2, a2, _) = machine(2, CacheSpec::Infinite);
        let _ = m2.try_read(0, a2, 0).unwrap();
        assert_eq!(m2.try_read(1, a2, 1000).unwrap(), Outcome::ReadHit);
    }

    #[test]
    fn invalidation_kills_pending_line() {
        let (mut m, a, _) = machine(2, CacheSpec::Infinite);
        // Cluster 0 (procs 0,1) misses at t=0, pending until 30.
        let _ = m.try_read(0, a, 0).unwrap();
        // Cluster 1 (procs 2,3) writes at t=10: invalidates the pending
        // line in cluster 0.
        let _ = m.try_write(2, a, 10).unwrap();
        assert_eq!(m.stats.invalidations, 1);
        // Proc 1 reads at t=20: the line is gone; fresh miss, not merge.
        assert!(matches!(
            m.try_read(1, a, 20).unwrap(),
            Outcome::ReadMiss { .. }
        ));
        m.check_invariants().unwrap();
    }

    fn private_machine(per_cluster: u32, bytes: u64) -> (MemorySystem, u64) {
        let mut space = AddressSpace::new();
        let a = space.alloc_shared(LINE_BYTES * 64);
        let cfg = MachineConfig {
            n_procs: 8,
            per_cluster,
            cache: CacheSpec::PrivatePerProc {
                bytes,
                bus_cycles: 15,
            },
            lat: LatencyTable::paper(),
        };
        (MemorySystem::try_new(cfg, &space).unwrap(), a)
    }

    #[test]
    fn private_mode_mate_supplies_over_bus() {
        let (mut m, a) = private_machine(4, 1 << 20);
        // Proc 0 fetches the line; cluster mate proc 1 then reads it:
        // supplied over the bus at bus latency, not a network miss.
        assert!(matches!(
            m.try_read(0, a, 0).unwrap(),
            Outcome::ReadMiss { .. }
        ));
        match m.try_read(1, a, 1_000).unwrap() {
            Outcome::ReadBus { stall } => assert_eq!(stall, 15),
            o => panic!("expected bus transfer, got {o:?}"),
        }
        assert_eq!(m.stats.bus_transfers, 1);
        m.check_invariants().unwrap();
        // A processor in another cluster still pays the network.
        assert!(matches!(
            m.try_read(4, a, 2_000).unwrap(),
            Outcome::ReadMiss { .. }
        ));
    }

    #[test]
    fn private_mode_no_destructive_interference() {
        // Shared cache: proc 1's streaming evicts proc 0's line.
        // Private caches: it cannot ("destructive interference does not
        // exist, since the caches are separate", §2).
        let run = |private: bool| -> bool {
            let mut space = AddressSpace::new();
            let a = space.alloc_shared(LINE_BYTES * 64);
            let cache = if private {
                CacheSpec::PrivatePerProc {
                    bytes: 4 * LINE_BYTES,
                    bus_cycles: 15,
                }
            } else {
                CacheSpec::PerProcBytes(4 * LINE_BYTES)
            };
            let cfg = MachineConfig {
                n_procs: 2,
                per_cluster: 2,
                cache,
                lat: LatencyTable::paper(),
            };
            let mut m = MemorySystem::try_new(cfg, &space).unwrap();
            let _ = m.try_read(0, a, 0).unwrap(); // proc 0 caches line 0
            for i in 1..32u64 {
                let _ = m.try_read(1, a + i * LINE_BYTES, i * 200).unwrap(); // proc 1 streams
            }
            m.check_invariants().unwrap();
            // Is proc 0's line still a hit?
            matches!(m.try_read(0, a, 100_000).unwrap(), Outcome::ReadHit)
        };
        assert!(run(true), "private caches must be isolated");
        assert!(!run(false), "a shared cache must show interference");
    }

    #[test]
    fn private_mode_write_keeps_ownership_in_cluster() {
        let (mut m, a) = private_machine(4, 1 << 20);
        let _ = m.try_write(0, a, 0).unwrap(); // proc 0 owns dirty
                                               // Cluster mate proc 1 writes: bus invalidation, no network
                                               // invalidations, directory still shows the same cluster dirty.
        let out = m.try_write(1, a, 1_000).unwrap();
        assert_eq!(out, Outcome::Upgrade);
        assert_eq!(m.stats.bus_invalidations, 1);
        assert_eq!(m.stats.invalidations, 0);
        m.check_invariants().unwrap();
        // Proc 1 now write-hits.
        assert_eq!(m.try_write(1, a, 2_000).unwrap(), Outcome::WriteHit);
    }

    #[test]
    fn private_mode_read_of_mates_dirty_line_cleans_it() {
        let (mut m, a) = private_machine(2, 1 << 20);
        let _ = m.try_write(0, a, 0).unwrap();
        match m.try_read(1, a, 500).unwrap() {
            Outcome::ReadBus { .. } => {}
            o => panic!("expected bus supply of dirty line, got {o:?}"),
        }
        m.check_invariants().unwrap();
        // Another cluster's read now sees a clean line (two-hop, not
        // three-hop).
        match m.try_read(2, a, 1_000).unwrap() {
            Outcome::ReadMiss { class, .. } => {
                assert_ne!(class, LatencyClass::RemoteDirtyThird);
                assert_ne!(class, LatencyClass::LocalDirtyRemote);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn private_mode_eviction_hint_waits_for_last_copy() {
        // Two mates hold the line; one evicts it — the cluster bit must
        // survive until the second copy leaves.
        let mut space = AddressSpace::new();
        let a = space.alloc_shared(LINE_BYTES * 8);
        let cfg = MachineConfig {
            n_procs: 2,
            per_cluster: 2,
            cache: CacheSpec::PrivatePerProc {
                bytes: LINE_BYTES, // one line per private cache
                bus_cycles: 15,
            },
            lat: LatencyTable::paper(),
        };
        let mut m = MemorySystem::try_new(cfg, &space).unwrap();
        let _ = m.try_read(0, a, 0).unwrap();
        let _ = m.try_read(1, a, 200).unwrap(); // bus supply; both hold it
        let _ = m.try_read(0, a + LINE_BYTES, 400).unwrap(); // evicts proc 0's copy
        m.check_invariants().unwrap();
        // Proc 1 still hits; the cluster bit must still be set.
        assert_eq!(m.try_read(1, a, 600).unwrap(), Outcome::ReadHit);
    }

    #[test]
    fn stats_classify_read_write_upgrade() {
        let (mut m, a, _) = machine(1, CacheSpec::Infinite);
        let _ = m.try_read(0, a, 0).unwrap(); // READ miss
        let _ = m.try_write(0, a, 10).unwrap(); // UPGRADE (shared in own cache)
        let _ = m.try_write(1, a + LINE_BYTES, 20).unwrap(); // WRITE miss
        assert_eq!(m.stats.read_misses, 1);
        assert_eq!(m.stats.upgrade_misses, 1);
        assert_eq!(m.stats.write_misses, 1);
    }
}
