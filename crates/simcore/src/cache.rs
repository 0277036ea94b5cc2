//! Cache structures used for the per-cluster shared caches.
//!
//! The paper simulates *fully associative* caches with LRU replacement
//! "to exclude the effect of conflict misses from the performance
//! characterizations" (§3.1). [`FullLruCache`] implements that with an
//! O(1) [`LineMap`] (a hash map under the unkeyed line hasher) + an
//! intrusive doubly-linked recency list. An infinite cache (capacity
//! `usize::MAX`, the paper's §4 caches) never evicts, so no result can
//! depend on its recency: a hit leaves its list alone, and the list
//! only records insertion order.
//!
//! The paper defers limited associativity (and the destructive
//! interference it causes in shared caches) to future work.
//! [`SetAssocCache`] covers it as a set-indexed array of
//! [`FullLruCache`]s, one per set, so `FullLruCache` is the one LRU
//! implementation: a fully-associative cache is the one-set case, and
//! the coherence protocol holds every cluster cache as a
//! `SetAssocCache`.

use crate::addr::LineAddr;
use crate::hash::LineMap;

/// A line evicted by an insertion, returned to the caller so the
/// coherence layer can issue a replacement hint / writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine<V> {
    /// The evicted line address.
    pub line: LineAddr,
    /// Its payload (coherence state) at eviction.
    pub val: V,
}

/// A rejected cache geometry. User-reachable: cache shapes come from
/// CLI/config-level `CacheSpec`s, so constructors offer `try_new`
/// variants returning this instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheError {
    /// Capacity of zero lines.
    ZeroCapacity,
    /// Set-associative cache with zero ways.
    ZeroWays,
    /// Total capacity smaller than the associativity (less than one
    /// set).
    CapacityBelowWays {
        /// Requested total capacity in lines.
        lines: usize,
        /// Requested associativity.
        ways: usize,
    },
    /// `capacity / ways` is not a power of two (set index must be a
    /// bit mask).
    SetsNotPowerOfTwo {
        /// The resulting set count.
        sets: usize,
    },
    /// Capacity is not an exact multiple of the associativity.
    CapacityNotWaysMultiple {
        /// Requested total capacity in lines.
        lines: usize,
        /// Requested associativity.
        ways: usize,
    },
    /// More sets than [`MAX_SETS`]: each set is a [`FullLruCache`]
    /// allocated up front.
    TooManySets {
        /// The resulting set count.
        sets: usize,
    },
}

/// The most sets a [`SetAssocCache`] holds: 2^20, 32× the lines of the
/// largest paper configuration (32 KB per processor on 64 processors).
pub const MAX_SETS: usize = 1 << 20;

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::ZeroCapacity => write!(f, "cache capacity must be positive"),
            CacheError::ZeroWays => write!(f, "associativity must be positive"),
            CacheError::CapacityBelowWays { lines, ways } => {
                write!(f, "capacity {lines} lines is below associativity {ways}")
            }
            CacheError::SetsNotPowerOfTwo { sets } => {
                write!(f, "number of sets ({sets}) must be a power of two")
            }
            CacheError::CapacityNotWaysMultiple { lines, ways } => {
                write!(f, "capacity {lines} lines is not a multiple of {ways} ways")
            }
            CacheError::TooManySets { sets } => {
                write!(f, "{sets} sets exceed the limit of {MAX_SETS}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<V> {
    line: LineAddr,
    val: V,
    prev: u32,
    next: u32,
}

/// A fully-associative cache with true LRU replacement.
///
/// Capacity is measured in cache lines; `usize::MAX` models the paper's
/// infinite caches (no replacement ever occurs).
#[derive(Debug, Clone)]
pub struct FullLruCache<V> {
    map: LineMap<u32>,
    slots: Vec<Slot<V>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl<V> FullLruCache<V> {
    /// Creates a cache holding at most `capacity_lines` lines,
    /// panicking on a zero capacity; [`FullLruCache::try_new`] is the
    /// non-panicking form for user-supplied geometries.
    pub fn new(capacity_lines: usize) -> Self {
        // cluster_check: allow(no-panic) — documented panicking
        // constructor; callers with user input use try_new.
        Self::try_new(capacity_lines).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a cache holding at most `capacity_lines` lines, or
    /// explains why the geometry is invalid.
    pub fn try_new(capacity_lines: usize) -> Result<Self, CacheError> {
        if capacity_lines == 0 {
            return Err(CacheError::ZeroCapacity);
        }
        Ok(FullLruCache {
            map: LineMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity_lines,
        })
    }

    /// Creates an effectively infinite cache.
    pub fn infinite() -> Self {
        Self::new(usize::MAX)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `line` is resident (does not affect recency).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.map.contains_key(&line)
    }

    /// Payload of `line` without touching recency.
    pub fn peek(&self, line: LineAddr) -> Option<&V> {
        self.map
            .get(&line)
            .map(|&i| &self.slots[crate::cast::usize_from(i)].val)
    }

    /// Mutable payload of `line`, promoting it to most-recently-used.
    /// An infinite cache never evicts, so nothing can observe its
    /// recency and it keeps none: its lines stay in insertion order.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let &idx = self.map.get(&line)?;
        if self.capacity != usize::MAX {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&mut self.slots[crate::cast::usize_from(idx)].val)
    }

    /// Mutable payload of `line` without touching recency.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let &idx = self.map.get(&line)?;
        Some(&mut self.slots[crate::cast::usize_from(idx)].val)
    }

    /// Inserts `line` as most-recently-used. The line must not already
    /// be resident. If the cache is full the LRU line is evicted and
    /// returned.
    pub fn insert(&mut self, line: LineAddr, val: V) -> Option<EvictedLine<V>> {
        assert!(
            !self.map.contains_key(&line),
            "insert of already-resident line {line:#x}"
        );

        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let slot = &mut self.slots[crate::cast::usize_from(victim)];
            let old_line = slot.line;
            self.map.remove(&old_line);
            slot.line = line;
            let old_val = std::mem::replace(&mut slot.val, val);
            self.map.insert(line, victim);
            self.push_front(victim);
            Some(EvictedLine {
                line: old_line,
                val: old_val,
            })
        } else {
            let idx = match self.free.pop() {
                Some(i) => {
                    self.slots[crate::cast::usize_from(i)] = Slot {
                        line,
                        val,
                        prev: NIL,
                        next: NIL,
                    };
                    i
                }
                None => {
                    self.slots.push(Slot {
                        line,
                        val,
                        prev: NIL,
                        next: NIL,
                    });
                    // cluster_check: allow(no-lossy-cast) — slot
                    // count is bounded by the line capacity, far below
                    // u32::MAX for any configurable cache.
                    (self.slots.len() - 1) as u32
                }
            };
            self.map.insert(line, idx);
            self.push_front(idx);
            None
        }
    }

    /// Removes `line` (invalidation), returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<V>
    where
        V: Default,
    {
        let idx = self.map.remove(&line)?;
        self.unlink(idx);
        self.free.push(idx);
        Some(std::mem::take(
            &mut self.slots[crate::cast::usize_from(idx)].val,
        ))
    }

    /// Iterates resident lines from most- to least-recently-used (an
    /// infinite cache: most- to least-recently inserted).
    pub fn iter_mru(&self) -> impl Iterator<Item = (LineAddr, &V)> {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let slot = &self.slots[crate::cast::usize_from(cur)];
            cur = slot.next;
            Some((slot.line, &slot.val))
        })
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[crate::cast::usize_from(idx)];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[crate::cast::usize_from(prev)].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[crate::cast::usize_from(next)].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        let s = &mut self.slots[crate::cast::usize_from(idx)];
        s.prev = NIL;
        s.next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.slots[crate::cast::usize_from(idx)].prev = NIL;
        self.slots[crate::cast::usize_from(idx)].next = self.head;
        if self.head != NIL {
            self.slots[crate::cast::usize_from(self.head)].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A set-associative LRU cache: one [`FullLruCache`] of `ways` lines
/// per set, the set index taken from the low bits of the line address,
/// as in a physically indexed cache. A fully-associative cache is the
/// one-set case (`ways == capacity`), an infinite one a single set of
/// `usize::MAX` ways.
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    sets: Vec<FullLruCache<V>>,
    set_mask: u64,
}

impl<V> SetAssocCache<V> {
    /// Creates a cache of `capacity_lines` total lines with `ways`
    /// associativity, panicking on an invalid geometry;
    /// [`SetAssocCache::try_new`] is the non-panicking form.
    /// `capacity_lines / ways` must be a power of two.
    pub fn new(capacity_lines: usize, ways: usize) -> Self {
        // cluster_check: allow(no-panic) — documented panicking
        // constructor; callers with user input use try_new.
        Self::try_new(capacity_lines, ways).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a cache of `capacity_lines` total lines with `ways`
    /// associativity, or explains why the geometry is invalid.
    pub fn try_new(capacity_lines: usize, ways: usize) -> Result<Self, CacheError> {
        if ways == 0 {
            return Err(CacheError::ZeroWays);
        }
        if capacity_lines < ways {
            return Err(CacheError::CapacityBelowWays {
                lines: capacity_lines,
                ways,
            });
        }
        let n_sets = capacity_lines / ways;
        if !n_sets.is_power_of_two() {
            return Err(CacheError::SetsNotPowerOfTwo { sets: n_sets });
        }
        if n_sets * ways != capacity_lines {
            return Err(CacheError::CapacityNotWaysMultiple {
                lines: capacity_lines,
                ways,
            });
        }
        if n_sets > MAX_SETS {
            return Err(CacheError::TooManySets { sets: n_sets });
        }
        Ok(SetAssocCache {
            sets: (0..n_sets)
                .map(|_| FullLruCache::try_new(ways))
                .collect::<Result<_, _>>()?,
            set_mask: (n_sets - 1) as u64,
        })
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(FullLruCache::len).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.sets.iter().all(FullLruCache::is_empty)
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        // cluster_check: allow(no-lossy-cast) — masked to the set-index
        // bits, which fit any usize (set counts are small powers of 2).
        (line & self.set_mask) as usize
    }

    /// Whether `line` is resident (does not affect recency).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.sets[self.set_of(line)].contains(line)
    }

    /// Payload of `line` without touching recency.
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&V> {
        self.sets[self.set_of(line)].peek(line)
    }

    /// Mutable payload of `line`, promoting it to MRU within its set.
    #[inline]
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let set = self.set_of(line);
        self.sets[set].get_mut(line)
    }

    /// Mutable payload of `line` without touching recency.
    #[inline]
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut V> {
        let set = self.set_of(line);
        self.sets[set].peek_mut(line)
    }

    /// Inserts `line` as MRU of its set; evicts the set's LRU line when
    /// the set is full. The line must not already be resident.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, val: V) -> Option<EvictedLine<V>> {
        let set = self.set_of(line);
        self.sets[set].insert(line, val)
    }

    /// Removes `line` (invalidation), returning its payload.
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> Option<V>
    where
        V: Default,
    {
        let set = self.set_of(line);
        self.sets[set].remove(line)
    }

    /// Iterates every resident line in set order (MRU-first within a
    /// set). For state inspection — invariant checks, the protocol
    /// model checker's snapshots — not for timing-sensitive paths.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &V)> {
        self.sets.iter().flat_map(FullLruCache::iter_mru)
    }
}

/// Cache organization selector for a cluster cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// Infinite capacity (compulsory + coherence misses only; §4).
    Infinite,
    /// Fully associative LRU of the given capacity in lines (§5).
    FullLru {
        /// Total capacity in lines.
        lines: usize,
    },
    /// Set-associative LRU (extension study).
    SetAssoc {
        /// Total capacity in lines.
        lines: usize,
        /// Associativity.
        ways: usize,
    },
}

impl CacheKind {
    /// A fully-associative cache sized in bytes per processor, scaled by
    /// the cluster size (the paper keeps *total* cache per processor
    /// fixed: an 8-processor cluster with 4 KB/processor has one 32 KB
    /// shared cache).
    pub fn full_lru_per_proc(bytes_per_proc: u64, procs_per_cluster: usize) -> CacheKind {
        let lines = usize::try_from(bytes_per_proc / crate::addr::LINE_BYTES)
            .unwrap_or(usize::MAX)
            .saturating_mul(procs_per_cluster);
        CacheKind::FullLru {
            lines: lines.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_order() {
        let mut c = FullLruCache::new(2);
        assert!(c.insert(1, 'a').is_none());
        assert!(c.insert(2, 'b').is_none());
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get_mut(1), Some(&mut 'a'));
        let ev = c.insert(3, 'c').unwrap();
        assert_eq!(ev, EvictedLine { line: 2, val: 'b' });
        assert!(c.contains(1) && c.contains(3) && !c.contains(2));
    }

    #[test]
    fn lru_peek_does_not_promote() {
        let mut c = FullLruCache::new(2);
        c.insert(1, ());
        c.insert(2, ());
        assert!(c.peek(1).is_some());
        let ev = c.insert(3, ()).unwrap();
        assert_eq!(ev.line, 1, "peek must not refresh recency");
    }

    #[test]
    fn lru_remove_frees_capacity() {
        let mut c = FullLruCache::new(2);
        c.insert(1, 0u8);
        c.insert(2, 0u8);
        assert_eq!(c.remove(1), Some(0));
        assert_eq!(c.remove(1), None);
        assert!(c.insert(3, 0).is_none(), "removal freed a slot");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_iter_mru_order() {
        let mut c = FullLruCache::new(8);
        for l in 0..4 {
            c.insert(l, ());
        }
        c.get_mut(0);
        let order: Vec<_> = c.iter_mru().map(|(l, _)| l).collect();
        assert_eq!(order, vec![0, 3, 2, 1]);
    }

    #[test]
    fn infinite_cache_never_evicts() {
        let mut c = FullLruCache::infinite();
        for l in 0..10_000u64 {
            assert!(c.insert(l, ()).is_none());
        }
        assert_eq!(c.len(), 10_000);
    }

    #[test]
    #[should_panic]
    fn double_insert_panics() {
        let mut c = FullLruCache::new(4);
        c.insert(1, ());
        c.insert(1, ());
    }

    #[test]
    fn set_assoc_conflict_eviction() {
        // 4 lines, 2 ways => 2 sets. Lines 0,2,4 map to set 0.
        let mut c = SetAssocCache::new(4, 2);
        assert!(c.insert(0, 'a').is_none());
        assert!(c.insert(2, 'b').is_none());
        // Set 0 now full even though the cache is half empty.
        let ev = c.insert(4, 'c').unwrap();
        assert_eq!(ev.line, 0, "LRU of set 0 is evicted");
        assert_eq!(c.len(), 2);
        // Set 1 unaffected.
        assert!(c.insert(1, 'd').is_none());
    }

    #[test]
    fn set_assoc_touch_promotes_within_set() {
        let mut c = SetAssocCache::new(4, 2);
        c.insert(0, ());
        c.insert(2, ());
        c.get_mut(0);
        let ev = c.insert(4, ()).unwrap();
        assert_eq!(ev.line, 2);
    }

    #[test]
    fn set_assoc_direct_mapped() {
        let mut c = SetAssocCache::new(4, 1);
        c.insert(0, ());
        let ev = c.insert(4, ()).unwrap();
        assert_eq!(ev.line, 0);
        assert!(c.contains(4));
    }

    #[test]
    fn cache_kind_scaling() {
        match CacheKind::full_lru_per_proc(4096, 8) {
            CacheKind::FullLru { lines } => assert_eq!(lines, 4096 / 64 * 8),
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic]
    fn set_assoc_requires_pow2_sets() {
        let _: SetAssocCache<()> = SetAssocCache::new(24, 2); // 12 sets, not a power of two
    }

    #[test]
    fn try_new_reports_typed_geometry_errors() {
        assert_eq!(
            FullLruCache::<()>::try_new(0).err(),
            Some(CacheError::ZeroCapacity)
        );
        assert!(FullLruCache::<()>::try_new(4).is_ok());
        assert_eq!(
            SetAssocCache::<()>::try_new(4, 0).err(),
            Some(CacheError::ZeroWays)
        );
        assert_eq!(
            SetAssocCache::<()>::try_new(1, 2).err(),
            Some(CacheError::CapacityBelowWays { lines: 1, ways: 2 })
        );
        assert_eq!(
            SetAssocCache::<()>::try_new(24, 2).err(),
            Some(CacheError::SetsNotPowerOfTwo { sets: 12 })
        );
        assert_eq!(
            SetAssocCache::<()>::try_new(9, 4).err(),
            Some(CacheError::CapacityNotWaysMultiple { lines: 9, ways: 4 })
        );
        assert_eq!(
            SetAssocCache::<()>::try_new(MAX_SETS * 2, 1).err(),
            Some(CacheError::TooManySets { sets: MAX_SETS * 2 })
        );
        assert!(SetAssocCache::<()>::try_new(8, 2).is_ok());
        // Display is human-readable, for CLI-level error surfacing.
        assert!(CacheError::ZeroCapacity.to_string().contains("positive"));
    }
}
