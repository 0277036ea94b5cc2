//! The shared virtual address space and its allocator.
//!
//! The paper's machine distributes memory among clusters: "Memory is
//! allocated to clusters when first touched on a round robin basis. Some
//! application programs explicitly place data when such placement improves
//! performance. All stack references are allocated locally." (§3.1)
//!
//! Because the *same* application trace is replayed under several cluster
//! configurations (1, 2, 4 or 8 processors per cluster), the home cluster
//! of a line cannot be fixed at trace-generation time — the number of
//! clusters differs between runs. Instead, each allocated [`Region`]
//! carries a [`Placement`] *policy*, and the coherence layer resolves the
//! policy to a concrete home cluster lazily, at simulation time, when the
//! line is first touched.

use crate::addr::{round_up_to_line, LINE_BYTES};

/// Identifier of a logical processor (0-based). The paper fixes the
/// machine at 64 processors; the simulator accepts any count.
pub type ProcId = u32;

/// Home-placement policy for a region of the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Home assigned round-robin over clusters at first touch (the
    /// paper's default for shared data).
    RoundRobin,
    /// Home is the cluster containing the given processor (used for
    /// stacks, private data, and explicitly placed shared data such as
    /// Ocean's subgrids and LU's blocks).
    Owner(ProcId),
}

/// A contiguous, line-aligned region of the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address (line-aligned).
    pub base: u64,
    /// Size in bytes (line-aligned).
    pub bytes: u64,
    /// Placement policy for every line in the region.
    pub placement: Placement,
}

impl Region {
    /// Whether `addr` falls inside the region.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes
    }
}

/// A bump-allocated shared virtual address space.
///
/// Allocation never reuses addresses, so the region list is sorted by
/// base address and placement lookups are a binary search.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    regions: Vec<Region>,
    next: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Creates an empty address space. The first allocation starts at a
    /// non-zero base so that address 0 is never valid (it is reserved as
    /// a sentinel by some workloads).
    pub fn new() -> Self {
        AddressSpace {
            regions: Vec::new(),
            next: LINE_BYTES,
        }
    }

    /// Allocates `bytes` (rounded up to whole lines) with the given
    /// placement policy and returns the region base address.
    pub fn alloc(&mut self, bytes: u64, placement: Placement) -> u64 {
        let base = self.try_alloc(bytes, placement);
        // cluster_check: allow(no-panic) — generators allocate far
        // below 2^64 bytes; untrusted sizes go through `try_alloc`.
        base.expect("address space overflow")
    }

    /// [`AddressSpace::alloc`] for untrusted sizes: `None`, allocating
    /// nothing, when the rounded region would end past the top of the
    /// 64-bit address space.
    pub fn try_alloc(&mut self, bytes: u64, placement: Placement) -> Option<u64> {
        let bytes = round_up_to_line(bytes.max(1))?;
        let base = self.next;
        self.next = base.checked_add(bytes)?;
        self.regions.push(Region {
            base,
            bytes,
            placement,
        });
        Some(base)
    }

    /// Allocates shared data homed round-robin at first touch.
    pub fn alloc_shared(&mut self, bytes: u64) -> u64 {
        self.alloc(bytes, Placement::RoundRobin)
    }

    /// Allocates data homed at `owner`'s cluster (stack / private /
    /// explicitly placed data).
    pub fn alloc_owned(&mut self, bytes: u64, owner: ProcId) -> u64 {
        self.alloc(bytes, Placement::Owner(owner))
    }

    /// Allocates a typed shared array of `len` elements of `elem_bytes`
    /// each.
    pub fn alloc_array(&mut self, len: u64, elem_bytes: u64, placement: Placement) -> SharedArray {
        let base = self.alloc(len * elem_bytes, placement);
        SharedArray {
            base,
            elem_bytes,
            len,
        }
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.next - LINE_BYTES
    }

    /// Number of allocated regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The placement policy covering byte address `addr`, if allocated.
    pub fn placement_of(&self, addr: u64) -> Option<Placement> {
        let idx = self.regions.partition_point(|r| r.base <= addr);
        if idx == 0 {
            return None;
        }
        let r = &self.regions[idx - 1];
        r.contains(addr).then_some(r.placement)
    }

    /// Iterates over all regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }
}

/// A typed view of a contiguous shared array, used by the workloads to
/// turn element indices into byte addresses.
#[derive(Debug, Clone, Copy)]
pub struct SharedArray {
    /// First byte address.
    pub base: u64,
    /// Element size in bytes.
    pub elem_bytes: u64,
    /// Number of elements.
    pub len: u64,
}

impl SharedArray {
    /// Byte address of element `i`. Panics in debug builds when out of
    /// range.
    #[inline]
    pub fn addr(&self, i: u64) -> u64 {
        debug_assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        self.base + i * self.elem_bytes
    }

    /// Total size in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.len * self.elem_bytes
    }

    /// A sub-array view of `count` elements starting at `start`.
    pub fn slice(&self, start: u64, count: u64) -> SharedArray {
        assert!(start + count <= self.len);
        SharedArray {
            base: self.addr(start),
            elem_bytes: self.elem_bytes,
            len: count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut s = AddressSpace::new();
        let a = s.alloc_shared(100);
        let b = s.alloc_owned(1, 3);
        assert_eq!(a % LINE_BYTES, 0);
        assert_eq!(b % LINE_BYTES, 0);
        assert!(b >= a + 128, "100 bytes rounds to 128");
        assert_eq!(s.region_count(), 2);
    }

    #[test]
    fn placement_lookup() {
        let mut s = AddressSpace::new();
        let a = s.alloc_shared(64);
        let b = s.alloc_owned(64, 7);
        assert_eq!(s.placement_of(a), Some(Placement::RoundRobin));
        assert_eq!(s.placement_of(a + 63), Some(Placement::RoundRobin));
        assert_eq!(s.placement_of(b), Some(Placement::Owner(7)));
        assert_eq!(s.placement_of(0), None);
        assert_eq!(s.placement_of(b + 64), None);
    }

    #[test]
    fn address_zero_never_allocated() {
        let mut s = AddressSpace::new();
        let a = s.alloc_shared(64);
        assert!(a > 0);
        assert_eq!(s.placement_of(0), None);
    }

    #[test]
    fn array_addressing() {
        let mut s = AddressSpace::new();
        let arr = s.alloc_array(10, 8, Placement::RoundRobin);
        assert_eq!(arr.addr(0), arr.base);
        assert_eq!(arr.addr(9), arr.base + 72);
        assert_eq!(arr.bytes(), 80);
        let sub = arr.slice(4, 3);
        assert_eq!(sub.addr(0), arr.addr(4));
        assert_eq!(sub.len, 3);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_range_panics() {
        let mut s = AddressSpace::new();
        let arr = s.alloc_array(10, 8, Placement::RoundRobin);
        let _ = arr.slice(8, 3);
    }

    #[test]
    fn allocated_bytes_tracks_rounding() {
        let mut s = AddressSpace::new();
        s.alloc_shared(1);
        s.alloc_shared(65);
        assert_eq!(s.allocated_bytes(), 64 + 128);
    }
}
