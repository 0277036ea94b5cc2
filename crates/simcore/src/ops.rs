//! Trace operations and their packed encoding.
//!
//! The workload suite (crate `splash`) runs each application's real
//! algorithm while recording, per logical processor, the stream of
//! shared-memory references and synchronization operations it issues.
//! The timing engine (crate `tango`) replays these streams in global
//! timestamp order against the coherence model.
//!
//! Traces routinely reach tens of millions of operations, so each
//! operation packs into a single `u64`: a 3-bit tag and a 61-bit payload.

use crate::json::Json;
use crate::space::AddressSpace;
use crate::space::Placement;
use crate::space::ProcId;

/// Maximum encodable payload (61 bits).
pub const MAX_PAYLOAD: u64 = (1 << 61) - 1;

/// Schema tag of the serialized trace document.
pub const TRACE_SCHEMA: &str = "clustered-smp/trace/v1";

const TAG_READ: u64 = 0;
const TAG_WRITE: u64 = 1;
const TAG_COMPUTE: u64 = 2;
const TAG_BARRIER: u64 = 3;
const TAG_LOCK: u64 = 4;
const TAG_UNLOCK: u64 = 5;

/// A single trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load from a byte address. Loads are the only operations that can
    /// stall the processor in the paper's model.
    Read(u64),
    /// Store to a byte address. Store latency is assumed hidden by store
    /// buffers and a relaxed consistency model (§3.1).
    Write(u64),
    /// `n` cycles of CPU-busy work (arithmetic, private/register
    /// accesses, loop overhead).
    Compute(u64),
    /// Global barrier; every processor participates in barrier `id`, and
    /// ids must appear in the same order on every processor.
    Barrier(u32),
    /// Acquire lock `id` (FIFO grant order, wait time accrues to sync).
    Lock(u32),
    /// Release lock `id`.
    Unlock(u32),
}

/// A packed trace operation: 3-bit tag in the top bits, 61-bit payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedOp(pub u64);

impl PackedOp {
    /// Packs an [`Op`]. Panics if the payload exceeds 61 bits.
    #[inline]
    pub fn pack(op: Op) -> PackedOp {
        let (tag, payload) = match op {
            Op::Read(a) => (TAG_READ, a),
            Op::Write(a) => (TAG_WRITE, a),
            Op::Compute(n) => (TAG_COMPUTE, n),
            Op::Barrier(id) => (TAG_BARRIER, id as u64),
            Op::Lock(id) => (TAG_LOCK, id as u64),
            Op::Unlock(id) => (TAG_UNLOCK, id as u64),
        };
        assert!(payload <= MAX_PAYLOAD, "op payload overflows 61 bits");
        PackedOp((tag << 61) | payload)
    }

    /// Unpacks back to an [`Op`].
    #[inline]
    pub fn unpack(self) -> Op {
        let tag = self.0 >> 61;
        let payload = self.0 & MAX_PAYLOAD;
        match tag {
            TAG_READ => Op::Read(payload),
            TAG_WRITE => Op::Write(payload),
            TAG_COMPUTE => Op::Compute(payload),
            // cluster_check: allow(no-lossy-cast) — sync payloads were
            // packed from a u32 id, so the low 32 bits round-trip.
            TAG_BARRIER => Op::Barrier(payload as u32),
            // cluster_check: allow(no-lossy-cast) — same as above.
            TAG_LOCK => Op::Lock(payload as u32),
            // cluster_check: allow(no-lossy-cast) — same as above.
            TAG_UNLOCK => Op::Unlock(payload as u32),
            // cluster_check: allow(no-panic) — `pack` and
            // `Trace::from_json` only produce tags 0–5.
            _ => unreachable!("invalid op tag {tag}"),
        }
    }
}

/// A complete multi-processor trace: one operation stream per logical
/// processor, plus the address space the streams refer to.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-processor packed operation streams.
    pub per_proc: Vec<Vec<PackedOp>>,
    /// The address space allocated during generation (placement policies
    /// are resolved against it at simulation time).
    pub space: AddressSpace,
    /// Number of global barriers in every stream.
    pub n_barriers: u32,
    /// Number of distinct locks referenced.
    pub n_locks: u32,
}

impl Trace {
    /// Number of logical processors.
    pub fn n_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Total operations across all processors.
    pub fn total_ops(&self) -> u64 {
        self.per_proc.iter().map(|v| v.len() as u64).sum()
    }

    /// Total shared-memory references (reads + writes).
    pub fn total_refs(&self) -> u64 {
        self.per_proc
            .iter()
            .flat_map(|v| v.iter())
            .filter(|p| matches!(p.unpack(), Op::Read(_) | Op::Write(_)))
            .count() as u64
    }

    /// Checks structural invariants the engine relies on:
    ///
    /// * every processor sees the same barrier-id sequence;
    /// * locks are acquired and released in a balanced, properly nested
    ///   way per processor, with no lock held across a barrier;
    /// * every referenced address lies in an allocated region;
    /// * barrier and lock ids are in range.
    ///
    /// Returns a description of the first violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        let mut barrier_seq: Option<Vec<u32>> = None;
        for (p, ops) in self.per_proc.iter().enumerate() {
            let mut seq = Vec::new();
            let mut held: Vec<u32> = Vec::new();
            for (i, op) in ops.iter().enumerate() {
                match op.unpack() {
                    Op::Read(a) | Op::Write(a) => {
                        if self.space.placement_of(a).is_none() {
                            return Err(format!("proc {p} op {i}: unallocated address {a:#x}"));
                        }
                    }
                    Op::Barrier(id) => {
                        if !held.is_empty() {
                            return Err(format!(
                                "proc {p} op {i}: barrier {id} reached holding lock {:?}",
                                held
                            ));
                        }
                        seq.push(id);
                    }
                    Op::Lock(id) => {
                        if id >= self.n_locks {
                            return Err(format!("proc {p} op {i}: lock id {id} out of range"));
                        }
                        if held.contains(&id) {
                            return Err(format!("proc {p} op {i}: recursive lock {id}"));
                        }
                        held.push(id);
                    }
                    Op::Unlock(id) => {
                        if held.last() != Some(&id) {
                            return Err(format!(
                                "proc {p} op {i}: unlock {id} not innermost (held {:?})",
                                held
                            ));
                        }
                        held.pop();
                    }
                    Op::Compute(_) => {}
                }
            }
            if !held.is_empty() {
                return Err(format!("proc {p}: trace ends holding locks {held:?}"));
            }
            match &barrier_seq {
                None => barrier_seq = Some(seq),
                Some(first) => {
                    if *first != seq {
                        return Err(format!("proc {p}: barrier sequence differs from proc 0"));
                    }
                }
            }
        }
        if let Some(seq) = &barrier_seq {
            if seq.len() != crate::cast::usize_from(self.n_barriers) {
                return Err(format!(
                    "barrier count mismatch: streams have {} but trace says {}",
                    seq.len(),
                    self.n_barriers
                ));
            }
        }
        Ok(())
    }

    /// Serializes the trace (streams, sync counts, and the address-space
    /// layout needed to replay it) as a JSON document. The inverse is
    /// [`Trace::from_json`]; the `schema-sync` lint pins the key set
    /// against `crates/check/tests/schema_race.rs`.
    pub fn to_json(&self) -> Json {
        let regions: Vec<Json> = self
            .space
            .regions()
            .map(|r| {
                let owner = match r.placement {
                    Placement::RoundRobin => Json::Null,
                    Placement::Owner(p) => Json::UInt(u64::from(p)),
                };
                Json::obj()
                    .with("base", r.base)
                    .with("bytes", r.bytes)
                    .with("owner", owner)
            })
            .collect();
        let per_proc: Vec<Json> = self
            .per_proc
            .iter()
            .map(|ops| Json::Arr(ops.iter().map(|p| Json::UInt(p.0)).collect()))
            .collect();
        Json::obj()
            .with("schema", TRACE_SCHEMA)
            .with("n_barriers", self.n_barriers)
            .with("n_locks", self.n_locks)
            .with("regions", Json::Arr(regions))
            .with("per_proc", Json::Arr(per_proc))
    }

    /// Rebuilds a trace from its [`Trace::to_json`] form, re-allocating
    /// the address space in recorded order and checking that every base
    /// address and op tag round-trips.
    pub fn from_json(doc: &Json) -> Result<Trace, String> {
        if doc.get("schema").and_then(Json::as_str) != Some(TRACE_SCHEMA) {
            return Err(format!("not a {TRACE_SCHEMA} document"));
        }
        let field_u64 = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field {key:?}"))
        };
        let n_barriers = u32::try_from(field_u64("n_barriers")?)
            .map_err(|_| "n_barriers overflows u32".to_string())?;
        let n_locks = u32::try_from(field_u64("n_locks")?)
            .map_err(|_| "n_locks overflows u32".to_string())?;

        let mut space = AddressSpace::new();
        let regions = doc
            .get("regions")
            .and_then(Json::as_arr)
            .ok_or("missing regions array")?;
        for (i, r) in regions.iter().enumerate() {
            let base = r
                .get("base")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("region {i}: missing base"))?;
            let bytes = r
                .get("bytes")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("region {i}: missing bytes"))?;
            let placement = match r.get("owner") {
                Some(Json::Null) | None => Placement::RoundRobin,
                Some(v) => {
                    let p = v
                        .as_u64()
                        .and_then(|x| u32::try_from(x).ok())
                        .ok_or_else(|| format!("region {i}: bad owner"))?;
                    Placement::Owner(p)
                }
            };
            let got = space.try_alloc(bytes, placement).ok_or_else(|| {
                format!("region {i}: {bytes} bytes overflow the 64-bit address space")
            })?;
            if got != base {
                return Err(format!(
                    "region {i}: base {base:#x} does not round-trip (allocator produced {got:#x})"
                ));
            }
        }

        let streams = doc
            .get("per_proc")
            .and_then(Json::as_arr)
            .ok_or("missing per_proc array")?;
        let mut per_proc = Vec::with_capacity(streams.len());
        for (p, stream) in streams.iter().enumerate() {
            let raw = stream
                .as_arr()
                .ok_or_else(|| format!("proc {p}: stream is not an array"))?;
            let mut ops = Vec::with_capacity(raw.len());
            for (i, word) in raw.iter().enumerate() {
                let w = word
                    .as_u64()
                    .ok_or_else(|| format!("proc {p} op {i}: not a u64"))?;
                if w >> 61 > TAG_UNLOCK {
                    return Err(format!("proc {p} op {i}: invalid op tag"));
                }
                ops.push(PackedOp(w));
            }
            per_proc.push(ops);
        }

        Ok(Trace {
            per_proc,
            space,
            n_barriers,
            n_locks,
        })
    }
}

/// Incrementally builds a [`Trace`], coalescing consecutive `Compute`
/// operations and allocating barrier/lock identifiers.
#[derive(Debug)]
pub struct TraceBuilder {
    space: AddressSpace,
    per_proc: Vec<Vec<PackedOp>>,
    next_barrier: u32,
    next_lock: u32,
}

impl TraceBuilder {
    /// Creates a builder for `n_procs` logical processors.
    pub fn new(n_procs: usize) -> Self {
        TraceBuilder {
            space: AddressSpace::new(),
            per_proc: vec![Vec::new(); n_procs],
            next_barrier: 0,
            next_lock: 0,
        }
    }

    /// Number of logical processors.
    pub fn n_procs(&self) -> usize {
        self.per_proc.len()
    }

    /// Mutable access to the address space for allocation.
    pub fn space_mut(&mut self) -> &mut AddressSpace {
        &mut self.space
    }

    /// Read-only access to the address space.
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Emits a load of byte address `addr` on processor `p`.
    #[inline]
    pub fn read(&mut self, p: ProcId, addr: u64) {
        self.per_proc[crate::cast::usize_from(p)].push(PackedOp::pack(Op::Read(addr)));
    }

    /// Emits a store to byte address `addr` on processor `p`.
    #[inline]
    pub fn write(&mut self, p: ProcId, addr: u64) {
        self.per_proc[crate::cast::usize_from(p)].push(PackedOp::pack(Op::Write(addr)));
    }

    /// Emits `cycles` of CPU-busy work on processor `p`, merging with an
    /// immediately preceding `Compute`.
    #[inline]
    pub fn compute(&mut self, p: ProcId, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let ops = &mut self.per_proc[crate::cast::usize_from(p)];
        if let Some(last) = ops.last_mut() {
            if let Op::Compute(n) = last.unpack() {
                *last = PackedOp::pack(Op::Compute(n + cycles));
                return;
            }
        }
        ops.push(PackedOp::pack(Op::Compute(cycles)));
    }

    /// Emits one load per cache line covering `[base, base + bytes)` on
    /// processor `p`. Used by dense inner loops: at line granularity the
    /// miss sequence is identical to per-element access, and the elided
    /// element hits are charged as compute by the caller.
    pub fn read_span(&mut self, p: ProcId, base: u64, bytes: u64) {
        let mut line = crate::addr::line_of(base);
        let last = crate::addr::line_of(base + bytes.max(1) - 1);
        while line <= last {
            self.read(p, crate::addr::line_base(line));
            line += 1;
        }
    }

    /// Emits one store per cache line covering `[base, base + bytes)`.
    pub fn write_span(&mut self, p: ProcId, base: u64, bytes: u64) {
        let mut line = crate::addr::line_of(base);
        let last = crate::addr::line_of(base + bytes.max(1) - 1);
        while line <= last {
            self.write(p, crate::addr::line_base(line));
            line += 1;
        }
    }

    /// Appends a global barrier to *every* processor's stream and
    /// returns its id.
    pub fn barrier_all(&mut self) -> u32 {
        let id = self.next_barrier;
        self.next_barrier += 1;
        let op = PackedOp::pack(Op::Barrier(id));
        for ops in &mut self.per_proc {
            ops.push(op);
        }
        id
    }

    /// Allocates a fresh lock id.
    pub fn new_lock(&mut self) -> u32 {
        let id = self.next_lock;
        self.next_lock += 1;
        id
    }

    /// Allocates `n` fresh lock ids and returns the first; the ids are
    /// contiguous.
    pub fn new_locks(&mut self, n: u32) -> u32 {
        let first = self.next_lock;
        self.next_lock += n;
        first
    }

    /// Emits a lock acquire on processor `p`.
    pub fn lock(&mut self, p: ProcId, id: u32) {
        debug_assert!(id < self.next_lock);
        self.per_proc[crate::cast::usize_from(p)].push(PackedOp::pack(Op::Lock(id)));
    }

    /// Emits a lock release on processor `p`.
    pub fn unlock(&mut self, p: ProcId, id: u32) {
        debug_assert!(id < self.next_lock);
        self.per_proc[crate::cast::usize_from(p)].push(PackedOp::pack(Op::Unlock(id)));
    }

    /// Finalizes the trace. A terminal barrier is appended so that all
    /// processors end at a common time (the paper's execution time is the
    /// time at which the last processor finishes).
    pub fn finish(mut self) -> Trace {
        self.barrier_all();
        Trace {
            per_proc: self.per_proc,
            space: self.space,
            n_barriers: self.next_barrier,
            n_locks: self.next_lock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_all_variants() {
        for op in [
            Op::Read(0),
            Op::Read(0xdead_beef_1234),
            Op::Write(MAX_PAYLOAD),
            Op::Compute(1),
            Op::Compute(1 << 40),
            Op::Barrier(0),
            Op::Barrier(u32::MAX),
            Op::Lock(17),
            Op::Unlock(17),
        ] {
            assert_eq!(PackedOp::pack(op).unpack(), op);
        }
    }

    #[test]
    #[should_panic]
    fn pack_overflow_panics() {
        let _ = PackedOp::pack(Op::Read(MAX_PAYLOAD + 1));
    }

    #[test]
    fn compute_coalesces() {
        let mut b = TraceBuilder::new(1);
        let a = b.space_mut().alloc_shared(64);
        b.compute(0, 5);
        b.compute(0, 7);
        b.read(0, a);
        b.compute(0, 0); // no-op
        b.compute(0, 1);
        let t = b.finish();
        let ops: Vec<Op> = t.per_proc[0].iter().map(|p| p.unpack()).collect();
        assert_eq!(
            ops,
            vec![Op::Compute(12), Op::Read(a), Op::Compute(1), Op::Barrier(0)]
        );
    }

    #[test]
    fn read_span_touches_each_line_once() {
        let mut b = TraceBuilder::new(1);
        let base = b.space_mut().alloc_shared(256);
        b.read_span(0, base + 10, 100); // straddles two lines
        let t = b.finish();
        let reads: Vec<u64> = t.per_proc[0]
            .iter()
            .filter_map(|p| match p.unpack() {
                Op::Read(a) => Some(a),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[1] - reads[0], 64);
    }

    #[test]
    fn finish_appends_final_barrier_to_all() {
        let mut b = TraceBuilder::new(3);
        let t = b.space_mut().alloc_shared(64);
        b.read(1, t);
        let t = b.finish();
        for ops in &t.per_proc {
            assert!(matches!(ops.last().unwrap().unpack(), Op::Barrier(0)));
        }
        assert_eq!(t.n_barriers, 1);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_catches_unallocated_address() {
        let mut b = TraceBuilder::new(1);
        b.read(0, 0x9999_9999);
        let t = b.finish();
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_mismatched_barriers() {
        let mut b = TraceBuilder::new(2);
        // Manually emit a barrier on one proc only by abusing internals:
        // build two traces and splice.
        let t1 = b.barrier_all();
        let mut t = TraceBuilder::new(2);
        let _ = t.barrier_all();
        let mut trace = t.finish();
        assert!(trace.validate().is_ok());
        // Remove one barrier op from proc 1's stream.
        trace.per_proc[1].remove(0);
        assert!(trace.validate().is_err());
        let _ = t1;
    }

    #[test]
    fn validate_catches_lock_misuse() {
        let mut b = TraceBuilder::new(1);
        let l = b.new_lock();
        b.lock(0, l);
        let t = b.finish(); // finish adds a barrier while lock held
        assert!(t.validate().is_err());

        let mut b = TraceBuilder::new(1);
        let l = b.new_lock();
        b.lock(0, l);
        b.unlock(0, l);
        assert!(b.finish().validate().is_ok());
    }

    #[test]
    fn json_roundtrip_preserves_trace() {
        let mut b = TraceBuilder::new(2);
        let a = b.space_mut().alloc_shared(100);
        let o = b.space_mut().alloc_owned(64, 1);
        let l = b.new_lock();
        b.read(0, a);
        b.lock(1, l);
        b.write(1, o);
        b.unlock(1, l);
        b.compute(0, 9);
        b.barrier_all();
        let t = b.finish();
        let doc = t.to_json();
        let back = Trace::from_json(&doc).unwrap();
        assert_eq!(back.per_proc, t.per_proc);
        assert_eq!(back.n_barriers, t.n_barriers);
        assert_eq!(back.n_locks, t.n_locks);
        assert_eq!(back.space.region_count(), t.space.region_count());
        assert_eq!(back.space.placement_of(o), Some(Placement::Owner(1)));
        // Textual round-trip too (what the CLI file mode does).
        let text = doc.pretty();
        let reparsed = Trace::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(reparsed.per_proc, t.per_proc);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        let t = TraceBuilder::new(1).finish();
        let doc = t.to_json();
        assert!(Trace::from_json(&Json::obj()).is_err());
        let mut wrong = doc.clone();
        if let Json::Obj(pairs) = &mut wrong {
            pairs.retain(|(k, _)| k != "per_proc");
        }
        assert!(Trace::from_json(&wrong).is_err());
        // An op word with an invalid tag is rejected.
        let bad = Json::obj()
            .with("schema", TRACE_SCHEMA)
            .with("n_barriers", 0u64)
            .with("n_locks", 0u64)
            .with("regions", Json::Arr(vec![]))
            .with(
                "per_proc",
                Json::Arr(vec![Json::Arr(vec![Json::UInt(7 << 61)])]),
            );
        assert!(Trace::from_json(&bad).is_err());
    }

    /// A region whose rounded end passes 2^64 is a typed error, not an
    /// overflow panic (debug) or a wrapped address space (release).
    #[test]
    fn from_json_rejects_a_region_past_the_address_space() {
        let doc = r#"{"schema":"clustered-smp/trace/v1","n_barriers":0,"n_locks":0,
            "regions":[{"base":64,"bytes":18446744073709551615,"owner":null}],
            "per_proc":[[]]}"#;
        let doc = crate::json::parse(doc).unwrap();
        let err = Trace::from_json(&doc).unwrap_err();
        assert!(
            err.contains("region 0") && err.contains("overflow"),
            "{err}"
        );
        // A size that rounds up to exactly the top is still refused:
        // the region would end at 2^64.
        let mut space = AddressSpace::new();
        assert_eq!(space.try_alloc(u64::MAX - 64, Placement::RoundRobin), None);
        assert_eq!(space.region_count(), 0, "a refused region is not recorded");
        assert_eq!(space.try_alloc(100, Placement::RoundRobin), Some(64));
    }

    #[test]
    fn totals() {
        let mut b = TraceBuilder::new(2);
        let a = b.space_mut().alloc_shared(64);
        b.read(0, a);
        b.write(1, a);
        b.compute(0, 3);
        let t = b.finish();
        assert_eq!(t.total_refs(), 2);
        assert_eq!(t.total_ops(), 5); // read, compute, write + 2 barriers
    }
}
