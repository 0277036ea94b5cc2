//! Fuzzing the trace-file parser behind `cluster_check race PATH`:
//! whatever bytes a trace document holds — arbitrary noise, or a valid
//! document truncated, byte-flipped, spliced into another, or with a
//! number swapped for a negative or overflowing one — `json::parse`,
//! `Trace::from_json` and `Trace::validate` answer `Ok` or a typed
//! `Err`, and never panic. A region size swapped for one within a
//! line of 2^64 is how the fuzzer found `AddressSpace::alloc`
//! overflowing on a hostile region.
//!
//! Fixed seed and case count, so a run is reproducible without any
//! environment: the cases are drawn by `simcore::propcheck` under an
//! explicit `Config`, and a panic is turned into a failing case so the
//! harness shrinks it before reporting.

use std::panic::catch_unwind;

use simcore::json;
use simcore::ops::{Trace, TraceBuilder};
use simcore::propcheck::{self, halves_and_each, Config, Gen};

const SEED: u64 = 0x7ace_f022_2300_0001;
const CASES: u32 = 256;

fn config() -> Config {
    Config {
        cases: CASES,
        seed: SEED,
        max_shrink_steps: 1_000,
    }
}

/// Valid trace documents: owned and round-robin regions, reads and
/// writes, compute, barriers and nested locks, so every field and op
/// tag has something to corrupt.
fn valid_docs() -> Vec<String> {
    let mut docs = Vec::new();
    for n_procs in [1usize, 2, 4] {
        let mut b = TraceBuilder::new(n_procs);
        let shared = b.space_mut().alloc_shared(200);
        let owned = b.space_mut().alloc_owned(64, 0);
        let outer = b.new_lock();
        let inner = b.new_lock();
        for p in 0..n_procs as u32 {
            b.compute(p, 10 + u64::from(p));
            b.read(p, shared + 64 * u64::from(p % 3));
            b.lock(p, outer);
            b.lock(p, inner);
            b.write(p, owned);
            b.unlock(p, inner);
            b.unlock(p, outer);
        }
        b.barrier_all();
        b.write_span(0, shared, 200);
        docs.push(b.finish().to_json().to_string());
    }
    docs
}

/// One damage to a valid document.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only the first `at` bytes (mod length + 1).
    Truncate(usize),
    /// Overwrite the byte at `at` (mod length) with `byte`.
    Flip(usize, u8),
    /// Cut at `at` (mod length + 1) and continue with document
    /// `other` from its byte `from` (mod its length + 1).
    Splice(usize, usize, usize),
    /// Replace JSON number `n` (mod number count) with `with`.
    Number(usize, &'static str),
}

/// Bytes a flip writes: JSON structure, signs, exponents, digits, and
/// non-ASCII noise.
const FLIP_BYTES: [u8; 14] = [
    b'-', b'e', b'9', b'0', b'.', b'"', b'{', b'}', b'[', b']', b',', b':', 0x00, 0xff,
];

/// Values a number swap writes: zero, line-boundary sizes, negative,
/// fractional, and out-of-range for every width a field might hold.
const NUMBERS: [&str; 10] = [
    "0",
    "63",
    "-1",
    "1.5",
    "1e300",
    "4294967296",
    "2305843009213693952",
    "18446744073709551552",
    "18446744073709551615",
    "18446744073709551616",
];

fn gen_mutation(g: &mut Gen, docs: usize) -> Mutation {
    let at = g.usize_in(0..2048);
    match g.usize_in(0..4) {
        0 => Mutation::Truncate(at),
        1 => Mutation::Flip(at, g.pick(&FLIP_BYTES)),
        2 => Mutation::Splice(at, g.usize_in(0..docs), g.usize_in(0..2048)),
        // Half the swaps hit the header and region fields, which
        // come first and are few next to the op words.
        _ => {
            let n = if g.any_bool() { g.usize_in(0..8) } else { at };
            Mutation::Number(n, g.pick(&NUMBERS))
        }
    }
}

/// Byte ranges of the JSON number values in `b`.
fn numbers(b: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let starts = (b[i].is_ascii_digit() || b[i] == b'-')
            && i > 0
            && matches!(b[i - 1], b':' | b',' | b'[');
        if starts {
            let end = (i..b.len())
                .find(|&j| !matches!(b[j], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .unwrap_or(b.len());
            out.push((i, end));
            i = end;
        } else {
            i += 1;
        }
    }
    out
}

fn apply(bytes: &mut Vec<u8>, m: &Mutation, docs: &[String]) {
    match *m {
        Mutation::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
        Mutation::Flip(at, byte) => {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] = byte;
            }
        }
        Mutation::Splice(at, other, from) => {
            let tail = docs[other % docs.len()].as_bytes();
            bytes.truncate(at % (bytes.len() + 1));
            bytes.extend_from_slice(&tail[from % (tail.len() + 1)..]);
        }
        Mutation::Number(n, with) => {
            let spans = numbers(bytes);
            if !spans.is_empty() {
                let (start, end) = spans[n % spans.len()];
                bytes.splice(start..end, with.bytes());
            }
        }
    }
}

/// Parses `bytes` as a trace file is parsed: JSON, then the trace
/// document, then its structural invariants. Each may fail with a
/// typed error; a panic is the bug. Returns whether the trace parsed
/// and validated.
fn survives(bytes: &[u8]) -> Result<bool, String> {
    let text = String::from_utf8_lossy(bytes).into_owned();
    catch_unwind(|| match json::parse(&text) {
        Ok(doc) => Trace::from_json(&doc).is_ok_and(|t| t.validate().is_ok()),
        Err(_) => false,
    })
    .map_err(|_| format!("the trace parsers panicked on {text:?}"))
}

#[test]
fn arbitrary_bytes_never_panic_the_trace_parser() {
    let docs = valid_docs();
    propcheck::check_with(
        &config(),
        "trace-parser-arbitrary-bytes",
        |g: &mut Gen| {
            // Half the cases keep a valid document's opening so the
            // noise reaches the trace fields.
            let mut bytes = if g.any_bool() {
                let doc = docs[g.usize_in(0..docs.len())].as_bytes();
                doc[..g.usize_in(0..doc.len())].to_vec()
            } else {
                Vec::new()
            };
            bytes.extend(g.vec_of(0..512, |g| g.u8_in(0..255)));
            bytes
        },
        |b| propcheck::halves(b.as_slice()),
        |bytes| survives(bytes).map(|_| ()),
    );
}

#[test]
fn damaged_valid_traces_never_panic_the_trace_parser() {
    let docs = valid_docs();
    for doc in &docs {
        assert_eq!(survives(doc.as_bytes()), Ok(true), "undamaged: {doc}");
    }
    propcheck::check_with(
        &config(),
        "trace-parser-damaged-valid",
        |g: &mut Gen| {
            let pick = g.usize_in(0..docs.len());
            let ms = g.vec_of(1..4, |g| gen_mutation(g, docs.len()));
            (pick, ms)
        },
        |(pick, ms)| {
            halves_and_each(ms, |_| Vec::new())
                .into_iter()
                .filter(|v| !v.is_empty())
                .map(|v| (*pick, v))
                .collect()
        },
        |(pick, ms)| {
            let mut bytes = docs[*pick].as_bytes().to_vec();
            for m in ms {
                apply(&mut bytes, m, &docs);
            }
            survives(&bytes).map(|_| ())
        },
    );
}
