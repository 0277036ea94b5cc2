//! Fuzzing the request-line parsers every transport shares: whatever
//! bytes a client sends — arbitrary noise, or valid requests that are
//! truncated, byte-flipped or spliced into one another — and however
//! the socket splits them into reads, `LineAccum::feed`/`finish`
//! frame them exactly as a plain split on `\n` would (every line over
//! the cap reported as `Oversized` with its length), and
//! `parse_request` and `lenient_id` answer every framed line without
//! panicking.
//!
//! Fixed seed and case count, so a run is reproducible without any
//! environment: the cases are drawn by `simcore::propcheck` under an
//! explicit `Config`, and a panic is turned into a failing case so the
//! harness shrinks it before reporting.

use std::panic::catch_unwind;

use cluster_serve::protocol::{parse_request, LineAccum, LineRead, DEFAULT_MAX_LINE};
use cluster_serve::server::lenient_id;
use simcore::propcheck::{self, halves_and_each, Config, Gen};

const SEED: u64 = 0x5e7e_f022_1900_0001;
const CASES: u32 = 256;

fn config() -> Config {
    Config {
        cases: CASES,
        seed: SEED,
        max_shrink_steps: 1_000,
    }
}

/// One valid request per op, both wire versions, every spec field.
const VALID: [&str; 9] = [
    r#"{"op":"run","id":1,"spec":{"app":"lu","size":"small","procs":8,"caches":["inf","4k"],"clusters":[1,2]}}"#,
    r#"{"op":"run","spec":{"app":"ocean"}}"#,
    r#"{"op":"hello","id":2,"schema":"clustered-smp/serve/v2"}"#,
    r#"{"op":"batch","id":3,"specs":[{"app":"fft","procs":16},{"app":"mp3d","caches":["inf"],"clusters":[4]}]}"#,
    r#"{"op":"cursor","id":4,"spec":{"app":"lu","procs":4},"from":2}"#,
    r#"{"op":"ping","id":5}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"health","id":4294967296}"#,
    r#"{"op":"shutdown","id":0}"#,
];

/// Line caps: tiny (most lines oversized), near request lengths, and
/// the server default.
const CAPS: [usize; 5] = [0, 8, 40, 96, DEFAULT_MAX_LINE];

/// Bytes a flip writes: JSON structure, line framing, digits, signs
/// and non-ASCII noise.
const FLIP_BYTES: [u8; 14] = [
    b'-', b'9', b'"', b'{', b'}', b'[', b']', b',', b':', b'\\', b'\n', b'\r', 0x00, 0xff,
];

/// One damage to a stream of valid request lines.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only the first `at` bytes (mod length + 1).
    Truncate(usize),
    /// Overwrite the byte at `at` (mod length) with `byte`.
    Flip(usize, u8),
    /// Cut at `at` (mod length + 1) and continue with request
    /// `other` from its byte `from` (mod its length + 1).
    Splice(usize, usize, usize),
}

fn gen_mutation(g: &mut Gen) -> Mutation {
    let at = g.usize_in(0..1024);
    match g.usize_in(0..3) {
        0 => Mutation::Truncate(at),
        1 => Mutation::Flip(at, g.pick(&FLIP_BYTES)),
        _ => Mutation::Splice(at, g.usize_in(0..VALID.len()), g.usize_in(0..128)),
    }
}

fn apply(bytes: &mut Vec<u8>, m: &Mutation) {
    match *m {
        Mutation::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
        Mutation::Flip(at, byte) => {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] = byte;
            }
        }
        Mutation::Splice(at, other, from) => {
            let tail = VALID[other % VALID.len()].as_bytes();
            bytes.truncate(at % (bytes.len() + 1));
            bytes.extend_from_slice(&tail[from % (tail.len() + 1)..]);
        }
    }
}

/// The framing oracle: split on `\n`, an unterminated tail counts as
/// a line, a line over `max` bytes is `Oversized` with its length,
/// and one trailing `\r` is stripped from the rest.
fn expected_events(bytes: &[u8], max: usize) -> Vec<LineRead> {
    let mut segs: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if segs.last().is_some_and(|s| s.is_empty()) {
        segs.pop();
    }
    segs.into_iter()
        .map(|seg| {
            if seg.len() > max {
                LineRead::Oversized { length: seg.len() }
            } else {
                let seg = seg.strip_suffix(b"\r").unwrap_or(seg);
                LineRead::Line(String::from_utf8_lossy(seg).into_owned())
            }
        })
        .collect()
}

/// Feeds `bytes` to a `LineAccum` in chunks cycling through `chunks`,
/// checks the events against the oracle, then hands every line to
/// `parse_request` and `lenient_id`. Returns the framed lines.
fn survives(bytes: &[u8], max: usize, chunks: &[usize]) -> Result<Vec<String>, String> {
    let events = catch_unwind(|| {
        let mut acc = LineAccum::new(max);
        let mut out = Vec::new();
        let mut rest = bytes;
        for &n in chunks.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(n.clamp(1, rest.len()));
            out.extend(acc.feed(chunk));
            rest = tail;
        }
        out.extend(acc.finish());
        out
    })
    .map_err(|_| format!("LineAccum panicked on {bytes:?}"))?;
    let want = expected_events(bytes, max);
    if events != want {
        return Err(format!(
            "framing at cap {max}, chunks {chunks:?}: got {events:?}, want {want:?}"
        ));
    }
    let mut lines = Vec::new();
    for ev in events {
        if let LineRead::Line(line) = ev {
            catch_unwind(|| {
                let _ = parse_request(&line);
                let _ = lenient_id(&line);
            })
            .map_err(|_| format!("request parsers panicked on {line:?}"))?;
            lines.push(line);
        }
    }
    Ok(lines)
}

fn gen_chunks(g: &mut Gen) -> Vec<usize> {
    g.vec_of(1..8, |g| g.usize_in(1..48))
}

#[test]
fn arbitrary_bytes_frame_exactly_and_never_panic_the_parsers() {
    propcheck::check_with(
        &config(),
        "request-lines-arbitrary-bytes",
        |g: &mut Gen| {
            // Newlines are frequent so each case frames several lines.
            let bytes = g.vec_of(0..1024, |g| {
                if g.usize_in(0..16) == 0 {
                    b'\n'
                } else {
                    (g.any_u32() & 0xff) as u8
                }
            });
            (bytes, g.pick(&CAPS), gen_chunks(g))
        },
        |(bytes, max, chunks)| {
            propcheck::halves(bytes)
                .into_iter()
                .map(|b| (b, *max, chunks.clone()))
                .collect()
        },
        |(bytes, max, chunks)| survives(bytes, *max, chunks).map(|_| ()),
    );
}

#[test]
fn damaged_valid_requests_frame_exactly_and_never_panic_the_parsers() {
    propcheck::check_with(
        &config(),
        "request-lines-damaged-valid",
        |g: &mut Gen| {
            let picks = g.vec_of(1..5, |g| g.usize_in(0..VALID.len()));
            let ms = g.vec_of(0..4, gen_mutation);
            (picks, ms, g.pick(&CAPS), gen_chunks(g))
        },
        |(picks, ms, max, chunks)| {
            halves_and_each(ms, |_| Vec::new())
                .into_iter()
                .map(|v| (picks.clone(), v, *max, chunks.clone()))
                .collect()
        },
        |(picks, ms, max, chunks)| {
            let mut bytes = picks
                .iter()
                .map(|&i| VALID[i])
                .collect::<Vec<_>>()
                .join("\n")
                .into_bytes();
            bytes.push(b'\n');
            for m in ms {
                apply(&mut bytes, m);
            }
            let lines = survives(&bytes, *max, chunks)?;
            // Undamaged requests under the default cap parse, and the
            // lenient id agrees with the strict one.
            if ms.is_empty() && *max == DEFAULT_MAX_LINE {
                for line in &lines {
                    let req = parse_request(line).map_err(|e| format!("{line}: {e:?}"))?;
                    if req.id != lenient_id(line) {
                        return Err(format!("{line}: lenient id disagrees"));
                    }
                }
            }
            Ok(())
        },
    );
}
