//! Fuzzing the one remaining cell-log parser: whatever bytes a shard
//! journal holds — arbitrary noise, or a valid shard truncated,
//! byte-flipped, or with lines duplicated, dropped or reordered —
//! `scan_store` and `ResultStore::open` answer `Ok` or a typed
//! `StoreError`, and never panic. A swapped-in negative or overflowing
//! number is how the fuzzer found `JournalEntry::from_json` panicking
//! on a `wall_seconds` that is not a valid duration.
//!
//! Fixed seed and case count, so a run is reproducible without any
//! environment: the cases are drawn by `simcore::propcheck` under an
//! explicit `Config`, and a panic is turned into a failing case so the
//! harness shrinks it before reporting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Duration;

use cluster_serve::store::{scan_store, shard_file_name, ResultStore, StoreEntry};
use cluster_study::checkpoint::JournalEntry;
use cluster_study::parallel::RunStatus;
use simcore::propcheck::{self, halves_and_each, Config, Gen};
use simcore::sample::{SampleMode, SampleSpec, SamplingStats};
use simcore::stats::{Breakdown, MissStats, RunStats};

const SEED: u64 = 0x5703_e0f0_2200_0001;
const CASES: u32 = 256;

fn config() -> Config {
    Config {
        cases: CASES,
        seed: SEED,
        max_shrink_steps: 1_000,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("serve-store-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A valid entry line: every counter, a wall and (for odd `i`) a
/// sampled entry's float rate give the mutations numbers to corrupt.
fn entry_line(i: u64) -> String {
    let sampling = (i % 2 == 1).then(|| {
        let spec = SampleSpec::new(SampleMode::Periodic);
        SamplingStats {
            mode: spec.mode,
            rate: spec.rate,
            warmup_ops: spec.warmup_ops,
            interval_ops: 256,
            seed: 7,
            ops_total: 1000,
            ops_measured: 250,
            ops_warm: 100,
            weight_total: 1000,
            weight_measured: 250,
            weight_warm: 100,
            warm_read_hits: 40,
            warm_read_misses: 10,
            warm_write_hits: 5,
            warm_write_misses: 2,
            warm_upgrade_misses: 1,
            warm_cpu_cycles: 300,
            warm_load_cycles: 90,
            warm_merge_cycles: 3,
        }
    });
    let cell = JournalEntry {
        app: "lu".to_string(),
        cache: "4k".to_string(),
        cluster: 1 << (i % 4),
        stats: RunStats {
            per_proc: vec![Breakdown {
                cpu: 100 + i,
                load: 40,
                merge: 3,
                sync: 9,
            }],
            mem: MissStats {
                read_hits: 11,
                write_hits: 12,
                read_misses: 13,
                write_misses: 14,
                upgrade_misses: 15,
                merge_stalls: 16,
                by_latency: [1, 2, 3, 4],
                invalidations: 17,
                evictions: 18,
                writebacks: 19,
                local_satisfied: 20,
                bus_transfers: 21,
                bus_invalidations: 22,
            },
            exec_time: 1000 + i,
        },
        wall: Some(Duration::from_millis(12_250 + 250 * i)),
        status: RunStatus::Ok,
        attempts: 1,
        sampling,
    };
    StoreEntry {
        key: format!("{i:032x}"),
        size: "small".to_string(),
        procs: 8,
        cell,
    }
    .to_json()
    .to_string()
}

/// A valid one-shard store file: header plus `n` entry lines.
fn valid_shard(n: u64) -> Vec<u8> {
    let mut text =
        String::from("{\"schema\":\"clustered-smp/result-store/v2\",\"shard\":0,\"shards\":1}\n");
    for i in 0..n {
        text.push_str(&entry_line(i));
        text.push('\n');
    }
    text.into_bytes()
}

/// One structural or byte-level damage to a shard file.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only the first `at` bytes (mod length).
    Truncate(usize),
    /// Overwrite the byte at `at` (mod length) with `byte`.
    Flip(usize, u8),
    /// Duplicate line `line` (mod line count) in place.
    Duplicate(usize),
    /// Drop line `line` (mod line count).
    Drop(usize),
    /// Swap lines `a` and `b` (mod line count).
    Swap(usize, usize),
    /// Replace JSON number `n` (mod number count) with `with`.
    Number(usize, &'static str),
}

/// Bytes a flip writes: JSON structure, signs, exponents, digits, and
/// non-ASCII noise.
const FLIP_BYTES: [u8; 14] = [
    b'-', b'e', b'9', b'0', b'.', b'"', b'{', b'}', b',', b':', b' ', b'\n', 0x00, 0xff,
];

/// Values a number swap writes: negative, overflowing, fractional
/// and out-of-range for every integer width a field might hold.
const NUMBERS: [&str; 8] = [
    "-1",
    "-0.5",
    "1e300",
    "1e400",
    "1.5",
    "4294967296",
    "18446744073709551616",
    "-9223372036854775809",
];

fn gen_mutation(g: &mut Gen) -> Mutation {
    let at = g.usize_in(0..4096);
    match g.usize_in(0..6) {
        0 => Mutation::Truncate(at),
        1 => Mutation::Flip(at, g.pick(&FLIP_BYTES)),
        2 => Mutation::Duplicate(at),
        3 => Mutation::Drop(at),
        4 => Mutation::Swap(at, g.usize_in(0..4096)),
        _ => Mutation::Number(at, g.pick(&NUMBERS)),
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

fn apply(bytes: &mut Vec<u8>, m: &Mutation) {
    let lines =
        |b: &[u8]| -> Vec<Vec<u8>> { b.split(|&c| c == b'\n').map(<[u8]>::to_vec).collect() };
    let join = |ls: Vec<Vec<u8>>| ls.join(&b'\n');
    match *m {
        Mutation::Truncate(at) => bytes.truncate(at % (bytes.len() + 1)),
        Mutation::Flip(at, byte) => {
            if !bytes.is_empty() {
                let i = at % bytes.len();
                bytes[i] = byte;
            }
        }
        Mutation::Duplicate(line) => {
            let mut ls = lines(bytes);
            let i = line % ls.len();
            ls.insert(i, ls[i].clone());
            *bytes = join(ls);
        }
        Mutation::Drop(line) => {
            let mut ls = lines(bytes);
            ls.remove(line % ls.len());
            *bytes = join(ls);
        }
        Mutation::Swap(a, b) => {
            let mut ls = lines(bytes);
            let n = ls.len();
            ls.swap(a % n, b % n);
            *bytes = join(ls);
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

/// Feeds `bytes` through both parser entry points: `scan_store` on
/// the (lossily decoded) text, and `ResultStore::open` over a store
/// directory whose only shard holds exactly these bytes. Either may
/// fail with a typed error; a panic is the bug.
fn survives(dir: &Path, bytes: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(bytes).into_owned();
    catch_unwind(|| {
        let _ = scan_store(&text);
    })
    .map_err(|_| format!("scan_store panicked on {text:?}"))?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(shard_file_name(0)), bytes).map_err(|e| e.to_string())?;
    catch_unwind(AssertUnwindSafe(|| {
        let _ = ResultStore::open(dir);
    }))
    .map_err(|_| format!("ResultStore::open panicked on {text:?}"))
}

#[test]
fn arbitrary_bytes_never_panic_the_store_parsers() {
    let dir = tmp_dir("bytes");
    propcheck::check_with(
        &config(),
        "store-parsers-arbitrary-bytes",
        |g: &mut Gen| {
            // Half the cases start with a valid header so the
            // entry parser sees the noise too.
            let mut bytes = if g.usize_in(0..2) == 0 {
                valid_shard(0)
            } else {
                Vec::new()
            };
            bytes.extend(g.vec_of(0..512, |g| g.u8_in(0..255)));
            bytes
        },
        |b| propcheck::halves(b.as_slice()),
        |bytes| survives(&dir, bytes),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_valid_shards_never_panic_the_store_parsers() {
    let dir = tmp_dir("mutated");
    propcheck::check_with(
        &config(),
        "store-parsers-mutated-shards",
        |g: &mut Gen| {
            let n = g.u64_in(0..6);
            let ms = g.vec_of(1..4, gen_mutation);
            (n, ms)
        },
        |(n, ms)| {
            halves_and_each(ms, |_| Vec::new())
                .into_iter()
                .filter(|v| !v.is_empty())
                .map(|v| (*n, v))
                .collect()
        },
        |(n, ms)| {
            let mut bytes = valid_shard(*n);
            for m in ms {
                apply(&mut bytes, m);
            }
            survives(&dir, &bytes)
        },
    );
    std::fs::remove_dir_all(&dir).ok();
}
