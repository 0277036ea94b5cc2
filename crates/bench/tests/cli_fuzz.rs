//! Fuzzing the shared `paper_run`/`serve_soak` flag parser: whatever
//! argument list a user types — arbitrary strings, every flag with
//! hostile values, or valid command lines that are truncated,
//! byte-flipped or spliced into one another — `Cli::parse_from`
//! answers a `Cli` or a typed `CliError`, and never panics; nor do the
//! accessors `paper_run` calls on a parsed `Cli` (`policy`,
//! `sample_spec`, `wants_artifact`, `wants`). A `--timeout-secs
//! 18446744073709551616` is how the fuzzer found `Cli::policy`
//! panicking on a timeout that no `Duration` can hold.
//!
//! Fixed seed and case count, so a run is reproducible without any
//! environment: the cases are drawn by `simcore::propcheck` under an
//! explicit `Config`, and a panic is turned into a failing case so the
//! harness shrinks it before reporting.

use std::panic::catch_unwind;

use cluster_bench::Cli;
use simcore::propcheck::{self, halves_and_each, Config, Gen};

const SEED: u64 = 0xc11f_f022_2300_0001;
/// More cases than the byte-level fuzzes: a parse costs microseconds,
/// and a hostile value only reaches the accessors when every other
/// argument of the case is valid.
const CASES: u32 = 4096;

fn config() -> Config {
    Config {
        cases: CASES,
        seed: SEED,
        max_shrink_steps: 1_000,
    }
}

/// Every flag the parser knows, plus near misses.
const FLAGS: [&str; 22] = [
    "--small",
    "--paper",
    "--procs",
    "--apps",
    "--jobs",
    "--format",
    "--out",
    "--emit-manifest",
    "--retries",
    "--timeout-secs",
    "--cache",
    "--figure",
    "--sample",
    "--sample-rate",
    "--warmup-ops",
    "--validate-sampling",
    "--help",
    "-h",
    "--",
    "-",
    "--jobs=2",
    "--checkpoint",
];

/// Values: valid ones for each flag, and numbers and strings that are
/// empty, negative, fractional, non-finite or out of range.
const VALUES: [&str; 24] = [
    "0",
    "1",
    "8",
    "-1",
    "2.5",
    "1e300",
    "1e400",
    "inf",
    "NaN",
    "18446744073709551616",
    "4294967296",
    "",
    " ",
    "lu,fft",
    ",,",
    "json",
    "csv",
    "periodic",
    "reservoir",
    "0.25",
    "fig5_mp3d",
    "fig2_infinite",
    "nosuch",
    "/tmp/x.json",
];

/// Valid command lines of every mode.
const VALID: [&[&str]; 6] = [
    &[
        "--small",
        "--procs",
        "16",
        "--apps",
        "ocean,mp3d",
        "--jobs",
        "2",
    ],
    &["--figure", "fig2_infinite", "--small"],
    &[
        "--figure",
        "fig5_mp3d",
        "--cache",
        "/tmp/store",
        "--retries",
        "2",
    ],
    &["--small", "--sample", "periodic", "--sample-rate", "0.5"],
    &["--emit-manifest", "--format", "csv", "--timeout-secs", "30"],
    &["--validate-sampling", "--warmup-ops", "256", "--jobs", "1"],
];

/// Parses `args` and exercises the parsed `Cli`; a panic is the bug.
fn survives(args: &[String]) -> Result<(), String> {
    catch_unwind(|| {
        if let Ok(cli) = Cli::parse_from("paper_run", args.iter().cloned()) {
            let _ = cli.policy();
            let _ = cli.sample_spec();
            let _ = cli.wants_artifact();
            let _ = cli.wants("lu");
            let _ = cli.size_label();
        }
    })
    .map_err(|_| format!("the CLI parser panicked on {args:?}"))
}

/// One argument: mostly a value, else a flag or an arbitrary string.
fn gen_arg(g: &mut Gen) -> String {
    match g.usize_in(0..6) {
        0 => g.pick(&FLAGS).to_string(),
        1 => String::from_utf8_lossy(&g.vec_of(0..12, |g| g.u8_in(0..255))).into_owned(),
        _ => g.pick(&VALUES).to_string(),
    }
}

#[test]
fn arbitrary_arguments_never_panic_the_cli_parser() {
    propcheck::check_with(
        &config(),
        "cli-parser-arbitrary-args",
        // Mostly flag-then-argument pairs, so cases get past the first
        // flag often enough to reach the later checks.
        |g: &mut Gen| {
            g.vec_of(0..4, |g| vec![g.pick(&FLAGS).to_string(), gen_arg(g)])
                .concat()
        },
        |args| propcheck::halves(args.as_slice()),
        |args| survives(args),
    );
}

/// One damage to a valid command line.
#[derive(Debug, Clone)]
enum Mutation {
    /// Keep only the first `at` arguments (mod count + 1).
    Truncate(usize),
    /// Replace argument `at` (mod count) with `with`.
    Replace(usize, String),
    /// Overwrite byte `byte_at` of argument `at` (mod lengths).
    Flip(usize, usize, u8),
    /// Cut at `at` (mod count + 1) and continue with command line
    /// `other` from its argument `from` (mod its count + 1).
    Splice(usize, usize, usize),
}

fn gen_mutation(g: &mut Gen) -> Mutation {
    let at = g.usize_in(0..16);
    match g.usize_in(0..4) {
        0 => Mutation::Truncate(at),
        1 => Mutation::Replace(at, gen_arg(g)),
        2 => Mutation::Flip(at, g.usize_in(0..32), g.pick(b"-=,.0e9 \xff")),
        _ => Mutation::Splice(at, g.usize_in(0..VALID.len()), g.usize_in(0..8)),
    }
}

fn apply(args: &mut Vec<String>, m: &Mutation) {
    match m {
        Mutation::Truncate(at) => args.truncate(at % (args.len() + 1)),
        Mutation::Replace(at, with) => {
            if !args.is_empty() {
                let i = at % args.len();
                args[i] = with.clone();
            }
        }
        Mutation::Flip(at, byte_at, byte) => {
            if !args.is_empty() {
                let i = at % args.len();
                let mut bytes = args[i].clone().into_bytes();
                if !bytes.is_empty() {
                    let j = byte_at % bytes.len();
                    bytes[j] = *byte;
                }
                args[i] = String::from_utf8_lossy(&bytes).into_owned();
            }
        }
        Mutation::Splice(at, other, from) => {
            let tail = VALID[other % VALID.len()];
            args.truncate(at % (args.len() + 1));
            args.extend(
                tail[from % (tail.len() + 1)..]
                    .iter()
                    .map(|s| s.to_string()),
            );
        }
    }
}

#[test]
fn damaged_valid_command_lines_never_panic_the_cli_parser() {
    for line in VALID {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        assert!(
            Cli::parse_from("paper_run", args.into_iter()).is_ok(),
            "undamaged: {line:?}"
        );
    }
    propcheck::check_with(
        &config(),
        "cli-parser-damaged-valid",
        |g: &mut Gen| {
            let pick = g.usize_in(0..VALID.len());
            let ms = g.vec_of(1..4, gen_mutation);
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
            let mut args: Vec<String> = VALID[*pick].iter().map(|s| s.to_string()).collect();
            for m in ms {
                apply(&mut args, m);
            }
            survives(&args)
        },
    );
}
