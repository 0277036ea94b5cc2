//! Source-level workspace lints: repo invariants the compiler cannot
//! enforce (DESIGN.md §11 has the full rule table).
//!
//! | rule         | forbids                                            |
//! |--------------|----------------------------------------------------|
//! | `no-panic`   | `.unwrap()` / `.expect(` / `panic!` /              |
//! |              | `unreachable!(` in non-test library code of        |
//! |              | `simcore`, `coherence`, `tango`, and the `serve`   |
//! |              | server loop                                        |
//! | `no-wallclock` | `Instant` / `SystemTime` in non-test code of the |
//! |              | simulation crates (plus `splash`) — wall-clock     |
//! |              | values must never flow into simulation results     |
//! | `atomic-io`  | direct `fs::write` of artifacts anywhere outside   |
//! |              | `write_atomic` (crate `src/` trees, `examples/`    |
//! |              | and the benchmark's `perfbench/src`)               |
//! | `no-lossy-cast` | bare `as u32` / `as usize` in non-test code of  |
//! |              | `simcore`, `coherence`, `tango` and `core` — width |
//! |              | conversions go through `try_from` or the helpers   |
//! |              | in `simcore::cast`, so a count overflowing the     |
//! |              | target width can never silently wrap               |
//! | `no-unsafe`  | the `unsafe` keyword (`unsafe ` / `unsafe{`) in    |
//! |              | non-test code of every `crates/*/src` tree — the   |
//! |              | serve loop's one `poll(2)` FFI call carries the    |
//! |              | only allow                                         |
//! | `no-assert-in-result` | `assert!` / `assert_eq!` / `assert_ne!`   |
//! |              | in a non-test function returning `Result`, in the  |
//! |              | crates `no-panic` covers — a function that reports |
//! |              | failure as a value must not also panic             |
//! | `schema-sync`| drift between a writer key set and its golden      |
//! |              | schema test, per pairing: the manifest writers     |
//! |              | (`manifest.rs`, `parallel.rs`) against             |
//! |              | `crates/bench/tests/manifest_schema.rs`, the serve |
//! |              | protocol writer (`serve/src/protocol.rs`) against  |
//! |              | `crates/serve/tests/protocol.rs`, the sampling     |
//! |              | writer (`simcore/src/sample.rs`) against           |
//! |              | `crates/simcore/tests/prop_sample.rs`, and the     |
//! |              | race/certificate writers (`simcore/src/witness.rs`,|
//! |              | `simcore/src/ops.rs`) against                      |
//! |              | `crates/check/tests/schema_race.rs`                |
//!
//! Scanning is token-based over comment-stripped source with
//! `#[cfg(test)]` modules skipped, so the pass needs no compiler
//! plumbing and runs in milliseconds. A finding is suppressed by a
//! `// cluster_check: allow(<rule>)` comment on the same line or on a
//! comment block immediately above it — the suppression syntax doubles
//! as in-source documentation of *why* the exception is sound.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name ("no-panic", ...).
    pub rule: &'static str,
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.detail
        )
    }
}

/// Strips `//` line comments (string-literal aware) so tokens inside
/// comments never match; returns `(code, comment)` halves.
fn split_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return (&line[..i], &line[i..]);
            }
            _ => {}
        }
        i += 1;
    }
    (line, "")
}

/// Counts `{` / `}` in `code` outside string literals. A brace inside
/// a literal (`let b = "{";`) must not perturb the `#[cfg(test)]` skip
/// depth — an unmatched one would otherwise make the skipper swallow
/// (or leak) the rest of the file.
fn code_braces(code: &str) -> (i64, i64) {
    let bytes = code.as_bytes();
    let (mut opens, mut closes) = (0i64, 0i64);
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped char
            b'"' => in_str = !in_str,
            b'{' if !in_str => opens += 1,
            b'}' if !in_str => closes += 1,
            _ => {}
        }
        i += 1;
    }
    (opens, closes)
}

/// Lines of `text` with `#[cfg(test)]`-gated blocks removed, as
/// `(line_number, raw_line)` pairs. Tracks brace depth from the first
/// `{` after the attribute to the matching `}`.
fn non_test_lines(text: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let mut skipping = false;
    let mut pending_attr = false; // saw #[cfg(test)], waiting for the {
    let mut depth: i64 = 0;
    for (i, raw) in text.lines().enumerate() {
        let (code, _) = split_comment(raw);
        if !skipping && !pending_attr && code.contains("#[cfg(test)]") {
            pending_attr = true;
            continue;
        }
        if pending_attr {
            let (opens, closes) = code_braces(code);
            if opens > 0 {
                pending_attr = false;
                skipping = true;
                depth = opens - closes;
                if depth <= 0 {
                    skipping = false;
                }
            }
            continue;
        }
        if skipping {
            let (opens, closes) = code_braces(code);
            depth += opens - closes;
            if depth <= 0 {
                skipping = false;
            }
            continue;
        }
        out.push((i + 1, raw));
    }
    out
}

/// Token scan of one file against one rule's token set. Suppression:
/// `cluster_check: allow(<rule>)` on the same line, or anywhere in the
/// run of comment/blank lines immediately above.
fn scan_tokens(
    rule: &'static str,
    tokens: &[&str],
    file: &Path,
    text: &str,
    findings: &mut Vec<Finding>,
) {
    let allow_marker = format!("cluster_check: allow({rule})");
    let mut pending_allow = false;
    for (line_no, raw) in non_test_lines(text) {
        let (code, comment) = split_comment(raw);
        let is_comment_only = code.trim().is_empty();
        if comment.contains(&allow_marker) {
            pending_allow = true;
        }
        if is_comment_only {
            continue; // comments and blanks keep the pending allow
        }
        let allowed = pending_allow;
        pending_allow = false;
        for token in tokens {
            if code.contains(token) && !allowed {
                findings.push(Finding {
                    rule,
                    file: file.to_path_buf(),
                    line: line_no,
                    detail: format!("forbidden token `{token}`"),
                });
            }
        }
    }
}

/// Whether `code[at..]` starts a token: the byte before `at` is not
/// part of an identifier (so `debug_assert!` is not `assert!`).
fn at_token_start(code: &str, at: usize) -> bool {
    at == 0 || !code.as_bytes()[at - 1].is_ascii_alphanumeric() && code.as_bytes()[at - 1] != b'_'
}

/// Byte offset of the first `fn ` keyword in `code`, if any.
fn fn_keyword(code: &str) -> Option<usize> {
    code.match_indices("fn ")
        .map(|(at, _)| at)
        .find(|&at| at_token_start(code, at))
}

/// Whether a signature's return type names `Result`: the text after
/// its first `->` outside any `(..)`, `[..]` or `<..>`, up to a
/// `where` clause.
fn returns_result(sig: &str) -> bool {
    let bytes = sig.as_bytes();
    let mut nest = 0i64;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                if nest == 0 {
                    let ret = &sig[i + 2..];
                    let ret = ret.split(" where ").next().unwrap_or(ret);
                    return ret.contains("Result");
                }
                i += 1;
            }
            b'(' | b'[' | b'<' => nest += 1,
            b')' | b']' | b'>' => nest -= 1,
            _ => {}
        }
        i += 1;
    }
    false
}

/// The no-assert-in-result rule over one file. `fn` bodies are
/// tracked by brace depth: closures and blocks belong to the function
/// they are written in, a nested `fn` to itself. Suppression works as
/// in [`scan_tokens`].
fn scan_assert_in_result(file: &Path, text: &str, findings: &mut Vec<Finding>) {
    const RULE: &str = "no-assert-in-result";
    const TOKENS: [&str; 3] = ["assert!", "assert_eq!", "assert_ne!"];
    let allow_marker = format!("cluster_check: allow({RULE})");
    let mut pending_allow = false;
    let mut depth = 0i64;
    // (body depth, returns Result) of each enclosing fn, innermost last.
    let mut fns: Vec<(i64, bool)> = Vec::new();
    // A signature whose body has not opened yet, and its bracket depth.
    let mut sig: Option<(String, i64)> = None;
    for (line_no, raw) in non_test_lines(text) {
        let (code, comment) = split_comment(raw);
        if comment.contains(&allow_marker) {
            pending_allow = true;
        }
        if code.trim().is_empty() {
            continue;
        }
        let allowed = pending_allow;
        pending_allow = false;

        let start = match sig {
            Some(_) => Some(0),
            None => fn_keyword(code),
        };
        if let Some(start) = start {
            let (mut text, mut nest) = sig.take().unwrap_or_default();
            let mut ended = false;
            for (i, b) in code.bytes().enumerate().skip(start) {
                match b {
                    b'(' | b'[' => nest += 1,
                    b')' | b']' => nest -= 1,
                    // A declaration without a body.
                    b';' if nest == 0 => ended = true,
                    b'{' if nest == 0 => {
                        text.push_str(&code[start..i]);
                        let (opens, closes) = code_braces(&code[..i]);
                        fns.push((depth + opens - closes + 1, returns_result(&text)));
                        ended = true;
                    }
                    _ => {}
                }
                if ended {
                    break;
                }
            }
            if !ended {
                text.push_str(&code[start..]);
                text.push(' ');
                sig = Some((text, nest));
            }
        }

        if !allowed && fns.last().is_some_and(|&(_, result)| result) {
            for token in TOKENS {
                if code
                    .match_indices(token)
                    .any(|(at, _)| at_token_start(code, at))
                {
                    findings.push(Finding {
                        rule: RULE,
                        file: file.to_path_buf(),
                        line: line_no,
                        detail: format!("forbidden token `{token}` in a fn returning Result"),
                    });
                }
            }
        }

        let (opens, closes) = code_braces(code);
        depth += opens - closes;
        while fns.last().is_some_and(|&(body, _)| body > depth) {
            fns.pop();
        }
    }
}

/// Recursively collects `.rs` files under `dir` (sorted for stable
/// output). Missing directories yield nothing: lint scopes are fixed
/// paths, and a fixture tree may cover only some of them.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Every `crates/*/src` tree under `root`, sorted.
fn crate_src_dirs(root: &Path) -> Vec<PathBuf> {
    let Ok(crates) = std::fs::read_dir(root.join("crates")) else {
        return Vec::new();
    };
    let mut cs: Vec<_> = crates.flatten().map(|e| e.path().join("src")).collect();
    cs.sort();
    cs
}

/// Whether a literal looks like a JSON schema key (lowercase
/// identifier), filtering out path fragments and prose.
fn is_key_like(k: &str) -> bool {
    !k.is_empty()
        && k.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Pulls `"key"` first arguments of `marker(` calls out of `text`
/// (e.g. every `.with(` / `.push(` writer key), following rustfmt's
/// habit of wrapping the literal onto the next line.
fn string_args(text: &str, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut pending = false;
    for (_, raw) in non_test_lines(text) {
        let (code, _) = split_comment(raw);
        if pending {
            pending = false;
            if let Some(rest) = code.trim_start().strip_prefix('"') {
                if let Some(end) = rest.find('"') {
                    out.push(rest[..end].to_string());
                }
            }
        }
        let mut rest = code;
        while let Some(pos) = rest.find(marker) {
            rest = &rest[pos + marker.len()..];
            let after = rest.trim_start();
            if let Some(r) = after.strip_prefix('"') {
                if let Some(end) = r.find('"') {
                    out.push(r[..end].to_string());
                }
            } else if after.is_empty() {
                pending = true; // the key literal starts the next line
            }
        }
    }
    out.retain(|k| is_key_like(k));
    out
}

/// Identifier-like string literals inside `for key in [ ... ]` blocks
/// of the golden schema test.
fn golden_array_keys(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_array = false;
    for raw in text.lines() {
        let (code, _) = split_comment(raw);
        if code.contains("for key in [") {
            in_array = true;
        }
        if in_array {
            let mut rest = code;
            if let Some(pos) = rest.find('[') {
                rest = &rest[pos + 1..];
            }
            let upto = rest.find(']').map(|p| &rest[..p]).unwrap_or(rest);
            let mut s = upto;
            while let Some(start) = s.find('"') {
                s = &s[start + 1..];
                if let Some(end) = s.find('"') {
                    out.push(s[..end].to_string());
                    s = &s[end + 1..];
                } else {
                    break;
                }
            }
            if rest.contains(']') {
                in_array = false;
            }
        }
    }
    out
}

/// One writer↔golden pairing for the schema-sync rule: the key set a
/// group of source files emits (via `.with(` / `.push(`) must match
/// the key set its golden schema test pins (via `.get(` /
/// `for key in [...]`), modulo the per-pairing exempt lists.
struct SchemaPair {
    /// Source files emitting schema keys, relative to the root.
    writers: &'static [&'static str],
    /// Golden schema test pinning the keys, relative to the root.
    golden: &'static str,
    /// Writer keys the golden deliberately does not pin.
    writer_exempt: &'static [&'static str],
    /// Golden-side keys no writer emits directly.
    golden_exempt: &'static [&'static str],
    /// Writer-side label used in finding messages.
    what: &'static str,
}

/// Every schema the workspace promises to keep in sync with a golden
/// test. Manifest exemptions: error-path fields only present on
/// faulted runs, a conditionally-emitted timing diagnostic, and
/// (golden side) a tool-specific metric registered by the caller plus
/// the warm-cycle fields of the embedded `sampling` object, which the
/// sampling writer emits and its own golden pins — the manifest
/// golden reads them back only to close the cycle-coverage sum.
const SCHEMA_PAIRS: [SchemaPair; 4] = [
    SchemaPair {
        writers: &["crates/core/src/manifest.rs", "crates/core/src/parallel.rs"],
        golden: "crates/bench/tests/manifest_schema.rs",
        writer_exempt: &["phase", "error", "serial_baseline_seconds"],
        golden_exempt: &[
            "simulations",
            "warm_cpu_cycles",
            "warm_load_cycles",
            "warm_merge_cycles",
        ],
        what: "manifest writer",
    },
    SchemaPair {
        writers: &["crates/serve/src/protocol.rs"],
        golden: "crates/serve/tests/protocol.rs",
        writer_exempt: &[],
        golden_exempt: &[],
        what: "serve protocol writer",
    },
    SchemaPair {
        writers: &["crates/simcore/src/sample.rs"],
        golden: "crates/simcore/tests/prop_sample.rs",
        writer_exempt: &[],
        golden_exempt: &[],
        what: "sampling writer",
    },
    SchemaPair {
        writers: &["crates/simcore/src/witness.rs", "crates/simcore/src/ops.rs"],
        golden: "crates/check/tests/schema_race.rs",
        writer_exempt: &[],
        golden_exempt: &[],
        what: "race/certificate writer",
    },
];

/// The schema-sync rule: both directions of drift between each
/// pairing's writer key set and its golden schema key set.
fn schema_sync(root: &Path, findings: &mut Vec<Finding>) {
    for pair in &SCHEMA_PAIRS {
        let golden_file = root.join(pair.golden);
        let Ok(golden_text) = std::fs::read_to_string(&golden_file) else {
            continue; // no golden schema in this tree (e.g. fixture mode)
        };
        let mut writers: Vec<(String, PathBuf)> = Vec::new();
        for rel in pair.writers {
            let wf = root.join(rel);
            let Ok(text) = std::fs::read_to_string(&wf) else {
                continue;
            };
            for marker in [".with(", ".push("] {
                for key in string_args(&text, marker) {
                    writers.push((key, wf.clone()));
                }
            }
        }
        let mut golden: Vec<String> = string_args(&golden_text, ".get(");
        golden.extend(golden_array_keys(&golden_text));
        golden.sort();
        golden.dedup();

        let writer_keys: Vec<&str> = writers.iter().map(|(k, _)| k.as_str()).collect();
        for key in &golden {
            if !writer_keys.contains(&key.as_str()) && !pair.golden_exempt.contains(&key.as_str()) {
                findings.push(Finding {
                    rule: "schema-sync",
                    file: golden_file.clone(),
                    line: 0,
                    detail: format!(
                        "golden schema checks key {key:?} but no {} emits it",
                        pair.what
                    ),
                });
            }
        }
        for (key, wf) in &writers {
            if !golden.iter().any(|g| g == key) && !pair.writer_exempt.contains(&key.as_str()) {
                findings.push(Finding {
                    rule: "schema-sync",
                    file: wf.clone(),
                    line: 0,
                    detail: format!(
                        "{} emits key {key:?} the golden schema never checks",
                        pair.what
                    ),
                });
            }
        }
    }
}

/// Runs every lint over the workspace rooted at `root`, returning all
/// findings (empty means clean).
pub fn lint_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();

    // no-panic: the simulation library crates promise typed errors,
    // and the serving layer promises a hostile request can never kill
    // the server loop. no-assert-in-result covers the same crates: an
    // assertion is a panic path too.
    for crate_dir in [
        "crates/simcore/src",
        "crates/coherence/src",
        "crates/tango/src",
        "crates/serve/src",
    ] {
        for file in rs_files(&root.join(crate_dir)) {
            if let Ok(text) = std::fs::read_to_string(&file) {
                scan_tokens(
                    "no-panic",
                    &[".unwrap()", ".expect(", "panic!", "unreachable!("],
                    &file,
                    &text,
                    &mut findings,
                );
                scan_assert_in_result(&file, &text, &mut findings);
            }
        }
    }

    // no-wallclock: determinism guard — simulation layers must not
    // read the wall clock (jobs=1 vs jobs=N byte-identity depends on
    // it). The study driver (crates/core) measures wall time on
    // purpose, so it is out of scope.
    for crate_dir in [
        "crates/simcore/src",
        "crates/coherence/src",
        "crates/tango/src",
        "crates/splash/src",
    ] {
        for file in rs_files(&root.join(crate_dir)) {
            if let Ok(text) = std::fs::read_to_string(&file) {
                scan_tokens(
                    "no-wallclock",
                    &["Instant", "SystemTime"],
                    &file,
                    &text,
                    &mut findings,
                );
            }
        }
    }

    // no-lossy-cast: silent-truncation guard — the simulation crates,
    // and the study crate that parses the result store's bytes,
    // convert widths with `try_from` or the checked helpers in
    // `simcore::cast`, so an overflowing count is a typed error (or a
    // documented `allow`), never a wrap.
    for crate_dir in [
        "crates/simcore/src",
        "crates/coherence/src",
        "crates/tango/src",
        "crates/core/src",
    ] {
        for file in rs_files(&root.join(crate_dir)) {
            if let Ok(text) = std::fs::read_to_string(&file) {
                scan_tokens(
                    "no-lossy-cast",
                    &["as u32", "as usize"],
                    &file,
                    &text,
                    &mut findings,
                );
            }
        }
    }

    // no-unsafe: the workspace is safe Rust; each exception (today
    // only the serve loop's `poll(2)` call) is an allow stating why.
    // The tokens are the keyword as code spells it (`unsafe {`,
    // `unsafe fn`, ...), so `forbid(unsafe_code)` and the rule's own
    // name do not match; they are built with `concat!` so this list
    // does not report itself.
    for dir in crate_src_dirs(root) {
        for file in rs_files(&dir) {
            if let Ok(text) = std::fs::read_to_string(&file) {
                scan_tokens(
                    "no-unsafe",
                    &[concat!("un", "safe "), concat!("un", "safe{")],
                    &file,
                    &text,
                    &mut findings,
                );
            }
        }
    }

    // atomic-io: manifests/reports must go through write_atomic
    // (tmp + fsync + rename), never bare fs::write.
    let mut io_dirs: Vec<PathBuf> = vec![
        root.join("src"),
        root.join("examples"),
        root.join("perfbench/src"),
    ];
    io_dirs.extend(crate_src_dirs(root));
    for dir in io_dirs {
        for file in rs_files(&dir) {
            if let Ok(text) = std::fs::read_to_string(&file) {
                // cluster_check: allow(atomic-io) — the rule's own
                // token list names the forbidden call.
                scan_tokens("atomic-io", &["fs::write"], &file, &text, &mut findings);
            }
        }
    }

    schema_sync(root, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_splitting_is_string_aware() {
        assert_eq!(split_comment("let x = 1; // hi"), ("let x = 1; ", "// hi"));
        let s = r#"let u = "http://x"; // c"#;
        let (code, comment) = split_comment(s);
        assert!(code.contains("http://x"));
        assert_eq!(comment, "// c");
        assert_eq!(split_comment("no comment"), ("no comment", ""));
    }

    #[test]
    fn cfg_test_blocks_are_skipped() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap() }\n}\nfn c() {}\n";
        let lines: Vec<usize> = non_test_lines(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(lines, vec![1, 6]);
    }

    #[test]
    fn braces_inside_strings_do_not_desync_test_skipping() {
        // A `"{"` literal inside the skipped block must not extend the
        // region past its real closing brace — with naive counting the
        // line after the module would be swallowed and its finding lost.
        let src = "#[cfg(test)]\nmod tests {\n    fn b() { let s = \"{\"; x.unwrap(); }\n}\nfn after() { y.unwrap(); }\n";
        let lines: Vec<usize> = non_test_lines(src).into_iter().map(|(n, _)| n).collect();
        assert_eq!(lines, vec![5]);
        let mut f = Vec::new();
        scan_tokens("no-panic", &[".unwrap()"], Path::new("t.rs"), src, &mut f);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn escaped_quotes_and_closing_brace_literals_count_correctly() {
        // The mirror failure: a stray `"}"` literal must not terminate
        // the skip early and leak test-only code into the scan.
        let src = "#[cfg(test)]\nmod tests {\n    fn b() { let s = \"}\\\"}\"; }\n    fn c() { x.unwrap(); }\n}\n";
        let lines: Vec<usize> = non_test_lines(src).into_iter().map(|(n, _)| n).collect();
        assert!(lines.is_empty(), "whole file is the test module: {lines:?}");
    }

    #[test]
    fn allow_comment_suppresses_next_code_line() {
        let src = "// cluster_check: allow(no-panic) — reason\n// continued prose\nx.unwrap();\ny.unwrap();\n";
        let mut f = Vec::new();
        scan_tokens("no-panic", &[".unwrap()"], Path::new("t.rs"), src, &mut f);
        assert_eq!(f.len(), 1, "only the unsuppressed line reports: {f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn same_line_allow_suppresses() {
        let src = "x.unwrap(); // cluster_check: allow(no-panic) — why\n";
        let mut f = Vec::new();
        scan_tokens("no-panic", &[".unwrap()"], Path::new("t.rs"), src, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn tokens_inside_comments_do_not_match() {
        let src = "// panic! is forbidden here\nlet ok = 1;\n";
        let mut f = Vec::new();
        scan_tokens("no-panic", &["panic!"], Path::new("t.rs"), src, &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn string_args_extracts_writer_keys() {
        let src = "j.with(\"schema\", SCHEMA).with(\"tool\", t);\no.push(\"runs\", r);\n";
        assert_eq!(string_args(src, ".with("), vec!["schema", "tool"]);
        assert_eq!(string_args(src, ".push("), vec!["runs"]);
    }

    #[test]
    fn string_args_follows_rustfmt_line_wrap_and_filters_non_keys() {
        let src =
            "j.with(\n    \"breakdown_cycles\",\n    x,\n)\np.push(\".tmp\");\nv.push(item);\n";
        assert_eq!(string_args(src, ".with("), vec!["breakdown_cycles"]);
        assert_eq!(string_args(src, ".push("), Vec::<String>::new());
    }

    #[test]
    fn golden_array_keys_reads_multiline_lists() {
        let src = "for key in [\n    \"cpu\",\n    \"load\",\n] {\n";
        assert_eq!(golden_array_keys(src), vec!["cpu", "load"]);
        let one = "for key in [\"app\", \"cache\"] {\n";
        assert_eq!(golden_array_keys(one), vec!["app", "cache"]);
    }
}
