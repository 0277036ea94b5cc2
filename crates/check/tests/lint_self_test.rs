//! Lint self-test: runs `lint_workspace` over a fixture tree
//! containing one file per forbidden pattern (plus one fully
//! suppressed file) and asserts every rule fires exactly where
//! expected — and nowhere else. Also asserts the real workspace is
//! clean, which is the contract the CI `check` job enforces.

use std::path::{Path, PathBuf};

use cluster_check::lint::{lint_workspace, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

fn findings_for<'a>(all: &'a [Finding], rule: &str, file_suffix: &str) -> Vec<&'a Finding> {
    all.iter()
        .filter(|f| f.rule == rule && f.file.to_string_lossy().ends_with(file_suffix))
        .collect()
}

#[test]
fn fixture_tree_trips_every_rule() {
    let findings = lint_workspace(&fixture_root());

    // no-panic: one finding per token in panics.rs.
    let panics = findings_for(&findings, "no-panic", "simcore/src/panics.rs");
    assert_eq!(
        panics.len(),
        4,
        "unwrap/expect/panic!/unreachable! each report: {panics:?}"
    );
    let details: Vec<&str> = panics.iter().map(|f| f.detail.as_str()).collect();
    assert!(details.iter().any(|d| d.contains(".unwrap()")));
    assert!(details.iter().any(|d| d.contains(".expect(")));
    assert!(details.iter().any(|d| d.contains("`panic!`")));
    assert!(details.iter().any(|d| d.contains("`unreachable!(`")));

    // no-wallclock: Instant and SystemTime both report.
    let wall = findings_for(&findings, "no-wallclock", "wallclock.rs");
    assert!(
        wall.iter().any(|f| f.detail.contains("Instant")),
        "{findings:?}"
    );
    assert!(wall.iter().any(|f| f.detail.contains("SystemTime")));

    // atomic-io: the bare fs::write reports.
    let io = findings_for(&findings, "atomic-io", "raw_write.rs");
    assert_eq!(io.len(), 1, "{io:?}");
    assert_eq!(io[0].line, 4);

    // no-panic covers the serve crate: a panicking server-loop path
    // reports just like one in the simulation libraries.
    let serve_panics = findings_for(&findings, "no-panic", "loop_panics.rs");
    assert_eq!(serve_panics.len(), 1, "{serve_panics:?}");
    assert!(serve_panics[0].detail.contains(".unwrap()"));

    // atomic-io covers the serve crate's store writes too.
    let serve_io = findings_for(&findings, "atomic-io", "raw_store_write.rs");
    assert_eq!(serve_io.len(), 1, "{serve_io:?}");

    // ... and the benchmark's report writes.
    let bench_io = findings_for(&findings, "atomic-io", "perfbench/src/raw_bench_write.rs");
    assert_eq!(bench_io.len(), 1, "{bench_io:?}");

    // no-panic covers the chaos fault-injection layer: an injected
    // fault that panics instead of degrading reports like any other
    // serve-crate panic.
    let chaos_panics = findings_for(&findings, "no-panic", "chaos_panics.rs");
    assert_eq!(chaos_panics.len(), 1, "{chaos_panics:?}");
    assert!(chaos_panics[0].detail.contains(".expect("));

    // no-lossy-cast: both cast tokens report; the allow-annotated site
    // in the same file stays quiet (so the count is exactly two).
    let lossy = findings_for(&findings, "no-lossy-cast", "simcore/src/lossy.rs");
    assert_eq!(lossy.len(), 2, "{lossy:?}");
    assert!(lossy.iter().any(|f| f.detail.contains("as u32")));
    assert!(lossy.iter().any(|f| f.detail.contains("as usize")));

    // no-unsafe: the unannotated block reports; its copy inside
    // #[cfg(test)] does not.
    let unsafes = findings_for(&findings, "no-unsafe", "serve/src/raw_unsafe.rs");
    assert_eq!(unsafes.len(), 1, "{unsafes:?}");
    assert_eq!(unsafes[0].line, 6);

    // no-assert-in-result: asserts in fns returning Result report,
    // including one in a closure and one after a nested fn's body;
    // the unit fn, the nested unit fn, `debug_assert!` and the
    // allow-annotated site do not.
    let asserts = findings_for(
        &findings,
        "no-assert-in-result",
        "simcore/src/assert_result.rs",
    );
    let lines: Vec<usize> = asserts.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![6, 15, 39], "{asserts:?}");
    assert!(asserts[1].detail.contains("`assert_eq!`"));
    assert!(asserts[2].detail.contains("`assert_ne!`"));

    // schema-sync: both drift directions report, for both pairings.
    let schema: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "schema-sync")
        .collect();
    assert!(
        schema
            .iter()
            .any(|f| f.detail.contains("\"bogus_key\"") && f.detail.contains("never checks")),
        "writer-side drift reports: {schema:?}"
    );
    assert!(
        schema.iter().any(
            |f| f.detail.contains("\"missing_key\"") && f.detail.contains("no manifest writer")
        ),
        "golden-side drift reports: {schema:?}"
    );
    assert!(
        schema
            .iter()
            .any(|f| f.detail.contains("\"serve_bogus_key\"")
                && f.detail.contains("serve protocol writer")
                && f.detail.contains("never checks")),
        "serve writer-side drift reports: {schema:?}"
    );
    assert!(
        schema
            .iter()
            .any(|f| f.detail.contains("\"serve_missing_key\"")
                && f.detail.contains("no serve protocol writer")),
        "serve golden-side drift reports: {schema:?}"
    );
    assert!(
        schema
            .iter()
            .any(|f| f.detail.contains("\"sample_bogus_key\"")
                && f.detail.contains("sampling writer")
                && f.detail.contains("never checks")),
        "sampling writer-side drift reports: {schema:?}"
    );
    assert!(
        schema
            .iter()
            .any(|f| f.detail.contains("\"sample_missing_key\"")
                && f.detail.contains("no sampling writer")),
        "sampling golden-side drift reports: {schema:?}"
    );
    assert!(
        schema
            .iter()
            .any(|f| f.detail.contains("\"race_bogus_key\"")
                && f.detail.contains("race/certificate writer")
                && f.detail.contains("never checks")),
        "race writer-side drift reports: {schema:?}"
    );
    assert!(
        schema
            .iter()
            .any(|f| f.detail.contains("\"race_missing_key\"")
                && f.detail.contains("no race/certificate writer")),
        "race golden-side drift reports: {schema:?}"
    );
}

#[test]
fn suppressed_fixture_file_is_clean() {
    let findings = lint_workspace(&fixture_root());
    let from_suppressed: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.file.to_string_lossy().ends_with("suppressed.rs"))
        .collect();
    assert!(
        from_suppressed.is_empty(),
        "allow comments and #[cfg(test)] must suppress: {from_suppressed:?}"
    );
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = lint_workspace(&root);
    assert!(
        findings.is_empty(),
        "workspace lint must stay clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
