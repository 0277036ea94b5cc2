//! `paper_run --figure ID` dispatch, end to end through the built
//! binary. Only cheap figures run here: the suite runs debug builds.

use std::process::{Command, Output};

fn paper_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper_run"))
        .args(args)
        .output()
        .expect("paper_run runs")
}

#[test]
fn table4_figure_prints_the_rendered_table() {
    let out = paper_run(&["--figure", "table4_conflicts"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        cluster_study::report::render_table4()
    );
}

#[test]
fn unknown_figure_exits_2_naming_the_valid_ids() {
    let out = paper_run(&["--figure", "nope"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown figure `nope`"), "{stderr}");
    assert!(stderr.contains("fig2_infinite"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn figure_with_sampling_exits_2() {
    let out = paper_run(&["--figure", "fig2_infinite", "--sample", "periodic"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no figure ran");
}

#[test]
fn study_flags_on_a_plain_figure_exit_2() {
    for args in [
        &["--figure", "fig2_infinite", "--cache", "d"][..],
        &["--figure", "table4_conflicts", "--retries", "1"],
    ] {
        let out = paper_run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "no figure ran");
        assert!(!std::path::Path::new("d").exists(), "no store was opened");
    }
}

#[test]
fn checkpoint_and_resume_are_unknown_flags() {
    for flag in ["--checkpoint", "--resume"] {
        let out = paper_run(&["--small", flag, "j.jsonl"]);
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}
