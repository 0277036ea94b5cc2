//! Unit tests for the shared bench CLI parser: every flag, every
//! error path, and the usage text — all through the pure
//! [`Cli::parse_from`] entry point, with no process state involved.

use std::path::PathBuf;

use cluster_bench::{Cli, CliError, Format};
use splash::ProblemSize;

fn parse(args: &[&str]) -> Result<Cli, CliError> {
    Cli::parse_from("testtool", args.iter().map(|s| s.to_string()))
}

#[test]
fn defaults_are_the_paper_machine() {
    let cli = parse(&[]).unwrap();
    assert_eq!(cli.size, ProblemSize::Paper);
    assert_eq!(cli.procs, 64);
    assert_eq!(cli.apps, None);
    assert!(cli.jobs >= 1, "jobs resolves to at least 1");
    assert_eq!(cli.format, Format::Text);
    assert_eq!(cli.out, None);
    assert!(!cli.emit_manifest);
    assert!(!cli.wants_artifact());
}

#[test]
fn size_flags_select_problem_size() {
    assert_eq!(parse(&["--small"]).unwrap().size, ProblemSize::Small);
    assert_eq!(parse(&["--paper"]).unwrap().size, ProblemSize::Paper);
    // Last one wins, like most CLIs.
    assert_eq!(
        parse(&["--small", "--paper"]).unwrap().size,
        ProblemSize::Paper
    );
    assert_eq!(parse(&["--small"]).unwrap().size_label(), "small");
    assert_eq!(parse(&[]).unwrap().size_label(), "paper");
}

#[test]
fn procs_flag_parses_a_number() {
    assert_eq!(parse(&["--procs", "16"]).unwrap().procs, 16);
    let err = parse(&["--procs"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--procs needs a number"));
    let err = parse(&["--procs", "lots"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--procs needs a number"));
}

#[test]
fn apps_flag_splits_and_trims_the_list() {
    let cli = parse(&["--apps", "lu, fft,ocean"]).unwrap();
    assert_eq!(
        cli.apps,
        Some(vec![
            "lu".to_string(),
            "fft".to_string(),
            "ocean".to_string()
        ])
    );
    assert!(cli.wants("lu"));
    assert!(cli.wants("fft"));
    assert!(!cli.wants("barnes"));
    // No filter: everything passes.
    assert!(parse(&[]).unwrap().wants("anything"));
    let err = parse(&["--apps"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--apps needs a list"));
}

#[test]
fn apps_flag_rejects_unknown_names_listing_the_valid_ones() {
    // A typo used to be dropped silently, shrinking the study to the
    // names that matched.
    let err = parse(&["--apps", "lu,nosuchapp"]).unwrap_err();
    let msg = err.message.expect("a usage error, not --help");
    assert!(msg.contains("`nosuchapp`"), "{msg}");
    for app in cluster_study::apps::FIG2_APPS {
        assert!(msg.contains(app), "the error lists `{app}`: {msg}");
    }
    assert!(err.usage.starts_with("usage: testtool"));
    // Empty entries are names too, and unknown ones.
    assert!(parse(&["--apps", "lu,"]).is_err());
    assert!(parse(&["--apps", ""]).is_err());
    // The same check guards the figure regenerators and serve_soak,
    // which share this parser.
    assert!(parse(&["--figure", "fig2_infinite", "--apps", "LU"]).is_err());
    assert!(Cli::parse_from(
        "serve_soak",
        ["--apps", "nosuch"].iter().map(|s| s.to_string())
    )
    .is_err());
}

#[test]
fn jobs_flag_requires_a_positive_number() {
    assert_eq!(parse(&["--jobs", "3"]).unwrap().jobs, 3);
    assert_eq!(parse(&["--jobs", "1"]).unwrap().jobs, 1);
    for bad in [&["--jobs"][..], &["--jobs", "0"], &["--jobs", "many"]] {
        let err = parse(bad).unwrap_err();
        assert_eq!(
            err.message.as_deref(),
            Some("--jobs needs a positive number"),
            "args {bad:?}"
        );
    }
}

#[test]
fn format_flag_selects_the_artifact_format() {
    assert_eq!(parse(&["--format", "text"]).unwrap().format, Format::Text);
    assert_eq!(parse(&["--format", "json"]).unwrap().format, Format::Json);
    assert_eq!(parse(&["--format", "csv"]).unwrap().format, Format::Csv);
    assert!(parse(&["--format", "json"]).unwrap().wants_artifact());
    assert_eq!(Format::Json.extension(), "json");
    assert_eq!(Format::Csv.extension(), "csv");
    for bad in [&["--format"][..], &["--format", "xml"]] {
        let err = parse(bad).unwrap_err();
        assert_eq!(
            err.message.as_deref(),
            Some("--format needs text|json|csv"),
            "args {bad:?}"
        );
    }
}

#[test]
fn out_flag_takes_a_path() {
    let cli = parse(&["--out", "results/custom.json"]).unwrap();
    assert_eq!(cli.out, Some(PathBuf::from("results/custom.json")));
    assert!(cli.wants_artifact());
    let err = parse(&["--out"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--out needs a path"));
}

#[test]
fn emit_manifest_is_a_bare_switch() {
    let cli = parse(&["--emit-manifest"]).unwrap();
    assert!(cli.emit_manifest);
    assert!(cli.wants_artifact());
}

#[test]
fn retries_flag_parses_a_count() {
    assert_eq!(parse(&[]).unwrap().retries, 0);
    assert_eq!(parse(&["--retries", "3"]).unwrap().retries, 3);
    assert_eq!(parse(&["--retries", "0"]).unwrap().retries, 0);
    for bad in [
        &["--retries"][..],
        &["--retries", "some"],
        &["--retries", "-1"],
    ] {
        let err = parse(bad).unwrap_err();
        assert_eq!(
            err.message.as_deref(),
            Some("--retries needs a number"),
            "args {bad:?}"
        );
    }
}

#[test]
fn timeout_flag_requires_a_positive_duration() {
    assert_eq!(parse(&[]).unwrap().timeout_secs, None);
    assert_eq!(
        parse(&["--timeout-secs", "2.5"]).unwrap().timeout_secs,
        Some(2.5)
    );
    for bad in [
        &["--timeout-secs"][..],
        &["--timeout-secs", "0"],
        &["--timeout-secs", "-1"],
        &["--timeout-secs", "inf"],
        &["--timeout-secs", "1e300"],
        &["--timeout-secs", "18446744073709551616"],
        &["--timeout-secs", "soon"],
    ] {
        let err = parse(bad).unwrap_err();
        assert_eq!(
            err.message.as_deref(),
            Some("--timeout-secs needs a positive number"),
            "args {bad:?}"
        );
    }
}

#[test]
fn checkpoint_and_resume_are_unknown_flags() {
    // The result store (`--cache DIR`) is the one resume path.
    for flag in ["--checkpoint", "--resume"] {
        let err = parse(&[flag, "j.jsonl"]).unwrap_err();
        assert_eq!(err.message, Some(format!("unknown flag {flag}")));
    }
}

#[test]
fn cache_flag_takes_a_directory() {
    assert_eq!(parse(&[]).unwrap().cache, None);
    let cli = parse(&["--cache", "results/store"]).unwrap();
    assert_eq!(cli.cache, Some(PathBuf::from("results/store")));
    let err = parse(&["--cache"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--cache needs a directory"));
}

#[test]
fn policy_reflects_retry_and_timeout_flags() {
    let cli = parse(&["--retries", "2", "--timeout-secs", "1.5"]).unwrap();
    let policy = cli.policy();
    assert_eq!(policy.retries, 2);
    assert_eq!(policy.timeout, Some(std::time::Duration::from_millis(1500)));
    let none = parse(&[]).unwrap().policy();
    assert_eq!(none.retries, 0);
    assert_eq!(none.timeout, None);
}

#[test]
fn help_returns_usage_with_no_error_message() {
    for flag in ["--help", "-h"] {
        let err = parse(&[flag]).unwrap_err();
        assert_eq!(err.message, None, "{flag} is not an error");
        assert!(err.usage.starts_with("usage: testtool "));
        // Display of a --help error is the bare usage text.
        assert_eq!(format!("{err}"), err.usage);
    }
}

#[test]
fn unknown_flag_is_an_error_naming_the_flag() {
    let err = parse(&["--bogus"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("unknown flag --bogus"));
    // Display of a real error carries both the message and the usage.
    let shown = format!("{err}");
    assert!(shown.starts_with("error: unknown flag --bogus\n"));
    assert!(shown.contains("usage: testtool "));
}

#[test]
fn usage_names_the_actual_tool_everywhere() {
    let err = Cli::parse_from("paper_run", ["--help".to_string()].into_iter()).unwrap_err();
    assert!(err.usage.starts_with("usage: paper_run "));
    // The default artifact path in the help text names the tool too.
    assert!(
        err.usage.contains("results/paper_run[_small].<ext>"),
        "usage should show the tool's own default artifact path:\n{}",
        err.usage
    );
    // Every documented flag appears in the usage text.
    for flag in [
        "--paper",
        "--small",
        "--procs",
        "--apps",
        "--jobs",
        "--format",
        "--out",
        "--emit-manifest",
        "--retries",
        "--timeout-secs",
        "--cache",
    ] {
        assert!(err.usage.contains(flag), "usage missing {flag}");
    }
    for gone in ["--checkpoint", "--resume"] {
        assert!(!err.usage.contains(gone), "usage still lists {gone}");
    }
}

#[test]
fn flags_combine_in_any_order() {
    let cli = parse(&[
        "--small",
        "--jobs",
        "2",
        "--apps",
        "mp3d",
        "--format",
        "csv",
        "--procs",
        "8",
        "--out",
        "x.csv",
        "--emit-manifest",
    ])
    .unwrap();
    assert_eq!(cli.size, ProblemSize::Small);
    assert_eq!(cli.jobs, 2);
    assert_eq!(cli.apps, Some(vec!["mp3d".to_string()]));
    assert_eq!(cli.format, Format::Csv);
    assert_eq!(cli.procs, 8);
    assert_eq!(cli.out, Some(PathBuf::from("x.csv")));
    assert!(cli.emit_manifest);
}

#[test]
fn sample_flag_parses_every_strategy_and_rejects_unknown_modes() {
    use simcore::sample::SampleMode;
    assert_eq!(parse(&[]).unwrap().sample, None);
    assert_eq!(parse(&[]).unwrap().sample_spec(), None);
    for (name, mode) in [
        ("periodic", SampleMode::Periodic),
        ("reservoir", SampleMode::Reservoir),
        ("phase", SampleMode::PhaseDetect),
    ] {
        let cli = parse(&["--sample", name]).unwrap();
        assert_eq!(cli.sample, Some(mode));
        let spec = cli.sample_spec().expect("--sample implies a spec");
        assert_eq!(spec.mode, mode);
        assert_eq!(spec.rate, simcore::sample::DEFAULT_RATE);
        assert_eq!(spec.warmup_ops, simcore::sample::DEFAULT_WARMUP_OPS);
    }
    let err = parse(&["--sample"]).unwrap_err();
    assert_eq!(
        err.message.as_deref(),
        Some("--sample needs periodic|reservoir|phase")
    );
    // Unknown modes surface the typed SampleError, naming the input.
    let err = parse(&["--sample", "stratified"]).unwrap_err();
    assert_eq!(
        err.message.as_deref(),
        Some("unknown sampling mode `stratified` (periodic|reservoir|phase)")
    );
}

#[test]
fn sample_rate_must_be_a_number_in_unit_interval() {
    let cli = parse(&["--sample", "periodic", "--sample-rate", "0.5"]).unwrap();
    assert_eq!(cli.sample_rate, Some(0.5));
    assert_eq!(cli.sample_spec().unwrap().rate, 0.5);
    // Rate 1.0 is legal (degenerates to the full replay)...
    assert!(parse(&["--sample", "periodic", "--sample-rate", "1.0"]).is_ok());
    // ...but 0, negatives, >1, and non-numbers are typed errors.
    for bad in ["0", "0.0", "-0.25", "1.5", "2"] {
        let err = parse(&["--sample", "periodic", "--sample-rate", bad]).unwrap_err();
        let msg = err.message.unwrap();
        assert!(
            msg.contains("not in (0, 1]"),
            "rate {bad}: wrong error {msg}"
        );
    }
    let err = parse(&["--sample", "periodic", "--sample-rate", "fast"]).unwrap_err();
    assert_eq!(
        err.message.as_deref(),
        Some("--sample-rate needs a number in (0, 1]")
    );
}

#[test]
fn warmup_ops_parses_a_count() {
    let cli = parse(&["--sample", "phase", "--warmup-ops", "4096"]).unwrap();
    assert_eq!(cli.warmup_ops, Some(4096));
    assert_eq!(cli.sample_spec().unwrap().warmup_ops, 4096);
    let err = parse(&["--sample", "phase", "--warmup-ops", "-3"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--warmup-ops needs a number"));
}

#[test]
fn sampling_tuning_flags_require_a_sampling_context() {
    let err = parse(&["--sample-rate", "0.5"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--sample-rate needs --sample"));
    let err = parse(&["--warmup-ops", "128"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--warmup-ops needs --sample"));
    // --validate-sampling sweeps every strategy itself, so it lifts
    // the --sample requirement for the tuning flags.
    let cli = parse(&[
        "--validate-sampling",
        "--sample-rate",
        "0.5",
        "--warmup-ops",
        "64",
    ])
    .unwrap();
    assert!(cli.validate_sampling);
    assert_eq!(cli.sample_rate, Some(0.5));
    assert_eq!(cli.warmup_ops, Some(64));
    assert_eq!(
        cli.sample_spec(),
        None,
        "validation alone is not a sampled run"
    );
}

#[test]
fn usage_lists_the_sampling_flags() {
    let usage = parse(&["--help"]).unwrap_err().usage;
    for needle in [
        "--sample periodic|reservoir|phase",
        "--sample-rate R",
        "--warmup-ops K",
        "--validate-sampling",
    ] {
        assert!(usage.contains(needle), "usage missing {needle}: {usage}");
    }
}

#[test]
fn figure_flag_selects_a_regenerator_by_id() {
    assert_eq!(parse(&[]).unwrap().figure, None);
    let cli = parse(&["--figure", "fig2_infinite", "--small", "--procs", "8"]).unwrap();
    assert_eq!(cli.figure, Some("fig2_infinite"));
    // The capacity figures run through the study, so they take the
    // study flags.
    let cli = parse(&[
        "--figure",
        "fig5_mp3d",
        "--cache",
        "d",
        "--retries",
        "1",
        "--timeout-secs",
        "2",
    ])
    .unwrap();
    assert_eq!(cli.figure, Some("fig5_mp3d"));
    assert_eq!(cli.cache, Some(PathBuf::from("d")));
    assert_eq!((cli.retries, cli.timeout_secs), (1, Some(2.0)));
    let err = parse(&["--figure"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("--figure needs an id"));
}

#[test]
fn figure_flag_rejects_an_unknown_id_listing_the_valid_ones() {
    let err = parse(&["--figure", "nope"]).unwrap_err();
    let msg = err.message.unwrap();
    assert!(msg.starts_with("unknown figure `nope`"), "{msg}");
    for id in ["fig2_infinite", "fig8_volrend", "table7_inf", "wscheck"] {
        assert!(msg.contains(id), "message misses {id}: {msg}");
    }
}

/// Asserts `--figure id` plus `extra` is rejected naming `extra[0]`,
/// in either flag order.
fn assert_rejected(id: &str, extra: &[&str]) {
    let mut args = vec!["--figure", id];
    args.extend_from_slice(extra);
    let err = parse(&args).unwrap_err();
    assert_eq!(
        err.message,
        Some(format!("--figure cannot be combined with {}", extra[0])),
        "args {args:?}"
    );
    args.rotate_left(2);
    assert!(parse(&args).is_err(), "args {args:?}");
}

#[test]
fn figure_flag_rejects_the_flags_no_figure_reads() {
    for id in ["fig2_infinite", "fig5_mp3d"] {
        for extra in [
            &["--sample", "periodic"][..],
            &["--sample-rate", "0.5"],
            &["--warmup-ops", "64"],
            &["--validate-sampling"],
        ] {
            assert_rejected(id, extra);
        }
    }
}

#[test]
fn study_flags_are_rejected_for_every_plain_figure() {
    for extra in [
        &["--cache", "d"][..],
        &["--retries", "1"],
        &["--retries", "0"],
        &["--timeout-secs", "2"],
    ] {
        for id in [
            "fig2_infinite",
            "fig3_ocean_small",
            "table4_conflicts",
            "wscheck",
        ] {
            assert_rejected(id, extra);
        }
        for id in ["fig4_raytrace", "fig6_barnes", "fig7_fmm", "fig8_volrend"] {
            let mut args = vec!["--figure", id];
            args.extend_from_slice(extra);
            assert!(parse(&args).is_ok(), "args {args:?}");
        }
    }
}

#[test]
fn usage_lists_the_figure_ids_and_no_serve_client() {
    let usage = parse(&["--help"]).unwrap_err().usage;
    assert!(usage.contains("[--figure ID]"), "{usage}");
    for id in ["fig2_infinite", "table4_conflicts", "ablation_line"] {
        assert!(usage.contains(id), "usage missing {id}: {usage}");
    }
    assert!(!usage.contains("--serve"), "{usage}");
    let err = parse(&["--serve", "127.0.0.1:1"]).unwrap_err();
    assert_eq!(err.message.as_deref(), Some("unknown flag --serve"));
}
