//! The race detector against the real SPLASH generators (DESIGN.md
//! §15): every app must come out race-free, and planted sync-removal
//! mutations must each be caught with a propcheck-shrunk minimal
//! witness.

use cluster_check::race;
use splash::mutate::{self, Mutation};
use splash::{suite, ProblemSize};

/// Every generator in the suite is race-free at the small size and 8
/// processors (the paper-size sweep is the ignored test below).
#[test]
fn all_apps_race_free_small() {
    for app in suite(ProblemSize::Small) {
        let t = app.generate(8);
        let races = race::detect(&t);
        assert!(
            races.is_empty(),
            "{}: {} race(s), first: {:?}",
            app.name(),
            races.len(),
            races.first()
        );
    }
}

/// Paper-size sweep over all nine apps at 64 processors. Slow (full
/// Table 2 problem sizes); run explicitly:
/// `cargo test -p cluster_check --test race_splash -- --ignored`.
#[test]
#[ignore = "paper problem sizes; minutes of work"]
fn all_apps_race_free_paper() {
    for app in suite(ProblemSize::Paper) {
        let t = app.generate(64);
        let races = race::detect(&t);
        assert!(
            races.is_empty(),
            "{}: {} race(s), first: {:?}",
            app.name(),
            races.len(),
            races.first()
        );
    }
}

/// Applies `m` to `app`'s small-size trace and asserts the detector
/// catches the planted race with a minimal (2–4 op) witness.
fn assert_mutation_caught(app_name: &str, m: Mutation) {
    let app = splash::by_name(app_name, ProblemSize::Small).expect("known app");
    let t = app.generate(8);
    let mutant = mutate::apply(&t, m).expect("mutation applies");
    let reports = race::analyze(&mutant);
    assert!(
        !reports.is_empty(),
        "{app_name}: planted {m:?} produced no race"
    );
    let r = &reports[0];
    assert!(
        (2..=4).contains(&r.witness.len()),
        "{app_name}: witness for {m:?} not minimal ({} ops): {:?}",
        r.witness.len(),
        r.witness
    );
    // The witness must contain both racing accesses.
    let has = |proc, kind| {
        let a = if r.first.proc == proc && r.first.kind == kind {
            &r.first
        } else {
            &r.second
        };
        r.witness.iter().any(|&(p, op)| {
            p == a.proc
                && match op {
                    simcore::Op::Read(x) => {
                        a.kind == simcore::witness::AccessKind::Read && x == a.addr
                    }
                    simcore::Op::Write(x) => {
                        a.kind == simcore::witness::AccessKind::Write && x == a.addr
                    }
                    _ => false,
                }
        })
    };
    assert!(
        has(r.first.proc, r.first.kind) && has(r.second.proc, r.second.kind),
        "{app_name}: witness {:?} missing a racing access ({:?} / {:?})",
        r.witness,
        r.first,
        r.second
    );
}

/// Planted mutation 1: ocean drops one barrier arrival — the red/black
/// ping-pong relaxation races immediately.
#[test]
fn ocean_dropped_barrier_is_caught() {
    assert_mutation_caught("ocean", Mutation::DropBarrier { proc: 0, nth: 10 });
}

/// Planted mutation 2: barnes skips a tree-lock critical section — the
/// locked tree-build accesses race with the owner's writes.
#[test]
fn barnes_skipped_lock_is_caught() {
    assert_mutation_caught("barnes", Mutation::SkipLock { proc: 0, nth: 84 });
}

/// Planted mutation 3: mp3d skips a particle-lock critical section —
/// the move's read-modify-write races a collision partner access.
#[test]
fn mp3d_skipped_lock_is_caught() {
    assert_mutation_caught("mp3d", Mutation::SkipLock { proc: 1, nth: 1 });
}

/// Planted mutation 4: fmm drops a barrier arrival in the interaction
/// phase.
#[test]
fn fmm_dropped_barrier_is_caught() {
    assert_mutation_caught("fmm", Mutation::DropBarrier { proc: 0, nth: 1 });
}

/// A trace file that fails `Trace::validate` (here processor 1 ends
/// holding its lock) is rejected with the validation message and a
/// non-zero exit, never reported race-free.
#[test]
fn race_rejects_an_invalid_trace_file() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/traces/unbalanced_lock.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster_check"))
        .arg("race")
        .arg(&fixture)
        .output()
        .expect("run cluster_check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stdout: {stdout}");
    assert!(!stdout.contains("race-free"), "stdout: {stdout}");
    assert!(
        stderr.contains("invalid trace") && stderr.contains("holding locks"),
        "stderr: {stderr}"
    );
}
