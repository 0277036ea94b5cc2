//! `cluster_check certify` end to end: the overhead ratio must be
//! measured on a machine the requested processor count can build, so
//! a small `--procs` certifies instead of timing two failed replays.

use simcore::Json;

#[test]
fn certify_at_two_procs_times_a_buildable_machine() {
    let out_path = std::env::temp_dir().join(format!("certify-2p-{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster_check"))
        .args(["certify", "--procs", "2", "--out"])
        .arg(&out_path)
        .output()
        .expect("run cluster_check");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout: {stdout}");
    let text = std::fs::read_to_string(&out_path).expect("certify manifest");
    std::fs::remove_file(&out_path).ok();
    let manifest = simcore::json::parse(&text).expect("manifest parses");
    let cert = manifest.get("certification").expect("certification");
    let ratio = cert
        .get("overhead_ratio")
        .and_then(Json::as_f64)
        .expect("overhead_ratio is a number");
    assert!(ratio.is_finite() && ratio > 0.0, "overhead_ratio {ratio}");
    assert_eq!(
        cert.get("order_certified").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        manifest
            .get("runs")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(36)
    );
}
