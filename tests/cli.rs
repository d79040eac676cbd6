//! End-to-end tests of the `redeye` command-line interface.

use std::process::Command;

fn redeye(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_redeye"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn estimate_prints_table_one_anchor() {
    let (ok, stdout, _) = redeye(&["estimate", "--depth", "5"]);
    assert!(ok);
    assert!(stdout.contains("Depth5"), "{stdout}");
    assert!(stdout.contains("1.4"), "Depth5 ≈ 1.4 mJ: {stdout}");
}

#[test]
fn estimate_json_is_valid() {
    let (ok, stdout, _) = redeye(&["estimate", "--depth", "3", "--snr", "50", "--json"]);
    assert!(ok);
    let v: serde_json::Value = serde_json::from_str(stdout.trim()).expect("valid JSON");
    assert_eq!(v["depth"], 3);
    assert_eq!(v["snr_db"], 50.0);
    assert!(v["analog_mj"].as_f64().unwrap() > 0.0);
}

#[test]
fn depths_lists_five_rows() {
    let (ok, stdout, _) = redeye(&["depths"]);
    assert!(ok);
    for d in 1..=5 {
        assert!(stdout.contains(&format!("Depth{d}")), "{stdout}");
    }
}

#[test]
fn systems_lists_six_scenarios() {
    let (ok, stdout, _) = redeye(&["systems"]);
    assert!(ok);
    assert_eq!(
        stdout.matches("RedEye").count(),
        3,
        "three RedEye scenarios: {stdout}"
    );
}

#[test]
fn partition_shows_cut() {
    let (ok, stdout, _) = redeye(&["partition", "--depth", "1"]);
    assert!(ok);
    assert!(stdout.contains("norm1"), "{stdout}");
    assert!(stdout.contains("inception_3a"), "{stdout}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (ok, _, stderr) = redeye(&["estimate", "--depth", "9"]);
    assert!(!ok);
    assert!(stderr.contains("--depth"), "{stderr}");
    let (ok, _, stderr) = redeye(&["estimate", "--bits", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--bits"), "{stderr}");
    // A value flag given bare is not silently defaulted.
    let (ok, _, stderr) = redeye(&["estimate", "--snr", "--depth", "3"]);
    assert!(!ok);
    assert!(stderr.contains("--snr"), "{stderr}");
    // A non-finite SNR is an error, not a NaN table.
    let (ok, stdout, stderr) = redeye(&["estimate", "--snr", "nan"]);
    assert!(!ok && stdout.is_empty());
    assert!(stderr.contains("snr"), "{stderr}");
    // An SNR the verifier refuses (RE0301) is refused here too.
    let (ok, stdout, stderr) = redeye(&["estimate", "--snr", "150", "--depth", "1"]);
    assert!(!ok && stdout.is_empty());
    assert!(stderr.contains("--snr"), "{stderr}");
    // A misspelled or foreign flag is an error naming the accepted ones,
    // not a silent default.
    let (ok, stdout, stderr) = redeye(&["estimate", "--snrr", "60", "--depth", "1"]);
    assert!(!ok && stdout.is_empty());
    assert!(
        stderr.contains("--snrr") && stderr.contains("--snr --bits"),
        "{stderr}"
    );
    let (ok, stdout, stderr) = redeye(&["systems", "--depth", "9"]);
    assert!(!ok && stdout.is_empty());
    assert!(
        stderr.contains("--depth") && stderr.contains("accepted: --snr --bits --corner"),
        "{stderr}"
    );
    let (ok, _, stderr) = redeye(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
}

#[test]
fn help_exits_zero() {
    let (ok, stdout, _) = redeye(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}
