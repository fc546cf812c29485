//! Out-of-range `lifetime`, `fleet`, `generate` and `campaign` flags end
//! in a usage error: exit code 1 and the offending knob named on stderr,
//! not a panic with code 101 or a report over nothing.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A one-epoch `mlp` weight file in a directory of its own, removed on
/// drop.
struct Model {
    dir: PathBuf,
    path: String,
}

impl Model {
    fn train(test: &str) -> Model {
        let dir = std::env::temp_dir().join(format!("healthmon_{test}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mlp.json").to_str().expect("temp path is UTF-8").to_owned();
        let out = Command::new(env!("CARGO_BIN_EXE_healthmon"))
            .args(["train", "--arch", "mlp", "--epochs", "1", "--train-size", "200"])
            .args(["--seed", "7", "--quiet", "true", "--out", &path])
            .output()
            .expect("spawn healthmon");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        Model { dir, path }
    }
}

impl Drop for Model {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs `healthmon args` and checks it is a usage error naming `message`.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_healthmon"))
        .args(args)
        .output()
        .expect("spawn healthmon");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("error: {message}")), "{args:?}: {stderr}");
}

fn lifetime(test: &str, flags: &[&str], message: &str) {
    let model = Model::train(test);
    let mut args = vec!["lifetime", "--arch", "mlp", "--model", &model.path];
    args.extend_from_slice(flags);
    assert_usage_error(&args, message);
}

fn fleet(flags: &[&str], message: &str) {
    let mut args = vec!["fleet", "--devices", "4"];
    args.extend_from_slice(flags);
    assert_usage_error(&args, message);
}

#[test]
fn lifetime_rejects_zero_epochs() {
    lifetime("lifetime_epochs", &["--epochs", "0"], "a lifetime needs at least one epoch");
}

#[test]
fn lifetime_rejects_inverted_thresholds() {
    lifetime(
        "lifetime_thresholds",
        &["--watch", "0.1", "--critical", "0.05"],
        "thresholds must satisfy 0 < watch (0.1) < critical (0.05) < inf",
    );
}

#[test]
fn lifetime_rejects_a_pattern_count_below_the_floor() {
    lifetime(
        "lifetime_count",
        &["--count", "1"],
        "pattern set (1) smaller than the degradation floor (2)",
    );
}

#[test]
fn lifetime_rejects_a_soft_error_probability_above_one() {
    lifetime("lifetime_soft", &["--soft", "2"], "soft_error_p 2 outside [0, 1]");
}

#[test]
fn fleet_rejects_zero_epochs() {
    fleet(&["--epochs", "0"], "a lifetime needs at least one epoch");
}

#[test]
fn fleet_rejects_a_soft_error_probability_above_one() {
    fleet(&["--soft", "2"], "soft_error_p 2 outside [0, 1]");
}

#[test]
fn fleet_rejects_negative_drift() {
    fleet(&["--drift", "-1"], "drift_nu must be finite and non-negative, got -1");
}

#[test]
fn hardened_campaign_rejects_inverted_thresholds() {
    let model = Model::train("hardened_campaign");
    let path = model.path.as_str();
    assert_usage_error(
        &[
            "campaign", "--hardened", "true", "--arch", "mlp", "--model", path,
            "--hardened-model", path, "--fault", "pv:0.3", "--watch", "0.1", "--critical", "0.01",
        ],
        "thresholds must satisfy 0 < watch (0.1) < critical (0.01) < inf",
    );
}

#[test]
fn generate_rejects_a_zero_count() {
    let model = Model::train("generate_count");
    for method in ["ctp", "otp", "aet"] {
        let out = model.dir.join(format!("{method}.json"));
        let out = out.to_str().expect("temp path is UTF-8");
        assert_usage_error(
            &[
                "generate", "--arch", "mlp", "--model", &model.path, "--method", method,
                "--count", "0", "--out", out,
            ],
            "--count must be at least 1",
        );
        assert!(!Path::new(out).exists(), "{method}: wrote {out}");
    }
}

#[test]
fn campaign_rejects_a_zero_count() {
    let model = Model::train("campaign_count");
    assert_usage_error(
        &["campaign", "--arch", "mlp", "--model", &model.path, "--fault", "pv:0.3", "--count", "0"],
        "--count must be at least 1",
    );
}

#[test]
fn hardened_campaign_rejects_a_zero_count() {
    let model = Model::train("hardened_campaign_count");
    let path = model.path.as_str();
    assert_usage_error(
        &[
            "campaign", "--hardened", "true", "--arch", "mlp", "--model", path,
            "--hardened-model", path, "--fault", "pv:0.3", "--count", "0",
        ],
        "--count must be at least 1",
    );
}
