//! A stdout or stderr whose reader has gone ends `healthmon`'s output
//! quietly: every command keeps its own exit code instead of panicking
//! with 101 on the first write.

use std::io::pipe;
use std::path::PathBuf;
use std::process::{Command, ExitStatus, Stdio};

/// The write end of a pipe whose read end is already dropped.
fn closed_pipe() -> Stdio {
    let (reader, writer) = pipe().expect("create a pipe");
    drop(reader);
    Stdio::from(writer)
}

fn healthmon(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_healthmon"));
    cmd.args(args);
    cmd
}

/// Runs with stdout closed; returns the exit status and what reached
/// stderr.
fn with_closed_stdout(args: &[&str]) -> (ExitStatus, String) {
    let out = healthmon(args).stdout(closed_pipe()).output().expect("spawn healthmon");
    (out.status, String::from_utf8_lossy(&out.stderr).into_owned())
}

/// Runs with stderr closed; returns the exit status and what reached
/// stdout.
fn with_closed_stderr(args: &[&str]) -> (ExitStatus, String) {
    let out = healthmon(args).stderr(closed_pipe()).output().expect("spawn healthmon");
    (out.status, String::from_utf8_lossy(&out.stdout).into_owned())
}

fn temp_dir_for(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("healthmon_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn closed_stdout_keeps_the_success_code() {
    for args in [&["models"][..], &["help"]] {
        let (status, stderr) = with_closed_stdout(args);
        assert_eq!(status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn closed_stderr_keeps_the_error_code() {
    let (status, stdout) = with_closed_stderr(&["frobnicate"]);
    assert_eq!(status.code(), Some(1), "{stdout}");
    let (status, stdout) = with_closed_stderr(&[
        "check", "--arch", "mlp", "--model", "missing.json", "--target", "missing.json",
        "--patterns", "missing.json",
    ]);
    assert_eq!(status.code(), Some(1), "{stdout}");
}

#[test]
fn closed_streams_keep_each_command_exit_code() {
    let dir = temp_dir_for("broken_pipe");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (model, faulty, patterns) = (path("model.json"), path("faulty.json"), path("patterns.json"));
    // Training logs its epochs to stderr through the library logger.
    let (status, stdout) = with_closed_stderr(&[
        "train", "--arch", "mlp", "--out", &model, "--epochs", "2", "--train-size", "300",
    ]);
    assert_eq!(status.code(), Some(0), "{stdout}");
    for args in [
        vec!["inject", "--arch", "mlp", "--model", &model, "--fault", "pv:0.5", "--out", &faulty],
        vec![
            "generate", "--arch", "mlp", "--model", &model, "--method", "ctp", "--out", &patterns,
            "--count", "10",
        ],
    ] {
        let status = healthmon(&args).stdout(Stdio::null()).status().unwrap();
        assert!(status.success(), "{args:?}");
    }
    // `check` exits 2 on a faulty device, closed stdout or not.
    let check = ["check", "--arch", "mlp", "--model", &model, "--patterns", &patterns, "--target"];
    let (status, stderr) = with_closed_stdout(&[&check[..], &[faulty.as_str()]].concat());
    assert_eq!(status.code(), Some(2), "{stderr}");
    let (status, stderr) = with_closed_stdout(&[&check[..], &[model.as_str()]].concat());
    assert_eq!(status.code(), Some(0), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
