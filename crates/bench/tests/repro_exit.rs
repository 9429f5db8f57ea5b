//! `repro` reports a failed artifact through its exit status, not only
//! on stderr: scripts that diff its stdout must not mistake a partial
//! run for a good one.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A fresh working directory where `repro_out` is a plain file, so every
/// artifact that writes under it fails.
fn blocked_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-exit-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("repro_out"), "not a directory\n").unwrap();
    dir
}

fn repro(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn a_failed_artifact_makes_repro_exit_non_zero() {
    for (name, args) in [("fig4", &["--csv", "fig4"][..]), ("trace", &["trace"][..])] {
        let dir = blocked_dir(name);
        let out = repro(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "repro {args:?}: {stderr}");
        assert!(stderr.contains("[ERROR repro]"), "repro {args:?}: {stderr}");
        // The artifact still printed its table before the write failed.
        assert!(!out.stdout.is_empty(), "repro {args:?}");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn an_artifact_that_writes_nothing_still_succeeds() {
    let dir = blocked_dir("plain");
    let out = repro(&dir, &["fig4"]);
    assert!(out.status.success(), "{out:?}");
    fs::remove_dir_all(&dir).unwrap();
}
