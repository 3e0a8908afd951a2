//! `cloud_atlas` on a command line it cannot use: each case exits 2 with the reason
//! and the usage on stderr, prints nothing on stdout (the campaign never starts)
//! and does not panic.

use std::process::Command;

const USAGE: &str = "usage: cloud_atlas [--trace-out <path>]";

fn assert_usage_error(args: &[&str], reason: &str) {
    let binary = env!("CARGO_BIN_EXE_cloud_atlas");
    let out = Command::new(binary).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: expected {reason:?} in: {stderr}");
    assert!(stderr.contains(USAGE), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn cloud_atlas_on_bad_usage_exits_2_before_running_anything() {
    assert_usage_error(&["--frobnicate"], "unknown argument: --frobnicate");
    assert_usage_error(&["--seed", "abc"], "--seed needs an integer argument");
    assert_usage_error(&["--seed", "7", "--trace-out"], "--trace-out needs a file path argument");
}
