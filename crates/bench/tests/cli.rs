//! `experiments` and `trace_query` on input they cannot use: every case exits
//! non-zero with the reason and the usage text on stderr, and none panics.

use std::path::{Path, PathBuf};
use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn trace_query() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace_query"))
}

/// A scratch directory of this test process, emptied first.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atlas-bench-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `binary` with `args`; it must fail as a usage error: exit code `code`, and
/// on stderr `reason`, the `usage` line and no panic. Returns its stdout.
fn assert_usage_error_of(mut binary: Command, code: i32, usage: &str, args: &[&str], reason: &str) -> Vec<u8> {
    let out = binary.args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: expected {reason:?} in: {stderr}");
    assert!(stderr.contains(usage), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    out.stdout
}

fn s(path: &Path) -> &str {
    path.to_str().unwrap()
}

#[test]
fn experiments_on_bad_usage_exits_2_before_running_anything() {
    let usage = "usage: experiments [--scale test|paper] <fig3|";
    // Every argument is checked before the first experiment starts: `fig3` ahead of
    // a bad word prints no banner (at paper scale it would run for minutes).
    let fails = |args: &[&str], reason: &str| {
        let stdout = assert_usage_error_of(experiments(), 2, usage, args, reason);
        assert!(stdout.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&stdout));
    };
    fails(&["fig3", "frobnicate"], "unknown experiment \"frobnicate\"");
    fails(&["--scale", "huge", "fig3"], "unknown scale \"huge\"; use test|paper");
    fails(&["--scale", ""], "unknown scale \"\"");
    fails(&["fig3", "--scale"], "--scale needs a value");

    let help = experiments().arg("--help").output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&help.stdout);
    assert_eq!(help.status.code(), Some(0), "{help:?}");
    assert!(stdout.starts_with(usage) && help.stderr.is_empty(), "{help:?}");
}

#[test]
fn trace_query_on_unusable_input_is_a_usage_error_not_a_panic() {
    let dir = scratch_dir("trace-query");
    let log = dir.join("log.ndjson");
    std::fs::write(&log, "{\"t\":1,\"kind\":\"retry\"}\n{\"t\":2.5,\"kind\":\"retry\"}\n").unwrap();
    let ok = trace_query().args(["query", s(&log), "--until", "inf"]).output().unwrap();
    assert!(ok.status.success(), "premise: a two-line log queries clean");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("2 matched of 2 events"), "{ok:?}");

    let fails = |args: &[&str], reason: &str| {
        assert_usage_error_of(trace_query(), 1, "usage: trace_query query <log.ndjson>", args, reason);
    };
    fails(&[], "missing subcommand");
    fails(&["frobnicate"], "unknown subcommand \"frobnicate\"");
    fails(&["query"], "query needs a <log.ndjson> path");
    fails(&["query", "--json"], "query needs a <log.ndjson> path");
    fails(&["diff", s(&log)], "diff needs <logA.ndjson> <logB.ndjson>");

    let missing = dir.join("no-such-log.ndjson");
    fails(&["query", s(&missing)], "no-such-log.ndjson: ");
    fails(&["diff", s(&log), s(&missing)], "no-such-log.ndjson: ");
    fails(&["query", s(&dir)], &format!("{}: ", s(&dir)));
    let binary = dir.join("binary.ndjson");
    std::fs::write(&binary, b"{\"t\":1,\"kind\":\"\xff\xfe\"}\n").unwrap();
    fails(&["query", s(&binary)], "valid UTF-8");
    fails(&["diff", s(&binary), s(&log)], "valid UTF-8");
    // A malformed line is named by its number, in both subcommands.
    let torn = dir.join("torn.ndjson");
    std::fs::write(&torn, "{\"t\":1,\"kind\":\"retry\"}\n\n{\"t\":2,\"kind\":\"ret").unwrap();
    fails(&["query", s(&torn)], "torn.ndjson: line 3: ");
    fails(&["diff", s(&log), s(&torn)], "line 3");
    let untimed = dir.join("untimed.ndjson");
    std::fs::write(&untimed, "{\"kind\":\"retry\"}\n").unwrap();
    fails(&["query", s(&untimed)], "line 1: event without numeric \"t\"");

    for agg in ["median:wait_secs", "sum:", "sum", ""] {
        fails(&["query", s(&log), "--agg", agg], "aggregate");
    }
    for flag in ["--kind", "--where", "--since", "--until", "--group-by", "--agg"] {
        fails(&["query", s(&log), flag], &format!("{flag} needs a value"));
    }
    fails(&["query", s(&log), "--where", "nokey"], "expected field=value");
    fails(&["query", s(&log), "--frobnicate"], "unknown query argument \"--frobnicate\"");
    // NaN compares false with everything: as a bound it would switch the filter off.
    for (flag, value) in [("--since", "nan"), ("--until", "NaN"), ("--since", "soon"), ("--until", "")] {
        fails(&["query", s(&log), flag, value], &format!("bad {flag} value {value:?}"));
    }

    let _ = std::fs::remove_dir_all(dir);
}
