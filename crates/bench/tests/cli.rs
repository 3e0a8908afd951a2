//! `bench_compare` and `trace_query` on input they cannot use: every case exits
//! non-zero with the reason and the usage text on stderr, and none panics.

use std::path::{Path, PathBuf};
use std::process::Command;

const REPORT: &str = "{\"group\":\"g\",\"results\":[{\"id\":\"a\",\"mean_secs\":0.001000000,\"iters\":10}]}\n";

fn bench_compare() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
}

fn trace_query() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace_query"))
}

/// A scratch directory of this test process, emptied first.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-compare-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn dir_with_report(tag: &str, report: &str) -> PathBuf {
    let dir = scratch_dir(tag);
    std::fs::write(dir.join("BENCH_g.json"), report).unwrap();
    dir
}

/// Run `binary` with `args`; it must fail as a usage error: exit code 1, and on
/// stderr `reason`, the `usage` line and no panic.
fn assert_usage_error_of(mut binary: Command, usage: &str, args: &[&str], reason: &str) {
    let out = binary.args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: expected {reason:?} in: {stderr}");
    assert!(stderr.contains(usage), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

/// `bench_compare` with `args` must fail as a usage error mentioning `reason`.
fn assert_usage_error(args: &[&str], reason: &str) {
    let usage = "usage: bench_compare <baseline_dir> <fresh_dir>";
    assert_usage_error_of(bench_compare(), usage, args, reason);
}

fn s(path: &Path) -> &str {
    path.to_str().unwrap()
}

#[test]
fn unusable_input_is_a_usage_error_not_a_panic() {
    let good = dir_with_report("good", REPORT);
    let ok = bench_compare().args([s(&good), s(&good)]).output().unwrap();
    assert!(ok.status.success(), "premise: a report compares clean against itself");

    let missing = good.join("no-such-dir");
    assert_usage_error(&[s(&missing), s(&good)], "cannot read");
    let empty = scratch_dir("empty");
    assert_usage_error(&[s(&empty), s(&good)], "no BENCH_*.json reports");
    assert_usage_error(&[s(&good), s(&empty)], "bench not re-run?");
    assert_usage_error(&[s(&good)], "expected <baseline_dir> <fresh_dir>");

    let truncated = dir_with_report("truncated", &REPORT[..REPORT.len() / 2]);
    assert_usage_error(&[s(&truncated), s(&good)], "BENCH_g.json: ");
    assert_usage_error(&[s(&good), s(&truncated)], "BENCH_g.json: ");
    let overflowing = dir_with_report("overflow", &REPORT.replace("0.001000000", "1e999"));
    assert_usage_error(&[s(&overflowing), s(&good)], "number overflows f64");
    let negative = dir_with_report("negative", &REPORT.replace("0.001000000", "-1"));
    assert_usage_error(&[s(&negative), s(&good)], "bad mean_secs");
    let no_results = dir_with_report("noresults", "{\"group\":\"g\",\"results\":[]}");
    assert_usage_error(&[s(&no_results), s(&good)], "no results");

    for bad in ["nan", "inf", "-0.5", "", "2%"] {
        assert_usage_error(&[s(&good), s(&good), "--tolerance", bad], "bad --tolerance value");
    }
    // The two modes this comparator used to have are gone, not silently accepted.
    for mode in ["overhead", "attribute"] {
        let flag = format!("--{mode}");
        assert_usage_error(&[&flag, s(&good), s(&good)], &format!("unknown flag {flag:?}"));
    }

    for dir in [good, empty, truncated, overflowing, negative, no_results] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_slower_or_missing_id_fails_without_the_usage_text() {
    let base = dir_with_report("base", REPORT);
    let slower = dir_with_report("slower", &REPORT.replace("0.001000000", "0.002000000"));
    let renamed = dir_with_report("renamed", &REPORT.replace("\"a\"", "\"b\""));
    for (fresh, reason) in [(&slower, "REGRESSION"), (&renamed, "missing from fresh report")] {
        let out = bench_compare().args([s(&base), s(fresh)]).output().unwrap();
        let text = format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{text}");
        assert!(text.contains(reason) && !text.contains("usage:"), "{text}");
    }
    // Inside the tolerance it passes.
    let out = bench_compare().args([s(&base), s(&slower), "--tolerance", "1.5"]).output().unwrap();
    assert!(out.status.success());
    for dir in [base, slower, renamed] {
        let _ = std::fs::remove_dir_all(dir);
    }
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
        assert_usage_error_of(trace_query(), "usage: trace_query query <log.ndjson>", args, reason);
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
