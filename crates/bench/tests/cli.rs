//! `bench_compare` on input it cannot use: every case exits non-zero with the
//! reason and the usage text on stderr, and none panics.

use std::path::{Path, PathBuf};
use std::process::Command;

const REPORT: &str = "{\"group\":\"g\",\"results\":[{\"id\":\"a\",\"mean_secs\":0.001000000,\"iters\":10}]}\n";

fn bench_compare() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_compare"))
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

/// Run `bench_compare` with `args`; it must fail as a usage error whose reason
/// mentions `reason`.
fn assert_usage_error(args: &[&str], reason: &str) {
    let out = bench_compare().args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(reason), "{args:?}: expected {reason:?} in: {stderr}");
    assert!(stderr.contains("usage: bench_compare <baseline_dir> <fresh_dir>"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
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
