//! Bench-regression gate: compare two directories of criterion-shim JSON reports.
//!
//! ```text
//! bench_compare <baseline_dir> <fresh_dir> [--tolerance 0.25]
//! ```
//!
//! Every `BENCH_*.json` in the baseline directory must exist in the fresh
//! directory, and every benchmark id in it must not be slower than
//! `mean_secs * (1 + tolerance)`. Exit code 1 on any regression or missing id, 0
//! otherwise; a directory or report that cannot be read is a usage error. The
//! committed baseline lives in `benchmarks/baseline/` and was captured with the
//! same pinned-seed fixtures the benches use
//! (`BENCH_JSON_DIR=... cargo bench -p atlas-bench`), so a comparison is
//! apples-to-apples on any machine as long as both sides ran on that machine.
//! When a regression does fire on a campaign, `trace_query diff` over the two
//! runs' saved event logs says which phases, accessions and instances moved.
//!
//! Reports (`{"group":...,"results":[{"id","mean_secs","iters","throughput_per_sec"}]}`)
//! are read with `telemetry::json::parse`, the parser `trace_query` reads event
//! logs with.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use telemetry::JsonValue;

/// One benchmark entry: `(id, mean_secs)`.
type Entry = (String, f64);

const USAGE: &str = "\
usage: bench_compare <baseline_dir> <fresh_dir> [--tolerance 0.25]
       bench_compare --help

every BENCH_*.json in <baseline_dir> must exist in <fresh_dir> and no
benchmark id may be slower than mean*(1+tolerance)";

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Compare the two directories named by `args`. `Err` is a usage error: bad
/// arguments, or input that cannot be read as a directory of reports.
fn run(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut tolerance = 0.25f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("bench_compare: criterion-shim bench-regression gate");
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            "--tolerance" => {
                let v = args.next().unwrap_or_default();
                tolerance = match v.parse::<f64>() {
                    Ok(t) if t.is_finite() && t >= 0.0 => t,
                    _ => return Err(format!("bad --tolerance value {v:?}")),
                };
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            _ => positional.push(PathBuf::from(a)),
        }
    }
    let [baseline, fresh] = positional.as_slice() else {
        return Err("expected <baseline_dir> <fresh_dir>".into());
    };

    let mut reports: Vec<PathBuf> = std::fs::read_dir(baseline)
        .map_err(|e| format!("cannot read {}: {e}", baseline.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    reports.sort();
    if reports.is_empty() {
        return Err(format!("no BENCH_*.json reports in {}", baseline.display()));
    }

    let mut failures = 0usize;
    let mut table = String::new();
    for base_path in &reports {
        let fresh_path = fresh.join(base_path.file_name().unwrap_or_default());
        let (group, base_entries) = load_report(base_path)?;
        let (_, fresh_entries) =
            load_report(&fresh_path).map_err(|e| format!("{e} (bench not re-run?)"))?;
        for (id, base_mean) in &base_entries {
            let Some((_, fresh_mean)) = fresh_entries.iter().find(|(fid, _)| fid == id) else {
                eprintln!("bench_compare: {group}/{id}: missing from fresh report");
                failures += 1;
                continue;
            };
            let ratio = fresh_mean / base_mean;
            let verdict = if *fresh_mean > base_mean * (1.0 + tolerance) {
                failures += 1;
                "REGRESSION"
            } else if ratio < 1.0 {
                "faster"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{group}/{id}: {base_mean:.6}s -> {fresh_mean:.6}s ({ratio:.2}x base) {verdict}"
            );
        }
    }
    print!("{table}");
    let percent = tolerance * 100.0;
    if failures > 0 {
        eprintln!("bench_compare: {failures} regression(s)/missing entry(ies) beyond {percent:.0}% tolerance");
        Ok(ExitCode::FAILURE)
    } else {
        println!("bench_compare: all benchmarks within {percent:.0}% of baseline");
        Ok(ExitCode::SUCCESS)
    }
}

/// Read one criterion-shim report; errors carry the path.
fn load_report(path: &Path) -> Result<(String, Vec<Entry>), String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_report(&text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `{"group":"...","results":[{"id":"...","mean_secs":...},...]}` → `(group, entries)`.
fn parse_report(text: &str) -> Result<(String, Vec<Entry>), String> {
    let doc = telemetry::json::parse(text).map_err(|e| e.to_string())?;
    let group = doc.get("group").and_then(JsonValue::as_str).ok_or("no \"group\" string")?;
    let Some(JsonValue::Arr(results)) = doc.get("results") else {
        return Err("no \"results\" array".into());
    };
    let mut entries = Vec::with_capacity(results.len());
    for result in results {
        let id = result.get("id").and_then(JsonValue::as_str).ok_or("result without id")?;
        // The parser already refused a literal past f64's range.
        match result.get("mean_secs").and_then(JsonValue::as_f64) {
            Some(mean) if mean >= 0.0 => entries.push((id.to_string(), mean)),
            Some(mean) => return Err(format!("{id}: bad mean_secs {mean}")),
            None => return Err(format!("{id}: no mean_secs number")),
        }
    }
    if entries.is_empty() {
        return Err("no results".into());
    }
    Ok((group.to_string(), entries))
}
