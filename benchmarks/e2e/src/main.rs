//! `atlas-e2e`: the repository's benchmark. See README.md beside this crate for
//! the metrics, the workloads and how to read the output.
//!
//! ```text
//! atlas-e2e [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--repeat <n>]
//! atlas-e2e --emit-benchmark-json
//! ```
//!
//! With `--workload` the workload runs in this process. Without it every
//! workload runs in a child process of its own, so one workload's allocator
//! state and peak memory never reach the next; `--repeat n` does that n times in
//! alternating order and fails when two runs of a workload disagree.

mod fleet;
mod host;
mod pipeline;
mod report;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::Report;
use trace::Tracer;

/// What a workload needs to know about the run.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
}

/// SplitMix64 over `seed` and a stream number: every seeded input of a run (the
/// catalog, accession ids, the modeled workload, the spot market, the fault
/// plan) draws from its own stream of the one `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xa076_1d64_78bd_642f))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !spec::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                cli.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
                    return Err(format!("--seconds {v} outside (0, 60]"));
                }
            }
            "--repeat" => {
                let v = value("--repeat")?;
                cli.repeat = v.parse().map_err(|_| format!("bad --repeat {v:?}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // `--trace` alone turns tracing on; the driver spells it `--trace 0|1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    cli.trace = false;
                }
                Some("1") => {
                    it.next();
                    cli.trace = true;
                }
                _ => cli.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Where the trace and the full result of a run go.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

fn host_json(cli: &Cli) -> String {
    format!(
        "{{\"nproc\": {}, \"threads\": {}, \"host.llc_bytes\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        host::nproc(),
        host::threads(),
        host::llc_bytes(),
        host::rustc_version(),
        host::git_commit(),
        cli.seed,
        cli.seconds,
        cli.trace
    )
}

/// Run one workload in this process and print its result line last.
fn run_workload(name: &str, cli: &Cli) -> ExitCode {
    println!(
        "atlas-e2e workload={name} seed={} seconds={} trace={} threads={} nproc={}",
        cli.seed,
        cli.seconds,
        cli.trace as u8,
        host::threads(),
        host::nproc()
    );
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
    };
    let mut report = Report::default();
    let mut tracer = Tracer::new(cli.trace);
    if let Some(spec) = pipeline::spec(name) {
        pipeline::run(&spec, &args, &mut report, &mut tracer);
    } else if let Some(spec) = fleet::spec(name) {
        fleet::run(&spec, &args, &mut report, &mut tracer);
    } else {
        unreachable!("parse_cli admits only names in spec::WORKLOADS");
    }
    if !cli.trace {
        for m in spec::END_TO_END {
            let value = report.get(m.name);
            report.check(value.is_some_and(|v| v != 0.0), || {
                format!("end-to-end metric {} is {value:?}", m.name)
            });
        }
    }

    print!("{}", report.metric_lines(cli.trace));
    if cli.trace {
        println!("self seconds by span name (a span's time minus its children's):");
        for (name, secs) in tracer.self_s_by_name() {
            println!("  {name:<32} {secs:.6}");
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac}  ({} of {} operations and checks)",
        report.failed, report.attempted
    );

    let dir = out_dir();
    let result_line = report.result_line(cli.trace);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        if cli.trace {
            std::fs::write(dir.join(format!("trace_{name}.ndjson")), tracer.to_ndjson())?;
        }
        let failures: Vec<String> = report.failures.iter().map(|f| format!("{f:?}")).collect();
        let full = format!(
            "{{\"workload\": \"{name}\", \"host\": {}, \"result\": {result_line}, \"raw\": {}, \"failures\": [{}]}}\n",
            host_json(cli),
            report.raw_json(),
            failures.join(", ")
        );
        std::fs::write(result_path(name, cli.trace), full)
    });
    if let Err(e) = written {
        eprintln!("could not write under {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!("{result_line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `metric <name> <value> <unit>` lines of a child's output.
fn parse_metric_lines(stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("metric")).then_some(())?;
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

/// The result file a run of `name` leaves behind.
fn result_path(name: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "result_{name}{}.json",
        if trace { "_trace" } else { "" }
    ))
}

/// Run `name` in a child process, echo its output, return its end-to-end
/// metrics; `None` when it failed.
fn run_child(name: &str, cli: &Cli) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("own executable path");
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &cli.seed.to_string()])
        .args([
            "--seconds",
            &cli.seconds.to_string(),
            "--trace",
            if cli.trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("child process starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    output.status.success().then(|| parse_metric_lines(&stdout))
}

/// Disagreements between two runs of one workload on one commit.
fn disagreements(
    workload: &str,
    a: &BTreeMap<String, f64>,
    b: &BTreeMap<String, f64>,
) -> Vec<String> {
    let mut out = Vec::new();
    for m in spec::END_TO_END {
        let (Some(&x), Some(&y)) = (a.get(m.name), b.get(m.name)) else {
            out.push(format!("{workload}: {} missing from a run", m.name));
            continue;
        };
        let bound = if m.exact { 0.0 } else { m.bound };
        if !stats::agree_within(bound, x, y) {
            out.push(format!(
                "{workload}: {} read {x} then {y}, allowed {bound}",
                m.name
            ));
        }
    }
    out
}

/// Every workload, each in its own process, `repeat` times in alternating order.
fn run_all(cli: &Cli) -> ExitCode {
    let mut runs: BTreeMap<&str, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    let mut result_files = Vec::new();
    let mut ok = true;
    for round in 0..cli.repeat {
        let mut order: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for name in order {
            match run_child(name, cli) {
                Some(metrics) => {
                    runs.entry(name).or_default().push(metrics);
                    // The next run of this workload overwrites its result file.
                    if let Ok(result) = std::fs::read_to_string(result_path(name, cli.trace)) {
                        result_files.push(result.trim_end().to_string());
                    }
                }
                None => {
                    eprintln!("FAILED: workload {name} did not pass");
                    ok = false;
                }
            }
        }
    }
    let all = format!("[\n{}\n]\n", result_files.join(",\n"));
    if let Err(e) = std::fs::write(out_dir().join("runs.json"), all) {
        eprintln!("could not write runs.json: {e}");
        ok = false;
    }
    if cli.repeat > 1 && !cli.trace {
        for (name, metrics) in &runs {
            for later in &metrics[1..] {
                for d in disagreements(name, &metrics[0], later) {
                    eprintln!("FAILED: {d}");
                    ok = false;
                }
            }
        }
        println!(
            "repeat check: {}",
            if ok {
                "every run agrees within its bounds"
            } else {
                "FAILED"
            }
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: atlas-e2e [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--repeat <n>]\n\
         \x20      atlas-e2e --emit-benchmark-json\n\
         workloads: {}\n\
         seeds: {} by default; check a claimed gain on {} too",
        names.join(", "),
        spec::DEFAULT_SEED,
        spec::HELD_OUT_SEED
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--emit-benchmark-json"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("atlas-e2e: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(name) => run_workload(name, &cli),
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse_cli(&args(&[
            "--workload",
            "fleet_300k",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("fleet_300k"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.repeat),
            (7, 3.0, false, 1)
        );
        assert!(parse_cli(&args(&["--trace", "1"])).unwrap().trace);
        assert!(parse_cli(&args(&["--trace", "--seed", "1"])).unwrap().trace);
        assert!(parse_cli(&args(&["--trace"])).unwrap().trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--repeat", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn seed_streams_differ_and_repeat() {
        assert_eq!(derive_seed(2024, 1), derive_seed(2024, 1));
        assert_ne!(derive_seed(2024, 1), derive_seed(2024, 2));
        assert_ne!(derive_seed(2024, 1), derive_seed(7919, 1));
    }

    #[test]
    fn metric_lines_round_trip_exactly() {
        let mut r = Report::default();
        r.set("sim_cost_usd", 0.1 + 0.2);
        r.set_median("setup_s", vec![1.25, 1.5, 1.75]);
        let parsed = parse_metric_lines(&format!("noise\n{}", r.metric_lines(false)));
        assert_eq!(parsed["sim_cost_usd"].to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(parsed["setup_s"], 1.5);
        assert_eq!(parsed.len(), 2);
    }

    #[test]
    fn repeat_check_is_exact_where_the_metric_is() {
        let run = |cost: f64, rate: f64| -> BTreeMap<String, f64> {
            spec::END_TO_END
                .iter()
                .map(|m| {
                    let v = match m.name {
                        "sim_cost_usd" => cost,
                        "accessions_per_s" => rate,
                        _ => 1.0,
                    };
                    (m.name.to_string(), v)
                })
                .collect()
        };
        assert!(disagreements("w", &run(5.0, 100.0), &run(5.0, 105.0)).is_empty());
        assert_eq!(
            disagreements("w", &run(5.0, 100.0), &run(5.0, 140.0)).len(),
            1
        );
        assert_eq!(
            disagreements("w", &run(5.0, 100.0), &run(5.000001, 100.0)).len(),
            1
        );
        let mut short = run(5.0, 100.0);
        short.remove("setup_s");
        assert_eq!(disagreements("w", &run(5.0, 100.0), &short).len(), 1);
    }
}
