//! The benchmark's contract: workloads, metrics, units, bounds. `BENCHMARK.json`
//! at the repository root is generated from these tables (`--emit-benchmark-json`)
//! and a unit test keeps the two identical.

use crate::stats::Better::{self, Higher, Lower};

/// Seconds one run measures for; the driver passes it back as `--seconds`. On
/// this shared host the fastest of the passes only settles once a run has seen
/// about this many seconds of them.
pub const RUN_SECONDS: u32 = 16;

/// Seed used when none is given. Develop against it; check a claimed gain on
/// [`HELD_OUT_SEED`] as well.
pub const DEFAULT_SEED: u64 = 2024;
pub const HELD_OUT_SEED: u64 = 7919;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "bulk_r111",
        why: "150 bulk accessions on the release-111 index, the paper's optimised set-up: star is ~81% of the pass, sra+genomics ~19%",
    },
    Workload {
        name: "bulk_r108",
        why: "the first 60 of the same accessions on the 3x larger release-108 index: multimapper-heavy seeding and stitching, index size and load time",
    },
    Workload {
        name: "single_cell_early_stop",
        why: "300 accessions, 270 aborted at the 10% checkpoint: sra fetch+dump is over half the pass and the early-stop count must not move",
    },
    Workload {
        name: "fleet_300k",
        why: "300000 modeled accessions with telemetry off: pure atlas kernel_engine + cloudsim cost, no pipeline or observer work",
    },
    Workload {
        name: "fleet_chaos_100k",
        why: "100000 accessions under a chaos fault plan, a spot burst and recovery: retry, redelivery, DLQ and checkpoint arms of the same kernel",
    },
    Workload {
        name: "observed_fleet_20k",
        why: "20000 accessions with telemetry, monitor and SLOs on, then query, profile and diff: telemetry is over 90% of the pass",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Same seed, same commit: must the value repeat bit for bit?
    pub exact: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "accessions_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "reads_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "accession_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "mapped_frac",
        unit: "ratio",
        better: Higher,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "sim_makespan_h",
        unit: "h",
        better: Lower,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "sim_cost_usd",
        unit: "usd",
        better: Lower,
        bound: 0.10,
        exact: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Every workload reports every one of these under `--trace 1`; a layer a
/// workload never enters reads 0.
pub const PER_LAYER: &[PerLayer] = &[
    layer("genomics.read_sim.busy_s", "s", Lower),
    layer("sra.archive_encode.busy_s", "s", Lower),
    layer("sra.fetch.busy_s", "s", Lower),
    layer("sra.fetch.bytes", "bytes", Lower),
    layer("sra.dump.busy_s", "s", Lower),
    layer("sra.dump.reads", "count", Higher),
    layer("sra.dump.fastq_mb_per_s", "MB/s", Higher),
    layer("star.align.busy_s", "s", Lower),
    layer("star.seed.cpu_s", "s", Lower),
    layer("star.stitch.cpu_s", "s", Lower),
    layer("star.extend.cpu_s", "s", Lower),
    layer("star.align.other_cpu_s", "s", Lower),
    layer("star.seed.units", "count", Lower),
    layer("star.stitch.units", "count", Lower),
    layer("star.extend.units", "count", Lower),
    layer("star.align.speedup_t2", "ratio", Higher),
    layer("star.quant.busy_s", "s", Lower),
    layer("star.multimap_frac", "ratio", Lower),
    layer("star.unmapped_frac", "ratio", Lower),
    layer("star.index.bytes", "bytes", Lower),
    layer("star.index_build.busy_s", "s", Lower),
    layer("star.index_serialize.busy_s", "s", Lower),
    layer("star.index_deserialize.busy_s", "s", Lower),
    layer("host.llc_bytes", "bytes", Higher),
    layer("atlas.early_stop.stopped", "count", Higher),
    layer("atlas.early_stop.saved_frac", "ratio", Higher),
    layer("atlas.pipeline.accession_ms_p90", "ms", Lower),
    layer("atlas.pipeline.residual_frac", "ratio", Lower),
    layer("deseq.normalize.busy_s", "s", Lower),
    layer("deseq.matrix.genes", "count", Higher),
    layer("atlas.campaign.busy_s", "s", Lower),
    layer("atlas.campaign.ns_per_event", "ns", Lower),
    layer("atlas.campaign.events_per_s", "1/s", Higher),
    layer("atlas.campaign.sim_events", "count", Lower),
    layer("atlas.campaign.redeliveries", "count", Lower),
    layer("atlas.campaign.dead_lettered", "count", Lower),
    layer("atlas.campaign.interruptions", "count", Lower),
    layer("atlas.campaign.wasted_compute_s", "s", Lower),
    layer("atlas.campaign.salvaged_compute_s", "s", Higher),
    layer("atlas.campaign.busy_fraction", "ratio", Higher),
    layer("atlas.workload.busy_s", "s", Lower),
    layer("cloudsim.devent.ns_per_event", "ns", Lower),
    layer("cloudsim.sqs.ns_per_op", "ns", Lower),
    layer("cloudsim.faults.injected", "count", Lower),
    layer("telemetry.observer.overhead_frac", "ratio", Lower),
    layer("telemetry.recorder.overhead_frac", "ratio", Lower),
    layer("telemetry.spans", "count", Lower),
    layer("telemetry.events", "count", Lower),
    layer("telemetry.eventlog.bytes", "bytes", Lower),
    layer("telemetry.recorder.ns_per_record", "ns", Lower),
    layer("telemetry.export.perfetto_s", "s", Lower),
    layer("telemetry.export.openmetrics_s", "s", Lower),
    layer("telemetry.summarize.busy_s", "s", Lower),
    layer("telemetry.export.bytes", "bytes", Lower),
    layer("telemetry.query.busy_s", "s", Lower),
    layer("telemetry.query.lines_per_s", "1/s", Higher),
    layer("telemetry.diff.busy_s", "s", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The metrics a run reports, in table order: per-layer when traced, else end-to-end.
pub fn names_and_units(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Which direction of `name` is better; `None` when no table lists it.
pub fn better(name: &str) -> Option<Better> {
    end_to_end(name)
        .map(|m| m.better)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.better))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmarks/e2e/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmarks/e2e\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for w in WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"', '\\']),
                "{}",
                w.name
            );
            assert!(names.insert(w.name), "{} used twice", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in units {
            assert!(well_formed(name), "{name}");
            assert!(names.insert(name), "{name} used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --offline --manifest-path \
             benchmarks/e2e/Cargo.toml -- --emit-benchmark-json > BENCHMARK.json"
        );
    }
}
