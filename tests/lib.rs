//! Integration-test package: all tests live in `tests/tests/`. This library is
//! their shared support code.
//!
//! # Replay verification
//!
//! The discrete-event kernel is only trustworthy because this harness can
//! prove, for any seeded campaign, that a second run on identical config +
//! workload reproduces the first *byte for byte*: same completion order, same
//! dead letters, same fault tallies, same makespan and cost down to the f64
//! bit patterns (all folded into [`CampaignReport::summary_digest`]), same
//! dispatched-event count, and the same telemetry event log
//! ([`stripped_event_log`]: monitor-gated `progress`/`alert` lines are observer
//! output and are left out). Replay proves a run agrees with itself; the
//! absolute pins in `tests/campaign_pins.rs` catch a change that moves both
//! sides together.

use std::sync::Arc;

use atlas_pipeline::{AtlasError, CampaignConfig, CampaignReport, CampaignWorkload, Orchestrator};

/// The structured event log with monitor-gated lines (`progress`, `alert`)
/// removed — the part of the log every replay must reproduce byte for byte
/// (those lines are observer output whose presence depends only on the monitor
/// config; the pure-observer tests cover them). `None` when telemetry was off.
pub fn stripped_event_log(report: &CampaignReport) -> Option<String> {
    let t = report.telemetry.as_ref()?;
    Some(
        t.event_log
            .lines()
            .filter(|l| !l.contains("\"kind\":\"progress\"") && !l.contains("\"kind\":\"alert\""))
            .collect::<Vec<_>>()
            .join("\n"),
    )
}

/// A Perfetto trace rendered, checked against its other two readings: `len()`
/// and the bytes `write_to` streams must be the rendering's.
pub fn streamed_trace(trace: &telemetry::PerfettoTrace) -> String {
    let rendered = trace.render();
    let mut streamed = Vec::new();
    trace.write_to(&mut streamed).expect("writing into a Vec does not fail");
    assert_eq!(trace.len(), rendered.len(), "len() is not the rendered length");
    assert!(streamed == rendered.as_bytes(), "write_to streamed other bytes than render()");
    rendered
}

/// The same campaign run twice through the kernel engine.
#[derive(Debug)]
pub struct EngineComparison {
    /// Report from the first run.
    pub first: CampaignReport,
    /// Report from the replay on identical config + workload.
    pub replay: CampaignReport,
}

/// Run `accessions` through the kernel engine twice on identical config +
/// workload, returning both reports for byte-level comparison.
pub fn run_differential(
    workload: Arc<dyn CampaignWorkload>,
    config: &CampaignConfig,
    accessions: &[String],
) -> Result<EngineComparison, AtlasError> {
    let first =
        Orchestrator::with_workload(Arc::clone(&workload), config.clone())?.run(accessions)?;
    let replay = Orchestrator::with_workload(workload, config.clone())?.run(accessions)?;
    Ok(EngineComparison { first, replay })
}

impl EngineComparison {
    /// Differential attribution between the two runs: where the seconds and
    /// dollars moved, per ledger category / accession / instance /
    /// critical-path edge. For a true replay this is exactly empty
    /// (`DiffReport::is_empty`); on divergence it is the root-cause table.
    pub fn attribution(&self) -> telemetry::DiffReport {
        telemetry::diff(
            &self.first.run_profile("first"),
            &self.replay.run_profile("replay"),
        )
    }

    /// Check byte-for-byte equivalence. `Ok(())` when the runs agree;
    /// otherwise every observed divergence, labeled, followed by the
    /// [`Self::attribution`] waterfall so the failure says *where* the runs
    /// drifted, not just that they did.
    pub fn assert_equivalent(&self) -> Result<(), String> {
        let mut diffs: Vec<String> = Vec::new();
        let (l, k) = (&self.first, &self.replay);
        if l.summary_digest() != k.summary_digest() {
            diffs.push(format!(
                "summary digest: first {:#018x} != replay {:#018x}",
                l.summary_digest(),
                k.summary_digest()
            ));
        }
        let l_order: Vec<&str> = l.completed.iter().map(|r| r.accession.as_str()).collect();
        let k_order: Vec<&str> = k.completed.iter().map(|r| r.accession.as_str()).collect();
        if l_order != k_order {
            diffs.push(format!(
                "completion order diverges at index {}",
                l_order.iter().zip(&k_order).position(|(a, b)| a != b).unwrap_or(l_order.len().min(k_order.len()))
            ));
        }
        if l.dead_lettered != k.dead_lettered {
            diffs.push(format!(
                "dead letters: first {:?} != replay {:?}",
                l.dead_lettered, k.dead_lettered
            ));
        }
        if l.makespan.as_secs().to_bits() != k.makespan.as_secs().to_bits() {
            diffs.push(format!(
                "makespan: first {} != replay {}",
                l.makespan.as_secs(),
                k.makespan.as_secs()
            ));
        }
        if l.cost.total_usd.to_bits() != k.cost.total_usd.to_bits() {
            diffs.push(format!(
                "total cost: first {} != replay {}",
                l.cost.total_usd, k.cost.total_usd
            ));
        }
        if l.sim_events != k.sim_events {
            diffs.push(format!(
                "dispatched events: first {} != replay {}",
                l.sim_events, k.sim_events
            ));
        }
        if l.instances_launched != k.instances_launched {
            diffs.push(format!(
                "instances launched: first {} != replay {}",
                l.instances_launched, k.instances_launched
            ));
        }
        if l.interruptions != k.interruptions {
            diffs.push(format!(
                "interruptions: first {} != replay {}",
                l.interruptions, k.interruptions
            ));
        }
        if l.fault_counters != k.fault_counters {
            diffs.push("fault counters diverge".to_string());
        }
        if l.fleet_timeline != k.fleet_timeline {
            diffs.push("fleet timelines diverge".to_string());
        }
        match (stripped_event_log(l), stripped_event_log(k)) {
            (Some(a), Some(b)) if a != b => {
                let at = a
                    .lines()
                    .zip(b.lines())
                    .position(|(x, y)| x != y)
                    .map(|i| format!("first divergent line {i}"))
                    .unwrap_or_else(|| "lengths differ".to_string());
                diffs.push(format!("stripped event logs differ ({at})"));
            }
            (Some(_), Some(_)) => {}
            (None, None) => {}
            _ => diffs.push("one run recorded telemetry, the other did not".to_string()),
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!("{}\n{}", diffs.join("; "), self.attribution().render_text()))
        }
    }
}
