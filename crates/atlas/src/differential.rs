//! The part of a campaign's event log every replay must reproduce.
//!
//! Determinism is pinned by replay (`tests/tests/devent_diff.rs`, through the
//! test-support helper in `tests/lib.rs`) and by absolute digests
//! (`tests/tests/campaign_pins.rs`); both compare logs through
//! [`stripped_event_log`]. Monitor-gated `progress`/`alert` lines are stripped —
//! they are observer output whose presence depends only on the monitor config
//! (the pure-observer tests cover them); everything else must match exactly.

use crate::orchestrator::CampaignReport;

/// The structured event log with monitor-gated lines (`progress`, `alert`)
/// removed — the part of the log every replay must reproduce byte for byte.
/// `None` when telemetry was off.
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
