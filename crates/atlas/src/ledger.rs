//! Per-accession cost/latency attribution ledger (the SLO engine's receipt).
//!
//! An SLO verdict ("turnaround p95 blew its budget") is only actionable if you
//! can see *where* the seconds and dollars went. The ledger decomposes every
//! completed accession's turnaround and dollar cost into named parts:
//!
//! * **queue wait** — submit → first delivery (SQS latency + backlog);
//! * **download** — `prefetch` + `fasterq-dump` stage seconds;
//! * **align** / **collect** — the remaining pipeline stages;
//! * **retry waste** — seconds burned by attempts that produced nothing durable
//!   (worker crashes, duplicate completions, lost uploads) for this accession;
//! * **idle gap** — everything else on the clock path: lease-expiry waiting
//!   between attempts, re-delivery polling, scheduling slack.
//!
//! and the dollars into **compute** (the successful attempt), **retry** (the
//! wasted attempts) and **idle-amortized** (the accession's share of fleet time
//! that bought no accession in particular: instance init, idle polling, waste
//! on accessions that never completed).
//!
//! ## The sum invariant
//!
//! Each entry's `turnaround_secs` and `cost_usd` are *defined* as the canonical
//! left-to-right fold of their parts (see [`AccessionLedgerEntry::fold`]), so
//! "parts sum to the total" holds **bit-exactly** by construction — a test can
//! re-fold the parts and compare with `==`, no epsilon. Agreement with the
//! independently measured completion time is asserted separately (within float
//! noise) when the ledger is built, and the idle-amortized dollars absorb the
//! distribution remainder in the last entry so the per-accession costs account
//! for the campaign's `total_usd` to within float ulps — the *per-entry* folds
//! are the bit-exact contract; cross-entry sums are subject to rounding.
//!
//! The ledger is part of the SLO engine's report surface and, like the rest of
//! telemetry, is a pure observer: it is computed after settlement from
//! quantities the engine already tracks and is excluded from
//! [`crate::orchestrator::CampaignReport::summary_digest`].

use crate::pipeline::StageTimes;
use telemetry::SloStatus;

/// One completed accession's turnaround and cost, decomposed.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessionLedgerEntry {
    /// Accession id.
    pub accession: String,
    /// Submit → first delivery, seconds.
    pub queue_wait_secs: f64,
    /// `prefetch` + `fasterq-dump` stage seconds of the successful attempt.
    pub download_secs: f64,
    /// Align stage seconds of the successful attempt.
    pub align_secs: f64,
    /// Collect stage seconds of the successful attempt.
    pub collect_secs: f64,
    /// Seconds burned by this accession's failed attempts (crashes, duplicate
    /// completions, lost uploads).
    pub retry_waste_secs: f64,
    /// Clock-path seconds not covered by any part above (lease-expiry waits,
    /// re-delivery polling, scheduling slack).
    pub idle_gap_secs: f64,
    /// Drained-attempt seconds a resumed attempt did *not* redo — compute
    /// rescued by the checkpoint/resume path ([`crate::recovery`]). Those
    /// seconds already sit inside the clock path (they happened before the
    /// successful attempt started, so `idle_gap_secs` covers them); this field
    /// labels them without changing [`Self::latency_parts`]: with recovery on,
    /// the burned seconds are `retry_waste_secs` and the rescued ones are these.
    /// Always 0 when recovery is off.
    pub salvaged_secs: f64,
    /// Submit → completion, seconds. Equals [`Self::fold`] of
    /// [`Self::latency_parts`] bit-exactly, by construction.
    pub turnaround_secs: f64,
    /// Dollars for the successful attempt's compute seconds.
    pub compute_usd: f64,
    /// Dollars for this accession's wasted attempt seconds.
    pub retry_usd: f64,
    /// This accession's share of fleet dollars that bought no accession in
    /// particular (init, idle polling, waste on never-completed accessions).
    pub idle_amortized_usd: f64,
    /// Total dollars attributed to this accession. Equals [`Self::fold`] of
    /// [`Self::cost_parts`] bit-exactly, by construction.
    pub cost_usd: f64,
}

impl AccessionLedgerEntry {
    /// The latency decomposition, in canonical fold order.
    pub fn latency_parts(&self) -> [f64; 6] {
        [
            self.queue_wait_secs,
            self.download_secs,
            self.align_secs,
            self.collect_secs,
            self.retry_waste_secs,
            self.idle_gap_secs,
        ]
    }

    /// The cost decomposition, in canonical fold order.
    pub fn cost_parts(&self) -> [f64; 3] {
        [self.compute_usd, self.retry_usd, self.idle_amortized_usd]
    }

    /// The canonical left-to-right sum the ledger totals are defined by.
    /// Float addition is not associative, so the *order* is part of the
    /// invariant: anything re-checking "parts sum to total" must use this fold.
    pub fn fold(parts: &[f64]) -> f64 {
        parts.iter().fold(0.0, |acc, &p| acc + p)
    }
}

/// Campaign-level rollup of the ledger (plain sums over entries).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerTotals {
    /// Entries in the ledger (completed accessions).
    pub accessions: usize,
    /// Seconds, per part, summed over entries.
    pub queue_wait_secs: f64,
    /// Download (prefetch + dump) seconds over entries.
    pub download_secs: f64,
    /// Align seconds over entries.
    pub align_secs: f64,
    /// Collect seconds over entries.
    pub collect_secs: f64,
    /// Retry-waste seconds over entries.
    pub retry_waste_secs: f64,
    /// Idle-gap seconds over entries.
    pub idle_gap_secs: f64,
    /// Salvaged (checkpoint-rescued) seconds over entries.
    pub salvaged_secs: f64,
    /// Turnaround seconds over entries.
    pub turnaround_secs: f64,
    /// Compute dollars over entries.
    pub compute_usd: f64,
    /// Retry dollars over entries.
    pub retry_usd: f64,
    /// Idle-amortized dollars over entries.
    pub idle_amortized_usd: f64,
    /// Total attributed dollars. When at least one accession completed this
    /// matches the campaign's `total_usd` to within float ulps (the residual's
    /// last-entry absorption makes the *shares* sum exactly; re-summing the
    /// per-entry folds reintroduces rounding).
    pub cost_usd: f64,
}

/// The SLO engine's end-of-campaign report: objective attainment plus the
/// attribution ledger.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    /// Per-objective attainment, in registry order.
    pub objectives: Vec<SloStatus>,
    /// Per-accession attribution, in completion order.
    pub ledger: Vec<AccessionLedgerEntry>,
    /// Ledger rollup.
    pub totals: LedgerTotals,
}

/// What the engine records about one completed accession, before attribution.
#[derive(Clone, Debug)]
pub(crate) struct CompletedAccession {
    pub accession: String,
    /// Submit → first delivery, seconds (0 if the first receive was faulted
    /// away and only redeliveries reached a worker).
    pub queue_wait_secs: f64,
    /// Stage durations of the successful attempt.
    pub stage_secs: StageTimes,
    /// Simulated completion time. Campaigns submit every accession at t=0, so
    /// this *is* the turnaround.
    pub ended_secs: f64,
    /// Wasted seconds attributed to this accession's failed attempts.
    pub retry_waste_secs: f64,
    /// Drained-attempt seconds rescued by checkpoint/resume (0 without
    /// recovery).
    pub salvaged_secs: f64,
}

/// Build the ledger: decompose each completed accession's turnaround, price the
/// parts at `hourly_rate`, and amortize the residual of `total_usd` (fleet
/// dollars not attributable to any one accession's attempts) across entries in
/// proportion to their compute dollars.
pub(crate) fn build_ledger(
    completed: &[CompletedAccession],
    hourly_rate: f64,
    total_usd: f64,
) -> (Vec<AccessionLedgerEntry>, LedgerTotals) {
    let mut entries: Vec<AccessionLedgerEntry> = Vec::with_capacity(completed.len());
    for c in completed {
        let download = c.stage_secs.prefetch_secs + c.stage_secs.dump_secs;
        let align = c.stage_secs.align_secs;
        let collect = c.stage_secs.collect_secs;
        // The clock path is measured (ended − submit-at-0); the parts are
        // modeled. The gap between them is genuine idle time on the accession's
        // path (lease expiries, polling), never negative beyond float noise.
        let direct = AccessionLedgerEntry::fold(&[
            c.queue_wait_secs,
            download,
            align,
            collect,
            c.retry_waste_secs,
        ]);
        let idle_gap = (c.ended_secs - direct).max(0.0);
        let latency_parts =
            [c.queue_wait_secs, download, align, collect, c.retry_waste_secs, idle_gap];
        let turnaround = AccessionLedgerEntry::fold(&latency_parts);
        debug_assert!(
            (turnaround - c.ended_secs).abs() <= 1e-9 * c.ended_secs.abs().max(1.0),
            "ledger turnaround {} diverged from measured completion {} for {}",
            turnaround,
            c.ended_secs,
            c.accession
        );
        let compute_usd = c.stage_secs.total() * hourly_rate / 3600.0;
        let retry_usd = c.retry_waste_secs * hourly_rate / 3600.0;
        entries.push(AccessionLedgerEntry {
            accession: c.accession.clone(),
            queue_wait_secs: c.queue_wait_secs,
            download_secs: download,
            align_secs: align,
            collect_secs: collect,
            retry_waste_secs: c.retry_waste_secs,
            idle_gap_secs: idle_gap,
            salvaged_secs: c.salvaged_secs,
            turnaround_secs: turnaround,
            compute_usd,
            retry_usd,
            idle_amortized_usd: 0.0,
            cost_usd: 0.0,
        });
    }

    // Amortize the residual: fleet dollars that bought no accession in
    // particular (init, idle polling, waste on never-completed accessions).
    // Shares are proportional to compute dollars; the *last* entry absorbs the
    // remainder so the attributed dollars re-fold to `total_usd` bit-exactly.
    if !entries.is_empty() {
        let attributed = entries
            .iter()
            .flat_map(|e| [e.compute_usd, e.retry_usd])
            .fold(0.0, |acc, p| acc + p);
        let residual = total_usd - attributed;
        let weight_sum: f64 = entries.iter().map(|e| e.compute_usd).sum();
        let n = entries.len();
        let mut handed_out = 0.0f64;
        for (i, e) in entries.iter_mut().enumerate() {
            e.idle_amortized_usd = if i + 1 == n {
                residual - handed_out
            } else if weight_sum > 0.0 {
                residual * (e.compute_usd / weight_sum)
            } else {
                residual / n as f64
            };
            handed_out += e.idle_amortized_usd;
        }
    }
    for e in &mut entries {
        e.cost_usd = AccessionLedgerEntry::fold(&e.cost_parts());
    }

    let mut totals = LedgerTotals { accessions: entries.len(), ..LedgerTotals::default() };
    for e in &entries {
        totals.queue_wait_secs += e.queue_wait_secs;
        totals.download_secs += e.download_secs;
        totals.align_secs += e.align_secs;
        totals.collect_secs += e.collect_secs;
        totals.retry_waste_secs += e.retry_waste_secs;
        totals.idle_gap_secs += e.idle_gap_secs;
        totals.salvaged_secs += e.salvaged_secs;
        totals.turnaround_secs += e.turnaround_secs;
        totals.compute_usd += e.compute_usd;
        totals.retry_usd += e.retry_usd;
        totals.idle_amortized_usd += e.idle_amortized_usd;
        totals.cost_usd += e.cost_usd;
    }
    (entries, totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(accession: &str, ended: f64, waste: f64) -> CompletedAccession {
        CompletedAccession {
            accession: accession.to_string(),
            queue_wait_secs: 10.0,
            stage_secs: StageTimes {
                prefetch_secs: 5.0,
                dump_secs: 15.0,
                align_secs: 60.0,
                collect_secs: 10.0,
            },
            ended_secs: ended,
            retry_waste_secs: waste,
            salvaged_secs: 0.0,
        }
    }

    #[test]
    fn salvaged_and_lost_label_the_waste_split() {
        let mut c = completed("A", 200.0, 25.0);
        c.salvaged_secs = 40.0;
        let (entries, totals) = build_ledger(&[c], 1.0, 1.0);
        let e = &entries[0];
        assert_eq!(e.salvaged_secs, 40.0);
        assert_eq!(e.retry_waste_secs, 25.0, "the burned seconds stay retry waste");
        // Salvaged seconds are informational: the 6-part latency fold is untouched.
        assert_eq!(AccessionLedgerEntry::fold(&e.latency_parts()), e.turnaround_secs);
        assert_eq!(totals.salvaged_secs, 40.0);
    }

    #[test]
    fn latency_parts_refold_to_turnaround_bit_exactly() {
        let (entries, _) = build_ledger(
            &[completed("A", 100.0, 0.0), completed("B", 173.3, 41.7)],
            1.0896,
            3.25,
        );
        for e in &entries {
            assert_eq!(
                AccessionLedgerEntry::fold(&e.latency_parts()),
                e.turnaround_secs,
                "latency fold must be bit-exact for {}",
                e.accession
            );
            assert_eq!(AccessionLedgerEntry::fold(&e.cost_parts()), e.cost_usd, "cost fold");
        }
    }

    #[test]
    fn attributed_dollars_account_for_the_campaign_total() {
        let total_usd = 7.7731;
        let (entries, totals) = build_ledger(
            &[completed("A", 100.0, 0.0), completed("B", 200.0, 30.0), completed("C", 300.0, 0.0)],
            1.0896,
            total_usd,
        );
        // The idle *shares* sum to the residual exactly (last entry absorbs the
        // remainder); re-summing the per-entry folds can differ by float ulps.
        let refold = AccessionLedgerEntry::fold(
            &entries.iter().map(|e| e.cost_usd).collect::<Vec<f64>>(),
        );
        assert!((refold - total_usd).abs() < 1e-12, "{refold} vs {total_usd}");
        assert!((totals.cost_usd - total_usd).abs() < 1e-12);
        assert_eq!(totals.accessions, 3);
        let idle_refold = AccessionLedgerEntry::fold(
            &entries.iter().map(|e| e.idle_amortized_usd).collect::<Vec<f64>>(),
        );
        let attributed = entries
            .iter()
            .flat_map(|e| [e.compute_usd, e.retry_usd])
            .fold(0.0, |acc, p| acc + p);
        assert_eq!(idle_refold, total_usd - attributed, "shares re-fold to the residual exactly");
    }

    #[test]
    fn idle_gap_covers_the_unmodeled_clock_path() {
        // Stages + wait = 100s, completion at 130s: 30s of idle gap.
        let (entries, _) = build_ledger(&[completed("A", 130.0, 0.0)], 1.0, 1.0);
        assert!((entries[0].idle_gap_secs - 30.0).abs() < 1e-12);
        assert!((entries[0].turnaround_secs - 130.0).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_is_empty() {
        let (entries, totals) = build_ledger(&[], 1.0, 5.0);
        assert!(entries.is_empty());
        assert_eq!(totals, LedgerTotals::default());
    }

    #[test]
    fn zero_compute_weights_split_residual_equally() {
        let mut a = completed("A", 10.0, 0.0);
        let mut b = completed("B", 10.0, 0.0);
        for c in [&mut a, &mut b] {
            c.stage_secs = StageTimes {
                prefetch_secs: 0.0,
                dump_secs: 0.0,
                align_secs: 0.0,
                collect_secs: 0.0,
            };
        }
        let (entries, _) = build_ledger(&[a, b], 1.0, 4.0);
        assert_eq!(entries[0].idle_amortized_usd, 2.0);
        assert_eq!(entries[1].idle_amortized_usd, 2.0);
    }
}
