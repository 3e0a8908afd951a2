//! Human-readable rendering of experiment results (the tables the `experiments`
//! binary prints and EXPERIMENTS.md quotes).

use crate::analysis::CheckpointAnalysis;
use crate::experiments::{
    Fig3Result, Fig4Result, IndexComparison, PseudoStudyResult, RightSizeComparison,
    SpotRecoveryArm, SpotRecoveryResult,
};
use crate::orchestrator::CampaignReport;
use std::fmt::Write as _;

/// Render the Fig. 3 table: per-file times on both indices plus the headline.
pub fn render_fig3(r: &Fig3Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 3 — STAR execution time by genome release");
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>12} {:>11} {:>11} {:>8} {:>9} {:>9}",
        "file", "reads", "fastq_bytes", "t_r108[s]", "t_r111[s]", "speedup", "map%108", "map%111"
    );
    for f in &r.files {
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>12} {:>11.3} {:>11.3} {:>8.1} {:>8.1}% {:>8.1}%",
            f.name,
            f.reads,
            f.fastq_bytes,
            f.secs_108,
            f.secs_111,
            f.speedup(),
            f.rate_108 * 100.0,
            f.rate_111 * 100.0
        );
    }
    let _ = writeln!(
        out,
        "weighted mean speedup (by FASTQ size): {:.1}x   (paper: >12x)",
        r.weighted_speedup
    );
    let _ = writeln!(
        out,
        "mean |mapping-rate difference|: {:.2}%   (paper: <1%)",
        r.mean_rate_diff * 100.0
    );
    let _ = writeln!(
        out,
        "index bytes: r108 {} vs r111 {} (ratio {:.2}; paper 85 GiB vs 29.5 GiB = 2.88)",
        r.stats_108.total_bytes(),
        r.stats_111.total_bytes(),
        r.stats_108.total_bytes() as f64 / r.stats_111.total_bytes() as f64
    );
    out
}

/// Render the §III-A configuration table.
pub fn render_index_table(c: &IndexComparison) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "§III-A — index comparison (test configuration table)");
    let _ = writeln!(out, "{:<28} {:>14} {:>14}", "", "release 108", "release 111");
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>14}",
        "genome length [bases]", c.stats_108.genome_len, c.stats_111.genome_len
    );
    let _ = writeln!(out, "{:<28} {:>14} {:>14}", "contigs", c.stats_108.n_contigs, c.stats_111.n_contigs);
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>14}",
        "index bytes (measured)",
        c.stats_108.total_bytes(),
        c.stats_111.total_bytes()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>13.1}G {:>13.1}G",
        "projected human-scale index", c.projected_gib_108, c.projected_gib_111
    );
    let _ = writeln!(out, "{:<28} {:>14} {:>14}", "right-sized instance", c.instance_108, c.instance_111);
    let _ = writeln!(out, "size ratio 108/111: {:.2}  (paper: 85/29.5 = 2.88)", c.size_ratio);
    out
}

/// Render the Fig. 4 summary and the savings bars for stopped runs.
pub fn render_fig4(r: &Fig4Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 4 — early stopping savings");
    let _ = writeln!(
        out,
        "{:<12} {:>11} {:>13} {:>11} {:>8}",
        "accession", "actual[s]", "projected[s]", "saved[s]", "map%"
    );
    for run in r.runs.iter().filter(|x| x.stopped) {
        let _ = writeln!(
            out,
            "{:<12} {:>11.2} {:>13.2} {:>11.2} {:>7.1}%",
            run.accession,
            run.actual_secs,
            run.projected_secs,
            run.projected_secs - run.actual_secs,
            run.mapping_rate * 100.0
        );
    }
    let s = &r.summary;
    let _ = writeln!(
        out,
        "terminated early: {} of {} alignments  (paper: 38 of 1000)",
        s.stopped, s.runs
    );
    let _ = writeln!(
        out,
        "total STAR time: {:.1}s of projected {:.1}s — saved {:.1}s = {:.1}%  (paper: 30.4h of 155.8h = 19.5%)",
        s.actual_secs,
        s.projected_secs,
        s.saved_secs(),
        s.saved_fraction() * 100.0
    );
    let _ = writeln!(out, "all stopped runs single-cell: {}  (paper: yes)", r.stopped_all_single_cell());
    out
}

/// Render the checkpoint analysis (the paper's "10% is enough" methodology).
pub fn render_checkpoint_analysis(a: &CheckpointAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Checkpoint analysis over {} complete progress histories (threshold {:.0}% mapped)",
        a.n_traces,
        a.min_rate * 100.0
    );
    let _ = writeln!(out, "{:>11} {:>9} {:>12} {:>10}", "checkpoint", "stopped", "false stops", "saved");
    for o in &a.outcomes {
        let _ = writeln!(
            out,
            "{:>10.0}% {:>9} {:>12} {:>9.1}%",
            o.check_fraction * 100.0,
            o.stopped,
            o.false_stops,
            o.saved_fraction * 100.0
        );
    }
    match a.minimal_safe_fraction() {
        Some(f) => {
            let _ = writeln!(
                out,
                "minimal safe checkpoint: {:.0}% of reads  (paper: \"at least 10%\" is enough)",
                f * 100.0
            );
        }
        None => {
            let _ = writeln!(out, "no candidate checkpoint is free of false stops");
        }
    }
    out
}

/// Render a campaign report (E4).
pub fn render_campaign(r: &CampaignReport, instance: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Cloud campaign (architecture of Fig. 2)");
    let _ = writeln!(out, "instance type:        {instance}");
    let _ = writeln!(out, "accessions processed: {}", r.completed.len());
    let _ = writeln!(out, "makespan:             {}", r.makespan);
    let _ = writeln!(out, "instances launched:   {}", r.instances_launched);
    let _ = writeln!(out, "spot interruptions:   {}", r.interruptions);
    let _ = writeln!(out, "redeliveries:         {}", r.redeliveries);
    let _ = writeln!(out, "init per instance:    {:.1}s (index download + shm load)", r.init_secs_per_instance);
    let _ = writeln!(out, "total cost:           ${:.2}", r.cost.total_usd);
    let _ = writeln!(out, "instance hours:       {:.2}", r.cost.total_hours);
    let _ = writeln!(
        out,
        "early stopping:       {} of {} stopped, saved {:.1}% of alignment time",
        r.savings.stopped,
        r.savings.runs,
        r.savings.saved_fraction() * 100.0
    );
    if let Some(n) = &r.normalized {
        let _ = writeln!(
            out,
            "atlas matrix:         {} genes x {} samples (DESeq2-normalized)",
            n.gene_ids.len(),
            n.sample_ids.len()
        );
    }
    let peak = r.fleet_timeline.iter().map(|s| s.active_instances).max().unwrap_or(0);
    let _ = writeln!(out, "peak fleet size:      {peak}");
    let _ = writeln!(
        out,
        "mean fleet size:      {:.2} (busy fraction {:.0}%)",
        r.mean_fleet_size,
        r.busy_fraction * 100.0
    );
    let c = &r.fault_counters;
    if c.total_faults() > 0 || !r.dead_lettered.is_empty() {
        let _ = writeln!(
            out,
            "injected faults:      {} (s3 {}, sqs {}, dup deliveries {}, crashes {})",
            c.total_faults(),
            c.s3_get_faults + c.s3_put_faults,
            c.sqs_receive_faults + c.sqs_delete_faults + c.sqs_extend_faults,
            c.duplicate_deliveries,
            c.worker_crashes
        );
        let _ = writeln!(
            out,
            "retries:              {} attempts, {} exhausted, {:.1}s backoff",
            c.retry_attempts, c.retries_exhausted, c.retry_backoff_secs
        );
        let _ = writeln!(
            out,
            "dead-lettered:        {} ({})",
            r.dead_lettered.len(),
            if r.dead_lettered.is_empty() { "-".to_string() } else { r.dead_lettered.join(", ") }
        );
        let _ = writeln!(
            out,
            "wasted compute:       {:.1}s = ${:.2} ({:.1}% of spend; {} duplicate completions)",
            r.wasted_compute_secs,
            r.cost.wasted_usd,
            r.cost.wasted_fraction() * 100.0,
            r.duplicate_completions
        );
    }
    if let Some(t) = &r.telemetry {
        out.push_str(&t.render());
    }
    if !r.alerts.is_empty() {
        let _ = writeln!(out, "live alerts fired:    {}", r.alerts.len());
        for a in &r.alerts {
            let _ = writeln!(
                out,
                "  [{:>9.1}s] {:<20} {:<14} value {:.3} vs {:.3} (detection latency {:.1}s)",
                a.at_secs, a.rule, a.subject, a.value, a.threshold, a.latency_secs
            );
        }
    }
    if let Some(slo) = &r.slo {
        let _ = writeln!(out, "service-level objectives:");
        for o in &slo.objectives {
            let _ = writeln!(
                out,
                "  {:<28} target {:>5.1}% attained {:>6.2}% ({}/{} bad, budget {:>6.1}%, {} burn alerts)",
                o.id,
                o.target * 100.0,
                o.attained * 100.0,
                o.bad,
                o.total,
                o.budget_remaining * 100.0,
                o.burn_alerts
            );
        }
        let t = &slo.totals;
        let _ = writeln!(
            out,
            "attribution ledger:   {} accessions, turnaround sum {:.1}s, ${:.2} attributed",
            t.accessions, t.turnaround_secs, t.cost_usd
        );
        let _ = writeln!(
            out,
            "  latency parts:      queue {:.1}s, download {:.1}s, align {:.1}s, collect {:.1}s, retry {:.1}s, idle {:.1}s",
            t.queue_wait_secs,
            t.download_secs,
            t.align_secs,
            t.collect_secs,
            t.retry_waste_secs,
            t.idle_gap_secs
        );
        let _ = writeln!(
            out,
            "  cost parts:         compute ${:.2}, retry ${:.2}, idle-amortized ${:.2}",
            t.compute_usd, t.retry_usd, t.idle_amortized_usd
        );
    }
    out
}

/// Render the E6 pseudoaligner future-work study.
pub fn render_pseudo_study(r: &PseudoStudyResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E6 — future work: early stopping on a kallisto/Salmon-style pseudoaligner");
    let _ = writeln!(
        out,
        "pseudoalignment rates: bulk {:.1}%, single-cell {:.1}% (threshold 30%)",
        r.bulk_rate * 100.0,
        r.single_cell_rate * 100.0
    );
    let _ = writeln!(out, "{:<32} {:>9} {:>13}", "", "stopped", "time saved");
    let _ = writeln!(
        out,
        "{:<32} {:>9} {:>12.1}%",
        "with progress stream (proposed)",
        r.with_progress.stopped,
        r.with_progress.saved_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "{:<32} {:>9} {:>12.1}%",
        "stock mode (no progress; Salmon)",
        r.stock.stopped,
        r.stock.saved_fraction() * 100.0
    );
    let _ = writeln!(
        out,
        "paper: \"other (pseudo)aligners should also provide the current mapping rate value\""
    );
    out
}

/// Render the E5 right-sizing cost comparison.
pub fn render_right_size(c: &RightSizeComparison) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E5 — fleet cost: release-108 index vs release-111 index");
    let _ = writeln!(out, "{:<24} {:>14} {:>14}", "", "release 108", "release 111");
    let _ = writeln!(out, "{:<24} {:>14} {:>14}", "instance type", c.instance_108, c.instance_111);
    let _ = writeln!(
        out,
        "{:<24} {:>14} {:>14}",
        "makespan",
        c.report_108.makespan.to_string(),
        c.report_111.makespan.to_string()
    );
    let _ = writeln!(
        out,
        "{:<24} {:>13.2}$ {:>13.2}$",
        "total cost", c.report_108.cost.total_usd, c.report_111.cost.total_usd
    );
    let _ = writeln!(
        out,
        "{:<24} {:>13.1}s {:>13.1}s",
        "init per instance", c.report_108.init_secs_per_instance, c.report_111.init_secs_per_instance
    );
    let _ = writeln!(out, "cost ratio 108/111: {:.1}x", c.cost_ratio());
    out
}

/// Render the spot-recovery study (E7): the same reclaim storm with and without
/// checkpoint/resume, priced by the attribution ledger — the Fig. 4-style waste
/// chart for graceful degradation.
pub fn render_spot_recovery(r: &SpotRecoveryResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "E7 — graceful spot degradation: checkpointing under a reclaim storm");
    let _ = writeln!(out, "{:<24} {:>14} {:>14}", "", "recovery off", "recovery on");
    let row = |out: &mut String, label: &str, f: &dyn Fn(&SpotRecoveryArm) -> String| {
        let _ = writeln!(
            out,
            "{:<24} {:>14} {:>14}",
            label,
            f(&r.without_recovery),
            f(&r.with_recovery)
        );
    };
    row(&mut out, "interruptions", &|a| a.interruptions.to_string());
    row(&mut out, "completed", &|a| a.completed.to_string());
    row(&mut out, "dead-lettered", &|a| a.dead_lettered.to_string());
    row(&mut out, "makespan", &|a| format!("{:.0}s", a.makespan_secs));
    row(&mut out, "total cost", &|a| format!("${:.2}", a.total_usd));
    row(&mut out, "retry waste", &|a| format!("{:.0}s", a.retry_waste_secs));
    row(&mut out, "idle gap", &|a| format!("{:.0}s", a.idle_gap_secs));
    row(&mut out, "burned (waste+gap)", &|a| {
        format!("{:.0}s", a.retry_waste_secs + a.idle_gap_secs)
    });
    row(&mut out, "salvaged compute", &|a| format!("{:.0}s", a.salvaged_secs));
    row(&mut out, "checkpoints written", &|a| a.checkpoints_written.to_string());
    row(&mut out, "resumed attempts", &|a| a.resumes.to_string());
    let _ = writeln!(
        out,
        "waste reduction: {:.1}% of burned time recovered by checkpoint/resume",
        r.waste_reduction_fraction() * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::early_stop::SavingsSummary;
    use crate::experiments::{Fig3File, Fig4Run};
    use sra_sim::accession::LibraryStrategy;
    use star_aligner::IndexStats;

    fn stats(total: usize) -> IndexStats {
        IndexStats {
            genome_bytes: total / 5,
            sa_bytes: total * 4 / 5,
            prefix_bytes: 0,
            sjdb_bytes: 0,
            genome_len: total / 5,
            n_contigs: 3,
        }
    }

    #[test]
    fn fig3_rendering_contains_headline() {
        let r = Fig3Result {
            files: vec![Fig3File {
                name: "fastq_00".into(),
                reads: 100,
                fastq_bytes: 1000,
                secs_108: 10.0,
                secs_111: 1.0,
                rate_108: 0.9,
                rate_111: 0.91,
                work_108: Default::default(),
                work_111: Default::default(),
            }],
            weighted_speedup: 10.0,
            stats_108: stats(1000),
            stats_111: stats(400),
            mean_rate_diff: 0.01,
        };
        let text = render_fig3(&r);
        assert!(text.contains("weighted mean speedup"));
        assert!(text.contains("10.0x"));
        assert!(text.contains("fastq_00"));
    }

    #[test]
    fn fig4_rendering_reports_totals() {
        let mut summary = SavingsSummary::default();
        let runs = vec![
            Fig4Run {
                accession: "SRR1".into(),
                strategy: LibraryStrategy::SingleCell,
                stopped: true,
                actual_secs: 1.0,
                projected_secs: 10.0,
                mapping_rate: 0.1,
            },
            Fig4Run {
                accession: "SRR2".into(),
                strategy: LibraryStrategy::RnaSeqBulk,
                stopped: false,
                actual_secs: 5.0,
                projected_secs: 5.0,
                mapping_rate: 0.9,
            },
        ];
        for r in &runs {
            summary.add(&crate::early_stop::EarlyStopAccounting {
                stopped: r.stopped,
                processed_reads: 1,
                total_reads: 1,
                actual_secs: r.actual_secs,
                projected_full_secs: r.projected_secs,
            });
        }
        let text = render_fig4(&Fig4Result { runs, summary });
        assert!(text.contains("terminated early: 1 of 2"));
        assert!(text.contains("SRR1"), "stopped runs listed");
        assert!(!text.contains("SRR2\n"), "completed runs not itemized");
        assert!(text.contains("all stopped runs single-cell: true"));
    }

    #[test]
    fn index_table_rendering() {
        let c = IndexComparison {
            stats_108: stats(2880),
            stats_111: stats(1000),
            size_ratio: 2.88,
            projected_gib_108: 85.0,
            projected_gib_111: 29.5,
            instance_108: "r6a.4xlarge".into(),
            instance_111: "r6a.2xlarge".into(),
        };
        let text = render_index_table(&c);
        assert!(text.contains("2.88"));
        assert!(text.contains("r6a.4xlarge"));
        assert!(text.contains("85.0G"));
    }
}
