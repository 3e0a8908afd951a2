//! The three fleet workloads: modeled accessions through `Orchestrator::run`, one
//! campaign after another (a closed loop with one client). Per-accession results
//! are synthetic, so host time here is the campaign kernel, the simulated cloud
//! and, on `observed_fleet_20k`, the telemetry that watches them.

use std::hint::black_box;
use std::time::Instant;

use atlas_pipeline::{
    CampaignConfig, CampaignReport, CampaignWorkload, ModeledWorkload, Orchestrator, RecoveryConfig,
};
use cloudsim::{
    FaultPlan, InstanceType, Kernel, ScalingPolicy, SimDuration, SimTime, SpotBurst, SpotMarket,
    SqsQueue,
};
use telemetry::{
    JsonValue, MonitorConfig, Query, Recorder, RunProfile, SloConfig, SloRegistry, SpanId,
    SECS_BUCKETS,
};

use crate::report::Report;
use crate::stats::{best, Better};
use crate::trace::Tracer;
use crate::{derive_seed, host, RunArgs};

pub struct Spec {
    accessions: usize,
    chaos: bool,
    observed: bool,
}

pub fn spec(workload: &str) -> Option<Spec> {
    let (accessions, chaos, observed) = match workload {
        "fleet_300k" => (300_000, false, false),
        "fleet_chaos_100k" => (100_000, true, false),
        "observed_fleet_20k" => (20_000, false, true),
        _ => return None,
    };
    Some(Spec {
        accessions,
        chaos,
        observed,
    })
}

const SETUP_REPEATS: usize = 7;
/// The warm-up campaign runs this share of the accessions.
const WARMUP_DIVISOR: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum Observers {
    Off,
    RecorderOnly,
    All,
}

fn campaign_config(spec: &Spec, seed: u64, observers: Observers) -> CampaignConfig {
    let instance = InstanceType::by_name("r6a.xlarge").expect("catalog instance type");
    let mut cfg = CampaignConfig::new(instance, 1 << 20);
    cfg.scaling = ScalingPolicy {
        min_size: 0,
        max_size: 1250,
        target_backlog_per_instance: 8,
    };
    cfg.scale_tick = SimDuration::from_secs(10.0);
    cfg.poll_interval = SimDuration::from_secs(5.0);
    cfg.spot_market = SpotMarket {
        price_factor: 0.35,
        interruptions_per_hour: 2.0,
        seed: derive_seed(seed, 12),
    };
    cfg.max_receive_count = Some(6);
    if spec.chaos {
        let mut plan = FaultPlan::chaos(derive_seed(seed, 13));
        plan.spot_bursts = vec![SpotBurst {
            start_secs: 3600.0,
            duration_secs: 3600.0,
            rate_per_hour: 6.0,
        }];
        cfg.faults = Some(plan);
        cfg.recovery = Some(RecoveryConfig::default());
    }
    cfg.telemetry = observers != Observers::Off;
    if observers == Observers::All {
        cfg.monitor = Some(MonitorConfig::standard());
        cfg.slo = Some(SloConfig {
            registry: SloRegistry::standard(4.0 * 3600.0, 3600.0, 0.25),
            ..SloConfig::default()
        });
    }
    cfg
}

fn workload(seed: u64) -> ModeledWorkload {
    ModeledWorkload {
        seed: derive_seed(seed, 11),
        ..ModeledWorkload::default()
    }
}

fn orchestrator(spec: &Spec, seed: u64, observers: Observers) -> Orchestrator {
    Orchestrator::with_workload(
        workload(seed).into_workload(),
        campaign_config(spec, seed, observers),
    )
    .expect("campaign configuration is valid")
}

struct Fixture {
    ids: Vec<String>,
    orchestrator: Orchestrator,
    query: Query,
}

fn setup(spec: &Spec, seed: u64) -> Fixture {
    let ids = ModeledWorkload::accessions(spec.accessions);
    let observers = if spec.observed {
        Observers::All
    } else {
        Observers::Off
    };
    let orchestrator = orchestrator(spec, seed, observers);
    orchestrator
        .run(&ids[..spec.accessions / WARMUP_DIVISOR])
        .expect("warm-up campaign runs");
    let query = Query::parse_args(&["--group-by", "kind", "--agg", "count"].map(String::from))
        .expect("query arguments parse");
    Fixture {
        ids,
        orchestrator,
        query,
    }
}

/// What one campaign produced, reduced so the report itself can be dropped
/// before the next pass.
struct Campaign {
    resolved: usize,
    dead_lettered: usize,
    digest: u64,
    sim_events: u64,
    makespan_h: f64,
    cost_usd: f64,
    reads: u64,
    mapped_frac: f64,
    redeliveries: u64,
    interruptions: usize,
    wasted_s: f64,
    salvaged_s: f64,
    busy_fraction: f64,
    faults_injected: u64,
}

fn reduce(r: &CampaignReport) -> Campaign {
    Campaign {
        resolved: r.completed.len() + r.dead_lettered.len(),
        dead_lettered: r.dead_lettered.len(),
        digest: r.summary_digest(),
        sim_events: r.sim_events,
        makespan_h: r.makespan.as_hours(),
        cost_usd: r.cost.total_usd,
        reads: r
            .completed
            .iter()
            .map(|c| c.early_stop.processed_reads)
            .sum(),
        mapped_frac: r.completed.iter().map(|c| c.mapping_rate).sum::<f64>()
            / r.completed.len().max(1) as f64,
        redeliveries: r.redeliveries,
        interruptions: r.interruptions,
        wasted_s: r.wasted_compute_secs,
        salvaged_s: r.salvaged_compute_secs,
        busy_fraction: r.busy_fraction,
        faults_injected: r.fault_counters.total_faults(),
    }
}

/// The telemetry side of an observed pass.
struct Observed {
    spans: usize,
    events: usize,
    log_bytes: usize,
    export_bytes: usize,
    log_lines: u64,
    query_s: f64,
    diff_s: f64,
}

struct Pass {
    wall_s: f64,
    campaign_s: f64,
    campaign: Campaign,
    observed: Option<Observed>,
}

/// Sum of the per-kind counts in the query's text table (the last column).
fn query_count_total(table: &str) -> u64 {
    table
        .lines()
        .skip(2)
        .filter_map(|row| row.split_whitespace().last()?.parse::<u64>().ok())
        .sum()
}

/// One campaign; on the observed workload also one query over its event log,
/// one run profile and one self-diff.
fn pass(fx: &Fixture, spec: &Spec, op_id: u64, report: &mut Report, tracer: &mut Tracer) -> Pass {
    let root = tracer.begin("pass", op_id);
    let (outcome, campaign_s) =
        tracer.span("atlas.campaign", op_id, || fx.orchestrator.run(&fx.ids));
    let result = outcome.expect("campaign runs");
    let telemetry = result.telemetry.as_ref().filter(|_| spec.observed);
    let timed = telemetry.map(|tel| {
        let (answer, query_s) =
            tracer.span("telemetry.query", op_id, || fx.query.run(&tel.event_log));
        let (profile, profile_s) = tracer.span("telemetry.profile", op_id, || {
            RunProfile::from_event_log("pass", &tel.event_log)
        });
        let profile = profile.expect("the campaign's own log parses");
        let (delta, diff_s) = tracer.span("telemetry.diff", op_id, || {
            telemetry::diff(&profile, &profile)
        });
        (
            tel,
            answer.expect("the campaign's own log parses"),
            delta,
            query_s,
            profile_s + diff_s,
        )
    });
    let wall_s = tracer.end(root);

    report.check(true, String::new); // the campaign returned
    let observed = timed.map(|(tel, answer, delta, query_s, diff_s)| {
        let events = tel.n_events as u64;
        report.check(answer.matched == events && answer.scanned == events, || {
            format!(
                "query matched {} of {} lines, log has {events}",
                answer.matched, answer.scanned
            )
        });
        let counted = query_count_total(&answer.render_text());
        report.check(counted == events, || {
            format!("query counts sum to {counted}, log has {events} events")
        });
        report.check(delta.is_empty(), || {
            "diff of a run with itself is not empty".into()
        });
        Observed {
            spans: tel.n_spans,
            events: tel.n_events,
            log_bytes: tel.event_log.len(),
            export_bytes: tel.perfetto_json.len() + tel.openmetrics_text.len(),
            log_lines: answer.scanned,
            query_s,
            diff_s,
        }
    });
    Pass {
        wall_s,
        campaign_s,
        campaign: reduce(&result),
        observed,
    }
}

fn output_checks(fx: &Fixture, spec: &Spec, seed: u64, passes: &[Pass], report: &mut Report) {
    for p in passes {
        report.check(p.campaign.resolved == spec.accessions, || {
            format!(
                "{} accessions completed or dead-lettered, {} submitted",
                p.campaign.resolved, spec.accessions
            )
        });
    }
    let of = |f: fn(&Campaign) -> u64| passes.iter().map(|p| f(&p.campaign)).collect::<Vec<u64>>();
    report.check_repeats("summary digest", &of(|c| c.digest));
    report.check_repeats("simulated makespan", &of(|c| c.makespan_h.to_bits()));
    report.check_repeats("simulated cost", &of(|c| c.cost_usd.to_bits()));
    report.check_repeats("simulated events", &of(|c| c.sim_events));
    if spec.observed {
        // Observers must not change what the campaign does.
        let plain = orchestrator(spec, seed, Observers::Off)
            .run(&fx.ids)
            .expect("campaign runs");
        let observed = passes[0].campaign.digest;
        report.check(plain.summary_digest() == observed, || {
            format!(
                "digest {observed:#x} observed, {:#x} unobserved",
                plain.summary_digest()
            )
        });
    }
}

fn run_untraced(spec: &Spec, args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    // Set-up is a fraction of a second here, short enough to fall wholly inside
    // one slow spell of the host. So it is repeated between the passes, spread
    // over the run; the repeats build a second fixture and drop it.
    let timed_setup = || {
        let started = Instant::now();
        let fx = setup(spec, args.seed);
        (fx, started.elapsed().as_secs_f64())
    };
    let (fx, first_setup_s) = timed_setup();
    let mut setups = vec![first_setup_s];

    let mut passes = Vec::new();
    let started = Instant::now();
    while passes.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        passes.push(pass(&fx, spec, passes.len() as u64 + 1, report, tracer));
        if setups.len() < SETUP_REPEATS {
            setups.push(timed_setup().1);
        }
    }
    report.set_median("setup_s", setups);

    let n = spec.accessions as f64;
    report.set_best(
        "accessions_per_s",
        passes.iter().map(|p| n / p.wall_s).collect(),
    );
    report.set_best(
        "reads_per_s",
        passes
            .iter()
            .map(|p| p.campaign.reads as f64 / p.wall_s)
            .collect(),
    );
    // Host milliseconds per accession: a campaign has no per-accession call to time.
    report.set_best(
        "accession_ms_p50",
        passes.iter().map(|p| p.wall_s * 1e3 / n).collect(),
    );
    let last = &passes.last().expect("at least two passes ran").campaign;
    report.set("mapped_frac", last.mapped_frac);
    report.set("sim_makespan_h", last.makespan_h);
    report.set("sim_cost_usd", last.cost_usd);

    output_checks(&fx, spec, args.seed, &passes, report);
    report.set("peak_rss_mb", host::peak_rss_mb());
}

/// A small deterministic generator for probe inputs.
fn next_unit(state: &mut u64) -> f64 {
    *state = derive_seed(*state, 0);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Schedule and pop `events` timers on a bare kernel, keeping about as many
/// pending as a 1250-instance fleet does: the floor under the campaign's
/// nanoseconds per event.
fn devent_probe(events: u64, seed: u64, tracer: &mut Tracer) -> f64 {
    const PENDING: u64 = 4_096;
    let mut state = seed;
    let (acc, secs) = tracer.span("cloudsim.devent", 0, || {
        let mut kernel: Kernel<u64> = Kernel::new();
        let mut scheduled = 0;
        while scheduled < events.min(PENDING) {
            kernel.schedule_in(
                SimDuration::from_secs(600.0 * next_unit(&mut state)),
                scheduled,
            );
            scheduled += 1;
        }
        let mut acc = 0u64;
        while let Some((_, payload)) = kernel.pop() {
            acc ^= payload;
            if scheduled < events {
                kernel.schedule_in(
                    SimDuration::from_secs(600.0 * next_unit(&mut state)),
                    scheduled,
                );
                scheduled += 1;
            }
        }
        acc
    });
    black_box(acc);
    secs * 1e9 / events.max(1) as f64
}

/// Send, receive and delete `messages` messages on a bare queue.
fn sqs_probe(messages: u64, tracer: &mut Tracer) -> f64 {
    let (acc, secs) = tracer.span("cloudsim.sqs", 0, || {
        let mut queue: SqsQueue<u64> = SqsQueue::new(SimDuration::from_secs(120.0));
        (0..messages).for_each(|m| queue.send(m));
        let mut acc = 0u64;
        while let Some((body, receipt, _)) = queue.receive(SimTime::ZERO) {
            acc ^= body;
            queue.delete(receipt).expect("a fresh receipt deletes");
        }
        acc
    });
    black_box(acc);
    secs * 1e9 / (3 * messages).max(1) as f64
}

/// Fill a recorder of the benchmark's own with as many spans and events as the
/// campaign recorded, shaped like the campaign's (instance > job > stage >
/// align phase), then time each exporter on it.
fn recorder_probe(spans: usize, events: usize, report: &mut Report, tracer: &mut Tracer) {
    const STAGES: [&str; 4] = ["prefetch", "fasterq-dump", "align", "collect"];
    const PHASES: [&str; 3] = ["seed", "stitch", "extend"];
    let rec = Recorder::new();
    let (recorded, fill_s) = tracer.span("telemetry.recorder_fill", 0, || {
        let campaign = rec.span_start("campaign", SpanId::NONE, 0.0);
        let mut recorded = 1;
        let mut job_index = 0u64;
        let mut instance = SpanId::NONE;
        while recorded < spans {
            if job_index.is_multiple_of(16) {
                let attrs = [("instance", job_index.to_string())];
                let at = job_index as f64;
                instance = rec.span_closed("instance", campaign, at, at + 9_600.0, &attrs);
                recorded += 1;
            }
            let start = job_index as f64 * 600.0;
            let attrs = [
                ("accession", format!("SRR{:08}", 90_000_000 + job_index)),
                ("instance", (job_index / 16).to_string()),
                ("outcome", "ok".to_string()),
            ];
            let job = rec.span_closed("job", instance, start, start + 600.0, &attrs);
            recorded += 1;
            for (i, stage) in STAGES.iter().enumerate() {
                let s = start + 150.0 * i as f64;
                let span = rec.span_closed(stage, job, s, s + 150.0, &[]);
                recorded += 1;
                if *stage == "align" {
                    for (k, phase) in PHASES.iter().enumerate() {
                        let p = s + 50.0 * k as f64;
                        rec.span_closed(phase, span, p, p + 50.0, &[]);
                        recorded += 1;
                    }
                }
            }
            rec.observe("job_secs", SECS_BUCKETS, 600.0);
            rec.counter_add("jobs_completed", 1);
            job_index += 1;
        }
        for e in 0..events as u64 {
            rec.event(
                e as f64,
                "queue_wait",
                vec![
                    (
                        "accession",
                        JsonValue::from(format!("SRR{:08}", 90_000_000 + e)),
                    ),
                    ("instance", JsonValue::from(e % 1_250)),
                    ("wait_secs", JsonValue::from(e as f64 * 0.25)),
                ],
            );
        }
        recorded + events
    });
    report.set(
        "telemetry.recorder.ns_per_record",
        fill_s * 1e9 / recorded.max(1) as f64,
    );
    let (out, perfetto_s) = tracer.span("telemetry.export.perfetto", 0, || {
        telemetry::perfetto_trace_from(&rec)
    });
    black_box(out);
    let (out, openmetrics_s) = tracer.span("telemetry.export.openmetrics", 0, || {
        telemetry::openmetrics_from(&rec)
    });
    black_box(out);
    let (out, summarize_s) = tracer.span("telemetry.summarize", 0, || telemetry::summarize(&rec));
    black_box(out);
    report.set("telemetry.export.perfetto_s", perfetto_s);
    report.set("telemetry.export.openmetrics_s", openmetrics_s);
    report.set("telemetry.summarize.busy_s", summarize_s);
}

fn per_pass(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

fn run_traced(spec: &Spec, args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    let (fx, _) = tracer.span("setup", 0, || setup(spec, args.seed));
    let comparisons = spec.observed.then(|| {
        [Observers::Off, Observers::RecorderOnly].map(|o| orchestrator(spec, args.seed, o))
    });

    // Untraced and traced passes take turns, so the overhead compares like with
    // like; on the observed workload the same campaign also runs with no
    // observers and with the recorder alone, next to the pass it is compared to.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let (mut plain_s, mut recorder_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while traced.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let op_id = traced.len() as u64 + 1;
        untraced.push(pass(&fx, spec, op_id, report, &mut Tracer::new(false)));
        traced.push(pass(&fx, spec, op_id, report, tracer));
        if let Some([plain, recorder_only]) = &comparisons {
            let run = |o: &Orchestrator| o.run(&fx.ids).map(|r| r.summary_digest());
            let (digest, s) = tracer.span("atlas.campaign.unobserved", op_id, || run(plain));
            black_box(digest.expect("campaign runs"));
            plain_s.push(s);
            let (digest, s) =
                tracer.span("atlas.campaign.recorder_only", op_id, || run(recorder_only));
            black_box(digest.expect("campaign runs"));
            recorder_s.push(s);
        }
    }

    let first = &traced[0].campaign;
    let events = first.sim_events as f64;
    report.set_best("atlas.campaign.busy_s", per_pass(&traced, |p| p.campaign_s));
    report.set_best(
        "atlas.campaign.ns_per_event",
        per_pass(&traced, |p| p.campaign_s * 1e9 / events),
    );
    report.set_best(
        "atlas.campaign.events_per_s",
        per_pass(&traced, |p| events / p.wall_s),
    );
    // Fastest traced pass over fastest untraced pass: a pass is seconds long, and
    // two of them differ by more than a handful of spans can cost.
    let fastest = |passes: &[Pass]| best(Better::Lower, &per_pass(passes, |p| p.wall_s));
    report.set(
        "trace.overhead_frac",
        fastest(&traced) / fastest(&untraced) - 1.0,
    );
    report.set("atlas.campaign.sim_events", events);
    report.set("atlas.campaign.redeliveries", first.redeliveries as f64);
    report.set("atlas.campaign.dead_lettered", first.dead_lettered as f64);
    report.set("atlas.campaign.interruptions", first.interruptions as f64);
    report.set("atlas.campaign.wasted_compute_s", first.wasted_s);
    report.set("atlas.campaign.salvaged_compute_s", first.salvaged_s);
    report.set("atlas.campaign.busy_fraction", first.busy_fraction);
    report.set("cloudsim.faults.injected", first.faults_injected as f64);
    report.set("host.llc_bytes", host::llc_bytes() as f64);

    if let Some(o) = &traced[0].observed {
        let (spans, events, lines) = (o.spans, o.events, o.log_lines as f64);
        report.set("telemetry.spans", spans as f64);
        report.set("telemetry.events", events as f64);
        report.set("telemetry.eventlog.bytes", o.log_bytes as f64);
        report.set("telemetry.export.bytes", o.export_bytes as f64);
        let observed = |f: fn(&Observed) -> f64| {
            per_pass(&traced, |p| {
                f(p.observed.as_ref().expect("observed workload"))
            })
        };
        report.set_best("telemetry.query.busy_s", observed(|o| o.query_s));
        report.set_best("telemetry.diff.busy_s", observed(|o| o.diff_s));
        report.set_best(
            "telemetry.query.lines_per_s",
            per_pass(&traced, |p| {
                lines / p.observed.as_ref().expect("observed workload").query_s
            }),
        );
        let over = |with: &[f64]| -> Vec<f64> {
            with.iter()
                .zip(&plain_s)
                .map(|(w, p)| (w - p) / p)
                .collect()
        };
        report.set_median(
            "telemetry.observer.overhead_frac",
            over(&per_pass(&traced, |p| p.campaign_s)),
        );
        report.set_median("telemetry.recorder.overhead_frac", over(&recorder_s));
        recorder_probe(spans, events, report, tracer);
    }

    output_checks(&fx, spec, args.seed, &traced, report);

    let probes = tracer.begin("probes", 0);
    let modeled = workload(args.seed);
    let ((), workload_s) = tracer.span("atlas.workload", 0, || {
        for id in &fx.ids {
            black_box(
                modeled
                    .run_accession(id)
                    .expect("modeled accessions never fail"),
            );
        }
    });
    report.set("atlas.workload.busy_s", workload_s);
    report.set(
        "cloudsim.devent.ns_per_event",
        devent_probe(first.sim_events, derive_seed(args.seed, 14), tracer),
    );
    report.set(
        "cloudsim.sqs.ns_per_op",
        sqs_probe(spec.accessions as u64, tracer),
    );
    tracer.end(probes);
}

pub fn run(spec: &Spec, args: &RunArgs, report: &mut Report, tracer: &mut Tracer) {
    if tracer.is_recording() {
        run_traced(spec, args, report, tracer);
    } else {
        run_untraced(spec, args, report, tracer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_table_counts_are_summed_from_the_last_column() {
        let table = "trace_query: 7 matched of 7 events, 2 group(s)\n\
                     \x20  by:kind  count\n\
                     queue_wait      4\n\
                     \x20    retry      3\n";
        assert_eq!(query_count_total(table), 7);
    }
}
