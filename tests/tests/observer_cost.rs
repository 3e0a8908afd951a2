//! What observing a campaign costs, counted instead of timed.
//!
//! Three fixed-seed `ModeledWorkload` campaigns (2 000 / 4 000 / 8 000 accessions,
//! nothing but kernel and telemetry) run under the shared counting allocator with
//! telemetry off, with the recorder only, with the live monitor + SLO engine, and
//! with telemetry off under `FaultPlan::chaos` (so the fault rolls, retries,
//! crashes and redeliveries are billed too), each once with recovery off and once
//! with recovery armed on a spot market that never reclaims. Every number below
//! is exact for the seed — identical across runs and across debug and release —
//! so this is the merge gate the host's 0.78–1.35× wall-clock drift cannot blur:
//!
//! * **(A) armed-but-idle recovery is invisible:** same digest, `sim_events`,
//!   makespan and cost bits, span / event counts and event-log bytes as recovery
//!   off, and a handful of extra allocator calls that does not depend on the
//!   campaign's size.
//! * **(B) what each observer tier costs** at 8 000 accessions, as committed
//!   ceilings: allocator calls, bytes requested, recorded spans + events. A
//!   regression fails with its row's name; an improvement of more than a tenth
//!   must lower the ceiling in the PR that earns it.
//! * **(C) the per-accession cost does not grow with the campaign**, so a
//!   structure that allocates superlinearly fails here.
//! * **(D) a modeled run allocates nothing:** `ModeledWorkload::run_accession`
//!   over 8 000 ids makes no allocator call, so what a campaign allocates per
//!   accession is the campaign's own.
//! * **(E) what one record costs:** allocator calls and bytes requested per
//!   recorded span and event, over the "telemetry off" row, printed and held to
//!   committed ceilings (`PER_RECORD`).
//! * **(F) the Perfetto trace costs nothing until asked for:** a campaign sizes
//!   its trace (printed as `perfetto=` bytes) but does not render it; streaming
//!   it requests its one buffer and a small fixed amount, and cloning the
//!   telemetry copies no span and no log.
//!
//! What the counters cannot see: work that does not allocate. Restoring the
//! O(window) double scan `SloState::sample` had before PR 20 moves none of these
//! numbers — scans are not allocations. Wall-clock for that class stays where it
//! is measured on the same traffic: `atlas-e2e`'s `observed_fleet_20k`
//! (`telemetry.observer.overhead_frac`, `telemetry.recorder.overhead_frac`) and
//! `fleet_chaos_100k`.
//!
//! One `#[test]`: the allocator's counters are process-wide.

#[path = "../../crates/star/tests/support/counting_alloc.rs"]
mod counting_alloc;

use atlas_pipeline::orchestrator::{CampaignConfig, Orchestrator};
use atlas_pipeline::{CampaignWorkload, ModeledWorkload, RecoveryConfig};
use cloudsim::instance::InstanceType;
use cloudsim::{FaultPlan, ScalingPolicy, SimDuration, SpotMarket};
use counting_alloc::{tracked, CountingAlloc};
use std::io;
use telemetry::export::STREAM_BUFFER;
use telemetry::{CampaignTelemetry, MonitorConfig, SloConfig, SloRegistry};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SIZES: [usize; 3] = [2_000, 4_000, 8_000];

/// One observer tier (and fault plan) and what a campaign of `SIZES[2]`
/// accessions costs under it.
struct Tier {
    name: &'static str,
    recorder: bool,
    monitor_and_slo: bool,
    /// Run `FaultPlan::chaos`: the fault rolls, retries and redeliveries are billed too.
    chaos: bool,
    calls: u64,
    bytes: usize,
    sim_events: u64,
    spans: usize,
    events: usize,
}

/// With telemetry off, what remains per accession is one allocator call per
/// first completion, and nothing per delivery or other event: the report's
/// `Completion::accession` `String`. A modeled run allocates nothing (D), a job
/// lives in a slot of the fleet's job table, not in a box, and the queue keeps
/// no receipt map. The other ~600 calls of the "telemetry off" row do not grow
/// with the campaign (593 / 601 / 597 at the three sizes): the submit-time
/// tables, the kernel heap's and the queue's doublings, and the launches of a
/// fleet capped at 64. A redelivered attempt under chaos allocates nothing
/// either. Bytes are ~403 per accession with telemetry off, 120 of them the
/// accession's `Completion` (the report's vector is sized at submit). The
/// telemetry tiers' bytes hold no Perfetto document: the campaign sizes its trace
/// and keeps the recorder's spans and log for it (F).
const TIERS: [Tier; 4] = [
    Tier { name: "telemetry off", recorder: false, monitor_and_slo: false, chaos: false, calls: 8_597, bytes: 3_226_192, sim_events: 24_107, spans: 0, events: 0 },
    Tier { name: "recorder only", recorder: true, monitor_and_slo: false, chaos: false, calls: 332_236, bytes: 38_951_191, sim_events: 24_107, spans: 64_065, events: 18_260 },
    Tier { name: "monitor + SLO", recorder: true, monitor_and_slo: true, chaos: false, calls: 485_876, bytes: 76_094_773, sim_events: 24_107, spans: 64_065, events: 57_034 },
    Tier { name: "chaos, off", recorder: false, monitor_and_slo: false, chaos: true, calls: 8_711, bytes: 3_667_720, sim_events: 28_032, spans: 0, events: 0 },
];

/// (E) Per recorded span or event at `SIZES[2]`, over "telemetry off":
/// `(tier, allocator calls, bytes requested)`, ceilings. The recorder renders
/// each event into its log and drops the record, so what is left per record is
/// mostly what the caller builds: a span's name and attributes, an event's
/// field list.
const PER_RECORD: [(&str, f64, f64); 2] =
    [("recorder only", 3.94, 434.0), ("monitor + SLO", 3.95, 602.0)];

fn config(tier: &Tier, recovery: bool) -> CampaignConfig {
    let t = InstanceType::by_name("r6a.xlarge").unwrap();
    let mut cfg = CampaignConfig::new(t, 1 << 20);
    cfg.scaling = ScalingPolicy { min_size: 0, max_size: 64, target_backlog_per_instance: 8 };
    cfg.scale_tick = SimDuration::from_secs(10.0);
    cfg.poll_interval = SimDuration::from_secs(5.0);
    // A spot fleet that is never reclaimed: recovery has nothing to do.
    cfg.spot_market = SpotMarket { price_factor: 0.35, interruptions_per_hour: 0.0, seed: 9 };
    cfg.max_receive_count = Some(6);
    cfg.telemetry = tier.recorder;
    if tier.monitor_and_slo {
        cfg.monitor = Some(MonitorConfig::standard());
        cfg.slo = Some(SloConfig { registry: SloRegistry::standard(4.0 * 3600.0, 3600.0, 0.25) });
    }
    if tier.chaos {
        cfg.faults = Some(FaultPlan::chaos(2024));
    }
    if recovery {
        cfg.recovery = Some(RecoveryConfig::default());
    }
    cfg
}

/// Everything a campaign reports that an idle recovery layer must not move.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    digest: u64,
    sim_events: u64,
    makespan_bits: u64,
    cost_bits: u64,
    spans: usize,
    events: usize,
    log_bytes: usize,
}

struct Cell {
    outcome: Outcome,
    calls: u64,
    bytes: usize,
}

fn measure(tier: &Tier, n: usize, recovery: bool) -> Cell {
    let orch =
        Orchestrator::with_workload(ModeledWorkload::default().into_workload(), config(tier, recovery))
            .unwrap();
    // One small campaign first, untracked, so nothing lazily initialised is billed
    // to the tracked one.
    orch.run(&ModeledWorkload::accessions(100)).unwrap();
    let ids = ModeledWorkload::accessions(n);
    let (report, seen) = tracked(|| orch.run(&ids).unwrap());
    assert_eq!(report.completed.len() + report.dead_lettered.len(), n);
    assert_eq!((report.interruptions, report.salvaged_compute_secs), (0, 0.0));
    let (spans, events, log_bytes) =
        report.telemetry.as_ref().map_or((0, 0, 0), |t| (t.n_spans, t.n_events, t.event_log.len()));
    let perfetto = report.telemetry.as_ref().map_or(0, |t| check_the_trace_handle(tier.name, n, t));
    let outcome = Outcome {
        digest: report.summary_digest(),
        sim_events: report.sim_events,
        makespan_bits: report.makespan.as_secs().to_bits(),
        cost_bits: report.cost.total_usd.to_bits(),
        spans,
        events,
        log_bytes,
    };
    println!(
        "{:<13} n={n:<5} recovery={:<5} calls={:<7} ({:>6.2}/acc) bytes={:<10} ({:>6.0}/acc) \
         sim_events={} spans={spans} events={events} perfetto={perfetto}",
        tier.name,
        if recovery { "armed" } else { "off" },
        seen.calls,
        seen.calls as f64 / n as f64,
        seen.total,
        seen.total as f64 / n as f64,
        report.sim_events,
    );
    Cell { outcome, calls: seen.calls, bytes: seen.total }
}

/// An `io::Write` that keeps nothing and counts what it is given.
struct Counted(usize);

impl io::Write for Counted {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0 += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// (F): stream `t`'s Perfetto trace and clone `t`, under the counting allocator;
/// returns the trace's length.
fn check_the_trace_handle(name: &str, n: usize, t: &CampaignTelemetry) -> usize {
    let mut out = Counted(0);
    let (streamed, seen) = tracked(|| t.perfetto_json.write_to(&mut out));
    streamed.expect("a counting writer does not fail");
    assert_eq!(out.0, t.perfetto_json.len(), "{name}, n={n}: streamed bytes and len() differ");
    assert!(
        seen.total <= STREAM_BUFFER + 1024,
        "{name}, n={n}: streaming the trace requested {} bytes in {} calls, more than its \
         {STREAM_BUFFER}-byte buffer and 1 KiB",
        seen.total,
        seen.calls
    );
    let (_, whole) = tracked(|| t.clone());
    let (_, summary) = tracked(|| {
        (
            t.stage_stats.clone(),
            t.critical_path.clone(),
            t.metrics_json.clone(),
            t.histogram_summaries.clone(),
            t.sketch_summaries.clone(),
            t.openmetrics_text.clone(),
        )
    });
    assert_eq!(
        (whole.calls, whole.total),
        (summary.calls, summary.total),
        "{name}, n={n}: cloning the telemetry copied more than its summary (spans or the log)"
    );
    t.perfetto_json.len()
}

/// (D): every draw of a modeled run is arithmetic on the borrowed name.
fn assert_modeled_runs_allocate_nothing() {
    let workload = ModeledWorkload::default();
    let ids = ModeledWorkload::accessions(SIZES[2]);
    let (stopped, seen) = tracked(|| {
        ids.iter().filter(|id| workload.run_accession(id).unwrap().early_stopped()).count()
    });
    println!(
        "modeled runs  n={:<5} calls={} bytes={} early_stopped={stopped}",
        ids.len(),
        seen.calls,
        seen.total
    );
    assert!(stopped > 0, "premise: some modeled runs early-stop");
    assert_eq!((seen.calls, seen.total), (0, 0), "ModeledWorkload::run_accession allocated");
}

#[test]
fn observer_cost_is_exact_bounded_and_does_not_grow_with_the_campaign() {
    assert_modeled_runs_allocate_nothing();
    // (calls, bytes, spans + events) of each tier's largest campaign, recovery off.
    let mut largest = Vec::new();
    for want in &TIERS {
        let name = want.name;
        let mut off_cells = Vec::new();
        let mut extra_calls = Vec::new();
        for n in SIZES {
            let off = measure(want, n, false);
            let armed = measure(want, n, true);
            // (A) Recovery armed with nothing to recover from.
            assert_eq!(armed.outcome, off.outcome, "{name}, n={n}: idle recovery moved the campaign");
            assert!(armed.calls >= off.calls && armed.bytes >= off.bytes, "{name}, n={n}");
            extra_calls.push(armed.calls - off.calls);
            let extra_bytes = armed.bytes - off.bytes;
            assert!(
                extra_bytes <= 56 * n + 1024,
                "{name}, n={n}: idle recovery requested {extra_bytes} extra bytes"
            );
            off_cells.push(off);
        }
        assert!(
            extra_calls[0] <= 8 && extra_calls.iter().all(|&c| c == extra_calls[0]),
            "{name}: idle recovery's extra allocator calls at n={SIZES:?} are {extra_calls:?}: \
             must be <= 8 and the same at every size"
        );

        // (B) The committed cost of this tier at the largest size.
        let (small, large) = (&off_cells[0], &off_cells[2]);
        assert_eq!(
            (large.outcome.sim_events, large.outcome.spans, large.outcome.events),
            (want.sim_events, want.spans, want.events),
            "{name}: sim_events, spans, events"
        );
        assert!(
            large.calls <= want.calls && large.calls * 10 >= want.calls * 9,
            "{name}: {} allocator calls, committed {} (fails above it, and below 0.9x so the \
             ceiling follows an improvement)",
            large.calls,
            want.calls
        );
        assert!(
            large.bytes <= want.bytes && large.bytes * 10 >= want.bytes * 9,
            "{name}: {} bytes requested, committed {}",
            large.bytes,
            want.bytes
        );

        // (C) Per accession, the largest campaign costs no more than the smallest
        // (cross-multiplied: exact in integers).
        let (n_small, n_large) = (SIZES[0] as u64, SIZES[2] as u64);
        assert!(
            large.calls * n_small <= small.calls * n_large,
            "{name}: allocator calls per accession grow with the campaign: {} at n={n_small}, {} at n={n_large}",
            small.calls,
            large.calls
        );
        assert!(
            large.bytes as u64 * n_small <= small.bytes as u64 * n_large,
            "{name}: bytes per accession grow with the campaign: {} at n={n_small}, {} at n={n_large}",
            small.bytes,
            large.bytes
        );
        largest.push((name, large.calls, large.bytes, large.outcome.spans + large.outcome.events));
    }

    // (E) The cost of one record, over the same campaign with telemetry off.
    let (_, off_calls, off_bytes, _) = largest[0];
    for (name, max_calls, max_bytes) in PER_RECORD {
        let &(_, calls, bytes, records) =
            largest.iter().find(|cell| cell.0 == name).expect("PER_RECORD names a tier");
        let per_call = (calls - off_calls) as f64 / records as f64;
        let per_byte = (bytes - off_bytes) as f64 / records as f64;
        println!(
            "per record    {name:<13} calls={per_call:.3} bytes={per_byte:.1} over telemetry off \
             ({records} spans + events)"
        );
        assert!(
            per_call <= max_calls && per_byte <= max_bytes,
            "{name}: {per_call:.3} allocator calls and {per_byte:.1} bytes per record, \
             committed {max_calls} and {max_bytes}"
        );
    }
}
