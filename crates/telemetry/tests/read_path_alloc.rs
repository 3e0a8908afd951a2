//! What reading a saved event log asks the allocator for, counted rather than timed:
//! `Query::run` (one count per kind, and per-instance wait quantiles) and
//! `RunProfile::from_event_log` over a recorder-written log L and over L+L. Both
//! read each line in place (`json::Fields`), so L+L makes exactly as many calls as
//! L: a line whose keys, group and values were already seen allocates nothing.
//! Exact for the seed, so the host's wall-clock drift cannot blur it;
//! `-- --nocapture` prints the counts.

#[path = "../../star/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use telemetry::{JsonValue, Query, Recorder, RunProfile};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Accessions in the log, and the instances they run on.
const ACCESSIONS: u64 = 48;
const INSTANCES: u64 = 6;

/// Allocator calls per reader, over L and over L+L alike. Parsing each line into a
/// `JsonValue` tree made 4 505 / 8 999, 4 512 / 9 006 and 4 363 / 8 709.
const CALLS: [(&str, u64); 3] = [
    ("query --group-by kind --agg count", 30),
    ("query --group-by instance --agg quantiles:wait_secs", 36),
    ("RunProfile::from_event_log", 81),
];

/// A campaign-shaped log: scale-out, one queue wait, three progress snapshots and a
/// completion per accession, a worker crash on every seventh and an early stop on
/// every eleventh, with the recorder's own float formatting and field order.
fn campaign_log() -> String {
    let rec = Recorder::new();
    rec.event(0.0, "scale_out", vec![("launch", JsonValue::from(INSTANCES)), ("pending", JsonValue::from(ACCESSIONS))]);
    for i in 0..INSTANCES {
        rec.event(90.5 + i as f64 * 0.25, "instance_ready", vec![("instance", JsonValue::from(i))]);
    }
    for a in 0..ACCESSIONS {
        let accession = format!("SRR{:08}", 9_000_000 + a * 37);
        let instance = a % INSTANCES;
        let start = 100.0 + a as f64 * 13.7;
        let job = |kind: &'static str, t: f64, extra: Vec<(&'static str, JsonValue)>| {
            let mut fields = vec![
                ("accession", JsonValue::from(accession.as_str())),
                ("instance", JsonValue::from(instance)),
            ];
            fields.extend(extra);
            rec.event(t, kind, fields);
        };
        job("queue_wait", start, vec![("wait_secs", JsonValue::from(start - 90.0 + (a % 5) as f64 * 0.1))]);
        for k in 1..=3u64 {
            let processed = k * 25_000;
            job(
                "progress",
                start + k as f64 * 41.3,
                vec![
                    ("processed", JsonValue::from(processed)),
                    ("total", JsonValue::from(100_000u64)),
                    ("processed_fraction", JsonValue::from(processed as f64 / 100_000.0)),
                    ("mapping_rate", JsonValue::from(0.62 + (a % 9) as f64 * 0.031)),
                ],
            );
        }
        if a % 7 == 3 {
            job("worker_crash", start + 150.0, vec![("wasted_secs", JsonValue::from(150.0 + a as f64 / 3.0))]);
        }
        if a % 11 == 5 {
            job("early_stop", start + 60.0, vec![("mapping_rate", JsonValue::from(0.12))]);
        }
        job("job_done", start + 200.0, vec![("align_secs", JsonValue::from(160.25 + a as f64))]);
    }
    rec.events_ndjson()
}

fn query(args: &[&str]) -> Query {
    Query::parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
}

#[test]
fn reading_an_event_log_allocates_per_new_key_not_per_line() {
    let log = campaign_log();
    let doubled = format!("{log}{log}");
    let lines = log.lines().count();
    let queries = [
        query(&["--group-by", "kind", "--agg", "count"]),
        query(&["--group-by", "instance", "--agg", "quantiles:wait_secs"]),
    ];
    let mut seen = Vec::new();
    for q in &queries {
        let (once, once_calls) = tracked(|| q.run(&log).unwrap());
        let (twice, twice_calls) = tracked(|| q.run(&doubled).unwrap());
        assert_eq!((once.scanned, twice.scanned), (lines as u64, 2 * lines as u64));
        seen.push((once_calls.calls, twice_calls.calls));
    }
    let (once, once_calls) = tracked(|| RunProfile::from_event_log("L", &log).unwrap());
    let (twice, twice_calls) = tracked(|| RunProfile::from_event_log("L+L", &doubled).unwrap());
    assert_eq!(once.per_accession_secs.len(), ACCESSIONS as usize);
    assert_eq!(twice.event_counts.iter().map(|(_, n)| n).sum::<u64>(), 2 * lines as u64);
    seen.push((once_calls.calls, twice_calls.calls));

    for ((name, _), (l, ll)) in CALLS.iter().zip(&seen) {
        println!("{name}: {l} calls over L ({lines} lines), {ll} over L+L");
    }
    for (&(name, want), &(l, ll)) in CALLS.iter().zip(&seen) {
        assert_eq!(ll, l, "{name}: the second copy of the log allocated");
        assert_eq!(l, want, "{name}: allocator calls over L");
    }
}
