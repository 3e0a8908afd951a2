//! Hostile-input test for `telemetry::json::parse` (ROADMAP 8), the parser behind
//! `trace_query` and `RunProfile::from_event_log`: an event-log line as the
//! recorder writes it and a nested timing report, each truncated at every byte,
//! with every bit flipped, and with every byte replaced by each structural byte.
//! The parser must answer with a value or a typed `ParseError` — never a panic —
//! must not hand back a non-finite number, and must not ask the allocator for more
//! than a small multiple of the input.

#[path = "../../star/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tracked, CountingAlloc};
use telemetry::json::{parse, ParseError};
use telemetry::{JsonValue, Recorder};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Bytes that mean something to the grammar, plus a digit that can push an
/// exponent out of range, a space and a NUL.
const STRUCTURAL: &[u8] = b"{}[],:\"\\eE.-+9 \0";

/// A timing report as saved to a file: an array of objects, nine-digit decimals
/// and a trailing newline (400 bytes).
const REPORT: &str = concat!(
    r#"{"group":"mmp_search","results":["#,
    r#"{"id":"release_108","mean_secs":0.000051607,"iters":10,"throughput_per_sec":9921230.853},"#,
    r#"{"id":"release_108_rc","mean_secs":0.000010061,"iters":10,"throughput_per_sec":50891091.077},"#,
    r#"{"id":"release_111","mean_secs":0.000033857,"iters":10,"throughput_per_sec":15122382.011},"#,
    r#"{"id":"release_111_rc","mean_secs":0.000022565,"iters":10,"throughput_per_sec":22690006.647}"#,
    "]}\n",
);

/// Every container slot costs at least two input bytes (`1,`) and at most 56
/// bytes (an object field: `String` + `JsonValue`); `Vec` doubling can hold twice
/// what it needs, and starts at four slots.
fn largest_allowed(input_len: usize) -> usize {
    (56 * input_len).max(4 * 56)
}

fn all_finite(v: &JsonValue) -> bool {
    match v {
        JsonValue::Num(x) => x.is_finite(),
        JsonValue::Arr(items) => items.iter().all(all_finite),
        JsonValue::Obj(fields) => fields.iter().all(|(_, v)| all_finite(v)),
        _ => true,
    }
}

/// Parse `bytes` the way a reader of a saved file would see them and check the
/// three properties. Returns whether it parsed.
fn check(bytes: &[u8], what: &str) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let (result, seen) = tracked(|| parse(&text));
    assert!(
        seen.largest <= largest_allowed(text.len()),
        "{what}: one allocation of {} bytes for {} bytes of input",
        seen.largest,
        text.len()
    );
    match result {
        Ok(v) => {
            assert!(all_finite(&v), "{what}: parsed to a non-finite number: {}", v.render());
            true
        }
        Err(ParseError { message, offset }) => {
            assert!(!message.is_empty() && offset <= text.len(), "{what}: {message} at {offset}");
            false
        }
    }
}

#[test]
fn hostile_json_gets_a_typed_error_and_bounded_allocation() {
    // The line the campaign's `queue_wait` event leaves in the log, with a string
    // that needs escapes and a float that renders with an exponent.
    let rec = Recorder::new();
    rec.event(
        31887.070000000003,
        "queue_wait",
        vec![
            ("accession", JsonValue::from("SRR90000017")),
            ("instance", JsonValue::from(12u64)),
            ("wait_secs", JsonValue::from(1e-300)),
            ("delta", JsonValue::from(-3i64)),
            ("note", JsonValue::from("caf\u{e9} \"quoted\"\n\tend")),
            ("first", JsonValue::from(true)),
            ("windows", JsonValue::from(vec![JsonValue::from(3600.0), JsonValue::Null])),
        ],
    );
    let line = rec.events_ndjson();
    let line = line.trim_end();
    let report = REPORT.trim_end();

    let mut cases = 0usize;
    for (name, text) in [("event-log line", line), ("timing report", report)] {
        let bytes = text.as_bytes();
        assert!(check(bytes, name), "premise: the pristine {name} parses");

        // Every proper prefix is an unfinished document.
        for cut in 0..bytes.len() {
            assert!(!check(&bytes[..cut], &format!("{name} cut to {cut} bytes")), "{name} cut to {cut} bytes parsed");
            cases += 1;
        }
        // Any single bit, and any structural byte anywhere: some of these are other
        // valid documents (a flipped digit), none may panic or over-allocate.
        let mut bad = bytes.to_vec();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                bad[at] = bytes[at] ^ (1 << bit);
                check(&bad, &format!("{name} with bit {bit} of byte {at} flipped"));
                cases += 1;
            }
            for &sub in STRUCTURAL {
                bad[at] = sub;
                check(&bad, &format!("{name} with byte {at} replaced by {:?}", sub as char));
                cases += 1;
            }
            bad[at] = bytes[at];
        }
    }
    assert!(cases > 8_000, "the sweep shrank to {cases} cases");

    // The defect this sweep found: a literal past f64's range was `Ok(Num(inf))`.
    let exponent_at = line.find("1e-300").expect("the line carries an exponent float") + 2;
    let mut overflowing = line.as_bytes().to_vec();
    overflowing[exponent_at] = b'9';
    let err = parse(std::str::from_utf8(&overflowing).unwrap()).unwrap_err();
    assert_eq!(err.message, "number overflows f64");
}
