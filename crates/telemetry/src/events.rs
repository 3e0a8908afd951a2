//! The structured event log.
//!
//! Events are `(sim-time, kind, fields)` records serialized as NDJSON — one JSON
//! object per line, `t` and `kind` first, then kind-specific fields in a fixed
//! per-kind order. Emission order is the simulator's deterministic event order, so
//! a fixed-seed campaign's NDJSON dump is byte-identical across runs.
//!
//! The log is the store: [`EventLog`] renders each record's line once, as it is
//! recorded, and keeps a fixed-size index entry per line instead of the record.

use crate::json::{escape_into, write_f64, JsonValue};
use crate::monitor::AlertEvent;
use std::ops::Range;
use std::sync::Arc;

/// One structured event.
///
/// Kinds and field names are schema constants (`&'static str`), not data: every
/// emitter names them with literals, and the hot path (progress streaming emits
/// thousands of records per campaign) must not allocate a `String` per key.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRecord {
    /// Simulated seconds since campaign start.
    pub at_secs: f64,
    /// Event kind, snake_case (`fault_injected`, `retry`, `spot_interruption`, ...).
    pub kind: &'static str,
    /// Kind-specific fields, serialized in this order.
    pub fields: Vec<(&'static str, JsonValue)>,
}

impl EventRecord {
    /// The value of field `name` (the first, if an emitter repeated it).
    pub fn field(&self, name: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Stream the NDJSON line into `out` (no trailing newline) and return the
    /// byte range of the fields in `out`: `"k":v` pairs joined by commas, without
    /// the braces (empty when there are none), exactly what a Perfetto instant's
    /// `args` object holds.
    pub(crate) fn write_ndjson_into(&self, out: &mut String) -> Range<usize> {
        out.push_str("{\"t\":");
        write_f64(self.at_secs, out);
        out.push_str(",\"kind\":");
        escape_into(self.kind, out);
        let mut start = out.len();
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push(',');
            if i == 0 {
                start = out.len();
            }
            escape_into(k, out);
            out.push(':');
            v.write_into(out);
        }
        let end = out.len();
        out.push('}');
        start..end
    }

    /// The process id the Perfetto export files this event under: its first
    /// `instance` field, when that is a non-negative integer.
    fn pid(&self) -> Option<u64> {
        match self.field("instance")? {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }
}

/// Where one recorded event sits in the log, and what the Perfetto export reads
/// of it besides its fields' bytes.
#[derive(Clone, Debug)]
pub(crate) struct Indexed {
    /// Simulated seconds since campaign start.
    pub(crate) at_secs: f64,
    /// Event kind.
    pub(crate) kind: &'static str,
    /// Byte range of the fields in the log (see [`EventRecord::write_ndjson_into`]).
    pub(crate) fields: Range<usize>,
    /// The `instance` the event names, if any.
    pub(crate) pid: Option<u64>,
}

/// The kinds whose whole record is kept beside its line: `alert` for
/// [`crate::Recorder::alerts`], `slo_budget` for the Perfetto counter track.
const KEPT_KINDS: [&str; 2] = ["alert", "slo_budget"];

/// The first open buffer's capacity; each next one doubles, up to [`MAX_BUFFER`].
const MIN_BUFFER: usize = 4 << 10;
/// The largest open buffer (a longer line gets a buffer of its own length).
const MAX_BUFFER: usize = 1 << 20;

/// The event log as a [`crate::Recorder`] keeps it: every event's NDJSON line,
/// rendered once when it is recorded, and a fixed-size index entry per line
/// (timestamp, kind, the byte range of its fields, its instance). The records
/// themselves are dropped once rendered, except `alert` and `slo_budget` ones.
///
/// Nothing is allocated before the first record, so a disabled recorder's log
/// costs one pointer.
///
/// A clone shares the store: what a [`crate::PerfettoTrace`] keeps of the log is
/// the recorder's own index, kept records and gathered bytes. Recording into a
/// log whose store is shared copies the store first (`Arc::make_mut`), so a
/// clone never sees later records.
#[derive(Clone, Debug, Default)]
pub struct EventLog(Option<Arc<Store>>);

#[derive(Clone, Debug, Default)]
struct Store {
    /// The lines gathered by the last [`EventLog::gather`], in one buffer shared
    /// with every [`crate::CampaignTelemetry`] summarized from it.
    gathered: Option<Arc<String>>,
    /// The lines recorded since, in buffers that never reallocate: a line goes
    /// into the last one if it fits, else into a new one. Growing one buffer by
    /// doubling would request ~3x the log's bytes from the allocator.
    open: Vec<String>,
    /// Bytes in `gathered` and `open` together.
    bytes: usize,
    /// The line being rendered, before it is copied into `open`.
    line: String,
    index: Vec<Indexed>,
    kept: Vec<EventRecord>,
}

impl EventLog {
    /// Render `record` onto the log and index it: the one place an event's
    /// fields are written.
    pub(crate) fn push(&mut self, record: EventRecord) {
        let store = Arc::make_mut(self.0.get_or_insert_with(Arc::default));
        let line = &mut store.line;
        line.clear();
        let fields = record.write_ndjson_into(line);
        line.push('\n');
        let fits = store.open.last().is_some_and(|b| b.capacity() - b.len() >= line.len());
        if !fits {
            let last = store.open.last().map_or(MIN_BUFFER / 2, String::capacity);
            let capacity = (2 * last).clamp(MIN_BUFFER, MAX_BUFFER).max(line.len());
            store.open.push(String::with_capacity(capacity));
        }
        if let Some(buffer) = store.open.last_mut() {
            buffer.push_str(line);
        }
        let at = store.bytes;
        store.bytes += line.len();
        store.index.push(Indexed {
            at_secs: record.at_secs,
            kind: record.kind,
            fields: at + fields.start..at + fields.end,
            pid: record.pid(),
        });
        if KEPT_KINDS.contains(&record.kind) {
            store.kept.push(record);
        }
    }

    /// Copy the open buffers' lines after the gathered ones, into one buffer
    /// of exactly the log's length, freeing each open buffer once copied. A
    /// no-op when nothing was recorded since the last call.
    pub(crate) fn gather(&mut self) {
        let Some(store) = self.0.as_mut() else { return };
        if store.open.is_empty() {
            return;
        }
        let store = Arc::make_mut(store);
        let mut all = String::with_capacity(store.bytes);
        if let Some(gathered) = store.gathered.take() {
            all.push_str(&gathered);
        }
        for buffer in store.open.drain(..) {
            all.push_str(&buffer);
        }
        store.gathered = Some(Arc::new(all));
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |s| s.index.len())
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The whole log as NDJSON: one line per event, in emission order, each
    /// ending in a newline. A log lent by [`crate::Recorder::read`] is whole.
    pub fn ndjson(&self) -> &str {
        let Some(store) = self.0.as_deref() else { return "" };
        debug_assert!(store.open.is_empty(), "the event log was read before it was gathered");
        store.gathered.as_deref().map_or("", String::as_str)
    }

    /// The gathered buffer itself, shared rather than copied.
    pub(crate) fn shared(&self) -> Arc<String> {
        self.0.as_ref().and_then(|s| s.gathered.clone()).unwrap_or_default()
    }

    /// The index entries, in emission order.
    pub(crate) fn entries(&self) -> &[Indexed] {
        self.0.as_ref().map_or(&[], |s| &s.index)
    }

    /// The fields of `entry` as the log holds them.
    pub(crate) fn fields(&self, entry: &Indexed) -> &str {
        &self.ndjson()[entry.fields.clone()]
    }

    fn kept(&self) -> &[EventRecord] {
        self.0.as_ref().map_or(&[], |s| &s.kept)
    }

    /// Every alert in the log, in firing order.
    pub(crate) fn alerts(&self) -> impl Iterator<Item = AlertEvent> + '_ {
        self.kept().iter().filter_map(AlertEvent::from_event_record)
    }

    /// The `slo_budget` records, in emission order.
    pub(crate) fn budgets(&self) -> impl Iterator<Item = &EventRecord> {
        self.kept().iter().filter(|e| e.kind == "slo_budget")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_puts_time_and_kind_first() {
        let mut log = EventLog::default();
        log.push(EventRecord {
            at_secs: 12.5,
            kind: "retry",
            fields: vec![("op", JsonValue::from("s3_get")), ("attempt", JsonValue::from(2u64))],
        });
        log.push(EventRecord { at_secs: 13.0, kind: "scale_out", fields: vec![] });
        log.gather();
        assert_eq!(
            log.ndjson(),
            "{\"t\":12.5,\"kind\":\"retry\",\"op\":\"s3_get\",\"attempt\":2}\n\
             {\"t\":13,\"kind\":\"scale_out\"}\n"
        );
        let fields: Vec<&str> = log.entries().iter().map(|e| log.fields(e)).collect();
        assert_eq!(fields, ["\"op\":\"s3_get\",\"attempt\":2", ""]);
    }

    #[test]
    fn lines_gather_across_buffers_and_reads() {
        let pad = |i: usize| "x".repeat(if i == 1_500 { MAX_BUFFER + 10 } else { i % 300 });
        let record = |i: usize| EventRecord {
            at_secs: i as f64,
            kind: "k",
            fields: vec![("instance", JsonValue::from(i)), ("pad", JsonValue::from(pad(i)))],
        };
        let mut log = EventLog::default();
        let mut expected = String::new();
        let mut first_read = None;
        // Short lines across several open buffers, one line longer than the
        // largest buffer, and a gather in between whose result stays shared.
        for i in 0..3_000 {
            let fields = format!("\"instance\":{i},\"pad\":\"{}\"", pad(i));
            expected.push_str(&format!("{{\"t\":{i},\"kind\":\"k\",{fields}}}\n"));
            log.push(record(i));
            if i == 1_000 {
                log.gather();
                first_read = Some(log.shared());
            }
        }
        log.gather();
        assert_eq!(log.ndjson(), expected);
        assert_eq!(log.shared().capacity(), expected.len(), "gathered into exactly its bytes");
        assert!(expected.starts_with(first_read.unwrap().as_str()), "an earlier read is kept");
        for (i, e) in log.entries().iter().enumerate() {
            assert_eq!(log.fields(e), format!("\"instance\":{i},\"pad\":\"{}\"", pad(i)));
        }
    }

    #[test]
    fn only_integer_instances_scope_an_event() {
        let mut log = EventLog::default();
        let values = [JsonValue::from(7u64), JsonValue::Int(-1), JsonValue::from("7"), JsonValue::Int(3)];
        for v in values {
            log.push(EventRecord { at_secs: 0.0, kind: "k", fields: vec![("instance", v)] });
        }
        let pids: Vec<Option<u64>> = log.entries().iter().map(|e| e.pid).collect();
        assert_eq!(pids, [Some(7), None, None, Some(3)]);
    }
}
