//! The structured event log.
//!
//! Events are `(sim-time, kind, fields)` records serialized as NDJSON — one JSON
//! object per line, `t` and `kind` first, then kind-specific fields in a fixed
//! per-kind order. Emission order is the simulator's deterministic event order, so
//! a fixed-seed campaign's NDJSON dump is byte-identical across runs.

use crate::json::JsonValue;

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

    /// Serialize as one NDJSON line (no trailing newline).
    pub fn ndjson_line(&self) -> String {
        let mut out = String::new();
        self.write_ndjson_into(&mut out);
        out
    }

    /// Stream the NDJSON line into `out` (no trailing newline). Campaign logs
    /// run to thousands of lines; writing bytes directly — instead of building
    /// a `JsonValue` object per line — keeps the export cheap enough for the
    /// observer-overhead budget.
    pub fn write_ndjson_into(&self, out: &mut String) {
        out.push_str("{\"t\":");
        crate::json::write_f64(self.at_secs, out);
        out.push_str(",\"kind\":");
        crate::json::escape_into(self.kind, out);
        for (k, v) in &self.fields {
            out.push(',');
            crate::json::escape_into(k, out);
            out.push(':');
            v.write_into(out);
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_puts_time_and_kind_first() {
        let e = EventRecord {
            at_secs: 12.5,
            kind: "retry".into(),
            fields: vec![
                ("op", JsonValue::from("s3_get")),
                ("attempt", JsonValue::from(2u64)),
            ],
        };
        assert_eq!(e.ndjson_line(), "{\"t\":12.5,\"kind\":\"retry\",\"op\":\"s3_get\",\"attempt\":2}");
    }
}
