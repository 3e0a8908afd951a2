//! Single-pass streaming queries over saved NDJSON event logs.
//!
//! The recorder can *capture* everything (PR 2) and the exporters can *render*
//! everything (PR 4), but answering a question about a recorded run — "what was
//! the p95 queue wait per instance?", "how many faults per kind after t=600?" —
//! used to mean a hand-written one-off loop. This module is that loop, written
//! once: a [`Query`] filters events by kind / field equality / time window,
//! groups survivors by any combination of fields, and folds each group through
//! count / sum / min / max aggregates plus a mergeable [`QuantileSketch`] for
//! percentiles.
//!
//! **Determinism contract.** A query is a pure function of the log bytes:
//! groups live in `BTreeMap`s (sorted iteration), aggregate state is
//! order-invariant (count/sum/min/max commute; the sketch is a pure function of
//! the observation multiset), and floats render through [`crate::json::fmt_f64`].
//! Re-running the same query over a causally-equivalent reordering of the same
//! log yields byte-identical text and JSON output (property-tested in
//! `tests/tests/trace_query.rs`).
//!
//! The engine is streaming: one pass over the lines, state proportional to the
//! number of groups. Each line is read in place ([`json::Fields`], no `JsonValue`
//! tree) and looked up with a reused group key, so the allocator is asked only
//! for a new group, a new sum bucket or a new sketch bucket: a log's second copy
//! appended to it costs no allocator call (`tests/read_path_alloc.rs`).

use crate::json::{self, Field, Fields, JsonValue};
use crate::sketch::QuantileSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative-error bound for query-time percentile sketches. Equal to the SLO
/// engine's [`crate::slo::SLO_SKETCH_ALPHA`], so grouped quantiles are comparable
/// with live SLO ones.
pub const QUERY_SKETCH_ALPHA: f64 = 0.01;

/// One aggregate over a group's events.
#[derive(Clone, Debug, PartialEq)]
pub enum Agg {
    /// Number of events in the group.
    Count,
    /// Sum of a numeric field over the group (events missing the field are
    /// skipped).
    Sum(String),
    /// Minimum of a numeric field.
    Min(String),
    /// Maximum of a numeric field.
    Max(String),
    /// p50/p95/p99 of a numeric field via a mergeable [`QuantileSketch`].
    Quantiles(String),
}

impl Agg {
    /// Column header for the text table (`sum(wait_secs)`, `p95(wait_secs)` …).
    fn headers(&self) -> Vec<String> {
        match self {
            Agg::Count => vec!["count".to_string()],
            Agg::Sum(f) => vec![format!("sum({f})")],
            Agg::Min(f) => vec![format!("min({f})")],
            Agg::Max(f) => vec![format!("max({f})")],
            Agg::Quantiles(f) => {
                vec![format!("p50({f})"), format!("p95({f})"), format!("p99({f})")]
            }
        }
    }

    /// Parse the CLI/`parse_args` spelling: `count`, `sum:field`, `min:field`,
    /// `max:field`, `quantiles:field`.
    pub fn parse(spec: &str) -> Result<Agg, String> {
        if spec == "count" {
            return Ok(Agg::Count);
        }
        let (op, field) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad aggregate {spec:?}: expected op:field"))?;
        if field.is_empty() {
            return Err(format!("bad aggregate {spec:?}: empty field"));
        }
        match op {
            "sum" => Ok(Agg::Sum(field.to_string())),
            "min" => Ok(Agg::Min(field.to_string())),
            "max" => Ok(Agg::Max(field.to_string())),
            "quantiles" | "q" => Ok(Agg::Quantiles(field.to_string())),
            _ => Err(format!("unknown aggregate op {op:?} (count|sum|min|max|quantiles)")),
        }
    }
}

/// A declarative query over an NDJSON event log.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Query {
    /// Keep only events whose `kind` is in this list (empty = all kinds).
    pub kinds: Vec<String>,
    /// Keep only events where each named field's *rendered* value equals the
    /// given string (`instance=3` matches both `3` and `"3"`).
    pub where_eq: Vec<(String, String)>,
    /// Keep only events with `t >= since`.
    pub since: Option<f64>,
    /// Keep only events with `t <= until`.
    pub until: Option<f64>,
    /// Group surviving events by these field values (`kind` and `t` are
    /// addressable like any field). Empty = one global group.
    pub group_by: Vec<String>,
    /// Aggregates computed per group. Empty defaults to [`Agg::Count`].
    pub aggs: Vec<Agg>,
}

impl Query {
    /// Parse the `trace_query` CLI argument spelling, shared by the binary and
    /// the golden test so both exercise the same path:
    ///
    /// ```text
    /// --kind k1,k2  --where field=value  --since s  --until s
    /// --group-by f1,f2  --agg count --agg sum:wait_secs --agg quantiles:wait_secs
    /// ```
    pub fn parse_args(args: &[String]) -> Result<Query, String> {
        let mut q = Query::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut need = |name: &str| {
                it.next().map(|s| s.to_string()).ok_or_else(|| format!("{name} needs a value"))
            };
            match arg.as_str() {
                "--kind" => {
                    q.kinds.extend(need("--kind")?.split(',').map(str::to_string));
                }
                "--where" => {
                    let spec = need("--where")?;
                    let (k, v) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("bad --where {spec:?}: expected field=value"))?;
                    q.where_eq.push((k.to_string(), v.to_string()));
                }
                "--since" => q.since = Some(parse_time("--since", &need("--since")?)?),
                "--until" => q.until = Some(parse_time("--until", &need("--until")?)?),
                "--group-by" => {
                    q.group_by.extend(need("--group-by")?.split(',').map(str::to_string));
                }
                "--agg" => q.aggs.push(Agg::parse(&need("--agg")?)?),
                other => return Err(format!("unknown query argument {other:?}")),
            }
        }
        if q.aggs.is_empty() {
            q.aggs.push(Agg::Count);
        }
        Ok(q)
    }

    /// Run the query over an NDJSON log, one streaming pass. Fails on the
    /// first malformed line (with its 1-based line number).
    pub fn run(&self, ndjson: &str) -> Result<QueryResult, String> {
        let mut groups: BTreeMap<Vec<String>, Vec<AggState>> = BTreeMap::new();
        let mut scanned = 0u64;
        let mut matched = 0u64;
        // Reused from line to line: the record, the group key being looked up
        // (one cell per `group_by` field) and the text a `--where` compares.
        let mut event = Fields::default();
        let mut key = vec![String::new(); self.group_by.len()];
        let mut text = String::new();
        for (lineno, line) in ndjson.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            scanned += 1;
            // A line that is valid JSON but not an object has no fields: it fails on `t`.
            event.parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let Some(t) = event.get("t").and_then(Field::as_f64) else {
                return Err(format!("line {}: event without numeric \"t\"", lineno + 1));
            };
            if !self.matches(&event, t, &mut text) {
                continue;
            }
            matched += 1;
            for (cell, field) in key.iter_mut().zip(&self.group_by) {
                cell.clear();
                field_text(&event, field, cell);
            }
            // The key is copied for a group's first event only.
            let states = match groups.get_mut(key.as_slice()) {
                Some(states) => states,
                None => groups
                    .entry(key.clone())
                    .or_insert_with(|| self.aggs.iter().map(AggState::new).collect()),
            };
            for (state, agg) in states.iter_mut().zip(&self.aggs) {
                state.observe(agg, &event);
            }
        }
        Ok(QueryResult { query: self.clone(), scanned, matched, groups })
    }

    fn matches(&self, event: &Fields<'_>, t: f64, text: &mut String) -> bool {
        if let Some(since) = self.since {
            if t < since {
                return false;
            }
        }
        if let Some(until) = self.until {
            if t > until {
                return false;
            }
        }
        if !self.kinds.is_empty() {
            let kind = event.get("kind").and_then(Field::as_str).unwrap_or("");
            if !self.kinds.iter().any(|k| k == kind) {
                return false;
            }
        }
        self.where_eq.iter().all(|(field, want)| {
            text.clear();
            field_text(event, field, text);
            text == want
        })
    }
}

/// A `--since` / `--until` bound: any float but NaN, against which every
/// comparison is false and the filter silently off.
fn parse_time(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse()
        .ok()
        .filter(|t: &f64| !t.is_nan())
        .ok_or_else(|| format!("bad {flag} value {value:?}"))
}

/// Append a field's canonical text form to `out`: strings unquoted, numbers via
/// the writer's own float formatting, nested values as [`JsonValue::render`]
/// writes them, missing fields as `-` (so group keys are total).
fn field_text(event: &Fields<'_>, field: &str, out: &mut String) {
    match event.get(field) {
        None => out.push('-'),
        Some(v) => v.write_text(out),
    }
}

/// Order-invariant per-group aggregate state.
#[derive(Clone, Debug)]
enum AggState {
    Count(u64),
    /// Multiset of observed bit patterns; the sum is folded in sorted-bucket
    /// order at render time so it is a pure function of the value multiset.
    Fold { sum_exact: BTreeMap<u64, u64> },
    MinMax { min: f64, max: f64, n: u64 },
    Sketch(QuantileSketch),
}

impl AggState {
    fn new(agg: &Agg) -> AggState {
        match agg {
            Agg::Count => AggState::Count(0),
            Agg::Sum(_) => AggState::Fold { sum_exact: BTreeMap::new() },
            Agg::Min(_) | Agg::Max(_) => {
                AggState::MinMax { min: f64::INFINITY, max: f64::NEG_INFINITY, n: 0 }
            }
            Agg::Quantiles(_) => AggState::Sketch(QuantileSketch::new(QUERY_SKETCH_ALPHA)),
        }
    }

    fn observe(&mut self, agg: &Agg, event: &Fields<'_>) {
        let field = match agg {
            Agg::Count => {
                if let AggState::Count(n) = self {
                    *n += 1;
                }
                return;
            }
            Agg::Sum(f) | Agg::Min(f) | Agg::Max(f) | Agg::Quantiles(f) => f,
        };
        let Some(v) = event.get(field).and_then(Field::as_f64) else { return };
        match self {
            AggState::Count(_) => {}
            AggState::Fold { sum_exact } => {
                // Bit-bucketed multiset sum: group values by exact bit pattern
                // and fold buckets in sorted order at render time, so the sum
                // is a pure function of the observation *multiset* — no
                // stream-order dependence, same trick as the sketch.
                *sum_exact.entry(v.to_bits()).or_insert(0) += 1;
            }
            AggState::MinMax { min, max, n } => {
                *min = min.min(v);
                *max = max.max(v);
                *n += 1;
            }
            AggState::Sketch(s) => {
                if v.is_finite() && v >= 0.0 {
                    s.observe(v);
                }
            }
        }
    }

    /// Rendered cells for this aggregate, one per header column.
    fn cells(&self, agg: &Agg) -> Vec<String> {
        match (self, agg) {
            (AggState::Count(n), _) => vec![n.to_string()],
            (AggState::Fold { sum_exact, .. }, _) => {
                let mut sum = 0.0f64;
                for (&bits, &count) in sum_exact {
                    let v = f64::from_bits(bits);
                    for _ in 0..count {
                        sum += v;
                    }
                }
                vec![json::fmt_f64(sum)]
            }
            (AggState::MinMax { min, n, .. }, Agg::Min(_)) => {
                vec![if *n == 0 { "-".to_string() } else { json::fmt_f64(*min) }]
            }
            (AggState::MinMax { max, n, .. }, _) => {
                vec![if *n == 0 { "-".to_string() } else { json::fmt_f64(*max) }]
            }
            (AggState::Sketch(s), _) => {
                vec![json::fmt_f64(s.p50()), json::fmt_f64(s.p95()), json::fmt_f64(s.p99())]
            }
        }
    }

    /// The underlying sketch, for merge-based cross-checks.
    fn sketch(&self) -> Option<&QuantileSketch> {
        match self {
            AggState::Sketch(s) => Some(s),
            _ => None,
        }
    }
}

/// The result of a [`Query`]: per-group aggregate state plus scan counters.
#[derive(Clone, Debug)]
pub struct QueryResult {
    query: Query,
    /// NDJSON lines scanned.
    pub scanned: u64,
    /// Events that survived every filter.
    pub matched: u64,
    groups: BTreeMap<Vec<String>, Vec<AggState>>,
}

impl QueryResult {
    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The merged quantile sketch of aggregate column `agg_index` across all
    /// groups — the whole-log sketch, reconstructed from the group shards
    /// (exactly, because sketch merge is pointwise bucket addition). `None`
    /// when that aggregate is not [`Agg::Quantiles`] or no group observed it.
    pub fn merged_sketch(&self, agg_index: usize) -> Option<QuantileSketch> {
        let mut merged: Option<QuantileSketch> = None;
        for states in self.groups.values() {
            if let Some(s) = states.get(agg_index).and_then(AggState::sketch) {
                match &mut merged {
                    Some(m) => m.merge(s),
                    None => merged = Some(s.clone()),
                }
            }
        }
        merged
    }

    /// Byte-deterministic text table.
    pub fn render_text(&self) -> String {
        let mut headers: Vec<String> =
            self.query.group_by.iter().map(|g| format!("by:{g}")).collect();
        for agg in &self.query.aggs {
            headers.extend(agg.headers());
        }
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(self.groups.len());
        for (key, states) in &self.groups {
            let mut row = key.clone();
            for (state, agg) in states.iter().zip(&self.query.aggs) {
                row.extend(state.cells(agg));
            }
            rows.push(row);
        }
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace_query: {} matched of {} events, {} group(s)",
            self.matched,
            self.scanned,
            self.groups.len()
        );
        let fmt_row = |cells: &[String], out: &mut String| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:>w$}", w = *w);
            }
            out.push('\n');
        };
        fmt_row(&headers, &mut out);
        for row in &rows {
            fmt_row(row, &mut out);
        }
        out
    }

    /// Byte-deterministic JSON document (`scanned`, `matched`, `groups` array
    /// with group-key fields and one entry per aggregate column).
    pub fn render_json(&self) -> String {
        let mut headers: Vec<String> = Vec::new();
        for agg in &self.query.aggs {
            headers.extend(agg.headers());
        }
        let groups: Vec<JsonValue> = self
            .groups
            .iter()
            .map(|(key, states)| {
                let mut fields: Vec<(String, JsonValue)> = self
                    .query
                    .group_by
                    .iter()
                    .zip(key)
                    .map(|(g, v)| (g.clone(), JsonValue::from(v.as_str())))
                    .collect();
                let mut cells = Vec::new();
                for (state, agg) in states.iter().zip(&self.query.aggs) {
                    cells.extend(state.cells(agg));
                }
                for (h, c) in headers.iter().zip(&cells) {
                    // Numeric cells stay numeric in JSON; `-` stays a string.
                    let v = c
                        .parse::<f64>()
                        .map(JsonValue::from)
                        .unwrap_or_else(|_| JsonValue::from(c.as_str()));
                    fields.push((h.clone(), v));
                }
                JsonValue::Obj(fields)
            })
            .collect();
        let doc = JsonValue::obj(vec![
            ("scanned", JsonValue::from(self.scanned)),
            ("matched", JsonValue::from(self.matched)),
            ("groups", JsonValue::Arr(groups)),
        ]);
        let mut out = doc.render();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> String {
        [
            r#"{"t":1,"kind":"queue_wait","accession":"SRR2","instance":1,"wait_secs":4}"#,
            r#"{"t":2,"kind":"queue_wait","accession":"SRR1","instance":2,"wait_secs":10}"#,
            r#"{"t":3,"kind":"retry","op":"s3_get","attempt":1}"#,
            r#"{"t":9,"kind":"queue_wait","accession":"SRR3","instance":1,"wait_secs":2}"#,
            r#"{"t":12,"kind":"worker_crash","accession":"SRR1","instance":2,"wasted_secs":7}"#,
        ]
        .join("\n")
            + "\n"
    }

    #[test]
    fn filter_group_and_aggregate() {
        let q = Query::parse_args(
            &["--kind", "queue_wait", "--group-by", "instance", "--agg", "count", "--agg",
                "sum:wait_secs"]
                .map(String::from),
        )
        .unwrap();
        let r = q.run(&sample_log()).unwrap();
        assert_eq!(r.scanned, 5);
        assert_eq!(r.matched, 3);
        assert_eq!(r.n_groups(), 2);
        let text = r.render_text();
        assert!(text.contains("by:instance"), "{text}");
        assert!(text.contains("sum(wait_secs)"), "{text}");
        // instance 1: waits 4+2=6 over 2 events; instance 2: 10 over 1.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].trim_start().starts_with('1') && lines[2].contains('6'), "{text}");
        assert!(lines[3].trim_start().starts_with('2') && lines[3].contains("10"), "{text}");
    }

    #[test]
    fn time_window_and_where_filters_compose() {
        let q = Query::parse_args(
            &["--since", "2", "--until", "9", "--where", "instance=1"].map(String::from),
        )
        .unwrap();
        let r = q.run(&sample_log()).unwrap();
        assert_eq!(r.matched, 1, "only the t=9 instance-1 queue_wait survives");
    }

    #[test]
    fn ungrouped_query_counts_everything() {
        let q = Query::parse_args(&[]).unwrap();
        let r = q.run(&sample_log()).unwrap();
        assert_eq!(r.n_groups(), 1);
        assert!(r.render_text().contains("5 matched of 5 events"));
    }

    #[test]
    fn quantiles_column_renders_three_cells() {
        let q = Query::parse_args(
            &["--kind", "queue_wait", "--agg", "quantiles:wait_secs"].map(String::from),
        )
        .unwrap();
        let r = q.run(&sample_log()).unwrap();
        let text = r.render_text();
        assert!(text.contains("p50(wait_secs)"), "{text}");
        assert!(text.contains("p95(wait_secs)"), "{text}");
        assert!(text.contains("p99(wait_secs)"), "{text}");
        assert!(r.merged_sketch(0).is_some());
        assert_eq!(r.merged_sketch(0).unwrap().count(), 3);
    }

    #[test]
    fn missing_fields_group_under_dash_and_skip_aggregates() {
        let q = Query::parse_args(
            &["--group-by", "accession", "--agg", "sum:wait_secs"].map(String::from),
        )
        .unwrap();
        let r = q.run(&sample_log()).unwrap();
        // retry has no accession: groups under "-"; its missing wait_secs adds 0 events.
        let text = r.render_text();
        assert!(text.lines().any(|l| l.trim_start().starts_with('-')), "{text}");
    }

    #[test]
    fn json_rendering_is_numeric_where_possible() {
        let q = Query::parse_args(
            &["--kind", "queue_wait", "--group-by", "instance", "--agg", "sum:wait_secs"]
                .map(String::from),
        )
        .unwrap();
        let json = q.run(&sample_log()).unwrap().render_json();
        assert!(json.contains("\"instance\":\"1\""), "{json}");
        assert!(json.contains("\"sum(wait_secs)\":6"), "{json}");
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        let log = "{\"t\":1,\"kind\":\"a\"}\nnot json\n";
        let err = Query::default().run(log).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = Query::default().run("{\"kind\":\"no_time\"}\n").unwrap_err();
        assert!(err.contains("numeric \"t\""), "{err}");
        // A line nested past the parser's bound is an error too, not a stack overflow.
        let deep = format!("{{\"t\":1,\"kind\":\"a\",\"x\":{}\n", "[".repeat(200_000));
        let err = Query::default().run(&deep).unwrap_err();
        assert!(err.starts_with("line 1: nesting deeper than 64"), "{err}");
    }

    #[test]
    fn bad_cli_arguments_are_rejected() {
        for bad in [
            vec!["--agg", "median:wait_secs"],
            vec!["--agg", "sum:"],
            vec!["--where", "nokey"],
            vec!["--since", "soon"],
            vec!["--since", "nan"],
            vec!["--until", "NaN"],
            vec!["--frobnicate"],
            vec!["--kind"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(Query::parse_args(&args).is_err(), "{args:?} must be rejected");
        }
    }

    #[test]
    fn sum_is_order_invariant_bit_exactly() {
        // Values chosen so naive left-to-right summation differs across orders.
        let vals = [0.1, 0.2, 0.30000000000000004, 1e-9, 1e9];
        let fwd: String = vals
            .iter()
            .enumerate()
            .map(|(i, v)| format!("{{\"t\":{i},\"kind\":\"x\",\"v\":{}}}\n", json::fmt_f64(*v)))
            .collect();
        let rev: String = vals
            .iter()
            .rev()
            .enumerate()
            .map(|(i, v)| format!("{{\"t\":{i},\"kind\":\"x\",\"v\":{}}}\n", json::fmt_f64(*v)))
            .collect();
        let q = Query::parse_args(&["--agg", "sum:v"].map(String::from)).unwrap();
        assert_eq!(
            q.run(&fwd).unwrap().render_text(),
            q.run(&rev).unwrap().render_text(),
            "sum must not depend on stream order"
        );
    }
}
