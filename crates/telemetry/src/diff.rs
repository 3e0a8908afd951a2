//! Run-to-run differential attribution: *why* is run B slower (or dearer)
//! than run A?
//!
//! A bench gate can say "regressed 9%"; this module says *where*: it aligns
//! two runs by stable keys (decomposition category, accession, instance,
//! critical-path edge) and renders the delta as a waterfall — "retry_waste
//! +38%, queue_wait −12%, …".
//!
//! The inputs are [`RunProfile`]s, a neutral summary either extracted straight
//! from a saved NDJSON event log ([`RunProfile::from_event_log`]) or built by
//! the orchestrator from a full campaign report (atlas enriches it with the
//! attribution ledger's categories and the critical-path edges).
//!
//! ## Exactness contract
//!
//! Three properties are load-bearing and property-tested:
//!
//! * **`diff(A, A)` is exactly empty.** Every per-key delta is `x - x`, which
//!   IEEE-754 guarantees is exactly `+0.0`; zero-delta entries are dropped, so
//!   the report has no sections.
//! * **Antisymmetry.** `diff(B, A)` deltas are the bit-exact negations of
//!   `diff(A, B)`: negation is exact and round-to-nearest is symmetric under
//!   it, so this survives the section-total folds too.
//! * **Contributions re-fold to the reported total.** Each section's
//!   `total_delta` is *defined* as the canonical left-to-right fold of its
//!   listed entry deltas — the same trick as the attribution ledger — so
//!   "parts sum to the total" holds with `==`, no epsilon. And because each
//!   category delta is computed as `b - a` of the two runs' ledger-fed
//!   category values, it equals the delta of the two ledgers' totals
//!   bit-exactly.
//!
//! Rendering (text and JSON) goes through [`crate::json::fmt_f64`] and sorted
//! containers only: byte-deterministic for fixed inputs.

use crate::json::{self, Field, Fields, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::AddAssign;

/// A neutral per-run summary: everything `diff` needs, nothing engine-specific.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunProfile {
    /// Display label ("baseline", "chaos", a file name…).
    pub label: String,
    /// End-to-end campaign makespan, simulated seconds.
    pub makespan_secs: f64,
    /// Total campaign dollars (0 when built from a bare log, which carries no
    /// pricing).
    pub cost_usd: f64,
    /// Latency decomposition, canonical ledger order
    /// (queue_wait/download/align/collect/retry_waste/idle_gap). These sum to
    /// the *turnaround total* over accessions (accession-seconds), not the
    /// makespan — parallelism is the difference.
    pub latency_categories: Vec<(String, f64)>,
    /// Cost decomposition, canonical ledger order
    /// (compute/retry/idle_amortized).
    pub cost_categories: Vec<(String, f64)>,
    /// Per-accession turnaround seconds (submit → completion).
    pub per_accession_secs: Vec<(String, f64)>,
    /// Per-instance attributed seconds (queue waits served + waste observed on
    /// that instance from a bare log; busy seconds when built from a report).
    pub per_instance_secs: Vec<(String, f64)>,
    /// Critical-path edges: "accession/stage" → dominant-stage seconds.
    pub critical_edges: Vec<(String, f64)>,
    /// Event counts per kind.
    pub event_counts: Vec<(String, u64)>,
}

impl RunProfile {
    /// Build a profile from a saved NDJSON event log alone. Makespan is the
    /// last timestamp; queue-wait and retry-waste categories, per-accession
    /// waits and per-instance attributions come from the `queue_wait` /
    /// `worker_crash` events the recorder already emits. Stage categories and
    /// dollars need the full report and stay 0 here.
    pub fn from_event_log(label: &str, ndjson: &str) -> Result<RunProfile, String> {
        let mut makespan = 0.0f64;
        let mut queue_wait = 0.0f64;
        let mut retry_waste = 0.0f64;
        let mut per_accession: BTreeMap<String, f64> = BTreeMap::new();
        let mut per_instance: BTreeMap<String, f64> = BTreeMap::new();
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        // Reused from line to line: the record and a non-string instance's text.
        let mut event = Fields::default();
        let mut instance = String::new();
        for (lineno, line) in ndjson.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            // A line that is valid JSON but not an object has no fields: it fails on `t`.
            event.parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let Some(t) = event.get("t").and_then(Field::as_f64) else {
                return Err(format!("line {}: event without numeric \"t\"", lineno + 1));
            };
            makespan = makespan.max(t);
            let kind = event.get("kind").and_then(Field::as_str).unwrap_or("");
            add_to(&mut counts, kind, 1);
            let secs = match kind {
                "queue_wait" => {
                    let w = event.get("wait_secs").and_then(Field::as_f64).unwrap_or(0.0);
                    queue_wait += w;
                    w
                }
                "worker_crash" => {
                    let w = event.get("wasted_secs").and_then(Field::as_f64).unwrap_or(0.0);
                    retry_waste += w;
                    w
                }
                _ => continue,
            };
            if let Some(acc) = event.get("accession").and_then(Field::as_str) {
                add_to(&mut per_accession, acc, secs);
            }
            if let Some(inst) = event.get("instance") {
                instance.clear();
                inst.write_text(&mut instance);
                add_to(&mut per_instance, &instance, secs);
            }
        }
        Ok(RunProfile {
            label: label.to_string(),
            makespan_secs: makespan,
            cost_usd: 0.0,
            latency_categories: vec![
                ("queue_wait".to_string(), queue_wait),
                ("retry_waste".to_string(), retry_waste),
            ],
            cost_categories: Vec::new(),
            per_accession_secs: per_accession.into_iter().collect(),
            per_instance_secs: per_instance.into_iter().collect(),
            critical_edges: Vec::new(),
            event_counts: counts.into_iter().collect(),
        })
    }
}

/// `map[key] += v`, starting from zero; the key is copied the first time only.
fn add_to<V: Default + AddAssign>(map: &mut BTreeMap<String, V>, key: &str, v: V) {
    match map.get_mut(key) {
        Some(sum) => *sum += v,
        None => {
            let mut sum = V::default();
            sum += v;
            map.insert(key.to_string(), sum);
        }
    }
}

/// One aligned key's before/after/delta. `delta` is always `b - a` bit-exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffEntry {
    /// The stable key the two runs were aligned on.
    pub name: String,
    /// Value in run A (0 when the key only exists in B).
    pub a: f64,
    /// Value in run B (0 when the key only exists in A).
    pub b: f64,
    /// `b - a`.
    pub delta: f64,
}

impl DiffEntry {
    /// Relative change against run A, `None` when A's value is 0.
    pub fn pct(&self) -> Option<f64> {
        if self.a == 0.0 {
            None
        } else {
            Some(self.delta / self.a * 100.0)
        }
    }
}

/// One waterfall section (latency categories, per-accession, …).
#[derive(Clone, Debug, PartialEq)]
pub struct DiffSection {
    /// Section title as rendered.
    pub title: String,
    /// Non-zero-delta entries, in display order (canonical order for category
    /// sections, |delta|-descending for key sections).
    pub entries: Vec<DiffEntry>,
    /// The canonical left-to-right fold of `entries[*].delta`, in listed
    /// order. Re-folding the listed deltas reproduces it with `==`.
    pub total_delta: f64,
}

impl DiffSection {
    fn build(title: &str, a: &[(String, f64)], b: &[(String, f64)], by_magnitude: bool) -> DiffSection {
        // Align by key. Category sections arrive in canonical ledger order —
        // preserve it (it is part of the fold contract); key sections get
        // sorted by |delta| so the waterfall leads with the biggest mover.
        let mut order: Vec<&str> = Vec::new();
        let mut av: BTreeMap<&str, f64> = BTreeMap::new();
        let mut bv: BTreeMap<&str, f64> = BTreeMap::new();
        for (k, v) in a {
            if !av.contains_key(k.as_str()) {
                order.push(k);
            }
            av.insert(k, *v);
        }
        for (k, v) in b {
            if !av.contains_key(k.as_str()) && !bv.contains_key(k.as_str()) {
                order.push(k);
            }
            bv.insert(k, *v);
        }
        let mut entries: Vec<DiffEntry> = order
            .into_iter()
            .map(|k| {
                let a = av.get(k).copied().unwrap_or(0.0);
                let b = bv.get(k).copied().unwrap_or(0.0);
                DiffEntry { name: k.to_string(), a, b, delta: b - a }
            })
            .filter(|e| e.delta != 0.0 || e.a != e.b)
            .collect();
        if by_magnitude {
            entries.sort_by(|x, y| {
                y.delta
                    .abs()
                    .partial_cmp(&x.delta.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| x.name.cmp(&y.name))
            });
        }
        let total_delta = entries.iter().fold(0.0, |acc, e| acc + e.delta);
        DiffSection { title: title.to_string(), entries, total_delta }
    }

    /// True when the two runs agreed on every key in this section.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The full differential attribution report between two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffReport {
    /// Run A's label.
    pub label_a: String,
    /// Run B's label.
    pub label_b: String,
    /// `B.makespan - A.makespan`, seconds.
    pub makespan_delta_secs: f64,
    /// `B.cost - A.cost`, dollars.
    pub cost_delta_usd: f64,
    /// Waterfall sections, fixed order: latency categories, cost categories,
    /// per-accession, per-instance, critical-path edges. Empty sections are
    /// omitted.
    pub sections: Vec<DiffSection>,
    /// Event-count deltas per kind (exact integers), non-zero only.
    pub event_count_deltas: Vec<(String, i64)>,
}

/// Diff two run profiles. See the module doc for the exactness contract.
pub fn diff(a: &RunProfile, b: &RunProfile) -> DiffReport {
    let sections = [
        ("latency (accession-seconds by category)", &a.latency_categories, &b.latency_categories, false),
        ("cost (usd by category)", &a.cost_categories, &b.cost_categories, false),
        ("per accession (turnaround secs)", &a.per_accession_secs, &b.per_accession_secs, true),
        ("per instance (attributed secs)", &a.per_instance_secs, &b.per_instance_secs, true),
        ("critical-path edges (dominant secs)", &a.critical_edges, &b.critical_edges, true),
    ]
    .into_iter()
    .map(|(title, sa, sb, by_mag)| DiffSection::build(title, sa, sb, by_mag))
    .filter(|s| !s.is_empty())
    .collect();

    let mut kinds: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
    for (k, n) in &a.event_counts {
        kinds.entry(k).or_insert((0, 0)).0 = *n as i64;
    }
    for (k, n) in &b.event_counts {
        kinds.entry(k).or_insert((0, 0)).1 = *n as i64;
    }
    let event_count_deltas = kinds
        .into_iter()
        .filter(|&(_, (na, nb))| na != nb)
        .map(|(k, (na, nb))| (k.to_string(), nb - na))
        .collect();

    DiffReport {
        label_a: a.label.clone(),
        label_b: b.label.clone(),
        makespan_delta_secs: b.makespan_secs - a.makespan_secs,
        cost_delta_usd: b.cost_usd - a.cost_usd,
        sections,
        event_count_deltas,
    }
}

impl DiffReport {
    /// True iff the two runs were indistinguishable on every compared surface.
    pub fn is_empty(&self) -> bool {
        self.makespan_delta_secs == 0.0
            && self.cost_delta_usd == 0.0
            && self.sections.is_empty()
            && self.event_count_deltas.is_empty()
    }

    /// Byte-deterministic waterfall table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run diff: {} -> {}", self.label_a, self.label_b);
        if self.is_empty() {
            out.push_str("  runs are identical on every compared surface\n");
            return out;
        }
        let _ = writeln!(
            out,
            "  makespan {:>14}s    cost {:>12}$",
            signed(self.makespan_delta_secs),
            signed(self.cost_delta_usd)
        );
        for s in &self.sections {
            let _ = writeln!(out, "  {} [total {}]", s.title, signed(s.total_delta));
            for e in &s.entries {
                let pct = match e.pct() {
                    Some(p) => format!("{}%", signed(p)),
                    None => "new".to_string(),
                };
                let _ = writeln!(
                    out,
                    "    {:<28} {:>14} -> {:>14}  {:>14}  {:>10}",
                    e.name,
                    json::fmt_f64(e.a),
                    json::fmt_f64(e.b),
                    signed(e.delta),
                    pct
                );
            }
        }
        if !self.event_count_deltas.is_empty() {
            out.push_str("  event counts\n");
            for (k, d) in &self.event_count_deltas {
                let _ = writeln!(out, "    {k:<28} {d:>+14}");
            }
        }
        out
    }

    /// Byte-deterministic JSON document mirroring the text report.
    pub fn render_json(&self) -> String {
        let sections: Vec<JsonValue> = self
            .sections
            .iter()
            .map(|s| {
                let entries: Vec<JsonValue> = s
                    .entries
                    .iter()
                    .map(|e| {
                        JsonValue::obj(vec![
                            ("name", JsonValue::from(e.name.as_str())),
                            ("a", JsonValue::from(e.a)),
                            ("b", JsonValue::from(e.b)),
                            ("delta", JsonValue::from(e.delta)),
                        ])
                    })
                    .collect();
                JsonValue::obj(vec![
                    ("title", JsonValue::from(s.title.as_str())),
                    ("total_delta", JsonValue::from(s.total_delta)),
                    ("entries", JsonValue::Arr(entries)),
                ])
            })
            .collect();
        let counts: Vec<JsonValue> = self
            .event_count_deltas
            .iter()
            .map(|(k, d)| {
                JsonValue::obj(vec![
                    ("kind", JsonValue::from(k.as_str())),
                    ("delta", JsonValue::from(*d)),
                ])
            })
            .collect();
        let doc = JsonValue::obj(vec![
            ("a", JsonValue::from(self.label_a.as_str())),
            ("b", JsonValue::from(self.label_b.as_str())),
            ("makespan_delta_secs", JsonValue::from(self.makespan_delta_secs)),
            ("cost_delta_usd", JsonValue::from(self.cost_delta_usd)),
            ("sections", JsonValue::Arr(sections)),
            ("event_count_deltas", JsonValue::Arr(counts)),
        ]);
        let mut out = doc.render();
        out.push('\n');
        out
    }
}

/// Signed canonical float: an explicit `+` on positives so waterfalls read as
/// waterfalls (`+38.2`, `-12.07`).
fn signed(v: f64) -> String {
    let s = json::fmt_f64(v);
    if v > 0.0 {
        format!("+{s}")
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(label: &str, scale: f64) -> RunProfile {
        RunProfile {
            label: label.to_string(),
            makespan_secs: 1000.0 * scale,
            cost_usd: 2.5 * scale,
            latency_categories: vec![
                ("queue_wait".into(), 40.0 * scale),
                ("align".into(), 300.0),
                ("retry_waste".into(), 17.3 * (scale - 1.0).max(0.0)),
            ],
            cost_categories: vec![("compute".into(), 2.0), ("retry".into(), 0.5 * scale)],
            per_accession_secs: vec![("SRR1".into(), 100.0 * scale), ("SRR2".into(), 90.0)],
            per_instance_secs: vec![("0".into(), 55.0 * scale)],
            critical_edges: vec![("SRR1/align".into(), 80.0 * scale)],
            event_counts: vec![("queue_wait".into(), (2.0 * scale) as u64)],
        }
    }

    #[test]
    fn diff_of_identical_runs_is_exactly_empty() {
        let a = profile("a", 1.37);
        let d = diff(&a, &a);
        assert!(d.is_empty(), "{d:?}");
        assert!(d.render_text().contains("identical"), "{}", d.render_text());
    }

    #[test]
    fn deltas_negate_under_argument_swap() {
        let (a, b) = (profile("a", 1.0), profile("b", 1.9));
        let (ab, ba) = (diff(&a, &b), diff(&b, &a));
        assert_eq!(ab.makespan_delta_secs, -ba.makespan_delta_secs);
        assert_eq!(ab.cost_delta_usd, -ba.cost_delta_usd);
        assert_eq!(ab.sections.len(), ba.sections.len());
        for (sa, sb) in ab.sections.iter().zip(&ba.sections) {
            assert_eq!(sa.total_delta, -sb.total_delta, "{}", sa.title);
            for (ea, eb) in sa.entries.iter().zip(&sb.entries) {
                assert_eq!(ea.name, eb.name);
                assert_eq!(ea.delta, -eb.delta, "{}", ea.name);
            }
        }
        for ((ka, da), (kb, db)) in ab.event_count_deltas.iter().zip(&ba.event_count_deltas) {
            assert_eq!(ka, kb);
            assert_eq!(*da, -db);
        }
    }

    #[test]
    fn section_totals_refold_from_listed_entries() {
        let d = diff(&profile("a", 1.0), &profile("b", 2.2));
        for s in &d.sections {
            let refold = s.entries.iter().fold(0.0, |acc, e| acc + e.delta);
            assert_eq!(refold, s.total_delta, "section {} must refold bit-exactly", s.title);
        }
    }

    #[test]
    fn keys_unique_to_one_side_appear_with_zero_on_the_other() {
        let mut a = profile("a", 1.0);
        let mut b = profile("b", 1.0);
        a.per_accession_secs.push(("SRR_ONLY_A".into(), 7.0));
        b.per_accession_secs.push(("SRR_ONLY_B".into(), 9.0));
        let d = diff(&a, &b);
        let sec = d
            .sections
            .iter()
            .find(|s| s.title.starts_with("per accession"))
            .expect("per-accession section");
        let only_a = sec.entries.iter().find(|e| e.name == "SRR_ONLY_A").unwrap();
        assert_eq!((only_a.a, only_a.b, only_a.delta), (7.0, 0.0, -7.0));
        let only_b = sec.entries.iter().find(|e| e.name == "SRR_ONLY_B").unwrap();
        assert_eq!((only_b.a, only_b.b, only_b.delta), (0.0, 9.0, 9.0));
        assert_eq!(only_b.pct(), None, "new keys have no baseline to percent against");
    }

    #[test]
    fn key_sections_lead_with_the_biggest_mover() {
        let d = diff(&profile("a", 1.0), &profile("b", 3.0));
        let sec = d
            .sections
            .iter()
            .find(|s| s.title.starts_with("per accession"))
            .unwrap();
        assert_eq!(sec.entries[0].name, "SRR1", "SRR1 moved 200s, SRR2 did not move");
        assert!(sec.entries.iter().all(|e| e.name != "SRR2"), "zero-delta keys are dropped");
    }

    #[test]
    fn from_event_log_extracts_waits_waste_and_counts() {
        let log = concat!(
            "{\"t\":5,\"kind\":\"queue_wait\",\"accession\":\"SRR1\",\"instance\":0,\"wait_secs\":5}\n",
            "{\"t\":9,\"kind\":\"queue_wait\",\"accession\":\"SRR2\",\"instance\":1,\"wait_secs\":2.5}\n",
            "{\"t\":40,\"kind\":\"worker_crash\",\"accession\":\"SRR1\",\"instance\":0,\"wasted_secs\":11}\n",
            "{\"t\":90,\"kind\":\"scale_in\",\"instance\":1,\"pending\":0}\n",
        );
        let p = RunProfile::from_event_log("chaos", log).unwrap();
        assert_eq!(p.makespan_secs, 90.0);
        assert_eq!(p.latency_categories[0], ("queue_wait".to_string(), 7.5));
        assert_eq!(p.latency_categories[1], ("retry_waste".to_string(), 11.0));
        assert_eq!(p.per_accession_secs[0], ("SRR1".to_string(), 16.0));
        assert_eq!(p.per_instance_secs, vec![("0".to_string(), 16.0), ("1".to_string(), 2.5)]);
        assert_eq!(
            p.event_counts,
            vec![
                ("queue_wait".to_string(), 2),
                ("scale_in".to_string(), 1),
                ("worker_crash".to_string(), 1)
            ]
        );
        let p2 = RunProfile::from_event_log("chaos", log).unwrap();
        assert_eq!(diff(&p, &p2).is_empty(), true, "same log twice diffs empty");
    }

    #[test]
    fn renders_are_deterministic_and_label_both_runs() {
        let d = diff(&profile("base", 1.0), &profile("cand", 1.4));
        assert_eq!(d.render_text(), d.render_text());
        assert_eq!(d.render_json(), d.render_json());
        assert!(d.render_text().starts_with("run diff: base -> cand"));
        assert!(d.render_json().contains("\"a\":\"base\""));
    }
}
