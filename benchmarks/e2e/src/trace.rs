//! In-memory spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in a `Vec` until the run ends and are written out once, so recording
//! costs two clock reads and a push. A span's parent is whatever span was open
//! when it began; `op_id` ties the spans of one operation (an accession, a
//! campaign pass) together.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 1-based index of the enclosing span, 0 for a root.
    pub parent: u32,
    pub op_id: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    /// 1-based span index, 0 when the tracer keeps nothing.
    id: u32,
    start_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    /// Off for the untraced run: `begin`/`end` still time the call, and keep nothing.
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op_id: u64) -> Open {
        let start_ns = self.now_ns();
        if !self.recording {
            return Open { id: 0, start_ns };
        }
        let parent = self.open.last().copied().unwrap_or(0);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        let id = self.spans.len() as u32;
        self.open.push(id);
        Open { id, start_ns }
    }

    /// Close the innermost open span, which must be `span`; returns its seconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let end_ns = self.now_ns();
        if self.recording {
            let top = self.open.pop();
            assert_eq!(top, Some(span.id), "spans must close innermost first");
            self.spans[span.id as usize - 1].end_ns = end_ns;
        }
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Time one call as a span; returns its result and its seconds.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, op_id);
        let out = f();
        (out, self.end(open))
    }

    /// Index to pass to [`Tracer::busy_s_since`] to total only later spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Seconds covered by spans named `name` recorded at or after `mark`.
    pub fn busy_s_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self seconds per span name: each span's duration minus the part its
    /// children cover, totalled by name.
    pub fn self_s_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                child_ns[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(*children);
            *out.entry(s.name).or_default() += self_ns as f64 / 1e9;
        }
        out
    }

    /// One JSON object per span, in recording order; ids are 1-based line numbers.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.parent, s.op_id
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording: true,
            spans,
            open: Vec::new(),
        }
    }

    #[test]
    fn nesting_sets_parents_and_closes_in_order() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        t.end(inner);
        t.span("inner", 7, || ());
        t.end(outer);
        let root = t.begin("root2", 8);
        t.end(root);
        let parents: Vec<u32> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [0, 1, 1, 0]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn a_tracer_that_is_off_times_calls_and_keeps_nothing() {
        let mut t = Tracer::new(false);
        let outer = t.begin("outer", 1);
        let ((), inner_s) = t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer_s = t.end(outer);
        assert!(inner_s >= 0.002 && outer_s >= inner_s);
        assert_eq!(t.mark(), 0);
        assert_eq!(t.to_ndjson(), "");
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = fixed(vec![
            Span {
                name: "acc",
                start_ns: 0,
                end_ns: 1_000,
                parent: 0,
                op_id: 1,
            },
            Span {
                name: "fetch",
                start_ns: 0,
                end_ns: 300,
                parent: 1,
                op_id: 1,
            },
            Span {
                name: "align",
                start_ns: 300,
                end_ns: 900,
                parent: 1,
                op_id: 1,
            },
            Span {
                name: "acc",
                start_ns: 1_000,
                end_ns: 1_500,
                parent: 0,
                op_id: 2,
            },
            Span {
                name: "align",
                start_ns: 1_000,
                end_ns: 1_400,
                parent: 4,
                op_id: 2,
            },
        ]);
        let own = t.self_s_by_name();
        assert!((own["acc"] - 200e-9).abs() < 1e-15);
        assert!((own["fetch"] - 300e-9).abs() < 1e-15);
        assert!((own["align"] - 1_000e-9).abs() < 1e-15);
        assert!((t.busy_s_since(0, "align") - 1_000e-9).abs() < 1e-15);
        assert!((t.busy_s_since(3, "align") - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn ndjson_has_one_object_per_span() {
        let t = fixed(vec![Span {
            name: "a",
            start_ns: 1,
            end_ns: 2,
            parent: 0,
            op_id: 3,
        }]);
        assert_eq!(
            t.to_ndjson(),
            "{\"name\":\"a\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"op_id\":3}\n"
        );
    }
}
