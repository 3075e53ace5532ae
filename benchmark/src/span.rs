//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The traced run walks the workload's own records through every
//! layer's public function on one thread, with a span around each
//! call. A span is `{id, parent, batch, name, start_ns, end_ns}`;
//! spans of one batch share `batch`. They stay in memory until the
//! run ends and are then written to
//! `benchmark/out/<workload>.trace.json`. A layer's *self time* is
//! its span's duration minus the part of that interval its child
//! spans cover, so nested calls are never counted twice.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the log.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Batch the span belongs to (spans of one batch share it).
    pub batch: u32,
    /// Layer-qualified name, e.g. `events.wire_encode`.
    pub name: &'static str,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// End, ns since the log's epoch.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Accumulated self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; the innermost open span is
    /// its parent.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        batch: u32,
        f: impl FnOnce(&mut SpanLog) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            batch,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        self_times(&self.spans)
    }

    /// The log as a JSON document (`{"spans": [...]}`).
    pub fn to_json(&self) -> Value {
        Value::obj(vec![(
            "spans",
            Value::Arr(
                self.spans
                    .iter()
                    .map(|s| {
                        Value::obj(vec![
                            ("id", Value::Num(s.id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("batch", Value::Num(s.batch as f64)),
                            ("name", Value::str(s.name)),
                            ("start_ns", Value::Num(s.start_ns as f64)),
                            ("end_ns", Value::Num(s.end_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }
}

/// Self time of `span` given its direct children: its duration minus
/// the length of the union of the children's intervals, each clipped
/// to the span. Overlapping children (two calls that ran concurrently
/// under one parent) are counted once.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| {
            (
                c.start_ns.clamp(span.start_ns, span.end_ns),
                c.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    span.duration_ns().saturating_sub(covered)
}

/// Self time per span name over a whole log.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let entry = out.entry(s.name).or_default();
        entry.calls += 1;
        entry.self_ns += self_time_ns(s, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            batch: 0,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..100, child 10..60, grandchild 20..30.
        let spans = [
            span(0, None, "root", 0, 100),
            span(1, Some(0), "child", 10, 60),
            span(2, Some(1), "grandchild", 20, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"].self_ns, 50, "grandchild is not the root's child");
        assert_eq!(t["child"].self_ns, 40);
        assert_eq!(t["grandchild"].self_ns, 10);
        let total: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(total, 100, "self times sum to the root's duration");
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 10..50 and 30..70 overlap on 30..50: union is 60.
        let root = span(0, None, "root", 0, 100);
        let a = span(1, Some(0), "a", 10, 50);
        let b = span(2, Some(0), "b", 30, 70);
        assert_eq!(self_time_ns(&root, &[&a, &b]), 40);
        // A child contained in another adds nothing.
        let c = span(3, Some(0), "c", 35, 45);
        assert_eq!(self_time_ns(&root, &[&a, &b, &c]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let root = span(0, None, "root", 100, 200);
        let early = span(1, Some(0), "early", 50, 120);
        let late = span(2, Some(0), "late", 190, 400);
        let outside = span(3, Some(0), "outside", 300, 350);
        assert_eq!(self_time_ns(&root, &[&early, &late, &outside]), 70);
    }

    #[test]
    fn log_records_parents_batches_and_same_name_totals() {
        let mut log = SpanLog::new();
        for batch in 0..3 {
            log.span("batch", batch, |log| {
                log.span("encode", batch, |_| std::hint::black_box(1 + 1));
                log.span("decode", batch, |_| std::hint::black_box(2 + 2));
            });
        }
        let spans = log.spans();
        assert_eq!(spans.len(), 9);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[4].batch, 1);
        let t = log.self_times();
        assert_eq!(t["encode"].calls, 3);
        let total: u64 = t.values().map(|s| s.self_ns).sum();
        let roots: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        assert_eq!(total, roots);
        let json = log.to_json();
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 9);
    }
}
