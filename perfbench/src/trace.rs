//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer's
//! public API: name, start, end, the span that was open when it began
//! (its parent) and the iteration ("run") it belongs to.  Spans stay in
//! memory and are written out once, at the end.  Untraced runs never
//! install a tracer, so [`span`] then costs one thread-local lookup.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

/// One recorded interval, in nanoseconds since the tracer was installed.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over every span of that name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording spans on this thread.
pub fn install() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        })
    });
}

/// Stop recording and hand back every span recorded on this thread.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.spans).unwrap_or_default())
}

/// Tag the spans that follow with iteration number `run`.
pub fn set_run(run: u32) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.run = run;
        }
    });
}

/// An open span, closed by [`end`].
#[must_use]
pub struct Open(Option<usize>);

/// Open a span called `name`; spans close in the reverse order they open.
pub fn begin(name: &'static str) -> Open {
    Open(TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|t| {
            let index = t.spans.len();
            t.spans.push(Span {
                name,
                start_ns: t.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: t.open.last().copied(),
                run: t.run,
            });
            t.open.push(index);
            index
        })
    }))
}

/// Close a span opened by [`begin`].
pub fn end(open: Open) {
    if let Some(index) = open.0 {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[index].end_ns = t.origin.elapsed().as_nanos() as u64;
                let closed = t.open.pop();
                debug_assert_eq!(closed, Some(index), "spans close in LIFO order");
            }
        });
    }
}

/// Run `f` inside a span called `name` (a plain call when no tracer is
/// installed).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let open = begin(name);
    let out = f();
    end(open);
    out
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// children are clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
    }
    out
}

/// The spans as a JSON document (one object per span, plus self time).
pub fn to_json(spans: &[Span]) -> Value {
    let rows: Vec<Value> = spans
        .iter()
        .zip(self_times(spans))
        .map(|(s, self_ns)| {
            json!({
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "parent": s.parent,
                "run": s.run,
                "self_ns": self_ns,
            })
        })
        .collect();
    Value::Seq(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            s("root", 0, 100, None),
            s("a", 10, 30, Some(0)),
            s("b", 40, 70, Some(0)),
            s("a.child", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            s("root", 0, 100, None),
            s("x", 10, 30, Some(0)),
            s("y", 20, 50, Some(0)),
            s("z", 90, 120, Some(0)),
        ];
        // Covered: [10, 50) and [90, 100) = 50 ns.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_root_twice() {
        let spans = vec![
            s("root", 0, 100, None),
            s("mid", 0, 60, Some(0)),
            s("leaf", 0, 60, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 0, 60]);
        let totals = totals_by_name(&spans);
        let sum_self: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(sum_self, 100, "self times partition the root interval");
    }

    #[test]
    fn recorder_nests_spans_and_tags_runs() {
        install();
        set_run(3);
        let v = span("outer", || span("inner", || 7));
        assert_eq!(v, 7);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn span_without_tracer_is_a_plain_call() {
        assert!(take().is_empty());
        assert_eq!(span("ignored", || 5), 5);
        assert!(take().is_empty());
    }
}
