//! The benchmark's own span store.
//!
//! Spans are recorded only around the benchmark's calls into the crates'
//! public entry points; no handle is passed into the program, so the
//! program runs exactly as in an untraced run. Each span keeps its
//! name, start, end, parent and the id of the operation (one flow, one
//! LBIST session or one fleet) it belongs to. A per-call outcome tag
//! (a PODEM call that aborted, say) and per-operation counts ride along,
//! so ratios are computed where the work happens.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    tag: &'static str,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Store {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
    counts: Vec<(u32, &'static str, f64)>,
}

/// A span recorder; the disabled recorder only runs the closures.
pub struct Tracer {
    epoch: Instant,
    store: Option<RefCell<Store>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            store: None,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            store: Some(RefCell::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.store.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Attributes the spans and counts that follow to operation `op`.
    pub fn set_op(&self, op: u32) {
        if let Some(s) = &self.store {
            s.borrow_mut().op = op;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(store) = &self.store else {
            return f();
        };
        let idx = {
            let mut s = store.borrow_mut();
            let idx = s.spans.len();
            let span = Span {
                name,
                op: s.op,
                parent: s.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
                tag: "",
            };
            s.spans.push(span);
            s.open.push(idx);
            idx
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut s = store.borrow_mut();
        s.open.pop();
        let span = &mut s.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Tags the most recently opened span, once it has closed without
    /// children: an outcome known only after the call returned.
    pub fn tag_last(&self, tag: &'static str) {
        if let Some(store) = &self.store {
            let mut s = store.borrow_mut();
            if let Some(span) = s.spans.last_mut() {
                span.tag = tag;
            }
        }
    }

    /// Adds `value` to the current operation's count `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if let Some(store) = &self.store {
            let mut s = store.borrow_mut();
            let op = s.op;
            s.counts.push((op, name, value));
        }
    }

    /// Ends recording and hands the spans over for aggregation.
    pub fn finish(self) -> Trace {
        let store = self.store.map(RefCell::into_inner).unwrap_or_default();
        assert!(store.open.is_empty(), "unbalanced spans");
        let mut child_ns = vec![0u64; store.spans.len()];
        for s in &store.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let self_ns = store
            .spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect();
        Trace {
            spans: store.spans,
            self_ns,
            counts: store.counts,
        }
    }
}

/// Finished spans with their self times (duration minus the time the
/// span's children cover).
pub struct Trace {
    spans: Vec<Span>,
    self_ns: Vec<u64>,
    counts: Vec<(u32, &'static str, f64)>,
}

impl Trace {
    /// The view of the operations `ops`.
    pub fn ops<'a>(&'a self, ops: &'a [u32]) -> OpView<'a> {
        OpView { trace: self, ops }
    }
}

/// Aggregates over a set of operations; per-operation values are means.
pub struct OpView<'a> {
    trace: &'a Trace,
    ops: &'a [u32],
}

impl OpView<'_> {
    fn per_op(&self, total: f64) -> f64 {
        total / self.ops.len().max(1) as f64
    }

    fn matching<'s>(
        &'s self,
        pred: impl Fn(&Span) -> bool + 's,
    ) -> impl Iterator<Item = (&'s Span, u64)> + 's {
        self.trace
            .spans
            .iter()
            .zip(&self.trace.self_ns)
            .filter(move |(s, _)| self.ops.contains(&s.op) && pred(s))
            .map(|(s, n)| (s, *n))
    }

    /// Self time of spans named `name`, in ms per operation.
    pub fn self_ms(&self, name: &str) -> f64 {
        let ns: u64 = self.matching(|s| s.name == name).map(|(_, n)| n).sum();
        self.per_op(ns as f64 / 1e6)
    }

    /// Self time of every span whose name starts with `prefix`, in ms
    /// per operation.
    pub fn prefix_self_ms(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .matching(|s| s.name.starts_with(prefix))
            .map(|(_, n)| n)
            .sum();
        self.per_op(ns as f64 / 1e6)
    }

    /// Durations of the spans named `name` (and tagged `tag`, if given),
    /// in microseconds, in call order.
    pub fn durations_us(&self, name: &str, tag: Option<&str>) -> Vec<f64> {
        self.matching(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(|(s, _)| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Spans named `name` (and tagged `tag`, if given), per operation.
    pub fn calls(&self, name: &str, tag: Option<&str>) -> f64 {
        self.per_op(self.durations_us(name, tag).len() as f64)
    }

    /// Sum of the counts named `name`, per operation.
    pub fn count(&self, name: &str) -> f64 {
        let total: f64 = self
            .trace
            .counts
            .iter()
            .filter(|(op, n, _)| self.ops.contains(op) && *n == name)
            .map(|(_, _, v)| v)
            .sum();
        self.per_op(total)
    }

    /// Spans whose name starts with `prefix`, in total.
    pub fn calls_with_prefix(&self, prefix: &str) -> usize {
        self.matching(|s| s.name.starts_with(prefix)).count()
    }

    /// Summed durations of the spans named `name` (and tagged `tag`, if
    /// given), in ms per operation.
    pub fn ms(&self, name: &str, tag: Option<&str>) -> f64 {
        self.per_op(self.durations_us(name, tag).iter().sum::<f64>() / 1e3)
    }

    /// Spans recorded, per operation.
    pub fn span_count(&self) -> f64 {
        self.per_op(self.matching(|_| true).count() as f64)
    }

    /// Self time per span name in ms per operation, largest first.
    pub fn self_table(&self) -> Vec<(&'static str, f64, usize)> {
        let mut by_name: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, n) in self.matching(|_| true) {
            let e = by_name.entry(s.name).or_default();
            e.0 += n;
            e.1 += 1;
        }
        let mut rows: Vec<_> = by_name
            .into_iter()
            .map(|(name, (ns, calls))| (name, self.per_op(ns as f64 / 1e6), calls))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }
}

/// The `q` quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::on();
        t.set_op(1);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        t.count("n", 3.0);
        let trace = t.finish();
        let ops = [1];
        let view = trace.ops(&ops);
        assert!(view.self_ms("inner") >= 5.0);
        assert!(view.self_ms("outer") < view.self_ms("inner"));
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(view.count("n"), 3.0);
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
