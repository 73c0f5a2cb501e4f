//! Request-scoped spans and counters for the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary: the
//! workloads wrap their calls into a layer's public functions in [`span`].
//! Each client thread keeps its own recorder, so recording takes no lock.
//! A span outside a traced request costs one thread-local read and records
//! nothing, which is what the untraced laps of a traced run rely on.
//!
//! When a traced request ends, the self time of each of its spans (the
//! span's duration minus the part of it that child spans cover) is folded
//! into per-layer totals. The first [`KEEP_SPANS`] spans are also kept
//! verbatim for the trace file; the totals count every span either way.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use whale_sim::json::{num, obj, s, JsonValue};

/// Name of the span that covers a whole request.
pub const ROOT: &str = "request";

/// Spans kept verbatim per thread for the trace file.
const KEEP_SPANS: usize = 20_000;

/// One timed interval on a client thread.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list; `None` for a root.
    pub parent: Option<usize>,
    pub request: u64,
}

/// What the traced requests of one thread (or, merged, of a run) add up to.
#[derive(Debug, Default)]
pub struct Totals {
    pub requests: u64,
    pub request_ns: u64,
    /// Self time per span name, summed over requests.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Counters added with [`count`].
    pub counters: BTreeMap<&'static str, f64>,
    pub kept: Vec<Span>,
    pub dropped: u64,
}

impl Totals {
    pub fn merge(&mut self, other: Totals) {
        self.requests += other.requests;
        self.request_ns += other.request_ns;
        for (k, v) in other.self_ns {
            *self.self_ns.entry(k).or_default() += v;
        }
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        self.keep(other.kept);
        self.dropped += other.dropped;
    }

    /// Append `spans`, whose parents index into `spans`, to the kept list.
    fn keep(&mut self, spans: impl IntoIterator<Item = Span>) {
        let offset = self.kept.len();
        self.kept.extend(spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + offset);
            sp
        }));
    }

    /// Self time of `name`, in milliseconds per traced request.
    pub fn ms_per_request(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / self.requests.max(1) as f64
    }

    /// Counter `name` per traced request.
    pub fn per_request(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0) / self.requests.max(1) as f64
    }

    /// Share of request time no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let root = self.self_ns.get(ROOT).copied().unwrap_or(0);
        root as f64 / self.request_ns.max(1) as f64
    }

    /// The trace file's body: kept spans, per-layer self time, counters.
    pub fn to_json(&self) -> JsonValue {
        let spans = self
            .kept
            .iter()
            .map(|sp| {
                obj(vec![
                    ("name", s(sp.name)),
                    ("start_ns", num(sp.start_ns as f64)),
                    ("end_ns", num(sp.end_ns as f64)),
                    (
                        "parent",
                        sp.parent.map_or(JsonValue::Null, |p| num(p as f64)),
                    ),
                    ("request", num(sp.request as f64)),
                ])
            })
            .collect();
        let self_ms = self
            .self_ns
            .iter()
            .map(|(k, v)| (k.to_string(), num(*v as f64 / 1e6)))
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), num(*v)))
            .collect();
        obj(vec![
            ("traced_requests", num(self.requests as f64)),
            ("request_ms", num(self.request_ns as f64 / 1e6)),
            ("self_ms", JsonValue::Object(self_ms)),
            ("counters", JsonValue::Object(counters)),
            ("spans", JsonValue::Array(spans)),
            ("spans_dropped", num(self.dropped as f64)),
        ])
    }
}

#[derive(Default)]
struct Recorder {
    request: Option<u64>,
    /// Spans of the request in flight; index 0 is its root.
    spans: Vec<Span>,
    open: Vec<usize>,
    totals: Totals,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open the root span of traced request `id` on this thread.
pub fn begin_request(id: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.request.is_none(), "traced requests do not nest");
        r.request = Some(id);
        r.spans.clear();
        r.spans.push(Span {
            name: ROOT,
            start_ns: now_ns(),
            end_ns: 0,
            parent: None,
            request: id,
        });
        r.open.clear();
        r.open.push(0);
    });
}

/// Close the traced request on this thread and fold its spans into the
/// thread's totals.
pub fn end_request() {
    let end = now_ns();
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        assert_eq!(r.open.len(), 1, "a layer span was left open");
        r.request = None;
        r.open.clear();
        r.spans[0].end_ns = end;
        let totals = &mut r.totals;
        for (sp, self_ns) in r.spans.iter().zip(self_times(&r.spans)) {
            *totals.self_ns.entry(sp.name).or_default() += self_ns;
        }
        totals.requests += 1;
        totals.request_ns += end - r.spans[0].start_ns;
        if totals.kept.len() + r.spans.len() <= KEEP_SPANS {
            totals.keep(r.spans.drain(..));
        } else {
            totals.dropped += r.spans.len() as u64;
        }
    });
}

/// Run `f` inside a span named `name` when this thread is in a traced
/// request; otherwise just run it.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        let request = r.request?;
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        r.open.push(idx);
        r.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        Some(idx)
    });
    let Some(idx) = idx else {
        return f();
    };
    let start = now_ns();
    let out = f();
    let end = now_ns();
    RECORDER.with(|r| {
        let r = &mut *r.borrow_mut();
        assert_eq!(r.open.pop(), Some(idx), "spans close in nesting order");
        r.spans[idx].start_ns = start;
        r.spans[idx].end_ns = end;
    });
    out
}

/// Add `value` to counter `name` on this thread.
pub fn count(name: &'static str, value: f64) {
    RECORDER.with(|r| *r.borrow_mut().totals.counters.entry(name).or_default() += value);
}

/// Take this thread's totals, leaving it empty.
pub fn take() -> Totals {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().totals))
}

/// Self time of each span in `spans`: its duration minus the union of its
/// children's intervals, clipped to its own. `parent` indices refer to
/// positions in `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start_ns, sp.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(sp, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = sp.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(sp.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (sp.end_ns - sp.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // request [0,100) ⊃ a [10,40) ⊃ a.1 [15,25), and b [50,90).
        let spans = vec![
            sp("request", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("a.1", 15, 25, Some(1)),
            sp("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            sp("p", 0, 100, None),
            sp("x", 10, 60, Some(0)),
            sp("y", 40, 80, Some(0)),
            sp("z", 90, 120, Some(0)),
        ];
        // Children cover [10,80) and [90,100) of the parent: 80 ns.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorded_request_attributes_every_nanosecond() {
        begin_request(7);
        let v = span("outer", || span("inner", || 41) + 1);
        span("other", || ());
        end_request();
        // Outside a traced request, spans record nothing.
        assert_eq!(span("ignored", || 3), 3);
        let t = take();
        assert_eq!(v, 42);
        assert_eq!(t.requests, 1);
        assert_eq!(t.kept.len(), 4);
        assert!(t.kept.iter().all(|s| s.request == 7));
        assert!(!t.self_ns.contains_key("ignored"));
        let total: u64 = t.self_ns.values().sum();
        assert_eq!(total, t.request_ns);
    }
}
