//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! They stay in memory until the run ends and are then written out as
//! Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) and
//! `chrome://tracing` open directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Layer name, e.g. `core.assign` (see the README's layer table).
    pub name: &'static str,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Request the span served (an evaluation, a mapping request, a
    /// healed run); spans of one request share it.
    pub req: u64,
    /// Recording thread (one recorder per client thread).
    pub tid: u32,
}

/// Records nested spans for one thread. A disabled recorder runs the
/// wrapped calls and records nothing, so untraced runs pay no tracing cost.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    tid: u32,
    req: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant, tid: u32) -> Self {
        Tracer {
            enabled,
            origin,
            tid,
            req: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans opened from now on with request id `req`.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
            tid: self.tid,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Moves another recorder's spans into this one (used to merge the
    /// client threads' recorders).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Overlapping children (possible once spans come from
/// concurrent work) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total self time (ns) and span count per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Chrome trace-event JSON ("X" complete events, microseconds) with
/// `metadata` as the top-level `metadata` object (already JSON).
pub fn chrome_json(spans: &[Span], metadata: &str) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, (s, st)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{},\"self_us\":{:.3}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.req,
            st as f64 / 1e3
        )
        .expect("writing to a String cannot fail");
    }
    write!(out, "\n],\"metadata\":{metadata}}}\n").expect("writing to a String cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) has children a [10,30) and b [40,90); b has child
        // c [50,60); c has grandchild d [52,55).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
            span("d", 52, 55, Some(3)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 7, 3]);
        let by = self_time_by_name(&spans);
        assert_eq!(by["root"], (30, 1));
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 95, 120, Some(0)),
        ];
        // Covered: [10,70) + [95,100) = 65.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin, 0);
        t.set_request(7);
        let v = t.span("outer", |t| t.span("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].req, 7);
        let mut other = Tracer::new(true, origin, 1);
        other.span("x", |t| t.span("y", |_| ()));
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        let json = chrome_json(t.spans(), "{}");
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);

        let mut off = Tracer::new(false, origin, 0);
        assert_eq!(off.span("outer", |_| 3), 3);
        assert!(off.spans().is_empty());
    }
}
