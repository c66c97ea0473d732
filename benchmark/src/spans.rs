//! The benchmark's own in-memory span recorder. Spans are opened and
//! closed around calls into the crates, kept in a vector, and written
//! out as Chrome trace-event JSON only when the run ends, so recording
//! costs one `Instant::now` and one push per boundary.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one query share its index in the log.
    pub query: Option<u32>,
    /// Trace lane: 0 for the harness thread's own stack, `1 + device`
    /// for spans rebuilt from a device's events.
    pub lane: u32,
    /// Simulated duration carried by device spans.
    pub virt_ns: u64,
    /// Simulated threads (kernels) or bytes (transfers) carried by
    /// device spans.
    pub work: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last.
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: impl Into<String>, query: Option<u32>) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            query,
            lane: 0,
            virt_ns: 0,
            work: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        self.close_at(id, now)
    }

    /// [`Recorder::close`] with an end read earlier, so that work done
    /// between the measured call and the close (adding the span's own
    /// children) stays out of the span.
    pub fn close_at(&mut self, id: usize, end_ns: u64) -> u64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        end_ns - self.spans[id].start_ns
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.open(name, None);
        let out = f(self);
        self.close(id);
        out
    }

    /// Adds an already-finished child of the innermost open span.
    pub fn leaf(&mut self, mut span: Span) {
        span.parent = self.stack.last().copied();
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON ("X" complete events, microseconds), which
    /// `chrome://tracing` and Perfetto load.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id", Json::Num(id as f64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::Num(p as f64)));
                }
                if let Some(q) = s.query {
                    args.push(("query", Json::Num(f64::from(q))));
                }
                if s.virt_ns > 0 || s.work > 0 {
                    args.push(("virt_ns", Json::Num(s.virt_ns as f64)));
                    args.push(("work", Json::Num(s.work as f64)));
                }
                Json::obj([
                    ("name", Json::str(s.name.as_str())),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("args", Json::obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }
}

/// Each span's self time: its duration minus the part of that interval
/// its children cover. Children are clipped to the parent and their
/// union is taken, so overlapping children are not counted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            query: None,
            lane: 0,
            virt_ns: 0,
            work: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("query", 0, 100, None),
            span("dev.a", 10, 30, Some(0)),
            span("dev.b", 30, 50, Some(0)),
            // Overlaps dev.b and runs past the parent's end.
            span("dev.c", 40, 120, Some(0)),
            span("inner", 12, 20, Some(1)),
        ];
        let own = self_times(&spans);
        // Children cover [10,100) of the parent.
        assert_eq!(own[0], 10);
        assert_eq!(own[1], 12);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 80);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut r = Recorder::new(Instant::now());
        let outer = r.open("workload", None);
        let inner = r.open("query", Some(3));
        r.leaf(Span {
            lane: 2,
            virt_ns: 5,
            work: 64,
            ..span("dev.k", 1, 2, None)
        });
        r.close(inner);
        r.close(outer);
        assert_eq!(r.spans()[1].parent, Some(outer));
        assert_eq!(r.spans()[2].parent, Some(inner));
        let parsed = Json::parse(&r.to_chrome_trace()).expect("trace is valid JSON");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("name").and_then(Json::as_str), Some("dev.k"));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("query"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
    }
}
