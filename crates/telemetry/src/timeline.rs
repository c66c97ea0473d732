//! Serving-simulation timelines.
//!
//! The serving simulator optionally emits one [`SpanEvent`] per executed
//! stage: which resource lane ran it, when the stage became ready, when
//! it actually started (the gap is queue wait), and when it finished.
//! From those spans this module derives per-resource utilization and a
//! queue-depth curve, and renders the whole schedule in the Chrome
//! trace-event format so it can be opened directly in Perfetto or
//! `chrome://tracing`.

use griffin_gpu_sim::VirtualNanos;

use crate::json;

/// One executed stage on one resource lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Resource kind, e.g. "cpu" or "gpu".
    pub resource: &'static str,
    /// Lane within the resource (CPU core index; 0 for the single GPU).
    pub lane: usize,
    /// Index of the job (query) this stage belongs to.
    pub job: usize,
    /// Index of the stage within its job.
    pub stage: usize,
    /// When the stage became runnable (arrival or previous stage's end).
    pub ready: VirtualNanos,
    /// When the lane actually started it (`start - ready` = queue wait).
    pub start: VirtualNanos,
    pub end: VirtualNanos,
}

impl SpanEvent {
    pub fn queue_wait(&self) -> VirtualNanos {
        self.start - self.ready
    }

    pub fn duration(&self) -> VirtualNanos {
        self.end - self.start
    }
}

/// Busy fraction of one resource lane over the simulated horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUtilization {
    pub resource: &'static str,
    pub lane: usize,
    pub busy: VirtualNanos,
    pub utilization: f64,
}

/// The complete schedule of a serving-simulation run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub spans: Vec<SpanEvent>,
}

impl Timeline {
    pub fn push(&mut self, span: SpanEvent) {
        self.spans.push(span);
    }

    /// The end of the latest span (the simulation makespan).
    pub fn horizon(&self) -> VirtualNanos {
        self.spans
            .iter()
            .map(|s| s.end)
            .max()
            .unwrap_or(VirtualNanos::ZERO)
    }

    /// Busy time and busy fraction per resource lane, sorted by
    /// (resource, lane). Utilization is relative to the makespan.
    pub fn utilization(&self) -> Vec<LaneUtilization> {
        let horizon = self.horizon().as_nanos();
        let mut lanes: Vec<(&'static str, usize, u64)> = Vec::new();
        for s in &self.spans {
            match lanes
                .iter_mut()
                .find(|(r, l, _)| *r == s.resource && *l == s.lane)
            {
                Some((_, _, busy)) => *busy += s.duration().as_nanos(),
                None => lanes.push((s.resource, s.lane, s.duration().as_nanos())),
            }
        }
        lanes.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        lanes
            .into_iter()
            .map(|(resource, lane, busy)| LaneUtilization {
                resource,
                lane,
                busy: VirtualNanos::from_nanos(busy),
                utilization: if horizon == 0 {
                    0.0
                } else {
                    busy as f64 / horizon as f64
                },
            })
            .collect()
    }

    /// Mean queue wait across all spans.
    pub fn mean_queue_wait(&self) -> VirtualNanos {
        if self.spans.is_empty() {
            return VirtualNanos::ZERO;
        }
        let sum: u64 = self.spans.iter().map(|s| s.queue_wait().as_nanos()).sum();
        VirtualNanos::from_nanos(sum / self.spans.len() as u64)
    }

    /// Render the schedule as a Chrome trace-event JSON document
    /// (loadable in Perfetto / `chrome://tracing`). Each resource lane
    /// becomes a thread; each stage a complete ("X") event; timestamps
    /// are microseconds of virtual time.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = json::Array::new();

        // Stable lane → tid mapping, plus thread-name metadata records.
        let mut lanes: Vec<(&'static str, usize)> = Vec::new();
        for s in &self.spans {
            if !lanes.contains(&(s.resource, s.lane)) {
                lanes.push((s.resource, s.lane));
            }
        }
        lanes.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        for (tid, (resource, lane)) in lanes.iter().enumerate() {
            let mut args = json::Object::new();
            args.str("name", &format!("{resource}{lane}"));
            let mut m = json::Object::new();
            m.str("ph", "M")
                .str("name", "thread_name")
                .usize("pid", 1)
                .usize("tid", tid)
                .raw("args", &args.finish());
            events.raw(&m.finish());
        }

        let tid_of = |resource: &'static str, lane: usize| -> usize {
            lanes
                .iter()
                .position(|&(r, l)| r == resource && l == lane)
                .expect("lane registered above")
        };

        for s in &self.spans {
            let mut args = json::Object::new();
            args.usize("job", s.job)
                .usize("stage", s.stage)
                .f64("queue_wait_us", s.queue_wait().as_nanos() as f64 / 1e3);
            let mut e = json::Object::new();
            e.str("name", &format!("job{}.s{}", s.job, s.stage))
                .str("cat", s.resource)
                .str("ph", "X")
                .f64("ts", s.start.as_nanos() as f64 / 1e3)
                .f64("dur", s.duration().as_nanos() as f64 / 1e3)
                .usize("pid", 1)
                .usize("tid", tid_of(s.resource, s.lane))
                .raw("args", &args.finish());
            events.raw(&e.finish());
        }

        let mut root = json::Object::new();
        root.raw("traceEvents", &events.finish())
            .str("displayTimeUnit", "ms");
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> VirtualNanos {
        VirtualNanos::from_nanos(v)
    }

    fn span(lane: usize, job: usize, ready: u64, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            resource: "cpu",
            lane,
            job,
            stage: 0,
            ready: ns(ready),
            start: ns(start),
            end: ns(end),
        }
    }

    #[test]
    fn utilization_and_horizon() {
        let mut tl = Timeline::default();
        tl.push(span(0, 0, 0, 0, 100));
        tl.push(span(0, 1, 0, 100, 200));
        tl.push(span(1, 2, 0, 0, 50));
        assert_eq!(tl.horizon(), ns(200));
        let u = tl.utilization();
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].lane, 0);
        assert!((u[0].utilization - 1.0).abs() < 1e-9);
        assert!((u[1].utilization - 0.25).abs() < 1e-9);
    }

    #[test]
    fn queue_depth_counts_waiting_stages() {
        let mut tl = Timeline::default();
        // Two stages ready at t=0; one starts immediately, the other
        // waits until t=100.
        tl.push(span(0, 0, 0, 0, 100));
        tl.push(span(0, 1, 0, 100, 200));
        assert_eq!(tl.mean_queue_wait(), ns(50));
    }

    #[test]
    fn chrome_trace_shape() {
        let mut tl = Timeline::default();
        tl.push(span(0, 0, 0, 0, 1000));
        tl.push(SpanEvent {
            resource: "gpu",
            lane: 0,
            job: 0,
            stage: 1,
            ready: ns(1000),
            start: ns(1500),
            end: ns(2000),
        });
        let js = tl.to_chrome_trace();
        assert!(js.contains("\"traceEvents\""));
        assert!(js.contains("\"ph\":\"M\""), "thread metadata present");
        assert!(js.contains("\"ph\":\"X\""), "complete events present");
        assert!(js.contains("\"name\":\"cpu0\""));
        assert!(js.contains("\"name\":\"gpu0\""));
        assert!(js.contains("\"queue_wait_us\":0.5"));
    }
}
