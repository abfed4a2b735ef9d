//! In-memory span recording for the traced pass.
//!
//! A span is a named interval with the span that caused it and the id of
//! the repetition (or served job) it belongs to. Spans are kept in memory
//! while the pass runs and written out once, as Chrome trace JSON, when it
//! ends. A layer's self time is its span's duration minus the part of that
//! interval covered by its children.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tricluster_core::obs::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub rep: u64,
}

/// Spans of one traced pass, timed against a shared origin.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records `[start, end]` and returns the span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rep: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent,
            rep,
        });
        self.spans.len() - 1
    }

    /// Opens a span ending "now" until [`Trace::close`] moves its end.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, rep: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, rep, now, now)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let rep = self.spans[parent].rep;
        let start = Instant::now();
        let out = f();
        self.record(name, Some(parent), rep, start, Instant::now());
        out
    }

    /// Duration of span `id` not covered by the union of its children's
    /// intervals (children are clipped to the parent; overlapping children
    /// are counted once).
    pub fn self_time(&self, id: usize) -> Duration {
        let parent = &self.spans[id];
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = parent.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent
            .end
            .saturating_sub(parent.start)
            .saturating_sub(covered)
    }

    /// Per span name, the self time of each repetition in seconds (spans of
    /// one name within one repetition are summed).
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut per_rep: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            *per_rep.entry((s.name, s.rep)).or_default() += self.self_time(id).as_secs_f64();
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), secs) in per_rep {
            out.entry(name).or_default().push(secs);
        }
        out
    }

    /// The spans as Chrome Trace Event JSON (one track per repetition).
    pub fn to_chrome_json(&self) -> Json {
        let micros = |d: Duration| Json::F64(d.as_nanos() as f64 / 1000.0);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj()
                    .with("name", Json::Str(s.name.into()))
                    .with("cat", Json::Str("e2ebench".into()))
                    .with("ph", Json::Str("X".into()))
                    .with("ts", micros(s.start))
                    .with("dur", micros(s.end.saturating_sub(s.start)))
                    .with("pid", Json::U64(1))
                    .with("tid", Json::U64(s.rep))
                    .with(
                        "args",
                        Json::obj()
                            .with("id", Json::U64(id as u64))
                            .with("rep", Json::U64(s.rep))
                            .maybe_with("parent", s.parent.map(|p| Json::U64(p as u64))),
                    )
            })
            .collect();
        Json::obj()
            .with("traceEvents", Json::Arr(events))
            .with("displayTimeUnit", Json::Str("ms".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut trace = Trace::new(origin);
        let root = trace.record("root", None, 7, at(0), at(100));
        // [10, 40] and [30, 60] overlap on [30, 40]: 50 ms covered, not 60.
        trace.record("a", Some(root), 7, at(10), at(40));
        trace.record("b", Some(root), 7, at(30), at(60));
        // A child running past its parent only counts up to the parent's end.
        trace.record("c", Some(root), 7, at(90), at(130));
        assert_eq!(trace.self_time(root), Duration::from_millis(40));
        let by_name = trace.self_times_by_name();
        assert_eq!(by_name["root"], vec![0.04]);
        assert_eq!(by_name["a"], vec![0.03]);
    }

    #[test]
    fn chrome_export_keeps_parents_and_reps() {
        let origin = Instant::now();
        let mut trace = Trace::new(origin);
        let root = trace.record("job", None, 2, origin, origin + Duration::from_millis(9));
        trace.record(
            "post",
            Some(root),
            2,
            origin,
            origin + Duration::from_millis(4),
        );
        assert_eq!(trace.self_time(root), Duration::from_millis(5));
        let chrome = trace.to_chrome_json();
        let events = chrome.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("post"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(4000.0));
        assert_eq!(
            events[1]
                .get_path(&["args", "parent"])
                .and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(events[1].get("tid").and_then(Json::as_u64), Some(2));
    }
}
