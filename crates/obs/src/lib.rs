//! Zero-dependency observability for the TriCluster pipeline.
//!
//! The design splits instrumentation into two tiers so the hot DFS loops
//! never pay for a sink they do not use:
//!
//! * **Aggregates** — phase code accumulates plain local stat structs and
//!   folds them into a [`RunReport`] (counters + span timings) once per
//!   phase. No locking, no allocation on the hot path.
//! * **Trace events** — optional per-decision [`Event`]s routed through an
//!   [`EventSink`]. Callers guard construction with [`EventSink::enabled`]
//!   (or the [`emit`] helper), so the default [`NullSink`] reduces to a
//!   single inlinable branch.
//!
//! Everything here is pure `std`: the JSON emitted by [`json::Json`] and
//! [`JsonLinesSink`] is hand-rolled.

use std::collections::BTreeMap;
use std::io::Write as IoWrite;
use std::sync::Mutex;
use std::time::Duration;

pub mod alloc;
pub mod hist;
pub mod httpd;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod names;
pub mod progress;
pub mod timeline;

pub use hist::Histogram;

/// A dynamically typed field value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl Value {
    fn to_json(&self) -> json::Json {
        match self {
            Value::U64(v) => json::Json::U64(*v),
            Value::I64(v) => json::Json::I64(*v),
            Value::F64(v) => json::Json::F64(*v),
            Value::Bool(v) => json::Json::Bool(*v),
            Value::Str(v) => json::Json::Str(v.clone()),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

/// A single trace event: a name plus ordered `(key, value)` fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub name: &'static str,
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            fields: Vec::new(),
        }
    }

    /// Builder-style field attachment.
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Render as a single JSON object (one trace line).
    pub fn to_json(&self) -> json::Json {
        let mut obj = vec![("event".to_string(), json::Json::Str(self.name.to_string()))];
        for (k, v) in &self.fields {
            obj.push((k.to_string(), v.to_json()));
        }
        json::Json::Obj(obj)
    }
}

/// Destination for instrumentation signals.
///
/// Implementations must be `Sync`: the miner shares one sink across its
/// per-slice worker threads. All methods default to no-ops so sinks can
/// implement only what they care about.
pub trait EventSink: Sync {
    /// Whether per-decision trace events should be constructed at all.
    /// Hot paths check this before building an [`Event`].
    fn enabled(&self) -> bool {
        true
    }

    /// A counter was incremented by `delta`.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// A named span completed with the given duration.
    fn span(&self, name: &'static str, elapsed: Duration) {
        let _ = (name, elapsed);
    }

    /// A trace event occurred.
    fn event(&self, event: Event) {
        let _ = event;
    }

    /// Whether value-distribution histograms should be collected at all.
    ///
    /// Distinct from [`EventSink::enabled`] (which gates per-decision
    /// trace *events*): histogram recording happens on DFS hot paths, so
    /// phases check this once up front and skip all bucket work when no
    /// sink wants it. Defaults to `false`; aggregate sinks opt in.
    fn wants_histograms(&self) -> bool {
        false
    }

    /// A phase published a complete named histogram (already accumulated
    /// locally and merged in deterministic order).
    fn histogram(&self, name: &'static str, hist: &Histogram) {
        let _ = (name, hist);
    }

    /// The timeline this sink wants worker threads to journal into, if
    /// any. The miner asks once at run start; `None` (the default) keeps
    /// timeline recording fully disabled.
    fn timeline(&self) -> Option<&timeline::Timeline> {
        None
    }

    /// The progress gauges this sink wants the pipeline to update, if
    /// any. `None` (the default) keeps every update site a no-op branch.
    fn progress(&self) -> Option<std::sync::Arc<progress::Progress>> {
        None
    }
}

/// Build an event lazily and deliver it only if the sink wants events.
#[inline]
pub fn emit(sink: &dyn EventSink, build: impl FnOnce() -> Event) {
    if sink.enabled() {
        sink.event(build());
    }
}

/// Sink that drops everything. `enabled()` is `false`, so guarded call
/// sites skip event construction entirely.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// Fan a signal out to any number of sinks (e.g. a [`Recorder`] plus a
/// trace writer, or a variable set of trace stream + histogram tap +
/// timeline + progress, each independently optional); an empty fan-out
/// behaves exactly like [`NullSink`].
pub struct Fanout<'a>(pub Vec<&'a dyn EventSink>);

impl EventSink for Fanout<'_> {
    fn enabled(&self) -> bool {
        self.0.iter().any(|s| s.enabled())
    }
    fn counter(&self, name: &'static str, delta: u64) {
        for s in &self.0 {
            s.counter(name, delta);
        }
    }
    fn span(&self, name: &'static str, elapsed: Duration) {
        for s in &self.0 {
            s.span(name, elapsed);
        }
    }
    /// Clones the event for every enabled sink but the last, which takes
    /// it by value, so nesting fan-outs adds no copies.
    fn event(&self, event: Event) {
        let mut targets = self.0.iter().filter(|s| s.enabled()).peekable();
        while let Some(s) = targets.next() {
            if targets.peek().is_none() {
                return s.event(event);
            }
            s.event(event.clone());
        }
    }
    fn wants_histograms(&self) -> bool {
        self.0.iter().any(|s| s.wants_histograms())
    }
    fn histogram(&self, name: &'static str, hist: &Histogram) {
        for s in &self.0 {
            s.histogram(name, hist);
        }
    }
    fn timeline(&self) -> Option<&timeline::Timeline> {
        self.0.iter().find_map(|s| s.timeline())
    }
    fn progress(&self) -> Option<std::sync::Arc<progress::Progress>> {
        self.0.iter().find_map(|s| s.progress())
    }
}

/// Sink whose only job is to switch on histogram collection; the
/// histograms reach whichever aggregating sink sits beside it in a
/// [`Fanout`].
#[derive(Debug, Default, Clone, Copy)]
pub struct HistogramTap;

impl EventSink for HistogramTap {
    fn enabled(&self) -> bool {
        false
    }
    fn wants_histograms(&self) -> bool {
        true
    }
}

/// Aggregate statistics for one named span: call count, summed duration,
/// the worst single call, and a log-bucketed latency distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed span instances.
    pub count: u64,
    /// Sum of their durations.
    pub total: Duration,
    /// Longest single duration.
    pub max: Duration,
    /// Distribution of per-call durations in nanoseconds.
    pub hist: Histogram,
}

impl SpanStats {
    pub fn record(&mut self, elapsed: Duration) {
        self.count += 1;
        self.total += elapsed;
        self.max = self.max.max(elapsed);
        self.hist.record(elapsed.as_nanos() as u64);
    }

    /// Folds another span's stats into this one.
    pub fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.hist.merge(&other.hist);
    }

    /// Duration at quantile `q` (bucket-resolution, see
    /// [`Histogram::quantile`]).
    pub fn quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.hist.quantile(q))
    }
}

/// Structured summary of one pipeline run: monotonic counters, span
/// timings, and value-distribution histograms, all keyed by stable dotted
/// names (see [`names`]).
///
/// Counter and histogram values are deterministic for a given input and
/// parameter set — they are accumulated per worker and merged in slice
/// order, so thread count and scheduling cannot change them. Span totals
/// (and their latency histograms) are wall-clock measurements and
/// naturally vary between runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    pub counters: BTreeMap<&'static str, u64>,
    pub spans: BTreeMap<&'static str, SpanStats>,
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl RunReport {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        if delta > 0 {
            *self.counters.entry(name).or_insert(0) += delta;
        }
    }

    pub fn add_span(&mut self, name: &'static str, elapsed: Duration) {
        self.spans.entry(name).or_default().record(elapsed);
    }

    /// Fold a published histogram into the named slot. Empty histograms
    /// are dropped so untaken code paths do not materialize keys (same
    /// policy as zero counter deltas).
    pub fn add_histogram(&mut self, name: &'static str, hist: &Histogram) {
        if !hist.is_empty() {
            self.histograms.entry(name).or_default().merge(hist);
        }
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total recorded time for a span (zero if absent).
    pub fn span_total(&self, name: &str) -> Duration {
        self.spans.get(name).map(|s| s.total).unwrap_or_default()
    }

    /// The named value histogram, if anything was recorded into it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: &RunReport) {
        for (name, delta) in &other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, stats) in &other.spans {
            self.spans.entry(name).or_default().merge(stats);
        }
        for (name, hist) in &other.histograms {
            self.add_histogram(name, hist);
        }
    }

    /// The counters-only view, with owned keys (handy for equality tests).
    pub fn counter_map(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// The histograms view, with owned keys (handy for equality tests).
    pub fn histogram_map(&self) -> BTreeMap<String, Histogram> {
        self.histograms
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// Render as a JSON object `{"counters": {...}, "spans": {...}}`. The
    /// histograms are left out: the v2 report renders them once, as its
    /// top-level `histograms` section.
    pub fn to_json(&self) -> json::Json {
        let counters = json::Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.to_string(), json::Json::U64(*v)))
                .collect(),
        );
        let spans = json::Json::Obj(
            self.spans
                .iter()
                .map(|(k, s)| {
                    (
                        k.to_string(),
                        json::Json::Obj(vec![
                            ("count".to_string(), json::Json::U64(s.count)),
                            (
                                "total_ns".to_string(),
                                json::Json::U64(s.total.as_nanos() as u64),
                            ),
                            (
                                "total_secs".to_string(),
                                json::Json::F64(s.total.as_secs_f64()),
                            ),
                            (
                                "max_ns".to_string(),
                                json::Json::U64(s.max.as_nanos() as u64),
                            ),
                            ("p50_ns".to_string(), json::Json::U64(s.hist.quantile(0.50))),
                            ("p95_ns".to_string(), json::Json::U64(s.hist.quantile(0.95))),
                            ("p99_ns".to_string(), json::Json::U64(s.hist.quantile(0.99))),
                        ]),
                    )
                })
                .collect(),
        );
        json::Json::Obj(vec![
            ("counters".to_string(), counters),
            ("spans".to_string(), spans),
        ])
    }

    /// Total wall-clock this report accounts for: the sum of the
    /// top-level, non-overlapping pipeline phase spans. Nested spans
    /// (per-slice range-graph/bicluster CPU views) are excluded so shares
    /// computed against this add up sensibly. Falls back to the largest
    /// single span when none of the phase spans were recorded (e.g. a
    /// hand-built report), so shares are still meaningful.
    pub fn wall_time(&self) -> Duration {
        let phases = [
            names::SPAN_SLICES_WALL,
            names::SPAN_TRICLUSTER,
            names::SPAN_PRUNE,
            names::SPAN_METRICS,
        ];
        let wall: Duration = phases.iter().map(|n| self.span_total(n)).sum();
        if wall > Duration::ZERO {
            wall
        } else {
            self.spans
                .values()
                .map(|s| s.total)
                .max()
                .unwrap_or_default()
        }
    }

    /// Human-readable multi-line rendering: spans (with share-of-wall
    /// percentage, per-call max, and p50/p95/p99 when a span fired more
    /// than once), then counters, then value histograms.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let width = self.spans.keys().map(|k| k.len()).max().unwrap_or(0);
            let wall = self.wall_time();
            for (name, s) in &self.spans {
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let share = if wall > Duration::ZERO {
                    format!(
                        "  {:>5.1}%",
                        100.0 * s.total.as_secs_f64() / wall.as_secs_f64()
                    )
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  {name:width$}  {:>10.3} ms{share}  ({} call{}",
                    ms(s.total),
                    s.count,
                    if s.count == 1 { "" } else { "s" },
                ));
                if s.count > 1 {
                    out.push_str(&format!(
                        ", max {:.3} ms, p50/p95/p99 {:.3}/{:.3}/{:.3} ms",
                        ms(s.max),
                        ms(s.quantile(0.50)),
                        ms(s.quantile(0.95)),
                        ms(s.quantile(0.99)),
                    ));
                }
                out.push_str(")\n");
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:width$}  {v:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            let width = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, h) in &self.histograms {
                out.push_str(&format!("  {name:width$}  {}\n", h.render_summary()));
            }
        }
        out
    }
}

/// Thread-safe aggregating sink: counters, spans, and histograms
/// accumulate in a [`metrics::Registry`], events are buffered in arrival
/// order. Unlike a bare registry it asks for events and histograms.
#[derive(Default)]
pub struct Recorder {
    registry: metrics::Registry,
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of the aggregate view so far.
    pub fn snapshot(&self) -> RunReport {
        self.registry.snapshot()
    }

    /// Drain buffered trace events.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap_or_else(|p| p.into_inner()))
    }
}

impl EventSink for Recorder {
    fn counter(&self, name: &'static str, delta: u64) {
        self.registry.counter(name, delta);
    }
    fn span(&self, name: &'static str, elapsed: Duration) {
        self.registry.span(name, elapsed);
    }
    fn event(&self, event: Event) {
        // A push never leaves the buffer half-updated, so a lock poisoned
        // by a panicking sibling thread is safe to reuse.
        self.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(event);
    }
    fn wants_histograms(&self) -> bool {
        true
    }
    fn histogram(&self, name: &'static str, hist: &Histogram) {
        self.registry.histogram(name, hist);
    }
}

/// Sink that writes each trace event as one JSON line. Counters, spans,
/// and histograms are also emitted as `counter` / `span` / `hist`
/// pseudo-events so a trace file is self-contained.
///
/// The writer is flushed when the sink is dropped (so buffered trace
/// files survive an early CLI exit or a panic-unwind), and additionally
/// after *every* line when constructed via [`JsonLinesSink::flushing`] /
/// [`JsonLinesSink::stderr`] — interactive streams should never sit on
/// buffered events.
pub struct JsonLinesSink<W: IoWrite + Send> {
    // `Option` so `into_inner` can move the writer out from under the
    // `Drop` impl; `None` only between `take()` and the final drop.
    writer: Mutex<Option<W>>,
    flush_each: bool,
}

impl<W: IoWrite + Send> JsonLinesSink<W> {
    pub fn new(writer: W) -> Self {
        JsonLinesSink {
            writer: Mutex::new(Some(writer)),
            flush_each: false,
        }
    }

    /// A sink that flushes after every line, for unbuffered/interactive
    /// destinations.
    pub fn flushing(writer: W) -> Self {
        JsonLinesSink {
            writer: Mutex::new(Some(writer)),
            flush_each: true,
        }
    }

    /// Flush and reclaim the writer.
    ///
    /// Panics if the writer was already taken (it never is outside this
    /// method) — recovering a poisoned lock instead of propagating keeps
    /// the writer reclaimable even after a panicking sibling thread.
    pub fn into_inner(self) -> W {
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()
            .expect("writer taken twice");
        let _ = w.flush();
        w
    }

    fn write_json(&self, value: &json::Json) {
        // Render the whole line — terminator included — before touching
        // the writer, then hand it over in a single `write_all`: a panic
        // while rendering (or between events) can then never leave a
        // torn half-line in the stream, and drop-time flushing can only
        // ever emit complete lines.
        let mut line = value.render();
        line.push('\n');
        #[cfg(feature = "failpoints")]
        if let Some(msg) = tricluster_failpoint::trigger("obs.jsonlines.line") {
            panic!("{msg}");
        }
        let mut guard = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(w) = guard.as_mut() {
            // A broken pipe on a trace stream should not abort the mine.
            let _ = w.write_all(line.as_bytes());
            if self.flush_each {
                let _ = w.flush();
            }
        }
    }
}

impl JsonLinesSink<std::io::Stderr> {
    /// A line-per-event trace stream on stderr, flushed per event.
    pub fn stderr() -> Self {
        Self::flushing(std::io::stderr())
    }
}

impl<W: IoWrite + Send> Drop for JsonLinesSink<W> {
    fn drop(&mut self) {
        // Flush even through a poisoned lock: the writer only ever holds
        // complete lines (see `write_json`), so flushing after a panic is
        // safe and keeps the trace file intact up to the failure.
        let mut guard = self
            .writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(w) = guard.as_mut() {
            let _ = w.flush();
        }
    }
}

impl<W: IoWrite + Send> EventSink for JsonLinesSink<W> {
    fn counter(&self, name: &'static str, delta: u64) {
        self.write_json(&json::Json::Obj(vec![
            ("counter".to_string(), json::Json::Str(name.to_string())),
            ("delta".to_string(), json::Json::U64(delta)),
        ]));
    }
    fn span(&self, name: &'static str, elapsed: Duration) {
        self.write_json(&json::Json::Obj(vec![
            ("span".to_string(), json::Json::Str(name.to_string())),
            (
                "elapsed_ns".to_string(),
                json::Json::U64(elapsed.as_nanos() as u64),
            ),
        ]));
    }
    fn event(&self, event: Event) {
        self.write_json(&event.to_json());
    }
    fn histogram(&self, name: &'static str, hist: &Histogram) {
        self.write_json(&json::Json::Obj(vec![
            ("hist".to_string(), json::Json::Str(name.to_string())),
            ("summary".to_string(), hist.to_json()),
        ]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_silent() {
        let sink = NullSink;
        assert!(!sink.enabled());
        let mut built = false;
        emit(&sink, || {
            built = true;
            Event::new("never")
        });
        assert!(!built, "NullSink must not construct events");
        sink.counter("x", 1);
        sink.span("y", Duration::from_millis(1));
    }

    #[test]
    fn recorder_aggregates_counters_and_spans() {
        let rec = Recorder::new();
        rec.counter("a", 2);
        rec.counter("a", 3);
        rec.counter("b", 1);
        rec.span("s", Duration::from_millis(2));
        rec.span("s", Duration::from_millis(3));
        let report = rec.snapshot();
        assert_eq!(report.counter("a"), 5);
        assert_eq!(report.counter("b"), 1);
        assert_eq!(report.counter("missing"), 0);
        let s = &report.spans["s"];
        assert_eq!(s.count, 2);
        assert_eq!(s.total, Duration::from_millis(5));
        assert_eq!(s.max, Duration::from_millis(3));
        assert_eq!(s.hist.count(), 2);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        rec.counter("ticks", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counter("ticks"), 400);
    }

    #[test]
    fn report_merge_equals_one_registry_stream() {
        let mut a = RunReport::new();
        a.add_counter("x", 1);
        a.add_span("s", Duration::from_millis(1));
        let mut b = RunReport::new();
        b.add_counter("x", 2);
        b.add_counter("y", 7);
        b.add_span("s", Duration::from_millis(4));
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 7);
        assert_eq!(a.spans["s"].count, 2);

        // Both halves published into one registry snapshot to the merge.
        let reg = metrics::Registry::new();
        reg.counter("x", 1);
        reg.span("s", Duration::from_millis(1));
        reg.counter("x", 2);
        reg.counter("y", 7);
        reg.span("s", Duration::from_millis(4));
        assert_eq!(reg.snapshot(), a);
    }

    #[test]
    fn zero_deltas_do_not_materialize_counters() {
        let mut r = RunReport::new();
        r.add_counter("x", 0);
        assert!(r.counters.is_empty());
    }

    #[test]
    fn json_lines_sink_emits_one_object_per_line() {
        let sink = JsonLinesSink::new(Vec::new());
        sink.event(Event::new("slice").field("t", 3u64).field("ok", true));
        sink.counter("n", 9);
        sink.span("phase", Duration::from_nanos(1500));
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], r#"{"event":"slice","t":3,"ok":true}"#);
        assert_eq!(lines[1], r#"{"counter":"n","delta":9}"#);
        assert_eq!(lines[2], r#"{"span":"phase","elapsed_ns":1500}"#);
    }

    #[test]
    fn recorder_wants_and_merges_histograms() {
        let rec = Recorder::new();
        assert!(rec.wants_histograms());
        assert!(!NullSink.wants_histograms());
        let mut h = Histogram::default();
        h.record(5);
        h.record(100);
        rec.histogram("widths", &h);
        rec.histogram("widths", &h);
        let report = rec.snapshot();
        let got = report.histogram("widths").expect("recorded");
        assert_eq!(got.count(), 4);
        assert_eq!(got.max(), 100);
        // empty histograms never materialize a key
        rec.histogram("empty", &Histogram::default());
        assert!(rec.snapshot().histogram("empty").is_none());
    }

    #[test]
    fn report_merge_folds_span_hists_and_histograms() {
        let mut a = RunReport::new();
        a.add_span("s", Duration::from_millis(1));
        let mut b = RunReport::new();
        b.add_span("s", Duration::from_millis(9));
        let mut h = Histogram::default();
        h.record(3);
        b.add_histogram("vals", &h);
        a.merge(&b);
        assert_eq!(a.spans["s"].max, Duration::from_millis(9));
        assert_eq!(a.spans["s"].hist.count(), 2);
        assert_eq!(a.histogram("vals").unwrap().count(), 1);

        // the same stream through a registry snapshots to the merge
        let reg = metrics::Registry::new();
        reg.span("s", Duration::from_millis(1));
        reg.span("s", Duration::from_millis(9));
        reg.histogram("vals", &h);
        assert_eq!(reg.snapshot(), a);
    }

    #[test]
    fn json_lines_sink_flushes_on_drop() {
        use std::sync::atomic::{AtomicBool, Ordering};
        static FLUSHED: AtomicBool = AtomicBool::new(false);
        struct Probe;
        impl IoWrite for Probe {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                FLUSHED.store(true, Ordering::SeqCst);
                Ok(())
            }
        }
        {
            let sink = JsonLinesSink::new(Probe);
            sink.counter("c", 1);
            assert!(!FLUSHED.load(Ordering::SeqCst), "new() buffers until drop");
        }
        assert!(FLUSHED.load(Ordering::SeqCst), "drop must flush");

        FLUSHED.store(false, Ordering::SeqCst);
        let sink = JsonLinesSink::flushing(Probe);
        sink.counter("c", 1);
        assert!(
            FLUSHED.load(Ordering::SeqCst),
            "flushing() flushes per line"
        );
    }

    #[test]
    fn json_lines_sink_writes_histogram_lines() {
        let sink = JsonLinesSink::new(Vec::new());
        let mut h = Histogram::default();
        h.record(4);
        sink.histogram("fanout", &h);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(
            text.starts_with(r#"{"hist":"fanout","summary":{"#),
            "{text}"
        );
    }

    #[test]
    fn span_json_and_human_include_percentiles() {
        let mut r = RunReport::new();
        for ms in [1u64, 2, 3, 50] {
            r.add_span("phase", Duration::from_millis(ms));
        }
        let rendered = r.to_json().render();
        for key in ["\"max_ns\":", "\"p50_ns\":", "\"p95_ns\":", "\"p99_ns\":"] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
        let human = r.render_human();
        assert!(human.contains("max"), "{human}");
        assert!(human.contains("p50/p95/p99"), "{human}");

        let mut h = Histogram::default();
        h.record_n(12, 3);
        r.add_histogram("dfs.fanout", &h);
        let human = r.render_human();
        assert!(human.contains("histograms:"), "{human}");
        assert!(human.contains("dfs.fanout"), "{human}");
    }

    #[test]
    fn human_rendering_shows_share_of_wall() {
        let mut r = RunReport::new();
        r.add_span(names::SPAN_SLICES_WALL, Duration::from_millis(75));
        r.add_span(names::SPAN_TRICLUSTER, Duration::from_millis(20));
        r.add_span(names::SPAN_PRUNE, Duration::from_millis(5));
        assert_eq!(r.wall_time(), Duration::from_millis(100));
        let text = r.render_human();
        assert!(text.contains(" 75.0%"), "{text}");
        assert!(text.contains(" 20.0%"), "{text}");
        assert!(text.contains("  5.0%"), "{text}");

        // without any phase span, shares fall back to the largest span
        let mut r = RunReport::new();
        r.add_span("a", Duration::from_millis(40));
        r.add_span("b", Duration::from_millis(80));
        let text = r.render_human();
        assert!(text.contains(" 50.0%"), "{text}");
        assert!(text.contains("100.0%"), "{text}");

        // a zero-duration report renders without any share column
        let mut r = RunReport::new();
        r.add_span("z", Duration::ZERO);
        assert!(!r.render_human().contains('%'));
    }

    #[test]
    fn fanout_routes_to_all_sinks_and_finds_extensions() {
        let a = Recorder::new();
        let b = Recorder::new();
        let tl = timeline::Timeline::new();
        let ps = progress::ProgressSink(std::sync::Arc::new(progress::Progress::new()));
        let fan = Fanout(vec![&a, &tl, &ps, &b]);
        assert!(fan.enabled());
        assert!(fan.wants_histograms());
        fan.counter("c", 2);
        fan.event(Event::new("e"));
        let mut h = Histogram::default();
        h.record(1);
        fan.histogram("h", &h);
        for rec in [&a, &b] {
            assert_eq!(rec.snapshot().counter("c"), 2);
            assert_eq!(rec.take_events().len(), 1);
            assert!(rec.snapshot().histogram("h").is_some());
        }
        assert!(fan.timeline().is_some());
        assert!(fan.progress().is_some());

        let empty = Fanout(Vec::new());
        assert!(!empty.enabled());
        assert!(!empty.wants_histograms());
        assert!(empty.timeline().is_none());
        assert!(empty.progress().is_none());
    }

    #[test]
    fn human_rendering_lists_spans_then_counters() {
        let mut r = RunReport::new();
        r.add_counter("dfs.nodes", 42);
        r.add_span("phase.total", Duration::from_millis(12));
        let text = r.render_human();
        assert!(text.contains("spans:"));
        assert!(text.contains("phase.total"));
        assert!(text.contains("counters:"));
        assert!(text.contains("dfs.nodes"));
        assert!(text.find("spans:").unwrap() < text.find("counters:").unwrap());
    }
}
