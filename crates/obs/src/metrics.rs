//! The one metrics aggregator, with OpenMetrics text exposition.
//!
//! A [`Registry`] is an [`EventSink`] that aggregates a counter, span,
//! histogram and gauge stream into shared state, at one of two lifetimes:
//!
//! * **per run** — the miner publishes every phase into a private registry
//!   and takes the run's [`RunReport`] from [`Registry::snapshot`]; a
//!   [`Registry::for_run`] registry in the run's sink fan-out serves its
//!   live views (`--metrics-addr`, `--progress`, a served job);
//! * **per process** — `tricluster serve` keeps one for the daemon's life
//!   and bumps job-lifecycle counters and latency spans on it directly.
//!
//! [`Registry::render_openmetrics`] serializes it as OpenMetrics/Prometheus
//! text exposition, hand-rolled in the same no-dependency spirit as
//! [`crate::json`]; [`Registry::progress_json`] renders a run's progress
//! document from its gauges.
//!
//! Like every other observability layer, the registry only observes:
//! counter and gauge updates are relaxed atomics behind a read lock, span
//! and histogram merges take a mutex off the DFS hot paths (they arrive
//! from the single merge thread), and nothing feeds back into mining
//! decisions — so serving metrics cannot perturb the byte-deterministic
//! report sections.

use crate::hist::Histogram;
use crate::json::Json;
use crate::progress::Phase;
use crate::{alloc, names, EventSink, Gauge, RunReport, SpanStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Every exposed metric family is prefixed so scrapes from several jobs
/// can share a Prometheus instance without name clashes.
const PREFIX: &str = "tricluster_";

/// A run's progress counts, in the order the live views list them.
const PROGRESS_COUNTS: [&str; 8] = [
    names::G_SLICES_DONE,
    names::G_SLICES_TOTAL,
    names::G_PAIRS_DONE,
    names::G_PAIRS_TOTAL,
    names::G_BRANCHES_DONE,
    names::G_BRANCHES_TOTAL,
    names::G_CANDIDATES,
    names::G_LOGICAL_BYTES,
];

/// Shared metrics state for one run or one process.
///
/// Compose it into a run's sink (e.g. via [`crate::Fanout`]) and hand a
/// clone to [`crate::httpd::scrape_handler`]; scrapes then see counters and
/// spans as the merge thread publishes them, and gauges at their
/// scrape-instant values.
pub struct Registry {
    /// Creation instant: a run's elapsed time, and its deadline's use.
    started: Instant,
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    gauges: RwLock<BTreeMap<&'static str, AtomicU64>>,
    spans: Mutex<BTreeMap<&'static str, SpanStats>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            started: Instant::now(),
            counters: RwLock::default(),
            gauges: RwLock::default(),
            spans: Mutex::default(),
            hists: Mutex::default(),
        }
    }
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry that serves one run's live views. Its progress gauges
    /// exist from creation, at phase `init` and zero counts, so the
    /// progress document, the exposition and a heartbeat show the run
    /// before its first update. A [`Registry::new`] registry (the daemon's,
    /// a run's report) renders no progress until the phase gauge reaches
    /// it.
    pub fn for_run() -> Self {
        let registry = Registry::new();
        for name in [names::G_PHASE].iter().chain(&PROGRESS_COUNTS) {
            registry.gauge(name, Gauge::Set(0));
        }
        registry
    }

    /// Current value of one counter (0 if never published).
    pub fn counter_value(&self, name: &str) -> u64 {
        value_of(&self.counters, name).unwrap_or(0)
    }

    /// Current value of one gauge (0 if never published).
    pub fn gauge_value(&self, name: &str) -> u64 {
        value_of(&self.gauges, name).unwrap_or(0)
    }

    /// A copy of the stored gauges, or `None` before the phase gauge
    /// exists. Each gauge is read once, relaxed: values from a racing
    /// update may be one bump apart, which is fine for telemetry.
    fn live_gauges(&self) -> Option<BTreeMap<&'static str, u64>> {
        let gauges = read_lock(&self.gauges);
        gauges.contains_key(names::G_PHASE).then(|| {
            gauges
                .iter()
                .map(|(&name, g)| (name, g.load(Ordering::Relaxed)))
                .collect()
        })
    }

    /// The run's progress document, from its gauges (the body of
    /// `/progress`, a heartbeat line, a served job's `progress` object):
    ///
    /// ```json
    /// {"progress":{"elapsed_secs":…,"phase":"slices",
    ///   "slices":{"done":…,"total":…},"pairs":{…},"branches":{…},
    ///   "candidates":…,"logical_bytes":…,
    ///   "budgets":{"deadline":{"limit_secs":…,"used_secs":…,"used_frac":…},…}}}
    /// ```
    ///
    /// Budget entries appear only for budgets the run configured; the
    /// `budgets` key is omitted when the run is unbounded. `None` before
    /// the phase gauge exists (see [`Registry::for_run`]).
    pub fn progress_json(&self) -> Option<Json> {
        let g = self.live_gauges()?;
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        let value = |name| Json::U64(g.get(name).copied().unwrap_or(0));
        let pair = |done, total| {
            Json::obj()
                .with("done", value(done))
                .with("total", value(total))
        };
        let mut body = Json::obj()
            .with("elapsed_secs", Json::F64(elapsed_secs))
            .with("phase", Json::Str(phase_of(&g).as_str().into()))
            .with("slices", pair(names::G_SLICES_DONE, names::G_SLICES_TOTAL))
            .with("pairs", pair(names::G_PAIRS_DONE, names::G_PAIRS_TOTAL))
            .with(
                "branches",
                pair(names::G_BRANCHES_DONE, names::G_BRANCHES_TOTAL),
            )
            .with("candidates", value(names::G_CANDIDATES))
            .with("logical_bytes", value(names::G_LOGICAL_BYTES));
        let budgets = budgets(&g, elapsed_secs);
        if !budgets.is_empty() {
            let mut obj = Json::obj();
            for (name, limit, used, frac) in budgets {
                // Budget kinds keep their historical key spellings (secs vs
                // bytes vs raw counts) so heartbeat consumers see no change.
                let entry = match name {
                    "deadline" => Json::obj()
                        .with("limit_secs", Json::F64(limit))
                        .with("used_secs", Json::F64(used)),
                    "memory" => Json::obj()
                        .with("limit_bytes", Json::U64(limit as u64))
                        .with("used_bytes", Json::U64(used as u64)),
                    _ => Json::obj()
                        .with("limit", Json::U64(limit as u64))
                        .with("spent", Json::U64(used as u64)),
                };
                obj = obj.with(name, entry.with("used_frac", Json::F64(frac)));
            }
            body = body.with("budgets", obj);
        }
        Some(Json::obj().with("progress", body))
    }

    /// The aggregate so far as a [`RunReport`]. Zero counters and empty
    /// histograms stay out of it, as [`RunReport::add_counter`] and
    /// [`RunReport::add_histogram`] drop them; the exposition keeps them.
    /// Gauges stay out too: they are live views, not results.
    pub fn snapshot(&self) -> RunReport {
        RunReport {
            counters: read_lock(&self.counters)
                .iter()
                .map(|(&name, c)| (name, c.load(Ordering::Relaxed)))
                .filter(|&(_, v)| v > 0)
                .collect(),
            spans: lock(&self.spans).clone(),
            histograms: lock(&self.hists)
                .iter()
                .filter(|(_, h)| !h.is_empty())
                .map(|(&name, h)| (name, h.clone()))
                .collect(),
        }
    }

    /// Renders the OpenMetrics text exposition: counters, span latency
    /// histograms (seconds), value histograms, then the caller-sampled
    /// `gauges` (dotted names from [`crate::names`], instantaneous values).
    /// A registry serving a run (see [`Registry::for_run`]) follows with
    /// its progress and budget gauges and — when the tracking allocator is
    /// installed — live and peak heap bytes. Terminated by `# EOF` per the
    /// OpenMetrics spec.
    pub fn render_openmetrics(&self, gauges: &[(&'static str, f64)]) -> String {
        let mut out = String::new();
        for (name, value) in read_lock(&self.counters).iter() {
            let fam = metric_name(name);
            let _ = writeln!(out, "# TYPE {fam} counter");
            let _ = writeln!(out, "{fam}_total {}", value.load(Ordering::Relaxed));
        }
        for (name, stats) in lock(&self.spans).iter() {
            let fam = format!("{}_seconds", metric_name(name));
            render_histogram(
                &mut out,
                &fam,
                stats.hist.buckets().map(|(_, hi, c)| (nanos_le(hi), c)),
                stats.count,
                stats.total.as_secs_f64(),
            );
        }
        for (name, hist) in lock(&self.hists).iter() {
            let fam = metric_name(name);
            render_histogram(
                &mut out,
                &fam,
                hist.buckets().map(|(_, hi, c)| (format_f64(hi as f64), c)),
                hist.count(),
                hist.sum() as f64,
            );
        }
        for (name, value) in gauges {
            gauge(&mut out, &name.replace('.', "_"), *value);
        }
        if let Some(g) = self.live_gauges() {
            render_progress(&mut out, &g, self.started.elapsed().as_secs_f64());
            if let Some(mem) = alloc::snapshot() {
                gauge(&mut out, "alloc_live_bytes", mem.live_bytes as f64);
                gauge(
                    &mut out,
                    "alloc_peak_live_bytes",
                    mem.peak_live_bytes as f64,
                );
                let fam = format!("{PREFIX}alloc_allocated_bytes");
                let _ = writeln!(out, "# TYPE {fam} counter");
                let _ = writeln!(out, "{fam}_total {}", mem.total_bytes);
                let fam = format!("{PREFIX}alloc_allocation_calls");
                let _ = writeln!(out, "# TYPE {fam} counter");
                let _ = writeln!(out, "{fam}_total {}", mem.total_allocs);
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

impl EventSink for Registry {
    /// The registry never asks for events to be built; it aggregates the
    /// counter/span/histogram/gauge stream other layers already publish.
    fn enabled(&self) -> bool {
        false
    }

    fn counter(&self, name: &'static str, delta: u64) {
        update(&self.counters, name, |c| {
            c.fetch_add(delta, Ordering::Relaxed);
        });
    }

    fn span(&self, name: &'static str, elapsed: Duration) {
        lock(&self.spans).entry(name).or_default().record(elapsed);
    }

    /// Stays `false`: the registry alone must not force bucket work onto
    /// the DFS hot paths. When another sink (e.g. a
    /// [`HistogramTap`](crate::HistogramTap)) switches collection on, the
    /// merged histograms still land here.
    fn wants_histograms(&self) -> bool {
        false
    }

    fn histogram(&self, name: &'static str, hist: &Histogram) {
        lock(&self.hists).entry(name).or_default().merge(hist);
    }

    fn gauge(&self, name: &'static str, g: Gauge) {
        update(&self.gauges, name, |v| match g {
            Gauge::Add(n) => {
                v.fetch_add(n, Ordering::Relaxed);
            }
            Gauge::Set(n) => v.store(n, Ordering::Relaxed),
        });
    }
}

/// Applies `f` to the named value, creating it at zero on first sight;
/// only that first sight takes the write lock.
fn update(
    map: &RwLock<BTreeMap<&'static str, AtomicU64>>,
    name: &'static str,
    f: impl Fn(&AtomicU64),
) {
    if let Some(v) = read_lock(map).get(name) {
        return f(v);
    }
    f(write_lock(map).entry(name).or_default());
}

fn value_of(map: &RwLock<BTreeMap<&'static str, AtomicU64>>, name: &str) -> Option<u64> {
    read_lock(map).get(name).map(|v| v.load(Ordering::Relaxed))
}

/// The phase of a run's live gauges (which always hold the phase gauge).
fn phase_of(g: &BTreeMap<&'static str, u64>) -> Phase {
    Phase::ALL
        .get(g[names::G_PHASE] as usize)
        .copied()
        .unwrap_or(Phase::Done)
}

/// Each configured budget, in the order the live views list them: its
/// name, its limit and its use (seconds for `deadline`, bytes for
/// `memory`, units for `candidates`), and the use as a fraction of the
/// limit, saturating at 1.
fn budgets(
    g: &BTreeMap<&'static str, u64>,
    elapsed_secs: f64,
) -> Vec<(&'static str, f64, f64, f64)> {
    let value = |name| g.get(name).map(|&v| v as f64);
    let deadline = g.get(names::G_BUDGET_DEADLINE_NS);
    let kinds = [
        (
            "deadline",
            deadline.map(|&ns| Duration::from_nanos(ns).as_secs_f64()),
            elapsed_secs,
        ),
        (
            "memory",
            value(names::G_BUDGET_MEMORY),
            value(names::G_LOGICAL_BYTES).unwrap_or(0.0),
        ),
        (
            "candidates",
            value(names::G_BUDGET_CANDIDATES),
            value(names::G_BUDGET_SPENT).unwrap_or(0.0),
        ),
    ];
    // A zero limit reads as fully used: `used / 0.0` is infinite or NaN,
    // and `min` returns 1 for both.
    kinds
        .into_iter()
        .filter_map(|(name, limit, used)| limit.map(|l| (name, l, used, (used / l).min(1.0))))
        .collect()
}

/// Maps a dotted internal name (see [`crate::names`]) to its exposition
/// family name: `rangegraph.pairs` → `tricluster_rangegraph_pairs`.
pub fn metric_name(name: &str) -> String {
    format!("{PREFIX}{}", name.replace('.', "_"))
}

fn render_histogram(
    out: &mut String,
    fam: &str,
    buckets: impl Iterator<Item = (String, u64)>,
    count: u64,
    sum: f64,
) {
    let _ = writeln!(out, "# TYPE {fam} histogram");
    let mut cumulative = 0u64;
    for (le, c) in buckets {
        cumulative += c;
        let _ = writeln!(out, "{fam}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{fam}_bucket{{le=\"+Inf\"}} {count}");
    let _ = writeln!(out, "{fam}_sum {}", format_f64(sum));
    let _ = writeln!(out, "{fam}_count {count}");
}

fn render_progress(out: &mut String, g: &BTreeMap<&'static str, u64>, elapsed_secs: f64) {
    gauge(out, "progress_elapsed_seconds", elapsed_secs);
    let fam = format!("{PREFIX}progress_phase");
    let _ = writeln!(out, "# TYPE {fam} gauge");
    let live = phase_of(g);
    for phase in Phase::ALL {
        let hot = if phase == live { 1 } else { 0 };
        let _ = writeln!(out, "{fam}{{phase=\"{}\"}} {hot}", phase.as_str());
    }
    for name in PROGRESS_COUNTS {
        let v = g.get(name).copied().unwrap_or(0);
        gauge(out, &name.replace('.', "_"), v as f64);
    }
    let budgets = budgets(g, elapsed_secs);
    if !budgets.is_empty() {
        for (kind, headroom) in [("used", false), ("headroom", true)] {
            let fam = format!("{PREFIX}budget_{kind}_ratio");
            let _ = writeln!(out, "# TYPE {fam} gauge");
            for &(name, _, _, frac) in &budgets {
                let v = if headroom { 1.0 - frac } else { frac };
                let _ = writeln!(out, "{fam}{{budget=\"{name}\"}} {}", format_f64(v));
            }
        }
    }
}

fn gauge(out: &mut String, name: &str, value: f64) {
    let _ = writeln!(out, "# TYPE {PREFIX}{name} gauge");
    let _ = writeln!(out, "{PREFIX}{name} {}", format_f64(value));
}

/// A span bucket's upper bound (nanoseconds) as a seconds `le` value.
fn nanos_le(hi: u64) -> String {
    format_f64(hi as f64 / 1e9)
}

/// Finite floats only; integral values render without a trailing `.0`
/// (both spellings are valid exposition, one is shorter and stable).
fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn read_lock<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write_lock<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Hand-rolled OpenMetrics parser and structural check shared by the
/// exposition golden tests; kept test-only so the production path stays
/// render-only.
#[cfg(test)]
mod exposition {
    use std::collections::BTreeMap;

    pub(crate) struct Sample {
        /// Sample name as written (`fam_total`, `fam_bucket`, ...).
        pub name: String,
        pub family: String,
        pub labels: Vec<(String, String)>,
        pub value: f64,
    }

    /// A checked exposition: each family's type, and every sample.
    pub(crate) struct Exposition {
        pub types: BTreeMap<String, String>,
        pub samples: Vec<Sample>,
    }

    impl Exposition {
        pub(crate) fn family(&self, fam: &str) -> Vec<&Sample> {
            self.samples.iter().filter(|s| s.family == fam).collect()
        }
    }

    /// Parses `text` and asserts its structure: `# EOF`-terminated, every
    /// family typed once (counter, gauge, or histogram) before its samples,
    /// no other comments, finite values, each counter exactly once, and
    /// each histogram's buckets cumulative/monotone up to a `+Inf` bucket
    /// equal to `_count`, next to exactly one `_sum` and one `_count`.
    pub(crate) fn check(text: &str) -> Exposition {
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.last(), Some(&"# EOF"), "EOF-terminated");
        let mut doc = Exposition {
            types: BTreeMap::new(),
            samples: Vec::new(),
        };
        for line in &lines[..lines.len() - 1] {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (fam, ty) = rest.split_once(' ').expect("TYPE has family and kind");
                assert!(
                    matches!(ty, "counter" | "gauge" | "histogram"),
                    "unknown type {ty:?}"
                );
                assert!(
                    doc.types.insert(fam.to_string(), ty.to_string()).is_none(),
                    "family {fam} typed twice"
                );
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment {line:?}");
            let s = parse_sample(line, &doc.types);
            assert!(
                doc.types.contains_key(&s.family),
                "sample for untyped family {:?}",
                s.family
            );
            assert!(s.value.is_finite(), "{line}");
            doc.samples.push(s);
        }
        for (fam, ty) in &doc.types {
            let samples = doc.family(fam);
            match ty.as_str() {
                "counter" => assert_eq!(samples.len(), 1, "counter {fam} appears exactly once"),
                "histogram" => check_histogram(fam, &samples),
                _ => {}
            }
        }
        doc
    }

    fn check_histogram(fam: &str, samples: &[&Sample]) {
        let (buckets, rest): (Vec<&Sample>, Vec<&Sample>) = samples
            .iter()
            .partition(|s| s.labels.iter().any(|(k, _)| k == "le"));
        assert!(!buckets.is_empty(), "{fam} has buckets");
        let mut prev = 0.0;
        for b in &buckets {
            assert!(
                b.value >= prev,
                "{fam} bucket counts must be cumulative/monotone"
            );
            prev = b.value;
        }
        let last = buckets.last().unwrap();
        assert_eq!(
            last.labels,
            [("le".to_string(), "+Inf".to_string())],
            "{fam} ends with the +Inf bucket"
        );
        let names: Vec<&str> = rest.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [format!("{fam}_sum"), format!("{fam}_count")],
            "{fam} has exactly _sum and _count"
        );
        assert_eq!(last.value, rest[1].value, "{fam} +Inf bucket equals _count");
    }

    fn parse_sample(line: &str, types: &BTreeMap<String, String>) -> Sample {
        let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            panic!("unparseable value in {line:?}");
        });
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("closed label set");
                let labels = body
                    .split(',')
                    .map(|kv| {
                        let (k, v) = kv.split_once('=').expect("label k=v");
                        let v = v
                            .strip_prefix('"')
                            .and_then(|v| v.strip_suffix('"'))
                            .expect("quoted label value");
                        (k.to_string(), v.to_string())
                    })
                    .collect();
                (name.to_string(), labels)
            }
        };
        // Strip the per-type sample suffix to recover the family name.
        let family = ["_total", "_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let stem = name.strip_suffix(suffix)?;
                types.contains_key(stem).then(|| stem.to_string())
            })
            .unwrap_or_else(|| name.clone());
        Sample {
            name,
            family,
            labels,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names;

    #[test]
    fn registry_aggregates_counters_spans_and_histograms() {
        let reg = Registry::new();
        let sink: &dyn EventSink = &reg;
        sink.counter(names::RG_PAIRS, 10);
        sink.counter(names::RG_PAIRS, 5);
        sink.counter(names::BC_NODES, 1);
        sink.span(names::SPAN_SLICES_WALL, Duration::from_millis(3));
        sink.span(names::SPAN_SLICES_WALL, Duration::from_millis(5));
        let mut h = Histogram::default();
        h.record(4);
        h.record(1000);
        sink.histogram(names::H_BC_DEPTH, &h);
        sink.histogram(names::H_BC_DEPTH, &h);
        assert_eq!(reg.counter_value(names::RG_PAIRS), 15);
        assert_eq!(reg.counter_value(names::BC_NODES), 1);
        assert_eq!(reg.counter_value("no.such.counter"), 0);
        let text = reg.render_openmetrics(&[]);
        assert!(
            text.contains("tricluster_rangegraph_pairs_total 15"),
            "{text}"
        );
        assert!(
            text.contains("tricluster_phase_slices_wall_seconds_count 2"),
            "{text}"
        );
        assert!(
            text.contains("tricluster_bicluster_dfs_depth_count 4"),
            "{text}"
        );
        assert!(text.ends_with("# EOF\n"), "{text}");
    }

    #[test]
    fn registry_renders_progress_and_budget_gauges() {
        let reg = Registry::for_run();
        for (name, g) in [
            (names::G_BUDGET_MEMORY, Gauge::Set(1000)),
            (names::G_BUDGET_CANDIDATES, Gauge::Set(50)),
            (names::G_PHASE, Gauge::Set(Phase::Tricluster as u64)),
            (names::G_SLICES_TOTAL, Gauge::Add(4)),
            (names::G_SLICES_DONE, Gauge::Add(1)),
            (names::G_LOGICAL_BYTES, Gauge::Set(250)),
            (names::G_BUDGET_SPENT, Gauge::Add(25)),
        ] {
            reg.gauge(name, g);
        }
        let text = reg.render_openmetrics(&[]);
        assert!(text.contains("tricluster_progress_slices_done 1"), "{text}");
        assert!(
            text.contains("tricluster_progress_slices_total 4"),
            "{text}"
        );
        assert!(
            text.contains("tricluster_progress_phase{phase=\"tricluster\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tricluster_progress_phase{phase=\"slices\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("tricluster_budget_used_ratio{budget=\"memory\"} 0.25"),
            "{text}"
        );
        assert!(
            text.contains("tricluster_budget_headroom_ratio{budget=\"candidates\"} 0.5"),
            "{text}"
        );
        let json = reg.progress_json().expect("a run's registry").render();
        assert!(json.contains("\"progress\""), "{json}");
        // Gauges never reach the run report.
        assert_eq!(reg.snapshot(), RunReport::default());
    }

    #[test]
    fn registry_serves_progress_once_it_holds_the_phase_gauge() {
        let reg = Registry::new();
        assert!(reg.progress_json().is_none());
        reg.gauge(names::G_CANDIDATES, Gauge::Add(1));
        assert!(reg.progress_json().is_none(), "no phase gauge yet");
        assert_eq!(reg.gauge_value(names::G_CANDIDATES), 1);
        reg.gauge(names::G_PHASE, Gauge::Set(Phase::Prune as u64));
        let doc = reg.progress_json().expect("phase gauge stored");
        assert_eq!(
            doc.get_path(&["progress", "phase"]).and_then(Json::as_str),
            Some("prune")
        );
        assert_eq!(
            doc.get_path(&["progress", "candidates"])
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn metric_names_sanitize_dots() {
        assert_eq!(
            metric_name("rangegraph.ranges.valid"),
            "tricluster_rangegraph_ranges_valid"
        );
    }

    #[test]
    fn format_f64_is_stable() {
        assert_eq!(format_f64(0.0), "0");
        assert_eq!(format_f64(3.0), "3");
        assert_eq!(format_f64(0.25), "0.25");
    }

    // ---- golden exposition-format tests ---------------------------------
    //
    // Both lifetimes go through the shared structural check in
    // [`super::exposition`].

    #[test]
    fn exposition_is_valid_openmetrics() {
        // Populate a registry the same way a run does: counters and spans
        // through the sink interface, histograms merged, gauges live.
        let reg = Registry::new();
        let sink: &dyn EventSink = &reg;
        for (name, delta) in [
            (names::RG_PAIRS, 45u64),
            (names::RG_EDGES, 12),
            (names::BC_NODES, 100),
            (names::TC_RECORDED, 3),
            (names::M_MATRIX_BYTES, 24_000),
        ] {
            sink.counter(name, delta);
        }
        for _ in 0..32 {
            sink.span(names::SPAN_RANGE_GRAPH, Duration::from_micros(800));
            sink.span(names::SPAN_TRICLUSTER, Duration::from_millis(7));
        }
        let mut h = Histogram::default();
        for v in [1u64, 2, 2, 9, 40, 41, 100_000] {
            h.record(v);
        }
        sink.histogram(names::H_TC_DEPTH, &h);
        sink.gauge(names::G_BUDGET_DEADLINE_NS, Gauge::Set(60_000_000_000));
        sink.gauge(names::G_BUDGET_MEMORY, Gauge::Set(1 << 20));
        sink.gauge(names::G_PHASE, Gauge::Set(Phase::Done as u64));

        let doc = exposition::check(&reg.render_openmetrics(&[]));
        // Every published counter appears with its exact value.
        for (name, want) in [(names::RG_PAIRS, 45.0), (names::TC_RECORDED, 3.0)] {
            let fam = metric_name(name);
            let hits = doc.family(&fam);
            assert_eq!(hits.len(), 1, "{fam} appears once");
            assert_eq!(hits[0].value, want, "{fam} value");
        }
        // Progress gauges made it through with one-hot phase encoding.
        let phases = doc.family("tricluster_progress_phase");
        assert_eq!(phases.len(), Phase::ALL.len());
        assert_eq!(
            phases.iter().map(|s| s.value).sum::<f64>(),
            1.0,
            "exactly one live phase"
        );
    }

    /// The daemon's process-lifetime exposition: lifecycle counters through
    /// `counter`, latency families through `span`, gauges sampled by the
    /// caller, and no progress gauges.
    #[test]
    fn serve_exposition_is_valid_openmetrics() {
        let reg = Registry::new();
        for (name, delta) in [
            (names::SV_JOBS_ACCEPTED, 5u64),
            (names::SV_JOBS_REJECTED_QUEUE_FULL, 2),
            (names::SV_JOBS_COMPLETED, 4),
            (names::SV_JOBS_FAILED, 1),
            (names::SV_HTTP_REQUESTS, 31),
            (names::SV_JOBS_CANCELLED, 0),
        ] {
            reg.counter(name, delta);
        }
        for ms in [1u64, 3, 3, 40, 600] {
            reg.span(names::SV_QUEUE_WAIT, Duration::from_millis(ms));
        }
        for ms in [20u64, 90, 90, 250] {
            reg.span(names::SV_RUN, Duration::from_millis(ms));
        }
        assert_eq!(reg.counter_value(names::SV_JOBS_ACCEPTED), 5);
        assert_eq!(reg.counter_value(names::SV_HTTP_REQUESTS), 31);
        assert_eq!(reg.counter_value(names::SV_JOBS_REJECTED_MEMORY), 0);
        let report = reg.snapshot();
        let wait = &report.spans[names::SV_QUEUE_WAIT];
        assert_eq!((wait.count, wait.total), (5, Duration::from_millis(647)));
        assert!(!report.spans.contains_key(names::SV_ARCHIVE));
        assert!(!report.counters.contains_key(names::SV_JOBS_CANCELLED));

        let gauges = [
            (names::SV_QUEUE_DEPTH, 3.0),
            (names::SV_ADMITTED_BYTES, 1_048_576.0),
            (names::SV_WORKERS_BUSY, 2.0),
            (names::SV_CACHE_HITS, 9.0),
        ];
        let doc = exposition::check(&reg.render_openmetrics(&gauges));
        for s in &doc.samples {
            assert!(
                s.family.starts_with("tricluster_serve_"),
                "service family {:?} carries the serve prefix",
                s.family
            );
        }
        // Counters: exactly one sample each with the exact value; a zero
        // delta still renders its family.
        for (name, want) in [
            (names::SV_JOBS_ACCEPTED, 5.0),
            (names::SV_JOBS_REJECTED_QUEUE_FULL, 2.0),
            (names::SV_HTTP_REQUESTS, 31.0),
            (names::SV_JOBS_CANCELLED, 0.0),
        ] {
            let fam = metric_name(name);
            let hits = doc.family(&fam);
            assert_eq!(hits.len(), 1, "{fam} appears once");
            assert_eq!(hits[0].value, want, "{fam} value");
        }
        let histograms: Vec<&String> = doc
            .types
            .iter()
            .filter(|(_, ty)| *ty == "histogram")
            .map(|(fam, _)| fam)
            .collect();
        assert_eq!(
            histograms,
            [
                "tricluster_serve_job_queue_wait_seconds",
                "tricluster_serve_job_run_seconds"
            ],
            "queue_wait and run families"
        );
        // Gauges render once each with the sampled value.
        for (name, want) in gauges {
            let fam = metric_name(name);
            assert_eq!(doc.types.get(&fam).map(String::as_str), Some("gauge"));
            let hits = doc.family(&fam);
            assert_eq!(hits.len(), 1, "{fam} appears once");
            assert_eq!(hits[0].value, want, "{fam} value");
        }
    }

    /// Heap families belong to a run's live gauges: once the tracking
    /// counters have moved, a registry renders them only while it serves
    /// a run's progress, so the daemon's exposition never does.
    #[test]
    fn heap_families_render_only_with_progress() {
        use std::alloc::{GlobalAlloc, Layout};
        let _counters = alloc::tests::COUNTERS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let layout = Layout::from_size_align(64, 8).unwrap();
        let tracking = alloc::TrackingAlloc::new();
        // SAFETY: paired alloc/dealloc with a valid, non-zero-size layout.
        unsafe {
            let p = tracking.alloc(layout);
            assert!(!p.is_null());
            tracking.dealloc(p, layout);
        }
        assert!(alloc::snapshot().is_some());

        let reg = Registry::new();
        reg.counter(names::SV_HTTP_REQUESTS, 1);
        let daemon = reg.render_openmetrics(&[(names::SV_QUEUE_DEPTH, 0.0)]);
        assert!(!daemon.contains("tricluster_alloc_"), "{daemon}");

        assert!(!daemon.contains("tricluster_progress_"), "{daemon}");
        assert!(!daemon.contains("tricluster_budget_"), "{daemon}");

        let doc = exposition::check(&Registry::for_run().render_openmetrics(&[]));
        for fam in [
            "tricluster_alloc_live_bytes",
            "tricluster_alloc_peak_live_bytes",
            "tricluster_alloc_allocated_bytes",
            "tricluster_alloc_allocation_calls",
        ] {
            assert_eq!(doc.family(fam).len(), 1, "{fam}");
        }
    }
}
