//! Live metrics registry with OpenMetrics text exposition.
//!
//! A [`Registry`] is an [`EventSink`] that aggregates whatever the run
//! publishes — counters, span timings, value histograms — into shared
//! state cheap enough to sit in a sink fan-out for the whole run, plus a
//! scrape-time view of the run's [`Progress`] gauges, budget proximity,
//! and the tracking allocator's live/peak bytes. [`render_openmetrics`]
//! serializes all of it as OpenMetrics/Prometheus text exposition,
//! hand-rolled in the same no-dependency spirit as [`crate::json`].
//!
//! Like every other observability layer, the registry only observes:
//! counter updates are relaxed atomics behind a read lock, span and
//! histogram merges take a mutex off the DFS hot paths (they arrive from
//! the single merge thread), and nothing feeds back into mining decisions
//! — so serving metrics cannot perturb the byte-deterministic report
//! sections.
//!
//! [`render_openmetrics`]: Registry::render_openmetrics

use crate::hist::Histogram;
use crate::progress::{Phase, Progress, ProgressSnapshot};
use crate::{alloc, EventSink, SpanStats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Every exposed metric family is prefixed so scrapes from several jobs
/// can share a Prometheus instance without name clashes.
const PREFIX: &str = "tricluster_";

/// Shared metrics state for one run (or one process serving many runs).
///
/// Compose it into the run's sink (e.g. via [`crate::Fanout`]) and hand a
/// clone to [`crate::httpd::scrape_handler`]; scrapes then see counters and
/// spans as the merge thread publishes them, and gauges at their
/// scrape-instant values.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    spans: Mutex<BTreeMap<&'static str, SpanStats>>,
    hists: Mutex<BTreeMap<&'static str, Histogram>>,
    progress: RwLock<Option<Arc<Progress>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches the run's progress gauges; scrapes render them live and
    /// `/progress` serves their JSON snapshot.
    pub fn attach_progress(&self, progress: Arc<Progress>) {
        *write_lock(&self.progress) = Some(progress);
    }

    /// Current value of one counter (test and rendering hook).
    pub fn counter_value(&self, name: &str) -> u64 {
        read_lock(&self.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// JSON snapshot of the attached progress gauges, if any (the
    /// `/progress` endpoint body).
    pub fn progress_json(&self) -> Option<String> {
        read_lock(&self.progress)
            .as_ref()
            .map(|p| p.snapshot_json().render())
    }

    /// Renders the full OpenMetrics text exposition: counters, span
    /// latency histograms (seconds), value histograms, progress/budget
    /// gauges, and — when the tracking allocator is installed — live and
    /// peak heap bytes. Terminated by `# EOF` per the OpenMetrics spec.
    pub fn render_openmetrics(&self) -> String {
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
        if let Some(progress) = read_lock(&self.progress).as_ref() {
            render_progress(&mut out, &progress.snapshot());
        }
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
        out.push_str("# EOF\n");
        out
    }
}

impl EventSink for Registry {
    /// The registry never asks for events to be built; it aggregates the
    /// counter/span/histogram stream other layers already publish.
    fn enabled(&self) -> bool {
        false
    }

    fn counter(&self, name: &'static str, delta: u64) {
        {
            let counters = read_lock(&self.counters);
            if let Some(c) = counters.get(name) {
                c.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        write_lock(&self.counters)
            .entry(name)
            .or_insert_with(|| AtomicU64::new(0))
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn span(&self, name: &'static str, elapsed: Duration) {
        lock(&self.spans).entry(name).or_default().record(elapsed);
    }

    /// Stays `false`: the registry alone must not force bucket work onto
    /// the DFS hot paths. When another sink (e.g. the CLI's report tap)
    /// switches collection on, the merged histograms still land here.
    fn wants_histograms(&self) -> bool {
        false
    }

    fn histogram(&self, name: &'static str, hist: &Histogram) {
        lock(&self.hists).entry(name).or_default().merge(hist);
    }

    fn progress(&self) -> Option<Arc<Progress>> {
        read_lock(&self.progress).clone()
    }
}

/// Maps a dotted internal name (see [`crate::names`]) to its exposition
/// family name: `rangegraph.pairs` → `tricluster_rangegraph_pairs`.
pub fn metric_name(name: &str) -> String {
    format!("{PREFIX}{}", name.replace('.', "_"))
}

pub(crate) fn render_histogram(
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

fn render_progress(out: &mut String, snap: &ProgressSnapshot) {
    gauge(out, "progress_elapsed_seconds", snap.elapsed_secs);
    let fam = format!("{PREFIX}progress_phase");
    let _ = writeln!(out, "# TYPE {fam} gauge");
    for phase in Phase::ALL {
        let hot = if phase == snap.phase { 1 } else { 0 };
        let _ = writeln!(out, "{fam}{{phase=\"{}\"}} {hot}", phase.as_str());
    }
    let pairs: [(&str, u64); 8] = [
        ("progress_slices_done", snap.slices_done),
        ("progress_slices_total", snap.slices_total),
        ("progress_pairs_done", snap.pairs_done),
        ("progress_pairs_total", snap.pairs_total),
        ("progress_branches_done", snap.branches_done),
        ("progress_branches_total", snap.branches_total),
        ("progress_candidates", snap.candidates),
        ("progress_logical_bytes", snap.logical_bytes),
    ];
    for (name, v) in pairs {
        gauge(out, name, v as f64);
    }
    if !snap.budgets.is_empty() {
        let used = format!("{PREFIX}budget_used_ratio");
        let headroom = format!("{PREFIX}budget_headroom_ratio");
        let _ = writeln!(out, "# TYPE {used} gauge");
        for b in &snap.budgets {
            let _ = writeln!(
                out,
                "{used}{{budget=\"{}\"}} {}",
                b.name,
                format_f64(b.used_frac)
            );
        }
        let _ = writeln!(out, "# TYPE {headroom} gauge");
        for b in &snap.budgets {
            let _ = writeln!(
                out,
                "{headroom}{{budget=\"{}\"}} {}",
                b.name,
                format_f64(1.0 - b.used_frac)
            );
        }
    }
}

pub(crate) fn gauge(out: &mut String, name: &str, value: f64) {
    let _ = writeln!(out, "# TYPE {PREFIX}{name} gauge");
    let _ = writeln!(out, "{PREFIX}{name} {}", format_f64(value));
}

/// A span bucket's upper bound (nanoseconds) as a seconds `le` value.
pub(crate) fn nanos_le(hi: u64) -> String {
    format_f64(hi as f64 / 1e9)
}

/// Finite floats only; integral values render without a trailing `.0`
/// (both spellings are valid exposition, one is shorter and stable).
pub(crate) fn format_f64(v: f64) -> String {
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

/// Hand-rolled OpenMetrics line parser shared by the exposition golden
/// tests here and in [`crate::service`]; kept test-only so the production
/// path stays render-only.
#[cfg(test)]
pub(crate) mod exposition {
    use std::collections::BTreeMap;

    pub(crate) struct Sample {
        pub family: String,
        pub labels: Vec<(String, String)>,
        pub value: f64,
    }

    pub(crate) fn parse_sample(line: &str, types: &BTreeMap<String, String>) -> Sample {
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
            .unwrap_or(name);
        Sample {
            family,
            labels,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::exposition::{parse_sample, Sample};
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
        let text = reg.render_openmetrics();
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
        let reg = Registry::new();
        let p = Arc::new(Progress::new());
        p.set_budgets(None, Some(1000), Some(50));
        p.set_phase(Phase::Tricluster);
        p.add_slices_total(4);
        p.slice_done();
        p.set_logical_bytes(250);
        p.add_budget_spent(25);
        reg.attach_progress(p);
        let text = reg.render_openmetrics();
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
        let json = reg.progress_json().expect("progress attached");
        assert!(json.contains("\"progress\""), "{json}");
    }

    #[test]
    fn registry_is_discoverable_as_progress_provider() {
        let reg = Registry::new();
        assert!(reg.progress().is_none());
        let p = Arc::new(Progress::new());
        reg.attach_progress(p.clone());
        let found = EventSink::progress(&reg).expect("attached");
        found.candidate_recorded();
        assert_eq!(p.candidates(), 1);
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

    // ---- satellite: golden exposition-format test -----------------------
    //
    // The shared hand-rolled OpenMetrics parser (see [`super::exposition`])
    // checks structural validity: every family is typed before its samples,
    // counters appear exactly once, histogram buckets are
    // cumulative/monotone and consistent with their `_count`, and the
    // document is `# EOF`-terminated.

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
        let p = Arc::new(Progress::new());
        p.set_budgets(Some(Duration::from_secs(60)), Some(1 << 20), None);
        p.set_phase(Phase::Done);
        reg.attach_progress(p);

        let text = reg.render_openmetrics();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(*lines.last().unwrap(), "# EOF", "EOF-terminated");

        let mut types: BTreeMap<String, String> = BTreeMap::new();
        let mut samples: Vec<Sample> = Vec::new();
        for line in &lines[..lines.len() - 1] {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (fam, ty) = rest.split_once(' ').expect("TYPE has family and kind");
                assert!(
                    matches!(ty, "counter" | "gauge" | "histogram"),
                    "unknown type {ty:?}"
                );
                assert!(
                    types.insert(fam.to_string(), ty.to_string()).is_none(),
                    "family {fam} typed twice"
                );
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment {line:?}");
            samples.push(parse_sample(line, &types));
        }
        for s in &samples {
            assert!(
                types.contains_key(&s.family),
                "sample for untyped family {:?}",
                s.family
            );
            assert!(s.value.is_finite());
        }
        // Counters: every published counter appears exactly once, with its
        // exact value.
        for (name, want) in [(names::RG_PAIRS, 45.0), (names::TC_RECORDED, 3.0)] {
            let fam = metric_name(name);
            let hits: Vec<&Sample> = samples.iter().filter(|s| s.family == fam).collect();
            assert_eq!(hits.len(), 1, "{fam} appears once");
            assert_eq!(hits[0].value, want, "{fam} value");
        }
        for (fam, ty) in &types {
            if ty == "counter" {
                let hits = samples.iter().filter(|s| s.family == *fam).count();
                assert_eq!(hits, 1, "counter {fam} appears exactly once");
            }
        }
        // Histograms: buckets are cumulative (monotone non-decreasing in le
        // order as rendered), +Inf equals _count, and _sum is present.
        for (fam, ty) in &types {
            if ty != "histogram" {
                continue;
            }
            let buckets: Vec<&Sample> = samples
                .iter()
                .filter(|s| s.family == *fam && s.labels.iter().any(|(k, _)| k == "le"))
                .collect();
            assert!(!buckets.is_empty(), "{fam} has buckets");
            let mut prev = 0.0;
            for b in &buckets {
                assert!(
                    b.value >= prev,
                    "{fam} bucket counts must be cumulative/monotone"
                );
                prev = b.value;
            }
            let (_, last_le) = buckets
                .last()
                .unwrap()
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .unwrap()
                .clone();
            assert_eq!(last_le, "+Inf", "{fam} ends with the +Inf bucket");
            let count_needle = format!("{fam}_count ");
            let count = lines
                .iter()
                .find(|l| l.starts_with(&count_needle))
                .and_then(|l| l.rsplit_once(' '))
                .map(|(_, v)| v.parse::<f64>().unwrap())
                .expect("histogram _count present");
            assert_eq!(
                buckets.last().unwrap().value,
                count,
                "{fam} +Inf bucket equals _count"
            );
            let sum_needle = format!("{fam}_sum ");
            assert!(
                lines.iter().any(|l| l.starts_with(&sum_needle)),
                "{fam} has a _sum"
            );
        }
        // Progress gauges made it through with one-hot phase encoding.
        let phases: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.family == "tricluster_progress_phase")
            .collect();
        assert_eq!(phases.len(), Phase::ALL.len());
        assert_eq!(
            phases.iter().map(|s| s.value).sum::<f64>(),
            1.0,
            "exactly one live phase"
        );
    }
}
