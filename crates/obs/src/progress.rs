//! Live progress telemetry for long mining runs.
//!
//! The pipeline publishes its progress as gauges through the run's sink
//! ([`EventSink::gauge`], names `progress.*` and `budget.*` in
//! [`crate::names`]): slices, range-graph pairs and DFS branches as they
//! are scheduled and attempted, recorded candidates, charged logical
//! bytes, the phase, and the run's budgets. A [`Registry`] stores them;
//! nothing on the mining path reads them, and a relaxed atomic update
//! cannot influence scheduling-visible state, so progress reporting can
//! never perturb the byte-deterministic report sections.
//!
//! A [`ProgressTicker`] owns a background thread that renders a registry's
//! progress document every `interval` and writes it as one JSON line per
//! tick (plus a final line when stopped), giving `tricluster mine
//! --progress` its heartbeat without any coordination with the mining
//! threads.

use crate::metrics::Registry;
use crate::{EventSink, Gauge};
use std::io::Write;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Coarse pipeline phase, for the `"phase"` field of a progress document.
/// The `progress.phase` gauge holds its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the slice fan-out starts.
    Init,
    /// Per-time-slice range-graph construction + bicluster mining.
    Slices,
    /// Cross-time tricluster DFS.
    Tricluster,
    /// Merge/prune post-processing.
    Prune,
    /// Pipeline finished (the final snapshot reports this).
    Done,
}

impl Phase {
    /// Every phase, in pipeline order (used by the metrics exposition's
    /// one-hot phase gauge).
    pub const ALL: [Phase; 5] = [
        Phase::Init,
        Phase::Slices,
        Phase::Tricluster,
        Phase::Prune,
        Phase::Done,
    ];

    /// Stable lowercase name used in progress JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Slices => "slices",
            Phase::Tricluster => "tricluster",
            Phase::Prune => "prune",
            Phase::Done => "done",
        }
    }
}

/// The registry's old name, kept only so the benchmark's layer pass, which
/// builds `ProgressSink(Arc::new(Progress::new()))`, still compiles.
/// ROADMAP item 1 (the pending benchmark change) deletes it; code in this
/// workspace names [`Registry`].
pub type Progress = Registry;

/// Sink wrapper that feeds a run's gauges, and nothing else, into a
/// registry: it contributes nothing to events, counters, spans or
/// histograms (`enabled` stays `false`).
pub struct ProgressSink(pub Arc<Registry>);

impl EventSink for ProgressSink {
    fn enabled(&self) -> bool {
        false
    }
    fn gauge(&self, name: &'static str, update: Gauge) {
        self.0.gauge(name, update);
    }
}

/// Background heartbeat: renders a registry's progress document every
/// `interval` and writes it as one JSON line per tick, plus exactly one
/// final line when dropped.
///
/// The final line is emitted by the *dropping* thread, after the tick
/// thread has been stopped and joined — so it is ordered after every
/// gauge update the run made before dropping the ticker (the log's last
/// line always reflects the terminal phase and counters), and it is
/// still attempted when the tick thread died early on a transient write
/// failure.
pub struct ProgressTicker {
    progress: Arc<Registry>,
    out: Arc<Mutex<Box<dyn Write + Send>>>,
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// One progress line: rendered in full, written atomically, flushed. A
/// registry without progress gauges writes nothing.
fn emit_snapshot(progress: &Registry, out: &Mutex<Box<dyn Write + Send>>) -> bool {
    let Some(doc) = progress.progress_json() else {
        return true;
    };
    let mut line = doc.render();
    line.push('\n');
    let mut out = out.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    out.write_all(line.as_bytes()).is_ok() && out.flush().is_ok()
}

impl ProgressTicker {
    /// Starts the heartbeat thread. Lines go to `out` as
    /// `progress_json()` rendered + `'\n'`, written atomically per line
    /// and flushed; the tick thread stops on write failure (e.g. closed
    /// pipe) but the final drop-time snapshot is attempted regardless.
    pub fn start(progress: Arc<Registry>, interval: Duration, out: Box<dyn Write + Send>) -> Self {
        let out = Arc::new(Mutex::new(out));
        let (stop, ticks) = mpsc::channel::<()>();
        let handle = {
            let progress = progress.clone();
            let out = out.clone();
            std::thread::spawn(move || loop {
                match ticks.recv_timeout(interval) {
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        if !emit_snapshot(&progress, &out) {
                            return;
                        }
                    }
                    // Stop requested (the final line is the dropper's job)
                    // or the ticker struct was leaked without running Drop.
                    Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            })
        };
        ProgressTicker {
            progress,
            out,
            stop: Some(stop),
            handle: Some(handle),
        }
    }
}

impl Drop for ProgressTicker {
    fn drop(&mut self) {
        if let Some(stop) = self.stop.take() {
            let _ = stop.send(());
        }
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let _ = emit_snapshot(&self.progress, &self.out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::names;
    use std::sync::atomic::Ordering;

    fn add(reg: &Registry, name: &'static str, n: u64) {
        reg.gauge(name, Gauge::Add(n));
    }

    fn set(reg: &Registry, name: &'static str, v: u64) {
        reg.gauge(name, Gauge::Set(v));
    }

    #[test]
    fn snapshot_reports_phase_and_gauges() {
        let p = Registry::for_run();
        set(&p, names::G_PHASE, Phase::Slices as u64);
        add(&p, names::G_SLICES_TOTAL, 7);
        add(&p, names::G_SLICES_DONE, 1);
        add(&p, names::G_SLICES_DONE, 1);
        add(&p, names::G_PAIRS_TOTAL, 45);
        add(&p, names::G_PAIRS_DONE, 1);
        add(&p, names::G_BRANCHES_TOTAL, 10);
        add(&p, names::G_BRANCHES_DONE, 1);
        add(&p, names::G_CANDIDATES, 1);
        set(&p, names::G_LOGICAL_BYTES, 1234);
        let snap = p.progress_json().expect("a run's registry");
        let body = snap.get("progress").expect("progress key");
        assert_eq!(body.get("phase").and_then(|v| v.as_str()), Some("slices"));
        assert_eq!(
            body.get_path(&["slices", "done"]).and_then(|v| v.as_u64()),
            Some(2)
        );
        assert_eq!(
            body.get_path(&["slices", "total"]).and_then(|v| v.as_u64()),
            Some(7)
        );
        assert_eq!(
            body.get_path(&["pairs", "done"]).and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(body.get("candidates").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(
            body.get("logical_bytes").and_then(|v| v.as_u64()),
            Some(1234)
        );
        assert!(body.get("budgets").is_none(), "unbounded run: no budgets");
        // snapshots render as parseable single-line JSON
        let text = snap.render();
        assert!(!text.contains('\n'));
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn snapshot_reports_budget_proximity() {
        let p = Registry::for_run();
        set(&p, names::G_BUDGET_DEADLINE_NS, 100_000_000_000);
        set(&p, names::G_BUDGET_MEMORY, 1000);
        set(&p, names::G_BUDGET_CANDIDATES, 50);
        set(&p, names::G_LOGICAL_BYTES, 250);
        add(&p, names::G_BUDGET_SPENT, 25);
        let snap = p.progress_json().unwrap();
        let body = snap.get("progress").unwrap();
        let mem_frac = body
            .get_path(&["budgets", "memory", "used_frac"])
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((mem_frac - 0.25).abs() < 1e-9, "{mem_frac}");
        let cand_frac = body
            .get_path(&["budgets", "candidates", "used_frac"])
            .and_then(|v| v.as_f64())
            .unwrap();
        assert!((cand_frac - 0.5).abs() < 1e-9, "{cand_frac}");
        assert!(body
            .get_path(&["budgets", "deadline", "limit_secs"])
            .is_some());
    }

    #[test]
    fn used_frac_saturates_at_one() {
        let p = Registry::for_run();
        set(&p, names::G_BUDGET_MEMORY, 100);
        set(&p, names::G_LOGICAL_BYTES, 5000);
        let frac = p
            .progress_json()
            .unwrap()
            .get_path(&["progress", "budgets", "memory", "used_frac"])
            .and_then(|v| v.as_f64())
            .unwrap();
        assert_eq!(frac, 1.0);
    }

    #[test]
    fn progress_sink_forwards_only_gauges() {
        let p = Arc::new(Registry::new());
        let sink = ProgressSink(p.clone());
        let dyn_sink: &dyn EventSink = &sink;
        assert!(!dyn_sink.enabled());
        dyn_sink.gauge(names::G_CANDIDATES, Gauge::Add(1));
        assert_eq!(p.gauge_value(names::G_CANDIDATES), 1);
        dyn_sink.counter(names::BC_NODES, 4);
        dyn_sink.span(names::SPAN_PRUNE, Duration::from_millis(1));
        assert_eq!(p.snapshot(), crate::RunReport::default());
    }

    #[test]
    fn ticker_emits_final_snapshot_on_drop() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let p = Arc::new(Registry::for_run());
        {
            let ticker = ProgressTicker::start(
                p.clone(),
                Duration::from_secs(3600), // never ticks on its own
                Box::new(Shared(buf.clone())),
            );
            set(&p, names::G_PHASE, Phase::Done as u64);
            drop(ticker);
        }
        let text = String::from_utf8(
            buf.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone(),
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "exactly the final snapshot: {text:?}");
        let parsed = Json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(
            parsed
                .get_path(&["progress", "phase"])
                .and_then(|v| v.as_str()),
            Some("done")
        );
    }

    #[test]
    fn ticker_emits_periodic_snapshots() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let p = Arc::new(Registry::for_run());
        let ticker = ProgressTicker::start(
            p.clone(),
            Duration::from_millis(5),
            Box::new(Shared(buf.clone())),
        );
        std::thread::sleep(Duration::from_millis(60));
        drop(ticker);
        let text = String::from_utf8(
            buf.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone(),
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected several ticks, got {lines:?}");
        for line in lines {
            assert!(Json::parse(line).is_ok(), "torn line: {line:?}");
        }
    }

    #[test]
    fn ticker_final_line_reflects_terminal_counters() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let p = Arc::new(Registry::for_run());
        let ticker = ProgressTicker::start(
            p.clone(),
            Duration::from_secs(3600), // never ticks on its own
            Box::new(Shared(buf.clone())),
        );
        // Every update lands before the drop — the final line must carry
        // all of them, not a snapshot from an earlier tick.
        add(&p, names::G_SLICES_TOTAL, 3);
        add(&p, names::G_SLICES_DONE, 1);
        add(&p, names::G_SLICES_DONE, 1);
        add(&p, names::G_SLICES_DONE, 1);
        add(&p, names::G_CANDIDATES, 1);
        set(&p, names::G_PHASE, Phase::Done as u64);
        drop(ticker);
        let text = String::from_utf8(
            buf.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone(),
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "exactly the final snapshot: {text:?}");
        let last = Json::parse(lines[0]).expect("valid JSON line");
        let body = last.get("progress").unwrap();
        assert_eq!(body.get("phase").and_then(|v| v.as_str()), Some("done"));
        assert_eq!(
            body.get_path(&["slices", "done"]).and_then(|v| v.as_u64()),
            Some(3)
        );
        assert_eq!(body.get("candidates").and_then(|v| v.as_u64()), Some(1));
    }

    #[test]
    fn ticker_emits_final_snapshot_even_after_tick_thread_write_failure() {
        // A writer that fails while `failing` is set: the periodic tick
        // thread hits the failure and exits early. The drop-time snapshot
        // comes from the dropping thread, so once the writer recovers the
        // terminal line still appears.
        struct Flaky {
            failing: Arc<std::sync::atomic::AtomicBool>,
            buf: Arc<Mutex<Vec<u8>>>,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.failing.load(Ordering::SeqCst) {
                    return Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "flaky"));
                }
                self.buf
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let failing = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let buf = Arc::new(Mutex::new(Vec::new()));
        let p = Arc::new(Registry::for_run());
        let ticker = ProgressTicker::start(
            p.clone(),
            Duration::from_millis(2),
            Box::new(Flaky {
                failing: failing.clone(),
                buf: buf.clone(),
            }),
        );
        // Give the tick thread time to attempt a write and die on it.
        std::thread::sleep(Duration::from_millis(40));
        failing.store(false, Ordering::SeqCst);
        set(&p, names::G_PHASE, Phase::Done as u64);
        drop(ticker);
        let text = String::from_utf8(
            buf.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .clone(),
        )
        .unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "exactly the final snapshot: {text:?}");
        let last = Json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(
            last.get_path(&["progress", "phase"])
                .and_then(|v| v.as_str()),
            Some("done")
        );
    }
}
