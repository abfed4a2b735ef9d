//! Worker panic isolation, the one fan-out loop, the one stage step, and
//! fault-injection plumbing.
//!
//! The mining pipeline fans work out at slice, column-pair, and DFS-branch
//! granularity, all through one loop, `fan_out`. `isolate` wraps each such unit in
//! `catch_unwind`: a panic inside one unit is downgraded to a structured
//! [`WorkerFailure`] and the deterministic merge of the surviving units
//! proceeds. Every pipeline phase (range graphs, BICLUSTER, the slice
//! fan-out around them, TRICLUSTER, merge/prune, metrics) runs through one
//! step, `stage`, which times it once for the report, the timeline and the
//! allocator attribution alike. Standalone phase entry points (outside [`mine`](crate::mine))
//! use a *propagating* log, so their panic behavior is unchanged.
//!
//! The named injection sites listed in [`FAILPOINTS`] compile to no-ops
//! unless the `failpoints` cargo feature is on (test builds only).

use crate::cancel::CancelToken;
use crate::params::Params;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tricluster_obs::progress::Progress;
use tricluster_obs::timeline::Timeline;
use tricluster_obs::{alloc, names, timeline, EventSink};

/// Every fault-injection site compiled into this crate, in pipeline order.
///
/// | site | unit | on `Error` action |
/// |---|---|---|
/// | `core.mine.entry` | whole run | typed [`MineError::Fault`](crate::MineError::Fault) |
/// | `core.slice` | one time slice | escalates to panic → [`WorkerFailure`] |
/// | `core.rangegraph.pair` | one column pair | escalates to panic → [`WorkerFailure`] |
/// | `core.bicluster.branch` | one DFS branch | escalates to panic → [`WorkerFailure`] |
/// | `core.tricluster.phase` | tricluster phase | escalates to panic → [`WorkerFailure`] |
/// | `core.prune.phase` | merge/prune phase | escalates to panic → [`WorkerFailure`] |
pub const FAILPOINTS: &[&str] = &[
    "core.mine.entry",
    "core.slice",
    "core.rangegraph.pair",
    "core.bicluster.branch",
    "core.tricluster.phase",
    "core.prune.phase",
];

/// Evaluates a failpoint with an error channel: returns the injected error
/// message, if any. (Panic and delay actions act inside.)
#[inline]
pub(crate) fn fail_point(site: &'static str) -> Option<String> {
    let hit = tricluster_failpoint::trigger(site);
    if hit.is_some() {
        timeline::instant_with(names::T_FAILPOINT, || site.to_owned());
    }
    hit
}

/// Evaluates a failpoint at a site with no error channel: an injected
/// `Error` action escalates to a panic, which the enclosing isolation
/// boundary downgrades to a [`WorkerFailure`].
#[inline]
pub(crate) fn fail_point_panic(site: &'static str) {
    if let Some(msg) = tricluster_failpoint::trigger(site) {
        timeline::instant_with(names::T_FAILPOINT, || site.to_owned());
        panic!("{msg}");
    }
}

/// One isolated work unit that panicked instead of completing. Its results
/// are missing from the run (flagged truncated); everything the other units
/// produced is still merged deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// Pipeline boundary the unit belonged to: `slice`, `range_graph_pair`,
    /// `bicluster_branch`, `tricluster`, or `prune`.
    pub phase: &'static str,
    /// Which unit failed, e.g. `t=1` or `t=0 pair=(2,5)`.
    pub unit: String,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for WorkerFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.phase, self.unit, self.message)
    }
}

/// Collector of [`WorkerFailure`]s, shared across worker threads.
///
/// In *propagating* mode (standalone phase entry points) `isolate` runs
/// the unit bare, so panics behave exactly as before this layer existed.
#[derive(Debug)]
pub struct FaultLog {
    collecting: bool,
    failures: Mutex<Vec<WorkerFailure>>,
}

impl FaultLog {
    /// A log that records failures (used by [`mine`](crate::mine)).
    pub fn collecting() -> Self {
        FaultLog {
            collecting: true,
            failures: Mutex::new(Vec::new()),
        }
    }

    /// A log that lets panics propagate (standalone phase callers).
    pub fn propagating() -> Self {
        FaultLog {
            collecting: false,
            failures: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, failure: WorkerFailure) {
        self.failures
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(failure);
    }

    /// Drains the recorded failures, sorted by (phase, unit, message) so the
    /// report section is deterministic regardless of which worker thread
    /// recorded each failure first.
    pub fn take_sorted(&self) -> Vec<WorkerFailure> {
        let mut v = std::mem::take(
            &mut *self
                .failures
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        v.sort_by(|a, b| {
            a.phase
                .cmp(b.phase)
                .then_with(|| a.unit.cmp(&b.unit))
                .then_with(|| a.message.cmp(&b.message))
        });
        v
    }
}

/// Shared run control: the cancellation token plus the fault log. One per
/// mining run, threaded by reference into every phase.
#[derive(Debug)]
pub(crate) struct RunCtrl {
    /// Budgets and cooperative cancellation.
    pub token: CancelToken,
    /// Worker-failure collector.
    pub faults: FaultLog,
    /// Live-progress gauges, when the run's sink asked for them (see
    /// [`EventSink::progress`](tricluster_obs::EventSink::progress)).
    /// `None` keeps every update site a branch-and-skip.
    pub progress: Option<Arc<Progress>>,
    /// The run's timeline, when its sink asked for one — carried here so
    /// phases without a sink parameter can still attach the worker threads
    /// they spawn. Cloning shares the journal set (`Arc` inside).
    pub timeline: Option<Timeline>,
}

impl RunCtrl {
    /// No budgets, panics propagate — the behavior of the standalone phase
    /// entry points
    /// ([`build_range_graph_observed`](crate::rangegraph::build_range_graph_observed)
    /// and friends).
    pub fn unbounded() -> Self {
        RunCtrl {
            token: CancelToken::unbounded(),
            faults: FaultLog::propagating(),
            progress: None,
            timeline: None,
        }
    }

    /// Budgets from `params`, failures collected, polling `handle` for
    /// cancellation — the behavior of [`Session::run`](crate::Session::run).
    pub fn for_params_with_handle(params: &Params, handle: crate::cancel::CancelHandle) -> Self {
        RunCtrl {
            token: CancelToken::with_handle(params.deadline, params.max_memory, handle),
            faults: FaultLog::collecting(),
            progress: None,
            timeline: None,
        }
    }

    /// Charges `bytes` of retained logical memory against the budget, as
    /// [`CancelToken::charge`] does, and moves the progress gauge of
    /// logical bytes to the new total.
    pub fn charge(&self, bytes: u64) -> bool {
        let fits = self.token.charge(bytes);
        if let Some(p) = &self.progress {
            p.set_logical_bytes(self.token.charged_bytes());
        }
        fits
    }
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one work unit behind an isolation boundary.
///
/// With a collecting log, a panic inside `f` is recorded as a
/// [`WorkerFailure`] labeled `phase`/`unit` and `None` is returned; with a
/// propagating log, `f` runs bare (zero overhead, panics escape unchanged).
pub(crate) fn isolate<T>(
    log: &FaultLog,
    phase: &'static str,
    unit: impl FnOnce() -> String,
    f: impl FnOnce() -> T,
) -> Option<T> {
    if !log.collecting {
        return Some(f());
    }
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(payload) => {
            let unit = unit();
            timeline::instant_with(names::T_WORKER_FAILURE, || format!("{phase} {unit}"));
            log.record(WorkerFailure {
                phase,
                unit,
                message: panic_message(payload),
            });
            None
        }
    }
}

/// One kind of work unit [`fan_out`] schedules: how its units are labeled
/// on failure, on the timeline, and on the progress gauges.
pub(crate) struct Units {
    /// [`WorkerFailure::phase`] of a unit that panicked.
    phase: &'static str,
    /// Timeline span opened around each unit.
    span: &'static str,
    /// Whether that span carries the unit's label as its detail.
    span_detail: bool,
    /// Timeline track of the spawned workers.
    track: &'static str,
    /// Progress gauge that counts the units a fan-out schedules.
    total: fn(&Progress, u64),
    /// Progress gauge bumped once per attempted unit.
    done: fn(&Progress),
}

/// Whole time slices (phases 1+2 of one slice each).
pub(crate) const SLICES: Units = Units {
    phase: "slice",
    span: names::T_SLICE,
    span_detail: true,
    track: "slice",
    total: Progress::add_slices_total,
    done: Progress::slice_done,
};

/// Column pairs of one slice's range multigraph.
pub(crate) const PAIRS: Units = Units {
    phase: "range_graph_pair",
    span: names::T_RG_PAIR,
    span_detail: false,
    track: "pair",
    total: Progress::add_pairs_total,
    done: Progress::pair_done,
};

/// Top-level sample-seed branches of one slice's bicluster DFS.
pub(crate) const BRANCHES: Units = Units {
    phase: "bicluster_branch",
    span: names::T_BC_BRANCH,
    span_detail: false,
    track: "branch",
    total: Progress::add_branches_total,
    done: Progress::branch_done,
};

/// Runs work units `0..n` on up to `workers` threads and hands each
/// completed unit's output to `absorb`, in index order.
///
/// The fan-out first adds `n` to the phase's progress total. Every unit
/// then takes the same steps at every worker count: a deadline poll (once
/// it fires no further unit starts), the unit's timeline span, [`isolate`]
/// under `units`' phase and `label(i)`, and one bump of the phase's
/// progress gauge whether the unit completed or failed. A failed unit has
/// no output, and its worker's scratch is rebuilt with `scratch`.
///
/// At one worker the units run inline on the calling thread, and each
/// output reaches `absorb` before the next unit starts. Otherwise scoped
/// workers claim units from one atomic cursor, attach to the run's
/// timeline under `units`' track, and their outputs are absorbed after the
/// join. Either way `absorb` sees the completed units in the same order, so
/// a phase's result depends only on which units completed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fan_out<S, T: Send>(
    ctrl: &RunCtrl,
    units: &Units,
    n: usize,
    workers: usize,
    label: impl Fn(usize) -> String + Sync,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
    mut absorb: impl FnMut(usize, T),
) {
    if let Some(p) = &ctrl.progress {
        (units.total)(p, n as u64);
    }
    let run = |s: &mut S, i: usize| {
        let span = if units.span_detail {
            timeline::span_with(units.span, || label(i))
        } else {
            timeline::span(units.span)
        };
        let out = isolate(&ctrl.faults, units.phase, || label(i), || work(s, i));
        drop(span);
        if let Some(p) = &ctrl.progress {
            (units.done)(p);
        }
        if out.is_none() {
            // The panicked unit may have left partial state behind.
            *s = scratch();
        }
        out
    };
    if workers <= 1 || n <= 1 {
        let mut s = scratch();
        for i in 0..n {
            if ctrl.token.deadline_exceeded() {
                break;
            }
            if let Some(out) = run(&mut s, i) {
                absorb(i, out);
            }
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let _tl = ctrl.timeline.as_ref().map(|t| t.attach(units.track));
                    let mut s = scratch();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n || ctrl.token.deadline_exceeded() {
                            break;
                        }
                        if let Some(out) = run(&mut s, i) {
                            done.push((i, out));
                        }
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("fan-out worker panicked") {
                slots[i] = Some(out);
            }
        }
    });
    // Units skipped after the deadline, and failed ones, left no output.
    for (i, out) in slots.into_iter().enumerate() {
        if let Some(out) = out {
            absorb(i, out);
        }
    }
}

/// One pipeline phase as [`stage`] runs it: the name of its timeline and
/// report span and, for the three sequential phases, the
/// `memory.alloc.<phase>.{bytes,calls}` counters its allocator delta goes
/// to.
pub(crate) struct Stage {
    span: &'static str,
    alloc: Option<(&'static str, &'static str)>,
}

impl Stage {
    /// Phases 1+2 over every slice: the wall-clock of the slice fan-out.
    pub(crate) const SLICES: Stage = Stage {
        span: names::SPAN_SLICES_WALL,
        alloc: Some((names::M_ALLOC_SLICES_BYTES, names::M_ALLOC_SLICES_CALLS)),
    };
    /// One slice's range multigraph, on the worker that builds it.
    pub(crate) const RANGE_GRAPH: Stage = Stage {
        span: names::SPAN_RANGE_GRAPH,
        alloc: None,
    };
    /// One slice's BICLUSTER DFS, on the worker that runs it.
    pub(crate) const BICLUSTER: Stage = Stage {
        span: names::SPAN_BICLUSTER,
        alloc: None,
    };
    /// The TRICLUSTER DFS over all slices.
    pub(crate) const TRICLUSTER: Stage = Stage {
        span: names::SPAN_TRICLUSTER,
        alloc: Some((
            names::M_ALLOC_TRICLUSTERS_BYTES,
            names::M_ALLOC_TRICLUSTERS_CALLS,
        )),
    };
    /// The merge/prune pass (a no-op stage when merging is off).
    pub(crate) const PRUNE: Stage = Stage {
        span: names::SPAN_PRUNE,
        alloc: Some((names::M_ALLOC_PRUNE_BYTES, names::M_ALLOC_PRUNE_CALLS)),
    };
    /// The quality metrics of the final clusters.
    pub(crate) const METRICS: Stage = Stage {
        span: names::SPAN_METRICS,
        alloc: None,
    };
}

/// Runs one pipeline phase as `stage` and returns its output and duration.
///
/// The step opens the stage's timeline span, times `body`, and when the
/// body returns publishes the span to `sink` from the thread that ran it.
/// A stage with an allocator pair also publishes the bytes and calls the
/// tracking allocator counted from before the span opened until after the
/// span was published. Without the tracking allocator that costs one
/// relaxed load: [`alloc::snapshot`] returns `None`.
///
/// A span's count, total, maximum and histogram do not depend on the
/// order its records arrive in, so stages on slice workers publish where
/// they end and the report's spans stay the same at every schedule.
pub(crate) fn stage<T>(
    sink: &dyn EventSink,
    stage: &Stage,
    body: impl FnOnce() -> T,
) -> (T, Duration) {
    let before = stage
        .alloc
        .and_then(|pair| Some((pair, alloc::snapshot()?)));
    let span = timeline::span(stage.span);
    let start = Instant::now();
    let out = body();
    let elapsed = start.elapsed();
    drop(span);
    sink.span(stage.span, elapsed);
    if let Some(((bytes, calls), before)) = before {
        if let Some(after) = alloc::snapshot() {
            sink.counter(bytes, after.bytes_since(&before));
            sink.counter(calls, after.allocs_since(&before));
        }
    }
    (out, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_log_downgrades_panics() {
        let log = FaultLog::collecting();
        let out = isolate(&log, "slice", || "t=3".into(), || panic!("poisoned cell"));
        assert_eq!(out, None::<u32>);
        let failures = log.take_sorted();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].phase, "slice");
        assert_eq!(failures[0].unit, "t=3");
        assert_eq!(failures[0].message, "poisoned cell");
        assert!(failures[0].to_string().contains("t=3"));
    }

    #[test]
    fn collecting_log_passes_values_through() {
        let log = FaultLog::collecting();
        assert_eq!(isolate(&log, "slice", || "t=0".into(), || 41 + 1), Some(42));
        assert!(log.take_sorted().is_empty());
    }

    #[test]
    #[should_panic(expected = "straight through")]
    fn propagating_log_lets_panics_escape() {
        let log = FaultLog::propagating();
        let _: Option<()> = isolate(
            &log,
            "slice",
            || "t=0".into(),
            || panic!("straight through"),
        );
    }

    #[test]
    fn failures_drain_in_sorted_order() {
        let log = FaultLog::collecting();
        for unit in ["t=2", "t=0", "t=1"] {
            let _: Option<()> = isolate(&log, "slice", || unit.into(), || panic!("boom"));
        }
        let units: Vec<_> = log.take_sorted().into_iter().map(|f| f.unit).collect();
        assert_eq!(units, ["t=0", "t=1", "t=2"]);
        assert!(log.take_sorted().is_empty(), "draining");
    }

    #[test]
    fn stage_publishes_its_span_when_it_ends_and_returns_the_duration() {
        let rec = tricluster_obs::Recorder::new();
        let (out, elapsed) = stage(&rec, &Stage::TRICLUSTER, || {
            assert!(
                rec.snapshot().spans.is_empty(),
                "nothing is published while the stage runs"
            );
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(elapsed >= Duration::from_millis(2));
        let report = rec.snapshot();
        let span = &report.spans[names::SPAN_TRICLUSTER];
        assert_eq!((span.count, span.total), (1, elapsed));
        let (_, again) = stage(&rec, &Stage::TRICLUSTER, || ());
        let span = &rec.snapshot().spans[names::SPAN_TRICLUSTER];
        assert_eq!((span.count, span.total), (2, elapsed + again));
    }
}
