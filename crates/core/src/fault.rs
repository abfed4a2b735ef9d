//! Worker panic isolation and fault-injection plumbing.
//!
//! The mining pipeline fans work out at slice, column-pair, and DFS-branch
//! granularity. `isolate` wraps each such unit in `catch_unwind`: a panic
//! inside one unit is downgraded to a structured [`WorkerFailure`] and the
//! deterministic merge of the surviving units proceeds. Standalone phase
//! entry points (outside [`mine`](crate::mine)) use a *propagating* log, so
//! their panic behavior is unchanged.
//!
//! The named injection sites listed in [`FAILPOINTS`] compile to no-ops
//! unless the `failpoints` cargo feature is on (test builds only).

use crate::cancel::CancelToken;
use crate::params::Params;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use tricluster_obs::progress::Progress;
use tricluster_obs::timeline::Timeline;
use tricluster_obs::{names, timeline};

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
}
