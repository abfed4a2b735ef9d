//! Run budgets and cooperative cancellation.
//!
//! One [`CancelToken`] is shared by every phase of a mining run. The
//! range-graph pair sweep and both DFS phases poll it; the slice-merge loop
//! charges retained logical bytes against the memory budget. Exhausting a
//! budget never errors a run that has already started — it truncates it,
//! with the reason recorded on
//! [`MiningResult::truncation`](crate::MiningResult::truncation).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tricluster_obs::{names, timeline};

/// Which budget cut a run short. Stable machine-readable names via
/// [`TruncationReason::as_str`] (these appear in the v2 report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// [`Params::max_candidates`](crate::Params::max_candidates) exhausted.
    CandidateBudget,
    /// [`Params::deadline`](crate::Params::deadline) expired.
    Deadline,
    /// [`Params::max_memory`](crate::Params::max_memory) exhausted.
    MemoryBudget,
    /// At least one isolated worker unit failed; its results are missing.
    WorkerFailure,
    /// The run's [`CancelHandle`] was tripped from outside (job cancelled).
    Cancelled,
}

impl TruncationReason {
    /// Stable lowercase name, matching the CLI flag that configures the
    /// budget: `max_candidates`, `deadline`, `max_memory`, `worker_failure`,
    /// `cancelled`.
    pub fn as_str(self) -> &'static str {
        match self {
            TruncationReason::CandidateBudget => "max_candidates",
            TruncationReason::Deadline => "deadline",
            TruncationReason::MemoryBudget => "max_memory",
            TruncationReason::WorkerFailure => "worker_failure",
            TruncationReason::Cancelled => "cancelled",
        }
    }
}

/// Resolves the single reported [`TruncationReason`] when several trip
/// conditions raced within one run.
///
/// The documented precedence is `cancelled > deadline > max_memory >
/// max_candidates > worker_failure`: an explicit cancellation outranks any
/// budget (the caller asked for the stop), time outranks space (a blown
/// deadline usually *causes* the later trips), both budgets outrank the
/// candidate cap, and worker failures are reported only when nothing else
/// already truncated the run. The function is a pure precedence fold, so
/// concurrent trips from different threads always resolve identically no
/// matter which latch was observed first.
pub fn resolve_truncation(
    cancelled: bool,
    deadline: bool,
    memory: bool,
    candidates: bool,
    worker_failure: bool,
) -> Option<TruncationReason> {
    if cancelled {
        Some(TruncationReason::Cancelled)
    } else if deadline {
        Some(TruncationReason::Deadline)
    } else if memory {
        Some(TruncationReason::MemoryBudget)
    } else if candidates {
        Some(TruncationReason::CandidateBudget)
    } else if worker_failure {
        Some(TruncationReason::WorkerFailure)
    } else {
        None
    }
}

/// Externally trippable kill switch for one run.
///
/// A handle is cheap to clone and safe to keep after the run ends; tripping
/// it makes every [`CancelToken::deadline_exceeded`] poll of the associated
/// token return `true`, so the run winds down through the exact same
/// cooperative early-exit paths a deadline uses. The run then reports
/// [`TruncationReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelHandle {
    tripped: Arc<AtomicBool>,
}

impl CancelHandle {
    /// A fresh, untripped handle.
    pub fn new() -> Self {
        CancelHandle::default()
    }

    /// Requests cancellation. Idempotent; returns `true` on the call that
    /// actually tripped the handle.
    pub fn cancel(&self) -> bool {
        !self.tripped.swap(true, Ordering::Release)
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }
}

/// Shared cancellation state of one mining run.
///
/// Deadline checks are lazy: the first poll past the deadline latches
/// [`CancelToken::deadline_was_hit`], and only polls that actually skip work
/// happen before work, so a run that finishes under its deadline is never
/// marked truncated. Memory charges are made from the single-threaded merge
/// loop in slice order, keeping memory truncation byte-deterministic across
/// thread counts (unlike deadline truncation, which is inherently
/// wall-clock-dependent).
#[derive(Debug)]
pub struct CancelToken {
    deadline: Option<Instant>,
    deadline_hit: AtomicBool,
    max_memory: Option<u64>,
    charged: AtomicU64,
    memory_hit: AtomicBool,
    kill: CancelHandle,
    kill_seen: AtomicBool,
}

impl CancelToken {
    /// A token with the given budgets; `deadline` counts from now.
    pub fn new(deadline: Option<Duration>, max_memory: Option<u64>) -> Self {
        CancelToken::with_handle(deadline, max_memory, CancelHandle::new())
    }

    /// A token with the given budgets whose polls also observe an external
    /// [`CancelHandle`] (tripping the handle stops the run through the same
    /// cooperative paths as a deadline). A deadline past the clock's range
    /// never fires.
    pub fn with_handle(
        deadline: Option<Duration>,
        max_memory: Option<u64>,
        handle: CancelHandle,
    ) -> Self {
        CancelToken {
            deadline: deadline.and_then(|d| Instant::now().checked_add(d)),
            deadline_hit: AtomicBool::new(false),
            max_memory,
            charged: AtomicU64::new(0),
            memory_hit: AtomicBool::new(false),
            kill: handle,
            kill_seen: AtomicBool::new(false),
        }
    }

    /// A token that never cancels.
    pub fn unbounded() -> Self {
        CancelToken::new(None, None)
    }

    /// Polls the deadline *and* the external kill switch. Once it returns
    /// `true` it stays `true`. Without a deadline or a tripped handle this
    /// is a single relaxed load and no clock read.
    #[inline]
    pub fn deadline_exceeded(&self) -> bool {
        if self.kill.is_cancelled() {
            // `swap` so exactly the poll that first observes the trip drops
            // the timeline marker; the latch also makes `cancel_was_hit`
            // reflect whether the run actually *saw* the request.
            if !self.kill_seen.swap(true, Ordering::Relaxed) {
                timeline::instant(names::T_CANCELLED);
            }
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.deadline_hit.load(Ordering::Relaxed) {
            return true;
        }
        if Instant::now() >= deadline {
            // `swap` so exactly the poll that latches drops the timeline
            // marker — later polls (and other workers) see `true` here.
            if !self.deadline_hit.swap(true, Ordering::Relaxed) {
                timeline::instant(names::T_DEADLINE);
            }
            return true;
        }
        false
    }

    /// Whether a deadline poll ever fired (without reading the clock again —
    /// used at result assembly so the act of *checking* cannot mark a
    /// completed run truncated).
    pub fn deadline_was_hit(&self) -> bool {
        self.deadline_hit.load(Ordering::Relaxed)
    }

    /// Charges `bytes` of retained logical memory against the budget.
    /// Returns `false` once the budget is exceeded (the charge that tips
    /// over and every later one); the caller drops the data it was about to
    /// retain. Unlimited (always `true`) when no budget is configured.
    pub fn charge(&self, bytes: u64) -> bool {
        let total = self.charged.fetch_add(bytes, Ordering::Relaxed) + bytes;
        let Some(budget) = self.max_memory else {
            return true;
        };
        if total > budget {
            if !self.memory_hit.swap(true, Ordering::Relaxed) {
                timeline::instant(names::T_MEMORY);
            }
            return false;
        }
        !self.memory_hit.load(Ordering::Relaxed)
    }

    /// Whether any charge exceeded the memory budget.
    pub fn memory_was_hit(&self) -> bool {
        self.memory_hit.load(Ordering::Relaxed)
    }

    /// Whether a poll ever observed the external kill switch. Like
    /// [`deadline_was_hit`](CancelToken::deadline_was_hit) this reads only
    /// the latch: a cancellation requested *after* the last poll of a
    /// completed run does not retroactively mark it truncated.
    pub fn cancel_was_hit(&self) -> bool {
        self.kill_seen.load(Ordering::Relaxed)
    }

    /// The external kill switch this token polls.
    pub fn cancel_handle(&self) -> &CancelHandle {
        &self.kill
    }

    /// Total logical bytes charged so far.
    pub fn charged_bytes(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_cancels() {
        let t = CancelToken::unbounded();
        assert!(!t.deadline_exceeded());
        assert!(t.charge(u64::MAX / 2));
        assert!(!t.deadline_was_hit());
        assert!(!t.memory_was_hit());
    }

    #[test]
    fn zero_deadline_fires_immediately_and_latches() {
        let t = CancelToken::new(Some(Duration::ZERO), None);
        assert!(t.deadline_exceeded());
        assert!(t.deadline_was_hit());
        assert!(t.deadline_exceeded());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let t = CancelToken::new(Some(Duration::from_secs(3600)), None);
        assert!(!t.deadline_exceeded());
        assert!(!t.deadline_was_hit());
    }

    #[test]
    fn deadline_past_the_clock_never_fires() {
        let t = CancelToken::new(Some(Duration::MAX), None);
        assert!(!t.deadline_exceeded());
        assert!(!t.deadline_was_hit());
    }

    #[test]
    fn memory_budget_trips_once_exceeded_and_stays_tripped() {
        let t = CancelToken::new(None, Some(100));
        assert!(t.charge(60));
        assert!(!t.charge(50), "60 + 50 > 100");
        assert!(t.memory_was_hit());
        assert!(!t.charge(1), "stays tripped");
        assert_eq!(t.charged_bytes(), 111);
    }

    #[test]
    fn reason_names_are_stable() {
        assert_eq!(TruncationReason::CandidateBudget.as_str(), "max_candidates");
        assert_eq!(TruncationReason::Deadline.as_str(), "deadline");
        assert_eq!(TruncationReason::MemoryBudget.as_str(), "max_memory");
        assert_eq!(TruncationReason::WorkerFailure.as_str(), "worker_failure");
        assert_eq!(TruncationReason::Cancelled.as_str(), "cancelled");
    }

    #[test]
    fn handle_trip_is_seen_by_polls_and_latches() {
        let handle = CancelHandle::new();
        let t = CancelToken::with_handle(None, None, handle.clone());
        assert!(!t.deadline_exceeded());
        assert!(!t.cancel_was_hit());
        assert!(handle.cancel(), "first trip reports true");
        assert!(!handle.cancel(), "second trip is a no-op");
        assert!(t.deadline_exceeded());
        assert!(t.cancel_was_hit());
        assert!(!t.deadline_was_hit(), "cancel is not a deadline trip");
    }

    #[test]
    fn unpolled_trip_is_not_recorded_as_hit() {
        let handle = CancelHandle::new();
        let t = CancelToken::with_handle(None, None, handle.clone());
        handle.cancel();
        // The run finished without ever polling: the latch stays clear.
        assert!(!t.cancel_was_hit());
    }

    #[test]
    fn truncation_precedence_is_total() {
        use TruncationReason::*;
        assert_eq!(
            resolve_truncation(true, true, true, true, true),
            Some(Cancelled)
        );
        assert_eq!(
            resolve_truncation(false, true, true, true, true),
            Some(Deadline)
        );
        assert_eq!(
            resolve_truncation(false, false, true, true, true),
            Some(MemoryBudget)
        );
        assert_eq!(
            resolve_truncation(false, false, false, true, true),
            Some(CandidateBudget)
        );
        assert_eq!(
            resolve_truncation(false, false, false, false, true),
            Some(WorkerFailure)
        );
        assert_eq!(resolve_truncation(false, false, false, false, false), None);
    }
}
