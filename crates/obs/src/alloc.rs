//! Global-allocator instrumentation: bytes allocated, live bytes, peak
//! live bytes, and allocation counts.
//!
//! [`TrackingAlloc`] wraps the system allocator and maintains process-wide
//! atomic counters. It is *not* installed by this crate — binaries opt in
//! behind their own `track-alloc` cargo feature:
//!
//! ```ignore
//! #[cfg(feature = "track-alloc")]
//! #[global_allocator]
//! static ALLOC: tricluster_obs::alloc::TrackingAlloc = TrackingAlloc::new();
//! ```
//!
//! Code that *reads* the counters (the miner's per-phase memory
//! accounting, the fig7 bench) calls [`snapshot`] unconditionally: it
//! returns `None` until the tracking allocator has observed at least one
//! allocation, so builds without the feature — where the statics never
//! move — behave exactly as before. All counter updates use relaxed
//! ordering; the numbers are statistics, not synchronization.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper around [`System`] that counts allocations.
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// The allocator value to place in a `#[global_allocator]` static.
    pub const fn new() -> Self {
        TrackingAlloc
    }
}

impl Default for TrackingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn on_alloc(size: u64) {
    TOTAL_BYTES.fetch_add(size, Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Relaxed) + size;
    PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
}

#[inline]
fn on_dealloc(size: u64) {
    LIVE_BYTES.fetch_sub(size, Relaxed);
}

// SAFETY: delegates every allocation verbatim to `System`; the counter
// updates have no effect on the returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // counted as one allocation of the new size plus a free of the
            // old block, which keeps LIVE_BYTES exact
            on_alloc(new_size as u64);
            on_dealloc(layout.size() as u64);
        }
        new_ptr
    }
}

/// A point-in-time copy of the allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Cumulative bytes handed out since process start.
    pub total_bytes: u64,
    /// Cumulative allocation calls since process start.
    pub total_allocs: u64,
    /// Bytes currently live (allocated and not yet freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` (since start or the last
    /// [`reset_peak`]).
    pub peak_live_bytes: u64,
}

impl MemSnapshot {
    /// Bytes allocated between `earlier` and `self`.
    pub fn bytes_since(&self, earlier: &MemSnapshot) -> u64 {
        self.total_bytes.saturating_sub(earlier.total_bytes)
    }

    /// Allocation calls between `earlier` and `self`.
    pub fn allocs_since(&self, earlier: &MemSnapshot) -> u64 {
        self.total_allocs.saturating_sub(earlier.total_allocs)
    }
}

/// Reads the tracking counters, or `None` when no tracking allocator is
/// installed (the counters have never moved).
pub fn snapshot() -> Option<MemSnapshot> {
    if TOTAL_ALLOCS.load(Relaxed) == 0 {
        return None;
    }
    Some(MemSnapshot {
        total_bytes: TOTAL_BYTES.load(Relaxed),
        total_allocs: TOTAL_ALLOCS.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Relaxed),
    })
}

/// Restarts peak tracking from the current live size, so a caller can
/// measure the peak of one phase in isolation. No-op when tracking is not
/// installed.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// Allocator delta attributed to one pipeline phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseDelta {
    pub phase: &'static str,
    /// Bytes allocated while the phase ran.
    pub bytes: u64,
    /// Allocation calls while the phase ran.
    pub allocs: u64,
}

/// Whole-run allocator totals returned by [`PhaseAlloc::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunTotals {
    pub bytes: u64,
    pub allocs: u64,
    pub peak_live_bytes: u64,
}

/// Attributes allocator traffic to pipeline phases by sampling the
/// tracking counters at phase boundaries.
///
/// The caller marks each boundary with [`phase_end`](Self::phase_end); the
/// delta since the previous mark is credited to the named phase. When no
/// tracking allocator is installed every snapshot is `None`, no deltas are
/// recorded, and [`finish`](Self::finish) returns `None` — callers need no
/// feature gates.
#[derive(Debug, Default)]
pub struct PhaseAlloc {
    start: Option<MemSnapshot>,
    last: Option<MemSnapshot>,
    phases: Vec<PhaseDelta>,
}

impl PhaseAlloc {
    /// Starts attribution at the current counter values.
    pub fn begin() -> PhaseAlloc {
        let start = snapshot();
        PhaseAlloc {
            start,
            last: start,
            phases: Vec::new(),
        }
    }

    /// Closes the phase that ran since the previous boundary, crediting it
    /// with the allocator delta.
    pub fn phase_end(&mut self, phase: &'static str) {
        let (Some(prev), Some(now)) = (self.last, snapshot()) else {
            return;
        };
        self.phases.push(PhaseDelta {
            phase,
            bytes: now.bytes_since(&prev),
            allocs: now.allocs_since(&prev),
        });
        self.last = Some(now);
    }

    /// Closes the final phase and returns whole-run totals, or `None` when
    /// no tracking allocator is installed.
    pub fn finish(&mut self, final_phase: &'static str) -> Option<RunTotals> {
        self.phase_end(final_phase);
        let (start, end) = (self.start?, snapshot()?);
        Some(RunTotals {
            bytes: end.bytes_since(&start),
            allocs: end.allocs_since(&start),
            peak_live_bytes: end.peak_live_bytes,
        })
    }

    /// The recorded per-phase deltas, in boundary order.
    pub fn phases(&self) -> &[PhaseDelta] {
        &self.phases
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The counters are process-global: tests that move them run one at a
    /// time.
    pub(crate) static COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Drives the allocator directly (it is not installed globally in
    /// tests) and checks the counter arithmetic.
    #[test]
    fn counters_track_alloc_and_free() {
        let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let a = TrackingAlloc::new();
        let layout = Layout::from_size_align(256, 8).unwrap();
        // SAFETY: paired alloc/dealloc with a valid layout.
        unsafe {
            let before = (
                TOTAL_BYTES.load(Relaxed),
                TOTAL_ALLOCS.load(Relaxed),
                LIVE_BYTES.load(Relaxed),
            );
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(TOTAL_BYTES.load(Relaxed), before.0 + 256);
            assert_eq!(TOTAL_ALLOCS.load(Relaxed), before.1 + 1);
            assert_eq!(LIVE_BYTES.load(Relaxed), before.2 + 256);
            assert!(PEAK_LIVE_BYTES.load(Relaxed) >= before.2 + 256);

            let snap = snapshot().expect("counters moved");
            assert!(snap.total_allocs >= 1);

            let p2 = a.realloc(p, layout, 512);
            assert!(!p2.is_null());
            assert_eq!(LIVE_BYTES.load(Relaxed), before.2 + 512);

            a.dealloc(p2, Layout::from_size_align(512, 8).unwrap());
            assert_eq!(LIVE_BYTES.load(Relaxed), before.2);

            let after = snapshot().unwrap();
            assert_eq!(after.bytes_since(&snap), 512);
            assert_eq!(after.allocs_since(&snap), 1);

            reset_peak();
            assert_eq!(PEAK_LIVE_BYTES.load(Relaxed), LIVE_BYTES.load(Relaxed));
        }
    }

    /// Phase attribution credits each boundary-to-boundary delta to the
    /// named phase. Allocations are driven through the allocator directly
    /// (other tests may run concurrently, so deltas are lower bounds).
    #[test]
    fn phase_alloc_attributes_deltas_to_phases() {
        let _counters = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let a = TrackingAlloc::new();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        // SAFETY: paired alloc/dealloc with a valid layout.
        unsafe {
            // move the counters so snapshot() is Some
            let warm = a.alloc(layout);
            assert!(!warm.is_null());
            a.dealloc(warm, layout);

            let mut pa = PhaseAlloc::begin();
            let p1 = a.alloc(layout);
            pa.phase_end("slices");
            let p2 = a.alloc(layout);
            let totals = pa.finish("prune").expect("tracking counters moved");
            a.dealloc(p1, layout);
            a.dealloc(p2, layout);

            let phases = pa.phases();
            assert_eq!(phases.len(), 2);
            assert_eq!(phases[0].phase, "slices");
            assert_eq!(phases[1].phase, "prune");
            assert!(phases[0].bytes >= 4096 && phases[0].allocs >= 1);
            assert!(phases[1].bytes >= 4096 && phases[1].allocs >= 1);
            assert!(totals.bytes >= phases[0].bytes + phases[1].bytes);
            assert!(totals.allocs >= 2);
            assert!(totals.peak_live_bytes > 0);
        }
    }

    /// Without an installed tracking allocator the whole API is inert. The
    /// counters are process-global, so this is only observable before any
    /// other test moves them — emulate by checking the None plumbing.
    #[test]
    fn phase_alloc_is_inert_without_snapshots() {
        let mut pa = PhaseAlloc {
            start: None,
            last: None,
            phases: Vec::new(),
        };
        pa.phase_end("slices");
        assert!(pa.finish("prune").is_none());
        assert!(pa.phases().is_empty());
    }
}
