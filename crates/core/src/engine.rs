//! Long-lived mining engine: tenant caps, dataset caching, cancellable
//! sessions.
//!
//! [`mine`](crate::mine) is a one-shot function: parse, run, drop. A
//! daemon serving many tenants needs three things it does not provide —
//! per-tenant *limits* that an individual job cannot exceed, *reuse* of
//! parsed datasets across repeat submissions, and a way to *stop* a run
//! that is already in flight. [`Engine`] owns the first two ([`TenantCaps`]
//! and a content-hash-keyed [`Dataset`] cache); [`Session`] owns the third
//! (one prepared run with a [`CancelHandle`] that can be tripped from any
//! thread). Every mining run goes through [`Session::run`], and every v2
//! report is built by [`Session::run_report`]; the CLI's `mine` command and
//! the `tricluster serve` daemon both call it, so a served job's report is
//! a one-shot run's report by construction.

use crate::cancel::CancelHandle;
use crate::error::MineError;
use crate::fault::{fail_point, panic_message, RunCtrl};
use crate::metrics::{cluster_metrics_observed, Metrics};
use crate::miner::{mine_pipeline, unpermute_result, validate_input, MiningResult};
use crate::params::Params;
use crate::runreport::report_to_json_v2;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tricluster_matrix::io::{self, IoError};
use tricluster_matrix::{preprocess, Axis, Labels, Matrix3};
use tricluster_obs::json::Json;
use tricluster_obs::ledger::content_hash;
use tricluster_obs::metrics::Registry;
use tricluster_obs::{names, EventSink, Fanout, Gauge, HistogramTap};

/// Server-wide ceilings on what any single job may request.
///
/// A tenant's [`Params`] are clamped against these at session creation:
/// requesting more than a cap silently lowers the request to the cap (and
/// flags the session [`clamped`](Session::was_clamped)); requesting
/// nothing where a cap exists applies the cap. `None` caps leave the
/// tenant's value untouched, but for threads: every fan-out of a run may
/// start as many as it asks for, so without a thread cap an explicit count
/// is held to the machine's cores, the count a job naming none runs at.
#[derive(Debug, Clone, Default)]
pub struct TenantCaps {
    /// Longest wall-clock deadline a job may run with.
    pub max_deadline: Option<Duration>,
    /// Largest logical-memory budget a job may hold.
    pub max_memory: Option<u64>,
    /// Largest candidate budget a job may spend.
    pub max_candidates: Option<u64>,
    /// Most worker threads a job may use.
    pub max_threads: Option<usize>,
}

impl TenantCaps {
    /// No ceilings: every tenant request but a thread count above the cores
    /// passes through unchanged.
    pub fn unlimited() -> Self {
        TenantCaps::default()
    }

    /// Clamps `params` against these caps. Returns the effective params
    /// and whether anything was actually lowered or imposed.
    pub fn clamp(&self, params: &Params) -> (Params, bool) {
        fn cap<T: Copy + Ord>(requested: &mut Option<T>, cap: Option<T>, changed: &mut bool) {
            let effective = match (*requested, cap) {
                (Some(r), Some(c)) => Some(r.min(c)),
                (None, Some(c)) => Some(c),
                (r, None) => r,
            };
            if effective != *requested {
                *requested = effective;
                *changed = true;
            }
        }
        let mut p = params.clone();
        let mut changed = false;
        cap(&mut p.deadline, self.max_deadline, &mut changed);
        cap(&mut p.max_memory, self.max_memory, &mut changed);
        cap(&mut p.max_candidates, self.max_candidates, &mut changed);
        cap(&mut p.threads, self.max_threads, &mut changed);
        if self.max_threads.is_none() && p.threads.is_some() {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            cap(&mut p.threads, Some(cores), &mut changed);
        }
        (p, changed)
    }
}

/// A parsed, ready-to-mine dataset plus its identity.
#[derive(Debug)]
pub struct Dataset {
    /// The parsed expression matrix.
    pub matrix: Matrix3,
    /// Axis labels from the TSV header/rows.
    pub labels: Labels,
    /// FNV-1a content hash of the raw bytes (`fnv1a:<16 hex>`), the same
    /// hash the run ledger records — so a ledger entry and a cache entry
    /// for the same upload agree on identity for free.
    pub hash: String,
    /// Raw (pre-parse) byte length, for admission accounting.
    pub raw_bytes: u64,
}

/// One prepared, cancellable mining run.
///
/// A session is created by [`Engine::session`] with caps already applied.
/// [`Session::run`] executes on the calling thread; [`Session::cancel`]
/// (or a clone of [`Session::cancel_handle`]) trips the run from any other
/// thread, winding it down into an `Ok` result truncated with
/// [`TruncationReason::Cancelled`](crate::TruncationReason::Cancelled).
#[derive(Debug)]
pub struct Session {
    params: Params,
    clamped: bool,
    handle: CancelHandle,
    auto_transpose: bool,
    shifting: bool,
}

/// A finished run with its quality metrics and rendered report (see
/// [`Session::run_report`]).
#[derive(Debug)]
pub struct Reported {
    /// The run; its [`report`](MiningResult::report) includes the metrics
    /// phase.
    pub result: MiningResult,
    /// The paper's quality metrics of the final clusters.
    pub metrics: Metrics,
    /// The `tricluster.report/v2` document.
    pub doc: Json,
}

impl Session {
    /// A session with `params` used verbatim (no caps). Prefer
    /// [`Engine::session`] in multi-tenant settings.
    pub fn new(params: Params) -> Self {
        Session {
            params,
            clamped: false,
            handle: CancelHandle::new(),
            auto_transpose: false,
            shifting: false,
        }
    }

    /// Makes the run mine the largest dimension as genes (the paper's
    /// canonical transposition, per the symmetry Lemma 1) and map the
    /// clusters back to the input's coordinates.
    pub fn auto_transpose(mut self) -> Self {
        self.auto_transpose = true;
        self
    }

    /// Makes the run mine shifting (additive) clusters: it mines the
    /// scaling clusters of `exp(m)` (the paper's Lemma 2, see
    /// [`shift`](crate::shift)). `exp` works cell by cell, so the clusters
    /// are in the input's coordinates, and [`Session::run_report`] computes
    /// the quality metrics and renders the report over `m` as given. Works
    /// together with [`Session::auto_transpose`].
    pub fn shifting(mut self) -> Self {
        self.shifting = true;
        self
    }

    /// The transforms this session applies around the pipeline, in the
    /// order it applies them: `shifting`, then `auto_transpose`. Empty for
    /// a session that mines its input as given.
    pub fn transforms(&self) -> impl Iterator<Item = &'static str> {
        [
            (self.shifting, "shifting"),
            (self.auto_transpose, "auto_transpose"),
        ]
        .into_iter()
        .filter_map(|(on, name)| on.then_some(name))
    }

    /// The effective (post-clamp) parameters this session will run with.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Whether tenant caps lowered or imposed any budget.
    pub fn was_clamped(&self) -> bool {
        self.clamped
    }

    /// A clonable handle that cancels this session's run from any thread.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.handle.clone()
    }

    /// Requests cancellation of the run (idempotent).
    pub fn cancel(&self) {
        self.handle.cancel();
    }

    /// Mines `m` on the calling thread, routing instrumentation through
    /// `sink`.
    ///
    /// The sink receives trace events as they happen (from inside the
    /// worker threads; it must be `Sync`) plus every counter and span of the
    /// final [`MiningResult::report`]. Pass
    /// [`NullSink`](tricluster_obs::NullSink) for zero-overhead mining — the
    /// report is built from locally accumulated stats either way.
    ///
    /// # Errors
    ///
    /// The same typed [`MineError`]s as [`mine`](crate::mine);
    /// cancellation is *not* an error (it truncates the result).
    pub fn run(&self, m: &Matrix3, sink: &dyn EventSink) -> Result<MiningResult, MineError> {
        let exped;
        let m = if self.shifting {
            exped = preprocess::exp_transform(m);
            &exped
        } else {
            m
        };
        if self.auto_transpose {
            let order = m.canonical_permutation();
            if order != [Axis::Gene, Axis::Sample, Axis::Time] {
                let result = self.run_as_is(&m.permuted(order), sink)?;
                return Ok(unpermute_result(result, m, order));
            }
        }
        self.run_as_is(m, sink)
    }

    /// Mines `m` with histogram collection on, computes the quality metrics
    /// into the run report, and renders the v2 report document. The metrics
    /// phase is published to `sink` too, so a live metrics registry sees it,
    /// and the calling thread records on the sink's timeline, when it
    /// offers one, from the run's first phase to the metrics.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_report(&self, m: &Matrix3, sink: &dyn EventSink) -> Result<Reported, MineError> {
        let _main = sink.timeline().map(|t| t.attach("main"));
        let mut result = self.run(m, &Fanout(vec![sink, &HistogramTap]))?;
        let registry = Registry::new();
        let metrics =
            cluster_metrics_observed(m, &result.triclusters, &Fanout(vec![&registry, sink]));
        result.report.merge(&registry.snapshot());
        let doc = report_to_json_v2(m, &result, &result.report, &metrics);
        Ok(Reported {
            result,
            metrics,
            doc,
        })
    }

    fn run_as_is(&self, m: &Matrix3, sink: &dyn EventSink) -> Result<MiningResult, MineError> {
        let params = &self.params;
        validate_input(m, params)?;
        // Every signal reaches the caller's sink once and the run's own
        // registry once; the registry's snapshot is the run report.
        let registry = Registry::new();
        let run_sink = Fanout(vec![&registry, sink]);
        let ctrl = RunCtrl::for_params(params, self.handle.clone(), &run_sink);
        // The run's budgets, for the live views' proximity gauges.
        let deadline_ns = params
            .deadline
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
        for (name, limit) in [
            (names::G_BUDGET_DEADLINE_NS, deadline_ns),
            (names::G_BUDGET_MEMORY, params.max_memory),
            (names::G_BUDGET_CANDIDATES, params.max_candidates),
        ] {
            if let Some(limit) = limit {
                ctrl.sink.gauge(name, Gauge::Set(limit));
            }
        }
        // The matrix itself is the first charge against the memory budget
        // (validate_input guarantees it fits).
        let (ng, ns, nt) = m.dims();
        ctrl.charge((ng * ns * nt * std::mem::size_of::<f64>()) as u64);
        // Last line of defense: a panic that escapes every isolation boundary
        // (or is raised on the coordinating thread itself) becomes a typed
        // error instead of a process abort.
        match catch_unwind(AssertUnwindSafe(|| {
            if let Some(message) = fail_point("core.mine.entry") {
                return Err(MineError::Fault {
                    site: "core.mine.entry",
                    message,
                });
            }
            Ok(mine_pipeline(m, params, &ctrl, &registry))
        })) {
            Ok(result) => result,
            Err(payload) => Err(MineError::Panic {
                message: panic_message(payload),
            }),
        }
    }
}

/// How many parsed datasets [`Engine`] retains, most recently used first.
const DEFAULT_CACHE_ENTRIES: usize = 8;

/// A long-lived mining engine: tenant caps plus a dataset cache.
///
/// Thread-safe (`&self` everywhere); a daemon shares one engine across
/// all worker threads.
#[derive(Debug)]
pub struct Engine {
    caps: TenantCaps,
    cache_entries: usize,
    cache: Mutex<Vec<Arc<Dataset>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Engine {
    /// An engine enforcing `caps`, with the default cache size.
    pub fn new(caps: TenantCaps) -> Self {
        Engine::with_cache_entries(caps, DEFAULT_CACHE_ENTRIES)
    }

    /// An engine retaining at most `cache_entries` parsed datasets
    /// (0 disables caching).
    pub fn with_cache_entries(caps: TenantCaps, cache_entries: usize) -> Self {
        Engine {
            caps,
            cache_entries,
            cache: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The caps every session is clamped against.
    pub fn caps(&self) -> &TenantCaps {
        &self.caps
    }

    /// A session for one run of `params`, clamped against the caps.
    pub fn session(&self, params: &Params) -> Session {
        let (params, clamped) = self.caps.clamp(params);
        Session {
            clamped,
            ..Session::new(params)
        }
    }

    /// The dataset of `bytes`: the cached parse when the FNV-1a content
    /// hash matches a retained one, else a fresh parse. A cache hit skips
    /// parse and normalization entirely — the returned `Arc` is shared with
    /// every other job mining the same upload. A fresh parse runs on the
    /// host's cores. Nothing is cached here:
    /// [`Engine::retain`] caches a dataset once its job is admitted, so a
    /// rejected submission leaves the cache as it found it.
    ///
    /// # Errors
    ///
    /// The parse's [`IoError`] on malformed input.
    pub fn dataset_from_bytes(&self, bytes: &[u8]) -> Result<Arc<Dataset>, IoError> {
        let hash = content_hash(bytes);
        if let Some(hit) = self.lock_cache().iter().find(|d| d.hash == hash) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (matrix, labels) = io::parse_stacked_tsv(bytes, cores)?;
        Ok(Arc::new(Dataset {
            matrix,
            labels,
            hash,
            raw_bytes: bytes.len() as u64,
        }))
    }

    /// Makes `dataset` the cache's most recently used entry, inserting it
    /// when absent and evicting the least recently used beyond capacity.
    pub fn retain(&self, dataset: &Arc<Dataset>) {
        if self.cache_entries == 0 {
            return;
        }
        let mut cache = self.lock_cache();
        // A racing submission of the same bytes may have retained its own
        // parse first; the cache keeps one entry per hash.
        match cache.iter().position(|d| d.hash == dataset.hash) {
            Some(i) => {
                let entry = cache.remove(i);
                cache.insert(0, entry);
            }
            None => {
                cache.insert(0, dataset.clone());
                if cache.len() > self.cache_entries {
                    let dropped = cache.len() - self.cache_entries;
                    cache.truncate(self.cache_entries);
                    self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
                }
            }
        }
    }

    /// `(hits, misses, evictions)` of the dataset cache since
    /// construction. Evictions count parsed datasets dropped from the MRU
    /// list to stay under the capacity — a high rate relative to hits
    /// means the working set of distinct uploads exceeds `cache_entries`.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }

    /// Parsed datasets currently retained.
    pub fn cached_datasets(&self) -> usize {
        self.lock_cache().len()
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Dataset>>> {
        self.cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::TruncationReason;
    use crate::testdata::paper_table1;
    use tricluster_obs::NullSink;

    fn table1_tsv() -> Vec<u8> {
        let m = paper_table1();
        let labels = Labels::default_for(m.n_genes(), m.n_samples(), m.n_times());
        let mut bytes = Vec::new();
        io::write_stacked_tsv(&mut bytes, &m, &labels).unwrap();
        bytes
    }

    fn table1_params() -> Params {
        Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .build()
            .unwrap()
    }

    #[test]
    fn clamp_lowers_imposes_and_passes_through() {
        let caps = TenantCaps {
            max_deadline: Some(Duration::from_secs(10)),
            max_memory: Some(1 << 20),
            max_candidates: None,
            max_threads: Some(2),
        };
        let requested = Params::builder()
            .epsilon(0.01)
            .deadline(Duration::from_secs(60))
            .max_candidates(500)
            .threads(1)
            .build()
            .unwrap();
        let (p, clamped) = caps.clamp(&requested);
        assert!(clamped);
        assert_eq!(p.deadline, Some(Duration::from_secs(10)), "lowered");
        assert_eq!(p.max_memory, Some(1 << 20), "imposed");
        assert_eq!(p.max_candidates, Some(500), "uncapped passes through");
        assert_eq!(p.threads, Some(1), "under the cap passes through");

        let (same, clamped) = TenantCaps::unlimited().clamp(&requested);
        assert!(!clamped);
        assert_eq!(same, requested);
    }

    /// A run publishes its budgets as gauges: the deadline in nanoseconds,
    /// saturating at `u64::MAX`, and the memory and candidate limits as
    /// given.
    #[test]
    fn budgets_reach_the_live_gauges() -> Result<(), Box<dyn std::error::Error>> {
        use tricluster_obs::progress::ProgressSink;
        let p = Params::builder()
            .epsilon(0.01)
            .min_size(3, 3, 2)
            .deadline(Duration::MAX)
            .max_memory(1 << 20)
            .max_candidates(1_000_000)
            .build()?;
        let live = Arc::new(Registry::for_run());
        let result = Session::new(p).run(&paper_table1(), &ProgressSink(live.clone()))?;
        assert!(!result.truncated);
        assert_eq!(live.gauge_value(names::G_BUDGET_DEADLINE_NS), u64::MAX);
        assert_eq!(live.gauge_value(names::G_BUDGET_MEMORY), 1 << 20);
        assert_eq!(live.gauge_value(names::G_BUDGET_CANDIDATES), 1_000_000);
        let doc = live
            .progress_json()
            .ok_or("a run's registry serves progress")?;
        let at = |path: &[&str]| doc.get_path(path).cloned();
        assert_eq!(
            at(&["progress", "budgets", "deadline", "limit_secs"]),
            Some(Json::F64(Duration::from_nanos(u64::MAX).as_secs_f64()))
        );
        assert_eq!(at(&["progress", "phase"]), Some(Json::Str("done".into())));
        Ok(())
    }

    #[test]
    fn dataset_cache_hits_on_identical_bytes() {
        let engine = Engine::new(TenantCaps::unlimited());
        let bytes = table1_tsv();
        let a = engine.dataset_from_bytes(&bytes).unwrap();
        engine.retain(&a);
        let b = engine.dataset_from_bytes(&bytes).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second submission reuses the parse");
        assert_eq!(engine.cache_stats(), (1, 1, 0));
        assert!(a.hash.starts_with("fnv1a:"), "{}", a.hash);
        assert_eq!(a.raw_bytes, bytes.len() as u64);

        // Different content is a different entry.
        let mut other = bytes.clone();
        other.extend_from_slice(b"\n");
        let c = engine.dataset_from_bytes(&other).unwrap();
        engine.retain(&c);
        assert_ne!(c.hash, a.hash);
        assert_eq!(engine.cached_datasets(), 2);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let engine = Engine::with_cache_entries(TenantCaps::unlimited(), 1);
        let first = table1_tsv();
        let mut second = first.clone();
        second.extend_from_slice(b"\n");
        let a = engine.dataset_from_bytes(&first).unwrap();
        engine.retain(&a);
        let b = engine.dataset_from_bytes(&second).unwrap();
        engine.retain(&b);
        assert_eq!(engine.cached_datasets(), 1);
        let a2 = engine.dataset_from_bytes(&first).unwrap();
        engine.retain(&a2);
        assert!(!Arc::ptr_eq(&a, &a2), "evicted entry re-parses");
        assert_eq!(engine.cache_stats(), (0, 3, 2));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let engine = Engine::with_cache_entries(TenantCaps::unlimited(), 0);
        let bytes = table1_tsv();
        let d = engine.dataset_from_bytes(&bytes).unwrap();
        engine.retain(&d);
        assert_eq!(engine.cached_datasets(), 0);
    }

    #[test]
    fn unretained_parses_leave_the_cache_as_it_was() -> Result<(), IoError> {
        let engine = Engine::with_cache_entries(TenantCaps::unlimited(), 1);
        let first = table1_tsv();
        let mut second = first.clone();
        second.extend_from_slice(b"\n");
        let a = engine.dataset_from_bytes(&first)?;
        engine.retain(&a);
        let _shed = engine.dataset_from_bytes(&second)?;
        let again = engine.dataset_from_bytes(&first)?;
        assert!(Arc::ptr_eq(&a, &again), "the retained parse survives");
        assert_eq!(engine.cache_stats(), (1, 2, 0));
        assert_eq!(engine.cached_datasets(), 1);
        Ok(())
    }

    #[test]
    fn malformed_bytes_error_and_cache_nothing() {
        let engine = Engine::new(TenantCaps::unlimited());
        assert!(engine.dataset_from_bytes(b"g\tnot-a-number\n").is_err());
        assert_eq!(engine.cached_datasets(), 0);
    }

    #[test]
    fn session_runs_and_matches_one_shot_mine() {
        let engine = Engine::new(TenantCaps::unlimited());
        let dataset = engine.dataset_from_bytes(&table1_tsv()).unwrap();
        let params = table1_params();
        let session = engine.session(&params);
        assert!(!session.was_clamped());
        let via_session = session.run(&dataset.matrix, &NullSink).unwrap();
        let one_shot = crate::mine(&dataset.matrix, &params).unwrap();
        assert_eq!(
            via_session.triclusters.len(),
            one_shot.triclusters.len(),
            "session path is the one-shot path"
        );
    }

    #[test]
    fn cancelled_session_truncates_with_cancelled_reason() {
        let dataset = {
            let engine = Engine::new(TenantCaps::unlimited());
            engine.dataset_from_bytes(&table1_tsv()).unwrap()
        };
        let session = Session::new(table1_params());
        session.cancel();
        let result = session.run(&dataset.matrix, &NullSink).unwrap();
        assert!(result.truncated);
        assert_eq!(result.truncation, Some(TruncationReason::Cancelled));
        assert!(
            result.triclusters.is_empty(),
            "a pre-cancelled run does no slice work"
        );
    }

    #[test]
    fn cancel_mid_run_from_another_thread_yields_a_sound_subset() {
        let dataset = {
            let engine = Engine::new(TenantCaps::unlimited());
            engine.dataset_from_bytes(&table1_tsv()).unwrap()
        };
        let params = table1_params();
        let full = crate::mine(&dataset.matrix, &params).unwrap();
        let session = Session::new(params);
        let handle = session.cancel_handle();
        // Trip concurrently with the run; whichever slice poll sees it
        // first stops the run there. Every outcome must be a subset.
        let canceller = std::thread::spawn(move || {
            handle.cancel();
        });
        let result = session.run(&dataset.matrix, &NullSink).unwrap();
        canceller.join().unwrap();
        if result.truncated {
            assert_eq!(result.truncation, Some(TruncationReason::Cancelled));
        }
        for c in &result.triclusters {
            assert!(
                full.triclusters.iter().any(|f| c.is_subcluster_of(f)),
                "cancelled run invented a cluster"
            );
        }
    }
}
