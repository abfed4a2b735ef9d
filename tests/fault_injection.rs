//! The fault-injection gate: every named injection site, hit with every
//! action, must degrade into a typed error or a valid truncated subset —
//! never a process abort, never an invented cluster.
//!
//! Test builds compile `tricluster-core` with the `failpoints` feature, so
//! the sites in [`FAILPOINTS`] are live here; release builds compile them
//! to nothing. Scenarios serialize through the process-global
//! `failpoint::scenario()` guard.

use std::time::Duration;
use tricluster::core::runreport::{fault_json, report_to_json_v2};
use tricluster::core::FAILPOINTS;
use tricluster::prelude::*;
use tricluster_failpoint::{self as failpoint, Action};

fn smoke_matrix() -> Matrix3 {
    let spec = SynthSpec {
        n_genes: 200,
        n_samples: 8,
        n_times: 4,
        n_clusters: 2,
        gene_range: (30, 30),
        sample_range: (4, 4),
        time_range: (3, 3),
        noise: 0.01,
        ..SynthSpec::default()
    };
    generate(&spec).matrix
}

fn params(threads: usize) -> Params {
    // ε matched to the generator's 1% noise (suggested_epsilon = 4.5·noise)
    Params::builder()
        .epsilon(0.045)
        .min_size(15, 3, 2)
        .threads(threads)
        .build()
        .unwrap()
}

fn cluster_view(result: &MiningResult) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    result
        .triclusters
        .iter()
        .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
        .collect()
}

fn assert_subset(degraded: &MiningResult, full: &MiningResult) {
    for c in &degraded.triclusters {
        assert!(
            full.triclusters.iter().any(|f| c.is_subcluster_of(f)),
            "degraded run invented a cluster outside the full set: {c:?}"
        );
    }
}

/// The tentpole guarantee: for every site × every action, `mine` returns —
/// a typed error or an `Ok` whose clusters are a subset of the clean run's.
#[test]
fn every_site_and_every_action_degrades_gracefully() {
    let m = smoke_matrix();
    let plain = params(1);
    // the prune phase only runs when merge/delete post-processing is on
    let merging = Params::builder()
        .epsilon(0.045)
        .min_size(15, 3, 2)
        .threads(1)
        .merge(MergeParams {
            eta: 0.2,
            gamma: 0.1,
        })
        .build()
        .unwrap();
    // Reference runs hold the guard too: a concurrent scenario's armed
    // site would otherwise fire in them.
    let (full_plain, full_merging) = {
        let _s = failpoint::scenario();
        (mine(&m, &plain).unwrap(), mine(&m, &merging).unwrap())
    };
    for &site in FAILPOINTS {
        let (p, full) = if site == "core.prune.phase" {
            (&merging, &full_merging)
        } else {
            (&plain, &full_plain)
        };
        for action in [
            Action::Panic,
            Action::Error,
            Action::Delay(Duration::from_millis(2)),
        ] {
            let _s = failpoint::scenario();
            failpoint::configure_once(site, action.clone());
            match mine(&m, p) {
                Ok(r) => {
                    assert_subset(&r, full);
                    // a delay alone must not perturb the result at all
                    if action == Action::Delay(Duration::from_millis(2)) {
                        assert_eq!(
                            cluster_view(&r),
                            cluster_view(full),
                            "{site}: delay changed the output"
                        );
                        assert_eq!(r.truncation, None, "{site}: delay marked truncation");
                    } else {
                        // a lost unit must be accounted for
                        assert!(
                            r.truncated,
                            "{site}/{action:?}: degraded Ok not flagged truncated"
                        );
                        assert!(
                            !r.worker_failures.is_empty(),
                            "{site}/{action:?}: no failure recorded"
                        );
                    }
                }
                Err(e) => {
                    // only the front-door site may fail the whole run, and
                    // only with its typed error variants
                    assert_eq!(site, "core.mine.entry", "{site}/{action:?}: {e}");
                    match (&action, &e) {
                        (Action::Error, MineError::Fault { site: s, .. }) => {
                            assert_eq!(*s, "core.mine.entry")
                        }
                        (Action::Panic, MineError::Panic { message }) => {
                            assert!(message.contains("core.mine.entry"), "{message}")
                        }
                        other => panic!("unexpected error shape: {other:?}"),
                    }
                }
            }
        }
    }
}

/// One poisoned DFS branch: the run completes, names the lost unit, and the
/// survivors merge deterministically.
#[test]
fn branch_panic_is_isolated_and_reported() {
    let m = smoke_matrix();
    let p = params(1);
    let _s = failpoint::scenario();
    let full = mine(&m, &p).unwrap();
    failpoint::configure_once("core.bicluster.branch", Action::Panic);
    let r = mine(&m, &p).unwrap();
    assert!(r.truncated);
    assert_eq!(r.truncation, Some(TruncationReason::WorkerFailure));
    assert_eq!(r.worker_failures.len(), 1);
    let f = &r.worker_failures[0];
    assert_eq!(f.phase, "bicluster_branch");
    assert!(f.unit.starts_with("t="), "unit names the slice: {}", f.unit);
    assert!(f.message.contains("core.bicluster.branch"), "{}", f.message);
    assert_subset(&r, &full);
    // the failure reaches the report: counter + v2 fault section
    assert_eq!(
        r.report
            .counter(tricluster::core::obs::names::F_WORKER_FAILURES),
        1
    );
    let met = cluster_metrics_observed(&m, &r.triclusters, &NullSink);
    let doc = report_to_json_v2(&m, &r, &r.report, &met);
    tricluster::core::runreport::validate_v2(&doc).unwrap();
    assert_eq!(
        doc.get_path(&["fault", "truncation_reason"])
            .and_then(|v| v.as_str()),
        Some("worker_failure")
    );
    assert_eq!(
        doc.get_path(&["fault", "worker_failures"])
            .and_then(|v| v.as_arr())
            .map(<[_]>::len),
        Some(1)
    );
}

/// Panic isolation holds on the multi-threaded fan-out paths too: a panic
/// inside a worker thread never tears the process down. 4 threads on the 4
/// slices fan out by slice; 5 go intra-slice.
#[test]
fn worker_thread_panics_are_isolated() {
    let m = smoke_matrix();
    let full = {
        let _s = failpoint::scenario();
        mine(&m, &params(1)).unwrap()
    };
    for (site, threads, level) in [
        ("core.slice", 4, FanoutLevel::Slice),
        ("core.rangegraph.pair", 5, FanoutLevel::Pair),
        ("core.bicluster.branch", 5, FanoutLevel::Pair),
    ] {
        let _s = failpoint::scenario();
        failpoint::configure_once(site, Action::Panic);
        let r = mine(&m, &params(threads)).unwrap();
        assert_eq!(r.fanout.range_graph, level, "{site}");
        assert!(r.truncated, "{site}");
        assert!(!r.worker_failures.is_empty(), "{site}");
        assert_subset(&r, &full);
    }
}

/// Every attempted unit bumps its phase's progress gauge exactly once,
/// completed or failed, so slices, pairs and branches all reach their
/// totals — at one worker, at slice-level and at intra-slice fan-out, and
/// with one unit of each kind panicking.
#[test]
fn progress_gauges_reach_their_totals() {
    use std::sync::Arc;
    use tricluster::core::obs::metrics::Registry;
    use tricluster::core::obs::names;
    use tricluster::core::obs::progress::ProgressSink;

    let m = smoke_matrix();
    for (threads, range_graph, bicluster) in [
        (1, FanoutLevel::Slice, FanoutLevel::Slice),
        (2, FanoutLevel::Slice, FanoutLevel::Slice),
        (5, FanoutLevel::Pair, FanoutLevel::Branch),
    ] {
        for site in [
            None,
            Some("core.slice"),
            Some("core.rangegraph.pair"),
            Some("core.bicluster.branch"),
        ] {
            let _s = failpoint::scenario();
            if let Some(site) = site {
                failpoint::configure_once(site, Action::Panic);
            }
            let progress = Arc::new(Registry::for_run());
            let r = Session::new(params(threads))
                .run(&m, &ProgressSink(progress.clone()))
                .unwrap();
            let ctx = format!("threads={threads} site={site:?}");
            assert_eq!(r.fanout.range_graph, range_graph, "{ctx}");
            assert_eq!(r.fanout.bicluster, bicluster, "{ctx}");
            assert_eq!(
                r.worker_failures.len(),
                usize::from(site.is_some()),
                "{ctx}"
            );
            let gauge = |name| progress.gauge_value(name);
            let slices_total = gauge(names::G_SLICES_TOTAL);
            assert_eq!(slices_total, m.n_times() as u64, "{ctx}");
            assert_eq!(gauge(names::G_SLICES_DONE), slices_total, "{ctx}");
            let pairs_total = gauge(names::G_PAIRS_TOTAL);
            assert!(pairs_total > 0, "{ctx}");
            assert_eq!(gauge(names::G_PAIRS_DONE), pairs_total, "{ctx}");
            let branches_total = gauge(names::G_BRANCHES_TOTAL);
            assert!(branches_total > 0, "{ctx}");
            assert_eq!(gauge(names::G_BRANCHES_DONE), branches_total, "{ctx}");
        }
    }
}

/// An injected per-slice delay plus a tiny deadline: every slice polls the
/// expired deadline before doing work, so the truncated result is empty and
/// byte-identical across thread counts — the deterministic deadline test.
#[test]
fn injected_delay_with_deadline_truncates_deterministically() {
    let m = smoke_matrix();
    for threads in [1usize, 2, 8] {
        let _s = failpoint::scenario();
        failpoint::configure("core.slice", Action::Delay(Duration::from_millis(30)));
        let p = Params::builder()
            .epsilon(0.045)
            .min_size(15, 3, 2)
            .threads(threads)
            .deadline(Duration::from_millis(1))
            .build()
            .unwrap();
        let r = mine(&m, &p).unwrap();
        assert!(r.truncated, "threads={threads}");
        assert_eq!(r.truncation, Some(TruncationReason::Deadline));
        assert!(
            r.triclusters.is_empty(),
            "slices that wake up past the deadline must contribute nothing \
             (threads={threads}, got {})",
            r.triclusters.len()
        );
        assert_eq!(
            fault_json(&r)
                .unwrap()
                .get("truncation_reason")
                .unwrap()
                .as_str(),
            Some("deadline")
        );
    }
}

/// With nothing armed, runs through the failpoint-instrumented build are
/// byte-identical to a clean run: no fault section, no failure counter, and
/// the same clusters and counters on every thread count.
#[test]
fn disarmed_failpoints_leave_no_trace() {
    let m = smoke_matrix();
    let _s = failpoint::scenario(); // guards against concurrent scenarios
    let render = |threads: usize| {
        let r = mine(&m, &params(threads)).unwrap();
        assert!(!r.truncated);
        assert_eq!(r.truncation, None);
        assert!(r.worker_failures.is_empty());
        assert_eq!(
            r.report
                .counter(tricluster::core::obs::names::F_WORKER_FAILURES),
            0
        );
        assert_eq!(fault_json(&r), None);
        let met = cluster_metrics_observed(&m, &r.triclusters, &NullSink);
        let doc = report_to_json_v2(&m, &r, &r.report, &met);
        assert!(doc.get("fault").is_none(), "clean runs carry no fault key");
        format!(
            "{:?}\n{}",
            cluster_view(&r),
            doc.get_path(&["report", "counters"]).unwrap().render()
        )
    };
    let one = render(1);
    assert_eq!(one, render(2));
    assert_eq!(one, render(8));
}

/// A panic raised mid-event — after rendering a JSON line but before it
/// reaches the writer — must never tear the stream: every byte that does
/// come out is complete lines of valid JSON, and the sink keeps working
/// after recovering the poisoned lock.
#[test]
fn jsonlines_panic_never_tears_a_line() {
    use std::io::Write;
    use std::sync::{Arc, Mutex};
    use tricluster::core::obs::json::Json;
    use tricluster::core::obs::{EventSink, JsonLinesSink};

    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = Arc::new(Mutex::new(Vec::new()));
    let _s = failpoint::scenario();
    let sink = JsonLinesSink::new(SharedBuf(buf.clone()));
    sink.counter("before", 1);
    failpoint::configure_once("obs.jsonlines.line", Action::Panic);
    let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sink.counter("poisoned", 2);
    }));
    assert!(hit.is_err(), "armed failpoint must panic");
    // the sink still accepts events after the panic...
    sink.counter("after", 3);
    drop(sink);
    let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
    // ...and the stream holds only complete, parseable lines: the
    // panicked event is wholly absent, not half-written
    assert!(text.ends_with('\n'), "torn tail: {text:?}");
    let names: Vec<String> = text
        .lines()
        .map(|line| {
            let doc =
                Json::parse(line).unwrap_or_else(|e| panic!("torn/invalid line {line:?}: {e}"));
            doc.get("counter")
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(names, ["before", "after"], "{text:?}");
}

/// A lost prune phase degrades to "no clusters survived post-processing" —
/// flagged, recorded, and still a well-formed result.
#[test]
fn prune_phase_panic_yields_flagged_empty_result() {
    let m = smoke_matrix();
    let _s = failpoint::scenario();
    failpoint::configure_once("core.prune.phase", Action::Panic);
    let p = Params::builder()
        .epsilon(0.045)
        .min_size(15, 3, 2)
        .threads(1)
        .merge(MergeParams {
            eta: 0.2,
            gamma: 0.1,
        })
        .build()
        .unwrap();
    let r = mine(&m, &p).unwrap();
    assert!(r.truncated);
    assert_eq!(r.truncation, Some(TruncationReason::WorkerFailure));
    assert!(r.triclusters.is_empty());
    assert_eq!(r.worker_failures.len(), 1);
    assert_eq!(r.worker_failures[0].phase, "prune");
}
