//! Thread-count determinism (the oracle behind the `--threads` flag): the
//! mined clusters, every report counter, and the v2 report's
//! input-determined sections must be byte-identical whether the run used 1,
//! 2, or 8 workers — and so whether it fanned out at slice level or
//! intra-slice (pair/branch) level, which the thread count decides.

use std::collections::BTreeMap;
use tricluster::core::obs::json::Json;
use tricluster::core::obs::Recorder;
use tricluster::core::runreport::{self, determinism_diff};
use tricluster::core::testdata::paper_table1;
use tricluster::prelude::*;

/// Track every allocation in this test binary so the per-phase allocation
/// attribution path is live: runs carry `memory.alloc.*` counters and the
/// `memory.phase_bytes` report section. Measured byte counts are
/// schedule-dependent by nature, so the determinism comparisons below go
/// through `runreport::determinism_diff`, which compares the logical
/// (input-determined) sections only.
#[global_allocator]
static ALLOC: tricluster::core::obs::alloc::TrackingAlloc =
    tricluster::core::obs::alloc::TrackingAlloc;

/// A 400×10×5 synthetic workload: small enough for a tier-1 test, rich
/// enough that every DFS phase, histogram, and prune counter is exercised.
fn smoke_matrix() -> Matrix3 {
    let spec = SynthSpec {
        n_genes: 400,
        n_samples: 10,
        n_times: 5,
        n_clusters: 4,
        gene_range: (50, 50),
        sample_range: (4, 4),
        time_range: (3, 3),
        noise: 0.02,
        ..SynthSpec::default()
    };
    generate(&spec).matrix
}

fn smoke_params(threads: usize) -> Params {
    Params::builder()
        .epsilon(0.012)
        .min_size(25, 3, 2)
        .threads(threads)
        .build()
        .unwrap()
}

fn table1_params(threads: usize) -> Params {
    Params::builder()
        .epsilon(0.01)
        .min_size(3, 3, 2)
        .threads(threads)
        .build()
        .unwrap()
}

/// One worker, slice-level workers, and intra-slice workers on both test
/// matrices: 2 threads are at most their slice counts (5 and 2), 8 more.
const THREADS: [usize; 3] = [1, 2, 8];

/// Asserts the fan-out level a run on `n_times` slices picked, so no
/// thread-count loop can silently stop covering slice-level or intra-slice
/// workers.
fn assert_level(r: &MiningResult, n_times: usize, threads: usize) {
    let (range_graph, bicluster) = if threads > n_times {
        (FanoutLevel::Pair, FanoutLevel::Branch)
    } else {
        (FanoutLevel::Slice, FanoutLevel::Slice)
    };
    assert_eq!(r.fanout.range_graph, range_graph, "threads={threads}");
    assert_eq!(r.fanout.bicluster, bicluster, "threads={threads}");
    assert_eq!(r.fanout.threads, threads);
}

/// The run's v2 report document, as `mine --report-json` writes it.
fn report_doc(m: &Matrix3, result: &MiningResult) -> Json {
    let met = cluster_metrics_observed(m, &result.triclusters, &NullSink);
    runreport::report_to_json_v2(m, result, &result.report, &met)
}

/// Counters minus the measured-allocator ones, which legitimately vary
/// with the schedule (a map, so a failure names the counter that moved).
fn logical_counters(result: &MiningResult) -> BTreeMap<String, u64> {
    result
        .report
        .counter_map()
        .into_iter()
        .filter(|(k, _)| !runreport::is_measured_counter(k))
        .collect()
}

fn clusters(result: &MiningResult) -> Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    result
        .triclusters
        .iter()
        .map(|c| (c.genes.to_vec(), c.samples.clone(), c.times.clone()))
        .collect()
}

fn assert_invariant_across_schedules(m: &Matrix3, mk: &dyn Fn(usize) -> Params) {
    let baseline = Session::new(mk(1)).run(m, &Recorder::new()).unwrap();
    assert!(
        !baseline.report.histograms.is_empty(),
        "recording sink must collect histograms"
    );
    let base_doc = report_doc(m, &baseline);
    for threads in THREADS {
        let r = Session::new(mk(threads)).run(m, &Recorder::new()).unwrap();
        assert_level(&r, m.n_times(), threads);
        assert_eq!(
            clusters(&r),
            clusters(&baseline),
            "clusters differ at threads={threads}"
        );
        assert_eq!(
            logical_counters(&r),
            logical_counters(&baseline),
            "counters differ at threads={threads}"
        );
        assert_eq!(
            determinism_diff(&report_doc(m, &r), &base_doc),
            Ok(vec![]),
            "report sections differ at threads={threads}"
        );
    }
}

#[test]
fn smoke_workload_is_thread_and_fanout_invariant() {
    let m = smoke_matrix();
    assert_invariant_across_schedules(&m, &smoke_params);
}

#[test]
fn paper_table1_is_thread_and_fanout_invariant() {
    let m = paper_table1();
    assert_invariant_across_schedules(&m, &table1_params);
}

/// Timeline tracing and progress telemetry must be pure observers: mining
/// with a live trace journal and a running heartbeat ticker leaves every
/// input-determined section byte-identical to a plain run, at every thread
/// count (and so at every fan-out level).
#[test]
fn tracing_and_progress_do_not_perturb_deterministic_sections() {
    use std::sync::Arc;
    use std::time::Duration;
    use tricluster::core::obs::metrics::Registry;
    use tricluster::core::obs::progress::{ProgressSink, ProgressTicker};
    use tricluster::core::obs::timeline::Timeline;
    use tricluster::core::obs::Fanout;

    let m = smoke_matrix();
    let baseline = Session::new(smoke_params(1))
        .run(&m, &Recorder::new())
        .unwrap();
    let base_doc = report_doc(&m, &baseline);
    for threads in THREADS {
        let recorder = Recorder::new();
        let timeline = Timeline::new();
        let progress = Arc::new(Registry::for_run());
        let progress_sink = ProgressSink(progress.clone());
        let sink = Fanout(vec![&recorder, &timeline, &progress_sink]);
        // An aggressive heartbeat (1 ms) maximises the chance of racing
        // the miner; its output goes nowhere.
        let ticker = ProgressTicker::start(
            progress.clone(),
            Duration::from_millis(1),
            Box::new(std::io::sink()),
        );
        let r = Session::new(smoke_params(threads)).run(&m, &sink).unwrap();
        drop(ticker);
        assert_level(&r, m.n_times(), threads);
        assert_eq!(
            clusters(&r),
            clusters(&baseline),
            "clusters differ under tracing at threads={threads}"
        );
        assert_eq!(
            logical_counters(&r),
            logical_counters(&baseline),
            "counters differ under tracing at threads={threads}"
        );
        assert_eq!(
            determinism_diff(&report_doc(&m, &r), &base_doc),
            Ok(vec![]),
            "report sections differ under tracing at threads={threads}"
        );
        // the observers actually observed: the timeline journalled work
        // and the gauges saw every slice
        let journals = timeline.journals();
        assert!(
            journals.iter().any(|j| !j.events.is_empty()),
            "timeline recorded nothing at threads={threads}"
        );
        let snapshot = progress.progress_json().expect("a run's registry").render();
        assert!(
            snapshot.contains("\"phase\":\"done\"")
                && snapshot.contains("\"slices\":{\"done\":5,\"total\":5}"),
            "progress gauges never moved: {snapshot}"
        );
        // The logical-bytes gauge ends at what the run charged: the matrix
        // and every slice's retained biclusters.
        use tricluster::core::obs::names;
        assert!(!r.truncated);
        assert_eq!(
            progress.gauge_value(names::G_LOGICAL_BYTES),
            r.report.counter(names::M_MATRIX_BYTES) + r.report.counter(names::M_BICLUSTER_BYTES),
            "logical-bytes gauge at threads={threads}"
        );
    }
}

/// The metrics registry and its scrape server must be pure observers too:
/// mining with a live `Registry` in the sink fan-out — progress gauges
/// attached, HTTP server scraping `/metrics` after every run — leaves the
/// clusters and every input-determined section byte-identical to a plain
/// run, at every thread count and fan-out level. This is the tentpole
/// determinism guarantee behind `mine --metrics-addr`.
#[test]
fn metrics_registry_and_server_do_not_perturb_deterministic_sections() {
    use std::sync::Arc;
    use tricluster::core::obs::httpd::{http_get, scrape_handler, HttpServer};
    use tricluster::core::obs::metrics::Registry;
    use tricluster::core::obs::names;
    use tricluster::core::obs::Fanout;

    let m = smoke_matrix();
    let baseline = Session::new(smoke_params(1))
        .run(&m, &Recorder::new())
        .unwrap();
    let base_doc = report_doc(&m, &baseline);
    for threads in THREADS {
        let recorder = Recorder::new();
        let registry = Arc::new(Registry::for_run());
        let server = HttpServer::serve("127.0.0.1:0", 0, scrape_handler(registry.clone())).unwrap();
        let sink = Fanout(vec![&recorder, &*registry]);
        let r = Session::new(smoke_params(threads)).run(&m, &sink).unwrap();
        assert_level(&r, m.n_times(), threads);
        assert_eq!(
            clusters(&r),
            clusters(&baseline),
            "clusters differ under metrics at threads={threads}"
        );
        assert_eq!(
            logical_counters(&r),
            logical_counters(&baseline),
            "counters differ under metrics at threads={threads}"
        );
        assert_eq!(
            determinism_diff(&report_doc(&m, &r), &base_doc),
            Ok(vec![]),
            "report sections differ under metrics at threads={threads}"
        );
        // the registry really aggregated the run, and the final scrape
        // reflects it: pair counts match the report, the exposition is
        // well-terminated, and the gauges reached the terminal phase
        assert_eq!(
            registry.counter_value(names::RG_PAIRS),
            r.report.counter_map()[names::RG_PAIRS],
            "registry pair counter diverged at threads={threads}"
        );
        let (status, body) = http_get(&format!("{}/metrics", server.url())).unwrap();
        assert_eq!(status, 200);
        assert!(body.ends_with("# EOF\n"), "{body}");
        assert!(body.contains("tricluster_rangegraph_pairs_total"), "{body}");
        assert!(
            body.contains("tricluster_progress_phase{phase=\"done\"} 1"),
            "{body}"
        );
        drop(server);
    }
}

/// The full observability stack live at once — tracking allocator with
/// per-phase attribution, a timeline journal folded to flamegraph stacks,
/// and every run archived into one ledger — must leave the mined clusters
/// and input-determined sections invariant across thread counts and
/// fan-out levels. The archived reports carry the measured allocator
/// sections, and two of them from different thread counts compare clean
/// under `determinism_diff`, which leaves the measured counters out.
#[test]
fn ledger_flame_and_phase_bytes_do_not_perturb_determinism() {
    use tricluster::core::obs::ledger::{content_hash, Ledger, NewEntry};
    use tricluster::core::obs::timeline::Timeline;
    use tricluster::core::obs::Fanout;

    let dir =
        std::env::temp_dir().join(format!("tricluster-det-ledger-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ledger = Ledger::open(dir.join("ledger")).unwrap();
    let m = smoke_matrix();
    let baseline = Session::new(smoke_params(1))
        .run(&m, &Recorder::new())
        .unwrap();
    let base_doc = report_doc(&m, &baseline);
    let mut ids = Vec::new();
    for threads in THREADS {
        let recorder = Recorder::new();
        let timeline = Timeline::new();
        let sink = Fanout(vec![&recorder, &timeline]);
        let r = Session::new(smoke_params(threads)).run(&m, &sink).unwrap();
        assert_level(&r, m.n_times(), threads);
        assert_eq!(
            clusters(&r),
            clusters(&baseline),
            "clusters differ at threads={threads}"
        );
        assert_eq!(
            logical_counters(&r),
            logical_counters(&baseline),
            "counters differ at threads={threads}"
        );
        let doc = report_doc(&m, &r);
        assert_eq!(
            determinism_diff(&doc, &base_doc),
            Ok(vec![]),
            "report sections differ at threads={threads}"
        );
        // the allocator really attributed traffic to each phase, and
        // the phases sum to no more than the whole-run total (other
        // test threads share the global counters, so lower bounds only)
        let counters = r.report.counter_map();
        let total = counters["memory.alloc.total_bytes"];
        assert!(total > 0, "no measured allocations");
        let phase_sum: u64 = [
            "memory.alloc.slices.bytes",
            "memory.alloc.triclusters.bytes",
            "memory.alloc.prune.bytes",
        ]
        .iter()
        .map(|k| counters[*k])
        .sum();
        assert!(
            phase_sum > 0 && phase_sum <= total,
            "{phase_sum} vs {total}"
        );
        // the timeline folds into non-empty well-formed stacks
        let folded = timeline.to_folded();
        assert!(!folded.trim().is_empty());
        for line in folded.lines() {
            let (stack, micros) = line.rsplit_once(' ').expect("`stack N` shape");
            assert!(
                !stack.is_empty() && micros.parse::<u64>().is_ok(),
                "{line:?}"
            );
        }
        // archive the run, flame artifact included
        runreport::validate_v2(&doc).unwrap();
        let id = ledger
            .archive(&NewEntry {
                kind: "mine",
                label: Some(format!("threads{threads}")),
                dataset_hash: content_hash(b"determinism-smoke"),
                params_hash: content_hash(format!("{threads}").as_bytes()),
                report: &doc,
                trace: None,
                flame: Some(&folded),
            })
            .unwrap();
        ids.push(id);
    }
    // the archive round-trips: every run listed, every flame readable
    let entries = ledger.list().unwrap();
    assert_eq!(entries.len(), THREADS.len());
    assert_eq!(
        entries.iter().map(|e| e.id.clone()).collect::<Vec<_>>(),
        ids
    );
    assert!(ledger.flame_path(&ids[0]).is_file());
    // archived reports carry the measured allocator totals and per-phase
    // attribution, and runs at 1 and 8 threads still compare clean
    let first = ledger.read_report(&ids[0]).unwrap();
    let last = ledger.read_report(&ids[THREADS.len() - 1]).unwrap();
    for doc in [&first, &last] {
        for path in [
            &["memory", "alloc", "total_bytes"][..],
            &["memory", "phase_bytes", "slices", "bytes"],
            &["memory", "phase_bytes", "triclusters", "bytes"],
            &["memory", "phase_bytes", "prune", "bytes"],
        ] {
            assert!(doc.get_path(path).is_some(), "{path:?} not archived");
        }
    }
    assert_eq!(determinism_diff(&first, &last), Ok(vec![]));
    std::fs::remove_dir_all(&dir).ok();
}

/// The smoke workload actually exercises the intra-slice paths: at 8
/// threads over 5 slices the run picks pair-level range graphs and
/// branch-level DFS, at 2 threads slice-level fan-out.
#[test]
fn auto_fanout_goes_intra_when_workers_outnumber_slices() {
    let m = smoke_matrix();
    let r = mine(&m, &smoke_params(8)).unwrap();
    assert_eq!(r.fanout.range_graph, FanoutLevel::Pair);
    assert_eq!(r.fanout.bicluster, FanoutLevel::Branch);
    let r = mine(&m, &smoke_params(2)).unwrap();
    assert_eq!(r.fanout.range_graph, FanoutLevel::Slice);
    assert_eq!(r.fanout.bicluster, FanoutLevel::Slice);
}
